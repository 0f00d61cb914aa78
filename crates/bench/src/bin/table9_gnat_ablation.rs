//! Table IX — ablation of GNAT's augmented graphs on PEEGA-poisoned
//! graphs at perturbation rate 0.1.
//!
//! Variants: single views (t, f, e), multi-view combinations (t+f, t+e,
//! f+e, t+f+e), and merged graphs (tf, te, fe, tfe). Feature-view rows are
//! skipped on Polblogs (identity features), exactly as the paper's
//! dashes.
//!
//! Cells are fault-isolated and checkpointed to
//! `results/table9_gnat_ablation.checkpoint.json`; datasets whose cells
//! are all complete are not re-poisoned on resume.
//!
//! Reproduction targets: multi-view combinations beat their single views;
//! each multi-view variant beats its merged counterpart; t+f+e is best.

use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, fault::FaultRunner, report::Table};
use bbgnn_scenario::eval::accuracy_cell;

fn variants() -> Vec<(&'static str, Vec<View>, bool)> {
    use View::{Ego as E, Feature as F, Topology as T};
    vec![
        ("GNAT-t", vec![T], false),
        ("GNAT-f", vec![F], false),
        ("GNAT-e", vec![E], false),
        ("GNAT-t+f", vec![T, F], false),
        ("GNAT-t+e", vec![T, E], false),
        ("GNAT-f+e", vec![F, E], false),
        ("GNAT-t+f+e", vec![T, F, E], false),
        ("GNAT-tf", vec![T, F], true),
        ("GNAT-te", vec![T, E], true),
        ("GNAT-fe", vec![F, E], true),
        ("GNAT-tfe", vec![T, F, E], true),
    ]
}

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("table9_gnat_ablation"));
    let mut harness = FaultRunner::new(&cfg, "table9_gnat_ablation");

    let specs = DatasetSpec::paper_datasets();
    let mut headers = vec!["Variant".to_string()];
    headers.extend(specs.iter().map(|s| s.name().to_string()));
    let mut table = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    // Poison each dataset once with PEEGA — unless every one of its cells
    // is already checkpointed, in which case the clean graph stands in (no
    // cell will evaluate it).
    let poisoned: Vec<(bool, Graph)> = specs
        .iter()
        .map(|s| {
            let g = s.generate(cfg.scale, cfg.seed);
            let dataset_done = variants()
                .iter()
                .all(|(name, _, _)| harness.is_done(&format!("{}/{name}", s.name())));
            if dataset_done {
                (s.identity_features(), g)
            } else {
                let mut atk = Peega::new(PeegaConfig {
                    rate: cfg.rate,
                    ..Default::default()
                });
                (s.identity_features(), atk.attack(&g).poisoned)
            }
        })
        .collect();

    for (name, views, merged) in variants() {
        let uses_features = views.contains(&View::Feature);
        let mut cells = vec![name.to_string()];
        for (spec, (identity, g)) in specs.iter().zip(&poisoned) {
            if uses_features && *identity {
                cells.push("-".to_string());
                continue;
            }
            let kind = DefenderKind::Gnat(GnatConfig {
                views: views.clone(),
                merged,
                // Dense graphs saturate at 2 hops (see registry note).
                k_t: if *identity { 1 } else { 2 },
                ..Default::default()
            });
            let key = format!("{}/{name}", spec.name());
            cells.push(harness.cell(&key, cfg.seed, |seed| {
                Ok(accuracy_cell(&kind, g, cfg.runs, seed))
            }));
        }
        eprintln!("[{name} done]");
        table.push_row(cells);
    }
    table.emit(&cfg.out_dir, "table9_gnat_ablation");
    println!("\n{}", harness.summary());
    if let Some(stop) = bbgnn_supervise::stop_summary() {
        println!("{stop}");
    }
    println!("paper: multi-view > single view; multi-view > merged; t+f+e best.");
}
