//! Fig. 6 — accuracy of GCN, Pro-GNN, and GNAT under Metattack and PEEGA
//! across perturbation rates r ∈ {0, 0.05, 0.1, 0.15, 0.2}, per dataset.
//!
//! Series are named [model]+[attack] as in the paper: GCN+M is a GCN
//! trained on the Metattack poison graph, GNAT+P is GNAT on the PEEGA
//! poison graph, and so on.
//!
//! Cells are scenario [`Job`]s, fault-isolated and checkpointed to
//! `results/fig6_ptb_sweep.checkpoint.json`; a killed sweep resumes from
//! the last completed cell (and skips re-poisoning rates whose cells are
//! all done), reproducing the uninterrupted output byte for byte.
//!
//! Reproduction targets: all series fall as r grows; the GNAT series stay
//! on top; PEEGA's curves sit below Metattack's on Citeseer/Polblogs.

use bbgnn::prelude::*;
use bbgnn::scenario::dataset::paper_specs;
use bbgnn::scenario::job::{EvalKind, Job};
use bbgnn_bench::{config::ExpConfig, fault::FaultRunner, report::Table};

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("fig6_ptb_sweep"));
    let specs = match paper_specs(cfg.dataset.as_deref()) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let ctx = ExecContext::from_env();
    let mut harness = FaultRunner::new(&cfg, "fig6_ptb_sweep");

    for spec in specs {
        let g = spec.generate(cfg.scale, cfg.seed);
        println!("\n### {} ###\n", spec.name());
        let defenders: Vec<(&str, DefenderKind)> = vec![
            ("GCN", DefenderKind::Gcn),
            (
                "ProGNN",
                DefenderKind::ProGnn(ProGnnConfig {
                    // Reduced outer budget: this bin trains Pro-GNN 30 times
                    // (5 rates x 2 attackers x runs); the full default budget
                    // would dominate the whole suite's wall-clock.
                    outer_epochs: 12,
                    inner_epochs: 4,
                    svd_every: 4,
                    ..Default::default()
                }),
            ),
            (
                "GNAT",
                DefenderKind::Gnat(if spec.identity_features() {
                    GnatConfig::without_feature_view()
                } else {
                    GnatConfig::default()
                }),
            ),
        ];
        let mut headers = vec!["rate".to_string()];
        for (dname, _) in &defenders {
            headers.push(format!("{dname}+M"));
            headers.push(format!("{dname}+P"));
        }
        let mut table = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

        for &rate in &[0.0, 0.05, 0.1, 0.15, 0.2] {
            let key_of = |dname: &str, atk: &str| format!("{}/r{rate}/{dname}+{atk}", spec.name());
            let rate_done = defenders
                .iter()
                .all(|(d, _)| harness.is_done(&key_of(d, "M")) && harness.is_done(&key_of(d, "P")));
            let (meta_graph, peega_graph) = if rate == 0.0 || rate_done {
                (g.clone(), g.clone())
            } else {
                let mut meta = Metattack::new(MetattackConfig {
                    rate,
                    retrain_every: 5,
                    ..Default::default()
                });
                let mut peega = Peega::new(PeegaConfig {
                    rate,
                    ..Default::default()
                });
                (meta.attack(&g).poisoned, peega.attack(&g).poisoned)
            };
            let mut cells = vec![format!("{rate}")];
            for (dname, kind) in &defenders {
                for (atk, graph) in [("M", &meta_graph), ("P", &peega_graph)] {
                    let mut job_spec = cfg.job_spec(spec.name(), EvalKind::Accuracy);
                    job_spec.eval.rate = rate;
                    // The two poison graphs are shared across the rate's
                    // six cells, so each job takes the prepared graph; the
                    // key override preserves the historical checkpoint
                    // format.
                    let job = Job::from_parts(key_of(dname, atk), job_spec, None, kind.clone());
                    cells.push(harness.job(job, &ctx, Some(graph)));
                }
            }
            eprintln!("[{} r={rate} done]", spec.name());
            table.push_row(cells);
        }
        table.emit(&cfg.out_dir, &format!("fig6_ptb_sweep_{}", spec.name()));
    }
    println!("\n{}", harness.summary());
    if let Some(stop) = bbgnn_supervise::stop_summary() {
        println!("{stop}");
    }
    println!("paper: accuracy falls with r; GNAT (green) stays above Pro-GNN and GCN.");
}
