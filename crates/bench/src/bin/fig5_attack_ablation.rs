//! Fig. 5 — ablation on PEEGA's attack types.
//!
//! (a) PEEGA restricted to feature perturbations (FP), topology
//!     modifications (TM), and both (TM+FP) across perturbation rates,
//!     evaluated by GCN accuracy. Target: TM ≈ TM+FP ≪ FP in attack
//!     strength (feature flips contribute little at equal cost).
//! (b) Feature-cost sweep β ∈ {0.1, …, 1.0} with `S_f = S_f / β`: the
//!     number of feature vs. topology modifications, and the GCN / GNAT
//!     accuracy per β. Target: feature modifications decrease with β; GCN
//!     accuracy dips at intermediate β; GNAT stays flat and on top.
//!
//! Each attack+evaluate unit is fault-isolated and checkpointed to
//! `results/fig5_attack_ablation.checkpoint.json` for crash-safe resume.

use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, fault::FaultRunner, report::Table};
use bbgnn_scenario::eval::accuracy_cell;
use bbgnn_scenario::job::CellValue;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("fig5_attack_ablation"));
    let g = DatasetSpec::CoraLike.generate(cfg.scale, cfg.seed);
    let mut harness = FaultRunner::new(&cfg, "fig5_attack_ablation");

    // ---- (a) attack-space ablation across rates -------------------------
    println!("\n--- Fig 5(a): GCN accuracy under PEEGA variants ---\n");
    let mut table_a = Table::new(&["rate", "FP", "TM", "TM+FP"]);
    for &rate in &[0.05, 0.1, 0.15, 0.2] {
        let mut cells = vec![format!("{rate}")];
        for (tag, space) in [
            ("FP", AttackSpace::FeatureOnly),
            ("TM", AttackSpace::TopologyOnly),
            ("TM+FP", AttackSpace::Both),
        ] {
            cells.push(harness.cell(&format!("a/r{rate}/{tag}"), cfg.seed, |seed| {
                let mut atk = Peega::new(PeegaConfig {
                    rate,
                    space,
                    ..Default::default()
                });
                let poisoned = atk.attack(&g).poisoned;
                Ok(accuracy_cell(&DefenderKind::Gcn, &poisoned, cfg.runs, seed))
            }));
        }
        table_a.push_row(cells);
    }
    table_a.emit(&cfg.out_dir, "fig5a_attack_space");

    // ---- (b) feature-cost sweep -----------------------------------------
    println!(
        "\n--- Fig 5(b): feature-cost β sweep at rate {} ---\n",
        cfg.rate
    );
    let mut table_b = Table::new(&[
        "beta",
        "feature mods",
        "topology mods",
        "GCN acc",
        "GNAT acc",
    ]);
    for &beta in &[0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let keys: Vec<String> = ["fmods", "tmods", "gcn", "gnat"]
            .iter()
            .map(|k| format!("b/beta{beta}/{k}"))
            .collect();
        // One attack feeds all four cells of the row; skip it when the row
        // is fully checkpointed.
        let result = if keys.iter().all(|k| harness.is_done(k)) {
            None
        } else {
            let mut atk = Peega::new(PeegaConfig {
                rate: cfg.rate,
                beta,
                ..Default::default()
            });
            Some(atk.attack(&g))
        };
        let count_cell = |pick: fn(&AttackResult) -> usize| {
            let result = &result;
            move |_seed: u64| match result {
                Some(r) => Ok(CellValue::clean(pick(r).to_string())),
                // Unreachable: `result` is only None when every cell of the
                // row is cached, and cached cells never run their closure.
                None => Err(BbgnnError::ExperimentAborted {
                    cell: "fig5b".to_string(),
                    cause: "attack result missing for un-cached cell".to_string(),
                }),
            }
        };
        let fmods = harness.cell(&keys[0], cfg.seed, count_cell(|r| r.feature_flips));
        let tmods = harness.cell(&keys[1], cfg.seed, count_cell(|r| r.edge_flips));
        let eval_cell = |kind: DefenderKind| {
            let result = &result;
            move |seed: u64| match result {
                Some(r) => Ok(accuracy_cell(&kind, &r.poisoned, cfg.runs, seed)),
                None => Err(BbgnnError::ExperimentAborted {
                    cell: "fig5b".to_string(),
                    cause: "attack result missing for un-cached cell".to_string(),
                }),
            }
        };
        let gcn = harness.cell(&keys[2], cfg.seed, eval_cell(DefenderKind::Gcn));
        let gnat = harness.cell(
            &keys[3],
            cfg.seed,
            eval_cell(DefenderKind::Gnat(GnatConfig::default())),
        );
        table_b.push_row(vec![format!("{beta}"), fmods, tmods, gcn, gnat]);
    }
    table_b.emit(&cfg.out_dir, "fig5b_beta_sweep");
    println!("\n{}", harness.summary());
    if let Some(stop) = bbgnn_supervise::stop_summary() {
        println!("{stop}");
    }
    println!("paper: feature mods shrink as β grows; GNAT dominates GCN throughout.");
}
