//! Fig. 2 — edge difference between the poisoned and the original graph
//! under perturbation rate 0.1, broken into Add/Del × Same/Diff.
//!
//! Reproduction target: for every effective attacker, Add+Diff (adding
//! edges between nodes with different labels) dominates the other three
//! bars — the context-blurring insight of Sec. IV-A.

use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, report::Table};
use bbgnn_scenario::eval::AttackRow;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("fig2_edge_diff"));
    let g = DatasetSpec::CoraLike.generate(cfg.scale, cfg.seed);
    println!(
        "cora-like graph: {} nodes, {} edges, budget δ = {}\n",
        g.num_nodes(),
        g.num_edges(),
        budget_for(&g, cfg.rate)
    );

    let mut table = Table::new(&[
        "attacker",
        "Add+Same",
        "Add+Diff",
        "Del+Same",
        "Del+Diff",
        "feature flips",
    ]);
    for row in AttackRow::paper_rows(cfg.rate).into_iter().skip(1) {
        let result = row.poison(&g);
        let d = edge_diff_breakdown(&g, result.as_ref().map_or(&g, |r| &r.poisoned));
        table.push_row(vec![
            row.name(),
            d.add_same.to_string(),
            d.add_diff.to_string(),
            d.del_same.to_string(),
            d.del_diff.to_string(),
            result.map_or(0, |r| r.feature_flips).to_string(),
        ]);
    }
    // Reference row: the label-aware DICE heuristic produces the Add+Diff /
    // Del+Same pattern by construction.
    let mut dice = Dice::new(DiceConfig {
        rate: cfg.rate,
        ..Default::default()
    });
    let d = edge_diff_breakdown(&g, &dice.attack(&g).poisoned);
    table.push_row(vec![
        "DICE (ref)".to_string(),
        d.add_same.to_string(),
        d.add_diff.to_string(),
        d.del_same.to_string(),
        d.del_diff.to_string(),
        "0".to_string(),
    ]);
    table.emit(&cfg.out_dir, "fig2_edge_diff");
    println!("\npaper: attackers tend to ADD edges between nodes with DIFFERENT labels.");
}
