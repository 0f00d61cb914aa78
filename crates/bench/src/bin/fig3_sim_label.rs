//! Fig. 3 — cross-label neighborhood similarity under Metattack at
//! perturbation rates r ∈ {0, 0.5, 1, 5}, with the GCN accuracy per rate.
//!
//! Reproduction target: the clean graph shows high intra-label (diagonal)
//! and low inter-label similarity; as r grows, inter-label similarity
//! rises, contexts blur, and accuracy falls.

use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, report::Table};
use bbgnn_scenario::eval::gcn_accuracy;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("fig3_sim_label"));
    let g = DatasetSpec::CoraLike.generate(cfg.scale, cfg.seed);

    // The paper's r = 5 flips 5× the edge count — at miniature scale the
    // densified graph makes Metattack's dense gradient loop very slow, so
    // the sweep is capped at 1.0 by default (the trend saturates earlier).
    let rates = [0.0, 0.5, 1.0];
    let mut summary = Table::new(&["ptb rate", "intra-label sim", "inter-label sim", "GCN acc"]);
    for &r in &rates {
        let poisoned = if r == 0.0 {
            g.clone()
        } else {
            let mut atk = Metattack::new(MetattackConfig {
                rate: r,
                retrain_every: 20,
                ..Default::default()
            });
            atk.attack(&g).poisoned
        };
        let sim = cross_label_similarity(&poisoned);
        let (intra, inter) = intra_inter_similarity(&sim);
        let acc = gcn_accuracy(&poisoned, cfg.runs, cfg.seed);

        println!("\n--- similarity matrix at r = {r} (Acc = {acc}) ---");
        let mut matrix = Table::new(
            &std::iter::once("label".to_string())
                .chain((0..g.num_classes).map(|c| format!("y{c}")))
                .collect::<Vec<_>>()
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
        );
        for i in 0..g.num_classes {
            let mut row = vec![format!("y{i}")];
            for j in 0..g.num_classes {
                row.push(format!("{:.3}", sim.get(i, j)));
            }
            matrix.push_row(row);
        }
        print!("{}", matrix.render());

        summary.push_row(vec![
            format!("{r}"),
            format!("{intra:.4}"),
            format!("{inter:.4}"),
            acc.to_string(),
        ]);
    }
    println!();
    summary.emit(&cfg.out_dir, "fig3_sim_label");
    println!("\npaper: rising r blurs contexts (inter-label similarity up, accuracy down).");
}
