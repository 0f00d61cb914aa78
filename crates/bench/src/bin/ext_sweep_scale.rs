//! Extension — scaling study of attack cost and strength.
//!
//! Table VII reports absolute attack times at one dataset size. This bin
//! sweeps the dataset scale and records, per attacker, wall-clock and the
//! GCN accuracy drop it buys — making the complexity claims of Sec. III-B2
//! (PEEGA's `O(δ d |V|²)`) and the paper's efficiency comparison visible
//! as curves rather than one column.

use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, report::Table};
use bbgnn_scenario::eval::gcn_accuracy;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("ext_sweep_scale"));

    let mut table = Table::new(&[
        "scale",
        "nodes",
        "edges",
        "attacker",
        "time(s)",
        "GCN acc after",
    ]);
    for &scale in &[0.06, 0.09, 0.12, 0.18] {
        let g = DatasetSpec::CoraLike.generate(scale, cfg.seed);
        let clean = gcn_accuracy(&g, cfg.runs, cfg.seed);
        table.push_row(vec![
            format!("{scale}"),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            "(clean)".to_string(),
            "-".to_string(),
            clean.to_string(),
        ]);
        let attackers: Vec<AttackerKind> = vec![
            AttackerKind::Peega(PeegaConfig {
                rate: cfg.rate,
                ..Default::default()
            }),
            AttackerKind::Metattack(MetattackConfig {
                rate: cfg.rate,
                retrain_every: 5,
                ..Default::default()
            }),
            AttackerKind::Pgd(PgdConfig {
                rate: cfg.rate,
                ..Default::default()
            }),
        ];
        for kind in attackers {
            let mut attacker = kind.build();
            let result = attacker.attack(&g);
            let acc = gcn_accuracy(&result.poisoned, cfg.runs, cfg.seed);
            table.push_row(vec![
                format!("{scale}"),
                g.num_nodes().to_string(),
                g.num_edges().to_string(),
                kind.name().to_string(),
                format!("{:.2}", result.elapsed.as_secs_f64()),
                acc.to_string(),
            ]);
            eprintln!("[scale {scale} {} done]", kind.name());
        }
    }
    table.emit(&cfg.out_dir, "ext_sweep_scale");
    println!("\ntarget: PEEGA and Metattack times grow superlinearly with n (dense");
    println!("gradients over |V|² candidates), PGD stays cheap; strength persists.");
}
