//! Fig. 8 — PEEGA hyper-parameter sensitivity: the self/global trade-off
//! λ and the norm order p, evaluated by GCN accuracy on the poisoned
//! graphs of all three datasets.
//!
//! Reproduction targets: (a) accuracy dips at an intermediate λ (the
//! global view helps, but too much of it backfires) with the best λ for
//! Polblogs larger than for Cora/Citeseer; (b) p = 2 is best on
//! Cora/Citeseer while Polblogs prefers p = 1.

use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, report::Table};
use bbgnn_scenario::eval::gcn_accuracy;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("fig8_lambda_p"));
    let specs = DatasetSpec::paper_datasets();
    let graphs: Vec<(String, Graph)> = specs
        .iter()
        .map(|s| (s.name().to_string(), s.generate(cfg.scale, cfg.seed)))
        .collect();

    println!("\n--- Fig 8(a): λ sweep (GCN accuracy under PEEGA) ---\n");
    let mut headers = vec!["lambda".to_string()];
    headers.extend(graphs.iter().map(|(n, _)| n.clone()));
    let mut table_a = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
    for &lambda in &[0.0, 0.005, 0.01, 0.015, 0.02, 0.025, 0.03] {
        let mut cells = vec![format!("{lambda}")];
        for (_, g) in &graphs {
            let mut atk = Peega::new(PeegaConfig {
                rate: cfg.rate,
                lambda,
                ..Default::default()
            });
            let poisoned = atk.attack(g).poisoned;
            cells.push(gcn_accuracy(&poisoned, cfg.runs, cfg.seed).to_string());
        }
        eprintln!("[lambda {lambda} done]");
        table_a.push_row(cells);
    }
    table_a.emit(&cfg.out_dir, "fig8a_lambda");

    println!("\n--- Fig 8(b): p sweep (GCN accuracy under PEEGA) ---\n");
    let mut headers_b = vec!["p".to_string()];
    headers_b.extend(graphs.iter().map(|(n, _)| n.clone()));
    let mut table_b = Table::new(&headers_b.iter().map(String::as_str).collect::<Vec<_>>());
    for &p in &[1.0, 2.0, 3.0] {
        let mut cells = vec![format!("{p}")];
        for (_, g) in &graphs {
            let mut atk = Peega::new(PeegaConfig {
                rate: cfg.rate,
                p,
                ..Default::default()
            });
            let poisoned = atk.attack(g).poisoned;
            cells.push(gcn_accuracy(&poisoned, cfg.runs, cfg.seed).to_string());
        }
        eprintln!("[p {p} done]");
        table_b.push_row(cells);
    }
    table_b.emit(&cfg.out_dir, "fig8b_norm_p");
    println!("\npaper: λ has an interior optimum; p = 2 wins except on Polblogs (p = 1).");
}
