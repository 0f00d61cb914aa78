//! Fig. 7 — (a) sensitivity to the rate of accessible attacker nodes;
//! (b) sensitivity to the surrogate depth of PEEGA vs. the victim depth.
//!
//! Part (a)'s cells each contain their own attack run, so the whole
//! attack+evaluate unit is fault-isolated and checkpointed
//! (`results/fig7_sensitivity.checkpoint.json`); part (b) shares one
//! poison set across victim depths and skips re-poisoning once every
//! dependent cell is checkpointed.
//!
//! Reproduction targets: (a) GCN accuracy falls as the attacker controls
//! more nodes, and PEEGA ≤ Metattack at equal access; (b) PEEGA_2 is the
//! strongest surrogate depth, PEEGA_1 clearly weaker, and PEEGA_{2,3,4}
//! are competitive with Metattack/MinMax across victim depths.

use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, fault::FaultRunner, report::Table};
use bbgnn_scenario::job::CellValue;

fn gcn_acc_with_layers(g: &Graph, layers: usize, runs: usize, seed: u64) -> MeanStd {
    let accs: Vec<f64> = (0..runs)
        .map(|r| {
            let cfg = TrainConfig {
                seed: seed + r as u64,
                ..Default::default()
            };
            let mut gcn = Gcn::new(vec![16; layers.saturating_sub(1)], cfg);
            gcn.fit(g);
            gcn.test_accuracy(g)
        })
        .collect();
    MeanStd::of(&accs)
}

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("fig7_sensitivity"));
    let g = DatasetSpec::CoraLike.generate(cfg.scale, cfg.seed);
    let mut harness = FaultRunner::new(&cfg, "fig7_sensitivity");

    // ---- (a) attacker-node rate sweep ------------------------------------
    println!("\n--- Fig 7(a): accessible-node rate sweep (GCN victim) ---\n");
    let mut table_a = Table::new(&["node rate", "GCN+P", "GCN+M"]);
    for &node_rate in &[0.1, 0.25, 0.5, 0.75, 1.0] {
        let subset = if node_rate >= 1.0 {
            AttackerNodes::All
        } else {
            AttackerNodes::random_subset(g.num_nodes(), node_rate, cfg.seed)
        };
        let acc_p = harness.cell(&format!("a/nodes{node_rate}/PEEGA"), cfg.seed, |seed| {
            let mut peega = Peega::new(PeegaConfig {
                rate: cfg.rate,
                attacker_nodes: subset.clone(),
                ..Default::default()
            });
            let acc = gcn_acc_with_layers(&peega.attack(&g).poisoned, 2, cfg.runs, seed);
            Ok(CellValue::clean(acc.to_string()))
        });
        let acc_m = harness.cell(&format!("a/nodes{node_rate}/Metattack"), cfg.seed, |seed| {
            let mut meta = Metattack::new(MetattackConfig {
                rate: cfg.rate,
                retrain_every: 5,
                attacker_nodes: subset.clone(),
                ..Default::default()
            });
            let acc = gcn_acc_with_layers(&meta.attack(&g).poisoned, 2, cfg.runs, seed);
            Ok(CellValue::clean(acc.to_string()))
        });
        table_a.push_row(vec![format!("{node_rate}"), acc_p, acc_m]);
        eprintln!("[node rate {node_rate} done]");
    }
    table_a.emit(&cfg.out_dir, "fig7a_attacker_nodes");

    // ---- (b) surrogate depth vs victim depth ------------------------------
    println!("\n--- Fig 7(b): PEEGA_l surrogate depth vs GCN victim depth ---\n");
    let attacker_names: Vec<String> = (1..=4)
        .map(|l| format!("PEEGA_{l}"))
        .chain(["Metattack".to_string(), "MinMax".to_string()])
        .collect();
    let mut headers = vec!["victim layers".to_string()];
    headers.extend(attacker_names.iter().cloned());
    let mut table_b = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    let part_b_done = (2..=4).all(|layers| {
        attacker_names
            .iter()
            .all(|n| harness.is_done(&format!("b/layers{layers}/{n}")))
    });
    // Poison once per attacker variant (skipped entirely on a completed
    // resume — the clean graph stands in and no cell evaluates it).
    let poisons: Vec<(String, Graph)> = if part_b_done {
        attacker_names
            .iter()
            .map(|n| (n.clone(), g.clone()))
            .collect()
    } else {
        let mut poisons: Vec<(String, Graph)> = (1..=4)
            .map(|l| {
                let mut atk = Peega::new(PeegaConfig {
                    rate: cfg.rate,
                    hops: l,
                    ..Default::default()
                });
                (format!("PEEGA_{l}"), atk.attack(&g).poisoned)
            })
            .collect();
        let mut meta = Metattack::new(MetattackConfig {
            rate: cfg.rate,
            retrain_every: 5,
            ..Default::default()
        });
        poisons.push(("Metattack".to_string(), meta.attack(&g).poisoned));
        let mut minmax = MinMaxAttack::new(MinMaxConfig {
            ascent: PgdConfig {
                rate: cfg.rate,
                ..Default::default()
            },
            ..Default::default()
        });
        poisons.push(("MinMax".to_string(), minmax.attack(&g).poisoned));
        poisons
    };

    for victim_layers in 2..=4 {
        let mut cells = vec![victim_layers.to_string()];
        for (name, poisoned) in &poisons {
            cells.push(harness.cell(
                &format!("b/layers{victim_layers}/{name}"),
                cfg.seed,
                |seed| {
                    let acc = gcn_acc_with_layers(poisoned, victim_layers, cfg.runs, seed);
                    Ok(CellValue::clean(acc.to_string()))
                },
            ));
        }
        table_b.push_row(cells);
        eprintln!("[victim depth {victim_layers} done]");
    }
    table_b.emit(&cfg.out_dir, "fig7b_layer_sweep");
    println!("\n{}", harness.summary());
    if let Some(stop) = bbgnn_supervise::stop_summary() {
        println!("{stop}");
    }
    println!("paper: more accessible nodes = stronger attack; PEEGA_2 is the best depth.");
}
