//! Cross-crate integration tests: dataset → attack → defend → metrics.

use bbgnn::prelude::*;

fn small_graph(seed: u64) -> Graph {
    DatasetSpec::CoraLike.generate(0.05, seed)
}

#[test]
fn full_pipeline_attack_then_defend() {
    let g = small_graph(201);
    let mut attacker = Peega::new(PeegaConfig {
        rate: 0.1,
        ..Default::default()
    });
    let result = attacker.attack(&g);
    assert!(result.edge_flips + result.feature_flips > 0);

    let mut defender = Gnat::new(GnatConfig {
        train: TrainConfig::fast_test(),
        ..Default::default()
    });
    defender.fit(&result.poisoned);
    let acc = defender.test_accuracy(&result.poisoned);
    assert!(acc > 0.4, "pipeline accuracy {acc}");
}

#[test]
fn all_registry_attackers_respect_budget() {
    let g = small_graph(202);
    let rate = 0.1;
    let budget = budget_for(&g, rate);
    for kind in AttackerKind::paper_rows(rate) {
        // Tune the slow ones down for test speed.
        let kind = match kind {
            AttackerKind::Metattack(c) => AttackerKind::Metattack(MetattackConfig {
                retrain_every: 10,
                ..c
            }),
            AttackerKind::Pgd(c) => AttackerKind::Pgd(PgdConfig {
                ascent_steps: 15,
                ..c
            }),
            AttackerKind::MinMax(c) => AttackerKind::MinMax(MinMaxConfig {
                ascent: PgdConfig {
                    ascent_steps: 15,
                    ..c.ascent
                },
                inner_epochs: 10,
                ..c
            }),
            other => other,
        };
        let mut attacker = kind.build();
        let result = attacker.attack(&g);
        let spent = result.edge_flips + result.feature_flips;
        assert!(
            spent <= budget,
            "{} overspent: {spent} > {budget}",
            attacker.name()
        );
        assert!(spent > 0, "{} did nothing", attacker.name());
        // The input graph is untouched.
        assert_eq!(g.num_nodes(), result.poisoned.num_nodes());
    }
}

#[test]
fn all_registry_defenders_train_on_poisoned_graph() {
    let g = small_graph(203);
    let mut attacker = Peega::new(PeegaConfig {
        rate: 0.1,
        ..Default::default()
    });
    let poisoned = attacker.attack(&g).poisoned;
    for kind in DefenderKind::paper_columns(false) {
        let mut cfg = TrainConfig::fast_test();
        cfg.epochs = 40;
        // Pro-GNN is quadratically more expensive; shrink it.
        let kind = match kind {
            DefenderKind::ProGnn(c) => DefenderKind::ProGnn(ProGnnConfig {
                outer_epochs: 5,
                inner_epochs: 3,
                ..c
            }),
            other => other,
        };
        let mut defender = kind.build(cfg);
        defender.fit(&poisoned);
        let acc = defender.test_accuracy(&poisoned);
        assert!(
            acc > 0.25,
            "{} collapsed on the poisoned graph: {acc}",
            defender.name()
        );
        let preds = defender.predict(&poisoned);
        assert_eq!(preds.len(), g.num_nodes());
        assert!(preds.iter().all(|&p| p < g.num_classes));
    }
}

#[test]
fn polblogs_pipeline_without_feature_defenses() {
    let g = DatasetSpec::PolblogsLike.generate(0.08, 204);
    let mut attacker = Peega::new(PeegaConfig {
        rate: 0.05,
        ..Default::default()
    });
    let poisoned = attacker.attack(&g).poisoned;
    let cols = DefenderKind::paper_columns(true);
    assert!(!cols.iter().any(|c| c.name() == "GCN-Jaccard"));
    let mut gnat = cols.last().unwrap().build(TrainConfig::fast_test());
    gnat.fit(&poisoned);
    assert!(gnat.test_accuracy(&poisoned) > 0.6);
}

#[test]
fn metrics_pipeline_matches_attack_bookkeeping() {
    let g = small_graph(205);
    let mut attacker = Metattack::new(MetattackConfig {
        rate: 0.1,
        retrain_every: 10,
        ..Default::default()
    });
    let result = attacker.attack(&g);
    let breakdown = edge_diff_breakdown(&g, &result.poisoned);
    assert_eq!(
        breakdown.total(),
        result.edge_flips,
        "Fig. 2 totals must match ‖Â − A‖₀"
    );
}

#[test]
fn dataset_io_roundtrip_through_attack() {
    let g = small_graph(206);
    let mut attacker = Peega::new(PeegaConfig {
        rate: 0.05,
        ..Default::default()
    });
    let poisoned = attacker.attack(&g).poisoned;
    let dir = std::env::temp_dir().join("bbgnn_integration_io");
    bbgnn::graph::datasets::io::save(&poisoned, &dir).unwrap();
    let reloaded = bbgnn::graph::datasets::io::load(&dir).unwrap();
    assert_eq!(poisoned.num_edges(), reloaded.num_edges());
    assert_eq!(poisoned.features, reloaded.features);
    let _ = std::fs::remove_dir_all(&dir);
}
