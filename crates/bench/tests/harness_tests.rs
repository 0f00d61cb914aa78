//! Harness-level tests: the runner produces paper-shaped tables end to end
//! at miniature scale.

use bbgnn::prelude::*;
use bbgnn_bench::report::{mark_extreme, Table};
use bbgnn_scenario::eval::{evaluate_defender, evaluate_defender_timed, AttackRow};

#[test]
fn one_table_cell_end_to_end() {
    let g = DatasetSpec::CoraLike.generate(0.05, 701);
    let row = AttackRow::Kind(AttackerKind::Peega(PeegaConfig {
        rate: 0.1,
        ..Default::default()
    }));
    let result = row.poison(&g).expect("an attack row runs its attack");
    let cell = evaluate_defender(&DefenderKind::Gcn, &result.poisoned, 2, 0);
    assert!(cell.mean > 0.2 && cell.mean < 1.0);
}

#[test]
fn timed_evaluation_reports_positive_seconds() {
    let g = DatasetSpec::CoraLike.generate(0.04, 702);
    let (acc, secs) = evaluate_defender_timed(&DefenderKind::Gcn, &g, 2, 0);
    assert!(acc.mean > 0.0);
    assert!(secs.mean > 0.0);
}

#[test]
fn different_seeds_produce_run_variance() {
    let g = DatasetSpec::CoraLike.generate(0.05, 703);
    let stats = evaluate_defender(&DefenderKind::Gcn, &g, 3, 0);
    // With dropout on, repeated runs should not be identical.
    assert!(stats.std > 0.0, "expected nonzero run-to-run variance");
}

#[test]
fn rendered_table_contains_all_cells() {
    let mut t = Table::new(&["Attacker", "GCN", "GNAT"]);
    t.push_row(vec![
        "Clean".into(),
        "83.36±0.19".into(),
        "85.52±0.15".into(),
    ]);
    t.push_row(vec![
        "PEEGA".into(),
        "75.31±0.75".into(),
        "83.12±0.43".into(),
    ]);
    mark_extreme(&mut t, &[1, 2], true, ("(", ")"));
    let rendered = t.render();
    assert!(rendered.contains("(85.52±0.15)"));
    assert!(rendered.contains("(83.12±0.43)"));
    assert!(rendered.contains("75.31±0.75"));
    let csv = t.to_csv();
    assert_eq!(csv.lines().count(), 3);
}

#[test]
fn clean_row_then_attack_rows_ordering() {
    let rows = AttackRow::paper_rows(0.05);
    let names: Vec<String> = rows.iter().map(|r| r.name()).collect();
    assert_eq!(
        names,
        vec!["Clean", "PGD", "MinMax", "Metattack", "GF-Attack", "PEEGA"]
    );
}
