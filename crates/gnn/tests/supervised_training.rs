//! Supervision-layer integration tests for the shared training loop.
//!
//! These live in their own integration-test binary (one process) because
//! they install process-global budgets; running them inside the unit-test
//! harness would interrupt unrelated training tests on sibling threads.
//! Within this binary the tests serialize on `LOCK` for the same reason.

use bbgnn_gnn::train::{train_node_classifier, TrainConfig};
use bbgnn_graph::datasets::DatasetSpec;
use bbgnn_linalg::DenseMatrix;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    bbgnn_supervise::shutdown();
    guard
}

fn fit(cfg: &TrainConfig) -> (bbgnn_gnn::train::TrainReport, Vec<DenseMatrix>) {
    let g = DatasetSpec::CoraLike.generate(0.05, 17);
    let d = g.feature_dim();
    let k = g.num_classes;
    let mut params = vec![DenseMatrix::glorot(d, k, 5)];
    let x = g.features.clone();
    let salt = || bbgnn_store::Key::new("model/test");
    let report = train_node_classifier(&mut params, &g, cfg, salt, |tape, p, _| {
        let w = tape.var(&p[0]);
        let xc = tape.constant(&x);
        let logits = tape.matmul(xc, w);
        (logits, vec![w], None)
    });
    (report, params)
}

#[test]
fn epoch_budget_interrupts_training_deterministically() {
    let _g = locked();
    let cfg = TrainConfig {
        epochs: 30,
        patience: 0,
        dropout: 0.0,
        ..TrainConfig::default()
    };

    // Unsupervised baseline for the prefix-determinism check below.
    let (full, _) = fit(&cfg);
    assert!(!full.interrupted);
    assert_eq!(full.epochs_run, 30);

    let budget = bbgnn_supervise::RunBudget {
        epochs: Some(3),
        ..bbgnn_supervise::RunBudget::default()
    };
    bbgnn_supervise::install_budget(&budget);
    let (capped, params_capped) = fit(&cfg);
    bbgnn_supervise::shutdown();

    assert!(capped.interrupted, "epoch budget must flag the report");
    assert_eq!(capped.epochs_run, 3, "stop lands exactly at the cap");
    assert!(
        !capped.diverged,
        "a budget stop is degradation, not failure"
    );

    // Bitwise prefix determinism: a 3-epoch-budgeted run equals a run
    // configured for 3 epochs outright (supervision only gates loop
    // continuation, never what a completed epoch computes).
    let three = TrainConfig { epochs: 3, ..cfg };
    let (_, params_three) = fit(&three);
    assert_eq!(
        params_capped, params_three,
        "budgeted prefix must be bitwise identical to a shorter run"
    );
}

#[test]
fn cancellation_stops_before_the_first_epoch() {
    let _g = locked();
    bbgnn_supervise::request_cancel();
    let cfg = TrainConfig {
        epochs: 10,
        patience: 0,
        dropout: 0.0,
        ..TrainConfig::default()
    };
    let (report, _) = fit(&cfg);
    bbgnn_supervise::shutdown();
    assert!(report.interrupted);
    assert_eq!(report.epochs_run, 0, "no epoch may start after a cancel");
}
