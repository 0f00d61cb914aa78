//! Chaos suite (DESIGN.md §11): every fault site lands in its intended
//! error-taxonomy variant, injected failures never hang or corrupt state,
//! and an interrupted-then-resumed sweep is byte-identical to an
//! uninterrupted one.
//!
//! Fault plans and cancellation are process-global, so every test holds
//! one lock and resets supervision on entry and exit.

use bbgnn::prelude::*;
use bbgnn_bench::config::ExpConfig;
use bbgnn_bench::fault::FaultRunner;
use bbgnn_scenario::job::{CellValue, FAILED_CELL};
use bbgnn_supervise::fault;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    bbgnn_supervise::shutdown();
    bbgnn::store::shutdown();
    guard
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bbgnn-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_cfg(out: &std::path::Path) -> ExpConfig {
    ExpConfig {
        out_dir: out.display().to_string(),
        ..ExpConfig::default()
    }
}

fn fast_policy(retries: usize) -> RetryPolicy {
    RetryPolicy {
        max_retries: retries,
        backoff_base: std::time::Duration::ZERO,
        backoff_max: std::time::Duration::ZERO,
    }
}

// --- fault/dataset_io ----------------------------------------------------

#[test]
fn dataset_io_fault_is_a_retryable_io_error_and_backoff_recovers() {
    let _g = locked();
    let dir = tmp_dir("dataset-io");
    let g = DatasetSpec::CoraLike.generate(0.03, 1);
    bbgnn::graph::datasets::io::save(&g, &dir).unwrap();

    fault::install("7:fault/dataset_io").unwrap();
    let err = bbgnn::graph::datasets::io::load(&dir).unwrap_err();
    assert!(
        matches!(err, BbgnnError::DatasetIo { .. }),
        "injected IO fault must land as DatasetIo, got {err}"
    );
    assert!(err.is_retryable() && !err.is_supervision_stop());

    // The one-shot plan is spent, so the cell recovers on attempt 2 —
    // through the injectable sleeper, never a real sleep.
    static SLEEPS: AtomicUsize = AtomicUsize::new(0);
    fn counting_sleep(_d: std::time::Duration) {
        SLEEPS.fetch_add(1, Ordering::Relaxed);
    }
    fault::install("7:fault/dataset_io").unwrap();
    let out = tmp_dir("dataset-io-out");
    let mut r = FaultRunner::with_policy(&test_cfg(&out), "chaos", RetryPolicy::default())
        .with_sleeper(counting_sleep);
    let mut attempts = 0;
    let mut loaded = None;
    let v = r.cell("load", 0, |_| {
        attempts += 1;
        let graph = bbgnn::graph::datasets::io::load(&dir)?;
        let nodes = graph.num_nodes().to_string();
        loaded = Some(graph);
        Ok(CellValue::clean(nodes))
    });
    assert_eq!(attempts, 2);
    assert_eq!(r.stats().retried, 1);
    assert_eq!(
        SLEEPS.load(Ordering::Relaxed),
        1,
        "DatasetIo retries back off once per retry"
    );
    assert_eq!(v, g.num_nodes().to_string());
    assert_eq!(loaded.map(|l| l.num_nodes()), Some(g.num_nodes()));
    bbgnn_supervise::shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
}

// --- fault/kernel_nan ----------------------------------------------------

#[test]
fn kernel_nan_fault_poisons_the_same_entry_on_every_replay() {
    let _g = locked();
    let pool = ThreadPool::new(2);
    let a = DenseMatrix::filled(128, 128, 0.25);
    let b = DenseMatrix::filled(128, 128, 0.5);

    let nan_positions = |plan: Option<&str>| -> Vec<usize> {
        if let Some(spec) = plan {
            fault::install(spec).unwrap();
        }
        let mut out = DenseMatrix::zeros(128, 128);
        bbgnn::linalg::kernels::matmul_into(&a, &b, &mut out, &pool);
        bbgnn_supervise::shutdown();
        out.as_slice()
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_nan())
            .map(|(i, _)| i)
            .collect()
    };

    let first = nan_positions(Some("42:fault/kernel_nan"));
    assert_eq!(first.len(), 1, "exactly one poisoned entry");
    let replay = nan_positions(Some("42:fault/kernel_nan"));
    assert_eq!(first, replay, "the shot seed pins the poisoned entry");
    assert!(nan_positions(None).is_empty(), "no plan, no poison");
}

#[test]
fn kernel_nan_fault_on_a_narrow_matmul_poisons_one_real_output_entry() {
    // Width 7 (Cora's classes) runs on the kernel's internal zero-padded
    // tail panel. A shot must land in the real output exactly once: an
    // internal panel must neither swallow it nor fire the site again.
    let _g = locked();
    let pool = ThreadPool::new(2);
    let a = DenseMatrix::uniform(298, 171, 1.0, 1);
    let b = DenseMatrix::uniform(171, 7, 1.0, 2);
    for plan in ["42:fault/kernel_nan", "7:fault/kernel_nan@2"] {
        fault::install(plan).unwrap();
        let poisoned: Vec<usize> = (0..3)
            .map(|_| {
                let mut out = DenseMatrix::zeros(298, 7);
                bbgnn::linalg::kernels::matmul_into(&a, &b, &mut out, &pool);
                out.as_slice().iter().filter(|v| v.is_nan()).count()
            })
            .collect();
        bbgnn_supervise::shutdown();
        let expected = if plan.ends_with("@2") {
            [0, 1, 0]
        } else {
            [1, 0, 0]
        };
        assert_eq!(poisoned, expected, "{plan}: NaN entries per call");
    }
}

// --- fault/pool_panic ----------------------------------------------------

#[test]
fn pool_worker_panic_surfaces_as_a_caught_panic_never_a_hang() {
    let _g = locked();
    fault::install("3:fault/pool_panic").unwrap();
    let pool = ThreadPool::new(2);
    let a = DenseMatrix::filled(128, 128, 1.0);
    let b = DenseMatrix::filled(128, 128, 1.0);
    let mut out = DenseMatrix::zeros(128, 128);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        bbgnn::linalg::kernels::matmul_into(&a, &b, &mut out, &pool);
    }))
    .expect_err("the injected worker panic must propagate to the caller");
    // `thread::scope` may re-wrap the worker's payload ("a scoped thread
    // panicked"); the contract is propagation-not-hang, so accept either
    // the original message or the scope wrapper.
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("pool worker panic") || msg.contains("scoped thread panicked"),
        "payload: {msg:?}"
    );
    bbgnn_supervise::shutdown();
}

#[test]
fn pool_worker_panic_lands_as_experiment_aborted_and_the_cell_retries() {
    let _g = locked();
    let dir = tmp_dir("pool-panic-cell");
    let cfg = test_cfg(&dir);
    fault::install("3:fault/pool_panic").unwrap();
    let mut r = FaultRunner::with_policy(&cfg, "chaos", fast_policy(2));
    let pool = ThreadPool::new(2);
    let v = r.cell("mm", 0, |_| {
        let a = DenseMatrix::filled(128, 128, 1.0);
        let b = DenseMatrix::filled(128, 128, 1.0);
        let mut out = DenseMatrix::zeros(128, 128);
        bbgnn::linalg::kernels::matmul_into(&a, &b, &mut out, &pool);
        Ok(CellValue::clean(format!("{}", out.get(0, 0))))
    });
    // Attempt 1 hits the one-shot panic plan (caught at the cell boundary
    // as ExperimentAborted); attempt 2 runs clean.
    assert_eq!(v, "128");
    assert_eq!(r.stats().retried, 1);
    assert_eq!(r.stats().failed, 0);
    bbgnn_supervise::shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// --- fault/store_corrupt, fault/store_short_write ------------------------

#[test]
fn corrupt_and_short_store_writes_degrade_to_misses_never_wrong_data() {
    let _g = locked();
    for (site, tag) in [
        ("fault/store_corrupt", "corrupt"),
        ("fault/store_short_write", "short"),
    ] {
        let root = tmp_dir(&format!("store-{tag}"));
        let store = bbgnn::store::Store::open(&root).unwrap();
        let key = bbgnn::store::Key::new("dense").field("seed", 7);
        let value = DenseMatrix::filled(4, 4, 3.5);

        fault::install(&format!("11:{site}")).unwrap();
        store.put(&key, &value).unwrap();
        // The damaged image must read back as a miss (with a warning), not
        // as data and not as a panic.
        assert!(
            store.get::<DenseMatrix>(&key).is_none(),
            "{site}: damaged artifact must miss"
        );
        bbgnn_supervise::shutdown();

        // Recompute-and-re-put heals the slot.
        store.put(&key, &value).unwrap();
        let back: DenseMatrix = store.get(&key).expect("clean re-put must hit");
        assert_eq!(back.as_slice(), value.as_slice());
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn crashed_writer_tmp_litter_is_swept_by_gc_and_never_read_as_valid() {
    let _g = locked();
    let root = tmp_dir("store-litter");
    let store = bbgnn::store::Store::open(&root).unwrap();
    let key = bbgnn::store::Key::new("dense").field("seed", 1);
    store.put(&key, &DenseMatrix::filled(2, 2, 1.0)).unwrap();

    // A SIGKILLed writer leaves exactly its staging file behind: the
    // rename never happened, so no final-named artifact was touched.
    let litter = root.join(".tmp-99999-0");
    std::fs::write(&litter, b"partial artifact image from a dead writer").unwrap();

    // The litter is invisible to reads and to verify.
    assert!(store.get::<DenseMatrix>(&key).is_some());
    let report = bbgnn::store::verify(&root).unwrap();
    assert_eq!(report.ok, 1);
    assert!(report.corrupt.is_empty(), "tmp litter is not an artifact");

    // gc requires a liveness root, keeps the referenced artifact, and
    // sweeps the litter.
    let live_dir = tmp_dir("store-litter-live");
    std::fs::write(
        live_dir.join("cells.json"),
        format!("{{\"artifacts\":[\"{}\"]}}", key.filename()),
    )
    .unwrap();
    assert!(
        bbgnn::store::gc(&root, &[], false).is_err(),
        "gc never runs blind"
    );
    let gc = bbgnn::store::gc(&root, std::slice::from_ref(&live_dir), false).unwrap();
    assert_eq!(gc.live, vec![key.filename()]);
    assert!(!litter.exists(), "gc sweeps .tmp-* staging litter");
    assert!(
        store.get::<DenseMatrix>(&key).is_some(),
        "live artifact survives gc"
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&live_dir);
}

// --- budgets degrade training to best-so-far ------------------------------

#[test]
fn epoch_budget_interrupts_training_into_a_degraded_cell_value() {
    let _g = locked();
    let g = DatasetSpec::CoraLike.generate(0.03, 2);
    bbgnn_supervise::install_budget(&RunBudget {
        epochs: Some(3),
        ..Default::default()
    });
    let (stats, health) = bbgnn_scenario::eval::evaluate_defender_checked(
        &bbgnn::registry::DefenderKind::Gcn,
        &g,
        2,
        0,
    );
    assert!(health.interrupted_runs > 0, "epoch budget must interrupt");
    assert!(
        health.is_degraded(),
        "interrupted runs tag the cell degraded"
    );
    assert!(
        stats.mean.is_finite(),
        "best-so-far snapshot still evaluates"
    );
    bbgnn_supervise::shutdown();
}

// --- interrupted sweep resumes byte-identical ------------------------------

#[test]
fn cancelled_sweep_resumed_without_the_stop_is_byte_identical() {
    let _g = locked();
    let keys = ["a", "b", "c", "d"];
    let run_sweep = |cfg: &ExpConfig, cancel_after: Option<usize>| -> Vec<String> {
        let mut r = FaultRunner::with_policy(cfg, "sweep", fast_policy(1));
        let mut values = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            values.push(r.cell(key, 9, |seed| Ok(CellValue::clean(format!("{key}:{seed}")))));
            if cancel_after == Some(i + 1) {
                bbgnn_supervise::request_cancel();
            }
        }
        values
    };

    // Reference: one uninterrupted run.
    let dir_a = tmp_dir("sweep-ref");
    let full = run_sweep(&test_cfg(&dir_a), None);
    assert!(full.iter().all(|v| v != FAILED_CELL));
    let ckpt_a = std::fs::read(dir_a.join("sweep.checkpoint.json")).unwrap();

    // Interrupted: cancel lands after cell 2; cells 3–4 are skipped and
    // deliberately NOT checkpointed.
    let dir_b = tmp_dir("sweep-cut");
    let cut = run_sweep(&test_cfg(&dir_b), Some(2));
    assert_eq!(&cut[..2], &full[..2]);
    assert_eq!(
        &cut[2..],
        &[FAILED_CELL.to_string(), FAILED_CELL.to_string()]
    );
    bbgnn_supervise::shutdown();

    // Resume without the stop: cached cells replay, skipped cells
    // recompute, and the final checkpoint is byte-identical to the
    // uninterrupted run's.
    let resumed = run_sweep(&test_cfg(&dir_b), None);
    assert_eq!(resumed, full);
    let ckpt_b = std::fs::read(dir_b.join("sweep.checkpoint.json")).unwrap();
    assert_eq!(ckpt_a, ckpt_b, "resumed checkpoint must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn cancel_mid_cell_truncated_value_is_discarded_and_resume_matches() {
    let _g = locked();
    let keys = ["a", "b", "c"];
    let full_sweep = |cfg: &ExpConfig| -> Vec<String> {
        let mut r = FaultRunner::with_policy(cfg, "midcell", fast_policy(1));
        keys.iter()
            .map(|key| r.cell(key, 3, |seed| Ok(CellValue::clean(format!("{key}:{seed}")))))
            .collect()
    };

    // Reference: one uninterrupted run.
    let dir_a = tmp_dir("midcell-ref");
    let full = full_sweep(&test_cfg(&dir_a));
    let ckpt_a = std::fs::read(dir_a.join("midcell.checkpoint.json")).unwrap();

    // Interrupted: the cancel lands while cell b is in flight (the SIGINT
    // scenario), so b hands back a truncated best-so-far value flagged
    // degraded. It must be discarded, not checkpointed — else the resume
    // below would replay the truncated value verbatim.
    let dir_b = tmp_dir("midcell-cut");
    {
        let cfg = test_cfg(&dir_b);
        let mut r = FaultRunner::with_policy(&cfg, "midcell", fast_policy(1));
        let a = r.cell("a", 3, |s| Ok(CellValue::clean(format!("a:{s}"))));
        assert_eq!(a, full[0]);
        let b = r.cell("b", 3, |_| {
            bbgnn_supervise::request_cancel();
            Ok(CellValue::degraded("b:truncated"))
        });
        assert_eq!(b, FAILED_CELL, "the truncated value is discarded");
        let c = r.cell("c", 3, |s| Ok(CellValue::clean(format!("c:{s}"))));
        assert_eq!(c, FAILED_CELL, "later cells skip at the entry check");
        assert_eq!(r.stats().skipped, 2);
        assert_eq!(r.stats().degraded, 0);
    }
    bbgnn_supervise::shutdown();

    // Resume without the stop: b and c recompute in full, and the final
    // checkpoint is byte-identical to the uninterrupted run's.
    let resumed = full_sweep(&test_cfg(&dir_b));
    assert_eq!(resumed, full);
    let ckpt_b = std::fs::read(dir_b.join("midcell.checkpoint.json")).unwrap();
    assert_eq!(ckpt_a, ckpt_b, "resumed checkpoint must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
