//! End-to-end checkpoint/resume: a sweep killed mid-run and re-invoked
//! with the same configuration must produce a byte-identical final report.
//!
//! The kill is simulated by abandoning the harness mid-sweep — exactly
//! what SIGKILL leaves behind, since every completed cell is persisted
//! (atomically) before the next one starts and the harness holds no
//! unflushed state.

use bbgnn_bench::config::ExpConfig;
use bbgnn_bench::fault::FaultRunner;
use bbgnn_bench::report::Table;
use bbgnn_errors::BbgnnError;
use bbgnn_scenario::job::CellValue;

const CELLS: usize = 6;

fn test_cfg(tag: &str) -> ExpConfig {
    let out = std::env::temp_dir().join(format!("bbgnn_resume_{tag}"));
    let _ = std::fs::remove_dir_all(&out);
    ExpConfig {
        out_dir: out.display().to_string(),
        ..ExpConfig::default()
    }
}

/// Deterministic stand-in for an expensive evaluation: the value depends
/// on the seed the harness hands the cell, so any seed drift across a
/// resume would change the output.
fn expensive_eval(seed: u64, i: usize) -> String {
    format!(
        "{:.3}",
        (seed.wrapping_mul(2654435761) % 1000) as f64 / 1000.0 + i as f64
    )
}

/// Runs the sweep, returning the rendered report — or `None` when
/// "killed" after `stop_after` cells.
fn run_sweep(cfg: &ExpConfig, stop_after: Option<usize>) -> Option<String> {
    let mut harness = FaultRunner::new(cfg, "resume_test");
    let mut table = Table::new(&["cell", "value"]);
    for i in 0..CELLS {
        if stop_after == Some(i) {
            return None; // simulated SIGKILL: no cleanup, no finalization
        }
        let v = harness.cell(&format!("cell{i}"), cfg.seed, |seed| {
            Ok(CellValue::clean(expensive_eval(seed, i)))
        });
        table.push_row(vec![format!("cell{i}"), v]);
    }
    Some(table.render())
}

#[test]
fn killed_sweep_resumes_byte_identical() {
    // Reference: one uninterrupted run.
    let cfg_ref = test_cfg("reference");
    let reference = run_sweep(&cfg_ref, None).expect("uninterrupted run completes");

    // Interrupted: killed after 3 of 6 cells, then re-invoked.
    let cfg = test_cfg("killed");
    assert!(run_sweep(&cfg, Some(3)).is_none());
    let resumed = run_sweep(&cfg, None).expect("resumed run completes");

    assert_eq!(resumed, reference, "resumed report must be byte-identical");

    let _ = std::fs::remove_dir_all(&cfg_ref.out_dir);
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
}

#[test]
fn resume_skips_completed_cells() {
    let cfg = test_cfg("skip");
    assert!(run_sweep(&cfg, Some(4)).is_none());

    let mut harness = FaultRunner::new(&cfg, "resume_test");
    let mut evaluated = 0;
    for i in 0..CELLS {
        harness.cell(&format!("cell{i}"), cfg.seed, |seed| {
            evaluated += 1;
            Ok(CellValue::clean(expensive_eval(seed, i)))
        });
    }
    assert_eq!(
        harness.stats().cached,
        4,
        "the 4 pre-kill cells must replay from checkpoint"
    );
    assert_eq!(evaluated, 2, "only the unfinished cells may re-run");
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
}

#[test]
fn resume_replays_failed_and_retried_cells_identically() {
    let cfg = test_cfg("outcomes");
    let run = |kill: bool| -> Vec<String> {
        let mut harness = FaultRunner::with_policy(
            &cfg,
            "resume_test",
            bbgnn_errors::RetryPolicy {
                max_retries: 1,
                backoff_base: std::time::Duration::ZERO,
                backoff_max: std::time::Duration::ZERO,
            },
        );
        let mut out = Vec::new();
        // A cell that always fails...
        out.push(
            harness.cell("doomed", cfg.seed, |_| -> Result<CellValue, BbgnnError> {
                Err(BbgnnError::NumericalDivergence {
                    what: "loss".into(),
                    value: f64::NAN,
                })
            }),
        );
        // ...and one that succeeds only on the retry seed.
        out.push(harness.cell("flaky", cfg.seed, |seed| {
            if seed == cfg.seed {
                panic!("first-attempt blowup");
            }
            Ok(CellValue::clean(format!("{seed}")))
        }));
        if !kill {
            out.push(harness.cell("tail", cfg.seed, |seed| {
                Ok(CellValue::clean(expensive_eval(seed, 2)))
            }));
        }
        out
    };
    let first = run(true);
    let second = run(false);
    assert_eq!(
        first[..2],
        second[..2],
        "failed and retried cells must resume verbatim"
    );
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
}
