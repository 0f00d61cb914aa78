//! The Scenario/Job layer: everything the experiment binaries used to
//! re-implement per `main()`, lifted into one typed library so the same
//! cells can run from a CLI sweep, a test, or the `bbgnn-serve` queue.
//!
//! The pieces (DESIGN.md §12):
//!
//! * [`registry`] — named factories over every attacker and defender,
//!   plus by-name resolution ([`registry::attacker_by_name`] /
//!   [`registry::defender_by_name`]) replacing the per-binary match
//!   blocks; unknown names are [`InvalidConfig`] errors, never panics;
//! * [`dataset`] — the single dataset-resolution path
//!   ([`dataset::load_dataset`]): known names generate the calibrated
//!   synthetic graphs, anything else is a dataset directory read through
//!   the PR-1 `DatasetIo` error paths, so a truncated dir reports
//!   identically from every entry point;
//! * [`eval`] — attack generation and repeated-run defender evaluation
//!   (the cell bodies of Tables IV–VIII);
//! * [`job`] — [`job::JobSpec`] (the JSON wire format `bbgnn-serve`
//!   accepts) and [`job::Job`], whose [`run`](job::Job::run) drives one
//!   fault-isolated cell exactly like the bench `FaultRunner`:
//!   catch_unwind panic boundary, deterministic seed-perturbed retries,
//!   supervision check sites, store-keyed training, obs spans;
//! * [`json`] — the workspace's strict, dependency-free JSON subset
//!   (moved here from the bench crate so the server can parse request
//!   bodies without depending on the harness).
//!
//! [`InvalidConfig`]: bbgnn_errors::BbgnnError::InvalidConfig

#![deny(missing_docs)]
// This crate is below the fault boundary for both the bench binaries and
// the server: it must return errors, never crash (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dataset;
pub mod eval;
pub mod job;
pub mod json;
pub mod registry;

/// The retry rules of [`job::run_cell`], the one attempt loop that
/// [`job::Job::run`] and the bench `FaultRunner` share.
#[cfg(test)]
mod tests {
    use crate::job::tests::{locked, quiet_sleep};
    use crate::job::{run_cell, CellOutcome, CellValue, FAILED_CELL};
    use bbgnn_errors::{BbgnnError, RetryPolicy};
    use std::time::Duration;

    #[test]
    fn run_retries_then_succeeds() {
        let _g = locked();
        let policy = RetryPolicy {
            max_retries: 3,
            ..Default::default()
        };
        let mut seeds = Vec::new();
        let r = run_cell("cell", 100, &policy, quiet_sleep, |seed| {
            seeds.push(seed);
            if seeds.len() < 3 {
                Err(BbgnnError::NumericalDivergence {
                    what: "loss".into(),
                    value: f64::NAN,
                })
            } else {
                Ok(CellValue::clean(seed.to_string()))
            }
        });
        assert_eq!(r.outcome, CellOutcome::Retried);
        assert_eq!(r.attempts, 3);
        assert_eq!(seeds[0], 100);
        assert_eq!(r.value, RetryPolicy::seed_for_attempt(100, 2).to_string());
    }

    #[test]
    fn run_aborts_on_non_retryable() {
        let _g = locked();
        let policy = RetryPolicy {
            max_retries: 5,
            ..Default::default()
        };
        let error = BbgnnError::InvalidConfig {
            what: "--scale".into(),
            message: "bad".into(),
        };
        let mut calls = 0;
        let r = run_cell("cell", 0, &policy, quiet_sleep, |_| {
            calls += 1;
            Err(error.clone())
        });
        assert_eq!(calls, 1, "non-retryable errors must not be retried");
        assert_eq!(r.attempts, 1, "the count is of attempts run");
        assert_eq!(r.outcome, CellOutcome::Failed);
        assert_eq!(r.value, FAILED_CELL);
        assert_eq!(r.detail, Some(error.to_string()));
    }

    #[test]
    fn run_exhausts_budget() {
        let _g = locked();
        let policy = RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::ZERO,
            ..Default::default()
        };
        let error = BbgnnError::ConvergenceFailure {
            method: "m".into(),
            iters: 1,
            residual: 1.0,
        };
        let mut calls = 0;
        let r = run_cell("cell", 0, &policy, quiet_sleep, |_| {
            calls += 1;
            Err(error.clone())
        });
        assert_eq!(calls, 3);
        assert_eq!(r.attempts, 3);
        assert_eq!(r.outcome, CellOutcome::Failed);
        assert_eq!(r.detail, Some(error.to_string()));
    }

    #[test]
    fn run_with_sleep_records_backoff_without_sleeping() {
        let _g = locked();
        static SLEPT: std::sync::Mutex<Vec<Duration>> = std::sync::Mutex::new(Vec::new());
        fn recording_sleep(d: Duration) {
            SLEPT.lock().unwrap().push(d);
        }
        let policy = RetryPolicy {
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
        };
        let r = run_cell("cell", 0, &policy, recording_sleep, |_| {
            Err(BbgnnError::DatasetIo {
                path: "/tmp/x".into(),
                message: "flaky".into(),
            })
        });
        assert_eq!(r.outcome, CellOutcome::Failed);
        // 3 retries → 3 backoffs, exponentially grown, all virtual.
        assert_eq!(
            *SLEPT.lock().unwrap(),
            [
                Duration::from_millis(20),
                Duration::from_millis(40),
                Duration::from_millis(80),
            ]
        );
    }

    #[test]
    fn cancelled_mid_retry_aborts_the_loop() {
        let _g = locked();
        let policy = RetryPolicy {
            max_retries: 5,
            ..Default::default()
        };
        let mut calls = 0;
        let r = run_cell("cell", 0, &policy, quiet_sleep, |_| {
            calls += 1;
            Err(BbgnnError::Cancelled {
                at: "train/epoch".into(),
            })
        });
        assert_eq!(calls, 1, "a cancelled run must not burn retries");
        assert_eq!(r.outcome, CellOutcome::Skipped);
        assert_eq!(r.value, FAILED_CELL);
        assert_eq!(r.attempts, 1, "the attempt that surfaced the stop ran");
    }

    #[test]
    fn cancel_seen_before_a_retry_counts_the_attempts_run() {
        let _g = locked();
        let scope = bbgnn_supervise::SupervisionScope::new();
        let _entered = bbgnn_supervise::enter(&scope);
        let policy = RetryPolicy {
            max_retries: 5,
            ..Default::default()
        };
        let mut calls = 0;
        let r = run_cell("cell", 0, &policy, quiet_sleep, |_| {
            calls += 1;
            scope.cancel();
            Err(BbgnnError::NumericalDivergence {
                what: "loss".into(),
                value: f64::NAN,
            })
        });
        assert_eq!(calls, 1, "the stop is seen before attempt 2");
        assert_eq!(r.outcome, CellOutcome::Skipped);
        assert_eq!(r.attempts, 1);
    }
}
