//! Structured failure handling for the `bbgnn` workspace.
//!
//! Every fallible subsystem — iterative linear algebra, GNN training,
//! dataset IO, the experiment harness — reports failures through one
//! taxonomy, [`BbgnnError`], so a table runner can distinguish "this cell's
//! training diverged under a poisoned graph" (expected, retry with a
//! perturbed seed) from "the dataset directory is truncated" (fatal,
//! surface immediately). [`RetryPolicy`] encodes the paper-reproduction
//! retry discipline: bounded attempts, *deterministic* seed perturbation
//! (so a resumed sweep replays identically), and exponential backoff for
//! IO-class failures only.

#![deny(missing_docs)]

use std::fmt;
use std::time::Duration;

/// Convenience alias used across the workspace.
pub type BbgnnResult<T> = Result<T, BbgnnError>;

/// The workspace-wide error taxonomy.
///
/// Variants are grouped by recovery strategy:
///
/// * [`NumericalDivergence`](BbgnnError::NumericalDivergence) and
///   [`ConvergenceFailure`](BbgnnError::ConvergenceFailure) are *retryable*
///   with a perturbed seed (and often degrade gracefully before erroring);
/// * [`InvalidGraph`](BbgnnError::InvalidGraph) and
///   [`InvalidConfig`](BbgnnError::InvalidConfig) are caller errors and
///   never retried;
/// * [`DatasetIo`](BbgnnError::DatasetIo) is retryable with backoff
///   (transient filesystem conditions);
/// * [`ExperimentAborted`](BbgnnError::ExperimentAborted) wraps a panic or
///   exhausted retry budget for one experiment cell;
/// * [`Cancelled`](BbgnnError::Cancelled) and
///   [`BudgetExceeded`](BbgnnError::BudgetExceeded) come from the
///   supervision layer (DESIGN.md §11) and are *never* retried — retrying
///   cannot un-cancel a run or refill a spent budget.
#[derive(Clone, Debug, PartialEq)]
pub enum BbgnnError {
    /// A numeric quantity left the finite range (NaN/∞ loss, gradient, or
    /// matrix entry).
    NumericalDivergence {
        /// What diverged (e.g. `"training loss"`, `"input matrix entry"`).
        what: String,
        /// The offending value, if representable (`NaN` is preserved).
        value: f64,
    },
    /// An iterative method exhausted its iteration budget above tolerance.
    ConvergenceFailure {
        /// Method name (`"jacobi_svd"`, `"lanczos"`, ...).
        method: String,
        /// Iterations (or sweeps/restarts) performed.
        iters: usize,
        /// Residual at the point of giving up.
        residual: f64,
    },
    /// A graph violated a structural invariant.
    InvalidGraph {
        /// Human-readable description of the violated invariant.
        reason: String,
        /// First offending node, when the violation is per-node.
        node: Option<usize>,
        /// First offending edge, when the violation is per-edge.
        edge: Option<(usize, usize)>,
    },
    /// A dataset file or directory could not be read, written, or parsed.
    DatasetIo {
        /// Path (file or directory) involved.
        path: String,
        /// What went wrong.
        message: String,
    },
    /// An experiment configuration value was malformed.
    InvalidConfig {
        /// The flag or environment variable at fault.
        what: String,
        /// What was wrong with it.
        message: String,
    },
    /// One experiment cell was abandoned (panic caught at the cell
    /// boundary, or every retry failed).
    ExperimentAborted {
        /// Cell identifier (e.g. `"cora/Metattack/GNAT"`).
        cell: String,
        /// The terminal cause, flattened to text.
        cause: String,
    },
    /// The run was cooperatively cancelled (SIGINT/SIGTERM, or an explicit
    /// cancel of the process or of a job's supervision scope). Work
    /// completed so far is preserved by the caller; the error only reports
    /// where the cancellation was observed.
    Cancelled {
        /// The check site that observed the cancellation (e.g.
        /// `"train/epoch"`, `"lanczos/restart"`).
        at: String,
    },
    /// A supervision budget (deadline, epoch/iteration cap, query budget,
    /// memory budget) ran out. Raised only where graceful degradation is
    /// impossible; loops that can return partial results flag them
    /// `degraded` instead.
    BudgetExceeded {
        /// Which budget ran out (`"deadline"`, `"epochs"`, `"queries"`,
        /// `"memory"`).
        resource: String,
        /// The configured limit, in the resource's native unit.
        limit: u64,
        /// The check site that observed the exceedance.
        at: String,
    },
    /// A lower-level error wrapped with additional context.
    Context {
        /// What the caller was doing.
        message: String,
        /// The underlying error.
        source: Box<BbgnnError>,
    },
}

impl BbgnnError {
    /// Wraps `self` with a context message (innermost first when printed).
    pub fn context(self, message: impl Into<String>) -> Self {
        BbgnnError::Context {
            message: message.into(),
            source: Box::new(self),
        }
    }

    /// The innermost (root-cause) error, skipping context wrappers.
    pub fn root_cause(&self) -> &BbgnnError {
        match self {
            BbgnnError::Context { source, .. } => source.root_cause(),
            other => other,
        }
    }

    /// Whether a retry with a perturbed seed could plausibly succeed.
    /// [`Cancelled`](BbgnnError::Cancelled) and
    /// [`BudgetExceeded`](BbgnnError::BudgetExceeded) are categorically not
    /// retryable: a retry would consume time the supervisor already said the
    /// run does not have.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self.root_cause(),
            BbgnnError::NumericalDivergence { .. }
                | BbgnnError::ConvergenceFailure { .. }
                | BbgnnError::DatasetIo { .. }
        )
    }

    /// Whether this is a supervision stop ([`Cancelled`](BbgnnError::Cancelled)
    /// or [`BudgetExceeded`](BbgnnError::BudgetExceeded)) under any context
    /// wrapping. `FaultRunner` records these as `degraded` cells without
    /// retrying.
    pub fn is_supervision_stop(&self) -> bool {
        matches!(
            self.root_cause(),
            BbgnnError::Cancelled { .. } | BbgnnError::BudgetExceeded { .. }
        )
    }

    /// Whether retries should sleep with exponential backoff (IO-class
    /// failures; compute failures retry immediately).
    pub fn wants_backoff(&self) -> bool {
        matches!(self.root_cause(), BbgnnError::DatasetIo { .. })
    }
}

impl fmt::Display for BbgnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BbgnnError::NumericalDivergence { what, value } => {
                write!(f, "numerical divergence: {what} became {value}")
            }
            BbgnnError::ConvergenceFailure {
                method,
                iters,
                residual,
            } => {
                write!(f, "{method} failed to converge after {iters} iterations (residual {residual:.3e})")
            }
            BbgnnError::InvalidGraph { reason, node, edge } => {
                write!(f, "invalid graph: {reason}")?;
                if let Some(v) = node {
                    write!(f, " (node {v})")?;
                }
                if let Some((u, v)) = edge {
                    write!(f, " (edge {u}-{v})")?;
                }
                Ok(())
            }
            BbgnnError::DatasetIo { path, message } => {
                write!(f, "dataset IO error at {path}: {message}")
            }
            BbgnnError::InvalidConfig { what, message } => {
                write!(f, "invalid configuration {what}: {message}")
            }
            BbgnnError::ExperimentAborted { cell, cause } => {
                write!(f, "experiment cell {cell} aborted: {cause}")
            }
            BbgnnError::Cancelled { at } => {
                write!(f, "cancelled at {at}")
            }
            BbgnnError::BudgetExceeded {
                resource,
                limit,
                at,
            } => {
                write!(f, "{resource} budget ({limit}) exceeded at {at}")
            }
            BbgnnError::Context { message, source } => {
                write!(f, "{message}: {source}")
            }
        }
    }
}

impl std::error::Error for BbgnnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BbgnnError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Extension adding `.context(...)` to `Result<T, BbgnnError>`.
pub trait ErrorContext<T> {
    /// Wraps the error side with a fixed message.
    fn context(self, message: impl Into<String>) -> BbgnnResult<T>;

    /// Wraps the error side with a lazily built message.
    fn with_context(self, f: impl FnOnce() -> String) -> BbgnnResult<T>;
}

impl<T> ErrorContext<T> for BbgnnResult<T> {
    fn context(self, message: impl Into<String>) -> BbgnnResult<T> {
        self.map_err(|e| e.context(message))
    }

    fn with_context(self, f: impl FnOnce() -> String) -> BbgnnResult<T> {
        self.map_err(|e| e.context(f()))
    }
}

/// Checks a slice for non-finite entries, returning the index and value of
/// the first offender. Shared guardrail for matrices, gradients, losses.
pub fn first_non_finite(values: &[f64]) -> Option<(usize, f64)> {
    values
        .iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite())
        .map(|(i, &v)| (i, v))
}

/// Bounded, deterministic retry discipline for experiment cells and
/// iterative numerics.
///
/// * every attempt `i` derives its seed as
///   [`seed_for_attempt`](RetryPolicy::seed_for_attempt)`(base, i)` — a
///   fixed odd-constant perturbation, so re-running a sweep (e.g. after a
///   checkpoint resume) replays the exact same retry sequence;
/// * IO-class failures sleep `backoff_base * 2^attempt` (capped) between
///   attempts; compute failures retry immediately.
///
/// The policy is data; the one loop that applies it is the scenario
/// layer's cell boundary, `bbgnn_scenario::job::run_cell`.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (`0` = try once).
    pub max_retries: usize,
    /// Base sleep for IO backoff.
    pub backoff_base: Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_max: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// Deterministic seed perturbation: attempt 0 uses `base` unchanged,
    /// attempt `i` mixes in an odd-constant multiple so seeds never collide
    /// across nearby bases.
    pub fn seed_for_attempt(base: u64, attempt: usize) -> u64 {
        base.wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Backoff duration before retry `attempt` (1-based) of an IO failure.
    pub fn backoff_for_attempt(&self, attempt: usize) -> Duration {
        let factor = 1u32 << attempt.min(16) as u32;
        self.backoff_base
            .checked_mul(factor)
            .map_or(self.backoff_max, |d| d.min(self.backoff_max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_structure() {
        let e = BbgnnError::ConvergenceFailure {
            method: "lanczos".into(),
            iters: 60,
            residual: 1e-3,
        };
        let s = e.to_string();
        assert!(s.contains("lanczos") && s.contains("60"));
        let g = BbgnnError::InvalidGraph {
            reason: "self-loop".into(),
            node: None,
            edge: Some((3, 3)),
        };
        assert!(g.to_string().contains("edge 3-3"));
    }

    #[test]
    fn context_chains_and_root_cause() {
        let e = BbgnnError::DatasetIo {
            path: "/tmp/x".into(),
            message: "missing".into(),
        }
        .context("loading cora")
        .context("running table IV");
        let s = e.to_string();
        assert!(s.starts_with("running table IV: loading cora:"));
        assert!(matches!(e.root_cause(), BbgnnError::DatasetIo { .. }));
        assert!(e.is_retryable());
        assert!(e.wants_backoff());
    }

    #[test]
    fn invalid_graph_is_not_retryable() {
        let e = BbgnnError::InvalidGraph {
            reason: "NaN feature".into(),
            node: Some(1),
            edge: None,
        };
        assert!(!e.is_retryable());
    }

    #[test]
    fn seed_perturbation_is_deterministic_and_distinct() {
        let s0 = RetryPolicy::seed_for_attempt(7, 0);
        assert_eq!(s0, 7, "attempt 0 must use the base seed");
        let s1 = RetryPolicy::seed_for_attempt(7, 1);
        let s2 = RetryPolicy::seed_for_attempt(7, 2);
        assert_ne!(s1, s2);
        assert_eq!(
            s1,
            RetryPolicy::seed_for_attempt(7, 1),
            "perturbation must be deterministic"
        );
    }

    #[test]
    fn supervision_stops_are_never_retryable() {
        let c = BbgnnError::Cancelled {
            at: "train/epoch".into(),
        };
        assert!(!c.is_retryable());
        assert!(c.is_supervision_stop());
        let b = BbgnnError::BudgetExceeded {
            resource: "deadline".into(),
            limit: 1,
            at: "lanczos/restart".into(),
        }
        .context("fitting surrogate");
        assert!(!b.is_retryable());
        assert!(b.is_supervision_stop(), "context wrapping must not hide it");
        assert!(b.to_string().contains("deadline budget (1) exceeded"));
        assert!(!BbgnnError::DatasetIo {
            path: "x".into(),
            message: "y".into()
        }
        .is_supervision_stop());
    }

    #[test]
    fn first_non_finite_finds_offender() {
        assert_eq!(first_non_finite(&[1.0, 2.0]), None);
        let (i, v) = first_non_finite(&[1.0, f64::NAN, f64::INFINITY]).unwrap();
        assert_eq!(i, 1);
        assert!(v.is_nan());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(35),
            ..Default::default()
        };
        assert_eq!(p.backoff_for_attempt(1), Duration::from_millis(20));
        assert_eq!(p.backoff_for_attempt(10), Duration::from_millis(35));
    }
}
