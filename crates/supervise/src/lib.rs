//! Supervision layer: cooperative cancellation, run budgets, and
//! deterministic fault injection (DESIGN.md §11).
//!
//! Every long-running loop in the workspace — training epochs, attacker
//! perturbation/scan loops, iterative solvers, Pro-GNN's alternating
//! optimization — polls this crate at *deterministic loop boundaries*
//! (top of an epoch, top of a sweep, top of a restart) and stops
//! cooperatively when the run is cancelled or a budget is spent. The
//! contract mirrors the bitwise-determinism rules of DESIGN.md §7:
//! supervision may only gate **whether a loop continues**, never what a
//! completed iteration computes, so any result that runs to completion is
//! byte-identical with or without a supervisor installed.
//!
//! Like `bbgnn-obs` and `bbgnn-store`, the whole layer is off by default
//! and costs one relaxed atomic load plus one thread-local probe per
//! check when off. It activates only when a budget is installed
//! (`--deadline` / `--budget` / `BBGNN_DEADLINE` / `BBGNN_BUDGET`), a
//! fault plan is installed (`BBGNN_FAULTS`), cancellation is requested
//! (SIGINT/SIGTERM via [`signal::install`], or [`request_cancel`]), or
//! the calling thread has entered an active [`SupervisionScope`].
//!
//! ## One scope type, a static root
//!
//! All supervision state lives in [`SupervisionScope`]s (see [`scope`]).
//! The **process-default domain** is a static root scope: the free
//! functions in this module — what the CLI binaries, the signal handler,
//! and `InfraFlags` call — act on it. Multi-tenant callers
//! (`bbgnn-serve`) give each job its own scope and enter it: per-scope
//! cancel, deadline, and budget accounting that never leaks to a sibling
//! job. Every check consults the root first — SIGINT and a process-wide
//! budget bound scoped work too — while a scope's stop never escapes it.
//!
//! Exceeding a budget degrades gracefully where the caller can hold a
//! partial result (training returns best-so-far weights flagged
//! interrupted; attackers return the perturbations accumulated so far) and
//! errors with [`BbgnnError::BudgetExceeded`] /
//! [`BbgnnError::Cancelled`] where it cannot (iterative solvers). Neither
//! error is ever retried.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod fault;
pub mod scope;
pub mod signal;

pub use fault::{fault_at, FaultShot, FAULT_SITES};
pub use scope::{current_scope, enter, entered_threads, ScopeGuard, SupervisionScope};

use bbgnn_errors::{BbgnnError, BbgnnResult};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The process-default supervision domain. Inactive until a budget, a
/// fault plan, or a cancellation arrives; every check site consults it
/// before the entered scope.
static ROOT: SupervisionScope = SupervisionScope::inactive();

/// Monotonic time origin for the deadline arithmetic. The clock is read
/// only while a deadline is configured; with supervision off (or with
/// only epoch/query/memory caps) no check site ever reads a clock, which
/// is what keeps the off path byte-identical and the `clock` lint story
/// honest: time gates loop *continuation* here, it never enters numerics.
pub(crate) fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Whether any supervision is active for the *current thread*: the
/// process-default domain (budget, faults, or cancellation — one relaxed
/// load), or an active [`SupervisionScope`] this thread has entered (one
/// thread-local probe).
pub fn enabled() -> bool {
    ROOT.is_active() || scope::current_is_active()
}

/// Requests cooperative cancellation of the whole process. Safe to call
/// from a signal handler (atomic stores only). Idempotent.
pub fn request_cancel() {
    ROOT.cancel();
}

/// Whether process-wide cancellation has been requested.
pub fn cancel_requested() -> bool {
    ROOT.is_cancelled()
}

/// Resets every process-default supervision knob (budgets, counters,
/// fault plan, cancellation). Test-only in spirit; idempotent.
pub fn shutdown() {
    fault::clear();
    ROOT.reset();
}

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

/// A run budget: every field is optional; an empty budget installs
/// nothing and leaves supervision off.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline, measured from the moment of installation.
    pub deadline: Option<Duration>,
    /// Cap on total training epochs across the process.
    pub epochs: Option<u64>,
    /// Cap on attack queries / candidate edge scans across the process.
    pub queries: Option<u64>,
    /// Cap on `Workspace` peak memory, in bytes.
    pub mem_bytes: Option<u64>,
}

impl RunBudget {
    /// True iff no cap is configured.
    pub fn is_empty(&self) -> bool {
        *self == RunBudget::default()
    }

    /// Parses a `--budget` spec: comma-separated `key=value` pairs with
    /// keys `epochs`, `queries`, `mem`. Integer values accept `k`/`M`/`G`
    /// suffixes (×10³/10⁶/10⁹); `mem` additionally accepts `KiB-style`
    /// powers via `Ki`/`Mi`/`Gi`. Example: `epochs=500,queries=2M,mem=1Gi`.
    pub fn parse_spec(spec: &str) -> Result<RunBudget, String> {
        let mut budget = RunBudget::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("budget item {part:?} is not key=value"))?;
            let value = parse_scaled_u64(value.trim())
                .ok_or_else(|| format!("budget value {value:?} is not a count"))?;
            match key.trim() {
                "epochs" => budget.epochs = Some(value),
                "queries" => budget.queries = Some(value),
                "mem" => budget.mem_bytes = Some(value),
                other => {
                    return Err(format!(
                        "unknown budget key {other:?} (expected epochs/queries/mem)"
                    ))
                }
            }
        }
        Ok(budget)
    }
}

/// Parses an unsigned count with an optional decimal (`k`/`M`/`G`) or
/// binary (`Ki`/`Mi`/`Gi`) scale suffix.
fn parse_scaled_u64(s: &str) -> Option<u64> {
    let (digits, scale) = match s {
        _ if s.ends_with("Ki") => (&s[..s.len() - 2], 1u64 << 10),
        _ if s.ends_with("Mi") => (&s[..s.len() - 2], 1u64 << 20),
        _ if s.ends_with("Gi") => (&s[..s.len() - 2], 1u64 << 30),
        _ if s.ends_with('k') => (&s[..s.len() - 1], 1_000),
        _ if s.ends_with('M') => (&s[..s.len() - 1], 1_000_000),
        _ if s.ends_with('G') => (&s[..s.len() - 1], 1_000_000_000),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(scale)
}

/// Parses a `--deadline` duration: a number with unit `ms`, `s`, `m`, or
/// `h` (bare numbers are seconds). Examples: `1s`, `500ms`, `2m`.
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (digits, unit): (&str, fn(u64) -> Option<Duration>) = match s {
        _ if s.ends_with("ms") => (&s[..s.len() - 2], |v| Some(Duration::from_millis(v))),
        _ if s.ends_with('s') => (&s[..s.len() - 1], |v| Some(Duration::from_secs(v))),
        _ if s.ends_with('m') => (&s[..s.len() - 1], |v| {
            v.checked_mul(60).map(Duration::from_secs)
        }),
        _ if s.ends_with('h') => (&s[..s.len() - 1], |v| {
            v.checked_mul(3600).map(Duration::from_secs)
        }),
        _ => (s, |v| Some(Duration::from_secs(v))),
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .and_then(unit)
        .ok_or_else(|| format!("malformed duration {s:?} (expected e.g. 90s, 500ms, 2m)"))
}

/// Installs `budget` process-wide. An empty budget is a no-op (does not
/// activate supervision). The deadline clock starts now.
pub fn install_budget(budget: &RunBudget) {
    ROOT.install_budget(budget);
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Records `n` completed training epochs (any model). No-op while
/// supervision is off. Counts land in the process-default counters *and*
/// in the scope the calling thread has entered, if any.
pub fn note_epochs(n: u64) {
    if enabled() {
        ROOT.add_epochs(n);
        scope::with_current(|s| s.add_epochs(n));
    }
}

/// Records `n` attack queries / candidate edge scans. No-op while
/// supervision is off. Counts land in the process-default counters *and*
/// in the scope the calling thread has entered, if any.
pub fn note_queries(n: u64) {
    if enabled() {
        ROOT.add_queries(n);
        scope::with_current(|s| s.add_queries(n));
    }
}

/// Records an observed `Workspace` high-water mark in bytes (monotonic
/// max). Unlike the other accounting hooks this runs even while
/// supervision is off *if* the caller already computed the value — but
/// call sites gate on [`enabled`] themselves to stay zero-cost, so this
/// simply takes the max (into the default counters and the entered
/// scope, if any).
pub fn note_mem(peak_bytes: u64) {
    ROOT.max_mem(peak_bytes);
    scope::with_current(|s| s.max_mem(peak_bytes));
}

// ---------------------------------------------------------------------------
// Check sites
// ---------------------------------------------------------------------------

/// Why a supervised loop must stop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stop {
    /// Cooperative cancellation (signal or explicit request).
    Cancelled,
    /// A budget ran out.
    Budget {
        /// Which budget (`"deadline"`, `"epochs"`, `"queries"`, `"memory"`).
        resource: &'static str,
        /// The configured limit in the resource's native unit (whole
        /// seconds for `"deadline"`).
        limit: u64,
    },
}

impl Stop {
    /// Converts the stop into the matching taxonomy error, naming the
    /// check site that observed it.
    pub fn into_error(self, at: &str) -> BbgnnError {
        match self {
            Stop::Cancelled => BbgnnError::Cancelled { at: at.to_string() },
            Stop::Budget { resource, limit } => BbgnnError::BudgetExceeded {
                resource: resource.to_string(),
                limit,
                at: at.to_string(),
            },
        }
    }
}

/// The cooperative check every supervised loop polls at its deterministic
/// loop boundary. Returns `None` (one relaxed load plus one thread-local
/// probe) while supervision is off; otherwise reports the process-default
/// domain's stop, else the entered scope's. `site` names the check site
/// (§11 check-site rules) and appears in the one-shot `supervise/stop`
/// obs event, emitted once per domain.
pub fn stop_reason(site: &str) -> Option<Stop> {
    if !enabled() {
        return None;
    }
    ROOT.announced_stop(site)
        .or_else(|| scope::current_scope()?.announced_stop(site))
}

/// [`stop_reason`] as a `Result`: the form iterative solvers use, where no
/// partial result exists and the stop must surface as a taxonomy error.
pub fn check(site: &str) -> BbgnnResult<()> {
    match stop_reason(site) {
        None => Ok(()),
        Some(stop) => Err(stop.into_error(site)),
    }
}

/// One line describing why (and whether) the run was stopped — the
/// degraded-summary line binaries print on a supervised exit. `None` when
/// nothing stopped.
pub fn stop_summary() -> Option<String> {
    let stop = ROOT.local_stop()?;
    Some(match stop {
        Stop::Cancelled => "supervise: run cancelled (signal); completed cells checkpointed, \
                            partial work discarded (a resume recomputes it)"
            .into(),
        Stop::Budget { resource, limit } => format!(
            "supervise: {resource} budget ({limit}) exhausted; degraded cells recorded \
             (epochs used: {}, queries used: {}, peak workspace: {} bytes)",
            ROOT.epochs_used(),
            ROOT.queries_used(),
            ROOT.peak_bytes()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// All supervision state is process-global; serialize the tests.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        shutdown();
        guard
    }

    #[test]
    fn off_by_default_and_check_is_ok() {
        let _g = locked();
        assert!(!enabled());
        assert!(stop_reason("test/site").is_none());
        assert!(check("test/site").is_ok());
        assert!(stop_summary().is_none());
    }

    #[test]
    fn cancel_request_stops_checks() {
        let _g = locked();
        request_cancel();
        assert!(enabled());
        assert_eq!(stop_reason("test/site"), Some(Stop::Cancelled));
        let err = check("train/epoch").unwrap_err();
        assert!(matches!(err, BbgnnError::Cancelled { ref at } if at == "train/epoch"));
        assert!(stop_summary().unwrap().contains("cancelled"));
        shutdown();
        assert!(check("train/epoch").is_ok());
    }

    #[test]
    fn tokens_observe_global_cancellation() {
        let _g = locked();
        // A scope is the cancellation token of the work it covers; the
        // process-wide cancel reaches it whether or not it is entered.
        let scope = SupervisionScope::new();
        assert!(!scope.is_cancelled());
        request_cancel();
        assert!(scope.is_cancelled(), "SIGINT must reach scoped work");
        shutdown();
        assert!(!scope.is_cancelled());
    }

    #[test]
    fn epoch_budget_trips_after_cap() {
        let _g = locked();
        install_budget(&RunBudget {
            epochs: Some(10),
            ..Default::default()
        });
        assert!(stop_reason("train/epoch").is_none());
        note_epochs(9);
        assert!(stop_reason("train/epoch").is_none());
        note_epochs(1);
        match stop_reason("train/epoch") {
            Some(Stop::Budget { resource, limit }) => {
                assert_eq!(resource, "epochs");
                assert_eq!(limit, 10);
            }
            other => panic!("expected epochs budget stop, got {other:?}"),
        }
        assert!(check("train/epoch").unwrap_err().is_supervision_stop());
        shutdown();
    }

    #[test]
    fn query_and_memory_budgets_trip() {
        let _g = locked();
        install_budget(&RunBudget {
            queries: Some(100),
            mem_bytes: Some(1 << 20),
            ..Default::default()
        });
        note_queries(100);
        assert!(matches!(
            stop_reason("attack/scan"),
            Some(Stop::Budget {
                resource: "queries",
                ..
            })
        ));
        shutdown();
        install_budget(&RunBudget {
            mem_bytes: Some(1 << 20),
            ..Default::default()
        });
        note_mem(1 << 20); // at the cap: fine
        assert!(stop_reason("exec/region").is_none());
        note_mem((1 << 20) + 1);
        assert!(matches!(
            stop_reason("exec/region"),
            Some(Stop::Budget {
                resource: "memory",
                ..
            })
        ));
        shutdown();
    }

    #[test]
    fn deadline_in_the_past_trips_immediately() {
        let _g = locked();
        install_budget(&RunBudget {
            deadline: Some(Duration::ZERO),
            ..Default::default()
        });
        match stop_reason("job/run") {
            Some(Stop::Budget { resource, limit }) => {
                assert_eq!(resource, "deadline");
                // The reported limit is the *configured* duration, not the
                // absolute deadline instant relative to the process anchor
                // (which may predate installation by however long earlier
                // tests ran).
                assert_eq!(limit, 0);
            }
            other => panic!("expected deadline budget stop, got {other:?}"),
        }
        let summary = stop_summary().unwrap();
        assert!(summary.contains("deadline"), "summary: {summary}");
        shutdown();
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let _g = locked();
        install_budget(&RunBudget {
            deadline: Some(Duration::from_secs(3600)),
            ..Default::default()
        });
        assert!(stop_reason("job/run").is_none());
        shutdown();
    }

    #[test]
    fn empty_budget_leaves_supervision_off() {
        let _g = locked();
        install_budget(&RunBudget::default());
        assert!(!enabled());
    }

    #[test]
    fn budget_spec_parses_scales_and_rejects_junk() {
        let b = RunBudget::parse_spec("epochs=500,queries=2M,mem=1Gi").unwrap();
        assert_eq!(b.epochs, Some(500));
        assert_eq!(b.queries, Some(2_000_000));
        assert_eq!(b.mem_bytes, Some(1 << 30));
        assert!(RunBudget::parse_spec("fuel=9").is_err());
        assert!(RunBudget::parse_spec("epochs").is_err());
        assert!(RunBudget::parse_spec("epochs=lots").is_err());
        assert!(RunBudget::parse_spec("").unwrap().is_empty());
    }

    #[test]
    fn duration_parsing_units() {
        assert_eq!(parse_duration("90"), Ok(Duration::from_secs(90)));
        assert_eq!(parse_duration("1s"), Ok(Duration::from_secs(1)));
        assert_eq!(parse_duration("500ms"), Ok(Duration::from_millis(500)));
        assert_eq!(parse_duration("2m"), Ok(Duration::from_secs(120)));
        assert_eq!(parse_duration("1h"), Ok(Duration::from_secs(3600)));
        assert!(parse_duration("soon").is_err());
        // Overflowing the seconds counter is malformed, never a wrapped
        // (here: 3584 s) deadline.
        assert!(parse_duration("5124095576030432h").is_err());
    }

    #[test]
    fn env_init_rejects_malformed_and_accepts_good() {
        let _g = locked();
        // Direct spec-level checks only (env vars are process-global and
        // other tests run in parallel; parse paths are exercised above).
        assert!(RunBudget::parse_spec("epochs=1").is_ok());
        assert!(parse_duration("1s").is_ok());
        assert!(fault::install("12:fault/unknown_site").is_err());
        shutdown();
    }
}
