//! The supervision domain type (DESIGN.md §11): one logical run's cancel
//! flag, deadline, epoch/query/memory caps and their used counters.
//!
//! There is one type and two kinds of instance:
//!
//! * the crate's static root scope is the **process-default domain** —
//!   what the CLI binaries, the signal handler and `InfraFlags` configure
//!   through the free functions in the crate root
//!   ([`request_cancel`](crate::request_cancel),
//!   [`install_budget`](crate::install_budget), the `note_*` hooks);
//! * a [`SupervisionScope::new`] scope is owned by one job and
//!   **entered** on a thread ([`enter`]).
//!
//! Every check site ([`stop_reason`](crate::stop_reason),
//! [`check`](crate::check)) consults the root first and then the entered
//! scope, and the `note_*` hooks account to both, so:
//!
//! * with no scope entered, the root is the only domain;
//! * SIGINT/SIGTERM ([`request_cancel`](crate::request_cancel)) reaches
//!   every scope — a scoped job cannot outlive the process's will to die;
//! * a process-wide budget (`--deadline` / `--budget`) bounds scoped
//!   work too, while a *scope's* budget or cancel never leaks to a
//!   sibling scope or to the root.
//!
//! Scope entry is thread-local. Kernel regions propagate the submitting
//! thread's scope into their pool workers (see
//! `ThreadPool::for_each_row_band`), so check sites reached from inside
//! a parallel region — the GF-Attack eigensolver exception of §11 —
//! observe the same scope as the thread that launched the region.
//!
//! A scope also carries its job's **kernel width**
//! ([`set_threads`](SupervisionScope::set_threads)): the thread count
//! every kernel context built inside the job uses
//! ([`entered_threads`], read by `bbgnn_linalg::kernels::current_threads`).
//! It rides in the scope because the scope is the one thread-local pool
//! workers already re-enter.

use crate::{RunBudget, Stop, ROOT};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Sentinel for "no cap configured" in the budget atomics.
const UNSET: u64 = u64::MAX;

/// One supervision domain: a run's cancel flag, budget caps, and
/// accounting counters.
///
/// Constructed with [`SupervisionScope::new`] (an `Arc`, because the
/// scope is shared between the thread running the work and whoever may
/// cancel or observe it — in `bbgnn-serve`, the HTTP threads). All
/// operations are atomic loads/stores; a scope is safe to poke from any
/// thread.
pub struct SupervisionScope {
    /// Scope gate: accounting and stop checks are live. Set by
    /// [`activate`](Self::activate), [`install_budget`](Self::install_budget),
    /// and [`cancel`](Self::cancel).
    active: AtomicBool,
    cancelled: AtomicBool,
    /// Deadline as nanoseconds since the process [`anchor`](crate::anchor);
    /// `UNSET` = none.
    deadline_nanos: AtomicU64,
    /// The *configured* deadline in whole seconds — what a deadline stop
    /// reports as its limit (`deadline_nanos` is an instant relative to an
    /// anchor that may predate installation).
    deadline_limit_secs: AtomicU64,
    epoch_cap: AtomicU64,
    query_cap: AtomicU64,
    mem_cap: AtomicU64,
    epochs_used: AtomicU64,
    queries_used: AtomicU64,
    peak_bytes: AtomicU64,
    /// Whether this domain's stop was already announced on the obs stream.
    stop_announced: AtomicBool,
    /// Kernel width of the job running in this scope; `0` = none recorded.
    threads: AtomicUsize,
}

impl SupervisionScope {
    /// An inactive domain with no caps — the state of the static root and
    /// of every fresh scope.
    pub(crate) const fn inactive() -> SupervisionScope {
        SupervisionScope {
            active: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            deadline_nanos: AtomicU64::new(UNSET),
            deadline_limit_secs: AtomicU64::new(UNSET),
            epoch_cap: AtomicU64::new(UNSET),
            query_cap: AtomicU64::new(UNSET),
            mem_cap: AtomicU64::new(UNSET),
            epochs_used: AtomicU64::new(0),
            queries_used: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            stop_announced: AtomicBool::new(false),
            threads: AtomicUsize::new(0),
        }
    }

    /// A fresh, inactive scope. Until it is activated, cancelled, or
    /// given a budget, entering it changes nothing observable.
    pub fn new() -> Arc<SupervisionScope> {
        Arc::new(Self::inactive())
    }

    /// Returns every field to its [`inactive`](Self::inactive) value; the
    /// gate closes last.
    pub(crate) fn reset(&self) {
        self.cancelled.store(false, Ordering::Relaxed);
        self.deadline_nanos.store(UNSET, Ordering::Relaxed);
        self.deadline_limit_secs.store(UNSET, Ordering::Relaxed);
        self.epoch_cap.store(UNSET, Ordering::Relaxed);
        self.query_cap.store(UNSET, Ordering::Relaxed);
        self.mem_cap.store(UNSET, Ordering::Relaxed);
        self.epochs_used.store(0, Ordering::Relaxed);
        self.queries_used.store(0, Ordering::Relaxed);
        self.peak_bytes.store(0, Ordering::Relaxed);
        self.stop_announced.store(false, Ordering::Relaxed);
        self.threads.store(0, Ordering::Relaxed);
        self.active.store(false, Ordering::Relaxed);
    }

    /// Turns accounting on without installing any cap: the `note_*`
    /// hooks record into this scope from here on, so progress counters
    /// (`bbgnn-serve`'s `GET /jobs/:id` and SSE snapshots) are populated
    /// even for an unbudgeted job. Stop checks stay vacuous (nothing to
    /// trip).
    pub fn activate(&self) {
        self.active.store(true, Ordering::Relaxed);
    }

    /// Whether this scope participates in checks/accounting at all.
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Requests cooperative cancellation of this scope only. Siblings
    /// and the root are untouched. Idempotent; atomic stores only, so the
    /// signal handler may call it on the root.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        self.active.store(true, Ordering::Relaxed);
    }

    /// Whether this scope (or the whole process) was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || ROOT.cancelled.load(Ordering::Relaxed)
    }

    /// Installs `budget` into this scope. An empty budget is a no-op
    /// (the scope stays inactive). The deadline clock starts now.
    pub fn install_budget(&self, budget: &RunBudget) {
        if budget.is_empty() {
            return;
        }
        if let Some(d) = budget.deadline {
            let at = crate::anchor().elapsed() + d;
            self.deadline_nanos.store(
                u64::try_from(at.as_nanos()).unwrap_or(UNSET - 1),
                Ordering::Relaxed,
            );
            self.deadline_limit_secs
                .store(d.as_secs(), Ordering::Relaxed);
        }
        if let Some(e) = budget.epochs {
            self.epoch_cap.store(e, Ordering::Relaxed);
        }
        if let Some(q) = budget.queries {
            self.query_cap.store(q, Ordering::Relaxed);
        }
        if let Some(m) = budget.mem_bytes {
            self.mem_cap.store(m, Ordering::Relaxed);
        }
        self.active.store(true, Ordering::Relaxed);
    }

    /// The check of one domain: `None` while the scope is inactive,
    /// otherwise its [`local_stop`](Self::local_stop), announced on the
    /// obs stream once per scope as a `supervise/stop` event naming
    /// `site`, the first check site that observed it.
    pub(crate) fn announced_stop(&self, site: &str) -> Option<Stop> {
        if !self.is_active() {
            return None;
        }
        let stop = self.local_stop()?;
        if !self.stop_announced.swap(true, Ordering::Relaxed) {
            match &stop {
                Stop::Cancelled => {
                    bbgnn_obs::event!("supervise/stop", site = site, why = "cancelled")
                }
                Stop::Budget { resource, .. } => {
                    bbgnn_obs::event!("supervise/stop", site = site, why = *resource)
                }
            }
        }
        Some(stop)
    }

    /// This scope's own stop state (no other domain, no announce):
    /// cancel first, then each cap against this scope's counters.
    pub(crate) fn local_stop(&self) -> Option<Stop> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(Stop::Cancelled);
        }
        let deadline = self.deadline_nanos.load(Ordering::Relaxed);
        if deadline != UNSET {
            let now = u64::try_from(crate::anchor().elapsed().as_nanos()).unwrap_or(u64::MAX);
            if now >= deadline {
                return Some(Stop::Budget {
                    resource: "deadline",
                    limit: self.deadline_limit_secs.load(Ordering::Relaxed),
                });
            }
        }
        let epoch_cap = self.epoch_cap.load(Ordering::Relaxed);
        if epoch_cap != UNSET && self.epochs_used.load(Ordering::Relaxed) >= epoch_cap {
            return Some(Stop::Budget {
                resource: "epochs",
                limit: epoch_cap,
            });
        }
        let query_cap = self.query_cap.load(Ordering::Relaxed);
        if query_cap != UNSET && self.queries_used.load(Ordering::Relaxed) >= query_cap {
            return Some(Stop::Budget {
                resource: "queries",
                limit: query_cap,
            });
        }
        let mem_cap = self.mem_cap.load(Ordering::Relaxed);
        if mem_cap != UNSET && self.peak_bytes.load(Ordering::Relaxed) > mem_cap {
            return Some(Stop::Budget {
                resource: "memory",
                limit: mem_cap,
            });
        }
        None
    }

    pub(crate) fn add_epochs(&self, n: u64) {
        self.epochs_used.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn add_queries(&self, n: u64) {
        self.queries_used.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn max_mem(&self, peak: u64) {
        self.peak_bytes.fetch_max(peak, Ordering::Relaxed);
    }

    /// Training epochs recorded into this scope.
    pub fn epochs_used(&self) -> u64 {
        self.epochs_used.load(Ordering::Relaxed)
    }

    /// Attack queries recorded into this scope.
    pub fn queries_used(&self) -> u64 {
        self.queries_used.load(Ordering::Relaxed)
    }

    /// Largest `Workspace` high-water mark recorded into this scope.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    /// Records the kernel width of the work running in this scope: every
    /// kernel context built on a thread that has entered it runs on
    /// `threads` workers (clamped to at least 1). Never changes a result
    /// byte (DESIGN.md §7).
    pub fn set_threads(&self, threads: usize) {
        self.threads.store(threads.max(1), Ordering::Relaxed);
    }

    /// The kernel width recorded by [`set_threads`](Self::set_threads),
    /// `None` before one was.
    pub fn threads(&self) -> Option<usize> {
        match self.threads.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }
}

impl std::fmt::Debug for SupervisionScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SupervisionScope")
            .field("active", &self.is_active())
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .field("epochs_used", &self.epochs_used())
            .field("queries_used", &self.queries_used())
            .field("threads", &self.threads())
            .finish()
    }
}

thread_local! {
    /// The scope the current thread has entered, if any.
    static CURRENT: RefCell<Option<Arc<SupervisionScope>>> = const { RefCell::new(None) };
}

/// Restores the previously-entered scope (or none) on drop.
#[must_use = "the scope is exited when the guard drops; bind it (`let _scope = ...`)"]
pub struct ScopeGuard {
    prev: Option<Arc<SupervisionScope>>,
    restored: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.restored {
            return;
        }
        self.restored = true;
        let prev = self.prev.take();
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = prev);
    }
}

/// Enters `scope` on the current thread until the returned guard drops.
/// Nested entries restore the outer scope on exit.
pub fn enter(scope: &Arc<SupervisionScope>) -> ScopeGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(scope)));
    ScopeGuard {
        prev,
        restored: false,
    }
}

/// The scope the current thread has entered, if any. Kernel regions use
/// this to propagate the submitting thread's scope into pool workers.
pub fn current_scope() -> Option<Arc<SupervisionScope>> {
    CURRENT.try_with(|c| c.borrow().clone()).ok().flatten()
}

/// The kernel width recorded in the current thread's entered scope, if
/// any: one thread-local borrow, no `Arc` clone. Pool workers re-enter
/// the submitting thread's scope, so they read the same width.
pub fn entered_threads() -> Option<usize> {
    CURRENT
        .try_with(|c| c.borrow().as_ref().and_then(|s| s.threads()))
        .ok()
        .flatten()
}

/// Whether the current thread's entered scope (if any) is active — the
/// scoped half of [`enabled`](crate::enabled).
pub(crate) fn current_is_active() -> bool {
    CURRENT
        .try_with(|c| c.borrow().as_ref().is_some_and(|s| s.is_active()))
        .unwrap_or(false)
}

/// Runs `f` against the current thread's entered scope, if any.
pub(crate) fn with_current<F: FnOnce(&SupervisionScope)>(f: F) {
    let _ = CURRENT.try_with(|c| {
        if let Some(scope) = c.borrow().as_ref() {
            f(scope);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::TEST_LOCK;
    use crate::{check, note_epochs, request_cancel, shutdown, stop_reason};

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        shutdown();
        guard
    }

    #[test]
    fn inactive_scope_changes_nothing() {
        let _g = locked();
        let scope = SupervisionScope::new();
        let _e = enter(&scope);
        assert!(!crate::enabled());
        assert!(stop_reason("test/site").is_none());
        assert!(check("test/site").is_ok());
    }

    #[test]
    fn scope_cancel_stops_only_the_entered_scope() {
        let _g = locked();
        let a = SupervisionScope::new();
        let b = SupervisionScope::new();
        a.cancel();
        {
            let _e = enter(&a);
            assert_eq!(stop_reason("test/site"), Some(Stop::Cancelled));
        }
        {
            let _e = enter(&b);
            assert!(stop_reason("test/site").is_none(), "sibling unaffected");
        }
        // No scope entered: the default domain never saw the cancel.
        assert!(stop_reason("test/site").is_none());
        assert!(!crate::cancel_requested());
    }

    #[test]
    fn scope_budget_counts_only_scoped_work() {
        let _g = locked();
        let scope = SupervisionScope::new();
        scope.install_budget(&RunBudget {
            epochs: Some(5),
            ..Default::default()
        });
        {
            let _e = enter(&scope);
            note_epochs(5);
            assert!(matches!(
                stop_reason("train/epoch"),
                Some(Stop::Budget {
                    resource: "epochs",
                    ..
                })
            ));
        }
        assert_eq!(scope.epochs_used(), 5);
        // Outside the scope the default domain has no cap to trip.
        assert!(stop_reason("train/epoch").is_none());
    }

    #[test]
    fn global_cancel_reaches_entered_scopes() {
        let _g = locked();
        let scope = SupervisionScope::new();
        let _e = enter(&scope);
        request_cancel();
        assert_eq!(stop_reason("test/site"), Some(Stop::Cancelled));
        assert!(scope.is_cancelled(), "SIGINT must reach scoped work");
        shutdown();
    }

    #[test]
    fn nested_enter_restores_the_outer_scope() {
        let _g = locked();
        let outer = SupervisionScope::new();
        let inner = SupervisionScope::new();
        let _o = enter(&outer);
        {
            let _i = enter(&inner);
            assert!(Arc::ptr_eq(&current_scope().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&current_scope().unwrap(), &outer));
    }

    #[test]
    fn entered_threads_reads_only_the_entered_scopes_width() {
        let outer = SupervisionScope::new();
        let inner = SupervisionScope::new();
        assert_eq!(entered_threads(), None, "no scope entered");
        let _o = enter(&outer);
        assert_eq!(entered_threads(), None, "no width recorded yet");
        outer.set_threads(3);
        assert_eq!(entered_threads(), Some(3));
        {
            inner.set_threads(0);
            let _i = enter(&inner);
            assert_eq!(entered_threads(), Some(1), "a width is at least 1");
        }
        assert_eq!(entered_threads(), Some(3), "the outer width is restored");
    }

    #[test]
    fn scoped_check_surfaces_taxonomy_errors() {
        let _g = locked();
        let scope = SupervisionScope::new();
        scope.cancel();
        let _e = enter(&scope);
        let err = check("job/run").unwrap_err();
        assert!(err.is_supervision_stop());
        assert_eq!(stop_reason("job/run"), Some(Stop::Cancelled));
    }
}
