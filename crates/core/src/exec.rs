//! Execution-context facade.
//!
//! The compute substrate — the scoped thread pool, the blocked kernels,
//! and the workspace arena — lives in [`bbgnn_linalg::kernels`], because
//! `bbgnn` (this crate) is the *top* of the dependency graph: every layer
//! from the autodiff tape to the attackers needs the kernels, so they must
//! sit below all of them, not up here. This module re-exports the
//! execution types so applications can reach them from the facade without
//! depending on `bbgnn_linalg` directly.
//!
//! ## The determinism contract
//!
//! Every threaded kernel is **bitwise identical** to its single-threaded
//! naive reference for every worker count: workers own disjoint output
//! rows, and the per-element accumulation order over the inner dimension
//! never changes. `BBGNN_THREADS=1` and `BBGNN_THREADS=64` produce the
//! same bytes in every table and figure (CI enforces this).
//!
//! ## Choosing a thread count
//!
//! A kernel width has one source, [`current_threads`]: every default
//! context ([`ExecContext::from_env`], [`ThreadPool::default`]) reads it.
//!
//! * Inside a job it is the thread count of the `ExecContext` handed to
//!   `Job::run`, recorded in the job's supervision scope; pool workers
//!   re-enter that scope, so they read it too. `bbgnn-serve` builds that
//!   context per job at the spec's `threads` capped at the process count,
//!   or at the process count divided by `--workers` for `threads: 0`.
//! * Outside a job it is the `BBGNN_THREADS` environment variable, read
//!   once per process ([`env_threads`]), defaulting to the machine's
//!   available parallelism. The CLI binaries pass exactly that to
//!   `Job::run`. A `threads: 0` field (`InfraFlags`, `JobSpec`) means
//!   "the default"; any other value is an explicit request.
//!
//! To pin a width for a piece of work outside a job (the
//! thread-invariance tests do), enter a `SupervisionScope` whose
//! `set_threads` recorded it.

pub use bbgnn_linalg::kernels::{current_threads, default_threads, env_threads};
pub use bbgnn_linalg::{ExecContext, ThreadPool, Workspace};
