//! Dense and sparse linear-algebra substrate for the `bbgnn` workspace.
//!
//! This crate deliberately depends on nothing but `rand`: every kernel the
//! paper reproduction needs — dense matrix algebra, CSR sparse products,
//! singular value decomposition, symmetric eigendecomposition — is
//! implemented here from scratch so the whole system is auditable and
//! portable.
//!
//! The central types are:
//!
//! * [`DenseMatrix`] — row-major `f64` matrix with the elementwise,
//!   reduction, and BLAS-3-style operations used by the autodiff tape.
//! * [`CsrMatrix`] — compressed sparse row matrix used for graph
//!   propagation (`SpMM`) and adjacency bookkeeping.
//! * [`svd`] — one-sided Jacobi SVD (exact, small matrices) and randomized
//!   truncated SVD (rank-k approximation for defenses like GCN-SVD).
//! * [`eigen`] — cyclic Jacobi eigendecomposition and Lanczos iteration for
//!   symmetric matrices (GF-Attack spectra).
//! * [`kernels`] — blocked multi-threaded matmul/SpMM kernels, the scoped
//!   [`ThreadPool`], the [`Workspace`] buffer arena, and the
//!   [`ExecContext`] bundle that the autodiff tape and every training /
//!   attack loop route their products through.
//!
//! All routines are deterministic given a seed; randomized algorithms take
//! an explicit `u64` seed rather than global RNG state. The threaded
//! kernels are additionally **bitwise deterministic in the thread count**
//! (see [`kernels`] for the contract), so `BBGNN_THREADS` never changes a
//! result, only how fast it arrives.

#![deny(missing_docs)]

pub mod content_hash;
pub mod dense;
pub mod eigen;
pub mod incr;
pub mod kernels;
pub mod qr;
pub mod sparse;
pub mod svd;

pub use dense::DenseMatrix;
pub use kernels::{ExecContext, ThreadPool, Workspace};
pub use sparse::CsrMatrix;

/// Numerical tolerance used as a default convergence threshold across the
/// iterative routines in this crate.
pub const DEFAULT_TOL: f64 = 1e-10;
