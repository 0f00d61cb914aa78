//! Reverse-mode automatic differentiation over dense matrices.
//!
//! The design is a classic define-by-run tape: a [`Tape`] owns a growing
//! list of nodes; each operation appends a node holding its forward value
//! and enough information to push gradients back to its inputs. Model
//! parameters live *outside* the tape as plain
//! [`DenseMatrix`](bbgnn_linalg::DenseMatrix) values — every training step
//! builds a fresh tape, registers the parameters with [`Tape::var`], runs
//! the forward computation, calls [`Tape::backward`] on a scalar output,
//! and reads gradients back with [`Tape::grad`].
//!
//! The tape owns its buffers: [`Tape::var`] and [`Tape::constant`] take a
//! reference and copy it into a buffer its
//! [`ExecContext`](bbgnn_linalg::ExecContext) lends, every op value and
//! gradient comes from the same arena, and dropping the tape gives them
//! all back — so callers never clone into a tape, and the context's peak
//! (what a `mem` budget reads) counts every tape buffer.
//!
//! The operation set is exactly what the paper reproduction needs:
//!
//! * GCN / linear-GCN forward passes (`matmul`, `spmm`, `relu`, dropout,
//!   softmax cross-entropy), with a GCN-family first layer multiplying its
//!   binary features as a constant CSR through `spmm` after
//!   [`dropout_csr`] drops its stored entries;
//! * GAT attention on the CSR pattern of `A + I`, with edge-valued
//!   (`nnz × 1`) tensors: `edge_add_outer`, `leaky_relu`,
//!   `edge_softmax_rows`, `edge_spmm`, and `concat_cols` for the heads;
//! * attack objectives differentiated with respect to a **dense adjacency
//!   variable** — the GCN normalization chain (`add_const`, `row_sum`,
//!   `pow_scalar`, `scale_rows` / `scale_cols`) and the PEEGA
//!   representation-difference objective (`row_lp_norm_sum`,
//!   `neighbor_lp_norm_sum`);
//! * RGCN's Gaussian machinery (`exp`, `ln`, elementwise ops).
//!
//! ## Constants
//!
//! A node is **constant** iff all its tape inputs are: [`Tape::constant`]
//! leaves are, [`Tape::var`] leaves are not, and every op inherits the rule
//! (operands passed by value, like `spmm`'s matrix, are constants). Constant
//! nodes never receive a gradient (`grad()` is `None`), and
//! [`Tape::backward`] computes a delta only for non-constant inputs — the
//! backward of `matmul(constant, var)` issues one product, not two. Since a
//! pruned delta could only have reached constants, variable gradients are
//! bitwise the same as with every leaf registered as a `var`.
//!
//! Gradient correctness is enforced by finite-difference checks in
//! [`gradcheck`] which every op must pass.

#![deny(missing_docs)]

mod dropout;
pub mod gradcheck;
pub mod optim;
pub mod tape;

pub use dropout::dropout_csr;
pub use tape::{Tape, TensorId};
