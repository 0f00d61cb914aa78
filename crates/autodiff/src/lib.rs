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
//! The operation set is exactly what the paper reproduction needs:
//!
//! * GCN / linear-GCN forward passes (`matmul`, `spmm`, `relu`, bias,
//!   dropout, softmax cross-entropy);
//! * GAT attention (`add_outer`, `leaky_relu`, masked row softmax,
//!   `concat_cols`);
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

pub mod gradcheck;
pub mod optim;
pub mod tape;

pub use tape::{Tape, TensorId};
