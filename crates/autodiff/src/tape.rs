//! The autodiff tape: node storage, forward constructors, and the backward
//! pass.
//!
//! Every tape carries an [`ExecContext`] (shared via `Rc` across the tapes
//! of a training run): matrix products run on the context's blocked
//! multi-threaded kernels, and every node value — leaves included, which
//! [`Tape::var`] and [`Tape::constant`] copy in — every backward delta and
//! every gradient buffer is lent by the context's workspace arena and
//! returned to it on `Drop`. The tape owns its buffers: the arena only
//! gets back what it lent, and its peak counts all of them. From the
//! second epoch of a training loop onward the tape performs essentially no
//! heap allocation.

use crate::dropout::Mask;
use bbgnn_linalg::{CsrMatrix, DenseMatrix, ExecContext};
use std::rc::Rc;

/// Handle to a tensor on a [`Tape`].
///
/// Ids are only meaningful for the tape that produced them; mixing tapes is
/// a logic error caught by debug assertions at best.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TensorId(usize);

/// Recorded operation of a tape node. Constants referenced by ops are
/// `Rc`-shared so cloning the op is cheap.
enum Op {
    /// Variable or constant leaf.
    Leaf,
    /// `A @ B`.
    MatMul(TensorId, TensorId),
    /// `S @ B` with a constant sparse left factor.
    SpMM(Rc<CsrMatrix>, TensorId),
    /// `A + B`.
    Add(TensorId, TensorId),
    /// `A - B`.
    Sub(TensorId, TensorId),
    /// Elementwise `A ∘ B`.
    Hadamard(TensorId, TensorId),
    /// `c * A`.
    ScalarMul(TensorId, f64),
    /// `A + C` with constant `C` (the constant is folded at forward time).
    AddConst(TensorId),
    /// `A ∘ C` with constant `C`.
    HadamardConst(TensorId, Rc<DenseMatrix>),
    /// `max(x, 0)`.
    Relu(TensorId),
    /// `x > 0 ? x : slope * x`.
    LeakyRelu(TensorId, f64),
    /// Logistic sigmoid.
    Sigmoid(TensorId),
    /// `e^x`.
    Exp(TensorId),
    /// `ln(max(x, eps))`.
    Ln(TensorId),
    /// `max(x, eps)^p` (clamp only applied for non-integer or negative `p`).
    PowScalar(TensorId, f64),
    /// Row sums as an `n × 1` column.
    RowSum(TensorId),
    /// Sum of all entries as a `1 × 1` scalar tensor.
    SumAll(TensorId),
    /// `y[i][j] = x[i][j] * s[i]`, `s` an `n × 1` tensor.
    ScaleRows(TensorId, TensorId),
    /// `y[i][j] = x[i][j] * s[j]`, `s` an `m × 1` tensor (`m = cols`).
    ScaleCols(TensorId, TensorId),
    /// Mean softmax cross-entropy of `logits` rows listed in `rows` against
    /// `labels` (full-length label vector).
    CrossEntropy(TensorId, Rc<Vec<usize>>, Rc<Vec<usize>>),
    /// `x ∘ mask` where the keep-probability scaling is baked into `mask`.
    Dropout(TensorId, Rc<DenseMatrix>),
    /// Edge values `e_k = s[i] + d[j]` for every stored entry `k = (i, j)`
    /// of a constant CSR pattern, an `nnz × 1` column.
    EdgeAddOuter(TensorId, TensorId, Rc<CsrMatrix>),
    /// Softmax of edge values over the stored entries of each pattern row.
    EdgeSoftmaxRows(TensorId, Rc<CsrMatrix>),
    /// `S(α) @ B`: the pattern carrying the edge values `α` (kept for the
    /// backward), times a dense `B`.
    EdgeSpMM(TensorId, Rc<CsrMatrix>, TensorId),
    /// Horizontal concatenation.
    ConcatCols(Vec<TensorId>),
    /// Scalar `Σ_i ‖x[i,:]‖_p`.
    RowLpNormSum(TensorId, f64),
    /// Scalar `Σ_{(v,u) ∈ E} ‖x[v,:] − C[u,:]‖_p` over the edges of a
    /// constant adjacency.
    NeighborLpNormSum(TensorId, Rc<CsrMatrix>, Rc<DenseMatrix>, f64),
}

struct Node {
    op: Op,
    value: DenseMatrix,
    /// A constant leaf, or an op whose inputs are all constant. Constants
    /// never receive gradients.
    is_const: bool,
}

/// Numerical floor used by `ln` / fractional `pow` to avoid NaNs.
const CLAMP_EPS: f64 = 1e-12;

/// A reverse-mode autodiff tape over [`DenseMatrix`] values.
pub struct Tape {
    ctx: Rc<ExecContext>,
    nodes: Vec<Node>,
    grads: Vec<Option<DenseMatrix>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Tape {
    /// Returns every node value and gradient buffer — each one lent by the
    /// context — to its workspace, so the next tape on the same context
    /// reuses them.
    fn drop(&mut self) {
        let ctx = Rc::clone(&self.ctx);
        for node in self.nodes.drain(..) {
            ctx.recycle(node.value);
        }
        for g in self.grads.drain(..).flatten() {
            ctx.recycle(g);
        }
    }
}

impl Tape {
    /// Creates an empty tape with a fresh [`ExecContext`] (thread count
    /// from `kernels::current_threads`: the entered job's width, else
    /// `BBGNN_THREADS`). Loops building many tapes should share one
    /// context via [`Tape::with_context`] to get cross-tape buffer reuse.
    pub fn new() -> Self {
        Self::with_context(Rc::new(ExecContext::from_env()))
    }

    /// Creates an empty tape running on (and recycling buffers through)
    /// `ctx`.
    pub fn with_context(ctx: Rc<ExecContext>) -> Self {
        Self {
            ctx,
            nodes: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// The execution context this tape runs on.
    pub fn context(&self) -> &Rc<ExecContext> {
        &self.ctx
    }

    fn push_node(&mut self, op: Op, value: DenseMatrix, is_const: bool) -> TensorId {
        self.nodes.push(Node {
            op,
            value,
            is_const,
        });
        self.grads.push(None);
        TensorId(self.nodes.len() - 1)
    }

    /// Pushes an op node; it is constant iff every tape input is.
    fn push(&mut self, op: Op, value: DenseMatrix) -> TensorId {
        let is_const = self.inputs_const(&op);
        self.push_node(op, value, is_const)
    }

    fn is_const(&self, id: TensorId) -> bool {
        self.nodes[id.0].is_const
    }

    /// Whether every tape input of `op` is constant. Operands held by
    /// value (`SpMM`'s matrix, `HadamardConst`'s mask, ...) are constants
    /// by construction and do not count.
    fn inputs_const(&self, op: &Op) -> bool {
        match op {
            Op::Leaf => true,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Hadamard(a, b)
            | Op::ScaleRows(a, b)
            | Op::ScaleCols(a, b)
            | Op::EdgeAddOuter(a, b, _)
            | Op::EdgeSpMM(a, _, b) => self.is_const(*a) && self.is_const(*b),
            Op::SpMM(_, a)
            | Op::ScalarMul(a, _)
            | Op::AddConst(a)
            | Op::HadamardConst(a, _)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::PowScalar(a, _)
            | Op::RowSum(a)
            | Op::SumAll(a)
            | Op::EdgeSoftmaxRows(a, _)
            | Op::CrossEntropy(a, _, _)
            | Op::Dropout(a, _)
            | Op::RowLpNormSum(a, _)
            | Op::NeighborLpNormSum(a, _, _, _) => self.is_const(*a),
            Op::ConcatCols(parts) => parts.iter().all(|&p| self.is_const(p)),
        }
    }

    /// Registers a differentiable leaf (a model parameter or an attack
    /// variable), copied into a buffer the tape's context lends.
    pub fn var(&mut self, value: &DenseMatrix) -> TensorId {
        self.push_node(Op::Leaf, self.ctx.alloc_copy(value), false)
    }

    /// Registers a non-differentiable leaf, copied into a buffer the tape's
    /// context lends. Every op computed only from constants is itself
    /// constant (see the crate docs).
    pub fn constant(&mut self, value: &DenseMatrix) -> TensorId {
        self.push_node(Op::Leaf, self.ctx.alloc_copy(value), true)
    }

    /// A `1 × 1` value `x` in a buffer the context lends.
    fn scalar(&self, x: f64) -> DenseMatrix {
        let mut v = self.ctx.alloc_zeroed(1, 1);
        v.set(0, 0, x);
        v
    }

    /// Value of tensor `id`.
    pub fn value(&self, id: TensorId) -> &DenseMatrix {
        &self.nodes[id.0].value
    }

    /// Gradient of the last [`Tape::backward`] output with respect to `id`,
    /// if any was accumulated.
    pub fn grad(&self, id: TensorId) -> Option<&DenseMatrix> {
        self.grads[id.0].as_ref()
    }

    /// Shape of tensor `id`.
    pub fn shape(&self, id: TensorId) -> (usize, usize) {
        self.nodes[id.0].value.shape()
    }

    // ----- forward constructors -------------------------------------------------

    /// `a @ b`.
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let v = self
            .ctx
            .matmul(&self.nodes[a.0].value, &self.nodes[b.0].value);
        self.push(Op::MatMul(a, b), v)
    }

    /// `s @ b` with a constant sparse matrix `s`.
    pub fn spmm(&mut self, s: Rc<CsrMatrix>, b: TensorId) -> TensorId {
        let v = self.ctx.spmm(&s, &self.nodes[b.0].value);
        self.push(Op::SpMM(s, b), v)
    }

    /// `a + b`.
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let v = self
            .ctx
            .binary(&self.nodes[a.0].value, &self.nodes[b.0].value, |x, y| x + y);
        self.push(Op::Add(a, b), v)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let v = self
            .ctx
            .binary(&self.nodes[a.0].value, &self.nodes[b.0].value, |x, y| x - y);
        self.push(Op::Sub(a, b), v)
    }

    /// Elementwise `a ∘ b`.
    pub fn hadamard(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let v = self
            .ctx
            .binary(&self.nodes[a.0].value, &self.nodes[b.0].value, |x, y| x * y);
        self.push(Op::Hadamard(a, b), v)
    }

    /// `c * a`.
    pub fn scalar_mul(&mut self, a: TensorId, c: f64) -> TensorId {
        let v = self.ctx.unary(&self.nodes[a.0].value, |x| x * c);
        self.push(Op::ScalarMul(a, c), v)
    }

    /// `a + c` with a constant matrix.
    pub fn add_const(&mut self, a: TensorId, c: Rc<DenseMatrix>) -> TensorId {
        let v = self.ctx.binary(&self.nodes[a.0].value, &c, |x, y| x + y);
        self.push(Op::AddConst(a), v)
    }

    /// `a - c` with a constant matrix (stored as `AddConst` of `-c`).
    pub fn sub_const(&mut self, a: TensorId, c: &DenseMatrix) -> TensorId {
        self.add_const(a, Rc::new(c.scale(-1.0)))
    }

    /// Elementwise `a ∘ c` with a constant matrix.
    pub fn hadamard_const(&mut self, a: TensorId, c: Rc<DenseMatrix>) -> TensorId {
        let v = self.ctx.binary(&self.nodes[a.0].value, &c, |x, y| x * y);
        self.push(Op::HadamardConst(a, c), v)
    }

    /// ReLU.
    pub fn relu(&mut self, a: TensorId) -> TensorId {
        let v = self.ctx.unary(&self.nodes[a.0].value, |x| x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    /// Leaky ReLU with negative slope `slope`.
    pub fn leaky_relu(&mut self, a: TensorId, slope: f64) -> TensorId {
        let v = self.ctx.unary(
            &self.nodes[a.0].value,
            |x| if x > 0.0 { x } else { slope * x },
        );
        self.push(Op::LeakyRelu(a, slope), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: TensorId) -> TensorId {
        let v = self
            .ctx
            .unary(&self.nodes[a.0].value, |x| 1.0 / (1.0 + (-x).exp()));
        self.push(Op::Sigmoid(a), v)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: TensorId) -> TensorId {
        let v = self.ctx.unary(&self.nodes[a.0].value, f64::exp);
        self.push(Op::Exp(a), v)
    }

    /// Elementwise natural log, clamped below at `1e-12`.
    pub fn ln(&mut self, a: TensorId) -> TensorId {
        let v = self
            .ctx
            .unary(&self.nodes[a.0].value, |x| x.max(CLAMP_EPS).ln());
        self.push(Op::Ln(a), v)
    }

    /// Elementwise power `x^p`; negative bases are clamped to `1e-12` when
    /// `p` is not a non-negative integer.
    pub fn pow_scalar(&mut self, a: TensorId, p: f64) -> TensorId {
        let clamp = p < 0.0 || p.fract() != 0.0;
        let v = self.ctx.unary(&self.nodes[a.0].value, |x| {
            let x = if clamp { x.max(CLAMP_EPS) } else { x };
            x.powf(p)
        });
        self.push(Op::PowScalar(a, p), v)
    }

    /// Row sums as an `n × 1` tensor.
    pub fn row_sum(&mut self, a: TensorId) -> TensorId {
        let x = &self.nodes[a.0].value;
        let mut v = self.ctx.alloc_zeroed(x.rows(), 1);
        for (i, o) in v.as_mut_slice().iter_mut().enumerate() {
            *o = x.row(i).iter().sum();
        }
        self.push(Op::RowSum(a), v)
    }

    /// Sum of all entries as a `1 × 1` tensor.
    pub fn sum_all(&mut self, a: TensorId) -> TensorId {
        self.push(Op::SumAll(a), self.scalar(self.nodes[a.0].value.sum()))
    }

    /// `y[i][j] = x[i][j] * s[i]`, with `s` an `n × 1` tensor.
    pub fn scale_rows(&mut self, x: TensorId, s: TensorId) -> TensorId {
        let scales = self.nodes[s.0].value.as_slice();
        let mut v = self.ctx.alloc_copy(&self.nodes[x.0].value);
        assert_eq!(scales.len(), v.rows(), "scale_rows length mismatch");
        for (i, &si) in scales.iter().enumerate() {
            v.row_mut(i).iter_mut().for_each(|y| *y *= si);
        }
        self.push(Op::ScaleRows(x, s), v)
    }

    /// `y[i][j] = x[i][j] * s[j]`, with `s` an `m × 1` tensor.
    pub fn scale_cols(&mut self, x: TensorId, s: TensorId) -> TensorId {
        let scales = self.nodes[s.0].value.as_slice();
        let mut v = self.ctx.alloc_copy(&self.nodes[x.0].value);
        assert_eq!(scales.len(), v.cols(), "scale_cols length mismatch");
        for i in 0..v.rows() {
            for (y, &sj) in v.row_mut(i).iter_mut().zip(scales) {
                *y *= sj;
            }
        }
        self.push(Op::ScaleCols(x, s), v)
    }

    /// Mean softmax cross-entropy over the rows listed in `rows`:
    /// `-(1/|rows|) Σ_{r ∈ rows} log softmax(logits[r])[labels[r]]`.
    ///
    /// `labels` must cover every index in `rows`.
    pub fn cross_entropy(
        &mut self,
        logits: TensorId,
        labels: Rc<Vec<usize>>,
        rows: Rc<Vec<usize>>,
    ) -> TensorId {
        assert!(!rows.is_empty(), "cross_entropy over an empty row set");
        let x = &self.nodes[logits.0].value;
        let mut loss = 0.0;
        for &r in rows.iter() {
            let row = x.row(r);
            let lse = log_sum_exp(row);
            loss -= row[labels[r]] - lse;
        }
        loss /= rows.len() as f64;
        self.push(Op::CrossEntropy(logits, labels, rows), self.scalar(loss))
    }

    /// Inverted dropout with keep-scaling baked into the generated mask.
    /// `p` is the drop probability; training determinism comes from `seed`.
    /// The mask is the one [`dropout_csr`](crate::dropout_csr) applies to
    /// a sparse input of the same shape, `p` and `seed`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub fn dropout(&mut self, a: TensorId, p: f64, seed: u64) -> TensorId {
        let (r, c) = self.shape(a);
        let mut mask = Mask::new(p, seed);
        let mask = Rc::new(DenseMatrix::from_vec(
            r,
            c,
            (0..r * c).map(|pos| mask.at(pos)).collect(),
        ));
        let v = self.ctx.binary(&self.nodes[a.0].value, &mask, |x, y| x * y);
        self.push(Op::Dropout(a, mask), v)
    }

    /// Edge-valued outer sum over a constant CSR `pattern`: `e_k = s[i] +
    /// d[j]` for every stored entry `k = (i, j)`, as an `nnz × 1` column in
    /// the pattern's row-major entry order. `s` is a `rows × 1` and `d` a
    /// `cols × 1` column; the dense `y[i][j] = s[i] + d[j]` is evaluated
    /// only where `pattern` stores an entry (GAT's attention logits on
    /// `A + I`).
    pub fn edge_add_outer(&mut self, s: TensorId, d: TensorId, pattern: Rc<CsrMatrix>) -> TensorId {
        let sv = self.nodes[s.0].value.as_slice();
        let dv = self.nodes[d.0].value.as_slice();
        assert_eq!(
            self.shape(s),
            (pattern.rows(), 1),
            "edge_add_outer: s shape"
        );
        assert_eq!(
            self.shape(d),
            (pattern.cols(), 1),
            "edge_add_outer: d shape"
        );
        let mut v = self.ctx.alloc_zeroed(pattern.nnz(), 1);
        let out = v.as_mut_slice();
        let cols = pattern.col_indices();
        for (&si, w) in sv.iter().zip(pattern.row_ptr().windows(2)) {
            for k in w[0]..w[1] {
                out[k] = si + dv[cols[k]];
            }
        }
        self.push(Op::EdgeAddOuter(s, d, pattern), v)
    }

    /// Row-wise softmax of the edge values `e` (`nnz × 1`) over the stored
    /// entries of each `pattern` row: the dense masked softmax with the
    /// pattern as its mask. A row with no stored entry, or only `-∞` ones,
    /// yields zeros.
    pub fn edge_softmax_rows(&mut self, e: TensorId, pattern: Rc<CsrMatrix>) -> TensorId {
        assert_eq!(
            self.shape(e),
            (pattern.nnz(), 1),
            "edge_softmax_rows: e shape"
        );
        let mut v = self.ctx.alloc_zeroed(pattern.nnz(), 1);
        let x = self.nodes[e.0].value.as_slice();
        for w in pattern.row_ptr().windows(2) {
            edge_softmax_slice(&x[w[0]..w[1]], &mut v.as_mut_slice()[w[0]..w[1]]);
        }
        self.push(Op::EdgeSoftmaxRows(e, pattern), v)
    }

    /// `S(α) @ b`: `pattern` carrying the edge values `alpha` (`nnz × 1`)
    /// times a dense `b`, on the SpMM kernels. Bitwise the dense product
    /// of `b` with an `α` that is zero off the pattern: when `b` is not all
    /// finite, zero `α` entries are dropped first, as the dense kernel then
    /// skips zero left-hand entries (`0 · inf` would be NaN).
    pub fn edge_spmm(&mut self, alpha: TensorId, pattern: &CsrMatrix, b: TensorId) -> TensorId {
        assert_eq!(
            self.shape(alpha),
            (pattern.nnz(), 1),
            "edge_spmm: alpha shape"
        );
        let s = pattern.with_values(self.nodes[alpha.0].value.as_slice().to_vec());
        let bv = &self.nodes[b.0].value;
        let v = if bv.is_finite() {
            self.ctx.spmm(&s, bv)
        } else {
            self.ctx.spmm(&s.without_zeros(), bv)
        };
        self.push(Op::EdgeSpMM(alpha, Rc::new(s), b), v)
    }

    /// Horizontal concatenation `[a₀ | a₁ | …]`.
    pub fn concat_cols(&mut self, parts: &[TensorId]) -> TensorId {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = self.shape(parts[0]).0;
        let total: usize = parts.iter().map(|&p| self.shape(p).1).sum();
        let mut v = self.ctx.alloc_zeroed(rows, total);
        let mut off = 0;
        for &p in parts {
            let pv = &self.nodes[p.0].value;
            assert_eq!(pv.rows(), rows, "concat_cols: row mismatch");
            for i in 0..rows {
                v.row_mut(i)[off..off + pv.cols()].copy_from_slice(pv.row(i));
            }
            off += pv.cols();
        }
        self.push(Op::ConcatCols(parts.to_vec()), v)
    }

    /// Scalar `Σ_i ‖x[i,:]‖_p` — PEEGA's self-view difference (Eq. 5 of the
    /// paper, with the constant term subtracted beforehand).
    pub fn row_lp_norm_sum(&mut self, x: TensorId, p: f64) -> TensorId {
        let xv = &self.nodes[x.0].value;
        let s: f64 = (0..xv.rows()).map(|i| xv.row_lp_norm(i, p)).sum();
        self.push(Op::RowLpNormSum(x, p), self.scalar(s))
    }

    /// Scalar `Σ_{(v,u) ∈ E(adj)} ‖x[v,:] − c[u,:]‖_p` — PEEGA's global-view
    /// difference (Eq. 6), where `adj` holds the *original* topology and `c`
    /// the original aggregated representations.
    pub fn neighbor_lp_norm_sum(
        &mut self,
        x: TensorId,
        adj: Rc<CsrMatrix>,
        c: Rc<DenseMatrix>,
        p: f64,
    ) -> TensorId {
        let xv = &self.nodes[x.0].value;
        assert_eq!(
            xv.cols(),
            c.cols(),
            "neighbor_lp_norm_sum: feature dims differ"
        );
        let mut s = 0.0;
        let mut diff = vec![0.0; xv.cols()];
        for v in 0..adj.rows() {
            let xr = xv.row(v);
            for (u, w) in adj.row_iter(v) {
                if w == 0.0 {
                    continue;
                }
                let cu = c.row(u);
                for (d, (a, b)) in diff.iter_mut().zip(xr.iter().zip(cu)) {
                    *d = a - b;
                }
                s += bbgnn_linalg::dense::lp_norm(&diff, p);
            }
        }
        self.push(Op::NeighborLpNormSum(x, adj, c, p), self.scalar(s))
    }

    // ----- backward -------------------------------------------------------------

    /// Runs the backward pass from the scalar tensor `output` (must be
    /// `1 × 1`), filling gradients for every differentiable ancestor.
    ///
    /// Work is pruned to what those gradients need: constant nodes are
    /// never visited, and an op computes a delta only for its non-constant
    /// inputs (`matmul(constant, var)` runs one product, not two). Pruned
    /// deltas could only have flowed into constants, so every variable
    /// gradient is bitwise the one the unpruned pass computes.
    ///
    /// # Panics
    /// Panics if `output` is not `1 × 1`.
    pub fn backward(&mut self, output: TensorId) {
        assert_eq!(
            self.shape(output),
            (1, 1),
            "backward requires a scalar output"
        );
        for g in &mut self.grads {
            if let Some(old) = g.take() {
                self.ctx.recycle(old);
            }
        }
        if self.is_const(output) {
            return;
        }
        self.grads[output.0] = Some(self.scalar(1.0));
        for idx in (0..=output.0).rev() {
            let Some(grad) = self.grads[idx].take() else {
                continue;
            };
            // lint: allow(check_site) reason=backward is one uninterruptible unit of work; the §11 check sits at the epoch boundary in the train loop
            self.propagate(idx, &grad);
            self.grads[idx] = Some(grad);
        }
    }

    fn accumulate(&mut self, id: TensorId, delta: DenseMatrix) {
        debug_assert!(!self.is_const(id), "delta computed for a constant");
        match &mut self.grads[id.0] {
            Some(g) => {
                g.axpy(1.0, &delta);
                self.ctx.recycle(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Pushes node `idx`'s gradient `g` to its inputs. Only non-constant
    /// nodes get here, so a single-input op's input is never constant; a
    /// multi-input op computes the delta of each input only when that
    /// input is `live` (not constant).
    fn propagate(&mut self, idx: usize, g: &DenseMatrix) {
        // Deltas are computed from immutable borrows, then accumulated.
        enum Delta {
            One(TensorId, DenseMatrix),
            Two(TensorId, Option<DenseMatrix>, TensorId, Option<DenseMatrix>),
            Many(Vec<(TensorId, DenseMatrix)>),
            None,
        }
        let delta = {
            let ctx = &self.ctx;
            let node = &self.nodes[idx];
            let live = |id: &TensorId| !self.is_const(*id);
            match &node.op {
                Op::Leaf => Delta::None,
                Op::MatMul(a, b) => {
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    Delta::Two(
                        *a,
                        live(a).then(|| ctx.matmul_nt(g, bv)),
                        *b,
                        live(b).then(|| ctx.matmul_tn(av, g)),
                    )
                }
                Op::SpMM(s, b) => Delta::One(*b, ctx.spmm_t(s, g)),
                Op::Add(a, b) => Delta::Two(
                    *a,
                    live(a).then(|| ctx.alloc_copy(g)),
                    *b,
                    live(b).then(|| ctx.alloc_copy(g)),
                ),
                Op::Sub(a, b) => Delta::Two(
                    *a,
                    live(a).then(|| ctx.alloc_copy(g)),
                    *b,
                    live(b).then(|| ctx.unary(g, |x| -x)),
                ),
                Op::Hadamard(a, b) => {
                    let av = &self.nodes[a.0].value;
                    let bv = &self.nodes[b.0].value;
                    Delta::Two(
                        *a,
                        live(a).then(|| ctx.binary(g, bv, |x, y| x * y)),
                        *b,
                        live(b).then(|| ctx.binary(g, av, |x, y| x * y)),
                    )
                }
                Op::ScalarMul(a, c) => {
                    let c = *c;
                    Delta::One(*a, ctx.unary(g, |x| x * c))
                }
                Op::AddConst(a) => Delta::One(*a, ctx.alloc_copy(g)),
                Op::HadamardConst(a, c) => Delta::One(*a, ctx.binary(g, c, |x, y| x * y)),
                Op::Relu(a) => {
                    let av = &self.nodes[a.0].value;
                    Delta::One(
                        *a,
                        ctx.binary(g, av, |gg, x| if x > 0.0 { gg } else { 0.0 }),
                    )
                }
                Op::LeakyRelu(a, slope) => {
                    let av = &self.nodes[a.0].value;
                    let s = *slope;
                    Delta::One(
                        *a,
                        ctx.binary(g, av, move |gg, x| if x > 0.0 { gg } else { s * gg }),
                    )
                }
                Op::Sigmoid(a) => {
                    let y = &node.value;
                    Delta::One(*a, ctx.binary(g, y, |gg, yy| gg * yy * (1.0 - yy)))
                }
                Op::Exp(a) => Delta::One(*a, ctx.binary(g, &node.value, |x, y| x * y)),
                Op::Ln(a) => {
                    let av = &self.nodes[a.0].value;
                    Delta::One(*a, ctx.binary(g, av, |gg, x| gg / x.max(CLAMP_EPS)))
                }
                Op::PowScalar(a, p) => {
                    let av = &self.nodes[a.0].value;
                    let p = *p;
                    let clamp = p < 0.0 || p.fract() != 0.0;
                    Delta::One(
                        *a,
                        ctx.binary(g, av, move |gg, x| {
                            let x = if clamp { x.max(CLAMP_EPS) } else { x };
                            gg * p * x.powf(p - 1.0)
                        }),
                    )
                }
                Op::RowSum(a) => {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = ctx.alloc_zeroed(r, c);
                    for i in 0..r {
                        let gi = g.get(i, 0);
                        for v in d.row_mut(i) {
                            *v = gi;
                        }
                    }
                    Delta::One(*a, d)
                }
                Op::SumAll(a) => {
                    let (r, c) = self.nodes[a.0].value.shape();
                    let mut d = ctx.alloc_zeroed(r, c);
                    d.as_mut_slice().fill(g.get(0, 0));
                    Delta::One(*a, d)
                }
                Op::ScaleRows(x, s) => {
                    let xv = &self.nodes[x.0].value;
                    let sv = &self.nodes[s.0].value;
                    let dx = live(x).then(|| {
                        let mut dx = ctx.alloc_copy(g);
                        for i in 0..xv.rows() {
                            let si = sv.get(i, 0);
                            dx.row_mut(i).iter_mut().for_each(|d| *d *= si);
                        }
                        dx
                    });
                    let ds = live(s).then(|| {
                        let mut ds = ctx.alloc_zeroed(sv.rows(), 1);
                        for i in 0..xv.rows() {
                            let mut acc = 0.0;
                            for (&d, &xx) in g.row(i).iter().zip(xv.row(i)) {
                                acc += d * xx;
                            }
                            ds.set(i, 0, acc);
                        }
                        ds
                    });
                    Delta::Two(*x, dx, *s, ds)
                }
                Op::ScaleCols(x, s) => {
                    let xv = &self.nodes[x.0].value;
                    let sv = &self.nodes[s.0].value;
                    let dx = live(x).then(|| {
                        let mut dx = ctx.alloc_copy(g);
                        for i in 0..xv.rows() {
                            for (j, d) in dx.row_mut(i).iter_mut().enumerate() {
                                *d *= sv.get(j, 0);
                            }
                        }
                        dx
                    });
                    let ds = live(s).then(|| {
                        let mut ds = ctx.alloc_zeroed(sv.rows(), 1);
                        for i in 0..xv.rows() {
                            for (j, (&d, &xx)) in g.row(i).iter().zip(xv.row(i)).enumerate() {
                                ds.add_at(j, 0, d * xx);
                            }
                        }
                        ds
                    });
                    Delta::Two(*x, dx, *s, ds)
                }
                Op::EdgeSoftmaxRows(a, pattern) => {
                    let (y, gs) = (node.value.as_slice(), g.as_slice());
                    let mut d = ctx.alloc_zeroed(y.len(), 1);
                    let ds = d.as_mut_slice();
                    for w in pattern.row_ptr().windows(2) {
                        let mut dot = row_sum_start(w[1] - w[0], pattern.cols());
                        for k in w[0]..w[1] {
                            dot += y[k] * gs[k];
                        }
                        for k in w[0]..w[1] {
                            ds[k] = y[k] * (gs[k] - dot);
                        }
                    }
                    Delta::One(*a, d)
                }
                Op::CrossEntropy(logits, labels, rows) => {
                    let x = &self.nodes[logits.0].value;
                    let scale = g.get(0, 0) / rows.len() as f64;
                    let mut d = ctx.alloc_zeroed(x.rows(), x.cols());
                    for &r in rows.iter() {
                        let row = x.row(r);
                        let lse = log_sum_exp(row);
                        let dr = d.row_mut(r);
                        for (j, dv) in dr.iter_mut().enumerate() {
                            let p = (row[j] - lse).exp();
                            *dv += scale * (p - if j == labels[r] { 1.0 } else { 0.0 });
                        }
                    }
                    Delta::One(*logits, d)
                }
                Op::Dropout(a, mask) => Delta::One(*a, ctx.binary(g, mask, |x, y| x * y)),
                Op::EdgeAddOuter(s, d, pattern) => {
                    let gs = g.as_slice();
                    let ds = live(s).then(|| {
                        let mut ds = ctx.alloc_zeroed(pattern.rows(), 1);
                        for (o, w) in ds
                            .as_mut_slice()
                            .iter_mut()
                            .zip(pattern.row_ptr().windows(2))
                        {
                            *o = row_sum_start(w[1] - w[0], pattern.cols());
                            for &gk in &gs[w[0]..w[1]] {
                                *o += gk;
                            }
                        }
                        ds
                    });
                    // Column sums from `+0.0`, rows ascending: the order of
                    // `DenseMatrix::col_sums`, whose off-pattern `+0.0`
                    // terms never meet a `-0.0` partial sum.
                    let dd = live(d).then(|| {
                        let mut dd = ctx.alloc_zeroed(pattern.cols(), 1);
                        let out = dd.as_mut_slice();
                        for (&j, &gk) in pattern.col_indices().iter().zip(gs) {
                            out[j] += gk;
                        }
                        dd
                    });
                    Delta::Two(*s, ds, *d, dd)
                }
                Op::EdgeSpMM(alpha, s, b) => {
                    let bv = &self.nodes[b.0].value;
                    // ∂/∂α_k for the entry `(i, j)` is `g[i,:] · b[j,:]`,
                    // ascending from `+0.0`: element `(i, j)` of the dense
                    // `g · bᵀ` (`matmul_nt`), computed only where stored.
                    let da = live(alpha).then(|| {
                        let mut da = ctx.alloc_zeroed(s.nnz(), 1);
                        let out = da.as_mut_slice();
                        let cols = s.col_indices();
                        for (i, w) in s.row_ptr().windows(2).enumerate() {
                            let gi = g.row(i);
                            for k in w[0]..w[1] {
                                let mut acc = 0.0;
                                for (&x, &y) in gi.iter().zip(bv.row(cols[k])) {
                                    acc += x * y;
                                }
                                out[k] = acc;
                            }
                        }
                        da
                    });
                    // `S(α)ᵀ · g` under the forward's finite-operand rule.
                    let db = live(b).then(|| {
                        if g.is_finite() {
                            ctx.spmm_t(s, g)
                        } else {
                            ctx.spmm_t(&s.without_zeros(), g)
                        }
                    });
                    Delta::Two(*alpha, da, *b, db)
                }
                Op::ConcatCols(parts) => {
                    let mut deltas = Vec::with_capacity(parts.len());
                    let mut off = 0;
                    for p in parts {
                        let (r, c) = self.nodes[p.0].value.shape();
                        if live(p) {
                            let mut d = ctx.alloc_zeroed(r, c);
                            for i in 0..r {
                                d.row_mut(i).copy_from_slice(&g.row(i)[off..off + c]);
                            }
                            deltas.push((*p, d));
                        }
                        off += c;
                    }
                    Delta::Many(deltas)
                }
                Op::RowLpNormSum(x, p) => {
                    let xv = &self.nodes[x.0].value;
                    let gg = g.get(0, 0);
                    let mut d = ctx.alloc_zeroed(xv.rows(), xv.cols());
                    for i in 0..xv.rows() {
                        lp_norm_grad(xv.row(i), *p, gg, d.row_mut(i));
                    }
                    Delta::One(*x, d)
                }
                Op::NeighborLpNormSum(x, adj, c, p) => {
                    let xv = &self.nodes[x.0].value;
                    let gg = g.get(0, 0);
                    let mut d = ctx.alloc_zeroed(xv.rows(), xv.cols());
                    let mut diff = vec![0.0; xv.cols()];
                    let mut partial = vec![0.0; xv.cols()];
                    for v in 0..adj.rows() {
                        let xr = xv.row(v);
                        for (u, w) in adj.row_iter(v) {
                            if w == 0.0 {
                                continue;
                            }
                            let cu = c.row(u);
                            for (dd, (a, b)) in diff.iter_mut().zip(xr.iter().zip(cu)) {
                                *dd = a - b;
                            }
                            partial.iter_mut().for_each(|v| *v = 0.0);
                            lp_norm_grad(&diff, *p, gg, &mut partial);
                            for (dv, &pv) in d.row_mut(v).iter_mut().zip(&partial) {
                                *dv += pv;
                            }
                        }
                    }
                    Delta::One(*x, d)
                }
            }
        };
        match delta {
            Delta::None => {}
            Delta::One(a, d) => self.accumulate(a, d),
            Delta::Two(a, da, b, db) => {
                if let Some(da) = da {
                    self.accumulate(a, da);
                }
                if let Some(db) = db {
                    self.accumulate(b, db);
                }
            }
            Delta::Many(ds) => {
                for (id, d) in ds {
                    self.accumulate(id, d);
                }
            }
        }
    }
}

/// Softmax of one pattern row's stored entries, `out[k] = exp(x[k]) /
/// Σ exp(x[k'])` (max-stabilized). A row without an entry above `-∞`
/// (empty, or all `-∞`) is all zeros. The sum is divided by
/// unconditionally, so a row whose sum is NaN is all NaN.
fn edge_softmax_slice(x: &[f64], out: &mut [f64]) {
    let max = x.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
    if max == f64::NEG_INFINITY {
        out.fill(0.0);
        return;
    }
    let mut sum = 0.0;
    for (o, &v) in out.iter_mut().zip(x) {
        *o = (v - max).exp();
        sum += *o;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Start value of a sum over one pattern row's stored entries that equals,
/// bit for bit, the dense sum over the whole row with `+0.0` off the
/// pattern. `Iterator::sum` folds from `-0.0`, and the first off-pattern
/// `+0.0` turns a `-0.0` partial sum into `+0.0` for good (a sum is `-0.0`
/// only when both addends are), so the sum over stored entries starts at
/// `+0.0` when the row misses a column and at `-0.0` when it stores all
/// `cols`.
fn row_sum_start(stored: usize, cols: usize) -> f64 {
    if stored < cols {
        0.0
    } else {
        -0.0
    }
}

/// Numerically stable `log Σ exp`.
pub(crate) fn log_sum_exp(row: &[f64]) -> f64 {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    max + row.iter().map(|v| (v - max).exp()).sum::<f64>().ln()
}

/// Accumulates `scale * ∂‖v‖_p / ∂v` into `out`.
///
/// Subgradient conventions: at `v[j] = 0` the `p = 1` subgradient 0 is used;
/// a zero vector contributes nothing for any `p`.
fn lp_norm_grad(v: &[f64], p: f64, scale: f64, out: &mut [f64]) {
    if p == 1.0 {
        for (o, &x) in out.iter_mut().zip(v) {
            *o += scale * x.signum() * if x == 0.0 { 0.0 } else { 1.0 };
        }
    } else if p == 2.0 {
        let norm = bbgnn_linalg::dense::lp_norm(v, 2.0);
        if norm > 0.0 {
            for (o, &x) in out.iter_mut().zip(v) {
                *o += scale * x / norm;
            }
        }
    } else {
        let norm = bbgnn_linalg::dense::lp_norm(v, p);
        if norm > 0.0 {
            let k = norm.powf(1.0 - p);
            for (o, &x) in out.iter_mut().zip(v) {
                if x != 0.0 {
                    *o += scale * k * x.abs().powf(p - 1.0) * x.signum();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_chain_value() {
        let mut t = Tape::new();
        let a = t.var(&DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.var(&DenseMatrix::identity(2));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c), t.value(a));
    }

    #[test]
    fn backward_through_sum_of_matmul() {
        // f = sum(A @ B); df/dA = ones @ B^T, df/dB = A^T @ ones.
        let mut t = Tape::new();
        let av = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bv = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let a = t.var(&av);
        let b = t.var(&bv);
        let c = t.matmul(a, b);
        let s = t.sum_all(c);
        t.backward(s);
        let ones = DenseMatrix::filled(2, 2, 1.0);
        assert!(t.grad(a).unwrap().max_abs_diff(&ones.matmul_nt(&bv)) < 1e-12);
        assert!(t.grad(b).unwrap().max_abs_diff(&av.matmul_tn(&ones)) < 1e-12);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut t = Tape::new();
        let a = t.var(&DenseMatrix::filled(2, 2, 1.0));
        let c = t.constant(&DenseMatrix::filled(2, 2, 3.0));
        let h = t.hadamard(a, c);
        let s = t.sum_all(h);
        t.backward(s);
        assert!(t.grad(c).is_none());
        assert!(t.grad(a).is_some());
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_k() {
        let mut t = Tape::new();
        let logits = t.var(&DenseMatrix::zeros(3, 4));
        let loss = t.cross_entropy(logits, Rc::new(vec![0, 1, 2]), Rc::new(vec![0, 1, 2]));
        assert!((t.value(loss).get(0, 0) - 4.0_f64.ln()).abs() < 1e-12);
    }

    /// The pattern is the mask: `edge_softmax_rows` normalizes over a
    /// row's stored entries only, so the off-pattern 100 never competes.
    #[test]
    fn masked_softmax_ignores_masked_entries() {
        let mut t = Tape::new();
        let pattern = Rc::new(CsrMatrix::from_triplets(1, 3, [(0, 0, 1.0), (0, 2, 1.0)]));
        let d = t.var(&DenseMatrix::from_rows(&[&[1.0], &[100.0], &[1.0]]));
        let s = t.constant(&DenseMatrix::zeros(1, 1));
        let e = t.edge_add_outer(s, d, Rc::clone(&pattern));
        assert_eq!(t.value(e).as_slice(), &[1.0, 1.0], "only stored entries");
        let y = t.edge_softmax_rows(e, pattern);
        assert_eq!(t.value(y).as_slice(), &[0.5, 0.5]);
    }

    /// Rows of the edge softmax with nothing admissible — an empty pattern
    /// row (an all-masked row of the masked softmax) and a row of `-∞`
    /// logits: zero weights, a zero aggregate and a zero gradient, no NaN
    /// anywhere.
    #[test]
    fn masked_softmax_empty_mask_row_is_zero_with_zero_gradient() {
        let inf = f64::NEG_INFINITY;
        let mut t = Tape::new();
        let pattern = Rc::new(CsrMatrix::from_triplets(
            3,
            2,
            [(1, 0, 1.0), (1, 1, 1.0), (2, 0, 1.0), (2, 1, 1.0)],
        ));
        let x = t.var(&DenseMatrix::from_rows(&[&[2.0], &[3.0], &[inf], &[inf]]));
        let y = t.edge_softmax_rows(x, Rc::clone(&pattern));
        assert!((t.value(y).get(0, 0) + t.value(y).get(1, 0) - 1.0).abs() < 1e-12);
        assert_eq!(&t.value(y).as_slice()[2..], &[0.0, 0.0], "-∞ row");
        let b = t.constant(&DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let out = t.edge_spmm(y, &pattern, b);
        assert_eq!(t.value(out).row(0), &[0.0, 0.0], "empty row");
        assert_eq!(t.value(out).row(2), &[0.0, 0.0], "-∞ row");
        let s = t.sum_all(out);
        t.backward(s);
        let g = t.grad(x).unwrap();
        assert_eq!(&g.as_slice()[2..], &[0.0, 0.0], "-∞ row ⇒ zero gradient");
        for v in g.as_slice() {
            assert!(v.is_finite(), "gradient contains a non-finite value");
        }
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let mut t = Tape::new();
        let x = t.var(&DenseMatrix::uniform(3, 3, 1.0, 1));
        let y = t.dropout(x, 0.0, 0);
        assert_eq!(t.value(y), t.value(x));
    }

    #[test]
    fn dropout_scales_to_preserve_expectation() {
        let mut t = Tape::new();
        let x = t.var(&DenseMatrix::filled(100, 100, 1.0));
        let y = t.dropout(x, 0.5, 3);
        let mean = t.value(y).sum() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_twice_resets_gradients() {
        let mut t = Tape::new();
        let a = t.var(&DenseMatrix::filled(2, 2, 2.0));
        let s = t.sum_all(a);
        t.backward(s);
        t.backward(s);
        assert!(
            t.grad(a)
                .unwrap()
                .max_abs_diff(&DenseMatrix::filled(2, 2, 1.0))
                < 1e-12
        );
    }

    #[test]
    fn concat_cols_values() {
        let mut t = Tape::new();
        let a = t.var(&DenseMatrix::filled(2, 1, 1.0));
        let b = t.var(&DenseMatrix::filled(2, 2, 2.0));
        let c = t.concat_cols(&[a, b]);
        assert_eq!(t.shape(c), (2, 3));
        assert_eq!(t.value(c).row(0), &[1.0, 2.0, 2.0]);
    }
}
