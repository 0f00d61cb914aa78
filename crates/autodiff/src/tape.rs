//! The autodiff tape: node storage, forward constructors, and the backward
//! pass.
//!
//! Every tape carries an [`ExecContext`] (shared via `Rc` across the tapes
//! of a training run): matrix products run on the context's blocked
//! multi-threaded kernels, and all forward values, backward deltas, and
//! gradient buffers are drawn from — and on `Drop` returned to — the
//! context's workspace arena. From the second epoch of a training loop
//! onward the tape performs essentially no heap allocation.

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
    /// Matrix transpose.
    Transpose(TensorId),
    /// Row sums as an `n × 1` column.
    RowSum(TensorId),
    /// Sum of all entries as a `1 × 1` scalar tensor.
    SumAll(TensorId),
    /// `y[i][j] = x[i][j] * s[i]`, `s` an `n × 1` tensor.
    ScaleRows(TensorId, TensorId),
    /// `y[i][j] = x[i][j] * s[j]`, `s` an `m × 1` tensor (`m = cols`).
    ScaleCols(TensorId, TensorId),
    /// Row-wise softmax.
    SoftmaxRows(TensorId),
    /// Row-wise softmax over entries where `mask != 0`; other entries are 0.
    MaskedSoftmaxRows(TensorId, Rc<DenseMatrix>),
    /// Mean softmax cross-entropy of `logits` rows listed in `rows` against
    /// `labels` (full-length label vector).
    CrossEntropy(TensorId, Rc<Vec<usize>>, Rc<Vec<usize>>),
    /// `x ∘ mask` where the keep-probability scaling is baked into `mask`.
    Dropout(TensorId, Rc<DenseMatrix>),
    /// `y[i][j] = s[i] + d[j]` from column tensors `s` (r×1), `d` (c×1).
    AddOuter(TensorId, TensorId),
    /// Horizontal concatenation.
    ConcatCols(Vec<TensorId>),
    /// Scalar `Σ_i ‖x[i,:]‖_p`.
    RowLpNormSum(TensorId, f64),
    /// Scalar `Σ_{(v,u) ∈ E} ‖x[v,:] − C[u,:]‖_p` over the edges of a
    /// constant adjacency.
    NeighborLpNormSum(TensorId, Rc<CsrMatrix>, Rc<DenseMatrix>, f64),
    /// `y[i][j] = x[i][j] + b[0][j]` with a `1 × c` bias tensor.
    AddBias(TensorId, TensorId),
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
    /// Returns every node value and gradient buffer to the context's
    /// workspace so the next tape on the same context reuses them.
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
    /// from `BBGNN_THREADS`). Loops building many tapes should share one
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
            | Op::AddOuter(a, b)
            | Op::AddBias(a, b) => self.is_const(*a) && self.is_const(*b),
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
            | Op::Transpose(a)
            | Op::RowSum(a)
            | Op::SumAll(a)
            | Op::SoftmaxRows(a)
            | Op::MaskedSoftmaxRows(a, _)
            | Op::CrossEntropy(a, _, _)
            | Op::Dropout(a, _)
            | Op::RowLpNormSum(a, _)
            | Op::NeighborLpNormSum(a, _, _, _) => self.is_const(*a),
            Op::ConcatCols(parts) => parts.iter().all(|&p| self.is_const(p)),
        }
    }

    /// Registers a differentiable leaf (a model parameter or an attack
    /// variable).
    pub fn var(&mut self, value: DenseMatrix) -> TensorId {
        self.push_node(Op::Leaf, value, false)
    }

    /// Registers a non-differentiable leaf. Every op computed only from
    /// constants is itself constant (see the crate docs).
    pub fn constant(&mut self, value: DenseMatrix) -> TensorId {
        self.push_node(Op::Leaf, value, true)
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

    /// Transpose.
    pub fn transpose(&mut self, a: TensorId) -> TensorId {
        let v = self.nodes[a.0].value.transpose();
        self.push(Op::Transpose(a), v)
    }

    /// Row sums as an `n × 1` tensor.
    pub fn row_sum(&mut self, a: TensorId) -> TensorId {
        let sums = self.nodes[a.0].value.row_sums();
        let n = sums.len();
        self.push(Op::RowSum(a), DenseMatrix::from_vec(n, 1, sums))
    }

    /// Sum of all entries as a `1 × 1` tensor.
    pub fn sum_all(&mut self, a: TensorId) -> TensorId {
        let s = self.nodes[a.0].value.sum();
        self.push(Op::SumAll(a), DenseMatrix::from_vec(1, 1, vec![s]))
    }

    /// `y[i][j] = x[i][j] * s[i]`, with `s` an `n × 1` tensor.
    pub fn scale_rows(&mut self, x: TensorId, s: TensorId) -> TensorId {
        let scales: Vec<f64> = self.nodes[s.0].value.as_slice().to_vec();
        let v = self.nodes[x.0].value.scale_rows(&scales);
        self.push(Op::ScaleRows(x, s), v)
    }

    /// `y[i][j] = x[i][j] * s[j]`, with `s` an `m × 1` tensor.
    pub fn scale_cols(&mut self, x: TensorId, s: TensorId) -> TensorId {
        let scales: Vec<f64> = self.nodes[s.0].value.as_slice().to_vec();
        let v = self.nodes[x.0].value.scale_cols(&scales);
        self.push(Op::ScaleCols(x, s), v)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: TensorId) -> TensorId {
        let mut v = self.ctx.alloc_copy(&self.nodes[a.0].value);
        for i in 0..v.rows() {
            softmax_slice(v.row_mut(i));
        }
        self.push(Op::SoftmaxRows(a), v)
    }

    /// Row-wise softmax over entries where `mask != 0`; all-masked rows
    /// yield zero rows.
    pub fn masked_softmax_rows(&mut self, a: TensorId, mask: Rc<DenseMatrix>) -> TensorId {
        let (r, c) = self.nodes[a.0].value.shape();
        assert_eq!((r, c), mask.shape(), "mask shape mismatch");
        let mut v = self.ctx.alloc_zeroed(r, c);
        let x = &self.nodes[a.0].value;
        for i in 0..r {
            masked_softmax_slice(x.row(i), mask.row(i), v.row_mut(i));
        }
        self.push(Op::MaskedSoftmaxRows(a, mask), v)
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
        self.push(
            Op::CrossEntropy(logits, labels, rows),
            DenseMatrix::from_vec(1, 1, vec![loss]),
        )
    }

    /// Inverted dropout with keep-scaling baked into the generated mask.
    /// `p` is the drop probability; training determinism comes from `seed`.
    pub fn dropout(&mut self, a: TensorId, p: f64, seed: u64) -> TensorId {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        let (r, c) = self.shape(a);
        let mask = if p == 0.0 {
            DenseMatrix::filled(r, c, 1.0)
        } else {
            let u = DenseMatrix::uniform(r, c, 1.0, seed); // U(-1, 1)
            let keep = 1.0 - p;
            let scale = 1.0 / keep;
            // Map U(-1,1) -> keep with probability `keep`.
            u.map(|x| if (x + 1.0) / 2.0 < keep { scale } else { 0.0 })
        };
        let mask = Rc::new(mask);
        let v = self.ctx.binary(&self.nodes[a.0].value, &mask, |x, y| x * y);
        self.push(Op::Dropout(a, mask), v)
    }

    /// `y[i][j] = s[i] + d[j]` from column tensors `s` (r×1) and `d` (c×1).
    pub fn add_outer(&mut self, s: TensorId, d: TensorId) -> TensorId {
        let sv = &self.nodes[s.0].value;
        let dv = &self.nodes[d.0].value;
        assert_eq!(sv.cols(), 1, "add_outer: s must be a column");
        assert_eq!(dv.cols(), 1, "add_outer: d must be a column");
        let (r, c) = (sv.rows(), dv.rows());
        let mut v = DenseMatrix::zeros(r, c);
        for i in 0..r {
            let si = sv.get(i, 0);
            for j in 0..c {
                v.set(i, j, si + dv.get(j, 0));
            }
        }
        self.push(Op::AddOuter(s, d), v)
    }

    /// Horizontal concatenation `[a₀ | a₁ | …]`.
    pub fn concat_cols(&mut self, parts: &[TensorId]) -> TensorId {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = self.shape(parts[0]).0;
        let total: usize = parts.iter().map(|&p| self.shape(p).1).sum();
        let mut v = DenseMatrix::zeros(rows, total);
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
        self.push(Op::RowLpNormSum(x, p), DenseMatrix::from_vec(1, 1, vec![s]))
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
        self.push(
            Op::NeighborLpNormSum(x, adj, c, p),
            DenseMatrix::from_vec(1, 1, vec![s]),
        )
    }

    /// Broadcast-add of a `1 × c` bias row to every row of `x`.
    pub fn add_bias(&mut self, x: TensorId, b: TensorId) -> TensorId {
        let xv = &self.nodes[x.0].value;
        let bv = &self.nodes[b.0].value;
        assert_eq!(bv.rows(), 1, "add_bias: bias must be 1 × c");
        assert_eq!(bv.cols(), xv.cols(), "add_bias: width mismatch");
        let mut v = self.ctx.alloc_copy(xv);
        for i in 0..v.rows() {
            for (o, &bb) in v.row_mut(i).iter_mut().zip(bv.row(0)) {
                *o += bb;
            }
        }
        self.push(Op::AddBias(x, b), v)
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
        self.grads[output.0] = Some(DenseMatrix::from_vec(1, 1, vec![1.0]));
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
                Op::Transpose(a) => Delta::One(*a, g.transpose()),
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
                Op::SoftmaxRows(a) => {
                    let y = &node.value;
                    let mut d = ctx.alloc_zeroed(y.rows(), y.cols());
                    for i in 0..y.rows() {
                        let yr = y.row(i);
                        let gr = g.row(i);
                        let dot: f64 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
                        for (j, dv) in d.row_mut(i).iter_mut().enumerate() {
                            *dv = yr[j] * (gr[j] - dot);
                        }
                    }
                    Delta::One(*a, d)
                }
                Op::MaskedSoftmaxRows(a, mask) => {
                    let y = &node.value;
                    let mut d = ctx.alloc_zeroed(y.rows(), y.cols());
                    for i in 0..y.rows() {
                        let yr = y.row(i);
                        let gr = g.row(i);
                        let mr = mask.row(i);
                        let dot: f64 = yr
                            .iter()
                            .zip(gr.iter().zip(mr))
                            .map(|(&yy, (&gg, &mm))| if mm != 0.0 { yy * gg } else { 0.0 })
                            .sum();
                        for (j, dv) in d.row_mut(i).iter_mut().enumerate() {
                            if mr[j] != 0.0 {
                                *dv = yr[j] * (gr[j] - dot);
                            }
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
                Op::AddOuter(s, d) => Delta::Two(
                    *s,
                    live(s).then(|| {
                        let rs = g.row_sums();
                        DenseMatrix::from_vec(rs.len(), 1, rs)
                    }),
                    *d,
                    live(d).then(|| {
                        let cs = g.col_sums();
                        DenseMatrix::from_vec(cs.len(), 1, cs)
                    }),
                ),
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
                Op::AddBias(x, b) => Delta::Two(
                    *x,
                    live(x).then(|| ctx.alloc_copy(g)),
                    *b,
                    live(b).then(|| {
                        let cs = g.col_sums();
                        DenseMatrix::from_vec(1, cs.len(), cs)
                    }),
                ),
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

/// In-place softmax of a slice (numerically stabilized).
///
/// A row of all `-∞` (no admissible entry) produces an **all-zero row**,
/// uniform with [`masked_softmax_slice`]'s all-masked convention — not NaN,
/// which `exp(-∞ − -∞)` would otherwise yield. The zero row also backprops
/// a zero (not NaN) gradient, since the softmax Jacobian vanishes with the
/// outputs.
fn softmax_slice(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max == f64::NEG_INFINITY {
        row.iter_mut().for_each(|v| *v = 0.0);
        return;
    }
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Masked softmax: `out[j] = exp(x[j]) / Σ_{mask} exp(x[k])` on masked
/// entries, 0 elsewhere. All-masked rows produce all zeros.
fn masked_softmax_slice(x: &[f64], mask: &[f64], out: &mut [f64]) {
    let mut max = f64::NEG_INFINITY;
    for (v, &m) in x.iter().zip(mask) {
        if m != 0.0 {
            max = max.max(*v);
        }
    }
    if max == f64::NEG_INFINITY {
        out.iter_mut().for_each(|o| *o = 0.0);
        return;
    }
    let mut sum = 0.0;
    for ((o, &v), &m) in out.iter_mut().zip(x).zip(mask) {
        if m != 0.0 {
            *o = (v - max).exp();
            sum += *o;
        } else {
            *o = 0.0;
        }
    }
    for o in out.iter_mut() {
        *o /= sum;
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
        let a = t.var(DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.var(DenseMatrix::identity(2));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c), t.value(a));
    }

    #[test]
    fn backward_through_sum_of_matmul() {
        // f = sum(A @ B); df/dA = ones @ B^T, df/dB = A^T @ ones.
        let mut t = Tape::new();
        let av = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let bv = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let a = t.var(av.clone());
        let b = t.var(bv.clone());
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
        let a = t.var(DenseMatrix::filled(2, 2, 1.0));
        let c = t.constant(DenseMatrix::filled(2, 2, 3.0));
        let h = t.hadamard(a, c);
        let s = t.sum_all(h);
        t.backward(s);
        assert!(t.grad(c).is_none());
        assert!(t.grad(a).is_some());
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_k() {
        let mut t = Tape::new();
        let logits = t.var(DenseMatrix::zeros(3, 4));
        let loss = t.cross_entropy(logits, Rc::new(vec![0, 1, 2]), Rc::new(vec![0, 1, 2]));
        assert!((t.value(loss).get(0, 0) - 4.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let x = t.var(DenseMatrix::uniform(4, 5, 3.0, 8));
        let y = t.softmax_rows(x);
        for s in t.value(y).row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn masked_softmax_ignores_masked_entries() {
        let mut t = Tape::new();
        let x = t.var(DenseMatrix::from_rows(&[&[1.0, 100.0, 1.0]]));
        let mask = Rc::new(DenseMatrix::from_rows(&[&[1.0, 0.0, 1.0]]));
        let y = t.masked_softmax_rows(x, mask);
        assert_eq!(t.value(y).get(0, 1), 0.0);
        assert!((t.value(y).get(0, 0) - 0.5).abs() < 1e-12);
    }

    /// A row of all `-∞` logits (every entry inadmissible) must yield an
    /// all-zero softmax row — uniform with the masked variant — and a
    /// zero (not NaN) gradient through backward.
    #[test]
    fn softmax_all_neg_inf_row_is_zero_with_zero_gradient() {
        let inf = f64::NEG_INFINITY;
        let mut t = Tape::new();
        let x = t.var(DenseMatrix::from_rows(&[
            &[inf, inf, inf],
            &[0.0, 0.0, inf],
        ]));
        let y = t.softmax_rows(x);
        assert_eq!(t.value(y).row(0), &[0.0, 0.0, 0.0], "degenerate row");
        assert!((t.value(y).get(1, 0) - 0.5).abs() < 1e-12, "healthy row");
        assert_eq!(t.value(y).get(1, 2), 0.0, "-inf entry in a finite row");
        let s = t.sum_all(y);
        t.backward(s);
        let g = t.grad(x).unwrap();
        for j in 0..3 {
            assert_eq!(g.get(0, j), 0.0, "zero row ⇒ zero gradient, not NaN");
        }
    }

    /// All-masked (empty-mask) rows of the masked softmax: zero row and
    /// zero backprop gradient, no NaN anywhere.
    #[test]
    fn masked_softmax_empty_mask_row_is_zero_with_zero_gradient() {
        let mut t = Tape::new();
        let x = t.var(DenseMatrix::from_rows(&[&[5.0, 1.0], &[2.0, 3.0]]));
        let mask = Rc::new(DenseMatrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0]]));
        let y = t.masked_softmax_rows(x, mask);
        assert_eq!(t.value(y).row(0), &[0.0, 0.0]);
        let row1_sum: f64 = t.value(y).row(1).iter().sum();
        assert!((row1_sum - 1.0).abs() < 1e-12);
        let s = t.sum_all(y);
        t.backward(s);
        let g = t.grad(x).unwrap();
        assert_eq!(g.row(0), &[0.0, 0.0], "empty-mask row ⇒ zero gradient");
        for v in g.as_slice() {
            assert!(v.is_finite(), "gradient contains a non-finite value");
        }
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let mut t = Tape::new();
        let x = t.var(DenseMatrix::uniform(3, 3, 1.0, 1));
        let y = t.dropout(x, 0.0, 0);
        assert_eq!(t.value(y), t.value(x));
    }

    #[test]
    fn dropout_scales_to_preserve_expectation() {
        let mut t = Tape::new();
        let x = t.var(DenseMatrix::filled(100, 100, 1.0));
        let y = t.dropout(x, 0.5, 3);
        let mean = t.value(y).sum() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn backward_twice_resets_gradients() {
        let mut t = Tape::new();
        let a = t.var(DenseMatrix::filled(2, 2, 2.0));
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
        let a = t.var(DenseMatrix::filled(2, 1, 1.0));
        let b = t.var(DenseMatrix::filled(2, 2, 2.0));
        let c = t.concat_cols(&[a, b]);
        assert_eq!(t.shape(c), (2, 3));
        assert_eq!(t.value(c).row(0), &[1.0, 2.0, 2.0]);
    }
}
