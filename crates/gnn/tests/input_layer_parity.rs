//! Parity of the sparse input layer: the dense first-layer chain
//! `constant(X) → dropout → matmul(·, W₀)` and the sparse one
//! `dropout_csr(X) → spmm(·, W₀)` that every GCN-family model now runs
//! give the same bits, forward and in `∂W₀`, on real and edge-case
//! features, zero signs, non-finite weights and gradients, with and
//! without dropout. CI runs this under 1 and 4 kernel threads.

use bbgnn_autodiff::{dropout_csr, Tape};
use bbgnn_gnn::gcn::sparse_input;
use bbgnn_graph::datasets::DatasetSpec;
use bbgnn_linalg::DenseMatrix;
use std::rc::Rc;

/// Hidden width of every paper GCN-family first layer.
const HIDDEN: usize = 16;

/// `(X·W₀, ∂(Σ G ∘ X·W₀)/∂W₀)` of the dense chain; the upstream gradient
/// reaching the product is `G` bit for bit (`1 · g`).
fn dense_chain(
    x: &DenseMatrix,
    w0: &DenseMatrix,
    g: &DenseMatrix,
    drop: Option<(f64, u64)>,
) -> (DenseMatrix, DenseMatrix) {
    let mut tape = Tape::new();
    let w = tape.var(w0.clone());
    let mut h = tape.constant(x.clone());
    if let Some((p, seed)) = drop {
        h = tape.dropout(h, p, seed);
    }
    let hw = tape.matmul(h, w);
    backward(tape, hw, w, g)
}

/// The same as [`dense_chain`] through the sparse input.
fn sparse_chain(
    x: &DenseMatrix,
    w0: &DenseMatrix,
    g: &DenseMatrix,
    drop: Option<(f64, u64)>,
) -> (DenseMatrix, DenseMatrix) {
    let mut tape = Tape::new();
    let w = tape.var(w0.clone());
    let xs = sparse_input(x);
    let xs = match drop {
        Some((p, seed)) => Rc::new(dropout_csr(&xs, p, seed)),
        None => xs,
    };
    let hw = tape.spmm(xs, w);
    backward(tape, hw, w, g)
}

fn backward(
    mut tape: Tape,
    hw: bbgnn_autodiff::TensorId,
    w: bbgnn_autodiff::TensorId,
    g: &DenseMatrix,
) -> (DenseMatrix, DenseMatrix) {
    let value = tape.value(hw).clone();
    let weighted = tape.hadamard_const(hw, Rc::new(g.clone()));
    let loss = tape.sum_all(weighted);
    tape.backward(loss);
    (value, tape.grad(w).expect("W₀ is a variable").clone())
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts both chains agree bit for bit without dropout and with
/// dropout at 0.5 and 0.9.
fn assert_parity(case: &str, x: &DenseMatrix, w0: &DenseMatrix, g: &DenseMatrix) {
    for drop in [None, Some((0.5, 11)), Some((0.9, 12))] {
        let (dv, dg) = dense_chain(x, w0, g, drop);
        let (sv, sg) = sparse_chain(x, w0, g, drop);
        assert_eq!(bits(&dv), bits(&sv), "{case}, dropout {drop:?}: X·W₀");
        assert_eq!(bits(&dg), bits(&sg), "{case}, dropout {drop:?}: ∂W₀");
    }
}

fn weights_and_gradient(x: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    (
        DenseMatrix::glorot(x.cols(), HIDDEN, 3),
        DenseMatrix::uniform(x.rows(), HIDDEN, 1.0, 4),
    )
}

/// The benchmark cell's features: cora-like at scale 0.12.
fn cora_like() -> DenseMatrix {
    DatasetSpec::CoraLike.generate(0.12, 7).features
}

/// A column of `x` with stored and zero entries, and one of its rows
/// that stores it: the entries a non-finite `W₀` or `G` meets.
fn mixed_column(x: &DenseMatrix) -> (usize, usize) {
    (0..x.cols())
        .find_map(|k| {
            let rows: Vec<usize> = (0..x.rows()).filter(|&i| x.get(i, k) != 0.0).collect();
            (!rows.is_empty() && rows.len() < x.rows()).then(|| (k, rows[0]))
        })
        .expect("a column with zeros and nonzeros")
}

#[test]
fn cora_like_features() {
    let x = cora_like();
    let (w0, g) = weights_and_gradient(&x);
    assert_parity("cora-like 0.12", &x, &w0, &g);
}

/// Cora's own shape and density (2708 × 1433, 1.3 % binary), large
/// enough for the forward products to run on several threads.
#[test]
fn cora_shaped_features() {
    let (n, d) = (2708, 1433);
    let mut x = DenseMatrix::zeros(n, d);
    for i in 0..n {
        for j in 0..d {
            if (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) % 77 == 0 {
                x.set(i, j, 1.0);
            }
        }
    }
    let (w0, g) = weights_and_gradient(&x);
    assert_parity("cora-shaped", &x, &w0, &g);
}

#[test]
fn identity_features() {
    let x = DenseMatrix::identity(150);
    let (w0, g) = weights_and_gradient(&x);
    assert_parity("identity", &x, &w0, &g);
}

#[test]
fn zero_row_and_negative_zero() {
    let mut x = cora_like();
    for j in 0..x.cols() {
        x.set(5, j, 0.0);
    }
    let (k, i) = mixed_column(&x);
    x.set(i, k, -0.0);
    x.set(9, 0, -0.0);
    let (w0, mut g) = weights_and_gradient(&x);
    // Gradient entries of zero sign reach `∂W₀` through the stored -0.0.
    g.set(i, 0, -0.0);
    assert_parity("zero row, -0.0", &x, &w0, &g);
}

#[test]
fn non_finite_weights() {
    let x = cora_like();
    let (mut w0, g) = weights_and_gradient(&x);
    let (k, _) = mixed_column(&x);
    w0.set(k, 0, f64::NAN);
    w0.set(k, 3, f64::INFINITY);
    w0.set((k + 1) % x.cols(), 7, f64::INFINITY);
    assert_parity("NaN and +inf in W₀", &x, &w0, &g);
}

#[test]
fn non_finite_upstream_gradient() {
    let x = cora_like();
    let (w0, mut g) = weights_and_gradient(&x);
    let (_, i) = mixed_column(&x);
    g.set(i, 2, f64::NAN);
    g.set((i + 1) % x.rows(), 9, f64::NAN);
    assert_parity("NaN in G", &x, &w0, &g);
}

/// Non-finite features are stored, not dropped: a NaN entry, and an
/// infinite one that dropout may turn into `inf · 0 = NaN`.
#[test]
fn non_finite_features() {
    let mut x = cora_like();
    x.set(3, 0, f64::NAN);
    x.set(4, 1, f64::INFINITY);
    let (w0, g) = weights_and_gradient(&x);
    assert_parity("NaN and +inf in X", &x, &w0, &g);
}

/// `Tape::dropout`'s mask for a fixed shape, `p` and seed (the value of
/// dropout on all-ones), recorded before the mask stream moved into the
/// definition `dropout_csr` shares: the shared stream still draws it.
#[test]
fn dense_dropout_mask_is_pinned() {
    let pins = [
        (0.5, 42, 0xcfe3_793a_d4d6_dcc2_u64),
        (0.9, 7, 0xb00b_06f8_3324_0627),
    ];
    for (p, seed, want) in pins {
        let mut tape = Tape::new();
        let ones = tape.var(DenseMatrix::filled(37, 23, 1.0));
        let masked = tape.dropout(ones, p, seed);
        let got = tape.value(masked).content_hash();
        assert_eq!(got, want, "p {p} seed {seed}: mask hash {got:016x}");
    }
}
