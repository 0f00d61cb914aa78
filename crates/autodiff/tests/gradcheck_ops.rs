//! Finite-difference gradient checks for every op on the tape.
//!
//! Each test exercises one op (or a realistic composition) and asserts the
//! analytic gradient matches central differences.

use bbgnn_autodiff::gradcheck::assert_gradients;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use std::rc::Rc;

const TOL: f64 = 1e-5;

fn m(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::uniform(rows, cols, 1.0, seed)
}

/// A CSR pattern with unit values on the nonzeros of `rows`.
fn pattern(rows: &[&[f64]]) -> Rc<CsrMatrix> {
    Rc::new(CsrMatrix::from_dense(&DenseMatrix::from_rows(rows), 0.0))
}

/// Strictly positive matrix (for ln / fractional powers).
fn m_pos(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::uniform(rows, cols, 1.0, seed).map(|x| x.abs() + 0.5)
}

#[test]
fn grad_matmul() {
    assert_gradients(&[m(3, 4, 1), m(4, 2, 2)], TOL, |t, ids| {
        let c = t.matmul(ids[0], ids[1]);
        t.sum_all(c)
    });
}

#[test]
fn grad_spmm() {
    let s = Rc::new(CsrMatrix::from_triplets(
        3,
        3,
        vec![(0, 1, 2.0), (1, 0, -1.0), (2, 2, 0.5)],
    ));
    assert_gradients(&[m(3, 4, 3)], TOL, move |t, ids| {
        let c = t.spmm(Rc::clone(&s), ids[0]);
        let sq = t.hadamard(c, c);
        t.sum_all(sq)
    });
}

#[test]
fn grad_add_sub_hadamard() {
    assert_gradients(&[m(3, 3, 4), m(3, 3, 5), m(3, 3, 6)], TOL, |t, ids| {
        let a = t.add(ids[0], ids[1]);
        let b = t.sub(a, ids[2]);
        let h = t.hadamard(b, ids[0]);
        t.sum_all(h)
    });
}

#[test]
fn grad_scalar_mul_and_consts() {
    let c = Rc::new(m(2, 3, 100));
    assert_gradients(&[m(2, 3, 7)], TOL, move |t, ids| {
        let a = t.scalar_mul(ids[0], -2.5);
        let b = t.add_const(a, Rc::clone(&c));
        let h = t.hadamard_const(b, Rc::clone(&c));
        t.sum_all(h)
    });
}

#[test]
fn grad_relu() {
    // Shift away from 0 to avoid the kink.
    let x = m(3, 3, 8).map(|v| v + if v >= 0.0 { 0.1 } else { -0.1 });
    assert_gradients(&[x], TOL, |t, ids| {
        let r = t.relu(ids[0]);
        let sq = t.hadamard(r, r);
        t.sum_all(sq)
    });
}

#[test]
fn grad_leaky_relu() {
    let x = m(3, 3, 9).map(|v| v + if v >= 0.0 { 0.1 } else { -0.1 });
    assert_gradients(&[x], TOL, |t, ids| {
        let r = t.leaky_relu(ids[0], 0.2);
        let sq = t.hadamard(r, r);
        t.sum_all(sq)
    });
}

#[test]
fn grad_sigmoid_exp_ln() {
    assert_gradients(&[m_pos(3, 3, 10)], TOL, |t, ids| {
        let s = t.sigmoid(ids[0]);
        let e = t.exp(s);
        let l = t.ln(e);
        t.sum_all(l)
    });
}

#[test]
fn grad_pow_scalar_fractional_and_negative() {
    assert_gradients(&[m_pos(3, 3, 11)], 1e-4, |t, ids| {
        let a = t.pow_scalar(ids[0], -0.5);
        let b = t.pow_scalar(ids[0], 1.5);
        let s = t.add(a, b);
        t.sum_all(s)
    });
}

#[test]
fn grad_row_sum_and_sum_all() {
    assert_gradients(&[m(4, 3, 13)], TOL, |t, ids| {
        let rs = t.row_sum(ids[0]);
        let sq = t.hadamard(rs, rs);
        t.sum_all(sq)
    });
}

#[test]
fn grad_scale_rows() {
    assert_gradients(&[m(4, 3, 14), m(4, 1, 15)], TOL, |t, ids| {
        let y = t.scale_rows(ids[0], ids[1]);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_scale_cols() {
    assert_gradients(&[m(4, 3, 16), m(3, 1, 17)], TOL, |t, ids| {
        let y = t.scale_cols(ids[0], ids[1]);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
}

/// The masked row softmax, on edge values over a CSR pattern (the mask).
#[test]
fn grad_masked_softmax_rows() {
    let mask = pattern(&[
        &[1.0, 0.0, 1.0, 1.0],
        &[0.0, 1.0, 1.0, 0.0],
        &[1.0, 1.0, 1.0, 1.0],
    ]);
    let nnz = mask.nnz();
    assert_gradients(&[m(nnz, 1, 20), m(nnz, 1, 21)], TOL, move |t, ids| {
        let y = t.edge_softmax_rows(ids[0], Rc::clone(&mask));
        let w = t.hadamard(y, ids[1]);
        t.sum_all(w)
    });
}

#[test]
fn grad_cross_entropy() {
    let labels = Rc::new(vec![0, 2, 1, 0]);
    let rows = Rc::new(vec![0, 1, 3]);
    assert_gradients(&[m(4, 3, 22)], TOL, move |t, ids| {
        t.cross_entropy(ids[0], Rc::clone(&labels), Rc::clone(&rows))
    });
}

/// The outer sum `s[i] + d[j]` on the entries of a pattern with a full
/// row, a row with gaps and an empty row.
#[test]
fn grad_add_outer() {
    let p = pattern(&[
        &[1.0, 1.0, 1.0, 1.0],
        &[0.0, 1.0, 0.0, 1.0],
        &[0.0, 0.0, 0.0, 0.0],
    ]);
    assert_gradients(&[m(3, 1, 23), m(4, 1, 24)], TOL, move |t, ids| {
        let y = t.edge_add_outer(ids[0], ids[1], Rc::clone(&p));
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
}

/// `S(α) B` with respect to both the edge values and the dense operand.
#[test]
fn grad_edge_spmm() {
    let p = pattern(&[
        &[1.0, 0.0, 1.0],
        &[0.0, 0.0, 0.0],
        &[1.0, 1.0, 1.0],
        &[0.0, 1.0, 0.0],
    ]);
    let nnz = p.nnz();
    assert_gradients(&[m(nnz, 1, 46), m(3, 2, 47)], TOL, move |t, ids| {
        let y = t.edge_spmm(ids[0], &p, ids[1]);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_concat_cols() {
    assert_gradients(&[m(3, 2, 25), m(3, 3, 26)], TOL, |t, ids| {
        let y = t.concat_cols(&[ids[0], ids[1]]);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
}

#[test]
fn grad_row_lp_norm_sum() {
    for &p in &[1.0, 2.0, 3.0] {
        // Keep entries away from zero where the norm is non-smooth.
        let x = m(4, 3, 29).map(|v| v + 0.3 * v.signum() + if v == 0.0 { 0.3 } else { 0.0 });
        assert_gradients(&[x], 1e-4, move |t, ids| t.row_lp_norm_sum(ids[0], p));
    }
}

#[test]
fn grad_neighbor_lp_norm_sum() {
    let adj = Rc::new(CsrMatrix::from_triplets(
        4,
        4,
        vec![
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (3, 0, 1.0),
            (0, 3, 1.0),
        ],
    ));
    let c = Rc::new(m(4, 3, 30));
    for &p in &[1.0, 2.0, 3.0] {
        let adj = Rc::clone(&adj);
        let c = Rc::clone(&c);
        // Offset so x[v] - c[u] has no zero coordinates.
        let x = m(4, 3, 31).map(|v| v + 5.0);
        assert_gradients(&[x], 1e-4, move |t, ids| {
            t.neighbor_lp_norm_sum(ids[0], Rc::clone(&adj), Rc::clone(&c), p)
        });
    }
}

#[test]
fn grad_dropout_with_fixed_mask() {
    // Dropout uses an internally generated mask keyed by seed; with the same
    // seed the mask is identical across probes, so finite differences are
    // valid.
    assert_gradients(&[m(4, 4, 32)], TOL, |t, ids| {
        let y = t.dropout(ids[0], 0.4, 99);
        let sq = t.hadamard(y, y);
        t.sum_all(sq)
    });
}

/// End-to-end composite: differentiate a 2-layer GCN-style forward pass with
/// respect to a *dense adjacency variable* through the normalization chain —
/// exactly the gradient PEEGA and Metattack rely on.
#[test]
fn grad_through_gcn_normalization_chain() {
    let a_sym = {
        let mut a = DenseMatrix::zeros(4, 4);
        for &(i, j) in &[(0usize, 1usize), (1, 2), (2, 3), (0, 3)] {
            a.set(i, j, 1.0);
            a.set(j, i, 1.0);
        }
        a
    };
    let x_feat = m_pos(4, 3, 33);
    let labels = Rc::new(vec![0, 1, 0, 1]);
    let rows = Rc::new(vec![0, 1, 2, 3]);
    let w = m(3, 2, 34);
    assert_gradients(&[a_sym, x_feat.clone(), w.clone()], 1e-4, move |t, ids| {
        let a = ids[0];
        let eye = Rc::new(DenseMatrix::identity(4));
        let a_hat = t.add_const(a, eye);
        let deg = t.row_sum(a_hat);
        let dinv = t.pow_scalar(deg, -0.5);
        let an_rows = t.scale_rows(a_hat, dinv);
        let an = t.scale_cols(an_rows, dinv);
        let an2 = t.matmul(an, an);
        let ax = t.matmul(an2, ids[1]);
        let logits = t.matmul(ax, ids[2]);
        t.cross_entropy(logits, Rc::clone(&labels), Rc::clone(&rows))
    });
}

/// End-to-end composite: the GAT attention path — edge outer sum,
/// leaky-relu, edge row softmax, and aggregation — differentiated with
/// respect to the head weights, exactly as `bbgnn_gnn::gat` builds it.
#[test]
fn grad_through_gat_attention_path() {
    let mask = pattern(&[
        &[1.0, 1.0, 0.0, 1.0],
        &[1.0, 1.0, 1.0, 0.0],
        &[0.0, 1.0, 1.0, 0.0],
        &[1.0, 0.0, 0.0, 1.0],
    ]);
    let x = Rc::new(m(4, 3, 40));
    let labels = Rc::new(vec![0, 1, 0, 1]);
    let rows = Rc::new(vec![0, 1, 2, 3]);
    // Inputs: W (3x2), a_src (2x1), a_dst (2x1).
    assert_gradients(
        &[m(3, 2, 41), m(2, 1, 42), m(2, 1, 43)],
        1e-4,
        move |t, ids| {
            let xc = t.constant((*x).clone());
            let hw = t.matmul(xc, ids[0]);
            let src = t.matmul(hw, ids[1]);
            let dst = t.matmul(hw, ids[2]);
            let e = t.edge_add_outer(src, dst, Rc::clone(&mask));
            let e = t.leaky_relu(e, 0.2);
            let alpha = t.edge_softmax_rows(e, Rc::clone(&mask));
            let out = t.edge_spmm(alpha, &mask, hw);
            t.cross_entropy(out, Rc::clone(&labels), Rc::clone(&rows))
        },
    );
}

/// End-to-end composite: PEEGA's full Def. 3 objective — normalization
/// chain, two-hop propagation, self-view and global-view norms — with
/// respect to BOTH the dense adjacency and the features.
#[test]
fn grad_through_peega_objective() {
    let n = 5;
    let mut a_sym = DenseMatrix::zeros(n, n);
    for &(i, j) in &[(0usize, 1usize), (1, 2), (2, 3), (3, 4), (0, 4)] {
        a_sym.set(i, j, 1.0);
        a_sym.set(j, i, 1.0);
    }
    let adj = Rc::new(CsrMatrix::from_dense(&a_sym, 0.5));
    let clean_prop = Rc::new(m(n, 3, 44).map(|v| v + 3.0));
    let x_feat = m_pos(n, 3, 45);
    assert_gradients(&[a_sym, x_feat], 1e-4, move |t, ids| {
        let eye = Rc::new(DenseMatrix::identity(n));
        let a_loop = t.add_const(ids[0], Rc::clone(&eye));
        let deg = t.row_sum(a_loop);
        let dinv = t.pow_scalar(deg, -0.5);
        let sr = t.scale_rows(a_loop, dinv);
        let an = t.scale_cols(sr, dinv);
        let h1 = t.matmul(an, ids[1]);
        let h = t.matmul(an, h1);
        let diff = t.sub_const(h, &clean_prop);
        let self_view = t.row_lp_norm_sum(diff, 2.0);
        let global = t.neighbor_lp_norm_sum(h, Rc::clone(&adj), Rc::clone(&clean_prop), 2.0);
        let weighted = t.scalar_mul(global, 0.05);
        t.add(self_view, weighted)
    });
}
