//! Edge-op parity: the value and every input gradient of each edge-valued
//! attention op equal a plain-loop dense reference, bit for bit.
//!
//! The references are the dense masked-attention chain the edge ops
//! replaced: `y[i][j] = s[i] + d[j]` with whole-row `Iterator::sum` row sums
//! and `+0.0`-start column sums in its backward, the masked row softmax, and
//! the naive matmul loops with their `aik == 0` skip. Off the pattern the
//! dense upstream gradient of the outer sum is `+0.0`, as the masked softmax
//! leaves it.
//!
//! The inputs carry the special values the bit rules exist for: exact zeros
//! and `-0.0` in the incoming gradient, a row storing every column (the
//! `-0.0` start of a dense row sum), an empty row, a row whose maximum is
//! `-∞`, and `±inf`/NaN in `B` and in the gradient (the finite-operand
//! rule). As in `kernel_parity`, a NaN matching a NaN with another payload
//! is the only tolerated difference.

use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use std::rc::Rc;

const INF: f64 = f64::INFINITY;
const NAN: f64 = f64::NAN;

/// A 5 × 5 pattern: row 0 stores every column, row 1 has gaps, row 2 is
/// empty, rows 3 and 4 are partial. 12 stored entries.
fn pattern() -> Rc<CsrMatrix> {
    let rows: [&[usize]; 5] = [&[0, 1, 2, 3, 4], &[0, 2], &[], &[1, 3, 4], &[0, 4]];
    let triplets = rows
        .iter()
        .enumerate()
        .flat_map(|(i, cols)| cols.iter().map(move |&j| (i, j, 1.0)));
    Rc::new(CsrMatrix::from_triplets(5, 5, triplets))
}

/// Stored entries `(i, j)` of `p` in row-major order.
fn entries(p: &CsrMatrix) -> Vec<(usize, usize)> {
    (0..p.rows())
        .flat_map(|i| p.row_cols(i).iter().map(move |&j| (i, j)))
        .collect()
}

/// The dense matrix holding `values` on `p`'s entries and `off` elsewhere.
fn densify(p: &CsrMatrix, values: &[f64], off: f64) -> DenseMatrix {
    let mut m = DenseMatrix::filled(p.rows(), p.cols(), off);
    for (&(i, j), &v) in entries(p).iter().zip(values) {
        m.set(i, j, v);
    }
    m
}

/// `m`'s values on `p`'s entries, row-major.
fn gather(p: &CsrMatrix, m: &DenseMatrix) -> Vec<f64> {
    entries(p).iter().map(|&(i, j)| m.get(i, j)).collect()
}

fn column(values: &[f64]) -> DenseMatrix {
    DenseMatrix::from_vec(values.len(), 1, values.to_vec())
}

/// Backpropagates the upstream gradient `g` (the shape of `y`) through the
/// tape: `∂ Σ (y ∘ g) / ∂y = 1.0 · g`, which is `g` bit for bit.
fn backward_from(t: &mut Tape, y: TensorId, g: &DenseMatrix) {
    let gc = t.constant(g.clone());
    let w = t.hadamard(y, gc);
    let loss = t.sum_all(w);
    t.backward(loss);
}

fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: entry {k} is {g:e} ({:#x}), reference {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Upstream edge gradients: all `-0.0` (the zero-sign rules alone), then
/// mixes of exact zeros, `-0.0`, finite values, `±inf` and NaN.
fn edge_gradients() -> Vec<[f64; 12]> {
    vec![
        [-0.0; 12],
        [
            -0.0, 1.5, 0.0, -2.25, -0.0, -0.0, 3.0, 0.0, 0.5, -0.0, -1.0, 0.0,
        ],
        [
            -0.0, 1.5, 0.0, -2.25, INF, -0.0, -0.0, NAN, 0.5, -0.0, -INF, 0.0,
        ],
        [
            0.0, -0.0, 0.0, -0.0, 0.0, INF, -INF, -0.0, -0.0, -0.0, NAN, -0.0,
        ],
    ]
}

#[test]
fn edge_add_outer_matches_the_dense_outer_sum() {
    let p = pattern();
    let (n, m) = (p.rows(), p.cols());
    let s = [0.5, -1.25, 3.0, -0.0, INF];
    let d = [-0.5, 2.0, -0.0, 0.75, -INF];
    for (case, g_edge) in edge_gradients().iter().enumerate() {
        let mut t = Tape::new();
        let sv = t.var(column(&s));
        let dv = t.var(column(&d));
        let y = t.edge_add_outer(sv, dv, Rc::clone(&p));
        backward_from(&mut t, y, &column(g_edge));

        let y_ref = DenseMatrix::from_vec(
            n,
            m,
            (0..n)
                .flat_map(|i| d.iter().map(move |&dj| s[i] + dj))
                .collect(),
        );
        let g = densify(&p, g_edge, 0.0);
        let ds_ref: Vec<f64> = (0..n).map(|i| g.row(i).iter().sum::<f64>()).collect();
        let mut dd_ref = vec![0.0; m];
        for i in 0..n {
            for (acc, &v) in dd_ref.iter_mut().zip(g.row(i)) {
                *acc += v;
            }
        }
        let what = format!("case {case}");
        assert_same_bits(
            t.value(y).as_slice(),
            &gather(&p, &y_ref),
            &format!("{what}: value"),
        );
        assert_same_bits(
            t.grad(sv).unwrap().as_slice(),
            &ds_ref,
            &format!("{what}: ∂s"),
        );
        assert_same_bits(
            t.grad(dv).unwrap().as_slice(),
            &dd_ref,
            &format!("{what}: ∂d"),
        );
        if case == 0 {
            // The rule the edge op writes out: a dense row sum of `-0.0`s
            // is `-0.0` only when no off-pattern `+0.0` joins it.
            assert_eq!(ds_ref[0].to_bits(), (-0.0f64).to_bits(), "full row");
            assert_eq!(ds_ref[1].to_bits(), 0, "row with gaps");
            assert_eq!(ds_ref[2].to_bits(), 0, "empty row");
        }
    }
}

/// Edge logits per case: row 0 plain (with both zero signs), row 1 with a
/// `-∞` entry, row 3 all `-∞` (maximum `-∞`), row 4 with `+∞` (NaN sum);
/// the last case puts a NaN in row 1 (NaN sum) instead.
fn edge_logits() -> Vec<[f64; 12]> {
    let base = [
        0.3, -1.2, 2.0, 0.0, -0.0, -INF, 0.7, -INF, -INF, -INF, INF, 1.0,
    ];
    let mut nan_row = base;
    nan_row[5] = NAN;
    nan_row[10] = 4.0;
    vec![base, nan_row]
}

#[test]
fn edge_softmax_rows_matches_the_masked_softmax() {
    let p = pattern();
    let (n, m) = (p.rows(), p.cols());
    let mask = densify(&p, &[1.0; 12], 0.0);
    for (xc, x_edge) in edge_logits().iter().enumerate() {
        for (gc, g_edge) in edge_gradients().iter().enumerate() {
            let mut t = Tape::new();
            let x = t.var(column(x_edge));
            let y = t.edge_softmax_rows(x, Rc::clone(&p));
            backward_from(&mut t, y, &column(g_edge));

            // Dense masked softmax; off-pattern logits and upstream
            // gradients are garbage the mask must hide.
            let x_dense = densify(&p, x_edge, 100.0);
            let g = densify(&p, g_edge, NAN);
            let mut y_ref = DenseMatrix::zeros(n, m);
            let mut dx_ref = DenseMatrix::zeros(n, m);
            for i in 0..n {
                let (xr, mr) = (x_dense.row(i), mask.row(i));
                let mut max = f64::NEG_INFINITY;
                for (v, &mm) in xr.iter().zip(mr) {
                    if mm != 0.0 {
                        max = max.max(*v);
                    }
                }
                if max != f64::NEG_INFINITY {
                    let mut sum = 0.0;
                    for j in 0..m {
                        if mr[j] != 0.0 {
                            let e = (xr[j] - max).exp();
                            y_ref.set(i, j, e);
                            sum += e;
                        }
                    }
                    for j in 0..m {
                        y_ref.set(i, j, y_ref.get(i, j) / sum);
                    }
                }
                let (yr, gr) = (y_ref.row(i), g.row(i));
                let dot: f64 = (0..m)
                    .map(|j| if mr[j] != 0.0 { yr[j] * gr[j] } else { 0.0 })
                    .sum();
                for j in 0..m {
                    if mr[j] != 0.0 {
                        dx_ref.set(i, j, yr[j] * (gr[j] - dot));
                    }
                }
            }
            let what = format!("logits {xc}, gradient {gc}");
            assert_same_bits(
                t.value(y).as_slice(),
                &gather(&p, &y_ref),
                &format!("{what}: value"),
            );
            assert_same_bits(
                t.grad(x).unwrap().as_slice(),
                &gather(&p, &dx_ref),
                &format!("{what}: ∂x"),
            );
            // A NaN-sum row is all NaN in both forms; every other row is
            // zero off the pattern.
            for i in 0..n {
                let nan_row = y_ref.row(i).iter().any(|v| v.is_nan());
                for j in 0..m {
                    let v = y_ref.get(i, j);
                    assert!(
                        if nan_row {
                            v.is_nan()
                        } else {
                            mask.get(i, j) != 0.0 || v == 0.0
                        },
                        "{what}: dense ({i}, {j}) = {v}"
                    );
                }
            }
        }
    }
    let y_edge = {
        let mut t = Tape::new();
        let x = t.var(column(&edge_logits()[0]));
        let y = t.edge_softmax_rows(x, p);
        t.value(y).as_slice().to_vec()
    };
    assert!(
        y_edge[7..10].iter().all(|&v| v.to_bits() == 0),
        "row of -∞: zeros"
    );
    assert!(
        y_edge[10..12].iter().all(|v| v.is_nan()),
        "NaN-sum row: all NaN"
    );
}

/// `B` per case: finite with zeros and `-0.0`, then with `+inf` in a row
/// that a stored zero `α` reaches, then with `-inf` and NaN.
fn dense_operands() -> Vec<DenseMatrix> {
    let finite = DenseMatrix::from_rows(&[
        &[0.5, -1.0, 0.0],
        &[-0.0, 2.0, -3.5],
        &[1.25, 0.0, -0.0],
        &[-2.0, 0.75, 4.0],
        &[0.0, -0.5, 1.5],
    ]);
    let mut inf = finite.clone();
    inf.set(1, 1, INF);
    let mut nan = finite.clone();
    nan.set(1, 0, NAN);
    nan.set(4, 2, -INF);
    vec![finite, inf, nan]
}

#[test]
fn edge_spmm_matches_the_dense_product() {
    let p = pattern();
    let (n, m) = (p.rows(), p.cols());
    // Stored zeros of both signs, including `(0, 1)` and `(4, 4)` whose
    // `B` rows turn non-finite, so the zero-dropping rule decides.
    let alphas = [
        [
            0.2, 0.0, -0.0, 0.5, 0.3, 1.0, 0.0, 0.25, -0.0, 0.75, 0.5, -0.0,
        ],
        [
            0.2, 0.0, -0.0, 0.5, NAN, 1.0, 0.0, INF, -0.0, 0.75, 0.5, -0.0,
        ],
    ];
    let mut gradients: Vec<DenseMatrix> = dense_operands().iter().map(|g| g.map(|v| -v)).collect();
    // Signed zeros only: against `B`'s row 2 every product is `-0.0`, so
    // the `+0.0` start of the `α` gradient's dot decides its sign.
    gradients.push(DenseMatrix::from_vec(5, 3, [-0.0, -0.0, 0.0].repeat(5)));
    for (ac, alpha) in alphas.iter().enumerate() {
        for (bc, b) in dense_operands().iter().enumerate() {
            for (gc, g) in gradients.iter().enumerate() {
                let mut t = Tape::new();
                let av = t.var(column(alpha));
                let bv = t.var(b.clone());
                let y = t.edge_spmm(av, &p, bv);
                backward_from(&mut t, y, g);

                let a = densify(&p, alpha, 0.0);
                let w = b.cols();
                // `matmul_ref(a, b)`: ascending `k`, zero entries skipped.
                let mut y_ref = DenseMatrix::zeros(n, w);
                for i in 0..n {
                    for k in 0..m {
                        let aik = a.get(i, k);
                        if aik != 0.0 {
                            for j in 0..w {
                                y_ref.add_at(i, j, aik * b.get(k, j));
                            }
                        }
                    }
                }
                // `matmul_nt_ref(g, b)` at the stored entries: every
                // product, ascending, from `+0.0`.
                let da_ref: Vec<f64> = entries(&p)
                    .iter()
                    .map(|&(i, j)| {
                        let mut acc = 0.0;
                        for c in 0..w {
                            acc += g.get(i, c) * b.get(j, c);
                        }
                        acc
                    })
                    .collect();
                // `matmul_tn_ref(a, g)`: ascending `k`, zero entries skipped.
                let mut db_ref = DenseMatrix::zeros(m, w);
                for k in 0..n {
                    for i in 0..m {
                        let aki = a.get(k, i);
                        if aki != 0.0 {
                            for j in 0..w {
                                db_ref.add_at(i, j, aki * g.get(k, j));
                            }
                        }
                    }
                }
                let what = format!("α {ac}, B {bc}, gradient {gc}");
                assert_same_bits(
                    t.value(y).as_slice(),
                    y_ref.as_slice(),
                    &format!("{what}: value"),
                );
                assert_same_bits(
                    t.grad(av).unwrap().as_slice(),
                    &da_ref,
                    &format!("{what}: ∂α"),
                );
                assert_same_bits(
                    t.grad(bv).unwrap().as_slice(),
                    db_ref.as_slice(),
                    &format!("{what}: ∂B"),
                );
            }
        }
    }
}
