//! Bit parity of the anti-diagonal Jacobi SVD with the cyclic reference.
//!
//! `try_jacobi_svd` visits column pairs by anti-diagonal and carries up to
//! eight of them in vector lanes; `jacobi_svd_ref` is the plain
//! cyclic-by-rows loop. Every pair meets the same two columns in both
//! orders, so `U`, `Σ` and `V` must agree bit for bit. The shapes reach
//! every lane path: full eight-pair groups, a four-pair group and single
//! pairs, row counts that are and are not multiples of four, wide inputs
//! (solved through their transpose) and a single column. CI runs this
//! under 1 and 4 kernel threads beside the kernel parity suite.

use bbgnn_linalg::kernels::jacobi_gram;
use bbgnn_linalg::svd::{jacobi_svd_ref, try_jacobi_svd, try_singular_value_shrink, Svd};
use bbgnn_linalg::DenseMatrix;

/// Shapes from Pro-GNN's prox (298×298), GCN-SVD's sketch (23×298 and its
/// transpose) down to the smallest pair counts.
const SHAPES: [(usize, usize); 9] = [
    (298, 298),
    (298, 23),
    (23, 298),
    (150, 149),
    (64, 33),
    (17, 16),
    (9, 9),
    (2, 2),
    (1, 5),
];

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_same_bits(a: &DenseMatrix, what: &str) {
    let fast = try_jacobi_svd(a);
    let reference = jacobi_svd_ref(a);
    let (fast, reference): (Svd, Svd) = match (fast, reference) {
        (Ok(f), Ok(r)) => (f, r),
        (f, r) => panic!("{what}: solvers disagree on success: {f:?} vs {r:?}"),
    };
    let sigma = |s: &Svd| s.sigma.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(sigma(&fast), sigma(&reference), "{what}: Σ bits differ");
    assert_eq!(bits(&fast.u), bits(&reference.u), "{what}: U bits differ");
    assert_eq!(bits(&fast.v), bits(&reference.v), "{what}: V bits differ");
}

/// Roughly a third of the entries exactly zero, half of those `-0.0`.
fn with_zeros(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut a = DenseMatrix::uniform(rows, cols, 1.0, seed);
    for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
        match (i * 7 + 3) % 6 {
            0 => *v = 0.0,
            1 => *v = -0.0,
            _ => {}
        }
    }
    a
}

#[test]
fn wavefront_matches_the_cyclic_reference_on_every_shape() {
    for (seed, &(m, n)) in (1..).zip(&SHAPES) {
        let a = DenseMatrix::uniform(m, n, 1.0, seed);
        assert_same_bits(&a, &format!("uniform {m}x{n}"));
    }
}

#[test]
fn exact_zeros_and_zero_columns_keep_the_bits() {
    for (seed, &(m, n)) in (10..).zip(&SHAPES[3..]) {
        let a = with_zeros(m, n, seed);
        assert_same_bits(&a, &format!("zeros {m}x{n}"));
        let mut zero_col = a.clone();
        let zeros = vec![0.0; m];
        zero_col.set_col(n / 2, &zeros);
        assert_same_bits(&zero_col, &format!("zero column {m}x{n}"));
    }
}

#[test]
fn rank_deficient_shrunk_matrix_keeps_the_bits() {
    // A symmetric 0/1 structure pushed through the nuclear-norm prox, as
    // Pro-GNN's next prox sees it: most singular values shrunk to zero.
    let n = 120;
    let mut s = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in (i + 1)..n {
            if (i * 31 + j * 17) % 11 == 0 {
                s.set(i, j, 1.0);
                s.set(j, i, 1.0);
            }
        }
    }
    let shrunk = try_singular_value_shrink(&s, 2.0, n, 0).unwrap();
    assert_same_bits(&shrunk, "shrunk 120x120");
    let low_rank =
        DenseMatrix::uniform(40, 3, 1.0, 41).matmul_nt(&DenseMatrix::uniform(33, 3, 1.0, 42));
    assert_same_bits(&low_rank, "rank 3 40x33");
}

#[test]
fn non_finite_input_fails_the_same_way() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for &(m, n) in &[(9, 9), (4, 11)] {
            let mut a = DenseMatrix::uniform(m, n, 1.0, 5);
            a.set(m - 1, 2, bad);
            let fast = try_jacobi_svd(&a).unwrap_err();
            let reference = jacobi_svd_ref(&a).unwrap_err();
            assert_eq!(
                format!("{fast:?}"),
                format!("{reference:?}"),
                "{bad} in {m}x{n}"
            );
        }
    }
}

/// The plain loop every lane must reproduce: ascending `k` from `+0.0`.
fn gram_ref(rp: &[f64], rq: &[f64]) -> [f64; 3] {
    let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
    for k in 0..rp.len() {
        app += rp[k] * rp[k];
        aqq += rq[k] * rq[k];
        apq += rp[k] * rq[k];
    }
    [app, aqq, apq]
}

#[test]
fn gram_lanes_match_the_plain_loop_including_zero_signs() {
    // Up to 13 pairs (an eight-pair group, a four-pair group, one pair)
    // over row lengths that are and are not multiples of four. The first
    // pair of each group pairs an all-zero column with an all-negative
    // one: every product is -0.0, so the cross sum is +0.0 from a +0.0
    // start and -0.0 from a -0.0 one.
    for m in [1, 3, 4, 7, 37] {
        for len in 1..=13 {
            let (p0, q0) = (2, 2 * len + 1);
            let mut wt = with_zeros(28, m, 77 + len as u64);
            for i in [0, 8, 12].into_iter().filter(|&i| i < len) {
                wt.row_mut(p0 + i).fill(0.0);
                for v in wt.row_mut(q0 - i) {
                    *v = -v.abs() - 0.5;
                }
            }
            let mut out = [[f64::NAN; 3]; 13];
            jacobi_gram(&wt, p0, q0, &mut out[..len]);
            for (i, got) in out[..len].iter().enumerate() {
                let want = gram_ref(wt.row(p0 + i), wt.row(q0 - i));
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "m {m}, {len} pairs from ({p0}, {q0}), pair {i}"
                );
            }
        }
    }
}
