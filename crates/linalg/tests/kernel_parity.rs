//! Kernel parity and determinism tests (the bitwise contract).
//!
//! Every blocked/threaded kernel must produce output **bitwise identical**
//! to its naive reference implementation — not merely close — for every
//! shape and every worker count. Threads partition disjoint output rows
//! and the per-element accumulation order over the inner dimension never
//! changes, so `assert_eq!` on the raw `f64` buffers is the right check.
//!
//! The kernels pick internal paths from their inputs alone: widths below
//! the register tile run on a zero-padded tail panel, and the reference's
//! `aik == 0.0` skip is dropped when the right-hand panel is all finite.
//! The tests below pin every such path against the references, on the
//! special values (zeros, `-0.0`, NaN, `±inf`) that uniform data never
//! produces.

use bbgnn_linalg::kernels::{
    matmul_into, matmul_nt_into, matmul_nt_ref, matmul_ref, matmul_tn_into, matmul_tn_ref,
    spmm_into, spmm_ref, spmm_t_into,
};
use bbgnn_linalg::{CsrMatrix, DenseMatrix, ExecContext, ThreadPool};

/// Shapes covering the tricky cases: non-square, degenerate (empty /
/// single element), rank-1-ish thin products, and dimensions straddling
/// the kernel block sizes (`BLOCK_K = 128`, `BLOCK_J = 512`).
fn shapes() -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (0, 3, 4),
        (3, 0, 4),
        (3, 4, 0),
        (2, 3, 5),
        (7, 13, 11),
        (1, 200, 1),
        (200, 1, 200),
        (127, 128, 129),
        (128, 128, 128),
        (130, 257, 64),
        (40, 600, 8),
    ]
}

fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    DenseMatrix::uniform(rows, cols, 1.0, seed)
}

fn sparse(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    // ~10% fill, deterministic, includes empty rows for small seeds.
    let triplets = (0..rows).flat_map(move |r| {
        (0..cols).filter_map(move |c| {
            let h = (r * 31 + c * 17 + seed as usize) % 10;
            (h == 0).then(|| (r, c, (r + 2 * c + 1) as f64 / 7.0))
        })
    });
    CsrMatrix::from_triplets(rows, cols, triplets)
}

#[test]
fn matmul_matches_reference_bitwise_across_shapes_and_threads() {
    for &(m, k, n) in &shapes() {
        let a = dense(m, k, 1);
        let b = dense(k, n, 2);
        let reference = matmul_ref(&a, &b);
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let mut out = DenseMatrix::zeros(m, n);
            matmul_into(&a, &b, &mut out, &pool);
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "matmul ({m}x{k})({k}x{n}) diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn matmul_tn_matches_reference_bitwise_across_shapes_and_threads() {
    for &(m, k, n) in &shapes() {
        // A is k×m here: the product is Aᵀ B.
        let a = dense(k, m, 3);
        let b = dense(k, n, 4);
        let reference = matmul_tn_ref(&a, &b);
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let mut out = DenseMatrix::zeros(m, n);
            matmul_tn_into(&a, &b, &mut out, &pool);
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "matmul_tn ({k}x{m})ᵀ({k}x{n}) diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn matmul_nt_matches_reference_bitwise_across_shapes_and_threads() {
    for &(m, k, n) in &shapes() {
        // B is n×k here: the product is A Bᵀ.
        let a = dense(m, k, 5);
        let b = dense(n, k, 6);
        let reference = matmul_nt_ref(&a, &b);
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let mut out = DenseMatrix::zeros(m, n);
            matmul_nt_into(&a, &b, &mut out, &pool);
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "matmul_nt ({m}x{k})({n}x{k})ᵀ diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn spmm_matches_reference_bitwise_across_shapes_and_threads() {
    for &(m, k, n) in &shapes() {
        let s = sparse(m, k, 7);
        let b = dense(k, n, 8);
        let reference = spmm_ref(&s, &b);
        for threads in [1, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            let mut out = DenseMatrix::zeros(m, n);
            spmm_into(&s, &b, &mut out, &pool);
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "spmm ({m}x{k})({k}x{n}) diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn spmm_t_matches_dense_transpose_product() {
    // spmm_t computes Sᵀ B sequentially (scatter by column index). It must
    // agree with the dense product of the explicit transpose to ~ulp —
    // accumulation orders differ, so this one is approximate by design.
    for &(m, k, n) in &shapes() {
        let s = sparse(m, k, 9);
        let b = dense(m, n, 10);
        let mut out = DenseMatrix::zeros(k, n);
        spmm_t_into(&s, &b, &mut out);
        let dense_s = s.to_dense();
        let reference = matmul_tn_ref(&dense_s, &b);
        let diff = out.max_abs_diff(&reference);
        assert!(
            diff < 1e-12,
            "spmm_t ({m}x{k})ᵀ({m}x{n}) differs from dense by {diff}"
        );
    }
}

/// The headline determinism claim: a full forward/backward-sized product
/// chain through `ExecContext` is bitwise identical on 1 and N threads,
/// at a size comfortably above the parallelism threshold.
#[test]
fn exec_context_products_are_bitwise_identical_across_thread_counts() {
    let a = dense(300, 300, 11);
    let b = dense(300, 300, 12);
    let s = sparse(300, 300, 13);
    let ctx1 = ExecContext::new(1);
    let m1 = ctx1.matmul(&a, &b);
    let tn1 = ctx1.matmul_tn(&a, &b);
    let nt1 = ctx1.matmul_nt(&a, &b);
    let sp1 = ctx1.spmm(&s, &b);
    for threads in [2, 4, 8] {
        let ctx = ExecContext::new(threads);
        assert_eq!(
            ctx.matmul(&a, &b).as_slice(),
            m1.as_slice(),
            "matmul diverged at {threads} threads"
        );
        assert_eq!(
            ctx.matmul_tn(&a, &b).as_slice(),
            tn1.as_slice(),
            "matmul_tn diverged at {threads} threads"
        );
        assert_eq!(
            ctx.matmul_nt(&a, &b).as_slice(),
            nt1.as_slice(),
            "matmul_nt diverged at {threads} threads"
        );
        assert_eq!(
            ctx.spmm(&s, &b).as_slice(),
            sp1.as_slice(),
            "spmm diverged at {threads} threads"
        );
    }
}

/// Workspace recycling must never leak stale values into results: run the
/// same product repeatedly through one context (so buffers are reused) and
/// interleave differently-shaped products to churn the arena.
#[test]
fn workspace_reuse_does_not_corrupt_results() {
    let ctx = ExecContext::new(4);
    let a = dense(90, 110, 14);
    let b = dense(110, 70, 15);
    let reference = matmul_ref(&a, &b);
    for round in 0..5 {
        let out = ctx.matmul(&a, &b);
        assert_eq!(
            out.as_slice(),
            reference.as_slice(),
            "round {round} corrupted by buffer reuse"
        );
        // Churn: push a different shape through, then recycle everything.
        let other = ctx.matmul_tn(&b, &b);
        ctx.recycle(other);
        ctx.recycle(out);
    }
    assert!(
        ctx.reuse_hits() > 0,
        "arena was never hit — the reuse path is untested"
    );
}

/// Bitwise equality, except that any NaN matches any NaN: IEEE 754 leaves
/// the payload of a NaN result unspecified when several operands are NaN,
/// and the compiler may commute an add. Signed zeros, infinities and the
/// NaN-or-not class of every entry must match exactly.
fn assert_same_bits(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: entry {i} is {g:e} ({:#x}), reference {w:e} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Runs all three products on `a` (m×k) and `b` (k×n) — `matmul_tn` on
/// `aᵀ` and `matmul_nt` on `bᵀ`, so every kernel sees the same operands —
/// at each thread count, bit-exact against the references.
fn check_all_kernels(a: &DenseMatrix, b: &DenseMatrix, threads: &[usize], what: &str) {
    let (m, n) = (a.rows(), b.cols());
    let (at, bt) = (a.transpose(), b.transpose());
    let want = matmul_ref(a, b);
    let want_tn = matmul_tn_ref(&at, b);
    let want_nt = matmul_nt_ref(a, &bt);
    for &t in threads {
        let pool = ThreadPool::new(t);
        let mut out = DenseMatrix::zeros(m, n);
        matmul_into(a, b, &mut out, &pool);
        assert_same_bits(&out, &want, &format!("matmul {what} @{t}t"));
        matmul_tn_into(&at, b, &mut out, &pool);
        assert_same_bits(&out, &want_tn, &format!("matmul_tn {what} @{t}t"));
        matmul_nt_into(a, &bt, &mut out, &pool);
        assert_same_bits(&out, &want_nt, &format!("matmul_nt {what} @{t}t"));
    }
}

/// Uniform values with a deterministic share of exact zeros (`zeros` out
/// of 10), like the mostly-zero bag-of-words features and propagations
/// the attack cells multiply.
fn with_zeros(rows: usize, cols: usize, seed: u64, zeros: usize) -> DenseMatrix {
    let mut m = dense(rows, cols, seed);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        if (i.wrapping_mul(2654435761) >> 7) % 10 < zeros {
            *v = 0.0;
        }
    }
    m
}

#[test]
fn narrow_widths_and_short_inner_dimensions_match_reference() {
    // Every width around the 8-wide register tile, every short inner
    // dimension, on data with exact zeros in both operands.
    for n in (1..=9).chain([15, 16, 17]) {
        for k in 1..=9 {
            let a = with_zeros(13, k, n as u64 * 31 + k as u64, 3);
            let b = with_zeros(k, n, n as u64 * 37 + k as u64, 2);
            check_all_kernels(&a, &b, &[1, 3], &format!("13x{k}x{n}"));
        }
    }
}

#[test]
fn special_values_follow_the_reference_skip_semantics() {
    // Exact zeros and -0.0 in both operands exercise the finite-panel
    // rule: with a finite `b`, dropping the `aik == 0` skip must leave
    // every bit (including zero signs) unchanged. NaN and ±inf in `b` make
    // the panel non-finite, so `0 · inf` must stay skipped in matmul and
    // matmul_tn exactly where the reference skips it, while matmul_nt —
    // whose reference never skips — must produce the NaN.
    let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for (m, k, n) in [(5, 6, 7), (9, 11, 8), (6, 13, 17), (4, 3, 1)] {
        for (si, &special) in specials.iter().enumerate() {
            for target in ["a", "b", "both"] {
                let mut a = with_zeros(m, k, 41 + si as u64, 4);
                let mut b = with_zeros(k, n, 43 + si as u64, 3);
                // Negative zeros everywhere there is a zero in odd rows.
                for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
                    if *v == 0.0 && (i / k) % 2 == 1 {
                        *v = -0.0;
                    }
                }
                if target != "b" {
                    a.set(m / 2, k / 2, special);
                    a.set(m - 1, 0, special);
                }
                if target != "a" {
                    b.set(k / 2, n / 2, special);
                    b.set(0, n - 1, special);
                }
                let what = format!("{m}x{k}x{n}, {special:?} in {target}");
                check_all_kernels(&a, &b, &[1, 2], &what);
            }
        }
    }
}

#[test]
fn all_zero_rows_keep_a_positive_zero() {
    // A row of `a` that is all (signed) zeros against a finite `b` full of
    // negatives: the reference never adds, so the output is +0.0; the
    // no-skip path adds `±0` products and must land on +0.0 as well.
    let a = DenseMatrix::from_rows(&[&[0.0, -0.0, 0.0], &[-0.0, -0.0, -0.0]]);
    let b = DenseMatrix::from_rows(&[&[-1.0, -2.0], &[-3.0, 4.0], &[5.0, -6.0]]);
    check_all_kernels(&a, &b, &[1], "zero rows");
    let mut out = DenseMatrix::zeros(2, 2);
    matmul_into(&a, &b, &mut out, &ThreadPool::new(1));
    assert!(out.as_slice().iter().all(|v| v.to_bits() == 0), "{out:?}");
}

#[test]
fn attack_cell_shapes_match_reference_across_threads() {
    // The shapes the attack workload runs: H·W and Hᵀ·G of the linear
    // surrogate (298 nodes, 171 features, 7 classes), the adjacency
    // gradient G·(XW)ᵀ, and PEEGA's H·Hᵀ-shaped product. (m, k, n) are
    // the matmul dimensions; every kernel runs each shape.
    for (m, k, n) in [(298, 171, 7), (171, 298, 7), (298, 7, 298), (298, 171, 298)] {
        let a = with_zeros(m, k, 51, 3);
        let b = with_zeros(k, n, 52, 1);
        check_all_kernels(&a, &b, &[1, 2, 4, 7], &format!("{m}x{k}x{n}"));
    }
}
