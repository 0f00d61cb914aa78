//! Singular value decomposition.
//!
//! Two algorithms are provided:
//!
//! * [`jacobi_svd`] — exact one-sided Jacobi SVD. Cubic cost but very
//!   robust; used on small/medium matrices, as the inner solver of the
//!   randomized method, and by Pro-GNN's nuclear-norm proximal step, whose
//!   default full rank budget takes the exact branch of
//!   [`try_singular_value_shrink`]. Its sweep runs the column pairs by
//!   anti-diagonal through the vector-lane pair kernel; [`jacobi_svd_ref`]
//!   is the cyclic plain-loop reference it matches bit for bit.
//! * [`randomized_svd`] — Halko-Martinsson-Tropp randomized truncated SVD
//!   with power iterations. Used by the GCN-SVD defense, and by
//!   [`try_singular_value_shrink`] under a rank budget below three
//!   quarters of the smaller dimension, where only a rank-`k`
//!   approximation is needed.
//!
//! Every solver has a fallible `try_*` form returning
//! [`BbgnnResult`]: non-finite input is rejected
//! as [`NumericalDivergence`](bbgnn_errors::BbgnnError::NumericalDivergence)
//! and a sweep budget that runs dry surfaces as
//! [`ConvergenceFailure`](bbgnn_errors::BbgnnError::ConvergenceFailure)
//! instead of a silently truncated answer. [`try_randomized_svd`] degrades
//! gracefully: when the sketched problem fails its residual check, it
//! retries with the exact Jacobi solver before giving up. The original
//! panicking names are kept as thin wrappers for callers that cannot
//! recover anyway.

use crate::kernels;
use crate::qr::thin_qr;
use crate::DenseMatrix;
use bbgnn_errors::{first_non_finite, BbgnnError, BbgnnResult};

/// A (possibly truncated) singular value decomposition `A ≈ U Σ V^T`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × k` (columns).
    pub u: DenseMatrix,
    /// Singular values, descending, length `k`.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n × k` (columns).
    pub v: DenseMatrix,
}

impl Svd {
    /// Reconstructs `U Σ V^T`.
    pub fn reconstruct(&self) -> DenseMatrix {
        let us = self.u.scale_cols(&self.sigma);
        us.matmul_nt(&self.v)
    }

    /// Truncates to the top `k` singular triplets.
    pub fn truncate(&self, k: usize) -> Svd {
        let k = k.min(self.sigma.len());
        Svd {
            u: take_cols(&self.u, k),
            sigma: self.sigma[..k].to_vec(),
            v: take_cols(&self.v, k),
        }
    }

    /// True iff every factor entry and singular value is finite.
    pub fn is_finite(&self) -> bool {
        self.sigma.iter().all(|s| s.is_finite())
            && first_non_finite(self.u.as_slice()).is_none()
            && first_non_finite(self.v.as_slice()).is_none()
    }
}

fn take_cols(m: &DenseMatrix, k: usize) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(m.rows(), k);
    for i in 0..m.rows() {
        out.row_mut(i).copy_from_slice(&m.row(i)[..k]);
    }
    out
}

/// Rejects matrices containing NaN/±inf entries before they poison an
/// iterative solver.
pub(crate) fn check_finite_input(a: &DenseMatrix, method: &str) -> BbgnnResult<()> {
    if let Some((idx, value)) = first_non_finite(a.as_slice()) {
        let (r, c) = (idx / a.cols().max(1), idx % a.cols().max(1));
        return Err(BbgnnError::NumericalDivergence {
            what: format!("{method}: input entry ({r}, {c})"),
            value,
        });
    }
    Ok(())
}

/// Relative orthogonality threshold of the Jacobi sweeps: a pair whose
/// Gram entry is below `EPS · √(app·aqq)` is not rotated, and a sweep
/// whose worst pair is below it ends the solve.
const EPS: f64 = 1e-12;

/// Sweep budget of the Jacobi solvers.
const MAX_SWEEPS: usize = 60;

/// Exact one-sided Jacobi SVD of `a` (m×n, any shape), with runtime
/// convergence checking.
///
/// Rotates pairs of columns of a working copy of `A` until all column pairs
/// are orthogonal; column norms then give `Σ`, normalized columns give `U`,
/// and accumulated rotations give `V`. Converges quadratically. Errors with
/// [`BbgnnError::ConvergenceFailure`] if any column pair is still
/// non-orthogonal after the sweep budget, and
/// [`BbgnnError::NumericalDivergence`] on non-finite input.
///
/// Each sweep visits the pairs by anti-diagonal `τ = p + q`, `τ = 1 ..=
/// 2n − 3`, with `p` ascending. The pairs of one anti-diagonal share no
/// column, and every pair that shares a column with `(p, q)` and precedes
/// it in the cyclic-by-rows order of [`jacobi_svd_ref`] lies on an
/// earlier anti-diagonal, so every pair sees the same two columns and
/// computes the same rotation as there; the convergence measure is a
/// maximum, which no order changes. `U`, `Σ` and `V` are therefore bitwise
/// those of [`jacobi_svd_ref`]. The anti-diagonal's pairs run through
/// [`kernels::jacobi_gram`] up to [`kernels::JACOBI_LANES`] at a time, each
/// group's rotations right after its Gram sums. Timed as the
/// `kernel/jacobi_svd` kernel.
pub fn try_jacobi_svd(a: &DenseMatrix) -> BbgnnResult<Svd> {
    let _t = bbgnn_obs::kernel_timer("kernel/jacobi_svd");
    jacobi(a, wavefront_sweep)
}

/// The cyclic-by-rows one-sided Jacobi SVD — pairs `(p, q)` in row-major
/// order, plain loops — that [`try_jacobi_svd`] must match bit for bit.
/// Kept for the parity tests and the kernel microbenchmark, as
/// [`kernels::matmul_ref`] is for matmul.
pub fn jacobi_svd_ref(a: &DenseMatrix) -> BbgnnResult<Svd> {
    jacobi(a, cyclic_sweep)
}

/// One sweep over every column pair of `wt` (row `j` = column `j` of the
/// work matrix), rotating `vt`'s rows alongside; returns the sweep's worst
/// relative off-diagonal magnitude. `floor` is the numerically-zero
/// column norm².
type Sweep = fn(&mut DenseMatrix, &mut DenseMatrix, f64) -> f64;

/// The solver both sweep orders share: input check, shape handling, sweep
/// loop and the extraction of `U`, `Σ`, `V`.
fn jacobi(a: &DenseMatrix, sweep: Sweep) -> BbgnnResult<Svd> {
    check_finite_input(a, "jacobi_svd")?;
    let (m, n) = a.shape();
    if m < n {
        // Work on the transpose and swap U/V.
        let svd = jacobi(&a.transpose(), sweep)?;
        return Ok(Svd {
            u: svd.v,
            sigma: svd.sigma,
            v: svd.u,
        });
    }
    // Column-major working copy: row j of `wt` is column j of the work matrix.
    let mut wt = a.transpose(); // n × m
    let mut vt = DenseMatrix::identity(n); // row j = column j of V

    // Givens rotations preserve the Frobenius norm, so this is a loop
    // invariant. Columns whose norm² falls below `floor` are numerically
    // zero (singular value ≤ eps·‖A‖_F); their dot products are rounding
    // noise and must not feed the *relative* orthogonality test below,
    // which would otherwise divide by ~0 and report astronomical
    // residuals on rank-deficient input (e.g. nuclear-norm-shrunk
    // matrices from Pro-GNN).
    let fro2: f64 = wt.as_slice().iter().map(|v| v * v).sum();
    let floor = EPS * EPS * fro2;
    let mut converged = n < 2;
    let mut last_off = 0.0_f64;
    for _sweep in 0..MAX_SWEEPS {
        // Cooperative stop site (DESIGN.md §11): a sweep boundary is safe
        // because no sweep has been partially applied here.
        bbgnn_supervise::check("jacobi_svd/sweep")?;
        // Relative off-diagonal magnitude of the worst column pair; a clean
        // sweep (no rotation above the threshold) means convergence.
        last_off = sweep(&mut wt, &mut vt, floor);
        if last_off <= EPS {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(BbgnnError::ConvergenceFailure {
            method: "jacobi_svd".to_string(),
            iters: MAX_SWEEPS,
            residual: last_off,
        });
    }
    // Extract singular values and U.
    let mut triplets: Vec<(f64, usize)> = (0..n)
        .map(|j| (wt.row(j).iter().map(|v| v * v).sum::<f64>().sqrt(), j))
        .collect();
    triplets.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut u = DenseMatrix::zeros(m, n);
    let mut v = DenseMatrix::zeros(n, n);
    let mut sigma = Vec::with_capacity(n);
    // One scratch buffer reused for every normalized column (see
    // `DenseMatrix::set_col` / `col_into`: column traffic goes through
    // whole-column helpers instead of per-element `set` calls).
    let mut ucol = vec![0.0; m];
    for (out_col, &(s, j)) in triplets.iter().enumerate() {
        sigma.push(s);
        if s > 1e-300 {
            for (o, &c) in ucol.iter_mut().zip(wt.row(j)) {
                *o = c / s;
            }
            u.set_col(out_col, &ucol);
        }
        v.set_col(out_col, vt.row(j));
    }
    Ok(Svd { u, sigma, v })
}

/// The rotation `(c, s)` that zeroes the Gram entry `apq` of a column pair
/// with squared norms `app`, `aqq`, or `None` when a column is numerically
/// zero or the pair is already orthogonal. A rotated pair raises `off` to
/// its relative off-diagonal magnitude.
#[inline]
fn rotation(app: f64, aqq: f64, apq: f64, floor: f64, off: &mut f64) -> Option<(f64, f64)> {
    if apq == 0.0 || app <= floor || aqq <= floor {
        return None;
    }
    if apq.abs() <= EPS * (app * aqq).sqrt() {
        return None;
    }
    *off = off.max(apq.abs() / (app * aqq).sqrt().max(1e-300));
    let tau = (aqq - app) / (2.0 * apq);
    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
    let c = 1.0 / (1.0 + t * t).sqrt();
    Some((c, c * t))
}

/// [`try_jacobi_svd`]'s sweep: anti-diagonals `τ = p + q` in ascending
/// order, each in groups of up to [`kernels::JACOBI_LANES`] pairs.
fn wavefront_sweep(wt: &mut DenseMatrix, vt: &mut DenseMatrix, floor: f64) -> f64 {
    let n = wt.rows();
    let mut off = 0.0_f64;
    let mut sums = [[0.0; 3]; kernels::JACOBI_LANES];
    for tau in 1..(2 * n).saturating_sub(2) {
        // Pairs (p, τ − p) with p < τ − p ≤ n − 1.
        let end = tau.div_ceil(2);
        let mut p = tau.saturating_sub(n - 1);
        while p < end {
            let group = &mut sums[..(end - p).min(kernels::JACOBI_LANES)];
            kernels::jacobi_gram(wt, p, tau - p, group);
            for (i, &[app, aqq, apq]) in group.iter().enumerate() {
                if let Some((c, s)) = rotation(app, aqq, apq, floor, &mut off) {
                    kernels::rotate_rows(wt, p + i, tau - p - i, c, s);
                    kernels::rotate_rows(vt, p + i, tau - p - i, c, s);
                }
            }
            p += group.len();
        }
    }
    off
}

/// [`jacobi_svd_ref`]'s sweep: pairs `(p, q)` in row-major order.
fn cyclic_sweep(wt: &mut DenseMatrix, vt: &mut DenseMatrix, floor: f64) -> f64 {
    let (n, m) = wt.shape();
    let mut off = 0.0_f64;
    for p in 0..n {
        for q in (p + 1)..n {
            let (app, aqq, apq) = {
                let rp = wt.row(p);
                let rq = wt.row(q);
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for k in 0..m {
                    app += rp[k] * rp[k];
                    aqq += rq[k] * rq[k];
                    apq += rp[k] * rq[k];
                }
                (app, aqq, apq)
            };
            if let Some((c, s)) = rotation(app, aqq, apq, floor, &mut off) {
                rotate_rows_ref(wt, p, q, c, s);
                rotate_rows_ref(vt, p, q, c, s);
            }
        }
    }
    off
}

/// Infallible façade over [`try_jacobi_svd`].
///
/// # Panics
/// Panics on non-finite input or failed convergence; use the `try_` form
/// where recovery is possible.
pub fn jacobi_svd(a: &DenseMatrix) -> Svd {
    // lint: allow(panic) reason=documented infallible facade — try_jacobi_svd is the recoverable path
    try_jacobi_svd(a).unwrap_or_else(|e| panic!("jacobi_svd: {e}"))
}

/// The reference sweep's plain-loop Givens rotation `[c -s; s c]` of rows
/// `p < q` of `m` (columns of the untransposed matrix).
fn rotate_rows_ref(m: &mut DenseMatrix, p: usize, q: usize, c: f64, s: f64) {
    let cols = m.cols();
    let (left, right) = m.as_mut_slice().split_at_mut(q * cols);
    let row_lo = &mut left[p * cols..(p + 1) * cols];
    let row_hi = &mut right[..cols];
    for k in 0..cols {
        let a = row_lo[k];
        let b = row_hi[k];
        row_lo[k] = c * a - s * b;
        row_hi[k] = s * a + c * b;
    }
}

/// Randomized truncated SVD (rank `k`, `oversample` extra columns,
/// `power_iters` subspace iterations), deterministic given `seed`, with
/// graceful degradation.
///
/// Accuracy improves sharply with `power_iters` when the spectrum decays
/// slowly; 2 iterations suffice for the adjacency-like matrices used here.
/// If the sketched inner problem fails its convergence/residual check, the
/// call falls back to an exact Jacobi SVD of `a` truncated to rank `k` —
/// slower, but never silently wrong — and only errors when the exact path
/// fails too.
pub fn try_randomized_svd(
    a: &DenseMatrix,
    k: usize,
    oversample: usize,
    power_iters: usize,
    seed: u64,
) -> BbgnnResult<Svd> {
    check_finite_input(a, "randomized_svd")?;
    match randomized_sketch_svd(a, k, oversample, power_iters, seed) {
        Ok(svd) if svd.is_finite() => Ok(svd),
        // A supervision stop is not a numerical failure: the run is winding
        // down, so never escalate to the (more expensive) exact solver.
        Err(e) if e.is_supervision_stop() => Err(e),
        // Degraded path: the sketch failed (rotation budget or non-finite
        // factors); the exact solver is the last line of defense.
        _ => try_jacobi_svd(a)
            .map(|svd| svd.truncate(k))
            .map_err(|e| e.context(format!("randomized_svd(k={k}): exact fallback also failed"))),
    }
}

/// The sketch-project-solve core of [`try_randomized_svd`].
fn randomized_sketch_svd(
    a: &DenseMatrix,
    k: usize,
    oversample: usize,
    power_iters: usize,
    seed: u64,
) -> BbgnnResult<Svd> {
    let (m, n) = a.shape();
    let l = (k + oversample).min(n).min(m);
    let omega = DenseMatrix::gaussian(n, l, 1.0, seed);
    let mut y = a.matmul(&omega); // m × l
    let mut q = thin_qr(&y).q;
    for _ in 0..power_iters {
        // Cooperative stop site (DESIGN.md §11): power-iteration boundary.
        bbgnn_supervise::check("randomized_svd/power_iter")?;
        let z = a.matmul_tn(&q); // n × l  (A^T Q)
        let qz = thin_qr(&z).q;
        y = a.matmul(&qz);
        q = thin_qr(&y).q;
    }
    let b = q.matmul_tn(a); // Q^T A, l × n
    let small = try_jacobi_svd(&b)?;
    let u = q.matmul(&small.u);
    let svd = Svd {
        u,
        sigma: small.sigma,
        v: small.v,
    };
    Ok(svd.truncate(k))
}

/// Infallible façade over [`try_randomized_svd`].
///
/// # Panics
/// Panics when both the sketched and the exact fallback path fail.
pub fn randomized_svd(
    a: &DenseMatrix,
    k: usize,
    oversample: usize,
    power_iters: usize,
    seed: u64,
) -> Svd {
    try_randomized_svd(a, k, oversample, power_iters, seed)
        // lint: allow(panic) reason=documented infallible facade — try_randomized_svd is the recoverable path
        .unwrap_or_else(|e| panic!("randomized_svd: {e}"))
}

/// Fallible rank-`k` approximation of `a` via randomized SVD — the
/// operation used by the GCN-SVD defense.
pub fn try_low_rank_approximation(
    a: &DenseMatrix,
    k: usize,
    seed: u64,
) -> BbgnnResult<DenseMatrix> {
    Ok(try_randomized_svd(a, k, 8, 2, seed)?.reconstruct())
}

/// Infallible façade over [`try_low_rank_approximation`].
///
/// # Panics
/// Panics when both SVD paths fail.
pub fn low_rank_approximation(a: &DenseMatrix, k: usize, seed: u64) -> DenseMatrix {
    // lint: allow(panic) reason=documented infallible facade — try_low_rank_approximation is the recoverable path
    try_low_rank_approximation(a, k, seed).unwrap_or_else(|e| panic!("low_rank_approximation: {e}"))
}

/// Fallible singular value soft-thresholding `prox_{t||.||_*}(A)`: shrinks
/// every singular value by `t` and clamps at zero. Used by Pro-GNN's
/// nuclear-norm proximal operator. `rank_budget` bounds the number of
/// singular triplets computed (the remainder is assumed shrunk to zero).
pub fn try_singular_value_shrink(
    a: &DenseMatrix,
    t: f64,
    rank_budget: usize,
    seed: u64,
) -> BbgnnResult<DenseMatrix> {
    let min_dim = a.rows().min(a.cols());
    // Near-full budgets: the randomized sketch would be as large as the
    // matrix itself; exact Jacobi is cheaper and exact.
    let svd = if rank_budget * 4 >= min_dim * 3 {
        try_jacobi_svd(a)?.truncate(rank_budget)
    } else {
        try_randomized_svd(a, rank_budget, 8, 2, seed)?
    };
    let shrunk: Vec<f64> = svd.sigma.iter().map(|&s| (s - t).max(0.0)).collect();
    let us = svd.u.scale_cols(&shrunk);
    Ok(us.matmul_nt(&svd.v))
}

/// Infallible façade over [`try_singular_value_shrink`].
///
/// # Panics
/// Panics when the underlying SVD fails.
pub fn singular_value_shrink(
    a: &DenseMatrix,
    t: f64,
    rank_budget: usize,
    seed: u64,
) -> DenseMatrix {
    try_singular_value_shrink(a, t, rank_budget, seed)
        // lint: allow(panic) reason=documented infallible facade — try_singular_value_shrink is the recoverable path
        .unwrap_or_else(|e| panic!("singular_value_shrink: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_svd_valid(a: &DenseMatrix, svd: &Svd, tol: f64) {
        assert!(
            svd.reconstruct().max_abs_diff(a) < tol,
            "reconstruction failed"
        );
        let k = svd.sigma.len();
        let gram_u = svd.u.matmul_tn(&svd.u);
        let gram_v = svd.v.matmul_tn(&svd.v);
        // Only the leading non-degenerate part must be orthonormal.
        assert!(
            gram_u.max_abs_diff(&DenseMatrix::identity(k)) < 1e-6,
            "U not orthonormal"
        );
        assert!(
            gram_v.max_abs_diff(&DenseMatrix::identity(k)) < 1e-6,
            "V not orthonormal"
        );
        for w in svd.sigma.windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "singular values not sorted");
        }
    }

    #[test]
    fn jacobi_svd_square() {
        let a = DenseMatrix::uniform(12, 12, 1.0, 21);
        let svd = jacobi_svd(&a);
        assert_svd_valid(&a, &svd, 1e-8);
    }

    #[test]
    fn jacobi_svd_tall_and_wide() {
        let tall = DenseMatrix::uniform(15, 6, 1.0, 22);
        assert_svd_valid(&tall, &jacobi_svd(&tall), 1e-8);
        let wide = DenseMatrix::uniform(6, 15, 1.0, 23);
        assert_svd_valid(&wide, &jacobi_svd(&wide), 1e-8);
    }

    #[test]
    fn jacobi_svd_diagonal_matrix() {
        let mut a = DenseMatrix::zeros(4, 4);
        for (i, &s) in [4.0, 3.0, 2.0, 1.0].iter().enumerate() {
            a.set(i, i, s);
        }
        let svd = jacobi_svd(&a);
        for (i, &s) in [4.0, 3.0, 2.0, 1.0].iter().enumerate() {
            assert!((svd.sigma[i] - s).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_values_match_gram_eigenvalues() {
        let a = DenseMatrix::uniform(8, 5, 1.0, 24);
        let svd = jacobi_svd(&a);
        // Σ σ_i² = ||A||_F².
        let sum_sq: f64 = svd.sigma.iter().map(|s| s * s).sum();
        assert!((sum_sq - a.frobenius_norm().powi(2)).abs() < 1e-8);
    }

    #[test]
    fn randomized_svd_recovers_low_rank_matrix() {
        // Rank-3 matrix.
        let u = DenseMatrix::uniform(40, 3, 1.0, 31);
        let v = DenseMatrix::uniform(25, 3, 1.0, 32);
        let a = u.matmul_nt(&v);
        let svd = randomized_svd(&a, 3, 8, 2, 1);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn low_rank_approximation_reduces_error_with_rank() {
        let a = DenseMatrix::uniform(30, 30, 1.0, 33);
        let e2 = a.sub(&low_rank_approximation(&a, 2, 5)).frobenius_norm();
        let e10 = a.sub(&low_rank_approximation(&a, 10, 5)).frobenius_norm();
        let e29 = a.sub(&low_rank_approximation(&a, 29, 5)).frobenius_norm();
        assert!(e10 < e2);
        assert!(e29 < e10);
    }

    #[test]
    fn shrink_zeroes_small_singular_values() {
        let mut a = DenseMatrix::zeros(5, 5);
        a.set(0, 0, 10.0);
        a.set(1, 1, 0.5);
        let s = singular_value_shrink(&a, 1.0, 5, 3);
        assert!((s.get(0, 0) - 9.0).abs() < 1e-6);
        assert!(s.get(1, 1).abs() < 1e-6);
    }

    #[test]
    fn jacobi_svd_converges_on_rank_deficient_matrix() {
        // Regression: nuclear-norm shrinkage (Pro-GNN) hands back matrices
        // whose trailing singular values are exactly zero. The relative
        // orthogonality test must not divide by the vanishing norms of the
        // resulting numerically-zero columns.
        let u = DenseMatrix::uniform(20, 3, 1.0, 41);
        let v = DenseMatrix::uniform(20, 3, 1.0, 42);
        let a = u.matmul_nt(&v); // rank 3 of 20
        let svd = try_jacobi_svd(&a).expect("rank-deficient SVD must converge");
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-8);
        for &s in &svd.sigma[3..] {
            assert!(s < 1e-8, "trailing singular value {s} should be ~0");
        }
    }

    #[test]
    fn try_jacobi_svd_rejects_nan_input() {
        let mut a = DenseMatrix::uniform(4, 4, 1.0, 25);
        a.set(2, 1, f64::NAN);
        match try_jacobi_svd(&a) {
            Err(BbgnnError::NumericalDivergence { what, value }) => {
                assert!(what.contains("(2, 1)"), "unexpected location: {what}");
                assert!(value.is_nan());
            }
            other => panic!("expected NumericalDivergence, got {other:?}"),
        }
    }

    #[test]
    fn try_randomized_svd_rejects_inf_input() {
        let mut a = DenseMatrix::uniform(10, 10, 1.0, 26);
        a.set(0, 0, f64::INFINITY);
        assert!(try_randomized_svd(&a, 3, 4, 1, 1).is_err());
    }

    #[test]
    fn try_randomized_svd_matches_infallible_path() {
        let a = DenseMatrix::uniform(20, 12, 1.0, 27);
        let tried = try_randomized_svd(&a, 4, 8, 2, 9).unwrap();
        let plain = randomized_svd(&a, 4, 8, 2, 9);
        assert_eq!(
            tried.sigma, plain.sigma,
            "fallible and infallible paths must agree"
        );
    }

    #[test]
    fn try_randomized_svd_survives_near_degenerate_matrix() {
        // Numerically rank-1 with tiny noise: the sketch sees a brutally
        // ill-conditioned spectrum but must still return finite factors.
        let u = DenseMatrix::uniform(25, 1, 1.0, 28);
        let v = DenseMatrix::uniform(25, 1, 1.0, 29);
        let mut a = u.matmul_nt(&v);
        let noise = DenseMatrix::uniform(25, 25, 1e-13, 30);
        a = a.add(&noise);
        let svd = try_randomized_svd(&a, 5, 8, 2, 4).unwrap();
        assert!(svd.is_finite());
        assert!(svd.sigma[0] > 0.0);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-6);
    }
}
