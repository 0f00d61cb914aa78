//! Symmetric eigendecomposition.
//!
//! * [`jacobi_eigen`] — cyclic Jacobi rotations; exact, cubic cost, used for
//!   small/medium symmetric matrices.
//! * [`lanczos_topk`] — Lanczos iteration with full reorthogonalization for
//!   the extremal eigenpairs of large sparse symmetric matrices; used by
//!   GF-Attack, which scores edge flips with the top of the normalized
//!   adjacency spectrum.
//!
//! Both have fallible `try_*` forms returning
//! [`BbgnnResult`]. [`try_jacobi_eigen`] turns
//! the sweep budget into a runtime
//! [`ConvergenceFailure`](bbgnn_errors::BbgnnError::ConvergenceFailure)
//! check; [`try_lanczos_topk`] validates the Ritz residuals
//! `‖A v − λ v‖ / max(|λ|, 1)` and restarts with a fresh start vector and a
//! larger Krylov space (full reorthogonalization throughout) before
//! erroring. The original panicking names are kept as thin wrappers.

use crate::qr::thin_qr;
use crate::svd::check_finite_input;
use crate::{CsrMatrix, DenseMatrix};
use bbgnn_errors::{first_non_finite, BbgnnError, BbgnnResult};

/// Eigendecomposition `A = Q Λ Q^T` of a symmetric matrix, eigenvalues
/// sorted descending.
#[derive(Clone, Debug)]
pub struct Eigen {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors as columns, in the same order as `values`.
    pub vectors: DenseMatrix,
}

impl Eigen {
    /// Reconstructs `Q Λ Q^T`.
    pub fn reconstruct(&self) -> DenseMatrix {
        let qs = self.vectors.scale_cols(&self.values);
        qs.matmul_nt(&self.vectors)
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix, with runtime
/// convergence checking.
///
/// Errors with [`BbgnnError::ConvergenceFailure`] when the off-diagonal
/// mass is still above threshold after the sweep budget, and
/// [`BbgnnError::NumericalDivergence`] on non-finite input.
///
/// # Panics
/// Panics if `a` is not square. Symmetry is assumed, not checked (the upper
/// triangle is used).
pub fn try_jacobi_eigen(a: &DenseMatrix) -> BbgnnResult<Eigen> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "jacobi_eigen requires a square matrix");
    check_finite_input(a, "jacobi_eigen")?;
    let mut m = a.clone();
    let mut q = DenseMatrix::identity(n);
    let max_sweeps = 60;
    let eps = 1e-12;
    let scale = a.frobenius_norm().max(1e-300);
    let mut converged = false;
    let mut last_off = 0.0_f64;
    for _sweep in 0..max_sweeps {
        // Cooperative stop site (DESIGN.md §11): a sweep boundary is safe
        // because no sweep has been partially applied here.
        bbgnn_supervise::check("jacobi_eigen/sweep")?;
        let mut off = 0.0_f64;
        for p in 0..n {
            for r in (p + 1)..n {
                off += m.get(p, r) * m.get(p, r);
            }
        }
        last_off = off.sqrt() / scale;
        if off.sqrt() <= eps * scale {
            converged = true;
            break;
        }
        for p in 0..n {
            for r in (p + 1)..n {
                let apr = m.get(p, r);
                if apr == 0.0 {
                    continue;
                }
                let app = m.get(p, p);
                let arr = m.get(r, r);
                let tau = (arr - app) / (2.0 * apr);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // M <- J^T M J where J rotates plane (p, r).
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkr = m.get(k, r);
                    m.set(k, p, c * mkp - s * mkr);
                    m.set(k, r, s * mkp + c * mkr);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mrk = m.get(r, k);
                    m.set(p, k, c * mpk - s * mrk);
                    m.set(r, k, s * mpk + c * mrk);
                }
                for k in 0..n {
                    let qkp = q.get(k, p);
                    let qkr = q.get(k, r);
                    q.set(k, p, c * qkp - s * qkr);
                    q.set(k, r, s * qkp + c * qkr);
                }
            }
        }
    }
    if !converged {
        return Err(BbgnnError::ConvergenceFailure {
            method: "jacobi_eigen".to_string(),
            iters: max_sweeps,
            residual: last_off,
        });
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m.get(j, j).total_cmp(&m.get(i, i)));
    let values: Vec<f64> = order.iter().map(|&i| m.get(i, i)).collect();
    let mut vectors = DenseMatrix::zeros(n, n);
    let mut qcol = vec![0.0; n];
    for (out_col, &i) in order.iter().enumerate() {
        q.col_into(i, &mut qcol);
        vectors.set_col(out_col, &qcol);
    }
    Ok(Eigen { values, vectors })
}

/// Infallible façade over [`try_jacobi_eigen`].
///
/// # Panics
/// Panics if `a` is not square, contains non-finite entries, or the sweep
/// budget runs out; use the `try_` form where recovery is possible.
pub fn jacobi_eigen(a: &DenseMatrix) -> Eigen {
    // lint: allow(panic) reason=documented infallible facade — try_jacobi_eigen is the recoverable path
    try_jacobi_eigen(a).unwrap_or_else(|e| panic!("jacobi_eigen: {e}"))
}

/// Relative Ritz residual tolerance accepted by [`try_lanczos_topk`].
const LANCZOS_RESIDUAL_TOL: f64 = 1e-6;
/// Restart attempts (fresh start vector, larger Krylov space) before a
/// [`BbgnnError::ConvergenceFailure`] is raised.
const LANCZOS_MAX_ATTEMPTS: usize = 3;

/// Lanczos iteration with full reorthogonalization and restart-on-failure:
/// returns the `k` algebraically largest eigenpairs of the symmetric sparse
/// matrix `a`.
///
/// `k` is clamped to `n`. The base Krylov dimension is
/// `min(n, max(3k, k + 30))`. After each run the Ritz residuals
/// `‖A v − λ v‖ / max(|λ|, 1)` are validated; a failing run is restarted
/// with a perturbed start vector and a doubled Krylov space (up to
/// `LANCZOS_MAX_ATTEMPTS` attempts) before
/// [`BbgnnError::ConvergenceFailure`] reports the best residual reached.
/// Deterministic given `seed` (restart seeds are derived from it).
///
/// # Panics
/// Panics if `a` is not square.
pub fn try_lanczos_topk(a: &CsrMatrix, k: usize, seed: u64) -> BbgnnResult<Eigen> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "lanczos_topk requires a square matrix");
    if let Some((idx, value)) = first_non_finite(a.values()) {
        return Err(BbgnnError::NumericalDivergence {
            what: format!("lanczos_topk: stored entry #{idx}"),
            value,
        });
    }
    let k = k.min(n);
    if k == 0 || n == 0 {
        return Ok(Eigen {
            values: Vec::new(),
            vectors: DenseMatrix::zeros(n, 0),
        });
    }
    let base_dim = n.min((3 * k).max(k + 30));
    let mut best_residual = f64::INFINITY;
    let mut best: Option<Eigen> = None;
    for attempt in 0..LANCZOS_MAX_ATTEMPTS {
        // Cooperative stop site (DESIGN.md §11): restart boundaries only —
        // a Krylov build runs to completion once started.
        bbgnn_supervise::check("lanczos/restart")?;
        // Deterministic restart schedule: new start vector, larger space.
        let attempt_seed = seed.wrapping_add((attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let dim = n.min(base_dim << attempt);
        let eig = lanczos_once(a, k, attempt_seed, dim)?;
        let residual = max_ritz_residual(a, &eig);
        if residual <= LANCZOS_RESIDUAL_TOL {
            return Ok(eig);
        }
        if residual < best_residual {
            best_residual = residual;
            best = Some(eig);
        }
    }
    drop(best);
    Err(BbgnnError::ConvergenceFailure {
        method: format!("lanczos_topk(k={k}, restarts={LANCZOS_MAX_ATTEMPTS})"),
        iters: n.min(base_dim << (LANCZOS_MAX_ATTEMPTS - 1)),
        residual: best_residual,
    })
}

/// Worst relative Ritz residual `‖A v − λ v‖ / max(|λ|, 1)` over the
/// returned eigenpairs (NaN-propagating: non-finite → `inf`).
fn max_ritz_residual(a: &CsrMatrix, eig: &Eigen) -> f64 {
    let n = a.rows();
    let mut worst = 0.0_f64;
    let mut v = vec![0.0; n];
    for (c, &lambda) in eig.values.iter().enumerate() {
        if !lambda.is_finite() {
            return f64::INFINITY;
        }
        eig.vectors.col_into(c, &mut v);
        let av = a.spmv(&v);
        let mut err = 0.0;
        for i in 0..n {
            let d = av[i] - lambda * v[i];
            err += d * d;
        }
        let rel = err.sqrt() / lambda.abs().max(1.0);
        if !rel.is_finite() {
            return f64::INFINITY;
        }
        worst = worst.max(rel);
    }
    worst
}

/// One Lanczos run with Krylov dimension `dim` (no residual validation).
///
/// Fallible only through the tridiagonal solve: a supervision stop (or a
/// convergence failure) inside [`try_jacobi_eigen`] must propagate as an
/// error — the Lanczos caller may sit outside any panic boundary (e.g. the
/// GF-Attack poisoning path), where the infallible façade would turn a
/// cooperative stop into a crash.
fn lanczos_once(a: &CsrMatrix, k: usize, seed: u64, dim: usize) -> BbgnnResult<Eigen> {
    let n = a.rows();
    // Build Krylov basis.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(dim);
    let mut alphas = Vec::with_capacity(dim);
    let mut betas = Vec::with_capacity(dim);
    let v0 = DenseMatrix::gaussian(n, 1, 1.0, seed).into_vec();
    let norm0 = v0.iter().map(|x| x * x).sum::<f64>().sqrt();
    let mut v: Vec<f64> = v0.iter().map(|x| x / norm0).collect();
    let mut v_prev = vec![0.0; n];
    let mut beta_prev = 0.0;
    for _j in 0..dim {
        basis.push(v.clone());
        let mut w = a.spmv(&v);
        let alpha: f64 = w.iter().zip(&v).map(|(&x, &y)| x * y).sum();
        for i in 0..n {
            w[i] -= alpha * v[i] + beta_prev * v_prev[i];
        }
        // Full reorthogonalization (twice for stability).
        for _ in 0..2 {
            for b in &basis {
                let proj: f64 = w.iter().zip(b).map(|(&x, &y)| x * y).sum();
                for i in 0..n {
                    w[i] -= proj * b[i];
                }
            }
        }
        alphas.push(alpha);
        let beta = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        betas.push(beta);
        if beta < 1e-12 {
            break;
        }
        v_prev = std::mem::replace(&mut v, w.iter().map(|x| x / beta).collect());
        beta_prev = beta;
    }
    let m = basis.len();
    // Tridiagonal matrix in the Krylov basis.
    let mut t = DenseMatrix::zeros(m, m);
    for j in 0..m {
        t.set(j, j, alphas[j]);
        if j + 1 < m {
            t.set(j, j + 1, betas[j]);
            t.set(j + 1, j, betas[j]);
        }
    }
    let tri = try_jacobi_eigen(&t)?;
    let kk = k.min(m);
    let mut vectors = DenseMatrix::zeros(n, kk);
    // Accumulate each Ritz vector in a contiguous scratch column, then
    // store it with one strided write instead of n strided `add_at` calls.
    let mut ritz = vec![0.0; n];
    for c in 0..kk {
        ritz.fill(0.0);
        for (j, b) in basis.iter().enumerate() {
            let w = tri.vectors.get(j, c);
            if w != 0.0 {
                for (o, &bi) in ritz.iter_mut().zip(b) {
                    *o += w * bi;
                }
            }
        }
        vectors.set_col(c, &ritz);
    }
    // Re-orthonormalize the Ritz vectors (cheap, kk columns).
    let vectors = thin_qr(&vectors).q;
    Ok(Eigen {
        values: tri.values[..kk].to_vec(),
        vectors,
    })
}

/// Infallible façade over [`try_lanczos_topk`].
///
/// # Panics
/// Panics if `a` is not square, contains non-finite entries, or every
/// restart fails its residual check.
pub fn lanczos_topk(a: &CsrMatrix, k: usize, seed: u64) -> Eigen {
    // lint: allow(panic) reason=documented infallible facade — try_lanczos_topk is the recoverable path
    try_lanczos_topk(a, k, seed).unwrap_or_else(|e| panic!("lanczos_topk: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_symmetric(n: usize, seed: u64) -> DenseMatrix {
        let mut a = DenseMatrix::uniform(n, n, 1.0, seed);
        a.symmetrize();
        a
    }

    #[test]
    fn jacobi_eigen_reconstructs() {
        let a = random_symmetric(10, 41);
        let e = jacobi_eigen(&a);
        assert!(e.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn jacobi_eigen_orthonormal_and_sorted() {
        let a = random_symmetric(8, 42);
        let e = jacobi_eigen(&a);
        let gram = e.vectors.matmul_tn(&e.vectors);
        assert!(gram.max_abs_diff(&DenseMatrix::identity(8)) < 1e-9);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn jacobi_eigen_known_spectrum() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = jacobi_eigen(&a);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn trace_is_eigenvalue_sum() {
        let a = random_symmetric(12, 43);
        let e = jacobi_eigen(&a);
        let trace: f64 = (0..12).map(|i| a.get(i, i)).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn lanczos_matches_jacobi_on_top_eigenpairs() {
        let dense = random_symmetric(30, 44);
        let sparse = CsrMatrix::from_dense(&dense, 0.0);
        let full = jacobi_eigen(&dense);
        let top = lanczos_topk(&sparse, 5, 7);
        for i in 0..5 {
            assert!(
                (full.values[i] - top.values[i]).abs() < 1e-6,
                "eigenvalue {i}: {} vs {}",
                full.values[i],
                top.values[i]
            );
        }
        // Eigenvectors match up to sign.
        for c in 0..5 {
            let dot: f64 = (0..30)
                .map(|i| full.vectors.get(i, c) * top.vectors.get(i, c))
                .sum();
            assert!(
                dot.abs() > 1.0 - 1e-5,
                "eigenvector {c} mismatch, |dot| = {}",
                dot.abs()
            );
        }
    }

    #[test]
    fn lanczos_on_path_graph_spectrum() {
        // Path graph adjacency eigenvalues are 2cos(k*pi/(n+1)).
        let n = 20;
        let mut trips = Vec::new();
        for i in 0..n - 1 {
            trips.push((i, i + 1, 1.0));
            trips.push((i + 1, i, 1.0));
        }
        let a = CsrMatrix::from_triplets(n, n, trips);
        let e = lanczos_topk(&a, 3, 2);
        let pi = std::f64::consts::PI;
        for (i, &val) in e.values.iter().enumerate() {
            let expected = 2.0 * ((i + 1) as f64 * pi / (n + 1) as f64).cos();
            assert!((val - expected).abs() < 1e-8, "{val} vs {expected}");
        }
    }

    #[test]
    fn try_jacobi_eigen_rejects_nan() {
        let mut a = random_symmetric(6, 45);
        a.set(1, 3, f64::NAN);
        assert!(matches!(
            try_jacobi_eigen(&a),
            Err(BbgnnError::NumericalDivergence { .. })
        ));
    }

    #[test]
    fn try_lanczos_rejects_nan_entries() {
        let a = CsrMatrix::from_triplets(3, 3, [(0, 1, f64::NAN), (1, 0, f64::NAN)]);
        match try_lanczos_topk(&a, 2, 1) {
            Err(BbgnnError::NumericalDivergence { value, .. }) => assert!(value.is_nan()),
            other => panic!("expected NumericalDivergence, got {other:?}"),
        }
    }

    #[test]
    fn try_lanczos_handles_near_degenerate_spectrum() {
        // A near-multiple top eigenvalue (two dominant, nearly equal) plus
        // near-zero bulk: Ritz residual validation must still pass, via
        // restart if the first Krylov space is unlucky.
        let n = 40;
        let mut trips = Vec::new();
        for i in 0..n {
            // Two clusters: λ ≈ 5 (twice, split by 1e-10) and a near-zero tail.
            let val = match i {
                0 => 5.0,
                1 => 5.0 - 1e-10,
                _ => 1e-9 * (i as f64),
            };
            trips.push((i, i, val));
        }
        let a = CsrMatrix::from_triplets(n, n, trips);
        let e = try_lanczos_topk(&a, 2, 11).unwrap();
        assert!((e.values[0] - 5.0).abs() < 1e-8);
        assert!((e.values[1] - 5.0).abs() < 1e-8);
    }

    #[test]
    fn try_lanczos_zero_k_is_empty() {
        let a = CsrMatrix::from_triplets(4, 4, [(0, 1, 1.0), (1, 0, 1.0)]);
        let e = try_lanczos_topk(&a, 0, 3).unwrap();
        assert!(e.values.is_empty());
    }
}
