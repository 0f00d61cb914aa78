//! Finite-difference gradient checking.
//!
//! Every autodiff op in this workspace is validated against central
//! differences. The checker rebuilds the tape from scratch for every probe,
//! so the closure must be a pure function of its input matrices.

use crate::{Tape, TensorId};
use bbgnn_linalg::DenseMatrix;

/// Compares the analytic gradient of `f` with central finite differences.
///
/// `f` receives a fresh tape plus the variable ids for `inputs` (in order)
/// and must return a scalar (`1 × 1`) output tensor. Returns the maximum
/// absolute deviation across all inputs and coordinates.
pub fn max_gradient_error(
    inputs: &[DenseMatrix],
    eps: f64,
    f: impl Fn(&mut Tape, &[TensorId]) -> TensorId,
) -> f64 {
    // Analytic gradients.
    let mut tape = Tape::new();
    let ids: Vec<TensorId> = inputs.iter().map(|m| tape.var(m)).collect();
    let out = f(&mut tape, &ids);
    tape.backward(out);
    let analytic: Vec<DenseMatrix> = ids
        .iter()
        .zip(inputs)
        .map(|(&id, m)| {
            tape.grad(id)
                .cloned()
                .unwrap_or_else(|| DenseMatrix::zeros(m.rows(), m.cols()))
        })
        .collect();

    let eval = |probe: &[DenseMatrix]| -> f64 {
        let mut t = Tape::new();
        let ids: Vec<TensorId> = probe.iter().map(|m| t.var(m)).collect();
        let out = f(&mut t, &ids);
        t.value(out).get(0, 0)
    };

    let mut max_err = 0.0_f64;
    for (k, m) in inputs.iter().enumerate() {
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let mut plus: Vec<DenseMatrix> = inputs.to_vec();
                plus[k].add_at(i, j, eps);
                let mut minus: Vec<DenseMatrix> = inputs.to_vec();
                minus[k].add_at(i, j, -eps);
                let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
                let err = (numeric - analytic[k].get(i, j)).abs();
                max_err = max_err.max(err);
            }
        }
    }
    max_err
}

/// Asserts the gradient of `f` matches finite differences to within `tol`.
///
/// # Panics
/// Panics with the observed error if the check fails.
pub fn assert_gradients(
    inputs: &[DenseMatrix],
    tol: f64,
    f: impl Fn(&mut Tape, &[TensorId]) -> TensorId,
) {
    let err = max_gradient_error(inputs, 1e-5, f);
    assert!(
        err < tol,
        "gradient check failed: max error {err} >= tol {tol}"
    );
}
