//! First-order optimizers over plain parameter matrices.
//!
//! Parameters live outside the tape, so optimizers operate on
//! `&mut [DenseMatrix]` aligned with a `&[&DenseMatrix]` gradient slice
//! produced after a backward pass.

use bbgnn_linalg::DenseMatrix;

/// Adam optimizer (Kingma & Ba) with the defaults used by the reference GCN
/// implementations (`lr = 0.01`, `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Stabilizer.
    pub eps: f64,
    /// L2 weight-decay coefficient applied to the gradient.
    pub weight_decay: f64,
    m: Vec<DenseMatrix>,
    v: Vec<DenseMatrix>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer for a parameter set with the given shapes.
    pub fn new(lr: f64, weight_decay: f64, params: &[DenseMatrix]) -> Self {
        let m = params
            .iter()
            .map(|p| DenseMatrix::zeros(p.rows(), p.cols()))
            .collect();
        let v = params
            .iter()
            .map(|p| DenseMatrix::zeros(p.rows(), p.cols()))
            .collect();
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            m,
            v,
            t: 0,
        }
    }

    /// Applies one Adam update. `grads[i]` may be `None` when a parameter
    /// did not participate in the loss (it is then skipped).
    ///
    /// # Panics
    /// Panics if `params` and `grads` lengths differ.
    pub fn step(&mut self, params: &mut [DenseMatrix], grads: &[Option<&DenseMatrix>]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        self.t += 1;
        // powf, not `powi(self.t as i32)`: the `as i32` cast wraps for
        // step counts past i32::MAX, and a negative exponent turns the
        // bias corrections into garbage (≤ 0), flipping the update sign.
        let bc1 = 1.0 - self.beta1.powf(self.t as f64);
        let bc2 = 1.0 - self.beta2.powf(self.t as f64);
        for ((p, g), (m, v)) in params
            .iter_mut()
            .zip(grads)
            .zip(self.m.iter_mut().zip(self.v.iter_mut()))
        {
            let Some(g) = g else { continue };
            let pd = p.as_mut_slice();
            let gd = g.as_slice();
            let md = m.as_mut_slice();
            let vd = v.as_mut_slice();
            for i in 0..pd.len() {
                let grad = gd[i] + self.weight_decay * pd[i];
                md[i] = self.beta1 * md[i] + (1.0 - self.beta1) * grad;
                vd[i] = self.beta2 * vd[i] + (1.0 - self.beta2) * grad * grad;
                let mhat = md[i] / bc1;
                let vhat = vd[i] / bc2;
                pd[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Plain stochastic gradient descent with optional weight decay.
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// L2 weight-decay coefficient.
    pub weight_decay: f64,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f64, weight_decay: f64) -> Self {
        Self { lr, weight_decay }
    }

    /// Applies one SGD update; `None` gradients are skipped.
    pub fn step(&self, params: &mut [DenseMatrix], grads: &[Option<&DenseMatrix>]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            let Some(g) = g else { continue };
            let pd = p.as_mut_slice();
            let gd = g.as_slice();
            for i in 0..pd.len() {
                pd[i] -= self.lr * (gd[i] + self.weight_decay * pd[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    /// Minimizes ||X - T||_F^2 and checks convergence.
    fn quadratic_loss_converges(use_adam: bool) {
        let target = DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
        let mut params = vec![DenseMatrix::zeros(2, 2)];
        let mut adam = Adam::new(0.1, 0.0, &params);
        let sgd = Sgd::new(0.1, 0.0);
        for _ in 0..300 {
            let mut t = Tape::new();
            let x = t.var(&params[0]);
            let d = t.sub_const(x, &target);
            let sq = t.hadamard(d, d);
            let loss = t.sum_all(sq);
            t.backward(loss);
            let g = t.grad(x).cloned().unwrap();
            if use_adam {
                adam.step(&mut params, &[Some(&g)]);
            } else {
                sgd.step(&mut params, &[Some(&g)]);
            }
        }
        assert!(params[0].max_abs_diff(&target) < 1e-3);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        quadratic_loss_converges(true);
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        quadratic_loss_converges(false);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut params = vec![DenseMatrix::filled(2, 2, 1.0)];
        let zeros = DenseMatrix::zeros(2, 2);
        let sgd = Sgd::new(0.1, 0.5);
        sgd.step(&mut params, &[Some(&zeros)]);
        assert!((params[0].get(0, 0) - 0.95).abs() < 1e-12);
    }

    /// Regression test for the bias-correction overflow: with the old
    /// `powi(self.t as i32)` the step count wrapped negative past
    /// `i32::MAX`, making `β^t` blow up and the corrections non-positive.
    /// At any huge `t`, `β^t` underflows to 0, so `bc ≈ 1` and a step must
    /// move the parameter by a small finite amount in the right direction.
    #[test]
    fn bias_correction_survives_huge_step_counts() {
        let mut params = vec![DenseMatrix::filled(1, 1, 1.0)];
        let grad = DenseMatrix::filled(1, 1, 1.0);
        let mut adam = Adam::new(0.1, 0.0, &params);
        // Simulate a run that has been stepping for longer than i32::MAX
        // iterations (the cast `t as i32` would yield a negative value).
        adam.t = i32::MAX as u64 + 7;
        adam.step(&mut params, &[Some(&grad)]);
        let p = params[0].get(0, 0);
        assert!(p.is_finite(), "update at huge t must stay finite, got {p}");
        assert!(
            p < 1.0 && p > 0.0,
            "a positive gradient must decrease the parameter sanely, got {p}"
        );
    }

    #[test]
    fn none_gradients_are_skipped() {
        let mut params = vec![DenseMatrix::filled(1, 1, 3.0)];
        let mut adam = Adam::new(0.5, 0.0, &params);
        adam.step(&mut params, &[None]);
        assert_eq!(params[0].get(0, 0), 3.0);
    }
}
