//! RGCN (Zhu et al. 2019) — Gaussian-representation defense.
//!
//! RGCN models each node's hidden representation as a Gaussian
//! `N(μ_v, diag(σ²_v))` and attenuates high-variance (likely-attacked)
//! neighbors with a variance-based attention weight `α = exp(−σ²)`:
//!
//! * layer 1 produces means `M = relu(A_n X W_μ)` and variances
//!   `Σ = relu(A_n X W_σ)`;
//! * layer 2 propagates attenuated samples
//!   `Z = A_n ((M + ε ∘ √Σ) ∘ α) W_o` with the reparameterization trick
//!   (fresh `ε ~ N(0, I)` per epoch) during training, and the plain means
//!   at inference;
//! * a KL regularizer `½ Σ (σ² + μ² − 1 − ln σ²)` pulls the layer-1
//!   Gaussians toward `N(0, I)`.
//!
//! Simplifications relative to the original (per DESIGN.md §3): a single
//! attention temperature `γ = 1` and the KL term on the first layer only.
//! The signature behaviour — variance-gated neighbor aggregation — is
//! intact.

use crate::Defender;
use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_gnn::gcn::sparse_input;
use bbgnn_gnn::train::{train_node_classifier, Mode, TrainConfig, TrainReport};
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::Graph;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use std::rc::Rc;

/// RGCN configuration.
#[derive(Clone, Debug)]
pub struct RgcnConfig {
    /// Hidden width (the paper tunes `{16, 32, 64, 128}`).
    pub hidden: usize,
    /// Weight of the KL regularizer.
    pub kl_weight: f64,
    /// Training configuration.
    pub train: TrainConfig,
}

impl Default for RgcnConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            kl_weight: 5e-4,
            train: TrainConfig::default(),
        }
    }
}

/// The RGCN defender.
pub struct Rgcn {
    /// Configuration.
    pub config: RgcnConfig,
    /// Parameter layout: `[W_μ, W_σ, W_o]`.
    params: Vec<DenseMatrix>,
}

impl Rgcn {
    /// Creates an untrained RGCN defender.
    pub fn new(config: RgcnConfig) -> Self {
        Self {
            config,
            params: Vec::new(),
        }
    }

    fn init_params(&self, in_dim: usize, num_classes: usize) -> Vec<DenseMatrix> {
        let s = self.config.train.seed;
        vec![
            DenseMatrix::glorot(in_dim, self.config.hidden, s),
            DenseMatrix::glorot(in_dim, self.config.hidden, s.wrapping_add(1)),
            DenseMatrix::glorot(self.config.hidden, num_classes, s.wrapping_add(2)),
        ]
    }

    /// Builds the forward pass over the sparse input `x`
    /// ([`sparse_input`]), which both first-layer products multiply through
    /// `spmm` (RGCN applies no input dropout); returns `(logits, ids,
    /// Some(kl))` during training and `(logits, ids, None)` at inference.
    fn forward(
        &self,
        tape: &mut Tape,
        params: &[DenseMatrix],
        an: &Rc<CsrMatrix>,
        x: &Rc<CsrMatrix>,
        mode: Mode,
    ) -> (TensorId, Vec<TensorId>, Option<TensorId>) {
        let ids: Vec<TensorId> = params.iter().map(|p| tape.var(p)).collect();
        let xmu = tape.spmm(Rc::clone(x), ids[0]);
        let mu = tape.spmm(Rc::clone(an), xmu);
        let mu = tape.relu(mu);
        let xsig = tape.spmm(Rc::clone(x), ids[1]);
        let sig = tape.spmm(Rc::clone(an), xsig);
        let sig = tape.relu(sig); // σ² ≥ 0

        // Variance-based attention α = exp(−σ²): noisy nodes whisper.
        let neg_sig = tape.scalar_mul(sig, -1.0);
        let alpha = tape.exp(neg_sig);

        let hidden = match mode.train_epoch() {
            None => mu,
            Some(epoch) => {
                // Reparameterized sample μ + ε ∘ √σ².
                let eps = Rc::new(DenseMatrix::gaussian(
                    x.rows(),
                    self.config.hidden,
                    1.0,
                    self.config.train.seed.wrapping_add(40_000 + epoch as u64),
                ));
                let std = tape.pow_scalar(sig, 0.5);
                let noise = tape.hadamard_const(std, eps);
                tape.add(mu, noise)
            }
        };
        let gated = tape.hadamard(hidden, alpha);
        let gw = tape.matmul(gated, ids[2]);
        let logits = tape.spmm(Rc::clone(an), gw);

        if !mode.is_train() {
            return (logits, ids, None);
        }
        // KL(N(μ, σ²) ‖ N(0, I)) = ½ Σ (σ² + μ² − 1 − ln σ²); the constant
        // −1 does not influence gradients and is dropped.
        let mu_sq = tape.hadamard(mu, mu);
        let ln_sig = tape.ln(sig);
        let t = tape.add(sig, mu_sq);
        let t = tape.sub(t, ln_sig);
        let kl_sum = tape.sum_all(t);
        let kl = tape.scalar_mul(kl_sum, 0.5 * self.config.kl_weight / x.rows() as f64);
        (logits, ids, Some(kl))
    }
}

impl NodeClassifier for Rgcn {
    fn fit(&mut self, g: &Graph) -> TrainReport {
        let _span = bbgnn_obs::span!("defense/rgcn/fit", nodes = g.num_nodes());
        let an = Rc::new(g.normalized_adjacency());
        let mut params = self.init_params(g.feature_dim(), g.num_classes);
        let x = sparse_input(&g.features);
        let cfg = self.config.train.clone();
        let salt = || {
            bbgnn_store::Key::new("model/rgcn")
                .field("hidden", self.config.hidden)
                .field("kl", self.config.kl_weight)
        };
        let this = &*self;
        let report = train_node_classifier(&mut params, g, &cfg, salt, |tape, p, mode| {
            this.forward(tape, p, &an, &x, mode)
        });
        self.params = params;
        report
    }

    fn predict(&self, g: &Graph) -> Vec<usize> {
        assert!(!self.params.is_empty(), "model is not trained");
        let an = Rc::new(g.normalized_adjacency());
        let mut tape = Tape::new();
        let x = sparse_input(&g.features);
        let (out, _, _) = self.forward(&mut tape, &self.params, &an, &x, Mode::Eval);
        tape.value(out).row_argmax()
    }
}

impl Defender for Rgcn {
    fn name(&self) -> String {
        "RGCN".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn learns_clean_graph() {
        let g = DatasetSpec::CoraLike.generate(0.06, 131);
        let mut rgcn = Rgcn::new(RgcnConfig {
            train: TrainConfig::fast_test(),
            ..Default::default()
        });
        let report = rgcn.fit(&g);
        assert!(report.final_loss.is_finite(), "KL term must stay finite");
        let acc = rgcn.test_accuracy(&g);
        assert!(acc > 0.55, "RGCN clean accuracy {acc} too low");
    }

    #[test]
    fn inference_is_deterministic() {
        let g = DatasetSpec::CoraLike.generate(0.05, 132);
        let mut rgcn = Rgcn::new(RgcnConfig {
            train: TrainConfig::fast_test(),
            ..Default::default()
        });
        rgcn.fit(&g);
        assert_eq!(
            rgcn.predict(&g),
            rgcn.predict(&g),
            "means-only inference must be stable"
        );
    }

    #[test]
    fn survives_poisoned_graph() {
        use bbgnn_attack::peega::{Peega, PeegaConfig};
        use bbgnn_attack::Attacker;
        let g = DatasetSpec::CoraLike.generate(0.06, 133);
        let mut atk = Peega::new(PeegaConfig {
            rate: 0.15,
            ..Default::default()
        });
        let poisoned = atk.attack(&g).poisoned;
        let mut rgcn = Rgcn::new(RgcnConfig {
            train: TrainConfig::fast_test(),
            ..Default::default()
        });
        rgcn.fit(&poisoned);
        let acc = rgcn.test_accuracy(&poisoned);
        assert!(
            acc > 0.3,
            "RGCN accuracy {acc} under attack fell to chance level"
        );
    }
}
