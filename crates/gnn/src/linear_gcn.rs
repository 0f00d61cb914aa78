//! The linear GCN surrogate `Z = softmax(A_nᴸ X W)`.
//!
//! This is the model the paper's Eq. (7) linearizes a GCN into, and the
//! surrogate Metattack trains in the gray-box setting. Because there is no
//! nonlinearity, the propagation `A_nᴸ X` can be precomputed once; training
//! reduces to logistic regression on the propagated features.

use crate::train::{train_node_classifier, TrainConfig, TrainReport};
use crate::NodeClassifier;
use bbgnn_graph::Graph;
use bbgnn_linalg::DenseMatrix;

/// Linear GCN with `hops` propagation steps (the paper uses 2).
pub struct LinearGcn {
    /// Number of propagation hops `L`.
    pub hops: usize,
    /// Training configuration (dropout is ignored — the model is linear).
    pub config: TrainConfig,
    weight: Option<DenseMatrix>,
}

impl LinearGcn {
    /// Creates an untrained linear GCN.
    pub fn new(hops: usize, config: TrainConfig) -> Self {
        Self {
            hops,
            config,
            weight: None,
        }
    }

    /// The trained weight matrix, if fitted.
    pub fn weight(&self) -> Option<&DenseMatrix> {
        self.weight.as_ref()
    }

    /// Logits on graph `g` with the trained weight.
    pub fn logits(&self, g: &Graph) -> DenseMatrix {
        self.logits_from_propagation(&g.propagate(self.hops))
    }

    /// Logits from an externally supplied propagation `h = A_nᴸ X` (e.g.
    /// the incrementally maintained state of `bbgnn_linalg::incr`).
    /// Byte-identical to [`Self::logits`] when `h` matches
    /// `g.propagate(self.hops)` bitwise.
    pub fn logits_from_propagation(&self, h: &DenseMatrix) -> DenseMatrix {
        // lint: allow(panic) reason=documented precondition — callers must fit() first, and weight() exposes a fallible probe
        let w = self.weight.as_ref().expect("model is not trained");
        h.matmul(w)
    }

    /// Predicted labels from an externally supplied propagation; the
    /// propagation-injected counterpart of [`NodeClassifier::predict`].
    pub fn predict_from_propagation(&self, h: &DenseMatrix) -> Vec<usize> {
        self.logits_from_propagation(h).row_argmax()
    }

    /// Fits the classifier using an externally supplied propagation
    /// `h = A_nᴸ X` instead of recomputing it from `g`. Labels, splits,
    /// and the store salt still come from `g`; byte-identical to
    /// [`NodeClassifier::fit`] when `h` matches `g.propagate(self.hops)`
    /// bitwise.
    pub fn fit_with_propagation(&mut self, g: &Graph, h: &DenseMatrix) -> TrainReport {
        let mut params = vec![DenseMatrix::glorot(
            g.feature_dim(),
            g.num_classes,
            self.config.seed,
        )];
        let cfg = self.config.clone();
        let salt = || bbgnn_store::Key::new("model/linear_gcn").field("hops", self.hops);
        let report = train_node_classifier(&mut params, g, &cfg, salt, |tape, p, _| {
            let w = tape.var(&p[0]);
            let hc = tape.constant(h);
            (tape.matmul(hc, w), vec![w], None)
        });
        // lint: allow(panic) reason=params is constructed three lines up with exactly one weight matrix
        self.weight = Some(params.pop().expect("one parameter"));
        report
    }
}

impl NodeClassifier for LinearGcn {
    fn fit(&mut self, g: &Graph) -> TrainReport {
        self.fit_with_propagation(g, &g.propagate(self.hops))
    }

    fn predict(&self, g: &Graph) -> Vec<usize> {
        self.logits(g).row_argmax()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn linear_surrogate_tracks_gcn_accuracy() {
        let g = DatasetSpec::CoraLike.generate(0.08, 31);
        let mut lin = LinearGcn::new(2, TrainConfig::fast_test());
        lin.fit(&g);
        let acc = lin.test_accuracy(&g);
        assert!(acc > 0.45, "linear surrogate accuracy {acc} too low");
    }

    #[test]
    fn more_hops_changes_predictions() {
        let g = DatasetSpec::CoraLike.generate(0.05, 32);
        let mut l1 = LinearGcn::new(1, TrainConfig::fast_test());
        let mut l3 = LinearGcn::new(3, TrainConfig::fast_test());
        l1.fit(&g);
        l3.fit(&g);
        assert_ne!(l1.predict(&g), l3.predict(&g));
    }

    #[test]
    fn zero_hop_is_plain_logistic_regression() {
        let g = DatasetSpec::CoraLike.generate(0.1, 33);
        let mut l0 = LinearGcn::new(0, TrainConfig::fast_test());
        l0.fit(&g);
        // With class-correlated features this must beat chance (1/7).
        let acc = l0.test_accuracy(&g);
        // Plain logistic regression on the deliberately-noisy features:
        // beating chance (1/7) clearly is the contract.
        assert!(acc > 0.25, "0-hop accuracy {acc} barely above chance");
    }
}
