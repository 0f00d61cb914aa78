//! The Kipf–Welling graph convolutional network (Eq. 1–2 of the paper).

use crate::train::{train_node_classifier, Mode, TrainConfig, TrainReport};
use crate::NodeClassifier;
use bbgnn_autodiff::{dropout_csr, Tape, TensorId};
use bbgnn_graph::Graph;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use std::rc::Rc;

/// A GCN with `layers.len() + 1` weight matrices:
/// `Z = softmax(A_n σ(A_n … σ(A_n X W⁰) …) W^L)`.
///
/// The paper's victim model is the 2-layer instance with 16 hidden units;
/// [`Gcn::paper_default`] builds exactly that. Depth is configurable for
/// the Fig. 7(b) layer-sensitivity experiment.
pub struct Gcn {
    /// Hidden layer widths (one entry per hidden layer).
    pub hidden: Vec<usize>,
    /// Training configuration.
    pub config: TrainConfig,
    weights: Vec<DenseMatrix>,
}

/// Hidden widths as a stable key token, e.g. `16x16`.
fn join_dims(dims: &[usize]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

impl Gcn {
    /// Creates an untrained GCN with the given hidden widths.
    pub fn new(hidden: Vec<usize>, config: TrainConfig) -> Self {
        Self {
            hidden,
            config,
            weights: Vec::new(),
        }
    }

    /// The paper's victim: 2 layers, 16 hidden units.
    pub fn paper_default(config: TrainConfig) -> Self {
        Self::new(vec![16], config)
    }

    /// Trained weights (empty before [`NodeClassifier::fit`]).
    pub fn weights(&self) -> &[DenseMatrix] {
        &self.weights
    }

    fn init_weights(&self, in_dim: usize, num_classes: usize) -> Vec<DenseMatrix> {
        let mut dims = vec![in_dim];
        dims.extend(&self.hidden);
        dims.push(num_classes);
        dims.windows(2)
            .enumerate()
            .map(|(i, w)| DenseMatrix::glorot(w[0], w[1], self.config.seed.wrapping_add(i as u64)))
            .collect()
    }

    /// Builds the forward pass on `tape`: registers weights as variables
    /// and returns `(logits, weight_ids)`. Dropout applies to the input of
    /// every layer (as in the reference implementation) under
    /// [`Mode::Train`] only; `x` is the sparse input of [`gcn_layers`].
    fn forward(
        &self,
        tape: &mut Tape,
        weights: &[DenseMatrix],
        an: &Rc<CsrMatrix>,
        x: &Rc<CsrMatrix>,
        mode: Mode,
    ) -> (TensorId, Vec<TensorId>) {
        let ids: Vec<TensorId> = weights.iter().map(|w| tape.var(w.clone())).collect();
        let p = self.config.dropout;
        let epoch = mode.train_epoch().filter(|_| p > 0.0);
        let base = self.config.seed.wrapping_add(1000);
        let logits = gcn_layers(tape, &ids, an, x, |l| {
            epoch.map(|e| (p, base.wrapping_add((e as u64) * 31 + l as u64)))
        });
        (logits, ids)
    }

    /// Trains on `g` but propagates over a caller-supplied (possibly
    /// weighted or purified) normalized adjacency — the entry point used by
    /// preprocessing defenders like GCN-SVD.
    pub fn fit_on(&mut self, g: &Graph, an: Rc<CsrMatrix>) -> TrainReport {
        assert_eq!(an.rows(), g.num_nodes(), "adjacency size mismatch");
        let mut weights = self.init_weights(g.feature_dim(), g.num_classes);
        let x = sparse_input(&g.features);
        let cfg = self.config.clone();
        // The adjacency is a caller-supplied input (e.g. GCN-SVD's purified
        // graph), so its content hash must be part of the key: a raw GCN and
        // a purified one share `g` and config but must never share weights.
        let salt = || {
            bbgnn_store::Key::new("model/gcn")
                .field("hidden", join_dims(&self.hidden))
                .hash_field("an", an.content_hash())
        };
        let this = &*self;
        let report = train_node_classifier(&mut weights, g, &cfg, salt, |tape, params, mode| {
            let (logits, ids) = this.forward(tape, params, &an, &x, mode);
            (logits, ids, None)
        });
        self.weights = weights;
        report
    }

    /// Logits using the trained weights over a caller-supplied normalized
    /// adjacency.
    pub fn logits_on(&self, features: &DenseMatrix, an: &Rc<CsrMatrix>) -> DenseMatrix {
        assert!(!self.weights.is_empty(), "model is not trained");
        let mut tape = Tape::new();
        let x = sparse_input(features);
        let (out, _) = self.forward(&mut tape, &self.weights, an, &x, Mode::Eval);
        tape.value(out).clone()
    }

    /// Logits for an arbitrary graph using the trained weights.
    pub fn logits(&self, g: &Graph) -> DenseMatrix {
        let an = Rc::new(g.normalized_adjacency());
        self.logits_on(&g.features, &an)
    }

    /// Mean train-split cross-entropy of `softmax(Â_n relu(Â_n X W₀) W₁)`
    /// on `tape`, where `Â_n` is [`normalize_dense`] of the dense adjacency
    /// tensor `a` and the trained 2-layer weights are constants — the loss
    /// the white-box attacks ascend and Pro-GNN descends through `a`.
    pub fn dense_loss(
        &self,
        tape: &mut Tape,
        a: TensorId,
        eye: &Rc<DenseMatrix>,
        g: &Graph,
    ) -> TensorId {
        let w = &self.weights;
        assert_eq!(w.len(), 2, "the dense loss is the paper's 2-layer GCN");
        let an = normalize_dense(tape, a, eye);
        let xw0 = tape.constant(g.features.matmul(&w[0]));
        let h1 = tape.matmul(an, xw0);
        let h1 = tape.relu(h1);
        let w1 = tape.constant(w[1].clone());
        let h1w = tape.matmul(h1, w1);
        let logits = tape.matmul(an, h1w);
        let labels = Rc::new(g.labels.clone());
        tape.cross_entropy(logits, labels, Rc::new(g.split.train.clone()))
    }
}

/// The features as the constant CSR a first layer multiplies: every entry
/// that is not zero, NaN included (DESIGN.md §7, "Sparse input layer").
pub fn sparse_input(features: &DenseMatrix) -> Rc<CsrMatrix> {
    Rc::new(CsrMatrix::from_dense_nonzero(features))
}

/// The GCN layer stack `A_n σ(… σ(A_n X W⁰) …) W^L` over the weight
/// variables `ids`, with `dropout(l)` the `(probability, seed)` of the
/// dropout on layer `l`'s input, or `None` for none.
///
/// The first layer multiplies the sparse input `x` (see [`sparse_input`])
/// through `spmm`, its dropout applied to the stored entries by
/// [`dropout_csr`]: bit for bit the dense `dropout(X) · W⁰` and its `W⁰`
/// gradient, with no `n × d` tensor on the tape.
pub fn gcn_layers(
    tape: &mut Tape,
    ids: &[TensorId],
    an: &Rc<CsrMatrix>,
    x: &Rc<CsrMatrix>,
    dropout: impl Fn(usize) -> Option<(f64, u64)>,
) -> TensorId {
    let x = match dropout(0) {
        Some((p, seed)) => Rc::new(dropout_csr(x, p, seed)),
        None => Rc::clone(x),
    };
    let mut hw = tape.spmm(x, ids[0]);
    for (l, &w) in ids.iter().enumerate().skip(1) {
        // lint: allow(check_site) reason=forward builds one epoch's graph; the §11 check sits at the epoch boundary in the train loop
        let h = tape.spmm(Rc::clone(an), hw);
        let mut h = tape.relu(h);
        if let Some((p, seed)) = dropout(l) {
            h = tape.dropout(h, p, seed);
        }
        hw = tape.matmul(h, w);
    }
    tape.spmm(Rc::clone(an), hw)
}

/// The GCN normalization `D^{-1/2}(A + I)D^{-1/2}` of the dense adjacency
/// tensor `a` on `tape`, differentiable in `a`; `eye` is the `n × n`
/// identity. The relaxed attacks and Pro-GNN differentiate through it.
pub fn normalize_dense(tape: &mut Tape, a: TensorId, eye: &Rc<DenseMatrix>) -> TensorId {
    let a_loop = tape.add_const(a, Rc::clone(eye));
    let deg = tape.row_sum(a_loop);
    let dinv = tape.pow_scalar(deg, -0.5);
    let scaled = tape.scale_rows(a_loop, dinv);
    tape.scale_cols(scaled, dinv)
}

impl NodeClassifier for Gcn {
    fn fit(&mut self, g: &Graph) -> TrainReport {
        self.fit_on(g, Rc::new(g.normalized_adjacency()))
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
    fn gcn_learns_homophilous_sbm() {
        let g = DatasetSpec::CoraLike.generate(0.08, 21);
        let mut gcn = Gcn::paper_default(TrainConfig::fast_test());
        let report = gcn.fit(&g);
        assert!(report.final_loss.is_finite());
        let acc = gcn.test_accuracy(&g);
        assert!(
            acc > 0.6,
            "GCN accuracy {acc} too low on a clean homophilous graph"
        );
    }

    #[test]
    fn gcn_beats_majority_on_identity_features() {
        // Polblogs-like: only the topology is informative.
        let g = DatasetSpec::PolblogsLike.generate(0.15, 22);
        let mut gcn = Gcn::paper_default(TrainConfig::fast_test());
        gcn.fit(&g);
        let acc = gcn.test_accuracy(&g);
        assert!(acc > 0.75, "GCN accuracy {acc} too low on polblogs-like");
    }

    #[test]
    fn deeper_gcn_still_trains() {
        let g = DatasetSpec::CoraLike.generate(0.05, 23);
        let mut gcn = Gcn::new(vec![16, 16, 16], TrainConfig::fast_test());
        gcn.fit(&g);
        let acc = gcn.test_accuracy(&g);
        assert!(
            acc > 0.35,
            "3-hidden-layer GCN accuracy {acc} unexpectedly low"
        );
    }

    #[test]
    fn logits_shape_and_prediction_range() {
        let g = DatasetSpec::CiteseerLike.generate(0.05, 24);
        let mut gcn = Gcn::paper_default(TrainConfig::fast_test());
        gcn.fit(&g);
        let logits = gcn.logits(&g);
        assert_eq!(logits.shape(), (g.num_nodes(), g.num_classes));
        for p in gcn.predict(&g) {
            assert!(p < g.num_classes);
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let g = DatasetSpec::CoraLike.generate(0.05, 25);
        let mut a = Gcn::paper_default(TrainConfig::fast_test());
        let mut b = Gcn::paper_default(TrainConfig::fast_test());
        a.fit(&g);
        b.fit(&g);
        assert_eq!(a.predict(&g), b.predict(&g));
    }

    #[test]
    #[should_panic(expected = "not trained")]
    fn predict_before_fit_panics() {
        let g = DatasetSpec::CoraLike.generate(0.05, 26);
        let gcn = Gcn::paper_default(TrainConfig::fast_test());
        let _ = gcn.predict(&g);
    }

    #[test]
    fn nan_poisoned_features_abort_training_without_panic() {
        // Fault injection: validation normally rejects NaN features at
        // construction, so poison them after the fact — the training
        // sentinels are the last line of defense.
        let mut g = DatasetSpec::CoraLike.generate(0.05, 27);
        g.features.set(3, 0, f64::NAN);
        let mut gcn = Gcn::paper_default(TrainConfig::fast_test());
        let report = gcn.fit(&g);
        assert!(
            report.diverged,
            "a NaN input must surface as a diverged report"
        );
        assert_eq!(
            report.divergence_recoveries,
            crate::train::MAX_DIVERGENCE_RECOVERIES,
            "every rollback+retry must be attempted before giving up"
        );
        // The model still holds the last-good (initial) parameters: finite
        // predictions, not a poisoned crash.
        for p in gcn.predict(&g) {
            assert!(p < g.num_classes);
        }
    }
}
