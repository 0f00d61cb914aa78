//! SimPGCN (Jin et al. 2021) — similarity-preserving defense.
//!
//! SimPGCN runs two propagation channels — the given (possibly poisoned)
//! graph and a feature-kNN graph — and blends them per node with learned
//! gates, plus a gated self term that preserves each node's own features:
//!
//! ```text
//!   H^{l+1} = s ∘ (A_n H^l W) + (1 − s) ∘ (A_f H^l W) + e ∘ (H^l W)
//!   s = sigmoid(X w_s),  e = sigmoid(X w_e)          (per-node gates)
//! ```
//!
//! A self-supervised regularizer keeps embeddings similarity-preserving:
//! for sampled node pairs, the squared embedding distance of the hidden
//! layer is regressed onto the pair's feature dissimilarity
//! `1 − cos(x_u, x_v)`. Simplifications vs. the original (DESIGN.md §3):
//! gates are computed from the raw features at every layer, and the SSL
//! pairs are sampled uniformly rather than from the similarity extremes.

use crate::Defender;
use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_gnn::gcn::sparse_input;
use bbgnn_gnn::train::{train_node_classifier, Mode, TrainConfig, TrainReport};
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::Graph;
use bbgnn_linalg::dense::cosine_similarity;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// SimPGCN configuration.
#[derive(Clone, Debug)]
pub struct SimPGcnConfig {
    /// Hidden width.
    pub hidden: usize,
    /// kNN neighbor count of the feature graph.
    pub knn: usize,
    /// Number of sampled SSL node pairs.
    pub ssl_pairs: usize,
    /// SSL loss weight.
    pub ssl_weight: f64,
    /// Training configuration.
    pub train: TrainConfig,
}

impl Default for SimPGcnConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            knn: 20,
            ssl_pairs: 128,
            ssl_weight: 0.1,
            train: TrainConfig::default(),
        }
    }
}

/// The SimPGCN defender.
pub struct SimPGcn {
    /// Configuration.
    pub config: SimPGcnConfig,
    /// Parameter layout: `[W0, W1, w_s, w_e]`.
    params: Vec<DenseMatrix>,
    trained_graphs: Option<(Rc<CsrMatrix>, Rc<CsrMatrix>)>,
}

impl SimPGcn {
    /// Creates an untrained SimPGCN defender.
    pub fn new(config: SimPGcnConfig) -> Self {
        Self {
            config,
            params: Vec::new(),
            trained_graphs: None,
        }
    }

    fn init_params(&self, in_dim: usize, num_classes: usize) -> Vec<DenseMatrix> {
        let s = self.config.train.seed;
        vec![
            DenseMatrix::glorot(in_dim, self.config.hidden, s),
            DenseMatrix::glorot(self.config.hidden, num_classes, s.wrapping_add(1)),
            DenseMatrix::glorot(in_dim, 1, s.wrapping_add(2)),
            DenseMatrix::glorot(in_dim, 1, s.wrapping_add(3)),
        ]
    }

    /// Normalized feature-kNN propagation graph of `g`.
    fn knn_graph(&self, g: &Graph) -> CsrMatrix {
        let edges = crate::knn_feature_edges(&g.features, self.config.knn);
        let n = g.num_nodes();
        let triplets = edges.iter().flat_map(|&(u, v)| [(u, v, 1.0), (v, u, 1.0)]);
        CsrMatrix::from_triplets(n, n, triplets).gcn_normalize()
    }

    /// Sampled SSL pairs with their feature-dissimilarity targets, as
    /// `(selector_a, selector_b, targets)`.
    fn ssl_pairs(&self, g: &Graph) -> (Rc<CsrMatrix>, Rc<CsrMatrix>, Rc<DenseMatrix>) {
        let n = g.num_nodes();
        let m = self.config.ssl_pairs.min(n * (n - 1) / 2).max(1);
        let mut rng = StdRng::seed_from_u64(self.config.train.seed.wrapping_add(9999));
        let mut ta = Vec::with_capacity(m);
        let mut tb = Vec::with_capacity(m);
        let mut targets = Vec::with_capacity(m);
        for row in 0..m {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            ta.push((row, a, 1.0));
            tb.push((row, b, 1.0));
            targets.push(1.0 - cosine_similarity(g.features.row(a), g.features.row(b)));
        }
        (
            Rc::new(CsrMatrix::from_triplets(m, n, ta)),
            Rc::new(CsrMatrix::from_triplets(m, n, tb)),
            Rc::new(DenseMatrix::from_vec(m, 1, targets)),
        )
    }

    /// One gated layer over the projected input `hw = h W`:
    /// `s∘(A_n hw) + (1−s)∘(A_f hw) + e∘hw`.
    fn gated_layer(
        tape: &mut Tape,
        hw: TensorId,
        an: &Rc<CsrMatrix>,
        af: &Rc<CsrMatrix>,
        s_gate: TensorId,
        s_comp: TensorId,
        e_gate: TensorId,
    ) -> TensorId {
        let p_graph = tape.spmm(Rc::clone(an), hw);
        let p_knn = tape.spmm(Rc::clone(af), hw);
        let g1 = tape.scale_rows(p_graph, s_gate);
        let g2 = tape.scale_rows(p_knn, s_comp);
        let g3 = tape.scale_rows(hw, e_gate);
        let t = tape.add(g1, g2);
        tape.add(t, g3)
    }

    /// The forward pass over the sparse input `x` ([`sparse_input`]),
    /// which the gates and the first layer multiply through `spmm`
    /// (SimPGCN applies no input dropout).
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &self,
        tape: &mut Tape,
        params: &[DenseMatrix],
        an: &Rc<CsrMatrix>,
        af: &Rc<CsrMatrix>,
        x: &Rc<CsrMatrix>,
        ssl: Option<&(Rc<CsrMatrix>, Rc<CsrMatrix>, Rc<DenseMatrix>)>,
        mode: Mode,
    ) -> (TensorId, Vec<TensorId>, Option<TensorId>) {
        let ids: Vec<TensorId> = params.iter().map(|p| tape.var(p)).collect();
        // Per-node gates from the raw features.
        let s_lin = tape.spmm(Rc::clone(x), ids[2]);
        let s_gate = tape.sigmoid(s_lin);
        let neg_s = tape.scalar_mul(s_gate, -1.0);
        let ones = Rc::new(DenseMatrix::filled(x.rows(), 1, 1.0));
        let s_comp = tape.add_const(neg_s, ones);
        let e_lin = tape.spmm(Rc::clone(x), ids[3]);
        let e_gate = tape.sigmoid(e_lin);

        let xw = tape.spmm(Rc::clone(x), ids[0]);
        let h1 = Self::gated_layer(tape, xw, an, af, s_gate, s_comp, e_gate);
        let h1 = tape.relu(h1);
        let mut h1d = h1;
        if let (true, Some(epoch)) = (self.config.train.dropout > 0.0, mode.train_epoch()) {
            h1d = tape.dropout(
                h1,
                self.config.train.dropout,
                self.config.train.seed.wrapping_add(60_000 + epoch as u64),
            );
        }
        let hw = tape.matmul(h1d, ids[1]);
        let logits = Self::gated_layer(tape, hw, an, af, s_gate, s_comp, e_gate);

        let reg = match ssl {
            Some((sa, sb, targets)) if mode.is_train() && self.config.ssl_weight > 0.0 => {
                let ha = tape.spmm(Rc::clone(sa), h1);
                let hb = tape.spmm(Rc::clone(sb), h1);
                let d = tape.sub(ha, hb);
                let sq = tape.hadamard(d, d);
                let dist = tape.row_sum(sq);
                let err = tape.sub_const(dist, targets);
                let err_sq = tape.hadamard(err, err);
                let total = tape.sum_all(err_sq);
                Some(tape.scalar_mul(total, self.config.ssl_weight / targets.rows() as f64))
            }
            _ => None,
        };
        (logits, ids, reg)
    }
}

impl NodeClassifier for SimPGcn {
    fn fit(&mut self, g: &Graph) -> TrainReport {
        let _span = bbgnn_obs::span!("defense/simpgcn/fit", nodes = g.num_nodes());
        let an = Rc::new(g.normalized_adjacency());
        let af = Rc::new(self.knn_graph(g));
        self.trained_graphs = Some((Rc::clone(&an), Rc::clone(&af)));
        let ssl = self.ssl_pairs(g);
        let mut params = self.init_params(g.feature_dim(), g.num_classes);
        let x = sparse_input(&g.features);
        let cfg = self.config.train.clone();
        let salt = || {
            bbgnn_store::Key::new("model/simpgcn")
                .field("hidden", self.config.hidden)
                .field("knn", self.config.knn)
                .field("ssl_pairs", self.config.ssl_pairs)
                .field("ssl_weight", self.config.ssl_weight)
        };
        let this = &*self;
        let report = train_node_classifier(&mut params, g, &cfg, salt, |tape, p, mode| {
            this.forward(tape, p, &an, &af, &x, Some(&ssl), mode)
        });
        self.params = params;
        report
    }

    fn predict(&self, g: &Graph) -> Vec<usize> {
        assert!(!self.params.is_empty(), "model is not trained");
        // lint: allow(panic) reason=documented precondition — callers must fit() first
        let (an, af) = self.trained_graphs.as_ref().expect("model is not trained");
        let mut tape = Tape::new();
        let x = sparse_input(&g.features);
        let (out, _, _) = self.forward(&mut tape, &self.params, an, af, &x, None, Mode::Eval);
        tape.value(out).row_argmax()
    }
}

impl Defender for SimPGcn {
    fn name(&self) -> String {
        "SimPGCN".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn learns_clean_graph() {
        let g = DatasetSpec::CoraLike.generate(0.06, 151);
        let mut m = SimPGcn::new(SimPGcnConfig {
            train: TrainConfig::fast_test(),
            ..Default::default()
        });
        let report = m.fit(&g);
        assert!(report.final_loss.is_finite());
        let acc = m.test_accuracy(&g);
        // Well above chance (1/7): SimPGCN's self-supervised term makes it
        // the most seed-sensitive defender at test scale, so the margin is
        // intentionally loose.
        assert!(acc > 0.5, "SimPGCN clean accuracy {acc} too low");
    }

    #[test]
    fn knn_graph_is_empty_for_identity_features() {
        let g = DatasetSpec::PolblogsLike.generate(0.08, 152);
        let m = SimPGcn::new(SimPGcnConfig::default());
        let af = m.knn_graph(&g);
        // Only self-loops from normalization.
        assert_eq!(af.nnz(), g.num_nodes());
    }

    #[test]
    fn ssl_targets_are_dissimilarities() {
        let g = DatasetSpec::CoraLike.generate(0.05, 153);
        let m = SimPGcn::new(SimPGcnConfig {
            ssl_pairs: 32,
            ..Default::default()
        });
        let (_, _, targets) = m.ssl_pairs(&g);
        for &t in targets.as_slice() {
            assert!(
                (-1e-9..=2.0 + 1e-9).contains(&t),
                "target {t} outside [0, 2]"
            );
        }
    }

    #[test]
    fn survives_poisoned_graph() {
        use bbgnn_attack::peega::{Peega, PeegaConfig};
        use bbgnn_attack::Attacker;
        let g = DatasetSpec::CoraLike.generate(0.06, 154);
        let mut atk = Peega::new(PeegaConfig {
            rate: 0.15,
            ..Default::default()
        });
        let poisoned = atk.attack(&g).poisoned;
        let mut m = SimPGcn::new(SimPGcnConfig {
            train: TrainConfig::fast_test(),
            ..Default::default()
        });
        m.fit(&poisoned);
        let acc = m.test_accuracy(&poisoned);
        // Heavy attack + deliberately noisy features (DESIGN.md §3):
        // comfortably above chance (1/7) is the contract here.
        assert!(acc > 0.3, "SimPGCN accuracy {acc} fell to chance level");
    }
}
