//! GraphSAGE (Hamilton et al. 2017) with the mean aggregator.
//!
//! A further victim model beyond the paper's GCN/GAT: each layer combines
//! the node's own representation with the mean of its neighbors',
//!
//! ```text
//!   h'_v = relu(W_self h_v + W_neigh · mean_{u ∈ N(v)} h_u)
//! ```
//!
//! (final layer linear). Useful for transfer experiments — PEEGA's poison
//! graphs are generated against a linear-GCN surrogate, and GraphSAGE
//! checks that the attack transfers across aggregation schemes.

use crate::train::{train_node_classifier, Mode, TrainConfig, TrainReport};
use crate::NodeClassifier;
use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_graph::Graph;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use std::rc::Rc;

/// Two-layer GraphSAGE with mean aggregation.
pub struct GraphSage {
    /// Hidden width.
    pub hidden: usize,
    /// Training configuration.
    pub config: TrainConfig,
    /// Parameter layout: `[W_self0, W_neigh0, W_self1, W_neigh1]`.
    params: Vec<DenseMatrix>,
}

impl GraphSage {
    /// Creates an untrained GraphSAGE model.
    pub fn new(hidden: usize, config: TrainConfig) -> Self {
        Self {
            hidden,
            config,
            params: Vec::new(),
        }
    }

    /// Row-normalized (mean) adjacency `D^{-1} A`; isolated nodes get a
    /// zero row (their neighbor term vanishes, the self term remains).
    pub fn mean_adjacency(g: &Graph) -> CsrMatrix {
        let n = g.num_nodes();
        let triplets = (0..n).flat_map(|v| {
            let deg = g.degree(v) as f64;
            g.neighbors(v)
                .map(move |u| (v, u, 1.0 / deg))
                .collect::<Vec<_>>()
        });
        CsrMatrix::from_triplets(n, n, triplets)
    }

    fn init_params(&self, in_dim: usize, num_classes: usize) -> Vec<DenseMatrix> {
        let s = self.config.seed;
        vec![
            DenseMatrix::glorot(in_dim, self.hidden, s),
            DenseMatrix::glorot(in_dim, self.hidden, s.wrapping_add(1)),
            DenseMatrix::glorot(self.hidden, num_classes, s.wrapping_add(2)),
            DenseMatrix::glorot(self.hidden, num_classes, s.wrapping_add(3)),
        ]
    }

    fn forward(
        &self,
        tape: &mut Tape,
        params: &[DenseMatrix],
        am: &Rc<CsrMatrix>,
        x: &DenseMatrix,
        mode: Mode,
    ) -> (TensorId, Vec<TensorId>) {
        let ids: Vec<TensorId> = params.iter().map(|p| tape.var(p)).collect();
        let mut h = tape.constant(x);
        for layer in 0..2 {
            if let (true, Some(epoch)) = (self.config.dropout > 0.0, mode.train_epoch()) {
                let seed = self
                    .config
                    .seed
                    .wrapping_add(70_000)
                    .wrapping_add((epoch as u64) * 17 + layer as u64);
                h = tape.dropout(h, self.config.dropout, seed);
            }
            // lint: allow(check_site) reason=forward builds one epoch's graph; the §11 check sits at the epoch boundary in the train loop
            let own = tape.matmul(h, ids[2 * layer]);
            let agg = tape.spmm(Rc::clone(am), h);
            let neigh = tape.matmul(agg, ids[2 * layer + 1]);
            h = tape.add(own, neigh);
            if layer == 0 {
                h = tape.relu(h);
            }
        }
        (h, ids)
    }

    /// Logits for `g` using the trained parameters.
    pub fn logits(&self, g: &Graph) -> DenseMatrix {
        assert!(!self.params.is_empty(), "model is not trained");
        let am = Rc::new(Self::mean_adjacency(g));
        let mut tape = Tape::new();
        let (out, _) = self.forward(&mut tape, &self.params, &am, &g.features, Mode::Eval);
        tape.value(out).clone()
    }
}

impl NodeClassifier for GraphSage {
    fn fit(&mut self, g: &Graph) -> TrainReport {
        let am = Rc::new(Self::mean_adjacency(g));
        let mut params = self.init_params(g.feature_dim(), g.num_classes);
        let x = g.features.clone();
        let cfg = self.config.clone();
        let salt = || bbgnn_store::Key::new("model/sage").field("hidden", self.hidden);
        let this = &*self;
        let report = train_node_classifier(&mut params, g, &cfg, salt, |tape, p, mode| {
            let (logits, ids) = this.forward(tape, p, &am, &x, mode);
            (logits, ids, None)
        });
        self.params = params;
        report
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
    fn mean_adjacency_rows_sum_to_one_or_zero() {
        let g = DatasetSpec::CoraLike.generate(0.05, 611);
        let am = GraphSage::mean_adjacency(&g);
        for (v, s) in am.row_sums().iter().enumerate() {
            if g.degree(v) == 0 {
                assert_eq!(*s, 0.0);
            } else {
                assert!((s - 1.0).abs() < 1e-12, "row {v} sums to {s}");
            }
        }
    }

    #[test]
    fn sage_learns_homophilous_sbm() {
        // Scale 0.1: GraphSAGE needs a slightly larger graph than the GCN
        // tests before its accuracy is stable across RNG streams.
        let g = DatasetSpec::CoraLike.generate(0.1, 612);
        let mut sage = GraphSage::new(16, TrainConfig::fast_test());
        sage.fit(&g);
        let acc = sage.test_accuracy(&g);
        assert!(acc > 0.55, "GraphSAGE accuracy {acc} too low");
    }
}
