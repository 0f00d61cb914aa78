//! GNAT — the paper's graph-augmentation defender (Sec. IV-B).
//!
//! GNAT counteracts the dominant attack pattern (adding edges between
//! nodes with different labels, Sec. IV-A) by training a GCN jointly on
//! three augmented views of the poisoned graph `Ĝ(V, Â, X̂)`:
//!
//! * **topology graph** `Ĝᵗ` — connects every node with its `k_t`-hop
//!   neighborhood (`Âᵗ[v][u] = 1` if `u` is reachable within `k_t` hops);
//! * **feature graph** `Ĝᶠ` — connects every node with its top-`k_f`
//!   cosine-similar nodes (features are rarely attacked, Sec. V-D1);
//! * **ego graph** `Ĝᵉ` — emphasizes each node's own features with
//!   weighted self-loops, `Âᵉ = Â + k_e·I`.
//!
//! One shared GCN runs on each view; the output representations are
//! averaged, `Z = (Zᵗ + Zᶠ + Zᵉ)/3`, and trained with the usual
//! cross-entropy (Eq. 2). Averaging happens in logit space here (the
//! paper averages the final representations; with a shared softmax head
//! the two coincide up to a monotone reparameterization).
//!
//! The Table IX ablation variants — single views, subsets of views, and
//! *merged* graphs (all edges folded into one graph) — are expressed with
//! [`GnatConfig::views`] and [`GnatConfig::merged`].

use crate::Defender;
use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_gnn::gcn::{gcn_layers, sparse_input};
use bbgnn_gnn::train::{train_node_classifier, Mode, TrainConfig, TrainReport};
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::Graph;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use std::rc::Rc;

/// One augmented view of the poisoned graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum View {
    /// `k_t`-hop topology graph.
    Topology,
    /// Top-`k_f` cosine feature graph.
    Feature,
    /// `Â + k_e·I` ego graph.
    Ego,
}

impl View {
    /// One-letter tag used in variant names (`t`, `f`, `e`).
    fn tag(self) -> char {
        match self {
            View::Topology => 't',
            View::Feature => 'f',
            View::Ego => 'e',
        }
    }
}

/// GNAT configuration. Defaults are the paper's tuned values on Citeseer:
/// `k_t = 2`, `k_f = 15`, `k_e = 10`, all three views, multi-view (not
/// merged) training.
#[derive(Clone, Debug)]
pub struct GnatConfig {
    /// Topology-view hop count (`0` falls back to the original adjacency).
    pub k_t: usize,
    /// Feature-view neighbor count (`0` falls back to the original
    /// adjacency).
    pub k_f: usize,
    /// Ego-view self-loop weight.
    pub k_e: f64,
    /// Which views participate.
    pub views: Vec<View>,
    /// Fold all views into one merged graph instead of joint multi-view
    /// training (the `GNAT-tfe`-style Table IX variants).
    pub merged: bool,
    /// Optional Sec. VI extension: before building the augmented views,
    /// delete poisoned-graph edges whose endpoint features have Jaccard
    /// similarity below this threshold. The paper leaves "leveraging the
    /// knowledge of adding AND removing" to future work; this implements
    /// it. `None` (default) reproduces the published GNAT exactly.
    pub prune_threshold: Option<f64>,
    /// Hidden width of the shared GCN.
    pub hidden: usize,
    /// Training configuration.
    pub train: TrainConfig,
}

impl Default for GnatConfig {
    fn default() -> Self {
        Self {
            k_t: 2,
            k_f: 15,
            k_e: 10.0,
            views: vec![View::Topology, View::Feature, View::Ego],
            merged: false,
            prune_threshold: None,
            hidden: 16,
            train: TrainConfig::default(),
        }
    }
}

impl GnatConfig {
    /// Default configuration without the feature view — used on datasets
    /// with identity features (Polblogs), where cosine similarity is
    /// uninformative (Table VI's `GNAT\f`).
    pub fn without_feature_view() -> Self {
        Self {
            views: vec![View::Topology, View::Ego],
            ..Self::default()
        }
    }
}

/// The GNAT defender.
pub struct Gnat {
    /// Configuration.
    pub config: GnatConfig,
    weights: Vec<DenseMatrix>,
    view_adjacencies: Vec<Rc<CsrMatrix>>,
}

impl Gnat {
    /// Creates an untrained GNAT defender.
    pub fn new(config: GnatConfig) -> Self {
        assert!(!config.views.is_empty(), "GNAT needs at least one view");
        Self {
            config,
            weights: Vec::new(),
            view_adjacencies: Vec::new(),
        }
    }

    /// Builds the raw (unnormalized) adjacency of one view.
    fn view_adjacency(&self, g: &Graph, view: View) -> CsrMatrix {
        let n = g.num_nodes();
        match view {
            View::Topology => {
                if self.config.k_t <= 1 {
                    return g.adjacency_csr();
                }
                // Saturation guard: on dense graphs the k-hop reachability
                // approaches the complete graph, which washes out every
                // neighborhood distinction (the failure mode of k_t = 2 on
                // the small dense Polblogs). Reduce the hop count until the
                // view stays below half of all pairs.
                let mut k_t = self.config.k_t;
                let mut m = loop {
                    let mut triplets = Vec::new();
                    for v in 0..n {
                        for u in g.k_hop_neighbors(v, k_t) {
                            triplets.push((v, u, 1.0));
                            triplets.push((u, v, 1.0));
                        }
                    }
                    let m = CsrMatrix::from_triplets(n, n, triplets).to_dense();
                    if k_t == 1 || (m.nnz() as f64) < 0.5 * (n * n) as f64 {
                        break m;
                    }
                    k_t -= 1;
                };
                m.map_inplace(|x| if x > 0.0 { 1.0 } else { 0.0 });
                CsrMatrix::from_dense(&m, 0.5)
            }
            View::Feature => {
                if self.config.k_f == 0 {
                    return g.adjacency_csr();
                }
                let knn = crate::knn_feature_edges(&g.features, self.config.k_f);
                let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
                for (u, v) in g.edges() {
                    triplets.push((u, v, 1.0));
                    triplets.push((v, u, 1.0));
                }
                for (u, v) in knn {
                    if !g.has_edge(u, v) {
                        triplets.push((u, v, 1.0));
                        triplets.push((v, u, 1.0));
                    }
                }
                CsrMatrix::from_triplets(n, n, triplets)
            }
            View::Ego => g.adjacency_csr().add_identity(self.config.k_e),
        }
    }

    /// Builds the normalized adjacencies the model will propagate over:
    /// one per view, or a single merged graph.
    fn build_views(&self, g: &Graph) -> Vec<Rc<CsrMatrix>> {
        let raw: Vec<CsrMatrix> = self
            .config
            .views
            .iter()
            .map(|&v| self.view_adjacency(g, v))
            .collect();
        if self.config.merged {
            let n = g.num_nodes();
            let mut merged = DenseMatrix::zeros(n, n);
            for m in &raw {
                merged = merged.add(&m.to_dense());
            }
            // Union semantics off the diagonal; keep accumulated self-loop
            // weight (the ego view's contribution).
            for i in 0..n {
                for j in 0..n {
                    if i != j && merged.get(i, j) > 0.0 {
                        merged.set(i, j, 1.0);
                    }
                }
            }
            vec![Rc::new(
                CsrMatrix::from_dense(&merged, 1e-12).gcn_normalize(),
            )]
        } else {
            raw.into_iter()
                .map(|m| Rc::new(m.gcn_normalize()))
                .collect()
        }
    }

    /// Multi-view forward pass with shared weights; returns averaged
    /// logits. Each view runs [`gcn_layers`] over the sparse input `x`
    /// with dropout masks of its own, so each view drops its own CSR of
    /// `x`.
    fn forward(
        &self,
        tape: &mut Tape,
        weights: &[DenseMatrix],
        views: &[Rc<CsrMatrix>],
        x: &Rc<CsrMatrix>,
        mode: Mode,
    ) -> (TensorId, Vec<TensorId>) {
        let ids: Vec<TensorId> = weights.iter().map(|w| tape.var(w)).collect();
        let p = self.config.train.dropout;
        let epoch = mode.train_epoch().filter(|_| p > 0.0);
        let base = self.config.train.seed.wrapping_add(5000);
        let mut view_logits = Vec::with_capacity(views.len());
        for (vi, an) in views.iter().enumerate() {
            // lint: allow(check_site) reason=forward builds one epoch's graph; the §11 check sits at the epoch boundary in the train loop
            view_logits.push(gcn_layers(tape, &ids, an, x, |l| {
                epoch.map(|e| (p, base.wrapping_add((e as u64) * 97 + (vi * 13 + l) as u64)))
            }));
        }
        let mut sum = view_logits[0];
        for &z in &view_logits[1..] {
            sum = tape.add(sum, z);
        }
        let avg = tape.scalar_mul(sum, 1.0 / view_logits.len() as f64);
        (avg, ids)
    }

    /// Averaged logits with the trained weights.
    pub fn logits(&self, g: &Graph) -> DenseMatrix {
        assert!(!self.weights.is_empty(), "model is not trained");
        let mut tape = Tape::new();
        let x = sparse_input(&g.features);
        let (out, _) = self.forward(
            &mut tape,
            &self.weights,
            &self.view_adjacencies,
            &x,
            Mode::Eval,
        );
        tape.value(out).clone()
    }
}

impl NodeClassifier for Gnat {
    fn fit(&mut self, g: &Graph) -> TrainReport {
        let _span = bbgnn_obs::span!("defense/gnat/fit", nodes = g.num_nodes());
        let pruned;
        let g = match self.config.prune_threshold {
            Some(threshold) => {
                pruned = prune_dissimilar_edges(g, threshold);
                &pruned
            }
            None => g,
        };
        let views = self.build_views(g);
        self.view_adjacencies = views.clone();
        let seed = self.config.train.seed;
        let mut weights = vec![
            DenseMatrix::glorot(g.feature_dim(), self.config.hidden, seed),
            DenseMatrix::glorot(self.config.hidden, g.num_classes, seed.wrapping_add(1)),
        ];
        let x = sparse_input(&g.features);
        let cfg = self.config.train.clone();
        // `g` is the pruned graph when prune_threshold is set, so the graph
        // hash inside the keyed loop already reflects pruning; the knobs
        // below cover everything else that shapes the views and weights.
        let salt = || {
            bbgnn_store::Key::new("model/gnat")
                .field("k_t", self.config.k_t)
                .field("k_f", self.config.k_f)
                .field("k_e", self.config.k_e)
                .field("views", format!("{:?}", self.config.views))
                .field("merged", self.config.merged)
                .field("prune", format!("{:?}", self.config.prune_threshold))
                .field("hidden", self.config.hidden)
        };
        let this = &*self;
        let report = train_node_classifier(&mut weights, g, &cfg, salt, |tape, params, mode| {
            let (logits, ids) = this.forward(tape, params, &views, &x, mode);
            (logits, ids, None)
        });
        self.weights = weights;
        report
    }

    fn predict(&self, g: &Graph) -> Vec<usize> {
        self.logits(g).row_argmax()
    }
}

impl Defender for Gnat {
    fn name(&self) -> String {
        let base = if self.config.views.len() == 3 && !self.config.merged {
            "GNAT".to_string()
        } else {
            let tags: String = self.config.views.iter().map(|v| v.tag()).collect();
            if self.config.merged {
                format!("GNAT-{tags}")
            } else {
                let joined: Vec<String> = tags.chars().map(|c| c.to_string()).collect();
                format!("GNAT-{}", joined.join("+"))
            }
        };
        if self.config.prune_threshold.is_some() {
            format!("{base}+prune")
        } else {
            base
        }
    }
}

/// Removes edges whose endpoint features have Jaccard similarity below
/// `threshold` — the edge-removal half of the Sec. VI extension. Exposed
/// so the ablation bench can measure it in isolation.
pub fn prune_dissimilar_edges(g: &Graph, threshold: f64) -> Graph {
    let mut out = g.clone();
    let doomed: Vec<(usize, usize)> = g
        .edges()
        .filter(|&(u, v)| {
            crate::jaccard::GcnJaccard::jaccard(g.features.row(u), g.features.row(v)) < threshold
        })
        .collect();
    for (u, v) in doomed {
        out.remove_edge(u, v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_attack::peega::{Peega, PeegaConfig};
    use bbgnn_attack::Attacker;
    use bbgnn_gnn::gcn::Gcn;
    use bbgnn_graph::datasets::DatasetSpec;

    fn fast() -> TrainConfig {
        TrainConfig::fast_test()
    }

    #[test]
    fn variant_names_match_table_ix() {
        let full = Gnat::new(GnatConfig {
            train: fast(),
            ..Default::default()
        });
        assert_eq!(full.name(), "GNAT");
        let t = Gnat::new(GnatConfig {
            views: vec![View::Topology],
            train: fast(),
            ..Default::default()
        });
        assert_eq!(t.name(), "GNAT-t");
        let te = Gnat::new(GnatConfig {
            views: vec![View::Topology, View::Ego],
            train: fast(),
            ..Default::default()
        });
        assert_eq!(te.name(), "GNAT-t+e");
        let merged = Gnat::new(GnatConfig {
            views: vec![View::Topology, View::Feature, View::Ego],
            merged: true,
            train: fast(),
            ..Default::default()
        });
        assert_eq!(merged.name(), "GNAT-tfe");
    }

    #[test]
    fn views_only_add_edges() {
        // Each augmented view must contain every original edge (GNAT only
        // adds, Sec. VI future work notes removal is not attempted).
        let g = DatasetSpec::CoraLike.generate(0.05, 101);
        let gnat = Gnat::new(GnatConfig {
            train: fast(),
            ..Default::default()
        });
        for &view in &[View::Topology, View::Feature] {
            let adj = gnat.view_adjacency(&g, view);
            for (u, v) in g.edges() {
                assert!(adj.get(u, v) > 0.0, "{view:?} view dropped edge ({u},{v})");
            }
        }
        let ego = gnat.view_adjacency(&g, View::Ego);
        for v in 0..g.num_nodes() {
            assert_eq!(ego.get(v, v), 10.0, "ego view must carry k_e self-loops");
        }
    }

    #[test]
    fn topology_view_matches_k_hop_reachability() {
        let g = DatasetSpec::CoraLike.generate(0.04, 102);
        let gnat = Gnat::new(GnatConfig {
            k_t: 2,
            train: fast(),
            ..Default::default()
        });
        let adj = gnat.view_adjacency(&g, View::Topology);
        for v in 0..g.num_nodes().min(20) {
            let reach = g.k_hop_neighbors(v, 2);
            for u in reach {
                assert!(adj.get(v, u) > 0.0, "2-hop neighbor {u} of {v} missing");
            }
        }
    }

    #[test]
    fn learns_clean_graph() {
        let g = DatasetSpec::CoraLike.generate(0.06, 103);
        let mut gnat = Gnat::new(GnatConfig {
            train: fast(),
            ..Default::default()
        });
        gnat.fit(&g);
        let acc = gnat.test_accuracy(&g);
        assert!(acc > 0.6, "GNAT clean accuracy {acc} too low");
    }

    #[test]
    fn defends_against_peega_better_than_gcn() {
        let g = DatasetSpec::CoraLike.generate(0.08, 104);
        let mut atk = Peega::new(PeegaConfig {
            rate: 0.2,
            ..Default::default()
        });
        let poisoned = atk.attack(&g).poisoned;

        let mut gcn = Gcn::paper_default(fast());
        gcn.fit(&poisoned);
        let gcn_acc = gcn.test_accuracy(&poisoned);

        let mut gnat = Gnat::new(GnatConfig {
            train: fast(),
            ..Default::default()
        });
        gnat.fit(&poisoned);
        let gnat_acc = gnat.test_accuracy(&poisoned);
        assert!(
            gnat_acc > gcn_acc,
            "GNAT ({gnat_acc}) must beat raw GCN ({gcn_acc}) on the poisoned graph"
        );
    }

    #[test]
    fn merged_variant_trains() {
        let g = DatasetSpec::CoraLike.generate(0.05, 105);
        let mut gnat = Gnat::new(GnatConfig {
            merged: true,
            train: fast(),
            ..Default::default()
        });
        gnat.fit(&g);
        assert!(gnat.test_accuracy(&g) > 0.4);
    }

    #[test]
    fn prune_extension_removes_only_dissimilar_edges() {
        let g = DatasetSpec::CoraLike.generate(0.05, 107);
        let mut atk = Peega::new(PeegaConfig {
            rate: 0.2,
            ..Default::default()
        });
        let poisoned = atk.attack(&g).poisoned;
        let pruned = prune_dissimilar_edges(&poisoned, 0.02);
        assert!(
            pruned.num_edges() < poisoned.num_edges(),
            "pruning must remove something"
        );
        // Every surviving edge was present in the poisoned graph.
        for (u, v) in pruned.edges() {
            assert!(poisoned.has_edge(u, v));
        }
    }

    #[test]
    fn prune_variant_name_and_training() {
        let g = DatasetSpec::CoraLike.generate(0.05, 108);
        let mut gnat = Gnat::new(GnatConfig {
            prune_threshold: Some(0.02),
            train: fast(),
            ..Default::default()
        });
        assert_eq!(gnat.name(), "GNAT+prune");
        gnat.fit(&g);
        assert!(gnat.test_accuracy(&g) > 0.5);
    }

    #[test]
    fn without_feature_view_works_on_identity_features() {
        let g = DatasetSpec::PolblogsLike.generate(0.1, 106);
        let mut gnat = Gnat::new(GnatConfig {
            train: fast(),
            ..GnatConfig::without_feature_view()
        });
        gnat.fit(&g);
        assert!(gnat.test_accuracy(&g) > 0.75);
    }
}
