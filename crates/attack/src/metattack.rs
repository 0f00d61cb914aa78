//! Metattack (Zügner & Günnemann 2019), the gray-box baseline.
//!
//! The original Meta-Self variant differentiates the attack loss through
//! the unrolled inner training of a linear surrogate (second-order
//! meta-gradients). As documented in `DESIGN.md` §3, this implementation
//! uses the **first-order approximation** from the same paper (their
//! "A-Meta" variant): the surrogate is (re)trained on the current poisoned
//! graph, self-training labels are taken from its predictions, and the
//! gradient of the self-training loss with respect to the dense adjacency
//! is used to score candidate flips — the candidate with the highest
//! `∇_Â L_self ⊙ (−2Â + 1)` score is committed, exactly one flip per
//! outer step. Zügner & Günnemann report the approximation attains nearly
//! the same attack strength at a fraction of the cost; the behaviours the
//! paper's evaluation relies on (strong gray-box attack, much slower than
//! PEEGA due to repeated surrogate training, cross-label edge additions)
//! are preserved.

use crate::{budget_for, Attacker, AttackerNodes};
use bbgnn_autodiff::Tape;
use bbgnn_gnn::gcn::normalize_dense;
use bbgnn_gnn::linear_gcn::LinearGcn;
use bbgnn_gnn::train::TrainConfig;
use bbgnn_graph::Graph;
use bbgnn_linalg::incr::{IncrConfig, IncrProp};
use bbgnn_linalg::{DenseMatrix, ExecContext};
use std::rc::Rc;
use std::time::Instant;

/// Metattack configuration.
#[derive(Clone, Debug)]
pub struct MetattackConfig {
    /// Perturbation rate `r`.
    pub rate: f64,
    /// Surrogate propagation depth (paper uses 2).
    pub hops: usize,
    /// Retrain the surrogate every this many flips (1 = every step, the
    /// most faithful and slowest; larger values trade fidelity for speed).
    pub retrain_every: usize,
    /// Surrogate training configuration.
    pub train: TrainConfig,
    /// Accessible nodes.
    pub attacker_nodes: AttackerNodes,
}

impl Default for MetattackConfig {
    fn default() -> Self {
        Self {
            rate: 0.1,
            hops: 2,
            retrain_every: 1,
            train: TrainConfig {
                epochs: 100,
                patience: 0,
                dropout: 0.0,
                ..Default::default()
            },
            attacker_nodes: AttackerNodes::All,
        }
    }
}

/// The Meta-Self-style gray-box attacker (first-order approximation).
#[derive(Clone, Debug)]
pub struct Metattack {
    /// Configuration.
    pub config: MetattackConfig,
}

impl Metattack {
    /// Creates a Metattack attacker.
    pub fn new(config: MetattackConfig) -> Self {
        Self { config }
    }
}

/// The incremental engine over `g` with propagation depth `hops`
/// ([`IncrConfig::new`]'s defaults): its maintained `H` is bitwise equal
/// to `g.propagate(hops)`, before and after every
/// [`IncrProp::flip_edge`] (DESIGN.md §13).
fn engine_for(g: &Graph, hops: usize) -> IncrProp {
    let nbrs = (0..g.num_nodes())
        .map(|u| g.neighbors(u).collect())
        .collect();
    IncrProp::from_neighbor_lists(nbrs, g.features.clone(), &IncrConfig::new(hops))
}

impl Attacker for Metattack {
    fn name(&self) -> &'static str {
        "Metattack"
    }

    fn perturb(&mut self, g: &Graph) -> (Graph, bool) {
        let cfg = &self.config;
        let n = g.num_nodes();
        let budget = budget_for(g, cfg.rate);
        let _span = bbgnn_obs::span!("attack/metattack", nodes = n, budget = budget);
        let eye = Rc::new(DenseMatrix::identity(n));
        let mut poisoned = g.clone();
        let mut a_hat = g.adjacency_dense();

        // Self-training target: true labels on the train split, surrogate
        // predictions elsewhere (recomputed at every retrain).
        let mut surrogate_w: Option<DenseMatrix> = None;
        let mut self_labels: Vec<usize> = Vec::new();
        let all_nodes: Rc<Vec<usize>> = Rc::new((0..n).collect());
        // Shared kernels + workspace for every outer step's gradient tape;
        // the candidate scan fans out over the same pool.
        let ctx = ExecContext::shared_from_env();
        // With the process-wide `--incremental` switch, H = Â_n^L X over
        // the poisoned graph is maintained across flips instead of
        // recomputed per retrain; it is bitwise equal to
        // `poisoned.propagate(hops)` at every step, so the retrains below
        // see the exact bytes the dense path computes.
        let mut engine = bbgnn_linalg::incr::enabled().then(|| engine_for(g, cfg.hops));

        let mut truncated = false;
        for step in 0..budget {
            // Cooperative stop site (DESIGN.md §11): flips so far are kept.
            if crate::should_stop("attack/metattack/perturb") {
                truncated = true;
                break;
            }
            // lint: allow(clock) reason=step timing feeds an obs event, is gated on tracing being enabled, and never branches numerics
            let step_start = bbgnn_obs::enabled().then(Instant::now);
            if step % cfg.retrain_every == 0 || surrogate_w.is_none() {
                bbgnn_obs::counter("attack/surrogate_retrains", 1);
                let mut lin = LinearGcn::new(cfg.hops, cfg.train.clone());
                // One H feeds both the fit and the predictions — the bits
                // `fit` and `predict` would each propagate on their own.
                let dense_h;
                let h = match engine.as_ref() {
                    Some(eng) => eng.propagated(),
                    None => {
                        dense_h = poisoned.propagate(cfg.hops);
                        &dense_h
                    }
                };
                lin.fit_with_propagation(&poisoned, h);
                let preds = lin.predict_from_propagation(h);
                self_labels = g.labels.clone();
                let in_train: std::collections::HashSet<usize> =
                    g.split.train.iter().copied().collect();
                for v in 0..n {
                    if !in_train.contains(&v) {
                        self_labels[v] = preds[v];
                    }
                }
                // lint: allow(panic) reason=fit_with_propagation() above always installs the weight
                surrogate_w = Some(lin.weight().expect("trained surrogate").clone());
            }
            // lint: allow(panic) reason=the retrain branch above guarantees surrogate_w is Some on every step
            let w = surrogate_w.as_ref().expect("surrogate weight");

            // Gradient of the self-training loss w.r.t. the dense adjacency.
            let mut tape = Tape::with_context(Rc::clone(&ctx));
            let a = tape.var(a_hat.clone());
            let an = normalize_dense(&mut tape, a, &eye);
            let xw = tape.constant(poisoned.features.matmul(w));
            let mut h = xw;
            for _ in 0..cfg.hops {
                h = tape.matmul(an, h);
            }
            let loss = tape.cross_entropy(h, Rc::new(self_labels.clone()), Rc::clone(&all_nodes));
            tape.backward(loss);
            // lint: allow(panic) reason=a is a tape.var leaf on the path to loss, so backward always populates its gradient
            let grad = tape.grad(a).expect("adjacency gradient");

            // Highest-scoring candidate flip (maximizing the loss),
            // scanned in parallel with the deterministic chunk-ordered
            // merge of [`crate::scan`].
            let best = crate::scan::best_edge_flip(ctx.pool(), n, |u, v| {
                if !cfg.attacker_nodes.edge_allowed(u, v) {
                    return None;
                }
                let dir = 1.0 - 2.0 * a_hat.get(u, v);
                Some((grad.get(u, v) + grad.get(v, u)) * dir)
            });
            let Some((score, u, v)) = best else { break };
            poisoned.flip_edge(u, v);
            if let Some(eng) = engine.as_mut() {
                eng.flip_edge(u, v);
            }
            let new_val = 1.0 - a_hat.get(u, v);
            a_hat.set(u, v, new_val);
            a_hat.set(v, u, new_val);
            bbgnn_obs::counter("attack/edge_flips", 1);
            bbgnn_obs::event!(
                "metattack/perturb",
                step = step,
                u = u,
                v = v,
                score = score,
                scan_s = step_start.map_or(f64::NAN, |t| t.elapsed().as_secs_f64())
            );
        }

        (poisoned, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_gnn::gcn::Gcn;
    use bbgnn_gnn::NodeClassifier;
    use bbgnn_graph::datasets::DatasetSpec;
    use bbgnn_graph::metrics::edge_diff_breakdown;

    #[test]
    fn respects_budget_and_purity() {
        let g = DatasetSpec::CoraLike.generate(0.04, 61);
        let mut atk = Metattack::new(MetattackConfig {
            rate: 0.1,
            ..Default::default()
        });
        let r = atk.attack(&g);
        assert!(r.edge_flips <= budget_for(&g, 0.1));
        assert!(r.edge_flips > 0);
        assert_eq!(r.feature_flips, 0, "Metattack here is topology-only");
    }

    #[test]
    fn degrades_gcn_accuracy() {
        let g = DatasetSpec::CoraLike.generate(0.08, 62);
        let mut clean = Gcn::paper_default(TrainConfig::fast_test());
        clean.fit(&g);
        let clean_acc = clean.test_accuracy(&g);
        let mut atk = Metattack::new(MetattackConfig {
            rate: 0.2,
            retrain_every: 10,
            ..Default::default()
        });
        let r = atk.attack(&g);
        let mut poisoned = Gcn::paper_default(TrainConfig::fast_test());
        poisoned.fit(&r.poisoned);
        let atk_acc = poisoned.test_accuracy(&r.poisoned);
        assert!(
            atk_acc < clean_acc - 0.02,
            "Metattack must degrade accuracy: {clean_acc} -> {atk_acc}"
        );
    }

    #[test]
    fn incremental_matches_dense_path_bitwise() {
        let g = DatasetSpec::CoraLike.generate(0.04, 64);
        let cfg = MetattackConfig {
            rate: 0.1,
            retrain_every: 3,
            ..Default::default()
        };
        let (dense, incr) = crate::dense_and_incremental(|| Metattack::new(cfg.clone()).attack(&g));
        assert_eq!(dense.edge_flips, incr.edge_flips);
        assert_eq!(
            dense.poisoned.content_hash(),
            incr.poisoned.content_hash(),
            "incremental Metattack must commit the exact dense flip sequence"
        );
    }

    #[test]
    fn engine_matches_graph_propagate_bitwise() {
        let g = DatasetSpec::CoraLike.generate(0.03, 71);
        let engine = engine_for(&g, 2);
        let dense = g.propagate(2);
        assert_eq!(engine.propagated().shape(), dense.shape());
        for (a, b) in engine.propagated().as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "engine H diverges from propagate");
        }
    }

    #[test]
    fn committed_flips_track_graph_mutations_bitwise() {
        let g = DatasetSpec::CoraLike.generate(0.03, 72);
        let mut engine = engine_for(&g, 2);
        let mut poisoned = g.clone();
        // Each flip is committed to the graph and to the engine.
        for (u, v) in [(0usize, 5usize), (1, 2)] {
            poisoned.flip_edge(u, v);
            engine.flip_edge(u, v);
        }
        let dense = poisoned.propagate(2);
        for (x, y) in engine.propagated().as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "engine H diverges after commits");
        }
    }

    #[test]
    fn prefers_cross_label_additions() {
        let g = DatasetSpec::CoraLike.generate(0.06, 63);
        let mut atk = Metattack::new(MetattackConfig {
            rate: 0.15,
            retrain_every: 5,
            ..Default::default()
        });
        let r = atk.attack(&g);
        let d = edge_diff_breakdown(&g, &r.poisoned);
        assert!(
            d.add_diff > d.add_same,
            "Fig. 2 pattern: Add+Diff dominates"
        );
    }
}
