//! PEEGA — the paper's Practical, Effective and Efficient black-box GNN
//! Attacker (Sec. III).
//!
//! PEEGA reads only the adjacency matrix `A` and the node features `X`. It
//! maximizes the single-level objective of Def. 3,
//!
//! ```text
//!   max_{Â, X̂}  Σ_v ‖Â_n²[v] X̂ − A_n²[v] X‖_p
//!             + λ Σ_v Σ_{u ∈ N_v} ‖Â_n²[v] X̂ − A_n²[u] X‖_p
//!   s.t.  ‖Â − A‖₀ + β‖X̂ − X‖₀ ≤ δ,
//! ```
//!
//! with the greedy gradient-scored loop of Alg. 1: at each step the
//! gradients of the objective with respect to the (relaxed, dense) `Â` and
//! `X̂` are multiplied elementwise with the candidate direction matrices
//! `A_t = −2Â + 1` and `X_f = −2X̂ + 1`, and the highest-scoring flip is
//! committed. The surrogate depth (2 hops above) is configurable for the
//! Fig. 7(b) experiment, and the feature-cost weight `β` implements the
//! Sec. V-D1 ablation.

use crate::{budget_for, Attacker, AttackerNodes};
use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_gnn::gcn::normalize_dense;
use bbgnn_graph::Graph;
use bbgnn_linalg::{CsrMatrix, DenseMatrix, ExecContext};
use std::rc::Rc;
use std::time::Instant;

/// Which perturbation types PEEGA may use (Fig. 5a ablation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AttackSpace {
    /// Topology modifications and feature perturbations (TM+FP).
    #[default]
    Both,
    /// Topology modifications only (TM).
    TopologyOnly,
    /// Feature perturbations only (FP).
    FeatureOnly,
}

/// Which nodes the Def. 3 sums range over.
///
/// The paper follows Metattack and "compute[s] the objective on training
/// nodes" (Sec. V-A3): concentrating the representation drift on the
/// labeled nodes corrupts exactly what the victim learns from, which makes
/// the poisoning attack markedly stronger than spreading it uniformly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ObjectiveNodes {
    /// Sum over the training split (the paper's setting).
    #[default]
    Train,
    /// Sum over every node.
    All,
    /// Sum over a custom node set.
    Custom(Vec<usize>),
}

/// PEEGA configuration. Defaults follow the paper's tuned values on Cora
/// (`λ = 0.01`, `p = 2`, 2-hop surrogate, β = 1, objective on train nodes).
#[derive(Clone, Debug)]
pub struct PeegaConfig {
    /// Perturbation rate `r`; the budget is `δ = r · ‖A‖₀`.
    pub rate: f64,
    /// Trade-off `λ` between the self view and the global view.
    pub lambda: f64,
    /// Norm order `p ∈ {1, 2, 3}`.
    pub p: f64,
    /// Surrogate propagation depth `l` (paper default 2).
    pub hops: usize,
    /// Relative cost `β` of one feature flip (Sec. V-D1).
    pub beta: f64,
    /// Perturbation types allowed.
    pub space: AttackSpace,
    /// Accessible nodes.
    pub attacker_nodes: AttackerNodes,
    /// Nodes the objective sums over (Sec. V-A3).
    pub objective_nodes: ObjectiveNodes,
}

impl Default for PeegaConfig {
    fn default() -> Self {
        Self {
            rate: 0.1,
            lambda: 0.01,
            p: 2.0,
            hops: 2,
            beta: 1.0,
            space: AttackSpace::Both,
            attacker_nodes: AttackerNodes::All,
            objective_nodes: ObjectiveNodes::Train,
        }
    }
}

/// The PEEGA attacker. See the module docs for the algorithm.
#[derive(Clone, Debug)]
pub struct Peega {
    /// Configuration.
    pub config: PeegaConfig,
}

impl Peega {
    /// Creates a PEEGA attacker.
    pub fn new(config: PeegaConfig) -> Self {
        Self { config }
    }
}

/// One perturbation PEEGA or PEEGA-P may commit: the undirected edge
/// `(u, v)` or the feature bit `(v, i)`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Flip {
    Edge(usize, usize),
    Feature(usize, usize),
}

/// `g.propagate(hops)` (the black-box surrogate embedding `A_n^k X`)
/// warm-started from the artifact store. Keyed on the full graph content
/// hash: the propagation reads both adjacency and features, either of
/// which the attacker may have perturbed.
fn propagate_cached(g: &Graph, hops: usize) -> DenseMatrix {
    bbgnn_store::cached(
        || {
            bbgnn_store::Key::new("prep/propagate")
                .hash_field("graph", g.content_hash())
                .field("hops", hops)
        },
        || g.propagate(hops),
    )
}

/// The Def. 3 objective over one clean graph, which PEEGA and PEEGA-P
/// both maximize: the clean `A_nˡ X`, a row mask and the original edges
/// that restrict the two views to the objective nodes (Sec. V-A3), and the
/// identity the tape normalization adds.
pub(crate) struct Objective {
    clean_prop: Rc<DenseMatrix>,
    row_mask: Rc<DenseMatrix>,
    masked_adj: Rc<CsrMatrix>,
    eye: Rc<DenseMatrix>,
    hops: usize,
    lambda: f64,
    p: f64,
}

impl Objective {
    /// The objective on `g` with surrogate depth `hops`, trade-off
    /// `lambda` and norm order `p`, summed over `nodes`.
    pub(crate) fn new(g: &Graph, nodes: &ObjectiveNodes, hops: usize, lambda: f64, p: f64) -> Self {
        assert!(hops >= 1, "surrogate needs at least one hop");
        let n = g.num_nodes();
        let clean_prop = Rc::new(propagate_cached(g, hops));
        let nodes = match nodes {
            ObjectiveNodes::Train => g.split.train.clone(),
            ObjectiveNodes::All => (0..n).collect(),
            ObjectiveNodes::Custom(v) => v.clone(),
        };
        assert!(!nodes.is_empty(), "objective node set is empty");
        let mut row_mask = DenseMatrix::zeros(n, g.feature_dim());
        for &v in &nodes {
            row_mask.row_mut(v).fill(1.0);
        }
        // Edges of the original topology whose source is an objective node.
        let in_objective: std::collections::HashSet<usize> = nodes.into_iter().collect();
        let masked_adj = CsrMatrix::from_triplets(
            n,
            n,
            g.edges()
                .flat_map(|(u, v)| [(u, v), (v, u)])
                .filter(|(s, _)| in_objective.contains(s))
                .map(|(s, t)| (s, t, 1.0)),
        );
        Self {
            clean_prop,
            row_mask: Rc::new(row_mask),
            masked_adj: Rc::new(masked_adj),
            eye: Rc::new(DenseMatrix::identity(n)),
            hops,
            lambda,
            p,
        }
    }

    /// Builds the objective on `tape` over the relaxed adjacency `a` and
    /// features `x`.
    pub(crate) fn eval(&self, tape: &mut Tape, a: TensorId, x: TensorId) -> TensorId {
        let an = normalize_dense(tape, a, &self.eye);
        // Â_nˡ X̂ via repeated (n×n)(n×d) products (cheaper than Â_nˡ).
        let mut h = x;
        for _ in 0..self.hops {
            // lint: allow(check_site) reason=hop chain is one objective evaluation; the §11 check belongs to the attack iteration loop driving it
            h = tape.matmul(an, h);
        }
        // Self view (Eq. 5), restricted to the objective nodes.
        let diff = tape.sub_const(h, &self.clean_prop);
        let masked_diff = tape.hadamard_const(diff, Rc::clone(&self.row_mask));
        let self_view = tape.row_lp_norm_sum(masked_diff, self.p);
        if self.lambda == 0.0 {
            return self_view;
        }
        // Global view (Eq. 6) over the ORIGINAL topology's edges whose
        // source node is in the objective set.
        let global = tape.neighbor_lp_norm_sum(
            h,
            Rc::clone(&self.masked_adj),
            Rc::clone(&self.clean_prop),
            self.p,
        );
        let weighted = tape.scalar_mul(global, self.lambda);
        tape.add(self_view, weighted)
    }
}

impl Attacker for Peega {
    fn name(&self) -> &'static str {
        "PEEGA"
    }

    fn perturb(&mut self, g: &Graph) -> (Graph, bool) {
        let cfg = &self.config;
        assert!(cfg.beta > 0.0, "feature cost must be positive");
        let n = g.num_nodes();
        let budget = budget_for(g, cfg.rate) as f64;
        let _span = bbgnn_obs::span!(
            "attack/peega",
            nodes = n,
            rate = cfg.rate,
            budget = budget,
            hops = cfg.hops
        );
        // The clean H = A_n^l X is computed once. The objective
        // differentiates through the dense Â on the tape, so PEEGA has
        // nothing for the incremental engine (DESIGN.md §13) to maintain.
        let objective = Objective::new(g, &cfg.objective_nodes, cfg.hops, cfg.lambda, cfg.p);

        let mut poisoned = g.clone();
        let mut a_hat = g.adjacency_dense();
        let mut x_hat = g.features.clone();
        let mut spent = 0.0;
        // Each candidate is committed at most once: revisiting a flipped
        // entry would refund budget and can cycle forever when the
        // post-flip gradient reverses sign (greedy overshoot).
        let mut touched_edges = std::collections::HashSet::new();
        let mut touched_features = std::collections::HashSet::new();

        let allow_topology = cfg.space != AttackSpace::FeatureOnly;
        let allow_features = cfg.space != AttackSpace::TopologyOnly;

        // One execution context for the whole greedy loop: every step's
        // tape shares the thread pool and recycles its tensor buffers
        // through the same workspace arena, and the candidate scans fan
        // out over the same pool.
        let ctx = ExecContext::shared_from_env();

        let mut truncated = false;
        loop {
            // Cooperative stop site (DESIGN.md §11): the perturbations
            // committed so far form the degraded result.
            if crate::should_stop("attack/peega/perturb") {
                truncated = true;
                break;
            }
            // Affordability of each move class. Every commit is final
            // (`touched_*` forbids revisits, see above), so costs are
            // strictly additive — `spent` only grows, by 1 per edge flip
            // and β per feature flip, and a full-budget run exhausts the
            // budget exactly: `edge_flips + β·feature_flips == δ`.
            let can_edge = allow_topology && spent + 1.0 <= budget + 1e-9;
            let can_feat = allow_features && spent + cfg.beta <= budget + 1e-9;
            if !can_edge && !can_feat {
                break;
            }

            // lint: allow(clock) reason=step timing feeds an obs event, is gated on tracing being enabled, and never branches numerics
            let step_start = bbgnn_obs::enabled().then(Instant::now);
            let mut tape = Tape::with_context(Rc::clone(&ctx));
            let a_id = tape.var(a_hat.clone());
            let x_id = tape.var(x_hat.clone());
            let obj = objective.eval(&mut tape, a_id, x_id);
            let obj_value = tape.value(obj).get(0, 0);
            tape.backward(obj);
            // lint: allow(panic) reason=a_id is a tape.var leaf on the path to obj, so backward always populates its gradient
            let grad_a = tape.grad(a_id).expect("adjacency gradient");
            // lint: allow(panic) reason=x_id is a tape.var leaf on the path to obj, so backward always populates its gradient
            let grad_x = tape.grad(x_id).expect("feature gradient");
            let pool = ctx.pool();

            // Best topology candidate: score of flipping the undirected
            // pair {u, v} combines both directed entries (Â is symmetric).
            // Both scans fan out over the pool with the deterministic
            // chunk-ordered merge of [`crate::scan`], reproducing the
            // sequential first-max exactly for every worker count.
            let best_edge = if can_edge {
                crate::scan::best_edge_flip(pool, n, |u, v| {
                    if touched_edges.contains(&(u, v)) || !cfg.attacker_nodes.edge_allowed(u, v) {
                        return None;
                    }
                    let dir = 1.0 - 2.0 * a_hat.get(u, v);
                    Some((grad_a.get(u, v) + grad_a.get(v, u)) * dir)
                })
                .map(|(s, u, v)| (s, Flip::Edge(u, v)))
            } else {
                None
            };
            let best_feat = if can_feat {
                crate::scan::best_entry_flip(pool, n, x_hat.cols(), |v, i| {
                    if !cfg.attacker_nodes.contains(v) || touched_features.contains(&(v, i)) {
                        return None;
                    }
                    // Normalized by β as in Sec. V-D1: S_f = S_f / β.
                    Some(grad_x.get(v, i) * (1.0 - 2.0 * x_hat.get(v, i)) / cfg.beta)
                })
                .map(|(s, v, i)| (s, Flip::Feature(v, i)))
            } else {
                None
            };
            // Sequential semantics: edges are scanned before features, so a
            // feature flip wins only with a strictly higher score.
            let best = crate::scan::merge_best(best_edge, best_feat);
            let Some((score, cand)) = best else { break };
            let scan_s = step_start.map_or(f64::NAN, |t| t.elapsed().as_secs_f64());
            let (kind, u, v) = match cand {
                Flip::Edge(u, v) => {
                    touched_edges.insert((u, v));
                    let existed_now = poisoned.has_edge(u, v);
                    poisoned.flip_edge(u, v);
                    let new_val = if existed_now { 0.0 } else { 1.0 };
                    a_hat.set(u, v, new_val);
                    a_hat.set(v, u, new_val);
                    spent += 1.0;
                    bbgnn_obs::counter("attack/edge_flips", 1);
                    ("edge", u, v)
                }
                Flip::Feature(v, i) => {
                    touched_features.insert((v, i));
                    let new_val = poisoned.flip_feature(v, i);
                    x_hat.set(v, i, new_val);
                    spent += cfg.beta;
                    bbgnn_obs::counter("attack/feature_flips", 1);
                    ("feature", v, i)
                }
            };
            bbgnn_obs::event!(
                "peega/perturb",
                kind = kind,
                u = u,
                v = v,
                score = score,
                objective = obj_value,
                spent = spent,
                scan_s = scan_s
            );
        }

        (poisoned, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_gnn::gcn::Gcn;
    use bbgnn_gnn::train::TrainConfig;
    use bbgnn_gnn::NodeClassifier;
    use bbgnn_graph::datasets::DatasetSpec;
    use bbgnn_graph::metrics::edge_diff_breakdown;

    fn small_graph() -> bbgnn_graph::Graph {
        DatasetSpec::CoraLike.generate(0.04, 51)
    }

    #[test]
    fn respects_budget() {
        let g = small_graph();
        let mut atk = Peega::new(PeegaConfig {
            rate: 0.1,
            ..Default::default()
        });
        let r = atk.attack(&g);
        let budget = budget_for(&g, 0.1);
        assert!(
            r.edge_flips + r.feature_flips <= budget,
            "spent {} + {} > budget {budget}",
            r.edge_flips,
            r.feature_flips
        );
        assert!(
            r.edge_flips + r.feature_flips > 0,
            "attack must do something"
        );
    }

    /// Pin for the commit-once budget accounting (ISSUE 8 satellite):
    /// `spent` only ever grows — by 1 per edge flip and β per feature
    /// flip, no refunds — so a full-budget run exhausts the budget
    /// *exactly*: `edge_flips + β·feature_flips == δ`. The candidate space
    /// (n² pairs, commit-once) vastly exceeds the budget, so the loop can
    /// only terminate by exhaustion.
    #[test]
    fn full_budget_run_exhausts_budget_exactly() {
        let g = small_graph();
        for beta in [1.0, 2.0] {
            let mut atk = Peega::new(PeegaConfig {
                rate: 0.1,
                beta,
                ..Default::default()
            });
            let r = atk.attack(&g);
            let budget = budget_for(&g, 0.1) as f64;
            let spent = r.edge_flips as f64 + beta * r.feature_flips as f64;
            assert_eq!(
                spent, budget,
                "β={beta}: spent {} + {beta}·{} must equal δ={budget}",
                r.edge_flips, r.feature_flips
            );
        }
    }

    #[test]
    fn does_not_mutate_input() {
        let g = small_graph();
        let edges_before = g.num_edges();
        let feats_before = g.features.clone();
        let mut atk = Peega::new(PeegaConfig::default());
        let _ = atk.attack(&g);
        assert_eq!(g.num_edges(), edges_before);
        assert_eq!(g.features, feats_before);
    }

    #[test]
    fn topology_only_never_touches_features() {
        let g = small_graph();
        let mut atk = Peega::new(PeegaConfig {
            space: AttackSpace::TopologyOnly,
            ..Default::default()
        });
        let r = atk.attack(&g);
        assert_eq!(r.feature_flips, 0);
        assert!(r.edge_flips > 0);
    }

    #[test]
    fn feature_only_never_touches_topology() {
        let g = small_graph();
        let mut atk = Peega::new(PeegaConfig {
            space: AttackSpace::FeatureOnly,
            ..Default::default()
        });
        let r = atk.attack(&g);
        assert_eq!(r.edge_flips, 0);
        assert!(r.feature_flips > 0);
    }

    #[test]
    fn attacker_subset_is_respected() {
        let g = small_graph();
        let subset = AttackerNodes::random_subset(g.num_nodes(), 0.2, 3);
        let allowed = subset.clone();
        let mut atk = Peega::new(PeegaConfig {
            attacker_nodes: subset,
            ..Default::default()
        });
        let r = atk.attack(&g);
        // Every modified edge has an accessible endpoint; every modified
        // feature row is accessible.
        for (u, v) in r.poisoned.edges() {
            if !g.has_edge(u, v) {
                assert!(allowed.edge_allowed(u, v), "illegal edge add ({u},{v})");
            }
        }
        for (u, v) in g.edges() {
            if !r.poisoned.has_edge(u, v) {
                assert!(allowed.edge_allowed(u, v), "illegal edge delete ({u},{v})");
            }
        }
        for v in 0..g.num_nodes() {
            for i in 0..g.feature_dim() {
                if g.features.get(v, i) != r.poisoned.features.get(v, i) {
                    assert!(allowed.contains(v), "illegal feature flip at node {v}");
                }
            }
        }
    }

    #[test]
    fn degrades_gcn_accuracy() {
        let g = DatasetSpec::CoraLike.generate(0.08, 52);
        let mut clean_gcn = Gcn::paper_default(TrainConfig::fast_test());
        clean_gcn.fit(&g);
        let clean_acc = clean_gcn.test_accuracy(&g);

        let mut atk = Peega::new(PeegaConfig {
            rate: 0.2,
            ..Default::default()
        });
        let r = atk.attack(&g);
        let mut poisoned_gcn = Gcn::paper_default(TrainConfig::fast_test());
        poisoned_gcn.fit(&r.poisoned);
        let poisoned_acc = poisoned_gcn.test_accuracy(&r.poisoned);
        assert!(
            poisoned_acc < clean_acc - 0.02,
            "PEEGA must degrade accuracy: clean {clean_acc} vs poisoned {poisoned_acc}"
        );
    }

    #[test]
    fn tends_to_add_cross_label_edges() {
        // The Sec. IV-A insight: attackers mostly ADD edges between nodes
        // with DIFFERENT labels.
        let g = DatasetSpec::CoraLike.generate(0.06, 53);
        let mut atk = Peega::new(PeegaConfig {
            rate: 0.15,
            ..Default::default()
        });
        let r = atk.attack(&g);
        let d = edge_diff_breakdown(&g, &r.poisoned);
        assert!(
            d.add_diff > d.add_same,
            "cross-label additions {0} should dominate same-label {1}",
            d.add_diff,
            d.add_same
        );
    }

    #[test]
    fn is_deterministic() {
        let g = small_graph();
        let mut a1 = Peega::new(PeegaConfig::default());
        let mut a2 = Peega::new(PeegaConfig::default());
        let r1 = a1.attack(&g);
        let r2 = a2.attack(&g);
        let e1: Vec<_> = r1.poisoned.edges().collect();
        let e2: Vec<_> = r2.poisoned.edges().collect();
        assert_eq!(e1, e2);
        assert_eq!(r1.poisoned.features, r2.poisoned.features);
    }

    /// The determinism contract: the poisoned graph is bitwise-identical
    /// for every worker count — the parallel candidate scans and the
    /// threaded tape kernels reproduce the sequential result exactly. The
    /// width is pinned the way a job pins it: through the entered scope.
    #[test]
    fn thread_count_does_not_change_result() {
        let g = small_graph();
        let run = |threads: usize| {
            let scope = bbgnn_supervise::SupervisionScope::new();
            scope.set_threads(threads);
            let _width = bbgnn_supervise::enter(&scope);
            let mut atk = Peega::new(PeegaConfig::default());
            atk.attack(&g)
        };
        let r1 = run(1);
        for threads in [2, 4] {
            let rn = run(threads);
            let e1: Vec<_> = r1.poisoned.edges().collect();
            let en: Vec<_> = rn.poisoned.edges().collect();
            assert_eq!(e1, en, "{threads}-thread edge flips diverged");
            assert_eq!(
                r1.poisoned.features, rn.poisoned.features,
                "{threads}-thread feature flips diverged"
            );
        }
    }
}
