//! PEEGA-P — the parallel-sampling PEEGA variant sketched in the paper's
//! future work (Sec. VI).
//!
//! Alg. 1 commits one flip per gradient evaluation, so its cost grows
//! linearly with the budget δ. Following the paper's pointer to PTDNet /
//! Gumbel-Softmax sampling, PEEGA-P instead optimizes *all* perturbations
//! at once through a concrete (binary-Gumbel) relaxation:
//!
//! * a logit matrix `Θ_A` (and `Θ_X` when features are attacked)
//!   parameterizes flip probabilities `P = σ((Θ + G)/τ)` with fixed Gumbel
//!   noise `G` and temperature `τ`;
//! * the relaxed poisoned graph `Â = A + (1 − 2A) ∘ P` feeds the same
//!   Def. 3 objective as sequential PEEGA, maximized by plain gradient
//!   ascent on the logits;
//! * after `steps` updates, the δ highest-probability flips are committed.
//!
//! The number of gradient evaluations is `steps` (a constant) instead of
//! δ, so the attack time is budget-independent — the efficiency win the
//! paper anticipates. Empirically (bin `ext_extensions`) the relaxed
//! selection is competitive with — at laptop scales sometimes stronger
//! than — the greedy sequential selection, because it scores all flips
//! jointly instead of conditioning on a fixed prefix.

use crate::peega::{AttackSpace, Flip, Objective, ObjectiveNodes};
use crate::{budget_for, Attacker, AttackerNodes};
use bbgnn_autodiff::Tape;
use bbgnn_graph::Graph;
use bbgnn_linalg::{DenseMatrix, ExecContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// PEEGA-P configuration.
#[derive(Clone, Debug)]
pub struct PeegaParallelConfig {
    /// Perturbation rate `r`.
    pub rate: f64,
    /// Self/global trade-off `λ` (as in PEEGA).
    pub lambda: f64,
    /// Norm order `p`.
    pub p: f64,
    /// Surrogate depth.
    pub hops: usize,
    /// Relaxation temperature `τ`.
    pub temperature: f64,
    /// Gradient-ascent steps on the logits.
    pub steps: usize,
    /// Ascent learning rate.
    pub lr: f64,
    /// Perturbation types allowed.
    pub space: AttackSpace,
    /// Accessible nodes.
    pub attacker_nodes: AttackerNodes,
    /// Nodes the objective sums over.
    pub objective_nodes: ObjectiveNodes,
    /// Seed for the Gumbel noise.
    pub seed: u64,
}

impl Default for PeegaParallelConfig {
    fn default() -> Self {
        Self {
            rate: 0.1,
            lambda: 0.01,
            p: 2.0,
            hops: 2,
            temperature: 0.5,
            steps: 60,
            lr: 0.3,
            space: AttackSpace::Both,
            attacker_nodes: AttackerNodes::All,
            objective_nodes: ObjectiveNodes::Train,
            seed: 0,
        }
    }
}

/// The parallel (Gumbel-relaxed) PEEGA attacker.
#[derive(Clone, Debug)]
pub struct PeegaParallel {
    /// Configuration.
    pub config: PeegaParallelConfig,
}

impl PeegaParallel {
    /// Creates a PEEGA-P attacker.
    pub fn new(config: PeegaParallelConfig) -> Self {
        Self { config }
    }

    fn gumbel_noise(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = DenseMatrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            // Logistic noise = G1 − G2 for binary concrete variables.
            let u: f64 = rng.gen_range(1e-9..1.0 - 1e-9);
            *v = (u / (1.0 - u)).ln();
        }
        m
    }
}

impl Attacker for PeegaParallel {
    fn name(&self) -> &'static str {
        "PEEGA-P"
    }

    fn perturb(&mut self, g: &Graph) -> (Graph, bool) {
        let cfg = self.config.clone();
        let n = g.num_nodes();
        let d = g.feature_dim();
        let budget = budget_for(g, cfg.rate);
        let _span = bbgnn_obs::span!(
            "attack/peega_parallel",
            nodes = n,
            budget = budget,
            steps = cfg.steps
        );
        let objective = Objective::new(g, &cfg.objective_nodes, cfg.hops, cfg.lambda, cfg.p);
        let clean_a = Rc::new(g.adjacency_dense());
        let flip_dir_a = Rc::new(clean_a.map(|a| 1.0 - 2.0 * a));
        let clean_x = Rc::new(g.features.clone());
        let flip_dir_x = Rc::new(clean_x.map(|x| 1.0 - 2.0 * x));
        let attack_topology = cfg.space != AttackSpace::FeatureOnly;
        let attack_features = cfg.space != AttackSpace::TopologyOnly;

        // Accessibility mask for candidate flips.
        let mut access_a = DenseMatrix::zeros(n, n);
        for u in 0..n {
            for v in 0..n {
                if u != v && cfg.attacker_nodes.edge_allowed(u, v) {
                    access_a.set(u, v, 1.0);
                }
            }
        }
        let access_a = Rc::new(access_a);
        let mut access_x = DenseMatrix::zeros(n, d);
        for v in 0..n {
            if cfg.attacker_nodes.contains(v) {
                access_x.row_mut(v).iter_mut().for_each(|x| *x = 1.0);
            }
        }
        let access_x = Rc::new(access_x);

        let gumbel_a = Rc::new(Self::gumbel_noise(n, n, cfg.seed));
        let gumbel_x = Rc::new(Self::gumbel_noise(n, d, cfg.seed.wrapping_add(1)));

        // Logits start very negative so the initial relaxed graph is
        // essentially the clean graph (probability σ(-12/τ) ≈ 0).
        let mut params = [
            DenseMatrix::filled(n, n, -6.0),
            DenseMatrix::filled(n, d, -6.0),
        ];

        // One execution context shared by every ascent step's tape (kernel
        // threads + workspace reuse) and by the flip-scoring scan below.
        let ctx = ExecContext::shared_from_env();

        let mut truncated = false;
        for _step in 0..cfg.steps {
            // Cooperative stop site (DESIGN.md §11): the flips are then
            // committed from the logits the ascent has reached so far.
            if crate::should_stop("attack/peega_parallel/ascent") {
                truncated = true;
                break;
            }
            let mut tape = Tape::with_context(Rc::clone(&ctx));
            let theta_a = tape.var(params[0].clone());
            let theta_x = tape.var(params[1].clone());
            // Flip probabilities through the concrete relaxation.
            let make_probs = |tape: &mut Tape, theta, gumbel: &Rc<DenseMatrix>| {
                let noisy = tape.add_const(theta, Rc::clone(gumbel));
                let scaled = tape.scalar_mul(noisy, 1.0 / cfg.temperature);
                tape.sigmoid(scaled)
            };
            let a_hat = if attack_topology {
                let p_a = make_probs(&mut tape, theta_a, &gumbel_a);
                let p_a = tape.hadamard_const(p_a, Rc::clone(&access_a));
                let delta = tape.hadamard_const(p_a, Rc::clone(&flip_dir_a));
                tape.add_const(delta, Rc::clone(&clean_a))
            } else {
                tape.constant((*clean_a).clone())
            };
            let x_hat = if attack_features {
                let p_x = make_probs(&mut tape, theta_x, &gumbel_x);
                let p_x = tape.hadamard_const(p_x, Rc::clone(&access_x));
                let delta = tape.hadamard_const(p_x, Rc::clone(&flip_dir_x));
                tape.add_const(delta, Rc::clone(&clean_x))
            } else {
                tape.constant((*clean_x).clone())
            };
            let obj = objective.eval(&mut tape, a_hat, x_hat);
            // Plain gradient ascent on the logits. (Adam's per-coordinate
            // normalization would equalize the growth rate of every
            // consistently-signed coordinate and destroy the edge-vs-
            // feature comparability that the greedy selection relies on.)
            tape.backward(obj);
            if let Some(ga) = tape.grad(theta_a) {
                params[0].axpy(cfg.lr, ga);
            }
            if let Some(gx) = tape.grad(theta_x) {
                params[1].axpy(cfg.lr, gx);
            }
            bbgnn_obs::event!(
                "peega_parallel/ascent_step",
                step = _step,
                objective = tape.value(obj).get(0, 0)
            );
        }

        // Commit the budget-many highest-probability flips. Scoring fans
        // candidate evaluation across the pool: each worker scans a
        // contiguous row band, and the per-band vectors are concatenated
        // in ascending band order, so the scored list — and hence the
        // stable sort below and the committed flips — is identical for
        // every worker count.
        let pool = ctx.pool();
        let mut scored: Vec<(f64, Flip)> = Vec::new();
        if attack_topology {
            let theta = &params[0];
            let band = pool.map_fold(
                n * n,
                |range| {
                    let mut out = Vec::new();
                    for k in range {
                        let (u, v) = (k / n, k % n);
                        if v > u && cfg.attacker_nodes.edge_allowed(u, v) {
                            let logit = 0.5 * (theta.get(u, v) + theta.get(v, u));
                            out.push((logit, Flip::Edge(u, v)));
                        }
                    }
                    out
                },
                crate::scan::concat,
            );
            scored.extend(band.unwrap_or_default());
        }
        if attack_features {
            let theta = &params[1];
            let band = pool.map_fold(
                n * d,
                |range| {
                    let mut out = Vec::new();
                    for k in range {
                        let (v, i) = (k / d, k % d);
                        if cfg.attacker_nodes.contains(v) {
                            out.push((theta.get(v, i), Flip::Feature(v, i)));
                        }
                    }
                    out
                },
                crate::scan::concat,
            );
            scored.extend(band.unwrap_or_default());
        }
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut poisoned = g.clone();
        for &(score, flip) in scored.iter().take(budget) {
            let (kind, u, v) = match flip {
                Flip::Edge(u, v) => {
                    poisoned.flip_edge(u, v);
                    bbgnn_obs::counter("attack/edge_flips", 1);
                    ("edge", u, v)
                }
                Flip::Feature(v, i) => {
                    poisoned.flip_feature(v, i);
                    bbgnn_obs::counter("attack/feature_flips", 1);
                    ("feature", v, i)
                }
            };
            bbgnn_obs::event!(
                "peega_parallel/perturb",
                kind = kind,
                u = u,
                v = v,
                score = score
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

    #[test]
    fn respects_budget() {
        let g = DatasetSpec::CoraLike.generate(0.05, 171);
        let mut atk = PeegaParallel::new(PeegaParallelConfig {
            rate: 0.1,
            steps: 20,
            ..Default::default()
        });
        let r = atk.attack(&g);
        assert!(r.edge_flips + r.feature_flips <= budget_for(&g, 0.1));
        assert!(r.edge_flips + r.feature_flips > 0);
    }

    #[test]
    fn cost_is_budget_independent() {
        // The whole point of the parallel variant: doubling the budget must
        // not double the runtime (steps are fixed).
        let g = DatasetSpec::CoraLike.generate(0.06, 172);
        let time_at = |rate: f64| {
            let mut atk = PeegaParallel::new(PeegaParallelConfig {
                rate,
                steps: 20,
                ..Default::default()
            });
            atk.attack(&g).elapsed.as_secs_f64()
        };
        let t_small = time_at(0.05);
        let t_large = time_at(0.25);
        assert!(
            t_large < 2.0 * t_small + 0.5,
            "runtime grew with budget: {t_small:.2}s -> {t_large:.2}s"
        );
    }

    #[test]
    fn degrades_gcn_accuracy() {
        let g = DatasetSpec::CoraLike.generate(0.08, 173);
        let mut clean = Gcn::paper_default(TrainConfig::fast_test());
        clean.fit(&g);
        let clean_acc = clean.test_accuracy(&g);
        let mut atk = PeegaParallel::new(PeegaParallelConfig {
            rate: 0.2,
            ..Default::default()
        });
        let poisoned = atk.attack(&g).poisoned;
        let mut victim = Gcn::paper_default(TrainConfig::fast_test());
        victim.fit(&poisoned);
        let acc = victim.test_accuracy(&poisoned);
        assert!(
            acc < clean_acc,
            "PEEGA-P must degrade accuracy: {clean_acc} -> {acc}"
        );
    }

    #[test]
    fn is_deterministic() {
        let g = DatasetSpec::CoraLike.generate(0.05, 174);
        let run = || {
            let mut atk = PeegaParallel::new(PeegaParallelConfig {
                steps: 10,
                ..Default::default()
            });
            let p = atk.attack(&g).poisoned;
            let e: Vec<_> = p.edges().collect();
            (e, p.features)
        };
        assert_eq!(run(), run());
    }

    /// The determinism contract: PEEGA-P's pooled flip scoring and threaded
    /// ascent kernels commit bitwise-identical flips for every worker count.
    /// The width is pinned through the entered scope, as a job pins it.
    #[test]
    fn thread_count_does_not_change_result() {
        let g = DatasetSpec::CoraLike.generate(0.05, 175);
        let run = |threads: usize| {
            let scope = bbgnn_supervise::SupervisionScope::new();
            scope.set_threads(threads);
            let _width = bbgnn_supervise::enter(&scope);
            let mut atk = PeegaParallel::new(PeegaParallelConfig {
                steps: 10,
                ..Default::default()
            });
            let p = atk.attack(&g).poisoned;
            let e: Vec<_> = p.edges().collect();
            (e, p.features)
        };
        let r1 = run(1);
        assert_eq!(r1, run(2), "2-thread run diverged from 1-thread run");
        assert_eq!(r1, run(4), "4-thread run diverged from 1-thread run");
    }
}
