//! Targeted attacks (the Nettack setting of Table I), built on PEEGA's
//! objective restricted to a single victim node.
//!
//! The paper's PEEGA is untargeted, but its Def. 3 objective localizes
//! naturally: summing the representation difference over a single victim
//! `t` (and its neighborhood for the global view) yields a black-box
//! targeted attack with a per-victim budget — the scenario Nettack
//! pioneered with gray-box access. [`TargetedPeega`] runs that localized
//! PEEGA per victim; [`target_success_rate`] measures the fraction of
//! victims whose prediction a freshly-trained GCN gets wrong afterwards.

use crate::peega::{ObjectiveNodes, Peega, PeegaConfig};
use crate::Attacker;
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::Graph;

/// Targeted-PEEGA configuration.
#[derive(Clone, Debug)]
pub struct TargetedPeegaConfig {
    /// Victim nodes.
    pub targets: Vec<usize>,
    /// Modification budget per victim (Nettack uses the victim degree + 2;
    /// use [`TargetedPeegaConfig::degree_budget`] for that convention).
    pub budget_per_target: usize,
    /// Base PEEGA hyper-parameters (`rate` is ignored; the budget comes
    /// from `budget_per_target`).
    pub base: PeegaConfig,
}

impl TargetedPeegaConfig {
    /// The Nettack budget convention: `deg(t) + 2` modifications per
    /// victim, configured per target when the attack runs.
    pub fn degree_budget(targets: Vec<usize>, base: PeegaConfig) -> Self {
        Self {
            targets,
            budget_per_target: 0,
            base,
        }
    }
}

/// The targeted black-box attacker.
#[derive(Clone, Debug)]
pub struct TargetedPeega {
    /// Configuration.
    pub config: TargetedPeegaConfig,
}

impl TargetedPeega {
    /// Creates a targeted attacker.
    pub fn new(config: TargetedPeegaConfig) -> Self {
        Self { config }
    }

    fn budget_for_target(&self, g: &Graph, t: usize) -> usize {
        if self.config.budget_per_target > 0 {
            self.config.budget_per_target
        } else {
            g.degree(t) + 2
        }
    }
}

impl Attacker for TargetedPeega {
    fn name(&self) -> &'static str {
        "PEEGA-T"
    }

    fn perturb(&mut self, g: &Graph) -> (Graph, bool) {
        let _span = bbgnn_obs::span!("attack/targeted", nodes = g.num_nodes());
        assert!(
            !self.config.targets.is_empty(),
            "no victim nodes configured"
        );
        let mut poisoned = g.clone();
        let mut truncated = false;
        for &t in &self.config.targets {
            // Cooperative stop site (DESIGN.md §11): victims attacked so
            // far keep their perturbations; the rest go untouched.
            if crate::should_stop("attack/targeted/victim") {
                truncated = true;
                break;
            }
            assert!(t < g.num_nodes(), "victim {t} out of range");
            let budget = self.budget_for_target(&poisoned, t);
            // Localize: the objective sums over the victim only, and the
            // rate is set so the budget matches the per-target allowance.
            let rate = budget as f64 / poisoned.num_edges().max(1) as f64;
            let mut local = Peega::new(PeegaConfig {
                rate,
                objective_nodes: ObjectiveNodes::Custom(vec![t]),
                ..self.config.base.clone()
            });
            let (next, stopped) = local.perturb(&poisoned);
            truncated |= stopped;
            poisoned = next;
        }
        (poisoned, truncated)
    }
}

/// Fraction of `targets` misclassified by `model` on `g` — the targeted-
/// attack success metric (1.0 = every victim flipped).
pub fn target_success_rate(model: &dyn NodeClassifier, g: &Graph, targets: &[usize]) -> f64 {
    assert!(!targets.is_empty(), "no targets to evaluate");
    let preds = model.predict(g);
    let wrong = targets.iter().filter(|&&t| preds[t] != g.labels[t]).count();
    wrong as f64 / targets.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_gnn::gcn::Gcn;
    use bbgnn_gnn::train::TrainConfig;
    use bbgnn_graph::datasets::DatasetSpec;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn pick_targets(g: &Graph, k: usize, seed: u64) -> Vec<usize> {
        // Victims from the test split with degree ≥ 2 (standard Nettack
        // victim selection keeps classifiable nodes).
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pool: Vec<usize> = g
            .split
            .test
            .iter()
            .copied()
            .filter(|&v| g.degree(v) >= 2)
            .collect();
        pool.shuffle(&mut rng);
        pool.truncate(k);
        pool
    }

    #[test]
    fn budgets_are_local_and_bounded() {
        let g = DatasetSpec::CoraLike.generate(0.06, 631);
        let targets = pick_targets(&g, 3, 1);
        let max_budget: usize = targets.iter().map(|&t| g.degree(t) + 2).sum();
        let mut atk = TargetedPeega::new(TargetedPeegaConfig::degree_budget(
            targets,
            PeegaConfig::default(),
        ));
        let r = atk.attack(&g);
        assert!(r.edge_flips + r.feature_flips > 0);
        assert!(
            r.edge_flips + r.feature_flips <= max_budget,
            "{} flips exceed the summed degree budgets {max_budget}",
            r.edge_flips + r.feature_flips
        );
    }

    #[test]
    fn targeted_attack_flips_more_victims_than_it_leaves() {
        let g = DatasetSpec::CoraLike.generate(0.08, 632);
        let targets = pick_targets(&g, 8, 2);
        // Baseline: victims a clean-graph GCN already gets right/wrong.
        let mut clean_gcn = Gcn::paper_default(TrainConfig::fast_test());
        clean_gcn.fit(&g);
        let before = target_success_rate(&clean_gcn, &g, &targets);

        let mut atk = TargetedPeega::new(TargetedPeegaConfig::degree_budget(
            targets.clone(),
            PeegaConfig::default(),
        ));
        let poisoned = atk.attack(&g).poisoned;
        let mut victim_gcn = Gcn::paper_default(TrainConfig::fast_test());
        victim_gcn.fit(&poisoned);
        let after = target_success_rate(&victim_gcn, &poisoned, &targets);
        assert!(
            after > before,
            "targeted attack must flip victims: success {before} -> {after}"
        );
    }

    #[test]
    #[should_panic(expected = "no victim nodes")]
    fn empty_targets_panics() {
        let g = DatasetSpec::CoraLike.generate(0.04, 633);
        let mut atk = TargetedPeega::new(TargetedPeegaConfig {
            targets: vec![],
            budget_per_target: 3,
            base: PeegaConfig::default(),
        });
        let _ = atk.attack(&g);
    }
}
