//! Random edge-flip attack — the sanity-check control.
//!
//! Not a paper baseline, but used throughout the test-suite and benches to
//! confirm that principled attackers beat noise.

use crate::{budget_for, Attacker, AttackerNodes};
use bbgnn_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random attack configuration.
#[derive(Clone, Debug)]
pub struct RandomAttackConfig {
    /// Perturbation rate `r`.
    pub rate: f64,
    /// Accessible nodes.
    pub attacker_nodes: AttackerNodes,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomAttackConfig {
    fn default() -> Self {
        Self {
            rate: 0.1,
            attacker_nodes: AttackerNodes::All,
            seed: 0,
        }
    }
}

/// Flips uniformly random node pairs until the budget is exhausted.
#[derive(Clone, Debug)]
pub struct RandomAttack {
    /// Configuration.
    pub config: RandomAttackConfig,
}

impl RandomAttack {
    /// Creates a random attacker.
    pub fn new(config: RandomAttackConfig) -> Self {
        Self { config }
    }
}

impl Attacker for RandomAttack {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn perturb(&mut self, g: &Graph) -> (Graph, bool) {
        let n = g.num_nodes();
        let budget = budget_for(g, self.config.rate);
        let _span = bbgnn_obs::span!("attack/random", nodes = n, budget = budget);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut poisoned = g.clone();
        let mut flipped = std::collections::HashSet::new();
        let mut guard = 0;
        let mut truncated = false;
        while flipped.len() < budget && guard < budget * 200 + 1000 {
            // Cooperative stop site (DESIGN.md §11): flips so far are kept.
            if crate::should_stop("attack/random/flip") {
                truncated = true;
                break;
            }
            guard += 1;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v || !self.config.attacker_nodes.edge_allowed(u, v) {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if !flipped.insert(key) {
                continue;
            }
            poisoned.flip_edge(key.0, key.1);
        }
        (poisoned, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn flips_exactly_budget_distinct_pairs() {
        let g = DatasetSpec::CoraLike.generate(0.05, 95);
        let mut atk = RandomAttack::new(RandomAttackConfig::default());
        let r = atk.attack(&g);
        assert_eq!(r.edge_flips, budget_for(&g, 0.1));
    }

    #[test]
    fn seeded_runs_agree() {
        let g = DatasetSpec::CoraLike.generate(0.05, 96);
        let mut a = RandomAttack::new(RandomAttackConfig {
            seed: 5,
            ..Default::default()
        });
        let mut b = RandomAttack::new(RandomAttackConfig {
            seed: 5,
            ..Default::default()
        });
        let e1: Vec<_> = a.attack(&g).poisoned.edges().collect();
        let e2: Vec<_> = b.attack(&g).poisoned.edges().collect();
        assert_eq!(e1, e2);
    }
}
