//! DICE — "Delete Internally, Connect Externally" (Waniek et al. 2018).
//!
//! A label-aware heuristic baseline: each budgeted modification either
//! deletes an edge between same-label nodes or adds an edge between
//! different-label nodes, chosen uniformly at random. DICE needs labels
//! (gray-box) but no gradients, so it sits between the random control and
//! the optimization-based attackers — a useful calibration point for how
//! much of Fig. 2's Add+Diff pattern alone explains attack strength.

use crate::{budget_for, Attacker, AttackerNodes};
use bbgnn_graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// DICE configuration.
#[derive(Clone, Debug)]
pub struct DiceConfig {
    /// Perturbation rate `r`.
    pub rate: f64,
    /// Probability of a deletion (vs. an addition) per step.
    pub delete_prob: f64,
    /// Accessible nodes.
    pub attacker_nodes: AttackerNodes,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DiceConfig {
    fn default() -> Self {
        Self {
            rate: 0.1,
            delete_prob: 0.5,
            attacker_nodes: AttackerNodes::All,
            seed: 0,
        }
    }
}

/// The DICE heuristic attacker.
#[derive(Clone, Debug)]
pub struct Dice {
    /// Configuration.
    pub config: DiceConfig,
}

impl Dice {
    /// Creates a DICE attacker.
    pub fn new(config: DiceConfig) -> Self {
        Self { config }
    }
}

impl Attacker for Dice {
    fn name(&self) -> &'static str {
        "DICE"
    }

    fn perturb(&mut self, g: &Graph) -> (Graph, bool) {
        let cfg = &self.config;
        let n = g.num_nodes();
        let budget = budget_for(g, cfg.rate);
        let _span = bbgnn_obs::span!("attack/dice", nodes = n, budget = budget);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut poisoned = g.clone();
        let mut touched = std::collections::HashSet::new();
        let mut done = 0usize;
        let mut guard = 0usize;
        let mut truncated = false;
        while done < budget && guard < budget * 500 + 2000 {
            // Cooperative stop site (DESIGN.md §11): flips so far are kept.
            if crate::should_stop("attack/dice/flip") {
                truncated = true;
                break;
            }
            guard += 1;
            let delete = rng.gen::<f64>() < cfg.delete_prob;
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v || !cfg.attacker_nodes.edge_allowed(u, v) {
                continue;
            }
            let key = (u.min(v), u.max(v));
            if touched.contains(&key) {
                continue;
            }
            let same_label = g.labels[u] == g.labels[v];
            if delete {
                // Delete internally: same-label existing edge.
                if same_label && poisoned.has_edge(u, v) {
                    poisoned.remove_edge(u, v);
                    touched.insert(key);
                    done += 1;
                }
            } else {
                // Connect externally: different-label non-edge.
                if !same_label && !poisoned.has_edge(u, v) {
                    poisoned.add_edge(u, v);
                    touched.insert(key);
                    done += 1;
                }
            }
        }
        (poisoned, truncated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;
    use bbgnn_graph::metrics::edge_diff_breakdown;

    #[test]
    fn respects_budget_and_pattern() {
        let g = DatasetSpec::CoraLike.generate(0.05, 621);
        let mut atk = Dice::new(DiceConfig {
            rate: 0.1,
            ..Default::default()
        });
        let r = atk.attack(&g);
        assert!(r.edge_flips <= budget_for(&g, 0.1));
        let d = edge_diff_breakdown(&g, &r.poisoned);
        // By construction, only Del+Same and Add+Diff occur.
        assert_eq!(d.add_same, 0);
        assert_eq!(d.del_diff, 0);
        assert!(d.add_diff > 0 || d.del_same > 0);
    }

    #[test]
    fn delete_prob_extremes() {
        let g = DatasetSpec::CoraLike.generate(0.05, 622);
        let mut only_add = Dice::new(DiceConfig {
            delete_prob: 0.0,
            ..Default::default()
        });
        let d = edge_diff_breakdown(&g, &only_add.attack(&g).poisoned);
        assert_eq!(d.del_same + d.del_diff, 0);
        let mut only_del = Dice::new(DiceConfig {
            delete_prob: 1.0,
            ..Default::default()
        });
        let d = edge_diff_breakdown(&g, &only_del.attack(&g).poisoned);
        assert_eq!(d.add_same + d.add_diff, 0);
    }

    #[test]
    fn is_deterministic() {
        let g = DatasetSpec::CoraLike.generate(0.05, 623);
        let run = || {
            let mut atk = Dice::new(DiceConfig {
                seed: 9,
                ..Default::default()
            });
            atk.attack(&g).poisoned.edges().collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
