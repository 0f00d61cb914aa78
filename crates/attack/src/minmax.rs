//! MinMax topology attack (Xu et al. 2019).
//!
//! Same relaxed formulation as [`crate::pgd`], but instead of fixing the
//! pre-trained victim parameters, MinMax alternates the maximization over
//! the perturbation with minimization over the GCN parameters: every
//! `retrain_every` ascent steps, the victim is retrained on the current
//! (discretized) perturbation. This makes the attack stronger than PGD —
//! and roughly twice as slow, matching Table VII.

use crate::pgd::{pgd_optimize, top_k_flips, PgdConfig};
use crate::{budget_for, with_edge_flips, Attacker, AttackerNodes};
use bbgnn_gnn::gcn::Gcn;
use bbgnn_gnn::train::TrainConfig;
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::Graph;

/// MinMax attack configuration.
#[derive(Clone, Debug)]
pub struct MinMaxConfig {
    /// Perturbation rate `r`.
    pub rate: f64,
    /// Projected-gradient ascent steps.
    pub ascent_steps: usize,
    /// Base ascent learning rate (decayed as `lr / √(t+1)`).
    pub lr: f64,
    /// Bernoulli sampling trials for the final discretization.
    pub sample_trials: usize,
    /// Retrain the victim every this many ascent steps.
    pub retrain_every: usize,
    /// Epochs per inner retraining.
    pub inner_epochs: usize,
    /// Victim training configuration (initial fit).
    pub train: TrainConfig,
    /// Accessible nodes.
    pub attacker_nodes: AttackerNodes,
    /// RNG seed for the sampling phase.
    pub seed: u64,
}

impl Default for MinMaxConfig {
    fn default() -> Self {
        Self {
            rate: 0.1,
            ascent_steps: 80,
            lr: 0.5,
            sample_trials: 20,
            retrain_every: 10,
            inner_epochs: 30,
            train: TrainConfig {
                epochs: 100,
                patience: 0,
                dropout: 0.0,
                ..Default::default()
            },
            attacker_nodes: AttackerNodes::All,
            seed: 0,
        }
    }
}

/// The MinMax white-box attacker.
#[derive(Clone, Debug)]
pub struct MinMaxAttack {
    /// Configuration.
    pub config: MinMaxConfig,
}

impl MinMaxAttack {
    /// Creates a MinMax attacker.
    pub fn new(config: MinMaxConfig) -> Self {
        Self { config }
    }
}

impl Attacker for MinMaxAttack {
    fn name(&self) -> &'static str {
        "MinMax"
    }

    fn perturb(&mut self, g: &Graph) -> (Graph, bool) {
        let _span = bbgnn_obs::span!("attack/minmax", nodes = g.num_nodes());
        let cfg = self.config.clone();
        let budget = budget_for(g, cfg.rate);
        let mut gcn = Gcn::paper_default(cfg.train.clone());
        gcn.fit(g);
        let inner_cfg = TrainConfig {
            epochs: cfg.inner_epochs,
            patience: 0,
            dropout: 0.0,
            ..cfg.train.clone()
        };
        let retrain_every = cfg.retrain_every.max(1);
        // The ascent and discretization are PGD's, with MinMax's knobs.
        let ascent = PgdConfig {
            rate: cfg.rate,
            ascent_steps: cfg.ascent_steps,
            lr: cfg.lr,
            sample_trials: cfg.sample_trials,
            train: cfg.train.clone(),
            attacker_nodes: cfg.attacker_nodes.clone(),
            seed: cfg.seed,
        };
        pgd_optimize(g, &ascent, &mut gcn, |victim, s, step| {
            if step == 0 || step % retrain_every != 0 {
                return;
            }
            // Inner minimization: retrain the victim on the current
            // perturbation, discretized to its strongest entries.
            *victim = Gcn::paper_default(inner_cfg.clone());
            victim.fit(&with_edge_flips(g, top_k_flips(s, budget)));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn respects_budget() {
        let g = DatasetSpec::CoraLike.generate(0.05, 81);
        let mut atk = MinMaxAttack::new(MinMaxConfig {
            rate: 0.1,
            ascent_steps: 20,
            retrain_every: 8,
            inner_epochs: 15,
            sample_trials: 5,
            ..Default::default()
        });
        let r = atk.attack(&g);
        assert!(r.edge_flips <= budget_for(&g, 0.1));
        assert!(r.edge_flips > 0);
        assert_eq!(r.feature_flips, 0);
    }

    #[test]
    fn differs_from_pgd_solution() {
        use crate::pgd::{PgdAttack, PgdConfig};
        let g = DatasetSpec::CoraLike.generate(0.05, 82);
        let mut mm = MinMaxAttack::new(MinMaxConfig {
            rate: 0.1,
            ascent_steps: 20,
            retrain_every: 5,
            inner_epochs: 15,
            sample_trials: 5,
            ..Default::default()
        });
        let mut pgd = PgdAttack::new(PgdConfig {
            rate: 0.1,
            ascent_steps: 20,
            sample_trials: 5,
            ..Default::default()
        });
        let rm = mm.attack(&g);
        let rp = pgd.attack(&g);
        let em: Vec<_> = rm.poisoned.edges().collect();
        let ep: Vec<_> = rp.poisoned.edges().collect();
        assert_ne!(em, ep, "retraining should steer MinMax to different flips");
    }
}
