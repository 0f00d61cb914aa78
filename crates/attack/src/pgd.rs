//! PGD topology attack (Xu et al. 2019), the white-box baseline.
//!
//! The attack relaxes the discrete edge-flip decision into a continuous
//! perturbation matrix `S ∈ [0,1]^{n×n}` with `Â = A + (1 − 2A) ∘ S`,
//! maximizes the (fixed-parameter) GCN training loss by projected gradient
//! ascent — projecting `S` after each step onto the box-and-budget set
//! `{0 ≤ S ≤ 1, Σ S ≤ δ}` — and finally draws Bernoulli samples from `S`,
//! keeping the feasible sample with the highest loss.
//!
//! PGD pre-trains the victim GCN once and keeps its parameters fixed
//! (the companion MinMax attack in [`crate::minmax`] retrains them
//! between ascent steps).

use crate::{budget_for, with_edge_flips, Attacker, AttackerNodes, FlipRelaxation};
use bbgnn_autodiff::Tape;
use bbgnn_gnn::gcn::Gcn;
use bbgnn_gnn::train::TrainConfig;
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::Graph;
use bbgnn_linalg::{CsrMatrix, DenseMatrix, ExecContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// PGD attack configuration.
#[derive(Clone, Debug)]
pub struct PgdConfig {
    /// Perturbation rate `r`.
    pub rate: f64,
    /// Projected-gradient ascent steps.
    pub ascent_steps: usize,
    /// Base ascent learning rate (decayed as `lr / √(t+1)`).
    pub lr: f64,
    /// Bernoulli sampling trials for the final discretization.
    pub sample_trials: usize,
    /// Victim training configuration.
    pub train: TrainConfig,
    /// Accessible nodes.
    pub attacker_nodes: AttackerNodes,
    /// RNG seed for the sampling phase.
    pub seed: u64,
}

impl Default for PgdConfig {
    fn default() -> Self {
        Self {
            rate: 0.1,
            ascent_steps: 80,
            lr: 0.5,
            sample_trials: 20,
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

/// The PGD white-box attacker.
#[derive(Clone, Debug)]
pub struct PgdAttack {
    /// Configuration.
    pub config: PgdConfig,
}

impl PgdAttack {
    /// Creates a PGD attacker.
    pub fn new(config: PgdConfig) -> Self {
        Self { config }
    }
}

/// Projects the strict upper triangle of `s` onto
/// `{0 ≤ x ≤ 1, Σ x ≤ budget}` (bisection on the shift `μ`), then mirrors
/// it to keep `s` symmetric with a zero diagonal.
pub(crate) fn project_budget(s: &mut DenseMatrix, budget: f64) {
    let n = s.rows();
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            entries.push((u, v, 0.5 * (s.get(u, v) + s.get(v, u))));
        }
    }
    let clip_sum = |mu: f64| -> f64 {
        entries
            .iter()
            .map(|&(_, _, x)| (x - mu).clamp(0.0, 1.0))
            .sum()
    };
    let mu = if clip_sum(0.0) <= budget {
        0.0
    } else {
        let (mut lo, mut hi) = (0.0, entries.iter().map(|e| e.2).fold(0.0_f64, f64::max));
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if clip_sum(mid) > budget {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    };
    for v in s.as_mut_slice() {
        *v = 0.0;
    }
    for &(u, v, x) in &entries {
        let clipped = (x - mu).clamp(0.0, 1.0);
        s.set(u, v, clipped);
        s.set(v, u, clipped);
    }
}

/// Zeroes entries of `s` whose edge is not allowed by `nodes`.
pub(crate) fn mask_inaccessible(s: &mut DenseMatrix, nodes: &AttackerNodes) {
    if matches!(nodes, AttackerNodes::All) {
        return;
    }
    let n = s.rows();
    for u in 0..n {
        for v in 0..n {
            if !nodes.edge_allowed(u, v) {
                s.set(u, v, 0.0);
            }
        }
    }
}

/// Evaluates the discrete white-box loss of flipping `flips` on `g` under
/// the fixed GCN weights.
pub(crate) fn discrete_loss(
    g: &Graph,
    flips: &[(usize, usize)],
    xw0: &DenseMatrix,
    w1: &DenseMatrix,
) -> f64 {
    let an: CsrMatrix = with_edge_flips(g, flips.iter().copied()).normalized_adjacency();
    let h1 = an.spmm(xw0).map(|x| x.max(0.0));
    let logits = an.spmm(&h1.matmul(w1));
    // Mean cross-entropy over the train rows (the quantity PGD maximizes).
    let mut loss = 0.0;
    for &r in &g.split.train {
        let row = logits.row(r);
        let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = max + row.iter().map(|v| (v - max).exp()).sum::<f64>().ln();
        loss -= row[g.labels[r]] - lse;
    }
    loss / g.split.train.len() as f64
}

/// Samples a feasible binary flip set from `S` (Bernoulli per upper-triangle
/// entry), retrying until `Σ flips ≤ budget`.
pub(crate) fn sample_flips(
    s: &DenseMatrix,
    budget: usize,
    rng: &mut StdRng,
) -> Vec<(usize, usize)> {
    let n = s.rows();
    for _attempt in 0..50 {
        let mut flips = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let p = s.get(u, v);
                if p > 0.0 && rng.gen::<f64>() < p {
                    flips.push((u, v));
                }
            }
        }
        if flips.len() <= budget {
            return flips;
        }
    }
    // Fallback: the budget-many largest entries.
    top_k_flips(s, budget)
}

/// The `k` largest upper-triangle entries of `s` (deterministic fallback).
pub(crate) fn top_k_flips(s: &DenseMatrix, k: usize) -> Vec<(usize, usize)> {
    let n = s.rows();
    let mut entries: Vec<(f64, usize, usize)> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if s.get(u, v) > 0.0 {
                entries.push((s.get(u, v), u, v));
            }
        }
    }
    entries.sort_by(|a, b| b.0.total_cmp(&a.0));
    entries
        .into_iter()
        .take(k)
        .map(|(_, u, v)| (u, v))
        .collect()
}

/// Shared PGD ascent loop; `retrain` is invoked before each ascent step so
/// MinMax can interleave model minimization. Returns the poisoned graph
/// plus a flag set when the supervision layer stopped the ascent early (the
/// discretization then runs on the relaxed `S` accumulated so far).
pub(crate) fn pgd_optimize(
    g: &Graph,
    cfg: &PgdConfig,
    gcn: &mut Gcn,
    mut retrain: impl FnMut(&mut Gcn, &DenseMatrix, usize),
) -> (Graph, bool) {
    let n = g.num_nodes();
    let budget = budget_for(g, cfg.rate);
    let relaxed_a = FlipRelaxation::new(g.adjacency_dense());
    let eye = Rc::new(DenseMatrix::identity(n));
    let mut s = DenseMatrix::zeros(n, n);
    // Shared kernels + workspace arena for every ascent step's tape.
    let ctx = ExecContext::shared_from_env();

    let mut truncated = false;
    for step in 0..cfg.ascent_steps {
        // Cooperative stop site (DESIGN.md §11): discretize whatever the
        // ascent has produced so far.
        if crate::should_stop("attack/pgd/ascent") {
            truncated = true;
            break;
        }
        retrain(gcn, &s, step);
        // The fixed-weight GCN loss on the relaxed `Â = A + (1 − 2A) ∘ S`.
        let mut tape = Tape::with_context(Rc::clone(&ctx));
        let s_id = tape.var(&s);
        let a_hat = relaxed_a.relax(&mut tape, s_id);
        let loss = gcn.dense_loss(&mut tape, a_hat, &eye, g);
        tape.backward(loss);
        // lint: allow(panic) reason=s_id is a tape.var leaf on the path to loss, so backward always populates its gradient
        let grad = tape.grad(s_id).expect("perturbation gradient");
        let step_lr = cfg.lr / ((step + 1) as f64).sqrt();
        s.axpy(step_lr, grad);
        mask_inaccessible(&mut s, &cfg.attacker_nodes);
        project_budget(&mut s, budget as f64);
    }

    // Discretize: Bernoulli trials, keep the feasible sample with the
    // highest (fixed-weight) loss.
    let w = gcn.weights();
    let xw0 = g.features.matmul(&w[0]);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut best: Option<(f64, Vec<(usize, usize)>)> = None;
    for _ in 0..cfg.sample_trials.max(1) {
        let flips = sample_flips(&s, budget, &mut rng);
        if flips.is_empty() {
            continue;
        }
        let loss = discrete_loss(g, &flips, &xw0, &w[1]);
        if best.as_ref().map_or(true, |(b, _)| loss > *b) {
            best = Some((loss, flips));
        }
    }
    let flips = best
        .map(|(_, f)| f)
        .unwrap_or_else(|| top_k_flips(&s, budget));
    (with_edge_flips(g, flips), truncated)
}

impl Attacker for PgdAttack {
    fn name(&self) -> &'static str {
        "PGD"
    }

    fn perturb(&mut self, g: &Graph) -> (Graph, bool) {
        let _span = bbgnn_obs::span!("attack/pgd", nodes = g.num_nodes());
        let cfg = &self.config;
        // Pre-train the victim once; parameters stay fixed afterwards.
        let mut gcn = Gcn::paper_default(cfg.train.clone());
        gcn.fit(g);
        pgd_optimize(g, cfg, &mut gcn, |_, _, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn projection_enforces_box_and_budget() {
        let mut s = DenseMatrix::uniform(6, 6, 3.0, 5).map(f64::abs);
        s.symmetrize();
        project_budget(&mut s, 4.0);
        let mut sum = 0.0;
        for u in 0..6 {
            assert_eq!(s.get(u, u), 0.0, "diagonal must be zero");
            for v in (u + 1)..6 {
                let x = s.get(u, v);
                assert!((0.0..=1.0).contains(&x), "entry {x} outside box");
                assert_eq!(x, s.get(v, u), "projection must stay symmetric");
                sum += x;
            }
        }
        assert!(sum <= 4.0 + 1e-6, "budget violated: {sum}");
    }

    #[test]
    fn projection_noop_when_feasible() {
        let mut s = DenseMatrix::zeros(4, 4);
        s.set(0, 1, 0.3);
        s.set(1, 0, 0.3);
        project_budget(&mut s, 2.0);
        assert!((s.get(0, 1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn respects_budget_and_degrades_loss() {
        let g = DatasetSpec::CoraLike.generate(0.05, 71);
        let mut atk = PgdAttack::new(PgdConfig {
            rate: 0.1,
            ascent_steps: 30,
            sample_trials: 10,
            ..Default::default()
        });
        let r = atk.attack(&g);
        assert!(r.edge_flips <= budget_for(&g, 0.1));
        assert!(r.edge_flips > 0, "PGD found no flips");
        assert_eq!(r.feature_flips, 0);
    }

    #[test]
    fn top_k_flips_orders_by_weight() {
        let mut s = DenseMatrix::zeros(3, 3);
        s.set(0, 1, 0.9);
        s.set(0, 2, 0.5);
        s.set(1, 2, 0.7);
        let flips = top_k_flips(&s, 2);
        assert_eq!(flips, vec![(0, 1), (1, 2)]);
    }
}
