//! GNN adversarial attackers.
//!
//! The paper's primary contribution is [`peega::Peega`], a pure black-box
//! attacker that only reads the adjacency matrix and node features. Every
//! attacker baseline of the evaluation section is implemented alongside it:
//!
//! | Attacker | Type | Inputs | Attacks |
//! |---|---|---|---|
//! | [`peega::Peega`] | black-box | `A, X` | topology + features |
//! | [`metattack::Metattack`] | gray-box | `A, X, Y` | topology |
//! | [`pgd::PgdAttack`] | white-box | `A, X, Y, θ` | topology |
//! | [`minmax::MinMaxAttack`] | white-box | `A, X, Y, θ` | topology |
//! | [`gfattack::GfAttack`] | black-box | `A, X` | topology |
//! | [`random::RandomAttack`] | control | `A` | topology |
//!
//! All attackers share the budget convention of the paper:
//! `δ = rate · ‖A‖₀` where `‖A‖₀` is the number of undirected edges, with
//! each edge flip costing 1 and each feature flip costing `β` (Sec. V-D1;
//! `β = 1` by default).
//!
//! The process-wide `--incremental` switch (`bbgnn_linalg::incr::enabled`,
//! DESIGN.md §13) is the only way an attacker takes the incremental
//! path. Two read it, once per attack: Metattack retrains its surrogate on
//! the engine's maintained `Â_n^L X`, and GF-Attack's exact backend builds
//! each candidate's normalized adjacency with `IncrNorm`. Either way the
//! committed flips are byte-identical to the dense path's.

#![deny(missing_docs)]

pub mod dice;
pub mod gfattack;
pub mod metattack;
pub mod minmax;
pub mod peega;
pub mod peega_parallel;
pub mod pgd;
pub mod random;
mod scan;
pub mod targeted;

use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_graph::Graph;
use bbgnn_linalg::DenseMatrix;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Which nodes the attacker may touch (Sec. V-E2 / Fig. 7a).
///
/// An edge flip requires at least one accessible endpoint (the attacker
/// controls one side of the relationship); a feature flip requires the node
/// itself to be accessible.
#[derive(Clone, Debug, Default)]
pub enum AttackerNodes {
    /// Every node is accessible (the paper's default untargeted setting).
    #[default]
    All,
    /// Only the listed nodes are accessible.
    Subset(Vec<usize>),
}

impl AttackerNodes {
    /// Whether node `v` is accessible.
    pub fn contains(&self, v: usize) -> bool {
        match self {
            AttackerNodes::All => true,
            AttackerNodes::Subset(nodes) => nodes.binary_search(&v).is_ok(),
        }
    }

    /// Whether the undirected edge `{u, v}` may be flipped.
    pub fn edge_allowed(&self, u: usize, v: usize) -> bool {
        match self {
            AttackerNodes::All => true,
            _ => self.contains(u) || self.contains(v),
        }
    }

    /// A random subset holding `rate · n` nodes, sorted, deterministic in
    /// `seed`.
    pub fn random_subset(n: usize, rate: f64, seed: u64) -> Self {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let take = ((n as f64 * rate).round() as usize).clamp(1, n);
        let mut subset = idx[..take].to_vec();
        subset.sort_unstable();
        AttackerNodes::Subset(subset)
    }
}

/// Outcome of an attack: the poisoned graph plus bookkeeping.
#[derive(Clone, Debug)]
pub struct AttackResult {
    /// The poisoned graph `Ĝ(V, Â, X̂)`.
    pub poisoned: Graph,
    /// Undirected edge flips performed (`‖Â − A‖₀`).
    pub edge_flips: usize,
    /// Feature bit flips performed (`‖X̂ − X‖₀`).
    pub feature_flips: usize,
    /// Wall-clock attack time.
    pub elapsed: Duration,
    /// True when the supervision layer (cancellation, deadline, or query
    /// budget) stopped the attack at a perturbation-loop boundary. The
    /// poisoned graph holds the perturbations accumulated so far —
    /// degraded, not failed.
    pub truncated: bool,
}

/// Cooperative stop poll for attacker perturbation loops (DESIGN.md §11).
/// Checked on the orchestrating thread at deterministic loop boundaries,
/// so a query-budget stop lands at the same perturbation count on every
/// run — query accounting happens before a pool region opens, so the
/// budget verdict never changes mid-region. The one documented exception
/// to "never inside pool workers" is GF-Attack's per-candidate rescoring,
/// which reaches the supervised eigensolvers from worker threads: a
/// *timing* stop (deadline or SIGINT) arriving mid-scan truncates its
/// candidate list at a timing-dependent point. The result is flagged
/// [`AttackResult::truncated`], and the nondeterminism never reaches a
/// clean checkpoint — downstream cells are skipped under a cancel and
/// recorded `degraded` under a budget. One relaxed load when supervision
/// is off.
pub(crate) fn should_stop(site: &str) -> bool {
    bbgnn_supervise::stop_reason(site).is_some()
}

/// A GNN attacker producing a poisoned graph within a budget derived from
/// the perturbation rate.
pub trait Attacker {
    /// Display name used in tables.
    fn name(&self) -> &'static str;

    /// Poisons `g` within the configured budget and returns the poisoned
    /// graph, plus whether a supervision stop (DESIGN.md §11) truncated
    /// it. Implementations must never mutate `g`.
    fn perturb(&mut self, g: &Graph) -> (Graph, bool);

    /// Attacks `g`: times [`Attacker::perturb`] and counts the flips it
    /// made. Implementors write `perturb`, not this.
    fn attack(&mut self, g: &Graph) -> AttackResult {
        // lint: allow(clock) reason=elapsed wall time is reported in AttackResult and never read back into numerics
        let start = Instant::now();
        let (poisoned, truncated) = self.perturb(g);
        AttackResult {
            edge_flips: g.edge_difference(&poisoned),
            feature_flips: g.feature_difference(&poisoned),
            elapsed: start.elapsed(),
            poisoned,
            truncated,
        }
    }
}

/// Runs `run` with the process-wide incremental switch off, then on, and
/// returns both results. The switch is process-global and cargo runs a
/// crate's tests in parallel, so every test that flips it goes through
/// this one lock; the switch is off again on return.
#[cfg(test)]
pub(crate) fn dense_and_incremental<T>(mut run: impl FnMut() -> T) -> (T, T) {
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = SWITCH
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    bbgnn_linalg::incr::set_enabled(false);
    let dense = run();
    bbgnn_linalg::incr::set_enabled(true);
    let incr = run();
    bbgnn_linalg::incr::set_enabled(false);
    (dense, incr)
}

/// `g` with each undirected edge of `flips` flipped.
pub(crate) fn with_edge_flips(g: &Graph, flips: impl IntoIterator<Item = (usize, usize)>) -> Graph {
    let mut poisoned = g.clone();
    for (u, v) in flips {
        poisoned.flip_edge(u, v);
    }
    poisoned
}

/// A clean binary matrix `M` and its flip direction `1 − 2M`. A relaxed
/// flip probability `P ∈ [0, 1]` turns it into `M + (1 − 2M) ∘ P`: `M` at
/// `P = 0`, every entry flipped at `P = 1`. PGD relaxes `A` this way, and
/// PEEGA-P relaxes `A` and `X`.
pub(crate) struct FlipRelaxation {
    pub(crate) clean: Rc<DenseMatrix>,
    dir: Rc<DenseMatrix>,
}

impl FlipRelaxation {
    pub(crate) fn new(clean: DenseMatrix) -> Self {
        let dir = Rc::new(clean.map(|m| 1.0 - 2.0 * m));
        FlipRelaxation {
            clean: Rc::new(clean),
            dir,
        }
    }

    /// Puts `M + (1 − 2M) ∘ p` on `tape`.
    pub(crate) fn relax(&self, tape: &mut Tape, p: TensorId) -> TensorId {
        let delta = tape.hadamard_const(p, Rc::clone(&self.dir));
        tape.add_const(delta, Rc::clone(&self.clean))
    }
}

/// Budget in undirected-edge units for a perturbation `rate`:
/// `δ = rate · ‖A‖₀`, at least 1.
pub fn budget_for(g: &Graph, rate: f64) -> usize {
    ((g.num_edges() as f64) * rate).round().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn budget_follows_rate() {
        let g = DatasetSpec::CoraLike.generate(0.05, 1);
        assert_eq!(
            budget_for(&g, 0.1),
            ((g.num_edges() as f64) * 0.1).round() as usize
        );
        assert_eq!(
            budget_for(&g, 0.0),
            1,
            "budget is floored at one modification"
        );
    }

    #[test]
    fn attacker_nodes_all_allows_everything() {
        let a = AttackerNodes::All;
        assert!(a.contains(0));
        assert!(a.edge_allowed(3, 9));
    }

    #[test]
    fn attacker_nodes_subset_requires_one_endpoint() {
        let a = AttackerNodes::Subset(vec![1, 5]);
        assert!(a.contains(5));
        assert!(!a.contains(2));
        assert!(a.edge_allowed(1, 2), "one accessible endpoint suffices");
        assert!(!a.edge_allowed(2, 3));
    }

    #[test]
    fn random_subset_has_requested_size() {
        let a = AttackerNodes::random_subset(100, 0.3, 7);
        if let AttackerNodes::Subset(s) = &a {
            assert_eq!(s.len(), 30);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        } else {
            panic!("expected subset");
        }
    }
}
