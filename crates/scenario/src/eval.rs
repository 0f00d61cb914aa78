//! Shared attack generation and repeated-run evaluation — the cell bodies
//! of Tables IV–VIII, lifted out of the bench crate so jobs can run them
//! from any entry point.

use crate::job::CellValue;
use crate::registry::{AttackerKind, DefenderKind};
use bbgnn_attack::AttackResult;
use bbgnn_gnn::eval::MeanStd;
use bbgnn_gnn::train::TrainConfig;
use bbgnn_graph::Graph;

/// Attack rows evaluated by the main tables, including the clean-graph row.
#[derive(Clone, Debug)]
pub enum AttackRow {
    /// No attack (the "Clean Graph" row).
    Clean,
    /// One of the registry attackers.
    Kind(AttackerKind),
}

impl AttackRow {
    /// Clean row plus the five paper attackers at `rate`.
    pub fn paper_rows(rate: f64) -> Vec<AttackRow> {
        let mut rows = vec![AttackRow::Clean];
        rows.extend(
            AttackerKind::paper_rows(rate)
                .into_iter()
                .map(AttackRow::Kind),
        );
        rows
    }

    /// Display name.
    pub fn name(&self) -> String {
        match self {
            AttackRow::Clean => "Clean".to_string(),
            AttackRow::Kind(k) => k.name().to_string(),
        }
    }

    /// Runs this row's attack on `g`. The row's models train on the
    /// result's `poisoned` graph, or on `g` itself for the clean row
    /// (`None`), so neither graph is copied.
    pub fn poison(&self, g: &Graph) -> Option<AttackResult> {
        match self {
            AttackRow::Clean => None,
            AttackRow::Kind(kind) => Some(kind.build().attack(g)),
        }
    }
}

/// Aggregate training health across the repeated runs of one cell,
/// gathered from the per-run [`TrainReport`](bbgnn_gnn::train::TrainReport)s.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalHealth {
    /// Total divergence rollbacks across all runs (recovered: the run still
    /// produced a model, on a halved learning rate).
    pub divergence_recoveries: usize,
    /// Runs whose training aborted at the divergence-recovery cap and kept
    /// the last-good parameters.
    pub diverged_runs: usize,
    /// Runs interrupted by the supervision layer (deadline/budget/cancel):
    /// the accuracy came from the best-so-far snapshot of a truncated
    /// training (DESIGN.md §11).
    pub interrupted_runs: usize,
}

impl EvalHealth {
    /// Whether any run needed a recovery path (the cell's value stands, but
    /// it should be reported as degraded).
    pub fn is_degraded(&self) -> bool {
        self.divergence_recoveries > 0 || self.diverged_runs > 0 || self.interrupted_runs > 0
    }
}

/// Trains `kind` on `g` over `runs` seeds and returns the test-accuracy
/// mean ± std — one cell of Tables IV–VI.
pub fn evaluate_defender(kind: &DefenderKind, g: &Graph, runs: usize, base_seed: u64) -> MeanStd {
    evaluate_defender_checked(kind, g, runs, base_seed).0
}

/// Like [`evaluate_defender`] but also surfaces the training-health
/// aggregate, so the fault-isolated harness can tag cells that only
/// survived via divergence rollback as `degraded`.
pub fn evaluate_defender_checked(
    kind: &DefenderKind,
    g: &Graph,
    runs: usize,
    base_seed: u64,
) -> (MeanStd, EvalHealth) {
    let mut accs = Vec::with_capacity(runs);
    let mut health = EvalHealth::default();
    for r in 0..runs {
        let train = TrainConfig {
            seed: base_seed + r as u64,
            ..TrainConfig::default()
        };
        let mut model = kind.build(train);
        let report = model.fit(g);
        health.divergence_recoveries += report.divergence_recoveries;
        health.diverged_runs += usize::from(report.diverged);
        health.interrupted_runs += usize::from(report.interrupted);
        accs.push(model.test_accuracy(g));
    }
    (MeanStd::of(&accs), health)
}

/// One accuracy cell: [`evaluate_defender_checked`]'s mean ± std, tagged
/// degraded when any run needed a recovery path.
pub fn accuracy_cell(kind: &DefenderKind, g: &Graph, runs: usize, base_seed: u64) -> CellValue {
    let (stats, health) = evaluate_defender_checked(kind, g, runs, base_seed);
    let text = stats.to_string();
    if health.is_degraded() {
        CellValue::degraded(text)
    } else {
        CellValue::clean(text)
    }
}

/// Like [`evaluate_defender`] but also returns the mean training seconds
/// (Table VIII).
pub fn evaluate_defender_timed(
    kind: &DefenderKind,
    g: &Graph,
    runs: usize,
    base_seed: u64,
) -> (MeanStd, MeanStd) {
    let mut accs = Vec::with_capacity(runs);
    let mut secs = Vec::with_capacity(runs);
    for r in 0..runs {
        let train = TrainConfig {
            seed: base_seed + r as u64,
            ..TrainConfig::default()
        };
        let mut model = kind.build(train);
        let start = std::time::Instant::now();
        model.fit(g);
        secs.push(start.elapsed().as_secs_f64());
        accs.push(model.test_accuracy(g));
    }
    (MeanStd::of(&accs), MeanStd::of(&secs))
}

/// Mean ± std of the GCN accuracy on `g` — the single-model evaluation the
/// sensitivity figures use.
pub fn gcn_accuracy(g: &Graph, runs: usize, base_seed: u64) -> MeanStd {
    evaluate_defender(&DefenderKind::Gcn, g, runs, base_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn paper_rows_start_with_clean() {
        let rows = AttackRow::paper_rows(0.1);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].name(), "Clean");
        assert_eq!(rows[5].name(), "PEEGA");
    }

    #[test]
    fn clean_row_is_identity() {
        let g = DatasetSpec::CoraLike.generate(0.05, 1);
        assert!(AttackRow::Clean.poison(&g).is_none());
    }

    #[test]
    fn evaluate_defender_returns_sane_stats() {
        let g = DatasetSpec::CoraLike.generate(0.05, 2);
        let stats = evaluate_defender(&DefenderKind::Gcn, &g, 2, 0);
        assert!(stats.mean > 0.2 && stats.mean <= 1.0);
        assert!(stats.std >= 0.0);
    }
}
