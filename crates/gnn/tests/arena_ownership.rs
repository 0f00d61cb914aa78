//! The autodiff tape owns its buffers: every leaf and op value comes from
//! its `ExecContext`'s arena and goes back to it, so the arena's peak —
//! what the `mem=` budget reads — counts every tape buffer, and tapes
//! built one after another on one context reuse the same buffers.
//!
//! The graph is the cora-like one at scale 0.12, seed 7 (298 × 171, 7
//! classes): its propagated features `H = Â²X`, the constant every epoch
//! of a linear-surrogate fit holds, take 298 · 171 · 8 = 407,664 bytes.

use bbgnn_autodiff::Tape;
use bbgnn_gnn::linear_gcn::LinearGcn;
use bbgnn_gnn::train::{TrainConfig, TrainReport};
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::datasets::DatasetSpec;
use bbgnn_graph::Graph;
use bbgnn_linalg::{DenseMatrix, ExecContext};
use bbgnn_supervise::{RunBudget, SupervisionScope};
use std::rc::Rc;

/// Bytes of the `298 × 171` propagated feature matrix.
const H_BYTES: usize = 298 * 171 * 8;

fn graph() -> Graph {
    let g = DatasetSpec::CoraLike.generate(0.12, 7);
    assert_eq!((g.num_nodes(), g.feature_dim()), (298, 171));
    g
}

/// A 2-hop linear GCN fit of 100 epochs, no early stop, inside a fresh
/// activated scope with `budget` installed; the report and the scope.
fn fit_in_scope(budget: &RunBudget) -> (TrainReport, std::sync::Arc<SupervisionScope>) {
    let g = graph();
    let scope = SupervisionScope::new();
    scope.activate();
    scope.install_budget(budget);
    let _entered = bbgnn_supervise::enter(&scope);
    let cfg = TrainConfig {
        epochs: 100,
        patience: 0,
        ..TrainConfig::default()
    };
    let report = LinearGcn::new(2, cfg).fit(&g);
    (report, scope)
}

#[test]
fn the_scope_peak_counts_the_tape_constant() {
    let (report, scope) = fit_in_scope(&RunBudget::default());
    assert!(!report.interrupted);
    assert_eq!(report.epochs_run, 100);
    assert!(
        scope.peak_bytes() >= H_BYTES as u64,
        "peak {} B misses the {H_BYTES} B constant every epoch holds",
        scope.peak_bytes()
    );
}

#[test]
fn a_memory_budget_below_the_constant_stops_at_the_first_epoch_boundary() {
    let budget = RunBudget::parse_spec("mem=256Ki").unwrap();
    let (report, scope) = fit_in_scope(&budget);
    assert!(report.interrupted, "a 256 KiB cap must stop the fit");
    assert_eq!(report.epochs_run, 1, "the stop lands at the first boundary");
    assert!(scope.peak_bytes() > 256 << 10);
}

#[test]
fn repeated_tapes_reuse_the_buffers_the_arena_lent() {
    let g = graph();
    let h = g.propagate(2);
    let w = DenseMatrix::glorot(g.feature_dim(), g.num_classes, 3);
    assert_eq!(w.shape(), (171, 7));
    let labels = Rc::new(g.labels.clone());
    let rows = Rc::new(g.split.train.clone());
    let ctx = Rc::new(ExecContext::new(1));
    let mut after_second = 0;
    for i in 0..200 {
        let mut tape = Tape::with_context(Rc::clone(&ctx));
        let hc = tape.constant(&h);
        let wv = tape.var(&w);
        let logits = tape.matmul(hc, wv);
        let loss = tape.cross_entropy(logits, Rc::clone(&labels), Rc::clone(&rows));
        tape.backward(loss);
        drop(tape);
        if i == 1 {
            after_second = ctx.peak_bytes();
        }
    }
    assert_eq!(
        ctx.peak_bytes(),
        after_second,
        "the arena grew after the second tape"
    );
}
