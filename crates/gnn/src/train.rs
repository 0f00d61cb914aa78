//! Shared full-batch training loop.
//!
//! The loop guards every epoch with divergence sentinels: a non-finite
//! training loss or gradient triggers a rollback to the last parameter
//! snapshot that produced a finite loss, halves the learning rate, and
//! retries (bounded by [`MAX_DIVERGENCE_RECOVERIES`]). Outcomes are
//! surfaced in [`TrainReport`] — `diverged` / `divergence_recoveries` —
//! rather than panicking, so a poisoned run never takes the whole
//! experiment sweep down with it.

use bbgnn_autodiff::optim::Adam;
use bbgnn_autodiff::{Tape, TensorId};
use bbgnn_errors::first_non_finite;
use bbgnn_graph::Graph;
use bbgnn_linalg::{DenseMatrix, ExecContext};
use bbgnn_store::format::{Artifact, Reader, Writer};
use bbgnn_store::Key;
use std::rc::Rc;
use std::time::Instant;

/// Bound on rollback + learning-rate-halving retries per training run.
pub const MAX_DIVERGENCE_RECOVERIES: usize = 3;

/// Forward-pass mode, threaded into every model's `forward` closure.
///
/// Replaces the old `epoch == usize::MAX` sentinel: dropout masks and
/// stochastic regularizers (RGCN's reparameterization noise, SimPGCN's
/// self-supervised term) fire only under [`Mode::Train`], whose epoch
/// index seeds them deterministically. [`Mode::Eval`] is a pure
/// deterministic inference pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training pass; `epoch` seeds dropout masks and sampled noise so a
    /// rerun with the same config is bitwise identical.
    Train {
        /// Zero-based epoch index.
        epoch: usize,
    },
    /// Inference pass: dropout and stochastic regularizers disabled.
    Eval,
}

impl Mode {
    /// `Some(epoch)` during training, `None` at inference. The idiomatic
    /// dropout guard is `if let Some(epoch) = mode.train_epoch() { … }`.
    pub fn train_epoch(self) -> Option<usize> {
        match self {
            Mode::Train { epoch } => Some(epoch),
            Mode::Eval => None,
        }
    }

    /// True for [`Mode::Train`].
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train { .. })
    }
}

/// Hyper-parameters shared by every trained model in the workspace.
/// Defaults follow the reference GCN implementation (Adam, `lr = 0.01`,
/// `weight_decay = 5e-4`, 200 epochs, early stopping patience 30).
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Learning rate.
    pub lr: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Maximum epochs.
    pub epochs: usize,
    /// Early-stopping patience in epochs (0 disables early stopping).
    pub patience: usize,
    /// Dropout probability used by models that support it.
    pub dropout: f64,
    /// Base RNG seed (initialization and dropout masks derive from it).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 0.01,
            weight_decay: 5e-4,
            epochs: 200,
            patience: 30,
            dropout: 0.5,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// A fast configuration for unit tests.
    pub fn fast_test() -> Self {
        Self {
            epochs: 60,
            patience: 60,
            dropout: 0.0,
            ..Self::default()
        }
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainReport {
    /// Epochs actually executed (≤ configured epochs under early stopping).
    pub epochs_run: usize,
    /// Best validation accuracy observed.
    pub best_val_accuracy: f64,
    /// Final training loss.
    pub final_loss: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Rollback + LR-halving recoveries performed after a non-finite loss
    /// or gradient was detected.
    pub divergence_recoveries: usize,
    /// True when training aborted because the recovery budget ran out; the
    /// parameters are the last snapshot that produced a finite loss.
    pub diverged: bool,
    /// True when the supervision layer (cancellation, deadline, or epoch
    /// budget) stopped the run at an epoch boundary. The parameters are
    /// the best snapshot observed so far — degraded, not failed.
    pub interrupted: bool,
}

/// A trained model as the artifact store keeps it (tag 3, kind `model`):
/// the parameter matrices in the order the model's `fit` built them, and
/// the report of the run that trained them.
#[derive(Clone, Debug)]
pub struct TrainedModel {
    /// Parameter matrices, in layer order.
    pub weights: Vec<DenseMatrix>,
    /// Report of the original training run. A hit replays it, so its
    /// `seconds` is the cost the hit saved, not the load time.
    pub report: TrainReport,
}

impl Artifact for TrainedModel {
    const TAG: u8 = 3;
    const KIND: &'static str = "model";

    fn encode(&self, w: &mut Writer) {
        w.usize(self.weights.len());
        for m in &self.weights {
            m.encode(w);
        }
        let r = &self.report;
        w.usize(r.epochs_run);
        w.f64(r.best_val_accuracy);
        w.f64(r.final_loss);
        w.f64(r.seconds);
        w.usize(r.divergence_recoveries);
        w.bool(r.diverged);
    }

    fn decode(r: &mut Reader) -> Result<Self, String> {
        let n = r.len_prefix(8)?;
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            weights.push(DenseMatrix::decode(r)?);
        }
        let report = TrainReport {
            epochs_run: r.usize()?,
            best_val_accuracy: r.f64()?,
            final_loss: r.f64()?,
            seconds: r.f64()?,
            divergence_recoveries: r.usize()?,
            diverged: r.bool()?,
            // Not stored: an interrupted run is never published.
            interrupted: false,
        };
        Ok(TrainedModel { weights, report })
    }
}

/// Trains `params` with Adam by repeatedly calling `forward` to build the
/// loss and logits, early-stopping on validation accuracy.
///
/// `forward(tape, params, mode)` must register each parameter with
/// `tape.var` *in order* and return `(logits, param_ids, regularizer)`;
/// it receives [`Mode::Train`] on optimization passes and [`Mode::Eval`]
/// on the early-stopping validation pass. A `Some` regularizer is a
/// scalar loss tensor (RGCN's KL term, SimPGCN's self-supervised
/// similarity loss) added to the cross-entropy before backward.
///
/// `salt` names the model: its architecture and every shape knob. With
/// an artifact store installed it is completed with the graph's content
/// hash and every [`TrainConfig`] field, so two trainings share an
/// artifact iff their inputs are bit-for-bit identical, and a hit
/// installs the stored weights and returns the original run's report
/// **without opening a `train/fit` span or running a single epoch**.
/// A stored model whose shapes differ from `params` (a layout changed
/// without its salt) is retrained, and an interrupted run is never
/// stored, so a later unconstrained run retrains fully instead of
/// inheriting a partial model. With no store, `salt` is never called.
///
/// This is the one training loop shared by GCN, GAT, the linear surrogate,
/// and every trained defender, so early stopping and bookkeeping behave
/// identically across the paper's table rows.
pub fn train_node_classifier(
    params: &mut Vec<DenseMatrix>,
    g: &Graph,
    cfg: &TrainConfig,
    salt: impl FnOnce() -> Key,
    forward: impl FnMut(&mut Tape, &[DenseMatrix], Mode) -> (TensorId, Vec<TensorId>, Option<TensorId>),
) -> TrainReport {
    let key = bbgnn_store::enabled().then(|| complete_model_key(salt(), g, cfg));
    // Publish rule: retrain on a shape mismatch, never store an interrupted run.
    if let Some(model) = key.as_ref().and_then(bbgnn_store::lookup::<TrainedModel>) {
        let shapes_match = model.weights.len() == params.len()
            && model
                .weights
                .iter()
                .zip(params.iter())
                .all(|(a, b)| a.rows() == b.rows() && a.cols() == b.cols());
        if shapes_match {
            *params = model.weights;
            return model.report;
        }
    }
    let report = fit(params, g, cfg, forward);
    if let Some(key) = key.as_ref().filter(|_| !report.interrupted) {
        let model = TrainedModel {
            weights: params.clone(),
            report: report.clone(),
        };
        bbgnn_store::publish(key, &model);
    }
    report
}

/// Extends a model salt into a full cache key: graph content hash plus
/// every training hyperparameter (float `Display` is shortest-roundtrip,
/// hence lossless).
fn complete_model_key(salt: Key, g: &Graph, cfg: &TrainConfig) -> Key {
    salt.hash_field("graph", g.content_hash())
        .field("lr", cfg.lr)
        .field("wd", cfg.weight_decay)
        .field("epochs", cfg.epochs)
        .field("patience", cfg.patience)
        .field("dropout", cfg.dropout)
        .field("seed", cfg.seed)
}

/// The training loop itself, store-free.
fn fit(
    params: &mut Vec<DenseMatrix>,
    g: &Graph,
    cfg: &TrainConfig,
    mut forward: impl FnMut(
        &mut Tape,
        &[DenseMatrix],
        Mode,
    ) -> (TensorId, Vec<TensorId>, Option<TensorId>),
) -> TrainReport {
    // lint: allow(clock) reason=elapsed wall time is reported in TrainReport and never read back into numerics
    let start = Instant::now();
    let _span = bbgnn_obs::span!(
        "train/fit",
        epochs = cfg.epochs,
        lr = cfg.lr,
        patience = cfg.patience,
        nodes = g.num_nodes(),
        seed = cfg.seed
    );
    // One execution context for the whole run: every epoch's tape shares
    // the thread pool and recycles its tensor buffers through the same
    // workspace arena, so epochs after the first allocate almost nothing.
    let ctx = Rc::new(ExecContext::from_env());
    let labels = Rc::new(g.labels.clone());
    let train_rows = Rc::new(g.split.train.clone());
    let mut lr = cfg.lr;
    let mut opt = Adam::new(lr, cfg.weight_decay, params);
    let mut best_val = f64::NEG_INFINITY;
    let mut best_params: Option<Vec<DenseMatrix>> = None;
    // Snapshot of the parameters that last produced a finite loss and
    // gradient — the rollback target of the divergence sentinel.
    let mut last_good = params.clone();
    let mut divergence_recoveries = 0usize;
    let mut diverged = false;
    let mut since_best = 0usize;
    let mut epochs_run = 0usize;
    let mut final_loss = f64::NAN;
    let mut interrupted = false;
    for epoch in 0..cfg.epochs {
        // Cooperative stop site (DESIGN.md §11): epoch boundary. A stop
        // keeps the best-so-far parameters and flags the report degraded;
        // completed epochs are untouched, preserving bitwise determinism.
        if bbgnn_supervise::stop_reason("train/epoch").is_some() {
            interrupted = true;
            break;
        }
        epochs_run = epoch + 1;
        let mut tape = Tape::with_context(Rc::clone(&ctx));
        let (logits, ids, extra) = forward(&mut tape, params, Mode::Train { epoch });
        let ce = tape.cross_entropy(logits, Rc::clone(&labels), Rc::clone(&train_rows));
        let loss = match extra {
            Some(reg) => tape.add(ce, reg),
            None => ce,
        };
        final_loss = tape.value(loss).get(0, 0);
        let mut unstable = !final_loss.is_finite();
        let mut grads: Vec<Option<&DenseMatrix>> = Vec::new();
        if !unstable {
            tape.backward(loss);
            grads = ids.iter().map(|&id| tape.grad(id)).collect();
            unstable = grads
                .iter()
                .any(|grad| grad.is_some_and(|m| first_non_finite(m.as_slice()).is_some()));
        }
        // Telemetry (tracing builds only): global gradient L2 norm and
        // training accuracy off the already-materialized forward pass.
        let mut grad_norm = f64::NAN;
        let mut train_acc = f64::NAN;
        if bbgnn_obs::enabled() {
            grad_norm = grads
                .iter()
                .flatten()
                .flat_map(|m| m.as_slice())
                .map(|v| v * v)
                .sum::<f64>()
                .sqrt();
            let preds = tape.value(logits).row_argmax();
            train_acc = crate::eval::accuracy(&preds, &g.labels, &g.split.train);
        }
        if unstable {
            if divergence_recoveries >= MAX_DIVERGENCE_RECOVERIES {
                // Recovery budget exhausted: keep the last healthy
                // parameters and report the divergence instead of stepping
                // on garbage (or panicking).
                params.clone_from(&last_good);
                diverged = true;
                bbgnn_obs::event!("train/diverged", epoch = epoch, loss = final_loss);
                break;
            }
            divergence_recoveries += 1;
            params.clone_from(&last_good);
            lr *= 0.5;
            bbgnn_obs::counter("train/divergence_rollbacks", 1);
            bbgnn_obs::event!("train/rollback", epoch = epoch, lr = lr, loss = final_loss);
            // Fresh optimizer: the Adam moments were accumulated on the
            // trajectory that just blew up.
            opt = Adam::new(lr, cfg.weight_decay, params);
            continue;
        }
        last_good.clone_from(params);
        opt.step(params, &grads);

        let mut val_acc = f64::NAN;
        let mut stop_early = false;
        if cfg.patience > 0 && !g.split.valid.is_empty() {
            // Evaluation pass without dropout (`Mode::Eval` switches the
            // forward closure to inference).
            let mut eval_tape = Tape::with_context(Rc::clone(&ctx));
            let (logits, _, _) = forward(&mut eval_tape, params, Mode::Eval);
            let preds = eval_tape.value(logits).row_argmax();
            val_acc = crate::eval::accuracy(&preds, &g.labels, &g.split.valid);
            if val_acc > best_val {
                best_val = val_acc;
                best_params = Some(params.clone());
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= cfg.patience {
                    stop_early = true;
                }
            }
        }
        bbgnn_obs::counter("train/epochs", 1);
        bbgnn_supervise::note_epochs(1);
        bbgnn_obs::event!(
            "train/epoch",
            epoch = epoch,
            loss = final_loss,
            grad_norm = grad_norm,
            train_acc = train_acc,
            val_acc = val_acc
        );
        if stop_early {
            bbgnn_obs::counter("train/early_stops", 1);
            bbgnn_obs::event!("train/early_stop", epoch = epoch, best_val = best_val);
            break;
        }
    }
    if let Some(best) = best_params {
        *params = best;
    }
    TrainReport {
        epochs_run,
        best_val_accuracy: if best_val.is_finite() { best_val } else { 0.0 },
        final_loss,
        seconds: start.elapsed().as_secs_f64(),
        divergence_recoveries,
        diverged,
        interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;
    use std::rc::Rc;

    /// The tests run with no store installed, so the salt is never built.
    fn salt() -> Key {
        Key::new("model/test")
    }

    /// Logistic regression on features via the shared loop learns a
    /// feature-separable dataset.
    #[test]
    fn shared_loop_trains_logistic_regression() {
        let g = DatasetSpec::CoraLike.generate(0.06, 11);
        let d = g.feature_dim();
        let k = g.num_classes;
        let mut params = vec![DenseMatrix::glorot(d, k, 1)];
        let x = g.features.clone();
        let cfg = TrainConfig {
            epochs: 100,
            patience: 100,
            dropout: 0.0,
            ..Default::default()
        };
        let report = train_node_classifier(&mut params, &g, &cfg, salt, |tape, p, _| {
            let w = tape.var(p[0].clone());
            let xc = tape.constant(x.clone());
            let logits = tape.matmul(xc, w);
            (logits, vec![w], None)
        });
        assert!(report.epochs_run > 0);
        assert!(report.final_loss.is_finite());
        // Evaluate.
        let logits = g.features.matmul(&params[0]);
        let acc = crate::eval::accuracy(&logits.row_argmax(), &g.labels, &g.split.test);
        // Features are deliberately noisy (purity calibration, DESIGN.md
        // §3): logistic regression alone lands well above chance (1/7)
        // but far from the GCN's accuracy.
        assert!(
            acc > 0.2,
            "logistic regression should beat chance, got {acc}"
        );
    }

    #[test]
    fn early_stopping_restores_best_params() {
        let g = DatasetSpec::CoraLike.generate(0.05, 12);
        let d = g.feature_dim();
        let k = g.num_classes;
        let mut params = vec![DenseMatrix::glorot(d, k, 2)];
        let x = Rc::new(g.features.clone());
        let cfg = TrainConfig {
            epochs: 500,
            patience: 5,
            dropout: 0.0,
            ..Default::default()
        };
        let report = train_node_classifier(&mut params, &g, &cfg, salt, |tape, p, _| {
            let w = tape.var(p[0].clone());
            let xc = tape.constant((*x).clone());
            let logits = tape.matmul(xc, w);
            (logits, vec![w], None)
        });
        assert!(
            report.epochs_run < 500,
            "patience must trigger before the epoch cap"
        );
        assert!(report.best_val_accuracy > 0.0);
    }

    /// Trains logistic regression with a regularizer that poisons the loss
    /// with NaN on the epochs in `poison`, returning the report.
    fn train_with_poisoned_epochs(poison: impl Fn(usize) -> bool) -> TrainReport {
        let g = DatasetSpec::CoraLike.generate(0.05, 13);
        let d = g.feature_dim();
        let k = g.num_classes;
        let mut params = vec![DenseMatrix::glorot(d, k, 3)];
        let x = Rc::new(g.features.clone());
        let cfg = TrainConfig {
            epochs: 30,
            patience: 0,
            dropout: 0.0,
            ..Default::default()
        };
        train_node_classifier(&mut params, &g, &cfg, salt, |tape, p, mode| {
            let w = tape.var(p[0].clone());
            let xc = tape.constant((*x).clone());
            let logits = tape.matmul(xc, w);
            let reg = mode
                .train_epoch()
                .filter(|&e| poison(e))
                .map(|_| tape.constant(DenseMatrix::filled(1, 1, f64::NAN)));
            (logits, vec![w], reg)
        })
    }

    #[test]
    fn mode_accessors() {
        assert_eq!(Mode::Train { epoch: 3 }.train_epoch(), Some(3));
        assert_eq!(Mode::Eval.train_epoch(), None);
        assert!(Mode::Train { epoch: 0 }.is_train());
        assert!(!Mode::Eval.is_train());
    }

    #[test]
    fn transient_divergence_rolls_back_and_recovers() {
        let report = train_with_poisoned_epochs(|epoch| epoch == 3);
        assert_eq!(report.divergence_recoveries, 1, "one rollback expected");
        assert!(!report.diverged, "a transient NaN must not abort training");
        assert!(report.final_loss.is_finite());
        assert_eq!(report.epochs_run, 30);
    }

    #[test]
    fn persistent_divergence_aborts_with_report_not_panic() {
        let report = train_with_poisoned_epochs(|_| true);
        assert!(report.diverged, "persistent NaN must surface as diverged");
        assert_eq!(report.divergence_recoveries, MAX_DIVERGENCE_RECOVERIES);
        assert_eq!(
            report.epochs_run,
            MAX_DIVERGENCE_RECOVERIES + 1,
            "training must stop right after the budget runs out"
        );
    }

    #[test]
    fn model_roundtrip_preserves_report() {
        let model = TrainedModel {
            weights: vec![
                DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
                DenseMatrix::from_vec(2, 1, vec![-1.0, 0.5]),
            ],
            report: TrainReport {
                epochs_run: 42,
                best_val_accuracy: 0.815,
                final_loss: 0.33,
                seconds: 1.25,
                divergence_recoveries: 1,
                diverged: false,
                interrupted: false,
            },
        };
        let mut w = Writer::new();
        model.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = TrainedModel::decode(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(back.weights.len(), 2);
        assert_eq!(back.report, model.report);
        assert_eq!(
            back.weights[1].as_slice(),
            model.weights[1].as_slice(),
            "weights must survive bitwise"
        );
    }
}
