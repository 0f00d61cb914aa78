//! Graph neural network models and training loop.
//!
//! Implements the victim models of the paper:
//!
//! * [`gcn::Gcn`] — the Kipf–Welling graph convolutional network
//!   (Eq. 1–2 of the paper), configurable depth;
//! * [`gat::Gat`] — the graph attention network baseline, with attention
//!   on the edges of `A + I`;
//! * [`linear_gcn::LinearGcn`] — the `A_nᴸ X W` linear surrogate used by
//!   the PEEGA derivation (Eq. 7) and by Metattack;
//! * [`train`] — the shared full-batch Adam training loop with
//!   early stopping on validation accuracy;
//! * [`eval`] — accuracy and repeated-run statistics (mean ± std, the
//!   format of the paper's tables).
//!
//! All models implement [`NodeClassifier`], the interface the attack,
//! defense, and bench crates program against.

#![deny(missing_docs)]

pub mod eval;
pub mod gat;
pub mod gcn;
pub mod linear_gcn;
pub mod sage;
pub mod train;

use bbgnn_graph::Graph;

pub use train::Mode;

/// A transductive node-classification model.
pub trait NodeClassifier {
    /// Trains on `g` (using `g.split.train` labels, early-stopping on
    /// `g.split.valid`).
    fn fit(&mut self, g: &Graph) -> train::TrainReport;

    /// Predicts a label for every node of `g`.
    fn predict(&self, g: &Graph) -> Vec<usize>;

    /// Convenience: accuracy over the test split of `g`.
    fn test_accuracy(&self, g: &Graph) -> f64 {
        eval::accuracy(&self.predict(g), &g.labels, &g.split.test)
    }
}
