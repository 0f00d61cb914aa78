//! Inverted dropout masks, defined once for dense tensors
//! ([`Tape::dropout`](crate::Tape::dropout)) and sparse constant inputs
//! ([`dropout_csr`]).

use bbgnn_linalg::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The mask of inverted dropout with drop probability `p`: one `U(−1, 1)`
/// draw `u` per position of the masked matrix, in row-major order from
/// `seed`, giving the keep scale `1 / (1 − p)` when `(u + 1) / 2 < 1 − p`
/// and `0` otherwise. When `1 − p` is `1` (as for `p = 0`) every value is
/// `1`, which every draw would give too, and nothing is drawn.
pub(crate) struct Mask {
    rng: StdRng,
    keep: f64,
    scale: f64,
    /// Row-major position of the next draw.
    next: usize,
}

impl Mask {
    /// The mask stream for drop probability `p` and `seed`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p < 1`.
    pub(crate) fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0, 1)"
        );
        let keep = 1.0 - p;
        Self {
            rng: StdRng::seed_from_u64(seed),
            keep,
            scale: 1.0 / keep,
            next: 0,
        }
    }

    /// The mask value at row-major position `pos`, drawing past the
    /// positions before it. Positions must be asked for in ascending
    /// order.
    pub(crate) fn at(&mut self, pos: usize) -> f64 {
        if self.keep == 1.0 {
            return 1.0;
        }
        debug_assert!(pos >= self.next, "mask positions must ascend");
        for _ in self.next..pos {
            let _: f64 = self.rng.gen_range(-1.0..1.0);
        }
        self.next = pos + 1;
        let u: f64 = self.rng.gen_range(-1.0..1.0);
        if (u + 1.0) / 2.0 < self.keep {
            self.scale
        } else {
            0.0
        }
    }
}

/// Inverted dropout of a constant sparse input: `x ∘ mask` for the mask
/// [`Tape::dropout`](crate::Tape::dropout) draws for a dense `x` of the
/// same shape with the same `p` and `seed`, evaluated at the stored
/// entries only. Products that are zero are dropped and NaN products kept,
/// so the result stores exactly the entries the dense `x ∘ mask` cannot
/// skip in a product (DESIGN.md §7, "Sparse input layer").
///
/// # Panics
/// Panics unless `0 ≤ p < 1`.
pub fn dropout_csr(x: &CsrMatrix, p: f64, seed: u64) -> CsrMatrix {
    let mut mask = Mask::new(p, seed);
    let cols = x.cols();
    x.map_nonzero(|i, j, v| v * mask.at(i * cols + j))
}
