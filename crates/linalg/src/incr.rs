//! Incremental recomputation engine for greedy attack loops.
//!
//! A greedy attacker loops `flip one edge → rescore`. Metattack's rescore
//! retrains its surrogate on the propagation `H = Â_n^L X` — O(L·nnz·d)
//! when recomputed from scratch. But one undirected flip `{u, v}` changes
//! Â_n in exactly one row/col pair plus the entries renormalized by the
//! new `deg(u)`, `deg(v)`: only rows in the L-hop neighborhood of `u, v`
//! can change in `H`. [`IncrProp`] maintains `H` across committed flips
//! by recomputing exactly those rows — O(L·deg·d) per flip.
//!
//! The process-wide switch ([`enabled`], set from `--incremental` /
//! `BBGNN_INCR`) is the only thing that selects this path. Its two
//! consumers are Metattack ([`IncrProp`]) and GF-Attack's exact backend
//! ([`IncrNorm`]). PEEGA is not one: its objective differentiates through
//! the dense `Â` on the autodiff tape and reads `H` only once, on the
//! clean graph.
//!
//! **Determinism.** The engine does not apply additive deltas (which would
//! accumulate float drift); it *recomputes touched rows from scratch* in
//! the same ascending-CSR-column accumulation order as
//! [`crate::kernels::spmm_into`] / [`crate::kernels::spmm_ref`], with the
//! normalization weights computed exactly as
//! [`CsrMatrix::gcn_normalize`] computes them. Untouched rows keep their
//! bits by induction, so the maintained `H` is **bitwise identical to the
//! full recompute after every flip** — not merely eps-close. The periodic
//! resync (`resync_stride`) and the [`IncrConfig::shadow`] per-step
//! full-recompute check are defense-in-depth for that claim, not drift
//! repair. Attackers run with [`IncrConfig::new`]'s defaults; shadow mode
//! asserts bitwise equality, and the equivalence property suite and the
//! unit tests set it (and the stride) directly to exercise the contract.
//!
//! [`IncrNorm`] is the adjacency-only half: it maintains the normalized
//! adjacency `Â_n` itself and can materialize a *virtually flipped*
//! `Â_n'` for a candidate edge in one O(n + nnz) pass — no graph clone,
//! no triplet sort — bitwise identical to rebuilding from the flipped
//! graph. GF-Attack's exact backend uses this per candidate so its seeded
//! Lanczos sees byte-identical input and therefore commits byte-identical
//! flips.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::kernels::{spmm_into, ThreadPool};
use crate::{CsrMatrix, DenseMatrix};

/// Process-global switch for the incremental path, set by the shared CLI
/// layer (`--incremental` / `BBGNN_INCR`). Off by default: attackers fall
/// back to the dense rescore loop. Like `--threads`, the flag never
/// changes result bytes — it is excluded from checkpoint fingerprints —
/// so flipping it on trades wall-clock only.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables the incremental rescore path process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the incremental rescore path is enabled (`--incremental` /
/// `BBGNN_INCR=1`).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Default full-recompute resync stride: a full rebuild of `H` every this
/// many committed flips. The update rule is bitwise-exact, so the stride
/// is defense-in-depth, not a drift bound — see DESIGN.md §13.
pub const DEFAULT_RESYNC_STRIDE: usize = 64;

/// Tuning knobs for [`IncrProp`].
#[derive(Clone, Debug)]
pub struct IncrConfig {
    /// Propagation depth `L` of the maintained `H = Â_n^L X`.
    pub hops: usize,
    /// Full recompute every `resync_stride` committed flips (`0` = never).
    pub resync_stride: usize,
    /// Shadow mode: after every update, recompute `H` from scratch and
    /// assert bitwise equality. O(L·nnz·d) per flip — debugging and the
    /// equivalence test-suite only.
    pub shadow: bool,
}

impl IncrConfig {
    /// Defaults for a propagation depth of `hops`.
    pub fn new(hops: usize) -> Self {
        Self {
            hops,
            resync_stride: DEFAULT_RESYNC_STRIDE,
            shadow: false,
        }
    }
}

/// Incrementally maintained GCN normalization `Â_n = D^{-1/2}(A+I)D^{-1/2}`.
///
/// Owns sorted adjacency lists (no self-loops — the `+I` is implicit, as
/// in [`CsrMatrix::gcn_normalize`]) plus the per-node `1/sqrt(deg+1)`
/// weights, and materializes CSR views bitwise identical to
/// `adjacency_csr().gcn_normalize()` without triplet sorting.
#[derive(Clone, Debug)]
pub struct IncrNorm {
    /// Sorted, self-loop-free, symmetric adjacency lists.
    nbrs: Vec<Vec<usize>>,
    /// `1/sqrt(deg+1)` per node, computed exactly as `gcn_normalize` does.
    inv_sqrt: Vec<f64>,
}

/// The `1/sqrt(d)` weight for a node of adjacency-list degree `deg`,
/// matching [`CsrMatrix::gcn_normalize`] bit for bit: the degree of
/// `A + I` is the exact small integer `deg + 1`, and `gcn_normalize`'s
/// `row_sums()` of ones produces the same exact value.
#[inline]
fn inv_sqrt_deg(deg: usize) -> f64 {
    let d = (deg + 1) as f64;
    if d > 0.0 {
        1.0 / d.sqrt()
    } else {
        0.0
    }
}

impl IncrNorm {
    /// Builds from an undirected edge list over `n` nodes. Duplicate
    /// edges are ignored; self-loops are rejected.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut nbrs = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!(u < n && v < n && u != v, "bad edge ({u},{v}) for n={n}");
            if let Err(pos) = nbrs[u].binary_search(&v) {
                nbrs[u].insert(pos, v);
            }
            if let Err(pos) = nbrs[v].binary_search(&u) {
                nbrs[v].insert(pos, u);
            }
        }
        Self::from_neighbor_lists(nbrs)
    }

    /// Builds from pre-sorted symmetric adjacency lists (the shape
    /// `Graph` hands over). Each list must be strictly ascending,
    /// in-bounds, and self-loop-free.
    pub fn from_neighbor_lists(nbrs: Vec<Vec<usize>>) -> Self {
        let n = nbrs.len();
        for (i, list) in nbrs.iter().enumerate() {
            let mut prev: Option<usize> = None;
            for &c in list {
                assert!(c < n && c != i, "bad neighbor {c} of node {i}");
                assert!(prev.map_or(true, |p| p < c), "unsorted neighbors of {i}");
                prev = Some(c);
            }
        }
        let inv_sqrt = nbrs.iter().map(|l| inv_sqrt_deg(l.len())).collect();
        Self { nbrs, inv_sqrt }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nbrs.len()
    }

    /// Whether edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.nbrs[u].binary_search(&v).is_ok()
    }

    /// Degree of `u` (self-loops excluded).
    pub fn degree(&self, u: usize) -> usize {
        self.nbrs[u].len()
    }

    /// Sorted neighbors of `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.nbrs[u]
    }

    /// Toggles edge `{u, v}`, returning `true` when the edge now exists.
    /// O(deg) — a sorted-insert/remove pair plus two weight updates.
    pub fn flip_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u != v, "self-loop flip ({u},{u})");
        let added = match self.nbrs[u].binary_search(&v) {
            Ok(pos) => {
                self.nbrs[u].remove(pos);
                false
            }
            Err(pos) => {
                self.nbrs[u].insert(pos, v);
                true
            }
        };
        match self.nbrs[v].binary_search(&u) {
            Ok(pos) => {
                self.nbrs[v].remove(pos);
            }
            Err(pos) => {
                self.nbrs[v].insert(pos, u);
            }
        }
        self.inv_sqrt[u] = inv_sqrt_deg(self.nbrs[u].len());
        self.inv_sqrt[v] = inv_sqrt_deg(self.nbrs[v].len());
        added
    }

    /// Materializes `Â_n` as CSR, bitwise identical to
    /// `adjacency_csr().gcn_normalize()` on the same graph, in one
    /// O(n + nnz) pass (no triplet sort).
    pub fn normalized_csr(&self) -> CsrMatrix {
        self.build_csr(None)
    }

    /// Materializes `Â_n'` for the graph with edge `{u, v}` *virtually*
    /// flipped, without committing the flip: one O(n + nnz) pass,
    /// bitwise identical to flipping a graph clone and renormalizing.
    /// This is GF-Attack's per-candidate rescore path.
    pub fn flipped_normalized_csr(&self, u: usize, v: usize) -> CsrMatrix {
        assert!(u != v, "self-loop flip ({u},{u})");
        self.build_csr(Some((u.min(v), u.max(v))))
    }

    /// Shared CSR builder; `flip` virtually toggles one normalized edge
    /// `(u, v)` with `u < v`.
    fn build_csr(&self, flip: Option<(usize, usize)>) -> CsrMatrix {
        let n = self.nbrs.len();
        // Virtual weights under the flip; only u and v renormalize.
        let mut w_u = 0.0;
        let mut w_v = 0.0;
        let mut adding = false;
        if let Some((u, v)) = flip {
            adding = !self.has_edge(u, v);
            let flipped_deg = |deg: usize| if adding { deg + 1 } else { deg - 1 };
            w_u = inv_sqrt_deg(flipped_deg(self.nbrs[u].len()));
            w_v = inv_sqrt_deg(flipped_deg(self.nbrs[v].len()));
        }
        let weight = |w: usize| match flip {
            Some((u, _)) if w == u => w_u,
            Some((_, v)) if w == v => w_v,
            _ => self.inv_sqrt[w],
        };
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0usize);
        let nnz_hint: usize = self.nbrs.iter().map(|l| l.len() + 1).sum();
        let mut col_idx = Vec::with_capacity(nnz_hint + 2);
        let mut values = Vec::with_capacity(nnz_hint + 2);
        let mut cols_buf: Vec<usize> = Vec::new();
        for i in 0..n {
            let wi = weight(i);
            // Row i's column set: neighbors with the virtual toggle
            // applied (rows u and v gain or lose each other; every other
            // row keeps its columns), plus the implicit self-loop.
            let toggled = match flip {
                Some((u, v)) if i == u => Some(v),
                Some((u, v)) if i == v => Some(u),
                _ => None,
            };
            cols_buf.clear();
            cols_buf.extend_from_slice(&self.nbrs[i]);
            if let Some(t) = toggled {
                match cols_buf.binary_search(&t) {
                    Ok(pos) if !adding => {
                        cols_buf.remove(pos);
                    }
                    Err(pos) if adding => cols_buf.insert(pos, t),
                    _ => {}
                }
            }
            // Diagonal in ascending position (i is never its own neighbor).
            if let Err(pos) = cols_buf.binary_search(&i) {
                cols_buf.insert(pos, i);
            }
            for &c in &cols_buf {
                col_idx.push(c);
                values.push(wi * weight(c));
            }
            row_ptr.push(col_idx.len());
        }
        let csr = CsrMatrix::try_from_raw_parts(n, n, row_ptr, col_idx, values);
        // lint: allow(panic) reason=construction invariants guarantee sorted in-bounds columns; a failure here is a bug, not an input error
        csr.expect("IncrNorm built an invalid CSR")
    }
}

/// Incrementally maintained surrogate propagation `H = Â_n^L X`.
///
/// Holds every intermediate hop `Â_n^k X` (`k = 1..=L`) plus an
/// [`IncrNorm`] adjacency mirror. [`flip_edge`](Self::flip_edge) commits
/// one edge flip and repairs `H` by recomputing only the rows the flip
/// can reach — the k-hop frontier of `{u, v}` at hop `k` — in the exact
/// accumulation order of the full SpMM, so the maintained state is
/// bitwise identical to a from-scratch recompute after every commit (see
/// the module docs).
#[derive(Clone, Debug)]
pub struct IncrProp {
    norm: IncrNorm,
    x: DenseMatrix,
    /// `h[k] = Â_n^{k+1} X`; empty when `hops == 0`.
    h: Vec<DenseMatrix>,
    hops: usize,
    resync_stride: usize,
    shadow: bool,
    step: usize,
    since_resync: usize,
    last_rows_touched: usize,
    resynced: bool,
}

impl IncrProp {
    /// Builds from an undirected edge list over `n` nodes and node
    /// features `x` (`n × d`), computing the initial `H` in full.
    pub fn from_edges(
        n: usize,
        edges: &[(usize, usize)],
        x: DenseMatrix,
        cfg: &IncrConfig,
    ) -> Self {
        Self::build(IncrNorm::from_edges(n, edges), x, cfg)
    }

    /// Builds from pre-sorted symmetric adjacency lists (the shape
    /// `Graph` hands over) and node features `x`.
    pub fn from_neighbor_lists(nbrs: Vec<Vec<usize>>, x: DenseMatrix, cfg: &IncrConfig) -> Self {
        Self::build(IncrNorm::from_neighbor_lists(nbrs), x, cfg)
    }

    fn build(norm: IncrNorm, x: DenseMatrix, cfg: &IncrConfig) -> Self {
        assert_eq!(norm.num_nodes(), x.rows(), "feature/adjacency row mismatch");
        let h = Self::full_chain(&norm, &x, cfg.hops);
        Self {
            norm,
            x,
            h,
            hops: cfg.hops,
            resync_stride: cfg.resync_stride,
            shadow: cfg.shadow,
            step: 0,
            since_resync: 0,
            last_rows_touched: 0,
            resynced: false,
        }
    }

    /// Full propagation chain `Â_n X, Â_n² X, …, Â_n^hops X` through the
    /// threaded SpMM at the caller's kernel width — the same kernel path as
    /// `Graph::propagate`, so the result is bitwise identical to the dense
    /// rescore baseline.
    fn full_chain(norm: &IncrNorm, x: &DenseMatrix, hops: usize) -> Vec<DenseMatrix> {
        let an = norm.normalized_csr();
        let pool = ThreadPool::default();
        let mut out: Vec<DenseMatrix> = Vec::with_capacity(hops);
        for k in 0..hops {
            let prev = if k == 0 { x } else { &out[k - 1] };
            let mut next = DenseMatrix::zeros(an.rows(), x.cols());
            spmm_into(&an, prev, &mut next, &pool);
            out.push(next);
        }
        out
    }

    /// The maintained propagation `Â_n^hops X` (the features themselves
    /// when `hops == 0`).
    pub fn propagated(&self) -> &DenseMatrix {
        self.h.last().unwrap_or(&self.x)
    }

    /// The node features `X`.
    pub fn features(&self) -> &DenseMatrix {
        &self.x
    }

    /// The adjacency mirror (reflecting committed edge flips).
    pub fn norm(&self) -> &IncrNorm {
        &self.norm
    }

    /// Committed perturbations so far.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Rows recomputed by the most recent commit, summed over hops.
    pub fn last_rows_touched(&self) -> usize {
        self.last_rows_touched
    }

    /// Whether the most recent commit ended in a full resync.
    pub fn resynced(&self) -> bool {
        self.resynced
    }

    /// Commits one undirected edge flip and repairs `H` incrementally.
    /// Returns `true` when the edge now exists. O(hops · |frontier| · d).
    pub fn flip_edge(&mut self, u: usize, v: usize) -> bool {
        let timer = bbgnn_obs::kernel_timer("incr/update");
        let added = self.norm.flip_edge(u, v);
        // Rows of Â_n that changed: u and v (their whole rows
        // renormalize) plus every current neighbor of either (the column
        // entries weighted by inv_sqrt[u] / inv_sqrt[v]). For a deletion
        // the lost neighbor is u or v itself — already in the set.
        let mut rows = vec![u, v];
        rows.extend_from_slice(self.norm.neighbors(u));
        rows.extend_from_slice(self.norm.neighbors(v));
        rows.sort_unstable();
        rows.dedup();
        self.cascade(rows);
        drop(timer);
        self.finish_commit();
        added
    }

    /// Recomputes the touched rows hop by hop, expanding the frontier by
    /// one adjacency step per hop (`U_k = U_{k-1} ∪ N(U_{k-1})`).
    fn cascade(&mut self, mut rows: Vec<usize>) {
        let mut touched = 0u64;
        for k in 0..self.hops {
            if k > 0 {
                rows = self.expand(&rows);
            }
            self.recompute_rows(k, &rows);
            touched += rows.len() as u64;
        }
        bbgnn_obs::counter("incr/rows_touched", touched);
        self.last_rows_touched = touched as usize;
    }

    /// `rows ∪ N(rows)`, sorted and deduplicated.
    fn expand(&self, rows: &[usize]) -> Vec<usize> {
        let mut out = rows.to_vec();
        for &i in rows {
            out.extend_from_slice(&self.norm.nbrs[i]);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Recomputes rows of `h[k]` from scratch: per output element one
    /// accumulator filled in ascending CSR-column order — the exact
    /// per-element chain of [`spmm_into`], so the recomputed rows carry
    /// the same bits the full kernel would produce.
    fn recompute_rows(&mut self, k: usize, rows: &[usize]) {
        let (input, out): (&DenseMatrix, &mut DenseMatrix) = if k == 0 {
            (&self.x, &mut self.h[0])
        } else {
            let (lo, hi) = self.h.split_at_mut(k);
            (&lo[k - 1], &mut hi[0])
        };
        let d = input.cols();
        for &i in rows {
            let wi = self.norm.inv_sqrt[i];
            let nbrs = &self.norm.nbrs[i];
            let out_row = out.row_mut(i);
            out_row.fill(0.0);
            // Ascending columns with the diagonal interleaved, exactly
            // the CSR row order of `normalized_csr`.
            let mut diag_done = false;
            let accumulate = |c: usize, out_row: &mut [f64]| {
                let w = wi * self.norm.inv_sqrt[c];
                let in_row = input.row(c);
                for j in 0..d {
                    out_row[j] += w * in_row[j];
                }
            };
            for &c in nbrs {
                if !diag_done && i < c {
                    accumulate(i, out_row);
                    diag_done = true;
                }
                accumulate(c, out_row);
            }
            if !diag_done {
                accumulate(i, out_row);
            }
        }
    }

    /// Step/stride bookkeeping after a commit, including the periodic
    /// resync and the optional shadow check.
    fn finish_commit(&mut self) {
        self.step += 1;
        self.since_resync += 1;
        self.resynced = false;
        if self.resync_stride > 0 && self.since_resync >= self.resync_stride {
            self.resync();
        }
        if self.shadow {
            self.assert_matches_full();
        }
    }

    /// Full recompute of every hop matrix (the periodic drift guard; a
    /// no-op on the bytes because the update rule is bitwise-exact).
    pub fn resync(&mut self) {
        let _t = bbgnn_obs::kernel_timer("incr/resync");
        self.h = Self::full_chain(&self.norm, &self.x, self.hops);
        self.since_resync = 0;
        self.resynced = true;
    }

    /// Shadow check: recomputes `H` from scratch and asserts bitwise
    /// equality with the maintained state.
    ///
    /// # Panics
    /// Panics on the first differing element, naming hop/row/column.
    pub fn assert_matches_full(&self) {
        let full = Self::full_chain(&self.norm, &self.x, self.hops);
        for (k, (a, b)) in self.h.iter().zip(&full).enumerate() {
            for (idx, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "incremental H diverged at hop {k}, row {}, col {} (incr {x:e} vs full {y:e}, step {})",
                    idx / a.cols(),
                    idx % a.cols(),
                    self.step
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small irregular graph: path 0-1-2-3 plus chord 1-3 and an
    /// isolated node 4.
    fn edges() -> Vec<(usize, usize)> {
        vec![(0, 1), (1, 2), (2, 3), (1, 3)]
    }

    fn csr_of(n: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> = edges
            .iter()
            .flat_map(|&(u, v)| [(u, v, 1.0), (v, u, 1.0)])
            .collect();
        CsrMatrix::from_triplets(n, n, triplets)
    }

    fn assert_csr_bitwise(a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(a.row_ptr(), b.row_ptr());
        assert_eq!(a.col_indices(), b.col_indices());
        let (av, bv) = (a.values(), b.values());
        assert_eq!(av.len(), bv.len());
        for (x, y) in av.iter().zip(bv) {
            assert_eq!(x.to_bits(), y.to_bits(), "value bits differ");
        }
    }

    #[test]
    fn normalized_csr_matches_gcn_normalize_bitwise() {
        let n = 5;
        let norm = IncrNorm::from_edges(n, &edges());
        assert_csr_bitwise(&norm.normalized_csr(), &csr_of(n, &edges()).gcn_normalize());
    }

    #[test]
    fn flipped_normalized_csr_matches_rebuild_bitwise() {
        let n = 5;
        let norm = IncrNorm::from_edges(n, &edges());
        // Candidate additions and deletions, including ones touching the
        // isolated node and a deletion that leaves node 0 isolated.
        for &(u, v) in &[(0, 4), (2, 4), (0, 1), (1, 3), (0, 2)] {
            let virt = norm.flipped_normalized_csr(u, v);
            let mut flipped = edges();
            if let Some(pos) = flipped
                .iter()
                .position(|&(a, b)| (a, b) == (u.min(v), u.max(v)))
            {
                flipped.remove(pos);
            } else {
                flipped.push((u, v));
            }
            assert_csr_bitwise(&virt, &csr_of(n, &flipped).gcn_normalize());
        }
        // Virtual flips never mutate the base.
        assert_csr_bitwise(&norm.normalized_csr(), &csr_of(n, &edges()).gcn_normalize());
    }

    #[test]
    fn incr_prop_matches_full_recompute_bitwise() {
        let x = DenseMatrix::uniform(5, 3, 1.0, 11);
        let mut cfg = IncrConfig::new(2);
        cfg.resync_stride = 0; // isolate the update rule from resyncs
        let mut p = IncrProp::from_edges(5, &edges(), x, &cfg);
        for &(u, v) in &[(0, 4), (1, 2), (1, 2), (3, 4), (0, 3), (2, 4)] {
            p.flip_edge(u, v);
            p.assert_matches_full();
            assert!(p.last_rows_touched() > 0);
        }
    }

    #[test]
    fn resync_fires_on_stride_and_preserves_bytes() {
        let x = DenseMatrix::uniform(5, 2, 1.0, 3);
        let mut cfg = IncrConfig::new(2);
        cfg.resync_stride = 2;
        let mut p = IncrProp::from_edges(5, &edges(), x, &cfg);
        let mut resyncs = 0;
        for &(u, v) in &[(0, 4), (0, 4), (1, 4), (2, 4), (0, 2)] {
            let before: Vec<u64> = p
                .propagated()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            p.flip_edge(u, v);
            if p.resynced() {
                resyncs += 1;
                // A resync right after an update must not change bytes.
                p.assert_matches_full();
            }
            let after: Vec<u64> = p
                .propagated()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_ne!(before, after, "a flip must change the propagation");
        }
        assert_eq!(resyncs, 2);
    }

    #[test]
    fn shadow_mode_checks_every_commit() {
        let x = DenseMatrix::uniform(5, 2, 1.0, 9);
        let mut cfg = IncrConfig::new(2);
        cfg.shadow = true;
        let mut p = IncrProp::from_edges(5, &edges(), x, &cfg);
        p.flip_edge(0, 4); // would panic on divergence
        assert_eq!(p.step(), 1);
    }

    #[test]
    fn zero_hops_propagated_is_features() {
        let x = DenseMatrix::uniform(5, 2, 1.0, 9);
        let cfg = IncrConfig::new(0);
        let mut p = IncrProp::from_edges(5, &edges(), x.clone(), &cfg);
        p.flip_edge(0, 4);
        assert_eq!(p.propagated().as_slice(), x.as_slice());
    }

    #[test]
    fn enabled_flag_round_trips() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
