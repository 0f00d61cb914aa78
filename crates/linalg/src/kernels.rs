//! Blocked, multi-threaded execution kernels and the [`ExecContext`]
//! workspace arena.
//!
//! Every experiment in the paper — PEEGA's perturbation-effect scoring,
//! Metattack's meta-gradients, GNAT/Pro-GNN training — bottoms out in dense
//! matmul and SpMM. This module is the single place those products are
//! computed:
//!
//! * [`matmul_into`] / [`matmul_tn_into`] / [`matmul_nt_into`] — cache
//!   blocked (tiled) dense products, row-partitioned across a hand-rolled
//!   scoped [`ThreadPool`] built on `std::thread` only.
//! * [`spmm_into`] — row-partitioned sparse × dense product.
//! * [`ExecContext`] — bundles a pool and a private workspace arena, keyed
//!   by exact length, so hot paths (autodiff tape epochs, attack candidate
//!   loops) reuse allocations instead of hitting the global allocator per
//!   op; shared via `Rc<ExecContext>` through the autodiff tape, GNN
//!   training loops, and attacker surrogate-gradient loops. The arena only
//!   takes back buffers it lent.
//!
//! # Determinism contract
//!
//! All kernels are **bitwise deterministic in the thread count**: an
//! `N`-thread run, a 1-thread run, and the naive reference loops
//! ([`matmul_ref`] and friends) produce bit-identical outputs. This holds
//! because threads partition only *disjoint output rows* and, for every
//! output element, the floating-point accumulation order over the inner
//! dimension is the same ascending-`k` order the reference kernels use.
//! No reduction ever crosses a thread boundary. Consequently
//! `BBGNN_THREADS=1` and `BBGNN_THREADS=64` runs of any experiment produce
//! byte-identical checkpoints, tables, and figures.
//!
//! `spmm_t` (the backward pass of SpMM) scatters into output rows indexed
//! by *column*, so disjoint row partitioning does not apply; it stays
//! sequential by design rather than trade determinism for atomics.
//!
//! # Thread count
//!
//! [`current_threads`] is the one place a kernel width comes from:
//! [`ExecContext::from_env`] and [`ThreadPool::default`] — and through them
//! the autodiff tape, the trainers, the attackers and the defenses — read
//! it. Inside a job it is the width the job recorded in its
//! `SupervisionScope` (`Job::run` records its context's thread count, and
//! pool workers re-enter that scope); outside one it is [`env_threads`],
//! which reads `BBGNN_THREADS` once per process (cached), falling back to
//! the machine's available parallelism. Invalid or zero values fall back
//! to the default; `bench::cli` additionally validates the variable
//! strictly for experiment binaries and `bbgnn-serve`.

use crate::{CsrMatrix, DenseMatrix};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::OnceLock;

/// k-dimension tile so a block of `b` rows stays in cache across the band.
pub const BLOCK_K: usize = 128;
/// j-dimension tile bounding the working set of wide right-hand sides.
pub const BLOCK_J: usize = 512;

/// Minimum flop count before a kernel fans out across threads; below this
/// the `thread::scope` spawn cost dominates.
const PAR_MIN_FLOPS: usize = 1 << 20;

/// Minimum items per worker chunk in [`ThreadPool::map_fold`]; smaller
/// scans run sequentially.
const MIN_CHUNK_ITEMS: usize = 1024;

/// Default thread count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Thread count from the `BBGNN_THREADS` env var, read once per process.
///
/// Unset, unparsable, or zero values fall back to [`default_threads`].
/// Because the value is cached, changing the variable mid-process has no
/// effect; pass an explicit count to [`ExecContext::new`] instead.
pub fn env_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::env::var("BBGNN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(default_threads)
    })
}

/// The kernel width of the calling thread: the width recorded in the
/// entered job scope ([`bbgnn_supervise::entered_threads`]), else
/// [`env_threads`]. Every default-width context and pool resolves through
/// here; one thread-local borrow, no `Arc` clone.
pub fn current_threads() -> usize {
    bbgnn_supervise::entered_threads().unwrap_or_else(env_threads)
}

/// Deterministic `fault/pool_panic` injection site (DESIGN.md §11): run as
/// the first statement of every spawned pool worker. When the installed
/// fault plan says this invocation fires, the worker panics — the region
/// re-raises that payload on the calling thread ([`join_all`]), where the
/// harness's cell boundary converts it to `ExperimentAborted` (never a
/// hang). One relaxed load when no fault plan is installed.
#[inline]
fn maybe_injected_worker_panic() {
    if bbgnn_supervise::fault_at("fault/pool_panic").is_some() {
        // lint: allow(panic) reason=deterministic chaos-test injection site; fires only under an explicit BBGNN_FAULTS plan and must propagate as a worker panic
        panic!("injected fault: pool worker panic (fault/pool_panic)");
    }
}

/// A hand-rolled scoped thread pool.
///
/// Workers are spawned per parallel region with `std::thread::scope`, which
/// keeps the pool dependency-free and lifetime-safe (no `unsafe`, no
/// channels): borrowed inputs flow into worker closures directly. Spawn
/// cost is tens of microseconds per region — about 95 µs for an empty
/// two-worker region on a 2-core x86-64 host, level with one raw scoped
/// spawn per band (`kernel_bench`'s `pool_region` row) — so the
/// work thresholds gate every region, and a product just above them
/// (about a megaflop) still pays a visible share of its time to the spawn.
/// The calling thread waits in `join` rather than running a band itself:
/// the OS can queue a new thread behind a busy caller, which then
/// serializes the region (see DESIGN.md §7).
///
/// Pool regions are *accounting* sites for the supervision layer
/// (fault injection, workspace memory high-water marks), not stop sites:
/// a region that has started always runs to completion, because stopping
/// mid-region would change which bits a completing kernel writes and
/// break the determinism contract. Cancellation and budget checks live at
/// the loop boundaries *around* kernel calls (epochs, sweeps, restarts).
#[derive(Clone, Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool running work on `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `out` — a row-major `rows × row_len` buffer — into contiguous
    /// per-worker row bands and runs `body(first_row, band)` on each band
    /// concurrently. With `parallel == false` (or one worker) the single
    /// band is the whole buffer, run on the calling thread.
    ///
    /// Bands are disjoint, so `body` needs no synchronization; output
    /// placement is identical for every worker count.
    pub fn for_each_row_band<F>(&self, out: &mut [f64], row_len: usize, parallel: bool, body: F)
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        let rows = out.len().checked_div(row_len).unwrap_or(0);
        let workers = if parallel {
            self.threads.min(rows.max(1))
        } else {
            1
        };
        if workers <= 1 {
            body(0, out);
            return;
        }
        let band = rows.div_ceil(workers);
        run_region(out.chunks_mut(band * row_len).enumerate(), |(b, chunk)| {
            body(b * band, chunk)
        });
    }

    /// Deterministic parallel map-reduce over `0..items`.
    ///
    /// `map` runs on contiguous index ranges (one per worker); the partial
    /// results are folded **in ascending chunk order** on the calling
    /// thread, so any `fold` that is associative over adjacent ranges —
    /// e.g. a first-max argmax with strict `>` — yields the exact
    /// sequential result regardless of worker count. Scans smaller than a
    /// chunk threshold run sequentially. Returns `None` when `items == 0`.
    pub fn map_fold<T, M, F>(&self, items: usize, map: M, fold: F) -> Option<T>
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        F: FnMut(T, T) -> T,
    {
        self.map_fold_chunked(items, MIN_CHUNK_ITEMS, map, fold)
    }

    /// [`map_fold`](Self::map_fold) for heavyweight items: every worker
    /// gets a chunk regardless of the item count. Use when a single item
    /// is itself expensive (a spectral recomputation, a model retrain)
    /// so the per-spawn cost is negligible against the item cost. Same
    /// determinism contract as `map_fold`.
    pub fn map_fold_coarse<T, M, F>(&self, items: usize, map: M, fold: F) -> Option<T>
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        F: FnMut(T, T) -> T,
    {
        self.map_fold_chunked(items, 1, map, fold)
    }

    fn map_fold_chunked<T, M, F>(
        &self,
        items: usize,
        min_chunk: usize,
        map: M,
        mut fold: F,
    ) -> Option<T>
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        F: FnMut(T, T) -> T,
    {
        if items == 0 {
            return None;
        }
        let workers = self
            .threads
            .min(items.div_ceil(min_chunk.max(1)))
            .clamp(1, items);
        if workers == 1 {
            return Some(map(0..items));
        }
        let chunk = items.div_ceil(workers);
        let ranges = (0..items)
            .step_by(chunk)
            .map(|lo| lo..(lo + chunk).min(items));
        let mut parts = run_region(ranges, map).into_iter();
        let first = parts.next()?;
        Some(parts.fold(first, &mut fold))
    }
}

/// Runs `work` on one scoped worker per item and returns the results in
/// item order: the one worker start-up path of every pool region.
///
/// Worker utilization: per-worker busy time lands in each scoped thread's
/// counter aggregate (drained when the thread exits); region wall time
/// accrues on the calling thread. Report-side, utilization =
/// busy_ns / (region_ns * threads). Workers inherit the submitting
/// thread's supervision scope, so check sites reached from inside a
/// region (the GF-Attack eigensolver exception, §11) observe the right
/// tenant and kernel contexts built there get the job's width
/// ([`current_threads`]).
fn run_region<I, T, W>(items: impl Iterator<Item = I>, work: W) -> Vec<T>
where
    I: Send,
    T: Send,
    W: Fn(I) -> T + Sync,
{
    let traced = bbgnn_obs::enabled();
    let _region = bbgnn_obs::kernel_timer("pool/region");
    let supervision = bbgnn_supervise::current_scope();
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .map(|item| {
                let work = &work;
                let supervision = supervision.as_ref();
                scope.spawn(move || {
                    maybe_injected_worker_panic();
                    let _scope = supervision.map(bbgnn_supervise::enter);
                    let _busy = traced.then(|| bbgnn_obs::kernel_timer("pool/worker_busy"));
                    work(item)
                })
            })
            .collect();
        join_all(handles)
    })
}

/// Joins every worker of a region and returns their results in spawn
/// order. The explicit join makes a region return only after each worker's
/// thread-locals are destroyed — `thread::scope`'s implicit join returns
/// when the closures finish, before the obs counters and kernel timers in
/// those thread-locals drain. A failed worker's own panic payload is
/// re-raised on the caller once all are joined.
fn join_all<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut results = Vec::with_capacity(handles.len());
    let mut failure = None;
    for h in handles {
        match h.join() {
            Ok(v) => results.push(v),
            Err(payload) => {
                failure.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = failure {
        std::panic::resume_unwind(payload);
    }
    results
}

impl Default for ThreadPool {
    /// A pool of [`current_threads`] workers.
    fn default() -> Self {
        Self::new(current_threads())
    }
}

// ---------------------------------------------------------------------------
// Reference kernels (naive single-threaded loops).
// ---------------------------------------------------------------------------

/// Naive `ikj` reference matmul — the loop the blocked kernel must match
/// bitwise. Kept for parity tests and the kernel microbenchmark.
pub fn matmul_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "matmul dimension mismatch: {m}x{ka} * {kb}x{n}");
    let mut out = DenseMatrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (k, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = b.row(k);
            for j in 0..n {
                out_row[j] += aik * b_row[j];
            }
        }
    }
    out
}

/// Naive reference for `a^T * b`.
pub fn matmul_tn_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, c) = a.shape();
    assert_eq!(m, b.rows(), "matmul_tn dimension mismatch");
    let n = b.cols();
    let mut out = DenseMatrix::zeros(c, n);
    for k in 0..m {
        let a_row = a.row(k);
        let b_row = b.row(k);
        for (i, &aki) in a_row.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let out_row = out.row_mut(i);
            for j in 0..n {
                out_row[j] += aki * b_row[j];
            }
        }
    }
    out
}

/// Naive reference for `a * b^T`.
pub fn matmul_nt_ref(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    let (m, c) = a.shape();
    assert_eq!(c, b.cols(), "matmul_nt dimension mismatch");
    let r = b.rows();
    let mut out = DenseMatrix::zeros(m, r);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = out.row_mut(i);
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = b.row(j);
            let mut acc = 0.0;
            for k in 0..c {
                acc += a_row[k] * b_row[k];
            }
            *o = acc;
        }
    }
    out
}

/// Naive reference for sparse × dense `s * b`.
pub fn spmm_ref(s: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(s.cols(), b.rows(), "spmm dimension mismatch");
    let n = b.cols();
    let mut out = DenseMatrix::zeros(s.rows(), n);
    for i in 0..s.rows() {
        let out_row = out.row_mut(i);
        for (c, v) in s.row_iter(i) {
            let b_row = b.row(c);
            for j in 0..n {
                out_row[j] += v * b_row[j];
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Blocked / threaded kernels.
// ---------------------------------------------------------------------------

/// Width of the register tile: output elements held in local accumulators
/// across a whole `k` block, so the output row is loaded and stored once per
/// `(k` block, tile`)` instead of once per `k` step. 8 doubles = two AVX2
/// vectors of accumulators, leaving registers free for the `b` stream.
const TILE_J: usize = 8;

/// Rows processed together by the quad-row tile. Four rows × [`TILE_J`]
/// columns gives eight independent vector accumulator chains — enough to
/// hide FP add latency on one core — and amortizes each `b` tile load over
/// four rows.
const TILE_R: usize = 4;

/// The right-hand panel of a band product as the tile kernels read it:
/// row-major `rows × n` values plus, when `n` is not a multiple of
/// [`TILE_J`], a copy of the last `n % TILE_J` columns zero-padded to
/// `rows × TILE_J`. The copy lets narrow widths (Cora's 7 classes) and the
/// ragged right edge of wide ones run through the same register tile as
/// full tiles; the padding lanes accumulate into discarded accumulators,
/// so no output element sees a different operation sequence.
struct Panel<'a> {
    data: &'a [f64],
    n: usize,
    tail: Vec<f64>,
}

impl<'a> Panel<'a> {
    /// Wraps `data` (`rows × n`, row-major), copying its ragged tail.
    /// Allocates at most `rows × TILE_J` values, once per kernel call.
    fn new(data: &'a [f64], n: usize) -> Self {
        let full = n - n % TILE_J;
        let mut tail = Vec::new();
        if full < n {
            let rows = data.len() / n;
            tail.resize(rows * TILE_J, 0.0);
            for (dst, src) in tail.chunks_exact_mut(TILE_J).zip(data.chunks_exact(n)) {
                dst[..n - full].copy_from_slice(&src[full..]);
            }
        }
        Panel { data, n, tail }
    }

    /// The panel's rows `k0..k1`.
    fn rows(&self, k0: usize, k1: usize) -> PanelRows<'_> {
        let tail = if self.tail.is_empty() {
            &[][..]
        } else {
            &self.tail[k0 * TILE_J..k1 * TILE_J]
        };
        PanelRows {
            data: &self.data[k0 * self.n..k1 * self.n],
            tail,
            n: self.n,
        }
    }
}

/// A `k` block of a [`Panel`]: the tile kernels' right-hand operand.
#[derive(Clone, Copy)]
struct PanelRows<'a> {
    data: &'a [f64],
    tail: &'a [f64],
    n: usize,
}

/// Whether every value of a right-hand panel is finite — the condition
/// under which the reference kernels' `aik == 0.0` skip can be dropped
/// without changing a bit. An accumulator starts at `+0.0` and, under
/// round-to-nearest, a sum is `-0.0` only when both addends are `-0.0`, so
/// the accumulator is never `-0.0`; adding `0 · b = ±0` to it is then the
/// identity unless `b` is `±inf` or NaN.
fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Register-tiled update of `R` consecutive output rows:
/// `out[q][j0..j1] += a[q] · rows[.., j0..j1]`, where `a[q]` is the `k`
/// segment of the `q`-th left row matching `rows`, and `out` holds the
/// `R` rows contiguously (stride `rows.n`). Per output element the
/// accumulation is ascending-`k`; with `SKIP` it also skips `aik == 0.0`
/// exactly as [`matmul_ref`] does, so the result is bitwise identical to
/// the naive loop. `j0..j1` is tile-aligned except for a ragged end at
/// `j1 == n`, which runs on the panel's padded tail.
#[inline]
fn tile_rows<const R: usize, const SKIP: bool>(
    a: [&[f64]; R],
    rows: PanelRows<'_>,
    out: &mut [f64],
    j0: usize,
    j1: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked (std caches the CPUID
            // probe), which discharges the `#[target_feature]` obligation —
            // the callee body is safe code whose accesses are all
            // bounds-checked slice ops on the caller's disjoint output
            // rows. The AVX2 build of the kernel only widens the lanes the
            // compiler may use across *different* output elements; the
            // per-element operation sequence is unchanged and rustc never
            // contracts mul+add into FMA, so the result is bitwise
            // identical to the scalar build.
            unsafe { tile_rows_avx2::<R, SKIP>(a, rows, out, j0, j1) };
            return;
        }
    }
    tile_rows_impl::<R, SKIP>(a, rows, out, j0, j1);
}

/// The tile kernel compiled with AVX2 codegen enabled, dispatched at
/// runtime by [`tile_rows`]. Same source, wider vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `#[target_feature]` — the body is the
// safe `tile_rows_impl`, whose every access is slice-indexed
// (bounds-checked): `out` is indexed with `q * n + j` for `q < R` and
// `j < j1 <= n`, the panel rows through `chunks_exact`, and the `a`
// segments come from the caller's disjoint row band, so no access can
// alias another worker's rows. The caller's only obligation is AVX2
// support, checked at the single dispatch site.
unsafe fn tile_rows_avx2<const R: usize, const SKIP: bool>(
    a: [&[f64]; R],
    rows: PanelRows<'_>,
    out: &mut [f64],
    j0: usize,
    j1: usize,
) {
    tile_rows_impl::<R, SKIP>(a, rows, out, j0, j1);
}

#[inline(always)]
fn tile_rows_impl<const R: usize, const SKIP: bool>(
    a: [&[f64]; R],
    rows: PanelRows<'_>,
    out: &mut [f64],
    j0: usize,
    j1: usize,
) {
    let n = rows.n;
    let mut j = j0;
    while j + TILE_J <= j1 {
        let mut acc = [[0.0f64; TILE_J]; R];
        for (q, acc_q) in acc.iter_mut().enumerate() {
            acc_q.copy_from_slice(&out[q * n + j..q * n + j + TILE_J]);
        }
        let b = rows
            .data
            .chunks_exact(n)
            .map(|row| tile(&row[j..j + TILE_J]));
        accumulate::<R, SKIP>(&a, b, &mut acc);
        for (q, acc_q) in acc.iter().enumerate() {
            out[q * n + j..q * n + j + TILE_J].copy_from_slice(acc_q);
        }
        j += TILE_J;
    }
    if j < j1 {
        debug_assert_eq!(j1, n, "only the last tile of a row is ragged");
        // The ragged lanes pass through a staging tile, so the
        // accumulators only ever see whole-tile copies and stay in
        // registers like a full tile's.
        let w = j1 - j;
        let mut acc = [[0.0f64; TILE_J]; R];
        let mut stage = [0.0f64; TILE_J];
        for (q, acc_q) in acc.iter_mut().enumerate() {
            stage[..w].copy_from_slice(&out[q * n + j..q * n + j1]);
            *acc_q = stage;
        }
        accumulate::<R, SKIP>(&a, rows.tail.chunks_exact(TILE_J).map(tile), &mut acc);
        for (q, acc_q) in acc.iter().enumerate() {
            stage = *acc_q;
            out[q * n + j..q * n + j1].copy_from_slice(&stage[..w]);
        }
    }
}

/// A [`TILE_J`]-long slice as a fixed-size view: one length check, then
/// check-free indexing the compiler keeps entirely in vector registers.
#[inline(always)]
fn tile(s: &[f64]) -> &[f64; TILE_J] {
    // lint: allow(panic) reason=every caller slices exactly TILE_J values (a full tile or a padded tail row), so the conversion cannot fail
    s.try_into().unwrap()
}

/// The tile's inner loop: for each `k`, `acc[q] += a[q][k] · b_k` on all
/// `R` rows, ascending in `k`.
#[inline(always)]
fn accumulate<'b, const R: usize, const SKIP: bool>(
    a: &[&[f64]; R],
    b: impl Iterator<Item = &'b [f64; TILE_J]>,
    acc: &mut [[f64; TILE_J]; R],
) {
    for (k, b) in b.enumerate() {
        for (acc_q, a_q) in acc.iter_mut().zip(a) {
            let aik = a_q[k];
            if SKIP && aik == 0.0 {
                continue;
            }
            for t in 0..TILE_J {
                acc_q[t] += aik * b[t];
            }
        }
    }
}

/// Deterministic `fault/kernel_nan` injection site (DESIGN.md §11): when
/// the installed fault plan fires, one seeded-deterministically-chosen
/// entry of the kernel output is poisoned to NaN after the kernel
/// completes, exactly as a numeric overflow would surface. The NaN then
/// travels the normal divergence-detection path
/// (`BbgnnError::NumericalDivergence`). One relaxed load when off.
#[inline]
fn maybe_poison_kernel_output(out: &mut DenseMatrix) {
    if let Some(shot) = bbgnn_supervise::fault_at("fault/kernel_nan") {
        let idx = shot.pick(out.as_slice().len());
        if let Some(v) = out.as_mut_slice().get_mut(idx) {
            *v = f64::NAN;
        }
    }
}

/// Whether a product of `m · k · n` multiply-adds is worth a pool region.
fn parallel_for(m: usize, k: usize, n: usize) -> bool {
    2usize.saturating_mul(m).saturating_mul(k).saturating_mul(n) >= PAR_MIN_FLOPS
}

/// `out = a · panel` over row bands, `a` row-major `m × ka` and `panel`
/// `ka × n`: the body shared by [`matmul_into`] and [`matmul_nt_into`].
/// `k` blocks ascend, so per output element the accumulation order is the
/// reference order for every band split.
fn gemm_rows<const SKIP: bool>(
    adata: &[f64],
    ka: usize,
    panel: &Panel<'_>,
    out: &mut [f64],
    pool: &ThreadPool,
    parallel: bool,
) {
    let n = panel.n;
    pool.for_each_row_band(out, n, parallel, |row0, band| {
        band.fill(0.0);
        if n == 0 {
            return;
        }
        let rows_here = band.len() / n;
        let mut k0 = 0;
        while k0 < ka {
            let k1 = (k0 + BLOCK_K).min(ka);
            let a_seg = |r: usize| &adata[(row0 + r) * ka + k0..(row0 + r) * ka + k1];
            tile_block::<SKIP>(a_seg, panel.rows(k0, k1), band, 0, rows_here);
            k0 = k1;
        }
    });
}

/// One `k` block of a band: output rows `r0..r1` of `band` accumulate
/// `a_seg(r) · rows` in `BLOCK_J`-wide column blocks of quad-row tiles
/// (single-row tiles for the leftover rows).
#[inline(always)]
fn tile_block<'a, const SKIP: bool>(
    a_seg: impl Fn(usize) -> &'a [f64],
    rows: PanelRows<'_>,
    band: &mut [f64],
    r0: usize,
    r1: usize,
) {
    let n = rows.n;
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + BLOCK_J).min(n);
        let mut r = r0;
        while r + TILE_R <= r1 {
            let quad = [a_seg(r), a_seg(r + 1), a_seg(r + 2), a_seg(r + 3)];
            tile_rows::<TILE_R, SKIP>(quad, rows, &mut band[r * n..(r + TILE_R) * n], j0, j1);
            r += TILE_R;
        }
        while r < r1 {
            tile_rows::<1, SKIP>([a_seg(r)], rows, &mut band[r * n..(r + 1) * n], j0, j1);
            r += 1;
        }
        j0 = j1;
    }
}

/// Blocked, row-partitioned `out = a * b`.
///
/// `out` is fully overwritten (no pre-zeroing needed). Bitwise identical to
/// [`matmul_ref`] for every thread count: per output element the `k`
/// accumulation runs in ascending order. When `b` is all finite the
/// reference's `aik == 0.0` skip is dropped — a bitwise no-op by the
/// argument at `all_finite`, and a branch real inputs (mostly-zero
/// features) mispredict; a non-finite `b` keeps the skipping loop, so
/// `0 · inf` never turns into a NaN the reference would not produce.
///
/// # Panics
/// Panics on shape mismatch between `a`, `b`, and `out`.
pub fn matmul_into(a: &DenseMatrix, b: &DenseMatrix, out: &mut DenseMatrix, pool: &ThreadPool) {
    let _t = bbgnn_obs::kernel_timer("kernel/matmul");
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "matmul dimension mismatch: {m}x{ka} * {kb}x{n}");
    assert_eq!(out.shape(), (m, n), "matmul output shape mismatch");
    let parallel = parallel_for(m, ka, n);
    let panel = Panel::new(b.as_slice(), n);
    if all_finite(b.as_slice()) {
        gemm_rows::<false>(a.as_slice(), ka, &panel, out.as_mut_slice(), pool, parallel);
    } else {
        gemm_rows::<true>(a.as_slice(), ka, &panel, out.as_mut_slice(), pool, parallel);
    }
    maybe_poison_kernel_output(out);
}

/// Row-partitioned `out = a^T * b` without materializing the transpose.
///
/// Each output row is a column of `a`; the column is gathered into a
/// contiguous per-block buffer and fed to the same register-tiled kernel as
/// [`matmul_into`], under the same finite-panel rule for the zero skip.
/// Per output element accumulation stays ascending in `k` (blocks ascend,
/// `k` ascends within a block), so results are bitwise identical to
/// [`matmul_tn_ref`] for every thread count.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul_tn_into(a: &DenseMatrix, b: &DenseMatrix, out: &mut DenseMatrix, pool: &ThreadPool) {
    let _t = bbgnn_obs::kernel_timer("kernel/matmul_tn");
    let (m, c) = a.shape();
    assert_eq!(m, b.rows(), "matmul_tn dimension mismatch");
    let n = b.cols();
    assert_eq!(out.shape(), (c, n), "matmul_tn output shape mismatch");
    let parallel = parallel_for(m, c, n);
    let panel = Panel::new(b.as_slice(), n);
    if all_finite(b.as_slice()) {
        gemm_cols::<false>(
            a.as_slice(),
            (m, c),
            &panel,
            out.as_mut_slice(),
            pool,
            parallel,
        );
    } else {
        gemm_cols::<true>(
            a.as_slice(),
            (m, c),
            &panel,
            out.as_mut_slice(),
            pool,
            parallel,
        );
    }
}

/// `out = aᵀ · panel` over row bands, `a` row-major `m × c`: the body of
/// [`matmul_tn_into`].
fn gemm_cols<const SKIP: bool>(
    adata: &[f64],
    (m, c): (usize, usize),
    panel: &Panel<'_>,
    out: &mut [f64],
    pool: &ThreadPool,
    parallel: bool,
) {
    let n = panel.n;
    pool.for_each_row_band(out, n, parallel, |row0, band| {
        band.fill(0.0);
        if n == 0 {
            return;
        }
        let rows_here = band.len() / n;
        // Gathered `a` columns, `TILE_J` at a time; each block reads only
        // the first `kb` values of a column slot, all rewritten first.
        let mut a_cols = [0.0f64; TILE_J * BLOCK_K];
        let mut k0 = 0;
        while k0 < m {
            let k1 = (k0 + BLOCK_K).min(m);
            let kb = k1 - k0;
            let rows = panel.rows(k0, k1);
            let mut r0 = 0;
            while r0 < rows_here {
                let r1 = (r0 + TILE_J).min(rows_here);
                // Gather columns `row0 + r0 .. row0 + r1` of the `a` block in
                // one stride-`c` sweep — consecutive columns share cache
                // lines, so the sweep costs the same line traffic as a
                // single column.
                for k in 0..kb {
                    let base = (k0 + k) * c + row0;
                    for (t, &v) in adata[base + r0..base + r1].iter().enumerate() {
                        a_cols[t * BLOCK_K + k] = v;
                    }
                }
                let a_seg = |r: usize| &a_cols[(r - r0) * BLOCK_K..(r - r0) * BLOCK_K + kb];
                tile_block::<SKIP>(a_seg, rows, band, r0, r1);
                r0 = r1;
            }
            k0 = k1;
        }
    });
}

/// Row-partitioned `out = a * b^T`.
///
/// `b` is transposed once per call into a `c × r` panel, and the product
/// runs as `a · bᵀ` on the same register-tiled row kernel as
/// [`matmul_into`] — always *without* the zero skip, because
/// [`matmul_nt_ref`] computes every product. Per output element that is
/// the reference's ascending-`k` dot product from a `+0.0` start, so
/// results are bitwise identical for every thread count.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul_nt_into(a: &DenseMatrix, b: &DenseMatrix, out: &mut DenseMatrix, pool: &ThreadPool) {
    let _t = bbgnn_obs::kernel_timer("kernel/matmul_nt");
    let (m, c) = a.shape();
    assert_eq!(c, b.cols(), "matmul_nt dimension mismatch");
    let r2 = b.rows();
    assert_eq!(out.shape(), (m, r2), "matmul_nt output shape mismatch");
    let parallel = parallel_for(m, c, r2);
    let bt = b.transpose();
    let panel = Panel::new(bt.as_slice(), r2);
    gemm_rows::<false>(a.as_slice(), c, &panel, out.as_mut_slice(), pool, parallel);
}

/// Row-partitioned sparse × dense `out = s * b`.
///
/// CSR rows map one-to-one onto output rows, so bands are disjoint and the
/// per-row accumulation order (CSR column order) matches [`spmm_ref`]
/// exactly — bitwise identical for every thread count.
///
/// # Panics
/// Panics on shape mismatch.
pub fn spmm_into(s: &CsrMatrix, b: &DenseMatrix, out: &mut DenseMatrix, pool: &ThreadPool) {
    let _t = bbgnn_obs::kernel_timer("kernel/spmm");
    assert_eq!(s.cols(), b.rows(), "spmm dimension mismatch");
    let n = b.cols();
    assert_eq!(out.shape(), (s.rows(), n), "spmm output shape mismatch");
    let parallel = 2usize.saturating_mul(s.nnz()).saturating_mul(n) >= PAR_MIN_FLOPS;
    let bdata = b.as_slice();
    pool.for_each_row_band(out.as_mut_slice(), n, parallel, |row0, band| {
        band.fill(0.0);
        if n == 0 {
            return;
        }
        let rows_here = band.len() / n;
        for r in 0..rows_here {
            let out_row = &mut band[r * n..(r + 1) * n];
            // Register-tiled: a tile of the output row stays in local
            // accumulators across the whole nnz sweep, so `out_row` is
            // stored once per tile instead of updated once per nonzero.
            // Accumulation order per element is the CSR column order of
            // [`spmm_ref`] — bitwise identical.
            let mut j = 0;
            while j + TILE_J <= n {
                let mut acc = [0.0f64; TILE_J];
                for (c, v) in s.row_iter(row0 + r) {
                    let b = &bdata[c * n + j..c * n + j + TILE_J];
                    for t in 0..TILE_J {
                        acc[t] += v * b[t];
                    }
                }
                out_row[j..j + TILE_J].copy_from_slice(&acc);
                j += TILE_J;
            }
            if j < n {
                for (c, v) in s.row_iter(row0 + r) {
                    let b_row = &bdata[c * n..(c + 1) * n];
                    for (o, &bv) in out_row[j..].iter_mut().zip(&b_row[j..]) {
                        *o += v * bv;
                    }
                }
            }
        }
    });
    maybe_poison_kernel_output(out);
}

/// Sequential `out = s^T * b` (backward pass of SpMM).
///
/// The transpose product scatters into output rows indexed by CSR *column*,
/// so disjoint output-row partitioning does not apply; parallelizing it
/// would need atomics or per-thread copies, both of which break the bitwise
/// determinism contract. It stays sequential by design — in GCN training it
/// touches the same nnz as the forward SpMM and is not the bottleneck.
///
/// # Panics
/// Panics on shape mismatch.
pub fn spmm_t_into(s: &CsrMatrix, b: &DenseMatrix, out: &mut DenseMatrix) {
    let _t = bbgnn_obs::kernel_timer("kernel/spmm_t");
    assert_eq!(s.rows(), b.rows(), "spmm_t dimension mismatch");
    let n = b.cols();
    assert_eq!(out.shape(), (s.cols(), n), "spmm_t output shape mismatch");
    out.as_mut_slice().fill(0.0);
    if n == 0 {
        return;
    }
    let rows = s.rows();
    for i in 0..rows {
        let b_row = b.row(i);
        for (c, v) in s.row_iter(i) {
            let out_row = out.row_mut(c);
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += v * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One-sided Jacobi pair kernel.
// ---------------------------------------------------------------------------

/// Column pairs one AVX2 lane group of [`jacobi_gram`] carries: two
/// 4-lane vectors per Gram sum.
pub const JACOBI_LANES: usize = 8;

/// Gram sums `[app, aqq, apq]` of the column pairs `(p0 + i, q0 − i)`,
/// `i < out.len()`, of a one-sided Jacobi work matrix stored column-major:
/// row `j` of `wt` is column `j` of the work matrix.
///
/// Every sum adds its products `x·y` one at a time in ascending row order
/// from `+0.0`, with no FMA, so each pair's sums are bitwise the plain
/// loop's whatever the path. With AVX2 the pairs ride one per lane, eight
/// at a time while eight remain, then four; their rows enter the lanes
/// four values at a time through 4×4 in-register transposes. The rest,
/// and every pair on a host without AVX2, run through the scalar loop one
/// pair at a time.
///
/// # Panics
/// Panics if a row of a pair is outside `wt`.
pub fn jacobi_gram(wt: &DenseMatrix, p0: usize, q0: usize, out: &mut [[f64; 3]]) {
    #[cfg(target_arch = "x86_64")]
    let done = if std::arch::is_x86_feature_detected!("avx2") {
        gram_groups_avx2(wt, p0, q0, out)
    } else {
        0
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (i, sums) in out.iter_mut().enumerate().skip(done) {
        *sums = gram_pair(wt.row(p0 + i), wt.row(q0 - i));
    }
}

/// The AVX2 part of [`jacobi_gram`], on a host with AVX2: eight-pair
/// groups while eight pairs remain, then one four-pair group if four do.
/// Returns how many pairs it filled.
#[cfg(target_arch = "x86_64")]
fn gram_groups_avx2(wt: &DenseMatrix, p0: usize, q0: usize, out: &mut [[f64; 3]]) -> usize {
    let mut done = 0;
    while out.len() - done >= 4 {
        let (p, q) = (p0 + done, q0 - done);
        if out.len() - done >= JACOBI_LANES {
            let rows = lane_rows::<2>(wt, p, q);
            // SAFETY: the only caller checked AVX2 support, which
            // discharges the `#[target_feature]` obligation; the callee's
            // loads are bounds-checked slices of `rows`.
            unsafe { gram_lanes_avx2(rows, &mut out[done..done + JACOBI_LANES]) };
            done += JACOBI_LANES;
        } else {
            let rows = lane_rows::<1>(wt, p, q);
            // SAFETY: as above.
            unsafe { gram_lanes_avx2(rows, &mut out[done..done + 4]) };
            done += 4;
        }
    }
    done
}

/// The rows of `4·V` pairs starting at `(p, q)`: `[0][v][l]` is row
/// `p + 4v + l`, `[1][v][l]` is row `q − 4v − l`.
#[cfg(target_arch = "x86_64")]
fn lane_rows<const V: usize>(wt: &DenseMatrix, p: usize, q: usize) -> [[[&[f64]; 4]; V]; 2] {
    let mut rows = [[[&[][..]; 4]; V]; 2];
    for i in 0..4 * V {
        let (v, l) = (i / 4, i % 4);
        [rows[0][v][l], rows[1][v][l]] = [wt.row(p + i), wt.row(q - i)];
    }
    rows
}

/// One pair's Gram sums: the scalar lane.
fn gram_pair(rp: &[f64], rq: &[f64]) -> [f64; 3] {
    let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
    for (&x, &y) in rp.iter().zip(rq) {
        app += x * x;
        aqq += y * y;
        apq += x * y;
    }
    [app, aqq, apq]
}

/// Gram sums of `4·V` pairs, pair `4v + l` in lane `l` of vector `v`
/// (see [`lane_rows`]), written to `out[4v + l]`. Per lane the adds run in
/// ascending row order from `+0.0`, exactly as [`gram_pair`]'s.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `#[target_feature]`; the caller checks
// AVX2 support. Every load reads a bounds-checked four-value subslice of
// a row (`&row[k..k + 4]`), every store a four-value local array, and
// `out` is indexed with bounds checks, so no access leaves its slice.
unsafe fn gram_lanes_avx2<const V: usize>(rows: [[[&[f64]; 4]; V]; 2], out: &mut [[f64; 3]]) {
    use std::arch::x86_64::*;
    let [p, q] = rows;
    let m = p[0][0].len();
    let zero = _mm256_setzero_pd();
    let (mut app, mut aqq, mut apq) = ([zero; V], [zero; V], [zero; V]);
    let mut k = 0;
    while k + 4 <= m {
        for v in 0..V {
            // Transpose the 4×4 blocks: `x[t]` holds row value `k + t` of
            // the four `p` rows, one per lane; `y[t]` of the `q` rows.
            let mut x = [zero; 4];
            let mut y = [zero; 4];
            for (block, r) in [(&mut x, &p[v]), (&mut y, &q[v])] {
                let r0 = _mm256_loadu_pd(r[0][k..k + 4].as_ptr());
                let r1 = _mm256_loadu_pd(r[1][k..k + 4].as_ptr());
                let r2 = _mm256_loadu_pd(r[2][k..k + 4].as_ptr());
                let r3 = _mm256_loadu_pd(r[3][k..k + 4].as_ptr());
                let lo01 = _mm256_unpacklo_pd(r0, r1);
                let hi01 = _mm256_unpackhi_pd(r0, r1);
                let lo23 = _mm256_unpacklo_pd(r2, r3);
                let hi23 = _mm256_unpackhi_pd(r2, r3);
                block[0] = _mm256_permute2f128_pd(lo01, lo23, 0x20);
                block[1] = _mm256_permute2f128_pd(hi01, hi23, 0x20);
                block[2] = _mm256_permute2f128_pd(lo01, lo23, 0x31);
                block[3] = _mm256_permute2f128_pd(hi01, hi23, 0x31);
            }
            for t in 0..4 {
                app[v] = _mm256_add_pd(app[v], _mm256_mul_pd(x[t], x[t]));
                aqq[v] = _mm256_add_pd(aqq[v], _mm256_mul_pd(y[t], y[t]));
                apq[v] = _mm256_add_pd(apq[v], _mm256_mul_pd(x[t], y[t]));
            }
        }
        k += 4;
    }
    while k < m {
        for v in 0..V {
            let (r, s) = (&p[v], &q[v]);
            let x = _mm256_set_pd(r[3][k], r[2][k], r[1][k], r[0][k]);
            let y = _mm256_set_pd(s[3][k], s[2][k], s[1][k], s[0][k]);
            app[v] = _mm256_add_pd(app[v], _mm256_mul_pd(x, x));
            aqq[v] = _mm256_add_pd(aqq[v], _mm256_mul_pd(y, y));
            apq[v] = _mm256_add_pd(apq[v], _mm256_mul_pd(x, y));
        }
        k += 1;
    }
    for v in 0..V {
        let mut lanes = [[0.0f64; 4]; 3];
        _mm256_storeu_pd(lanes[0].as_mut_ptr(), app[v]);
        _mm256_storeu_pd(lanes[1].as_mut_ptr(), aqq[v]);
        _mm256_storeu_pd(lanes[2].as_mut_ptr(), apq[v]);
        for l in 0..4 {
            out[4 * v + l] = [lanes[0][l], lanes[1][l], lanes[2][l]];
        }
    }
}

/// Applies the Givens rotation `[c −s; s c]` to rows `p < q` of `m`, the
/// columns `p` and `q` of a one-sided Jacobi work matrix:
/// `(x, y) ← (c·x − s·y, s·x + c·y)` elementwise. On x86-64 with AVX2 the
/// same source runs with AVX2 codegen, dispatched at runtime: wider
/// vectors across elements, no FMA, the same bits.
///
/// # Panics
/// Panics unless `p < q < m.rows()`.
pub fn rotate_rows(m: &mut DenseMatrix, p: usize, q: usize, c: f64, s: f64) {
    let cols = m.cols();
    let (head, tail) = m.as_mut_slice().split_at_mut(q * cols);
    let (lo, hi) = (&mut head[p * cols..(p + 1) * cols], &mut tail[..cols]);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just checked; the callee body is
            // the safe `rotate`, so AVX2 codegen only widens the lanes it
            // uses across elements, and rustc never contracts mul+add
            // into FMA.
            unsafe { rotate_avx2(lo, hi, c, s) };
            return;
        }
    }
    rotate(lo, hi, c, s);
}

/// [`rotate`] compiled with AVX2 codegen, dispatched by [`rotate_rows`].
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe` only because of `#[target_feature]` — the body is the
// safe, slice-indexed `rotate`; the caller checks AVX2 support.
unsafe fn rotate_avx2(lo: &mut [f64], hi: &mut [f64], c: f64, s: f64) {
    rotate(lo, hi, c, s);
}

#[inline(always)]
fn rotate(lo: &mut [f64], hi: &mut [f64], c: f64, s: f64) {
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

// ---------------------------------------------------------------------------
// Workspace arena.
// ---------------------------------------------------------------------------

/// Retention cap for the workspace arena, in `f64` elements (≈256 MB).
/// Buffers returned beyond the cap are dropped to the allocator.
const WORKSPACE_CAP_F64: usize = 32 << 20;

/// A buffer arena recycling `Vec<f64>` allocations between hot-path calls.
///
/// Buffers are keyed by **exact length**, which keeps every stored element
/// initialized (no `set_len`, no `unsafe`) — a recycled buffer is handed
/// back with stale-but-valid contents and the kernels overwrite it fully
/// (or [`ExecContext::alloc_zeroed`] clears it). Training loops that
/// allocate the same tensor shapes every epoch hit the arena from epoch 2
/// onward.
///
/// Ownership rule: the arena takes back only buffers it lent (a
/// [`take`](Self::take) hit or a [`note_alloc`](Self::note_alloc)ed
/// miss), so `held + lent` covers every buffer it has handed out and not
/// dropped, and its peak counts all of them. [`give`](Self::give) asserts
/// the rule in debug builds.
#[derive(Debug, Default)]
struct Workspace {
    pools: HashMap<usize, Vec<Vec<f64>>>,
    held: usize,
    /// Elements currently lent out (taken or freshly allocated, not yet
    /// given back). `held + lent` is the arena's total footprint.
    lent: usize,
    /// Monotonic high-water mark of `held + lent`, in elements.
    peak: usize,
    reuse_hits: usize,
}

impl Workspace {
    /// Takes a recycled buffer of exactly `len` elements, if one is held.
    /// Contents are stale; the caller must overwrite or zero them.
    fn take(&mut self, len: usize) -> Option<Vec<f64>> {
        let buf = self.pools.get_mut(&len)?.pop()?;
        self.held -= len;
        self.lent += len;
        self.reuse_hits += 1;
        Some(buf)
    }

    /// Records a fresh allocation of `len` elements made on a
    /// [`take`](Self::take) miss, so the lent total (and peak) covers
    /// buffers the arena will later receive via [`give`](Self::give).
    /// This is the only site where the footprint can grow — a `take` hit
    /// just moves elements from held to lent — so the peak check lives
    /// here and in the obs/supervise bridge it calls.
    fn note_alloc(&mut self, len: usize) {
        self.lent += len;
        let total = self.held + self.lent;
        if total > self.peak {
            let delta_bytes = (total - self.peak) * std::mem::size_of::<f64>();
            self.peak = total;
            // The counter sums deltas, so its final value is the peak in
            // bytes; the supervise high-water mark lets a `mem` budget trip
            // at the next check site. Both are one relaxed load when off.
            bbgnn_obs::counter("exec/peak_bytes", delta_bytes as u64);
            if bbgnn_supervise::enabled() {
                bbgnn_supervise::note_mem(self.peak_bytes() as u64);
            }
        }
    }

    /// Returns a lent buffer to the arena; dropped instead if the
    /// retention cap would be exceeded or the buffer is empty. Either way
    /// the buffer is no longer lent.
    fn give(&mut self, buf: Vec<f64>) {
        let len = buf.len();
        debug_assert!(
            len <= self.lent,
            "workspace: given a {len}-element buffer it never lent ({} lent)",
            self.lent
        );
        self.lent -= len;
        if len == 0 || self.held + len > WORKSPACE_CAP_F64 {
            return;
        }
        self.held += len;
        self.pools.entry(len).or_default().push(buf);
    }

    /// High-water mark of the arena footprint (retained + lent) in bytes.
    /// Monotonic for the life of the workspace.
    fn peak_bytes(&self) -> usize {
        self.peak * std::mem::size_of::<f64>()
    }
}

// ---------------------------------------------------------------------------
// Execution context.
// ---------------------------------------------------------------------------

/// Thread pool + workspace bundle threaded through every compute layer.
///
/// One context is created per training/attack run (`Rc<ExecContext>`) and
/// shared by every [`crate::DenseMatrix`] product and autodiff tape in that
/// run, so gradient buffers are recycled across epochs instead of
/// reallocated. The context is deliberately `!Sync` (single-owner
/// workspace); the *kernels* spread work across threads internally.
#[derive(Debug)]
pub struct ExecContext {
    pool: ThreadPool,
    workspace: RefCell<Workspace>,
}

impl ExecContext {
    /// A context running kernels on `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self {
            pool: ThreadPool::new(threads),
            workspace: RefCell::default(),
        }
    }

    /// A context with the calling thread's [`current_threads`] worker
    /// count: the entered job's width, else `BBGNN_THREADS`.
    pub fn from_env() -> Self {
        Self::new(current_threads())
    }

    /// Convenience: `Rc::new(Self::from_env())`.
    pub fn shared_from_env() -> Rc<Self> {
        Rc::new(Self::from_env())
    }

    /// Worker count used by this context's kernels.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The underlying scoped thread pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Number of allocations served from the workspace so far.
    pub fn reuse_hits(&self) -> usize {
        self.workspace.borrow().reuse_hits
    }

    /// High-water mark of this context's workspace footprint — every
    /// buffer it has lent, retained or still out — in bytes. Monotonic for
    /// the life of the context.
    pub fn peak_bytes(&self) -> usize {
        self.workspace.borrow().peak_bytes()
    }

    /// Takes a `len` buffer from the workspace (stale contents) or
    /// allocates a zeroed one.
    fn take_buf(&self, len: usize) -> Vec<f64> {
        let mut ws = self.workspace.borrow_mut();
        if let Some(buf) = ws.take(len) {
            return buf;
        }
        ws.note_alloc(len);
        vec![0.0; len]
    }

    /// A `rows × cols` matrix backed by a recycled buffer, zeroed.
    pub fn alloc_zeroed(&self, rows: usize, cols: usize) -> DenseMatrix {
        let mut buf = self.take_buf(rows * cols);
        buf.fill(0.0);
        DenseMatrix::from_vec(rows, cols, buf)
    }

    /// A copy of `src` backed by a recycled buffer.
    pub fn alloc_copy(&self, src: &DenseMatrix) -> DenseMatrix {
        let mut buf = self.take_buf(src.rows() * src.cols());
        buf.copy_from_slice(src.as_slice());
        DenseMatrix::from_vec(src.rows(), src.cols(), buf)
    }

    /// Returns a matrix's buffer, which this context must have lent, to
    /// the workspace for reuse.
    pub fn recycle(&self, m: DenseMatrix) {
        self.workspace.borrow_mut().give(m.into_vec());
    }

    /// `a * b` on the pool, output backed by a recycled buffer.
    pub fn matmul(&self, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(a.rows(), b.cols(), self.take_buf(a.rows() * b.cols()));
        matmul_into(a, b, &mut out, &self.pool);
        out
    }

    /// `a^T * b` on the pool, output backed by a recycled buffer.
    pub fn matmul_tn(&self, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(a.cols(), b.cols(), self.take_buf(a.cols() * b.cols()));
        matmul_tn_into(a, b, &mut out, &self.pool);
        out
    }

    /// `a * b^T` on the pool, output backed by a recycled buffer.
    pub fn matmul_nt(&self, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(a.rows(), b.rows(), self.take_buf(a.rows() * b.rows()));
        matmul_nt_into(a, b, &mut out, &self.pool);
        out
    }

    /// Sparse × dense `s * b` on the pool, output backed by a recycled
    /// buffer.
    pub fn spmm(&self, s: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(s.rows(), b.cols(), self.take_buf(s.rows() * b.cols()));
        spmm_into(s, b, &mut out, &self.pool);
        out
    }

    /// Sequential `s^T * b` (see [`spmm_t_into`]), output backed by a
    /// recycled buffer.
    pub fn spmm_t(&self, s: &CsrMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::from_vec(s.cols(), b.cols(), self.take_buf(s.cols() * b.cols()));
        spmm_t_into(s, b, &mut out);
        out
    }

    /// Elementwise map of `a`, output backed by a recycled buffer.
    pub fn unary(&self, a: &DenseMatrix, f: impl Fn(f64) -> f64) -> DenseMatrix {
        let mut buf = self.take_buf(a.rows() * a.cols());
        for (o, &v) in buf.iter_mut().zip(a.as_slice()) {
            *o = f(v);
        }
        DenseMatrix::from_vec(a.rows(), a.cols(), buf)
    }

    /// Elementwise zip of `a` and `b`, output backed by a recycled buffer.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn binary(
        &self,
        a: &DenseMatrix,
        b: &DenseMatrix,
        f: impl Fn(f64, f64) -> f64,
    ) -> DenseMatrix {
        assert_eq!(a.shape(), b.shape(), "binary op shape mismatch");
        let mut buf = self.take_buf(a.rows() * a.cols());
        for ((o, &x), &y) in buf.iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
            *o = f(x, y);
        }
        DenseMatrix::from_vec(a.rows(), a.cols(), buf)
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        DenseMatrix::uniform(rows, cols, 1.0, seed)
    }

    #[test]
    fn blocked_matmul_matches_reference_bitwise() {
        for &(m, k, n) in &[(3, 4, 5), (17, 129, 33), (1, 300, 1), (130, 130, 130)] {
            let a = dense(m, k, 1);
            let b = dense(k, n, 2);
            let pool = ThreadPool::new(4);
            let mut out = DenseMatrix::zeros(m, n);
            matmul_into(&a, &b, &mut out, &pool);
            assert_eq!(out, matmul_ref(&a, &b), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn workspace_recycles_exact_lengths() {
        let ws = ExecContext::new(1);
        let m = ws.alloc_zeroed(4, 5);
        ws.recycle(m);
        let hits_before = ws.reuse_hits();
        let m2 = ws.alloc_zeroed(4, 5);
        assert_eq!(ws.reuse_hits(), hits_before + 1);
        assert!(m2.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn workspace_tracks_peak_footprint_monotonically() {
        let cx = ExecContext::new(1);
        let a = cx.alloc_zeroed(10, 10);
        assert_eq!(cx.peak_bytes(), 800, "one fresh 100-element buffer");
        cx.recycle(a);
        let b = cx.alloc_zeroed(10, 10);
        assert_eq!(cx.peak_bytes(), 800, "a reuse hit adds no footprint");
        let c = cx.alloc_zeroed(10, 10);
        assert_eq!(cx.peak_bytes(), 1600, "two live buffers grow the peak");
        cx.recycle(b);
        cx.recycle(c);
        assert_eq!(cx.peak_bytes(), 1600, "peak is monotonic");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "never lent")]
    fn giving_back_a_buffer_the_arena_never_lent_trips_the_assertion() {
        ExecContext::new(1).recycle(DenseMatrix::zeros(3, 3));
    }

    #[test]
    fn map_fold_matches_sequential_argmax() {
        let scores: Vec<f64> = (0..5000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut seq: Option<(f64, usize)> = None;
        for (i, &s) in scores.iter().enumerate() {
            if seq.map_or(true, |(bs, _)| s > bs) {
                seq = Some((s, i));
            }
        }
        let pool = ThreadPool::new(8);
        let par = pool
            .map_fold(
                scores.len(),
                |range| {
                    let mut best: Option<(f64, usize)> = None;
                    for i in range {
                        if best.map_or(true, |(bs, _)| scores[i] > bs) {
                            best = Some((scores[i], i));
                        }
                    }
                    best
                },
                |acc, item| match (acc, item) {
                    (Some((a, ai)), Some((b, bi))) => {
                        if b > a {
                            Some((b, bi))
                        } else {
                            Some((a, ai))
                        }
                    }
                    (x, None) => x,
                    (None, y) => y,
                },
            )
            .flatten();
        assert_eq!(par, seq);
    }

    /// A worker's counters drain from its thread-locals when the thread
    /// exits; a region must not return before that, or they land after the
    /// region (and possibly after the enclosing span or the trace) closed.
    #[test]
    fn worker_counters_are_drained_when_a_region_returns() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf::default();
        // The total of the `test/pool_band` counter records in the trace.
        let count = || -> u64 {
            String::from_utf8_lossy(&buf.0.lock().unwrap())
                .lines()
                .filter(|l| l.contains("\"t\":\"ctr\",\"name\":\"test/pool_band\""))
                .filter_map(|l| {
                    l.split("\"add\":")
                        .nth(1)?
                        .trim_end_matches('}')
                        .parse::<u64>()
                        .ok()
                })
                .sum()
        };
        bbgnn_obs::init_to_writer(Box::new(buf.clone()));
        let pool = ThreadPool::new(2);
        let mut out = vec![0.0; 16];
        for region in 1..=200u64 {
            pool.for_each_row_band(&mut out, 8, true, |_, _| {
                bbgnn_obs::counter("test/pool_band", 1)
            });
            assert_eq!(
                count(),
                2 * region,
                "region {region}: a worker drained after the region returned"
            );
        }
        bbgnn_obs::shutdown();
    }

    #[test]
    fn pool_workers_inherit_the_submitting_threads_supervision_scope() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let scope = bbgnn_supervise::SupervisionScope::new();
        scope.activate();
        let _entered = bbgnn_supervise::enter(&scope);
        let pool = ThreadPool::new(4);

        // for_each_row_band: every worker must see the entered scope.
        let seen = AtomicUsize::new(0);
        let mut out = vec![0.0; 64];
        pool.for_each_row_band(&mut out, 8, true, |_, band| {
            if bbgnn_supervise::current_scope().is_some_and(|s| Arc::ptr_eq(&s, &scope)) {
                seen.fetch_add(1, Ordering::Relaxed);
            }
            for v in band {
                *v = 1.0;
            }
        });
        assert!(seen.load(Ordering::Relaxed) >= 1, "no worker saw the scope");

        // map_fold_coarse: scoped accounting from inside workers lands in
        // the scope (the GF-Attack rescoring shape).
        let total = pool.map_fold_coarse(
            16,
            |range| {
                bbgnn_supervise::note_queries(range.len() as u64);
                range.len()
            },
            |a, b| a + b,
        );
        assert_eq!(total, Some(16));
        assert_eq!(
            scope.queries_used(),
            16,
            "scoped accounting lost in workers"
        );
    }

    #[test]
    fn an_entered_scopes_width_reaches_default_contexts_and_pool_workers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let outside = ExecContext::from_env().threads();
        assert_eq!(outside, env_threads(), "no scope: the process width");
        let scope = bbgnn_supervise::SupervisionScope::new();
        scope.set_threads(3);
        let _entered = bbgnn_supervise::enter(&scope);
        assert_eq!(ExecContext::from_env().threads(), 3);
        assert_eq!(ThreadPool::default().threads(), 3);

        // Both bands of a two-band region see the job's width.
        let seen = AtomicUsize::new(0);
        let mut out = vec![0.0; 16];
        ThreadPool::new(2).for_each_row_band(&mut out, 8, true, |_, _| {
            if ExecContext::from_env().threads() == 3 && ThreadPool::default().threads() == 3 {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), 2, "a band lost the width");
    }

    /// A panic in one band must still wait for every other band before
    /// the region unwinds, and the failed band's own payload reaches the
    /// caller.
    #[test]
    fn a_panicking_band_joins_every_band_before_unwinding() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = ThreadPool::new(2);
        let finished = AtomicBool::new(false);
        let mut out = vec![0.0; 16];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_row_band(&mut out, 8, true, |first_row, _| {
                if first_row == 0 {
                    panic!("band 0");
                }
                // lint: allow(clock) reason=test holds the other band open past the first band's panic
                std::thread::sleep(std::time::Duration::from_millis(50));
                finished.store(true, Ordering::SeqCst);
            });
        }));
        assert!(caught.is_err(), "band 0's panic must propagate");
        assert!(
            finished.load(Ordering::SeqCst),
            "the region unwound before its other band finished"
        );

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_row_band(&mut out, 8, true, |first_row, _| {
                if first_row != 0 {
                    panic!("band 1");
                }
            });
        }));
        let payload = caught.expect_err("band 1's panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"band 1"));
    }
}
