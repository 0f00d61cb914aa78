//! Kernel microbenchmark — the perf trajectory file.
//!
//! Times the blocked/threaded kernels against their naive references at
//! graph-relevant sizes (Cora-shaped: `n = 2708`, `d = 1433`, and the
//! attack cells' 298-node cora-like graph with its 7-class gradient
//! products; the GCN-family input layer, sparse against dense, at both
//! shapes; Pro-GNN's exact Jacobi SVD at that graph's size; the start-up
//! and join cost of one two-band pool region) and writes
//! `BENCH_kernels.json` with GFLOP/s per kernel, shape, and thread count,
//! plus the host it ran on (`nproc`, AVX2), so future changes have a
//! baseline to compare against. Thread rows above the host's `nproc` are
//! oversubscribed and say nothing about scaling.
//!
//! The determinism contract means every row of this file describes the
//! *same bytes* — thread count trades wall-clock only, which is exactly
//! why the speedup column is meaningful.
//!
//! ```text
//! cargo run --release --bin kernel_bench            # all cores
//! cargo run --release --bin kernel_bench -- --threads 4
//! cargo run --release --bin kernel_bench -- --compare BENCH_kernels.json
//! ```
//!
//! With `--compare <baseline>` the run additionally gates itself against a
//! previous `BENCH_kernels.json` (see [`bbgnn_bench::compare`]) and exits
//! non-zero on a perf regression — this is the CI `perf` job.

use bbgnn::autodiff::{dropout_csr, Tape, TensorId};
use bbgnn::gnn::gcn::sparse_input;
use bbgnn::prelude::*;
use bbgnn_bench::compare;
use bbgnn_bench::config::ExpConfig;
use bbgnn_bench::report::Table;
use bbgnn_scenario::json::Json;
use std::rc::Rc;
use std::time::Instant;

/// Cora's full-size node count and feature dimension (Table III).
const CORA_N: usize = 2708;
const CORA_D: usize = 1433;
/// GCN hidden width used for the Cora-shaped propagation product.
const HIDDEN: usize = 16;
/// Graph scale of the attack workload's cora-like graph (298 nodes).
const ATTACK_SCALE: f64 = 0.12;

/// Per-variant timing summary over the interleaved rounds.
#[derive(Clone, Copy)]
struct Timing {
    /// Fastest round — the machine's capability, reported as GFLOP/s.
    best: f64,
    /// Median round — robust to one-off stalls, gated by the CI perf job.
    median: f64,
}

/// Times each variant over `reps` rounds, measured **interleaved**: every
/// round times all variants back to back, so noise on a shared machine
/// (other tenants, frequency drift) hits every variant alike and the
/// speedup ratios stay meaningful. One untimed warmup round.
fn time_group(reps: usize, ops: &mut [Box<dyn FnMut() + '_>]) -> Vec<Timing> {
    for op in ops.iter_mut() {
        op();
    }
    let mut samples = vec![Vec::with_capacity(reps); ops.len()];
    for _ in 0..reps {
        for (slot, op) in samples.iter_mut().zip(ops.iter_mut()) {
            let t = Instant::now();
            op();
            slot.push(t.elapsed().as_secs_f64());
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            let mid = s.len() / 2;
            let median = if s.len() % 2 == 1 {
                s[mid]
            } else {
                (s[mid - 1] + s[mid]) / 2.0
            };
            Timing { best: s[0], median }
        })
        .collect()
}

/// A deterministic sparse matrix with roughly `target_nnz` entries.
fn sparse(n: usize, target_nnz: usize) -> CsrMatrix {
    let modulus = (n * n / target_nnz).max(1);
    CsrMatrix::from_triplets(
        n,
        n,
        (0..n).flat_map(move |r| {
            (0..n).filter_map(move |c| {
                let h = r
                    .wrapping_mul(2654435761)
                    .wrapping_add(c.wrapping_mul(40503))
                    % modulus;
                (h == 0).then(|| (r, c, ((r + c) % 13 + 1) as f64 / 13.0))
            })
        }),
    )
}

struct Row {
    kernel: String,
    shape: String,
    threads: usize,
    flops: f64,
    timing: Timing,
    naive: Timing,
}

impl Row {
    fn gflops(&self) -> f64 {
        self.flops / self.timing.best / 1e9
    }

    fn speedup(&self) -> f64 {
        self.naive.best / self.timing.best
    }

    fn median_speedup(&self) -> f64 {
        self.naive.median / self.timing.median
    }

    fn json(&self) -> Json {
        Json::object([
            ("kernel".to_string(), Json::string(self.kernel.clone())),
            ("shape".to_string(), Json::string(self.shape.clone())),
            ("threads".to_string(), Json::number_usize(self.threads)),
            ("secs".to_string(), Json::number_f64(self.timing.best)),
            (
                "median_secs".to_string(),
                Json::number_f64(self.timing.median),
            ),
            ("gflops".to_string(), Json::number_f64(self.gflops())),
            (
                "speedup_vs_naive".to_string(),
                Json::number_f64(self.speedup()),
            ),
            (
                "median_speedup_vs_naive".to_string(),
                Json::number_f64(self.median_speedup()),
            ),
        ])
    }
}

/// Times one kernel group, interleaved: the naive reference against `op`
/// on every context. Each sample runs `batch` calls, so sub-millisecond
/// products are timed well above clock resolution. Appends the naive row
/// and one row per thread count; `flops` is per call.
#[allow(clippy::too_many_arguments)]
fn time_kernel(
    rows: &mut Vec<Row>,
    ctxs: &[Rc<ExecContext>],
    reps: usize,
    (kernel, shape): (&str, String),
    flops: f64,
    batch: usize,
    mut naive: impl FnMut() -> DenseMatrix,
    op: impl Fn(&Rc<ExecContext>) -> DenseMatrix,
) {
    let op = &op;
    let mut ops: Vec<Box<dyn FnMut() + '_>> = vec![Box::new(move || {
        for _ in 0..batch {
            drop(naive());
        }
    })];
    for ctx in ctxs {
        ops.push(Box::new(move || {
            for _ in 0..batch {
                let out = op(ctx);
                ctx.recycle(out);
            }
        }));
    }
    let secs = time_group(reps, &mut ops);
    let flops = flops * batch as f64;
    let row = |kernel: String, threads: usize, timing: Timing| Row {
        kernel,
        shape: shape.clone(),
        threads,
        flops,
        timing,
        naive: secs[0],
    };
    rows.push(row(format!("{kernel}_naive"), 1, secs[0]));
    for (ctx, &timing) in ctxs.iter().zip(&secs[1..]) {
        rows.push(row(kernel.to_string(), ctx.threads(), timing));
    }
}

/// A deterministic binary `n × d` feature matrix with about one entry in
/// `every` set.
fn binary_features(n: usize, d: usize, every: usize) -> DenseMatrix {
    let mut x = DenseMatrix::zeros(n, d);
    for i in 0..n {
        for j in 0..d {
            if (i.wrapping_mul(2654435761) ^ j.wrapping_mul(40503)) % every == 0 {
                x.set(i, j, 1.0);
            }
        }
    }
    x
}

/// `∂W₀` of `Σ g ∘ product(W₀)` on a tape over `ctx`, `product` building
/// the input layer's `X·W₀` from the weight variable: one epoch's input
/// layer, forward and backward.
fn input_layer_grad(
    ctx: &Rc<ExecContext>,
    w0: &DenseMatrix,
    g: &Rc<DenseMatrix>,
    product: impl FnOnce(&mut Tape, TensorId) -> TensorId,
) -> DenseMatrix {
    let mut tape = Tape::with_context(Rc::clone(ctx));
    let w = tape.var(w0.clone());
    let hw = product(&mut tape, w);
    let weighted = tape.hadamard_const(hw, Rc::clone(g));
    let loss = tape.sum_all(weighted);
    tape.backward(loss);
    ctx.alloc_copy(tape.grad(w).expect("W₀ is a variable"))
}

/// The reference for the `pool_region` row: a region that spawns one
/// scoped thread per `row_len`-wide band of `out` and joins them all,
/// leaving the calling thread idle.
fn naive_region(out: &mut [f64], row_len: usize, body: impl Fn(usize, &mut [f64]) + Sync) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = out
            .chunks_mut(row_len)
            .enumerate()
            .map(|(row, band)| {
                let body = &body;
                scope.spawn(move || body(row, band))
            })
            .collect();
        for handle in handles {
            handle.join().expect("a naive_region band panicked");
        }
    });
}

/// Whether the kernels' AVX2 dispatch is taken on this host.
fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn main() {
    // `--compare <baseline>` is kernel_bench-specific, so it is peeled off
    // before the shared flag parser sees the argument list.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (compare_baseline, rest) = match bbgnn_bench::cli::extract_flag(&args, "--compare") {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let cfg = ExpConfig::init_from(&rest);
    println!("{}", cfg.banner("kernel_bench"));
    // The baseline is loaded *before* benchmarking (and before the output
    // file is written): `--compare BENCH_kernels.json` compares against the
    // committed baseline even though the run overwrites that same path, and
    // a malformed baseline fails fast instead of after minutes of timing.
    let baseline: Option<(String, Json)> =
        compare_baseline.map(|p| {
            match std::fs::read_to_string(&p)
                .map_err(|e| e.to_string())
                .and_then(|text| Json::parse(&text))
            {
                Ok(doc) => (p, doc),
                Err(e) => {
                    eprintln!("error: baseline {p}: {e}");
                    std::process::exit(2);
                }
            }
        });
    let max_threads = bbgnn::exec::env_threads();
    let mut thread_counts = vec![1, 2, 4];
    if !thread_counts.contains(&max_threads) {
        thread_counts.push(max_threads);
    }
    thread_counts.retain(|&t| t <= max_threads.max(4));
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut rows: Vec<Row> = Vec::new();

    // A comparison times at least as many rounds as its baseline did, so
    // both medians are as stable as each other.
    let reps = cfg
        .runs
        .max(5)
        .max(baseline.as_ref().map_or(0, |(_, doc)| compare::rounds(doc)));
    let ctxs: Vec<Rc<ExecContext>> = thread_counts
        .iter()
        .map(|&t| Rc::new(ExecContext::new(t)))
        .collect();

    // --- dense matmul chain at the Cora propagation shape -----------------
    // X (n×d) · W (d×h) is the feature-weight product of every GCN forward;
    // reference = the naive triple loop the blocked kernel must beat.
    use bbgnn::linalg::kernels::{matmul_nt_ref, matmul_ref, matmul_tn_ref, spmm_ref};
    let a = DenseMatrix::uniform(CORA_N, CORA_D, 1.0, 1);
    let w = DenseMatrix::uniform(CORA_D, HIDDEN, 1.0, 2);
    time_kernel(
        &mut rows,
        &ctxs,
        reps,
        ("matmul", format!("{CORA_N}x{CORA_D}x{HIDDEN}")),
        (2 * CORA_N * CORA_D * HIDDEN) as f64,
        1,
        || matmul_ref(&a, &w),
        |ctx| ctx.matmul(&a, &w),
    );

    // --- matmul_tn at the gradient shape (Aᵀ G, d×n · n×h) ---------------
    let g = DenseMatrix::uniform(CORA_N, HIDDEN, 1.0, 3);
    time_kernel(
        &mut rows,
        &ctxs,
        reps,
        ("matmul_tn", format!("{CORA_N}x{CORA_D}^T x{HIDDEN}")),
        (2 * CORA_D * CORA_N * HIDDEN) as f64,
        1,
        || matmul_tn_ref(&a, &g),
        |ctx| ctx.matmul_tn(&a, &g),
    );

    // --- the attack cells' gradient products -------------------------------
    // The linear surrogate every Table VII attacker trains (H = Â_n² X on a
    // cora-like graph at scale 0.12, with its real zeros; 7 classes): its
    // forward H·W and weight gradient Hᵀ·G, both narrower than the 8-wide
    // register tile. Then the two adjacency-gradient shapes: G·(XW)ᵀ with
    // inner dimension 7 (Metattack, PGD) and G·Hᵀ with inner dimension d
    // (PEEGA's ∂/∂Â_n). One call takes 0.05–3 ms, so each sample runs a
    // batch lasting several milliseconds, well above scheduler noise.
    let cora = DatasetSpec::CoraLike.generate(ATTACK_SCALE, cfg.seed);
    let h = cora.propagate(2);
    let (n, d, c) = (h.rows(), h.cols(), cora.num_classes);
    let hw = DenseMatrix::glorot(d, c, 4);
    let gc = DenseMatrix::uniform(n, c, 1.0, 5);
    time_kernel(
        &mut rows,
        &ctxs,
        reps,
        ("matmul_narrow", format!("{n}x{d}x{c} cora-like H")),
        (2 * n * d * c) as f64,
        100,
        || matmul_ref(&h, &hw),
        |ctx| ctx.matmul(&h, &hw),
    );
    time_kernel(
        &mut rows,
        &ctxs,
        reps,
        ("matmul_tn_narrow", format!("{n}x{d}^T x{c} cora-like H")),
        (2 * n * d * c) as f64,
        100,
        || matmul_tn_ref(&h, &gc),
        |ctx| ctx.matmul_tn(&h, &gc),
    );
    let xw = cora.features.matmul(&hw);
    time_kernel(
        &mut rows,
        &ctxs,
        reps,
        ("matmul_nt_thin", format!("{n}x{c} x{n}x{c}^T")),
        (2 * n * c * n) as f64,
        100,
        || matmul_nt_ref(&gc, &xw),
        |ctx| ctx.matmul_nt(&gc, &xw),
    );
    let gd = DenseMatrix::uniform(n, d, 1.0, 6);
    time_kernel(
        &mut rows,
        &ctxs,
        reps,
        ("matmul_nt", format!("{n}x{d} x{n}x{d}^T cora-like H")),
        (2 * n * d * n) as f64,
        4,
        || matmul_nt_ref(&gd, &h),
        |ctx| ctx.matmul_nt(&gd, &h),
    );

    // --- SpMM at the Cora adjacency shape ---------------------------------
    // Â (2708×2708, ~10k nnz) · X (2708×1433): the sparse propagation.
    let s = sparse(CORA_N, 10_000);
    let x = DenseMatrix::uniform(CORA_N, CORA_D, 1.0, 4);
    time_kernel(
        &mut rows,
        &ctxs,
        reps,
        (
            "spmm",
            format!("{CORA_N}x{CORA_N}({}nnz) x{CORA_D}", s.nnz()),
        ),
        (2 * s.nnz() * CORA_D) as f64,
        1,
        || spmm_ref(&s, &x),
        |ctx| ctx.spmm(&s, &x),
    );

    // --- the GCN-family input layer -------------------------------------------
    // One training epoch's first layer: dropout (p = 0.5) of the binary
    // features, X·W₀, and ∂W₀ = Xᵀ·G for an upstream gradient G, as every
    // GCN-family fit runs it (the sparse input: `dropout_csr`, then
    // `spmm` / `spmm_t` over the stored entries) against the dense chain
    // it replaced (`constant(X) → dropout → matmul`, ∂W₀ by `matmul_tn`),
    // same bits (DESIGN.md §7). At Cora's shape and density, and at the
    // benchmark cell's cora-like graph (scale 0.12). The flop count is the
    // two products over the stored entries.
    {
        let cora_x = binary_features(CORA_N, CORA_D, 77);
        for (kernel, x, what, batch) in [
            ("input_layer", &cora_x, "Cora-shaped X", 1),
            ("input_layer_cell", &cora.features, "cora-like X", 50),
        ] {
            let xs = sparse_input(x);
            let (n, d) = x.shape();
            let w0 = DenseMatrix::glorot(d, HIDDEN, 8);
            let g = Rc::new(DenseMatrix::uniform(n, HIDDEN, 1.0, 9));
            let one = Rc::new(ExecContext::new(1));
            let dense = |tape: &mut Tape, w: TensorId| {
                let h = tape.constant(x.clone());
                let h = tape.dropout(h, 0.5, 10);
                tape.matmul(h, w)
            };
            let sparse =
                |tape: &mut Tape, w: TensorId| tape.spmm(Rc::new(dropout_csr(&xs, 0.5, 10)), w);
            time_kernel(
                &mut rows,
                &ctxs,
                reps,
                (kernel, format!("{n}x{d}({}nnz)x{HIDDEN} {what}", xs.nnz())),
                (4 * xs.nnz() * HIDDEN) as f64,
                batch,
                || input_layer_grad(&one, &w0, &g, dense),
                |ctx| input_layer_grad(ctx, &w0, &g, sparse),
            );
        }
    }

    // --- exact Jacobi SVD at the defend graph's size ----------------------
    // Pro-GNN's nuclear-norm prox is a full one-sided Jacobi solve of its
    // n×n structure S, which starts as the graph's adjacency; with the
    // default seed 7 the cora-like graph above is the defend workload's
    // (298 nodes). Reference = the cyclic-by-rows plain loop, same bits.
    // One solve per sample, single-threaded (one threads=1 row); the flop
    // count depends on the sweeps a solve takes, so the row reports times
    // and speedup only.
    {
        use bbgnn::linalg::svd::{jacobi_svd_ref, try_jacobi_svd};
        let s = cora.adjacency_dense();
        let shape = format!("{n}x{n} cora-like A");
        let sref = &s;
        let mut ops: Vec<Box<dyn FnMut() + '_>> = vec![
            Box::new(move || drop(jacobi_svd_ref(sref))),
            Box::new(move || drop(try_jacobi_svd(sref))),
        ];
        let secs = time_group(reps, &mut ops);
        for (kernel, timing) in [("jacobi_svd_naive", secs[0]), ("jacobi_svd", secs[1])] {
            rows.push(Row {
                kernel: kernel.to_string(),
                shape: shape.clone(),
                threads: 1,
                flops: 0.0,
                timing,
                naive: secs[0],
            });
        }
    }

    // --- incremental rescore vs full rescore (DESIGN.md §13) --------------
    // One committed edge flip on a Cora-shaped graph: the incremental
    // engine repairs the L-hop touched rows of H = Â_n^L X in O(L·deg·d);
    // the naive reference is what every greedy attacker paid per commit
    // before the engine existed — rebuild Â_n and recompute the full
    // L-hop propagation. Same bytes either way (the §13 contract), so the
    // speedup column is a pure wall-clock ratio. The repair is serial by
    // construction, hence the single threads=1 row, and the reference's
    // SpMM chain runs on one worker too, whatever the process width.
    {
        use bbgnn::linalg::incr::{IncrConfig, IncrNorm, IncrProp};
        // Deterministic Cora-scale random graph (~2 edges per node).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        while edges.len() < 2 * CORA_N {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 33) as usize % CORA_N;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (state >> 33) as usize % CORA_N;
            if u != v {
                edges.push((u.min(v), u.max(v)));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let hops = 2;
        let xg = DenseMatrix::uniform(CORA_N, CORA_D, 1.0, 5);
        let mut icfg = IncrConfig::new(hops);
        icfg.resync_stride = 0; // time pure updates, no periodic resync
        let mut engine = IncrProp::from_edges(CORA_N, &edges, xg.clone(), &icfg);
        let mut mirror = IncrNorm::from_edges(CORA_N, &edges);
        let nnz = mirror.normalized_csr().nnz();
        let incr_flops = (2 * nnz * CORA_D * hops) as f64;
        let incr_shape = format!("{CORA_N}x{CORA_N}({nnz}nnz) x{CORA_D} L={hops}");
        let (fu, fv) = (17usize, 1000usize); // toggled add/remove each round
        let xref = &xg;
        let one = ExecContext::new(1);
        let mut ops: Vec<Box<dyn FnMut() + '_>> = Vec::new();
        ops.push(Box::new(move || {
            // Full rescore exactly as Graph::propagate does it after a
            // commit: renormalize, then the L-hop SpMM chain.
            mirror.flip_edge(fu, fv);
            let an = mirror.normalized_csr();
            let mut h = one.spmm(&an, xref);
            for _ in 1..hops {
                h = one.spmm(&an, &h);
            }
            drop(h);
        }));
        ops.push(Box::new(move || {
            engine.flip_edge(fu, fv);
        }));
        let secs = time_group(reps, &mut ops);
        rows.push(Row {
            kernel: "incr_update_naive".to_string(),
            shape: incr_shape.clone(),
            threads: 1,
            flops: incr_flops,
            timing: secs[0],
            naive: secs[0],
        });
        rows.push(Row {
            kernel: "incr_update".to_string(),
            shape: incr_shape,
            threads: 1,
            flops: incr_flops,
            timing: secs[1],
            naive: secs[0],
        });
    }

    // --- pool region cost --------------------------------------------------
    // One two-band region of trivial work through the pool, against the
    // floor of its design: one raw scoped thread per band, the caller
    // waiting in `join` (`naive_region`). What is timed is the region's
    // start-up and join, the cost every threaded product above
    // `PAR_MIN_FLOPS` pays once; a cheaper pool shows as a speedup.
    // Thread start-up latency swings with the host's load, so the row
    // takes many short samples — `REGIONS` regions each, a few
    // milliseconds — and a burst of load hits both variants alike. No
    // flops, so the row reports times and speedup only.
    {
        const REGIONS: usize = 50;
        const ROUNDS: usize = 101;
        let band = |first_row: usize, band: &mut [f64]| band.fill(first_row as f64);
        let pool = ThreadPool::new(2);
        let (mut pooled, mut naive) = (vec![0.0; 16], vec![0.0; 16]);
        let mut ops: Vec<Box<dyn FnMut() + '_>> = vec![
            Box::new(|| {
                for _ in 0..REGIONS {
                    naive_region(&mut naive, 8, band);
                }
            }),
            Box::new(|| {
                for _ in 0..REGIONS {
                    pool.for_each_row_band(&mut pooled, 8, true, band);
                }
            }),
        ];
        let secs = time_group(ROUNDS.max(reps), &mut ops);
        for (kernel, timing) in [("pool_region_naive", secs[0]), ("pool_region", secs[1])] {
            rows.push(Row {
                kernel: kernel.to_string(),
                shape: format!("2 bands x8, {REGIONS} regions"),
                threads: 2,
                flops: 0.0,
                timing,
                naive: secs[0],
            });
        }
    }

    // --- report ------------------------------------------------------------
    let mut table = Table::new(&["kernel", "shape", "threads", "GFLOP/s", "speedup"]);
    for r in &rows {
        table.push_row(vec![
            r.kernel.clone(),
            r.shape.clone(),
            r.threads.to_string(),
            format!("{:.2}", r.gflops()),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    table.emit(&cfg.out_dir, "kernel_bench");

    let doc = Json::object([
        (
            "config".to_string(),
            Json::object([
                ("max_threads".to_string(), Json::number_usize(max_threads)),
                ("rounds".to_string(), Json::number_usize(reps)),
                ("seed".to_string(), Json::number_usize(cfg.seed as usize)),
            ]),
        ),
        (
            "host".to_string(),
            Json::object([
                (
                    "nproc".to_string(),
                    Json::number_usize(bbgnn::exec::default_threads()),
                ),
                ("avx2".to_string(), Json::Bool(has_avx2())),
            ]),
        ),
        (
            "results".to_string(),
            Json::Array(rows.iter().map(Row::json).collect()),
        ),
    ]);
    let path = "BENCH_kernels.json";
    match std::fs::write(path, doc.to_pretty()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    if let Some((baseline_path, baseline)) = baseline {
        // Absolute §13 gate, in addition to the relative baseline gate
        // below: the incremental per-candidate rescore must beat the full
        // rescore by ≥3× median on the gating box, or the engine has lost
        // its reason to exist.
        for r in rows.iter().filter(|r| r.kernel == "incr_update") {
            let s = r.median_speedup();
            if s < 3.0 {
                eprintln!("perf gate: FAIL — incr_update median speedup {s:.2}x < 3x full rescore");
                std::process::exit(1);
            }
            println!("incr gate: incr_update median speedup {s:.2}x (>= 3x) PASS");
        }
        match compare::compare_docs(&baseline, &doc, compare::DEFAULT_MIN_RATIO) {
            Ok(report) => {
                print!("\n{}", report.render());
                if !report.passed() {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("error: comparing against {baseline_path}: {e}");
                std::process::exit(2);
            }
        }
    }
}
