//! Kernel microbenchmark — the perf trajectory file.
//!
//! Times the blocked/threaded kernels against their naive references at
//! graph-relevant sizes (Cora-shaped: `n = 2708`, `d = 1433`, and the
//! attack cells' 298-node cora-like graph with its 7-class gradient
//! products; Pro-GNN's exact Jacobi SVD at that graph's size) and writes
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

use bbgnn::prelude::*;
use bbgnn_bench::compare;
use bbgnn_bench::config::ExpConfig;
use bbgnn_bench::report::Table;
use bbgnn_scenario::json::Json;
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
    ctxs: &[ExecContext],
    reps: usize,
    (kernel, shape): (&str, String),
    flops: f64,
    batch: usize,
    mut naive: impl FnMut() -> DenseMatrix,
    op: impl Fn(&ExecContext) -> DenseMatrix,
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

    let reps = cfg.runs.max(5);
    let ctxs: Vec<ExecContext> = thread_counts.iter().map(|&t| ExecContext::new(t)).collect();

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
    // construction, hence the single threads=1 row.
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
        icfg.threads = 1;
        let mut engine = IncrProp::from_edges(CORA_N, &edges, xg.clone(), &icfg);
        let mut mirror = IncrNorm::from_edges(CORA_N, &edges);
        let nnz = mirror.normalized_csr().nnz();
        let incr_flops = (2 * nnz * CORA_D * hops) as f64;
        let incr_shape = format!("{CORA_N}x{CORA_N}({nnz}nnz) x{CORA_D} L={hops}");
        let (fu, fv) = (17usize, 1000usize); // toggled add/remove each round
        let xref = &xg;
        let mut ops: Vec<Box<dyn FnMut() + '_>> = Vec::new();
        ops.push(Box::new(move || {
            // Full rescore exactly as Graph::propagate does it after a
            // commit: renormalize, then the L-hop SpMM chain.
            mirror.flip_edge(fu, fv);
            let an = mirror.normalized_csr();
            let mut h = an.spmm(xref);
            for _ in 1..hops {
                h = an.spmm(&h);
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
