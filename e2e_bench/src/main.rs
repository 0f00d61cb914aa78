//! `e2e_bench` — end-to-end benchmark of paper cells and `bbgnn-serve`
//! traffic, with per-layer attribution from a separate traced run.
//!
//! ```text
//! e2e_bench --workload attack|defend|serve --seed N --seconds S --trace 0|1
//!           --server PATH --work-dir DIR
//! e2e_bench record clean|attack|defend FIRST COUNT
//! ```
//!
//! `run.py` builds this binary and the `bbgnn-serve` release binary and
//! supplies `--server` and `--work-dir`. Each workload runs in its own
//! process. The last stdout line is the JSON result; `README.md` defines
//! every workload and metric. `record` prints reference cells for
//! `reference/*.tsv`.

use bbgnn::attack::AttackResult;
use bbgnn::gnn::eval::MeanStd;
use bbgnn::gnn::train::{TrainConfig, TrainReport};
use bbgnn::graph::Graph;
use bbgnn::linalg::{incr, ExecContext};
use bbgnn::scenario::dataset::load_dataset;
use bbgnn::scenario::job::{CellOutcome, CellResult, EvalSpec, Job, JobSpec};
use bbgnn::scenario::json::Json;
use bbgnn::scenario::registry::{attacker_by_name, defender_by_name};
use bbgnn_e2e_bench::client::{Conn, JobView, Turnaround};
use bbgnn_e2e_bench::fold::{self, Segment};
use bbgnn_e2e_bench::stats::{median, percentile, power_law_exponent, tail};
use bbgnn_serve::JobRecord;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Dataset scale of every timed cell: 298 nodes, 608 edges, d = 171.
const SCALE: f64 = 0.12;
/// Smaller scales of the traced run's exponent fits.
const SWEEP_SCALES: [f64; 2] = [0.06, 0.09];
/// Perturbation rate of every attack.
const RATE: f64 = 0.1;
/// Graph seeds `1..=GRAPH_SEEDS` have recorded `attack` cells.
const GRAPH_SEEDS: u64 = 32;
/// The `defend` graph: the documented default dataset seed.
const DEFEND_GRAPH: u64 = 7;
/// Training seeds `1..=TRAIN_SEEDS` have recorded `defend` cells.
const TRAIN_SEEDS: u64 = 64;
/// Seeds `1..=CLEAN_SEEDS` have a recorded clean GCN cell (`serve` specs).
const CLEAN_SEEDS: u64 = 2048;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes per run even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;
/// Cold jobs per `serve` run: enough for ten samples beyond the p90.
const MIN_COLD: usize = 100;
/// Hard stop of a `serve` load loop, whatever it has collected.
const SERVE_CAP_S: f64 = 150.0;
const WARM_SPECS: u64 = 4;
const CLIENTS: usize = 2;

/// The `attack` pass: (metric name, attacker, incremental engine on).
const ATTACK_CELLS: [(&str, &str, bool); 5] = [
    ("peega", "PEEGA", false),
    ("metattack", "Metattack", false),
    ("metattack_incr", "Metattack", true),
    ("pgd", "PGD", false),
    ("minmax", "MinMax", false),
];
/// The `defend` pass: (metric name, model column).
const DEFEND_CELLS: [(&str, &str); 8] = [
    ("gcn", "GCN"),
    ("gat", "GAT"),
    ("jaccard", "GCN-Jaccard"),
    ("svd", "GCN-SVD"),
    ("rgcn", "RGCN"),
    ("prognn", "Pro-GNN"),
    ("simpgcn", "SimPGCN"),
    ("gnat", "GNAT"),
];
/// Attackers and defenders whose time is fitted against node count.
const EXP_ATTACKS: [&str; 3] = ["peega", "metattack", "pgd"];
const EXP_FITS: [&str; 4] = ["gat", "prognn", "gnat", "svd"];

// ---------------------------------------------------------------------------
// Inputs and reference values
// ---------------------------------------------------------------------------

/// SplitMix64: decorrelates consecutive workload seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The job seed — which also generates the graph — of `attack` pass `pass`.
/// Passes walk the recorded seeds, so a run's median spans several graphs.
fn attack_seed(workload_seed: u64, pass: usize) -> u64 {
    1 + (mix(workload_seed) % GRAPH_SEEDS + pass as u64) % GRAPH_SEEDS
}

/// The job (training) seed of `defend` pass `pass`, on the shared graph.
fn defend_seed(workload_seed: u64, pass: usize) -> u64 {
    1 + (mix(workload_seed ^ 0xDEF) % TRAIN_SEEDS + pass as u64) % TRAIN_SEEDS
}

/// The `serve` specs of one run: four warm seeds, then fresh cold seeds,
/// all distinct within the run.
struct ServePlan {
    offset: u64,
}

impl ServePlan {
    fn new(workload_seed: u64) -> ServePlan {
        ServePlan {
            offset: mix(workload_seed ^ 0x5E5E) % CLEAN_SEEDS,
        }
    }

    fn seed(&self, k: u64) -> u64 {
        1 + (self.offset + k) % CLEAN_SEEDS
    }

    fn warm(&self, k: usize) -> u64 {
        self.seed(k as u64 % WARM_SPECS)
    }

    fn cold(&self, k: usize) -> Option<u64> {
        let k = WARM_SPECS + k as u64;
        (k < CLEAN_SEEDS).then(|| self.seed(k))
    }
}

fn serve_body(seed: u64) -> String {
    format!(r#"{{"dataset":"cora","eval":{{"runs":1,"scale":{SCALE}}},"seed":{seed}}}"#)
}

/// Recorded cell values: (table, seed, column) → value text.
fn references() -> &'static BTreeMap<(&'static str, u64, String), String> {
    static REFS: OnceLock<BTreeMap<(&'static str, u64, String), String>> = OnceLock::new();
    REFS.get_or_init(|| {
        let tables = [
            ("clean", include_str!("../reference/clean.tsv")),
            ("attack", include_str!("../reference/attack.tsv")),
            ("defend", include_str!("../reference/defend.tsv")),
        ];
        let mut refs = BTreeMap::new();
        for (table, text) in tables {
            for line in text
                .lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
            {
                let mut cols = line.split('\t');
                if let (Some(seed), Some(column), Some(value)) =
                    (cols.next(), cols.next(), cols.next())
                {
                    if let Ok(seed) = seed.parse() {
                        refs.insert((table, seed, column.to_string()), value.to_string());
                    }
                }
            }
        }
        refs
    })
}

fn reference(table: &'static str, seed: u64, column: &str) -> Option<&'static str> {
    references()
        .get(&(table, seed, column.to_string()))
        .map(String::as_str)
}

/// Operations attempted and failed; any failure makes the run incorrect.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    /// One checked operation; `ok == false` is a failure, reported as `why`.
    fn check(&mut self, what: &str, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED {what}: {}", why());
        }
    }

    /// One value compared against its expected text.
    fn value(&mut self, what: &str, got: &str, want: Option<&str>) {
        self.check(what, Some(got) == want, || {
            format!("value {got:?}, expected {want:?}")
        });
    }

    /// One job result: outcome `ok` and the expected value.
    fn cell(&mut self, what: &str, r: &CellResult, want: Option<&str>) {
        if r.outcome == CellOutcome::Ok {
            self.value(what, &r.value, want);
        } else {
            self.check(what, false, || {
                format!("outcome {} ({:?})", r.outcome.as_str(), r.detail)
            });
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

// ---------------------------------------------------------------------------
// Cells, exactly as the CLI binaries and the server run them
// ---------------------------------------------------------------------------

fn spec(seed: u64, attack: Option<&str>, column: &str) -> JobSpec {
    JobSpec {
        dataset: "cora".to_string(),
        attack: attack.map(str::to_string),
        defense: Some(column.to_string()),
        eval: EvalSpec {
            runs: 1,
            scale: SCALE,
            rate: RATE,
            ..EvalSpec::default()
        },
        seed,
        ..JobSpec::default()
    }
}

fn job(spec: JobSpec) -> Job {
    Job::new(spec).expect("benchmark job specs name registered attackers and defenders")
}

fn load(scale: f64, seed: u64) -> Graph {
    load_dataset("cora", scale, seed).expect("cora is a built-in dataset")
}

/// The clean GCN cell of `seed` — what a `serve` cold spec computes.
fn clean_cell(ctx: &ExecContext, seed: u64) -> CellResult {
    job(spec(seed, None, "GCN")).run(ctx)
}

/// One `attack` cell: poison with `attacker`, then train and test GCN.
fn attack_cell(ctx: &ExecContext, seed: u64, attacker: &str, incremental: bool) -> CellResult {
    let job = job(spec(seed, Some(attacker), "GCN"));
    incr::set_enabled(incremental);
    let r = job.run(ctx);
    incr::set_enabled(false);
    r
}

/// One `defend` cell: train and test `column` on the shared poisoned graph.
fn defend_cell(ctx: &ExecContext, seed: u64, column: &str, poisoned: &Graph) -> CellResult {
    job(spec(seed, Some("PEEGA"), column)).run_with_graph(ctx, Some(poisoned))
}

fn peega(g: &Graph) -> AttackResult {
    attacker_by_name("PEEGA", RATE)
        .expect("PEEGA is registered")
        .build()
        .attack(g)
}

/// Runs `f`, returning its result and wall seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: note.into(),
    }
}

/// The end-to-end metrics every workload reports.
fn e2e(setups: &[f64], passes: &[f64], rss_mb: f64) -> Vec<Metric> {
    let listed = |xs: &[f64]| {
        let all: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
        format!("median of [{}]", all.join(", "))
    };
    let pass_note = if passes.len() <= 12 {
        listed(passes)
    } else {
        format!("median of {}", passes.len())
    };
    vec![
        metric("setup_s", median(setups), "s", listed(setups)),
        metric("pass_s", median(passes), "s", pass_note),
        metric("peak_rss_mb", rss_mb, "MiB", "VmHWM"),
    ]
}

/// A latency in ms: the median, or with `p` its nearest-rank percentile,
/// flagged when fewer than ten samples lie beyond it.
fn latency(name: &str, ms: &[f64], p: Option<f64>, what: &str) -> Metric {
    let (value, note) = match p {
        None => (median(ms), format!("{what}, median of {}", ms.len())),
        Some(p) => match tail(ms, p) {
            Some(v) => (
                v,
                format!("{what}, nearest-rank p{} of {}", p * 100.0, ms.len()),
            ),
            None => (
                percentile(ms, p),
                format!(
                    "{what}, nearest-rank p{} of {}; fewer than ten samples lie beyond it",
                    p * 100.0,
                    ms.len()
                ),
            ),
        },
    };
    metric(name, value, "ms", note)
}

/// `VmHWM` of process `pid` (`self` for this one), in MiB.
fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn print_metric(m: &Metric) {
    println!(
        "{:<28} {:>20} {:<8} {}",
        m.name,
        json_number(m.value),
        m.unit,
        m.note
    );
}

fn report(metrics: &[Metric], tally: &Tally) {
    metrics.iter().for_each(print_metric);
    let ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<28} {:>20} {:<8} {} failed of {} attempted",
        "fail_ratio", ratio, "ratio", tally.failed, tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

// ---------------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------------

/// Runs the untimed warm-up pass 0 — the first pass in a process runs
/// about a tenth slower while the allocator grows — then timed passes
/// 1, 2, … until `seconds` would be exceeded, at least `MIN_PASSES`.
fn passes(seconds: f64, mut pass: impl FnMut(usize)) -> Vec<f64> {
    pass(0);
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_PASSES || start.elapsed().as_secs_f64() + median(&times) <= seconds {
        let p = times.len() + 1;
        times.push(timed(|| pass(p)).1);
    }
    times
}

/// Set-up of `attack`: generate the first graph and evaluate its clean
/// cell, which also warms the allocator and the code paths.
fn attack_setup(ctx: &ExecContext, seed: u64, tally: &mut Tally) {
    let clean = clean_cell(ctx, seed);
    tally.cell(
        &format!("clean/{seed}"),
        &clean,
        reference("clean", seed, "GCN"),
    );
}

/// Set-up of `defend`: the shared graph, poisoned once by PEEGA.
fn defend_graph() -> Graph {
    peega(&load(SCALE, DEFEND_GRAPH)).poisoned
}

fn attack_pass(ctx: &ExecContext, seed: u64, tally: &mut Tally) -> Vec<String> {
    ATTACK_CELLS
        .iter()
        .map(|&(name, attacker, incremental)| {
            let r = attack_cell(ctx, seed, attacker, incremental);
            tally.cell(
                &format!("attack/{seed}/{name}"),
                &r,
                reference("attack", seed, attacker),
            );
            r.value
        })
        .collect()
}

fn defend_pass(ctx: &ExecContext, seed: u64, poisoned: &Graph, tally: &mut Tally) -> Vec<String> {
    DEFEND_CELLS
        .iter()
        .map(|&(name, column)| {
            let r = defend_cell(ctx, seed, column, poisoned);
            tally.cell(
                &format!("defend/{seed}/{name}"),
                &r,
                reference("defend", seed, column),
            );
            r.value
        })
        .collect()
}

fn attack_workload(o: &Opts, ctx: &ExecContext, tally: &mut Tally) -> Vec<Metric> {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| timed(|| attack_setup(ctx, attack_seed(o.seed, 0), tally)).1)
        .collect();
    let times = passes(o.seconds, |p| {
        attack_pass(ctx, attack_seed(o.seed, p), tally);
    });
    e2e(&setups, &times, peak_rss_mb("self"))
}

fn defend_workload(o: &Opts, ctx: &ExecContext, tally: &mut Tally) -> Vec<Metric> {
    let mut poisoned: Vec<Graph> = Vec::new();
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let (g, secs) = timed(defend_graph);
            poisoned.push(g);
            secs
        })
        .collect();
    let hashes: Vec<u64> = poisoned.iter().map(Graph::content_hash).collect();
    tally.check(
        "defend/setup",
        hashes.iter().all(|&h| h == hashes[0]),
        || "PEEGA poisoned the same graph differently".to_string(),
    );
    let times = passes(o.seconds, |p| {
        defend_pass(ctx, defend_seed(o.seed, p), &poisoned[0], tally);
    });
    e2e(&setups, &times, peak_rss_mb("self"))
}

// ---------------------------------------------------------------------------
// The serve workload
// ---------------------------------------------------------------------------

/// A `bbgnn-serve` child process: `--workers 2 --queue 8` on a fresh store.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    store: PathBuf,
    /// Held open so the server's exit line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    fn start(bin: &Path, store: PathBuf, threads: usize) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--queue",
                "8",
                "--store",
            ])
            .arg(&store)
            .env("BBGNN_THREADS", threads.to_string())
            .env_remove("BBGNN_TRACE")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        match listening_addr(&mut stdout) {
            Ok(addr) => Ok(ServerProc {
                child,
                addr,
                store,
                _stdout: stdout,
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// `POST /shutdown`, then waits for the process (killing it after 30 s).
    fn stop(mut self) -> Result<(), String> {
        let asked =
            Conn::open(self.addr).and_then(|mut c| c.request("POST", "/shutdown", "", true));
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return asked.map(|_| ()).map_err(|e| format!("shutdown: {e}"));
            }
            // lint: allow(clock) reason=waits for a child server process to exit, not experiment code
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("bbgnn-serve did not drain within 30 s".to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The address the server prints once it listens (`--addr` port 0).
fn listening_addr(stdout: &mut impl BufRead) -> Result<SocketAddr, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("bbgnn-serve exited before listening".to_string());
        }
        if let Some(addr) = line.trim().strip_prefix("bbgnn-serve listening on http://") {
            return addr
                .parse()
                .map_err(|e| format!("bad address {addr:?}: {e}"));
        }
    }
}

/// Client-side samples of one load loop.
#[derive(Default)]
struct LoadLog {
    iterations_s: Vec<f64>,
    cold: Vec<Turnaround>,
    warm: Vec<Turnaround>,
    post_ms: Vec<f64>,
    get_ms: Vec<f64>,
    warm_sent: usize,
    warm_hits: usize,
}

impl LoadLog {
    fn merge(&mut self, o: LoadLog) {
        self.iterations_s.extend(o.iterations_s);
        self.cold.extend(o.cold);
        self.warm.extend(o.warm);
        self.post_ms.extend(o.post_ms);
        self.get_ms.extend(o.get_ms);
        self.warm_sent += o.warm_sent;
        self.warm_hits += o.warm_hits;
    }
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter()
        .try_fold(doc, |d, key| d.as_object().and_then(|m| m.get(*key)))
}

/// Submits the spec of `seed` and polls it to `done`, right after the POST
/// returns and then every 2 ms. Checks the served value; `Err` ends the
/// client (its connection is no longer usable).
fn serve_job(
    conn: &mut Conn,
    clock: Instant,
    seed: u64,
    warm: bool,
    log: &mut LoadLog,
    tally: &mut Tally,
) -> Result<(), String> {
    let what = format!("serve/{}/{seed}", if warm { "warm" } else { "cold" });
    let now = || clock.elapsed().as_secs_f64();
    let mut view = JobView {
        sent: now(),
        polls: Vec::new(),
    };
    let (status, body) = conn
        .request("POST", "/jobs", &serve_body(seed), false)
        .map_err(|e| format!("{what}: POST: {e}"))?;
    log.post_ms.push((now() - view.sent) * 1e3);
    let doc = Json::parse(&body).map_err(|e| format!("{what}: POST body: {e}"))?;
    let id = match (status, field(&doc, &["id"]).and_then(Json::as_u64)) {
        (200, Some(id)) => id,
        _ => return Err(format!("{what}: POST answered {status}: {body}")),
    };
    let doc = loop {
        let asked = now();
        let (status, body) = conn
            .request("GET", &format!("/jobs/{id}"), "", false)
            .map_err(|e| format!("{what}: GET: {e}"))?;
        let answered = now();
        log.get_ms.push((answered - asked) * 1e3);
        let doc = Json::parse(&body).map_err(|e| format!("{what}: GET body: {e}"))?;
        let state = field(&doc, &["state"])
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        if status != 200 || state == "cancelled" {
            return Err(format!("{what}: GET answered {status}: {body}"));
        }
        view.polls.push((answered, state.clone()));
        if state == "done" {
            break doc;
        }
        // lint: allow(clock) reason=the load generator's 2 ms poll interval against a live server, not experiment code
        std::thread::sleep(Duration::from_millis(2));
    };
    let text = |key: &str| {
        field(&doc, &["result", key])
            .and_then(Json::as_str)
            .unwrap_or("")
    };
    if text("outcome") != "ok" {
        tally.check(&what, false, || format!("outcome {:?}", text("outcome")));
    } else {
        tally.value(&what, text("value"), reference("clean", seed, "GCN"));
    }
    let turnaround = view.turnaround().expect("the loop ends on a done snapshot");
    if warm {
        log.warm_sent += 1;
        log.warm_hits += usize::from(matches!(
            field(&doc, &["result", "warm"]),
            Some(Json::Bool(true))
        ));
        log.warm.push(turnaround);
    } else {
        log.cold.push(turnaround);
    }
    Ok(())
}

/// Starts a server on a fresh store and completes the four warm specs.
fn serve_setup(
    o: &Opts,
    plan: &ServePlan,
    k: usize,
    tally: &mut Tally,
) -> Result<ServerProc, String> {
    let server = ServerProc::start(
        &o.server()?,
        o.work_dir.join(format!("store-{k}")),
        o.threads,
    )?;
    let mut conn = Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = LoadLog::default();
    for w in 0..WARM_SPECS as usize {
        serve_job(
            &mut conn,
            Instant::now(),
            plan.warm(w),
            false,
            &mut log,
            tally,
        )?;
    }
    Ok(server)
}

/// The closed loop: `CLIENTS` threads, each on one keep-alive connection,
/// alternating a fresh cold spec with a warm one, until `seconds` have
/// passed and at least `min_cold` cold jobs are done.
fn load_loop(
    addr: SocketAddr,
    plan: &ServePlan,
    seconds: f64,
    min_cold: usize,
    tally: &mut Tally,
) -> LoadLog {
    let next_cold = AtomicUsize::new(0);
    let cold_done = AtomicUsize::new(0);
    let clock = Instant::now();
    let parts: Vec<(LoadLog, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (next_cold, cold_done) = (&next_cold, &cold_done);
                s.spawn(move || {
                    let mut log = LoadLog::default();
                    let mut tally = Tally::default();
                    let mut conn = match Conn::open(addr) {
                        Ok(conn) => conn,
                        Err(e) => {
                            tally.check("serve/connect", false, || e.to_string());
                            return (log, tally);
                        }
                    };
                    for i in 0.. {
                        let start = clock.elapsed().as_secs_f64();
                        let enough =
                            start >= seconds && cold_done.load(Ordering::SeqCst) >= min_cold;
                        if enough || start >= SERVE_CAP_S {
                            break;
                        }
                        let Some(cold) = plan.cold(next_cold.fetch_add(1, Ordering::SeqCst)) else {
                            break;
                        };
                        let warm = plan.warm(CLIENTS * i + c);
                        let done = serve_job(&mut conn, clock, cold, false, &mut log, &mut tally)
                            .and_then(|()| {
                                cold_done.fetch_add(1, Ordering::SeqCst);
                                serve_job(&mut conn, clock, warm, true, &mut log, &mut tally)
                            });
                        if let Err(e) = done {
                            tally.check("serve/client", false, || e);
                            break;
                        }
                        log.iterations_s.push(clock.elapsed().as_secs_f64() - start);
                    }
                    (log, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let mut log = LoadLog::default();
    for (part, t) in parts {
        log.merge(part);
        tally.merge(t);
    }
    log
}

fn serve_workload(o: &Opts, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let plan = ServePlan::new(o.seed);
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        if let Some(previous) = server.take() {
            ServerProc::stop(previous)?;
        }
        let (s, secs) = timed(|| serve_setup(o, &plan, k, tally));
        setups.push(secs);
        server = Some(s?);
    }
    let server = server.expect("SETUPS > 0");
    let log = load_loop(server.addr, &plan, o.seconds, MIN_COLD, tally);
    let rss = server.peak_rss_mb();
    server.stop()?;
    // Beside the gated metrics, the turnarounds a client sees (README).
    for m in serve_latencies(&log) {
        print_metric(&m);
    }
    Ok(e2e(&setups, &log.iterations_s, rss))
}

/// Cold- and warm-job turnarounds and poll latency of one load loop.
fn serve_latencies(log: &LoadLog) -> Vec<Metric> {
    let cold_ms: Vec<f64> = log.cold.iter().map(|t| t.total_ms).collect();
    let warm_ms: Vec<f64> = log.warm.iter().map(|t| t.total_ms).collect();
    vec![
        latency("serve.job_p50_ms", &cold_ms, None, "cold turnaround"),
        latency("serve.job_p90_ms", &cold_ms, Some(0.9), "cold turnaround"),
        latency("serve.warm_p50_ms", &warm_ms, None, "warm turnaround"),
        latency("serve.poll_p50_ms", &log.get_ms, None, "GET /jobs/:id"),
    ]
}

// ---------------------------------------------------------------------------
// The traced run: per-layer attribution
// ---------------------------------------------------------------------------

/// What the traced passes computed, beside the trace itself.
#[derive(Default)]
struct TracedOut {
    /// Cell values, in the order of the untraced passes.
    values: Vec<String>,
    /// Edge + feature flips per attack cell.
    flips: BTreeMap<&'static str, usize>,
    /// Training reports of the passes' fits, by span cell.
    reports: Vec<(String, TrainReport)>,
    /// Node count per scale.
    nodes: BTreeMap<String, usize>,
}

fn span(name: &'static str, cell: &str, scale: f64) -> bbgnn::obs::Span {
    bbgnn::obs::span!(name, cell = cell, scale = format!("{scale}"))
}

/// Load, then attack, each call in its own benchmark span.
fn traced_attack(
    seed: u64,
    scale: f64,
    cell: &str,
    attacker: &str,
    nodes: &mut BTreeMap<String, usize>,
) -> AttackResult {
    let g = {
        let _s = span("e2e/load", cell, scale);
        load(scale, seed)
    };
    nodes.insert(format!("{scale}"), g.num_nodes());
    let _s = span("e2e/attack", cell, scale);
    attacker_by_name(attacker, RATE)
        .expect("registered attacker")
        .build()
        .attack(&g)
}

/// Fit, then test, one model column, each call in its own benchmark span:
/// with [`traced_attack`], the work of one `Job::run` accuracy cell.
fn traced_fit(seed: u64, scale: f64, cell: &str, column: &str, g: &Graph) -> (String, TrainReport) {
    let kind = defender_by_name(column, false).expect("registered defender");
    let train = TrainConfig {
        seed,
        ..TrainConfig::default()
    };
    let mut model = kind.build(train);
    let report = {
        let _s = span("e2e/fit", cell, scale);
        model.fit(g)
    };
    let acc = {
        let _s = span("e2e/eval", cell, scale);
        model.test_accuracy(g)
    };
    (MeanStd::of(&[acc]).to_string(), report)
}

/// Median seconds per call of `f` over `reps` calls.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&times)
}

fn traced_workload(o: &Opts, ctx: &ExecContext, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let seed = attack_seed(o.seed, 0);
    let train_seed = defend_seed(o.seed, 0);
    attack_setup(ctx, seed, tally);

    // Untraced reference passes, after a warm-up pass.
    attack_pass(ctx, seed, tally);
    let (untraced_attack, ua_s) = timed(|| attack_pass(ctx, seed, tally));
    let poisoned = defend_graph();
    let (untraced_defend, ud_s) = timed(|| defend_pass(ctx, train_seed, &poisoned, tally));

    // The same passes traced, then the smaller scales of the exponent fits.
    let trace_path = o.work_dir.join("trace.jsonl");
    bbgnn::obs::init_to_path(&trace_path.to_string_lossy()).map_err(|e| format!("trace: {e}"))?;
    let mut out = TracedOut::default();
    let (_, ta_s) = timed(|| {
        for &(name, attacker, incremental) in &ATTACK_CELLS {
            incr::set_enabled(incremental);
            let r = traced_attack(seed, SCALE, name, attacker, &mut out.nodes);
            incr::set_enabled(false);
            let cell = format!("{name}/gcn");
            let (value, report) = traced_fit(seed, SCALE, &cell, "GCN", &r.poisoned);
            out.values.push(value);
            out.reports.push((cell, report));
            out.flips.insert(name, r.edge_flips + r.feature_flips);
        }
    });
    let (_, td_s) = timed(|| {
        for &(name, column) in &DEFEND_CELLS {
            let (value, report) = traced_fit(train_seed, SCALE, name, column, &poisoned);
            out.values.push(value);
            out.reports.push((name.to_string(), report));
        }
    });
    for scale in SWEEP_SCALES {
        for &(name, attacker, _) in ATTACK_CELLS.iter().filter(|c| EXP_ATTACKS.contains(&c.0)) {
            traced_attack(seed, scale, name, attacker, &mut out.nodes);
        }
        let g = peega(&load(scale, DEFEND_GRAPH)).poisoned;
        for &(name, column) in DEFEND_CELLS.iter().filter(|c| EXP_FITS.contains(&c.0)) {
            traced_fit(train_seed, scale, name, column, &g);
        }
    }
    bbgnn::obs::shutdown();

    // Tracing only observes: the traced passes must reproduce every value.
    let untraced: Vec<String> = untraced_attack.into_iter().chain(untraced_defend).collect();
    for (i, (got, want)) in out.values.iter().zip(&untraced).enumerate() {
        tally.value(&format!("traced/{i}"), got, Some(want));
    }
    tally.value(
        "traced/metattack_incr_flips",
        &out.flips["metattack_incr"].to_string(),
        Some(&out.flips["metattack"].to_string()),
    );

    let text = std::fs::read_to_string(&trace_path).map_err(|e| format!("trace: {e}"))?;
    let segs = fold::segments(&text, "e2e/")?;
    let mut metrics = layer_metrics(&segs, &out, o.threads);
    metrics.push(metric(
        "obs.trace_overhead",
        (ta_s + td_s) / (ua_s + ud_s) - 1.0,
        "ratio",
        format!(
            "traced {:.3} s vs untraced {:.3} s",
            ta_s + td_s,
            ua_s + ud_s
        ),
    ));
    metrics.extend(probe_metrics(o, ctx, &poisoned, tally)?);
    metrics.extend(serve_layer_metrics(o, tally)?);
    Ok(metrics)
}

/// Attack, defense, gnn, autodiff and linalg metrics folded from the trace.
fn layer_metrics(segs: &[Segment], out: &TracedOut, threads: usize) -> Vec<Metric> {
    let at = |name: &str, cell: &str, scale: f64| {
        segs.iter()
            .filter(|s| s.name == name && s.cell == cell && s.scale == format!("{scale}"))
            .map(|s| s.secs)
            .sum::<f64>()
    };
    let exponent = |name: &str, cell: &str| {
        let pts: Vec<(f64, f64)> = SWEEP_SCALES
            .iter()
            .chain([SCALE].iter())
            .map(|&s| (out.nodes[&format!("{s}")] as f64, at(name, cell, s)))
            .collect();
        power_law_exponent(&pts)
    };
    let mut m = Vec::new();
    for &(name, _, _) in &ATTACK_CELLS {
        m.push(metric(
            format!("attack.{name}_s"),
            at("e2e/attack", name, SCALE),
            "s",
            "Attacker::attack",
        ));
    }
    for &(name, _, _) in &ATTACK_CELLS {
        m.push(metric(
            format!("attack.{name}_flips"),
            out.flips[name] as f64,
            "count",
            "edge + feature flips",
        ));
    }
    for name in EXP_ATTACKS {
        m.push(metric(
            format!("attack.{name}_exp"),
            exponent("e2e/attack", name),
            "1",
            "time ~ n^k, scales 0.06/0.09/0.12",
        ));
    }
    for &(name, _) in &DEFEND_CELLS {
        m.push(metric(
            format!("defense.{name}_fit_s"),
            at("e2e/fit", name, SCALE),
            "s",
            "NodeClassifier::fit",
        ));
    }
    for name in EXP_FITS {
        m.push(metric(
            format!("defense.{name}_exp"),
            exponent("e2e/fit", name),
            "1",
            "time ~ n^k, scales 0.06/0.09/0.12",
        ));
    }

    // The traced passes at the benchmark scale (not the sweeps).
    let scale = format!("{SCALE}");
    let pass: Vec<&Segment> = segs.iter().filter(|s| s.scale == scale).collect();
    let is_gcn = |cell: &str| cell == "gcn" || cell.ends_with("/gcn");
    let epochs: usize = out.reports.iter().map(|(_, r)| r.epochs_run).sum();
    let gcn_epochs: usize = out
        .reports
        .iter()
        .filter(|(c, _)| is_gcn(c))
        .map(|(_, r)| r.epochs_run)
        .sum();
    let gcn_s: f64 = pass
        .iter()
        .filter(|s| s.name == "e2e/fit" && is_gcn(&s.cell))
        .map(|s| s.secs)
        .sum();
    m.push(metric(
        "gnn.epochs",
        epochs as f64,
        "count",
        "sum of TrainReport::epochs_run over both passes",
    ));
    m.push(metric(
        "gnn.epoch_ms",
        gcn_s * 1e3 / gcn_epochs.max(1) as f64,
        "ms",
        "GCN fit time / epochs",
    ));
    let eval_s: f64 = pass
        .iter()
        .filter(|s| s.name == "e2e/eval")
        .map(|s| s.secs)
        .sum();
    m.push(metric(
        "gnn.eval_s",
        eval_s,
        "s",
        "test_accuracy, both passes",
    ));
    let defend_fits: Vec<&Segment> = pass
        .iter()
        .copied()
        .filter(|s| s.name == "e2e/fit" && DEFEND_CELLS.iter().any(|c| c.0 == s.cell))
        .collect();
    m.push(metric(
        "autodiff.overhead_share",
        fold::overhead_share(defend_fits.iter().copied()),
        "ratio",
        "1 - kernel time / fit time, defend pass",
    ));
    let kernels = fold::kernel_totals(pass.iter().copied());
    let k = |name: &str| kernels.get(name).copied().unwrap_or((0, 0));
    for name in ["matmul", "matmul_tn", "matmul_nt", "spmm", "spmm_t"] {
        let (_, ns) = k(&format!("kernel/{name}"));
        m.push(metric(
            format!("linalg.{name}_s"),
            ns as f64 / 1e9,
            "s",
            "kernel timer, both passes",
        ));
    }
    for name in ["matmul", "matmul_tn", "matmul_nt", "spmm", "spmm_t"] {
        let (calls, _) = k(&format!("kernel/{name}"));
        m.push(metric(
            format!("linalg.{name}_calls"),
            calls as f64,
            "count",
            "kernel timer, both passes",
        ));
    }
    m.push(metric(
        "linalg.pool_idle_share",
        fold::pool_idle_share(&kernels, threads),
        "ratio",
        format!("1 - worker_busy / ({threads} x region)"),
    ));
    m.push(metric(
        "linalg.incr_update_s",
        k("incr/update").1 as f64 / 1e9,
        "s",
        "incr/update timer",
    ));
    m.push(metric(
        "linalg.incr_rows",
        fold::counter_total(pass.iter().copied(), "incr/rows_touched") as f64,
        "count",
        "incr/rows_touched counter",
    ));
    m
}

/// Untraced micro-probes: kernel throughput, dataset load, spec parsing
/// and the store's record path.
fn probe_metrics(
    o: &Opts,
    ctx: &ExecContext,
    g: &Graph,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let a = g.normalized_adjacency();
    let x = &g.features;
    let (n, d) = (g.num_nodes() as f64, x.cols() as f64);
    let spmm_s = per_call(300, || ctx.recycle(std::hint::black_box(ctx.spmm(&a, x))));
    let dense = a.to_dense();
    let matmul_s = per_call(30, || {
        ctx.recycle(std::hint::black_box(ctx.matmul(&dense, x)))
    });
    let seed = attack_seed(o.seed, 0);
    let load_s = per_call(30, || drop(std::hint::black_box(load(SCALE, seed))));
    let plan = ServePlan::new(o.seed);
    let bodies: Vec<String> = (0..50)
        .filter_map(|k| plan.cold(k))
        .map(serve_body)
        .collect();
    let parse_s = per_call(400, || {
        for b in &bodies {
            std::hint::black_box(JobSpec::parse(b).expect("benchmark bodies parse"));
        }
    }) / bodies.len() as f64;

    let store = o.work_dir.join("store-probe");
    bbgnn::store::init_to_path(&store.to_string_lossy())?;
    let record = JobRecord {
        value: "85.29±0.00".to_string(),
        outcome: "ok".to_string(),
        attempts: 1,
        artifacts: Vec::new(),
    };
    let keys: Vec<_> = (1..=200)
        .map(|s| {
            JobRecord::key_for(&JobSpec::parse(&serve_body(s)).expect("benchmark bodies parse"))
        })
        .collect();
    let publish_ms: Vec<f64> = keys
        .iter()
        .map(|key| timed(|| bbgnn::store::publish(key, &record)).1 * 1e3)
        .collect();
    let mut lookup_ms = Vec::new();
    for key in &keys {
        let (got, secs) = timed(|| bbgnn::store::lookup::<JobRecord>(key));
        lookup_ms.push(secs * 1e3);
        tally.check("store/probe", got.as_ref() == Some(&record), || {
            "a published record did not read back".to_string()
        });
    }
    bbgnn::store::shutdown();

    Ok(vec![
        metric(
            "linalg.spmm_gflops",
            2.0 * a.nnz() as f64 * d / spmm_s / 1e9,
            "GFLOP/s",
            "ExecContext::spmm, A_n x X",
        ),
        metric(
            "linalg.matmul_gflops",
            2.0 * n * n * d / matmul_s / 1e9,
            "GFLOP/s",
            "ExecContext::matmul, dense A_n x X",
        ),
        metric("scenario.load_s", load_s, "s", "load_dataset, median of 30"),
        metric(
            "scenario.parse_us",
            parse_s * 1e6,
            "us",
            "JobSpec::parse of serve bodies",
        ),
        metric(
            "store.lookup_ms",
            median(&lookup_ms),
            "ms",
            "bbgnn_store::lookup of a JobRecord, median of 200",
        ),
        metric(
            "store.publish_ms",
            median(&publish_ms),
            "ms",
            "bbgnn_store::publish of a JobRecord, median of 200",
        ),
    ])
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A shorter `serve` load loop, then the health-check probes.
fn serve_layer_metrics(o: &Opts, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let plan = ServePlan::new(o.seed);
    let server = serve_setup(o, &plan, 0, tally)?;
    let before = dir_bytes(&server.store);
    let log = load_loop(server.addr, &plan, o.seconds / 2.0, 20, tally);
    let bytes_per_job = (dir_bytes(&server.store) - before) as f64 / log.cold.len().max(1) as f64;
    let mut keep_alive = Conn::open(server.addr).map_err(|e| format!("connect: {e}"))?;
    let mut health = Vec::new();
    for i in 0..21 {
        let (r, secs) = timed(|| keep_alive.request("GET", "/health", "", false));
        r.map_err(|e| format!("health: {e}"))?;
        if i > 0 {
            health.push(secs * 1e3);
        }
    }
    drop(keep_alive);
    let mut health_close = Vec::new();
    for _ in 0..20 {
        let (r, secs) = timed(|| {
            Conn::open(server.addr).and_then(|mut c| c.request("GET", "/health", "", true))
        });
        r.map_err(|e| format!("health: {e}"))?;
        health_close.push(secs * 1e3);
    }
    server.stop()?;

    let queue_ms: Vec<f64> = log.cold.iter().map(|t| t.queue_wait_ms).collect();
    let run_ms: Vec<f64> = log.cold.iter().filter_map(|t| t.run_ms).collect();
    let mut m = vec![
        metric(
            "store.hit_ratio",
            log.warm_hits as f64 / log.warm_sent.max(1) as f64,
            "ratio",
            format!("of {} warm submissions", log.warm_sent),
        ),
        metric(
            "store.bytes_per_job",
            bytes_per_job,
            "B",
            format!("store growth over {} cold jobs", log.cold.len()),
        ),
    ];
    m.extend(serve_latencies(&log));
    m.extend([
        latency("serve.post_ms", &log.post_ms, None, "POST /jobs"),
        latency("serve.get_p99_ms", &log.get_ms, Some(0.99), "GET /jobs/:id"),
        latency(
            "serve.queue_wait_ms",
            &queue_ms,
            None,
            "POST -> first non-queued snapshot",
        ),
        latency(
            "serve.run_ms",
            &run_ms,
            None,
            "first running -> done snapshot",
        ),
        latency(
            "serve.health_ms",
            &health,
            None,
            "GET /health on a keep-alive socket",
        ),
        latency(
            "serve.health_close_ms",
            &health_close,
            None,
            "GET /health on a fresh Connection: close socket",
        ),
    ]);
    Ok(m)
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
    work_dir: PathBuf,
    threads: usize,
}

impl Opts {
    fn server(&self) -> Result<PathBuf, String> {
        self.server
            .clone()
            .ok_or_else(|| "--server is required".to_string())
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.clone());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .cloned()
            .ok_or_else(|| format!("{k} is required"))
    };
    let workload = get("--workload")?;
    if !matches!(workload.as_str(), "attack" | "defend" | "serve") {
        return Err(format!(
            "unknown workload {workload:?}; use attack|defend|serve"
        ));
    }
    Ok(Opts {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
        },
        server: flags.get("--server").map(PathBuf::from),
        work_dir: PathBuf::from(get("--work-dir")?),
        threads: bbgnn::linalg::kernels::env_threads(),
    })
}

fn host_block(nproc: usize, threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let commit = std::env::var("E2E_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    Json::object([
        ("nproc".to_string(), Json::number_usize(nproc)),
        ("cpu".to_string(), Json::string(cpu)),
        ("avx2".to_string(), Json::Bool(avx2)),
        ("threads".to_string(), Json::number_usize(threads)),
        ("commit".to_string(), Json::string(commit)),
    ])
    .to_compact()
}

/// `record TABLE FIRST COUNT`: prints `seed<TAB>column<TAB>value` lines.
fn record(args: &[String], ctx: &ExecContext) -> Result<(), String> {
    let [table, first, count] = args else {
        return Err("usage: e2e_bench record clean|attack|defend FIRST COUNT".to_string());
    };
    let first: u64 = first.parse().map_err(|e| format!("FIRST: {e}"))?;
    let count: u64 = count.parse().map_err(|e| format!("COUNT: {e}"))?;
    let emit = |seed: u64, column: &str, r: CellResult| -> Result<(), String> {
        if r.outcome != CellOutcome::Ok {
            return Err(format!(
                "seed {seed} {column}: outcome {}",
                r.outcome.as_str()
            ));
        }
        println!("{seed}\t{column}\t{}", r.value);
        Ok(())
    };
    let mut shared = None;
    for seed in first..first + count {
        match table.as_str() {
            "clean" => emit(seed, "GCN", clean_cell(ctx, seed))?,
            "attack" => {
                for attacker in ["PEEGA", "Metattack", "PGD", "MinMax"] {
                    emit(seed, attacker, attack_cell(ctx, seed, attacker, false))?;
                }
            }
            "defend" => {
                let poisoned = shared.get_or_insert_with(defend_graph);
                for (_, column) in DEFEND_CELLS {
                    emit(seed, column, defend_cell(ctx, seed, column, poisoned))?;
                }
            }
            other => return Err(format!("unknown table {other:?}")),
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = bbgnn::linalg::kernels::env_threads();
    if threads > nproc {
        eprintln!("error: refusing {threads} kernel threads on {nproc} cores; thread rows above nproc measure nothing");
        std::process::exit(2);
    }
    let ctx = ExecContext::new(threads);
    if args.first().map(String::as_str) == Some("record") {
        if let Err(e) = record(&args[1..], &ctx) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        return;
    }
    let o = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    println!("host: {}", host_block(nproc, threads));
    println!(
        "workload: {} seed {} ({} s, {})",
        o.workload,
        o.seed,
        o.seconds,
        if o.trace { "traced" } else { "untraced" }
    );
    let mut tally = Tally::default();
    let metrics = match (o.workload.as_str(), o.trace) {
        (_, true) => traced_workload(&o, &ctx, &mut tally),
        ("attack", false) => Ok(attack_workload(&o, &ctx, &mut tally)),
        ("defend", false) => Ok(defend_workload(&o, &ctx, &mut tally)),
        _ => serve_workload(&o, &mut tally),
    };
    match metrics {
        Ok(metrics) => {
            report(&metrics, &tally);
            std::process::exit(i32::from(tally.failed > 0));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
