//! `bbgnn-serve` — attack/defense evaluation as a service.
//!
//! ```text
//! bbgnn-serve [--addr HOST:PORT] [--queue N] [--workers N] [infra flags]
//!   --addr     bind address (default 127.0.0.1:8787; port 0 = pick free)
//!   --queue    pending-job admission bound (default 16)
//!   --workers  concurrent job runners (default 1); they split the cores:
//!              a job's kernels run at its spec's `threads` capped at the
//!              process thread count (--threads), or for `threads: 0` at
//!              that count divided by --workers, at least 1
//!   plus the shared infra flags: --threads --trace --store --deadline
//!   --budget --faults (see bbgnn_bench::cli::InfraFlags)
//! ```
//!
//! The actual bound address is printed on startup (load-bearing with
//! `--addr 127.0.0.1:0`: tests and scripts parse it). The server drains
//! on `POST /shutdown` or SIGINT/SIGTERM and exits once in-flight jobs
//! have wound down.

use bbgnn_bench::cli::{extract_flag, parse_value, process_env, InfraFlags};
use bbgnn_serve::Server;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!(
            "usage: bbgnn-serve --addr HOST:PORT --queue N --workers N {}",
            InfraFlags::USAGE
        );
        return;
    }
    let parsed = extract_flag(&args, "--addr").and_then(|(addr, rest)| {
        extract_flag(&rest, "--queue").and_then(|(queue, rest)| {
            extract_flag(&rest, "--workers").map(|(workers, rest)| (addr, queue, workers, rest))
        })
    });
    let (addr, queue, workers, rest) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let addr = addr.unwrap_or_else(|| "127.0.0.1:8787".to_string());
    let capacity: usize = match queue {
        None => 16,
        Some(q) => match parse_value(Some(&q), "--queue", "an integer ≥ 1") {
            Ok(0) | Err(_) => {
                eprintln!("error: --queue expects an integer ≥ 1, got {q:?}");
                std::process::exit(2);
            }
            Ok(n) => n,
        },
    };
    let workers: usize = match workers {
        None => 1,
        Some(w) => match parse_value(Some(&w), "--workers", "an integer ≥ 1") {
            Ok(0) | Err(_) => {
                eprintln!("error: --workers expects an integer ≥ 1, got {w:?}");
                std::process::exit(2);
            }
            Ok(n) => n,
        },
    };
    // The shared infra flags (threads/trace/store/supervision/signals) —
    // same parser, same init order as every bench binary.
    let mut infra = match InfraFlags::from_env(process_env) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut i = 0;
    while i < rest.len() {
        let value = rest.get(i + 1).map(String::as_str);
        match infra.consume(&rest[i], value) {
            Ok(0) => {
                eprintln!("error: unknown flag {:?} (try --help)", rest[i]);
                std::process::exit(2);
            }
            Ok(consumed) => i += consumed,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    infra.init();

    let server = match Server::start(&addr, capacity, workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bind {addr}: {e}");
            std::process::exit(2);
        }
    };
    println!("bbgnn-serve listening on http://{}", server.addr());
    println!("queue capacity: {capacity} pending jobs, {workers} worker(s)");
    server.wait();
    println!("bbgnn-serve: drained, exiting");
    bbgnn_obs::shutdown();
    bbgnn_store::shutdown();
}
