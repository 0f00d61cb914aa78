//! The arithmetic and the HTTP client of the end-to-end benchmark, kept
//! apart from the workloads in `main.rs` so they can be tested
//! without running a workload.
//!
//! * [`stats`] — medians, nearest-rank tails and power-law exponents;
//! * [`fold`] — splits a `bbgnn_obs` trace into the benchmark's own
//!   top-level spans and folds the program's kernel, pool and incremental
//!   timers inside each;
//! * [`client`] — a keep-alive HTTP/1.1 client for `bbgnn-serve` and the
//!   turnaround of one job from the snapshots a client saw.

pub mod client;
pub mod fold;
pub mod stats;
