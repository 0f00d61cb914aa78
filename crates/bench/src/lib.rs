//! Experiment harness for the paper reproduction.
//!
//! Every table and figure of the evaluation section has a dedicated binary
//! in `src/bin/` (see `DESIGN.md` §2 for the full index). The harness
//! provides the shared pieces:
//!
//! * [`cli`] — the shared infrastructure flag parser (`--threads --trace
//!   --store --deadline --budget --faults --incremental`), the one reader
//!   of their `BBGNN_*` variables, and the one init-time side-effect
//!   sequence every entry point runs;
//! * [`config::ExpConfig`] — scale / runs / rate / seed plus the infra
//!   flags it holds, from CLI flags or `BBGNN_*` environment variables
//!   (malformed input surfaces as
//!   [`InvalidConfig`](bbgnn_errors::BbgnnError::InvalidConfig) naming the
//!   offending flag), and the `JobSpec` of each job-based table cell;
//! * [`fault`] — the checkpointing cell runner: closure cells and
//!   [`bbgnn_scenario::job::Job`] cells both run through the scenario
//!   layer's one cell boundary ([`bbgnn_scenario::job::run_cell`]), with
//!   ok/retried/degraded/failed outcome accounting on top;
//! * [`checkpoint`] — crash-safe `results/*.checkpoint.json` cell stores so
//!   a killed sweep resumes byte-identically;
//! * [`report`] — fixed-width table printing plus CSV/JSON dumps under
//!   `results/`;
//! * [`compare`] — the CI perf gate: compares a fresh `BENCH_kernels.json`
//!   against the committed baseline on naive-relative median speedups.
//!
//! All binaries print the same rows/series the paper reports and write a
//! machine-readable copy next to them.

#![deny(missing_docs)]
// The harness is the fault boundary for every experiment: it must report
// and checkpoint failures, never crash on them (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod cli;
pub mod compare;
pub mod config;
pub mod fault;
pub mod report;
pub mod trace;
