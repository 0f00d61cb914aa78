//! Table VII — wall-clock poison-graph generation time (seconds) of every
//! attacker on the three datasets at perturbation rate 0.1.
//!
//! Each cell is a scenario [`Job`] with an `attack_time` evaluation —
//! the same job `bbgnn-serve` runs for `"eval": {"kind": "attack_time"}`
//! submissions. Timings are machine-dependent, so this table is not
//! checkpointed (a re-run re-times).
//!
//! Reproduction targets: PEEGA is the fastest (or near-fastest) effective
//! attacker; GF-Attack and Metattack are the slowest; absolute numbers
//! differ from the paper's GPU testbed.

use bbgnn::prelude::*;
use bbgnn::scenario::dataset::paper_specs;
use bbgnn::scenario::job::{EvalKind, Job};
use bbgnn_bench::{config::ExpConfig, report::Table};

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("table7_attack_time"));

    let specs = match paper_specs(cfg.dataset.as_deref()) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut headers = vec!["Attacker".to_string()];
    headers.extend(specs.iter().map(|s| format!("{} (s)", s.name())));
    let mut table = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    let ctx = ExecContext::from_env();
    let graphs: Vec<Graph> = specs
        .iter()
        .map(|s| s.generate(cfg.scale, cfg.seed))
        .collect();
    for kind in AttackerKind::paper_rows(cfg.rate) {
        let mut cells = vec![kind.name().to_string()];
        for (spec, g) in specs.iter().zip(&graphs) {
            let job = Job::from_parts(
                format!("{}/{}", spec.name(), kind.name()),
                cfg.job_spec(spec.name(), EvalKind::AttackTime),
                Some(kind.clone()),
                DefenderKind::Gcn,
            );
            let res = job.run_with_graph(&ctx, Some(g));
            cells.push(res.value);
        }
        table.push_row(cells);
    }
    table.emit(&cfg.out_dir, "table7_attack_time");
    if let Some(stop) = bbgnn_supervise::stop_summary() {
        println!("{stop}");
    }
    println!("\npaper ordering: PEEGA < PGD < MinMax << Metattack, GF-Attack.");
}
