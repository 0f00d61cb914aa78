//! Table VIII — defender training time (seconds) on the clean graphs.
//!
//! Cells are scenario [`Job`]s with a `defense_time` evaluation, run
//! fault-isolated and checkpointed to
//! `results/table8_defense_time.checkpoint.json` (timings resume verbatim,
//! so a resumed table matches the interrupted run byte for byte).
//!
//! Reproduction targets: GCN is fastest; GNAT costs only a small constant
//! factor over GCN (one GCN per augmented view); Pro-GNN is slower than
//! everything else by an order of magnitude or more.

use bbgnn::prelude::*;
use bbgnn::scenario::dataset::paper_specs;
use bbgnn::scenario::job::{EvalKind, Job};
use bbgnn_bench::{config::ExpConfig, fault::FaultRunner, report::Table};

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("table8_defense_time"));
    let ctx = ExecContext::from_env();
    let mut harness = FaultRunner::new(&cfg, "table8_defense_time");

    let specs = match paper_specs(cfg.dataset.as_deref()) {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut headers = vec!["Model".to_string()];
    headers.extend(specs.iter().map(|s| format!("{} (s)", s.name())));
    let mut table = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());

    let graphs: Vec<(DatasetSpec, Graph)> = specs
        .iter()
        .map(|s| (s.clone(), s.generate(cfg.scale, cfg.seed)))
        .collect();

    // Union of all model names; a cell is filled with the dataset's own
    // registry column (GCN-Jaccard and GNAT's feature view skip Polblogs,
    // whose GNAT is the 1-hop topology view Table VI measures).
    let all_columns = DefenderKind::paper_columns(false);
    for kind in &all_columns {
        let mut cells = vec![kind.name()];
        for (spec, g) in &graphs {
            let column = DefenderKind::paper_columns(spec.identity_features())
                .into_iter()
                .find(|k| {
                    k.name() == kind.name()
                        || (kind.name() == "GNAT" && k.name().starts_with("GNAT"))
                });
            let Some(column) = column else {
                cells.push("-".to_string());
                continue;
            };
            let job = Job::from_parts(
                format!("{}/{}", spec.name(), kind.name()),
                cfg.job_spec(spec.name(), EvalKind::DefenseTime),
                None,
                column,
            );
            cells.push(harness.job(job, &ctx, Some(g)));
        }
        table.push_row(cells);
    }
    table.emit(&cfg.out_dir, "table8_defense_time");
    println!("\n{}", harness.summary());
    if let Some(stop) = bbgnn_supervise::stop_summary() {
        println!("{stop}");
    }
    println!("paper ordering: GCN < GNAT < GCN-Jaccard ≈ RGCN < GAT ≈ SimPGCN");
    println!("< GCN-SVD << Pro-GNN.");
}
