//! Fig. 9 — GNAT hyper-parameter sensitivity (k_t, k_f, k_e) on the
//! Citeseer-like dataset poisoned by PEEGA at perturbation rate 0.1.
//!
//! Following the paper: the default setting is {k_t = 2, k_f = 15,
//! k_e = 10}; one parameter is swept while the others stay at default.
//! Each sweep reports the single-view variant and the full t+f+e variant.
//!
//! Reproduction target: accuracy first rises then falls in each sweep —
//! moderate augmentation connects same-label nodes, excessive
//! augmentation injects noise (k_t, k_f) or drowns out the neighborhood
//! (k_e).

use bbgnn::prelude::*;
use bbgnn_bench::{config::ExpConfig, report::Table};
use bbgnn_scenario::eval::evaluate_defender;

fn main() {
    let cfg = ExpConfig::from_args();
    println!("{}", cfg.banner("fig9_gnat_params"));
    let g = DatasetSpec::CiteseerLike.generate(cfg.scale, cfg.seed);
    let mut atk = Peega::new(PeegaConfig {
        rate: cfg.rate,
        ..Default::default()
    });
    let poisoned = atk.attack(&g).poisoned;
    println!("poisoned citeseer-like graph ready\n");

    let eval = |config: GnatConfig| -> MeanStd {
        evaluate_defender(&DefenderKind::Gnat(config), &poisoned, cfg.runs, cfg.seed)
    };

    // k_t sweep.
    let mut t_kt = Table::new(&["k_t", "GNAT-t", "GNAT-t+f+e"]);
    for &k_t in &[1usize, 2, 3] {
        let single = eval(GnatConfig {
            k_t,
            views: vec![View::Topology],
            ..Default::default()
        });
        let full = eval(GnatConfig {
            k_t,
            ..Default::default()
        });
        t_kt.push_row(vec![k_t.to_string(), single.to_string(), full.to_string()]);
        eprintln!("[k_t {k_t} done]");
    }
    t_kt.emit(&cfg.out_dir, "fig9_kt");

    // k_f sweep.
    let mut t_kf = Table::new(&["k_f", "GNAT-f", "GNAT-t+f+e"]);
    for &k_f in &[5usize, 10, 15, 20] {
        let single = eval(GnatConfig {
            k_f,
            views: vec![View::Feature],
            ..Default::default()
        });
        let full = eval(GnatConfig {
            k_f,
            ..Default::default()
        });
        t_kf.push_row(vec![k_f.to_string(), single.to_string(), full.to_string()]);
        eprintln!("[k_f {k_f} done]");
    }
    t_kf.emit(&cfg.out_dir, "fig9_kf");

    // k_e sweep.
    let mut t_ke = Table::new(&["k_e", "GNAT-e", "GNAT-t+f+e"]);
    for &k_e in &[1.0, 5.0, 10.0, 15.0, 20.0] {
        let single = eval(GnatConfig {
            k_e,
            views: vec![View::Ego],
            ..Default::default()
        });
        let full = eval(GnatConfig {
            k_e,
            ..Default::default()
        });
        t_ke.push_row(vec![format!("{k_e}"), single.to_string(), full.to_string()]);
        eprintln!("[k_e {k_e} done]");
    }
    t_ke.emit(&cfg.out_dir, "fig9_ke");
    if let Some(stop) = bbgnn_supervise::stop_summary() {
        println!("{stop}");
    }
    println!("\npaper: each sweep rises then falls; the default {{2, 15, 10}} is near-optimal.");
}
