//! Bit pin of Pro-GNN's exact nuclear-norm prox: the final training loss
//! of paper-default Pro-GNN fits on three PEEGA-poisoned cora-like graphs
//! has fixed bits. They were recorded with the cyclic-by-rows Jacobi sweep
//! the anti-diagonal wavefront replaced, so any change to the solver's pair
//! order, Gram-sum accumulation or rotation arithmetic that moves one bit
//! of the learned structure fails here. CI runs this under 1 and 4 kernel
//! threads.

use bbgnn_attack::peega::{Peega, PeegaConfig};
use bbgnn_attack::Attacker;
use bbgnn_defense::prognn::{ProGnn, ProGnnConfig};
use bbgnn_gnn::train::TrainConfig;
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::datasets::DatasetSpec;

/// `TrainReport::final_loss` bits after fitting the paper-default Pro-GNN
/// with training seed `seed` on cora-like graph `graph` at `scale`,
/// poisoned by PEEGA at rate 0.1.
fn final_loss_bits(scale: f64, graph: u64, seed: u64) -> u64 {
    let clean = DatasetSpec::CoraLike.generate(scale, graph);
    let poisoned = Peega::new(PeegaConfig {
        rate: 0.1,
        ..Default::default()
    })
    .attack(&clean)
    .poisoned;
    let mut prognn = ProGnn::new(ProGnnConfig {
        train: TrainConfig {
            seed,
            ..TrainConfig::default()
        },
        ..ProGnnConfig::default()
    });
    prognn.fit(&poisoned).final_loss.to_bits()
}

#[test]
fn prognn_final_loss_keeps_the_cyclic_jacobi_bits() {
    let pins = [
        (0.12, 7, 1, 0x3fdb_a6e7_5b01_2c3d_u64),
        (0.12, 3, 2, 0x3fcb_ea65_3288_233e),
        (0.06, 5, 1, 0x3fd3_f2f7_3a22_8e56),
    ];
    for (scale, graph, seed, want) in pins {
        let got = final_loss_bits(scale, graph, seed);
        assert_eq!(
            got,
            want,
            "scale {scale} graph {graph} seed {seed}: final loss bits {got:#018x} ({})",
            f64::from_bits(got)
        );
    }
}
