//! Bit pin of GAT's attention: the logits of GAT fits on three
//! PEEGA-poisoned cora-like graphs hash to fixed values. They were recorded
//! with the dense masked-attention chain the edge-sparse ops replaced, so
//! any change to the edge ops' summation order, zero signs or non-finite
//! handling that moves a trained weight by one bit fails here. CI runs this
//! under 1 and 4 kernel threads.

use bbgnn_gnn::gat::Gat;
use bbgnn_gnn::train::TrainConfig;
use bbgnn_gnn::NodeClassifier;
use bbgnn_scenario::dataset::load_dataset;
use bbgnn_scenario::registry::attacker_by_name;

/// `Gat::logits(..).content_hash()` after fitting the paper-default GAT
/// with training seed `seed` on cora-like graph `graph` at `scale`,
/// poisoned by PEEGA at rate 0.1.
fn logits_hash(scale: f64, graph: u64, seed: u64) -> u64 {
    let clean = load_dataset("cora", scale, graph).unwrap();
    let attacker = attacker_by_name("PEEGA", 0.1).unwrap();
    let poisoned = attacker.build().attack(&clean).poisoned;
    let mut gat = Gat::paper_default(TrainConfig {
        seed,
        ..TrainConfig::default()
    });
    gat.fit(&poisoned);
    gat.logits(&poisoned).content_hash()
}

#[test]
fn gat_logits_keep_the_dense_attention_bits() {
    let pins = [
        (0.12, 7, 1, 0x8b1e_3ef4_4890_8089_u64),
        (0.12, 3, 2, 0xaba2_a954_df7d_b7c8),
        (0.06, 5, 1, 0xd696_b1fc_20bc_4912),
    ];
    for (scale, graph, seed, want) in pins {
        let got = logits_hash(scale, graph, seed);
        assert_eq!(
            got, want,
            "scale {scale} graph {graph} seed {seed}: logits hash {got:016x}"
        );
    }
}
