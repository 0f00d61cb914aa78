//! Behavioural tests of the GNN models beyond clean-accuracy smoke tests:
//! transductive prediction contracts, depth effects, training-loop
//! internals, and the surrogate/GCN relationship the PEEGA derivation
//! (Eq. 7) relies on.

use bbgnn_gnn::gcn::Gcn;
use bbgnn_gnn::linear_gcn::LinearGcn;
use bbgnn_gnn::train::{train_node_classifier, TrainConfig};
use bbgnn_gnn::NodeClassifier;
use bbgnn_graph::datasets::{DatasetSpec, SbmParams};
use bbgnn_graph::{Graph, Split};
use bbgnn_linalg::DenseMatrix;

#[test]
fn gcn_predicts_on_modified_graph_without_retraining() {
    // Evasion setting: train on the clean graph, predict on a perturbed
    // one. The logits must change (the model reads the new adjacency).
    let g = DatasetSpec::CoraLike.generate(0.06, 601);
    let mut gcn = Gcn::paper_default(TrainConfig::fast_test());
    gcn.fit(&g);
    let mut h = g.clone();
    // Rewire a chunk of edges.
    let edges: Vec<_> = g.edges().take(20).collect();
    for (u, v) in edges {
        h.remove_edge(u, v);
        h.add_edge(u, (v + 1) % g.num_nodes());
    }
    assert_ne!(
        gcn.logits(&g).as_slice(),
        gcn.logits(&h).as_slice(),
        "logits must depend on the adjacency"
    );
}

#[test]
fn gcn_accuracy_degrades_with_label_noise_in_training() {
    let g = DatasetSpec::CoraLike.generate(0.08, 602);
    let mut clean = Gcn::paper_default(TrainConfig::fast_test());
    clean.fit(&g);
    let clean_acc = clean.test_accuracy(&g);

    // Corrupt half of the training labels.
    let mut noisy = g.clone();
    for (i, &v) in g.split.train.iter().enumerate() {
        if i % 2 == 0 {
            noisy.labels[v] = (noisy.labels[v] + 1) % noisy.num_classes;
        }
    }
    let mut corrupted = Gcn::paper_default(TrainConfig::fast_test());
    corrupted.fit(&noisy);
    // Evaluate against the TRUE labels.
    let preds = corrupted.predict(&noisy);
    let noisy_acc = bbgnn_gnn::eval::accuracy(&preds, &g.labels, &g.split.test);
    assert!(
        noisy_acc < clean_acc,
        "label noise must hurt: {clean_acc} -> {noisy_acc}"
    );
}

#[test]
fn linear_surrogate_agrees_with_gcn_on_easy_nodes() {
    // Eq. 7's premise: the linear surrogate A_n²XW approximates the GCN
    // well enough that attacking it transfers. Prediction agreement on a
    // clean homophilous graph should be substantial.
    let g = DatasetSpec::CoraLike.generate(0.1, 603);
    let mut gcn = Gcn::paper_default(TrainConfig::fast_test());
    let mut lin = LinearGcn::new(2, TrainConfig::fast_test());
    gcn.fit(&g);
    lin.fit(&g);
    let a = gcn.predict(&g);
    let b = lin.predict(&g);
    let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64;
    assert!(
        agree > 0.7,
        "surrogate agreement {agree} too low for Eq. 7 to make sense"
    );
}

#[test]
fn training_report_reflects_early_stopping() {
    let g = DatasetSpec::CoraLike.generate(0.06, 604);
    let long = TrainConfig {
        epochs: 500,
        patience: 20,
        dropout: 0.0,
        ..Default::default()
    };
    let mut gcn = Gcn::paper_default(long);
    let report = gcn.fit(&g);
    assert!(
        report.epochs_run < 500,
        "early stopping should trigger well before 500 epochs"
    );
    // The tiny validation set (~15 nodes) makes the absolute value noisy;
    // beating chance (1/7) is the contract.
    assert!(report.best_val_accuracy > 0.2);
    assert!(report.seconds > 0.0);
}

#[test]
fn regularized_training_changes_parameters() {
    // train_node_classifier must route the extra-loss gradient into the
    // parameters (RGCN's KL, SimPGCN's SSL rely on this).
    let g = DatasetSpec::CoraLike.generate(0.05, 605);
    let d = g.feature_dim();
    let k = g.num_classes;
    let x = g.features.clone();
    let run = |with_reg: bool| -> DenseMatrix {
        let mut params = vec![DenseMatrix::glorot(d, k, 9)];
        let cfg = TrainConfig {
            epochs: 30,
            patience: 0,
            dropout: 0.0,
            ..Default::default()
        };
        let salt = || bbgnn_store::Key::new("model/test");
        train_node_classifier(&mut params, &g, &cfg, salt, |tape, p, _| {
            let w = tape.var(&p[0]);
            let xc = tape.constant(&x);
            let logits = tape.matmul(xc, w);
            let reg = if with_reg {
                // L2 penalty as the extra term.
                let sq = tape.hadamard(w, w);
                let sum = tape.sum_all(sq);
                Some(tape.scalar_mul(sum, 0.1))
            } else {
                None
            };
            (logits, vec![w], reg)
        });
        params.pop().unwrap()
    };
    let base = run(false);
    let reg = run(true);
    assert!(base.max_abs_diff(&reg) > 1e-6, "regularizer had no effect");
    assert!(
        reg.frobenius_norm() < base.frobenius_norm(),
        "L2 reg must shrink weights"
    );
}

#[test]
fn single_class_dataset_trains_degenerately_but_safely() {
    let g = SbmParams {
        nodes: 40,
        edges: 80,
        classes: 1,
        homophily: 1.0,
        feature_dim: 10,
        active_features: 3,
        feature_purity: 0.9,
        train_frac: 0.3,
        valid_frac: 0.3,
    }
    .generate(606);
    let mut gcn = Gcn::paper_default(TrainConfig {
        epochs: 10,
        patience: 0,
        dropout: 0.0,
        ..Default::default()
    });
    gcn.fit(&g);
    assert_eq!(
        gcn.test_accuracy(&g),
        1.0,
        "one class: everything is trivially correct"
    );
}

#[test]
fn edgeless_graph_reduces_to_feature_classifier() {
    // GCN on an edgeless graph sees only self-loops: it degenerates to a
    // per-node MLP on features and must still beat chance.
    let base = DatasetSpec::CoraLike.generate(0.1, 607);
    let g = Graph::new(
        base.num_nodes(),
        &[],
        base.features.clone(),
        base.labels.clone(),
        base.num_classes,
        Split::random(base.num_nodes(), 0.1, 0.1, 607),
    );
    let mut gcn = Gcn::paper_default(TrainConfig::fast_test());
    gcn.fit(&g);
    let acc = gcn.test_accuracy(&g);
    assert!(
        acc > 1.5 / g.num_classes as f64,
        "edgeless GCN accuracy {acc} below chance-ish"
    );
}
