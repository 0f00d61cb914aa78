//! The artifact-store codecs, pinned byte for byte.
//!
//! Six types cross the store, each through its own `Artifact` impl in the
//! crate that owns it: `DenseMatrix` (1), `CsrMatrix` (2), `Svd` (4) and
//! `Eigen` (5) in the store crate, the trained-model record (3) in gnn
//! and the job result (6) here. A store written by one build must read
//! back in another, so one fixed value per codec must frame to exactly
//! the image recorded below; a drifted tag, kind, key or payload layout
//! fails here before it turns a warm store cold.

use bbgnn_gnn::train::{TrainReport, TrainedModel};
use bbgnn_linalg::eigen::Eigen;
use bbgnn_linalg::svd::Svd;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use bbgnn_serve::JobRecord;
use bbgnn_store::format::{frame, Artifact, Writer};
use bbgnn_store::Key;
use std::collections::BTreeSet;

/// The framed artifact image `Store::put` writes for `value`, as hex.
fn image<A: Artifact>(value: &A) -> String {
    let key = Key::new(A::KIND).field("case", "pinned");
    let mut w = Writer::new();
    value.encode(&mut w);
    let img = frame(A::TAG, key.text(), &w.into_bytes());
    img.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn the_six_codecs_own_distinct_tags_and_kinds() {
    let codecs = [
        (DenseMatrix::TAG, DenseMatrix::KIND),
        (CsrMatrix::TAG, CsrMatrix::KIND),
        (TrainedModel::TAG, TrainedModel::KIND),
        (Svd::TAG, Svd::KIND),
        (Eigen::TAG, Eigen::KIND),
        (JobRecord::TAG, JobRecord::KIND),
    ];
    let tags: BTreeSet<u8> = codecs.iter().map(|c| c.0).collect();
    let kinds: BTreeSet<&str> = codecs.iter().map(|c| c.1).collect();
    assert_eq!(tags.len(), codecs.len(), "tags collide: {codecs:?}");
    assert_eq!(kinds.len(), codecs.len(), "kinds collide: {codecs:?}");
}

#[test]
fn one_value_per_codec_frames_to_its_pinned_image() {
    let dense = DenseMatrix::from_vec(2, 2, vec![1.0, -0.0, 0.5, f64::MIN_POSITIVE]);
    assert_eq!(
        image(&dense),
        "424253540100011400000064656e73657c76317c636173653d70696e6e65643800000000000000020000000000000002000000000000000400000000000000000000000000f03f0000000000000080000000000000e03f0000000000001000640c00003c0c0300"
    );

    let csr = CsrMatrix::from_triplets(3, 3, [(0, 1, 0.5), (2, 0, -1.25)]);
    assert_eq!(
        image(&csr),
        "42425354010002120000006373727c76317c636173653d70696e6e6564680000000000000003000000000000000300000000000000040000000000000000000000000000000100000000000000010000000000000002000000000000000200000000000000010000000000000000000000000000000200000000000000000000000000e03f000000000000f4bfcb0b0000f85e0400"
    );

    // `interrupted` is not part of the payload: an interrupted run is
    // never published.
    let model = TrainedModel {
        weights: vec![
            DenseMatrix::from_vec(2, 1, vec![0.25, -0.75]),
            DenseMatrix::from_vec(1, 2, vec![1.5, 2.0]),
        ],
        report: TrainReport {
            epochs_run: 7,
            best_val_accuracy: 0.625,
            final_loss: 0.5,
            seconds: 1.25,
            divergence_recoveries: 1,
            diverged: false,
            interrupted: false,
        },
    };
    assert_eq!(
        image(&model),
        "42425354010003140000006d6f64656c7c76317c636173653d70696e6e656481000000000000000200000000000000020000000000000001000000000000000200000000000000000000000000d03f000000000000e8bf010000000000000002000000000000000200000000000000000000000000f83f00000000000000400700000000000000000000000000e43f000000000000e03f000000000000f43f010000000000000000811100002b2e0700"
    );

    let svd = Svd {
        u: DenseMatrix::from_vec(2, 1, vec![0.6, 0.8]),
        sigma: vec![3.0],
        v: DenseMatrix::from_vec(2, 1, vec![1.0, 0.0]),
    };
    assert_eq!(
        image(&svd),
        "42425354010004120000007376647c76317c636173653d70696e6e65646000000000000000020000000000000001000000000000000200000000000000333333333333e33f9a9999999999e93f01000000000000000000000000000840020000000000000001000000000000000200000000000000000000000000f03f00000000000000007a110000e4db0500"
    );

    let eigen = Eigen {
        values: vec![2.5, -0.5],
        vectors: DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
    };
    assert_eq!(
        image(&eigen),
        "4242535401000514000000656967656e7c76317c636173653d70696e6e6564500000000000000002000000000000000000000000000440000000000000e0bf020000000000000002000000000000000400000000000000000000000000f03f00000000000000000000000000000000000000000000f03fde0d0000e3540400"
    );

    let job = JobRecord {
        value: "0.81±0.02".to_string(),
        outcome: "ok".to_string(),
        attempts: 1,
        artifacts: vec!["model-gcn-0123456789abcdef.bba".to_string()],
    };
    assert_eq!(
        image(&job),
        "42425354010006190000006a6f622f726573756c747c76317c636173653d70696e6e656452000000000000000a00000000000000302e3831c2b1302e303202000000000000006f6b010000000000000001000000000000001e000000000000006d6f64656c2d67636e2d303132333435363738396162636465662e626261f4180000235b0600"
    );
}
