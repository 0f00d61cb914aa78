//! The artifact-store codecs, pinned byte for byte.
//!
//! Six types cross the store, each through its own `Artifact` impl in the
//! crate that owns it: `DenseMatrix` (1), `CsrMatrix` (2), `Svd` (4) and
//! `Eigen` (5) in the store crate, the trained-model record (3) in gnn
//! and the job result (6) here. A store written by one build must read
//! back in another, so one fixed value per codec must frame to exactly
//! the image recorded below; a drifted tag, kind, key or payload layout
//! fails here before it turns a warm store cold.
//!
//! The same images seed the decoders' no-panic suite: a store directory is
//! untrusted input (`bbgnn-store verify` and every warm read decode what
//! is on disk), so arbitrary bytes and mutated images must decode to a
//! value or an error under every codec, never a panic, and whatever does
//! decode must re-encode to the payload it came from.

use bbgnn_gnn::train::{TrainReport, TrainedModel};
use bbgnn_linalg::eigen::Eigen;
use bbgnn_linalg::svd::Svd;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use bbgnn_serve::JobRecord;
use bbgnn_store::format::{deframe, fletcher64, frame, Artifact, Reader, Writer};
use bbgnn_store::Key;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The framed artifact image `Store::put` writes for `value`.
fn image<A: Artifact>(value: &A) -> Vec<u8> {
    let key = Key::new(A::KIND).field("case", "pinned");
    let mut w = Writer::new();
    value.encode(&mut w);
    frame(A::TAG, key.text(), &w.into_bytes())
}

fn hex(img: &[u8]) -> String {
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

/// One fixed value per codec, framed, in tag order.
fn pinned_images() -> [Vec<u8>; 6] {
    let dense = DenseMatrix::from_vec(2, 2, vec![1.0, -0.0, 0.5, f64::MIN_POSITIVE]);
    let csr = CsrMatrix::from_triplets(3, 3, [(0, 1, 0.5), (2, 0, -1.25)]);
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
    let svd = Svd {
        u: DenseMatrix::from_vec(2, 1, vec![0.6, 0.8]),
        sigma: vec![3.0],
        v: DenseMatrix::from_vec(2, 1, vec![1.0, 0.0]),
    };
    let eigen = Eigen {
        values: vec![2.5, -0.5],
        vectors: DenseMatrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]),
    };
    let job = JobRecord {
        value: "0.81±0.02".to_string(),
        outcome: "ok".to_string(),
        attempts: 1,
        artifacts: vec!["model-gcn-0123456789abcdef.bba".to_string()],
    };
    [
        image(&dense),
        image(&csr),
        image(&model),
        image(&svd),
        image(&eigen),
        image(&job),
    ]
}

#[test]
fn one_value_per_codec_frames_to_its_pinned_image() {
    let want = [
        "424253540100011400000064656e73657c76317c636173653d70696e6e65643800000000000000020000000000000002000000000000000400000000000000000000000000f03f0000000000000080000000000000e03f0000000000001000640c00003c0c0300",
        "42425354010002120000006373727c76317c636173653d70696e6e6564680000000000000003000000000000000300000000000000040000000000000000000000000000000100000000000000010000000000000002000000000000000200000000000000010000000000000000000000000000000200000000000000000000000000e03f000000000000f4bfcb0b0000f85e0400",
        "42425354010003140000006d6f64656c7c76317c636173653d70696e6e656481000000000000000200000000000000020000000000000001000000000000000200000000000000000000000000d03f000000000000e8bf010000000000000002000000000000000200000000000000000000000000f83f00000000000000400700000000000000000000000000e43f000000000000e03f000000000000f43f010000000000000000811100002b2e0700",
        "42425354010004120000007376647c76317c636173653d70696e6e65646000000000000000020000000000000001000000000000000200000000000000333333333333e33f9a9999999999e93f01000000000000000000000000000840020000000000000001000000000000000200000000000000000000000000f03f00000000000000007a110000e4db0500",
        "4242535401000514000000656967656e7c76317c636173653d70696e6e6564500000000000000002000000000000000000000000000440000000000000e0bf020000000000000002000000000000000400000000000000000000000000f03f00000000000000000000000000000000000000000000f03fde0d0000e3540400",
        "42425354010006190000006a6f622f726573756c747c76317c636173653d70696e6e656452000000000000000a00000000000000302e3831c2b1302e303202000000000000006f6b010000000000000001000000000000001e000000000000006d6f64656c2d67636e2d303132333435363738396162636465662e626261f4180000235b0600",
    ];
    for (tag, (img, want)) in (1..).zip(pinned_images().iter().zip(want)) {
        assert_eq!(hex(img), want, "codec tag {tag}");
    }
}

/// Decodes `img` as the store reads it — envelope, codec, no trailing
/// bytes — but under codec `A` whatever the tag says, so every payload
/// reaches every decoder. A value that decodes must re-encode to exactly
/// the payload it was read from.
fn decode_as<A: Artifact>(img: &[u8]) -> Result<bool, String> {
    let Ok(framed) = deframe(img) else {
        return Ok(false);
    };
    let mut r = Reader::new(framed.payload);
    let Ok(value) = A::decode(&mut r) else {
        return Ok(false);
    };
    if r.finish().is_err() {
        return Ok(false);
    }
    let mut w = Writer::new();
    value.encode(&mut w);
    if w.into_bytes() != framed.payload {
        return Err(format!(
            "{} decoded a payload it does not re-encode",
            A::KIND
        ));
    }
    Ok(true)
}

/// [`decode_as`] under all six codecs; how many accepted the image.
fn decode_all(img: &[u8]) -> Result<usize, String> {
    let accepted = [
        decode_as::<DenseMatrix>(img)?,
        decode_as::<CsrMatrix>(img)?,
        decode_as::<TrainedModel>(img)?,
        decode_as::<Svd>(img)?,
        decode_as::<Eigen>(img)?,
        decode_as::<JobRecord>(img)?,
    ];
    Ok(accepted.iter().filter(|&&a| a).count())
}

/// Offset of the payload in a framed image (after magic, version, tag,
/// key length, key text and payload length).
fn payload_start(img: &[u8]) -> usize {
    let key_len = u32::from_le_bytes([img[7], img[8], img[9], img[10]]) as usize;
    19 + key_len
}

/// Applies one to three edits to a pinned image, then repairs what would
/// stop the bytes at the envelope: the payload length after an insert or
/// a delete, and always the checksum.
fn mutate(img: &[u8], edits: &[(u8, f64, u8)]) -> Vec<u8> {
    let start = payload_start(img);
    let mut body = img[..img.len() - 8].to_vec();
    let mut resized = false;
    for &(op, at, byte) in edits {
        match op {
            // Overwrite any byte, header included.
            0 => {
                let i = (((body.len() as f64) * at) as usize).min(body.len() - 1);
                body[i] = byte;
            }
            // Insert or delete a payload byte.
            1 => {
                let i = start + ((body.len() - start) as f64 * at) as usize;
                body.insert(i, byte);
                resized = true;
            }
            _ if body.len() > start => {
                let i = start + ((body.len() - start) as f64 * at) as usize;
                let i = i.min(body.len() - 1);
                body.remove(i);
                resized = true;
            }
            _ => {}
        }
    }
    if resized {
        let len = (body.len() - start) as u64;
        body[start - 8..start].copy_from_slice(&len.to_le_bytes());
    }
    let sum = fletcher64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// A payload framed under `tag` with a valid envelope.
fn framed(tag: u8, payload: &[u8]) -> Vec<u8> {
    frame(tag, "fuzz|v1|case=arbitrary", payload)
}

#[test]
fn every_pinned_image_decodes_under_its_own_codec() {
    for (tag, img) in (1..).zip(pinned_images()) {
        assert_eq!(deframe(&img).unwrap().tag, tag);
        assert!(decode_all(&img).unwrap() >= 1, "tag {tag} image decodes");
    }
}

#[test]
fn overflowing_shapes_are_decode_errors() {
    // A 2^32 x 2^32 dense matrix with no entries: `rows * cols` wraps to 0
    // in a release build and panics in a debug one.
    let mut w = Writer::new();
    w.usize(1 << 32);
    w.usize(1 << 32);
    w.f64s(&[]);
    let dense = w.into_bytes();
    // A CSR matrix with usize::MAX rows: `rows + 1` overflows.
    let mut w = Writer::new();
    w.usize(usize::MAX);
    w.usize(1);
    w.usizes(&[0]);
    w.usizes(&[]);
    w.f64s(&[]);
    let csr = w.into_bytes();
    for payload in [&dense, &csr] {
        for tag in 1..=6 {
            assert_eq!(decode_all(&framed(tag, payload)), Ok(0));
        }
    }
    let mut r = Reader::new(&dense);
    let err = DenseMatrix::decode(&mut r).unwrap_err();
    assert!(err.contains("overflows"), "{err}");
    let mut r = Reader::new(&csr);
    assert!(CsrMatrix::decode(&mut r).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_images_never_panic(
        which in 0usize..6,
        edits in prop::collection::vec((0u8..3, 0.0f64..1.0, 0u8..=255), 1..4),
    ) {
        let img = mutate(&pinned_images()[which], &edits);
        decode_all(&img)?;
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        tag in 0u8..8,
        bytes in prop::collection::vec(0u8..=255, 0..160),
    ) {
        decode_all(&bytes)?;
        decode_all(&framed(tag, &bytes))?;
    }
}
