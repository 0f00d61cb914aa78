//! Incremental-vs-full equivalence property suite (DESIGN.md §13).
//!
//! For random flip sequences — additions, deletions, re-adds after a
//! resync, degree-1 endpoints, repeated candidates on the same node — the
//! incrementally maintained `H = Â_n^L X` must match a from-scratch
//! recompute **bitwise at every step** (the §13 contract pins the
//! between-resync eps at 0: the update rule recomputes touched rows in
//! the full kernel's accumulation order, so it is exact, not eps-close).
//! The thread-count invariance of the §7 kernel contract must carry over:
//! 1-thread and N-thread engines produce identical bytes.

use bbgnn_linalg::incr::{IncrConfig, IncrNorm, IncrProp};
use bbgnn_linalg::{CsrMatrix, DenseMatrix};

/// Deterministic splitmix64 — the suite's only randomness source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random sparse graph over `n` nodes, deliberately including isolated
/// and degree-1 nodes (only nodes `< n/2` get seeded edges).
fn random_edges(n: usize, m: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for _ in 0..m {
        let u = rng.below(n / 2);
        let v = rng.below(n / 2);
        if u != v {
            edges.push((u.min(v), u.max(v)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn adjacency_csr(n: usize, norm: &IncrNorm) -> CsrMatrix {
    let triplets: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|u| norm.neighbors(u).iter().map(move |&v| (u, v, 1.0)))
        .collect();
    CsrMatrix::from_triplets(n, n, triplets)
}

/// Full rescore exactly as the dense attack path does it:
/// `adjacency → gcn_normalize → L × spmm`.
fn full_propagation(n: usize, norm: &IncrNorm, x: &DenseMatrix, hops: usize) -> DenseMatrix {
    let an = adjacency_csr(n, norm).gcn_normalize();
    let mut h = x.clone();
    for _ in 0..hops {
        h = an.spmm(&h);
    }
    h
}

fn assert_bitwise(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: bits differ at flat index {i} ({x:e} vs {y:e})"
        );
    }
}

/// Random add/delete/re-add sequences stay bitwise-equal to the full
/// rescore at every committed step, across resync boundaries.
#[test]
fn random_flip_sequences_match_full_rescore_bitwise() {
    let mut rng = Rng(0xbb617);
    for trial in 0..4 {
        let n = 24 + 8 * trial;
        let hops = 1 + trial % 3;
        let edges = random_edges(n, 3 * n, &mut rng);
        let x = DenseMatrix::uniform(n, 5 + trial, 1.0, 100 + trial as u64);
        let mut cfg = IncrConfig::new(hops);
        cfg.resync_stride = 7; // hit several resync boundaries mid-sequence
        let mut p = IncrProp::from_edges(n, &edges, x.clone(), &cfg);
        for step in 0..40 {
            let u = rng.below(n);
            let mut v = rng.below(n);
            if u == v {
                v = (v + 1) % n;
            }
            p.flip_edge(u, v);
            let full = full_propagation(n, p.norm(), p.features(), hops);
            assert_bitwise(
                p.propagated(),
                &full,
                &format!("trial {trial} step {step} flip ({u},{v})"),
            );
        }
    }
}

/// The adversarial structural cases the update rule has to get right:
/// degree-1 endpoints dropping to isolation, both endpoints of a flip on
/// the same node across consecutive steps, and deletion followed by
/// re-add with a resync in between.
#[test]
fn adversarial_sequences_match_full_rescore_bitwise() {
    let n = 12;
    let hops = 2;
    // Path graph: every interior node has degree 2, endpoints degree 1.
    let edges: Vec<(usize, usize)> = (0..n - 2).map(|i| (i, i + 1)).collect();
    let x = DenseMatrix::uniform(n, 4, 1.0, 42);
    let mut cfg = IncrConfig::new(hops);
    cfg.resync_stride = 3;
    let mut p = IncrProp::from_edges(n, &edges, x, &cfg);
    let sequence: &[(usize, usize)] = &[
        (0, 1),  // delete: endpoint 0 becomes isolated
        (0, 1),  // immediate re-add
        (0, 11), // connect to the isolated node (resync fires here, stride 3)
        (0, 11), // delete again: 11 re-isolated, after the resync
        (0, 11), // re-add after resync
        (5, 6),  // delete an interior edge
        (5, 7),  // same node 5 again next step
        (5, 8),  // and again (resync boundary)
        (6, 5),  // re-add (5,6) given in reversed order
    ];
    for (step, &(u, v)) in sequence.iter().enumerate() {
        p.flip_edge(u, v);
        let full = full_propagation(n, p.norm(), p.features(), hops);
        assert_bitwise(p.propagated(), &full, &format!("edge step {step}"));
    }
}

/// Runs `f` at kernel width `threads`, pinned the way a job pins it:
/// through an entered supervision scope.
fn at_width<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let scope = bbgnn_supervise::SupervisionScope::new();
    scope.set_threads(threads);
    let _width = bbgnn_supervise::enter(&scope);
    f()
}

/// One engine on 1 thread, one on 4: identical flip sequence, identical
/// bytes at every step — the §7 kernel contract extended to the
/// incremental path (full builds and resyncs use the threaded SpMM; the
/// per-flip row repairs are serial and thread-independent by
/// construction).
#[test]
fn one_vs_many_threads_bitwise_identity() {
    let mut rng = Rng(7);
    let n = 32;
    let edges = random_edges(n, 4 * n, &mut rng);
    let x = DenseMatrix::uniform(n, 6, 1.0, 9);
    let mut cfg = IncrConfig::new(2);
    cfg.resync_stride = 4;
    let mut p1 = at_width(1, || IncrProp::from_edges(n, &edges, x.clone(), &cfg));
    let mut p4 = at_width(4, || IncrProp::from_edges(n, &edges, x, &cfg));
    assert_bitwise(p1.propagated(), p4.propagated(), "initial build");
    for step in 0..20 {
        let u = rng.below(n);
        let mut v = rng.below(n);
        if u == v {
            v = (v + 1) % n;
        }
        at_width(1, || p1.flip_edge(u, v));
        at_width(4, || p4.flip_edge(u, v));
        assert_bitwise(p1.propagated(), p4.propagated(), &format!("step {step}"));
        assert_eq!(p1.resynced(), p4.resynced());
    }
}

/// The virtually flipped normalized adjacency (GF-Attack's per-candidate
/// rescore input) matches a full rebuild bitwise for random candidates,
/// and never mutates the base state.
#[test]
fn virtual_flips_match_rebuild_bitwise() {
    let mut rng = Rng(0x6f);
    let n = 20;
    let edges = random_edges(n, 2 * n, &mut rng);
    let mut norm = IncrNorm::from_edges(n, &edges);
    let base = norm.normalized_csr();
    for _ in 0..30 {
        let u = rng.below(n);
        let mut v = rng.below(n);
        if u == v {
            v = (v + 1) % n;
        }
        let virt = norm.flipped_normalized_csr(u, v);
        // Rebuild from a really-flipped mirror.
        let existed = norm.flip_edge(u, v);
        let rebuilt = norm.normalized_csr();
        assert_eq!(virt.row_ptr(), rebuilt.row_ptr(), "row_ptr for ({u},{v})");
        assert_eq!(virt.col_indices(), rebuilt.col_indices());
        for (a, b) in virt.values().iter().zip(rebuilt.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "values for ({u},{v})");
        }
        // Undo so the next candidate starts from the same base.
        let restored = norm.flip_edge(u, v);
        assert_eq!(existed, !restored);
    }
    let after = norm.normalized_csr();
    assert_eq!(after.row_ptr(), base.row_ptr(), "base state mutated");
    assert_eq!(
        after.col_indices(),
        base.col_indices(),
        "base state mutated"
    );
}
