//! Attack-side wiring for the incremental rescore engine
//! (`bbgnn_linalg::incr`, DESIGN.md §13).
//!
//! The engine itself lives in the linalg layer and knows nothing about
//! graphs or the artifact store; this module bridges both:
//!
//! * [`active`] resolves per-attacker `incremental` config fields against
//!   the process-global `--incremental` / `BBGNN_INCR` switch.
//! * [`engine_for`] builds an [`IncrProp`] from a [`Graph`] with
//!   [`IncrConfig::new`]'s defaults, warm-started from the artifact store
//!   when enabled (keyed by graph content hash + hops — the same
//!   anti-aliasing discipline as `prep/propagate`).
//! * [`commit_edge_flip`] / [`commit_feature_flip`] forward committed
//!   perturbations into the engine and publish a store checkpoint of the
//!   maintained state at every resync boundary, keyed by the engine's
//!   [`state_hash`](IncrProp::state_hash) (graph structure + feature bits
//!   + step index), so two different flip histories can never alias.
//!
//! Everything here is byte-transparent: the engine's maintained `H` is
//! bitwise identical to the dense `propagate` path, so attackers running
//! with `--incremental` commit exactly the flip sequence the dense path
//! commits (the §13 contract, enforced by the CI incremental-parity job).

use bbgnn_graph::Graph;
use bbgnn_linalg::incr::{IncrConfig, IncrProp};
use bbgnn_linalg::DenseMatrix;

/// Whether an attacker configured with `incremental` should take the
/// incremental path: its own flag OR the process-global
/// `--incremental` / `BBGNN_INCR` switch.
pub fn active(flag: bool) -> bool {
    flag || bbgnn_linalg::incr::enabled()
}

/// Store key for the engine's maintained hop `k`, anti-aliased by the
/// engine's full state hash (graph structure + feature bits + depth +
/// step index).
fn state_key(state_hash: u64, hop: usize) -> bbgnn_store::Key {
    bbgnn_store::Key::new("incr/state")
        .hash_field("state", state_hash)
        .field("hop", hop)
}

/// Builds the incremental engine for `g` with propagation depth `hops`.
///
/// With the store enabled, the step-0 state (the initial full
/// propagation — the expensive part of construction) is warm-started
/// from `incr/state` artifacts published by a previous run over the same
/// graph, and published for the next run on a cold start.
pub fn engine_for(g: &Graph, hops: usize) -> IncrProp {
    let cfg = IncrConfig::new(hops);
    let nbrs: Vec<Vec<usize>> = (0..g.num_nodes())
        .map(|u| g.neighbors(u).collect())
        .collect();
    if bbgnn_store::enabled() {
        // The step-0 state hash is derivable without building the engine:
        // it is a pure function of structure + features + hops + step 0,
        // which from_neighbor_lists_restored reproduces.
        let probe = bbgnn_linalg::incr::IncrNorm::from_neighbor_lists(nbrs.clone());
        let mut hasher = bbgnn_linalg::content_hash::Fnv1a::new();
        hasher.bytes(b"incr-state");
        hasher.u64(probe.structure_hash());
        hasher.u64(g.features.content_hash());
        hasher.usize(hops);
        hasher.usize(0);
        let h0 = hasher.finish();
        let restored: Option<Vec<DenseMatrix>> = (0..hops)
            .map(|k| bbgnn_store::lookup::<DenseMatrix>(&state_key(h0, k)))
            .collect();
        if let Some(hop_mats) = restored {
            if let Ok(engine) = IncrProp::from_neighbor_lists_restored(
                nbrs.clone(),
                g.features.clone(),
                &cfg,
                hop_mats,
            ) {
                debug_assert_eq!(engine.state_hash(), h0);
                return engine;
            }
        }
        let engine = IncrProp::from_neighbor_lists(nbrs, g.features.clone(), &cfg);
        publish_state(&engine);
        engine
    } else {
        IncrProp::from_neighbor_lists(nbrs, g.features.clone(), &cfg)
    }
}

/// Publishes every maintained hop matrix under the engine's current
/// state hash.
fn publish_state(engine: &IncrProp) {
    let state_hash = engine.state_hash();
    for (k, m) in engine.hop_matrices().iter().enumerate() {
        bbgnn_store::publish(&state_key(state_hash, k), m);
    }
}

/// Checkpoints the maintained state to the artifact store when the last
/// commit ended in a resync (the configured checkpoint cadence).
fn checkpoint_if_resynced(engine: &IncrProp) {
    if engine.resynced() && bbgnn_store::enabled() {
        publish_state(engine);
    }
}

/// Commits one undirected edge flip into the engine and checkpoints at
/// resync boundaries.
pub fn commit_edge_flip(engine: &mut IncrProp, u: usize, v: usize) {
    engine.flip_edge(u, v);
    checkpoint_if_resynced(engine);
}

/// Commits one feature write into the engine and checkpoints at resync
/// boundaries.
pub fn commit_feature_flip(engine: &mut IncrProp, v: usize, i: usize, value: f64) {
    engine.set_feature(v, i, value);
    checkpoint_if_resynced(engine);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbgnn_graph::datasets::DatasetSpec;

    #[test]
    fn engine_matches_graph_propagate_bitwise() {
        let g = DatasetSpec::CoraLike.generate(0.03, 71);
        let engine = engine_for(&g, 2);
        let dense = g.propagate(2);
        assert_eq!(engine.propagated().shape(), dense.shape());
        for (a, b) in engine.propagated().as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "engine H diverges from propagate");
        }
    }

    #[test]
    fn committed_flips_track_graph_mutations_bitwise() {
        let g = DatasetSpec::CoraLike.generate(0.03, 72);
        let mut engine = engine_for(&g, 2);
        let mut poisoned = g.clone();
        // Mixed sequence: add, delete, feature flip.
        let (u, v) = (0usize, 5usize);
        poisoned.flip_edge(u, v);
        commit_edge_flip(&mut engine, u, v);
        let (a, b) = (1usize, 2usize);
        poisoned.flip_edge(a, b);
        commit_edge_flip(&mut engine, a, b);
        let new_val = poisoned.flip_feature(3, 1);
        commit_feature_flip(&mut engine, 3, 1, new_val);
        let dense = poisoned.propagate(2);
        for (x, y) in engine.propagated().as_slice().iter().zip(dense.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "engine H diverges after commits");
        }
    }

    #[test]
    fn active_respects_flag_and_global() {
        bbgnn_linalg::incr::set_enabled(false);
        assert!(!active(false));
        assert!(active(true));
        bbgnn_linalg::incr::set_enabled(true);
        assert!(active(false));
        bbgnn_linalg::incr::set_enabled(false);
    }
}
