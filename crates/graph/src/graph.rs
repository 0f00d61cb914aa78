//! The [`Graph`] container and its edit operations.

use crate::splits::Split;
use crate::validate::{validate_parts, ValidationPolicy};
use bbgnn_errors::BbgnnResult;
use bbgnn_linalg::{CsrMatrix, DenseMatrix};
use std::collections::BTreeSet;

/// An undirected, unweighted graph with binary node features and (partial)
/// node labels — the `G(V, A, X, Y)` of the paper.
///
/// The adjacency is stored as sorted neighbor sets for O(log d) edge
/// queries and cheap edit operations; dense/CSR views are materialized on
/// demand. Self-loops are excluded from the stored adjacency (the GCN
/// normalization adds them).
#[derive(Clone, Debug)]
pub struct Graph {
    /// Sorted neighbor set per node.
    neighbors: Vec<BTreeSet<usize>>,
    /// Number of undirected edges (`‖A‖₀` in the paper's budget).
    num_edges: usize,
    /// Node features, `n × d_x`, entries in {0, 1}.
    pub features: DenseMatrix,
    /// Node labels, length `n` (test labels exist for evaluation but are
    /// hidden from black-box components by convention).
    pub labels: Vec<usize>,
    /// Number of classes `|Y|`.
    pub num_classes: usize,
    /// Train/valid/test node splits.
    pub split: Split,
}

impl Graph {
    /// Builds a graph from an undirected edge list.
    ///
    /// Duplicate edges and self-loops are ignored.
    ///
    /// # Panics
    /// Panics if features row count, labels length, or edge endpoints are
    /// inconsistent with each other.
    pub fn new(
        n: usize,
        edges: &[(usize, usize)],
        features: DenseMatrix,
        labels: Vec<usize>,
        num_classes: usize,
        split: Split,
    ) -> Self {
        // Graph::new historically tolerated self-loops (silently dropped),
        // so the validating path declares them to stay a drop-in.
        Self::try_new_with(
            n,
            edges,
            features,
            labels,
            num_classes,
            split,
            &ValidationPolicy::with_self_loops(),
        )
        // lint: allow(panic) reason=documented infallible facade — try_new_with is the recoverable path
        .unwrap_or_else(|e| panic!("Graph::new: {e}"))
    }

    /// Fallible [`Graph::new`]: validates the input (finite features,
    /// in-bounds edges/labels/splits, no self-loops) and returns
    /// [`InvalidGraph`](bbgnn_errors::BbgnnError::InvalidGraph) naming the
    /// first offending node or edge instead of panicking.
    pub fn try_new(
        n: usize,
        edges: &[(usize, usize)],
        features: DenseMatrix,
        labels: Vec<usize>,
        num_classes: usize,
        split: Split,
    ) -> BbgnnResult<Self> {
        Self::try_new_with(
            n,
            edges,
            features,
            labels,
            num_classes,
            split,
            &ValidationPolicy::default(),
        )
    }

    /// [`Graph::try_new`] with an explicit [`ValidationPolicy`] (e.g. for
    /// inputs that legitimately declare self-loops).
    pub fn try_new_with(
        n: usize,
        edges: &[(usize, usize)],
        features: DenseMatrix,
        labels: Vec<usize>,
        num_classes: usize,
        split: Split,
        policy: &ValidationPolicy,
    ) -> BbgnnResult<Self> {
        validate_parts(n, edges, &features, &labels, num_classes, &split, policy)?;
        let mut g = Self {
            neighbors: vec![BTreeSet::new(); n],
            num_edges: 0,
            features,
            labels,
            num_classes,
            split,
        };
        for &(u, v) in edges {
            // Declared self-loops are excluded from the stored adjacency
            // (the GCN normalization re-adds them).
            g.add_edge(u, v);
        }
        Ok(g)
    }

    /// Number of nodes `|V|`.
    pub fn num_nodes(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of undirected edges `‖A‖₀`.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Feature dimensionality `d_x`.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Whether the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors[u].contains(&v)
    }

    /// Degree of `u` (self-loops excluded).
    pub fn degree(&self, u: usize) -> usize {
        self.neighbors[u].len()
    }

    /// Iterator over the neighbors of `u`, ascending.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.neighbors[u].iter().copied()
    }

    /// Iterator over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.neighbors.iter().enumerate().flat_map(|(u, ns)| {
            ns.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Adds the undirected edge `{u, v}`; returns `false` if it already
    /// existed or is a self-loop.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        if u == v || self.neighbors[u].contains(&v) {
            return false;
        }
        self.neighbors[u].insert(v);
        self.neighbors[v].insert(u);
        self.num_edges += 1;
        true
    }

    /// Removes the undirected edge `{u, v}`; returns `false` if absent.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if !self.neighbors[u].remove(&v) {
            return false;
        }
        self.neighbors[v].remove(&u);
        self.num_edges -= 1;
        true
    }

    /// Toggles the undirected edge `{u, v}` (the attacker's topology
    /// modification). Returns `true` if the edge now exists.
    pub fn flip_edge(&mut self, u: usize, v: usize) -> bool {
        if self.has_edge(u, v) {
            self.remove_edge(u, v);
            false
        } else {
            self.add_edge(u, v);
            true
        }
    }

    /// Toggles feature bit `(v, i)` (the attacker's feature perturbation).
    /// Returns the new value.
    pub fn flip_feature(&mut self, v: usize, i: usize) -> f64 {
        let new = if self.features.get(v, i) == 0.0 {
            1.0
        } else {
            0.0
        };
        self.features.set(v, i, new);
        new
    }

    /// Adjacency as CSR (symmetric, 0/1, no self-loops).
    pub fn adjacency_csr(&self) -> CsrMatrix {
        let n = self.num_nodes();
        let triplets = self
            .neighbors
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().map(move |&v| (u, v, 1.0)));
        CsrMatrix::from_triplets(n, n, triplets)
    }

    /// Adjacency as a dense matrix.
    pub fn adjacency_dense(&self) -> DenseMatrix {
        let n = self.num_nodes();
        let mut a = DenseMatrix::zeros(n, n);
        for (u, ns) in self.neighbors.iter().enumerate() {
            for &v in ns {
                a.set(u, v, 1.0);
            }
        }
        a
    }

    /// GCN-normalized adjacency `D^{-1/2}(A + I)D^{-1/2}` as CSR.
    pub fn normalized_adjacency(&self) -> CsrMatrix {
        self.adjacency_csr().gcn_normalize()
    }

    /// `A_n^k X` — the linear propagation the paper uses as the black-box
    /// surrogate (Eq. 7 with `W` dropped).
    pub fn propagate(&self, k: usize) -> DenseMatrix {
        let an = self.normalized_adjacency();
        let mut h = self.features.clone();
        for _ in 0..k {
            h = an.spmm(&h);
        }
        h
    }

    /// Replaces the topology with the edges of `adj` (entries with
    /// `|v| > 0.5` become edges), keeping features/labels/split. Used by
    /// preprocessing defenders that purify the adjacency.
    pub fn with_adjacency(&self, adj: &CsrMatrix) -> Graph {
        let n = self.num_nodes();
        assert_eq!(adj.rows(), n, "adjacency size mismatch");
        let mut edges = Vec::new();
        for u in 0..n {
            for (v, w) in adj.row_iter(u) {
                if u < v && w.abs() > 0.5 {
                    edges.push((u, v));
                }
            }
        }
        Graph::new(
            n,
            &edges,
            self.features.clone(),
            self.labels.clone(),
            self.num_classes,
            self.split.clone(),
        )
    }

    /// Number of differing undirected edges between `self` and `other`
    /// (`‖Â − A‖₀` in undirected-edge units).
    pub fn edge_difference(&self, other: &Graph) -> usize {
        assert_eq!(self.num_nodes(), other.num_nodes(), "node count mismatch");
        let mut diff = 0;
        for (u, ns) in self.neighbors.iter().enumerate() {
            diff += ns
                .iter()
                .filter(|&&v| u < v && !other.has_edge(u, v))
                .count();
        }
        for (u, ns) in other.neighbors.iter().enumerate() {
            diff += ns
                .iter()
                .filter(|&&v| u < v && !self.has_edge(u, v))
                .count();
        }
        diff
    }

    /// Number of differing feature bits (`‖X̂ − X‖₀`).
    pub fn feature_difference(&self, other: &Graph) -> usize {
        assert_eq!(
            self.features.shape(),
            other.features.shape(),
            "feature shape mismatch"
        );
        self.features
            .as_slice()
            .iter()
            .zip(other.features.as_slice())
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Nodes reachable from `v` within `k` hops (excluding `v` itself),
    /// ascending — the neighborhood used by GNAT's topology graph.
    pub fn k_hop_neighbors(&self, v: usize, k: usize) -> Vec<usize> {
        let n = self.num_nodes();
        let mut dist = vec![usize::MAX; n];
        dist[v] = 0;
        let mut frontier = vec![v];
        let mut out = Vec::new();
        for d in 1..=k {
            let mut next = Vec::new();
            for &u in &frontier {
                for &w in &self.neighbors[u] {
                    if dist[w] == usize::MAX {
                        dist[w] = d;
                        next.push(w);
                        out.push(w);
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out.sort_unstable();
        out
    }

    /// Deterministic FNV-1a fingerprint of the full graph state: structure
    /// (every edge, in sorted order), feature bits, labels, class count,
    /// and splits. Any single edit — one flipped edge, one flipped feature
    /// bit — changes the hash, which is the artifact store's guarantee
    /// that a perturbed graph never aliases a clean one.
    pub fn content_hash(&self) -> u64 {
        let mut h = bbgnn_linalg::content_hash::Fnv1a::new();
        h.bytes(b"graph");
        h.usize(self.num_nodes());
        h.usize(self.num_edges);
        for (u, v) in self.edges() {
            h.usize(u);
            h.usize(v);
        }
        h.u64(self.features.content_hash());
        h.usizes(&self.labels);
        h.usize(self.num_classes);
        h.usizes(&self.split.train);
        h.usizes(&self.split.valid);
        h.usizes(&self.split.test);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::splits::Split;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::new(
            n,
            &edges,
            DenseMatrix::identity(n),
            vec![0; n],
            1,
            Split::trivial(n),
        )
    }

    #[test]
    fn edge_bookkeeping() {
        let mut g = path_graph(4);
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(g.add_edge(0, 2));
        assert!(!g.add_edge(0, 2), "duplicate add must be a no-op");
        assert_eq!(g.num_edges(), 4);
        assert!(g.remove_edge(0, 2));
        assert!(!g.remove_edge(0, 2), "double remove must be a no-op");
        assert_eq!(g.num_edges(), 3);
        assert!(!g.add_edge(1, 1), "self-loops are rejected");
    }

    #[test]
    fn flip_edge_toggles() {
        let mut g = path_graph(3);
        assert!(!g.flip_edge(0, 1), "flip of existing edge removes it");
        assert!(g.flip_edge(0, 1), "flip again restores it");
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn flip_feature_toggles_bits() {
        let mut g = path_graph(3);
        assert_eq!(g.features.get(0, 1), 0.0);
        assert_eq!(g.flip_feature(0, 1), 1.0);
        assert_eq!(g.flip_feature(0, 1), 0.0);
    }

    #[test]
    fn adjacency_views_agree() {
        let g = path_graph(5);
        let csr = g.adjacency_csr();
        let dense = g.adjacency_dense();
        assert!(csr.to_dense().max_abs_diff(&dense) < 1e-15);
        assert_eq!(csr.nnz(), 2 * g.num_edges());
        assert_eq!(csr.asymmetry(), 0.0);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = path_graph(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn propagate_one_hop_on_path() {
        let g = path_graph(3);
        // Degrees (with self-loop): [2, 3, 2].
        let h = g.propagate(1);
        // Node 0 row: 1/2 * e0 + 1/sqrt(6) * e1.
        assert!((h.get(0, 0) - 0.5).abs() < 1e-12);
        assert!((h.get(0, 1) - 1.0 / 6.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(h.get(0, 2), 0.0);
    }

    #[test]
    fn edge_and_feature_difference() {
        let g = path_graph(4);
        let mut h = g.clone();
        h.flip_edge(0, 3); // add
        h.flip_edge(1, 2); // remove
        assert_eq!(g.edge_difference(&h), 2);
        assert_eq!(h.edge_difference(&g), 2);
        h.flip_feature(2, 0);
        assert_eq!(g.feature_difference(&h), 1);
    }

    #[test]
    fn k_hop_neighbors_on_path() {
        let g = path_graph(5);
        assert_eq!(g.k_hop_neighbors(0, 1), vec![1]);
        assert_eq!(g.k_hop_neighbors(0, 2), vec![1, 2]);
        assert_eq!(g.k_hop_neighbors(2, 2), vec![0, 1, 3, 4]);
        assert_eq!(g.k_hop_neighbors(0, 0), Vec::<usize>::new());
    }

    #[test]
    fn try_new_reports_first_offending_input() {
        use bbgnn_errors::BbgnnError;
        let mut x = DenseMatrix::identity(3);
        x.set(1, 0, f64::NAN);
        match Graph::try_new(3, &[(0, 1)], x, vec![0, 0, 0], 1, Split::trivial(3)) {
            Err(BbgnnError::InvalidGraph { node: Some(1), .. }) => {}
            other => panic!("expected InvalidGraph at node 1, got {other:?}"),
        }
        match Graph::try_new(
            3,
            &[(0, 1), (2, 2)],
            DenseMatrix::identity(3),
            vec![0, 0, 0],
            1,
            Split::trivial(3),
        ) {
            Err(BbgnnError::InvalidGraph {
                edge: Some((2, 2)), ..
            }) => {}
            other => panic!("expected InvalidGraph self-loop, got {other:?}"),
        }
    }

    #[test]
    fn with_adjacency_replaces_topology() {
        let g = path_graph(3);
        let new_adj = CsrMatrix::from_triplets(3, 3, vec![(0, 2, 1.0), (2, 0, 1.0)]);
        let h = g.with_adjacency(&new_adj);
        assert_eq!(h.num_edges(), 1);
        assert!(h.has_edge(0, 2));
        assert!(!h.has_edge(0, 1));
        assert_eq!(h.features, g.features);
    }

    #[test]
    fn content_hash_changes_on_any_edit() {
        let g = path_graph(5);
        let base = g.content_hash();
        assert_eq!(base, path_graph(5).content_hash(), "must be deterministic");

        let mut edited = g.clone();
        edited.flip_edge(0, 3);
        assert_ne!(base, edited.content_hash(), "one edge must matter");

        let mut feat = g.clone();
        feat.flip_feature(2, 0);
        assert_ne!(base, feat.content_hash(), "one feature bit must matter");

        let mut relabeled = g.clone();
        relabeled.labels[1] = 0; // same value: no-op edit
        assert_eq!(base, relabeled.content_hash());
    }
}
