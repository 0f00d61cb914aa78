//! Graph-input validation.
//!
//! Every dataset that enters the pipeline — loaded from disk, generated
//! synthetically, or handed over by an attacker — can be checked against
//! the structural contract the models assume: finite (binary) features, no
//! undeclared self-loops, labels within `num_classes`, in-bounds edges and
//! split indices, and a symmetric adjacency. Violations surface as
//! [`BbgnnError::InvalidGraph`] carrying the *first* offending node or
//! edge, so a corrupted input names itself instead of panicking three
//! crates downstream.

use crate::splits::Split;
use bbgnn_errors::{BbgnnError, BbgnnResult};
use bbgnn_linalg::{CsrMatrix, DenseMatrix};

/// What a dataset is allowed to contain. The default is the paper's
/// contract: simple undirected graphs without self-loops.
#[derive(Clone, Debug, Default)]
pub struct ValidationPolicy {
    /// Accept self-loop edges (they are still dropped from the stored
    /// adjacency, but their presence in the input is not an error).
    pub allow_self_loops: bool,
}

impl ValidationPolicy {
    /// Policy for inputs that declare self-loops as legitimate.
    pub fn with_self_loops() -> Self {
        Self {
            allow_self_loops: true,
        }
    }
}

/// Validates the raw pieces of a graph before construction. Returns the
/// first violation as [`BbgnnError::InvalidGraph`].
pub fn validate_parts(
    n: usize,
    edges: &[(usize, usize)],
    features: &DenseMatrix,
    labels: &[usize],
    num_classes: usize,
    split: &Split,
    policy: &ValidationPolicy,
) -> BbgnnResult<()> {
    if features.rows() != n {
        return Err(BbgnnError::InvalidGraph {
            reason: format!("feature matrix has {} rows for {n} nodes", features.rows()),
            node: None,
            edge: None,
        });
    }
    if labels.len() != n {
        return Err(BbgnnError::InvalidGraph {
            reason: format!("{} labels for {n} nodes", labels.len()),
            node: None,
            edge: None,
        });
    }
    for &(u, v) in edges {
        if u >= n || v >= n {
            return Err(BbgnnError::InvalidGraph {
                reason: format!("edge ({u}, {v}) out of bounds for {n} nodes"),
                node: None,
                edge: Some((u, v)),
            });
        }
        if u == v && !policy.allow_self_loops {
            return Err(BbgnnError::InvalidGraph {
                reason: format!("undeclared self-loop at node {u}"),
                node: Some(u),
                edge: Some((u, v)),
            });
        }
    }
    for (v, row) in (0..n).map(|v| (v, features.row(v))) {
        if let Some((col, value)) = row
            .iter()
            .enumerate()
            .find(|(_, x)| !x.is_finite())
            .map(|(j, &x)| (j, x))
        {
            return Err(BbgnnError::InvalidGraph {
                reason: format!("non-finite feature {value} at node {v}, column {col}"),
                node: Some(v),
                edge: None,
            });
        }
    }
    if let Some((v, &y)) = labels.iter().enumerate().find(|(_, &y)| y >= num_classes) {
        return Err(BbgnnError::InvalidGraph {
            reason: format!("label {y} at node {v} exceeds num_classes = {num_classes}"),
            node: Some(v),
            edge: None,
        });
    }
    for (name, set) in [
        ("train", &split.train),
        ("valid", &split.valid),
        ("test", &split.test),
    ] {
        if let Some(&v) = set.iter().find(|&&v| v >= n) {
            return Err(BbgnnError::InvalidGraph {
                reason: format!("{name} split references node {v} of {n}"),
                node: Some(v),
                edge: None,
            });
        }
    }
    Ok(())
}

/// Validates that a CSR adjacency is symmetric, reporting the first
/// asymmetric pair as [`BbgnnError::InvalidGraph`].
pub fn validate_symmetric(adj: &CsrMatrix) -> BbgnnResult<()> {
    if adj.rows() != adj.cols() {
        return Err(BbgnnError::InvalidGraph {
            reason: format!("adjacency is {}x{}, not square", adj.rows(), adj.cols()),
            node: None,
            edge: None,
        });
    }
    for u in 0..adj.rows() {
        for (v, w) in adj.row_iter(u) {
            let wt = adj.get(v, u);
            if (w - wt).abs() > 1e-12 {
                return Err(BbgnnError::InvalidGraph {
                    reason: format!("asymmetric adjacency: A[{u},{v}] = {w} but A[{v},{u}] = {wt}"),
                    node: None,
                    edge: Some((u, v)),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    type Parts = (
        usize,
        Vec<(usize, usize)>,
        DenseMatrix,
        Vec<usize>,
        usize,
        Split,
    );

    fn parts() -> Parts {
        (
            4,
            vec![(0, 1), (1, 2), (2, 3)],
            DenseMatrix::identity(4),
            vec![0, 1, 0, 1],
            2,
            Split::trivial(4),
        )
    }

    #[test]
    fn clean_parts_validate() {
        let (n, e, x, y, k, s) = parts();
        assert!(validate_parts(n, &e, &x, &y, k, &s, &ValidationPolicy::default()).is_ok());
    }

    #[test]
    fn nan_feature_names_first_offending_node() {
        let (n, e, mut x, y, k, s) = parts();
        x.set(2, 1, f64::NAN);
        match validate_parts(n, &e, &x, &y, k, &s, &ValidationPolicy::default()) {
            Err(BbgnnError::InvalidGraph {
                node: Some(2),
                reason,
                ..
            }) => {
                assert!(
                    reason.contains("column 1"),
                    "reason must locate the bit: {reason}"
                );
            }
            other => panic!("expected InvalidGraph at node 2, got {other:?}"),
        }
    }

    #[test]
    fn self_loop_rejected_unless_declared() {
        let (n, mut e, x, y, k, s) = parts();
        e.push((3, 3));
        assert!(matches!(
            validate_parts(n, &e, &x, &y, k, &s, &ValidationPolicy::default()),
            Err(BbgnnError::InvalidGraph {
                edge: Some((3, 3)),
                ..
            })
        ));
        assert!(validate_parts(n, &e, &x, &y, k, &s, &ValidationPolicy::with_self_loops()).is_ok());
    }

    #[test]
    fn out_of_range_label_names_node() {
        let (n, e, x, mut y, k, s) = parts();
        y[1] = 7;
        assert!(matches!(
            validate_parts(n, &e, &x, &y, k, &s, &ValidationPolicy::default()),
            Err(BbgnnError::InvalidGraph { node: Some(1), .. })
        ));
    }

    #[test]
    fn split_out_of_bounds_is_invalid() {
        let (n, e, x, y, k, mut s) = parts();
        s.test.push(99);
        assert!(validate_parts(n, &e, &x, &y, k, &s, &ValidationPolicy::default()).is_err());
    }

    #[test]
    fn asymmetric_adjacency_names_edge() {
        let adj = CsrMatrix::from_triplets(3, 3, [(0, 1, 1.0)]);
        assert!(matches!(
            validate_symmetric(&adj),
            Err(BbgnnError::InvalidGraph {
                edge: Some((0, 1)),
                ..
            })
        ));
        let sym = CsrMatrix::from_triplets(3, 3, [(0, 1, 1.0), (1, 0, 1.0)]);
        assert!(validate_symmetric(&sym).is_ok());
    }
}
