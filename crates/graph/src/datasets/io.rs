//! Plain-text dataset persistence.
//!
//! Format (one directory per dataset):
//!
//! * `meta.txt` — `nodes classes feature_dim` on one line;
//! * `edges.txt` — one `u v` pair per line (undirected, any order);
//! * `features.txt` — per node, the indices of its active feature bits
//!   (space-separated; empty line = no active bits). `identity` on the
//!   first line means identity features;
//! * `labels.txt` — one label per line;
//! * `split.txt` — three lines: train, valid, test node indices.
//!
//! This is deliberately simple so the real Cora/Citeseer/Polblogs data can
//! be exported from DeepRobust with a few lines of Python and dropped in.
//!
//! Every failure — unreadable file, malformed line, or a graph that fails
//! [`validation`](crate::validate) — comes back as a
//! [`BbgnnError`] naming the offending file, so
//! a truncated dataset directory is a diagnosis, not a panic.

use crate::splits::Split;
use crate::Graph;
use bbgnn_errors::{BbgnnError, BbgnnResult, ErrorContext};
use bbgnn_linalg::DenseMatrix;
use std::fs;
use std::path::Path;

/// `DatasetIo` error naming `path`.
fn io_err(path: &Path, message: impl std::fmt::Display) -> BbgnnError {
    BbgnnError::DatasetIo {
        path: path.display().to_string(),
        message: message.to_string(),
    }
}

/// Reads a whole file, naming it on failure.
fn read_file(path: &Path) -> BbgnnResult<String> {
    fs::read_to_string(path).map_err(|e| io_err(path, e))
}

/// Writes a whole file, naming it on failure.
fn write_file(path: &Path, contents: &str) -> BbgnnResult<()> {
    fs::write(path, contents).map_err(|e| io_err(path, e))
}

/// Parses one whitespace token, naming the file and describing the token on
/// failure.
fn parse_token<T: std::str::FromStr>(
    token: Option<&str>,
    path: &Path,
    what: &str,
) -> BbgnnResult<T> {
    let token = token.ok_or_else(|| io_err(path, format!("missing {what}")))?;
    token
        .parse()
        .map_err(|_| io_err(path, format!("malformed {what}: {token:?}")))
}

/// Saves `g` into directory `dir` (created if missing).
pub fn save(g: &Graph, dir: &Path) -> BbgnnResult<()> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    write_file(
        &dir.join("meta.txt"),
        &format!("{} {} {}\n", g.num_nodes(), g.num_classes, g.feature_dim()),
    )?;
    let mut edges = String::new();
    for (u, v) in g.edges() {
        edges.push_str(&format!("{u} {v}\n"));
    }
    write_file(&dir.join("edges.txt"), &edges)?;

    let identity = is_identity(&g.features);
    let mut feats = String::new();
    if identity {
        feats.push_str("identity\n");
    } else {
        for v in 0..g.num_nodes() {
            let active: Vec<String> = g
                .features
                .row(v)
                .iter()
                .enumerate()
                .filter(|(_, &x)| x != 0.0)
                .map(|(j, _)| j.to_string())
                .collect();
            feats.push_str(&active.join(" "));
            feats.push('\n');
        }
    }
    write_file(&dir.join("features.txt"), &feats)?;

    let labels: String = g.labels.iter().map(|y| format!("{y}\n")).collect();
    write_file(&dir.join("labels.txt"), &labels)?;

    let mut split = String::new();
    for set in [&g.split.train, &g.split.valid, &g.split.test] {
        let line: Vec<String> = set.iter().map(|v| v.to_string()).collect();
        split.push_str(&line.join(" "));
        split.push('\n');
    }
    write_file(&dir.join("split.txt"), &split)
}

/// Loads a graph previously written by [`save`] (or exported externally in
/// the same format), validating it on the way in.
pub fn load(dir: &Path) -> BbgnnResult<Graph> {
    // Deterministic fault site (DESIGN.md §11): lets the chaos suite
    // exercise the DatasetIo recovery path without a broken file on disk.
    if bbgnn_supervise::fault_at("fault/dataset_io").is_some() {
        return Err(io_err(dir, "injected fault (BBGNN_FAULTS)"));
    }
    let meta_path = dir.join("meta.txt");
    let meta = read_file(&meta_path)?;
    let mut it = meta.split_whitespace();
    let n: usize = parse_token(it.next(), &meta_path, "node count")?;
    let classes: usize = parse_token(it.next(), &meta_path, "class count")?;
    let dim: usize = parse_token(it.next(), &meta_path, "feature dim")?;
    if n.checked_mul(dim).is_none() {
        return Err(io_err(
            &meta_path,
            format!("{n} nodes × feature dim {dim} overflows the feature matrix size"),
        ));
    }

    let edges_path = dir.join("edges.txt");
    let mut edges = Vec::new();
    for line in read_file(&edges_path)?.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let mut p = line.split_whitespace();
        let u: usize = parse_token(p.next(), &edges_path, "edge endpoint")?;
        let v: usize = parse_token(p.next(), &edges_path, "edge endpoint")?;
        edges.push((u, v));
    }

    // The label count bounds the node count before anything of size `n`
    // is allocated.
    let labels_path = dir.join("labels.txt");
    let labels: Vec<usize> = read_file(&labels_path)?
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| parse_token(Some(l.trim()), &labels_path, "label"))
        .collect::<BbgnnResult<_>>()?;
    if labels.len() != n {
        return Err(io_err(
            &meta_path,
            format!(
                "node count {n} differs from the {} labels in labels.txt",
                labels.len()
            ),
        ));
    }

    let feats_path = dir.join("features.txt");
    let feats_text = read_file(&feats_path)?;
    let features = if feats_text.trim_start().starts_with("identity") {
        DenseMatrix::identity(n)
    } else {
        let mut x = DenseMatrix::zeros(n, dim);
        for (v, line) in feats_text.lines().enumerate().take(n) {
            for tok in line.split_whitespace() {
                let j: usize = parse_token(Some(tok), &feats_path, "feature index")?;
                if j >= dim {
                    return Err(io_err(
                        &feats_path,
                        format!("feature index {j} out of range for dim {dim} (node {v})"),
                    ));
                }
                x.set(v, j, 1.0);
            }
        }
        x
    };

    let split_path = dir.join("split.txt");
    let split_text = read_file(&split_path)?;
    let mut sets = split_text.lines().map(|line| {
        line.split_whitespace()
            .map(|t| parse_token(Some(t), &split_path, "split index"))
            .collect::<BbgnnResult<Vec<usize>>>()
    });
    let train = sets.next().transpose()?.unwrap_or_default();
    let valid = sets.next().transpose()?.unwrap_or_default();
    let test = sets.next().transpose()?.unwrap_or_default();

    Graph::try_new(
        n,
        &edges,
        features,
        labels,
        classes,
        Split { train, valid, test },
    )
    .with_context(|| format!("loading dataset from {}", dir.display()))
}

fn is_identity(m: &DenseMatrix) -> bool {
    if m.rows() != m.cols() {
        return false;
    }
    for i in 0..m.rows() {
        for (j, &v) in m.row(i).iter().enumerate() {
            if (i == j && v != 1.0) || (i != j && v != 0.0) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::DatasetSpec;

    #[test]
    fn roundtrip_preserves_graph() {
        let g = DatasetSpec::CoraLike.generate(0.05, 9);
        let dir = std::env::temp_dir().join("bbgnn_io_roundtrip");
        save(&g, &dir).unwrap();
        let h = load(&dir).unwrap();
        assert_eq!(g.num_nodes(), h.num_nodes());
        assert_eq!(g.num_edges(), h.num_edges());
        assert_eq!(g.labels, h.labels);
        assert_eq!(g.features, h.features);
        assert_eq!(g.split.train, h.split.train);
        assert_eq!(g.split.test, h.split.test);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_identity_features() {
        let g = DatasetSpec::PolblogsLike.generate(0.05, 9);
        let dir = std::env::temp_dir().join("bbgnn_io_roundtrip_id");
        save(&g, &dir).unwrap();
        let h = load(&dir).unwrap();
        assert_eq!(g.features, h.features);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_missing_dir_errors() {
        match load(Path::new("/nonexistent/bbgnn")) {
            Err(e) => {
                let msg = e.root_cause().to_string();
                assert!(
                    msg.contains("/nonexistent/bbgnn"),
                    "error must name the path: {msg}"
                );
            }
            Ok(_) => panic!("loading a missing directory must fail"),
        }
    }

    #[test]
    fn truncated_dataset_dir_names_the_missing_file() {
        // Fault injection: a partially copied dataset (meta + edges only)
        // must produce a diagnosis naming the first missing file.
        let g = DatasetSpec::CoraLike.generate(0.05, 9);
        let dir = std::env::temp_dir().join("bbgnn_io_truncated");
        save(&g, &dir).unwrap();
        fs::remove_file(dir.join("labels.txt")).unwrap();
        match load(&dir) {
            Err(e) => {
                let msg = e.root_cause().to_string();
                assert!(
                    msg.contains("labels.txt"),
                    "error must name the missing file: {msg}"
                );
            }
            Ok(_) => panic!("loading a truncated dataset directory must fail"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_meta_names_the_file() {
        let dir = std::env::temp_dir().join("bbgnn_io_bad_meta");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.txt"), "twelve 3 4\n").unwrap();
        match load(&dir) {
            Err(BbgnnError::DatasetIo { path, message }) => {
                assert!(path.ends_with("meta.txt"), "wrong file named: {path}");
                assert!(
                    message.contains("node count"),
                    "unhelpful message: {message}"
                );
            }
            other => panic!("expected DatasetIo, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes `meta`, two labels and one feature line into a fresh
    /// directory, loads it, and returns the message of the `DatasetIo`
    /// error that must name `meta.txt`.
    fn meta_refusal(name: &str, meta: &str) -> String {
        let dir = std::env::temp_dir().join(name);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.txt"), meta).unwrap();
        fs::write(dir.join("labels.txt"), "0\n1\n").unwrap();
        fs::write(dir.join("features.txt"), "5\n").unwrap();
        fs::write(dir.join("edges.txt"), "").unwrap();
        fs::write(dir.join("split.txt"), "0\n1\n\n").unwrap();
        let result = load(&dir);
        let _ = fs::remove_dir_all(&dir);
        match result {
            Err(BbgnnError::DatasetIo { path, message }) => {
                assert!(path.ends_with("meta.txt"), "wrong file named: {path}");
                message
            }
            other => panic!("expected DatasetIo, got {other:?}"),
        }
    }

    /// A node count × feature dim past `usize` is a diagnosis, not an
    /// overflow panic (debug) or an out-of-bounds index into a wrapped,
    /// empty buffer (release).
    #[test]
    fn overflowing_meta_sizes_name_the_file() {
        let message = meta_refusal("bbgnn_io_meta_overflow", "4294967296 2 4294967296\n");
        assert!(
            message.contains("overflows"),
            "unhelpful message: {message}"
        );
    }

    /// A node count the labels do not back is refused before the feature
    /// matrix (here 800 MB) is allocated.
    #[test]
    fn node_count_must_match_the_labels() {
        let message = meta_refusal("bbgnn_io_meta_labels", "100000 2 1000\n");
        assert!(
            message.contains("labels.txt"),
            "unhelpful message: {message}"
        );
    }
}
