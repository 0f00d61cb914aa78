//! Compressed-sparse-row matrices for graph propagation.
//!
//! Graph adjacency matrices in this workspace are symmetric 0/1 matrices,
//! but [`CsrMatrix`] is a general real CSR container so that normalized
//! adjacencies (`D^{-1/2}(A+I)D^{-1/2}`) and attention-weighted graphs can
//! reuse the same SpMM kernel.

use crate::DenseMatrix;

/// A compressed-sparse-row matrix.
///
/// Invariants: `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`,
/// `row_ptr[rows] == col_idx.len() == values.len()`, and column indices are
/// strictly increasing within each row.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from unsorted COO triplets; duplicate entries are
    /// summed.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut entries: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates in place.
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(entries.len());
        for (r, c, v) in entries {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds {rows}x{cols}"
            );
            match merged.last_mut() {
                Some((lr, lc, lv)) if *lr == r && *lc == c => *lv += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        let mut current_row = 0;
        for (r, c, v) in merged {
            while current_row < r {
                current_row += 1;
                row_ptr[current_row] = col_idx.len();
            }
            col_idx.push(c);
            values.push(v);
        }
        while current_row < rows {
            current_row += 1;
            row_ptr[current_row] = col_idx.len();
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts a dense matrix to CSR, keeping entries with `|v| > tol`.
    pub fn from_dense(m: &DenseMatrix, tol: f64) -> Self {
        let mut row_ptr = Vec::with_capacity(m.rows() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v.abs() > tol {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows: m.rows(),
            cols: m.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                out.set(i, self.col_idx[k], self.values[k]);
            }
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored values, row-major.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Row-pointer array (`rows + 1` entries, see the struct invariants).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices of every stored entry, row-major.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// Builds a CSR matrix directly from its raw arrays, validating the
    /// struct invariants (monotone `row_ptr`, strictly increasing in-bounds
    /// columns per row). The artifact store uses this to reconstruct a
    /// matrix bitwise from its serialized parts.
    pub fn try_from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, String> {
        if rows.checked_add(1) != Some(row_ptr.len()) || row_ptr.first() != Some(&0) {
            return Err(format!("row_ptr length {} != rows+1", row_ptr.len()));
        }
        if row_ptr.last() != Some(&col_idx.len()) || col_idx.len() != values.len() {
            return Err("row_ptr/col_idx/values lengths disagree".to_string());
        }
        for i in 0..rows {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            if lo > hi || hi > col_idx.len() {
                return Err(format!("row_ptr not monotone at row {i}"));
            }
            let mut prev: Option<usize> = None;
            for &c in &col_idx[lo..hi] {
                if c >= cols || prev.is_some_and(|p| p >= c) {
                    return Err(format!("bad column order in row {i}"));
                }
                prev = Some(c);
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// FNV-1a fingerprint of the full CSR structure and value bits (see
    /// [`crate::content_hash`]). A single moved edge or reweighted entry
    /// changes the hash — the store's anti-aliasing guarantee.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::content_hash::Fnv1a::new();
        h.bytes(b"csr");
        h.usize(self.rows);
        h.usize(self.cols);
        h.usizes(&self.row_ptr);
        h.usizes(&self.col_idx);
        h.f64s(&self.values);
        h.finish()
    }

    /// A matrix with `self`'s sparsity pattern and new stored `values`,
    /// one per stored entry in row-major order. This is how an
    /// edge-valued tensor (GAT's attention weights over the `A + I`
    /// pattern) reaches the SpMM kernels.
    ///
    /// # Panics
    /// Panics if `values.len() != self.nnz()`.
    pub fn with_values(&self, values: Vec<f64>) -> CsrMatrix {
        assert_eq!(
            values.len(),
            self.nnz(),
            "with_values: one value per stored entry"
        );
        Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values,
        }
    }

    /// `self` without its stored zeros (`+0.0` and `-0.0`): the entries a
    /// dense product skips when its other operand is not all finite (see
    /// [`crate::kernels::matmul_into`]).
    pub fn without_zeros(&self) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i).filter(|&(_, v)| v != 0.0) {
                col_idx.push(j);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Iterator over `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Column indices of row `i`.
    pub fn row_cols(&self, i: usize) -> &[usize] {
        &self.col_idx[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Value at `(i, j)`, or 0 if not stored (binary search within the row).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Sparse × dense product `self * rhs`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn spmm(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols());
        let pool = crate::kernels::ThreadPool::default();
        crate::kernels::spmm_into(self, rhs, &mut out, &pool);
        out
    }

    /// Sparse × dense vector product.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "spmv dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *o = acc;
        }
        out
    }

    /// Per-row sums (weighted degrees for adjacency matrices).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|i| {
                self.values[self.row_ptr[i]..self.row_ptr[i + 1]]
                    .iter()
                    .sum()
            })
            .collect()
    }

    /// Returns `D^{-1/2} (self + I) D^{-1/2}`, the GCN symmetric
    /// normalization of Kipf & Welling, where `D` is the degree matrix of
    /// `self + I`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn gcn_normalize(&self) -> CsrMatrix {
        assert_eq!(
            self.rows, self.cols,
            "gcn_normalize requires a square matrix"
        );
        let with_loops = self.add_identity(1.0);
        let deg = with_loops.row_sums();
        let inv_sqrt: Vec<f64> = deg
            .iter()
            .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
            .collect();
        let mut out = with_loops;
        for i in 0..out.rows {
            for k in out.row_ptr[i]..out.row_ptr[i + 1] {
                out.values[k] *= inv_sqrt[i] * inv_sqrt[out.col_idx[k]];
            }
        }
        out
    }

    /// Returns `self + alpha * I`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn add_identity(&self, alpha: f64) -> CsrMatrix {
        assert_eq!(
            self.rows, self.cols,
            "add_identity requires a square matrix"
        );
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(self.nnz() + self.rows);
        for i in 0..self.rows {
            let mut has_diag = false;
            for (j, v) in self.row_iter(i) {
                let v = if j == i {
                    has_diag = true;
                    v + alpha
                } else {
                    v
                };
                triplets.push((i, j, v));
            }
            if !has_diag {
                triplets.push((i, i, alpha));
            }
        }
        CsrMatrix::from_triplets(self.rows, self.cols, triplets)
    }

    /// Transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> = (0..self.rows)
            .flat_map(|i| self.row_iter(i).map(move |(j, v)| (j, i, v)))
            .collect();
        CsrMatrix::from_triplets(self.cols, self.rows, triplets)
    }

    /// Maximum absolute asymmetry `max |A[i][j] - A[j][i]|` (0 for symmetric).
    pub fn asymmetry(&self) -> f64 {
        let t = self.transpose();
        let mut m = 0.0_f64;
        for i in 0..self.rows {
            for (j, v) in self.row_iter(i) {
                m = m.max((v - t.get(i, j)).abs());
            }
            for (j, v) in t.row_iter(i) {
                m = m.max((v - self.get(i, j)).abs());
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // 0 - 1, 1 - 2 undirected path graph.
        CsrMatrix::from_triplets(
            3,
            3,
            vec![(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
        )
    }

    #[test]
    fn dense_roundtrip() {
        let m = small();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(m, back);
    }

    #[test]
    fn get_and_row_iter() {
        let m = small();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(0, 2), 0.0);
        let row1: Vec<_> = m.row_iter(1).collect();
        assert_eq!(row1, vec![(0, 1.0), (2, 1.0)]);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = small();
        let x = DenseMatrix::uniform(3, 4, 1.0, 3);
        let sparse = m.spmm(&x);
        let dense = m.to_dense().matmul(&x);
        assert!(sparse.max_abs_diff(&dense) < 1e-12);
    }

    #[test]
    fn with_values_keeps_the_pattern_and_without_zeros_drops_stored_zeros() {
        let m = small();
        let w = m.with_values(vec![2.0, 0.0, -0.0, 3.0]);
        assert_eq!(w.row_ptr(), m.row_ptr());
        assert_eq!(w.col_indices(), m.col_indices());
        assert_eq!(w.values(), &[2.0, 0.0, -0.0, 3.0]);
        let nz = w.without_zeros();
        assert_eq!(nz.values(), &[2.0, 3.0]);
        assert_eq!(
            nz.row_cols(1),
            &[] as &[usize],
            "both of row 1's entries were zeros"
        );
        assert_eq!(nz.to_dense(), w.to_dense());
    }

    #[test]
    fn spmv_matches_spmm() {
        let m = small();
        let x = vec![1.0, 2.0, 3.0];
        let via_mm = m.spmm(&DenseMatrix::from_vec(3, 1, x.clone()));
        assert_eq!(m.spmv(&x), via_mm.as_slice().to_vec());
    }

    #[test]
    fn gcn_normalize_rows_of_regular_graph() {
        // Triangle: every node has degree 2, +1 self loop => d = 3.
        let tri = CsrMatrix::from_triplets(
            3,
            3,
            vec![
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (0, 2, 1.0),
                (2, 0, 1.0),
            ],
        );
        let n = tri.gcn_normalize();
        for i in 0..3 {
            for j in 0..3 {
                assert!((n.get(i, j) - 1.0 / 3.0).abs() < 1e-12);
            }
        }
        // Row sums of a normalized regular graph are 1.
        for s in n.row_sums() {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gcn_normalize_handles_isolated_nodes() {
        let m = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 0.0)]);
        let n = m.gcn_normalize();
        // Isolated node with self-loop: d=1, normalized self-loop weight 1.
        assert!((n.get(0, 0) - 1.0).abs() < 1e-12);
        assert!((n.get(1, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn add_identity_merges_diagonal() {
        let m = CsrMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]);
        let p = m.add_identity(2.0);
        assert_eq!(p.get(0, 0), 3.0);
        assert_eq!(p.get(1, 1), 2.0);
        assert_eq!(p.get(0, 1), 1.0);
    }

    #[test]
    fn transpose_and_symmetry() {
        let m = small();
        assert_eq!(m.transpose(), m);
        assert_eq!(m.asymmetry(), 0.0);
        let asym = CsrMatrix::from_triplets(2, 2, vec![(0, 1, 1.0)]);
        assert_eq!(asym.asymmetry(), 1.0);
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, vec![(0, 1, 1.0), (0, 1, 2.0)]);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = CsrMatrix::from_triplets(4, 4, vec![(3, 0, 1.0)]);
        assert_eq!(m.row_cols(0), &[] as &[usize]);
        assert_eq!(m.row_cols(3), &[0]);
        assert_eq!(m.row_sums(), vec![0.0, 0.0, 0.0, 1.0]);
    }
}
