//! Row-major dense `f64` matrices and the numeric kernels built on them.
//!
//! [`DenseMatrix`] is the workhorse value type of the workspace: autodiff
//! tensors, GNN weights, relaxed adjacency matrices and feature matrices are
//! all `DenseMatrix` values. The kernels here favour contiguous row slices
//! and `ikj` loop ordering so rustc can vectorize the inner loops.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A dense, row-major matrix of `f64` values.
///
/// Invariant: `data.len() == rows * cols`. Row `i` occupies
/// `data[i*cols .. (i+1)*cols]`.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of rows (each inner slice is one row).
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix with entries drawn i.i.d. from `U(-scale, scale)`.
    pub fn uniform(rows: usize, cols: usize, scale: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        Self { rows, cols, data }
    }

    /// Creates a matrix with Glorot/Xavier uniform initialization, the
    /// scheme used by the reference GCN implementation.
    pub fn glorot(rows: usize, cols: usize, seed: u64) -> Self {
        let scale = (6.0 / (rows + cols) as f64).sqrt();
        Self::uniform(rows, cols, scale, seed)
    }

    /// Creates a matrix with entries drawn i.i.d. from `N(0, std^2)` using a
    /// Box–Muller transform (keeps us off `rand_distr`).
    pub fn gaussian(rows: usize, cols: usize, std: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rows * cols;
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < n {
                data.push(r * theta.sin() * std);
            }
        }
        Self { rows, cols, data }
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// FNV-1a fingerprint of the shape and the IEEE-754 bit pattern of
    /// every entry (see [`crate::content_hash`]). Used by the artifact
    /// store to key cached computations; bitwise-equal matrices — and only
    /// those — hash equal.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::content_hash::Fnv1a::new();
        h.bytes(b"dense");
        h.usize(self.rows);
        h.usize(self.cols);
        h.f64s(&self.data);
        h.finish()
    }

    /// Returns element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to element `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Immutable slice of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable slice of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    ///
    /// Allocates per call; hot paths should use [`DenseMatrix::col_into`]
    /// with a reused buffer or the allocation-free
    /// [`DenseMatrix::col_iter`].
    pub fn col(&self, j: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.col_into(j, &mut out);
        out
    }

    /// Copies column `j` into `out` without allocating.
    ///
    /// # Panics
    /// Panics if `out.len() != self.rows()` or `j` is out of bounds.
    pub fn col_into(&self, j: usize, out: &mut [f64]) {
        assert!(
            j < self.cols,
            "column {j} out of bounds for {} cols",
            self.cols
        );
        assert_eq!(out.len(), self.rows, "col_into buffer length mismatch");
        for (o, src) in out
            .iter_mut()
            .zip(self.data[j..].iter().step_by(self.cols.max(1)))
        {
            *o = *src;
        }
    }

    /// Strided, allocation-free iterator over column `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of bounds.
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(
            j < self.cols,
            "column {j} out of bounds for {} cols",
            self.cols
        );
        self.data[j..].iter().step_by(self.cols.max(1)).copied()
    }

    /// Overwrites column `j` with `vals`.
    ///
    /// # Panics
    /// Panics if `vals.len() != self.rows()` or `j` is out of bounds.
    pub fn set_col(&mut self, j: usize, vals: &[f64]) {
        assert!(
            j < self.cols,
            "column {j} out of bounds for {} cols",
            self.cols
        );
        assert_eq!(vals.len(), self.rows, "set_col buffer length mismatch");
        let cols = self.cols;
        for (dst, &v) in self.data[j..].iter_mut().step_by(cols.max(1)).zip(vals) {
            *dst = v;
        }
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Matrix product `self * rhs` via the blocked, multi-threaded kernel
    /// ([`crate::kernels::matmul_into`]); bitwise identical to the naive
    /// `ikj` reference loop for every thread count.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        let pool = crate::kernels::ThreadPool::default();
        crate::kernels::matmul_into(self, rhs, &mut out, &pool);
        out
    }

    /// `self^T * rhs` without materializing the transpose, via the
    /// row-partitioned kernel ([`crate::kernels::matmul_tn_into`]).
    pub fn matmul_tn(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, rhs.cols);
        let pool = crate::kernels::ThreadPool::default();
        crate::kernels::matmul_tn_into(self, rhs, &mut out, &pool);
        out
    }

    /// `self * rhs^T` without materializing the transpose, via the
    /// row-partitioned kernel ([`crate::kernels::matmul_nt_into`]).
    pub fn matmul_nt(&self, rhs: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.rows, rhs.rows);
        let pool = crate::kernels::ThreadPool::default();
        crate::kernels::matmul_nt_into(self, rhs, &mut out, &pool);
        out
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &DenseMatrix) -> DenseMatrix {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &DenseMatrix) -> DenseMatrix {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&self, rhs: &DenseMatrix) -> DenseMatrix {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Elementwise combine with `f`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_with(&self, rhs: &DenseMatrix, f: impl Fn(f64, f64) -> f64) -> DenseMatrix {
        assert_eq!(self.shape(), rhs.shape(), "elementwise shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += alpha * rhs` (axpy).
    pub fn axpy(&mut self, alpha: f64, rhs: &DenseMatrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Returns `self` scaled by `alpha`.
    pub fn scale(&self, alpha: f64) -> DenseMatrix {
        self.map(|v| v * alpha)
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales column `j` of the output by `scales[j]` (i.e. `self * diag(scales)`).
    pub fn scale_cols(&self, scales: &[f64]) -> DenseMatrix {
        assert_eq!(scales.len(), self.cols, "scale_cols length mismatch");
        let mut out = self.clone();
        for i in 0..self.rows {
            for (v, &s) in out.row_mut(i).iter_mut().zip(scales) {
                *v *= s;
            }
        }
        out
    }

    /// Sum of every entry.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-column sums as a vector of length `cols`.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (acc, &v) in out.iter_mut().zip(self.row(i)) {
                *acc += v;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Lp norm of row `i` (`p >= 1`).
    pub fn row_lp_norm(&self, i: usize, p: f64) -> f64 {
        lp_norm(self.row(i), p)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Index `(i, j)` of the maximum entry; ties resolve to the first.
    pub fn argmax(&self) -> (usize, usize) {
        let mut best = f64::NEG_INFINITY;
        let mut idx = 0;
        for (k, &v) in self.data.iter().enumerate() {
            if v > best {
                best = v;
                idx = k;
            }
        }
        (idx / self.cols, idx % self.cols)
    }

    /// Per-row argmax indices (the prediction rule for classifier outputs).
    pub fn row_argmax(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|i| {
                let row = self.row(i);
                let mut best = 0;
                for j in 1..row.len() {
                    if row[j] > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Extracts the sub-matrix formed by `row_indices` (rows copied in the
    /// given order).
    pub fn select_rows(&self, row_indices: &[usize]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(row_indices.len(), self.cols);
        for (k, &i) in row_indices.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Symmetrizes in place: `self = (self + self^T) / 2`.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self.get(i, j) + self.get(j, i));
                self.set(i, j, m);
                self.set(j, i, m);
            }
        }
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Maximum absolute elementwise difference to `rhs`.
    pub fn max_abs_diff(&self, rhs: &DenseMatrix) -> f64 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff shape mismatch");
        self.data
            .iter()
            .zip(&rhs.data)
            .fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

/// Lp norm of a slice (`p >= 1`); `p = 1` and `p = 2` take fast paths.
pub fn lp_norm(v: &[f64], p: f64) -> f64 {
    if p == 1.0 {
        v.iter().map(|x| x.abs()).sum()
    } else if p == 2.0 {
        v.iter().map(|x| x * x).sum::<f64>().sqrt()
    } else {
        v.iter().map(|x| x.abs().powf(p)).sum::<f64>().powf(1.0 / p)
    }
}

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Cosine similarity between two slices; zero vectors yield 0.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = lp_norm(a, 2.0);
    let nb = lp_norm(b, 2.0);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let m = DenseMatrix::uniform(4, 4, 1.0, 7);
        let i = DenseMatrix::identity(4);
        assert!(m.matmul(&i).max_abs_diff(&m) < 1e-12);
        assert!(i.matmul(&m).max_abs_diff(&m) < 1e-12);
    }

    #[test]
    fn matmul_matches_hand_computed() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = DenseMatrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        let expected = DenseMatrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]);
        assert!(c.max_abs_diff(&expected) < 1e-12);
    }

    #[test]
    fn matmul_tn_and_nt_match_explicit_transpose() {
        let a = DenseMatrix::uniform(5, 3, 1.0, 1);
        let b = DenseMatrix::uniform(5, 4, 1.0, 2);
        let c = DenseMatrix::uniform(6, 3, 1.0, 3);
        assert!(a.matmul_tn(&b).max_abs_diff(&a.transpose().matmul(&b)) < 1e-12);
        assert!(a.matmul_nt(&c).max_abs_diff(&a.matmul(&c.transpose())) < 1e-12);
    }

    #[test]
    fn transpose_involution() {
        let m = DenseMatrix::uniform(3, 5, 2.0, 42);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn col_scaling() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let c = m.scale_cols(&[2.0, 0.5]);
        assert_eq!(c.row(0), &[2.0, 1.0]);
        assert_eq!(c.row(1), &[6.0, 2.0]);
    }

    #[test]
    fn reductions() {
        let m = DenseMatrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(m.sum(), 6.0);
        assert_eq!(m.col_sums(), vec![4.0, 2.0]);
        assert_eq!(m.max_abs(), 4.0);
        assert_eq!(m.argmax(), (1, 1));
        assert_eq!(m.row_argmax(), vec![0, 1]);
    }

    #[test]
    fn lp_norms() {
        let v = [3.0, -4.0];
        assert_eq!(lp_norm(&v, 1.0), 7.0);
        assert_eq!(lp_norm(&v, 2.0), 5.0);
        assert!((lp_norm(&v, 3.0) - 91.0_f64.powf(1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn cosine() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn symmetrize() {
        let mut m = DenseMatrix::from_rows(&[&[1.0, 4.0], &[2.0, 1.0]]);
        m.symmetrize();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn select_rows() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let m = DenseMatrix::gaussian(100, 100, 2.0, 9);
        let mean = m.sum() / 10_000.0;
        let var = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / 10_000.0;
        assert!(mean.abs() < 0.1, "mean {mean} too far from 0");
        assert!((var - 4.0).abs() < 0.3, "var {var} too far from 4");
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
