//! Compressed sparse row (CSR) matrices.
//!
//! Policy-graph incidence matrices `P_G` and transformed workloads `W_G` are
//! extremely sparse (two nonzeros per column for `P_G`, boundary-edge
//! patterns for range queries), so the core crate stores them in CSR form
//! and only densifies for the small lower-bound eigenproblems.
//!
//! ## Layout and invariants
//!
//! [`SparseMatrix`] is classic three-array CSR: `indptr` (length
//! `rows + 1`), `indices` (column of each stored value, ascending within a
//! row), and `values`, with no explicit zeros, so structural equality
//! (`PartialEq`) means numerical equality. Matrices come from
//! [`TripletBuilder`], which accepts `(row, col, value)` pushes in any
//! order — including repeats of the same coordinate — and canonicalizes
//! on [`TripletBuilder::build`]: duplicates are summed, and entries whose
//! sum is exactly `0.0` are dropped. This is what lets incidence assembly
//! push one triplet per edge endpoint without pre-deduping.
//!
//! ## Kernels
//!
//! Everything on the plan-derivation hot path is O(nnz) per application:
//! [`SparseMatrix::matvec`] / [`SparseMatrix::matvec_transpose`].

use crate::dense::Matrix;
use crate::LinalgError;

/// A builder collecting `(row, col, value)` triplets before compression.
#[derive(Clone, Debug, Default)]
pub struct TripletBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletBuilder {
    /// Creates a builder for a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`. Duplicate coordinates are summed on
    /// compression.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Compresses the triplets into a CSR matrix, summing duplicate
    /// `(row, col)` coordinates and dropping entries whose sum is exactly
    /// `0.0`, so the result is canonical: sorted column indices per row,
    /// at most one stored value per coordinate, and no explicit zeros.
    pub fn build(mut self) -> SparseMatrix {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        indptr.push(0);
        let mut current_row = 0usize;
        let mut i = 0usize;
        let entries = &self.entries;
        while i < entries.len() {
            let (r, c, _) = entries[i];
            // Sum the run of triplets sharing this (row, col) coordinate.
            let mut sum = 0.0;
            while i < entries.len() && entries[i].0 == r && entries[i].1 == c {
                sum += entries[i].2;
                i += 1;
            }
            if sum == 0.0 {
                continue; // duplicates cancelled exactly — keep CSR canonical
            }
            while current_row < r {
                indptr.push(indices.len());
                current_row += 1;
            }
            indices.push(c);
            values.push(sum);
        }
        while current_row < self.rows {
            indptr.push(indices.len());
            current_row += 1;
        }
        SparseMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            values,
        }
    }
}

/// A CSR sparse matrix of `f64` values.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// Row pointer array of length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices of nonzeros, row by row.
    indices: Vec<usize>,
    /// Nonzero values aligned with `indices`.
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Sparse identity of size `n`.
    #[cfg(test)]
    pub fn identity(n: usize) -> Self {
        SparseMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
        }
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterator over the `(col, value)` pairs of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Number of nonzeros in row `i`.
    #[cfg(test)]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Reads entry `(i, j)` (O(row nnz)).
    #[cfg(test)]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row(i).find(|&(c, _)| c == j).map_or(0.0, |(_, v)| v)
    }

    /// Sparse matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                got: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, v) in self.row(i) {
                acc += v * x[j];
            }
            *yi = acc;
        }
        Ok(y)
    }

    /// Transposed product `self^T * x`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, 1),
                got: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, v) in self.row(i) {
                y[j] += v * xi;
            }
        }
        Ok(y)
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Maximum column L1 norm (the unbounded-DP sensitivity of the matrix
    /// viewed as a query workload).
    #[cfg(test)]
    pub fn max_col_l1(&self) -> f64 {
        let mut norms = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                norms[j] += v.abs();
            }
        }
        norms.into_iter().fold(0.0_f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut b = TripletBuilder::new(3, 3);
        b.push(0, 0, 1.0);
        b.push(0, 2, 2.0);
        b.push(2, 0, 3.0);
        b.push(2, 1, 4.0);
        b.build()
    }

    #[test]
    fn build_and_get() {
        let m = small();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(1, 1);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.5);
        let m = b.build();
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn duplicates_are_summed_across_interleaved_pushes() {
        // Pushes arrive out of order and interleaved with other
        // coordinates (the incidence-assembly pattern: one triplet per
        // edge endpoint, no pre-deduping).
        let mut b = TripletBuilder::new(3, 3);
        b.push(2, 1, 1.0);
        b.push(0, 2, 4.0);
        b.push(2, 1, 2.0);
        b.push(1, 1, 7.0);
        b.push(2, 1, 3.0);
        b.push(0, 2, -1.0);
        let m = b.build();
        assert_eq!(m.get(2, 1), 6.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 1), 7.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn same_column_different_rows_never_merge() {
        let mut b = TripletBuilder::new(3, 1);
        b.push(0, 0, 1.0);
        b.push(2, 0, 5.0);
        let m = b.build();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(2, 0), 5.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn exact_cancellation_drops_the_entry() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.5);
        b.push(0, 0, -1.5);
        b.push(1, 1, 2.0);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.row_nnz(0), 0);
        // Canonical form: a cancelled build equals a never-pushed build.
        let mut b2 = TripletBuilder::new(2, 2);
        b2.push(1, 1, 2.0);
        assert_eq!(m, b2.build());
    }

    #[test]
    fn matvec_and_transpose() {
        let m = small();
        let y = m.matvec(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 0.0, 7.0]);
        let yt = m.matvec_transpose(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(yt, vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn identity_matvec() {
        let i = SparseMatrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x).unwrap(), x);
    }

    #[test]
    fn col_norms() {
        let m = small();
        assert_eq!(m.max_col_l1(), 4.0);
    }

    #[test]
    fn shape_errors() {
        let m = small();
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.matvec_transpose(&[1.0]).is_err());
    }
}
