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
//! (`PartialEq`) means numerical equality. Matrices come from one of two
//! constructors:
//!
//! * [`TripletBuilder`] accepts `(row, col, value)` pushes in any order —
//!   including repeats of the same coordinate — and canonicalizes on
//!   [`TripletBuilder::build`]: duplicates are summed, and entries whose
//!   sum is exactly `0.0` are dropped. This is what lets incidence
//!   assembly push one triplet per edge endpoint without pre-deduping.
//! * [`SparseMatrix::from_csr`] takes the three arrays of a matrix whose
//!   builder already emits rows in order (the dyadic strategies, the Haar
//!   basis, its rotation), checks the invariants in one O(nnz) pass, and
//!   stores them as given: no triplet list and no sort.
//!
//! ## Kernels
//!
//! Everything on the plan-derivation hot path is O(nnz) per application:
//! [`SparseMatrix::matvec`] / [`SparseMatrix::matvec_transpose`] (plus
//! allocation-free `_into` variants for solver inner loops),
//! [`SparseMatrix::col_sq_norms`] (the diagonal of `AᵀA`), and
//! [`SparseMatrix::max_col_l1`] (the L1 sensitivity `Δ_A`).
//! [`SparseMatrix::gram_lower`] materializes the lower triangle of `AᵀA`,
//! the only half a Cholesky factorization reads, and costs
//! O(Σᵢ nnz(rowᵢ)²) — fine for bounded-row-degree inputs like incidence
//! matrices, but a dense trap for strategies with a full row (e.g. the
//! hierarchical root); the matrix mechanism rotates such strategies into
//! the [`crate::dyadic_haar_basis`] first ([`crate::haar_rotate`]), where
//! the gram is sparse.

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

    /// Number of (uncompressed) entries collected so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been collected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
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
    /// An empty (all-zero) `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        TripletBuilder::new(rows, cols).build()
    }

    /// Sparse identity of size `n`.
    pub fn identity(n: usize) -> Self {
        SparseMatrix::from_csr(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
            .expect("the identity is canonical CSR")
    }

    /// Assembles a matrix from its CSR arrays, checking the canonical form
    /// in one O(nnz) pass: `indptr` has `rows + 1` nondecreasing entries
    /// from `0` to `nnz`, every row's column indices ascend strictly and
    /// stay below `cols`, and no stored value is `0.0`. The arrays are
    /// kept as given, so a builder that sizes them exactly leaves no
    /// growth slack behind.
    pub fn from_csr(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<SparseMatrix, LinalgError> {
        let invalid = |reason| Err(LinalgError::InvalidCsr { reason });
        if indptr.len() != rows + 1 || indptr[0] != 0 {
            return invalid("indptr must hold rows + 1 offsets starting at 0");
        }
        if indptr[rows] != indices.len() || values.len() != indices.len() {
            return invalid("indptr, indices and values disagree on nnz");
        }
        for w in indptr.windows(2) {
            if w[0] > w[1] || w[1] > indices.len() {
                return invalid("indptr must be nondecreasing");
            }
            let row = &indices[w[0]..w[1]];
            if row.windows(2).any(|p| p[0] >= p[1]) || row.last().is_some_and(|&j| j >= cols) {
                return invalid("column indices must ascend within a row and stay below cols");
            }
        }
        if values.contains(&0.0) {
            return invalid("explicit zeros are not stored");
        }
        Ok(SparseMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
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
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Reads entry `(i, j)` (O(row nnz)).
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

    /// Allocation-free `self * x`, writing into `y` (`y.len() == rows`).
    ///
    /// The workhorse of iterative solvers: CG calls this once per
    /// iteration, so the buffers are caller-owned and reused.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.cols || y.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, self.rows),
                got: (x.len(), y.len()),
            });
        }
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, v) in self.row(i) {
                acc += v * x[j];
            }
            *yi = acc;
        }
        Ok(())
    }

    /// Allocation-free `self^T * x`, writing into `y` (`y.len() == cols`).
    pub fn matvec_transpose_into(&self, x: &[f64], y: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, self.cols),
                got: (x.len(), y.len()),
            });
        }
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, v) in self.row(i) {
                y[j] += v * xi;
            }
        }
        Ok(())
    }

    /// The lower triangle of the Gram matrix `AᵀA`, diagonal included, as
    /// CSR — the half [`crate::SparseCholesky::factor`] reads.
    ///
    /// Row `i` accumulates `A[r, i]·A[r, j]` for `j ≤ i` over the rows `r`
    /// of column `i` in ascending order, the summation order of
    /// `self.transpose().matmul(self)`, so every entry it keeps is
    /// bit-identical to that product's, and an entry that cancels to
    /// exactly `0.0` is dropped the same way. The cost is
    /// O(Σᵢ nnz(rowᵢ)²): O(nnz) for bounded-row-degree inputs (incidence
    /// matrices, θ-spanner rows), but a strategy with one dense row (the
    /// hierarchical root, the Haar total row) makes `AᵀA` itself dense —
    /// for those, form the gram of the strategy rotated into the
    /// [`crate::dyadic_haar_basis`] ([`crate::haar_rotate`]) instead.
    pub fn gram_lower(&self) -> SparseMatrix {
        let at = self.transpose();
        let n = self.cols;
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        let mut acc = vec![0.0f64; n];
        let mut occupied = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..n {
            for (r, v) in at.row(i) {
                for (j, w) in self.row(r) {
                    if j > i {
                        break; // columns ascend: the rest is upper triangle
                    }
                    if !occupied[j] {
                        occupied[j] = true;
                        touched.push(j);
                    }
                    acc[j] += v * w;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                if acc[j] != 0.0 {
                    indices.push(j);
                    values.push(acc[j]);
                }
                acc[j] = 0.0;
                occupied[j] = false;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        SparseMatrix {
            rows: n,
            cols: n,
            indptr,
            indices,
            values,
        }
    }

    /// Per-column squared L2 norms — the diagonal of `AᵀA`, computed in
    /// O(nnz) without materializing the Gram matrix.
    pub fn col_sq_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                norms[j] += v * v;
            }
        }
        norms
    }

    /// Fraction of entries stored: `nnz / (rows * cols)` (0 for an empty
    /// shape). The engine's plan-path chooser keys off this.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Transpose as a new CSR matrix (counting pass, no triplet sort: a
    /// CSR walk emits each output row's columns in ascending order).
    pub fn transpose(&self) -> SparseMatrix {
        let nnz = self.nnz();
        let mut indptr = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            indptr[j + 1] += 1;
        }
        for j in 0..self.cols {
            indptr[j + 1] += indptr[j];
        }
        let mut next = indptr.clone();
        let mut indices = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                let slot = next[j];
                indices[slot] = i;
                values[slot] = v;
                next[j] += 1;
            }
        }
        SparseMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Sparse-sparse product `self * other` (CSR x CSR -> CSR).
    pub fn matmul(&self, other: &SparseMatrix) -> Result<SparseMatrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, self.cols),
                got: (other.rows, other.cols),
            });
        }
        // Sparse accumulation per output row; each row's touched set is
        // sorted locally and appended, so no global triplet sort.
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        let mut acc: Vec<f64> = vec![0.0; other.cols];
        let mut occupied: Vec<bool> = vec![false; other.cols];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            for (k, v) in self.row(i) {
                for (j, w) in other.row(k) {
                    if !occupied[j] {
                        occupied[j] = true;
                        touched.push(j);
                    }
                    acc[j] += v * w;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                if acc[j] != 0.0 {
                    indices.push(j);
                    values.push(acc[j]);
                }
                acc[j] = 0.0;
                occupied[j] = false;
            }
            touched.clear();
            indptr.push(indices.len());
        }
        Ok(SparseMatrix {
            rows: self.rows,
            cols: other.cols,
            indptr,
            indices,
            values,
        })
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

    /// Builds a CSR matrix from a dense one, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> SparseMatrix {
        let mut b = TripletBuilder::new(m.rows(), m.cols());
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }

    /// Maximum column L1 norm (the unbounded-DP sensitivity of the matrix
    /// viewed as a query workload).
    pub fn max_col_l1(&self) -> f64 {
        let mut norms = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                norms[j] += v.abs();
            }
        }
        norms.into_iter().fold(0.0_f64, f64::max)
    }

    /// Per-column L1 norms.
    pub fn col_l1_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, v) in self.row(i) {
                norms[j] += v.abs();
            }
        }
        norms
    }

    /// Scales all values by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.values {
            *v *= s;
        }
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
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(2, 0), 2.0);
        // (M^T)^T == M
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_dense() {
        let m = small();
        let p = m.matmul(&m.transpose()).unwrap();
        let dense = m.to_dense();
        let expected = dense.matmul(&dense.transpose()).unwrap();
        assert!(p.to_dense().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn dense_roundtrip() {
        let m = small();
        let rt = SparseMatrix::from_dense(&m.to_dense());
        assert_eq!(rt, m);
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
        assert_eq!(m.col_l1_norms(), vec![4.0, 4.0, 2.0]);
        assert_eq!(m.max_col_l1(), 4.0);
    }

    #[test]
    fn shape_errors() {
        let m = small();
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.matvec_transpose(&[1.0]).is_err());
        assert!(m.matmul(&SparseMatrix::identity(2)).is_err());
    }

    #[test]
    fn scale() {
        let mut m = small();
        m.scale_mut(2.0);
        assert_eq!(m.get(2, 1), 8.0);
    }

    #[test]
    fn matvec_into_matches_allocating_kernels() {
        let m = small();
        let x = [1.0, -2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.matvec_into(&x, &mut y).unwrap();
        assert_eq!(y, m.matvec(&x).unwrap());
        let mut yt = vec![7.0; 3]; // stale contents must be overwritten
        m.matvec_transpose_into(&x, &mut yt).unwrap();
        assert_eq!(yt, m.matvec_transpose(&x).unwrap());
        assert!(m.matvec_into(&x, &mut [0.0; 2]).is_err());
        assert!(m.matvec_transpose_into(&[1.0], &mut yt).is_err());
    }

    #[test]
    fn gram_matches_dense_reference() {
        let m = small();
        let dense = m.to_dense();
        let expected = dense.transpose().matmul(&dense).unwrap();
        let g = m.gram_lower();
        // A gram of a matrix with an empty row/col stays square.
        assert_eq!((g.rows(), g.cols()), (3, 3));
        for i in 0..3 {
            for j in 0..3 {
                let want = if j <= i { expected[(i, j)] } else { 0.0 };
                assert!((g.get(i, j) - want).abs() < 1e-12, "({i},{j})");
            }
        }
    }

    #[test]
    fn col_sq_norms_is_gram_diagonal() {
        let m = small();
        let g = m.gram_lower();
        let sq = m.col_sq_norms();
        for (j, &s) in sq.iter().enumerate() {
            assert!((g.get(j, j) - s).abs() < 1e-12);
        }
        assert_eq!(sq, vec![10.0, 16.0, 4.0]);
    }

    #[test]
    fn from_csr_checks_the_canonical_form() {
        let m = small();
        let rebuilt = SparseMatrix::from_csr(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        assert_eq!(rebuilt, m);
        let bad = |indptr: Vec<usize>, indices: Vec<usize>, values: Vec<f64>| {
            matches!(
                SparseMatrix::from_csr(2, 3, indptr, indices, values),
                Err(LinalgError::InvalidCsr { .. })
            )
        };
        assert!(bad(vec![0, 1], vec![0], vec![1.0])); // too few offsets
        assert!(bad(vec![1, 1, 1], vec![0], vec![1.0])); // not from 0
        assert!(bad(vec![0, 1, 2], vec![0, 1], vec![1.0])); // nnz disagree
        assert!(bad(vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0])); // decreasing
        assert!(bad(vec![0, 2, 2], vec![1, 0], vec![1.0, 1.0])); // unsorted
        assert!(bad(vec![0, 2, 2], vec![1, 1], vec![1.0, 1.0])); // repeated
        assert!(bad(vec![0, 1, 1], vec![3], vec![1.0])); // column out of range
        assert!(bad(vec![0, 1, 1], vec![0], vec![0.0])); // explicit zero
        assert_eq!(SparseMatrix::identity(0).nnz(), 0);
    }

    #[test]
    fn density_reports_fill_fraction() {
        assert_eq!(small().density(), 4.0 / 9.0);
        assert_eq!(SparseMatrix::zeros(0, 5).density(), 0.0);
        assert_eq!(SparseMatrix::identity(8).density(), 1.0 / 8.0);
    }
}
