//! Dense row-major `f64` matrices.
//!
//! This is the workhorse type behind workload matrices (`W`), strategy
//! matrices (`A`), and the small symmetric systems solved by the lower-bound
//! machinery. The hot kernels are tuned for the plan-and-serve path:
//!
//! * [`Matrix::matmul`] is register-blocked (four strategy rows per sweep of
//!   the output row) and transpose-aware — inner loops only ever walk
//!   contiguous rows, never strided columns;
//! * [`Matrix::gram`] (`AᵀA`) accumulates into row tails via slices, and
//!   [`Matrix::gram_t`] (`AAᵀ`) reduces to unrolled row-pair dot products,
//!   so neither ever materializes a transpose;
//! * [`dot`] and [`Matrix::matvec`] run four independent accumulators so
//!   the FP add chain is not the bottleneck;
//! * [`Matrix::col_view`] is an allocation-free column view for callers
//!   that must read a strided column without copying (e.g. the
//!   eigenvector permutation in `jacobi_eigh`); the LU/Cholesky block
//!   solves use transpose-once / right-looking row sweeps instead.
//!
//! The straightforward implementations are kept as [`Matrix::matmul_naive`]
//! and [`Matrix::gram_naive`]; property tests
//! (`tests/linalg_properties.rs`) pin the optimized kernels to them within
//! `1e-9` across random shapes. Optimized kernels may reassociate
//! floating-point sums, so results are bit-close, not bit-identical, to the
//! naive references.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

use crate::LinalgError;

/// A dense row-major matrix of `f64` values.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (rows, cols),
                got: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix from a slice of rows. All rows must share a length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        if rows.iter().any(|row| row.len() != c) {
            return Err(LinalgError::RaggedRows);
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Builds a diagonal matrix from `diag`.
    #[cfg(test)]
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Allocation-free view of column `j` (strided access into the
    /// row-major buffer).
    ///
    /// Panics when `j` is out of range — the strided iterator would
    /// otherwise silently yield a wrong-shaped column in release builds.
    #[inline]
    pub fn col_view(&self, j: usize) -> ColView<'_> {
        assert!(
            j < self.cols,
            "column {j} out of range ({} cols)",
            self.cols
        );
        ColView {
            data: &self.data,
            stride: self.cols,
            offset: j,
        }
    }

    /// Mutable access to the underlying row-major buffer (used by the
    /// factorization kernels to split rows without aliasing).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `self * x` (fused unrolled dot per row).
    ///
    /// Returns an error when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                got: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = dot(self.row(i), x);
        }
        Ok(y)
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// i-k-j loop order with 4-way register blocking over `k`: each sweep of
    /// the output row folds in four rows of `other` at once, quartering the
    /// output-row load/store traffic, and every inner loop walks contiguous
    /// memory. Blocks of zero coefficients (common in strategy matrices)
    /// are skipped.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, self.cols),
                got: (other.rows, other.cols),
            });
        }
        let p = other.cols;
        let n = self.cols;
        let mut out = Matrix::zeros(self.rows, p);
        for i in 0..self.rows {
            let arow = self.row(i);
            let orow = &mut out.data[i * p..(i + 1) * p];
            let mut k = 0;
            while k + 4 <= n {
                let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                if a0 != 0.0 || a1 != 0.0 || a2 != 0.0 || a3 != 0.0 {
                    let b0 = &other.data[k * p..(k + 1) * p];
                    let b1 = &other.data[(k + 1) * p..(k + 2) * p];
                    let b2 = &other.data[(k + 2) * p..(k + 3) * p];
                    let b3 = &other.data[(k + 3) * p..(k + 4) * p];
                    for j in 0..p {
                        orow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                    }
                }
                k += 4;
            }
            while k < n {
                let aik = arow[k];
                if aik != 0.0 {
                    let brow = &other.data[k * p..(k + 1) * p];
                    for (o, &b) in orow.iter_mut().zip(brow) {
                        *o += aik * b;
                    }
                }
                k += 1;
            }
        }
        Ok(out)
    }

    /// Reference i-k-j matrix product without register blocking. Kept as
    /// the equivalence baseline for [`Matrix::matmul`] (property tests pin
    /// the two within `1e-9`).
    pub fn matmul_naive(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, self.cols),
                got: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Computes the Gram matrix `self^T * self` exploiting symmetry.
    ///
    /// Accumulates each output-row tail through slices (no per-entry index
    /// arithmetic); same accumulation order as [`Matrix::gram_naive`].
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                let gtail = &mut g.data[i * n + i..(i + 1) * n];
                for (gv, &rv) in gtail.iter_mut().zip(&row[i..]) {
                    *gv += ri * rv;
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g.data[i * n + j] = g.data[j * n + i];
            }
        }
        g
    }

    /// Reference entry-indexed Gram computation. Kept as the equivalence
    /// baseline for [`Matrix::gram`] / [`Matrix::gram_t`].
    pub fn gram_naive(&self) -> Matrix {
        let n = self.cols;
        let mut g = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// The outer Gram matrix `self * self^T` computed directly from row
    /// pairs (`(AAᵀ)_{ij} = ⟨row_i, row_j⟩`) — transpose-aware: equivalent
    /// to `self.transpose().gram()` without ever materializing the
    /// transpose.
    pub fn gram_t(&self) -> Matrix {
        let m = self.rows;
        let mut g = Matrix::zeros(m, m);
        for i in 0..m {
            for j in i..m {
                let v = dot(self.row(i), self.row(j));
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        g
    }

    /// Scales every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Returns a copy scaled by `s`.
    pub fn scaled(&self, s: f64) -> Matrix {
        let mut m = self.clone();
        m.scale_mut(s);
        m
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum column L1 norm — the L1 operator norm, which is exactly the
    /// (unbounded) differential-privacy sensitivity of a query matrix.
    pub fn max_col_l1(&self) -> f64 {
        let mut norms = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (n, &v) in norms.iter_mut().zip(self.row(i)) {
                *n += v.abs();
            }
        }
        norms.into_iter().fold(0.0_f64, f64::max)
    }

    /// Sum of squares of row `i` (used for per-query matrix-mechanism error).
    pub fn row_sq_norm(&self, i: usize) -> f64 {
        self.row(i).iter().map(|v| v * v).sum()
    }

    /// Entrywise approximate comparison within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
            .expect("matrix multiplication shape mismatch")
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let cshow = self.cols.min(10);
            for j in 0..cshow {
                write!(f, "{:9.4}", self[(i, j)])?;
                if j + 1 < cshow {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 10 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// An allocation-free, strided view of one matrix column. Created by
/// [`Matrix::col_view`]; use it wherever a column must be read without
/// copying (e.g. the eigenvector permutation in `jacobi_eigh`).
#[derive(Clone, Copy, Debug)]
pub struct ColView<'a> {
    data: &'a [f64],
    stride: usize,
    offset: usize,
}

impl ColView<'_> {
    /// Entry `i` of the column.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.data[self.offset + i * self.stride]
    }
}

impl Index<usize> for ColView<'_> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.data[self.offset + i * self.stride]
    }
}

/// Dot product of two equal-length slices, unrolled over four independent
/// accumulators so the floating-point add latency chain is not the
/// bottleneck. Reassociates the sum relative to a sequential fold (results
/// are bit-close, not bit-identical, for lengths above 4).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let head = n - n % 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let mut i = 0;
    while i < head {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    let mut s = (s0 + s1) + (s2 + s3);
    while i < n {
        s += a[i] * b[i];
        i += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!((0..2).all(|i| z.row(i).iter().all(|&v| v == 0.0)));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
        assert_eq!(i.row(2), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn from_vec_shape_checked() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(0, 1)], 2.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matvec_known() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0]).unwrap();
        let y = m.matvec(&[3.0, 2.0, 1.0]).unwrap();
        assert_eq!(y, vec![5.0, 4.0]);
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::identity(2);
        assert!(m.matmul(&i).unwrap().approx_eq(&m, 0.0));
        assert!(i.matmul(&m).unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_vec(2, 2, vec![58.0, 64.0, 139.0, 154.0]).unwrap();
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn gram_matches_explicit() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 0.0, -1.0, 3.0, 1.0]).unwrap();
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(g.approx_eq(&explicit, 1e-12));
        assert!(g.approx_eq(&a.gram_naive(), 0.0));
    }

    #[test]
    fn gram_t_matches_transposed_gram() {
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 0.0, -1.0, 3.0, 1.0]).unwrap();
        let gt = a.gram_t();
        assert_eq!(gt.shape(), (3, 3));
        assert!(gt.approx_eq(&a.transpose().gram(), 1e-12));
        assert!(gt.approx_eq(&a.matmul(&a.transpose()).unwrap(), 1e-12));
    }

    #[test]
    fn blocked_matmul_matches_naive() {
        // Shapes straddling the 4-way unroll boundary, with zero blocks.
        for (m, k, p) in [(3usize, 4usize, 5usize), (5, 9, 3), (2, 11, 7)] {
            let mut a = Matrix::zeros(m, k);
            let mut b = Matrix::zeros(k, p);
            for i in 0..m {
                for j in 0..k {
                    a[(i, j)] = if (i + j) % 3 == 0 {
                        0.0
                    } else {
                        (i * k + j) as f64 - 3.0
                    };
                }
            }
            for i in 0..k {
                for j in 0..p {
                    b[(i, j)] = ((i * p + j) % 5) as f64 - 2.0;
                }
            }
            let fast = a.matmul(&b).unwrap();
            let naive = a.matmul_naive(&b).unwrap();
            assert!(fast.approx_eq(&naive, 1e-9), "{m}x{k}x{p}");
        }
    }

    #[test]
    fn col_view_matches_col() {
        let m = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let v = m.col_view(1);
        assert_eq!(v.get(2), 6.0);
        assert_eq!(v[0], 2.0);
    }

    #[test]
    fn max_col_l1_is_sensitivity() {
        // C_k (prefix sums) has sensitivity k: the first column is all ones.
        let k = 5;
        let mut c = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..=i {
                c[(i, j)] = 1.0;
            }
        }
        assert_eq!(c.max_col_l1(), k as f64);
        assert_eq!(Matrix::identity(k).max_col_l1(), 1.0);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn operators() {
        let a = Matrix::identity(2);
        let b = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let s = &a + &b;
        assert_eq!(s[(0, 1)], 1.0);
        let d = &s - &b;
        assert!(d.approx_eq(&a, 0.0));
        let n = -&a;
        assert_eq!(n[(0, 0)], -1.0);
        let p = &a * &b;
        assert!(p.approx_eq(&b, 0.0));
    }

    #[test]
    fn row_sq_norm_and_norms() {
        let m = Matrix::from_vec(2, 2, vec![3.0, 4.0, 1.0, 0.0]).unwrap();
        assert_eq!(m.row_sq_norm(0), 25.0);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - 26.0_f64.sqrt()).abs() < 1e-12);
    }
}
