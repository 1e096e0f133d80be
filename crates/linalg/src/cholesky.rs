//! Dense Cholesky factorization for symmetric positive-definite systems.
//!
//! This is the planning kernel behind the matrix-mechanism pseudoinverse
//! (`A⁺` via the normal equations, see [`crate::svd::pseudoinverse`]).
//! The factorization is the row-oriented Cholesky–Crout
//! variant whose inner loops are unrolled [`dot`] products over row
//! prefixes, and the triangular substitutions run *right-looking* so both
//! the forward and backward passes only ever touch contiguous rows of `L`
//! — [`Cholesky::solve_matrix`] performs whole-row axpy updates on the
//! RHS block instead of solving (and allocating) column by column.

use crate::dense::{dot, Matrix};
use crate::LinalgError;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot drops below
    /// a tiny positive tolerance (the matrix is singular or indefinite).
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        // Row-oriented Cholesky–Crout: row i is completed in one pass, with
        // every inner reduction a dot product of two finished row prefixes.
        for i in 0..n {
            let (done, rest) = l.as_mut_slice().split_at_mut(i * n);
            let lrow = &mut rest[..n];
            for j in 0..i {
                let ljrow = &done[j * n..j * n + j];
                let s = a[(i, j)] - dot(&lrow[..j], ljrow);
                lrow[j] = s / done[j * n + j];
            }
            let diag = a[(i, i)] - dot(&lrow[..i], &lrow[..i]);
            if diag <= 1e-12 * (1.0 + a[(i, i)].abs()) {
                return Err(LinalgError::NotPositiveDefinite { pivot: i });
            }
            lrow[i] = diag.sqrt();
        }
        Ok(Cholesky { l })
    }

    /// Solves `A x = b` via forward/backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, 1),
                got: (b.len(), 1),
            });
        }
        // Forward: L y = b (dot over the finished prefix).
        let mut y = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            y[i] = (y[i] - dot(&row[..i], &y[..i])) / row[i];
        }
        // Backward: Lᵀ x = y, right-looking — once x_i is known, its
        // contribution `L[i][k]·x_i` is pushed into every earlier equation
        // using row `i` of `L` (contiguous), instead of gathering the
        // strided column `L[·][i]`.
        for i in (0..n).rev() {
            let row = self.l.row(i);
            let xi = y[i] / row[i];
            y[i] = xi;
            if xi != 0.0 {
                for (yk, &lik) in y[..i].iter_mut().zip(&row[..i]) {
                    *yk -= lik * xi;
                }
            }
        }
        Ok(y)
    }

    /// Solves `A X = B` for a whole RHS block at once: the forward and
    /// backward substitutions run as row-axpy updates over `B`'s rows, so
    /// no per-column gather or allocation happens (this is what makes
    /// [`Cholesky::inverse`] and the solve-based pseudoinverse paths
    /// cheap).
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, b.cols()),
                got: b.shape(),
            });
        }
        let p = b.cols();
        let mut y = b.clone();
        // Forward: L Y = B.
        for i in 0..n {
            let lrow = self.l.row(i);
            let (above, rest) = y.as_mut_slice().split_at_mut(i * p);
            let yrow = &mut rest[..p];
            for (k, &lik) in lrow[..i].iter().enumerate() {
                if lik != 0.0 {
                    let yk = &above[k * p..(k + 1) * p];
                    for (v, &u) in yrow.iter_mut().zip(yk) {
                        *v -= lik * u;
                    }
                }
            }
            let d = lrow[i];
            for v in yrow.iter_mut() {
                *v /= d;
            }
        }
        // Backward: Lᵀ X = Y, right-looking over rows.
        for i in (0..n).rev() {
            let lrow = self.l.row(i);
            let (above, rest) = y.as_mut_slice().split_at_mut(i * p);
            {
                let xrow = &mut rest[..p];
                let d = lrow[i];
                for v in xrow.iter_mut() {
                    *v /= d;
                }
            }
            let xrow = &rest[..p];
            for (k, &lik) in lrow[..i].iter().enumerate() {
                if lik != 0.0 {
                    let yk = &mut above[k * p..(k + 1) * p];
                    for (u, &x) in yk.iter_mut().zip(xrow) {
                        *u -= lik * x;
                    }
                }
            }
        }
        Ok(y)
    }

    /// The inverse `A⁻¹` (solve against the identity).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.l.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = B^T B + I for a random-ish B, guaranteed SPD.
        Matrix::from_vec(3, 3, vec![5.0, 2.0, 1.0, 2.0, 6.0, 2.0, 1.0, 2.0, 4.0]).unwrap()
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let l = &ch.l;
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_matches_direct() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 3.0];
        let x = ch.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn solve_matrix_identity_gives_inverse() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve_matrix(&Matrix::identity(3)).unwrap();
        let prod = a.matmul(&x).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn grounded_laplacian_of_path_is_spd() {
        // P P^T for the 4-vertex line policy with ⊥ attached at the right
        // end: vertex degrees (1, 2, 2, 2), off-diagonal -1. SPD because the
        // ⊥ edge grounds the Laplacian.
        let grounded = Matrix::from_vec(
            4,
            4,
            vec![
                1.0, -1.0, 0.0, 0.0, //
                -1.0, 2.0, -1.0, 0.0, //
                0.0, -1.0, 2.0, -1.0, //
                0.0, 0.0, -1.0, 2.0,
            ],
        )
        .unwrap();
        assert!(Cholesky::factor(&grounded).is_ok());

        // The ordinary (ungrounded) path Laplacian is singular and must be
        // rejected.
        let singular = Matrix::from_vec(
            4,
            4,
            vec![
                1.0, -1.0, 0.0, 0.0, //
                -1.0, 2.0, -1.0, 0.0, //
                0.0, -1.0, 2.0, -1.0, //
                0.0, 0.0, -1.0, 1.0,
            ],
        )
        .unwrap();
        assert!(Cholesky::factor(&singular).is_err());
    }
}
