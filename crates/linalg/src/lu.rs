//! Dense LU factorization with partial pivoting.
//!
//! General-purpose square solver used for inverting tree incidence matrices
//! (`P_G` is square and invertible when `G` is a tree) and anywhere a system
//! is not symmetric positive-definite.

use crate::dense::Matrix;
use crate::LinalgError;

/// LU factorization `P A = L U` with partial pivoting.
#[derive(Clone, Debug)]
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper, on/above).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row in position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// Returns [`LinalgError::Singular`] when a pivot column is numerically
    /// zero.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = a.max_abs().max(1.0);
        for col in 0..n {
            // Partial pivot: largest magnitude in this column at/below row.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= 1e-13 * scale {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                perm.swap(pivot_row, col);
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
            }
            let p = lu[(col, col)];
            for r in (col + 1)..n {
                let m = lu[(r, col)] / p;
                lu[(r, col)] = m;
                if m != 0.0 {
                    for j in (col + 1)..n {
                        let v = lu[(col, j)];
                        lu[(r, j)] -= m * v;
                    }
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, 1),
                got: (b.len(), 1),
            });
        }
        // Apply permutation, then forward/backward substitution.
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let row = self.lu.row(i);
            let mut v = y[i];
            for k in 0..i {
                v -= row[k] * y[k];
            }
            y[i] = v;
        }
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut v = y[i];
            for k in (i + 1)..n {
                v -= row[k] * y[k];
            }
            y[i] = v / row[i];
        }
        Ok(y)
    }

    /// Solves `A X = B` column by column (transpose-once pattern: `B` is
    /// transposed a single time so each column solve reads a contiguous
    /// row instead of allocating a strided column copy).
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.lu.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, b.cols()),
                got: b.shape(),
            });
        }
        let bt = b.transpose();
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve(bt.row(j))?;
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// The inverse `A⁻¹`.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.lu.rows()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_vec(3, 3, vec![2.0, 1.0, 1.0, 1.0, 3.0, 2.0, 1.0, 0.0, 0.0]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[4.0, 5.0, 6.0]).unwrap();
        let ax = a.matvec(&x).unwrap();
        for (u, v) in ax.iter().zip(&[4.0, 5.0, 6.0]) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_vec(3, 3, vec![1.0, 2.0, 3.0, 0.0, 1.0, 4.0, 5.0, 6.0, 0.0]).unwrap();
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        assert!(a
            .matmul(&inv)
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-9));
        assert!(inv
            .matmul(&a)
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-9));
    }

    #[test]
    fn rejects_singular() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_sum_matrix_inverts_to_differences() {
        // C_k (lower-triangular ones) is the inverse of P_G for the line
        // policy (Example 4.1 in the paper). Its inverse is the forward
        // difference matrix.
        let k = 5;
        let mut c = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..=i {
                c[(i, j)] = 1.0;
            }
        }
        let inv = Lu::factor(&c).unwrap().inverse().unwrap();
        for i in 0..k {
            for j in 0..k {
                let expected = if i == j {
                    1.0
                } else if j + 1 == i {
                    -1.0
                } else {
                    0.0
                };
                assert!((inv[(i, j)] - expected).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(Lu::factor(&Matrix::zeros(2, 3)).is_err());
    }
}
