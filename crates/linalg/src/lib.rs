//! # blowfish-linalg
//!
//! Self-contained dense + sparse linear algebra for the `blowfish-privacy`
//! workspace — the numerical substrate behind the policy-aware private
//! mechanisms of *Haney, Machanavajjhala & Ding, "Design of Policy-Aware
//! Differentially Private Algorithms" (VLDB 2015)*.
//!
//! The paper's machinery needs, concretely:
//!
//! * workload matrices and their products (dense + CSR sparse),
//! * Moore–Penrose pseudoinverses for the dense reference matrix
//!   mechanism `M_A(W, x) = Wx + WA⁺ Lap(Δ_A/ε)` (Eq. 2),
//! * dense Cholesky and LU solves,
//! * symmetric eigendecompositions and singular values for the Appendix-A
//!   SVD lower bounds (Figure 10).
//!
//! No external linear-algebra crates are used; everything here is
//! implemented from scratch and cross-checked by redundant algorithms
//! (QL vs Jacobi eigensolvers, Cholesky vs LU solves).

pub mod cholesky;
pub mod dense;
pub mod eigen;
pub mod lu;
pub mod sparse;
pub mod svd;

pub use cholesky::Cholesky;
pub use dense::{dot, ColView, Matrix};
pub use eigen::{eigenvalues, eigh, jacobi_eigh, sqrt_psd, SymmetricEigen};
pub use lu::Lu;
pub use sparse::{SparseMatrix, TripletBuilder};
pub use svd::{
    is_pseudoinverse, pseudoinverse, pseudoinverse_eigen, pseudoinverse_with_method,
    singular_values, PinvMethod,
};

/// Errors reported by the linear-algebra substrate.
#[derive(Clone, Debug, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible.
    ShapeMismatch {
        /// The shape the operation required.
        expected: (usize, usize),
        /// The shape it received.
        got: (usize, usize),
    },
    /// A square matrix was required.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// Rows of differing lengths were supplied to a row-wise constructor.
    RaggedRows,
    /// Cholesky pivot failure: the matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// A negative eigenvalue was found where a PSD matrix was required.
    NotPositiveSemidefinite {
        /// The offending eigenvalue.
        eigenvalue: f64,
    },
    /// LU pivot failure: the matrix is numerically singular.
    Singular {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// An iterative method exhausted its iteration budget.
    NoConvergence {
        /// Human-readable description of the method.
        what: &'static str,
        /// The iteration budget that was exhausted.
        iterations: usize,
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "square matrix required, got {rows}x{cols}")
            }
            LinalgError::RaggedRows => write!(f, "rows have differing lengths"),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::NotPositiveSemidefinite { eigenvalue } => {
                write!(f, "matrix is not PSD (eigenvalue {eigenvalue})")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is numerically singular (pivot {pivot})")
            }
            LinalgError::NoConvergence { what, iterations } => {
                write!(f, "{what} did not converge within {iterations} iterations")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = LinalgError::ShapeMismatch {
            expected: (2, 2),
            got: (3, 1),
        };
        assert!(e.to_string().contains("shape mismatch"));
        let e = LinalgError::NoConvergence {
            what: "jacobi",
            iterations: 10,
        };
        assert!(e.to_string().contains("did not converge"));
    }

    #[test]
    fn cross_module_smoke() {
        // P_G for a 3-vertex line with ⊥ at the right (Figure 2 of the
        // paper): P = [[1,0,0],[-1,1,0],[0,-1,1]], whose inverse is the
        // prefix-sum matrix C_3.
        let p =
            Matrix::from_vec(3, 3, vec![1.0, 0.0, 0.0, -1.0, 1.0, 0.0, 0.0, -1.0, 1.0]).unwrap();
        let inv = Lu::factor(&p).unwrap().inverse().unwrap();
        let mut c3 = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..=i {
                c3[(i, j)] = 1.0;
            }
        }
        assert!(inv.approx_eq(&c3, 1e-12));
        // And the pseudoinverse agrees with the true inverse here.
        let pinv = pseudoinverse(&p).unwrap();
        assert!(pinv.approx_eq(&c3, 1e-8));
    }
}
