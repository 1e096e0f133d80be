//! Singular values and Moore–Penrose pseudoinverses.
//!
//! The matrix mechanism (Section 4.1 / Eq. 2 of the paper) needs `A⁺` for a
//! strategy matrix `A`, and the transformational-equivalence machinery needs
//! the right inverse `P_G⁻¹ = P_Gᵀ (P_G P_Gᵀ)⁻¹`. The Appendix-A lower
//! bounds need singular values of transformed workloads.
//!
//! Singular values are obtained from the eigenvalues of the Gram matrix
//! (`σᵢ(A)² = λᵢ(AᵀA)`), which is accurate to ~√ε of machine precision —
//! more than enough for error bounds that are plotted on log-scale axes.

use crate::cholesky::Cholesky;
use crate::dense::Matrix;
use crate::eigen::eigh;
use crate::LinalgError;

/// Singular values of `a` in descending order.
///
/// Computed from the smaller of the two Gram matrices (`AᵀA` or `AAᵀ`),
/// neither of which materializes a transpose.
pub fn singular_values(a: &Matrix) -> Result<Vec<f64>, LinalgError> {
    let gram = if a.cols() <= a.rows() {
        a.gram()
    } else {
        a.gram_t()
    };
    let mut vals: Vec<f64> = eigh(&gram)?
        .values
        .into_iter()
        .map(|v| v.max(0.0).sqrt())
        .collect();
    vals.reverse();
    Ok(vals)
}

/// How [`pseudoinverse_with_method`] derived `A⁺`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinvMethod {
    /// `A Aᵀ` was SPD (full row rank): `A⁺ = Aᵀ (A Aᵀ)⁻¹` via one
    /// Cholesky matrix solve. `A A⁺ = I` holds exactly; `A⁺ A = I` only
    /// when `A` is square.
    CholeskyRowRank,
    /// `Aᵀ A` was SPD (full column rank): `A⁺ = (Aᵀ A)⁻¹ Aᵀ` via one
    /// Cholesky matrix solve on the normal equations. `A⁺ A = I` holds
    /// exactly — the property that lets the matrix mechanism skip its
    /// support-condition check.
    CholeskyColumnRank,
    /// Neither Gram matrix was positive definite (rank deficient, or a
    /// degenerate empty shape): the eigendecomposition fallback
    /// [`pseudoinverse_eigen`] was used.
    Eigen,
}

/// Moore–Penrose pseudoinverse.
///
/// Fast paths (both a single Cholesky factorization plus one block
/// triangular solve — no explicit inverse, no transpose of the result
/// path's Gram matrix):
/// * full row rank: `A⁺ = Aᵀ (A Aᵀ)⁻¹ = ((A Aᵀ)⁻¹ A)ᵀ`,
/// * full column rank: `A⁺ = (Aᵀ A)⁻¹ Aᵀ` (Cholesky on the normal
///   equations),
///
/// with the eigendecomposition-based [`pseudoinverse_eigen`] as the general
/// fallback when neither Gram matrix is positive definite (rank-deficient
/// matrices).
pub fn pseudoinverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    Ok(pseudoinverse_with_method(a)?.0)
}

/// [`pseudoinverse`] plus a report of which derivation path was taken, so
/// callers (the matrix mechanism) can exploit path-specific guarantees.
pub fn pseudoinverse_with_method(a: &Matrix) -> Result<(Matrix, PinvMethod), LinalgError> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok((Matrix::zeros(n, m), PinvMethod::Eigen));
    }
    if m <= n {
        // Try full row rank: A Aᵀ is m × m.
        let aat = a.gram_t();
        if let Ok(ch) = Cholesky::factor(&aat) {
            let y = ch.solve_matrix(a)?; // (A Aᵀ)⁻¹ A
            return Ok((y.transpose(), PinvMethod::CholeskyRowRank));
        }
    } else {
        // Try full column rank: AᵀA is n × n.
        let ata = a.gram();
        if let Ok(ch) = Cholesky::factor(&ata) {
            let p = ch.solve_matrix(&a.transpose())?; // (Aᵀ A)⁻¹ Aᵀ
            return Ok((p, PinvMethod::CholeskyColumnRank));
        }
    }
    Ok((pseudoinverse_eigen(a)?, PinvMethod::Eigen))
}

/// General pseudoinverse for rank-deficient matrices — also the reference
/// implementation the property tests pin the Cholesky fast paths against.
///
/// Uses `AᵀA = V diag(λ) Vᵀ`; then `A⁺ = V diag(λ⁺) Vᵀ Aᵀ` where
/// `λ⁺ = 1/λ` on the numerically nonzero spectrum.
pub fn pseudoinverse_eigen(a: &Matrix) -> Result<Matrix, LinalgError> {
    let ata = a.gram();
    let eig = eigh(&ata)?;
    let lmax = eig.values.iter().fold(0.0_f64, |acc, &v| acc.max(v));
    let cutoff = lmax * 1e-12;
    let n = ata.rows();
    // V diag(λ⁺) Vᵀ
    let mut vd = eig.vectors.clone();
    for i in 0..n {
        for j in 0..n {
            let lam = eig.values[j];
            vd[(i, j)] *= if lam > cutoff { 1.0 / lam } else { 0.0 };
        }
    }
    let core = vd.matmul(&eig.vectors.transpose())?;
    core.matmul(&a.transpose())
}

/// Checks the four Penrose conditions within `tol` (test helper, but public
/// because downstream crates' tests reuse it).
pub fn is_pseudoinverse(a: &Matrix, aplus: &Matrix, tol: f64) -> bool {
    let Ok(ap) = a.matmul(aplus) else {
        return false;
    };
    let Ok(pa) = aplus.matmul(a) else {
        return false;
    };
    let Ok(apa) = ap.matmul(a) else { return false };
    let Ok(pap) = pa.matmul(aplus) else {
        return false;
    };
    apa.approx_eq(a, tol)
        && pap.approx_eq(aplus, tol)
        && ap.approx_eq(&ap.transpose(), tol)
        && pa.approx_eq(&pa.transpose(), tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        Matrix::from_vec(m, n, data).unwrap()
    }

    #[test]
    fn singular_values_of_diagonal() {
        let a = Matrix::from_diag(&[3.0, -4.0, 0.0]);
        let sv = singular_values(&a).unwrap();
        assert!((sv[0] - 4.0).abs() < 1e-10);
        assert!((sv[1] - 3.0).abs() < 1e-10);
        assert!(sv[2].abs() < 1e-10);
    }

    #[test]
    fn singular_values_wide_vs_tall_agree() {
        let a = random(4, 7, 1);
        let sv1 = singular_values(&a).unwrap();
        let sv2 = singular_values(&a.transpose()).unwrap();
        for (x, y) in sv1.iter().zip(&sv2) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn pinv_square_invertible() {
        let a = random(5, 5, 2);
        let p = pseudoinverse(&a).unwrap();
        assert!(a.matmul(&p).unwrap().approx_eq(&Matrix::identity(5), 1e-8));
    }

    #[test]
    fn pinv_wide_is_right_inverse() {
        let a = random(3, 6, 3);
        let p = pseudoinverse(&a).unwrap();
        assert!(a.matmul(&p).unwrap().approx_eq(&Matrix::identity(3), 1e-8));
        assert!(is_pseudoinverse(&a, &p, 1e-7));
    }

    #[test]
    fn pinv_tall_is_left_inverse() {
        let a = random(6, 3, 4);
        let p = pseudoinverse(&a).unwrap();
        assert!(p.matmul(&a).unwrap().approx_eq(&Matrix::identity(3), 1e-8));
        assert!(is_pseudoinverse(&a, &p, 1e-7));
    }

    #[test]
    fn pinv_rank_deficient() {
        // Rank-1 matrix: outer product.
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = ((i + 1) * (j + 1)) as f64;
            }
        }
        let p = pseudoinverse(&a).unwrap();
        assert!(is_pseudoinverse(&a, &p, 1e-7));
    }

    #[test]
    fn pinv_zero_matrix() {
        let a = Matrix::zeros(2, 3);
        let p = pseudoinverse(&a).unwrap();
        assert_eq!(p.shape(), (3, 2));
        assert!(p.max_abs() < 1e-12);
    }

    #[test]
    fn matrix_mechanism_identity_case() {
        // W A A⁺ = W must hold when rows of W lie in the row space of A
        // (here A = hierarchical-ish strategy spanning R^k).
        let a = random(6, 4, 9); // full column rank w.h.p.
        let w = random(3, 4, 10);
        let ap = pseudoinverse(&a).unwrap();
        let waa = w.matmul(&ap.matmul(&a).unwrap().transpose()).unwrap();
        // A⁺A = I_4 for full column rank, so WA⁺A = W.
        assert!(waa.approx_eq(&w, 1e-8));
    }
}
