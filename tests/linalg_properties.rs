//! Property-based tests of the linear-algebra substrate on random inputs
//! (the Figure-10 machinery rests on these primitives).

use proptest::collection::vec;
use proptest::prelude::*;

use blowfish_privacy::linalg::{
    eigh, is_pseudoinverse, jacobi_eigh, pseudoinverse, pseudoinverse_eigen,
    pseudoinverse_with_method, singular_values, Cholesky, Lu, Matrix, PinvMethod, SparseMatrix,
    TripletBuilder,
};

fn matrix_from(data: &[f64], n: usize, m: usize) -> Matrix {
    Matrix::from_vec(n, m, data[..n * m].to_vec()).expect("length matches")
}

fn sparse_from(m: &Matrix) -> SparseMatrix {
    let mut b = TripletBuilder::new(m.rows(), m.cols());
    for i in 0..m.rows() {
        for (j, &v) in m.row(i).iter().enumerate() {
            b.push(i, j, v);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eigendecomposition reconstructs random symmetric matrices, and the
    /// two independent solvers agree.
    #[test]
    fn eigh_reconstructs_and_matches_jacobi(data in vec(-3.0f64..3.0, 36)) {
        let a = matrix_from(&data, 6, 6);
        let sym = {
            let mut s = Matrix::zeros(6, 6);
            for i in 0..6 {
                for j in 0..6 {
                    s[(i, j)] = 0.5 * (a[(i, j)] + a[(j, i)]);
                }
            }
            s
        };
        let e = eigh(&sym).unwrap();
        prop_assert!(e.reconstruct().approx_eq(&sym, 1e-7));
        let j = jacobi_eigh(&sym).unwrap();
        for (x, y) in e.values.iter().zip(&j.values) {
            prop_assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
        // Eigenvalues ascend.
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    /// The pseudoinverse satisfies the four Penrose conditions on random
    /// rectangular matrices of every aspect ratio.
    #[test]
    fn pseudoinverse_penrose_conditions(
        data in vec(-2.0f64..2.0, 48),
        rows in 2usize..7,
    ) {
        let cols = 48 / 8; // 6 columns, rows 2..7
        let a = matrix_from(&data, rows, cols);
        let p = pseudoinverse(&a).unwrap();
        prop_assert!(is_pseudoinverse(&a, &p, 1e-5));
    }

    /// Cholesky solves SPD systems built as `BᵀB + I`.
    #[test]
    fn cholesky_solves_spd(data in vec(-2.0f64..2.0, 36), rhs in vec(-5.0f64..5.0, 6)) {
        let b = matrix_from(&data, 6, 6);
        let mut spd = b.gram();
        for i in 0..6 {
            spd[(i, i)] += 1.0;
        }
        let ch = Cholesky::factor(&spd).unwrap();
        let x = ch.solve(&rhs).unwrap();
        let back = spd.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    /// LU solves any well-conditioned square system (diagonally dominated
    /// by construction).
    #[test]
    fn lu_solves_dominant_systems(data in vec(-1.0f64..1.0, 25), rhs in vec(-5.0f64..5.0, 5)) {
        let mut a = matrix_from(&data, 5, 5);
        for i in 0..5 {
            a[(i, i)] += 6.0; // strict diagonal dominance
        }
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&rhs).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    /// Singular values are invariant under transposition and dominate the
    /// Frobenius norm decomposition: Σσ² = ‖A‖_F².
    #[test]
    fn singular_values_frobenius_identity(data in vec(-2.0f64..2.0, 24)) {
        let a = matrix_from(&data, 4, 6);
        let sv = singular_values(&a).unwrap();
        let svt = singular_values(&a.transpose()).unwrap();
        for (x, y) in sv.iter().zip(&svt) {
            prop_assert!((x - y).abs() < 1e-7);
        }
        let fro2: f64 = a.frobenius_norm().powi(2);
        let sum_sq: f64 = sv.iter().map(|s| s * s).sum();
        prop_assert!((fro2 - sum_sq).abs() < 1e-6 * (1.0 + fro2));
        // Descending order.
        for w in sv.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }


    /// The register-blocked matmul is bit-close (≤ 1e-9) to the naive
    /// i-k-j reference across random shapes straddling the unroll
    /// boundary.
    #[test]
    fn blocked_matmul_matches_naive_reference(
        data in vec(-2.0f64..2.0, 180),
        m in 1usize..6,
        k in 1usize..10,
    ) {
        // Shapes drawn so both operands fit in the 180-sample pool.
        let p = ((180 - m * k) / k).clamp(1, 9);
        let a = matrix_from(&data, m, k);
        let b = matrix_from(&data[m * k..], k, p);
        let fast = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        prop_assert!(fast.approx_eq(&naive, 1e-9));
    }

    /// Optimized gram (AᵀA) and gram_t (AAᵀ) agree with the naive
    /// reference and with explicit transpose products.
    #[test]
    fn gram_kernels_match_naive_reference(
        data in vec(-2.0f64..2.0, 48),
        rows in 1usize..9,
    ) {
        let cols = (48 / rows.max(1)).clamp(1, 8);
        let a = matrix_from(&data, rows, cols);
        prop_assert!(a.gram().approx_eq(&a.gram_naive(), 1e-9));
        prop_assert!(a.gram_t().approx_eq(&a.transpose().gram_naive(), 1e-9));
        prop_assert!(a.gram_t().approx_eq(&a.matmul_naive(&a.transpose()).unwrap(), 1e-9));
    }

    /// The Cholesky fast-path pseudoinverses are bit-close (≤ 1e-9 on
    /// well-conditioned inputs) to the eigendecomposition reference, and
    /// report the expected derivation method.
    #[test]
    fn cholesky_pinv_matches_eigen_reference(
        data in vec(-1.0f64..1.0, 40),
        rows in 2usize..9,
    ) {
        let cols = 40 / 8; // 5 columns, rows 2..9: wide, square, and tall
        let mut a = matrix_from(&data, rows, cols);
        // Nudge toward full rank / good conditioning so both paths are
        // numerically comparable at 1e-9.
        for i in 0..rows.min(cols) {
            a[(i, i)] += 3.0;
        }
        let (p, method) = pseudoinverse_with_method(&a).unwrap();
        match method {
            PinvMethod::CholeskyRowRank => prop_assert!(rows <= cols),
            PinvMethod::CholeskyColumnRank => prop_assert!(rows > cols),
            PinvMethod::Eigen => {}
        }
        let reference = pseudoinverse_eigen(&a).unwrap();
        prop_assert!(
            p.approx_eq(&reference, 1e-9 * (1.0 + reference.max_abs())),
            "method {method:?}: Cholesky path diverged from eigen reference"
        );
        prop_assert!(is_pseudoinverse(&a, &p, 1e-6));
    }



    /// Sparse `matvec` / `matvec_transpose` agree with dense products.
    #[test]
    fn sparse_matvec_transpose_matches_dense(
        data in vec(-2.0f64..2.0, 42),
        rows in 1usize..7,
        x in vec(-3.0f64..3.0, 7),
    ) {
        let cols = (42 / rows.max(1)).clamp(1, 6);
        let a = matrix_from(&data, rows, cols);
        let sp = sparse_from(&a);
        let yd = a.matvec(&x[..cols]).unwrap();
        let ys = sp.matvec(&x[..cols]).unwrap();
        for i in 0..rows {
            prop_assert!((yd[i] - ys[i]).abs() < 1e-9);
        }
        let td = a.transpose().matvec(&x[..rows]).unwrap();
        let ts = sp.matvec_transpose(&x[..rows]).unwrap();
        for j in 0..cols {
            prop_assert!((td[j] - ts[j]).abs() < 1e-9);
        }
    }
}
