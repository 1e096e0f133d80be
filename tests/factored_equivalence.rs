//! Seeded equivalence of the matrix-mechanism apply paths: for random
//! domain sizes, strategies, and seeds, a release served from the cached
//! sparse Cholesky factor must agree with the dense materialized `W A⁺`
//! reference to ≤1e-9 — the no-regression contract behind the
//! factor-once hot path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_privacy::core::{Epsilon, Workload};
use blowfish_privacy::linalg::SparseMatrix;
use blowfish_privacy::mechanisms::{
    hierarchical_strategy, hierarchical_strategy_sparse, identity_strategy,
    identity_strategy_sparse, wavelet_strategy, wavelet_strategy_sparse, MatrixMechanism,
    SparseMatrixMechanism,
};

fn strategies(kind: usize, k: usize) -> (blowfish_privacy::linalg::Matrix, SparseMatrix) {
    match kind {
        0 => (identity_strategy(k), identity_strategy_sparse(k)),
        1 => (hierarchical_strategy(k), hierarchical_strategy_sparse(k)),
        _ => (wavelet_strategy(k), wavelet_strategy_sparse(k)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Factored vs dense `A⁺`, identity workload, random
    /// (k, strategy, seed): the two releases agree to ≤1e-9.
    #[test]
    fn factored_cg_and_dense_histogram_releases_agree(
        k in 4usize..80,
        kind in 0usize..3,
        seed in 0u64..1_000_000,
        eps_raw in 0.2f64..2.0,
    ) {
        let eps = Epsilon::new(eps_raw).unwrap();
        let (dense_a, sparse_a) = strategies(kind, k);
        let dense =
            MatrixMechanism::new(blowfish_privacy::linalg::Matrix::identity(k), dense_a).unwrap();
        let factored = SparseMatrixMechanism::new(SparseMatrix::identity(k), sparse_a).unwrap();

        let x: Vec<f64> = (0..k).map(|i| ((i * 13 + 5) % 17) as f64).collect();
        let rd = dense.run(&x, eps, &mut StdRng::seed_from_u64(seed)).unwrap();
        let rf = factored.run(&x, eps, &mut StdRng::seed_from_u64(seed)).unwrap();
        for i in 0..k {
            let scale = 1.0 + rd[i].abs();
            prop_assert!(
                (rd[i] - rf[i]).abs() <= 1e-9 * scale,
                "k={k} kind={kind} cell {i}: dense {} vs factored {}", rd[i], rf[i]
            );
        }
    }

    /// The same agreement under a real W ≠ I dyadic range workload,
    /// including the reconstruction path that serves it.
    #[test]
    fn factored_cg_and_dense_range_releases_agree(
        k in 4usize..48,
        kind in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let eps = Epsilon::new(1.0).unwrap();
        let w = Workload::dyadic_ranges_1d(k);
        let (dense_a, sparse_a) = strategies(kind, k);
        let dense = MatrixMechanism::new(w.to_dense_matrix(), dense_a).unwrap();
        let factored = SparseMatrixMechanism::new(w.to_sparse_matrix(), sparse_a).unwrap();

        let x: Vec<f64> = (0..k).map(|i| ((i * 3 + 1) % 7) as f64).collect();
        let rd = dense.run(&x, eps, &mut StdRng::seed_from_u64(seed)).unwrap();
        let rf = factored.run(&x, eps, &mut StdRng::seed_from_u64(seed)).unwrap();
        for i in 0..rd.len() {
            let scale = 1.0 + rd[i].abs();
            prop_assert!((rd[i] - rf[i]).abs() <= 1e-9 * scale, "range {i}");
        }
        // The reconstruction serving path is the same release: W x̂ = run.
        let xhat = factored
            .reconstruct(&x, eps, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let via = factored.workload().matvec(&xhat).unwrap();
        for (a, b) in rf.iter().zip(&via) {
            prop_assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()));
        }
    }
}
