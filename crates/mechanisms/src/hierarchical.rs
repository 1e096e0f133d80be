//! The hierarchical mechanism of Hay et al. \[10\].
//!
//! A binary interval tree over the domain padded to `n =
//! k.next_power_of_two()` cells: every node's count receives `Lap(h/ε)`
//! noise (`h = log₂ n + 1` levels = sensitivity, since one record
//! touches one node per level), and the consistent least-squares
//! estimate of the leaves is fitted from all `2n − 1` noisy counts.
//! Hay et al. compute it in two passes, weighting a node at height `ℓ`
//! (leaves at 0) by `α_ℓ = 2^ℓ / (2^(ℓ+1) − 1)` on the way up; here the
//! same estimate comes from the hierarchical tree solve
//! ([`MatrixStrategyKind::Hierarchical`]), the matrix mechanism on
//! [`crate::matrix::hierarchical_strategy`]`(n)`. Consistent leaf
//! estimates answer any range query with `O(log³k/ε²)` error.

use rand::Rng;

use blowfish_core::Epsilon;

use crate::tree_solve::MatrixStrategyKind;
use crate::MechanismError;

/// Releases a consistent noisy histogram via the binary hierarchical
/// mechanism under unbounded ε-DP (sensitivity = tree height): the first
/// `x.len()` cells of the hierarchical matrix-mechanism release over `x`
/// zero-padded to a power of two. The noise is `2n − 1` Laplace draws
/// at scale `h/ε`, one per tree node in heap order (root first).
///
/// The returned leaves answer range queries through prefix sums with the
/// classic polylogarithmic error.
pub fn hierarchical_histogram<R: Rng + ?Sized>(
    x: &[f64],
    eps: Epsilon,
    rng: &mut R,
) -> Result<Vec<f64>, MechanismError> {
    if x.is_empty() {
        return Err(MechanismError::InvalidParameter {
            what: "empty histogram",
        });
    }
    let mut padded = x.to_vec();
    padded.resize(x.len().next_power_of_two(), 0.0);
    let mut est = MatrixStrategyKind::Hierarchical.reconstruct(&padded, eps, rng);
    est.truncate(x.len());
    Ok(est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn consistent_estimates_are_unbiased() {
        let k = 32;
        let x: Vec<f64> = (0..k).map(|i| (i % 5) as f64).collect();
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 400;
        let mut mean = vec![0.0; k];
        for _ in 0..trials {
            let est = hierarchical_histogram(&x, eps, &mut rng).unwrap();
            for (m, e) in mean.iter_mut().zip(&est) {
                *m += e;
            }
        }
        // The estimator is linear in the noise, hence exactly unbiased;
        // check the *average* absolute deviation of the empirical means
        // (robust to the occasional 3σ leaf over 32 simultaneous tests).
        let avg_dev: f64 = mean
            .iter()
            .enumerate()
            .map(|(i, m)| (m / trials as f64 - x[i]).abs())
            .sum::<f64>()
            / k as f64;
        assert!(avg_dev < 0.4, "average leaf bias {avg_dev} too large");
    }

    #[test]
    fn range_error_beats_plain_prefix_sum_of_laplace() {
        // For wide ranges, the hierarchy's polylog error must beat summing
        // k independent Laplace leaves (error Θ(k)).
        let k = 256;
        let x = vec![1.0; k];
        let eps = Epsilon::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let truth: f64 = x.iter().sum();
        let trials = 200;
        let mut hier_sq = 0.0;
        let mut flat_sq = 0.0;
        for _ in 0..trials {
            let est = hierarchical_histogram(&x, eps, &mut rng).unwrap();
            let full: f64 = est.iter().sum();
            hier_sq += (full - truth) * (full - truth);
            let flat = crate::laplace::laplace_histogram(&x, 1.0, eps, &mut rng).unwrap();
            let flat_full: f64 = flat.iter().sum();
            flat_sq += (flat_full - truth) * (flat_full - truth);
        }
        assert!(
            hier_sq < flat_sq / 2.0,
            "hierarchical {hier_sq} not better than flat {flat_sq}"
        );
    }

    #[test]
    fn handles_non_power_of_two() {
        let x = vec![5.0; 10];
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let est = hierarchical_histogram(&x, eps, &mut rng).unwrap();
        assert_eq!(est.len(), 10);
    }

    #[test]
    fn rejects_empty() {
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(hierarchical_histogram(&[], eps, &mut rng).is_err());
    }

    #[test]
    fn matches_the_dense_least_squares_reference() {
        // The padded tree's least-squares fit: the dense matrix mechanism
        // on H_n from the same seed draws the same 2n − 1 values.
        use crate::matrix::hierarchical_strategy;
        use crate::MatrixMechanism;
        use blowfish_linalg::Matrix;
        let eps = Epsilon::new(0.6).unwrap();
        for k in [3usize, 5, 16, 100] {
            let n = k.next_power_of_two();
            let x: Vec<f64> = (0..k).map(|i| (i * 7 % 5) as f64).collect();
            let mut padded = x.clone();
            padded.resize(n, 0.0);
            let reference = MatrixMechanism::new(Matrix::identity(n), hierarchical_strategy(n))
                .unwrap()
                .run(&padded, eps, &mut StdRng::seed_from_u64(k as u64))
                .unwrap();
            let est =
                hierarchical_histogram(&x, eps, &mut StdRng::seed_from_u64(k as u64)).unwrap();
            assert_eq!(est.len(), k);
            let scale = 1.0 + reference.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            for (i, (e, r)) in est.iter().zip(&reference).enumerate() {
                assert!((e - r).abs() <= 1e-9 * scale, "k={k} cell {i}: {e} vs {r}");
            }
        }
    }

    #[test]
    fn single_cell_domain() {
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let est = hierarchical_histogram(&[7.0], eps, &mut rng).unwrap();
        assert_eq!(est.len(), 1);
        // Only one level: noise scale 1/ε, so the estimate is close-ish.
        assert!((est[0] - 7.0).abs() < 30.0);
    }
}
