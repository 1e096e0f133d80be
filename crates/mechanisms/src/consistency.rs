//! Consistency post-processing (Hay et al. \[10\]; Section 5.4.2).
//!
//! Under a tree policy, the transformed database `x_G = P_G⁻¹x` consists of
//! prefix sums and is therefore *non-decreasing*. Post-processing the noisy
//! `x̃_G` onto the monotone cone — isotonic regression, computed by the
//! Pool-Adjacent-Violators algorithm — never hurts and dramatically helps
//! on sparse data, because equal adjacent prefix sums (zero cells) collapse
//! into pools whose error depends only on the number of *distinct* values.
//! This is the paper's `Transformed + ConsistentEst` estimator.

/// L2 isotonic regression: the closest (in squared error) non-decreasing
/// sequence to `y`, via Pool-Adjacent-Violators in O(n).
pub fn isotonic_non_decreasing(y: &[f64]) -> Vec<f64> {
    // Each block pools a run of entries at their common mean.
    struct Block {
        sum: f64,
        count: usize,
    }
    let mut blocks: Vec<Block> = Vec::with_capacity(y.len());
    for &v in y {
        blocks.push(Block { sum: v, count: 1 });
        // Merge while the means are decreasing.
        while blocks.len() >= 2 {
            let last = blocks.len() - 1;
            let mean_last = blocks[last].sum / blocks[last].count as f64;
            let mean_prev = blocks[last - 1].sum / blocks[last - 1].count as f64;
            if mean_prev <= mean_last {
                break;
            }
            let b = blocks.pop().expect("non-empty");
            let p = blocks.last_mut().expect("non-empty");
            p.sum += b.sum;
            p.count += b.count;
        }
    }
    let mut out = Vec::with_capacity(y.len());
    for b in &blocks {
        let mean = b.sum / b.count as f64;
        out.extend(std::iter::repeat_n(mean, b.count));
    }
    out
}

/// Enforces the full prefix-sum structure on a noisy transformed database:
/// non-decreasing and bounded between 0 and the (public) total `n`.
pub fn consistent_prefix_estimate(noisy_prefix: &[f64], total: f64) -> Vec<f64> {
    isotonic_non_decreasing(noisy_prefix)
        .into_iter()
        .map(|v| v.clamp(0.0, total.max(0.0)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MechanismError;

    /// Brute-force reference: projects onto the monotone cone by quadratic
    /// search over pool boundaries. Exponential; only for cross-checking PAVA
    /// on tiny inputs in tests.
    fn isotonic_brute_force(y: &[f64]) -> Result<Vec<f64>, MechanismError> {
        if y.len() > 12 {
            return Err(MechanismError::InvalidParameter {
                what: "brute-force isotonic limited to n <= 12",
            });
        }
        // Enumerate all partitions into contiguous pools via bitmask of
        // boundaries; each pool takes its mean; keep monotone-feasible best.
        let n = y.len();
        if n == 0 {
            return Ok(vec![]);
        }
        let mut best: Option<(f64, Vec<f64>)> = None;
        for mask in 0u32..(1 << (n - 1)) {
            let mut fit = Vec::with_capacity(n);
            let mut start = 0usize;
            let mut means = Vec::new();
            for i in 0..n {
                let boundary = i + 1 == n || mask & (1 << i) != 0;
                if boundary {
                    let pool = &y[start..=i];
                    means.push(pool.iter().sum::<f64>() / pool.len() as f64);
                    start = i + 1;
                }
            }
            if means.windows(2).any(|w| w[0] > w[1] + 1e-12) {
                continue;
            }
            let mut idx = 0usize;
            let mut start = 0usize;
            for i in 0..n {
                let boundary = i + 1 == n || mask & (1 << i) != 0;
                fit.push(means[idx]);
                if boundary {
                    idx += 1;
                    start = i + 1;
                }
            }
            let _ = start;
            let cost: f64 = fit.iter().zip(y).map(|(f, v)| (f - v) * (f - v)).sum();
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, fit));
            }
        }
        Ok(best.expect("at least one partition exists").1)
    }

    #[test]
    fn already_monotone_unchanged() {
        let y = vec![1.0, 2.0, 2.0, 5.0];
        assert_eq!(isotonic_non_decreasing(&y), y);
    }

    #[test]
    fn simple_violation_pools() {
        let y = vec![3.0, 1.0];
        assert_eq!(isotonic_non_decreasing(&y), vec![2.0, 2.0]);
    }

    #[test]
    fn decreasing_input_becomes_constant_mean() {
        let y = vec![4.0, 3.0, 2.0, 1.0];
        let fit = isotonic_non_decreasing(&y);
        for v in &fit {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn output_is_monotone() {
        let y = vec![0.3, -1.0, 2.0, 1.5, 1.4, 8.0, 7.0];
        let fit = isotonic_non_decreasing(&y);
        for w in fit.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn matches_brute_force() {
        let cases: Vec<Vec<f64>> = vec![
            vec![1.0, 3.0, 2.0],
            vec![5.0, 1.0, 4.0, 2.0],
            vec![2.0, 2.0, 1.0, 3.0, 0.0],
            vec![-1.0, -3.0, 2.0, 2.0, 1.0, 5.0],
        ];
        for y in cases {
            let pava = isotonic_non_decreasing(&y);
            let brute = isotonic_brute_force(&y).unwrap();
            for (a, b) in pava.iter().zip(&brute) {
                assert!((a - b).abs() < 1e-9, "{pava:?} vs {brute:?}");
            }
        }
    }

    #[test]
    fn projection_is_optimal_against_perturbations() {
        // The isotonic fit must beat any monotone perturbation of itself.
        let y = vec![3.0, 1.0, 4.0, 1.0, 5.0];
        let fit = isotonic_non_decreasing(&y);
        let cost = |f: &[f64]| -> f64 { f.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum() };
        let base = cost(&fit);
        // Shift any single pool boundary value slightly (keeping
        // monotonicity) and verify no improvement.
        for i in 0..fit.len() {
            for delta in [-0.05, 0.05] {
                let mut alt = fit.clone();
                alt[i] += delta;
                let monotone = alt.windows(2).all(|w| w[0] <= w[1] + 1e-12);
                if monotone {
                    assert!(cost(&alt) >= base - 1e-9);
                }
            }
        }
    }

    #[test]
    fn floor_and_total_clamping() {
        let noisy = vec![-2.0, 1.0, 0.5, 9.0];
        let fit = consistent_prefix_estimate(&noisy, 5.0);
        assert!(fit[0] >= 0.0);
        assert!(fit.last().unwrap() <= &5.0);
        for w in fit.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn sparse_prefix_sums_recovered_well() {
        // Prefix sums of a sparse histogram have long constant runs; after
        // noising, isotonic regression should recover them much better
        // than the raw noisy values.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let k = 256;
        let mut x = vec![0.0; k];
        x[10] = 40.0;
        x[200] = 25.0;
        let prefix: Vec<f64> = x
            .iter()
            .scan(0.0, |acc, v| {
                *acc += v;
                Some(*acc)
            })
            .collect();
        let eps = blowfish_core::Epsilon::new(0.2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut raw_err = 0.0;
        let mut iso_err = 0.0;
        for _ in 0..50 {
            let noisy = crate::laplace::laplace_histogram(&prefix, 1.0, eps, &mut rng).unwrap();
            let iso = isotonic_non_decreasing(&noisy);
            raw_err += noisy
                .iter()
                .zip(&prefix)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
            iso_err += iso
                .iter()
                .zip(&prefix)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        assert!(
            iso_err < raw_err / 2.0,
            "isotonic {iso_err} vs raw {raw_err}"
        );
    }

    #[test]
    fn empty_input() {
        assert!(isotonic_non_decreasing(&[]).is_empty());
        assert!(isotonic_brute_force(&[]).unwrap().is_empty());
    }

    #[test]
    fn brute_force_size_guard() {
        assert!(isotonic_brute_force(&[0.0; 13]).is_err());
    }
}
