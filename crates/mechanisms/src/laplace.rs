//! The Laplace mechanism (Theorem 2.1).
//!
//! `L(W, x) = Wx + Lap(Δ_W/ε)^q` satisfies ε-differential privacy with
//! data-independent error `2·q·Δ_W²/ε²`. It is the base building block of
//! every strategy in the paper: applied to histograms (`I_k`), to
//! transformed databases `x_G`, and to bucket totals inside DAWA. Each of
//! those releases a vector directly, so [`laplace_histogram`] is the one
//! entry point.

use rand::Rng;

use blowfish_core::Epsilon;

use crate::noise::laplace_vec;
use crate::MechanismError;

/// Releases the noisy histogram `x + Lap(Δ/ε)^k` (the identity workload
/// fast path — Δ = 1 under unbounded DP).
pub fn laplace_histogram<R: Rng + ?Sized>(
    x: &[f64],
    sensitivity: f64,
    eps: Epsilon,
    rng: &mut R,
) -> Result<Vec<f64>, MechanismError> {
    if sensitivity <= 0.0 {
        return Err(MechanismError::InvalidParameter {
            what: "sensitivity must be positive",
        });
    }
    let scale = sensitivity / eps.value();
    Ok(x.iter()
        .zip(laplace_vec(rng, scale, x.len()))
        .map(|(t, n)| t + n)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::laplace_variance;
    use blowfish_core::mse_per_query;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unbiased_and_correct_scale() {
        let k = 64;
        let x = vec![10.0; k];
        let eps = Epsilon::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 400;
        let mut total_sq = 0.0;
        for _ in 0..trials {
            let est = laplace_histogram(&x, 1.0, eps, &mut rng).unwrap();
            total_sq += mse_per_query(&x, &est).unwrap();
        }
        let measured = total_sq / trials as f64;
        let expected = laplace_variance(1.0 / eps.value()); // 2/0.25 = 8
        assert!(
            (measured - expected).abs() / expected < 0.1,
            "measured {measured} vs expected {expected}"
        );
    }

    #[test]
    fn rejects_bad_sensitivity() {
        let x = vec![1.0];
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(laplace_histogram(&x, 0.0, eps, &mut rng).is_err());
        assert!(laplace_histogram(&x, -1.0, eps, &mut rng).is_err());
    }

    #[test]
    fn cumulative_workload_noise_scales_with_sensitivity() {
        // C_k has sensitivity k: calibrated at Δ = k, the noise is k×
        // larger per query than the identity's (Δ = 1).
        let k = 16;
        let x = vec![0.0; k];
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 300;
        let mut id_err = 0.0;
        let mut cum_err = 0.0;
        for _ in 0..trials {
            let id = laplace_histogram(&x, 1.0, eps, &mut rng).unwrap();
            let cum = laplace_histogram(&x, k as f64, eps, &mut rng).unwrap();
            id_err += id.iter().map(|v| v * v).sum::<f64>();
            cum_err += cum.iter().map(|v| v * v).sum::<f64>();
        }
        // Ratio should be about k² (sensitivity enters squared).
        let ratio = cum_err / id_err;
        let expected = (k * k) as f64;
        assert!(
            ratio > expected * 0.7 && ratio < expected * 1.4,
            "ratio {ratio}, expected ≈ {expected}"
        );
    }
}
