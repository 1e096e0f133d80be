//! Noise primitives.
//!
//! Seeded, explicit-RNG samplers for the Laplace distribution (the paper's
//! `Lap(σ)` of Section 2). Every mechanism in this crate takes its RNG as
//! an argument so experiments are exactly reproducible.

use rand::Rng;

/// Draws one sample from the Laplace distribution with the given `scale`
/// (density `∝ exp(−|x|/scale)`), via inverse-CDF sampling.
pub fn laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    debug_assert!(scale > 0.0, "Laplace scale must be positive");
    // u uniform on (-1/2, 1/2]; invert the CDF piecewise.
    let u: f64 = rng.gen::<f64>() - 0.5;
    // Guard the exact 0.5 edge (ln(0)).
    let u = u.clamp(-0.499_999_999_999, 0.499_999_999_999);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Fills a fresh vector with `n` independent `Lap(scale)` samples — the
/// paper's `Lap(σ)^m`.
pub fn laplace_vec<R: Rng + ?Sized>(rng: &mut R, scale: f64, n: usize) -> Vec<f64> {
    (0..n).map(|_| laplace(rng, scale)).collect()
}

/// Variance of `Lap(scale)`: `2·scale²`. Used by analytic error formulas
/// (Theorem 2.1 and the Section-5 bounds).
#[inline]
pub fn laplace_variance(scale: f64) -> f64 {
    2.0 * scale * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let scale = 3.0;
        let n = 200_000;
        let samples = laplace_vec(&mut rng, scale, n);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        let expected = laplace_variance(scale);
        assert!(
            (var - expected).abs() / expected < 0.05,
            "variance {var} vs expected {expected}"
        );
    }

    #[test]
    fn laplace_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let pos = (0..n).filter(|_| laplace(&mut rng, 1.0) > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    fn seeded_reproducibility() {
        let a = laplace_vec(&mut StdRng::seed_from_u64(42), 1.0, 10);
        let b = laplace_vec(&mut StdRng::seed_from_u64(42), 1.0, 10);
        assert_eq!(a, b);
    }
}
