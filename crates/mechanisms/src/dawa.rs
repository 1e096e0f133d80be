//! DAWA — the data- and workload-aware mechanism of Li, Hay & Miklau \[14\],
//! implemented exactly as the paper under reproduction describes it
//! (Section 5.4.1):
//!
//! > "(a) partition the domain such that domain values within a group have
//! > roughly the same counts, (b) estimate the total counts for each of
//! > these groups using the Laplace mechanism, and (c) uniformly divide the
//! > noisy group totals amongst its constituents."
//!
//! Stage (a) spends a fraction `α` of the budget on a Laplace-noised
//! histogram from which an optimal partition (restricted to power-of-two
//! bucket lengths, DAWA's own efficiency restriction) is found by dynamic
//! programming; because the partition is post-processing of an ε₁-DP
//! release, the whole pipeline is `ε₁ + ε₂ = ε` differentially private by
//! sequential composition. The DP objective is the bias-variance tradeoff
//! `Σ_b [ dev²(b) + 2/(ε₂²·|b|) ]`: buckets pay their internal deviation
//! plus the (uniformly spread) Laplace noise on their total.
//!
//! On sparse data (long near-constant runs) DAWA adds noise to far fewer
//! effective counts than the Laplace mechanism — the data-dependent
//! behaviour the paper exploits on the transformed database `x_G`.

use rand::Rng;

use blowfish_core::Epsilon;

use crate::laplace::laplace_histogram;
use crate::noise::laplace;
use crate::MechanismError;

/// Tuning options for [`dawa_histogram`].
#[derive(Clone, Copy, Debug)]
pub struct DawaOptions {
    /// Fraction of the budget spent on the partition stage (DAWA's
    /// default 0.25).
    pub partition_budget_fraction: f64,
}

impl Default for DawaOptions {
    fn default() -> Self {
        DawaOptions {
            partition_budget_fraction: 0.25,
        }
    }
}

/// The DAWA estimate of a histogram under unbounded ε-DP.
pub fn dawa_histogram<R: Rng + ?Sized>(
    x: &[f64],
    eps: Epsilon,
    opts: DawaOptions,
    rng: &mut R,
) -> Result<Vec<f64>, MechanismError> {
    if x.is_empty() {
        return Err(MechanismError::InvalidParameter {
            what: "empty histogram",
        });
    }
    let alpha = opts.partition_budget_fraction;
    if !(0.0..1.0).contains(&alpha) || alpha == 0.0 {
        return Err(MechanismError::InvalidParameter {
            what: "partition budget fraction must lie in (0, 1)",
        });
    }
    // At a tiny ε either share can underflow to 0: a typed error.
    let eps1 = Epsilon::new(eps.value() * alpha)?;
    let eps2 = Epsilon::new(eps.value() * (1.0 - alpha))?;

    // Stage (a): ε₁-DP noisy histogram, then a partition by post-processing.
    // Two standard denoising steps before the cost computation:
    // * universal threshold at (noise scale)·ln k: Pr[|Lap(b)| > b·ln k] =
    //   1/k, so in expectation at most one zero cell survives — zero-runs
    //   of sparse data become exactly zero and merge reliably;
    // * debias the remaining L1 deviation by the expected per-cell noise
    //   magnitude E|Lap(1/ε₁)| = 1/ε₁ on the *surviving* cells (its
    //   fluctuations grow like √len, not len, which is why the L1 cost is
    //   used — as in DAWA itself).
    let noisy = laplace_histogram(x, 1.0, eps1, rng)?;
    let noise_scale = 1.0 / eps1.value();
    let threshold = noise_scale * (x.len() as f64).ln().max(2.0);
    let thresholded: Vec<f64> = noisy
        .iter()
        .map(|&v| if v.abs() < threshold { 0.0 } else { v })
        .collect();
    let boundaries = optimal_partition_debiased(&thresholded, eps2.value(), noise_scale);

    // Stage (b) + (c): ε₂-DP bucket totals, spread uniformly.
    let mut out = vec![0.0; x.len()];
    let scale = 1.0 / eps2.value();
    for w in boundaries.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let total: f64 = x[lo..hi].iter().sum();
        let noisy_total = total + laplace(rng, scale);
        let per_cell = noisy_total / (hi - lo) as f64;
        for cell in &mut out[lo..hi] {
            *cell = per_cell;
        }
    }
    Ok(out)
}

/// Finds the partition minimizing DAWA\'s L1 objective
/// `Σ_b [ dev₁(b) + 1/ε₂ ]` over buckets of power-of-two length, by
/// dynamic programming on the (already noisy/public) histogram — `dev₁` is
/// the L1 deviation around the bucket mean, and `1/ε₂` the expected L1
/// error a bucket pays for its noisy total. Returns bucket boundaries
/// `0 = b₀ < b₁ < … = k`.
///
/// When `hist` is a (possibly thresholded) Laplace release with per-cell
/// expected noise magnitude `noise_mean_abs`, the deviation of an interval
/// is debiased by `noise_mean_abs` per *nonzero* cell (clamped at 0) —
/// exactly-zero cells carry no noise after thresholding, while surviving
/// cells still wobble by the Laplace scale. `noise_mean_abs = 0` gives the
/// plain objective.
pub fn optimal_partition_debiased(hist: &[f64], eps2: f64, noise_mean_abs: f64) -> Vec<usize> {
    let k = hist.len();
    // Prefix sums (values and nonzero counts) for O(1) interval means and
    // debias weights.
    let mut s = vec![0.0; k + 1];
    let mut nz = vec![0.0; k + 1];
    for (i, &v) in hist.iter().enumerate() {
        s[i + 1] = s[i] + v;
        nz[i + 1] = nz[i] + if v != 0.0 { 1.0 } else { 0.0 };
    }
    // L1 deviation around the mean, debiased; O(len) per interval. The DP
    // below only evaluates power-of-two lengths, so the total work is
    // O(k²) in the worst case and cache-friendly in practice.
    let dev1 = |lo: usize, hi: usize| -> f64 {
        let len = (hi - lo) as f64;
        let mean = (s[hi] - s[lo]) / len;
        let raw: f64 = hist[lo..hi].iter().map(|v| (v - mean).abs()).sum();
        (raw - (nz[hi] - nz[lo]) * noise_mean_abs).max(0.0)
    };
    let per_bucket_noise = 1.0 / eps2;

    let mut best = vec![f64::INFINITY; k + 1];
    let mut back = vec![0usize; k + 1];
    best[0] = 0.0;
    for i in 1..=k {
        let mut len = 1usize;
        while len <= i {
            let j = i - len;
            let cost = best[j] + dev1(j, i) + per_bucket_noise;
            if cost < best[i] {
                best[i] = cost;
                back[i] = j;
            }
            if len == i {
                break;
            }
            len = (len * 2).min(i);
        }
    }
    // Backtrack.
    let mut boundaries = vec![k];
    let mut cur = k;
    while cur > 0 {
        cur = back[cur];
        boundaries.push(cur);
    }
    boundaries.reverse();
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partition_finds_uniform_blocks() {
        // Two clearly distinct plateaus: the partition should cut near the
        // plateau boundary (power-of-two lengths allowing).
        let mut hist = vec![10.0; 32];
        hist[16..].iter_mut().for_each(|v| *v = 50.0);
        let b = optimal_partition_debiased(&hist, 1.0, 0.0);
        assert!(b.contains(&16), "boundaries {b:?} miss the plateau edge");
        assert_eq!(*b.first().unwrap(), 0);
        assert_eq!(*b.last().unwrap(), 32);
    }

    #[test]
    fn partition_on_uniform_data_prefers_large_buckets() {
        let hist = vec![5.0; 64];
        let b = optimal_partition_debiased(&hist, 0.1, 0.0);
        // With zero deviation everywhere and noise cost decreasing in
        // bucket size, a single bucket is optimal.
        assert_eq!(b, vec![0, 64]);
    }

    #[test]
    fn partition_boundaries_are_well_formed() {
        let hist: Vec<f64> = (0..100).map(|i| ((i * 7) % 13) as f64).collect();
        let b = optimal_partition_debiased(&hist, 0.5, 0.0);
        assert_eq!(*b.first().unwrap(), 0);
        assert_eq!(*b.last().unwrap(), 100);
        for w in b.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn dawa_beats_laplace_on_sparse_data() {
        // The headline property (paper Section 5.4.1): on sparse data DAWA
        // incurs much lower error than the Laplace mechanism.
        // Spikes sized like the paper's datasets (scales 1e4–1e7 over 4096
        // cells): far above the stage-1 noise so isolation is reliable.
        let k = 512;
        let mut x = vec![0.0; k];
        x[100] = 3000.0;
        x[101] = 3100.0;
        x[400] = 1500.0;
        let eps = Epsilon::new(0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 30;
        let mut dawa_err = 0.0;
        let mut lap_err = 0.0;
        for _ in 0..trials {
            let d = dawa_histogram(&x, eps, DawaOptions::default(), &mut rng).unwrap();
            let l = laplace_histogram(&x, 1.0, eps, &mut rng).unwrap();
            dawa_err += x
                .iter()
                .zip(&d)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
            lap_err += x
                .iter()
                .zip(&l)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        assert!(
            dawa_err < lap_err / 3.0,
            "DAWA {dawa_err} not clearly better than Laplace {lap_err}"
        );
    }

    #[test]
    fn dawa_on_dense_data_is_not_catastrophic() {
        // On rough data DAWA may lose to Laplace but must stay within a
        // small factor (it can always fall back to singleton buckets).
        let k = 128;
        let mut rng = StdRng::seed_from_u64(9);
        let x: Vec<f64> = (0..k).map(|i| ((i * 37) % 101) as f64).collect();
        let eps = Epsilon::new(1.0).unwrap();
        let trials = 30;
        let mut dawa_err = 0.0;
        let mut lap_err = 0.0;
        for _ in 0..trials {
            let d = dawa_histogram(&x, eps, DawaOptions::default(), &mut rng).unwrap();
            let l = laplace_histogram(&x, 1.0, eps, &mut rng).unwrap();
            dawa_err += x
                .iter()
                .zip(&d)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
            lap_err += x
                .iter()
                .zip(&l)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        }
        assert!(
            dawa_err < lap_err * 50.0,
            "DAWA {dawa_err} catastrophically worse than Laplace {lap_err}"
        );
    }

    #[test]
    fn option_validation() {
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(dawa_histogram(&[], eps, DawaOptions::default(), &mut rng).is_err());
        let bad = DawaOptions {
            partition_budget_fraction: 0.0,
        };
        assert!(dawa_histogram(&[1.0], eps, bad, &mut rng).is_err());
        let bad2 = DawaOptions {
            partition_budget_fraction: 1.0,
        };
        assert!(dawa_histogram(&[1.0], eps, bad2, &mut rng).is_err());
        // ε·α underflows to 0 at the smallest subnormal ε: a typed error,
        // not a panic.
        let tiny = Epsilon::new(1e-323).unwrap();
        assert!(matches!(
            dawa_histogram(&[1.0; 4], tiny, DawaOptions::default(), &mut rng),
            Err(MechanismError::Core(
                blowfish_core::CoreError::InvalidEpsilon { .. }
            ))
        ));
    }

    #[test]
    fn estimates_preserve_total_roughly() {
        let k = 64;
        let x = vec![10.0; k];
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let est = dawa_histogram(&x, eps, DawaOptions::default(), &mut rng).unwrap();
        let total: f64 = est.iter().sum();
        assert!((total - 640.0).abs() < 100.0, "total {total}");
    }
}
