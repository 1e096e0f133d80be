//! Privelet — differential privacy via Haar wavelet transforms
//! (Xiao, Wang & Gehrke \[20\]).
//!
//! The 1-D mechanism computes the Haar transform of the histogram, adds
//! Laplace noise to each coefficient with scale inversely proportional to
//! the coefficient's *weight*, and inverts the transform. With weights
//! `W(c) = subtree size` (and `W(c₀) = k`), one record changes the weighted
//! coefficient vector by generalized sensitivity `ρ = 1 + log₂k`, yielding
//! `O(log³k / ε²)` error per range query — the best known data-oblivious
//! baseline the paper compares against throughout Section 6.
//!
//! The d-dimensional variant applies the 1-D transform along each axis
//! (standard tensor decomposition); weights multiply and the generalized
//! sensitivity becomes `Π_axes (1 + log₂ k_axis)`.

use rand::Rng;

use blowfish_core::Epsilon;

use crate::noise::laplace;
use crate::MechanismError;

/// In-place fast Haar analysis of a power-of-two-length buffer, using the
/// average/semi-difference convention: layout `[c₀ | 1 | 2 | 4 | …]` where
/// the segment `[2^{j−1}, 2^j)` holds the level-j detail coefficients.
pub fn haar_forward(x: &mut [f64]) {
    let n = x.len();
    debug_assert!(n.is_power_of_two());
    let mut scratch = vec![0.0; n];
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let a = x[2 * i];
            let b = x[2 * i + 1];
            scratch[i] = (a + b) / 2.0;
            scratch[half + i] = (a - b) / 2.0;
        }
        x[..len].copy_from_slice(&scratch[..len]);
        len = half;
    }
}

/// Inverse of [`haar_forward`].
pub fn haar_inverse(x: &mut [f64]) {
    let n = x.len();
    debug_assert!(n.is_power_of_two());
    let mut scratch = vec![0.0; n];
    let mut len = 2;
    while len <= n {
        let half = len / 2;
        for i in 0..half {
            let avg = x[i];
            let diff = x[half + i];
            scratch[2 * i] = avg + diff;
            scratch[2 * i + 1] = avg - diff;
        }
        x[..len].copy_from_slice(&scratch[..len]);
        len *= 2;
    }
}

/// Per-position Privelet weights for a length-`n` (power-of-two) transform:
/// `weight[0] = n` (the average coefficient) and `weight[p] = n / 2^{j−1}`
/// (the subtree size) for detail positions `p ∈ [2^{j−1}, 2^j)`.
pub fn haar_weights(n: usize) -> Vec<f64> {
    debug_assert!(n.is_power_of_two());
    let mut w = vec![0.0; n];
    w[0] = n as f64;
    let mut seg = 1usize;
    while seg < n {
        let subtree = (n / seg) as f64;
        for wp in w.iter_mut().take(2 * seg).skip(seg) {
            *wp = subtree;
        }
        seg *= 2;
    }
    w
}

/// Generalized Haar sensitivity for a length-`n` transform: `1 + log₂n`.
pub fn haar_generalized_sensitivity(n: usize) -> f64 {
    debug_assert!(n.is_power_of_two());
    1.0 + n.trailing_zeros() as f64
}

/// A reusable Privelet plan: padded shape, per-coefficient weights, and
/// the generalized sensitivity ρ for a fixed histogram shape.
///
/// Deriving the weight tensor costs a full pass over the padded domain per
/// axis; a plan computes it once so repeated releases over the same shape
/// (trials, serving loops, per-row calls inside the grid strategies) skip
/// the re-derivation. [`privelet_histogram`] remains a thin wrapper that
/// builds a throwaway plan, and produces bit-identical output for a fixed
/// seed.
#[derive(Clone, Debug)]
pub struct HaarPlan {
    dims: Vec<usize>,
    padded_dims: Vec<usize>,
    /// Per-coefficient Privelet weights over the padded domain.
    weights: Vec<f64>,
    /// Generalized sensitivity `ρ = Π_axes (1 + log₂ k_axis)`.
    rho: f64,
    size: usize,
    padded_size: usize,
}

impl HaarPlan {
    /// Builds the plan for a row-major histogram with the given `dims`.
    pub fn new(dims: &[usize]) -> Result<Self, MechanismError> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(MechanismError::InvalidParameter {
                what: "dims must be non-empty and positive",
            });
        }
        let size: usize = dims.iter().product();
        let padded_dims: Vec<usize> = dims.iter().map(|&d| d.next_power_of_two()).collect();
        let padded_size: usize = padded_dims.iter().product();
        // Accumulate per-cell weights axis by axis, in the same order the
        // unplanned mechanism historically did, so values match exactly.
        let mut weights = vec![1.0; padded_size];
        let mut rho = 1.0;
        for axis in 0..padded_dims.len() {
            let n = padded_dims[axis];
            rho *= haar_generalized_sensitivity(n);
            let axis_w = haar_weights(n);
            for_each_line(
                &padded_dims,
                axis,
                |line_idx: &mut dyn FnMut(usize) -> usize| {
                    for (i, w) in axis_w.iter().enumerate() {
                        weights[line_idx(i)] *= w;
                    }
                },
            );
        }
        Ok(HaarPlan {
            dims: dims.to_vec(),
            padded_dims,
            weights,
            rho,
            size,
            padded_size,
        })
    }
}

/// The 1-D Privelet mechanism: releases a noisy histogram whose range
/// queries have `O(log³k/ε²)` error, under unbounded ε-DP.
pub fn privelet_histogram_1d<R: Rng + ?Sized>(
    x: &[f64],
    eps: Epsilon,
    rng: &mut R,
) -> Result<Vec<f64>, MechanismError> {
    privelet_histogram(x, &[x.len()], eps, rng)
}

/// The d-dimensional Privelet mechanism over a row-major histogram with
/// the given `dims`. Pads every dimension to a power of two internally.
///
/// Thin wrapper building a throwaway [`HaarPlan`]; callers releasing many
/// histograms over one shape should build the plan once and use
/// [`privelet_histogram_planned`].
pub fn privelet_histogram<R: Rng + ?Sized>(
    x: &[f64],
    dims: &[usize],
    eps: Epsilon,
    rng: &mut R,
) -> Result<Vec<f64>, MechanismError> {
    let plan = HaarPlan::new(dims)?;
    privelet_histogram_planned(&plan, x, eps, rng)
}

/// Runs the Privelet mechanism against a prepared [`HaarPlan`], skipping
/// the per-call weight/padding derivation. Bit-for-bit identical to
/// [`privelet_histogram`] for the same seed.
pub fn privelet_histogram_planned<R: Rng + ?Sized>(
    plan: &HaarPlan,
    x: &[f64],
    eps: Epsilon,
    rng: &mut R,
) -> Result<Vec<f64>, MechanismError> {
    if x.len() != plan.size {
        return Err(MechanismError::InvalidParameter {
            what: "histogram length must equal the product of dims",
        });
    }
    let dims = &plan.dims;
    let padded_dims = &plan.padded_dims;

    // Copy into the padded row-major buffer.
    let mut buf = vec![0.0; plan.padded_size];
    copy_block(x, dims, &mut buf, padded_dims);

    // 1-D fast path: the buffer *is* the single line, so transform it in
    // place — no per-line scratch copies. Same operations in the same
    // order as the generic path, hence bit-identical output; this is the
    // inner loop of the grid strategies (2(k−1) planned calls per fit).
    if padded_dims.len() == 1 {
        haar_forward(&mut buf);
        for (c, &w) in buf.iter_mut().zip(&plan.weights) {
            *c += laplace(rng, plan.rho / (eps.value() * w));
        }
        haar_inverse(&mut buf);
        buf.truncate(plan.size);
        return Ok(buf);
    }

    // Forward transform along each axis (weights come from the plan).
    for axis in 0..padded_dims.len() {
        let n = padded_dims[axis];
        for_each_line(
            padded_dims,
            axis,
            |line_idx: &mut dyn FnMut(usize) -> usize| {
                let mut line = vec![0.0; n];
                for (i, v) in line.iter_mut().enumerate() {
                    *v = buf[line_idx(i)];
                }
                haar_forward(&mut line);
                for (i, v) in line.into_iter().enumerate() {
                    buf[line_idx(i)] = v;
                }
            },
        );
    }

    // Noise each coefficient: Lap(ρ / (ε · weight)).
    for (c, &w) in buf.iter_mut().zip(&plan.weights) {
        *c += laplace(rng, plan.rho / (eps.value() * w));
    }

    // Inverse transform along axes (order does not matter for a tensor
    // transform; reverse for symmetry).
    for axis in (0..padded_dims.len()).rev() {
        let n = padded_dims[axis];
        for_each_line(
            padded_dims,
            axis,
            |line_idx: &mut dyn FnMut(usize) -> usize| {
                let mut line = vec![0.0; n];
                for (i, v) in line.iter_mut().enumerate() {
                    *v = buf[line_idx(i)];
                }
                haar_inverse(&mut line);
                for (i, v) in line.into_iter().enumerate() {
                    buf[line_idx(i)] = v;
                }
            },
        );
    }

    // Truncate padding.
    let mut out = vec![0.0; plan.size];
    copy_block(&buf, padded_dims, &mut out, dims);
    Ok(out)
}

/// Copies the common block between two row-major buffers whose shapes
/// differ only by trailing padding per dimension; iteration is over the
/// smaller shape in each dimension.
fn copy_block(src: &[f64], src_dims: &[usize], dst: &mut [f64], dst_dims: &[usize]) {
    let small_dims: Vec<usize> = src_dims
        .iter()
        .zip(dst_dims)
        .map(|(&a, &b)| a.min(b))
        .collect();
    let d = small_dims.len();
    let mut coords = vec![0usize; d];
    let flat = |coords: &[usize], dims: &[usize]| -> usize {
        let mut idx = 0;
        for (c, k) in coords.iter().zip(dims) {
            idx = idx * k + c;
        }
        idx
    };
    loop {
        let (si, di) = (flat(&coords, src_dims), flat(&coords, dst_dims));
        dst[di] = src[si];
        // Odometer.
        let mut dim = d;
        loop {
            if dim == 0 {
                return;
            }
            dim -= 1;
            coords[dim] += 1;
            if coords[dim] < small_dims[dim] {
                break;
            }
            coords[dim] = 0;
        }
    }
}

/// Invokes `f` once per 1-D line along `axis` of a row-major array with
/// the given dims. `f` receives a closure mapping position-on-line to the
/// flat index.
fn for_each_line<F>(dims: &[usize], axis: usize, mut f: F)
where
    F: FnMut(&mut dyn FnMut(usize) -> usize),
{
    let d = dims.len();
    // Stride of the axis in row-major layout.
    let stride: usize = dims[axis + 1..].iter().product();
    // Iterate over all coordinates with the axis fixed at 0.
    let mut coords = vec![0usize; d];
    loop {
        // Base flat index of this line.
        let mut base = 0usize;
        for (i, (&c, &k)) in coords.iter().zip(dims).enumerate() {
            base = base * k + if i == axis { 0 } else { c };
        }
        f(&mut |i: usize| base + i * stride);
        // Odometer skipping the axis dimension.
        let mut dim = d;
        loop {
            if dim == 0 {
                return;
            }
            dim -= 1;
            if dim == axis {
                continue;
            }
            coords[dim] += 1;
            if coords[dim] < dims[dim] {
                break;
            }
            coords[dim] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn haar_roundtrip() {
        let orig = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut x = orig.clone();
        haar_forward(&mut x);
        // c0 is the average.
        assert!((x[0] - orig.iter().sum::<f64>() / 8.0).abs() < 1e-12);
        haar_inverse(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_and_sensitivity() {
        let w = haar_weights(8);
        assert_eq!(w, vec![8.0, 8.0, 4.0, 4.0, 2.0, 2.0, 2.0, 2.0]);
        assert_eq!(haar_generalized_sensitivity(8), 4.0);
        // Generalized sensitivity identity: one unit at any leaf changes
        // Σ W(c)·|Δc| by exactly ρ.
        let n = 8;
        for leaf in 0..n {
            let mut x = vec![0.0; n];
            x[leaf] = 1.0;
            haar_forward(&mut x);
            let total: f64 = x.iter().zip(&w).map(|(c, wi)| c.abs() * wi).sum();
            assert!(
                (total - haar_generalized_sensitivity(n)).abs() < 1e-12,
                "leaf {leaf}: weighted change {total}"
            );
        }
    }

    #[test]
    fn privelet_1d_unbiased() {
        let k = 64;
        let x: Vec<f64> = (0..k).map(|i| ((i * 13) % 11) as f64).collect();
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 300;
        let mut mean = vec![0.0; k];
        for _ in 0..trials {
            let est = privelet_histogram_1d(&x, eps, &mut rng).unwrap();
            for (m, e) in mean.iter_mut().zip(&est) {
                *m += e;
            }
        }
        for i in 0..k {
            let avg = mean[i] / trials as f64;
            assert!((avg - x[i]).abs() < 1.5, "cell {i}: {avg} vs {}", x[i]);
        }
    }

    #[test]
    fn privelet_range_error_polylog() {
        // The total-count query error must grow far slower than the k·2/ε²
        // of a flat Laplace histogram.
        let eps = Epsilon::new(1.0).unwrap();
        // 500 trials: the sample-MSE std is ~10% of the true MSE (2ρ² = 98
        // at k=64), keeping the 2·k flat-Laplace bound ≳3σ away.
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 500;
        for k in [64usize, 512] {
            let x = vec![1.0; k];
            let truth = k as f64;
            let mut sq = 0.0;
            for _ in 0..trials {
                let est = privelet_histogram_1d(&x, eps, &mut rng).unwrap();
                let s: f64 = est.iter().sum();
                sq += (s - truth) * (s - truth);
            }
            let mse = sq / trials as f64;
            let flat_error = 2.0 * k as f64; // k cells × Var 2/ε²
            assert!(
                mse < flat_error,
                "k={k}: privelet full-range MSE {mse} worse than flat {flat_error}"
            );
        }
    }

    #[test]
    fn privelet_2d_runs_and_is_calibrated() {
        let dims = [8usize, 8];
        let x = vec![2.0; 64];
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 200;
        let mut mean = vec![0.0; 64];
        for _ in 0..trials {
            let est = privelet_histogram(&x, &dims, eps, &mut rng).unwrap();
            for (m, e) in mean.iter_mut().zip(&est) {
                *m += e;
            }
        }
        for m in &mean {
            let avg = m / trials as f64;
            assert!((avg - 2.0).abs() < 3.0, "cell mean {avg}");
        }
    }

    #[test]
    fn privelet_handles_non_power_of_two() {
        let x = vec![1.0; 100];
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let est = privelet_histogram_1d(&x, eps, &mut rng).unwrap();
        assert_eq!(est.len(), 100);
        // 2-D non-power-of-two.
        let x2 = vec![1.0; 5 * 6];
        let est2 = privelet_histogram(&x2, &[5, 6], eps, &mut rng).unwrap();
        assert_eq!(est2.len(), 30);
    }

    #[test]
    fn rejects_bad_shapes() {
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(privelet_histogram(&[1.0; 4], &[], eps, &mut rng).is_err());
        assert!(privelet_histogram(&[1.0; 4], &[3], eps, &mut rng).is_err());
        assert!(privelet_histogram(&[1.0; 4], &[2, 0], eps, &mut rng).is_err());
    }

    #[test]
    fn planned_matches_unplanned_bit_for_bit() {
        let eps = Epsilon::new(0.7).unwrap();
        for dims in [vec![37usize], vec![8, 8], vec![5, 6]] {
            let size: usize = dims.iter().product();
            let x: Vec<f64> = (0..size).map(|i| ((i * 7) % 13) as f64).collect();
            let plan = HaarPlan::new(&dims).unwrap();
            let mut rng_a = StdRng::seed_from_u64(11);
            let mut rng_b = StdRng::seed_from_u64(11);
            let a = privelet_histogram(&x, &dims, eps, &mut rng_a).unwrap();
            let b = privelet_histogram_planned(&plan, &x, eps, &mut rng_b).unwrap();
            assert_eq!(a, b, "dims {dims:?}");
        }
    }

    #[test]
    fn plan_accessors_and_validation() {
        let plan = HaarPlan::new(&[5, 6]).unwrap();
        assert_eq!(plan.dims, &[5, 6]);
        assert_eq!(plan.padded_dims, &[8, 8]);
        assert_eq!(plan.rho, 16.0);
        assert_eq!(plan.weights.len(), 64);
        assert!(HaarPlan::new(&[]).is_err());
        assert!(HaarPlan::new(&[4, 0]).is_err());
        // Wrong input length against a valid plan.
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(privelet_histogram_planned(&plan, &[1.0; 4], eps, &mut rng).is_err());
    }
}
