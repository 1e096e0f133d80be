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
//!
//! Every release runs through one body, [`privelet_planned_into`]: a
//! [`HaarPlan`] holds the shape's weights, a [`PriveletWork`] the buffers
//! the passes run in, and the caller's slice receives the estimate.

use rand::Rng;

use blowfish_core::Epsilon;

use crate::noise::laplace;
use crate::MechanismError;

/// In-place fast Haar analysis of a power-of-two-length buffer, using the
/// average/semi-difference convention: layout `[c₀ | 1 | 2 | 4 | …]` where
/// the segment `[2^{j−1}, 2^j)` holds the level-j detail coefficients.
pub fn haar_forward(x: &mut [f64]) {
    haar_forward_with(x, &mut vec![0.0; x.len()]);
}

/// [`haar_forward`] through a caller's scratch buffer of `x.len()` values
/// (its contents are overwritten before they are read).
fn haar_forward_with(x: &mut [f64], scratch: &mut [f64]) {
    let n = x.len();
    debug_assert!(n.is_power_of_two() && scratch.len() == n);
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
    haar_inverse_with(x, &mut vec![0.0; x.len()]);
}

/// [`haar_inverse`] through a caller's scratch buffer of `x.len()` values.
fn haar_inverse_with(x: &mut [f64], scratch: &mut [f64]) {
    let n = x.len();
    debug_assert!(n.is_power_of_two() && scratch.len() == n);
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
/// the re-derivation. A plan holds no work buffers: a release runs in the
/// caller's [`PriveletWork`], so one plan may serve many threads at once.
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
        // Accumulate per-cell weights axis by axis; the product's order
        // is fixed, so every plan of a shape holds the same bits.
        let mut weights = vec![1.0; padded_size];
        let mut rho = 1.0;
        for axis in 0..padded_dims.len() {
            let n = padded_dims[axis];
            rho *= haar_generalized_sensitivity(n);
            let axis_w = haar_weights(n);
            for_each_line(&padded_dims, axis, |base, stride| {
                for (i, w) in axis_w.iter().enumerate() {
                    weights[base + i * stride] *= w;
                }
            });
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

    /// The unpadded histogram shape the plan was derived for.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }
}

/// The work buffers a planned Privelet release runs in: the padded
/// coefficient buffer, one line buffer and one Haar scratch buffer. Each
/// grows to the largest plan it meets and is then reused by every later
/// line, axis and release, so a caller that keeps one across many
/// releases (the grid strategies' per-row passes, θ-line's groups)
/// allocates them a constant number of times.
#[derive(Debug, Default)]
pub struct PriveletWork {
    padded: Vec<f64>,
    line: Vec<f64>,
    scratch: Vec<f64>,
}

/// The first `len` values of `buf`, growing it (with zeros) if it is
/// shorter. What a previous release left there is not cleared.
fn grown(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// The one Privelet release body: transforms `x` (row-major, the plan's
/// shape) along every axis, adds `Lap(ρ / (ε · weight))` to each padded
/// coefficient in row-major order, inverts the transform and writes the
/// unpadded estimate into `out`. It runs in `work`, reusing its padded,
/// line and scratch buffers for every line, so a release allocates
/// nothing once `work` has met a plan this size. `x` and `out` must both
/// hold the product of the plan's dims.
pub fn privelet_planned_into<R: Rng + ?Sized>(
    plan: &HaarPlan,
    x: &[f64],
    eps: Epsilon,
    rng: &mut R,
    work: &mut PriveletWork,
    out: &mut [f64],
) -> Result<(), MechanismError> {
    if x.len() != plan.size {
        return Err(MechanismError::InvalidParameter {
            what: "histogram length must equal the product of dims",
        });
    }
    if out.len() != plan.size {
        return Err(MechanismError::InvalidParameter {
            what: "output length must equal the product of dims",
        });
    }
    // Contiguous lines (the last axis) are transformed in place; only the
    // others go through the line buffer.
    let dims = &plan.padded_dims;
    let longest = |dims: &[usize]| dims.iter().copied().max().unwrap_or(0);
    let buf = grown(&mut work.padded, plan.padded_size);
    let line = grown(&mut work.line, longest(&dims[..dims.len() - 1]));
    let scratch = grown(&mut work.scratch, longest(dims));

    // Copy into the zeroed padded buffer; transform along each axis.
    buf.fill(0.0);
    copy_block(x, &plan.dims, buf, dims);
    for axis in 0..dims.len() {
        haar_along(buf, dims, axis, line, scratch, haar_forward_with);
    }

    // Noise each coefficient: Lap(ρ / (ε · weight)).
    for (c, &w) in buf.iter_mut().zip(&plan.weights) {
        *c += laplace(rng, plan.rho / (eps.value() * w));
    }

    // Inverse transform along axes (order does not matter for a tensor
    // transform; reverse for symmetry), then truncate the padding.
    for axis in (0..dims.len()).rev() {
        haar_along(buf, dims, axis, line, scratch, haar_inverse_with);
    }
    copy_block(buf, dims, out, &plan.dims);
    Ok(())
}

/// Runs `haar` (an analysis or a synthesis through a scratch buffer) on
/// every line of `buf` along `axis`: a contiguous line in place, any
/// other gathered into `line` and scattered back.
fn haar_along(
    buf: &mut [f64],
    dims: &[usize],
    axis: usize,
    line: &mut [f64],
    scratch: &mut [f64],
    haar: fn(&mut [f64], &mut [f64]),
) {
    let n = dims[axis];
    let scratch = &mut scratch[..n];
    for_each_line(dims, axis, |base, stride| {
        if stride == 1 {
            return haar(&mut buf[base..base + n], scratch);
        }
        let line = &mut line[..n];
        for (i, v) in line.iter_mut().enumerate() {
            *v = buf[base + i * stride];
        }
        haar(line, scratch);
        for (i, &v) in line.iter().enumerate() {
            buf[base + i * stride] = v;
        }
    });
}

/// Copies the common block between two row-major buffers whose shapes
/// differ only by trailing padding per dimension: the smaller shape in
/// each dimension, one innermost run at a time.
fn copy_block(src: &[f64], src_dims: &[usize], dst: &mut [f64], dst_dims: &[usize]) {
    let (rows, src_rest, dst_rest) = (src_dims[0].min(dst_dims[0]), &src_dims[1..], &dst_dims[1..]);
    if src_rest.is_empty() {
        dst[..rows].copy_from_slice(&src[..rows]);
        return;
    }
    let src_stride: usize = src_rest.iter().product();
    let dst_stride: usize = dst_rest.iter().product();
    for r in 0..rows {
        copy_block(
            &src[r * src_stride..(r + 1) * src_stride],
            src_rest,
            &mut dst[r * dst_stride..(r + 1) * dst_stride],
            dst_rest,
        );
    }
}

/// Invokes `f(base, stride)` once per 1-D line along `axis` of a row-major
/// array with the given dims, in row-major order of the other
/// coordinates: position `i` of the line is the flat index
/// `base + i · stride`.
fn for_each_line(dims: &[usize], axis: usize, mut f: impl FnMut(usize, usize)) {
    let stride: usize = dims[axis + 1..].iter().product();
    let outer: usize = dims[..axis].iter().product();
    let block = dims[axis] * stride;
    for o in 0..outer {
        for i in 0..stride {
            f(o * block + i, stride);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One release of `x` over `dims` through [`privelet_planned_into`],
    /// with a fresh plan, fresh work buffers and a fresh output.
    fn release(
        x: &[f64],
        dims: &[usize],
        eps: Epsilon,
        rng: &mut StdRng,
    ) -> Result<Vec<f64>, MechanismError> {
        let plan = HaarPlan::new(dims)?;
        let mut out = vec![0.0; plan.size];
        privelet_planned_into(&plan, x, eps, rng, &mut PriveletWork::default(), &mut out)?;
        Ok(out)
    }

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
            let est = release(&x, &[x.len()], eps, &mut rng).unwrap();
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
                let est = release(&x, &[x.len()], eps, &mut rng).unwrap();
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
            let est = release(&x, &dims, eps, &mut rng).unwrap();
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
        let est = release(&x, &[x.len()], eps, &mut rng).unwrap();
        assert_eq!(est.len(), 100);
        // 2-D non-power-of-two.
        let x2 = vec![1.0; 5 * 6];
        let est2 = release(&x2, &[5, 6], eps, &mut rng).unwrap();
        assert_eq!(est2.len(), 30);
    }

    #[test]
    fn rejects_bad_shapes() {
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(release(&[1.0; 4], &[], eps, &mut rng).is_err());
        assert!(release(&[1.0; 4], &[3], eps, &mut rng).is_err());
        assert!(release(&[1.0; 4], &[2, 0], eps, &mut rng).is_err());
    }

    #[test]
    fn planned_matches_unplanned_bit_for_bit() {
        // A plan kept across releases gives the bits of a plan derived
        // afresh for each release.
        let eps = Epsilon::new(0.7).unwrap();
        for dims in [vec![37usize], vec![8, 8], vec![5, 6]] {
            let size: usize = dims.iter().product();
            let x: Vec<f64> = (0..size).map(|i| ((i * 7) % 13) as f64).collect();
            let plan = HaarPlan::new(&dims).unwrap();
            let mut work = PriveletWork::default();
            for seed in [11, 12] {
                let mut kept = vec![0.0; size];
                let mut rng = StdRng::seed_from_u64(seed);
                privelet_planned_into(&plan, &x, eps, &mut rng, &mut work, &mut kept).unwrap();
                let fresh = release(&x, &dims, eps, &mut StdRng::seed_from_u64(seed)).unwrap();
                assert_eq!(kept, fresh, "dims {dims:?} seed {seed}");
            }
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
        let mut work = PriveletWork::default();
        let mut out = [0.0; 30];
        assert!(
            privelet_planned_into(&plan, &[1.0; 4], eps, &mut rng, &mut work, &mut out).is_err()
        );
        // Wrong output length.
        let mut out = [0.0; 4];
        assert!(
            privelet_planned_into(&plan, &[1.0; 30], eps, &mut rng, &mut work, &mut out).is_err()
        );
    }

    #[test]
    fn one_work_serves_plans_of_every_shape() {
        // What one release leaves in the work buffers must not reach the
        // next, whether it grows them or runs in a prefix of them.
        let eps = Epsilon::new(0.7).unwrap();
        let mut work = PriveletWork::default();
        for dims in [
            vec![8usize, 8],
            vec![37],
            vec![3],
            vec![5, 6],
            vec![2, 33],
            vec![8, 8],
        ] {
            let size: usize = dims.iter().product();
            let x: Vec<f64> = (0..size).map(|i| ((i * 5) % 11) as f64).collect();
            let plan = HaarPlan::new(&dims).unwrap();
            let mut out = vec![0.0; size];
            let mut rng = StdRng::seed_from_u64(9);
            privelet_planned_into(&plan, &x, eps, &mut rng, &mut work, &mut out).unwrap();
            let fresh = release(&x, &dims, eps, &mut StdRng::seed_from_u64(9)).unwrap();
            assert_eq!(out, fresh, "dims {dims:?}");
        }
    }
}
