//! Reference releases for the bit-identity tests: the per-pass-allocating
//! Privelet, grid and θ-grid bodies that the flat kernels replaced, kept
//! verbatim in their arithmetic and draw order, and the θ-line release
//! through the generic `Incidence` path that the closed-form θ-line
//! kernel replaced.
//! Every Privelet pass here derives its own weights and allocates its own
//! padded, line and scratch vectors, so nothing is shared with the
//! planned code in `blowfish-mechanisms` except the sampler.

use rand::Rng;

use blowfish_core::{DataVector, Epsilon, Incidence, ThetaLineSpanner};
use blowfish_mechanisms::{
    dawa_histogram, haar_generalized_sensitivity, haar_weights, laplace, laplace_histogram,
    DawaOptions,
};

use crate::ThetaEstimator;

fn haar_forward(x: &mut [f64]) {
    let n = x.len();
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

fn haar_inverse(x: &mut [f64]) {
    let n = x.len();
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

/// The d-dimensional Privelet release: weights derived per call, one
/// fresh line vector per line.
fn privelet<R: Rng + ?Sized>(x: &[f64], dims: &[usize], eps: Epsilon, rng: &mut R) -> Vec<f64> {
    let size: usize = dims.iter().product();
    assert_eq!(x.len(), size);
    let padded_dims: Vec<usize> = dims.iter().map(|&d| d.next_power_of_two()).collect();
    let padded_size: usize = padded_dims.iter().product();
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

    let mut buf = vec![0.0; padded_size];
    copy_block(x, dims, &mut buf, &padded_dims);
    if padded_dims.len() == 1 {
        haar_forward(&mut buf);
        for (c, &w) in buf.iter_mut().zip(&weights) {
            *c += laplace(rng, rho / (eps.value() * w));
        }
        haar_inverse(&mut buf);
        buf.truncate(size);
        return buf;
    }
    for axis in 0..padded_dims.len() {
        let n = padded_dims[axis];
        for_each_line(
            &padded_dims,
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
    for (c, &w) in buf.iter_mut().zip(&weights) {
        *c += laplace(rng, rho / (eps.value() * w));
    }
    for axis in (0..padded_dims.len()).rev() {
        let n = padded_dims[axis];
        for_each_line(
            &padded_dims,
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
    let mut out = vec![0.0; size];
    copy_block(&buf, &padded_dims, &mut out, dims);
    out
}

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

fn for_each_line<F>(dims: &[usize], axis: usize, mut f: F)
where
    F: FnMut(&mut dyn FnMut(usize) -> usize),
{
    let d = dims.len();
    let stride: usize = dims[axis + 1..].iter().product();
    let mut coords = vec![0usize; d];
    loop {
        let mut base = 0usize;
        for (i, (&c, &k)) in coords.iter().zip(dims).enumerate() {
            base = base * k + if i == axis { 0 } else { c };
        }
        f(&mut |i: usize| base + i * stride);
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

/// The grid strategy over row-major `rows × cols` counts, one vector per
/// edge row and per edge column.
fn grid<R: Rng + ?Sized>(
    counts: &[f64],
    rows: usize,
    cols: usize,
    eps: Epsilon,
    rng: &mut R,
) -> Vec<f64> {
    let n: f64 = counts.iter().sum();
    let at = |r: usize, c: usize| counts[r * cols + c];
    let mut v_est: Vec<Vec<f64>> = Vec::with_capacity(rows - 1);
    let mut col_prefix = vec![0.0; cols];
    for i in 0..rows - 1 {
        for (j, cp) in col_prefix.iter_mut().enumerate() {
            *cp += at(i, j);
        }
        v_est.push(privelet(&col_prefix, &[cols], eps, rng));
    }
    let mut h_est: Vec<Vec<f64>> = Vec::with_capacity(cols - 1);
    let mut cum_total = 0.0;
    for j in 0..cols - 1 {
        cum_total += (0..rows).map(|r| at(r, j)).sum::<f64>();
        let mut column = vec![0.0; rows];
        column[rows - 1] = cum_total;
        h_est.push(privelet(&column, &[rows], eps, rng));
    }
    let v_at = |i: isize, j: usize| -> f64 {
        if i < 0 || i as usize >= rows - 1 {
            0.0
        } else {
            v_est[i as usize][j]
        }
    };
    let h_at = |i: usize, j: isize| -> f64 {
        if j < 0 || j as usize >= cols - 1 {
            0.0
        } else {
            h_est[j as usize][i]
        }
    };
    let mut out = vec![0.0; rows * cols];
    let mut non_corner_sum = 0.0;
    for i in 0..rows {
        for j in 0..cols {
            if i == rows - 1 && j == cols - 1 {
                continue;
            }
            let est = v_at(i as isize, j) - v_at(i as isize - 1, j) + h_at(i, j as isize)
                - h_at(i, j as isize - 1);
            out[i * cols + j] = est;
            non_corner_sum += est;
        }
    }
    out[rows * cols - 1] = n - non_corner_sum;
    out
}

/// The θ-grid strategy over a `k × k` grid with block side `s` and
/// certified stretch `stretch`: a fresh layer vector and a per-call plan
/// for each of the `2m` layers, and the red grid through [`grid`].
fn theta_grid<R: Rng + ?Sized>(
    x: &DataVector,
    s: usize,
    stretch: usize,
    eps: Epsilon,
    rng: &mut R,
) -> Vec<f64> {
    let k = x.domain().dim(0);
    let eps_eff = eps.for_stretch(stretch).unwrap();
    if s == 1 {
        return grid(x.counts(), k, k, eps_eff, rng);
    }
    let m = k / s;
    let at = |r: usize, c: usize| x.get(r * k + c);
    let is_red = |r: usize, c: usize| r % s == s - 1 && c % s == s - 1;
    let eps_layer = eps_eff.split(2).unwrap();
    let mut est_h = vec![0.0; k * k];
    for a in 0..m {
        let mut layer = vec![0.0; s * k];
        for dr in 0..s {
            for c in 0..k {
                let r = a * s + dr;
                layer[dr * k + c] = if is_red(r, c) { 0.0 } else { at(r, c) };
            }
        }
        let est = privelet(&layer, &[s, k], eps_layer, rng);
        for dr in 0..s {
            for c in 0..k {
                est_h[(a * s + dr) * k + c] = est[dr * k + c];
            }
        }
    }
    let mut est_v = vec![0.0; k * k];
    for b in 0..m {
        let mut layer = vec![0.0; k * s];
        for r in 0..k {
            for dc in 0..s {
                let c = b * s + dc;
                layer[r * s + dc] = if is_red(r, c) { 0.0 } else { at(r, c) };
            }
        }
        let est = privelet(&layer, &[k, s], eps_layer, rng);
        for r in 0..k {
            for dc in 0..s {
                est_v[r * k + (b * s + dc)] = est[r * s + dc];
            }
        }
    }
    let mut blocks = vec![0.0; m * m];
    for r in 0..k {
        for c in 0..k {
            blocks[(r / s) * m + (c / s)] += at(r, c);
        }
    }
    let block_est = grid(&blocks, m, m, eps_eff, rng);
    let mut out = vec![0.0; k * k];
    for a in 0..m {
        for b in 0..m {
            let mut members = 0.0;
            for dr in 0..s {
                for dc in 0..s {
                    let (r, c) = (a * s + dr, b * s + dc);
                    if !is_red(r, c) {
                        let e = 0.5 * (est_h[r * k + c] + est_v[r * k + c]);
                        out[r * k + c] = e;
                        members += e;
                    }
                }
            }
            let red_r = (a + 1) * s - 1;
            let red_c = (b + 1) * s - 1;
            out[red_r * k + red_c] = block_est[a * m + b] - members;
        }
    }
    out
}

/// The θ-line release through the generic `Incidence` path over the
/// materialized `H^θ_k`: `solve_tree` for the edge values, the estimator
/// over the whole edge vector (Laplace, DAWA) or one fresh Privelet
/// estimate per non-empty spanner group, then `apply` and
/// `reconstruct_database`.
fn theta_line<R: Rng + ?Sized>(
    spanner: &ThetaLineSpanner,
    incidence: &Incidence,
    x: &DataVector,
    eps: Epsilon,
    estimator: ThetaEstimator,
    rng: &mut R,
) -> Vec<f64> {
    let eps_eff = eps.for_stretch(spanner.stretch).unwrap();
    let reduced = incidence.reduce_database(x).unwrap();
    let x_g = incidence.solve_tree(&reduced).unwrap();
    let x_tilde = match estimator {
        ThetaEstimator::Laplace => laplace_histogram(&x_g, 1.0, eps_eff, rng).unwrap(),
        ThetaEstimator::Dawa => dawa_histogram(&x_g, eps_eff, DawaOptions::default(), rng).unwrap(),
        ThetaEstimator::GroupPrivelet => {
            let mut x_tilde = vec![0.0; x_g.len()];
            for &(start, end) in spanner.groups.iter().filter(|(s, e)| s < e) {
                let est = privelet(&x_g[start..end], &[end - start], eps_eff, rng);
                x_tilde[start..end].copy_from_slice(&est);
            }
            x_tilde
        }
    };
    let est_reduced = incidence.apply(&x_tilde).unwrap();
    let totals = incidence.component_totals(x).unwrap();
    incidence
        .reconstruct_database(&est_reduced, &totals)
        .unwrap()
}

mod tests {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    use blowfish_core::{theta_line_spanner, DataVector, Domain, Epsilon, Incidence};

    use std::sync::Arc;

    use crate::{
        GridMechanism, GridPlans, Mechanism, PriveletBaselineNd, ThetaEstimator,
        ThetaGridMechanism, ThetaGridStrategy, ThetaLineMechanism, ThetaLineStrategy,
    };

    const SEEDS: std::ops::Range<u64> = 0..20;

    /// Counts with a spread of magnitudes and fractions, so that every
    /// rounding of the kernels is exercised.
    fn data(dims: &[usize]) -> DataVector {
        let size: usize = dims.iter().product();
        let counts = (0..size)
            .map(|i| ((i * 7919) % 23) as f64 + (i % 5) as f64 * 0.37)
            .collect();
        DataVector::new(Domain::product(dims).unwrap(), counts).unwrap()
    }

    /// The released histogram of one production fit.
    fn release(mech: &dyn Mechanism, x: &DataVector, rng: &mut StdRng) -> Vec<f64> {
        mech.fit(x, rng).unwrap().histogram().to_vec()
    }

    fn assert_same_bits(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what} cell {i}: {g} vs {w}");
        }
    }

    /// Runs both releases from the same seed and asserts equal bits and
    /// equal draw counts (the generators end in the same state).
    fn assert_bit_identical(
        what: &str,
        mut new: impl FnMut(&mut StdRng) -> Vec<f64>,
        mut reference: impl FnMut(&mut StdRng) -> Vec<f64>,
    ) {
        for seed in SEEDS {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let (got, want) = (new(&mut a), reference(&mut b));
            assert_same_bits(&format!("{what} seed {seed}"), &got, &want);
            assert_eq!(
                a.next_u64(),
                b.next_u64(),
                "{what} seed {seed}: draw counts"
            );
        }
    }

    #[test]
    fn grid_releases_match_the_reference_bit_for_bit() {
        let eps = Epsilon::new(0.7).unwrap();
        for (rows, cols) in [(16, 16), (5, 7), (3, 33)] {
            let x = data(&[rows, cols]);
            let mech = GridMechanism::new(eps, GridPlans::new(rows, cols).unwrap());
            assert_bit_identical(
                &format!("grid {rows}x{cols}"),
                |rng| release(&mech, &x, rng),
                |rng| super::grid(x.counts(), rows, cols, eps, rng),
            );
        }
    }

    #[test]
    fn theta_grid_releases_match_the_reference_bit_for_bit() {
        let eps = Epsilon::new(0.9).unwrap();
        for (k, theta) in [(16, 2), (16, 4), (18, 6)] {
            let x = data(&[k, k]);
            let strat = Arc::new(ThetaGridStrategy::new(k, theta).unwrap());
            let mech = ThetaGridMechanism::new(Arc::clone(&strat), eps).unwrap();
            assert_bit_identical(
                &format!("θ-grid {k}:{theta}"),
                |rng| release(&mech, &x, rng),
                |rng| super::theta_grid(&x, strat.block(), strat.stretch(), eps, rng),
            );
        }
    }

    #[test]
    fn privelet_nd_releases_match_the_reference_bit_for_bit() {
        let eps = Epsilon::new(0.6).unwrap();
        for dims in [[5, 6], [8, 8]] {
            let x = data(&dims);
            let mech = PriveletBaselineNd::new(eps);
            assert_bit_identical(
                &format!("dp-privelet-nd {dims:?}"),
                |rng| release(&mech, &x, rng),
                |rng| super::privelet(x.counts(), &dims, eps, rng),
            );
        }
    }

    #[test]
    fn theta_line_group_privelet_matches_the_reference_bit_for_bit() {
        let eps = Epsilon::new(0.8).unwrap();
        let (k, theta) = (100, 4);
        let x = data(&[k]);
        let strat = Arc::new(ThetaLineStrategy::new(k, theta).unwrap());
        let mech = ThetaLineMechanism::new(strat, eps, ThetaEstimator::GroupPrivelet).unwrap();
        let spanner = theta_line_spanner(k, theta).unwrap();
        let incidence = Incidence::new(&spanner.graph).unwrap();
        assert_bit_identical(
            "θ-line group-privelet k=100",
            |rng| release(&mech, &x, rng),
            |rng| {
                super::theta_line(
                    &spanner,
                    &incidence,
                    &x,
                    eps,
                    ThetaEstimator::GroupPrivelet,
                    rng,
                )
            },
        );
    }

    /// The closed-form θ-line kernel against the `Incidence` path over
    /// the materialized spanner, bit for bit: its edge values, and its
    /// releases under every estimator from equal seeds (one per case),
    /// over every shape of `H^θ_k` (θ | k and not, one block, θ = 1) and
    /// two large k.
    #[test]
    fn theta_line_kernel_matches_the_incidence_path_bit_for_bit() {
        let eps = Epsilon::new(0.9).unwrap();
        for theta in 1..=9 {
            for k in (theta + 1..=90).chain([2048, 4096]) {
                let x = data(&[k]);
                let strat = Arc::new(ThetaLineStrategy::new(k, theta).unwrap());
                let spanner = theta_line_spanner(k, theta).unwrap();
                let incidence = Incidence::new(&spanner.graph).unwrap();
                assert_eq!(strat.stretch(), spanner.stretch, "k={k} θ={theta}");
                let reduced = incidence.reduce_database(&x).unwrap();
                let want = incidence.solve_tree(&reduced).unwrap();
                let got = strat.edge_values(&x).unwrap();
                assert_same_bits(&format!("x_G k={k} θ={theta}"), &got, &want);
                for estimator in [
                    ThetaEstimator::Laplace,
                    ThetaEstimator::GroupPrivelet,
                    ThetaEstimator::Dawa,
                ] {
                    let what = format!("{estimator:?} k={k} θ={theta}");
                    let seed = (k * 10 + theta) as u64;
                    let mut a = StdRng::seed_from_u64(seed);
                    let mut b = StdRng::seed_from_u64(seed);
                    let mech = ThetaLineMechanism::new(Arc::clone(&strat), eps, estimator).unwrap();
                    let got = release(&mech, &x, &mut a);
                    let want = super::theta_line(&spanner, &incidence, &x, eps, estimator, &mut b);
                    assert_same_bits(&what, &got, &want);
                    assert_eq!(a.next_u64(), b.next_u64(), "{what}: draw counts");
                }
            }
        }
    }
}
