//! The multi-dimensional grid strategy for `G¹_{k^d}` (Section 5.2.2,
//! Theorem 5.4), implemented concretely for `d = 2` — the paper's
//! `Transformed + Privelet` algorithm of Figure 8a.
//!
//! Under the grid policy the transformed domain is the set of grid edges.
//! A 2-D range query transforms into its *boundary edges* (Lemma 5.1 /
//! Figure 5a): four contiguous runs — two runs of vertical edges and two
//! of horizontal edges. The strategy answers all 1-D ranges along every
//! row of vertical edges and every column of horizontal edges with
//! Privelet; the rows/columns are disjoint edge sets, so by parallel
//! composition each enjoys the full budget, and any query costs just
//! 4 Privelet range answers: `O(d·log^{3(d−1)}k/ε²)` per query.
//!
//! Concretely we materialize the canonical edge solution (vertical edges
//! carry column prefix sums; bottom-row horizontal edges carry cumulative
//! column totals — `P_G x_G = x` is verified in the tests), estimate every
//! edge group with Privelet, and map back through `x̂ = P_G·x̃_G` with the
//! Case II corner reconstruction. Summing `x̂` over a box is then exactly
//! the paper's 4-boundary-run answer (interior noise telescopes away).
//!
//! A release holds the edge estimates in two flat row-major buffers, one
//! row per edge row (vertical edges) and one per edge column (horizontal
//! edges), and runs all `rows + cols − 2` Privelet passes in one
//! [`PriveletWork`], so it makes the same handful of allocations whatever
//! the grid's side.

use std::sync::Arc;

use rand::RngCore;

use blowfish_core::{DataVector, Epsilon};
use blowfish_mechanisms::{privelet_planned_into, HaarPlan, PriveletWork};

use crate::mechanism::{Estimate, Mechanism};
use crate::StrategyError;

/// Prepared Haar plans for a `rows × cols` grid strategy: one per line
/// direction, reusable across fits and trials.
#[derive(Clone, Debug)]
pub struct GridPlans {
    rows: usize,
    cols: usize,
    /// Plan for the per-edge-row vertical estimates (lines of length `cols`).
    row: Arc<HaarPlan>,
    /// Plan for the per-edge-column horizontal estimates (lines of length `rows`).
    col: Arc<HaarPlan>,
}

impl GridPlans {
    /// Builds both direction plans for a `rows × cols` grid.
    pub fn new(rows: usize, cols: usize) -> Result<Self, StrategyError> {
        Ok(GridPlans {
            rows,
            cols,
            row: Arc::new(HaarPlan::new(&[cols])?),
            col: Arc::new(HaarPlan::new(&[rows])?),
        })
    }

    /// The grid shape these plans serve.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

/// The `(ε, G¹_{k²})`-Blowfish grid strategy (`Transformed + Privelet`,
/// Theorem 5.4) as a [`Mechanism`]. Works on any `rows × cols`
/// two-dimensional domain with both sides ≥ 2, against the prepared
/// [`GridPlans`] of that shape, so fits never derive Haar weights.
#[derive(Clone, Debug)]
pub struct GridMechanism {
    eps: Epsilon,
    plans: GridPlans,
}

impl GridMechanism {
    /// Binds the budget and the plans of the grid it serves.
    pub fn new(eps: Epsilon, plans: GridPlans) -> Self {
        GridMechanism { eps, plans }
    }
}

impl Mechanism for GridMechanism {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        let domain = x.domain();
        if domain.num_dims() != 2 {
            return Err(StrategyError::BadQuery {
                what: "grid strategy requires a two-dimensional domain",
            });
        }
        let (rows, cols) = (domain.dim(0), domain.dim(1));
        if rows < 2 || cols < 2 {
            return Err(StrategyError::BadQuery {
                what: "grid strategy requires both dimensions ≥ 2",
            });
        }
        if self.plans.shape() != (rows, cols) {
            return Err(StrategyError::BadQuery {
                what: "cached grid plans do not match the database shape",
            });
        }
        let release = grid_histogram_impl(
            x.counts(),
            self.eps,
            &self.plans,
            &mut PriveletWork::default(),
            rng,
        )?;
        Estimate::new(domain, release)
    }
}

/// Shared strategy body against prepared plans, over the row-major
/// counts of a `rows × cols` grid; every Privelet pass runs in `work`.
pub(crate) fn grid_histogram_impl(
    counts: &[f64],
    eps: Epsilon,
    plans: &GridPlans,
    work: &mut PriveletWork,
    rng: &mut dyn RngCore,
) -> Result<Vec<f64>, StrategyError> {
    let (rows, cols) = plans.shape();
    let n: f64 = counts.iter().sum();
    let at = |r: usize, c: usize| counts[r * cols + c];

    // True edge values of the canonical solution.
    // Vertical edge between rows (i, i+1) in column j carries the column
    // prefix V(i, j) = Σ_{r ≤ i} x[r, j]; estimated per edge-row i into
    // row i of `v_est`, (rows − 1) × cols.
    let mut v_est = vec![0.0; (rows - 1) * cols];
    let mut col_prefix = vec![0.0; cols];
    for (i, v_row) in v_est.chunks_exact_mut(cols).enumerate() {
        for (j, cp) in col_prefix.iter_mut().enumerate() {
            *cp += at(i, j);
        }
        privelet_planned_into(&plans.row, &col_prefix, eps, rng, work, v_row)?;
    }

    // Horizontal edge between columns (j, j+1) in row i carries 0 except
    // in the bottom row, where it carries the cumulative column total
    // H(j) = Σ_{c ≤ j} Σ_r x[r, c]; estimated per edge-column j into row
    // j of `h_est`, (cols − 1) × rows.
    let mut h_est = vec![0.0; (cols - 1) * rows];
    let mut column = vec![0.0; rows];
    let mut cum_total = 0.0;
    for (j, h_col) in h_est.chunks_exact_mut(rows).enumerate() {
        cum_total += (0..rows).map(|r| at(r, j)).sum::<f64>();
        column[rows - 1] = cum_total;
        privelet_planned_into(&plans.col, &column, eps, rng, work, h_col)?;
    }

    // Map back: x̂(i, j) = Ṽ(i, j) − Ṽ(i−1, j) + H̃(i, j) − H̃(i, j−1)
    // (absent edges contribute zero); the corner is reconstructed from the
    // public total.
    let v_at = |i: isize, j: usize| -> f64 {
        if i < 0 || i as usize >= rows - 1 {
            0.0
        } else {
            v_est[i as usize * cols + j]
        }
    };
    let h_at = |i: usize, j: isize| -> f64 {
        if j < 0 || j as usize >= cols - 1 {
            0.0
        } else {
            h_est[j as usize * rows + i]
        }
    };
    let mut out = vec![0.0; rows * cols];
    let mut non_corner_sum = 0.0;
    for i in 0..rows {
        for j in 0..cols {
            if i == rows - 1 && j == cols - 1 {
                continue; // the ⊥-replaced corner
            }
            let est = v_at(i as isize, j) - v_at(i as isize - 1, j) + h_at(i, j as isize)
                - h_at(i, j as isize - 1);
            out[i * cols + j] = est;
            non_corner_sum += est;
        }
    }
    out[rows * cols - 1] = n - non_corner_sum;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::true_answers;
    use crate::PriveletBaselineNd;
    use blowfish_core::{mse_per_query, Domain, RangeQuery, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_db(k: usize, f: impl Fn(usize, usize) -> f64) -> DataVector {
        let counts = (0..k * k).map(|i| f(i / k, i % k)).collect::<Vec<f64>>();
        DataVector::new(Domain::square(k), counts).unwrap()
    }

    /// The grid mechanism for a `rows × cols` grid.
    fn grid(rows: usize, cols: usize, eps: Epsilon) -> GridMechanism {
        GridMechanism::new(eps, GridPlans::new(rows, cols).unwrap())
    }

    #[test]
    fn exact_at_negligible_noise() {
        // End-to-end reconstruction check: with ε huge the estimate must
        // equal the database exactly (verifies P_G x_G = x for the
        // canonical edge solution, including the corner).
        let x = grid_db(5, |r, c| (r * 5 + c) as f64);
        let eps = Epsilon::new(1e8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let est = grid(5, 5, eps).fit(&x, &mut rng).unwrap();
        for (e, t) in est.histogram().iter().zip(x.counts()) {
            assert!((e - t).abs() < 1e-3, "{e} vs {t}");
        }
    }

    #[test]
    fn unbiased_and_total_preserving() {
        let x = grid_db(6, |r, c| ((r * 3 + c * 5) % 7) as f64);
        let eps = Epsilon::new(2.0).unwrap();
        let mech = grid(6, 6, eps);
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 200;
        let mut mean = vec![0.0; 36];
        for _ in 0..trials {
            let est = mech.fit(&x, &mut rng).unwrap();
            assert!((est.histogram().iter().sum::<f64>() - x.total()).abs() < 1e-6);
            for (m, e) in mean.iter_mut().zip(est.histogram()) {
                *m += e;
            }
        }
        for (i, m) in mean.iter().enumerate() {
            let avg = m / trials as f64;
            assert!(
                (avg - x.counts()[i]).abs() < 2.5,
                "cell {i}: {avg} vs {}",
                x.counts()[i]
            );
        }
    }

    #[test]
    fn beats_dp_privelet_on_2d_ranges() {
        // The Figure 8a headline: Transformed+Privelet (ε) beats DP
        // Privelet (ε/2) on 2-D range queries for non-tiny grids.
        let k = 32;
        let x = grid_db(k, |_, _| 1.0);
        let eps = Epsilon::new(1.0).unwrap();
        let d = Domain::square(k);
        let mut sp_rng = StdRng::seed_from_u64(3);
        let (_, specs) = Workload::random_ranges(&d, 150, &mut sp_rng).unwrap();
        let truth = true_answers(&x, &specs);
        let (mech, privelet) = (
            grid(k, k, eps),
            PriveletBaselineNd::new(eps.half().unwrap()),
        );
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 40;
        let mut blowfish = 0.0;
        let mut dp = 0.0;
        for _ in 0..trials {
            let b = mech.fit(&x, &mut rng).unwrap();
            blowfish += mse_per_query(&truth, &b.answer_many(&specs).unwrap()).unwrap();
            let p = privelet.fit(&x, &mut rng).unwrap();
            dp += mse_per_query(&truth, &p.answer_many(&specs).unwrap()).unwrap();
        }
        assert!(
            blowfish < dp,
            "grid strategy {blowfish} vs DP Privelet {dp}"
        );
    }

    #[test]
    fn rectangular_domains_supported() {
        let x = DataVector::new(
            Domain::product(&[3, 7]).unwrap(),
            (0..21).map(|v| v as f64).collect(),
        )
        .unwrap();
        let eps = Epsilon::new(1e8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let est = grid(3, 7, eps).fit(&x, &mut rng).unwrap();
        for (e, t) in est.histogram().iter().zip(x.counts()) {
            assert!((e - t).abs() < 1e-3);
        }
    }

    #[test]
    fn rejects_bad_domains() {
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let x1 = DataVector::new(Domain::one_dim(9), vec![0.0; 9]).unwrap();
        assert!(grid(3, 3, eps).fit(&x1, &mut rng).is_err());
        let thin = DataVector::new(Domain::product(&[1, 9]).unwrap(), vec![0.0; 9]).unwrap();
        assert!(grid(1, 9, eps).fit(&thin, &mut rng).is_err());
    }

    #[test]
    fn boundary_noise_structure() {
        // A range in the interior only accumulates noise from its 4
        // boundary runs: its error must not grow with the range area.
        let k = 32;
        let x = grid_db(k, |_, _| 0.0);
        let eps = Epsilon::new(1.0).unwrap();
        let d = Domain::square(k);
        let small = RangeQuery::new(&d, vec![10, 10], vec![13, 13]).unwrap();
        let large = RangeQuery::new(&d, vec![2, 2], vec![29, 29]).unwrap();
        let mech = grid(k, k, eps);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 150;
        let mut err_small = 0.0;
        let mut err_large = 0.0;
        for _ in 0..trials {
            let est = mech.fit(&x, &mut rng).unwrap();
            let ans = est.answer_many(&[small.clone(), large.clone()]).unwrap();
            err_small += ans[0] * ans[0];
            err_large += ans[1] * ans[1];
        }
        // Area differs by ~49x; boundary-only noise keeps the ratio modest.
        assert!(
            err_large / err_small < 10.0,
            "large-range error {err_large} vs small {err_small}"
        );
    }

    #[test]
    fn planned_mechanism_matches_free_function_bit_for_bit() {
        // A mechanism over cloned (shared) plans, as the plan cache hands
        // them out, releases the bits of one over plans of its own.
        let x = grid_db(8, |r, c| ((r * 3 + c) % 5) as f64);
        let eps = Epsilon::new(0.5).unwrap();
        let plans = GridPlans::new(8, 8).unwrap();
        let shared = GridMechanism::new(eps, plans.clone());
        let own = grid(8, 8, eps);
        let via_shared = shared.fit(&x, &mut StdRng::seed_from_u64(42)).unwrap();
        let via_own = own.fit(&x, &mut StdRng::seed_from_u64(42)).unwrap();
        assert_eq!(via_shared.histogram(), via_own.histogram());
        // Mismatched cached plans are rejected rather than silently wrong.
        let wrong = grid(4, 4, eps);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(wrong.fit(&x, &mut rng).is_err());
    }
}
