//! Strategies for the 1-D distance-threshold policy `G^θ_k`
//! (Section 5.3.1, Theorem 5.5).
//!
//! `G^θ_k` is not a tree, so the strong equivalence is unavailable.
//! Instead, the spanner `H^θ_k` (Figure 6) — a tree with certified stretch
//! ≤ 3 — stands in: by Corollary 4.6, an `(ε/ℓ)`-DP mechanism on the
//! `H^θ_k`-transformed instance is `(ε, G^θ_k)`-Blowfish private. The
//! transformed database consists of per-group subtree sums: groups of θ
//! edges hanging off each red vertex, estimated independently (parallel
//! composition across disjoint groups) by Privelet — giving
//! `O(log³θ/ε²)` per range query — or by Laplace / DAWA for the
//! data-dependent variants of Figure 8d.
//!
//! The shape of `H^θ_k` is fixed, so the strategy never builds it: the
//! red vertices `(i+1)θ − 1` form a path, every other cell is a leaf of
//! its block's red vertex, and the `k mod θ` trailing cells are leaves of
//! the last red vertex. The edge values `x_G` are each leaf's count plus
//! running block totals, one linear pass like the line policy's prefix
//! sums (Example 4.1), and `P_G` maps the estimates back in another. A
//! strategy holds k, θ, the certified stretch and the Haar plans of its
//! at most three group lengths: a few hundred bytes whatever k.
//!
//! Both passes replay the arithmetic order of the generic [`Incidence`]
//! path over [`theta_line_spanner`]'s graph (`solve_tree`, `apply` and
//! `reconstruct_database`, with the rightmost cell grounded), so releases
//! are bit-identical to it; the tests sweep the two against each other.
//!
//! [`Incidence`]: blowfish_core::Incidence
//! [`theta_line_spanner`]: blowfish_core::theta_line_spanner

use std::ops::Range;
use std::sync::Arc;

use rand::RngCore;

use blowfish_core::{theta_line_stretch, CoreError, DataVector, Epsilon};
use blowfish_mechanisms::{
    dawa_histogram, laplace_histogram, privelet_planned_into, DawaOptions, HaarPlan, PriveletWork,
};

use crate::mechanism::{Estimate, Mechanism};
use crate::StrategyError;

/// Edge-space estimator for the θ-line strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ThetaEstimator {
    /// Laplace per edge value (`Transformed + Laplace` of Figure 8d).
    Laplace,
    /// Per-group Privelet (the Theorem 5.5 strategy).
    GroupPrivelet,
    /// DAWA over the whole edge vector (`Trans + Dawa` of Figure 8d).
    Dawa,
}

impl ThetaEstimator {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            ThetaEstimator::Laplace => "Transformed + Laplace",
            ThetaEstimator::GroupPrivelet => "Transformed + GroupPrivelet",
            ThetaEstimator::Dawa => "Trans + Dawa",
        }
    }
}

/// A prepared `G^θ_k` strategy: the shape of the `H^θ_k` spanner, the
/// certified stretch that scales the budget (Corollary 4.6), and the
/// group-Privelet Haar plans.
///
/// The spanner's edges are numbered as [`blowfish_core::theta_line_spanner`]
/// numbers them. Edge `e < last_red` belongs to cell `e`: the leaf edge of
/// a non-red cell, or the path edge leaving red cell `e` to the right.
/// Edge `e ≥ last_red` joins the last red vertex to trailing cell `e + 1`.
#[derive(Clone, Debug)]
pub struct ThetaLineStrategy {
    k: usize,
    theta: usize,
    /// Certified stretch ℓ of `H^θ_k` (Lemma 4.5).
    stretch: usize,
    /// Haar plans for the per-group Privelet estimator, one per distinct
    /// non-empty group length (θ − 1, θ and k mod θ) — derived once at
    /// construction so fits never re-plan.
    group_plans: Vec<HaarPlan>,
}

impl ThetaLineStrategy {
    /// Builds the strategy for domain size `k` and threshold `θ`
    /// (`k > θ ≥ 1`). Certifies the spanner stretch and derives the
    /// per-group Haar plans as part of construction.
    pub fn new(k: usize, theta: usize) -> Result<Self, StrategyError> {
        let stretch = theta_line_stretch(k, theta)?;
        // Group 0 holds block 0's θ − 1 leaf edges, every later block's
        // group its path edge and θ − 1 leaf edges, and the trailing group
        // the k mod θ trailing edges. An empty group (the first when
        // θ = 1, the trailing one when θ | k) is never released.
        let middle = if k / theta > 1 { theta } else { 0 };
        let mut group_plans: Vec<HaarPlan> = Vec::with_capacity(3);
        for len in [theta - 1, middle, k % theta] {
            if len > 0 && !group_plans.iter().any(|p| p.dims() == [len]) {
                group_plans.push(HaarPlan::new(&[len])?);
            }
        }
        Ok(ThetaLineStrategy {
            k,
            theta,
            stretch,
            group_plans,
        })
    }

    /// The certified stretch ℓ.
    pub fn stretch(&self) -> usize {
        self.stretch
    }

    /// The last red vertex, `⌊k/θ⌋·θ − 1`: the grounded cell `k − 1`
    /// itself when θ | k.
    fn last_red(&self) -> usize {
        self.k / self.theta * self.theta - 1
    }

    /// The edges of group `g`: one group per red vertex (its path edge in,
    /// then its block's leaf edges), then the trailing edges when θ ∤ k.
    fn group(&self, g: usize) -> Range<usize> {
        (g * self.theta).saturating_sub(1)..((g + 1) * self.theta - 1).min(self.k - 1)
    }

    /// The `H^θ_k` edge values `x_G` that the strategy measures, in the
    /// spanner's edge order: the unique solution of `P_G x_G = x′` with
    /// cell `k − 1` grounded. A leaf edge carries its cell's count and a
    /// trailing edge the negated count of its trailing cell. The edge
    /// leaving red vertex `r` toward the grounded cell carries the total
    /// of every cell through `r`'s block, with the trailing cells for the
    /// last red vertex.
    pub fn edge_values(&self, x: &DataVector) -> Result<Vec<f64>, StrategyError> {
        let (k, theta) = (self.k, self.theta);
        if x.len() != k {
            return Err(CoreError::DataShapeMismatch {
                domain_size: k,
                data_len: x.len(),
            }
            .into());
        }
        let x = x.counts();
        let last_red = self.last_red();
        let mut x_g = vec![0.0; k - 1];
        let mut left: Option<f64> = None;
        for r in (theta - 1..=last_red).step_by(theta) {
            let leaves = r + 1 - theta..r;
            x_g[leaves.clone()].copy_from_slice(&x[leaves.clone()]);
            if r == k - 1 {
                break;
            }
            // `Incidence::solve_tree` peels the trailing cells, then each
            // block's leaves, both in descending order, and then the red
            // path from left to right: a red vertex's value is
            // ((x[r] + trailing) + leaves) + the previous path value.
            let mut v = x[r];
            if r == last_red {
                for &t in x[r + 1..k - 1].iter().rev() {
                    v += t;
                }
            }
            for &l in x[leaves].iter().rev() {
                v += l;
            }
            if let Some(p) = left {
                v += p;
            }
            left = Some(v);
            x_g[if r == last_red { k - 2 } else { r }] = v;
        }
        for e in last_red..k.saturating_sub(2) {
            x_g[e] = -x[e + 1];
        }
        Ok(x_g)
    }

    /// Maps edge estimates back to a histogram: `P_G x̃`, then the
    /// grounded cell from the public total. It replays `Incidence::apply`
    /// and `reconstruct_database`: each row adds its ±1 entries in
    /// ascending edge order starting from 0.0 (so a −0.0 estimate comes
    /// out as +0.0, as it does there), and the last cell is the
    /// left-to-right total minus the other cells, taken in order.
    fn reconstruct(&self, x: &[f64], x_tilde: &[f64]) -> Vec<f64> {
        let (k, theta) = (self.k, self.theta);
        let last_red = self.last_red();
        let mut est = vec![0.0; k];
        for (r, cell) in est[..k - 1].iter_mut().enumerate() {
            *cell = if r > last_red {
                // A trailing cell: −1 on its trailing edge.
                0.0 - x_tilde[r - 1]
            } else if r % theta != theta - 1 {
                // A leaf: +1 on its own edge.
                0.0 + x_tilde[r]
            } else {
                // A red vertex: −1 on its group's edges, +1 on the edges
                // leaving it (its path edge, or every trailing edge).
                let g = r / theta;
                let out = if r == last_red {
                    self.group(g + 1)
                } else {
                    r..r + 1
                };
                let mut acc = 0.0;
                for &v in &x_tilde[self.group(g)] {
                    acc -= v;
                }
                for &v in &x_tilde[out] {
                    acc += v;
                }
                acc
            };
        }
        let mut last = 0.0;
        for &v in x {
            last += v;
        }
        for &v in &est[..k - 1] {
            last -= v;
        }
        est[k - 1] = last;
        est
    }
}

/// The θ-line strategy as a [`Mechanism`]: a shared prepared
/// [`ThetaLineStrategy`] (stretch and group Haar plans, built once by the
/// plan cache) with the budget and edge-space estimator bound in.
#[derive(Clone, Debug)]
pub struct ThetaLineMechanism {
    strategy: Arc<ThetaLineStrategy>,
    eps: Epsilon,
    /// The edge-space budget `ε/ℓ`.
    eps_eff: Epsilon,
    estimator: ThetaEstimator,
}

impl ThetaLineMechanism {
    /// Binds a prepared strategy, budget, and estimator. Derives the
    /// edge-space budget `ε/ℓ` here, so a budget whose share underflows
    /// to 0 is refused before any release is charged for it.
    pub fn new(
        strategy: Arc<ThetaLineStrategy>,
        eps: Epsilon,
        estimator: ThetaEstimator,
    ) -> Result<Self, StrategyError> {
        Ok(ThetaLineMechanism {
            eps_eff: eps.for_stretch(strategy.stretch)?,
            strategy,
            eps,
            estimator,
        })
    }
}

impl Mechanism for ThetaLineMechanism {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// Produces the `(ε, G^θ_k)`-Blowfish histogram estimate `x̂`:
    /// estimates the `H^θ_k` edge values at budget `ε/ℓ`, and maps back
    /// through `P_G` (Case II reconstruction from the public total).
    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        let (strategy, eps_eff) = (&self.strategy, self.eps_eff);
        let x_g = strategy.edge_values(x)?;
        let x_tilde = match self.estimator {
            ThetaEstimator::Laplace => laplace_histogram(&x_g, 1.0, eps_eff, rng)?,
            ThetaEstimator::Dawa => dawa_histogram(&x_g, eps_eff, DawaOptions::default(), rng)?,
            ThetaEstimator::GroupPrivelet => {
                // Disjoint groups → parallel composition: each group gets
                // the full ε_eff. Each group's estimate is written in
                // place, every pass in one set of work buffers.
                let mut out = vec![0.0; x_g.len()];
                let mut work = PriveletWork::default();
                for g in 0..strategy.k.div_ceil(strategy.theta) {
                    let group = strategy.group(g);
                    if group.is_empty() {
                        continue;
                    }
                    let plan = strategy
                        .group_plans
                        .iter()
                        .find(|p| p.dims() == [group.len()])
                        .ok_or(StrategyError::BadQuery {
                            what: "spanner group length missing from the prepared Haar plans",
                        })?;
                    privelet_planned_into(
                        plan,
                        &x_g[group.clone()],
                        eps_eff,
                        rng,
                        &mut work,
                        &mut out[group],
                    )?;
                }
                out
            }
        };
        Estimate::new(x.domain(), strategy.reconstruct(x.counts(), &x_tilde))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::true_answers;
    use crate::PriveletBaseline1d;
    use blowfish_core::{mse_per_query, Domain, RangeQuery, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db(counts: Vec<f64>) -> DataVector {
        let k = counts.len();
        DataVector::new(Domain::one_dim(k), counts).unwrap()
    }

    /// The θ-line mechanism for `G^θ_k` at `eps` with `estimator`.
    fn mech(k: usize, theta: usize, eps: Epsilon, estimator: ThetaEstimator) -> ThetaLineMechanism {
        let strategy = Arc::new(ThetaLineStrategy::new(k, theta).unwrap());
        ThetaLineMechanism::new(strategy, eps, estimator).unwrap()
    }

    #[test]
    fn construction_and_stretch() {
        let s = ThetaLineStrategy::new(64, 4).unwrap();
        assert!(s.stretch() <= 3);
        assert!(ThetaLineStrategy::new(4, 4).is_err());
    }

    #[test]
    fn histogram_is_unbiased_for_all_estimators() {
        let x = db(vec![
            4.0, 1.0, 0.0, 7.0, 2.0, 5.0, 3.0, 8.0, 0.0, 6.0, 1.0, 2.0,
        ]);
        let eps = Epsilon::new(2.0).unwrap();
        for (seed, est) in [
            (1u64, ThetaEstimator::Laplace),
            (2, ThetaEstimator::GroupPrivelet),
        ] {
            let mechanism = mech(12, 3, eps, est);
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 300;
            let mut mean = [0.0; 12];
            for _ in 0..trials {
                let e = mechanism.fit(&x, &mut rng).unwrap();
                assert!((e.histogram().iter().sum::<f64>() - x.total()).abs() < 1e-6);
                for (m, v) in mean.iter_mut().zip(e.histogram()) {
                    *m += v;
                }
            }
            for (i, m) in mean.iter().enumerate() {
                let avg = m / trials as f64;
                assert!(
                    (avg - x.get(i)).abs() < 1.5,
                    "{est:?} cell {i}: {avg} vs {}",
                    x.get(i)
                );
            }
        }
    }

    #[test]
    fn error_flat_in_domain_size() {
        // Figure 8d's signature behaviour: the Blowfish θ-strategy error
        // does not grow with the domain size.
        let eps = Epsilon::new(0.5).unwrap();
        let mut errors = Vec::new();
        for k in [128usize, 1024] {
            let x = db(vec![1.0; k]);
            let m = mech(k, 4, eps, ThetaEstimator::Laplace);
            let d = Domain::one_dim(k);
            let mut sp_rng = StdRng::seed_from_u64(42);
            let (_, specs) = Workload::random_ranges(&d, 100, &mut sp_rng).unwrap();
            let truth = true_answers(&x, &specs);
            let mut rng = StdRng::seed_from_u64(9);
            let trials = 100;
            let mut acc = 0.0;
            for _ in 0..trials {
                let est = m.fit(&x, &mut rng).unwrap();
                let ans = est.answer_many(&specs).unwrap();
                acc += mse_per_query(&truth, &ans).unwrap();
            }
            errors.push(acc / trials as f64);
        }
        let ratio = errors[1] / errors[0];
        assert!(
            ratio < 2.0,
            "error grew with domain size: {errors:?} (ratio {ratio})"
        );
    }

    #[test]
    fn range_answers_match_boundary_structure() {
        // With (near-)zero noise the strategy must answer ranges exactly —
        // verifying the P_G reconstruction end to end.
        let x = db(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0]);
        let eps = Epsilon::new(1e7).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let d = Domain::one_dim(9);
        let specs: Vec<RangeQuery> = vec![
            RangeQuery::one_dim(&d, 0, 8).unwrap(),
            RangeQuery::one_dim(&d, 2, 5).unwrap(),
            RangeQuery::one_dim(&d, 4, 4).unwrap(),
            RangeQuery::one_dim(&d, 7, 8).unwrap(),
        ];
        let truth = true_answers(&x, &specs);
        for est_kind in [
            ThetaEstimator::Laplace,
            ThetaEstimator::GroupPrivelet,
            ThetaEstimator::Dawa,
        ] {
            let est = mech(9, 3, eps, est_kind).fit(&x, &mut rng).unwrap();
            let ans = est.answer_many(&specs).unwrap();
            for (a, t) in ans.iter().zip(&truth) {
                assert!((a - t).abs() < 0.1, "{est_kind:?}: answer {a} vs truth {t}");
            }
        }
    }

    #[test]
    fn group_privelet_beats_whole_domain_privelet_shape() {
        // Theorem 5.5: per-group Privelet error scales with log³θ, not
        // log³k, so at fixed θ the error stays bounded while plain
        // DP-Privelet error grows with k. Compare the strategy against the
        // ε/2-DP Privelet baseline on a large domain.
        let k = 2048;
        let theta = 4;
        let x = db(vec![2.0; k]);
        let eps = Epsilon::new(1.0).unwrap();
        let m = mech(k, theta, eps, ThetaEstimator::GroupPrivelet);
        let privelet = PriveletBaseline1d::new(eps.half().unwrap());
        let d = Domain::one_dim(k);
        let mut sp_rng = StdRng::seed_from_u64(5);
        let (_, specs) = Workload::random_ranges(&d, 100, &mut sp_rng).unwrap();
        let truth = true_answers(&x, &specs);
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 40;
        let mut blowfish = 0.0;
        let mut dp = 0.0;
        for _ in 0..trials {
            let b = m.fit(&x, &mut rng).unwrap();
            blowfish += mse_per_query(&truth, &b.answer_many(&specs).unwrap()).unwrap();
            let p = privelet.fit(&x, &mut rng).unwrap();
            dp += mse_per_query(&truth, &p.answer_many(&specs).unwrap()).unwrap();
        }
        assert!(
            blowfish < dp,
            "Blowfish θ-strategy {blowfish} vs ε/2-DP Privelet {dp}"
        );
    }
}
