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

use std::collections::HashMap;
use std::sync::Arc;

use rand::{Rng, RngCore};

use blowfish_core::spanner::{theta_line_spanner, ThetaLineSpanner};
use blowfish_core::{DataVector, Epsilon, Incidence};
use blowfish_mechanisms::{
    dawa_histogram, laplace_histogram, privelet_planned_into, DawaOptions, HaarPlan, PriveletWork,
};

use crate::mechanism::{Estimate, Mechanism};
use crate::StrategyError;

/// Edge-space estimator for the θ-line strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// A prepared `G^θ_k` strategy: the `H^θ_k` spanner, its incidence matrix,
/// and the certified stretch that scales the budget (Corollary 4.6).
#[derive(Clone, Debug)]
pub struct ThetaLineStrategy {
    spanner: ThetaLineSpanner,
    incidence: Incidence,
    /// Haar plans for the per-group Privelet estimator, keyed by group
    /// length — derived once at construction so fits never re-plan.
    group_plans: HashMap<usize, HaarPlan>,
}

impl ThetaLineStrategy {
    /// Builds the strategy for domain size `k` and threshold `θ`
    /// (`k > θ ≥ 1`). Certifies the spanner stretch and derives the
    /// per-group Haar plans as part of construction.
    pub fn new(k: usize, theta: usize) -> Result<Self, StrategyError> {
        let spanner = theta_line_spanner(k, theta)?;
        let incidence = Incidence::new(&spanner.graph)?;
        let mut group_plans = HashMap::new();
        for &(start, end) in &spanner.groups {
            let len = end - start;
            if let std::collections::hash_map::Entry::Vacant(e) = group_plans.entry(len) {
                e.insert(HaarPlan::new(&[len])?);
            }
        }
        Ok(ThetaLineStrategy {
            spanner,
            incidence,
            group_plans,
        })
    }

    /// The spanner.
    pub fn spanner(&self) -> &ThetaLineSpanner {
        &self.spanner
    }

    /// Produces the `(ε, G^θ_k)`-Blowfish histogram estimate `x̂`:
    /// estimates the `H^θ_k` edge values at budget `ε/ℓ`, and maps back
    /// through `P_G` (Case II reconstruction from the public total).
    pub fn histogram<R: Rng + ?Sized>(
        &self,
        x: &DataVector,
        eps: Epsilon,
        estimator: ThetaEstimator,
        rng: &mut R,
    ) -> Result<Vec<f64>, StrategyError> {
        let eps_eff = eps.for_stretch(self.spanner.stretch)?;
        let reduced = self.incidence.reduce_database(x)?;
        let x_g = self.incidence.solve_tree(&reduced)?;
        let x_tilde = match estimator {
            ThetaEstimator::Laplace => laplace_histogram(&x_g, 1.0, eps_eff, rng)?,
            ThetaEstimator::Dawa => dawa_histogram(&x_g, eps_eff, DawaOptions::default(), rng)?,
            ThetaEstimator::GroupPrivelet => {
                // Disjoint groups → parallel composition: each group gets
                // the full ε_eff. Each group's estimate is written in
                // place, every pass in one set of work buffers.
                let mut out = vec![0.0; x_g.len()];
                let mut work = PriveletWork::default();
                for &(start, end) in &self.spanner.groups {
                    // The incidence preserves the spanner's edge order and
                    // count (grounding rewrites columns, never drops them),
                    // so group index ranges apply to x_G directly.
                    let plan =
                        self.group_plans
                            .get(&(end - start))
                            .ok_or(StrategyError::BadQuery {
                                what: "spanner group length missing from the prepared Haar plans",
                            })?;
                    privelet_planned_into(
                        plan,
                        &x_g[start..end],
                        eps_eff,
                        rng,
                        &mut work,
                        &mut out[start..end],
                    )?;
                }
                out
            }
        };
        let est_reduced = self.incidence.apply(&x_tilde)?;
        let totals = self.incidence.component_totals(x)?;
        Ok(self.incidence.reconstruct_database(&est_reduced, &totals)?)
    }
}

/// The θ-line strategy as a [`Mechanism`]: a shared prepared
/// [`ThetaLineStrategy`] (spanner + incidence + Haar plans, built once by
/// the plan cache) with the budget and edge-space estimator bound in.
#[derive(Clone, Debug)]
pub struct ThetaLineMechanism {
    strategy: Arc<ThetaLineStrategy>,
    eps: Epsilon,
    estimator: ThetaEstimator,
}

impl ThetaLineMechanism {
    /// Binds a prepared strategy, budget, and estimator.
    pub fn new(strategy: Arc<ThetaLineStrategy>, eps: Epsilon, estimator: ThetaEstimator) -> Self {
        ThetaLineMechanism {
            strategy,
            eps,
            estimator,
        }
    }

    /// Releases the histogram estimate (generic over the RNG).
    pub fn fit_histogram<R: Rng + ?Sized>(
        &self,
        x: &DataVector,
        rng: &mut R,
    ) -> Result<Vec<f64>, StrategyError> {
        self.strategy.histogram(x, self.eps, self.estimator, rng)
    }
}

impl Mechanism for ThetaLineMechanism {
    fn name(&self) -> &str {
        self.estimator.name()
    }

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        Estimate::new(x.domain(), self.fit_histogram(x, rng)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_core::{mse_per_query, Domain, RangeQuery, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db(counts: Vec<f64>) -> DataVector {
        let k = counts.len();
        DataVector::new(Domain::one_dim(k), counts).unwrap()
    }

    #[test]
    fn construction_and_stretch() {
        let s = ThetaLineStrategy::new(64, 4).unwrap();
        assert!(s.spanner.stretch <= 3);
        assert!(ThetaLineStrategy::new(4, 4).is_err());
    }

    #[test]
    fn histogram_is_unbiased_for_all_estimators() {
        let x = db(vec![
            4.0, 1.0, 0.0, 7.0, 2.0, 5.0, 3.0, 8.0, 0.0, 6.0, 1.0, 2.0,
        ]);
        let strat = ThetaLineStrategy::new(12, 3).unwrap();
        let eps = Epsilon::new(2.0).unwrap();
        for (seed, est) in [
            (1u64, ThetaEstimator::Laplace),
            (2, ThetaEstimator::GroupPrivelet),
        ] {
            let mut rng = StdRng::seed_from_u64(seed);
            let trials = 300;
            let mut mean = [0.0; 12];
            for _ in 0..trials {
                let e = strat.histogram(&x, eps, est, &mut rng).unwrap();
                assert!((e.iter().sum::<f64>() - x.total()).abs() < 1e-6);
                for (m, v) in mean.iter_mut().zip(&e) {
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
            let strat = ThetaLineStrategy::new(k, 4).unwrap();
            let d = Domain::one_dim(k);
            let mut sp_rng = StdRng::seed_from_u64(42);
            let (_, specs) = Workload::random_ranges(&d, 100, &mut sp_rng).unwrap();
            let truth = crate::answering::true_ranges_1d(&x, &specs).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            let trials = 100;
            let mut acc = 0.0;
            for _ in 0..trials {
                let est = strat
                    .histogram(&x, eps, ThetaEstimator::Laplace, &mut rng)
                    .unwrap();
                let ans = crate::answering::answer_ranges_1d(&est, &specs).unwrap();
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
        let strat = ThetaLineStrategy::new(9, 3).unwrap();
        let eps = Epsilon::new(1e7).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let d = Domain::one_dim(9);
        let specs: Vec<RangeQuery> = vec![
            RangeQuery::one_dim(&d, 0, 8).unwrap(),
            RangeQuery::one_dim(&d, 2, 5).unwrap(),
            RangeQuery::one_dim(&d, 4, 4).unwrap(),
            RangeQuery::one_dim(&d, 7, 8).unwrap(),
        ];
        let truth = crate::answering::true_ranges_1d(&x, &specs).unwrap();
        for est_kind in [
            ThetaEstimator::Laplace,
            ThetaEstimator::GroupPrivelet,
            ThetaEstimator::Dawa,
        ] {
            let est = strat.histogram(&x, eps, est_kind, &mut rng).unwrap();
            let ans = crate::answering::answer_ranges_1d(&est, &specs).unwrap();
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
        let strat = ThetaLineStrategy::new(k, theta).unwrap();
        let d = Domain::one_dim(k);
        let mut sp_rng = StdRng::seed_from_u64(5);
        let (_, specs) = Workload::random_ranges(&d, 100, &mut sp_rng).unwrap();
        let truth = crate::answering::true_ranges_1d(&x, &specs).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let trials = 40;
        let mut blowfish = 0.0;
        let mut dp = 0.0;
        for _ in 0..trials {
            let b = strat
                .histogram(&x, eps, ThetaEstimator::GroupPrivelet, &mut rng)
                .unwrap();
            blowfish += mse_per_query(
                &truth,
                &crate::answering::answer_ranges_1d(&b, &specs).unwrap(),
            )
            .unwrap();
            let p = crate::baselines::dp_privelet_1d(&x, eps.half(), &mut rng).unwrap();
            dp += mse_per_query(
                &truth,
                &crate::answering::answer_ranges_1d(&p, &specs).unwrap(),
            )
            .unwrap();
        }
        assert!(
            blowfish < dp,
            "Blowfish θ-strategy {blowfish} vs ε/2-DP Privelet {dp}"
        );
    }
}
