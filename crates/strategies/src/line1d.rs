//! Strategies for the line policy `G¹_k` (Algorithm 1 + Section 5.4).
//!
//! Under `G¹_k` the transformed database `x_G = P_G⁻¹x` is the vector of
//! prefix sums (Example 4.1), and Blowfish neighbors map to unit changes of
//! a single prefix (Claim 4.2). The strategies here estimate `x̃_G` under
//! ordinary unbounded ε-DP and answer everything by differencing:
//!
//! * `Transformed + Laplace` — Algorithm 1 / Theorem 5.2: `Θ(1/ε²)` per
//!   range query, beating Privelet's `O(log³k/ε²)` by the full polylog.
//! * `Transformed + ConsistentEst` — isotonic post-processing (prefix sums
//!   are non-decreasing; Section 5.4.2).
//! * `Trans + DAWA (+ Cons)` — DAWA on the transformed database
//!   (Section 5.4.1), valid because `G¹_k` is a tree (Theorem 4.3).
//!
//! A generic tree-policy variant works for any tree `G` through the
//! [`Incidence`] machinery.

use std::sync::Arc;

use rand::RngCore;

use blowfish_core::{DataVector, Epsilon, Incidence};
use blowfish_mechanisms::{
    consistent_prefix_estimate, dawa_histogram, hierarchical_histogram, laplace_histogram,
    DawaOptions,
};

use crate::mechanism::{Estimate, Mechanism};
use crate::StrategyError;

/// How to estimate the transformed (edge-space) database of a tree policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TreeEstimator {
    /// Laplace noise per edge value (the data-independent Algorithm 1).
    Laplace,
    /// Laplace + isotonic consistency (`Transformed + ConsistentEst`).
    /// Only meaningful when the edge values are non-decreasing in edge
    /// order — true for the line policy's prefix sums.
    LaplaceConsistent,
    /// DAWA on the transformed database (`Trans + DAWA`).
    Dawa,
    /// DAWA + isotonic consistency (`Trans + DAWA + Cons`).
    DawaConsistent,
    /// Hay's hierarchical estimator on the transformed database — an
    /// extension beyond the paper toward its stated open question
    /// ("designing data dependent Blowfish mechanisms for Hist under G¹_k
    /// with optimal error"): the WLS tree shares budget across prefix
    /// scales, trading Algorithm 1's Θ(1/ε²) short-range error for better
    /// long-range behaviour.
    Hierarchical,
    /// Hierarchical + isotonic consistency.
    HierarchicalConsistent,
}

impl TreeEstimator {
    /// Short display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            TreeEstimator::Laplace => "Transformed + Laplace",
            TreeEstimator::LaplaceConsistent => "Transformed + ConsistentEst",
            TreeEstimator::Dawa => "Trans + Dawa",
            TreeEstimator::DawaConsistent => "Trans + Dawa + Cons",
            TreeEstimator::Hierarchical => "Trans + Hierarchical",
            TreeEstimator::HierarchicalConsistent => "Trans + Hier + Cons",
        }
    }
}

/// Estimates an edge-space vector under unbounded ε-DP with the chosen
/// estimator. `monotone_total` enables the isotonic variants (pass the
/// public database total).
fn estimate_edges(
    x_g: &[f64],
    eps: Epsilon,
    estimator: TreeEstimator,
    monotone_total: Option<f64>,
    rng: &mut dyn RngCore,
) -> Result<Vec<f64>, StrategyError> {
    let raw = match estimator {
        TreeEstimator::Laplace | TreeEstimator::LaplaceConsistent => {
            laplace_histogram(x_g, 1.0, eps, rng)?
        }
        TreeEstimator::Dawa | TreeEstimator::DawaConsistent => {
            dawa_histogram(x_g, eps, DawaOptions::default(), rng)?
        }
        TreeEstimator::Hierarchical | TreeEstimator::HierarchicalConsistent => {
            hierarchical_histogram(x_g, eps, rng)?
        }
    };
    match estimator {
        TreeEstimator::LaplaceConsistent
        | TreeEstimator::DawaConsistent
        | TreeEstimator::HierarchicalConsistent => {
            let total = monotone_total.ok_or(StrategyError::BadQuery {
                what: "consistency requires the public total (monotone edge order)",
            })?;
            Ok(consistent_prefix_estimate(&raw, total))
        }
        _ => Ok(raw),
    }
}

/// The `(ε, G¹_k)`-Blowfish line strategy as a [`Mechanism`]: estimates
/// the prefix sums under ε-DP and differences them back to cell counts,
/// reconstructing the last cell from the public total `n` (Case II).
#[derive(Clone, Copy, Debug)]
pub struct LineMechanism {
    eps: Epsilon,
    estimator: TreeEstimator,
}

impl LineMechanism {
    /// Binds the budget and edge-space estimator.
    pub fn new(eps: Epsilon, estimator: TreeEstimator) -> Self {
        LineMechanism { eps, estimator }
    }
}

impl Mechanism for LineMechanism {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        let k = x.len();
        if k < 2 {
            return Err(StrategyError::BadQuery {
                what: "line policy needs at least 2 domain values",
            });
        }
        let n = x.total();
        // x_G: the first k−1 prefix sums (the k-th is the public n).
        let full_prefix = x.prefix_sums();
        let x_g = &full_prefix[..k - 1];
        let x_tilde = estimate_edges(x_g, self.eps, self.estimator, Some(n), rng)?;
        // Difference back: x̂[0] = x̃_G[0]; x̂[i] = x̃_G[i] − x̃_G[i−1];
        // x̂[k−1] = n − x̃_G[k−2].
        let mut out = Vec::with_capacity(k);
        out.push(x_tilde[0]);
        for i in 1..k - 1 {
            out.push(x_tilde[i] - x_tilde[i - 1]);
        }
        out.push(n - x_tilde[k - 2]);
        Estimate::new(x.domain(), out)
    }
}

/// The generic tree-policy Blowfish strategy as a [`Mechanism`]: solves
/// `x_G` exactly (subtree sums), estimates it under ε-DP, and maps back
/// through `x̂ = P_G·x̃_G` with Case II/III reconstruction from the
/// (public) component totals. Sound for any tree policy by Theorem 4.3.
///
/// The [`Incidence`] is shared (`Arc`) so a plan cache can build it once
/// and serve it across fits and trials.
///
/// Isotonic variants are rejected here: general tree edge orders are not
/// monotone (use [`LineMechanism`] for the line policy).
#[derive(Clone, Debug)]
pub struct TreeMechanism {
    incidence: Arc<Incidence>,
    eps: Epsilon,
    estimator: TreeEstimator,
}

impl TreeMechanism {
    /// Binds a prepared incidence, budget, and estimator.
    pub fn new(
        incidence: Arc<Incidence>,
        eps: Epsilon,
        estimator: TreeEstimator,
    ) -> Result<Self, StrategyError> {
        if matches!(
            estimator,
            TreeEstimator::LaplaceConsistent
                | TreeEstimator::DawaConsistent
                | TreeEstimator::HierarchicalConsistent
        ) {
            return Err(StrategyError::BadQuery {
                what: "isotonic consistency requires a monotone edge order (line policy)",
            });
        }
        Ok(TreeMechanism {
            incidence,
            eps,
            estimator,
        })
    }
}

impl Mechanism for TreeMechanism {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        let inc = &self.incidence;
        let reduced = inc.reduce_database(x)?;
        let x_g = inc.solve_tree(&reduced)?;
        let x_tilde = estimate_edges(&x_g, self.eps, self.estimator, None, rng)?;
        let est_reduced = inc.apply(&x_tilde)?;
        let totals = inc.component_totals(x)?;
        Estimate::new(x.domain(), inc.reconstruct_database(&est_reduced, &totals)?)
    }
}

/// Analytic per-query error of Algorithm 1 on `R_k` (Theorem 5.2): each
/// range is the difference of at most two noisy prefixes, `≈ 2·(2/ε²)`.
#[cfg(test)]
pub fn line_range_error(eps: Epsilon) -> f64 {
    2.0 * blowfish_mechanisms::laplace_variance(1.0 / eps.value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::true_answers;
    use blowfish_core::{Domain, PolicyGraph, RangeQuery, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db(counts: Vec<f64>) -> DataVector {
        let k = counts.len();
        DataVector::new(Domain::one_dim(k), counts).unwrap()
    }

    /// One line-strategy release of `x`.
    fn line(x: &DataVector, eps: Epsilon, est: TreeEstimator, rng: &mut StdRng) -> Estimate {
        LineMechanism::new(eps, est).fit(x, rng).unwrap()
    }

    #[test]
    fn histogram_estimates_are_unbiased_and_total_preserving() {
        let x = db(vec![5.0, 0.0, 3.0, 7.0, 1.0, 0.0, 2.0, 9.0]);
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 400;
        let mut mean = [0.0; 8];
        for _ in 0..trials {
            let est = line(&x, eps, TreeEstimator::Laplace, &mut rng);
            // The reconstruction forces Σ x̂ = n exactly.
            assert!((est.histogram().iter().sum::<f64>() - x.total()).abs() < 1e-9);
            for (m, e) in mean.iter_mut().zip(est.histogram()) {
                *m += e;
            }
        }
        for (i, m) in mean.iter().enumerate() {
            let avg = m / trials as f64;
            assert!(
                (avg - x.get(i)).abs() < 0.6,
                "cell {i}: {avg} vs {}",
                x.get(i)
            );
        }
    }

    #[test]
    fn theorem_5_2_error_constant_in_k() {
        // Algorithm 1's per-range error is Θ(1/ε²), independent of k.
        let eps = Epsilon::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 200;
        let mut errors = Vec::new();
        for k in [64usize, 512] {
            let x = db(vec![1.0; k]);
            let d = Domain::one_dim(k);
            // Random mid-size ranges avoiding the endpoints.
            let specs: Vec<RangeQuery> = (0..50)
                .map(|i| {
                    let l = (i * 3) % (k / 2);
                    RangeQuery::one_dim(&d, l, l + k / 4).unwrap()
                })
                .collect();
            let truth = true_answers(&x, &specs);
            let mut acc = 0.0;
            for _ in 0..trials {
                let est = line(&x, eps, TreeEstimator::Laplace, &mut rng);
                let ans = est.answer_many(&specs).unwrap();
                acc += blowfish_core::mse_per_query(&truth, &ans).unwrap();
            }
            errors.push(acc / trials as f64);
        }
        let expected = line_range_error(eps); // 2·2/ε² = 16
        for e in &errors {
            assert!(
                (e - expected).abs() / expected < 0.25,
                "measured {e} vs analytic {expected}"
            );
        }
        // Flat in k: the two domain sizes agree within noise.
        assert!((errors[0] - errors[1]).abs() / expected < 0.3);
    }

    #[test]
    fn consistency_helps_on_sparse_data() {
        let k = 512;
        let mut counts = vec![0.0; k];
        counts[50] = 2000.0;
        counts[300] = 1000.0;
        let x = db(counts);
        let eps = Epsilon::new(0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let d = Domain::one_dim(k);
        let mut sp_rng = StdRng::seed_from_u64(99);
        let (_, specs) = Workload::random_ranges(&d, 200, &mut sp_rng).unwrap();
        let truth = true_answers(&x, &specs);
        let trials = 60;
        let mut raw = 0.0;
        let mut cons = 0.0;
        for _ in 0..trials {
            let a = line(&x, eps, TreeEstimator::Laplace, &mut rng);
            let b = line(&x, eps, TreeEstimator::LaplaceConsistent, &mut rng);
            raw += blowfish_core::mse_per_query(&truth, &a.answer_many(&specs).unwrap()).unwrap();
            cons += blowfish_core::mse_per_query(&truth, &b.answer_many(&specs).unwrap()).unwrap();
        }
        assert!(cons < raw, "consistency did not help: {cons} vs {raw}");
    }

    #[test]
    fn dawa_variant_runs() {
        let x = db(vec![0.0, 0.0, 100.0, 0.0, 0.0, 0.0, 50.0, 0.0]);
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for est in [TreeEstimator::Dawa, TreeEstimator::DawaConsistent] {
            let e = line(&x, eps, est, &mut rng);
            assert_eq!(e.histogram().len(), 8);
        }
    }

    #[test]
    fn generic_tree_strategy_matches_line_semantics() {
        // Run the generic tree machinery on the line policy and verify it
        // is unbiased too (it reconstructs through P_G rather than by
        // direct differencing).
        let x = db(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0]);
        let g = PolicyGraph::line(6).unwrap();
        let inc = Arc::new(Incidence::new(&g).unwrap());
        let eps = Epsilon::new(2.0).unwrap();
        let tree = TreeMechanism::new(inc, eps, TreeEstimator::Laplace).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 300;
        let mut mean = [0.0; 6];
        for _ in 0..trials {
            let est = tree.fit(&x, &mut rng).unwrap();
            for (m, e) in mean.iter_mut().zip(est.histogram()) {
                *m += e;
            }
        }
        for (i, m) in mean.iter().enumerate() {
            let avg = m / trials as f64;
            assert!((avg - x.get(i)).abs() < 0.5, "cell {i}: {avg}");
        }
    }

    #[test]
    fn tree_strategy_rejects_consistency() {
        let g = PolicyGraph::line(4).unwrap();
        let inc = Arc::new(Incidence::new(&g).unwrap());
        let eps = Epsilon::new(1.0).unwrap();
        for est in [
            TreeEstimator::LaplaceConsistent,
            TreeEstimator::DawaConsistent,
            TreeEstimator::HierarchicalConsistent,
        ] {
            assert!(TreeMechanism::new(Arc::clone(&inc), eps, est).is_err());
        }
    }

    #[test]
    fn tiny_domain_rejected() {
        let x = db(vec![1.0]);
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mech = LineMechanism::new(eps, TreeEstimator::Laplace);
        assert!(mech.fit(&x, &mut rng).is_err());
    }

    #[test]
    fn hierarchical_variant_is_unbiased() {
        let x = db(vec![2.0, 7.0, 1.0, 0.0, 3.0, 5.0, 4.0, 2.0]);
        let eps = Epsilon::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 300;
        let mut mean = [0.0; 8];
        for _ in 0..trials {
            let est = line(&x, eps, TreeEstimator::Hierarchical, &mut rng);
            assert!((est.histogram().iter().sum::<f64>() - x.total()).abs() < 1e-6);
            for (m, e) in mean.iter_mut().zip(est.histogram()) {
                *m += e;
            }
        }
        for (i, m) in mean.iter().enumerate() {
            let avg = m / trials as f64;
            assert!((avg - x.get(i)).abs() < 1.5, "cell {i}: {avg}");
        }
        // Consistent variant also runs.
        let est = line(&x, eps, TreeEstimator::HierarchicalConsistent, &mut rng);
        assert_eq!(est.histogram().len(), 8);
    }

    #[test]
    fn estimator_names() {
        assert_eq!(TreeEstimator::Laplace.name(), "Transformed + Laplace");
        assert_eq!(TreeEstimator::DawaConsistent.name(), "Trans + Dawa + Cons");
    }
}
