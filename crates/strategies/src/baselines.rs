//! The ε/2-differentially-private baselines of Section 6.
//!
//! Every Section-6 figure compares `(ε, G)`-Blowfish strategies against
//! `ε/2`-DP algorithms for the same task (the factor 2 makes add/remove DP
//! comparable with the replace-style policies). The baselines are:
//!
//! * **Laplace** — the data-independent histogram baseline (Hist panels);
//! * **Privelet** — the data-independent range-query baseline, 1-D and 2-D;
//! * **DAWA** — the data-dependent baseline, 1-D natively and 2-D via
//!   row-major linearization (substitution documented in DESIGN.md §7).
//!
//! Each baseline is a [`Mechanism`] struct with its budget bound in, and
//! [`Mechanism::fit`] is the one way to run it. Range answers come from
//! the fitted [`Estimate`].

use std::sync::OnceLock;

use rand::RngCore;

use blowfish_core::{DataVector, Epsilon};
use blowfish_mechanisms::{
    dawa_histogram, laplace_histogram, privelet_planned_into, DawaOptions, HaarPlan, PriveletWork,
};

use crate::mechanism::{Estimate, Mechanism};
use crate::StrategyError;

/// The ε-DP Laplace histogram baseline (sensitivity 1, unbounded DP).
#[derive(Clone, Copy, Debug)]
pub struct LaplaceBaseline {
    eps: Epsilon,
}

impl LaplaceBaseline {
    /// Binds the budget.
    pub fn new(eps: Epsilon) -> Self {
        LaplaceBaseline { eps }
    }
}

impl Mechanism for LaplaceBaseline {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        Estimate::new(
            x.domain(),
            laplace_histogram(x.counts(), 1.0, self.eps, rng)?,
        )
    }
}

/// Releases `x` through Privelet over `dims`, with the Haar plan a
/// Privelet baseline keeps in `cell`, derived for `dims` at its first
/// fit. A baseline serves the shape of its first fit only: a later fit
/// of another shape is refused.
fn privelet_fit(
    cell: &OnceLock<HaarPlan>,
    dims: &[usize],
    x: &DataVector,
    eps: Epsilon,
    rng: &mut dyn RngCore,
) -> Result<Estimate, StrategyError> {
    if cell.get().is_none() {
        // A racing first fit may set it first, with an equal plan.
        let _ = cell.set(HaarPlan::new(dims)?);
    }
    let plan = cell.get().expect("the plan was set above");
    if plan.dims() != dims {
        return Err(StrategyError::BadQuery {
            what: "a Privelet baseline serves the shape of its first fit only",
        });
    }
    let mut out = vec![0.0; x.len()];
    privelet_planned_into(
        plan,
        x.counts(),
        eps,
        rng,
        &mut PriveletWork::default(),
        &mut out,
    )?;
    Estimate::new(x.domain(), out)
}

/// The ε-DP Privelet baseline over a 1-D domain. Its Haar plan is
/// derived at the first fit and kept for every later one.
#[derive(Clone, Debug)]
pub struct PriveletBaseline1d {
    eps: Epsilon,
    plan: OnceLock<HaarPlan>,
}

impl PriveletBaseline1d {
    /// Binds the budget.
    pub fn new(eps: Epsilon) -> Self {
        PriveletBaseline1d {
            eps,
            plan: OnceLock::new(),
        }
    }
}

impl Mechanism for PriveletBaseline1d {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        privelet_fit(&self.plan, &[x.len()], x, self.eps, rng)
    }
}

/// The ε-DP Privelet baseline over a multi-dimensional domain. Its Haar
/// plan is derived at the first fit and kept for every later one.
#[derive(Clone, Debug)]
pub struct PriveletBaselineNd {
    eps: Epsilon,
    plan: OnceLock<HaarPlan>,
}

impl PriveletBaselineNd {
    /// Binds the budget.
    pub fn new(eps: Epsilon) -> Self {
        PriveletBaselineNd {
            eps,
            plan: OnceLock::new(),
        }
    }
}

impl Mechanism for PriveletBaselineNd {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        privelet_fit(&self.plan, x.domain().dims(), x, self.eps, rng)
    }
}

/// The ε-DP DAWA baseline over a 1-D domain.
#[derive(Clone, Copy, Debug)]
pub struct DawaBaseline1d {
    eps: Epsilon,
}

impl DawaBaseline1d {
    /// Binds the budget.
    pub fn new(eps: Epsilon) -> Self {
        DawaBaseline1d { eps }
    }
}

impl Mechanism for DawaBaseline1d {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        let release = dawa_histogram(x.counts(), self.eps, DawaOptions::default(), rng)?;
        Estimate::new(x.domain(), release)
    }
}

/// The ε-DP DAWA baseline over a 2-D domain via row-major linearization:
/// the 1-D partition still discovers the long zero-runs of sparse geo
/// grids, which is all the Figure 8a narrative requires.
#[derive(Clone, Copy, Debug)]
pub struct DawaBaseline2d {
    eps: Epsilon,
}

impl DawaBaseline2d {
    /// Binds the budget.
    pub fn new(eps: Epsilon) -> Self {
        DawaBaseline2d { eps }
    }
}

impl Mechanism for DawaBaseline2d {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        if x.domain().num_dims() != 2 {
            return Err(StrategyError::BadQuery {
                what: "the 2-D DAWA baseline requires a two-dimensional domain",
            });
        }
        let release = dawa_histogram(x.counts(), self.eps, DawaOptions::default(), rng)?;
        Estimate::new(x.domain(), release)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_core::Domain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db_1d(counts: Vec<f64>) -> DataVector {
        let k = counts.len();
        DataVector::new(Domain::one_dim(k), counts).unwrap()
    }

    /// The released histogram of one fit.
    fn release(mech: &dyn Mechanism, x: &DataVector, rng: &mut StdRng) -> Vec<f64> {
        mech.fit(x, rng).unwrap().histogram().to_vec()
    }

    #[test]
    fn baselines_return_right_shapes() {
        let x = db_1d(vec![1.0; 32]);
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(release(&LaplaceBaseline::new(eps), &x, &mut rng).len(), 32);
        assert_eq!(
            release(&PriveletBaseline1d::new(eps), &x, &mut rng).len(),
            32
        );
        assert_eq!(release(&DawaBaseline1d::new(eps), &x, &mut rng).len(), 32);

        let x2 = DataVector::new(Domain::square(6), vec![1.0; 36]).unwrap();
        assert_eq!(
            release(&PriveletBaselineNd::new(eps), &x2, &mut rng).len(),
            36
        );
        assert_eq!(release(&DawaBaseline2d::new(eps), &x2, &mut rng).len(), 36);
    }

    #[test]
    fn dawa_2d_rejects_1d_domain() {
        let x = db_1d(vec![1.0; 8]);
        let eps = Epsilon::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(DawaBaseline2d::new(eps).fit(&x, &mut rng).is_err());
    }

    #[test]
    fn estimates_track_truth_at_high_epsilon() {
        let x = db_1d(vec![100.0; 16]);
        let eps = Epsilon::new(50.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for est in [
            release(&LaplaceBaseline::new(eps), &x, &mut rng),
            release(&PriveletBaseline1d::new(eps), &x, &mut rng),
            release(&DawaBaseline1d::new(eps), &x, &mut rng),
        ] {
            for (e, t) in est.iter().zip(x.counts()) {
                assert!((e - t).abs() < 5.0, "estimate {e} vs truth {t}");
            }
        }
    }

    #[test]
    fn privelet_baselines_serve_the_shape_of_their_first_fit() {
        let eps = Epsilon::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let one_d = PriveletBaseline1d::new(eps);
        one_d.fit(&db_1d(vec![1.0; 8]), &mut rng).unwrap();
        one_d.fit(&db_1d(vec![2.0; 8]), &mut rng).unwrap();
        assert!(one_d.fit(&db_1d(vec![1.0; 16]), &mut rng).is_err());
        // Same cell count, transposed shape: the kept plan does not fit.
        let grid = |dims: &[usize]| {
            DataVector::new(Domain::product(dims).unwrap(), vec![1.0; 24]).unwrap()
        };
        let n_d = PriveletBaselineNd::new(eps);
        n_d.fit(&grid(&[4, 6]), &mut rng).unwrap();
        assert!(n_d.fit(&grid(&[6, 4]), &mut rng).is_err());
    }

    #[test]
    fn mechanisms_report_their_constructed_epsilon() {
        let eps = Epsilon::new(0.25).unwrap();
        let mechs: Vec<Box<dyn Mechanism>> = vec![
            Box::new(LaplaceBaseline::new(eps)),
            Box::new(PriveletBaseline1d::new(eps)),
            Box::new(PriveletBaselineNd::new(eps)),
            Box::new(DawaBaseline1d::new(eps)),
            Box::new(DawaBaseline2d::new(eps)),
        ];
        for (i, m) in mechs.iter().enumerate() {
            assert_eq!(m.epsilon(), eps, "mechanism {i}");
        }
    }

    #[test]
    fn trait_fit_matches_free_function() {
        // The Laplace baseline's release is the Laplace mechanism's,
        // draw for draw.
        let x = db_1d(vec![5.0; 16]);
        let eps = Epsilon::new(0.5).unwrap();
        let mech: &dyn Mechanism = &LaplaceBaseline::new(eps);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let via_trait = release(mech, &x, &mut a);
        let via_free = laplace_histogram(x.counts(), 1.0, eps, &mut b).unwrap();
        assert_eq!(via_trait, via_free);
    }
}
