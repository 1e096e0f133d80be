//! Seeded equivalence: every registry-dispatched mechanism must reproduce
//! the directly constructed mechanism **bit-for-bit** for a fixed seed —
//! the registry adds dispatch, memoization and plan caching, nothing else.
//! A session builds a baseline at ε/2 and a Blowfish strategy at ε, so
//! each comparison constructs its mechanism at that budget.
//!
//! Covers 1-D (line and θ-line policies) and 2-D (grid and θ-grid) at
//! two ε values each, plus the answering path (a fitted `Estimate` must
//! answer ranges exactly like direct cell sums).

use std::sync::Arc;

use blowfish_privacy::linalg::Matrix;
use blowfish_privacy::mechanisms::{hierarchical_strategy, identity_strategy, wavelet_strategy};
use blowfish_privacy::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPSILONS: [f64; 2] = [0.1, 1.0];

fn db_1d(k: usize) -> DataVector {
    let counts: Vec<f64> = (0..k).map(|i| ((i * 7) % 13) as f64).collect();
    DataVector::new(Domain::one_dim(k), counts).unwrap()
}

fn db_2d(k: usize) -> DataVector {
    let counts: Vec<f64> = (0..k * k).map(|i| ((i * 3) % 5) as f64).collect();
    DataVector::new(Domain::square(k), counts).unwrap()
}

/// Fits a spec through the session's registry and returns the raw
/// histogram.
fn fit_via_engine(session: &Session, spec: &MechanismSpec, x: &DataVector, seed: u64) -> Vec<f64> {
    let mech = session.mechanism(spec).unwrap();
    fit_direct(mech.as_ref(), x, seed)
}

/// Fits a directly constructed mechanism and returns the raw histogram.
fn fit_direct(mech: &dyn Mechanism, x: &DataVector, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    mech.fit(x, &mut rng).unwrap().histogram().to_vec()
}

#[test]
fn line_policy_mechanisms_match_free_functions() {
    let k = 64;
    let x = db_1d(k);
    let graph = PolicyGraph::line(k).unwrap();
    for (i, &e) in EPSILONS.iter().enumerate() {
        let eps = Epsilon::new(e).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let seed = 100 + i as u64;

        let half = eps.half().unwrap();

        let via = fit_via_engine(&session, &MechanismSpec::Laplace, &x, seed);
        let direct = fit_direct(&LaplaceBaseline::new(half), &x, seed);
        assert_eq!(via, direct, "laplace ε={e}");

        let via = fit_via_engine(&session, &MechanismSpec::Privelet1d, &x, seed);
        let direct = fit_direct(&PriveletBaseline1d::new(half), &x, seed);
        assert_eq!(via, direct, "privelet ε={e}");

        let via = fit_via_engine(&session, &MechanismSpec::Dawa1d, &x, seed);
        let direct = fit_direct(&DawaBaseline1d::new(half), &x, seed);
        assert_eq!(via, direct, "dawa ε={e}");

        for est in [
            TreeEstimator::Laplace,
            TreeEstimator::LaplaceConsistent,
            TreeEstimator::Dawa,
            TreeEstimator::DawaConsistent,
            TreeEstimator::Hierarchical,
            TreeEstimator::HierarchicalConsistent,
        ] {
            let via = fit_via_engine(&session, &MechanismSpec::Line(est), &x, seed);
            let direct = fit_direct(&LineMechanism::new(eps, est), &x, seed);
            assert_eq!(via, direct, "line {est:?} ε={e}");
        }
    }
}

#[test]
fn theta_line_mechanisms_match_strategy_calls() {
    let k = 96;
    let theta = 4;
    let x = db_1d(k);
    let graph = PolicyGraph::theta_line(k, theta).unwrap();
    let strat = Arc::new(ThetaLineStrategy::new(k, theta).unwrap());
    for (i, &e) in EPSILONS.iter().enumerate() {
        let eps = Epsilon::new(e).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let seed = 200 + i as u64;
        for est in [
            ThetaEstimator::Laplace,
            ThetaEstimator::GroupPrivelet,
            ThetaEstimator::Dawa,
        ] {
            let spec = MechanismSpec::ThetaLine {
                theta,
                estimator: est,
            };
            let via = fit_via_engine(&session, &spec, &x, seed);
            let mech = ThetaLineMechanism::new(Arc::clone(&strat), eps, est).unwrap();
            assert_eq!(via, fit_direct(&mech, &x, seed), "θ-line {est:?} ε={e}");
        }
    }
}

#[test]
fn grid_mechanisms_match_free_functions() {
    let k = 16;
    let x = db_2d(k);
    for (i, &e) in EPSILONS.iter().enumerate() {
        let eps = Epsilon::new(e).unwrap();
        let session =
            Session::with_policy(Domain::square(k), Policy::Theta2d { theta: 1 }, eps).unwrap();
        let seed = 300 + i as u64;

        let half = eps.half().unwrap();

        let via = fit_via_engine(&session, &MechanismSpec::PriveletNd, &x, seed);
        let direct = fit_direct(&PriveletBaselineNd::new(half), &x, seed);
        assert_eq!(via, direct, "privelet-nd ε={e}");

        let via = fit_via_engine(&session, &MechanismSpec::Dawa2d, &x, seed);
        let direct = fit_direct(&DawaBaseline2d::new(half), &x, seed);
        assert_eq!(via, direct, "dawa-2d ε={e}");

        // The plan-cached grid mechanism vs one over plans of its own.
        let via = fit_via_engine(&session, &MechanismSpec::Grid, &x, seed);
        let grid = GridMechanism::new(eps, GridPlans::new(k, k).unwrap());
        assert_eq!(via, fit_direct(&grid, &x, seed), "grid ε={e}");
    }
}

#[test]
fn theta_grid_mechanism_matches_strategy_call() {
    let k = 12;
    let theta = 4;
    let x = db_2d(k);
    let strat = Arc::new(ThetaGridStrategy::new(k, theta).unwrap());
    for (i, &e) in EPSILONS.iter().enumerate() {
        let eps = Epsilon::new(e).unwrap();
        let session =
            Session::with_policy(Domain::square(k), Policy::Theta2d { theta }, eps).unwrap();
        let seed = 400 + i as u64;
        let via = fit_via_engine(&session, &MechanismSpec::ThetaGrid { theta }, &x, seed);
        let mech = ThetaGridMechanism::new(Arc::clone(&strat), eps).unwrap();
        assert_eq!(via, fit_direct(&mech, &x, seed), "θ-grid ε={e}");
    }
}

/// Direct cell sums of every range in `specs` over a row-major
/// histogram, exact in f64 for integer-valued histograms.
fn direct_sums(d: &Domain, hist: &[f64], specs: &[RangeQuery]) -> Vec<f64> {
    specs
        .iter()
        .map(|q| {
            let cells = RangeQuery::cells_in(d, &q.lo, &q.hi).unwrap();
            cells.into_iter().map(|c| hist[c]).sum()
        })
        .collect()
}

#[test]
fn estimates_answer_like_the_answering_helpers() {
    // The serve path answers exactly: a session-fitted release, rounded
    // to an integer-valued histogram, answers each range with its direct
    // cell sum, bit for bit; the unrounded release within rounding.
    let k = 64;
    let x = db_1d(k);
    let eps = Epsilon::new(0.5).unwrap();
    let graph = PolicyGraph::line(k).unwrap();
    let session = Session::new(&graph, eps).unwrap();
    let d = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(9);
    let (_, specs) = Workload::random_ranges(&d, 500, &mut qrng).unwrap();
    let mech = session
        .mechanism(&MechanismSpec::Line(TreeEstimator::Laplace))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let est = mech.fit(&x, &mut rng).unwrap();

    let x2 = db_2d(16);
    let s2 = Session::with_policy(Domain::square(16), Policy::Theta2d { theta: 1 }, eps).unwrap();
    let d2 = Domain::square(16);
    let mut qrng = StdRng::seed_from_u64(10);
    let (_, specs2) = Workload::random_ranges(&d2, 300, &mut qrng).unwrap();
    let mech2 = s2.mechanism(&MechanismSpec::Grid).unwrap();
    let mut rng = StdRng::seed_from_u64(78);
    let est2 = mech2.fit(&x2, &mut rng).unwrap();

    for (d, est, specs) in [(&d, &est, &specs), (&d2, &est2, &specs2)] {
        let rounded: Vec<f64> = est.histogram().iter().map(|v| v.round()).collect();
        let exact = Estimate::new(d, rounded.clone()).unwrap();
        assert_eq!(
            exact.answer_many(specs).unwrap(),
            direct_sums(d, &rounded, specs)
        );
        let direct = direct_sums(d, est.histogram(), specs);
        for (a, b) in est.answer_many(specs).unwrap().iter().zip(&direct) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The session-served matrix mechanism (`A⁺` applied by the
    /// closed-form tree solve) must reproduce the dense materialized-A⁺
    /// reference mechanism to ≤1e-9 relative, for every strategy kind,
    /// any domain size, and any seed. Transformational equivalence makes
    /// this checkable: both draw the identical Laplace vector from the
    /// same seed, so the only divergence left is the solver.
    #[test]
    fn matrix_hist_sparse_and_dense_paths_agree(
        k in 2usize..160,
        kind_ix in 0usize..3,
        seed in 0u64..1000,
    ) {
        let (kind, strategy) = match kind_ix {
            0 => ("identity", identity_strategy(k)),
            1 => ("hierarchical", hierarchical_strategy(k)),
            _ => ("wavelet", wavelet_strategy(k)),
        };
        let spec = MechanismSpec::parse(&format!("mm-hist-{kind}")).unwrap();
        let x = db_1d(k);
        let eps = Epsilon::new(0.4).unwrap();
        let session = Session::new(&PolicyGraph::line(k).unwrap(), eps).unwrap();

        let sparse = fit_via_engine(&session, &spec, &x, seed);
        let dense = MatrixMechanism::new(Matrix::identity(k), strategy)
            .unwrap()
            .run(x.counts(), eps.half().unwrap(), &mut StdRng::seed_from_u64(seed))
            .unwrap();
        for (d, s) in dense.iter().zip(&sparse) {
            prop_assert!(
                (d - s).abs() <= 1e-9 * (1.0 + d.abs()),
                "k={} kind={} seed={}: {} vs {}", k, kind, seed, d, s
            );
        }
    }
}

#[test]
fn session_budget_convention_matches_experiment_harness() {
    // Session::mechanism serves baselines at ε/2 and Blowfish at ε — the
    // Section 6 comparison convention the panels rely on.
    let k = 32;
    let x = db_1d(k);
    let eps = Epsilon::new(1.0).unwrap();
    let graph = PolicyGraph::line(k).unwrap();
    let session = Session::new(&graph, eps).unwrap();

    let base = fit_via_engine(&session, &MechanismSpec::Laplace, &x, 5);
    let laplace = LaplaceBaseline::new(eps.half().unwrap());
    assert_eq!(base, fit_direct(&laplace, &x, 5));

    let spec = MechanismSpec::Line(TreeEstimator::Laplace);
    let blowfish = fit_via_engine(&session, &spec, &x, 6);
    let line = LineMechanism::new(eps, TreeEstimator::Laplace);
    assert_eq!(blowfish, fit_direct(&line, &x, 6));
}
