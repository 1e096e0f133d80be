//! End-to-end experiments-in-miniature: the orderings the paper's
//! evaluation reports, verified at test scale.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_privacy::prelude::*;

fn uniform_1d(k: usize, v: f64) -> DataVector {
    DataVector::new(Domain::one_dim(k), vec![v; k]).unwrap()
}

/// The released histogram of one fit of `mech` to `x`.
fn release(mech: &dyn Mechanism, x: &DataVector, rng: &mut StdRng) -> Vec<f64> {
    mech.fit(x, rng).unwrap().histogram().to_vec()
}

/// The answers to `specs` of one fit of `mech` to `x`.
fn answers(
    mech: &dyn Mechanism,
    x: &DataVector,
    specs: &[RangeQuery],
    rng: &mut StdRng,
) -> Vec<f64> {
    mech.fit(x, rng).unwrap().answer_many(specs).unwrap()
}

/// The exact answers to `specs`: an estimate of the true counts.
fn true_answers(x: &DataVector, specs: &[RangeQuery]) -> Vec<f64> {
    let exact = Estimate::new(x.domain(), x.counts().to_vec()).unwrap();
    exact.answer_many(specs).unwrap()
}

/// The ε/2 budget of a baseline.
fn half(eps: Epsilon) -> Epsilon {
    eps.half().unwrap()
}

fn mse_of<F>(truth: &[f64], trials: usize, mut f: F) -> f64
where
    F: FnMut() -> Vec<f64>,
{
    measure_error(truth, trials, |_| Ok(f())).unwrap().mean_mse
}

/// Figure 8c in miniature: Blowfish 1-D range answering beats the ε/2-DP
/// baselines by a wide margin.
#[test]
fn blowfish_beats_dp_on_1d_ranges() {
    let k = 1024;
    let x = uniform_1d(k, 3.0);
    let eps = Epsilon::new(0.5).unwrap();
    let d = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(1);
    let (_, specs) = Workload::random_ranges(&d, 300, &mut qrng).unwrap();
    let truth = true_answers(&x, &specs);
    let trials = 30;

    let line = LineMechanism::new(eps, TreeEstimator::Laplace);
    let mut r1 = StdRng::seed_from_u64(2);
    let blowfish = mse_of(&truth, trials, || answers(&line, &x, &specs, &mut r1));
    let dp = PriveletBaseline1d::new(half(eps));
    let mut r2 = StdRng::seed_from_u64(3);
    let privelet = mse_of(&truth, trials, || answers(&dp, &x, &specs, &mut r2));
    assert!(
        blowfish * 10.0 < privelet,
        "expected ≥10x gap: blowfish {blowfish} vs privelet {privelet}"
    );
}

/// The Hist factor-2 calibration (Section 6.1): Transformed+Laplace at ε
/// is almost exactly half the error of ε/2 Laplace.
#[test]
fn hist_factor_two_calibration() {
    let k = 512;
    let x = uniform_1d(k, 5.0);
    let eps = Epsilon::new(0.4).unwrap();
    let truth = x.counts().to_vec();
    let trials = 60;

    let line = LineMechanism::new(eps, TreeEstimator::Laplace);
    let mut r1 = StdRng::seed_from_u64(4);
    let blowfish = mse_of(&truth, trials, || release(&line, &x, &mut r1));
    let dp = LaplaceBaseline::new(half(eps));
    let mut r2 = StdRng::seed_from_u64(5);
    let laplace = mse_of(&truth, trials, || release(&dp, &x, &mut r2));
    let ratio = laplace / blowfish;
    assert!(
        (1.5..3.0).contains(&ratio),
        "Laplace/Blowfish ratio {ratio}, expected ≈ 2"
    );
}

/// Figure 8a in miniature: the 2-D grid strategy beats ε/2-DP Privelet.
#[test]
fn blowfish_beats_dp_on_2d_ranges() {
    let k = 32;
    let x = DataVector::new(Domain::square(k), vec![2.0; k * k]).unwrap();
    let eps = Epsilon::new(1.0).unwrap();
    let d = Domain::square(k);
    let mut qrng = StdRng::seed_from_u64(6);
    let (_, specs) = Workload::random_ranges(&d, 200, &mut qrng).unwrap();
    let truth = true_answers(&x, &specs);
    let trials = 20;

    let grid = GridMechanism::new(eps, GridPlans::new(k, k).unwrap());
    let mut r1 = StdRng::seed_from_u64(7);
    let blowfish = mse_of(&truth, trials, || answers(&grid, &x, &specs, &mut r1));
    let dp = PriveletBaselineNd::new(half(eps));
    let mut r2 = StdRng::seed_from_u64(8);
    let privelet = mse_of(&truth, trials, || answers(&dp, &x, &specs, &mut r2));
    assert!(
        blowfish < privelet,
        "blowfish {blowfish} vs privelet {privelet}"
    );
}

/// Figure 8d's signature: Blowfish θ-strategy error is flat in the domain
/// size while the DP baseline grows.
#[test]
fn theta_error_flat_dp_grows() {
    let eps = Epsilon::new(0.5).unwrap();
    let trials = 20;
    let mut blowfish_errors = Vec::new();
    let mut dp_errors = Vec::new();
    for k in [256usize, 2048] {
        let x = uniform_1d(k, 2.0);
        let d = Domain::one_dim(k);
        let mut qrng = StdRng::seed_from_u64(9);
        let (_, specs) = Workload::random_ranges(&d, 150, &mut qrng).unwrap();
        let truth = true_answers(&x, &specs);
        let strat = Arc::new(ThetaLineStrategy::new(k, 4).unwrap());
        let theta = ThetaLineMechanism::new(strat, eps, ThetaEstimator::Laplace).unwrap();

        let mut r1 = StdRng::seed_from_u64(10);
        blowfish_errors.push(mse_of(&truth, trials, || {
            answers(&theta, &x, &specs, &mut r1)
        }));
        let dp = PriveletBaseline1d::new(half(eps));
        let mut r2 = StdRng::seed_from_u64(11);
        dp_errors.push(mse_of(&truth, trials, || answers(&dp, &x, &specs, &mut r2)));
    }
    let blowfish_growth = blowfish_errors[1] / blowfish_errors[0];
    let dp_growth = dp_errors[1] / dp_errors[0];
    assert!(
        blowfish_growth < 1.8,
        "Blowfish error grew {blowfish_growth}x across domain sizes"
    );
    assert!(
        dp_growth > blowfish_growth,
        "DP growth {dp_growth} should exceed Blowfish growth {blowfish_growth}"
    );
}

/// Consistency and DAWA variants help on sparse data and never
/// catastrophically hurt on dense data (Section 5.4 narrative).
#[test]
fn data_dependent_variants_on_sparse_vs_dense() {
    let k = 512;
    let eps = Epsilon::new(0.1).unwrap();
    let trials = 20;
    let d = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(12);
    let (_, specs) = Workload::random_ranges(&d, 150, &mut qrng).unwrap();

    // Sparse: two large spikes.
    let mut counts = vec![0.0; k];
    counts[40] = 5000.0;
    counts[400] = 2500.0;
    let sparse = DataVector::new(d.clone(), counts).unwrap();
    let truth = true_answers(&sparse, &specs);
    let line = LineMechanism::new(eps, TreeEstimator::Laplace);
    let line_consistent = LineMechanism::new(eps, TreeEstimator::LaplaceConsistent);
    let mut r1 = StdRng::seed_from_u64(13);
    let plain = mse_of(&truth, trials, || answers(&line, &sparse, &specs, &mut r1));
    let mut r2 = StdRng::seed_from_u64(14);
    let consistent = mse_of(&truth, trials, || {
        answers(&line_consistent, &sparse, &specs, &mut r2)
    });
    assert!(
        consistent < plain,
        "consistency should win on sparse data: {consistent} vs {plain}"
    );

    // Dense: uniform data — consistency must not blow up.
    let dense = uniform_1d(k, 50.0);
    let truth_d = true_answers(&dense, &specs);
    let mut r3 = StdRng::seed_from_u64(15);
    let plain_d = mse_of(&truth_d, trials, || answers(&line, &dense, &specs, &mut r3));
    let mut r4 = StdRng::seed_from_u64(16);
    let consistent_d = mse_of(&truth_d, trials, || {
        answers(&line_consistent, &dense, &specs, &mut r4)
    });
    assert!(
        consistent_d < plain_d * 3.0,
        "consistency catastrophic on dense data: {consistent_d} vs {plain_d}"
    );
}

/// Dataset statistics drive the algorithms as the paper describes: DAWA's
/// data-dependent win appears on the sparse Table-1 stand-ins. The paper
/// reports the clear win at ε = 1 (Figure 9b) — at tiny ε the partition
/// budget starves and DAWA and Laplace trade places, which Figure 8
/// also shows.
#[test]
fn dawa_wins_on_sparse_table1_data() {
    let eps = Epsilon::new(1.0).unwrap();
    let trials = 10;
    for id in [DatasetId::E, DatasetId::F] {
        let x = dataset(id);
        let truth = x.counts().to_vec();
        let mut r1 = StdRng::seed_from_u64(17);
        let lap = mse_of(&truth, trials, || {
            release(&LaplaceBaseline::new(eps), &x, &mut r1)
        });
        let mut r2 = StdRng::seed_from_u64(18);
        let dawa = mse_of(&truth, trials, || {
            release(&DawaBaseline1d::new(eps), &x, &mut r2)
        });
        assert!(
            dawa < lap,
            "DAWA should beat Laplace on dataset {:?} at ε=1: {dawa} vs {lap}",
            id
        );
    }
}

/// Analytic anchors for the Corollary A.2 SVD bound. Note the bound is a
/// floor for the (ε,δ)-calibrated *matrix mechanism class* of Li & Miklau
/// — pure-ε Laplace mechanisms use a different (L1) noise class and can
/// sit below the class constant `P(ε,δ)`, so the meaningful checks are the
/// closed forms and cross-policy orderings, not a comparison against a
/// Laplace measurement.
#[test]
fn svd_bound_analytic_anchors() {
    let eps = Epsilon::new(1.0).unwrap();
    let delta = Delta::new(0.001).unwrap();
    let p = blowfish_privacy::strategies::p_eps_delta(eps, delta);

    // Identity workload + star policy: W_G = I_k, Σσ = k, n_G = k, so the
    // bound is exactly P(ε,δ)·k.
    let k = 16;
    let gram_identity = blowfish_privacy::linalg::Matrix::identity(k);
    let b = svd_lower_bound(&gram_identity, &PolicyGraph::star(k).unwrap(), eps, delta).unwrap();
    assert!(
        (b - p * k as f64).abs() / (p * k as f64) < 1e-9,
        "identity/star bound {b} vs analytic {}",
        p * k as f64
    );

    // Scaling in ε: quadrupling ε divides the bound by 16.
    let eps4 = Epsilon::new(4.0).unwrap();
    let b4 = svd_lower_bound(&gram_identity, &PolicyGraph::star(k).unwrap(), eps4, delta).unwrap();
    assert!((b / b4 - 16.0).abs() < 1e-6);

    // Cross-policy ordering on ranges: line < unbounded DP at this size.
    let gram = blowfish_privacy::core::range_gram_1d(64);
    let line = svd_lower_bound(&gram, &PolicyGraph::line(64).unwrap(), eps, delta).unwrap();
    let dp = svd_lower_bound_unbounded_dp(&gram, eps, delta).unwrap();
    assert!(line < dp);
}
