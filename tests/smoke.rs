//! Workspace smoke test: drives the facade's public API end-to-end through
//! the `examples/quickstart.rs` flow — a line-policy Blowfish histogram
//! release with a seeded RNG — so CI exercises the full
//! transform → mechanism → inverse-transform pipeline, not just unit parts.

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_privacy::prelude::*;

/// The lumpy two-mode database from `examples/quickstart.rs`.
fn quickstart_database(k: usize) -> DataVector {
    let counts: Vec<f64> = (0..k)
        .map(|i| {
            let a = (-((i as f64 - 18.0) / 7.0).powi(2)).exp() * 400.0;
            let b = (-((i as f64 - 45.0) / 10.0).powi(2)).exp() * 250.0;
            (a + b).round()
        })
        .collect();
    DataVector::new(Domain::one_dim(k), counts).expect("counts match domain")
}

#[test]
fn quickstart_flow_end_to_end() {
    let k = 64;
    let x = quickstart_database(k);
    let policy = PolicyGraph::line(k).expect("k >= 2");
    assert_eq!(policy.num_edges(), k - 1);
    assert!(policy.is_tree());

    let eps = Epsilon::new(0.2).expect("positive");
    let mut rng = StdRng::seed_from_u64(42);

    for estimator in [TreeEstimator::Laplace, TreeEstimator::LaplaceConsistent] {
        let line = LineMechanism::new(eps, estimator);
        let release = line.fit(&x, &mut rng).expect("line strategy");
        let est = release.histogram();
        assert_eq!(est.len(), k);
        // The line policy treats the total count n as public knowledge, so
        // the release must preserve it exactly (not just in expectation).
        let total: f64 = est.iter().sum();
        assert!(
            (total - x.total()).abs() < 1e-9,
            "{estimator:?}: released total {total} != true total {}",
            x.total()
        );
        assert!(est.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn quickstart_range_queries_beat_dp_baseline() {
    let k = 64;
    let x = quickstart_database(k);
    let eps = Epsilon::new(0.2).expect("positive");

    let domain = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(7);
    let (_, specs) = Workload::random_ranges(&domain, 200, &mut qrng).expect("valid domain");
    let exact = Estimate::new(&domain, x.counts().to_vec()).expect("finite counts");
    let truth = exact.answer_many(&specs).expect("truth");

    let trials = 25;
    let line = LineMechanism::new(eps, TreeEstimator::Laplace);
    let mut rng = StdRng::seed_from_u64(42);
    let blowfish = measure_error(&truth, trials, |_| {
        let est = line.fit(&x, &mut rng).expect("line");
        Ok(est.answer_many(&specs).expect("answers"))
    })
    .expect("trials > 0");

    let privelet = PriveletBaseline1d::new(eps.half().expect("ε/2 > 0"));
    let mut rng2 = StdRng::seed_from_u64(44);
    let dp = measure_error(&truth, trials, |_| {
        let est = privelet.fit(&x, &mut rng2).expect("privelet");
        Ok(est.answer_many(&specs).expect("answers"))
    })
    .expect("trials > 0");

    // Theorem 5.2's Θ(1/ε²) vs O(log³k/ε²) separation: at k = 64 the
    // policy-aware strategy must win by a wide, seed-robust margin.
    assert!(
        blowfish.mean_mse * 4.0 < dp.mean_mse,
        "Blowfish MSE {} not well below DP baseline MSE {}",
        blowfish.mean_mse,
        dp.mean_mse
    );
}
