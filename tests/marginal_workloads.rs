//! Marginal workloads under Blowfish policies.
//!
//! The paper's introduction motivates "range query and marginal workloads";
//! Section 6 evaluates ranges, and marginals flow through exactly the same
//! pipeline: any workload is answerable from a strategy's histogram
//! estimate `x̂`, with error governed by the transformed queries' edge
//! structure. These tests pin down that structure and the resulting
//! accuracy.

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_privacy::core::policy_sensitivity;
use blowfish_privacy::prelude::*;

/// One-way marginals over a 2-D grid transform to single boundary runs
/// under the grid policy: a row-marginal is a full-width box, whose
/// transformed query touches only the two vertical-edge rows bounding it.
#[test]
fn marginal_transform_structure_under_grid_policy() {
    let k = 6;
    let d = Domain::square(k);
    let g = PolicyGraph::distance_threshold(d.clone(), 1).unwrap();
    let inc = Incidence::new(&g).unwrap();
    let w = Workload::one_way_marginals(&d).unwrap();
    // Row marginal i = box [i..i] × [0..k-1]: boundary = vertical edges
    // above and below the row — at most 2k edges, far fewer than the k²
    // cells it covers.
    for (i, q) in w.queries().iter().enumerate().take(k) {
        let t = inc.transform_query(q).unwrap();
        assert!(
            t.edge_query.nnz() <= 2 * k,
            "row marginal {i}: {} edges",
            t.edge_query.nnz()
        );
    }
}

/// Marginals answered from the grid strategy's estimate are unbiased and
/// far more accurate than their ε/2-DP Laplace counterparts.
#[test]
fn grid_strategy_answers_marginals_well() {
    let k = 24;
    let d = Domain::square(k);
    let counts: Vec<f64> = (0..k * k).map(|i| ((i * 7) % 11) as f64).collect();
    let x = DataVector::new(d.clone(), counts).unwrap();
    let w = Workload::one_way_marginals(&d).unwrap();
    let truth = w.answer(x.counts()).unwrap();
    let eps = Epsilon::new(0.5).unwrap();
    let trials = 25;

    let grid = GridMechanism::new(eps, GridPlans::new(k, k).unwrap());
    let mut rng = StdRng::seed_from_u64(1);
    let blowfish = measure_error(&truth, trials, |_| {
        let est = grid.fit(&x, &mut rng).unwrap();
        Ok(w.answer(est.histogram()).unwrap())
    })
    .unwrap();

    let laplace = LaplaceBaseline::new(eps.half().unwrap());
    let mut rng2 = StdRng::seed_from_u64(2);
    let dp = measure_error(&truth, trials, |_| {
        let est = laplace.fit(&x, &mut rng2).unwrap();
        Ok(w.answer(est.histogram()).unwrap())
    })
    .unwrap();

    // A marginal sums k cells: flat Laplace pays k independent noises
    // (Θ(k/ε²)); the grid strategy pays only its boundary runs.
    assert!(
        blowfish.mean_mse < dp.mean_mse,
        "blowfish {} vs dp {}",
        blowfish.mean_mse,
        dp.mean_mse
    );
}

/// Policy sensitivity of marginal workloads: moving a record one grid step
/// changes at most 2 marginal counts (one per affected dimension) — so the
/// grid policy makes marginals *cheap*, while unbounded DP charges both
/// dimensions for every record.
#[test]
fn marginal_sensitivity_across_policies() {
    let k = 5;
    let d = Domain::square(k);
    let w = Workload::one_way_marginals(&d).unwrap();
    let grid = PolicyGraph::distance_threshold(d.clone(), 1).unwrap();
    let star = PolicyGraph::star(k * k).unwrap();
    // One grid step changes one coordinate: 2 marginal queries flip
    // (the old and new value of that coordinate).
    assert_eq!(policy_sensitivity(&w, &grid).unwrap(), 2.0);
    // Add/remove touches one marginal per dimension: also 2 here, but via
    // a different mechanism (both coordinates counted once).
    assert_eq!(policy_sensitivity(&w, &star).unwrap(), 2.0);
    // Bounded DP (replace anywhere) can flip 4: two per dimension.
    let complete = PolicyGraph::complete(k * k).unwrap();
    assert_eq!(policy_sensitivity(&w, &complete).unwrap(), 4.0);
}

/// Under the line policy, 1-D "marginals" are the histogram itself;
/// sanity-check the full pipeline agreement between the two entry points.
#[test]
fn line_marginals_match_histogram_pipeline() {
    let k = 16;
    let d = Domain::one_dim(k);
    let x = DataVector::new(d.clone(), (0..k).map(|i| (i % 4) as f64).collect()).unwrap();
    let w = Workload::one_way_marginals(&d).unwrap();
    assert_eq!(w.len(), k);
    let eps = Epsilon::new(1e7).unwrap(); // negligible noise
    let mut rng = StdRng::seed_from_u64(3);
    let line = LineMechanism::new(eps, TreeEstimator::Laplace);
    let est = line.fit(&x, &mut rng).unwrap();
    let ans = w.answer(est.histogram()).unwrap();
    let truth = w.answer(x.counts()).unwrap();
    for (a, t) in ans.iter().zip(&truth) {
        assert!((a - t).abs() < 1e-3);
    }
}
