//! Property-based tests (proptest) of the core invariants.

use proptest::collection::vec;
use proptest::prelude::*;

use blowfish_privacy::core::{l1_sensitivity_unbounded, policy_sensitivity, theta_line_spanner};
use blowfish_privacy::mechanisms::{haar_forward, haar_inverse, isotonic_non_decreasing};
use blowfish_privacy::prelude::*;

/// Random labeled tree policies: vertex i>0 attaches to a random earlier
/// vertex.
fn tree_policy_strategy() -> impl Strategy<Value = PolicyGraph> {
    (3usize..14)
        .prop_flat_map(|k| {
            let parents: Vec<BoxedStrategy<usize>> = (1..k).map(|i| (0..i).boxed()).collect();
            (Just(k), parents)
        })
        .prop_map(|(k, parents)| {
            let edges = parents
                .iter()
                .enumerate()
                .map(|(i, &p)| PolicyEdge::new(Vtx::Value(p), Vtx::Value(i + 1)).unwrap())
                .collect();
            PolicyGraph::from_edges(Domain::one_dim(k), edges, "random-tree").unwrap()
        })
}

proptest! {
    /// P_G · solve_tree(x′) = x′ on arbitrary random trees and databases.
    #[test]
    fn tree_solve_roundtrip(
        g in tree_policy_strategy(),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let k = g.num_values();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let counts: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..9.0)).collect();
        let x = DataVector::new(Domain::one_dim(k), counts).unwrap();
        let inc = Incidence::new(&g).unwrap();
        prop_assert!(inc.is_tree());
        let reduced = inc.reduce_database(&x).unwrap();
        let x_g = inc.solve_tree(&reduced).unwrap();
        let back = inc.apply(&x_g).unwrap();
        for (a, b) in back.iter().zip(&reduced) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Lemma 4.7 on random trees: Δ_W(G) = Δ_{W_G} for the range workload.
    #[test]
    fn lemma_4_7_on_random_trees(g in tree_policy_strategy()) {
        let k = g.num_values();
        let w = Workload::all_ranges_1d(k);
        let inc = Incidence::new(&g).unwrap();
        let (wg, _) = inc.transform_workload(&w).unwrap();
        let lhs = policy_sensitivity(&w, &g).unwrap();
        let rhs = l1_sensitivity_unbounded(&wg);
        prop_assert!((lhs - rhs).abs() < 1e-9, "Δ_W(G)={lhs} vs Δ_WG={rhs}");
    }

    /// Answers are preserved (`Wx = W_G x_G + c`) on random trees.
    #[test]
    fn answer_preservation_on_random_trees(
        g in tree_policy_strategy(),
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let k = g.num_values();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let counts: Vec<f64> = (0..k).map(|_| rng.gen_range(0..7) as f64).collect();
        let x = DataVector::new(Domain::one_dim(k), counts).unwrap();
        let inc = Incidence::new(&g).unwrap();
        let x_g = inc.solve_tree(&inc.reduce_database(&x).unwrap()).unwrap();
        let totals = inc.component_totals(&x).unwrap();
        let w = Workload::all_ranges_1d(k);
        let truth = w.answer(x.counts()).unwrap();
        let (wg, consts) = inc.transform_workload(&w).unwrap();
        for (i, q) in wg.queries().iter().enumerate() {
            let mut ans = q.answer(&x_g).unwrap();
            for &(c, coeff) in &consts[i] {
                ans += coeff * totals[c];
            }
            prop_assert!((ans - truth[i]).abs() < 1e-7);
        }
    }

    /// Transformed 1-D range queries under the line policy have at most 2
    /// nonzero coefficients (Figure 4 / Lemma 5.1).
    #[test]
    fn line_transform_boundary_structure(
        k in 4usize..40,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let l = rng.gen_range(0..k);
        let r = rng.gen_range(l..k);
        let g = PolicyGraph::line(k).unwrap();
        let inc = Incidence::new(&g).unwrap();
        let q = LinearQuery::range(k, l, r).unwrap();
        let t = inc.transform_query(&q).unwrap();
        prop_assert!(t.edge_query.nnz() <= 2, "nnz = {}", t.edge_query.nnz());
        // All coefficients are ±1.
        for &(_, c) in t.edge_query.entries() {
            prop_assert!((c.abs() - 1.0).abs() < 1e-12);
        }
    }

    /// Transformed range queries under H^θ decompose into at most a few
    /// contiguous runs in the (group-ordered) edge indexing (Figure 6c).
    #[test]
    fn theta_spanner_transform_is_few_runs(
        seed in 0u64..300,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = 24;
        let theta = 3;
        let sp = theta_line_spanner(k, theta).unwrap();
        let inc = Incidence::new(&sp.graph).unwrap();
        let l = rng.gen_range(0..k);
        let r = rng.gen_range(l..k);
        let q = LinearQuery::range(k, l, r).unwrap();
        let t = inc.transform_query(&q).unwrap();
        let runs = t.edge_query.contiguous_runs();
        // Figure 6c: the transformed query touches the two boundary groups
        // (plus the red-path edges at their heads) — at most 4 runs.
        prop_assert!(runs.len() <= 4, "{} runs for [{l},{r}]", runs.len());
    }

    /// Haar forward/inverse are mutually inverse on arbitrary data.
    #[test]
    fn haar_roundtrip(data in vec(-100.0f64..100.0, 1usize..65)) {
        let n = data.len().next_power_of_two();
        let mut padded = data.clone();
        padded.resize(n, 0.0);
        let mut buf = padded.clone();
        haar_forward(&mut buf);
        haar_inverse(&mut buf);
        for (a, b) in buf.iter().zip(&padded) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Isotonic regression: output is monotone, mean-preserving, and never
    /// further from the input than the input is from any monotone vector.
    #[test]
    fn isotonic_properties(data in vec(-50.0f64..50.0, 1usize..50)) {
        let fit = isotonic_non_decreasing(&data);
        prop_assert_eq!(fit.len(), data.len());
        for w in fit.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        // Pool means preserve the overall mean.
        let mean_in: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let mean_out: f64 = fit.iter().sum::<f64>() / fit.len() as f64;
        prop_assert!((mean_in - mean_out).abs() < 1e-9);
        // Projection: the fit beats the sorted input (a monotone vector).
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cost = |f: &[f64]| -> f64 {
            f.iter().zip(&data).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        prop_assert!(cost(&fit) <= cost(&sorted) + 1e-9);
    }

    /// Range answering via prefix sums agrees with direct evaluation.
    #[test]
    fn prefix_answering_agrees_with_direct(
        data in vec(0.0f64..20.0, 2usize..40),
        seed in 0u64..200,
    ) {
        use rand::{Rng, SeedableRng};
        let k = data.len();
        let x = DataVector::new(Domain::one_dim(k), data).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let l = rng.gen_range(0..k);
        let r = rng.gen_range(l..k);
        let spec = RangeQuery::one_dim(&Domain::one_dim(k), l, r).unwrap();
        let exact = Estimate::new(x.domain(), x.counts().to_vec()).unwrap();
        let via_prefix = exact.answer(&spec).unwrap();
        let direct: f64 = x.counts()[l..=r].iter().sum();
        prop_assert!((via_prefix - direct).abs() < 1e-9);
    }

    /// Policy sensitivity never exceeds the unbounded-DP bound times the
    /// worst column pair (consistency of Definition 4.1 with Definition
    /// 2.3): for the star policy they agree exactly.
    #[test]
    fn star_policy_sensitivity_is_dp_sensitivity(k in 2usize..24) {
        let w = Workload::all_ranges_1d(k);
        let star = PolicyGraph::star(k).unwrap();
        let s = policy_sensitivity(&w, &star).unwrap();
        prop_assert!((s - l1_sensitivity_unbounded(&w)).abs() < 1e-12);
    }

    /// The spanner is always a tree with stretch ≤ 3, for any valid (k, θ),
    /// and the closed-form stretch certification agrees with the
    /// graph-walk certifier (`stretch_through`) on every sampled shape.
    #[test]
    fn spanner_invariants(k in 6usize..60, theta in 1usize..5) {
        prop_assume!(k > theta);
        let sp = theta_line_spanner(k, theta).unwrap();
        prop_assert!(sp.graph.is_tree());
        prop_assert!(sp.stretch <= 3);
        let total: usize = sp.groups.iter().map(|(s, e)| e - s).sum();
        prop_assert_eq!(total, k - 1);
        let target = PolicyGraph::theta_line(k, theta).unwrap();
        prop_assert_eq!(target.stretch_through(&sp.graph), Some(sp.stretch));
    }

    /// The θ-grid spanner's closed-form stretch certification agrees with
    /// the graph-walk certifier (`stretch_through` against the full
    /// `G^θ_{k²}` target) on randomized valid shapes. This guards the
    /// effective privacy budget: the certified stretch divides ε
    /// (`eps.for_stretch`), so a silently under-reported stretch would
    /// weaken the `(ε, G^θ)` guarantee.
    #[test]
    fn theta_grid_stretch_closed_form_matches_bfs(theta in 1usize..8, blocks in 2usize..5) {
        use blowfish_privacy::core::theta_grid_spanner;
        let s = (theta / 2).max(1);
        let k = s * blocks;
        prop_assume!(k >= 2);
        let sp = theta_grid_spanner(k, theta).unwrap();
        let target = PolicyGraph::distance_threshold(sp.graph.domain().clone(), theta).unwrap();
        let bfs = target.stretch_through(&sp.graph).unwrap();
        prop_assert_eq!(sp.certify_stretch(theta).unwrap(), bfs);
    }

    /// Batched range answering (`Estimate::answer_many`) is bit-identical
    /// to the per-query `Estimate::answer` loop on random histograms and
    /// random range workloads (1-D and 2-D).
    #[test]
    fn answer_many_matches_per_query_answers(
        data in vec(0.0f64..9.0, 64),
        seed in 0u64..500,
    ) {
        use rand::SeedableRng;
        let d1 = Domain::one_dim(64);
        let est1 = Estimate::new(&d1, data.clone()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let specs1 = blowfish_privacy::core::random_range_specs(&d1, 50, &mut rng);
        let batched: Vec<f64> = est1.answer_many(&specs1).unwrap();
        let single: Vec<f64> = specs1.iter().map(|q| est1.answer(q).unwrap()).collect();
        prop_assert_eq!(batched, single);

        let d2 = Domain::square(8);
        let est2 = Estimate::new(&d2, data).unwrap();
        let specs2 = blowfish_privacy::core::random_range_specs(&d2, 50, &mut rng);
        let batched2: Vec<f64> = est2.answer_many(&specs2).unwrap();
        let single2: Vec<f64> = specs2.iter().map(|q| est2.answer(q).unwrap()).collect();
        prop_assert_eq!(batched2, single2);
    }
}
