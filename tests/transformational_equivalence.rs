//! Cross-crate integration tests of the paper's central results:
//! transformational equivalence (Theorems 4.1 and 4.3), the Claim 4.2
//! neighbor bijection, and the Lemma 4.5 subgraph approximation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use blowfish_privacy::core::{
    blowfish_neighbors, l1_sensitivity_unbounded, policy_sensitivity, theta_line_spanner,
};
use blowfish_privacy::linalg::{Cholesky, Matrix};
use blowfish_privacy::mechanisms::MatrixMechanism;
use blowfish_privacy::prelude::*;

/// The minimum-norm `x_G = P_Gᵀ (P_G P_Gᵀ)⁻¹ x′`, by a dense Cholesky of
/// the grounded Laplacian.
fn min_norm_x_g(inc: &Incidence, reduced: &[f64]) -> Vec<f64> {
    let l = Cholesky::factor(&inc.laplacian().to_dense()).unwrap();
    let y = l.solve(reduced).unwrap();
    inc.matrix().matvec_transpose(&y).unwrap()
}

/// Answers must agree between vertex space and edge space for every query
/// of every workload, on every policy family (the `Wx = W_G x_G + c`
/// identity behind both equivalence theorems).
#[test]
fn answers_preserved_across_policy_families() {
    let policies: Vec<PolicyGraph> = vec![
        PolicyGraph::line(9).unwrap(),
        PolicyGraph::theta_line(9, 3).unwrap(),
        PolicyGraph::star(9).unwrap(),
        PolicyGraph::complete(9).unwrap(),
        PolicyGraph::cycle(9).unwrap(),
        PolicyGraph::distance_threshold(Domain::square(3), 1).unwrap(),
    ];
    let x = DataVector::new(
        Domain::one_dim(9),
        vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0],
    )
    .unwrap();
    for g in policies {
        let inc = Incidence::new(&g).unwrap();
        let reduced = inc.reduce_database(&x).unwrap();
        let x_g = min_norm_x_g(&inc, &reduced);
        let totals = inc.component_totals(&x).unwrap();
        for w in [
            Workload::identity(9),
            Workload::cumulative(9),
            Workload::all_ranges_1d(9),
        ] {
            let truth = w.answer(x.counts()).unwrap();
            let (wg, consts) = inc.transform_workload(&w).unwrap();
            for (i, q) in wg.queries().iter().enumerate() {
                let mut ans = q.answer(&x_g).unwrap();
                for &(c, coeff) in &consts[i] {
                    ans += coeff * totals[c];
                }
                assert!(
                    (ans - truth[i]).abs() < 1e-7,
                    "policy {}: query {i} answered {ans}, truth {}",
                    g.name(),
                    truth[i]
                );
            }
        }
    }
}

/// Theorem 4.1's mechanism identity: the matrix-mechanism noise vector is
/// the same in vertex space and edge space (`W A⁺ = W_G A_G⁺`), so running
/// the mechanism on `(W, x)` with policy sensitivity equals running it on
/// `(W_G, x_G)` with DP sensitivity.
#[test]
fn theorem_4_1_matrix_mechanism_identity() {
    let k = 8;
    let g = PolicyGraph::theta_line(k, 2).unwrap();
    let inc = Incidence::new(&g).unwrap();
    let w = Workload::all_ranges_1d(k);
    let (wg, _) = inc.transform_workload(&w).unwrap();

    // Strategy in vertex space: identity (Laplace on the histogram).
    // Transformed strategy: A_G = A · P_G.
    let a = Workload::identity(k);
    let (ag, _) = inc.transform_workload(&a).unwrap();

    // Lemma 4.7 chain: Δ_A(G) = Δ_{A_G}.
    let delta_vertex = policy_sensitivity(&a, &g).unwrap();
    let delta_edge = l1_sensitivity_unbounded(&ag);
    assert!((delta_vertex - delta_edge).abs() < 1e-12);

    // W′ A′⁺ = W_G A_G⁺ for the Case II rewritten pair (Appendix D.1):
    // W′ = W·D with D = [I | −1-row] dropping the replaced vertex v* = k−1.
    let mut d_mat = Matrix::zeros(k, k - 1);
    for j in 0..k - 1 {
        d_mat[(j, j)] = 1.0;
        d_mat[(k - 1, j)] = -1.0;
    }
    let w_prime = w.to_dense_matrix().matmul(&d_mat).unwrap();
    let a_prime = a.to_dense_matrix().matmul(&d_mat).unwrap();
    let wg_dense = wg.to_dense_matrix();
    let ag_dense = ag.to_dense_matrix();
    let m1 = MatrixMechanism::new(w_prime, a_prime).unwrap();
    let m2 = MatrixMechanism::new(wg_dense, ag_dense).unwrap();
    let eps = Epsilon::new(1.0).unwrap();
    // Same seed → identical noise vector in both spaces.
    let n1 = m1.noise_only(eps, &mut StdRng::seed_from_u64(5)).unwrap();
    let n2 = m2.noise_only(eps, &mut StdRng::seed_from_u64(5)).unwrap();
    for (a, b) in n1.iter().zip(&n2) {
        assert!((a - b).abs() < 1e-9, "noise differs: {a} vs {b}");
    }
    // And the expected errors match too.
    assert!((m1.per_query_error(eps) - m2.per_query_error(eps)).abs() < 1e-9);
}

/// Claim 4.2 / Lemma 4.9: for tree policies, Blowfish neighbors map
/// exactly to unit-L1 DP neighbors of the transformed database, in both
/// directions.
#[test]
fn claim_4_2_neighbor_bijection_on_trees() {
    let mut rng = StdRng::seed_from_u64(11);
    for trial in 0..25 {
        // Random labeled tree on k vertices (random parent construction).
        let k = rng.gen_range(3..12);
        let mut edges = Vec::new();
        for i in 1..k {
            let parent = rng.gen_range(0..i);
            edges.push(PolicyEdge::new(Vtx::Value(parent), Vtx::Value(i)).unwrap());
        }
        let g = PolicyGraph::from_edges(Domain::one_dim(k), edges, format!("tree{trial}")).unwrap();
        assert!(g.is_tree());
        let inc = Incidence::new(&g).unwrap();

        let counts: Vec<f64> = (0..k).map(|_| rng.gen_range(0..6) as f64).collect();
        let x = DataVector::new(Domain::one_dim(k), counts).unwrap();
        let xg = inc.solve_tree(&inc.reduce_database(&x).unwrap()).unwrap();

        // Forward: every Blowfish neighbor lands at L1 distance exactly 1.
        for y in blowfish_neighbors(&x, &g).unwrap() {
            // Neighbors that change the total are impossible here (no ⊥ in
            // the original tree), so the transform is well-defined.
            let yg = inc.solve_tree(&inc.reduce_database(&y).unwrap()).unwrap();
            let dist: f64 = xg.iter().zip(&yg).map(|(a, b)| (a - b).abs()).sum();
            assert!(
                (dist - 1.0).abs() < 1e-9,
                "trial {trial}: Blowfish neighbor at transformed L1 distance {dist}"
            );
        }

        // Backward: perturbing any single edge coordinate by ±1 maps to a
        // Blowfish neighbor pair (when counts stay non-negative).
        for e in 0..xg.len() {
            for delta in [1.0, -1.0] {
                let mut yg = xg.clone();
                yg[e] += delta;
                let y_reduced = inc.apply(&yg).unwrap();
                let totals = inc.component_totals(&x).unwrap();
                let y_full = inc.reconstruct_database(&y_reduced, &totals).unwrap();
                if y_full.iter().any(|&v| v < 0.0) {
                    continue; // not a valid histogram; skip
                }
                let y = DataVector::new(Domain::one_dim(k), y_full).unwrap();
                assert!(
                    are_blowfish_neighbors(&x, &y, &g).unwrap(),
                    "trial {trial}: unit edge change e={e} δ={delta} is not a Blowfish neighbor"
                );
            }
        }
    }
}

/// Lemma 4.5 realized: the spanner's transformed database moves by at most
/// `stretch` in L1 when one record moves along a `G^θ` policy edge — the
/// exact quantity the ε/ℓ budget scaling compensates.
#[test]
fn lemma_4_5_spanner_sensitivity_bounded_by_stretch() {
    let k = 24;
    let theta = 4;
    let spanner = theta_line_spanner(k, theta).unwrap();
    let inc = Incidence::new(&spanner.graph).unwrap();
    let g_theta = PolicyGraph::theta_line(k, theta).unwrap();

    let mut rng = StdRng::seed_from_u64(3);
    let counts: Vec<f64> = (0..k).map(|_| rng.gen_range(1..5) as f64).collect();
    let x = DataVector::new(Domain::one_dim(k), counts).unwrap();
    let xg = inc.solve_tree(&inc.reduce_database(&x).unwrap()).unwrap();

    let mut worst = 0.0_f64;
    for y in blowfish_neighbors(&x, &g_theta).unwrap() {
        let yg = inc.solve_tree(&inc.reduce_database(&y).unwrap()).unwrap();
        let dist: f64 = xg.iter().zip(&yg).map(|(a, b)| (a - b).abs()).sum();
        worst = worst.max(dist);
    }
    assert!(
        worst <= spanner.stretch as f64 + 1e-9,
        "G^θ neighbor moved x_G by {worst} > certified stretch {}",
        spanner.stretch
    );
}

/// The negative result (Theorem 4.4): on a cycle, the graph-distance
/// mechanism's output ratios genuinely exceed what any unit-L1 (DP)
/// transformation could exhibit between far-apart inputs.
#[test]
fn theorem_4_4_cycle_counterexample() {
    use blowfish_privacy::mechanisms::graph_distance_distribution;
    let g = PolicyGraph::cycle(10).unwrap();
    let eps = Epsilon::new(0.7).unwrap();
    // Adjacent inputs: ratios bounded by e^ε (Blowfish privacy holds; the
    // cycle is vertex-transitive so the normalizers cancel).
    let p0 = graph_distance_distribution(&g, 0, eps).unwrap();
    let p1 = graph_distance_distribution(&g, 1, eps).unwrap();
    for y in 0..10 {
        assert!((p0[y] / p1[y]).ln().abs() <= eps.value() + 1e-9);
    }
    // Antipodal inputs (distance 5): the ratio reaches e^{5ε}. A
    // transformation into DP with any path-like embedding would stretch
    // some adjacent pair to distance ≥ n−1, demanding e^{(n−1)ε} — the
    // embedding obstruction in action.
    let p5 = graph_distance_distribution(&g, 5, eps).unwrap();
    let worst = (0..10)
        .map(|y| (p0[y] / p5[y]).ln().abs())
        .fold(0.0_f64, f64::max);
    assert!(
        (worst - 5.0 * eps.value()).abs() < 1e-9,
        "antipodal log-ratio {worst}, expected {}",
        5.0 * eps.value()
    );
}

/// Appendix E: disconnected policies reduce per component; totals are
/// per-component and answers reconstruct exactly.
#[test]
fn appendix_e_disconnected_policies() {
    // Sensitive-attribute policy over a 3x4 table: attribute 1 sensitive.
    let d = Domain::product(&[3, 4]).unwrap();
    let g = PolicyGraph::sensitive_attributes(d.clone(), &[1]).unwrap();
    assert_eq!(g.components().len(), 3);
    let inc = Incidence::new(&g).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let counts: Vec<f64> = (0..12).map(|_| rng.gen_range(0..9) as f64).collect();
    let x = DataVector::new(d, counts).unwrap();
    let totals = inc.component_totals(&x).unwrap();
    assert_eq!(totals.len(), 3);
    // Exact reconstruction through the per-component Case II rewrite.
    let reduced = inc.reduce_database(&x).unwrap();
    let x_g = min_norm_x_g(&inc, &reduced);
    let back = inc.apply(&x_g).unwrap();
    let full = inc.reconstruct_database(&back, &totals).unwrap();
    for (a, b) in full.iter().zip(x.counts()) {
        assert!((a - b).abs() < 1e-7);
    }
}

/// Sanity anchor for Example 4.1: the line policy's `P_G⁻¹` is exactly the
/// prefix-sum matrix, so the minimum-error strategy for `C_k` under
/// Blowfish is the Laplace mechanism on `I_{k−1}` (error Θ(k/ε²)).
#[test]
fn example_4_1_cumulative_histogram() {
    let k = 16;
    let g = PolicyGraph::line(k).unwrap();
    let inc = Incidence::new(&g).unwrap();
    let p = inc.matrix().to_dense();
    let pinv = blowfish_privacy::linalg::Lu::factor(&p)
        .unwrap()
        .inverse()
        .unwrap();
    // P⁻¹ = C'_{k−1}: lower-triangular ones.
    let mut expected = Matrix::zeros(k - 1, k - 1);
    for i in 0..k - 1 {
        for j in 0..=i {
            expected[(i, j)] = 1.0;
        }
    }
    assert!(pinv.approx_eq(&expected, 1e-9));
    // And C_k transformed under the line policy is (up to the dropped
    // total row) the identity.
    let (wg, _) = inc.transform_workload(&Workload::cumulative(k)).unwrap();
    let wg_dense = wg.to_dense_matrix();
    for i in 0..k - 1 {
        for j in 0..k - 1 {
            let expect = if i == j { 1.0 } else { 0.0 };
            assert!((wg_dense[(i, j)] - expect).abs() < 1e-12);
        }
    }
    // The last query (the total) transforms to the zero query + constant.
    assert_eq!(wg.queries()[k - 1].nnz(), 0);
}
