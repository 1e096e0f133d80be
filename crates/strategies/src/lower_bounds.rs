//! SVD lower bounds for Blowfish matrix mechanisms (Appendix A,
//! Corollary A.2; Figure 10).
//!
//! Li & Miklau's SVD bound for `(ε, δ)`-DP matrix mechanisms states that
//! answering `W` costs at least `P(ε,δ)·(Σᵢ σᵢ(W))²/n` where `σᵢ` are the
//! singular values and `n` the number of columns. Through transformational
//! equivalence the bound transfers to any Blowfish policy by evaluating it
//! on the transformed workload `W_G = W′·P_G` (with `n_G = |E|` columns).
//!
//! Computing `σ(W_G)` naively needs the `|E| × |E|` Gram matrix — hopeless
//! for complete-graph (bounded-DP) policies with `|E| = Θ(k²)`. Instead we
//! use that the nonzero eigenvalues of `P_GᵀMP_G` (with `M = W′ᵀW′`)
//! coincide with those of `L^{1/2}·M·L^{1/2}` where `L = P_G·P_Gᵀ` is the
//! `(k−r) × (k−r)` grounded Laplacian — an O(k³) computation for every
//! policy, with closed-form `M` for range workloads.

use blowfish_linalg::{eigenvalues, sqrt_psd, Matrix};

use blowfish_core::{Delta, Epsilon, Incidence, PolicyGraph};

use crate::StrategyError;

/// The constant `P(ε, δ) = 2·ln(2/δ)/ε²` of Corollary A.2.
pub fn p_eps_delta(eps: Epsilon, delta: Delta) -> f64 {
    2.0 * (2.0 / delta.value()).ln() / (eps.value() * eps.value())
}

/// Reduces a full `k × k` workload Gram matrix `M = WᵀW` to the Case II/III
/// rewritten workload's Gram `M′ = W′ᵀW′`: column `j` of `W′` is
/// `col_{o_j}(W) − col_{v*_c}(W)` for the component replacement `v*_c`
/// (identity when the component is grounded through a real ⊥-edge).
fn reduce_gram(m: &Matrix, inc: &Incidence) -> Matrix {
    let g = inc.grounding();
    let rows = g.num_rows();
    let vstar_of_row: Vec<Option<usize>> = (0..rows)
        .map(|r| g.replacement(g.component_of(g.orig_of(r))))
        .collect();
    let mut out = Matrix::zeros(rows, rows);
    // Row-difference pattern: out[i][j] = d_i[o_j] − d_i[v*_j] where
    // d_i = row_{o_i}(M) − row_{v*_i}(M) is computed once per output row
    // as one contiguous pass, instead of four strided lookups per entry.
    let mut diff = vec![0.0; m.cols()];
    for i in 0..rows {
        let oi = g.orig_of(i);
        match vstar_of_row[i] {
            Some(vi) => {
                for ((d, &a), &b) in diff.iter_mut().zip(m.row(oi)).zip(m.row(vi)) {
                    *d = a - b;
                }
            }
            None => diff.copy_from_slice(m.row(oi)),
        }
        let orow = out.row_mut(i);
        for (j, o) in orow.iter_mut().enumerate() {
            let mut v = diff[g.orig_of(j)];
            if let Some(vj) = vstar_of_row[j] {
                v -= diff[vj];
            }
            *o = v;
        }
    }
    out
}

/// The Corollary A.2 lower bound on the total error of any `(ε, δ, G)`-
/// Blowfish matrix mechanism answering a workload with Gram matrix
/// `workload_gram = WᵀW` (over the full `k`-value domain).
pub fn svd_lower_bound(
    workload_gram: &Matrix,
    policy: &PolicyGraph,
    eps: Epsilon,
    delta: Delta,
) -> Result<f64, StrategyError> {
    if workload_gram.rows() != policy.num_values() || !workload_gram.is_square() {
        return Err(StrategyError::BadQuery {
            what: "workload Gram must be k × k for the policy's domain",
        });
    }
    let inc = Incidence::new(policy)?;
    let m_reduced = reduce_gram(workload_gram, &inc);
    let l = inc.laplacian().to_dense();
    let l_half = sqrt_psd(&l, 1e-8)?;
    let s = l_half.matmul(&m_reduced)?.matmul(&l_half)?;
    let lambdas = eigenvalues(&s)?;
    let sum_sigma: f64 = lambdas.iter().map(|&v| v.max(0.0).sqrt()).sum();
    let n_g = inc.num_edges() as f64;
    Ok(p_eps_delta(eps, delta) * sum_sigma * sum_sigma / n_g)
}

/// The classic (unbounded-DP) SVD bound — equivalently the Blowfish bound
/// under the star policy, where `P_G = I_k` (provided separately both for
/// clarity and as a cross-check of the policy path).
pub fn svd_lower_bound_unbounded_dp(
    workload_gram: &Matrix,
    eps: Epsilon,
    delta: Delta,
) -> Result<f64, StrategyError> {
    let lambdas = eigenvalues(workload_gram)?;
    let sum_sigma: f64 = lambdas.iter().map(|&v| v.max(0.0).sqrt()).sum();
    let k = workload_gram.rows() as f64;
    Ok(p_eps_delta(eps, delta) * sum_sigma * sum_sigma / k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_core::{range_gram, range_gram_1d, Domain};

    fn eps_delta() -> (Epsilon, Delta) {
        (Epsilon::new(1.0).unwrap(), Delta::new(0.001).unwrap())
    }

    #[test]
    fn constant_matches_formula() {
        let (e, d) = eps_delta();
        let p = p_eps_delta(e, d);
        assert!((p - 2.0 * (2000.0_f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn star_policy_equals_unbounded_dp_bound() {
        let k = 12;
        let gram = range_gram_1d(k);
        let (e, d) = eps_delta();
        let star = PolicyGraph::star(k).unwrap();
        let a = svd_lower_bound(&gram, &star, e, d).unwrap();
        let b = svd_lower_bound_unbounded_dp(&gram, e, d).unwrap();
        assert!(
            (a - b).abs() / b < 1e-9,
            "star-policy bound {a} vs direct DP bound {b}"
        );
    }

    #[test]
    fn eigenvalue_trick_matches_explicit_gram() {
        // Cross-check the L^{1/2} M L^{1/2} path against explicitly
        // forming W_G and its Gram on a small instance.
        let k = 8;
        let g = PolicyGraph::theta_line(k, 2).unwrap();
        let inc = Incidence::new(&g).unwrap();
        let w = blowfish_core::Workload::all_ranges_1d(k);
        let (wg, _) = inc.transform_workload(&w).unwrap();
        let wg_dense = wg.to_dense_matrix();
        let explicit: f64 = blowfish_linalg::singular_values(&wg_dense)
            .unwrap()
            .iter()
            .sum();
        // Via the trick:
        let gram = range_gram_1d(k);
        let m_reduced = reduce_gram(&gram, &inc);
        let l = inc.laplacian().to_dense();
        let l_half = sqrt_psd(&l, 1e-8).unwrap();
        let s = l_half.matmul(&m_reduced).unwrap().matmul(&l_half).unwrap();
        let trick: f64 = eigenvalues(&s)
            .unwrap()
            .iter()
            .map(|&v| v.max(0.0).sqrt())
            .sum();
        assert!(
            (explicit - trick).abs() / explicit < 1e-6,
            "explicit {explicit} vs trick {trick}"
        );
    }

    #[test]
    fn figure_10a_structure() {
        // Figure 10a's qualitative shape: (i) at fixed k, tighter policies
        // (smaller θ) admit lower error floors — larger θ approaches the
        // complete graph, i.e. bounded DP, which is *worse*; (ii) the
        // unbounded-DP curve grows faster than every G^θ curve, so each θ
        // eventually crosses below it ("for sufficiently large domain
        // sizes").
        let (e, d) = eps_delta();
        let bound = |k: usize, theta: usize| {
            svd_lower_bound(
                &range_gram_1d(k),
                &PolicyGraph::theta_line(k, theta).unwrap(),
                e,
                d,
            )
            .unwrap()
        };
        // (i) θ-ordering at k = 64.
        let (t1, t4, t16) = (bound(64, 1), bound(64, 4), bound(64, 16));
        assert!(t1 < t4 && t4 < t16, "θ ordering violated: {t1} {t4} {t16}");
        // (ii) crossover: θ=16 sits above unbounded DP at k=64 but below
        // it at k=256.
        let dp64 = svd_lower_bound_unbounded_dp(&range_gram_1d(64), e, d).unwrap();
        let dp256 = svd_lower_bound_unbounded_dp(&range_gram_1d(256), e, d).unwrap();
        assert!(bound(64, 16) > dp64, "no crossover at small k");
        assert!(bound(256, 16) < dp256, "θ=16 should undercut DP at k=256");
        // θ=1 is already below DP at k=64.
        assert!(t1 < dp64);
    }

    #[test]
    fn bounds_are_positive_and_grow_with_domain() {
        let (e, d) = eps_delta();
        let mut prev = 0.0;
        for k in [16usize, 32, 64] {
            let gram = range_gram_1d(k);
            let b = svd_lower_bound(&gram, &PolicyGraph::line(k).unwrap(), e, d).unwrap();
            assert!(b > 0.0);
            assert!(b > prev, "bound should grow with k: {b} after {prev}");
            prev = b;
        }
    }

    #[test]
    fn two_dimensional_policies() {
        // Figure 10b smoke: grid policies on R_{k²}.
        let k = 5;
        let d2 = Domain::square(k);
        let gram = range_gram(&d2).unwrap();
        let (e, d) = eps_delta();
        let dp = svd_lower_bound_unbounded_dp(&gram, e, d).unwrap();
        let g1 = svd_lower_bound(
            &gram,
            &PolicyGraph::distance_threshold(d2.clone(), 1).unwrap(),
            e,
            d,
        )
        .unwrap();
        let bounded = svd_lower_bound(&gram, &PolicyGraph::complete(k * k).unwrap(), e, d).unwrap();
        assert!(g1 > 0.0 && bounded > 0.0 && dp > 0.0);
        // The paper's observation: every θ beats *bounded* DP.
        assert!(
            g1 < bounded,
            "G¹ bound {g1} should be below bounded-DP bound {bounded}"
        );
    }

    #[test]
    fn corollary_a2_bound_holds_for_its_mechanism_class() {
        // The SVD bound lower-bounds the TOTAL error of any (ε, δ) matrix
        // mechanism answering W whose strategy coordinates carry noise
        // variance P(ε, δ). The line strategy (strategy = prefix identity
        // in edge space) is such a mechanism: each range touches ≤ 2
        // noisy prefixes, so its total error over all of R_k must meet
        // the bound.
        let eps = Epsilon::new(0.5).unwrap();
        let delta = Delta::new(1e-3).unwrap();
        let k = 24;
        let gram = range_gram_1d(k);
        let g = PolicyGraph::line(k).unwrap();
        let bound = svd_lower_bound(&gram, &g, eps, delta).unwrap();
        // Analytic total error of the strategy: ranges starting at 0 or
        // ending at k−1 touch one prefix fewer; sum exactly.
        let sigma2 = p_eps_delta(eps, delta);
        let mut total = 0.0;
        for l in 0..k {
            for r in l..k {
                let mut terms = 0.0;
                if l > 0 {
                    terms += 1.0;
                }
                if r < k - 1 {
                    terms += 1.0;
                }
                total += terms * sigma2;
            }
        }
        assert!(
            total >= bound,
            "strategy total {total} below the bound {bound}"
        );
        // And the bound is non-vacuous: within a polylog factor of the
        // strategy (both are Θ(k²·σ²) up to constants).
        assert!(
            total < bound * 50.0,
            "bound {bound} vacuously small next to {total}"
        );
    }

    #[test]
    fn shape_validation() {
        let (e, d) = eps_delta();
        let gram = range_gram_1d(4);
        let g = PolicyGraph::line(5).unwrap();
        assert!(svd_lower_bound(&gram, &g, e, d).is_err());
    }
}
