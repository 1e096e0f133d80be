//! Workload sensitivities.
//!
//! * [`l1_sensitivity_unbounded`] — Definition 2.3 under unbounded DP
//!   neighbors (add/remove one record): `Δ_W = max_j ‖W e_j‖₁`, the largest
//!   column L1 norm.
//! * [`policy_sensitivity`] — Definition 4.1, the policy-specific
//!   sensitivity `Δ_W(G)`: the maximum over policy edges of the change in
//!   workload answers when one record moves along that edge.
//!
//! Lemma 4.7 (`Δ_W(G) = Δ_{W_G}`) is verified in the test-suite by
//! comparing [`policy_sensitivity`] against the transformed workload's
//! unbounded sensitivity.

use crate::policy::{PolicyGraph, Vtx};
use crate::workload::Workload;
use crate::CoreError;

/// Column-major view of a workload: for each domain cell, the sparse list
/// of `(query index, coefficient)` pairs. Building it once makes per-edge
/// sensitivity computations O(column nnz) instead of O(q·k).
fn columns(w: &Workload) -> Vec<Vec<(usize, f64)>> {
    let mut cols = vec![Vec::new(); w.arity()];
    for (qi, q) in w.queries().iter().enumerate() {
        for &(j, v) in q.entries() {
            cols[j].push((qi, v));
        }
    }
    cols
}

/// L1 norm of the difference of two sparse columns (both sorted by query
/// index).
fn col_diff_norm1(a: &[(usize, f64)], b: &[(usize, f64)]) -> f64 {
    let mut ia = 0;
    let mut ib = 0;
    let mut acc = 0.0;
    while ia < a.len() && ib < b.len() {
        match a[ia].0.cmp(&b[ib].0) {
            std::cmp::Ordering::Less => {
                acc += a[ia].1.abs();
                ia += 1;
            }
            std::cmp::Ordering::Greater => {
                acc += b[ib].1.abs();
                ib += 1;
            }
            std::cmp::Ordering::Equal => {
                acc += (a[ia].1 - b[ib].1).abs();
                ia += 1;
                ib += 1;
            }
        }
    }
    acc += a[ia..].iter().map(|&(_, v)| v.abs()).sum::<f64>();
    acc += b[ib..].iter().map(|&(_, v)| v.abs()).sum::<f64>();
    acc
}

/// Unbounded-DP L1 sensitivity: `max_j ‖W e_j‖₁`.
pub fn l1_sensitivity_unbounded(w: &Workload) -> f64 {
    let mut norms = vec![0.0; w.arity()];
    for q in w.queries() {
        for &(j, v) in q.entries() {
            norms[j] += v.abs();
        }
    }
    norms.into_iter().fold(0.0_f64, f64::max)
}

/// Policy-specific sensitivity `Δ_W(G)` (Definition 4.1): maximum over the
/// policy edges of the answer change induced by moving one record along the
/// edge (`‖W(e_u − e_v)‖₁` for value edges, `‖W e_u‖₁` for ⊥-edges).
pub fn policy_sensitivity(w: &Workload, g: &PolicyGraph) -> Result<f64, CoreError> {
    if w.arity() != g.num_values() {
        return Err(CoreError::DataShapeMismatch {
            domain_size: g.num_values(),
            data_len: w.arity(),
        });
    }
    let cols = columns(w);
    let empty: Vec<(usize, f64)> = Vec::new();
    let mut worst = 0.0_f64;
    for e in g.edges() {
        let other = match e.v {
            Vtx::Value(v) => &cols[v],
            Vtx::Bottom => &empty,
        };
        worst = worst.max(col_diff_norm1(&cols[e.u], other));
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incidence::Incidence;

    #[test]
    fn identity_and_cumulative_sensitivities() {
        // Example 2.2: Δ(I_k) = 1, Δ(C_k) = k under unbounded DP.
        let k = 6;
        assert_eq!(l1_sensitivity_unbounded(&Workload::identity(k)), 1.0);
        assert_eq!(l1_sensitivity_unbounded(&Workload::cumulative(k)), k as f64);
    }

    #[test]
    fn bounded_vs_unbounded() {
        // For the identity workload, replacing a record changes two cells:
        // bounded sensitivity (the complete-graph policy) 2, unbounded 1.
        let w = Workload::identity(5);
        let complete = PolicyGraph::complete(5).unwrap();
        assert_eq!(policy_sensitivity(&w, &complete).unwrap(), 2.0);
        assert_eq!(l1_sensitivity_unbounded(&w), 1.0);
    }

    #[test]
    fn policy_sensitivity_line_vs_star() {
        let k = 8;
        let w = Workload::cumulative(k);
        // Line policy: moving a record between adjacent values changes
        // exactly one prefix sum by 1.
        let line = PolicyGraph::line(k).unwrap();
        assert_eq!(policy_sensitivity(&w, &line).unwrap(), 1.0);
        // Star (unbounded DP): adding a record with value 0 changes all k
        // prefix sums.
        let star = PolicyGraph::star(k).unwrap();
        assert_eq!(policy_sensitivity(&w, &star).unwrap(), k as f64);
        // Complete graph (bounded DP): replacing value 0 by value k-1
        // changes k−1 prefix sums.
        let complete = PolicyGraph::complete(k).unwrap();
        assert_eq!(policy_sensitivity(&w, &complete).unwrap(), (k - 1) as f64);
    }

    #[test]
    fn theta_policy_scales_range_sensitivity() {
        let k = 10;
        let w = Workload::all_ranges_1d(k);
        // Under G^θ, moving a record by distance ≤ θ flips membership in
        // ranges whose single endpoint lies strictly between the values —
        // growing roughly linearly with θ.
        let s1 = policy_sensitivity(&w, &PolicyGraph::theta_line(k, 1).unwrap()).unwrap();
        let s3 = policy_sensitivity(&w, &PolicyGraph::theta_line(k, 3).unwrap()).unwrap();
        assert!(s3 > s1);
    }

    #[test]
    fn lemma_4_7_sensitivity_preserved_by_transform() {
        // Δ_W(G) = Δ_{W_G} for several policies and workloads.
        for (k, theta) in [(6usize, 1usize), (8, 2), (9, 3)] {
            let g = PolicyGraph::theta_line(k, theta).unwrap();
            let inc = Incidence::new(&g).unwrap();
            for w in [
                Workload::identity(k),
                Workload::cumulative(k),
                Workload::all_ranges_1d(k),
            ] {
                let lhs = policy_sensitivity(&w, &g).unwrap();
                let (wg, _) = inc.transform_workload(&w).unwrap();
                let rhs = l1_sensitivity_unbounded(&wg);
                assert!(
                    (lhs - rhs).abs() < 1e-9,
                    "Lemma 4.7 failed: k={k}, θ={theta}: {lhs} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn lemma_4_7_on_star_matches_unbounded() {
        // With the star policy, Δ_W(G) is exactly the unbounded DP
        // sensitivity.
        let k = 7;
        let g = PolicyGraph::star(k).unwrap();
        for w in [Workload::identity(k), Workload::all_ranges_1d(k)] {
            let lhs = policy_sensitivity(&w, &g).unwrap();
            assert_eq!(lhs, l1_sensitivity_unbounded(&w));
        }
    }

    #[test]
    fn arity_mismatch_rejected() {
        let w = Workload::identity(4);
        let g = PolicyGraph::line(5).unwrap();
        assert!(policy_sensitivity(&w, &g).is_err());
    }
}
