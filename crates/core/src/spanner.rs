//! Subgraph approximation (Lemma 4.5) and the `H^θ` spanner constructions.
//!
//! When the policy graph `G` is not a tree, the strong Theorem 4.3
//! equivalence is unavailable. Lemma 4.5 substitutes a graph `G′` in which
//! every `G`-edge is connected by a path of length ≤ ℓ: an `(ε, G′)`-Blowfish
//! mechanism is automatically `(ℓ·ε, G)`-Blowfish private, so running with
//! budget `ε/ℓ` on `G′` recovers an `(ε, G)` guarantee (Corollary 4.6).
//!
//! This module builds the spanners the paper uses:
//!
//! * [`theta_line_spanner`] — `H^θ_k` (Figure 6): red vertices every θ
//!   positions connected in a path; non-red vertices hang off the next red
//!   vertex to their right. A tree with certified stretch ≤ 3.
//! * [`theta_grid_spanner`] — `H^θ_{k²}` (Figure 7): the domain is tiled by
//!   `θ/2 × θ/2` blocks whose corners are red; block members connect to
//!   their red corner (internal edges) and red vertices form a grid
//!   (external edges).
//! * [`bfs_spanning_tree`] — generic fallback spanner for arbitrary
//!   connected policies.

use std::collections::VecDeque;

use crate::domain::Domain;
use crate::policy::{PolicyEdge, PolicyGraph, Vtx};
use crate::CoreError;

/// The 1-D spanner `H^θ_k` of Section 5.3.1 with its group structure.
#[derive(Clone, Debug)]
pub struct ThetaLineSpanner {
    /// The spanner graph (a tree on the same `k` vertices).
    pub graph: PolicyGraph,
    /// The θ of the approximated `G^θ_k`.
    pub theta: usize,
    /// Edge-index ranges `[start, end)` of the disjoint groups: group `i`
    /// contains the edges attached to the `i`-th red vertex (Figure 6d).
    pub groups: Vec<(usize, usize)>,
    /// Certified stretch: every `G^θ_k` edge is connected in the spanner by
    /// a path of at most this length (ℓ of Lemma 4.5; ≤ 3 by Theorem 5.5).
    pub stretch: usize,
}

/// Builds `H^θ_k` (Figure 6). Requires `k > θ ≥ 1`. When `θ ∤ k` the
/// trailing vertices attach to the last red vertex (to their left) — the
/// only deviation from the figure, which assumes `θ | k`.
pub fn theta_line_spanner(k: usize, theta: usize) -> Result<ThetaLineSpanner, CoreError> {
    let stretch = theta_line_stretch(k, theta)?;
    let nred = k / theta;
    let red = |i: usize| (i + 1) * theta - 1;
    let mut edges = Vec::with_capacity(k - 1);
    let mut groups = Vec::with_capacity(nred + 1);
    for i in 0..nred {
        let start = edges.len();
        if i > 0 {
            // Red-path edge from the previous red vertex.
            edges.push(PolicyEdge::new(Vtx::Value(red(i - 1)), Vtx::Value(red(i)))?);
        }
        // Non-red vertices of this block attach to this red vertex.
        let block_lo = i * theta;
        for j in block_lo..red(i) {
            edges.push(PolicyEdge::new(Vtx::Value(j), Vtx::Value(red(i)))?);
        }
        groups.push((start, edges.len()));
    }
    // Trailing vertices (k % θ of them) attach to the last red vertex.
    if !k.is_multiple_of(theta) {
        let start = edges.len();
        for j in (red(nred - 1) + 1)..k {
            edges.push(PolicyEdge::new(Vtx::Value(red(nred - 1)), Vtx::Value(j))?);
        }
        groups.push((start, edges.len()));
    }
    debug_assert_eq!(edges.len(), k - 1);
    let graph = PolicyGraph::from_edges(Domain::one_dim(k), edges, format!("H^{theta}_{k}"))?;
    Ok(ThetaLineSpanner {
        graph,
        theta,
        groups,
        stretch,
    })
}

/// Exact stretch of `H^θ_k` against `G^θ_k` (Lemma 4.5's ℓ), certified
/// in closed form without building either graph: O(kθ) arithmetic
/// instead of materializing `G^θ_k` and running one BFS per vertex.
/// Requires `k > θ ≥ 1`. Cross-checked against
/// `PolicyGraph::stretch_through` in the tests.
///
/// Every non-red vertex is a leaf hanging off its block's red vertex
/// (trailing vertices off the last red vertex), and the red vertices form
/// a path. The unique tree path between `u` and `v` is therefore
/// `u → red(u) → … → red(v) → v`, of length
/// `[u not red] + |ridx(u) − ridx(v)| + [v not red]`; the stretch is the
/// maximum over the `G^θ_k` edges, i.e. all pairs with `|u − v| ≤ θ`.
pub fn theta_line_stretch(k: usize, theta: usize) -> Result<usize, CoreError> {
    if theta == 0 || k <= theta {
        return Err(CoreError::InvalidTheta { theta });
    }
    let nred = k / theta;
    // Index of the red vertex `u` attaches to (or is): block u/θ, clamped
    // so trailing vertices attach to the last red vertex.
    let ridx = |u: usize| (u / theta).min(nred - 1);
    let is_red = |u: usize| u % theta == theta - 1 && u / theta < nred;
    let mut worst = 0usize;
    for u in 0..k {
        let hop_u = usize::from(!is_red(u));
        let ru = ridx(u);
        for v in (u + 1)..=(u + theta).min(k - 1) {
            let d = hop_u + ridx(v).abs_diff(ru) + usize::from(!is_red(v));
            worst = worst.max(d);
        }
    }
    Ok(worst)
}

/// The 2-D spanner `H^θ_{k²}` of Section 5.3.2 with its internal/external
/// edge split.
#[derive(Clone, Debug)]
pub struct ThetaGridSpanner {
    /// The spanner graph over the `k × k` domain.
    pub graph: PolicyGraph,
    /// Block side length `s = max(θ/2, 1)`.
    pub block: usize,
    /// Number of red rows/columns (`k / s`).
    pub red_k: usize,
    /// The first `num_internal` edges are internal (non-red vertex → its
    /// block's red corner), ordered row-major by the non-red vertex.
    pub num_internal: usize,
    /// External (red-grid) edges follow: first all horizontal red edges
    /// grouped by red row, then all vertical red edges grouped by red
    /// column.
    pub num_external: usize,
}

impl ThetaGridSpanner {
    /// Certifies the Lemma 4.5 stretch of this spanner against
    /// `G^θ_{k²}`, in closed form: non-red vertices are degree-1 leaves
    /// hanging off their block's red corner, and the red corners form an
    /// `m × m` grid graph (shortest red-red path = L1 distance over red
    /// cells), so the spanner distance between any two cells is
    /// `[u not red] + |a_u − a_v| + |b_u − b_v| + [v not red]` where
    /// `(a, b)` are block coordinates. The maximum over `G^θ` edges is
    /// taken by sweeping every cell against its canonical `|δ|₁ ≤ θ`
    /// offsets — O(k²θ²) arithmetic with no graph materialization or BFS
    /// (the old path built the Θ(k²θ²)-edge target graph and ran one BFS
    /// per vertex). Cross-checked against `PolicyGraph::stretch_through`
    /// in the tests.
    pub fn certify_stretch(&self, theta: usize) -> Result<usize, CoreError> {
        if theta == 0 {
            return Err(CoreError::InvalidTheta { theta });
        }
        let s = self.block;
        let k = s * self.red_k;
        let t = theta as isize;
        let is_red = |r: usize, c: usize| r % s == s - 1 && c % s == s - 1;
        let mut worst = 0usize;
        for r1 in 0..k {
            for c1 in 0..k {
                let hop1 = usize::from(!is_red(r1, c1));
                let (a1, b1) = (r1 / s, c1 / s);
                // Canonical offsets: first nonzero coordinate positive.
                for dr in 0..=t {
                    let rem = t - dr;
                    let dc_lo = if dr == 0 { 1 } else { -rem };
                    for dc in dc_lo..=rem {
                        let r2 = r1 as isize + dr;
                        let c2 = c1 as isize + dc;
                        if r2 >= k as isize || c2 < 0 || c2 >= k as isize {
                            continue;
                        }
                        let (r2, c2) = (r2 as usize, c2 as usize);
                        let d = hop1
                            + (r2 / s).abs_diff(a1)
                            + (c2 / s).abs_diff(b1)
                            + usize::from(!is_red(r2, c2));
                        worst = worst.max(d);
                    }
                }
            }
        }
        Ok(worst)
    }
}

/// Builds `H^θ_{k²}` over the square `k × k` domain (Figure 7). Requires
/// the block side `s = max(θ/2, 1)` to divide `k`. For `θ ≤ 2` the spanner
/// degenerates to the `G¹_{k²}` grid itself (every vertex is red).
pub fn theta_grid_spanner(k: usize, theta: usize) -> Result<ThetaGridSpanner, CoreError> {
    if theta == 0 {
        return Err(CoreError::InvalidTheta { theta });
    }
    let s = (theta / 2).max(1);
    if !k.is_multiple_of(s) || k / s < 2 {
        return Err(CoreError::InvalidTheta { theta });
    }
    let m = k / s; // red grid dimension
    let domain = Domain::square(k);
    let is_red = |r: usize, c: usize| (r % s == s - 1) && (c % s == s - 1);
    let red_of = |r: usize, c: usize| -> (usize, usize) { (r / s, c / s) };
    let red_id = |a: usize, b: usize| ((a + 1) * s - 1) * k + ((b + 1) * s - 1);
    let mut edges = Vec::new();
    // Internal edges: non-red vertices, row-major.
    for r in 0..k {
        for c in 0..k {
            if is_red(r, c) {
                continue;
            }
            let (a, b) = red_of(r, c);
            edges.push(PolicyEdge::new(
                Vtx::Value(r * k + c),
                Vtx::Value(red_id(a, b)),
            )?);
        }
    }
    let num_internal = edges.len();
    // External horizontal red edges, grouped by red row.
    for a in 0..m {
        for b in 0..m - 1 {
            edges.push(PolicyEdge::new(
                Vtx::Value(red_id(a, b)),
                Vtx::Value(red_id(a, b + 1)),
            )?);
        }
    }
    // External vertical red edges, grouped by red column.
    for b in 0..m {
        for a in 0..m - 1 {
            edges.push(PolicyEdge::new(
                Vtx::Value(red_id(a, b)),
                Vtx::Value(red_id(a + 1, b)),
            )?);
        }
    }
    let num_external = edges.len() - num_internal;
    let graph = PolicyGraph::from_edges(domain, edges, format!("H^{theta}_{{{k}^2}}"))?;
    Ok(ThetaGridSpanner {
        graph,
        block: s,
        red_k: m,
        num_internal,
        num_external,
    })
}

/// A BFS spanning tree of a connected policy graph, rooted at `root` —
/// the generic Lemma 4.5 spanner for policies without bespoke
/// constructions. The resulting stretch can be certified with
/// [`PolicyGraph::stretch_through`].
pub fn bfs_spanning_tree(g: &PolicyGraph, root: usize) -> Result<PolicyGraph, CoreError> {
    let k = g.num_values();
    if root >= k {
        return Err(CoreError::CoordinateOutOfRange {
            coord: root,
            dim_size: k,
        });
    }
    if !g.is_connected() {
        return Err(CoreError::NotConnectedToBottom);
    }
    let mut visited = vec![false; k + 1];
    let mut edges = Vec::with_capacity(k.saturating_sub(1));
    let mut q = VecDeque::new();
    visited[root] = true;
    q.push_back(root);
    while let Some(u) = q.pop_front() {
        for &(v, _) in g.neighbors(u) {
            if !visited[v] {
                visited[v] = true;
                let a = if u == k { Vtx::Bottom } else { Vtx::Value(u) };
                let b = if v == k { Vtx::Bottom } else { Vtx::Value(v) };
                edges.push(PolicyEdge::new(a, b)?);
                q.push_back(v);
            }
        }
    }
    PolicyGraph::from_edges(g.domain().clone(), edges, format!("BFS-tree({})", g.name()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_line_spanner_is_tree_with_stretch_3() {
        for (k, theta) in [(10usize, 3usize), (12, 4), (16, 2), (9, 3)] {
            let sp = theta_line_spanner(k, theta).unwrap();
            assert!(sp.graph.is_tree(), "H^{theta}_{k} must be a tree");
            assert_eq!(sp.graph.num_edges(), k - 1);
            assert!(
                sp.stretch <= 3,
                "stretch {} > 3 for k={k}, θ={theta}",
                sp.stretch
            );
        }
    }

    #[test]
    fn theta_line_spanner_figure6_shape() {
        // Figure 6b: H³₁₀ — red vertices at 2, 5, 8 (0-indexed).
        let sp = theta_line_spanner(10, 3).unwrap();
        let g = &sp.graph;
        // Vertex 0 and 1 connect only to 2.
        assert_eq!(g.neighbors(0).len(), 1);
        assert!(g.neighbors(0).iter().any(|&(v, _)| v == 2));
        // Red path 2-5-8 exists.
        assert!(g.neighbors(2).iter().any(|&(v, _)| v == 5));
        assert!(g.neighbors(5).iter().any(|&(v, _)| v == 8));
        // Trailing vertex 9 attaches to red 8.
        assert!(g.neighbors(9).iter().any(|&(v, _)| v == 8));
        // Group count: 3 red groups + 1 trailing.
        assert_eq!(sp.groups.len(), 4);
        // Groups partition the edges.
        let total: usize = sp.groups.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, g.num_edges());
        // Groups are bounded by θ edges each.
        for &(s, e) in &sp.groups {
            assert!(e - s <= sp.theta);
        }
    }

    #[test]
    fn theta_line_closed_form_stretch_matches_bfs_certification() {
        // The O(kθ) closed form must agree with the graph-walk certifier
        // (one BFS per G^θ_k vertex through the spanner) on every shape:
        // θ | k, θ ∤ k, θ = 1, large θ.
        for (k, theta) in [
            (10usize, 3usize),
            (12, 4),
            (16, 2),
            (9, 3),
            (17, 5),
            (8, 1),
            (11, 7),
            (25, 6),
        ] {
            let sp = theta_line_spanner(k, theta).unwrap();
            let target = PolicyGraph::theta_line(k, theta).unwrap();
            let bfs = target.stretch_through(&sp.graph).unwrap();
            assert_eq!(
                sp.stretch, bfs,
                "closed-form vs BFS stretch for k={k}, θ={theta}"
            );
        }
    }

    #[test]
    fn theta_grid_closed_form_stretch_matches_bfs_certification() {
        for (k, theta) in [(6usize, 4usize), (8, 4), (9, 6), (4, 2), (6, 2), (10, 4)] {
            let sp = theta_grid_spanner(k, theta).unwrap();
            let target = PolicyGraph::distance_threshold(sp.graph.domain().clone(), theta).unwrap();
            let bfs = target.stretch_through(&sp.graph).unwrap();
            assert_eq!(
                sp.certify_stretch(theta).unwrap(),
                bfs,
                "closed-form vs BFS stretch for k={k}, θ={theta}"
            );
        }
        assert!(theta_grid_spanner(6, 4)
            .unwrap()
            .certify_stretch(0)
            .is_err());
    }

    #[test]
    fn theta_line_rejects_degenerate() {
        assert!(theta_line_spanner(5, 0).is_err());
        assert!(theta_line_spanner(3, 3).is_err());
    }

    #[test]
    fn theta_grid_spanner_structure() {
        // k=6, θ=4 → s=2, red grid 3x3.
        let sp = theta_grid_spanner(6, 4).unwrap();
        assert_eq!(sp.block, 2);
        assert_eq!(sp.red_k, 3);
        // Internal: 36 − 9 red = 27; external: 2·3·2 = 12.
        assert_eq!(sp.num_internal, 27);
        assert_eq!(sp.num_external, 12);
        assert_eq!(sp.graph.num_edges(), 39);
        assert!(sp.graph.is_connected());
        // Stretch is small (paper's analysis: ≤ ~6 for d=2).
        let stretch = sp.certify_stretch(4).unwrap();
        assert!(stretch <= 6, "stretch {stretch} too large");
    }

    #[test]
    fn theta_grid_red_edge_indexing() {
        let sp = theta_grid_spanner(6, 4).unwrap();
        // Red vertex of cell (0,0) is (1,1) → flat 7. The first external
        // edge is the horizontal (0,0)-(0,1), connecting red 7 and red
        // (1,3)=9.
        let e = sp.graph.edges()[sp.num_internal];
        assert_eq!(e.u, 7);
        assert_eq!(e.v, Vtx::Value(9));
        // The vertical (0,0)-(1,0) follows all red_k·(red_k−1) horizontal
        // edges and connects red 7 and red (3,1)=19.
        let e = sp.graph.edges()[sp.num_internal + sp.red_k * (sp.red_k - 1)];
        assert_eq!(e.u, 7);
        assert_eq!(e.v, Vtx::Value(19));
    }

    #[test]
    fn theta_grid_degenerates_for_small_theta() {
        // θ=2 → s=1: all vertices red, zero internal edges, H = G¹ grid.
        let sp = theta_grid_spanner(4, 2).unwrap();
        assert_eq!(sp.num_internal, 0);
        let g1 = PolicyGraph::distance_threshold(Domain::square(4), 1).unwrap();
        assert_eq!(sp.graph.num_edges(), g1.num_edges());
        let stretch = sp.certify_stretch(2).unwrap();
        assert!(stretch <= 2);
    }

    #[test]
    fn theta_grid_rejects_non_divisible() {
        // k=5, θ=4 → s=2 does not divide 5.
        assert!(theta_grid_spanner(5, 4).is_err());
    }

    #[test]
    fn bfs_tree_of_cycle() {
        let c = PolicyGraph::cycle(8).unwrap();
        let t = bfs_spanning_tree(&c, 0).unwrap();
        assert!(t.is_tree());
        assert_eq!(t.num_edges(), 7);
        // The cycle's worst edge stretches to n−1 = 7... actually a BFS tree
        // from 0 splits the cycle in half: the dropped edge is between the
        // two farthest vertices, stretch ≤ 7.
        let stretch = c.stretch_through(&t).unwrap();
        assert!(stretch >= 2);
        assert!(stretch <= 7);
    }

    #[test]
    fn bfs_tree_preserves_bottom() {
        let s = PolicyGraph::star(4).unwrap();
        let t = bfs_spanning_tree(&s, 0).unwrap();
        assert!(t.has_bottom());
        assert!(t.is_tree());
    }

    #[test]
    fn bfs_tree_rejects_disconnected() {
        let d = Domain::one_dim(4);
        let edges = vec![PolicyEdge::new(Vtx::Value(0), Vtx::Value(1)).unwrap()];
        let g = PolicyGraph::from_edges(d, edges, "disc").unwrap();
        assert!(bfs_spanning_tree(&g, 0).is_err());
    }

    #[test]
    fn subgraph_approximation_budget_math() {
        // Corollary 4.6 usage: an ε/ℓ mechanism on the spanner is (ε, G)
        // private. Just sanity-check the certified ℓ for the Figure-6 case
        // the experiments use (θ=4).
        let sp = theta_line_spanner(64, 4).unwrap();
        assert!(sp.stretch <= 3);
    }
}
