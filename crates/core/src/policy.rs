//! Blowfish policy graphs.
//!
//! A policy graph `G = (V, E)` with `V ⊆ T ∪ {⊥}` (Definition 3.1) encodes
//! which pairs of domain values an adversary must not be able to distinguish
//! between. An edge `(u, ⊥)` protects the presence/absence of a record with
//! value `u`. This module provides the graph type, the families of policies
//! studied in the paper (line, distance-threshold/grid, complete, star,
//! cycle, sensitive-attribute), and graph utilities (connectivity, BFS
//! distances, tree tests) used by the transformation machinery.

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::domain::Domain;
use crate::CoreError;

/// A vertex of a policy graph: a domain value or the distinguished ⊥.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vtx {
    /// A domain value, identified by its flat index.
    Value(usize),
    /// The dummy vertex ⊥ (Definition 3.1): an edge `(u, ⊥)` means the
    /// presence or absence of a record with value `u` is protected.
    Bottom,
}

/// An undirected policy-graph edge. Stored canonically: value-value edges
/// have `u < v`; ⊥ always sits in the second slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PolicyEdge {
    /// First endpoint (always a value).
    pub u: usize,
    /// Second endpoint.
    pub v: Vtx,
}

impl PolicyEdge {
    /// Canonicalizes an unordered pair into a [`PolicyEdge`].
    pub fn new(a: Vtx, b: Vtx) -> Result<Self, CoreError> {
        match (a, b) {
            (Vtx::Bottom, Vtx::Bottom) => Err(CoreError::InvalidEdge {
                reason: "both endpoints are ⊥",
            }),
            (Vtx::Value(u), Vtx::Bottom) | (Vtx::Bottom, Vtx::Value(u)) => {
                Ok(PolicyEdge { u, v: Vtx::Bottom })
            }
            (Vtx::Value(u), Vtx::Value(v)) => {
                if u == v {
                    Err(CoreError::InvalidEdge {
                        reason: "self-loop",
                    })
                } else {
                    Ok(PolicyEdge {
                        u: u.min(v),
                        v: Vtx::Value(u.max(v)),
                    })
                }
            }
        }
    }

    /// Whether this edge touches ⊥.
    pub fn touches_bottom(&self) -> bool {
        self.v == Vtx::Bottom
    }
}

/// A Blowfish policy graph over a [`Domain`].
///
/// The distance-threshold generators — [`PolicyGraph::line`],
/// [`PolicyGraph::theta_line`], [`PolicyGraph::distance_threshold`] and
/// [`PolicyGraph::complete`] — record their θ ([`PolicyGraph::theta`]) and
/// build their edges and adjacency only when a caller first reads them,
/// so a graph that is only classified costs its domain and name. Every
/// other graph, [`PolicyGraph::from_edges`] included, is built at
/// construction. A built graph stores its adjacency flat: one offsets
/// array over the value vertices and ⊥, and one array of
/// `(neighbor, edge index)` pairs in which each vertex's run is in
/// edge-index order.
///
/// `==` compares the domain, the name and the edges; `Debug` prints them
/// and θ, and reads the same whether or not the edges were built before.
#[derive(Clone)]
pub struct PolicyGraph {
    domain: Domain,
    name: String,
    /// θ of a distance-threshold generator; `None` for a graph given by
    /// its edges.
    theta: Option<usize>,
    /// Set at construction, or on first use when `theta` is recorded.
    built: OnceLock<Built>,
}

/// The edges of a policy graph and their flat adjacency.
#[derive(Clone)]
struct Built {
    edges: Vec<PolicyEdge>,
    /// `adj[offsets[u]..offsets[u + 1]]` are vertex `u`'s
    /// `(neighbor, edge index)` pairs; vertex and neighbor `k` are ⊥.
    offsets: Vec<usize>,
    adj: Vec<(usize, usize)>,
}

impl Built {
    /// Indexes valid edges over `k` value vertices. Each vertex's degree
    /// is counted into its offset slot and the counts are summed, so the
    /// slot holds the end of its run; filling from the last edge back
    /// then moves every slot to its run's start and leaves each run in
    /// edge-index order, with no cursor array.
    fn new(k: usize, mut edges: Vec<PolicyEdge>) -> Built {
        edges.shrink_to_fit();
        let end = |e: &PolicyEdge| match e.v {
            Vtx::Value(v) => v,
            Vtx::Bottom => k,
        };
        let mut offsets = vec![0usize; k + 2];
        for e in &edges {
            offsets[e.u] += 1;
            offsets[end(e)] += 1;
        }
        let mut total = 0;
        for slot in &mut offsets {
            total += *slot;
            *slot = total;
        }
        let mut adj = vec![(0, 0); total];
        for (idx, e) in edges.iter().enumerate().rev() {
            let (a, b) = (e.u, end(e));
            offsets[a] -= 1;
            adj[offsets[a]] = (b, idx);
            offsets[b] -= 1;
            adj[offsets[b]] = (a, idx);
        }
        Built {
            edges,
            offsets,
            adj,
        }
    }
}

impl PartialEq for PolicyGraph {
    fn eq(&self, other: &Self) -> bool {
        self.domain == other.domain && self.name == other.name && self.edges() == other.edges()
    }
}

impl std::fmt::Debug for PolicyGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyGraph")
            .field("domain", &self.domain)
            .field("name", &self.name)
            .field("theta", &self.theta)
            .field("edges", &self.edges())
            .finish()
    }
}

impl PolicyGraph {
    /// Builds a policy graph from explicit edges, kept in the given order.
    ///
    /// Every endpoint must lie in the domain
    /// ([`CoreError::CoordinateOutOfRange`]) and no edge may repeat
    /// ([`CoreError::InvalidEdge`] `"duplicate edge"`; edges are canonical,
    /// so `(v, u)` repeats `(u, v)`). When the input breaks both rules, the
    /// error is the one an in-order scan meets first. Duplicates are found
    /// by sorting the `(u, v)` keys once. The graph records no θ, so the
    /// engine never reads it as a distance-threshold family, whatever its
    /// edges.
    pub fn from_edges(
        domain: Domain,
        edges: Vec<PolicyEdge>,
        name: impl Into<String>,
    ) -> Result<Self, CoreError> {
        let k = domain.size();
        // The endpoint an in-order scan reports, `u` before `v`.
        let out_of_range = |e: &PolicyEdge| match e.v {
            _ if e.u >= k => Some(e.u),
            Vtx::Value(v) if v >= k => Some(v),
            _ => None,
        };
        // An in-order scan stops at the first out-of-range edge, so only
        // a duplicate before it takes precedence.
        let first_bad = edges.iter().position(|e| out_of_range(e).is_some());
        let mut keys: Vec<(usize, usize)> = edges[..first_bad.unwrap_or(edges.len())]
            .iter()
            .map(|e| match e.v {
                Vtx::Value(v) => (e.u, v),
                Vtx::Bottom => (e.u, k),
            })
            .collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(CoreError::InvalidEdge {
                reason: "duplicate edge",
            });
        }
        if let Some(coord) = first_bad.and_then(|i| out_of_range(&edges[i])) {
            return Err(CoreError::CoordinateOutOfRange { coord, dim_size: k });
        }
        Ok(PolicyGraph {
            domain,
            name: name.into(),
            theta: None,
            built: OnceLock::from(Built::new(k, edges)),
        })
    }

    // ------------------------------------------------------------------
    // Builders for the policy families of the paper.
    // ------------------------------------------------------------------

    /// The line graph `G¹_k` (Section 3): consecutive values of a totally
    /// ordered domain are connected. No ⊥ (a bounded-style policy).
    pub fn line(k: usize) -> Result<Self, CoreError> {
        PolicyGraph::theta_line(k, 1)
    }

    /// The 1-D distance-threshold graph `G^θ_k` (Section 5.1): values at
    /// distance ≤ θ are connected. Its edges, built on first use, are
    /// sorted by `(left endpoint, right endpoint)`.
    pub fn theta_line(k: usize, theta: usize) -> Result<Self, CoreError> {
        if theta == 0 {
            return Err(CoreError::InvalidTheta { theta });
        }
        let domain = Domain::product(&[k])?;
        Ok(PolicyGraph::lazy(domain, theta, format!("G^{theta}_{k}")))
    }

    /// The d-dimensional distance-threshold graph `G^θ_{k^d}` (Section 5.1):
    /// vertices are the cells of `domain` and `(u, v) ∈ E` iff the L1
    /// distance between their coordinates is at most θ. For `d = 2` this is
    /// the paper's grid policy (geo-indistinguishability, Section 3). Its
    /// edges are built on first use.
    pub fn distance_threshold(domain: Domain, theta: usize) -> Result<Self, CoreError> {
        if theta == 0 {
            return Err(CoreError::InvalidTheta { theta });
        }
        let name = format!("G^{theta}_{{k^{}}}", domain.num_dims());
        Ok(PolicyGraph::lazy(domain, theta, name))
    }

    /// The complete graph over `T` — bounded differential privacy
    /// (Section 3: `E = {(u, v) | ∀u, v ∈ T}`). It is `G^{k−1}_k` and
    /// records θ = k − 1 (θ = 1 when k = 1, where neither has an edge);
    /// its edges are built on first use.
    pub fn complete(k: usize) -> Result<Self, CoreError> {
        let domain = Domain::product(&[k])?;
        Ok(PolicyGraph::lazy(domain, k.max(2) - 1, format!("K_{k}")))
    }

    /// A distance-threshold graph (θ ≥ 1) whose edges are built on first
    /// use.
    fn lazy(domain: Domain, theta: usize, name: String) -> Self {
        PolicyGraph {
            domain,
            name,
            theta: Some(theta),
            built: OnceLock::new(),
        }
    }

    /// The star over ⊥ — unbounded differential privacy (Section 3:
    /// `E = {(u, ⊥) | ∀u ∈ T}`).
    pub fn star(k: usize) -> Result<Self, CoreError> {
        let domain = Domain::product(&[k])?;
        let edges = (0..k)
            .map(|u| PolicyEdge::new(Vtx::Value(u), Vtx::Bottom))
            .collect::<Result<Vec<_>, _>>()?;
        PolicyGraph::from_edges(domain, edges, format!("Star_{k}"))
    }

    /// The cycle on `k` vertices — the canonical graph with *no* isometric
    /// L1 embedding, witnessing the Theorem 4.4 negative result.
    pub fn cycle(k: usize) -> Result<Self, CoreError> {
        if k < 3 {
            return Err(CoreError::InvalidEdge {
                reason: "cycle needs at least 3 vertices",
            });
        }
        let domain = Domain::product(&[k])?;
        let mut edges = Vec::with_capacity(k);
        for u in 0..k - 1 {
            edges.push(PolicyEdge::new(Vtx::Value(u), Vtx::Value(u + 1))?);
        }
        edges.push(PolicyEdge::new(Vtx::Value(k - 1), Vtx::Value(0))?);
        PolicyGraph::from_edges(domain, edges, format!("C_{k}"))
    }

    /// The sensitive-attribute policy of Appendix E: over a product domain,
    /// `(u, v) ∈ E` iff `u` and `v` differ in exactly one attribute and that
    /// attribute is in `sensitive_dims`. Typically disconnected.
    pub fn sensitive_attributes(
        domain: Domain,
        sensitive_dims: &[usize],
    ) -> Result<Self, CoreError> {
        for &d in sensitive_dims {
            if d >= domain.num_dims() {
                return Err(CoreError::DimensionMismatch {
                    expected: domain.num_dims(),
                    got: d,
                });
            }
        }
        let mut edges = Vec::new();
        for u in domain.iter() {
            let cu = domain.coords(u)?;
            for &d in sensitive_dims {
                // Connect to every larger value of the sensitive attribute,
                // all other attributes fixed.
                for w in (cu[d] + 1)..domain.dim(d) {
                    let mut cv = cu.clone();
                    cv[d] = w;
                    let v = domain.flat_index(&cv)?;
                    edges.push(PolicyEdge::new(Vtx::Value(u), Vtx::Value(v))?);
                }
            }
        }
        PolicyGraph::from_edges(domain, edges, "SensitiveAttrs")
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The domain `T`.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// `|T|` (excluding ⊥).
    #[inline]
    pub fn num_values(&self) -> usize {
        self.domain.size()
    }

    /// The edges in construction order. Builds a generator graph's edges
    /// on the first call.
    #[inline]
    pub fn edges(&self) -> &[PolicyEdge] {
        &self.built().edges
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges().len()
    }

    /// The distance threshold θ a generator recorded: `Some` for
    /// [`PolicyGraph::line`], [`PolicyGraph::theta_line`],
    /// [`PolicyGraph::distance_threshold`] and [`PolicyGraph::complete`],
    /// `None` for every other graph. Reading it builds nothing.
    #[inline]
    pub fn theta(&self) -> Option<usize> {
        self.theta
    }

    /// Human-readable policy name (e.g. `G^1_1024`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether any edge touches ⊥.
    pub fn has_bottom(&self) -> bool {
        !self.bottom_neighbors().is_empty()
    }

    /// A canonical structural hash of the graph: a deterministic digest of
    /// the domain shape and the canonicalized edge list (edges are stored
    /// canonically — `u < v`, ⊥ second — so the digest is independent of
    /// the order endpoints were given in). Intentionally *not* a function
    /// of the display [`PolicyGraph::name`]: equal structures hash equal,
    /// which makes this usable as a cache key with an equality fallback
    /// for collisions.
    pub fn structural_hash(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.domain.num_dims().hash(&mut h);
        for d in 0..self.domain.num_dims() {
            self.domain.dim(d).hash(&mut h);
        }
        self.edges().hash(&mut h);
        h.finish()
    }

    /// Neighbors of value vertex `u` as `(neighbor, edge index)` pairs in
    /// edge-index order, where `neighbor == num_values()` encodes ⊥; `u ==
    /// num_values()` gives ⊥'s own, as [`PolicyGraph::bottom_neighbors`].
    pub fn neighbors(&self, u: usize) -> &[(usize, usize)] {
        let built = self.built();
        &built.adj[built.offsets[u]..built.offsets[u + 1]]
    }

    /// The `(value vertex, edge index)` pairs adjacent to ⊥.
    pub fn bottom_neighbors(&self) -> &[(usize, usize)] {
        self.neighbors(self.num_values())
    }

    /// The edges and adjacency, built on first use for a generator graph.
    fn built(&self) -> &Built {
        self.built.get_or_init(|| {
            let theta = self
                .theta
                .expect("a graph without a recorded θ is built at construction");
            Built::new(self.domain.size(), theta_edges(&self.domain, theta))
        })
    }

    // ------------------------------------------------------------------
    // Graph algorithms.
    // ------------------------------------------------------------------

    /// BFS distances from value vertex `start` to every vertex; ⊥ is the
    /// last slot. Unreachable vertices map to `usize::MAX`. Iterates
    /// adjacency lists in place — no per-vertex allocation.
    pub fn bfs_distances(&self, start: usize) -> Vec<usize> {
        let k = self.num_values();
        let mut dist = vec![usize::MAX; k + 1];
        let mut q = VecDeque::new();
        dist[start] = 0;
        q.push_back(start);
        while let Some(u) = q.pop_front() {
            let du = dist[u];
            for &(v, _) in self.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = du + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Shortest-path distance `dist_G(u, v)` between two value vertices —
    /// the policy metric of Section 3 (Equation 1). `None` if disconnected.
    pub fn distance(&self, u: usize, v: usize) -> Option<usize> {
        let d = self.bfs_distances(u)[v];
        (d != usize::MAX).then_some(d)
    }

    /// Connected components over value vertices, where ⊥ (if present)
    /// participates in connectivity. Each component is a sorted list of
    /// value-vertex ids.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let k = self.num_values();
        let mut comp = vec![usize::MAX; k + 1];
        let mut out: Vec<Vec<usize>> = Vec::new();
        for s in 0..=k {
            if comp[s] != usize::MAX {
                continue;
            }
            // Skip an isolated ⊥ slot when no ⊥-edges exist.
            if s == k && self.bottom_neighbors().is_empty() {
                continue;
            }
            let c = out.len();
            let mut members = Vec::new();
            let mut q = VecDeque::new();
            comp[s] = c;
            q.push_back(s);
            while let Some(u) = q.pop_front() {
                if u < k {
                    members.push(u);
                }
                for &(v, _) in self.neighbors(u) {
                    if comp[v] == usize::MAX {
                        comp[v] = c;
                        q.push_back(v);
                    }
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// Whether the graph (including ⊥ when present) is connected.
    pub fn is_connected(&self) -> bool {
        self.components().len() <= 1
    }

    /// Whether the graph is a tree over its vertex set (connected and
    /// `|E| = |V| − 1`, counting ⊥ as a vertex iff it has edges).
    pub fn is_tree(&self) -> bool {
        let nv = self.num_values() + usize::from(self.has_bottom());
        self.is_connected() && self.num_edges() + 1 == nv
    }

    /// The maximum multiplicative increase of `G`-distances when routed
    /// through `other` (same vertex set): `max_{(u,v) ∈ E(G)}
    /// dist_other(u, v)`. This is the `ℓ` of the subgraph-approximation
    /// Lemma 4.5. Returns `None` when some edge of `G` is disconnected in
    /// `other`.
    pub fn stretch_through(&self, other: &PolicyGraph) -> Option<usize> {
        let mut worst = 0usize;
        // Cache BFS runs from repeated sources.
        let mut cache: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for e in self.edges() {
            let d = match e.v {
                Vtx::Value(v) => {
                    let dists = cache.entry(e.u).or_insert_with(|| other.bfs_distances(e.u));
                    dists[v]
                }
                Vtx::Bottom => {
                    let dists = cache.entry(e.u).or_insert_with(|| other.bfs_distances(e.u));
                    dists[other.num_values()]
                }
            };
            if d == usize::MAX {
                return None;
            }
            worst = worst.max(d);
        }
        Some(worst)
    }
}

/// The edges of `G^θ` over `domain`: for each cell `u` in flat order and
/// each canonical offset δ in turn, the edge `(u, u + δ)` when `u + δ` is
/// in bounds. Offsets are those [`enumerate_offsets`] lists, so each
/// unordered pair appears once, and the exact edge count is known before
/// any is pushed.
fn theta_edges(domain: &Domain, theta: usize) -> Vec<PolicyEdge> {
    let dims = domain.dims();
    let d = dims.len();
    let mut offsets = Vec::new();
    enumerate_offsets(&mut offsets, &mut vec![0; d], dims, 0, theta);
    // Row-major with the first nonzero coordinate positive: every step
    // moves to a larger flat index.
    let steps: Vec<usize> = offsets
        .chunks(d)
        .map(|off| {
            let stride = |i: usize| dims[i + 1..].iter().product::<usize>() as isize;
            off.iter()
                .enumerate()
                .map(|(i, &o)| o * stride(i))
                .sum::<isize>() as usize
        })
        .collect();
    let count = offsets
        .chunks(d)
        .map(|off| {
            off.iter()
                .zip(dims)
                .map(|(&o, &n)| n - o.unsigned_abs())
                .product::<usize>()
        })
        .sum();
    let mut edges = Vec::with_capacity(count);
    let mut coords = vec![0usize; d];
    for u in 0..domain.size() {
        for (off, &step) in offsets.chunks(d).zip(&steps) {
            let in_bounds = off
                .iter()
                .zip(&coords)
                .zip(dims)
                .all(|((&o, &c), &n)| c.checked_add_signed(o).is_some_and(|c| c < n));
            if in_bounds {
                edges.push(PolicyEdge {
                    u,
                    v: Vtx::Value(u + step),
                });
            }
        }
        // Advance `coords` to cell u + 1, last dimension fastest.
        for (c, &n) in coords.iter_mut().zip(dims).rev() {
            *c += 1;
            if *c < n {
                break;
            }
            *c = 0;
        }
    }
    debug_assert_eq!(edges.len(), count);
    edges
}

/// Appends to `out`, `cur.len()` coordinates apiece and in lexicographic
/// order, every offset of L1 norm `1..=budget` whose first nonzero
/// coordinate is positive. Coordinate `i` stays within `±(dims[i] − 1)`:
/// a longer step never lands in the domain, so clipping drops no edge
/// and keeps a large θ from enumerating offsets that cannot fit.
fn enumerate_offsets(
    out: &mut Vec<isize>,
    cur: &mut [isize],
    dims: &[usize],
    dim: usize,
    budget: usize,
) {
    if dim == cur.len() {
        if cur.iter().find(|&&c| c != 0).is_some_and(|&c| c > 0) {
            out.extend_from_slice(cur);
        }
        return;
    }
    let reach = budget.min(dims[dim] - 1) as isize;
    for v in -reach..=reach {
        cur[dim] = v;
        enumerate_offsets(out, cur, dims, dim + 1, budget - v.unsigned_abs());
    }
    cur[dim] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_graph_structure() {
        let g = PolicyGraph::line(5).unwrap();
        assert_eq!(g.num_edges(), 4);
        assert!(!g.has_bottom());
        assert!(g.is_connected());
        assert!(g.is_tree());
        assert_eq!(g.neighbors(0).len(), 1);
        assert_eq!(g.neighbors(2).len(), 2);
        assert_eq!(g.distance(0, 4), Some(4));
    }

    #[test]
    fn theta_line_edges() {
        let g = PolicyGraph::theta_line(6, 2).unwrap();
        // Each vertex connects to the next two: (k-1) + (k-2) edges.
        assert_eq!(g.num_edges(), 5 + 4);
        assert_eq!(g.distance(0, 5), Some(3)); // 0->2->4->5
        assert!(!g.is_tree());
        assert!(PolicyGraph::theta_line(5, 0).is_err());
    }

    #[test]
    fn grid_distance_threshold() {
        let d = Domain::square(3);
        let g = PolicyGraph::distance_threshold(d, 1).unwrap();
        // 3x3 grid, θ=1: 2·3·2 = 12 edges.
        assert_eq!(g.num_edges(), 12);
        assert!(g.is_connected());
        assert!(!g.is_tree());

        let d = Domain::square(3);
        let g2 = PolicyGraph::distance_threshold(d, 2).unwrap();
        // θ=2 adds diagonal (1,1)-offset pairs and distance-2 straight pairs.
        assert!(g2.num_edges() > 12);
        // Every θ=1 edge must exist in θ=2.
        for e in g.edges() {
            assert!(g2.edges().contains(e));
        }
    }

    #[test]
    fn grid_edges_match_l1_distance() {
        let d = Domain::square(4);
        let theta = 2;
        let g = PolicyGraph::distance_threshold(d.clone(), theta).unwrap();
        // Check the edge set against the definition pair-by-pair.
        let mut expected = 0;
        for u in 0..d.size() {
            for v in (u + 1)..d.size() {
                if d.l1_distance(u, v).unwrap() <= theta {
                    expected += 1;
                }
            }
        }
        assert_eq!(g.num_edges(), expected);
    }

    #[test]
    fn complete_and_star() {
        let kg = PolicyGraph::complete(5).unwrap();
        assert_eq!(kg.num_edges(), 10);
        assert!(!kg.has_bottom());
        assert_eq!(kg.distance(0, 4), Some(1));

        let s = PolicyGraph::star(5).unwrap();
        assert_eq!(s.num_edges(), 5);
        assert!(s.has_bottom());
        assert!(s.is_tree());
        // Values are connected only through ⊥.
        assert_eq!(s.distance(0, 4), Some(2));
    }

    #[test]
    fn cycle_graph() {
        let c = PolicyGraph::cycle(6).unwrap();
        assert_eq!(c.num_edges(), 6);
        assert!(!c.is_tree());
        assert_eq!(c.distance(0, 3), Some(3));
        assert_eq!(c.distance(0, 5), Some(1));
        assert!(PolicyGraph::cycle(2).is_err());
    }

    #[test]
    fn sensitive_attributes_components() {
        // 2 non-sensitive x 3 sensitive values: edges only along dim 1.
        let d = Domain::product(&[2, 3]).unwrap();
        let g = PolicyGraph::sensitive_attributes(d, &[1]).unwrap();
        // Per row: complete graph on 3 => 3 edges; 2 rows.
        assert_eq!(g.num_edges(), 6);
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4, 5]);
        assert!(!g.is_connected());
    }

    #[test]
    fn bottom_participates_in_connectivity() {
        // Two values, each tied to ⊥ but not to each other: connected via ⊥.
        let d = Domain::one_dim(2);
        let edges = vec![
            PolicyEdge::new(Vtx::Value(0), Vtx::Bottom).unwrap(),
            PolicyEdge::new(Vtx::Value(1), Vtx::Bottom).unwrap(),
        ];
        let g = PolicyGraph::from_edges(d, edges, "test").unwrap();
        assert!(g.is_connected());
        assert_eq!(g.distance(0, 1), Some(2));
    }

    #[test]
    fn edge_canonicalization_and_validation() {
        let e = PolicyEdge::new(Vtx::Value(3), Vtx::Value(1)).unwrap();
        assert_eq!(e.u, 1);
        assert_eq!(e.v, Vtx::Value(3));
        assert!(PolicyEdge::new(Vtx::Value(1), Vtx::Value(1)).is_err());
        assert!(PolicyEdge::new(Vtx::Bottom, Vtx::Bottom).is_err());
        let b = PolicyEdge::new(Vtx::Bottom, Vtx::Value(2)).unwrap();
        assert!(b.touches_bottom());
        assert_eq!(b.u, 2);
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        let d = Domain::one_dim(3);
        let dup = vec![
            PolicyEdge::new(Vtx::Value(0), Vtx::Value(1)).unwrap(),
            PolicyEdge::new(Vtx::Value(1), Vtx::Value(0)).unwrap(),
        ];
        assert!(PolicyGraph::from_edges(d.clone(), dup, "dup").is_err());
        let oob = vec![PolicyEdge::new(Vtx::Value(0), Vtx::Value(7)).unwrap()];
        assert!(PolicyGraph::from_edges(d, oob, "oob").is_err());
    }

    #[test]
    fn from_edges_rejects_duplicates_in_scan_order() {
        let dup = Err(CoreError::InvalidEdge {
            reason: "duplicate edge",
        });
        let e = |a: usize, b: Vtx| PolicyEdge::new(Vtx::Value(a), b).unwrap();
        let d = Domain::one_dim(6);
        // A value edge given as (v, u) after (u, v).
        let edges = vec![
            e(1, Vtx::Value(2)),
            e(4, Vtx::Value(5)),
            e(2, Vtx::Value(1)),
        ];
        assert_eq!(PolicyGraph::from_edges(d.clone(), edges, "vu"), dup);
        // A repeated (u, ⊥).
        let edges = vec![e(3, Vtx::Bottom), e(0, Vtx::Bottom), e(3, Vtx::Bottom)];
        assert_eq!(PolicyGraph::from_edges(d.clone(), edges, "bottom"), dup);
        // A duplicate appended to a shuffled θ-line edge list.
        let mut edges = PolicyGraph::theta_line(40, 3).unwrap().edges().to_vec();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..edges.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            edges.swap(i, (state % (i as u64 + 1)) as usize);
        }
        assert!(PolicyGraph::from_edges(Domain::one_dim(40), edges.clone(), "ok").is_ok());
        edges.push(edges[17]);
        assert_eq!(
            PolicyGraph::from_edges(Domain::one_dim(40), edges.clone(), "shuffled"),
            dup
        );
        // An out-of-range edge before the duplicate is reported first, and
        // one after it is not.
        let oob = e(2, Vtx::Value(40));
        let mut before = edges.clone();
        before.insert(10, oob);
        assert_eq!(
            PolicyGraph::from_edges(Domain::one_dim(40), before, "oob-first"),
            Err(CoreError::CoordinateOutOfRange {
                coord: 40,
                dim_size: 40
            })
        );
        edges.push(oob);
        assert_eq!(
            PolicyGraph::from_edges(Domain::one_dim(40), edges, "dup-first"),
            dup
        );
    }

    #[test]
    fn stretch_through_spanner() {
        // G = cycle on 6; G' = path (cycle minus edge (5,0)).
        let g = PolicyGraph::cycle(6).unwrap();
        let d = Domain::one_dim(6);
        let path_edges = (0..5)
            .map(|u| PolicyEdge::new(Vtx::Value(u), Vtx::Value(u + 1)).unwrap())
            .collect();
        let path = PolicyGraph::from_edges(d, path_edges, "path").unwrap();
        // Edge (5,0) is distance 5 in the path — the cycle's worst case.
        assert_eq!(g.stretch_through(&path), Some(5));
        // And the path embeds in the cycle with stretch 1.
        assert_eq!(path.stretch_through(&g), Some(1));
    }

    #[test]
    fn stretch_disconnected_is_none() {
        let g = PolicyGraph::line(4).unwrap();
        let d = Domain::one_dim(4);
        let sparse = PolicyGraph::from_edges(
            d,
            vec![PolicyEdge::new(Vtx::Value(0), Vtx::Value(1)).unwrap()],
            "partial",
        )
        .unwrap();
        assert_eq!(g.stretch_through(&sparse), None);
    }

    #[test]
    fn distance_threshold_1d_matches_theta_line() {
        let a = PolicyGraph::theta_line(8, 3).unwrap();
        let b = PolicyGraph::distance_threshold(Domain::one_dim(8), 3).unwrap();
        assert_eq!(a.num_edges(), b.num_edges());
        for e in a.edges() {
            assert!(b.edges().contains(e));
        }
    }

    /// Every generator graph with 1-D k ≤ 64 and θ ≤ 10, 2-D and 3-D
    /// shapes with sides ≤ 8 and θ ≤ 5, and `complete(k ≤ 12)`: the edges
    /// it builds on first use are every pair at L1 distance ≤ θ in
    /// `(u, v)` order, each adjacency run lists its vertex's edges in
    /// edge-index order, and the graph behaves exactly like the same
    /// edges given to `from_edges`.
    #[test]
    fn generator_graphs_built_on_first_use_match_eager_graphs() {
        let mut graphs = Vec::new();
        for k in 1..=64 {
            for theta in 1..=10 {
                graphs.push((PolicyGraph::theta_line(k, theta).unwrap(), theta));
            }
        }
        let mut shapes: Vec<Vec<usize>> = (1..=8)
            .flat_map(|r| (1..=8).map(move |c| vec![r, c]))
            .collect();
        shapes.extend([vec![2, 3, 2], vec![1, 4, 3], vec![3, 1, 1]]);
        for dims in shapes {
            for theta in 1..=5 {
                let domain = Domain::product(&dims).unwrap();
                graphs.push((
                    PolicyGraph::distance_threshold(domain, theta).unwrap(),
                    theta,
                ));
            }
        }
        for k in 1..=12 {
            graphs.push((PolicyGraph::complete(k).unwrap(), k.max(2) - 1));
        }
        for (g, theta) in graphs {
            let unbuilt = g.clone();
            let debug = format!("{g:?}");
            let d = g.domain();
            let pairs: Vec<PolicyEdge> = (0..d.size())
                .flat_map(|u| (u + 1..d.size()).map(move |v| (u, v)))
                .filter(|&(u, v)| d.l1_distance(u, v).unwrap() <= theta)
                .map(|(u, v)| PolicyEdge::new(Vtx::Value(u), Vtx::Value(v)).unwrap())
                .collect();
            assert_eq!(g.edges(), &pairs[..], "{}", g.name());
            assert_eq!(
                format!("{g:?}"),
                debug,
                "Debug must not depend on the build"
            );
            let eager = PolicyGraph::from_edges(d.clone(), g.edges().to_vec(), g.name()).unwrap();
            assert_eq!(g, eager);
            assert_eq!(eager, g);
            assert_eq!(eager, unbuilt);
            assert_eq!(g.num_edges(), eager.num_edges());
            let k = g.num_values();
            for u in 0..=k {
                let runs: Vec<(usize, usize)> = pairs
                    .iter()
                    .enumerate()
                    .filter_map(|(i, e)| match e.v {
                        Vtx::Value(v) if e.u == u => Some((v, i)),
                        Vtx::Value(v) if v == u => Some((e.u, i)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(g.neighbors(u), &runs[..], "{} vertex {u}", g.name());
                assert_eq!(g.neighbors(u), eager.neighbors(u));
            }
            assert_eq!(g.bottom_neighbors(), eager.bottom_neighbors());
            assert!(g.bottom_neighbors().is_empty());
            assert_eq!(g.components(), eager.components());
            assert_eq!(g.is_tree(), eager.is_tree());
            assert_eq!(g.structural_hash(), eager.structural_hash());
            assert_eq!(unbuilt.structural_hash(), eager.structural_hash());
            assert_eq!(g.bfs_distances(0), eager.bfs_distances(0));
            assert_eq!(g.theta(), Some(theta));
            assert_eq!(eager.theta(), None);
        }
    }

    #[test]
    fn flat_adjacency_keeps_bottom_runs_in_edge_order() {
        // ⊥ edges interleaved with value edges: each run, ⊥'s included,
        // lists its edges in index order.
        let e = |a: usize, b: Vtx| PolicyEdge::new(Vtx::Value(a), b).unwrap();
        let edges = vec![
            e(2, Vtx::Bottom),
            e(0, Vtx::Value(2)),
            e(0, Vtx::Bottom),
            e(1, Vtx::Value(2)),
        ];
        let g = PolicyGraph::from_edges(Domain::one_dim(3), edges, "mixed").unwrap();
        assert_eq!(g.neighbors(0), &[(2, 1), (3, 2)]);
        assert_eq!(g.neighbors(1), &[(2, 3)]);
        assert_eq!(g.neighbors(2), &[(3, 0), (0, 1), (1, 3)]);
        assert_eq!(g.bottom_neighbors(), &[(2, 0), (0, 2)]);
        assert!(g.has_bottom());
        assert_eq!(g.bfs_distances(1), vec![2, 0, 1, 2]);
    }

    #[test]
    fn structural_hash_ignores_names_but_not_structure() {
        let a = PolicyGraph::line(8).unwrap();
        let b = PolicyGraph::theta_line(8, 1).unwrap();
        // Same structure (line ≡ θ=1), same name-independent digest.
        assert_eq!(a.structural_hash(), b.structural_hash());
        // Renamed but structurally identical: same digest.
        let renamed =
            PolicyGraph::from_edges(Domain::one_dim(8), a.edges().to_vec(), "other").unwrap();
        assert_eq!(a.structural_hash(), renamed.structural_hash());
        // Different structure: different digest (with overwhelming
        // probability for these tiny fixed graphs).
        assert_ne!(
            a.structural_hash(),
            PolicyGraph::star(8).unwrap().structural_hash()
        );
        assert_ne!(
            a.structural_hash(),
            PolicyGraph::line(9).unwrap().structural_hash()
        );
        // A 1-D domain of size 8 vs an 8-cell 2-D domain with the same
        // flat edge list must not collide structurally.
        assert_ne!(
            a.structural_hash(),
            PolicyGraph::from_edges(Domain::product(&[2, 4]).unwrap(), a.edges().to_vec(), "2d")
                .unwrap()
                .structural_hash()
        );
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(PolicyGraph::line(7).unwrap().name(), "G^1_7");
        assert_eq!(PolicyGraph::complete(4).unwrap().name(), "K_4");
        assert_eq!(PolicyGraph::star(4).unwrap().name(), "Star_4");
    }
}
