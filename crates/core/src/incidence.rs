//! The transformation matrix `P_G` (Section 4.4).
//!
//! `P_G` is a signed vertex–edge incidence-style matrix: one row per domain
//! value, one column per policy edge, with `+1/−1` in the rows of the edge's
//! endpoints (only `+1` for a `(u, ⊥)` edge). It realizes the paper's
//! transformational equivalence: `W_G = W · P_G` and `x_G = P_G⁻¹ · x`.
//!
//! Three construction cases:
//!
//! * **Case I** (graph contains ⊥): direct construction.
//! * **Case II** (connected, no ⊥): pick a vertex `v*`, replace it by ⊥,
//!   rewrite queries that touch `v*` using `x[v*] = n − Σ_{j≠v*} x[j]`
//!   (Lemma 4.10 / Appendix D.1), and carry the constant correction
//!   `c(W, n)` so original answers are reconstructed exactly.
//! * **Case III** (disconnected, Appendix E): apply the Case II conversion
//!   independently to every component that lacks ⊥; every component is then
//!   grounded through ⊥. Reconstruction uses the per-component totals,
//!   which the policy itself deems disclosable (Appendix E discussion).

use blowfish_linalg::{SparseMatrix, TripletBuilder};

use crate::database::DataVector;
use crate::policy::{PolicyGraph, Vtx};
use crate::query::LinearQuery;
use crate::workload::Workload;
use crate::CoreError;

/// An edge of the grounded graph: row indices into the reduced vertex set,
/// with `None` standing for ⊥.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroundedEdge {
    /// Row of the `+1` endpoint.
    pub u_row: usize,
    /// Row of the `−1` endpoint, or `None` for ⊥.
    pub v_row: Option<usize>,
}

/// The Case II/III grounding of a policy graph: which vertices were
/// replaced by ⊥ and how original vertices map to matrix rows.
#[derive(Clone, Debug)]
pub struct Grounding {
    /// Original vertex id → row index (`None` when replaced).
    row_of: Vec<Option<usize>>,
    /// Row index → original vertex id.
    orig_of_row: Vec<usize>,
    /// Component id of each original vertex.
    component_of: Vec<usize>,
    /// Component id → replacement vertex (original id), if that component
    /// needed one.
    replacement_of_component: Vec<Option<usize>>,
    /// Members (original ids) of each component.
    components: Vec<Vec<usize>>,
}

impl Grounding {
    /// Grounds `graph`, replacing the largest vertex of every ⊥-less
    /// component with ⊥ — mirroring Example 4.1, which replaces the
    /// rightmost node of the line graph.
    pub fn new(graph: &PolicyGraph) -> Result<Self, CoreError> {
        let components = graph.components();
        let defaults: Vec<usize> = components
            .iter()
            .map(|c| *c.last().expect("components are non-empty"))
            .collect();
        Grounding::from_components(graph, components, &defaults)
    }

    /// Grounds `graph`, choosing the replacement for each ⊥-less component
    /// from `candidates` (any candidate inside the component is used; the
    /// component's largest vertex is the fallback).
    pub fn with_candidates(graph: &PolicyGraph, candidates: &[usize]) -> Result<Self, CoreError> {
        Grounding::from_components(graph, graph.components(), candidates)
    }

    /// [`Grounding::with_candidates`] over the already computed
    /// `graph.components()`.
    fn from_components(
        graph: &PolicyGraph,
        components: Vec<Vec<usize>>,
        candidates: &[usize],
    ) -> Result<Self, CoreError> {
        let k = graph.num_values();
        if components.is_empty() {
            return Err(CoreError::EmptyPolicy);
        }
        let mut component_of = vec![usize::MAX; k];
        for (ci, comp) in components.iter().enumerate() {
            for &u in comp {
                component_of[u] = ci;
            }
        }
        // Note: an isolated vertex forms a singleton component. It is then
        // replaced by ⊥ below and its count is reconstructed exactly from
        // the component total — i.e. it is *fully disclosed*, which is
        // precisely the Appendix-E semantics of a policy imposing no
        // indistinguishability requirement on that value.
        debug_assert!(component_of.iter().all(|&c| c != usize::MAX));
        // A component is already grounded when one of its vertices has a
        // ⊥-edge.
        let mut grounded = vec![false; components.len()];
        for &(u, _) in graph.bottom_neighbors() {
            grounded[component_of[u]] = true;
        }
        let mut replacement_of_component = vec![None; components.len()];
        for (ci, comp) in components.iter().enumerate() {
            if grounded[ci] {
                continue;
            }
            let pick = candidates
                .iter()
                .copied()
                .find(|&v| v < k && component_of[v] == ci)
                .unwrap_or(*comp.last().expect("non-empty"));
            replacement_of_component[ci] = Some(pick);
        }
        let mut replaced: Vec<usize> = replacement_of_component.iter().flatten().copied().collect();
        replaced.sort_unstable();
        let mut row_of = vec![None; k];
        let mut orig_of_row = Vec::with_capacity(k - replaced.len());
        for (u, slot) in row_of.iter_mut().enumerate() {
            if replaced.binary_search(&u).is_err() {
                *slot = Some(orig_of_row.len());
                orig_of_row.push(u);
            }
        }
        Ok(Grounding {
            row_of,
            orig_of_row,
            component_of,
            replacement_of_component,
            components,
        })
    }

    /// Row of original vertex `u`, or `None` if it was replaced by ⊥.
    pub fn row_of(&self, u: usize) -> Option<usize> {
        self.row_of[u]
    }

    /// Original vertex id of `row`.
    pub fn orig_of(&self, row: usize) -> usize {
        self.orig_of_row[row]
    }

    /// Number of matrix rows (`k − #replaced`).
    pub fn num_rows(&self) -> usize {
        self.orig_of_row.len()
    }

    /// Component id of original vertex `u`.
    pub fn component_of(&self, u: usize) -> usize {
        self.component_of[u]
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// The vertex replaced by ⊥ in component `c`, if any.
    pub fn replacement(&self, c: usize) -> Option<usize> {
        self.replacement_of_component[c]
    }
}

/// Per-query constant corrections: `(component id, coefficient)` pairs.
pub type QueryConstants = Vec<(usize, f64)>;

/// A query transformed into edge space: answer it as
/// `q_G · x_G + Σ_c coeff_c · n_c` where `n_c` are component totals.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformedQuery {
    /// The edge-space query `q_G = q′ · P_G`.
    pub edge_query: LinearQuery,
    /// Per-component constant corrections `(component id, coefficient)`
    /// from the Case II rewrite (empty when the original graph had ⊥).
    pub constants: Vec<(usize, f64)>,
}

impl TransformedQuery {
    /// Reconstructs the original answer from an edge-space answer and the
    /// (public under the policy) component totals.
    pub fn reconstruct(&self, edge_answer: f64, component_totals: &[f64]) -> f64 {
        let mut out = edge_answer;
        for &(c, coeff) in &self.constants {
            out += coeff * component_totals[c];
        }
        out
    }
}

/// The `P_G` matrix together with its grounding bookkeeping.
#[derive(Clone, Debug)]
pub struct Incidence {
    grounding: Grounding,
    /// Grounded edges, in the original graph's edge order.
    edges: Vec<GroundedEdge>,
    /// `P_G` in CSR form: `num_rows × num_edges`.
    p: SparseMatrix,
    /// The leaf-peeling order [`Incidence::solve_tree`] follows, derived
    /// once at construction; `None` when the grounded graph is not a
    /// forest of ⊥-rooted trees.
    tree_order: Option<Vec<(usize, usize)>>,
}

impl Incidence {
    /// Builds `P_G` for `graph`, grounding Case II/III components
    /// automatically (largest vertex of each ⊥-less component becomes ⊥).
    pub fn new(graph: &PolicyGraph) -> Result<Self, CoreError> {
        let grounding = Grounding::new(graph)?;
        Incidence::with_grounding(graph, grounding)
    }

    /// Builds `P_G` with an explicit grounding (e.g. a caller-chosen
    /// replacement vertex).
    pub fn with_grounding(graph: &PolicyGraph, grounding: Grounding) -> Result<Self, CoreError> {
        let mut edges = Vec::with_capacity(graph.num_edges());
        for e in graph.edges() {
            let grounded = match e.v {
                Vtx::Bottom => GroundedEdge {
                    u_row: grounding
                        .row_of(e.u)
                        .expect("⊥-edge endpoints are never replaced"),
                    v_row: None,
                },
                Vtx::Value(v) => match (grounding.row_of(e.u), grounding.row_of(v)) {
                    (Some(ur), Some(vr)) => GroundedEdge {
                        u_row: ur,
                        v_row: Some(vr),
                    },
                    (Some(ur), None) => GroundedEdge {
                        u_row: ur,
                        v_row: None,
                    },
                    (None, Some(vr)) => GroundedEdge {
                        u_row: vr,
                        v_row: None,
                    },
                    (None, None) => {
                        // Both endpoints replaced is impossible: one
                        // replacement per component and u ≠ v share one.
                        return Err(CoreError::InvalidEdge {
                            reason: "edge between two replaced vertices",
                        });
                    }
                },
            };
            edges.push(grounded);
        }
        let rows = grounding.num_rows();
        let mut b = TripletBuilder::new(rows, edges.len());
        for (j, e) in edges.iter().enumerate() {
            b.push(e.u_row, j, 1.0);
            if let Some(vr) = e.v_row {
                b.push(vr, j, -1.0);
            }
        }
        let p = b.build();
        let tree_order = tree_order(&p, &edges);
        Ok(Incidence {
            grounding,
            edges,
            p,
            tree_order,
        })
    }

    /// The grounding bookkeeping.
    pub fn grounding(&self) -> &Grounding {
        &self.grounding
    }

    /// `P_G` as a CSR matrix (`num_rows × num_edges`).
    pub fn matrix(&self) -> &SparseMatrix {
        &self.p
    }

    /// Number of rows (`|V| − #replaced`).
    pub fn num_rows(&self) -> usize {
        self.p.rows()
    }

    /// Number of columns (`|E|`).
    pub fn num_edges(&self) -> usize {
        self.p.cols()
    }

    /// Whether `P_G` is square — i.e. the grounded graph is a forest of
    /// ⊥-rooted trees, the regime of the strong Theorem 4.3 equivalence.
    pub fn is_tree(&self) -> bool {
        self.tree_order.is_some()
    }

    // ------------------------------------------------------------------
    // Query transformation (Case II rewrite + multiplication by P_G).
    // ------------------------------------------------------------------

    /// Transforms a query on the original domain into edge space.
    ///
    /// First applies the Case II rewrite `q′[j] = q[j] − q[v*_c]` inside
    /// every component `c` with replacement `v*_c` (Appendix D.1), then
    /// multiplies by `P_G`: the coefficient of edge `(u, v)` is
    /// `q′[u] − q′[v]` (just `q′[u]` for ⊥-edges), which is Lemma 5.1's
    /// boundary-edge structure for counting queries.
    pub fn transform_query(&self, q: &LinearQuery) -> Result<TransformedQuery, CoreError> {
        let k = self.grounding.row_of.len();
        if q.arity() != k {
            return Err(CoreError::DataShapeMismatch {
                domain_size: k,
                data_len: q.arity(),
            });
        }
        // Constants: coefficient of n_c is q[v*_c].
        let mut constants = Vec::new();
        let mut vstar_coeff = vec![0.0; self.grounding.num_components()];
        for (c, vc) in vstar_coeff.iter_mut().enumerate() {
            if let Some(vstar) = self.grounding.replacement(c) {
                let coeff = q.coeff(vstar);
                if coeff != 0.0 {
                    constants.push((c, coeff));
                }
                *vc = coeff;
            }
        }
        // Reduced coefficients r[row] = q[orig] − q[v*_component(orig)].
        // Evaluated lazily per edge endpoint to stay sparse-friendly.
        let reduced = |row: usize| -> f64 {
            let orig = self.grounding.orig_of(row);
            q.coeff(orig) - vstar_coeff[self.grounding.component_of(orig)]
        };
        let mut entries = Vec::new();
        for (j, e) in self.edges.iter().enumerate() {
            let c = match e.v_row {
                Some(vr) => reduced(e.u_row) - reduced(vr),
                None => reduced(e.u_row),
            };
            if c != 0.0 {
                entries.push((j, c));
            }
        }
        Ok(TransformedQuery {
            edge_query: LinearQuery::new(self.num_edges(), entries)?,
            constants,
        })
    }

    /// Transforms a whole workload. Returns the edge-space workload `W_G`
    /// and the per-query constant corrections.
    pub fn transform_workload(
        &self,
        w: &Workload,
    ) -> Result<(Workload, Vec<QueryConstants>), CoreError> {
        let mut queries = Vec::with_capacity(w.len());
        let mut constants = Vec::with_capacity(w.len());
        for q in w.queries() {
            let t = self.transform_query(q)?;
            queries.push(t.edge_query);
            constants.push(t.constants);
        }
        Ok((Workload::new(self.num_edges(), queries)?, constants))
    }

    // ------------------------------------------------------------------
    // Database transformation.
    // ------------------------------------------------------------------

    /// Drops the replaced entries of `x`, producing the reduced vector
    /// `x′ = x_{−v*}` indexed by matrix rows (Lemma 4.10's `x_{−v}`).
    pub fn reduce_database(&self, x: &DataVector) -> Result<Vec<f64>, CoreError> {
        if x.len() != self.grounding.row_of.len() {
            return Err(CoreError::DataShapeMismatch {
                domain_size: self.grounding.row_of.len(),
                data_len: x.len(),
            });
        }
        Ok(self
            .grounding
            .orig_of_row
            .iter()
            .map(|&u| x.get(u))
            .collect())
    }

    /// Per-component record totals `n_c` — the quantities the Case II/III
    /// reconstruction treats as public.
    pub fn component_totals(&self, x: &DataVector) -> Result<Vec<f64>, CoreError> {
        if x.len() != self.grounding.row_of.len() {
            return Err(CoreError::DataShapeMismatch {
                domain_size: self.grounding.row_of.len(),
                data_len: x.len(),
            });
        }
        let mut totals = vec![0.0; self.grounding.num_components()];
        for u in 0..x.len() {
            totals[self.grounding.component_of(u)] += x.get(u);
        }
        Ok(totals)
    }

    /// Rebuilds the full histogram from a reduced vector and component
    /// totals: `x[v*_c] = n_c − Σ_{j ∈ c, j ≠ v*_c} x[j]`.
    pub fn reconstruct_database(
        &self,
        reduced: &[f64],
        component_totals: &[f64],
    ) -> Result<Vec<f64>, CoreError> {
        if reduced.len() != self.num_rows() {
            return Err(CoreError::DataShapeMismatch {
                domain_size: self.num_rows(),
                data_len: reduced.len(),
            });
        }
        if component_totals.len() != self.grounding.num_components() {
            return Err(CoreError::DataShapeMismatch {
                domain_size: self.grounding.num_components(),
                data_len: component_totals.len(),
            });
        }
        let k = self.grounding.row_of.len();
        let mut x = vec![0.0; k];
        let mut remaining = component_totals.to_vec();
        for (row, &v) in reduced.iter().enumerate() {
            let orig = self.grounding.orig_of(row);
            x[orig] = v;
            remaining[self.grounding.component_of(orig)] -= v;
        }
        for (c, &rem) in remaining.iter().enumerate() {
            if let Some(vstar) = self.grounding.replacement(c) {
                x[vstar] = rem;
            }
        }
        Ok(x)
    }

    /// Applies `P_G`: maps an edge vector back to the reduced vertex space
    /// (`x′ = P_G · x_G`).
    pub fn apply(&self, x_g: &[f64]) -> Result<Vec<f64>, CoreError> {
        Ok(self.p.matvec(x_g)?)
    }

    // ------------------------------------------------------------------
    // Solving P_G · x_G = x′.
    // ------------------------------------------------------------------

    /// The unique solution of `P_G x_G = x′` when `G` is (grounded-)tree
    /// structured: O(k) leaf-peeling (subtree sums) in one pass over the
    /// stored peel order. Errors with [`CoreError::NotATree`] otherwise.
    pub fn solve_tree(&self, reduced: &[f64]) -> Result<Vec<f64>, CoreError> {
        if reduced.len() != self.num_rows() {
            return Err(CoreError::DataShapeMismatch {
                domain_size: self.num_rows(),
                data_len: reduced.len(),
            });
        }
        let order = self.tree_order.as_deref().ok_or(CoreError::NotATree)?;
        // `rhs[r]` is `x′[r]` minus the terms of row r's edges solved so
        // far; when row r is peeled, its one unsolved edge carries the rest.
        let mut rhs = reduced.to_vec();
        let mut x_g = vec![0.0; self.num_edges()];
        for &(r, j) in order {
            let e = self.edges[j];
            if r == e.u_row {
                // Row r holds +1 and the other endpoint, if any, −1.
                x_g[j] = rhs[r];
                if let Some(vr) = e.v_row {
                    rhs[vr] += x_g[j];
                }
            } else {
                x_g[j] = -rhs[r];
                rhs[e.u_row] -= x_g[j];
            }
        }
        Ok(x_g)
    }

    /// The grounded Laplacian `L = P_G P_Gᵀ` (SPD because every component
    /// is grounded through ⊥).
    pub fn laplacian(&self) -> SparseMatrix {
        let n = self.num_rows();
        let mut b = TripletBuilder::new(n, n);
        for e in &self.edges {
            b.push(e.u_row, e.u_row, 1.0);
            if let Some(vr) = e.v_row {
                b.push(vr, vr, 1.0);
                b.push(e.u_row, vr, -1.0);
                b.push(vr, e.u_row, -1.0);
            }
        }
        b.build()
    }
}

/// Peeling order for a square `P_G`: a sequence of `(row, edge)` pairs
/// such that when processed in order, each row has exactly one yet-unsolved
/// incident edge. `None` when the grounded graph is not a forest of
/// ⊥-rooted trees. (This is exactly the inductive argument in the proof of
/// Lemma D.2.) Row r's incident edges are the nonzeros of `P_G`'s row r.
fn tree_order(p: &SparseMatrix, edges: &[GroundedEdge]) -> Option<Vec<(usize, usize)>> {
    if p.rows() != p.cols() {
        return None;
    }
    let rows = p.rows();
    let mut unsolved: Vec<usize> = (0..rows).map(|r| p.row(r).count()).collect();
    let mut edge_done = vec![false; edges.len()];
    let mut row_done = vec![false; rows];
    let mut queue: Vec<usize> = (0..rows).filter(|&r| unsolved[r] == 1).collect();
    let mut order = Vec::with_capacity(rows);
    while let Some(r) = queue.pop() {
        if row_done[r] {
            continue;
        }
        // Find this row's single unsolved edge.
        let (j, _) = p.row(r).find(|&(j, _)| !edge_done[j])?;
        order.push((r, j));
        edge_done[j] = true;
        row_done[r] = true;
        let e = edges[j];
        for other in [Some(e.u_row), e.v_row].into_iter().flatten() {
            if !row_done[other] {
                unsolved[other] -= 1;
                if unsolved[other] == 1 {
                    queue.push(other);
                }
            }
        }
    }
    (order.len() == rows).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::policy::PolicyEdge;

    fn line_incidence(k: usize) -> Incidence {
        Incidence::new(&PolicyGraph::line(k).unwrap()).unwrap()
    }

    /// The vertices replaced by ⊥, sorted.
    fn replaced(g: &Grounding) -> Vec<usize> {
        let mut out: Vec<usize> = (0..g.num_components())
            .filter_map(|c| g.replacement(c))
            .collect();
        out.sort_unstable();
        out
    }

    /// The minimum-norm solution `x_G = P_Gᵀ (P_G P_Gᵀ)⁻¹ x′`, by a dense
    /// Cholesky of the grounded Laplacian.
    fn min_norm_x_g(inc: &Incidence, reduced: &[f64]) -> Vec<f64> {
        let l = blowfish_linalg::Cholesky::factor(&inc.laplacian().to_dense()).unwrap();
        let y = l.solve(reduced).unwrap();
        inc.matrix().matvec_transpose(&y).unwrap()
    }

    #[test]
    fn line_grounding_replaces_rightmost() {
        let inc = line_incidence(5);
        assert_eq!(replaced(inc.grounding()), &[4]);
        assert_eq!(inc.num_rows(), 4);
        assert_eq!(inc.num_edges(), 4);
        assert!(inc.is_tree());
    }

    #[test]
    fn figure2_matrix() {
        // Figure 2: the 3-value path with ⊥ at the right end yields
        // P = [[1,0,0],[-1,1,0],[0,-1,1]] (up to the paper's row/col
        // convention) whose inverse is the prefix-sum matrix.
        let inc = line_incidence(4); // 4 values, rightmost -> ⊥
        let p = inc.matrix().to_dense();
        assert_eq!(p.shape(), (3, 3));
        // Column j is edge (j, j+1): +1 at row j, −1 at row j+1 (except the
        // last edge (2, ⊥): +1 at row 2 only).
        assert_eq!(p[(0, 0)], 1.0);
        assert_eq!(p[(1, 0)], -1.0);
        assert_eq!(p[(1, 1)], 1.0);
        assert_eq!(p[(2, 1)], -1.0);
        assert_eq!(p[(2, 2)], 1.0);
    }

    #[test]
    fn tree_solve_gives_prefix_sums() {
        // Example 4.1: x_G = P⁻¹ x′ is the vector of prefix sums.
        let inc = line_incidence(5);
        let x = DataVector::new(Domain::one_dim(5), vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let reduced = inc.reduce_database(&x).unwrap();
        assert_eq!(reduced, vec![1.0, 2.0, 3.0, 4.0]);
        let x_g = inc.solve_tree(&reduced).unwrap();
        assert_eq!(x_g, vec![1.0, 3.0, 6.0, 10.0]);
        // P x_G = x′ round-trips.
        let back = inc.apply(&x_g).unwrap();
        for (a, b) in back.iter().zip(&reduced) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn star_policy_is_identity() {
        // Unbounded DP: P_G = I_k (each value has exactly a ⊥-edge).
        let inc = Incidence::new(&PolicyGraph::star(4).unwrap()).unwrap();
        assert!(replaced(inc.grounding()).is_empty());
        assert!(inc.is_tree());
        let p = inc.matrix().to_dense();
        assert!(p.approx_eq(&blowfish_linalg::Matrix::identity(4), 0.0));
        let x_g = inc.solve_tree(&[5.0, 6.0, 7.0, 8.0]).unwrap();
        assert_eq!(x_g, vec![5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn transform_range_query_is_boundary_difference() {
        // Under the line policy, a range query [l, r] transforms to
        // (at most) two nonzero edge coefficients — Figure 4.
        let inc = line_incidence(6);
        let q = LinearQuery::range(6, 2, 4).unwrap();
        let t = inc.transform_query(&q).unwrap();
        // Edges are (0,1),(1,2),(2,3),(3,4),(4,⊥→5). Boundary edges of
        // [2,4]: (1,2) with one endpoint inside, and (4,5)≡(4,⊥).
        assert_eq!(t.edge_query.nnz(), 2);
        assert_eq!(t.edge_query.coeff(1), -1.0); // edge (1,2): q'(1)-q'(2) = 0-1
        assert_eq!(t.edge_query.coeff(4), 1.0); // edge (4,⊥): q'(4) = 1
        assert!(t.constants.is_empty()); // range avoids v* = 5
    }

    #[test]
    fn transform_query_touching_vstar_carries_constant() {
        let inc = line_incidence(4);
        // q = x[3] (the replaced vertex): q' = -1 on all others, c = n.
        let q = LinearQuery::point(4, 3).unwrap();
        let t = inc.transform_query(&q).unwrap();
        assert_eq!(t.constants, vec![(0, 1.0)]);
        // Check numerically on a database.
        let x = DataVector::new(Domain::one_dim(4), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let x_g = inc.solve_tree(&inc.reduce_database(&x).unwrap()).unwrap();
        let edge_ans = t.edge_query.answer(&x_g).unwrap();
        let totals = inc.component_totals(&x).unwrap();
        assert!((t.reconstruct(edge_ans, &totals) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn workload_transform_preserves_answers() {
        // Wx = W_G x_G + constants for every query (the heart of the
        // transformational equivalence).
        let k = 8;
        let g = PolicyGraph::theta_line(k, 2).unwrap();
        let inc = Incidence::new(&g).unwrap();
        let w = Workload::all_ranges_1d(k);
        let x = DataVector::new(
            Domain::one_dim(k),
            vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
        )
        .unwrap();
        let reduced = inc.reduce_database(&x).unwrap();
        let x_g = min_norm_x_g(&inc, &reduced);
        let totals = inc.component_totals(&x).unwrap();
        let (wg, consts) = inc.transform_workload(&w).unwrap();
        let truth = w.answer(x.counts()).unwrap();
        for (i, q) in wg.queries().iter().enumerate() {
            let mut ans = q.answer(&x_g).unwrap();
            for &(c, coeff) in &consts[i] {
                ans += coeff * totals[c];
            }
            assert!(
                (ans - truth[i]).abs() < 1e-8,
                "query {i}: {ans} vs {}",
                truth[i]
            );
        }
    }

    #[test]
    fn any_particular_solution_gives_the_same_answers() {
        // θ-line is not a tree, so P_G x_G = x′ has many solutions. Adding
        // a circulation c (P_G c = 0) to the min-norm one changes no
        // transformed answer: every q_G = q′·P_G lies in the row space of
        // P_G, which is orthogonal to c.
        let k = 8;
        let inc = Incidence::new(&PolicyGraph::theta_line(k, 2).unwrap()).unwrap();
        assert!(!inc.is_tree());
        let x = DataVector::new(
            Domain::one_dim(k),
            vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
        )
        .unwrap();
        let reduced = inc.reduce_database(&x).unwrap();
        let x_g = min_norm_x_g(&inc, &reduced);
        // Signed indicator of the triangle 0 → 1 → 2 → 0.
        let mut c = vec![0.0; inc.num_edges()];
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            let (j, e) = inc
                .edges
                .iter()
                .enumerate()
                .find(|(_, e)| {
                    (e.u_row, e.v_row) == (a, Some(b)) || (e.u_row, e.v_row) == (b, Some(a))
                })
                .unwrap();
            c[j] = if e.u_row == a { 5.0 } else { -5.0 };
        }
        assert!(inc.apply(&c).unwrap().iter().all(|&v| v == 0.0));
        let other: Vec<f64> = x_g.iter().zip(&c).map(|(a, b)| a + b).collect();
        for (a, b) in inc.apply(&other).unwrap().iter().zip(&reduced) {
            assert!((a - b).abs() < 1e-9);
        }
        let (wg, _) = inc.transform_workload(&Workload::all_ranges_1d(k)).unwrap();
        for q in wg.queries() {
            let (a, b) = (q.answer(&x_g).unwrap(), q.answer(&other).unwrap());
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn min_norm_solution_on_grid() {
        let d = Domain::square(5);
        let g = PolicyGraph::distance_threshold(d.clone(), 1).unwrap();
        let inc = Incidence::new(&g).unwrap();
        assert!(!inc.is_tree());
        let counts: Vec<f64> = (0..25).map(|i| (i % 7) as f64).collect();
        let x = DataVector::new(d, counts).unwrap();
        let reduced = inc.reduce_database(&x).unwrap();
        let x_g = min_norm_x_g(&inc, &reduced);
        let back = inc.apply(&x_g).unwrap();
        for (a, b) in back.iter().zip(&reduced) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn disconnected_case_iii() {
        // Two components: {0,1} and {2,3}, each a single edge; both lack ⊥.
        let d = Domain::one_dim(4);
        let edges = vec![
            PolicyEdge::new(Vtx::Value(0), Vtx::Value(1)).unwrap(),
            PolicyEdge::new(Vtx::Value(2), Vtx::Value(3)).unwrap(),
        ];
        let g = PolicyGraph::from_edges(d.clone(), edges, "2comp").unwrap();
        let inc = Incidence::new(&g).unwrap();
        // One replacement per component: vertices 1 and 3.
        assert_eq!(replaced(inc.grounding()), &[1, 3]);
        assert_eq!(inc.num_rows(), 2);
        assert_eq!(inc.num_edges(), 2);
        assert!(inc.is_tree());

        let x = DataVector::new(d, vec![5.0, 3.0, 2.0, 7.0]).unwrap();
        let totals = inc.component_totals(&x).unwrap();
        assert_eq!(totals, vec![8.0, 9.0]);
        // Identity workload answers reconstruct exactly.
        let w = Workload::identity(4);
        let (wg, consts) = inc.transform_workload(&w).unwrap();
        let reduced = inc.reduce_database(&x).unwrap();
        let x_g = inc.solve_tree(&reduced).unwrap();
        let truth = w.answer(x.counts()).unwrap();
        for i in 0..4 {
            let mut ans = wg.queries()[i].answer(&x_g).unwrap();
            for &(c, coeff) in &consts[i] {
                ans += coeff * totals[c];
            }
            assert!((ans - truth[i]).abs() < 1e-10);
        }
        // Database reconstruction round-trips.
        let rec = inc.reconstruct_database(&reduced, &totals).unwrap();
        assert_eq!(rec, x.counts());
    }

    #[test]
    fn isolated_vertex_is_fully_disclosed() {
        // A value with no policy edges has no indistinguishability
        // requirement: its count becomes a public component total
        // (Appendix E exact-disclosure semantics).
        let d = Domain::one_dim(3);
        let edges = vec![PolicyEdge::new(Vtx::Value(0), Vtx::Value(1)).unwrap()];
        let g = PolicyGraph::from_edges(d.clone(), edges, "isolated").unwrap();
        let inc = Incidence::new(&g).unwrap();
        // Components {0,1} and {2}; replacements 1 and 2.
        assert_eq!(replaced(inc.grounding()), &[1, 2]);
        let x = DataVector::new(d, vec![4.0, 2.0, 9.0]).unwrap();
        let totals = inc.component_totals(&x).unwrap();
        assert_eq!(totals, vec![6.0, 9.0]);
        // A query on the isolated value is answered exactly from n_2.
        let q = LinearQuery::point(3, 2).unwrap();
        let t = inc.transform_query(&q).unwrap();
        assert_eq!(t.edge_query.nnz(), 0);
        assert_eq!(t.reconstruct(0.0, &totals), 9.0);
    }

    #[test]
    fn non_tree_solve_tree_errors() {
        let g = PolicyGraph::theta_line(5, 2).unwrap();
        let inc = Incidence::new(&g).unwrap();
        assert!(!inc.is_tree());
        assert!(matches!(
            inc.solve_tree(&vec![0.0; inc.num_rows()]),
            Err(CoreError::NotATree)
        ));
    }

    #[test]
    fn custom_grounding_candidate() {
        let g = PolicyGraph::line(5).unwrap();
        let grounding = Grounding::with_candidates(&g, &[0]).unwrap();
        assert_eq!(replaced(&grounding), &[0]);
        let inc = Incidence::with_grounding(&g, grounding).unwrap();
        assert!(inc.is_tree());
        // Now x_G should be suffix sums instead of prefix sums.
        let x = DataVector::new(Domain::one_dim(5), vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let x_g = inc.solve_tree(&inc.reduce_database(&x).unwrap()).unwrap();
        // Edge (0,1) now carries -(x1+x2+x3+x4) = -(14): sign depends on
        // orientation (+1 at the lower id = the replaced side is ⊥).
        // Just verify P x_G = x′.
        let back = inc.apply(&x_g).unwrap();
        let reduced = inc.reduce_database(&x).unwrap();
        for (a, b) in back.iter().zip(&reduced) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn complete_graph_bounded_dp() {
        let g = PolicyGraph::complete(4).unwrap();
        let inc = Incidence::new(&g).unwrap();
        assert_eq!(inc.num_rows(), 3);
        assert_eq!(inc.num_edges(), 6);
        assert!(!inc.is_tree());
        // min-norm solution still satisfies P x_G = x′.
        let x = DataVector::new(Domain::one_dim(4), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let reduced = inc.reduce_database(&x).unwrap();
        let x_g = min_norm_x_g(&inc, &reduced);
        let back = inc.apply(&x_g).unwrap();
        for (a, b) in back.iter().zip(&reduced) {
            assert!((a - b).abs() < 1e-8);
        }
    }
}
