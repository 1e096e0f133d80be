//! # blowfish-core
//!
//! The core of the `blowfish-privacy` workspace: a faithful implementation
//! of the Blowfish policy framework and the **transformational equivalence**
//! machinery of *Haney, Machanavajjhala & Ding, "Design of Policy-Aware
//! Differentially Private Algorithms" (VLDB 2015)*.
//!
//! ## What lives here
//!
//! * [`domain`] / [`database`] / [`query`] / [`workload`] — the Section 2
//!   data model: histogram vectors `x`, sparse linear queries, and the
//!   workloads `I_k`, `C_k`, `R_k`, `R_{k^d}` (Figure 1, Section 5.1).
//! * [`policy`] — policy graphs `G = (V, E)` over `T ∪ {⊥}`
//!   (Definition 3.1) with the families studied in the paper: line,
//!   distance-threshold `G^θ_{k^d}` (grid), complete (bounded DP), star
//!   (unbounded DP), cycle, and sensitive-attribute policies (Appendix E).
//! * [`incidence`] — the transformation matrix `P_G` (Section 4.4) with the
//!   Case I/II/III constructions, query transformation `W → W_G = W·P_G`
//!   (with Case II constant corrections), and database transformation
//!   `x → x_G` (exact O(k) tree solve, min-norm CG solve, and spanning-tree
//!   particular solutions).
//! * [`sensitivity`] — Definitions 2.3/4.1 and the Lemma 4.7 equality
//!   `Δ_W(G) = Δ_{W_G}`.
//! * [`neighbors`] — DP and Blowfish neighbor enumeration (Definitions 2.1,
//!   3.2), powering statistical privacy checks.
//! * [`spanner`] — subgraph approximation (Lemma 4.5): the `H^θ_k` and
//!   `H^θ_{k²}` spanners of Section 5.3 with certified stretch, plus
//!   generic BFS spanning trees.
//! * [`accounting`] — ε/δ budgets, composition, and stretch scaling
//!   (Corollary 4.6).
//! * [`error_measure`] — the Definition 2.4 mean-squared-error-per-query
//!   harness used by all experiments.
//!
//! ## Quick example
//!
//! ```
//! use blowfish_core::prelude::*;
//!
//! // The line policy over an 8-value ordered domain (salary bins, say).
//! let policy = PolicyGraph::line(8).unwrap();
//! let pg = Incidence::new(&policy).unwrap();
//!
//! // A database and the full 1-D range workload.
//! let x = DataVector::new(Domain::one_dim(8), vec![5.0, 3.0, 0.0, 2.0, 9.0, 1.0, 4.0, 6.0]).unwrap();
//! let w = Workload::all_ranges_1d(8);
//!
//! // Transformational equivalence: answers agree in vertex and edge space.
//! let x_g = pg.solve_tree(&pg.reduce_database(&x).unwrap()).unwrap();
//! let totals = pg.component_totals(&x).unwrap();
//! let t = pg.transform_query(w.query(0)).unwrap();
//! let edge_answer = t.edge_query.answer(&x_g).unwrap();
//! assert_eq!(t.reconstruct(edge_answer, &totals), w.query(0).answer(x.counts()).unwrap());
//! ```

pub mod accounting;
pub mod database;
pub mod domain;
pub mod error_measure;
pub mod incidence;
pub mod metric;
pub mod neighbors;
pub mod policy;
pub mod query;
pub mod sensitivity;
pub mod spanner;
pub mod workload;

pub use accounting::{
    overdraw_slack, AccountSnapshot, BudgetDistribution, Charge, Delta, DurabilityStats, Epsilon,
    FsyncPolicy, Ledger, LedgerDurability, RecoveryReport, WalTail, LEDGER_STRIPES,
};
pub use database::DataVector;
pub use domain::Domain;
pub use error_measure::{measure_error, mse_per_query, ErrorReport};
pub use incidence::{GroundedEdge, Grounding, Incidence, TransformedQuery};
pub use metric::PolicyMetric;
pub use neighbors::{
    are_blowfish_neighbors, blowfish_neighbors, dp_neighbors_unbounded, l1_distance,
};
pub use policy::{PolicyEdge, PolicyGraph, Vtx};
pub use query::LinearQuery;
pub use sensitivity::{l1_sensitivity_bounded, l1_sensitivity_unbounded, policy_sensitivity};
pub use spanner::{
    bfs_spanning_tree, theta_grid_spanner, theta_line_spanner, ThetaGridSpanner, ThetaLineSpanner,
};
pub use workload::{
    all_range_specs, random_range_specs, range_gram, range_gram_1d, sample_query, sample_query_mix,
    QueryKind, QueryMix, RangeQuery, Workload,
};

/// One-stop imports for downstream crates and examples.
pub mod prelude {
    pub use crate::accounting::{Charge, Delta, Epsilon, Ledger};
    pub use crate::database::DataVector;
    pub use crate::domain::Domain;
    pub use crate::error_measure::{measure_error, mse_per_query, ErrorReport};
    pub use crate::incidence::{Incidence, TransformedQuery};
    pub use crate::policy::{PolicyEdge, PolicyGraph, Vtx};
    pub use crate::query::LinearQuery;
    pub use crate::workload::{RangeQuery, Workload};
}

/// Errors reported by the core crate.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// A domain must have at least one dimension and one value.
    EmptyDomain,
    /// The product of dimension sizes overflowed.
    DomainTooLarge,
    /// Wrong number of coordinates/dimensions.
    DimensionMismatch {
        /// Expected dimension count.
        expected: usize,
        /// Received dimension count.
        got: usize,
    },
    /// A coordinate exceeded its dimension size.
    CoordinateOutOfRange {
        /// The offending coordinate.
        coord: usize,
        /// The dimension (or domain) size it must stay below.
        dim_size: usize,
    },
    /// Vector length does not match the domain size.
    DataShapeMismatch {
        /// The required length.
        domain_size: usize,
        /// The received length.
        data_len: usize,
    },
    /// A query referenced an index outside its arity.
    QueryIndexOutOfRange {
        /// The query arity.
        arity: usize,
    },
    /// An invalid range `[l, r]` was requested.
    InvalidRange {
        /// Lower bound.
        l: usize,
        /// Upper bound.
        r: usize,
        /// Domain size.
        arity: usize,
    },
    /// An invalid policy edge (self-loop, ⊥–⊥, duplicate, out of range).
    InvalidEdge {
        /// Why the edge was rejected.
        reason: &'static str,
    },
    /// θ must be at least 1 (and compatible with the domain for spanners).
    InvalidTheta {
        /// The rejected θ.
        theta: usize,
    },
    /// The policy graph has no edges.
    EmptyPolicy,
    /// A vertex with no incident edge makes `P_G` rank-deficient: the
    /// policy provides no guarantee for that value.
    IsolatedVertex,
    /// A tree-only operation was invoked on a non-tree policy.
    NotATree,
    /// The grounded graph failed to reach every vertex from ⊥.
    NotConnectedToBottom,
    /// ε must be positive and finite.
    InvalidEpsilon {
        /// The rejected value.
        eps: f64,
    },
    /// δ must lie in (0, 1).
    InvalidDelta {
        /// The rejected value.
        delta: f64,
    },
    /// A multi-tenant [`Ledger`] charge would exceed the tenant's
    /// cumulative budget; the account was left untouched.
    BudgetExhausted {
        /// The tenant whose account rejected the charge.
        tenant: String,
        /// The tenant's registered total budget.
        total: f64,
        /// Spend already accumulated (unchanged by this rejection).
        spent: f64,
        /// The ε the rejected charge requested.
        requested: f64,
    },
    /// A [`Ledger`] operation referenced an unregistered tenant.
    UnknownTenant {
        /// The unregistered tenant id.
        tenant: String,
    },
    /// A [`Ledger::open`] call reused an already-registered tenant id.
    DuplicateTenant {
        /// The already-registered tenant id.
        tenant: String,
    },
    /// A malformed [`Ledger`] charge (empty parallel group, zero
    /// stretch) — distinct from [`CoreError::InvalidEpsilon`], which is
    /// about the ε value itself.
    InvalidCharge {
        /// Why the charge was rejected.
        reason: &'static str,
    },
    /// A durability I/O operation (WAL append/fsync, snapshot write,
    /// state-directory access) failed. The durable ledger fail-stops on
    /// write failures rather than acknowledging charges it cannot log.
    Durability {
        /// The operation that failed (e.g. `"append wal"`).
        op: &'static str,
        /// The file or directory involved.
        path: String,
        /// The underlying OS error.
        detail: String,
    },
    /// A persisted ledger image (snapshot or WAL header) failed
    /// validation and cannot be trusted. Recovery refuses to proceed —
    /// serving from a damaged base image could silently reset budgets,
    /// which is exactly the privacy violation durability exists to
    /// prevent. (A torn WAL *tail* is not this error: the valid prefix
    /// is recovered and the tail reported as a warning.)
    CorruptState {
        /// Which artifact failed validation (e.g. `"snapshot"`).
        what: String,
        /// What failed about it.
        detail: String,
    },
    /// An underlying linear-algebra failure.
    Linalg(blowfish_linalg::LinalgError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::EmptyDomain => write!(f, "domain must be non-empty"),
            CoreError::DomainTooLarge => write!(f, "domain size overflows usize"),
            CoreError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} dimensions, got {got}")
            }
            CoreError::CoordinateOutOfRange { coord, dim_size } => {
                write!(f, "coordinate {coord} out of range (size {dim_size})")
            }
            CoreError::DataShapeMismatch {
                domain_size,
                data_len,
            } => write!(f, "expected length {domain_size}, got {data_len}"),
            CoreError::QueryIndexOutOfRange { arity } => {
                write!(f, "query index out of range (arity {arity})")
            }
            CoreError::InvalidRange { l, r, arity } => {
                write!(f, "invalid range [{l}, {r}] over {arity} values")
            }
            CoreError::InvalidEdge { reason } => write!(f, "invalid policy edge: {reason}"),
            CoreError::InvalidTheta { theta } => write!(f, "invalid θ = {theta}"),
            CoreError::EmptyPolicy => write!(f, "policy graph has no edges"),
            CoreError::IsolatedVertex => {
                write!(
                    f,
                    "policy graph has an isolated vertex (P_G would be rank-deficient)"
                )
            }
            CoreError::NotATree => write!(f, "operation requires a tree policy graph"),
            CoreError::NotConnectedToBottom => {
                write!(f, "grounded policy graph is not connected through ⊥")
            }
            CoreError::InvalidEpsilon { eps } => write!(f, "invalid ε = {eps}"),
            CoreError::InvalidDelta { delta } => write!(f, "invalid δ = {delta}"),
            CoreError::BudgetExhausted {
                tenant,
                total,
                spent,
                requested,
            } => write!(
                f,
                "budget exhausted for tenant {tenant}: spent {spent} of {total}, requested {requested}"
            ),
            CoreError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            CoreError::DuplicateTenant { tenant } => {
                write!(f, "tenant {tenant} is already registered")
            }
            CoreError::InvalidCharge { reason } => write!(f, "invalid charge: {reason}"),
            CoreError::Durability { op, path, detail } => {
                write!(f, "durability failure ({op} on {path}): {detail}")
            }
            CoreError::CorruptState { what, detail } => {
                write!(f, "corrupt ledger state ({what}): {detail}")
            }
            CoreError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<blowfish_linalg::LinalgError> for CoreError {
    fn from(e: blowfish_linalg::LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let cases: Vec<CoreError> = vec![
            CoreError::EmptyDomain,
            CoreError::DimensionMismatch {
                expected: 2,
                got: 1,
            },
            CoreError::InvalidRange {
                l: 3,
                r: 1,
                arity: 4,
            },
            CoreError::NotATree,
            CoreError::InvalidEpsilon { eps: -1.0 },
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn linalg_errors_convert() {
        let le = blowfish_linalg::LinalgError::RaggedRows;
        let ce: CoreError = le.into();
        assert!(matches!(ce, CoreError::Linalg(_)));
        assert!(std::error::Error::source(&ce).is_some());
    }
}
