//! # blowfish-privacy
//!
//! A production-quality Rust implementation of **policy-aware
//! differentially private algorithms** — a full reproduction of
//! *Samuel Haney, Ashwin Machanavajjhala & Bolin Ding, "Design of
//! Policy-Aware Differentially Private Algorithms", VLDB 2015*
//! (arXiv:1404.3722).
//!
//! The Blowfish framework generalizes differential privacy through a
//! **policy graph** `G` over the data domain: an edge `(u, v)` says an
//! adversary must not distinguish a record with value `u` from one with
//! value `v`. The paper's central result — *transformational equivalence*
//! — converts `(ε, G)`-Blowfish query answering into ordinary ε-DP query
//! answering on a linearly transformed workload/database pair
//! `(W·P_G, P_G⁻¹·x)`, unlocking the entire DP algorithm literature for
//! policy-aware mechanisms.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`linalg`] — dense/sparse linear algebra built from scratch
//!   (Cholesky, LU, symmetric eigensolvers, SVD, CG).
//! * [`core`] — domains, workloads, policy graphs, the `P_G`
//!   transformation (Cases I/II/III), sensitivities, spanners, neighbor
//!   enumeration, error measurement, and the durable multi-tenant ε
//!   [`Ledger`](core::Ledger).
//! * [`mechanisms`] — Laplace, matrix mechanism (dense reference + CSR
//!   with a cached factorization), hierarchical (Hay), Privelet
//!   (1-D/d-D, planned via `HaarPlan`), DAWA, isotonic consistency, and
//!   the Theorem 4.4 graph-distance witness distribution.
//! * [`strategies`] — the Section-5 policy-aware algorithms (line, θ-line,
//!   grid, θ-grid), ε/2-DP baselines, the Appendix-A SVD lower bounds,
//!   and the object-safe [`Mechanism`](strategies::Mechanism) trait +
//!   [`Estimate`](strategies::Estimate) every algorithm is served through.
//! * [`engine`] — the serving stack: the
//!   [`MechanismSpec`](engine::MechanismSpec) registry, the lock-striped
//!   [`PlanCache`](engine::PlanCache) of per-policy artifacts (incidence,
//!   spanners, Haar plans, matrix-mechanism plans), the
//!   [`Session`](engine::Session)/planner serving fitted
//!   [`Estimate`](strategies::Estimate)s at O(1) per range query, and the
//!   concurrent budget-metered multi-tenant
//!   [`Service`](engine::Service) with its versioned newline-delimited
//!   [`wire`](engine::wire) protocol (`blowfish/1`, typed
//!   [`Codec`](engine::Codec)) and the epoll
//!   [`TcpServer`](engine::TcpServer) front end (the `blowfish-serve`
//!   bin: stdin/stdout everywhere, `--tcp` on Linux).
//! * [`data`] — synthetic Table-1 datasets.
//!
//! ## Quickstart
//!
//! ```
//! use blowfish_privacy::prelude::*;
//! use rand::SeedableRng;
//!
//! // A salary histogram over 16 ordered bins; the line policy protects
//! // adjacent bins (coarse salary is public, precise salary is private).
//! let x = DataVector::new(
//!     Domain::one_dim(16),
//!     vec![5., 9., 14., 21., 30., 41., 33., 25., 18., 12., 8., 5., 3., 2., 1., 1.],
//! ).unwrap();
//!
//! let eps = Epsilon::new(0.5).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // (ε, G¹)-Blowfish release: Θ(1/ε²) per range query (Theorem 5.2),
//! // versus O(log³k/ε²) for the best ε-DP baseline.
//! let estimate = line_blowfish_histogram(&x, eps, TreeEstimator::Laplace, &mut rng).unwrap();
//! assert_eq!(estimate.len(), 16);
//! // Totals are preserved exactly (the policy treats n as public).
//! assert!((estimate.iter().sum::<f64>() - x.total()).abs() < 1e-9);
//! ```
//!
//! See the `examples/` directory for complete scenarios (location privacy
//! on grids, salary histograms with consistency, policy exploration, lower
//! bounds) and DESIGN.md / EXPERIMENTS.md for the experiment index.

pub use blowfish_core as core;
pub use blowfish_data as data;
pub use blowfish_engine as engine;
pub use blowfish_linalg as linalg;
pub use blowfish_mechanisms as mechanisms;
pub use blowfish_strategies as strategies;

/// One-stop imports for applications.
pub mod prelude {
    pub use blowfish_core::{
        are_blowfish_neighbors, blowfish_neighbors, measure_error, mse_per_query, Charge,
        DataVector, Delta, Domain, Epsilon, Incidence, Ledger, LinearQuery, PolicyEdge,
        PolicyGraph, RangeQuery, Vtx, Workload,
    };
    pub use blowfish_data::{dataset, DatasetId};
    pub use blowfish_engine::{
        fit_cells, fit_cells_serial, parallel_map, Codec, FitCell, Fitted, MatrixStrategyKind,
        MechanismSpec, NetConfig, NetStats, Plan, PlanCache, Policy, Request, Response, Service,
        Session, Task, TcpServer, TenantConfig, TenantStats, WireError, PROTOCOL_VERSION,
    };
    pub use blowfish_mechanisms::{
        dawa_histogram, hierarchical_histogram, isotonic_non_decreasing, laplace_histogram,
        privelet_histogram, privelet_histogram_1d, privelet_histogram_planned, DawaOptions,
        HaarPlan, MatrixMechanism,
    };
    pub use blowfish_strategies::{
        answer_ranges_1d, answer_ranges_2d, dp_dawa_1d, dp_laplace, dp_privelet_1d, dp_privelet_nd,
        grid_blowfish_histogram, line_blowfish_histogram, svd_lower_bound,
        svd_lower_bound_unbounded_dp, true_ranges_1d, true_ranges_2d, Estimate, Mechanism,
        ThetaEstimator, ThetaGridStrategy, ThetaLineStrategy, TreeEstimator,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let g = PolicyGraph::line(4).unwrap();
        assert_eq!(g.num_edges(), 3);
        let w = Workload::identity(4);
        assert_eq!(w.len(), 4);
    }
}
