//! # blowfish-strategies
//!
//! The policy-aware mechanisms of Section 5 of *Haney, Machanavajjhala &
//! Ding, "Design of Policy-Aware Differentially Private Algorithms"
//! (VLDB 2015)*, built on the transformational-equivalence machinery of
//! `blowfish-core` and the DP substrates of `blowfish-mechanisms`:
//!
//! * [`line1d`] — Algorithm 1 for `R_k` under `G¹_k` (Θ(1/ε²) per query,
//!   Theorem 5.2) plus the Section 5.4 data-dependent variants
//!   (`Transformed + ConsistentEst`, `Trans + DAWA (+ Cons)`).
//! * [`theta_line`] — `R_k` under `G^θ_k` via the `H^θ_k` spanner
//!   (Theorem 5.5: `O(log³θ/ε²)`).
//! * [`grid`] — `R_{k²}` under `G¹_{k²}` via per-edge-row Privelet
//!   (Theorem 5.4; the paper's `Transformed + Privelet`).
//! * [`theta_grid`] — `R_{k²}` under `G^θ_{k²}` via the internal/external
//!   edge split of Figure 7 (Theorem 5.6).
//! * [`baselines`] — the ε/2-DP comparison algorithms of Section 6
//!   (Laplace, Privelet 1-D/2-D, DAWA 1-D/2-D).
//! * [`lower_bounds`] — the Appendix A / Corollary A.2 SVD lower bounds
//!   (Figure 10), with an O(k³) eigenvalue path valid for every policy.
//! * [`answering`] — O(1)-per-query bulk range answering from histogram
//!   estimates (prefix sums / summed-area tables).
//!
//! Every strategy returns a histogram estimate `x̂` over the original
//! domain; by the identity `Σ_{v∈box} (P_G·x̃_G)[v] = q_G·x̃_G` this is
//! exactly equivalent to answering transformed queries in edge space (see
//! DESIGN.md §6), while making 10,000-query workloads O(1) per query.

pub mod answering;
pub mod baselines;
pub mod grid;
pub mod line1d;
pub mod lower_bounds;
pub mod mechanism;
pub mod theta_grid;
pub mod theta_line;

pub use answering::{answer_ranges_1d, answer_ranges_2d, true_ranges_1d, true_ranges_2d};
pub use baselines::{
    dp_dawa_1d, dp_dawa_2d, dp_laplace, dp_privelet_1d, dp_privelet_nd, DawaBaseline1d,
    DawaBaseline2d, LaplaceBaseline, PriveletBaseline1d, PriveletBaselineNd,
};
pub use grid::{grid_blowfish_histogram, grid_error_order, GridMechanism, GridPlans};
pub use line1d::{
    line_blowfish_histogram, line_range_error, tree_blowfish_histogram, LineMechanism,
    TreeEstimator, TreeMechanism,
};
pub use lower_bounds::{p_eps_delta, svd_lower_bound, svd_lower_bound_unbounded_dp};
pub use mechanism::{Estimate, Mechanism};
pub use theta_grid::{theta_grid_error_order, ThetaGridMechanism, ThetaGridStrategy};
pub use theta_line::{
    theta_line_error_order, ThetaEstimator, ThetaLineMechanism, ThetaLineStrategy,
};

/// Errors reported by strategy construction or execution.
#[derive(Clone, Debug, PartialEq)]
pub enum StrategyError {
    /// A query/domain/parameter combination was invalid.
    BadQuery {
        /// What was wrong.
        what: &'static str,
    },
    /// An error from the core crate.
    Core(blowfish_core::CoreError),
    /// An error from a mechanism substrate.
    Mechanism(blowfish_mechanisms::MechanismError),
    /// An error from the linear-algebra substrate.
    Linalg(blowfish_linalg::LinalgError),
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::BadQuery { what } => write!(f, "bad query/parameters: {what}"),
            StrategyError::Core(e) => write!(f, "core error: {e}"),
            StrategyError::Mechanism(e) => write!(f, "mechanism error: {e}"),
            StrategyError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for StrategyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StrategyError::Core(e) => Some(e),
            StrategyError::Mechanism(e) => Some(e),
            StrategyError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<blowfish_core::CoreError> for StrategyError {
    fn from(e: blowfish_core::CoreError) -> Self {
        StrategyError::Core(e)
    }
}

impl From<blowfish_mechanisms::MechanismError> for StrategyError {
    fn from(e: blowfish_mechanisms::MechanismError) -> Self {
        StrategyError::Mechanism(e)
    }
}

impl From<blowfish_linalg::LinalgError> for StrategyError {
    fn from(e: blowfish_linalg::LinalgError) -> Self {
        StrategyError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let e = StrategyError::BadQuery { what: "test" };
        assert!(e.to_string().contains("test"));
        let e: StrategyError = blowfish_core::CoreError::EmptyDomain.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: StrategyError =
            blowfish_mechanisms::MechanismError::StrategyDoesNotSupportWorkload.into();
        assert!(e.to_string().contains("mechanism"));
        let e: StrategyError = blowfish_linalg::LinalgError::RaggedRows.into();
        assert!(e.to_string().contains("linear algebra"));
    }
}
