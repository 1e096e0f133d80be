//! # blowfish-mechanisms
//!
//! Differentially private mechanism substrates for the `blowfish-privacy`
//! workspace — every building block the paper (*Haney, Machanavajjhala &
//! Ding, VLDB 2015*) composes its policy-aware strategies from, implemented
//! from scratch:
//!
//! * [`noise`] — seeded Laplace / two-sided-geometric samplers.
//! * [`laplace`](mod@laplace) — the Laplace mechanism (Theorem 2.1) with
//!   analytic error.
//! * [`exponential`] — the exact output distribution of the
//!   graph-distance mechanism witnessing the Theorem 4.4 negative result.
//! * [`matrix`] — the matrix mechanism framework (Li et al. \[15\], Eq. 2)
//!   with identity / hierarchical / wavelet strategy matrices.
//! * [`sparse_matrix`] — the same framework over CSR strategies with the
//!   pseudoinverse *applied* per release by a [`GramSolver`]: a cached
//!   sparse Cholesky factor of `AᵀA` where its budget cascade allows,
//!   preconditioned CG otherwise (O(nnz) memory; the engine's serving
//!   path at every k).
//! * [`hierarchical`] — the Hay et al. \[10\] binary-tree estimator with
//!   weighted least-squares consistency.
//! * [`privelet`] — Privelet \[20\]: Haar wavelet noise in 1 and d
//!   dimensions (`O(log³k/ε²)` per range query), the paper's data-oblivious
//!   DP baseline.
//! * [`dawa`] — DAWA \[14\] in the three-step form the paper describes
//!   (private partition → noisy bucket totals → uniform spread), the
//!   paper's data-dependent DP baseline.
//! * [`consistency`] — isotonic regression (PAVA) for the
//!   `Transformed + ConsistentEst` estimator of Section 5.4.2.
//!
//! All mechanisms take an explicit `&mut impl Rng`, so experiments are
//! reproducible bit-for-bit from a seed.

pub mod consistency;
pub mod dawa;
pub mod exponential;
pub mod hierarchical;
pub mod laplace;
pub mod matrix;
pub mod noise;
pub mod privelet;
pub mod sparse_matrix;

pub use consistency::{
    consistent_prefix_estimate, isotonic_non_decreasing, isotonic_non_decreasing_with_floor,
};
pub use dawa::{dawa_histogram, optimal_partition, DawaOptions};
pub use exponential::graph_distance_distribution;
pub use hierarchical::{hierarchical_histogram, hierarchical_range_error_order};
pub use laplace::{
    laplace_histogram, laplace_per_query_error, laplace_total_error, laplace_workload,
};
pub use matrix::{hierarchical_strategy, identity_strategy, wavelet_strategy, MatrixMechanism};
pub use noise::{laplace, laplace_variance, laplace_vec, two_sided_geometric};
pub use privelet::{
    haar_forward, haar_generalized_sensitivity, haar_inverse, haar_weights, privelet_histogram,
    privelet_histogram_1d, privelet_histogram_planned, privelet_range_error_order, HaarPlan,
};
pub use sparse_matrix::{
    hierarchical_strategy_sparse, identity_strategy_sparse, wavelet_strategy_sparse, GramSolver,
    PinvApply, SparseMatrixMechanism,
};

/// Errors reported by mechanism construction or execution.
#[derive(Clone, Debug, PartialEq)]
pub enum MechanismError {
    /// A parameter failed validation.
    InvalidParameter {
        /// What was wrong.
        what: &'static str,
    },
    /// The matrix-mechanism support condition `W A⁺ A = W` failed: the
    /// strategy cannot reconstruct the workload without bias.
    StrategyDoesNotSupportWorkload,
    /// An error from the core crate.
    Core(blowfish_core::CoreError),
    /// An error from the linear-algebra substrate.
    Linalg(blowfish_linalg::LinalgError),
}

impl std::fmt::Display for MechanismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechanismError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            MechanismError::StrategyDoesNotSupportWorkload => {
                write!(f, "strategy does not support the workload (W A⁺A ≠ W)")
            }
            MechanismError::Core(e) => write!(f, "core error: {e}"),
            MechanismError::Linalg(e) => write!(f, "linear algebra error: {e}"),
        }
    }
}

impl std::error::Error for MechanismError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MechanismError::Core(e) => Some(e),
            MechanismError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<blowfish_core::CoreError> for MechanismError {
    fn from(e: blowfish_core::CoreError) -> Self {
        MechanismError::Core(e)
    }
}

impl From<blowfish_linalg::LinalgError> for MechanismError {
    fn from(e: blowfish_linalg::LinalgError) -> Self {
        MechanismError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let e = MechanismError::StrategyDoesNotSupportWorkload;
        assert!(e.to_string().contains("strategy"));
        let e: MechanismError = blowfish_core::CoreError::EmptyDomain.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: MechanismError = blowfish_linalg::LinalgError::RaggedRows.into();
        assert!(e.to_string().contains("linear algebra"));
    }
}
