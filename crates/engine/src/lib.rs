//! # blowfish-engine
//!
//! The serving stack of the `blowfish-privacy` workspace: one uniform
//! entry point to every baseline and policy-aware strategy, from a
//! single planned fit all the way up to a concurrent, budget-metered
//! multi-tenant service.
//!
//! ## Ownership: Service → Session → Plan
//!
//! The layers nest top-down; each owns (or shares) exactly the state the
//! layer below needs:
//!
//! * [`Service`] — the long-running, multi-tenant face. Owns **one**
//!   shared `Arc<`[`PlanCache`]`>` (artifacts derive exactly once across
//!   all tenants), **one** thread-safe [`Ledger`](blowfish_core::Ledger)
//!   (per-tenant cumulative ε accounts), and a [`Session`] per tenant
//!   with the tenant's registered data. It has one `&self` method per
//!   verb ([`Service::add_tenant`], [`Service::plan`], [`Service::fit`],
//!   [`Service::answer`], [`Service::stats`]), callable from any number
//!   of threads. It is the one place a release is charged:
//!   [`Service::fit`] draws the mechanism's exact reported ε
//!   ([`blowfish_strategies::Mechanism::epsilon`]) from the tenant's
//!   ledger account before it fits — over budget means a typed
//!   `CoreError::BudgetExhausted` rejection *before* any noise is drawn. The [`wire`] module's [`Request`]/[`Response`] are the
//!   engine's request and response types: [`wire::serve_request`]
//!   dispatches each request to its method, and [`Codec`] gives them a
//!   newline-delimited text form (the `blowfish-serve` bin).
//! * [`Session`] — binds `(Domain, policy, ε)`, classifies the policy
//!   graph ([`Policy`]), memoizes mechanisms against its
//!   plan cache, and plans the paper-recommended strategy per [`Task`].
//!   It tracks no spend. A standalone session owns a private cache (ε is
//!   a per-release parameter, the one-shot experiment shape); a
//!   `Service` session shares the service cache ([`Session::with_cache`]).
//! * [`Plan`] — one chosen spec plus its live mechanism. Fitting
//!   produces an [`blowfish_strategies::Estimate`] answering 1-D/2-D
//!   range batches in O(1) per query.
//!
//! Supporting cast: [`MechanismSpec`] (the registry — every baseline and
//! Blowfish strategy by stable id), [`PlanCache`] (lock-striped,
//! structurally-hash-keyed artifact store with [`plan::PlanStats`]
//! build counters proving derive-once behaviour under concurrency), and
//! [`parallel`] (order-preserving scoped-thread fan-out).
//!
//! ## Quickstart: one session
//!
//! ```
//! use blowfish_core::{DataVector, Domain, Epsilon, PolicyGraph};
//! use blowfish_engine::{Session, Task};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Plan once: a session for the line policy over 16 salary bins.
//! let graph = PolicyGraph::line(16).unwrap();
//! let session = Session::new(&graph, Epsilon::new(0.5).unwrap()).unwrap();
//! let plan = session.plan(Task::Range1d).unwrap();
//!
//! // Serve many: fit produces an Estimate answering ranges in O(1) each.
//! let x = DataVector::new(
//!     Domain::one_dim(16),
//!     vec![5., 9., 14., 21., 30., 41., 33., 25., 18., 12., 8., 5., 3., 2., 1., 1.],
//! ).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let estimate = plan.fit(&x, &mut rng).unwrap();
//! let q = blowfish_core::RangeQuery::one_dim(x.domain(), 3, 9).unwrap();
//! assert!(estimate.answer(&q).unwrap().is_finite());
//!
//! // The full Figure 8 lineup for this policy, by name.
//! let lineup = session.registry(Task::Range1d).unwrap();
//! assert_eq!(lineup.len(), 5);
//! ```
//!
//! ## Quickstart: a budget-metered service
//!
//! ```
//! use blowfish_core::{DataVector, Domain, Epsilon, PolicyGraph};
//! use blowfish_engine::{Service, Task, TenantConfig};
//!
//! let service = Service::new();
//! service.add_tenant(TenantConfig {
//!     id: "acme".into(),
//!     graph: PolicyGraph::line(16).unwrap(),
//!     eps: Epsilon::new(0.5).unwrap(),      // per-release grant
//!     budget: Epsilon::new(1.0).unwrap(),   // lifetime budget: 2 fits
//!     data: DataVector::new(Domain::one_dim(16), vec![3.0; 16]).unwrap(),
//! }).unwrap();
//!
//! let fit = |seed, handle| service.fit("acme", None, Task::Histogram, seed, handle);
//! assert!(fit(1, "a").is_ok());
//! assert!(fit(2, "b").is_ok());
//! // The third release would exceed the account: typed rejection.
//! assert!(fit(3, "c").unwrap_err().is_budget_exhausted());
//! // Stored releases stay answerable: budgets meter releases, not reads.
//! let whole = service.answer("acme", "a", [(&[0][..], &[15][..])].into_iter()).unwrap();
//! assert!(whole[0].is_finite());
//! ```

pub mod net;
pub mod parallel;
pub mod plan;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod service;
pub mod session;
pub mod spec;
pub mod wire;

pub use net::{LineSession, NetConfig, NetStats, TcpServer, MAX_LINE_BYTES};
pub use parallel::parallel_map;
pub use plan::{PlanCache, PlanStats};
pub use service::{Service, TenantConfig, TenantStats};
pub use session::{Plan, Policy, Session};
pub use spec::{MatrixStrategyKind, MechanismSpec, Task};
pub use wire::{Codec, Request, Response, WireError, WireReply, PROTOCOL_VERSION};

use blowfish_core::CoreError;
use blowfish_mechanisms::MechanismError;
use blowfish_strategies::StrategyError;

/// Errors reported by the engine layer.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The policy graph (or policy/task combination) has no registered
    /// strategy.
    UnsupportedPolicy {
        /// What was unsupported.
        what: &'static str,
    },
    /// An error from the strategies crate.
    Strategy(StrategyError),
    /// An error from the core crate.
    Core(CoreError),
    /// An error from a mechanism substrate.
    Mechanism(MechanismError),
    /// A service request named an unregistered tenant.
    UnknownTenant {
        /// The unregistered tenant id.
        tenant: String,
    },
    /// A service answer request named a handle with no stored estimate.
    UnknownEstimate {
        /// The unknown estimate handle.
        handle: String,
    },
    /// A malformed service/wire request.
    BadRequest {
        /// What was malformed.
        what: String,
    },
}

impl EngineError {
    /// Whether this error is the typed budget-exhaustion rejection
    /// (`CoreError::BudgetExhausted`) — the signal a service client
    /// should treat as "this tenant's privacy budget is spent", distinct
    /// from every other failure.
    pub fn is_budget_exhausted(&self) -> bool {
        matches!(self, EngineError::Core(CoreError::BudgetExhausted { .. }))
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnsupportedPolicy { what } => write!(f, "unsupported policy: {what}"),
            EngineError::Strategy(e) => write!(f, "strategy error: {e}"),
            EngineError::Core(e) => write!(f, "core error: {e}"),
            EngineError::Mechanism(e) => write!(f, "mechanism error: {e}"),
            EngineError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            EngineError::UnknownEstimate { handle } => {
                write!(f, "no estimate stored under handle {handle}")
            }
            EngineError::BadRequest { what } => write!(f, "bad request: {what}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Strategy(e) => Some(e),
            EngineError::Core(e) => Some(e),
            EngineError::Mechanism(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StrategyError> for EngineError {
    fn from(e: StrategyError) -> Self {
        EngineError::Strategy(e)
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<MechanismError> for EngineError {
    fn from(e: MechanismError) -> Self {
        EngineError::Mechanism(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_sources() {
        let e = EngineError::UnsupportedPolicy { what: "test" };
        assert!(e.to_string().contains("test"));
        assert!(std::error::Error::source(&e).is_none());
        let e: EngineError = StrategyError::BadQuery { what: "q" }.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: EngineError = CoreError::EmptyDomain.into();
        assert!(e.to_string().contains("core"));
        let e: EngineError = MechanismError::StrategyDoesNotSupportWorkload.into();
        assert!(e.to_string().contains("mechanism"));
    }
}
