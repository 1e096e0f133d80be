//! # blowfish-simulate — trace-driven workload simulation
//!
//! The paper evaluates mechanisms over a handful of fixed workloads;
//! this module turns the multi-tenant [`Service`](blowfish_engine::Service)
//! layer into something that can be *stress-scored*: deterministic,
//! seeded traces of mixed traffic are generated from composable
//! [`Scenario`] axes, replayed in order through
//! [`wire::serve_request`](blowfish_engine::wire::serve_request), and
//! scored against exact oracles. The flow:
//!
//! ```text
//! Scenario ──generate()──▶ Trace ──score()──▶ SimReport (JSON)
//!    axes                   tenants +            gates +
//!  (seeded)                 requests             timing
//! ```
//!
//! **Scenario axes** ([`scenario`]): tenant count, policy family mix
//! (line / θ-line / grid / θ-grid / tree), domain sizes, synthetic
//! population scale and shape, per-release ε, budget distribution
//! (fixed / uniform / tiered), request count, fit-vs-answer ratio,
//! query-shape mix (point / range / prefix / marginal), arrival pattern
//! (uniform / bursty / zipf hot-key), and mechanism choice (planner
//! default vs closed-form mechanisms).
//!
//! **Determinism** ([`trace`]): a trace is a pure function of the
//! scenario seed — same seed ⇒ byte-identical tenants and requests ⇒
//! (because scoring replays serially) an f64-identical deterministic
//! report section. That is what makes `SimReport`s diffable across
//! commits.
//!
//! **Gates** ([`mod@score`]): ledger spend must reconcile bit-for-bit to the
//! fold of fit receipts; admissions must match an analytic oracle that
//! replays the ledger's own admission rule (with uniform per-fit ε this
//! is the `⌊budget/ε⌋` cutoff); measured utility must track the
//! closed-form expectation for mechanisms that have one; failures must
//! be exactly the typed errors the oracle predicts. Any violation fails
//! the run — and, through the `blowfish_simulate --quick` CI step, the
//! build.
//!
//! Run it: `cargo run --release -p blowfish-bench --bin
//! blowfish_simulate -- --quick` (the CI smoke), `--list` for the
//! catalog, `--scenario <name> [--seed N] [--requests N] [--out DIR]`
//! for one scenario with a JSON report.
//!
//! **TCP load testing** ([`loadtest`]): the same traces replayed over a
//! real loopback socket server from hundreds-to-thousands of concurrent
//! connections (`blowfish_loadtest`), with the same exact-reconciliation
//! gates plus zero-drop/zero-corruption reply validation and a
//! `bench_gate`-consumable p50/p95/p99 + throughput snapshot.

pub mod loadtest;
pub mod scenario;
pub mod score;
pub mod trace;

pub use loadtest::{
    policy_token, run_idle, run_load, IdleReport, LoadError, LoadReport, LoadTenantScore,
};
pub use scenario::{ArrivalPattern, PolicyFamily, Scenario, SpecChoice};
pub use score::{
    run, run_with_recovery, score, RecoveryRun, SimReport, SimTiming, TenantScore, UTILITY_FACTOR,
    UTILITY_MIN_SAMPLES,
};
pub use trace::{generate, Trace, TraceTenant, SIM_HANDLE};
