//! Trace replay and scoring: drives a generated [`Trace`] through a
//! freshly built [`Service`] and holds what actually happened against
//! what *must* happen:
//!
//! * **ledger exactness** — each tenant's cumulative ledger spend must
//!   equal the fold of its fit receipts bit-for-bit (both are the same
//!   sequence of f64 additions in the same order — any difference means
//!   double-charging or a lost receipt);
//! * **admission behavior** — an analytic oracle walks the trace with
//!   the ledger's own admission rule
//!   ([`overdraw_slack`]) and predicts
//!   exactly which fits are admitted; with a uniform per-fit ε this
//!   reduces to the paper-level invariant that rejections start at
//!   precisely `⌊budget/ε⌋` releases;
//! * **utility** — for mechanisms with a closed-form per-query error
//!   (the Laplace baseline and the line policy's Transformed + Laplace,
//!   Theorem 5.2) the measured mean squared error over all answered
//!   queries must sit within a generous factor of theory;
//! * **response sanity** — answers are finite, failures are the typed
//!   errors the oracle predicted, nothing else.
//!
//! Scoring replays serially, each request through
//! [`serve_request`] on the calling thread, so every check —
//! including which requests are rejected against a tightening budget —
//! is deterministic: the [`SimReport`]'s deterministic section is
//! f64-identical across runs of the same seed. Wall-clock throughput and
//! latency live in a separate `timing` section excluded from
//! [`SimReport::deterministic_json`].

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use blowfish_core::{
    overdraw_slack, Domain, FsyncPolicy, Ledger, LedgerDurability, RangeQuery, RecoveryReport,
};
use blowfish_engine::wire::{serve_request, Request, Response, WireError};
use blowfish_engine::{EngineError, MechanismSpec, Service};
use blowfish_strategies::TreeEstimator;

use crate::report::snapshot::JsonValue;
use crate::simulate::scenario::Scenario;
use crate::simulate::trace::{generate, Trace, TraceTenant};
use crate::BenchError;

/// Measured-vs-theory tolerance: utility violations fire when the
/// measured MSE leaves `[expected/UTILITY_FACTOR, expected·UTILITY_FACTOR]`.
/// Generous on purpose — quick scenarios average a few thousand
/// correlated query samples, so honest runs sit within ~1.3x of theory
/// while a wrong sensitivity or a double-noised release (both ≥ 4x in
/// variance) still trips it.
pub const UTILITY_FACTOR: f64 = 8.0;

/// Minimum answered-query samples before the utility bound is enforced
/// (below this the estimator is too noisy to hold against theory).
pub const UTILITY_MIN_SAMPLES: usize = 64;

/// Per-tenant scoring row of a [`SimReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct TenantScore {
    /// Tenant id.
    pub id: String,
    /// Policy family label.
    pub policy: String,
    /// Registered total budget.
    pub budget: f64,
    /// Per-release grant ε.
    pub eps: f64,
    /// Fit requests issued to this tenant.
    pub fits_requested: usize,
    /// Fits the service admitted (charged + stored).
    pub fits_admitted: usize,
    /// Fits rejected with the typed budget-exhausted error.
    pub fits_rejected: usize,
    /// Fits the analytic oracle predicted would be admitted.
    pub expected_admitted: usize,
    /// Cumulative ε the ledger reports spent.
    pub spent: f64,
    /// Fold of the fit receipts, in replay order.
    pub receipt_sum: f64,
    /// Ledger budget remaining.
    pub remaining: f64,
    /// Answer requests issued to this tenant.
    pub answers_requested: usize,
    /// Answer requests served successfully.
    pub answers_ok: usize,
    /// Individual queries answered across all answer requests.
    pub queries_answered: usize,
    /// Mean squared error of answered queries against the tenant's true
    /// histogram (absent when nothing was answered).
    pub measured_mse: Option<f64>,
    /// Closed-form expected MSE (absent for planner-chosen mechanisms
    /// without a closed form).
    pub expected_mse: Option<f64>,
}

/// Wall-clock measurements of a replay or load-test run (never part of
/// deterministic scoring): sustained throughput plus the latency tail.
#[derive(Clone, Debug, PartialEq)]
pub struct SimTiming {
    /// Total run wall time.
    pub wall_ns: u64,
    /// Requests served per second, sustained over the whole run.
    pub requests_per_sec: f64,
    /// Inverse throughput (`wall_ns / requests`): the form `bench_gate`
    /// can bound, since the gate only fails on *increases* and a
    /// throughput regression is an `ns_per_request` increase.
    pub ns_per_request: f64,
    /// Mean per-request latency.
    pub mean_latency_ns: f64,
    /// Median per-request latency.
    pub p50_latency_ns: u64,
    /// 95th-percentile per-request latency.
    pub p95_latency_ns: u64,
    /// 99th-percentile per-request latency.
    pub p99_latency_ns: u64,
}

impl SimTiming {
    /// Builds the timing section from a run's wall time and raw
    /// per-request latencies (sorted in place). Used by both the serial
    /// replay scorer and the TCP load-test harness, so every timing
    /// report carries the same p50/p95/p99 + throughput shape.
    pub fn from_latencies(wall_ns: u64, latencies: &mut [u64]) -> SimTiming {
        latencies.sort_unstable();
        let requests = latencies.len();
        SimTiming {
            wall_ns,
            requests_per_sec: if wall_ns > 0 {
                requests as f64 / (wall_ns as f64 / 1e9)
            } else {
                0.0
            },
            ns_per_request: wall_ns as f64 / requests.max(1) as f64,
            mean_latency_ns: latencies.iter().sum::<u64>() as f64 / requests.max(1) as f64,
            p50_latency_ns: percentile(latencies, 0.50),
            p95_latency_ns: percentile(latencies, 0.95),
            p99_latency_ns: percentile(latencies, 0.99),
        }
    }
}

/// The machine-readable outcome of one scenario run. Serialized with
/// [`SimReport::to_json`] (full) or [`SimReport::deterministic_json`]
/// (timing section dropped — byte-identical across runs of one seed, the
/// form that is diffed across commits).
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Report schema id (`blowfish-simulate/v1`).
    pub schema: String,
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Requests replayed.
    pub requests: usize,
    /// Per-tenant scores, in onboarding order.
    pub tenants: Vec<TenantScore>,
    /// Every scoring violation, in detection order; empty means the run
    /// passed all gates.
    pub violations: Vec<String>,
    /// Wall-clock measurements.
    pub timing: SimTiming,
}

impl SimReport {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Full JSON, timing included.
    pub fn to_json(&self) -> String {
        self.json_value(true).to_pretty()
    }

    /// JSON without the timing section: f64-identical across runs of the
    /// same seed, suitable for committing/diffing.
    pub fn deterministic_json(&self) -> String {
        self.json_value(false).to_pretty()
    }

    fn json_value(&self, with_timing: bool) -> JsonValue {
        let num = |v: f64| JsonValue::Num(v);
        let count = |v: usize| JsonValue::Num(v as f64);
        let opt = |v: Option<f64>| match v {
            Some(x) => JsonValue::Num(x),
            None => JsonValue::Null,
        };
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                JsonValue::Obj(vec![
                    ("id".into(), JsonValue::Str(t.id.clone())),
                    ("policy".into(), JsonValue::Str(t.policy.clone())),
                    ("budget".into(), num(t.budget)),
                    ("eps".into(), num(t.eps)),
                    ("fits_requested".into(), count(t.fits_requested)),
                    ("fits_admitted".into(), count(t.fits_admitted)),
                    ("fits_rejected".into(), count(t.fits_rejected)),
                    ("expected_admitted".into(), count(t.expected_admitted)),
                    ("spent".into(), num(t.spent)),
                    ("receipt_sum".into(), num(t.receipt_sum)),
                    ("remaining".into(), num(t.remaining)),
                    ("answers_requested".into(), count(t.answers_requested)),
                    ("answers_ok".into(), count(t.answers_ok)),
                    ("queries_answered".into(), count(t.queries_answered)),
                    ("measured_mse".into(), opt(t.measured_mse)),
                    ("expected_mse".into(), opt(t.expected_mse)),
                ])
            })
            .collect();
        let mut members = vec![
            ("schema".into(), JsonValue::Str(self.schema.clone())),
            ("scenario".into(), JsonValue::Str(self.scenario.clone())),
            // Exact decimal digits: a u64 seed above 2^53 would lose
            // precision through an f64 JSON number, and the seed is the
            // one field that must reproduce the trace exactly.
            ("seed".into(), JsonValue::Str(self.seed.to_string())),
            ("requests".into(), count(self.requests)),
            ("tenants".into(), JsonValue::Arr(tenants)),
            (
                "violations".into(),
                JsonValue::Arr(
                    self.violations
                        .iter()
                        .map(|v| JsonValue::Str(v.clone()))
                        .collect(),
                ),
            ),
        ];
        if with_timing {
            members.push((
                "timing".into(),
                JsonValue::Obj(vec![
                    ("wall_ns".into(), count(self.timing.wall_ns as usize)),
                    ("requests_per_sec".into(), num(self.timing.requests_per_sec)),
                    ("ns_per_request".into(), num(self.timing.ns_per_request)),
                    ("mean_latency_ns".into(), num(self.timing.mean_latency_ns)),
                    (
                        "p50_latency_ns".into(),
                        count(self.timing.p50_latency_ns as usize),
                    ),
                    (
                        "p95_latency_ns".into(),
                        count(self.timing.p95_latency_ns as usize),
                    ),
                    (
                        "p99_latency_ns".into(),
                        count(self.timing.p99_latency_ns as usize),
                    ),
                ]),
            ));
        }
        JsonValue::Obj(members)
    }
}

/// Closed-form expected squared error of one range query under a
/// tenant's mechanism, when theory gives one:
///
/// * ε/2-DP Laplace baseline: iid per-cell Laplace noise at scale
///   `2/ε`, so a volume-`V` range has variance `V · 2·(2/ε)²`;
/// * line policy `Transformed + Laplace` (Theorem 5.2): a range is the
///   difference of up to two noisy prefix estimates at scale `1/ε`
///   (the boundary prefixes `C₋₁ = 0` and `C_{k−1} = n` are public), so
///   the variance is `2/ε²` per *noisy endpoint*.
fn closed_form_query_var(
    spec: &MechanismSpec,
    eps: f64,
    domain: &Domain,
    q: &RangeQuery,
) -> Option<f64> {
    match spec {
        MechanismSpec::Laplace => {
            let scale = 2.0 / eps; // baseline runs at ε/2, sensitivity 1
            Some(q.volume() as f64 * 2.0 * scale * scale)
        }
        MechanismSpec::Line(TreeEstimator::Laplace) => {
            let k = domain.dim(0);
            let noisy_endpoints = (q.lo[0] > 0) as usize + (q.hi[0] < k - 1) as usize;
            Some(noisy_endpoints as f64 * 2.0 / (eps * eps))
        }
        _ => None,
    }
}

/// Per-tenant accumulator for the replay walk, including the analytic
/// oracle's running state.
#[derive(Default)]
struct TenantTally {
    fits_requested: usize,
    fits_admitted: usize,
    fits_rejected: usize,
    /// Oracle: running spend under the ledger's admission arithmetic.
    oracle_spent: f64,
    /// Oracle: fits predicted to be admitted.
    expected_admitted: usize,
    receipt_sum: f64,
    last_receipt_spent: f64,
    answers_requested: usize,
    answers_ok: usize,
    queries_answered: usize,
    sq_err_sum: f64,
    expected_var_sum: f64,
    expected_var_count: usize,
}

/// One request's outcome from [`replay`], with the wall-clock time spent
/// serving it (measurement only, never part of deterministic scoring).
struct Outcome {
    response: Result<Response, WireError>,
    latency_ns: u64,
}

/// Serves `requests` in order on the calling thread, timing each call.
/// Served strictly sequentially, everything order-dependent — which fits
/// are admitted against a tightening budget, which handles exist when an
/// answer arrives — is deterministic: replaying a trace against a freshly
/// built service always gives f64-identical responses.
fn replay(service: &Service, requests: &[Request]) -> Vec<Outcome> {
    requests
        .iter()
        .map(|request| {
            let start = Instant::now();
            let response = serve_request(service, request);
            Outcome {
                response,
                latency_ns: start.elapsed().as_nanos() as u64,
            }
        })
        .collect()
}

/// Generates, replays, and scores a scenario end to end.
pub fn run(scenario: &Scenario) -> Result<SimReport, BenchError> {
    let trace = generate(scenario)?;
    score(scenario, &trace)
}

/// Replays an already generated trace against a fresh [`Service`] and
/// scores it. Exposed separately so tests can reuse one trace across
/// replays (determinism) or perturb it (violation detection).
pub fn score(scenario: &Scenario, trace: &Trace) -> Result<SimReport, BenchError> {
    let service = Service::new();
    for tenant in &trace.tenants {
        service.add_tenant(tenant.config.clone())?;
    }

    // Serial replay: deterministic outcomes, per-request latencies.
    let started = Instant::now();
    let replayed = replay(&service, &trace.requests);
    let wall_ns = started.elapsed().as_nanos() as u64;
    score_outcomes(scenario, trace, &replayed, &service, wall_ns)
}

/// The outcome of a kill/recover run ([`run_with_recovery`]): the
/// stitched-and-scored report plus what recovery found on disk.
#[derive(Clone, Debug)]
pub struct RecoveryRun {
    /// The scored report over prefix + suffix outcomes. Its
    /// [`SimReport::deterministic_json`] must be byte-identical to an
    /// uninterrupted [`run`] of the same scenario when the fsync policy
    /// is [`FsyncPolicy::PerCharge`].
    pub report: SimReport,
    /// What [`Ledger::durable`] reported when the second life opened the
    /// state directory.
    pub recovery: RecoveryReport,
    /// The request index the first life was cut at.
    pub kill_at: usize,
}

/// Replays a scenario with a mid-trace crash: requests `[0, kill_at)`
/// run against a durable service whose state lives under `state_dir`,
/// the service is then dropped *without any graceful shutdown* (the
/// in-process equivalent of SIGKILL — nothing is flushed beyond what
/// the fsync policy already guaranteed), a second service recovers from
/// the state directory, re-onboards every tenant (attaching the
/// recovered accounts), re-materializes the estimates whose fits were
/// admitted before the cut ([`Service::restore_estimate`] — charged
/// releases are never re-charged), and replays the suffix. The stitched
/// outcome sequence is scored exactly like an uninterrupted run.
///
/// Under every [`FsyncPolicy`] each acknowledged charge is in the log
/// before its ack, so it survives the kill and the stitched report's
/// deterministic section is f64-identical to the uninterrupted replay —
/// the crash-recovery CI gate.
pub fn run_with_recovery(
    scenario: &Scenario,
    state_dir: &Path,
    kill_at: usize,
    fsync: FsyncPolicy,
) -> Result<RecoveryRun, BenchError> {
    let trace = generate(scenario)?;
    let kill_at = kill_at.min(trace.requests.len());
    let durability = LedgerDurability {
        fsync,
        ..LedgerDurability::default()
    };

    // First life: durable service, prefix replay, then the "crash" —
    // the service and its ledger are dropped with no flush call.
    let started = Instant::now();
    let prefix = {
        let (ledger, _) = Ledger::durable(state_dir, durability)?;
        let service = Service::with_ledger(Arc::new(ledger));
        for tenant in &trace.tenants {
            service.add_tenant(tenant.config.clone())?;
        }
        replay(&service, &trace.requests[..kill_at])
    };

    // Second life: recover, re-attach every tenant, restore the
    // estimates the prefix admitted, replay the rest.
    let (ledger, recovery) = Ledger::durable(state_dir, durability)?;
    let service = Service::with_ledger(Arc::new(ledger));
    for tenant in &trace.tenants {
        service.add_tenant(tenant.config.clone())?;
    }
    // Last admitted fit per (tenant, handle) wins — exactly the estimate
    // the first life would still be holding at the cut.
    let mut admitted: HashMap<(String, String), &Request> = HashMap::new();
    for (request, outcome) in trace.requests[..kill_at].iter().zip(&prefix) {
        if let Request::Fit { tenant, handle, .. } = request {
            if matches!(outcome.response, Ok(Response::Fitted { .. })) {
                admitted.insert((tenant.clone(), handle.clone()), request);
            }
        }
    }
    let mut keys: Vec<&(String, String)> = admitted.keys().collect();
    keys.sort();
    for key in keys {
        let Request::Fit {
            tenant,
            spec,
            task,
            seed,
            handle,
        } = admitted[key]
        else {
            unreachable!("only fits are recorded");
        };
        service.restore_estimate(tenant, *spec, *task, *seed, handle)?;
    }
    let suffix = replay(&service, &trace.requests[kill_at..]);
    let wall_ns = started.elapsed().as_nanos() as u64;

    let mut outcomes = prefix;
    outcomes.extend(suffix);
    let report = score_outcomes(scenario, &trace, &outcomes, &service, wall_ns)?;
    Ok(RecoveryRun {
        report,
        recovery,
        kill_at,
    })
}

/// Scores an already-replayed outcome sequence against the trace's
/// oracles, reconciling ledger state through `service` — the shared
/// back half of [`score`] and [`run_with_recovery`].
fn score_outcomes(
    scenario: &Scenario,
    trace: &Trace,
    replayed: &[Outcome],
    service: &Service,
    wall_ns: u64,
) -> Result<SimReport, BenchError> {
    let by_id: HashMap<&str, &TraceTenant> = trace
        .tenants
        .iter()
        .map(|t| (t.config.id.as_str(), t))
        .collect();
    let mut tallies: HashMap<&str, TenantTally> = trace
        .tenants
        .iter()
        .map(|t| (t.config.id.as_str(), TenantTally::default()))
        .collect();

    // One pass over (request, outcome) pairs: advance the oracle, compare
    // the actual outcome against its prediction, accumulate utility.
    let mut violations: Vec<String> = Vec::new();
    for (index, (request, outcome)) in trace.requests.iter().zip(replayed).enumerate() {
        match request {
            Request::Fit { tenant, .. } => {
                let info = by_id[tenant.as_str()];
                let tally = tallies.get_mut(tenant.as_str()).expect("known tenant");
                tally.fits_requested += 1;
                // Oracle admission: the ledger's own check-and-debit
                // arithmetic, replayed analytically in the same order.
                let budget = info.config.budget.value();
                let charge = info.charge_per_fit();
                let oracle_admits = tally.oracle_spent + charge <= budget + overdraw_slack(budget);
                if oracle_admits {
                    tally.oracle_spent += charge;
                    tally.expected_admitted += 1;
                }
                match &outcome.response {
                    Ok(Response::Fitted { charged, spent, .. }) => {
                        tally.fits_admitted += 1;
                        tally.receipt_sum += charged;
                        tally.last_receipt_spent = *spent;
                        if !oracle_admits {
                            violations.push(format!(
                                "request {index}: {tenant} fit admitted but the oracle \
                                 predicted rejection (budget {budget}, charge {charged})"
                            ));
                        }
                    }
                    Err(WireError::Engine(e)) if e.is_budget_exhausted() => {
                        tally.fits_rejected += 1;
                        if oracle_admits {
                            violations.push(format!(
                                "request {index}: {tenant} fit rejected but the oracle \
                                 predicted admission (budget {budget}, charge {charge})"
                            ));
                        }
                    }
                    Ok(other) => violations.push(format!(
                        "request {index}: {tenant} fit produced a non-fit response {other:?}"
                    )),
                    Err(e) => violations.push(format!(
                        "request {index}: {tenant} fit failed with an unexpected error: {e}"
                    )),
                }
            }
            Request::Answer { tenant, ranges, .. } => {
                let info = by_id[tenant.as_str()];
                let tally = tallies.get_mut(tenant.as_str()).expect("known tenant");
                tally.answers_requested += 1;
                // An estimate exists iff some earlier fit was admitted
                // (every sim fit stores under the same handle).
                let has_estimate = tally.fits_admitted > 0;
                match &outcome.response {
                    Ok(Response::Answers { values }) => {
                        tally.answers_ok += 1;
                        if !has_estimate {
                            violations.push(format!(
                                "request {index}: {tenant} answered before any fit was admitted"
                            ));
                        }
                        if values.len() != ranges.len() {
                            violations.push(format!(
                                "request {index}: {tenant} returned {} answers for {} queries",
                                values.len(),
                                ranges.len()
                            ));
                            continue;
                        }
                        let domain = info.config.graph.domain();
                        for (range, &value) in ranges.iter().zip(values) {
                            if !value.is_finite() {
                                violations.push(format!(
                                    "request {index}: {tenant} produced a non-finite answer"
                                ));
                                continue;
                            }
                            let q = range.into_query(domain)?;
                            let truth = q
                                .to_linear_query(domain)?
                                .answer(info.config.data.counts())?;
                            tally.sq_err_sum += (value - truth) * (value - truth);
                            tally.queries_answered += 1;
                            if let Some(spec) = &info.spec {
                                if let Some(var) =
                                    closed_form_query_var(spec, info.config.eps.value(), domain, &q)
                                {
                                    tally.expected_var_sum += var;
                                    tally.expected_var_count += 1;
                                }
                            }
                        }
                    }
                    Err(e) => {
                        if has_estimate {
                            violations.push(format!(
                                "request {index}: {tenant} answer failed with {e} despite \
                                 an admitted fit"
                            ));
                        } else if !matches!(
                            e,
                            WireError::Engine(EngineError::UnknownEstimate { .. })
                        ) {
                            // With no admitted fit the *only* acceptable
                            // failure is the typed unknown-estimate
                            // rejection — anything else is a regression
                            // hiding behind the expected failure slot.
                            violations.push(format!(
                                "request {index}: {tenant} answer failed with {e}, but the \
                                 oracle predicts the typed unknown-estimate error"
                            ));
                        }
                    }
                    Ok(other) => violations.push(format!(
                        "request {index}: {tenant} answer produced {other:?}"
                    )),
                }
            }
            other => {
                violations.push(format!(
                    "request {index}: unsupported request kind in a simulated trace: {other:?}"
                ));
            }
        }
    }

    // Per-tenant reconciliation and utility gates.
    let mut scores = Vec::with_capacity(trace.tenants.len());
    for tenant in &trace.tenants {
        let id = tenant.config.id.as_str();
        let tally = &tallies[id];
        let spent = service.ledger().spent(id)?;
        let remaining = service.ledger().remaining(id)?;

        // Ledger exactness: the ledger's spend and our receipt fold are
        // the same f64 additions in the same order — equality is exact.
        if spent != tally.receipt_sum {
            violations.push(format!(
                "{id}: ledger spend {spent} does not reconcile to the receipt sum {} \
                 (diff {:e})",
                tally.receipt_sum,
                spent - tally.receipt_sum
            ));
        }
        if tally.fits_admitted > 0 && tally.last_receipt_spent != spent {
            violations.push(format!(
                "{id}: final receipt reports cumulative spend {} but the ledger says {spent}",
                tally.last_receipt_spent
            ));
        }
        if tally.fits_admitted != tally.expected_admitted {
            violations.push(format!(
                "{id}: {} fits admitted, oracle expected exactly {}",
                tally.fits_admitted, tally.expected_admitted
            ));
        }
        if tally.fits_admitted + tally.fits_rejected != tally.fits_requested {
            violations.push(format!(
                "{id}: {} + {} fit outcomes for {} fit requests",
                tally.fits_admitted, tally.fits_rejected, tally.fits_requested
            ));
        }

        let measured_mse =
            (tally.queries_answered > 0).then(|| tally.sq_err_sum / tally.queries_answered as f64);
        // The closed form is only a valid expectation for the mean when
        // it covered every answered query.
        let expected_mse = (tally.expected_var_count > 0
            && tally.expected_var_count == tally.queries_answered)
            .then(|| tally.expected_var_sum / tally.expected_var_count as f64);
        if let (Some(measured), Some(expected)) = (measured_mse, expected_mse) {
            if tally.queries_answered >= UTILITY_MIN_SAMPLES
                && expected > 0.0
                && (measured > expected * UTILITY_FACTOR || measured < expected / UTILITY_FACTOR)
            {
                violations.push(format!(
                    "{id}: measured MSE {measured:.4} outside {UTILITY_FACTOR}x of the \
                     closed-form expectation {expected:.4} ({} query samples)",
                    tally.queries_answered
                ));
            }
        }

        scores.push(TenantScore {
            id: id.to_string(),
            policy: tenant.family.label(),
            budget: tenant.config.budget.value(),
            eps: tenant.config.eps.value(),
            fits_requested: tally.fits_requested,
            fits_admitted: tally.fits_admitted,
            fits_rejected: tally.fits_rejected,
            expected_admitted: tally.expected_admitted,
            spent,
            receipt_sum: tally.receipt_sum,
            remaining,
            answers_requested: tally.answers_requested,
            answers_ok: tally.answers_ok,
            queries_answered: tally.queries_answered,
            measured_mse,
            expected_mse,
        });
    }

    let mut latencies: Vec<u64> = replayed.iter().map(|r| r.latency_ns).collect();
    let timing = SimTiming::from_latencies(wall_ns, &mut latencies);

    Ok(SimReport {
        schema: "blowfish-simulate/v1".to_string(),
        scenario: scenario.name.clone(),
        seed: trace.seed,
        requests: trace.requests.len(),
        tenants: scores,
        violations,
        timing,
    })
}

/// Nearest-rank percentile of a sorted latency vector.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::scenario::Scenario;

    #[test]
    fn quick_scenarios_pass_all_gates() {
        for scenario in Scenario::quick_catalog() {
            let report = run(&scenario).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
            assert!(
                report.passed(),
                "{}: violations {:#?}",
                scenario.name,
                report.violations
            );
            assert_eq!(report.requests, scenario.requests);
            assert_eq!(report.tenants.len(), scenario.tenants);
        }
    }

    #[test]
    fn exhaustion_scenario_rejects_at_exactly_the_floor() {
        let scenario = Scenario::find("exhaustion-tight").unwrap();
        let report = run(&scenario).unwrap();
        assert!(report.passed(), "{:#?}", report.violations);
        let mut saw_rejection = false;
        for t in &report.tenants {
            // Uniform ε = 0.5 fits: admission must cut at ⌊budget/ε⌋.
            let floor = (t.budget / t.eps).floor() as usize;
            assert_eq!(
                t.fits_admitted,
                floor.min(t.fits_requested),
                "{}: admitted {} of {} against floor {floor}",
                t.id,
                t.fits_admitted,
                t.fits_requested
            );
            saw_rejection |= t.fits_rejected > 0;
            // Spend is exactly admitted × ε here (0.5 is a power of two,
            // so the fold is exact).
            assert_eq!(t.spent, t.fits_admitted as f64 * t.eps);
        }
        assert!(saw_rejection, "the tight scenario must exercise rejections");
    }

    #[test]
    fn closed_form_utility_tracks_theory_closely() {
        let scenario = Scenario::find("smoke-mixed").unwrap();
        let report = run(&scenario).unwrap();
        for t in &report.tenants {
            let (Some(measured), Some(expected)) = (t.measured_mse, t.expected_mse) else {
                panic!("{}: closed-form scenario must score utility", t.id);
            };
            let ratio = measured / expected;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{}: measured/expected = {ratio:.3} (measured {measured:.3}, \
                 expected {expected:.3})",
                t.id
            );
        }
    }

    #[test]
    fn deterministic_json_is_reproducible_and_timing_is_separate() {
        let scenario = Scenario::find("smoke-mixed").unwrap();
        let a = run(&scenario).unwrap();
        let b = run(&scenario).unwrap();
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        // Full JSON parses and carries the timing section.
        let full = JsonValue::parse(&a.to_json()).unwrap();
        assert!(full.get("timing").is_some());
        let det = JsonValue::parse(&a.deterministic_json()).unwrap();
        assert!(det.get("timing").is_none());
        assert_eq!(
            det.get("scenario").and_then(JsonValue::as_str),
            Some("smoke-mixed")
        );
    }

    #[test]
    fn oracle_mismatches_are_detected() {
        // Doctor one tenant's *scoring metadata* (the spec the oracle
        // derives per-fit charges from) while the replayed requests keep
        // the real mechanism: the oracle now expects ε/2 charges and a
        // 2x-deeper admission floor, so the scorer must flag the
        // admitted-count mismatch instead of silently absorbing it.
        let scenario = Scenario::find("exhaustion-tight").unwrap();
        let baseline = run(&scenario).unwrap();
        assert!(baseline.passed());
        let mut doctored = generate(&scenario).unwrap();
        doctored.tenants[0].spec = Some(MechanismSpec::Laplace);
        let report = score(&scenario, &doctored).unwrap();
        assert!(
            !report.passed(),
            "an oracle/replay disagreement must surface as a violation"
        );
        assert!(
            report.violations.iter().any(|v| v.contains("tenant-00")),
            "{:#?}",
            report.violations
        );
    }

    #[test]
    fn sparse_large_domain_scenario_plans_through_the_sparse_path() {
        // Replay the large-k scenario against a hand-built service: at
        // k = 16384 every MatrixHist fit, from both tenants, must be
        // served by the closed-form tree solve.
        let scenario = Scenario::find("sparse-large-domain").unwrap();
        let trace = generate(&scenario).unwrap();
        let service = Service::new();
        for tenant in &trace.tenants {
            service.add_tenant(tenant.config.clone()).unwrap();
        }
        let replayed = replay(&service, &trace.requests);
        assert!(replayed.iter().all(|r| r.response.is_ok()));
        // And the scorer holds it to the same gates as every scenario.
        let report = score(&scenario, &trace).unwrap();
        assert!(report.passed(), "{:#?}", report.violations);
    }

    #[test]
    fn killed_and_recovered_replay_is_f64_identical() {
        let scenario = Scenario::find("exhaustion-tight").unwrap();
        let uninterrupted = run(&scenario).unwrap();
        assert!(uninterrupted.passed(), "{:#?}", uninterrupted.violations);
        // Cut at several points, including mid-exhaustion and the edges.
        for kill_at in [0, 1, scenario.requests / 3, scenario.requests - 1] {
            let dir = std::env::temp_dir().join(format!(
                "blowfish-sim-recover-{}-{kill_at}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let recovered =
                run_with_recovery(&scenario, &dir, kill_at, FsyncPolicy::PerCharge).unwrap();
            assert_eq!(recovered.kill_at, kill_at);
            assert!(
                recovered.report.passed(),
                "kill at {kill_at}: {:#?}",
                recovered.report.violations
            );
            assert_eq!(
                recovered.report.deterministic_json(),
                uninterrupted.deterministic_json(),
                "kill at {kill_at}: recovered replay diverged from the uninterrupted run"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[5], 0.99), 5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 100);
    }
}
