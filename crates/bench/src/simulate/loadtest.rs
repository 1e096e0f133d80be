//! Loopback TCP load testing: replays a simulator
//! [`Trace`](crate::simulate::Trace) through a
//! real `blowfish/1` socket server from many concurrent client
//! connections, and holds the outcome to the same exactness standards as
//! the serial scorer — plus the network-only ones.
//!
//! The harness generates a scenario trace (so the arrival patterns are
//! the simulator's own bursty / zipf hot-key streams), onboards the
//! tenant population *over the wire* through a setup connection, deals
//! the request stream round-robin onto `connections` client sockets, and
//! releases all clients through one barrier — guaranteeing the full
//! connection count is simultaneously open before the first request is
//! written. Each client measures per-request latency (write → complete
//! reply line) and validates every reply's shape.
//!
//! What must hold afterward, in any interleaving:
//!
//! * **zero dropped or corrupted replies** — exactly one reply per
//!   request, each parsing as the shape its request demands (fit
//!   receipts with finite accounting fields and the exact per-fit
//!   charge; answer batches with one finite value per query);
//! * **exact admission** — every simulated fit of one tenant charges the
//!   same ε, so the admission floor (the ledger's [`overdraw_slack`]
//!   rule) is order-independent: admitted fits must equal
//!   `min(floor, requested)` even though the interleaving is racy;
//! * **bit-for-bit ledger reconciliation** — for the same reason the
//!   cumulative spend a final `stats` reports must equal the fold of the
//!   observed fit receipts exactly (f64 `Display` round-trips, so
//!   comparing parsed wire values is comparing bits);
//! * **tolerated failures are typed** — a fit may only fail budget-
//!   exhausted, an answer may only fail with the unknown-estimate error
//!   (its tenant's first fit may still be in flight on another
//!   connection — the one outcome concurrency legitimately reorders).
//!
//! Timing comes out as the same [`SimTiming`] p50/p95/p99 + throughput
//! section the serial scorer reports, and
//! [`LoadReport::snapshot_json`] renders it as `group/metric` keys that
//! `bench_gate` can hold against a committed baseline.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use blowfish_core::overdraw_slack;
use blowfish_engine::wire::{self, Codec};
use blowfish_engine::{NetConfig, Request, Service, TcpServer};

use crate::report::snapshot::JsonValue;
use crate::simulate::scenario::{PolicyFamily, Scenario};
use crate::simulate::score::SimTiming;
use crate::simulate::trace::generate;

/// Per-reply client read timeout: far above any honest tail (the gate
/// for tails is `bench_gate`, not this), so hitting it means a reply was
/// genuinely dropped.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Maximum in-flight (connected but not yet banner-acknowledged) client
/// handshakes during ramp-up against an **external** server whose listen
/// backlog we do not control (std's `TcpListener::bind` hardcodes 128; a
/// thousand-connection burst overflowing it trips the kernel's SYN-flood
/// defenses). In-process servers are bound with
/// [`NetConfig::listen_backlog`] sized past the whole burst, so their
/// ramp is unpaced — every client connects at once.
const CONNECT_WINDOW: usize = 64;

/// Failures of the harness itself (the run not starting), as opposed to
/// scoring violations (the run starting and the server misbehaving).
#[derive(Debug)]
pub enum LoadError {
    /// Trace generation failed.
    Bench(crate::BenchError),
    /// Setup-phase socket failure (bind/connect/onboarding).
    Io(std::io::Error),
    /// The server answered the setup phase with something unexpected.
    Setup(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Bench(e) => write!(f, "{e}"),
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Setup(what) => write!(f, "setup failed: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<crate::BenchError> for LoadError {
    fn from(e: crate::BenchError) -> Self {
        LoadError::Bench(e)
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Per-tenant reconciliation row of a [`LoadReport`].
#[derive(Clone, Debug)]
pub struct LoadTenantScore {
    /// Tenant id.
    pub id: String,
    /// Registered total budget.
    pub budget: f64,
    /// ε one admitted fit debits.
    pub charge: f64,
    /// Fit requests sent to this tenant across all connections.
    pub fits_requested: usize,
    /// Fit receipts observed (`ok fit …`).
    pub fits_admitted: usize,
    /// Typed budget-exhausted rejections observed.
    pub fits_rejected: usize,
    /// The order-independent admission floor `min(⌊budget admits⌋, requested)`.
    pub expected_admitted: usize,
    /// Cumulative spend the final `stats` reported.
    pub spent_reported: f64,
    /// Fold of the observed fit receipts.
    pub receipt_sum: f64,
    /// Answer requests sent.
    pub answers_requested: usize,
    /// Answer batches served.
    pub answers_ok: usize,
    /// Answer batches that failed with the (tolerated) unknown-estimate
    /// race.
    pub answers_raced: usize,
}

/// The outcome of one loopback load-test run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Scenario the trace came from.
    pub scenario: String,
    /// Trace seed.
    pub seed: u64,
    /// Concurrent client connections held open for the whole run.
    pub connections: usize,
    /// Requests written across all connections.
    pub requests: usize,
    /// Replies received across all connections.
    pub replies: usize,
    /// Connections the server shed with `err server-busy` (in-process
    /// servers only; must be zero for a sized run).
    pub shed: u64,
    /// Per-tenant reconciliation.
    pub tenants: Vec<LoadTenantScore>,
    /// Every violation, in detection order; empty means the run passed.
    pub violations: Vec<String>,
    /// Client-measured p50/p95/p99 latency + sustained throughput.
    pub timing: SimTiming,
}

impl LoadReport {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Full machine-readable report.
    pub fn to_json(&self) -> String {
        let count = |v: usize| JsonValue::Num(v as f64);
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                JsonValue::Obj(vec![
                    ("id".into(), JsonValue::Str(t.id.clone())),
                    ("budget".into(), JsonValue::Num(t.budget)),
                    ("charge".into(), JsonValue::Num(t.charge)),
                    ("fits_requested".into(), count(t.fits_requested)),
                    ("fits_admitted".into(), count(t.fits_admitted)),
                    ("fits_rejected".into(), count(t.fits_rejected)),
                    ("expected_admitted".into(), count(t.expected_admitted)),
                    ("spent_reported".into(), JsonValue::Num(t.spent_reported)),
                    ("receipt_sum".into(), JsonValue::Num(t.receipt_sum)),
                    ("answers_requested".into(), count(t.answers_requested)),
                    ("answers_ok".into(), count(t.answers_ok)),
                    ("answers_raced".into(), count(t.answers_raced)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            (
                "schema".into(),
                JsonValue::Str("blowfish-loadtest/v1".into()),
            ),
            ("scenario".into(), JsonValue::Str(self.scenario.clone())),
            ("seed".into(), JsonValue::Str(self.seed.to_string())),
            ("connections".into(), count(self.connections)),
            ("requests".into(), count(self.requests)),
            ("replies".into(), count(self.replies)),
            ("shed".into(), count(self.shed as usize)),
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
            ("timing".into(), self.timing_json()),
        ])
        .to_pretty()
    }

    fn timing_json(&self) -> JsonValue {
        let t = &self.timing;
        JsonValue::Obj(vec![
            ("wall_ns".into(), JsonValue::Num(t.wall_ns as f64)),
            (
                "requests_per_sec".into(),
                JsonValue::Num(t.requests_per_sec),
            ),
            ("ns_per_request".into(), JsonValue::Num(t.ns_per_request)),
            ("mean_latency_ns".into(), JsonValue::Num(t.mean_latency_ns)),
            (
                "p50_latency_ns".into(),
                JsonValue::Num(t.p50_latency_ns as f64),
            ),
            (
                "p95_latency_ns".into(),
                JsonValue::Num(t.p95_latency_ns as f64),
            ),
            (
                "p99_latency_ns".into(),
                JsonValue::Num(t.p99_latency_ns as f64),
            ),
        ])
    }

    /// A `bench_gate`-consumable snapshot: the tail-latency and inverse
    /// throughput numbers under `net-<scenario>/<metric>` keys (slash
    /// keys are the gate's extraction rule; `ns_per_request` is gated
    /// instead of `requests_per_sec` because the gate only fails on
    /// increases and a throughput loss is an `ns_per_request` increase).
    pub fn snapshot_json(&self) -> String {
        let group = format!("net-{}", self.scenario);
        let t = &self.timing;
        JsonValue::Obj(vec![
            (
                "schema".into(),
                JsonValue::Str("blowfish-net-snapshot/v1".into()),
            ),
            ("scenario".into(), JsonValue::Str(self.scenario.clone())),
            (
                "connections".into(),
                JsonValue::Num(self.connections as f64),
            ),
            ("requests".into(), JsonValue::Num(self.requests as f64)),
            (
                "results_ns".into(),
                JsonValue::Obj(vec![
                    (
                        format!("{group}/p50_latency_ns"),
                        JsonValue::Num(t.p50_latency_ns as f64),
                    ),
                    (
                        format!("{group}/p95_latency_ns"),
                        JsonValue::Num(t.p95_latency_ns as f64),
                    ),
                    (
                        format!("{group}/p99_latency_ns"),
                        JsonValue::Num(t.p99_latency_ns as f64),
                    ),
                    (
                        format!("{group}/mean_latency_ns"),
                        JsonValue::Num(t.mean_latency_ns),
                    ),
                    (
                        format!("{group}/ns_per_request"),
                        JsonValue::Num(t.ns_per_request),
                    ),
                ]),
            ),
        ])
        .to_pretty()
    }
}

/// The wire policy token that rebuilds a trace tenant's policy graph
/// (the inverse of the trace generator's graph construction).
pub fn policy_token(scenario: &Scenario, family: PolicyFamily) -> String {
    match family {
        PolicyFamily::Line => format!("line:{}", scenario.domain_1d),
        PolicyFamily::ThetaLine { theta } => format!("theta-line:{}:{theta}", scenario.domain_1d),
        PolicyFamily::Grid => format!("grid:{}", scenario.grid_k),
        PolicyFamily::ThetaGrid { theta } => format!("theta-grid:{}:{theta}", scenario.grid_k),
        PolicyFamily::Tree => format!("star:{}", scenario.domain_1d),
    }
}

/// What one reply must look like, carried alongside its request line.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// `ok fit h charged=<charge> …` or the budget-exhausted error.
    Fit { tenant: usize, charge: f64 },
    /// `ok answer <queries> v…` or the unknown-estimate race.
    Answer { tenant: usize, queries: usize },
}

/// One client connection's tally, merged into the report afterward.
#[derive(Clone, Default)]
struct WorkerOutcome {
    latencies: Vec<u64>,
    replies: usize,
    /// Per tenant: (fit_ok, fit_rejected, answer_ok, answer_raced).
    per_tenant: Vec<(usize, usize, usize, usize)>,
    violations: Vec<String>,
}

/// Runs the load test: `connections` concurrent clients replaying
/// `scenario`'s trace against an in-process loopback server (default) or
/// an externally started `blowfish-serve --tcp` at `external`.
pub fn run_load(
    scenario: &Scenario,
    connections: usize,
    external: Option<&str>,
) -> Result<LoadReport, LoadError> {
    if connections == 0 {
        return Err(LoadError::Setup("need at least one connection".into()));
    }
    let trace = generate(scenario)?;

    // In-process server (unless pointed at an external one). The cap
    // leaves headroom for the setup connection only — a sized run must
    // shed nothing — and the listen backlog covers the whole unpaced
    // connect burst.
    let mut server = match external {
        Some(_) => None,
        None => Some(
            TcpServer::bind(
                Arc::new(Service::new()),
                "127.0.0.1:0",
                NetConfig {
                    max_connections: connections + 1,
                    idle_timeout: Duration::from_secs(600),
                    listen_backlog: connections + CONNECT_WINDOW,
                },
            )
            .map_err(LoadError::Io)?,
        ),
    };
    let addr = match (external, &server) {
        (Some(addr), _) => addr.to_string(),
        (None, Some(server)) => server.local_addr().to_string(),
        (None, None) => unreachable!(),
    };
    // External servers keep the paced handshake ramp (their backlog is
    // unknown); in-process ones absorb the burst in the kernel queue.
    let connect_window = match external {
        Some(_) => CONNECT_WINDOW,
        None => connections.max(CONNECT_WINDOW),
    };

    // Setup connection: onboard the tenant population over the wire
    // (exercising the codec's client half), and later collect `stats`.
    let mut setup = connect(&addr)?;
    for tenant in &trace.tenants {
        let line = Codec::encode_request(&wire::Request::Tenant {
            config: Box::new(tenant.config.clone()),
            policy_token: policy_token(scenario, tenant.family),
        });
        let reply = roundtrip(&mut setup, &line)?;
        if !reply.starts_with(&format!("ok tenant {} ", tenant.config.id)) {
            return Err(LoadError::Setup(format!(
                "onboarding {} got: {reply}",
                tenant.config.id
            )));
        }
    }

    // Index tenants and deal the request stream round-robin onto the
    // client connections.
    let index_of: HashMap<&str, usize> = trace
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| (t.config.id.as_str(), i))
        .collect();
    let mut batches: Vec<Vec<(String, Expect)>> = vec![Vec::new(); connections];
    for (i, request) in trace.requests.iter().enumerate() {
        let (tenant, expect) = match request {
            Request::Fit { tenant, .. } => {
                let t = index_of[tenant.as_str()];
                (
                    tenant,
                    Expect::Fit {
                        tenant: t,
                        charge: trace.tenants[t].charge_per_fit(),
                    },
                )
            }
            Request::Answer {
                tenant, queries, ..
            } => (
                tenant,
                Expect::Answer {
                    tenant: index_of[tenant.as_str()],
                    queries: queries.len(),
                },
            ),
            other => {
                return Err(LoadError::Setup(format!(
                    "trace contains an unservable request kind: {other:?}"
                )))
            }
        };
        let _ = tenant;
        let line = Codec::encode_request(&wire::Request::from(request));
        batches[i % connections].push((line, expect));
    }

    // Launch every client; the barrier guarantees all `connections`
    // sockets are open (banner consumed) before any request is written.
    let barrier = Arc::new(Barrier::new(connections + 1));
    let connected = Arc::new(AtomicUsize::new(0));
    let tenant_count = trace.tenants.len();
    let mut workers = Vec::with_capacity(connections);
    for (c, batch) in batches.into_iter().enumerate() {
        let (addr, barrier) = (addr.clone(), Arc::clone(&barrier));
        let connected = Arc::clone(&connected);
        workers.push(
            std::thread::Builder::new()
                .name(format!("load-client-{c}"))
                .stack_size(256 * 1024)
                .spawn(move || {
                    client_worker(
                        &addr,
                        c,
                        batch,
                        tenant_count,
                        &barrier,
                        &connected,
                        connect_window,
                    )
                })
                .map_err(LoadError::Io)?,
        );
    }
    barrier.wait();
    let started = Instant::now();
    let outcomes: Vec<WorkerOutcome> = workers
        .into_iter()
        .map(|w| {
            w.join().unwrap_or_else(|_| {
                let mut failed = WorkerOutcome::default();
                failed.violations.push("client worker panicked".into());
                failed
            })
        })
        .collect();
    let wall_ns = started.elapsed().as_nanos() as u64;

    // Merge client tallies.
    let mut violations = Vec::new();
    let mut latencies = Vec::new();
    let mut replies = 0usize;
    let mut tallies = vec![(0usize, 0usize, 0usize, 0usize); tenant_count];
    for outcome in outcomes {
        latencies.extend(outcome.latencies);
        replies += outcome.replies;
        violations.extend(outcome.violations);
        for (t, counts) in outcome.per_tenant.iter().enumerate() {
            tallies[t].0 += counts.0;
            tallies[t].1 += counts.1;
            tallies[t].2 += counts.2;
            tallies[t].3 += counts.3;
        }
    }
    if replies != trace.requests.len() {
        violations.push(format!(
            "{} replies for {} requests",
            replies,
            trace.requests.len()
        ));
    }

    // Final accounting over the still-open setup connection.
    let stats_reply = roundtrip(&mut setup, "stats")?;
    let stats = parse_stats(&stats_reply)
        .ok_or_else(|| LoadError::Setup(format!("unparseable stats reply: {stats_reply}")))?;
    let _ = setup.stream.write_all(b"quit\n");

    let mut tenants = Vec::with_capacity(tenant_count);
    for (t, tenant) in trace.tenants.iter().enumerate() {
        let id = tenant.config.id.as_str();
        let (fits_admitted, fits_rejected, answers_ok, answers_raced) = tallies[t];
        let budget = tenant.config.budget.value();
        let charge = tenant.charge_per_fit();
        let fits_requested = trace
            .requests
            .iter()
            .filter(|r| matches!(r, Request::Fit { tenant, .. } if tenant == id))
            .count();
        let answers_requested = trace
            .requests
            .iter()
            .filter(|r| matches!(r, Request::Answer { tenant, .. } if tenant == id))
            .count();

        // Order-independent oracle: every fit charges the same ε, so the
        // ledger's check-and-debit admits exactly the same count in any
        // interleaving.
        let mut oracle_spent = 0.0f64;
        let mut expected_admitted = 0usize;
        for _ in 0..fits_requested {
            if oracle_spent + charge <= budget + overdraw_slack(budget) {
                oracle_spent += charge;
                expected_admitted += 1;
            }
        }
        if fits_admitted != expected_admitted {
            violations.push(format!(
                "{id}: {fits_admitted} fits admitted under concurrency, the \
                 order-independent floor is exactly {expected_admitted}"
            ));
        }
        if fits_admitted + fits_rejected != fits_requested {
            violations.push(format!(
                "{id}: {fits_admitted} + {fits_rejected} fit outcomes for \
                 {fits_requested} fit requests"
            ));
        }
        if answers_ok + answers_raced != answers_requested {
            violations.push(format!(
                "{id}: {answers_ok} + {answers_raced} answer outcomes for \
                 {answers_requested} answer requests"
            ));
        }

        // Bit-for-bit reconciliation: fold the receipts (all equal to
        // `charge`, so the fold is the same f64 sequence the ledger ran)
        // and compare exactly against the reported spend.
        let mut receipt_sum = 0.0f64;
        for _ in 0..fits_admitted {
            receipt_sum += charge;
        }
        let Some(&(spent_reported, stats_fits)) = stats.get(id) else {
            violations.push(format!("{id}: missing from the final stats reply"));
            continue;
        };
        if spent_reported != receipt_sum {
            violations.push(format!(
                "{id}: ledger spend {spent_reported} does not reconcile to the \
                 receipt fold {receipt_sum} (diff {:e})",
                spent_reported - receipt_sum
            ));
        }
        if stats_fits != fits_admitted {
            violations.push(format!(
                "{id}: stats reports {stats_fits} fits, clients hold {fits_admitted} receipts"
            ));
        }

        tenants.push(LoadTenantScore {
            id: id.to_string(),
            budget,
            charge,
            fits_requested,
            fits_admitted,
            fits_rejected,
            expected_admitted,
            spent_reported,
            receipt_sum,
            answers_requested,
            answers_ok,
            answers_raced,
        });
    }

    // In-process servers must have shed nothing and must drain cleanly.
    let mut shed = 0;
    if let Some(server) = server.as_mut() {
        shed = server
            .stats()
            .shed
            .load(std::sync::atomic::Ordering::SeqCst);
        if shed > 0 {
            violations.push(format!(
                "server shed {shed} connections under the sized cap"
            ));
        }
        if !server.shutdown(Duration::from_secs(30)) {
            violations.push("server failed to drain within the shutdown budget".into());
        }
    }

    Ok(LoadReport {
        scenario: scenario.name.clone(),
        seed: trace.seed,
        connections,
        requests: trace.requests.len(),
        replies,
        shed,
        tenants,
        violations,
        timing: SimTiming::from_latencies(wall_ns, &mut latencies),
    })
}

/// The outcome of one mostly-idle connection-scaling run
/// ([`run_idle`]): thousands of open-but-silent connections, a handful
/// of probe requests measuring latency under that load, and the
/// reactor's own counters proving the idle mass costs neither threads
/// nor wakeups.
#[derive(Clone, Debug)]
pub struct IdleReport {
    /// Idle connections held open for the whole run (the probe
    /// connection is extra).
    pub connections: usize,
    /// Available cores at run time (the thread bound is `2 × cores`).
    pub cores: usize,
    /// Server-side thread count (acceptor + event loops), measured as
    /// the `/proc/self/status` `Threads:` delta across server startup;
    /// `None` where that interface does not exist.
    pub server_threads: Option<usize>,
    /// Growth of the reactor's spurious-wakeup counter over the idle
    /// dwell — must be zero: silent connections generate no events.
    pub spurious_delta: u64,
    /// Live connections the server reported at peak.
    pub live_reported: u64,
    /// Probe-measured request latency while the idle mass was open.
    pub timing: SimTiming,
    /// Every violation, in detection order; empty means the run passed.
    pub violations: Vec<String>,
}

impl IdleReport {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Server threads per thousand connections (the gateable inverse of
    /// conns-per-thread: `bench_gate` fails on increases, and a scaling
    /// regression — more threads for the same connection count — is an
    /// increase here). `None` when the thread count could not be
    /// measured.
    pub fn threads_per_kconn(&self) -> Option<f64> {
        self.server_threads
            .map(|t| t as f64 * 1000.0 / self.connections as f64)
    }

    /// Full machine-readable report.
    pub fn to_json(&self) -> String {
        JsonValue::Obj(vec![
            ("schema".into(), JsonValue::Str("blowfish-idle/v1".into())),
            (
                "connections".into(),
                JsonValue::Num(self.connections as f64),
            ),
            ("cores".into(), JsonValue::Num(self.cores as f64)),
            (
                "server_threads".into(),
                match self.server_threads {
                    Some(t) => JsonValue::Num(t as f64),
                    None => JsonValue::Null,
                },
            ),
            (
                "spurious_delta".into(),
                JsonValue::Num(self.spurious_delta as f64),
            ),
            (
                "live_reported".into(),
                JsonValue::Num(self.live_reported as f64),
            ),
            (
                "violations".into(),
                JsonValue::Arr(
                    self.violations
                        .iter()
                        .map(|v| JsonValue::Str(v.clone()))
                        .collect(),
                ),
            ),
        ])
        .to_pretty()
    }

    /// A `bench_gate`-consumable snapshot under `net-idle-reactor/…`
    /// keys: probe tail latencies plus `threads_per_kconn` (gate the
    /// latter with `--min-ns 0` — it is a ratio far below the gate's
    /// default small-baseline skip).
    pub fn snapshot_json(&self) -> String {
        let group = "net-idle-reactor";
        let t = &self.timing;
        let mut results = vec![
            (
                format!("{group}/p50_latency_ns"),
                JsonValue::Num(t.p50_latency_ns as f64),
            ),
            (
                format!("{group}/p95_latency_ns"),
                JsonValue::Num(t.p95_latency_ns as f64),
            ),
            (
                format!("{group}/p99_latency_ns"),
                JsonValue::Num(t.p99_latency_ns as f64),
            ),
            (
                format!("{group}/mean_latency_ns"),
                JsonValue::Num(t.mean_latency_ns),
            ),
        ];
        if let Some(ratio) = self.threads_per_kconn() {
            results.push((format!("{group}/threads_per_kconn"), JsonValue::Num(ratio)));
        }
        JsonValue::Obj(vec![
            (
                "schema".into(),
                JsonValue::Str("blowfish-net-snapshot/v1".into()),
            ),
            ("scenario".into(), JsonValue::Str("idle-reactor".into())),
            (
                "connections".into(),
                JsonValue::Num(self.connections as f64),
            ),
            ("results_ns".into(), JsonValue::Obj(results)),
        ])
        .to_pretty()
    }
}

/// Runs the mostly-idle connection-scaling test against an in-process
/// server: open `connections` sockets, leave them all silent, and prove
/// the idle mass is cheap — server thread count stays ≤ 2 × cores
/// (measured via `/proc/self/status`), the reactor's spurious-wakeup
/// counter does not move during a `dwell` of silence, and `probes` probe
/// requests served *through* the idle mass come back correct with sane
/// latency.
pub fn run_idle(
    connections: usize,
    probes: usize,
    dwell: Duration,
) -> Result<IdleReport, LoadError> {
    if connections == 0 || probes == 0 {
        return Err(LoadError::Setup(
            "need at least one connection and one probe".into(),
        ));
    }
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let threads_before = proc_thread_count();
    let mut server = TcpServer::bind(
        Arc::new(Service::new()),
        "127.0.0.1:0",
        NetConfig {
            max_connections: connections + 2,
            idle_timeout: Duration::from_secs(600),
            listen_backlog: connections + CONNECT_WINDOW,
        },
    )
    .map_err(LoadError::Io)?;
    let addr = server.local_addr().to_string();
    let mut violations = Vec::new();

    // The idle mass: one fd per connection (no reader clones — fd budget
    // matters at this scale), banner consumed so each is fully admitted.
    let mut idle_conns = Vec::with_capacity(connections);
    for i in 0..connections {
        let stream = TcpStream::connect(&addr).map_err(LoadError::Io)?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(LoadError::Io)?;
        let mut stream = stream;
        let banner = read_line_raw(&mut stream).map_err(LoadError::Io)?;
        if !banner.starts_with("ok blowfish/1") {
            return Err(LoadError::Setup(format!(
                "idle connection {i} got banner: {banner}"
            )));
        }
        idle_conns.push(stream);
    }

    // Thread census with the full connection count open: this is the
    // acceptor + O(cores) event loops, regardless of `connections`.
    let threads_with_load = proc_thread_count();
    let server_threads = match (threads_before, threads_with_load) {
        (Some(before), Some(with)) => Some(with.saturating_sub(before)),
        _ => None,
    };
    if let Some(server_threads) = server_threads {
        if server_threads > 2 * cores {
            violations.push(format!(
                "{server_threads} server threads for {connections} idle connections \
                 exceeds the 2 × cores = {} bound",
                2 * cores
            ));
        }
    }

    // Counter baseline, then the silent dwell: no idle connection may
    // cost a single readiness event.
    let mut probe = connect(&addr)?;
    let before = net_stats(&mut probe)?;
    std::thread::sleep(dwell);
    let after = net_stats(&mut probe)?;
    let spurious_delta =
        (after.spurious_wakeups as i64 - before.spurious_wakeups as i64).max(0) as u64;
    if spurious_delta != 0 {
        violations.push(format!(
            "{spurious_delta} spurious wakeups during {dwell:?} of silence \
             across {connections} idle connections"
        ));
    }
    let live_reported = after.live;
    if live_reported != (connections + 1) as u64 {
        violations.push(format!(
            "server reports {live_reported} live connections, \
             {connections} idle + 1 probe are open"
        ));
    }

    // Probe latency through the idle mass.
    let mut latencies = Vec::with_capacity(probes);
    let started = Instant::now();
    for _ in 0..probes {
        let sent = Instant::now();
        let reply = roundtrip(&mut probe, "help")?;
        if !reply.starts_with("ok help blowfish/1") {
            violations.push(format!("probe got unexpected reply: {reply}"));
            break;
        }
        latencies.push(sent.elapsed().as_nanos() as u64);
    }
    let wall_ns = started.elapsed().as_nanos() as u64;

    let shed = server.stats().shed.load(Ordering::SeqCst);
    if shed > 0 {
        violations.push(format!(
            "server shed {shed} connections under the sized cap"
        ));
    }
    let _ = probe.stream.write_all(b"quit\n");
    drop(probe);
    drop(idle_conns);
    if !server.shutdown(Duration::from_secs(30)) {
        violations.push("server failed to drain within the shutdown budget".into());
    }

    Ok(IdleReport {
        connections,
        cores,
        server_threads,
        spurious_delta,
        live_reported,
        timing: SimTiming::from_latencies(wall_ns, &mut latencies),
        violations,
    })
}

/// The `Threads:` row of `/proc/self/status` (`None` off Linux or on
/// parse failure).
fn proc_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
}

/// The reactor-visible counters a `stats net` reply carries.
#[derive(Clone, Copy, Debug, Default)]
struct NetCounters {
    live: u64,
    spurious_wakeups: u64,
}

/// Issues `stats net` on `client` and parses the counters out of the
/// `ok stats net model=… k=v …` reply.
fn net_stats(client: &mut Client) -> Result<NetCounters, LoadError> {
    let reply = roundtrip(client, "stats net")?;
    if !reply.starts_with("ok stats net ") {
        return Err(LoadError::Setup(format!(
            "unexpected stats net reply: {reply}"
        )));
    }
    let mut counters = NetCounters::default();
    let mut seen = 0;
    for field in reply.split(' ') {
        if let Some(v) = field.strip_prefix("live=") {
            counters.live = v.parse().map_err(|_| bad_counter(&reply))?;
            seen += 1;
        } else if let Some(v) = field.strip_prefix("spurious_wakeups=") {
            counters.spurious_wakeups = v.parse().map_err(|_| bad_counter(&reply))?;
            seen += 1;
        }
    }
    if seen != 2 {
        return Err(bad_counter(&reply));
    }
    Ok(counters)
}

fn bad_counter(reply: &str) -> LoadError {
    LoadError::Setup(format!("unparseable stats net counters: {reply}"))
}

/// Reads one `\n`-terminated line straight off a socket (no buffered
/// reader, no fd clone — for the idle mass where fds are the budget).
fn read_line_raw(stream: &mut TcpStream) -> std::io::Result<String> {
    use std::io::Read;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 || byte[0] == b'\n' {
            return Ok(String::from_utf8_lossy(&line).into_owned());
        }
        line.push(byte[0]);
    }
}

/// A connected client with the banner already consumed.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: &str) -> Result<Client, LoadError> {
    // Under a mass connect the listener's SYN queue may defer us; retry
    // briefly rather than failing the whole run on one slow connect.
    let deadline = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(LoadError::Io(e)),
        }
    };
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(LoadError::Io)?;
    let reader_stream = stream.try_clone().map_err(LoadError::Io)?;
    let mut client = Client {
        stream,
        reader: BufReader::new(reader_stream),
    };
    let mut banner = String::new();
    client
        .reader
        .read_line(&mut banner)
        .map_err(LoadError::Io)?;
    if !banner.starts_with("ok blowfish/1") {
        return Err(LoadError::Setup(format!("unexpected banner: {banner}")));
    }
    Ok(client)
}

fn roundtrip(client: &mut Client, line: &str) -> Result<String, LoadError> {
    client
        .stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(LoadError::Io)?;
    let mut reply = String::new();
    client.reader.read_line(&mut reply).map_err(LoadError::Io)?;
    Ok(reply.trim_end().to_string())
}

/// One client connection: wait for a slot in the connect ramp (external
/// servers only — see `connect_window` in [`run_load`]), open, sync on
/// the barrier, replay the batch measuring and validating every reply,
/// quit.
fn client_worker(
    addr: &str,
    c: usize,
    batch: Vec<(String, Expect)>,
    tenants: usize,
    barrier: &Barrier,
    connected: &AtomicUsize,
    connect_window: usize,
) -> WorkerOutcome {
    let mut outcome = WorkerOutcome {
        per_tenant: vec![(0, 0, 0, 0); tenants],
        ..WorkerOutcome::default()
    };
    // Pace the ramp: connect only once all but `connect_window` of the
    // lower-indexed clients have finished their handshake, so at most
    // `connect_window` handshakes are ever in flight at once.
    while connected
        .load(Ordering::Acquire)
        .saturating_add(connect_window)
        <= c
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    let client = connect(addr);
    // Count failures too, or one dead slot would stall the entire ramp.
    connected.fetch_add(1, Ordering::Release);
    let mut client = match client {
        Ok(client) => client,
        Err(e) => {
            // Sync anyway so the other clients are not deadlocked on the
            // barrier by this failure.
            barrier.wait();
            outcome.violations.push(format!("connect failed: {e}"));
            return outcome;
        }
    };
    barrier.wait();
    for (line, expect) in &batch {
        let started = Instant::now();
        let reply = match roundtrip(&mut client, line) {
            Ok(reply) if !reply.is_empty() => reply,
            Ok(_) => {
                outcome
                    .violations
                    .push(format!("connection closed mid-run before: {line}"));
                return outcome;
            }
            Err(e) => {
                outcome
                    .violations
                    .push(format!("dropped reply ({e}): {line}"));
                return outcome;
            }
        };
        outcome.latencies.push(started.elapsed().as_nanos() as u64);
        outcome.replies += 1;
        validate_reply(&reply, *expect, line, &mut outcome);
    }
    let _ = client.stream.write_all(b"quit\n");
    outcome
}

/// Holds one reply against its request's contract.
fn validate_reply(reply: &str, expect: Expect, line: &str, outcome: &mut WorkerOutcome) {
    match expect {
        Expect::Fit { tenant, charge } => {
            if reply.starts_with("ok fit ") {
                match parse_kv(reply, "charged=") {
                    Some(charged) if charged == charge => {
                        // Receipt accounting fields must also be finite
                        // numbers (corruption check).
                        let intact = parse_kv(reply, "spent=").is_some_and(f64::is_finite)
                            && parse_kv(reply, "remaining=").is_some_and(f64::is_finite);
                        if intact {
                            outcome.per_tenant[tenant].0 += 1;
                        } else {
                            outcome
                                .violations
                                .push(format!("corrupt fit receipt: {reply}"));
                        }
                    }
                    Some(charged) => outcome.violations.push(format!(
                        "fit charged {charged}, expected exactly {charge}: {reply}"
                    )),
                    None => outcome
                        .violations
                        .push(format!("corrupt fit receipt: {reply}")),
                }
            } else if reply.starts_with("err ") && reply.contains("budget exhausted") {
                outcome.per_tenant[tenant].1 += 1;
            } else {
                outcome
                    .violations
                    .push(format!("unexpected fit reply for {line}: {reply}"));
            }
        }
        Expect::Answer { tenant, queries } => {
            if let Some(rest) = reply.strip_prefix("ok answer ") {
                let mut fields = rest.split(' ');
                let count: Option<usize> = fields.next().and_then(|n| n.parse().ok());
                let values: Vec<f64> = fields.filter_map(|v| v.parse().ok()).collect();
                if count == Some(queries)
                    && values.len() == queries
                    && values.iter().all(|v| v.is_finite())
                {
                    outcome.per_tenant[tenant].2 += 1;
                } else {
                    outcome.violations.push(format!(
                        "corrupt answer batch (want {queries} finite values): {reply}"
                    ));
                }
            } else if reply.starts_with("err ") && reply.contains("no estimate stored") {
                // Legitimate race: this tenant's first fit may still be
                // in flight on another connection.
                outcome.per_tenant[tenant].3 += 1;
            } else {
                outcome
                    .violations
                    .push(format!("unexpected answer reply for {line}: {reply}"));
            }
        }
    }
}

/// Pulls the f64 after `key` out of a receipt line.
fn parse_kv(reply: &str, key: &str) -> Option<f64> {
    let start = reply.find(key)? + key.len();
    let rest = &reply[start..];
    let end = rest.find(' ').unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses `ok stats builds=… tenants=… | id spent=… remaining=… fits=… …`
/// into `{id: (spent, fits)}`.
fn parse_stats(reply: &str) -> Option<HashMap<String, (f64, usize)>> {
    if !reply.starts_with("ok stats ") {
        return None;
    }
    let mut out = HashMap::new();
    for row in reply.split(" | ").skip(1) {
        let mut fields = row.split(' ');
        let id = fields.next()?.to_string();
        let mut spent = None;
        let mut fits = None;
        for field in fields {
            if let Some(v) = field.strip_prefix("spent=") {
                spent = v.parse().ok();
            } else if let Some(v) = field.strip_prefix("fits=") {
                fits = v.parse().ok();
            }
        }
        out.insert(id, (spent?, fits?));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that starts a socket server: `run_idle`'s
    /// thread census counts every thread in the process, so it must not
    /// overlap another test's server or load clients.
    #[cfg(target_os = "linux")]
    static SOCKETS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(target_os = "linux")]
    fn sockets() -> std::sync::MutexGuard<'static, ()> {
        SOCKETS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A scaled-down exhaustion scenario: tight budgets so both fit
    /// outcomes occur, bursty arrivals, small enough for `cargo test`.
    fn small_scenario() -> Scenario {
        let mut scenario = Scenario::find("exhaustion-tight").expect("catalog scenario");
        scenario.requests = 160;
        scenario
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn loopback_load_test_reconciles_exactly_under_both_models() {
        let _sockets = sockets();
        let scenario = small_scenario();
        let report = run_load(&scenario, 24, None).unwrap();
        assert!(report.passed(), "{:#?}", report.violations);
        assert_eq!(report.requests, 160);
        assert_eq!(report.replies, 160);
        assert_eq!(report.shed, 0);
        let timing = &report.timing;
        assert!(timing.p50_latency_ns <= timing.p95_latency_ns);
        assert!(timing.p95_latency_ns <= timing.p99_latency_ns);
        assert!(timing.requests_per_sec > 0.0);
        assert!(timing.ns_per_request > 0.0);
        let mut saw_rejection = false;
        for t in &report.tenants {
            // Uniform ε = 0.5: admission cuts at exactly ⌊budget/ε⌋ even
            // under concurrency.
            let floor = (t.budget / t.charge).floor() as usize;
            assert_eq!(t.fits_admitted, floor.min(t.fits_requested), "{}", t.id);
            assert_eq!(t.spent_reported, t.fits_admitted as f64 * t.charge);
            saw_rejection |= t.fits_rejected > 0;
        }
        assert!(saw_rejection, "the tight scenario must exercise rejections");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn snapshot_json_exposes_gateable_metrics() {
        let _sockets = sockets();
        let scenario = small_scenario();
        let report = run_load(&scenario, 8, None).unwrap();
        assert!(report.passed(), "{:#?}", report.violations);
        let snapshot = JsonValue::parse(&report.snapshot_json()).unwrap();
        let metrics = crate::report::snapshot::extract_metrics(&snapshot, None);
        for metric in [
            "p50_latency_ns",
            "p95_latency_ns",
            "p99_latency_ns",
            "mean_latency_ns",
            "ns_per_request",
        ] {
            let key = format!("net-{}/{metric}", scenario.name);
            assert!(
                metrics.get(&key).is_some_and(|v| *v > 0.0),
                "missing metric {key} in {metrics:?}"
            );
        }
        // The full report parses too and carries the violation list.
        let full = JsonValue::parse(&report.to_json()).unwrap();
        assert!(full.get("violations").is_some());
        assert!(full.get("timing").is_some());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn idle_connections_are_thread_and_wakeup_free() {
        // Scaled down for `cargo test`; CI runs 4096 via the CLI.
        let _sockets = sockets();
        let report = run_idle(128, 32, Duration::from_millis(300)).unwrap();
        assert!(report.passed(), "{:#?}", report.violations);
        assert_eq!(report.connections, 128);
        assert_eq!(report.live_reported, 129);
        assert_eq!(report.spurious_delta, 0);
        let threads = report.server_threads.expect("proc census on linux");
        assert!(
            threads <= 2 * report.cores,
            "{threads} threads for {} cores",
            report.cores
        );
        assert!(report.threads_per_kconn().unwrap() > 0.0);
        // Both JSON faces parse; the snapshot carries the gateable keys
        // under the `net-idle-reactor` group `BENCH_net.json` holds.
        let full = JsonValue::parse(&report.to_json()).unwrap();
        assert!(full.get("spurious_delta").is_some());
        let snapshot = JsonValue::parse(&report.snapshot_json()).unwrap();
        let metrics = crate::report::snapshot::extract_metrics(&snapshot, None);
        assert!(metrics.contains_key("net-idle-reactor/p99_latency_ns"));
        assert!(metrics.contains_key("net-idle-reactor/threads_per_kconn"));
    }

    #[test]
    fn policy_tokens_cover_every_family() {
        let scenario = small_scenario();
        for family in [
            PolicyFamily::Line,
            PolicyFamily::ThetaLine { theta: 4 },
            PolicyFamily::Grid,
            PolicyFamily::ThetaGrid { theta: 2 },
            PolicyFamily::Tree,
        ] {
            let token = policy_token(&scenario, family);
            // Every token must parse back through the wire codec.
            let line = format!("tenant t policy={token} eps=0.5 budget=1 data=uniform:0");
            let decoded = Codec::new().decode(&line);
            assert!(decoded.is_ok(), "{token}: {decoded:?}");
        }
    }

    #[test]
    fn stats_and_receipt_parsers_round_trip() {
        let stats = parse_stats(
            "ok stats builds=3 tenants=2 | a spent=1.5 remaining=0.5 fits=3 estimates=1 \
             | b spent=0 remaining=9 fits=0 estimates=0",
        )
        .unwrap();
        assert_eq!(stats["a"], (1.5, 3));
        assert_eq!(stats["b"], (0.0, 0));
        assert!(parse_stats("err nope").is_none());
        assert_eq!(
            parse_kv("ok fit h charged=0.5 spent=1 remaining=0.5", "charged="),
            Some(0.5)
        );
        assert_eq!(parse_kv("ok fit h", "charged="), None);
    }
}
