//! The traced, in-process replay of a workload's request stream, with a
//! span around each call into a layer.
//!
//! * Pass 1 runs the wire path against a real `Service`: `Codec::decode`,
//!   `wire::serve_request` (which enters `Service::handle`) and
//!   `Codec::encode`.
//! * Pass 2 mirrors what `Service::handle` and `Session::fit` do inside the
//!   service, one call at a time: `Session::plan` / `Session::mechanism`,
//!   `Ledger::charge`, `Mechanism::fit` and `Estimate::answer_many`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use blowfish_core::{DataVector, FsyncPolicy, Ledger, LedgerDurability};
use blowfish_engine::wire::{self, Codec, Request};
use blowfish_engine::{PlanCache, Service, Session};
use blowfish_strategies::{Estimate, Mechanism};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::client::Checker;
use crate::trace::{self_times, Span, Tracer};
use crate::workload::{Kind, Req};

/// Opens a ledger the way `blowfish-serve` opens it: in memory, or durable
/// under `dir` with per-charge fsync and the default snapshot cadence.
pub fn open_ledger(durable_dir: Option<&Path>) -> Result<Ledger, String> {
    match durable_dir {
        None => Ok(Ledger::new()),
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let durability = LedgerDurability {
                fsync: FsyncPolicy::PerCharge,
                ..LedgerDurability::default()
            };
            Ledger::durable(dir, durability)
                .map(|(ledger, _)| ledger)
                .map_err(|e| e.to_string())
        }
    }
}

fn decode(line: &str) -> Request {
    Codec::new()
        .decode(line.trim_end())
        .expect("generated lines decode")
        .expect("generated lines are requests")
}

/// Pass 1 result: the spans, the stream's wall time, and reply bytes.
pub struct WirePass {
    pub tracer: Tracer,
    /// Seconds spent on the stream part (setup excluded).
    pub stream_s: f64,
    /// CPU seconds the replaying thread spent on the stream part.
    pub stream_cpu_s: f64,
    pub reply_bytes: u64,
    pub replies: usize,
}

/// Pass 1. Requests `0..setup_len` are the setup; spans carry the request
/// index. Every reply goes through `checker`.
pub fn wire_pass(
    reqs: &[&Req],
    setup_len: usize,
    durable_dir: Option<&Path>,
    traced: bool,
    checker: &mut Checker,
) -> Result<WirePass, String> {
    let service = Service::with_ledger(Arc::new(open_ledger(durable_dir)?));
    let codec = Codec::new();
    let mut tracer = Tracer::new(traced);
    let mut reply_bytes = 0;
    let mut replies = 0;
    let mut stream_start = Instant::now();
    let mut cpu_start = 0.0;
    for (i, req) in reqs.iter().enumerate() {
        if i == setup_len {
            stream_start = Instant::now();
            cpu_start = crate::client::thread_cpu_s()?;
        }
        let line = req.line.trim_end();
        let reply = tracer.span("request", i, |t| {
            let decoded = t.span("wire.decode", i, |_| codec.decode(line));
            let request = decoded.expect("generated lines decode").expect("a request");
            let served = t.span("service.serve", i, |_| {
                wire::serve_request(&service, &request)
            });
            t.span("wire.encode", i, |_| match &served {
                Ok(response) => Codec::encode(response),
                Err(e) => Codec::encode_error(e),
            })
        });
        checker.check(req, &reply);
        if i >= setup_len {
            reply_bytes += reply.len() as u64 + 1;
            replies += 1;
        }
    }
    let stream_s = stream_start.elapsed().as_secs_f64();
    let stream_cpu_s = crate::client::thread_cpu_s()? - cpu_start;
    service.ledger().flush().map_err(|e| e.to_string())?;
    Ok(WirePass {
        tracer,
        stream_s,
        stream_cpu_s,
        reply_bytes,
        replies,
    })
}

/// Pass 2 result.
pub struct MirrorPass {
    pub tracer: Tracer,
    /// Plan lookups during the stream that built nothing / built something.
    pub warm_lookups: usize,
    pub cold_lookups: usize,
    /// Span ids of cold plan lookups (setup and stream).
    pub cold_spans: Vec<usize>,
    pub charges: usize,
    pub admitted: usize,
    /// WAL growth of each admitted charge that did not trigger a snapshot.
    pub wal_bytes: Vec<u64>,
    pub fitted_cells: u64,
    pub answered_queries: u64,
    pub total_builds: usize,
}

struct MirrorTenant {
    session: Session,
    data: DataVector,
    estimate: Option<Arc<Estimate>>,
}

/// Pass 2: the service's internals, call by call, in the order
/// `Service::handle` and `Session::fit` make them.
pub fn mirror_pass(
    reqs: &[&Req],
    setup_len: usize,
    durable_dir: Option<&Path>,
) -> Result<MirrorPass, String> {
    let cache = Arc::new(PlanCache::new());
    let ledger = open_ledger(durable_dir)?;
    let mut tenants: HashMap<String, MirrorTenant> = HashMap::new();
    let mut tracer = Tracer::new(true);
    let mut out = MirrorPass {
        tracer: Tracer::new(false),
        warm_lookups: 0,
        cold_lookups: 0,
        cold_spans: Vec::new(),
        charges: 0,
        admitted: 0,
        wal_bytes: Vec::new(),
        fitted_cells: 0,
        answered_queries: 0,
        total_builds: 0,
    };
    let wal_len = |l: &Ledger| l.durability_stats().map_or(0, |d| d.wal_bytes);
    let t = &mut tracer;
    for (i, req) in reqs.iter().enumerate() {
        let in_stream = i >= setup_len;
        match decode(&req.line) {
            Request::Tenant { config, .. } => {
                let session = t.span("onboard", i, |_| {
                    let session =
                        Session::with_cache(&config.graph, config.eps, Arc::clone(&cache));
                    ledger
                        .open_or_attach(&config.id, config.budget)
                        .map(|_| session)
                });
                let session = session
                    .map_err(|e| e.to_string())?
                    .map_err(|e| e.to_string())?;
                tenants.insert(
                    config.id.clone(),
                    MirrorTenant {
                        session,
                        data: config.data,
                        estimate: None,
                    },
                );
            }
            Request::Fit {
                tenant,
                spec,
                task,
                seed,
                ..
            } => {
                let mt = tenants.get_mut(&tenant).expect("fits follow onboarding");
                t.span("fit", i, |t| -> Result<(), String> {
                    let builds = cache.stats().total_builds();
                    let plan_span = t.spans.len();
                    // As `Service::handle`: the planner's spec for a default
                    // fit, then `Session::fit`'s own `Session::mechanism`.
                    let (spec_id, mechanism): (String, Arc<dyn Mechanism>) = t
                        .span("plan", i, |_| {
                            let spec = match spec {
                                Some(s) => s,
                                None => *mt.session.plan(task)?.spec(),
                            };
                            mt.session.mechanism(&spec).map(|m| (spec.id(), m))
                        })
                        .map_err(|e| e.to_string())?;
                    if cache.stats().total_builds() != builds {
                        out.cold_spans.push(plan_span);
                        if in_stream {
                            out.cold_lookups += 1;
                        }
                    } else if in_stream {
                        out.warm_lookups += 1;
                    }
                    let wal_before = wal_len(&ledger);
                    let charged = t.span("accounting.charge", i, |_| {
                        ledger.charge(&tenant, &spec_id, mechanism.epsilon())
                    });
                    out.charges += 1;
                    if charged.is_err() {
                        return Ok(());
                    }
                    out.admitted += 1;
                    let wal_after = wal_len(&ledger);
                    if wal_after > wal_before {
                        out.wal_bytes.push(wal_after - wal_before);
                    }
                    let mut rng = StdRng::seed_from_u64(seed);
                    let estimate = t
                        .span("strategies.fit", i, |_| mechanism.fit(&mt.data, &mut rng))
                        .map_err(|e| e.to_string())?;
                    out.fitted_cells += mt.data.counts().len() as u64;
                    mt.estimate = Some(Arc::new(estimate));
                    Ok(())
                })?;
            }
            Request::Answer { tenant, ranges, .. } => {
                let mt = tenants.get(&tenant).expect("answers follow onboarding");
                let estimate = mt.estimate.as_ref().expect("answers follow a fit");
                let domain = mt.session.domain().clone();
                t.span("answer", i, |t| -> Result<(), String> {
                    let queries = ranges
                        .into_iter()
                        .map(|r| r.into_query(&domain))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| e.to_string())?;
                    let values = t
                        .span("strategies.answer", i, |_| estimate.answer_many(&queries))
                        .map_err(|e| e.to_string())?;
                    out.answered_queries += values.len() as u64;
                    Ok(())
                })?;
            }
            other => return Err(format!("unexpected request in the stream: {other:?}")),
        }
    }
    out.total_builds = cache.stats().total_builds();
    out.tracer = tracer;
    ledger.flush().map_err(|e| e.to_string())?;
    Ok(out)
}

/// Durations (µs) of spans named `name` whose request is in the stream and
/// of kind `kind` (any kind when `None`).
pub fn span_us(
    spans: &[Span],
    reqs: &[&Req],
    setup_len: usize,
    name: &str,
    kind: Option<Kind>,
) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.request >= setup_len)
        .filter(|s| kind.is_none_or(|k| reqs[s.request].kind == k))
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Summed self time (ns) per span name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by: Vec<(&'static str, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        match by.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, sum)) => *sum += own,
            None => by.push((s.name, own)),
        }
    }
    by
}
