//! The multi-tenant, budget-metered service layer.
//!
//! A [`Service`] is the long-running face of the engine: it owns one
//! shared [`PlanCache`] (every tenant's artifacts derive exactly once,
//! across tenants), one thread-safe [`Ledger`] (per-tenant cumulative ε
//! accounts under sequential composition), and a map of per-tenant
//! [`Session`]s with their registered private data. Clients speak the
//! typed [`Request`]/[`Response`] API:
//!
//! * [`Request::Plan`] — ask the planner for the paper-recommended
//!   strategy for a task under the tenant's policy;
//! * [`Request::Fit`] — release a fitted estimate from the tenant's data
//!   under a deterministic seed, drawing the mechanism's exact reported
//!   ε from the tenant's ledger account first (an exhausted account
//!   rejects the request with the typed `CoreError::BudgetExhausted`
//!   before any noise is drawn);
//! * [`Request::Answer`] — answer a batch of range queries against a
//!   stored estimate in O(1) per query from its prefix tables. The typed
//!   request and the wire's `answer` line share one path: one tenant
//!   lookup, every range checked against the tenant's domain (so a bad
//!   range is reported before a missing handle), then one batched
//!   [`Estimate::answer_ranges`]. It allocates only the result vector,
//!   whatever the range count;
//! * [`Request::Stats`] — inspect budgets, stored estimates, and plan
//!   cache build counters.
//!
//! [`Service::handle`] serves one request from `&self`; the service is
//! `Sync`, so N client threads drive one `Arc<Service>` concurrently —
//! [`Service::handle_many`] fans a request batch across cores with
//! [`parallel_map`]. On the **warm path** (plans already cached) interior
//! locks are held only for O(1) map/account updates, never across
//! mechanism work, so fits for different tenants (and different specs of
//! one tenant) run fully in parallel while the ledger still guarantees
//! no account is ever jointly overdrawn. Cold plans are the exception by
//! design: the shared [`PlanCache`] builds an artifact *under its stripe
//! lock* to keep derivation exactly-once, so two cold keys that land on
//! the same stripe serialize their first build (warm lookups on other
//! stripes are unaffected).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_core::{DataVector, DurabilityStats, Epsilon, Ledger, PolicyGraph, RangeQuery};
use blowfish_strategies::Estimate;

use crate::plan::PlanCache;
use crate::session::Session;
use crate::spec::{MechanismSpec, Task};
use crate::{parallel_map, EngineError};

/// Everything needed to onboard one tenant.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Unique tenant id (the ledger account key).
    pub id: String,
    /// The tenant's Blowfish policy graph.
    pub graph: PolicyGraph,
    /// Per-release grant: the ε each Blowfish fit is built at (baselines
    /// at ε/2, per the Section 6 comparison convention).
    pub eps: Epsilon,
    /// Total cumulative privacy budget across all of the tenant's
    /// releases (sequential composition).
    pub budget: Epsilon,
    /// The tenant's private histogram, registered once at onboarding.
    pub data: DataVector,
}

/// Per-tenant server state: the metered session plus stored releases.
struct Tenant {
    session: Session,
    data: DataVector,
    estimates: Mutex<HashMap<String, Arc<Estimate>>>,
}

/// A typed request against a [`Service`].
#[derive(Clone, Debug)]
pub enum Request {
    /// Ask the planner for the recommended strategy for `task`.
    Plan {
        /// Target tenant.
        tenant: String,
        /// The workload class to plan for.
        task: Task,
    },
    /// Fit a mechanism to the tenant's registered data and store the
    /// estimate under `handle` (replacing any previous estimate there).
    Fit {
        /// Target tenant.
        tenant: String,
        /// Explicit mechanism, or `None` to use the planner default for
        /// `task`.
        spec: Option<MechanismSpec>,
        /// Planner task used when `spec` is `None`.
        task: Task,
        /// Seed of the fit's private RNG — fits are deterministic per
        /// `(tenant, spec, seed)`, which is what the seeded equivalence
        /// tests pin against a standalone [`Session`].
        seed: u64,
        /// Name the stored estimate is answerable under.
        handle: String,
    },
    /// Answer a batch of range queries from a stored estimate.
    Answer {
        /// Target tenant.
        tenant: String,
        /// Handle of a previously fitted estimate.
        handle: String,
        /// The queries, answered in order.
        queries: Vec<RangeQuery>,
    },
    /// Budget/cache statistics for one tenant (or all tenants).
    Stats {
        /// Restrict to one tenant; `None` reports every tenant.
        tenant: Option<String>,
    },
}

/// One tenant's row in a [`Response::Stats`].
#[derive(Clone, Debug, PartialEq)]
pub struct TenantStats {
    /// Tenant id.
    pub id: String,
    /// Recognized policy family name.
    pub policy: String,
    /// Cumulative ε spent.
    pub spent: f64,
    /// Budget remaining (never negative).
    pub remaining: f64,
    /// Number of admitted releases (ledger charges).
    pub fits: usize,
    /// Number of stored (answerable) estimates.
    pub estimates: usize,
}

/// A typed response from a [`Service`].
#[derive(Clone, Debug)]
pub enum Response {
    /// The planner's chosen spec.
    Planned {
        /// The recommended mechanism.
        spec: MechanismSpec,
    },
    /// A fit was admitted, charged, and stored.
    Fitted {
        /// Handle the estimate is stored under.
        handle: String,
        /// The ε actually debited for this release.
        charged: f64,
        /// Tenant spend after the charge.
        spent: f64,
        /// Tenant budget remaining after the charge.
        remaining: f64,
    },
    /// Answers to a query batch, in request order.
    Answers {
        /// One value per query.
        values: Vec<f64>,
    },
    /// Budget and cache statistics.
    Stats {
        /// One row per reported tenant, sorted by id.
        tenants: Vec<TenantStats>,
        /// Total artifact derivations in the shared plan cache.
        artifact_builds: usize,
        /// Write-ahead-log health when the ledger is durable; `None`
        /// for a purely in-memory service.
        durability: Option<DurabilityStats>,
    },
}

/// One request's outcome from a trace replay ([`Service::replay`]): the
/// response plus the wall-clock serving latency of just that request.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// The request's outcome — requests succeed or fail independently.
    pub response: Result<Response, EngineError>,
    /// Wall-clock nanoseconds spent inside [`Service::handle`] for this
    /// request (measurement only — never part of deterministic scoring).
    pub latency_ns: u64,
}

/// A long-running, concurrent, budget-metered multi-tenant engine
/// service. See the [module docs](self) for the serving story.
#[derive(Default)]
pub struct Service {
    cache: Arc<PlanCache>,
    ledger: Arc<Ledger>,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
}

impl Service {
    /// An empty service with a fresh shared cache and ledger.
    pub fn new() -> Self {
        Service::default()
    }

    /// An empty service over a caller-provided ledger — the recovery
    /// entry point. Pass the ledger returned by [`Ledger::recover`] (or
    /// [`Ledger::durable`]) and re-onboard tenants with
    /// [`Service::add_tenant`]: accounts that survived the crash are
    /// *attached* (their durable spend is kept, bit for bit) instead of
    /// re-opened fresh, and already-charged releases can be restored
    /// without re-charging via [`Service::restore_estimate`].
    pub fn with_ledger(ledger: Arc<Ledger>) -> Self {
        Service {
            cache: Arc::new(PlanCache::default()),
            ledger,
            tenants: RwLock::new(HashMap::new()),
        }
    }

    /// The shared artifact cache (one per service, all tenants).
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The shared privacy ledger (one account per tenant).
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    /// Onboards a tenant: classifies its policy, opens (or — after a
    /// recovery — re-attaches) its ledger account, and registers its
    /// data. Rejects a duplicate id (budgets are append-only), data
    /// whose domain does not match the policy graph, non-finite counts,
    /// and unsupported policies. Re-attaching requires the bit-identical total budget
    /// the account was durably opened with; the recovered spend is kept
    /// as-is, so a tenant cannot shed charges by crashing the service.
    pub fn add_tenant(&self, config: TenantConfig) -> Result<(), EngineError> {
        if config.data.domain() != config.graph.domain() {
            return Err(EngineError::BadRequest {
                what: format!(
                    "tenant {}: data domain does not match the policy graph domain",
                    config.id
                ),
            });
        }
        if !config.data.counts().iter().all(|c| c.is_finite()) {
            return Err(EngineError::BadRequest {
                what: format!("tenant {}: data counts must be finite", config.id),
            });
        }
        // Build the session first so a rejected policy leaves no orphan
        // ledger account.
        let session = Session::with_cache(&config.graph, config.eps, Arc::clone(&self.cache))?
            .metered(Arc::clone(&self.ledger), config.id.clone());
        let tenant = Arc::new(Tenant {
            session,
            data: config.data,
            estimates: Mutex::new(HashMap::new()),
        });
        // Duplicate detection must consult the *service* map, not the
        // ledger: after `Ledger::recover` the account legitimately
        // pre-exists and is attached rather than re-opened.
        let mut tenants = self.tenants.write().expect("service tenants lock");
        if tenants.contains_key(&config.id) {
            return Err(EngineError::Core(
                blowfish_core::CoreError::DuplicateTenant { tenant: config.id },
            ));
        }
        self.ledger.open_or_attach(&config.id, config.budget)?;
        tenants.insert(config.id, tenant);
        Ok(())
    }

    /// Re-materializes an already-charged release after a crash,
    /// without touching the ledger. Fits are deterministic per
    /// `(tenant, spec, seed)`, so re-running the fit through the
    /// unmetered path reproduces the pre-crash estimate f64-exactly
    /// while the recovered account keeps exactly the spend the WAL
    /// durably acknowledged — charging again here would double-count a
    /// release the tenant already paid for. Only replay `(spec, seed,
    /// handle)` triples whose original fit was admitted (present in the
    /// recovered history); this method does not re-check the budget.
    pub fn restore_estimate(
        &self,
        tenant: &str,
        spec: Option<MechanismSpec>,
        task: Task,
        seed: u64,
        handle: &str,
    ) -> Result<(), EngineError> {
        let tenant = self.tenant(tenant)?;
        let spec = match spec {
            Some(spec) => spec,
            None => *tenant.session.plan(task)?.spec(),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let estimate = tenant
            .session
            .fit_unmetered(&spec, &tenant.data, &mut rng)?;
        tenant
            .estimates
            .lock()
            .expect("tenant estimates lock")
            .insert(handle.to_string(), Arc::new(estimate));
        Ok(())
    }

    /// The domain a tenant's data and queries live over.
    pub fn tenant_domain(&self, id: &str) -> Result<blowfish_core::Domain, EngineError> {
        Ok(self.tenant(id)?.session.domain().clone())
    }

    /// Registered tenant ids, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .tenants
            .read()
            .expect("service tenants lock")
            .keys()
            .cloned()
            .collect();
        ids.sort();
        ids
    }

    /// Serves one request. `&self` — the service is `Sync`, so any number
    /// of client threads may call this concurrently on one `Arc<Service>`.
    pub fn handle(&self, request: &Request) -> Result<Response, EngineError> {
        match request {
            Request::Plan { tenant, task } => {
                let tenant = self.tenant(tenant)?;
                let plan = tenant.session.plan(*task)?;
                Ok(Response::Planned { spec: *plan.spec() })
            }
            Request::Fit {
                tenant,
                spec,
                task,
                seed,
                handle,
            } => {
                let tenant = self.tenant(tenant)?;
                let spec = match spec {
                    Some(spec) => *spec,
                    None => *tenant.session.plan(*task)?.spec(),
                };
                let mut rng = StdRng::seed_from_u64(*seed);
                let fitted = tenant.session.fit(&spec, &tenant.data, &mut rng)?;
                let charge = fitted.charge.expect("service sessions are metered");
                tenant
                    .estimates
                    .lock()
                    .expect("tenant estimates lock")
                    .insert(handle.clone(), Arc::new(fitted.estimate));
                Ok(Response::Fitted {
                    handle: handle.clone(),
                    charged: charge.amount,
                    spent: charge.spent,
                    remaining: charge.remaining,
                })
            }
            Request::Answer {
                tenant,
                handle,
                queries,
            } => Ok(Response::Answers {
                values: self.answer(
                    tenant,
                    handle,
                    queries.iter().map(|q| (q.lo.as_slice(), q.hi.as_slice())),
                )?,
            }),
            Request::Stats { tenant } => self.stats(tenant.as_deref()),
        }
    }

    /// The one answer path, behind both [`Request::Answer`] and the wire's
    /// `answer` line: ranges come as `(lo, hi)` inclusive bounds. It looks
    /// the tenant up once, checks every range against the tenant's domain
    /// with [`RangeQuery::check`] before it looks the handle up (so a bad
    /// range wins over a missing estimate), and answers the batch through
    /// [`Estimate::answer_ranges`]. Over 1-D and 2-D domains the result
    /// vector is its only allocation.
    pub(crate) fn answer<'q, I>(
        &self,
        tenant: &str,
        handle: &str,
        ranges: I,
    ) -> Result<Vec<f64>, EngineError>
    where
        I: Iterator<Item = (&'q [usize], &'q [usize])> + Clone,
    {
        let tenant = self.tenant(tenant)?;
        let domain = tenant.session.domain();
        for (lo, hi) in ranges.clone() {
            RangeQuery::check(domain, lo, hi)?;
        }
        let estimate = tenant
            .estimates
            .lock()
            .expect("tenant estimates lock")
            .get(handle)
            .cloned()
            .ok_or_else(|| EngineError::UnknownEstimate {
                handle: handle.to_string(),
            })?;
        Ok(estimate.answer_ranges(ranges)?)
    }

    /// Serves a request batch across cores ([`parallel_map`]), preserving
    /// request order in the result vector. Each request succeeds or fails
    /// independently; the ledger's atomic check-and-charge keeps
    /// concurrent fits from jointly overdrawing any account.
    pub fn handle_many(&self, requests: &[Request]) -> Vec<Result<Response, EngineError>> {
        parallel_map(requests, |_, request| self.handle(request))
    }

    /// Replays a trace **in order on the calling thread**, capturing the
    /// per-request serving latency. Because requests are served strictly
    /// sequentially, everything order-dependent — which fits are admitted
    /// against a tightening budget, which handles exist when an answer
    /// arrives — is fully deterministic: replaying the same trace against
    /// a freshly built service always produces f64-identical responses
    /// (latencies, of course, vary). This is the trace simulator's scoring
    /// entry point.
    pub fn replay(&self, requests: &[Request]) -> Vec<Replayed> {
        requests.iter().map(|r| self.timed_handle(r)).collect()
    }

    fn timed_handle(&self, request: &Request) -> Replayed {
        let start = Instant::now();
        let response = self.handle(request);
        Replayed {
            response,
            latency_ns: start.elapsed().as_nanos() as u64,
        }
    }

    fn tenant(&self, id: &str) -> Result<Arc<Tenant>, EngineError> {
        self.tenants
            .read()
            .expect("service tenants lock")
            .get(id)
            .cloned()
            .ok_or_else(|| EngineError::UnknownTenant {
                tenant: id.to_string(),
            })
    }

    fn stats(&self, only: Option<&str>) -> Result<Response, EngineError> {
        let ids = match only {
            Some(id) => vec![id.to_string()],
            None => self.tenants(),
        };
        let mut rows = Vec::with_capacity(ids.len());
        for id in ids {
            let tenant = self.tenant(&id)?;
            // One atomic ledger snapshot per row: reading spent/remaining/
            // count through separate calls could interleave with a
            // concurrent charge and emit a self-inconsistent row.
            let account = self.ledger.snapshot(&id)?;
            rows.push(TenantStats {
                policy: tenant.session.policy().name(),
                spent: account.spent,
                remaining: account.remaining,
                fits: account.charges,
                estimates: tenant
                    .estimates
                    .lock()
                    .expect("tenant estimates lock")
                    .len(),
                id,
            });
        }
        Ok(Response::Stats {
            tenants: rows,
            artifact_builds: self.cache.stats().total_builds(),
            durability: self.ledger.durability_stats(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_core::Domain;

    fn service_with_tenant(id: &str, budget: f64) -> Service {
        let service = Service::new();
        service
            .add_tenant(TenantConfig {
                id: id.to_string(),
                graph: PolicyGraph::line(16).unwrap(),
                eps: Epsilon::new(0.5).unwrap(),
                budget: Epsilon::new(budget).unwrap(),
                data: DataVector::new(Domain::one_dim(16), vec![3.0; 16]).unwrap(),
            })
            .unwrap();
        service
    }

    #[test]
    fn plan_fit_answer_round_trip() {
        let service = service_with_tenant("acme", 2.0);
        let planned = service
            .handle(&Request::Plan {
                tenant: "acme".into(),
                task: Task::Range1d,
            })
            .unwrap();
        let spec = match planned {
            Response::Planned { spec } => spec,
            other => panic!("expected Planned, got {other:?}"),
        };
        let fitted = service
            .handle(&Request::Fit {
                tenant: "acme".into(),
                spec: Some(spec),
                task: Task::Range1d,
                seed: 7,
                handle: "release-1".into(),
            })
            .unwrap();
        match fitted {
            Response::Fitted {
                charged,
                spent,
                remaining,
                ..
            } => {
                assert!((charged - 0.5).abs() < 1e-12);
                assert!((spent - 0.5).abs() < 1e-12);
                assert!((remaining - 1.5).abs() < 1e-12);
            }
            other => panic!("expected Fitted, got {other:?}"),
        }
        let d = Domain::one_dim(16);
        let answers = service
            .handle(&Request::Answer {
                tenant: "acme".into(),
                handle: "release-1".into(),
                queries: vec![
                    RangeQuery::one_dim(&d, 0, 15).unwrap(),
                    RangeQuery::one_dim(&d, 3, 9).unwrap(),
                ],
            })
            .unwrap();
        match answers {
            Response::Answers { values } => {
                assert_eq!(values.len(), 2);
                assert!(values.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected Answers, got {other:?}"),
        }
        match service.handle(&Request::Stats { tenant: None }).unwrap() {
            Response::Stats {
                tenants,
                artifact_builds,
                durability,
            } => {
                assert_eq!(tenants.len(), 1);
                assert_eq!(tenants[0].fits, 1);
                assert_eq!(tenants[0].estimates, 1);
                // The line-policy Laplace-consistent fit needs no cached
                // artifact class, so builds may legitimately be zero —
                // just assert the counter is readable.
                let _ = artifact_builds;
                // An in-memory service reports no durability stats.
                assert!(durability.is_none());
            }
            other => panic!("expected Stats, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tenants_and_estimates_are_typed_errors() {
        let service = service_with_tenant("acme", 1.0);
        assert!(matches!(
            service.handle(&Request::Plan {
                tenant: "ghost".into(),
                task: Task::Histogram,
            }),
            Err(EngineError::UnknownTenant { .. })
        ));
        assert!(matches!(
            service.handle(&Request::Answer {
                tenant: "acme".into(),
                handle: "never-fitted".into(),
                queries: vec![],
            }),
            Err(EngineError::UnknownEstimate { .. })
        ));
    }

    #[test]
    fn duplicate_and_mismatched_tenants_are_rejected() {
        let service = service_with_tenant("acme", 1.0);
        let dup = service.add_tenant(TenantConfig {
            id: "acme".into(),
            graph: PolicyGraph::line(16).unwrap(),
            eps: Epsilon::new(0.5).unwrap(),
            budget: Epsilon::new(1.0).unwrap(),
            data: DataVector::new(Domain::one_dim(16), vec![1.0; 16]).unwrap(),
        });
        assert!(matches!(
            dup,
            Err(EngineError::Core(
                blowfish_core::CoreError::DuplicateTenant { .. }
            ))
        ));
        let mismatch = service.add_tenant(TenantConfig {
            id: "other".into(),
            graph: PolicyGraph::line(16).unwrap(),
            eps: Epsilon::new(0.5).unwrap(),
            budget: Epsilon::new(1.0).unwrap(),
            data: DataVector::new(Domain::one_dim(8), vec![1.0; 8]).unwrap(),
        });
        assert!(matches!(mismatch, Err(EngineError::BadRequest { .. })));
        // The failed onboardings left no tenant behind.
        assert_eq!(service.tenants(), vec!["acme"]);
    }

    #[test]
    fn budget_exhaustion_is_typed_and_final() {
        let service = service_with_tenant("acme", 1.0);
        let fit = |seed: u64, handle: &str| {
            service.handle(&Request::Fit {
                tenant: "acme".into(),
                spec: None,
                task: Task::Histogram,
                seed,
                handle: handle.into(),
            })
        };
        assert!(fit(1, "a").is_ok());
        assert!(fit(2, "b").is_ok());
        let err = fit(3, "c").unwrap_err();
        assert!(err.is_budget_exhausted(), "got {err:?}");
        // The rejected fit stored nothing and spent nothing further.
        assert!(matches!(
            service.handle(&Request::Answer {
                tenant: "acme".into(),
                handle: "c".into(),
                queries: vec![],
            }),
            Err(EngineError::UnknownEstimate { .. })
        ));
        assert!((service.ledger().spent("acme").unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replay_is_deterministic_and_order_faithful() {
        let trace: Vec<Request> = (0..8)
            .map(|i| {
                if i % 3 == 2 {
                    Request::Answer {
                        tenant: "acme".into(),
                        handle: "h".into(),
                        queries: vec![RangeQuery::one_dim(&Domain::one_dim(16), 2, 11).unwrap()],
                    }
                } else {
                    Request::Fit {
                        tenant: "acme".into(),
                        spec: None,
                        task: Task::Histogram,
                        seed: i,
                        handle: "h".into(),
                    }
                }
            })
            .collect();
        // Budget admits exactly 3 of the 6 fits (⌊1.5/0.5⌋ = 3).
        let run = |budget: f64| -> Vec<String> {
            let service = service_with_tenant("acme", budget);
            service
                .replay(&trace)
                .into_iter()
                .map(|r| format!("{:?}", r.response))
                .collect()
        };
        let a = run(1.5);
        let b = run(1.5);
        assert_eq!(a, b, "serial replay must be deterministic");
        let admitted = a.iter().filter(|s| s.contains("Fitted")).count();
        assert_eq!(admitted, 3, "ledger admits exactly ⌊budget/ε⌋ fits");
        // Latencies are captured for every request.
        let service = service_with_tenant("acme", 1.5);
        let replayed = service.replay(&trace);
        assert_eq!(replayed.len(), trace.len());
    }

    #[test]
    fn recovered_service_attaches_accounts_and_restores_estimates() {
        let dir = std::env::temp_dir().join(format!("blowfish-svc-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || TenantConfig {
            id: "acme".to_string(),
            graph: PolicyGraph::line(16).unwrap(),
            eps: Epsilon::new(0.5).unwrap(),
            budget: Epsilon::new(2.0).unwrap(),
            data: DataVector::new(Domain::one_dim(16), vec![3.0; 16]).unwrap(),
        };
        let d = Domain::one_dim(16);
        let queries = vec![
            RangeQuery::one_dim(&d, 0, 15).unwrap(),
            RangeQuery::one_dim(&d, 3, 9).unwrap(),
        ];
        // First life: durable service, one charged fit, then "crash"
        // (drop without any graceful shutdown).
        let (before, spent_before) = {
            let (ledger, report) =
                Ledger::durable(&dir, blowfish_core::LedgerDurability::default()).unwrap();
            assert!(report.is_clean());
            let service = Service::with_ledger(Arc::new(ledger));
            service.add_tenant(config()).unwrap();
            service
                .handle(&Request::Fit {
                    tenant: "acme".into(),
                    spec: None,
                    task: Task::Range1d,
                    seed: 41,
                    handle: "h".into(),
                })
                .unwrap();
            let answers = match service
                .handle(&Request::Answer {
                    tenant: "acme".into(),
                    handle: "h".into(),
                    queries: queries.clone(),
                })
                .unwrap()
            {
                Response::Answers { values } => values,
                other => panic!("expected Answers, got {other:?}"),
            };
            (answers, service.ledger().spent("acme").unwrap())
        };
        // Second life: recover, re-onboard (attach), restore the release.
        let (ledger, report) = Ledger::recover(&dir).unwrap();
        assert!(report.is_clean(), "{report:?}");
        let service = Service::with_ledger(Arc::new(ledger));
        service.add_tenant(config()).unwrap();
        assert_eq!(
            service.ledger().spent("acme").unwrap().to_bits(),
            spent_before.to_bits(),
            "recovered spend must be bit-identical"
        );
        service
            .restore_estimate("acme", None, Task::Range1d, 41, "h")
            .unwrap();
        // Restoring charged nothing further...
        assert_eq!(
            service.ledger().spent("acme").unwrap().to_bits(),
            spent_before.to_bits()
        );
        // ...and the estimate answers f64-identically to the first life.
        let after = match service
            .handle(&Request::Answer {
                tenant: "acme".into(),
                handle: "h".into(),
                queries,
            })
            .unwrap()
        {
            Response::Answers { values } => values,
            other => panic!("expected Answers, got {other:?}"),
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after), bits(&before));
        // Stats now reports the durable ledger's WAL health.
        match service.handle(&Request::Stats { tenant: None }).unwrap() {
            Response::Stats { durability, .. } => {
                let stats = durability.expect("durable service reports stats");
                assert!(stats.wal_bytes > 0);
            }
            other => panic!("expected Stats, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn handle_many_preserves_order_and_isolates_failures() {
        let service = service_with_tenant("acme", 10.0);
        let requests: Vec<Request> = (0..6)
            .map(|i| {
                if i == 3 {
                    Request::Plan {
                        tenant: "ghost".into(),
                        task: Task::Histogram,
                    }
                } else {
                    Request::Fit {
                        tenant: "acme".into(),
                        spec: None,
                        task: Task::Histogram,
                        seed: i,
                        handle: format!("h{i}"),
                    }
                }
            })
            .collect();
        let results = service.handle_many(&requests);
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                assert!(matches!(r, Err(EngineError::UnknownTenant { .. })));
            } else {
                assert!(r.is_ok(), "request {i}: {r:?}");
            }
        }
    }
}
