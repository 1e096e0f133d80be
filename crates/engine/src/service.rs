//! The multi-tenant, budget-metered service layer.
//!
//! A [`Service`] is the long-running face of the engine: it owns one
//! shared [`PlanCache`] (every tenant's artifacts derive exactly once,
//! across tenants), one thread-safe [`Ledger`] (per-tenant cumulative ε
//! accounts under sequential composition), and a map of per-tenant
//! [`Session`]s with their registered private data. It has one method per
//! verb of the [`wire`](crate::wire) protocol, which
//! [`wire::serve_request`](crate::wire::serve_request) dispatches to:
//!
//! * [`Service::add_tenant`] — onboard a tenant with its policy, grant,
//!   budget and data;
//! * [`Service::plan`] — ask the planner for the paper-recommended
//!   strategy for a task under the tenant's policy;
//! * [`Service::fit`] — release a fitted estimate from the tenant's data
//!   under a deterministic seed, drawing the mechanism's exact reported
//!   ε from the tenant's ledger account first (an exhausted account
//!   rejects the request with the typed `CoreError::BudgetExhausted`
//!   before any noise is drawn). The service is the one place a release
//!   is charged: a tenant's [`Session`] only classifies its policy, plans
//!   and memoizes mechanisms;
//! * [`Service::answer`] — answer a batch of ranges against a stored
//!   release in O(1) per range from its range table: one tenant lookup,
//!   every range checked against the tenant's domain (so a bad range is
//!   reported before a missing handle), then one batched
//!   [`RangeTable::answer_ranges`]. It allocates only the result vector,
//!   whatever the range count;
//! * [`Service::stats`] — inspect budgets and stored releases.
//!
//! A stored release is only its [`RangeTable`]: the fit's
//! [`Estimate`](blowfish_strategies::Estimate) turns its histogram buffer
//! into the prefix sums (1-D) or summed-area table (2-D) in place
//! ([`into_table`](blowfish_strategies::Estimate::into_table)), because
//! no reply reads the histogram itself. A release over a k-cell domain
//! keeps k floats, allocated once.
//!
//! Every method takes `&self` and the service is `Sync`, so N client
//! threads drive one `Arc<Service>` concurrently. On the **warm path**
//! (plans already cached) interior locks are held only for O(1)
//! map/account updates, never across mechanism work, so fits for
//! different tenants (and different specs of one tenant) run fully in
//! parallel while the ledger still guarantees no account is ever jointly
//! overdrawn. Cold plans are the exception by design: the shared
//! [`PlanCache`] builds an artifact *under its stripe lock* to keep
//! derivation exactly-once, so two cold keys that land on the same
//! stripe serialize their first build (warm lookups on other stripes are
//! unaffected).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_core::{Charge, DataVector, Epsilon, Ledger, PolicyGraph, RangeQuery};
use blowfish_strategies::RangeTable;

use crate::plan::PlanCache;
use crate::session::Session;
use crate::spec::{MechanismSpec, Task};
use crate::EngineError;

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

/// Per-tenant server state: the planning session, the registered data
/// and the stored releases' range tables, by handle.
struct Tenant {
    session: Session,
    data: DataVector,
    releases: Mutex<HashMap<String, Arc<RangeTable>>>,
}

/// One tenant's row of [`Service::stats`].
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
    /// Number of stored (answerable) releases.
    pub estimates: usize,
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
    /// data, which is moved in rather than copied. Rejects a duplicate id
    /// (budgets are append-only), data whose domain does not match the
    /// policy graph, non-finite counts, counts whose absolute total
    /// overflows (no release of them would have finite prefix sums), and
    /// unsupported policies, all before any account exists. Re-attaching
    /// requires the bit-identical total budget the account was durably
    /// opened with; the recovered spend is kept as-is, so a tenant cannot
    /// shed charges by crashing the service.
    pub fn add_tenant(&self, config: TenantConfig) -> Result<(), EngineError> {
        let TenantConfig {
            id,
            graph,
            eps,
            budget,
            data,
        } = config;
        let bad = |what: &str| {
            Err(EngineError::BadRequest {
                what: format!("tenant {id}: {what}"),
            })
        };
        if data.domain() != graph.domain() {
            return bad("data domain does not match the policy graph domain");
        }
        let counts = data.counts();
        if !counts.iter().all(|c| c.is_finite()) {
            return bad("data counts must be finite");
        }
        if !counts.iter().map(|c| c.abs()).sum::<f64>().is_finite() {
            return bad("the total of |count| must be finite");
        }
        // Build the session first so a rejected policy leaves no orphan
        // ledger account.
        let session = Session::with_cache(&graph, eps, Arc::clone(&self.cache))?;
        let tenant = Arc::new(Tenant {
            session,
            data,
            releases: Mutex::new(HashMap::new()),
        });
        // Duplicate detection must consult the *service* map, not the
        // ledger: after `Ledger::recover` the account legitimately
        // pre-exists and is attached rather than re-opened.
        let mut tenants = self.tenants.write().expect("service tenants lock");
        if tenants.contains_key(&id) {
            return Err(EngineError::Core(
                blowfish_core::CoreError::DuplicateTenant { tenant: id },
            ));
        }
        self.ledger.open_or_attach(&id, budget)?;
        tenants.insert(id, tenant);
        Ok(())
    }

    /// The planner's recommended mechanism for `task` under the tenant's
    /// policy.
    pub fn plan(&self, tenant: &str, task: Task) -> Result<MechanismSpec, EngineError> {
        Ok(*self.tenant(tenant)?.session.plan(task)?.spec())
    }

    /// Fits `spec` (or, when `None`, the planner's choice for `task`) to
    /// the tenant's registered data and stores the release's range table
    /// under `handle`, replacing any previous release there. The fit's
    /// exact ε is debited first, so an exhausted account rejects it
    /// before any noise is drawn; a fit that fails after the debit, such
    /// as a release refused for a non-finite value, stays charged and
    /// stores nothing. Fits are deterministic per `(tenant, spec, seed)`, which
    /// is what the seeded equivalence tests pin against a standalone
    /// [`Session`]. Returns the ledger receipt.
    pub fn fit(
        &self,
        tenant: &str,
        spec: Option<MechanismSpec>,
        task: Task,
        seed: u64,
        handle: &str,
    ) -> Result<Charge, EngineError> {
        let charge = self.release(tenant, spec, task, seed, handle, true)?;
        Ok(charge.expect("service sessions are metered"))
    }

    /// Re-materializes an already-charged release after a crash,
    /// without touching the ledger. Fits are deterministic per
    /// `(tenant, spec, seed)`, so re-running the fit reproduces the
    /// pre-crash estimate f64-exactly while the recovered account keeps
    /// exactly the spend the WAL durably acknowledged. Re-deriving an
    /// output from recorded coins is post-processing of a release that
    /// was already paid for (Borgs et al., "Private Algorithms Can Always
    /// Be Extended"), so charging again here would double-count it. Only
    /// replay `(spec, seed, handle)` triples whose original fit was
    /// admitted; this method does not re-check the budget, and no wire
    /// request reaches it.
    pub fn restore_estimate(
        &self,
        tenant: &str,
        spec: Option<MechanismSpec>,
        task: Task,
        seed: u64,
        handle: &str,
    ) -> Result<(), EngineError> {
        self.release(tenant, spec, task, seed, handle, false)
            .map(drop)
    }

    /// The shared body of [`Service::fit`] (`charged`) and
    /// [`Service::restore_estimate`] (not charged), and the one place a
    /// release is charged. It resolves the spec and its mechanism with
    /// one memo lookup, charges the mechanism's exact ε under the spec's
    /// id, fits from the seeded RNG, and stores the estimate's range
    /// table under `handle`, built in place. A spec the session cannot
    /// serve is refused before the charge, so it spends nothing. A
    /// handle that is already stored keeps its key, so replacing a
    /// release allocates no new one.
    fn release(
        &self,
        id: &str,
        spec: Option<MechanismSpec>,
        task: Task,
        seed: u64,
        handle: &str,
        charged: bool,
    ) -> Result<Option<Charge>, EngineError> {
        let tenant = self.tenant(id)?;
        let (spec, mechanism) = match spec {
            Some(spec) => (spec, tenant.session.mechanism(&spec)?),
            None => {
                let plan = tenant.session.plan(task)?;
                (plan.spec, plan.mechanism)
            }
        };
        let charge = if charged {
            Some(self.ledger.charge(id, &spec.id(), mechanism.epsilon())?)
        } else {
            None
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let table = Arc::new(mechanism.fit(&tenant.data, &mut rng)?.into_table());
        let mut releases = tenant.releases.lock().expect("tenant releases lock");
        match releases.get_mut(handle) {
            Some(stored) => *stored = table,
            None => {
                releases.insert(handle.to_string(), table);
            }
        }
        Ok(charge)
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

    /// The one answer path, behind the wire's `answer` line: ranges come
    /// as `(lo, hi)` inclusive bounds. It looks the tenant up once, checks
    /// every range against the tenant's domain with [`RangeQuery::check`]
    /// before it looks the handle up (so a bad range wins over a missing
    /// release), and answers the batch through
    /// [`RangeTable::answer_ranges`]. Over 1-D and 2-D domains the result
    /// vector is its only allocation.
    pub fn answer<'q, I>(
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
        let table = tenant
            .releases
            .lock()
            .expect("tenant releases lock")
            .get(handle)
            .cloned()
            .ok_or_else(|| EngineError::UnknownEstimate {
                handle: handle.to_string(),
            })?;
        Ok(table.answer_ranges(ranges)?)
    }

    /// Budget rows for one tenant, or for every tenant sorted by id. The
    /// service-wide counters a `stats` reply adds come from
    /// [`Service::cache`] and [`Service::ledger`].
    pub fn stats(&self, only: Option<&str>) -> Result<Vec<TenantStats>, EngineError> {
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
                estimates: tenant.releases.lock().expect("tenant releases lock").len(),
                id,
            });
        }
        Ok(rows)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel_map;
    use crate::wire::{self, serve_request, RawRanges};
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

    /// Answers 1-D `(lo, hi)` ranges through [`Service::answer`].
    fn answer_1d(
        service: &Service,
        handle: &str,
        ranges: &[(usize, usize)],
    ) -> Result<Vec<f64>, EngineError> {
        let bounds: Vec<([usize; 1], [usize; 1])> =
            ranges.iter().map(|&(lo, hi)| ([lo], [hi])).collect();
        service.answer(
            "acme",
            handle,
            bounds.iter().map(|(lo, hi)| (&lo[..], &hi[..])),
        )
    }

    #[test]
    fn plan_fit_answer_round_trip() {
        let service = service_with_tenant("acme", 2.0);
        let spec = service.plan("acme", Task::Range1d).unwrap();
        let charge = service
            .fit("acme", Some(spec), Task::Range1d, 7, "release-1")
            .unwrap();
        assert!((charge.amount - 0.5).abs() < 1e-12);
        assert!((charge.spent - 0.5).abs() < 1e-12);
        assert!((charge.remaining - 1.5).abs() < 1e-12);
        let values = answer_1d(&service, "release-1", &[(0, 15), (3, 9)]).unwrap();
        assert_eq!(values.len(), 2);
        assert!(values.iter().all(|v| v.is_finite()));
        let tenants = service.stats(None).unwrap();
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].fits, 1);
        assert_eq!(tenants[0].estimates, 1);
        // An in-memory service reports no durability stats.
        assert!(service.ledger().durability_stats().is_none());
    }

    #[test]
    fn unknown_tenants_and_estimates_are_typed_errors() {
        let service = service_with_tenant("acme", 1.0);
        assert!(matches!(
            service.plan("ghost", Task::Histogram),
            Err(EngineError::UnknownTenant { .. })
        ));
        assert!(matches!(
            answer_1d(&service, "never-fitted", &[]),
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
        // The failed onboardings left no tenant and no account behind.
        assert_eq!(service.tenants(), vec!["acme"]);
        assert_eq!(service.ledger().tenant_count(), 1);
    }

    #[test]
    fn budget_exhaustion_is_typed_and_final() {
        let service = service_with_tenant("acme", 1.0);
        let fit =
            |seed: u64, handle: &str| service.fit("acme", None, Task::Histogram, seed, handle);
        assert!(fit(1, "a").is_ok());
        assert!(fit(2, "b").is_ok());
        let before = service.ledger().snapshot("acme").unwrap();
        let err = fit(3, "c").unwrap_err();
        assert!(err.is_budget_exhausted(), "got {err:?}");
        // The rejected fit stored nothing and left the account as it was.
        assert!(matches!(
            answer_1d(&service, "c", &[]),
            Err(EngineError::UnknownEstimate { .. })
        ));
        assert_eq!(service.ledger().snapshot("acme").unwrap(), before);
        assert!((before.spent - 1.0).abs() < 1e-12);
        assert_eq!(before.charges, 2);
    }

    #[test]
    fn unservable_fits_are_refused_before_any_charge() {
        let service = service_with_tenant("acme", 2.0);
        service.fit("acme", None, Task::Histogram, 1, "a").unwrap();
        let before = service.ledger().snapshot("acme").unwrap();
        // Specs the line tenant's session cannot build, and a task its
        // planner has no default for: each is refused, stores nothing and
        // spends nothing.
        for (spec, task) in [
            (Some(MechanismSpec::Grid), Task::Histogram),
            (Some(MechanismSpec::Dawa2d), Task::Range2d),
            (None, Task::Range2d),
        ] {
            let err = service.fit("acme", spec, task, 2, "b").unwrap_err();
            assert!(
                matches!(err, EngineError::UnsupportedPolicy { .. }),
                "{spec:?}: {err:?}"
            );
        }
        assert!(matches!(
            answer_1d(&service, "b", &[]),
            Err(EngineError::UnknownEstimate { .. })
        ));
        assert_eq!(service.ledger().snapshot("acme").unwrap(), before);
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
        let ranges = [(0, 15), (3, 9)];
        // First life: durable service, one charged fit, then "crash"
        // (drop without any graceful shutdown).
        let (before, spent_before) = {
            let (ledger, report) =
                Ledger::durable(&dir, blowfish_core::LedgerDurability::default()).unwrap();
            assert!(report.is_clean());
            let service = Service::with_ledger(Arc::new(ledger));
            service.add_tenant(config()).unwrap();
            service.fit("acme", None, Task::Range1d, 41, "h").unwrap();
            let answers = answer_1d(&service, "h", &ranges).unwrap();
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
        let after = answer_1d(&service, "h", &ranges).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&after), bits(&before));
        // The durable ledger reports its WAL health.
        let stats = service
            .ledger()
            .durability_stats()
            .expect("durable service reports stats");
        assert!(stats.wal_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_serving_preserves_order_and_isolates_failures() {
        let service = service_with_tenant("acme", 10.0);
        let requests: Vec<wire::Request> = (0..6)
            .map(|i| match i {
                3 => wire::Request::Plan {
                    tenant: "ghost".into(),
                    task: Task::Histogram,
                },
                5 => wire::Request::Answer {
                    tenant: "acme".into(),
                    handle: "h0".into(),
                    ranges: RawRanges::from_queries(&[RangeQuery::one_dim(
                        &Domain::one_dim(16),
                        0,
                        15,
                    )
                    .unwrap()]),
                },
                _ => wire::Request::Fit {
                    tenant: "acme".into(),
                    spec: None,
                    task: Task::Histogram,
                    seed: i,
                    handle: format!("h{i}"),
                },
            })
            .collect();
        // The answer may race ahead of the fit it reads, so fit h0 first.
        serve_request(&service, &requests[0]).unwrap();
        let results = parallel_map(&requests, |_, r| serve_request(&service, r));
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            match (i, r) {
                (3, Err(wire::WireError::Engine(EngineError::UnknownTenant { .. }))) => {}
                (5, Ok(wire::Response::Answers { values })) => assert_eq!(values.len(), 1),
                (3 | 5, other) => panic!("request {i}: {other:?}"),
                (_, Ok(wire::Response::Fitted { handle, .. })) => {
                    assert_eq!(handle, &format!("h{i}"))
                }
                (_, other) => panic!("request {i}: {other:?}"),
            }
        }
    }
}
