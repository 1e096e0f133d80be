//! Service-layer contracts:
//!
//! 1. **Seeded equivalence** — a fit routed through the multi-tenant
//!    [`Service`] (classify → shared cache → session mechanism → charge
//!    → fit) must be f64-identical to the same `(spec, ε, seed)` fit
//!    through a standalone [`Session`], and charge exactly the ε that
//!    mechanism reports: metering may gate releases but must never
//!    perturb them.
//! 2. **Concurrency smoke** — 8 client threads hammering one
//!    `Arc<Service>` (and one `Arc<PlanCache>` underneath) must finish
//!    without deadlock, with `PlanStats` proving every plan artifact was
//!    built exactly once, and with the ledger showing exactly the
//!    admitted spend.
//! 3. **Budget lifecycle** — a tenant's account admits exactly
//!    ⌊budget/ε⌋ releases no matter how the requests are interleaved or
//!    raced, rejects the rest with the typed `BudgetExhausted`, and
//!    never goes negative.

use std::sync::Arc;

use blowfish_privacy::core::CoreError;
use blowfish_privacy::engine::EngineError;
use blowfish_privacy::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn theta_line_data(k: usize) -> DataVector {
    let counts: Vec<f64> = (0..k).map(|i| ((i * 11) % 23) as f64).collect();
    DataVector::new(Domain::one_dim(k), counts).unwrap()
}

fn service_with_theta_tenant(id: &str, k: usize, theta: usize, eps: f64, budget: f64) -> Service {
    let service = Service::new();
    service
        .add_tenant(TenantConfig {
            id: id.to_string(),
            graph: PolicyGraph::theta_line(k, theta).unwrap(),
            eps: Epsilon::new(eps).unwrap(),
            budget: Epsilon::new(budget).unwrap(),
            data: theta_line_data(k),
        })
        .unwrap();
    service
}

#[test]
fn service_routed_fits_match_standalone_sessions_exactly() {
    let (k, theta) = (96, 4);
    let eps = Epsilon::new(0.7).unwrap();
    let graph = PolicyGraph::theta_line(k, theta).unwrap();
    let x = theta_line_data(k);
    let service = service_with_theta_tenant("acme", k, theta, 0.7, 100.0);
    let standalone = Session::new(&graph, eps).unwrap();

    // Explicit Blowfish spec, a baseline (ε/2 path), and the planner
    // default — all three service routes must reproduce the standalone
    // session's floats bit-for-bit at the same seed, and each receipt
    // must be the exact ε its mechanism spends: the grant for a Blowfish
    // strategy, half of it for a baseline.
    let specs = [
        (
            Some(MechanismSpec::ThetaLine {
                theta,
                estimator: ThetaEstimator::Laplace,
            }),
            eps,
        ),
        (Some(MechanismSpec::Dawa1d), eps.half().unwrap()),
        (None, eps),
    ];
    let mut spent = 0.0;
    for (i, (spec, charged)) in specs.iter().enumerate() {
        let seed = 1000 + i as u64;
        let handle = format!("h{i}");
        let receipt = service
            .fit("acme", *spec, Task::Histogram, seed, &handle)
            .unwrap();
        spent += charged.value();
        assert_eq!(receipt.amount.to_bits(), charged.value().to_bits());
        assert_eq!(receipt.spent.to_bits(), spent.to_bits());
        // Read the stored release back through the serving path as the
        // full prefix family [0, i]: prefix sums determine the histogram
        // exactly, so bitwise-equal prefixes ⇔ bitwise-equal fits, and
        // the comparison covers fit + storage + answering end to end.
        let d = Domain::one_dim(k);
        let queries: Vec<RangeQuery> = (0..k)
            .map(|i| RangeQuery::one_dim(&d, 0, i).unwrap())
            .collect();
        let via_service = service
            .answer(
                "acme",
                &handle,
                queries.iter().map(|q| (&q.lo[..], &q.hi[..])),
            )
            .unwrap();
        let spec = spec.unwrap_or_else(|| *standalone.plan(Task::Histogram).unwrap().spec());
        let mut rng = StdRng::seed_from_u64(seed);
        let mechanism = standalone.mechanism(&spec).unwrap();
        assert_eq!(mechanism.epsilon(), *charged);
        let direct = mechanism.fit(&x, &mut rng).unwrap();
        let direct_read = direct.answer_many(&queries).unwrap();
        assert_eq!(via_service, direct_read, "spec {spec:?} diverged");
    }
}

#[test]
fn eight_threads_hammering_one_service_build_each_plan_once() {
    // Three tenants over two distinct policies; 8 threads × 30 requests
    // each, mixing fits and answers, all against one Arc<Service>.
    let service = Arc::new(Service::new());
    for (id, theta) in [("a", 2), ("b", 2), ("c", 5)] {
        service
            .add_tenant(TenantConfig {
                id: id.to_string(),
                graph: PolicyGraph::theta_line(64, theta).unwrap(),
                eps: Epsilon::new(0.5).unwrap(),
                budget: Epsilon::new(1e6).unwrap(),
                data: theta_line_data(64),
            })
            .unwrap();
    }
    let tenants = ["a", "b", "c"];
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for i in 0..30usize {
                    let tenant = tenants[(t + i) % 3];
                    let handle = format!("w{t}");
                    let seed = (t * 1000 + i) as u64;
                    let fitted = service.fit(tenant, None, Task::Histogram, seed, &handle);
                    assert!(fitted.is_ok(), "fit failed: {fitted:?}");
                    let whole = [(&[0][..], &[63][..])];
                    let answers = service.answer(tenant, &handle, whole.into_iter());
                    assert!(answers.is_ok(), "answer failed: {answers:?}");
                }
            });
        }
    });
    // Tenants a+b share G²_64; c uses G⁵_64: exactly two θ-line
    // artifacts across 240 concurrent fits — each plan built once.
    let stats = service.cache().stats();
    assert_eq!(stats.theta_line_builds(), 2, "duplicate plan builds");
    assert_eq!(stats.total_builds(), 2, "unexpected artifact class built");
    // The ledger accounted every admitted release exactly: 8 threads ×
    // 30 fits split round-robin over 3 tenants at ε = 0.5 each.
    let ledger = service.ledger();
    let mut total_fits = 0;
    for id in ["a", "b", "c"] {
        let account = ledger.snapshot(id).unwrap();
        assert!((account.spent - 0.5 * account.charges as f64).abs() < 1e-9);
        total_fits += account.charges;
    }
    assert_eq!(total_fits, 240);
}

#[test]
fn budget_admits_exactly_floor_budget_over_eps_releases_under_racing() {
    // ε = 0.3 against a 1.0 budget: exactly 3 of 24 racing releases may
    // be admitted, whatever the thread interleaving.
    let service = Arc::new(service_with_theta_tenant("acme", 32, 2, 0.3, 1.0));
    let seeds: Vec<u64> = (0..24).collect();
    let results: Vec<Result<Charge, EngineError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(3)
            .map(|chunk| {
                let service = Arc::clone(&service);
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&seed| {
                            let handle = format!("h{seed}");
                            service.fit("acme", None, Task::Histogram, seed, &handle)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let admitted = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(admitted, 3);
    for r in &results {
        if let Err(e) = r {
            assert!(e.is_budget_exhausted(), "unexpected rejection {e:?}");
            match e {
                EngineError::Core(CoreError::BudgetExhausted {
                    tenant,
                    total,
                    spent,
                    requested,
                }) => {
                    assert_eq!(tenant, "acme");
                    assert!((total - 1.0).abs() < 1e-12);
                    // Whatever the interleaving, a rejection only fires
                    // once the next 0.3 no longer fits.
                    assert!(*spent + *requested > *total);
                }
                other => panic!("expected typed BudgetExhausted, got {other:?}"),
            }
        }
    }
    let ledger = service.ledger();
    assert!((ledger.spent("acme").unwrap() - 0.9).abs() < 1e-9);
    assert!(ledger.remaining("acme").unwrap() >= 0.0);
    // Post-exhaustion fits keep failing; stored releases keep answering.
    let again = service.fit("acme", None, Task::Histogram, 99, "late");
    assert!(again.unwrap_err().is_budget_exhausted());
}

#[test]
fn wire_protocol_drives_a_service_end_to_end() {
    use blowfish_privacy::engine::{Codec, WireReply};
    let service = Service::new();
    let script = [
        "# onboarding",
        "tenant payroll policy=line:8 eps=0.5 budget=1.0 data=1,2,3,4,5,6,7,8",
        "fit payroll as=r1 seed=5",
        "answer payroll from=r1 0..7",
        "fit payroll as=r2 seed=6",
        "fit payroll as=r3 seed=7",
    ];
    let mut replies = Vec::new();
    for line in script {
        match Codec::new().serve(&service, line) {
            WireReply::Reply(r) => replies.push(r),
            WireReply::Silent => {}
            WireReply::Quit => panic!("unexpected quit"),
        }
    }
    assert_eq!(replies.len(), 5);
    assert!(replies[0].starts_with("ok tenant payroll"));
    assert!(replies[1].starts_with("ok fit r1 charged=0.5"));
    assert!(replies[2].starts_with("ok answer 1 "));
    assert!(replies[3].starts_with("ok fit r2"));
    assert!(replies[4].starts_with("err"), "{}", replies[4]);
    assert!(replies[4].contains("budget exhausted"));
}
