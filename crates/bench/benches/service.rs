//! Multi-tenant service throughput: N client threads vs one.
//!
//! One [`Service`] hosts four tenants sharing a `G^4_256` θ-line policy
//! (so the shared plan cache holds exactly one strategy artifact across
//! all of them) with effectively unbounded budgets. Two workloads:
//!
//! * **fit-dominated** — 512 release requests round-robined over the
//!   tenants: the realistic "many tenants releasing estimates" traffic
//!   where each request carries real mechanism work;
//! * **mixed** — alternating releases and 200-query answer batches
//!   against stored estimates (the `answer_many` O(1)-per-query path).
//!
//! Beside them, `wire_answer_32_1d` and `wire_answer_32_2d` time one
//! `answer` line with 32 ranges through `Codec::serve` — parse, tenant
//! lookup, validation, answers and the rendered reply — against a
//! `line:256` and a `grid:16` tenant that already hold an estimate: the
//! per-line cost of the wire path, which the 200-query `answer_many`
//! batches above do not see. `onboard_theta_line_4096_8` and
//! `onboard_star_4096` time one `tenant` line with a 4096-value `data=`
//! list through `Codec::serve` into a fresh `Service`: parse, policy
//! classification (the star's through its tree incidence), ledger account
//! and the registered data — the cold start of a joining tenant.
//! `fit_grid_128` and `fit_theta_grid_64_4` time one planner-default
//! `fit` line through `Codec::serve` against a warm `grid:128` and
//! `theta-grid:64:4` tenant: ledger charge, the 2-D release (254 and 64
//! layer plus 62 red-grid Privelet passes), the estimate's summed-area
//! table and the stored handle.
//!
//! Each workload is served twice, every request through
//! `wire::serve_request`: sequentially in a loop (one client thread) and
//! fanned across cores with `parallel_map` (N client threads against the
//! same `&Service`). After measuring, the bench *asserts* that
//! multi-threaded fit throughput is at least 2x single-threaded (when
//! ≥ 4 cores are available), and that `PlanStats` still shows the shared
//! artifact was derived exactly once under all that concurrency — so a
//! service-layer scalability regression fails `cargo bench --bench
//! service` (and the CI `BLOWFISH_BENCH_QUICK=1` smoke step) instead of
//! rotting silently. Results are snapshotted in `BENCH_service.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_core::{DataVector, Domain, Epsilon, PolicyGraph};
use blowfish_engine::wire::{serve_request, RawRanges};
use blowfish_engine::{
    parallel_map, Codec, MechanismSpec, Request, Service, Task, TenantConfig, WireReply,
};
use blowfish_strategies::ThetaEstimator;

const TENANTS: usize = 4;
const K: usize = 256;
const THETA: usize = 4;
const REQUESTS: usize = 512;

fn tenant_id(i: usize) -> String {
    format!("tenant-{}", i % TENANTS)
}

fn build_service() -> Service {
    let service = Service::new();
    let graph = PolicyGraph::theta_line(K, THETA).expect("policy");
    for t in 0..TENANTS {
        let counts: Vec<f64> = (0..K).map(|i| ((i * 13 + t * 7) % 17) as f64).collect();
        service
            .add_tenant(TenantConfig {
                id: tenant_id(t),
                graph: graph.clone(),
                eps: Epsilon::new(0.5).expect("ε"),
                // Effectively unbounded: the bench measures throughput,
                // not exhaustion (fits across all iterations must admit).
                budget: Epsilon::new(1e12).expect("ε"),
                data: DataVector::new(Domain::one_dim(K), counts).expect("data"),
            })
            .expect("tenant");
    }
    service
}

fn fit_request(i: usize) -> Request {
    Request::Fit {
        tenant: tenant_id(i),
        spec: Some(MechanismSpec::ThetaLine {
            theta: THETA,
            estimator: ThetaEstimator::Laplace,
        }),
        task: Task::Histogram,
        seed: i as u64,
        handle: format!("h{}", i % 8),
    }
}

fn fit_requests(n: usize) -> Vec<Request> {
    (0..n).map(fit_request).collect()
}

fn mixed_requests(n: usize) -> Vec<Request> {
    let d = Domain::one_dim(K);
    let mut qrng = StdRng::seed_from_u64(42);
    let ranges = RawRanges::from_queries(&blowfish_core::random_range_specs(&d, 200, &mut qrng));
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                fit_request(i)
            } else {
                Request::Answer {
                    tenant: tenant_id(i),
                    // The warm-up fitted handle h<t> for tenant-<t>.
                    handle: format!("h{}", i % TENANTS),
                    ranges: ranges.clone(),
                }
            }
        })
        .collect()
}

/// A service with a `line:256` tenant `line` and a `grid:16` tenant
/// `grid`, each onboarded and fitted as `h` over the wire.
fn wire_service(codec: &mut Codec) -> Service {
    let service = Service::new();
    for line in [
        "tenant line policy=line:256 eps=0.5 budget=4 data=uniform:3",
        "tenant grid policy=grid:16 eps=0.5 budget=4 data=uniform:2",
        "fit line as=h seed=1 task=range1d",
        "fit grid as=h seed=2 task=range2d",
    ] {
        match codec.serve(&service, line) {
            WireReply::Reply(reply) if reply.starts_with("ok ") => {}
            other => panic!("{line}: {other:?}"),
        }
    }
    service
}

/// An `answer` line with 32 seeded random ranges over `domain`.
fn answer_line(tenant: &str, domain: &Domain) -> String {
    let mut rng = StdRng::seed_from_u64(32);
    let mut line = format!("answer {tenant} from=h");
    for q in blowfish_core::random_range_specs(domain, 32, &mut rng) {
        let dims: Vec<String> =
            q.lo.iter()
                .zip(&q.hi)
                .map(|(lo, hi)| format!("{lo}..{hi}"))
                .collect();
        line.push(' ');
        line.push_str(&dims.join("x"));
    }
    line
}

/// A `tenant` line for `policy` over 4096 cells with an explicit `data=`
/// list, as a client onboarding real data sends it.
fn tenant_line(policy: &str) -> String {
    let data: Vec<String> = (0..4096).map(|i| ((i * 13) % 17).to_string()).collect();
    format!(
        "tenant t policy={policy} eps=0.5 budget=4 data={}",
        data.join(",")
    )
}

fn serve_serial(service: &Service, requests: &[Request]) -> usize {
    let mut ok = 0;
    for request in requests {
        serve_request(service, request).expect("request");
        ok += 1;
    }
    ok
}

fn serve_parallel(service: &Service, requests: &[Request]) -> usize {
    let results = parallel_map(requests, |_, request| serve_request(service, request));
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(ok, requests.len(), "all bench requests must be admitted");
    ok
}

fn bench_service(c: &mut Criterion) {
    let mut g = c.benchmark_group("service");
    g.sample_size(10);

    let service = build_service();
    // Warm-up: derive the one shared artifact and store an answerable
    // estimate h<t> per tenant, so answer requests always resolve.
    for request in fit_requests(TENANTS) {
        serve_request(&service, &request).expect("warm-up fit");
    }

    let fits = fit_requests(REQUESTS);
    g.bench_function("fit_512_serial", |b| {
        b.iter(|| black_box(serve_serial(&service, &fits)))
    });
    g.bench_function("fit_512_parallel", |b| {
        b.iter(|| black_box(serve_parallel(&service, &fits)))
    });

    let mixed = mixed_requests(REQUESTS);
    g.bench_function("mixed_512_serial", |b| {
        b.iter(|| black_box(serve_serial(&service, &mixed)))
    });
    g.bench_function("mixed_512_parallel", |b| {
        b.iter(|| black_box(serve_parallel(&service, &mixed)))
    });

    let mut codec = Codec::new();
    let wire = wire_service(&mut codec);
    for (id, tenant, domain) in [
        ("wire_answer_32_1d", "line", Domain::one_dim(256)),
        (
            "wire_answer_32_2d",
            "grid",
            Domain::product(&[16, 16]).expect("domain"),
        ),
    ] {
        let line = answer_line(tenant, &domain);
        match codec.serve(&wire, &line) {
            WireReply::Reply(reply) if reply.starts_with("ok answer 32 ") => {}
            other => panic!("{line}: {other:?}"),
        }
        g.bench_function(id, |b| {
            b.iter(|| black_box(codec.serve(&wire, black_box(&line))))
        });
    }

    for (id, policy) in [
        ("onboard_theta_line_4096_8", "theta-line:4096:8"),
        ("onboard_star_4096", "star:4096"),
    ] {
        let line = tenant_line(policy);
        match codec.serve(&Service::new(), &line) {
            WireReply::Reply(reply) if reply.starts_with("ok tenant t ") => {}
            other => panic!("{policy}: {other:?}"),
        }
        g.bench_function(id, |b| {
            b.iter(|| black_box(codec.serve(&Service::new(), black_box(&line))))
        });
    }

    for (id, policy) in [
        ("fit_grid_128", "grid:128"),
        ("fit_theta_grid_64_4", "theta-grid:64:4"),
    ] {
        let service = Service::new();
        let fit = "fit t as=h seed=1";
        for line in [
            &format!("tenant t policy={policy} eps=0.5 budget=1e12 data=uniform:3"),
            fit,
        ] {
            match codec.serve(&service, line) {
                WireReply::Reply(reply) if reply.starts_with("ok ") => {}
                other => panic!("{line}: {other:?}"),
            }
        }
        g.bench_function(id, |b| {
            b.iter(|| black_box(codec.serve(&service, black_box(fit))))
        });
    }

    g.finish();

    // Structural invariant: all that concurrent traffic derived the
    // shared θ-line artifact exactly once, across tenants and threads.
    assert_eq!(
        service.cache().stats().theta_line_builds(),
        1,
        "the four tenants must share one cached strategy artifact"
    );

    // Perf invariant: fanning clients across cores must pay. The 2x
    // floor is deliberately loose: fits share no mutable state beyond
    // O(1) ledger/memo lock windows, so the fit workload is expected to
    // scale near-linearly with client threads. The assertion is gated to
    // keep it from flaking where it cannot hold honestly:
    //
    // * < 4 cores — skipped entirely (on one core `parallel_map` falls
    //   back to the serial path and the two sides time identically; see
    //   BENCH_service.json for recorded environments);
    // * quick mode (`BLOWFISH_BENCH_QUICK=1`, the CI smoke) — the ~10 ms
    //   window times each batch over ~1 iteration, so on shared 4-vCPU
    //   CI runners a noisy-neighbor run could land under 2x with no real
    //   regression: quick mode asserts the 2x floor only with ≥ 8 cores
    //   and otherwise checks the weaker "parallel must not *lose* to
    //   serial by more than 25%" sanity bound. Full `cargo bench
    //   --bench service` on ≥ 4 cores always enforces the 2x floor.
    //
    // NOTE: `is_test_mode`/`mean_ns` are extensions of the offline
    // criterion *shim* — when swapping the real criterion crate in,
    // delete this block (upstream tracks regressions via baselines).
    // Machine-readable results for the CI bench-regression gate (no-op
    // unless BLOWFISH_BENCH_SNAPSHOT_DIR is set; shim extension).
    if let Some(path) = c.write_snapshot("service") {
        eprintln!("bench snapshot written to {}", path.display());
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quick = criterion::quick_mode();
    if !c.is_test_mode() && threads >= 4 {
        let mean = |id: &str| {
            c.mean_ns(id)
                .unwrap_or_else(|| panic!("no timing for {id}"))
        };
        let (serial, parallel) = (
            mean("service/fit_512_serial"),
            mean("service/fit_512_parallel"),
        );
        if !quick || threads >= 8 {
            assert!(
                parallel * 2.0 < serial,
                "multi-threaded service fit throughput ({parallel:.0} ns/batch) is no longer \
                 ≥ 2x single-threaded ({serial:.0} ns/batch)"
            );
        } else {
            assert!(
                parallel < serial * 1.25,
                "multi-threaded service fit ({parallel:.0} ns/batch) lost outright to \
                 single-threaded ({serial:.0} ns/batch) on {threads} cores"
            );
        }
    }
}

criterion_group!(benches, bench_service);
criterion_main!(benches);
