//! The plan-once/answer-many hot path of the `blowfish-engine` layer.
//!
//! Three questions, matching the serving story:
//!
//! 1. **cold vs cached plan** — how much a fit costs when the policy
//!    artifacts (a tree policy's incidence, θ-line stretch and group Haar
//!    plans, grid Haar plans) are re-derived per request vs served from a
//!    session's [`PlanCache`];
//! 2. **serve path** — answering 10,000 random ranges from one fitted
//!    `Estimate` (prefix sums: O(1) per query);
//! 3. **plan cost in isolation** — building the session artifacts.
//!
//! The cached numbers are asserted to come from a cache that derived each
//! artifact exactly once (see the `PlanStats` assertions), so this bench
//! doubles as a regression guard for silent re-planning. After measuring,
//! the bench *asserts* that cached-plan paths beat cold-plan paths (via
//! the shim's readable results), so a cache-layer perf regression fails
//! `cargo bench --bench engine` — CI runs it with `BLOWFISH_BENCH_QUICK=1`
//! as a smoke step. Results are snapshotted in `BENCH_engine.json` /
//! `BENCH_plan.json` at the repo root.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_core::{DataVector, Domain, Epsilon, PolicyGraph};
use blowfish_engine::{MatrixStrategyKind, MechanismSpec, Policy, Session};
use blowfish_mechanisms::{hierarchical_strategy, identity_strategy, MatrixMechanism};
use blowfish_strategies::{ThetaEstimator, TreeEstimator};

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);

    let eps = Epsilon::new(0.5).expect("valid ε");

    // --- θ-line strategy over k = 512, θ = 4 (the Figure 8d setting).
    let k = 512;
    let theta = 4;
    let x = DataVector::new(Domain::one_dim(k), vec![2.0; k]).expect("uniform");
    let spec = MechanismSpec::ThetaLine {
        theta,
        estimator: ThetaEstimator::Laplace,
    };

    // Cold: plan + fit per request — what per-call strategy construction
    // costs without the engine.
    g.bench_function(BenchmarkId::new("theta_line_cold_plan_fit", k), |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let s = Session::with_policy(Domain::one_dim(k), Policy::Theta1d { theta }, eps)
                .expect("session");
            let m = s.mechanism(&spec).expect("mechanism");
            black_box(m.fit(&x, &mut rng).expect("fit"))
        })
    });

    // Cached: the session plans once; iterations only fit.
    let session =
        Session::with_policy(Domain::one_dim(k), Policy::Theta1d { theta }, eps).expect("session");
    let mech = session.mechanism(&spec).expect("mechanism");
    g.bench_function(BenchmarkId::new("theta_line_cached_plan_fit", k), |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(mech.fit(&x, &mut rng).expect("fit")))
    });
    assert_eq!(
        session.cache().stats().theta_line_builds(),
        1,
        "cached fits must not re-derive the θ-line strategy"
    );

    // Plan cost in isolation.
    g.bench_function(BenchmarkId::new("theta_line_plan_only", k), |b| {
        b.iter(|| {
            let s = Session::with_policy(Domain::one_dim(k), Policy::Theta1d { theta }, eps)
                .expect("session");
            black_box(s.mechanism(&spec).expect("mechanism"))
        })
    });

    // --- Tree policy over star:512 (the Section 4 incidence `P_G`, cached
    // vs re-derived). A θ-line plan holds no graph or incidence and costs
    // about one fit, so the cache layer's cold/cached invariant is
    // asserted here, on an artifact that still dominates a cold fit.
    let kt = 512;
    let star = PolicyGraph::star(kt).expect("star");
    let xt = DataVector::new(Domain::one_dim(kt), vec![2.0; kt]).expect("uniform");
    let tree_spec = MechanismSpec::Tree(TreeEstimator::Laplace);
    g.bench_function(BenchmarkId::new("tree_cold_plan_fit", kt), |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let s = Session::new(&star, eps).expect("session");
            let m = s.mechanism(&tree_spec).expect("mechanism");
            black_box(m.fit(&xt, &mut rng).expect("fit"))
        })
    });
    let tsession = Session::new(&star, eps).expect("session");
    let tmech = tsession.mechanism(&tree_spec).expect("mechanism");
    g.bench_function(BenchmarkId::new("tree_cached_plan_fit", kt), |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(tmech.fit(&xt, &mut rng).expect("fit")))
    });
    assert_eq!(
        tsession.cache().stats().incidence_builds(),
        1,
        "cached tree fits must not re-derive the incidence"
    );

    // Serve: 10,000 random ranges from one fitted estimate — the batched
    // `answer_many` entry point (one dimensionality dispatch per batch)
    // vs the per-query `answer` loop it replaced.
    let d = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(2);
    let specs = blowfish_core::random_range_specs(&d, 10_000, &mut qrng);
    let mut rng = StdRng::seed_from_u64(3);
    let est = mech.fit(&x, &mut rng).expect("fit");
    g.bench_function("answer_10k_ranges", |b| {
        b.iter(|| black_box(est.answer_many(&specs).expect("answers")))
    });
    g.bench_function("answer_10k_ranges_per_query", |b| {
        b.iter(|| {
            let per: Result<Vec<f64>, _> = specs.iter().map(|q| est.answer(q)).collect();
            black_box(per.expect("answers"))
        })
    });

    // --- Grid strategy over 64×64 (Haar plans cached vs re-derived).
    let kg = 64;
    let xg = DataVector::new(Domain::square(kg), vec![1.0; kg * kg]).expect("uniform");
    let gsession = Session::with_policy(Domain::square(kg), Policy::Theta2d { theta: 1 }, eps)
        .expect("session");
    let gmech = gsession.mechanism(&MechanismSpec::Grid).expect("mechanism");
    g.bench_function(BenchmarkId::new("grid_cold_plan_fit", kg), |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| {
            let s = Session::with_policy(Domain::square(kg), Policy::Theta2d { theta: 1 }, eps)
                .expect("session");
            let m = s.mechanism(&MechanismSpec::Grid).expect("mechanism");
            black_box(m.fit(&xg, &mut rng).expect("fit"))
        })
    });
    g.bench_function(BenchmarkId::new("grid_cached_plan_fit", kg), |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(gmech.fit(&xg, &mut rng).expect("fit")))
    });
    assert_eq!(
        gsession.cache().stats().haar_plan_builds(),
        1,
        "cached grid fits must not re-derive the Haar plans"
    );
    // Why grid cold ≈ cached in wall time: the structural hoist is real —
    // every cold request derives a fresh Haar plan pair, the cached
    // session derived exactly one across all its fits (asserted below via
    // PlanStats) — but at k = 64 the plan pair is ~2·64 weights while the
    // fit itself runs 2(k−1) = 126 length-64 Privelet passes. A plan holds
    // only those weights: both kinds of fit run every pass in one set of
    // work buffers, so the hoisted work is ~0.1% of a fit and invisible
    // next to run-to-run noise. The distinction is therefore asserted
    // structurally, not by timing.
    {
        let mut cold_builds = 0;
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..3 {
            let s = Session::with_policy(Domain::square(kg), Policy::Theta2d { theta: 1 }, eps)
                .expect("session");
            let m = s.mechanism(&MechanismSpec::Grid).expect("mechanism");
            black_box(m.fit(&xg, &mut rng).expect("fit"));
            cold_builds += s.cache().stats().haar_plan_builds();
        }
        assert_eq!(
            cold_builds, 3,
            "each cold grid request derives its own Haar plan pair"
        );
        assert_eq!(
            gsession.cache().stats().haar_plan_builds(),
            1,
            "the cached session never re-derived its pair"
        );
    }

    // --- Dense reference matrix mechanism (A⁺ materialized): the
    // dominant cost of a dense release is deriving A⁺, so a plan held
    // across releases pays it once. The serving path applies A⁺ by the
    // closed-form tree solve instead (`plan-sparse` below); these keys
    // keep measuring the reference implementation against their
    // baselines.
    let km = 64;
    let w = identity_strategy(km);
    let strat_a = hierarchical_strategy(km);
    g.bench_function(BenchmarkId::new("pinv_cold_plan_release", km), |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let mm = MatrixMechanism::new(w.clone(), strat_a.clone()).expect("supported");
            black_box(mm.noise_only(eps, &mut rng).expect("noise"))
        })
    });
    let held = Arc::new(MatrixMechanism::new(w, strat_a).expect("supported"));
    g.bench_function(BenchmarkId::new("pinv_cached_plan_release", km), |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| {
            let mm = Arc::clone(&held);
            black_box(mm.noise_only(eps, &mut rng).expect("noise"))
        })
    });

    g.finish();

    // --- The matrix-mechanism serving path at every k: from the small
    // domains the dense reference also reaches (k = 64..512) to the sizes
    // it cannot (a dense A⁺ at k = 65 536 is 34 GB). A served id holds
    // only its strategy kind, and each release applies A⁺ by the
    // closed-form two-pass tree solve in O(rows): there is no plan to
    // build and nothing is cached. The group and key names predate the
    // tree solve (they measured CSR planning and a factored release) and
    // are kept so the CI gate keeps comparing them against their
    // committed baselines. Snapshotted into BENCH_plan.json
    // (`plan_sparse_ns`) and gated in CI.
    let mut gs = c.benchmark_group("plan-sparse");
    gs.sample_size(10);
    let mspec = MechanismSpec::MatrixHist {
        strategy: MatrixStrategyKind::Hierarchical,
    };
    let mut factored_release_ids = Vec::new();
    for ks in [64usize, 256, 512, 4096, 16_384, 65_536] {
        let theta = 4;
        gs.bench_function(BenchmarkId::new("theta_line_sparse_plan", ks), |b| {
            b.iter(|| {
                let s = Session::with_policy(Domain::one_dim(ks), Policy::Theta1d { theta }, eps)
                    .expect("session");
                black_box(s.mechanism(&mspec).expect("mechanism"))
            })
        });

        let ss = Session::with_policy(Domain::one_dim(ks), Policy::Theta1d { theta }, eps)
            .expect("session");
        let sm = ss.mechanism(&mspec).expect("mechanism");
        let xs = DataVector::new(Domain::one_dim(ks), vec![2.0; ks]).expect("uniform");

        // The session-served release: 2k − 1 Laplace draws and one tree
        // solve per fit.
        gs.bench_function(BenchmarkId::new("matrix_hist_factored_release", ks), |b| {
            let mut rng = StdRng::seed_from_u64(6);
            b.iter(|| black_box(sm.fit(&xs, &mut rng).expect("fit")))
        });
        assert_eq!(
            ss.cache().stats().total_builds(),
            0,
            "k = {ks}: planning and releasing a matrix id must derive no cached artifact"
        );
        if ks >= 4096 {
            factored_release_ids.push(format!("plan-sparse/matrix_hist_factored_release/{ks}"));
        }
    }
    gs.finish();

    // Machine-readable results for the CI bench-regression gate (no-op
    // unless BLOWFISH_BENCH_SNAPSHOT_DIR is set; shim extension).
    if let Some(path) = c.write_snapshot("engine") {
        eprintln!("bench snapshot written to {}", path.display());
    }

    // Perf invariants: the cache layer must keep paying off, and a θ-line
    // plan must stay cheap. These fail the bench binary (and the CI
    // `BLOWFISH_BENCH_QUICK=1` smoke step) if cached-plan serving
    // regresses to cold-plan cost or a θ-line plan to its old spanner and
    // incidence build. Margins are deliberately loose — 2x against a
    // 3–5x measured tree ratio, 5x against a ~55x measured pinv ratio
    // (post-optimization; see BENCH_plan.json), and a θ-line plan, new
    // session included, under 2x a cached fit where it measures about 1x
    // (the old spanner and incidence build measured ~4.5x) — so noisy
    // quick-mode timings cannot flake.
    //
    // NOTE: `is_test_mode`/`mean_ns` are extensions of the offline
    // criterion *shim* — when swapping the real criterion crate in,
    // delete this block (upstream tracks regressions via its own
    // baseline machinery).
    if !c.is_test_mode() {
        let mean = |id: &str| {
            c.mean_ns(id)
                .unwrap_or_else(|| panic!("no timing for {id}"))
        };
        let (cold, cached) = (
            mean("engine/tree_cold_plan_fit/512"),
            mean("engine/tree_cached_plan_fit/512"),
        );
        assert!(
            cached * 2.0 < cold,
            "tree cached fit ({cached:.0} ns) no longer clearly beats cold plan+fit ({cold:.0} ns)"
        );
        let (plan, cached) = (
            mean("engine/theta_line_plan_only/512"),
            mean("engine/theta_line_cached_plan_fit/512"),
        );
        assert!(
            plan < cached * 2.0,
            "θ-line plan ({plan:.0} ns) is no longer cheap next to a cached fit ({cached:.0} ns)"
        );
        let (cold, cached) = (
            mean("engine/pinv_cold_plan_release/64"),
            mean("engine/pinv_cached_plan_release/64"),
        );
        assert!(
            cached * 5.0 < cold,
            "cached A⁺ release ({cached:.0} ns) no longer clearly beats cold pseudoinverse derivation ({cold:.0} ns)"
        );
        // Releases must scale like O(nnz) = O(k log k) or better: going
        // from k = 4096 to k = 65 536 multiplies nnz by ~21, so a 100x
        // margin passes with headroom while an accidental O(k²)+ path
        // (≥256x) fails.
        let (small, large) = (
            mean(&factored_release_ids[0]),
            mean(&factored_release_ids[2]),
        );
        assert!(
            large < small * 100.0,
            "sparse release no longer scales like O(nnz): k=4096 {small:.0} ns vs k=65536 {large:.0} ns"
        );
        // Against the committed CG-release baseline in BENCH_plan.json
        // (131.41 ms at k = 65 536): the served release must stay ≥10x
        // faster.
        const PR7_CG_RELEASE_65536_NS: f64 = 131_411_740.5;
        assert!(
            large * 10.0 < PR7_CG_RELEASE_65536_NS,
            "factored k=65536 release ({large:.0} ns) is no longer ≥10x faster than the committed CG baseline ({PR7_CG_RELEASE_65536_NS:.0} ns)"
        );
    }
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
