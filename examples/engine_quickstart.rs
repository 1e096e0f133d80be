//! End-to-end tour of the plan-once/serve-many engine:
//!
//! 1. open a [`Session`] for a policy graph (the planner recognizes the
//!    family),
//! 2. let the planner pick the paper-recommended strategy for the task,
//! 3. fit once, then serve thousands of range queries in O(1) each,
//! 4. sweep the full Figure-8 registry lineup through the same session —
//!    sharing one plan cache — and print a mini error comparison.
//!
//! Run with: `cargo run --release --example engine_quickstart`

use blowfish_privacy::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A salary histogram over 256 ordered bins under the θ-line policy
    // G⁴: salaries within 4 bins of each other are indistinguishable.
    let k = 256;
    let counts: Vec<f64> = (0..k)
        .map(|i| (1000.0 * (-((i as f64 - 90.0) / 40.0).powi(2)).exp()).round())
        .collect();
    let x = DataVector::new(Domain::one_dim(k), counts).expect("histogram");
    let graph = PolicyGraph::theta_line(k, 4).expect("policy");
    let eps = Epsilon::new(0.5).expect("ε");

    // --- Plan once.
    let session = Session::new(&graph, eps).expect("session");
    println!("policy recognized as: {}", session.policy().name());
    let plan = session.plan(Task::Range1d).expect("plan");
    println!(
        "planner chose: {} ({})",
        plan.spec().label(),
        plan.spec().id()
    );

    // --- Serve many: one fit answers 10,000 random ranges.
    let d = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(1);
    let (_, specs) = Workload::random_ranges(&d, 10_000, &mut qrng).expect("specs");
    // The true answers: an estimate of the exact counts.
    let exact = Estimate::new(&d, x.counts().to_vec()).expect("finite counts");
    let truth = exact.answer_many(&specs).expect("truth");
    let mut rng = StdRng::seed_from_u64(2);
    let estimate = plan.fit(&x, &mut rng).expect("fit");
    let answers = estimate.answer_many(&specs).expect("answers");
    let mse = mse_per_query(&truth, &answers).expect("mse");
    println!(
        "planned strategy: {:.3} MSE/query over {} ranges",
        mse,
        specs.len()
    );

    // --- The full registry lineup (ε/2-DP baselines vs (ε, G)-Blowfish),
    // all through the same session and plan cache.
    println!("\nFigure-8 lineup under {}:", session.policy().name());
    for spec in session.registry(Task::Range1d).expect("registry") {
        let mech = session.mechanism(&spec).expect("mechanism");
        let mut rng = StdRng::seed_from_u64(3);
        let est = mech.fit(&x, &mut rng).expect("fit");
        let ans = est.answer_many(&specs).expect("answers");
        let mse = mse_per_query(&truth, &ans).expect("mse");
        let kind = if spec.is_baseline() {
            "ε/2-DP  "
        } else {
            "Blowfish"
        };
        println!("  [{kind}] {:<28} {mse:>12.3} MSE/query", spec.label());
    }

    // The θ-line strategy (certified stretch and group Haar plans) was
    // derived exactly once for the whole sweep — that is the engine's job.
    let stats = session.cache().stats();
    println!(
        "\nplan cache: {} θ-line build(s), {} total artifact build(s) across the sweep",
        stats.theta_line_builds(),
        stats.total_builds()
    );
}
