//! Quickstart: policy-aware private range queries in five minutes.
//!
//! Builds a small ordered-domain database, releases it under the line
//! policy `G¹_k` (adjacent values indistinguishable — "coarse value public,
//! precise value private"), and compares the error against the best
//! data-oblivious ε-differentially-private baseline (Privelet).
//!
//! Run with: `cargo run --release --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_privacy::prelude::*;

fn main() {
    // A database over 64 ordered bins (think: binned salaries).
    let k = 64;
    let counts: Vec<f64> = (0..k)
        .map(|i| {
            // A lumpy two-mode distribution.
            let a = (-((i as f64 - 18.0) / 7.0).powi(2)).exp() * 400.0;
            let b = (-((i as f64 - 45.0) / 10.0).powi(2)).exp() * 250.0;
            (a + b).round()
        })
        .collect();
    let x = DataVector::new(Domain::one_dim(k), counts).expect("counts match domain");
    println!("database: {} records over {k} bins", x.total());

    // The policy: adjacent bins must be indistinguishable (Section 3's
    // line graph). Distant bins may be distinguished — that is the
    // privacy/utility dial Blowfish adds over plain DP.
    let policy = PolicyGraph::line(k).expect("k >= 2");
    println!(
        "policy: {} with {} edges (tree: {})",
        policy.name(),
        policy.num_edges(),
        policy.is_tree()
    );

    let eps = Epsilon::new(0.2).expect("positive");
    let mut rng = StdRng::seed_from_u64(42);

    // 200 random range queries, answered three ways.
    let domain = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(7);
    let (_, specs) = Workload::random_ranges(&domain, 200, &mut qrng).expect("valid domain");
    // The true answers: an estimate of the exact counts.
    let exact = Estimate::new(&domain, x.counts().to_vec()).expect("finite counts");
    let truth = exact.answer_many(&specs).expect("truth");

    let trials = 25;

    // (ε, G¹)-Blowfish: Laplace on prefix sums (Algorithm 1 of the paper).
    let line = LineMechanism::new(eps, TreeEstimator::Laplace);
    let blowfish = measure_error(&truth, trials, |_| {
        let est = line.fit(&x, &mut rng).expect("line strategy");
        Ok(est.answer_many(&specs).expect("answers"))
    })
    .expect("trials > 0");

    // The same, with isotonic consistency post-processing (Section 5.4).
    let line_consistent = LineMechanism::new(eps, TreeEstimator::LaplaceConsistent);
    let mut rng2 = StdRng::seed_from_u64(43);
    let consistent = measure_error(&truth, trials, |_| {
        let est = line_consistent.fit(&x, &mut rng2).expect("line strategy");
        Ok(est.answer_many(&specs).expect("answers"))
    })
    .expect("trials > 0");

    // ε/2-DP Privelet baseline (the paper's comparison protocol).
    let privelet = PriveletBaseline1d::new(eps.half().expect("ε/2 > 0"));
    let mut rng3 = StdRng::seed_from_u64(44);
    let dp = measure_error(&truth, trials, |_| {
        let est = privelet.fit(&x, &mut rng3).expect("privelet");
        Ok(est.answer_many(&specs).expect("answers"))
    })
    .expect("trials > 0");

    println!("\nmean squared error per range query ({trials} trials):");
    println!("  ε/2-DP Privelet:               {:>12.1}", dp.mean_mse);
    println!(
        "  (ε,G)-Blowfish (Algorithm 1):  {:>12.1}",
        blowfish.mean_mse
    );
    println!(
        "  (ε,G)-Blowfish + consistency:  {:>12.1}",
        consistent.mean_mse
    );
    println!(
        "\nBlowfish beats the DP baseline by {:.0}x on this workload —",
        dp.mean_mse / blowfish.mean_mse
    );
    println!("the Θ(1/ε²) vs O(log³k/ε²) gap of Theorem 5.2.");
}
