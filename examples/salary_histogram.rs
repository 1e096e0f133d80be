//! Salary histograms under the line policy — the paper's Section 3
//! motivating example, including the data-dependent estimators of
//! Section 5.4.
//!
//! Salaries are binned so bin `i` covers `[2^{i−1}, 2^i)`: revealing a
//! rough range is acceptable, distinguishing adjacent bins is not. On
//! sparse histograms the consistency trick (prefix sums are monotone, so
//! isotonic regression is free accuracy) and DAWA-on-the-transform shine.
//!
//! Run with: `cargo run --release --example salary_histogram`

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_privacy::prelude::*;

fn main() {
    // 512 salary bins; real mass concentrated in a narrow band (sparse).
    let k = 512;
    let mut counts = vec![0.0; k];
    for (bin, mass) in [
        (120usize, 4000.0),
        (121, 6500.0),
        (122, 5200.0),
        (123, 2100.0),
        (180, 800.0),
        (181, 450.0),
    ] {
        counts[bin] = mass;
    }
    let x = DataVector::new(Domain::one_dim(k), counts).expect("counts match domain");
    println!(
        "salary database: {} employees, {} bins, {:.1}% empty bins",
        x.total(),
        k,
        x.percent_zero()
    );

    let eps = Epsilon::new(0.05).expect("positive");
    let truth = x.counts().to_vec();
    let trials = 30;

    let estimators = [
        TreeEstimator::Laplace,
        TreeEstimator::LaplaceConsistent,
        TreeEstimator::Dawa,
        TreeEstimator::DawaConsistent,
    ];
    println!(
        "\nhistogram mean squared error per bin ({trials} trials, ε={}):",
        eps.value()
    );
    for est in estimators {
        let line = LineMechanism::new(eps, est);
        let mut rng = StdRng::seed_from_u64(0x5A1A ^ est as u64);
        let report = measure_error(&truth, trials, |_| {
            let release = line.fit(&x, &mut rng).expect("line strategy");
            Ok(release.histogram().to_vec())
        })
        .expect("trials > 0");
        println!("  {:<30} {:>14.1}", est.name(), report.mean_mse);
    }

    // DP baselines at ε/2 per the paper's protocol.
    let half = eps.half().expect("ε/2 > 0");
    let (laplace, dawa) = (LaplaceBaseline::new(half), DawaBaseline1d::new(half));
    let mut rng = StdRng::seed_from_u64(99);
    let lap = measure_error(&truth, trials, |_| {
        let release = laplace.fit(&x, &mut rng).expect("laplace");
        Ok(release.histogram().to_vec())
    })
    .expect("trials > 0");
    let mut rng2 = StdRng::seed_from_u64(100);
    let dawa = measure_error(&truth, trials, |_| {
        let release = dawa.fit(&x, &mut rng2).expect("dawa");
        Ok(release.histogram().to_vec())
    })
    .expect("trials > 0");
    println!("  {:<30} {:>14.1}", "ε/2-DP Laplace", lap.mean_mse);
    println!("  {:<30} {:>14.1}", "ε/2-DP DAWA", dawa.mean_mse);

    // What consistency is actually doing: the transformed database is the
    // non-decreasing vector of prefix sums; long flat runs (empty bins)
    // collapse into pools, so error scales with the number of *distinct*
    // prefix values — the number of nonzero bins (Section 5.4.2).
    let distinct: usize = {
        let p = x.prefix_sums();
        let mut d = 1;
        for w in p.windows(2) {
            if w[1] != w[0] {
                d += 1;
            }
        }
        d
    };
    println!(
        "\nx_G has only {distinct} distinct prefix values out of {k} — that is why \
         the consistent estimators win on sparse data."
    );
}
