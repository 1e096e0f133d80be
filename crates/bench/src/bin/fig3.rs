//! Regenerates **Figure 3** — the table of data-independent error bounds —
//! empirically: measures the per-query error of each Blowfish strategy and
//! its ε-DP counterpart on uniform data across domain sizes, and checks the
//! predicted growth orders:
//!
//! | workload | policy | Blowfish bound | ε-DP (Privelet) bound |
//! |---|---|---|---|
//! | R_k   | G¹_k  | Θ(1/ε²)               | O(log³k/ε²)  |
//! | R_k   | G^θ_k | O(log³θ/ε²)           | O(log³k/ε²)  |
//! | R_k²  | G¹_k² | O(2·log³k/ε²)         | O(log⁶k/ε²)  |
//! | R_k²  | G^θ_k²| O(8·log³k·log³θ/ε²)   | O(log⁶k/ε²)  |
//!
//! Flags: `--trials N`, `--queries N`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_bench::{measure_bench, parse_args, sci, true_answers, BenchError};
use blowfish_core::{DataVector, Domain, Epsilon, RangeQuery};
use blowfish_strategies::{
    GridMechanism, GridPlans, LineMechanism, Mechanism, PriveletBaseline1d, PriveletBaselineNd,
    ThetaEstimator, ThetaGridMechanism, ThetaGridStrategy, ThetaLineMechanism, ThetaLineStrategy,
    TreeEstimator,
};

fn main() {
    if let Err(e) = run_all() {
        eprintln!("fig3: {e}");
        std::process::exit(1);
    }
}

fn run_all() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let overrides = parse_args(&args);
    let trials = overrides.trials.unwrap_or(5);
    let queries = overrides.queries.unwrap_or(2_000);
    let eps = Epsilon::new(overrides.epsilon.unwrap_or(1.0))?;

    println!("# Figure 3 — data-independent error per query (measured, uniform data)");
    println!(
        "(ε={}, {trials} trials, {queries} random queries)\n",
        eps.value()
    );

    // --- 1-D rows.
    println!("## R_k (1-D ranges)\n");
    println!("| k | Blowfish G¹ (Θ(1/ε²)) | Blowfish G⁴ (O(log³θ)) | Blowfish G¹⁶ | ε-DP Privelet (O(log³k)) |");
    println!("|---|---|---|---|---|");
    for k in [256usize, 1024, 4096] {
        let x = DataVector::new(Domain::one_dim(k), vec![2.0; k])?;
        let d = Domain::one_dim(k);
        let mut qrng = StdRng::seed_from_u64(11);
        let specs = blowfish_core::random_range_specs(&d, queries, &mut qrng);
        let truth = true_answers(&x, &specs)?;
        let run = |mech: &dyn Mechanism| run(trials, &truth, mech, &x, &specs);

        let g1 = run(&LineMechanism::new(eps, TreeEstimator::Laplace))?;
        let theta = |theta| -> Result<ThetaLineMechanism, BenchError> {
            let strategy = Arc::new(ThetaLineStrategy::new(k, theta)?);
            Ok(ThetaLineMechanism::new(
                strategy,
                eps,
                ThetaEstimator::GroupPrivelet,
            )?)
        };
        let g4 = run(&theta(4)?)?;
        let g16 = run(&theta(16)?)?;
        let dp = run(&PriveletBaseline1d::new(eps))?;
        println!(
            "| {k} | {} | {} | {} | {} |",
            sci(g1),
            sci(g4),
            sci(g16),
            sci(dp)
        );
    }

    // --- 2-D rows.
    println!("\n## R_k² (2-D ranges)\n");
    println!("| k (grid k×k) | Blowfish G¹ (O(2log³k)) | Blowfish G⁴ | ε-DP Privelet (O(log⁶k)) |");
    println!("|---|---|---|---|");
    for k in [32usize, 64] {
        let x = DataVector::new(Domain::square(k), vec![2.0; k * k])?;
        let d = Domain::square(k);
        let mut qrng = StdRng::seed_from_u64(13);
        let specs = blowfish_core::random_range_specs(&d, queries, &mut qrng);
        let truth = true_answers(&x, &specs)?;
        let run = |mech: &dyn Mechanism| run(trials, &truth, mech, &x, &specs);

        let g1 = run(&GridMechanism::new(eps, GridPlans::new(k, k)?))?;
        let s4 = Arc::new(ThetaGridStrategy::new(k, 4)?);
        let g4 = run(&ThetaGridMechanism::new(s4, eps)?)?;
        let dp = run(&PriveletBaselineNd::new(eps))?;
        println!("| {k} | {} | {} | {} |", sci(g1), sci(g4), sci(dp));
    }

    println!("\nShape checks (Figure 3):");
    println!(" - G¹ column flat in k (Θ(1/ε²)); Privelet column grows ~log³k.");
    println!(" - G^θ columns flat in k, growing with θ (log³θ).");
    println!(" - 2-D: Blowfish grows ~log³k vs Privelet's ~log⁶k.");
    Ok(())
}

/// Mean per-query MSE of `trials` fits of `mech` to `x`, each answering
/// `specs`.
fn run(
    trials: usize,
    truth: &[f64],
    mech: &dyn Mechanism,
    x: &DataVector,
    specs: &[RangeQuery],
) -> Result<f64, BenchError> {
    let mut rng = StdRng::seed_from_u64(0xF163);
    let report = measure_bench(truth, trials, |_| {
        Ok(mech.fit(x, &mut rng)?.answer_many(specs)?)
    })?;
    Ok(report.mean_mse)
}
