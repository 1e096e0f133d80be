//! Ablation studies for the design choices DESIGN.md calls out — beyond
//! the paper's own figures:
//!
//! 1. **Inner mechanism of the θ-line strategy** (Laplace vs per-group
//!    Privelet vs DAWA) across θ — quantifies the `log³θ` term of
//!    Theorem 5.5.
//! 2. **Spanner choice** — the bespoke `H^θ_k` (stretch ≤ 3) vs a generic
//!    BFS spanning tree: stretch, and the resulting error through the
//!    Corollary 4.6 budget scaling.
//! 3. **DAWA partition budget α** — the stage-1/stage-2 split.
//! 4. **Matrix-mechanism strategies** on the *transformed* workload
//!    (identity vs hierarchical vs wavelet) at small k — analytic errors,
//!    showing that after the `G¹` transform the identity strategy is the
//!    right choice (the transformed workload is "easy", Section 5.2.1).
//! 5. **Estimators for the Hist open question** — Laplace vs hierarchical
//!    on the transformed database, with and without consistency.
//!
//! Flags: `--trials N`, `--queries N`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_bench::{measure_bench, parse_args, sci, true_answers, BenchError};
use blowfish_core::{
    bfs_spanning_tree, theta_line_spanner, DataVector, Domain, Epsilon, Incidence, PolicyGraph,
    Workload,
};
use blowfish_data::{dataset, DatasetId};
use blowfish_mechanisms::{
    dawa_histogram, hierarchical_strategy, identity_strategy, wavelet_strategy, DawaOptions,
    MatrixMechanism,
};
use blowfish_strategies::{
    LineMechanism, Mechanism, ThetaEstimator, ThetaLineMechanism, ThetaLineStrategy, TreeEstimator,
    TreeMechanism,
};

fn main() {
    if let Err(e) = run() {
        eprintln!("ablations: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), BenchError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let overrides = parse_args(&args);
    let trials = overrides.trials.unwrap_or(5);
    let queries = overrides.queries.unwrap_or(2_000);
    let eps = Epsilon::new(overrides.epsilon.unwrap_or(0.1))?;

    println!(
        "# Ablations (ε={}, {trials} trials, {queries} queries)",
        eps.value()
    );

    ablation_theta_inner(eps, trials, queries)?;
    ablation_spanner_choice(eps, trials, queries)?;
    ablation_dawa_alpha(eps, trials)?;
    ablation_matrix_strategies()?;
    ablation_hist_estimators(eps, trials)?;
    Ok(())
}

/// Mean per-trial MSE of a fallible estimator against a fixed truth.
fn avg_mse(
    truth: &[f64],
    trials: usize,
    mut f: impl FnMut() -> Result<Vec<f64>, BenchError>,
) -> Result<f64, BenchError> {
    Ok(measure_bench(truth, trials, |_| f())?.mean_mse)
}

/// (1) θ-line inner mechanism across θ.
fn ablation_theta_inner(eps: Epsilon, trials: usize, queries: usize) -> Result<(), BenchError> {
    println!("\n## 1. θ-line inner mechanism (uniform data, k = 2048)\n");
    let k = 2048;
    let x = DataVector::new(Domain::one_dim(k), vec![2.0; k])?;
    let d = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(1);
    let specs = blowfish_core::random_range_specs(&d, queries, &mut qrng);
    let truth = true_answers(&x, &specs)?;
    println!("| θ | Laplace | GroupPrivelet | Dawa |");
    println!("|---|---|---|---|");
    for theta in [2usize, 4, 8, 16] {
        let strat = Arc::new(ThetaLineStrategy::new(k, theta)?);
        print!("| {theta} |");
        for est in [
            ThetaEstimator::Laplace,
            ThetaEstimator::GroupPrivelet,
            ThetaEstimator::Dawa,
        ] {
            let mech = ThetaLineMechanism::new(Arc::clone(&strat), eps, est)?;
            let mut rng = StdRng::seed_from_u64(2);
            let mse = avg_mse(&truth, trials, || {
                Ok(mech.fit(&x, &mut rng)?.answer_many(&specs)?)
            })?;
            print!(" {} |", sci(mse));
        }
        println!();
    }
    println!("\nReading: Laplace grows ~linearly in θ, GroupPrivelet ~log³θ — but");
    println!("since θ < log³θ until θ ≈ 1000, plain Laplace wins at every practical");
    println!("θ. Theorem 5.5's Privelet choice matters asymptotically only; the");
    println!("experiments' Transformed+Laplace variant is the right default. DAWA");
    println!("tracks Laplace on uniform data (no structure to exploit).");
    Ok(())
}

/// (2) H^θ spanner vs generic BFS tree.
fn ablation_spanner_choice(eps: Epsilon, trials: usize, queries: usize) -> Result<(), BenchError> {
    println!("\n## 2. Spanner choice for G⁴ (dataset D, k = 1024)\n");
    let k = 1024;
    let theta = 4;
    let x = blowfish_data::aggregate_1d(&dataset(DatasetId::D), k)?;
    let d = Domain::one_dim(k);
    let mut qrng = StdRng::seed_from_u64(3);
    let specs = blowfish_core::random_range_specs(&d, queries, &mut qrng);
    let truth = true_answers(&x, &specs)?;

    // Bespoke spanner.
    let sp = theta_line_spanner(k, theta)?;
    let strat = Arc::new(ThetaLineStrategy::new(k, theta)?);
    let mech = ThetaLineMechanism::new(strat, eps, ThetaEstimator::Laplace)?;
    let mut rng = StdRng::seed_from_u64(4);
    let bespoke = avg_mse(&truth, trials, || {
        Ok(mech.fit(&x, &mut rng)?.answer_many(&specs)?)
    })?;

    // Generic BFS spanning tree of G^θ.
    let g_theta = PolicyGraph::theta_line(k, theta)?;
    let bfs = bfs_spanning_tree(&g_theta, 0)?;
    let bfs_stretch = g_theta.stretch_through(&bfs).ok_or(BenchError::Config {
        what: "BFS tree does not span the θ-line policy graph",
    })?;
    let inc = Arc::new(Incidence::new(&bfs)?);
    let eps_bfs = eps.for_stretch(bfs_stretch)?;
    let tree = TreeMechanism::new(inc, eps_bfs, TreeEstimator::Laplace)?;
    let mut rng2 = StdRng::seed_from_u64(5);
    let generic = avg_mse(&truth, trials, || {
        Ok(tree.fit(&x, &mut rng2)?.answer_many(&specs)?)
    })?;

    println!("| spanner | certified stretch ℓ | budget used | MSE/query |");
    println!("|---|---|---|---|");
    println!(
        "| H^θ (Figure 6) | {} | ε/{} | {} |",
        sp.stretch,
        sp.stretch,
        sci(bespoke)
    );
    println!(
        "| BFS tree | {bfs_stretch} | ε/{bfs_stretch} | {} |",
        sci(generic)
    );
    println!("\nReading: the bespoke spanner's bounded stretch (≤3) is the whole");
    println!("game — a generic tree pays its worse stretch twice (budget AND");
    println!("longer subtree paths).");
    Ok(())
}

/// (3) DAWA budget split α.
fn ablation_dawa_alpha(eps: Epsilon, trials: usize) -> Result<(), BenchError> {
    println!("\n## 3. DAWA partition budget α (dataset E, Hist)\n");
    let x = dataset(DatasetId::E);
    let truth = x.counts().to_vec();
    println!("| α | MSE/cell |");
    println!("|---|---|");
    for alpha in [0.1, 0.25, 0.5, 0.75] {
        let mut rng = StdRng::seed_from_u64(6);
        let opts = DawaOptions {
            partition_budget_fraction: alpha,
        };
        let mse = avg_mse(&truth, trials, || {
            Ok(dawa_histogram(x.counts(), eps, opts, &mut rng)?)
        })?;
        println!("| {alpha} | {} |", sci(mse));
    }
    println!("\nReading: small α starves the partition (bad buckets); large α");
    println!("starves the totals (noisy buckets) — DAWA's default 0.25 sits in");
    println!("the flat middle.");
    Ok(())
}

/// (4) Matrix-mechanism strategies on the transformed workload (analytic).
fn ablation_matrix_strategies() -> Result<(), BenchError> {
    println!("\n## 4. Strategies for the transformed workload (k = 64, analytic)\n");
    let k = 64;
    let eps = Epsilon::new(1.0)?;
    let g = PolicyGraph::line(k)?;
    let inc = Incidence::new(&g)?;
    let w = Workload::all_ranges_1d(k);
    let (wg, _) = inc.transform_workload(&w)?;
    let wg_dense = wg.to_dense_matrix();
    println!("| strategy A_G | Δ_A | E[error]/query |");
    println!("|---|---|---|");
    for (name, strat) in [
        ("identity (Algorithm 1)", identity_strategy(k - 1)),
        ("hierarchical", hierarchical_strategy(k - 1)),
        ("wavelet", wavelet_strategy(k - 1)),
    ] {
        let mm = MatrixMechanism::new(wg_dense.clone(), strat)?;
        println!(
            "| {name} | {} | {} |",
            mm.delta_a(),
            sci(mm.per_query_error(eps))
        );
    }
    println!("\nReading: after the G¹ transform the workload is (near-)identity,");
    println!("so the identity strategy wins — the polylog machinery is only");
    println!("needed BEFORE the transform. This is Section 5.2.1's point.");
    Ok(())
}

/// (5) Hist estimators on the transformed database (the open question).
fn ablation_hist_estimators(eps: Epsilon, trials: usize) -> Result<(), BenchError> {
    println!("\n## 5. Hist under G¹: estimators on x_G (datasets D and E)\n");
    println!("| estimator | D | E |");
    println!("|---|---|---|");
    for est in [
        TreeEstimator::Laplace,
        TreeEstimator::LaplaceConsistent,
        TreeEstimator::Hierarchical,
        TreeEstimator::HierarchicalConsistent,
        TreeEstimator::Dawa,
        TreeEstimator::DawaConsistent,
    ] {
        print!("| {} |", est.name());
        for id in [DatasetId::D, DatasetId::E] {
            let x = dataset(id);
            let truth = x.counts().to_vec();
            let mech = LineMechanism::new(eps, est);
            let mut rng = StdRng::seed_from_u64(7);
            let mse = avg_mse(&truth, trials, || {
                Ok(mech.fit(&x, &mut rng)?.histogram().to_vec())
            })?;
            print!(" {} |", sci(mse));
        }
        println!();
    }
    println!("\nReading: consistency dominates on sparse data; the hierarchical");
    println!("variant (our extension toward the paper's open question) does not");
    println!("beat plain Laplace for per-cell error — differencing cancels the");
    println!("tree's long-range advantage — evidence the open question needs a");
    println!("genuinely different idea.");
    Ok(())
}
