//! Criterion benchmarks of the end-to-end Blowfish strategies: one
//! `Mechanism::fit` each (a full private histogram release and its
//! answering table), at the experiment scales.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_core::Epsilon;
use blowfish_data::{dataset, DatasetId};
use blowfish_strategies::{
    GridMechanism, GridPlans, LineMechanism, Mechanism, ThetaEstimator, ThetaLineMechanism,
    ThetaLineStrategy, TreeEstimator,
};

fn bench_strategies(c: &mut Criterion) {
    let eps = Epsilon::new(0.1).expect("valid");
    let mut group = c.benchmark_group("strategies");
    group.sample_size(10);

    let x1d = dataset(DatasetId::D);
    group.bench_function(BenchmarkId::new("line_laplace", 4096), |b| {
        let line = LineMechanism::new(eps, TreeEstimator::Laplace);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| line.fit(&x1d, &mut rng).expect("line"));
    });
    group.bench_function(BenchmarkId::new("line_dawa_cons", 4096), |b| {
        let line = LineMechanism::new(eps, TreeEstimator::DawaConsistent);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| line.fit(&x1d, &mut rng).expect("line"));
    });

    let theta = Arc::new(ThetaLineStrategy::new(4096, 4).expect("k > θ"));
    group.bench_function(BenchmarkId::new("theta4_group_privelet", 4096), |b| {
        let mech = ThetaLineMechanism::new(Arc::clone(&theta), eps, ThetaEstimator::GroupPrivelet)
            .expect("ε/ℓ > 0");
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| mech.fit(&x1d, &mut rng).expect("theta"));
    });

    let x2d = dataset(DatasetId::T100);
    group.bench_function(BenchmarkId::new("grid_privelet", 100 * 100), |b| {
        let grid = GridMechanism::new(eps, GridPlans::new(100, 100).expect("plans"));
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| grid.fit(&x2d, &mut rng).expect("grid"));
    });

    group.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
