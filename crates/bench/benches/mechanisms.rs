//! Criterion micro-benchmarks of the DP mechanism substrates at the
//! paper's domain scale (k = 4096).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_core::Epsilon;
use blowfish_data::{dataset, DatasetId};
use blowfish_mechanisms::{
    dawa_histogram, hierarchical_histogram, laplace_histogram, privelet_planned_into, DawaOptions,
    HaarPlan, PriveletWork,
};

fn bench_mechanisms(c: &mut Criterion) {
    let x = dataset(DatasetId::D);
    let eps = Epsilon::new(0.1).expect("valid");
    let mut group = c.benchmark_group("mechanisms_k4096");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("laplace", 4096), |b| {
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| laplace_histogram(x.counts(), 1.0, eps, &mut rng).expect("laplace"));
    });
    group.bench_function(BenchmarkId::new("hierarchical", 4096), |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| hierarchical_histogram(x.counts(), eps, &mut rng).expect("hierarchical"));
    });
    group.bench_function(BenchmarkId::new("privelet", 4096), |b| {
        // The one Privelet release body, with its plan and buffers kept
        // across releases as a serving loop keeps them.
        let plan = HaarPlan::new(&[x.len()]).expect("plan");
        let (mut work, mut out) = (PriveletWork::default(), vec![0.0; x.len()]);
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            privelet_planned_into(&plan, x.counts(), eps, &mut rng, &mut work, &mut out)
                .expect("privelet")
        });
    });
    group.bench_function(BenchmarkId::new("dawa", 4096), |b| {
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| dawa_histogram(x.counts(), eps, DawaOptions::default(), &mut rng).expect("dawa"));
    });
    group.finish();
}

criterion_group!(benches, bench_mechanisms);
criterion_main!(benches);
