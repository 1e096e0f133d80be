//! Criterion benchmarks of the transformational-equivalence machinery:
//! `P_G` construction, query transformation, and the tree solve for `x_G`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use blowfish_core::{DataVector, Domain, Incidence, LinearQuery, PolicyGraph};

fn bench_transform(c: &mut Criterion) {
    let mut group = c.benchmark_group("transform");
    group.sample_size(10);

    // P_G construction for the three policy families.
    group.bench_function(BenchmarkId::new("incidence_line", 4096), |b| {
        let g = PolicyGraph::line(4096).expect("valid");
        b.iter(|| Incidence::new(&g).expect("incidence"));
    });
    group.bench_function(BenchmarkId::new("incidence_theta4", 4096), |b| {
        let g = PolicyGraph::theta_line(4096, 4).expect("valid");
        b.iter(|| Incidence::new(&g).expect("incidence"));
    });
    group.bench_function(BenchmarkId::new("incidence_grid", 100 * 100), |b| {
        let g = PolicyGraph::distance_threshold(Domain::square(100), 1).expect("valid");
        b.iter(|| Incidence::new(&g).expect("incidence"));
    });

    // Tree solve (subtree sums) at k = 4096.
    let line = PolicyGraph::line(4096).expect("valid");
    let inc = Incidence::new(&line).expect("incidence");
    let x = DataVector::new(
        Domain::one_dim(4096),
        (0..4096).map(|i| (i % 17) as f64).collect(),
    )
    .expect("shape");
    let reduced = inc.reduce_database(&x).expect("reduce");
    group.bench_function(BenchmarkId::new("solve_tree_line", 4096), |b| {
        b.iter(|| inc.solve_tree(&reduced).expect("tree"));
    });

    // Query transformation: a range query through P_G.
    let q = LinearQuery::range(4096, 1000, 3000).expect("valid range");
    group.bench_function(BenchmarkId::new("transform_range_query", 4096), |b| {
        b.iter(|| inc.transform_query(&q).expect("transform"));
    });

    group.finish();
}

criterion_group!(benches, bench_transform);
criterion_main!(benches);
