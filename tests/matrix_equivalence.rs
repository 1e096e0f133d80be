//! Seeded equivalence of the served matrix mechanism with its dense
//! reference: at every domain size k in 1..=128 and for every strategy
//! a matrix-mechanism id can name, the session-served release (`A⁺`
//! applied by the closed-form tree solve, or for the identity strategy
//! the Laplace mechanism its ids alias) must agree with the dense
//! materialized-`W A⁺` mechanism run from the same seed to ≤1e-9
//! relative. Both draw the identical Laplace vector from a seed, so only
//! the solver differs.

use rand::rngs::StdRng;
use rand::SeedableRng;

use blowfish_privacy::linalg::Matrix;
use blowfish_privacy::mechanisms::{hierarchical_strategy, identity_strategy, wavelet_strategy};
use blowfish_privacy::prelude::*;

/// Builds a dense strategy matrix over k cells.
type DenseStrategy = fn(usize) -> Matrix;

/// The strategy fragment of every matrix-mechanism id, with its dense
/// strategy matrix.
const KINDS: [(&str, DenseStrategy); 3] = [
    ("identity", identity_strategy),
    ("hierarchical", hierarchical_strategy),
    ("wavelet", wavelet_strategy),
];

/// For every k in 1..=128 and every strategy: fits the id
/// `<prefix><strategy>` through a session, and checks `W x̂` against the
/// dense mechanism over the workload `W` run from the same seed.
fn census(prefix: &str, workload: fn(usize) -> Workload) {
    let eps = Epsilon::new(0.8).unwrap();
    for k in 1..=128 {
        let session =
            Session::with_policy(Domain::one_dim(k), Policy::Theta1d { theta: 1 }, eps).unwrap();
        let counts = (0..k).map(|i| ((i * 13 + 5) % 17) as f64).collect();
        let x = DataVector::new(Domain::one_dim(k), counts).unwrap();
        let w = workload(k);
        for (i, (strategy, dense_strategy)) in KINDS.into_iter().enumerate() {
            let seed = (3 * k + i) as u64;
            let spec = MechanismSpec::parse(&format!("{prefix}{strategy}")).unwrap();
            let m = session.mechanism(&spec).unwrap();
            let xhat = m.fit(&x, &mut StdRng::seed_from_u64(seed)).unwrap();
            let served = w.answer(xhat.histogram()).unwrap();
            let dense = MatrixMechanism::new(w.to_dense_matrix(), dense_strategy(k))
                .unwrap()
                .run(x.counts(), m.epsilon(), &mut StdRng::seed_from_u64(seed))
                .unwrap();
            assert_eq!(served.len(), dense.len());
            for (q, (s, d)) in served.iter().zip(&dense).enumerate() {
                assert!(
                    (s - d).abs() <= 1e-9 * (1.0 + d.abs()),
                    "{prefix}{strategy} k={k} query {q}: served {s} vs dense {d}"
                );
            }
        }
    }
}

#[test]
fn served_histogram_releases_match_the_dense_reference() {
    census("mm-hist-", Workload::identity);
}

#[test]
fn served_range_releases_match_the_dense_reference() {
    census("mm-range-", Workload::dyadic_ranges_1d);
}
