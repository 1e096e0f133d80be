//! The plan cache: per-policy artifacts derived once, served many times.
//!
//! Every policy-aware strategy leans on artifacts that are pure functions
//! of `(domain, policy)` — the incidence matrix `P_G` of a tree policy,
//! the certified stretch of the `H^θ` spanners, and Haar wavelet plans.
//! (The matrix mechanism needs none: its strategies are trees, and each
//! release applies `A⁺` in closed form. Nor does a θ-line strategy keep
//! its spanner: `H^θ_k`'s shape is fixed, so its edge values and `P_G`
//! are two closed-form passes, and a cached θ-line entry is a few
//! hundred bytes.) Before the engine existed each
//! invocation re-derived them; a [`PlanCache`] materializes each
//! artifact exactly once and hands out `Arc` clones across fits, trials,
//! and mechanisms.
//!
//! Build counts are tracked in [`PlanStats`] so callers (tests, the
//! `engine` criterion bench) can *prove* the cache is not silently
//! re-deriving artifacts on the hot path.
//!
//! ## Concurrency
//!
//! The cache is **lock-striped**: every artifact class is a set of
//! independent mutex-guarded shards, and a key hashes to exactly one
//! shard. Concurrent planners working on *different* artifacts proceed in
//! parallel (they almost always land on different stripes), while racing
//! requests for the *same* key serialize on one stripe and still derive
//! the artifact exactly once — the build runs under the stripe lock, so
//! [`PlanStats`] counters are exact even under contention. Incidence
//! matrices are keyed by [`PolicyGraph::structural_hash`] with a
//! collision-checked structural-equality fallback (the old
//! implementation linearly scanned a single `Mutex<Vec>`, serializing
//! every planner through one lock and one O(n) walk).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use blowfish_core::{Incidence, PolicyGraph};
use blowfish_strategies::{GridPlans, ThetaGridStrategy, ThetaLineStrategy};

use crate::EngineError;

/// Monotone counters of how many times each artifact class was actually
/// derived (not served from cache).
#[derive(Debug, Default)]
pub struct PlanStats {
    incidence: AtomicUsize,
    theta_line: AtomicUsize,
    theta_grid: AtomicUsize,
    haar: AtomicUsize,
}

impl PlanStats {
    /// Incidence matrices (`P_G`) built.
    pub fn incidence_builds(&self) -> usize {
        self.incidence.load(Ordering::Relaxed)
    }

    /// θ-line strategies (certified stretch + group Haar plans) built.
    pub fn theta_line_builds(&self) -> usize {
        self.theta_line.load(Ordering::Relaxed)
    }

    /// θ-grid strategies (block geometry + certified stretch) built.
    pub fn theta_grid_builds(&self) -> usize {
        self.theta_grid.load(Ordering::Relaxed)
    }

    /// Grid Haar plan pairs built.
    pub fn haar_plan_builds(&self) -> usize {
        self.haar.load(Ordering::Relaxed)
    }

    /// Total artifact derivations across all classes.
    pub fn total_builds(&self) -> usize {
        self.incidence_builds()
            + self.theta_line_builds()
            + self.theta_grid_builds()
            + self.haar_plan_builds()
    }
}

/// Number of independent mutex shards per artifact class. Small powers of
/// two beyond the bench container's core count buy nothing; 16 keeps the
/// struct compact while making same-stripe collisions between *distinct*
/// hot keys rare.
const STRIPES: usize = 16;

/// A lock-striped hash map: a key hashes to one of [`STRIPES`] independent
/// `Mutex<HashMap>` shards. Builds run **under the stripe lock**, so a
/// cold key is derived exactly once no matter how many threads race it,
/// while keys on different stripes build fully in parallel.
#[derive(Debug)]
struct LockStriped<K, V> {
    stripes: Vec<Mutex<HashMap<K, V>>>,
}

impl<K, V> Default for LockStriped<K, V> {
    fn default() -> Self {
        LockStriped {
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }
}

impl<K: Eq + Hash, V: Clone> LockStriped<K, V> {
    fn stripe(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.stripes[(h.finish() as usize) % STRIPES]
    }

    /// Returns the cached value for `key`, or builds, counts, and caches
    /// it. The build runs under the stripe lock (exactly-once semantics);
    /// `counter` is bumped only on an actual derivation.
    fn get_or_build<E>(
        &self,
        key: K,
        counter: &AtomicUsize,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut map = self.stripe(&key).lock().expect("plan cache stripe lock");
        if let Some(v) = map.get(&key) {
            return Ok(v.clone());
        }
        let v = build()?;
        counter.fetch_add(1, Ordering::Relaxed);
        map.insert(key, v.clone());
        Ok(v)
    }
}

/// Whether two policy graphs are structurally identical — same domain
/// shape and same canonical edge list. The display name is deliberately
/// ignored: `Incidence` is a pure function of `(domain, edges)`, so
/// structurally equal graphs may soundly share one `P_G`.
fn structurally_equal(a: &PolicyGraph, b: &PolicyGraph) -> bool {
    a.domain() == b.domain() && a.edges() == b.edges()
}

/// The graphs that share one structural hash, each with its incidence;
/// a graph is held by the `Arc` its session policy holds.
type IncidenceBucket = Vec<(Arc<PolicyGraph>, Arc<Incidence>)>;

/// Shared, thread-safe store of precomputed strategy artifacts. One cache
/// may serve many sessions (the `Service` layer hands every tenant the
/// same `Arc<PlanCache>`): keys are policy-parameterized, so tenants with
/// the same `(domain, policy)` share artifacts and tenants with different
/// policies never collide.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Incidences keyed by [`PolicyGraph::structural_hash`]; each bucket
    /// holds the graphs that hashed there, compared structurally
    /// (collision-checked equality fallback).
    incidence: LockStriped<u64, IncidenceBucket>,
    theta_line: LockStriped<(usize, usize), Arc<ThetaLineStrategy>>,
    theta_grid: LockStriped<(usize, usize), Arc<ThetaGridStrategy>>,
    grid_plans: LockStriped<(usize, usize), GridPlans>,
    stats: PlanStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// The artifact build counters.
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// The incidence matrix `P_G` of `graph`, derived at most once per
    /// structurally distinct graph: lookup is by canonical structural
    /// hash, with an equality walk over the (almost always singleton)
    /// collision bucket. A new entry shares `graph`'s `Arc` rather than
    /// copying the graph.
    pub fn incidence(&self, graph: &Arc<PolicyGraph>) -> Result<Arc<Incidence>, EngineError> {
        let key = graph.structural_hash();
        let mut map = self
            .incidence
            .stripe(&key)
            .lock()
            .expect("plan cache stripe lock");
        let bucket = map.entry(key).or_default();
        if let Some((_, inc)) = bucket.iter().find(|(g, _)| structurally_equal(g, graph)) {
            return Ok(Arc::clone(inc));
        }
        let inc = Arc::new(Incidence::new(graph)?);
        self.stats.incidence.fetch_add(1, Ordering::Relaxed);
        bucket.push((Arc::clone(graph), Arc::clone(&inc)));
        Ok(inc)
    }

    /// Stores an incidence that was already derived elsewhere (e.g. while
    /// classifying the policy graph), counting the derivation, so the
    /// first mechanism build does not repeat it. The entry shares
    /// `graph`'s `Arc` (the session policy's) rather than copying it.
    pub(crate) fn seed_incidence(&self, graph: &Arc<PolicyGraph>, inc: Arc<Incidence>) {
        let key = graph.structural_hash();
        let mut map = self
            .incidence
            .stripe(&key)
            .lock()
            .expect("plan cache stripe lock");
        let bucket = map.entry(key).or_default();
        if bucket.iter().any(|(g, _)| structurally_equal(g, graph)) {
            return;
        }
        self.stats.incidence.fetch_add(1, Ordering::Relaxed);
        bucket.push((Arc::clone(graph), inc));
    }

    /// The prepared `G^θ_k` strategy (certified stretch and group Haar
    /// plans), derived at most once per `(k, θ)`.
    pub fn theta_line_strategy(
        &self,
        k: usize,
        theta: usize,
    ) -> Result<Arc<ThetaLineStrategy>, EngineError> {
        self.theta_line
            .get_or_build((k, theta), &self.stats.theta_line, || {
                Ok(Arc::new(ThetaLineStrategy::new(k, theta)?))
            })
    }

    /// The prepared `G^θ_{k²}` strategy, derived at most once per
    /// `(k, θ)`.
    pub fn theta_grid_strategy(
        &self,
        k: usize,
        theta: usize,
    ) -> Result<Arc<ThetaGridStrategy>, EngineError> {
        self.theta_grid
            .get_or_build((k, theta), &self.stats.theta_grid, || {
                Ok(Arc::new(ThetaGridStrategy::new(k, theta)?))
            })
    }

    /// The Haar plan pair for a `rows × cols` grid strategy, derived at
    /// most once per shape.
    pub fn grid_plans(&self, rows: usize, cols: usize) -> Result<GridPlans, EngineError> {
        self.grid_plans
            .get_or_build((rows, cols), &self.stats.haar, || {
                Ok(GridPlans::new(rows, cols)?)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_derived_once() {
        let cache = PlanCache::new();
        let g = Arc::new(PolicyGraph::line(16).unwrap());
        for _ in 0..5 {
            cache.incidence(&g).unwrap();
            cache.theta_line_strategy(64, 4).unwrap();
            cache.theta_grid_strategy(8, 4).unwrap();
            cache.grid_plans(8, 8).unwrap();
        }
        assert_eq!(cache.stats().incidence_builds(), 1);
        assert_eq!(cache.stats().theta_line_builds(), 1);
        assert_eq!(cache.stats().theta_grid_builds(), 1);
        assert_eq!(cache.stats().haar_plan_builds(), 1);
        // A different (k, θ) is a distinct artifact.
        cache.theta_line_strategy(64, 8).unwrap();
        assert_eq!(cache.stats().theta_line_builds(), 2);
        assert_eq!(cache.stats().total_builds(), 5);
    }

    #[test]
    fn incidence_is_keyed_by_graph() {
        // Asking for a different policy graph must not serve the first
        // graph's incidence (that would be privacy-unsound).
        let cache = PlanCache::new();
        let line = Arc::new(PolicyGraph::line(8).unwrap());
        let star = Arc::new(PolicyGraph::star(8).unwrap());
        let a = cache.incidence(&line).unwrap();
        let b = cache.incidence(&star).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.num_edges(), 7);
        assert_eq!(b.num_edges(), 8);
        assert_eq!(cache.stats().incidence_builds(), 2);
        // Seeding an already-derived incidence is idempotent per graph.
        cache.seed_incidence(&line, Arc::clone(&a));
        assert_eq!(cache.stats().incidence_builds(), 2);
    }

    #[test]
    fn matrix_ids_build_no_plan_and_match_dense() {
        // Every matrix-mechanism id serves through its closed-form tree
        // solve: nothing is derived into the cache, and the served fit
        // matches the dense reference mechanism built directly from the
        // same seed.
        use crate::{MechanismSpec, Policy, Session};
        use blowfish_core::{DataVector, Domain, Epsilon};
        use blowfish_linalg::Matrix;
        use blowfish_mechanisms::{
            hierarchical_strategy, identity_strategy, wavelet_strategy, MatrixMechanism,
        };
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let k = 8;
        let cache = Arc::new(PlanCache::new());
        let session = Session::with_policy_and_cache(
            Domain::one_dim(k),
            Policy::Theta1d { theta: 1 },
            Epsilon::new(1.0).unwrap(),
            Arc::clone(&cache),
        )
        .unwrap();
        let x =
            DataVector::new(Domain::one_dim(k), (0..k).map(|i| (i % 3) as f64).collect()).unwrap();
        for (strategy, dense) in [
            ("identity", identity_strategy(k)),
            ("hierarchical", hierarchical_strategy(k)),
            ("wavelet", wavelet_strategy(k)),
        ] {
            let spec = |id: String| MechanismSpec::parse(&id).unwrap();
            let hist = session
                .mechanism(&spec(format!("mm-hist-{strategy}")))
                .unwrap();
            session
                .mechanism(&spec(format!("mm-range-{strategy}")))
                .unwrap();
            let served = hist.fit(&x, &mut StdRng::seed_from_u64(3)).unwrap();
            let reference = MatrixMechanism::new(Matrix::identity(k), dense)
                .unwrap()
                .run(x.counts(), hist.epsilon(), &mut StdRng::seed_from_u64(3))
                .unwrap();
            for (s, d) in served.histogram().iter().zip(&reference) {
                assert!(
                    (s - d).abs() <= 1e-9 * (1.0 + d.abs()),
                    "{strategy}: {s} vs {d}"
                );
            }
        }
        assert_eq!(cache.stats().total_builds(), 0);
    }

    #[test]
    fn shared_strategy_instances() {
        let cache = PlanCache::new();
        let a = cache.theta_line_strategy(32, 4).unwrap();
        let b = cache.theta_line_strategy(32, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn incidence_keying_is_structural_not_nominal() {
        // A renamed but structurally identical graph must hit the same
        // cache slot — Incidence is a pure function of (domain, edges).
        let cache = PlanCache::new();
        let line = Arc::new(PolicyGraph::line(8).unwrap());
        let renamed = Arc::new(
            PolicyGraph::from_edges(line.domain().clone(), line.edges().to_vec(), "renamed-line")
                .unwrap(),
        );
        assert_eq!(line.structural_hash(), renamed.structural_hash());
        let a = cache.incidence(&line).unwrap();
        let b = cache.incidence(&renamed).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().incidence_builds(), 1);
    }

    #[test]
    fn concurrent_hammering_builds_each_artifact_exactly_once() {
        // 8 threads race one shared cache over a mixed artifact set; the
        // stripe locks must resolve every race to exactly one build per
        // distinct artifact, with no deadlock.
        let cache = Arc::new(PlanCache::new());
        let graphs: Vec<Arc<PolicyGraph>> = vec![
            Arc::new(PolicyGraph::line(16).unwrap()),
            Arc::new(PolicyGraph::star(16).unwrap()),
            Arc::new(PolicyGraph::theta_line(16, 3).unwrap()),
        ];
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let graphs = &graphs;
                scope.spawn(move || {
                    for _ in 0..20 {
                        for g in graphs {
                            cache.incidence(g).unwrap();
                        }
                        cache.theta_line_strategy(64, 2).unwrap();
                        cache.theta_line_strategy(64, 4).unwrap();
                        cache.theta_grid_strategy(8, 2).unwrap();
                        cache.grid_plans(8, 8).unwrap();
                    }
                });
            }
        });
        assert_eq!(cache.stats().incidence_builds(), 3);
        assert_eq!(cache.stats().theta_line_builds(), 2);
        assert_eq!(cache.stats().theta_grid_builds(), 1);
        assert_eq!(cache.stats().haar_plan_builds(), 1);
    }
}
