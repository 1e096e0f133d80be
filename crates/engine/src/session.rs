//! The plan-once/serve-many session layer.
//!
//! A [`Session`] binds `(Domain, policy, ε)` and a [`PlanCache`]:
//! mechanisms requested through it share precomputed artifacts
//! (incidence, spanners, Haar plans) and are themselves memoized, so a
//! serving loop — or a five-trial experiment cell — pays the planning
//! cost exactly once. The [`Session::plan`] planner picks the
//! paper-recommended strategy for a task; [`Session::registry`] lists the
//! full Figure 8/9 panel lineup for the session's policy.
//!
//! A session only classifies, plans and memoizes: ε is the parameter its
//! mechanisms are built at, and nothing here tracks cumulative spend —
//! exactly the one-shot experiment shape the figure panels use. The
//! multi-tenant [`Service`](crate::Service) builds its tenants' sessions
//! over one *shared* `Arc<PlanCache>` ([`Session::with_cache`]) and
//! meters releases itself: it charges the exact ε a session's mechanism
//! reports ([`Mechanism::epsilon`]) to the tenant's ledger account
//! before it fits.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::RngCore;

use blowfish_core::{DataVector, Domain, Epsilon, PolicyGraph};
use blowfish_strategies::{
    DawaBaseline1d, DawaBaseline2d, Estimate, GridMechanism, LaplaceBaseline, LineMechanism,
    Mechanism, PriveletBaseline1d, PriveletBaselineNd, StrategyError, ThetaEstimator,
    ThetaGridMechanism, ThetaLineMechanism, TreeEstimator, TreeMechanism,
};

use crate::plan::PlanCache;
use crate::spec::{MatrixStrategyKind, MechanismSpec, Task};
use crate::EngineError;

/// The policy family a session serves, as recognized by the planner.
#[derive(Clone, Debug)]
pub enum Policy {
    /// `G^θ_k` over a 1-D domain; `θ = 1` is the line policy `G¹_k`.
    Theta1d {
        /// Distance threshold θ.
        theta: usize,
    },
    /// `G^θ_{k²}` over a 2-D domain; `θ = 1` is the grid policy `G¹_{k²}`.
    Theta2d {
        /// Distance threshold θ.
        theta: usize,
    },
    /// An arbitrary tree policy, served through its incidence matrix
    /// (Theorem 4.3).
    Tree {
        /// The policy graph (shared with the plan cache).
        graph: Arc<PolicyGraph>,
    },
}

impl Policy {
    /// Human-readable family name.
    pub fn name(&self) -> String {
        match self {
            Policy::Theta1d { theta: 1 } => "G¹_k (line)".to_string(),
            Policy::Theta1d { theta } => format!("G^{theta}_k"),
            Policy::Theta2d { theta: 1 } => "G¹_{k²} (grid)".to_string(),
            Policy::Theta2d { theta } => format!("G^{theta}_{{k²}}"),
            Policy::Tree { graph } => format!("tree policy {}", graph.name()),
        }
    }
}

/// Recognizes a graph's policy family; for tree policies, also returns
/// the incidence built during classification so callers (the session) can
/// seed their plan cache instead of deriving `P_G` a second time.
///
/// A graph with a recorded θ ([`PolicyGraph::theta`]) is classified in
/// O(1), without building its edges: θ beyond the domain's diameter
/// Σ(dim − 1) connects nothing more, so θ′ = min(θ, diameter), and over at
/// most two dimensions a θ′ ≥ 1 makes it `Theta1d`/`Theta2d { θ′ }`.
/// Every other graph — a θ graph over one cell or over three or more
/// dimensions, and any graph given by its edges, even one with a θ
/// family's edges — is served only if its incidence is a tree.
fn classify_graph(
    graph: &PolicyGraph,
) -> Result<(Policy, Option<Arc<blowfish_core::Incidence>>), EngineError> {
    let domain = graph.domain();
    if let Some(theta) = graph.theta() {
        let diameter: usize = domain.dims().iter().map(|&n| n - 1).sum();
        let theta = theta.min(diameter);
        match domain.num_dims() {
            1 if theta >= 1 => return Ok((Policy::Theta1d { theta }, None)),
            2 if theta >= 1 => return Ok((Policy::Theta2d { theta }, None)),
            _ => {}
        }
    }
    let inc = Arc::new(blowfish_core::Incidence::new(graph)?);
    if inc.is_tree() {
        let policy = Policy::Tree {
            graph: Arc::new(graph.clone()),
        };
        return Ok((policy, Some(inc)));
    }
    Err(EngineError::UnsupportedPolicy {
        what: "policy graph is neither a distance-threshold family nor a tree",
    })
}

/// A planned strategy: the chosen spec plus its live mechanism, sharing
/// the session's plan cache.
#[derive(Clone)]
pub struct Plan {
    pub(crate) spec: MechanismSpec,
    pub(crate) mechanism: Arc<dyn Mechanism>,
}

impl Plan {
    /// The chosen spec.
    pub fn spec(&self) -> &MechanismSpec {
        &self.spec
    }

    /// Fits the planned mechanism to a database, producing a query-ready
    /// [`Estimate`].
    pub fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, EngineError> {
        Ok(self.mechanism.fit(x, rng)?)
    }
}

/// A plan-once/serve-many session over `(Domain, policy, ε)`.
pub struct Session {
    domain: Domain,
    policy: Policy,
    eps: Epsilon,
    cache: Arc<PlanCache>,
    mechanisms: Mutex<HashMap<MechanismSpec, Arc<dyn Mechanism>>>,
}

impl Session {
    /// Opens a standalone session for a policy graph over a private
    /// cache, recognizing its [`Policy`] family.
    pub fn new(graph: &PolicyGraph, eps: Epsilon) -> Result<Self, EngineError> {
        Session::with_cache(graph, eps, Arc::new(PlanCache::new()))
    }

    /// Opens a session for a policy graph over a **shared** plan cache —
    /// the multi-tenant [`Service`](crate::Service) shape, where every
    /// tenant's session reuses one artifact store. For tree policies the
    /// incidence derived during classification is seeded into the cache,
    /// so the first mechanism build does not repeat it.
    pub fn with_cache(
        graph: &PolicyGraph,
        eps: Epsilon,
        cache: Arc<PlanCache>,
    ) -> Result<Self, EngineError> {
        let (policy, incidence) = classify_graph(graph)?;
        let session = Session::with_policy_and_cache(graph.domain().clone(), policy, eps, cache)?;
        if let (Policy::Tree { graph }, Some(inc)) = (&session.policy, incidence) {
            session.cache.seed_incidence(graph, inc);
        }
        Ok(session)
    }

    /// Opens a standalone session for an already-classified policy family.
    pub fn with_policy(domain: Domain, policy: Policy, eps: Epsilon) -> Result<Self, EngineError> {
        Session::with_policy_and_cache(domain, policy, eps, Arc::new(PlanCache::new()))
    }

    /// Opens a session for an already-classified policy family over a
    /// shared plan cache.
    pub fn with_policy_and_cache(
        domain: Domain,
        policy: Policy,
        eps: Epsilon,
        cache: Arc<PlanCache>,
    ) -> Result<Self, EngineError> {
        match &policy {
            Policy::Theta1d { theta } => {
                if domain.num_dims() != 1 || *theta == 0 {
                    return Err(EngineError::UnsupportedPolicy {
                        what: "G^θ_k needs a 1-D domain and θ ≥ 1",
                    });
                }
            }
            Policy::Theta2d { theta } => {
                if domain.num_dims() != 2 || *theta == 0 {
                    return Err(EngineError::UnsupportedPolicy {
                        what: "G^θ_{k²} needs a 2-D domain and θ ≥ 1",
                    });
                }
            }
            Policy::Tree { graph } => {
                if graph.domain() != &domain {
                    return Err(EngineError::UnsupportedPolicy {
                        what: "tree policy graph domain does not match the session domain",
                    });
                }
            }
        }
        Ok(Session {
            domain,
            policy,
            eps,
            cache,
            mechanisms: Mutex::new(HashMap::new()),
        })
    }

    /// The session domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The recognized policy family.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The shared artifact cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// The Figure 8/9 panel lineup for this session's policy and task:
    /// ε/2-DP baselines followed by the `(ε, G)`-Blowfish strategies.
    pub fn registry(&self, task: Task) -> Result<Vec<MechanismSpec>, EngineError> {
        match (&self.policy, task) {
            (Policy::Theta1d { theta: 1 }, Task::Histogram) => Ok(vec![
                MechanismSpec::Laplace,
                MechanismSpec::Dawa1d,
                MechanismSpec::Line(TreeEstimator::Laplace),
                MechanismSpec::Line(TreeEstimator::LaplaceConsistent),
                MechanismSpec::Line(TreeEstimator::DawaConsistent),
            ]),
            (Policy::Theta1d { theta: 1 }, Task::Range1d) => Ok(vec![
                MechanismSpec::Privelet1d,
                MechanismSpec::Dawa1d,
                MechanismSpec::Line(TreeEstimator::Laplace),
                MechanismSpec::Line(TreeEstimator::LaplaceConsistent),
                MechanismSpec::Line(TreeEstimator::DawaConsistent),
            ]),
            (Policy::Theta1d { theta }, Task::Histogram | Task::Range1d) => Ok(vec![
                MechanismSpec::Privelet1d,
                MechanismSpec::Dawa1d,
                MechanismSpec::ThetaLine {
                    theta: *theta,
                    estimator: ThetaEstimator::Laplace,
                },
                MechanismSpec::ThetaLine {
                    theta: *theta,
                    estimator: ThetaEstimator::Dawa,
                },
            ]),
            (Policy::Theta2d { theta: 1 }, Task::Histogram | Task::Range2d) => Ok(vec![
                MechanismSpec::PriveletNd,
                MechanismSpec::Dawa2d,
                MechanismSpec::Grid,
            ]),
            (Policy::Theta2d { theta }, Task::Histogram | Task::Range2d) => Ok(vec![
                MechanismSpec::PriveletNd,
                MechanismSpec::Dawa2d,
                MechanismSpec::ThetaGrid { theta: *theta },
            ]),
            (Policy::Tree { .. }, Task::Histogram | Task::Range1d) => Ok(vec![
                MechanismSpec::Laplace,
                MechanismSpec::Tree(TreeEstimator::Laplace),
                MechanismSpec::Tree(TreeEstimator::Dawa),
            ]),
            _ => Err(EngineError::UnsupportedPolicy {
                what: "no registry lineup for this (policy, task) combination",
            }),
        }
    }

    /// Plans the recommended strategy for a task: the paper's
    /// best-default Blowfish mechanism for the session policy.
    pub fn plan(&self, task: Task) -> Result<Plan, EngineError> {
        let spec = match (&self.policy, task) {
            // Algorithm 1 + isotonic consistency: the strongest default
            // across the Figure 8 Hist/1D-Range panels.
            (Policy::Theta1d { theta: 1 }, Task::Histogram | Task::Range1d) => {
                MechanismSpec::Line(TreeEstimator::LaplaceConsistent)
            }
            // The ablations show plain Laplace beats GroupPrivelet at
            // every practical θ (θ < log³θ crossover near 10³).
            (Policy::Theta1d { theta }, Task::Histogram | Task::Range1d) => {
                MechanismSpec::ThetaLine {
                    theta: *theta,
                    estimator: ThetaEstimator::Laplace,
                }
            }
            (Policy::Theta2d { theta: 1 }, Task::Histogram | Task::Range2d) => MechanismSpec::Grid,
            (Policy::Theta2d { theta }, Task::Histogram | Task::Range2d) => {
                MechanismSpec::ThetaGrid { theta: *theta }
            }
            (Policy::Tree { .. }, Task::Histogram | Task::Range1d) => {
                MechanismSpec::Tree(TreeEstimator::Laplace)
            }
            _ => {
                return Err(EngineError::UnsupportedPolicy {
                    what: "no planner default for this (policy, task) combination",
                })
            }
        };
        Ok(Plan {
            spec,
            mechanism: self.mechanism(&spec)?,
        })
    }

    /// Builds (or returns the memoized) mechanism for a spec at the
    /// session budget — Blowfish strategies at ε, baselines at the
    /// Section 6 comparison budget ε/2. A baseline whose ε/2 underflows
    /// to 0 is refused here, so the service never charges it.
    ///
    /// Concurrency: the build runs *outside* the memo lock so distinct
    /// specs (the `parallel` fan-out's cold phase) construct in parallel;
    /// the insert is entry-based, so if two threads race the *same* cold
    /// spec the first finisher wins and every caller receives that single
    /// memoized instance (the loser's transient wrapper is dropped). The
    /// expensive artifacts inside a build are unconditionally derive-once
    /// regardless of such races: they are created under the shared
    /// [`PlanCache`] locks.
    pub fn mechanism(&self, spec: &MechanismSpec) -> Result<Arc<dyn Mechanism>, EngineError> {
        if let Some(m) = self.mechanisms.lock().expect("session lock").get(spec) {
            return Ok(Arc::clone(m));
        }
        let eps = if spec.is_baseline() {
            self.eps.half()?
        } else {
            self.eps
        };
        let built = self.build(spec, eps)?;
        let mut memo = self.mechanisms.lock().expect("session lock");
        let m = memo.entry(*spec).or_insert(built);
        Ok(Arc::clone(m))
    }

    /// Rejects Blowfish specs whose guarantee does not *cover* the
    /// session's policy: a `G^t` mechanism only protects pairs within
    /// distance `t`, so serving it from a `G^s` session with `t < s` —
    /// or from a tree-policy session, whose required pairs a θ-family
    /// mechanism cannot be shown to cover — would silently
    /// under-protect. Stronger (`t ≥ s`) is sound: the mechanism
    /// protects a superset of the required pairs. DP baselines imply
    /// every Blowfish policy and always pass; `Tree` specs are matched
    /// against the session policy in `build()` itself.
    fn check_spec_covers_policy(&self, spec: &MechanismSpec) -> Result<(), EngineError> {
        let uncovered = Err(EngineError::UnsupportedPolicy {
            what: "mechanism's policy guarantee does not cover the session policy",
        });
        match (spec, &self.policy) {
            (
                MechanismSpec::Laplace
                | MechanismSpec::Privelet1d
                | MechanismSpec::PriveletNd
                | MechanismSpec::Dawa1d
                | MechanismSpec::Dawa2d
                | MechanismSpec::MatrixHist { .. }
                | MechanismSpec::Tree(_),
                _,
            ) => Ok(()),
            (MechanismSpec::Line(_), Policy::Theta1d { theta: 1 }) => Ok(()),
            (MechanismSpec::ThetaLine { theta: t, .. }, Policy::Theta1d { theta: s }) if t >= s => {
                Ok(())
            }
            (MechanismSpec::Grid, Policy::Theta2d { theta: 1 }) => Ok(()),
            (MechanismSpec::ThetaGrid { theta: t }, Policy::Theta2d { theta: s }) if t >= s => {
                Ok(())
            }
            _ => uncovered,
        }
    }

    fn build(&self, spec: &MechanismSpec, eps: Epsilon) -> Result<Arc<dyn Mechanism>, EngineError> {
        self.check_spec_covers_policy(spec)?;
        let need_dims = |dims: usize, what: &'static str| -> Result<(), EngineError> {
            if self.domain.num_dims() != dims {
                return Err(EngineError::UnsupportedPolicy { what });
            }
            Ok(())
        };
        Ok(match spec {
            MechanismSpec::Laplace => Arc::new(LaplaceBaseline::new(eps)),
            MechanismSpec::Privelet1d => {
                need_dims(1, "dp-privelet-1d needs a 1-D domain")?;
                Arc::new(PriveletBaseline1d::new(eps))
            }
            MechanismSpec::PriveletNd => Arc::new(PriveletBaselineNd::new(eps)),
            MechanismSpec::Dawa1d => {
                need_dims(1, "dp-dawa-1d needs a 1-D domain")?;
                Arc::new(DawaBaseline1d::new(eps))
            }
            MechanismSpec::Dawa2d => {
                need_dims(2, "dp-dawa-2d needs a 2-D domain")?;
                Arc::new(DawaBaseline2d::new(eps))
            }
            MechanismSpec::Line(estimator) => {
                need_dims(1, "the line strategy needs a 1-D domain")?;
                Arc::new(LineMechanism::new(eps, *estimator))
            }
            MechanismSpec::Tree(estimator) => {
                let graph = match &self.policy {
                    Policy::Tree { graph } => Arc::clone(graph),
                    Policy::Theta1d { theta: 1 } => {
                        Arc::new(PolicyGraph::line(self.domain.dim(0))?)
                    }
                    _ => {
                        return Err(EngineError::UnsupportedPolicy {
                            what: "the tree strategy needs a tree policy (or the line policy)",
                        })
                    }
                };
                let inc = self.cache.incidence(&graph)?;
                Arc::new(TreeMechanism::new(inc, eps, *estimator)?)
            }
            MechanismSpec::ThetaLine { theta, estimator } => {
                need_dims(1, "the θ-line strategy needs a 1-D domain")?;
                let strat = self.cache.theta_line_strategy(self.domain.dim(0), *theta)?;
                Arc::new(ThetaLineMechanism::new(strat, eps, *estimator)?)
            }
            MechanismSpec::Grid => {
                need_dims(2, "the grid strategy needs a 2-D domain")?;
                let plans = self
                    .cache
                    .grid_plans(self.domain.dim(0), self.domain.dim(1))?;
                Arc::new(GridMechanism::new(eps, plans))
            }
            MechanismSpec::ThetaGrid { theta } => {
                need_dims(2, "the θ-grid strategy needs a 2-D domain")?;
                if self.domain.dim(0) != self.domain.dim(1) {
                    return Err(EngineError::UnsupportedPolicy {
                        what: "the θ-grid strategy needs a square k × k domain",
                    });
                }
                let strat = self.cache.theta_grid_strategy(self.domain.dim(0), *theta)?;
                Arc::new(ThetaGridMechanism::new(strat, eps)?)
            }
            MechanismSpec::MatrixHist { strategy } => Arc::new(ServedMatrixMechanism {
                eps,
                domain: self.domain.clone(),
                kind: *strategy,
            }),
        })
    }
}

/// The matrix mechanism as a servable [`Mechanism`]: `fit` releases the
/// reconstructed domain estimate `x̂ = x + A⁺η` through the strategy's
/// closed-form tree solve ([`MatrixStrategyKind::reconstruct`]). On the
/// histogram workload `W = I` that is the release itself; on the dyadic
/// range workload `W = D_k` every answer `W x̂` is a linear function of
/// it, so one [`Estimate`] serves both (the `mm-range-*` ids are
/// aliases), with 2-D domains in their row-major linearization.
#[derive(Debug)]
struct ServedMatrixMechanism {
    eps: Epsilon,
    domain: Domain,
    kind: MatrixStrategyKind,
}

impl Mechanism for ServedMatrixMechanism {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        Estimate::new(
            &self.domain,
            self.kind.reconstruct(x.counts(), self.eps, rng),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_core::Workload;
    use blowfish_linalg::Matrix;
    use blowfish_mechanisms::{
        hierarchical_strategy, identity_strategy, laplace_vec, wavelet_strategy, MatrixMechanism,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn classify(graph: &PolicyGraph) -> Result<Policy, EngineError> {
        classify_graph(graph).map(|(policy, _)| policy)
    }

    #[test]
    fn policy_detection_theta_families() {
        let line = PolicyGraph::line(32).unwrap();
        assert!(matches!(
            classify(&line).unwrap(),
            Policy::Theta1d { theta: 1 }
        ));
        let g4 = PolicyGraph::theta_line(64, 4).unwrap();
        assert!(matches!(
            classify(&g4).unwrap(),
            Policy::Theta1d { theta: 4 }
        ));
        let grid = PolicyGraph::distance_threshold(Domain::square(6), 1).unwrap();
        assert!(matches!(
            classify(&grid).unwrap(),
            Policy::Theta2d { theta: 1 }
        ));
        let tgrid = PolicyGraph::distance_threshold(Domain::square(6), 3).unwrap();
        assert!(matches!(
            classify(&tgrid).unwrap(),
            Policy::Theta2d { theta: 3 }
        ));
    }

    #[test]
    fn policy_detection_tree_and_rejection() {
        let star = PolicyGraph::star(8).unwrap();
        assert!(matches!(classify(&star).unwrap(), Policy::Tree { .. }));
        // The cycle is not a θ family and not a tree.
        let cycle = PolicyGraph::cycle(8).unwrap();
        assert!(classify(&cycle).is_err());
        // The complete graph K_k IS G^θ with θ = k−1.
        let complete = PolicyGraph::complete(6).unwrap();
        assert!(matches!(
            classify(&complete).unwrap(),
            Policy::Theta1d { theta: 5 }
        ));
    }

    /// The family name of `graph`'s classification, or `refused`.
    fn family(graph: &PolicyGraph) -> String {
        classify(graph).map_or_else(|_| "refused".to_string(), |p| p.name())
    }

    #[test]
    fn generator_edge_cases_classify_by_clamped_theta() {
        let grid = |dims: &[usize], theta| {
            PolicyGraph::distance_threshold(Domain::product(dims).unwrap(), theta).unwrap()
        };
        for (graph, expected) in [
            // θ at or beyond the diameter connects every pair.
            (PolicyGraph::theta_line(5, 4).unwrap(), "G^4_k"),
            (PolicyGraph::theta_line(5, 9).unwrap(), "G^4_k"),
            (PolicyGraph::complete(2).unwrap(), "G¹_k (line)"),
            (grid(&[3, 3], 7), "G^4_{k²}"),
            // A 1 × n grid is a 2-D family of θ ≤ n − 1.
            (grid(&[1, 6], 1), "G¹_{k²} (grid)"),
            (grid(&[1, 6], 9), "G^5_{k²}"),
            // One cell has no edge: a single-vertex tree.
            (PolicyGraph::line(1).unwrap(), "tree policy G^1_1"),
            (PolicyGraph::complete(1).unwrap(), "tree policy K_1"),
            (grid(&[1, 1], 2), "tree policy G^2_{k^2}"),
            // Three dimensions: served only as a tree.
            (grid(&[1, 1, 4], 1), "tree policy G^1_{k^3}"),
            (grid(&[2, 2, 2], 1), "refused"),
        ] {
            assert_eq!(family(&graph), expected, "{}", graph.name());
        }
    }

    #[test]
    fn graphs_given_by_edges_are_served_only_as_trees() {
        let line = PolicyGraph::line(6).unwrap();
        let path = PolicyGraph::from_edges(Domain::one_dim(6), line.edges().to_vec(), "path");
        assert_eq!(family(&path.unwrap()), "tree policy path");
        let theta2 = PolicyGraph::theta_line(6, 2).unwrap();
        let edges = PolicyGraph::from_edges(Domain::one_dim(6), theta2.edges().to_vec(), "G2");
        assert!(matches!(
            classify(&edges.unwrap()),
            Err(EngineError::UnsupportedPolicy { .. })
        ));
    }

    #[test]
    fn session_memoizes_mechanisms_and_artifacts() {
        let g = PolicyGraph::theta_line(64, 4).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        let s = Session::new(&g, eps).unwrap();
        let spec = MechanismSpec::ThetaLine {
            theta: 4,
            estimator: ThetaEstimator::Laplace,
        };
        let m1 = s.mechanism(&spec).unwrap();
        let m2 = s.mechanism(&spec).unwrap();
        assert!(Arc::ptr_eq(&m1, &m2));
        // Both θ estimators share one prepared strategy artifact.
        s.mechanism(&MechanismSpec::ThetaLine {
            theta: 4,
            estimator: ThetaEstimator::Dawa,
        })
        .unwrap();
        assert_eq!(s.cache().stats().theta_line_builds(), 1);
        // Fits do not touch the artifact counters.
        let x = DataVector::new(Domain::one_dim(64), vec![1.0; 64]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            m1.fit(&x, &mut rng).unwrap();
        }
        assert_eq!(s.cache().stats().total_builds(), 1);
    }

    #[test]
    fn planner_defaults() {
        let eps = Epsilon::new(0.5).unwrap();
        let line = Session::new(&PolicyGraph::line(16).unwrap(), eps).unwrap();
        assert_eq!(
            *line.plan(Task::Range1d).unwrap().spec(),
            MechanismSpec::Line(TreeEstimator::LaplaceConsistent)
        );
        assert!(line.plan(Task::Range2d).is_err());
        let theta = Session::new(&PolicyGraph::theta_line(32, 4).unwrap(), eps).unwrap();
        assert_eq!(
            *theta.plan(Task::Histogram).unwrap().spec(),
            MechanismSpec::ThetaLine {
                theta: 4,
                estimator: ThetaEstimator::Laplace
            }
        );
        let grid =
            Session::with_policy(Domain::square(8), Policy::Theta2d { theta: 1 }, eps).unwrap();
        assert_eq!(
            *grid.plan(Task::Range2d).unwrap().spec(),
            MechanismSpec::Grid
        );
        // Plan end-to-end: fit + serve.
        let x = DataVector::new(Domain::one_dim(16), vec![2.0; 16]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let plan = line.plan(Task::Range1d).unwrap();
        let est = plan.fit(&x, &mut rng).unwrap();
        assert_eq!(est.histogram().len(), 16);
    }

    #[test]
    fn registry_matches_panel_lineups() {
        let eps = Epsilon::new(1.0).unwrap();
        let line = Session::new(&PolicyGraph::line(16).unwrap(), eps).unwrap();
        let hist = line.registry(Task::Histogram).unwrap();
        assert_eq!(hist.len(), 5);
        assert_eq!(hist[0], MechanismSpec::Laplace);
        let r1 = line.registry(Task::Range1d).unwrap();
        assert_eq!(r1[0], MechanismSpec::Privelet1d);
        let theta = Session::new(&PolicyGraph::theta_line(32, 4).unwrap(), eps).unwrap();
        assert_eq!(theta.registry(Task::Range1d).unwrap().len(), 4);
        let grid =
            Session::with_policy(Domain::square(8), Policy::Theta2d { theta: 1 }, eps).unwrap();
        let r2 = grid.registry(Task::Range2d).unwrap();
        assert_eq!(
            r2,
            vec![
                MechanismSpec::PriveletNd,
                MechanismSpec::Dawa2d,
                MechanismSpec::Grid
            ]
        );
        assert!(grid.registry(Task::Range1d).is_err());
    }

    #[test]
    fn baseline_budget_halving() {
        // A baseline served by the session must match the mechanism
        // built directly at ε/2, not ε.
        let eps = Epsilon::new(1.0).unwrap();
        let s = Session::new(&PolicyGraph::line(16).unwrap(), eps).unwrap();
        let x = DataVector::new(Domain::one_dim(16), vec![3.0; 16]).unwrap();
        let m = s.mechanism(&MechanismSpec::Laplace).unwrap();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let via_session = m.fit(&x, &mut a).unwrap().histogram().to_vec();
        let direct = LaplaceBaseline::new(eps.half().unwrap());
        let via_direct = direct.fit(&x, &mut b).unwrap().histogram().to_vec();
        assert_eq!(via_session, via_direct);
        // A session ε whose half underflows serves no baseline.
        let tiny = Session::new(
            &PolicyGraph::line(16).unwrap(),
            Epsilon::new(5e-324).unwrap(),
        )
        .unwrap();
        assert!(tiny.mechanism(&MechanismSpec::Laplace).is_err());
        assert!(tiny
            .mechanism(&MechanismSpec::Line(TreeEstimator::Laplace))
            .is_ok());
    }

    #[test]
    fn weaker_specs_are_rejected() {
        let eps = Epsilon::new(1.0).unwrap();
        // G⁸ session: a G² mechanism under-protects; G⁸ and stronger pass.
        let s = Session::new(&PolicyGraph::theta_line(64, 8).unwrap(), eps).unwrap();
        let spec = |theta| MechanismSpec::ThetaLine {
            theta,
            estimator: ThetaEstimator::Laplace,
        };
        assert!(s.mechanism(&spec(2)).is_err());
        assert!(s.mechanism(&spec(8)).is_ok());
        assert!(s.mechanism(&spec(12)).is_ok());
        assert!(s
            .mechanism(&MechanismSpec::Line(TreeEstimator::Laplace))
            .is_err());
        // Baselines (ε/2-DP implies every policy) always pass.
        assert!(s.mechanism(&MechanismSpec::Privelet1d).is_ok());
        // A tree-policy session cannot be served by θ-family mechanisms:
        // their guarantee cannot be shown to cover an arbitrary tree.
        let t = Session::new(&PolicyGraph::star(8).unwrap(), eps).unwrap();
        assert!(t
            .mechanism(&MechanismSpec::Line(TreeEstimator::Laplace))
            .is_err());
        assert!(t.mechanism(&spec(2)).is_err());
        assert!(t.mechanism(&MechanismSpec::Laplace).is_ok());
        assert!(t
            .mechanism(&MechanismSpec::Tree(TreeEstimator::Laplace))
            .is_ok());
        // 2-D: the G¹ grid strategy cannot serve a G³ session.
        let g = Session::with_policy(Domain::square(6), Policy::Theta2d { theta: 3 }, eps).unwrap();
        assert!(g.mechanism(&MechanismSpec::Grid).is_err());
        assert!(g.mechanism(&MechanismSpec::ThetaGrid { theta: 4 }).is_ok());
        assert!(g.mechanism(&MechanismSpec::ThetaGrid { theta: 2 }).is_err());
    }

    #[test]
    fn tree_session_reuses_classification_incidence() {
        let eps = Epsilon::new(1.0).unwrap();
        let star = PolicyGraph::star(8).unwrap();
        let s = Session::new(&star, eps).unwrap();
        // Classification derived P_G once and seeded the cache.
        assert_eq!(s.cache().stats().incidence_builds(), 1);
        let m = s
            .mechanism(&MechanismSpec::Tree(TreeEstimator::Laplace))
            .unwrap();
        assert_eq!(s.cache().stats().incidence_builds(), 1, "no re-derivation");
        let x = DataVector::new(Domain::one_dim(8), vec![1.0; 8]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.fit(&x, &mut rng).unwrap().histogram().len(), 8);
    }

    /// A service with one line-policy tenant `t` over `x`, granted `eps`
    /// per release out of a total budget of 1.0.
    fn metered_tenant(x: &DataVector, eps: Epsilon) -> crate::Service {
        let service = crate::Service::new();
        service
            .add_tenant(crate::TenantConfig {
                id: "t".to_string(),
                graph: PolicyGraph::line(x.domain().size()).unwrap(),
                eps,
                budget: Epsilon::new(1.0).unwrap(),
                data: x.clone(),
            })
            .unwrap();
        service
    }

    #[test]
    fn metered_fits_charge_exact_epsilon_and_stay_bit_identical() {
        // Releases are metered by the service, which builds its tenant
        // sessions like any other: a charged fit releases exactly the
        // floats an unmetered session's mechanism releases from the seed.
        let graph = PolicyGraph::line(16).unwrap();
        let eps = Epsilon::new(0.25).unwrap();
        let x = DataVector::new(Domain::one_dim(16), vec![2.0; 16]).unwrap();
        let spec = MechanismSpec::Line(TreeEstimator::Laplace);
        let service = metered_tenant(&x, eps);
        let plain = Session::new(&graph, eps).unwrap();

        // The prefix family [0, i] determines a histogram exactly, so
        // bitwise-equal prefixes are bitwise-equal releases.
        let prefixes: Vec<([usize; 1], [usize; 1])> = (0..16).map(|i| ([0], [i])).collect();
        let ranges = || prefixes.iter().map(|(lo, hi)| (&lo[..], &hi[..]));
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();

        let charge = service
            .fit("t", Some(spec), Task::Histogram, 11, "a")
            .unwrap();
        let free = plain
            .mechanism(&spec)
            .unwrap()
            .fit(&x, &mut StdRng::seed_from_u64(11))
            .unwrap();
        assert_eq!(
            bits(service.answer("t", "a", ranges()).unwrap()),
            bits(free.answer_ranges(ranges()).unwrap())
        );
        // Blowfish strategy charges the full grant; receipt is exact.
        assert!((charge.amount - 0.25).abs() < 1e-12);
        assert!((charge.remaining - 0.75).abs() < 1e-12);
        assert!((service.ledger().remaining("t").unwrap() - 0.75).abs() < 1e-12);

        // A baseline charges the ε/2 it actually consumes, not the grant.
        let base = service
            .fit("t", Some(MechanismSpec::Laplace), Task::Histogram, 12, "b")
            .unwrap();
        assert!((base.amount - 0.125).abs() < 1e-12);
        assert_eq!(
            plain.mechanism(&MechanismSpec::Laplace).unwrap().epsilon(),
            eps.half().unwrap()
        );
        assert_eq!(service.ledger().snapshot("t").unwrap().charges, 2);
    }

    #[test]
    fn exhausted_meter_rejects_fit_without_spending() {
        let graph = PolicyGraph::line(8).unwrap();
        let eps = Epsilon::new(0.4).unwrap();
        let x = DataVector::new(Domain::one_dim(8), vec![1.0; 8]).unwrap();
        let spec = MechanismSpec::Line(TreeEstimator::Laplace);
        let service = metered_tenant(&x, eps);
        let fit =
            |seed: u64, handle: &str| service.fit("t", Some(spec), Task::Histogram, seed, handle);
        // 0.4 + 0.4 fit; the third 0.4 does not.
        assert!(fit(1, "a").is_ok());
        assert!(fit(2, "b").is_ok());
        let before = service.ledger().snapshot("t").unwrap();
        let err = fit(3, "c").unwrap_err();
        assert!(err.is_budget_exhausted(), "got {err:?}");
        // The rejection left the account at 0.8 — no partial debit.
        assert_eq!(service.ledger().snapshot("t").unwrap(), before);
        assert!((service.ledger().spent("t").unwrap() - 0.8).abs() < 1e-12);
        // A smaller release still fits in the remaining 0.2.
        let s = Session::new(&graph, Epsilon::new(0.2).unwrap()).unwrap();
        let small = s.mechanism(&spec).unwrap();
        assert!(small.epsilon().value() <= 0.2 + 1e-12);
    }

    #[test]
    fn sessions_share_one_cache_across_tenants() {
        let cache = Arc::new(PlanCache::new());
        let eps = Epsilon::new(0.5).unwrap();
        let g = PolicyGraph::theta_line(64, 4).unwrap();
        let a = Session::with_cache(&g, eps, Arc::clone(&cache)).unwrap();
        let b = Session::with_cache(&g, eps, Arc::clone(&cache)).unwrap();
        let spec = MechanismSpec::ThetaLine {
            theta: 4,
            estimator: ThetaEstimator::Laplace,
        };
        a.mechanism(&spec).unwrap();
        b.mechanism(&spec).unwrap();
        // One artifact derivation across both sessions.
        assert_eq!(cache.stats().theta_line_builds(), 1);
        assert!(Arc::ptr_eq(a.cache(), b.cache()));
    }

    #[test]
    fn matrix_hist_sparse_fit_matches_dense_fit_from_equal_seeds() {
        let k = 96;
        let graph = PolicyGraph::line(k).unwrap();
        let eps = Epsilon::new(0.8).unwrap();
        let x = DataVector::new(
            Domain::one_dim(k),
            (0..k).map(|i| (i % 11) as f64).collect(),
        )
        .unwrap();
        for (id, dense) in [
            ("mm-hist-identity", identity_strategy(k)),
            ("mm-hist-hierarchical", hierarchical_strategy(k)),
            ("mm-hist-wavelet", wavelet_strategy(k)),
        ] {
            let session = Session::new(&graph, eps).unwrap();
            let m = session
                .mechanism(&MechanismSpec::parse(id).unwrap())
                .unwrap();
            // Baseline convention: the matrix mechanism reports ε/2.
            assert_eq!(m.epsilon(), eps.half().unwrap());
            let served = m.fit(&x, &mut StdRng::seed_from_u64(99)).unwrap();
            let reference = MatrixMechanism::new(Matrix::identity(k), dense)
                .unwrap()
                .run(
                    x.counts(),
                    eps.half().unwrap(),
                    &mut StdRng::seed_from_u64(99),
                )
                .unwrap();
            for (i, (s, d)) in served.histogram().iter().zip(&reference).enumerate() {
                assert!(
                    (d - s).abs() <= 1e-9 * (1.0 + d.abs()),
                    "{id} cell {i}: dense {d} vs sparse {s}"
                );
            }
        }
    }

    #[test]
    fn matrix_ids_agree_at_edge_sizes() {
        // Every matrix-mechanism id serves the degenerate and
        // power-of-two-boundary sizes up to the wire's 1-D cap of 4096,
        // and each alias releases its target's bits from equal seeds. The
        // identity strategy (`A⁺ = I`) releases `η + x`, noise first, and
        // the Laplace mechanism `x + η` from the same draws: f64 addition
        // commutes, so the bits agree.
        let eps = Epsilon::new(0.7).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [1usize, 2, 3, 5, 17, 87, 88, 128, 129, 511, 512, 513, 4096] {
            let session =
                Session::with_policy(Domain::one_dim(k), Policy::Theta1d { theta: 1 }, eps)
                    .unwrap();
            let x = DataVector::new(Domain::one_dim(k), (0..k).map(|i| (i % 7) as f64).collect())
                .unwrap();
            let fit = |id: &str| {
                session
                    .mechanism(&MechanismSpec::parse(id).unwrap())
                    .unwrap()
                    .fit(&x, &mut StdRng::seed_from_u64(k as u64))
                    .unwrap()
                    .histogram()
                    .to_vec()
            };
            for strategy in ["hierarchical", "wavelet"] {
                let hist = fit(&format!("mm-hist-{strategy}"));
                assert_eq!(hist.len(), k);
                assert!(hist.iter().all(|v| v.is_finite()), "{strategy} k={k}");
                assert_eq!(bits(&hist), bits(&fit(&format!("mm-range-{strategy}"))));
            }
            let noise = laplace_vec(
                &mut StdRng::seed_from_u64(k as u64),
                1.0 / eps.half().unwrap().value(),
                k,
            );
            let identity: Vec<f64> = noise.iter().zip(x.counts()).map(|(n, c)| n + c).collect();
            for id in ["mm-hist-identity", "mm-range-identity", "dp-laplace"] {
                assert_eq!(bits(&fit(id)), bits(&identity), "{id} k={k}");
            }
        }
    }

    #[test]
    fn matrix_hist_auto_routes_sparse_above_threshold() {
        // At serving scale (k = 16 384) a fit must complete without any
        // dense k×k object (a 2 GiB allocation would OOM the test runner
        // long before asserting).
        let k = 16_384;
        let graph = PolicyGraph::theta_line(k, 4).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let spec = MechanismSpec::MatrixHist {
            strategy: MatrixStrategyKind::Hierarchical,
        };
        let m = session.mechanism(&spec).unwrap();
        let x = DataVector::new(Domain::one_dim(k), vec![2.0; k]).unwrap();
        let est = m.fit(&x, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(est.histogram().len(), k);
        assert!(est.histogram().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn matrix_hist_above_threshold_serves_repeated_releases() {
        // At serving scale (k = 16 384) one mechanism serves repeated
        // releases: each is a fresh draw, equal seeds reproduce it bit
        // for bit, and no release derives anything into the plan cache.
        let k = 16_384;
        let graph = PolicyGraph::theta_line(k, 4).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let spec = MechanismSpec::MatrixHist {
            strategy: MatrixStrategyKind::Hierarchical,
        };
        let m = session.mechanism(&spec).unwrap();
        let builds = session.cache().stats().total_builds();
        let x = DataVector::new(Domain::one_dim(k), vec![1.0; k]).unwrap();
        let releases: Vec<Vec<f64>> = (0..3)
            .map(|seed| {
                let est = m.fit(&x, &mut StdRng::seed_from_u64(seed)).unwrap();
                assert_eq!(est.histogram().len(), k);
                assert!(est.histogram().iter().all(|v| v.is_finite()));
                est.histogram().to_vec()
            })
            .collect();
        assert_ne!(releases[0], releases[1]);
        assert_ne!(releases[1], releases[2]);
        let again = m.fit(&x, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(again.histogram(), &releases[1][..]);
        assert_eq!(session.cache().stats().total_builds(), builds);
    }

    #[test]
    fn matrix_range_serves_w_neq_i_at_serving_scale() {
        // The W ≠ I acceptance path: the dyadic range id at k = 16 384
        // resolves to the very mechanism the histogram id memoized, whose
        // reconstructed x̂ answers every range.
        let k = 16_384;
        let graph = PolicyGraph::theta_line(k, 4).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let range = session
            .mechanism(&MechanismSpec::parse("mm-range-hierarchical").unwrap())
            .unwrap();
        let hist = session
            .mechanism(&MechanismSpec::MatrixHist {
                strategy: MatrixStrategyKind::Hierarchical,
            })
            .unwrap();
        assert!(Arc::ptr_eq(&range, &hist));
        let x = DataVector::new(Domain::one_dim(k), vec![2.0; k]).unwrap();
        for seed in 0..3 {
            let est = range.fit(&x, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(est.histogram().len(), k);
            assert!(est.histogram().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn matrix_range_fit_answers_ranges_like_direct_releases() {
        // At reference scale, the Estimate an `mm-range-*` fit stores
        // must answer the dyadic workload exactly as the dense reference
        // mechanism's release `W x + W A⁺ η` from equal seeds.
        let k = 64;
        let graph = PolicyGraph::line(k).unwrap();
        let eps = Epsilon::new(0.8).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let spec = MechanismSpec::parse("mm-range-hierarchical").unwrap();
        let m = session.mechanism(&spec).unwrap();
        let x =
            DataVector::new(Domain::one_dim(k), (0..k).map(|i| (i % 5) as f64).collect()).unwrap();
        let est = m.fit(&x, &mut StdRng::seed_from_u64(21)).unwrap();
        let w = Workload::dyadic_ranges_1d(k);
        let direct = MatrixMechanism::new(w.to_dense_matrix(), hierarchical_strategy(k))
            .unwrap()
            .run(
                x.counts(),
                eps.half().unwrap(),
                &mut StdRng::seed_from_u64(21),
            )
            .unwrap();
        let from_est = w.answer(est.histogram()).unwrap();
        assert_eq!(from_est.len(), direct.len());
        for (a, b) in from_est.iter().zip(&direct) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn session_validation() {
        let eps = Epsilon::new(1.0).unwrap();
        assert!(
            Session::with_policy(Domain::one_dim(8), Policy::Theta2d { theta: 1 }, eps).is_err()
        );
        assert!(
            Session::with_policy(Domain::one_dim(8), Policy::Theta1d { theta: 0 }, eps).is_err()
        );
        let g = PolicyGraph::line(4).unwrap();
        assert!(
            Session::with_policy(Domain::one_dim(8), Policy::Tree { graph: Arc::new(g) }, eps)
                .is_err()
        );
    }
}
