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
//! A standalone session owns its cache and is **unmetered**: ε is a
//! per-release parameter and nothing tracks cumulative spend — exactly
//! the one-shot experiment shape the figure panels use. The multi-tenant
//! [`Service`](crate::Service) layer instead constructs sessions over a
//! *shared* `Arc<PlanCache>` ([`Session::with_cache`]) and attaches a
//! budget meter ([`Session::metered`]): every [`Session::fit`] then
//! draws the mechanism's exact reported ε ([`Mechanism::epsilon`]) from
//! the tenant's [`Ledger`] account *before* releasing, and an exhausted
//! account rejects the fit with the typed
//! `CoreError::BudgetExhausted` — ε becomes a metered runtime resource
//! rather than construction-time state.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::RngCore;

use blowfish_core::{Charge, DataVector, Domain, Epsilon, Ledger, PolicyGraph, Vtx};
use blowfish_linalg::SparseMatrix;
use blowfish_mechanisms::{
    hierarchical_strategy_sparse, identity_strategy_sparse, wavelet_strategy_sparse,
    SparseMatrixMechanism,
};
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
    /// Recognizes the policy family of a graph: distance-threshold
    /// families by their edge structure, any other tree by connectivity.
    /// Non-tree graphs outside the θ families are rejected — the engine
    /// has no exact strategy for them (Theorem 4.4's negative result).
    pub fn from_graph(graph: &PolicyGraph) -> Result<Policy, EngineError> {
        classify_graph(graph).map(|(policy, _)| policy)
    }

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
fn classify_graph(
    graph: &PolicyGraph,
) -> Result<(Policy, Option<Arc<blowfish_core::Incidence>>), EngineError> {
    let domain = graph.domain();
    let all_value_edges = graph.edges().iter().all(|e| !e.touches_bottom());
    if all_value_edges && domain.num_dims() <= 2 && graph.num_edges() > 0 {
        // Candidate θ: the largest L1 distance spanned by an edge.
        let mut theta = 0usize;
        for e in graph.edges() {
            if let Vtx::Value(v) = e.v {
                theta = theta.max(domain.l1_distance(e.u, v)?);
            }
        }
        if theta > 0 && graph.num_edges() == expected_theta_edges(domain, theta) {
            let policy = match domain.num_dims() {
                1 => Policy::Theta1d { theta },
                _ => Policy::Theta2d { theta },
            };
            return Ok((policy, None));
        }
    }
    // Fall back to the generic tree machinery.
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

/// Number of edges of `G^θ` over `domain` (1-D or 2-D): for each
/// canonical offset `δ` with `|δ|₁ ≤ θ`, the number of in-bounds
/// placements.
fn expected_theta_edges(domain: &Domain, theta: usize) -> usize {
    let t = theta as isize;
    match domain.num_dims() {
        1 => {
            let k = domain.dim(0) as isize;
            (1..=t.min(k - 1)).map(|d| (k - d) as usize).sum()
        }
        2 => {
            let (rows, cols) = (domain.dim(0) as isize, domain.dim(1) as isize);
            let mut count = 0usize;
            // Canonical offsets: first nonzero coordinate positive.
            for dr in 0..=t {
                let rem = t - dr;
                let dc_range: Vec<isize> = if dr == 0 {
                    (1..=rem).collect()
                } else {
                    (-rem..=rem).collect()
                };
                for dc in dc_range {
                    if dr == 0 && dc == 0 {
                        continue;
                    }
                    let fits_r = rows - dr;
                    let fits_c = cols - dc.abs();
                    if fits_r > 0 && fits_c > 0 {
                        count += (fits_r * fits_c) as usize;
                    }
                }
            }
            count
        }
        _ => 0,
    }
}

/// A planned strategy: the chosen spec plus its live mechanism, sharing
/// the session's plan cache.
#[derive(Clone)]
pub struct Plan {
    spec: MechanismSpec,
    mechanism: Arc<dyn Mechanism>,
}

impl Plan {
    /// The chosen spec.
    pub fn spec(&self) -> &MechanismSpec {
        &self.spec
    }

    /// The live mechanism.
    pub fn mechanism(&self) -> &Arc<dyn Mechanism> {
        &self.mechanism
    }

    /// Fits the planned mechanism to a database, producing a query-ready
    /// [`Estimate`].
    pub fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, EngineError> {
        Ok(self.mechanism.fit(x, rng)?)
    }
}

/// A fitted release from a metered [`Session::fit`]: the query-ready
/// estimate plus the ledger receipt (absent on unmetered sessions).
#[derive(Clone, Debug)]
pub struct Fitted {
    /// The query-ready estimate.
    pub estimate: Estimate,
    /// The ledger charge backing this release; `None` when the session
    /// has no meter attached.
    pub charge: Option<Charge>,
}

/// The budget meter of a tenant-owned session: charges against one
/// tenant's account in a shared [`Ledger`].
#[derive(Clone, Debug)]
struct Meter {
    ledger: Arc<Ledger>,
    tenant: String,
}

/// A plan-once/serve-many session over `(Domain, policy, ε)`.
pub struct Session {
    domain: Domain,
    policy: Policy,
    eps: Epsilon,
    cache: Arc<PlanCache>,
    mechanisms: Mutex<HashMap<String, Arc<dyn Mechanism>>>,
    meter: Option<Meter>,
}

impl Session {
    /// Opens a standalone session for a policy graph over a private
    /// cache, recognizing its family ([`Policy::from_graph`]).
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

    /// Attaches a budget meter: every subsequent [`Session::fit`] draws
    /// the mechanism's reported ε from `tenant`'s account in `ledger`
    /// before releasing. Builder-style so the `Service` layer reads
    /// `Session::with_cache(..)?.metered(ledger, tenant)`.
    pub fn metered(mut self, ledger: Arc<Ledger>, tenant: impl Into<String>) -> Self {
        self.meter = Some(Meter {
            ledger,
            tenant: tenant.into(),
        });
        self
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
            meter: None,
        })
    }

    /// Fits a mechanism to `x`, drawing its exact reported ε from the
    /// attached ledger first (when metered): the charge is atomic
    /// check-and-debit, so an exhausted tenant account rejects the
    /// release with the typed `CoreError::BudgetExhausted` **before** any
    /// noise is drawn — a rejected fit consumes neither budget nor
    /// randomness. Unmetered sessions skip straight to the fit, so the
    /// released values are f64-identical either way for a fixed seed.
    ///
    /// `x` is validated against the session domain before anything is
    /// charged, so a shape mismatch cannot burn budget. Should the
    /// mechanism itself still fail *after* the debit, the ε stays spent —
    /// deliberately conservative accounting (the privacy cost of a
    /// release must never be under-counted), so validate inputs up front
    /// rather than relying on refunds.
    pub fn fit(
        &self,
        spec: &MechanismSpec,
        x: &DataVector,
        rng: &mut dyn RngCore,
    ) -> Result<Fitted, EngineError> {
        if x.domain() != &self.domain {
            return Err(EngineError::BadRequest {
                what: "data domain does not match the session domain".to_string(),
            });
        }
        let mechanism = self.mechanism(spec)?;
        let charge = match &self.meter {
            Some(meter) => Some(meter.ledger.charge(
                &meter.tenant,
                &spec.id(),
                mechanism.epsilon(),
            )?),
            None => None,
        };
        Ok(Fitted {
            estimate: mechanism.fit(x, rng)?,
            charge,
        })
    }

    /// Fits a mechanism **without** touching the ledger, even on a
    /// metered session — the crash-recovery path. A service restoring
    /// estimates after [`Ledger::recover`] re-runs fits whose ε was
    /// already durably charged before the crash; re-fitting from the
    /// same `(spec, seed)` is deterministic post-processing of a
    /// release that was already paid for (Borgs et al., "Private
    /// Algorithms Can Always Be Extended": re-deriving an output from
    /// recorded coins consumes no new budget), so charging again would
    /// *double-count* the release. Never expose this to client
    /// requests — it is for replaying already-admitted releases only.
    pub fn fit_unmetered(
        &self,
        spec: &MechanismSpec,
        x: &DataVector,
        rng: &mut dyn RngCore,
    ) -> Result<Estimate, EngineError> {
        if x.domain() != &self.domain {
            return Err(EngineError::BadRequest {
                what: "data domain does not match the session domain".to_string(),
            });
        }
        let mechanism = self.mechanism(spec)?;
        Ok(mechanism.fit(x, rng)?)
    }

    /// The tenant this session charges, when a meter is attached.
    pub fn tenant(&self) -> Option<&str> {
        self.meter.as_ref().map(|m| m.tenant.as_str())
    }

    /// Remaining ledger budget of the metered tenant; `None` when
    /// unmetered (standalone sessions spend freely).
    pub fn budget_remaining(&self) -> Option<f64> {
        let meter = self.meter.as_ref()?;
        meter.ledger.remaining(&meter.tenant).ok()
    }

    /// The session domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The recognized policy family.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The per-release Blowfish grant ε (baselines are served at ε/2).
    /// On a metered session this is how much one Blowfish fit *requests*;
    /// the attached ledger decides whether it is admitted.
    pub fn epsilon(&self) -> Epsilon {
        self.eps
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
    /// Section 6 comparison budget ε/2.
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
        let id = spec.id();
        if let Some(m) = self.mechanisms.lock().expect("session lock").get(&id) {
            return Ok(Arc::clone(m));
        }
        let eps = if spec.is_baseline() {
            self.eps.half()
        } else {
            self.eps
        };
        let built = self.build(spec, eps)?;
        let mut memo = self.mechanisms.lock().expect("session lock");
        let m = memo.entry(id).or_insert(built);
        Ok(Arc::clone(m))
    }

    /// Builds a mechanism for a spec at an explicit budget, bypassing the
    /// baseline ε/2 convention and the memo (artifacts still come from
    /// the shared cache). Used by equivalence tests and custom sweeps.
    pub fn mechanism_at(
        &self,
        spec: &MechanismSpec,
        eps: Epsilon,
    ) -> Result<Arc<dyn Mechanism>, EngineError> {
        self.build(spec, eps)
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
                | MechanismSpec::MatrixRange { .. }
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
                Arc::new(ThetaLineMechanism::new(strat, eps, *estimator))
            }
            MechanismSpec::Grid => {
                need_dims(2, "the grid strategy needs a 2-D domain")?;
                let plans = self
                    .cache
                    .grid_plans(self.domain.dim(0), self.domain.dim(1))?;
                Arc::new(GridMechanism::with_plans(eps, plans))
            }
            MechanismSpec::ThetaGrid { theta } => {
                need_dims(2, "the θ-grid strategy needs a 2-D domain")?;
                if self.domain.dim(0) != self.domain.dim(1) {
                    return Err(EngineError::UnsupportedPolicy {
                        what: "the θ-grid strategy needs a square k × k domain",
                    });
                }
                let strat = self.cache.theta_grid_strategy(self.domain.dim(0), *theta)?;
                Arc::new(ThetaGridMechanism::new(strat, eps))
            }
            MechanismSpec::MatrixHist { strategy } | MechanismSpec::MatrixRange { strategy } => {
                Arc::new(ServedMatrixMechanism {
                    name: spec.id(),
                    eps,
                    domain: self.domain.clone(),
                    plan: matrix_plan(&self.cache, *strategy, self.domain.size())?,
                })
            }
        })
    }
}

/// The matrix mechanism as a servable [`Mechanism`], for every
/// matrix-mechanism id: `fit` releases the reconstructed domain estimate
/// `x̂ = x + A⁺η`. On the histogram workload `W = I` that is the release
/// itself; on the dyadic range workload `W = D_k` every answer `W x̂` is
/// a linear function of it, so one [`Estimate`] serves both, with 2-D
/// domains in their row-major linearization. `mm-hist-*` and
/// `mm-range-*` over one strategy therefore share one plan and release
/// bit-identical estimates from equal seeds.
struct ServedMatrixMechanism {
    name: String,
    eps: Epsilon,
    domain: Domain,
    plan: Arc<SparseMatrixMechanism>,
}

impl std::fmt::Debug for ServedMatrixMechanism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedMatrixMechanism")
            .field("name", &self.name)
            .field("apply", &self.plan.apply_method())
            .finish()
    }
}

impl Mechanism for ServedMatrixMechanism {
    fn name(&self) -> &str {
        &self.name
    }

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        let xhat = self
            .plan
            .reconstruct(x.counts(), self.eps, rng)
            .map_err(StrategyError::Mechanism)?;
        Estimate::new(&self.domain, xhat)
    }
}

/// The cached plan behind every matrix-mechanism id over `(kind, k)`,
/// built at most once: the CSR strategy with its gram solver, which
/// factors `AᵀA` once when the budget cascade allows and falls back to
/// preconditioned CG otherwise. The workload is `I_k` because
/// `reconstruct` never reads it.
fn matrix_plan(
    cache: &PlanCache,
    kind: MatrixStrategyKind,
    k: usize,
) -> Result<Arc<SparseMatrixMechanism>, EngineError> {
    cache.sparse_matrix_mechanism(&format!("mm/{}/{k}", kind.id()), || {
        let strategy = match kind {
            MatrixStrategyKind::Identity => identity_strategy_sparse(k),
            MatrixStrategyKind::Hierarchical => hierarchical_strategy_sparse(k),
            MatrixStrategyKind::Wavelet => wavelet_strategy_sparse(k),
        };
        SparseMatrixMechanism::new(SparseMatrix::identity(k), strategy)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_core::Workload;
    use blowfish_linalg::Matrix;
    use blowfish_mechanisms::{
        hierarchical_strategy, identity_strategy, wavelet_strategy, MatrixMechanism,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn policy_detection_theta_families() {
        let line = PolicyGraph::line(32).unwrap();
        assert!(matches!(
            Policy::from_graph(&line).unwrap(),
            Policy::Theta1d { theta: 1 }
        ));
        let g4 = PolicyGraph::theta_line(64, 4).unwrap();
        assert!(matches!(
            Policy::from_graph(&g4).unwrap(),
            Policy::Theta1d { theta: 4 }
        ));
        let grid = PolicyGraph::distance_threshold(Domain::square(6), 1).unwrap();
        assert!(matches!(
            Policy::from_graph(&grid).unwrap(),
            Policy::Theta2d { theta: 1 }
        ));
        let tgrid = PolicyGraph::distance_threshold(Domain::square(6), 3).unwrap();
        assert!(matches!(
            Policy::from_graph(&tgrid).unwrap(),
            Policy::Theta2d { theta: 3 }
        ));
    }

    #[test]
    fn policy_detection_tree_and_rejection() {
        let star = PolicyGraph::star(8).unwrap();
        assert!(matches!(
            Policy::from_graph(&star).unwrap(),
            Policy::Tree { .. }
        ));
        // The cycle is not a θ family and not a tree.
        let cycle = PolicyGraph::cycle(8).unwrap();
        assert!(Policy::from_graph(&cycle).is_err());
        // The complete graph K_k IS G^θ with θ = k−1.
        let complete = PolicyGraph::complete(6).unwrap();
        assert!(matches!(
            Policy::from_graph(&complete).unwrap(),
            Policy::Theta1d { theta: 5 }
        ));
    }

    #[test]
    fn expected_edge_counts_match_constructions() {
        for (k, theta) in [(16usize, 1usize), (16, 3), (9, 8)] {
            let g = PolicyGraph::theta_line(k, theta).unwrap();
            assert_eq!(
                g.num_edges(),
                expected_theta_edges(&Domain::one_dim(k), theta),
                "1-D k={k} θ={theta}"
            );
        }
        for (k, theta) in [(5usize, 1usize), (5, 2), (6, 3)] {
            let g = PolicyGraph::distance_threshold(Domain::square(k), theta).unwrap();
            assert_eq!(
                g.num_edges(),
                expected_theta_edges(&Domain::square(k), theta),
                "2-D k={k} θ={theta}"
            );
        }
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
        // A baseline served by the session must match the free function
        // at ε/2, not ε.
        let eps = Epsilon::new(1.0).unwrap();
        let s = Session::new(&PolicyGraph::line(16).unwrap(), eps).unwrap();
        let x = DataVector::new(Domain::one_dim(16), vec![3.0; 16]).unwrap();
        let m = s.mechanism(&MechanismSpec::Laplace).unwrap();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let via_session = m.fit(&x, &mut a).unwrap().into_histogram();
        let via_free = blowfish_strategies::dp_laplace(&x, eps.half(), &mut b).unwrap();
        assert_eq!(via_session, via_free);
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

    #[test]
    fn metered_fits_charge_exact_epsilon_and_stay_bit_identical() {
        let graph = PolicyGraph::line(16).unwrap();
        let eps = Epsilon::new(0.25).unwrap();
        let x = DataVector::new(Domain::one_dim(16), vec![2.0; 16]).unwrap();
        let spec = MechanismSpec::Line(TreeEstimator::Laplace);

        let ledger = Arc::new(Ledger::new());
        ledger.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        let metered = Session::new(&graph, eps)
            .unwrap()
            .metered(Arc::clone(&ledger), "t");
        let plain = Session::new(&graph, eps).unwrap();

        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let fitted = metered.fit(&spec, &x, &mut a).unwrap();
        let free = plain.fit(&spec, &x, &mut b).unwrap();
        assert_eq!(fitted.estimate.histogram(), free.estimate.histogram());
        // Blowfish strategy charges the full grant; receipt is exact.
        let charge = fitted.charge.unwrap();
        assert!((charge.amount - 0.25).abs() < 1e-12);
        assert!(free.charge.is_none());
        assert!((metered.budget_remaining().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(metered.tenant(), Some("t"));
        assert_eq!(plain.tenant(), None);

        // A baseline charges the ε/2 it actually consumes, not the grant.
        let mut c = StdRng::seed_from_u64(12);
        let base = metered.fit(&MechanismSpec::Laplace, &x, &mut c).unwrap();
        assert!((base.charge.unwrap().amount - 0.125).abs() < 1e-12);
        assert_eq!(ledger.history("t").unwrap().len(), 2);
    }

    #[test]
    fn exhausted_meter_rejects_fit_without_spending() {
        let graph = PolicyGraph::line(8).unwrap();
        let eps = Epsilon::new(0.4).unwrap();
        let x = DataVector::new(Domain::one_dim(8), vec![1.0; 8]).unwrap();
        let spec = MechanismSpec::Line(TreeEstimator::Laplace);
        let ledger = Arc::new(Ledger::new());
        ledger.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        let s = Session::new(&graph, eps)
            .unwrap()
            .metered(Arc::clone(&ledger), "t");
        let mut rng = StdRng::seed_from_u64(1);
        // 0.4 + 0.4 fit; the third 0.4 does not.
        assert!(s.fit(&spec, &x, &mut rng).is_ok());
        assert!(s.fit(&spec, &x, &mut rng).is_ok());
        let err = s.fit(&spec, &x, &mut rng).unwrap_err();
        assert!(err.is_budget_exhausted(), "got {err:?}");
        // The rejection left the account at 0.8 — no partial debit.
        assert!((ledger.spent("t").unwrap() - 0.8).abs() < 1e-12);
        // A smaller release still fits in the remaining 0.2.
        let small = s.mechanism_at(&spec, Epsilon::new(0.2).unwrap()).unwrap();
        assert!(small.epsilon().value() <= 0.2 + 1e-12);
    }

    #[test]
    fn mismatched_data_is_rejected_before_any_charge() {
        // A fit with wrong-shaped data must fail *without* debiting the
        // tenant account — budget burns only for admissible releases.
        let ledger = Arc::new(Ledger::new());
        ledger.open("t", Epsilon::new(1.0).unwrap()).unwrap();
        let s = Session::new(&PolicyGraph::line(16).unwrap(), Epsilon::new(0.5).unwrap())
            .unwrap()
            .metered(Arc::clone(&ledger), "t");
        let wrong = DataVector::new(Domain::one_dim(8), vec![1.0; 8]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let err = s
            .fit(
                &MechanismSpec::Line(TreeEstimator::Laplace),
                &wrong,
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::BadRequest { .. }));
        assert_eq!(ledger.spent("t").unwrap(), 0.0, "rejected fit spent ε");
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
        for (strategy, dense) in [
            (MatrixStrategyKind::Identity, identity_strategy(k)),
            (MatrixStrategyKind::Hierarchical, hierarchical_strategy(k)),
            (MatrixStrategyKind::Wavelet, wavelet_strategy(k)),
        ] {
            let session = Session::new(&graph, eps).unwrap();
            let m = session
                .mechanism(&MechanismSpec::MatrixHist { strategy })
                .unwrap();
            assert_eq!(session.cache().stats().sparse_matrix_builds(), 1);
            assert_eq!(session.cache().stats().sparse_factorizations(), 1);
            // Baseline convention: the matrix mechanism reports ε/2.
            assert_eq!(m.epsilon(), eps.half());
            let served = m.fit(&x, &mut StdRng::seed_from_u64(99)).unwrap();
            let reference = MatrixMechanism::new(Matrix::identity(k), dense)
                .unwrap()
                .run(x.counts(), eps.half(), &mut StdRng::seed_from_u64(99))
                .unwrap();
            for (i, (s, d)) in served.histogram().iter().zip(&reference).enumerate() {
                assert!(
                    (d - s).abs() <= 1e-9 * (1.0 + d.abs()),
                    "{strategy:?} cell {i}: dense {d} vs sparse {s}"
                );
            }
        }
    }

    #[test]
    fn matrix_ids_factor_and_agree_at_edge_sizes() {
        // Every strategy factors its gram without a CG fallback at the
        // degenerate and power-of-two-boundary sizes, and the histogram
        // and range ids release bit-identical estimates from equal seeds.
        let eps = Epsilon::new(0.7).unwrap();
        for k in [1usize, 2, 3, 5, 17, 511, 512, 513] {
            let session =
                Session::with_policy(Domain::one_dim(k), Policy::Theta1d { theta: 1 }, eps)
                    .unwrap();
            let x = DataVector::new(Domain::one_dim(k), (0..k).map(|i| (i % 7) as f64).collect())
                .unwrap();
            for strategy in [
                MatrixStrategyKind::Identity,
                MatrixStrategyKind::Hierarchical,
                MatrixStrategyKind::Wavelet,
            ] {
                let fit = |spec: MechanismSpec| {
                    session
                        .mechanism(&spec)
                        .unwrap()
                        .fit(&x, &mut StdRng::seed_from_u64(k as u64))
                        .unwrap()
                        .into_histogram()
                };
                let hist = fit(MechanismSpec::MatrixHist { strategy });
                let range = fit(MechanismSpec::MatrixRange { strategy });
                assert_eq!(
                    session.cache().stats().cg_fallbacks(),
                    0,
                    "{strategy:?} k={k}"
                );
                assert_eq!(hist.len(), k);
                assert!(hist.iter().all(|v| v.is_finite()), "{strategy:?} k={k}");
                assert_eq!(hist, range, "{strategy:?} k={k}");
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
        assert_eq!(session.cache().stats().sparse_matrix_builds(), 1);
        let x = DataVector::new(Domain::one_dim(k), vec![2.0; k]).unwrap();
        let est = m.fit(&x, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(est.histogram().len(), k);
        assert!(est.histogram().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn matrix_hist_above_threshold_serves_from_one_factorization() {
        // The factor-once contract at serving scale: at k = 16 384 the
        // budget cascade factors the rotated Gram exactly once, and
        // repeated releases spend zero CG iterations.
        let k = 16_384;
        let graph = PolicyGraph::theta_line(k, 4).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let spec = MechanismSpec::MatrixHist {
            strategy: MatrixStrategyKind::Hierarchical,
        };
        let m = session.mechanism(&spec).unwrap();
        let x = DataVector::new(Domain::one_dim(k), vec![1.0; k]).unwrap();
        for seed in 0..3 {
            m.fit(&x, &mut StdRng::seed_from_u64(seed)).unwrap();
        }
        let stats = session.cache().stats();
        assert_eq!(stats.sparse_factorizations(), 1);
        assert_eq!(stats.cg_fallbacks(), 0);
        let solver = session.cache().solver_stats();
        assert_eq!(solver.solves, 3);
        assert_eq!(solver.cg_iterations, 0);
    }

    #[test]
    fn matrix_range_serves_w_neq_i_through_the_shared_factorization() {
        // The W ≠ I acceptance path: a dyadic range workload at
        // k = 16 384 over the hierarchical strategy, releases served
        // from the reconstructed x̂, with the plan and its factorization
        // built once and *shared* with the histogram spec across
        // repeated releases.
        let k = 16_384;
        let graph = PolicyGraph::theta_line(k, 4).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let range_spec = MechanismSpec::MatrixRange {
            strategy: MatrixStrategyKind::Hierarchical,
        };
        let m = session.mechanism(&range_spec).unwrap();
        assert_eq!(session.cache().stats().sparse_matrix_builds(), 1);
        let x = DataVector::new(Domain::one_dim(k), vec![2.0; k]).unwrap();
        for seed in 0..3 {
            let est = m.fit(&x, &mut StdRng::seed_from_u64(seed)).unwrap();
            assert_eq!(est.histogram().len(), k);
            assert!(est.histogram().iter().all(|v| v.is_finite()));
        }
        assert_eq!(session.cache().stats().sparse_factorizations(), 1);
        // The histogram spec over the same strategy reuses the plan:
        // still exactly one plan and one factorization in the cache.
        session
            .mechanism(&MechanismSpec::MatrixHist {
                strategy: MatrixStrategyKind::Hierarchical,
            })
            .unwrap();
        assert_eq!(session.cache().stats().sparse_matrix_builds(), 1);
        assert_eq!(session.cache().stats().sparse_factorizations(), 1);
        assert_eq!(session.cache().stats().cg_fallbacks(), 0);
        assert_eq!(session.cache().solver_stats().cg_iterations, 0);
    }

    #[test]
    fn matrix_range_fit_answers_ranges_like_direct_releases() {
        // At reference scale, the Estimate a MatrixRange fit stores must
        // answer the dyadic workload exactly as the dense reference
        // mechanism's release `W x + W A⁺ η` from equal seeds.
        let k = 64;
        let graph = PolicyGraph::line(k).unwrap();
        let eps = Epsilon::new(0.8).unwrap();
        let session = Session::new(&graph, eps).unwrap();
        let spec = MechanismSpec::MatrixRange {
            strategy: MatrixStrategyKind::Hierarchical,
        };
        let m = session.mechanism(&spec).unwrap();
        let x =
            DataVector::new(Domain::one_dim(k), (0..k).map(|i| (i % 5) as f64).collect()).unwrap();
        let est = m.fit(&x, &mut StdRng::seed_from_u64(21)).unwrap();
        let w = Workload::dyadic_ranges_1d(k);
        let direct = MatrixMechanism::new(w.to_dense_matrix(), hierarchical_strategy(k))
            .unwrap()
            .run(x.counts(), eps.half(), &mut StdRng::seed_from_u64(21))
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
