//! Scenario definitions: the orthogonal axes a simulated workload is
//! composed from, plus the canned catalog the CI smoke gate replays.
//!
//! A [`Scenario`] is pure data — tenant population, policy families,
//! domain sizes, budget distribution, query mix, arrival pattern, and
//! mechanism choice. [`generate`](crate::simulate::generate) expands it
//! into a concrete [`Trace`](crate::simulate::Trace) deterministically
//! from its seed; [`run`](crate::simulate::run) replays and scores it.

use blowfish_core::{BudgetDistribution, QueryMix};
use blowfish_data::Shape;

use crate::BenchError;

/// The policy-graph family a simulated tenant runs under (Sections 3/5 of
/// the paper; `Tree` exercises the generic Theorem-4.3 machinery via a
/// star graph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyFamily {
    /// `G¹_k` over a 1-D domain.
    Line,
    /// `G^θ_k` over a 1-D domain.
    ThetaLine {
        /// Distance threshold θ ≥ 2.
        theta: usize,
    },
    /// `G¹_{k²}` over a k×k grid.
    Grid,
    /// `G^θ_{k²}` over a k×k grid.
    ThetaGrid {
        /// Distance threshold θ ≥ 2.
        theta: usize,
    },
    /// A star tree policy (hub vertex 0), served through the incidence.
    Tree,
}

impl PolicyFamily {
    /// Whether the family lives over a 2-D grid domain.
    pub fn is_2d(&self) -> bool {
        matches!(self, PolicyFamily::Grid | PolicyFamily::ThetaGrid { .. })
    }

    /// Stable label used in reports.
    pub fn label(&self) -> String {
        match self {
            PolicyFamily::Line => "line".to_string(),
            PolicyFamily::ThetaLine { theta } => format!("theta-line-{theta}"),
            PolicyFamily::Grid => "grid".to_string(),
            PolicyFamily::ThetaGrid { theta } => format!("theta-grid-{theta}"),
            PolicyFamily::Tree => "tree-star".to_string(),
        }
    }
}

/// How request arrivals are spread over the tenant population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalPattern {
    /// Each request picks a tenant uniformly at random.
    Uniform,
    /// Runs of `burst` consecutive requests stick to one tenant before a
    /// new tenant is drawn — bursty per-tenant traffic.
    Bursty {
        /// Burst length (≥ 1).
        burst: usize,
    },
    /// Zipf-weighted tenant choice: tenant `i` is drawn with probability
    /// ∝ `1/(i+1)^skew` — a hot-key distribution where low-index tenants
    /// dominate the traffic.
    HotKey {
        /// Zipf exponent (> 0); larger is more skewed.
        skew: f64,
    },
}

/// Which mechanism each fit request names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecChoice {
    /// `spec: None` — every fit goes through the session planner's
    /// paper-recommended default for the tenant's policy family.
    Planner,
    /// Mechanisms with a closed-form expected per-query error, so the
    /// scorer can hold measured utility against theory: line tenants run
    /// `Transformed + Laplace` (Theorem 5.2), every other family runs
    /// the ε/2-DP Laplace baseline.
    ClosedForm,
    /// Every fit names the matrix mechanism with the hierarchical
    /// strategy (`MechanismSpec::MatrixHist`). The engine serves it by
    /// the closed-form tree solve, never a dense k×k A⁺, which is what
    /// lets it reach large domains like k = 16 384.
    SparseMatrix,
}

/// One fully specified simulation scenario: every axis of the workload.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Unique catalog name (also the report/JSON file stem).
    pub name: String,
    /// One line on what the scenario stresses.
    pub description: String,
    /// Master seed: trace generation (tenant data, budgets, request
    /// sequence, per-fit noise seeds) is a pure function of it.
    pub seed: u64,
    /// Number of tenants.
    pub tenants: usize,
    /// Policy families, cycled over tenant indices.
    pub policies: Vec<PolicyFamily>,
    /// Domain size `k` for 1-D families (line, θ-line, tree).
    pub domain_1d: usize,
    /// Grid side `k` for 2-D families (k×k).
    pub grid_k: usize,
    /// Records per tenant population (synthetic, exact).
    pub scale: u64,
    /// Per-release grant ε (Blowfish strategies fit at ε, baselines at
    /// ε/2 per the Section-6 convention).
    pub eps: f64,
    /// How total budgets are assigned across the tenant population.
    pub budget: BudgetDistribution,
    /// Total requests in the trace (including the per-tenant warm-up
    /// fits that open the trace).
    pub requests: usize,
    /// Probability a non-warm-up request is a fit (the rest are answer
    /// batches).
    pub fit_fraction: f64,
    /// Queries per answer request.
    pub queries_per_answer: usize,
    /// Shape mix of the sampled queries.
    pub mix: QueryMix,
    /// How arrivals distribute over tenants.
    pub arrival: ArrivalPattern,
    /// Mechanism selection policy.
    pub specs: SpecChoice,
}

impl Scenario {
    /// Validates the axes (non-empty population, usable domains, a
    /// sensible fit fraction) before any generation work.
    pub fn validate(&self) -> Result<(), BenchError> {
        let bad = |what: &'static str| Err(BenchError::Config { what });
        if self.tenants == 0 || self.policies.is_empty() {
            return bad("scenario needs at least one tenant and one policy family");
        }
        if self.requests < self.tenants {
            return bad("scenario needs at least one request per tenant (warm-up fits)");
        }
        if self.domain_1d < 2 || self.grid_k < 2 {
            return bad("scenario domains need at least 2 values per dimension");
        }
        if !(0.0..=1.0).contains(&self.fit_fraction) {
            return bad("fit_fraction must lie in [0, 1]");
        }
        if self.queries_per_answer == 0 {
            return bad("answer requests need at least one query");
        }
        if !self.eps.is_finite() || self.eps <= 0.0 {
            return bad("per-release ε must be positive and finite");
        }
        match self.arrival {
            ArrivalPattern::Bursty { burst: 0 } => bad("bursty arrivals need burst ≥ 1"),
            ArrivalPattern::HotKey { skew } if !(skew.is_finite() && skew > 0.0) => {
                bad("hot-key arrivals need a positive finite skew")
            }
            _ => Ok(()),
        }
    }

    /// Policy family of the tenant at `index` (families cycle).
    pub fn family(&self, index: usize) -> PolicyFamily {
        self.policies[index % self.policies.len()]
    }

    /// Population shape of the tenant at `index` (shapes cycle, so a
    /// multi-tenant scenario mixes sparsity profiles).
    pub fn shape(&self, index: usize) -> Shape {
        const SHAPES: [Shape; 4] = [
            Shape::BurstySeries,
            Shape::LogNormal,
            Shape::Spiky,
            Shape::PowerLaw,
        ];
        SHAPES[index % SHAPES.len()]
    }

    /// The four canned scenarios the CI `simulate-smoke` gate replays:
    /// small enough to finish in seconds, together covering mixed policy
    /// families, exact budget exhaustion, skewed 2-D traffic, and
    /// large-domain matrix-mechanism serving.
    pub fn quick_catalog() -> Vec<Scenario> {
        vec![
            Scenario {
                name: "smoke-mixed".to_string(),
                description: "4 tenants across line/θ-line/tree policies, balanced query \
                              mix, ample budgets; closed-form utility is enforced"
                    .to_string(),
                seed: 7,
                tenants: 4,
                policies: vec![
                    PolicyFamily::Line,
                    PolicyFamily::Line,
                    PolicyFamily::ThetaLine { theta: 4 },
                    PolicyFamily::Tree,
                ],
                domain_1d: 64,
                grid_k: 8,
                scale: 20_000,
                eps: 0.5,
                budget: BudgetDistribution::Fixed(1e6),
                requests: 1200,
                fit_fraction: 0.35,
                queries_per_answer: 24,
                mix: QueryMix::balanced(),
                arrival: ArrivalPattern::Uniform,
                specs: SpecChoice::ClosedForm,
            },
            Scenario {
                name: "exhaustion-tight".to_string(),
                description: "fit-heavy bursty traffic against tiered tight budgets; \
                              admission must cut off at exactly ⌊budget/ε⌋ per tenant"
                    .to_string(),
                seed: 11,
                tenants: 4,
                policies: vec![PolicyFamily::Line],
                domain_1d: 32,
                grid_k: 8,
                scale: 5_000,
                eps: 0.5,
                budget: BudgetDistribution::Tiered {
                    low: 5.0,
                    high: 25.0,
                    high_every: 2,
                },
                requests: 600,
                fit_fraction: 0.9,
                queries_per_answer: 8,
                mix: QueryMix::ranges_only(),
                arrival: ArrivalPattern::Bursty { burst: 5 },
                specs: SpecChoice::ClosedForm,
            },
            Scenario {
                name: "grid-hotkey".to_string(),
                description: "5 tenants mixing 2-D grid/θ-grid with 1-D policies under \
                              zipf hot-key arrivals; planner-chosen mechanisms"
                    .to_string(),
                seed: 23,
                tenants: 5,
                policies: vec![
                    PolicyFamily::Grid,
                    PolicyFamily::ThetaGrid { theta: 2 },
                    PolicyFamily::Grid,
                    PolicyFamily::Line,
                    PolicyFamily::ThetaLine { theta: 2 },
                ],
                domain_1d: 128,
                grid_k: 12,
                scale: 10_000,
                eps: 1.0,
                budget: BudgetDistribution::Uniform {
                    lo: 50.0,
                    hi: 100.0,
                },
                requests: 1000,
                fit_fraction: 0.3,
                queries_per_answer: 16,
                mix: QueryMix {
                    point: 1.0,
                    range: 2.0,
                    prefix: 1.0,
                    marginal: 1.0,
                },
                arrival: ArrivalPattern::HotKey { skew: 1.2 },
                specs: SpecChoice::Planner,
            },
            Scenario {
                name: "sparse-large-domain".to_string(),
                description: "2 θ-line tenants over k = 16384 — far above the dense \
                              planning ceiling — fitting the matrix mechanism through \
                              its closed-form tree solve"
                    .to_string(),
                seed: 41,
                tenants: 2,
                policies: vec![PolicyFamily::ThetaLine { theta: 4 }],
                domain_1d: 16_384,
                grid_k: 8,
                scale: 50_000,
                eps: 0.5,
                budget: BudgetDistribution::Fixed(1e6),
                requests: 20,
                fit_fraction: 0.3,
                queries_per_answer: 16,
                mix: QueryMix::ranges_only(),
                arrival: ArrivalPattern::Uniform,
                specs: SpecChoice::SparseMatrix,
            },
        ]
    }

    /// The full catalog: the quick quartet plus heavier soak scenarios
    /// for local perf work.
    pub fn catalog() -> Vec<Scenario> {
        let mut all = Scenario::quick_catalog();
        all.push(Scenario {
            name: "soak-tiered".to_string(),
            description: "8 tenants over every policy family, tiered budgets, hot-key \
                          arrivals, 4k requests — the standard perf soak corpus"
                .to_string(),
            seed: 31,
            tenants: 8,
            policies: vec![
                PolicyFamily::Line,
                PolicyFamily::ThetaLine { theta: 4 },
                PolicyFamily::Tree,
                PolicyFamily::Line,
                PolicyFamily::Grid,
                PolicyFamily::ThetaLine { theta: 8 },
                PolicyFamily::Line,
                PolicyFamily::ThetaGrid { theta: 3 },
            ],
            domain_1d: 256,
            grid_k: 16,
            scale: 100_000,
            eps: 0.25,
            budget: BudgetDistribution::Tiered {
                low: 20.0,
                high: 200.0,
                high_every: 4,
            },
            requests: 4000,
            fit_fraction: 0.25,
            queries_per_answer: 32,
            mix: QueryMix::balanced(),
            arrival: ArrivalPattern::HotKey { skew: 1.0 },
            specs: SpecChoice::Planner,
        });
        all
    }

    /// Looks a scenario up by name in the full catalog.
    pub fn find(name: &str) -> Option<Scenario> {
        Scenario::catalog().into_iter().find(|s| s.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_named_uniquely_and_validates() {
        let all = Scenario::catalog();
        assert!(all.len() >= 4);
        let mut names = std::collections::HashSet::new();
        for s in &all {
            assert!(
                names.insert(s.name.clone()),
                "duplicate scenario {}",
                s.name
            );
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
        }
        // The quick catalog is a strict prefix of the full one.
        assert_eq!(Scenario::quick_catalog().len(), 4);
        assert!(Scenario::find("smoke-mixed").is_some());
        assert!(Scenario::find("sparse-large-domain").is_some());
        assert!(Scenario::find("no-such-scenario").is_none());
    }

    #[test]
    fn validation_rejects_bad_axes() {
        let mut s = Scenario::quick_catalog().remove(0);
        s.tenants = 0;
        assert!(s.validate().is_err());
        let mut s = Scenario::quick_catalog().remove(0);
        s.fit_fraction = 1.5;
        assert!(s.validate().is_err());
        let mut s = Scenario::quick_catalog().remove(0);
        s.arrival = ArrivalPattern::Bursty { burst: 0 };
        assert!(s.validate().is_err());
        let mut s = Scenario::quick_catalog().remove(0);
        s.requests = 1;
        assert!(s.validate().is_err());
    }

    #[test]
    fn families_and_shapes_cycle() {
        let s = Scenario::quick_catalog().remove(0);
        assert_eq!(s.family(0), PolicyFamily::Line);
        assert_eq!(s.family(4), PolicyFamily::Line);
        assert_eq!(s.family(2), PolicyFamily::ThetaLine { theta: 4 });
        assert_eq!(s.shape(1), s.shape(5));
        assert_eq!(PolicyFamily::ThetaGrid { theta: 3 }.label(), "theta-grid-3");
        assert!(PolicyFamily::Grid.is_2d());
        assert!(!PolicyFamily::Tree.is_2d());
    }
}
