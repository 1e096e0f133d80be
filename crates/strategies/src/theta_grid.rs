//! The 2-D distance-threshold strategy for `G^θ_{k²}` (Section 5.3.2,
//! Theorem 5.6, Figure 7).
//!
//! The spanner `H^θ_{k²}` tiles the map into `s × s` blocks
//! (`s = max(θ/2, 1)`) whose corners are red: non-red vertices hang off
//! their block's red corner (*internal edges* — leaf edges whose
//! transformed values are simply the cell counts), and red vertices form a
//! coarse grid (*external edges*). Internal and external edges are
//! disjoint, so the strategy estimates them independently:
//!
//! * internal edges — all range queries over layers of thickness `s`
//!   (horizontal layers at ε/2, vertical at ε/2, since every internal edge
//!   appears in exactly one of each), via 2-D Privelet per layer;
//! * external edges — the red-vertex grid is exactly a `G¹_{m²}` instance
//!   over block totals, handled by [`crate::grid`].
//!
//! Everything is scaled by the certified stretch ℓ (Corollary 4.6) so the
//! result is `(ε, G^θ_{k²})`-Blowfish private, with per-query error
//! `O(d³·log^{3(d−1)}k·log³θ/ε²)` (Theorem 5.6).
//!
//! [`ThetaGridStrategy::new`] derives every Haar plan a release needs —
//! the red grid's [`GridPlans`] and one plan per layer direction — so a
//! fit builds none. A release reuses one layer buffer, one layer estimate
//! and one [`PriveletWork`] across all `2m` layers and the red grid, so it
//! makes the same handful of allocations whatever `k` and θ.

use std::sync::Arc;

use rand::RngCore;

use blowfish_core::spanner::theta_grid_spanner;
use blowfish_core::{DataVector, Epsilon};
use blowfish_mechanisms::{privelet_planned_into, HaarPlan, PriveletWork};

use crate::grid::{grid_histogram_impl, GridPlans};
use crate::mechanism::{Estimate, Mechanism};
use crate::StrategyError;

/// A prepared `G^θ_{k²}` strategy.
#[derive(Clone, Debug)]
pub struct ThetaGridStrategy {
    k: usize,
    /// Block side `s = max(θ/2, 1)`.
    block: usize,
    /// Red grid dimension `m = k/s`.
    red_k: usize,
    /// Certified stretch ℓ of the spanner (Lemma 4.5).
    stretch: usize,
    /// Haar plans of the red `m × m` grid; for `s = 1` that is the
    /// policy's own grid.
    red_plans: GridPlans,
    /// Haar plans of one horizontal (`s × k`) and one vertical (`k × s`)
    /// layer of internal edges; `None` when `s = 1`, which has none.
    layer_plans: Option<(HaarPlan, HaarPlan)>,
}

impl ThetaGridStrategy {
    /// Builds the strategy for a `k × k` domain and threshold θ. Requires
    /// the block side to divide `k`. The spanner stretch is certified on a
    /// reduced instance with the same block geometry (stretch is a local
    /// property of the block pattern; the tests cross-check this against
    /// direct certification). The red grid's and the layers' Haar plans
    /// are derived here too.
    pub fn new(k: usize, theta: usize) -> Result<Self, StrategyError> {
        if theta == 0 {
            return Err(StrategyError::BadQuery {
                what: "θ must be at least 1",
            });
        }
        let s = (theta / 2).max(1);
        if !k.is_multiple_of(s) || k / s < 2 {
            return Err(StrategyError::BadQuery {
                what: "block side must divide k with at least a 2x2 red grid",
            });
        }
        // θ ≤ 2 degenerates to the G¹ grid: stretch is exactly θ (every
        // policy edge spans L1 distance ≤ θ, each unit a grid hop).
        let stretch = if s == 1 {
            theta
        } else {
            // Certify on a small instance with identical block geometry.
            let blocks = (k / s).clamp(2, 6);
            let kc = s * blocks;
            let spanner = theta_grid_spanner(kc, theta)?;
            spanner.certify_stretch(theta)?
        };
        let layer_plans = if s == 1 {
            None
        } else {
            Some((HaarPlan::new(&[s, k])?, HaarPlan::new(&[k, s])?))
        };
        Ok(ThetaGridStrategy {
            k,
            block: s,
            red_k: k / s,
            stretch,
            red_plans: GridPlans::new(k / s, k / s)?,
            layer_plans,
        })
    }

    /// The certified stretch ℓ.
    pub fn stretch(&self) -> usize {
        self.stretch
    }

    /// The block side `s`.
    pub fn block(&self) -> usize {
        self.block
    }
}

/// The θ-grid strategy as a [`Mechanism`]: a shared prepared
/// [`ThetaGridStrategy`] (block geometry + certified stretch, built once
/// by the plan cache) with the budget bound in.
#[derive(Clone, Debug)]
pub struct ThetaGridMechanism {
    strategy: Arc<ThetaGridStrategy>,
    eps: Epsilon,
    /// The spanner budget `ε/ℓ`.
    eps_eff: Epsilon,
    /// Each layer direction's share `ε/(2ℓ)`; `None` when `s = 1`,
    /// which has no layers.
    eps_layer: Option<Epsilon>,
}

impl ThetaGridMechanism {
    /// Binds a prepared strategy and budget. Derives the budget shares a
    /// release spends (`ε/ℓ`, and `ε/(2ℓ)` per layer direction when the
    /// strategy has layers) here, so a budget whose share underflows to 0
    /// is refused before any release is charged for it.
    pub fn new(strategy: Arc<ThetaGridStrategy>, eps: Epsilon) -> Result<Self, StrategyError> {
        let eps_eff = eps.for_stretch(strategy.stretch)?;
        let eps_layer = strategy
            .layer_plans
            .as_ref()
            .map(|_| eps_eff.split(2))
            .transpose()?;
        Ok(ThetaGridMechanism {
            strategy,
            eps,
            eps_eff,
            eps_layer,
        })
    }
}

impl Mechanism for ThetaGridMechanism {
    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// The `(ε, G^θ_{k²})`-Blowfish histogram estimate.
    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError> {
        let strategy = &self.strategy;
        let domain = x.domain();
        if domain.num_dims() != 2 || domain.dim(0) != strategy.k || domain.dim(1) != strategy.k {
            return Err(StrategyError::BadQuery {
                what: "database domain does not match the strategy's k × k grid",
            });
        }
        let eps_eff = self.eps_eff;
        let mut work = PriveletWork::default();
        let (Some((h_plan, v_plan)), Some(eps_layer)) = (&strategy.layer_plans, self.eps_layer)
        else {
            // Degenerate: H = G¹ grid; the grid strategy with the scaled
            // budget.
            let release =
                grid_histogram_impl(x.counts(), eps_eff, &strategy.red_plans, &mut work, rng)?;
            return Estimate::new(domain, release);
        };
        let k = strategy.k;
        let s = strategy.block;
        let m = strategy.red_k;
        let at = |r: usize, c: usize| x.get(r * k + c);
        let is_red = |r: usize, c: usize| r % s == s - 1 && c % s == s - 1;

        // --- Internal edges: per-layer 2-D Privelet, ε_eff/2 per
        // direction (d = 2 budget split; layers within a direction are
        // disjoint → parallel composition). A horizontal layer's estimate
        // is a contiguous block of `est_h`, so it is written there
        // directly; a vertical one goes through `est` and is scattered.
        let mut layer = vec![0.0; s * k];
        let mut est = vec![0.0; k * s];
        let mut est_h = vec![0.0; k * k];
        for (a, est_layer) in est_h.chunks_exact_mut(s * k).enumerate() {
            for dr in 0..s {
                for c in 0..k {
                    let r = a * s + dr;
                    layer[dr * k + c] = if is_red(r, c) { 0.0 } else { at(r, c) };
                }
            }
            privelet_planned_into(h_plan, &layer, eps_layer, rng, &mut work, est_layer)?;
        }
        let mut est_v = vec![0.0; k * k];
        for b in 0..m {
            for r in 0..k {
                for dc in 0..s {
                    let c = b * s + dc;
                    layer[r * s + dc] = if is_red(r, c) { 0.0 } else { at(r, c) };
                }
            }
            privelet_planned_into(v_plan, &layer, eps_layer, rng, &mut work, &mut est)?;
            for r in 0..k {
                for dc in 0..s {
                    est_v[r * k + (b * s + dc)] = est[r * s + dc];
                }
            }
        }

        // --- External edges: the red grid over block totals is a G¹_{m²}
        // instance; reuse the grid strategy (disjoint edges → full ε_eff).
        let mut blocks = vec![0.0; m * m];
        for r in 0..k {
            for c in 0..k {
                blocks[(r / s) * m + (c / s)] += at(r, c);
            }
        }
        let block_est = grid_histogram_impl(&blocks, eps_eff, &strategy.red_plans, &mut work, rng)?;

        // --- Reconstruction: non-red cells take their internal-edge
        // estimate (averaging the two independent layer estimates); red
        // cells absorb the block-total residual.
        let mut out = vec![0.0; k * k];
        for a in 0..m {
            for b in 0..m {
                let mut members = 0.0;
                for dr in 0..s {
                    for dc in 0..s {
                        let (r, c) = (a * s + dr, b * s + dc);
                        if !is_red(r, c) {
                            let e = 0.5 * (est_h[r * k + c] + est_v[r * k + c]);
                            out[r * k + c] = e;
                            members += e;
                        }
                    }
                }
                let red_r = (a + 1) * s - 1;
                let red_c = (b + 1) * s - 1;
                out[red_r * k + red_c] = block_est[a * m + b] - members;
            }
        }
        Estimate::new(domain, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::true_answers;
    use crate::{GridMechanism, PriveletBaselineNd};
    use blowfish_core::{mse_per_query, Domain, Workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn grid_db(k: usize, f: impl Fn(usize, usize) -> f64) -> DataVector {
        let counts = (0..k * k).map(|i| f(i / k, i % k)).collect::<Vec<f64>>();
        DataVector::new(Domain::square(k), counts).unwrap()
    }

    /// The θ-grid mechanism for `G^θ_{k²}` at `eps`.
    fn mech(k: usize, theta: usize, eps: Epsilon) -> ThetaGridMechanism {
        ThetaGridMechanism::new(Arc::new(ThetaGridStrategy::new(k, theta).unwrap()), eps).unwrap()
    }

    #[test]
    fn construction_and_stretch() {
        let s = ThetaGridStrategy::new(12, 4).unwrap();
        assert_eq!(s.block(), 2);
        assert!(s.stretch() <= 6, "stretch {}", s.stretch());
        // θ=2 degenerates: stretch exactly 2.
        let s2 = ThetaGridStrategy::new(8, 2).unwrap();
        assert_eq!(s2.block(), 1);
        assert_eq!(s2.stretch(), 2);
        // Non-divisible block rejected.
        assert!(ThetaGridStrategy::new(9, 4).is_err());
        assert!(ThetaGridStrategy::new(8, 0).is_err());
    }

    #[test]
    fn reduced_instance_certification_matches_direct() {
        // The stretch certified on a small same-geometry instance equals
        // direct certification on the full instance.
        for (k, theta) in [(12usize, 4usize), (16, 4), (18, 6)] {
            let s = (theta / 2).max(1);
            let direct = theta_grid_spanner(k, theta)
                .unwrap()
                .certify_stretch(theta)
                .unwrap();
            let strat = ThetaGridStrategy::new(k, theta).unwrap();
            assert_eq!(
                strat.stretch(),
                direct,
                "k={k} θ={theta} s={s}: reduced vs direct"
            );
        }
    }

    #[test]
    fn exact_at_negligible_noise() {
        let x = grid_db(8, |r, c| (r * 8 + c) as f64);
        let eps = Epsilon::new(1e8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let est = mech(8, 4, eps).fit(&x, &mut rng).unwrap();
        for (e, t) in est.histogram().iter().zip(x.counts()) {
            assert!((e - t).abs() < 1e-2, "{e} vs {t}");
        }
    }

    #[test]
    fn unbiased_under_noise() {
        let x = grid_db(8, |r, c| ((r + 2 * c) % 5) as f64);
        let mechanism = mech(8, 4, Epsilon::new(4.0).unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 150;
        let mut mean = vec![0.0; 64];
        for _ in 0..trials {
            let est = mechanism.fit(&x, &mut rng).unwrap();
            for (m, e) in mean.iter_mut().zip(est.histogram()) {
                *m += e;
            }
        }
        for (i, m) in mean.iter().enumerate() {
            let avg = m / trials as f64;
            assert!(
                (avg - x.counts()[i]).abs() < 4.0,
                "cell {i}: {avg} vs {}",
                x.counts()[i]
            );
        }
    }

    #[test]
    fn degenerate_theta_matches_grid_with_scaled_budget() {
        // θ=1 → stretch 1 → identical to the plain grid strategy.
        let x = grid_db(6, |r, c| (r * c) as f64);
        let eps = Epsilon::new(1.0).unwrap();
        let a = mech(6, 1, eps)
            .fit(&x, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let grid = GridMechanism::new(eps, GridPlans::new(6, 6).unwrap());
        let b = grid.fit(&x, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(a.histogram(), b.histogram());
    }

    #[test]
    fn range_error_reasonable_vs_dp() {
        // With a larger θ the policy is much weaker than DP, so the
        // strategy should comfortably beat DP Privelet at matched budgets
        // on moderate grids.
        let k = 16;
        let x = grid_db(k, |_, _| 2.0);
        let eps = Epsilon::new(1.0).unwrap();
        let (mechanism, privelet) = (
            mech(k, 4, eps),
            PriveletBaselineNd::new(eps.half().unwrap()),
        );
        let d = Domain::square(k);
        let mut sp_rng = StdRng::seed_from_u64(4);
        let (_, specs) = Workload::random_ranges(&d, 100, &mut sp_rng).unwrap();
        let truth = true_answers(&x, &specs);
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 30;
        let mut blowfish = 0.0;
        let mut dp = 0.0;
        for _ in 0..trials {
            let b = mechanism.fit(&x, &mut rng).unwrap();
            blowfish += mse_per_query(&truth, &b.answer_many(&specs).unwrap()).unwrap();
            let p = privelet.fit(&x, &mut rng).unwrap();
            dp += mse_per_query(&truth, &p.answer_many(&specs).unwrap()).unwrap();
        }
        // The strategy pays stretch and budget splits; on a small grid it
        // may not dominate, but it must stay within a small factor.
        assert!(
            blowfish < dp * 5.0,
            "θ-grid {blowfish} catastrophically worse than DP {dp}"
        );
    }

    #[test]
    fn wrong_domain_rejected() {
        let mechanism = mech(8, 4, Epsilon::new(1.0).unwrap());
        let mut rng = StdRng::seed_from_u64(6);
        let wrong = grid_db(6, |_, _| 0.0);
        assert!(mechanism.fit(&wrong, &mut rng).is_err());
        let one_d = DataVector::new(Domain::one_dim(64), vec![0.0; 64]).unwrap();
        assert!(mechanism.fit(&one_d, &mut rng).is_err());
    }
}
