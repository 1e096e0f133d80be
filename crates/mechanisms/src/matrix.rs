//! The matrix mechanism framework (Li et al. \[15\]; Equation 2 of the paper).
//!
//! `M_A(W, x) = Wx + W A⁺ · Lap(Δ_A/ε)^p`: answer a low-sensitivity
//! *strategy* workload `A` with Laplace noise and reconstruct `W` from it.
//! All matrix mechanisms are data independent, which is exactly why
//! Theorem 4.1 gives transformational equivalence for *every* policy graph:
//! the noise term `W_G A_G⁺ Lap(Δ_{A_G}/ε)` is identical in vertex and edge
//! space.

use rand::Rng;

use blowfish_linalg::{pseudoinverse_with_method, Matrix, PinvMethod};

use blowfish_core::Epsilon;

use crate::noise::{laplace_variance, laplace_vec};
use crate::MechanismError;

/// A prepared matrix mechanism: workload `W`, strategy `A`, and the
/// precomputed reconstruction matrix `W A⁺`.
#[derive(Clone, Debug)]
pub struct MatrixMechanism {
    w: Matrix,
    strategy: Matrix,
    /// `W A⁺` — maps strategy noise into query space.
    reconstruction: Matrix,
    /// Unbounded-DP sensitivity `Δ_A` (max column L1 norm).
    delta_a: f64,
}

impl MatrixMechanism {
    /// Prepares the mechanism, verifying the support condition
    /// `W A⁺ A = W` (every workload row must lie in the strategy's row
    /// space, otherwise answers would be biased).
    ///
    /// When `A⁺` came out of the Cholesky normal-equations path with full
    /// column rank (or `A` is square and invertible), `A⁺ A = I` holds
    /// algebraically, so `W A⁺ A = W` for *every* workload — the explicit
    /// `O(q·p·k)` check is replaced by an `O(p·k)` probe of the
    /// left-inverse identity (guarding against an ill-conditioned but
    /// still Cholesky-factorizable `AᵀA` eroding `A⁺` numerically); only
    /// a failed probe falls back to the full check. This is the dominant
    /// saving on the cold matrix-mechanism planning path.
    pub fn new(w: Matrix, strategy: Matrix) -> Result<Self, MechanismError> {
        if w.cols() != strategy.cols() {
            return Err(MechanismError::InvalidParameter {
                what: "workload and strategy must share the domain size",
            });
        }
        let (a_plus, method) = pseudoinverse_with_method(&strategy)?;
        let reconstruction = w.matmul(&a_plus)?;
        let full_column_rank = match method {
            PinvMethod::CholeskyColumnRank => true,
            PinvMethod::CholeskyRowRank => strategy.is_square(),
            PinvMethod::Eigen => false,
        };
        let support_is_structural =
            full_column_rank && left_inverse_probe_holds(&a_plus, &strategy)?;
        if !support_is_structural {
            // Support condition: W A⁺ A = W.
            let waa = reconstruction.matmul(&strategy)?;
            if !waa.approx_eq(&w, 1e-6 * (1.0 + w.max_abs())) {
                return Err(MechanismError::StrategyDoesNotSupportWorkload);
            }
        }
        let delta_a = strategy.max_col_l1();
        if delta_a <= 0.0 {
            return Err(MechanismError::InvalidParameter {
                what: "strategy has zero sensitivity (all-zero matrix)",
            });
        }
        Ok(MatrixMechanism {
            w,
            strategy,
            reconstruction,
            delta_a,
        })
    }

    /// The strategy sensitivity `Δ_A`.
    pub fn delta_a(&self) -> f64 {
        self.delta_a
    }

    /// Runs the mechanism: `Wx + W A⁺ Lap(Δ_A/ε)^p`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        eps: Epsilon,
        rng: &mut R,
    ) -> Result<Vec<f64>, MechanismError> {
        let truth = self.w.matvec(x)?;
        let noise = self.noise_only(eps, rng)?;
        Ok(truth.iter().zip(&noise).map(|(t, n)| t + n).collect())
    }

    /// Draws only the reconstructed noise vector `W A⁺ Lap(Δ_A/ε)^p` —
    /// the data-independent part. Theorem 4.1's proof is literally that
    /// this vector is identical for `(W, x)` and `(W_G, x_G)`.
    pub fn noise_only<R: Rng + ?Sized>(
        &self,
        eps: Epsilon,
        rng: &mut R,
    ) -> Result<Vec<f64>, MechanismError> {
        let scale = self.delta_a / eps.value();
        let raw = laplace_vec(rng, scale, self.strategy.rows());
        Ok(self.reconstruction.matvec(&raw)?)
    }

    /// Expected total squared error over all queries (Definition 2.4's
    /// data-independent ERROR).
    pub fn total_error(&self, eps: Epsilon) -> f64 {
        let var = laplace_variance(self.delta_a / eps.value());
        let fro: f64 = (0..self.reconstruction.rows())
            .map(|i| self.reconstruction.row_sq_norm(i))
            .sum();
        var * fro
    }

    /// Expected per-query error (total / number of queries).
    pub fn per_query_error(&self, eps: Epsilon) -> f64 {
        self.total_error(eps) / self.w.rows() as f64
    }
}

/// Verifies the left-inverse identity `A⁺ A v = v` on a few seeded
/// pseudo-random probe vectors. O(p·k) per probe — cheap enough to keep
/// on the fast path. Random (rather than fixed) probes matter: the error
/// matrix `E = A⁺A − I` of a conditioning-eroded `A⁺` concentrates in
/// specific singular directions, and a fixed probe set can be
/// (near-)orthogonal to all of them, while a random probe's overlap with
/// any fixed direction is ~`1/√k` with overwhelming probability. The
/// tolerance `1e-8·(1+‖v‖∞)` is accordingly ~`√k` tighter than the full
/// check's `1e-6`, so a per-direction error at the rejection threshold
/// still registers through the overlap attenuation, while benign
/// well-conditioned rounding (≲1e-10) stays clear of it. A failed probe
/// sends `MatrixMechanism::new` back to the full `W A⁺ A = W` check,
/// which has the final word.
fn left_inverse_probe_holds(a_plus: &Matrix, a: &Matrix) -> Result<bool, MechanismError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let n = a.cols();
    // Deterministic seed: probe outcomes are reproducible run to run.
    let mut rng = StdRng::seed_from_u64(0x5EED_1DE4);
    for _ in 0..3 {
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let av = a.matvec(&v)?;
        let back = a_plus.matvec(&av)?;
        let scale = 1.0 + v.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        if back
            .iter()
            .zip(&v)
            .any(|(b, x)| (b - x).abs() > 1e-8 * scale)
        {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The identity strategy `A = I_k` (the Laplace mechanism on the
/// histogram).
pub fn identity_strategy(k: usize) -> Matrix {
    Matrix::identity(k)
}

/// The binary hierarchical strategy `H_k` \[10\]: one row per node of a
/// binary interval tree over the (power-of-two padded) domain. Sensitivity
/// is the tree height.
pub fn hierarchical_strategy(k: usize) -> Matrix {
    let padded = k.next_power_of_two();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut size = padded;
    while size >= 1 {
        let mut start = 0;
        while start < padded {
            let mut row = vec![0.0; k];
            row[start.min(k)..(start + size).min(k)].fill(1.0);
            // Skip all-zero rows from padding.
            if row.iter().any(|&v| v != 0.0) {
                rows.push(row);
            }
            start += size;
        }
        if size == 1 {
            break;
        }
        size /= 2;
    }
    Matrix::from_rows(&rows).expect("rows share length k")
}

/// The Haar wavelet strategy `Y_k` (Privelet \[20\]) as an explicit matrix,
/// for small-domain matrix-mechanism experiments and the Figure-3
/// ablations. Rows are the (unweighted) Haar basis functions.
pub fn wavelet_strategy(k: usize) -> Matrix {
    let padded = k.next_power_of_two();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    // Total-average row.
    rows.push(vec![1.0; k]);
    let mut size = padded;
    while size >= 2 {
        let half = size / 2;
        let mut start = 0;
        while start < padded {
            let mut row = vec![0.0; k];
            row[start.min(k)..(start + half).min(k)].fill(1.0);
            row[(start + half).min(k)..(start + size).min(k)].fill(-1.0);
            if row.iter().any(|&v| v != 0.0) {
                rows.push(row);
            }
            start += size;
        }
        size /= 2;
    }
    Matrix::from_rows(&rows).expect("rows share length k")
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_core::Workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ranges_matrix(k: usize) -> Matrix {
        Workload::all_ranges_1d(k).to_dense_matrix()
    }

    #[test]
    fn identity_strategy_equals_laplace() {
        let k = 8;
        let w = Matrix::identity(k);
        let mm = MatrixMechanism::new(w, identity_strategy(k)).unwrap();
        assert_eq!(mm.delta_a(), 1.0);
        let eps = Epsilon::new(1.0).unwrap();
        // Per-query error = 2/ε².
        assert!((mm.per_query_error(eps) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn support_condition_rejected() {
        // Strategy spanning only the first coordinate cannot answer I_2.
        let w = Matrix::identity(2);
        let a = Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
        assert!(matches!(
            MatrixMechanism::new(w, a),
            Err(MechanismError::StrategyDoesNotSupportWorkload)
        ));
    }

    #[test]
    fn ill_conditioned_strategies_are_never_silently_biased() {
        // Nearly dependent strategy columns across the conditioning
        // spectrum: depending on d the pseudoinverse comes from the
        // Cholesky path (well conditioned), the probe-guarded fallback
        // (barely factorizable), or the eigen path (numerically rank
        // deficient). The invariant restored by the probe: whenever the
        // mechanism is *accepted*, its reconstruction genuinely satisfies
        // the support condition — acceptance is never based on a skipped
        // check over a numerically eroded A⁺.
        for exp in 3..9 {
            let d = 10f64.powi(-exp);
            let a = Matrix::from_vec(3, 2, vec![1.0, 1.0 + d, 1.0, 1.0, 0.0, 0.0]).unwrap();
            let w = Matrix::identity(2);
            if let Ok(mm) = MatrixMechanism::new(w.clone(), a.clone()) {
                let waa = mm.reconstruction.matmul(&a).unwrap();
                assert!(
                    waa.approx_eq(&w, 1e-5 * (1.0 + w.max_abs())),
                    "d=1e-{exp}: accepted a biased reconstruction"
                );
            }
        }
    }

    #[test]
    fn hierarchical_scales_polylog_vs_identity_linear() {
        // For range workloads, the identity strategy's per-query error is
        // Θ(k) (average range length) while hierarchical/wavelet are
        // O(log³k): the crossover sits at large k, so at dense-matrix
        // scales we verify the *growth rates* instead of absolute wins.
        let eps = Epsilon::new(1.0).unwrap();
        let err = |k: usize, strat: fn(usize) -> Matrix| -> f64 {
            MatrixMechanism::new(ranges_matrix(k), strat(k))
                .unwrap()
                .per_query_error(eps)
        };
        let (k_small, k_large) = (16usize, 128usize);
        let ident_ratio = err(k_large, identity_strategy) / err(k_small, identity_strategy);
        let hier_ratio = err(k_large, hierarchical_strategy) / err(k_small, hierarchical_strategy);
        let wave_ratio = err(k_large, wavelet_strategy) / err(k_small, wavelet_strategy);
        // Identity grows ~8× (linear in k); polylog strategies must grow
        // far slower.
        assert!(ident_ratio > 6.0, "identity ratio {ident_ratio}");
        assert!(
            hier_ratio < ident_ratio / 1.5,
            "hierarchical ratio {hier_ratio} vs identity {ident_ratio}"
        );
        assert!(
            wave_ratio < ident_ratio / 1.5,
            "wavelet ratio {wave_ratio} vs identity {ident_ratio}"
        );
    }

    #[test]
    fn empirical_error_matches_analytic() {
        let k = 16;
        let w = ranges_matrix(k);
        let mm = MatrixMechanism::new(w, hierarchical_strategy(k)).unwrap();
        let eps = Epsilon::new(0.5).unwrap();
        let x = vec![3.0; k];
        let truth = mm.w.matvec(&x).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let trials = 300;
        let mut acc = 0.0;
        for _ in 0..trials {
            let est = mm.run(&x, eps, &mut rng).unwrap();
            acc += truth
                .iter()
                .zip(&est)
                .map(|(t, e)| (t - e) * (t - e))
                .sum::<f64>();
        }
        let measured = acc / trials as f64;
        let expected = mm.total_error(eps);
        assert!(
            (measured - expected).abs() / expected < 0.15,
            "measured {measured} vs expected {expected}"
        );
    }

    #[test]
    fn hierarchical_strategy_shape() {
        let h = hierarchical_strategy(8);
        // Levels: 1 (root) + 2 + 4 + 8 = 15 rows.
        assert_eq!(h.rows(), 15);
        assert_eq!(h.cols(), 8);
        // Sensitivity = height = 4 (root + 3 levels below... each column
        // appears once per level): log2(8)+1 = 4.
        assert_eq!(h.max_col_l1(), 4.0);
    }

    #[test]
    fn hierarchical_strategy_non_power_of_two() {
        let h = hierarchical_strategy(6);
        assert_eq!(h.cols(), 6);
        // Every column still has at most height entries.
        assert!(h.max_col_l1() <= 4.0);
        // Still supports the range workload.
        let w = ranges_matrix(6);
        assert!(MatrixMechanism::new(w, h).is_ok());
    }

    #[test]
    fn wavelet_strategy_is_invertible_basis() {
        let y = wavelet_strategy(8);
        assert_eq!(y.rows(), 8);
        // Full rank: supports the identity workload.
        assert!(MatrixMechanism::new(Matrix::identity(8), y).is_ok());
    }

    #[test]
    fn noise_is_data_independent() {
        // Same seed => same noise regardless of database (the property that
        // powers Theorem 4.1).
        let k = 8;
        let mm = MatrixMechanism::new(ranges_matrix(k), hierarchical_strategy(k)).unwrap();
        let eps = Epsilon::new(1.0).unwrap();
        let x1 = vec![0.0; k];
        let x2 = vec![100.0; k];
        let t1 = mm.w.matvec(&x1).unwrap();
        let t2 = mm.w.matvec(&x2).unwrap();
        let e1 = mm.run(&x1, eps, &mut StdRng::seed_from_u64(7)).unwrap();
        let e2 = mm.run(&x2, eps, &mut StdRng::seed_from_u64(7)).unwrap();
        for i in 0..e1.len() {
            assert!(((e1[i] - t1[i]) - (e2[i] - t2[i])).abs() < 1e-9);
        }
    }
}
