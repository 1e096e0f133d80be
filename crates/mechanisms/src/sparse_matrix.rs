//! The matrix mechanism over CSR strategies: apply `A⁺`, never store it.
//!
//! The dense [`MatrixMechanism`](crate::MatrixMechanism) materializes the
//! reconstruction `W A⁺` through an O(k³) pseudoinverse: at k = 65 536
//! that object alone is 32 GiB. But every strategy the paper plans with —
//! identity, binary hierarchical, Haar — is O(k log k) sparse, and for a
//! full-column-rank strategy the pseudoinverse *application* factors as
//! `A⁺ ỹ = (AᵀA)⁻¹ Aᵀ ỹ`: a normal-equation solve.
//! [`SparseMatrixMechanism`] keeps `W` and `A` in CSR and solves through
//! a plan-time [`GramSolver`], which factors `AᵀA` once by natural-order
//! sparse Cholesky — directly, or after a Haar-basis rotation when the
//! gram itself is too dense to form — so each release is two O(nnz(L))
//! triangular solves. A strategy whose factor would break the budgets is
//! refused with a typed error. Peak memory stays O(nnz) and the domain
//! ceiling lifts to k≈10⁵.
//!
//! The sparse strategy constructors ([`hierarchical_strategy_sparse`]
//! et al.) emit *exactly* the rows of their dense counterparts, in the
//! same order. That makes the two mechanisms draw identical Laplace noise
//! from the same seed — so sparse and dense releases agree to ≤1e-9
//! relative, which the equivalence tests pin.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::Rng;

use blowfish_linalg::{dyadic_haar_basis, haar_rotate, LinalgError, SparseCholesky, SparseMatrix};

use blowfish_core::Epsilon;

use crate::noise::{laplace_variance, laplace_vec};
use crate::MechanismError;

/// Gram-formability budget: a gram `BᵀB` is only formed when its
/// O(Σᵢ nnz(rowᵢ)²) accumulation cost stays within
/// `GRAM_COST_FACTOR · (nnz(B) + k)` — a constant number of strategy
/// sweeps. Hierarchical/wavelet strategies blow this at large k (their
/// coarse rows make `AᵀA` structurally dense), which routes them to the
/// Haar rotation instead of a doomed Gram product; a strategy whose
/// rotated gram blows it too is refused.
pub const GRAM_COST_FACTOR: usize = 32;

/// Factor-fill budget: a factorization is kept only while the
/// **symbolic** pass predicts `nnz(L) ≤ FILL_GROWTH_FACTOR ·
/// nnz(lower(G))`. Past that the factor would break the O(nnz) memory
/// story, and the strategy is refused.
pub const FILL_GROWTH_FACTOR: usize = 8;

/// The plan-time solver for one strategy's normal equations
/// `AᵀA x = b`: a natural-order sparse Cholesky factor, computed once.
/// [`GramSolver::plan`] factors
///
/// 1. `AᵀA` directly, when it is affordable to form
///    ([`GRAM_COST_FACTOR`]);
/// 2. otherwise the gram of `B = AQ`, rotated by the orthonormal
///    [`dyadic_haar_basis`] `Q`: `B` is O(log k)-per-row sparse for
///    dyadic strategies and `BᵀB` has chordal tree-ancestor sparsity
///    with zero fill in its natural order, so the budgets pass at
///    k = 65 536. Solves run through the congruence `x = Q z`,
///    `BᵀB z = Qᵀ b`.
///
/// Either way only the lower triangle of the gram is formed
/// ([`SparseMatrix::gram_lower`]), the half the factorization reads.
#[derive(Debug)]
pub struct GramSolver {
    basis: Option<SparseMatrix>,
    chol: SparseCholesky,
}

impl GramSolver {
    /// Plans the solver for `strategy` as described above. Refuses with
    /// [`LinalgError::FillBudgetExceeded`] when the rotated gram also
    /// breaks [`GRAM_COST_FACTOR`] or either factor breaks
    /// [`FILL_GROWTH_FACTOR`]; a rank-deficient strategy fails its
    /// factorization with [`LinalgError::NotPositiveDefinite`].
    pub fn plan(strategy: &SparseMatrix) -> Result<GramSolver, LinalgError> {
        let k = strategy.cols();
        let gram_cost = |m: &SparseMatrix| -> usize {
            (0..m.rows())
                .map(|i| {
                    let c = m.row_nnz(i);
                    c.saturating_mul(c)
                })
                .fold(0usize, usize::saturating_add)
        };
        let budget = |m: &SparseMatrix| GRAM_COST_FACTOR.saturating_mul(m.nnz() + k);

        if gram_cost(strategy) <= budget(strategy) {
            return Ok(GramSolver {
                basis: None,
                chol: Self::factor_within_fill_budget(&strategy.gram_lower())?,
            });
        }

        // Gram too dense to form: take the Haar congruence. `B = AQ` comes
        // from the closed-form rotation, which stores no coefficient that
        // is zero in exact arithmetic for an integer strategy, so `BᵀB`
        // keeps its chordal zero-fill pattern without a residue prune.
        // The construction probes vet the rotated operator numerically
        // before it can serve a release.
        let b = haar_rotate(strategy);
        let (cost, cap) = (gram_cost(&b), budget(&b));
        if cost > cap {
            return Err(LinalgError::FillBudgetExceeded {
                predicted_at_least: cost,
                cap,
            });
        }
        Ok(GramSolver {
            chol: Self::factor_within_fill_budget(&b.gram_lower())?,
            basis: Some(dyadic_haar_basis(k)),
        })
    }

    /// Factors the lower-triangle gram `g` under [`FILL_GROWTH_FACTOR`]:
    /// `g.nnz()` is the stored lower triangle, diagonal included.
    fn factor_within_fill_budget(g: &SparseMatrix) -> Result<SparseCholesky, LinalgError> {
        let cap = FILL_GROWTH_FACTOR.saturating_mul(g.nnz().max(g.rows()));
        SparseCholesky::factor(g, Some(cap))
    }

    /// Whether the factorization runs through the Haar congruence.
    pub fn rotated(&self) -> bool {
        self.basis.is_some()
    }

    /// Stored nonzeros of the cached factor.
    pub fn factor_nnz(&self) -> usize {
        self.chol.nnz()
    }

    /// Solves `AᵀA x = b` (column space).
    fn solve_gram(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        match &self.basis {
            None => {
                let mut x = b.to_vec();
                self.chol.solve_in_place(&mut x);
                Ok(x)
            }
            Some(q) => {
                let mut z = q.matvec_transpose(b)?;
                self.chol.solve_in_place(&mut z);
                q.matvec(&z)
            }
        }
    }
}

/// A matrix mechanism whose workload and strategy stay in CSR form and
/// whose pseudoinverse is applied per release through its [`GramSolver`].
///
/// Requires the strategy to have full column rank (every strategy the
/// engine plans with does) — that is what collapses the support condition
/// `W A⁺ A = W` to the left-inverse identity `A⁺A = I`, verified here by
/// seeded round-trip probes exactly as the dense path does.
#[derive(Debug)]
pub struct SparseMatrixMechanism {
    w: SparseMatrix,
    strategy: SparseMatrix,
    delta_a: f64,
    solver: GramSolver,
    solves: AtomicUsize,
}

impl SparseMatrixMechanism {
    /// Prepares the mechanism: verifies shapes and sensitivity, plans the
    /// normal-equation solver with [`GramSolver::plan`] — factor `AᵀA`
    /// once here, serve every release from triangular solves — and
    /// verifies the left-inverse identity `A⁺A v = v` on seeded probes
    /// **through the planned path** (so a numerically unsound factor is
    /// caught at build time). A structurally or numerically
    /// column-rank-deficient strategy is rejected as
    /// [`MechanismError::StrategyDoesNotSupportWorkload`]; a strategy
    /// over the solver's budgets bubbles the typed
    /// [`LinalgError::FillBudgetExceeded`].
    pub fn new(w: SparseMatrix, strategy: SparseMatrix) -> Result<Self, MechanismError> {
        if w.cols() != strategy.cols() {
            return Err(MechanismError::InvalidParameter {
                what: "workload and strategy must share the domain size",
            });
        }
        let delta_a = strategy.max_col_l1();
        if delta_a <= 0.0 {
            return Err(MechanismError::InvalidParameter {
                what: "strategy has zero sensitivity (all-zero matrix)",
            });
        }
        let solver = GramSolver::plan(&strategy).map_err(lift_rank_error)?;
        if !probe_round_trip_holds(&strategy, &solver)? {
            return Err(MechanismError::StrategyDoesNotSupportWorkload);
        }
        Ok(SparseMatrixMechanism {
            w,
            strategy,
            delta_a,
            solver,
            solves: AtomicUsize::new(0),
        })
    }

    /// The workload `W`.
    pub fn workload(&self) -> &SparseMatrix {
        &self.w
    }

    /// The strategy `A`.
    pub fn strategy(&self) -> &SparseMatrix {
        &self.strategy
    }

    /// The strategy sensitivity `Δ_A`.
    pub fn delta_a(&self) -> f64 {
        self.delta_a
    }

    /// The planned normal-equation solver.
    pub fn solver(&self) -> &GramSolver {
        &self.solver
    }

    /// Normal-equation solves performed so far (one per release or
    /// per-query error report; the construction probes are not counted).
    pub fn solve_count(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Solves `AᵀA u = b` through the planned solver and bumps the solve
    /// counter.
    fn solve_gram_tracked(&self, b: &[f64]) -> Result<Vec<f64>, MechanismError> {
        let x = self.solver.solve_gram(b)?;
        self.solves.fetch_add(1, Ordering::Relaxed);
        Ok(x)
    }

    fn apply_pinv(&self, y: &[f64]) -> Result<Vec<f64>, MechanismError> {
        let rhs = self.strategy.matvec_transpose(y)?;
        self.solve_gram_tracked(&rhs)
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

    /// Draws only the reconstructed noise vector `W A⁺ Lap(Δ_A/ε)^p`.
    ///
    /// The Laplace draw count and order match the dense mechanism's
    /// (`strategy.rows()` samples), so from equal seeds the two paths
    /// produce the same release up to solver tolerance.
    pub fn noise_only<R: Rng + ?Sized>(
        &self,
        eps: Epsilon,
        rng: &mut R,
    ) -> Result<Vec<f64>, MechanismError> {
        let scale = self.delta_a / eps.value();
        let raw = laplace_vec(rng, scale, self.strategy.rows());
        let z = self.apply_pinv(&raw)?;
        Ok(self.w.matvec(&z)?)
    }

    /// Releases the full noisy domain estimate `x̂ = x + A⁺ Lap(Δ_A/ε)^p`
    /// — the reconstruction every workload answer is a linear function
    /// of. Draw count and order match [`Self::run`]/[`Self::noise_only`]
    /// exactly (`strategy.rows()` samples), so from equal seeds
    /// `W x̂ = run(x)` up to solver tolerance. This is what lets one
    /// mechanism serve a W ≠ I range workload: answer `W x̂` instead of
    /// rematerializing `W A⁺`.
    pub fn reconstruct<R: Rng + ?Sized>(
        &self,
        x: &[f64],
        eps: Epsilon,
        rng: &mut R,
    ) -> Result<Vec<f64>, MechanismError> {
        if x.len() != self.strategy.cols() {
            return Err(MechanismError::InvalidParameter {
                what: "data vector must match the domain size",
            });
        }
        let scale = self.delta_a / eps.value();
        let raw = laplace_vec(rng, scale, self.strategy.rows());
        let z = self.apply_pinv(&raw)?;
        Ok(x.iter().zip(&z).map(|(xi, zi)| xi + zi).collect())
    }

    /// Expected squared error of query `i`:
    /// `2 (Δ_A/ε)² ‖A (AᵀA)⁻¹ wᵢ‖₂²` — one gram solve per call (the
    /// dense path reads a precomputed row instead; use it when error
    /// reports over large workloads dominate).
    pub fn query_error(&self, i: usize, eps: Epsilon) -> Result<f64, MechanismError> {
        let mut wi = vec![0.0; self.w.cols()];
        for (j, v) in self.w.row(i) {
            wi[j] = v;
        }
        let u = self.solve_gram_tracked(&wi)?;
        let au = self.strategy.matvec(&u)?;
        let sq: f64 = au.iter().map(|v| v * v).sum();
        Ok(laplace_variance(self.delta_a / eps.value()) * sq)
    }

    /// Expected total squared error over all queries — `W.rows()` gram
    /// solves; intended for offline reporting, not the serving path.
    pub fn total_error(&self, eps: Epsilon) -> Result<f64, MechanismError> {
        let mut acc = 0.0;
        for i in 0..self.w.rows() {
            acc += self.query_error(i, eps)?;
        }
        Ok(acc)
    }
}

/// A rank-deficient strategy fails its factorization with
/// `NotPositiveDefinite`; the mechanism layer reports that the same way
/// the dense path reports a failed support check. Anything else (budget
/// refusals, shapes) stays a typed linalg error.
fn lift_rank_error(e: LinalgError) -> MechanismError {
    match e {
        LinalgError::NotPositiveDefinite { .. } => MechanismError::StrategyDoesNotSupportWorkload,
        other => MechanismError::Linalg(other),
    }
}

/// Verifies `A⁺A v = v` on seeded pseudo-random probes via round-trip
/// solves **through the planned solver**, mirroring the dense path's
/// `left_inverse_probe_holds` (same probe count, distribution, and
/// tolerance rationale), so a factor is numerically vetted before it
/// serves a release.
fn probe_round_trip_holds(a: &SparseMatrix, solver: &GramSolver) -> Result<bool, MechanismError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let n = a.cols();
    let mut rng = StdRng::seed_from_u64(0x5EED_1DE4);
    for _ in 0..3 {
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let av = a.matvec(&v)?;
        let rhs = a.matvec_transpose(&av)?;
        let back = solver.solve_gram(&rhs)?;
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

/// The identity strategy `A = I_k` in CSR form.
pub fn identity_strategy_sparse(k: usize) -> SparseMatrix {
    SparseMatrix::identity(k)
}

/// The levels of a dyadic strategy over `k` cells: block widths from the
/// padded domain `k.next_power_of_two()` down to `smallest`.
fn dyadic_sizes(k: usize, smallest: usize) -> impl Iterator<Item = usize> {
    let padded = k.next_power_of_two();
    std::iter::successors((padded >= smallest).then_some(padded), move |&s| {
        (s > smallest).then_some(s / 2)
    })
}

/// The binary hierarchical strategy `H_k` in CSR form — row-for-row
/// identical to [`crate::hierarchical_strategy`], at O(k log k) nonzeros
/// instead of O(k²·log k) dense cells. Every level covers each cell once,
/// so the strategy has exactly `k·(log₂(k.next_power_of_two()) + 1)`
/// nonzeros, and the rows are written in order straight into CSR arrays
/// of that size.
pub fn hierarchical_strategy_sparse(k: usize) -> SparseMatrix {
    let rows: usize = dyadic_sizes(k, 1).map(|s| k.div_ceil(s)).sum();
    let nnz = k * (k.next_power_of_two().trailing_zeros() as usize + 1);
    let mut indptr = Vec::with_capacity(rows + 1);
    let mut indices = Vec::with_capacity(nnz);
    indptr.push(0);
    for size in dyadic_sizes(k, 1) {
        for lo in (0..k).step_by(size) {
            indices.extend(lo..(lo + size).min(k));
            indptr.push(indices.len());
        }
    }
    SparseMatrix::from_csr(rows, k, indptr, indices, vec![1.0; nnz])
        .expect("hierarchical rows are written in canonical CSR order")
}

/// The Haar wavelet strategy `Y_k` in CSR form — row-for-row identical to
/// [`crate::wavelet_strategy`]: the total row, then one `+1 … −1` row per
/// block of every level of width ≥ 2. Like the hierarchical strategy it
/// has exactly `k·(log₂(k.next_power_of_two()) + 1)` nonzeros, written in
/// order straight into CSR arrays of that size.
pub fn wavelet_strategy_sparse(k: usize) -> SparseMatrix {
    let rows = 1 + dyadic_sizes(k, 2).map(|s| k.div_ceil(s)).sum::<usize>();
    let nnz = k * (k.next_power_of_two().trailing_zeros() as usize + 1);
    let mut indptr = Vec::with_capacity(rows + 1);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    indptr.push(0);
    indices.extend(0..k);
    values.resize(k, 1.0);
    indptr.push(k);
    for size in dyadic_sizes(k, 2) {
        for lo in (0..k).step_by(size) {
            let (mid, hi) = ((lo + size / 2).min(k), (lo + size).min(k));
            indices.extend(lo..hi);
            values.resize(values.len() + (mid - lo), 1.0);
            values.resize(values.len() + (hi - mid), -1.0);
            indptr.push(indices.len());
        }
    }
    SparseMatrix::from_csr(rows, k, indptr, indices, values)
        .expect("wavelet rows are written in canonical CSR order")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{hierarchical_strategy, identity_strategy, wavelet_strategy};
    use crate::MatrixMechanism;
    use blowfish_core::Workload;
    use blowfish_linalg::TripletBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sparse_strategies_match_dense_row_for_row() {
        for k in [
            1, 2, 3, 5, 6, 7, 8, 13, 16, 21, 32, 37, 100, 129, 255, 257, 513,
        ] {
            let hd = hierarchical_strategy(k);
            let hs = hierarchical_strategy_sparse(k);
            assert_eq!(hs.rows(), hd.rows(), "hierarchical rows at k={k}");
            assert!(
                hs.to_dense().approx_eq(&hd, 0.0),
                "hierarchical mismatch at k={k}"
            );
            let wd = wavelet_strategy(k);
            let ws = wavelet_strategy_sparse(k);
            assert_eq!(ws.rows(), wd.rows(), "wavelet rows at k={k}");
            assert!(
                ws.to_dense().approx_eq(&wd, 0.0),
                "wavelet mismatch at k={k}"
            );
            assert!(identity_strategy_sparse(k)
                .to_dense()
                .approx_eq(&identity_strategy(k), 0.0));
        }
    }

    #[test]
    fn hierarchical_sparse_is_k_log_k() {
        let k = 1024;
        let h = hierarchical_strategy_sparse(k);
        // Each of the k columns appears once per level: height = log2(k)+1.
        assert_eq!(h.nnz(), k * 11);
        assert_eq!(h.max_col_l1(), 11.0);
    }

    #[test]
    fn sparse_release_matches_dense_release_from_equal_seeds() {
        let eps = Epsilon::new(0.7).unwrap();
        for k in [8usize, 16, 30] {
            let w = Workload::all_ranges_1d(k);
            let dense =
                MatrixMechanism::new(w.to_dense_matrix(), hierarchical_strategy(k)).unwrap();
            let sparse =
                SparseMatrixMechanism::new(w.to_sparse_matrix(), hierarchical_strategy_sparse(k))
                    .unwrap();
            let x: Vec<f64> = (0..k).map(|i| (i * 3 % 7) as f64).collect();
            let rd = dense.run(&x, eps, &mut StdRng::seed_from_u64(42)).unwrap();
            let rs = sparse.run(&x, eps, &mut StdRng::seed_from_u64(42)).unwrap();
            for (d, s) in rd.iter().zip(&rs) {
                assert!((d - s).abs() <= 1e-9 * (1.0 + d.abs()), "k={k}: {d} vs {s}");
            }
            // Small hierarchical grams are cheap to form: the planner
            // factors them directly, without the Haar rotation.
            assert!(!sparse.solver().rotated());
            assert!(sparse.solve_count() >= 1);
        }
    }

    #[test]
    fn factored_cg_and_dense_releases_three_way_agree() {
        // The third leg solves the same normal equations by plain CG on
        // the explicit gram, from the same Laplace draws the mechanisms
        // take: `Wx + W (AᵀA)⁻¹ Aᵀ Lap(Δ_A/ε)`.
        let eps = Epsilon::new(0.9).unwrap();
        let opts = blowfish_linalg::CgOptions {
            tol: 1e-12,
            max_iter: 0,
        };
        for k in [12usize, 24, 48] {
            let w = Workload::all_ranges_1d(k);
            let dense =
                MatrixMechanism::new(w.to_dense_matrix(), hierarchical_strategy(k)).unwrap();
            let factored =
                SparseMatrixMechanism::new(w.to_sparse_matrix(), hierarchical_strategy_sparse(k))
                    .unwrap();
            assert!(!factored.solver().rotated());
            let x: Vec<f64> = (0..k).map(|i| (i * 5 % 11) as f64).collect();
            let rd = dense.run(&x, eps, &mut StdRng::seed_from_u64(7)).unwrap();
            let rf = factored
                .run(&x, eps, &mut StdRng::seed_from_u64(7))
                .unwrap();

            let (sw, strategy) = (w.to_sparse_matrix(), hierarchical_strategy_sparse(k));
            let gram = strategy.transpose().matmul(&strategy).unwrap();
            let raw = laplace_vec(
                &mut StdRng::seed_from_u64(7),
                factored.delta_a() / eps.value(),
                strategy.rows(),
            );
            let rhs = strategy.matvec_transpose(&raw).unwrap();
            let cg = blowfish_linalg::conjugate_gradient(&gram, &rhs, opts).unwrap();
            assert!(cg.iterations > 0);
            let truth = sw.matvec(&x).unwrap();
            let noise = sw.matvec(&cg.x).unwrap();
            let rc: Vec<f64> = truth.iter().zip(&noise).map(|(t, n)| t + n).collect();

            for ((d, f), c) in rd.iter().zip(&rf).zip(&rc) {
                assert!((d - f).abs() <= 1e-9 * (1.0 + d.abs()), "k={k}: {d} vs {f}");
                assert!((f - c).abs() <= 1e-9 * (1.0 + f.abs()), "k={k}: {f} vs {c}");
            }
        }
    }

    #[test]
    fn oversized_gram_routes_through_the_haar_rotation() {
        // At k = 256 the hierarchical Gram cost (~2k²) blows the
        // GRAM_COST_FACTOR budget, so the planner must factor the gram
        // of the Haar-rotated strategy — and still match the dense
        // reference.
        let k = 256usize;
        let eps = Epsilon::new(0.5).unwrap();
        let factored =
            SparseMatrixMechanism::new(SparseMatrix::identity(k), hierarchical_strategy_sparse(k))
                .unwrap();
        assert!(factored.solver().rotated());
        assert!(factored.solver().factor_nnz() >= k);
        let dense = MatrixMechanism::new(
            blowfish_linalg::Matrix::identity(k),
            hierarchical_strategy(k),
        )
        .unwrap();
        let x: Vec<f64> = (0..k).map(|i| (i % 13) as f64).collect();
        let rf = factored
            .run(&x, eps, &mut StdRng::seed_from_u64(99))
            .unwrap();
        let rd = dense.run(&x, eps, &mut StdRng::seed_from_u64(99)).unwrap();
        for (f, d) in rf.iter().zip(&rd) {
            assert!((f - d).abs() <= 1e-9 * (1.0 + f.abs()), "{f} vs {d}");
        }
    }

    #[test]
    fn reconstruct_matches_run_under_the_workload() {
        // W x̂ from reconstruct() equals run() from the same seed: the
        // contract that lets MatrixRange serve answers from the domain
        // estimate.
        let k = 32usize;
        let eps = Epsilon::new(1.3).unwrap();
        let w = Workload::all_ranges_1d(k);
        let mm = SparseMatrixMechanism::new(w.to_sparse_matrix(), hierarchical_strategy_sparse(k))
            .unwrap();
        let x: Vec<f64> = (0..k).map(|i| (i * 2 % 9) as f64).collect();
        let run = mm.run(&x, eps, &mut StdRng::seed_from_u64(5)).unwrap();
        let xhat = mm
            .reconstruct(&x, eps, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let via_xhat = mm.workload().matvec(&xhat).unwrap();
        for (a, b) in run.iter().zip(&via_xhat) {
            assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()), "{a} vs {b}");
        }
        assert!(matches!(
            mm.reconstruct(&x[..k - 1], eps, &mut StdRng::seed_from_u64(5)),
            Err(MechanismError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn sparse_error_formulas_match_dense() {
        let k = 16;
        let eps = Epsilon::new(1.0).unwrap();
        let w = Workload::all_ranges_1d(k);
        let dense = MatrixMechanism::new(w.to_dense_matrix(), hierarchical_strategy(k)).unwrap();
        let sparse =
            SparseMatrixMechanism::new(w.to_sparse_matrix(), hierarchical_strategy_sparse(k))
                .unwrap();
        for i in [0usize, 3, w.len() - 1] {
            let d = dense.query_error(i, eps);
            let s = sparse.query_error(i, eps).unwrap();
            assert!((d - s).abs() <= 1e-8 * (1.0 + d), "query {i}: {d} vs {s}");
        }
        let dt = dense.total_error(eps);
        let st = sparse.total_error(eps).unwrap();
        assert!((dt - st).abs() <= 1e-7 * (1.0 + dt), "{dt} vs {st}");
    }

    #[test]
    fn rank_deficient_strategy_is_rejected_typed() {
        // A strategy with an empty column cannot left-invert.
        let mut b = TripletBuilder::new(2, 3);
        b.push(0, 0, 1.0);
        b.push(1, 1, 1.0);
        let a = b.build();
        let res = SparseMatrixMechanism::new(SparseMatrix::identity(3), a);
        assert!(matches!(
            res,
            Err(MechanismError::StrategyDoesNotSupportWorkload)
        ));
        // Duplicated column: numerically rank deficient, same rejection.
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        b.push(1, 1, 1.0);
        let res = SparseMatrixMechanism::new(SparseMatrix::identity(2), b.build());
        assert!(res.is_err());
    }

    #[test]
    fn strategy_over_both_budgets_is_refused_typed() {
        // A dense ±1 strategy has a dense gram, and so does its Haar
        // rotation: both break GRAM_COST_FACTOR, so the planner refuses
        // the strategy with a typed error.
        let k = 64;
        let mut rng = StdRng::seed_from_u64(0xD5);
        let mut b = TripletBuilder::new(2 * k, k);
        for i in 0..2 * k {
            for j in 0..k {
                let sign = if rng.gen_range(0.0..1.0) < 0.5 {
                    -1.0
                } else {
                    1.0
                };
                b.push(i, j, sign);
            }
        }
        let res = SparseMatrixMechanism::new(SparseMatrix::identity(k), b.build());
        assert!(
            matches!(
                res,
                Err(MechanismError::Linalg(
                    LinalgError::FillBudgetExceeded { .. }
                ))
            ),
            "{res:?}"
        );
    }

    #[test]
    fn shape_and_sensitivity_validation() {
        let a = identity_strategy_sparse(4);
        assert!(matches!(
            SparseMatrixMechanism::new(SparseMatrix::identity(3), a.clone()),
            Err(MechanismError::InvalidParameter { .. })
        ));
        assert!(matches!(
            SparseMatrixMechanism::new(SparseMatrix::identity(4), SparseMatrix::zeros(2, 4)),
            Err(MechanismError::InvalidParameter { .. })
        ));
        let mm = SparseMatrixMechanism::new(SparseMatrix::identity(4), a).unwrap();
        assert_eq!(mm.delta_a(), 1.0);
        assert_eq!(mm.workload().rows(), 4);
        assert_eq!(mm.strategy().cols(), 4);
        // The identity Gram is diagonal: factored directly, zero fill.
        assert!(!mm.solver().rotated());
        assert_eq!(mm.solver().factor_nnz(), 4);
    }
}
