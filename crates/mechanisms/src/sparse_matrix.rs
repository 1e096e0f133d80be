//! The matrix mechanism over CSR strategies: apply `A⁺`, never store it.
//!
//! The dense [`MatrixMechanism`](crate::MatrixMechanism) materializes the
//! reconstruction `W A⁺` through an O(k³) pseudoinverse: at k = 65 536
//! that object alone is 32 GiB. But every strategy the paper plans with —
//! identity, binary hierarchical, Haar — is O(k log k) sparse, and for a
//! full-column-rank strategy the pseudoinverse *application* factors as
//! `A⁺ ỹ = (AᵀA)⁻¹ Aᵀ ỹ`: a normal-equation solve.
//! [`SparseMatrixMechanism`] keeps `W` and `A` in CSR and solves through
//! a plan-time [`GramSolver`]. Its budget cascade factors `AᵀA` once by
//! sparse Cholesky (directly, or after a Haar-basis rotation when the
//! gram itself is too dense to form), so each release is two O(nnz(L))
//! triangular solves; only a strategy whose factor would break the
//! budgets falls back to preconditioned CG per release. Peak memory stays
//! O(nnz) and the domain ceiling lifts to k≈10⁵.
//!
//! The sparse strategy constructors ([`hierarchical_strategy_sparse`]
//! et al.) emit *exactly* the rows of their dense counterparts, in the
//! same order. That makes the two mechanisms draw identical Laplace noise
//! from the same seed — so sparse and dense releases agree to solver
//! tolerance (≤1e-9 relative with `tol = 1e-12`), which the equivalence
//! tests pin.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rand::Rng;

use blowfish_linalg::{
    dyadic_haar_basis, incomplete_cholesky0, solve_gram_system_with, CgOptions, CgWorkspace,
    CholeskyOrdering, GramPreconditioner, LinalgError, PinvMethod, SparseCholesky, SparseMatrix,
    SymbolicCholesky, TripletBuilder,
};

use blowfish_core::Epsilon;

use crate::noise::{laplace_variance, laplace_vec};
use crate::MechanismError;

/// How a matrix mechanism applies the strategy pseudoinverse per release.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinvApply {
    /// `W A⁺` was materialized dense up front, as the reference
    /// [`MatrixMechanism`](crate::MatrixMechanism) does; the tag records
    /// which factorization derived it.
    Materialized(PinvMethod),
    /// `A⁺ ỹ` is computed per release by matrix-free normal-equation CG
    /// (the O(nnz) path).
    IterativeCg,
    /// `AᵀA` (possibly after a Haar-basis rotation) was factored once by
    /// sparse Cholesky at plan time; each release is two O(nnz(L))
    /// triangular solves.
    Factored,
}

impl std::fmt::Display for PinvApply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PinvApply::Materialized(m) => write!(f, "materialized ({m:?})"),
            PinvApply::IterativeCg => write!(f, "iterative-cg"),
            PinvApply::Factored => write!(f, "factored-cholesky"),
        }
    }
}

/// Gram-formability budget: `AᵀA` is only formed when its
/// O(Σᵢ nnz(rowᵢ)²) accumulation cost stays within
/// `GRAM_COST_FACTOR · (nnz(A) + k)` — a constant number of strategy
/// sweeps. Hierarchical/wavelet strategies blow this at large k (their
/// coarse rows make `AᵀA` structurally dense), which routes them to the
/// Haar-rotation branch instead of a doomed Gram product.
pub const GRAM_COST_FACTOR: usize = 32;

/// Factor-fill budget: a complete factorization is kept only while the
/// **symbolic** pass predicts `nnz(L) ≤ FILL_GROWTH_FACTOR ·
/// nnz(lower(G))`. Past that the factor would break the O(nnz) memory
/// story, so the solver downgrades to IC(0)-preconditioned CG (and to
/// plain Jacobi CG if IC(0) breaks down) — no input ever regresses past
/// the pre-factorization path.
pub const FILL_GROWTH_FACTOR: usize = 8;

/// Reusable per-solve scratch: the CG workspace plus two column-space
/// buffers for the factored path. Lives behind a `try_lock` so
/// concurrent releases never serialize — a contended solve just runs
/// with a fresh (allocating) scratch.
#[derive(Debug, Default)]
struct SolveScratch {
    ws: CgWorkspace,
    a: Vec<f64>,
    b: Vec<f64>,
}

fn ensure_len(buf: &mut Vec<f64>, len: usize) {
    if buf.len() != len {
        buf.clear();
        buf.resize(len, 0.0);
    }
}

#[derive(Debug)]
enum GramPath {
    /// `P G Pᵀ = L Lᵀ` held ready; `basis = Some(Q)` means the factored
    /// operator is `(AQ)ᵀ(AQ)` and solves run through the congruence
    /// `x = Q z`, `(AQ)ᵀ(AQ) z = Qᵀ b`.
    Factored {
        basis: Option<SparseMatrix>,
        chol: SparseCholesky,
    },
    /// Matrix-free PCG with a plan-time-cached Jacobi diagonal, upgraded
    /// to an IC(0) preconditioner when one was within budget.
    Cg {
        diag: Vec<f64>,
        precond: Option<SparseCholesky>,
    },
}

/// The plan-time solver for one strategy's normal equations
/// `AᵀA x = b` — the shareable, factor-once artifact behind
/// [`PinvApply::Factored`]. Decides its own path by budget cascade:
///
/// 1. **Direct factor** — if `AᵀA` is affordable to form
///    ([`GRAM_COST_FACTOR`]) and its symbolic fill is within
///    [`FILL_GROWTH_FACTOR`], factor it once (Auto ordering).
/// 2. **Rotated factor** — otherwise rotate by the orthonormal
///    [`dyadic_haar_basis`]: `B = AQ` is O(log k)-per-row sparse for
///    dyadic strategies and `BᵀB` has chordal tree-ancestor sparsity
///    with zero fill in its natural order, so the same budgets now pass
///    at k = 65 536.
/// 3. **IC(0) PCG** — Gram formable but fill over budget: keep the
///    no-fill incomplete factor as a CG preconditioner.
/// 4. **Jacobi PCG** — anything else (including IC(0) breakdown):
///    exactly the pre-factorization path, so nothing regresses.
#[derive(Debug)]
pub struct GramSolver {
    path: GramPath,
    opts: CgOptions,
}

impl GramSolver {
    /// Plans the solver for `strategy` by the budget cascade above.
    /// Never fails: every rejected branch falls through to Jacobi PCG.
    pub fn plan(strategy: &SparseMatrix, opts: CgOptions) -> GramSolver {
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
            if let Ok(g) = strategy.transpose().matmul(strategy) {
                match Self::factor_within_fill_budget(&g) {
                    Ok(chol) => {
                        return GramSolver {
                            path: GramPath::Factored { basis: None, chol },
                            opts,
                        }
                    }
                    Err(LinalgError::FillBudgetExceeded { .. }) => {
                        // Gram formable, factor too filled: IC(0) PCG,
                        // with typed breakdown falling through to Jacobi.
                        if let Ok(pc) = incomplete_cholesky0(&g) {
                            return GramSolver {
                                path: GramPath::Cg {
                                    diag: strategy.col_sq_norms(),
                                    precond: Some(pc),
                                },
                                opts,
                            };
                        }
                    }
                    // Rank deficiency etc.: let the CG path (and the
                    // construction probes) pass judgment.
                    Err(_) => {}
                }
            }
            return Self::plan_cg(strategy, opts);
        }

        // Gram too dense to form: try the Haar congruence. The sparse
        // product `AQ` leaves ~1e-13 rounding residue at entries the
        // wavelet cancellation makes mathematically zero; dropped here
        // (the smallest true entry of a dyadic rotation is ≥ 1/(2√k),
        // many orders above the prune line), because the residue would
        // densify `BᵀB` and break its chordal zero-fill pattern. The
        // construction probes vet the pruned operator numerically
        // before it can serve a release.
        let q = dyadic_haar_basis(k);
        if let Ok(b) = strategy.matmul(&q).map(|b| {
            let tol = b.max_abs() * 1e-10;
            b.dropping_below(tol)
        }) {
            if gram_cost(&b) <= budget(&b) {
                if let Ok(g) = b.transpose().matmul(&b) {
                    if let Ok(chol) = Self::factor_within_fill_budget(&g) {
                        return GramSolver {
                            path: GramPath::Factored {
                                basis: Some(q),
                                chol,
                            },
                            opts,
                        };
                    }
                }
            }
        }
        Self::plan_cg(strategy, opts)
    }

    /// The pre-factorization solver, unconditionally: Jacobi PCG with a
    /// plan-time-cached diagonal. Public so equivalence tests and
    /// benches can pin the factored path against the CG path on the
    /// same strategy.
    pub fn plan_cg(strategy: &SparseMatrix, opts: CgOptions) -> GramSolver {
        GramSolver {
            path: GramPath::Cg {
                diag: strategy.col_sq_norms(),
                precond: None,
            },
            opts,
        }
    }

    fn factor_within_fill_budget(g: &SparseMatrix) -> Result<SparseCholesky, LinalgError> {
        let lower = (g.nnz() + g.rows()) / 2;
        let cap = FILL_GROWTH_FACTOR.saturating_mul(lower.max(g.rows()));
        let sym = SymbolicCholesky::analyze(g, CholeskyOrdering::Auto, Some(cap))?;
        sym.factorize(g)
    }

    /// Whether this solver serves releases from a cached factorization.
    pub fn is_factored(&self) -> bool {
        matches!(self.path, GramPath::Factored { .. })
    }

    /// Whether the factorization runs through the Haar congruence.
    pub fn rotated(&self) -> bool {
        matches!(self.path, GramPath::Factored { basis: Some(_), .. })
    }

    /// Whether the CG path carries an IC(0) preconditioner.
    pub fn uses_ic0(&self) -> bool {
        matches!(
            self.path,
            GramPath::Cg {
                precond: Some(_),
                ..
            }
        )
    }

    /// Stored nonzeros of the cached factor, when one exists.
    pub fn factor_nnz(&self) -> Option<usize> {
        match &self.path {
            GramPath::Factored { chol, .. } => Some(chol.nnz()),
            GramPath::Cg { .. } => None,
        }
    }

    /// How a mechanism holding this solver reports its apply path.
    pub fn apply_method(&self) -> PinvApply {
        if self.is_factored() {
            PinvApply::Factored
        } else {
            PinvApply::IterativeCg
        }
    }

    /// Solves `AᵀA x = b` (column space). Returns the solution and the
    /// CG iterations spent (0 on the factored path).
    fn solve_gram(
        &self,
        strategy: &SparseMatrix,
        b: &[f64],
        scratch: &mut SolveScratch,
    ) -> Result<(Vec<f64>, usize), LinalgError> {
        match &self.path {
            GramPath::Factored { basis: None, chol } => {
                let mut out = b.to_vec();
                ensure_len(&mut scratch.a, chol.n());
                chol.solve_in_place(&mut out, &mut scratch.a);
                Ok((out, 0))
            }
            GramPath::Factored {
                basis: Some(q),
                chol,
            } => {
                ensure_len(&mut scratch.a, q.cols());
                ensure_len(&mut scratch.b, q.cols());
                q.matvec_transpose_into(b, &mut scratch.a)?;
                chol.solve_in_place(&mut scratch.a, &mut scratch.b);
                Ok((q.matvec(&scratch.a)?, 0))
            }
            GramPath::Cg { diag, precond } => {
                let pc = match precond {
                    Some(c) => GramPreconditioner::Ic0(c),
                    None => GramPreconditioner::JacobiWith(diag),
                };
                let sol = solve_gram_system_with(strategy, b, self.opts, pc, &mut scratch.ws)?;
                Ok((sol.x, sol.iterations))
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
    solver: Arc<GramSolver>,
    scratch: Mutex<SolveScratch>,
    solves: AtomicUsize,
    cg_iterations: AtomicUsize,
}

impl SparseMatrixMechanism {
    /// The default solver options (`tol = 1e-12`: releases agree with
    /// the dense reconstruction to ≤1e-9 relative).
    pub const DEFAULT_CG_OPTIONS: CgOptions = CgOptions {
        tol: 1e-12,
        max_iter: 0,
    };

    /// Prepares the mechanism with [`Self::DEFAULT_CG_OPTIONS`].
    pub fn new(w: SparseMatrix, strategy: SparseMatrix) -> Result<Self, MechanismError> {
        SparseMatrixMechanism::with_options(w, strategy, Self::DEFAULT_CG_OPTIONS)
    }

    /// Prepares the mechanism with explicit solver options, planning the
    /// normal-equation solver by the [`GramSolver`] budget cascade —
    /// factor `AᵀA` once here, serve every release from triangular
    /// solves — and verifying shapes, sensitivity, and the left-inverse
    /// identity `A⁺A v = v` on seeded probes **through the planned
    /// path** (so a numerically unsound factor is caught at build time).
    /// A structurally or numerically column-rank-deficient strategy is
    /// rejected as [`MechanismError::StrategyDoesNotSupportWorkload`]; a
    /// solver that runs out of iterations bubbles the typed
    /// [`LinalgError::NoConvergence`].
    pub fn with_options(
        w: SparseMatrix,
        strategy: SparseMatrix,
        opts: CgOptions,
    ) -> Result<Self, MechanismError> {
        let solver = Arc::new(GramSolver::plan(&strategy, opts));
        SparseMatrixMechanism::with_solver(w, strategy, solver)
    }

    /// Prepares the mechanism around an already-planned (typically
    /// cache-shared) [`GramSolver`], so several workloads over one
    /// strategy pay for one factorization. Validation is identical to
    /// [`Self::with_options`].
    pub fn with_solver(
        w: SparseMatrix,
        strategy: SparseMatrix,
        solver: Arc<GramSolver>,
    ) -> Result<Self, MechanismError> {
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
        if !probe_round_trip_holds(&strategy, &solver)? {
            return Err(MechanismError::StrategyDoesNotSupportWorkload);
        }
        Ok(SparseMatrixMechanism {
            w,
            strategy,
            delta_a,
            solver,
            scratch: Mutex::new(SolveScratch::default()),
            solves: AtomicUsize::new(0),
            cg_iterations: AtomicUsize::new(0),
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

    /// How this mechanism applies `A⁺`: [`PinvApply::Factored`] when the
    /// planner's budgets admitted a cached Cholesky factor,
    /// [`PinvApply::IterativeCg`] otherwise.
    pub fn apply_method(&self) -> PinvApply {
        self.solver.apply_method()
    }

    /// The shared normal-equation solver (for cache reuse and stats).
    pub fn solver(&self) -> &Arc<GramSolver> {
        &self.solver
    }

    /// Normal-equation solves performed so far (one per release or
    /// per-query error report; the construction probes are not counted).
    pub fn solve_count(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Total CG iterations across those solves — ~log₂ k per solve on
    /// hierarchical strategies when CG runs at all, and exactly 0 on the
    /// factored path.
    pub fn cg_iterations(&self) -> usize {
        self.cg_iterations.load(Ordering::Relaxed)
    }

    /// Buffer (re)allocations inside the shared solve scratch so far —
    /// flat after the first release of a given shape.
    pub fn scratch_allocations(&self) -> usize {
        self.scratch.lock().map(|s| s.ws.allocations()).unwrap_or(0)
    }

    /// Solves `AᵀA u = b` through the planned path, reusing the shared
    /// scratch when it is uncontended and bumping the solve counters.
    fn solve_gram_tracked(&self, b: &[f64]) -> Result<Vec<f64>, MechanismError> {
        let solved = match self.scratch.try_lock() {
            Ok(mut s) => self.solver.solve_gram(&self.strategy, b, &mut s),
            Err(_) => self
                .solver
                .solve_gram(&self.strategy, b, &mut SolveScratch::default()),
        };
        let (x, iterations) = solved.map_err(lift_rank_error)?;
        self.solves.fetch_add(1, Ordering::Relaxed);
        self.cg_iterations.fetch_add(iterations, Ordering::Relaxed);
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

    /// Expected total squared error over all queries — `W.rows()` CG
    /// solves; intended for offline reporting, not the serving path.
    pub fn total_error(&self, eps: Epsilon) -> Result<f64, MechanismError> {
        let mut acc = 0.0;
        for i in 0..self.w.rows() {
            acc += self.query_error(i, eps)?;
        }
        Ok(acc)
    }
}

/// A rank-deficient strategy surfaces from CG as `NotPositiveDefinite`;
/// the mechanism layer reports that the same way the dense path reports a
/// failed support check. Anything else (non-convergence, shapes) stays a
/// typed linalg error.
fn lift_rank_error(e: LinalgError) -> MechanismError {
    match e {
        LinalgError::NotPositiveDefinite { .. } => MechanismError::StrategyDoesNotSupportWorkload,
        other => MechanismError::Linalg(other),
    }
}

/// Verifies `A⁺A v = v` on seeded pseudo-random probes via round-trip
/// solves **through the planned solver path**, mirroring the dense
/// path's `left_inverse_probe_holds` (same probe count, distribution,
/// and tolerance rationale). Running probes through the real path means
/// a factored solver is numerically vetted before it serves a release.
fn probe_round_trip_holds(a: &SparseMatrix, solver: &GramSolver) -> Result<bool, MechanismError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let n = a.cols();
    let mut rng = StdRng::seed_from_u64(0x5EED_1DE4);
    let mut scratch = SolveScratch::default();
    for _ in 0..3 {
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let av = a.matvec(&v)?;
        let rhs = a.matvec_transpose(&av)?;
        let (back, _) = solver
            .solve_gram(a, &rhs, &mut scratch)
            .map_err(lift_rank_error)?;
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

/// The binary hierarchical strategy `H_k` in CSR form — row-for-row
/// identical to [`crate::hierarchical_strategy`], at O(k log k) nonzeros
/// instead of O(k²·log k) dense cells.
pub fn hierarchical_strategy_sparse(k: usize) -> SparseMatrix {
    let padded = k.next_power_of_two();
    let mut triplets: Vec<(usize, usize)> = Vec::new();
    let mut row = 0usize;
    let mut size = padded;
    loop {
        let mut start = 0;
        while start < padded {
            let lo = start.min(k);
            let hi = (start + size).min(k);
            if lo < hi {
                // Non-empty after clipping padding: this row exists.
                for j in lo..hi {
                    triplets.push((row, j));
                }
                row += 1;
            }
            start += size;
        }
        if size == 1 {
            break;
        }
        size /= 2;
    }
    let mut b = TripletBuilder::new(row, k);
    for (r, j) in triplets {
        b.push(r, j, 1.0);
    }
    b.build()
}

/// The Haar wavelet strategy `Y_k` in CSR form — row-for-row identical to
/// [`crate::wavelet_strategy`].
pub fn wavelet_strategy_sparse(k: usize) -> SparseMatrix {
    let padded = k.next_power_of_two();
    let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
    let mut row = 0usize;
    // Total-average row.
    for j in 0..k {
        triplets.push((row, j, 1.0));
    }
    row += 1;
    let mut size = padded;
    while size >= 2 {
        let half = size / 2;
        let mut start = 0;
        while start < padded {
            let plo = start.min(k);
            let phi = (start + half).min(k);
            let nlo = (start + half).min(k);
            let nhi = (start + size).min(k);
            if plo < phi || nlo < nhi {
                for j in plo..phi {
                    triplets.push((row, j, 1.0));
                }
                for j in nlo..nhi {
                    triplets.push((row, j, -1.0));
                }
                row += 1;
            }
            start += size;
        }
        size /= 2;
    }
    let mut b = TripletBuilder::new(row, k);
    for (r, j, v) in triplets {
        b.push(r, j, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{hierarchical_strategy, identity_strategy, wavelet_strategy};
    use crate::MatrixMechanism;
    use blowfish_core::Workload;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sparse_strategies_match_dense_row_for_row() {
        for k in [1, 2, 3, 5, 6, 7, 8, 13, 16, 21, 32, 37] {
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
            // Small hierarchical grams are within both budgets: the
            // planner factors them and releases spend zero CG iterations.
            assert_eq!(sparse.apply_method(), PinvApply::Factored);
            assert!(sparse.solve_count() >= 1);
            assert_eq!(sparse.cg_iterations(), 0);
        }
    }

    #[test]
    fn factored_cg_and_dense_releases_three_way_agree() {
        let eps = Epsilon::new(0.9).unwrap();
        for k in [12usize, 24, 48] {
            let w = Workload::all_ranges_1d(k);
            let opts = CgOptions {
                tol: 1e-12,
                max_iter: 0,
            };
            let dense =
                MatrixMechanism::new(w.to_dense_matrix(), hierarchical_strategy(k)).unwrap();
            let factored =
                SparseMatrixMechanism::new(w.to_sparse_matrix(), hierarchical_strategy_sparse(k))
                    .unwrap();
            let strategy = hierarchical_strategy_sparse(k);
            let cg_solver = Arc::new(GramSolver::plan_cg(&strategy, opts));
            let cg = SparseMatrixMechanism::with_solver(w.to_sparse_matrix(), strategy, cg_solver)
                .unwrap();
            assert_eq!(factored.apply_method(), PinvApply::Factored);
            assert_eq!(cg.apply_method(), PinvApply::IterativeCg);
            let x: Vec<f64> = (0..k).map(|i| (i * 5 % 11) as f64).collect();
            let rd = dense.run(&x, eps, &mut StdRng::seed_from_u64(7)).unwrap();
            let rf = factored
                .run(&x, eps, &mut StdRng::seed_from_u64(7))
                .unwrap();
            let rc = cg.run(&x, eps, &mut StdRng::seed_from_u64(7)).unwrap();
            for ((d, f), c) in rd.iter().zip(&rf).zip(&rc) {
                assert!((d - f).abs() <= 1e-9 * (1.0 + d.abs()), "k={k}: {d} vs {f}");
                assert!((f - c).abs() <= 1e-9 * (1.0 + f.abs()), "k={k}: {f} vs {c}");
            }
            assert!(cg.cg_iterations() > 0);
        }
    }

    #[test]
    fn oversized_gram_routes_through_the_haar_rotation() {
        // At k = 256 the hierarchical Gram cost (~2k²) blows the
        // GRAM_COST_FACTOR budget, so the planner must reach the factored
        // path via the Haar congruence — and still match the CG path.
        let k = 256usize;
        let eps = Epsilon::new(0.5).unwrap();
        let opts = CgOptions {
            tol: 1e-12,
            max_iter: 0,
        };
        let strategy = hierarchical_strategy_sparse(k);
        let factored =
            SparseMatrixMechanism::new(SparseMatrix::identity(k), strategy.clone()).unwrap();
        assert_eq!(factored.apply_method(), PinvApply::Factored);
        assert!(factored.solver().rotated());
        assert!(factored.solver().factor_nnz().is_some());
        let cg_solver = Arc::new(GramSolver::plan_cg(&strategy, opts));
        let cg = SparseMatrixMechanism::with_solver(SparseMatrix::identity(k), strategy, cg_solver)
            .unwrap();
        let x: Vec<f64> = (0..k).map(|i| (i % 13) as f64).collect();
        let rf = factored
            .run(&x, eps, &mut StdRng::seed_from_u64(99))
            .unwrap();
        let rc = cg.run(&x, eps, &mut StdRng::seed_from_u64(99)).unwrap();
        for (f, c) in rf.iter().zip(&rc) {
            assert!((f - c).abs() <= 1e-9 * (1.0 + f.abs()), "{f} vs {c}");
        }
        assert_eq!(factored.cg_iterations(), 0);
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
    fn scratch_allocations_flatten_across_releases() {
        let k = 64usize;
        let eps = Epsilon::new(1.0).unwrap();
        let strategy = hierarchical_strategy_sparse(k);
        let opts = CgOptions {
            tol: 1e-12,
            max_iter: 0,
        };
        let cg_solver = Arc::new(GramSolver::plan_cg(&strategy, opts));
        let mm = SparseMatrixMechanism::with_solver(SparseMatrix::identity(k), strategy, cg_solver)
            .unwrap();
        let x = vec![1.0; k];
        let mut rng = StdRng::seed_from_u64(11);
        mm.run(&x, eps, &mut rng).unwrap();
        let after_first = mm.scratch_allocations();
        assert!(after_first > 0);
        for _ in 0..5 {
            mm.run(&x, eps, &mut rng).unwrap();
        }
        assert_eq!(mm.scratch_allocations(), after_first);
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
        // The identity Gram is trivially within budget: factored.
        assert!(mm.apply_method().to_string().contains("factored"));
    }
}
