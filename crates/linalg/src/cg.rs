//! Conjugate gradient for sparse symmetric positive-definite systems.
//!
//! The min-norm transformed database `x_G = P_Gᵀ (P_G P_Gᵀ)⁻¹ x` solves
//! against the *grounded graph Laplacian* `L = P_G P_Gᵀ` — sparse, SPD
//! (whenever the policy graph is connected and touches ⊥), and far too
//! large to densify for grid policies. [`conjugate_gradient`] solves
//! `A x = b` for such an explicit sparse SPD `A`, preconditioned by
//! `diag(A)`.
//!
//! The solver either converges to the requested tolerance or fails typed
//! ([`LinalgError::NoConvergence`] with the iteration count, or
//! [`LinalgError::NotPositiveDefinite`] when the operator betrays
//! indefiniteness mid-iteration) — an unconverged `x` is never returned
//! silently.

use crate::dense::dot;
use crate::sparse::SparseMatrix;
use crate::LinalgError;

/// Options for [`conjugate_gradient`].
///
/// ## Choosing `tol`
///
/// `tol` bounds the *relative residual* `‖r‖₂ / ‖b‖₂` of the system
/// solved; the default `1e-10` is comfortable for graph Laplacians.
/// Below ~`1e-14` the f64 recurrence stagnates and the iteration cap
/// becomes the practical stop.
///
/// ## Choosing `max_iter`
///
/// `max_iter = 0` (the default) auto-sizes to `10·n + 50`. If a system
/// is so ill-conditioned that the cap trips, the solver returns
/// [`LinalgError::NoConvergence`] carrying the count — callers should
/// treat that as "pick a direct solve", not retry with a bigger cap.
#[derive(Clone, Copy, Debug)]
pub struct CgOptions {
    /// Relative residual tolerance `‖r‖₂ / ‖b‖₂`.
    pub tol: f64,
    /// Iteration cap; `0` auto-sizes to `10 * n + 50`.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-10,
            max_iter: 0, // 0 = auto (10 n + 50)
        }
    }
}

/// Result of a CG solve.
#[derive(Clone, Debug)]
pub struct CgSolution {
    /// The approximate solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual.
    pub residual: f64,
}

/// Solves `A x = b` for sparse SPD `A` with Jacobi-preconditioned CG.
pub fn conjugate_gradient(
    a: &SparseMatrix,
    b: &[f64],
    opts: CgOptions,
) -> Result<CgSolution, LinalgError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (n, 1),
            got: (b.len(), 1),
        });
    }
    let mut diag_inv = vec![0.0; n];
    for (i, inv) in diag_inv.iter_mut().enumerate() {
        let d = a.get(i, i);
        if d <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        *inv = 1.0 / d;
    }
    let max_iter = if opts.max_iter == 0 {
        10 * n + 50
    } else {
        opts.max_iter
    };
    let bnorm = dot(b, b).sqrt();
    if bnorm == 0.0 {
        return Ok(CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z: Vec<f64> = r.iter().zip(&diag_inv).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let mut rz = dot(&r, &z);

    for it in 0..max_iter {
        a.matvec_into(&p, &mut ap)?;
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: it });
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rnorm = dot(&r, &r).sqrt();
        if rnorm / bnorm <= opts.tol {
            return Ok(CgSolution {
                x,
                iterations: it + 1,
                residual: rnorm / bnorm,
            });
        }
        for i in 0..n {
            z[i] = r[i] * diag_inv[i];
        }
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    Err(LinalgError::NoConvergence {
        what: "conjugate gradient",
        iterations: max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// Grounded Laplacian of a path on `n` vertices with a ⊥-edge at the end.
    fn grounded_path_laplacian(n: usize) -> SparseMatrix {
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            let mut deg = 0.0;
            if i > 0 {
                deg += 1.0;
                b.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                deg += 1.0;
                b.push(i, i + 1, -1.0);
            }
            if i == n - 1 {
                deg += 1.0; // edge to ⊥ grounds the system
            }
            b.push(i, i, deg);
        }
        b.build()
    }

    #[test]
    fn solves_grounded_path() {
        let n = 50;
        let a = grounded_path_laplacian(n);
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.matvec(&xtrue).unwrap();
        let sol = conjugate_gradient(&a, &b, CgOptions::default()).unwrap();
        for (u, v) in sol.x.iter().zip(&xtrue) {
            assert!((u - v).abs() < 1e-7, "{u} vs {v}");
        }
    }

    #[test]
    fn solves_grid_laplacian() {
        // Grounded Laplacian of a 10x10 grid with one corner tied to ⊥.
        let k = 10;
        let n = k * k;
        let idx = |r: usize, c: usize| r * k + c;
        let mut b = TripletBuilder::new(n, n);
        let mut deg = vec![0.0_f64; n];
        for r in 0..k {
            for c in 0..k {
                let u = idx(r, c);
                if c + 1 < k {
                    let v = idx(r, c + 1);
                    b.push(u, v, -1.0);
                    b.push(v, u, -1.0);
                    deg[u] += 1.0;
                    deg[v] += 1.0;
                }
                if r + 1 < k {
                    let v = idx(r + 1, c);
                    b.push(u, v, -1.0);
                    b.push(v, u, -1.0);
                    deg[u] += 1.0;
                    deg[v] += 1.0;
                }
            }
        }
        deg[0] += 1.0; // corner grounded
        for (i, d) in deg.iter().enumerate() {
            b.push(i, i, *d);
        }
        let a = b.build();
        let xtrue: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let rhs = a.matvec(&xtrue).unwrap();
        let sol = conjugate_gradient(&a, &rhs, CgOptions::default()).unwrap();
        for (u, v) in sol.x.iter().zip(&xtrue) {
            assert!((u - v).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = grounded_path_laplacian(5);
        let sol = conjugate_gradient(&a, &[0.0; 5], CgOptions::default()).unwrap();
        assert_eq!(sol.iterations, 0);
        assert!(sol.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = grounded_path_laplacian(5);
        assert!(conjugate_gradient(&a, &[0.0; 4], CgOptions::default()).is_err());
    }

    #[test]
    fn rejects_zero_diagonal() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let a = b.build();
        assert!(conjugate_gradient(&a, &[1.0, 1.0], CgOptions::default()).is_err());
    }

    #[test]
    fn iteration_cap_respected() {
        let a = grounded_path_laplacian(100);
        let b: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let res = conjugate_gradient(
            &a,
            &b,
            CgOptions {
                tol: 1e-14,
                max_iter: 2,
            },
        );
        assert!(matches!(res, Err(LinalgError::NoConvergence { .. })));
    }
}
