//! The matrix mechanism's servable strategies, with `A⁺` in closed form.
//!
//! The two strategies a matrix-mechanism id can name
//! ([`MatrixStrategyKind`]) are designs on the clipped dyadic tree over
//! the `k` cells. (The identity strategy `A = I` is the Laplace
//! mechanism, which serves it.) With `n = k.next_power_of_two()`, level widths run
//! `s = n, n/2, …, 1`; a level's nodes are `(s, lo)` for `lo = 0, s, 2s,
//! … < k`, covering `[lo, min(lo + s, k))`. Node `(s, lo)` has the child
//! `(s/2, lo)`, and a second child `(s/2, lo + s/2)` only when
//! `lo + s/2 < k`.
//!
//! * **Hierarchical** (Hay et al. \[10\]) — one row per node, each the
//!   node's interval sum, root level first and left to right within a
//!   level.
//! * **Wavelet** (Privelet \[20\]) — the total row, then one row per node
//!   of width ≥ 2 in the same order: `S_left − S_right`, or the node sum
//!   when the node has one child.
//!
//! These are exactly the rows, in the same order, of the dense
//! [`hierarchical_strategy`](crate::hierarchical_strategy) and
//! [`wavelet_strategy`](crate::wavelet_strategy), and `Δ_A = log₂ n + 1`
//! is their `max_col_l1`, so a seed draws the same Laplace noise here as
//! through the dense [`MatrixMechanism`](crate::MatrixMechanism).
//!
//! On a tree, least squares is an exact two-pass elimination in
//! O(nodes), with no gram, factor or plan. Each node carries `(a, b)`,
//! its subtree's evidence on its sum `S` written as `½aS² − bS`. The
//! upward pass folds each node's children into one such quadratic and
//! adds the node's own row; the root's sum is `b/a`; the downward pass
//! splits each node's sum between its children. The leaf sums are `A⁺y`.

use rand::Rng;

use blowfish_core::Epsilon;

use crate::noise::laplace_vec;

/// Strategy matrices the matrix-mechanism ids plan with.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatrixStrategyKind {
    /// The binary hierarchical strategy `H_k`.
    Hierarchical,
    /// The Haar wavelet strategy `Y_k`.
    Wavelet,
}

impl MatrixStrategyKind {
    /// The stable id fragment (`hierarchical` / `wavelet`) used in
    /// registry ids.
    pub fn id(self) -> &'static str {
        match self {
            MatrixStrategyKind::Hierarchical => "hierarchical",
            MatrixStrategyKind::Wavelet => "wavelet",
        }
    }

    /// Parses an id fragment produced by [`MatrixStrategyKind::id`].
    pub fn parse(id: &str) -> Option<MatrixStrategyKind> {
        Some(match id {
            "hierarchical" => MatrixStrategyKind::Hierarchical,
            "wavelet" => MatrixStrategyKind::Wavelet,
            _ => return None,
        })
    }

    /// The strategy's row count over `k` cells: the number of Laplace
    /// draws one release takes.
    pub fn rows(self, k: usize) -> usize {
        let start = level_starts(k);
        match self {
            MatrixStrategyKind::Hierarchical => start[start.len() - 1],
            MatrixStrategyKind::Wavelet => 1 + start[start.len() - 2],
        }
    }

    /// The strategy sensitivity `Δ_A` over `k` cells: the tree height
    /// `log₂ n + 1`, since every cell lies in one node per level.
    pub fn sensitivity(self, k: usize) -> f64 {
        (k.next_power_of_two().trailing_zeros() + 1) as f64
    }

    /// Releases the noisy domain estimate `x̂ = x + A⁺·Lap(Δ_A/ε)^rows`
    /// over `k = x.len()` cells. Every workload answer `W x̂` is a linear
    /// function of it, so one release serves the histogram and the range
    /// workloads alike.
    pub fn reconstruct<R: Rng + ?Sized>(self, x: &[f64], eps: Epsilon, rng: &mut R) -> Vec<f64> {
        let k = x.len();
        let noise = laplace_vec(rng, self.sensitivity(k) / eps.value(), self.rows(k));
        let mut xhat = self.pinv(k, &noise);
        for (v, xi) in xhat.iter_mut().zip(x) {
            *v += xi;
        }
        xhat
    }

    /// `A⁺y` for a `y` of length `self.rows(k)`.
    fn pinv(self, k: usize, y: &[f64]) -> Vec<f64> {
        match self {
            _ if k == 0 => Vec::new(),
            MatrixStrategyKind::Hierarchical => hierarchical_pinv(k, y),
            MatrixStrategyKind::Wavelet => wavelet_pinv(k, y),
        }
    }
}

/// Where each level of the clipped dyadic tree over `k` cells starts in
/// a node-indexed array, root level first and leaves last: level `j`
/// has width `n >> j` and holds its `k.div_ceil(n >> j)` nodes left to
/// right. The final entry is the node count. Node `i` of level `j` has
/// its children at `start[j + 1] + 2i` and, if it is below
/// `start[j + 2]`, the next index.
fn level_starts(k: usize) -> Vec<usize> {
    let mut start = vec![0];
    let mut s = k.next_power_of_two();
    loop {
        start.push(start[start.len() - 1] + k.div_ceil(s));
        if s == 1 {
            return start;
        }
        s /= 2;
    }
}

/// The children of node `p` on level `j`, the second one optional.
fn children(start: &[usize], j: usize, p: usize) -> (usize, Option<usize>) {
    let c = start[j + 1] + 2 * (p - start[j]);
    (c, (c + 1 < start[j + 2]).then_some(c + 1))
}

/// `A⁺y` for the hierarchical strategy, whose row order is the node
/// order of [`level_starts`], so `y[p]` is node `p`'s measured sum.
fn hierarchical_pinv(k: usize, y: &[f64]) -> Vec<f64> {
    let start = level_starts(k);
    let leaves = start.len() - 2;
    // Every node's own row contributes (1, y).
    let mut a = vec![1.0; y.len()];
    let mut b = y.to_vec();
    for j in (0..leaves).rev() {
        for p in start[j]..start[j + 1] {
            let (a_c, b_c) = match children(&start, j, p) {
                (c, None) => (a[c], b[c]),
                (c1, Some(c2)) => {
                    // The two children's sums are independent estimates
                    // of the node's two halves.
                    let (a1, a2) = (a[c1], a[c2]);
                    let a_c = a1 * a2 / (a1 + a2);
                    (a_c, a_c * (b[c1] / a1 + b[c2] / a2))
                }
            };
            a[p] += a_c;
            b[p] += b_c;
        }
    }
    // Downward, `b` is overwritten by the fitted sums.
    b[0] /= a[0];
    for j in 0..leaves {
        for p in start[j]..start[j + 1] {
            let s = b[p];
            match children(&start, j, p) {
                (c, None) => b[c] = s,
                (c1, Some(c2)) => {
                    // The discrepancy splits in proportion to the
                    // children's variances 1/a.
                    let (m1, m2) = (b[c1] / a[c1], b[c2] / a[c2]);
                    let s1 = m1 + (s - m1 - m2) * a[c2] / (a[c1] + a[c2]);
                    b[c1] = s1;
                    b[c2] = s - s1;
                }
            }
        }
    }
    b.split_off(start[leaves])
}

/// The quadratic of a two-child wavelet node in its sum `S` and
/// difference `D = S₁ − S₂`, from the children's `(a, b)` and the node's
/// difference row `d`: `(Q_SS, Q_SD, Q_DD, g_S, g_D)`.
fn wavelet_node(a1: f64, b1: f64, a2: f64, b2: f64, d: f64) -> (f64, f64, f64, f64, f64) {
    let q_ss = (a1 + a2) / 4.0;
    (
        q_ss,
        (a1 - a2) / 4.0,
        q_ss + 1.0,
        (b1 + b2) / 2.0,
        (b1 - b2) / 2.0 + d,
    )
}

/// `A⁺y` for the wavelet strategy: `y[0]` is the total row and
/// `y[1 + p]` the row of inner node `p` in [`level_starts`] order.
fn wavelet_pinv(k: usize, y: &[f64]) -> Vec<f64> {
    let start = level_starts(k);
    let leaves = start.len() - 2;
    // Leaves carry no row of their own.
    let mut a = vec![0.0; start[leaves + 1]];
    let mut b = vec![0.0; start[leaves + 1]];
    for j in (0..leaves).rev() {
        for p in start[j]..start[j + 1] {
            let d = y[1 + p];
            (a[p], b[p]) = match children(&start, j, p) {
                // One child: the row is the node sum.
                (c, None) => (a[c] + 1.0, b[c] + d),
                (c1, Some(c2)) => {
                    // Eliminate D, keeping the evidence on S.
                    let (q_ss, q_sd, q_dd, g_s, g_d) = wavelet_node(a[c1], b[c1], a[c2], b[c2], d);
                    (q_ss - q_sd * q_sd / q_dd, g_s - q_sd * g_d / q_dd)
                }
            };
        }
    }
    a[0] += 1.0;
    b[0] += y[0];
    // Downward, `b` is overwritten by the fitted sums.
    b[0] /= a[0];
    for j in 0..leaves {
        for p in start[j]..start[j + 1] {
            let s = b[p];
            match children(&start, j, p) {
                (c, None) => b[c] = s,
                (c1, Some(c2)) => {
                    let (_, q_sd, q_dd, _, g_d) =
                        wavelet_node(a[c1], b[c1], a[c2], b[c2], y[1 + p]);
                    let diff = (g_d - q_sd * s) / q_dd;
                    b[c1] = (s + diff) / 2.0;
                    b[c2] = (s - diff) / 2.0;
                }
            }
        }
    }
    b.split_off(start[leaves])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{hierarchical_strategy, wavelet_strategy};
    use crate::MatrixMechanism;
    use blowfish_core::Workload;
    use blowfish_linalg::{Matrix, SparseMatrix, TripletBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ALL: [MatrixStrategyKind; 2] = [
        MatrixStrategyKind::Hierarchical,
        MatrixStrategyKind::Wavelet,
    ];

    /// The levels of a dyadic strategy over `k` cells: block widths from
    /// the padded domain `k.next_power_of_two()` down to `smallest`.
    fn dyadic_sizes(k: usize, smallest: usize) -> impl Iterator<Item = usize> {
        let padded = k.next_power_of_two();
        std::iter::successors((padded >= smallest).then_some(padded), move |&s| {
            (s > smallest).then_some(s / 2)
        })
    }

    /// The hierarchical strategy in CSR form, one row per tree node.
    fn hierarchical_strategy_sparse(k: usize) -> SparseMatrix {
        let rows: usize = dyadic_sizes(k, 1).map(|s| k.div_ceil(s)).sum();
        let mut b = TripletBuilder::new(rows, k);
        let mut r = 0;
        for size in dyadic_sizes(k, 1) {
            for lo in (0..k).step_by(size) {
                for c in lo..(lo + size).min(k) {
                    b.push(r, c, 1.0);
                }
                r += 1;
            }
        }
        b.build()
    }

    /// The wavelet strategy in CSR form: the total row, then one
    /// `+1 … −1` row per node of every level of width ≥ 2.
    fn wavelet_strategy_sparse(k: usize) -> SparseMatrix {
        let rows = 1 + dyadic_sizes(k, 2).map(|s| k.div_ceil(s)).sum::<usize>();
        let mut b = TripletBuilder::new(rows, k);
        for c in 0..k {
            b.push(0, c, 1.0);
        }
        let mut r = 1;
        for size in dyadic_sizes(k, 2) {
            for lo in (0..k).step_by(size) {
                let (mid, hi) = ((lo + size / 2).min(k), (lo + size).min(k));
                for c in lo..hi {
                    b.push(r, c, if c < mid { 1.0 } else { -1.0 });
                }
                r += 1;
            }
        }
        b.build()
    }

    fn sparse_strategy(kind: MatrixStrategyKind, k: usize) -> SparseMatrix {
        match kind {
            MatrixStrategyKind::Hierarchical => hierarchical_strategy_sparse(k),
            MatrixStrategyKind::Wavelet => wavelet_strategy_sparse(k),
        }
    }

    fn dense_strategy(kind: MatrixStrategyKind, k: usize) -> Matrix {
        match kind {
            MatrixStrategyKind::Hierarchical => hierarchical_strategy(k),
            MatrixStrategyKind::Wavelet => wavelet_strategy(k),
        }
    }

    fn max_abs(v: &[f64]) -> f64 {
        v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    #[test]
    fn sparse_strategies_match_dense_row_for_row() {
        // The CSR builders, and the row count and sensitivity the tree
        // solve draws its noise from, all match the dense strategies.
        for k in [
            1, 2, 3, 5, 6, 7, 8, 13, 16, 21, 32, 37, 100, 129, 255, 257, 513,
        ] {
            for kind in ALL {
                let dense = dense_strategy(kind, k);
                let sparse = sparse_strategy(kind, k);
                assert_eq!(sparse.rows(), dense.rows(), "{kind:?} rows at k={k}");
                assert!(
                    sparse.to_dense().approx_eq(&dense, 0.0),
                    "{kind:?} mismatch at k={k}"
                );
                assert_eq!(kind.rows(k), dense.rows(), "{kind:?} k={k}");
                assert_eq!(kind.sensitivity(k), dense.max_col_l1(), "{kind:?} k={k}");
            }
        }
    }

    #[test]
    fn hierarchical_sparse_is_k_log_k() {
        let k = 1024;
        let h = hierarchical_strategy_sparse(k);
        // Each of the k columns appears once per level: height = log2(k)+1.
        assert_eq!(h.nnz(), k * 11);
        let col_sums = h.matvec_transpose(&vec![1.0; h.rows()]).unwrap();
        assert!(col_sums.iter().all(|&c| c == 11.0));
        assert_eq!(MatrixStrategyKind::Hierarchical.sensitivity(k), 11.0);
        assert_eq!(MatrixStrategyKind::Hierarchical.rows(k), 2 * k - 1);
    }

    #[test]
    fn sparse_release_matches_dense_release_from_equal_seeds() {
        // The released domain estimate equals the dense reference
        // mechanism's histogram release (W = I) from the same seed.
        let eps = Epsilon::new(0.7).unwrap();
        for k in [8usize, 16, 30] {
            let x: Vec<f64> = (0..k).map(|i| (i * 3 % 7) as f64).collect();
            for kind in ALL {
                let dense = MatrixMechanism::new(Matrix::identity(k), dense_strategy(kind, k))
                    .unwrap()
                    .run(&x, eps, &mut StdRng::seed_from_u64(42))
                    .unwrap();
                let xhat = kind.reconstruct(&x, eps, &mut StdRng::seed_from_u64(42));
                assert_eq!(xhat.len(), k);
                for (d, s) in dense.iter().zip(&xhat) {
                    assert!(
                        (d - s).abs() <= 1e-9 * (1.0 + d.abs()),
                        "{kind:?} k={k}: {d} vs {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn reconstruct_matches_run_under_the_workload() {
        // W x̂ from reconstruct() equals the dense mechanism's run() under
        // W from the same seed: the contract that lets `mm-range-*` serve
        // answers from the domain estimate.
        let k = 32usize;
        let eps = Epsilon::new(1.3).unwrap();
        let w = Workload::all_ranges_1d(k);
        let x: Vec<f64> = (0..k).map(|i| (i * 2 % 9) as f64).collect();
        for kind in ALL {
            let run = MatrixMechanism::new(w.to_dense_matrix(), dense_strategy(kind, k))
                .unwrap()
                .run(&x, eps, &mut StdRng::seed_from_u64(5))
                .unwrap();
            let xhat = kind.reconstruct(&x, eps, &mut StdRng::seed_from_u64(5));
            let via_xhat = w.answer(&xhat).unwrap();
            assert_eq!(via_xhat.len(), run.len());
            for (a, b) in run.iter().zip(&via_xhat) {
                assert!(
                    (a - b).abs() <= 1e-12 * (1.0 + a.abs()),
                    "{kind:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn normal_equations_certificate() {
        // A⁺y is the least-squares solution exactly when the residual is
        // orthogonal to A's columns: ‖Aᵀ(A·A⁺y − y)‖∞ ≈ 0. And A has
        // full column rank, so A⁺ inverts it on its range: A⁺(Av) = v.
        let mut rng = StdRng::seed_from_u64(0xCE27);
        let sizes = (1..=1024).chain([2047, 2048, 2049, 4095, 4096, 65_535, 65_536]);
        for k in sizes {
            for kind in ALL {
                let a = sparse_strategy(kind, k);
                let y: Vec<f64> = (0..a.rows()).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let x = kind.pinv(k, &y);
                let mut r = a.matvec(&x).unwrap();
                for (ri, yi) in r.iter_mut().zip(&y) {
                    *ri -= yi;
                }
                let residual = max_abs(&a.matvec_transpose(&r).unwrap());
                let aty = max_abs(&a.matvec_transpose(&y).unwrap());
                assert!(
                    residual <= 1e-9 * (1.0 + aty),
                    "{kind:?} k={k}: residual {residual:e}"
                );

                let v: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let back = kind.pinv(k, &a.matvec(&v).unwrap());
                for (b, vi) in back.iter().zip(&v) {
                    assert!((b - vi).abs() <= 1e-9, "{kind:?} k={k}: {b} vs {vi}");
                }
            }
        }
    }
}
