//! Sparse Cholesky factorization: factor the Gram matrix once, serve
//! releases forever with two O(nnz(L)) triangular solves.
//!
//! The matrix mechanism is a plan-once/serve-many system — the strategy
//! `A` is fixed at plan time, so the normal-equations operator `AᵀA` is
//! too. This module factors `G = L Lᵀ` **once** and turns each release
//! into a forward solve and a back solve, in place.
//!
//! # Natural order
//!
//! Fill-in is decided entirely by the elimination order, and the Gram
//! matrices the planner factors arrive in a good one: the identity gram
//! is diagonal, small direct grams are dense anyway, and a
//! [`dyadic_haar_basis`] rotation of a hierarchical or wavelet strategy
//! has tree-ancestor sparsity that is chordal with *zero* fill in its
//! leaf-first column order. So [`SparseCholesky::factor`] eliminates in
//! the matrix's given order and never permutes. It reads only the lower
//! triangle, so the planner hands it
//! [`SparseMatrix::gram_lower`](crate::SparseMatrix::gram_lower), half
//! the gram.
//!
//! # The Haar rotation
//!
//! [`haar_rotate`] forms the rotated strategy `B = AQ` in closed form,
//! row by row, instead of as a sparse product with the basis: a dyadic
//! row is a few runs of equal values, every tree node inside one run has
//! an exactly-zero coefficient, and every other coefficient is a scaled
//! difference of two half-sums — exact for integer rows, so no rounding
//! residue is ever stored.
//!
//! # Symbolic and numeric passes
//!
//! The symbolic pass computes the elimination tree (CSparse `cs_etree`
//! with path compression) and per-column nonzero counts of `L` in one
//! O(nnz·α) sweep, optionally aborting early once predicted fill exceeds
//! a cap (so a structurally dense Gram costs O(cap), not O(n²), to
//! reject). The numeric pass is up-looking (CSparse `cs_chol`: `ereach`
//! row patterns in topological order, dense scatter, per-column write
//! cursors) into the exact pattern the symbolic pass sized.

use crate::sparse::{SparseMatrix, TripletBuilder};
use crate::LinalgError;

const NONE: usize = usize::MAX;

/// Elimination tree and CSC column pointers of `L` for `g` in natural
/// order. With `fill_cap = Some(cap)`, aborts with
/// [`LinalgError::FillBudgetExceeded`] as soon as the running nnz(L)
/// passes `cap`.
fn symbolic(
    g: &SparseMatrix,
    fill_cap: Option<usize>,
) -> Result<(Vec<usize>, Vec<usize>), LinalgError> {
    let n = g.rows();
    // Phase 1 — elimination tree (CSparse `cs_etree`): walk every lower
    // entry up the partially built forest with **path compression** (the
    // `ancestor` shortcuts), which finds parents in near-linear time but
    // visits a compressed path, not the true one.
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for (mut j, _) in g.row(k) {
            if j >= k {
                break; // columns ascend: the rest is diagonal or upper
            }
            while j != NONE && j < k {
                let next = ancestor[j];
                ancestor[j] = k;
                if next == NONE {
                    parent[j] = k;
                }
                j = next;
            }
        }
    }
    // Phase 2 — column counts via true-parent `ereach` walks: for row k,
    // the columns of L(k, ·) are exactly the nodes on the (final-)etree
    // paths from each lower entry up to k, each visited once thanks to the
    // per-row marks. This is the same pattern the numeric pass will fill
    // in, entry for entry.
    let mut mark = vec![NONE; n];
    let mut count = vec![1usize; n]; // diagonal of every column
    let mut nnz_total = n;
    for k in 0..n {
        mark[k] = k;
        for (mut j, _) in g.row(k) {
            if j >= k {
                break;
            }
            // (k is an etree ancestor of every lower entry of row k, so
            // the walk always terminates at a marked node; the NONE guard
            // only matters for non-symmetric misuse.)
            while j != NONE && mark[j] != k {
                mark[j] = k;
                count[j] += 1;
                nnz_total += 1;
                if let Some(cap) = fill_cap {
                    if nnz_total > cap {
                        return Err(LinalgError::FillBudgetExceeded {
                            predicted_at_least: nnz_total,
                            cap,
                        });
                    }
                }
                j = parent[j];
            }
        }
    }
    let mut colptr = Vec::with_capacity(n + 1);
    colptr.push(0usize);
    let mut acc = 0usize;
    for &c in &count {
        acc += c;
        colptr.push(acc);
    }
    Ok((parent, colptr))
}

/// A numeric sparse Cholesky factor `G = L Lᵀ` in CSC layout (diagonal
/// entry first in every column, row indices ascending), with
/// allocation-free in-place triangular solves.
#[derive(Clone, Debug)]
pub struct SparseCholesky {
    n: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    values: Vec<f64>,
}

impl SparseCholesky {
    /// Factors the SPD matrix `g` in natural order.
    ///
    /// Only the lower triangle of `g` is read, diagonal included: the
    /// entries `(i, j)` with `j ≤ i`. A full symmetric matrix and its
    /// lower triangle alone (such as [`SparseMatrix::gram_lower`]) give
    /// the same factor, bit for bit; the upper triangle is never checked
    /// against it.
    ///
    /// With `fill_cap = Some(cap)`, the symbolic pass aborts with
    /// [`LinalgError::FillBudgetExceeded`] as soon as the running nnz(L)
    /// passes `cap` — O(cap) work to reject a dense factor, never O(n²),
    /// and no numeric work at all. A non-SPD pivot fails with
    /// [`LinalgError::NotPositiveDefinite`].
    pub fn factor(g: &SparseMatrix, fill_cap: Option<usize>) -> Result<Self, LinalgError> {
        let n = g.rows();
        if g.cols() != n {
            return Err(LinalgError::NotSquare {
                rows: n,
                cols: g.cols(),
            });
        }
        let (parent, colptr) = symbolic(g, fill_cap)?;
        let nnz = colptr[n];
        let mut rowind = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        // Per-column write cursor: next free slot past the diagonal.
        let mut cursor: Vec<usize> = (0..n).map(|j| colptr[j] + 1).collect();
        let mut x = vec![0.0f64; n]; // dense scatter of row k
        let mut mark = vec![NONE; n];
        let mut stack = vec![0usize; n]; // ereach output (topological)
        let mut path = vec![0usize; n]; // one tree path, before reversal

        for k in 0..n {
            // ereach(k): union of tree paths from row k's lower entries
            // up to (excl.) k, emitted in topological order.
            let mut top = n;
            mark[k] = k;
            x[k] = 0.0;
            for (j, v) in g.row(k) {
                if j > k {
                    break;
                }
                x[j] = v;
                let mut len = 0usize;
                let mut i = j;
                while i != k && mark[i] != k {
                    path[len] = i;
                    len += 1;
                    mark[i] = k;
                    i = parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    stack[top] = path[len];
                }
            }
            let mut d = x[k];
            x[k] = 0.0;
            for &j in &stack[top..n] {
                let lkj = x[j] / values[colptr[j]];
                x[j] = 0.0;
                for p in colptr[j] + 1..cursor[j] {
                    x[rowind[p]] -= values[p] * lkj;
                }
                d -= lkj * lkj;
                let p = cursor[j];
                cursor[j] += 1;
                rowind[p] = k;
                values[p] = lkj;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: k });
            }
            rowind[colptr[k]] = k;
            values[colptr[k]] = d.sqrt();
        }
        Ok(SparseCholesky {
            n,
            colptr,
            rowind,
            values,
        })
    }

    /// Nonzeros stored in `L` (including the diagonal).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Solves `G x = b`, allocating the result; the hot path is
    /// [`SparseCholesky::solve_in_place`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.n, 1),
                got: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves `G v ← v` in place with zero allocations: forward solve
    /// `L`, then back solve `Lᵀ`. `v` must have length `n`.
    pub fn solve_in_place(&self, v: &mut [f64]) {
        debug_assert_eq!(v.len(), self.n);
        // Forward: L y = b. Diagonal-first CSC makes both sweeps a single
        // pass over the stored entries.
        for j in 0..self.n {
            let yj = v[j] / self.values[self.colptr[j]];
            v[j] = yj;
            for p in self.colptr[j] + 1..self.colptr[j + 1] {
                v[self.rowind[p]] -= self.values[p] * yj;
            }
        }
        // Backward: Lᵀ z = y.
        for j in (0..self.n).rev() {
            let mut zj = v[j];
            for p in self.colptr[j] + 1..self.colptr[j + 1] {
                zj -= self.values[p] * v[self.rowind[p]];
            }
            v[j] = zj / self.values[self.colptr[j]];
        }
    }

    /// The factor `L` as a CSR matrix (`L Lᵀ = G`) — for reconstruction
    /// tests and inspection.
    pub fn l_matrix(&self) -> SparseMatrix {
        let mut b = TripletBuilder::new(self.n, self.n);
        for j in 0..self.n {
            for p in self.colptr[j]..self.colptr[j + 1] {
                b.push(self.rowind[p], j, self.values[p]);
            }
        }
        b.build()
    }
}

/// One level of the dyadic tree over `k` leaves: the `count` nodes of
/// width `size` whose two clipped children are both non-empty. Node `j`
/// spans `j·size .. min((j + 1)·size, k)` and splits at `j·size + size/2`;
/// only the last node of a level can be clipped, so every other node has
/// `n_L = n_R = size/2`.
struct HaarLevel {
    size: usize,
    /// Basis column of node 0; node `j` is column `offset + j`.
    offset: usize,
    count: usize,
    /// `1/√(n_L·n_R·(n_L + n_R))` for a full node and for the last node.
    scale_full: f64,
    scale_last: f64,
}

impl HaarLevel {
    /// `(lo, mid, hi, n_L, n_R, scale)` of node `j`.
    fn node(&self, j: usize, k: usize) -> (usize, usize, usize, f64, f64, f64) {
        let lo = j * self.size;
        let mid = lo + self.size / 2;
        let hi = (lo + self.size).min(k);
        let scale = if j + 1 == self.count {
            self.scale_last
        } else {
            self.scale_full
        };
        (lo, mid, hi, (mid - lo) as f64, (hi - mid) as f64, scale)
    }
}

/// The node enumeration shared by [`dyadic_haar_basis`] and
/// [`haar_rotate`]: the levels of the dyadic tree over `k ≥ 1` leaves,
/// deepest first, each level's nodes left to right — the basis's column
/// order, which makes natural elimination leaf-first. A block of width
/// `size` starting at `lo` is a node iff `lo + size/2 < k`, so each level
/// holds `⌈(k − size/2) / size⌉` nodes, `k − 1` in all.
fn haar_levels(k: usize) -> Vec<HaarLevel> {
    let scale = |nl: usize, nr: usize| {
        let (nl, nr) = (nl as f64, nr as f64);
        1.0 / (nl * nr * (nl + nr)).sqrt()
    };
    let mut levels = Vec::new();
    let mut offset = 0;
    let mut size = 2;
    while size <= k.next_power_of_two() {
        let half = size / 2;
        let count = (k - half).div_ceil(size);
        let last_hi = (count * size).min(k);
        levels.push(HaarLevel {
            size,
            offset,
            count,
            scale_full: scale(half, half),
            scale_last: scale(half, last_hi - (count - 1) * size - half),
        });
        offset += count;
        size *= 2;
    }
    debug_assert_eq!(offset, k - 1, "a binary tree over k leaves");
    levels
}

/// The orthonormal **unbalanced dyadic Haar basis** `Q` over a domain of
/// size `k` (any `k ≥ 1`, clipped from the next power of two), as a
/// `k × k` CSR matrix whose columns are the basis vectors.
///
/// Why it matters here: the Gram matrix `AᵀA` of a hierarchical or
/// wavelet strategy is structurally **dense** (~2k² nonzeros — every
/// pair of leaves shares a tree ancestor), so no permutation makes it
/// directly factorable at k = 65 536. But under the congruence
/// `AᵀA x = b  ⇔  (AQ)ᵀ(AQ) z = Qᵀb, x = Qz`, the rotated strategy
/// `B = AQ` ([`haar_rotate`]) has ≤ log₂k + 1 nonzeros per row — a
/// dyadic row of `A` has nonzero inner product only with the Haar vectors
/// of its own ancestor tree nodes (every other wavelet sums to zero
/// across the row's support) — and `BᵀB` has tree-ancestor-pair sparsity
/// (O(k log k) nonzeros). That pattern is **chordal**: columns are
/// emitted deepest-first (the total column last), which is a perfect
/// elimination order, so the natural-order Cholesky factor has *zero
/// fill*.
///
/// Columns are orthonormal (`QᵀQ = I`), so the congruence preserves
/// conditioning exactly: internal node `t` with clipped child supports
/// `L`, `R` contributes `(|R|·1_L − |L|·1_R) / √(|L||R|(|L|+|R|))`, and
/// the final column is `1/√k`. Row `i` holds one entry per node above
/// leaf `i`, deepest first, then the total column, so the CSR arrays are
/// written in order at their exact final size.
pub fn dyadic_haar_basis(k: usize) -> SparseMatrix {
    assert!(k >= 1, "domain must be non-empty");
    let levels = haar_levels(k);
    // Each level's nodes cover a prefix of the leaves; every leaf also
    // meets the total column.
    let nnz = k + levels
        .iter()
        .map(|l| (l.count * l.size).min(k))
        .sum::<usize>();
    let mut indptr = Vec::with_capacity(k + 1);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    indptr.push(0);
    let total = 1.0 / (k as f64).sqrt();
    for row in 0..k {
        for level in &levels {
            let j = row / level.size;
            if j < level.count {
                let (_, mid, _, nl, nr, scale) = level.node(j, k);
                indices.push(level.offset + j);
                values.push(if row < mid { nr * scale } else { -(nl * scale) });
            }
        }
        indices.push(k - 1);
        values.push(total);
        indptr.push(indices.len());
    }
    debug_assert_eq!(indices.len(), nnz);
    SparseMatrix::from_csr(k, k, indptr, indices, values)
        .expect("the Haar basis is written in canonical CSR order")
}

/// One row of a matrix as maximal runs of equal values over `0..k`, gaps
/// between stored entries included as runs of `0.0`, with the prefix sum
/// at each run start. Reused across rows.
#[derive(Default)]
struct Runs {
    starts: Vec<usize>,
    values: Vec<f64>,
    prefix: Vec<f64>,
}

impl Runs {
    fn load(&mut self, row: impl Iterator<Item = (usize, f64)>, k: usize) {
        self.starts.clear();
        self.values.clear();
        self.prefix.clear();
        let mut pos = 0;
        for (c, v) in row {
            if c > pos {
                self.push(pos, 0.0);
            }
            self.push(c, v);
            pos = c + 1;
        }
        if pos < k {
            self.push(pos, 0.0);
        }
        let mut acc = 0.0;
        for r in 0..self.starts.len() {
            self.prefix.push(acc);
            let end = self.starts.get(r + 1).copied().unwrap_or(k);
            acc += (end - self.starts[r]) as f64 * self.values[r];
        }
    }

    fn push(&mut self, start: usize, value: f64) {
        // Runs are contiguous, so an equal value extends the last run.
        if self.values.last() != Some(&value) {
            self.starts.push(start);
            self.values.push(value);
        }
    }

    /// Positions `p` with `x[p − 1] ≠ x[p]`, ascending.
    fn boundaries(&self) -> &[usize] {
        &self.starts[1..]
    }

    /// `Σ_{i < q} x[i]`, for `q ≤ k`. `run` is a cursor that only moves
    /// forward, so positions asked in ascending order cost O(runs) in all.
    fn prefix_sum(&self, q: usize, run: &mut usize) -> f64 {
        while self.starts.get(*run + 1).is_some_and(|&s| s <= q) {
            *run += 1;
        }
        let r = *run;
        self.prefix[r] + (q - self.starts[r]) as f64 * self.values[r]
    }
}

/// The strategy rotated into the [`dyadic_haar_basis`]: `B = A·Q`,
/// computed in closed form one row at a time, without forming `Q`.
///
/// Row `x` of `A` is read as runs of equal values. Coefficient `t` of a
/// node with halves `L`, `R` is `x·q_t = scale·(n_R·S_L − n_L·S_R)`, with
/// `S_L`, `S_R` the half-sums of `x`. A node inside one run has
/// `S_L = n_L·v` and `S_R = n_R·v`, so its coefficient is exactly zero,
/// and so is every coefficient in its subtree: the walk visits only the
/// nodes that straddle a run boundary, deepest level first, which is the
/// basis's column order, so each row is written sorted. The half-sums
/// come from prefix sums over the runs, so for an integer-valued row
/// `n_R·S_L − n_L·S_R` is computed exactly and a coefficient that is
/// zero in exact arithmetic is never stored — no rounding residue to
/// prune. The total column is `S/√k`. Cost per row: O(nnz(row) +
/// runs · log₂k), against a generic sparse product's O(nnz(row) · log₂k)
/// multiply-adds.
pub fn haar_rotate(a: &SparseMatrix) -> SparseMatrix {
    let k = a.cols();
    assert!(k >= 1, "domain must be non-empty");
    let levels = haar_levels(k);
    let total = 1.0 / (k as f64).sqrt();
    let mut indptr = Vec::with_capacity(a.rows() + 1);
    let mut indices = Vec::new();
    let mut values = Vec::new();
    indptr.push(0);
    let mut runs = Runs::default();
    for i in 0..a.rows() {
        runs.load(a.row(i), k);
        for level in &levels {
            // Nodes, and their lo < mid < hi, ascend within a level.
            let mut run = 0;
            let mut visited = usize::MAX;
            for &p in runs.boundaries() {
                if p % level.size == 0 {
                    continue; // on a node edge, inside none of this level
                }
                let j = p / level.size;
                if j >= level.count {
                    break; // boundaries ascend: no node further right
                }
                if j == visited {
                    continue;
                }
                visited = j;
                let (lo, mid, hi, nl, nr, scale) = level.node(j, k);
                let at_lo = runs.prefix_sum(lo, &mut run);
                let at_mid = runs.prefix_sum(mid, &mut run);
                let (sl, sr) = (at_mid - at_lo, runs.prefix_sum(hi, &mut run) - at_mid);
                let d = nr * sl - nl * sr;
                if d != 0.0 {
                    indices.push(level.offset + j);
                    values.push(scale * d);
                }
            }
        }
        let sum = runs.prefix_sum(k, &mut 0);
        if sum != 0.0 {
            indices.push(k - 1);
            values.push(total * sum);
        }
        indptr.push(indices.len());
    }
    SparseMatrix::from_csr(a.rows(), k, indptr, indices, values)
        .expect("the rotation is written in canonical CSR order")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;
    use crate::dense::Matrix;

    /// A small SPD matrix with a 2-D-grid-like sparsity pattern.
    fn grid_spd(side: usize) -> SparseMatrix {
        let n = side * side;
        let mut b = TripletBuilder::new(n, n);
        for r in 0..side {
            for c in 0..side {
                let i = r * side + c;
                b.push(i, i, 4.5);
                if c + 1 < side {
                    b.push(i, i + 1, -1.0);
                    b.push(i + 1, i, -1.0);
                }
                if r + 1 < side {
                    b.push(i, i + side, -1.0);
                    b.push(i + side, i, -1.0);
                }
            }
        }
        b.build()
    }

    /// Dense binary hierarchical strategy (mirrors
    /// `blowfish-mechanisms`), for rotation tests without a cross-crate
    /// dev dependency.
    fn hierarchical_dense(k: usize) -> Matrix {
        let padded = k.next_power_of_two();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut size = padded;
        loop {
            let mut start = 0;
            while start < padded {
                let mut row = vec![0.0; k];
                row[start.min(k)..(start + size).min(k)].fill(1.0);
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
        Matrix::from_rows(&rows).unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn factor_and_solve_match_dense_cholesky() {
        let g = grid_spd(5);
        let n = g.rows();
        let chol = SparseCholesky::factor(&g, None).unwrap();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 2.0).collect();
        let x = chol.solve(&b).unwrap();
        let dense = Cholesky::factor(&g.to_dense()).unwrap();
        let x_ref = dense.solve(&b).unwrap();
        assert_close(&x, &x_ref, 1e-9);
    }

    #[test]
    fn llt_reconstructs_permuted_input() {
        // The factor is in natural order, so `L Lᵀ` reconstructs the
        // input itself, entry for entry.
        let g = grid_spd(4);
        let n = g.rows();
        let chol = SparseCholesky::factor(&g, None).unwrap();
        let l = chol.l_matrix().to_dense();
        let llt = l.matmul(&l.transpose()).unwrap();
        for i in 0..n {
            for j in 0..n {
                let expected = g.get(i, j);
                assert!(
                    (llt[(i, j)] - expected).abs() < 1e-10,
                    "({i},{j}): {} vs {expected}",
                    llt[(i, j)]
                );
            }
        }
    }

    #[test]
    fn fill_cap_aborts_early_and_is_typed() {
        let n = 32;
        let mut b = TripletBuilder::new(n, n);
        for i in 0..n {
            for j in 0..n {
                b.push(i, j, if i == j { n as f64 } else { -0.5 });
            }
        }
        let g = b.build();
        let err = SparseCholesky::factor(&g, Some(40)).unwrap_err();
        assert!(matches!(
            err,
            LinalgError::FillBudgetExceeded { cap: 40, .. }
        ));
        // Without the cap the same matrix factors fine.
        assert!(SparseCholesky::factor(&g, None).is_ok());
    }

    #[test]
    fn non_positive_definite_pivot_is_typed() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 1, 2.0);
        b.push(1, 0, 2.0);
        b.push(1, 1, 1.0);
        let g = b.build();
        assert!(matches!(
            SparseCholesky::factor(&g, None),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn haar_basis_is_orthonormal() {
        for k in [1usize, 2, 3, 6, 8, 13, 32, 100] {
            let q = dyadic_haar_basis(k);
            assert_eq!((q.rows(), q.cols()), (k, k));
            let qtq = q.transpose().matmul(&q).unwrap().to_dense();
            for i in 0..k {
                for j in 0..k {
                    let expected = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (qtq[(i, j)] - expected).abs() < 1e-12,
                        "k={k} ({i},{j}): {}",
                        qtq[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn rotated_hierarchical_gram_factors_with_zero_fill() {
        // The point of the Haar congruence: gram(A·Q) is chordal in its
        // emitted order — natural-order symbolic analysis predicts zero
        // fill, while the unrotated gram is structurally dense.
        for k in [16usize, 48, 64] {
            let a = SparseMatrix::from_dense(&hierarchical_dense(k));
            let q = dyadic_haar_basis(k);
            let bq = a.matmul(&q).unwrap();
            let gram = bq.transpose().matmul(&bq).unwrap();
            let chol = SparseCholesky::factor(&gram, None).unwrap();
            let stored_lower = (gram.nnz() + k) / 2;
            // The stored gram may be *sparser* than the structural
            // ancestor-pair pattern (TripletBuilder drops exact-zero
            // cancellations), and those positions come back as "fill";
            // allow that sliver while still pinning the chordal story.
            assert!(
                chol.nnz() <= stored_lower + 2,
                "k={k}: natural order fills in ({} vs {stored_lower})",
                chol.nnz()
            );
            assert!(
                gram.nnz() < k * k / 2,
                "k={k}: rotated gram must be sparse, got {} nnz",
                gram.nnz()
            );
            // And the factor actually solves the rotated system.
            let b: Vec<f64> = (0..k).map(|i| (i as f64).cos()).collect();
            let z = chol.solve(&b).unwrap();
            let dense = Cholesky::factor(&gram.to_dense()).unwrap();
            assert_close(&z, &dense.solve(&b).unwrap(), 1e-8);
        }
    }

    #[test]
    fn solve_in_place_is_allocation_free_and_reusable() {
        let g = grid_spd(4);
        let n = g.rows();
        let chol = SparseCholesky::factor(&g, None).unwrap();
        let dense = Cholesky::factor(&g.to_dense()).unwrap();
        for round in 0..3 {
            let b: Vec<f64> = (0..n).map(|i| (i + round) as f64 * 0.1 + 1.0).collect();
            let mut v = b.clone();
            chol.solve_in_place(&mut v);
            assert_close(&v, &dense.solve(&b).unwrap(), 1e-9);
        }
    }
}
