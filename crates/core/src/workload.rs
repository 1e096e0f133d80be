//! Query workloads.
//!
//! A workload (Section 2) is a set of linear queries, i.e. a `q × k` matrix
//! `W`. This module provides the workloads the paper studies — the identity
//! `I_k`, the cumulative histogram `C_k` (Figure 1), the 1-D and
//! d-dimensional range workloads `R_k` / `R_{k^d}` (Section 5.1), one-way
//! marginals — plus random-range samplers for the Section 6 experiments and
//! closed-form Gram matrices `WᵀW` used by the Appendix-A lower bounds.

use rand::Rng;

use blowfish_linalg::Matrix;

use crate::domain::Domain;
use crate::query::LinearQuery;
use crate::CoreError;

/// A multidimensional range query given by inclusive corner coordinates
/// (`lo ≤ hi` per dimension) — the hypercube `q(l, r)` of Section 5.1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RangeQuery {
    /// Bottom-left corner (inclusive).
    pub lo: Vec<usize>,
    /// Top-right corner (inclusive).
    pub hi: Vec<usize>,
}

impl RangeQuery {
    /// Creates a range, validating `lo ≤ hi` within `domain`.
    pub fn new(domain: &Domain, lo: Vec<usize>, hi: Vec<usize>) -> Result<Self, CoreError> {
        RangeQuery::check(domain, &lo, &hi)?;
        Ok(RangeQuery { lo, hi })
    }

    /// The validation behind [`RangeQuery::new`], on borrowed bounds and
    /// without allocating: the dimension count first, then `lo ≤ hi <
    /// dim` per axis in order, so the first failing check names the
    /// error.
    pub fn check(domain: &Domain, lo: &[usize], hi: &[usize]) -> Result<(), CoreError> {
        if lo.len() != domain.num_dims() || hi.len() != domain.num_dims() {
            return Err(CoreError::DimensionMismatch {
                expected: domain.num_dims(),
                got: lo.len().max(hi.len()),
            });
        }
        for d in 0..domain.num_dims() {
            if lo[d] > hi[d] || hi[d] >= domain.dim(d) {
                return Err(CoreError::InvalidRange {
                    l: lo[d],
                    r: hi[d],
                    arity: domain.dim(d),
                });
            }
        }
        Ok(())
    }

    /// 1-D convenience constructor.
    pub fn one_dim(domain: &Domain, l: usize, r: usize) -> Result<Self, CoreError> {
        RangeQuery::new(domain, vec![l], vec![r])
    }

    /// Number of cells covered.
    pub fn volume(&self) -> usize {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| h - l + 1)
            .product()
    }

    /// Materializes the covered flat indices (row-major order).
    pub fn cells(&self, domain: &Domain) -> Result<Vec<usize>, CoreError> {
        RangeQuery::cells_in(domain, &self.lo, &self.hi)
    }

    /// [`RangeQuery::cells`] on borrowed bounds.
    pub fn cells_in(domain: &Domain, lo: &[usize], hi: &[usize]) -> Result<Vec<usize>, CoreError> {
        let d = domain.num_dims();
        let volume = lo.iter().zip(hi).map(|(&l, &h)| h - l + 1).product();
        let mut out = Vec::with_capacity(volume);
        let mut cur = lo.to_vec();
        loop {
            out.push(domain.flat_index(&cur)?);
            // Odometer increment over the box.
            let mut dim = d;
            loop {
                if dim == 0 {
                    return Ok(out);
                }
                dim -= 1;
                if cur[dim] < hi[dim] {
                    cur[dim] += 1;
                    break;
                }
                cur[dim] = lo[dim];
            }
        }
    }

    /// Converts to a sparse [`LinearQuery`] over the flat domain.
    pub fn to_linear_query(&self, domain: &Domain) -> Result<LinearQuery, CoreError> {
        LinearQuery::counting(domain.size(), &self.cells(domain)?)
    }
}

/// A workload of linear queries over a shared domain size.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    arity: usize,
    queries: Vec<LinearQuery>,
}

impl Workload {
    /// Wraps queries, checking they share the arity.
    pub fn new(arity: usize, queries: Vec<LinearQuery>) -> Result<Self, CoreError> {
        if queries.iter().any(|q| q.arity() != arity) {
            return Err(CoreError::QueryIndexOutOfRange { arity });
        }
        Ok(Workload { arity, queries })
    }

    /// The identity workload `I_k` (one point query per cell; the histogram
    /// task of Section 6).
    pub fn identity(k: usize) -> Self {
        let queries = (0..k)
            .map(|i| LinearQuery::point(k, i).expect("index in range"))
            .collect();
        Workload { arity: k, queries }
    }

    /// The cumulative-histogram workload `C_k` (Figure 1): query `i` is the
    /// prefix sum `Σ_{j ≤ i} x[j]`.
    pub fn cumulative(k: usize) -> Self {
        let queries = (0..k)
            .map(|i| LinearQuery::prefix(k, i).expect("index in range"))
            .collect();
        Workload { arity: k, queries }
    }

    /// All `k(k+1)/2` one-dimensional range queries `R_k`.
    pub fn all_ranges_1d(k: usize) -> Self {
        let mut queries = Vec::with_capacity(k * (k + 1) / 2);
        for l in 0..k {
            for r in l..k {
                queries.push(LinearQuery::range(k, l, r).expect("valid range"));
            }
        }
        Workload { arity: k, queries }
    }

    /// The dyadic range workload `D_k`: every aligned power-of-two
    /// interval of the (padded) binary partition tree, clipped to `[0,
    /// k)` and deduplicated — ~`2k − 1` queries with O(k log k) total
    /// support. Any range is a union of ≤ 2 log₂ k of these, so `D_k`
    /// is the sparse stand-in for the quadratic `R_k` at serving scale.
    pub fn dyadic_ranges_1d(k: usize) -> Self {
        let padded = k.next_power_of_two().max(1);
        let mut queries = Vec::new();
        // Clipping the padded tree to [0, k) can make a child coincide
        // with its parent; keep the first (coarsest) occurrence only.
        let mut seen = std::collections::HashSet::new();
        let mut size = padded;
        loop {
            let mut start = 0;
            while start < padded {
                let lo = start.min(k);
                let hi = (start + size).min(k);
                if lo < hi && seen.insert((lo, hi)) {
                    queries.push(LinearQuery::range(k, lo, hi - 1).expect("valid range"));
                }
                start += size;
            }
            if size == 1 {
                break;
            }
            size /= 2;
        }
        Workload { arity: k, queries }
    }

    /// All d-dimensional range queries `R_{k^d}` over `domain`. Beware: the
    /// count is `Π_d k_d(k_d+1)/2`; use only on small domains.
    #[cfg(test)]
    pub fn all_ranges(domain: &Domain) -> Result<Self, CoreError> {
        let specs = all_range_specs(domain);
        let queries = specs
            .iter()
            .map(|s| s.to_linear_query(domain))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Workload {
            arity: domain.size(),
            queries,
        })
    }

    /// `count` uniformly random range queries over `domain` (the Section-6
    /// experimental workloads use 10,000 of these).
    pub fn random_ranges<R: Rng + ?Sized>(
        domain: &Domain,
        count: usize,
        rng: &mut R,
    ) -> Result<(Self, Vec<RangeQuery>), CoreError> {
        let specs = random_range_specs(domain, count, rng);
        let queries = specs
            .iter()
            .map(|s| s.to_linear_query(domain))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((
            Workload {
                arity: domain.size(),
                queries,
            },
            specs,
        ))
    }

    /// One-way marginals: for each dimension `d` and value `v`, the count of
    /// records with coordinate `d` equal to `v`.
    pub fn one_way_marginals(domain: &Domain) -> Result<Self, CoreError> {
        let k = domain.size();
        let mut queries = Vec::new();
        for d in 0..domain.num_dims() {
            for v in 0..domain.dim(d) {
                let cells: Vec<usize> = domain
                    .iter()
                    .filter(|&i| domain.coords(i).expect("valid index")[d] == v)
                    .collect();
                queries.push(LinearQuery::counting(k, &cells)?);
            }
        }
        Ok(Workload { arity: k, queries })
    }

    /// Domain size the queries are defined over.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of queries `q`.
    #[inline]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The queries.
    #[inline]
    pub fn queries(&self) -> &[LinearQuery] {
        &self.queries
    }

    /// Evaluates every query against `x`.
    pub fn answer(&self, x: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.queries.iter().map(|q| q.answer(x)).collect()
    }

    /// Densifies into a `q × k` matrix.
    pub fn to_dense_matrix(&self) -> Matrix {
        let mut m = Matrix::zeros(self.queries.len(), self.arity);
        for (i, q) in self.queries.iter().enumerate() {
            for &(j, v) in q.entries() {
                m[(i, j)] = v;
            }
        }
        m
    }
}

/// The query shapes a mixed serving workload draws from. Every kind is
/// expressible as a (hyper-)rectangle, so samplers emit [`RangeQuery`]s
/// answerable through the O(1) prefix-sum serving path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// A single cell (`lo = hi` in every dimension) — the Hist task.
    Point,
    /// A uniformly random range (the Section-6 experimental workload).
    Range,
    /// A prefix box `[0, r]` per dimension (cumulative-histogram style).
    Prefix,
    /// A one-way marginal slice: one dimension pinned to a value, every
    /// other dimension spanning its full extent. Degenerates to a point
    /// query on 1-D domains.
    Marginal,
}

/// Relative weights of the four [`QueryKind`]s in a mixed workload.
/// Weights need not sum to 1 — only ratios matter — but must be
/// non-negative, finite, and not all zero.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryMix {
    /// Weight of [`QueryKind::Point`].
    pub point: f64,
    /// Weight of [`QueryKind::Range`].
    pub range: f64,
    /// Weight of [`QueryKind::Prefix`].
    pub prefix: f64,
    /// Weight of [`QueryKind::Marginal`].
    pub marginal: f64,
}

impl QueryMix {
    /// Only uniformly random ranges — the paper's experimental workload.
    pub fn ranges_only() -> Self {
        QueryMix {
            point: 0.0,
            range: 1.0,
            prefix: 0.0,
            marginal: 0.0,
        }
    }

    /// An even blend of all four kinds.
    pub fn balanced() -> Self {
        QueryMix {
            point: 1.0,
            range: 1.0,
            prefix: 1.0,
            marginal: 1.0,
        }
    }

    /// Validates the weights and returns their sum.
    fn total(&self) -> Result<f64, CoreError> {
        let weights = [self.point, self.range, self.prefix, self.marginal];
        if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(CoreError::InvalidCharge {
                reason: "query mix weights must be finite and non-negative",
            });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(CoreError::InvalidCharge {
                reason: "query mix weights must not all be zero",
            });
        }
        Ok(total)
    }

    /// Draws one query kind with probability proportional to its weight.
    pub fn sample_kind<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<QueryKind, CoreError> {
        let total = self.total()?;
        let mut u = rng.gen_range(0.0..total);
        for (kind, w) in [
            (QueryKind::Point, self.point),
            (QueryKind::Range, self.range),
            (QueryKind::Prefix, self.prefix),
            (QueryKind::Marginal, self.marginal),
        ] {
            if u < w {
                return Ok(kind);
            }
            u -= w;
        }
        // Float round-off at the very top of the cumulative sum: return
        // the last positively weighted kind.
        Ok(if self.marginal > 0.0 {
            QueryKind::Marginal
        } else if self.prefix > 0.0 {
            QueryKind::Prefix
        } else if self.range > 0.0 {
            QueryKind::Range
        } else {
            QueryKind::Point
        })
    }
}

/// Samples one query of the given kind over `domain`.
pub fn sample_query<R: Rng + ?Sized>(domain: &Domain, kind: QueryKind, rng: &mut R) -> RangeQuery {
    let d = domain.num_dims();
    let mut lo = Vec::with_capacity(d);
    let mut hi = Vec::with_capacity(d);
    match kind {
        QueryKind::Point => {
            for dim in 0..d {
                let v = rng.gen_range(0..domain.dim(dim));
                lo.push(v);
                hi.push(v);
            }
        }
        QueryKind::Range => {
            for dim in 0..d {
                let k = domain.dim(dim);
                let a = rng.gen_range(0..k);
                let b = rng.gen_range(0..k);
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
        }
        QueryKind::Prefix => {
            for dim in 0..d {
                lo.push(0);
                hi.push(rng.gen_range(0..domain.dim(dim)));
            }
        }
        QueryKind::Marginal => {
            let pinned = rng.gen_range(0..d);
            for dim in 0..d {
                if dim == pinned {
                    let v = rng.gen_range(0..domain.dim(dim));
                    lo.push(v);
                    hi.push(v);
                } else {
                    lo.push(0);
                    hi.push(domain.dim(dim) - 1);
                }
            }
        }
    }
    RangeQuery { lo, hi }
}

/// Samples `count` queries from a weighted [`QueryMix`] over `domain` —
/// the mixed per-request workloads the trace simulator replays against
/// the service layer.
pub fn sample_query_mix<R: Rng + ?Sized>(
    domain: &Domain,
    mix: &QueryMix,
    count: usize,
    rng: &mut R,
) -> Result<Vec<RangeQuery>, CoreError> {
    (0..count)
        .map(|_| Ok(sample_query(domain, mix.sample_kind(rng)?, rng)))
        .collect()
}

/// Enumerates all range specs over `domain`.
#[cfg(test)]
pub fn all_range_specs(domain: &Domain) -> Vec<RangeQuery> {
    let d = domain.num_dims();
    // Per-dimension list of (lo, hi) pairs; the workload is their product.
    let per_dim: Vec<Vec<(usize, usize)>> = (0..d)
        .map(|dim| {
            let k = domain.dim(dim);
            let mut v = Vec::with_capacity(k * (k + 1) / 2);
            for l in 0..k {
                for r in l..k {
                    v.push((l, r));
                }
            }
            v
        })
        .collect();
    let total: usize = per_dim.iter().map(Vec::len).product();
    let mut out = Vec::with_capacity(total);
    let mut idx = vec![0usize; d];
    loop {
        let lo: Vec<usize> = (0..d).map(|dim| per_dim[dim][idx[dim]].0).collect();
        let hi: Vec<usize> = (0..d).map(|dim| per_dim[dim][idx[dim]].1).collect();
        out.push(RangeQuery { lo, hi });
        // Odometer over per-dimension choices.
        let mut dim = d;
        loop {
            if dim == 0 {
                return out;
            }
            dim -= 1;
            idx[dim] += 1;
            if idx[dim] < per_dim[dim].len() {
                break;
            }
            idx[dim] = 0;
        }
    }
}

/// Samples `count` uniformly random ranges over `domain`: each endpoint pair
/// is drawn uniformly from the valid `(l ≤ r)` pairs per dimension.
pub fn random_range_specs<R: Rng + ?Sized>(
    domain: &Domain,
    count: usize,
    rng: &mut R,
) -> Vec<RangeQuery> {
    let d = domain.num_dims();
    (0..count)
        .map(|_| {
            let mut lo = Vec::with_capacity(d);
            let mut hi = Vec::with_capacity(d);
            for dim in 0..d {
                let k = domain.dim(dim);
                let a = rng.gen_range(0..k);
                let b = rng.gen_range(0..k);
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            RangeQuery { lo, hi }
        })
        .collect()
}

/// Closed-form Gram matrix `WᵀW` of the full 1-D range workload `R_k`:
/// entry `(i, j)` counts the ranges containing both `i` and `j`, which is
/// `(min(i,j) + 1) · (k − max(i,j))`.
pub fn range_gram_1d(k: usize) -> Matrix {
    let mut g = Matrix::zeros(k, k);
    for i in 0..k {
        for j in 0..k {
            let lo = i.min(j);
            let hi = i.max(j);
            g[(i, j)] = ((lo + 1) * (k - hi)) as f64;
        }
    }
    g
}

/// Closed-form Gram matrix of the full d-dimensional range workload
/// `R_{k^d}`: ranges are products of per-dimension intervals, so the Gram
/// entry for flat cells `u, v` is the product of the 1-D formulas per
/// dimension. Returns a `|T| × |T|` dense matrix — use on small domains.
pub fn range_gram(domain: &Domain) -> Result<Matrix, CoreError> {
    let n = domain.size();
    let mut g = Matrix::zeros(n, n);
    for u in 0..n {
        let cu = domain.coords(u)?;
        for v in 0..n {
            let cv = domain.coords(v)?;
            let mut prod = 1.0;
            for d in 0..domain.num_dims() {
                let k = domain.dim(d);
                let lo = cu[d].min(cv[d]);
                let hi = cu[d].max(cv[d]);
                prod *= ((lo + 1) * (k - hi)) as f64;
            }
            g[(u, v)] = prod;
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_and_cumulative_shapes() {
        let i4 = Workload::identity(4);
        assert_eq!(i4.len(), 4);
        assert!(i4.to_dense_matrix().approx_eq(&Matrix::identity(4), 0.0));

        let c4 = Workload::cumulative(4);
        let m = c4.to_dense_matrix();
        // Lower-triangular ones (Figure 1).
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if j <= i { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn all_ranges_1d_count_and_answers() {
        let k = 5;
        let w = Workload::all_ranges_1d(k);
        assert_eq!(w.len(), k * (k + 1) / 2);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ans = w.answer(&x).unwrap();
        // First query is [0,0], last is [4,4].
        assert_eq!(ans[0], 1.0);
        assert_eq!(*ans.last().unwrap(), 5.0);
        // The full range appears with answer 15.
        assert!(ans.contains(&15.0));
    }

    #[test]
    fn dyadic_ranges_1d_structure() {
        // Power-of-two k: exactly 2k − 1 tree nodes, O(k log k) support.
        let k = 16;
        let w = Workload::dyadic_ranges_1d(k);
        assert_eq!(w.len(), 2 * k - 1);
        let nnz: usize = w.queries().iter().map(LinearQuery::nnz).sum();
        assert_eq!(nnz, k * (k.ilog2() as usize + 1));
        // First query is the full range; answers match brute force.
        let x: Vec<f64> = (0..k).map(|i| i as f64).collect();
        let ans = w.answer(&x).unwrap();
        assert_eq!(ans[0], x.iter().sum::<f64>());
        for (q, a) in w.queries().iter().zip(&ans) {
            let brute: f64 = (0..k).map(|j| q.coeff(j) * x[j]).sum();
            assert_eq!(*a, brute);
        }
        // Non-power-of-two k: clipping must not duplicate queries.
        for k in [1usize, 3, 5, 6, 7, 12, 13] {
            let w = Workload::dyadic_ranges_1d(k);
            let mut seen = std::collections::HashSet::new();
            for q in w.queries() {
                let support: Vec<usize> = (0..k).filter(|&j| q.coeff(j) != 0.0).collect();
                assert!(!support.is_empty(), "k={k}: empty dyadic query");
                assert!(
                    seen.insert(support.clone()),
                    "k={k}: duplicate dyadic query {support:?}"
                );
            }
            assert!(w.len() <= 2 * k);
        }
    }

    #[test]
    fn all_ranges_2d_count() {
        let d = Domain::square(3);
        let w = Workload::all_ranges(&d).unwrap();
        // (3·4/2)² = 36 ranges.
        assert_eq!(w.len(), 36);
        let x = vec![1.0; 9];
        let ans = w.answer(&x).unwrap();
        assert!(ans.contains(&9.0)); // full box
    }

    #[test]
    fn range_query_cells_row_major() {
        let d = Domain::square(4);
        let r = RangeQuery::new(&d, vec![1, 1], vec![2, 2]).unwrap();
        assert_eq!(r.volume(), 4);
        assert_eq!(r.cells(&d).unwrap(), vec![5, 6, 9, 10]);
        let q = r.to_linear_query(&d).unwrap();
        assert_eq!(q.nnz(), 4);
    }

    #[test]
    fn range_query_validation() {
        let d = Domain::square(3);
        assert!(RangeQuery::new(&d, vec![2, 0], vec![1, 1]).is_err());
        assert!(RangeQuery::new(&d, vec![0, 0], vec![0, 3]).is_err());
        assert!(RangeQuery::new(&d, vec![0], vec![1]).is_err());
    }

    #[test]
    fn random_ranges_valid_and_seeded() {
        let d = Domain::square(10);
        let mut rng = StdRng::seed_from_u64(7);
        let (w, specs) = Workload::random_ranges(&d, 50, &mut rng).unwrap();
        assert_eq!(w.len(), 50);
        assert_eq!(specs.len(), 50);
        for s in &specs {
            assert!(s.lo[0] <= s.hi[0] && s.hi[0] < 10);
            assert!(s.lo[1] <= s.hi[1] && s.hi[1] < 10);
        }
        // Determinism.
        let mut rng2 = StdRng::seed_from_u64(7);
        let (_, specs2) = Workload::random_ranges(&d, 50, &mut rng2).unwrap();
        assert_eq!(specs, specs2);
    }

    #[test]
    fn marginals() {
        let d = Domain::square(3);
        let w = Workload::one_way_marginals(&d).unwrap();
        assert_eq!(w.len(), 6); // 3 rows + 3 columns
        let x: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let ans = w.answer(&x).unwrap();
        // Row sums: 0+1+2, 3+4+5, 6+7+8.
        assert_eq!(&ans[0..3], &[3.0, 12.0, 21.0]);
        // Column sums: 0+3+6, 1+4+7, 2+5+8.
        assert_eq!(&ans[3..6], &[9.0, 12.0, 15.0]);
    }

    #[test]
    fn gram_closed_form_matches_explicit_1d() {
        let k = 6;
        let w = Workload::all_ranges_1d(k);
        let explicit = w.to_dense_matrix().gram();
        let closed = range_gram_1d(k);
        assert!(closed.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn gram_closed_form_matches_explicit_2d() {
        let d = Domain::square(3);
        let w = Workload::all_ranges(&d).unwrap();
        let explicit = w.to_dense_matrix().gram();
        let closed = range_gram(&d).unwrap();
        assert!(closed.approx_eq(&explicit, 1e-9));
    }

    #[test]
    fn query_mix_samples_valid_and_seeded() {
        let d = Domain::square(8);
        let mix = QueryMix::balanced();
        let mut rng = StdRng::seed_from_u64(9);
        let qs = sample_query_mix(&d, &mix, 200, &mut rng).unwrap();
        assert_eq!(qs.len(), 200);
        for q in &qs {
            // Every sampled query must validate against the domain.
            RangeQuery::new(&d, q.lo.clone(), q.hi.clone()).unwrap();
        }
        let mut rng2 = StdRng::seed_from_u64(9);
        let qs2 = sample_query_mix(&d, &mix, 200, &mut rng2).unwrap();
        assert_eq!(qs, qs2, "same seed must reproduce the same queries");
    }

    #[test]
    fn query_kinds_have_their_shapes() {
        let d = Domain::square(6);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let p = sample_query(&d, QueryKind::Point, &mut rng);
            assert_eq!(p.lo, p.hi);
            let pre = sample_query(&d, QueryKind::Prefix, &mut rng);
            assert_eq!(pre.lo, vec![0, 0]);
            let m = sample_query(&d, QueryKind::Marginal, &mut rng);
            // Exactly one dimension pinned, the other full.
            let pinned: Vec<usize> = (0..2).filter(|&i| m.lo[i] == m.hi[i]).collect();
            let full: Vec<usize> = (0..2).filter(|&i| m.lo[i] == 0 && m.hi[i] == 5).collect();
            assert!(!pinned.is_empty() && !full.is_empty(), "{m:?}");
        }
        // 1-D marginal degenerates to a point.
        let one = Domain::one_dim(4);
        let m = sample_query(&one, QueryKind::Marginal, &mut rng);
        assert_eq!(m.lo, m.hi);
    }

    #[test]
    fn query_mix_validation() {
        let d = Domain::one_dim(4);
        let mut rng = StdRng::seed_from_u64(1);
        let zero = QueryMix {
            point: 0.0,
            range: 0.0,
            prefix: 0.0,
            marginal: 0.0,
        };
        assert!(sample_query_mix(&d, &zero, 1, &mut rng).is_err());
        let neg = QueryMix {
            point: -1.0,
            ..QueryMix::balanced()
        };
        assert!(sample_query_mix(&d, &neg, 1, &mut rng).is_err());
        // Single-kind mixes always draw that kind.
        let only_points = QueryMix {
            point: 2.0,
            range: 0.0,
            prefix: 0.0,
            marginal: 0.0,
        };
        for _ in 0..20 {
            assert_eq!(only_points.sample_kind(&mut rng).unwrap(), QueryKind::Point);
        }
    }

    #[test]
    fn workload_arity_checked() {
        let q = LinearQuery::point(3, 0).unwrap();
        assert!(Workload::new(4, vec![q]).is_err());
    }
}
