//! The uniform mechanism abstraction: one object-safe trait in front of
//! every baseline and Blowfish strategy in this crate.
//!
//! [`Mechanism::fit`] is the one way to run an algorithm: `fit(&self, x,
//! rng) -> Estimate`, with the budget and any prepared artifacts bound
//! into the implementing struct. [`Estimate`] is the one way to answer
//! ranges: it carries the released histogram and, from its first answer
//! on, a [`RangeTable`] of prefix sums / a summed-area table, so batched
//! range workloads are answered in O(1) per query after a single O(k)
//! preparation pass. [`Estimate::into_table`] keeps only that table,
//! built in place over the histogram's own buffer: the form a served
//! release is stored in. A true answer is an [`Estimate`] of the exact
//! counts.
//!
//! Transformational equivalence (Section 4 of the paper) is what makes
//! this uniformity sound: every strategy, policy-aware or not, ultimately
//! releases a histogram estimate `x̂` over the original domain, so one
//! trait covers the whole zoo (DESIGN.md §6). The concrete implementors
//! live next to their algorithms ([`crate::baselines`], [`crate::line1d`],
//! [`crate::grid`], [`crate::theta_line`], [`crate::theta_grid`]); the
//! `blowfish-engine` crate builds the registry/planner layer on top.

use std::sync::OnceLock;

use rand::RngCore;

use blowfish_core::{DataVector, Domain, Epsilon, RangeQuery};

use crate::StrategyError;

/// A fitted histogram release, prepared for O(1)-per-query range
/// answering.
///
/// It holds the histogram `x̂`. Its first answer builds the
/// [`RangeTable`] over a copy of `x̂`: prefix sums for 1-D domains, a
/// summed-area table for 2-D ones, and the cells themselves (O(volume)
/// per query) for three or more dimensions. [`Estimate::into_table`]
/// builds the same table in place instead, for a caller that answers
/// ranges and never reads `x̂`.
#[derive(Clone, Debug)]
pub struct Estimate {
    domain: Domain,
    histogram: Vec<f64>,
    /// The answering table over a copy of `histogram`, built on the
    /// first answer.
    table: OnceLock<RangeTable>,
}

impl Estimate {
    /// Wraps a histogram estimate over `domain`. Refuses
    /// ([`StrategyError::NonFiniteRelease`]) a histogram with a non-finite
    /// cell, or whose table could give a NaN or infinite range answer: a
    /// 1-D answer is the difference of two prefix sums and a 2-D one a
    /// signed sum of four summed-area entries, so the histogram is refused
    /// unless 2·max|prefix sum| (1-D) or 4·max|summed-area entry| (2-D) is
    /// finite. The table entries are checked as they stream past, in
    /// pieces (1-D) or rows (2-D), without storing the table.
    pub fn new(domain: &Domain, histogram: Vec<f64>) -> Result<Self, StrategyError> {
        if histogram.len() != domain.size() {
            return Err(StrategyError::BadQuery {
                what: "estimate length must equal the domain size",
            });
        }
        if !histogram.iter().all(|v| v.is_finite()) || !table_is_bounded(domain, &histogram) {
            return Err(StrategyError::NonFiniteRelease);
        }
        Ok(Estimate {
            domain: domain.clone(),
            histogram,
            table: OnceLock::new(),
        })
    }

    /// The raw histogram estimate `x̂`.
    pub fn histogram(&self) -> &[f64] {
        &self.histogram
    }

    /// Answers one range query — O(1) for 1-D/2-D domains — as a batch
    /// of one through [`Estimate::answer_ranges`].
    ///
    /// `RangeQuery`'s fields are public, so bounds are re-validated here
    /// (`lo ≤ hi` per axis, `hi` within the domain) rather than trusting
    /// construction-time invariants.
    pub fn answer(&self, q: &RangeQuery) -> Result<f64, StrategyError> {
        Ok(self.answer_many(std::slice::from_ref(q))?[0])
    }

    /// Answers a batch of range queries through
    /// [`Estimate::answer_ranges`].
    pub fn answer_many(&self, specs: &[RangeQuery]) -> Result<Vec<f64>, StrategyError> {
        self.answer_ranges(specs.iter().map(|q| (q.lo.as_slice(), q.hi.as_slice())))
    }

    /// Answers a batch of ranges given as inclusive per-dimension `(lo,
    /// hi)` bounds through [`RangeTable::answer_ranges`], building the
    /// table on the first call.
    pub fn answer_ranges<'q>(
        &self,
        ranges: impl IntoIterator<Item = (&'q [usize], &'q [usize])>,
    ) -> Result<Vec<f64>, StrategyError> {
        self.table
            .get_or_init(|| RangeTable::build(self.domain.clone(), self.histogram.clone()))
            .answer_ranges(ranges)
    }

    /// Keeps only the answering table, built in place over the
    /// histogram's own buffer, so the release's k floats are allocated
    /// once. It answers bit for bit as this estimate does.
    pub fn into_table(self) -> RangeTable {
        match self.table.into_inner() {
            Some(table) => table,
            None => RangeTable::build(self.domain, self.histogram),
        }
    }
}

/// What a release needs to answer ranges: its domain and one k-float
/// table, holding the prefix sums (1-D), the summed-area table (2-D) or
/// the cells (d ≥ 3) of its histogram. It is built from an [`Estimate`],
/// whose construction checked that every answer is finite.
#[derive(Clone, Debug)]
pub struct RangeTable {
    domain: Domain,
    table: Vec<f64>,
}

impl RangeTable {
    /// Turns `cells` into their table in place, row by row through
    /// [`fold_row`].
    fn build(domain: Domain, mut cells: Vec<f64>) -> Self {
        if let Some((rows, cols, _)) = table_shape(&domain) {
            for r in 0..rows {
                let (done, rest) = cells.split_at_mut(r * cols);
                let above = r.checked_sub(1).map(|p| &done[p * cols..]);
                fold_row(&mut rest[..cols], above, &mut 0.0);
            }
        }
        RangeTable {
            domain,
            table: cells,
        }
    }

    /// Answers a batch of ranges given as inclusive per-dimension `(lo,
    /// hi)` bounds, with the dimensionality dispatch hoisted out of the
    /// per-range loop: one match, then a tight validate-and-difference
    /// loop over the table. Every answer entry point, the service's
    /// included, comes through here; over 1-D and 2-D domains the result
    /// vector is its only allocation.
    pub fn answer_ranges<'q>(
        &self,
        ranges: impl IntoIterator<Item = (&'q [usize], &'q [usize])>,
    ) -> Result<Vec<f64>, StrategyError> {
        let ranges = ranges.into_iter();
        let mut out = Vec::with_capacity(ranges.size_hint().0);
        match self.domain.num_dims() {
            1 => {
                let k = self.domain.dim(0);
                for (lo, hi) in ranges {
                    out.push(self.answer_1d(k, lo, hi)?);
                }
            }
            2 => {
                let (rows, cols) = (self.domain.dim(0), self.domain.dim(1));
                for (lo, hi) in ranges {
                    out.push(self.answer_2d(rows, cols, lo, hi)?);
                }
            }
            _ => {
                for (lo, hi) in ranges {
                    let cells = RangeQuery::cells_in(&self.domain, lo, hi)?;
                    out.push(cells.into_iter().map(|c| self.table[c]).sum());
                }
            }
        }
        Ok(out)
    }

    /// Validates and answers one 1-D range against the prefix sums.
    #[inline]
    fn answer_1d(&self, k: usize, lo: &[usize], hi: &[usize]) -> Result<f64, StrategyError> {
        if lo.len() != 1 || hi.len() != 1 || lo[0] > hi[0] || hi[0] >= k {
            return Err(StrategyError::BadQuery {
                what: "1-D range answering requires 1-D in-range specs",
            });
        }
        Ok(DataVector::range_from_prefix(&self.table, lo[0], hi[0]))
    }

    /// Validates and answers one 2-D range against the summed-area table.
    #[inline]
    fn answer_2d(
        &self,
        rows: usize,
        cols: usize,
        lo: &[usize],
        hi: &[usize],
    ) -> Result<f64, StrategyError> {
        if lo.len() != 2
            || hi.len() != 2
            || lo[0] > hi[0]
            || lo[1] > hi[1]
            || hi[0] >= rows
            || hi[1] >= cols
        {
            return Err(StrategyError::BadQuery {
                what: "2-D range answering requires 2-D in-range specs",
            });
        }
        Ok(DataVector::range_from_prefix_2d(
            &self.table,
            cols,
            (lo[0], lo[1]),
            (hi[0], hi[1]),
        ))
    }
}

/// The `rows × cols` grid a domain's table is folded over — one row of k
/// prefix sums in 1-D, the summed-area grid in 2-D — and the number of
/// table entries one range answer adds up (2, or 4). `None` for d ≥ 3,
/// whose table is the cells.
fn table_shape(domain: &Domain) -> Option<(usize, usize, f64)> {
    match domain.num_dims() {
        1 => Some((1, domain.dim(0), 2.0)),
        2 => Some((domain.dim(0), domain.dim(1), 4.0)),
        _ => None,
    }
}

/// The one recurrence every range table is built by, over one row in
/// place: on entry `row` holds histogram cells, on return table entries,
/// each the running sum `acc` of the row's cells through it plus the
/// entry above it in `above`, the table's previous row (`None` for the
/// first row). `acc` carries in and out, so a 1-D table's one row can be
/// folded in pieces. A running sum from +0.0 is never −0.0, so the first
/// row's entries equal `acc + 0.0` bit for bit.
#[inline]
fn fold_row(row: &mut [f64], above: Option<&[f64]>, acc: &mut f64) {
    match above {
        None => {
            for v in row {
                *acc += *v;
                *v = *acc;
            }
        }
        Some(above) => {
            for (v, a) in row.iter_mut().zip(above) {
                *acc += *v;
                *v = *acc + a;
            }
        }
    }
}

/// Whether `terms·t` is finite for every entry `t` of the table over
/// `cells`, which [`Estimate::new`] requires. It folds copies of the
/// cells through [`fold_row`], exactly as [`RangeTable::build`] will,
/// but keeps only the pieces in flight: one stack buffer in 1-D, the
/// current and previous rows in 2-D.
fn table_is_bounded(domain: &Domain, cells: &[f64]) -> bool {
    let Some((rows, cols, terms)) = table_shape(domain) else {
        return true;
    };
    let bounded = |entries: &[f64]| entries.iter().all(|&t| (terms * t).is_finite());
    if rows == 1 {
        let mut piece = [0.0; 256];
        let mut acc = 0.0;
        return cells.chunks(piece.len()).all(|chunk| {
            let piece = &mut piece[..chunk.len()];
            piece.copy_from_slice(chunk);
            fold_row(piece, None, &mut acc);
            bounded(piece)
        });
    }
    let mut scratch = vec![0.0; 2 * cols];
    let (mut above, mut row) = scratch.split_at_mut(cols);
    for (r, cells) in cells.chunks_exact(cols).enumerate() {
        row.copy_from_slice(cells);
        fold_row(row, (r > 0).then_some(&*above), &mut 0.0);
        if !bounded(row) {
            return false;
        }
        std::mem::swap(&mut above, &mut row);
    }
    true
}

/// One differentially private (or Blowfish-private) histogram release
/// mechanism with its privacy parameters bound in.
///
/// Object safety is deliberate: the engine layer stores `Arc<dyn
/// Mechanism>` in its registry and serves fits from a shared plan cache.
/// Randomness comes in as `&mut dyn RngCore` so a single seeded generator
/// can drive heterogeneous mechanism sets reproducibly.
pub trait Mechanism: Send + Sync {
    /// The privacy budget one [`Mechanism::fit`] actually consumes — the
    /// ε of the mechanism's own guarantee at the policy it was built for
    /// (stretch/split scaling is already folded in internally by each
    /// strategy). Budget meters charge exactly this per release, so a
    /// baseline constructed at ε/2 is charged ε/2, not the session ε.
    fn epsilon(&self) -> Epsilon;

    /// Runs the mechanism on `x`, producing a query-ready [`Estimate`]
    /// (which a caller that only answers ranges turns into its
    /// [`RangeTable`] with [`Estimate::into_table`]).
    fn fit(&self, x: &DataVector, rng: &mut dyn RngCore) -> Result<Estimate, StrategyError>;
}

/// The exact answers to `specs` over `x`: an [`Estimate`] of the true
/// counts, the truth the strategy tests measure error against.
#[cfg(test)]
pub(crate) fn true_answers(x: &DataVector, specs: &[RangeQuery]) -> Vec<f64> {
    let exact = Estimate::new(x.domain(), x.counts().to_vec()).unwrap();
    exact.answer_many(specs).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blowfish_core::Domain;

    /// Direct cell sums of every range in `specs` over a row-major
    /// histogram: an independent computation of the answers, exact in f64
    /// for integer-valued histograms.
    fn direct_sums(d: &Domain, hist: &[f64], specs: &[RangeQuery]) -> Vec<f64> {
        specs
            .iter()
            .map(|q| {
                RangeQuery::cells_in(d, &q.lo, &q.hi)
                    .unwrap()
                    .into_iter()
                    .map(|c| hist[c])
                    .sum()
            })
            .collect()
    }

    /// Every range over `domain`, as queries.
    fn all_ranges(domain: &Domain) -> Vec<RangeQuery> {
        let mut specs = vec![RangeQuery {
            lo: Vec::new(),
            hi: Vec::new(),
        }];
        for &n in domain.dims() {
            let sides: Vec<(usize, usize)> = (0..n)
                .flat_map(|lo| (lo..n).map(move |hi| (lo, hi)))
                .collect();
            specs = specs
                .iter()
                .flat_map(|q| {
                    sides.iter().map(move |&(lo, hi)| {
                        let mut q = q.clone();
                        q.lo.push(lo);
                        q.hi.push(hi);
                        q
                    })
                })
                .collect();
        }
        specs
    }

    #[test]
    fn ranges_1d_match_direct_sums() {
        let d = Domain::one_dim(4);
        let est = Estimate::new(&d, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let specs = vec![
            RangeQuery::one_dim(&d, 0, 3).unwrap(),
            RangeQuery::one_dim(&d, 1, 2).unwrap(),
            RangeQuery::one_dim(&d, 2, 2).unwrap(),
        ];
        assert_eq!(est.answer_many(&specs).unwrap(), vec![10.0, 5.0, 3.0]);
    }

    #[test]
    fn ranges_2d_match_direct_sums() {
        // 3x3: 0..8
        let d = Domain::square(3);
        let est = Estimate::new(&d, (0..9).map(|v| v as f64).collect()).unwrap();
        let specs = vec![
            RangeQuery::new(&d, vec![0, 0], vec![2, 2]).unwrap(),
            RangeQuery::new(&d, vec![1, 1], vec![2, 2]).unwrap(),
            RangeQuery::new(&d, vec![0, 1], vec![1, 1]).unwrap(),
        ];
        assert_eq!(est.answer_many(&specs).unwrap(), vec![36.0, 24.0, 5.0]);
    }

    #[test]
    fn true_answer_helpers() {
        // A true answer is an estimate of the exact counts.
        let x = DataVector::new(Domain::one_dim(3), vec![5.0, 0.0, 2.0]).unwrap();
        let specs = vec![RangeQuery::one_dim(x.domain(), 0, 2).unwrap()];
        assert_eq!(true_answers(&x, &specs), vec![7.0]);

        let x2 = DataVector::new(Domain::square(2), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let specs2 = vec![RangeQuery::new(x2.domain(), vec![0, 0], vec![1, 1]).unwrap()];
        assert_eq!(true_answers(&x2, &specs2), vec![10.0]);
    }

    #[test]
    fn shape_validation() {
        let d2 = Domain::square(2);
        let spec2d = RangeQuery::new(&d2, vec![0, 0], vec![1, 1]).unwrap();
        let one_d = Estimate::new(&Domain::one_dim(2), vec![1.0, 2.0]).unwrap();
        assert!(one_d.answer(&spec2d).is_err());
        assert!(Estimate::new(&d2, vec![1.0; 3]).is_err());
        let d1 = Domain::one_dim(5);
        let spec1d = RangeQuery::one_dim(&d1, 0, 4).unwrap();
        let two_d = Estimate::new(&d2, vec![1.0; 4]).unwrap();
        assert!(two_d.answer(&spec1d).is_err());
        // 1-D spec out of range for a shorter estimate.
        assert!(one_d.answer(&spec1d).is_err());
    }

    #[test]
    fn estimate_matches_answering_helpers_1d() {
        let d = Domain::one_dim(6);
        let hist = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let est = Estimate::new(&d, hist.clone()).unwrap();
        let specs = all_ranges(&d);
        assert_eq!(
            est.answer_many(&specs).unwrap(),
            direct_sums(&d, &hist, &specs)
        );
        assert_eq!(est.histogram().iter().sum::<f64>(), 23.0);
        assert_eq!(est.histogram(), hist.as_slice());
        assert_eq!(est.domain.size(), 6);
    }

    #[test]
    fn estimate_matches_answering_helpers_2d() {
        let d = Domain::square(4);
        let hist: Vec<f64> = (0..16).map(|v| v as f64).collect();
        let est = Estimate::new(&d, hist.clone()).unwrap();
        // Every box of the 4x4 grid.
        let specs = all_ranges(&d);
        assert_eq!(specs.len(), 100);
        assert_eq!(
            est.answer_many(&specs).unwrap(),
            direct_sums(&d, &hist, &specs)
        );
    }

    #[test]
    fn estimate_3d_falls_back_to_direct_sums() {
        let d = Domain::product(&[3, 3, 3]).unwrap();
        let hist: Vec<f64> = (0..27).map(|v| v as f64).collect();
        let est = Estimate::new(&d, hist.clone()).unwrap();
        let q = RangeQuery::new(&d, vec![0, 0, 0], vec![2, 2, 2]).unwrap();
        assert_eq!(est.answer(&q).unwrap(), hist.iter().sum::<f64>());
        let q2 = RangeQuery::new(&d, vec![1, 1, 1], vec![1, 1, 1]).unwrap();
        assert_eq!(est.answer(&q2).unwrap(), hist[13]);
        // A box, against cell-by-cell sums over the row-major layout.
        let q3 = RangeQuery::new(&d, vec![0, 1, 1], vec![1, 2, 2]).unwrap();
        let by_hand: f64 = [4, 5, 7, 8, 13, 14, 16, 17].iter().map(|&c| hist[c]).sum();
        assert_eq!(est.answer(&q3).unwrap(), by_hand);
    }

    #[test]
    fn estimate_shape_validation() {
        let d = Domain::one_dim(4);
        assert!(Estimate::new(&d, vec![1.0; 3]).is_err());
        let est = Estimate::new(&d, vec![1.0; 4]).unwrap();
        let d2 = Domain::square(2);
        let spec2d = RangeQuery::new(&d2, vec![0, 0], vec![1, 1]).unwrap();
        assert!(est.answer(&spec2d).is_err());
        let est2 = Estimate::new(&d2, vec![1.0; 4]).unwrap();
        let d1 = Domain::one_dim(2);
        let spec1d = RangeQuery::one_dim(&d1, 0, 1).unwrap();
        assert!(est2.answer(&spec1d).is_err());
        // A NaN cell, or finite cells whose prefix sums overflow, make a
        // release whose answers are not finite: refused.
        for hist in [vec![1.0, f64::NAN, 1.0, 1.0], vec![f64::MAX; 4]] {
            assert!(matches!(
                Estimate::new(&d, hist),
                Err(StrategyError::NonFiniteRelease)
            ));
        }
    }

    #[test]
    fn answer_many_matches_per_query_answers() {
        // 1-D and 2-D batched paths must be bit-identical to the one-query
        // path, and reject what it rejects.
        let d = Domain::one_dim(16);
        let hist: Vec<f64> = (0..16).map(|v| (v * 7 % 5) as f64).collect();
        let est = Estimate::new(&d, hist).unwrap();
        let specs: Vec<RangeQuery> = (0..16)
            .flat_map(|lo| (lo..16).map(move |hi| (lo, hi)))
            .map(|(lo, hi)| RangeQuery::one_dim(&d, lo, hi).unwrap())
            .collect();
        let batched = est.answer_many(&specs).unwrap();
        let single: Vec<f64> = specs.iter().map(|q| est.answer(q).unwrap()).collect();
        assert_eq!(batched, single);

        let d2 = Domain::square(5);
        let est2 = Estimate::new(&d2, (0..25).map(|v| v as f64).collect()).unwrap();
        let specs2 = vec![
            RangeQuery::new(&d2, vec![0, 0], vec![4, 4]).unwrap(),
            RangeQuery::new(&d2, vec![1, 2], vec![3, 4]).unwrap(),
            RangeQuery::new(&d2, vec![2, 2], vec![2, 2]).unwrap(),
        ];
        let batched2 = est2.answer_many(&specs2).unwrap();
        let single2: Vec<f64> = specs2.iter().map(|q| est2.answer(q).unwrap()).collect();
        assert_eq!(batched2, single2);

        // A bad query anywhere in the batch is an error, same as answer().
        let mut bad = RangeQuery::one_dim(&d, 1, 5).unwrap();
        bad.lo = vec![9];
        assert!(est.answer_many(&[bad]).is_err());
        // Dimension mismatch rejected through the batched path too.
        assert!(est.answer_many(&specs2).is_err());
    }

    /// The reference table, built out of place into a second buffer:
    /// prefix sums (1-D), the summed-area table (2-D), nothing for d ≥ 3.
    /// The in-place build must match it bit for bit.
    fn table_out_of_place(domain: &Domain, histogram: &[f64]) -> Vec<f64> {
        match domain.num_dims() {
            1 => {
                let mut prefix = Vec::with_capacity(histogram.len());
                let mut acc = 0.0;
                for &v in histogram {
                    acc += v;
                    prefix.push(acc);
                }
                prefix
            }
            2 => {
                let (rows, cols) = (domain.dim(0), domain.dim(1));
                let mut sat = vec![0.0; rows * cols];
                for r in 0..rows {
                    let mut row_acc = 0.0;
                    for c in 0..cols {
                        row_acc += histogram[r * cols + c];
                        sat[r * cols + c] =
                            row_acc + if r > 0 { sat[(r - 1) * cols + c] } else { 0.0 };
                    }
                }
                sat
            }
            _ => Vec::new(),
        }
    }

    /// The reference refusal: a non-finite cell, or a reference table
    /// entry `t` with `terms·t` not finite.
    fn refused_out_of_place(domain: &Domain, histogram: &[f64]) -> bool {
        let terms = match domain.num_dims() {
            1 => 2.0,
            2 => 4.0,
            _ => 1.0,
        };
        !histogram.iter().all(|v| v.is_finite())
            || !table_out_of_place(domain, histogram)
                .iter()
                .all(|t| (terms * t).is_finite())
    }

    #[test]
    fn tables_built_in_place_answer_like_tables_built_out_of_place() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(26);
        let mut refusals = 0;
        for case in 0..150 {
            // 1-D sizes cross the check's 256-cell pieces; 2-D grids
            // include single rows and columns.
            let dims = match case % 3 {
                0 => vec![rng.gen_range(1..600)],
                1 => vec![rng.gen_range(1..14), rng.gen_range(1..14)],
                _ => (0..3).map(|_| rng.gen_range(1..5)).collect(),
            };
            let domain = Domain::product(&dims).unwrap();
            let k = domain.size();
            // Noise-like values, small integers with signed zeros, and
            // values large enough that some tables overflow.
            let kind = case % 5;
            let mut histogram: Vec<f64> = (0..k)
                .map(|_| match kind {
                    0 | 1 => rng.gen_range(-100.0..100.0),
                    2 => [0.0, -0.0, 1.0, 2.0, -3.0][rng.gen_range(0..5usize)],
                    3 => rng.gen_range(-1.0..1.0) * f64::MAX / 2.0,
                    _ => rng.gen_range(0.0..1.0) * f64::MAX / (k as f64),
                })
                .collect();
            if case % 17 == 0 {
                histogram[rng.gen_range(0..k)] = [f64::NAN, f64::INFINITY][case % 2];
            }
            let refused = refused_out_of_place(&domain, &histogram);
            let built = Estimate::new(&domain, histogram.clone());
            if refused {
                refusals += 1;
                assert!(
                    matches!(built, Err(StrategyError::NonFiniteRelease)),
                    "case {case} {dims:?}: {built:?}"
                );
                continue;
            }
            let est = built.unwrap_or_else(|e| panic!("case {case} {dims:?}: {e:?}"));
            let specs = all_ranges(&domain);
            let want: Vec<f64> = match domain.num_dims() {
                1 => {
                    let prefix = table_out_of_place(&domain, &histogram);
                    specs
                        .iter()
                        .map(|q| DataVector::range_from_prefix(&prefix, q.lo[0], q.hi[0]))
                        .collect()
                }
                2 => {
                    let sat = table_out_of_place(&domain, &histogram);
                    let at = |q: &RangeQuery| ((q.lo[0], q.lo[1]), (q.hi[0], q.hi[1]));
                    specs
                        .iter()
                        .map(|q| {
                            let (lo, hi) = at(q);
                            DataVector::range_from_prefix_2d(&sat, dims[1], lo, hi)
                        })
                        .collect()
                }
                _ => direct_sums(&domain, &histogram, &specs),
            };
            let what = format!("case {case} {dims:?}");
            assert_eq!(
                bits(&est.answer_many(&specs).unwrap()),
                bits(&want),
                "{what}"
            );
            // The in-place build: the table itself, and its answers.
            let table = Estimate::new(&domain, histogram.clone())
                .unwrap()
                .into_table();
            if domain.num_dims() <= 2 {
                let reference = table_out_of_place(&domain, &histogram);
                assert_eq!(bits(&table.table), bits(&reference), "{what}");
            } else {
                assert_eq!(bits(&table.table), bits(&histogram), "{what}");
            }
            let ranges = specs.iter().map(|q| (q.lo.as_slice(), q.hi.as_slice()));
            assert_eq!(
                bits(&table.answer_ranges(ranges).unwrap()),
                bits(&want),
                "{what}"
            );
            // An estimate whose table was built on an answer hands it over.
            assert_eq!(bits(&est.into_table().table), bits(&table.table), "{what}");
        }
        assert!(refusals > 10, "only {refusals} refusals");
    }

    #[test]
    fn estimate_rejects_inverted_ranges() {
        // RangeQuery fields are pub: a hand-mutated lo > hi must error,
        // not silently difference prefixes backwards.
        let d = Domain::one_dim(8);
        let est = Estimate::new(&d, vec![1.0; 8]).unwrap();
        let mut q = RangeQuery::one_dim(&d, 1, 5).unwrap();
        q.lo = vec![6];
        assert!(est.answer(&q).is_err());
        let d2 = Domain::square(4);
        let est2 = Estimate::new(&d2, vec![1.0; 16]).unwrap();
        let mut q2 = RangeQuery::new(&d2, vec![0, 1], vec![2, 3]).unwrap();
        q2.lo = vec![0, 4];
        assert!(est2.answer(&q2).is_err());
        q2.lo = vec![3, 1];
        assert!(est2.answer(&q2).is_err());
    }
}
