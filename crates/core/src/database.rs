//! Databases as histogram vectors.
//!
//! Following Section 2 of the paper, a database `D` over domain `T` is
//! represented by the vector `x ∈ R^k` whose `i`-th entry is the number of
//! records taking the `i`-th domain value. All mechanisms in this workspace
//! operate on this histogram representation.

use crate::domain::Domain;
use crate::CoreError;

/// A histogram-vector database `x` over a [`Domain`].
#[derive(Clone, Debug, PartialEq)]
pub struct DataVector {
    domain: Domain,
    counts: Vec<f64>,
}

impl DataVector {
    /// Wraps raw counts over `domain`.
    pub fn new(domain: Domain, counts: Vec<f64>) -> Result<Self, CoreError> {
        if counts.len() != domain.size() {
            return Err(CoreError::DataShapeMismatch {
                domain_size: domain.size(),
                data_len: counts.len(),
            });
        }
        Ok(DataVector { domain, counts })
    }

    /// The domain this database is defined over.
    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The raw counts.
    #[inline]
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Mutable raw counts.
    #[inline]
    pub fn counts_mut(&mut self) -> &mut [f64] {
        &mut self.counts
    }

    /// Number of histogram cells (`|T|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the domain is empty (never true for valid domains).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Count at flat index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.counts[i]
    }

    /// Total number of records `n = Σᵢ x[i]`.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Number of zero cells (used to check Table 1 sparsity statistics).
    pub fn zero_cells(&self) -> usize {
        self.counts.iter().filter(|&&c| c == 0.0).count()
    }

    /// Fraction of zero cells, in percent (column "% Zero Counts" of
    /// Table 1).
    pub fn percent_zero(&self) -> f64 {
        100.0 * self.zero_cells() as f64 / self.len() as f64
    }

    /// Prefix sums: `out[i] = Σ_{j ≤ i} x[j]` (1-dimensional domains).
    ///
    /// This is exactly the transformed database `x_G = P_G⁻¹ x` for the line
    /// policy `G¹_k` (Example 4.1), and the fast path for answering range
    /// queries.
    pub fn prefix_sums(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut acc = 0.0;
        for &c in &self.counts {
            acc += c;
            out.push(acc);
        }
        out
    }

    /// Answers the 1-D range count `Σ_{l ≤ i ≤ r} x[i]` via prefix sums that
    /// the caller computed once with [`DataVector::prefix_sums`].
    pub fn range_from_prefix(prefix: &[f64], l: usize, r: usize) -> f64 {
        debug_assert!(l <= r && r < prefix.len());
        prefix[r] - if l > 0 { prefix[l - 1] } else { 0.0 }
    }

    /// Answers a 2-D range count from a summed-area table (row-major, `cols`
    /// columns): inclusive corners `(r0, c0)`–`(r1, c1)`.
    pub fn range_from_prefix_2d(
        sat: &[f64],
        cols: usize,
        (r0, c0): (usize, usize),
        (r1, c1): (usize, usize),
    ) -> f64 {
        debug_assert!(r0 <= r1 && c0 <= c1);
        let at = |r: isize, c: isize| -> f64 {
            if r < 0 || c < 0 {
                0.0
            } else {
                sat[r as usize * cols + c as usize]
            }
        };
        at(r1 as isize, c1 as isize)
            - at(r0 as isize - 1, c1 as isize)
            - at(r1 as isize, c0 as isize - 1)
            + at(r0 as isize - 1, c0 as isize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_stats() {
        let d = Domain::one_dim(5);
        let x = DataVector::new(d, vec![1.0, 0.0, 2.0, 0.0, 3.0]).unwrap();
        assert_eq!(x.total(), 6.0);
        assert_eq!(x.zero_cells(), 2);
        assert!((x.percent_zero() - 40.0).abs() < 1e-12);
        assert_eq!(x.get(2), 2.0);
        assert_eq!(x.len(), 5);
        assert!(!x.is_empty());
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(DataVector::new(Domain::one_dim(3), vec![1.0]).is_err());
    }

    #[test]
    fn prefix_sums_match_ranges() {
        let x = DataVector::new(Domain::one_dim(5), vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let p = x.prefix_sums();
        assert_eq!(p, vec![1.0, 3.0, 6.0, 10.0, 15.0]);
        assert_eq!(DataVector::range_from_prefix(&p, 0, 4), 15.0);
        assert_eq!(DataVector::range_from_prefix(&p, 1, 3), 9.0);
        assert_eq!(DataVector::range_from_prefix(&p, 2, 2), 3.0);
    }

    #[test]
    fn summed_area_table() {
        // 2x3 grid:
        // 1 2 3
        // 4 5 6
        // Its summed-area table, row-major.
        let sat = [1.0, 3.0, 6.0, 5.0, 12.0, 21.0];
        assert_eq!(
            DataVector::range_from_prefix_2d(&sat, 3, (0, 0), (1, 2)),
            21.0
        );
        assert_eq!(
            DataVector::range_from_prefix_2d(&sat, 3, (1, 1), (1, 2)),
            11.0
        );
        assert_eq!(
            DataVector::range_from_prefix_2d(&sat, 3, (0, 1), (1, 1)),
            7.0
        );
    }

    #[test]
    fn counts_mut_roundtrip() {
        let mut x = DataVector::new(Domain::one_dim(3), vec![0.0; 3]).unwrap();
        x.counts_mut()[1] = 5.0;
        assert_eq!(x.get(1), 5.0);
        assert_eq!(x.domain().size(), 3);
    }
}
