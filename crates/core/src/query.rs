//! Linear queries.
//!
//! A linear query (Section 2) is a length-`k` row vector `q` with answer
//! `q · x`. Almost every query in the paper — histogram cells, prefix sums,
//! range counts, and their `P_G`-transformed versions — is extremely sparse,
//! so queries are stored as sorted `(index, coefficient)` pairs.

use crate::CoreError;

/// A sparse linear query over a domain of `arity` cells.
#[derive(Clone, Debug, PartialEq)]
pub struct LinearQuery {
    arity: usize,
    /// Sorted by index, no duplicates, no explicit zeros.
    entries: Vec<(usize, f64)>,
}

impl LinearQuery {
    /// Builds a query from unsorted `(index, coefficient)` pairs; duplicate
    /// indices are summed and zero coefficients dropped.
    pub fn new(arity: usize, mut entries: Vec<(usize, f64)>) -> Result<Self, CoreError> {
        if entries.iter().any(|&(i, _)| i >= arity) {
            return Err(CoreError::QueryIndexOutOfRange { arity });
        }
        entries.sort_unstable_by_key(|&(i, _)| i);
        let mut compact: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            match compact.last_mut() {
                Some((li, lv)) if *li == i => *lv += v,
                _ => compact.push((i, v)),
            }
        }
        compact.retain(|&(_, v)| v != 0.0);
        Ok(LinearQuery {
            arity,
            entries: compact,
        })
    }

    /// The counting query selecting exactly the cells in `indices`
    /// (coefficient 1 each).
    pub fn counting(arity: usize, indices: &[usize]) -> Result<Self, CoreError> {
        LinearQuery::new(arity, indices.iter().map(|&i| (i, 1.0)).collect())
    }

    /// The point query for cell `i` (a histogram cell).
    pub fn point(arity: usize, i: usize) -> Result<Self, CoreError> {
        LinearQuery::new(arity, vec![(i, 1.0)])
    }

    /// The 1-D range-count query `q(l, r)` with inclusive bounds.
    pub fn range(arity: usize, l: usize, r: usize) -> Result<Self, CoreError> {
        if l > r || r >= arity {
            return Err(CoreError::InvalidRange { l, r, arity });
        }
        LinearQuery::new(arity, (l..=r).map(|i| (i, 1.0)).collect())
    }

    /// The prefix-sum query `Σ_{j ≤ i} x[j]` (a row of the cumulative
    /// workload `C_k`, Figure 1).
    pub fn prefix(arity: usize, i: usize) -> Result<Self, CoreError> {
        LinearQuery::range(arity, 0, i)
    }

    /// Number of domain cells the query is defined over.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The sparse `(index, coefficient)` entries, sorted by index.
    #[inline]
    pub fn entries(&self) -> &[(usize, f64)] {
        &self.entries
    }

    /// Number of nonzero coefficients.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Coefficient at index `i`.
    pub fn coeff(&self, i: usize) -> f64 {
        self.entries
            .binary_search_by_key(&i, |&(j, _)| j)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Evaluates `q · x`.
    pub fn answer(&self, x: &[f64]) -> Result<f64, CoreError> {
        if x.len() != self.arity {
            return Err(CoreError::DataShapeMismatch {
                domain_size: self.arity,
                data_len: x.len(),
            });
        }
        Ok(self.entries.iter().map(|&(i, v)| v * x[i]).sum())
    }

    /// Splits the query support into maximal runs of *consecutive* indices,
    /// returning `(start, end, coefficients)` triples. The Section-5
    /// strategies rely on transformed range queries decomposing into a small
    /// number of contiguous runs over the edge ordering (Figures 4 and 6c).
    pub fn contiguous_runs(&self) -> Vec<(usize, usize, Vec<f64>)> {
        let mut runs = Vec::new();
        let mut iter = self.entries.iter().peekable();
        while let Some(&(start, v)) = iter.next() {
            let mut coeffs = vec![v];
            let mut end = start;
            while let Some(&&(j, w)) = iter.peek() {
                if j == end + 1 {
                    coeffs.push(w);
                    end = j;
                    iter.next();
                } else {
                    break;
                }
            }
            runs.push((start, end, coeffs));
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_dedup_and_zero_drop() {
        let q = LinearQuery::new(5, vec![(3, 1.0), (1, 2.0), (3, -1.0), (2, 0.0)]).unwrap();
        assert_eq!(q.entries(), &[(1, 2.0)]);
        assert_eq!(q.nnz(), 1);
        assert!(LinearQuery::new(2, vec![(5, 1.0)]).is_err());
    }

    #[test]
    fn range_and_prefix() {
        let q = LinearQuery::range(6, 2, 4).unwrap();
        assert_eq!(q.entries(), &[(2, 1.0), (3, 1.0), (4, 1.0)]);
        let p = LinearQuery::prefix(4, 2).unwrap();
        assert_eq!(p.entries(), &[(0, 1.0), (1, 1.0), (2, 1.0)]);
        assert!(LinearQuery::range(4, 3, 2).is_err());
        assert!(LinearQuery::range(4, 0, 4).is_err());
    }

    #[test]
    fn answer_evaluates() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let q = LinearQuery::range(4, 1, 2).unwrap();
        assert_eq!(q.answer(&x).unwrap(), 5.0);
        assert!(q.answer(&[1.0]).is_err());
    }

    #[test]
    fn coeff_lookup() {
        let q = LinearQuery::new(5, vec![(1, 2.0), (4, -3.0)]).unwrap();
        assert_eq!(q.coeff(1), 2.0);
        assert_eq!(q.coeff(4), -3.0);
        assert_eq!(q.coeff(0), 0.0);
    }

    #[test]
    fn contiguous_runs_split() {
        let q =
            LinearQuery::new(10, vec![(0, 1.0), (1, 1.0), (5, -1.0), (6, -1.0), (8, 1.0)]).unwrap();
        let runs = q.contiguous_runs();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0], (0, 1, vec![1.0, 1.0]));
        assert_eq!(runs[1], (5, 6, vec![-1.0, -1.0]));
        assert_eq!(runs[2], (8, 8, vec![1.0]));
    }

    #[test]
    fn point_and_zero() {
        let p = LinearQuery::point(3, 1).unwrap();
        assert_eq!(p.entries(), &[(1, 1.0)]);
    }
}
