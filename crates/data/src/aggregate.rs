//! Domain re-binning.
//!
//! Figures 8d/9d evaluate dataset D at domain sizes 4096, 2048, 1024 and
//! 512 — produced by aggregating adjacent bins, exactly as done here.

use blowfish_core::{DataVector, Domain};

use crate::DataError;

/// Aggregates a 1-D histogram to a coarser domain of `new_k` cells by
/// summing equal-width consecutive bins. Requires `new_k` to divide the
/// current size.
pub fn aggregate_1d(x: &DataVector, new_k: usize) -> Result<DataVector, DataError> {
    let k = x.len();
    if x.domain().num_dims() != 1 {
        return Err(DataError::BadAggregation {
            what: "aggregate_1d requires a one-dimensional domain",
        });
    }
    if new_k == 0 || !k.is_multiple_of(new_k) {
        return Err(DataError::BadAggregation {
            what: "new domain size must divide the current size",
        });
    }
    let factor = k / new_k;
    let mut counts = vec![0.0; new_k];
    for (i, &c) in x.counts().iter().enumerate() {
        counts[i / factor] += c;
    }
    Ok(DataVector::new(Domain::one_dim(new_k), counts).expect("length matches"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_1d_sums_blocks() {
        let x = DataVector::new(
            Domain::one_dim(8),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        )
        .unwrap();
        let a = aggregate_1d(&x, 4).unwrap();
        assert_eq!(a.counts(), &[3.0, 7.0, 11.0, 15.0]);
        assert_eq!(a.total(), x.total());
        let b = aggregate_1d(&x, 2).unwrap();
        assert_eq!(b.counts(), &[10.0, 26.0]);
    }

    #[test]
    fn rejects_bad_factors() {
        let x = DataVector::new(Domain::one_dim(8), vec![0.0; 8]).unwrap();
        assert!(aggregate_1d(&x, 3).is_err());
        assert!(aggregate_1d(&x, 0).is_err());
        let x2 = DataVector::new(Domain::square(4), vec![0.0; 16]).unwrap();
        assert!(aggregate_1d(&x2, 2).is_err());
    }
}
