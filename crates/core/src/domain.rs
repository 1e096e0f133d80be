//! Data domains.
//!
//! The paper works over a finite value domain `T = {v₁, …, v_k}` (Section 2)
//! and, for the multidimensional range-query workloads of Section 5, over
//! product domains `T = [k]^d` (Section 5.1). We index product domains in
//! row-major order so a database is always a flat histogram vector.

use crate::CoreError;

/// A finite, possibly multidimensional, data domain.
///
/// A `Domain` is a product `[k₁] × [k₂] × … × [k_d]` of per-dimension sizes;
/// 1-dimensional domains are the common case. Values are identified with
/// their row-major *flat index* in `0..size()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Domain {
    dims: Vec<usize>,
    /// Row-major strides; `strides[d]` is the flat-index step of dimension d.
    strides: Vec<usize>,
    size: usize,
}

impl Domain {
    /// A one-dimensional domain of `k` values.
    pub fn one_dim(k: usize) -> Self {
        Domain::product(&[k]).expect("one-dimensional domain is always valid")
    }

    /// The square two-dimensional domain `[k] × [k]` (the paper's grid maps).
    pub fn square(k: usize) -> Self {
        Domain::product(&[k, k]).expect("square domain is always valid")
    }

    /// A product domain with the given per-dimension sizes.
    pub fn product(dims: &[usize]) -> Result<Self, CoreError> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(CoreError::EmptyDomain);
        }
        let mut size = 1usize;
        for &k in dims {
            size = size.checked_mul(k).ok_or(CoreError::DomainTooLarge)?;
        }
        // Row-major: the last dimension varies fastest.
        let mut strides = vec![1; dims.len()];
        for d in (0..dims.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * dims[d + 1];
        }
        Ok(Domain {
            dims: dims.to_vec(),
            strides,
            size,
        })
    }

    /// Total number of domain values `|T|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of dimensions `d`.
    #[inline]
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension sizes.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Size of dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// Flat index of a multi-index (row-major).
    ///
    /// Returns an error if the coordinate count or any coordinate is out of
    /// range.
    pub fn flat_index(&self, coords: &[usize]) -> Result<usize, CoreError> {
        if coords.len() != self.dims.len() {
            return Err(CoreError::DimensionMismatch {
                expected: self.dims.len(),
                got: coords.len(),
            });
        }
        let mut idx = 0usize;
        for ((&c, &k), &s) in coords.iter().zip(&self.dims).zip(&self.strides) {
            if c >= k {
                return Err(CoreError::CoordinateOutOfRange {
                    coord: c,
                    dim_size: k,
                });
            }
            idx += c * s;
        }
        Ok(idx)
    }

    /// Multi-index of a flat index (row-major).
    pub fn coords(&self, flat: usize) -> Result<Vec<usize>, CoreError> {
        if flat >= self.size {
            return Err(CoreError::CoordinateOutOfRange {
                coord: flat,
                dim_size: self.size,
            });
        }
        let mut rem = flat;
        let mut out = Vec::with_capacity(self.dims.len());
        for &s in &self.strides {
            out.push(rem / s);
            rem %= s;
        }
        Ok(out)
    }

    /// L1 (Manhattan) distance between two flat indices, interpreting both
    /// as points of the product domain. This is the distance that defines
    /// the paper's distance-threshold policies `G^θ_{k^d}`.
    ///
    /// Reads each coordinate off the row-major strides, allocating
    /// nothing; an out-of-range index fails as [`Domain::coords`] does,
    /// `a` first. The reference the policy tests check generated
    /// distance-threshold edges against.
    #[cfg(test)]
    pub fn l1_distance(&self, a: usize, b: usize) -> Result<usize, CoreError> {
        for flat in [a, b] {
            if flat >= self.size {
                return Err(CoreError::CoordinateOutOfRange {
                    coord: flat,
                    dim_size: self.size,
                });
            }
        }
        let (mut ra, mut rb) = (a, b);
        let mut dist = 0;
        for &s in &self.strides {
            dist += (ra / s).abs_diff(rb / s);
            ra %= s;
            rb %= s;
        }
        Ok(dist)
    }

    /// Iterates all flat indices.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        0..self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_dim_basics() {
        let d = Domain::one_dim(10);
        assert_eq!(d.size(), 10);
        assert_eq!(d.num_dims(), 1);
        assert_eq!(d.flat_index(&[7]).unwrap(), 7);
        assert_eq!(d.coords(7).unwrap(), vec![7]);
    }

    #[test]
    fn square_row_major() {
        let d = Domain::square(4);
        assert_eq!(d.size(), 16);
        assert_eq!(d.flat_index(&[0, 0]).unwrap(), 0);
        assert_eq!(d.flat_index(&[0, 3]).unwrap(), 3);
        assert_eq!(d.flat_index(&[1, 0]).unwrap(), 4);
        assert_eq!(d.flat_index(&[3, 3]).unwrap(), 15);
        assert_eq!(d.coords(6).unwrap(), vec![1, 2]);
    }

    #[test]
    fn flat_coords_roundtrip() {
        let d = Domain::product(&[3, 4, 5]).unwrap();
        for i in 0..d.size() {
            let c = d.coords(i).unwrap();
            assert_eq!(d.flat_index(&c).unwrap(), i);
        }
    }

    #[test]
    fn l1_distance_grid() {
        let d = Domain::square(5);
        let a = d.flat_index(&[1, 1]).unwrap();
        let b = d.flat_index(&[3, 4]).unwrap();
        assert_eq!(d.l1_distance(a, b).unwrap(), 2 + 3);
        assert_eq!(d.l1_distance(a, a).unwrap(), 0);
        // Every pair of a 1-D, a 2-D and a 3-D domain agrees with the
        // coordinate-vector definition.
        for dims in [&[7][..], &[5, 7], &[3, 4, 5]] {
            let d = Domain::product(dims).unwrap();
            for a in d.iter() {
                for b in d.iter() {
                    let (ca, cb) = (d.coords(a).unwrap(), d.coords(b).unwrap());
                    let want: usize = ca.iter().zip(&cb).map(|(&x, &y)| x.abs_diff(y)).sum();
                    assert_eq!(d.l1_distance(a, b).unwrap(), want, "{dims:?} {a} {b}");
                }
            }
            // Out of range on either side, reported for the first bad index.
            let n = d.size();
            for (a, b, bad) in [(n, 0, n), (0, n + 3, n + 3), (n + 1, n + 2, n + 1)] {
                assert_eq!(
                    d.l1_distance(a, b),
                    Err(CoreError::CoordinateOutOfRange {
                        coord: bad,
                        dim_size: n
                    })
                );
            }
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Domain::product(&[]).is_err());
        assert!(Domain::product(&[3, 0]).is_err());
        let d = Domain::square(3);
        assert!(d.flat_index(&[1]).is_err());
        assert!(d.flat_index(&[3, 0]).is_err());
        assert!(d.coords(9).is_err());
    }

    #[test]
    fn hypercube() {
        let d = Domain::product(&[3, 3, 3]).unwrap();
        assert_eq!(d.size(), 27);
        assert_eq!(d.dims(), &[3, 3, 3]);
        assert_eq!(d.dim(1), 3);
        assert_eq!(d.iter().count(), 27);
    }

    #[test]
    fn mixed_dimension_sizes() {
        let d = Domain::product(&[2, 6]).unwrap();
        assert_eq!(d.size(), 12);
        assert_eq!(d.flat_index(&[1, 2]).unwrap(), 8);
    }
}
