//! Dataspaces and hyperslab selections.

use crate::error::{H5Error, H5Result};

/// Maximum-dimension bound: `None` means H5S_UNLIMITED.
pub(crate) type MaxDim = Option<u64>;

/// An N-dimensional extent with optional growth bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataspace {
    dims: Vec<u64>,
    maxdims: Vec<MaxDim>,
}

impl Dataspace {
    /// A fixed-extent dataspace (`maxdims == dims`).
    pub fn fixed(dims: &[u64]) -> Self {
        Dataspace {
            dims: dims.to_vec(),
            maxdims: dims.iter().map(|&d| Some(d)).collect(),
        }
    }

    /// A dataspace with explicit maxdims (use `None` for unlimited).
    pub fn with_max(dims: &[u64], maxdims: &[MaxDim]) -> H5Result<Self> {
        if dims.len() != maxdims.len() {
            return Err(H5Error::RankMismatch);
        }
        for (d, m) in dims.iter().zip(maxdims) {
            if let Some(m) = m {
                if m < d {
                    return Err(H5Error::NotExtendable);
                }
            }
        }
        Ok(Dataspace {
            dims: dims.to_vec(),
            maxdims: maxdims.to_vec(),
        })
    }

    pub(crate) fn rank(&self) -> usize {
        self.dims.len()
    }

    pub(crate) fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Grow to `new_dims` (H5Dset_extent). Shrinking is allowed by HDF5 and
    /// by us; growth beyond maxdims is not.
    pub(crate) fn set_extent(&mut self, new_dims: &[u64]) -> H5Result<()> {
        if new_dims.len() != self.dims.len() {
            return Err(H5Error::RankMismatch);
        }
        for (nd, m) in new_dims.iter().zip(&self.maxdims) {
            if let Some(m) = m {
                if nd > m {
                    return Err(H5Error::NotExtendable);
                }
            }
        }
        self.dims = new_dims.to_vec();
        Ok(())
    }

    /// Validate a hyperslab against the current extent.
    pub(crate) fn check_selection(&self, sel: &Hyperslab) -> H5Result<()> {
        if sel.start.len() != self.dims.len() || sel.count.len() != self.dims.len() {
            return Err(H5Error::RankMismatch);
        }
        for ((s, c), d) in sel.start.iter().zip(&sel.count).zip(&self.dims) {
            if s.checked_add(*c).is_none() || s + c > *d {
                return Err(H5Error::SelectionOutOfBounds);
            }
        }
        Ok(())
    }

    /// Byte offset of `coord` in row-major element order.
    pub(crate) fn linear_index(&self, coord: &[u64]) -> H5Result<u64> {
        if coord.len() != self.dims.len() {
            return Err(H5Error::RankMismatch);
        }
        let mut idx = 0u64;
        for (c, d) in coord.iter().zip(&self.dims) {
            if c >= d {
                return Err(H5Error::SelectionOutOfBounds);
            }
            idx = idx * d + c;
        }
        Ok(idx)
    }
}

/// A rectangular selection: `start` corner plus `count` elements per dim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hyperslab {
    pub(crate) start: Vec<u64>,
    pub(crate) count: Vec<u64>,
}

impl Hyperslab {
    pub fn new(start: &[u64], count: &[u64]) -> Self {
        Hyperslab {
            start: start.to_vec(),
            count: count.to_vec(),
        }
    }

    /// Select everything in `space`.
    pub(crate) fn all(space: &Dataspace) -> Self {
        Hyperslab {
            start: vec![0; space.rank()],
            count: space.dims().to_vec(),
        }
    }

    pub(crate) fn npoints(&self) -> u64 {
        self.count.iter().product()
    }

    /// The contiguous row-major byte runs this selection covers, as
    /// `(element_offset, element_len)` pairs. Runs along the fastest
    /// (last) dimension merge when the selection spans it fully.
    pub(crate) fn runs(&self, space: &Dataspace) -> H5Result<Vec<(u64, u64)>> {
        space.check_selection(self)?;
        if space.rank() == 0 {
            return Ok(vec![(0, 1)]);
        }
        let rank = space.rank();
        // Contiguous tail: trailing dims selected in full.
        let mut tail_full = 0;
        for i in (0..rank).rev() {
            if self.start[i] == 0 && self.count[i] == space.dims()[i] {
                tail_full += 1;
            } else {
                break;
            }
        }
        // The last non-full dim also contributes contiguity along itself.
        let run_dims = (rank - tail_full).saturating_sub(1);
        let mut run_len = 1u64;
        for i in run_dims + 1..rank {
            run_len *= self.count[i];
        }
        run_len *= if run_dims < rank { self.count[run_dims] } else { 1 };

        // Iterate the outer coordinates.
        let mut out = Vec::new();
        let mut coord: Vec<u64> = self.start[..run_dims].to_vec();
        loop {
            // Linear offset of (coord…, start[run_dims], 0…0).
            let mut full_coord = coord.clone();
            if run_dims < rank {
                full_coord.push(self.start[run_dims]);
                full_coord.extend(std::iter::repeat_n(0, rank - run_dims - 1));
            }
            let off = space.linear_index(&full_coord)?;
            out.push((off, run_len));
            // Advance odometer over outer dims.
            let mut i = run_dims;
            loop {
                if i == 0 {
                    return Ok(out);
                }
                i -= 1;
                coord[i] += 1;
                if coord[i] < self.start[i] + self.count[i] {
                    break;
                }
                coord[i] = self.start[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn npoints_products() {
        let s = Dataspace::fixed(&[4, 5, 6]);
        assert_eq!(Hyperslab::all(&s).npoints(), 120);
        assert_eq!(Hyperslab::all(&Dataspace::fixed(&[])).npoints(), 1);
    }

    #[test]
    fn with_max_validates() {
        assert!(Dataspace::with_max(&[4], &[Some(2)]).is_err());
        assert!(Dataspace::with_max(&[4], &[Some(4), None]).is_err());
        let mut s = Dataspace::with_max(&[4], &[None]).unwrap();
        assert!(s.set_extent(&[5]).is_ok());
        assert!(Dataspace::fixed(&[4]).set_extent(&[5]).is_err());
    }

    #[test]
    fn set_extent_respects_maxdims() {
        let mut s = Dataspace::with_max(&[4, 8], &[None, Some(8)]).unwrap();
        s.set_extent(&[100, 8]).unwrap();
        assert_eq!(s.dims(), &[100, 8]);
        assert_eq!(s.set_extent(&[100, 9]), Err(H5Error::NotExtendable));
        assert_eq!(s.set_extent(&[100]), Err(H5Error::RankMismatch));
        // Shrinking allowed.
        s.set_extent(&[2, 2]).unwrap();
    }

    #[test]
    fn selection_bounds_checked() {
        let s = Dataspace::fixed(&[4, 4]);
        assert!(s.check_selection(&Hyperslab::new(&[0, 0], &[4, 4])).is_ok());
        assert_eq!(
            s.check_selection(&Hyperslab::new(&[2, 0], &[3, 1])),
            Err(H5Error::SelectionOutOfBounds)
        );
        assert_eq!(
            s.check_selection(&Hyperslab::new(&[0], &[4])),
            Err(H5Error::RankMismatch)
        );
    }

    #[test]
    fn linear_index_row_major() {
        let s = Dataspace::fixed(&[3, 4]);
        assert_eq!(s.linear_index(&[0, 0]).unwrap(), 0);
        assert_eq!(s.linear_index(&[0, 3]).unwrap(), 3);
        assert_eq!(s.linear_index(&[1, 0]).unwrap(), 4);
        assert_eq!(s.linear_index(&[2, 3]).unwrap(), 11);
        assert!(s.linear_index(&[3, 0]).is_err());
    }

    #[test]
    fn full_selection_is_one_run() {
        let s = Dataspace::fixed(&[3, 4]);
        let runs = Hyperslab::all(&s).runs(&s).unwrap();
        assert_eq!(runs, vec![(0, 12)]);
    }

    #[test]
    fn row_block_selection_runs() {
        let s = Dataspace::fixed(&[4, 8]);
        // Rows 1..3, all columns → one run of 16 starting at 8.
        let runs = Hyperslab::new(&[1, 0], &[2, 8]).runs(&s).unwrap();
        assert_eq!(runs, vec![(8, 16)]);
    }

    #[test]
    fn column_block_selection_runs() {
        let s = Dataspace::fixed(&[3, 8]);
        // Columns 2..5 of every row → three runs of 3.
        let runs = Hyperslab::new(&[0, 2], &[3, 3]).runs(&s).unwrap();
        assert_eq!(runs, vec![(2, 3), (10, 3), (18, 3)]);
    }

    #[test]
    fn runs_cover_npoints() {
        let s = Dataspace::fixed(&[5, 6, 7]);
        for sel in [
            Hyperslab::new(&[0, 0, 0], &[5, 6, 7]),
            Hyperslab::new(&[1, 2, 3], &[2, 2, 2]),
            Hyperslab::new(&[0, 0, 0], &[1, 1, 7]),
            Hyperslab::new(&[4, 5, 0], &[1, 1, 7]),
        ] {
            let runs = sel.runs(&s).unwrap();
            let total: u64 = runs.iter().map(|(_, l)| l).sum();
            assert_eq!(total, sel.npoints(), "{sel:?}");
        }
    }

    #[test]
    fn scalar_selection() {
        let s = Dataspace::fixed(&[]);
        let sel = Hyperslab::all(&s);
        assert_eq!(sel.npoints(), 1);
        assert_eq!(sel.runs(&s).unwrap(), vec![(0, 1)]);
    }

    #[test]
    fn rank1_partial_run() {
        let s = Dataspace::fixed(&[10]);
        let runs = Hyperslab::new(&[3], &[4]).runs(&s).unwrap();
        assert_eq!(runs, vec![(3, 4)]);
    }
}
