//! The Gray-code curve (Faloutsos [9, 10] in the paper's bibliography).
//!
//! The Gray-code curve orders cells so that the *interleaved* bit
//! representation of consecutive cells differs in exactly one bit: cell `x`
//! receives index `π(x)` with `gray(π(x)) = Z(x)`, where `Z` is the Morton
//! interleaving (with the paper's bit convention) and `gray` is the binary-
//! reflected Gray code.
//!
//! The paper compares against this curve as one of the "popularly used"
//! SFCs (Section I); it is included here so the stretch experiments can
//! sweep it alongside Z, Hilbert, simple and snake.

use crate::bits::{gray, gray_inverse};
use crate::curve::SpaceFillingCurve;
use crate::error::SfcError;
use crate::grid::Grid;
use crate::morton::ZCurve;
use crate::point::Point;
use crate::CurveIndex;

/// The `d`-dimensional Gray-code curve on the grid of side `2^k`.
///
/// ```
/// use sfc_core::{GrayCurve, Point, SpaceFillingCurve};
/// let g = GrayCurve::<2>::new(1).unwrap();
/// // On a 2×2 grid the Gray curve visits interleaved keys in Gray-code
/// // order 00, 01, 11, 10.
/// let order: Vec<_> = g.traverse().collect();
/// assert_eq!(order[0], Point::new([0, 0]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrayCurve<const D: usize> {
    morton: ZCurve<D>,
}

impl<const D: usize> GrayCurve<D> {
    /// Creates the Gray-code curve over the grid of side `2^k`.
    pub fn new(k: u32) -> Result<Self, SfcError> {
        Ok(Self {
            morton: ZCurve::new(k)?,
        })
    }

    /// Creates the Gray-code curve over an existing grid.
    pub fn over(grid: Grid<D>) -> Self {
        Self {
            morton: ZCurve::over(grid),
        }
    }
}

impl<const D: usize> SpaceFillingCurve<D> for GrayCurve<D> {
    fn grid(&self) -> Grid<D> {
        self.morton.grid()
    }

    #[inline]
    fn index_of(&self, p: Point<D>) -> CurveIndex {
        gray_inverse(self.morton.encode(p))
    }

    #[inline]
    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        self.morton.decode(gray(idx))
    }

    /// Batch encode: the Morton LUT kernel, then the Gray inverse on each
    /// key in place.
    fn index_of_batch(&self, points: &[Point<D>], out: &mut Vec<CurveIndex>) {
        self.morton.index_of_batch(points, out);
        for key in out.iter_mut() {
            *key = gray_inverse(*key);
        }
    }

    fn point_of_batch(&self, indices: &[CurveIndex], out: &mut Vec<Point<D>>) {
        out.clear();
        out.reserve(indices.len());
        out.extend(indices.iter().map(|&i| self.morton.decode(gray(i))));
    }

    fn name(&self) -> String {
        "gray".to_string()
    }

    fn is_block_recursive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_bijective() {
        GrayCurve::<1>::new(5)
            .unwrap()
            .validate_bijection()
            .unwrap();
        GrayCurve::<2>::new(3)
            .unwrap()
            .validate_bijection()
            .unwrap();
        GrayCurve::<3>::new(2)
            .unwrap()
            .validate_bijection()
            .unwrap();
        GrayCurve::<4>::new(1)
            .unwrap()
            .validate_bijection()
            .unwrap();
    }

    #[test]
    fn consecutive_cells_differ_in_one_interleaved_bit() {
        let g = GrayCurve::<2>::new(3).unwrap();
        let z = ZCurve::<2>::new(3).unwrap();
        let order: Vec<_> = g.traverse().collect();
        for pair in order.windows(2) {
            let ka = z.encode(pair[0]);
            let kb = z.encode(pair[1]);
            assert_eq!((ka ^ kb).count_ones(), 1, "{} -> {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn one_bit_interleaved_difference_means_one_coordinate_bit_flip() {
        // A single interleaved-bit difference flips exactly one bit of one
        // coordinate, so consecutive Gray-curve cells differ along exactly
        // one axis by a power of two.
        let g = GrayCurve::<3>::new(2).unwrap();
        let order: Vec<_> = g.traverse().collect();
        for pair in order.windows(2) {
            let axis = pair[0].differing_axis(&pair[1]).expect("single axis");
            let diff = pair[0].coord(axis).abs_diff(pair[1].coord(axis));
            assert!(diff.is_power_of_two(), "{} -> {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn two_by_two_traversal() {
        let g = GrayCurve::<2>::new(1).unwrap();
        let order: Vec<_> = g.traverse().collect();
        // Interleaved keys visited in Gray order 00, 01, 11, 10; with the
        // paper convention key = (x1 bit, x2 bit):
        assert_eq!(
            order,
            vec![
                Point::new([0, 0]), // key 00
                Point::new([0, 1]), // key 01
                Point::new([1, 1]), // key 11
                Point::new([1, 0]), // key 10
            ]
        );
    }

    #[test]
    fn gray_is_identity_composed_with_gray_inverse_of_z() {
        let g = GrayCurve::<2>::new(2).unwrap();
        let z = ZCurve::<2>::new(2).unwrap();
        for p in g.grid().cells() {
            assert_eq!(gray(g.index_of(p)), z.index_of(p));
        }
    }
}
