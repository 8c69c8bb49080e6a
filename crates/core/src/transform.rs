//! Symmetry adaptors: axis permutations and reflections of a curve.
//!
//! The paper remarks (Section IV.B) that "different Z curves are possible by
//! taking the dimensions in a different order during interleaving, but these
//! are all equivalent … at least for the metrics that we consider". These
//! adaptors make that statement *testable*: wrap a curve in an
//! [`AxisPermuted`] or [`Reflected`] adaptor and verify the stretch metrics
//! are unchanged (the `sfc-metrics` tests do exactly this).

use crate::curve::SpaceFillingCurve;
use crate::error::SfcError;
use crate::grid::Grid;
use crate::point::Point;
use crate::CurveIndex;

/// A curve composed with a permutation of the coordinate axes:
/// `π'(x) = π(x ∘ σ)`.
#[derive(Debug, Clone)]
pub struct AxisPermuted<const D: usize, C> {
    inner: C,
    /// `perm[i]` is the axis of the inner curve fed by axis `i` of the
    /// outer curve.
    perm: [usize; D],
}

impl<const D: usize, C: SpaceFillingCurve<D>> AxisPermuted<D, C> {
    /// Wraps `inner`, routing outer axis `i` to inner axis `perm[i]`.
    ///
    /// Fails unless `perm` is a permutation of `0..D`.
    pub fn new(inner: C, perm: [usize; D]) -> Result<Self, SfcError> {
        let mut seen = [false; D];
        for &axis in &perm {
            if axis >= D {
                return Err(SfcError::InvalidAxisPermutation {
                    detail: format!("axis {axis} out of range for d = {D}"),
                });
            }
            if seen[axis] {
                return Err(SfcError::InvalidAxisPermutation {
                    detail: format!("axis {axis} repeated"),
                });
            }
            seen[axis] = true;
        }
        Ok(Self { inner, perm })
    }

    /// The wrapped curve.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    fn apply(&self, p: Point<D>) -> Point<D> {
        let mut coords = [0u32; D];
        for (outer, &inner_axis) in self.perm.iter().enumerate() {
            coords[inner_axis] = p.coord(outer);
        }
        Point::new(coords)
    }

    fn unapply(&self, p: Point<D>) -> Point<D> {
        let mut coords = [0u32; D];
        for (outer, &inner_axis) in self.perm.iter().enumerate() {
            coords[outer] = p.coord(inner_axis);
        }
        Point::new(coords)
    }
}

impl<const D: usize, C: SpaceFillingCurve<D>> SpaceFillingCurve<D> for AxisPermuted<D, C> {
    fn grid(&self) -> Grid<D> {
        self.inner.grid()
    }

    fn index_of(&self, p: Point<D>) -> CurveIndex {
        self.inner.index_of(self.apply(p))
    }

    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        self.unapply(self.inner.point_of(idx))
    }

    fn name(&self) -> String {
        format!("{}∘σ{:?}", self.inner.name(), self.perm)
    }

    /// An axis permutation maps aligned cubes to aligned cubes.
    fn is_block_recursive(&self) -> bool {
        self.inner.is_block_recursive()
    }
}

/// A curve composed with reflections of selected axes:
/// `π'(x)_i = π(… , 2^k − 1 − x_i, …)` for each reflected axis `i`.
#[derive(Debug, Clone)]
pub struct Reflected<const D: usize, C> {
    inner: C,
    reflect: [bool; D],
}

impl<const D: usize, C: SpaceFillingCurve<D>> Reflected<D, C> {
    /// Wraps `inner`, reflecting every axis `i` with `reflect[i] == true`.
    pub fn new(inner: C, reflect: [bool; D]) -> Self {
        Self { inner, reflect }
    }

    /// The wrapped curve.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    fn mirror(&self, p: Point<D>) -> Point<D> {
        let max = (self.inner.grid().side() - 1) as u32;
        let mut coords = p.coords();
        for (c, &flip) in coords.iter_mut().zip(self.reflect.iter()) {
            if flip {
                *c = max - *c;
            }
        }
        Point::new(coords)
    }
}

impl<const D: usize, C: SpaceFillingCurve<D>> SpaceFillingCurve<D> for Reflected<D, C> {
    fn grid(&self) -> Grid<D> {
        self.inner.grid()
    }

    fn index_of(&self, p: Point<D>) -> CurveIndex {
        self.inner.index_of(self.mirror(p))
    }

    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        self.mirror(self.inner.point_of(idx))
    }

    fn name(&self) -> String {
        format!("{}·refl", self.inner.name())
    }

    /// Mirroring an axis maps aligned cubes to aligned cubes.
    fn is_block_recursive(&self) -> bool {
        self.inner.is_block_recursive()
    }
}

/// A curve traversed backwards: `π'(x) = n − 1 − π(x)`.
///
/// Reversal preserves every stretch metric exactly
/// (`|π'(α) − π'(β)| = |π(α) − π(β)|`), which the metric tests exploit.
#[derive(Debug, Clone)]
pub struct Reversed<C> {
    inner: C,
}

impl<C> Reversed<C> {
    /// Wraps `inner`, reversing its traversal order.
    pub fn new(inner: C) -> Self {
        Self { inner }
    }

    /// The wrapped curve.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<const D: usize, C: SpaceFillingCurve<D>> SpaceFillingCurve<D> for Reversed<C> {
    fn grid(&self) -> Grid<D> {
        self.inner.grid()
    }

    fn index_of(&self, p: Point<D>) -> CurveIndex {
        self.inner.grid().n() - 1 - self.inner.index_of(p)
    }

    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        self.inner.point_of(self.inner.grid().n() - 1 - idx)
    }

    fn name(&self) -> String {
        format!("{}·rev", self.inner.name())
    }

    /// `n − 1 − i` maps aligned index ranges to aligned index ranges.
    fn is_block_recursive(&self) -> bool {
        self.inner.is_block_recursive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::ZCurve;
    use crate::simple::SimpleCurve;

    #[test]
    fn axis_permuted_curve_is_a_bijection() {
        let z = ZCurve::<3>::new(2).unwrap();
        let p = AxisPermuted::new(z, [2, 0, 1]).unwrap();
        p.validate_bijection().unwrap();
    }

    #[test]
    fn axis_permutation_validation() {
        let z = ZCurve::<3>::new(1).unwrap();
        assert!(AxisPermuted::new(z, [0, 1, 2]).is_ok());
        assert!(matches!(
            AxisPermuted::new(z, [0, 0, 2]),
            Err(SfcError::InvalidAxisPermutation { .. })
        ));
        assert!(matches!(
            AxisPermuted::new(z, [0, 1, 3]),
            Err(SfcError::InvalidAxisPermutation { .. })
        ));
    }

    #[test]
    fn identity_permutation_is_transparent() {
        let z = ZCurve::<2>::new(3).unwrap();
        let wrapped = AxisPermuted::new(z, [0, 1]).unwrap();
        for p in z.grid().cells() {
            assert_eq!(wrapped.index_of(p), z.index_of(p));
        }
    }

    #[test]
    fn swapping_axes_of_z_swaps_interleave_roles() {
        let z = ZCurve::<2>::new(1).unwrap();
        let sw = AxisPermuted::new(z, [1, 0]).unwrap();
        // Under the swap, the outer point (1, 0) maps to inner (0, 1):
        // key = 01.
        assert_eq!(sw.index_of(Point::new([1, 0])), 0b01);
        assert_eq!(sw.index_of(Point::new([0, 1])), 0b10);
        sw.validate_bijection().unwrap();
    }

    #[test]
    fn reflected_curve_is_a_bijection() {
        let s = SimpleCurve::<2>::new(2).unwrap();
        let r = Reflected::new(s, [true, false]);
        r.validate_bijection().unwrap();
        // Reflecting axis 0: cell (0, y) now has the index (3, y) had.
        assert_eq!(
            r.index_of(Point::new([0, 1])),
            s.index_of(Point::new([3, 1]))
        );
    }

    #[test]
    fn double_reflection_is_identity() {
        let z = ZCurve::<2>::new(2).unwrap();
        let rr = Reflected::new(Reflected::new(z, [true, true]), [true, true]);
        for p in z.grid().cells() {
            assert_eq!(rr.index_of(p), z.index_of(p));
        }
    }

    #[test]
    fn reversed_curve_is_a_bijection_preserving_distances() {
        let z = ZCurve::<2>::new(2).unwrap();
        let rev = Reversed::new(z);
        rev.validate_bijection().unwrap();
        for a in z.grid().cells() {
            for b in z.grid().cells() {
                assert_eq!(rev.curve_distance(a, b), z.curve_distance(a, b));
            }
        }
    }

    #[test]
    fn names_compose() {
        let z = ZCurve::<2>::new(1).unwrap();
        assert!(Reversed::new(z).name().contains("rev"));
        assert!(Reflected::new(z, [true, false]).name().contains("refl"));
        assert!(AxisPermuted::new(z, [1, 0]).unwrap().name().contains("σ"));
    }
}
