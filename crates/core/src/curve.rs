//! The space filling curve abstraction.
//!
//! The paper defines an SFC as **any bijection** `π : U → {0, …, n−1}`
//! (Section III) — including self-intersecting orders such as Figure 1's
//! `π₂`. [`SpaceFillingCurve`] captures exactly that contract; bijectivity
//! of an implementation can be checked exhaustively with
//! [`SpaceFillingCurve::validate_bijection`].

use crate::error::SfcError;
use crate::grid::Grid;
use crate::point::Point;
use crate::{index_distance, CurveIndex};
use std::fmt;

/// A space filling curve: a bijection from the cells of a [`Grid`] onto
/// `{0, 1, …, n−1}`.
///
/// Implementations must satisfy, for every in-bounds point `p` and every
/// index `i < n`:
///
/// * `point_of(index_of(p)) == p` and `index_of(point_of(i)) == i`
///   (bijectivity);
/// * `index_of(p) < n`.
///
/// Out-of-bounds inputs may panic or return arbitrary values; callers are
/// expected to stay within [`Self::grid`].
pub trait SpaceFillingCurve<const D: usize> {
    /// The universe this curve fills.
    fn grid(&self) -> Grid<D>;

    /// The curve index (the paper's `π(α)`) of a cell.
    fn index_of(&self, p: Point<D>) -> CurveIndex;

    /// The cell at a given curve position (the inverse bijection `π⁻¹`).
    fn point_of(&self, idx: CurveIndex) -> Point<D>;

    /// Encodes a batch of points, appending one index per point to `out`
    /// (after clearing it).
    ///
    /// Semantically identical to mapping [`Self::index_of`] over `points`;
    /// implementations override it with table-driven kernels that amortize
    /// per-call overhead and keep the loop free of per-element branches
    /// (see [`ZCurve`](crate::ZCurve) and
    /// [`HilbertCurve`](crate::HilbertCurve)). This is the entry point all
    /// bulk workloads (index build, metric sweeps, n-body decomposition)
    /// go through.
    fn index_of_batch(&self, points: &[Point<D>], out: &mut Vec<CurveIndex>) {
        out.clear();
        out.reserve(points.len());
        out.extend(points.iter().map(|&p| self.index_of(p)));
    }

    /// Decodes a batch of indices, appending one point per index to `out`
    /// (after clearing it). Semantically identical to mapping
    /// [`Self::point_of`] over `indices`.
    fn point_of_batch(&self, indices: &[CurveIndex], out: &mut Vec<Point<D>>) {
        out.clear();
        out.reserve(indices.len());
        out.extend(indices.iter().map(|&i| self.point_of(i)));
    }

    /// A short human-readable name ("Z", "Hilbert", …) used in reports.
    fn name(&self) -> String {
        "unnamed".to_string()
    }

    /// The Morton order backing this curve, if this *is* the Z curve
    /// (possibly behind a reference or smart pointer).
    ///
    /// Generic code uses this to unlock Morton-only machinery — BIGMIN
    /// range jumps, `Z(lo)..Z(hi)` key-range bounds — at runtime without
    /// needing a `ZCurve`-specialised impl block. Every other curve keeps
    /// the default `None` and falls back to curve-agnostic strategies.
    fn as_morton(&self) -> Option<&crate::morton::ZCurve<D>> {
        None
    }

    /// `true` iff the curve is *block recursive*: every aligned cube of
    /// side `2^j` (corner coordinates multiples of `2^j`) maps onto one
    /// contiguous index range aligned to `2^(jD)`. The Z, Hilbert and
    /// Gray-code curves have the property; snake, spiral, diagonal and
    /// row-major orders do not, and an arbitrary bijection need not.
    ///
    /// Generic code uses this to cover a box with `O(perimeter)` whole
    /// cubes, each costing one [`Self::index_of`], instead of encoding
    /// every cell. Answering `true` is a promise the caller relies on for
    /// correctness; the default `false` is always safe.
    fn is_block_recursive(&self) -> bool {
        false
    }

    /// The paper's `Δπ(α, β) = |π(α) − π(β)|`: the distance between two
    /// cells *along the curve*.
    #[inline]
    fn curve_distance(&self, a: Point<D>, b: Point<D>) -> CurveIndex {
        index_distance(self.index_of(a), self.index_of(b))
    }

    /// Iterates all cells in curve order (`π⁻¹(0), π⁻¹(1), …`).
    fn traverse(&self) -> CurveOrderIter<'_, D, Self>
    where
        Self: Sized,
    {
        CurveOrderIter {
            curve: self,
            next: 0,
            n: self.grid().n(),
        }
    }

    /// Exhaustively verifies that this curve is a bijection onto
    /// `{0, …, n−1}`. Intended for tests and for validating user-supplied
    /// curves; cost is `O(n)` time and `O(n)` bits of memory.
    fn validate_bijection(&self) -> Result<(), SfcError> {
        let n = self.grid().n();
        let n_usize = usize::try_from(n).map_err(|_| SfcError::TooManyCells { n })?;
        let mut seen = vec![false; n_usize];
        for p in self.grid().cells() {
            let idx = self.index_of(p);
            if idx >= n {
                return Err(SfcError::NotABijection {
                    detail: format!("index_of({p}) = {idx} out of range (n = {n})"),
                });
            }
            let slot = &mut seen[idx as usize];
            if *slot {
                return Err(SfcError::NotABijection {
                    detail: format!("index {idx} assigned to more than one cell"),
                });
            }
            *slot = true;
            let back = self.point_of(idx);
            if back != p {
                return Err(SfcError::NotABijection {
                    detail: format!("point_of(index_of({p})) = {back} ≠ {p}"),
                });
            }
        }
        Ok(())
    }

    /// `true` iff consecutive curve positions are always nearest neighbors
    /// in the grid — the classical "continuous curve" property. The paper's
    /// general definition does **not** require this (e.g. the Z curve and
    /// Figure 1's `π₂` violate it); Hilbert and snake satisfy it.
    ///
    /// Cost is `O(n)`; intended for tests and small grids.
    fn is_continuous(&self) -> bool {
        let n = self.grid().n();
        let mut prev = self.point_of(0);
        let mut idx = 1u128;
        while idx < n {
            let cur = self.point_of(idx);
            if prev.manhattan(&cur) != 1 {
                return false;
            }
            prev = cur;
            idx += 1;
        }
        true
    }
}

/// Iterator over the cells of a curve in curve order.
pub struct CurveOrderIter<'a, const D: usize, C: SpaceFillingCurve<D> + ?Sized> {
    curve: &'a C,
    next: CurveIndex,
    n: u128,
}

impl<const D: usize, C: SpaceFillingCurve<D> + ?Sized> fmt::Debug for CurveOrderIter<'_, D, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CurveOrderIter")
            .field("next", &self.next)
            .field("n", &self.n)
            .finish()
    }
}

impl<const D: usize, C: SpaceFillingCurve<D> + ?Sized> Iterator for CurveOrderIter<'_, D, C> {
    type Item = Point<D>;

    fn next(&mut self) -> Option<Point<D>> {
        if self.next >= self.n {
            return None;
        }
        let p = self.curve.point_of(self.next);
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = usize::try_from(self.n - self.next).ok();
        (rem.unwrap_or(usize::MAX), rem)
    }
}

/// A heap-allocated, dynamically dispatched curve. Useful when sweeping over
/// several curve families with one code path (as the experiment harness
/// does).
pub type BoxedCurve<const D: usize> = Box<dyn SpaceFillingCurve<D> + Send + Sync>;

/// A reference-counted, dynamically dispatched curve: cheap to clone, so
/// one curve instance can back many structures at once (e.g. every sorted
/// run of an LSM-style store).
pub type SharedCurve<const D: usize> = std::sync::Arc<dyn SpaceFillingCurve<D> + Send + Sync>;

macro_rules! impl_curve_for_smart_pointer {
    ($($ptr:ident :: $name:ident),*) => {$(
        impl<const D: usize, C: SpaceFillingCurve<D> + ?Sized> SpaceFillingCurve<D>
            for std::$ptr::$name<C>
        {
            fn grid(&self) -> Grid<D> {
                (**self).grid()
            }
            fn index_of(&self, p: Point<D>) -> CurveIndex {
                (**self).index_of(p)
            }
            fn point_of(&self, idx: CurveIndex) -> Point<D> {
                (**self).point_of(idx)
            }
            fn index_of_batch(&self, points: &[Point<D>], out: &mut Vec<CurveIndex>) {
                (**self).index_of_batch(points, out)
            }
            fn point_of_batch(&self, indices: &[CurveIndex], out: &mut Vec<Point<D>>) {
                (**self).point_of_batch(indices, out)
            }
            fn name(&self) -> String {
                (**self).name()
            }
            fn as_morton(&self) -> Option<&crate::morton::ZCurve<D>> {
                (**self).as_morton()
            }
            fn is_block_recursive(&self) -> bool {
                (**self).is_block_recursive()
            }
        }
    )*};
}

// `Arc<C>` / `Rc<C>` delegate like `&C` does: clone-shareable curve handles
// satisfy the same bound as the curve itself, which is what lets multi-run
// structures hold "one curve per run" without duplicating table state.
impl_curve_for_smart_pointer!(sync::Arc, rc::Rc);

impl<const D: usize> SpaceFillingCurve<D> for BoxedCurve<D> {
    fn grid(&self) -> Grid<D> {
        (**self).grid()
    }
    fn index_of(&self, p: Point<D>) -> CurveIndex {
        (**self).index_of(p)
    }
    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        (**self).point_of(idx)
    }
    fn index_of_batch(&self, points: &[Point<D>], out: &mut Vec<CurveIndex>) {
        (**self).index_of_batch(points, out)
    }
    fn point_of_batch(&self, indices: &[CurveIndex], out: &mut Vec<Point<D>>) {
        (**self).point_of_batch(indices, out)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn as_morton(&self) -> Option<&crate::morton::ZCurve<D>> {
        (**self).as_morton()
    }
    fn is_block_recursive(&self) -> bool {
        (**self).is_block_recursive()
    }
}

impl<const D: usize, C: SpaceFillingCurve<D> + ?Sized> SpaceFillingCurve<D> for &C {
    fn grid(&self) -> Grid<D> {
        (**self).grid()
    }
    fn index_of(&self, p: Point<D>) -> CurveIndex {
        (**self).index_of(p)
    }
    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        (**self).point_of(idx)
    }
    fn index_of_batch(&self, points: &[Point<D>], out: &mut Vec<CurveIndex>) {
        (**self).index_of_batch(points, out)
    }
    fn point_of_batch(&self, indices: &[CurveIndex], out: &mut Vec<Point<D>>) {
        (**self).point_of_batch(indices, out)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn as_morton(&self) -> Option<&crate::morton::ZCurve<D>> {
        (**self).as_morton()
    }
    fn is_block_recursive(&self) -> bool {
        (**self).is_block_recursive()
    }
}

/// The analytic curve families shipped with this crate.
///
/// [`CurveKind::build`] constructs a boxed instance, which is how the
/// experiment harness sweeps "every curve" uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CurveKind {
    /// The Z curve / Morton order (paper, Section IV.B).
    Z,
    /// The paper's "simple curve" (Eq. 8): row-major order.
    Simple,
    /// Boustrophedon (snake) order: row-major with alternating direction.
    Snake,
    /// The Gray-code curve of Faloutsos.
    Gray,
    /// The d-dimensional Hilbert curve.
    Hilbert,
}

impl CurveKind {
    /// All analytic curve kinds, in the order reports present them.
    pub const ALL: [CurveKind; 5] = [
        CurveKind::Z,
        CurveKind::Simple,
        CurveKind::Snake,
        CurveKind::Gray,
        CurveKind::Hilbert,
    ];

    /// Constructs the curve of this kind over the grid of side `2^k`.
    pub fn build<const D: usize>(self, k: u32) -> Result<BoxedCurve<D>, SfcError> {
        Ok(match self {
            CurveKind::Z => Box::new(crate::morton::ZCurve::<D>::new(k)?),
            CurveKind::Simple => Box::new(crate::simple::SimpleCurve::<D>::new(k)?),
            CurveKind::Snake => Box::new(crate::snake::SnakeCurve::<D>::new(k)?),
            CurveKind::Gray => Box::new(crate::gray::GrayCurve::<D>::new(k)?),
            CurveKind::Hilbert => Box::new(crate::hilbert::HilbertCurve::<D>::new(k)?),
        })
    }

    /// The display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            CurveKind::Z => "Z",
            CurveKind::Simple => "simple",
            CurveKind::Snake => "snake",
            CurveKind::Gray => "gray",
            CurveKind::Hilbert => "hilbert",
        }
    }
}

impl fmt::Display for CurveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::ZCurve;
    use crate::simple::SimpleCurve;

    #[test]
    fn every_builtin_curve_is_a_bijection_on_small_grids() {
        for kind in CurveKind::ALL {
            for k in 0..=3 {
                let c2 = kind.build::<2>(k).unwrap();
                c2.validate_bijection()
                    .unwrap_or_else(|e| panic!("{kind} d=2 k={k}: {e}"));
                let c3 = kind.build::<3>(k.min(2)).unwrap();
                c3.validate_bijection()
                    .unwrap_or_else(|e| panic!("{kind} d=3: {e}"));
            }
        }
    }

    #[test]
    fn traverse_visits_cells_in_index_order() {
        let z = ZCurve::<2>::new(2).unwrap();
        for (i, p) in z.traverse().enumerate() {
            assert_eq!(z.index_of(p), i as u128);
        }
        assert_eq!(z.traverse().count(), 16);
    }

    #[test]
    fn traverse_size_hint() {
        let z = ZCurve::<2>::new(1).unwrap();
        let mut it = z.traverse();
        assert_eq!(it.size_hint(), (4, Some(4)));
        it.next();
        assert_eq!(it.size_hint(), (3, Some(3)));
    }

    #[test]
    fn curve_distance_is_symmetric() {
        let z = ZCurve::<2>::new(3).unwrap();
        let a = Point::new([1, 5]);
        let b = Point::new([6, 2]);
        assert_eq!(z.curve_distance(a, b), z.curve_distance(b, a));
        assert_eq!(z.curve_distance(a, a), 0);
    }

    #[test]
    fn continuity_classification_matches_theory() {
        // Snake and Hilbert are continuous; Z, simple (for k≥1, d≥2) and
        // gray are not.
        assert!(CurveKind::Snake.build::<2>(3).unwrap().is_continuous());
        assert!(CurveKind::Hilbert.build::<2>(3).unwrap().is_continuous());
        assert!(CurveKind::Hilbert.build::<3>(2).unwrap().is_continuous());
        assert!(!CurveKind::Z.build::<2>(2).unwrap().is_continuous());
        assert!(!CurveKind::Simple.build::<2>(2).unwrap().is_continuous());
        // In one dimension every monotone order is continuous.
        assert!(CurveKind::Simple.build::<1>(4).unwrap().is_continuous());
    }

    #[test]
    fn boxed_curve_delegates() {
        let boxed: BoxedCurve<2> = Box::new(SimpleCurve::<2>::new(2).unwrap());
        assert_eq!(boxed.grid().n(), 16);
        let p = Point::new([3, 1]);
        assert_eq!(boxed.index_of(p), 7);
        assert_eq!(boxed.point_of(7), p);
        assert_eq!(boxed.name(), "simple");
        boxed.validate_bijection().unwrap();
    }

    #[test]
    fn reference_to_curve_implements_trait() {
        let z = ZCurve::<2>::new(2).unwrap();
        fn takes_curve<C: SpaceFillingCurve<2>>(c: C) -> u128 {
            c.index_of(Point::new([0, 0]))
        }
        assert_eq!(takes_curve(z), 0);
    }

    #[test]
    fn shared_curve_handles_delegate() {
        let shared: SharedCurve<2> = std::sync::Arc::new(ZCurve::<2>::new(2).unwrap());
        let clone = shared.clone();
        assert_eq!(shared.grid().n(), 16);
        let p = Point::new([2, 3]);
        assert_eq!(clone.index_of(p), shared.index_of(p));
        assert_eq!(clone.point_of(13), shared.point_of(13));
        assert_eq!(shared.name(), "Z");
        let rc = std::rc::Rc::new(SimpleCurve::<2>::new(2).unwrap());
        assert_eq!(rc.index_of(Point::new([3, 1])), 7);
        let mut out = Vec::new();
        rc.index_of_batch(&[Point::new([3, 1])], &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn curve_kind_display_names() {
        assert_eq!(CurveKind::Z.to_string(), "Z");
        assert_eq!(CurveKind::Hilbert.to_string(), "hilbert");
        assert_eq!(CurveKind::ALL.len(), 5);
    }
}
