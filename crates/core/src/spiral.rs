//! The spiral (onion) curve: concentric boundary rings walked outside-in.
//!
//! A classical two-dimensional order used as a baseline in SFC comparisons
//! (e.g. Abel & Mark's comparative study, reference \[1\] of the paper). The
//! spiral is *continuous* — consecutive indices are always grid
//! neighbors — yet its average NN-stretch is still `Θ(n^{1/2})`: radial
//! neighbors on adjacent rings are nearly a full ring-perimeter apart
//! along the curve. The `more-curves` experiment measures its constant
//! against the Theorem 1 bound.
//!
//! Ring `r` (`0 ≤ r < side/2`) is the boundary of the square
//! `[r, side−1−r]²`, walked counter-clockwise starting at `(r, r)`:
//! right along the bottom edge, up the right edge, left along the top
//! edge, down the left edge. The walk ends at `(r, r+1)`, which is a grid
//! neighbor of ring `r+1`'s start `(r+1, r+1)`.

use crate::curve::SpaceFillingCurve;
use crate::error::SfcError;
use crate::grid::Grid;
use crate::point::Point;
use crate::CurveIndex;

/// The two-dimensional spiral curve on the grid of side `2^k`.
///
/// ```
/// use sfc_core::{Point, SpaceFillingCurve, SpiralCurve};
/// let s = SpiralCurve::new(1).unwrap();
/// // 2×2 traversal: (0,0) → (1,0) → (1,1) → (0,1).
/// let order: Vec<_> = s.traverse().collect();
/// assert_eq!(order[0], Point::new([0, 0]));
/// assert_eq!(order[3], Point::new([0, 1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpiralCurve {
    grid: Grid<2>,
}

impl SpiralCurve {
    /// Creates the spiral curve over the grid of side `2^k`.
    pub fn new(k: u32) -> Result<Self, SfcError> {
        Ok(Self {
            grid: Grid::new(k)?,
        })
    }

    /// Creates the spiral curve over an existing grid.
    pub fn over(grid: Grid<2>) -> Self {
        Self { grid }
    }

    /// The ring index of a cell: distance to the nearest grid edge.
    #[inline]
    fn ring(&self, p: Point<2>) -> u32 {
        let max = (self.grid.side() - 1) as u32;
        let x = p.coord(0);
        let y = p.coord(1);
        x.min(y).min(max - x).min(max - y)
    }

    /// Number of cells in all rings before ring `r`:
    /// `n − (side − 2r)²`.
    #[inline]
    fn cells_before_ring(&self, r: u32) -> u128 {
        let inner = self.grid.side() as u128 - 2 * u128::from(r);
        self.grid.n() - inner * inner
    }
}

impl SpaceFillingCurve<2> for SpiralCurve {
    fn grid(&self) -> Grid<2> {
        self.grid
    }

    fn index_of(&self, p: Point<2>) -> CurveIndex {
        let side = self.grid.side() as u128;
        let r = self.ring(p);
        let lo = u128::from(r);
        let hi = side - 1 - lo; // largest coordinate on this ring
        let edge = hi - lo; // ring side length minus 1
        let x = u128::from(p.coord(0));
        let y = u128::from(p.coord(1));
        let base = self.cells_before_ring(r);
        // Walk: bottom (y = lo, x: lo→hi), right (x = hi, y: lo+1→hi),
        // top (y = hi, x: hi−1→lo), left (x = lo, y: hi−1→lo+1).
        let offset = if y == lo {
            x - lo
        } else if x == hi {
            edge + (y - lo)
        } else if y == hi {
            2 * edge + (hi - x)
        } else {
            3 * edge + (hi - y)
        };
        base + offset
    }

    fn point_of(&self, idx: CurveIndex) -> Point<2> {
        let side = self.grid.side() as u128;
        // Find the ring by inverting cells_before_ring (at most side/2
        // rings; binary search keeps this O(log side)).
        let mut lo_r = 0u128;
        let mut hi_r = side / 2; // exclusive upper bound on ring index
        while lo_r + 1 < hi_r {
            let mid = (lo_r + hi_r) / 2;
            if self.cells_before_ring(mid as u32) <= idx {
                lo_r = mid;
            } else {
                hi_r = mid;
            }
        }
        let r = lo_r;
        let lo = r;
        let hi = side - 1 - r;
        let edge = hi - lo;
        let mut offset = idx - self.cells_before_ring(r as u32);
        if edge == 0 {
            // 1×1 inner ring cannot occur (side is even), but a 2×2 core
            // has edge = 1; guard anyway for robustness.
            return Point::new([lo as u32, lo as u32]);
        }
        if offset < edge {
            return Point::new([(lo + offset) as u32, lo as u32]);
        }
        offset -= edge;
        if offset < edge {
            return Point::new([hi as u32, (lo + offset) as u32]);
        }
        offset -= edge;
        if offset < edge {
            return Point::new([(hi - offset) as u32, hi as u32]);
        }
        offset -= edge;
        Point::new([lo as u32, (hi - offset) as u32])
    }

    fn name(&self) -> String {
        "spiral".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_bijective() {
        for k in 0..=4u32 {
            SpiralCurve::new(k).unwrap().validate_bijection().unwrap();
        }
    }

    #[test]
    fn is_continuous() {
        for k in 1..=4u32 {
            assert!(SpiralCurve::new(k).unwrap().is_continuous(), "k={k}");
        }
    }

    #[test]
    fn four_by_four_traversal() {
        let s = SpiralCurve::new(2).unwrap();
        let order: Vec<_> = s.traverse().collect();
        // Outer ring: 12 cells counter-clockwise from (0,0)…
        assert_eq!(order[0], Point::new([0, 0]));
        assert_eq!(order[3], Point::new([3, 0]));
        assert_eq!(order[6], Point::new([3, 3]));
        assert_eq!(order[9], Point::new([0, 3]));
        assert_eq!(order[11], Point::new([0, 1]));
        // …then the 2×2 core.
        assert_eq!(order[12], Point::new([1, 1]));
        assert_eq!(order[15], Point::new([1, 2]));
    }

    #[test]
    fn ring_structure() {
        let s = SpiralCurve::new(2).unwrap();
        assert_eq!(s.ring(Point::new([0, 2])), 0);
        assert_eq!(s.ring(Point::new([1, 2])), 1);
        assert_eq!(s.ring(Point::new([3, 3])), 0);
        assert_eq!(s.cells_before_ring(0), 0);
        assert_eq!(s.cells_before_ring(1), 12);
    }

    #[test]
    fn starts_at_origin_every_size() {
        for k in 1..=5u32 {
            assert_eq!(SpiralCurve::new(k).unwrap().point_of(0), Point::origin());
        }
    }

    #[test]
    fn radial_neighbors_are_nearly_a_ring_apart() {
        // The stretch driver: (x, 0) and (x, 1) for interior x sit on
        // adjacent rings, separated by almost the outer ring's remaining
        // perimeter.
        let s = SpiralCurve::new(4).unwrap(); // 16×16
        let a = Point::new([8, 0]); // outer ring
        let b = Point::new([8, 1]); // ring 1
        let dist = s.curve_distance(a, b);
        assert!(dist > 40, "expected Θ(side) separation, got {dist}");
    }
}
