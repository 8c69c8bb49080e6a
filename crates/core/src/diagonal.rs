//! The diagonal (Cantor / boustrophedon-diagonal) curve.
//!
//! Cells are ordered by anti-diagonal `s = x₁ + x₂`, alternating the
//! direction of traversal within each diagonal (the two-dimensional
//! analogue of Cantor's pairing enumeration, restricted to the grid).
//! Another classical baseline from the comparative-study literature
//! (paper reference \[1\]). Diagonal neighbors along the walk are at
//! Manhattan distance 2, so the curve is *not* continuous, and its
//! stretch behaviour differs from both the row-major and recursive
//! families — a useful extra point in the survey.

use crate::curve::SpaceFillingCurve;
use crate::error::SfcError;
use crate::grid::Grid;
use crate::point::Point;
use crate::CurveIndex;

/// The two-dimensional diagonal (Cantor) curve on the grid of side `2^k`.
///
/// ```
/// use sfc_core::{DiagonalCurve, Point, SpaceFillingCurve};
/// let c = DiagonalCurve::new(1).unwrap();
/// // Diagonals: {(0,0)}, {(0,1),(1,0)} (walked downward), {(1,1)}.
/// assert_eq!(c.index_of(Point::new([0, 0])), 0);
/// assert_eq!(c.index_of(Point::new([0, 1])), 1);
/// assert_eq!(c.index_of(Point::new([1, 0])), 2);
/// assert_eq!(c.index_of(Point::new([1, 1])), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagonalCurve {
    grid: Grid<2>,
}

impl DiagonalCurve {
    /// Creates the diagonal curve over the grid of side `2^k`.
    pub fn new(k: u32) -> Result<Self, SfcError> {
        Ok(Self {
            grid: Grid::new(k)?,
        })
    }

    /// Creates the diagonal curve over an existing grid.
    pub fn over(grid: Grid<2>) -> Self {
        Self { grid }
    }

    /// Number of cells on anti-diagonal `s` (`0 ≤ s ≤ 2(side−1)`).
    #[inline]
    fn diag_len(&self, s: u128) -> u128 {
        let side = self.grid.side() as u128;
        if s < side {
            s + 1
        } else {
            2 * side - 1 - s
        }
    }

    /// Number of cells on diagonals before `s`.
    fn cells_before_diag(&self, s: u128) -> u128 {
        let side = self.grid.side() as u128;
        if s <= side {
            s * (s + 1) / 2
        } else {
            let n = self.grid.n();
            let rem = 2 * side - 1 - s; // diagonals s..2(side−1) mirror 0..
            n - rem * (rem + 1) / 2
        }
    }
}

impl SpaceFillingCurve<2> for DiagonalCurve {
    fn grid(&self) -> Grid<2> {
        self.grid
    }

    fn index_of(&self, p: Point<2>) -> CurveIndex {
        let side = self.grid.side() as u128;
        let x = u128::from(p.coord(0));
        let y = u128::from(p.coord(1));
        let s = x + y;
        // Position along the diagonal measured by x₂, from its minimum on
        // this diagonal.
        let y_min = s.saturating_sub(side - 1);
        let pos_up = y - y_min; // direction of increasing x₂
        let len = self.diag_len(s);
        let offset = if s % 2 == 0 { pos_up } else { len - 1 - pos_up };
        self.cells_before_diag(s) + offset
    }

    fn point_of(&self, idx: CurveIndex) -> Point<2> {
        let side = self.grid.side() as u128;
        // Binary search the diagonal.
        let mut lo = 0u128;
        let mut hi = 2 * (side - 1) + 1;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.cells_before_diag(mid) <= idx {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let s = lo;
        let len = self.diag_len(s);
        let offset = idx - self.cells_before_diag(s);
        let pos_up = if s.is_multiple_of(2) {
            offset
        } else {
            len - 1 - offset
        };
        let y_min = s.saturating_sub(side - 1);
        let y = y_min + pos_up;
        let x = s - y;
        Point::new([x as u32, y as u32])
    }

    fn name(&self) -> String {
        "diagonal".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_bijective() {
        for k in 0..=4u32 {
            DiagonalCurve::new(k).unwrap().validate_bijection().unwrap();
        }
    }

    #[test]
    fn four_by_four_traversal_zigzags() {
        let c = DiagonalCurve::new(2).unwrap();
        let order: Vec<_> = c.traverse().collect();
        assert_eq!(order[0], Point::new([0, 0]));
        // s = 1 (odd): walked with x₂ decreasing → (0,1) then (1,0).
        assert_eq!(order[1], Point::new([0, 1]));
        assert_eq!(order[2], Point::new([1, 0]));
        // s = 2 (even): x₂ increasing → (2,0), (1,1), (0,2).
        assert_eq!(order[3], Point::new([2, 0]));
        assert_eq!(order[4], Point::new([1, 1]));
        assert_eq!(order[5], Point::new([0, 2]));
        // Last cell.
        assert_eq!(order[15], Point::new([3, 3]));
    }

    #[test]
    fn diagonal_lengths_and_prefixes() {
        let c = DiagonalCurve::new(2).unwrap(); // side 4
        let lens: Vec<u128> = (0..=6).map(|s| c.diag_len(s)).collect();
        assert_eq!(lens, vec![1, 2, 3, 4, 3, 2, 1]);
        let total: u128 = lens.iter().sum();
        assert_eq!(total, 16);
        assert_eq!(c.cells_before_diag(0), 0);
        assert_eq!(c.cells_before_diag(4), 10);
        assert_eq!(c.cells_before_diag(6), 15);
    }

    #[test]
    fn consecutive_cells_are_at_manhattan_distance_at_most_two() {
        // The zig-zag makes successive cells either within one diagonal
        // (distance 2) or at a diagonal turn (distance 1).
        let c = DiagonalCurve::new(3).unwrap();
        let order: Vec<_> = c.traverse().collect();
        for w in order.windows(2) {
            let d = w[0].manhattan(&w[1]);
            assert!(d <= 2, "{} -> {} at distance {d}", w[0], w[1]);
        }
    }

    #[test]
    fn not_continuous_but_close() {
        assert!(!DiagonalCurve::new(2).unwrap().is_continuous());
    }
}
