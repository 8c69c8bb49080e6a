//! Axis-aligned query boxes.

use sfc_core::{CurveIndex, Grid, Point, SpaceFillingCurve};

/// An axis-aligned box `[lo, hi]` (inclusive corners) of grid cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoxRegion<const D: usize> {
    lo: Point<D>,
    hi: Point<D>,
}

impl<const D: usize> BoxRegion<D> {
    /// Creates the box with inclusive corners `lo` and `hi`.
    ///
    /// # Panics
    /// Panics if `lo` exceeds `hi` along any axis.
    pub fn new(lo: Point<D>, hi: Point<D>) -> Self {
        for axis in 0..D {
            assert!(
                lo.coord(axis) <= hi.coord(axis),
                "box corners inverted along axis {axis}"
            );
        }
        Self { lo, hi }
    }

    /// The box centered at `center` with Chebyshev radius `r`, clamped to
    /// the grid.
    pub fn chebyshev_ball(grid: Grid<D>, center: Point<D>, r: u32) -> Self {
        let max = (grid.side() - 1) as u32;
        let mut lo = [0u32; D];
        let mut hi = [0u32; D];
        for axis in 0..D {
            let c = center.coord(axis);
            lo[axis] = c.saturating_sub(r);
            hi[axis] = (c.saturating_add(r)).min(max);
        }
        Self::new(Point::new(lo), Point::new(hi))
    }

    /// The box cut down to the grid, or `None` if it lies wholly outside.
    /// Every box query clips first: BIGMIN and the decomposition both take
    /// in-grid corners for granted (a corner code wider than the keyspace
    /// makes BIGMIN jump past live cells).
    #[inline]
    pub fn clip_to_grid(&self, grid: Grid<D>) -> Option<Self> {
        let max = (grid.side() - 1) as u32;
        let inside = (0..D).all(|axis| self.lo.coord(axis) <= max);
        inside.then(|| Self::new(self.lo, Point::new(self.hi.coords().map(|c| c.min(max)))))
    }

    /// Lower corner.
    pub fn lo(&self) -> Point<D> {
        self.lo
    }

    /// Upper corner.
    pub fn hi(&self) -> Point<D> {
        self.hi
    }

    /// `true` iff the point lies inside the box.
    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|axis| {
            let c = p.coord(axis);
            self.lo.coord(axis) <= c && c <= self.hi.coord(axis)
        })
    }

    /// Number of cells in the box.
    pub fn volume(&self) -> u128 {
        (0..D)
            .map(|axis| u128::from(self.hi.coord(axis) - self.lo.coord(axis)) + 1)
            .product()
    }

    /// Iterates all cells of the box (odometer order).
    pub fn cells(&self) -> impl Iterator<Item = Point<D>> + '_ {
        let mut offsets = Some([0u32; D]);
        std::iter::from_fn(move || {
            let off = offsets?;
            let mut coords = self.lo.coords();
            for (c, o) in coords.iter_mut().zip(off.iter()) {
                *c += *o;
            }
            // Advance odometer.
            let mut next = off;
            let mut done = true;
            for (axis, slot) in next.iter_mut().enumerate() {
                let extent = self.hi.coord(axis) - self.lo.coord(axis);
                if *slot < extent {
                    *slot += 1;
                    done = false;
                    break;
                }
                *slot = 0;
            }
            offsets = if done { None } else { Some(next) };
            Some(Point::new(coords))
        })
    }

    /// The maximal runs of consecutive curve indices covering this box,
    /// sorted ascending. The number of intervals is exactly the clustering
    /// metric of the curve for this query (`sfc-metrics::clustering`).
    ///
    /// Cost: on a [block-recursive](SpaceFillingCurve::is_block_recursive)
    /// curve (Z, Hilbert, Gray) the box is covered top-down by maximal
    /// aligned cubes, each one index range from one encoded corner —
    /// `O(perimeter · k)` cube tests, `O(perimeter)` encodes (one batch)
    /// and a sort of that many ranges. Any other curve goes through
    /// [`curve_intervals_exhaustive`](Self::curve_intervals_exhaustive);
    /// the two return identical intervals wherever both apply.
    pub fn curve_intervals<C: SpaceFillingCurve<D>>(
        &self,
        curve: &C,
    ) -> Vec<(CurveIndex, CurveIndex)> {
        if !curve.is_block_recursive() {
            return self.curve_intervals_exhaustive(curve);
        }
        // Start at the smallest aligned cube holding the whole box: its
        // level is the highest bit in which `lo` and `hi` differ on any
        // axis.
        let level = (0..D)
            .map(|axis| 32 - (self.lo.coord(axis) ^ self.hi.coord(axis)).leading_zeros())
            .max()
            .unwrap_or(0);
        let mut origin = self.lo.coords();
        for c in &mut origin {
            *c = ((u64::from(*c) >> level) << level) as u32;
        }
        // The cover has about one cube per cell of the box's boundary.
        let boundary: usize = (0..D)
            .map(|axis| (self.hi.coord(axis) - self.lo.coord(axis)) as usize + 1)
            .sum();
        let room = (2 * boundary).min(1 << 16);
        let (mut corners, mut levels) = (Vec::with_capacity(room), Vec::with_capacity(room));
        self.cover(origin, level, &mut corners, &mut levels);
        let mut indices = Vec::new();
        curve.index_of_batch(&corners, &mut indices);
        // An aligned cube of side `2^level` is the aligned index range of
        // `2^(level · D)` positions around any of its cells;
        // `level · D <= k · D <= 127`, so the shift cannot overflow.
        let mut intervals: Vec<(CurveIndex, CurveIndex)> = indices
            .iter()
            .zip(&levels)
            .map(|(&idx, &level)| {
                let mask = (1u128 << (level as usize * D)) - 1;
                (idx & !mask, idx | mask)
            })
            .collect();
        intervals.sort_unstable_by_key(|&(lo, _)| lo);
        // Neighbouring cubes are often consecutive on the curve.
        intervals.dedup_by(|next, prev| {
            let adjacent = prev.1 + 1 == next.0;
            if adjacent {
                prev.1 = next.1;
            }
            adjacent
        });
        intervals
    }

    /// Collects the corner and level of every maximal aligned cube inside
    /// the box, descending from the cube of side `2^level` at `origin`,
    /// which must intersect the box. Side arithmetic is `u64`: `2^32` does
    /// not fit a coordinate.
    fn cover(
        &self,
        origin: [u32; D],
        level: u32,
        corners: &mut Vec<Point<D>>,
        levels: &mut Vec<u32>,
    ) {
        let last = (1u64 << level) - 1;
        let inside = (0..D).all(|axis| {
            let o = u64::from(origin[axis]);
            u64::from(self.lo.coord(axis)) <= o && o + last <= u64::from(self.hi.coord(axis))
        });
        if inside {
            corners.push(Point::new(origin));
            levels.push(level);
            return;
        }
        // A single cell that intersects the box is inside it, so
        // `level >= 1` here. Visit only the children the box reaches: per
        // axis the upper half, the lower half, or (`free`) both — at most
        // one child per cell of the box, however large `D` is.
        let half = 1u32 << (level - 1);
        let (mut upper, mut free) = (0u128, 0u128);
        for (axis, &o) in origin.iter().enumerate() {
            let mid = o + half;
            match (self.lo.coord(axis) < mid, self.hi.coord(axis) >= mid) {
                (true, true) => free |= 1 << axis,
                (false, _) => upper |= 1 << axis,
                (true, false) => {}
            }
        }
        let mut sub = free;
        loop {
            let child = upper | sub;
            let mut corner = origin;
            for (axis, c) in corner.iter_mut().enumerate() {
                if child >> axis & 1 == 1 {
                    *c += half;
                }
            }
            self.cover(corner, level - 1, corners, levels);
            if sub == 0 {
                break;
            }
            sub = (sub - 1) & free;
        }
    }

    /// [`curve_intervals`](Self::curve_intervals) by encoding and sorting
    /// every cell of the box: `O(volume · log volume)`, exact for any
    /// bijection. The only strategy for curves that are not block
    /// recursive, and the oracle the hierarchical path is tested against.
    pub fn curve_intervals_exhaustive<C: SpaceFillingCurve<D>>(
        &self,
        curve: &C,
    ) -> Vec<(CurveIndex, CurveIndex)> {
        let mut indices: Vec<CurveIndex> = self.cells().map(|c| curve.index_of(c)).collect();
        indices.sort_unstable();
        let mut intervals = Vec::new();
        let mut iter = indices.into_iter();
        let Some(first) = iter.next() else {
            return intervals;
        };
        let (mut start, mut end) = (first, first);
        for idx in iter {
            if idx == end + 1 {
                end = idx;
            } else {
                intervals.push((start, end));
                start = idx;
                end = idx;
            }
        }
        intervals.push((start, end));
        intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{Grid, HilbertCurve, ZCurve};

    #[test]
    fn contains_and_volume() {
        let b = BoxRegion::new(Point::new([1, 2]), Point::new([3, 5]));
        assert!(b.contains(&Point::new([1, 2])));
        assert!(b.contains(&Point::new([3, 5])));
        assert!(b.contains(&Point::new([2, 4])));
        assert!(!b.contains(&Point::new([0, 3])));
        assert!(!b.contains(&Point::new([2, 6])));
        assert_eq!(b.volume(), 3 * 4);
        assert_eq!(b.cells().count(), 12);
    }

    #[test]
    fn cells_cover_exactly_the_box() {
        let b = BoxRegion::new(Point::new([1, 0, 2]), Point::new([2, 1, 3]));
        let cells: Vec<_> = b.cells().collect();
        assert_eq!(cells.len() as u128, b.volume());
        for c in &cells {
            assert!(b.contains(c));
        }
        let set: std::collections::HashSet<_> = cells.iter().collect();
        assert_eq!(set.len(), cells.len());
    }

    #[test]
    fn single_cell_box() {
        let p = Point::new([4, 4]);
        let b = BoxRegion::new(p, p);
        assert_eq!(b.volume(), 1);
        assert_eq!(b.cells().collect::<Vec<_>>(), vec![p]);
    }

    #[test]
    fn chebyshev_ball_clamps_to_grid() {
        let grid = Grid::<2>::new(3).unwrap();
        let b = BoxRegion::chebyshev_ball(grid, Point::new([1, 6]), 2);
        assert_eq!(b.lo(), Point::new([0, 4]));
        assert_eq!(b.hi(), Point::new([3, 7]));
    }

    #[test]
    fn curve_intervals_cover_box_and_count_clusters() {
        let z = ZCurve::<2>::new(3).unwrap();
        let b = BoxRegion::new(Point::new([2, 2]), Point::new([5, 5]));
        let intervals = b.curve_intervals(&z);
        let covered: u128 = intervals.iter().map(|(a, b)| b - a + 1).sum();
        assert_eq!(covered, b.volume());
        // Intervals are sorted and disjoint with gaps.
        for w in intervals.windows(2) {
            assert!(w[0].1 + 1 < w[1].0);
        }
        // Hilbert clusters the same box into no more runs than Z
        // (Moon et al.).
        let h = HilbertCurve::<2>::new(3).unwrap();
        assert!(b.curve_intervals(&h).len() <= intervals.len());
    }

    #[test]
    fn aligned_quadrant_is_one_interval_for_z() {
        let z = ZCurve::<2>::new(3).unwrap();
        let b = BoxRegion::new(Point::new([4, 4]), Point::new([7, 7]));
        let intervals = b.curve_intervals(&z);
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0].1 - intervals[0].0 + 1, 16);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_box_is_rejected() {
        BoxRegion::new(Point::new([3, 1]), Point::new([2, 5]));
    }
}
