//! The universe: a `d`-dimensional grid of side `2^k` with `n = 2^{kd}` cells.
//!
//! Provides cell iteration (row-major), nearest-neighbor iteration (the
//! paper's `N(α)`), iteration over the edge set `NN_d`, and boundary
//! predicates used in the paper's `H₂` / `U₂` boundary analyses.

use crate::error::SfcError;
use crate::point::Point;
use rand::Rng;

/// The `d`-dimensional universe of side `2^k`.
///
/// `Grid` is a tiny `Copy` value (just `k`); all geometry is derived.
///
/// ```
/// use sfc_core::Grid;
/// let g = Grid::<2>::new(3).unwrap(); // the paper's 8×8 running example
/// assert_eq!(g.side(), 8);
/// assert_eq!(g.n(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Grid<const D: usize> {
    k: u32,
}

impl<const D: usize> Grid<D> {
    /// Creates the universe with side `2^k`.
    ///
    /// Fails if `D == 0`, if `k > 32` (coordinates are `u32`), or if the
    /// grid needs more than 127 index bits.
    pub fn new(k: u32) -> Result<Self, SfcError> {
        if D == 0 {
            return Err(SfcError::ZeroDimensions);
        }
        if k > 32 || (k as usize) * D > 127 {
            return Err(SfcError::GridTooLarge { k, d: D });
        }
        Ok(Self { k })
    }

    /// Creates the universe from its side length, which must be a power of
    /// two (the model's `d√n = 2^k` assumption).
    pub fn from_side(side: u64) -> Result<Self, SfcError> {
        if side == 0 || !side.is_power_of_two() {
            return Err(SfcError::SideNotPowerOfTwo { side });
        }
        Self::new(side.trailing_zeros())
    }

    /// Bits per coordinate (`k`).
    #[inline]
    pub const fn k(&self) -> u32 {
        self.k
    }

    /// The number of dimensions `d`.
    #[inline]
    pub const fn d(&self) -> usize {
        D
    }

    /// Side length `2^k` (the paper's `d√n`).
    #[inline]
    pub const fn side(&self) -> u64 {
        1u64 << self.k
    }

    /// Number of cells `n = 2^{kd}`.
    #[inline]
    pub const fn n(&self) -> u128 {
        1u128 << (self.k as usize * D)
    }

    /// `true` iff the point lies inside the universe.
    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        let side = self.side();
        p.coords().iter().all(|&c| u64::from(c) < side)
    }

    /// `true` iff the cell lies on the boundary of the universe, i.e. some
    /// coordinate is `0` or `2^k − 1`. These are the cells of the paper's
    /// set `U₂` (Theorem 3 proof); interior cells form `U₁`.
    #[inline]
    pub fn is_boundary(&self, p: &Point<D>) -> bool {
        let max = (self.side() - 1) as u32;
        p.coords().iter().any(|&c| c == 0 || c == max)
    }

    /// Number of nearest neighbors `|N(α)|`. The paper notes
    /// `d ≤ |N(α)| ≤ 2d`; interior cells have exactly `2d`.
    #[inline]
    pub fn neighbor_count(&self, p: &Point<D>) -> usize {
        let max = (self.side() - 1) as u32;
        let mut count = 0;
        for &c in p.coords().iter() {
            if c > 0 {
                count += 1;
            }
            if c < max {
                count += 1;
            }
        }
        count
    }

    /// Iterates the nearest neighbors `N(α)` of a cell (Manhattan distance
    /// exactly 1, in-bounds).
    #[inline]
    pub fn neighbors(&self, p: Point<D>) -> NeighborIter<D> {
        NeighborIter {
            grid: *self,
            center: p,
            axis: 0,
            up: false,
        }
    }

    /// Iterates all cells in row-major order (axis 0 fastest).
    #[inline]
    pub fn cells(&self) -> CellIter<D> {
        CellIter {
            grid: *self,
            next: Some(Point::origin()),
            remaining: self.n(),
        }
    }

    /// Iterates the unordered nearest-neighbor pairs `NN_d` — the "edges of
    /// length 1" of the universe. Each edge is yielded once as
    /// `(α, β, axis)` with `β = α + e_axis`.
    #[inline]
    pub fn nn_edges(&self) -> NnEdgeIter<D> {
        NnEdgeIter {
            cells: self.cells(),
            current: None,
            axis: 0,
        }
    }

    /// Total number of unordered nearest-neighbor pairs:
    /// `|NN_d| = d · (2^k − 1) · 2^{k(d−1)}`.
    pub fn nn_edge_count(&self) -> u128 {
        let per_axis = (self.side() as u128 - 1) * (self.n() / self.side() as u128);
        per_axis * D as u128
    }

    /// The row-major rank of a cell (what [`SimpleCurve`](crate::SimpleCurve)
    /// uses as its curve index): `Σ_i x_i · (2^k)^{i}` with axis 0 least
    /// significant — exactly the paper's Eq. 8 under the axis convention.
    #[inline]
    pub fn row_major_rank(&self, p: &Point<D>) -> u128 {
        let mut rank = 0u128;
        for axis in (0..D).rev() {
            rank = (rank << self.k) | u128::from(p.coord(axis));
        }
        rank
    }

    /// Inverse of [`row_major_rank`](Self::row_major_rank).
    #[inline]
    pub fn point_from_row_major(&self, mut rank: u128) -> Point<D> {
        let mask = (1u128 << self.k) - 1;
        let mut coords = [0u32; D];
        for c in coords.iter_mut() {
            *c = (rank & mask) as u32;
            rank >>= self.k;
        }
        Point::new(coords)
    }

    /// A uniformly random cell.
    pub fn random_cell<R: Rng + ?Sized>(&self, rng: &mut R) -> Point<D> {
        let side = self.side();
        let mut coords = [0u32; D];
        for c in coords.iter_mut() {
            *c = rng.gen_range(0..side) as u32;
        }
        Point::new(coords)
    }

    /// Fills `pairs` with uniformly random ordered pairs of *distinct*
    /// cells (elements of the paper's set `A'`): `pairs[2i]` and
    /// `pairs[2i + 1]` are the `i`-th pair, and pairs are independent.
    ///
    /// Each cell is cut from raw `next_u64` words: the side is `2^k`, so
    /// keeping `k` bits of a uniform word is an exact, unbiased coordinate.
    /// When `D·k ≤ 64` one word makes the whole cell (coordinate `i` is bits
    /// `i·k .. (i+1)·k`), and the second cell's word is redrawn, masked,
    /// until it differs from the first's, before either is split into
    /// coordinates. Otherwise each coordinate is the low `k` bits of a word
    /// of its own and the second cell is redrawn whole. Either way the pair
    /// is uniform over `A'`. This is not the stream of
    /// [`random_cell`](Self::random_cell) calls.
    ///
    /// # Panics
    /// On a one-cell grid (`k = 0`), which has no pair of distinct cells,
    /// and if `pairs` has odd length.
    pub fn fill_distinct_pairs<R: Rng + ?Sized>(&self, rng: &mut R, pairs: &mut [Point<D>]) {
        assert!(self.k >= 1, "a one-cell grid has no pair of distinct cells");
        assert!(
            pairs.len().is_multiple_of(2),
            "pairs come two cells at a time"
        );
        let k = self.k as usize;
        let mask = (1u64 << k) - 1;
        if D * k <= 64 {
            let word_mask = u64::MAX >> (64 - D * k);
            let cell = |mut word: u64| {
                let mut coords = [0u32; D];
                for c in coords.iter_mut() {
                    *c = (word & mask) as u32;
                    word >>= k;
                }
                Point::new(coords)
            };
            for pair in pairs.chunks_exact_mut(2) {
                let a = rng.next_u64() & word_mask;
                let b = loop {
                    let b = rng.next_u64() & word_mask;
                    if b != a {
                        break b;
                    }
                };
                (pair[0], pair[1]) = (cell(a), cell(b));
            }
        } else {
            let mut cell = || {
                let mut coords = [0u32; D];
                for c in coords.iter_mut() {
                    *c = (rng.next_u64() & mask) as u32;
                }
                Point::new(coords)
            };
            for pair in pairs.chunks_exact_mut(2) {
                let a = cell();
                let b = loop {
                    let b = cell();
                    if b != a {
                        break b;
                    }
                };
                (pair[0], pair[1]) = (a, b);
            }
        }
    }
}

/// Iterator over all cells of a grid in row-major order.
#[derive(Debug, Clone)]
pub struct CellIter<const D: usize> {
    grid: Grid<D>,
    next: Option<Point<D>>,
    remaining: u128,
}

impl<const D: usize> Iterator for CellIter<D> {
    type Item = Point<D>;

    fn next(&mut self) -> Option<Point<D>> {
        let current = self.next?;
        self.remaining -= 1;
        // Odometer increment, axis 0 fastest.
        let max = (self.grid.side() - 1) as u32;
        let mut coords = current.coords();
        let mut carried = true;
        for c in coords.iter_mut() {
            if *c < max {
                *c += 1;
                carried = false;
                break;
            }
            *c = 0;
        }
        self.next = if carried {
            None
        } else {
            Some(Point::new(coords))
        };
        Some(current)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (r, usize::try_from(self.remaining).ok())
    }
}

/// Iterator over the nearest neighbors `N(α)` of a cell.
#[derive(Debug, Clone)]
pub struct NeighborIter<const D: usize> {
    grid: Grid<D>,
    center: Point<D>,
    axis: usize,
    up: bool,
}

impl<const D: usize> Iterator for NeighborIter<D> {
    type Item = Point<D>;

    fn next(&mut self) -> Option<Point<D>> {
        let max = (self.grid.side() - 1) as u32;
        while self.axis < D {
            let axis = self.axis;
            if !self.up {
                self.up = true;
                if self.center.coord(axis) > 0 {
                    return self.center.step_down(axis);
                }
            } else {
                self.axis += 1;
                self.up = false;
                if self.center.coord(axis) < max {
                    return self.center.step_up(axis);
                }
            }
        }
        None
    }
}

/// Iterator over the unordered nearest-neighbor edge set `NN_d`.
///
/// Yields `(α, β, axis)` with `β = α + e_axis`; each edge appears exactly
/// once.
#[derive(Debug, Clone)]
pub struct NnEdgeIter<const D: usize> {
    cells: CellIter<D>,
    current: Option<Point<D>>,
    axis: usize,
}

impl<const D: usize> Iterator for NnEdgeIter<D> {
    type Item = (Point<D>, Point<D>, usize);

    fn next(&mut self) -> Option<Self::Item> {
        let max = (self.cells.grid.side() - 1) as u32;
        loop {
            let cell = match self.current {
                Some(c) => c,
                None => {
                    self.current = Some(self.cells.next()?);
                    self.axis = 0;
                    self.current.unwrap()
                }
            };
            while self.axis < D {
                let axis = self.axis;
                self.axis += 1;
                if cell.coord(axis) < max {
                    let up = cell.step_up(axis).expect("in-bounds");
                    return Some((cell, up, axis));
                }
            }
            self.current = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn grid_basic_geometry() {
        let g = Grid::<3>::new(2).unwrap();
        assert_eq!(g.side(), 4);
        assert_eq!(g.n(), 64);
        assert_eq!(g.d(), 3);
        assert_eq!(g.k(), 2);
    }

    #[test]
    fn from_side_accepts_only_powers_of_two() {
        assert!(Grid::<2>::from_side(8).is_ok());
        assert_eq!(Grid::<2>::from_side(8).unwrap().k(), 3);
        assert!(matches!(
            Grid::<2>::from_side(6),
            Err(SfcError::SideNotPowerOfTwo { side: 6 })
        ));
        assert!(matches!(
            Grid::<2>::from_side(0),
            Err(SfcError::SideNotPowerOfTwo { side: 0 })
        ));
    }

    #[test]
    fn oversized_grid_is_rejected() {
        assert!(matches!(
            Grid::<2>::new(64),
            Err(SfcError::GridTooLarge { .. })
        ));
        // k is capped at 32 by the u32 coordinate type.
        assert!(Grid::<1>::new(32).is_ok());
        assert!(Grid::<1>::new(33).is_err());
        // And k·d is capped at 127 index bits.
        assert!(Grid::<4>::new(31).is_ok());
        assert!(Grid::<4>::new(32).is_err());
    }

    #[test]
    fn k_zero_grid_is_a_single_cell() {
        let g = Grid::<3>::new(0).unwrap();
        assert_eq!(g.n(), 1);
        assert_eq!(g.cells().count(), 1);
        assert_eq!(g.neighbors(Point::origin()).count(), 0);
        assert_eq!(g.nn_edges().count(), 0);
        assert_eq!(g.nn_edge_count(), 0);
    }

    #[test]
    fn cells_visit_every_cell_once_row_major() {
        let g = Grid::<2>::new(2).unwrap();
        let cells: Vec<_> = g.cells().collect();
        assert_eq!(cells.len(), 16);
        let set: HashSet<_> = cells.iter().copied().collect();
        assert_eq!(set.len(), 16);
        // Row-major: axis 0 fastest.
        assert_eq!(cells[0], Point::new([0, 0]));
        assert_eq!(cells[1], Point::new([1, 0]));
        assert_eq!(cells[4], Point::new([0, 1]));
        assert_eq!(cells[15], Point::new([3, 3]));
    }

    #[test]
    fn neighbor_count_bounds_match_paper() {
        // The paper: d ≤ |N(α)| ≤ 2d for every cell.
        let g = Grid::<2>::new(2).unwrap();
        for cell in g.cells() {
            let count = g.neighbors(cell).count();
            assert_eq!(count, g.neighbor_count(&cell));
            assert!((2..=4).contains(&count), "cell {cell} has {count}");
        }
        // Corner has exactly d, interior exactly 2d.
        assert_eq!(g.neighbor_count(&Point::new([0, 0])), 2);
        assert_eq!(g.neighbor_count(&Point::new([1, 1])), 4);
    }

    #[test]
    fn neighbors_are_exactly_manhattan_distance_one() {
        let g = Grid::<3>::new(1).unwrap();
        for cell in g.cells() {
            for nb in g.neighbors(cell) {
                assert!(g.contains(&nb));
                assert_eq!(cell.manhattan(&nb), 1);
            }
            // Cross-check against brute force.
            let brute: HashSet<_> = g
                .cells()
                .filter(|other| cell.manhattan(other) == 1)
                .collect();
            let iter: HashSet<_> = g.neighbors(cell).collect();
            assert_eq!(brute, iter);
        }
    }

    #[test]
    fn nn_edges_enumerates_each_edge_once() {
        let g = Grid::<2>::new(2).unwrap();
        let edges: Vec<_> = g.nn_edges().collect();
        assert_eq!(edges.len() as u128, g.nn_edge_count());
        // 2 axes × 3 steps × 4 rows = 24 edges on a 4×4 grid.
        assert_eq!(edges.len(), 24);
        let set: HashSet<_> = edges.iter().map(|(a, b, _)| (*a, *b)).collect();
        assert_eq!(set.len(), edges.len());
        for (a, b, axis) in edges {
            assert_eq!(a.manhattan(&b), 1);
            assert_eq!(b.coord(axis), a.coord(axis) + 1);
        }
    }

    #[test]
    fn nn_edge_count_formula_in_three_dims() {
        let g = Grid::<3>::new(2).unwrap();
        // d · (side−1) · side^{d−1} = 3 · 3 · 16 = 144.
        assert_eq!(g.nn_edge_count(), 144);
        assert_eq!(g.nn_edges().count(), 144);
    }

    #[test]
    fn boundary_predicate() {
        let g = Grid::<2>::new(2).unwrap();
        assert!(g.is_boundary(&Point::new([0, 2])));
        assert!(g.is_boundary(&Point::new([3, 1])));
        assert!(!g.is_boundary(&Point::new([1, 2])));
        // Count of boundary cells: n − (side−2)^d = 16 − 4 = 12.
        let boundary = g.cells().filter(|c| g.is_boundary(c)).count();
        assert_eq!(boundary, 12);
    }

    #[test]
    fn row_major_rank_roundtrips() {
        let g = Grid::<3>::new(2).unwrap();
        for (expected, cell) in g.cells().enumerate() {
            let rank = g.row_major_rank(&cell);
            assert_eq!(rank, expected as u128);
            assert_eq!(g.point_from_row_major(rank), cell);
        }
    }

    /// `n` pairs from one [`Grid::fill_distinct_pairs`] call.
    fn draw_pairs<const D: usize, R: Rng>(
        g: Grid<D>,
        rng: &mut R,
        n: usize,
    ) -> Vec<(Point<D>, Point<D>)> {
        let mut cells = vec![Point::origin(); 2 * n];
        g.fill_distinct_pairs(rng, &mut cells);
        cells.chunks_exact(2).map(|p| (p[0], p[1])).collect()
    }

    /// The per-pair draw the chunked one must reproduce: a cell from one
    /// word (`D·k ≤ 64`) or one word per coordinate, compared as points,
    /// the second redrawn until it differs.
    fn reference_pair<const D: usize, R: Rng>(g: Grid<D>, rng: &mut R) -> (Point<D>, Point<D>) {
        let mask = (1u64 << g.k()) - 1;
        let mut cell = || {
            let mut coords = [0u32; D];
            if D * g.k() as usize <= 64 {
                let mut word = rng.next_u64();
                for c in coords.iter_mut() {
                    *c = (word & mask) as u32;
                    word >>= g.k();
                }
            } else {
                for c in coords.iter_mut() {
                    *c = (rng.next_u64() & mask) as u32;
                }
            }
            Point::new(coords)
        };
        let a = cell();
        loop {
            let b = cell();
            if b != a {
                return (a, b);
            }
        }
    }

    /// The chunked draw yields the per-pair draw's pairs and leaves the
    /// generator where it does, whether the pairs come in one call or in
    /// calls of one pair each.
    fn chunked_draw_matches_per_pair<const D: usize>(g: Grid<D>) {
        use rand::{RngCore, SeedableRng};
        let seed = 100 + u64::from(g.k());
        let mut want_rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let want: Vec<_> = (0..300).map(|_| reference_pair(g, &mut want_rng)).collect();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        assert_eq!(draw_pairs(g, &mut rng, 300), want, "k={} d={D}", g.k());
        assert_eq!(rng.next_u64(), want_rng.clone().next_u64());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let one_at_a_time: Vec<_> = (0..300).flat_map(|_| draw_pairs(g, &mut rng, 1)).collect();
        assert_eq!(one_at_a_time, want, "k={} d={D}", g.k());
        assert_eq!(rng.next_u64(), want_rng.next_u64());
    }

    #[test]
    fn chunked_pair_draw_matches_the_per_pair_draw() {
        // k = 1: one redraw in four on a 2×2 grid, one in eight on 2×2×2.
        chunked_draw_matches_per_pair(Grid::<2>::new(1).unwrap());
        chunked_draw_matches_per_pair(Grid::<3>::new(1).unwrap());
        // One word per cell, up to D·k = 64.
        chunked_draw_matches_per_pair(Grid::<2>::new(20).unwrap());
        chunked_draw_matches_per_pair(Grid::<3>::new(21).unwrap());
        chunked_draw_matches_per_pair(Grid::<2>::new(32).unwrap());
        chunked_draw_matches_per_pair(Grid::<1>::new(32).unwrap());
        // One word per coordinate (D·k > 64).
        chunked_draw_matches_per_pair(Grid::<3>::new(22).unwrap());
        chunked_draw_matches_per_pair(Grid::<4>::new(31).unwrap());
    }

    #[test]
    fn random_cells_and_edges_are_in_bounds() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let g = Grid::<3>::new(3).unwrap();
        for _ in 0..200 {
            let c = g.random_cell(&mut rng);
            assert!(g.contains(&c));
        }
        for (x, y) in draw_pairs(g, &mut rng, 200) {
            assert_ne!(x, y);
            assert!(g.contains(&x) && g.contains(&y));
        }
    }

    #[test]
    fn distinct_pairs_are_uniform_over_the_ordered_pairs() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let g = Grid::<2>::new(1).unwrap();
        let draws = 120_000u32;
        let mut counts = std::collections::HashMap::new();
        for (a, b) in draw_pairs(g, &mut rng, draws as usize) {
            assert_ne!(a, b);
            *counts.entry((a, b)).or_insert(0u32) += 1;
        }
        // 4 cells, 4·3 ordered distinct pairs, each with p = 1/12.
        assert_eq!(counts.len(), 12);
        let p = 1.0 / 12.0;
        let expected = f64::from(draws) * p;
        let sigma = (f64::from(draws) * p * (1.0 - p)).sqrt();
        for (pair, &count) in &counts {
            let off = (f64::from(count) - expected).abs();
            assert!(off <= 5.0 * sigma, "{pair:?}: {count} vs {expected}");
        }
    }

    /// Draws pairs on `g` and checks they stay inside it while setting the
    /// top bit of every coordinate at least once (no bit lost when a cell is
    /// cut from the words).
    fn pairs_reach_every_top_bit<const D: usize>(g: Grid<D>) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(u64::from(g.k()));
        let top = 1u32 << (g.k() - 1);
        let mut seen = [false; D];
        for (a, b) in draw_pairs(g, &mut rng, 256) {
            assert!(g.contains(&a) && g.contains(&b), "k={} d={D}", g.k());
            for p in [a, b] {
                for (axis, hit) in seen.iter_mut().enumerate() {
                    *hit |= p.coord(axis) & top != 0;
                }
            }
        }
        assert_eq!(seen, [true; D], "k={} d={D}", g.k());
    }

    #[test]
    fn distinct_pairs_use_every_coordinate_bit() {
        // One word per cell, up to the 64-bit edge.
        pairs_reach_every_top_bit(Grid::<2>::new(32).unwrap());
        pairs_reach_every_top_bit(Grid::<3>::new(21).unwrap());
        // One word per coordinate (D·k > 64).
        pairs_reach_every_top_bit(Grid::<3>::new(22).unwrap());
        pairs_reach_every_top_bit(Grid::<4>::new(20).unwrap());
    }

    #[test]
    #[should_panic(expected = "one-cell grid")]
    fn a_one_cell_grid_has_no_distinct_pair() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        draw_pairs(Grid::<2>::new(0).unwrap(), &mut rng, 1);
    }

    #[test]
    #[should_panic(expected = "two cells at a time")]
    fn an_odd_pair_buffer_is_refused() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut cells = [Point::origin(); 3];
        Grid::<2>::new(4)
            .unwrap()
            .fill_distinct_pairs(&mut rng, &mut cells);
    }

    #[test]
    fn cell_iter_size_hint_is_exact() {
        let g = Grid::<2>::new(2).unwrap();
        let mut iter = g.cells();
        assert_eq!(iter.size_hint(), (16, Some(16)));
        iter.next();
        assert_eq!(iter.size_hint(), (15, Some(15)));
    }
}
