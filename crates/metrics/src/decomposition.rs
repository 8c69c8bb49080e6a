//! The nearest-neighbor decomposition `p(α, β)` (paper, Section IV.A).
//!
//! `p(α, β)` turns an ordered pair of cells into a concrete staircase path
//! of unit edges: the coordinates of `α` are "corrected" one dimension at a
//! time, dimension 1 first, until `β` is reached. The decomposition is the
//! engine of the Theorem 1 lower bound: combined with the generalized
//! triangle inequality (Lemma 1) and the multiplicity count (Lemma 4), it
//! converts the universal pair-sum `S_{A'}` (Lemma 2) into a bound on the
//! nearest-neighbor edge sum.
//!
//! This module materialises the decomposition, verifies the paper's Figure 2
//! example, and counts edge multiplicities both in closed form and by brute
//! force.

use sfc_core::{Grid, Point};
use std::collections::HashMap;

/// A unit edge of the universe, normalized so that the second endpoint is
/// the first plus one along `axis`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NnEdge<const D: usize> {
    /// The endpoint with the smaller coordinate along `axis`.
    pub lo: Point<D>,
    /// `lo + e_axis`.
    pub hi: Point<D>,
    /// The axis along which the endpoints differ (paper dimension
    /// `axis + 1`).
    pub axis: usize,
}

impl<const D: usize> NnEdge<D> {
    /// Creates a normalized edge from two nearest-neighbor cells (in either
    /// order).
    ///
    /// # Panics
    /// Panics if the points are not nearest neighbors.
    pub fn new(a: Point<D>, b: Point<D>) -> Self {
        let axis = a
            .differing_axis(&b)
            .expect("edge endpoints must differ along exactly one axis");
        assert_eq!(
            a.coord(axis).abs_diff(b.coord(axis)),
            1,
            "edge endpoints must be at Manhattan distance 1"
        );
        if a.coord(axis) < b.coord(axis) {
            Self { lo: a, hi: b, axis }
        } else {
            Self { lo: b, hi: a, axis }
        }
    }
}

/// The nearest-neighbor decomposition `p(α, β)`: the ordered list of unit
/// edges of the staircase path from `α` to `β` that corrects coordinates
/// dimension 1 first (paper, Section IV.A).
///
/// The number of edges equals the Manhattan distance `Δ(α, β)`.
pub fn nn_decomposition<const D: usize>(alpha: Point<D>, beta: Point<D>) -> Vec<NnEdge<D>> {
    let mut edges = Vec::with_capacity(alpha.manhattan(&beta) as usize);
    // Intermediate corner points α = α₀, α₁, …, α_d = β, where α_i has the
    // first i coordinates of β and the rest of α.
    let mut current = alpha;
    for axis in 0..D {
        let from = current.coord(axis);
        let to = beta.coord(axis);
        if from == to {
            continue;
        }
        let (lo, hi) = (from.min(to), from.max(to));
        for c in lo..hi {
            let a = current.with_coord(axis, c);
            let b = current.with_coord(axis, c + 1);
            edges.push(NnEdge::new(a, b));
        }
        current = current.with_coord(axis, to);
    }
    debug_assert_eq!(current, beta);
    edges
}

/// Brute-force edge-multiplicity census: for every ordered pair
/// `(α, β) ∈ A'`, generates `p(α, β)` and counts how many times each unit
/// edge appears. Cost `O(n² · d · side)` — for tests on small grids.
pub fn edge_multiplicity_census<const D: usize>(grid: Grid<D>) -> HashMap<NnEdge<D>, u128> {
    let mut census: HashMap<NnEdge<D>, u128> = HashMap::new();
    for alpha in grid.cells() {
        for beta in grid.cells() {
            if alpha == beta {
                continue;
            }
            for edge in nn_decomposition(alpha, beta) {
                *census.entry(edge).or_insert(0) += 1;
            }
        }
    }
    census
}

/// The closed-form multiplicity of a single edge (see
/// [`lemma4_edge_multiplicity_exact`](crate::bounds::lemma4_edge_multiplicity_exact)):
/// an edge along `axis` with lower coordinate `c` appears in
/// `2 · side^{d−1} · (c+1) · (side−1−c)` decompositions.
pub fn edge_multiplicity_closed_form<const D: usize>(grid: Grid<D>, edge: &NnEdge<D>) -> u128 {
    crate::bounds::lemma4_edge_multiplicity_exact(grid.k(), D, u64::from(edge.lo.coord(edge.axis)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_path_alpha_to_beta() {
        // Paper, Figure 2: α = (1,1), β = (3,5). p(α, β) first corrects
        // dimension 1 (1→3), then dimension 2 (1→5):
        // (1,1)-(2,1), (2,1)-(3,1), (3,1)-(3,2), (3,2)-(3,3), (3,3)-(3,4),
        // (3,4)-(3,5).
        let alpha = Point::new([1, 1]);
        let beta = Point::new([3, 5]);
        let path = nn_decomposition(alpha, beta);
        let expected = vec![
            NnEdge::new(Point::new([1, 1]), Point::new([2, 1])),
            NnEdge::new(Point::new([2, 1]), Point::new([3, 1])),
            NnEdge::new(Point::new([3, 1]), Point::new([3, 2])),
            NnEdge::new(Point::new([3, 2]), Point::new([3, 3])),
            NnEdge::new(Point::new([3, 3]), Point::new([3, 4])),
            NnEdge::new(Point::new([3, 4]), Point::new([3, 5])),
        ];
        assert_eq!(path, expected);
    }

    #[test]
    fn figure2_path_beta_to_alpha_differs() {
        // p(β, α) corrects dimension 1 first from β's corner: it passes
        // through (1,5), not (3,1). The two decompositions are different
        // edge sets — exactly the paper's point.
        let alpha = Point::new([1, 1]);
        let beta = Point::new([3, 5]);
        let forward: std::collections::HashSet<_> =
            nn_decomposition(alpha, beta).into_iter().collect();
        let backward: std::collections::HashSet<_> =
            nn_decomposition(beta, alpha).into_iter().collect();
        assert_ne!(forward, backward);
        // Both have length Δ(α, β) = 6.
        assert_eq!(forward.len(), 6);
        assert_eq!(backward.len(), 6);
        // The paper lists (1,5)-(2,5) and (2,5)-(3,5) among p(β, α)'s edges.
        assert!(backward.contains(&NnEdge::new(Point::new([1, 5]), Point::new([2, 5]))));
        assert!(backward.contains(&NnEdge::new(Point::new([2, 5]), Point::new([3, 5]))));
    }

    #[test]
    fn single_axis_decomposition_is_symmetric() {
        // When α and β differ along one dimension only, p(α,β) = p(β,α).
        let a = Point::new([6, 4, 5]);
        let b = Point::new([3, 4, 5]);
        let fwd: std::collections::HashSet<_> = nn_decomposition(a, b).into_iter().collect();
        let bwd: std::collections::HashSet<_> = nn_decomposition(b, a).into_iter().collect();
        assert_eq!(fwd, bwd);
        // The paper's example: p((6,4,5),(3,4,5)) = {(3..6 steps)}.
        assert_eq!(fwd.len(), 3);
        assert!(fwd.contains(&NnEdge::new(Point::new([3, 4, 5]), Point::new([4, 4, 5]))));
        assert!(fwd.contains(&NnEdge::new(Point::new([4, 4, 5]), Point::new([5, 4, 5]))));
        assert!(fwd.contains(&NnEdge::new(Point::new([5, 4, 5]), Point::new([6, 4, 5]))));
    }

    #[test]
    fn path_length_equals_manhattan_distance() {
        let grid = Grid::<3>::new(1).unwrap();
        for a in grid.cells() {
            for b in grid.cells() {
                let path = nn_decomposition(a, b);
                assert_eq!(path.len() as u64, a.manhattan(&b));
                // Every edge is a unit edge.
                for e in &path {
                    assert_eq!(e.lo.manhattan(&e.hi), 1);
                }
            }
        }
    }

    #[test]
    fn census_matches_closed_form_2d() {
        let grid = Grid::<2>::new(2).unwrap(); // 4×4
        let census = edge_multiplicity_census(grid);
        // Every unit edge of the grid must appear in the census.
        assert_eq!(census.len() as u128, grid.nn_edge_count());
        for (edge, &count) in &census {
            let expected = edge_multiplicity_closed_form(grid, edge);
            assert_eq!(count, expected, "edge {edge:?}");
        }
    }

    #[test]
    fn census_matches_closed_form_3d() {
        let grid = Grid::<3>::new(1).unwrap(); // 2×2×2
        let census = edge_multiplicity_census(grid);
        for (edge, &count) in &census {
            assert_eq!(count, edge_multiplicity_closed_form(grid, edge), "{edge:?}");
        }
    }

    #[test]
    fn lemma4_bound_holds_over_census() {
        let grid = Grid::<2>::new(2).unwrap();
        let bound = crate::bounds::lemma4_multiplicity_bound(2, 2); // 4³/2 = 32
        let census = edge_multiplicity_census(grid);
        let max = census.values().copied().max().unwrap();
        assert!(max <= bound, "max multiplicity {max} > bound {bound}");
        // The bound is within a factor 2 of tight on this grid.
        assert!(max * 2 >= bound, "bound is very loose: {max} vs {bound}");
    }

    #[test]
    fn total_census_mass_equals_total_manhattan_distance() {
        // Σ_edges multiplicity = Σ_{(α,β)∈A'} |p(α,β)| = Σ_{A'} Δ(α,β).
        let grid = Grid::<2>::new(1).unwrap();
        let census = edge_multiplicity_census(grid);
        let mass: u128 = census.values().sum();
        let mut manhattan_total = 0u128;
        for a in grid.cells() {
            for b in grid.cells() {
                manhattan_total += u128::from(a.manhattan(&b));
            }
        }
        assert_eq!(mass, manhattan_total);
    }

    #[test]
    #[should_panic(expected = "Manhattan distance 1")]
    fn nn_edge_rejects_distant_points() {
        NnEdge::new(Point::new([0, 0]), Point::new([2, 0]));
    }

    #[test]
    #[should_panic(expected = "exactly one axis")]
    fn nn_edge_rejects_diagonal_points() {
        NnEdge::new(Point::new([0, 0]), Point::new([1, 1]));
    }
}
