//! Synthetic weighted workloads over a grid.
//!
//! The cited applications (adaptive mesh refinement \[22\], N-body \[26\],
//! non-uniform structured workloads \[23\]) attach a *work weight* to each
//! cell. These generators produce the standard synthetic stand-ins: uniform
//! load, an exponentially corner-concentrated load (mimicking a refined
//! region), and a mixture of Gaussian blobs (mimicking particle clusters).

use rand::Rng;
use sfc_core::{Grid, Point, SpaceFillingCurve};

/// A grid with a non-negative work weight per cell (indexed by row-major
/// rank).
#[derive(Debug, Clone)]
pub struct WeightedGrid<const D: usize> {
    grid: Grid<D>,
    weights: Vec<f64>,
}

/// Workload families for [`WeightedGrid::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Every cell has weight 1.
    Uniform,
    /// Weight decays exponentially with Manhattan distance from the origin
    /// corner: `w(α) = exp(−Δ(α, 0)/scale)`. Models a locally refined
    /// region.
    CornerExponential {
        /// Decay length in cells.
        scale: f64,
    },
    /// A sum of `count` Gaussian blobs at random centers with the given
    /// standard deviation (in cells), plus a small uniform floor so no cell
    /// has zero weight. Models clustered particles.
    GaussianClusters {
        /// Number of blobs.
        count: usize,
        /// Standard deviation of each blob, in cells.
        sigma: f64,
    },
}

impl<const D: usize> WeightedGrid<D> {
    /// Builds a workload over `grid`.
    pub fn generate<R: Rng + ?Sized>(grid: Grid<D>, workload: Workload, rng: &mut R) -> Self {
        let n = usize::try_from(grid.n()).expect("grid too large to materialise weights");
        let mut weights = vec![0.0f64; n];
        match workload {
            Workload::Uniform => weights.fill(1.0),
            Workload::CornerExponential { scale } => {
                for cell in grid.cells() {
                    let rank = grid.row_major_rank(&cell) as usize;
                    let dist = cell.manhattan(&Point::origin()) as f64;
                    weights[rank] = (-dist / scale).exp();
                }
            }
            Workload::GaussianClusters { count, sigma } => {
                let centers: Vec<Point<D>> = (0..count).map(|_| grid.random_cell(rng)).collect();
                let inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma);
                for cell in grid.cells() {
                    let rank = grid.row_major_rank(&cell) as usize;
                    let mut w = 1e-3; // uniform floor
                    for c in &centers {
                        let d2 = cell.euclidean_sq(c) as f64;
                        w += (-d2 * inv_two_sigma_sq).exp();
                    }
                    weights[rank] = w;
                }
            }
        }
        Self { grid, weights }
    }

    /// Builds a workload from explicit per-cell weights in row-major order.
    ///
    /// # Panics
    /// Panics if the length does not match the cell count or any weight is
    /// negative / non-finite.
    pub fn from_weights(grid: Grid<D>, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len() as u128, grid.n(), "one weight per cell");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights must be non-negative and finite"
        );
        Self { grid, weights }
    }

    /// The underlying grid.
    pub fn grid(&self) -> Grid<D> {
        self.grid
    }

    /// The weight of a cell.
    #[inline]
    pub fn weight(&self, cell: &Point<D>) -> f64 {
        self.weights[self.grid.row_major_rank(cell) as usize]
    }

    /// Total weight of the workload.
    pub fn total(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// The weights rearranged into the traversal order of `curve`
    /// (`result[i]` is the weight of the cell at curve index `i`).
    pub fn in_curve_order<C: SpaceFillingCurve<D>>(&self, curve: &C) -> Vec<f64> {
        assert_eq!(curve.grid(), self.grid, "curve must fill the same grid");
        curve.traverse().map(|cell| self.weight(&cell)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sfc_core::ZCurve;

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(99)
    }

    #[test]
    fn uniform_workload_weights_every_cell_one() {
        let grid = Grid::<2>::new(2).unwrap();
        let w = WeightedGrid::generate(grid, Workload::Uniform, &mut rng());
        assert_eq!(w.total(), 16.0);
        for cell in grid.cells() {
            assert_eq!(w.weight(&cell), 1.0);
        }
    }

    #[test]
    fn corner_exponential_decays_monotonically_from_origin() {
        let grid = Grid::<2>::new(3).unwrap();
        let w =
            WeightedGrid::generate(grid, Workload::CornerExponential { scale: 2.0 }, &mut rng());
        assert!(w.weight(&Point::new([0, 0])) > w.weight(&Point::new([1, 0])));
        assert!(w.weight(&Point::new([1, 1])) > w.weight(&Point::new([7, 7])));
        // Equal Manhattan distance → equal weight.
        assert_eq!(w.weight(&Point::new([2, 1])), w.weight(&Point::new([1, 2])));
    }

    #[test]
    fn gaussian_clusters_have_positive_floor_everywhere() {
        let grid = Grid::<2>::new(3).unwrap();
        let w = WeightedGrid::generate(
            grid,
            Workload::GaussianClusters {
                count: 3,
                sigma: 1.5,
            },
            &mut rng(),
        );
        for cell in grid.cells() {
            assert!(w.weight(&cell) >= 1e-3);
        }
        // Clusters make the load non-uniform.
        let weights: Vec<f64> = grid.cells().map(|c| w.weight(&c)).collect();
        let min = weights.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = weights.iter().cloned().fold(0.0, f64::max);
        assert!(max > 10.0 * min);
    }

    #[test]
    fn in_curve_order_permutes_weights() {
        let grid = Grid::<2>::new(2).unwrap();
        let mut r = rng();
        let w = WeightedGrid::generate(grid, Workload::CornerExponential { scale: 1.0 }, &mut r);
        let z = ZCurve::<2>::over(grid);
        let ordered = w.in_curve_order(&z);
        assert_eq!(ordered.len(), 16);
        // Same multiset, total preserved.
        let total: f64 = ordered.iter().sum();
        assert!((total - w.total()).abs() < 1e-12);
        // Cell at curve index 0 is the origin for the Z curve.
        assert_eq!(ordered[0], w.weight(&Point::new([0, 0])));
    }

    #[test]
    fn from_weights_roundtrips() {
        let grid = Grid::<1>::new(2).unwrap();
        let w = WeightedGrid::from_weights(grid, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(w.weight(&Point::new([2])), 3.0);
        assert_eq!(w.total(), 10.0);
    }

    #[test]
    #[should_panic(expected = "one weight per cell")]
    fn from_weights_rejects_wrong_length() {
        let grid = Grid::<1>::new(2).unwrap();
        WeightedGrid::from_weights(grid, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_weights_rejects_negative() {
        let grid = Grid::<1>::new(1).unwrap();
        WeightedGrid::from_weights(grid, vec![1.0, -1.0]);
    }
}
