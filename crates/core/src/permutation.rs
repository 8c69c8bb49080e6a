//! Table-driven space filling curves: arbitrary bijections `U → {0,…,n−1}`.
//!
//! The paper's lower bounds (Theorem 1, Propositions 1 and 3) hold for the
//! class of **all** bijections, including self-intersecting orders. This
//! module provides that full generality:
//!
//! * [`PermutationCurve::random`] — a uniformly random bijection, used by
//!   the experiments to probe the lower bound over the whole class;
//! * [`PermutationCurve::figure1_pi1`] / [`figure1_pi2`]
//!   (on `PermutationCurve<2>`) — the two worked curves of the paper's
//!   Figure 1;
//! * [`PermutationCurve::from_index_fn`] — any table, e.g. the winners of
//!   the optimal-curve searches in `sfc-metrics`.

use crate::curve::SpaceFillingCurve;
use crate::error::SfcError;
use crate::grid::Grid;
use crate::point::Point;
use crate::CurveIndex;
use rand::seq::SliceRandom;
use rand::Rng;

/// An explicit, table-driven bijection from grid cells to `{0, …, n−1}`.
///
/// Storage is two `Vec<u64>`s of length `n` (forward and inverse), so this
/// is only usable for grids that fit in memory — which is exactly the regime
/// where exhaustive stretch metrics are computable anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationCurve<const D: usize> {
    grid: Grid<D>,
    /// `forward[row_major_rank(p)] = π(p)`.
    forward: Vec<u64>,
    /// `inverse[π(p)] = row_major_rank(p)`.
    inverse: Vec<u64>,
    name: String,
}

impl<const D: usize> PermutationCurve<D> {
    fn n_usize(grid: Grid<D>) -> Result<usize, SfcError> {
        usize::try_from(grid.n()).map_err(|_| SfcError::TooManyCells { n: grid.n() })
    }

    /// Builds a curve from a function assigning an index to every cell.
    /// The mapping is validated to be a bijection.
    pub fn from_index_fn(
        grid: Grid<D>,
        name: impl Into<String>,
        mut f: impl FnMut(Point<D>) -> CurveIndex,
    ) -> Result<Self, SfcError> {
        let n = Self::n_usize(grid)?;
        let mut forward = vec![u64::MAX; n];
        let mut inverse = vec![u64::MAX; n];
        for p in grid.cells() {
            let rank = grid.row_major_rank(&p) as u64;
            let idx = f(p);
            if idx >= grid.n() {
                return Err(SfcError::NotABijection {
                    detail: format!("index {idx} for cell {p} out of range"),
                });
            }
            if inverse[idx as usize] != u64::MAX {
                return Err(SfcError::NotABijection {
                    detail: format!("index {idx} assigned twice (second time to {p})"),
                });
            }
            forward[rank as usize] = idx as u64;
            inverse[idx as usize] = rank;
        }
        Ok(Self {
            grid,
            forward,
            inverse,
            name: name.into(),
        })
    }

    /// Builds a curve from the complete list of cells *in curve order*
    /// (`order[i]` is the cell with index `i`).
    pub fn from_order(
        grid: Grid<D>,
        name: impl Into<String>,
        order: &[Point<D>],
    ) -> Result<Self, SfcError> {
        let n = Self::n_usize(grid)?;
        if order.len() != n {
            return Err(SfcError::NotABijection {
                detail: format!("order has {} cells, grid has {n}", order.len()),
            });
        }
        let mut forward = vec![u64::MAX; n];
        let mut inverse = vec![u64::MAX; n];
        for (idx, p) in order.iter().enumerate() {
            if !grid.contains(p) {
                return Err(SfcError::NotABijection {
                    detail: format!("cell {p} out of bounds"),
                });
            }
            let rank = grid.row_major_rank(p) as usize;
            if forward[rank] != u64::MAX {
                return Err(SfcError::NotABijection {
                    detail: format!("cell {p} listed twice"),
                });
            }
            forward[rank] = idx as u64;
            inverse[idx] = rank as u64;
        }
        Ok(Self {
            grid,
            forward,
            inverse,
            name: name.into(),
        })
    }

    /// A uniformly random bijection (Fisher–Yates over the identity order).
    pub fn random<R: Rng + ?Sized>(grid: Grid<D>, rng: &mut R) -> Result<Self, SfcError> {
        let n = Self::n_usize(grid)?;
        let mut forward: Vec<u64> = (0..n as u64).collect();
        forward.shuffle(rng);
        let mut inverse = vec![0u64; n];
        for (rank, &idx) in forward.iter().enumerate() {
            inverse[idx as usize] = rank as u64;
        }
        Ok(Self {
            grid,
            forward,
            inverse,
            name: "random".to_string(),
        })
    }
}

impl PermutationCurve<2> {
    /// Figure 1 (left): the curve `π₁` ordering the 2×2 cells as
    /// `C, A, B, D`, where the figure's layout is
    /// `A = (0,1), C = (1,1), D = (0,0), B = (1,0)`.
    ///
    /// The paper computes `D^avg(π₁) = 1.5` and `D^max(π₁) = 2`.
    pub fn figure1_pi1() -> Self {
        let grid = Grid::<2>::new(1).expect("2x2 grid");
        let c = Point::new([1, 1]);
        let a = Point::new([0, 1]);
        let b = Point::new([1, 0]);
        let d = Point::new([0, 0]);
        Self::from_order(grid, "pi1", &[c, a, b, d]).expect("valid order")
    }

    /// Figure 1 (right): the self-intersecting curve `π₂` ordering the 2×2
    /// cells as `A, B, C, D`.
    ///
    /// The paper computes `D^avg(π₂) = 2` and `D^max(π₂) = 2.5`.
    pub fn figure1_pi2() -> Self {
        let grid = Grid::<2>::new(1).expect("2x2 grid");
        let c = Point::new([1, 1]);
        let a = Point::new([0, 1]);
        let b = Point::new([1, 0]);
        let d = Point::new([0, 0]);
        Self::from_order(grid, "pi2", &[a, b, c, d]).expect("valid order")
    }
}

impl<const D: usize> SpaceFillingCurve<D> for PermutationCurve<D> {
    fn grid(&self) -> Grid<D> {
        self.grid
    }

    #[inline]
    fn index_of(&self, p: Point<D>) -> CurveIndex {
        u128::from(self.forward[self.grid.row_major_rank(&p) as usize])
    }

    #[inline]
    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        self.grid
            .point_from_row_major(u128::from(self.inverse[idx as usize]))
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn figure1_curves_are_bijections() {
        PermutationCurve::figure1_pi1()
            .validate_bijection()
            .unwrap();
        PermutationCurve::figure1_pi2()
            .validate_bijection()
            .unwrap();
    }

    #[test]
    fn figure1_pi1_order_is_c_a_b_d() {
        let pi1 = PermutationCurve::figure1_pi1();
        assert_eq!(pi1.point_of(0), Point::new([1, 1])); // C
        assert_eq!(pi1.point_of(1), Point::new([0, 1])); // A
        assert_eq!(pi1.point_of(2), Point::new([1, 0])); // B
        assert_eq!(pi1.point_of(3), Point::new([0, 0])); // D
        assert_eq!(pi1.name(), "pi1");
    }

    #[test]
    fn random_curves_are_bijections() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for _ in 0..10 {
            let grid = Grid::<2>::new(2).unwrap();
            let c = PermutationCurve::random(grid, &mut rng).unwrap();
            c.validate_bijection().unwrap();
        }
        let grid3 = Grid::<3>::new(1).unwrap();
        PermutationCurve::random(grid3, &mut rng)
            .unwrap()
            .validate_bijection()
            .unwrap();
    }

    #[test]
    fn from_order_rejects_bad_input() {
        let grid = Grid::<2>::new(1).unwrap();
        let a = Point::new([0, 0]);
        let b = Point::new([1, 0]);
        let c = Point::new([0, 1]);
        // Too short.
        assert!(PermutationCurve::from_order(grid, "bad", &[a, b, c]).is_err());
        // Duplicate cell.
        assert!(PermutationCurve::from_order(grid, "bad", &[a, b, c, a]).is_err());
        // Out of bounds.
        let far = Point::new([9, 9]);
        assert!(PermutationCurve::from_order(grid, "bad", &[a, b, c, far]).is_err());
    }

    #[test]
    fn from_index_fn_rejects_non_bijections() {
        let grid = Grid::<2>::new(1).unwrap();
        // Constant function: not injective.
        assert!(matches!(
            PermutationCurve::from_index_fn(grid, "const", |_| 0),
            Err(SfcError::NotABijection { .. })
        ));
        // Out of range.
        assert!(matches!(
            PermutationCurve::from_index_fn(grid, "oob", |_| 99),
            Err(SfcError::NotABijection { .. })
        ));
    }
}
