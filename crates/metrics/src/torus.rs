//! Stretch metrics on the **torus** (periodic boundaries) — an extension
//! the paper's analysis makes natural.
//!
//! On the torus every cell has exactly `2d` nearest neighbors, which
//! removes the paper's boundary bookkeeping (`U₂`, `H₂`, `K₁`, `K₂` in the
//! Theorem 2/3 proofs) entirely:
//!
//! * `|N(α)| = 2d` for all `α`, so Lemma 3 collapses to the **equality**
//!   `D^avg_T(π) = (1/nd)·Σ_{NN_T} Δπ` — the metric *is* the edge sum.
//! * The simple curve's torus stretch has a clean exact closed form,
//!   `D^avg_T(S) = 2·(n−1)·n^{1−1/d}/(d·n)` — asymptotically **twice** its
//!   open-grid value: each axis gains `side^{d−1}` wraparound edges of
//!   curve length `(side−1)·side^{i−1}`.
//!
//! Periodic domains are the standard setting in the scientific-computing
//! applications the paper cites (particle simulations with periodic
//! boundary conditions), so the torus variant is also the more faithful
//! model of the particle simulations [`crate::point_set`] stands in for.

use sfc_core::{Grid, Point, SpaceFillingCurve};

/// The `2d` torus neighbors of a cell (wraparound included; for `side = 2`
/// the up/down neighbors coincide and are both yielded, preserving the
/// `2d`-regular multigraph structure the equality above needs).
pub fn torus_neighbors<const D: usize>(
    grid: Grid<D>,
    p: Point<D>,
) -> impl Iterator<Item = Point<D>> {
    let side = grid.side() as u32;
    (0..D).flat_map(move |axis| {
        let c = p.coord(axis);
        let up = p.with_coord(axis, if c + 1 == side { 0 } else { c + 1 });
        let down = p.with_coord(axis, if c == 0 { side - 1 } else { c - 1 });
        [down, up]
    })
}

/// Exact torus stretch summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TorusStretchSummary {
    /// Curve name.
    pub curve: String,
    /// Number of cells.
    pub n: u128,
    /// `Σ` over the `d·n` unordered torus NN edges of `Δπ`.
    pub edge_sum: u128,
    /// `Σ_α δ^max_T(α)`.
    pub dmax_sum: u128,
}

impl TorusStretchSummary {
    /// `D^avg_T(π) = edge_sum / (n·d)` — exact (Lemma 3 is an equality on
    /// the torus).
    pub fn d_avg(&self, d: usize) -> f64 {
        self.edge_sum as f64 / (self.n as f64 * d as f64)
    }

    /// `D^max_T(π) = dmax_sum / n`.
    pub fn d_max(&self) -> f64 {
        self.dmax_sum as f64 / self.n as f64
    }

    /// Exact rational check for `D^avg_T` (cross-multiplied).
    pub fn d_avg_equals_ratio(&self, d: usize, num: u128, den: u128) -> bool {
        self.edge_sum * den == num * self.n * d as u128
    }
}

/// Computes the exact torus stretch metrics of a curve (`O(n·d)` scalar
/// curve evaluations).
///
/// This driver deliberately stays per-cell: the plane window of
/// [`crate::nn_stretch`] has no wrap-around mode (the neighbours of the
/// first plane live in the last one), and no measured workload asks for
/// one.
pub fn summarize_torus<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> TorusStretchSummary {
    let grid = curve.grid();
    let mut double_edge_sum = 0u128;
    let mut dmax_sum = 0u128;
    for cell in grid.cells() {
        let idx = curve.index_of(cell);
        let mut max = 0u128;
        for nb in torus_neighbors(grid, cell) {
            let dist = idx.abs_diff(curve.index_of(nb));
            double_edge_sum += dist;
            max = max.max(dist);
        }
        dmax_sum += max;
    }
    TorusStretchSummary {
        curve: curve.name(),
        n: grid.n(),
        edge_sum: double_edge_sum / 2,
        dmax_sum,
    }
}

/// Exact closed form for the simple curve's torus stretch:
/// `D^avg_T(S) = 2·(n−1)·n^{1−1/d} / (d·n)`, returned as
/// `(numerator, denominator)`.
pub fn torus_simple_davg_exact(k: u32, d: usize) -> (u128, u128) {
    let n = crate::bounds::n_cells(k, d);
    let pow = crate::bounds::n_pow_1_minus_1_over_d(k, d);
    (2 * (n - 1) * pow, d as u128 * n)
}

/// A curve is **fiber-monotone** if its index is monotone along every
/// axis-parallel line of cells. The Z, simple and snake curves all are;
/// Gray and Hilbert are not.
///
/// For any fiber-monotone curve the cyclic sum of `|Δπ|` along a fiber
/// telescopes to `2·(max − min)` over that fiber, and summing over all
/// fibers of all axes gives the *same* torus edge sum for every such
/// curve: `Σ_{NN_T} Δπ = 2·side^{d−1}·(n−1)` (the Z curve's per-fiber
/// range is `dilate(side−1)·2^{d−i}` and `Σ_i 2^{d−i}·(n−1)/(2^d−1) =
/// n−1`, matching the simple curve's `Σ_i (side−1)·side^{i−1}` exactly).
///
/// Consequence: **all fiber-monotone curves have identical average torus
/// stretch** `D^avg_T = 2·side^{d−1}·(n−1)/(d·n)` — an exact equality the
/// tests verify for Z, simple and snake.
pub fn torus_fiber_monotone_edge_sum(k: u32, d: usize) -> u128 {
    let n = crate::bounds::n_cells(k, d);
    let pow = crate::bounds::n_pow_1_minus_1_over_d(k, d); // side^{d−1}
    2 * pow * (n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{CurveKind, SimpleCurve, ZCurve};

    #[test]
    fn torus_neighbors_are_2d_regular() {
        let grid = Grid::<3>::new(2).unwrap();
        for cell in grid.cells() {
            let nbs: Vec<_> = torus_neighbors(grid, cell).collect();
            assert_eq!(nbs.len(), 6);
            for nb in nbs {
                // Torus distance 1: differ along one axis by 1 or side−1.
                let axis = cell.differing_axis(&nb).expect("one axis");
                let diff = cell.coord(axis).abs_diff(nb.coord(axis));
                assert!(diff == 1 || diff == 3);
            }
        }
    }

    #[test]
    fn wraparound_pairs() {
        let grid = Grid::<2>::new(2).unwrap();
        let corner = Point::new([0, 0]);
        let nbs: Vec<_> = torus_neighbors(grid, corner).collect();
        assert!(nbs.contains(&Point::new([3, 0])));
        assert!(nbs.contains(&Point::new([0, 3])));
        assert!(nbs.contains(&Point::new([1, 0])));
        assert!(nbs.contains(&Point::new([0, 1])));
    }

    #[test]
    fn side_two_torus_doubles_each_neighbor() {
        let grid = Grid::<2>::new(1).unwrap();
        let nbs: Vec<_> = torus_neighbors(grid, Point::new([0, 0])).collect();
        assert_eq!(nbs.len(), 4);
        // Up and down wrap to the same cell.
        assert_eq!(nbs[0], nbs[1]);
        assert_eq!(nbs[2], nbs[3]);
    }

    #[test]
    fn simple_curve_matches_closed_form() {
        for k in 1..=4u32 {
            let s = summarize_torus(&SimpleCurve::<2>::new(k).unwrap());
            let (num, den) = torus_simple_davg_exact(k, 2);
            assert!(
                s.d_avg_equals_ratio(2, num, den),
                "k={k}: {} vs {num}/{den}",
                s.d_avg(2)
            );
        }
        let s3 = summarize_torus(&SimpleCurve::<3>::new(2).unwrap());
        let (num, den) = torus_simple_davg_exact(2, 3);
        assert!(s3.d_avg_equals_ratio(3, num, den));
    }

    #[test]
    fn torus_stretch_dominates_open_grid_stretch_for_analytic_curves() {
        // Wraparound edges add long-range pairs for every analytic family
        // (their boundary cells map to distant curve positions).
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(3).unwrap();
            let open = crate::nn_stretch::summarize(&c);
            let torus = summarize_torus(&c);
            assert!(
                torus.d_avg(2) >= open.d_avg() - 1e-9,
                "{kind}: torus {} < open {}",
                torus.d_avg(2),
                open.d_avg()
            );
        }
    }

    #[test]
    fn torus_simple_is_asymptotically_twice_open_simple() {
        let k = 8u32;
        let open = crate::nn_stretch::summarize_par(&SimpleCurve::<2>::new(k).unwrap());
        let torus = summarize_torus(&SimpleCurve::<2>::new(k).unwrap());
        let ratio = torus.d_avg(2) / open.d_avg();
        assert!((ratio - 2.0).abs() < 0.02, "ratio {ratio}");
    }

    #[test]
    fn fiber_monotone_curves_share_the_exact_torus_edge_sum() {
        // The emergent identity: Z, simple and snake have identical torus
        // edge sums, equal to the closed form 2·side^{d−1}·(n−1).
        for k in 1..=4u32 {
            let expected = torus_fiber_monotone_edge_sum(k, 2);
            for kind in [CurveKind::Z, CurveKind::Simple, CurveKind::Snake] {
                let c = kind.build::<2>(k).unwrap();
                let s = summarize_torus(&c);
                assert_eq!(s.edge_sum, expected, "{kind} k={k}");
            }
            // And the non-fiber-monotone curves exceed it.
            for kind in [CurveKind::Gray, CurveKind::Hilbert] {
                let c = kind.build::<2>(k).unwrap();
                let s = summarize_torus(&c);
                assert!(s.edge_sum >= expected, "{kind} k={k}");
            }
        }
        let expected3 = torus_fiber_monotone_edge_sum(2, 3);
        for kind in [CurveKind::Z, CurveKind::Simple, CurveKind::Snake] {
            let c = kind.build::<3>(2).unwrap();
            assert_eq!(summarize_torus(&c).edge_sum, expected3, "{kind} d=3");
        }
    }

    #[test]
    fn torus_dmax_at_least_davg() {
        let z = ZCurve::<2>::new(3).unwrap();
        let s = summarize_torus(&z);
        assert!(s.d_max() >= s.d_avg(2));
    }

    #[test]
    fn lemma3_is_an_equality_on_the_torus() {
        // D^avg_T literally equals edge_sum/(n·d): check via independent
        // per-cell averaging.
        let z = ZCurve::<2>::new(2).unwrap();
        let grid = z.grid();
        let mut total = 0.0;
        for cell in grid.cells() {
            let idx = z.index_of(cell);
            let sum: u128 = torus_neighbors(grid, cell)
                .map(|nb| idx.abs_diff(z.index_of(nb)))
                .sum();
            total += sum as f64 / 4.0;
        }
        let per_cell = total / 16.0;
        let s = summarize_torus(&z);
        assert!((per_cell - s.d_avg(2)).abs() < 1e-12);
    }
}
