//! The clustering metric of Moon, Jagadish, Faloutsos & Saltz (paper's
//! related work, reference [18]).
//!
//! For an axis-aligned box query, the **cluster count** is the number of
//! maximal runs of consecutive curve indices needed to cover the box —
//! i.e. the number of disk seeks a linear storage layout would pay. The
//! paper contrasts this metric with the stretch; implementing both lets the
//! experiment harness show that they rank curves differently (Hilbert wins
//! on clustering, while Theorem 2 shows Z is already near-optimal for
//! NN-stretch).

use sfc_core::{CurveIndex, Point, SpaceFillingCurve};

/// The number of maximal consecutive index runs covering the box
/// `[corner, corner + size)` (all axes the same extent).
///
/// # Panics
/// Panics if the box does not fit in the grid.
pub fn clusters_for_box<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    corner: Point<D>,
    size: u64,
) -> u64 {
    let indices = box_indices(curve, corner, size);
    count_runs(&indices)
}

/// The sorted curve indices of all cells in the box `[corner, corner+size)`.
pub fn box_indices<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    corner: Point<D>,
    size: u64,
) -> Vec<CurveIndex> {
    let grid = curve.grid();
    assert!(size >= 1, "box size must be at least 1");
    for axis in 0..D {
        assert!(
            u64::from(corner.coord(axis)) + size <= grid.side(),
            "box exceeds grid along axis {axis}"
        );
    }
    let volume = (size as usize).pow(D as u32);
    let mut indices = Vec::with_capacity(volume);
    // Odometer over the box.
    let mut offsets = [0u64; D];
    loop {
        let mut coords = corner.coords();
        for (c, off) in coords.iter_mut().zip(offsets.iter()) {
            *c += *off as u32;
        }
        indices.push(curve.index_of(Point::new(coords)));
        // Increment odometer.
        let mut done = true;
        for off in offsets.iter_mut() {
            *off += 1;
            if *off < size {
                done = false;
                break;
            }
            *off = 0;
        }
        if done {
            break;
        }
    }
    indices.sort_unstable();
    indices
}

/// Counts maximal runs of consecutive values in a sorted slice.
fn count_runs(sorted: &[CurveIndex]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let mut runs = 1u64;
    for w in sorted.windows(2) {
        if w[1] != w[0] + 1 {
            runs += 1;
        }
    }
    runs
}

/// The exact average cluster count over **all** placements of a `size^d`
/// box. Cost: `O((side−size+1)^d · size^d)` curve evaluations.
pub fn average_clusters_exact<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    size: u64,
) -> f64 {
    let grid = curve.grid();
    let positions_per_axis = grid.side() - size + 1;
    let mut total = 0u128;
    let mut count = 0u128;
    // Odometer over corner positions.
    let mut corner = [0u64; D];
    loop {
        let mut coords = [0u32; D];
        for (c, v) in coords.iter_mut().zip(corner.iter()) {
            *c = *v as u32;
        }
        total += u128::from(clusters_for_box(curve, Point::new(coords), size));
        count += 1;
        let mut done = true;
        for c in corner.iter_mut() {
            *c += 1;
            if *c < positions_per_axis {
                done = false;
                break;
            }
            *c = 0;
        }
        if done {
            break;
        }
    }
    total as f64 / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{CurveKind, HilbertCurve, SnakeCurve, ZCurve};

    #[test]
    fn single_cell_box_is_one_cluster() {
        let z = ZCurve::<2>::new(3).unwrap();
        for p in z.grid().cells() {
            assert_eq!(clusters_for_box(&z, p, 1), 1);
        }
    }

    #[test]
    fn whole_grid_box_is_one_cluster() {
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(2).unwrap();
            assert_eq!(
                clusters_for_box(&c, Point::new([0, 0]), 4),
                1,
                "{kind}: the whole universe is one contiguous index range"
            );
        }
    }

    #[test]
    fn cluster_count_bounded_by_box_volume() {
        let z = ZCurve::<2>::new(3).unwrap();
        for corner in [[0u32, 0], [2, 3], [4, 4]] {
            let c = clusters_for_box(&z, Point::new(corner), 3);
            assert!((1..=9).contains(&c));
        }
    }

    #[test]
    fn snake_rows_cluster_perfectly() {
        // A 1-row-high box aligned with the snake's sweep direction is
        // always a single run.
        let s = SnakeCurve::<2>::new(3).unwrap();
        for x in 0..5u32 {
            for y in 0..8u32 {
                // width 4, height 1 box: cells (x..x+4, y).
                let indices: Vec<_> = (0..4)
                    .map(|dx| s.index_of(Point::new([x + dx, y])))
                    .collect();
                let mut sorted = indices.clone();
                sorted.sort_unstable();
                assert_eq!(count_runs(&sorted), 1, "x={x} y={y}");
            }
        }
    }

    #[test]
    fn z_quadrant_aligned_boxes_are_single_clusters() {
        // A 2^j-aligned box of side 2^j is exactly one Z-order subtree.
        let z = ZCurve::<2>::new(3).unwrap();
        for qx in 0..4u32 {
            for qy in 0..4u32 {
                let corner = Point::new([qx * 2, qy * 2]);
                assert_eq!(clusters_for_box(&z, corner, 2), 1);
            }
        }
    }

    #[test]
    fn hilbert_clusters_no_worse_than_z_on_average() {
        // Moon et al.'s empirical/analytic finding: Hilbert clusters better
        // than Z for square range queries.
        let z = ZCurve::<2>::new(3).unwrap();
        let h = HilbertCurve::<2>::new(3).unwrap();
        for q in [2u64, 3, 4] {
            let az = average_clusters_exact(&z, q);
            let ah = average_clusters_exact(&h, q);
            assert!(ah <= az + 1e-12, "q={q}: hilbert {ah} > z {az}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds grid")]
    fn out_of_bounds_box_is_rejected() {
        let z = ZCurve::<2>::new(2).unwrap();
        clusters_for_box(&z, Point::new([3, 0]), 2);
    }
}
