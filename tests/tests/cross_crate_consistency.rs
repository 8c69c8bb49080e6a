//! Consistency checks between crates that implement the same quantity
//! through different code paths.

use sfc_core::{CurveKind, Grid, Point, SpaceFillingCurve, ZCurve};
use sfc_index::{BoxRegion, SfcIndex};
use sfc_integration::test_rng;
use sfc_metrics::clustering;

/// `BoxRegion::curve_intervals` (sfc-index) and
/// `clustering::clusters_for_box` (sfc-metrics) are two independent
/// implementations of the Moon-et-al cluster count; they must agree for
/// every curve and every square box.
#[test]
fn interval_count_equals_cluster_count() {
    for kind in CurveKind::ALL {
        let curve = kind.build::<2>(3).unwrap();
        for size in [1u64, 2, 3, 5] {
            for x in 0..(8 - size as u32) {
                for y in 0..(8 - size as u32) {
                    let corner = Point::new([x, y]);
                    let hi = Point::new([x + size as u32 - 1, y + size as u32 - 1]);
                    let region = BoxRegion::new(corner, hi);
                    let intervals = region.curve_intervals(&curve);
                    let clusters = clustering::clusters_for_box(&curve, corner, size);
                    assert_eq!(
                        intervals.len() as u64,
                        clusters,
                        "{kind} box at {corner} size {size}"
                    );
                }
            }
        }
    }
}

/// The seeks of an interval-decomposed box query equal the cluster count:
/// the index layer pays exactly the clustering metric in seeks.
#[test]
fn index_seeks_equal_clustering_metric() {
    let grid = Grid::<2>::new(4).unwrap();
    let mut rng = test_rng(5);
    // One record in every cell so the scan structure is fully visible.
    let records: Vec<(Point<2>, u64)> = grid
        .cells()
        .map(|c| (c, u64::from(c.coord(0)) * 100 + u64::from(c.coord(1))))
        .collect();
    for kind in CurveKind::ALL {
        let curve = kind.build::<2>(4).unwrap();
        let index = SfcIndex::build(&curve, records.clone());
        for _ in 0..20 {
            let corner = Point::new([
                rand::Rng::gen_range(&mut rng, 0..12u32),
                rand::Rng::gen_range(&mut rng, 0..12u32),
            ]);
            let size = rand::Rng::gen_range(&mut rng, 1..5u64);
            let hi = Point::new([
                corner.coord(0) + size as u32 - 1,
                corner.coord(1) + size as u32 - 1,
            ]);
            let region = BoxRegion::new(corner, hi);
            let (hits, stats) = index.query_intervals(&region.curve_intervals(&curve));
            let clusters = clustering::clusters_for_box(&curve, corner, size);
            assert_eq!(stats.seeks, clusters, "{kind}");
            // Full occupancy: every box cell is a hit.
            assert_eq!(hits.len() as u128, region.volume(), "{kind}");
        }
    }
}

/// `ZCurve::nn_edge_distance` (sfc-core closed form) agrees with the
/// measured Λ machinery (sfc-metrics) and with brute-force curve
/// distances — three crates, one number.
#[test]
fn z_edge_distance_three_ways() {
    let z = ZCurve::<3>::new(3).unwrap();
    for axis in 0..3 {
        let brute: u128 = z
            .grid()
            .nn_edges()
            .filter(|&(_, _, a)| a == axis)
            .map(|(p, q, _)| z.curve_distance(p, q))
            .sum();
        let lambda = sfc_metrics::lambda::lambda_measured(&z, axis);
        let closed = sfc_metrics::lambda::lambda_closed_form(3, 3, axis + 1);
        assert_eq!(brute, lambda);
        assert_eq!(brute, closed);
    }
}

/// Partition edge cuts through the partition crate match a brute-force
/// recount through core primitives.
#[test]
fn partition_edge_cut_brute_force() {
    use sfc_partition::{partition_greedy, quality, WeightedGrid, Workload};
    let grid = Grid::<2>::new(3).unwrap();
    let mut rng = test_rng(9);
    let weights = WeightedGrid::generate(
        grid,
        Workload::GaussianClusters {
            count: 2,
            sigma: 1.5,
        },
        &mut rng,
    );
    for kind in CurveKind::ALL {
        let curve = kind.build::<2>(3).unwrap();
        let part = partition_greedy(&curve, &weights, 5);
        let q = quality::evaluate(&curve, &weights, &part);
        let mut brute = 0u64;
        for (a, b, _) in grid.nn_edges() {
            if part.part_of(curve.index_of(a)) != part.part_of(curve.index_of(b)) {
                brute += 1;
            }
        }
        assert_eq!(q.edge_cut, brute, "{kind}");
    }
}

/// Quantised points at cell centers reproduce cell-level curve keys: the
/// point-set quantisation and the core curves agree.
#[test]
fn point_quantisation_matches_cell_keys() {
    use sfc_metrics::point_set::quantize;
    let grid = Grid::<2>::new(4).unwrap();
    let z = ZCurve::<2>::over(grid);
    for cell in grid.cells() {
        let center = [
            (f64::from(cell.coord(0)) + 0.5) / 16.0,
            (f64::from(cell.coord(1)) + 0.5) / 16.0,
        ];
        assert_eq!(
            z.index_of(quantize(grid, &center)),
            z.index_of(cell),
            "cell {cell}"
        );
    }
}
