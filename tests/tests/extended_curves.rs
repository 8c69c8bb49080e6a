//! Integration coverage for the extended 2-D curves (spiral, diagonal):
//! they must compose with every substrate exactly like the analytic five.

use sfc_core::{Grid, Point, SpaceFillingCurve};
use sfc_index::{BoxRegion, SfcIndex};
use sfc_integration::{oracle, test_rng};
use sfc_metrics::{bounds, nn_stretch};
use sfc_partition::{partition_greedy, quality, WeightedGrid, Workload};

fn extended_curves(k: u32) -> Vec<sfc_core::BoxedCurve<2>> {
    vec![
        Box::new(sfc_core::SpiralCurve::new(k).unwrap()),
        Box::new(sfc_core::DiagonalCurve::new(k).unwrap()),
    ]
}

#[test]
fn extended_curves_obey_theorem_1() {
    for k in 1..=5u32 {
        let bound = bounds::thm1_nn_stretch_lower_bound(k, 2);
        for curve in extended_curves(k) {
            let s = nn_stretch::summarize(&curve);
            assert!(
                s.d_avg() >= bound - 1e-9,
                "{} k={k}: {} < {bound}",
                curve.name(),
                s.d_avg()
            );
            assert!(s.d_max() >= s.d_avg() - 1e-9);
        }
    }
}

#[test]
fn extended_curves_sa_prime_is_universal() {
    // Lemma 2 holds for the new curves too, of course.
    for curve in extended_curves(2) {
        assert_eq!(
            sfc_metrics::all_pairs::sa_prime_sum(&curve),
            bounds::lemma2_sa_prime(16),
            "{}",
            curve.name()
        );
    }
}

#[test]
fn extended_curves_serve_box_and_knn_queries() {
    let grid = Grid::<2>::new(4).unwrap();
    let mut rng = test_rng(123);
    let records: Vec<(Point<2>, usize)> =
        (0..200).map(|i| (grid.random_cell(&mut rng), i)).collect();
    for curve in extended_curves(4) {
        let name = curve.name();
        let index = SfcIndex::build(curve, records.clone());
        let region = BoxRegion::new(Point::new([2, 3]), Point::new([9, 11]));
        let rows: Vec<_> = index
            .entries()
            .map(|e| (e.key, e.point, *e.payload))
            .collect();
        let (hits, stats) = index.query_intervals(&region.curve_intervals(index.curve()));
        let full = oracle::box_linear(rows.iter().copied(), &region);
        assert_eq!(hits.len(), full.len(), "{name}");
        assert_eq!(stats.overscan(), 1.0, "{name}");
        assert_eq!(index.query_box(&region).0, hits, "{name}");
        let q = Point::new([7, 7]);
        let (got, _) = index.knn(q, 4, 6);
        let want = oracle::knn_linear(rows, q, 4);
        let gd: Vec<u128> = got.iter().map(|e| q.euclidean_sq(&e.point)).collect();
        let wd: Vec<u128> = want.iter().map(|e| q.euclidean_sq(&e.1)).collect();
        assert_eq!(gd, wd, "{name}");
    }
}

#[test]
fn extended_curves_partition_cleanly() {
    let grid = Grid::<2>::new(4).unwrap();
    let mut rng = test_rng(7);
    let weights = WeightedGrid::generate(
        grid,
        Workload::GaussianClusters {
            count: 3,
            sigma: 2.0,
        },
        &mut rng,
    );
    for curve in extended_curves(4) {
        let part = partition_greedy(&curve, &weights, 6);
        let q = quality::evaluate(&curve, &weights, &part);
        assert!(q.imbalance >= 1.0 - 1e-12, "{}", curve.name());
        assert!(q.edge_cut > 0, "{}", curve.name());
        assert_eq!(part.parts(), 6);
    }
}

#[test]
fn spiral_produces_ring_shaped_partitions() {
    // A distinctive structural property: with uniform weights and p equal
    // to the ring count, spiral parts follow the onion rings — the
    // outermost part is exactly the outer ring's cells.
    let grid = Grid::<2>::new(3).unwrap(); // 8×8, rings 0..4
    let mut rng = test_rng(9);
    let weights = WeightedGrid::generate(grid, Workload::Uniform, &mut rng);
    let spiral = sfc_core::SpiralCurve::new(3).unwrap();
    let part = partition_greedy(&spiral, &weights, 2);
    // Part 0 = first 32 cells of the spiral = outer ring (28 cells) + the
    // first 4 of ring 1.
    let outer_ring_cells = grid
        .cells()
        .filter(|c| grid.is_boundary(c))
        .collect::<Vec<_>>();
    assert_eq!(outer_ring_cells.len(), 28);
    for cell in outer_ring_cells {
        assert_eq!(part.part_of(spiral.index_of(cell)), 0, "cell {cell}");
    }
}
