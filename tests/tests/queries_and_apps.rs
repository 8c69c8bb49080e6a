//! Integration tests for the application substrates: query correctness
//! across curves and workloads, and end-to-end partition sanity.

use proptest::prelude::*;
use sfc_core::{CurveKind, Grid, HilbertCurve, Point, ZCurve};
use sfc_index::{BoxRegion, SfcIndex};
use sfc_integration::{oracle, test_rng};

/// Every record of an index as `(key, point, payload)`, for the oracles.
fn rows<const D: usize, C: sfc_core::SpaceFillingCurve<D>>(
    index: &SfcIndex<D, usize, C>,
) -> Vec<(sfc_core::CurveIndex, Point<D>, usize)> {
    index
        .entries()
        .map(|e| (e.key, e.point, *e.payload))
        .collect()
}

fn random_records(grid: Grid<2>, count: usize, seed: u64) -> Vec<(Point<2>, usize)> {
    let mut rng = test_rng(seed);
    (0..count)
        .map(|i| (grid.random_cell(&mut rng), i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The box kernel (BIGMIN skips on Z) and the raw walk of the box's
    /// interval decomposition return identical result sets on random
    /// boxes and record sets.
    #[test]
    fn bigmin_equals_intervals(seed in any::<u64>(), lx in 0u32..16, ly in 0u32..16, w in 0u32..8, h in 0u32..8) {
        let grid = Grid::<2>::new(4).unwrap();
        let index = SfcIndex::build(ZCurve::over(grid), random_records(grid, 300, seed));
        let hi = Point::new([(lx + w).min(15), (ly + h).min(15)]);
        let region = BoxRegion::new(Point::new([lx.min(hi.coord(0)), ly.min(hi.coord(1))]), hi);
        let (a, _) = index.query_box(&region);
        let (b, _) = index.query_intervals(&region.curve_intervals(index.curve()));
        let mut ka: Vec<usize> = a.iter().map(|e| *e.payload).collect();
        let mut kb: Vec<usize> = b.iter().map(|e| *e.payload).collect();
        ka.sort_unstable();
        kb.sort_unstable();
        prop_assert_eq!(ka, kb);
    }

    /// Verified kNN equals the linear-scan ground truth in distance
    /// profile, for random queries on random data, under both Z and
    /// Hilbert.
    #[test]
    fn knn_is_exact(seed in any::<u64>(), qx in 0u32..16, qy in 0u32..16, k in 1usize..10) {
        let grid = Grid::<2>::new(4).unwrap();
        let records = random_records(grid, 150, seed);
        let q = Point::new([qx, qy]);

        let zidx = SfcIndex::build(ZCurve::over(grid), records.clone());
        let (got, _) = zidx.knn(q, k, 4);
        let want = oracle::knn_linear(rows(&zidx), q, k);
        let gd: Vec<u128> = got.iter().map(|e| q.euclidean_sq(&e.point)).collect();
        let wd: Vec<u128> = want.iter().map(|e| q.euclidean_sq(&e.1)).collect();
        prop_assert_eq!(&gd, &wd);

        let hidx = SfcIndex::build(HilbertCurve::over(grid), records);
        let (got_h, _) = hidx.knn(q, k, 4);
        let hd: Vec<u128> = got_h.iter().map(|e| q.euclidean_sq(&e.point)).collect();
        prop_assert_eq!(&hd, &wd);
    }

    /// The fast kNN path stays exact under the conditions the unit tests
    /// don't reach: random candidate-window sizes (including windows far
    /// too small for k), duplicate-heavy record sets, k exceeding the
    /// record count, and 3 dimensions.
    #[test]
    fn knn_is_exact_under_stress(
        seed in any::<u64>(),
        qx in 0u32..32, qy in 0u32..32,
        k in 1usize..20,
        window in 1usize..8,
        count in 1usize..200,
    ) {
        let grid = Grid::<2>::new(5).unwrap();
        let mut records = random_records(grid, count, seed);
        // Duplicate a prefix so many cells hold several records.
        let dupes: Vec<(Point<2>, usize)> = records
            .iter()
            .take(count / 2)
            .map(|&(p, payload)| (p, payload + 10_000))
            .collect();
        records.extend(dupes);
        let q = Point::new([qx, qy]);
        let idx = SfcIndex::build(ZCurve::over(grid), records);
        let (got, stats) = idx.knn(q, k, window);
        let want = oracle::knn_linear(rows(&idx), q, k);
        let gd: Vec<u128> = got.iter().map(|e| q.euclidean_sq(&e.point)).collect();
        let wd: Vec<u128> = want.iter().map(|e| q.euclidean_sq(&e.1)).collect();
        prop_assert_eq!(gd, wd);
        prop_assert_eq!(stats.reported as usize, k.min(idx.len()));
    }

    /// Same exactness in 3 dimensions, where the verification ball is a
    /// cube and the curve kernels take different code paths.
    #[test]
    fn knn_is_exact_3d(seed in any::<u64>(), coords in proptest::array::uniform3(0u32..16), k in 1usize..8) {
        let grid = Grid::<3>::new(4).unwrap();
        let mut rng = test_rng(seed);
        let records: Vec<(Point<3>, usize)> =
            (0..120).map(|i| (grid.random_cell(&mut rng), i)).collect();
        let q = Point::new(coords);
        for kind in [CurveKind::Z, CurveKind::Hilbert] {
            let idx = SfcIndex::build(kind.build::<3>(4).unwrap(), records.clone());
            let (got, _) = idx.knn(q, k, 3);
            let want = oracle::knn_linear(rows(&idx), q, k);
            let gd: Vec<u128> = got.iter().map(|e| q.euclidean_sq(&e.point)).collect();
            let wd: Vec<u128> = want.iter().map(|e| q.euclidean_sq(&e.1)).collect();
            prop_assert_eq!(gd, wd);
        }
    }

    /// Partitions are well-formed for every curve, part count and
    /// workload: complete coverage, imbalance ≥ 1, cut bounded by total
    /// edges.
    #[test]
    fn partitions_are_well_formed(
        kind_idx in 0usize..5,
        p in 1usize..12,
        clustered in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use sfc_partition::{partition_greedy, quality, WeightedGrid, Workload};
        let grid = Grid::<2>::new(3).unwrap();
        let mut rng = test_rng(seed);
        let workload = if clustered {
            Workload::GaussianClusters { count: 3, sigma: 1.0 }
        } else {
            Workload::Uniform
        };
        let weights = WeightedGrid::generate(grid, workload, &mut rng);
        let curve = CurveKind::ALL[kind_idx].build::<2>(3).unwrap();
        let part = partition_greedy(&curve, &weights, p);
        prop_assert_eq!(part.parts(), p);
        prop_assert_eq!(*part.boundaries().last().unwrap(), 64u128);
        let q = quality::evaluate(&curve, &weights, &part);
        prop_assert!(q.imbalance >= 1.0 - 1e-12);
        prop_assert!(q.edge_cut <= grid.nn_edge_count() as u64);
        prop_assert!(q.comm_volume <= 64);
    }
}

/// The index works end-to-end with a *permutation* curve (the paper's
/// fully general bijection) — queries just degrade, never break.
#[test]
fn index_with_random_bijection_curve() {
    let grid = Grid::<2>::new(3).unwrap();
    let mut rng = test_rng(42);
    let curve = sfc_core::PermutationCurve::random(grid, &mut rng).unwrap();
    let records = random_records(grid, 100, 7);
    let index = SfcIndex::build(&curve, records);
    let region = BoxRegion::new(Point::new([1, 1]), Point::new([5, 6]));
    let (hits, stats) = index.query_intervals(&region.curve_intervals(index.curve()));
    let full = oracle::box_linear(rows(&index), &region);
    assert_eq!(hits.len(), full.len());
    assert_eq!(index.query_box(&region).0, hits);
    // A random bijection has dreadful clustering: many seeks.
    assert!(stats.seeks >= hits.len() as u64 / 4);
    // kNN still exact.
    let q = Point::new([3, 3]);
    let (got, _) = index.knn(q, 5, 8);
    let want = oracle::knn_linear(rows(&index), q, 5);
    let gd: Vec<u128> = got.iter().map(|e| q.euclidean_sq(&e.point)).collect();
    let wd: Vec<u128> = want.iter().map(|e| q.euclidean_sq(&e.1)).collect();
    assert_eq!(gd, wd);
}

/// On the largest grids a squared distance outgrows `u64` — two axes
/// near 2³² already do — and kNN must still find the nearest record, on
/// a static index and on the store (its memtable and its run) alike.
#[test]
fn knn_is_exact_where_squared_distances_exceed_u64() {
    use sfc_store::ShardedSfcStore;
    let grid = Grid::<2>::new(32).unwrap();
    let far = Point::new([u32::MAX, 1 << 17]);
    let near = Point::new([1 << 17, 1 << 17]);
    let q = Point::new([0, 0]);
    let index = SfcIndex::build(ZCurve::over(grid), vec![(far, 0usize), (near, 1)]);
    let (hits, _) = index.knn(q, 1, 4);
    assert_eq!(hits.iter().map(|e| e.point).collect::<Vec<_>>(), [near]);
    let store = ShardedSfcStore::new(ZCurve::over(grid), 1);
    store.insert(far, 0usize);
    store.insert(near, 1);
    for level in ["memtable", "run"] {
        let (hits, _) = store.knn(q, 1, 4);
        let got: Vec<_> = hits.iter().map(|e| e.point).collect();
        assert_eq!(got, [near], "nearest record in the {level}");
        store.flush();
    }
}
