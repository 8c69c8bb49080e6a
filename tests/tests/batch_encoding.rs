//! Batch-encoding equivalence: `index_of_batch` / `point_of_batch` must be
//! extensionally identical to the scalar `index_of` / `point_of` for every
//! curve family, at every tested `k` and dimension — including the
//! Hilbert kernels (the 2-D encode is a bit-parallel prefix scan; the 3-D
//! encode and both decodes are state-transition tables) and the LUT Morton
//! kernels, which take entirely different code paths from their scalar
//! counterparts. Also pins the
//! radix-sort bulk load of `SfcIndex` to the seed's stable
//! `sort_by_key` semantics.

use proptest::prelude::*;
use rand::Rng;
use sfc_core::{
    CurveIndex, DiagonalCurve, Grid, PermutationCurve, Point, SpaceFillingCurve, SpiralCurve,
};
use sfc_index::SfcIndex;
use sfc_integration::test_rng;

/// Asserts batch ≡ scalar plus batch roundtrip on a set of points.
fn assert_batch_equivalence<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    points: &[Point<D>],
) {
    let mut keys = Vec::new();
    curve.index_of_batch(points, &mut keys);
    assert_eq!(keys.len(), points.len());
    for (p, &key) in points.iter().zip(&keys) {
        assert_eq!(
            key,
            curve.index_of(*p),
            "{} batch≠scalar at {p}",
            curve.name()
        );
    }
    let mut back = Vec::new();
    curve.point_of_batch(&keys, &mut back);
    assert_eq!(back, points, "{} batch decode roundtrip", curve.name());
}

fn random_points<const D: usize>(grid: Grid<D>, count: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = test_rng(seed);
    (0..count).map(|_| grid.random_cell(&mut rng)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generic curve family, several k, d = 2 — including the edges
    /// of the Hilbert scan kernel: k = 0 (a one-cell grid), k = 20 (the
    /// sampled estimator's grid), k = 31 and 32 (lanes filled to the low
    /// bit), and batch lengths 0, 1 and one below, at and above its
    /// 64-point chunk (`SCAN_CHUNK` in `hilbert.rs`).
    #[test]
    fn batch_matches_scalar_d2(seed in any::<u64>(), kind_idx in 0usize..5) {
        for k in [0u32, 1, 2, 3, 5, 8, 10, 16, 20, 31, 32] {
            let kind = sfc_core::CurveKind::ALL[kind_idx];
            let curve = kind.build::<2>(k).unwrap();
            let points = random_points(curve.grid(), 257, seed);
            assert_batch_equivalence(&curve, &points);
            for len in [0, 1, 63, 64, 65] {
                assert_batch_equivalence(&curve, &points[..len]);
            }
        }
    }

    /// d = 3: exercises the 6-bit Hilbert wide groups and the odd-level
    /// lead-in (k % 2 = 1), plus the Morton dilate3 LUT.
    #[test]
    fn batch_matches_scalar_d3(seed in any::<u64>(), kind_idx in 0usize..5) {
        for k in [1u32, 2, 5, 8, 13] {
            let kind = sfc_core::CurveKind::ALL[kind_idx];
            let curve = kind.build::<3>(k).unwrap();
            let points = random_points(curve.grid(), 257, seed);
            assert_batch_equivalence(&curve, &points);
        }
    }

    /// Dimensions with no specialised kernel fall back to the generic
    /// default, which must still agree with scalar calls.
    #[test]
    fn batch_matches_scalar_high_d(seed in any::<u64>()) {
        for kind in sfc_core::CurveKind::ALL {
            let c4 = kind.build::<4>(5).unwrap();
            assert_batch_equivalence(&c4, &random_points(c4.grid(), 100, seed));
            let c1 = kind.build::<1>(12).unwrap();
            assert_batch_equivalence(&c1, &random_points(c1.grid(), 100, seed));
        }
    }

    /// The 2-D-only families (spiral, diagonal) and table-driven
    /// permutation curves use the trait's default batch implementation.
    #[test]
    fn batch_matches_scalar_special_2d(seed in any::<u64>(), k in 1u32..6) {
        let spiral = SpiralCurve::new(k).unwrap();
        assert_batch_equivalence(&spiral, &random_points(spiral.grid(), 128, seed));
        let diagonal = DiagonalCurve::new(k).unwrap();
        assert_batch_equivalence(&diagonal, &random_points(diagonal.grid(), 128, seed));
        let grid = Grid::<2>::new(k.min(4)).unwrap();
        let mut rng = test_rng(seed ^ 1);
        let perm = PermutationCurve::random(grid, &mut rng).unwrap();
        assert_batch_equivalence(&perm, &random_points(grid, 128, seed));
    }

    /// Exhaustive (every cell) equivalence on small grids, where the
    /// Hilbert table path can be cross-checked against the full bijection.
    #[test]
    fn batch_matches_scalar_exhaustive_small(k in 1u32..5) {
        for kind in sfc_core::CurveKind::ALL {
            let c2 = kind.build::<2>(k).unwrap();
            let cells: Vec<Point<2>> = c2.grid().cells().collect();
            assert_batch_equivalence(&c2, &cells);
            let c3 = kind.build::<3>(k.min(3)).unwrap();
            let cells: Vec<Point<3>> = c3.grid().cells().collect();
            assert_batch_equivalence(&c3, &cells);
        }
    }

    /// The radix bulk load produces exactly the order of the seed's stable
    /// `sort_by_key` build — duplicates keep input order.
    #[test]
    fn radix_build_matches_stable_comparison_sort(seed in any::<u64>(), kind_idx in 0usize..5) {
        let kind = sfc_core::CurveKind::ALL[kind_idx];
        let curve = kind.build::<2>(4).unwrap();
        let grid = curve.grid();
        let mut rng = test_rng(seed);
        // ~1/3 duplicated cells so stability is actually exercised.
        let mut records: Vec<(Point<2>, usize)> =
            (0..300).map(|i| (grid.random_cell(&mut rng), i)).collect();
        for i in 0..100 {
            let j = rng.gen_range(0..records.len());
            records.push((records[j].0, 1_000 + i));
        }
        let mut expected: Vec<(CurveIndex, usize)> = records
            .iter()
            .map(|&(p, payload)| (curve.index_of(p), payload))
            .collect();
        expected.sort_by_key(|&(key, _)| key); // std stable sort = seed behaviour
        let index = SfcIndex::build(&curve, records);
        let got: Vec<(CurveIndex, usize)> =
            index.entries().map(|e| (e.key, *e.payload)).collect();
        prop_assert_eq!(got, expected);
    }
}
