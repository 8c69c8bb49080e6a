//! The box-scan kernel against the plain scans and a naive filter.
//!
//! `box_scan` decides whole blocks from their summaries, masks partial
//! blocks on their coordinates and asks its skipper only to leave an
//! excursion. Every shortcut is a place to lose or invent a hit, so each
//! case here builds a packed column, runs the kernel with both skippers
//! (BIGMIN where the curve is Morton order, the box's own decomposition
//! on every curve) and demands the same positions in the same order — and
//! the same key and point per position — as the pre-zone-map plain scans
//! (`sfc_integration::oracle`) and as a filter over the unpacked columns,
//! which lives in this file.

use proptest::prelude::*;
use sfc_core::{
    CurveIndex, CurveKind, DiagonalCurve, Grid, Point, SpaceFillingCurve, SpiralCurve, ZCurve,
};
use sfc_index::{
    box_scan, BlockStore, BoxRegion, IntervalSkipper, MortonSkipper, QueryStats, BLOCK_SLOTS,
};
use sfc_integration::oracle::{bigmin_scan_plain, interval_scan_plain};

/// One visited slot: position, key, point.
type Visit<const D: usize> = (usize, CurveIndex, Point<D>);

/// How the slots of a column are marked live. The kernel reports dead
/// slots too (the store above it reads liveness per hit), so none of
/// these may change what it visits.
#[derive(Debug, Clone, Copy)]
enum Liveness {
    All,
    /// Four slots in five are tombstones.
    TombstoneHeavy,
    /// Every other block is dead outright.
    DeadBlocks,
}

impl Liveness {
    fn is_live(self, slot: usize) -> bool {
        match self {
            Liveness::All => true,
            Liveness::TombstoneHeavy => slot.is_multiple_of(5),
            Liveness::DeadBlocks => (slot / BLOCK_SLOTS).is_multiple_of(2),
        }
    }
}

/// Every `stride`-th cell of the curve in key order, cut to `len` slots
/// when given.
fn column<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    stride: usize,
    len: Option<usize>,
) -> (Vec<CurveIndex>, Vec<Point<D>>) {
    let keys: Vec<CurveIndex> = (0..curve.grid().n())
        .step_by(stride)
        .take(len.unwrap_or(usize::MAX))
        .collect();
    let points = keys.iter().map(|&k| curve.point_of(k)).collect();
    (keys, points)
}

fn collect<const D: usize>(
    scan: impl FnOnce(&mut QueryStats, &mut dyn FnMut(usize, CurveIndex, Point<D>)),
) -> (Vec<Visit<D>>, QueryStats) {
    let mut stats = QueryStats::default();
    let mut visits = Vec::new();
    scan(&mut stats, &mut |i, key, point| {
        visits.push((i, key, point))
    });
    (visits, stats)
}

/// Runs every scan over the column for box `b` and compares them all
/// with the naive filter.
fn check<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    keys: &[CurveIndex],
    points: &[Point<D>],
    liveness: Liveness,
    b: &BoxRegion<D>,
    what: &str,
) {
    let blocks = BlockStore::pack(keys, points, |slot| liveness.is_live(slot));
    let naive: Vec<Visit<D>> = (0..keys.len())
        .filter(|&i| b.contains(&points[i]))
        .map(|i| (i, keys[i], points[i]))
        .collect();
    let intervals = b.curve_intervals(curve);

    let (plain, plain_stats) =
        collect(|stats, visit| interval_scan_plain(&blocks, &intervals, stats, visit));
    assert_eq!(plain, naive, "interval_scan_plain, {what} {b:?}");
    let (kernel, stats) =
        collect(|stats, visit| box_scan(&blocks, b, &IntervalSkipper(&intervals), stats, visit));
    assert_eq!(kernel, naive, "kernel by intervals, {what} {b:?}");
    assert_eq!(stats.blocks_scanned, stats.blocks_decoded);
    assert!(
        stats.seeks <= plain_stats.seeks,
        "one skip per excursion at most: {stats:?} vs {plain_stats:?}, {what} {b:?}"
    );

    if let Some(z) = curve.as_morton() {
        let (plain, plain_stats) =
            collect(|stats, visit| bigmin_scan_plain(z, &blocks, b, stats, visit));
        assert_eq!(plain, naive, "bigmin_scan_plain, {what} {b:?}");
        let (kernel, stats) =
            collect(|stats, visit| box_scan(&blocks, b, &MortonSkipper::new(z, b), stats, visit));
        assert_eq!(kernel, naive, "kernel by BIGMIN, {what} {b:?}");
        assert!(
            stats.seeks <= plain_stats.seeks,
            "one skip per excursion at most: {stats:?} vs {plain_stats:?}, {what} {b:?}"
        );
    }
}

/// The boxes every column is asked: single cells, a full row along each
/// axis, the whole grid, and a spread of interior boxes — on a strided
/// column, where both ends of nearly every span fall mid-block.
fn boxes<const D: usize>(side: u32) -> Vec<BoxRegion<D>> {
    let max = side - 1;
    let mut out = vec![
        BoxRegion::new(Point::new([0; D]), Point::new([max; D])),
        BoxRegion::new(Point::new([0; D]), Point::new([0; D])),
        BoxRegion::new(Point::new([max; D]), Point::new([max; D])),
        BoxRegion::new(Point::new([side / 2; D]), Point::new([side / 2; D])),
        BoxRegion::new(Point::new([side / 2 - 1; D]), Point::new([side / 2; D])),
        BoxRegion::new(Point::new([1; D]), Point::new([max - 1; D])),
        BoxRegion::new(Point::new([side / 4; D]), Point::new([side / 4 + 2; D])),
    ];
    for axis in 0..D {
        // A full row: one cell thick on every axis but this one.
        let mut lo = [side / 3; D];
        let mut hi = [side / 3; D];
        lo[axis] = 0;
        hi[axis] = max;
        out.push(BoxRegion::new(Point::new(lo), Point::new(hi)));
        // A slab crossing the middle of the grid.
        let mut lo = [0; D];
        let mut hi = [max; D];
        lo[axis] = side / 2 - 1;
        hi[axis] = side / 2;
        out.push(BoxRegion::new(Point::new(lo), Point::new(hi)));
    }
    out
}

/// Every column shape × every liveness × every box, for one curve.
fn check_curve<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, name: &str) {
    let side = curve.grid().side() as u32;
    let shapes = [
        (1, None),
        (3, None),
        (7, None),
        // A one-slot tail block.
        (1, Some(3 * BLOCK_SLOTS + 1)),
        (3, Some(BLOCK_SLOTS + 1)),
    ];
    for (stride, len) in shapes {
        let (keys, points) = column(curve, stride, len);
        for liveness in [
            Liveness::All,
            Liveness::TombstoneHeavy,
            Liveness::DeadBlocks,
        ] {
            let what = format!("{name} d={D} stride={stride} len={len:?} {liveness:?}");
            for b in boxes::<D>(side) {
                check(curve, &keys, &points, liveness, &b, &what);
            }
        }
    }
}

#[test]
fn kernel_matches_plain_scans_on_every_curve_kind() {
    for kind in CurveKind::ALL {
        check_curve(&kind.build::<2>(5).unwrap(), kind.name());
        check_curve(&kind.build::<3>(3).unwrap(), kind.name());
    }
}

#[test]
fn interval_skipper_holds_on_the_two_dimensional_only_curves() {
    check_curve(&SpiralCurve::new(5).unwrap(), "spiral");
    check_curve(&DiagonalCurve::new(5).unwrap(), "diagonal");
}

#[test]
fn block_mapped_bigmin_visits_exactly_what_plain_does() {
    // Dense and sparse columns, many box shapes — the block-mapped
    // scan must visit byte-identical positions to the plain scan
    // while pruning blocks.
    let grid = Grid::<2>::new(5).unwrap(); // 32×32
    let z = ZCurve::over(grid);
    for stride in [1u128, 3, 7] {
        let keys: Vec<CurveIndex> = (0..grid.n()).step_by(stride as usize).collect();
        let points: Vec<Point<2>> = keys.iter().map(|&k| z.point_of(k)).collect();
        let bs = BlockStore::pack(&keys, &points, |_| true);
        for (lo, hi) in [
            ((0, 0), (31, 31)),
            ((3, 5), (9, 8)),
            ((16, 0), (31, 15)),
            ((30, 30), (31, 31)),
            ((0, 17), (31, 18)),
        ] {
            let b = BoxRegion::new(Point::new([lo.0, lo.1]), Point::new([hi.0, hi.1]));
            let mut zs = QueryStats::default();
            let mut zone_hits = Vec::new();
            box_scan(&bs, &b, &MortonSkipper::new(&z, &b), &mut zs, |i, _, _| {
                zone_hits.push(i)
            });
            let mut ps = QueryStats::default();
            let mut plain_hits = Vec::new();
            bigmin_scan_plain(&z, &bs, &b, &mut ps, |i, _, _| plain_hits.push(i));
            assert_eq!(zone_hits, plain_hits, "stride={stride} box={b:?}");
            // The kernel masks whole blocks, so it puts more slots
            // through a filter than the per-slot hop does; what it
            // must not do more of is what costs time.
            assert!(
                zs.blocks_decoded <= ps.blocks_decoded,
                "zone scan must not decode more: {zs:?} vs {ps:?}"
            );
            assert!(
                zs.seeks <= ps.seeks,
                "zone scan must not seek more: {zs:?} vs {ps:?}"
            );
        }
    }
}

#[test]
fn empty_column_and_empty_decomposition() {
    let z = CurveKind::Z.build::<2>(4).unwrap();
    let b = BoxRegion::new(Point::new([2, 2]), Point::new([5, 9]));
    check(&z, &[], &[], Liveness::All, &b, "empty column");
    // A skipper with nothing in it visits nothing and seeks nowhere.
    let (keys, points) = column(&z, 1, None);
    let blocks = BlockStore::pack(&keys, &points, |_| true);
    let (visits, stats) =
        collect(|stats, visit| box_scan(&blocks, &b, &IntervalSkipper(&[]), stats, visit));
    assert!(visits.is_empty());
    assert_eq!(stats, QueryStats::default());
}

/// A box from two arbitrary corners.
fn box_of<const D: usize>(a: [u32; D], c: [u32; D]) -> BoxRegion<D> {
    BoxRegion::new(
        Point::new(std::array::from_fn(|i| a[i].min(c[i]))),
        Point::new(std::array::from_fn(|i| a[i].max(c[i]))),
    )
}

proptest! {
    /// Any curve kind, any stride and cut, any box (`d = 2`).
    #[test]
    fn kernel_matches_naive_filter_d2(
        kind in 0usize..CurveKind::ALL.len(),
        stride in 1usize..9,
        cut in 0usize..200,
        a in proptest::array::uniform2(0u32..32),
        c in proptest::array::uniform2(0u32..32),
    ) {
        let curve = CurveKind::ALL[kind].build::<2>(5).unwrap();
        let (keys, points) = column(&curve, stride, Some(1024 / stride - cut % (1024 / stride)));
        let liveness = [Liveness::All, Liveness::TombstoneHeavy, Liveness::DeadBlocks][cut % 3];
        check(&curve, &keys, &points, liveness, &box_of(a, c), CurveKind::ALL[kind].name());
    }

    /// Any curve kind, any stride, any box (`d = 3`).
    #[test]
    fn kernel_matches_naive_filter_d3(
        kind in 0usize..CurveKind::ALL.len(),
        stride in 1usize..9,
        a in proptest::array::uniform3(0u32..16),
        c in proptest::array::uniform3(0u32..16),
    ) {
        let curve = CurveKind::ALL[kind].build::<3>(4).unwrap();
        let (keys, points) = column(&curve, stride, None);
        check(&curve, &keys, &points, Liveness::All, &box_of(a, c), CurveKind::ALL[kind].name());
    }

    /// Scattered records with duplicate cells (several records per key,
    /// possibly straddling a block boundary), as `SfcIndex::build` packs
    /// them.
    #[test]
    fn kernel_handles_duplicate_keys(
        seed in 0u64..1_000,
        a in proptest::array::uniform2(0u32..16),
        c in proptest::array::uniform2(0u32..16),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for kind in [CurveKind::Z, CurveKind::Hilbert, CurveKind::Snake] {
            let curve = kind.build::<2>(4).unwrap();
            let mut rows: Vec<(CurveIndex, Point<2>)> = (0..700)
                .map(|_| {
                    let p = Point::new([rng.gen_range(0..16u32), rng.gen_range(0..16u32)]);
                    (curve.index_of(p), p)
                })
                .collect();
            rows.sort_by_key(|&(k, _)| k);
            let (keys, points): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
            check(&curve, &keys, &points, Liveness::All, &box_of(a, c), kind.name());
        }
    }
}
