//! Interval decomposition: the block-recursive contract of
//! `SpaceFillingCurve::is_block_recursive` and the equality of the
//! hierarchical `BoxRegion::curve_intervals` with its exhaustive oracle.

use std::sync::Arc;

use proptest::prelude::*;
use sfc_core::transform::{AxisPermuted, Reflected, Reversed};
use sfc_core::{
    CurveKind, DiagonalCurve, GrayCurve, HilbertCurve, Point, SharedCurve, SimpleCurve, SnakeCurve,
    SpaceFillingCurve, SpiralCurve, ZCurve,
};
use sfc_index::BoxRegion;
use sfc_store::ShardedSfcStore;

/// Every aligned cube of side `2^j` maps onto exactly the index range
/// `[i & !mask, i | mask]`, `mask = 2^(jD) − 1`: checked cell by cell.
fn assert_block_recursive<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) {
    let grid = curve.grid();
    for j in 0..=grid.k() {
        let mask = (1u128 << (j as usize * D)) - 1;
        for p in grid.cells() {
            let corner = p.coords().map(|c| c >> j << j);
            let base = curve.index_of(Point::new(corner));
            assert_eq!(
                curve.index_of(p) & !mask,
                base & !mask,
                "{} d={D} k={}: cell {p} leaves the range of its level-{j} cube",
                curve.name(),
                grid.k(),
            );
        }
    }
}

#[test]
fn curves_answering_true_map_aligned_cubes_to_aligned_ranges() {
    for kind in CurveKind::ALL {
        for k in 0..=4 {
            let c = kind.build::<2>(k).unwrap();
            if c.is_block_recursive() {
                assert_block_recursive(&c);
            }
        }
        for k in 0..=3 {
            let c = kind.build::<3>(k).unwrap();
            if c.is_block_recursive() {
                assert_block_recursive(&c);
            }
        }
        let expected = matches!(kind, CurveKind::Z | CurveKind::Gray | CurveKind::Hilbert);
        assert_eq!(
            kind.build::<2>(3).unwrap().is_block_recursive(),
            expected,
            "{kind}"
        );
    }
    assert!(!SnakeCurve::<2>::new(3).unwrap().is_block_recursive());
    assert!(!SimpleCurve::<3>::new(2).unwrap().is_block_recursive());
    assert!(!SpiralCurve::new(3).unwrap().is_block_recursive());
    assert!(!DiagonalCurve::new(3).unwrap().is_block_recursive());
}

#[test]
fn wrappers_and_pointers_forward_the_property_and_keep_the_contract() {
    let h = HilbertCurve::<2>::new(4).unwrap();
    let permuted = AxisPermuted::new(h, [1, 0]).unwrap();
    let reflected = Reflected::new(h, [true, false]);
    let reversed = Reversed::new(h);
    assert!(permuted.is_block_recursive());
    assert!(reflected.is_block_recursive());
    assert!(reversed.is_block_recursive());
    assert_block_recursive(&permuted);
    assert_block_recursive(&reflected);
    assert_block_recursive(&reversed);
    assert_block_recursive(&Reversed::new(Reflected::new(
        AxisPermuted::new(GrayCurve::<3>::new(2).unwrap(), [2, 0, 1]).unwrap(),
        [false, true, true],
    )));
    assert!(!Reversed::new(SnakeCurve::<2>::new(3).unwrap()).is_block_recursive());

    let by_ref: &HilbertCurve<2> = &h;
    assert!(SpaceFillingCurve::is_block_recursive(&by_ref));
    assert!(Arc::new(h).is_block_recursive());
    assert!(std::rc::Rc::new(h).is_block_recursive());
    assert!(CurveKind::Hilbert
        .build::<2>(4)
        .unwrap()
        .is_block_recursive());
    let boxed_snake = CurveKind::Snake.build::<2>(4).unwrap();
    assert!(!boxed_snake.is_block_recursive());
    assert!(!SpaceFillingCurve::is_block_recursive(&&boxed_snake));
}

/// A store over a type-erased Hilbert curve must decompose hierarchically,
/// not silently fall back to enumerating every cell.
#[test]
fn shared_curve_hilbert_store_keeps_the_fast_path() {
    let curve: SharedCurve<2> = Arc::new(HilbertCurve::<2>::new(6).unwrap());
    let store: ShardedSfcStore<2, u32, SharedCurve<2>> = ShardedSfcStore::new(curve, 3);
    assert!(store.curve().is_block_recursive());
    for (i, p) in store.curve().grid().cells().enumerate() {
        if i % 3 == 0 {
            store.insert(p, i as u32);
        }
    }
    let b = BoxRegion::new(Point::new([5, 9]), Point::new([40, 33]));
    assert_eq!(
        b.curve_intervals(store.curve()),
        b.curve_intervals_exhaustive(store.curve())
    );
    let (hits, _) = store.query_box(&b);
    let expected = store.iter().filter(|e| b.contains(&e.point)).count();
    assert_eq!(hits.len(), expected);
}

fn assert_same_intervals<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, b: &BoxRegion<D>) {
    let fast = b.curve_intervals(curve);
    assert_eq!(
        fast,
        b.curve_intervals_exhaustive(curve),
        "{} d={D} k={} box {b:?}",
        curve.name(),
        curve.grid().k(),
    );
    // Ascending maximal runs: strictly separated, and covering the box.
    for w in fast.windows(2) {
        assert!(w[0].1 + 1 < w[1].0);
    }
    let covered: u128 = fast.iter().map(|(lo, hi)| hi - lo + 1).sum();
    assert_eq!(covered, b.volume());
}

/// The box with corners `a`, `b` in any order, on all three curves.
fn check_box<const D: usize>(k: u32, a: [u32; D], b: [u32; D]) {
    let lo: [u32; D] = std::array::from_fn(|i| a[i].min(b[i]));
    let hi: [u32; D] = std::array::from_fn(|i| a[i].max(b[i]));
    let region = BoxRegion::new(Point::new(lo), Point::new(hi));
    assert_same_intervals(&ZCurve::<D>::new(k).unwrap(), &region);
    assert_same_intervals(&HilbertCurve::<D>::new(k).unwrap(), &region);
    assert_same_intervals(&GrayCurve::<D>::new(k).unwrap(), &region);
}

proptest! {
    #[test]
    fn hierarchical_equals_exhaustive_d2(
        a in proptest::array::uniform2(0u32..32),
        b in proptest::array::uniform2(0u32..32),
    ) {
        check_box::<2>(5, a, b);
    }

    #[test]
    fn hierarchical_equals_exhaustive_d3(
        a in proptest::array::uniform3(0u32..16),
        b in proptest::array::uniform3(0u32..16),
    ) {
        check_box::<3>(4, a, b);
    }

    #[test]
    fn hierarchical_equals_exhaustive_d4(
        a in proptest::array::uniform4(0u32..8),
        b in proptest::array::uniform4(0u32..8),
    ) {
        check_box::<4>(3, a, b);
    }

    /// Boxes anchored at the far corner of the grid (`side − 1`).
    #[test]
    fn boxes_touching_the_upper_edge(
        w in proptest::array::uniform3(0u32..16),
    ) {
        check_box::<3>(4, [15; 3], w);
        check_box::<2>(5, [31; 2], [w[0] + 16, w[1] + 16]);
    }
}

#[test]
fn whole_grid_single_cells_and_the_one_cell_grid() {
    // Whole grid: one interval, from one cube.
    check_box::<2>(5, [0; 2], [31; 2]);
    check_box::<3>(3, [0; 3], [7; 3]);
    check_box::<4>(2, [0; 4], [3; 4]);
    // Every single cell of a small grid.
    for x in 0..8 {
        for y in 0..8 {
            check_box::<2>(3, [x, y], [x, y]);
        }
    }
    // k = 0: the grid is one cell.
    check_box::<2>(0, [0; 2], [0; 2]);
    check_box::<4>(0, [0; 4], [0; 4]);
    let z0 = ZCurve::<3>::new(0).unwrap();
    let cell = BoxRegion::new(Point::new([0; 3]), Point::new([0; 3]));
    assert_eq!(cell.curve_intervals(&z0), vec![(0, 0)]);
}

/// Full-resolution grids: `lo + side` must not overflow `u32` at `k = 32`,
/// nor `1 << bits` at the widest index (`D·k` up to 127).
#[test]
fn no_overflow_at_full_resolution() {
    let max = u32::MAX;
    // k = 32, boxes hugging both ends of the coordinate range.
    check_box::<2>(32, [max - 5, max - 3], [max, max]);
    check_box::<2>(32, [0, max - 2], [4, max]);
    check_box::<2>(32, [(1 << 31) - 3, (1 << 31) - 2], [(1 << 31) + 2, 1 << 31]);
    check_box::<3>(32, [max - 2, 0, (1 << 31) - 1], [max, 2, 1 << 31]);
    // d = 4, k = 31: 124 index bits.
    let top = (1u32 << 31) - 1;
    check_box::<4>(
        31,
        [top - 1, 0, top - 2, 1 << 30],
        [top, 1, top, (1 << 30) + 1],
    );
    // The whole k = 32 grid is one range of 2^64 (resp. 2^96) indices; the
    // exhaustive oracle cannot enumerate it, the cover needs one cube.
    let whole2 = BoxRegion::new(Point::new([0; 2]), Point::new([max; 2]));
    for intervals in [
        whole2.curve_intervals(&ZCurve::<2>::new(32).unwrap()),
        whole2.curve_intervals(&HilbertCurve::<2>::new(32).unwrap()),
        whole2.curve_intervals(&GrayCurve::<2>::new(32).unwrap()),
    ] {
        assert_eq!(intervals, vec![(0, (1u128 << 64) - 1)]);
    }
    let whole3 = BoxRegion::new(Point::new([0; 3]), Point::new([max; 3]));
    assert_eq!(
        whole3.curve_intervals(&HilbertCurve::<3>::new(32).unwrap()),
        vec![(0, (1u128 << 96) - 1)]
    );
    // D·k = 127, the widest index the grid admits: the mask shift is 127.
    let z127 = ZCurve::<127>::new(1).unwrap();
    let whole127 = BoxRegion::new(Point::new([0; 127]), Point::new([1; 127]));
    assert_eq!(
        whole127.curve_intervals(&z127),
        vec![(0, (1u128 << 127) - 1)]
    );
    // A 2-cell box in 127 dimensions: the descent visits 2 children, not
    // 2^127.
    let mut hi = [0u32; 127];
    hi[126] = 1;
    let pair = BoxRegion::new(Point::new([0; 127]), Point::new(hi));
    assert_eq!(pair.curve_intervals(&z127), vec![(0, 1)]);
}
