//! Spatial-index reads: the box kernel (BIGMIN skips on Z, interval skips
//! on Hilbert) beside the raw interval walk, kNN, and the interval
//! decomposition itself (hierarchical vs exhaustive).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use sfc_bench::interleaved_ratio;
use sfc_core::{Grid, HilbertCurve, Point, SpaceFillingCurve, ZCurve};
use sfc_index::{BoxRegion, SfcIndex};
use std::hint::black_box;

/// The committed floor of `exhaustive / hierarchical` decomposition of 16
/// boxes of side 32 on the 2-D Hilbert curve (`k = 11`), timed interleaved
/// in one process ([`interleaved_ratio`] over [`GATE_ROUNDS`] rounds).
const HIERARCHICAL_VS_EXHAUSTIVE_GATE: f64 = 5.0;

/// Rounds of the interleaved gate timing (all 16 boxes a side).
const GATE_ROUNDS: usize = 31;

fn setup(k: u32, records: usize) -> (Grid<2>, Vec<(Point<2>, usize)>, Vec<BoxRegion<2>>) {
    let grid = Grid::<2>::new(k).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let recs: Vec<(Point<2>, usize)> = (0..records)
        .map(|i| (grid.random_cell(&mut rng), i))
        .collect();
    let max = (grid.side() - 1) as u32;
    let boxes: Vec<BoxRegion<2>> = (0..64)
        .map(|_| {
            let corner = grid.random_cell(&mut rng);
            let size = rng.gen_range(2..10u32);
            BoxRegion::new(
                corner,
                Point::new([
                    (corner.coord(0) + size).min(max),
                    (corner.coord(1) + size).min(max),
                ]),
            )
        })
        .collect();
    (grid, recs, boxes)
}

fn bench_box_queries(c: &mut Criterion) {
    let (grid, recs, boxes) = setup(7, 20_000); // 128×128, 20k records
    let zindex = SfcIndex::build(ZCurve::over(grid), recs.clone());
    let hindex = SfcIndex::build(HilbertCurve::over(grid), recs);

    let mut group = c.benchmark_group("box_query_128x128_20k");
    // The O(n) baseline: a filter over every record.
    group.bench_function("z_full_scan", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &boxes {
                total += black_box(zindex.entries().filter(|e| q.contains(&e.point)).count());
            }
            total
        })
    });
    group.bench_function("z_bigmin", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &boxes {
                total += black_box(zindex.query_box(q).0.len());
            }
            total
        })
    });
    group.bench_function("z_intervals", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &boxes {
                let intervals = q.curve_intervals(zindex.curve());
                total += black_box(zindex.query_intervals(&intervals).0.len());
            }
            total
        })
    });
    group.bench_function("hilbert_intervals", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &boxes {
                let intervals = q.curve_intervals(hindex.curve());
                total += black_box(hindex.query_intervals(&intervals).0.len());
            }
            total
        })
    });
    group.bench_function("hilbert_box", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for q in &boxes {
                total += black_box(hindex.query_box(q).0.len());
            }
            total
        })
    });
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    let (grid, recs, _) = setup(7, 20_000);
    let zindex = SfcIndex::build(ZCurve::over(grid), recs);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
    let queries: Vec<Point<2>> = (0..32).map(|_| grid.random_cell(&mut rng)).collect();
    c.bench_function("knn_k10_z_20k", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for q in &queries {
                total += black_box(zindex.knn(*q, 10, 16).1.scanned);
            }
            total
        })
    });
}

/// 16 boxes of `side^D` cells at random positions of the grid.
fn boxes_of_side<const D: usize>(grid: Grid<D>, side: u32) -> Vec<BoxRegion<D>> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11 + u64::from(side));
    let max = grid.side() as u32 - side;
    (0..16)
        .map(|_| {
            let lo: [u32; D] = std::array::from_fn(|_| rng.gen_range(0..=max));
            BoxRegion::new(Point::new(lo), Point::new(lo.map(|c| c + side - 1)))
        })
        .collect()
}

/// Times `curve_intervals` against `curve_intervals_exhaustive` over the
/// same boxes, after checking the two agree on every one of them.
fn bench_decompose_pair<const D: usize, C: SpaceFillingCurve<D>>(
    group: &mut criterion::BenchmarkGroup<'_>,
    curve: &C,
    name: &str,
    side: u32,
) {
    let boxes = boxes_of_side(curve.grid(), side);
    for b in &boxes {
        assert_eq!(
            b.curve_intervals(curve),
            b.curve_intervals_exhaustive(curve)
        );
    }
    group.bench_function(format!("{name}_d{D}_side{side}_hierarchical"), |b| {
        b.iter(|| {
            boxes
                .iter()
                .map(|q| black_box(q.curve_intervals(curve)).len())
                .sum::<usize>()
        })
    });
    group.bench_function(format!("{name}_d{D}_side{side}_exhaustive"), |b| {
        b.iter(|| {
            boxes
                .iter()
                .map(|q| black_box(q.curve_intervals_exhaustive(curve)).len())
                .sum::<usize>()
        })
    });
}

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    for side in [8, 32, 128] {
        bench_decompose_pair(&mut group, &ZCurve::<2>::new(11).unwrap(), "z", side);
        bench_decompose_pair(
            &mut group,
            &HilbertCurve::<2>::new(11).unwrap(),
            "hilbert",
            side,
        );
    }
    for side in [8, 16] {
        bench_decompose_pair(&mut group, &ZCurve::<3>::new(7).unwrap(), "z", side);
        bench_decompose_pair(
            &mut group,
            &HilbertCurve::<3>::new(7).unwrap(),
            "hilbert",
            side,
        );
    }
    group.finish();
    // The gate: on the store's own box sizes the hierarchical cover must
    // beat enumerate-and-sort by a wide margin.
    let hilbert = HilbertCurve::<2>::new(11).unwrap();
    let boxes = boxes_of_side(hilbert.grid(), 32);
    let ratio = interleaved_ratio(
        GATE_ROUNDS,
        || {
            for q in &boxes {
                black_box(q.curve_intervals(&hilbert));
            }
        },
        || {
            for q in &boxes {
                black_box(q.curve_intervals_exhaustive(&hilbert));
            }
        },
    );
    println!("decompose hilbert d=2 side 32: hierarchical {ratio:.1}x exhaustive (interleaved)");
    assert!(
        ratio >= HIERARCHICAL_VS_EXHAUSTIVE_GATE,
        "hierarchical decomposition only {ratio:.2}x exhaustive at Hilbert d=2 side 32"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_box_queries, bench_knn, bench_decompose
}
criterion_main!(benches);
