//! The box-query planner, live on a skewed dataset.
//!
//! Builds a multi-run one-shard `ShardedSfcStore` whose records cluster
//! heavily in one corner of a 1024×1024 grid (plus a uniform background)
//! — once on the Z curve, once on the Hilbert curve — then runs box
//! queries of very different shapes and prints, for each:
//!
//! * the plan — how the block-at-a-time kernel leaves an excursion out of
//!   the box (Morton order: BIGMIN, nothing decomposed; any other curve: a
//!   binary search of the box's curve intervals) and which levels are
//!   pruned outright;
//! * the executed [`QueryStats`], including how many zone-map blocks were
//!   pruned from their summaries versus actually scanned;
//! * the same query through the raw interval walk (`query_intervals`
//!   over the box's curve intervals: one seek per interval per level), so
//!   the kernel's work is visible side by side.
//!
//! Run with: `cargo run --release -p sfc --example query_planner`

use rand::{Rng, SeedableRng};
use sfc::index::{BoxRegion, QueryStats};
use sfc::prelude::*;

fn fmt_stats(s: &QueryStats) -> String {
    format!(
        "seeks {:>5} | scanned {:>6} | reported {:>5} | blocks scanned {:>4} pruned {:>4} decoded {:>4}",
        s.seeks, s.scanned, s.reported, s.blocks_scanned, s.blocks_pruned, s.blocks_decoded
    )
}

fn main() {
    let grid = Grid::<2>::new(10).unwrap(); // 1024×1024
    println!("##### Z curve: BIGMIN skips, nothing is decomposed #####");
    show(ZCurve::over(grid));
    println!("\n##### Hilbert curve: the box's intervals skip #####");
    show(HilbertCurve::over(grid));
}

fn show<C: SpaceFillingCurve<2> + Clone>(curve: C) {
    let grid = curve.grid();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);

    // Skewed workload: 70% of records live in the [0,256)² corner.
    let records: Vec<(Point<2>, u32)> = (0..200_000u32)
        .map(|i| {
            let p = if rng.gen_range(0..10u32) < 7 {
                Point::new([rng.gen_range(0..256u32), rng.gen_range(0..256u32)])
            } else {
                grid.random_cell(&mut rng)
            };
            (p, i)
        })
        .collect();
    let live = ShardedSfcStore::bulk_load(curve, 1, records);
    // Streamed churn leaves a stack of smaller runs over the bottom one.
    for i in 0..30_000u32 {
        let p = grid.random_cell(&mut rng);
        if i % 8 == 7 {
            live.delete(p);
        } else {
            live.insert(p, 1_000_000 + i);
        }
    }
    // Everything below reads one snapshot: the levels as they stand
    // (nothing is flushed to take it), with borrowed hits.
    let store = live.snapshot();
    let shard = &store.shards()[0];
    println!(
        "store: {} live records, runs {:?}, memtable {}",
        store.len(),
        shard.run_lens(),
        shard.memtable_len()
    );
    // Per-level compressed footprint: bytes each run's packed blocks and
    // dense payload column occupy, and what that costs per stored slot.
    for ((len, bytes), level) in shard.run_lens().iter().zip(shard.run_heap_bytes()).zip(0..) {
        println!(
            "  level {level}: {len:>7} slots in {bytes:>8} bytes ({:.2} B/slot)",
            bytes as f64 / *len as f64
        );
    }

    let queries = [
        (
            "tiny box in the dense corner",
            BoxRegion::new(Point::new([40, 40]), Point::new([47, 47])),
        ),
        (
            "selective box in the dense corner",
            BoxRegion::new(Point::new([40, 40]), Point::new([71, 71])),
        ),
        (
            "selective box in the sparse region",
            BoxRegion::new(Point::new([700, 700]), Point::new([731, 731])),
        ),
        (
            "large box",
            BoxRegion::new(Point::new([100, 100]), Point::new([611, 611])),
        ),
        (
            "box outside the cluster's AABB rows",
            BoxRegion::new(Point::new([980, 0]), Point::new([1023, 40])),
        ),
    ];

    for (label, b) in &queries {
        println!(
            "\n=== {label}: {:?}..{:?} (volume {}) ===",
            b.lo(),
            b.hi(),
            b.volume()
        );
        let plan = store.plan_box_query(b).remove(0);
        match plan.interval_count() {
            Some(n) => println!("plan: decomposed into {n} curve intervals"),
            None => println!("plan: no decomposition (BIGMIN skips)"),
        }
        if let Some(mem) = plan.memtable {
            println!("  memtable          -> {mem}");
        }
        for (strategy, len) in plan.runs.iter().zip(shard.run_lens()) {
            println!("  run of {len:>7} slots -> {strategy}");
        }
        let (hits, stats) = store.query_box(b);
        let (walk_hits, walk) = store.query_intervals(&b.curve_intervals(store.curve()));
        assert_eq!(hits, walk_hits, "planner must match the raw interval walk");
        println!("planner:  {}", fmt_stats(&stats));
        println!("raw walk: {}", fmt_stats(&walk));
    }

    // kNN: the dead-block skips and AABB distance bounds show up in the
    // block counters.
    println!("\n=== kNN (k = 10) ===");
    for q in [Point::new([128, 128]), Point::new([900, 500])] {
        let (hits, stats) = store.knn(q, 10, 16);
        assert_eq!(hits.len(), 10);
        println!("q = {q}: {}", fmt_stats(&stats));
    }
}
