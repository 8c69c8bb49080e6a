//! Streaming ingest into a one-shard `ShardedSfcStore`: ingest → query → churn →
//! query → compact → query, printing the store shape and `QueryStats`
//! overscan after each phase.
//!
//! Watch two things: the run stack growing and collapsing as flushes and
//! size-tiered merges happen, and the per-query seek/scan counts dropping
//! back to single-index levels after a major compaction.

use rand::SeedableRng;
use sfc::prelude::*;

fn report(phase: &str, store: &ShardedSfcStore<2, u32, ZCurve<2>>, b: &BoxRegion<2>) {
    // A snapshot is a capture of the levels as they stand — it flushes
    // nothing, so its heap bytes and the store's shape describe the same
    // levels.
    let snap = store.snapshot();
    let memtable = store.shard_memtable_lens()[0];
    let runs = store.shard_run_lens().remove(0);
    let (hits, stats) = snap.query_box(b);
    println!("== {phase}");
    println!(
        "   live {} | memtable {memtable} | runs {runs:?}",
        snap.len()
    );
    let slots = memtable + runs.iter().sum::<usize>();
    let bytes = snap.heap_bytes();
    println!(
        "   footprint: {bytes} heap bytes ({:.2} B/slot, memtable included)",
        if slots == 0 {
            0.0
        } else {
            bytes as f64 / slots as f64
        }
    );
    println!(
        "   box query: {} hits | seeks {} | scanned {} | overscan {:.2} | blocks decoded {}",
        hits.len(),
        stats.seeks,
        stats.scanned,
        stats.overscan(),
        stats.blocks_decoded
    );
}

fn main() {
    let grid = Grid::<2>::new(8).unwrap(); // 256×256
    let z = ZCurve::over(grid);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let store = ShardedSfcStore::with_memtable_capacity(z, 1, 1_024);
    let b = BoxRegion::new(Point::new([40, 40]), Point::new([90, 110]));

    // Phase 1: stream an initial load through the memtable.
    for i in 0..30_000u32 {
        store.insert(grid.random_cell(&mut rng), i);
    }
    report("after streaming 30k inserts", &store, &b);

    // Phase 2: churn — a mix of updates and deletes.
    for i in 0..10_000u32 {
        let p = grid.random_cell(&mut rng);
        if i % 3 == 0 {
            store.delete(p);
        } else {
            store.insert(p, 100_000 + i);
        }
    }
    report("after 10k churn ops (1/3 deletes)", &store, &b);

    // Phase 3: major compaction folds every level into one run.
    store.compact();
    report("after compact()", &store, &b);

    // The merged view is a first-class static index too.
    let index = store.snapshot().to_index();
    let (hits, _) = index.query_box(&b);
    println!("== static index materialised from the store");
    println!("   {} records, box query {} hits", index.len(), hits.len());
}
