//! The sharded store end to end: route skewed write traffic through a
//! keyspace-uniform partition, watch one shard absorb nearly all the
//! load, rebalance from the observed per-cell weights, and verify that a
//! snapshot keeps serving the pre-rebalance state while the writer moves
//! on.
//!
//! Every printed query result is cross-checked against a one-shard store
//! fed the identical workload — the router and fan-out must be invisible
//! to readers.

use rand::{Rng, SeedableRng};
use sfc::prelude::*;

fn shard_report(label: &str, store: &ShardedSfcStore<2, u32, ZCurve<2>>) {
    let lens = store.shard_lens();
    let total = store.len().max(1);
    println!("== {label}");
    println!("   boundaries: {:?}", store.partition().boundaries());
    for (j, (len, run_lens)) in lens.iter().zip(store.shard_run_lens()).enumerate() {
        println!(
            "   shard {j}: {len:>6} live ({:>2}%) | runs {run_lens:?}",
            100 * len / total,
        );
    }
}

fn main() {
    let grid = Grid::<2>::new(8).unwrap(); // 256×256
    let z = ZCurve::over(grid);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let sharded = ShardedSfcStore::with_memtable_capacity(z, 4, 512);
    let single = ShardedSfcStore::with_memtable_capacity(z, 1, 512);

    // Phase 1: heavily skewed traffic — 85% of writes land in the first
    // Z quadrant (the first quarter of the keyspace).
    for i in 0..40_000u32 {
        let p = if i % 20 < 17 {
            Point::new([rng.gen_range(0..128u32), rng.gen_range(0..128u32)])
        } else {
            grid.random_cell(&mut rng)
        };
        sharded.insert(p, i);
        single.insert(p, i);
    }
    shard_report("after 40k skewed writes (uniform boundaries)", &sharded);

    // Readers see one store, not four: results are byte-identical.
    let b = BoxRegion::new(Point::new([40, 40]), Point::new([150, 110]));
    let hit_count = {
        let (hits, stats) = sharded.query_box(&b);
        let (want, _) = single.query_box(&b);
        assert_eq!(hits.len(), want.len());
        assert!(hits
            .iter()
            .zip(&want)
            .all(|(a, b)| (a.key, a.payload) == (b.key, b.payload)));
        println!(
            "   box query: {} hits | seeks {} | scanned {} (identical to one shard)",
            hits.len(),
            stats.seeks,
            stats.scanned
        );
        hits.len()
    };

    // Phase 2: freeze a snapshot, then rebalance from observed traffic.
    let frozen = sharded.snapshot();
    let changed = sharded.rebalance(1e-9);
    assert!(changed, "skewed traffic must move the boundaries");
    shard_report(
        "after rebalance(min-bottleneck over observed writes)",
        &sharded,
    );

    // Phase 3: the writer keeps going under the new boundaries …
    for i in 0..10_000u32 {
        let p = grid.random_cell(&mut rng);
        sharded.insert(p, 100_000 + i);
        single.insert(p, 100_000 + i);
    }
    // … while the snapshot still serves the pre-rebalance state.
    println!("== snapshot isolation");
    println!(
        "   snapshot: {} live (frozen) | store: {} live (moved on)",
        frozen.len(),
        sharded.len()
    );
    let (frozen_hits, _) = frozen.query_box(&b);
    assert_eq!(frozen_hits.len(), hit_count, "snapshot drifted");
    println!(
        "   frozen box query still returns {} hits; live store now returns {}",
        frozen_hits.len(),
        sharded.query_box(&b).0.len()
    );

    // Final cross-check on the live stores.
    let q = Point::new([100, 100]);
    let (sk, _) = sharded.knn(q, 8, 8);
    let (uk, _) = single.knn(q, 8, 8);
    assert!(sk
        .iter()
        .zip(&uk)
        .all(|(a, b)| (a.key, a.payload) == (b.key, b.payload)));
    println!(
        "== kNN at {q}: {} neighbors, identical to one shard",
        sk.len()
    );
}
