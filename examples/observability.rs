//! Engine observability end to end: attach a metrics registry to a
//! *durable* sharded store, drive a mixed workload (skewed writes,
//! deletes, point gets, box queries, kNN, one raw key-range read,
//! compaction, one rebalance)
//! with group-committed WAL appends and a background maintenance
//! thread, then read the engine back out three ways — the rendered text
//! report, the slow-query log with what each slow query measured, and the
//! flat JSON export the CI pipeline uploads as an artifact (now
//! including the `wal.*` and `engine.maintenance.*` series).
//!
//! ```text
//! cargo run --release -p sfc --example observability
//! ```
//!
//! Writes `METRICS_observability.json` into the current directory.

use rand::{Rng, SeedableRng};
use sfc::obs::fmt_ns;
use sfc::prelude::*;
use sfc::store::{MaintenanceConfig, ShardedSfcStore, WalConfig};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;
const WRITES: u32 = 60_000;
const DELETES: u32 = 4_000;
const GETS: u32 = 5_000;
const QUERIES: usize = 64;

fn main() {
    let grid = Grid::<2>::new(8).unwrap(); // 256×256
    let z = ZCurve::over(grid);
    let dir = std::env::temp_dir().join(format!("sfc-observability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store =
        ShardedSfcStore::open_durable(z, SHARDS, 512, WalConfig::new(&dir).fsync_every(512))
            .expect("open durable store");
    let metrics = store.enable_metrics();
    // A 200µs threshold catches the heavyweight queries of this workload
    // without admitting every memtable-only lookup.
    metrics.set_slow_query_threshold(Duration::from_micros(200));
    let store = Arc::new(store);
    // Flushes and compactions run off the write path while we ingest.
    store.start_maintenance(MaintenanceConfig::default());
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);

    // Mixed workload: 85% of writes land in the first Z quadrant, so the
    // per-shard counters show the skew the partition starts blind to.
    // Writes are left on the group-commit queue without waiting (the
    // log's background thread fsyncs full groups behind them); one
    // `sync()` barrier at the end makes the whole stream durable.
    for i in 0..WRITES {
        let p = if i % 20 < 17 {
            Point::new([rng.gen_range(0..128u32), rng.gen_range(0..128u32)])
        } else {
            grid.random_cell(&mut rng)
        };
        store.insert_nosync(p, i);
    }
    for _ in 0..DELETES {
        store.delete_nosync(grid.random_cell(&mut rng));
    }
    store.sync().expect("durability barrier");
    for _ in 0..GETS {
        std::hint::black_box(store.get(grid.random_cell(&mut rng)));
    }
    let max = (grid.side() - 1) as u32;
    for _ in 0..QUERIES {
        let corner = grid.random_cell(&mut rng);
        let size = rng.gen_range(8..64u32);
        let b = BoxRegion::new(
            corner,
            Point::new([
                (corner.coord(0) + size).min(max),
                (corner.coord(1) + size).min(max),
            ]),
        );
        std::hint::black_box(store.query_box(&b).0.len());
        std::hint::black_box(store.knn(corner, 5, 8).0.len());
    }
    store.compact();
    store.rebalance(1e-9);
    store.stop_maintenance();

    // 1. The aligned text report: every counter, gauge, and histogram
    //    with its latency percentiles.
    println!("{}", metrics.registry().render());

    // 2. The slow-query log: each admitted query carries what it walked
    //    by (its interval count; `-` is BIGMIN), its phase times and its
    //    work counters.
    let slow = metrics.slow_queries();
    println!(
        "slow queries over {}: {} admitted ({} seen)",
        fmt_ns(200_000),
        slow.len(),
        metrics.slow_queries_admitted()
    );
    for entry in slow.iter().take(5) {
        println!("  #{:<4} {}", entry.seq, entry.detail);
    }

    // 3. Engine-level derived numbers straight from the registry.
    let snap = metrics.registry().snapshot();
    let overscan = QueryStats::overscan_ratio(
        snap.counter("engine.query.scanned").unwrap_or(0),
        snap.counter("engine.query.reported").unwrap_or(0),
    );
    println!("engine overscan across all queries: {overscan:.3}");
    let shard_inserts: u64 = (0..SHARDS)
        .map(|j| snap.counter(&format!("shard{j}.insert.count")).unwrap())
        .sum();
    assert_eq!(shard_inserts, u64::from(WRITES), "lost an insert somewhere");
    assert_eq!(
        snap.counter("engine.rebalance.count"),
        Some(1),
        "the skewed workload must move boundaries exactly once"
    );

    // 4. The durability series: every acked record hit the log, fsyncs
    //    were amortised across whole groups, and `wal.groups.led` says
    //    how many of them a waiting caller issued in its own thread
    //    (here at most the closing barrier — nobody else waits) rather
    //    than the log's background thread.
    let wal_records = snap.counter("wal.records").unwrap_or(0);
    let wal_groups = snap.counter("wal.groups").unwrap_or(0);
    assert_eq!(
        wal_records,
        u64::from(WRITES + DELETES),
        "every write must reach the WAL"
    );
    assert!(wal_groups > 0, "somebody must have fsynced groups");
    println!(
        "wal: {} records in {} group commits ({} led by a caller; mean group {:.1}), {} bytes, {} segments pruned",
        wal_records,
        wal_groups,
        snap.counter("wal.groups.led").unwrap_or(0),
        wal_records as f64 / wal_groups as f64,
        snap.counter("wal.bytes").unwrap_or(0),
        snap.counter("wal.segments.pruned").unwrap_or(0),
    );
    println!(
        "maintenance: {} ticks, {} flushes, {} compactions",
        snap.counter("engine.maintenance.ticks").unwrap_or(0),
        snap.counter("engine.maintenance.flushes").unwrap_or(0),
        snap.counter("engine.maintenance.compactions").unwrap_or(0),
    );

    // 5. The JSON export CI uploads per commit.
    let path = "METRICS_observability.json";
    std::fs::write(path, snap.to_json()).expect("write metrics dump");
    println!("wrote {path}");
    drop(store); // clean shutdown drains the commit queue
    let _ = std::fs::remove_dir_all(&dir);
}
