//! The durability loop end to end: open a write-ahead-logged store,
//! ingest a spatial stream with group commit (periodically flushing
//! part of it into immutable runs), then *simulate a crash* — the
//! commit queue is cut in place, exactly as if the process died — and
//! reopen the directory. Recovery loads the published runs, replays the
//! WAL tail, and the example verifies every acknowledged write came
//! back by checking the recovered store against an in-memory model.
//!
//! ```text
//! cargo run --release -p sfc --example durable_ingest
//! ```
//!
//! Prints the recovery breakdown: wall-clock time, records replayed
//! from the log vs records already covered by runs, and bytes scanned.

use rand::SeedableRng;
use sfc::prelude::*;
use sfc::store::{BatchOp, ShardedSfcStore, WalConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const SHARDS: usize = 4;
const WRITES: u32 = 50_000;
const BATCHES: u32 = 100;
const BATCH_SIZE: u32 = 500;

fn main() {
    let grid = Grid::<2>::new(8).unwrap(); // 256×256
    let z = ZCurve::over(grid);
    let dir = std::env::temp_dir().join(format!("sfc-durable-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut model: BTreeMap<CurveIndex, (Point<2>, u32)> = BTreeMap::new();

    // Phase 1: durable ingest. Writes are left on the group-commit
    // queue without waiting — a background thread commits them a full
    // group (`fsync_every`) at a time; each `sync()` is a durability
    // barrier that commits the rest in the calling thread, after which
    // everything before it is guaranteed on disk. (An acked `try_insert`
    // commits its own group the same way: one `write`, one fsync, no
    // other thread.) Two mid-stream flushes move the prefix into
    // immutable run files and prune the log behind them, so recovery has
    // both forms to reassemble.
    {
        let store =
            ShardedSfcStore::open_durable(z, SHARDS, 1024, WalConfig::new(&dir).fsync_every(256))
                .expect("open fresh durable store");
        let t = Instant::now();
        for i in 0..WRITES {
            let p = grid.random_cell(&mut rng);
            if i % 10 == 9 {
                store.delete_nosync(p);
                model.remove(&z.index_of(p));
            } else {
                store.insert_nosync(p, i);
                model.insert(z.index_of(p), (p, i));
            }
            if i % 20_000 == 19_999 {
                store.flush(); // checkpoint: runs published, log pruned
            }
        }
        store.sync().expect("durability barrier");
        println!(
            "ingested {} ops ({} live) in {:.1?}",
            WRITES,
            store.len(),
            t.elapsed()
        );

        // Batched ingest: the same stream shape applied as whole
        // batches. Each `apply_batch_nosync` routes its ops under one
        // partition guard, applies every shard's slice under a single
        // memtable-lock hold, and logs the slice as one coalesced WAL
        // frame — one checksum and one commit-queue ticket instead of
        // `BATCH_SIZE` of each. The closing `sync()` barrier makes all
        // of it durable at once.
        let t = Instant::now();
        for b in 0..BATCHES {
            let ops: Vec<BatchOp<2, u32>> = (0..BATCH_SIZE)
                .map(|i| {
                    let p = grid.random_cell(&mut rng);
                    if i % 10 == 9 {
                        BatchOp::Delete(p)
                    } else {
                        BatchOp::Insert(p, WRITES + b * BATCH_SIZE + i)
                    }
                })
                .collect();
            store.apply_batch_nosync(&ops);
            // The model replays the batch in submission order — exactly
            // the contract `apply_batch` documents (last write to a cell
            // wins).
            for op in &ops {
                match *op {
                    BatchOp::Insert(p, v) => {
                        model.insert(z.index_of(p), (p, v));
                    }
                    BatchOp::Delete(p) => {
                        model.remove(&z.index_of(p));
                    }
                }
            }
        }
        store.sync().expect("durability barrier");
        println!(
            "batch-ingested {} ops in {} batches ({} live) in {:.1?}",
            BATCHES * BATCH_SIZE,
            BATCHES,
            store.len(),
            t.elapsed()
        );

        // Phase 2: die. No clean shutdown, no final flush — the commit
        // queue is torn down with whatever earlier groups had already
        // made durable (which, after sync(), is everything).
        store.simulate_crash();
        println!("simulated crash (commit queue cut in place)");
    }

    // Phase 3: reopen and recover.
    let t = Instant::now();
    let store =
        ShardedSfcStore::open_durable(z, SHARDS, 1024, WalConfig::new(&dir).fsync_every(256))
            .expect("recover store");
    let stats = store.recovery_stats().expect("durable opens record stats");
    println!(
        "recovered in {:.1?} on {} replay thread(s): {} runs loaded, \
         {} records replayed from the wal, {} skipped (already in runs), \
         {} segments / {} bytes scanned, {} torn-tail bytes discarded",
        t.elapsed(),
        stats.replay_threads,
        stats.runs_loaded,
        stats.replayed_records,
        stats.skipped_records,
        stats.segments_scanned,
        stats.wal_bytes,
        stats.torn_tail_bytes,
    );
    for (j, s) in stats.shards.iter().enumerate() {
        println!(
            "  shard {j}: {} replayed, {} skipped, {} runs, {} wal bytes in {:.1?}",
            s.replayed_records, s.skipped_records, s.runs_loaded, s.wal_bytes, s.elapsed,
        );
    }

    // Phase 4: verify — the recovered state must be *exactly* the acked
    // stream, no more, no less.
    assert_eq!(store.len(), model.len(), "recovered count differs");
    for e in store.iter() {
        let (p, v) = model
            .get(&e.key)
            .unwrap_or_else(|| panic!("recovered a key never acked: {}", e.key));
        assert_eq!(
            (e.point, e.payload),
            (*p, *v),
            "payload mismatch at {}",
            e.key
        );
    }
    println!(
        "verified: recovered state matches the model exactly ({} entries)",
        model.len()
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
