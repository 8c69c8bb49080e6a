//! The concurrent store engine end to end: W writer threads stream
//! upserts into a `ShardedSfcStore` through its `&self` API (each writer
//! confined to its own curve range, so the per-shard write locks never
//! contend), while snapshot readers freeze and verify consistent views of
//! the moving state. Prints per-writer and per-shard throughput plus the
//! reader's observations.
//!
//! Every verification is real: snapshots must be internally consistent
//! (sorted unique keys, box queries equal to filtered iteration) and the
//! final store must match a sequential replay of the same op streams.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use rand::{Rng, SeedableRng};
use sfc::prelude::*;

const WRITERS: usize = 4;
const OPS_PER_WRITER: usize = 100_000;
const GRID_K: u32 = 9; // 512×512
const MEMTABLE_CAP: usize = 2048;

/// Writer `w`'s deterministic op stream, confined to one vertical strip of
/// the grid (strips are curve-range-disjoint enough for the uniform
/// partition that cross-shard contention stays near zero).
fn ops_of(grid: Grid<2>, w: usize) -> Vec<(Point<2>, u32)> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(900 + w as u64);
    let quadrant = (grid.side() / 2) as u32;
    let (ox, oy) = [(0, 0), (quadrant, 0), (0, quadrant), (quadrant, quadrant)][w % 4];
    (0..OPS_PER_WRITER)
        .map(|i| {
            let p = Point::new([
                ox + rng.gen_range(0..quadrant),
                oy + rng.gen_range(0..quadrant),
            ]);
            (p, (w * OPS_PER_WRITER + i) as u32)
        })
        .collect()
}

fn main() {
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let z = ZCurve::over(grid);
    let store = ShardedSfcStore::with_memtable_capacity(z, WRITERS, MEMTABLE_CAP);
    let done = AtomicBool::new(false);
    let snapshots_taken = AtomicU64::new(0);
    let snapshot_records_seen = AtomicU64::new(0);

    println!(
        "concurrent ingest: {WRITERS} writers × {OPS_PER_WRITER} upserts into a {}×{} grid, \
         {WRITERS} shards, memtable cap {MEMTABLE_CAP}",
        grid.side(),
        grid.side()
    );

    let wall = Instant::now();
    let mut writer_secs = [0.0f64; WRITERS];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let store = &store;
                let ops = ops_of(grid, w);
                scope.spawn(move || {
                    let t = Instant::now();
                    for (p, v) in ops {
                        store.insert(p, v);
                    }
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        // Live snapshot readers: capture, verify, repeat — a snapshot
        // flushes nothing and is entirely lock-free once it returns.
        for _ in 0..2 {
            let store = &store;
            let done = &done;
            let taken = &snapshots_taken;
            let seen = &snapshot_records_seen;
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    let entries: Vec<(u128, Point<2>, u32)> =
                        snap.iter().map(|e| (e.key, e.point, *e.payload)).collect();
                    assert_eq!(entries.len(), snap.len());
                    assert!(
                        entries.windows(2).all(|w| w[0].0 < w[1].0),
                        "snapshot keys out of order"
                    );
                    let b = BoxRegion::new(Point::new([100, 100]), Point::new([180, 160]));
                    let want: Vec<_> = entries
                        .iter()
                        .filter(|&&(_, p, _)| b.contains(&p))
                        .map(|&(k, p, v)| (k, p, v))
                        .collect();
                    let got: Vec<_> = snap
                        .query_box(&b)
                        .0
                        .iter()
                        .map(|e| (e.key, e.point, *e.payload))
                        .collect();
                    assert_eq!(got, want, "snapshot box query vs filtered iteration");
                    taken.fetch_add(1, Ordering::Relaxed);
                    seen.fetch_add(entries.len() as u64, Ordering::Relaxed);
                }
            });
        }
        for (w, h) in handles.into_iter().enumerate() {
            writer_secs[w] = h.join().expect("writer panicked");
        }
        done.store(true, Ordering::Relaxed);
    });
    let wall = wall.elapsed().as_secs_f64();

    let total_ops = (WRITERS * OPS_PER_WRITER) as f64;
    println!(
        "ingested {} upserts in {:.2}s wall — {:.0} upserts/s aggregate",
        total_ops as u64,
        wall,
        total_ops / wall
    );
    for (w, secs) in writer_secs.iter().enumerate() {
        println!(
            "  writer {w}: {OPS_PER_WRITER} upserts in {secs:.2}s ({:.0}/s)",
            OPS_PER_WRITER as f64 / secs
        );
    }
    for (j, (len, runs)) in store
        .shard_lens()
        .iter()
        .zip(store.shard_run_lens())
        .enumerate()
    {
        println!("  shard {j}: {len:>7} live | runs {runs:?}");
    }
    println!(
        "snapshot readers: {} consistent snapshots verified mid-flight ({} records walked)",
        snapshots_taken.load(Ordering::Relaxed),
        snapshot_records_seen.load(Ordering::Relaxed)
    );

    // Final verification: the concurrent run must equal a sequential
    // replay (writers own disjoint strips, so the result is
    // interleaving-free).
    let replay = ShardedSfcStore::with_memtable_capacity(z, 1, MEMTABLE_CAP);
    for w in 0..WRITERS {
        for (p, v) in ops_of(grid, w) {
            replay.insert(p, v);
        }
    }
    assert_eq!(store.len(), replay.len(), "live count vs replay");
    let got: Vec<(u128, u32)> = store.iter().map(|e| (e.key, e.payload)).collect();
    let want: Vec<(u128, u32)> = replay.iter().map(|e| (e.key, e.payload)).collect();
    assert_eq!(got, want, "concurrent result vs sequential replay");
    println!(
        "verified: {} live records byte-identical to the sequential replay",
        store.len()
    );
}
