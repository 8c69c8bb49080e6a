//! Concurrency stress tests for the `&self` sharded store engine:
//! parallel writers on disjoint curve ranges, snapshot readers sampling
//! mid-flight state, live readers racing the flush protocol, iterators
//! and kNN calls over copy-on-write captures while writers mutate the
//! captured memtables, and a stop-the-world rebalance under fire. Every snapshot must be internally
//! consistent, no reader may ever observe a flush gap or time travel, and
//! the final state must equal a sequential replay of the same per-thread
//! op streams.
//!
//! CI runs this suite twice: in the debug test sweep and again under
//! `--release`, where the tighter timings shake out races the debug
//! interleavings miss.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::Rng;
use sfc_core::{CurveIndex, Grid, HilbertCurve, Point, SpaceFillingCurve, ZCurve};
use sfc_index::BoxRegion;
use sfc_integration::test_rng;
use sfc_store::{MaintenanceConfig, ShardedSfcStore, ShardedSnapshot, StoreEntry, WalConfig};

const WRITER_THREADS: usize = 4;
const OPS_PER_WRITER: usize = 2_500;

/// One writer's deterministic op stream, confined to its own quadrant of
/// the grid (disjoint curve ranges ⇒ no cross-thread conflicts to order:
/// the final state is independent of thread interleaving).
fn writer_ops(grid: Grid<2>, writer: u32) -> Vec<(Point<2>, Option<u32>)> {
    let mut rng = test_rng(0xC0DE + u64::from(writer));
    let half = (grid.side() / 2) as u32;
    let (ox, oy) = [(0, 0), (half, 0), (0, half), (half, half)][writer as usize];
    (0..OPS_PER_WRITER as u32)
        .map(|i| {
            let p = Point::new([ox + rng.gen_range(0..half), oy + rng.gen_range(0..half)]);
            if i % 6 == 5 {
                (p, None) // delete
            } else {
                (p, Some(writer * 1_000_000 + i))
            }
        })
        .collect()
}

fn flat(v: impl IntoIterator<Item = StoreEntry<2, u32>>) -> Vec<(CurveIndex, Point<2>, u32)> {
    v.into_iter().map(|e| (e.key, e.point, e.payload)).collect()
}

/// Asserts one frozen snapshot is internally consistent: strictly
/// increasing unique keys, `len()` equal to the iterated count, point
/// gets agreeing with iteration, and box queries (the planner and the raw
/// interval walk) equal to the filtered iteration. Called from several
/// reader threads at once — concurrent queries are the engine's read
/// parallelism.
fn assert_snapshot_consistent(snap: &ShardedSnapshot<2, u32, ZCurve<2>>, grid: Grid<2>) {
    let entries: Vec<(CurveIndex, Point<2>, u32)> =
        snap.iter().map(|e| (e.key, e.point, *e.payload)).collect();
    assert_eq!(entries.len(), snap.len(), "len vs iterated count");
    for w in entries.windows(2) {
        assert!(w[0].0 < w[1].0, "snapshot keys not strictly increasing");
    }
    for &(key, p, v) in entries.iter().step_by(37) {
        assert_eq!(snap.get(p), Some(&v), "get({p}) vs iter at key {key}");
    }
    let side = (grid.side() - 1) as u32;
    let index = snap.to_index();
    for (lo, hi) in [((2, 2), (13, 11)), ((0, 0), (side, side))] {
        let b = BoxRegion::new(Point::new([lo.0, lo.1]), Point::new([hi.0, hi.1]));
        let want: Vec<_> = entries
            .iter()
            .filter(|&&(_, p, _)| b.contains(&p))
            .copied()
            .collect();
        let got: Vec<_> = index
            .query_intervals(&b.curve_intervals(snap.curve()))
            .0
            .iter()
            .map(|e| (e.key, e.point, *e.payload))
            .collect();
        assert_eq!(got, want, "raw interval walk vs filtered iteration");
        let got_planned: Vec<_> = snap
            .query_box(&b)
            .0
            .iter()
            .map(|e| (e.key, e.point, *e.payload))
            .collect();
        assert_eq!(got_planned, want, "snapshot planner vs filtered iteration");
    }
}

/// The headline stress test: `WRITER_THREADS` writers on disjoint curve
/// ranges, snapshot readers asserting internal consistency the whole
/// time, one stop-the-world rebalance in the middle, and a final
/// sequential-replay equivalence check.
#[test]
fn concurrent_writers_with_snapshot_readers() {
    let grid = Grid::<2>::new(5).unwrap(); // 32×32
    let z = ZCurve::over(grid);
    let store = ShardedSfcStore::with_memtable_capacity(z, WRITER_THREADS, 32);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITER_THREADS as u32)
            .map(|writer| {
                let store = &store;
                let ops = writer_ops(grid, writer);
                scope.spawn(move || {
                    for (i, (p, op)) in ops.into_iter().enumerate() {
                        match op {
                            Some(v) => {
                                store.insert(p, v);
                            }
                            None => {
                                store.delete(p);
                            }
                        }
                        // Exercise maintenance under fire from the
                        // writers themselves: compaction swaps epochs
                        // while the other writers and all readers keep
                        // going.
                        if i % 1_000 == 999 {
                            store.compact();
                        }
                    }
                })
            })
            .collect();
        // Snapshot readers: every frozen view must be consistent, no
        // matter when it lands relative to flushes and compactions.
        for _ in 0..2 {
            let store = &store;
            let done = &done;
            scope.spawn(move || {
                let mut rounds = 0u32;
                while !done.load(Ordering::Relaxed) || rounds < 3 {
                    let snap = store.snapshot();
                    assert_snapshot_consistent(&snap, grid);
                    rounds += 1;
                }
            });
        }
        // A live reader: lock-free query results must always be
        // well-formed (sorted unique keys inside the box) even while the
        // state is in motion. Checked for well-formedness only — with
        // writers active the contents move with in-flight writes (the
        // contents are checked on snapshots above and on the quiesced
        // store below).
        {
            let store = &store;
            let done = &done;
            scope.spawn(move || {
                let b = BoxRegion::new(Point::new([4, 4]), Point::new([27, 23]));
                while !done.load(Ordering::Relaxed) {
                    let hits = store.query_box(&b).0;
                    for w in hits.windows(2) {
                        assert!(w[0].key < w[1].key, "live query keys out of order");
                    }
                    assert!(hits.iter().all(|e| b.contains(&e.point)));
                }
            });
        }
        // One stop-the-world rebalance while everyone is running.
        {
            let store = &store;
            scope.spawn(move || {
                store.rebalance(1e-9);
            });
        }
        // Wait for every writer, then release the readers (each runs at
        // least a few more rounds against the settled store).
        for handle in writers {
            handle.join().expect("writer panicked");
        }
        done.store(true, Ordering::Relaxed);
    });

    // Sequential replay: same op streams, one single-threaded 1-shard
    // store and one model map. Disjoint ranges make the result interleaving-free.
    let replay = ShardedSfcStore::with_memtable_capacity(z, 1, 32);
    let mut model = std::collections::BTreeMap::new();
    for writer in 0..WRITER_THREADS as u32 {
        for (p, op) in writer_ops(grid, writer) {
            let key = z.index_of(p);
            match op {
                Some(v) => {
                    replay.insert(p, v);
                    model.insert(key, (p, v));
                }
                None => {
                    replay.delete(p);
                    model.remove(&key);
                }
            }
        }
    }
    assert_eq!(store.len(), replay.len(), "live count vs sequential replay");
    let got = flat(store.iter());
    let want = flat(replay.iter());
    assert_eq!(got, want, "final state vs sequential replay");
    let model_flat: Vec<_> = model.iter().map(|(&k, &(p, v))| (k, p, v)).collect();
    assert_eq!(got, model_flat, "final state vs model");
    // And one last frozen view of the settled store.
    assert_snapshot_consistent(&store.snapshot(), grid);
}

/// Targeted regression for the publish-before-drain flush protocol: a
/// writer hammers one cell with strictly increasing values (forcing
/// frequent flushes with a capacity-2 memtable) while a reader polls
/// `get` and a covering box query. The reader must never observe the cell
/// vanish (the flush-gap bug a drain-then-publish order would cause) and
/// never observe values go backwards.
#[test]
fn readers_never_see_flush_gaps_or_time_travel() {
    let grid = Grid::<2>::new(4).unwrap();
    let z = ZCurve::over(grid);
    let store = ShardedSfcStore::with_memtable_capacity(z, 2, 2);
    let hot = Point::new([3, 3]);
    let filler = Point::new([5, 2]); // same shard: keeps the memtable filling
    store.insert(hot, 0u32);
    const WRITES: u32 = 4_000;

    std::thread::scope(|scope| {
        let store = &store;
        let writer = scope.spawn(move || {
            for v in 1..=WRITES {
                store.insert(hot, v);
                store.insert(filler, v);
                if v % 512 == 0 {
                    store.compact();
                }
            }
        });
        let ball = BoxRegion::new(Point::new([2, 2]), Point::new([6, 6]));
        let mut last_get = 0u32;
        let mut last_box = 0u32;
        while !writer.is_finished() {
            let got = store
                .get(hot)
                .expect("hot cell vanished: flush gap observed by get()");
            assert!(got >= last_get, "get() went backwards: {got} < {last_get}");
            last_get = got;
            let (hits, _) = store.query_box(&ball);
            let hit = hits
                .iter()
                .find(|e| e.point == hot)
                .expect("hot cell vanished: flush gap observed by query_box()");
            assert!(
                hit.payload >= last_box,
                "query_box went backwards: {} < {last_box}",
                hit.payload
            );
            last_box = hit.payload;
        }
        writer.join().expect("writer panicked");
    });
    assert_eq!(store.get(hot), Some(WRITES));
}

/// Concurrent writers plus a continuous snapshot taker while shards
/// rebalance repeatedly: boundaries move under fire, yet every snapshot
/// stays consistent and the final state still equals the replay.
#[test]
fn rebalance_under_concurrent_write_load() {
    let grid = Grid::<2>::new(5).unwrap();
    let z = ZCurve::over(grid);
    let store = ShardedSfcStore::with_memtable_capacity(z, 4, 16);
    std::thread::scope(|scope| {
        for writer in 0..4u32 {
            let store = &store;
            let ops = writer_ops(grid, writer);
            scope.spawn(move || {
                for (p, op) in ops {
                    match op {
                        Some(v) => {
                            store.insert(p, v);
                        }
                        None => {
                            store.delete(p);
                        }
                    }
                }
            });
        }
        let store = &store;
        scope.spawn(move || {
            for _ in 0..5 {
                store.rebalance(1e-9);
                assert_snapshot_consistent(&store.snapshot(), grid);
            }
        });
    });
    let replay = ShardedSfcStore::with_memtable_capacity(z, 1, 16);
    for writer in 0..4u32 {
        for (p, op) in writer_ops(grid, writer) {
            match op {
                Some(v) => {
                    replay.insert(p, v);
                }
                None => {
                    replay.delete(p);
                }
            }
        }
    }
    let want = flat(replay.iter());
    assert_eq!(flat(store.iter()), want, "rebalance under load lost writes");
}

/// The durable twin of the test above, for the one place a writer does
/// file I/O under a lock: an acked write leads its group commit — a
/// `write` and an fsync — while holding the partition read guard, which
/// a stop-the-world rebalance wants for writing while it persists runs
/// and requests prunes of the same log; a third party calls the `sync()`
/// barrier throughout and competes for the same commit rounds. Whatever
/// the interleaving, nobody may wait for somebody who waits for them: a
/// watchdog bounds the run, and no acked write may be lost.
#[test]
fn acked_writers_barriers_and_rebalance_never_hang() {
    const OPS: usize = 1_500;
    let grid = Grid::<2>::new(5).unwrap();
    let z = ZCurve::over(grid);
    // On tmpfs where there is one: an fsync there is a system call, so
    // the run is about the interleavings and not about the disk.
    let shm = std::path::Path::new("/dev/shm");
    let base = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("sfc-concurrency-acked-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ShardedSfcStore::open_durable(z, 4, 32, WalConfig::new(&dir)).unwrap();
    let store = Arc::new(store);
    let (finished_tx, finished) = std::sync::mpsc::channel();
    let stress = std::thread::spawn({
        let store = Arc::clone(&store);
        move || {
            let writing = AtomicUsize::new(4);
            std::thread::scope(|scope| {
                for writer in 0..4u32 {
                    let (store, writing) = (&store, &writing);
                    scope.spawn(move || {
                        for (p, op) in writer_ops(grid, writer).into_iter().take(OPS) {
                            match op {
                                Some(v) => store.try_insert(p, v).expect("acked insert"),
                                None => store.try_delete(p).expect("acked delete"),
                            };
                        }
                        writing.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                // Both pause between calls: the point is the
                // interleaving, not starving the writers of the queue
                // mutex or of the partition guard.
                scope.spawn(|| {
                    while writing.load(Ordering::SeqCst) > 0 {
                        store.sync().expect("barrier");
                        std::thread::sleep(Duration::from_micros(50));
                    }
                });
                scope.spawn(|| {
                    while writing.load(Ordering::SeqCst) > 0 {
                        store.rebalance(1e-9);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            });
            let _ = finished_tx.send(());
        }
    });
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("acked writers, a barrier caller and rebalance deadlocked");
    stress.join().unwrap();
    let replay = ShardedSfcStore::with_memtable_capacity(z, 1, 32);
    for writer in 0..4u32 {
        for (p, op) in writer_ops(grid, writer).into_iter().take(OPS) {
            match op {
                Some(v) => replay.insert(p, v),
                None => replay.delete(p),
            };
        }
    }
    assert_eq!(flat(store.iter()), flat(replay.iter()), "lost a write");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// With the background maintenance thread owning flushes and compactions,
/// writers must never pay for either: every flush is the maintenance
/// thread's, and every individual insert completes well under a generous
/// bound while that thread is continuously flushing and compacting the
/// same shards. Without the maintenance offload, a writer landing on a
/// full memtable would pay the whole flush+merge inline.
#[test]
fn writers_never_stall_behind_maintenance_merges() {
    let grid = Grid::<2>::new(5).unwrap();
    let z = ZCurve::over(grid);
    let mut store = ShardedSfcStore::with_memtable_capacity(z, WRITER_THREADS, 64);
    let metrics = store.enable_metrics();
    let store = Arc::new(store);
    // Aggressive maintenance: tick constantly and compact as soon as two
    // runs exist.
    store.start_maintenance(MaintenanceConfig {
        interval: Duration::from_micros(200),
        compact_at_runs: 2,
    });

    let worst = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITER_THREADS as u32)
            .map(|writer| {
                let store = Arc::clone(&store);
                let ops = writer_ops(grid, writer);
                scope.spawn(move || {
                    let mut worst = Duration::ZERO;
                    for (p, op) in ops {
                        let t = Instant::now();
                        match op {
                            Some(v) => {
                                store.insert(p, v);
                            }
                            None => {
                                store.delete(p);
                            }
                        }
                        worst = worst.max(t.elapsed());
                    }
                    worst
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer panicked"))
            .max()
            .unwrap()
    });
    store.stop_maintenance();

    // Every flush ran on the maintenance thread: it counts each flush it
    // runs, and each compaction, which flushes before it merges, so the
    // shards' flush count is at most the sum — a writer's inline flush
    // would push it over.
    let snap = metrics.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap();
    let flushes: u64 = (0..WRITER_THREADS)
        .map(|j| counter(&format!("shard{j}.flush.count")))
        .sum();
    let by_maintenance =
        counter("engine.maintenance.flushes") + counter("engine.maintenance.compactions");
    assert!(flushes > 0, "maintenance never flushed");
    assert!(
        flushes <= by_maintenance,
        "{flushes} flushes, {by_maintenance} by the maintenance thread"
    );
    // Generous even for a loaded CI box.
    assert!(
        worst < Duration::from_millis(500),
        "a writer stalled {worst:?} behind background maintenance"
    );

    // Maintenance must not have lost or duplicated anything.
    let replay = ShardedSfcStore::with_memtable_capacity(z, 1, 64);
    for writer in 0..WRITER_THREADS as u32 {
        for (p, op) in writer_ops(grid, writer) {
            match op {
                Some(v) => {
                    replay.insert(p, v);
                }
                None => {
                    replay.delete(p);
                }
            }
        }
    }
    let want = flat(replay.iter());
    assert_eq!(flat(store.iter()), want, "maintenance lost writes");
}

/// `iter()` captures every shard when it is created; writers that insert,
/// delete and overwrite afterwards — and the flushes and compactions they
/// trigger — must not show in it. The iterator is created on a quiesced
/// store and read a little, then drained while four writers and an
/// explicit flush + compaction run (a barrier starts them only once the
/// iterator exists): it yields exactly the model as of its creation, and
/// a fresh `iter()` afterwards sees every write.
#[test]
fn iter_yields_the_state_as_of_its_creation() {
    let grid = Grid::<2>::new(5).unwrap();
    let z = ZCurve::over(grid);
    // Capacity 48: every shard holds a non-empty memtable *and* runs.
    let store = ShardedSfcStore::with_memtable_capacity(z, WRITER_THREADS, 48);
    let mut model: BTreeMap<CurveIndex, (Point<2>, u32)> = BTreeMap::new();
    let mut rng = test_rng(0x17E8);
    for i in 0..700u32 {
        let p = grid.random_cell(&mut rng);
        if i % 5 == 4 {
            store.delete(p);
            model.remove(&z.index_of(p));
        } else {
            store.insert(p, i);
            model.insert(z.index_of(p), (p, i));
        }
    }
    assert!(
        store.shard_memtable_lens().iter().all(|&n| n > 0),
        "every capture must hold a live memtable for the writers to disturb"
    );
    let expected: Vec<_> = model.iter().map(|(&k, &(p, v))| (k, p, v)).collect();

    let mut it = store.iter();
    let mut seen: Vec<StoreEntry<2, u32>> = it.by_ref().take(10).collect();
    let start = Barrier::new(WRITER_THREADS + 1);
    std::thread::scope(|scope| {
        for writer in 0..WRITER_THREADS as u32 {
            let (store, start) = (&store, &start);
            let ops = writer_ops(grid, writer);
            scope.spawn(move || {
                start.wait();
                for (p, op) in ops {
                    match op {
                        Some(v) => {
                            store.insert(p, v);
                        }
                        None => {
                            store.delete(p);
                        }
                    }
                }
            });
        }
        start.wait();
        // Drain part of it while the writers run ...
        seen.extend(it.by_ref().take(expected.len() / 2));
        store.flush();
        store.compact();
    });
    // ... and the rest after everything has been written and merged.
    seen.extend(it);
    assert_eq!(flat(seen), expected, "iter() drifted from its creation");

    for writer in 0..WRITER_THREADS as u32 {
        for (p, op) in writer_ops(grid, writer) {
            match op {
                Some(v) => model.insert(z.index_of(p), (p, v)),
                None => model.remove(&z.index_of(p)),
            };
        }
    }
    let now: Vec<_> = model.iter().map(|(&k, &(p, v))| (k, p, v)).collect();
    assert_eq!(flat(store.iter()), now, "a fresh iter() sees every write");
}

/// kNN calls racing writers, flushes and compactions on a Hilbert store
/// (every verification ball is interval-decomposed): no call may return a
/// key twice, a key deleted before the call began, or fewer than `k` rows
/// — at least `k` records stay live throughout. The same holds for a
/// `snapshot()` taken in the same loop — a capture, not a flush: no key
/// twice, no key deleted before the call, every cell written before it.
#[test]
fn knn_racing_writers_is_exact_about_what_it_may_return() {
    const K: usize = 8;
    let grid = Grid::<2>::new(5).unwrap();
    let h = HilbertCurve::over(grid);
    let store = ShardedSfcStore::with_memtable_capacity(h, WRITER_THREADS, 24);
    // Three disjoint cell classes by x mod 3: stable cells are written
    // once and never touched again, doomed cells are deleted before any
    // reader starts, churn cells belong to the writers.
    let mut doomed = BTreeSet::new();
    let mut stable = 0usize;
    for p in grid.cells() {
        match p.coord(0) % 3 {
            0 if p.coord(1) % 4 == 0 => {
                store.insert(p, 1u32);
                stable += 1;
            }
            1 => {
                store.insert(p, 2);
                doomed.insert(h.index_of(p));
            }
            _ => {}
        }
    }
    assert!(stable >= K);
    for &key in &doomed {
        store.delete(h.point_of(key));
    }

    let done = AtomicBool::new(false);
    let start = Barrier::new(WRITER_THREADS + 1);
    std::thread::scope(|scope| {
        for writer in 0..WRITER_THREADS as u32 {
            let (store, start, done) = (&store, &start, &done);
            scope.spawn(move || {
                let mut rng = test_rng(0xA11 + u64::from(writer));
                start.wait();
                let mut i = 0u32;
                while !done.load(Ordering::Relaxed) {
                    let y = rng.gen_range(0..grid.side() as u32);
                    let x = 3 * rng.gen_range(0..grid.side() as u32 / 3) + 2;
                    let p = Point::new([x, y]);
                    if i % 3 == 2 {
                        store.delete(p);
                    } else {
                        store.insert(p, 1_000 + i);
                    }
                    if i % 400 == 399 && writer == 0 {
                        store.compact();
                    }
                    i += 1;
                }
            });
        }
        let mut rng = test_rng(0xB22);
        start.wait();
        for call in 0..400 {
            let q = grid.random_cell(&mut rng);
            // Live and through a capture taken now, alternately.
            let hits: Vec<CurveIndex> = if call % 2 == 0 {
                store.knn(q, K, 4).0.iter().map(|e| e.key).collect()
            } else {
                let snap = store.snapshot();
                snap.knn(q, K, 4).0.iter().map(|e| e.key).collect()
            };
            assert_eq!(
                hits.len(),
                K,
                "call {call}: {K} records were live throughout"
            );
            let keys: BTreeSet<CurveIndex> = hits.into_iter().collect();
            assert_eq!(keys.len(), K, "call {call}: a key came back twice");
            assert!(
                keys.is_disjoint(&doomed),
                "call {call}: a key deleted before the call came back"
            );
            if call % 16 == 0 {
                let snap = store.snapshot();
                let keys: Vec<CurveIndex> = snap.iter().map(|e| e.key).collect();
                assert_eq!(keys.len(), snap.len(), "call {call}: len vs iterated count");
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "call {call}: a snapshot key came back twice"
                );
                assert!(
                    keys.iter().all(|key| !doomed.contains(key)),
                    "call {call}: the snapshot holds a key deleted before it"
                );
                let written_once = keys
                    .iter()
                    .filter(|&&key| h.point_of(key).coord(0) % 3 == 0)
                    .count();
                assert_eq!(
                    written_once, stable,
                    "call {call}: the snapshot misses a write applied before it"
                );
            }
        }
        done.store(true, Ordering::Relaxed);
    });
}

thread_local! {
    /// Set while a test wants the next `Fuse` clone on this thread to panic.
    static ARMED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// A payload whose `Clone` panics once on the thread that armed it.
#[derive(Debug, PartialEq)]
struct Fuse(u32);

impl Clone for Fuse {
    fn clone(&self) -> Self {
        assert!(!ARMED.with(|a| a.replace(false)), "armed payload cloned");
        Fuse(self.0)
    }
}

/// The lock-poisoning policy: a poisoned lock means a thread panicked
/// mid-update, so the store panics rather than serve what that thread
/// may have left half-written. `get` clones the memtable slot under the
/// shard's `mem` lock, so a clone that panics there poisons it: the next
/// write to that shard panics with the poisoned-lock message, neither
/// hanging nor returning, and a write routed to another shard succeeds.
#[test]
fn a_panic_under_a_shard_lock_fails_that_shards_later_writes() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let curve = ZCurve::over(Grid::<2>::new(4).unwrap());
    let store = ShardedSfcStore::new(curve, 2);
    let last = curve.grid().n() - 1;
    let (near, far) = (curve.point_of(0), curve.point_of(last));
    assert_ne!(
        store.partition().part_of(0),
        store.partition().part_of(last)
    );
    store.insert(near, Fuse(1));
    store.insert(far, Fuse(2));

    ARMED.with(|a| a.set(true));
    let get = catch_unwind(AssertUnwindSafe(|| store.get(near)));
    assert!(get.is_err(), "the armed clone panics inside `get`");

    let write = catch_unwind(AssertUnwindSafe(|| store.insert(near, Fuse(3))));
    let payload = write.expect_err("a write to the poisoned shard panics");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(message.contains("shard mem poisoned"), "{message}");

    assert!(
        store.insert(far, Fuse(4)),
        "the other shard replaces its record"
    );
    assert_eq!(store.get(far), Some(Fuse(4)));
}
