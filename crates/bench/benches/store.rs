//! Streaming ingest through a one-shard `ShardedSfcStore` vs repeated
//! `SfcIndex::build` rebuilds — the dynamic-workload scenario the store exists for.
//!
//! Scenario (per curve family): a 1M-record base set on a 2048×2048 grid
//! absorbs 100k upserts in 10 rounds of 10k, with a batch of box queries
//! after every round.
//!
//! * `rebuild_*` — the static path: an authoritative `BTreeMap` takes the
//!   updates and the **whole** `SfcIndex` is rebuilt from it each round.
//! * `store_*` — the LSM path: updates stream into the store's memtable,
//!   flush/compaction amortises the sort work, queries span the levels.
//!
//! Before timing anything, the harness asserts that the store's query
//! results are **byte-identical** (key, point, payload) to a fresh static
//! index built over the same live set — `query_box` against the index's
//! box kernel on Z and its raw interval walk on Hilbert — and kNN to a
//! linear scan of that index's records.

use criterion::{criterion_group, Criterion};
use rand::{Rng, SeedableRng};
use sfc_bench::{interleaved_ratio, BenchReport};
use sfc_core::{CurveIndex, Grid, HilbertCurve, Point, SpaceFillingCurve, ZCurve};
use sfc_index::{sort_columns, BoxRegion, QueryStats, SfcIndex};
use sfc_obs::MetricsRegistry;
use sfc_store::memtable::bptree::BPlusTreeMap;
use sfc_store::memtable::SfcMemtable;
use sfc_store::wal::bench_hooks;
use sfc_store::{BatchOp, EngineMetrics, ShardedSfcStore, WalConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

const BASE: usize = 1_000_000;
const ROUNDS: usize = 10;
const UPDATES_PER_ROUND: usize = 10_000;
const GRID_K: u32 = 11; // 2048×2048
const QUERIES_PER_ROUND: usize = 8;

struct Scenario {
    grid: Grid<2>,
    base: Vec<(Point<2>, u64)>,
    rounds: Vec<Vec<(Point<2>, u64)>>,
    boxes: Vec<BoxRegion<2>>,
}

fn scenario() -> Scenario {
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    let base: Vec<(Point<2>, u64)> = (0..BASE)
        .map(|i| (grid.random_cell(&mut rng), i as u64))
        .collect();
    let rounds: Vec<Vec<(Point<2>, u64)>> = (0..ROUNDS)
        .map(|r| {
            (0..UPDATES_PER_ROUND)
                .map(|i| {
                    (
                        grid.random_cell(&mut rng),
                        (BASE + r * UPDATES_PER_ROUND + i) as u64,
                    )
                })
                .collect()
        })
        .collect();
    let max = (grid.side() - 1) as u32;
    let boxes: Vec<BoxRegion<2>> = (0..QUERIES_PER_ROUND)
        .map(|_| {
            let corner = grid.random_cell(&mut rng);
            let size = rng.gen_range(8..24u32);
            BoxRegion::new(
                corner,
                Point::new([
                    (corner.coord(0) + size).min(max),
                    (corner.coord(1) + size).min(max),
                ]),
            )
        })
        .collect();
    Scenario {
        grid,
        base,
        rounds,
        boxes,
    }
}

type Authority = BTreeMap<CurveIndex, (Point<2>, u64)>;

fn authority_of<C: SpaceFillingCurve<2>>(curve: &C, records: &[(Point<2>, u64)]) -> Authority {
    records
        .iter()
        .map(|&(p, v)| (curve.index_of(p), (p, v)))
        .collect()
}

fn apply_round<C: SpaceFillingCurve<2>>(
    curve: &C,
    authority: &mut Authority,
    updates: &[(Point<2>, u64)],
) {
    for &(p, v) in updates {
        authority.insert(curve.index_of(p), (p, v));
    }
}

/// A record as the equivalence checks compare it: key, point, payload.
type Row = (CurveIndex, Point<2>, u64);

/// The `k` rows nearest to `q`, ranked by `(distance, key)`, by a linear
/// scan — a kNN oracle that shares no code with the store's or the static
/// index's candidate walk.
fn knn_linear(rows: &[Row], q: Point<2>, k: usize) -> Vec<Row> {
    let mut best = std::collections::BinaryHeap::with_capacity(k + 1);
    for (i, &(key, point, _)) in rows.iter().enumerate() {
        best.push((q.euclidean_sq(&point), key, i));
        if best.len() > k {
            best.pop();
        }
    }
    best.into_sorted_vec()
        .into_iter()
        .map(|(_, _, i)| rows[i])
        .collect()
}

/// Every record of a static index, in key order.
fn rows_of<C: SpaceFillingCurve<2>>(index: &SfcIndex<2, u64, C>) -> Vec<Row> {
    index
        .entries()
        .map(|e| (e.key, e.point, *e.payload))
        .collect()
}

/// Asserts the store's merged query results are byte-identical to a fresh
/// static index over the same live set, and its kNN to a linear scan.
fn assert_equivalence(sc: &Scenario) {
    let triple = |key: CurveIndex, point: Point<2>, payload: u64| (key, point, payload);

    // Z: the planner against the index's box kernel (BIGMIN skips), plus
    // kNN against a linear scan.
    let z = ZCurve::over(sc.grid);
    let store = ShardedSfcStore::bulk_load(z, 1, sc.base.iter().copied());
    let mut authority = authority_of(&z, &sc.base);
    for updates in &sc.rounds {
        apply_round(&z, &mut authority, updates);
        for &(p, v) in updates {
            store.insert(p, v);
        }
    }
    let index = SfcIndex::build(z, authority.values().copied());
    assert_eq!(store.len(), index.len(), "live set size");
    let rows = rows_of(&index);
    let store = store.snapshot();
    for b in &sc.boxes {
        let (got, _) = store.query_box(b);
        let (want, _) = index.query_box(b);
        let got: Vec<_> = got
            .iter()
            .map(|e| triple(e.key, e.point, *e.payload))
            .collect();
        let want: Vec<_> = want
            .iter()
            .map(|e| triple(e.key, e.point, *e.payload))
            .collect();
        assert_eq!(got, want, "Z bigmin mismatch on {b:?}");
        let q = b.lo();
        let (gk, _) = store.knn(q, 10, 16);
        let gk: Vec<_> = gk
            .iter()
            .map(|e| triple(e.key, e.point, *e.payload))
            .collect();
        assert_eq!(gk, knn_linear(&rows, q, 10), "Z knn mismatch at {q}");
    }

    // Hilbert: the planner against the index's raw interval walk.
    let h = HilbertCurve::over(sc.grid);
    let store = ShardedSfcStore::bulk_load(h, 1, sc.base.iter().copied());
    let mut authority = authority_of(&h, &sc.base);
    for updates in &sc.rounds {
        apply_round(&h, &mut authority, updates);
        for &(p, v) in updates {
            store.insert(p, v);
        }
    }
    let index = SfcIndex::build(h, authority.values().copied());
    let store = store.snapshot();
    for b in &sc.boxes {
        let (got, _) = store.query_box(b);
        let (want, _) = index.query_intervals(&b.curve_intervals(index.curve()));
        let got: Vec<_> = got
            .iter()
            .map(|e| triple(e.key, e.point, *e.payload))
            .collect();
        let want: Vec<_> = want
            .iter()
            .map(|e| triple(e.key, e.point, *e.payload))
            .collect();
        assert_eq!(got, want, "Hilbert intervals mismatch on {b:?}");
    }
    println!("equivalence: store query results byte-identical to static index (Z + Hilbert), kNN to a linear scan");
}

/// Asserts the `parts`-shard store's query results are byte-identical to
/// the one-shard store's (router + fan-out must be invisible to readers),
/// and reports per-shard shape.
fn assert_sharded_equivalence(
    sc: &Scenario,
    parts: usize,
) -> (
    ShardedSfcStore<2, u64, ZCurve<2>>,
    ShardedSfcStore<2, u64, ZCurve<2>>,
) {
    let z = ZCurve::over(sc.grid);
    let sharded = ShardedSfcStore::bulk_load(z, parts, sc.base.iter().copied());
    let single = ShardedSfcStore::bulk_load(z, 1, sc.base.iter().copied());
    for updates in &sc.rounds {
        for &(p, v) in updates {
            sharded.insert(p, v);
            single.insert(p, v);
        }
    }
    assert_eq!(sharded.len(), single.len(), "live set size");
    let triple = |key: CurveIndex, point: Point<2>, payload: u64| (key, point, payload);
    for b in &sc.boxes {
        let (got, _) = sharded.query_box(b);
        let (want, _) = single.query_box(b);
        let got: Vec<_> = got
            .iter()
            .map(|e| triple(e.key, e.point, e.payload))
            .collect();
        let want: Vec<_> = want
            .iter()
            .map(|e| triple(e.key, e.point, e.payload))
            .collect();
        assert_eq!(got, want, "sharded box mismatch on {b:?}");
        let q = b.lo();
        let (gk, _) = sharded.knn(q, 10, 16);
        let (wk, _) = single.knn(q, 10, 16);
        let gk: Vec<_> = gk
            .iter()
            .map(|e| triple(e.key, e.point, e.payload))
            .collect();
        let wk: Vec<_> = wk
            .iter()
            .map(|e| triple(e.key, e.point, e.payload))
            .collect();
        assert_eq!(gk, wk, "sharded knn mismatch at {q}");
    }
    println!("sharded equivalence: {parts}-shard results byte-identical to the one-shard store");
    for (j, (len, runs)) in sharded
        .shard_lens()
        .iter()
        .zip(sharded.shard_run_lens())
        .enumerate()
    {
        println!("  shard {j}: {len} live | runs {runs:?}");
    }
    (sharded, single)
}

fn bench_sharded_ingest(c: &mut Criterion) {
    const PARTS: usize = 4;
    let sc = scenario();
    let (sharded, single) = assert_sharded_equivalence(&sc, PARTS);

    let mut group = c.benchmark_group("sharded_ingest_100k_into_1m");
    group.bench_function("z_one_shard", |bencher| {
        bencher.iter(|| {
            let mut total = 0usize;
            for updates in &sc.rounds {
                for &(p, v) in updates {
                    single.insert(p, v);
                }
                for b in &sc.boxes {
                    total += black_box(single.query_box(b).0.len());
                }
            }
            total
        })
    });
    group.bench_function("z_sharded_store", |bencher| {
        bencher.iter(|| {
            let mut total = 0usize;
            for updates in &sc.rounds {
                for &(p, v) in updates {
                    sharded.insert(p, v);
                }
                for b in &sc.boxes {
                    total += black_box(sharded.query_box(b).0.len());
                }
            }
            total
        })
    });
    group.finish();
}

/// Multi-writer ingest throughput: the same total op count split across
/// 1/2/4/8 writer threads driving the `&self` API of an 8-shard store.
/// Writers own disjoint shard subsets, so the per-shard locks never
/// contend — wall-clock scaling above one writer is bounded only by the
/// machine's cores (single-core containers will show ≈1×).
fn bench_concurrent_throughput(c: &mut Criterion) {
    const SHARDS: usize = 8;
    const TOTAL_OPS: usize = 200_000;
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let z = ZCurve::over(grid);
    let partition = sfc_partition::Partition::uniform(grid.n(), SHARDS);
    // Pre-bucket a fixed op stream by owning shard so each writer thread
    // can take whole shards (disjoint ranges, deterministic content).
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(777);
    let mut buckets: Vec<Vec<(Point<2>, u64)>> = vec![Vec::new(); SHARDS];
    for i in 0..TOTAL_OPS {
        let p = grid.random_cell(&mut rng);
        buckets[partition.part_of(z.index_of(p))].push((p, i as u64));
    }
    let mut group = c.benchmark_group("concurrent_throughput");
    for writers in [1usize, 2, 4, 8] {
        group.bench_function(format!("writers_{writers}"), |bencher| {
            bencher.iter(|| {
                let store = ShardedSfcStore::with_memtable_capacity(z, SHARDS, 2048);
                std::thread::scope(|scope| {
                    for w in 0..writers {
                        let store = &store;
                        let buckets = &buckets;
                        scope.spawn(move || {
                            for bucket in buckets.iter().skip(w).step_by(writers) {
                                for &(p, v) in bucket {
                                    store.insert(p, v);
                                }
                            }
                        });
                    }
                });
                black_box(store.len())
            })
        });
    }
    group.finish();
}

/// The memtable swap's gate bench: raw insert+drain cycles through the
/// B+tree memtable vs the old `std::collections::BTreeMap`, under the
/// two key orders that bracket real ingest — a curve-local sweep
/// (ascending keys with small random gaps, the order a router or
/// curve-sorted batch produces; consecutive upserts land in the same
/// leaf, so the last-accessed-leaf hint short-circuits the root descent)
/// and uniform-random keys (every insert descends from the root; the
/// hint never helps). Each iteration replays the same 200k-key stream
/// into a 4096-entry table, draining it in curve order whenever it fills
/// — the store's flush cycle, minus the run build, so the map itself is
/// the only thing timed.
///
/// The `engine_local_writers_{1,4}` variants run the same curve-local
/// order through the full sharded engine (seq protocol, epoch publish,
/// real flushes) with one and four writer threads; `capture_*` time what
/// a query capture does to a full table.
fn bench_memtable_ingest(c: &mut Criterion) {
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let universe = grid.n();
    let mut streams: Vec<(&str, Vec<CurveIndex>)> = Vec::new();
    for (tag, local) in [("local", true), ("random", false)] {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(if local { 7 } else { 8 });
        let mut cur = universe / 2;
        let keys = (0..MEMTABLE_OPS)
            .map(|_| {
                if local {
                    cur = (cur + rng.gen_range(1..32u32) as u128) % universe;
                    cur
                } else {
                    rng.gen_range(0..universe)
                }
            })
            .collect();
        streams.push((tag, keys));
    }

    let mut group = c.benchmark_group("memtable_ingest");
    for (tag, keys) in &streams {
        group.bench_function(format!("bptree_{tag}"), |bencher| {
            bencher.iter(|| {
                let mut tree = BPlusTreeMap::new();
                let mut drained = 0usize;
                for (i, &k) in keys.iter().enumerate() {
                    tree.insert(k, i as u64);
                    if tree.len() >= MEMTABLE_CAP {
                        for entry in std::mem::take(&mut tree) {
                            black_box(entry);
                            drained += 1;
                        }
                    }
                }
                black_box(drained + tree.len())
            })
        });
        group.bench_function(format!("btreemap_{tag}"), |bencher| {
            bencher.iter(|| {
                let mut tree: BTreeMap<CurveIndex, u64> = BTreeMap::new();
                let mut drained = 0usize;
                for (i, &k) in keys.iter().enumerate() {
                    tree.insert(k, i as u64);
                    if tree.len() >= MEMTABLE_CAP {
                        for entry in std::mem::take(&mut tree) {
                            black_box(entry);
                            drained += 1;
                        }
                    }
                }
                black_box(drained + tree.len())
            })
        });
    }

    // What a query capture costs at a full table: the copy-on-write
    // snapshot (leaf pointers + inner nodes) against the entry-by-entry
    // range clone it replaced.
    let full = SfcMemtable::from_sorted((0..MEMTABLE_CAP as u64).map(|i| (u128::from(i) * 7, i)));
    group.bench_function("capture_snapshot", |bencher| {
        bencher.iter(|| black_box(full.snapshot()).len())
    });
    group.bench_function("capture_range_clone", |bencher| {
        bencher.iter(|| {
            let entries = full.range_iter(0, CurveIndex::MAX).map(|(k, &v)| (k, v));
            black_box(SfcMemtable::from_sorted(entries)).len()
        })
    });

    // Engine-level curve-local ingest: a random live set streamed in
    // curve order (the most hint-friendly upsert order a router can
    // produce), through the concurrent sharded store's `&self` API.
    const PARTS: usize = 4;
    let z = ZCurve::over(grid);
    let partition = sfc_partition::Partition::uniform(grid.n(), PARTS);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
    let mut pts: Vec<(Point<2>, u64)> = (0..MEMTABLE_ENGINE_OPS)
        .map(|i| (grid.random_cell(&mut rng), i as u64))
        .collect();
    pts.sort_by_key(|&(p, _)| z.index_of(p));
    let mut buckets: Vec<Vec<(Point<2>, u64)>> = vec![Vec::new(); PARTS];
    for &(p, v) in &pts {
        buckets[partition.part_of(z.index_of(p))].push((p, v));
    }
    for writers in [1usize, 4] {
        group.bench_function(format!("engine_local_writers_{writers}"), |bencher| {
            bencher.iter(|| {
                let store = ShardedSfcStore::with_memtable_capacity(z, PARTS, MEMTABLE_CAP);
                std::thread::scope(|scope| {
                    for w in 0..writers {
                        let store = &store;
                        let buckets = &buckets;
                        scope.spawn(move || {
                            for bucket in buckets.iter().skip(w).step_by(writers) {
                                for &(p, v) in bucket {
                                    store.insert(p, v);
                                }
                            }
                        });
                    }
                });
                black_box(store.len())
            })
        });
    }
    group.finish();
}

const MEMTABLE_OPS: usize = 200_000;
const MEMTABLE_CAP: usize = 4096;
const MEMTABLE_ENGINE_OPS: usize = 100_000;

const WAL_OPS: usize = 50_000;
const WAL_SHARDS: usize = 4;

/// The committed durability budget: group-committed WAL ingest
/// (`insert_nosync` + one closing `sync()` barrier, `fsync_every` 512)
/// must stay within this factor of the identical in-memory workload on
/// tmpfs. `min_ns`-based like the other gates. The committed
/// `BENCH_store.json` records 1.62 (1.91 before frames were encoded into
/// one buffer and checksummed by the sliced kernel); the gate is that
/// plus 15 % for this box's noise.
const DURABLE_INGEST_RATIO_GATE: f64 = 1.86;

/// Scratch directory for the WAL benches: `/dev/shm` (tmpfs) when the
/// host has it, so the gates measure the logging machinery — framing,
/// queue handoff, group fsync — rather than disk hardware.
fn wal_bench_dir(tag: &str) -> std::path::PathBuf {
    let shm = std::path::Path::new("/dev/shm");
    let base = if shm.is_dir() {
        shm.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    base.join(format!("sfc-bench-{tag}-{}", std::process::id()))
}

/// Durable vs in-memory ingest: the same 50k-upsert stream through an
/// identical sharded store, once purely in memory and once with every
/// record framed, CRC'd, group-committed, and fsynced (writers ride the
/// queue without waiting; the closing `sync()` barrier makes the whole
/// stream durable before the iteration ends).
fn bench_wal_ingest(c: &mut Criterion) {
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let z = ZCurve::over(grid);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1212);
    let ops: Vec<(Point<2>, u64)> = (0..WAL_OPS)
        .map(|i| (grid.random_cell(&mut rng), i as u64))
        .collect();
    let dir = wal_bench_dir("wal");

    let mut group = c.benchmark_group("wal_ingest");
    group.bench_function("in_memory", |bencher| {
        bencher.iter(|| {
            let store = ShardedSfcStore::with_memtable_capacity(z, WAL_SHARDS, 2048);
            for &(p, v) in &ops {
                store.insert(p, v);
            }
            black_box(store.len())
        })
    });
    group.bench_function("durable_group_commit", |bencher| {
        bencher.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = ShardedSfcStore::open_durable(
                z,
                WAL_SHARDS,
                2048,
                WalConfig::new(&dir).fsync_every(512),
            )
            .expect("open durable store");
            for &(p, v) in &ops {
                store.insert_nosync(p, v);
            }
            store.sync().expect("durability barrier");
            black_box(store.len())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durability gate CI runs on every release bench.
fn assert_wal_gate(all_records: &[criterion::BenchRecord]) -> f64 {
    let min = |name: &str| {
        all_records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
            .expect("wal bench recorded")
    };
    let ratio = min("wal_ingest/durable_group_commit") / min("wal_ingest/in_memory");
    assert!(
        ratio <= DURABLE_INGEST_RATIO_GATE,
        "durable ingest is {ratio:.3}x the in-memory baseline — over the \
         {DURABLE_INGEST_RATIO_GATE} budget; the group-commit batching has \
         stopped amortising the log"
    );
    println!("durable ingest overhead: {ratio:.3}x (budget {DURABLE_INGEST_RATIO_GATE})");
    ratio
}

const ACKED_OPS: usize = 20_000;

/// The committed ack budget: the median acked `try_insert` may cost at
/// most this many median un-waited `insert_nosync`s of the same stream
/// on tmpfs. An ack is a `write` and an `fdatasync` (≈ 0.5 µs the pair
/// there) made by the writer itself; while it was two thread hand-offs
/// the ratio read ≈ 11 on one CPU and ≈ 45 across two. 1.8–2.5 now; the
/// gate leaves room for this box's noise and none for a hand-off.
const ACKED_VS_NOSYNC_WRITE_GATE: f64 = 5.0;

/// What the `acked_write` group measures, for the report.
struct AckedWrite {
    acked_ns_p50: f64,
    nosync_ns_p50: f64,
    nproc: usize,
    /// Per writer count: acked writes per second, records per group
    /// commit, and the sampled mean `write.liveness.ns` and `insert.ns`
    /// over all shards — `None` where the box has fewer cores than
    /// writers.
    writers: [(usize, Option<WriterRun>); 3],
}

/// One measured acked-writer run of [`bench_acked_write`].
#[derive(Clone, Copy)]
struct WriterRun {
    per_s: f64,
    group: f64,
    /// Mean run-probe time of a sampled write (`shard<j>.write.liveness.ns`).
    liveness_ns: f64,
    /// Mean time of a sampled write (`shard<j>.insert.ns`).
    insert_ns: f64,
}

/// The acked single-record write, the one durable path no other group
/// times (`wal_ingest` and `batch_ingest` ride the queue un-waited and
/// close with one barrier): one writer streams 20k uniform upserts into
/// a fresh 4-shard durable store on tmpfs, every call timed — once
/// acked (`try_insert`), once un-waited (`insert_nosync` + a closing
/// barrier outside the timers) — best median of three streams each.
/// Then the same acked stream split over 1/2/4 concurrent writers:
/// throughput and the mean group size the commit queue formed
/// (followers park while a leader's round is in flight, so more writers
/// means bigger groups, not more fsyncs), and the sampled share of a
/// write spent probing the run stack for the key's liveness. Not
/// criterion-driven: the unit is one call, not one stream.
fn bench_acked_write() -> AckedWrite {
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let z = ZCurve::over(grid);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1818);
    let ops: Vec<(Point<2>, u64)> = (0..ACKED_OPS)
        .map(|i| (grid.random_cell(&mut rng), i as u64))
        .collect();
    let dir = wal_bench_dir("acked");
    let open = || {
        let _ = std::fs::remove_dir_all(&dir);
        let config = WalConfig::new(&dir).fsync_every(512);
        ShardedSfcStore::open_durable(z, WAL_SHARDS, 2048, config).expect("open durable store")
    };
    let median_call_ns = |acked: bool| -> f64 {
        let medians = (0..3).map(|_| {
            let store = open();
            let mut lat: Vec<u64> = Vec::with_capacity(ops.len());
            for &(p, v) in &ops {
                let t = std::time::Instant::now();
                if acked {
                    store.try_insert(p, v).expect("acked write");
                } else {
                    store.insert_nosync(p, v);
                }
                lat.push(t.elapsed().as_nanos() as u64);
            }
            store.sync().expect("durability barrier");
            lat.sort_unstable();
            lat[lat.len() / 2] as f64
        });
        medians.fold(f64::INFINITY, f64::min)
    };
    let nosync_ns_p50 = median_call_ns(false);
    let acked_ns_p50 = median_call_ns(true);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let writers = [1usize, 2, 4].map(|writers| {
        if nproc < writers {
            return (writers, None);
        }
        let mut store = open();
        let metrics = store.enable_metrics();
        let start = std::time::Instant::now();
        std::thread::scope(|scope| {
            for chunk in ops.chunks(ops.len() / writers) {
                let store = &store;
                scope.spawn(move || {
                    for &(p, v) in chunk {
                        store.try_insert(p, v).expect("acked write");
                    }
                });
            }
        });
        let per_s = ops.len() as f64 / start.elapsed().as_secs_f64();
        let snap = metrics.registry().snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
        // Sample-weighted mean of a per-shard histogram.
        let shard_mean = |metric: &str| {
            let (sum, count) = (0..WAL_SHARDS)
                .filter_map(|j| snap.histogram(&format!("shard{j}.{metric}")))
                .fold((0.0, 0u64), |(sum, count), h| {
                    (sum + h.mean() * h.count() as f64, count + h.count())
                });
            sum / count.max(1) as f64
        };
        let run = WriterRun {
            per_s,
            group: counter("wal.records") / counter("wal.groups"),
            liveness_ns: shard_mean("write.liveness.ns"),
            insert_ns: shard_mean("insert.ns"),
        };
        (writers, Some(run))
    });
    let _ = std::fs::remove_dir_all(&dir);

    let ratio = acked_ns_p50 / nosync_ns_p50;
    assert!(
        ratio <= ACKED_VS_NOSYNC_WRITE_GATE,
        "an acked write costs {ratio:.2} un-waited ones ({acked_ns_p50:.0} ns vs \
         {nosync_ns_p50:.0} ns) — over the {ACKED_VS_NOSYNC_WRITE_GATE} budget; the ack is \
         waiting on another thread again"
    );
    println!(
        "acked write: p50 {acked_ns_p50:.0} ns = {ratio:.2}x un-waited {nosync_ns_p50:.0} ns \
         (budget {ACKED_VS_NOSYNC_WRITE_GATE}), nproc {nproc}"
    );
    for (n, measured) in &writers {
        match measured {
            Some(run) => println!(
                "acked writers {n}: {:.0} writes/s, {:.2} records/group, sampled write {:.0} ns \
                 of which run-stack liveness probe {:.0} ns",
                run.per_s, run.group, run.insert_ns, run.liveness_ns
            ),
            None => println!("acked writers {n}: unmeasured ({nproc} cores)"),
        }
    }
    AckedWrite {
        acked_ns_p50,
        nosync_ns_p50,
        nproc,
        writers,
    }
}

impl AckedWrite {
    /// The `acked_write` section of `BENCH_store.json`: a ratio between
    /// writer counts the box cannot run is `"unmeasured"` (ROADMAP 3(a)).
    fn members(&self) -> Vec<(String, String)> {
        let ratio = self.acked_ns_p50 / self.nosync_ns_p50;
        let mut out = vec![
            ("nproc".to_string(), self.nproc.to_string()),
            (
                "acked_write_ns_p50".to_string(),
                format!("{:.1}", self.acked_ns_p50),
            ),
            (
                "nosync_write_ns_p50".to_string(),
                format!("{:.1}", self.nosync_ns_p50),
            ),
            (
                "acked_vs_nosync_write_ratio".to_string(),
                format!("{ratio:.3}"),
            ),
            (
                "acked_vs_nosync_write_ratio_gate".to_string(),
                ACKED_VS_NOSYNC_WRITE_GATE.to_string(),
            ),
        ];
        let one = self.writers[0].1.map(|run| run.per_s);
        for &(n, measured) in &self.writers {
            let mut put = |name: &str, value: Option<String>| {
                let value = value.unwrap_or_else(|| "\"unmeasured\"".to_string());
                out.push((format!("acked_writers_{n}_{name}"), value));
            };
            put(
                "writes_per_s",
                measured.map(|run| format!("{:.0}", run.per_s)),
            );
            put(
                "records_per_group",
                measured.map(|run| format!("{:.3}", run.group)),
            );
            put(
                "liveness_ns_mean",
                measured.map(|run| format!("{:.1}", run.liveness_ns)),
            );
            put(
                "insert_ns_mean",
                measured.map(|run| format!("{:.1}", run.insert_ns)),
            );
            if n > 1 {
                let vs_one = measured.zip(one).map(|(run, one)| run.per_s / one);
                put("vs_1", vs_one.map(|r| format!("{r:.3}")));
            }
        }
        out
    }
}

const BATCH_OPS: usize = 50_000;
/// Bulk-ingest sized: big enough that each shard slice coalesces into a
/// couple of near-`MAX_BODY` frames, so the durable comparison measures
/// frame amortisation rather than the shared fsync floor.
const BATCH_SIZE: usize = 4_096;
/// Above `BATCH_OPS / WAL_SHARDS`: no shard flushes mid-benchmark, so
/// the timing isolates the paths batching amortises (routing, memtable
/// locking, WAL framing) instead of drowning them in identical
/// flush-persist work on both sides.
const BATCH_CAP: usize = 16_384;

/// The committed batched-write budget: on the durable store, applying
/// the stream as `BATCH_SIZE`-record batches (one routing pass per
/// batch, one memtable-lock hold per shard slice, coalesced WAL frames
/// with one checksum and one commit-queue ticket each) must beat the
/// identical per-record stream by at least this factor. `min_ns`-based
/// like the other gates.
const BATCH_INGEST_RATIO_GATE: f64 = 1.5;

/// Batched vs per-record ingest, in memory and durable: the same
/// 50k-upsert stream applied one `insert` at a time vs as
/// `BATCH_SIZE`-record `apply_batch` calls. The durable pair is the
/// headline — frame coalescing turns 50k frames/tickets/CRCs into ~50.
fn bench_batch_ingest(c: &mut Criterion) {
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let z = ZCurve::over(grid);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3434);
    let ops: Vec<(Point<2>, u64)> = (0..BATCH_OPS)
        .map(|i| (grid.random_cell(&mut rng), i as u64))
        .collect();
    let batches: Vec<Vec<BatchOp<2, u64>>> = ops
        .chunks(BATCH_SIZE)
        .map(|chunk| chunk.iter().map(|&(p, v)| BatchOp::Insert(p, v)).collect())
        .collect();
    let dir = wal_bench_dir("batch");

    let mut group = c.benchmark_group("batch_ingest");
    group.bench_function("in_memory_per_record", |bencher| {
        bencher.iter(|| {
            let store = ShardedSfcStore::with_memtable_capacity(z, WAL_SHARDS, BATCH_CAP);
            for &(p, v) in &ops {
                store.insert(p, v);
            }
            black_box(store.len())
        })
    });
    group.bench_function("in_memory_batched", |bencher| {
        bencher.iter(|| {
            let store = ShardedSfcStore::with_memtable_capacity(z, WAL_SHARDS, BATCH_CAP);
            for batch in &batches {
                store.apply_batch(batch);
            }
            black_box(store.len())
        })
    });
    group.bench_function("durable_per_record", |bencher| {
        bencher.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = ShardedSfcStore::open_durable(
                z,
                WAL_SHARDS,
                BATCH_CAP,
                WalConfig::new(&dir).fsync_every(512),
            )
            .expect("open durable store");
            for &(p, v) in &ops {
                store.insert_nosync(p, v);
            }
            store.sync().expect("durability barrier");
            black_box(store.len())
        })
    });
    group.bench_function("durable_batched", |bencher| {
        bencher.iter(|| {
            let _ = std::fs::remove_dir_all(&dir);
            let store = ShardedSfcStore::open_durable(
                z,
                WAL_SHARDS,
                BATCH_CAP,
                WalConfig::new(&dir).fsync_every(512),
            )
            .expect("open durable store");
            for batch in &batches {
                store.apply_batch_nosync(batch);
            }
            store.sync().expect("durability barrier");
            black_box(store.len())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batched-ingest ratios: durable (gated ≥ 1.5x) and in-memory
/// (recorded only — without the log the batch API amortises just the
/// routing and lock traffic).
fn assert_batch_gate(all_records: &[criterion::BenchRecord]) -> (f64, f64) {
    let min = |name: &str| {
        all_records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
            .expect("batch bench recorded")
    };
    let durable = min("batch_ingest/durable_per_record") / min("batch_ingest/durable_batched");
    let in_memory =
        min("batch_ingest/in_memory_per_record") / min("batch_ingest/in_memory_batched");
    assert!(
        durable >= BATCH_INGEST_RATIO_GATE,
        "durable batched ingest is only {durable:.3}x the per-record stream — \
         below the {BATCH_INGEST_RATIO_GATE} gate; frame coalescing has \
         stopped amortising the log"
    );
    println!(
        "batched ingest speedup: durable {durable:.3}x (gate {BATCH_INGEST_RATIO_GATE}), \
         in-memory {in_memory:.3}x"
    );
    (durable, in_memory)
}

/// Bytes the checksum bench covers per iteration.
const CRC_BENCH_BYTES: usize = 1 << 20;

/// The committed checksum floor: the slice-by-8 CRC32C must move at
/// least this many GB/s (`min_ns`-based). The one-table loop it replaced
/// measures ≈ 0.4 here; every durable byte is checksummed once on the
/// way out and once on the way in, so this is the ceiling of both.
const CRC32C_GBPS_GATE: f64 = 1.0;

/// The durable-bytes kernels, as a run of an ingesting store sees them:
/// one curve-local run (40 % of the cells of a 512×512 window, every
/// tenth slot a tombstone) dumped to its run-file bytes and loaded back,
/// plus the checksum over 1 MiB. Returns the run's record count and file
/// size for the report.
fn bench_durable_bytes(c: &mut Criterion) -> (usize, usize) {
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let z = ZCurve::over(grid);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1515);
    let points: Vec<Point<2>> = (0..512u32 * 512)
        .filter(|_| rng.gen_range(0u32..10) < 4)
        .map(|i| Point::new([700 + i % 512, 300 + i / 512]))
        .collect();
    let payloads: Vec<u64> = (0..points.len() as u64).collect();
    let (keys, points, payloads) = sort_columns(&z, points, payloads);
    let slots: Vec<Option<u64>> = payloads
        .into_iter()
        .enumerate()
        .map(|(i, v)| (i % 10 != 0).then_some(v))
        .collect();
    let run = SfcIndex::from_sorted_versions(z, keys, points, slots);
    let file = bench_hooks::encode_run(&run);
    let loaded = bench_hooks::decode_run::<2, u64, _>(&file, &z).expect("own file loads");
    assert_eq!(loaded.blocks(), run.blocks(), "load is the identity");
    assert_eq!(loaded.payloads(), run.payloads());
    let noise: Vec<u8> = (0..CRC_BENCH_BYTES).map(|_| rng.gen()).collect();

    let mut group = c.benchmark_group("durable_bytes");
    group.bench_function("crc32c_1mib", |bencher| {
        bencher.iter(|| black_box(bench_hooks::crc32c(black_box(&noise))))
    });
    group.bench_function("run_encode", |bencher| {
        bencher.iter(|| black_box(bench_hooks::encode_run(black_box(&run)).len()))
    });
    group.bench_function("run_load", |bencher| {
        bencher.iter(|| {
            let run = bench_hooks::decode_run::<2, u64, _>(black_box(&file), &z);
            black_box(run.expect("own file loads").len())
        })
    });
    group.finish();
    (run.len(), file.len())
}

/// The durable-bytes numbers for the report (`min_ns`-based), with the
/// checksum floor asserted.
struct DurableBytes {
    crc32c_gbps: f64,
    run_encode_ns_per_record: f64,
    run_load_ns_per_record: f64,
    run_file_bytes_per_record: f64,
}

fn assert_durable_bytes_gate(
    all_records: &[criterion::BenchRecord],
    (records, file_bytes): (usize, usize),
) -> DurableBytes {
    let min = |name: &str| {
        all_records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
            .expect("durable_bytes bench recorded")
    };
    let d = DurableBytes {
        crc32c_gbps: CRC_BENCH_BYTES as f64 / min("durable_bytes/crc32c_1mib"),
        run_encode_ns_per_record: min("durable_bytes/run_encode") / records as f64,
        run_load_ns_per_record: min("durable_bytes/run_load") / records as f64,
        run_file_bytes_per_record: file_bytes as f64 / records as f64,
    };
    assert!(
        d.crc32c_gbps >= CRC32C_GBPS_GATE,
        "crc32c moves {:.3} GB/s — below the {CRC32C_GBPS_GATE} GB/s floor; \
         the sliced kernel has fallen back to bytewise speed",
        d.crc32c_gbps
    );
    println!(
        "durable bytes: crc32c {:.2} GB/s (floor {CRC32C_GBPS_GATE}), run file {:.2} B/record, \
         encode {:.1} ns/record, load {:.1} ns/record",
        d.crc32c_gbps,
        d.run_file_bytes_per_record,
        d.run_encode_ns_per_record,
        d.run_load_ns_per_record
    );
    d
}

const RECOVERY_OPS: usize = 200_000;

/// WAL recovery replay: a crashed 4-shard store whose whole 200k-record
/// stream lives only in the log (synced, never flushed) is reopened.
/// Recorded, not gated.
fn bench_recovery_replay(c: &mut Criterion) {
    let grid = Grid::<2>::new(GRID_K).unwrap();
    let z = ZCurve::over(grid);
    let dir = wal_bench_dir("recovery");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2323);
    {
        let store = ShardedSfcStore::open_durable(
            z,
            WAL_SHARDS,
            RECOVERY_OPS, // capacity above the record count: replay stays WAL-bound
            WalConfig::new(&dir).fsync_every(4096),
        )
        .expect("open durable store");
        for i in 0..RECOVERY_OPS {
            store.insert_nosync(grid.random_cell(&mut rng), i as u64);
        }
        store.sync().expect("durability barrier");
        store.simulate_crash();
    }

    c.bench_function("recovery_replay", |bencher| {
        bencher.iter(|| {
            let store: ShardedSfcStore<2, u64, _> =
                ShardedSfcStore::open_durable(z, WAL_SHARDS, RECOVERY_OPS, WalConfig::new(&dir))
                    .expect("reopen crashed store");
            let replayed = store
                .recovery_stats()
                .expect("recovered store has stats")
                .replayed_records;
            // The fixture must not drift across iterations: every reopen
            // replays the full logged stream and nothing may flush or
            // prune it behind our back.
            assert_eq!(replayed, RECOVERY_OPS, "recovery fixture drifted");
            store.simulate_crash(); // never a clean close: the WAL must survive
            black_box(replayed)
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed memtable gate: on the curve-local stream the B+tree
/// must at least match the `BTreeMap` it replaced (`min_ns`-based, the
/// most noise-robust summary at `sample_size(10)`). The random-order
/// ratio is reported but not gated — the hint can't help there, and
/// parity is all the design claims.
const MEMTABLE_LOCAL_RATIO_GATE: f64 = 1.0;

/// The three headline ratios of the memtable swap, for the JSON report.
struct MemtableRatios {
    /// `BTreeMap` / B+tree ingest time, curve-local stream (gated ≥ 1.0).
    local: f64,
    /// `BTreeMap` / B+tree ingest time, uniform-random stream.
    random: f64,
    /// B+tree random / B+tree local — how much the hint path buys.
    local_vs_random: f64,
}

/// The locality gate CI runs on every release bench.
fn assert_memtable_gate(all_records: &[criterion::BenchRecord]) -> MemtableRatios {
    let min = |name: &str| {
        all_records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
            .expect("memtable bench recorded")
    };
    let ratios = MemtableRatios {
        local: min("memtable_ingest/btreemap_local") / min("memtable_ingest/bptree_local"),
        random: min("memtable_ingest/btreemap_random") / min("memtable_ingest/bptree_random"),
        local_vs_random: min("memtable_ingest/bptree_random") / min("memtable_ingest/bptree_local"),
    };
    assert!(
        ratios.local >= MEMTABLE_LOCAL_RATIO_GATE,
        "B+tree memtable is {:.3}x the BTreeMap baseline on the curve-local \
         stream — below the {MEMTABLE_LOCAL_RATIO_GATE} gate; the hint fast \
         path has regressed",
        ratios.local
    );
    println!(
        "memtable ingest: btreemap/bptree local {:.3}x (gate {MEMTABLE_LOCAL_RATIO_GATE}), random {:.3}x, bptree local vs random {:.3}x",
        ratios.local, ratios.random, ratios.local_vs_random
    );
    ratios
}

fn bench_ingest(c: &mut Criterion) {
    let sc = scenario();
    assert_equivalence(&sc);

    let mut group = c.benchmark_group("ingest_100k_into_1m");

    macro_rules! bench_curve {
        ($name:literal, $curve:expr) => {
            let curve = $curve;
            // Rebuild baseline: authority map + full rebuild per round.
            let mut authority = authority_of(&curve, &sc.base);
            group.bench_function(concat!($name, "_rebuild"), |bencher| {
                bencher.iter(|| {
                    let mut total = 0usize;
                    for updates in &sc.rounds {
                        apply_round(&curve, &mut authority, updates);
                        let index = SfcIndex::build(curve, authority.values().copied());
                        for b in &sc.boxes {
                            total += black_box(index.query_box(b).0.len());
                        }
                    }
                    total
                })
            });
            // Streaming path: updates land in the memtable, flushes and
            // size-tiered merges amortise the sort.
            let store = ShardedSfcStore::bulk_load(curve, 1, sc.base.iter().copied());
            group.bench_function(concat!($name, "_store_streaming"), |bencher| {
                bencher.iter(|| {
                    let mut total = 0usize;
                    for updates in &sc.rounds {
                        for &(p, v) in updates {
                            store.insert(p, v);
                        }
                        for b in &sc.boxes {
                            total += black_box(store.query_box(b).0.len());
                        }
                    }
                    total
                })
            });
        };
    }

    bench_curve!("z", ZCurve::over(sc.grid));
    bench_curve!("hilbert", HilbertCurve::over(sc.grid));
    group.finish();
}

/// The zone-map / planner headline: query latency against a *multi-run*
/// million-record store, the planner beside the raw interval walk, and
/// kNN. Byte-identical results are asserted for
/// every query before anything is timed, and the per-path [`QueryStats`]
/// are collected for the JSON report.
struct QueryBench {
    records: Vec<criterion::BenchRecord>,
    stats: Vec<(&'static str, QueryStats)>,
    footprint: Footprint,
}

/// The query store's measured memory footprint, for the
/// `bytes_per_record` report section and the CI budget gate.
struct Footprint {
    /// Heap bytes held by the store (compressed runs + memtable estimate).
    heap_bytes: usize,
    /// Heap bytes held by the memtable alone — exact `O(1)` node-slab
    /// accounting from the B+tree backing.
    memtable_heap_bytes: usize,
    /// Total slots stored across runs and memtable (tombstones included).
    slots: usize,
    /// What a naive structure-of-arrays layout would charge per slot
    /// (uncompressed key + point + `Option` payload).
    naive_slot_bytes: usize,
}

impl Footprint {
    fn bytes_per_record(&self) -> f64 {
        self.heap_bytes as f64 / self.slots as f64
    }

    fn compression_ratio(&self) -> f64 {
        self.naive_slot_bytes as f64 / self.bytes_per_record()
    }
}

/// The committed memory budget: the compressed store must stay under this
/// many heap bytes per stored slot at the 1M-record bench scale. The CI
/// bench step fails if the packed format regresses past it (the naive
/// layout costs `naive_slot_bytes` = 40).
const BYTES_PER_RECORD_BUDGET: f64 = 20.0;

const QUERY_BOXES: usize = 24;
const KNN_QUERIES: usize = 24;
const KNN_K: usize = 10;
const KNN_WINDOW: usize = 16;
/// Blocks `knn_zone` decodes over the fixture's 24 queries — the count is
/// exact (the fixture is seeded), so this is a ratchet: a change that
/// decodes more fails, one that decodes fewer lowers it. 192 before the
/// block-at-a-time kernel (107 for the pre-zone-map kNN deleted in PR 23);
/// the candidate walk now decodes ≈ 2 blocks fewer per query and the
/// verification ball, which masks every block whose AABB meets it instead
/// of probing slots, ≈ 2 more — at half the time.
const KNN_ZONE_BLOCKS_DECODED_MAX: u64 = 194;
/// Likewise for `box_planner`: 275 (what holds a hit) before the kernel,
/// plus 21 blocks whose AABB meets a box without holding a hit — the
/// price of never hopping inside a block, paid back 7× in seeks.
const BOX_BLOCKS_DECODED_MAX: u64 = 296;
/// Seeks `box_planner` makes over the fixture's 24 boxes, exact like the
/// block counts: 1 191 before the kernel (the per-slot BIGMIN hop, deleted
/// with the other pre-zone-map scans in PR 23), 168 since.
const BOX_SEEKS_MAX: u64 = 168;

/// Builds the benchmark store: 1M bulk-loaded records plus 100k streamed
/// updates (1 in 10 a delete), left un-compacted so queries span a big
/// bottom run, several mid-size runs, and a warm memtable.
fn query_store(sc: &Scenario) -> ShardedSfcStore<2, u64, ZCurve<2>> {
    let z = ZCurve::over(sc.grid);
    let store = ShardedSfcStore::bulk_load(z, 1, sc.base.iter().copied());
    for updates in &sc.rounds {
        for (i, &(p, v)) in updates.iter().enumerate() {
            if i % 10 == 9 {
                store.delete(p);
            } else {
                store.insert(p, v);
            }
        }
    }
    store
}

/// Selective query boxes (side 16–40 cells: inside the planner's
/// decomposition cutoff) plus kNN query points.
fn selective_boxes(sc: &Scenario) -> (Vec<BoxRegion<2>>, Vec<Point<2>>) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4242);
    let max = (sc.grid.side() - 1) as u32;
    let boxes = (0..QUERY_BOXES)
        .map(|_| {
            let corner = sc.grid.random_cell(&mut rng);
            let size = rng.gen_range(16..40u32);
            BoxRegion::new(
                corner,
                Point::new([
                    (corner.coord(0) + size).min(max),
                    (corner.coord(1) + size).min(max),
                ]),
            )
        })
        .collect();
    let queries = (0..KNN_QUERIES)
        .map(|_| sc.grid.random_cell(&mut rng))
        .collect();
    (boxes, queries)
}

fn bench_query_paths(c: &mut Criterion, sc: &Scenario) -> QueryBench {
    // Every path below reads a snapshot: the same levels a live query
    // captures, with borrowed hits, so the timings compare scan paths and
    // not payload clones.
    let live = query_store(sc);
    let store = live.snapshot();
    // The store is quiescent from here on: its shape is the snapshot's.
    let run_lens = live.shard_run_lens().remove(0);
    let memtable_len = live.shard_memtable_lens()[0];
    let (boxes, knn_queries) = selective_boxes(sc);
    println!(
        "query benchmark store: {} live, runs {run_lens:?}, memtable {memtable_len}",
        store.len()
    );

    // Byte-identical results across every path, asserted before timing.
    // Summed per-path counters are recorded by name so paths can be added
    // or reordered without silently misattributing stats in the report.
    let triple = |e: &sfc_store::StoreEntryRef<'_, 2, u64>| (e.key, e.point, *e.payload);
    let mut stats: Vec<(&'static str, QueryStats)> = Vec::new();
    let record =
        |stats: &mut Vec<(&'static str, QueryStats)>, name: &'static str, s: &QueryStats| {
            match stats.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => total.add(s),
                None => {
                    let mut total = QueryStats::default();
                    total.add(s);
                    stats.push((name, total));
                }
            }
        };
    let index = store.to_index();
    for b in &boxes {
        let (want, _) = index.query_intervals(&b.curve_intervals(index.curve()));
        let (got, s) = store.query_box(b);
        assert_eq!(
            want.iter()
                .map(|e| (e.key, e.point, *e.payload))
                .collect::<Vec<_>>(),
            got.iter().map(triple).collect::<Vec<_>>(),
            "planner {b:?}"
        );
        record(&mut stats, "box_planner", &s);
    }
    let rows = rows_of(&index);
    for &q in &knn_queries {
        let want = knn_linear(&rows, q, KNN_K);
        let (got, s) = store.knn(q, KNN_K, KNN_WINDOW);
        assert_eq!(
            want,
            got.iter().map(triple).collect::<Vec<_>>(),
            "knn at {q}"
        );
        record(&mut stats, "knn_zone", &s);
    }
    println!("equivalence: planner = static index's raw interval walk, kNN = linear scan, byte-identical across {QUERY_BOXES} boxes / {KNN_QUERIES} queries");

    // The work comparison, in the units that cost time: `scanned` counts
    // filter lanes (64 per masked block), so it is printed, not gated.
    let of = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .expect("path recorded")
    };
    for (name, s) in &stats {
        println!(
            "{name:>20}: blocks_decoded {:>5}  seeks {:>5}  scanned {:>6}  reported {:>5}",
            s.blocks_decoded, s.seeks, s.scanned, s.reported
        );
    }
    // Ratchets on decoded blocks (byte-identity is asserted above).
    for (name, ceiling) in [
        ("knn_zone", KNN_ZONE_BLOCKS_DECODED_MAX),
        ("box_planner", BOX_BLOCKS_DECODED_MAX),
    ] {
        assert!(
            of(name).blocks_decoded <= ceiling,
            "{name} decoded {} blocks, the committed ceiling is {ceiling}",
            of(name).blocks_decoded
        );
    }
    // And the kernel's reason to exist: far fewer seeks than the per-slot
    // hop it replaced.
    assert!(
        of("box_planner").seeks <= BOX_SEEKS_MAX,
        "box_planner made {} seeks, the committed ceiling is {BOX_SEEKS_MAX}",
        of("box_planner").seeks
    );

    // Memory footprint of the compressed store vs the naive layout.
    let slots: usize = run_lens.iter().sum::<usize>() + memtable_len;
    let footprint = Footprint {
        heap_bytes: store.heap_bytes(),
        memtable_heap_bytes: live.shard_memtable_heap_bytes()[0],
        slots,
        naive_slot_bytes: std::mem::size_of::<CurveIndex>()
            + std::mem::size_of::<Point<2>>()
            + std::mem::size_of::<Option<u64>>(),
    };
    println!(
        "footprint: {} slots in {} heap bytes = {:.2} B/record ({:.2}x under the naive {} B/record); memtable holds {} of those bytes for {} entries",
        footprint.slots,
        footprint.heap_bytes,
        footprint.bytes_per_record(),
        footprint.compression_ratio(),
        footprint.naive_slot_bytes,
        footprint.memtable_heap_bytes,
        memtable_len
    );
    assert!(
        footprint.compression_ratio() >= 2.0,
        "compressed blocks must at least halve the naive footprint, got {:.2}x",
        footprint.compression_ratio()
    );
    assert!(
        footprint.bytes_per_record() <= BYTES_PER_RECORD_BUDGET,
        "bytes per record {:.2} exceeds the committed budget {BYTES_PER_RECORD_BUDGET}",
        footprint.bytes_per_record()
    );

    let mut group = c.benchmark_group("box_query_1m_selective");
    group.bench_function("planner", |bencher| {
        bencher.iter(|| {
            boxes
                .iter()
                .map(|b| black_box(store.query_box(b).0.len()))
                .sum::<usize>()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("knn_1m");
    group.bench_function("zone", |bencher| {
        bencher.iter(|| {
            knn_queries
                .iter()
                .map(|&q| black_box(store.knn(q, KNN_K, KNN_WINDOW).0.len()))
                .sum::<usize>()
        })
    });
    group.finish();

    // Decode-kernel scan throughput: a full k-way iteration touches every
    // block of every run through the unpack kernels. Throughput is
    // reported in *logical* bytes — the uncompressed key + point +
    // payload each visited slot represents — so the number is comparable
    // across format changes.
    let logical_slot_bytes = (std::mem::size_of::<CurveIndex>()
        + std::mem::size_of::<Point<2>>()
        + std::mem::size_of::<u64>()) as u64;
    let mut group = c.benchmark_group("scan_throughput_1m");
    group.throughput(criterion::Throughput::Bytes(
        slots as u64 * logical_slot_bytes,
    ));
    group.bench_function("full_iter", |bencher| {
        bencher.iter(|| black_box(store.iter().count()))
    });
    group.finish();

    QueryBench {
        records: criterion::take_records(),
        stats,
        footprint,
    }
}

/// The committed instrumentation budget: attaching an [`EngineMetrics`]
/// to a store must not slow ingest by more than this factor. The gate
/// times the instrumented and uninstrumented runs of an identical
/// workload interleaved ([`interleaved_ratio`] over [`OVERHEAD_ROUNDS`]
/// rounds), so a slow spell of the box hits both sides of a round alike.
const INSTRUMENTATION_OVERHEAD_BUDGET: f64 = 1.05;

const OVERHEAD_OPS: usize = 50_000;

/// Rounds of the interleaved overhead gate, one fresh-store ingest per
/// side per round (≈ 50 ms each).
const OVERHEAD_ROUNDS: usize = 31;

/// Ingest-overhead A/B: the same fresh-store workload (50k upserts
/// through memtable flushes and compactions) with and without metrics
/// attached — a criterion group for the trajectory, and the gated
/// interleaved ratio (instrumented ÷ uninstrumented), returned beside
/// the instrumented run's [`EngineMetrics`] so the report can embed a
/// real registry snapshot; counters accumulate across iterations, which
/// is exactly the multi-run stress the JSON dump should show. The store
/// the query paths ran on is returned too: the snapshot's level gauges
/// read it, and a dropped store's gauges read 0.
fn bench_metrics_overhead(
    c: &mut Criterion,
    sc: &Scenario,
) -> (Arc<EngineMetrics>, ShardedSfcStore<2, u64, ZCurve<2>>, f64) {
    let z = ZCurve::over(sc.grid);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
    let ops: Vec<(Point<2>, u64)> = (0..OVERHEAD_OPS)
        .map(|i| (sc.grid.random_cell(&mut rng), i as u64))
        .collect();
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = EngineMetrics::for_shards(registry, 1);

    let ingest = |metrics: Option<&Arc<EngineMetrics>>| {
        let mut store = ShardedSfcStore::with_memtable_capacity(z, 1, 4096);
        if let Some(m) = metrics {
            store.attach_metrics(m.clone());
        }
        for &(p, v) in &ops {
            store.insert(p, v);
        }
        black_box(store.len())
    };
    let mut group = c.benchmark_group("metrics_overhead");
    group.bench_function("ingest_uninstrumented", |bencher| {
        bencher.iter(|| ingest(None))
    });
    group.bench_function("ingest_instrumented", |bencher| {
        bencher.iter(|| ingest(Some(&metrics)))
    });
    group.finish();
    let overhead = interleaved_ratio(
        OVERHEAD_ROUNDS,
        || {
            ingest(None);
        },
        || {
            ingest(Some(&metrics));
        },
    );

    // Run the query paths once through an instrumented store so the
    // registry snapshot in the report carries real query metrics (and a
    // slow-query trace or two) alongside the ingest counters.
    let mut store = ShardedSfcStore::bulk_load(z, 1, ops.iter().copied());
    store.attach_metrics(metrics.clone());
    metrics.set_slow_query_threshold(std::time::Duration::from_micros(100));
    let (boxes, knn_queries) = selective_boxes(sc);
    for b in &boxes {
        black_box(store.query_box(b).0.len());
    }
    for &q in &knn_queries {
        black_box(store.knn(q, KNN_K, KNN_WINDOW).0.len());
    }
    (metrics, store, overhead)
}

/// The ≤5% instrumentation gate CI runs on every release bench, on the
/// interleaved ratio; the criterion groups' `min_ns` ratio is printed
/// beside it, ungated. Returns both, gated first.
fn assert_overhead_gate(all_records: &[criterion::BenchRecord], interleaved: f64) -> (f64, f64) {
    let min = |name: &str| {
        all_records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
            .expect("overhead bench recorded")
    };
    let criterion_min =
        min("metrics_overhead/ingest_instrumented") / min("metrics_overhead/ingest_uninstrumented");
    println!(
        "instrumentation overhead: {interleaved:.3}x interleaved (budget \
         {INSTRUMENTATION_OVERHEAD_BUDGET}), {criterion_min:.3}x by criterion min_ns (ungated)"
    );
    assert!(
        interleaved <= INSTRUMENTATION_OVERHEAD_BUDGET,
        "instrumented ingest is {interleaved:.3}x the uninstrumented baseline — \
         over the {INSTRUMENTATION_OVERHEAD_BUDGET} budget; a metrics-path \
         change has leaked onto the hot path"
    );
    (interleaved, criterion_min)
}

/// Rounds of `compact_ms`, each on a freshly built store.
const COMPACT_ROUNDS: usize = 15;

/// Median wall time, in ms, of one `compact()` of a freshly built 1-shard
/// store whose run stack is four runs of about 123 000, 32 000, 8 000 and
/// 2 000 records (oldest first; the three newer runs update and delete
/// cells of the older ones, 1 write in 4 a delete), over `COMPACT_ROUNDS`
/// rounds. Written ungated as `compaction.compact_ms`.
fn bench_compact() -> f64 {
    let grid = Grid::<2>::new(10).unwrap();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(53);
    let levels: Vec<Vec<(Point<2>, Option<u64>)>> = [1usize << 17, 1 << 15, 1 << 13, 1 << 11]
        .into_iter()
        .enumerate()
        .map(|(level, writes)| {
            (0..writes)
                .map(|i| {
                    let delete = level > 0 && i % 4 == 3;
                    (grid.random_cell(&mut rng), (!delete).then_some(i as u64))
                })
                .collect()
        })
        .collect();
    let mut ms: Vec<f64> = (0..COMPACT_ROUNDS)
        .map(|_| {
            let store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 1, 1 << 20);
            for level in &levels {
                for &(p, slot) in level {
                    match slot {
                        Some(v) => store.insert(p, v),
                        None => store.delete(p),
                    };
                }
                store.flush();
            }
            assert_eq!(store.shard_run_lens()[0].len(), 4, "a 4-run stack");
            let start = std::time::Instant::now();
            store.compact();
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(store.shard_run_lens()[0].len(), 1);
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    println!("compact_ms (4-run shard, median of {COMPACT_ROUNDS}): {median:.3}");
    median
}

criterion_group! {
    name = ingest_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ingest, bench_sharded_ingest, bench_concurrent_throughput, bench_memtable_ingest, bench_wal_ingest, bench_batch_ingest, bench_recovery_replay
}

fn stats_json(s: &QueryStats) -> String {
    format!(
        "{{\"seeks\": {}, \"scanned\": {}, \"reported\": {}, \"blocks_scanned\": {}, \"blocks_pruned\": {}, \"blocks_decoded\": {}, \"overscan\": {:.4}}}",
        s.seeks, s.scanned, s.reported, s.blocks_scanned, s.blocks_pruned, s.blocks_decoded, s.overscan()
    )
}

/// The durable-pipeline numbers `main` threads into the report: WAL
/// overhead, batched-vs-per-record ingest (durable + in-memory), and the
/// durable-bytes kernels.
struct PipelineRatios {
    wal: f64,
    acked: AckedWrite,
    batch_durable: f64,
    batch_in_memory: f64,
    durable_bytes: DurableBytes,
}

/// Writes `BENCH_store.json` at the workspace root: every benchmark's
/// median/min/max **and p50/p95/p99** nanoseconds, the summed per-path
/// `QueryStats` counters, a metrics-registry snapshot from the
/// instrumented run, the instrumentation-overhead ratio, and the headline
/// ratios. CI uploads the file so the perf trajectory is
/// tracked per commit.
fn write_report(
    all_records: &[criterion::BenchRecord],
    qb: &QueryBench,
    metrics: &EngineMetrics,
    (overhead_ratio, criterion_min_ratio): (f64, f64),
    memtable: &MemtableRatios,
    pipeline: &PipelineRatios,
    compact_ms: f64,
) {
    let median = |name: &str| {
        all_records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.median_ns)
    };
    let speedup = |plain: &str, new: &str| -> Option<f64> { Some(median(plain)? / median(new)?) };
    // An N-thread ratio on fewer than N CPUs measures the scheduler, not
    // the engine: it is written "unmeasured" (ROADMAP 6(a)).
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scaling = |group: &str, n: usize| {
        speedup(&format!("{group}_1"), &format!("{group}_{n}")).filter(|_| n <= nproc)
    };
    let mut report = BenchReport::new("store");
    report.section(
        "config",
        format!(
            "{{\"base_records\": {BASE}, \"updates\": {}, \"grid_k\": {GRID_K}, \"query_boxes\": {QUERY_BOXES}, \"knn_queries\": {KNN_QUERIES}, \"knn_k\": {KNN_K}}}",
            ROUNDS * UPDATES_PER_ROUND
        ),
    );
    report.results("results", all_records);
    report.object(
        "query_stats",
        qb.stats
            .iter()
            .map(|(name, s)| (name.to_string(), stats_json(s))),
    );
    let fp = &qb.footprint;
    report.section(
        "bytes_per_record",
        format!(
            "{{\"heap_bytes\": {}, \"memtable_heap_bytes\": {}, \"slots\": {}, \"compressed\": {:.3}, \"uncompressed\": {}, \"compression_ratio\": {:.3}, \"budget\": {BYTES_PER_RECORD_BUDGET}}}",
            fp.heap_bytes,
            fp.memtable_heap_bytes,
            fp.slots,
            fp.bytes_per_record(),
            fp.naive_slot_bytes,
            fp.compression_ratio()
        ),
    );
    // Registry snapshot from the instrumented overhead run: op counters,
    // latency percentiles, gauges — plus the engine-level overscan the
    // accumulated scanned/reported counters imply.
    let snap = metrics.registry().snapshot();
    let engine_overscan = QueryStats::overscan_ratio(
        snap.counter("engine.query.scanned").unwrap_or(0),
        snap.counter("engine.query.reported").unwrap_or(0),
    );
    report.section(
        "instrumentation",
        format!(
            "{{\"overhead_ratio\": {overhead_ratio:.4}, \"criterion_min_ratio\": {criterion_min_ratio:.4}, \"budget\": {INSTRUMENTATION_OVERHEAD_BUDGET}, \"engine_overscan\": {engine_overscan:.4}, \"slow_queries\": {}}}",
            metrics.slow_queries_admitted()
        ),
    );
    report.section("metrics", snap.to_json());
    report.numbers(
        "scan_throughput_gbps",
        4,
        all_records
            .iter()
            .filter_map(|r| Some((r.name.as_str(), Some(r.gb_per_sec()?)))),
    );
    let pairs = [
        (
            "multi_writer_scaling_2_vs_1",
            scaling("concurrent_throughput/writers", 2),
        ),
        (
            "multi_writer_scaling_4_vs_1",
            scaling("concurrent_throughput/writers", 4),
        ),
        (
            "multi_writer_scaling_8_vs_1",
            scaling("concurrent_throughput/writers", 8),
        ),
        // Memtable-swap ratios are min_ns-based (see the gate) so the
        // recorded value is the gated value.
        ("btree_vs_bptree_local_ratio", Some(memtable.local)),
        ("btree_vs_bptree_random_ratio", Some(memtable.random)),
        (
            "bptree_local_vs_random_ratio",
            Some(memtable.local_vs_random),
        ),
        (
            "memtable_engine_local_4_vs_1_writers",
            scaling("memtable_ingest/engine_local_writers", 4),
        ),
        // min_ns-based, same as the CI gate.
        ("durable_vs_in_memory_ingest_ratio", Some(pipeline.wal)),
        // min_ns-based, same as the ≥1.5x CI gate.
        ("batch_vs_record_ingest_ratio", Some(pipeline.batch_durable)),
        (
            "batch_vs_record_in_memory_ratio",
            Some(pipeline.batch_in_memory),
        ),
    ];
    report.numbers("speedups", 3, pairs);
    report.object("acked_write", pipeline.acked.members());
    let d = &pipeline.durable_bytes;
    report.numbers(
        "durable_bytes",
        3,
        [
            ("crc32c_gbps", d.crc32c_gbps),
            ("crc32c_gbps_gate", CRC32C_GBPS_GATE),
            ("run_encode_ns_per_record", d.run_encode_ns_per_record),
            ("run_load_ns_per_record", d.run_load_ns_per_record),
            ("run_file_bytes_per_record", d.run_file_bytes_per_record),
        ],
    );
    report.numbers("compaction", 3, [("compact_ms", Some(compact_ms))]);
    report.write();
    for (name, ratio) in pairs {
        if let Some(r) = ratio {
            println!("speedup {name}: {r:.2}x");
        }
    }
}

fn main() {
    let mut criterion = Criterion::default().sample_size(10);
    let sc = scenario();
    let qb = bench_query_paths(&mut criterion, &sc);
    let (metrics, _queried_store, interleaved_overhead) =
        bench_metrics_overhead(&mut criterion, &sc);
    ingest_benches();
    let durable_run = bench_durable_bytes(&mut criterion);
    let acked = bench_acked_write();
    let compact_ms = bench_compact();
    let mut all_records = qb.records.clone();
    all_records.extend(criterion::take_records());
    let overhead = assert_overhead_gate(&all_records, interleaved_overhead);
    let memtable = assert_memtable_gate(&all_records);
    let wal = assert_wal_gate(&all_records);
    let (batch_durable, batch_in_memory) = assert_batch_gate(&all_records);
    let durable_bytes = assert_durable_bytes_gate(&all_records, durable_run);
    let pipeline = PipelineRatios {
        wal,
        acked,
        batch_durable,
        batch_in_memory,
        durable_bytes,
    };
    write_report(
        &all_records,
        &qb,
        &metrics,
        overhead,
        &memtable,
        &pipeline,
        compact_ms,
    );
}
