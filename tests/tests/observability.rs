//! Observability-layer integration tests.
//!
//! Nine angles on the `sfc-obs` + store instrumentation stack:
//!
//! * **Quantile accuracy** — proptests replay adversarial latency
//!   distributions (all-equal, bimodal, power-law) through the
//!   log-bucketed histogram and compare every reported quantile against
//!   the exact nearest-rank order statistic of the sorted samples. The
//!   histogram may never under-report, and may overshoot by at most one
//!   sub-bucket width (`2^-SUB_BITS` relative).
//! * **Wait-free recording** — writer threads hammer one shared
//!   histogram while a reader snapshots mid-flight; every snapshot must
//!   be internally consistent and the final one must account for every
//!   sample.
//! * **Engine accounting under concurrency** — a multi-writer run
//!   against an instrumented `ShardedSfcStore` whose per-shard op
//!   counters must sum to the driver's ground-truth totals, with the
//!   registry's JSON export validated structurally and numerically.
//! * **One histogram per read entry point** — `query_box` reports into
//!   `engine.query_box.ns`, `knn` into `engine.knn.ns`; no histogram
//!   outlives its method.
//! * **Write latency by kind** — a write call is timed into
//!   `shardN.delete.ns` when it holds no insert (a single delete, an
//!   all-delete batch slice) and into `shardN.insert.ns` otherwise.
//! * **Persist accounting** — a durable store's flushes and compactions
//!   report the time and bytes of their persist step (`shardN.persist.*`);
//!   an in-memory store reports none.
//! * **Who committed** — `wal.groups.led` counts the group commits a
//!   waiting writer ran in its own thread: all of them for a stream of
//!   acked writes, none for a stream nobody waits for.
//! * **Levels are read, not pushed** — the level gauges equal the
//!   store's shape after a flush whose persist failed, `wal.segments`
//!   equals the log files on disk, and a snapshot racing writers and
//!   flushes reads a state a shard held.
//! * **The registry is a schema** — one durable scenario registers only
//!   the keys the `obs` module's table lists, and writes all of them.

use proptest::prelude::*;
use rand::Rng;
use sfc_core::{Grid, Point, SpaceFillingCurve, ZCurve};
use sfc_index::BoxRegion;
use sfc_integration::test_rng;
use sfc_obs::{Histogram, MetricValue, RegistrySnapshot, SUB_BITS};
use sfc_store::{BatchOp, ShardedSfcStore, WalConfig};

/// Exact nearest-rank quantile of a sorted sample set — the reference
/// the histogram is judged against (same rank convention as
/// `HistogramSnapshot::quantile`).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Records `values` and checks min/max/count exactly and every standard
/// quantile against the never-under-report / bounded-overshoot contract.
fn assert_quantiles_track_reference(values: &[u64]) {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let s = h.snapshot();
    assert_eq!(s.count(), values.len() as u64);
    assert_eq!(s.bucket_total(), s.count());
    assert_eq!(s.min(), sorted[0]);
    assert_eq!(s.max(), *sorted.last().unwrap());
    for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
        let exact = exact_quantile(&sorted, q);
        let got = s.quantile(q);
        assert!(got >= exact, "q={q}: reported {got} < exact {exact}");
        assert!(
            got <= exact + (exact >> SUB_BITS) + 1,
            "q={q}: reported {got} overshoots exact {exact} by more than a sub-bucket"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degenerate distribution: every sample identical. Every quantile
    /// must collapse to that one value (the bucket-high estimate is
    /// clamped to the exact recorded max).
    #[test]
    fn all_equal_samples_have_exact_quantiles(value in 0u64..10_000_000, len in 1usize..400) {
        assert_quantiles_track_reference(&vec![value; len]);
    }

    /// Bimodal latency — a fast mode and a slow mode orders of magnitude
    /// apart, the classic shape that breaks mean-based reporting.
    #[test]
    fn bimodal_samples_keep_quantile_bounds(seed in any::<u64>(), len in 2usize..400) {
        let mut rng = test_rng(seed);
        let fast = rng.gen_range(1u64..2_000);
        let slow = rng.gen_range(1_000_000u64..50_000_000);
        let values: Vec<u64> = (0..len)
            .map(|_| {
                if rng.gen_range(0..10u32) < 9 {
                    fast + rng.gen_range(0..100u64)
                } else {
                    slow + rng.gen_range(0..10_000u64)
                }
            })
            .collect();
        assert_quantiles_track_reference(&values);
    }

    /// Power-law tail: most samples tiny, a few enormous — exercises
    /// buckets across many power-of-two blocks in one histogram.
    #[test]
    fn power_law_samples_keep_quantile_bounds(seed in any::<u64>(), len in 1usize..400) {
        let mut rng = test_rng(seed);
        let values: Vec<u64> = (0..len)
            .map(|_| {
                let magnitude = rng.gen_range(0u32..40);
                (1u64 << magnitude) + rng.gen_range(0..=(1u64 << magnitude))
            })
            .collect();
        assert_quantiles_track_reference(&values);
    }
}

/// Writer threads record disjoint known sample sets into one shared
/// histogram while a reader snapshots continuously. Mid-flight snapshots
/// must be internally consistent ("torn but monotone"); the final
/// snapshot must account for every sample with exact min/max and
/// monotone quantiles.
#[test]
fn concurrent_recorders_lose_no_samples() {
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 20_000;
    let h = Histogram::new();
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let h = h.clone();
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    // Spread across several power-of-two blocks, with a
                    // per-writer offset so every thread touches the same
                    // buckets as its peers (maximum contention).
                    h.record((i % 1_021) * 97 + w);
                }
            });
        }
        let h = h.clone();
        scope.spawn(move || {
            let mut last_count = 0u64;
            for _ in 0..200 {
                let s = h.snapshot();
                assert_eq!(
                    s.bucket_total(),
                    s.count(),
                    "snapshot buckets must sum to its count"
                );
                assert!(
                    s.count() >= last_count,
                    "sample count went backwards between snapshots"
                );
                last_count = s.count();
                if s.count() > 0 {
                    assert!(s.min() <= s.max());
                    let (p50, p90, p99, p999) = (s.p50(), s.p90(), s.p99(), s.p999());
                    assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
                    assert!(p999 <= s.max() + (s.max() >> SUB_BITS) + 1);
                }
            }
        });
    });
    let s = h.snapshot();
    assert_eq!(s.count(), WRITERS * PER_WRITER, "samples were lost");
    assert_eq!(s.bucket_total(), s.count());
    assert_eq!(s.min(), 0, "writer 0's first sample is 0");
    assert_eq!(s.max(), 1_020 * 97 + WRITERS - 1);
}

/// Minimal structural JSON validator: objects, strings, and numbers —
/// the full grammar the registry export uses. Returns the rest of the
/// input after one value, or panics with a position.
fn skip_json_value(s: &[u8], mut i: usize) -> usize {
    let ws = |s: &[u8], mut i: usize| {
        while i < s.len() && (s[i] as char).is_whitespace() {
            i += 1;
        }
        i
    };
    i = ws(s, i);
    assert!(i < s.len(), "truncated JSON at byte {i}");
    match s[i] {
        b'{' => {
            i += 1;
            i = ws(s, i);
            if s[i] == b'}' {
                return i + 1;
            }
            loop {
                i = ws(s, i);
                assert_eq!(s[i], b'"', "object key must be a string at byte {i}");
                i = skip_json_value(s, i);
                i = ws(s, i);
                assert_eq!(s[i], b':', "missing ':' at byte {i}");
                i = skip_json_value(s, i + 1);
                i = ws(s, i);
                match s[i] {
                    b',' => i += 1,
                    b'}' => return i + 1,
                    c => panic!("unexpected {:?} in object at byte {i}", c as char),
                }
            }
        }
        b'"' => {
            i += 1;
            while s[i] != b'"' {
                i += if s[i] == b'\\' { 2 } else { 1 };
            }
            i + 1
        }
        b'-' | b'0'..=b'9' => {
            i += 1;
            while i < s.len() && matches!(s[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                i += 1;
            }
            i
        }
        c => panic!("unexpected {:?} at byte {i}", c as char),
    }
}

/// Pulls a named integer field out of the flat registry JSON.
fn json_counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let at = json.find(&key).unwrap_or_else(|| panic!("{name} missing"));
    json[at + key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("counter field must be an integer")
}

/// Multi-writer stress against an instrumented sharded store: the
/// per-shard op counters in the registry must sum to the driver's
/// ground-truth totals, and the JSON export must be structurally valid
/// with the same numbers in it.
#[test]
fn shard_counters_sum_to_driver_totals_under_concurrency() {
    const WRITERS: usize = 4;
    const INSERTS_PER_WRITER: u64 = 3_000;
    const DELETES_PER_WRITER: u64 = 500;
    const GETS_PER_WRITER: u64 = 800;
    const QUERIES: u64 = 32;

    let grid = Grid::<2>::new(6).unwrap(); // 64×64
    let z = ZCurve::over(grid);
    let mut store = ShardedSfcStore::with_memtable_capacity(z, WRITERS, 64);
    let metrics = store.enable_metrics();
    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            let store = &store;
            scope.spawn(move || {
                let mut rng = test_rng(0xB0B + w);
                for i in 0..INSERTS_PER_WRITER {
                    store.insert(grid.random_cell(&mut rng), w * 1_000_000 + i);
                }
                for _ in 0..DELETES_PER_WRITER {
                    store.delete(grid.random_cell(&mut rng));
                }
                for _ in 0..GETS_PER_WRITER {
                    std::hint::black_box(store.get(grid.random_cell(&mut rng)));
                }
            });
        }
        let store = &store;
        scope.spawn(move || {
            let b = BoxRegion::new(Point::new([8, 8]), Point::new([40, 35]));
            for _ in 0..QUERIES {
                std::hint::black_box(store.query_box(&b).0.len());
            }
        });
    });

    let snap = metrics.registry().snapshot();
    let shard_sum = |metric: &str| -> u64 {
        (0..WRITERS)
            .map(|j| snap.counter(&format!("shard{j}.{metric}")).unwrap())
            .sum()
    };
    let writers = WRITERS as u64;
    assert_eq!(shard_sum("insert.count"), writers * INSERTS_PER_WRITER);
    assert_eq!(shard_sum("delete.count"), writers * DELETES_PER_WRITER);
    assert_eq!(shard_sum("get.count"), writers * GETS_PER_WRITER);
    assert!(shard_sum("flush.count") > 0, "64-cap memtables must flush");
    assert!(shard_sum("epoch_publish.count") >= shard_sum("flush.count"));
    assert_eq!(snap.counter("engine.query.count"), Some(QUERIES));
    // Gauges settle to the quiesced store's true shape.
    let live_sum: i64 = (0..WRITERS)
        .map(|j| snap.gauge(&format!("shard{j}.live")).unwrap())
        .sum();
    assert_eq!(live_sum as usize, store.len());

    // The JSON export parses and carries the same numbers.
    let json = snap.to_json();
    let end = skip_json_value(json.as_bytes(), 0);
    assert_eq!(json[end..].trim(), "", "trailing garbage after JSON value");
    let json_insert_sum: u64 = (0..WRITERS)
        .map(|j| json_counter(&json, &format!("shard{j}.insert.count")))
        .sum();
    assert_eq!(json_insert_sum, writers * INSERTS_PER_WRITER);
    assert_eq!(
        json_counter(&json, "engine.query.count"),
        QUERIES,
        "JSON export disagrees with snapshot accessor"
    );
}

/// One latency histogram per surviving read entry point, none for a
/// deleted one: a fresh registry has no `engine.query_bigmin.ns` or
/// `engine.query_intervals.ns`, and a `query_box` call and a `knn` call
/// each land in their own histogram and are traced under their own name.
#[test]
fn each_read_reports_into_its_own_histogram() {
    let grid = Grid::<2>::new(5).unwrap();
    let mut store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 2, 32);
    let metrics = store.enable_metrics();
    metrics.set_slow_query_threshold(std::time::Duration::ZERO);
    let fresh = metrics.registry().snapshot();
    for gone in ["query_bigmin", "query_intervals"] {
        assert!(fresh.histogram(&format!("engine.{gone}.ns")).is_none());
    }
    for name in ["query_box", "knn"] {
        let h = fresh.histogram(&format!("engine.{name}.ns"));
        assert_eq!(h.map(|h| h.count()), Some(0), "engine.{name}.ns");
    }
    let mut rng = test_rng(0x0b5);
    for i in 0..300u32 {
        store.insert(grid.random_cell(&mut rng), i);
    }
    let b = BoxRegion::new(Point::new([2, 3]), Point::new([12, 9]));
    let (hits, box_stats) = store.query_box(&b);
    assert_eq!(box_stats.reported as usize, hits.len());
    let snap = metrics.registry().snapshot();
    assert_eq!(snap.histogram("engine.query_box.ns").unwrap().count(), 1);
    assert_eq!(snap.histogram("engine.knn.ns").unwrap().count(), 0);
    let (_, knn_stats) = store.knn(Point::new([7, 7]), 3, 2);
    let snap = metrics.registry().snapshot();
    assert_eq!(snap.histogram("engine.query_box.ns").unwrap().count(), 1);
    assert_eq!(snap.histogram("engine.knn.ns").unwrap().count(), 1);
    assert_eq!(snap.counter("engine.query.count"), Some(2));
    let slow = metrics.slow_queries();
    assert_eq!(slow.len(), 2);
    assert_eq!(slow[0].detail.op, "query_box");
    assert_eq!(
        slow[0].detail.intervals, None,
        "Morton order skips by BIGMIN"
    );
    assert_eq!(slow[0].detail.stats, box_stats);
    assert_eq!(slow[1].detail.op, "knn");
    assert_eq!(slow[1].detail.stats, knn_stats);
}

/// Writes are timed by kind: a call that inserts nothing — one delete,
/// or a batch slice of deletes only — lands in `delete.ns`; any call
/// with an insert in it lands in `insert.ns`. Every call lands once.
#[test]
fn an_all_delete_batch_is_timed_as_a_delete() {
    let grid = Grid::<2>::new(4).unwrap();
    let mut store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 1, 1 << 10);
    let metrics = store.enable_metrics();
    metrics.set_timing_sampling(1);
    let cell = |i: u32| Point::new([i % 16, i / 16]);
    for i in 0..8 {
        store.insert(cell(i), i);
    }
    store.delete(cell(0));
    store.apply_batch(&[BatchOp::Delete(cell(1)), BatchOp::Delete(cell(2))]);
    store.apply_batch(&[BatchOp::Delete(cell(3))]);
    store.apply_batch(&[BatchOp::Delete(cell(4)), BatchOp::Insert(cell(9), 9)]);
    let snap = metrics.registry().snapshot();
    let timed = |name: &str| snap.histogram(name).unwrap().count();
    assert_eq!(
        timed("shard0.delete.ns"),
        3,
        "one delete, two all-delete batches"
    );
    assert_eq!(
        timed("shard0.insert.ns"),
        9,
        "eight inserts, one mixed batch"
    );
    assert_eq!(snap.counter("shard0.delete.count"), Some(5));
    assert_eq!(snap.counter("shard0.insert.count"), Some(9));
}

/// "Where did the flush go": on a durable store every flush, compaction
/// publish and bottom-run install reports the time and the bytes of its
/// persist step; an in-memory store reports none.
#[test]
fn persist_metrics_account_for_durable_flushes() {
    let dir = std::env::temp_dir().join(format!("sfc-obs-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let z = ZCurve::over(Grid::<2>::new(6).unwrap());
    let mut store =
        ShardedSfcStore::<2, u64, _>::open_durable(z, 1, 1 << 10, WalConfig::new(&dir)).unwrap();
    let metrics = store.enable_metrics();
    for round in 0..3u32 {
        for i in 0..100u32 {
            store.insert(Point::new([i % 64, (i / 64) + 2 * round]), u64::from(i));
        }
        store.flush();
    }
    let snap = metrics.registry().snapshot();
    let persists = snap.histogram("shard0.persist.ns").unwrap();
    assert_eq!(snap.counter("shard0.flush.count"), Some(3));
    assert_eq!(persists.count(), 3, "one persist per flush");
    assert!(persists.max() > 0);
    // Each flush wrote at least its own 100 payloads (12 B apiece).
    let flushed = snap.counter("shard0.persist.bytes").unwrap();
    assert!(flushed >= 3 * 100 * 12, "persist.bytes = {flushed}");
    assert!(
        persists.max() <= snap.histogram("shard0.flush.ns").unwrap().max(),
        "a persist is part of its flush"
    );
    store.compact();
    let snap = metrics.registry().snapshot();
    assert_eq!(snap.histogram("shard0.persist.ns").unwrap().count(), 4);
    assert!(snap.counter("shard0.persist.bytes").unwrap() > flushed);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let mut mem = ShardedSfcStore::<2, u64, _>::with_memtable_capacity(z, 1, 1 << 10);
    let metrics = mem.enable_metrics();
    mem.insert(Point::new([1, 1]), 1);
    mem.flush();
    let snap = metrics.registry().snapshot();
    assert_eq!(snap.counter("shard0.flush.count"), Some(1));
    assert_eq!(snap.histogram("shard0.persist.ns").unwrap().count(), 0);
    assert_eq!(snap.counter("shard0.persist.bytes"), Some(0));
}

/// What one flush of a fresh 1-shard durable store leaves on disk: the
/// root holds `MANIFEST` and `shard0/`, the shard its WAL segments and
/// exactly one run file, and `persist.bytes` counts that file's bytes.
#[test]
fn a_flush_leaves_the_manifest_and_one_run_file() {
    let dir = std::env::temp_dir().join(format!("sfc-obs-on-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let z = ZCurve::over(Grid::<2>::new(6).unwrap());
    let mut store =
        ShardedSfcStore::<2, u64, _>::open_durable(z, 1, 1 << 10, WalConfig::new(&dir)).unwrap();
    let metrics = store.enable_metrics();
    for i in 0..100u32 {
        store.insert(Point::new([i % 64, i / 64]), u64::from(i));
    }
    store.flush();
    let names = |d: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(&dir), ["MANIFEST", "shard0"]);
    let shard = names(&dir.join("shard0"));
    let runs: Vec<&String> = shard
        .iter()
        .filter(|n| n.starts_with("run-") && n.ends_with(".run"))
        .collect();
    assert_eq!(runs.len(), 1, "one run file: {shard:?}");
    assert!(
        shard
            .iter()
            .all(|n| n == runs[0] || n.starts_with("wal-") && n.ends_with(".log")),
        "nothing but WAL segments beside it: {shard:?}"
    );
    let run_bytes = std::fs::metadata(dir.join("shard0").join(runs[0]))
        .unwrap()
        .len();
    assert_eq!(
        metrics
            .registry()
            .snapshot()
            .counter("shard0.persist.bytes"),
        Some(run_bytes)
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// "Who fsynced my write": an acked write commits its own group, so a
/// single writer's acked stream is one led group per write; a stream
/// nobody waits for is committed `fsync_every` records at a time by the
/// log's background thread, and no caller leads anything.
#[test]
fn wal_groups_led_says_who_committed() {
    const EVERY: u32 = 64;
    let open = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("sfc-obs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let z = ZCurve::over(Grid::<2>::new(6).unwrap());
        let config = WalConfig::new(&dir).fsync_every(EVERY as usize);
        // Capacity beyond the test: no flush, so no prune, so every
        // round is a group commit.
        let mut store = ShardedSfcStore::<2, u64, _>::open_durable(z, 2, 1 << 12, config).unwrap();
        let metrics = store.enable_metrics();
        (dir, store, metrics)
    };
    let cell = |i: u32| Point::new([i % 64, i / 64]);

    let (dir, store, metrics) = open("led");
    for i in 0..200u32 {
        store.try_insert(cell(i), u64::from(i)).unwrap();
    }
    let snap = metrics.registry().snapshot();
    assert_eq!(snap.counter("wal.groups"), Some(200), "one group per ack");
    assert_eq!(
        snap.counter("wal.groups.led"),
        Some(200),
        "all by the writer"
    );
    assert_eq!(snap.histogram("wal.group_size").unwrap().max(), 1);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let (dir, store, metrics) = open("unled");
    let groups = || metrics.registry().snapshot().counter("wal.groups").unwrap();
    for burst in 0..3u32 {
        // Exactly one full group, then wait for it — no barrier — so the
        // next burst cannot ride along.
        for i in burst * EVERY..(burst + 1) * EVERY {
            store.insert_nosync(cell(i), u64::from(i));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while groups() <= u64::from(burst) {
            assert!(
                std::time::Instant::now() < deadline,
                "a full un-waited group was never committed"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
    let snap = metrics.registry().snapshot();
    assert_eq!(snap.counter("wal.groups"), Some(3));
    assert_eq!(snap.counter("wal.groups.led"), Some(0), "nobody waited");
    assert_eq!(snap.counter("wal.records"), Some(u64::from(3 * EVERY)));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh directory under the system temp dir, removed on drop.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("sfc-obs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Polls `met` every millisecond; panics naming `what` after 20 s.
fn wait_until(what: &str, mut met: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !met() {
        assert!(
            std::time::Instant::now() < deadline,
            "never happened: {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The `shard<j>.{runs, live, memtable.len}` gauges against the store's
/// own shape accessors.
fn assert_gauges_match_shape<C>(store: &ShardedSfcStore<2, u64, C>, snap: &RegistrySnapshot)
where
    C: SpaceFillingCurve<2> + Clone,
{
    let (lens, mems, runs) = (
        store.shard_lens(),
        store.shard_memtable_lens(),
        store.shard_run_lens(),
    );
    for j in 0..store.parts() {
        let gauge = |m: &str| snap.gauge(&format!("shard{j}.{m}")).unwrap() as usize;
        assert_eq!(gauge("runs"), runs[j].len(), "shard{j}.runs");
        assert_eq!(gauge("live"), lens[j], "shard{j}.live");
        assert_eq!(gauge("memtable.len"), mems[j], "shard{j}.memtable.len");
    }
}

/// A flush whose persist fails has still published its run and drained
/// the memtable: the gauges read that state, not the last one a write
/// reported. Removing the directory after five writes makes the inline
/// flush at the eighth write (capacity 8) fail on its first run file.
#[test]
fn gauges_read_the_state_a_failed_flush_left() {
    let tmp = TempDir::new("failed-flush");
    let z = ZCurve::over(Grid::<2>::new(4).unwrap());
    let mut store =
        ShardedSfcStore::<2, u64, _>::open_durable(z, 1, 8, WalConfig::new(&tmp.0)).unwrap();
    let metrics = store.enable_metrics();
    let cell = |i: u32| Point::new([i % 16, i / 16]);
    for i in 0..5 {
        store.try_insert(cell(i), u64::from(i)).unwrap();
    }
    std::fs::remove_dir_all(&tmp.0).unwrap();
    for i in 5..7 {
        store.try_insert(cell(i), u64::from(i)).unwrap();
    }
    let err = store.try_insert(cell(7), 7).unwrap_err();
    assert!(err.to_string().contains("run-000001.run"), "{err}");
    assert_eq!(
        store.shard_run_lens(),
        vec![vec![8]],
        "the run was published"
    );
    let snap = metrics.registry().snapshot();
    assert_gauges_match_shape(&store, &snap);
}

/// `wal-*.log` files under every shard directory of `dir`.
fn wal_files_on_disk(dir: &std::path::Path, parts: usize) -> i64 {
    (0..parts)
        .flat_map(|j| std::fs::read_dir(dir.join(format!("shard{j}"))).unwrap())
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .count() as i64
}

/// `wal.segments` is the number of log files on disk: the segments a
/// reopen inherits, a fresh one per shard written after it, none once a
/// flush's prune has reclaimed them all, and one again after a write.
#[test]
fn wal_segments_equal_the_log_files_on_disk() {
    let tmp = TempDir::new("segments");
    let z = ZCurve::over(Grid::<2>::new(6).unwrap());
    let open = || {
        ShardedSfcStore::<2, u64, _>::open_durable(z, 2, 1 << 12, WalConfig::new(&tmp.0)).unwrap()
    };
    // Both shards of the uniform split: the bottom half and the top half.
    let cell = |i: u32| Point::new([i % 64, 63 * (i % 2)]);
    {
        let store = open();
        for i in 0..40 {
            store.insert_nosync(cell(i), u64::from(i));
        }
        store.sync().unwrap();
    }
    let mut store = open();
    let metrics = store.enable_metrics();
    let segments = || metrics.registry().snapshot().gauge("wal.segments").unwrap();
    assert_eq!(wal_files_on_disk(&tmp.0, 2), 2, "one inherited per shard");
    assert_eq!(segments(), 2, "after the reopen");

    for i in 40..80 {
        store.insert_nosync(cell(i), u64::from(i));
    }
    store.sync().unwrap();
    assert_eq!(
        wal_files_on_disk(&tmp.0, 2),
        4,
        "inherited ones are not appended to"
    );
    assert_eq!(segments(), 4, "after writes and a sync");

    let pruned = || {
        let snap = metrics.registry().snapshot();
        snap.counter("wal.segments.pruned").unwrap()
    };
    store.flush();
    wait_until("the flush's prune reclaims all four", || pruned() == 4);
    assert_eq!(wal_files_on_disk(&tmp.0, 2), 0);
    assert_eq!(segments(), 0, "after the prune");

    store.try_insert(cell(80), 80).unwrap();
    assert_eq!(wal_files_on_disk(&tmp.0, 2), 1);
    assert_eq!(segments(), 1, "after one more write");
}

/// Writers insert distinct keys, two per shard, through capacity-32
/// inline flushes while a reader snapshots the registry: every snapshot
/// shows a state a shard held — its memtable entries are live records,
/// so `memtable.len` ≤ `live`, and no write deletes, so `live` never
/// falls — and at quiescence the gauges are the store's shape.
#[test]
fn level_gauges_read_a_state_the_shard_held_while_writers_race_flushes() {
    const PARTS: usize = 2;
    const WRITERS_PER_SHARD: u32 = 2;
    const PER_WRITER: u32 = 1_500;
    let z = ZCurve::over(Grid::<2>::new(7).unwrap());
    let mut store = ShardedSfcStore::with_memtable_capacity(z, PARTS, 32);
    let metrics = store.enable_metrics();
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..PARTS as u32 * WRITERS_PER_SHARD)
            .map(|w| {
                let store = &store;
                scope.spawn(move || {
                    let (shard, lane) = (w / WRITERS_PER_SHARD, w % WRITERS_PER_SHARD);
                    let first = store.partition().range(shard as usize).start;
                    for i in 0..PER_WRITER {
                        let key = first + u128::from(i * WRITERS_PER_SHARD + lane);
                        store.insert(z.point_of(key), u64::from(i));
                    }
                })
            })
            .collect();
        let reader = scope.spawn(|| {
            let mut last_live = [0i64; PARTS];
            loop {
                let finished = done.load(std::sync::atomic::Ordering::Relaxed);
                let snap = metrics.registry().snapshot();
                for (j, last) in last_live.iter_mut().enumerate() {
                    let gauge = |m: &str| snap.gauge(&format!("shard{j}.{m}")).unwrap();
                    let (len, live) = (gauge("memtable.len"), gauge("live"));
                    assert!(len <= live, "shard{j}: memtable.len {len} > live {live}");
                    assert!(live >= *last, "shard{j}: live fell from {last} to {live}");
                    *last = live;
                }
                if finished {
                    break;
                }
            }
        });
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().unwrap();
    });
    let expected = (WRITERS_PER_SHARD * PER_WRITER) as usize;
    assert_eq!(store.shard_lens(), vec![expected; PARTS]);
    assert!(
        store.shard_run_lens().iter().all(|r| !r.is_empty()),
        "flushes ran"
    );
    assert_gauges_match_shape(&store, &metrics.registry().snapshot());
}

/// Whether a captured value shows its key was ever written: a counter or
/// a histogram that counted something, a gauge that read a level.
fn written(value: &MetricValue) -> bool {
    match value {
        MetricValue::Counter(c) => *c > 0,
        MetricValue::Gauge(g) => *g != 0,
        MetricValue::Histogram(h) => h.count() > 0,
    }
}

/// The key patterns of the table in `sfc-store`'s `obs` module docs.
fn schema_keys() -> Vec<String> {
    let obs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates/store/src/obs.rs");
    std::fs::read_to_string(obs)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("//! | `"))
        .map(|l| l[..l.find('`').unwrap()].to_string())
        .collect()
}

/// `shard<j>.live` matches `shard0.live`, `shard12.live`, …
fn key_matches(pattern: &str, key: &str) -> bool {
    match pattern.split_once("<j>") {
        None => pattern == key,
        Some((head, tail)) => key
            .strip_prefix(head)
            .and_then(|k| k.strip_suffix(tail))
            .is_some_and(|j| !j.is_empty() && j.bytes().all(|b| b.is_ascii_digit())),
    }
}

/// The registry is a schema: one small durable scenario — acked and
/// un-acked writes, deletes, gets, box and kNN queries, flushes, a
/// compaction, a rebalance, background maintenance and finally a
/// maintenance flush that fails — registers only keys the `obs` table
/// lists and writes every key it lists.
#[test]
fn every_registry_key_is_in_the_schema_and_written() {
    let schema = schema_keys();
    assert_eq!(schema.len(), 43, "16 engine.*, 18 shard<j>.*, 9 wal.*");
    let tmp = TempDir::new("schema");
    let grid = Grid::<2>::new(6).unwrap();
    let config = WalConfig::new(&tmp.0).fsync_every(16);
    let z = ZCurve::over(grid);
    let mut store = ShardedSfcStore::open_durable(z, 2, 64, config).unwrap();
    let metrics = store.enable_metrics();
    metrics.set_timing_sampling(1);
    metrics.set_slow_query_threshold(std::time::Duration::ZERO);
    let store = std::sync::Arc::new(store);
    let mut snaps = Vec::new();
    let mut rng = test_rng(0x5c4e);
    for i in 0..300u64 {
        let p = grid.random_cell(&mut rng);
        if i.is_multiple_of(2) {
            store.try_insert(p, i).unwrap();
        } else {
            store.insert_nosync(p, i);
        }
    }
    for _ in 0..40 {
        store.try_delete(grid.random_cell(&mut rng)).unwrap();
        std::hint::black_box(store.get(grid.random_cell(&mut rng)));
    }
    store.sync().unwrap();
    snaps.push(metrics.registry().snapshot());
    store.flush();
    let b = BoxRegion::new(Point::new([3, 5]), Point::new([40, 33]));
    std::hint::black_box(store.query_box(&b));
    std::hint::black_box(store.knn(Point::new([20, 20]), 5, 4));
    store.compact();
    store.rebalance(1e-9);
    snaps.push(metrics.registry().snapshot());
    let counter = |name: &str| metrics.registry().snapshot().counter(name).unwrap();
    wait_until("a prune", || counter("wal.segments.pruned") > 0);

    let maintenance = sfc_store::MaintenanceConfig {
        interval: std::time::Duration::from_millis(1),
        compact_at_runs: 2,
    };
    store.start_maintenance(maintenance.clone());
    let mut i = 1_000u64;
    let mut write = |n: u64| {
        for _ in 0..n {
            store.insert_nosync(grid.random_cell(&mut rng), i);
            i += 1;
        }
    };
    wait_until("maintenance flushes and compacts", || {
        write(64);
        counter("engine.maintenance.compactions") > 0
    });
    store.stop_maintenance();
    // A maintenance flush that fails: flush and prune every segment, log
    // one record per shard into a fresh segment (no flush covers it, so no
    // prune takes it and the log never needs the directory again), remove
    // the directory, and fill a memtable for the thread to flush.
    store.flush();
    let segments = || metrics.registry().snapshot().gauge("wal.segments").unwrap();
    wait_until("every segment is pruned", || segments() == 0);
    let partition = store.partition();
    for j in 0..store.parts() {
        let first = z.point_of(partition.range(j).start);
        store.try_insert(first, j as u64).unwrap();
    }
    std::fs::remove_dir_all(&tmp.0).unwrap();
    store.start_maintenance(maintenance);
    write(256);
    wait_until("a maintenance flush fails", || {
        counter("engine.maintenance.errors") > 0
    });
    store.stop_maintenance();
    snaps.push(metrics.registry().snapshot());

    let mut unwritten: Vec<&String> = schema.iter().collect();
    for snap in &snaps {
        for (key, value) in &snap.entries {
            assert!(
                schema.iter().any(|p| key_matches(p, key)),
                "`{key}` is registered but not in the obs module's key table"
            );
            if written(value) {
                unwritten.retain(|p| !key_matches(p, key));
            }
        }
    }
    assert!(
        unwritten.is_empty(),
        "listed but never written: {unwritten:?}"
    );
}
