//! Observability-layer integration tests.
//!
//! Seven angles on the `sfc-obs` + store instrumentation stack:
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

use proptest::prelude::*;
use rand::Rng;
use sfc_core::{Grid, Point, ZCurve};
use sfc_index::BoxRegion;
use sfc_integration::test_rng;
use sfc_obs::{Histogram, SUB_BITS};
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
