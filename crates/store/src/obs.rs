//! Engine instrumentation: per-shard operation metrics, query
//! accounting, and the slow-query trace log — the store-side wiring of
//! [`sfc_obs`].
//!
//! An [`EngineMetrics`] bundles cached handles into one
//! [`MetricsRegistry`]: a [`ShardMetrics`] per shard (write/maintenance
//! counters and latency histograms) plus engine-wide query metrics
//! (per-operation latency histograms and the [`QueryStats`] work counters
//! folded into registry counters). Attach one with
//! [`ShardedSfcStore::attach_metrics`](crate::ShardedSfcStore::attach_metrics)
//! or [`ShardedSfcStore::enable_metrics`](crate::ShardedSfcStore::enable_metrics);
//! an unattached store pays nothing (one `Option` check per operation).
//!
//! **Hot-path cost discipline.** A write increments striped counters —
//! a few relaxed atomics against a memtable insert that costs hundreds of
//! nanoseconds — and sets no gauge: the level gauges are *read at
//! snapshot*, from state the engine holds anyway (below). Wall-clock
//! timing of writes and point gets is *sampled* (one call in
//! [`DEFAULT_TIMING_SAMPLE`] takes the `Instant` pair; tune with
//! [`EngineMetrics::set_timing_sampling`]). Queries and maintenance are
//! µs-scale and timed unconditionally. The bench harness gates the
//! instrumented ingest path at ≤5% over the uninstrumented baseline.
//!
//! **Slow-query log.** Every timed query is offered to a bounded
//! [`SlowLog`]; queries at or above the threshold (default
//! [`DEFAULT_SLOW_QUERY_NS`]) retain a [`QueryTrace`] — what the query
//! measured as it ran: the interval count the router decomposed the box
//! into (none on Morton order, which skips by BIGMIN), the blocks the
//! levels pruned and decoded, `capture_ns` (snapshotting every shard's
//! memtable and pinning its epoch) and `decompose_ns` (box or kNN-ball
//! interval decomposition). Below the threshold the trace is never built.
//!
//! ## The registry's keys
//!
//! Every key the engine registers, with its unit and what writes it
//! (`<j>` is the shard index). *Sampled* timings are recorded for one
//! call in [`DEFAULT_TIMING_SAMPLE`]. A gauge *read at snapshot* is a
//! read function the registry calls ([`sfc_obs::MetricsRegistry::gauges`]):
//! a shard's four levels in one `mem` lock hold, `wal.segments` from the
//! commit queue's segment lists (it waits out a commit round in flight).
//! Each read function holds a `Weak` handle: once its store is dropped it
//! reads 0.
//!
//! | key | unit | written by |
//! |---|---|---|
//! | `engine.knn.ns` | ns histogram | every `knn` |
//! | `engine.maintenance.compactions` | count | a compaction on the maintenance thread |
//! | `engine.maintenance.errors` | count | a failed flush or compaction there (no caller to return it to) |
//! | `engine.maintenance.flushes` | count | a flush on the maintenance thread |
//! | `engine.maintenance.ticks` | count | every maintenance pass |
//! | `engine.query.blocks_decoded` | blocks | every query ([`QueryStats`]) |
//! | `engine.query.blocks_pruned` | blocks | every query |
//! | `engine.query.blocks_scanned` | blocks | every query |
//! | `engine.query.count` | count | every query |
//! | `engine.query.reported` | records | every query |
//! | `engine.query.scanned` | filter lanes | every query |
//! | `engine.query.seeks` | seeks | every query |
//! | `engine.query_box.ns` | ns histogram | every `query_box` |
//! | `engine.rebalance.count` | count | every `rebalance` |
//! | `engine.rebalance.ns` | ns histogram | every `rebalance` |
//! | `engine.slow_query.count` | count | a query admitted to the slow log |
//! | `shard<j>.compact.count` | count | every compaction |
//! | `shard<j>.compact.ns` | ns histogram | every compaction |
//! | `shard<j>.delete.count` | records | every write, its deletes |
//! | `shard<j>.delete.ns` | ns histogram | a write with no insert, sampled |
//! | `shard<j>.epoch_publish.count` | count | a flush, compaction or bottom-run install publishing runs |
//! | `shard<j>.flush.count` | count | every successful flush |
//! | `shard<j>.flush.ns` | ns histogram | every successful flush |
//! | `shard<j>.get.count` | count | every `get` |
//! | `shard<j>.get.ns` | ns histogram | a `get`, sampled |
//! | `shard<j>.insert.count` | records | every write, its inserts |
//! | `shard<j>.insert.ns` | ns histogram | a write with an insert, sampled |
//! | `shard<j>.live` | records | read at snapshot |
//! | `shard<j>.memtable.bytes` | bytes | read at snapshot |
//! | `shard<j>.memtable.len` | entries | read at snapshot |
//! | `shard<j>.persist.bytes` | bytes | a durable publish: run files written |
//! | `shard<j>.persist.ns` | ns histogram | a durable publish: run files written and synced, manifest entry replaced (flipped unless a rebalance defers it) |
//! | `shard<j>.runs` | runs | read at snapshot |
//! | `shard<j>.write.liveness.ns` | ns histogram | a write's run-stack liveness probes, sampled (`0`: the memtable held every key) |
//! | `wal.append.ns` | ns histogram | every WAL append: queue push, plus the durability wait of an acked write |
//! | `wal.bytes` | bytes | a commit round: framed bytes appended |
//! | `wal.fsync.ns` | ns histogram | a group commit: the fsync of every touched segment |
//! | `wal.group_size` | records histogram | a group commit: records it made durable |
//! | `wal.groups` | count | a group commit |
//! | `wal.groups.led` | count | a group commit a waiting writer or `sync` ran in its own thread |
//! | `wal.records` | records | a commit round: records appended |
//! | `wal.segments` | files | read at snapshot |
//! | `wal.segments.pruned` | files | the background thread's prunes |
//!
//! The `wal.*` keys are registered on every store and move only on a
//! durable one; `wal.segments` reads 0 in memory.

use std::fmt;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use sfc_index::QueryStats;

use crate::epoch::Shard;
use crate::wal::WalEngine;
use sfc_core::SpaceFillingCurve;
use sfc_obs::{Counter, Histogram, MetricsRegistry, Sampler, SlowEntry, SlowLog};

/// Default write/get timing decimation: one operation in this many gets
/// the `Instant` pair around it.
pub const DEFAULT_TIMING_SAMPLE: u64 = 64;

/// Default slow-query threshold in nanoseconds (1 ms).
pub const DEFAULT_SLOW_QUERY_NS: u64 = 1_000_000;

/// Retained slow-query entries before the ring evicts the oldest.
pub const SLOW_QUERY_LOG_CAPACITY: usize = 64;

/// Cached counter and histogram handles for one shard, named
/// `shard<j>.<metric>` in the owning registry (see the key table in the
/// module docs).
#[derive(Debug)]
pub struct ShardMetrics {
    pub(crate) inserts: Counter,
    pub(crate) deletes: Counter,
    pub(crate) gets: Counter,
    pub(crate) flushes: Counter,
    pub(crate) compactions: Counter,
    pub(crate) epoch_publishes: Counter,
    pub(crate) insert_ns: Histogram,
    pub(crate) delete_ns: Histogram,
    pub(crate) get_ns: Histogram,
    pub(crate) flush_ns: Histogram,
    pub(crate) compact_ns: Histogram,
    /// Part of `insert.ns` / `delete.ns`: the run probes of a sampled
    /// [`Shard::apply`](crate::epoch); an unsampled call pays one branch
    /// per probe.
    pub(crate) liveness_ns: Histogram,
    /// Part of `flush.ns` / `compact.ns`: bytes to disk rather than
    /// building runs. Empty on an in-memory store.
    pub(crate) persist_ns: Histogram,
    pub(crate) persist_bytes: Counter,
    pub(crate) sampler: Sampler,
}

impl ShardMetrics {
    fn register(registry: &MetricsRegistry, prefix: &str) -> Arc<Self> {
        let name = |metric: &str| format!("{prefix}.{metric}");
        Arc::new(ShardMetrics {
            inserts: registry.counter(&name("insert.count")),
            deletes: registry.counter(&name("delete.count")),
            gets: registry.counter(&name("get.count")),
            flushes: registry.counter(&name("flush.count")),
            compactions: registry.counter(&name("compact.count")),
            epoch_publishes: registry.counter(&name("epoch_publish.count")),
            insert_ns: registry.histogram(&name("insert.ns")),
            delete_ns: registry.histogram(&name("delete.ns")),
            get_ns: registry.histogram(&name("get.ns")),
            flush_ns: registry.histogram(&name("flush.ns")),
            compact_ns: registry.histogram(&name("compact.ns")),
            liveness_ns: registry.histogram(&name("write.liveness.ns")),
            persist_ns: registry.histogram(&name("persist.ns")),
            persist_bytes: registry.counter(&name("persist.bytes")),
            sampler: Sampler::new(DEFAULT_TIMING_SAMPLE),
        })
    }
}

/// Cached handles for the write-ahead log's group commit (see
/// [`crate::wal`]): registered by every [`EngineMetrics`] under the
/// `wal.` prefix, driven only when the store is durable.
#[derive(Debug)]
pub struct WalMetrics {
    pub(crate) records: Counter,
    pub(crate) bytes: Counter,
    pub(crate) groups: Counter,
    pub(crate) groups_led: Counter,
    pub(crate) prunes: Counter,
    pub(crate) append_ns: Histogram,
    pub(crate) fsync_ns: Histogram,
    pub(crate) group_size: Histogram,
}

impl WalMetrics {
    fn register(registry: &MetricsRegistry) -> Arc<Self> {
        Arc::new(WalMetrics {
            records: registry.counter("wal.records"),
            bytes: registry.counter("wal.bytes"),
            groups: registry.counter("wal.groups"),
            groups_led: registry.counter("wal.groups.led"),
            prunes: registry.counter("wal.segments.pruned"),
            append_ns: registry.histogram("wal.append.ns"),
            fsync_ns: registry.histogram("wal.fsync.ns"),
            group_size: registry.histogram("wal.group_size"),
        })
    }
}

/// Which query family an operation belongs to — selects the latency
/// histogram it reports into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryOp {
    Box,
    Knn,
}

/// The whole engine's cached metric handles: one [`ShardMetrics`] per
/// shard plus engine-wide query accounting and the slow-query log.
/// Cheaply shareable behind an `Arc`; every method takes `&self`.
#[derive(Debug)]
pub struct EngineMetrics {
    registry: Arc<MetricsRegistry>,
    shards: Vec<Arc<ShardMetrics>>,
    query_count: Counter,
    slow_count: Counter,
    box_ns: Histogram,
    knn_ns: Histogram,
    q_seeks: Counter,
    q_scanned: Counter,
    q_reported: Counter,
    q_blocks_scanned: Counter,
    q_blocks_pruned: Counter,
    q_blocks_decoded: Counter,
    rebalances: Counter,
    rebalance_ns: Histogram,
    wal: Arc<WalMetrics>,
    pub(crate) maintenance_ticks: Counter,
    pub(crate) maintenance_flushes: Counter,
    pub(crate) maintenance_compactions: Counter,
    maintenance_errors: Counter,
    slow: SlowLog<QueryTrace>,
}

impl EngineMetrics {
    /// Metrics for a [`ShardedSfcStore`](crate::ShardedSfcStore) with
    /// `parts` shards: one bundle per shard under `shard0`, `shard1`, …
    pub fn for_shards(registry: Arc<MetricsRegistry>, parts: usize) -> Arc<Self> {
        let shards = (0..parts)
            .map(|j| ShardMetrics::register(&registry, &format!("shard{j}")))
            .collect();
        Arc::new(EngineMetrics {
            query_count: registry.counter("engine.query.count"),
            slow_count: registry.counter("engine.slow_query.count"),
            box_ns: registry.histogram("engine.query_box.ns"),
            knn_ns: registry.histogram("engine.knn.ns"),
            q_seeks: registry.counter("engine.query.seeks"),
            q_scanned: registry.counter("engine.query.scanned"),
            q_reported: registry.counter("engine.query.reported"),
            q_blocks_scanned: registry.counter("engine.query.blocks_scanned"),
            q_blocks_pruned: registry.counter("engine.query.blocks_pruned"),
            q_blocks_decoded: registry.counter("engine.query.blocks_decoded"),
            rebalances: registry.counter("engine.rebalance.count"),
            rebalance_ns: registry.histogram("engine.rebalance.ns"),
            wal: WalMetrics::register(&registry),
            maintenance_ticks: registry.counter("engine.maintenance.ticks"),
            maintenance_flushes: registry.counter("engine.maintenance.flushes"),
            maintenance_compactions: registry.counter("engine.maintenance.compactions"),
            maintenance_errors: registry.counter("engine.maintenance.errors"),
            slow: SlowLog::new(
                SLOW_QUERY_LOG_CAPACITY,
                Duration::from_nanos(DEFAULT_SLOW_QUERY_NS),
            ),
            shards,
            registry,
        })
    }

    /// The registry all handles report into — snapshot/render/export it
    /// at any time without pausing the engine.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Number of per-shard bundles.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn shard(&self, j: usize) -> &Arc<ShardMetrics> {
        &self.shards[j]
    }

    /// The write-ahead-log handles (registered under `wal.*`; driven
    /// only when the store is durable).
    pub(crate) fn wal(&self) -> &Arc<WalMetrics> {
        &self.wal
    }

    /// Registers the level gauges as read functions (see the module
    /// docs): one per shard over `shards`, and `wal.segments` over `wal`
    /// (0 in memory). Each holds a `Weak` handle and reads 0 once the
    /// store is dropped.
    pub(crate) fn read_levels<const D: usize, T, C>(
        &self,
        shards: &Arc<[Shard<D, T, C>]>,
        wal: Option<&Arc<WalEngine>>,
    ) where
        T: Send + Sync + 'static,
        C: SpaceFillingCurve<D> + Clone + Send + Sync + 'static,
    {
        for j in 0..shards.len() {
            let names = ["memtable.len", "memtable.bytes", "live", "runs"];
            let weak = Arc::downgrade(shards);
            self.registry
                .gauges(names.map(|m| format!("shard{j}.{m}")), move || {
                    weak.upgrade()
                        .map_or([0; 4], |s| s[j].levels().map(|n| n as i64))
                });
        }
        let wal = wal.map(Arc::downgrade);
        self.registry.gauges(["wal.segments"], move || {
            let wal = wal.as_ref().and_then(Weak::upgrade);
            [wal.map_or(0, |e| e.committer.segment_count())]
        });
    }

    /// Changes the write/get timing decimation on every shard
    /// (0 disables timing, 1 times everything).
    pub fn set_timing_sampling(&self, every: u64) {
        for s in &self.shards {
            s.sampler.set_every(every);
        }
    }

    /// Replaces the slow-query threshold (default 1 ms).
    pub fn set_slow_query_threshold(&self, threshold: Duration) {
        self.slow.set_threshold(threshold);
    }

    /// The retained slow-query traces, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowEntry<QueryTrace>> {
        self.slow.entries()
    }

    /// Queries ever admitted to the slow log (including evicted ones).
    pub fn slow_queries_admitted(&self) -> u64 {
        self.slow.admitted()
    }

    /// Folds one finished query into the registry: the per-op latency
    /// histogram, the engine-wide work counters, and — if the query was
    /// slow — a trace built by `make_trace` (not evaluated otherwise).
    pub(crate) fn note_query(
        &self,
        op: QueryOp,
        start: Instant,
        stats: &QueryStats,
        make_trace: impl FnOnce(u64) -> QueryTrace,
    ) {
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.query_count.inc();
        match op {
            QueryOp::Box => &self.box_ns,
            QueryOp::Knn => &self.knn_ns,
        }
        .record(wall_ns);
        self.q_seeks.add(stats.seeks);
        self.q_scanned.add(stats.scanned);
        self.q_reported.add(stats.reported);
        self.q_blocks_scanned.add(stats.blocks_scanned);
        self.q_blocks_pruned.add(stats.blocks_pruned);
        self.q_blocks_decoded.add(stats.blocks_decoded);
        if self.slow.observe(wall_ns, || make_trace(wall_ns)) {
            self.slow_count.inc();
        }
    }

    /// Folds one background flush or compaction into the registry: `done`
    /// counts it if it succeeded, `engine.maintenance.errors` if not.
    pub(crate) fn note_maintenance(&self, done: &Counter, ok: bool) {
        if ok { done } else { &self.maintenance_errors }.inc();
    }

    /// Folds one rebalance into the registry.
    pub(crate) fn note_rebalance(&self, start: Instant) {
        self.rebalances.inc();
        self.rebalance_ns.record_since(start);
    }
}

/// One slow query's retained context: the operation, the intervals it
/// walked by, its phase times, the work counters and the wall time — all
/// measured by the query as it ran. Stored in the engine's slow-query
/// ring; render with `Display` or read the fields.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// The public entry point that ran (`"query_box"`, `"knn"`, …).
    pub op: &'static str,
    /// Cells in the query box, when the operation had one.
    pub volume: Option<u128>,
    /// Shards the trace spans.
    pub shards: Option<usize>,
    /// Curve intervals the query walked by: the box's (or the kNN
    /// ball's) decomposition.
    /// `None` means BIGMIN — a Morton-order box is never decomposed.
    pub intervals: Option<usize>,
    /// The query's work counters (seeks, overscan, blocks pruned and
    /// decoded — [`QueryStats::overscan`] gives the ratio directly).
    pub stats: QueryStats,
    /// Wall time in nanoseconds.
    pub wall_ns: u64,
    /// Time spent decomposing the box (or the kNN verification ball) into
    /// curve intervals — `query_box` and `knn` off Morton order; `None`
    /// where nothing is decomposed.
    pub decompose_ns: Option<u64>,
    /// Time spent capturing all shards (memtable snapshots + epoch pins)
    /// before the scan.
    pub capture_ns: Option<u64>,
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.op, sfc_obs::fmt_ns(self.wall_ns))?;
        if let Some(v) = self.volume {
            write!(f, " volume={v}")?;
        }
        if let Some(s) = self.shards {
            write!(f, " shards={s}")?;
        }
        match self.intervals {
            Some(n) => write!(f, " intervals={n}")?,
            None => write!(f, " intervals=-")?,
        }
        if let Some(ns) = self.decompose_ns {
            write!(f, " decompose={}", sfc_obs::fmt_ns(ns))?;
        }
        if let Some(ns) = self.capture_ns {
            write!(f, " capture={}", sfc_obs::fmt_ns(ns))?;
        }
        write!(
            f,
            " seeks={} scanned={} reported={} pruned={} decoded={}",
            self.stats.seeks,
            self.stats.scanned,
            self.stats.reported,
            self.stats.blocks_pruned,
            self.stats.blocks_decoded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knn_trace(stats: QueryStats, wall_ns: u64) -> QueryTrace {
        QueryTrace {
            op: "knn",
            volume: None,
            shards: Some(1),
            intervals: None,
            stats,
            wall_ns,
            decompose_ns: None,
            capture_ns: None,
        }
    }

    #[test]
    fn engine_metrics_register_expected_names() {
        let em = EngineMetrics::for_shards(Arc::new(MetricsRegistry::new()), 2);
        assert_eq!(em.shard_count(), 2);
        em.shard(0).inserts.inc();
        em.shard(1).inserts.add(2);
        let snap = em.registry().snapshot();
        assert_eq!(snap.counter("shard0.insert.count"), Some(1));
        assert_eq!(snap.counter("shard1.insert.count"), Some(2));
        assert_eq!(snap.counter("engine.query.count"), Some(0));
        assert!(snap.histogram("engine.query_box.ns").is_some());
    }

    #[test]
    fn note_query_folds_stats_and_feeds_slow_log() {
        let em = EngineMetrics::for_shards(Arc::new(MetricsRegistry::new()), 1);
        em.set_slow_query_threshold(Duration::ZERO); // everything is slow
        let stats = QueryStats {
            seeks: 2,
            scanned: 10,
            reported: 4,
            blocks_scanned: 3,
            blocks_pruned: 5,
            blocks_decoded: 1,
        };
        em.note_query(QueryOp::Knn, Instant::now(), &stats, |wall| {
            knn_trace(stats, wall)
        });
        let snap = em.registry().snapshot();
        assert_eq!(snap.counter("engine.query.count"), Some(1));
        assert_eq!(snap.counter("engine.query.scanned"), Some(10));
        assert_eq!(snap.counter("engine.slow_query.count"), Some(1));
        assert_eq!(snap.histogram("engine.knn.ns").unwrap().count(), 1);
        let slow = em.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].detail.op, "knn");
        assert_eq!(slow[0].detail.stats, stats);
    }

    #[test]
    fn fast_queries_never_build_a_trace() {
        let em = EngineMetrics::for_shards(Arc::new(MetricsRegistry::new()), 1);
        em.set_slow_query_threshold(Duration::from_secs(3600));
        em.note_query(QueryOp::Box, Instant::now(), &QueryStats::default(), |_| {
            unreachable!("fast query must not build its trace")
        });
        assert!(em.slow_queries().is_empty());
        assert_eq!(
            em.registry().snapshot().counter("engine.query.count"),
            Some(1)
        );
    }

    #[test]
    fn trace_display_is_readable() {
        let plan_trace = QueryTrace {
            op: "query_box",
            volume: Some(64),
            shards: Some(2),
            intervals: Some(9),
            stats: QueryStats::default(),
            wall_ns: 1_500,
            decompose_ns: Some(700),
            capture_ns: None,
        };
        let s = plan_trace.to_string();
        assert!(s.contains("query_box 1.5µs"));
        assert!(s.contains("intervals=9"));
        assert!(s.contains("shards=2"));
        assert!(s.contains("decompose=700ns"));
        assert!(!s.contains("capture="));
    }
}
