//! The concurrent sharded store: a `Partition` over curve-index ranges
//! routing `&self` writes to independently locked [`Shard`]s, with
//! epoch-published frozen state for lock-free readers.
//!
//! This is the bridge from the paper's partitioner to the serving layer:
//! the same curve-range [`Partition`] that balances work across processors
//! in SFC domain decomposition balances a keyspace across store shards —
//! and because curve-contiguous shards make concurrent writers land on
//! *disjoint* locks, the paper's locality argument is exactly what makes
//! the per-shard write locks contention-free. Each shard owns one
//! **half-open** curve-index range (`boundaries[j] .. boundaries[j+1]`)
//! and consists of a mutex-guarded memtable plus an atomically swapped
//! frozen run stack (see the [`epoch`](crate::epoch) module for the
//! publication protocol). One shard is the whole engine at `p = 1`. The
//! router above them
//!
//! * sends every upsert/delete to the shard owning the record's curve key
//!   under a shared [`RwLock`] read guard on the partition (counting the
//!   write in a fixed curve-index histogram with one relaxed atomic add —
//!   [`TrafficHistogram`]),
//! * answers every read from a **capture** of each shard — a microscopic
//!   lock to snapshot the memtable copy-on-write (nothing copied, nothing
//!   flushed) and pin the current epoch — scanned entirely lock-free by
//!   the route-and-append algorithms of [`ShardsView`], each shard
//!   streaming its hits into the result in shard order; a live
//!   query drops its captures when it returns, and
//!   [`snapshot`](ShardedSfcStore::snapshot) hands the same captures out
//!   as a [`ShardedSnapshot`],
//! * treats [`rebalance`](ShardedSfcStore::rebalance) as **stop the
//!   world**: it takes the partition's write guard (excluding every
//!   writer and router-level reader), flushes all shards, recomputes
//!   min-bottleneck boundaries from the drained traffic, and migrates
//!   records — after which concurrency resumes.
//!
//! **Lock order** (deadlock freedom): `partition RwLock → shard maint →
//! shard mem → { epoch cell | shard persist → manifest → commit queue }`
//! — the durable chain exists only on stores opened with
//! [`open_durable`](ShardedSfcStore::open_durable), and the
//! commit-queue mutex is the last lock on every path. Shards are only
//! ever locked in ascending index order when more than one is held
//! (migration), and only under the partition write guard.
//!
//! Because a live query's results cannot borrow from captures it drops,
//! the store returns **owned** [`StoreEntry`] values (payloads cloned per
//! reported hit, as the hit is found); a [`ShardedSnapshot`] hands out
//! borrowed [`StoreEntryRef`]s.

use std::fmt;
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::time::Instant;

use sfc_core::{CurveIndex, Point, SpaceFillingCurve};
use sfc_index::knn::{verification_radius, KnnQuery};
use sfc_index::{BoxRegion, CurveSkipper, QueryStats, SfcIndex};
use sfc_obs::MetricsRegistry;
use sfc_partition::{Partition, TrafficHistogram, TrafficWeights};

use crate::epoch::{Shard, WriteOp};
use crate::maintenance::{wait_tick, MaintenanceConfig, MaintenanceHandle};
use crate::obs::{EngineMetrics, QueryOp, QueryTrace};
use crate::snapshot::StoreSnapshot;
use crate::store::{
    sorted_unique_columns, BatchOp, StoreEntry, StoreEntryRef, DEFAULT_MEMTABLE_CAPACITY,
};
use crate::view::{rank_by_distance, HitSink, LevelsView, Overlay, RunColumns};
use crate::wal::{self, RecoveryStats, WalConfig, WalEngine, WalError, WalPayload, WalShard};

/// One query's hits, borrowed from the captures it ran against, and the
/// work it did.
type Hits<'a, const D: usize, T> = (Vec<StoreEntryRef<'a, D, T>>, QueryStats);

/// Nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a fan-out did before it scanned any level — noted only for a
/// live query with metrics attached, which builds its [`QueryTrace`]
/// from it.
#[derive(Default)]
struct Routed {
    intervals: Option<usize>,
    decompose_ns: Option<u64>,
}

/// The borrowed fan-out engine every multi-shard read runs on: a
/// partition plus one [`LevelsView`] per captured shard. Exactly as
/// [`LevelsView`] holds the streamed multi-level merge once, this holds
/// the route-and-append algorithms once — every participating shard
/// streams its hits into the caller's [`HitSink`] in shard order, which
/// is curve order.
struct ShardsView<'a, const D: usize, T, C: SpaceFillingCurve<D>> {
    curve: &'a C,
    partition: &'a Partition,
    shards: Vec<LevelsView<'a, D, T, C>>,
    /// Live records across the captures.
    live: usize,
}

impl<'a, const D: usize, T, C: SpaceFillingCurve<D> + Clone> ShardsView<'a, D, T, C> {
    /// The view over `shards` captured under `partition`.
    fn over(curve: &'a C, partition: &'a Partition, shards: &'a [StoreSnapshot<D, T, C>]) -> Self {
        Self {
            curve,
            partition,
            shards: shards.iter().map(StoreSnapshot::view).collect(),
            live: shards.iter().map(StoreSnapshot::len).sum(),
        }
    }

    /// The fan-out: every shard box `b` reaches scans it with its
    /// [`meeting`](CurveSkipper::meeting) share of `skip` and streams
    /// into `sink`, one after the other, through one merge scratch.
    fn fan_out<S: HitSink<'a, D, T>>(
        &self,
        b: &BoxRegion<D>,
        skip: &CurveSkipper<'_, D>,
        sink: &mut S,
    ) -> QueryStats {
        let mut overlay = Overlay::default();
        let mut stats = QueryStats::default();
        for (j, shard) in self.shards.iter().enumerate() {
            if let Some(share) = skip.meeting(&self.partition.range(j)) {
                stats.add(&shard.scan(b, &share, &mut overlay, sink));
            }
        }
        stats
    }

    /// The skipper of box `b` ([`CurveSkipper`]: BIGMIN on Morton order,
    /// the exact intervals on every other curve) — its decomposition
    /// timed and counted into `routed` when the caller asked and there
    /// was one.
    fn skipper(&self, b: &BoxRegion<D>, routed: Option<&mut Routed>) -> CurveSkipper<'a, D> {
        let start = routed.is_some().then(Instant::now);
        let skip = CurveSkipper::new(self.curve, b);
        if let (Some(routed), Some(start), Some(n)) = (routed, start, skip.intervals()) {
            routed.decompose_ns = Some(elapsed_ns(start));
            routed.intervals = Some(n);
        }
        skip
    }

    /// Box query through the block-at-a-time kernel with the box's
    /// [`skipper`](Self::skipper). A box reaching past the grid is
    /// clipped first.
    fn query_box<S: HitSink<'a, D, T>>(
        &self,
        b: &BoxRegion<D>,
        routed: Option<&mut Routed>,
        sink: &mut S,
    ) -> QueryStats {
        let Some(b) = b.clip_to_grid(self.curve.grid()) else {
            return QueryStats::default();
        };
        self.fan_out(&b, &self.skipper(&b, routed), sink)
    }

    /// Exact kNN. Live candidates are gathered into the shared top-k
    /// distance heap from the shard owning the query's key first — its
    /// levels hold the query's curve neighbours, so the k-th best is
    /// tight before any other shard is asked, and most of their levels
    /// then answer from their run AABBs alone (see
    /// [`LevelsView::knn_collect`]). The k-th best bounds the
    /// verification radius, and the Chebyshev ball is a box query like
    /// any other (its decomposition, off Morton order, is timed into
    /// `routed`); the `k` nearest of its hits go to `sink`. Captures
    /// that hold no live record answer with no hit and no work.
    fn knn<S: HitSink<'a, D, T>>(
        &self,
        q: Point<D>,
        k: usize,
        window: usize,
        routed: Option<&mut Routed>,
        sink: &mut S,
    ) -> QueryStats {
        if self.live == 0 {
            return QueryStats::default();
        }
        let key = self.curve.index_of(q);
        let query = KnnQuery { q, key, k, window };
        let home = self.partition.part_of(key);
        let mut stats = QueryStats::default();
        let radius = verification_radius(self.curve.grid(), k, |heap| {
            let others = (0..self.shards.len()).filter(|&j| j != home);
            for j in std::iter::once(home).chain(others) {
                self.shards[j].knn_collect(&query, heap, &mut stats);
            }
        });
        let ball = BoxRegion::chebyshev_ball(self.curve.grid(), q, radius);
        let mut hits = Vec::new();
        let ball_stats = self.fan_out(&ball, &self.skipper(&ball, routed), &mut hits);
        rank_ball((hits, ball_stats), stats, q, k, sink)
    }
}

/// Finishes a kNN: folds the verification ball's work into the candidate
/// walk's `stats` and hands the `k` nearest of the ball's hits to `sink`.
fn rank_ball<'a, const D: usize, T, S: HitSink<'a, D, T>>(
    (all, ball_stats): Hits<'a, D, T>,
    mut stats: QueryStats,
    q: Point<D>,
    k: usize,
    sink: &mut S,
) -> QueryStats {
    stats.add(&ball_stats);
    let nearest = rank_by_distance(all, q, k);
    stats.reported = nearest.len() as u64;
    nearest.into_iter().for_each(|entry| sink.hit(entry));
    stats
}

/// The records of a [`ShardedSfcStore`] as of [`iter`](ShardedSfcStore::iter)'s
/// call, in curve order: the shard captures taken then, drained one
/// shard's worth of owned entries at a time. Borrows nothing from the
/// store.
pub struct ShardedIter<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    /// Captures of the shards not yet reached.
    caps: std::vec::IntoIter<StoreSnapshot<D, T, C>>,
    /// The current shard's entries.
    shard: std::vec::IntoIter<StoreEntry<D, T>>,
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> fmt::Debug for ShardedIter<D, T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIter")
            .field("shards_left", &self.caps.len())
            .finish_non_exhaustive()
    }
}

impl<const D: usize, T: Clone, C: SpaceFillingCurve<D> + Clone> Iterator for ShardedIter<D, T, C> {
    type Item = StoreEntry<D, T>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(entry) = self.shard.next() {
                return Some(entry);
            }
            let cap = self.caps.next()?;
            let entries: Vec<_> = cap.view().iter().map(|e| e.to_owned()).collect();
            self.shard = entries.into_iter();
        }
    }
}

/// A concurrently writable spatial store sharded by curve-index range —
/// the crate's one engine; `parts = 1` is the unsharded store.
///
/// The store maps each grid cell (equivalently, each curve key — the curve
/// is a bijection) to at most one live payload. All mutating operations
/// take `&self`: writes route through the partition's read guard to the
/// one shard owning the record's curve key and contend only with
/// same-shard writers; every read captures each shard (a microscopic
/// lock) and scans lock-free; `rebalance` is stop-the-world under the
/// partition's write guard. Against any quiesced state, results do not
/// depend on the shard count: an `N`-shard store answers byte-identically
/// to a 1-shard store holding the same records — as owned [`StoreEntry`]
/// values, since a live query drops the captures its hits would borrow
/// from. While writers are in flight, multi-shard reads carry the
/// per-shard-consistency caveat spelled out on
/// [`snapshot`](Self::snapshot): shards are captured in sequence, so a
/// racing writer's effects may appear in a later-captured shard and not
/// an earlier one. See the module docs for the architecture and lock
/// order.
pub struct ShardedSfcStore<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    curve: C,
    /// Shard `j` owns the half-open curve range `partition.range(j)`.
    /// Writers and router-level readers hold the read guard; `rebalance`
    /// holds the write guard — the explicit stop-the-world exclusion.
    partition: RwLock<Partition>,
    /// In an `Arc` so the level gauges' read functions can hold a `Weak`.
    shards: Arc<[Shard<D, T, C>]>,
    /// Writes per curve-index bucket since the last rebalance. Writers
    /// count under the partition's read guard and `rebalance` drains
    /// under its write guard, so every write lands in one epoch.
    traffic: TrafficHistogram,
    /// Engine-level metric handles, when observability is attached
    /// ([`ShardedSfcStore::attach_metrics`]); the per-shard bundles live
    /// inside the shards themselves.
    metrics: Option<Arc<EngineMetrics>>,
    /// Durability engine (commit queue + manifest state) when the
    /// store was opened with [`open_durable`](Self::open_durable).
    wal: Option<Arc<WalEngine>>,
    /// What the most recent [`open_durable`](Self::open_durable) did.
    recovery: Option<RecoveryStats>,
    /// Handle to the background maintenance thread, when running.
    maintenance: Mutex<Option<MaintenanceHandle>>,
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> fmt::Debug for ShardedSfcStore<D, T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSfcStore")
            .field("curve", &self.curve.name())
            .field("parts", &self.shards.len())
            .field(
                "boundaries",
                &self
                    .partition
                    .read()
                    .expect("partition poisoned")
                    .boundaries()
                    .to_vec(),
            )
            .field(
                "shard_lens",
                &self.shards.iter().map(Shard::live).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<const D: usize, T: Clone, C: SpaceFillingCurve<D> + Clone> ShardedSfcStore<D, T, C> {
    /// An empty store with `parts` shards over a keyspace-uniform
    /// partition and the default per-shard memtable capacity.
    pub fn new(curve: C, parts: usize) -> Self {
        Self::with_memtable_capacity(curve, parts, DEFAULT_MEMTABLE_CAPACITY)
    }

    /// An empty store with `parts` shards, each flushing its memtable at
    /// `capacity` entries.
    pub fn with_memtable_capacity(curve: C, parts: usize, capacity: usize) -> Self {
        let partition = Partition::uniform(curve.grid().n(), parts);
        let shards = (0..partition.parts())
            .map(|_| Shard::new(capacity))
            .collect();
        Self::assemble(curve, partition, shards, None, None)
    }

    /// Builds a store from a batch of records (uniform partition, one
    /// bulk-loaded bottom run per shard, built by the same sorted-column
    /// construction as [`SfcIndex::build`]). Records sharing a cell
    /// collapse newest-wins (later in the iterator = newer), matching the
    /// store's update semantics.
    ///
    /// # Panics
    /// Panics if `parts == 0` ([`Partition::uniform`] needs `p ≥ 1`, so
    /// the buckets below and the partition always agree on the count).
    pub fn bulk_load(
        curve: C,
        parts: usize,
        records: impl IntoIterator<Item = (Point<D>, T)>,
    ) -> Self {
        let partition = Partition::uniform(curve.grid().n(), parts);
        let mut buckets: Vec<Vec<(Point<D>, T)>> = (0..parts).map(|_| Vec::new()).collect();
        for (p, v) in records {
            let key = curve.index_of(p);
            buckets[partition.part_of(key)].push((p, v));
        }
        let shards = buckets
            .into_iter()
            .map(|bucket| {
                let columns = sorted_unique_columns(&curve, bucket);
                Shard::from_bottom_run(&curve, columns, DEFAULT_MEMTABLE_CAPACITY)
            })
            .collect();
        Self::assemble(curve, partition, shards, None, None)
    }

    /// Attaches observability: every shard gets its bundle from
    /// `metrics` (prefixes `shard0`, `shard1`, …), the router feeds the
    /// engine-level query metrics, and the level gauges become read
    /// functions over this store's shards, which read 0 once it is
    /// dropped — see the [`obs`](crate::obs) module docs. Takes
    /// `&mut self` because attachment happens before the store is shared
    /// across threads.
    ///
    /// # Panics
    /// Panics unless `metrics` was built for this shard count
    /// ([`EngineMetrics::for_shards`] with `parts()`), and if metrics
    /// were attached to this store before.
    pub fn attach_metrics(&mut self, metrics: Arc<EngineMetrics>)
    where
        T: Send + Sync + 'static,
        C: Send + Sync + 'static,
    {
        assert_eq!(
            metrics.shard_count(),
            self.shards.len(),
            "EngineMetrics must be built for this store's shard count"
        );
        let shards = Arc::get_mut(&mut self.shards).expect("metrics are attached once per store");
        for (j, shard) in shards.iter_mut().enumerate() {
            shard.set_metrics(metrics.shard(j).clone());
        }
        if let Some(engine) = &self.wal {
            engine.committer.set_metrics(metrics.wal().clone());
        }
        metrics.read_levels(&self.shards, self.wal.as_ref());
        self.metrics = Some(metrics);
    }

    /// Convenience [`attach_metrics`](Self::attach_metrics): builds a
    /// fresh registry and a matching [`EngineMetrics`], attaches it, and
    /// returns it (reach the registry via
    /// [`EngineMetrics::registry`]).
    pub fn enable_metrics(&mut self) -> Arc<EngineMetrics>
    where
        T: Send + Sync + 'static,
        C: Send + Sync + 'static,
    {
        let metrics =
            EngineMetrics::for_shards(Arc::new(MetricsRegistry::new()), self.shards.len());
        self.attach_metrics(metrics.clone());
        metrics
    }

    /// The curve backing this store.
    pub fn curve(&self) -> &C {
        &self.curve
    }

    /// The current shard partition (half-open curve-index ranges), as an
    /// owned copy — the live partition sits behind the router's lock.
    pub fn partition(&self) -> Partition {
        self.partition.read().expect("partition poisoned").clone()
    }

    /// Number of shards.
    pub fn parts(&self) -> usize {
        self.shards.len()
    }

    /// Live records per shard, in curve order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::live).collect()
    }

    /// Sizes of each shard's published immutable runs, oldest first
    /// (tombstones included).
    pub fn shard_run_lens(&self) -> Vec<Vec<usize>> {
        self.shards.iter().map(Shard::run_lens).collect()
    }

    /// Buffered (unflushed) memtable entries per shard.
    pub fn shard_memtable_lens(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::memtable_len).collect()
    }

    /// Heap bytes held by each shard's memtable structure (node slabs of
    /// the B+tree backing, free nodes included), in curve order — `O(1)`
    /// per shard. The per-shard `memtable.bytes` gauges read the same
    /// figures when metrics are attached.
    pub fn shard_memtable_heap_bytes(&self) -> Vec<usize> {
        self.shards.iter().map(Shard::memtable_heap_bytes).collect()
    }

    /// A copy of the writes counted since the last
    /// [`rebalance`](Self::rebalance): one `(bucket start, count)` entry
    /// per curve-index bucket written, at most 4 096 of them.
    pub fn traffic(&self) -> TrafficWeights {
        self.traffic.weights()
    }

    /// Total number of live records across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(Shard::live).sum()
    }

    /// `true` iff no shard holds a live record.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.live() == 0)
    }

    /// The live payload at cell `p`, if any — routed to the one shard
    /// owning the cell's curve key (newest version wins; one memtable
    /// probe plus at most one binary search per run). Returns an owned
    /// clone (the record itself lives behind the shard's lock).
    pub fn get(&self, p: Point<D>) -> Option<T> {
        if !self.curve.grid().contains(&p) {
            return None;
        }
        let key = self.curve.index_of(p);
        let part = self.partition.read().expect("partition poisoned");
        self.shards[part.part_of(key)].get(key)
    }

    /// All live records in curve order, as owned entries: a lazy k-way
    /// merge of each shard's memtable and runs, newest-wins, tombstones
    /// suppressed. Every shard is captured when the iterator is created —
    /// the captures are copy-on-write, so holding them costs nothing
    /// until a writer touches a shared leaf — and writes, flushes and
    /// compactions that happen while it is drained never show in it;
    /// entries are materialised one shard at a time. What a multi-shard
    /// capture may see of racing writers is spelled out on
    /// [`snapshot`](Self::snapshot), which hands the same captures out
    /// as a reusable borrowed view.
    pub fn iter(&self) -> ShardedIter<D, T, C> {
        let (_, caps) = self.capture_all();
        ShardedIter {
            caps: caps.into_iter(),
            shard: Vec::new().into_iter(),
        }
    }

    /// Captures every shard under the partition's read guard — one `mem`
    /// lock hold per shard, nothing flushed. The guard is released before
    /// any scanning happens.
    fn capture_all(&self) -> (Partition, Vec<StoreSnapshot<D, T, C>>) {
        let part = self.partition.read().expect("partition poisoned");
        let caps = self.shards.iter().map(Shard::capture).collect();
        (part.clone(), caps)
    }

    /// Freezes the store into an owned [`ShardedSnapshot`]: every shard is
    /// captured — its copy-on-write memtable image, its published run
    /// stack and its live count, under one hold of its `mem` lock — and
    /// nothing else happens: no flush, no run file or manifest written, no
    /// way to fail. After creation the snapshot never touches a lock
    /// again — readers keep querying the frozen state from any thread
    /// while writes, flushes, compactions and rebalances continue.
    ///
    /// **What a multi-shard capture sees.** Per shard it is atomic and
    /// complete: every write applied to a shard before that shard was
    /// captured is visible, none applied after is. Across shards it is
    /// not one instant: shards are captured in ascending order under the
    /// partition's read guard (which excludes rebalances, not writers),
    /// so of two writes racing this call, the one to a later-captured
    /// shard may be in and the one to an earlier-captured shard out, even
    /// if it was applied first — per-shard atomic batches can be seen in
    /// part the same way. Quiesce writers around the call when a single
    /// global linearization point is required. Every live read of this
    /// store ([`iter`](Self::iter), the queries) runs on such a capture.
    pub fn snapshot(&self) -> ShardedSnapshot<D, T, C> {
        let (partition, shards) = self.capture_all();
        ShardedSnapshot {
            curve: self.curve.clone(),
            partition,
            shards,
        }
    }

    /// The one live read path: capture every shard, run `query` against
    /// the borrowed fan-out view over the captures — the same
    /// [`ShardsView`] method a [`ShardedSnapshot`] runs — with a sink
    /// that clones each hit into an owned entry as it is found, and fold
    /// the query into the attached metrics (capture and decomposition
    /// are timed only then).
    fn read(
        &self,
        op: QueryOp,
        name: &'static str,
        volume: Option<u128>,
        query: impl for<'s> FnOnce(
            &ShardsView<'s, D, T, C>,
            Option<&mut Routed>,
            &mut Vec<StoreEntry<D, T>>,
        ) -> QueryStats,
    ) -> (Vec<StoreEntry<D, T>>, QueryStats) {
        let start = self.metrics.as_deref().map(|m| (m, Instant::now()));
        let (partition, caps) = self.capture_all();
        let capture_ns = start.map(|(_, start)| elapsed_ns(start));
        let view = ShardsView::over(&self.curve, &partition, &caps);
        let mut routed = Routed::default();
        let mut hits = Vec::new();
        let stats = query(&view, start.is_some().then_some(&mut routed), &mut hits);
        if let Some((m, start)) = start {
            m.note_query(op, start, &stats, |wall_ns| QueryTrace {
                op: name,
                volume,
                shards: Some(self.shards.len()),
                intervals: routed.intervals,
                stats,
                wall_ns,
                decompose_ns: routed.decompose_ns,
                capture_ns,
            });
        }
        (hits, stats)
    }

    /// Box query, fanned out to intersecting shards only. Every level
    /// runs the block-at-a-time kernel
    /// ([`box_scan`](sfc_index::box_scan)), which leaves an excursion out
    /// of the box by the curve's skipper ([`CurveSkipper`], built once at
    /// the router) — BIGMIN on Morton order (nothing precomputed), a
    /// binary search of the box's exact curve intervals on every other
    /// curve, each shard handed the part meeting its range — and levels whose
    /// key range or zone-map AABB cannot intersect the box are pruned.
    /// Each shard streams its newest-wins result straight into the
    /// returned vector. A box reaching past the grid is clipped to it.
    /// See the `view` module docs (`view.rs`) for the evidence behind
    /// the rules.
    pub fn query_box(&self, b: &BoxRegion<D>) -> (Vec<StoreEntry<D, T>>, QueryStats) {
        self.read(
            QueryOp::Box,
            "query_box",
            Some(b.volume()),
            |view, routed, out| view.query_box(b, routed, out),
        )
    }

    /// Exact k-nearest-neighbor query (Euclidean) over all shards. Live
    /// candidates are gathered per shard and per level around the query's
    /// key: per level and direction, the window covers at least `window`
    /// slots and **widens past tombstoned/shadowed slots** until `k` live
    /// candidates are bracketed (or the level is exhausted), so heavy
    /// deletes near `q` cannot collapse the candidate set and blow the
    /// verification ball up to the whole grid. The k-th best bounds the
    /// verification radius, and the Chebyshev ball is an ordinary
    /// [`query_box`](Self::query_box) whose hits are re-ranked. The shard
    /// owning `q`'s key is asked for candidates first; once `k` live ones
    /// are held, a further level is visited only if its AABB is nearer
    /// than the k-th best.
    ///
    /// # Panics
    /// Panics if `k == 0` or `q` lies outside the curve's grid.
    pub fn knn(&self, q: Point<D>, k: usize, window: usize) -> (Vec<StoreEntry<D, T>>, QueryStats) {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            self.curve.grid().contains(&q),
            "query point out of bounds: {q}"
        );
        self.read(QueryOp::Knn, "knn", None, |view, routed, out| {
            view.knn(q, k, window, routed, out)
        })
    }

    /// Inserts or updates the record at cell `p` (an *upsert*: the store
    /// holds one live record per cell; `&self`: concurrent writers to
    /// different shards never contend), routed to the owning shard;
    /// counts one write in the traffic histogram. Returns `true` if a
    /// live record was replaced.
    ///
    /// On a durable store this blocks for the group-commit ack — the
    /// write is both *applied* and *durable* when it returns (see
    /// [`try_insert`](Self::try_insert) for the acked-vs-applied
    /// contract) — and panics if the log has failed; use
    /// [`try_insert`](Self::try_insert) to handle [`WalError`] instead.
    pub fn insert(&self, p: Point<D>, payload: T) -> bool {
        self.try_insert(p, payload)
            .unwrap_or_else(|e| panic!("durable insert failed: {e}"))
    }

    /// Deletes the record at cell `p` (`&self`), routed to the owning
    /// shard, by writing a tombstone (an older run may still hold a
    /// version of the cell); counts one write in the traffic histogram.
    /// Returns `true` if a live record was removed.
    ///
    /// On a durable store this blocks for the group-commit ack and
    /// panics if the log has failed; use
    /// [`try_delete`](Self::try_delete) to handle [`WalError`] instead.
    pub fn delete(&self, p: Point<D>) -> bool {
        self.try_delete(p)
            .unwrap_or_else(|e| panic!("durable delete failed: {e}"))
    }

    /// [`insert`](Self::insert) with the durability failure surfaced.
    ///
    /// **Acked vs applied.** The write is *applied* — visible to queries
    /// and to subsequent writes — the moment the shard's memtable lock
    /// drops, and *acknowledged* (durable) only when the group fsync
    /// covering it completes — issued by this very call unless another
    /// writer's commit round is in flight; this call returns `Ok` after
    /// both. On `Err` the write **is applied but not acknowledged**: it
    /// remains visible in this process and may be lost by a crash. On an
    /// in-memory store there is no ack and this never fails.
    pub fn try_insert(&self, p: Point<D>, payload: T) -> Result<bool, WalError> {
        self.write_at(p, Some(payload), true)
    }

    /// [`delete`](Self::delete) with the durability failure surfaced —
    /// same acked-vs-applied contract as [`try_insert`](Self::try_insert)
    /// (an `Err` tombstone is applied but not acknowledged).
    pub fn try_delete(&self, p: Point<D>) -> Result<bool, WalError> {
        self.write_at(p, None, true)
    }

    /// [`insert`](Self::insert) without waiting for the durable ack: the
    /// frame is left on the commit queue and the call returns as soon as
    /// the write is applied. Pair with [`sync`](Self::sync) — the write
    /// is durable only once a later `sync` (or awaited write) returns
    /// `Ok`. Panics if the log has already failed (the sticky log
    /// error).
    pub fn insert_nosync(&self, p: Point<D>, payload: T) -> bool {
        self.write_at(p, Some(payload), false)
            .unwrap_or_else(|e| panic!("durable insert failed: {e}"))
    }

    /// [`delete`](Self::delete) without waiting for the durable ack; see
    /// [`insert_nosync`](Self::insert_nosync).
    pub fn delete_nosync(&self, p: Point<D>) -> bool {
        self.write_at(p, None, false)
            .unwrap_or_else(|e| panic!("durable delete failed: {e}"))
    }

    /// Routes one write (`None` = delete) to the shard owning `p`.
    fn write_at(&self, p: Point<D>, payload: Option<T>, wait: bool) -> Result<bool, WalError> {
        assert!(self.curve.grid().contains(&p), "record out of bounds: {p}");
        let key = self.curve.index_of(p);
        let part = self.partition.read().expect("partition poisoned");
        let j = part.part_of(key);
        self.traffic.record(key);
        Ok(self.shards[j].apply(&self.curve, [(key, p, payload)], wait)? > 0)
    }

    /// Applies a batch of upserts and deletes across shards, equivalent
    /// to issuing the ops one-by-one in slice order (for a cell written
    /// twice, the later op wins) but with the per-record costs
    /// amortised: the whole batch is routed under **one** partition
    /// read-guard acquisition, each shard's slice is stably sorted by
    /// curve index and applied under a **single** memtable-lock hold
    /// (the sorted keys ride the B+tree's last-leaf hint), and on a
    /// durable store each slice is logged as coalesced multi-record WAL
    /// frames — one commit-queue ticket and one checksum per frame.
    ///
    /// Durability: returns after one barrier covering every shard's
    /// frames, so the whole batch is durable on `Ok`. Crash atomicity is
    /// **per shard frame**: recovery replays each shard's slice
    /// all-or-nothing (a torn frame discards that slice's tail in one
    /// piece), but an unacked crash can persist one shard's slice and
    /// not another's — exactly the guarantee of issuing per-shard
    /// `sync`-less writes followed by one `sync`. Panics if the log has
    /// failed; use [`try_apply_batch`](Self::try_apply_batch) to handle
    /// [`WalError`].
    pub fn apply_batch(&self, ops: &[BatchOp<D, T>]) {
        self.try_apply_batch(ops)
            .unwrap_or_else(|e| panic!("durable batch apply failed: {e}"));
    }

    /// [`apply_batch`](Self::apply_batch) with the durability failure
    /// surfaced. An `Err` means some ops may be applied (visible to
    /// queries) but not acknowledged — the acked-vs-applied contract of
    /// [`try_insert`](Self::try_insert), batch-wide.
    pub fn try_apply_batch(&self, ops: &[BatchOp<D, T>]) -> Result<(), WalError> {
        self.apply_batch_at(ops)?;
        // One barrier instead of per-shard waits: every shard's frames
        // were accepted before this call, so the barrier covers them all.
        self.sync()
    }

    /// [`apply_batch`](Self::apply_batch) without waiting for the
    /// durable ack — the batch waits on the commit queue and is durable
    /// only once a later [`sync`](Self::sync) (or awaited write) returns
    /// `Ok`. Panics if the log has already failed.
    pub fn apply_batch_nosync(&self, ops: &[BatchOp<D, T>]) {
        self.apply_batch_at(ops)
            .unwrap_or_else(|e| panic!("durable batch apply failed: {e}"));
    }

    fn apply_batch_at(&self, ops: &[BatchOp<D, T>]) -> Result<(), WalError> {
        if ops.is_empty() {
            return Ok(());
        }
        // Key and validate before taking the guard.
        let keyed: Vec<(CurveIndex, &BatchOp<D, T>)> = ops
            .iter()
            .map(|op| {
                let p = op.point();
                assert!(self.curve.grid().contains(p), "record out of bounds: {p}");
                (self.curve.index_of(*p), op)
            })
            .collect();
        // One partition read-guard acquisition for the whole batch; held
        // across the shard applies so no rebalance can re-route a suffix
        // of the batch mid-way.
        let part = self.partition.read().expect("partition poisoned");
        let parts = part.parts();
        let mut buckets: Vec<Vec<WriteOp<D, T>>> = (0..parts).map(|_| Vec::new()).collect();
        for (key, op) in keyed {
            buckets[part.part_of(key)].push(match op {
                BatchOp::Insert(p, payload) => (key, *p, Some(payload.clone())),
                BatchOp::Delete(p) => (key, *p, None),
            });
        }
        for (j, mut bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // Stable sort: duplicate keys keep submission order, so the
            // last write to a cell lands last and wins.
            bucket.sort_by_key(|&(k, _, _)| k);
            // One histogram add per bucket the sorted slice touches.
            self.traffic.record_keys(bucket.iter().map(|&(k, _, _)| k));
            self.shards[j].apply(&self.curve, bucket, false)?;
        }
        Ok(())
    }

    /// The durability barrier: returns once every write accepted before
    /// this call is fsynced (by this call, for whatever is not yet —
    /// no group linger). The barrier for [`insert_nosync`](Self::insert_nosync) /
    /// [`delete_nosync`](Self::delete_nosync) streams; an immediate
    /// `Ok(())` on an in-memory store.
    pub fn sync(&self) -> Result<(), WalError> {
        match &self.wal {
            Some(engine) => engine.committer.sync(),
            None => Ok(()),
        }
    }

    /// Flushes every shard's memtable (each publishes a fresh epoch).
    /// On a durable store each flush also persists its runs and its
    /// manifest entry; panics if persistence fails (use
    /// [`try_flush`](Self::try_flush) to handle [`WalError`]).
    pub fn flush(&self) {
        self.try_flush()
            .unwrap_or_else(|e| panic!("durable flush failed: {e}"));
    }

    /// [`flush`](Self::flush) with the durability failure surfaced.
    pub fn try_flush(&self) -> Result<(), WalError> {
        let _part = self.partition.read().expect("partition poisoned");
        for shard in self.shards.iter() {
            shard.flush(&self.curve)?;
        }
        Ok(())
    }

    /// Major compaction of every shard (each collapses to a single
    /// tombstone-free run). Readers are never blocked: each shard's merge
    /// builds the next epoch off to the side and swaps it in whole.
    /// Panics if a durable store fails to persist the result (use
    /// [`try_compact`](Self::try_compact) to handle [`WalError`]).
    pub fn compact(&self) {
        self.try_compact()
            .unwrap_or_else(|e| panic!("durable compaction failed: {e}"));
    }

    /// [`compact`](Self::compact) with the durability failure surfaced.
    pub fn try_compact(&self) -> Result<(), WalError> {
        let _part = self.partition.read().expect("partition poisoned");
        for shard in self.shards.iter() {
            shard.compact(&self.curve)?;
        }
        Ok(())
    }

    /// Recomputes the shard boundaries with the sparse min-bottleneck
    /// partitioner over the writes counted per curve-index bucket since
    /// the last rebalance (so every new boundary is a bucket start), and
    /// migrates records to their new shards. Returns `true` if the
    /// boundaries changed (a no-op rebalance keeps every shard
    /// untouched).
    ///
    /// This is the store's one **stop-the-world** operation: it holds the
    /// partition's write guard for its whole duration, excluding every
    /// writer and router-level reader (outstanding [`ShardedSnapshot`]s
    /// keep serving, untouched). The observed weights are consumed either
    /// way: each rebalance reacts to the traffic of its own epoch.
    ///
    /// Shards whose range is unchanged are kept as-is (run stacks and
    /// all); only records in shards whose range moved are gathered and
    /// redistributed as pre-sorted bottom runs — no re-sorting or
    /// re-encoding.
    pub fn rebalance(&self, rel_tol: f64) -> bool {
        let start = Instant::now();
        let mut part = self.partition.write().expect("partition poisoned");
        let traffic = self.traffic.drain();
        let new = traffic.partition_min_bottleneck(self.parts(), rel_tol);
        if new == *part {
            // No boundary moved: don't stall the world any longer — in
            // particular, don't force a flush + tiny-run publish on
            // every shard for nothing.
            return false;
        }
        // Everything into the epochs before migrating: memtables empty
        // from here on, so the changed-shard captures below are pure
        // run-stack walks and unchanged shards keep their state as-is.
        for shard in self.shards.iter() {
            shard
                .flush(&self.curve)
                .unwrap_or_else(|e| panic!("durable flush failed: {e}"));
        }
        // Stream the records of shards whose range moved, in curve order,
        // straight into the columns of the shard each now routes to (every
        // capture is read before any shard is replaced).
        let changed: Vec<bool> = (0..self.shards.len())
            .map(|j| new.range(j) != part.range(j))
            .collect();
        let mut columns: Vec<RunColumns<D, T>> = (0..self.shards.len())
            .map(|_| RunColumns::with_capacity(0))
            .collect();
        for (j, shard) in self.shards.iter().enumerate() {
            if !changed[j] {
                continue;
            }
            let cap = shard.capture();
            for e in cap.view().iter() {
                let to = new.part_of(e.key);
                debug_assert!(
                    changed[to],
                    "no migrated record may land in an unchanged shard"
                );
                columns[to].push((e.key, e.point, Some(e.payload.clone())));
            }
        }
        // Durable stores defer the per-install manifest flips: run files
        // are written here, but the root manifest — the single commit
        // point — is replaced once below, carrying the new boundaries
        // *and* every changed shard's entry together, so a crash
        // mid-rebalance rolls back to the consistent pre-rebalance cut.
        let defer = self.wal.is_some();
        for (j, columns) in columns.into_iter().enumerate().filter(|&(j, _)| changed[j]) {
            self.shards[j]
                .install_bottom_run(&self.curve, columns, defer)
                .unwrap_or_else(|e| panic!("durable rebalance install failed: {e}"));
        }
        if let Some(engine) = &self.wal {
            engine
                .commit_boundaries(new.boundaries().to_vec())
                .unwrap_or_else(|e| panic!("durable rebalance commit failed: {e}"));
        }
        *part = new;
        if let Some(m) = self.metrics.as_deref() {
            m.note_rebalance(start);
        }
        true
    }

    /// What the [`open_durable`](Self::open_durable) that produced this
    /// store did — `None` on an in-memory store.
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Consumes the store as a power cut would: the maintenance thread
    /// is stopped, then the commit queue is cut **without** draining it
    /// or issuing a final fsync — in-flight unacknowledged writes
    /// are abandoned exactly as a real crash abandons them. The
    /// directory can be reopened with [`open_durable`](Self::open_durable)
    /// afterwards; only acknowledged writes are guaranteed back. For the
    /// crash-recovery tests and anyone else rehearsing failure.
    pub fn simulate_crash(self) {
        self.stop_maintenance();
        if let Some(engine) = &self.wal {
            engine.committer.abort();
        }
        // The normal Drop runs next; shutdown after abort is a no-op.
    }
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> ShardedSfcStore<D, T, C> {
    /// The one place a store is put together: `shards` routed by
    /// `partition`, an empty traffic histogram, no metrics, no
    /// maintenance thread — in memory unless `wal` says otherwise.
    fn assemble(
        curve: C,
        partition: Partition,
        shards: Box<[Shard<D, T, C>]>,
        wal: Option<Arc<WalEngine>>,
        recovery: Option<RecoveryStats>,
    ) -> Self {
        Self {
            traffic: TrafficHistogram::new(curve.grid().n()),
            curve,
            partition: RwLock::new(partition),
            shards: shards.into(),
            metrics: None,
            wal,
            recovery,
            maintenance: Mutex::new(None),
        }
    }

    /// Stops the background maintenance thread (no-op if none is
    /// running) and restores inline capacity flushes on the writer
    /// paths. Called automatically on drop.
    pub fn stop_maintenance(&self) {
        let handle = self
            .maintenance
            .lock()
            .expect("maintenance handle poisoned")
            .take();
        if let Some(mut h) = handle {
            {
                let (lock, cv) = &*h.stop;
                *lock.lock().expect("maintenance stop signal poisoned") = true;
                cv.notify_all();
            }
            if let Some(join) = h.handle.take() {
                // The maintenance thread itself can drop the last strong
                // reference (its `Weak` upgrade raced the owner's drop);
                // it must not join itself.
                if join.thread().id() != std::thread::current().id() {
                    let _ = join.join();
                }
            }
            for shard in self.shards.iter() {
                shard.set_inline_flush(true);
            }
        }
    }
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> Drop for ShardedSfcStore<D, T, C> {
    /// Clean shutdown: stop maintenance, then drain every accepted
    /// append to disk before the log's thread exits (writes that
    /// were applied but not yet fsynced become durable — only
    /// [`simulate_crash`](Self::simulate_crash) abandons them).
    fn drop(&mut self) {
        self.stop_maintenance();
        if let Some(engine) = &self.wal {
            engine.committer.shutdown();
        }
    }
}

/// Opening a durable store. The payload must implement [`WalPayload`]
/// (the log's byte codec) — the one place the bound appears.
impl<const D: usize, T, C> ShardedSfcStore<D, T, C>
where
    T: WalPayload + Clone + Send + Sync + 'static,
    C: SpaceFillingCurve<D> + Clone + Send + Sync + 'static,
{
    /// Opens (or creates) a durable store rooted at `config.dir`: loads
    /// the run files the manifest names, replays the WAL
    /// tail into the memtables, garbage-collects debris from any
    /// interrupted flush or rebalance, and starts the group-commit
    /// thread. The shard boundaries come from the manifest (the last
    /// committed [`rebalance`](Self::rebalance) wins); a fresh directory
    /// starts uniform.
    ///
    /// Returns [`WalError::Mismatch`] if the directory holds a store
    /// with a different shard count, dimensionality, or curve domain,
    /// and [`WalError::Corrupt`] if referenced state is damaged (a torn
    /// log tail is *not* damage — see the [`wal`](crate::wal) module).
    pub fn open_durable(
        curve: C,
        parts: usize,
        capacity: usize,
        config: WalConfig,
    ) -> Result<Self, WalError> {
        assert!(parts >= 1, "need at least one shard");
        let recovered = wal::recover::<D, T, C>(&config, &curve, parts)?;
        let partition = Partition::from_boundaries(recovered.manifest.boundaries.clone());
        let logs = recovered.shards.iter().map(|s| s.log.clone()).collect();
        let committer = wal::Committer::spawn(&config, D as u8, logs);
        let engine = Arc::new(WalEngine::new(
            &config,
            D as u8,
            committer,
            recovered.manifest,
        ));
        let mut shards = Vec::with_capacity(parts);
        for (j, rs) in recovered.shards.into_iter().enumerate() {
            let runs = rs.runs.iter().map(|(r, _)| Arc::clone(r)).collect();
            let mut shard = Shard::recovered(
                &curve,
                capacity,
                runs,
                rs.epoch_live,
                rs.high_water,
                rs.records,
            );
            shard.set_wal(Arc::new(WalShard::new(
                j,
                wal::shard_dir(&config.dir, j),
                Arc::clone(&engine),
                rs.runs,
            )));
            shards.push(shard);
        }
        Ok(Self::assemble(
            curve,
            partition,
            shards.into_boxed_slice(),
            Some(engine),
            Some(recovered.stats),
        ))
    }
}

/// Background maintenance: a per-store thread owning size-triggered
/// flushes and tiered-compaction scheduling — see the
/// `maintenance` module.
impl<const D: usize, T, C> ShardedSfcStore<D, T, C>
where
    T: Clone + Send + Sync + 'static,
    C: SpaceFillingCurve<D> + Clone + Send + Sync + 'static,
{
    /// Starts the background maintenance thread and turns off inline
    /// capacity flushes on the writer paths: from here until
    /// [`stop_maintenance`](Self::stop_maintenance) (or drop), writers
    /// never flush or merge — the thread polls every
    /// [`MaintenanceConfig::interval`], flushes shards at capacity, and
    /// compacts shards whose run stack reached
    /// [`MaintenanceConfig::compact_at_runs`]. Works on
    /// durable and in-memory stores alike. A flush or compaction that
    /// fails on the thread (a durable store whose disk does) is counted
    /// in `engine.maintenance.errors` and retried on a later tick.
    ///
    /// # Panics
    /// Panics if maintenance is already running.
    pub fn start_maintenance(self: &Arc<Self>, config: MaintenanceConfig) {
        let mut slot = self
            .maintenance
            .lock()
            .expect("maintenance handle poisoned");
        assert!(slot.is_none(), "maintenance thread already running");
        for shard in self.shards.iter() {
            shard.set_inline_flush(false);
        }
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let weak: Weak<Self> = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name("sfc-maintenance".into())
            .spawn(move || {
                loop {
                    if wait_tick(&thread_stop, config.interval) {
                        break;
                    }
                    // Weak: the thread must not keep a dropped store
                    // alive; the upgrade failing is the other stop
                    // signal.
                    let Some(store) = weak.upgrade() else { break };
                    store.maintenance_tick(&config, &thread_stop);
                }
            })
            .expect("spawn maintenance thread");
        *slot = Some(MaintenanceHandle {
            stop,
            handle: Some(handle),
        });
    }

    /// One maintenance pass over all shards, run by the background
    /// thread.
    fn maintenance_tick(&self, config: &MaintenanceConfig, stop: &crate::maintenance::StopSignal) {
        let m = self.metrics.as_deref();
        if let Some(m) = m {
            m.maintenance_ticks.inc();
        }
        // The read guard excludes rebalances (which flush for
        // themselves), never writers.
        let _part = self.partition.read().expect("partition poisoned");
        for shard in self.shards.iter() {
            if *stop.0.lock().expect("maintenance stop signal poisoned") {
                return;
            }
            if shard.over_capacity() {
                let flushed = shard.flush(&self.curve);
                if let Some(m) = m {
                    m.note_maintenance(&m.maintenance_flushes, flushed.is_ok());
                }
            }
            if shard.run_lens().len() >= config.compact_at_runs.max(2) {
                let compacted = shard.compact(&self.curve);
                if let Some(m) = m {
                    m.note_maintenance(&m.maintenance_compactions, compacted.is_ok());
                }
            }
        }
    }
}

/// A frozen, queryable view of a whole [`ShardedSfcStore`] as of
/// [`snapshot`](ShardedSfcStore::snapshot): one capture per shard (its
/// memtable image, run stack and live count) plus the partition that
/// routed them — the crate's one public snapshot type and its one read
/// type (a live query runs the same methods on captures it then drops,
/// and clones its hits). `Send + Sync` whenever the payload and curve are;
/// after creation it never touches a lock, so snapshot reads are
/// wait-free with respect to every writer. See
/// [`snapshot`](ShardedSfcStore::snapshot) for what a multi-shard capture
/// may see of racing writers.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    curve: C,
    partition: Partition,
    shards: Vec<StoreSnapshot<D, T, C>>,
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> ShardedSnapshot<D, T, C> {
    /// The curve backing this snapshot.
    pub fn curve(&self) -> &C {
        &self.curve
    }

    /// The shard partition at snapshot time.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Total number of live records visible in the snapshot.
    pub fn len(&self) -> usize {
        self.shards.iter().map(StoreSnapshot::len).sum()
    }

    /// `true` iff the snapshot holds no live records.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(StoreSnapshot::is_empty)
    }

    /// Bytes of heap memory behind the snapshot: every captured run's
    /// compressed blocks and dense payload column plus every captured
    /// memtable's node slabs (exact, `O(1)` per level). The per-record
    /// quotient is the `bytes_per_record` figure the benches track
    /// against the committed budget.
    pub fn heap_bytes(&self) -> usize {
        self.shards.iter().map(StoreSnapshot::heap_bytes).sum()
    }

    /// The live payload at cell `p` as of snapshot time, if any.
    pub fn get(&self, p: Point<D>) -> Option<&T> {
        if !self.curve.grid().contains(&p) {
            return None;
        }
        let key = self.curve.index_of(p);
        self.shards[self.partition.part_of(key)]
            .view()
            .version(key)
            .and_then(|v| v.map(|(_, t)| t))
    }

    /// All live records in curve order: per shard a lazy k-way merge of
    /// the memtable image and every run, newest-wins, tombstones
    /// suppressed; shard ranges are ascending and disjoint, so per-shard
    /// concatenation *is* the global curve order.
    pub fn iter(&self) -> impl Iterator<Item = StoreEntryRef<'_, D, T>> {
        self.shards.iter().flat_map(|shard| shard.view().iter())
    }

    /// Materialises the snapshot's live set into a static [`SfcIndex`]
    /// (columns built directly in key order — no re-sort). The result
    /// answers queries byte-identically to the snapshot itself.
    pub fn to_index(&self) -> SfcIndex<D, T, C>
    where
        T: Clone,
    {
        let mut columns = RunColumns::with_capacity(self.len());
        columns.extend(
            self.iter()
                .map(|e| (e.key, e.point, Some(e.payload.clone()))),
        );
        columns.into_index(&self.curve)
    }

    /// The borrowed fan-out view all queries run against.
    fn shards_view(&self) -> ShardsView<'_, D, T, C> {
        ShardsView::over(&self.curve, &self.partition, &self.shards)
    }

    /// Runs `query` against the fan-out view with a sink that keeps each
    /// hit as the borrowed entry it is found as.
    fn collect<'s>(
        &'s self,
        query: impl FnOnce(&ShardsView<'s, D, T, C>, &mut Vec<StoreEntryRef<'s, D, T>>) -> QueryStats,
    ) -> Hits<'s, D, T> {
        let mut hits = Vec::new();
        let stats = query(&self.shards_view(), &mut hits);
        (hits, stats)
    }

    /// Box query, fanned out to intersecting shards only — see
    /// [`ShardedSfcStore::query_box`].
    pub fn query_box(&self, b: &BoxRegion<D>) -> (Vec<StoreEntryRef<'_, D, T>>, QueryStats) {
        self.collect(|view, out| view.query_box(b, None, out))
    }

    /// Exact k-nearest-neighbor query over the frozen shards — see
    /// [`ShardedSfcStore::knn`].
    ///
    /// # Panics
    /// Panics if `k == 0` or `q` lies outside the curve's grid.
    pub fn knn(
        &self,
        q: Point<D>,
        k: usize,
        window: usize,
    ) -> (Vec<StoreEntryRef<'_, D, T>>, QueryStats) {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            self.curve.grid().contains(&q),
            "query point out of bounds: {q}"
        );
        self.collect(|view, out| view.knn(q, k, window, None, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use sfc_core::{Grid, HilbertCurve, ZCurve};
    use sfc_index::MortonSkipper;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    fn flat<const D: usize>(
        v: impl IntoIterator<Item = StoreEntry<D, u32>>,
    ) -> Vec<(CurveIndex, Point<D>, u32)> {
        v.into_iter().map(|e| (e.key, e.point, e.payload)).collect()
    }

    fn flat_ref<'a, const D: usize>(
        v: impl IntoIterator<Item = StoreEntryRef<'a, D, u32>>,
    ) -> Vec<(CurveIndex, Point<D>, u32)> {
        v.into_iter()
            .map(|e| (e.key, e.point, *e.payload))
            .collect()
    }

    /// Box `b` by the raw interval walk of the static index the snapshot
    /// materialises — a different algorithm from `query_box`.
    fn walk_ref<const D: usize, C: SpaceFillingCurve<D> + Clone>(
        snap: &ShardedSnapshot<D, u32, C>,
        b: &BoxRegion<D>,
    ) -> Vec<(CurveIndex, Point<D>, u32)> {
        let index = snap.to_index();
        let (hits, _) = index.query_intervals(&b.curve_intervals(snap.curve()));
        hits.into_iter()
            .map(|e| (e.key, e.point, *e.payload))
            .collect()
    }

    /// [`walk_ref`] on the store's live set.
    fn walk<const D: usize, C: SpaceFillingCurve<D> + Clone>(
        store: &ShardedSfcStore<D, u32, C>,
        b: &BoxRegion<D>,
    ) -> Vec<(CurveIndex, Point<D>, u32)> {
        walk_ref(&store.snapshot(), b)
    }

    /// One captured shard's own answer to box `b` with skipper `skip`, as
    /// the router would get it from that shard.
    fn shard_scan<'a, C: SpaceFillingCurve<2> + Clone>(
        shard: &'a StoreSnapshot<2, u32, C>,
        b: &BoxRegion<2>,
        skip: &CurveSkipper<'_, 2>,
    ) -> Hits<'a, 2, u32> {
        let mut hits = Vec::new();
        let stats = shard
            .view()
            .scan(b, skip, &mut Overlay::default(), &mut hits);
        (hits, stats)
    }

    /// Drives the same random workload into an `parts`-shard store and a
    /// 1-shard store, returning both.
    fn paired_stores(
        parts: usize,
        ops: usize,
        seed: u64,
    ) -> (
        ShardedSfcStore<2, u32, ZCurve<2>>,
        ShardedSfcStore<2, u32, ZCurve<2>>,
    ) {
        let grid = Grid::<2>::new(5).unwrap();
        let mut rng = rng(seed);
        let sharded = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), parts, 16);
        let single = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 1, 16);
        for i in 0..ops as u32 {
            let p = grid.random_cell(&mut rng);
            match i % 10 {
                0..=6 => {
                    assert_eq!(sharded.insert(p, i), single.insert(p, i), "insert({p})");
                }
                7..=8 => {
                    assert_eq!(sharded.delete(p), single.delete(p), "delete({p})");
                }
                _ => {
                    sharded.flush();
                    single.flush();
                }
            }
        }
        (sharded, single)
    }

    #[test]
    fn sharded_store_is_send_and_sync() {
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send_sync::<ShardedSfcStore<2, u32, ZCurve<2>>>();
        assert_send_sync::<ShardedSnapshot<2, u32, ZCurve<2>>>();
    }

    #[test]
    fn routed_writes_land_in_the_owning_shard() {
        let grid = Grid::<2>::new(3).unwrap();
        let store = ShardedSfcStore::new(ZCurve::over(grid), 4);
        assert_eq!(store.parts(), 4);
        let p = Point::new([7, 7]); // last cell → last shard
        store.insert(p, 9u32);
        assert_eq!(store.shard_lens(), vec![0, 0, 0, 1]);
        assert_eq!(store.get(p), Some(9));
        assert_eq!(store.len(), 1);
        assert!(store.delete(p));
        assert!(store.is_empty());
        assert_eq!(store.traffic().observed(), 1, "write weight recorded");
    }

    #[test]
    fn all_write_and_maintenance_ops_take_shared_self() {
        // The concurrency contract, statically: a shared reference is
        // enough for the full write/maintenance API.
        let grid = Grid::<2>::new(3).unwrap();
        let store = ShardedSfcStore::new(ZCurve::over(grid), 2);
        let by_ref: &ShardedSfcStore<2, u32, _> = &store;
        by_ref.insert(Point::new([1, 1]), 1);
        by_ref.delete(Point::new([1, 1]));
        by_ref.flush();
        by_ref.compact();
        let _snap = by_ref.snapshot();
        by_ref.rebalance(1e-9);
    }

    #[test]
    fn sharded_queries_are_byte_identical_to_single_store() {
        for parts in [1usize, 2, 3, 4, 7] {
            let (sharded, single) = paired_stores(parts, 800, 42 + parts as u64);
            assert_eq!(sharded.len(), single.len());
            assert_eq!(flat(sharded.iter()), flat(single.iter()), "iter");
            let grid = *sharded.curve();
            let mut rng = rng(99);
            for _ in 0..25 {
                let a = grid.grid().random_cell(&mut rng);
                let c = grid.grid().random_cell(&mut rng);
                let lo = Point::new([a.coord(0).min(c.coord(0)), a.coord(1).min(c.coord(1))]);
                let hi = Point::new([a.coord(0).max(c.coord(0)), a.coord(1).max(c.coord(1))]);
                let b = BoxRegion::new(lo, hi);
                assert_eq!(
                    walk(&sharded, &b),
                    walk(&single, &b),
                    "intervals, parts={parts}"
                );
                assert_eq!(
                    flat(sharded.query_box(&b).0),
                    flat(single.query_box(&b).0),
                    "box, parts={parts}"
                );
                let q = grid.grid().random_cell(&mut rng);
                for k in [1usize, 4] {
                    assert_eq!(
                        flat(sharded.knn(q, k, 3).0),
                        flat(single.knn(q, k, 3).0),
                        "knn k={k}, parts={parts}"
                    );
                }
                assert_eq!(sharded.get(q), single.get(q));
            }
        }
    }

    #[test]
    fn concurrent_writers_to_disjoint_shards_match_sequential_replay() {
        // 4 writer threads, each confined to one Z quadrant (= one shard
        // of the uniform 4-partition): the final state must equal a
        // sequential replay of the same per-thread op streams (disjoint
        // ranges ⇒ no cross-thread write conflicts to order).
        let grid = Grid::<2>::new(4).unwrap();
        let z = ZCurve::over(grid);
        let store = ShardedSfcStore::with_memtable_capacity(z, 4, 8);
        let replay = ShardedSfcStore::with_memtable_capacity(z, 1, 8);
        let ops_of = |quadrant: u32| -> Vec<(Point<2>, Option<u32>)> {
            let mut rng = rng(1000 + u64::from(quadrant));
            // Quadrant origin in Z order: [0,8)² tiles shifted.
            let (ox, oy) = [(0, 0), (8, 0), (0, 8), (8, 8)][quadrant as usize];
            (0..400u32)
                .map(|i| {
                    let p = Point::new([ox + rng.gen_range(0..8u32), oy + rng.gen_range(0..8u32)]);
                    if i % 5 == 4 {
                        (p, None)
                    } else {
                        (p, Some(quadrant * 1_000 + i))
                    }
                })
                .collect()
        };
        std::thread::scope(|scope| {
            for quadrant in 0..4u32 {
                let store = &store;
                let ops = ops_of(quadrant);
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
        });
        for quadrant in 0..4u32 {
            for (p, op) in ops_of(quadrant) {
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
        assert_eq!(store.len(), replay.len());
        assert_eq!(flat(store.iter()), flat(replay.iter()));
    }

    #[test]
    fn fan_out_skips_non_intersecting_shards() {
        let grid = Grid::<2>::new(4).unwrap();
        let store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 4, 8);
        let mut rng = rng(3);
        for i in 0..300u32 {
            store.insert(grid.random_cell(&mut rng), i);
        }
        // The first Z quadrant [0,8)² is exactly the first quarter of the
        // keyspace: a box inside it must not touch the other shards. The
        // snapshot holds the per-shard captures the router fans out to.
        let snap = store.snapshot();
        let b = BoxRegion::new(Point::new([0, 0]), Point::new([7, 7]));
        let (hits, stats) = snap.query_box(&b);
        let (single_hits, single_stats) =
            shard_scan(&snap.shards[0], &b, &CurveSkipper::new(snap.curve(), &b));
        assert_eq!(flat_ref(hits), flat_ref(single_hits));
        assert_eq!(stats.seeks, single_stats.seeks, "only shard 0 consulted");
        // The live store agrees with its own snapshot (a live query runs
        // on a capture of the same levels).
        let (live_hits, live_stats) = store.query_box(&b);
        assert_eq!(flat(live_hits), flat_ref(snap.query_box(&b).0));
        assert_eq!(live_stats.seeks, stats.seeks);
    }

    #[test]
    fn rebalance_follows_skewed_traffic() {
        let grid = Grid::<2>::new(4).unwrap();
        let store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 4, 16);
        let mut rng = rng(17);
        // Hammer the first Z quadrant: uniform boundaries leave shard 0
        // with nearly all the load.
        for i in 0..600u32 {
            let p = Point::new([rng.gen_range(0..8u32), rng.gen_range(0..8u32)]);
            store.insert(p, i);
        }
        // A bit of background traffic elsewhere.
        for i in 0..60u32 {
            store.insert(grid.random_cell(&mut rng), 10_000 + i);
        }
        let before = flat(store.iter());
        let skew_before: Vec<usize> = store.shard_lens();
        assert!(
            *skew_before.iter().max().unwrap() > store.len() / 2,
            "workload should be skewed before rebalance: {skew_before:?}"
        );
        assert!(store.rebalance(1e-9), "skewed traffic must move boundaries");
        // Contents are untouched and queries still agree.
        assert_eq!(flat(store.iter()), before, "rebalance lost records");
        let skew_after = store.shard_lens();
        assert!(
            *skew_after.iter().max().unwrap() < *skew_before.iter().max().unwrap(),
            "bottleneck shard should shrink: {skew_before:?} → {skew_after:?}"
        );
        // Writes keep routing correctly under the new boundaries.
        let p = Point::new([1, 2]);
        store.insert(p, 77_777);
        assert_eq!(store.get(p), Some(77_777));
        // Traffic was consumed; an immediate rebalance with no new
        // observations falls back to uniform boundaries (a real change
        // from the skewed cut, so it reports true) and still loses
        // nothing.
        let before = flat(store.iter());
        store.rebalance(1e-9);
        assert_eq!(flat(store.iter()), before);
    }

    #[test]
    fn rebalance_without_traffic_is_a_noop() {
        let grid = Grid::<2>::new(3).unwrap();
        let store: ShardedSfcStore<2, u32, _> = ShardedSfcStore::new(ZCurve::over(grid), 3);
        assert!(!store.rebalance(1e-9), "uniform → uniform: no change");
    }

    #[test]
    fn sharded_snapshot_freezes_all_shards() {
        let grid = Grid::<2>::new(4).unwrap();
        let store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 3, 8);
        let mut rng = rng(23);
        for i in 0..250u32 {
            store.insert(grid.random_cell(&mut rng), i);
        }
        let frozen = store.snapshot();
        let frozen_entries = flat_ref(frozen.iter());
        assert_eq!(frozen.len(), store.len());
        // Writer churns, compacts, and even rebalances.
        for i in 0..300u32 {
            let p = grid.random_cell(&mut rng);
            if i % 3 == 0 {
                store.delete(p);
            } else {
                store.insert(p, 5_000 + i);
            }
        }
        store.compact();
        store.rebalance(1e-9);
        assert_eq!(flat_ref(frozen.iter()), frozen_entries, "snapshot drifted");
        // Snapshot queries match a fresh query of the frozen contents.
        let b = BoxRegion::new(Point::new([2, 2]), Point::new([12, 9]));
        let want: Vec<_> = frozen_entries
            .iter()
            .filter(|&&(_, p, _)| b.contains(&p))
            .copied()
            .collect();
        assert_eq!(walk_ref(&frozen, &b), want);
        assert_eq!(flat_ref(frozen.query_box(&b).0), want);
        let q = Point::new([5, 5]);
        assert_eq!(flat_ref(frozen.knn(q, 3, 2).0), {
            let mut all = frozen_entries.clone();
            all.sort_by_key(|&(key, p, _)| (q.euclidean_sq(&p), key));
            all.truncate(3);
            all
        });
    }

    #[test]
    fn hilbert_sharded_store_works_without_bigmin() {
        let grid = Grid::<2>::new(4).unwrap();
        let mut rng = rng(31);
        let store = ShardedSfcStore::with_memtable_capacity(HilbertCurve::over(grid), 3, 8);
        let single = ShardedSfcStore::with_memtable_capacity(HilbertCurve::over(grid), 1, 8);
        for i in 0..400u32 {
            let p = grid.random_cell(&mut rng);
            if i % 5 == 4 {
                store.delete(p);
                single.delete(p);
            } else {
                store.insert(p, i);
                single.insert(p, i);
            }
        }
        let b = BoxRegion::new(Point::new([3, 1]), Point::new([11, 13]));
        assert_eq!(walk(&store, &b), walk(&single, &b));
        assert_eq!(flat(store.query_box(&b).0), walk(&single, &b));
        let q = Point::new([9, 2]);
        assert_eq!(flat(store.knn(q, 5, 3).0), flat(single.knn(q, 5, 3).0));
        let snap = store.snapshot();
        assert_eq!(flat_ref(snap.knn(q, 5, 3).0), flat(single.knn(q, 5, 3).0));
    }

    #[test]
    fn bulk_load_routes_and_collapses_newest_wins() {
        let grid = Grid::<2>::new(3).unwrap();
        let p = Point::new([6, 6]);
        let store = ShardedSfcStore::bulk_load(
            ZCurve::over(grid),
            4,
            vec![(p, 1u32), (Point::new([0, 0]), 2), (p, 3)],
        );
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(p), Some(3));
        assert_eq!(store.shard_lens().iter().sum::<usize>(), 2);
    }

    #[test]
    fn empty_sharded_store_behaviour() {
        let grid = Grid::<2>::new(3).unwrap();
        let store: ShardedSfcStore<2, u32, _> = ShardedSfcStore::new(ZCurve::over(grid), 5);
        assert!(store.is_empty());
        assert_eq!(store.iter().count(), 0);
        let b = BoxRegion::new(Point::new([0, 0]), Point::new([7, 7]));
        assert!(walk(&store, &b).is_empty());
        assert!(store.query_box(&b).0.is_empty());
        assert!(store.knn(Point::new([1, 1]), 3, 2).0.is_empty());
        store.flush();
        store.compact();
        let frozen = store.snapshot();
        assert!(frozen.is_empty());
        assert!(walk_ref(&frozen, &b).is_empty());
        assert!(frozen.query_box(&b).0.is_empty());
    }

    /// The router's reported [`QueryStats`] must be the exact sum of the
    /// per-shard stats it fanned out to — seeks, scanned, reported, and
    /// the zone-map block counters — on both skippers. Audited on a
    /// snapshot, whose per-shard captures are what the live store's
    /// queries fan out over too.
    #[test]
    fn router_stats_are_the_sum_of_per_shard_stats() {
        let (sharded_live, _) = paired_stores(4, 900, 77);
        let sharded = sharded_live.snapshot();
        let grid = sharded.curve().grid();
        let hilbert_live = ShardedSfcStore::with_memtable_capacity(HilbertCurve::over(grid), 4, 16);
        for e in sharded.iter() {
            hilbert_live.insert(e.point, *e.payload);
        }
        let hilbert = hilbert_live.snapshot();
        let mut rng = rng(5);
        for _ in 0..20 {
            let a = grid.random_cell(&mut rng);
            let c = grid.random_cell(&mut rng);
            let lo = Point::new([a.coord(0).min(c.coord(0)), a.coord(1).min(c.coord(1))]);
            let hi = Point::new([a.coord(0).max(c.coord(0)), a.coord(1).max(c.coord(1))]);
            let b = BoxRegion::new(lo, hi);

            // Interval skipper: the router hands each shard the intervals
            // meeting its range.
            let intervals = b.curve_intervals(hilbert.curve());
            let (_, router) = hilbert.query_box(&b);
            let mut manual = QueryStats::default();
            let mut manual_reported = 0u64;
            for (j, shard) in hilbert.shards.iter().enumerate() {
                let range = hilbert.partition().range(j);
                let met: Vec<_> = intervals
                    .iter()
                    .copied()
                    .filter(|&(lo, hi)| hi >= range.start && lo < range.end)
                    .collect();
                if met.is_empty() {
                    continue;
                }
                let skip = CurveSkipper::Intervals(met.into());
                let (hits, s) = shard_scan(shard, &b, &skip);
                manual_reported += hits.len() as u64;
                manual.add(&s);
            }
            assert_eq!(router, manual, "interval-skipper stats drifted on {b:?}");
            assert_eq!(
                router.reported, manual_reported,
                "per-shard reported counts must sum to the router's"
            );
            // Overscan is consistent with the summed counters.
            assert_eq!(router.overscan(), manual.overscan());

            // BIGMIN: on Morton order a box is never decomposed, so the
            // router consults exactly the shards whose range meets
            // `[Z(lo), Z(hi)]` and each runs the BIGMIN-skipping kernel.
            let z = sharded.curve();
            let (zmin, zmax) = (z.encode(b.lo()), z.encode(b.hi()));
            let (_, router) = sharded.query_box(&b);
            let mut manual = QueryStats::default();
            for (j, shard) in sharded.shards.iter().enumerate() {
                let range = sharded.partition().range(j);
                if range.is_empty() || range.start > zmax || range.end <= zmin {
                    continue;
                }
                let skip = CurveSkipper::Morton(MortonSkipper::new(z, &b));
                let (_, s) = shard_scan(shard, &b, &skip);
                manual.add(&s);
            }
            assert_eq!(router.reported, manual.reported, "reported sum, planner");
            assert_eq!(router, manual, "planner stats drifted on {b:?}");
        }
    }

    #[test]
    fn sharded_planner_is_byte_identical_to_single_store() {
        for parts in [1usize, 3, 5] {
            let (sharded, single) = paired_stores(parts, 700, 120 + parts as u64);
            let grid = sharded.curve().grid();
            let mut rng = rng(8);
            for _ in 0..20 {
                let a = grid.random_cell(&mut rng);
                let c = grid.random_cell(&mut rng);
                let lo = Point::new([a.coord(0).min(c.coord(0)), a.coord(1).min(c.coord(1))]);
                let hi = Point::new([a.coord(0).max(c.coord(0)), a.coord(1).max(c.coord(1))]);
                let b = BoxRegion::new(lo, hi);
                assert_eq!(
                    flat(sharded.query_box(&b).0),
                    flat(single.query_box(&b).0),
                    "planner, parts={parts}"
                );
                assert_eq!(
                    flat(sharded.query_box(&b).0),
                    walk(&single, &b),
                    "planner vs raw interval walk, parts={parts}"
                );
            }
        }
    }

    /// A 16×16 store holding every cell (payload = the cell's key), part
    /// flushed and part in the memtables, and its snapshot.
    fn full_grid<C: SpaceFillingCurve<2> + Clone>(
        curve_over: fn(Grid<2>) -> C,
    ) -> (ShardedSfcStore<2, u32, C>, ShardedSnapshot<2, u32, C>) {
        let curve = curve_over(Grid::new(4).unwrap());
        let store = ShardedSfcStore::with_memtable_capacity(curve, 3, 40);
        for key in 0..256 {
            store.insert(store.curve().point_of(key), key as u32);
        }
        let snap = store.snapshot();
        (store, snap)
    }

    /// A box reaching past the grid is clipped and correct on both
    /// curves; only a kNN *query point* outside the grid is a caller
    /// error (the four tests below).
    #[test]
    fn a_box_reaching_past_the_grid_is_clipped() {
        let b = BoxRegion::new(Point::new([3, 3]), Point::new([40, 40]));
        let (z, z_snap) = full_grid(ZCurve::over);
        let (h, h_snap) = full_grid(HilbertCurve::over);
        assert_eq!(z.query_box(&b).0.len(), 13 * 13);
        assert_eq!(z_snap.query_box(&b).0.len(), 13 * 13);
        assert_eq!(h.query_box(&b).0.len(), 13 * 13);
        assert_eq!(h_snap.query_box(&b).0.len(), 13 * 13);
        assert!(z.query_box(&b).0.iter().all(|e| b.contains(&e.point)));
        let outside = BoxRegion::new(Point::new([3, 16]), Point::new([40, 40]));
        assert!(z.query_box(&outside).0.is_empty());
        assert!(h_snap.query_box(&outside).0.is_empty());
        assert_eq!(z.knn(Point::new([15, 15]), 3, 2).0.len(), 3, "the corner");
    }

    #[test]
    #[should_panic(expected = "query point out of bounds: (40, 40)")]
    fn knn_rejects_a_query_point_outside_the_grid_z() {
        let (store, _) = full_grid(ZCurve::over);
        store.knn(Point::new([40, 40]), 3, 2);
    }

    #[test]
    #[should_panic(expected = "query point out of bounds: (40, 40)")]
    fn knn_rejects_a_query_point_outside_the_grid_hilbert() {
        let (store, _) = full_grid(HilbertCurve::over);
        store.knn(Point::new([40, 40]), 3, 2);
    }

    #[test]
    #[should_panic(expected = "query point out of bounds: (3, 16)")]
    fn snapshot_knn_rejects_a_query_point_outside_the_grid_z() {
        let (_, snap) = full_grid(ZCurve::over);
        snap.knn(Point::new([3, 16]), 3, 2);
    }

    #[test]
    #[should_panic(expected = "query point out of bounds: (3, 16)")]
    fn snapshot_knn_rejects_a_query_point_outside_the_grid_hilbert() {
        let (_, snap) = full_grid(HilbertCurve::over);
        snap.knn(Point::new([3, 16]), 3, 2);
    }

    #[test]
    fn metrics_count_sharded_operations() {
        let grid = Grid::<2>::new(5).unwrap();
        let mut store: ShardedSfcStore<2, u32, _> =
            ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 2, 8);
        let metrics = store.enable_metrics();
        metrics.set_slow_query_threshold(std::time::Duration::ZERO);
        let mut rng = rng(11);
        for i in 0..200u32 {
            store.insert(grid.random_cell(&mut rng), i);
        }
        store.delete(Point::new([0, 0]));
        store.get(Point::new([1, 1]));
        store.compact();
        let b = BoxRegion::new(Point::new([0, 0]), Point::new([15, 15]));
        let (hits, stats) = store.query_box(&b);
        let snap = metrics.registry().snapshot();
        let inserts: u64 = (0..2)
            .map(|j| snap.counter(&format!("shard{j}.insert.count")).unwrap())
            .sum();
        assert_eq!(inserts, 200, "per-shard insert counts sum to the driver's");
        assert_eq!(
            (0..2)
                .map(|j| snap.counter(&format!("shard{j}.delete.count")).unwrap())
                .sum::<u64>(),
            1
        );
        assert!(
            snap.counter("shard0.epoch_publish.count").unwrap()
                + snap.counter("shard1.epoch_publish.count").unwrap()
                > 0,
            "flushes must publish epochs"
        );
        assert_eq!(snap.counter("engine.query.count"), Some(1));
        assert_eq!(
            snap.counter("engine.query.reported"),
            Some(hits.len() as u64)
        );
        assert_eq!(snap.counter("engine.query.scanned"), Some(stats.scanned));
        assert_eq!(
            snap.histogram("engine.query_box.ns").unwrap().count(),
            1,
            "query wall time lands in the box histogram"
        );
        // Zero threshold: the query must be traced, from what the router
        // itself executed (a Morton box is never decomposed, so there is
        // no decomposition to count or time).
        let slow = metrics.slow_queries();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].detail.op, "query_box");
        assert_eq!(slow[0].detail.shards, Some(2));
        assert_eq!(slow[0].detail.intervals, None);
        assert_eq!(slow[0].detail.stats, stats);
        assert!(slow[0].detail.decompose_ns.is_none());
        assert!(slow[0].detail.capture_ns.is_some());
        // Off Morton order a box is decomposed once, and the trace counts
        // exactly the intervals that ran and times the decomposition; kNN
        // reports both phases too.
        let mut hilbert: ShardedSfcStore<2, u32, _> =
            ShardedSfcStore::with_memtable_capacity(HilbertCurve::over(grid), 2, 8);
        let metrics = hilbert.enable_metrics();
        metrics.set_slow_query_threshold(std::time::Duration::ZERO);
        for i in 0..200u32 {
            hilbert.insert(grid.random_cell(&mut rng), i);
        }
        let small = BoxRegion::new(Point::new([3, 3]), Point::new([6, 7]));
        hilbert.query_box(&small);
        hilbert.knn(Point::new([9, 9]), 3, 4);
        let slow = metrics.slow_queries();
        assert_eq!(
            slow[0].detail.intervals,
            Some(small.curve_intervals(hilbert.curve()).len())
        );
        assert!(slow[0].detail.decompose_ns.is_some());
        assert_eq!(slow[1].detail.op, "knn");
        assert!(slow[1].detail.decompose_ns.is_some());
        assert!(slow[1].detail.capture_ns.is_some());
        assert!(slow[1].detail.to_string().contains(" capture="));
        // Gauges reflect the compacted state: one run per non-empty shard,
        // empty memtables, live records summing to the store's len.
        let live: i64 = (0..2)
            .map(|j| snap.gauge(&format!("shard{j}.live")).unwrap())
            .sum();
        assert_eq!(live as usize, store.len());
        for j in 0..2 {
            assert_eq!(snap.gauge(&format!("shard{j}.memtable.len")), Some(0));
        }
    }

    #[test]
    fn metrics_survive_rebalance_and_count_it() {
        let grid = Grid::<2>::new(5).unwrap();
        let mut store: ShardedSfcStore<2, u32, _> =
            ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 4, 8);
        let metrics = store.enable_metrics();
        let mut rng = rng(12);
        // Skewed writes into one corner to force a boundary move.
        for i in 0..300u32 {
            let p = grid.random_cell(&mut rng);
            let p = Point::new([p.coord(0) / 4, p.coord(1) / 4]);
            store.insert(p, i);
        }
        let moved = store.rebalance(0.01);
        let snap = metrics.registry().snapshot();
        assert_eq!(
            snap.counter("engine.rebalance.count"),
            Some(u64::from(moved))
        );
        if moved {
            assert_eq!(snap.histogram("engine.rebalance.ns").unwrap().count(), 1);
        }
        // The store keeps working and counting after migration.
        store.insert(Point::new([31, 31]), 1);
        let snap = metrics.registry().snapshot();
        let inserts: u64 = (0..4)
            .map(|j| snap.counter(&format!("shard{j}.insert.count")).unwrap())
            .sum();
        assert_eq!(inserts, 301);
    }
}
