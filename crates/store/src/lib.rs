//! # sfc-store — a mutable LSM-style spatial store over SFC-sorted runs
//!
//! Every static workload in this workspace rebuilds its [`SfcIndex`] from
//! scratch when the data changes. This crate lifts that restriction: a
//! [`SfcStore`] is a *mutable* spatial map keyed by curve index (one live
//! record per grid cell) that absorbs inserts, updates, and deletes while
//! staying queryable through the same key-range machinery — BIGMIN scans,
//! exact interval decomposition, verified kNN — applied per level and
//! merged.
//!
//! ## Lifecycle of a write
//!
//! The store is organised like a log-structured merge tree whose sorted
//! runs are exactly the SoA column triples of `sfc-index`:
//!
//! 1. **Memtable.** Every `insert`/`delete` lands in a sorted in-memory
//!    table — an [`SfcMemtable`](memtable::SfcMemtable), the
//!    locality-aware B+tree described below. A delete writes a
//!    *tombstone* — a versioned "this cell is now empty" marker — because
//!    older levels may still hold a record for the cell.
//! 2. **Flush.** When the memtable reaches its capacity (or [`SfcStore::flush`]
//!    is called) it is drained, in key order, into a new immutable **run**:
//!    an [`SfcIndex`] with `Option<T>` payloads adopted via
//!    [`SfcIndex::from_sorted`] — no re-sorting, no re-encoding. Runs are
//!    stacked oldest → newest; within a run every key is unique.
//! 3. **Compaction.** After each flush, size-tiered merging restores the
//!    invariant that each run is at least twice the size of the run above
//!    it: adjacent runs violating the ratio are k-way merged
//!    (newest version of each key wins, superseded versions are dropped).
//!    Tombstones are dropped only when a merge produces the *bottom* run —
//!    below it there is nothing left to shadow. [`SfcStore::compact`]
//!    forces a full merge into a single tombstone-free run.
//! 4. **Queries** span all levels: each level is scanned with the shared
//!    primitives from `sfc-index` ([`interval_scan`](sfc_index::interval_scan),
//!    [`bigmin_scan`](sfc_index::bigmin_scan)), per-level work is summed
//!    into one [`QueryStats`](sfc_index::QueryStats), and results are
//!    merged newest-wins with tombstones suppressing older versions.
//!    [`SfcStore::iter`] exposes the same merged view as a snapshot
//!    iterator in curve order.
//!
//! ## The memtable: a locality-aware B+tree
//!
//! Every layer above holds its in-memory tail in an
//! [`SfcMemtable`](memtable::SfcMemtable) — an opaque wrapper (no
//! engine layer can name the backing map) over the B+tree in
//! [`memtable::bptree`]:
//!
//! * **Large leaves.** Leaves hold
//!   [`DEFAULT_LEAF_CAPACITY`](memtable::bptree::DEFAULT_LEAF_CAPACITY)
//!   (64) entries in parallel sorted key/value arrays, so one leaf spans
//!   a whole curve neighborhood contiguously; leaves are doubly linked
//!   for ordered iteration both ways, and heap accounting
//!   ([`heap_bytes`](memtable::SfcMemtable::heap_bytes), surfaced as the
//!   `memtable.bytes` gauge and the store's `heap_bytes()`) is `O(1)`
//!   because every leaf allocation is capacity-fixed.
//! * **A last-accessed-leaf hint.** Each seek records the leaf it landed
//!   in (a relaxed atomic, so shared readers refresh it too); the next
//!   operation checks the hinted leaf's key bounds before descending
//!   from the root. Curve-local upsert streams — the order the paper's
//!   SFC sorting produces by construction — resolve almost every write
//!   through the hint, which is why the `memtable_ingest` bench gates
//!   the B+tree at ≥ 1× `BTreeMap` on the curve-local stream (measured
//!   3.6× on the ascending sweep; see `BENCH_store.json`).
//! * **Owned cursors valid across mutation.** A
//!   [`Cursor`](memtable::Cursor) stores `(key, leaf, slot)` and borrows
//!   nothing: each access revalidates the cached slot in `O(1)` (does
//!   this leaf still hold this key here?) and re-seeks by key only when
//!   mutation moved it. After its entry is removed,
//!   [`value`](memtable::Cursor::value) reports `None` while
//!   [`next`](memtable::Cursor::next)/[`prev`](memtable::Cursor::prev)
//!   keep walking from the remembered key.
//! * **Drain protocol.** Removal frees empty nodes but never rebalances
//!   underfull ones; instead the flush drain —
//!   [`retain`](memtable::SfcMemtable::retain), one linked-leaf walk
//!   that compacts survivors in place and rebuilds the inner levels
//!   bulk-load-style — restores density wholesale. The concurrent
//!   shard drains exactly `seq < high_water` with it.
//! * **Copy-on-write snapshots.** The node slabs and every leaf sit
//!   behind `Arc`, so [`snapshot`](memtable::SfcMemtable::snapshot) is
//!   two refcount bumps — no entry, no node copied. This is what a query
//!   captures under the shard lock. A writer that finds a snapshot still
//!   alive copies the leaf-pointer slab and the one leaf it lands in;
//!   with none alive, writes stay in place.
//!
//! The old `BTreeMap` backing survives behind the `memtable-btreemap`
//! feature as a differential reference: the full engine test suite run
//! with `--features sfc-store/memtable-btreemap` must behave
//! identically, and CI runs exactly that.
//!
//! ## Zone maps and the adaptive query planner
//!
//! Every run carries the block summaries of
//! [`sfc_index::ZoneMap`] — per 64-slot block, a fence key, the point
//! AABB, and a live (non-tombstone) count — built once at flush/merge
//! time. The query paths lean on them end-to-end:
//!
//! * **Run pruning.** A run whose key range misses the query's curve span,
//!   or whose AABB misses the box, is skipped without a single seek
//!   (`QueryStats::blocks_pruned` counts what was skipped).
//! * **Block pruning.** Inside a BIGMIN scan, blocks whose AABB misses
//!   the box are stepped over and blocks contained in the box are
//!   bulk-accepted — no per-key decode or filter either way; interval
//!   seeks gallop forward from the previous interval's position instead
//!   of re-searching the whole column.
//! * **kNN.** Candidate collection skips all-dead blocks, stops a walk at
//!   blocks whose AABB distance lower bound cannot tighten the current
//!   k-th best (a thread-local top-k distance heap replaces per-query
//!   candidate vectors), and the verification ball runs through the box
//!   planner.
//! * **The planner.** [`SfcStore::query_box`] picks intervals-vs-BIGMIN
//!   **per level** from run statistics instead of forcing one strategy
//!   store-wide: non-Morton curves always decompose (hierarchically on
//!   Hilbert and Gray: `O(perimeter)` aligned cubes, one encode each —
//!   see [`sfc_index::BoxRegion::curve_intervals`]); Morton boxes larger
//!   than [`INTERVAL_VOLUME_CUTOFF`] cells skip decomposition and jump —
//!   what that cutoff weighs is the interval *walk* (one seek per
//!   interval per level) against BIGMIN's overscan, the decomposition
//!   itself being cheap on either side of it; otherwise a run holding
//!   fewer slots inside the box's key span than there are intervals is
//!   jump-scanned while bigger runs gallop the interval list. [`SfcStore::plan_box_query`] exposes the chosen
//!   [`QueryPlan`]; `examples/query_planner.rs` prints it live. The
//!   sharded router makes the decompose decision once, clips intervals
//!   per shard, and lets every shard plan its own levels.
//!
//! The fixed-strategy entry points (`query_box_intervals`,
//! `query_box_bigmin`) remain for callers that know their workload; the
//! pre-zone-map implementations survive as hidden `*_plain` methods used
//! by the differential tests and as the benchmark baseline.
//!
//! Amortised write cost is `O(log² n)` comparisons per update (memtable
//! insert plus a geometric cascade of sequential merges); the run count is
//! bounded by `O(log n)`, which bounds per-query overhead. Streaming 100k
//! updates into a million-record store this way is orders of magnitude
//! cheaper than 100k-record-batched full rebuilds — see
//! `crates/bench/benches/store.rs`.
//!
//! ## Scaling out: the concurrent sharded engine
//!
//! A single [`SfcStore`] is **single-writer** (`&mut self` writes, no
//! internal synchronisation) — the simple building block. The
//! [`ShardedSfcStore`] on top of it is a genuinely **concurrent engine**:
//! every operation, including `insert`/`delete`/`flush`/`compact`/
//! `snapshot`/`rebalance`, takes `&self`, and the store is `Send + Sync`.
//!
//! **Sharding** — the keyspace `0..n` is cut into contiguous curve-index
//! ranges by a [`Partition`](sfc_partition::Partition) — the paper's SFC
//! domain-decomposition structure, reused verbatim as a shard router.
//! Boundary semantics are **half-open**: shard `j` owns
//! `boundaries[j] .. boundaries[j+1]`, so every curve key routes to
//! exactly one shard. Curve contiguity is what makes the concurrency
//! design work: each shard's mutable tail (a seq-numbered memtable plus
//! its live count) sits behind its **own mutex**, so concurrent writers
//! to different shards never contend — the paper's locality argument,
//! turned into a lock-partitioning argument.
//!
//! **Epoch publication** — each shard's frozen run stack is published
//! through an atomically swapped `Arc` (a hand-rolled arc-swap; see the
//! `epoch` module). Queries *capture* a shard — one microscopic lock to
//! snapshot the memtable copy-on-write and pin the current epoch —
//! and then scan entirely lock-free; flushes and compactions build the
//! next run stack off to the side and swap it in whole, so **readers
//! never block maintenance and maintenance never blocks readers**. A
//! flush publishes the new run *before* draining the memtable
//! (per-entry sequence numbers make the drain race-free), so no reader
//! can ever observe a write in neither place. Because query results can
//! no longer borrow from behind a lock, sharded queries return owned
//! [`StoreEntry`] values (payloads cloned per reported hit).
//!
//! **Lock order** — `partition RwLock → shard maint → shard mem →
//! { epoch cell / traffic stripe | shard persist → manifest → commit
//! queue }`; the durable chain appears only on stores opened with
//! [`ShardedSfcStore::open_durable`], the commit-queue mutex is the last
//! lock on every path, and multiple shards are only locked together (in
//! ascending index order) under the partition's write guard.
//!
//! **Traffic and rebalancing** — per-cell write weights accumulate in a
//! striped [`ConcurrentTraffic`](sfc_partition::ConcurrentTraffic)
//! (one stripe per shard, per-stripe atomic sampling counters — a hot
//! shard's sample rate cannot be skewed by other shards' writes).
//! [`ShardedSfcStore::rebalance`] is the engine's one **stop-the-world**
//! operation: it holds the partition's write guard for its whole
//! duration (excluding all writers and router-level readers), flushes
//! every shard, recomputes min-bottleneck boundaries from the drained
//! traffic, and migrates records as pre-sorted bottom runs.
//!
//! **Batched writes** — both store flavours accept a whole batch of
//! upserts/deletes in one call ([`SfcStore::apply_batch`] /
//! [`ShardedSfcStore::apply_batch`], ops as [`BatchOp`] values). The
//! router keys every op, takes the partition read guard **once**,
//! routes the batch into per-shard slices, stably sorts each slice by
//! curve index (duplicate cells keep submission order — the last write
//! wins, exactly as one-by-one), and applies each slice under a
//! **single** memtable-lock hold, where the ascending keys ride the
//! B+tree's last-leaf insertion hint instead of paying a root descent
//! per record. The per-record costs that remain — lock acquires, WAL
//! frames, commit-queue tickets — are amortised over the batch.
//!
//! **Snapshots** ([`StoreSnapshot`] / [`ShardedSnapshot`]) — runs are
//! held behind `Arc`, so a snapshot pins the published epochs by cloning
//! pointers (each shard is flushed first so the snapshot is complete).
//! The snapshot is an owned `Send + Sync` value that never touches a
//! lock after creation: readers on any thread keep querying the frozen
//! state while writers continue. A compaction that wants to consume a
//! pinned run copies it out of its `Arc` instead (copy-on-write; the
//! reason the write path requires `T: Clone`), leaving every
//! outstanding snapshot — and every published epoch — intact.
//!
//! **Parallel fan-out** — the sharded query paths have
//! `*_par` twins (`query_box_par`, `query_box_intervals_par`,
//! `query_box_bigmin_par`, `knn_par`, on both the store and its
//! snapshots) that distribute the per-shard scans across
//! `std::thread::scope` worker threads; per-shard results join in shard
//! order, so parallel results are byte-identical to sequential ones.
//! The vendored rayon stand-in spawns real threads too, so
//! `par_iter()`-style fan-outs over snapshot shards distribute as well.
//!
//! ## Durability: write-ahead log, group commit, crash recovery
//!
//! Everything above is volatile; [`ShardedSfcStore::open_durable`] makes
//! the sharded engine crash-safe (see the [`wal`] module for the full
//! contract). The design rides the structure the engine already has
//! rather than adding a second ordering domain:
//!
//! * **Logging.** Every write appends one length-prefixed, CRC32C-checked
//!   frame to its shard's append-only segment log, carrying the *same
//!   sequence number* the memtable stamped on the entry. Writers never
//!   touch a file: frames land on an in-memory commit queue and a
//!   dedicated committer thread batches them — one fsync per shard per
//!   **group**, where a group accumulates across drains up to
//!   [`WalConfig::fsync_every`] records while no writer waits on an ack
//!   (a waiter, a barrier, or shutdown fsyncs immediately;
//!   [`WalConfig::max_batch_delay`] optionally lingers for fuller
//!   groups) — before acking. [`WalConfig::fsync_bytes`] adds a byte
//!   bound so bursts of large frames close groups early.
//!   [`ShardedSfcStore::sync`] is the explicit durability barrier for
//!   the `*_nosync` write variants.
//! * **Frame coalescing (format v2).** A batched write logs each
//!   shard's slice as one multi-record frame — a batch tag, the record
//!   count, and the packed records under a **single** CRC32C and a
//!   single commit-queue ticket. Because the checksum covers the whole
//!   body, recovery replays a batch frame all-or-nothing: a torn batch
//!   tail never resurrects half a slice. A one-record batch emits the
//!   v1 frame byte-for-byte, so batched and unbatched logs intermix
//!   freely in one segment.
//! * **Parallel recovery.** Shards recover from disjoint directories
//!   and share nothing, so reopening fans the per-shard segment scans
//!   and replays across threads (serial with
//!   [`WalConfig::recovery_threads`]`(1)`); [`RecoveryStats::shards`]
//!   reports each shard's replay breakdown and
//!   [`RecoveryStats::replay_threads`] the fan-out used. The recovered
//!   store is identical either way.
//! * **Acked vs applied.** A write is *applied* (visible to queries and
//!   to later writes) the moment its memtable lock drops, and *acked*
//!   (durable) only when its group's fsync completes. The synchronous
//!   write paths return after both; on error the write is applied but
//!   may be lost by a crash.
//! * **Checkpoints.** A flush persists its published runs as run files,
//!   writes a checkpoint naming them plus the flush's sequence
//!   high-water `H`, and flips the root `MANIFEST`
//!   (write-temp → fsync → rename → fsync-dir — the single commit
//!   point). Reopening loads the checkpointed runs and replays exactly
//!   the frames with `seq >= H`; segments wholly below `H` are pruned by
//!   the committer after the next group commit, off the writer path.
//!   A torn frame at the newest segment's tail (only ever an unacked
//!   write) is discarded; damage anywhere else is a typed
//!   [`WalError::Corrupt`] — never a panic, never a silent skip.
//! * **Background maintenance.** [`ShardedSfcStore::start_maintenance`]
//!   moves size-triggered flushes and tiered-compaction scheduling onto
//!   a per-store thread with an optional token-bucket [`RateLimit`], so
//!   writers never stall behind a major merge ([`MaintenanceConfig`]).
//!
//! ## Observability
//!
//! Both store flavours can report into a shared
//! [`MetricsRegistry`](sfc_obs::MetricsRegistry): attach an
//! [`EngineMetrics`] (see the [`obs`] module) and every
//! insert/delete/get/flush/compact/rebalance feeds per-shard counters,
//! sampled latency histograms, and level gauges, while every query folds
//! its [`QueryStats`] into engine-wide counters and its wall time into a
//! per-operation histogram. Queries crossing a configurable threshold
//! leave a [`QueryTrace`] — the chosen plan's per-level strategies plus
//! the work counters — in a bounded slow-query ring. Attachment is
//! opt-in; an unattached store pays one `Option` check per operation.
//!
//! [`QueryStats`]: sfc_index::QueryStats
//! [`SfcIndex`]: sfc_index::SfcIndex
//! [`SfcIndex::from_sorted`]: sfc_index::SfcIndex::from_sorted

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod epoch;
mod maintenance;
pub mod memtable;
mod merge;
pub mod obs;
mod shard;
mod snapshot;
mod store;
mod view;
pub mod wal;

pub use maintenance::{MaintenanceConfig, RateLimit};
pub use obs::{EngineMetrics, QueryTrace};
pub use shard::{ShardedIter, ShardedSfcStore, ShardedSnapshot};
pub use snapshot::StoreSnapshot;
pub use store::{BatchOp, SfcStore, StoreEntry, StoreEntryRef, DEFAULT_MEMTABLE_CAPACITY};
pub use view::{
    LevelStrategy, QueryPlan, SnapshotIter, INTERVAL_VOLUME_CUTOFF, KNN_BALL_INTERVALS_CUTOFF,
};
pub use wal::{RecoveryStats, ShardRecoveryStats, WalConfig, WalError, WalPayload};
