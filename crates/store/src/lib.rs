//! # sfc-store — a mutable LSM-style spatial store over SFC-sorted runs
//!
//! Every static workload in this workspace rebuilds its [`SfcIndex`] from
//! scratch when the data changes. This crate lifts that restriction: a
//! [`ShardedSfcStore`] is a *mutable* spatial map keyed by curve index
//! (one live record per grid cell) that absorbs inserts, updates, and
//! deletes — from any number of threads, through `&self` — while staying
//! queryable through the same key-range machinery: BIGMIN scans, exact
//! interval decomposition, verified kNN, applied per level and merged.
//!
//! There is **one engine**. The paper cuts a curve's linear order into
//! `p` contiguous segments and studies how compact each stays; a shard of
//! the store *is* such a segment, and the unsharded store is the case
//! `p = 1` of the same code (`ShardedSfcStore::new(curve, 1)`), not a
//! second implementation. There is likewise **one read type**: every
//! read — a live query, [`iter`](ShardedSfcStore::iter), a
//! [`ShardedSnapshot`] the caller keeps — runs on *captures* of the
//! shards (see [Snapshots are captures](#snapshots-are-captures)).
//!
//! ## Lifecycle of a write
//!
//! Each shard is organised like a log-structured merge tree whose sorted
//! runs are exactly the SoA column triples of `sfc-index`:
//!
//! 1. **Route.** The keyspace `0..n` is cut into contiguous curve-index
//!    ranges by a [`Partition`](sfc_partition::Partition) — the paper's
//!    SFC domain-decomposition structure, reused verbatim as a shard
//!    router. Boundary semantics are **half-open**: shard `j` owns
//!    `boundaries[j] .. boundaries[j+1]`, so every curve key routes to
//!    exactly one shard, under a shared read guard on the partition.
//! 2. **Memtable.** The write lands in the shard's sorted in-memory table
//!    — an [`SfcMemtable`](memtable::SfcMemtable), the locality-aware
//!    B+tree described below — stamped with the shard's next sequence
//!    number, under the shard's **own mutex**: concurrent writers to
//!    different shards never contend — the paper's locality argument,
//!    turned into a lock-partitioning argument. A delete writes a
//!    *tombstone* — a versioned "this cell is now empty" marker — because
//!    older levels may still hold a record for the cell.
//! 3. **Flush.** When the memtable reaches its capacity (or
//!    [`ShardedSfcStore::flush`] is called) its image is built, in key
//!    order, into a new immutable **run**: an [`SfcIndex`] with
//!    `Option<T>` payloads adopted sorted — no re-sorting, no
//!    re-encoding. Runs are stacked oldest → newest; within a run every
//!    key is unique. The new stack is **published before the memtable is
//!    drained** (per-entry sequence numbers make the drain race-free), so
//!    no reader can ever observe a write in neither place.
//! 4. **Compaction.** After each flush, size-tiered merging restores the
//!    invariant that each run is at least twice the size of the run above
//!    it: adjacent runs violating the ratio are k-way merged (newest
//!    version of each key wins, superseded versions are dropped).
//!    Tombstones are dropped only when a merge produces the *bottom* run —
//!    below it there is nothing left to shadow.
//!    [`ShardedSfcStore::compact`] forces a full merge of every shard
//!    into a single tombstone-free run.
//!
//! **Epoch publication** — each shard's frozen run stack is published
//! through an atomically swapped `Arc` (a hand-rolled arc-swap; see the
//! `epoch` module). Flushes and compactions build the next run stack off
//! to the side and swap it in whole, so **readers never block maintenance
//! and maintenance never blocks readers**.
//!
//! **Batched writes** — [`ShardedSfcStore::apply_batch`] accepts a whole
//! batch of upserts/deletes ([`BatchOp`] values) in one call. The router
//! keys every op, takes the partition read guard **once**, routes the
//! batch into per-shard slices, stably sorts each slice by curve index
//! (duplicate cells keep submission order — the last write wins, exactly
//! as one-by-one), and applies each slice under a **single**
//! memtable-lock hold, where the ascending keys ride the B+tree's
//! last-leaf insertion hint instead of paying a root descent per record.
//! The per-record costs that remain — lock acquires, WAL frames,
//! commit-queue tickets — are amortised over the batch.
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
//! **Lock order** — `partition RwLock → shard maint → shard mem →
//! { epoch cell / traffic stripe | shard persist → manifest → commit
//! queue }`; the durable chain appears only on stores opened with
//! [`ShardedSfcStore::open_durable`], the commit-queue mutex is the last
//! lock on every path, and multiple shards are only locked together (in
//! ascending index order) under the partition's write guard.
//!
//! Amortised write cost is `O(log² n)` comparisons per update (memtable
//! insert plus a geometric cascade of sequential merges); the run count is
//! bounded by `O(log n)`, which bounds per-query overhead. Streaming 100k
//! updates into a million-record store this way is orders of magnitude
//! cheaper than 100k-record-batched full rebuilds — see
//! `crates/bench/benches/store.rs`.
//!
//! ## Snapshots are captures
//!
//! A read never looks at a shard in place. It **captures** it: under one
//! hold of the shard's `mem` lock it takes the copy-on-write memtable
//! image (two refcount bumps — no entry, no node copied), pins the
//! published run stack (one `Arc` clone) and notes the live count.
//! Nothing is flushed, nothing is written, nothing can fail. All scanning
//! then runs against the captures with no lock held: each level is
//! scanned with the shared primitives from `sfc-index`
//! ([`box_scan`](sfc_index::box_scan),
//! [`interval_scan`](sfc_index::interval_scan)), per-level work is summed
//! into one [`QueryStats`](sfc_index::QueryStats), and results merge
//! newest-wins with tombstones suppressing older versions.
//!
//! * A **live query** (`query_box`, `knn`, …) captures every shard, runs,
//!   and drops the captures — so it returns owned [`StoreEntry`] values
//!   (payloads cloned per reported hit; the write path already requires
//!   `T: Clone`).
//! * [`ShardedSfcStore::snapshot`] hands the same captures out as a
//!   [`ShardedSnapshot`], the one public snapshot type (a shard's capture
//!   is internal; per-shard shape is on the store, e.g.
//!   [`shard_run_lens`](ShardedSfcStore::shard_run_lens)): an owned
//!   `Send + Sync` value with the same query methods, returning borrowed
//!   [`StoreEntryRef`]s, that never touches a lock after creation.
//!   Readers on any thread keep querying the frozen state while writers,
//!   flushes, compactions and rebalances continue: a writer that meets a
//!   live capture copies the leaf-pointer slab and the one leaf it lands
//!   in, a compaction that wants to consume a pinned run copies it out of
//!   its `Arc` instead (the reason the write path requires `T: Clone`),
//!   and the snapshot stays as it was.
//!
//! **Isolation level of a multi-shard capture.** Per shard a capture is
//! atomic and complete: every write applied to the shard before it was
//! captured is visible (newest version wins), none applied after is, and
//! a flush racing the capture cannot hide a write (publish-before-drain).
//! Across shards it is *not* one instant: shards are captured in
//! ascending order under the partition's read guard, which excludes
//! rebalances but not writers, so of two racing writes the one to a
//! later-captured shard may be in and the one to an earlier-captured
//! shard out, whichever was applied first — and a cross-shard batch can
//! be seen in part. Against any quiesced state, every read is
//! byte-identical at every shard count.
//!
//! **One method per question**, the same five on the store (owned
//! entries) and on a snapshot (borrowed ones). A read runs in the calling
//! thread; concurrent callers are the parallelism (a `thread::scope`
//! spawn per shard per call lost to the sequential fan-out at every box
//! size and for kNN — `docs/perf/PR-23.md`).
//!
//! | question | method |
//! |---|---|
//! | what is at this cell? | [`get`](ShardedSfcStore::get) |
//! | everything, in curve order | [`iter`](ShardedSfcStore::iter) |
//! | what lies in this box? | [`query_box`](ShardedSfcStore::query_box) (the block kernel, skipping by the curve's rule) |
//! | what lies in these curve-key ranges? | [`query_intervals`](ShardedSfcStore::query_intervals) (the raw interval walk) |
//! | the `k` records nearest this point | [`knn`](ShardedSfcStore::knn) |
//!
//! ## The memtable: a locality-aware B+tree
//!
//! Every shard holds its in-memory tail in an
//! [`SfcMemtable`](memtable::SfcMemtable) — the B+tree in
//! [`memtable::bptree`]:
//!
//! * **Large leaves.** Leaves hold
//!   [`DEFAULT_LEAF_CAPACITY`](memtable::bptree::DEFAULT_LEAF_CAPACITY)
//!   (64) entries in parallel sorted key/value arrays, so one leaf spans
//!   a whole curve neighborhood contiguously; leaves are doubly linked
//!   for ordered iteration both ways, and heap accounting
//!   ([`heap_bytes`](memtable::SfcMemtable::heap_bytes), surfaced as the
//!   `memtable.bytes` gauge and the snapshot's `heap_bytes()`) is `O(1)`
//!   because every leaf allocation is capacity-fixed.
//! * **A last-accessed-leaf hint.** Each seek records the leaf it landed
//!   in (a relaxed atomic, so shared readers refresh it too); the next
//!   operation checks the hinted leaf's key bounds before descending
//!   from the root. Curve-local upsert streams — the order the paper's
//!   SFC sorting produces by construction — resolve almost every write
//!   through the hint, which is why the `memtable_ingest` bench gates
//!   the B+tree at ≥ 1× `BTreeMap` on the curve-local stream (measured
//!   3.6× on the ascending sweep; see `BENCH_store.json`).
//! * **Drain protocol.** Entries leave the memtable only wholesale,
//!   through [`retain`](memtable::SfcMemtable::retain) and
//!   [`clear`](memtable::SfcMemtable::clear); there is no per-key
//!   removal (a delete is a tombstone value). The flush drain,
//!   `retain`, is one linked-leaf walk that compacts survivors in place,
//!   recycles emptied leaves and rebuilds the inner levels
//!   bulk-load-style in a fresh slab. The concurrent shard drains
//!   exactly `seq < high_water` with it.
//! * **Copy-on-write snapshots.** The node slabs and every leaf sit
//!   behind `Arc`, so [`snapshot`](memtable::SfcMemtable::snapshot) is
//!   two refcount bumps — no entry, no node copied. This is what a query
//!   captures under the shard lock. A writer that finds a snapshot still
//!   alive copies the leaf-pointer slab and the one leaf it lands in;
//!   with none alive, writes stay in place.
//!
//! ## Zone maps and the query paths
//!
//! Every run carries the block summaries of `sfc-index`'s zone map —
//! per 64-slot block, a fence key, the point
//! AABB, and a live (non-tombstone) count — built once at flush/merge
//! time. The query paths lean on them end-to-end:
//!
//! * **Run pruning.** A run whose key range misses the query's curve span,
//!   or whose AABB misses the box, is skipped without a single seek
//!   (`QueryStats::blocks_pruned` counts what was skipped).
//! * **Block pruning.** A box scan decides a whole block at a time:
//!   blocks whose AABB misses the box are stepped over, blocks contained
//!   in the box are bulk-accepted, and a partial block is decoded once
//!   and masked on its coordinates — no per-key test or in-block hop
//!   anywhere ([`box_scan`](sfc_index::box_scan)); a raw interval walk
//!   gallops forward from the previous interval's position instead of
//!   re-searching the whole column.
//! * **kNN.** Candidate collection starts in the shard owning the query's
//!   key, visits a further run only while its AABB is nearer than the
//!   k-th best, skips all-dead blocks and blocks whose AABB distance
//!   lower bound cannot tighten the k-th best (a thread-local top-k
//!   distance heap replaces per-query candidate vectors), and the
//!   verification ball is an ordinary box query.
//! * **The skipper.** [`ShardedSfcStore::query_box`] runs that one kernel
//!   on every level; the curve alone decides how the kernel leaves an
//!   excursion out of the box. Morton order skips by BIGMIN and precomputes
//!   nothing; every other curve decomposes the box once at the router
//!   (hierarchically on Hilbert and Gray: `O(perimeter)` aligned cubes,
//!   one encode each — see [`sfc_index::BoxRegion::curve_intervals`]),
//!   hands each shard the intervals meeting its range, and skips by a
//!   binary search of them. Levels whose key range or AABB misses the
//!   box are pruned. The volume cutoffs and the per-run
//!   intervals-vs-BIGMIN estimate of earlier versions lost their A/B
//!   against the kernel and are gone (see the `view` module docs). A
//!   query's [`QueryStats`](sfc_index::QueryStats) count the blocks it
//!   pruned and decoded; `examples/range_query.rs` prints the kernel
//!   beside the raw interval walk.
//! * **Streaming.** A shard scans its small upper levels into a reused
//!   scratch and streams its bottom run through the newest-wins merge
//!   straight into the result — owned entries for a live query, borrowed
//!   ones for a snapshot — so no hit is copied twice and shard results
//!   append in curve order.
//!
//! [`ShardedSfcStore::query_intervals`] walks a caller's raw interval list
//! on every level — with `b.curve_intervals(store.curve())` it answers a
//! box by a different algorithm, which is what the differential tests
//! compare [`query_box`](ShardedSfcStore::query_box) with (beside a
//! `BTreeMap` model that shares no code with the engine).
//!
//! ## Durability: write-ahead log, group commit, crash recovery
//!
//! Everything above is volatile; [`ShardedSfcStore::open_durable`] makes
//! the engine crash-safe (see the [`wal`] module for the full
//! contract). The design rides the structure the engine already has
//! rather than adding a second ordering domain:
//!
//! * **Logging.** Every write appends one length-prefixed, CRC32C-checked
//!   frame to its shard's append-only segment log, carrying the *same
//!   sequence number* the memtable stamped on the entry. Frames land on
//!   an in-memory commit queue and reach the files a **group** at a
//!   time, one fsync per shard per group, before anyone is acked. A
//!   writer waiting for its ack (or a barrier) commits the group itself,
//!   in its own thread — everything queued rides along, and writers that
//!   arrive meanwhile form the next group — so an acked write costs a
//!   `write` and an `fdatasync`, not a thread hand-off. What nobody
//!   waits for accumulates up to [`WalConfig::fsync_every`] records (or
//!   1 MiB of frame bytes, so bursts of large frames close groups early)
//!   and is committed by a background thread; no clock runs, so a
//!   smaller backlog waits for the next ack, barrier or shutdown.
//!   [`ShardedSfcStore::sync`] is the explicit durability barrier for
//!   the `*_nosync` write variants.
//! * **Frame coalescing (format v2).** A batched write logs each
//!   shard's slice as one multi-record frame — a batch tag, the record
//!   count, and the packed records under a **single** CRC32C and a
//!   single commit-queue ticket. Because the checksum covers the whole
//!   body, recovery replays a batch frame all-or-nothing: a torn batch
//!   tail never resurrects half a slice. Below the router every write is
//!   such a slice — a single write is a slice of one, which the one
//!   encoder emits as the v1 frame byte-for-byte, so the log format is
//!   what it always was.
//! * **Parallel recovery.** Shards recover from disjoint directories
//!   and share nothing, so reopening a multi-shard store fans the
//!   per-shard segment scans and replays across threads;
//!   [`RecoveryStats::shards`] reports each shard's replay breakdown and
//!   [`RecoveryStats::replay_threads`] the fan-out used. The recovered
//!   store is what a serial replay would build.
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
//!   the log's background thread, off the writer path.
//!   A torn frame at the newest segment's tail (only ever an unacked
//!   write) is discarded; damage anywhere else is a typed
//!   [`WalError::Corrupt`] — never a panic, never a silent skip.
//! * **Background maintenance.** [`ShardedSfcStore::start_maintenance`]
//!   moves size-triggered flushes and tiered-compaction scheduling onto
//!   a per-store thread, so writers never flush and never stall behind
//!   a major merge ([`MaintenanceConfig`]); a flush or compaction that
//!   fails there is counted (`engine.maintenance.errors`), not lost.
//!
//! ## Observability
//!
//! The store can report into a shared
//! [`MetricsRegistry`](sfc_obs::MetricsRegistry): attach an
//! [`EngineMetrics`] (see the [`obs`] module) and every
//! insert/delete/get/flush/compact/rebalance feeds per-shard counters,
//! sampled latency histograms, and level gauges, while every query folds
//! its [`QueryStats`] into engine-wide counters and its wall time into a
//! per-operation histogram. Queries crossing a configurable threshold
//! leave a [`QueryTrace`] — what the query measured as it ran (capture
//! and decomposition times, interval count) plus the work counters — in a
//! bounded slow-query ring. Attachment is opt-in; an unattached store pays
//! one `Option` check per operation.
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

pub use maintenance::MaintenanceConfig;
pub use obs::{EngineMetrics, QueryTrace};
pub use shard::{ShardedIter, ShardedSfcStore, ShardedSnapshot};
pub use store::{BatchOp, StoreEntry, StoreEntryRef, DEFAULT_MEMTABLE_CAPACITY};
pub use wal::{RecoveryStats, ShardRecoveryStats, WalConfig, WalError, WalPayload};
