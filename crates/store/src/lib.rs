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
//!    it: adjacent runs violating the ratio are merged (newest version of
//!    each key wins, superseded versions are dropped).
//!    Tombstones are dropped only when a merge produces the *bottom* run —
//!    below it there is nothing left to shadow.
//!    [`ShardedSfcStore::compact`] forces a full merge of every shard
//!    into a single tombstone-free run. Every merge, like `iter`, a
//!    rebalance's migration and `to_index`, is the one newest-wins k-way
//!    merge of a shard's levels (the `view` module's § The level merge):
//!    it reads the runs borrowed from the published stack, block by
//!    block, and clones only the payloads that survive.
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
//! **Traffic and rebalancing** — every write is counted in a fixed
//! [`TrafficHistogram`](sfc_partition::TrafficHistogram): the keyspace
//! cut into `min(n, 4096)` equal curve-index buckets, one relaxed atomic
//! add per write (one per bucket touched for a sorted batch slice), no
//! lock and no memory that grows with the keys written. On grids of more
//! than 4 096 cells a bucket spans several cells, and a recomputed
//! boundary lands on a bucket start.
//! [`ShardedSfcStore::rebalance`] is the engine's one **stop-the-world**
//! operation: it holds the partition's write guard for its whole
//! duration (excluding all writers and router-level readers), flushes
//! every shard, recomputes min-bottleneck boundaries from the drained
//! traffic, and migrates records as pre-sorted bottom runs.
//!
//! **Lock order** — `partition RwLock → shard maint → shard mem →
//! { epoch cell | shard persist → manifest → commit queue }`; the
//! durable chain appears only on stores opened with
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
//! ([`box_scan`](sfc_index::box_scan) and the kNN candidate walk),
//! per-level work is summed
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
//!   in, a merge reads the runs it replaces where they are and clones each
//!   surviving payload into its output (the reason the write path
//!   requires `T: Clone`), and the snapshot stays as it was.
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
//! **One method per question**, the same four on the store (owned
//! entries) and on a snapshot (borrowed ones): a read is a get, an
//! iteration, a box or a kNN. A read runs in the calling
//! thread; concurrent callers are the parallelism (a `thread::scope`
//! spawn per shard per call lost to the sequential fan-out at every box
//! size and for kNN — `docs/perf/PR-23.md`).
//!
//! | question | method |
//! |---|---|
//! | what is at this cell? | [`get`](ShardedSfcStore::get) |
//! | everything, in curve order | [`iter`](ShardedSfcStore::iter) |
//! | what lies in this box? | [`query_box`](ShardedSfcStore::query_box) (the block kernel, skipping by the curve's rule) |
//! | the `k` records nearest this point | [`knn`](ShardedSfcStore::knn) |
//!
//! ## The memtable and the query paths
//!
//! A shard's in-memory tail is an [`SfcMemtable`](memtable::SfcMemtable),
//! the locality-aware B+tree of [`memtable::bptree`]: 64-entry leaves, a
//! last-accessed-leaf hint that curve-local upserts almost always hit,
//! drains only through `retain`/`clear`, and copy-on-write snapshots of
//! two refcount bumps (see its module docs).
//!
//! Every run carries `sfc-index`'s zone map — per 64-slot block a fence
//! key, the point AABB and a live count — built once at flush or merge.
//! Every box query on every level is one block-at-a-time kernel
//! ([`box_scan`](sfc_index::box_scan)) that leaves an excursion out of
//! the box by one [`CurveSkipper`](sfc_index::CurveSkipper) built at the
//! router (BIGMIN on Morton order, the box's curve intervals elsewhere);
//! a run whose key range or AABB misses the box is pruned, and kNN visits
//! a further run only while its AABB is nearer than the k-th best. A
//! shard streams its bottom run through the newest-wins merge straight
//! into the result. The `view` module docs give the rules and the
//! evidence behind them.
//!
//! The store has no raw interval read. Its differential tests compare
//! [`query_box`](ShardedSfcStore::query_box) with a `BTreeMap` model
//! that shares no code with the engine, and with the raw interval walk
//! of the static index a snapshot materialises
//! ([`ShardedSnapshot::to_index`] then
//! [`SfcIndex::query_intervals`](sfc_index::SfcIndex::query_intervals)
//! over `b.curve_intervals(store.curve())`) — a different algorithm.
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
//! Attach an [`EngineMetrics`] (see the [`obs`] module, which lists
//! every registry key) and writes, gets and maintenance feed per-shard
//! counters and sampled latency histograms, every query folds its
//! [`QueryStats`] and wall time into the registry, and slow queries leave
//! a [`QueryTrace`] in a bounded ring. Level gauges (memtable size, live
//! records, runs, WAL segments) are read from the engine's own state when
//! the registry is snapshotted; no write sets one. An unattached store
//! pays one `Option` check per operation.
//!
//! ## Guarantees
//!
//! What the engine promises, and the test that fails when the promise
//! breaks (`file::test`: `tests/tests/<file>.rs` or the module's file).
//!
//! | guarantee | test |
//! |---|---|
//! | acked-prefix durability: a reopen recovers a prefix of the acked writes | `crash_recovery::recovery_survives_truncation_at_every_byte` |
//! | batch atomicity per shard: a shard's slice recovers whole or not at all | `crash_recovery::torn_batch_frame_is_atomic_per_shard` |
//! | newest-wins reads | `store_model::z_store_matches_btreemap_model` |
//! | publish-before-drain: a flush never hides a write from a reader | `concurrency::readers_never_see_flush_gaps_or_time_travel` |
//! | the first I/O error is sticky and reaches every caller | `committer::first_error_reaches_leader_follower_and_every_later_call` |
//! | writers never flush while maintenance runs | `concurrency::writers_never_stall_behind_maintenance_merges` |
//! | a poisoned lock means a thread panicked mid-update, so the store panics: that shard's later writes panic (never hang or return), other shards keep serving | `concurrency::a_panic_under_a_shard_lock_fails_that_shards_later_writes` |
//! | rebalance rolls back whole on a crash: files no manifest names are swept (no test crashes mid-rebalance) | `crash_recovery::unreferenced_generation_rolls_back_and_sweeps_orphans` |
//! | multi-shard read isolation ([Snapshots are captures](#snapshots-are-captures)) | untested: ROADMAP item 17(d) |
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
