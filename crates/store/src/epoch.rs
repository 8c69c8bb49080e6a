//! The concurrent shard engine: per-shard write locks and epoch-published
//! frozen run stacks.
//!
//! One [`Shard`] is the unit of write concurrency in a
//! [`ShardedSfcStore`](crate::ShardedSfcStore). Its state is split along
//! the mutability boundary the LSM design already draws:
//!
//! * **Mutable tail** — the seq-numbered memtable plus the shard's live
//!   count, behind the shard's [`Mutex`] (`mem`). Writers hold it for one
//!   map operation; readers hold it just long enough to take a
//!   copy-on-write snapshot of the table (two refcount bumps, nothing
//!   copied). Writers to *different* shards touch disjoint locks and
//!   never contend. To keep the live count exact, a write to a cell the
//!   memtable does not hold asks the run stack whether the cell was live
//!   (`MemState::put`). Every run answers most such misses from its key
//!   filter — one hash and one word — so the probe's cost under the lock
//!   is about one load per run, not a fence search per run; its sampled
//!   time is `shard<j>.write.liveness.ns`.
//! * **Frozen run stack** — published through an atomically swapped
//!   [`Arc`] (an [`EpochCell`], a hand-rolled arc-swap over
//!   `Mutex<Arc<_>>` whose critical section is a single refcount bump).
//!   Readers load the current epoch and scan it without any further
//!   synchronisation; maintenance builds the *next* run stack off-lock
//!   and swaps it in whole. No reader ever blocks on a flush, merge, or
//!   compaction, and no flush ever waits for a reader.
//! * **Maintenance guard** (`maint`) — serialises the epoch *writers*
//!   (flush, compaction, migration) against each other. Plain writes and
//!   reads never take it.
//!
//! ## The flush protocol (publish before drain)
//!
//! A flush must move memtable entries into a new immutable run without a
//! window in which readers see the entries in *neither* place. The
//! protocol:
//!
//! 1. Under `mem`, clone the memtable image and note the current
//!    sequence-number high-water mark.
//! 2. Off-lock (serialised by `maint`), build the new run, restore the
//!    size-tier invariant, and **publish** the new epoch.
//! 3. Under `mem` again, drain exactly the entries the clone covered —
//!    those whose sequence number is below the high-water mark. Entries
//!    written concurrently with step 2 carry newer sequence numbers and
//!    stay.
//!
//! Between steps 2 and 3 a reader may see a flushed entry twice — once in
//! the memtable image, once in the new run — with identical key, point,
//! and payload; the newest-wins level merge collapses the duplicate, so
//! the anomaly is invisible. The sequence numbers (not value comparison)
//! make step 3 sound when a concurrent writer *updates* a key mid-flush:
//! the update's newer sequence number keeps it in the memtable, where it
//! correctly shadows the just-flushed older version.
//!
//! ## Durability hook
//!
//! A shard of a durable store carries an `Option<Arc<dyn
//! DurabilityHook>>` (see [`crate::wal`]). The hook is consulted at
//! exactly three points — none of them on the reader path:
//!
//! * **Per write**, around the `mem` lock. Every write method ends in
//!   one [`Shard::apply`] of a key-sorted op list — a single record is a
//!   list of one, a batch's shard slice a list of many. The list's frame
//!   bytes — payloads included, straight into one buffer — are laid out
//!   *before* the lock (the values move into the table inside it) with
//!   the sequence fields zero; *after* the lock drops the hook stamps
//!   the seqs the memtable just assigned, checksums the frame and hands
//!   it to the group-commit queue. A write is *applied* (visible to
//!   readers) the moment the lock drops and *acked* (durable) when its
//!   group is fsynced; synchronous writes block between the two.
//! * **Per epoch publish** (flush / compact / migration): the new run
//!   stack is persisted and the WAL replay floor advances to the
//!   publish's sequence high-water, which also lets the log prune its
//!   dead segments.
//! * **Per rebalance**, via the deferred-manifest variant — all shards'
//!   persisted states flip in a single manifest commit.
//!
//! ## Lock order
//!
//! `partition (RwLock, router level) → maint → mem → { EpochCell |
//! persist → manifest → commit queue }` — every acquisition path in
//! this crate follows it; the `EpochCell` mutex is a leaf, and the
//! durability locks (see [`crate::wal`]) chain strictly after `mem`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sfc_core::{CurveIndex, Point, SpaceFillingCurve};

use crate::obs::ShardMetrics;
use crate::snapshot::StoreSnapshot;
use crate::view::{merge_runs, Run, RunColumns};
use crate::wal::{DurabilityHook, WalError, WalRecord};

/// One published generation of a shard's frozen state: the immutable run
/// stack (oldest first) plus the number of live records visible in it.
/// Epochs are immutable once published; readers pin one with an `Arc`
/// clone and scan it at leisure.
#[derive(Debug)]
pub(crate) struct RunsEpoch<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    /// Immutable sorted runs, oldest first; each run has unique keys and
    /// the bottom run (`runs[0]`) is always tombstone-free.
    pub(crate) runs: Vec<Run<D, T, C>>,
    /// Live (visible, non-tombstoned) records in `runs` alone.
    pub(crate) live: usize,
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> RunsEpoch<D, T, C> {
    fn empty() -> Self {
        Self {
            runs: Vec::new(),
            live: 0,
        }
    }

    /// `true` iff the newest version of `key` in the run stack is live.
    /// A run whose key filter rules `key` out is passed over without a
    /// fence search ([`SfcIndex::find_key`]).
    fn is_live(&self, key: CurveIndex) -> bool {
        for run in self.runs.iter().rev() {
            if let Some(i) = run.find_key(key) {
                return run.is_live_slot(i);
            }
        }
        false
    }

    /// The newest version of `key` in the run stack (`None` for both
    /// "absent" and "tombstoned").
    fn get(&self, key: CurveIndex) -> Option<T>
    where
        T: Clone,
    {
        for run in self.runs.iter().rev() {
            if let Some(i) = run.find_key(key) {
                return run.payload_at(i).cloned();
            }
        }
        None
    }
}

/// A hand-rolled arc-swap: the current epoch behind a mutex whose
/// critical section is one `Arc` clone (load) or one pointer swap
/// (publish). Readers and writers pass through in nanoseconds; the heavy
/// work of building the next epoch happens entirely outside.
#[derive(Debug)]
pub(crate) struct EpochCell<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    current: Mutex<Arc<RunsEpoch<D, T, C>>>,
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> EpochCell<D, T, C> {
    fn new(epoch: RunsEpoch<D, T, C>) -> Self {
        Self {
            current: Mutex::new(Arc::new(epoch)),
        }
    }

    /// Pins and returns the current epoch.
    pub(crate) fn load(&self) -> Arc<RunsEpoch<D, T, C>> {
        self.current.lock().expect("epoch cell poisoned").clone()
    }

    /// Atomically replaces the current epoch.
    fn publish(&self, epoch: Arc<RunsEpoch<D, T, C>>) {
        *self.current.lock().expect("epoch cell poisoned") = epoch;
    }
}

/// The memtable entry: cell, payload-or-tombstone, and the write sequence
/// number that makes the flush drain race-free.
pub(crate) type SeqSlot<const D: usize, T> = (Point<D>, Option<T>, u64);

/// The shard's seq-stamped memtable: an opaque
/// [`SfcMemtable`](crate::memtable::SfcMemtable) with the sequence number
/// folded into the value.
pub(crate) type SeqTable<const D: usize, T> = crate::memtable::SfcMemtable<SeqSlot<D, T>>;

/// One write as the shard applies it: the cell's curve key, the cell, and
/// the payload (`None` = tombstone).
pub(crate) type WriteOp<const D: usize, T> = (CurveIndex, Point<D>, Option<T>);

/// The mutable tail of one shard, guarded by the shard's `mem` lock.
#[derive(Debug)]
struct MemState<const D: usize, T> {
    /// Newest level: key → (cell, payload-or-tombstone, seq).
    table: SeqTable<D, T>,
    /// Monotonic per-shard write counter stamping every memtable entry.
    next_seq: u64,
    /// Live records of the whole shard (memtable *and* published runs),
    /// maintained incrementally by insert/delete.
    live: usize,
    /// Entries buffered before an automatic flush.
    cap: usize,
}

impl<const D: usize, T: Clone> MemState<D, T> {
    /// Writes `op` into the table under `seq`, keeps `live` exact and
    /// moves `next_seq` past `seq`. Returns whether the cell was live
    /// before: the replaced memtable entry decides (one tree walk serves
    /// the lookup and the write); a cell the table did not hold is as
    /// live as `live_in_runs` says. That is [`RunsEpoch::is_live`] on the
    /// write path: newest run to oldest, each run's key filter turns most
    /// absent keys away from one word, so a cell no run holds costs about
    /// one hash and one load per run, and only a filter pass (≈ 2 % of
    /// absent keys) or a held key pays the fence and in-block search.
    fn put(
        &mut self,
        (key, p, slot): WriteOp<D, T>,
        seq: u64,
        live_in_runs: impl FnOnce(CurveIndex) -> bool,
    ) -> bool {
        let now_live = slot.is_some();
        let was_live = match self.table.insert(key, (p, slot, seq)) {
            Some((_, old, _)) => old.is_some(),
            None => live_in_runs(key),
        };
        match (was_live, now_live) {
            (false, true) => self.live += 1,
            (true, false) => self.live -= 1,
            _ => {}
        }
        self.next_seq = self.next_seq.max(seq + 1);
        was_live
    }
}

/// One concurrently writable shard: see the module docs for the locking
/// and publication protocol.
#[derive(Debug)]
pub(crate) struct Shard<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    /// Serialises flush/compact/migration and their epoch swaps.
    maint: Mutex<()>,
    mem: Mutex<MemState<D, T>>,
    epoch: EpochCell<D, T, C>,
    /// Cached metric handles, set before the store is shared (see
    /// [`ShardedSfcStore::attach_metrics`](crate::ShardedSfcStore::attach_metrics));
    /// `None` costs one check per operation.
    metrics: Option<Arc<ShardMetrics>>,
    /// Durability hook of a durable store (`None` = in-memory, one
    /// pointer check per operation). Set before the store is shared.
    wal: Option<Arc<dyn DurabilityHook<D, T, C>>>,
    /// Whether a capacity-full memtable flushes on the writer's own
    /// thread. The background maintenance thread clears this while it
    /// runs, moving flush work off every writer's latency path.
    inline_flush: AtomicBool,
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> Shard<D, T, C> {
    /// An empty shard flushing its memtable at `cap` entries.
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            maint: Mutex::new(()),
            mem: Mutex::new(MemState {
                table: SeqTable::new(),
                next_seq: 0,
                live: 0,
                cap: cap.max(1),
            }),
            epoch: EpochCell::new(RunsEpoch::empty()),
            metrics: None,
            wal: None,
            inline_flush: AtomicBool::new(true),
        }
    }

    /// A shard rebuilt by crash recovery: the persisted run stack as
    /// its epoch and the WAL's replayable records (sorted by seq, all
    /// `>= high_water`) re-applied to a fresh memtable with their
    /// original sequence numbers — exactly the state an in-memory shard
    /// would hold right after the persisted flush plus those writes.
    pub(crate) fn recovered(
        curve: &C,
        cap: usize,
        runs: Vec<Run<D, T, C>>,
        epoch_live: usize,
        high_water: u64,
        records: Vec<WalRecord<D, T>>,
    ) -> Self
    where
        T: Clone,
    {
        let shard = Self::new(cap);
        let epoch = Arc::new(RunsEpoch {
            runs,
            live: epoch_live,
        });
        {
            let mut mem = shard.mem.lock().expect("shard mem poisoned");
            mem.live = epoch_live;
            mem.next_seq = high_water;
            for rec in records {
                debug_assert!(rec.seq >= high_water, "replay below the floor");
                let op = (curve.index_of(rec.point), rec.point, rec.slot);
                mem.put(op, rec.seq, |key| epoch.is_live(key));
            }
        }
        shard.epoch.publish(epoch);
        shard
    }

    /// Installs the durability hook. Needs `&mut self` — hooks attach
    /// during open, before the store is shared across threads.
    pub(crate) fn set_wal(&mut self, hook: Arc<dyn DurabilityHook<D, T, C>>) {
        self.wal = Some(hook);
    }

    /// Turns writer-thread capacity flushes on or off (see
    /// [`Self::over_capacity`]; maintenance turns them off while it
    /// owns flushing).
    pub(crate) fn set_inline_flush(&self, inline: bool) {
        self.inline_flush.store(inline, Ordering::Relaxed);
    }

    /// `true` when the memtable has reached its flush capacity.
    pub(crate) fn over_capacity(&self) -> bool {
        let mem = self.mem.lock().expect("shard mem poisoned");
        mem.table.len() >= mem.cap
    }

    /// Installs the shard's counter and histogram handles (its level
    /// gauges are read functions the registry calls; nothing here feeds
    /// them). Needs `&mut self` — the router attaches metrics before the
    /// store is shared across threads.
    pub(crate) fn set_metrics(&mut self, metrics: Arc<ShardMetrics>) {
        self.metrics = Some(metrics);
    }

    /// A shard adopting pre-sorted columns (strictly increasing keys, all
    /// slots `Some`) as its single bottom run.
    pub(crate) fn from_bottom_run(curve: &C, columns: RunColumns<D, T>, cap: usize) -> Self {
        let shard = Self::new(cap);
        shard
            .install_bottom_run(curve, columns, false)
            .expect("no durability hook attached yet");
        shard
    }

    /// Persists a just-published epoch through the durability hook (a
    /// no-op without one), timing the call and counting the bytes it
    /// wrote — the `persist.*` share of a flush, compaction or install.
    fn persist(
        &self,
        epoch: &RunsEpoch<D, T, C>,
        high_water: Option<u64>,
        defer_manifest: bool,
    ) -> Result<(), WalError> {
        let Some(w) = self.wal.as_deref() else {
            return Ok(());
        };
        let start = Instant::now();
        let bytes = w.persist_epoch(&epoch.runs, epoch.live, high_water, defer_manifest)?;
        if let Some(m) = self.metrics.as_deref() {
            m.persist_ns.record_since(start);
            m.persist_bytes.add(bytes);
        }
        Ok(())
    }

    /// The level gauges' reading: memtable entries, memtable heap bytes,
    /// live records and published runs, under one `mem` lock hold so
    /// they agree (as a capture does).
    pub(crate) fn levels(&self) -> [usize; 4] {
        let mem = self.mem.lock().expect("shard mem poisoned");
        let runs = self.epoch.load().runs.len();
        [mem.table.len(), mem.table.heap_bytes(), mem.live, runs]
    }

    /// Live records in the shard (memtable and runs merged).
    pub(crate) fn live(&self) -> usize {
        self.mem.lock().expect("shard mem poisoned").live
    }

    /// Buffered memtable entries (live and tombstone).
    pub(crate) fn memtable_len(&self) -> usize {
        self.mem.lock().expect("shard mem poisoned").table.len()
    }

    /// Heap bytes held by the memtable structure, in `O(1)`.
    pub(crate) fn memtable_heap_bytes(&self) -> usize {
        self.mem
            .lock()
            .expect("shard mem poisoned")
            .table
            .heap_bytes()
    }

    /// Sizes of the published immutable runs, oldest first.
    pub(crate) fn run_lens(&self) -> Vec<usize> {
        self.epoch.load().runs.iter().map(|r| r.len()).collect()
    }

    /// Captures the shard: the copy-on-write memtable image, the pinned
    /// epoch and the live count, all under one brief `mem` lock so they
    /// are mutually consistent — every write applied before the lock was
    /// taken is in the capture, none after. Flushes nothing. See the
    /// module docs for why a concurrent flush cannot open a gap between
    /// the image and the epoch.
    pub(crate) fn capture(&self) -> StoreSnapshot<D, T, C>
    where
        T: Clone,
    {
        let mem = self.mem.lock().expect("shard mem poisoned");
        StoreSnapshot::new(mem.table.snapshot(), self.epoch.load(), mem.live)
    }

    /// The live payload at `key`, if any (memtable first, then the
    /// pinned epoch).
    pub(crate) fn get(&self, key: CurveIndex) -> Option<T>
    where
        T: Clone,
    {
        let m = self.metrics.as_deref();
        let timer = m.and_then(|m| {
            m.gets.inc();
            m.sampler.sampled_start()
        });
        let hit = {
            let mem = self.mem.lock().expect("shard mem poisoned");
            if let Some((_, slot, _)) = mem.table.get(&key) {
                slot.clone()
            } else {
                let epoch = self.epoch.load();
                drop(mem);
                epoch.get(key)
            }
        };
        if let (Some(m), Some(start)) = (m, timer) {
            m.get_ns.record_since(start);
        }
        hit
    }
}

impl<const D: usize, T: Clone, C: SpaceFillingCurve<D> + Clone> Shard<D, T, C> {
    /// Applies a key-sorted op list (`Some` payload = upsert, `None` =
    /// tombstone) — one routed write is a list of one, a batch slice a
    /// list of many — under **one** mem-lock hold, and returns how many
    /// ops replaced or removed a live record. Ops take a contiguous block
    /// of sequence numbers in list order, so a later duplicate key wins
    /// exactly as it would one-by-one, and the sorted keys ride the
    /// memtable's last-leaf insertion hint. Flushes the memtable when it
    /// reaches capacity (unless background maintenance owns flushing).
    ///
    /// A delete always writes a tombstone: with concurrent flushes in
    /// flight, an already-cloned-but-not-yet-published run may hold an
    /// older live version the delete must shadow. Tombstones that turn
    /// out to shadow nothing are dropped when a flush builds the bottom
    /// run.
    ///
    /// On a durable shard the list is logged after the lock drops, under
    /// its memtable sequence numbers, as one coalesced frame (one
    /// commit-queue ticket, one checksum); with `wait` the call blocks
    /// until the group commit makes it durable. An `Err` means the ops
    /// are *applied but not acked* — readers may already see them, and
    /// they can be lost on crash.
    pub(crate) fn apply<O>(&self, curve: &C, ops: O, wait: bool) -> Result<usize, WalError>
    where
        O: AsRef<[WriteOp<D, T>]> + IntoIterator<Item = WriteOp<D, T>>,
    {
        let slice = ops.as_ref();
        debug_assert!(
            !slice.is_empty() && slice.windows(2).all(|w| w[0].0 <= w[1].0),
            "op lists arrive non-empty and key-sorted"
        );
        let inserts = slice.iter().filter(|(_, _, s)| s.is_some()).count();
        let m = self.metrics.as_deref();
        let timer = m.and_then(|m| {
            // A single write touches one counter.
            for (counter, n) in [(&m.inserts, inserts), (&m.deletes, slice.len() - inserts)] {
                if n > 0 {
                    counter.add(n as u64);
                }
            }
            m.sampler.sampled_start()
        });
        // Encode before the lock: the payloads move into the table inside
        // it, and byte-encoding under `mem` would serialise all writers
        // behind it. The seqs are stamped in once the lock assigned them.
        let frames = self.wal.as_deref().map(|w| (w, w.encode(slice)));
        // The run-probe time of a sampled call (`write.liveness.ns`).
        let mut liveness = timer.map(|_| Duration::ZERO);
        let needs_flush;
        let first_seq;
        let mut replaced = 0;
        {
            let mut mem = self.mem.lock().expect("shard mem poisoned");
            first_seq = mem.next_seq;
            // The epoch is pinned lazily and at most once: the mem lock
            // is held for the whole list, so no flush can drain between
            // ops, and a key absent from the table has the same liveness
            // in every epoch publishable meanwhile.
            let mut pinned: Option<Arc<RunsEpoch<D, T, C>>> = None;
            let mut probe = |key| pinned.get_or_insert_with(|| self.epoch.load()).is_live(key);
            for op in ops {
                let seq = mem.next_seq;
                let was_live = mem.put(op, seq, |key| match liveness.as_mut() {
                    None => probe(key),
                    Some(total) => {
                        let start = Instant::now();
                        let live = probe(key);
                        *total += start.elapsed();
                        live
                    }
                });
                replaced += usize::from(was_live);
            }
            needs_flush = mem.table.len() >= mem.cap && self.inline_flush.load(Ordering::Relaxed);
        }
        if let Some((w, frames)) = frames {
            w.log_frames(frames, first_seq, wait)?;
        }
        if needs_flush {
            self.flush(curve)?;
        }
        if let Some(m) = m {
            if let Some(probe) = liveness {
                m.liveness_ns.record_duration(probe);
            }
            if let Some(start) = timer {
                if inserts > 0 {
                    &m.insert_ns
                } else {
                    &m.delete_ns
                }
                .record_since(start);
            }
        }
        Ok(replaced)
    }

    /// Drains the memtable into a new published run (see the module docs
    /// for the publish-before-drain protocol), then restores the
    /// size-tier invariant. A no-op on an empty memtable.
    ///
    /// On a durable shard the publish also persists the new run stack
    /// and advances the WAL replay floor to the flush's high-water.
    pub(crate) fn flush(&self, curve: &C) -> Result<(), WalError> {
        let _maint = self.maint.lock().expect("shard maint poisoned");
        self.flush_locked(curve)
    }

    fn flush_locked(&self, curve: &C) -> Result<(), WalError> {
        let start = Instant::now();
        // `maint` keeps every other epoch writer out, so `old` stays the
        // published epoch until this flush replaces it.
        let old = self.epoch.load();
        let drop_tombstones = old.runs.is_empty();
        // Step 1: copy the memtable image into run columns under a brief
        // mem lock (a bottom run takes no tombstones).
        let (columns, high_water, live_at) = {
            let mem = self.mem.lock().expect("shard mem poisoned");
            if mem.table.is_empty() {
                return Ok(());
            }
            let mut columns = RunColumns::with_capacity(mem.table.len());
            columns.extend(
                mem.table
                    .iter()
                    .filter(|(_, (_, slot, _))| slot.is_some() || !drop_tombstones)
                    .map(|(key, (point, slot, _))| (key, *point, slot.clone())),
            );
            (columns, mem.next_seq, mem.live)
        };
        // Step 2: build the next epoch off-lock (readers keep the old one).
        let mut runs = old.runs.clone();
        runs.extend(columns.into_run(curve));
        restore_size_tiers(curve, &mut runs);
        // `live_at` was captured together with the memtable image: after
        // the flush, everything that was visible then lives in `runs`.
        let published = Arc::new(RunsEpoch {
            runs,
            live: live_at,
        });
        self.epoch.publish(Arc::clone(&published));
        // Step 3: drain exactly the flushed entries; concurrent writes
        // carry seq >= high_water and stay. `retain` is one ordered
        // cursor walk down the leaf chain — survivors compact in place,
        // no clone, no per-entry tree surgery.
        self.mem
            .lock()
            .expect("shard mem poisoned")
            .table
            .retain(|_, &(_, _, seq)| seq >= high_water);
        // Persist the publish and advance the WAL replay floor: every
        // record with seq < high_water is now covered by the run files.
        self.persist(&published, Some(high_water), false)?;
        if let Some(m) = self.metrics.as_deref() {
            m.flushes.inc();
            m.epoch_publishes.inc();
            m.flush_ns.record_since(start);
        }
        Ok(())
    }

    /// Major compaction: flush, then merge all runs into a single
    /// tombstone-free run and publish it as the next epoch.
    pub(crate) fn compact(&self, curve: &C) -> Result<(), WalError> {
        let start = Instant::now();
        let _maint = self.maint.lock().expect("shard maint poisoned");
        self.flush_locked(curve)?;
        let old = self.epoch.load();
        let published = old.runs.len() > 1;
        if published {
            let runs: Vec<_> = merge_runs(curve, &old.runs, true).into_iter().collect();
            debug_assert_eq!(
                runs.iter().map(|r| r.len()).sum::<usize>(),
                old.live,
                "after compaction every stored record is live"
            );
            let epoch = Arc::new(RunsEpoch {
                runs,
                live: old.live,
            });
            self.epoch.publish(Arc::clone(&epoch));
            // Compaction republishes existing data under a merged run:
            // the replay floor is unchanged (`None` keeps the stored
            // high-water — the memtable may hold live records above it).
            self.persist(&epoch, None, false)?;
        }
        if let Some(m) = self.metrics.as_deref() {
            m.compactions.inc();
            m.compact_ns.record_since(start);
            if published {
                m.epoch_publishes.inc();
            }
        }
        Ok(())
    }
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> Shard<D, T, C> {
    /// Replaces the shard's entire contents with one bottom run — the
    /// migration primitive `rebalance` uses while it holds the router's
    /// exclusive guard (no writer or reader can be in flight).
    ///
    /// On a durable shard the install persists with its replay floor at
    /// the current `next_seq` (every prior record is either in the new
    /// run or migrated to another shard). With `defer_manifest` the
    /// shard's manifest entry, the deletion of its old run files and its
    /// WAL prune wait for the engine-level
    /// [`commit_boundaries`](crate::wal::WalEngine::commit_boundaries) —
    /// a crash mid-rebalance then rolls every shard back together.
    pub(crate) fn install_bottom_run(
        &self,
        curve: &C,
        columns: RunColumns<D, T>,
        defer_manifest: bool,
    ) -> Result<(), WalError> {
        let runs: Vec<_> = columns.into_run(curve).into_iter().collect();
        debug_assert!(
            runs.iter().all(|run| run.live_len() == run.len()),
            "bottom run must be tombstone-free"
        );
        let live = runs.iter().map(|run| run.len()).sum();
        let _maint = self.maint.lock().expect("shard maint poisoned");
        let mut mem = self.mem.lock().expect("shard mem poisoned");
        let high_water = mem.next_seq;
        mem.table.clear();
        mem.live = live;
        let epoch = Arc::new(RunsEpoch { runs, live });
        self.epoch.publish(Arc::clone(&epoch));
        self.persist(&epoch, Some(high_water), defer_manifest)?;
        if let Some(m) = self.metrics.as_deref() {
            m.epoch_publishes.inc();
        }
        Ok(())
    }
}

/// Restores the size-tier invariant on a run stack: while an older run is
/// less than twice the size of the run stacked on it, the pair is merged
/// (newest wins; tombstones drop only when the merge produces the bottom
/// run). Keeps the run count at `O(log n)` and total merge work amortised
/// `O(log n)` moves per write. A flush applies it to a *copy* of the
/// published run stack before swapping the next epoch in.
fn restore_size_tiers<const D: usize, T: Clone, C: SpaceFillingCurve<D> + Clone>(
    curve: &C,
    runs: &mut Vec<Run<D, T, C>>,
) {
    while let [.., older, newer] = runs.as_slice() {
        if older.len() >= 2 * newer.len() {
            break;
        }
        let n = runs.len();
        let merged = merge_runs(curve, &runs[n - 2..], n == 2);
        runs.truncate(n - 2);
        runs.extend(merged);
    }
}
