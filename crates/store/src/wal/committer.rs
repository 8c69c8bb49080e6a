//! The group-commit engine: an in-memory ticketed commit queue, and one
//! *commit round* that moves it into the WAL files — run by whichever
//! thread needs durability now, or by a background thread when none does.
//!
//! Writers call [`Committer::append`]: push the encoded frame, take a
//! ticket. A writer that wants the durable ack (or a [`Committer::sync`]
//! barrier) then *leads* a round in its own thread: it takes the log
//! files — the baton, an `Option` in the queue state — and *everything*
//! pending in one swap, releases the queue, appends each shard's frames
//! to its open segment, fsyncs each touched segment once and publishes
//! the durable ticket. An acked write never changes threads. A writer
//! that finds the baton gone parks until the round in flight publishes;
//! the frames pushed meanwhile are the next leader's group — one fsync
//! amortised over all of them. The baton serialises rounds, so ticket
//! order is file order.
//!
//! The `wal-committer` thread is the *background* caller of the same
//! round and never wakes for a waiter. Its duties: full groups of
//! un-waited frames (`fsync_every` records or [`FSYNC_BYTES`] bytes),
//! the shutdown drain, and prune requests — which ride the same queue
//! but are processed *after* acks (the commit/prune split: reclaiming
//! space never sits on a writer's latency path). Nothing else makes an
//! un-waited frame durable: no clock runs, so a frame below both bounds
//! waits for the next leader, barrier or shutdown.
//!
//! Failure model: the first I/O error is stored and nothing is written
//! again. Every waiting and future append observes the same sticky
//! error; the durable ticket never moves past a failed group, so no
//! writer is ever acked for bytes that might not be on disk.
//!
//! Shutdown comes in two flavours: [`Committer::shutdown`] drains the
//! queue (every accepted append is made durable, then the thread exits)
//! and is what `Drop` uses; [`Committer::abort`] stops every caller
//! mid-flight without a final fsync — the crash lever the recovery
//! harness pulls.

use std::fs::{self, File};
use std::io::Write;
use std::mem;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use super::manifest::{segment_path, sync_dir};
use super::record::{segment_header, SEGMENT_HEADER};
use super::{WalConfig, WalError};
use crate::obs::WalMetrics;

/// The group byte bound, companion to `fsync_every`: a group is also
/// closed once this many frame bytes have accumulated since the last
/// fsync, so a burst of large coalesced batch frames does not balloon a
/// group (and its worst-case replay) while staying far under the
/// record-count bound.
const FSYNC_BYTES: u64 = 1 << 20;

/// One shard's share of a group: its frames' bytes in ticket order and
/// the highest record sequence number among them (segment pruning
/// metadata). Writers append into the queue's copy; a commit round swaps
/// it with the log's emptied one, so the buffers keep their capacity and
/// a frame is copied once, by the writer that encoded it.
#[derive(Default)]
struct ShardBatch {
    bytes: Vec<u8>,
    max_seq: u64,
}

/// Shared queue state behind the commit-queue mutex (a leaf lock: all
/// file I/O happens with it released).
struct QueueState {
    /// The frames accepted since the last round, one batch per shard.
    pending: Vec<ShardBatch>,
    /// Records across `pending` (a coalesced frame counts all of them).
    pending_records: usize,
    /// Frame bytes across `pending` — drives the byte-bound trigger.
    pending_bytes: u64,
    prunes: Vec<(usize, u64)>,
    /// Ticket handed to the *next* append (tickets start at 1).
    next_ticket: u64,
    /// Highest ticket whose group has been fsynced.
    durable: u64,
    /// The baton: whoever takes it out (under this lock) runs the one
    /// commit round in flight and puts it back when that round has
    /// published. `None` = a round is running.
    log: Option<Log>,
    /// Threads parked on `done`; a publish with none skips the signal.
    waiters: usize,
    /// The background thread is parked on `work`. Nobody pays the wake
    /// syscall while it is awake — it re-checks the queue before ever
    /// sleeping.
    idle: bool,
    shutdown: bool,
    abort: bool,
    /// Sticky first failure; cloned to every affected caller.
    error: Option<WalError>,
    metrics: Option<Arc<WalMetrics>>,
}

/// Every shard's log files and the account of what they hold that is
/// not fsynced yet. With nobody owed an ack the fsync is deferred across
/// rounds until `fsync_every` records or [`FSYNC_BYTES`] bytes have
/// accumulated — the group-commit amortisation, with a byte bound so
/// huge coalesced frames don't balloon a group.
struct Log {
    files: Vec<ShardFiles>,
    unsynced_records: usize,
    unsynced_bytes: u64,
    /// The highest ticket the writes so far cover.
    written_ticket: u64,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals the background thread: its kind of work arrived.
    work: Condvar,
    /// Signals parked writers: a round published (the durable ticket
    /// advanced, the log died, or just the baton came home).
    done: Condvar,
    /// `fsync_every` floored at 1.
    cfg: WalConfig,
    dims: u8,
    /// Metrics are attached: only then does an append read the clock.
    metered: AtomicBool,
}

/// What recovery found on disk for one shard, handed to the committer so
/// pruning keeps working across restarts. Pre-existing segments are
/// never appended to — the first post-recovery append opens a fresh one.
#[derive(Debug, Clone)]
pub(crate) struct ShardLogState {
    pub(crate) dir: PathBuf,
    /// `(segment id, max record seq)` for each surviving segment, or
    /// `None` for a segment with no complete records.
    pub(crate) segments: Vec<(u64, Option<u64>)>,
    pub(crate) next_segment_id: u64,
}

/// A sealed or inherited segment eligible for pruning.
struct SealedSeg {
    path: PathBuf,
    /// Highest record seq in the segment; `None` = no complete records
    /// (prunable under any high-water).
    max_seq: Option<u64>,
}

/// One shard's log files, reached only through the baton.
struct ShardFiles {
    dir: PathBuf,
    open: Option<OpenSeg>,
    sealed: Vec<SealedSeg>,
    next_id: u64,
    /// The group being written, this shard's share; empty, capacity
    /// kept, between rounds.
    batch: ShardBatch,
    /// The open segment has bytes written to the OS but not yet
    /// fsynced (records under those bytes are not durable/acked yet).
    dirty: bool,
}

struct OpenSeg {
    file: File,
    path: PathBuf,
    bytes: u64,
    max_seq: u64,
}

impl ShardFiles {
    fn segment_count(&self) -> usize {
        self.sealed.len() + usize::from(self.open.is_some())
    }

    /// Appends the shard's batch to the open segment (creating or
    /// rotating as needed). The bytes reach the OS but are **not**
    /// fsynced — [`sync`](Self::sync) makes them durable.
    fn write(&mut self, dims: u8, segment_bytes: u64) -> Result<(), WalError> {
        debug_assert!(!self.batch.bytes.is_empty());
        // Rotate a full segment before, not after, writing: a batch is
        // never split across two files. A sealed segment is always
        // synced — records must never become durable out of order.
        if let Some(open) = &mut self.open {
            if open.bytes >= segment_bytes {
                if self.dirty {
                    open.file
                        .sync_data()
                        .map_err(|e| WalError::io(&open.path, &e))?;
                    self.dirty = false;
                }
                let open = self.open.take().expect("just checked");
                self.sealed.push(SealedSeg {
                    path: open.path,
                    max_seq: Some(open.max_seq),
                });
            }
        }
        if self.open.is_none() {
            let id = self.next_id;
            self.next_id += 1;
            let path = segment_path(&self.dir, id);
            let mut file = File::create(&path).map_err(|e| WalError::io(&path, &e))?;
            file.write_all(&segment_header(dims))
                .map_err(|e| WalError::io(&path, &e))?;
            sync_dir(&self.dir)?;
            self.open = Some(OpenSeg {
                file,
                path,
                bytes: SEGMENT_HEADER as u64,
                max_seq: 0,
            });
        }
        let open = self.open.as_mut().expect("ensured above");
        open.file
            .write_all(&self.batch.bytes)
            .map_err(|e| WalError::io(&open.path, &e))?;
        open.bytes += self.batch.bytes.len() as u64;
        open.max_seq = open.max_seq.max(self.batch.max_seq);
        self.batch.bytes.clear();
        self.batch.max_seq = 0;
        self.dirty = true;
        Ok(())
    }

    /// Fsyncs the open segment if it has unsynced bytes.
    fn sync(&mut self) -> Result<(), WalError> {
        if !self.dirty {
            return Ok(());
        }
        let open = self.open.as_mut().expect("dirty implies an open segment");
        open.file
            .sync_data()
            .map_err(|e| WalError::io(&open.path, &e))?;
        self.dirty = false;
        Ok(())
    }

    /// Deletes every segment wholly below `high_water`. Returns how many
    /// files were removed. Deletion failures are swallowed: a leaked
    /// segment only costs space and is re-pruned (or GC'd at recovery).
    fn prune(&mut self, high_water: u64) -> usize {
        let mut removed = 0;
        self.sealed.retain(|seg| {
            let dead = seg.max_seq.is_none_or(|s| s < high_water);
            if dead && fs::remove_file(&seg.path).is_ok() {
                removed += 1;
                return false;
            }
            true
        });
        // An open segment whose every record is below the high-water is
        // just as dead; drop the handle and the file together (any
        // unsynced bytes it held are below the high-water too — already
        // durable in a published run).
        if let Some(open) = &self.open {
            if open.bytes > SEGMENT_HEADER as u64 && open.max_seq < high_water {
                let open = self.open.take().expect("just checked");
                self.dirty = false;
                drop(open.file);
                if fs::remove_file(&open.path).is_ok() {
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// Handle to the commit queue and its background thread; see the module
/// docs.
pub(crate) struct Committer {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Committer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.lock();
        f.debug_struct("Committer")
            .field("next_ticket", &st.next_ticket)
            .field("durable", &st.durable)
            .field("pending_records", &st.pending_records)
            .field("error", &st.error)
            .finish()
    }
}

impl Committer {
    /// Opens the commit queue over the per-shard log states recovery (or
    /// a fresh open) produced and spawns its background thread.
    pub(crate) fn spawn(config: &WalConfig, dims: u8, shards: Vec<ShardLogState>) -> Self {
        let pending = shards.iter().map(|_| ShardBatch::default()).collect();
        let files: Vec<ShardFiles> = shards
            .into_iter()
            .map(|s| ShardFiles {
                sealed: s
                    .segments
                    .iter()
                    .map(|&(id, max_seq)| SealedSeg {
                        path: segment_path(&s.dir, id),
                        max_seq,
                    })
                    .collect(),
                next_id: s.next_segment_id,
                dir: s.dir,
                open: None,
                batch: ShardBatch::default(),
                dirty: false,
            })
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                pending,
                pending_records: 0,
                pending_bytes: 0,
                prunes: Vec::new(),
                next_ticket: 1,
                durable: 0,
                log: Some(Log {
                    files,
                    unsynced_records: 0,
                    unsynced_bytes: 0,
                    written_ticket: 0,
                }),
                waiters: 0,
                idle: false,
                shutdown: false,
                abort: false,
                error: None,
                metrics: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cfg: WalConfig {
                fsync_every: config.fsync_every.max(1),
                ..config.clone()
            },
            dims,
            metered: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("wal-committer".into())
            .spawn(move || thread_shared.run_background())
            .expect("spawn wal committer thread");
        Committer {
            shared,
            handle: Mutex::new(Some(handle)),
        }
    }

    /// Installs the metric handles (round-side counters are recorded
    /// from the next group on).
    pub(crate) fn set_metrics(&self, metrics: Arc<WalMetrics>) {
        self.shared.lock().metrics = Some(metrics);
        self.shared.metered.store(true, Ordering::Relaxed);
    }

    /// Enqueues one framed entry for `shard` carrying `records` records
    /// (one for a plain frame, the batch count for a coalesced frame).
    /// With `wait`, returns once the frame's group is fsynced (the
    /// durable ack) — by this thread, if no round is in flight — or the
    /// log dies.
    pub(crate) fn append(
        &self,
        shard: usize,
        seq: u64,
        records: usize,
        frame: Vec<u8>,
        wait: bool,
    ) -> Result<(), WalError> {
        debug_assert!(records > 0, "an fsync is owed per record, not per frame");
        let start = self
            .shared
            .metered
            .load(Ordering::Relaxed)
            .then(Instant::now);
        let mut st = self.shared.lock();
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        if st.shutdown || st.abort {
            return Err(WalError::Shutdown);
        }
        st.pending_records += records;
        st.pending_bytes += frame.len() as u64;
        let batch = &mut st.pending[shard];
        batch.bytes.extend_from_slice(&frame);
        batch.max_seq = batch.max_seq.max(seq);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        if wait {
            st = self.shared.wait_durable(st, ticket)?;
        } else {
            // Un-waited frames below the group bounds just accumulate —
            // the next leader, full group, barrier or shutdown picks
            // them up.
            self.shared.wake_background(&st);
        }
        let metrics = st.metrics.clone();
        drop(st);
        if let (Some(m), Some(start)) = (metrics, start) {
            m.append_ns.record_since(start);
        }
        Ok(())
    }

    /// The durability barrier: returns once every append accepted before
    /// this call is fsynced, leading the round for whatever is not.
    pub(crate) fn sync(&self) -> Result<(), WalError> {
        let st = self.shared.lock();
        let target = st.next_ticket - 1;
        self.shared.wait_durable(st, target).map(drop)
    }

    /// Requests deletion of `shard`'s segments wholly below
    /// `high_water`. Returns immediately; the background thread prunes
    /// after its next round's acks.
    pub(crate) fn request_prune(&self, shard: usize, high_water: u64) {
        let mut st = self.shared.lock();
        if st.shutdown || st.abort {
            return;
        }
        st.prunes.push((shard, high_water));
        self.shared.wake_background(&st);
    }

    /// Clean shutdown: drain every accepted append to disk, then join
    /// the thread. Idempotent.
    pub(crate) fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        self.join();
    }

    /// Live segment files across all shards (sealed, inherited, open):
    /// the `wal.segments` gauge. The lists travel with the baton, so this
    /// parks while a round holds it — a group write, an fsync per touched
    /// shard, the background thread's prunes — and for more rounds if
    /// acked writers take the baton first. Call it with no lock held.
    pub(crate) fn segment_count(&self) -> i64 {
        let mut st = self.shared.lock();
        while st.log.is_none() {
            st = self.shared.park(st);
        }
        st.log.as_ref().map_or(0, Log::segment_count)
    }

    /// The highest fsynced ticket — test-only visibility into group
    /// formation.
    #[cfg(test)]
    fn durable_ticket(&self) -> u64 {
        self.shared.lock().durable
    }

    /// Simulated crash: stop every caller *without* draining or a final
    /// fsync. Pending unacked appends are abandoned exactly as a power
    /// cut would abandon them. Idempotent.
    pub(crate) fn abort(&self) {
        let mut st = self.shared.lock();
        st.abort = true;
        self.shared.work.notify_all();
        self.shared.done.notify_all();
        // Nobody leads past the flag, but a round in flight still owns
        // the files: no byte may reach a segment after this returns.
        while st.log.is_none() {
            st = self.shared.park(st);
        }
        drop(st);
        self.join();
    }

    fn join(&self) {
        let handle = self
            .handle
            .lock()
            .expect("committer handle poisoned")
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("commit queue poisoned")
    }

    /// Sleeps until the next publish.
    fn park<'a>(&self, mut st: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
        st.waiters += 1;
        st = self.done.wait(st).expect("commit queue poisoned");
        st.waiters -= 1;
        st
    }

    /// Returns once `ticket` is durable: leads a commit round when none
    /// is in flight, otherwise sleeps until the one in flight publishes
    /// and looks again.
    fn wait_durable<'a>(
        &'a self,
        mut st: MutexGuard<'a, QueueState>,
        ticket: u64,
    ) -> Result<MutexGuard<'a, QueueState>, WalError> {
        while st.durable < ticket {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            if st.abort {
                return Err(WalError::Shutdown);
            }
            st = if st.log.is_some() {
                self.commit_round(st, true, true)
            } else {
                self.park(st)
            };
        }
        Ok(st)
    }

    /// Wakes the background thread when it is parked, its kind of work
    /// is due — shutdown, a prune or a full group of un-waited frames —
    /// and the baton is home: whoever holds it asks again when it
    /// publishes.
    fn wake_background(&self, st: &QueueState) {
        if st.idle && st.log.is_some() && st.background_due(&self.cfg) {
            self.work.notify_one();
        }
    }

    /// One commit round, the only code that writes the log: takes the
    /// baton and everything pending, then — queue released — appends the
    /// group, fsyncs if `sync` or a group bound says so, publishes the
    /// durable ticket or the sticky error, prunes (the background thread
    /// only; `led` marks a writer's round) and puts the baton back.
    fn commit_round<'a>(
        &'a self,
        mut st: MutexGuard<'a, QueueState>,
        mut sync: bool,
        led: bool,
    ) -> MutexGuard<'a, QueueState> {
        let mut log = st.log.take().expect("callers check the baton is home");
        for (pending, f) in st.pending.iter_mut().zip(&mut log.files) {
            mem::swap(pending, &mut f.batch);
        }
        let records = mem::take(&mut st.pending_records);
        let bytes = mem::take(&mut st.pending_bytes);
        let prunes = if led {
            Vec::new()
        } else {
            mem::take(&mut st.prunes)
        };
        // Every ticket issued so far is either already durable, covered
        // by an earlier (possibly unsynced) write, or in the batch
        // (tickets are only issued with a push).
        let high_ticket = st.next_ticket - 1;
        let metrics = st.metrics.clone();
        drop(st);

        let metrics = metrics.as_deref();
        let mut result = log.write_group(self.dims, self.cfg.segment_bytes);
        let mut synced = false;
        if result.is_ok() {
            if records > 0 {
                log.unsynced_records += records;
                log.unsynced_bytes += bytes;
                log.written_ticket = high_ticket;
                if let Some(m) = metrics {
                    m.records.add(records as u64);
                    m.bytes.add(bytes);
                }
            }
            sync |=
                log.unsynced_records >= self.cfg.fsync_every || log.unsynced_bytes >= FSYNC_BYTES;
            if sync && log.unsynced_records > 0 {
                result = log.sync_group(metrics, led);
                synced = result.is_ok();
            }
        }
        let mut st = self.lock();
        match result {
            Ok(()) if synced => st.durable = log.written_ticket,
            Ok(()) => {}
            Err(e) => {
                st.error.get_or_insert(e);
            }
        }
        if !prunes.is_empty() && st.error.is_none() {
            // The prune side of the commit/prune split: space
            // reclamation happens only after acks went out.
            if st.waiters > 0 {
                self.done.notify_all();
            }
            drop(st);
            let removed: usize = prunes.iter().map(|&(j, hw)| log.files[j].prune(hw)).sum();
            if let Some(m) = metrics {
                m.prunes.add(removed as u64);
            }
            st = self.lock();
        }
        st.log = Some(log);
        if st.waiters > 0 {
            self.done.notify_all();
        }
        self.wake_background(&st);
        st
    }

    /// The background thread: runs the rounds nobody waits for (see the
    /// module docs) until shutdown has drained the queue or an abort.
    fn run_background(&self) {
        let mut st = self.lock();
        loop {
            // After the first error nothing becomes durable again.
            let dead = st.error.is_some();
            let behind = !dead && st.durable + 1 < st.next_ticket;
            if st.abort || (st.shutdown && (dead || !behind && st.prunes.is_empty())) {
                return;
            }
            if !dead && st.log.is_some() && st.background_due(&self.cfg) {
                // The drain makes the whole backlog durable, not just
                // written.
                let sync = st.shutdown;
                st = self.commit_round(st, sync, false);
                continue;
            }
            st.idle = true;
            st = self.work.wait(st).expect("commit queue poisoned");
            st.idle = false;
        }
    }
}

impl QueueState {
    /// Work that is the background thread's: the shutdown drain, a prune,
    /// a full group (by records or bytes) of frames nobody waits for.
    fn background_due(&self, cfg: &WalConfig) -> bool {
        self.shutdown
            || !self.prunes.is_empty()
            || self.pending_records >= cfg.fsync_every
            || self.pending_bytes >= FSYNC_BYTES
    }
}

impl Log {
    fn segment_count(&self) -> i64 {
        self.files
            .iter()
            .map(ShardFiles::segment_count)
            .sum::<usize>() as i64
    }

    /// Appends the group: each shard's batch, one
    /// `write_all` per touched shard. No fsync — that is
    /// [`sync_group`](Self::sync_group)'s job, possibly several rounds
    /// later.
    fn write_group(&mut self, dims: u8, segment_bytes: u64) -> Result<(), WalError> {
        for f in self.files.iter_mut().filter(|f| !f.batch.bytes.is_empty()) {
            f.write(dims, segment_bytes)?;
        }
        Ok(())
    }

    /// Fsyncs every shard with unsynced bytes — one group commit
    /// covering every record written since the last one.
    fn sync_group(&mut self, metrics: Option<&WalMetrics>, led: bool) -> Result<(), WalError> {
        let fsync_start = Instant::now();
        for f in self.files.iter_mut() {
            f.sync()?;
        }
        if let Some(m) = metrics {
            m.fsync_ns.record_since(fsync_start);
            m.groups.inc();
            if led {
                m.groups_led.inc();
            }
            m.group_size.record(self.unsynced_records as u64);
        }
        self.unsynced_records = 0;
        self.unsynced_bytes = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::record::{encode_unsealed_batch, parse_frame, seal_frames, FrameOutcome};
    use super::*;
    use sfc_core::Point;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "sfc-committer-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create test dir");
            TestDir(dir)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn frame(seq: u64, payload_len: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let payload = vec![0xabu8; payload_len];
        let record = (&Point::new([1u32, 2]), Some(&payload));
        encode_unsealed_batch(&mut buf, std::iter::once(record));
        seal_frames::<2>(&mut buf, seq);
        buf
    }

    /// A committer over one fresh log per directory in `dirs`.
    fn spawn_shards(config: &WalConfig, dirs: &[&Path]) -> Committer {
        let logs = dirs.iter().map(|dir| ShardLogState {
            dir: dir.to_path_buf(),
            segments: Vec::new(),
            next_segment_id: 0,
        });
        Committer::spawn(config, 2, logs.collect())
    }

    fn spawn_one_shard(config: &WalConfig, dir: &Path) -> Committer {
        spawn_shards(config, &[dir])
    }

    /// The seq of every frame in `dir`'s segments, in file order. Reads
    /// what the OS holds — no barrier, no help from the committer.
    fn seqs_on_file(dir: &Path) -> Vec<u64> {
        let mut segments: Vec<PathBuf> = fs::read_dir(dir)
            .expect("list segments")
            .map(|entry| entry.expect("dir entry").path())
            .collect();
        segments.sort();
        let mut seqs = Vec::new();
        for path in segments {
            let buf = fs::read(&path).expect("read segment");
            let mut off = SEGMENT_HEADER;
            while off < buf.len() {
                match parse_frame(&buf, off) {
                    FrameOutcome::Ok { body, end } => {
                        seqs.push(u64::from_le_bytes(body[1..9].try_into().expect("8 bytes")));
                        off = end;
                    }
                    bad => panic!("{} is damaged at byte {off}: {bad:?}", path.display()),
                }
            }
        }
        seqs
    }

    /// Polls `met` until it holds; panics with `what` after 10 s.
    fn wait_until(what: &str, mut met: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !met() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Crossing [`FSYNC_BYTES`] must close a group early even though no
    /// writer waits and the record-count bound is nowhere near met.
    #[test]
    fn oversized_batch_forces_a_group_by_bytes() {
        let dir = TestDir::new("bytes");
        let config = WalConfig::new(&dir.0).fsync_every(1_000_000);
        let committer = spawn_one_shard(&config, &dir.0);

        // Below the byte bound nothing forces a group: the ticket must
        // stay parked at zero (a spurious committer wakeup re-checks the
        // conditions and goes back to sleep).
        let small = frame(1, 100);
        assert!(small.len() < 512);
        committer.append(0, 1, 1, small, false).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            committer.durable_ticket(),
            0,
            "a sub-bound un-waited append must not trigger a group"
        );

        // One oversized coalesced frame blows through the byte bound;
        // the committer must sync without any waiter or barrier.
        let big = frame(2, FSYNC_BYTES as usize);
        committer.append(0, 2, 64, big, false).unwrap();
        wait_until("byte-bound group never became durable", || {
            committer.durable_ticket() == 2
        });
        committer.shutdown();
    }

    /// Protocol (a): an ack means the frame is in the file *now*, and a
    /// shard's file holds its frames in ticket order, whoever led the
    /// rounds. Seqs are drawn under a per-shard lock held across the
    /// acked append, so seq order is ticket order; the two shards'
    /// writers meet in the commit queue as leader and follower, and the
    /// 4 KiB segments rotate under them.
    #[test]
    fn ack_means_on_file_and_files_keep_ticket_order() {
        let dir = TestDir::new("acked");
        let dirs = [dir.0.join("s0"), dir.0.join("s1")];
        for d in &dirs {
            fs::create_dir_all(d).unwrap();
        }
        let config = WalConfig::new(&dir.0).segment_bytes(4 << 10);
        let committer = spawn_shards(&config, &[&dirs[0], &dirs[1]]);
        let next_seq = [Mutex::new(1u64), Mutex::new(1u64)];
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (committer, dirs, next_seq) = (&committer, &dirs, &next_seq);
                s.spawn(move || {
                    let shard = t % 2;
                    for _ in 0..500 {
                        let mut next = next_seq[shard].lock().unwrap();
                        let seq = *next;
                        *next += 1;
                        committer
                            .append(shard, seq, 1, frame(seq, 16), true)
                            .unwrap();
                        let on_file = seqs_on_file(&dirs[shard]);
                        assert!(
                            on_file.iter().copied().eq(1..=seq),
                            "shard {shard}: acked seq {seq}, file ends {:?}",
                            &on_file[on_file.len().saturating_sub(4)..]
                        );
                    }
                });
            }
        });
        assert_eq!(committer.durable_ticket(), 2000);
        for d in &dirs {
            assert!(fs::read_dir(d).unwrap().count() > 1, "segments rotated");
        }
        committer.shutdown();
    }

    /// Protocol (b): a full group of frames nobody waits for never sits
    /// in the queue with the background thread asleep — in particular
    /// not when it filled up while a writer's round had the baton, where
    /// only that writer's publish can wake the thread. No barrier is
    /// ever issued; after each burst fewer than one group may stay
    /// behind.
    #[test]
    fn full_unwaited_groups_commit_while_a_writer_leads() {
        const EVERY: usize = 8;
        let dir = TestDir::new("liveness");
        let config = WalConfig::new(&dir.0).fsync_every(EVERY);
        let committer = spawn_one_shard(&config, &dir.0);
        let seq = AtomicU64::new(1);
        let next_frame = || {
            let seq = seq.fetch_add(1, Ordering::Relaxed);
            (seq, frame(seq, 16))
        };
        // Channels, not a barrier: a failed assertion below hangs up and
        // the leader thread ends instead of waiting for ever.
        let (go, started) = mpsc::channel::<()>();
        let (acked_tx, acked) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Owned, so that a leader that dies hangs up too.
                let acked_tx = acked_tx;
                for () in started {
                    let (seq, frame) = next_frame();
                    committer.append(0, seq, 1, frame, true).unwrap();
                    let _ = acked_tx.send(());
                }
            });
            for _ in 0..200 {
                go.send(()).unwrap();
                // Aim the burst at the window in which the leader is out
                // with the baton (it may already be back: bounded).
                for _ in 0..1000 {
                    if committer.shared.lock().log.is_none() {
                        break;
                    }
                    std::hint::spin_loop();
                }
                for _ in 0..3 * EVERY {
                    let (seq, frame) = next_frame();
                    committer.append(0, seq, 1, frame, false).unwrap();
                }
                acked.recv().unwrap();
                wait_until("a full un-waited group was left in the queue", || {
                    let st = committer.shared.lock();
                    st.next_ticket - 1 - st.durable < EVERY as u64
                });
            }
            drop(go);
        });
        committer.shutdown();
    }

    /// Protocol (c): the first I/O error is everyone's error. Two writers
    /// park behind a held baton over a log whose directory is gone; when
    /// it comes home one of them leads the failing round and the other,
    /// parked behind it, gets the same error — as do a later append and
    /// barrier — and shutdown still returns.
    #[test]
    fn first_error_reaches_leader_follower_and_every_later_call() {
        let dir = TestDir::new("sticky");
        let shard_dir = dir.0.join("gone");
        fs::create_dir_all(&shard_dir).unwrap();
        let committer = &spawn_one_shard(&WalConfig::new(&dir.0), &shard_dir);
        fs::remove_dir_all(&shard_dir).unwrap();
        let held = committer.shared.lock().log.take();
        let errors: Vec<WalError> = std::thread::scope(|s| {
            let writers: Vec<_> = (1..=2u64)
                .map(|seq| s.spawn(move || committer.append(0, seq, 1, frame(seq, 16), true)))
                .collect();
            wait_until("both writers park", || committer.shared.lock().waiters == 2);
            // What a round does when it publishes.
            let mut st = committer.shared.lock();
            st.log = held;
            committer.shared.done.notify_all();
            drop(st);
            let join = |w: std::thread::ScopedJoinHandle<'_, Result<(), WalError>>| {
                w.join().unwrap().expect_err("the log's directory is gone")
            };
            writers.into_iter().map(join).collect()
        });
        assert!(matches!(errors[0], WalError::Io { .. }), "{:?}", errors[0]);
        assert_eq!(errors[0], errors[1], "leader and follower disagree");
        let later = committer.append(0, 3, 1, frame(3, 16), false);
        assert_eq!(later, Err(errors[0].clone()));
        assert_eq!(committer.sync(), Err(errors[0].clone()));
        assert_eq!(committer.durable_ticket(), 0);
        committer.shutdown();
    }

    /// With nobody waiting and both group bounds far off, a lone frame
    /// stays queued until something drains it.
    #[test]
    fn a_lone_unwaited_frame_waits_for_the_drain() {
        let dir = TestDir::new("lone");
        let config = WalConfig::new(&dir.0).fsync_every(1_000_000);
        let committer = spawn_one_shard(&config, &dir.0);
        committer.append(0, 1, 1, frame(1, 16), false).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(committer.durable_ticket(), 0, "no bound, no group");
        committer.shutdown();
        assert_eq!(committer.durable_ticket(), 1, "shutdown drains it");
    }
}
