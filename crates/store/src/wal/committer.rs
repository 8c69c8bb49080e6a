//! The group-commit engine: an in-memory ticketed commit queue drained
//! by one dedicated committer thread that owns every WAL file handle.
//!
//! Writers call [`Committer::append`] — push the encoded frame, take a
//! ticket, optionally wait until the durable ticket passes theirs. The
//! committer takes *everything* pending in one swap, appends each
//! shard's frames to its open segment, fsyncs each touched segment once,
//! then advances the durable ticket and wakes all waiters: one fsync
//! amortised over the whole group. Prune requests ride the same queue
//! but are processed *after* acks (the commit/prune split — reclaiming
//! space never sits on a writer's latency path).
//!
//! Failure model: the first I/O error is stored and the committer parks.
//! Every waiting and future append observes the same sticky error; the
//! durable ticket never moves past a failed group, so no writer is ever
//! acked for bytes that might not be on disk.
//!
//! Shutdown comes in two flavours: [`Committer::shutdown`] drains the
//! queue (every accepted append is made durable, then the thread exits)
//! and is what `Drop` uses; [`Committer::abort`] kills the thread
//! mid-flight without a final fsync — the crash lever the recovery
//! harness pulls.

use std::collections::BTreeSet;
use std::fs::{self, File};
use std::io::Write;
use std::mem;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::manifest::{segment_path, sync_dir};
use super::record::{segment_header, SEGMENT_HEADER};
use super::{WalConfig, WalError};
use crate::obs::WalMetrics;

/// One queued append: target shard, the highest record sequence number
/// in the frame (for segment pruning metadata), how many records the
/// frame carries (one for a v1 frame, the batch count for a coalesced
/// v2 frame), and the fully framed bytes.
struct Pending {
    shard: usize,
    seq: u64,
    records: usize,
    frame: Vec<u8>,
}

/// Shared queue state behind the commit-queue mutex (a leaf lock: all
/// file I/O happens with it released).
struct QueueState {
    pending: Vec<Pending>,
    /// Records across `pending` (a coalesced frame counts all of them).
    pending_records: usize,
    /// Frame bytes across `pending` — drives the byte-bound trigger.
    pending_bytes: u64,
    prunes: Vec<(usize, u64)>,
    /// Ticket handed to the *next* append (tickets start at 1).
    next_ticket: u64,
    /// Highest ticket whose group has been fsynced.
    durable: u64,
    /// A `sync()` barrier is waiting: skip the batching linger.
    hurry: bool,
    /// Writers currently blocked waiting for a durable ack. While zero,
    /// the committer may defer the fsync across drains until
    /// `fsync_every` records have accumulated (nobody is owed an ack).
    waiters: usize,
    /// The committer is parked on the work condvar. Writers skip the
    /// wake syscall while it is awake — it re-checks the queue before
    /// ever sleeping.
    idle: bool,
    shutdown: bool,
    abort: bool,
    /// Sticky first failure; cloned to every affected caller.
    error: Option<WalError>,
    metrics: Option<Arc<WalMetrics>>,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals the committer: work arrived / mode changed.
    work: Condvar,
    /// Signals writers: the durable ticket advanced (or the log died).
    done: Condvar,
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

/// The committer thread's exclusive view of one shard's log files.
struct ShardFiles {
    dir: PathBuf,
    open: Option<OpenSeg>,
    sealed: Vec<SealedSeg>,
    next_id: u64,
    /// Per-batch scratch: frames accumulated for this shard.
    buf: Vec<u8>,
    buf_max_seq: u64,
    buf_any: bool,
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

    /// Appends the batch scratch buffer to the open segment (creating or
    /// rotating as needed). The bytes reach the OS but are **not**
    /// fsynced — [`sync`](Self::sync) makes them durable.
    fn write(&mut self, dims: u8, segment_bytes: u64) -> Result<(), WalError> {
        debug_assert!(self.buf_any);
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
            .write_all(&self.buf)
            .map_err(|e| WalError::io(&open.path, &e))?;
        open.bytes += self.buf.len() as u64;
        open.max_seq = open.max_seq.max(self.buf_max_seq);
        self.buf.clear();
        self.buf_any = false;
        self.buf_max_seq = 0;
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

/// Handle to the committer thread; see the module docs.
pub(crate) struct Committer {
    shared: Arc<Shared>,
    handle: Mutex<Option<JoinHandle<()>>>,
    /// Mirrors the thread's group bound: writers wake the committer
    /// only when a group is full (or they wait on an ack).
    fsync_every: usize,
    /// Byte-bound companion to `fsync_every`: a group also closes once
    /// this many frame bytes are queued/unsynced. Zero disables it.
    fsync_bytes: u64,
    /// `max_batch_delay > 0`: queued records have a staleness bound, so
    /// the committer must wake on the first queued record to arm it.
    timed: bool,
}

impl std::fmt::Debug for Committer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.shared.state.lock().expect("commit queue poisoned");
        f.debug_struct("Committer")
            .field("next_ticket", &st.next_ticket)
            .field("durable", &st.durable)
            .field("pending", &st.pending.len())
            .field("error", &st.error)
            .finish()
    }
}

impl Committer {
    /// Spawns the committer thread over the per-shard log states
    /// recovery (or a fresh open) produced.
    pub(crate) fn spawn(config: &WalConfig, dims: u8, shards: Vec<ShardLogState>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                pending: Vec::new(),
                pending_records: 0,
                pending_bytes: 0,
                prunes: Vec::new(),
                next_ticket: 1,
                durable: 0,
                hurry: false,
                waiters: 0,
                idle: false,
                shutdown: false,
                abort: false,
                error: None,
                metrics: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
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
                buf: Vec::new(),
                buf_max_seq: 0,
                buf_any: false,
                dirty: false,
            })
            .collect();
        let thread_shared = Arc::clone(&shared);
        let fsync_every = config.fsync_every.max(1);
        let fsync_bytes = config.fsync_bytes;
        let max_batch_delay = config.max_batch_delay;
        let segment_bytes = config.segment_bytes;
        let handle = std::thread::Builder::new()
            .name("wal-committer".into())
            .spawn(move || {
                run_committer(
                    &thread_shared,
                    files,
                    dims,
                    fsync_every,
                    fsync_bytes,
                    max_batch_delay,
                    segment_bytes,
                );
            })
            .expect("spawn wal committer thread");
        Committer {
            shared,
            handle: Mutex::new(Some(handle)),
            fsync_every,
            fsync_bytes,
            timed: max_batch_delay > Duration::ZERO,
        }
    }

    /// Installs the metric handles (committer-side counters are recorded
    /// by the thread from the next group on).
    pub(crate) fn set_metrics(&self, metrics: Arc<WalMetrics>) {
        self.shared
            .state
            .lock()
            .expect("commit queue poisoned")
            .metrics = Some(metrics);
    }

    /// Enqueues one framed entry for `shard` carrying `records` records
    /// (one for a plain frame, the batch count for a coalesced frame).
    /// With `wait`, blocks until the frame's group is fsynced (the
    /// durable ack) or the log dies.
    pub(crate) fn append(
        &self,
        shard: usize,
        seq: u64,
        records: usize,
        frame: Vec<u8>,
        wait: bool,
    ) -> Result<(), WalError> {
        let start = Instant::now();
        let mut st = self.shared.state.lock().expect("commit queue poisoned");
        if let Some(e) = &st.error {
            return Err(e.clone());
        }
        if st.shutdown || st.abort {
            return Err(WalError::Shutdown);
        }
        st.pending_records += records;
        st.pending_bytes += frame.len() as u64;
        st.pending.push(Pending {
            shard,
            seq,
            records,
            frame,
        });
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        // Wake the committer only when there is a reason for it to run
        // *now*: this append wants an ack, the group is full (by record
        // count or bytes), or a staleness clock must be armed for the
        // first queued frame. Un-waited frames below the group bounds
        // just accumulate — the next full group, barrier, or shutdown
        // picks them up. (And the wake syscall only matters when the
        // committer is actually parked; while awake it re-checks the
        // queue — and the waiter count, registered below under this same
        // lock hold — before ever sleeping.)
        if st.idle
            && (wait
                || st.pending_records >= self.fsync_every
                || (self.fsync_bytes > 0 && st.pending_bytes >= self.fsync_bytes)
                || (self.timed && st.pending.len() == 1))
        {
            self.shared.work.notify_one();
        }
        if wait {
            st.waiters += 1;
            while st.durable < ticket {
                let died = if st.error.is_some() {
                    st.error.clone()
                } else if st.abort {
                    Some(WalError::Shutdown)
                } else {
                    None
                };
                if let Some(e) = died {
                    st.waiters -= 1;
                    return Err(e);
                }
                st = self.shared.done.wait(st).expect("commit queue poisoned");
            }
            st.waiters -= 1;
        }
        let metrics = st.metrics.clone();
        drop(st);
        if let Some(m) = metrics {
            m.append_ns.record_since(start);
        }
        Ok(())
    }

    /// The durability barrier: returns once every append accepted before
    /// this call is fsynced. Skips the batching linger for the final
    /// group.
    pub(crate) fn sync(&self) -> Result<(), WalError> {
        let mut st = self.shared.state.lock().expect("commit queue poisoned");
        let target = st.next_ticket - 1;
        while st.durable < target {
            if let Some(e) = &st.error {
                return Err(e.clone());
            }
            if st.abort {
                return Err(WalError::Shutdown);
            }
            st.hurry = true;
            self.shared.work.notify_one();
            st = self.shared.done.wait(st).expect("commit queue poisoned");
        }
        match &st.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Requests deletion of `shard`'s segments wholly below
    /// `high_water`. Returns immediately; the committer prunes after the
    /// next group commit.
    pub(crate) fn request_prune(&self, shard: usize, high_water: u64) {
        let mut st = self.shared.state.lock().expect("commit queue poisoned");
        if st.shutdown || st.abort {
            return;
        }
        st.prunes.push((shard, high_water));
        if st.idle {
            self.shared.work.notify_one();
        }
    }

    /// Clean shutdown: drain every accepted append to disk, then join
    /// the thread. Idempotent.
    pub(crate) fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().expect("commit queue poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        if let Some(h) = self
            .handle
            .lock()
            .expect("committer handle poisoned")
            .take()
        {
            let _ = h.join();
        }
    }

    /// The highest fsynced ticket — test-only visibility into group
    /// formation.
    #[cfg(test)]
    fn durable_ticket(&self) -> u64 {
        self.shared
            .state
            .lock()
            .expect("commit queue poisoned")
            .durable
    }

    /// Simulated crash: stop the committer *without* draining or a final
    /// fsync. Pending unacked appends are abandoned exactly as a power
    /// cut would abandon them. Idempotent.
    pub(crate) fn abort(&self) {
        {
            let mut st = self.shared.state.lock().expect("commit queue poisoned");
            st.abort = true;
            self.shared.work.notify_all();
            self.shared.done.notify_all();
        }
        if let Some(h) = self
            .handle
            .lock()
            .expect("committer handle poisoned")
            .take()
        {
            let _ = h.join();
        }
    }
}

/// The committer thread body.
fn run_committer(
    shared: &Shared,
    mut files: Vec<ShardFiles>,
    dims: u8,
    fsync_every: usize,
    fsync_bytes: u64,
    max_batch_delay: Duration,
    segment_bytes: u64,
) {
    // Records/bytes written to the OS since the last fsync round, and
    // the highest ticket those writes cover. With no writer waiting on
    // an ack, the fsync is deferred across drains until `fsync_every`
    // records or `fsync_bytes` bytes have accumulated (or a
    // barrier/shutdown forces it) — the group-commit amortisation, with
    // a byte bound so huge coalesced frames don't balloon a group.
    let mut unsynced_records: usize = 0;
    let mut unsynced_bytes: u64 = 0;
    let mut written_ticket: u64 = 0;
    loop {
        let (batch, prunes, high_ticket, metrics, mut want_sync);
        {
            let mut st = shared.state.lock().expect("commit queue poisoned");
            // Staleness clock for a backlog below the group bound
            // (armed only when `max_batch_delay` is non-zero).
            let mut deadline: Option<Instant> = None;
            let mut timed_flush = false;
            loop {
                if st.abort {
                    return;
                }
                if st.error.is_some() {
                    // Parked: nothing will ever become durable again.
                    // Keep waking waiters so none sleeps through the
                    // sticky error, and wait for shutdown.
                    if st.shutdown {
                        return;
                    }
                    shared.done.notify_all();
                    st.idle = true;
                    st = shared.work.wait(st).expect("commit queue poisoned");
                    st.idle = false;
                    continue;
                }
                let backlog = st.pending_records;
                let forced = st.hurry || st.shutdown || st.waiters > 0 || !st.prunes.is_empty();
                let timed = backlog > 0 && deadline.is_some_and(|d| Instant::now() >= d);
                let byte_full = fsync_bytes > 0 && st.pending_bytes >= fsync_bytes;
                if forced || backlog >= fsync_every || byte_full || timed {
                    if backlog == 0 && st.prunes.is_empty() {
                        // A barrier, ack-waiter, or clean shutdown with
                        // nothing queued: flush deferred writes with an
                        // empty batch before resting.
                        if unsynced_records > 0 {
                            break;
                        }
                        if st.shutdown {
                            return;
                        }
                        if st.hurry {
                            // Nothing unsynced: the barrier is met.
                            st.hurry = false;
                            shared.done.notify_all();
                        }
                        // An ack-waiter with no backlog and nothing
                        // unsynced is already durable; fall through to
                        // the wait.
                    } else {
                        timed_flush = timed;
                        break;
                    }
                }
                if backlog > 0 && max_batch_delay > Duration::ZERO && deadline.is_none() {
                    deadline = Some(Instant::now() + max_batch_delay);
                }
                st.idle = true;
                st = match deadline {
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            st.idle = false;
                            continue;
                        }
                        shared
                            .work
                            .wait_timeout(st, d - now)
                            .expect("commit queue poisoned")
                            .0
                    }
                    None => shared.work.wait(st).expect("commit queue poisoned"),
                };
                st.idle = false;
            }
            batch = mem::take(&mut st.pending);
            st.pending_records = 0;
            st.pending_bytes = 0;
            prunes = mem::take(&mut st.prunes);
            // Every ticket issued so far is either already durable,
            // covered by an earlier (possibly unsynced) write, or in
            // `batch` (tickets are only issued with a push).
            high_ticket = st.next_ticket - 1;
            // The staleness bound makes the whole backlog durable, not
            // just written: a timed flush syncs too.
            want_sync = st.hurry || st.shutdown || st.waiters > 0 || timed_flush;
            st.hurry = false;
            metrics = st.metrics.clone();
        }

        let mut result = write_group(&mut files, &batch, dims, segment_bytes, metrics.as_deref());
        let mut synced_to = None;
        if result.is_ok() {
            if !batch.is_empty() {
                unsynced_records += batch.iter().map(|p| p.records).sum::<usize>();
                unsynced_bytes += batch.iter().map(|p| p.frame.len() as u64).sum::<u64>();
                written_ticket = high_ticket;
            }
            if unsynced_records >= fsync_every || (fsync_bytes > 0 && unsynced_bytes >= fsync_bytes)
            {
                want_sync = true;
            }
            if want_sync && unsynced_records > 0 {
                match sync_group(&mut files, unsynced_records, metrics.as_deref()) {
                    Ok(()) => {
                        synced_to = Some(written_ticket);
                        unsynced_records = 0;
                        unsynced_bytes = 0;
                    }
                    Err(e) => result = Err(e),
                }
            }
        }
        {
            let mut st = shared.state.lock().expect("commit queue poisoned");
            match result {
                Ok(()) => {
                    if let Some(t) = synced_to {
                        st.durable = t;
                    }
                }
                Err(e) => {
                    if st.error.is_none() {
                        st.error = Some(e);
                    }
                }
            }
            shared.done.notify_all();
            if st.error.is_some() {
                continue;
            }
        }

        // The prune side of the commit/prune split: space reclamation
        // happens only after acks went out.
        if !prunes.is_empty() {
            let mut removed = 0;
            for (j, hw) in prunes {
                removed += files[j].prune(hw);
            }
            if let Some(m) = metrics.as_deref() {
                if removed > 0 {
                    m.prunes.add(removed as u64);
                }
                m.segments
                    .set(files.iter().map(ShardFiles::segment_count).sum::<usize>() as i64);
            }
        }
    }
}

/// Appends one drain's frames: all frames sorted into per-shard
/// buffers, one `write_all` per touched shard. No fsync — that is
/// [`sync_group`]'s job, possibly several drains later.
fn write_group(
    files: &mut [ShardFiles],
    batch: &[Pending],
    dims: u8,
    segment_bytes: u64,
    metrics: Option<&WalMetrics>,
) -> Result<(), WalError> {
    if batch.is_empty() {
        return Ok(());
    }
    let mut touched = BTreeSet::new();
    let mut group_bytes = 0u64;
    let mut group_records = 0u64;
    for p in batch {
        let f = &mut files[p.shard];
        f.buf.extend_from_slice(&p.frame);
        f.buf_max_seq = f.buf_max_seq.max(p.seq);
        f.buf_any = true;
        group_bytes += p.frame.len() as u64;
        group_records += p.records as u64;
        touched.insert(p.shard);
    }
    for &j in &touched {
        files[j].write(dims, segment_bytes)?;
    }
    if let Some(m) = metrics {
        m.records.add(group_records);
        m.bytes.add(group_bytes);
        m.segments
            .set(files.iter().map(ShardFiles::segment_count).sum::<usize>() as i64);
    }
    Ok(())
}

/// Fsyncs every shard with unsynced bytes — one group commit covering
/// `group_records` accumulated records.
fn sync_group(
    files: &mut [ShardFiles],
    group_records: usize,
    metrics: Option<&WalMetrics>,
) -> Result<(), WalError> {
    let fsync_start = Instant::now();
    for f in files.iter_mut() {
        f.sync()?;
    }
    if let Some(m) = metrics {
        m.fsync_ns.record_since(fsync_start);
        m.groups.inc();
        m.group_size.record(group_records as u64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::record::{encode_unsealed_record, seal_frames};
    use super::*;
    use sfc_core::Point;

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
        encode_unsealed_record(&mut buf, &Point::new([1u32, 2]), Some(&payload));
        seal_frames::<2>(&mut buf, seq);
        buf
    }

    fn spawn_one_shard(config: &WalConfig, dir: &std::path::Path) -> Committer {
        Committer::spawn(
            config,
            2,
            vec![ShardLogState {
                dir: dir.to_path_buf(),
                segments: Vec::new(),
                next_segment_id: 0,
            }],
        )
    }

    /// ROADMAP follow-on (c): crossing `fsync_bytes` must close a group
    /// early even though no writer waits and the record-count bound is
    /// nowhere near met.
    #[test]
    fn oversized_batch_forces_a_group_by_bytes() {
        let dir = TestDir::new("bytes");
        let config = WalConfig::new(&dir.0)
            .fsync_every(1_000_000)
            .fsync_bytes(1024);
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
        let big = frame(2, 2048);
        committer.append(0, 2, 64, big, false).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while committer.durable_ticket() < 2 {
            assert!(
                Instant::now() < deadline,
                "byte-bound group never became durable"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        committer.shutdown();
    }

    /// With the byte bound disabled (0), the same traffic stays queued
    /// until a barrier forces it out.
    #[test]
    fn disabled_byte_bound_defers_to_the_barrier() {
        let dir = TestDir::new("nobytes");
        let config = WalConfig::new(&dir.0).fsync_every(1_000_000).fsync_bytes(0);
        let committer = spawn_one_shard(&config, &dir.0);
        committer.append(0, 1, 64, frame(1, 2048), false).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(committer.durable_ticket(), 0, "no bound, no group");
        committer.sync().unwrap();
        assert_eq!(committer.durable_ticket(), 1, "the barrier drains it");
        committer.shutdown();
    }
}
