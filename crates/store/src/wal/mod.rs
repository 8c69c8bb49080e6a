//! Durability for the sharded engine: a per-shard write-ahead log with
//! group commit, run/checkpoint persistence, and crash recovery.
//!
//! # The durability model
//!
//! Every acknowledged write exists in exactly one of two durable forms at
//! any instant:
//!
//! 1. **A WAL frame** — an append-only, length-prefixed, CRC32C-checked
//!    record in one of the shard's segment files (`shardN/wal-*.log`),
//!    carrying the *same per-shard sequence number* the memtable stamped
//!    on the entry (see [`crate::memtable`] and the epoch module). The
//!    WAL adds no ordering of its own; it borrows the one the engine
//!    already has.
//! 2. **A published run** — once a flush publishes an epoch at sequence
//!    high-water `H`, every record with `seq < H` lives in a run file
//!    (`run-*.run`) referenced by the shard's checkpoint (`ckpt-*`), and
//!    the frames below `H` become garbage. A run file *is* the run: the
//!    bit-packed blocks dumped as they sit in memory (≈ 3 B of keys and
//!    coordinates a record on a curve-local run — the curve's locality
//!    is what the delta packing feeds on) followed by the dense payload
//!    column. Persisting decodes nothing; a reopen re-packs nothing, but
//!    re-derives every key from its point and checks every structural
//!    claim of the file before trusting it (see `manifest`).
//!
//! Recovery therefore replays exactly the frames with `seq >=` the
//! checkpointed high-water into a fresh memtable — it never touches the
//! reader path, and a record is never applied twice. Shards recover
//! independently (their logs share nothing), so a store of more than one
//! shard fans the per-shard scans and replays out across threads, always:
//! there is no setting for it (the fan-out reopens a 4-shard store with
//! runs on disk ≈ 1.6× faster than one thread on two cores, and the
//! recovered state is identical either way). [`RecoveryStats`] reports
//! the threads used and the per-shard breakdown.
//!
//! # Group commit
//!
//! `DurabilityHook::log_frames` pushes the sealed frames
//! onto an in-memory commit queue and takes a *ticket*. Frames reach the
//! files in *commit rounds*: take everything queued, append each shard's
//! frames to its open segment, issue **one fsync per shard per group**,
//! advance the durable ticket. Whoever needs durability *now* runs the
//! round in their own thread — a writer waiting for its ack, a `sync()`
//! barrier: an acked write never changes threads, and what it waits for
//! is a `write` and an `fdatasync`. Rounds are strictly one at a time;
//! a writer that arrives while one is in flight sleeps until it has
//! published, and the frames queued meanwhile form the next round's
//! group, so concurrent writers still share fsyncs. A background thread
//! runs the same round for what nobody waits for: un-waited records
//! accumulate in the queue until [`WalConfig::fsync_every`] of them —
//! or, since batched appends can carry kilobytes per frame, 1 MiB of
//! frame bytes — are pending, then are written and synced as one group;
//! it also drains the queue at shutdown. Only after the
//! fsync does the durable ticket advance. An I/O failure is *sticky*:
//! the first error stops the log, and every subsequent or waiting append
//! returns it — the log never silently drops a group.
//!
//! # Frame coalescing
//!
//! A batched write ([`apply_batch`](crate::ShardedSfcStore::apply_batch))
//! logs each shard's slice as **one multi-record frame** (frame format
//! v2, see `record`): one buffer the slice is encoded straight into
//! (no per-record allocation), one length/CRC header, one commit-queue
//! ticket, one `memcpy` into the segment — instead of per-record frames. Because
//! the whole batch body sits under a single checksum, a torn batch frame
//! is discarded *atomically* on recovery: a shard never replays half a
//! batch slice. A single write goes through the same encoder as a slice
//! of one, which comes out as the v1 single-record frame.
//!
//! # Commit/prune split
//!
//! Truncation is decoupled from the commit path (the aptosdb writer
//! shape): a flush *requests* pruning at its high-water and returns; the
//! background thread deletes wholly-obsolete segments (`max seq < H`)
//! after its next round's acks, never in a writer's round.
//!
//! # Crash atomicity
//!
//! Run files and checkpoints are written, synced, and only then
//! referenced: the per-shard checkpoint generation a reopen trusts is
//! named by the root `MANIFEST`, which is replaced via
//! write-temp → fsync → rename → fsync-dir. A crash between any two
//! steps leaves either the old or the new state referenced, never a mix;
//! unreferenced files are garbage-collected on reopen. Rebalance defers
//! its per-shard manifest updates and commits all shard generations plus
//! the new partition boundaries in a single manifest write, so a
//! mid-rebalance crash rolls back to the consistent pre-rebalance cut.
//!
//! # What is checksummed by what
//!
//! One function, `record`'s slice-by-8 CRC32C, guards every durable
//! byte: each WAL frame carries the checksum of its body in its header
//! (verified frame by frame by the recovery scan); each run file,
//! checkpoint and `MANIFEST` ends in the checksum of everything after
//! its 8-byte header (verified whole before a field is parsed). Segment
//! headers and file names carry no checksum — they are validated by
//! value.
//!
//! # Torn tails vs corruption
//!
//! The recovery scan classifies damage (see `record`): an incomplete
//! frame — or a checksum mismatch in a frame that runs exactly to end of
//! file — *in the newest segment* is a torn tail from the crash itself
//! and is discarded silently (it can only hold unacknowledged writes).
//! Any other unreadable byte is real corruption and fails recovery with
//! a typed [`WalError::Corrupt`], never a panic and never a silent skip.
//!
//! # Lock order
//!
//! The commit machinery extends the engine's lock order; the full chain
//! is
//!
//! ```text
//! partition (RwLock) → shard maint → shard mem
//!     → { epoch cell | shard persist → manifest → commit queue ⇢ log files }
//! ```
//!
//! The commit-queue mutex is the last lock on every path: writers take
//! it with no other lock held, and nobody holds it across file I/O. The
//! log files are not behind a lock but a *baton* — an `Option` in the
//! queue state that a round takes out under the mutex and puts back
//! when it has published — so they come after the queue and are only
//! ever used with the queue released. A writer leading a round still
//! holds the partition read guard its wait always held; a round takes
//! no engine lock.

mod committer;
mod engine;
mod manifest;
mod record;
mod recovery;

pub(crate) use committer::Committer;
pub(crate) use engine::{DurabilityHook, WalEngine, WalShard};
pub(crate) use manifest::shard_dir;
pub(crate) use record::WalRecord;
pub(crate) use recovery::recover;

pub use record::WalPayload;

/// The durable-bytes kernels — the checksum and the run-file codec, both
/// private — for the `durable_bytes` group of
/// `crates/bench/benches/store.rs`, which gates them, and for the
/// hostile-run-file sweep of `tests/tests/crash_recovery.rs`, which
/// re-seals the files it lies in. Not part of the API.
#[doc(hidden)]
pub mod bench_hooks {
    use std::path::Path;
    use std::sync::Arc;

    use sfc_core::SpaceFillingCurve;
    use sfc_index::SfcIndex;

    use super::{manifest, record, WalError, WalPayload};

    pub fn crc32c(bytes: &[u8]) -> u32 {
        record::crc32c(bytes)
    }

    pub fn encode_run<const D: usize, T, C>(run: &SfcIndex<D, T, C>) -> Vec<u8>
    where
        T: WalPayload,
        C: SpaceFillingCurve<D> + Clone,
    {
        manifest::encode_run(run)
    }

    pub fn decode_run<const D: usize, T, C>(
        file: &[u8],
        curve: &C,
    ) -> Result<Arc<SfcIndex<D, T, C>>, WalError>
    where
        T: WalPayload,
        C: SpaceFillingCurve<D> + Clone,
    {
        manifest::decode_run(file, Path::new("bench.run"), curve)
    }
}

use std::io;
use std::path::PathBuf;
use std::time::Duration;

/// Configuration of a durable store's write-ahead log.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Root directory of the store's persistent state (`MANIFEST` plus
    /// one `shardN/` subdirectory per shard). Created if absent.
    pub dir: PathBuf,
    /// Group-commit batching bound: with no writer waiting on an ack,
    /// the fsync is deferred until this many records have accumulated
    /// since the last one (a waiting writer, a [`sync`] barrier, or
    /// shutdown forces the fsync immediately). A group is also closed
    /// at 1 MiB of frame bytes. No time bound applies: a deferred record
    /// waits for a full group, an ack-waiter, a barrier or shutdown,
    /// whichever comes first (the nosync contract promises durability
    /// only at the next barrier).
    ///
    /// [`sync`]: crate::ShardedSfcStore::sync
    pub fsync_every: usize,
    /// Segment rotation threshold: an open segment is sealed once it
    /// exceeds this many bytes (pruning granularity — smaller segments
    /// reclaim space sooner after a flush).
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A configuration with defaults: `fsync_every` 256, 4 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync_every: 256,
            segment_bytes: 4 << 20,
        }
    }

    /// Replaces the group-size fsync threshold (floored at 1).
    #[must_use]
    pub fn fsync_every(mut self, records: usize) -> Self {
        self.fsync_every = records.max(1);
        self
    }

    /// Replaces the segment rotation threshold (floored at 4 KiB).
    #[must_use]
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes.max(4 << 10);
        self
    }
}

/// A typed durability failure. `Clone` because a commit-round failure
/// is sticky: the original error is handed to every writer that was (or
/// later comes) waiting on the failed group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An operating-system I/O failure, with the file it struck.
    Io {
        /// The file or directory the operation touched.
        path: PathBuf,
        /// The OS error kind.
        kind: io::ErrorKind,
        /// The OS error message.
        detail: String,
    },
    /// Persistent state that is damaged beyond the crash-consistency
    /// contract — a checksum mismatch before the log tail, an
    /// unparseable record, a referenced file that is missing. Recovery
    /// refuses to guess and reports where.
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// Byte offset of the damage, where meaningful.
        offset: u64,
        /// What failed to parse or verify.
        detail: String,
    },
    /// The on-disk state disagrees with the store being opened (shard
    /// count, dimensionality, curve domain).
    Mismatch {
        /// What disagreed.
        detail: String,
    },
    /// The commit queue was shut down (or deliberately crashed) while
    /// the operation was in flight; the write may or may not be durable.
    Shutdown,
}

impl WalError {
    pub(crate) fn io(path: impl Into<PathBuf>, err: &io::Error) -> Self {
        WalError::Io {
            path: path.into(),
            kind: err.kind(),
            detail: err.to_string(),
        }
    }

    pub(crate) fn corrupt(
        path: impl Into<PathBuf>,
        offset: u64,
        detail: impl Into<String>,
    ) -> Self {
        WalError::Corrupt {
            path: path.into(),
            offset,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { path, kind, detail } => {
                write!(f, "wal i/o error on {}: {kind:?}: {detail}", path.display())
            }
            WalError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "wal corruption in {} at byte {offset}: {detail}",
                path.display()
            ),
            WalError::Mismatch { detail } => write!(f, "wal/store mismatch: {detail}"),
            WalError::Shutdown => write!(f, "wal committer is shut down"),
        }
    }
}

impl std::error::Error for WalError {}

/// What one reopen of a durable store did, returned by
/// [`ShardedSfcStore::recovery_stats`](crate::ShardedSfcStore::recovery_stats).
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// WAL records replayed into memtables (`seq >=` checkpoint
    /// high-water).
    pub replayed_records: usize,
    /// Valid records skipped because a published run already covers them
    /// (`seq <` high-water — frames a prune had not reclaimed yet).
    pub skipped_records: usize,
    /// Immutable runs loaded from run files across all shards.
    pub runs_loaded: usize,
    /// WAL segment files scanned.
    pub segments_scanned: usize,
    /// Total WAL bytes read.
    pub wal_bytes: u64,
    /// Bytes discarded as the torn tail of the newest segment (an
    /// interrupted append — never an acknowledged write).
    pub torn_tail_bytes: u64,
    /// Orphaned files (unreferenced runs/checkpoints, temp files) swept
    /// on open.
    pub orphans_removed: usize,
    /// Wall-clock time of the whole recovery.
    pub elapsed: Duration,
    /// Threads the per-shard replay fanned out across (`1` for a
    /// single-shard store, which recovers on the opening thread).
    pub replay_threads: usize,
    /// The per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardRecoveryStats>,
}

/// One shard's slice of a recovery — shards recover independently (in
/// parallel by default), and each reports its own work.
#[derive(Debug, Clone, Default)]
pub struct ShardRecoveryStats {
    /// WAL records replayed into this shard's memtable.
    pub replayed_records: usize,
    /// Valid records skipped (already covered by a published run).
    pub skipped_records: usize,
    /// Immutable runs loaded from this shard's run files.
    pub runs_loaded: usize,
    /// WAL segment files scanned.
    pub segments_scanned: usize,
    /// WAL bytes read.
    pub wal_bytes: u64,
    /// Bytes discarded as the newest segment's torn tail.
    pub torn_tail_bytes: u64,
    /// Orphaned files swept from this shard's directory.
    pub orphans_removed: usize,
    /// Wall-clock time of this shard's scan + replay (shard times
    /// overlap when recovery runs in parallel, so they can sum to more
    /// than [`RecoveryStats::elapsed`]).
    pub elapsed: Duration,
}
