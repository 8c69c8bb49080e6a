//! The store-facing side of the WAL: the engine-wide handle
//! ([`WalEngine`]: commit queue + manifest image) and the per-shard
//! [`DurabilityHook`] the concurrent shard calls at its two durability
//! points — logging a write and persisting a published epoch.
//!
//! The hook is a trait object so the payload codec bound
//! ([`WalPayload`]) appears only where a durable store is *opened*, not
//! on every engine method: an in-memory store carries `None` and pays
//! one pointer check.

use std::fmt;
use std::fs;
use std::mem::size_of;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use sfc_core::{CurveIndex, SpaceFillingCurve};

use super::committer::Committer;
use super::manifest::{encode_run, run_path, sync_dir, write_file, Manifest, ShardEntry};
use super::record::{
    batch_entry_len, encode_unsealed_batch, seal_frames, WalPayload, BATCH_HEADER, FRAME_HEADER,
};
use super::{WalConfig, WalError};
use crate::epoch::WriteOp;
use crate::view::Run;

/// Engine-wide durability state: the commit queue plus the in-memory image
/// of the manifest (flipped to disk at every commit point).
pub(crate) struct WalEngine {
    dir: PathBuf,
    dims: u8,
    pub(crate) committer: Committer,
    state: Mutex<ManifestState>,
}

/// The manifest image, and what has changed in it since it was last
/// written: run files it no longer names, to delete, and WAL replay
/// floors to prune at, both once the manifest is on disk.
struct ManifestState {
    manifest: Manifest,
    superseded: Vec<PathBuf>,
    prunes: Vec<(usize, u64)>,
}

impl fmt::Debug for WalEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalEngine")
            .field("dir", &self.dir)
            .field("committer", &self.committer)
            .finish_non_exhaustive()
    }
}

impl WalEngine {
    pub(crate) fn new(
        config: &WalConfig,
        dims: u8,
        committer: Committer,
        manifest: Manifest,
    ) -> Self {
        Self {
            dir: config.dir.clone(),
            dims,
            committer,
            state: Mutex::new(ManifestState {
                manifest,
                superseded: Vec::new(),
                prunes: Vec::new(),
            }),
        }
    }

    /// Replaces shard `j`'s entry (`high_water: None` keeps its floor)
    /// and writes the manifest, unless `defer` leaves that to
    /// [`commit_boundaries`](Self::commit_boundaries). The `superseded`
    /// run files go, and the WAL is pruned, once the manifest is on disk.
    pub(crate) fn set_entry(
        &self,
        j: usize,
        high_water: Option<u64>,
        live: usize,
        run_ids: Vec<u64>,
        superseded: Vec<PathBuf>,
        defer: bool,
    ) -> Result<(), WalError> {
        let mut st = self.state.lock().expect("manifest state poisoned");
        let entry = &mut st.manifest.shards[j];
        let high_water = high_water.unwrap_or(entry.high_water);
        *entry = ShardEntry {
            high_water,
            live: live as u64,
            run_ids,
        };
        st.superseded.extend(superseded);
        st.prunes.push((j, high_water));
        if defer {
            return Ok(());
        }
        self.commit(st)
    }

    /// The single commit point of a rebalance: writes the manifest with
    /// the new partition boundaries *and* every entry the deferred
    /// installs staged.
    pub(crate) fn commit_boundaries(&self, boundaries: Vec<CurveIndex>) -> Result<(), WalError> {
        let mut st = self.state.lock().expect("manifest state poisoned");
        st.manifest.boundaries = boundaries;
        self.commit(st)
    }

    /// Writes the manifest image, then deletes the files it superseded
    /// and requests the prunes it allows.
    fn commit(&self, mut st: MutexGuard<'_, ManifestState>) -> Result<(), WalError> {
        st.manifest.commit(&self.dir, self.dims)?;
        for path in st.superseded.drain(..) {
            let _ = fs::remove_file(path);
        }
        for (j, high_water) in st.prunes.drain(..) {
            self.committer.request_prune(j, high_water);
        }
        Ok(())
    }
}

/// The durability points of a concurrent shard, object-safe so
/// [`Shard`](crate::epoch) stores `Option<Arc<dyn DurabilityHook>>`
/// without a payload-codec bound.
///
/// Logging a write is split around the shard's `mem` lock, which is
/// where sequence numbers are assigned and where nothing slow belongs:
/// [`encode`](Self::encode) lays the frame bytes out *before* the lock
/// (the payloads move into the memtable inside it) with the seq fields
/// zero, and [`log_frames`](Self::log_frames) stamps the seqs, checksums
/// and enqueues *after* it drops. One buffer per call, no per-record
/// allocation.
pub(crate) trait DurabilityHook<const D: usize, T, C>: Send + Sync + fmt::Debug
where
    C: SpaceFillingCurve<D> + Clone,
{
    /// Encodes a shard's op list as unsealed coalesced frames — one
    /// frame (one checksum) for the whole list, cut only where it would
    /// overflow a frame's maximum body; a list of one is a v1
    /// single-record frame.
    fn encode(&self, ops: &[WriteOp<D, T>]) -> Vec<u8>;

    /// Seals `frames` (as [`encode`](Self::encode) returned them)
    /// with the consecutive sequence numbers the memtable assigned from
    /// `first_seq` on, and enqueues them under one commit-queue ticket.
    /// With `wait`, returns after the group fsync — the durable ack —
    /// which the caller issues itself unless a round is in flight.
    fn log_frames(&self, frames: Vec<u8>, first_seq: u64, wait: bool) -> Result<(), WalError>;

    /// Persists a freshly published epoch: writes the run files this
    /// shard has not written yet, then replaces its entry in the
    /// engine's manifest, which flips the manifest, deletes the
    /// superseded run files and requests a prune at the new high-water.
    /// `high_water: None` keeps the previous floor (compaction publishes
    /// no new memtable data); `defer_manifest` leaves the flip, the
    /// deletions and the prune to
    /// [`WalEngine::commit_boundaries`]. Returns the bytes of run files
    /// written.
    fn persist_epoch(
        &self,
        runs: &[Run<D, T, C>],
        live: usize,
        high_water: Option<u64>,
        defer_manifest: bool,
    ) -> Result<u64, WalError>;
}

/// Which run file holds each published run, keyed by `Arc` identity.
/// Holding the `Arc` clone in the map pins the allocation, so pointer
/// identity cannot be recycled while the entry lives (no ABA).
struct PersistState<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    next_run_id: u64,
    map: Vec<(Run<D, T, C>, u64)>,
}

/// The sole [`DurabilityHook`] implementation: one per shard of a
/// durable store.
pub(crate) struct WalShard<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    j: usize,
    dir: PathBuf,
    engine: Arc<WalEngine>,
    persist: Mutex<PersistState<D, T, C>>,
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> fmt::Debug for WalShard<D, T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalShard")
            .field("shard", &self.j)
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> WalShard<D, T, C> {
    /// A hook resuming from recovered state: `runs` paired with the run
    /// file ids the manifest listed (empty on a fresh open).
    pub(crate) fn new(
        j: usize,
        dir: PathBuf,
        engine: Arc<WalEngine>,
        recovered_runs: Vec<(Run<D, T, C>, u64)>,
    ) -> Self {
        let next_run_id = recovered_runs
            .iter()
            .map(|&(_, id)| id + 1)
            .max()
            .unwrap_or(1);
        Self {
            j,
            dir,
            engine,
            persist: Mutex::new(PersistState {
                next_run_id,
                map: recovered_runs,
            }),
        }
    }
}

impl<const D: usize, T, C> DurabilityHook<D, T, C> for WalShard<D, T, C>
where
    T: WalPayload + Send + Sync,
    C: SpaceFillingCurve<D> + Clone + Send + Sync,
{
    fn encode(&self, ops: &[WriteOp<D, T>]) -> Vec<u8> {
        // Exact for fixed-size payloads, a first guess for the rest.
        let mut frames = Vec::with_capacity(
            FRAME_HEADER + BATCH_HEADER + ops.len() * batch_entry_len::<D>(size_of::<T>()),
        );
        encode_unsealed_batch(&mut frames, ops.iter().map(|(_, p, s)| (p, s.as_ref())));
        frames
    }

    fn log_frames(&self, mut frames: Vec<u8>, first_seq: u64, wait: bool) -> Result<(), WalError> {
        let records = seal_frames::<D>(&mut frames, first_seq);
        let max_seq = first_seq + records as u64 - 1;
        self.engine
            .committer
            .append(self.j, max_seq, records, frames, wait)
    }

    fn persist_epoch(
        &self,
        runs: &[Run<D, T, C>],
        live: usize,
        high_water: Option<u64>,
        defer_manifest: bool,
    ) -> Result<u64, WalError> {
        let mut st = self.persist.lock().expect("persist state poisoned");
        let mut written = 0u64;
        // Write files for runs this shard has not persisted yet;
        // unchanged runs keep their file (identity match — runs are
        // immutable, so a pointer match is a content match).
        let mut new_map: Vec<(Run<D, T, C>, u64)> = Vec::with_capacity(runs.len());
        let mut ids = Vec::with_capacity(runs.len());
        for run in runs {
            let id = match st.map.iter().find(|(r, _)| Arc::ptr_eq(r, run)) {
                Some(&(_, id)) => id,
                None => {
                    let id = st.next_run_id;
                    st.next_run_id += 1;
                    let bytes = encode_run(run.as_ref());
                    write_file(&run_path(&self.dir, id), &bytes)?;
                    written += bytes.len() as u64;
                    id
                }
            };
            new_map.push((Arc::clone(run), id));
            ids.push(id);
        }
        sync_dir(&self.dir)?;
        // Every run file the old entry named and the new one does not
        // becomes garbage once the manifest drops it.
        let superseded = st
            .map
            .iter()
            .filter(|(old, _)| !new_map.iter().any(|(new, _)| Arc::ptr_eq(new, old)))
            .map(|&(_, id)| run_path(&self.dir, id))
            .collect();
        st.map = new_map;
        self.engine
            .set_entry(self.j, high_water, live, ids, superseded, defer_manifest)?;
        Ok(written)
    }
}
