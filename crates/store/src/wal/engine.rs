//! The store-facing side of the WAL: the engine-wide handle
//! ([`WalEngine`]: commit queue + manifest state) and the per-shard
//! [`DurabilityHook`] the concurrent shard calls at its three durability
//! points — logging a write, persisting a published epoch, and
//! finishing a deferred (rebalance) commit.
//!
//! The hook is a trait object so the payload codec bound
//! ([`WalPayload`]) appears only where a durable store is *opened*, not
//! on every engine method: an in-memory store carries `None` and pays
//! one pointer check.

use std::fmt;
use std::fs;
use std::mem::size_of;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sfc_core::{CurveIndex, SpaceFillingCurve};

use super::committer::Committer;
use super::manifest::{ckpt_path, run_path, sync_dir, write_file, Checkpoint, Manifest};
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
    manifest: Mutex<Manifest>,
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
            manifest: Mutex::new(manifest),
        }
    }

    /// Updates shard `j`'s checkpoint generation; with `write_now` the
    /// manifest is flipped to disk immediately, otherwise the update
    /// waits for [`commit_boundaries`](Self::commit_boundaries) (the
    /// deferred half of a rebalance).
    fn set_gen(&self, j: usize, gen: u64, write_now: bool) -> Result<(), WalError> {
        let mut m = self.manifest.lock().expect("manifest state poisoned");
        m.gens[j] = gen;
        if write_now {
            m.commit(&self.dir, self.dims)?;
        }
        Ok(())
    }

    /// The single commit point of a rebalance: writes the manifest with
    /// the new partition boundaries *and* every generation updated by
    /// the deferred installs.
    pub(crate) fn commit_boundaries(&self, boundaries: Vec<CurveIndex>) -> Result<(), WalError> {
        let mut m = self.manifest.lock().expect("manifest state poisoned");
        m.boundaries = boundaries;
        m.commit(&self.dir, self.dims)
    }
}

/// The three durability points of a concurrent shard, object-safe so
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

    /// Persists a freshly published epoch: new run files, a new
    /// checkpoint generation, the manifest flip, and a prune request at
    /// the new high-water. `high_water: None` keeps the previous floor
    /// (compaction publishes no new memtable data); `defer_manifest`
    /// parks the flip, cleanup, and prune until
    /// [`finish_commit`](Self::finish_commit). Returns the bytes of run
    /// and checkpoint files written.
    fn persist_epoch(
        &self,
        runs: &[Run<D, T, C>],
        live: usize,
        high_water: Option<u64>,
        defer_manifest: bool,
    ) -> Result<u64, WalError>;

    /// Completes a deferred persist after the engine-level manifest
    /// commit: deletes superseded files and requests the parked prune.
    fn finish_commit(&self) -> Result<(), WalError>;
}

/// Which run file holds each published run, keyed by `Arc` identity.
/// Holding the `Arc` clone in the map pins the allocation, so pointer
/// identity cannot be recycled while the entry lives (no ABA).
struct PersistState<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    gen: u64,
    high_water: u64,
    next_run_id: u64,
    map: Vec<(Run<D, T, C>, u64)>,
    /// A deferred persist happened; `finish_commit` owes cleanup.
    deferred: bool,
    pending_cleanup: Vec<PathBuf>,
    pending_prune: Option<u64>,
}

/// The sole [`DurabilityHook`] implementation: one per shard of a
/// durable store.
pub(crate) struct WalShard<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    j: usize,
    dir: PathBuf,
    dims: u8,
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
    /// file ids the checkpoint listed (empty on a fresh open).
    pub(crate) fn new(
        j: usize,
        dir: PathBuf,
        engine: Arc<WalEngine>,
        gen: u64,
        high_water: u64,
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
            dims: D as u8,
            engine,
            persist: Mutex::new(PersistState {
                gen,
                high_water,
                next_run_id,
                map: recovered_runs,
                deferred: false,
                pending_cleanup: Vec::new(),
                pending_prune: None,
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
        let hw = high_water.unwrap_or(st.high_water);
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
                    let bytes = super::manifest::encode_run(run.as_ref());
                    write_file(&run_path(&self.dir, id), &bytes)?;
                    written += bytes.len() as u64;
                    id
                }
            };
            new_map.push((Arc::clone(run), id));
            ids.push(id);
        }
        let gen = st.gen + 1;
        let ckpt = Checkpoint {
            high_water: hw,
            live: live as u64,
            run_ids: ids,
        }
        .encode(self.dims);
        write_file(&ckpt_path(&self.dir, gen), &ckpt)?;
        written += ckpt.len() as u64;
        sync_dir(&self.dir)?;
        // Everything the old generation referenced and the new one does
        // not becomes garbage — but only after the manifest flip below
        // makes the new generation the referenced one.
        let mut stale: Vec<PathBuf> = st
            .map
            .iter()
            .filter(|(old, _)| !new_map.iter().any(|(new, _)| Arc::ptr_eq(new, old)))
            .map(|&(_, id)| run_path(&self.dir, id))
            .collect();
        if st.gen > 0 {
            stale.push(ckpt_path(&self.dir, st.gen));
        }
        st.gen = gen;
        st.high_water = hw;
        st.map = new_map;
        self.engine.set_gen(self.j, gen, !defer_manifest)?;
        if defer_manifest {
            st.deferred = true;
            st.pending_cleanup.append(&mut stale);
            st.pending_prune = Some(hw);
        } else {
            for path in stale {
                let _ = fs::remove_file(path);
            }
            self.engine.committer.request_prune(self.j, hw);
        }
        Ok(written)
    }

    fn finish_commit(&self) -> Result<(), WalError> {
        let mut st = self.persist.lock().expect("persist state poisoned");
        if !st.deferred {
            return Ok(());
        }
        st.deferred = false;
        for path in st.pending_cleanup.drain(..) {
            let _ = fs::remove_file(path);
        }
        if let Some(hw) = st.pending_prune.take() {
            self.engine.committer.request_prune(self.j, hw);
        }
        Ok(())
    }
}
