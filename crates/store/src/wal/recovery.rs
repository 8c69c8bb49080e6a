//! Reopening a durable store: read the `MANIFEST`, load the run files
//! each shard's entry names, scan the WAL segments, classify damage, and
//! hand the engine everything it needs to rebuild each shard.
//!
//! The invariants this module enforces are the crash-consistency
//! contract of the whole WAL (see the module docs in [`super`]):
//!
//! * Only the run files the **manifest** names are trusted; run and
//!   temp files from an interrupted flush or rebalance are
//!   garbage-collected, which *is* the rollback.
//! * A named file that is missing or fails its checksum is
//!   [`WalError::Corrupt`] — loudly, with the path and offset.
//! * WAL frames below the shard's high-water are skipped (their records
//!   live in runs); frames at or above it are replayed.
//! * Damage at the very tail of the *newest* segment is a torn append
//!   (only ever unacknowledged writes) and is discarded; damage anywhere
//!   else is corruption and fails the open.

use std::fs;
use std::path::Path;
use std::time::Instant;

use sfc_core::SpaceFillingCurve;
use sfc_partition::Partition;

use super::committer::ShardLogState;
use super::manifest::{
    decode_run, manifest_path, parse_numbered, run_path, segment_path, shard_dir, Manifest,
    ShardEntry,
};
use super::record::{
    check_segment_header, decode_body_records, parse_frame, FrameOutcome, WalPayload, WalRecord,
    SEGMENT_HEADER,
};
use super::{RecoveryStats, ShardRecoveryStats, WalConfig, WalError};
use crate::view::Run;
use rayon::prelude::*;

/// Everything recovery reconstructed for one shard.
pub(crate) struct RecoveredShard<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    /// The persisted run stack (oldest first) with each run's file id
    /// — the persist map the shard's hook resumes with.
    pub(crate) runs: Vec<(Run<D, T, C>, u64)>,
    /// The entry's live count (records visible in `runs`).
    pub(crate) epoch_live: usize,
    /// The WAL replay floor.
    pub(crate) high_water: u64,
    /// Replayable records (`seq >= high_water`), sorted by seq.
    pub(crate) records: Vec<WalRecord<D, T>>,
    /// Surviving segment files, for the committer's pruner.
    pub(crate) log: ShardLogState,
}

/// One shard's recovery outcome: the rebuilt shard plus its replay
/// stats, or the first error that stopped the scan.
type ShardRecovery<const D: usize, T, C> =
    Result<(RecoveredShard<D, T, C>, ShardRecoveryStats), WalError>;

/// The outcome of scanning a store directory.
pub(crate) struct RecoveredStore<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    pub(crate) manifest: Manifest,
    pub(crate) shards: Vec<RecoveredShard<D, T, C>>,
    pub(crate) stats: RecoveryStats,
}

fn read(path: &Path) -> Result<Vec<u8>, WalError> {
    fs::read(path).map_err(|e| WalError::io(path, &e))
}

/// Opens (or initialises) the persistent state under `config.dir` for a
/// `parts`-shard store over `curve`. Fresh directories get a committed
/// manifest with uniform boundaries; existing ones are validated,
/// loaded, scanned, and garbage-collected.
pub(crate) fn recover<const D: usize, T, C>(
    config: &WalConfig,
    curve: &C,
    parts: usize,
) -> Result<RecoveredStore<D, T, C>, WalError>
where
    T: WalPayload + Send + Sync,
    C: SpaceFillingCurve<D> + Clone + Send + Sync,
{
    let start = Instant::now();
    let dir = &config.dir;
    fs::create_dir_all(dir).map_err(|e| WalError::io(dir, &e))?;
    for j in 0..parts {
        let sd = shard_dir(dir, j);
        fs::create_dir_all(&sd).map_err(|e| WalError::io(&sd, &e))?;
    }
    let mpath = manifest_path(dir);
    let mut stats = RecoveryStats::default();

    let manifest = if mpath.exists() {
        let m = Manifest::decode(&read(&mpath)?, &mpath, D as u8)?;
        if m.shards.len() != parts {
            return Err(WalError::Mismatch {
                detail: format!(
                    "store on disk has {} shards, open asked for {parts}",
                    m.shards.len()
                ),
            });
        }
        if *m.boundaries.last().expect("decode checked count") != curve.grid().n() {
            return Err(WalError::Mismatch {
                detail: format!(
                    "store on disk covers {} cells, curve has {}",
                    m.boundaries.last().expect("checked"),
                    curve.grid().n()
                ),
            });
        }
        m
    } else {
        let m = Manifest {
            shards: vec![ShardEntry::default(); parts],
            boundaries: Partition::uniform(curve.grid().n(), parts)
                .boundaries()
                .to_vec(),
        };
        m.commit(dir, D as u8)?;
        m
    };

    // Shards recover from disjoint directories and share no state, so
    // the per-shard scans and replays fan out across the scoped thread
    // pool (a single-shard store runs inline).
    let recovered: Vec<ShardRecovery<D, T, C>> = manifest
        .shards
        .iter()
        .enumerate()
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|(j, entry)| recover_shard::<D, T, C>(&shard_dir(dir, j), entry, curve))
        .collect();
    stats.replay_threads = std::thread::available_parallelism()
        .map_or(2, std::num::NonZeroUsize::get)
        .max(2)
        .min(parts);
    let mut shards = Vec::with_capacity(parts);
    for result in recovered {
        let (shard, ss) = result?;
        stats.replayed_records += ss.replayed_records;
        stats.skipped_records += ss.skipped_records;
        stats.runs_loaded += ss.runs_loaded;
        stats.segments_scanned += ss.segments_scanned;
        stats.wal_bytes += ss.wal_bytes;
        stats.torn_tail_bytes += ss.torn_tail_bytes;
        stats.orphans_removed += ss.orphans_removed;
        stats.shards.push(ss);
        shards.push(shard);
    }
    stats.elapsed = start.elapsed();
    Ok(RecoveredStore {
        manifest,
        shards,
        stats,
    })
}

/// Loads one shard: the runs its manifest entry names, WAL replay set,
/// surviving segments, and the orphan sweep. Self-contained (returns its
/// own stats) so shards can recover on separate threads.
fn recover_shard<const D: usize, T, C>(
    sd: &Path,
    entry: &ShardEntry,
    curve: &C,
) -> Result<(RecoveredShard<D, T, C>, ShardRecoveryStats), WalError>
where
    T: WalPayload,
    C: SpaceFillingCurve<D> + Clone,
{
    let shard_start = Instant::now();
    let mut stats = ShardRecoveryStats::default();
    // Inventory the directory once.
    let mut run_ids = Vec::new();
    let mut seg_ids = Vec::new();
    let mut tmp_files = Vec::new();
    let entries = fs::read_dir(sd).map_err(|e| WalError::io(sd, &e))?;
    for dirent in entries {
        let dirent = dirent.map_err(|e| WalError::io(sd, &e))?;
        let name = dirent.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = parse_numbered(name, "run-", ".run") {
            run_ids.push(id);
        } else if let Some(id) = parse_numbered(name, "wal-", ".log") {
            seg_ids.push(id);
        } else if name.ends_with(".tmp") {
            tmp_files.push(dirent.path());
        }
    }

    let mut runs = Vec::with_capacity(entry.run_ids.len());
    for &id in &entry.run_ids {
        let path = run_path(sd, id);
        if !path.exists() {
            return Err(WalError::corrupt(
                &path,
                0,
                "manifest references a missing run file",
            ));
        }
        let run = decode_run::<D, T, C>(&read(&path)?, &path, curve)?;
        stats.runs_loaded += 1;
        runs.push((run, id));
    }

    // Orphan sweep: anything the manifest does not name is debris from
    // an interrupted flush or rebalance — removing it is the rollback.
    for &id in run_ids.iter().filter(|id| !entry.run_ids.contains(id)) {
        if fs::remove_file(run_path(sd, id)).is_ok() {
            stats.orphans_removed += 1;
        }
    }
    for path in &tmp_files {
        if fs::remove_file(path).is_ok() {
            stats.orphans_removed += 1;
        }
    }

    // Scan the log, oldest segment first.
    seg_ids.sort_unstable();
    let last_seg = seg_ids.last().copied();
    let mut records: Vec<WalRecord<D, T>> = Vec::new();
    let mut segments = Vec::with_capacity(seg_ids.len());
    for &id in &seg_ids {
        let path = segment_path(sd, id);
        let buf = read(&path)?;
        stats.segments_scanned += 1;
        stats.wal_bytes += buf.len() as u64;
        let is_last = Some(id) == last_seg;
        let mut max_seq: Option<u64> = None;
        if buf.len() < SEGMENT_HEADER {
            // A crash can tear even the header write of a brand-new
            // segment; that file cannot contain an acked record.
            if is_last {
                stats.torn_tail_bytes += buf.len() as u64;
                segments.push((id, None));
                continue;
            }
            return Err(WalError::corrupt(&path, 0, "segment header truncated"));
        }
        check_segment_header(&buf, D as u8)
            .map_err(|detail| WalError::corrupt(&path, 0, detail))?;
        let mut off = SEGMENT_HEADER;
        loop {
            if off == buf.len() {
                break;
            }
            match parse_frame(&buf, off) {
                FrameOutcome::Ok { body, end } => {
                    // A frame carries one record (v1) or a whole batch
                    // slice (v2) — the checksum already passed, so a
                    // batch decodes in full or the segment is corrupt.
                    let mut frame_records: Vec<WalRecord<D, T>> = Vec::new();
                    decode_body_records(body, &mut frame_records)
                        .map_err(|detail| WalError::corrupt(&path, off as u64, detail))?;
                    for rec in frame_records {
                        max_seq = Some(max_seq.map_or(rec.seq, |m: u64| m.max(rec.seq)));
                        if rec.seq >= entry.high_water {
                            records.push(rec);
                        } else {
                            stats.skipped_records += 1;
                        }
                    }
                    off = end;
                }
                FrameOutcome::Truncated => {
                    if is_last {
                        stats.torn_tail_bytes += (buf.len() - off) as u64;
                        break;
                    }
                    return Err(WalError::corrupt(
                        &path,
                        off as u64,
                        "truncated frame before the log tail",
                    ));
                }
                FrameOutcome::BadCrc { end } => {
                    // A checksum failure in the final frame of the final
                    // segment is indistinguishable from a torn append of
                    // that frame — and can only hold an unacked write.
                    // Anywhere else it is bit rot under acked data.
                    if is_last && end == buf.len() {
                        stats.torn_tail_bytes += (buf.len() - off) as u64;
                        break;
                    }
                    return Err(WalError::corrupt(
                        &path,
                        off as u64,
                        "record checksum mismatch",
                    ));
                }
            }
        }
        segments.push((id, max_seq));
    }
    records.sort_by_key(|r| r.seq);
    stats.replayed_records += records.len();
    stats.elapsed = shard_start.elapsed();

    Ok((
        RecoveredShard {
            runs,
            epoch_live: entry.live as usize,
            high_water: entry.high_water,
            records,
            log: ShardLogState {
                dir: sd.to_path_buf(),
                next_segment_id: seg_ids.last().map_or(1, |&id| id + 1),
                segments,
            },
        },
        stats,
    ))
}
