//! Crash-recovery harness for the durable sharded store.
//!
//! The contract under test (see `sfc-store`'s `wal` module): after any
//! crash, reopening recovers **exactly the acknowledged prefix** of the
//! write stream — every acked write is back, nothing that was never
//! written is invented, and a torn tail (only ever unacked bytes) is
//! discarded silently while damage under acked data fails the open with
//! a typed error, never a panic.
//!
//! The headline test truncates the WAL at **every byte offset** and
//! flips bits, reopening each mutilated copy and checking the recovered
//! state against a sequential `BTreeMap` replay of exactly the acked
//! prefix. CI runs this suite under `--release`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::Rng;
use sfc_core::{CurveIndex, Grid, Point, SpaceFillingCurve, ZCurve};
use sfc_index::BoxRegion;
use sfc_integration::test_rng;
use sfc_store::{BatchOp, MaintenanceConfig, ShardedSfcStore, WalConfig, WalError};

type Store = ShardedSfcStore<2, u32, ZCurve<2>>;
type Model = BTreeMap<CurveIndex, (Point<2>, u32)>;

fn curve() -> ZCurve<2> {
    ZCurve::over(Grid::from_side(64).unwrap())
}

/// A fresh scratch directory under the system temp dir, cleaned of any
/// previous run's debris. Dropping the guard removes the directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("sfc-crash-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Recursively copies a store directory (MANIFEST + shard subdirs).
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Every observable record of the store, as `(key, point, payload)`.
fn state_of(store: &Store) -> Vec<(CurveIndex, Point<2>, u32)> {
    store.iter().map(|e| (e.key, e.point, e.payload)).collect()
}

fn model_state(model: &Model) -> Vec<(CurveIndex, Point<2>, u32)> {
    model.iter().map(|(&k, &(p, v))| (k, p, v)).collect()
}

/// Asserts the reopened store equals the model exactly: iteration, live
/// count, and spot point-gets.
fn assert_matches_model(store: &Store, model: &Model) {
    assert_eq!(state_of(store), model_state(model), "recovered state");
    assert_eq!(store.len(), model.len(), "recovered live count");
    for (&key, &(p, v)) in model.iter().step_by(7) {
        assert_eq!(store.get(p), Some(v), "get({p}) at key {key}");
    }
}

/// One synchronous (acked) op applied to both store and model.
fn apply_acked(store: &Store, model: &mut Model, p: Point<2>, slot: Option<u32>) {
    let key = store.curve().index_of(p);
    match slot {
        Some(v) => {
            let was = store.try_insert(p, v).expect("acked insert");
            assert_eq!(
                was,
                model.insert(key, (p, v)).is_some(),
                "insert visibility"
            );
        }
        None => {
            let was = store.try_delete(p).expect("acked delete");
            assert_eq!(was, model.remove(&key).is_some(), "delete visibility");
        }
    }
}

fn reopen(dir: &Path, parts: usize, capacity: usize) -> Result<Store, WalError> {
    Store::open_durable(curve(), parts, capacity, WalConfig::new(dir))
}

// ---------------------------------------------------------------------
// Basics
// ---------------------------------------------------------------------

#[test]
fn fresh_open_and_empty_reopen() {
    let tmp = TempDir::new("empty");
    {
        let store = reopen(tmp.path(), 2, 64).unwrap();
        assert!(store.is_empty());
        let stats = store.recovery_stats().unwrap();
        assert_eq!(stats.replayed_records, 0);
        assert_eq!(stats.runs_loaded, 0);
    }
    // Clean close, nothing ever written: reopening finds a committed
    // manifest and zero records.
    let store = reopen(tmp.path(), 2, 64).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.recovery_stats().unwrap().replayed_records, 0);
}

#[test]
fn acked_writes_survive_simulated_crash() {
    let tmp = TempDir::new("acked");
    let mut model = Model::new();
    {
        let store = reopen(tmp.path(), 2, 16).unwrap();
        let mut rng = test_rng(0xACED);
        for i in 0..300u32 {
            let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
            let slot = if i % 5 == 4 { None } else { Some(i) };
            apply_acked(&store, &mut model, p, slot);
        }
        store.simulate_crash();
    }
    let store = reopen(tmp.path(), 2, 16).unwrap();
    assert_matches_model(&store, &model);
    let stats = store.recovery_stats().unwrap();
    assert!(
        stats.replayed_records + stats.skipped_records > 0 || stats.runs_loaded > 0,
        "recovery must have read something back: {stats:?}"
    );
}

#[test]
fn tombstones_only_workload_recovers_empty() {
    let tmp = TempDir::new("tombstones");
    // Capacity above the op count: no inline capacity flush may sneak
    // the tail tombstones' seqs under the checkpoint high-water.
    {
        let store = reopen(tmp.path(), 1, 64).unwrap();
        for x in 0..32u32 {
            store.try_delete(Point::new([x, x])).unwrap();
        }
        // Force some tombstones through a flush (and into a run) too.
        store.flush();
        for x in 0..16u32 {
            store.try_delete(Point::new([x, 63])).unwrap();
        }
        store.simulate_crash();
    }
    let store = reopen(tmp.path(), 1, 64).unwrap();
    assert!(store.is_empty(), "tombstones must not resurrect anything");
    let stats = store.recovery_stats().unwrap();
    assert!(
        stats.replayed_records > 0,
        "tail tombstones replay: {stats:?}"
    );
}

#[test]
fn half_published_flush_collapses_newest_wins() {
    let tmp = TempDir::new("newest-wins");
    let p = Point::new([5, 9]);
    {
        let store = reopen(tmp.path(), 1, 64).unwrap();
        store.try_insert(p, 1).unwrap();
        store.flush(); // v1 now lives in a published, persisted run
        store.try_insert(p, 2).unwrap(); // v2 only in WAL + memtable
        store.simulate_crash();
    }
    let store = reopen(tmp.path(), 1, 64).unwrap();
    assert_eq!(store.get(p), Some(2), "WAL replay must shadow the run");
    assert_eq!(store.len(), 1, "one live record, not two versions");
}

#[test]
fn nosync_writes_need_the_sync_barrier() {
    let tmp = TempDir::new("sync-barrier");
    let mut model = Model::new();
    {
        let store = reopen(tmp.path(), 2, 64).unwrap();
        for i in 0..200u32 {
            let p = Point::new([i % 64, i / 64]);
            store.insert_nosync(p, i);
            model.insert(store.curve().index_of(p), (p, i));
        }
        store.sync().expect("durability barrier");
        store.simulate_crash();
    }
    let store = reopen(tmp.path(), 2, 64).unwrap();
    // Every write preceded the sync, so every write is back.
    assert_matches_model(&store, &model);
}

// ---------------------------------------------------------------------
// The truncation sweep
// ---------------------------------------------------------------------

/// Runs a single-shard synchronous workload, recording the segment-file
/// length after each acked op — frame boundaries, since every op is its
/// own fsynced group. Returns the shard's WAL directory contents plus
/// `(file_len_after_op, op_index)` checkpoints and the op stream.
struct SweepSetup {
    ops: Vec<(Point<2>, Option<u32>)>,
    /// `boundaries[i]` = segment length after `i` acked ops (so
    /// `boundaries[0]` is the bare header).
    boundaries: Vec<u64>,
    segment: PathBuf,
    /// Model state the sweep's replay starts from (ops already flushed
    /// into runs before the swept segment began).
    base: Model,
}

fn sweep_setup(dir: &Path, with_flush: bool) -> SweepSetup {
    let mut rng = test_rng(if with_flush { 0x51EE9 } else { 0x51EE8 });
    let store = reopen(dir, 1, 1024).unwrap();
    let mut base = Model::new();
    let shard_dir = dir.join("shard0");

    if with_flush {
        // Pre-populate and flush: these land in a persisted run, the
        // flush prunes the first segment, and the sweep then mutilates
        // only the post-flush segment.
        for i in 0..12u32 {
            let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
            let slot = if i % 4 == 3 { None } else { Some(1000 + i) };
            apply_acked(&store, &mut base, p, slot);
        }
        store.flush();
        // Pruning is asynchronous (the committer reclaims segments off
        // the flush path); wait for the pre-flush segment to vanish so
        // the sweep ops deterministically open a fresh one.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let any_segment = fs::read_dir(&shard_dir).unwrap().any(|e| {
                let name = e.unwrap().file_name().to_string_lossy().into_owned();
                name.starts_with("wal-") && name.ends_with(".log")
            });
            if !any_segment {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "flush never pruned the obsolete segment"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let segment_of = |d: &Path| -> Option<PathBuf> {
        let mut segs: Vec<PathBuf> = fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                name.starts_with("wal-") && name.ends_with(".log")
            })
            .collect();
        segs.sort();
        segs.pop()
    };

    let mut ops = Vec::new();
    let mut boundaries = Vec::new();
    let mut segment = None;
    let mut running = base.clone(); // the live model; `base` stays frozen
    for i in 0..20u32 {
        let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
        let slot = if i % 5 == 4 { None } else { Some(i) };
        apply_acked(&store, &mut running, p, slot);
        ops.push((p, slot));
        let seg = segment_of(&shard_dir).expect("an open segment after an acked write");
        if boundaries.is_empty() {
            // Length before any swept op = segment header alone.
            boundaries.push(8);
        }
        boundaries.push(fs::metadata(&seg).unwrap().len());
        segment = Some(seg);
    }
    store.simulate_crash();
    SweepSetup {
        ops,
        boundaries,
        segment: segment.unwrap(),
        base,
    }
}

/// The model after replaying the first `k` swept ops onto the base.
fn model_after(setup: &SweepSetup, k: usize, curve: &ZCurve<2>) -> Model {
    let mut m = setup.base.clone();
    for &(p, slot) in &setup.ops[..k] {
        let key = curve.index_of(p);
        match slot {
            Some(v) => {
                m.insert(key, (p, v));
            }
            None => {
                m.remove(&key);
            }
        }
    }
    m
}

fn truncation_sweep(with_flush: bool) {
    let tag = if with_flush { "sweep-flush" } else { "sweep" };
    let tmp = TempDir::new(tag);
    let setup = sweep_setup(tmp.path(), with_flush);
    let c = curve();
    let full = fs::read(&setup.segment).unwrap();
    assert_eq!(
        *setup.boundaries.last().unwrap(),
        full.len() as u64,
        "boundaries must track the segment length"
    );

    let scratch = TempDir::new(&format!("{tag}-scratch"));
    for cut in 0..=full.len() {
        let _ = fs::remove_dir_all(scratch.path());
        copy_dir(tmp.path(), scratch.path());
        let seg = scratch
            .path()
            .join(setup.segment.strip_prefix(tmp.path()).unwrap());
        fs::write(&seg, &full[..cut]).unwrap();

        // Exactly the ops whose final frame byte is inside the prefix
        // are recovered; the remainder is a torn tail.
        let k = setup
            .boundaries
            .iter()
            .rposition(|&b| b <= cut as u64)
            .unwrap_or(0);
        let expect = model_after(&setup, k, &c);
        let store = reopen(scratch.path(), 1, 1024)
            .unwrap_or_else(|e| panic!("truncation at {cut} must recover, got {e}"));
        assert_eq!(
            state_of(&store),
            model_state(&expect),
            "state after truncation at byte {cut} (acked prefix = {k} ops)"
        );
        let stats = store.recovery_stats().unwrap();
        // Below the 8-byte header the whole stub is torn; past it, the
        // tail after the last complete frame is.
        let torn = if (cut as u64) < setup.boundaries[0] {
            cut as u64
        } else {
            cut as u64 - setup.boundaries[k]
        };
        assert_eq!(
            stats.torn_tail_bytes, torn,
            "torn-tail accounting at byte {cut}"
        );
    }
}

#[test]
fn recovery_survives_truncation_at_every_byte() {
    truncation_sweep(false);
}

#[test]
fn recovery_survives_truncation_at_every_byte_after_flush() {
    truncation_sweep(true);
}

#[test]
fn bit_flips_never_panic_and_never_invent_state() {
    let tmp = TempDir::new("flips");
    let setup = sweep_setup(tmp.path(), false);
    let c = curve();
    let full = fs::read(&setup.segment).unwrap();
    let all_prefixes: Vec<Vec<(CurveIndex, Point<2>, u32)>> = (0..=setup.ops.len())
        .map(|k| model_state(&model_after(&setup, k, &c)))
        .collect();

    let scratch = TempDir::new("flips-scratch");
    for off in 0..full.len() {
        let _ = fs::remove_dir_all(scratch.path());
        copy_dir(tmp.path(), scratch.path());
        let seg = scratch
            .path()
            .join(setup.segment.strip_prefix(tmp.path()).unwrap());
        let mut bad = full.clone();
        bad[off] ^= 1 << (off % 8);
        fs::write(&seg, &bad).unwrap();

        match reopen(scratch.path(), 1, 1024) {
            // Damage under acked data must be a *typed* corruption
            // error, with the path pointing at the log.
            Err(WalError::Corrupt { path, .. }) => {
                assert!(
                    path.to_string_lossy().contains("wal-"),
                    "corruption must name the damaged segment, got {path:?}"
                );
            }
            Err(other) => panic!("flip at {off}: unexpected error {other}"),
            // A flip that lands in the final frame (or mimics a torn
            // tail) may legally truncate — but the result must be an
            // exact prefix of the acked stream, never invented state.
            Ok(store) => {
                let got = state_of(&store);
                assert!(
                    all_prefixes.contains(&got),
                    "flip at {off}: recovered state is not a prefix of the acked stream"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Batched frames (WAL frame coalescing)
// ---------------------------------------------------------------------

/// Runs a single-shard batched workload, each batch acked through
/// [`ShardedSfcStore::try_apply_batch`] so it lands as exactly one
/// coalesced multi-record frame (the batches are far below the frame
/// body limit). Records the segment length after each batch — batch
/// *frame* boundaries this time, not per-record ones.
struct BatchSweepSetup {
    batches: Vec<Vec<(Point<2>, Option<u32>)>>,
    /// `boundaries[i]` = segment length after `i` acked batches.
    boundaries: Vec<u64>,
    segment: PathBuf,
}

fn batched_sweep_setup(dir: &Path) -> BatchSweepSetup {
    let mut rng = test_rng(0xBA7C4);
    let store = reopen(dir, 1, 1024).unwrap();
    let shard_dir = dir.join("shard0");
    let segment_of = |d: &Path| -> Option<PathBuf> {
        let mut segs: Vec<PathBuf> = fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                name.starts_with("wal-") && name.ends_with(".log")
            })
            .collect();
        segs.sort();
        segs.pop()
    };

    let mut batches = Vec::new();
    let mut boundaries = vec![8u64]; // bare segment header
    let mut segment = None;
    for b in 0..12u32 {
        let len = rng.gen_range(1..=8u32); // includes the 1-record (v1) frame
        let mut batch = Vec::new();
        let mut ops: Vec<BatchOp<2, u32>> = Vec::new();
        for i in 0..len {
            let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
            let slot = if (b + i) % 5 == 4 {
                None
            } else {
                Some(b * 100 + i)
            };
            batch.push((p, slot));
            ops.push(match slot {
                Some(v) => BatchOp::Insert(p, v),
                None => BatchOp::Delete(p),
            });
        }
        store.try_apply_batch(&ops).expect("acked batch");
        batches.push(batch);
        let seg = segment_of(&shard_dir).expect("an open segment after an acked batch");
        boundaries.push(fs::metadata(&seg).unwrap().len());
        segment = Some(seg);
    }
    store.simulate_crash();
    BatchSweepSetup {
        batches,
        boundaries,
        segment: segment.unwrap(),
    }
}

/// The model after replaying the first `k` acked batches. Within a
/// batch the ops apply in submission order (the store sorts each shard
/// slice *stably*, so the last write to a cell still wins).
fn model_after_batches(batches: &[Vec<(Point<2>, Option<u32>)>], k: usize, c: &ZCurve<2>) -> Model {
    let mut m = Model::new();
    for batch in &batches[..k] {
        for &(p, slot) in batch {
            let key = c.index_of(p);
            match slot {
                Some(v) => {
                    m.insert(key, (p, v));
                }
                None => {
                    m.remove(&key);
                }
            }
        }
    }
    m
}

/// The batched analogue of the headline sweep: truncating a log of
/// coalesced frames at **every byte offset** must recover a
/// whole-batch prefix — a frame sharing one checksum across its
/// records replays all-or-nothing, never a partial batch.
#[test]
fn batched_truncation_at_every_byte_recovers_whole_batches() {
    let tmp = TempDir::new("batch-sweep");
    let setup = batched_sweep_setup(tmp.path());
    let c = curve();
    let full = fs::read(&setup.segment).unwrap();
    assert_eq!(
        *setup.boundaries.last().unwrap(),
        full.len() as u64,
        "boundaries must track the segment length"
    );

    let scratch = TempDir::new("batch-sweep-scratch");
    for cut in 0..=full.len() {
        let _ = fs::remove_dir_all(scratch.path());
        copy_dir(tmp.path(), scratch.path());
        let seg = scratch
            .path()
            .join(setup.segment.strip_prefix(tmp.path()).unwrap());
        fs::write(&seg, &full[..cut]).unwrap();

        let k = setup
            .boundaries
            .iter()
            .rposition(|&b| b <= cut as u64)
            .unwrap_or(0);
        let expect = model_after_batches(&setup.batches, k, &c);
        let store = reopen(scratch.path(), 1, 1024)
            .unwrap_or_else(|e| panic!("truncation at {cut} must recover, got {e}"));
        assert_eq!(
            state_of(&store),
            model_state(&expect),
            "state after truncation at byte {cut} (acked prefix = {k} whole batches)"
        );
        let stats = store.recovery_stats().unwrap();
        let torn = if (cut as u64) < setup.boundaries[0] {
            cut as u64
        } else {
            cut as u64 - setup.boundaries[k]
        };
        assert_eq!(
            stats.torn_tail_bytes, torn,
            "torn-tail accounting at byte {cut}"
        );
    }
}

/// Crash atomicity of a cross-shard batch is **per shard frame**: when
/// one shard's log is torn mid-frame, that shard rolls back to its last
/// whole batch slice while every other shard keeps its full stream —
/// never a partially applied slice on any shard.
#[test]
fn torn_batch_frame_is_atomic_per_shard() {
    let tmp = TempDir::new("batch-atomic");
    const PARTS: usize = 4;
    const BATCHES: u32 = 6;
    const PER_BATCH: u32 = 24;

    // Insert-only: a cell always routes to the same shard, so the
    // surviving value of any cell is determined by that one shard's
    // recovered prefix — replaying batches in order below computes it.
    let mut shard0_boundaries = vec![8u64];
    let mut routed: Vec<Vec<(usize, Point<2>, u32)>> = Vec::new(); // per batch: (shard, p, v)
    let segment;
    {
        let store = reopen(tmp.path(), PARTS, 1024).unwrap();
        let part = store.partition();
        let shard0_dir = tmp.path().join("shard0");
        let seg_of = || -> PathBuf {
            let mut segs: Vec<PathBuf> = fs::read_dir(&shard0_dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| {
                    let name = p.file_name().unwrap().to_string_lossy().into_owned();
                    name.starts_with("wal-") && name.ends_with(".log")
                })
                .collect();
            segs.sort();
            segs.pop().expect("shard0 segment")
        };
        let mut rng = test_rng(0xA70);
        for b in 0..BATCHES {
            let mut ops = Vec::new();
            let mut batch = Vec::new();
            for i in 0..PER_BATCH {
                let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
                let v = b * 1000 + i;
                ops.push(BatchOp::Insert(p, v));
                batch.push((part.part_of(store.curve().index_of(p)), p, v));
            }
            store.try_apply_batch(&ops).expect("acked batch");
            shard0_boundaries.push(fs::metadata(seg_of()).unwrap().len());
            routed.push(batch);
        }
        // Uniform points over the grid must spread across every shard —
        // a torn shard0 then genuinely diverges from the others.
        for j in 0..PARTS {
            assert!(
                routed.iter().flatten().any(|&(s, _, _)| s == j),
                "workload must route records to shard {j}"
            );
        }
        segment = seg_of();
        store.simulate_crash();
    }

    let full = fs::read(&segment).unwrap();
    let c = curve();
    let scratch = TempDir::new("batch-atomic-scratch");
    for cut in 0..=full.len() {
        let _ = fs::remove_dir_all(scratch.path());
        copy_dir(tmp.path(), scratch.path());
        let seg = scratch
            .path()
            .join(segment.strip_prefix(tmp.path()).unwrap());
        fs::write(&seg, &full[..cut]).unwrap();

        // Shard 0 keeps its first `k` whole batch slices; every other
        // shard keeps everything.
        let k = shard0_boundaries
            .iter()
            .rposition(|&b| b <= cut as u64)
            .unwrap_or(0);
        let mut expect = Model::new();
        for (b, batch) in routed.iter().enumerate() {
            for &(j, p, v) in batch {
                if j == 0 && b >= k {
                    continue;
                }
                expect.insert(c.index_of(p), (p, v));
            }
        }
        let store = reopen(scratch.path(), PARTS, 1024)
            .unwrap_or_else(|e| panic!("truncation at {cut} must recover, got {e}"));
        assert_eq!(
            state_of(&store),
            model_state(&expect),
            "per-shard atomicity after truncating shard0 at byte {cut} \
             (shard0 prefix = {k} batch slices)"
        );
    }
}

/// Recomputes a run file's trailing checksum (over everything between
/// the 8-byte header and the trailer), so that only the loader's own
/// checks stand between the lie and the index.
fn reseal(file: &mut [u8]) {
    let body_end = file.len() - 4;
    let crc = sfc_store::wal::bench_hooks::crc32c(&file[8..body_end]);
    file[body_end..].copy_from_slice(&crc.to_le_bytes());
}

fn read_u64(file: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(file[at..at + 8].try_into().unwrap())
}

fn write_u64(file: &mut [u8], at: usize, v: u64) {
    file[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

// Byte offsets into a version-2 run file of a `D = 2` store with one
// block (see `sfc-store`'s `wal/manifest.rs` and `sfc-index`'s `block.rs`).
const RUN_VERSION_AT: usize = 4;
const RUN_IMAGE_LEN_AT: usize = 8;
const RUN_LEN_AT: usize = 16;
const RUN_BLOCKS_AT: usize = 24;
const RUN_KEY_WORD_COUNT_AT: usize = 32;
const RUN_FENCE_AT: usize = 48;
const RUN_LIVE_WORD_AT: usize = 80;
const RUN_KEY_WIDTH_AT: usize = 88;
const RUN_COORD_WIDTH_AT: usize = 89;
const RUN_KEY_WORDS_AT: usize = 91;

#[test]
fn corrupt_run_file_is_a_typed_error() {
    let tmp = TempDir::new("run-rot");
    {
        // 20 records, one flush: one referenced run file of one block.
        let store = reopen(tmp.path(), 1, 64).unwrap();
        for i in 0..20u32 {
            store.try_insert(Point::new([(i * 3) % 64, i]), i).unwrap();
        }
        store.flush();
    }
    let shard_dir = tmp.path().join("shard0");
    let run = fs::read_dir(&shard_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "run"))
        .expect("a persisted run file");
    let clean = fs::read(&run).unwrap();
    assert_eq!(read_u64(&clean, RUN_LEN_AT), 20);
    assert_eq!(read_u64(&clean, RUN_BLOCKS_AT), 1);

    // Reopens with `bytes` in place of the run file; the open must fail
    // as `Corrupt` (it never panics and never succeeds), and the detail
    // is returned for the caller to match on.
    let corrupt_detail = |bytes: &[u8], what: &str| -> String {
        fs::write(&run, bytes).unwrap();
        match reopen(tmp.path(), 1, 64) {
            Err(WalError::Corrupt { path, detail, .. }) => {
                assert_eq!(path, run, "{what}: the error names the run file");
                detail
            }
            other => panic!("{what} must fail typed, got {other:?}"),
        }
    };

    // Bit rot: every truncation length and every single-bit flip.
    for cut in 0..clean.len() {
        corrupt_detail(&clean[..cut], &format!("truncation at {cut}"));
    }
    for byte in 0..clean.len() {
        for bit in 0..8 {
            let mut bad = clean.clone();
            bad[byte] ^= 1 << bit;
            corrupt_detail(&bad, &format!("flip of byte {byte} bit {bit}"));
        }
    }

    // Structural lies under a *valid* checksum: the file is edited, then
    // re-sealed, so each one is caught by the check the detail names.
    let lie = |what: &str, edit: &dyn Fn(&mut Vec<u8>), expect: &str| {
        let mut bad = clean.clone();
        edit(&mut bad);
        reseal(&mut bad);
        let detail = corrupt_detail(&bad, what);
        assert!(
            detail.contains(expect),
            "{what}: expected a detail mentioning {expect:?}, got {detail:?}"
        );
    };
    lie(
        "key width 65",
        &|f| f[RUN_KEY_WIDTH_AT] = 65,
        "key width 65",
    );
    lie(
        "coord width 33",
        &|f| f[RUN_COORD_WIDTH_AT] = 33,
        "coord width 33",
    );
    lie(
        "word column one short",
        &|f| {
            // Drop one key word and say so in both counts, so that only
            // the widths' prefix sum disagrees.
            f.drain(RUN_KEY_WORDS_AT..RUN_KEY_WORDS_AT + 8);
            let words = read_u64(f, RUN_KEY_WORD_COUNT_AT);
            write_u64(f, RUN_KEY_WORD_COUNT_AT, words - 1);
            let image = read_u64(f, RUN_IMAGE_LEN_AT);
            write_u64(f, RUN_IMAGE_LEN_AT, image - 8);
        },
        "+ 1 pad",
    );
    lie(
        "block count != ceil(len / 64)",
        &|f| write_u64(f, RUN_BLOCKS_AT, 2),
        "2 blocks for 20 slots",
    );
    lie(
        "payload count != popcount",
        &|f| f[RUN_LIVE_WORD_AT] &= !1,
        "20 payloads for 19 live slots",
    );
    lie(
        "live bit past len",
        &|f| f[RUN_LIVE_WORD_AT + 7] |= 0x80,
        "live bit past slot 20",
    );
    lie(
        "swapped adjacent keys",
        &|f| {
            // Exchange the packed delta fields of slots 1 and 2.
            let w = u32::from(f[RUN_KEY_WIDTH_AT]);
            assert!((1..=21).contains(&w), "three fields in the first word");
            let word = read_u64(f, RUN_KEY_WORDS_AT);
            let mask = (1u64 << w) - 1;
            let (f1, f2) = ((word >> w) & mask, (word >> (2 * w)) & mask);
            assert_ne!(f1, f2);
            let cleared = word & !(mask << w) & !(mask << (2 * w));
            write_u64(f, RUN_KEY_WORDS_AT, cleared | f2 << w | f1 << (2 * w));
        },
        "keys decrease",
    );
    lie(
        "a key that is not index_of(point)",
        &|f| f[RUN_FENCE_AT] ^= 1,
        "not the curve's key",
    );
    for len in [1u64 << 40, u64::MAX] {
        lie(
            "a len larger than the file",
            &|f| {
                write_u64(f, RUN_LEN_AT, len);
                write_u64(f, RUN_BLOCKS_AT, len.div_ceil(64));
            },
            "disagree with the",
        );
    }
    lie(
        "an image length larger than the file",
        &|f| write_u64(f, RUN_IMAGE_LEN_AT, u64::MAX),
        "file ends inside block image",
    );
    // The retired per-record layout is refused by name, not parsed.
    lie(
        "a version-1 run file",
        &|f| f[RUN_VERSION_AT] = 1,
        "SFRN version 1",
    );

    // The clean bytes still open: everything above failed on its merits.
    fs::write(&run, &clean).unwrap();
    assert_eq!(reopen(tmp.path(), 1, 64).unwrap().len(), 20);

    // A missing referenced run is equally fatal and equally typed.
    fs::remove_file(&run).unwrap();
    match reopen(tmp.path(), 1, 64) {
        Err(WalError::Corrupt { .. }) => {}
        other => panic!("missing run must fail typed, got {other:?}"),
    }
}

#[test]
fn shard_count_mismatch_is_rejected() {
    let tmp = TempDir::new("mismatch");
    {
        let store = reopen(tmp.path(), 2, 64).unwrap();
        store.try_insert(Point::new([1, 1]), 7).unwrap();
    }
    match reopen(tmp.path(), 3, 64) {
        Err(WalError::Mismatch { .. }) => {}
        other => panic!("shard-count mismatch must fail typed, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Rollback, pruning, multi-shard
// ---------------------------------------------------------------------

#[test]
fn unreferenced_generation_rolls_back_and_sweeps_orphans() {
    let tmp = TempDir::new("rollback");
    let mut model1 = Model::new();
    {
        let store = reopen(tmp.path(), 1, 32).unwrap();
        let mut rng = test_rng(0xB0B);
        for i in 0..60u32 {
            let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
            apply_acked(&store, &mut model1, p, Some(i));
        }
        store.flush();
    }
    // Freeze generation 1, then advance the original to generation 2.
    let frozen = TempDir::new("rollback-frozen");
    copy_dir(tmp.path(), frozen.path());
    {
        let store = reopen(tmp.path(), 1, 32).unwrap();
        let mut model2 = model1.clone();
        let mut rng = test_rng(0xB0C);
        for i in 0..60u32 {
            let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
            apply_acked(&store, &mut model2, p, Some(100 + i));
        }
        store.flush();
    }
    // Drop generation 2's files into the frozen copy *without* its
    // manifest — exactly what a crash before the manifest rename leaves
    // behind. Recovery must roll back to generation 1 and sweep the
    // debris.
    let src = tmp.path().join("shard0");
    let dst = frozen.path().join("shard0");
    for entry in fs::read_dir(&src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        let to = dst.join(&name);
        if !to.exists() {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
    let store = reopen(frozen.path(), 1, 32).unwrap();
    assert_matches_model(&store, &model1);
    assert!(
        store.recovery_stats().unwrap().orphans_removed > 0,
        "generation-2 debris must be swept"
    );
}

#[test]
fn flushes_prune_obsolete_segments() {
    let tmp = TempDir::new("prune");
    let mut model = Model::new();
    let config = WalConfig::new(tmp.path()).segment_bytes(1); // floored to 4 KiB
    {
        let store = Store::open_durable(curve(), 1, 256, config.clone()).unwrap();
        let mut rng = test_rng(0x9);
        // Enough synchronous writes to rotate through several segments,
        // flushing as we go so earlier segments become wholly obsolete.
        for round in 0..6 {
            for i in 0..300u32 {
                let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
                apply_acked(&store, &mut model, p, Some(round * 1000 + i));
            }
            store.flush();
        }
    }
    let wal_bytes: u64 = fs::read_dir(tmp.path().join("shard0"))
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| e.metadata().unwrap().len())
        .sum();
    // 1800 frames at ~25 bytes each is ~45 KiB of raw log; pruning must
    // have reclaimed the flushed majority.
    assert!(
        wal_bytes < 16 << 10,
        "flushed segments must be pruned, {wal_bytes} bytes remain"
    );
    let store = Store::open_durable(curve(), 1, 256, config).unwrap();
    assert_matches_model(&store, &model);
}

/// Every file under `dir` with its size, sorted.
fn listing(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_dir() {
            out.extend(listing(&entry.path()));
        } else {
            out.push((entry.path(), entry.metadata().unwrap().len()));
        }
    }
    out.sort();
    out
}

/// Everything a snapshot shows, flattened: live count, iteration, one
/// box query, one kNN and a stride of point gets.
fn snapshot_reads(
    snap: &sfc_store::ShardedSnapshot<2, u32, ZCurve<2>>,
    model: &Model,
) -> Vec<Vec<(CurveIndex, Point<2>, u32)>> {
    let flat = |v: Vec<sfc_store::StoreEntryRef<'_, 2, u32>>| {
        v.into_iter()
            .map(|e| (e.key, e.point, *e.payload))
            .collect::<Vec<_>>()
    };
    assert_eq!(snap.len(), model.len(), "snapshot live count");
    for &(p, v) in model.values().step_by(5) {
        assert_eq!(snap.get(p), Some(&v), "snapshot get({p})");
    }
    let b = BoxRegion::new(Point::new([5, 9]), Point::new([40, 50]));
    vec![
        flat(snap.iter().collect()),
        flat(snap.query_box(&b).0),
        flat(snap.knn(Point::new([31, 33]), 7, 4).0),
    ]
}

/// What [`snapshot_reads`] must return for a store equal to `model`.
fn model_reads(model: &Model) -> Vec<Vec<(CurveIndex, Point<2>, u32)>> {
    let all = model_state(model);
    let b = BoxRegion::new(Point::new([5, 9]), Point::new([40, 50]));
    let boxed = all
        .iter()
        .filter(|(_, p, _)| b.contains(p))
        .copied()
        .collect();
    let q = Point::new([31, 33]);
    let mut nearest = all.clone();
    nearest.sort_by_key(|&(key, p, _)| (q.euclidean_sq(&p), key));
    nearest.truncate(7);
    vec![all, boxed, nearest]
}

/// A snapshot is a capture: with a non-empty memtable on every shard of
/// a durable store it flushes nothing (memtables, run stacks and flush
/// counters unchanged), writes nothing (no run file, no checkpoint: the
/// directory listing is the same before and after), sees every write
/// applied before it, and keeps seeing exactly that while writers insert
/// and delete and a flush, a compaction and a rebalance run.
#[test]
fn snapshot_is_a_capture_not_a_flush() {
    let tmp = TempDir::new("capture");
    let mut store = reopen(tmp.path(), 4, 16).unwrap();
    let metrics = store.enable_metrics();
    let mut model = Model::new();
    let mut rng = test_rng(0xCA97);
    // Skewed to the low quarter so the final rebalance moves boundaries.
    for i in 0..907u32 {
        let side = if i % 2 == 0 { 64 } else { 32 };
        let p = Point::new([rng.gen_range(0..side), rng.gen_range(0..side)]);
        let slot = if i % 7 == 6 { None } else { Some(i) };
        apply_acked(&store, &mut model, p, slot);
    }
    let flushes = |j: usize| {
        metrics
            .registry()
            .snapshot()
            .counter(&format!("shard{j}.flush.count"))
            .unwrap()
    };
    let before = (
        store.shard_memtable_lens(),
        store.shard_run_lens(),
        (0..4).map(flushes).collect::<Vec<_>>(),
    );
    assert!(
        before.0.iter().all(|&n| n > 0) && before.1.iter().all(|r| !r.is_empty()),
        "want memtable entries and runs on every shard: {before:?}"
    );
    store.sync().unwrap();
    let files = listing(tmp.path());

    let snap = store.snapshot();

    assert_eq!(listing(tmp.path()), files, "snapshot() wrote to disk");
    let after = (
        store.shard_memtable_lens(),
        store.shard_run_lens(),
        (0..4).map(flushes).collect::<Vec<_>>(),
    );
    assert_eq!(after, before, "snapshot() flushed");
    let frozen = model_reads(&model);
    assert_eq!(snapshot_reads(&snap, &model), frozen);

    // Writers, a flush, a compaction and a rebalance: the store moves on,
    // the snapshot does not.
    std::thread::scope(|scope| {
        for writer in 0..2u64 {
            let store = &store;
            scope.spawn(move || {
                let mut rng = test_rng(0xD00D + writer);
                for i in 0..600u32 {
                    let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
                    if i % 3 == 2 {
                        store.delete_nosync(p);
                    } else {
                        store.insert_nosync(p, 100_000 + i);
                    }
                }
            });
        }
        store.flush();
        assert_eq!(snapshot_reads(&snap, &model), frozen, "after a flush");
        store.compact();
        assert_eq!(snapshot_reads(&snap, &model), frozen, "after a compaction");
    });
    assert!(store.rebalance(1e-9), "skewed writes must move boundaries");
    assert_eq!(snapshot_reads(&snap, &model), frozen, "after a rebalance");
    assert_ne!(state_of(&store), frozen[0], "the store itself moved on");
}

/// A durable flush that fails on the maintenance thread has no caller to
/// return its error to: it must be counted, and must not wedge shutdown.
/// There is no I/O fault hook and the suite runs as root, so the failure
/// is made by removing the store's directory from under it.
#[test]
fn background_flush_failure_is_counted_and_does_not_hang_shutdown() {
    let tmp = TempDir::new("maintenance-error");
    let mut store = reopen(tmp.path(), 2, 8).unwrap();
    let metrics = store.enable_metrics();
    let store = Arc::new(store);
    store.start_maintenance(MaintenanceConfig {
        interval: Duration::from_millis(1),
        ..MaintenanceConfig::default()
    });
    fs::remove_dir_all(tmp.path()).unwrap();
    // Shard 0 owns the low half of the Z keyspace: push it past capacity.
    for x in 0..16u32 {
        store.insert_nosync(Point::new([x % 8, x / 8]), x);
    }
    let errors = || {
        metrics
            .registry()
            .snapshot()
            .counter("engine.maintenance.errors")
            .unwrap()
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while errors() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the failed background flush was never counted"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Both must return: the failed flush left no lock held, no thread
    // parked.
    store.stop_maintenance();
    drop(store);
}

#[test]
fn multi_shard_crash_recovery_with_flushes() {
    let tmp = TempDir::new("multi-shard");
    let mut model = Model::new();
    {
        let store = reopen(tmp.path(), 4, 16).unwrap();
        let mut rng = test_rng(0x4A11);
        for i in 0..500u32 {
            let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
            let slot = if i % 6 == 5 { None } else { Some(i) };
            apply_acked(&store, &mut model, p, slot);
            if i % 120 == 119 {
                store.flush();
            }
        }
        store.simulate_crash();
    }
    let store = reopen(tmp.path(), 4, 16).unwrap();
    assert_matches_model(&store, &model);
}

/// Four acked writers, one un-waited stream and a flusher share one
/// commit queue: acked writes lead their own group commits and sweep the
/// un-waited frames along, the flushes persist runs and request prunes
/// in between. After a crash every acked write is back; of the un-waited
/// stream whatever came back was really written.
#[test]
fn durable_multi_writer_crash_consistency() {
    let tmp = TempDir::new("writers");
    let grid: Grid<2> = Grid::from_side(64).unwrap();
    let half = (grid.side() / 2) as u32;
    // The acked writers leave the top four rows of their quadrants
    // alone; the un-waited stream owns rows `free_row..`.
    let rows = half - 4;
    let free_row = half + rows;
    let acked_stream = |w: u32| {
        let mut rng = test_rng(0xD00D + u64::from(w));
        let (ox, oy) = [(0, 0), (half, 0), (0, half), (half, half)][w as usize];
        (0..400u32).map(move |i| {
            let p = Point::new([ox + rng.gen_range(0..half), oy + rng.gen_range(0..rows)]);
            (p, (i % 7 != 6).then_some(w * 1_000_000 + i))
        })
    };
    let unwaited_stream = || {
        let mut rng = test_rng(0xD00D + 4);
        (0..2000u32).map(move |i| {
            let p = Point::new([
                rng.gen_range(0..2 * half),
                free_row + rng.gen_range(0..4u32),
            ]);
            (p, 5_000_000 + i)
        })
    };
    let mut model = Model::new();
    {
        let store = Arc::new(reopen(tmp.path(), 4, 64).unwrap());
        let writing = std::sync::atomic::AtomicUsize::new(5);
        let done = || {
            writing.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
        };
        // Four writers on disjoint quadrants: every write acked, so the
        // final state is interleaving-independent.
        std::thread::scope(|s| {
            for w in 0..4u32 {
                let (store, done) = (Arc::clone(&store), &done);
                s.spawn(move || {
                    for (p, slot) in acked_stream(w) {
                        match slot {
                            Some(v) => store.try_insert(p, v).unwrap(),
                            None => store.try_delete(p).unwrap(),
                        };
                    }
                    done();
                });
            }
            s.spawn(|| {
                for (p, v) in unwaited_stream() {
                    store.insert_nosync(p, v);
                }
                done();
            });
            s.spawn(|| {
                while writing.load(std::sync::atomic::Ordering::SeqCst) > 0 {
                    store.flush();
                }
            });
        });
        // Sequential replay of the same per-writer streams.
        let c = curve();
        for w in 0..4u32 {
            for (p, slot) in acked_stream(w) {
                match slot {
                    Some(v) => model.insert(c.index_of(p), (p, v)),
                    None => model.remove(&c.index_of(p)),
                };
            }
        }
        Arc::try_unwrap(store)
            .expect("writers joined")
            .simulate_crash();
    }
    let store = reopen(tmp.path(), 4, 64).unwrap();
    let (unwaited, acked): (Vec<_>, Vec<_>) = state_of(&store)
        .into_iter()
        .partition(|(_, p, _)| p.coord(1) >= free_row);
    assert_eq!(acked, model_state(&model), "recovered acked state");
    assert_eq!(store.len(), model.len() + unwaited.len(), "live count");
    for (&key, &(p, v)) in model.iter().step_by(7) {
        assert_eq!(store.get(p), Some(v), "get({p}) at key {key}");
    }
    // Nothing is owed for the un-waited stream, but nothing may be
    // invented either: each cell holds a value that was written to it.
    let issued: Vec<(Point<2>, u32)> = unwaited_stream().collect();
    for (key, p, v) in unwaited {
        assert!(
            issued.contains(&(p, v)),
            "cell {p} (key {key}) recovered {v}, which nobody wrote there"
        );
    }
}

#[test]
fn rebalance_boundaries_survive_crash() {
    let tmp = TempDir::new("rebalance");
    let mut model = Model::new();
    let boundaries;
    {
        let store = reopen(tmp.path(), 4, 32).unwrap();
        let mut rng = test_rng(0xBA17);
        // Skewed traffic into one corner, then rebalance.
        for i in 0..400u32 {
            let p = Point::new([rng.gen_range(0..16), rng.gen_range(0..16)]);
            apply_acked(&store, &mut model, p, Some(i));
        }
        assert!(store.rebalance(0.01), "skew must move boundaries");
        boundaries = store.partition().boundaries().to_vec();
        // More acked writes after the rebalance.
        for i in 0..100u32 {
            let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
            apply_acked(&store, &mut model, p, Some(1000 + i));
        }
        store.simulate_crash();
    }
    let store = reopen(tmp.path(), 4, 32).unwrap();
    assert_eq!(
        store.partition().boundaries(),
        &boundaries[..],
        "committed rebalance boundaries must persist"
    );
    assert_matches_model(&store, &model);
}

// ---------------------------------------------------------------------
// One write path: a single write is a batch of one
// ---------------------------------------------------------------------

/// Where a cell's newest version sits before a write, which decides what
/// the write returns ("a live record was replaced or removed").
#[derive(Clone, Copy, Debug)]
enum Prior {
    LiveInMemtable,
    TombstoneInMemtable,
    LiveInRun,
    TombstonedByNewerRun,
    Absent,
}

impl Prior {
    const ALL: [Prior; 5] = [
        Prior::LiveInMemtable,
        Prior::TombstoneInMemtable,
        Prior::LiveInRun,
        Prior::TombstonedByNewerRun,
        Prior::Absent,
    ];

    fn live(self) -> bool {
        matches!(self, Prior::LiveInMemtable | Prior::LiveInRun)
    }

    /// Puts cell `c` of a fresh one-shard store into this state, beside
    /// 32 filler records that keep a bottom run large enough that a
    /// one-record newer run is never merged into it.
    fn reach(self, store: &Store, c: Point<2>) {
        for i in 0..32u32 {
            store.insert(Point::new([i, 63]), i);
        }
        match self {
            Prior::LiveInMemtable => {
                store.insert(c, 1);
            }
            Prior::TombstoneInMemtable => {
                store.insert(c, 1);
                store.delete(c);
            }
            Prior::LiveInRun => {
                store.insert(c, 1);
                store.flush();
            }
            Prior::TombstonedByNewerRun => {
                store.insert(c, 1);
                store.flush();
                store.delete(c);
                store.flush();
                assert_eq!(store.shard_run_lens(), vec![vec![33, 1]], "two runs");
            }
            Prior::Absent => {}
        }
        assert_eq!(store.len(), 32 + usize::from(self.live()), "{self:?}");
    }
}

/// `insert` / `delete` report a replaced live record for every prior
/// state of the cell — on the store that wrote the state and on one
/// reopened from its log and run files (whose replay goes through the
/// same memtable bookkeeping).
#[test]
fn write_returns_whether_a_live_record_was_replaced_for_every_prior_state() {
    let c = Point::new([5u32, 9]);
    for prior in Prior::ALL {
        for reopened in [false, true] {
            for insert in [true, false] {
                let tmp = TempDir::new(&format!("prior-{prior:?}-{reopened}-{insert}"));
                let mut store = reopen(tmp.path(), 1, 1 << 12).unwrap();
                prior.reach(&store, c);
                if reopened {
                    store.simulate_crash();
                    store = reopen(tmp.path(), 1, 1 << 12).unwrap();
                    assert_eq!(store.len(), 32 + usize::from(prior.live()), "{prior:?}");
                }
                let what = format!("{prior:?}, reopened {reopened}, insert {insert}");
                let replaced = if insert {
                    store.try_insert(c, 2).unwrap()
                } else {
                    store.try_delete(c).unwrap()
                };
                assert_eq!(replaced, prior.live(), "{what}");
                assert_eq!(store.len(), 32 + usize::from(insert), "{what}");
                assert_eq!(store.get(c), insert.then_some(2), "{what}");
            }
        }
    }
}

/// What one acked write leaves on a one-shard `u64` store that already
/// holds seven records: the bytes it appended to the segment file, the
/// whole file, and the store's contents.
#[derive(Debug, PartialEq)]
struct LoggedWrite {
    appended: Vec<u8>,
    log: Vec<u8>,
    state: Vec<(CurveIndex, Point<2>, u64)>,
    len: usize,
}

fn logged_bytes(tag: &str, write: impl FnOnce(&ShardedSfcStore<2, u64, ZCurve<2>>)) -> LoggedWrite {
    let tmp = TempDir::new(tag);
    let store =
        ShardedSfcStore::<2, u64, _>::open_durable(curve(), 1, 1 << 12, WalConfig::new(tmp.path()))
            .unwrap();
    // Seven writes first: the one under test takes seq 7.
    for i in 0..7u32 {
        store.try_insert(Point::new([i, 40]), u64::from(i)).unwrap();
    }
    let segment = fs::read_dir(tmp.path().join("shard0"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
        .expect("an open segment");
    let before = fs::read(&segment).unwrap().len();
    write(&store);
    let log = fs::read(&segment).unwrap();
    LoggedWrite {
        appended: log[before..].to_vec(),
        log,
        state: store.iter().map(|e| (e.key, e.point, e.payload)).collect(),
        len: store.len(),
    }
}

/// A single acked write appends the released v1 frame byte for byte (the
/// golden hex `record.rs` pins), and a batch of one is the same write:
/// same log bytes, same `iter()`, same `len()`.
#[test]
fn a_single_write_logs_the_v1_frame_and_equals_a_batch_of_one() {
    let p = Point::new([3u32, 17]);
    let single = logged_bytes("v1-single", |s| {
        assert!(!s.try_insert(p, 42).unwrap());
    });
    let hex: String = single.appended.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        hex,
        "190000007955bdfc01070000000000000003000000110000002a00000000000000"
    );
    let batch = logged_bytes("v1-batch", |s| {
        s.try_apply_batch(&[BatchOp::Insert(p, 42)]).unwrap();
    });
    assert_eq!(batch, single);
    let delete = logged_bytes("v1-delete", |s| {
        assert!(s.try_delete(Point::new([2, 40])).unwrap());
    });
    let batch_delete = logged_bytes("v1-batch-delete", |s| {
        s.try_apply_batch(&[BatchOp::Delete(Point::new([2, 40]))])
            .unwrap();
    });
    assert_eq!(batch_delete, delete);
    assert_eq!(delete.len, 6);
}

// ---------------------------------------------------------------------
// Property-based interleaving
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum DurableOp {
    Insert(u32, u32, u32),
    Delete(u32, u32),
    /// An acked cross-shard batch, expanded deterministically from the
    /// seed by [`batch_ops`].
    Batch(u64),
    Flush,
    CrashAndReopen,
}

/// The op stream a [`DurableOp::Batch`] seed expands to: a mixed
/// insert/delete batch, including duplicate cells (last write wins).
fn batch_ops(seed: u64) -> Vec<(Point<2>, Option<u32>)> {
    let mut rng = test_rng(seed);
    let len = rng.gen_range(1..=12usize);
    (0..len)
        .map(|i| {
            let p = Point::new([rng.gen_range(0..64), rng.gen_range(0..64)]);
            let slot = if rng.gen_range(0..4u32) == 3 {
                None
            } else {
                Some(seed as u32 ^ i as u32)
            };
            (p, slot)
        })
        .collect()
}

fn durable_ops(seed: u64, len: usize) -> Vec<DurableOp> {
    let mut rng = test_rng(seed);
    (0..len)
        .map(|i| {
            let x = rng.gen_range(0..64);
            let y = rng.gen_range(0..64);
            match rng.gen_range(0..14u32) {
                0..=6 => DurableOp::Insert(x, y, i as u32),
                7..=9 => DurableOp::Delete(x, y),
                10 => DurableOp::Flush,
                11 => DurableOp::CrashAndReopen,
                12..=13 => DurableOp::Batch(seed.wrapping_add(i as u64)),
                _ => unreachable!(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings of acked writes, flushes, crashes, and
    /// reopens: after every crash the reopened store must equal the
    /// sequential model (every op was acked, so nothing may be lost),
    /// and the final state must too.
    #[test]
    fn durable_store_matches_model_across_crashes(
        seed in any::<u64>(),
        parts in 1usize..5,
        cap in 4usize..64,
    ) {
        let tmp = TempDir::new(&format!("prop-{seed:x}-{parts}-{cap}"));
        let mut model = Model::new();
        let mut store = Some(reopen(tmp.path(), parts, cap).unwrap());
        for op in durable_ops(seed, 120) {
            let s = store.as_ref().unwrap();
            match op {
                DurableOp::Insert(x, y, v) => {
                    apply_acked(s, &mut model, Point::new([x, y]), Some(v));
                }
                DurableOp::Delete(x, y) => {
                    apply_acked(s, &mut model, Point::new([x, y]), None);
                }
                DurableOp::Batch(batch_seed) => {
                    let batch = batch_ops(batch_seed);
                    let ops: Vec<BatchOp<2, u32>> = batch
                        .iter()
                        .map(|&(p, slot)| match slot {
                            Some(v) => BatchOp::Insert(p, v),
                            None => BatchOp::Delete(p),
                        })
                        .collect();
                    s.try_apply_batch(&ops).expect("acked batch");
                    for (p, slot) in batch {
                        let key = s.curve().index_of(p);
                        match slot {
                            Some(v) => {
                                model.insert(key, (p, v));
                            }
                            None => {
                                model.remove(&key);
                            }
                        }
                    }
                }
                DurableOp::Flush => s.flush(),
                DurableOp::CrashAndReopen => {
                    store.take().unwrap().simulate_crash();
                    let s = reopen(tmp.path(), parts, cap).unwrap();
                    assert_matches_model(&s, &model);
                    store = Some(s);
                }
            }
        }
        store.take().unwrap().simulate_crash();
        let s = reopen(tmp.path(), parts, cap).unwrap();
        assert_matches_model(&s, &model);
    }
}
