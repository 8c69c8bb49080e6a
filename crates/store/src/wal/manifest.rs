//! Persistent-state file formats and atomic-write helpers: run files
//! and the root `MANIFEST`.
//!
//! Every file is CRC32C-trailed and self-identifying (magic + version +
//! dimensionality). None of them is ever modified in place: a run file
//! is written once under a fresh name and referenced afterwards; the
//! manifest is replaced by write-temp → fsync → rename → fsync-dir,
//! which is the *only* commit point of the whole store.
//!
//! ```text
//! <dir>/MANIFEST            magic "SFMF" (version 2), layout below
//! <dir>/shard3/run-000007.run
//!                           magic "SFRN" (version 2) | block image
//!                           | payload column | crc
//! <dir>/shard3/wal-000011.log
//!                           see `record` for the frame format
//! ```
//!
//! # The manifest (version 2): every shard's runs and replay floor
//!
//! ```text
//! [ "SFMF" | 2 | dims | 0 0 ]
//! [ parts: u32 ] then per shard:
//!   [ high_water: u64 ][ live: u64 ][ run count: u32 ][ run id: u64 ] × count
//! [ boundary count: u32 ][ boundary: u128 ] × (parts + 1)
//! [ crc32c of everything after the 8-byte header: u32 ]
//! ```
//!
//! A shard's entry is its WAL replay floor, its live count and the ids
//! of its run files, oldest first. [`Manifest::decode`] refuses, as a
//! [`WalError::Corrupt`] with the offset, a version-1 file (which named
//! per-shard checkpoint files instead), a run id listed twice in one
//! shard, a boundary count other than `parts + 1`, a first boundary
//! other than 0 and a boundary below its predecessor.
//!
//! # Run files (version 2): the blocks, as they are
//!
//! A run in memory is already ≈ 3 B of bit-packed keys and coordinates
//! per record — the curve keeps a run's neighbours close, so the deltas
//! are tiny. The file is that memory, not a re-expansion of it:
//!
//! ```text
//! [ "SFRN" | 2 | dims | 0 0 ]
//! [ image_len: u64 ][ BlockStore byte image, image_len bytes ]
//! [ payload count: u64 ] then per live slot, in key order:
//!   [ payload_len: u32 ][ WalPayload bytes ]
//! [ crc32c of everything after the 8-byte header: u32 ]
//! ```
//!
//! (all little-endian; the image layout is in `sfc_index::block`).
//! Writing is a dump — no slot is decoded. Loading re-packs nothing and
//! re-encodes no key it can avoid, but it trusts nothing either: a run
//! file that passes its checksum can still have been written by a
//! broken build, and it is about to be indexed into. [`decode_run`]
//! checks, in order, each failure a [`WalError::Corrupt`] with the path
//! and the offset, never a panic, never an allocation the file's own
//! length does not back:
//!
//! 1. header — magic, **version** (a version-1 file, the retired
//!    per-record layout, is refused by name), dims, reserved bytes —
//!    and the trailing checksum;
//! 2. `image_len` fits the file;
//! 3. everything [`BlockStore::read_from`] checks: block count =
//!    `ceil(len / 64)`, counts backed by the image's length, key widths
//!    ≤ 64 or raw, coord widths ≤ 32, word columns exactly their widths'
//!    prefix sums plus the pad word, no live bit past `len`, AABBs not
//!    inverted, fence = first key, keys non-decreasing, no key past
//!    `u128::MAX`, every point inside its block's AABB (rank prefix
//!    sums, word offsets and the run AABB are recomputed, never read);
//! 4. one decode pass, a block at a time: every point inside the
//!    curve's grid, every stored key equal to the curve's key for its
//!    point (`index_of_batch`, 64 at a time), keys **strictly**
//!    increasing across the run;
//! 5. payload count = the bitmap's popcount and backed by the bytes
//!    that remain; every payload decodes; nothing trails the column.

use std::collections::BTreeSet;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sfc_core::{CurveIndex, SpaceFillingCurve};
use sfc_index::{BlockCursor, BlockStore, SfcIndex, BLOCK_SLOTS};

use super::record::{crc32c, put_sized_payload, WalPayload};
use super::WalError;
use crate::view::Run;

const MANIFEST_MAGIC: &[u8; 4] = b"SFMF";
const RUN_MAGIC: &[u8; 4] = b"SFRN";
/// Version of the manifest layout (1 named per-shard checkpoint files).
const MANIFEST_VERSION: u8 = 2;
/// Version of the run-file layout (1 was the per-record layout).
const RUN_VERSION: u8 = 2;

/// `<dir>/MANIFEST`.
pub(crate) fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// `<dir>/shard<j>`.
pub(crate) fn shard_dir(dir: &Path, j: usize) -> PathBuf {
    dir.join(format!("shard{j}"))
}

/// `<shard_dir>/run-<id>.run`.
pub(crate) fn run_path(shard_dir: &Path, id: u64) -> PathBuf {
    shard_dir.join(format!("run-{id:06}.run"))
}

/// `<shard_dir>/wal-<id>.log`.
pub(crate) fn segment_path(shard_dir: &Path, id: u64) -> PathBuf {
    shard_dir.join(format!("wal-{id:06}.log"))
}

/// Parses `<stem>-<number><suffix>` file names, e.g. `run-000007.run`.
pub(crate) fn parse_numbered(name: &str, stem: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(stem)?.strip_suffix(suffix)?;
    if rest.is_empty() || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Fsyncs a directory so renames/creations inside it survive a crash.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), WalError> {
    let d = File::open(dir).map_err(|e| WalError::io(dir, &e))?;
    d.sync_all().map_err(|e| WalError::io(dir, &e))
}

/// Writes `bytes` to `path` and syncs the file (not the directory — the
/// caller syncs once after a batch of creations).
pub(crate) fn write_file(path: &Path, bytes: &[u8]) -> Result<(), WalError> {
    let mut f = File::create(path).map_err(|e| WalError::io(path, &e))?;
    f.write_all(bytes).map_err(|e| WalError::io(path, &e))?;
    f.sync_all().map_err(|e| WalError::io(path, &e))
}

/// Atomically replaces `path` with `bytes`: temp file in the same
/// directory, fsync, rename over, fsync the directory.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), WalError> {
    let tmp = path.with_extension("tmp");
    write_file(&tmp, bytes)?;
    fs::rename(&tmp, path).map_err(|e| WalError::io(path, &e))?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// A bounds-checked little-endian reader over a loaded file, turning
/// every short read into a typed [`WalError::Corrupt`].
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a Path,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8], path: &'a Path) -> Self {
        Self { buf, pos: 0, path }
    }

    pub(crate) fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes left before the end of the (fenced) body.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn corrupt(&self, detail: impl Into<String>) -> WalError {
        WalError::corrupt(self.path, self.pos as u64, detail)
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WalError> {
        if self.remaining() < n {
            return Err(self.corrupt(format!("file ends inside {what}")));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn u128(&mut self, what: &str) -> Result<u128, WalError> {
        Ok(u128::from_le_bytes(
            self.take(16, what)?.try_into().expect("16 bytes"),
        ))
    }

    /// Checks an 8-byte header (magic, `version`, dims) and a trailing
    /// CRC32C over everything between header and trailer; leaves the
    /// cursor after the header and fences the body before the trailer.
    pub(crate) fn open_checked(
        &mut self,
        magic: &[u8; 4],
        version: u8,
        dims: u8,
    ) -> Result<(), WalError> {
        let head = self.take(8, "file header")?;
        if &head[..4] != magic {
            return Err(self.corrupt("bad file magic"));
        }
        if head[4] != version {
            return Err(self.corrupt(format!(
                "unsupported {} version {} (this build reads version {version})",
                String::from_utf8_lossy(magic),
                head[4]
            )));
        }
        if head[5] != dims {
            return Err(self.corrupt(format!("file dims {} != store dims {dims}", head[5])));
        }
        if head[6] != 0 || head[7] != 0 {
            return Err(self.corrupt("nonzero reserved header bytes"));
        }
        if self.buf.len() < self.pos + 4 {
            return Err(self.corrupt("file too short for checksum trailer"));
        }
        let body = &self.buf[self.pos..self.buf.len() - 4];
        let want = u32::from_le_bytes(self.buf[self.buf.len() - 4..].try_into().expect("4 bytes"));
        if crc32c(body) != want {
            return Err(self.corrupt("checksum mismatch"));
        }
        self.buf = &self.buf[..self.buf.len() - 4];
        Ok(())
    }
}

fn header(magic: &[u8; 4], version: u8, dims: u8) -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(magic);
    h[4] = version;
    h[5] = dims;
    h
}

/// Appends `crc32c(body)` where `body` is everything after the 8-byte
/// header already in `out`.
fn seal(out: &mut Vec<u8>) {
    let crc = crc32c(&out[8..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------
// MANIFEST
// ---------------------------------------------------------------------

/// The store's single source of truth on disk: each shard's entry and
/// the partition boundaries they were persisted under. Replaced
/// atomically; every file it does not name is garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// One entry per shard.
    pub(crate) shards: Vec<ShardEntry>,
    /// Partition boundaries, `parts + 1` entries starting at 0.
    pub(crate) boundaries: Vec<CurveIndex>,
}

/// One shard's persisted epoch: the WAL replay floor (`high_water`),
/// the epoch's live count and its run-file ids, oldest first. The
/// default is a shard that never flushed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ShardEntry {
    pub(crate) high_water: u64,
    pub(crate) live: u64,
    pub(crate) run_ids: Vec<u64>,
}

impl Manifest {
    pub(crate) fn encode(&self, dims: u8) -> Vec<u8> {
        let ids: usize = self.shards.iter().map(|e| e.run_ids.len()).sum();
        let mut out = Vec::with_capacity(
            8 + 8 + self.shards.len() * 20 + ids * 8 + self.boundaries.len() * 16 + 4,
        );
        out.extend_from_slice(&header(MANIFEST_MAGIC, MANIFEST_VERSION, dims));
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        for e in &self.shards {
            out.extend_from_slice(&e.high_water.to_le_bytes());
            out.extend_from_slice(&e.live.to_le_bytes());
            out.extend_from_slice(&(e.run_ids.len() as u32).to_le_bytes());
            for id in &e.run_ids {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.boundaries.len() as u32).to_le_bytes());
        for b in &self.boundaries {
            out.extend_from_slice(&b.to_le_bytes());
        }
        seal(&mut out);
        out
    }

    /// Parses and checks a manifest (the checks are in the module docs).
    pub(crate) fn decode(buf: &[u8], path: &Path, dims: u8) -> Result<Self, WalError> {
        let mut r = ByteReader::new(buf, path);
        r.open_checked(MANIFEST_MAGIC, MANIFEST_VERSION, dims)?;
        let parts = r.u32("shard count")? as usize;
        // Each entry takes at least 20 bytes.
        if parts == 0 || parts > r.remaining() / 20 {
            return Err(r.corrupt("implausible shard count"));
        }
        let mut shards = Vec::with_capacity(parts);
        for _ in 0..parts {
            let high_water = r.u64("high water")?;
            let live = r.u64("live count")?;
            // A count the file cannot back fails at its end.
            let n = r.u32("run count")?;
            let (mut run_ids, mut seen) = (Vec::new(), BTreeSet::new());
            for _ in 0..n {
                let at = r.offset();
                let id = r.u64("run id")?;
                if !seen.insert(id) {
                    let detail = format!("run id {id} listed twice");
                    return Err(WalError::corrupt(path, at, detail));
                }
                run_ids.push(id);
            }
            shards.push(ShardEntry {
                high_water,
                live,
                run_ids,
            });
        }
        let nb = r.u32("boundary count")? as usize;
        if nb != parts + 1 {
            return Err(r.corrupt(format!("{nb} boundaries for {parts} shards")));
        }
        let mut boundaries: Vec<CurveIndex> = Vec::with_capacity(nb);
        for _ in 0..nb {
            let at = r.offset();
            let b = r.u128("partition boundary")?;
            let bad = match boundaries.last() {
                None if b != 0 => Some(format!("first boundary {b} is not 0")),
                Some(&prev) if b < prev => Some(format!("boundary {b} is below {prev}")),
                _ => None,
            };
            if let Some(detail) = bad {
                return Err(WalError::corrupt(path, at, detail));
            }
            boundaries.push(b);
        }
        Ok(Manifest { shards, boundaries })
    }

    /// Writes this manifest atomically into `dir`.
    pub(crate) fn commit(&self, dir: &Path, dims: u8) -> Result<(), WalError> {
        write_atomic(&manifest_path(dir), &self.encode(dims))
    }
}

// ---------------------------------------------------------------------
// Run files
// ---------------------------------------------------------------------

/// Serialises one immutable run (layout in the module docs): the packed
/// blocks dumped as they sit in memory, then the dense payload column.
pub(crate) fn encode_run<const D: usize, T, C>(run: &SfcIndex<D, T, C>) -> Vec<u8>
where
    T: WalPayload,
    C: SpaceFillingCurve<D> + Clone,
{
    let payloads = run.payloads();
    let mut out = Vec::with_capacity(
        8 + 8 + run.blocks().heap_bytes() + 8 + payloads.len() * (4 + std::mem::size_of::<T>()) + 4,
    );
    out.extend_from_slice(&header(RUN_MAGIC, RUN_VERSION, D as u8));
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 8]);
    run.blocks().write_to(&mut out);
    let image_len = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&image_len.to_le_bytes());
    out.extend_from_slice(&(payloads.len() as u64).to_le_bytes());
    for payload in payloads {
        put_sized_payload(&mut out, Some(payload));
    }
    seal(&mut out);
    out
}

/// Loads a run file back into an immutable index without re-packing it,
/// after the five groups of checks listed in the module docs.
pub(crate) fn decode_run<const D: usize, T, C>(
    buf: &[u8],
    path: &Path,
    curve: &C,
) -> Result<Run<D, T, C>, WalError>
where
    T: WalPayload,
    C: SpaceFillingCurve<D> + Clone,
{
    let mut r = ByteReader::new(buf, path);
    r.open_checked(RUN_MAGIC, RUN_VERSION, D as u8)?;
    let image_len = r.u64("block image length")?;
    let image_at = r.offset();
    // An absurd length fails `take`'s bounds check; nothing is allocated.
    let image = r.take(
        usize::try_from(image_len).unwrap_or(usize::MAX),
        "block image",
    )?;
    let blocks = BlockStore::<D>::read_from(image)
        .map_err(|e| WalError::corrupt(path, image_at + e.offset as u64, e.detail))?;
    check_keys_against_curve(&blocks, curve)
        .map_err(|detail| WalError::corrupt(path, image_at, detail))?;

    let count = r.u64("payload count")?;
    if count != blocks.live_len() as u64 {
        return Err(WalError::corrupt(
            path,
            r.offset(),
            format!("{count} payloads for {} live slots", blocks.live_len()),
        ));
    }
    // Each payload takes at least its length prefix.
    if count > (r.remaining() / 4) as u64 {
        return Err(WalError::corrupt(
            path,
            r.offset(),
            format!("file too short for {count} payloads"),
        ));
    }
    let mut payloads = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let len = r.u32("payload length")? as usize;
        let bytes = r.take(len, "payload")?;
        payloads.push(
            T::decode_payload(bytes)
                .ok_or_else(|| WalError::corrupt(path, r.offset(), "payload failed to decode"))?,
        );
    }
    if r.remaining() != 0 {
        return Err(WalError::corrupt(
            path,
            r.offset(),
            format!("{} bytes trail the payload column", r.remaining()),
        ));
    }
    Ok(Arc::new(SfcIndex::from_parts(
        curve.clone(),
        blocks,
        payloads,
    )))
}

/// The decode pass of [`decode_run`]: every point lies in the curve's
/// grid, every stored key is the curve's key for its point, and keys
/// strictly increase across the run. `blocks` has passed
/// [`BlockStore::read_from`], so decoding cannot panic.
fn check_keys_against_curve<const D: usize, C: SpaceFillingCurve<D>>(
    blocks: &BlockStore<D>,
    curve: &C,
) -> Result<(), String> {
    let grid = curve.grid();
    let mut cursor = BlockCursor::new(blocks);
    let mut points = Vec::with_capacity(BLOCK_SLOTS);
    let mut keys: Vec<CurveIndex> = Vec::with_capacity(BLOCK_SLOTS);
    let mut prev: Option<CurveIndex> = None;
    for block in 0..blocks.blocks() {
        let decoded = cursor.decoded(block);
        let range = blocks.block_range(block);
        points.clear();
        points.extend((0..range.len()).map(|j| decoded.point(j)));
        if let Some(j) = points.iter().position(|p| !grid.contains(p)) {
            return Err(format!(
                "slot {}: point {} outside the grid",
                range.start + j,
                points[j]
            ));
        }
        curve.index_of_batch(&points, &mut keys);
        let stored = &decoded.keys[..range.len()];
        if let Some(j) = (0..range.len()).find(|&j| keys[j] != stored[j]) {
            return Err(format!(
                "slot {}: stored key {} is not the curve's key {} for point {}",
                range.start + j,
                stored[j],
                keys[j],
                points[j]
            ));
        }
        let strictly_increasing =
            prev.is_none_or(|p| p < stored[0]) && stored.windows(2).all(|w| w[0] < w[1]);
        if !strictly_increasing {
            return Err(format!("block {block}: run keys not strictly increasing"));
        }
        prev = stored.last().copied();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{Grid, Point, ZCurve};

    fn sample_manifest() -> Manifest {
        Manifest {
            shards: vec![
                ShardEntry::default(),
                ShardEntry {
                    high_water: 99,
                    live: 42,
                    run_ids: vec![1, 4, 6],
                },
                ShardEntry {
                    high_water: 7,
                    live: 3,
                    run_ids: vec![2],
                },
            ],
            boundaries: vec![0, 100, 200, 1024],
        }
    }

    /// The detail of the `Corrupt` error decoding `bytes` returns.
    fn corrupt_detail(bytes: &[u8]) -> String {
        match Manifest::decode(bytes, Path::new("MANIFEST"), 2) {
            Err(WalError::Corrupt { detail, .. }) => detail,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn manifest_roundtrip_and_tamper_detection() {
        let m = sample_manifest();
        let bytes = m.encode(2);
        let back = Manifest::decode(&bytes, Path::new("MANIFEST"), 2).unwrap();
        assert_eq!(back, m);
        assert!(Manifest::decode(&bytes, Path::new("MANIFEST"), 3).is_err());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Manifest::decode(&bad, Path::new("MANIFEST"), 2).is_err(),
                "flip at {i} must be rejected"
            );
        }
    }

    #[test]
    fn version_1_manifest_is_refused_by_version() {
        // The version-1 layout: shard count, one checkpoint generation a
        // shard, the boundaries.
        let mut v1 = header(MANIFEST_MAGIC, 1, 2).to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&3u64.to_le_bytes());
        v1.extend_from_slice(&2u32.to_le_bytes());
        v1.extend_from_slice(&0u128.to_le_bytes());
        v1.extend_from_slice(&1024u128.to_le_bytes());
        seal(&mut v1);
        let detail = corrupt_detail(&v1);
        assert!(
            detail.contains("unsupported SFMF version 1"),
            "refused by version: {detail}"
        );
    }

    #[test]
    fn bad_boundaries_and_repeated_run_ids_are_corrupt() {
        let mut m = sample_manifest();
        m.boundaries[0] = 5;
        assert!(corrupt_detail(&m.encode(2)).contains("first boundary 5 is not 0"));
        let mut m = sample_manifest();
        m.boundaries[2] = 50;
        assert!(corrupt_detail(&m.encode(2)).contains("boundary 50 is below 100"));
        let mut m = sample_manifest();
        m.boundaries.pop();
        assert!(corrupt_detail(&m.encode(2)).contains("3 boundaries for 3 shards"));
        let mut m = sample_manifest();
        m.shards[1].run_ids = vec![1, 4, 1];
        assert!(corrupt_detail(&m.encode(2)).contains("run id 1 listed twice"));
        // Equal neighbours are an empty shard, not damage.
        let mut m = sample_manifest();
        m.boundaries[2] = 100;
        assert_eq!(
            Manifest::decode(&m.encode(2), Path::new("MANIFEST"), 2),
            Ok(m)
        );
    }

    #[test]
    fn run_roundtrip_preserves_records_and_tombstones() {
        let curve = ZCurve::<2>::over(Grid::new(4).unwrap());
        let points = [
            Point::new([1u32, 2]),
            Point::new([3, 1]),
            Point::new([5, 9]),
        ];
        let mut keys: Vec<_> = points.iter().map(|&p| curve.index_of(p)).collect();
        let mut idx: Vec<usize> = (0..3).collect();
        idx.sort_by_key(|&i| keys[i]);
        let points: Vec<_> = idx.iter().map(|&i| points[i]).collect();
        keys.sort_unstable();
        let payloads = vec![Some(10u64), None, Some(30)];
        let run = SfcIndex::from_sorted_versions(curve, keys, points.clone(), payloads);
        let bytes = encode_run(&run);
        let back: Run<2, u64, _> = decode_run(&bytes, Path::new("run"), &curve).unwrap();
        assert_eq!(back.len(), 3);
        for i in 0..3 {
            assert_eq!(back.point_at(i), run.point_at(i));
            assert_eq!(back.key_at(i), run.key_at(i));
            assert_eq!(back.payload_at(i), run.payload_at(i));
        }
    }

    #[test]
    fn numbered_names_parse() {
        assert_eq!(parse_numbered("run-000007.run", "run-", ".run"), Some(7));
        assert_eq!(parse_numbered("run-.run", "run-", ".run"), None);
        assert_eq!(parse_numbered("run-x7.run", "run-", ".run"), None);
        assert_eq!(parse_numbered("wal-0001.log", "run-", ".run"), None);
    }
}
