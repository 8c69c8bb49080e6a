//! Compressed columnar blocks: the physical format of a sorted run.
//!
//! A [`BlockStore`] cuts a run into fixed-size blocks of [`BLOCK_SLOTS`]
//! consecutive slots and stores, per block:
//!
//! * the **fence key** — the block's first (smallest) curve key, kept
//!   uncompressed so a two-level binary search (fence array, then one
//!   block) replaces a whole-column search with two cache-resident ones;
//! * the **keys** as frame-of-reference deltas from the fence key,
//!   bit-packed at the narrowest width that fits the block's largest
//!   delta (SFC-sorted keys make consecutive deltas tiny, so widths of
//!   8–16 bits are typical where raw keys cost 128);
//! * the per-dimension **point AABB** (`lo`/`hi` corners), doubling as
//!   the zone-map pruning summary *and* the frame of reference for the
//!   coordinates;
//! * the **coordinates** as per-axis offsets from the AABB minimum,
//!   bit-packed at the narrowest sufficient width per axis;
//! * a **tombstone bitmap** — one `u64` per block, bit `j` set iff slot
//!   `j` is live — replacing per-slot `Option` discriminants, plus a
//!   rank prefix sum so a slot's position in the dense payload column is
//!   a masked popcount away.
//!
//! Tail blocks are zero-padded to the full [`BLOCK_SLOTS`] width, so a
//! block's word count is exactly its bit width (per column) and all word
//! offsets are plain prefix sums. Padding costs at most one block's worth
//! of bits per run and keeps every decode kernel branch-free.
//!
//! ## Key filter
//!
//! Beside the blocks, every store keeps a one-word blocked Bloom filter
//! over its slot keys, tombstones included (a tombstone is a version: a
//! filter that skipped it would let an older version below show
//! through). One 64-bit mix of a key picks a filter word and four bits
//! in it, so [`BlockStore::may_contain`] is one load and one mask
//! compare, and answers `false` for most absent keys before any fence is
//! searched. The filter has ten bits per *distinct* key (at least one
//! word): about 1.3 B a record, and a run of one repeated key costs one
//! word. Neither figure is a setting.
//! It lives in memory only: [`BlockStore::pack`] builds it from the key
//! column and [`BlockStore::read_from`] from the keys its field check
//! unpacks anyway, so the byte image below does not carry it and loading
//! decodes nothing twice. (Bloom 1970; the one-word blocked layout is
//! Putze, Sanders & Singler 2007.)
//!
//! ## Byte image
//!
//! [`BlockStore::write_to`] dumps the packed columns as they sit in
//! memory and [`BlockStore::read_from`] loads them back without
//! re-packing — the form a run takes on disk. All integers little-endian:
//!
//! ```text
//! [ len: u64 ][ blocks: u64 ][ key word count: u64 ][ coord word count: u64 ]
//! blocks × [ fence: u128 ][ lo: D × u32 ][ hi: D × u32 ][ live word: u64 ]
//!          [ key width: u8 ][ coord widths: D × u8 ]
//! [ key words: u64 … ][ coord words: u64 … ]      (pad words included)
//! ```
//!
//! The contract: `read_from(write_to(b)) == b` for every store `pack`
//! can build, and `read_from` of **any** bytes is a store on which no
//! accessor or decode kernel can panic, or an error — never a panic, and
//! never an allocation sized by a count the bytes do not back. It
//! trusts nothing it can recompute (rank prefix sums, word offsets and
//! the run AABB are rebuilt, not stored) and checks the rest: block
//! count against `len`, widths in range, word counts against the widths'
//! prefix sums, no live bit past `len`, `lo ≤ hi`, and — one unpack pass
//! over the raw fields — slot 0 at the fence, keys non-decreasing within
//! and across blocks, no key past `u128::MAX`, every coordinate offset
//! inside its block's AABB. It carries no checksum and knows no curve:
//! whoever stores the image guards it against bit rot and checks the
//! keys against the points (see `sfc-store`'s run files).
//!
//! Everything scans need *before* touching a block — fences, AABBs, live
//! counts — lives in the uncompressed per-block metadata, so pruning
//! decisions never decode. Decoding happens lazily, one block at a time,
//! through [`BlockStore::decode_into`] or a [`BlockCursor`] that caches
//! the most recent block and counts decode-kernel invocations for
//! [`QueryStats::blocks_decoded`](crate::QueryStats).

use sfc_core::{CurveIndex, Point};

use crate::kernels;
use crate::region::BoxRegion;

/// Slots per block. Fixed at 64 so the tombstone bitmap is exactly one
/// machine word per block and filter kernels produce one-word hit masks.
pub const BLOCK_SLOTS: usize = 64;

// The bitmap and mask kernels assume one u64 word per block.
const _: () = assert!(BLOCK_SLOTS == 64);

/// Bits of key filter per distinct key of a run.
const FILTER_BITS_PER_KEY: usize = 10;

/// Bits a key sets in its filter word, and a probe tests.
const FILTER_PROBES: u32 = 4;

/// The filter's 64-bit mix of a key: the high half folded into the low
/// one, then Murmur3's `fmix64` finaliser. Two keys that collide here
/// only cost a false positive.
#[inline]
fn filter_hash(key: CurveIndex) -> u64 {
    let mut h = (key as u64) ^ ((key >> 64) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Where hash `h` lives in a filter of `words` words: the word (a
/// multiply-shift range reduction of the hash's high bits) and the mask
/// of its [`FILTER_PROBES`] bits (six low bits each).
#[inline]
fn filter_slot(h: u64, words: usize) -> (usize, u64) {
    let word = ((u128::from(h) * words as u128) >> 64) as usize;
    let mask = (0..FILTER_PROBES).fold(0u64, |m, i| m | 1 << ((h >> (6 * i)) & 63));
    (word, mask)
}

/// The key filter over `hashes`, the [`filter_hash`]es of a run's
/// distinct keys: [`FILTER_BITS_PER_KEY`] bits a key, at least one word.
fn key_filter(hashes: &[u64]) -> Vec<u64> {
    let words = (hashes.len() * FILTER_BITS_PER_KEY).div_ceil(64).max(1);
    let mut filter = vec![0u64; words];
    for &h in hashes {
        let (word, mask) = filter_slot(h, words);
        filter[word] |= mask;
    }
    filter
}

/// Why [`BlockStore::read_from`] rejected a byte image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockImageError {
    /// Byte offset into the image where the problem was found.
    pub offset: usize,
    /// What failed to parse or verify.
    pub detail: String,
}

impl std::fmt::Display for BlockImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block image byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for BlockImageError {}

/// A bounds-checked little-endian cursor over a byte image.
struct ImageReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ImageReader<'a> {
    fn err(&self, detail: impl Into<String>) -> BlockImageError {
        BlockImageError {
            offset: self.pos,
            detail: detail.into(),
        }
    }

    fn take<const N: usize>(&mut self, what: &str) -> Result<[u8; N], BlockImageError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..N))
            .ok_or_else(|| self.err(format!("image ends inside {what}")))?;
        self.pos += N;
        Ok(bytes.try_into().expect("sliced to N bytes"))
    }

    fn u8(&mut self, what: &str) -> Result<u8, BlockImageError> {
        Ok(self.take::<1>(what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, BlockImageError> {
        Ok(u32::from_le_bytes(self.take(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, BlockImageError> {
        Ok(u64::from_le_bytes(self.take(what)?))
    }

    fn u128(&mut self, what: &str) -> Result<u128, BlockImageError> {
        Ok(u128::from_le_bytes(self.take(what)?))
    }

    fn point<const D: usize>(&mut self, what: &str) -> Result<Point<D>, BlockImageError> {
        let mut coords = [0u32; D];
        for c in &mut coords {
            *c = self.u32(what)?;
        }
        Ok(Point::new(coords))
    }

    /// A column of `count` words; the caller has already bounded `count`
    /// by the bytes that remain.
    fn words(&mut self, count: usize, what: &str) -> Result<Vec<u64>, BlockImageError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..count * 8))
            .ok_or_else(|| self.err(format!("image ends inside {what}")))?;
        self.pos += count * 8;
        Ok(bytes
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .collect())
    }
}

/// Words a block's keys occupy at `width`, or `None` for a width no
/// block can have.
fn key_block_words(width: u8) -> Option<usize> {
    match width {
        kernels::WIDTH_RAW => Some(2 * BLOCK_SLOTS),
        w if w <= 64 => Some(w as usize),
        _ => None,
    }
}

/// Squared Euclidean distance from `q` to the inclusive box `[lo, hi]`
/// (0 if `q` is inside it).
#[inline]
fn aabb_dist_sq<const D: usize>(lo: &Point<D>, hi: &Point<D>, q: &Point<D>) -> u128 {
    let mut acc = 0u128;
    for axis in 0..D {
        let c = q.coord(axis);
        let d = if c < lo.coord(axis) {
            lo.coord(axis) - c
        } else if c > hi.coord(axis) {
            c - hi.coord(axis)
        } else {
            0
        };
        acc += u128::from(u64::from(d) * u64::from(d));
    }
    acc
}

/// One decoded block's columns, the scratch target of the unpack kernels.
/// Slots past the block's length hold the fence key / AABB minimum (the
/// zero-delta padding); callers mask them off with the block's range.
#[derive(Debug, Clone)]
pub struct DecodedBlock<const D: usize> {
    /// Decoded curve keys.
    pub keys: [CurveIndex; BLOCK_SLOTS],
    /// Decoded coordinates, one lane array per axis.
    pub coords: [[u32; BLOCK_SLOTS]; D],
}

impl<const D: usize> Default for DecodedBlock<D> {
    fn default() -> Self {
        Self {
            keys: [0; BLOCK_SLOTS],
            coords: [[0; BLOCK_SLOTS]; D],
        }
    }
}

impl<const D: usize> DecodedBlock<D> {
    /// Reassembles the point at in-block slot `j` from the coordinate
    /// lanes.
    #[inline]
    pub fn point(&self, j: usize) -> Point<D> {
        Point::new(std::array::from_fn(|axis| self.coords[axis][j]))
    }
}

/// The compressed physical format of one sorted run: per-block metadata
/// (fences, AABBs, tombstone bitmap) plus bit-packed key and coordinate
/// words. Built once by [`BlockStore::pack`] (or reloaded from its byte
/// image by [`BlockStore::read_from`]); immutable afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockStore<const D: usize> {
    /// Total slots stored (the run length, including tombstones).
    len: usize,
    /// First key of each block, in block order (ascending).
    fences: Vec<CurveIndex>,
    /// Componentwise minimum of each block's points (coordinate FOR base).
    lo: Vec<Point<D>>,
    /// Componentwise maximum of each block's points.
    hi: Vec<Point<D>>,
    /// Tombstone bitmap: bit `j` of word `block` set iff the slot is live.
    live_bits: Vec<u64>,
    /// Live slots in all blocks before each block (dense-payload rank base).
    live_prefix: Vec<u32>,
    /// Key delta width per block (0..=64, or [`kernels::WIDTH_RAW`]).
    key_widths: Vec<u8>,
    /// Coordinate offset width per block and axis (0..=32).
    coord_widths: Vec<[u8; D]>,
    /// Word offset of each block's key words in `key_words`.
    key_offsets: Vec<u32>,
    /// Word offset of each block's first axis words in `coord_words`.
    coord_offsets: Vec<u32>,
    /// Bit-packed key deltas, one trailing pad word.
    key_words: Vec<u64>,
    /// Bit-packed coordinate offsets (axis-major per block), one pad word.
    coord_words: Vec<u64>,
    /// Componentwise min over the whole run (meaningful iff `len > 0`).
    all_lo: Point<D>,
    /// Componentwise max over the whole run (meaningful iff `len > 0`).
    all_hi: Point<D>,
    /// The key filter (module docs): a pure function of the keys, so the
    /// derived equality still compares the stored columns only.
    filter: Vec<u64>,
}

impl<const D: usize> BlockStore<D> {
    /// Packs parallel `keys` / `points` columns (sorted by key, possibly
    /// with duplicates) into compressed blocks. `is_live` reports whether
    /// the slot at a given position holds a live payload (`|_| true` for
    /// indexes without tombstones).
    ///
    /// # Panics
    /// Panics if the columns have different lengths or keys decrease.
    pub fn pack(
        keys: &[CurveIndex],
        points: &[Point<D>],
        mut is_live: impl FnMut(usize) -> bool,
    ) -> Self {
        assert_eq!(keys.len(), points.len(), "column length mismatch");
        let len = keys.len();
        let blocks = len.div_ceil(BLOCK_SLOTS);
        let mut store = Self {
            len,
            fences: Vec::with_capacity(blocks),
            lo: Vec::with_capacity(blocks),
            hi: Vec::with_capacity(blocks),
            live_bits: Vec::with_capacity(blocks),
            live_prefix: Vec::with_capacity(blocks),
            key_widths: Vec::with_capacity(blocks),
            coord_widths: Vec::with_capacity(blocks),
            key_offsets: Vec::with_capacity(blocks),
            coord_offsets: Vec::with_capacity(blocks),
            key_words: Vec::new(),
            coord_words: Vec::new(),
            all_lo: Point::new([u32::MAX; D]),
            all_hi: Point::new([0; D]),
            filter: Vec::new(),
        };
        let mut all_lo = [u32::MAX; D];
        let mut all_hi = [0u32; D];
        let mut live_total = 0u32;
        let mut deltas = [0u128; BLOCK_SLOTS];
        let mut fields = [0u64; BLOCK_SLOTS];
        for block in 0..blocks {
            let start = block * BLOCK_SLOTS;
            let end = (start + BLOCK_SLOTS).min(len);
            let fence = keys[start];

            // Metadata: AABB and tombstone bitmap.
            let mut blk_lo = [u32::MAX; D];
            let mut blk_hi = [0u32; D];
            let mut bits = 0u64;
            for (slot, p) in points.iter().enumerate().take(end).skip(start) {
                for axis in 0..D {
                    let c = p.coord(axis);
                    blk_lo[axis] = blk_lo[axis].min(c);
                    blk_hi[axis] = blk_hi[axis].max(c);
                }
                bits |= u64::from(is_live(slot)) << (slot - start);
            }
            for axis in 0..D {
                all_lo[axis] = all_lo[axis].min(blk_lo[axis]);
                all_hi[axis] = all_hi[axis].max(blk_hi[axis]);
            }
            store.fences.push(fence);
            store.lo.push(Point::new(blk_lo));
            store.hi.push(Point::new(blk_hi));
            store.live_bits.push(bits);
            store.live_prefix.push(live_total);
            live_total += bits.count_ones();

            // Keys: frame-of-reference deltas, zero-padded to 64 slots.
            let mut max_delta = 0u128;
            for j in 0..BLOCK_SLOTS {
                deltas[j] = if start + j < end {
                    let d = keys[start + j]
                        .checked_sub(fence)
                        .expect("keys must be sorted (non-decreasing)");
                    max_delta = max_delta.max(d);
                    d
                } else {
                    0
                };
            }
            store.key_offsets.push(store.key_words.len() as u32);
            if max_delta > u64::MAX as u128 {
                // Rare worst case: deltas wider than one word go in raw.
                store.key_widths.push(kernels::WIDTH_RAW);
                for &d in &deltas {
                    store.key_words.push(d as u64);
                    store.key_words.push((d >> 64) as u64);
                }
            } else {
                let width = kernels::bits_for(max_delta as u64);
                store.key_widths.push(width);
                if width > 0 {
                    for (f, &d) in fields.iter_mut().zip(deltas.iter()) {
                        *f = d as u64;
                    }
                    kernels::pack_fields(&fields, width, &mut store.key_words);
                }
            }

            // Coordinates: per-axis offsets from the AABB minimum,
            // zero-padded to 64 slots.
            store.coord_offsets.push(store.coord_words.len() as u32);
            let mut widths = [0u8; D];
            for (axis, w) in widths.iter_mut().enumerate() {
                let base = blk_lo[axis];
                let mut max_off = 0u32;
                for (j, f) in fields.iter_mut().enumerate() {
                    let off = if start + j < end {
                        points[start + j].coord(axis) - base
                    } else {
                        0
                    };
                    max_off = max_off.max(off);
                    *f = u64::from(off);
                }
                *w = kernels::bits_for(u64::from(max_off));
                if *w > 0 {
                    kernels::pack_fields(&fields, *w, &mut store.coord_words);
                }
            }
            store.coord_widths.push(widths);
        }
        // One pad word per column lets the unpack kernels read a straddling
        // word pair for the last field without a bounds branch.
        store.key_words.push(0);
        store.coord_words.push(0);
        if len > 0 {
            store.all_lo = Point::new(all_lo);
            store.all_hi = Point::new(all_hi);
        }
        let distinct: Vec<u64> = keys
            .chunk_by(|a, b| a == b)
            .map(|run| filter_hash(run[0]))
            .collect();
        store.filter = key_filter(&distinct);
        store
    }

    /// Bytes of image header: the four counts.
    const IMAGE_HEADER: usize = 4 * 8;
    /// Bytes of image per block: fence, AABB corners, live word, widths.
    const IMAGE_BLOCK: usize = 16 + 2 * 4 * D + 8 + 1 + D;

    /// Appends this store's byte image to `out` (layout and contract in
    /// the module docs). A straight dump of the packed columns: nothing
    /// is decoded or re-packed.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(
            Self::IMAGE_HEADER
                + self.blocks() * Self::IMAGE_BLOCK
                + (self.key_words.len() + self.coord_words.len()) * 8,
        );
        for count in [
            self.len,
            self.blocks(),
            self.key_words.len(),
            self.coord_words.len(),
        ] {
            out.extend_from_slice(&(count as u64).to_le_bytes());
        }
        for block in 0..self.blocks() {
            out.extend_from_slice(&self.fences[block].to_le_bytes());
            for corner in [&self.lo[block], &self.hi[block]] {
                for axis in 0..D {
                    out.extend_from_slice(&corner.coord(axis).to_le_bytes());
                }
            }
            out.extend_from_slice(&self.live_bits[block].to_le_bytes());
            out.push(self.key_widths[block]);
            out.extend_from_slice(&self.coord_widths[block]);
        }
        for column in [&self.key_words, &self.coord_words] {
            for word in column {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
    }

    /// Loads a store from exactly the bytes [`write_to`](Self::write_to)
    /// produced — or rejects them: see the module docs for everything
    /// that is checked. Never panics, whatever the bytes; never
    /// allocates more than the image's own length backs.
    pub fn read_from(bytes: &[u8]) -> Result<Self, BlockImageError> {
        let mut r = ImageReader { buf: bytes, pos: 0 };
        let len = r.u64("slot count")?;
        let blocks = r.u64("block count")?;
        let key_word_count = r.u64("key word count")?;
        let coord_word_count = r.u64("coord word count")?;
        if blocks != len.div_ceil(BLOCK_SLOTS as u64) {
            return Err(r.err(format!("{blocks} blocks for {len} slots")));
        }
        // One equation bounds every count by the bytes actually present,
        // before anything is allocated from them.
        let expected = blocks
            .checked_mul(Self::IMAGE_BLOCK as u64)
            .zip(key_word_count.checked_add(coord_word_count))
            .and_then(|(meta, words)| meta.checked_add(words.checked_mul(8)?));
        if expected != Some((bytes.len() - r.pos) as u64) {
            return Err(r.err(format!(
                "counts ({len} slots, {blocks} blocks, {key_word_count} + {coord_word_count} \
                 words) disagree with the {} bytes that follow",
                bytes.len() - r.pos
            )));
        }
        // The counts are now at most a small multiple of `bytes.len()`.
        let [len, blocks, key_word_count, coord_word_count] =
            [len, blocks, key_word_count, coord_word_count].map(usize::try_from);
        let (Ok(len), Ok(blocks), Ok(key_word_count), Ok(coord_word_count)) =
            (len, blocks, key_word_count, coord_word_count)
        else {
            return Err(r.err("a count exceeds the address space"));
        };

        let mut store = Self {
            len,
            fences: Vec::with_capacity(blocks),
            lo: Vec::with_capacity(blocks),
            hi: Vec::with_capacity(blocks),
            live_bits: Vec::with_capacity(blocks),
            live_prefix: Vec::with_capacity(blocks),
            key_widths: Vec::with_capacity(blocks),
            coord_widths: Vec::with_capacity(blocks),
            key_offsets: Vec::with_capacity(blocks),
            coord_offsets: Vec::with_capacity(blocks),
            key_words: Vec::new(),
            coord_words: Vec::new(),
            all_lo: Point::new([u32::MAX; D]),
            all_hi: Point::new([0; D]),
            filter: Vec::new(),
        };
        let mut all_lo = [u32::MAX; D];
        let mut all_hi = [0u32; D];
        // Running totals behind the derived columns: live rank, key
        // words, coord words (one pad word ends each word column).
        let (mut live_total, mut key_total, mut coord_total) = (0u32, 0usize, 0usize);
        for block in 0..blocks {
            store.fences.push(r.u128("fence key")?);
            let lo: Point<D> = r.point("block AABB")?;
            let hi: Point<D> = r.point("block AABB")?;
            for axis in 0..D {
                if lo.coord(axis) > hi.coord(axis) {
                    return Err(r.err(format!("block {block} AABB is inverted on axis {axis}")));
                }
                all_lo[axis] = all_lo[axis].min(lo.coord(axis));
                all_hi[axis] = all_hi[axis].max(hi.coord(axis));
            }
            store.lo.push(lo);
            store.hi.push(hi);
            let live = r.u64("live word")?;
            let slots = (len - block * BLOCK_SLOTS).min(BLOCK_SLOTS);
            if live & !kernels::len_mask(slots) != 0 {
                return Err(r.err(format!("block {block} has a live bit past slot {len}")));
            }
            store.live_bits.push(live);
            store.live_prefix.push(live_total);
            live_total = live_total
                .checked_add(live.count_ones())
                .ok_or_else(|| r.err("more than u32::MAX live slots"))?;
            let key_width = r.u8("key width")?;
            let key_words = key_block_words(key_width)
                .ok_or_else(|| r.err(format!("block {block} key width {key_width}")))?;
            store.key_widths.push(key_width);
            let mut coord_widths = [0u8; D];
            for (axis, w) in coord_widths.iter_mut().enumerate() {
                *w = r.u8("coord width")?;
                if *w > 32 {
                    return Err(r.err(format!("block {block} axis {axis} coord width {w}")));
                }
            }
            store.coord_widths.push(coord_widths);
            // Offsets are `u32` in memory; an image whose columns
            // outgrow that is rejected, not truncated.
            for (offsets, total) in [
                (&mut store.key_offsets, key_total),
                (&mut store.coord_offsets, coord_total),
            ] {
                offsets
                    .push(u32::try_from(total).map_err(|_| r.err("word offset exceeds u32::MAX"))?);
            }
            key_total = key_total.saturating_add(key_words);
            coord_total =
                coord_total.saturating_add(coord_widths.iter().map(|&w| w as usize).sum());
        }
        for (what, total, count) in [
            ("key", key_total, key_word_count),
            ("coord", coord_total, coord_word_count),
        ] {
            if total.checked_add(1) != Some(count) {
                return Err(r.err(format!(
                    "{what} widths need {total} words + 1 pad, the column holds {count}"
                )));
            }
        }
        store.key_words = r.words(key_word_count, "key words")?;
        store.coord_words = r.words(coord_word_count, "coord words")?;
        if len > 0 {
            store.all_lo = Point::new(all_lo);
            store.all_hi = Point::new(all_hi);
        }
        store.filter = store.check_fields()?;
        Ok(store)
    }

    /// The unpack pass of [`read_from`](Self::read_from), over the raw
    /// bit fields (no base added, so nothing can overflow on the way):
    /// slot 0 of a block sits at its fence, keys never decrease within
    /// or across blocks, `fence + delta` fits `u128` for all 64 slots
    /// (pads included — the decode kernels add them too), and every
    /// coordinate offset stays inside the block's AABB. Returns the key
    /// filter, built from the keys this pass unpacks.
    fn check_fields(&self) -> Result<Vec<u64>, BlockImageError> {
        let err = |block: usize, detail: &str| BlockImageError {
            offset: Self::IMAGE_HEADER + block * Self::IMAGE_BLOCK,
            detail: format!("block {block}: {detail}"),
        };
        let mut fields = [0u64; BLOCK_SLOTS];
        let mut deltas = [0u128; BLOCK_SLOTS];
        let mut prev_last: CurveIndex = 0;
        let mut distinct = Vec::new();
        for block in 0..self.blocks() {
            let slots = self.block_range(block).len();
            let words = &self.key_words[self.key_offsets[block] as usize..];
            match self.key_widths[block] {
                0 => deltas.fill(0),
                kernels::WIDTH_RAW => {
                    for (j, d) in deltas.iter_mut().enumerate() {
                        *d = u128::from(words[2 * j]) | (u128::from(words[2 * j + 1]) << 64);
                    }
                }
                w => {
                    kernels::unpack_fields(words, w, &mut fields);
                    for (d, &f) in deltas.iter_mut().zip(fields.iter()) {
                        *d = u128::from(f);
                    }
                }
            }
            let fence = self.fences[block];
            let max_delta = deltas.iter().copied().max().expect("64 slots");
            if fence.checked_add(max_delta).is_none() {
                return Err(err(block, "a key overflows u128"));
            }
            if deltas[0] != 0 {
                return Err(err(block, "fence is not the first key"));
            }
            if block > 0 && fence < prev_last {
                return Err(err(block, "fence below the previous block's last key"));
            }
            if deltas[..slots].windows(2).any(|w| w[0] > w[1]) {
                return Err(err(block, "keys decrease inside the block"));
            }
            for &d in &deltas[..slots] {
                let key = fence + d;
                if distinct.is_empty() || key != prev_last {
                    distinct.push(filter_hash(key));
                }
                prev_last = key;
            }

            let mut off = self.coord_offsets[block] as usize;
            for axis in 0..D {
                let w = self.coord_widths[block][axis];
                if w == 0 {
                    continue;
                }
                kernels::unpack_fields(&self.coord_words[off..], w, &mut fields);
                let extent = self.hi[block].coord(axis) - self.lo[block].coord(axis);
                if fields.iter().any(|&f| f > u64::from(extent)) {
                    return Err(err(block, "a coordinate leaves the block's AABB"));
                }
                off += w as usize;
            }
        }
        Ok(key_filter(&distinct))
    }

    /// Total slots stored (including tombstones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the store holds no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live (non-tombstone) slots across all blocks.
    pub fn live_len(&self) -> usize {
        match self.live_bits.last() {
            Some(last) => {
                *self.live_prefix.last().expect("parallel to live_bits") as usize
                    + last.count_ones() as usize
            }
            None => 0,
        }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.fences.len()
    }

    /// The block containing slot `slot`.
    #[inline]
    pub fn block_of(&self, slot: usize) -> usize {
        slot / BLOCK_SLOTS
    }

    /// The slot range of block `block` (`start..end`, end-exclusive; the
    /// last block may be short).
    #[inline]
    pub fn block_range(&self, block: usize) -> std::ops::Range<usize> {
        let start = block * BLOCK_SLOTS;
        start..(start + BLOCK_SLOTS).min(self.len)
    }

    /// The block's first (smallest) key — stored uncompressed.
    #[inline]
    pub fn fence(&self, block: usize) -> CurveIndex {
        self.fences[block]
    }

    /// Non-tombstone slots in the block (a bitmap popcount).
    #[inline]
    pub fn live(&self, block: usize) -> u32 {
        self.live_bits[block].count_ones()
    }

    /// `true` iff every slot of the block is a tombstone.
    #[inline]
    pub fn is_all_dead(&self, block: usize) -> bool {
        self.live_bits[block] == 0
    }

    /// `true` iff the slot holds a live payload.
    #[inline]
    pub fn is_live_slot(&self, slot: usize) -> bool {
        (self.live_bits[slot / BLOCK_SLOTS] >> (slot % BLOCK_SLOTS)) & 1 == 1
    }

    /// Live slots in the absolute slot range `slots`, which must lie
    /// within block `block`. A masked popcount.
    #[inline]
    pub fn live_in(&self, block: usize, slots: std::ops::Range<usize>) -> u32 {
        let start = block * BLOCK_SLOTS;
        debug_assert!(slots.start >= start && slots.end <= start + BLOCK_SLOTS);
        if slots.is_empty() {
            return 0;
        }
        let mask = kernels::len_mask(slots.end - start) & !kernels::len_mask(slots.start - start);
        (self.live_bits[block] & mask).count_ones()
    }

    /// The slot's position in the dense (live-only) payload column.
    /// Meaningful only for live slots.
    #[inline]
    pub fn rank(&self, slot: usize) -> usize {
        let block = slot / BLOCK_SLOTS;
        let before = self.live_bits[block] & !(u64::MAX << (slot % BLOCK_SLOTS));
        self.live_prefix[block] as usize + before.count_ones() as usize
    }

    /// The block's point AABB as inclusive `(lo, hi)` corners.
    #[inline]
    pub fn aabb(&self, block: usize) -> (Point<D>, Point<D>) {
        (self.lo[block], self.hi[block])
    }

    /// `true` iff the block's AABB and the box share no cell — no slot of
    /// the block can possibly match the box.
    #[inline]
    pub fn disjoint(&self, block: usize, b: &BoxRegion<D>) -> bool {
        let (lo, hi) = (&self.lo[block], &self.hi[block]);
        (0..D)
            .any(|axis| hi.coord(axis) < b.lo().coord(axis) || lo.coord(axis) > b.hi().coord(axis))
    }

    /// `true` iff the block's AABB lies entirely inside the box — every
    /// slot of the block matches without a per-point test.
    #[inline]
    pub fn contained(&self, block: usize, b: &BoxRegion<D>) -> bool {
        let (lo, hi) = (&self.lo[block], &self.hi[block]);
        (0..D).all(|axis| {
            b.lo().coord(axis) <= lo.coord(axis) && hi.coord(axis) <= b.hi().coord(axis)
        })
    }

    /// Lower bound on the squared Euclidean distance from `q` to any point
    /// of the block (distance to the block's AABB; 0 if `q` is inside it).
    #[inline]
    pub fn min_dist_sq(&self, block: usize, q: &Point<D>) -> u128 {
        aabb_dist_sq(&self.lo[block], &self.hi[block], q)
    }

    /// Lower bound on the squared Euclidean distance from `q` to any point
    /// of the run (distance to the run's AABB), or `None` for an empty
    /// run.
    pub fn run_min_dist_sq(&self, q: &Point<D>) -> Option<u128> {
        (self.len > 0).then(|| aabb_dist_sq(&self.all_lo, &self.all_hi, q))
    }

    /// The whole run's point AABB, or `None` for an empty run.
    pub fn bounds(&self) -> Option<(Point<D>, Point<D>)> {
        (self.len > 0).then_some((self.all_lo, self.all_hi))
    }

    /// `true` iff the whole run's AABB misses the box (so every block
    /// does). `false` for an empty run (nothing to prune — scans of an
    /// empty run are free anyway).
    pub fn run_disjoint(&self, b: &BoxRegion<D>) -> bool {
        self.len > 0
            && (0..D).any(|axis| {
                self.all_hi.coord(axis) < b.lo().coord(axis)
                    || self.all_lo.coord(axis) > b.hi().coord(axis)
            })
    }

    /// Decodes the single key at absolute slot `slot` (one field
    /// extraction; no full-block decode).
    #[inline]
    pub fn key_at(&self, slot: usize) -> CurveIndex {
        let block = slot / BLOCK_SLOTS;
        let j = slot % BLOCK_SLOTS;
        let base = self.fences[block];
        let off = self.key_offsets[block] as usize;
        match self.key_widths[block] {
            0 => base,
            kernels::WIDTH_RAW => {
                let lo = self.key_words[off + 2 * j] as u128;
                let hi = (self.key_words[off + 2 * j + 1] as u128) << 64;
                base + (lo | hi)
            }
            w => base + kernels::get_field(&self.key_words[off..], w, j) as u128,
        }
    }

    /// Decodes the single point at absolute slot `slot` (one field
    /// extraction per axis; no full-block decode).
    #[inline]
    pub fn point_at(&self, slot: usize) -> Point<D> {
        let block = slot / BLOCK_SLOTS;
        let j = slot % BLOCK_SLOTS;
        let widths = &self.coord_widths[block];
        let mut off = self.coord_offsets[block] as usize;
        Point::new(std::array::from_fn(|axis| {
            let w = widths[axis];
            let c = if w == 0 {
                self.lo[block].coord(axis)
            } else {
                self.lo[block].coord(axis)
                    + kernels::get_field(&self.coord_words[off..], w, j) as u32
            };
            off += w as usize;
            c
        }))
    }

    /// Decodes a whole block's keys and coordinate lanes into `out` via
    /// the branch-free unpack kernels. Pad slots past the block's length
    /// hold the fence / AABB minimum.
    pub fn decode_into(&self, block: usize, out: &mut DecodedBlock<D>) {
        self.decode_coords_into(block, &mut out.coords);
        self.decode_keys_into(block, &mut out.keys);
    }

    /// The coordinate half of [`decode_into`](Self::decode_into): what a
    /// box filter needs before it knows whether the block has a hit.
    pub fn decode_coords_into(&self, block: usize, out: &mut [[u32; BLOCK_SLOTS]; D]) {
        let mut off = self.coord_offsets[block] as usize;
        for (axis, lane) in out.iter_mut().enumerate() {
            let w = self.coord_widths[block][axis];
            kernels::unpack_axis(
                &self.coord_words[off..],
                w,
                self.lo[block].coord(axis),
                lane,
            );
            off += w as usize;
        }
    }

    /// The key half of [`decode_into`](Self::decode_into).
    pub fn decode_keys_into(&self, block: usize, out: &mut [CurveIndex; BLOCK_SLOTS]) {
        kernels::unpack_keys(
            &self.key_words[self.key_offsets[block] as usize..],
            self.key_widths[block],
            self.fences[block],
            out,
        );
    }

    /// The first block at or after `from` that can hold a key ≥ `key`:
    /// the block before the first fence ≥ `key` (its tail may reach
    /// `key`), found by galloping over the uncompressed fence array from
    /// `from` — `O(log distance)`, no packed field touched. `from` must
    /// be a block of the store.
    pub fn seek_block(&self, from: usize, key: CurveIndex) -> usize {
        let tail = &self.fences[from..];
        // Invariant: tail[step / 2] < key, or step == 1.
        let mut step = 1usize;
        while step < tail.len() && tail[step] < key {
            step <<= 1;
        }
        let (lo, hi) = (step / 2, (step + 1).min(tail.len()));
        let first_at_or_past = lo + tail[lo..hi].partition_point(|&f| f < key);
        from + first_at_or_past.saturating_sub(1)
    }

    /// `false` if no slot holds `key`; `true` if one may (a false
    /// positive for about 2 % of absent keys). One load and one mask
    /// compare of the key filter (module docs) — no fence or packed
    /// field is touched. Tombstoned slots count as holding their key.
    #[inline]
    pub fn may_contain(&self, key: CurveIndex) -> bool {
        let (word, mask) = filter_slot(filter_hash(key), self.filter.len());
        self.filter[word] & mask == mask
    }

    /// First slot whose key is ≥ `key`: a binary search over the
    /// uncompressed fence array followed by one inside a single block's
    /// packed keys (single-field extraction per probe — no block decode).
    pub fn lower_bound(&self, key: CurveIndex) -> usize {
        // First block whose fence is ≥ key; the answer can also sit in the
        // tail of the block before it (fence < key ≤ last key).
        let blk = self.fences.partition_point(|&f| f < key);
        if self.fences.is_empty() {
            return 0;
        }
        let range = self.block_range(blk.saturating_sub(1));
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Bytes of heap memory held by the packed columns, metadata and the
    /// key filter.
    pub fn heap_bytes(&self) -> usize {
        self.fences.len() * std::mem::size_of::<CurveIndex>()
            + (self.lo.len() + self.hi.len()) * std::mem::size_of::<Point<D>>()
            + self.live_bits.len() * 8
            + self.live_prefix.len() * 4
            + self.key_widths.len()
            + self.coord_widths.len() * D
            + (self.key_offsets.len() + self.coord_offsets.len()) * 4
            + (self.key_words.len() + self.coord_words.len() + self.filter.len()) * 8
    }
}

/// A lazy per-block decoder: caches the most recently decoded block so
/// sequential scans decode each visited block exactly once, and counts
/// decode-kernel invocations for
/// [`QueryStats::blocks_decoded`](crate::QueryStats).
#[derive(Debug)]
pub struct BlockCursor<'a, const D: usize> {
    store: &'a BlockStore<D>,
    buf: DecodedBlock<D>,
    current: usize,
    /// Blocks decoded through this cursor so far.
    pub decodes: u64,
}

impl<'a, const D: usize> BlockCursor<'a, D> {
    /// A cursor over `store` with nothing decoded yet.
    pub fn new(store: &'a BlockStore<D>) -> Self {
        Self {
            store,
            buf: DecodedBlock::default(),
            current: usize::MAX,
            decodes: 0,
        }
    }

    /// The decoded columns of `block`, decoding only on a cache miss.
    #[inline]
    pub fn decoded(&mut self, block: usize) -> &DecodedBlock<D> {
        if self.current != block {
            self.store.decode_into(block, &mut self.buf);
            self.current = block;
            self.decodes += 1;
        }
        &self.buf
    }

    /// The key at absolute slot `slot`, through the block cache.
    #[inline]
    pub fn key(&mut self, slot: usize) -> CurveIndex {
        let block = slot / BLOCK_SLOTS;
        self.decoded(block).keys[slot % BLOCK_SLOTS]
    }

    /// The point at absolute slot `slot`, through the block cache.
    #[inline]
    pub fn point(&mut self, slot: usize) -> Point<D> {
        let block = slot / BLOCK_SLOTS;
        self.decoded(block).point(slot % BLOCK_SLOTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{Grid, SpaceFillingCurve, ZCurve};

    fn sorted_columns(n: usize) -> (Vec<CurveIndex>, Vec<Point<2>>, ZCurve<2>) {
        let z = ZCurve::<2>::new(5).unwrap();
        let mut rows: Vec<(CurveIndex, Point<2>)> = (0..n)
            .map(|i| {
                let p = Point::new([(i as u32 * 7) % 32, (i as u32 * 13) % 32]);
                (z.index_of(p), p)
            })
            .collect();
        rows.sort_by_key(|&(k, _)| k);
        let (keys, points) = rows.into_iter().unzip();
        (keys, points, z)
    }

    fn decode_all<const D: usize>(bs: &BlockStore<D>) -> (Vec<CurveIndex>, Vec<Point<D>>) {
        let mut cur = BlockCursor::new(bs);
        let keys = (0..bs.len()).map(|i| cur.key(i)).collect();
        let points = (0..bs.len()).map(|i| cur.point(i)).collect();
        (keys, points)
    }

    #[test]
    fn pack_round_trips_columns_exactly() {
        let (keys, points, _) = sorted_columns(333);
        let bs = BlockStore::pack(&keys, &points, |slot| slot % 3 != 0);
        assert_eq!(bs.len(), 333);
        let (dk, dp) = decode_all(&bs);
        assert_eq!(dk, keys);
        assert_eq!(dp, points);
        // Single-slot accessors agree with the full-block kernels.
        for i in 0..bs.len() {
            assert_eq!(bs.key_at(i), keys[i]);
            assert_eq!(bs.point_at(i), points[i]);
            assert_eq!(bs.is_live_slot(i), i % 3 != 0);
        }
    }

    #[test]
    fn metadata_matches_the_columns() {
        let (keys, points, _) = sorted_columns(200);
        let bs = BlockStore::pack(&keys, &points, |slot| slot % 3 != 0);
        assert_eq!(bs.blocks(), 200usize.div_ceil(BLOCK_SLOTS));
        let mut covered = 0usize;
        let mut live = 0u32;
        for b in 0..bs.blocks() {
            let r = bs.block_range(b);
            assert_eq!(bs.fence(b), keys[r.start]);
            covered += r.len();
            live += bs.live(b);
            assert_eq!(bs.live(b), bs.live_in(b, r.clone()));
            let (lo, hi) = bs.aabb(b);
            for slot in r {
                assert_eq!(bs.block_of(slot), b);
                for axis in 0..2 {
                    assert!(lo.coord(axis) <= points[slot].coord(axis));
                    assert!(points[slot].coord(axis) <= hi.coord(axis));
                }
            }
        }
        assert_eq!(covered, 200);
        assert_eq!(live, (0..200).filter(|s| s % 3 != 0).count() as u32);
        assert_eq!(bs.live_len() as u32, live);
        let (all_lo, all_hi) = bs.bounds().unwrap();
        for axis in 0..2 {
            assert!(points.iter().all(|p| p.coord(axis) >= all_lo.coord(axis)));
            assert!(points.iter().all(|p| p.coord(axis) <= all_hi.coord(axis)));
        }
        assert!(bs.heap_bytes() > 0);
    }

    #[test]
    fn rank_indexes_the_dense_payload_column() {
        let (keys, points, _) = sorted_columns(150);
        let is_live = |slot: usize| slot % 4 != 1;
        let bs = BlockStore::pack(&keys, &points, is_live);
        let mut expected = 0usize;
        for slot in 0..bs.len() {
            if is_live(slot) {
                assert_eq!(bs.rank(slot), expected, "slot {slot}");
                expected += 1;
            }
        }
        assert_eq!(bs.live_len(), expected);
    }

    #[test]
    fn lower_bound_matches_whole_column_search() {
        let (keys, points, _) = sorted_columns(500);
        let bs = BlockStore::pack(&keys, &points, |_| true);
        let grid = Grid::<2>::new(5).unwrap();
        for key in 0..grid.n() {
            assert_eq!(
                bs.lower_bound(key),
                keys.partition_point(|&k| k < key),
                "key {key}"
            );
        }
        // Past the last key.
        assert_eq!(bs.lower_bound(grid.n() + 10), keys.len());
    }

    #[test]
    fn disjoint_contained_and_distance_are_consistent_with_points() {
        let (keys, points, _) = sorted_columns(300);
        let bs = BlockStore::pack(&keys, &points, |_| true);
        let boxes = [
            BoxRegion::new(Point::new([0, 0]), Point::new([31, 31])),
            BoxRegion::new(Point::new([4, 9]), Point::new([11, 14])),
            BoxRegion::new(Point::new([30, 30]), Point::new([31, 31])),
        ];
        for b in &boxes {
            for block in 0..bs.blocks() {
                let slots = bs.block_range(block);
                let any_in = slots.clone().any(|s| b.contains(&points[s]));
                let all_in = slots.clone().all(|s| b.contains(&points[s]));
                if bs.disjoint(block, b) {
                    assert!(!any_in, "disjoint block {block} intersects {b:?}");
                }
                if bs.contained(block, b) {
                    assert!(all_in, "contained block {block} leaks out of {b:?}");
                }
                let q = Point::new([7, 21]);
                let bound = bs.min_dist_sq(block, &q);
                for s in slots {
                    assert!(bound <= q.euclidean_sq(&points[s]));
                }
            }
            if bs.run_disjoint(b) {
                assert!(points.iter().all(|p| !b.contains(p)));
            }
        }
    }

    #[test]
    fn all_equal_keys_pack_at_width_zero() {
        let keys = vec![77u128; 130];
        let points = vec![Point::new([5, 9]); 130];
        let bs = BlockStore::pack(&keys, &points, |_| true);
        // Every block: zero key delta width, zero coordinate widths.
        assert_eq!(bs.key_words.len(), 1, "only the pad word");
        assert_eq!(bs.coord_words.len(), 1, "only the pad word");
        let (dk, dp) = decode_all(&bs);
        assert_eq!(dk, keys);
        assert_eq!(dp, points);
        assert_eq!(bs.lower_bound(77), 0);
        assert_eq!(bs.lower_bound(78), 130);
    }

    #[test]
    fn max_delta_keys_fall_back_to_raw_blocks() {
        // Deltas exceeding 64 bits force the raw two-word representation.
        let mut keys: Vec<CurveIndex> = vec![0];
        for j in 1..BLOCK_SLOTS + 3 {
            keys.push((j as u128) << 100);
        }
        let points: Vec<Point<2>> = (0..keys.len())
            .map(|i| Point::new([i as u32, 1000 - i as u32]))
            .collect();
        let bs = BlockStore::pack(&keys, &points, |_| true);
        assert_eq!(bs.key_widths[0], kernels::WIDTH_RAW);
        let (dk, dp) = decode_all(&bs);
        assert_eq!(dk, keys);
        assert_eq!(dp, points);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(bs.lower_bound(k), i);
        }
    }

    #[test]
    fn one_slot_tail_block_round_trips() {
        let (keys, points, _) = sorted_columns(BLOCK_SLOTS + 1);
        let bs = BlockStore::pack(&keys, &points, |_| true);
        assert_eq!(bs.blocks(), 2);
        assert_eq!(bs.block_range(1).len(), 1);
        let (dk, dp) = decode_all(&bs);
        assert_eq!(dk, keys);
        assert_eq!(dp, points);
    }

    #[test]
    fn all_tombstone_blocks_are_flagged_dead() {
        let (keys, points, _) = sorted_columns(3 * BLOCK_SLOTS);
        let bs = BlockStore::pack(&keys, &points, |slot| slot >= 2 * BLOCK_SLOTS);
        assert!(bs.is_all_dead(0));
        assert!(bs.is_all_dead(1));
        assert!(!bs.is_all_dead(2));
        assert_eq!(bs.live_len(), BLOCK_SLOTS);
        assert_eq!(bs.rank(2 * BLOCK_SLOTS), 0);
        // Decoding a dead block still round-trips its columns.
        let (dk, _) = decode_all(&bs);
        assert_eq!(dk, keys);
    }

    #[test]
    fn empty_block_store() {
        let bs: BlockStore<2> = BlockStore::pack(&[], &[], |_| true);
        assert!(bs.is_empty());
        assert_eq!(bs.blocks(), 0);
        assert_eq!(bs.live_len(), 0);
        assert!(bs.bounds().is_none());
        let b = BoxRegion::new(Point::new([0, 0]), Point::new([3, 3]));
        assert!(!bs.run_disjoint(&b));
        assert_eq!(bs.lower_bound(5), 0);
    }

    #[test]
    fn byte_image_round_trips_and_rejects_structural_lies() {
        let (keys, points, _) = sorted_columns(130);
        let bs = BlockStore::pack(&keys, &points, |slot| slot % 5 != 0);
        let mut image = Vec::new();
        bs.write_to(&mut image);
        assert_eq!(BlockStore::<2>::read_from(&image).as_ref(), Ok(&bs));

        // Offsets of block `b`'s fields in a `D = 2` image.
        let meta = |b: usize| BlockStore::<2>::IMAGE_HEADER + b * BlockStore::<2>::IMAGE_BLOCK;
        let (lo_at, hi_at) = (16, 24);
        let rejects = |what: &str, edit: &dyn Fn(&mut Vec<u8>), expect: &str| {
            let mut bad = image.clone();
            edit(&mut bad);
            let err = BlockStore::<2>::read_from(&bad).expect_err(what);
            assert!(err.detail.contains(expect), "{what}: {err}");
        };
        rejects(
            "inverted AABB",
            // Block 1's lo.x above any coordinate of the 32×32 grid.
            &|i| i[meta(1) + lo_at..][..4].copy_from_slice(&100u32.to_le_bytes()),
            "inverted",
        );
        rejects(
            "a point outside its AABB",
            &|i| {
                // Shrink block 0's hi corner onto its lo corner.
                let (lo, hi) = (meta(0) + lo_at, meta(0) + hi_at);
                i.copy_within(lo..lo + 8, hi);
            },
            "leaves the block's AABB",
        );
        rejects(
            "a key past u128::MAX",
            &|i| i[meta(1)..meta(1) + 16].copy_from_slice(&u128::MAX.to_le_bytes()),
            "overflows u128",
        );
        rejects(
            "a fence below the previous block",
            &|i| i[meta(1)..meta(1) + 16].copy_from_slice(&0u128.to_le_bytes()),
            "previous block's last key",
        );
        rejects(
            "a live bit past len",
            &|i| i[meta(2) + 32 + 7] |= 0x80,
            "live bit past slot 130",
        );
    }

    #[test]
    fn cursor_caches_decodes() {
        let (keys, points, _) = sorted_columns(200);
        let bs = BlockStore::pack(&keys, &points, |_| true);
        let mut cur = BlockCursor::new(&bs);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(cur.key(i), *key);
        }
        assert_eq!(cur.decodes, bs.blocks() as u64, "one decode per block");
    }
}
