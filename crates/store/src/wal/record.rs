//! The on-disk WAL record format: length-prefixed, CRC32C-checksummed
//! frames, and the [`WalPayload`] byte codec the frames carry.
//!
//! ## Frame layout
//!
//! ```text
//! [ body_len: u32 LE ][ crc32c(body): u32 LE ][ body: body_len bytes ]
//! ```
//!
//! with the body
//!
//! ```text
//! [ tag: u8 ][ seq: u64 LE ][ D × coord: u32 LE ][ payload bytes ]
//! ```
//!
//! where `tag` is [`TAG_TOMBSTONE`] (no payload bytes) or [`TAG_INSERT`]
//! (payload bytes follow, decoded by [`WalPayload::decode_payload`]).
//! The curve key is **not** stored: the curve is a bijection from cells
//! to keys, so recovery recomputes `curve.index_of(point)` — 16 bytes per
//! record saved, and the log stays valid across curve implementations
//! that agree on the mapping.
//!
//! ## Frame format v2: multi-record batch bodies
//!
//! A batched write coalesces a whole shard slice into **one** frame so
//! a commit round handles one ticket and one CRC instead of N. The
//! outer framing is unchanged (same length prefix, same checksum — v1
//! readers of the *framing* still walk the log); only the body grows a
//! new shape, introduced by [`TAG_BATCH`]:
//!
//! ```text
//! [ TAG_BATCH: u8 ][ count: u32 LE ] then `count` ×
//!   [ tag: u8 ][ seq: u64 LE ][ D × coord: u32 LE ]
//!   [ payload_len: u32 LE ][ payload bytes ]
//! ```
//!
//! Each packed record carries its own insert/tombstone tag and an
//! *explicit* payload length (a single-record body infers it from the
//! body length; packed records cannot). Because the whole batch sits
//! under one CRC and one length prefix, [`parse_frame`]'s torn-tail
//! classification applies to the batch as a unit: a crash mid-append
//! tears the *whole* frame, so recovery is all-or-nothing per shard
//! slice — exactly the atomicity the batched write path promises.
//!
//! ## Encoding: unsealed, then sealed
//!
//! A writer learns its sequence numbers only inside the shard's `mem`
//! lock, and nothing as slow as byte-encoding belongs in there. So a
//! frame is written in two steps around the lock: before it, the one
//! frame encoder, [`encode_unsealed_batch`], lays the whole op list out
//! in one buffer — payloads encoded in place, no per-record allocation —
//! with the seq and checksum fields zero; after it, [`seal_frames`]
//! stamps the assigned seqs in place and checksums each frame. A single
//! write is a list of one, which the encoder writes as the v1 frame
//! above; a longer list is one v2 frame. The bytes that reach the log
//! are exactly the layouts above, and recovery decodes both bodies
//! through one per-record field decoder.
//!
//! ## The checksum
//!
//! [`crc32c`] is the only checksum in the crate and every durable byte
//! passes through it once on the way out and once on the way in. It is
//! slice-by-8 (eight compile-time tables, eight independent lookups per
//! 8-byte chunk, safe Rust): ≳ 1 GB/s where the classic one-table loop,
//! whose every lookup waits on the previous one, reaches ≈ 0.4 GB/s.
//!
//! ## Classifying damage
//!
//! [`parse_frame`] distinguishes the two ways a frame can be unreadable,
//! because recovery treats them differently (see the `wal` module docs):
//!
//! * [`FrameOutcome::Truncated`] — the buffer ends before the frame does.
//!   In the **last** segment this is a torn tail (a crash mid-append) and
//!   is discarded silently; anywhere else it is corruption.
//! * [`FrameOutcome::BadCrc`] — the frame is complete but its checksum
//!   does not match. If the frame ends exactly at the end of the last
//!   segment it is still classified as a torn tail (a partially persisted
//!   final append is indistinguishable from a flipped bit in it); any
//!   earlier bad checksum is corruption and fails recovery loudly.

use sfc_core::Point;

/// Tag byte of a tombstone (delete) record.
pub(crate) const TAG_TOMBSTONE: u8 = 0;
/// Tag byte of an insert/upsert record.
pub(crate) const TAG_INSERT: u8 = 1;
/// Tag byte of a multi-record batch body (frame format v2): a whole
/// shard slice of a cross-shard batch packed under one length prefix and
/// one CRC32C. See [`encode_unsealed_batch`].
pub(crate) const TAG_BATCH: u8 = 2;

/// Bytes of a batch body's own header: the batch tag plus the record
/// count.
pub(crate) const BATCH_HEADER: usize = 1 + 4;

/// Bytes one record occupies inside a batch body: per-record tag, seq,
/// coords, explicit payload length, payload.
pub(crate) const fn batch_entry_len<const D: usize>(payload_len: usize) -> usize {
    1 + 8 + 4 * D + 4 + payload_len
}

/// Frame header size: body length + body checksum.
pub(crate) const FRAME_HEADER: usize = 8;

/// Sanity cap on a single record body; a length prefix beyond this is
/// treated as damage, not as a request to allocate gigabytes.
pub(crate) const MAX_BODY: usize = 1 << 24;

/// Segment file header: magic, format version, point dimensionality,
/// two reserved zero bytes.
pub(crate) const SEGMENT_MAGIC: &[u8; 4] = b"SFWL";
/// Current segment format version.
pub(crate) const SEGMENT_VERSION: u8 = 1;
/// Size of the segment header in bytes.
pub(crate) const SEGMENT_HEADER: usize = 8;

/// Builds the 8-byte segment header for dimensionality `dims`.
pub(crate) fn segment_header(dims: u8) -> [u8; SEGMENT_HEADER] {
    let mut h = [0u8; SEGMENT_HEADER];
    h[..4].copy_from_slice(SEGMENT_MAGIC);
    h[4] = SEGMENT_VERSION;
    h[5] = dims;
    h
}

/// Checks a segment header; returns a human-readable complaint on
/// mismatch.
pub(crate) fn check_segment_header(h: &[u8], dims: u8) -> Result<(), String> {
    if h.len() < SEGMENT_HEADER {
        return Err(format!("segment header truncated at {} bytes", h.len()));
    }
    if &h[..4] != SEGMENT_MAGIC {
        return Err("bad segment magic".to_string());
    }
    if h[4] != SEGMENT_VERSION {
        return Err(format!("unsupported segment version {}", h[4]));
    }
    if h[5] != dims {
        return Err(format!("segment dims {} != store dims {dims}", h[5]));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// CRC32C (Castagnoli), slice-by-8, tables built at compile time.
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the checksum state after byte `b` followed by `k` zero bytes, which
/// is what lets eight input bytes be folded with eight independent
/// lookups instead of eight dependent ones.
const CRC_TABLES: [[u32; 256]; 8] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 8] {
    // Reflected Castagnoli polynomial.
    const POLY: u32 = 0x82F6_3B78;
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32C of `bytes` (Castagnoli polynomial, reflected, init/final XOR
/// `!0` — the same function hardware `crc32c` instructions compute).
///
/// The only checksum in the crate: WAL frames, run files, checkpoints,
/// the manifest and the recovery scan all call it. Slice-by-8: each
/// 8-byte chunk costs eight table lookups that do not depend on one
/// another (the bytewise loop chains every lookup on the previous one),
/// with the bytewise loop left for the ≤ 7-byte tail. Same function,
/// same values — the test module keeps the bytewise loop as the
/// reference and checks every length and alignment against it.
pub(crate) fn crc32c(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------

/// Byte codec a payload type must provide to ride in the WAL (and in the
/// persisted run files). Hand-rolled rather than serde-based because the
/// build environment is offline: implementations exist for the common
/// primitive payloads, and user types compose them.
///
/// The contract: `decode_payload(encode_payload(x)) == Some(x)`, and
/// `decode_payload` must return `None` (never panic) on malformed input —
/// recovery turns `None` into a typed corruption error.
pub trait WalPayload: Sized {
    /// Appends this value's byte encoding to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);
    /// Decodes a value from exactly `bytes`, or `None` if malformed.
    fn decode_payload(bytes: &[u8]) -> Option<Self>;
}

macro_rules! impl_wal_payload_int {
    ($($t:ty),*) => {$(
        impl WalPayload for $t {
            fn encode_payload(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_payload(bytes: &[u8]) -> Option<Self> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

impl_wal_payload_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

impl WalPayload for () {
    fn encode_payload(&self, _out: &mut Vec<u8>) {}
    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        bytes.is_empty().then_some(())
    }
}

impl WalPayload for bool {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        match bytes {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }
}

impl WalPayload for Vec<u8> {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

impl WalPayload for String {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_payload(bytes: &[u8]) -> Option<Self> {
        String::from_utf8(bytes.to_vec()).ok()
    }
}

// ---------------------------------------------------------------------
// Frame encode / parse
// ---------------------------------------------------------------------

/// One decoded WAL record: the per-shard sequence number, the cell, and
/// the payload (`None` = tombstone).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalRecord<const D: usize, T> {
    pub(crate) seq: u64,
    pub(crate) point: Point<D>,
    pub(crate) slot: Option<T>,
}

/// Appends a record's fixed head — tag, a zeroed seq field, coords — to
/// `out`.
fn put_record_head<const D: usize>(out: &mut Vec<u8>, point: &Point<D>, live: bool) {
    out.push(if live { TAG_INSERT } else { TAG_TOMBSTONE });
    out.extend_from_slice(&[0u8; 8]); // seq, stamped by `seal_frames`
    for i in 0..D {
        out.extend_from_slice(&point.coord(i).to_le_bytes());
    }
}

/// Appends a `u32` length and then the payload's encoding (nothing, at
/// length 0, for `None`), encoded in place: the length is patched in
/// once the codec has run. Batch entries and run files both store
/// payloads this way.
pub(crate) fn put_sized_payload<T: WalPayload>(out: &mut Vec<u8>, payload: Option<&T>) {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    if let Some(payload) = payload {
        payload.encode_payload(out);
    }
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Writes the body length of the frame whose header sits at `frame_at`
/// and whose body runs to the end of `out`.
fn put_body_len(out: &mut [u8], frame_at: usize) {
    let body_len = out.len() - frame_at - FRAME_HEADER;
    out[frame_at..frame_at + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
}

/// Appends a shard slice as **unsealed** multi-record batch frames
/// (format v2, see the module docs): every byte in place except the
/// sequence numbers and the checksums, which [`seal_frames`] stamps once
/// the shard's `mem` lock has assigned the seqs. Payloads are encoded
/// straight into `out`. A slice is one frame unless its body would pass
/// [`MAX_BODY`], where it is cut greedily (every frame takes at least
/// one record); a frame left with a single record degenerates to the
/// equivalent v1 frame, no batch overhead — which is how a single write
/// is logged.
pub(crate) fn encode_unsealed_batch<'a, const D: usize, T: WalPayload + 'a>(
    out: &mut Vec<u8>,
    records: impl ExactSizeIterator<Item = (&'a Point<D>, Option<&'a T>)>,
) {
    debug_assert!(records.len() > 0, "a batch frame carries >= 1 record");
    let mut frame_at = open_batch(out);
    let mut count = 0u32;
    for (point, slot) in records {
        let entry_at = out.len();
        put_record_head(out, point, slot.is_some());
        put_sized_payload(out, slot);
        count += 1;
        if count > 1 && out.len() - frame_at - FRAME_HEADER > MAX_BODY {
            // This record overflows the frame: it opens the next one.
            let entry = out.split_off(entry_at);
            close_batch::<D>(out, frame_at, count - 1);
            frame_at = open_batch(out);
            out.extend_from_slice(&entry);
            count = 1;
        }
    }
    close_batch::<D>(out, frame_at, count);
}

/// Starts a batch frame: header and count placeholders. Returns the
/// frame's offset.
fn open_batch(out: &mut Vec<u8>) -> usize {
    let frame_at = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER]);
    out.push(TAG_BATCH);
    out.extend_from_slice(&[0u8; 4]);
    frame_at
}

/// Finishes the batch frame at `frame_at`, which runs to the end of
/// `out` and holds `count` records.
fn close_batch<const D: usize>(out: &mut Vec<u8>, frame_at: usize, count: u32) {
    let body_at = frame_at + FRAME_HEADER;
    if count == 1 {
        // v1 degeneration: drop the explicit payload length, then the
        // batch header (back to front, so the first offset stays valid).
        let len_at = body_at + BATCH_HEADER + batch_entry_len::<D>(0) - 4;
        out.drain(len_at..len_at + 4);
        out.drain(body_at..body_at + BATCH_HEADER);
    } else {
        out[body_at + 1..body_at + BATCH_HEADER].copy_from_slice(&count.to_le_bytes());
    }
    put_body_len(out, frame_at);
}

/// Seals the unsealed frames in `buf` (whole frames, back to back, as
/// the two encoders above wrote them): stamps consecutive sequence
/// numbers from `first_seq` into the records in encoded order, then
/// checksums each frame. Returns how many records were stamped, so the
/// highest seq in `buf` is `first_seq + records - 1`.
pub(crate) fn seal_frames<const D: usize>(buf: &mut [u8], first_seq: u64) -> usize {
    let mut seq = first_seq;
    let mut frame_at = 0;
    while frame_at < buf.len() {
        let body_len = u32::from_le_bytes(
            buf[frame_at..frame_at + 4]
                .try_into()
                .expect("4-byte length prefix"),
        ) as usize;
        let body_at = frame_at + FRAME_HEADER;
        let body = &mut buf[body_at..body_at + body_len];
        if body[0] == TAG_BATCH {
            let count = u32::from_le_bytes(body[1..BATCH_HEADER].try_into().expect("4-byte count"));
            let mut at = BATCH_HEADER;
            for _ in 0..count {
                body[at + 1..at + 9].copy_from_slice(&seq.to_le_bytes());
                seq += 1;
                let len_at = at + batch_entry_len::<D>(0) - 4;
                let payload_len = u32::from_le_bytes(
                    body[len_at..len_at + 4]
                        .try_into()
                        .expect("4-byte payload length"),
                ) as usize;
                at = len_at + 4 + payload_len;
            }
        } else {
            body[1..9].copy_from_slice(&seq.to_le_bytes());
            seq += 1;
        }
        let crc = crc32c(body);
        buf[frame_at + 4..body_at].copy_from_slice(&crc.to_le_bytes());
        frame_at = body_at + body_len;
    }
    (seq - first_seq) as usize
}

/// The result of parsing one frame at some offset of a segment buffer.
#[derive(Debug)]
pub(crate) enum FrameOutcome<'a> {
    /// A complete frame with a valid checksum; `body` is the record body
    /// and `end` the buffer offset just past the frame.
    Ok { body: &'a [u8], end: usize },
    /// The buffer ends before the frame does (or the length prefix is
    /// insane, which a torn append can also produce).
    Truncated,
    /// The frame is complete but the checksum mismatches; `end` is the
    /// offset just past the frame — `end == buf.len()` in the last
    /// segment means torn tail, anything else means corruption.
    BadCrc { end: usize },
}

/// Parses the frame starting at `off`. `off == buf.len()` is a clean end
/// — callers check that before calling.
pub(crate) fn parse_frame(buf: &[u8], off: usize) -> FrameOutcome<'_> {
    let rest = &buf[off..];
    if rest.len() < FRAME_HEADER {
        return FrameOutcome::Truncated;
    }
    let body_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
    if body_len == 0 || body_len > MAX_BODY {
        // A zero or absurd length prefix cannot be a well-formed frame;
        // treat it like a frame the buffer cannot contain.
        return FrameOutcome::Truncated;
    }
    if rest.len() < FRAME_HEADER + body_len {
        return FrameOutcome::Truncated;
    }
    let want = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    let body = &rest[FRAME_HEADER..FRAME_HEADER + body_len];
    let end = off + FRAME_HEADER + body_len;
    if crc32c(body) != want {
        return FrameOutcome::BadCrc { end };
    }
    FrameOutcome::Ok { body, end }
}

/// Decodes one record from its fixed head (at the start of `head`) and
/// its payload bytes — the field decoder both body formats share.
fn decode_record<const D: usize, T: WalPayload>(
    head: &[u8],
    payload: &[u8],
) -> Result<WalRecord<D, T>, String> {
    let seq = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
    let mut coords = [0u32; D];
    for (i, c) in coords.iter_mut().enumerate() {
        *c = u32::from_le_bytes(head[9 + 4 * i..13 + 4 * i].try_into().expect("4 bytes"));
    }
    let slot = match head[0] {
        TAG_TOMBSTONE if payload.is_empty() => None,
        TAG_TOMBSTONE => return Err(format!("tombstone with {} payload bytes", payload.len())),
        TAG_INSERT => {
            Some(T::decode_payload(payload).ok_or_else(|| "payload failed to decode".to_string())?)
        }
        other => return Err(format!("unknown record tag {other}")),
    };
    Ok(WalRecord {
        seq,
        point: Point::new(coords),
        slot,
    })
}

/// Decodes a checksum-valid v1 (single-record) body. A failure here
/// means the frame passed its CRC but does not parse — a format bug or
/// version skew, not bit rot — and recovery reports it as corruption
/// with this detail.
pub(crate) fn decode_body<const D: usize, T: WalPayload>(
    body: &[u8],
) -> Result<WalRecord<D, T>, String> {
    let fixed = 1 + 8 + 4 * D;
    if body.len() < fixed {
        return Err(format!("body too short: {} < {fixed}", body.len()));
    }
    decode_record(body, &body[fixed..])
}

/// Decodes a checksum-valid body of either format — a v1 single-record
/// body or a v2 [`TAG_BATCH`] body — pushing every record onto `out` in
/// encoded order. Returns how many records the body held. Like
/// [`decode_body`], a failure here is format skew under a valid CRC and
/// recovery reports it as corruption.
pub(crate) fn decode_body_records<const D: usize, T: WalPayload>(
    body: &[u8],
    out: &mut Vec<WalRecord<D, T>>,
) -> Result<usize, String> {
    if body.first() != Some(&TAG_BATCH) {
        out.push(decode_body(body)?);
        return Ok(1);
    }
    if body.len() < BATCH_HEADER {
        return Err(format!("batch header too short: {} bytes", body.len()));
    }
    let count = u32::from_le_bytes(body[1..5].try_into().expect("4 bytes")) as usize;
    if count == 0 {
        return Err("batch body with zero records".to_string());
    }
    let mut off = BATCH_HEADER;
    for i in 0..count {
        let len_at = off + 9 + 4 * D;
        if body.len() < len_at + 4 {
            return Err(format!(
                "batch record {i}/{count} truncated inside the body"
            ));
        }
        let payload_len =
            u32::from_le_bytes(body[len_at..len_at + 4].try_into().expect("4 bytes")) as usize;
        let payload_at = len_at + 4;
        if body.len() - payload_at < payload_len {
            return Err(format!(
                "batch record {i}/{count} payload overruns the body"
            ));
        }
        let payload = &body[payload_at..payload_at + payload_len];
        out.push(
            decode_record(&body[off..], payload)
                .map_err(|e| format!("batch record {i}/{count}: {e}"))?,
        );
        off = payload_at + payload_len;
    }
    if off != body.len() {
        return Err(format!(
            "batch body has {} trailing bytes after {count} records",
            body.len() - off
        ));
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop: the reference the slice-by-8
    /// kernel is checked against, and the only single-table loop left.
    fn crc32c_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// xorshift64* — seeded bytes without a dev-dependency.
    fn seeded_bytes(mut state: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32c_matches_known_vectors() {
        // RFC 3720 appendix B.4.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        assert_eq!(crc32c(&descending), 0x113F_DB5C);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn crc32c_kernel_equals_the_bytewise_reference() {
        // Every length 0..=130 at every start offset 0..8 of one buffer:
        // all chunk/tail splits at all alignments.
        let buf = seeded_bytes(0x5EED, 8 + 130);
        for start in 0..8 {
            for len in 0..=130 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32c(bytes),
                    crc32c_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        let big = seeded_bytes(0xB16, 1 << 20);
        assert_eq!(crc32c(&big), crc32c_bytewise(&big));
    }

    /// One sealed v1 frame: the one encoder's output for a list of one.
    fn record_frame<T: WalPayload>(seq: u64, p: Point<2>, slot: Option<T>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_unsealed_batch(&mut buf, std::iter::once((&p, slot.as_ref())));
        assert_eq!(seal_frames::<2>(&mut buf, seq), 1);
        buf
    }

    /// The sealed frame(s) of a batch slice, seqs from `first_seq`.
    fn batch_frames(first_seq: u64, records: &[(Point<2>, Option<u64>)]) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_unsealed_batch(&mut buf, records.iter().map(|(p, s)| (p, s.as_ref())));
        assert_eq!(seal_frames::<2>(&mut buf, first_seq), records.len());
        buf
    }

    /// A three-record batch for the v2 tests (seqs 10..=12): two inserts
    /// flanking a tombstone.
    fn sample_batch() -> Vec<(Point<2>, Option<u64>)> {
        vec![
            (Point::new([1u32, 2]), Some(111)),
            (Point::new([3u32, 4]), None),
            (Point::new([5u32, 6]), Some(222)),
        ]
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn frames_are_byte_for_byte_the_released_format() {
        // Golden bytes printed by the encoder this one replaced (the
        // `encode_batch_frame` of the commit before the unsealed/sealed
        // split): the WAL format did not move.
        assert_eq!(
            hex(&batch_frames(10, &sample_batch())),
            "540000006adb26de0203000000\
             010a00000000000000010000000200000008000000\
             6f00000000000000\
             000b00000000000000030000000400000000000000\
             010c00000000000000050000000600000008000000\
             de00000000000000"
        );
    }

    #[test]
    fn single_record_batch_degenerates_to_v1_frame() {
        // Golden bytes again: what the replaced encoder wrote for a
        // one-record batch, which was its v1 frame.
        let golden = "190000007955bdfc01070000000000000003000000110000002a00000000000000";
        let p = Point::new([3u32, 17]);
        assert_eq!(hex(&batch_frames(7, &[(p, Some(42))])), golden);
    }

    #[test]
    fn frame_roundtrip_insert_and_tombstone() {
        let p = Point::new([3u32, 17]);
        let mut buf = record_frame(7, p, Some(42u64));
        let n1 = buf.len();
        buf.extend(record_frame::<u64>(8, p, None));

        let FrameOutcome::Ok { body, end } = parse_frame(&buf, 0) else {
            panic!("first frame must parse");
        };
        let rec: WalRecord<2, u64> = decode_body(body).unwrap();
        assert_eq!(
            rec,
            WalRecord {
                seq: 7,
                point: p,
                slot: Some(42)
            }
        );
        assert_eq!(end, n1);

        let FrameOutcome::Ok { body, end } = parse_frame(&buf, n1) else {
            panic!("second frame must parse");
        };
        let rec: WalRecord<2, u64> = decode_body(body).unwrap();
        assert_eq!(rec.slot, None);
        assert_eq!(rec.seq, 8);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn every_truncation_of_a_frame_is_truncated() {
        let buf = record_frame(0, Point::new([1u32, 2]), Some(9u32));
        for cut in 0..buf.len() {
            assert!(
                matches!(parse_frame(&buf[..cut], 0), FrameOutcome::Truncated),
                "cut at {cut} must read as truncated"
            );
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum_or_read_as_truncated() {
        let clean = record_frame(3, Point::new([5u32, 6]), Some(1234u64));
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                match parse_frame(&buf, 0) {
                    // A flip in the length prefix usually makes the frame
                    // overshoot the buffer.
                    FrameOutcome::Truncated => {}
                    FrameOutcome::BadCrc { .. } => {}
                    FrameOutcome::Ok { body, end } => {
                        // A flip in the length prefix can shorten the
                        // frame so the CRC covers different bytes — it
                        // must never verify.
                        panic!(
                            "flip byte {byte} bit {bit} still parsed ok \
                             (body {} bytes, end {end})",
                            body.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn payload_codecs_roundtrip() {
        fn rt<T: WalPayload + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.encode_payload(&mut buf);
            assert_eq!(T::decode_payload(&buf), Some(v));
        }
        rt(0u8);
        rt(u128::MAX);
        rt(-7i64);
        rt(3.5f64);
        rt(true);
        rt(());
        rt(String::from("spatial"));
        rt(vec![1u8, 2, 3]);
        assert_eq!(u32::decode_payload(&[1, 2, 3]), None);
        assert_eq!(bool::decode_payload(&[2]), None);
        assert_eq!(<()>::decode_payload(&[1]), None);
    }

    #[test]
    fn batch_frame_roundtrip() {
        let buf = batch_frames(10, &sample_batch());
        let FrameOutcome::Ok { body, end } = parse_frame(&buf, 0) else {
            panic!("batch frame must parse");
        };
        assert_eq!(end, buf.len());
        let mut out: Vec<WalRecord<2, u64>> = Vec::new();
        assert_eq!(decode_body_records(body, &mut out), Ok(3));
        assert_eq!(
            out,
            vec![
                WalRecord {
                    seq: 10,
                    point: Point::new([1, 2]),
                    slot: Some(111)
                },
                WalRecord {
                    seq: 11,
                    point: Point::new([3, 4]),
                    slot: None
                },
                WalRecord {
                    seq: 12,
                    point: Point::new([5, 6]),
                    slot: Some(222)
                },
            ]
        );
    }

    #[test]
    fn an_overflowing_slice_is_cut_into_whole_frames() {
        // Three 7 MiB payloads: the second still fits a 16 MiB body, the
        // third does not and opens its own (v1-degenerate) frame.
        let p = Point::new([1u32, 2]);
        let blob = vec![0xABu8; 7 << 20];
        let records = [
            (p, Some(blob.clone())),
            (p, None),
            (p, Some(blob.clone())),
            (p, Some(blob)),
        ];
        let mut buf = Vec::new();
        encode_unsealed_batch(&mut buf, records.iter().map(|(p, s)| (p, s.as_ref())));
        assert_eq!(seal_frames::<2>(&mut buf, 100), 4);
        let mut out: Vec<WalRecord<2, Vec<u8>>> = Vec::new();
        let mut off = 0;
        let mut per_frame = Vec::new();
        while off < buf.len() {
            let FrameOutcome::Ok { body, end } = parse_frame(&buf, off) else {
                panic!("frame at {off} must parse");
            };
            per_frame.push(decode_body_records(body, &mut out).unwrap());
            off = end;
        }
        assert_eq!(per_frame, vec![3, 1]);
        let seqs: Vec<u64> = out.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![100, 101, 102, 103]);
        assert_eq!(out[1].slot, None);
        assert_eq!(out[3].slot.as_ref().map(Vec::len), Some(7 << 20));
    }

    #[test]
    fn decode_body_records_handles_v1_bodies_too() {
        let buf = record_frame(3, Point::new([5u32, 6]), Some(9u64));
        let FrameOutcome::Ok { body, .. } = parse_frame(&buf, 0) else {
            panic!("frame must parse");
        };
        let mut out: Vec<WalRecord<2, u64>> = Vec::new();
        assert_eq!(decode_body_records(body, &mut out), Ok(1));
        assert_eq!(out[0].slot, Some(9));
    }

    #[test]
    fn every_truncation_of_a_batch_frame_is_truncated() {
        let buf = batch_frames(10, &sample_batch());
        for cut in 0..buf.len() {
            assert!(
                matches!(parse_frame(&buf[..cut], 0), FrameOutcome::Truncated),
                "cut at {cut} must read as truncated"
            );
        }
    }

    #[test]
    fn batch_bit_flips_fail_the_checksum_or_read_as_truncated() {
        let clean = batch_frames(10, &sample_batch());
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                match parse_frame(&buf, 0) {
                    FrameOutcome::Truncated | FrameOutcome::BadCrc { .. } => {}
                    FrameOutcome::Ok { .. } => {
                        panic!("flip byte {byte} bit {bit} still parsed ok")
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_batch_bodies_are_format_errors() {
        let buf = batch_frames(10, &sample_batch());
        let FrameOutcome::Ok { body, .. } = parse_frame(&buf, 0) else {
            panic!("frame must parse");
        };
        let mut out: Vec<WalRecord<2, u64>> = Vec::new();
        // Count says 4, body holds 3.
        let mut overcount = body.to_vec();
        overcount[1..5].copy_from_slice(&4u32.to_le_bytes());
        assert!(decode_body_records::<2, u64>(&overcount, &mut out).is_err());
        // Count says 2, body holds 3: trailing bytes.
        let mut undercount = body.to_vec();
        undercount[1..5].copy_from_slice(&2u32.to_le_bytes());
        assert!(decode_body_records::<2, u64>(&undercount, &mut out).is_err());
        // A zero-record batch is never emitted.
        let mut empty = vec![TAG_BATCH];
        empty.extend_from_slice(&0u32.to_le_bytes());
        assert!(decode_body_records::<2, u64>(&empty, &mut out).is_err());
    }

    #[test]
    fn segment_header_roundtrip_and_mismatches() {
        let h = segment_header(2);
        assert!(check_segment_header(&h, 2).is_ok());
        assert!(check_segment_header(&h, 3).is_err());
        assert!(check_segment_header(&h[..4], 2).is_err());
        let mut bad = h;
        bad[0] = b'X';
        assert!(check_segment_header(&bad, 2).is_err());
    }
}
