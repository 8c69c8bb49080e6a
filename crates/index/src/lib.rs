//! # sfc-index — spatial indexing over space filling curves
//!
//! The paper's database motivation (secondary-memory data structures [9],
//! associative searching [21] — the original Z-curve paper): store
//! multi-dimensional records in a plain one-dimensional ordered structure
//! keyed by curve index, and answer box and nearest-neighbor queries by
//! navigating key ranges. Proximity preservation is what makes this work —
//! a low-stretch curve keeps spatially close records in few contiguous key
//! runs.
//!
//! Components:
//!
//! * [`BoxRegion`] — an axis-aligned query box.
//! * [`bigmin`] — the Tropf–Herzog BIGMIN/LITMAX primitives on Morton
//!   codes, which let a range scan *skip* key gaps that leave the box.
//! * [`BlockStore`] — the compressed physical run format, and
//!   [`kernels`] — the branch-free pack/unpack/filter loops over it.
//! * [`SfcIndex`] — a sorted key table over any curve, with three box-query
//!   strategies (full scan, interval decomposition, BIGMIN jumping) and a
//!   verified exact k-nearest-neighbor search whose cost directly reflects
//!   the curve's stretch.
//!
//! ## Physical layout: compressed columnar blocks
//!
//! [`SfcIndex`] stores its records sorted by curve key in blocks of
//! [`BLOCK_SLOTS`] slots ([`BlockStore`]). Per block:
//!
//! * **Keys** are frame-of-reference encoded: the block's first key is
//!   the uncompressed *fence*, every slot stores `key − fence` bit-packed
//!   at the narrowest width holding the block's largest delta. SFC
//!   sorting is what makes this pay: curve-adjacent keys differ in few
//!   low bits, so a 128-bit key typically packs into 8–16 bits. Deltas
//!   wider than 64 bits (possible across sparse regions) fall back to a
//!   raw two-words-per-slot block, flagged in the width byte.
//! * **Coordinates** are offsets from the block's per-dimension AABB
//!   minimum, bit-packed per axis at the narrowest sufficient width. The
//!   AABB corners are stored uncompressed — they are simultaneously the
//!   zone-map pruning summary and the coordinate frame of reference.
//! * **Tombstones** are a one-word bitmap (bit `j` ⇔ slot `j` live)
//!   instead of per-slot `Option` discriminants; payloads of live slots
//!   live in one **dense** column, indexed by rank-select over the
//!   bitmap (a masked popcount). A deletion marker costs one bit.
//! * Tail blocks are zero-padded to the full 64 slots, so word offsets
//!   are pure prefix sums and the decode kernels never branch on length.
//!
//! ### Lazy decode contract and kernel soundness
//!
//! Scans consult only the uncompressed metadata (fences, AABBs, bitmap)
//! to *decide* — skip, bulk-accept, jump, bound a kNN distance — and run
//! the unpack kernels only on blocks whose slots must be examined or
//! reported, at most once per block per scan — coordinates first, keys
//! only if the block turns out to hold a hit
//! ([`QueryStats::blocks_decoded`](QueryStats) counts exactly these
//! blocks). The kernels themselves are
//! straight-line 64-slot loops (`#![forbid(unsafe_code)]` holds; see
//! [`kernels`] for the paired-word read's bounds argument) producing
//! stack buffers and hit bitmasks — shapes the autovectorizer lowers to
//! SIMD lanes.
//!
//! ## Bulk load
//!
//! [`SfcIndex::build`] encodes points through the curve's batch kernel
//! ([`index_of_batch`](sfc_core::SpaceFillingCurve::index_of_batch)) and
//! sorts by a stable LSD **radix sort** over the `d·k` significant key
//! bits — linear passes with sequential memory traffic, replacing the
//! comparison sort a naive build would use. Already-sorted columns can be
//! adopted with [`SfcIndex::from_sorted`] (or
//! [`SfcIndex::from_sorted_versions`] when `None` slots are tombstones —
//! the constructor every LSM-style run goes through).
//!
//! ## Choosing a box-query strategy
//!
//! * `query_box_intervals` — exact interval decomposition; zero overscan,
//!   one seek per interval. Preprocessing is `O(perimeter)` on Z, Hilbert
//!   and Gray (a cover by aligned cubes) and `O(volume · log volume)` on
//!   any other curve — see [`BoxRegion::curve_intervals`]. Best for small
//!   boxes on any curve.
//! * `query_box_bigmin` (Z curve only) — no preprocessing; the
//!   block-at-a-time kernel ([`box_scan`]) masks every block the box's
//!   key span reaches and computes a BIGMIN jump only to leave an
//!   excursion of two or more disjoint blocks, so its cost is the blocks
//!   the box touches plus one fence search per excursion.
//! * `query_box_full_scan` — the `O(n)` baseline.
//!
//! ## Building blocks for multi-run structures
//!
//! Everything the index does to one sorted run is also exposed as a
//! free-standing primitive over a run's [`BlockStore`], so structures
//! composed of *several* sorted runs (the `sfc-store` LSM-style store)
//! reuse the exact same code per level:
//!
//! * [`sort_columns`] — batch-encode + stable radix sort: sorted-column
//!   construction from unsorted records;
//! * [`box_scan`] — the block-at-a-time box kernel, for any curve: each
//!   block of the box's key span is pruned, bulk-visited or decoded once
//!   and masked, and a [`BoxSkipper`] ([`MortonSkipper`]: BIGMIN;
//!   [`IntervalSkipper`]: the box's decomposition) is asked only to leave
//!   an excursion ([`bigmin_scan`] is the kernel with the former) — and
//!   [`interval_scan`], the galloping
//!   walk of a raw interval list; both with per-level [`QueryStats`]
//!   accounting. The pre-zone-map reference versions survive as
//!   [`interval_scan_plain`] / [`bigmin_scan_plain`] for differential
//!   tests and baseline benches;
//! * [`SfcIndex::from_sorted_versions`] / [`SfcIndex::into_parts`] —
//!   adopt and release run storage without re-sorting;
//! * [`SfcIndex::lower_bound`] / [`SfcIndex::find_key`] — fence-array
//!   key searches over packed blocks.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bigmin;
pub mod block;
pub mod kernels;
pub mod query;
pub mod region;
pub mod scan;
pub mod table;

pub use bigmin::{bigmin, litmax};
pub use block::{BlockCursor, BlockImageError, BlockStore, DecodedBlock, BLOCK_SLOTS};
pub use query::QueryStats;
pub use region::BoxRegion;
pub use scan::{
    bigmin_scan, bigmin_scan_plain, box_scan, interval_scan, interval_scan_plain, BoxSkipper,
    IntervalSkipper, MortonSkipper,
};
pub use table::{sort_columns, EntryRef, SfcIndex};
