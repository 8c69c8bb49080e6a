//! # sfc-index — spatial indexing over space filling curves
//!
//! The paper's database motivation (secondary-memory data structures \[9\],
//! associative searching \[21\] — the original Z-curve paper): store
//! multi-dimensional records in a plain one-dimensional ordered structure
//! keyed by curve index, and answer box and nearest-neighbor queries by
//! navigating key ranges. Proximity preservation is what makes this work —
//! a low-stretch curve keeps spatially close records in few contiguous key
//! runs.
//!
//! Components:
//!
//! * [`BoxRegion`] — an axis-aligned query box.
//! * [`bigmin`](mod@bigmin) — the Tropf–Herzog BIGMIN primitive on Morton codes,
//!   which lets a range scan *skip* key gaps that leave the box.
//! * [`BlockStore`] — the compressed physical run format, and
//!   [`kernels`] — the branch-free pack/unpack/filter loops over it.
//! * [`SfcIndex`] — a sorted key table over any curve, read through the
//!   same kernels as every level of the `sfc-store` LSM-style store: one
//!   box path, one raw interval path and one verified exact
//!   k-nearest-neighbor path, whose costs directly reflect the curve's
//!   stretch.
//! * [`knn`] — the kNN candidate walk over one sorted run, and the top-k
//!   heap helpers around it.

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
//! * A **key filter** — a one-word blocked Bloom filter over every slot
//!   key, tombstones included, ten bits per distinct key — answers "not
//!   here" for most absent keys from one word. In memory only.
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
//! ## Reading an index
//!
//! * [`SfcIndex::query_box`] — every record inside a box, on any curve:
//!   the box is clipped to the grid ([`BoxRegion::clip_to_grid`]) and run
//!   through the block-at-a-time kernel ([`box_scan`]), which masks every
//!   block the box's key span reaches and consults the curve only to
//!   leave an excursion of two or more disjoint blocks. Morton order
//!   leaves it by BIGMIN ([`MortonSkipper`], nothing precomputed); every
//!   other curve by a binary search of the box's exact decomposition
//!   ([`IntervalSkipper`] over [`BoxRegion::curve_intervals`]:
//!   `O(perimeter)` on Z, Hilbert and Gray, `O(volume · log volume)` on
//!   any other curve). [`CurveSkipper`] is that rule, built once per
//!   query; a structure split by key range hands each part its
//!   [`meeting`](CurveSkipper::meeting) share.
//! * [`SfcIndex::query_intervals`] — every record whose key lies in a
//!   caller's sorted, disjoint interval list ([`interval_scan`]: one
//!   galloped seek per interval, zero overscan). With
//!   `b.curve_intervals(index.curve())` it is the raw interval walk of
//!   box `b`, the differential twin of `query_box` and the box oracle of
//!   the store's tests (over `ShardedSnapshot::to_index`).
//! * [`SfcIndex::knn`] — the candidate walk of [`knn`] from the query's
//!   key, then the Chebyshev ball its k-th best bounds, through
//!   `query_box`, ranked by `(distance, key)`.
//! * [`SfcIndex::point_lookup`] — the records at one cell.
//!
//! Every read skips tombstoned slots, so a versioned run
//! ([`SfcIndex::from_sorted_versions`]) reads like its live records.
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
//! * [`box_scan`] with its [`BoxSkipper`]s (the one per query:
//!   [`CurveSkipper`]) and [`interval_scan`], with
//!   per-level [`QueryStats`] accounting, and [`assert_sorted_disjoint`],
//!   the entry check of every raw interval read;
//! * [`knn::knn_collect_run`] — the per-run candidate walk, told by a
//!   callback which keys a newer level shadows;
//! * [`SfcIndex::from_sorted_versions`] — adopt run storage without
//!   re-sorting;
//! * [`SfcIndex::lower_bound`] — a fence-array key search over packed
//!   blocks — and [`SfcIndex::find_key`]: filter, then fence search. The
//!   run's key filter ([`BlockStore::may_contain`]) turns most absent
//!   keys away before a fence is read; it is kept in memory only,
//!   rebuilt on load, and the byte image does not change.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bigmin;
pub mod block;
pub mod kernels;
pub mod knn;
pub mod query;
pub mod region;
pub mod scan;
pub mod table;

pub use bigmin::bigmin;
pub use block::{BlockCursor, BlockImageError, BlockStore, DecodedBlock, BLOCK_SLOTS};
pub use query::QueryStats;
pub use region::BoxRegion;
pub use scan::{
    assert_sorted_disjoint, box_scan, interval_scan, BoxSkipper, CurveSkipper, IntervalSkipper,
    MortonSkipper,
};
pub use table::{sort_columns, EntryRef, SfcIndex};
