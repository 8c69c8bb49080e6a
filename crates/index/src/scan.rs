//! Range-scan building blocks over compressed block stores.
//!
//! [`SfcIndex`](crate::SfcIndex) and any structure composed of several
//! sorted runs (e.g. an LSM-style store) share the same two scan shapes:
//! walking a precomputed list of exact curve intervals, and the Tropf &
//! Herzog BIGMIN jumping scan. Both are expressed here against a run's
//! [`BlockStore`] so one implementation serves every level of every
//! structure; matches are surfaced as `(position, key, point)` through a
//! `visit` callback and work is accounted in a caller-supplied
//! [`QueryStats`].
//!
//! ## Lazy decode contract
//!
//! All pruning decisions — fence comparisons, AABB rejection/containment,
//! BIGMIN jump landings — run on the store's *uncompressed* per-block
//! metadata. Packed key/coordinate words are only run through the unpack
//! kernels (one [`BlockCursor`] decode per visited block, counted in
//! `QueryStats::blocks_decoded`) when a block survives pruning and its
//! slots must actually be examined or reported.
//!
//! ## Block-mapped fast paths
//!
//! * [`interval_scan`] serves **raw interval lists**: it gallops forward
//!   from the previous interval's resting position instead of
//!   binary-searching the whole column per interval, then filters each
//!   decoded block with the branch-free
//!   [`key_range_mask`](crate::kernels::key_range_mask) kernel and visits
//!   the hit bits.
//! * [`box_scan`] serves **boxes**, on every curve, one block at a time.
//!   It walks the blocks of the box's key span and decides each from its
//!   uncompressed summary: a block whose point AABB misses the box is
//!   **pruned** (`blocks_pruned`), a block whose AABB lies inside the box
//!   is **bulk-visited**, and a partial block is decoded once, filtered
//!   with one [`axis_range_mask`](crate::kernels::axis_range_mask) pass
//!   per axis over its *coordinates*, and its hit bits visited. There is
//!   no per-slot test, no hop inside a block and no landing probe: a
//!   block the walk has reached is cheaper to mask whole than to navigate.
//!   The curve is consulted only to **leave an excursion** — after two
//!   disjoint blocks in a row the walk asks its [`BoxSkipper`] for the
//!   next key that can lie inside the box and lands on it through the
//!   fence array. That skipper is the kernel's one parameter:
//!   [`MortonSkipper`] computes BIGMIN (Tropf & Herzog) and needs no
//!   preprocessing; [`IntervalSkipper`] binary-searches the box's sorted
//!   decomposition and works for every curve. Which one a box query on a
//!   given curve uses is decided once per query, by [`CurveSkipper`].
//!
//! The pre-zone-map per-slot scans these kernels replaced are kept
//! outside the library, as the references `tests/tests/box_kernel.rs`
//! diffs the kernels against (`sfc_integration::oracle`).

use std::borrow::Cow;
use std::ops::Range;

use crate::bigmin::bigmin;
use crate::block::{BlockCursor, BlockStore, DecodedBlock};
use crate::kernels;
use crate::query::QueryStats;
use crate::region::BoxRegion;
use sfc_core::{CurveIndex, Point, SpaceFillingCurve, ZCurve};

/// First position in `blocks[from..]` holding a key ≥ `target`, found by
/// galloping (exponential probes doubling outward from `from`, then a
/// binary search inside the bracketed gap). Probes extract single packed
/// fields — no block decodes. Equivalent to a whole-tail lower bound but
/// `O(log gap)` instead of `O(log remaining)` — and `O(1)` when already
/// in position, the common case for sorted interval lists.
fn gallop<const D: usize>(blocks: &BlockStore<D>, from: usize, target: CurveIndex) -> usize {
    let len = blocks.len();
    if from >= len || blocks.key_at(from) >= target {
        return from;
    }
    // Invariant: key(prev) < target.
    let mut prev = from;
    let mut step = 1usize;
    loop {
        let probe = match from.checked_add(step) {
            Some(p) if p < len => p,
            _ => break,
        };
        if blocks.key_at(probe) >= target {
            break;
        }
        prev = probe;
        step <<= 1;
    }
    let end = (from + step).min(len);
    partition_point_in(blocks, prev + 1, end, target)
}

/// First position in `[from, to)` whose key is ≥ `target` (binary search
/// over single-slot key extractions), or `to` if none.
fn partition_point_in<const D: usize>(
    blocks: &BlockStore<D>,
    from: usize,
    to: usize,
    target: CurveIndex,
) -> usize {
    let (mut lo, mut hi) = (from, to);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if blocks.key_at(mid) < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Scans a run for every entry inside the given curve intervals (each
/// `(lo, hi)` inclusive, sorted ascending, as produced by
/// [`BoxRegion::curve_intervals`]), calling `visit` with the position,
/// key, and point of each match.
///
/// One seek per interval plus one mask-kernel pass per overlapped block;
/// because the intervals are exact, every visited entry is a match
/// (`scanned == reported` for interval queries). Seeks **gallop** forward
/// from the previous interval's resting position — see the module docs.
/// The cursor never rewinds, so the intervals **must** be sorted
/// ascending and disjoint (as [`BoxRegion::curve_intervals`] produces
/// them); unsorted input would silently drop matches, hence the debug
/// assertion here and the [`assert_sorted_disjoint`] check at every
/// public read entry.
pub fn interval_scan<const D: usize>(
    blocks: &BlockStore<D>,
    intervals: &[(CurveIndex, CurveIndex)],
    stats: &mut QueryStats,
    mut visit: impl FnMut(usize, CurveIndex, Point<D>),
) {
    debug_assert!(
        intervals.windows(2).all(|w| w[0].1 < w[1].0),
        "interval_scan requires ascending disjoint intervals"
    );
    let mut cur = BlockCursor::new(blocks);
    let mut i = 0usize;
    for &(lo, hi) in intervals {
        stats.seeks += 1;
        i = gallop(blocks, i, lo);
        while i < blocks.len() {
            // Cheap single-field guard: nothing left in this interval.
            if blocks.key_at(i) > hi {
                break;
            }
            let block = blocks.block_of(i);
            let range = blocks.block_range(block);
            let dec = cur.decoded(block);
            // Branch-free key-range filter over the decoded block. Keys
            // are sorted and key(i) ∈ [lo, hi], so the hit bits are the
            // contiguous matching run from slot i onward.
            let m = kernels::key_range_mask(&dec.keys, range.len(), lo, hi);
            stats.scanned += u64::from(m.count_ones());
            let mut bits = m;
            while bits != 0 {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                visit(range.start + j, dec.keys[j], dec.point(j));
            }
            if m >> (range.len() - 1) & 1 == 1 {
                // The block's last slot still matched — spill into the
                // next block.
                i = range.end;
            } else {
                // Rest one past the last match for the next gallop.
                i = range.start + (64 - m.leading_zeros()) as usize;
                break;
            }
        }
    }
    stats.blocks_decoded += cur.decodes;
}

/// What every raw-range read assumes of a caller's interval list,
/// checked once at the public entry: each `lo <= hi`, ascending, disjoint.
///
/// # Panics
/// Panics on the first interval that breaks the rule.
pub fn assert_sorted_disjoint(intervals: &[(CurveIndex, CurveIndex)]) {
    let mut prev: Option<(CurveIndex, CurveIndex)> = None;
    for &(lo, hi) in intervals {
        assert!(lo <= hi, "inverted interval: ({lo}, {hi})");
        if let Some((prev_lo, prev_hi)) = prev {
            assert!(
                prev_hi < lo,
                "intervals must be sorted and disjoint: ({prev_lo}, {prev_hi}) then ({lo}, {hi})"
            );
        }
        prev = Some((lo, hi));
    }
}

/// Where a box's cells sit on the curve — the one parameter of
/// [`box_scan`]. The kernel filters by coordinates, so a skipper never
/// decides a match; it only says how far an excursion out of the box can
/// be skipped.
pub trait BoxSkipper {
    /// An inclusive key range holding the key of every cell of the box.
    fn span(&self) -> (CurveIndex, CurveIndex);

    /// The smallest key ≥ `from` whose cell lies in the box, or `None` if
    /// there is none.
    fn next_inside(&self, from: CurveIndex) -> Option<CurveIndex>;
}

/// The Morton-order skipper: BIGMIN (Tropf & Herzog) on the box's corner
/// codes. Nothing is precomputed beyond the two corner encodes.
#[derive(Debug, Clone, Copy)]
pub struct MortonSkipper<'a, const D: usize> {
    z: &'a ZCurve<D>,
    zmin: CurveIndex,
    zmax: CurveIndex,
}

impl<'a, const D: usize> MortonSkipper<'a, D> {
    /// The skipper for box `b` under Morton order `z`.
    pub fn new(z: &'a ZCurve<D>, b: &BoxRegion<D>) -> Self {
        Self {
            z,
            zmin: z.encode(b.lo()),
            zmax: z.encode(b.hi()),
        }
    }
}

impl<const D: usize> BoxSkipper for MortonSkipper<'_, D> {
    fn span(&self) -> (CurveIndex, CurveIndex) {
        (self.zmin, self.zmax)
    }

    fn next_inside(&self, from: CurveIndex) -> Option<CurveIndex> {
        if from <= self.zmin {
            Some(self.zmin)
        } else if from > self.zmax {
            None
        } else {
            // The smallest code strictly above `from − 1`, `from > zmin ≥ 0`.
            bigmin(self.z, from - 1, self.zmin, self.zmax)
        }
    }
}

/// The any-curve skipper: the box's exact decomposition (sorted,
/// disjoint, as [`BoxRegion::curve_intervals`] produces it — or any
/// contiguous part of it), binary-searched. With it, [`box_scan`] visits
/// exactly what [`interval_scan`] visits for those intervals.
#[derive(Debug, Clone, Copy)]
pub struct IntervalSkipper<'a>(pub &'a [(CurveIndex, CurveIndex)]);

impl BoxSkipper for IntervalSkipper<'_> {
    fn span(&self) -> (CurveIndex, CurveIndex) {
        match (self.0.first(), self.0.last()) {
            (Some(&(lo, _)), Some(&(_, hi))) => (lo, hi),
            // Nothing can be inside: an empty span.
            _ => (1, 0),
        }
    }

    fn next_inside(&self, from: CurveIndex) -> Option<CurveIndex> {
        let i = self.0.partition_point(|&(_, hi)| hi < from);
        self.0.get(i).map(|&(lo, _)| lo.max(from))
    }
}

/// The skipper a box query on a given curve runs with — the one rule
/// every box read follows, decided once per query: Morton order skips by
/// BIGMIN ([`MortonSkipper`]: two corner encodes, nothing else
/// precomputed), every other curve by a binary search of the box's exact
/// curve intervals ([`IntervalSkipper`] over
/// [`BoxRegion::curve_intervals`]: `O(perimeter)` aligned cubes on Hilbert
/// and Gray, every cell of the box on the non-recursive curves).
///
/// A structure split by key range hands each part its
/// [`meeting`](Self::meeting) share, so the decomposition is computed
/// once and BIGMIN's corners are encoded once, however many parts and
/// levels the query reads.
#[derive(Debug, Clone)]
pub enum CurveSkipper<'a, const D: usize> {
    /// Morton order: BIGMIN on the box's corner codes.
    Morton(MortonSkipper<'a, D>),
    /// Any other curve: the box's decomposition, or the contiguous part
    /// of it a key range meets.
    Intervals(Cow<'a, [(CurveIndex, CurveIndex)]>),
}

impl<'a, const D: usize> CurveSkipper<'a, D> {
    /// The skipper for box `b` on `curve`; `b` should lie inside the grid
    /// ([`BoxRegion::clip_to_grid`]).
    pub fn new<C: SpaceFillingCurve<D>>(curve: &'a C, b: &BoxRegion<D>) -> Self {
        match curve.as_morton() {
            Some(z) => Self::Morton(MortonSkipper::new(z, b)),
            None => Self::Intervals(Cow::Owned(b.curve_intervals(curve))),
        }
    }

    /// How many curve intervals the box decomposed into — the paper's
    /// cluster count — or `None` under Morton order, which decomposes
    /// nothing.
    pub fn intervals(&self) -> Option<usize> {
        match self {
            Self::Morton(_) => None,
            Self::Intervals(iv) => Some(iv.len()),
        }
    }

    /// The share of the half-open key range `range`, or `None` when no
    /// key of the box lies in it: under Morton order the same skipper
    /// when the box's key span meets the range, otherwise the intervals
    /// meeting the range — a sub-slice, no endpoint clipped (a part holds
    /// no key outside its range, so an interval reaching past it finds
    /// nothing there).
    pub fn meeting(&self, range: &Range<CurveIndex>) -> Option<CurveSkipper<'_, D>> {
        let (lo, hi) = self.span();
        if range.is_empty() || range.start > hi || range.end <= lo {
            return None;
        }
        match self {
            Self::Morton(m) => Some(CurveSkipper::Morton(*m)),
            Self::Intervals(iv) => {
                let from = iv.partition_point(|&(_, hi)| hi < range.start);
                let to = iv.partition_point(|&(lo, _)| lo < range.end);
                (from < to).then(|| CurveSkipper::Intervals(Cow::Borrowed(&iv[from..to])))
            }
        }
    }
}

impl<const D: usize> BoxSkipper for CurveSkipper<'_, D> {
    fn span(&self) -> (CurveIndex, CurveIndex) {
        match self {
            Self::Morton(m) => m.span(),
            Self::Intervals(iv) => IntervalSkipper(iv).span(),
        }
    }

    fn next_inside(&self, from: CurveIndex) -> Option<CurveIndex> {
        match self {
            Self::Morton(m) => m.next_inside(from),
            Self::Intervals(iv) => IntervalSkipper(iv).next_inside(from),
        }
    }
}

/// The box-scan kernel: calls `visit` with the position, key and point of
/// every slot of the run whose point lies in `b`, in ascending position
/// order — block at a time, as the module docs describe. `skip` must
/// describe `b` on the curve the run is sorted by.
///
/// Work accounting: one seek for the initial landing and one per skipped
/// excursion; `scanned` counts the slots put through a filter (every slot
/// of a masked or bulk-visited block); a partial block whose mask comes
/// out empty never has its keys unpacked.
pub fn box_scan<const D: usize>(
    blocks: &BlockStore<D>,
    b: &BoxRegion<D>,
    skip: &impl BoxSkipper,
    stats: &mut QueryStats,
    mut visit: impl FnMut(usize, CurveIndex, Point<D>),
) {
    let (lo, hi) = skip.span();
    if blocks.is_empty() || lo > hi {
        return;
    }
    stats.seeks += 1;
    let mut dec = DecodedBlock::default();
    let last = blocks.blocks() - 1;
    // The key the walk last landed for, and whether it has met nothing
    // but disjoint blocks since (true at the start and after every skip,
    // and after one disjoint block in the middle of the walk).
    let mut landing = lo;
    let mut in_excursion = true;
    let mut block = blocks.seek_block(0, landing);
    // The fence is the block's smallest key: past `hi`, nothing is left.
    while blocks.fence(block) <= hi {
        if blocks.disjoint(block, b) {
            stats.blocks_pruned += 1;
            if block == last {
                break;
            }
            let next_fence = blocks.fence(block + 1);
            // A second disjoint block in a row whose successor starts
            // past the landing key: the excursion goes on, leave it.
            // Everything below the next fence is behind the walk.
            if in_excursion && next_fence > landing {
                let Some(key) = skip.next_inside(next_fence) else {
                    break;
                };
                stats.seeks += 1;
                landing = key;
                block = blocks.seek_block(block + 1, key);
            } else {
                in_excursion = true;
                block += 1;
            }
            continue;
        }
        in_excursion = false;
        stats.blocks_scanned += 1;
        stats.blocks_decoded += 1;
        let range = blocks.block_range(block);
        stats.scanned += range.len() as u64;
        blocks.decode_coords_into(block, &mut dec.coords);
        let mut hits = kernels::len_mask(range.len());
        // AABB ⊆ box ⇒ every slot matches: no filter pass at all.
        if !blocks.contained(block, b) {
            for axis in 0..D {
                hits &= kernels::axis_range_mask(
                    &dec.coords[axis],
                    b.lo().coord(axis),
                    b.hi().coord(axis),
                );
            }
        }
        if hits != 0 {
            blocks.decode_keys_into(block, &mut dec.keys);
            while hits != 0 {
                let j = hits.trailing_zeros() as usize;
                hits &= hits - 1;
                visit(range.start + j, dec.keys[j], dec.point(j));
            }
        }
        if block == last {
            break;
        }
        block += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{Grid, SpaceFillingCurve};

    fn store_of(keys: &[CurveIndex]) -> BlockStore<2> {
        let points = vec![Point::new([0, 0]); keys.len()];
        BlockStore::pack(keys, &points, |_| true)
    }

    #[test]
    fn gallop_agrees_with_partition_point() {
        let keys: Vec<CurveIndex> = vec![0, 2, 2, 5, 7, 9, 12, 12, 12, 40, 41, 100];
        let bs = store_of(&keys);
        for from in 0..=keys.len() {
            for target in 0..=101 {
                let want = from + keys[from..].partition_point(|&k| k < target);
                assert_eq!(gallop(&bs, from, target), want, "from={from} t={target}");
            }
        }
        assert_eq!(gallop(&store_of(&[]), 0, 7), 0);
    }

    #[test]
    fn interval_scan_visits_exactly_the_ranges() {
        let keys: Vec<CurveIndex> = vec![0, 2, 2, 5, 7, 9, 12];
        let bs = store_of(&keys);
        let mut stats = QueryStats::default();
        let mut hits = Vec::new();
        interval_scan(&bs, &[(2, 5), (9, 10)], &mut stats, |i, k, _| {
            assert_eq!(k, keys[i]);
            hits.push(i)
        });
        assert_eq!(hits, vec![1, 2, 3, 5]);
        assert_eq!(stats.seeks, 2);
        assert_eq!(stats.scanned, 4);
        // The galloped scan visits exactly what a filter over the key
        // column keeps, in one decode of the one block.
        let filtered: Vec<usize> = (0..keys.len())
            .filter(|&i| (2..=5).contains(&keys[i]) || (9..=10).contains(&keys[i]))
            .collect();
        assert_eq!(hits, filtered);
        assert_eq!(
            stats,
            QueryStats {
                seeks: 2,
                scanned: 4,
                blocks_decoded: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn interval_scan_spills_across_block_boundaries() {
        // One interval covering several whole blocks plus both tails.
        let keys: Vec<CurveIndex> = (0..300u128).map(|i| i * 2).collect();
        let bs = store_of(&keys);
        let mut stats = QueryStats::default();
        let mut hits = Vec::new();
        interval_scan(&bs, &[(31, 401)], &mut stats, |i, _, _| hits.push(i));
        let expected: Vec<usize> = (0..keys.len())
            .filter(|&i| (31..=401).contains(&keys[i]))
            .collect();
        assert_eq!(hits, expected);
        assert_eq!(stats.scanned, expected.len() as u64);
        assert!(stats.blocks_decoded > 0);
    }

    #[test]
    fn bigmin_scan_matches_filtering_the_key_range() {
        let grid = Grid::<2>::new(3).unwrap();
        let z = ZCurve::over(grid);
        // All cells, sorted by key (the full curve order).
        let points: Vec<Point<2>> = z.traverse().collect();
        let keys: Vec<CurveIndex> = (0..grid.n()).collect();
        let bs = BlockStore::pack(&keys, &points, |_| true);
        let b = BoxRegion::new(Point::new([2, 1]), Point::new([6, 5]));
        let mut stats = QueryStats::default();
        let mut hits = Vec::new();
        box_scan(
            &bs,
            &b,
            &MortonSkipper::new(&z, &b),
            &mut stats,
            |i, k, p| {
                assert_eq!(k, keys[i]);
                assert_eq!(p, points[i]);
                hits.push(i)
            },
        );
        let expected: Vec<usize> = (0..points.len())
            .filter(|&i| b.contains(&points[i]))
            .collect();
        assert_eq!(hits, expected);
    }

    #[test]
    fn full_grid_box_takes_the_contained_fast_path() {
        let grid = Grid::<2>::new(4).unwrap();
        let z = ZCurve::over(grid);
        let points: Vec<Point<2>> = z.traverse().collect();
        let keys: Vec<CurveIndex> = (0..grid.n()).collect();
        let bs = BlockStore::pack(&keys, &points, |_| true);
        let b = BoxRegion::new(Point::new([0, 0]), Point::new([15, 15]));
        let mut stats = QueryStats::default();
        let mut hits = 0usize;
        box_scan(
            &bs,
            &b,
            &MortonSkipper::new(&z, &b),
            &mut stats,
            |_, _, _| hits += 1,
        );
        assert_eq!(hits, 256);
        assert_eq!(stats.blocks_scanned, bs.blocks() as u64);
        assert_eq!(stats.blocks_pruned, 0);
        assert_eq!(stats.seeks, 1, "no jump needed inside a contained box");
        assert_eq!(
            stats.blocks_decoded,
            bs.blocks() as u64,
            "contained blocks decode exactly once, to report"
        );
    }
}
