//! The sorted key table: a one-dimensional stand-in for a B-tree over
//! curve keys (the "UB-tree lite" of the paper's database motivation).
//!
//! ## Layout: compressed columnar blocks
//!
//! Records are stored sorted by curve key in 64-slot compressed blocks
//! (see [`BlockStore`]): keys as frame-of-reference deltas from the
//! block's fence key, coordinates as offsets from the block's AABB
//! minimum, both bit-packed at per-block widths, and liveness as a
//! one-word-per-block tombstone bitmap. Payloads live in a **dense**
//! column holding only live slots, indexed through rank-select on the
//! bitmap — tombstones cost one bit, not a whole `Option<T>` slot.
//! Binary search and pruning decisions touch only the uncompressed
//! per-block metadata (fences, AABBs, bitmap); scans decode lazily, one
//! block at a time, through the branch-free kernels in
//! [`kernels`](crate::kernels).
//!
//! ## Bulk load: radix sort
//!
//! [`SfcIndex::build`] encodes all points through the curve's
//! [`index_of_batch`](SpaceFillingCurve::index_of_batch) kernel, then
//! sorts with an LSD radix sort over the `d·k` significant key bits —
//! `O(n · d·k/8)` with sequential memory traffic, instead of the
//! `O(n log n)` comparison sort with cache-hostile access the seed used.
//! The sort is stable, so records with equal keys keep input order,
//! exactly like the previous `sort_by_key`. Pre-sorted columns can skip
//! the sort entirely via [`SfcIndex::from_sorted`].

use crate::block::{BlockCursor, BlockStore};
use crate::knn::{knn_collect_run, verification_radius, KnnQuery};
use crate::query::QueryStats;
use crate::region::BoxRegion;
use crate::scan::{assert_sorted_disjoint, box_scan, interval_scan, CurveSkipper};
use sfc_core::{CurveIndex, Point, SpaceFillingCurve};

/// A borrowed view of one record of the index.
///
/// The index stores packed columns, not structs; `EntryRef` is the row
/// view handed out by lookups and queries (key and point decoded from
/// their blocks, payload borrowed from the dense column).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryRef<'a, const D: usize, T> {
    /// Curve key of the record's cell.
    pub key: CurveIndex,
    /// The record's cell.
    pub point: Point<D>,
    /// User payload.
    pub payload: &'a T,
}

/// A spatial index: records sorted by curve key in compressed columnar
/// blocks, queried through key-range navigation.
///
/// Any [`SpaceFillingCurve`] works, through one read per question:
/// [`query_box`](Self::query_box), [`query_intervals`](Self::query_intervals),
/// [`knn`](Self::knn) and [`point_lookup`](Self::point_lookup) — the
/// store's kernels over one run. Morton order skips box excursions by
/// BIGMIN, every other curve by the box's decomposition.
#[derive(Debug, Clone)]
pub struct SfcIndex<const D: usize, T, C: SpaceFillingCurve<D>> {
    curve: C,
    /// The compressed key/point columns plus all per-block metadata
    /// (fence keys, point AABBs, tombstone bitmap) — see [`BlockStore`].
    blocks: BlockStore<D>,
    /// Payloads of **live** slots only, in key order; a slot's payload
    /// index is [`BlockStore::rank`].
    payloads: Vec<T>,
}

/// An unsigned key type the radix sort can extract 8-bit digits from.
/// Narrowing the key to the smallest width that holds the grid's `d·k`
/// bits halves (or quarters) the memory each sorting pass moves — the
/// dominant cost at bulk-load scale.
trait RadixKey: Copy + Ord {
    fn digit(self, pass: u32) -> usize;
}

macro_rules! impl_radix_key {
    ($($t:ty),*) => {$(
        impl RadixKey for $t {
            #[inline]
            fn digit(self, pass: u32) -> usize {
                (self >> (pass * 8)) as usize & 0xFF
            }
        }
    )*};
}

impl_radix_key!(u32, u64, u128);

/// Stable LSD radix sort of `(key, original-index)` pairs, 8 bits per
/// pass, ping-pong between two buffers. A single prescan builds every
/// pass's histogram, and passes whose digit is constant across all keys
/// (the high digits of small grids) are skipped outright. Each executed
/// pass is one sequential read of the pair array — no random gathers.
fn radix_sort_pairs<K: RadixKey>(mut pairs: Vec<(K, u32)>, bits: u32) -> Vec<(K, u32)> {
    let n = pairs.len();
    let passes = bits.div_ceil(8);
    if n <= 1 || passes == 0 {
        return pairs;
    }
    let mut counts = vec![[0usize; 256]; passes as usize];
    for &(key, _) in &pairs {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[key.digit(pass as u32)] += 1;
        }
    }
    let mut scratch = vec![pairs[0]; n];
    for (pass, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut acc = 0usize;
        for (offset, &c) in offsets.iter_mut().zip(count.iter()) {
            *offset = acc;
            acc += c;
        }
        for &pair in &pairs {
            let digit = pair.0.digit(pass as u32);
            scratch[offsets[digit]] = pair;
            offsets[digit] += 1;
        }
        std::mem::swap(&mut pairs, &mut scratch);
    }
    pairs
}

/// Returns the stable permutation placing `keys` in non-decreasing order,
/// looking only at the low `bits` bits (the grid's `d·k`; everything above
/// is zero). Dispatches to the narrowest pair width that holds the keys.
fn radix_sort_perm(keys: &[CurveIndex], bits: u32) -> Vec<u32> {
    let n = keys.len();
    assert!(
        u32::try_from(n).is_ok(),
        "bulk load supports at most u32::MAX records"
    );
    // For tiny inputs the counting passes cost more than they save.
    if n < 64 {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by_key(|&i| keys[i as usize]);
        return perm;
    }
    if bits <= 32 {
        let pairs: Vec<(u32, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k as u32, i as u32))
            .collect();
        radix_sort_pairs(pairs, bits)
            .into_iter()
            .map(|(_, i)| i)
            .collect()
    } else if bits <= 64 {
        let pairs: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k as u64, i as u32))
            .collect();
        radix_sort_pairs(pairs, bits)
            .into_iter()
            .map(|(_, i)| i)
            .collect()
    } else {
        let pairs: Vec<(u128, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        radix_sort_pairs(pairs, bits)
            .into_iter()
            .map(|(_, i)| i)
            .collect()
    }
}

/// Sorted-column construction: encodes `points` through the curve's batch
/// kernel and radix-sorts all three columns by curve key, **stable** in
/// input order for equal keys. This is the bulk-load primitive shared by
/// [`SfcIndex::build`] and by multi-run structures that assemble their own
/// runs (e.g. an LSM-style store's initial load).
///
/// # Panics
/// Panics if any point lies outside the curve's grid or if `points` and
/// `payloads` have different lengths.
pub fn sort_columns<const D: usize, T, C: SpaceFillingCurve<D>>(
    curve: &C,
    points: Vec<Point<D>>,
    payloads: Vec<T>,
) -> (Vec<CurveIndex>, Vec<Point<D>>, Vec<T>) {
    let grid = curve.grid();
    assert_eq!(points.len(), payloads.len(), "column length mismatch");
    for point in &points {
        assert!(grid.contains(point), "record out of bounds: {point}");
    }
    let mut keys = Vec::new();
    curve.index_of_batch(&points, &mut keys);
    let bits = grid.k() * D as u32;
    let perm = radix_sort_perm(&keys, bits);
    let sorted_keys = perm.iter().map(|&i| keys[i as usize]).collect();
    let sorted_points = perm.iter().map(|&i| points[i as usize]).collect();
    let mut slots: Vec<Option<T>> = payloads.into_iter().map(Some).collect();
    let sorted_payloads = perm
        .iter()
        .map(|&i| {
            slots[i as usize]
                .take()
                .expect("radix permutation is a bijection")
        })
        .collect();
    (sorted_keys, sorted_points, sorted_payloads)
}

fn assert_sorted_columns<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    keys: &[CurveIndex],
    points: &[Point<D>],
) {
    assert_eq!(keys.len(), points.len(), "column length mismatch");
    assert!(
        keys.windows(2).all(|w| w[0] <= w[1]),
        "from_sorted requires keys in non-decreasing order"
    );
    debug_assert!(
        keys.iter()
            .zip(points.iter())
            .all(|(&key, &point)| curve.index_of(point) == key),
        "key column disagrees with curve encoding of the point column"
    );
}

impl<const D: usize, T, C: SpaceFillingCurve<D>> SfcIndex<D, T, C> {
    /// Builds the index from records: batch-encodes every point through
    /// the curve's [`index_of_batch`](SpaceFillingCurve::index_of_batch)
    /// kernel, then radix-sorts by curve key (see [`sort_columns`]),
    /// then packs the columns into compressed blocks. Stable in input
    /// order for equal keys, so multiple records per cell are supported.
    pub fn build(curve: C, records: impl IntoIterator<Item = (Point<D>, T)>) -> Self {
        let (points, payloads): (Vec<Point<D>>, Vec<T>) = records.into_iter().unzip();
        let (keys, points, payloads) = sort_columns(&curve, points, payloads);
        let blocks = BlockStore::pack(&keys, &points, |_| true);
        Self {
            curve,
            blocks,
            payloads,
        }
    }

    /// Builds the index from columns already sorted by key (e.g. the
    /// output of a previous [`build`](Self::build), a merge of sorted
    /// runs, or an external bulk loader). Skips encoding and sorting;
    /// only the block packing pass runs.
    ///
    /// # Panics
    /// Panics if the columns have different lengths or `keys` is not
    /// sorted; in debug builds also verifies every key matches its point.
    pub fn from_sorted(
        curve: C,
        keys: Vec<CurveIndex>,
        points: Vec<Point<D>>,
        payloads: Vec<T>,
    ) -> Self {
        assert_eq!(keys.len(), payloads.len(), "column length mismatch");
        assert_sorted_columns(&curve, &keys, &points);
        let blocks = BlockStore::pack(&keys, &points, |_| true);
        Self {
            curve,
            blocks,
            payloads,
        }
    }

    /// Builds a *versioned* run from columns already sorted by key, where
    /// a `None` slot is a tombstone. Tombstones are stored as cleared
    /// bits in the block bitmap — the dense payload column holds only the
    /// `Some` payloads — which is what lets multi-run structures skip
    /// all-dead blocks during candidate collection and pay one bit (not
    /// a discriminant word) per deleted slot. This is the constructor
    /// every LSM-style run goes through.
    ///
    /// # Panics
    /// Panics under the same conditions as [`from_sorted`](Self::from_sorted).
    pub fn from_sorted_versions(
        curve: C,
        keys: Vec<CurveIndex>,
        points: Vec<Point<D>>,
        slots: Vec<Option<T>>,
    ) -> Self {
        assert_eq!(keys.len(), slots.len(), "column length mismatch");
        assert_sorted_columns(&curve, &keys, &points);
        let blocks = BlockStore::pack(&keys, &points, |slot| slots[slot].is_some());
        let payloads: Vec<T> = slots.into_iter().flatten().collect();
        Self {
            curve,
            blocks,
            payloads,
        }
    }

    /// Assembles an index from a [`BlockStore`] reloaded by
    /// [`BlockStore::read_from`] plus its dense payload column. Nothing is
    /// re-packed. The caller vouches that `blocks` holds the curve's keys
    /// for its points (a loader checks that before it gets here).
    ///
    /// # Panics
    /// Panics unless there is exactly one payload per live slot.
    pub fn from_parts(curve: C, blocks: BlockStore<D>, payloads: Vec<T>) -> Self {
        assert_eq!(
            payloads.len(),
            blocks.live_len(),
            "one payload per live slot"
        );
        Self {
            curve,
            blocks,
            payloads,
        }
    }

    /// The curve backing this index.
    pub fn curve(&self) -> &C {
        &self.curve
    }

    /// The compressed block store: packed key/point columns plus the
    /// per-block metadata (fence keys, point AABBs, tombstone bitmap)
    /// every pruning decision runs on.
    pub fn blocks(&self) -> &BlockStore<D> {
        &self.blocks
    }

    /// The dense payload column: payloads of live slots only, in key
    /// order. Slot `i`'s payload sits at [`BlockStore::rank`]`(i)` iff
    /// the slot is live.
    pub fn payloads(&self) -> &[T] {
        &self.payloads
    }

    /// Decodes the key at slot `i` (single-field extraction).
    #[inline]
    pub fn key_at(&self, i: usize) -> CurveIndex {
        self.blocks.key_at(i)
    }

    /// Decodes the point at slot `i` (single-field extraction per axis).
    #[inline]
    pub fn point_at(&self, i: usize) -> Point<D> {
        self.blocks.point_at(i)
    }

    /// `true` iff slot `i` holds a live payload (bitmap test).
    #[inline]
    pub fn is_live_slot(&self, i: usize) -> bool {
        self.blocks.is_live_slot(i)
    }

    /// The payload at slot `i`, or `None` for a tombstone. Rank-select on
    /// the block bitmap indexes the dense payload column.
    #[inline]
    pub fn payload_at(&self, i: usize) -> Option<&T> {
        self.blocks
            .is_live_slot(i)
            .then(|| &self.payloads[self.blocks.rank(i)])
    }

    /// Decodes the whole key column (test / interop helper — queries
    /// never materialize it).
    pub fn decode_keys(&self) -> Vec<CurveIndex> {
        let mut cur = BlockCursor::new(&self.blocks);
        (0..self.len()).map(|i| cur.key(i)).collect()
    }

    /// Decodes the whole point column (test / interop helper).
    pub fn decode_points(&self) -> Vec<Point<D>> {
        let mut cur = BlockCursor::new(&self.blocks);
        (0..self.len()).map(|i| cur.point(i)).collect()
    }

    /// The record at slot `i` of the key order.
    ///
    /// # Panics
    /// Panics if the slot is a tombstone (versioned runs are read through
    /// [`payload_at`](Self::payload_at) instead).
    pub fn entry(&self, i: usize) -> EntryRef<'_, D, T> {
        EntryRef {
            key: self.blocks.key_at(i),
            point: self.blocks.point_at(i),
            payload: self
                .payload_at(i)
                .expect("entry() reads live slots; tombstones go through payload_at()"),
        }
    }

    /// All records in key order (the successor of the old `entries()`
    /// slice access). Panics on tombstone slots like [`entry`](Self::entry).
    pub fn entries(&self) -> impl ExactSizeIterator<Item = EntryRef<'_, D, T>> + '_ {
        (0..self.len()).map(|i| self.entry(i))
    }

    /// Number of slots, tombstones included (a versioned run's physical
    /// length).
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Number of live (non-tombstone) records.
    pub fn live_len(&self) -> usize {
        self.payloads.len()
    }

    /// `true` iff the index holds no slots.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Bytes of heap memory held by the compressed columns, metadata, and
    /// the dense payload column.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.heap_bytes() + self.payloads.len() * std::mem::size_of::<T>()
    }

    /// First slot with key ≥ `key`: a fence-array search followed by one
    /// in-block search over packed fields — two small, cache-resident
    /// binary searches instead of one whole-column search (see
    /// [`BlockStore::lower_bound`]).
    pub fn lower_bound(&self, key: CurveIndex) -> usize {
        self.blocks.lower_bound(key)
    }

    /// Position of the first slot with exactly this key, or `None` if the
    /// key is absent: the run's key filter first
    /// ([`BlockStore::may_contain`] — most absent keys end there), then
    /// the fence search of [`lower_bound`](Self::lower_bound).
    pub fn find_key(&self, key: CurveIndex) -> Option<usize> {
        if !self.blocks.may_contain(key) {
            return None;
        }
        let i = self.lower_bound(key);
        (i < self.len() && self.blocks.key_at(i) == key).then_some(i)
    }

    /// All live records at exactly the given cell, in input order: the
    /// cell's key as a one-key [`query_intervals`](Self::query_intervals).
    /// A point outside the grid holds nothing.
    pub fn point_lookup(&self, p: Point<D>) -> impl ExactSizeIterator<Item = EntryRef<'_, D, T>> {
        let hits = match self.curve.grid().contains(&p) {
            true => {
                let key = self.curve.index_of(p);
                self.query_intervals(&[(key, key)]).0
            }
            false => Vec::new(),
        };
        hits.into_iter()
    }

    /// A scan's visitor that keeps every live slot it is shown as an
    /// entry of `out` (tombstones are skipped).
    fn live_into<'s, 'o>(
        &'s self,
        out: &'o mut Vec<EntryRef<'s, D, T>>,
    ) -> impl FnMut(usize, CurveIndex, Point<D>) + use<'s, 'o, D, T, C> {
        move |i, key, point| {
            if let Some(payload) = self.payload_at(i) {
                out.push(EntryRef {
                    key,
                    point,
                    payload,
                });
            }
        }
    }

    /// Every live record inside box `b`, in key order — the store's box
    /// read over one run. The box is clipped to the grid
    /// ([`BoxRegion::clip_to_grid`]) and run through the block-at-a-time
    /// kernel ([`box_scan`]), which leaves an excursion out of the box by
    /// BIGMIN on Morton order and by a binary search of the box's exact
    /// decomposition on every other curve ([`CurveSkipper`]).
    pub fn query_box(&self, b: &BoxRegion<D>) -> (Vec<EntryRef<'_, D, T>>, QueryStats) {
        let mut out = Vec::new();
        let mut stats = QueryStats::default();
        if let Some(b) = &b.clip_to_grid(self.curve.grid()) {
            let skip = CurveSkipper::new(&self.curve, b);
            box_scan(&self.blocks, b, &skip, &mut stats, self.live_into(&mut out));
        }
        stats.reported = out.len() as u64;
        (out, stats)
    }

    /// Every live record whose curve key lies inside the given inclusive
    /// intervals, in key order ([`interval_scan`]: one galloped seek per
    /// interval, zero overscan). `query_intervals(&b.curve_intervals(
    /// index.curve()))` answers box `b` by the raw interval walk — the
    /// differential twin of [`query_box`](Self::query_box).
    ///
    /// # Panics
    /// Panics unless the intervals are sorted ascending, disjoint and
    /// each `lo <= hi` ([`assert_sorted_disjoint`]).
    pub fn query_intervals(
        &self,
        intervals: &[(CurveIndex, CurveIndex)],
    ) -> (Vec<EntryRef<'_, D, T>>, QueryStats) {
        assert_sorted_disjoint(intervals);
        let mut out = Vec::new();
        let mut stats = QueryStats::default();
        let visit = self.live_into(&mut out);
        interval_scan(&self.blocks, intervals, &mut stats, visit);
        stats.reported = out.len() as u64;
        (out, stats)
    }

    /// Exact k-nearest-neighbor query (Euclidean) — the store's kNN read
    /// over one run. The candidate walk ([`knn_collect_run`]) brackets at
    /// least `k` live records on each side of the query's key, covering
    /// at least `window` slots per side; their k-th best distance bounds
    /// the verification radius, and the Chebyshev ball of that radius
    /// (which holds the Euclidean one) is a [`query_box`](Self::query_box)
    /// whose hits are ranked by `(distance, key)` and cut at `k`. The
    /// returned stats sum both halves: a lower-stretch curve yields a
    /// smaller verification ball and less work.
    ///
    /// # Panics
    /// Panics if `k == 0` or `q` lies outside the curve's grid.
    pub fn knn(
        &self,
        q: Point<D>,
        k: usize,
        window: usize,
    ) -> (Vec<EntryRef<'_, D, T>>, QueryStats) {
        assert!(k >= 1, "k must be at least 1");
        let grid = self.curve.grid();
        assert!(grid.contains(&q), "query point out of bounds: {q}");
        if self.live_len() == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let query = KnnQuery {
            q,
            key: self.curve.index_of(q),
            k,
            window,
        };
        let mut stats = QueryStats::default();
        let radius = verification_radius(grid, k, |heap| {
            knn_collect_run(&self.blocks, &query, |_| false, heap, &mut stats)
        });
        let (mut nearest, ball_stats) = self.query_box(&BoxRegion::chebyshev_ball(grid, q, radius));
        stats.add(&ball_stats);
        nearest.sort_by_key(|e| (q.euclidean_sq(&e.point), e.key));
        nearest.truncate(k);
        stats.reported = nearest.len() as u64;
        (nearest, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sfc_core::{Grid, HilbertCurve, ZCurve};

    fn random_records<const D: usize>(
        grid: Grid<D>,
        count: usize,
        seed: u64,
    ) -> Vec<(Point<D>, usize)> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|i| (grid.random_cell(&mut rng), i))
            .collect()
    }

    /// The live records inside `b`, by a linear filter over the slots.
    fn in_box<'a, const D: usize, T, C: SpaceFillingCurve<D>>(
        idx: &'a SfcIndex<D, T, C>,
        b: &BoxRegion<D>,
    ) -> Vec<EntryRef<'a, D, T>> {
        (0..idx.len())
            .filter(|&i| idx.is_live_slot(i))
            .map(|i| idx.entry(i))
            .filter(|e| b.contains(&e.point))
            .collect()
    }

    /// The `k` nearest live records to `q`, by a linear scan ranked by
    /// `(distance, key)`.
    fn nearest<'a, const D: usize, T, C: SpaceFillingCurve<D>>(
        idx: &'a SfcIndex<D, T, C>,
        q: Point<D>,
        k: usize,
    ) -> Vec<EntryRef<'a, D, T>> {
        let mut all: Vec<_> = (0..idx.len())
            .filter(|&i| idx.is_live_slot(i))
            .map(|i| idx.entry(i))
            .collect();
        all.sort_by_key(|e| (q.euclidean_sq(&e.point), e.key));
        all.truncate(k);
        all
    }

    #[test]
    fn build_sorts_by_key() {
        let grid = Grid::<2>::new(3).unwrap();
        let idx = SfcIndex::build(ZCurve::over(grid), random_records(grid, 100, 1));
        assert_eq!(idx.len(), 100);
        for w in idx.decode_keys().windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Columns are consistent rows.
        for e in idx.entries() {
            assert_eq!(idx.curve().index_of(e.point), e.key);
        }
    }

    #[test]
    fn radix_build_matches_comparison_sort_including_stability() {
        // The seed's build used a stable `sort_by_key`; the radix bulk
        // load must produce the identical entry order, duplicates
        // included.
        let grid = Grid::<2>::new(4).unwrap();
        let mut records = random_records(grid, 500, 42);
        // Force many duplicate keys.
        for i in 0..200 {
            records.push((records[i].0, 10_000 + i));
        }
        let idx = SfcIndex::build(ZCurve::over(grid), records.clone());
        let mut expected: Vec<(CurveIndex, usize)> = records
            .iter()
            .map(|&(p, payload)| (ZCurve::over(grid).index_of(p), payload))
            .collect();
        expected.sort_by_key(|&(key, _)| key); // stable
        let got: Vec<(CurveIndex, usize)> = idx.entries().map(|e| (e.key, *e.payload)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn from_sorted_round_trips_build_columns() {
        let grid = Grid::<2>::new(3).unwrap();
        let idx = SfcIndex::build(ZCurve::over(grid), random_records(grid, 80, 3));
        let rebuilt = SfcIndex::from_sorted(
            ZCurve::over(grid),
            idx.decode_keys(),
            idx.decode_points(),
            idx.payloads().to_vec(),
        );
        assert_eq!(rebuilt.len(), idx.len());
        assert_eq!(rebuilt.decode_keys(), idx.decode_keys());
        assert_eq!(rebuilt.decode_points(), idx.decode_points());
        let bx = BoxRegion::new(Point::new([1, 1]), Point::new([5, 6]));
        let (a, _) = idx.query_box(&bx);
        let (b, _) = rebuilt.query_box(&bx);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn versioned_runs_store_payloads_densely() {
        let grid = Grid::<2>::new(3).unwrap();
        let curve = ZCurve::over(grid);
        let mut rows: Vec<(CurveIndex, Point<2>)> = (0..100u32)
            .map(|i| {
                let p = Point::new([i % 8, (i / 8) % 8]);
                (curve.index_of(p), p)
            })
            .collect();
        rows.sort_by_key(|&(k, _)| k);
        let keys: Vec<CurveIndex> = rows.iter().map(|&(k, _)| k).collect();
        let points: Vec<Point<2>> = rows.iter().map(|&(_, p)| p).collect();
        let slots: Vec<Option<u64>> = (0..100u64).map(|i| (i % 3 != 0).then_some(i)).collect();
        let run = SfcIndex::from_sorted_versions(curve, keys.clone(), points.clone(), slots);
        assert_eq!(run.len(), 100);
        assert_eq!(run.live_len(), (0..100).filter(|i| i % 3 != 0).count());
        for i in 0..100usize {
            assert_eq!(run.is_live_slot(i), i % 3 != 0);
            assert_eq!(run.key_at(i), keys[i]);
            assert_eq!(run.point_at(i), points[i]);
            match run.payload_at(i) {
                Some(&v) => assert_eq!(v, i as u64),
                None => assert_eq!(i % 3, 0),
            }
        }
    }

    #[test]
    fn a_box_reaching_past_the_grid_is_clipped() {
        // Every cell of a 32×32 grid holds a record; each box reaches past
        // the grid (the last one lies wholly outside it). Unclipped, BIGMIN
        // found 5 of the first box's 357 cells.
        let grid = Grid::<2>::new(5).unwrap();
        let records: Vec<_> = grid.cells().zip(0usize..).collect();
        let z = SfcIndex::build(ZCurve::over(grid), records.clone());
        let h = SfcIndex::build(HilbertCurve::over(grid), records);
        let points = |hits: Vec<EntryRef<'_, 2, usize>>| {
            let mut points: Vec<Point<2>> = hits.iter().map(|e| e.point).collect();
            points.sort_unstable_by_key(|p| p.coords());
            points
        };
        for (lo, hi) in [
            ([11, 15], [36, 38]),
            ([5, 21], [98, 100]),
            ([0, 5], [31, 1 << 20]),
            ([7, 0], [u32::MAX, 9]),
            ([3, 32], [40, 40]),
        ] {
            let b = BoxRegion::new(Point::new(lo), Point::new(hi));
            let truth = points(in_box(&z, &b));
            assert_eq!(points(z.query_box(&b).0), truth, "Z BIGMIN {b:?}");
            let clipped = b.clip_to_grid(grid).map(|b| b.curve_intervals(z.curve()));
            let by_intervals = z.query_intervals(clipped.as_deref().unwrap_or_default());
            assert_eq!(points(by_intervals.0), truth, "Z intervals {b:?}");
            assert_eq!(points(h.query_box(&b).0), truth, "Hilbert {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_sorted_rejects_unsorted_keys() {
        let grid = Grid::<2>::new(2).unwrap();
        let points = vec![Point::new([1, 0]), Point::new([0, 0])];
        let curve = ZCurve::over(grid);
        let keys: Vec<CurveIndex> = points.iter().map(|&p| curve.index_of(p)).collect();
        let _ = SfcIndex::from_sorted(curve, keys, points, vec![0usize, 1]);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint: (9, 12) then (2, 5)")]
    fn query_intervals_rejects_unsorted_intervals() {
        let grid = Grid::<2>::new(2).unwrap();
        let idx = SfcIndex::build(ZCurve::over(grid), random_records(grid, 10, 1));
        idx.query_intervals(&[(9, 12), (2, 5)]);
    }

    /// The raw-range read on well-formed lists: sorted disjoint ranges
    /// report each key once, an empty list nothing, and a range past the
    /// last key is clipped.
    #[test]
    fn query_intervals_accepts_sorted_disjoint_lists() {
        let idx = full_grid(ZCurve::over(Grid::<2>::new(4).unwrap()));
        let keys = |intervals: &[(CurveIndex, CurveIndex)]| -> Vec<CurveIndex> {
            idx.query_intervals(intervals)
                .0
                .iter()
                .map(|e| e.key)
                .collect()
        };
        let want: Vec<CurveIndex> = (0..=3).chain(100..=103).chain(200..=203).collect();
        assert_eq!(keys(&[(0, 3), (100, 103), (200, 203)]), want);
        assert_eq!(keys(&[(0, 3), (4, 4)]), [0, 1, 2, 3, 4], "adjacent");
        assert!(keys(&[]).is_empty());
        assert_eq!(keys(&[(250, 10_000)]), [250, 251, 252, 253, 254, 255]);
        assert!(keys(&[(256, 300)]).is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint: (0, 10) then (5, 12)")]
    fn query_intervals_rejects_an_overlapping_list() {
        full_grid(ZCurve::over(Grid::<2>::new(4).unwrap())).query_intervals(&[(0, 10), (5, 12)]);
    }

    #[test]
    #[should_panic(expected = "inverted interval: (9, 3)")]
    fn query_intervals_rejects_an_inverted_interval() {
        full_grid(ZCurve::over(Grid::<2>::new(4).unwrap())).query_intervals(&[(0, 1), (9, 3)]);
    }

    #[test]
    fn point_lookup_finds_all_duplicates() {
        let grid = Grid::<2>::new(2).unwrap();
        let p = Point::new([1, 2]);
        let records = vec![(p, 10usize), (Point::new([0, 0]), 20), (p, 30)];
        let idx = SfcIndex::build(ZCurve::over(grid), records);
        let hits = idx.point_lookup(p);
        assert_eq!(hits.len(), 2);
        let payloads: Vec<usize> = hits.map(|e| *e.payload).collect();
        assert!(payloads.contains(&10) && payloads.contains(&30));
        assert_eq!(idx.point_lookup(Point::new([3, 3])).len(), 0);
    }

    #[test]
    fn all_three_box_strategies_agree() {
        let grid = Grid::<2>::new(3).unwrap();
        let idx = SfcIndex::build(ZCurve::over(grid), random_records(grid, 200, 2));
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let a = grid.random_cell(&mut rng);
            let b = grid.random_cell(&mut rng);
            let lo = Point::new([a.coord(0).min(b.coord(0)), a.coord(1).min(b.coord(1))]);
            let hi = Point::new([a.coord(0).max(b.coord(0)), a.coord(1).max(b.coord(1))]);
            let bx = BoxRegion::new(lo, hi);
            let full = in_box(&idx, &bx);
            let fs_reported = full.len() as u64;
            let (ivals, is) = idx.query_intervals(&bx.curve_intervals(idx.curve()));
            let (bm, bs) = idx.query_box(&bx);
            let key = |v: &Vec<EntryRef<2, usize>>| {
                let mut ks: Vec<(u128, usize)> = v.iter().map(|e| (e.key, *e.payload)).collect();
                ks.sort();
                ks
            };
            assert_eq!(key(&full), key(&ivals));
            assert_eq!(key(&full), key(&bm));
            assert_eq!(fs_reported, is.reported);
            assert_eq!(fs_reported, bs.reported);
            // Interval strategy never scans non-matching entries.
            assert_eq!(is.scanned, is.reported);
        }
    }

    #[test]
    fn bigmin_strategy_beats_full_scan_on_small_boxes() {
        let grid = Grid::<2>::new(4).unwrap(); // 16×16
        let idx = SfcIndex::build(ZCurve::over(grid), random_records(grid, 1_000, 4));
        let bx = BoxRegion::new(Point::new([3, 3]), Point::new([6, 6]));
        let full_hits = in_box(&idx, &bx);
        // A full scan decodes every block once.
        let full_decoded = idx.blocks().blocks() as u64;
        let (bm_hits, bm) = idx.query_box(&bx);
        assert_eq!(bm_hits, full_hits);
        // Work in the unit that costs time — blocks through the unpack
        // kernels — is at most a quarter of the full scan's.
        assert!(
            bm.blocks_decoded * 4 <= full_decoded,
            "bigmin decoded {} blocks vs full scan's {}",
            bm.blocks_decoded,
            full_decoded
        );
    }

    #[test]
    fn interval_strategy_works_for_hilbert() {
        let grid = Grid::<2>::new(3).unwrap();
        let idx = SfcIndex::build(HilbertCurve::over(grid), random_records(grid, 150, 5));
        let bx = BoxRegion::new(Point::new([1, 1]), Point::new([5, 4]));
        let (hits, stats) = idx.query_intervals(&bx.curve_intervals(idx.curve()));
        let full = in_box(&idx, &bx);
        assert_eq!(hits.len(), full.len());
        assert_eq!(stats.overscan(), 1.0);
        for e in &hits {
            assert!(bx.contains(&e.point));
        }
        assert_eq!(idx.query_box(&bx).0, hits);
    }

    #[test]
    fn knn_matches_linear_scan_for_every_curve() {
        let grid = Grid::<2>::new(3).unwrap();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let records = random_records(grid, 120, 7);
        macro_rules! check_curve {
            ($curve:expr) => {
                let idx = SfcIndex::build($curve, records.clone());
                for _ in 0..30 {
                    let q = grid.random_cell(&mut rng);
                    for k in [1usize, 3, 8] {
                        let (got, stats) = idx.knn(q, k, 4);
                        let want = nearest(&idx, q, k);
                        let gd: Vec<u128> = got.iter().map(|e| q.euclidean_sq(&e.point)).collect();
                        let wd: Vec<u128> = want.iter().map(|e| q.euclidean_sq(&e.point)).collect();
                        assert_eq!(gd, wd, "k={k} q={q}");
                        assert_eq!(stats.reported, k.min(records.len()) as u64);
                    }
                }
            };
        }
        check_curve!(ZCurve::over(grid));
        check_curve!(HilbertCurve::over(grid));
        check_curve!(sfc_core::SimpleCurve::over(grid));
    }

    #[test]
    fn knn_with_fewer_records_than_k() {
        let grid = Grid::<2>::new(2).unwrap();
        let idx = SfcIndex::build(ZCurve::over(grid), vec![(Point::new([1, 1]), 0usize)]);
        let (got, _) = idx.knn(Point::new([0, 0]), 5, 2);
        assert_eq!(got.len(), 1);
        let empty: SfcIndex<2, usize, _> = SfcIndex::build(ZCurve::over(grid), vec![]);
        let (none, _) = empty.knn(Point::new([0, 0]), 3, 2);
        assert!(none.is_empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn lower_stretch_curve_needs_no_more_knn_work() {
        // The punchline experiment in miniature: average scanned entries for
        // kNN under Hilbert should not exceed the simple curve's (slab
        // layouts make distant cells key-adjacent).
        let grid = Grid::<2>::new(4).unwrap();
        let records = random_records(grid, 400, 8);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let queries: Vec<Point<2>> = (0..40).map(|_| grid.random_cell(&mut rng)).collect();
        let hilbert = SfcIndex::build(HilbertCurve::over(grid), records.clone());
        let simple = SfcIndex::build(sfc_core::SimpleCurve::over(grid), records.clone());
        let th = queries
            .iter()
            .map(|q| hilbert.knn(*q, 5, 8).1.scanned)
            .sum::<u64>();
        let ts = queries
            .iter()
            .map(|q| simple.knn(*q, 5, 8).1.scanned)
            .sum::<u64>();
        assert!(th <= ts, "hilbert {th} > simple {ts}");
    }

    /// Every cell of a 16×16 grid holds one record.
    fn full_grid<C: SpaceFillingCurve<2>>(curve: C) -> SfcIndex<2, usize, C> {
        let records: Vec<_> = curve.grid().cells().zip(0usize..).collect();
        SfcIndex::build(curve, records)
    }

    #[test]
    fn point_lookup_outside_the_grid_finds_nothing() {
        let grid = Grid::<2>::new(4).unwrap();
        let z = full_grid(ZCurve::over(grid));
        let h = full_grid(HilbertCurve::over(grid));
        for p in [
            Point::new([40, 40]),
            Point::new([16, 0]),
            Point::new([3, 16]),
        ] {
            assert_eq!(z.point_lookup(p).len(), 0, "Z {p}");
            assert_eq!(h.point_lookup(p).len(), 0, "Hilbert {p}");
        }
        assert_eq!(h.point_lookup(Point::new([15, 15])).len(), 1);
    }

    #[test]
    #[should_panic(expected = "query point out of bounds: (40, 40)")]
    fn knn_rejects_a_query_point_outside_the_grid_z() {
        full_grid(ZCurve::over(Grid::<2>::new(4).unwrap())).knn(Point::new([40, 40]), 3, 2);
    }

    #[test]
    #[should_panic(expected = "query point out of bounds: (40, 40)")]
    fn knn_rejects_a_query_point_outside_the_grid_hilbert() {
        full_grid(HilbertCurve::over(Grid::<2>::new(4).unwrap())).knn(Point::new([40, 40]), 3, 2);
    }

    /// A versioned run with every third slot dead reads like its live
    /// slots: every read skips the tombstones, on Z and on Hilbert.
    #[test]
    fn every_read_skips_tombstones() {
        let grid = Grid::<2>::new(4).unwrap();
        macro_rules! check_curve {
            ($curve:expr) => {
                let curve = $curve;
                let mut rows: Vec<(CurveIndex, Point<2>)> = random_records(grid, 600, 12)
                    .into_iter()
                    .map(|(p, _)| (curve.index_of(p), p))
                    .collect();
                rows.sort_by_key(|&(key, _)| key);
                let (keys, points): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
                let slots = (0..keys.len()).map(|i| (i % 3 != 0).then_some(i)).collect();
                let run = SfcIndex::from_sorted_versions(curve, keys, points.clone(), slots);
                let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
                for _ in 0..40 {
                    let a = grid.random_cell(&mut rng);
                    let c = grid.random_cell(&mut rng);
                    let bx = BoxRegion::new(
                        Point::new([a.coord(0).min(c.coord(0)), a.coord(1).min(c.coord(1))]),
                        Point::new([a.coord(0).max(c.coord(0)), a.coord(1).max(c.coord(1))]),
                    );
                    let want = in_box(&run, &bx);
                    assert_eq!(run.query_box(&bx).0, want, "box {bx:?}");
                    let intervals = bx.curve_intervals(run.curve());
                    assert_eq!(run.query_intervals(&intervals).0, want, "intervals {bx:?}");
                    let q = a;
                    for k in [1usize, 4, 9] {
                        let (got, stats) = run.knn(q, k, 3);
                        assert_eq!(got, nearest(&run, q, k), "knn k={k} q={q}");
                        assert_eq!(stats.reported, k as u64);
                    }
                    let at: Vec<usize> = run.point_lookup(q).map(|e| *e.payload).collect();
                    let live_at: Vec<usize> = (0..run.len())
                        .filter(|&i| i % 3 != 0 && points[i] == q)
                        .collect();
                    assert_eq!(at, live_at, "point_lookup {q}");
                }
            };
        }
        check_curve!(ZCurve::over(grid));
        check_curve!(HilbertCurve::over(grid));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn build_rejects_out_of_bounds_records() {
        let grid = Grid::<2>::new(1).unwrap();
        SfcIndex::build(ZCurve::over(grid), vec![(Point::new([5, 5]), 0usize)]);
    }

    #[test]
    fn compressed_format_shrinks_the_uncompressed_footprint() {
        // The headline claim in miniature: packed blocks + dense payloads
        // cost well under half the naive SoA bytes.
        let grid = Grid::<2>::new(6).unwrap(); // 64×64
        let idx = SfcIndex::build(ZCurve::over(grid), random_records(grid, 4_000, 11));
        let naive = idx.len()
            * (std::mem::size_of::<CurveIndex>()
                + std::mem::size_of::<Point<2>>()
                + std::mem::size_of::<usize>());
        assert!(
            idx.heap_bytes() * 2 <= naive,
            "compressed {} vs naive {naive}",
            idx.heap_bytes()
        );
    }

    #[test]
    fn radix_sort_perm_is_stable_and_correct_across_widths() {
        // Exercise multi-pass keys (> 8 bits) and the tiny-input fallback.
        for n in [0usize, 1, 5, 63, 64, 65, 1000] {
            let keys: Vec<CurveIndex> = (0..n)
                .map(|i| ((i as u128).wrapping_mul(0x9E37_79B9) >> 3) % 1021)
                .collect();
            let perm = radix_sort_perm(&keys, 32);
            assert_eq!(perm.len(), n);
            let mut seen = vec![false; n];
            for &i in &perm {
                assert!(!seen[i as usize], "duplicate index {i}");
                seen[i as usize] = true;
            }
            for w in perm.windows(2) {
                let (a, b) = (w[0] as usize, w[1] as usize);
                assert!(keys[a] <= keys[b], "order violated");
                if keys[a] == keys[b] {
                    assert!(a < b, "stability violated for equal keys");
                }
            }
        }
    }
}
