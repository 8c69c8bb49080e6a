//! The shared multi-level query engine, the one level merge, and how a
//! box query skips.
//!
//! Every read merges one shard's levels: the captured memtable image over
//! a stack of immutable runs. Newest level wins, tombstones suppress
//! older versions, per-level work sums into one [`QueryStats`] — the
//! algorithm lives here once, in [`LevelsView::scan`], expressed over a
//! [`LevelsView`]: an optional borrowed memtable plus a slice of
//! `Arc`-shared runs, borrowed from one shard's capture
//! (`snapshot.rs`).
//!
//! ## The level merge
//!
//! Whatever walks a shard's levels whole walks them through one
//! newest-wins k-way merge, [`LevelsView::versions`]: every key some
//! level holds, once, at the version of the newest level holding it,
//! tombstones included. Runs are read block by block through
//! [`BlockCursor`], borrowed from the published stack — nothing is copied
//! out of its `Arc`. [`LevelsView::iter`] is that merge with tombstones
//! filtered out (snapshot iteration, `to_index`, a rebalance's
//! migration); [`merge_runs`] is the same merge over runs alone, cloning
//! each surviving payload (a flush's tier merges and `compact`). Every
//! stream of versions becomes a run through one builder,
//! [`RunColumns`].
//!
//! ## The streamed read path
//!
//! A store usually holds one huge bottom run and a few small recent
//! levels, and nearly every hit of a query lives in the bottom run. So a
//! read materialises only the small part: the memtable and the upper runs
//! are scanned newest to oldest into a reused scratch (the [`Overlay`]),
//! each merged newest-wins against the levels above it *while its scan
//! visits it*; the oldest run then streams through that same merge
//! straight into the caller's [`HitSink`] — a live query's sink clones
//! each hit into an owned entry, a snapshot's keeps the borrowed one, kNN
//! ranks the few a verification ball holds. No level's hits are collected
//! twice, the bottom run's are never collected at all, and shard results
//! append in curve order because the sink is handed from shard to shard.
//!
//! ## How a box query skips
//!
//! Every level of a box query runs the same block-at-a-time kernel
//! ([`box_scan`] — prune, bulk-visit or mask one whole block from its
//! summary; see `sfc_index::scan`). There is no choice left to make per
//! level: the kernel's one parameter, the *skipper* that leaves an
//! excursion out of the box, follows from the curve, and a level is
//! skipped outright when its summary rules the box out:
//!
//! 1. **Skipper, from the curve** — one [`CurveSkipper`], built once per
//!    query at the router, the type a static [`SfcIndex`] box query builds
//!    too. Morton order skips by BIGMIN: nothing is precomputed, a box
//!    costs two corner encodes. Every other curve decomposes the box
//!    (`O(perimeter)` aligned cubes on Hilbert and Gray; every cell of the
//!    box on the non-recursive curves) and skips by a binary search of
//!    that sorted list. Each shard is handed its
//!    [`meeting`](CurveSkipper::meeting) share — the part of the list
//!    that meets its range, or the BIGMIN skipper itself — and every
//!    level of it, the memtable included, walks with that share.
//! 2. **Prune.** A run whose key range misses the box's curve span, or
//!    whose block-summary AABB misses the box outright, is skipped
//!    wholesale (counted in [`QueryStats::blocks_pruned`]).
//!
//! That is all of it, on evidence. Earlier planners also decomposed small
//! Morton boxes (≤ 64 cells; kNN balls ≤ 256 cells) and chose per run
//! between walking the intervals and BIGMIN-scanning from a
//! slots-in-span estimate. Those rules were tuned when a level paid one
//! galloped seek per interval and a decomposition enumerated every cell;
//! A/B-ed against the one kernel (CHANGES.md, PR 16) the BIGMIN skipper
//! won at every volume on Morton order, and on Hilbert the kernel with
//! the interval skipper beat the raw interval walk for boxes and kNN
//! balls alike — so the cutoffs and the per-run estimate are gone, and
//! so is the store's raw interval read: the raw walk
//! ([`interval_scan`](sfc_index::interval_scan)) is the static index's
//! ([`SfcIndex::query_intervals`]), the box oracle of the store's tests.
//!
//! What a query did is in its [`QueryStats`] — `blocks_scanned` /
//! `blocks_pruned` / `blocks_decoded` per executed level — and, for a
//! slow query on a store with metrics attached, in its
//! [`QueryTrace`](crate::QueryTrace): the interval count (`None` on
//! BIGMIN) and the decomposition time.
//!
//! ## kNN
//!
//! A kNN read gathers candidates level by level into one top-k heap and
//! then box-queries the verification ball like any other box. The
//! per-run candidate walk is `sfc_index::knn::knn_collect_run`, the one a
//! static [`SfcIndex`] runs over its single run; what this module adds
//! is the order of the levels, the runs it skips
//! ([`LevelsView::knn_collect`]) and the memtable's walk, and which keys
//! a newer level shadows — the walk's one parameter.

use std::collections::BinaryHeap;
use std::iter::Peekable;
use std::sync::Arc;

use sfc_core::{CurveIndex, Point, SpaceFillingCurve};
use sfc_index::knn::{knn_collect_run, kth_best, may_tighten, offer, KnnQuery};
use sfc_index::{
    box_scan, BlockCursor, BlockStore, BoxRegion, BoxSkipper, CurveSkipper, QueryStats, SfcIndex,
};

use crate::epoch::{SeqSlot, SeqTable, WriteOp};
use crate::store::{StoreEntry, StoreEntryRef};

/// One immutable sorted run, shareable with snapshots. Tombstones live in
/// the run's block bitmap; payloads are the dense live-only column.
pub(crate) type Run<const D: usize, T, C> = Arc<SfcIndex<D, T, C>>;

/// The version of a cell found at some level: `None` payload = tombstone.
pub(crate) type Version<'a, const D: usize, T> = Option<(Point<D>, &'a T)>;

/// One level's hit: the key and the version the level holds of it.
type LevelHit<'a, const D: usize, T> = (CurveIndex, Version<'a, D, T>);

/// A version as the level merge yields it: key, cell and payload (`None`
/// = tombstone, whose cell a merge that keeps it still needs).
type VersionRef<'a, const D: usize, T> = (CurveIndex, Point<D>, Option<&'a T>);

/// One level of the level merge, read forward in key order.
enum Level<'a, const D: usize, T> {
    /// The memtable image.
    Mem(Peekable<crate::memtable::Iter<'a, SeqSlot<D, T>>>),
    /// A run, read block by block through a [`BlockCursor`]; the payload
    /// column advances on live slots only.
    Run {
        blocks: &'a BlockStore<D>,
        cursor: Box<BlockCursor<'a, D>>,
        payloads: std::slice::Iter<'a, T>,
        slot: usize,
    },
}

impl<'a, const D: usize, T> Level<'a, D, T> {
    fn run<C: SpaceFillingCurve<D>>(run: &'a SfcIndex<D, T, C>) -> Self {
        Level::Run {
            blocks: run.blocks(),
            cursor: Box::new(BlockCursor::new(run.blocks())),
            payloads: run.payloads().iter(),
            slot: 0,
        }
    }

    /// The key at the level's head; `None` once the level is walked.
    fn head(&mut self) -> Option<CurveIndex> {
        match self {
            Level::Mem(walk) => walk.peek().map(|&(key, _)| key),
            Level::Run {
                blocks,
                cursor,
                slot,
                ..
            } => (*slot < blocks.len()).then(|| cursor.key(*slot)),
        }
    }

    /// The version at the head, whose key is `key`; advances past it.
    fn take(&mut self, key: CurveIndex) -> VersionRef<'a, D, T> {
        match self {
            Level::Mem(walk) => {
                let (_, (point, slot, _)) = walk.next().expect("the level has a head");
                (key, *point, slot.as_ref())
            }
            Level::Run {
                blocks,
                cursor,
                payloads,
                slot,
            } => {
                let point = cursor.point(*slot);
                let payload = blocks
                    .is_live_slot(*slot)
                    .then(|| payloads.next().expect("one payload per live slot"));
                *slot += 1;
                (key, point, payload)
            }
        }
    }
}

/// Where a read's hits go as they are found: per shard in ascending key
/// order, shard after shard — so what a sink has seen when the read
/// returns is the result in curve order. A live query pushes owned
/// entries, a snapshot query borrowed ones; neither copies a hit twice.
pub(crate) trait HitSink<'a, const D: usize, T> {
    /// Takes the next hit.
    fn hit(&mut self, entry: StoreEntryRef<'a, D, T>);
}

impl<'a, const D: usize, T> HitSink<'a, D, T> for Vec<StoreEntryRef<'a, D, T>> {
    #[inline]
    fn hit(&mut self, entry: StoreEntryRef<'a, D, T>) {
        self.push(entry);
    }
}

impl<'a, const D: usize, T: Clone> HitSink<'a, D, T> for Vec<StoreEntry<D, T>> {
    #[inline]
    fn hit(&mut self, entry: StoreEntryRef<'a, D, T>) {
        self.push(entry.to_owned());
    }
}

/// The scratch of one query's streamed merge: the hits of the levels
/// above the one being scanned, already merged newest-wins, and the
/// buffer the next merge writes. Cleared and reused for every level of
/// every shard the query visits.
pub(crate) struct Overlay<'a, const D: usize, T> {
    newer: Vec<LevelHit<'a, D, T>>,
    next: Vec<LevelHit<'a, D, T>>,
}

impl<const D: usize, T> Default for Overlay<'_, D, T> {
    fn default() -> Self {
        Self {
            newer: Vec::new(),
            next: Vec::new(),
        }
    }
}

/// The newest-wins merge of one level, **as its scan visits it**, against
/// everything newer: every slot the scan surfaces (ascending keys) first
/// lets the newer hits below it through, then passes itself on unless a
/// newer level holds its key. Nothing of the scanned level is
/// materialised; the common case — no newer hit at or below the slot —
/// is one comparison.
struct Merge<'o, 'a, const D: usize, T, E: FnMut(CurveIndex, Version<'a, D, T>)> {
    /// Newer hits not yet passed on, ascending.
    newer: &'o [LevelHit<'a, D, T>],
    emit: E,
}

impl<'a, const D: usize, T, E: FnMut(CurveIndex, Version<'a, D, T>)> Merge<'_, 'a, D, T, E> {
    /// The scan surfaced `key`; `version` reads what the level holds of
    /// it, and is only called if no newer level shadows it.
    #[inline]
    fn older(&mut self, key: CurveIndex, version: impl FnOnce() -> Version<'a, D, T>) {
        while let Some((&(newer_key, newer), rest)) = self.newer.split_first() {
            if newer_key > key {
                break;
            }
            self.newer = rest;
            (self.emit)(newer_key, newer);
            if newer_key == key {
                return;
            }
        }
        (self.emit)(key, version());
    }

    /// The scan is over: what is left of the newer hits follows.
    fn finish(mut self) {
        for &(key, version) in self.newer {
            (self.emit)(key, version);
        }
    }
}

/// A borrowed view of one captured shard's levels: the newest level (the
/// memtable image, when it holds anything) over a stack of immutable
/// runs, oldest first.
pub(crate) struct LevelsView<'a, const D: usize, T, C: SpaceFillingCurve<D>> {
    /// `None` when the captured memtable was empty.
    pub memtable: Option<&'a SeqTable<D, T>>,
    /// Oldest → newest, like the shard's run stack.
    pub runs: &'a [Run<D, T, C>],
}

/// What the query engine reads of a memtable entry: the cell and the
/// payload (`None` for a tombstone); the sequence number is the flush
/// drain's business.
fn mem_version<const D: usize, T>(slot: &SeqSlot<D, T>) -> Version<'_, D, T> {
    slot.1.as_ref().map(|t| (slot.0, t))
}

/// The memtable's box scan: a sequential walk of the box's key span that
/// re-seeks past every excursion through the same skipper the run kernel
/// uses, surfacing each in-box version to `sink` in ascending key order.
fn mem_box_scan<'a, const D: usize, T>(
    mem: &'a SeqTable<D, T>,
    b: &BoxRegion<D>,
    skip: &impl BoxSkipper,
    stats: &mut QueryStats,
    mut sink: impl FnMut(CurveIndex, Version<'a, D, T>),
) {
    let (mut from, hi) = skip.span();
    stats.seeks += 1;
    'memtable: while from <= hi {
        for (key, slot) in mem.range_iter(from, hi) {
            stats.scanned += 1;
            if b.contains(&slot.0) {
                sink(key, mem_version(slot));
            } else {
                // `key <= hi < n`, so `key + 1` cannot overflow.
                match skip.next_inside(key + 1) {
                    Some(next) => {
                        stats.seeks += 1;
                        from = next;
                        continue 'memtable;
                    }
                    None => break 'memtable,
                }
            }
        }
        break;
    }
}

/// The memtable's kNN candidate walk: both directions from the query key,
/// each until it has bracketed `k` live entries over at least `window`
/// slots, offering every live entry's squared distance to the top-k heap
/// (nothing is newer than the memtable, so each is genuine).
fn mem_knn_walk<const D: usize, T>(
    mem: &SeqTable<D, T>,
    query: &KnnQuery<D>,
    heap: &mut BinaryHeap<u128>,
    stats: &mut QueryStats,
) {
    stats.seeks += 1;
    let mut walk = |side: &mut dyn Iterator<Item = (CurveIndex, &SeqSlot<D, T>)>| {
        let (mut live, mut slots) = (0usize, 0usize);
        for (_, slot) in side {
            slots += 1;
            stats.scanned += 1;
            if slot.1.is_some() {
                offer(heap, query.k, query.q.euclidean_sq(&slot.0));
                live += 1;
            }
            if live >= query.k && slots >= query.window {
                break;
            }
        }
    };
    walk(&mut mem.iter_rev_below(query.key));
    walk(&mut mem.iter_from(query.key));
}

impl<'a, const D: usize, T, C: SpaceFillingCurve<D>> LevelsView<'a, D, T, C> {
    /// The newest version of `key` across all levels, or `None` if no
    /// level mentions it. `Some(None)` means the newest version is a
    /// tombstone.
    pub(crate) fn version(&self, key: CurveIndex) -> Option<Version<'a, D, T>> {
        if let Some(mem) = self.memtable {
            if let Some(slot) = mem.get(&key) {
                return Some(mem_version(slot));
            }
        }
        for run in self.runs.iter().rev() {
            if let Some(i) = run.find_key(key) {
                return Some(run.payload_at(i).map(|t| (run.point_at(i), t)));
            }
        }
        None
    }

    /// `true` iff some level strictly newer than run `run_idx` holds a
    /// version of `key` (so run `run_idx`'s version is not the visible one).
    fn shadowed_above(&self, key: CurveIndex, run_idx: usize) -> bool {
        self.memtable.is_some_and(|mem| mem.contains_key(&key))
            || self.runs[run_idx + 1..]
                .iter()
                .any(|run| run.find_key(key).is_some())
    }

    /// `true` iff the run cannot hold a hit: its key range misses the
    /// skipper's span, or its point AABB misses the box.
    fn prunes(run: &Run<D, T, C>, b: &BoxRegion<D>, (lo, hi): (CurveIndex, CurveIndex)) -> bool {
        run.is_empty()
            || run.key_at(run.len() - 1) < lo
            || run.blocks().fence(0) > hi
            || run.blocks().run_disjoint(b)
    }

    /// The one multi-level read: every point of box `b` across the
    /// levels, newest version wins, tombstones suppressed, streamed to
    /// `sink` in ascending key order. `skip` describes `b` on the curve
    /// (the shard's share of the query's [`CurveSkipper`]); every run
    /// goes through [`box_scan`] with it, the memtable through
    /// [`mem_box_scan`].
    ///
    /// The memtable and every run but the oldest taking part — the small,
    /// recent levels — are scanned newest to oldest into `overlay`, each
    /// merged against the ones above it as its scan visits it. The oldest
    /// run, where nearly all hits live, then streams through the same
    /// merge straight into the sink: its hits are never collected. Runs
    /// whose key range or AABB misses the box charge their blocks to
    /// `blocks_pruned` and are not scanned.
    pub(crate) fn scan<S: HitSink<'a, D, T>>(
        &self,
        b: &BoxRegion<D>,
        skip: &CurveSkipper<'_, D>,
        overlay: &mut Overlay<'a, D, T>,
        sink: &mut S,
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        let span = skip.span();
        let Overlay { newer, next } = overlay;
        newer.clear();
        if let Some(mem) = self.memtable {
            mem_box_scan(mem, b, skip, &mut stats, |key, version| {
                newer.push((key, version))
            });
        }
        let pruned_blocks = |run: &Run<D, T, C>| run.blocks().blocks() as u64;
        let base = self
            .runs
            .iter()
            .position(|run| !Self::prunes(run, b, span))
            .unwrap_or(self.runs.len());
        stats.blocks_pruned += self.runs[..base].iter().map(pruned_blocks).sum::<u64>();
        for run in self.runs.iter().skip(base + 1).rev() {
            if Self::prunes(run, b, span) {
                stats.blocks_pruned += pruned_blocks(run);
                continue;
            }
            next.clear();
            let mut merge = Merge {
                newer: newer.as_slice(),
                emit: |key, version| next.push((key, version)),
            };
            box_scan(run.blocks(), b, skip, &mut stats, |i, key, point| {
                merge.older(key, || run.payload_at(i).map(|t| (point, t)))
            });
            merge.finish();
            std::mem::swap(newer, next);
        }
        let mut reported = 0u64;
        let mut merge = Merge {
            newer: newer.as_slice(),
            emit: |key, version: Version<'a, D, T>| {
                if let Some((point, payload)) = version {
                    reported += 1;
                    sink.hit(StoreEntryRef {
                        key,
                        point,
                        payload,
                    });
                }
            },
        };
        if let Some(run) = self.runs.get(base) {
            box_scan(run.blocks(), b, skip, &mut stats, |i, key, point| {
                merge.older(key, || run.payload_at(i).map(|t| (point, t)))
            });
        }
        merge.finish();
        stats.reported = reported;
        stats
    }

    /// Collects live kNN candidates from every level into the top-k
    /// distance heap: per level, the candidate walk of
    /// [`knn_collect_run`] (the memtable's is [`mem_knn_walk`]), told that
    /// a key is shadowed when a newer level holds it — so the heap only
    /// ever takes genuine live records, and a cell live in two levels
    /// counts once.
    ///
    /// The router calls this for the shard owning the query's key first;
    /// across levels, two rules keep the work down:
    ///
    /// * **levels are visited biggest first** — the densest level almost
    ///   always holds the true nearest neighbors, so the heap's k-th best
    ///   is tight before the small levels are even looked at;
    /// * once the heap holds `k` candidates, **a run is visited only if
    ///   it may tighten them** ([`may_tighten`]): its AABB is nearer than
    ///   the k-th best, and it is dense enough to be expected to hold a
    ///   record inside that distance. That is how most levels of the
    ///   shards that do not own the query's key, and the sparsest levels
    ///   of the one that does, cost one distance computation each (their
    ///   blocks charged to `blocks_pruned`).
    pub(crate) fn knn_collect(
        &self,
        query: &KnnQuery<D>,
        heap: &mut BinaryHeap<u128>,
        stats: &mut QueryStats,
    ) {
        // Biggest level first (the memtable competes by its length).
        let mut order: Vec<(usize, Option<usize>)> = self
            .runs
            .iter()
            .enumerate()
            .map(|(run_idx, run)| (run.len(), Some(run_idx)))
            .collect();
        if let Some(mem) = self.memtable {
            order.push((mem.len(), None));
        }
        order.sort_by_key(|&(len, _)| std::cmp::Reverse(len));
        for (_, level) in order {
            match level {
                None => {
                    let mem = self.memtable.expect("ordered above");
                    mem_knn_walk(mem, query, heap, stats);
                }
                Some(run_idx) => {
                    let blocks = self.runs[run_idx].blocks();
                    let futile = kth_best(heap, query.k)
                        .is_some_and(|kth| !may_tighten(blocks, &query.q, kth));
                    if futile {
                        stats.blocks_pruned += blocks.blocks() as u64;
                    } else {
                        let shadowed = |key| self.shadowed_above(key, run_idx);
                        knn_collect_run(blocks, query, shadowed, heap, stats);
                    }
                }
            }
        }
    }

    /// The level merge (module docs): a lazy newest-wins k-way merge of
    /// every level in ascending key order, tombstones included.
    pub(crate) fn versions(&self) -> impl Iterator<Item = VersionRef<'a, D, T>> + 'a {
        // Oldest → newest: the runs, then the memtable.
        let runs = self.runs.iter().map(|run| Level::run(run));
        let mem = self.memtable.map(|mem| Level::Mem(mem.iter().peekable()));
        let mut levels: Vec<Level<'a, D, T>> = runs.chain(mem).collect();
        std::iter::from_fn(move || {
            let min = levels.iter_mut().filter_map(Level::head).min()?;
            // Every level holding the minimum advances; the last one taken
            // is the newest version.
            let mut newest = None;
            for level in &mut levels {
                if level.head() == Some(min) {
                    newest = Some(level.take(min));
                }
            }
            newest
        })
    }

    /// The live records in ascending key order: [`versions`](Self::versions)
    /// with tombstones filtered out.
    pub(crate) fn iter(&self) -> impl Iterator<Item = StoreEntryRef<'a, D, T>> + 'a {
        self.versions().filter_map(|(key, point, payload)| {
            Some(StoreEntryRef {
                key,
                point,
                payload: payload?,
            })
        })
    }
}

/// Merges `runs` (oldest first) newest-wins into one run, cloning each
/// surviving payload out of its shared input, which stays as it was.
/// Tombstones are kept unless `drop_tombstones` is set, which is only
/// sound when the merged run becomes the bottom of the stack. `None` when
/// nothing survives.
pub(crate) fn merge_runs<const D: usize, T: Clone, C: SpaceFillingCurve<D> + Clone>(
    curve: &C,
    runs: &[Run<D, T, C>],
    drop_tombstones: bool,
) -> Option<Run<D, T, C>> {
    let view = LevelsView {
        memtable: None,
        runs,
    };
    let mut columns = RunColumns::with_capacity(runs.iter().map(|run| run.len()).sum());
    columns.extend(
        view.versions()
            .filter(|v| v.2.is_some() || !drop_tombstones)
            .map(|(key, point, payload)| (key, point, payload.cloned())),
    );
    columns.into_run(curve)
}

/// Key-sorted versions (`None` payload = tombstone) gathered column by
/// column into one run: the one builder behind a flush, a merge, a bulk
/// load, a rebalance's installs and `to_index`.
#[derive(Debug)]
pub(crate) struct RunColumns<const D: usize, T> {
    keys: Vec<CurveIndex>,
    points: Vec<Point<D>>,
    slots: Vec<Option<T>>,
}

impl<const D: usize, T> RunColumns<D, T> {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            keys: Vec::with_capacity(n),
            points: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
        }
    }

    /// Appends one version; keys arrive in ascending order.
    pub(crate) fn push(&mut self, (key, point, slot): WriteOp<D, T>) {
        self.keys.push(key);
        self.points.push(point);
        self.slots.push(slot);
    }

    /// Packs the columns into an index (adopted sorted, no re-sort).
    pub(crate) fn into_index<C: SpaceFillingCurve<D> + Clone>(
        self,
        curve: &C,
    ) -> SfcIndex<D, T, C> {
        SfcIndex::from_sorted_versions(curve.clone(), self.keys, self.points, self.slots)
    }

    /// Packs the columns into a shareable run; `None` when they are empty.
    pub(crate) fn into_run<C: SpaceFillingCurve<D> + Clone>(
        self,
        curve: &C,
    ) -> Option<Run<D, T, C>> {
        (!self.keys.is_empty()).then(|| Arc::new(self.into_index(curve)))
    }
}

impl<const D: usize, T> Extend<WriteOp<D, T>> for RunColumns<D, T> {
    fn extend<I: IntoIterator<Item = WriteOp<D, T>>>(&mut self, versions: I) {
        for version in versions {
            self.push(version);
        }
    }
}

/// Ranks entries in the canonical kNN result order — Euclidean distance
/// to `q`, ties broken by curve key — and keeps the `k` nearest.
pub(crate) fn rank_by_distance<const D: usize, T>(
    mut all: Vec<StoreEntryRef<'_, D, T>>,
    q: Point<D>,
    k: usize,
) -> Vec<StoreEntryRef<'_, D, T>> {
    all.sort_by_key(|e| (q.euclidean_sq(&e.point), e.key));
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use sfc_core::{Grid, ZCurve};
    use sfc_index::MortonSkipper;
    use std::collections::BTreeMap;

    fn run_of(curve: ZCurve<2>, cells: &[(u32, u32, Option<u32>)]) -> Run<2, u32, ZCurve<2>> {
        let mut rows: Vec<WriteOp<2, u32>> = cells
            .iter()
            .map(|&(x, y, v)| {
                let p = Point::new([x, y]);
                (curve.index_of(p), p, v)
            })
            .collect();
        rows.sort_by_key(|&(k, _, _)| k);
        let mut columns = RunColumns::with_capacity(rows.len());
        columns.extend(rows);
        Arc::new(columns.into_index(&curve))
    }

    #[test]
    fn newest_version_wins_and_tombstones_drop_at_bottom() {
        let curve = ZCurve::over(Grid::<2>::new(3).unwrap());
        let old = run_of(curve, &[(0, 0, Some(1)), (1, 1, Some(2)), (2, 2, Some(3))]);
        let new = run_of(curve, &[(1, 1, Some(20)), (2, 2, None), (3, 3, Some(4))]);
        let runs = [old.clone(), new.clone()];

        let kept = merge_runs(&curve, &runs, false).unwrap();
        assert_eq!(kept.len(), 4); // tombstone for (2,2) is retained
        assert_eq!(kept.live_len(), 3);
        let vals = kept.payloads();
        assert!(vals.contains(&20) && !vals.contains(&2));

        // The inputs are borrowed: they stay readable, unchanged, while
        // the merge runs and after it.
        let bottom = merge_runs(&curve, &runs, true).unwrap();
        assert_eq!(bottom.len(), 3); // (0,0)=1, (1,1)=20, (3,3)=4
        assert_eq!(bottom.live_len(), bottom.len());
        assert_eq!(old.len(), 3);
        assert_eq!(new.len(), 3);
    }

    /// What the model holds of a key, newest write last: cell and payload
    /// (`None` = tombstone).
    type Model = BTreeMap<CurveIndex, (Point<2>, Option<u32>)>;

    /// A run's slots as versions, tombstones included.
    fn slots_of(run: &SfcIndex<2, u32, ZCurve<2>>) -> Vec<WriteOp<2, u32>> {
        let slot = |i| (run.key_at(i), run.point_at(i), run.payload_at(i).copied());
        (0..run.len()).map(slot).collect()
    }

    /// `model`'s versions, tombstones dropped when `live_only`.
    fn model_versions(model: &Model, live_only: bool) -> Vec<WriteOp<2, u32>> {
        let version =
            |(&key, &(point, slot)): (&CurveIndex, &(Point<2>, Option<u32>))| (key, point, slot);
        let versions = model.iter().map(version);
        versions.filter(|v| v.2.is_some() || !live_only).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The level merge against a `BTreeMap` model on random stacks: an
        /// optional memtable over 1–5 runs of up to 4 blocks, tombstones in
        /// any level, every level drawn from one 200-key range so keys
        /// repeat across levels. `versions` is the model written oldest
        /// level to newest, `iter` its live part, and `merge_runs` the
        /// same over the runs alone, in both tombstone modes.
        #[test]
        fn level_merge_matches_a_btreemap_model(seed in any::<u64>()) {
            let z = ZCurve::over(Grid::<2>::new(4).unwrap());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let runs_in_stack = rng.gen_range(1..=5usize);
            let with_memtable = rng.gen_bool(0.5);
            let mut level = |tag: u32| -> Vec<WriteOp<2, u32>> {
                let density = rng.gen_range(5..95u32);
                let mut versions = Vec::new();
                for i in 0..200u32 {
                    if rng.gen_range(0..100u32) < density {
                        let key = CurveIndex::from(i);
                        let slot = rng.gen_bool(0.75).then_some(1000 * tag + i);
                        versions.push((key, z.point_of(key), slot));
                    }
                }
                versions
            };
            // Oldest first, like a shard's run stack.
            let run_levels: Vec<_> = (0..runs_in_stack as u32).map(&mut level).collect();
            let mem_level = with_memtable.then(|| level(9));
            let runs: Vec<Run<2, u32, ZCurve<2>>> = run_levels
                .iter()
                .map(|versions| {
                    let mut columns = RunColumns::with_capacity(versions.len());
                    columns.extend(versions.iter().copied());
                    Arc::new(columns.into_index(&z))
                })
                .collect();
            let mut mem = SeqTable::<2, u32>::new();
            for (seq, &(key, point, slot)) in mem_level.iter().flatten().enumerate() {
                mem.insert(key, (point, slot, seq as u64));
            }
            let mut runs_model = Model::new();
            for &(key, point, slot) in run_levels.iter().flatten() {
                runs_model.insert(key, (point, slot));
            }
            let mut model = runs_model.clone();
            for &(key, point, slot) in mem_level.iter().flatten() {
                model.insert(key, (point, slot));
            }

            let view = LevelsView {
                memtable: (!mem.is_empty()).then_some(&mem),
                runs: &runs,
            };
            let versions: Vec<_> = view.versions().map(|(k, p, t)| (k, p, t.copied())).collect();
            prop_assert_eq!(versions, model_versions(&model, false));
            let live: Vec<_> = view.iter().map(|e| (e.key, e.point, Some(*e.payload))).collect();
            prop_assert_eq!(live, model_versions(&model, true));
            for drop_tombstones in [false, true] {
                let merged = merge_runs(&z, &runs, drop_tombstones);
                let got = merged.as_deref().map(slots_of).unwrap_or_default();
                prop_assert_eq!(got, model_versions(&runs_model, drop_tombstones));
            }
        }
    }

    #[test]
    fn merge_of_empty_inputs_is_empty() {
        let curve = ZCurve::over(Grid::<2>::new(2).unwrap());
        let runs = [run_of(curve, &[])];
        assert!(merge_runs::<2, u32, _>(&curve, &runs, true).is_none());
    }

    /// The materialising k-way merge the streamed one replaced, kept as
    /// its reference: per-level hit lists (each ascending in key, newest
    /// level first) into the newest-wins result.
    fn merge_level_hits<'a>(
        levels: Vec<Vec<LevelHit<'a, 2, u32>>>,
    ) -> Vec<StoreEntryRef<'a, 2, u32>> {
        let mut pos = vec![0usize; levels.len()];
        let mut out = Vec::new();
        loop {
            let mut min: Option<CurveIndex> = None;
            for (level, &p) in levels.iter().zip(&pos) {
                if let Some(&(key, _)) = level.get(p) {
                    min = Some(min.map_or(key, |m| m.min(key)));
                }
            }
            let Some(min) = min else { break };
            // The first (newest) level holding the min key wins; every
            // level holding it advances.
            let mut winner: Option<Version<'a, 2, u32>> = None;
            for (level, p) in levels.iter().zip(pos.iter_mut()) {
                if let Some(&(key, version)) = level.get(*p) {
                    if key == min {
                        winner.get_or_insert(version);
                        *p += 1;
                    }
                }
            }
            if let Some(Some((point, payload))) = winner {
                out.push(StoreEntryRef {
                    key: min,
                    point,
                    payload,
                });
            }
        }
        out
    }

    /// What one level holds of one key.
    #[derive(Clone, Copy, PartialEq)]
    enum Held {
        Absent,
        Tombstone,
        Live,
    }

    /// Level `level`'s state for key `i` of the column: digit `level` of
    /// `i` in base 3, so a column of `3^levels` keys runs through every
    /// assignment of {absent, tombstone, live} to the levels once.
    fn held(i: usize, level: usize) -> Held {
        [Held::Absent, Held::Tombstone, Held::Live][i / 3usize.pow(level as u32) % 3]
    }

    /// Every interleaving of {live, tombstone, absent} per level, for one
    /// to four levels over one key column — the newest level once a
    /// memtable and once a run — through both skippers: the streamed
    /// merge must hand the sink exactly what the materialising merge
    /// returns, and count it.
    #[test]
    fn streamed_merge_equals_materialised_merge_on_every_interleaving() {
        let z = ZCurve::over(Grid::<2>::new(4).unwrap());
        let whole = BoxRegion::new(Point::new([0, 0]), Point::new([15, 15]));
        for levels in 1..=4usize {
            let column = 3usize.pow(levels as u32);
            // Level 0 is the newest. Payloads name their level and key.
            let slots_of = |level: usize| -> Vec<(CurveIndex, Point<2>, Option<u32>)> {
                (0..column)
                    .filter(|&i| held(i, level) != Held::Absent)
                    .map(|i| {
                        let live = held(i, level) == Held::Live;
                        let key = 2 * i as CurveIndex;
                        (
                            key,
                            z.point_of(key),
                            live.then_some((100 * level + i) as u32),
                        )
                    })
                    .collect()
            };
            let run_of = |level: usize| -> Run<2, u32, ZCurve<2>> {
                let (keys, rest): (Vec<_>, Vec<_>) = slots_of(level)
                    .into_iter()
                    .map(|(key, point, slot)| (key, (point, slot)))
                    .unzip();
                let (points, slots) = rest.into_iter().unzip();
                Arc::new(SfcIndex::from_sorted_versions(z, keys, points, slots))
            };
            for memtable_on_top in [false, true] {
                let mut mem = SeqTable::<2, u32>::new();
                if memtable_on_top {
                    for (seq, (key, point, slot)) in slots_of(0).into_iter().enumerate() {
                        mem.insert(key, (point, slot, seq as u64));
                    }
                }
                // Oldest first, like a shard's run stack.
                let runs: Vec<Run<2, u32, ZCurve<2>>> = (usize::from(memtable_on_top)..levels)
                    .rev()
                    .map(run_of)
                    .collect();
                let view = LevelsView {
                    memtable: (!mem.is_empty()).then_some(&mem),
                    runs: &runs,
                };
                // The reference input: what each level holds, newest first.
                let mut per_level: Vec<Vec<LevelHit<'_, 2, u32>>> = Vec::new();
                if let Some(mem) = view.memtable {
                    per_level.push(mem.iter().map(|(k, slot)| (k, mem_version(slot))).collect());
                }
                for run in runs.iter().rev() {
                    per_level.push(
                        (0..run.len())
                            .map(|i| {
                                let version = run.payload_at(i).map(|t| (run.point_at(i), t));
                                (run.key_at(i), version)
                            })
                            .collect(),
                    );
                }
                let want = merge_level_hits(per_level);
                // Newest-wins, spelled out: a key is reported iff the
                // newest level holding it holds it live.
                let newest_wins: Vec<CurveIndex> = (0..column)
                    .filter(|&i| {
                        (0..levels)
                            .map(|level| held(i, level))
                            .find(|&h| h != Held::Absent)
                            == Some(Held::Live)
                    })
                    .map(|i| 2 * i as CurveIndex)
                    .collect();
                assert_eq!(
                    want.iter().map(|e| e.key).collect::<Vec<_>>(),
                    newest_wins,
                    "reference merge, {levels} levels"
                );
                for (skip, what) in [
                    (CurveSkipper::new(&z, &whole), "box by BIGMIN"),
                    (
                        CurveSkipper::Intervals(whole.curve_intervals(&z).into()),
                        "box by intervals",
                    ),
                ] {
                    let mut overlay = Overlay::default();
                    // A dirty scratch must not leak into the result.
                    overlay.newer.push((1, None));
                    overlay.next.push((3, None));
                    let mut got: Vec<StoreEntryRef<'_, 2, u32>> = Vec::new();
                    let stats = view.scan(&whole, &skip, &mut overlay, &mut got);
                    assert_eq!(
                        got, want,
                        "{what}: {levels} levels, memtable on top: {memtable_on_top}"
                    );
                    assert_eq!(stats.reported as usize, want.len());
                }
            }
        }
    }

    /// A sub-box prunes the runs it cannot meet and still merges the rest
    /// in order: the overlay levels sit on both sides of the base run's
    /// hits, and past its last one.
    #[test]
    fn overlay_hits_before_between_and_after_the_base_run() {
        let z = ZCurve::over(Grid::<2>::new(4).unwrap());
        let run_at = |keys: &[CurveIndex], payload: u32| -> Run<2, u32, ZCurve<2>> {
            let points = keys.iter().map(|&k| z.point_of(k)).collect();
            let slots = keys.iter().map(|_| Some(payload)).collect();
            Arc::new(SfcIndex::from_sorted_versions(
                z,
                keys.to_vec(),
                points,
                slots,
            ))
        };
        // Base holds the middle of the key space; the newer run brackets
        // it on both sides and shares key 100; a far run is pruned.
        let runs = vec![
            run_at(&[90, 100, 110], 0),
            run_at(&[250, 251], 1),
            run_at(&[10, 100, 200], 2),
        ];
        let view = LevelsView {
            memtable: None,
            runs: &runs,
        };
        // The bounding box of the five keys the query should find; it
        // misses the far run's cells.
        let cells: Vec<Point<2>> = [10, 90, 100, 110, 200].map(|k| z.point_of(k)).to_vec();
        let b = BoxRegion::new(
            Point::new([0, 1].map(|a| cells.iter().map(|p| p.coord(a)).min().unwrap())),
            Point::new([0, 1].map(|a| cells.iter().map(|p| p.coord(a)).max().unwrap())),
        );
        assert!(!b.contains(&z.point_of(250)) && !b.contains(&z.point_of(251)));
        let skip = CurveSkipper::Morton(MortonSkipper::new(&z, &b));
        let mut got: Vec<StoreEntryRef<'_, 2, u32>> = Vec::new();
        let stats = view.scan(&b, &skip, &mut Overlay::default(), &mut got);
        let flat: Vec<(CurveIndex, u32)> = got.iter().map(|e| (e.key, *e.payload)).collect();
        assert_eq!(flat, [(10, 2), (90, 0), (100, 2), (110, 0), (200, 2)]);
        assert_eq!(stats.reported, 5);
        assert_eq!(stats.blocks_pruned, 1, "the far run is pruned whole");
    }
}
