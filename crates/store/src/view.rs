//! The shared multi-level query engine and the adaptive query planner.
//!
//! Every read merges one shard's levels: the captured memtable image over
//! a stack of immutable runs. Newest level wins, tombstones suppress
//! older versions, per-level work sums into one [`QueryStats`] — the
//! algorithm lives here once, expressed over a [`LevelsView`]: an
//! optional borrowed memtable plus a slice of `Arc`-shared runs, borrowed
//! from a [`StoreSnapshot`](crate::StoreSnapshot).
//!
//! ## The adaptive box-query planner
//!
//! A box query has two exact execution strategies per level — walking the
//! box's precomputed curve intervals, or BIGMIN key-range jumping (Morton
//! order only) — and their costs scale differently: intervals pay one
//! decomposition per query (`O(perimeter)` aligned cubes on Z, Hilbert and
//! Gray; every cell of the box on other curves) plus one galloped seek per
//! interval per level, BIGMIN pays nothing up front but re-derives the
//! box structure per level through jump computations and scans the
//! out-of-box keys between its jumps. Forcing one
//! strategy store-wide (the old `query_box_intervals` / `query_box_bigmin`
//! dichotomy, both still available) leaves work on the table: a store
//! usually holds one huge bottom run *and* several small recent runs, and
//! the right answer differs per run.
//!
//! The planner picks per level, from run statistics — step 1 once per
//! query at the router ([`should_decompose`]), steps 2 and 3 per shard in
//! [`LevelsView::plan_box_with`]:
//!
//! 1. **Decompose or not.** Non-Morton curves always decompose (intervals
//!    are their only exact strategy). The Z curve decomposes only when the
//!    box volume is at most [`INTERVAL_VOLUME_CUTOFF`] cells — beyond
//!    that the interval count grows with the box perimeter, and one seek
//!    per interval per level is weighed against BIGMIN-scanning every
//!    level.
//! 2. **Prune.** A run whose key range misses the box's curve span, or
//!    whose block-summary AABB misses the box outright, is skipped wholesale
//!    ([`LevelStrategy::Pruned`], counted in
//!    [`QueryStats::blocks_pruned`]).
//! 3. **Per-run choice.** With intervals in hand, a run estimated (via two
//!    fence-array searches) to hold fewer slots inside the box's key span
//!    than there are intervals is BIGMIN-scanned — a short jumping scan
//!    beats issuing one seek per interval against a table that small. The
//!    memtable makes the same choice against its total size.
//!
//! The resulting [`QueryPlan`] is observable through
//! [`ShardedSfcStore::plan_box_query`](crate::ShardedSfcStore::plan_box_query)
//! (see `examples/query_planner.rs`), and every executed strategy records
//! per-block work in `blocks_scanned` / `blocks_pruned` /
//! `blocks_decoded`.

use std::cell::RefCell;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::sync::Arc;

use sfc_core::{CurveIndex, Point, SpaceFillingCurve, ZCurve};
use sfc_index::{
    bigmin, bigmin_scan, bigmin_scan_plain, interval_scan, interval_scan_plain, BlockCursor,
    BlockStore, BoxRegion, DecodedBlock, QueryStats, SfcIndex, BLOCK_SLOTS,
};

use crate::epoch::{SeqSlot, SeqTable};
use crate::store::StoreEntryRef;

/// Boxes with at most this many cells are decomposed into exact curve
/// intervals when planning a Morton-order box query; larger boxes run on
/// BIGMIN jumps alone. Non-Morton curves always decompose (it is their
/// only exact strategy).
///
/// The value was measured when decomposition still enumerated and sorted
/// every cell of the box; on a multi-run million-record store the
/// zone-accelerated BIGMIN scan then overtook it well before a hundred
/// cells. Decomposition is now hierarchical (`O(perimeter)` cubes), so
/// what the cutoff still weighs is one seek per interval per level
/// against BIGMIN's key-island overscan — the value is kept, and wants
/// re-measuring against that cheaper cost (see ROADMAP). Tiny boxes
/// (point-ish lookups) profit from the zero-overscan interval walk
/// either way, which is where the per-level choice below kicks in.
pub const INTERVAL_VOLUME_CUTOFF: u128 = 64;

/// kNN verification balls up to this many cells are decomposed into exact
/// curve intervals instead of going through the adaptive box planner —
/// on every engine, through [`plan_knn_ball`].
///
/// The ball's side is twice the k-th candidate distance, so a tight
/// candidate walk produces a box of one-to-a-few hundred cells — the
/// regime where BIGMIN's key-island overscan costs more extra slot
/// examinations than walking the exact intervals (the general-purpose
/// [`INTERVAL_VOLUME_CUTOFF`] is tuned for broad boxes, not for the
/// point-ish balls kNN verification emits). Like that constant, the value
/// dates from when decomposition paid one curve encode per cell of the
/// ball; it is kept, and wants re-measuring now that the setup is
/// `O(perimeter)` (see ROADMAP).
pub const KNN_BALL_INTERVALS_CUTOFF: u128 = 256;

/// One immutable sorted run, shareable with snapshots. Tombstones live in
/// the run's block bitmap; payloads are the dense live-only column.
pub(crate) type Run<const D: usize, T, C> = Arc<SfcIndex<D, T, C>>;

/// The version of a cell found at some level: `None` payload = tombstone.
pub(crate) type Version<'a, const D: usize, T> = Option<(Point<D>, &'a T)>;

/// An inclusive curve-index interval, as produced by
/// [`BoxRegion::curve_intervals`].
type Interval = (CurveIndex, CurveIndex);

/// One level's query hits, in ascending key order (the order every scan
/// visits them in).
type LevelHits<'a, const D: usize, T> = Vec<(CurveIndex, Version<'a, D, T>)>;

/// How the planner executes (or skips) one level of a box query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelStrategy {
    /// Walk the box's precomputed curve intervals with galloped seeks.
    Intervals,
    /// BIGMIN key-range jumping scan (Morton order only).
    Bigmin,
    /// Skipped wholesale: the level's key range or point AABB cannot
    /// intersect the box.
    Pruned,
}

impl fmt::Display for LevelStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LevelStrategy::Intervals => "intervals",
            LevelStrategy::Bigmin => "bigmin",
            LevelStrategy::Pruned => "pruned",
        })
    }
}

/// The per-level execution plan for one box query — see the module docs
/// for how it is chosen and
/// [`ShardedSfcStore::plan_box_query`](crate::ShardedSfcStore::plan_box_query)
/// for inspecting it.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Cells in the query box.
    pub volume: u128,
    /// Strategy for the memtable level (`None` when the captured
    /// memtable was empty).
    pub memtable: Option<LevelStrategy>,
    /// Strategy per immutable run, oldest first.
    pub runs: Vec<LevelStrategy>,
    /// The box's exact curve intervals, when the planner decided to
    /// decompose.
    intervals: Option<Vec<Interval>>,
}

impl QueryPlan {
    /// Number of curve intervals the box decomposed into, or `None` if the
    /// planner skipped decomposition (large Morton-order boxes).
    pub fn interval_count(&self) -> Option<usize> {
        self.intervals.as_ref().map(Vec::len)
    }
}

/// `true` iff the planner should decompose a box of this volume into exact
/// curve intervals for this curve.
pub(crate) fn should_decompose<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    volume: u128,
) -> bool {
    curve.as_morton().is_none() || volume <= INTERVAL_VOLUME_CUTOFF
}

/// How a kNN verification ball is executed.
pub(crate) enum KnnBallPlan {
    /// Walk exactly these intervals on every level (zero overscan).
    Exact(Vec<Interval>),
    /// Hand the ball to the adaptive box planner with this decomposition
    /// (`None` = BIGMIN jumps only).
    Planned(Option<Vec<Interval>>),
}

/// The one rule every kNN path — one shard's levels, the fan-out, its
/// parallel twin — decomposes its verification ball by: balls up to
/// [`KNN_BALL_INTERVALS_CUTOFF`] cells walk their exact intervals, larger
/// ones go through the box planner's own decompose decision.
pub(crate) fn plan_knn_ball<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    ball: &BoxRegion<D>,
) -> KnnBallPlan {
    let volume = ball.volume();
    if volume <= KNN_BALL_INTERVALS_CUTOFF {
        KnnBallPlan::Exact(ball.curve_intervals(curve))
    } else {
        KnnBallPlan::Planned(should_decompose(curve, volume).then(|| ball.curve_intervals(curve)))
    }
}

thread_local! {
    /// Reusable kNN candidate scratch: a max-heap of the best `k` squared
    /// candidate distances seen so far, shared across all levels (and all
    /// shards) of one query and reused across queries — candidate
    /// collection allocates nothing after warm-up.
    static KNN_HEAP: RefCell<BinaryHeap<u64>> = const { RefCell::new(BinaryHeap::new()) };
}

/// Offers a squared distance to the top-k max-heap.
#[inline]
pub(crate) fn offer(heap: &mut BinaryHeap<u64>, k: usize, dist_sq: u64) {
    if heap.len() < k {
        heap.push(dist_sq);
    } else if dist_sq < *heap.peek().expect("non-empty: len >= k >= 1") {
        heap.pop();
        heap.push(dist_sq);
    }
}

/// The verification radius bounded by the heap's k-th best candidate
/// distance, or the whole grid if fewer than `k` live candidates exist —
/// possible only when the queried structure holds fewer than `k` live
/// records.
pub(crate) fn radius_from_heap<const D: usize>(
    grid: sfc_core::Grid<D>,
    heap: &BinaryHeap<u64>,
    k: usize,
) -> u32 {
    if heap.len() >= k {
        (*heap.peek().expect("k >= 1") as f64).sqrt().ceil() as u32
    } else {
        (grid.side() - 1) as u32
    }
}

/// A borrowed view of one captured shard's levels: the newest level (the
/// memtable image, when it holds anything) over a stack of immutable
/// runs, oldest first.
pub(crate) struct LevelsView<'a, const D: usize, T, C: SpaceFillingCurve<D>> {
    pub curve: &'a C,
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

    /// Collects the merged per-level versions into the final result.
    fn collect_merged(
        merged: BTreeMap<CurveIndex, Version<'a, D, T>>,
        mut stats: QueryStats,
    ) -> (Vec<StoreEntryRef<'a, D, T>>, QueryStats) {
        let out: Vec<StoreEntryRef<'a, D, T>> = merged
            .into_iter()
            .filter_map(|(key, version)| {
                version.map(|(point, payload)| StoreEntryRef {
                    key,
                    point,
                    payload,
                })
            })
            .collect();
        stats.reported = out.len() as u64;
        (out, stats)
    }

    /// Merges per-level hit lists (each ascending in key, ordered newest
    /// level first) into the final newest-wins result. A k-way merge over
    /// a handful of already-sorted vectors — `O(levels)` per output row
    /// with zero per-row allocation, replacing the old per-hit `BTreeMap`
    /// insertion that dominated query time on large result sets.
    fn merge_level_hits(
        levels: Vec<LevelHits<'a, D, T>>,
        mut stats: QueryStats,
    ) -> (Vec<StoreEntryRef<'a, D, T>>, QueryStats) {
        let mut pos = vec![0usize; levels.len()];
        let upper: usize = levels.iter().map(Vec::len).sum();
        let mut out: Vec<StoreEntryRef<'a, D, T>> = Vec::with_capacity(upper);
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
            let mut winner: Option<Version<'a, D, T>> = None;
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
        stats.reported = out.len() as u64;
        (out, stats)
    }

    /// `true` iff the run cannot contribute to keys within `[lo, hi]`.
    fn run_outside_span(run: &Run<D, T, C>, lo: CurveIndex, hi: CurveIndex) -> bool {
        if run.is_empty() {
            return true;
        }
        run.key_at(run.len() - 1) < lo || run.blocks().fence(0) > hi
    }

    /// Picks the planner strategy for one run, given the curve span the
    /// query covers, the query box (for AABB pruning, when known), and the
    /// decomposed interval count (when available). `morton_adaptive` is
    /// set when both strategies are on the table for this run.
    fn run_strategy(
        run: &Run<D, T, C>,
        span: (CurveIndex, CurveIndex),
        b: Option<&BoxRegion<D>>,
        interval_count: Option<usize>,
        morton_adaptive: bool,
    ) -> LevelStrategy {
        if Self::run_outside_span(run, span.0, span.1) {
            return LevelStrategy::Pruned;
        }
        if let Some(b) = b {
            if run.blocks().run_disjoint(b) {
                return LevelStrategy::Pruned;
            }
        }
        match interval_count {
            None => LevelStrategy::Bigmin,
            Some(count) if morton_adaptive => {
                // Slots the run holds inside the span, at fence-array
                // search cost. A run smaller than the interval list is
                // cheaper to jump-scan than to seek once per interval.
                let lo_pos = run.lower_bound(span.0);
                let hi_pos = run.lower_bound(span.1 + 1);
                let span_slots = hi_pos - lo_pos;
                if span_slots == 0 {
                    LevelStrategy::Pruned
                } else if span_slots < count {
                    LevelStrategy::Bigmin
                } else {
                    LevelStrategy::Intervals
                }
            }
            Some(_) => LevelStrategy::Intervals,
        }
    }

    /// Builds the per-level execution plan for a box query, adopting
    /// already-decomposed (possibly shard-clipped) intervals instead of
    /// recomputing them. `intervals == None` means the planner decided
    /// against decomposition (Morton order, large box).
    pub(crate) fn plan_box_with(
        &self,
        b: &BoxRegion<D>,
        intervals: Option<Vec<Interval>>,
    ) -> QueryPlan {
        let volume = b.volume();
        let z = self.curve.as_morton();
        let interval_count = intervals.as_ref().map(Vec::len);
        // The curve span the query covers: Z(lo)..Z(hi) under Morton
        // order, else the hull of the interval list.
        let span = match z {
            Some(z) => (z.encode(b.lo()), z.encode(b.hi())),
            None => {
                let iv = intervals.as_ref().expect("non-Morton curves decompose");
                interval_hull(iv).unwrap_or((1, 0))
            }
        };
        let morton_adaptive = z.is_some();
        let runs = self
            .runs
            .iter()
            .map(|run| Self::run_strategy(run, span, Some(b), interval_count, morton_adaptive))
            .collect();
        let memtable = self.memtable.map(|mem| match interval_count {
            None => LevelStrategy::Bigmin,
            // The same size-vs-interval-count tradeoff as for runs, with
            // the memtable's total size standing in for its span slots.
            Some(count) if morton_adaptive && mem.len() < count => LevelStrategy::Bigmin,
            Some(_) => LevelStrategy::Intervals,
        });
        QueryPlan {
            volume,
            memtable,
            runs,
            intervals,
        }
    }

    /// Executes a box-query plan: every level is scanned with its chosen
    /// strategy into its own ascending hit list, pruned levels charge
    /// their zone-map blocks to `blocks_pruned`, and the lists k-way merge
    /// newest-wins.
    pub(crate) fn execute_plan(
        &self,
        b: &BoxRegion<D>,
        plan: &QueryPlan,
    ) -> (Vec<StoreEntryRef<'a, D, T>>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut levels: Vec<LevelHits<'a, D, T>> =
            Vec::with_capacity(self.runs.len() + usize::from(self.memtable.is_some()));
        if let (Some(mem), Some(strategy)) = (self.memtable, plan.memtable) {
            let mut hits: LevelHits<'a, D, T> = Vec::new();
            match strategy {
                LevelStrategy::Intervals => Self::mem_interval_scan(
                    mem,
                    plan.intervals.as_deref().expect("planned intervals"),
                    &mut stats,
                    |key, version| hits.push((key, version)),
                ),
                LevelStrategy::Bigmin => {
                    let z = self
                        .curve
                        .as_morton()
                        .expect("bigmin plans are Morton-only");
                    Self::mem_bigmin_scan(mem, z, b, &mut stats, |key, version| {
                        hits.push((key, version))
                    });
                }
                LevelStrategy::Pruned => {}
            }
            levels.push(hits);
        }
        for (run, &strategy) in self.runs.iter().zip(&plan.runs).rev() {
            let mut hits: LevelHits<'a, D, T> = Vec::new();
            match strategy {
                LevelStrategy::Pruned => stats.blocks_pruned += run.blocks().blocks() as u64,
                LevelStrategy::Intervals => {
                    let intervals = plan.intervals.as_deref().expect("planned intervals");
                    interval_scan(run.blocks(), intervals, &mut stats, |i, key, point| {
                        hits.push((key, run.payload_at(i).map(|t| (point, t))));
                    });
                }
                LevelStrategy::Bigmin => {
                    let z = self
                        .curve
                        .as_morton()
                        .expect("bigmin plans are Morton-only");
                    bigmin_scan(z, run.blocks(), b, &mut stats, |i, key, point| {
                        hits.push((key, run.payload_at(i).map(|t| (point, t))));
                    });
                }
            }
            levels.push(hits);
        }
        Self::merge_level_hits(levels, stats)
    }

    /// Scans the memtable for keys inside the intervals, surfacing each
    /// version to `sink` in ascending key order.
    fn mem_interval_scan(
        mem: &'a SeqTable<D, T>,
        intervals: &[Interval],
        stats: &mut QueryStats,
        mut sink: impl FnMut(CurveIndex, Version<'a, D, T>),
    ) {
        for &(lo, hi) in intervals {
            stats.seeks += 1;
            for (key, slot) in mem.range_iter(lo, hi) {
                stats.scanned += 1;
                sink(key, mem_version(slot));
            }
        }
    }

    /// Sequential memtable range walk with BIGMIN jumps (Morton order),
    /// surfacing each version to `sink` in ascending key order.
    fn mem_bigmin_scan(
        mem: &'a SeqTable<D, T>,
        z: &ZCurve<D>,
        b: &BoxRegion<D>,
        stats: &mut QueryStats,
        mut sink: impl FnMut(CurveIndex, Version<'a, D, T>),
    ) {
        let zmin = z.encode(b.lo());
        let zmax = z.encode(b.hi());
        stats.seeks += 1;
        let mut cur = zmin;
        'memtable: loop {
            let mut range = mem.range_iter(cur, zmax);
            loop {
                let Some((key, slot)) = range.next() else {
                    break 'memtable;
                };
                stats.scanned += 1;
                if b.contains(&slot.0) {
                    sink(key, mem_version(slot));
                } else {
                    match bigmin(z, key, zmin, zmax) {
                        Some(next) => {
                            stats.seeks += 1;
                            cur = next;
                            break;
                        }
                        None => break 'memtable,
                    }
                }
            }
        }
    }

    /// Scans every level for keys inside the given inclusive curve-index
    /// intervals (sorted ascending, as produced by
    /// [`BoxRegion::curve_intervals`]), merging versions newest-wins. Runs
    /// whose key range misses the interval hull are pruned wholesale.
    pub(crate) fn query_intervals(
        &self,
        intervals: &[Interval],
    ) -> (Vec<StoreEntryRef<'a, D, T>>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut levels: Vec<LevelHits<'a, D, T>> =
            Vec::with_capacity(self.runs.len() + usize::from(self.memtable.is_some()));
        let span = interval_hull(intervals).unwrap_or((1, 0));
        // Newest level first: the merge keeps the first version seen.
        if let Some(mem) = self.memtable {
            let mut hits: LevelHits<'a, D, T> = Vec::new();
            Self::mem_interval_scan(mem, intervals, &mut stats, |key, version| {
                hits.push((key, version))
            });
            levels.push(hits);
        }
        for run in self.runs.iter().rev() {
            if Self::run_outside_span(run, span.0, span.1) {
                stats.blocks_pruned += run.blocks().blocks() as u64;
                continue;
            }
            let mut hits: LevelHits<'a, D, T> = Vec::new();
            interval_scan(run.blocks(), intervals, &mut stats, |i, key, point| {
                hits.push((key, run.payload_at(i).map(|t| (point, t))));
            });
            levels.push(hits);
        }
        Self::merge_level_hits(levels, stats)
    }

    /// The pre-zone-map interval query (whole-column seeks, no run
    /// pruning): reference implementation for differential tests and the
    /// baseline the benches compare against.
    pub(crate) fn query_intervals_plain(
        &self,
        intervals: &[Interval],
    ) -> (Vec<StoreEntryRef<'a, D, T>>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut merged: BTreeMap<CurveIndex, Version<'a, D, T>> = BTreeMap::new();
        if let Some(mem) = self.memtable {
            Self::mem_interval_scan(mem, intervals, &mut stats, |key, version| {
                merged.entry(key).or_insert(version);
            });
        }
        for run in self.runs.iter().rev() {
            interval_scan_plain(run.blocks(), intervals, &mut stats, |i, key, point| {
                merged
                    .entry(key)
                    .or_insert_with(|| run.payload_at(i).map(|t| (point, t)));
            });
        }
        Self::collect_merged(merged, stats)
    }

    /// Collects live kNN candidates from every level into the top-k
    /// distance heap: per level, walk outward from the query key's
    /// position on both sides, **widening past tombstoned and shadowed
    /// slots** until `k` live candidates are bracketed on that side (or
    /// the level is exhausted), covering at least `window` slots per side
    /// unless the block summaries certify further slots useless.
    ///
    /// The block summaries sharpen the walk three ways:
    ///
    /// * **levels are visited biggest first** — the densest level almost
    ///   always holds the true nearest neighbors, so the heap's k-th best
    ///   is tight before the small levels are even looked at;
    /// * **all-dead blocks are skipped** without touching a slot — a
    ///   tombstone-heavy neighborhood costs one summary check per 64
    ///   slots instead of 64 payload probes;
    /// * once the heap holds `k` candidates, a side walk **skips any
    ///   block whose AABB distance lower bound exceeds the current k-th
    ///   best** — no slot of it can tighten the verification radius, so
    ///   the block costs one summary check instead of up to 64 decoded
    ///   slots. The walk *continues* past such a block (curve order is
    ///   not distance order, so nearer blocks may still lie further out),
    ///   crediting the block's live slots to the stop condition exactly
    ///   as scanning them would have.
    pub(crate) fn knn_collect(
        &self,
        q: Point<D>,
        key: CurveIndex,
        k: usize,
        window: usize,
        heap: &mut BinaryHeap<u64>,
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
                None => self.knn_collect_memtable(q, key, k, window, heap, stats),
                Some(run_idx) => self.knn_collect_run(q, key, k, window, run_idx, heap, stats),
            }
        }
    }

    /// The memtable side of [`knn_collect`](Self::knn_collect).
    fn knn_collect_memtable(
        &self,
        q: Point<D>,
        key: CurveIndex,
        k: usize,
        window: usize,
        heap: &mut BinaryHeap<u64>,
        stats: &mut QueryStats,
    ) {
        let mem = self.memtable.expect("caller checked");
        stats.seeks += 1;
        let mut live = 0usize;
        let mut slots = 0usize;
        for (_ck, slot) in mem.iter_rev_below(key) {
            slots += 1;
            stats.scanned += 1;
            if slot.1.is_some() {
                offer(heap, k, q.euclidean_sq(&slot.0));
                live += 1;
            }
            if live >= k && slots >= window {
                break;
            }
        }
        live = 0;
        slots = 0;
        for (_ck, slot) in mem.iter_from(key) {
            slots += 1;
            stats.scanned += 1;
            if slot.1.is_some() {
                offer(heap, k, q.euclidean_sq(&slot.0));
                live += 1;
            }
            if live >= k && slots >= window {
                break;
            }
        }
    }

    /// One run's side walks of [`knn_collect`](Self::knn_collect),
    /// block at a time.
    #[allow(clippy::too_many_arguments)]
    fn knn_collect_run(
        &self,
        q: Point<D>,
        key: CurveIndex,
        k: usize,
        window: usize,
        run_idx: usize,
        heap: &mut BinaryHeap<u64>,
        stats: &mut QueryStats,
    ) {
        let run = &self.runs[run_idx];
        let blocks = run.blocks();
        let mut cur = BlockCursor::new(blocks);
        stats.seeks += 1;
        let pos = run.lower_bound(key);
        // Walk left (descending keys), block at a time.
        let mut live = 0usize;
        let mut slots = 0usize;
        let mut i = pos;
        while i > 0 && !(live >= k && slots >= window) {
            let block = blocks.block_of(i - 1);
            let range = blocks.block_range(block);
            if blocks.is_all_dead(block) {
                stats.blocks_pruned += 1;
                slots += i - range.start;
                i = range.start;
                continue;
            }
            if heap.len() >= k && blocks.min_dist_sq(block, &q) > *heap.peek().expect("len >= k") {
                // Skip, don't stop: every slot here is at least as far as
                // the k-th best, so scanning would count each live slot
                // without changing the heap — credit them and move on.
                stats.blocks_pruned += 1;
                live += blocks.live_in(block, range.start..i) as usize;
                slots += i - range.start;
                i = range.start;
                continue;
            }
            stats.blocks_scanned += 1;
            let dec = cur.decoded(block);
            while i > range.start && !(live >= k && slots >= window) {
                i -= 1;
                slots += 1;
                stats.scanned += 1;
                if blocks.is_live_slot(i) {
                    let j = i - range.start;
                    live += usize::from(self.knn_offer_slot(
                        q,
                        dec.keys[j],
                        dec.point(j),
                        run_idx,
                        k,
                        heap,
                    ));
                }
            }
        }
        // Walk right (ascending keys), block at a time.
        live = 0;
        slots = 0;
        let mut i = pos;
        while i < run.len() && !(live >= k && slots >= window) {
            let block = blocks.block_of(i);
            let range = blocks.block_range(block);
            if blocks.is_all_dead(block) {
                stats.blocks_pruned += 1;
                slots += range.end - i;
                i = range.end;
                continue;
            }
            if heap.len() >= k && blocks.min_dist_sq(block, &q) > *heap.peek().expect("len >= k") {
                stats.blocks_pruned += 1;
                live += blocks.live_in(block, i..range.end) as usize;
                slots += range.end - i;
                i = range.end;
                continue;
            }
            stats.blocks_scanned += 1;
            let dec = cur.decoded(block);
            while i < range.end && !(live >= k && slots >= window) {
                slots += 1;
                stats.scanned += 1;
                if blocks.is_live_slot(i) {
                    let j = i - range.start;
                    live += usize::from(self.knn_offer_slot(
                        q,
                        dec.keys[j],
                        dec.point(j),
                        run_idx,
                        k,
                        heap,
                    ));
                }
                i += 1;
            }
        }
        stats.blocks_decoded += cur.decodes;
    }

    /// Offers one non-tombstone run slot as a kNN candidate, returning
    /// whether it counts as a live candidate for the walk's stop
    /// condition. The expensive shadowed-above probe (one lookup per newer
    /// level) runs **only when the slot could actually enter the top-k
    /// heap**: a candidate no closer than the current k-th best cannot
    /// tighten the radius whether or not it is still visible, so it is
    /// counted and skipped — with the biggest level walked first, this
    /// reduces liveness probes from one per scanned slot to a handful per
    /// query.
    fn knn_offer_slot(
        &self,
        q: Point<D>,
        key: CurveIndex,
        point: Point<D>,
        run_idx: usize,
        k: usize,
        heap: &mut BinaryHeap<u64>,
    ) -> bool {
        let dist_sq = q.euclidean_sq(&point);
        if heap.len() >= k && dist_sq >= *heap.peek().expect("len >= k") {
            return true;
        }
        if self.shadowed_above(key, run_idx) {
            return false;
        }
        offer(heap, k, dist_sq);
        true
    }

    /// The pre-zone-map kNN candidate collection: fixed slot windows
    /// widened past dead slots, no block skipping, candidates gathered
    /// into a vector. Reference for differential tests and baseline
    /// benches.
    pub(crate) fn knn_candidates_plain(
        &self,
        q: Point<D>,
        key: CurveIndex,
        k: usize,
        window: usize,
        stats: &mut QueryStats,
    ) -> Vec<(u64, CurveIndex)> {
        let mut candidates: Vec<(u64, CurveIndex)> = Vec::new();
        if let Some(mem) = self.memtable {
            stats.seeks += 1;
            let mut live = 0usize;
            let mut slots = 0usize;
            for (ck, slot) in mem.iter_rev_below(key) {
                slots += 1;
                stats.scanned += 1;
                if slot.1.is_some() {
                    candidates.push((q.euclidean_sq(&slot.0), ck));
                    live += 1;
                }
                if live >= k && slots >= window {
                    break;
                }
            }
            live = 0;
            slots = 0;
            for (ck, slot) in mem.iter_from(key) {
                slots += 1;
                stats.scanned += 1;
                if slot.1.is_some() {
                    candidates.push((q.euclidean_sq(&slot.0), ck));
                    live += 1;
                }
                if live >= k && slots >= window {
                    break;
                }
            }
        }
        for (run_idx, run) in self.runs.iter().enumerate().rev() {
            stats.seeks += 1;
            let pos = run.lower_bound(key);
            let mut cur = BlockCursor::new(run.blocks());
            let mut live = 0usize;
            let mut slots = 0usize;
            let mut i = pos;
            while i > 0 && !(live >= k && slots >= window) {
                i -= 1;
                slots += 1;
                stats.scanned += 1;
                let ck = cur.key(i);
                if run.is_live_slot(i) && !self.shadowed_above(ck, run_idx) {
                    candidates.push((q.euclidean_sq(&cur.point(i)), ck));
                    live += 1;
                }
            }
            live = 0;
            slots = 0;
            let mut i = pos;
            while i < run.len() && !(live >= k && slots >= window) {
                slots += 1;
                stats.scanned += 1;
                let ck = cur.key(i);
                if run.is_live_slot(i) && !self.shadowed_above(ck, run_idx) {
                    candidates.push((q.euclidean_sq(&cur.point(i)), ck));
                    live += 1;
                }
                i += 1;
            }
            stats.blocks_decoded += cur.decodes;
        }
        candidates
    }

    /// A lazy k-way merge of all levels in curve order, newest-wins, with
    /// tombstones suppressed.
    pub(crate) fn iter(&self) -> SnapshotIter<'a, D, T> {
        SnapshotIter {
            mem: self.memtable.map(|mem| mem.iter().peekable()),
            runs: self
                .runs
                .iter()
                .map(|run| RunCursor {
                    blocks: run.blocks(),
                    payloads: run.payloads(),
                    dec: Box::default(),
                    dec_block: usize::MAX,
                    pos: 0,
                })
                .collect(),
        }
    }
}

impl<'a, const D: usize, T> LevelsView<'a, D, T, ZCurve<D>> {
    /// Box query by BIGMIN-jumping key-range scans (Tropf & Herzog):
    /// zone-accelerated [`bigmin_scan`] per run (runs pruned by key range
    /// and AABB) plus an equivalent jumping scan over the memtable's key
    /// range. Z curve only; needs no per-query `O(volume)` preprocessing.
    pub(crate) fn query_box_bigmin(
        &self,
        b: &BoxRegion<D>,
    ) -> (Vec<StoreEntryRef<'a, D, T>>, QueryStats) {
        let zmin = self.curve.encode(b.lo());
        let zmax = self.curve.encode(b.hi());
        let mut stats = QueryStats::default();
        let mut levels: Vec<LevelHits<'a, D, T>> =
            Vec::with_capacity(self.runs.len() + usize::from(self.memtable.is_some()));
        if let Some(mem) = self.memtable {
            let mut hits: LevelHits<'a, D, T> = Vec::new();
            Self::mem_bigmin_scan(mem, self.curve, b, &mut stats, |key, version| {
                hits.push((key, version))
            });
            levels.push(hits);
        }
        for run in self.runs.iter().rev() {
            if Self::run_outside_span(run, zmin, zmax) || run.blocks().run_disjoint(b) {
                stats.blocks_pruned += run.blocks().blocks() as u64;
                continue;
            }
            let mut hits: LevelHits<'a, D, T> = Vec::new();
            bigmin_scan(self.curve, run.blocks(), b, &mut stats, |i, key, point| {
                hits.push((key, run.payload_at(i).map(|t| (point, t))));
            });
            levels.push(hits);
        }
        Self::merge_level_hits(levels, stats)
    }

    /// The pre-zone-map BIGMIN query (no run pruning, whole-tail jump
    /// searches): reference implementation for differential tests and the
    /// baseline the benches compare against.
    pub(crate) fn query_box_bigmin_plain(
        &self,
        b: &BoxRegion<D>,
    ) -> (Vec<StoreEntryRef<'a, D, T>>, QueryStats) {
        let mut stats = QueryStats::default();
        let mut merged: BTreeMap<CurveIndex, Version<'a, D, T>> = BTreeMap::new();
        if let Some(mem) = self.memtable {
            Self::mem_bigmin_scan(mem, self.curve, b, &mut stats, |key, version| {
                merged.entry(key).or_insert(version);
            });
        }
        for run in self.runs.iter().rev() {
            bigmin_scan_plain(self.curve, run.blocks(), b, &mut stats, |i, key, point| {
                merged
                    .entry(key)
                    .or_insert_with(|| run.payload_at(i).map(|t| (point, t)));
            });
        }
        Self::collect_merged(merged, stats)
    }
}

/// The canonical kNN result order: Euclidean distance to `q`, ties
/// broken by curve key. Every kNN path — and every `knn_linear` ground
/// truth, borrowed or owned — must rank with exactly this comparator.
pub(crate) fn distance_key_order<const D: usize>(
    q: &Point<D>,
    a: (&Point<D>, CurveIndex),
    b: (&Point<D>, CurveIndex),
) -> std::cmp::Ordering {
    q.euclidean_sq(a.0)
        .cmp(&q.euclidean_sq(b.0))
        .then(a.1.cmp(&b.1))
}

/// Ranks entries by [`distance_key_order`] and keeps the `k` nearest.
pub(crate) fn rank_by_distance<const D: usize, T>(
    mut all: Vec<StoreEntryRef<'_, D, T>>,
    q: Point<D>,
    k: usize,
) -> Vec<StoreEntryRef<'_, D, T>> {
    all.sort_by(|a, b| distance_key_order(&q, (&a.point, a.key), (&b.point, b.key)));
    all.truncate(k);
    all
}

/// The hull `[first.lo, last.hi]` of a sorted inclusive interval list —
/// the curve span a query over those intervals can touch. `None` for an
/// empty list; callers that need a span either way use the canonical
/// empty sentinel `(1, 0)` (lo > hi prunes everything).
pub(crate) fn interval_hull(intervals: &[Interval]) -> Option<Interval> {
    match (intervals.first(), intervals.last()) {
        (Some(&(lo, _)), Some(&(_, hi))) => Some((lo, hi)),
        _ => None,
    }
}

/// The verification radius for a kNN query: the k-th best candidate
/// distance (squared distances sorted ascending, truncated to `k`), or
/// the whole grid if fewer than `k` live candidates were found — possible
/// only when the queried structure holds fewer than `k` live records,
/// thanks to the widened candidate windows.
pub(crate) fn verification_radius<const D: usize>(
    grid: sfc_core::Grid<D>,
    candidates: &[(u64, CurveIndex)],
    k: usize,
) -> u32 {
    if candidates.len() >= k {
        (candidates[k - 1].0 as f64).sqrt().ceil() as u32
    } else {
        (grid.side() - 1) as u32
    }
}

/// The kNN machinery shared with the shard router: the scratch heap, the
/// offer primitive, and the radius bound.
pub(crate) fn with_knn_heap<R>(f: impl FnOnce(&mut BinaryHeap<u64>) -> R) -> R {
    KNN_HEAP.with(|cell| {
        let mut heap = cell.borrow_mut();
        heap.clear();
        f(&mut heap)
    })
}

/// A forward-only cursor over one run's compressed blocks and dense
/// payload column, decoding one block at a time as the merge advances.
struct RunCursor<'a, const D: usize, T> {
    blocks: &'a BlockStore<D>,
    payloads: &'a [T],
    /// Decode buffer holding block `dec_block` (`usize::MAX` = none yet).
    dec: Box<DecodedBlock<D>>,
    dec_block: usize,
    pos: usize,
}

impl<'a, const D: usize, T> RunCursor<'a, D, T> {
    /// Ensures the block holding `pos` is decoded into the buffer.
    fn fill(&mut self) {
        let block = self.blocks.block_of(self.pos);
        if self.dec_block != block {
            self.blocks.decode_into(block, &mut self.dec);
            self.dec_block = block;
        }
    }

    /// The key under the cursor, or `None` past the end of the run.
    fn peek_key(&mut self) -> Option<CurveIndex> {
        if self.pos >= self.blocks.len() {
            return None;
        }
        self.fill();
        Some(self.dec.keys[self.pos % BLOCK_SLOTS])
    }

    /// Reads the version under the cursor (`None` payload = tombstone)
    /// and advances past it.
    fn take(&mut self) -> (Point<D>, Option<&'a T>) {
        self.fill();
        let point = self.dec.point(self.pos % BLOCK_SLOTS);
        let slot = self
            .blocks
            .is_live_slot(self.pos)
            .then(|| &self.payloads[self.blocks.rank(self.pos)]);
        self.pos += 1;
        (point, slot)
    }
}

/// A peekable walk of the memtable level.
type MemIter<'a, const D: usize, T> = std::iter::Peekable<crate::memtable::Iter<'a, SeqSlot<D, T>>>;

/// Iterator over the live records of one captured shard in curve order —
/// what [`ShardedSnapshot::iter`](crate::ShardedSnapshot::iter) chains
/// shard after shard.
pub(crate) struct SnapshotIter<'a, const D: usize, T> {
    /// `None` when the captured memtable was empty.
    mem: Option<MemIter<'a, D, T>>,
    /// Oldest → newest, like the shard's run stack.
    runs: Vec<RunCursor<'a, D, T>>,
}

impl<const D: usize, T> fmt::Debug for SnapshotIter<'_, D, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotIter")
            .field(
                "levels",
                &(self.runs.len() + usize::from(self.mem.is_some())),
            )
            .finish_non_exhaustive()
    }
}

impl<'a, const D: usize, T> Iterator for SnapshotIter<'a, D, T> {
    type Item = StoreEntryRef<'a, D, T>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let mut min: Option<CurveIndex> = self
                .mem
                .as_mut()
                .and_then(|mem| mem.peek().map(|&(key, _)| key));
            for cursor in &mut self.runs {
                if let Some(key) = cursor.peek_key() {
                    min = Some(min.map_or(key, |m| m.min(key)));
                }
            }
            let min = min?;
            // Advance every level holding the min key; later (newer)
            // levels overwrite, and the memtable overwrites last.
            let mut winner: Option<(Point<D>, Option<&'a T>)> = None;
            for cursor in self.runs.iter_mut() {
                if cursor.peek_key() == Some(min) {
                    winner = Some(cursor.take());
                }
            }
            if let Some(mem) = self.mem.as_mut() {
                if mem.peek().map(|&(key, _)| key) == Some(min) {
                    let (_, slot) = mem.next().expect("peeked");
                    winner = Some((slot.0, slot.1.as_ref()));
                }
            }
            let (point, slot) = winner.expect("min key came from some level");
            if let Some(payload) = slot {
                return Some(StoreEntryRef {
                    key: min,
                    point,
                    payload,
                });
            }
            // Tombstone: the cell is dead in the snapshot; keep going.
        }
    }
}
