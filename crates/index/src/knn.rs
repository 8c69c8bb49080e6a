//! The kNN candidate walk over one sorted run.
//!
//! An exact kNN read has two halves. The **candidate walk** finds `k`
//! live records near the query and keeps their squared distances in a
//! top-k max-heap; the heap's k-th best bounds a **verification ball**
//! (the Chebyshev ball of that radius holds the Euclidean one), and a box
//! query over the ball finds the exact answer. Any `k` genuine candidates
//! make the answer correct; everything here is about spending less to get
//! a tight radius.
//!
//! This module holds the walk over one run ([`knn_collect_run`]) and the
//! heap helpers around it. A lone [`SfcIndex`](crate::SfcIndex) runs it
//! once; a multi-level store runs it per level, biggest level first,
//! skipping a run that cannot tighten the heap ([`may_tighten`]) and
//! telling the walk which keys a newer level shadows. That `shadowed`
//! callback is the walk's one parameter: a shadowed slot is walked past,
//! neither offered nor counted as live, so a cell live in two levels
//! counts once.

use std::cell::RefCell;
use std::collections::BinaryHeap;

use crate::block::{BlockCursor, BlockStore};
use crate::query::QueryStats;
use sfc_core::{CurveIndex, Grid, Point};

/// What a kNN candidate walk looks for: the `k` nearest live records to
/// `q`, whose curve key is `key`, each side of a run covering at least
/// `window` slots.
#[derive(Debug, Clone, Copy)]
pub struct KnnQuery<const D: usize> {
    /// The query point.
    pub q: Point<D>,
    /// The query point's curve key: where the walk starts.
    pub key: CurveIndex,
    /// How many neighbours are asked for (at least 1).
    pub k: usize,
    /// The slots each side walk covers at least.
    pub window: usize,
}

thread_local! {
    /// Reusable kNN candidate scratch: a max-heap of the best `k` squared
    /// candidate distances seen so far, shared across all levels (and all
    /// shards) of one query and reused across queries — candidate
    /// collection allocates nothing after warm-up.
    static KNN_HEAP: RefCell<BinaryHeap<u128>> = const { RefCell::new(BinaryHeap::new()) };
}

/// Offers a squared distance to the top-k max-heap.
#[inline]
pub fn offer(heap: &mut BinaryHeap<u128>, k: usize, dist_sq: u128) {
    if heap.len() < k {
        heap.push(dist_sq);
    } else if dist_sq < *heap.peek().expect("non-empty: len >= k >= 1") {
        heap.pop();
        heap.push(dist_sq);
    }
}

/// The k-th best squared distance a top-k heap holds, once it holds `k`.
pub fn kth_best(heap: &BinaryHeap<u128>, k: usize) -> Option<u128> {
    (heap.len() >= k).then(|| *heap.peek().expect("k >= 1"))
}

/// The verification radius of a kNN read: `collect` offers candidates to
/// the thread's cleared top-k heap, and the radius is the k-th best's
/// distance, rounded up — or the whole grid when fewer than `k` live
/// candidates were found, possible only when the queried structure holds
/// fewer than `k` live records, thanks to the widened candidate windows.
pub fn verification_radius<const D: usize>(
    grid: Grid<D>,
    k: usize,
    collect: impl FnOnce(&mut BinaryHeap<u128>),
) -> u32 {
    KNN_HEAP.with(|cell| {
        let mut heap = cell.borrow_mut();
        heap.clear();
        collect(&mut heap);
        match kth_best(&heap, k) {
            Some(dist_sq) => (dist_sq as f64).sqrt().ceil() as u32,
            None => (grid.side() - 1) as u32,
        }
    })
}

/// `true` iff a run can be expected to hold a record nearer to `q` than
/// the squared distance `kth`: its AABB reaches inside that distance, and
/// — were its slots spread evenly over its AABB — at least one of them
/// would fall in the ball around `q`. (A run that fails this may still
/// hold such a record; the verification ball finds it either way.)
pub fn may_tighten<const D: usize>(blocks: &BlockStore<D>, q: &Point<D>, kth: u128) -> bool {
    let Some((lo, hi)) = blocks.bounds() else {
        return false;
    };
    if blocks.run_min_dist_sq(q).is_none_or(|d| d >= kth) {
        return false;
    }
    let radius = (kth as f64).sqrt().ceil() as u32;
    let mut expected = blocks.len() as f64;
    for axis in 0..D {
        let (lo, hi, c) = (lo.coord(axis), hi.coord(axis), q.coord(axis));
        // The ball's extent along this axis, inside the AABB (non-empty:
        // the AABB is nearer than the radius).
        let inside = c.saturating_add(radius).min(hi) - c.saturating_sub(radius).max(lo) + 1;
        expected *= f64::from(inside) / (f64::from(hi - lo) + 1.0);
    }
    expected >= 1.0
}

/// One side of a run's kNN candidate walk: where it stands and what it
/// has bracketed so far.
struct SideWalk {
    /// Ascending keys (`at` is the next slot) or descending (`at` is one
    /// past the next slot).
    forward: bool,
    at: usize,
    /// Live candidates bracketed (counted, whether or not they entered
    /// the heap).
    live: usize,
    /// Slots covered, dead ones included.
    slots: usize,
}

/// Collects live kNN candidates from one run into the top-k distance
/// heap: walk outward from the query key's position on both sides,
/// **widening past tombstoned and shadowed slots** until `k` live
/// candidates are bracketed on that side (or the run is exhausted),
/// covering at least `window` slots per side unless the block summaries
/// certify further slots useless. `shadowed(key)` says whether a newer
/// level holds `key` (a lone run passes `|_| false`).
///
/// The walk goes block at a time and **nearest in curve order first**:
/// both sides finish the block around the query key's position before
/// either spills into a neighbouring block — by then the heap has seen
/// the 64 slots nearest the key, and the spill block usually fails the
/// distance bound and is never decoded. The block summaries sharpen it
/// twice:
///
/// * **all-dead blocks are skipped** without touching a slot — a
///   tombstone-heavy neighbourhood costs one summary check per 64 slots
///   instead of 64 payload probes;
/// * a side walk **skips any block whose AABB distance lower bound
///   exceeds the current k-th best**. The walk *continues* past such a
///   block (curve order is not distance order, so nearer blocks may
///   still lie further out), crediting the block's live slots to the
///   stop condition exactly as scanning them would have.
///
/// `shadowed` runs **only for a slot that could enter the heap**: one no
/// closer than the current k-th best cannot tighten the radius whether or
/// not it is still visible, so it is counted and skipped — in a store,
/// with the biggest level walked first, that cuts the liveness probes
/// (one lookup per newer level) to a handful per query.
pub fn knn_collect_run<const D: usize>(
    blocks: &BlockStore<D>,
    query: &KnnQuery<D>,
    shadowed: impl Fn(CurveIndex) -> bool,
    heap: &mut BinaryHeap<u128>,
    stats: &mut QueryStats,
) {
    let KnnQuery { q, k, window, .. } = *query;
    let mut cur = BlockCursor::new(blocks);
    stats.seeks += 1;
    let pos = blocks.lower_bound(query.key);
    let done = |side: &SideWalk| side.live >= k && side.slots >= window;
    // Continues one side's walk for at most `max_blocks` more blocks, or
    // until it is done, or the run ends.
    let mut walk = |side: &mut SideWalk, max_blocks: usize| {
        for _ in 0..max_blocks {
            if done(side) {
                return;
            }
            // The slots of the next block on this side, `at` excluded
            // going down, included going up.
            let (block, span) = if side.forward {
                if side.at >= blocks.len() {
                    return;
                }
                let block = blocks.block_of(side.at);
                (block, side.at..blocks.block_range(block).end)
            } else {
                if side.at == 0 {
                    return;
                }
                let block = blocks.block_of(side.at - 1);
                (block, blocks.block_range(block).start..side.at)
            };
            let past = if side.forward { span.end } else { span.start };
            if blocks.is_all_dead(block) {
                stats.blocks_pruned += 1;
                side.slots += span.len();
                side.at = past;
                continue;
            }
            if kth_best(heap, k).is_some_and(|kth| blocks.min_dist_sq(block, &q) > kth) {
                // Skip, don't stop: every slot here is at least as far as
                // the k-th best, so scanning would count each live slot
                // without changing the heap — credit them and move on.
                stats.blocks_pruned += 1;
                side.live += blocks.live_in(block, span.clone()) as usize;
                side.slots += span.len();
                side.at = past;
                continue;
            }
            stats.blocks_scanned += 1;
            let first = blocks.block_range(block).start;
            let dec = cur.decoded(block);
            for step in 0..span.len() {
                if done(side) {
                    return;
                }
                let i = if side.forward {
                    span.start + step
                } else {
                    span.end - 1 - step
                };
                side.at = if side.forward { i + 1 } else { i };
                side.slots += 1;
                stats.scanned += 1;
                if !blocks.is_live_slot(i) {
                    continue;
                }
                let dist_sq = q.euclidean_sq(&dec.point(i - first));
                if kth_best(heap, k).is_some_and(|kth| dist_sq >= kth) {
                    side.live += 1;
                } else if !shadowed(dec.keys[i - first]) {
                    offer(heap, k, dist_sq);
                    side.live += 1;
                }
            }
        }
    };
    let side = |forward| SideWalk {
        forward,
        at: pos,
        live: 0,
        slots: 0,
    };
    let (mut left, mut right) = (side(false), side(true));
    walk(&mut left, 1);
    walk(&mut right, 1);
    walk(&mut left, usize::MAX);
    walk(&mut right, usize::MAX);
    stats.blocks_decoded += cur.decodes;
}
