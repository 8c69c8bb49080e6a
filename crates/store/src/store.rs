//! The engine's value types — live records as queries report them, write
//! batch operations — and the sorted-column bulk-load primitive.

use sfc_core::{CurveIndex, Point, SpaceFillingCurve};
use sfc_index::sort_columns;

use crate::view::RunColumns;

/// Memtable entries a shard buffers before an automatic flush, unless
/// overridden with
/// [`ShardedSfcStore::with_memtable_capacity`](crate::ShardedSfcStore::with_memtable_capacity).
pub const DEFAULT_MEMTABLE_CAPACITY: usize = 4096;

/// A borrowed view of one live record — the multi-level analogue of
/// [`sfc_index::EntryRef`], handed out by
/// [`ShardedSnapshot`](crate::ShardedSnapshot) queries. Tombstoned and
/// superseded versions are never surfaced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreEntryRef<'a, const D: usize, T> {
    /// Curve key of the record's cell.
    pub key: CurveIndex,
    /// The record's cell.
    pub point: Point<D>,
    /// User payload of the newest version.
    pub payload: &'a T,
}

/// An owned live record — what the live store's queries return. A
/// borrowed [`StoreEntryRef`] cannot outlive the per-call capture it
/// points into, so the `&self` query paths of
/// [`ShardedSfcStore`](crate::ShardedSfcStore) clone the payload of every
/// reported hit into one of these instead (the write path already
/// requires `T: Clone`).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry<const D: usize, T> {
    /// Curve key of the record's cell.
    pub key: CurveIndex,
    /// The record's cell.
    pub point: Point<D>,
    /// User payload of the newest version.
    pub payload: T,
}

impl<const D: usize, T: Clone> StoreEntryRef<'_, D, T> {
    /// Clones the referenced payload into an owned [`StoreEntry`].
    pub fn to_owned(&self) -> StoreEntry<D, T> {
        StoreEntry {
            key: self.key,
            point: self.point,
            payload: self.payload.clone(),
        }
    }
}

/// One operation of a write batch — see
/// [`ShardedSfcStore::apply_batch`](crate::ShardedSfcStore::apply_batch).
/// Within a batch, ops on the same cell apply in submission order (the
/// last one wins), exactly as if issued one-by-one.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOp<const D: usize, T> {
    /// Upsert the payload at the cell.
    Insert(Point<D>, T),
    /// Delete the record at the cell (tombstoning it: an older run may
    /// still hold a version).
    Delete(Point<D>),
}

impl<const D: usize, T> BatchOp<D, T> {
    /// The cell the operation targets.
    pub fn point(&self) -> &Point<D> {
        match self {
            BatchOp::Insert(p, _) | BatchOp::Delete(p) => p,
        }
    }
}

/// Sorts a record batch into unique-key bottom-run columns, collapsing
/// records that share a cell newest-wins (later in the iterator = newer)
/// — the bulk-load primitive, using the same sorted-column construction
/// as [`SfcIndex::build`](sfc_index::SfcIndex::build).
pub(crate) fn sorted_unique_columns<const D: usize, T, C: SpaceFillingCurve<D>>(
    curve: &C,
    records: impl IntoIterator<Item = (Point<D>, T)>,
) -> RunColumns<D, T> {
    let (points, payloads): (Vec<Point<D>>, Vec<T>) = records.into_iter().unzip();
    let (keys, points, payloads) = sort_columns(curve, points, payloads);
    let mut columns = RunColumns::with_capacity(keys.len());
    let mut rows = keys.into_iter().zip(points).zip(payloads).peekable();
    while let Some(((key, point), payload)) = rows.next() {
        // The sort is stable, so within an equal-key group the last record
        // is the newest — keep it.
        if rows.peek().is_none_or(|((next, _), _)| *next != key) {
            columns.push((key, point, Some(payload)));
        }
    }
    columns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedSfcStore;
    use rand::{Rng, SeedableRng};
    use sfc_core::{Grid, HilbertCurve, ZCurve};
    use sfc_index::BoxRegion;

    /// The engine at `p = 1`: every test below drives one shard through
    /// the public store, reading borrowed results off `snapshot()`.
    fn one_shard<C: SpaceFillingCurve<2> + Clone>(
        curve: C,
        cap: usize,
    ) -> ShardedSfcStore<2, u32, C> {
        ShardedSfcStore::with_memtable_capacity(curve, 1, cap)
    }

    fn run_lens<C: SpaceFillingCurve<2> + Clone>(store: &ShardedSfcStore<2, u32, C>) -> Vec<usize> {
        store.shard_run_lens().remove(0)
    }

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    /// kNN ground truth: every live record by (distance, key), cut at `k`.
    fn knn_truth<C: SpaceFillingCurve<2> + Clone>(
        store: &ShardedSfcStore<2, u32, C>,
        q: Point<2>,
        k: usize,
    ) -> Vec<StoreEntry<2, u32>> {
        let mut all: Vec<_> = store.iter().collect();
        all.sort_by_key(|e| (q.euclidean_sq(&e.point), e.key));
        all.truncate(k);
        all
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let grid = Grid::<2>::new(4).unwrap();
        let store = one_shard(ZCurve::over(grid), 4);
        let p = Point::new([3, 7]);
        assert_eq!(store.get(p), None);
        assert!(!store.insert(p, 10u32));
        assert_eq!(store.get(p), Some(10));
        assert!(store.insert(p, 20)); // update replaces
        assert_eq!(store.get(p), Some(20));
        assert_eq!(store.len(), 1);
        assert!(store.delete(p));
        assert_eq!(store.get(p), None);
        assert!(store.is_empty());
        assert!(!store.delete(p)); // idempotent
    }

    #[test]
    fn tombstone_shadows_older_run_until_bottom_merge() {
        let grid = Grid::<2>::new(4).unwrap();
        let store = one_shard(ZCurve::over(grid), 1024);
        let p = Point::new([5, 5]);
        store.insert(p, 1u32);
        for i in 0..40u32 {
            store.insert(Point::new([i % 16, i / 16]), 100 + i);
        }
        store.flush(); // run 0 holds p
        store.delete(p);
        store.flush(); // newer run holds the tombstone
        assert_eq!(store.get(p), None, "tombstone shadows the bottom run");
        assert!(store.iter().all(|e| e.point != p));
        let total_before: usize = run_lens(&store).iter().sum();
        store.compact();
        let total_after: usize = run_lens(&store).iter().sum();
        assert!(total_after < total_before, "compaction reclaims the pair");
        assert_eq!(total_after, store.len());
        assert_eq!(store.get(p), None);
    }

    #[test]
    fn bulk_load_is_newest_wins() {
        let grid = Grid::<2>::new(3).unwrap();
        let p = Point::new([2, 2]);
        let store = ShardedSfcStore::bulk_load(
            ZCurve::over(grid),
            1,
            vec![(p, 1u32), (Point::new([0, 1]), 2), (p, 3)],
        );
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(p), Some(3));
    }

    #[test]
    fn queries_match_static_index_on_live_set() {
        let grid = Grid::<2>::new(5).unwrap();
        let mut rng = rng(3);
        let store = one_shard(ZCurve::over(grid), 16);
        for i in 0..620u32 {
            let p = grid.random_cell(&mut rng);
            if i % 5 == 4 {
                store.delete(p);
            } else {
                store.insert(p, i);
            }
        }
        assert!(run_lens(&store).len() >= 2, "want a multi-run store");
        let snap = store.snapshot();
        let static_index = snap.to_index();
        assert_eq!(static_index.len(), store.len());
        for _ in 0..30 {
            let a = grid.random_cell(&mut rng);
            let c = grid.random_cell(&mut rng);
            let lo = Point::new([a.coord(0).min(c.coord(0)), a.coord(1).min(c.coord(1))]);
            let hi = Point::new([a.coord(0).max(c.coord(0)), a.coord(1).max(c.coord(1))]);
            let b = BoxRegion::new(lo, hi);
            let flat = |v: Vec<StoreEntryRef<'_, 2, u32>>| {
                v.into_iter()
                    .map(|e| (e.key, e.point, *e.payload))
                    .collect::<Vec<_>>()
            };
            let flat_idx = |v: Vec<sfc_index::EntryRef<'_, 2, u32>>| {
                v.into_iter()
                    .map(|e| (e.key, e.point, *e.payload))
                    .collect::<Vec<_>>()
            };
            let (bm, _) = snap.query_box(&b);
            let (iv, iv_stats) = static_index.query_intervals(&b.curve_intervals(snap.curve()));
            let expected: Vec<_> = static_index
                .entries()
                .filter(|e| b.contains(&e.point))
                .collect();
            assert_eq!(flat(bm), flat_idx(expected.clone()));
            assert_eq!(flat_idx(iv), flat_idx(expected));
            assert_eq!(iv_stats.reported, iv_stats.reported.min(iv_stats.scanned));
        }
    }

    #[test]
    fn knn_matches_linear_over_merged_view() {
        let grid = Grid::<2>::new(4).unwrap();
        let mut rng = rng(7);
        let store = one_shard(HilbertCurve::over(grid), 8);
        for i in 0..200u32 {
            let p = grid.random_cell(&mut rng);
            if i % 7 == 6 {
                store.delete(p);
            } else {
                store.insert(p, i);
            }
        }
        for _ in 0..25 {
            let q = grid.random_cell(&mut rng);
            for k in [1usize, 4, 9] {
                let (got, stats) = store.knn(q, k, 3);
                let want = knn_truth(&store, q, k);
                let gd: Vec<u128> = got.iter().map(|e| q.euclidean_sq(&e.point)).collect();
                let wd: Vec<u128> = want.iter().map(|e| q.euclidean_sq(&e.point)).collect();
                assert_eq!(gd, wd, "k={k} q={q}");
                assert_eq!(stats.reported as usize, k.min(store.len()));
            }
        }
    }

    #[test]
    fn knn_windows_widen_past_tombstones() {
        // Regression for the candidate-window under-collection: every cell
        // near the query point is deleted across several levels, so a
        // fixed ±window of slots sees only tombstones. The widened windows
        // must still bracket k live candidates per level, keeping the
        // verification ball small — without the fix the radius fell back
        // to the whole grid, scanning every live record.
        let grid = Grid::<2>::new(6).unwrap(); // 64×64
        let store = one_shard(ZCurve::over(grid), 32);
        for x in 0..64u32 {
            for y in 0..64u32 {
                store.insert(Point::new([x, y]), x * 64 + y);
            }
        }
        store.flush();
        let q = Point::new([20, 20]);
        // Delete a Chebyshev-radius-5 neighborhood around q, spread across
        // memtable and freshly flushed runs so tombstones shadow the
        // bottom run from multiple levels.
        let mut deleted = 0u32;
        for cell in BoxRegion::chebyshev_ball(grid, q, 5).cells() {
            store.delete(cell);
            deleted += 1;
            if deleted.is_multiple_of(40) {
                store.flush();
            }
        }
        for k in [1usize, 3, 8] {
            for window in [1usize, 2, 4] {
                let (got, stats) = store.knn(q, k, window);
                let want = knn_truth(&store, q, k);
                let gd: Vec<u128> = got.iter().map(|e| q.euclidean_sq(&e.point)).collect();
                let wd: Vec<u128> = want.iter().map(|e| q.euclidean_sq(&e.point)).collect();
                assert_eq!(gd, wd, "true neighbor dropped: k={k} window={window}");
                // The widened windows bound the verification ball: without
                // widening the ball degenerated to the whole 64×64 grid
                // and scanned all ~4k live records.
                assert!(
                    stats.scanned < 1500,
                    "verification ball degenerated: scanned {} (k={k} window={window})",
                    stats.scanned
                );
            }
        }
    }

    #[test]
    fn query_box_at_end_of_keyspace_full_resolution() {
        // Regression: a box containing the all-max corner of a
        // full-resolution grid (2^32 × 2^32 — curve keys occupy all 64
        // bits) must terminate cleanly, not wrap past the last curve
        // index. Exercises both the memtable jumping scan and the per-run
        // BIGMIN scan.
        let grid = Grid::<2>::new(32).unwrap();
        let z = ZCurve::over(grid);
        let max = u32::MAX;
        let b = BoxRegion::new(Point::new([max - 2, max - 2]), Point::new([max, max]));
        assert_eq!(z.encode(b.hi()), grid.n() - 1, "all-max corner is last key");
        // Memtable-only store: the jumping memtable scan path.
        let mem_store = one_shard(z, 1 << 20);
        // Run-backed store: the run kernel skipping by BIGMIN.
        let run_store = one_shard(z, 4);
        for dx in 0..6u32 {
            for dy in 0..6u32 {
                let p = Point::new([max - dx, max - dy]);
                mem_store.insert(p, dx * 10 + dy);
                run_store.insert(p, dx * 10 + dy);
            }
        }
        assert!(run_lens(&mem_store).is_empty());
        assert!(!run_lens(&run_store).is_empty());
        for store in [&mem_store, &run_store] {
            let (hits, _) = store.query_box(&b);
            assert_eq!(hits.len(), 9, "3×3 corner cells");
            let index = store.snapshot().to_index();
            let (iv, _) = index.query_intervals(&b.curve_intervals(&z));
            assert_eq!(
                hits.iter().map(|e| e.key).collect::<Vec<_>>(),
                iv.iter().map(|e| e.key).collect::<Vec<_>>(),
                "bigmin disagrees with interval strategy at keyspace end"
            );
        }
    }

    #[test]
    fn snapshot_iter_is_sorted_unique_and_live() {
        let grid = Grid::<2>::new(4).unwrap();
        let mut rng = rng(11);
        let store = one_shard(ZCurve::over(grid), 8);
        for i in 0..300u32 {
            let p = grid.random_cell(&mut rng);
            if rng.gen_range(0..4u32) == 0 {
                store.delete(p);
            } else {
                store.insert(p, i);
            }
        }
        let snap = store.snapshot();
        let entries: Vec<(CurveIndex, u32)> = snap.iter().map(|e| (e.key, *e.payload)).collect();
        assert_eq!(entries.len(), store.len());
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "strictly increasing keys");
        }
        for (key, payload) in &entries {
            let p = store.curve().point_of(*key);
            assert_eq!(snap.get(p), Some(payload));
            assert_eq!(store.get(p), Some(*payload));
        }
    }

    #[test]
    fn run_sizes_keep_the_tier_invariant() {
        let grid = Grid::<2>::new(6).unwrap();
        let mut rng = rng(13);
        let store = one_shard(ZCurve::over(grid), 32);
        for i in 0..3_000u32 {
            store.insert(grid.random_cell(&mut rng), i);
        }
        let lens = run_lens(&store);
        for w in lens.windows(2) {
            assert!(w[0] >= 2 * w[1], "size tiers violated: {lens:?}");
        }
        assert!(lens.len() <= 8, "too many runs: {lens:?}");
    }

    #[test]
    fn planner_matches_raw_interval_walk_and_model() {
        let grid = Grid::<2>::new(6).unwrap(); // 64×64
        let mut rng = rng(21);
        let live = one_shard(ZCurve::over(grid), 32);
        let mut model = std::collections::BTreeMap::new();
        for i in 0..2_500u32 {
            let p = grid.random_cell(&mut rng);
            let key = live.curve().encode(p);
            if i % 6 == 5 {
                live.delete(p);
                model.remove(&key);
            } else {
                live.insert(p, i);
                model.insert(key, (p, i));
            }
        }
        assert!(run_lens(&live).len() >= 2, "want a multi-run store");
        let flat = |v: Vec<StoreEntryRef<'_, 2, u32>>| {
            v.into_iter()
                .map(|e| (e.key, e.point, *e.payload))
                .collect::<Vec<_>>()
        };
        let store = live.snapshot();
        let index = store.to_index();
        for _ in 0..40 {
            let a = grid.random_cell(&mut rng);
            let c = grid.random_cell(&mut rng);
            let lo = Point::new([a.coord(0).min(c.coord(0)), a.coord(1).min(c.coord(1))]);
            let hi = Point::new([a.coord(0).max(c.coord(0)), a.coord(1).max(c.coord(1))]);
            let b = BoxRegion::new(lo, hi);
            let want: Vec<_> = model
                .iter()
                .filter(|(_, (p, _))| b.contains(p))
                .map(|(&key, &(p, v))| (key, p, v))
                .collect();
            assert_eq!(flat(store.query_box(&b).0), want, "planner vs model");
            let (walked, _) = index.query_intervals(&b.curve_intervals(store.curve()));
            assert_eq!(
                walked
                    .into_iter()
                    .map(|e| (e.key, e.point, *e.payload))
                    .collect::<Vec<_>>(),
                want,
                "raw interval walk vs model"
            );
            let q = grid.random_cell(&mut rng);
            let truth: Vec<_> = knn_truth(&live, q, 5)
                .into_iter()
                .map(|e| (e.key, e.point, e.payload))
                .collect();
            assert_eq!(flat(store.knn(q, 5, 3).0), truth, "knn vs linear at {q}");
        }
    }

    /// A box outside every run's AABB prunes each run wholesale: not one
    /// seek. The kernel's own block summaries would prune this box too,
    /// so `seeks` is the counter that tells run-level pruning apart.
    #[test]
    fn a_box_outside_every_run_prunes_them_all() {
        // A 1024×1024 grid with only its 8×8 corner filled: `far` misses
        // every run's AABB.
        let grid = Grid::<2>::new(10).unwrap();
        let corner_store = one_shard(ZCurve::over(grid), 8);
        for i in 0..64u32 {
            corner_store.insert(Point::new([i % 8, i / 8]), i);
        }
        corner_store.flush();
        let far = BoxRegion::new(Point::new([900, 900]), Point::new([905, 905]));
        let (hits, stats) = corner_store.query_box(&far);
        assert!(hits.is_empty());
        assert_eq!(stats.seeks, 0, "pruned runs must not seek");
        assert_eq!(stats.scanned, 0, "pruned runs must not scan");
        assert_eq!(stats.blocks_scanned, 0);
        assert_eq!(stats.blocks_decoded, 0);
        assert!(stats.blocks_pruned > 0, "pruning must be observable");
    }

    #[test]
    fn empty_store_behaviour() {
        let grid = Grid::<2>::new(3).unwrap();
        let store: ShardedSfcStore<2, u32, _> = ShardedSfcStore::new(ZCurve::over(grid), 1);
        assert!(store.is_empty());
        assert_eq!(store.iter().count(), 0);
        let b = BoxRegion::new(Point::new([0, 0]), Point::new([7, 7]));
        assert!(store.query_box(&b).0.is_empty());
        assert!(store.knn(Point::new([1, 1]), 3, 2).0.is_empty());
        store.flush();
        store.compact();
        assert!(store.is_empty());
    }
}
