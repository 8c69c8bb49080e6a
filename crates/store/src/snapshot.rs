//! One shard's captured levels.
//!
//! A `StoreSnapshot` is what [`Shard::capture`](crate::epoch::Shard)
//! takes under one hold of the shard's `mem` lock: the copy-on-write
//! memtable image (two refcount bumps, nothing copied), the pinned run
//! stack and the live count as of that instant. It is the only per-shard
//! read state in the crate — a live query captures every shard, scans the
//! captures and drops them; [`ShardedSfcStore::snapshot`](crate::ShardedSfcStore::snapshot)
//! packages the same captures as a [`ShardedSnapshot`](crate::ShardedSnapshot)
//! the caller keeps. Nothing is flushed to take one, and once taken it
//! never touches a lock again: a writer that meets a live capture copies
//! the leaf-pointer slab and the one leaf it lands in, a merge reads the
//! pinned runs it replaces without touching them, and the capture's view
//! stays as it was.

use std::sync::Arc;

use sfc_core::SpaceFillingCurve;

use crate::epoch::{RunsEpoch, SeqTable};
use crate::view::LevelsView;

/// One shard's frozen levels — memtable image, run stack, live count —
/// as of the instant the shard was captured. All querying goes through
/// the [`ShardedSnapshot`](crate::ShardedSnapshot) that owns it (which
/// knows the curve and the shard's key range).
#[derive(Debug, Clone)]
pub(crate) struct StoreSnapshot<const D: usize, T, C: SpaceFillingCurve<D> + Clone> {
    /// Newest level: the memtable as it stood at capture.
    mem: SeqTable<D, T>,
    /// The run stack published at capture (tombstones included — reads
    /// merge them away).
    epoch: Arc<RunsEpoch<D, T, C>>,
    /// Live records visible across both.
    live: usize,
}

impl<const D: usize, T, C: SpaceFillingCurve<D> + Clone> StoreSnapshot<D, T, C> {
    pub(crate) fn new(mem: SeqTable<D, T>, epoch: Arc<RunsEpoch<D, T, C>>, live: usize) -> Self {
        Self { mem, epoch, live }
    }

    /// The borrowed multi-level view the query engine runs against. An
    /// empty memtable is no level at all (and charges no phantom memtable
    /// seeks to the query stats).
    pub(crate) fn view(&self) -> LevelsView<'_, D, T, C> {
        LevelsView {
            memtable: (!self.mem.is_empty()).then_some(&self.mem),
            runs: &self.epoch.runs,
        }
    }

    /// Number of live records visible in the capture.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// `true` iff the capture holds no live records.
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Bytes of heap memory behind the capture: the runs' compressed
    /// blocks and dense payload columns plus the memtable's node slabs.
    pub(crate) fn heap_bytes(&self) -> usize {
        let runs: usize = self.epoch.runs.iter().map(|run| run.heap_bytes()).sum();
        runs + self.mem.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ShardedSfcStore, ShardedSnapshot, StoreEntryRef};
    use rand::SeedableRng;
    use sfc_core::{CurveIndex, Grid, Point, SpaceFillingCurve, ZCurve};
    use sfc_index::BoxRegion;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn snapshot_is_send_and_sync() {
        fn assert_send_sync<X: Send + Sync>() {}
        assert_send_sync::<super::StoreSnapshot<2, u32, ZCurve<2>>>();
    }

    #[test]
    fn snapshot_freezes_state_while_writer_continues() {
        let grid = Grid::<2>::new(4).unwrap();
        let store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 1, 8);
        let mut rng = rng(5);
        for i in 0..120u32 {
            store.insert(grid.random_cell(&mut rng), i);
        }
        let frozen = store.snapshot();
        let frozen_entries: Vec<(CurveIndex, u32)> =
            frozen.iter().map(|e| (e.key, *e.payload)).collect();
        assert_eq!(frozen.len(), store.len());

        // Writer churns on: updates, deletes, flushes, a full compaction.
        for i in 0..200u32 {
            let p = grid.random_cell(&mut rng);
            if i % 3 == 0 {
                store.delete(p);
            } else {
                store.insert(p, 1_000 + i);
            }
        }
        store.compact();

        // The snapshot still answers from the pinned state.
        let after: Vec<(CurveIndex, u32)> = frozen.iter().map(|e| (e.key, *e.payload)).collect();
        assert_eq!(frozen_entries, after, "snapshot drifted under writes");
        for (key, payload) in &frozen_entries {
            let p = frozen.curve().point_of(*key);
            assert_eq!(frozen.get(p), Some(payload));
        }
    }

    #[test]
    fn snapshot_queries_match_store_at_snapshot_time() {
        let grid = Grid::<2>::new(4).unwrap();
        let store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 1, 8);
        let mut rng = rng(9);
        for i in 0..250u32 {
            let p = grid.random_cell(&mut rng);
            if i % 5 == 4 {
                store.delete(p);
            } else {
                store.insert(p, i);
            }
        }
        let frozen = store.snapshot();
        let flat = |v: Vec<StoreEntryRef<'_, 2, u32>>| {
            v.into_iter()
                .map(|e| (e.key, e.point, *e.payload))
                .collect::<Vec<_>>()
        };
        let owned = |v: Vec<crate::StoreEntry<2, u32>>| {
            v.into_iter()
                .map(|e| (e.key, e.point, e.payload))
                .collect::<Vec<_>>()
        };
        let index = frozen.to_index();
        for _ in 0..20 {
            let a = grid.random_cell(&mut rng);
            let c = grid.random_cell(&mut rng);
            let lo = Point::new([a.coord(0).min(c.coord(0)), a.coord(1).min(c.coord(1))]);
            let hi = Point::new([a.coord(0).max(c.coord(0)), a.coord(1).max(c.coord(1))]);
            let b = BoxRegion::new(lo, hi);
            let (walked, _) = index.query_intervals(&b.curve_intervals(frozen.curve()));
            let walked: Vec<_> = walked
                .into_iter()
                .map(|e| (e.key, e.point, *e.payload))
                .collect();
            assert_eq!(flat(frozen.query_box(&b).0), walked);
            assert_eq!(owned(store.query_box(&b).0), walked);
            let q = grid.random_cell(&mut rng);
            let gd: Vec<u128> = frozen
                .knn(q, 4, 3)
                .0
                .iter()
                .map(|e| q.euclidean_sq(&e.point))
                .collect();
            let mut wd: Vec<u128> = frozen.iter().map(|e| q.euclidean_sq(&e.point)).collect();
            wd.sort_unstable();
            wd.truncate(4);
            assert_eq!(gd, wd);
        }
        assert_eq!(index.len(), frozen.len());
    }

    #[test]
    fn empty_snapshot() {
        let grid = Grid::<2>::new(3).unwrap();
        let store: ShardedSfcStore<2, u32, _> = ShardedSfcStore::new(ZCurve::over(grid), 1);
        let frozen: ShardedSnapshot<2, u32, _> = store.snapshot();
        assert!(frozen.is_empty());
        assert_eq!(frozen.iter().count(), 0);
        assert!(store.shard_run_lens()[0].is_empty());
        let b = BoxRegion::new(Point::new([0, 0]), Point::new([7, 7]));
        assert!(frozen.to_index().is_empty());
        assert!(frozen.query_box(&b).0.is_empty());
        assert!(frozen.knn(Point::new([1, 1]), 2, 2).0.is_empty());
    }
}
