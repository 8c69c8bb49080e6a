//! Differential model testing of the locality-aware B+tree memtable.
//!
//! Every property drives the B+tree and a plain
//! `BTreeMap<CurveIndex, V>` through the same operation interleavings —
//! insert/update/delete, range and reverse iteration, owned cursors,
//! seq-windowed `retain` drains (the shard flush protocol), copy-on-write
//! `snapshot`s, and `from_sorted` bulk loads — and requires identical
//! observable state at every checkpoint. Key streams come in two flavours, curve-local
//! random walks (the hint-cache fast path) and uniform-random keys (the
//! root-descent slow path), so both code paths face every interleaving.
//!
//! The multi-writer stress rerun at the bottom replays the PR 5
//! publish-before-drain regression (readers must never see a flush gap
//! or time travel) against the new memtable with more writers and a
//! different capacity than the original `concurrency.rs` test.

use proptest::collection;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfc_core::{CurveIndex, Grid, Point, ZCurve};
use sfc_index::BoxRegion;
use sfc_store::memtable::bptree::BPlusTreeMap;
use sfc_store::memtable::SfcMemtable;
use sfc_store::ShardedSfcStore;
use std::collections::BTreeMap;

/// Draws the next key of a stream: a few-cell random walk when `local`
/// (consecutive keys land in the same leaf, exercising the hint cache),
/// uniform over the universe otherwise (every operation descends from
/// the root).
fn next_key(rng: &mut SmallRng, cur: &mut CurveIndex, local: bool, universe: u128) -> CurveIndex {
    if local {
        let step = rng.gen_range(0..7u32) as u128;
        *cur = if rng.gen_range(0..2u32) == 0 {
            (*cur + step) % universe
        } else {
            cur.saturating_sub(step)
        };
        *cur
    } else {
        rng.gen_range(0..universe)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Insert/update/delete/get/range/reverse interleavings agree with
    /// the model exactly, across leaf capacities and key localities.
    #[test]
    fn bptree_matches_btreemap(
        seed in any::<u64>(),
        leaf_cap in 4usize..80,
        local in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe = 600u128;
        let mut tree = BPlusTreeMap::with_leaf_capacity(leaf_cap);
        let mut model: BTreeMap<CurveIndex, u64> = BTreeMap::new();
        let mut cur = universe / 2;
        for step in 0..1_500u64 {
            let k = next_key(&mut rng, &mut cur, local, universe);
            match rng.gen_range(0..12u32) {
                0..=6 => prop_assert_eq!(tree.insert(k, step), model.insert(k, step)),
                7..=8 => prop_assert_eq!(tree.remove(&k), model.remove(&k)),
                9 => prop_assert_eq!(tree.get(&k), model.get(&k)),
                10 => {
                    let hi = k + rng.gen_range(0..48u32) as u128;
                    let got: Vec<_> = tree.range_iter(k, hi).map(|(k, &v)| (k, v)).collect();
                    let want: Vec<_> = model.range(k..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let got: Vec<_> = tree.iter_rev_below(k).map(|(k, &v)| (k, v)).collect();
                    let want: Vec<_> =
                        model.range(..k).rev().map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), model.len());
        }
        let got: Vec<_> = tree.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
        let drained: Vec<_> = tree.into_iter().collect();
        prop_assert_eq!(drained, want);
    }

    /// The shard flush drain: entries carry sequence numbers, and
    /// `retain(seq >= high_water)` after interleaved writes must keep
    /// exactly what the model keeps — including keys overwritten
    /// mid-"flush" whose newer seq must survive the drain.
    #[test]
    fn seq_windowed_drain_matches_model(
        seed in any::<u64>(),
        leaf_cap in 4usize..64,
        local in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe = 400u128;
        // The engine-facing wrapper, exactly as `epoch.rs` uses it.
        let mut tree: SfcMemtable<(u64, u64)> = SfcMemtable::with_leaf_capacity(leaf_cap);
        let mut model: BTreeMap<CurveIndex, (u64, u64)> = BTreeMap::new();
        let mut cur = universe / 2;
        let mut seq = 0u64;
        for _round in 0..12 {
            for _ in 0..rng.gen_range(10..150usize) {
                let k = next_key(&mut rng, &mut cur, local, universe);
                tree.insert(k, (k as u64, seq));
                model.insert(k, (k as u64, seq));
                seq += 1;
            }
            let high_water = seq;
            // "Publish" happened; concurrent writers race the drain.
            for _ in 0..rng.gen_range(0..40usize) {
                let k = next_key(&mut rng, &mut cur, local, universe);
                tree.insert(k, (k as u64, seq));
                model.insert(k, (k as u64, seq));
                seq += 1;
            }
            tree.retain(|_, &(_, s)| s >= high_water);
            model.retain(|_, &mut (_, s)| s >= high_water);
            let got: Vec<_> = tree.iter().map(|(k, &v)| (k, v)).collect();
            let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(tree.len(), model.len());
        }
    }

    /// Owned cursors stay coherent across arbitrary mutation: `value()`
    /// always equals the model's current value at the cursor key, and
    /// `next()`/`prev()` step to exactly the model's neighbouring keys —
    /// whether or not the cursor's own key was removed, split away, or
    /// drained since the cursor was taken.
    #[test]
    fn cursors_track_model_across_mutation(
        seed in any::<u64>(),
        leaf_cap in 4usize..48,
        local in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe = 300u128;
        let mut tree: SfcMemtable<u64> = SfcMemtable::with_leaf_capacity(leaf_cap);
        let mut model: BTreeMap<CurveIndex, u64> = BTreeMap::new();
        let mut cur = universe / 2;
        let mut cursors = Vec::new();
        for step in 0..800u64 {
            let k = next_key(&mut rng, &mut cur, local, universe);
            match rng.gen_range(0..10u32) {
                0..=5 => {
                    tree.insert(k, step);
                    model.insert(k, step);
                }
                6..=7 => {
                    tree.remove(&k);
                    model.remove(&k);
                }
                8 => {
                    if let Some(c) = tree.cursor_seek(k) {
                        cursors.push(c);
                    }
                }
                _ => {
                    // A partial drain invalidates many positions at once.
                    let cutoff = rng.gen_range(0..universe);
                    tree.retain(|key, _| key < cutoff);
                    model.retain(|&key, _| key < cutoff);
                }
            }
            for c in &cursors {
                let key = c.key();
                prop_assert_eq!(c.value(&tree), model.get(&key), "cursor value at {}", key);
                let got_next = c.next(&tree).map(|n| n.key());
                let want_next = model.range(key + 1..).next().map(|(&k, _)| k);
                prop_assert_eq!(got_next, want_next, "cursor next from {}", key);
                let got_prev = c.prev(&tree).map(|p| p.key());
                let want_prev = model.range(..key).next_back().map(|(&k, _)| k);
                prop_assert_eq!(got_prev, want_prev, "cursor prev from {}", key);
            }
            if cursors.len() > 8 {
                cursors.remove(0);
            }
        }
    }

    /// Snapshot isolation: a `snapshot()` equals the model as of its
    /// creation after any later insert, remove, `retain`, `clear` or leaf
    /// split on the live table — and the other way round, since a
    /// snapshot is a full table of its own that can be written to.
    #[test]
    fn snapshots_are_isolated_from_later_writes(
        seed in any::<u64>(),
        leaf_cap in 4usize..48,
        local in any::<bool>(),
    ) {
        type Model = BTreeMap<CurveIndex, u64>;
        fn contents(table: &SfcMemtable<u64>) -> Vec<(CurveIndex, u64)> {
            table.iter().map(|(k, &v)| (k, v)).collect()
        }
        fn expected(model: &Model) -> Vec<(CurveIndex, u64)> {
            model.iter().map(|(&k, &v)| (k, v)).collect()
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let universe = 500u128;
        let mut live: SfcMemtable<u64> = SfcMemtable::with_leaf_capacity(leaf_cap);
        let mut model = Model::new();
        let mut snapshots: Vec<(SfcMemtable<u64>, Model)> = Vec::new();
        let mut cur = universe / 2;
        for step in 0..900u64 {
            let k = next_key(&mut rng, &mut cur, local, universe);
            match rng.gen_range(0..20u32) {
                0..=10 => prop_assert_eq!(live.insert(k, step), model.insert(k, step)),
                11..=13 => prop_assert_eq!(live.remove(&k), model.remove(&k)),
                14 => {
                    let cutoff = rng.gen_range(0..universe);
                    live.retain(|key, _| key >= cutoff);
                    model.retain(|&key, _| key >= cutoff);
                }
                15 => {
                    if rng.gen_range(0..4u32) == 0 {
                        live.clear();
                        model.clear();
                    }
                }
                16..=17 => {
                    snapshots.push((live.snapshot(), model.clone()));
                    if snapshots.len() > 4 {
                        snapshots.remove(0);
                    }
                }
                _ => {
                    // Write to a snapshot: the live table must not notice.
                    if let Some((snap, snap_model)) = snapshots.last_mut() {
                        prop_assert_eq!(snap.insert(k, step), snap_model.insert(k, step));
                        let gone = (k + 1) % universe;
                        prop_assert_eq!(snap.remove(&gone), snap_model.remove(&gone));
                    }
                }
            }
            prop_assert_eq!(live.len(), model.len());
            prop_assert_eq!(live.get(&k), model.get(&k));
            for (snap, snap_model) in &snapshots {
                prop_assert_eq!(snap.len(), snap_model.len());
                prop_assert_eq!(snap.get(&k), snap_model.get(&k));
            }
            if step % 16 == 0 {
                prop_assert_eq!(contents(&live), expected(&model));
                for (snap, snap_model) in &snapshots {
                    prop_assert_eq!(contents(snap), expected(snap_model));
                    let hi = k + 40;
                    let got: Vec<_> = snap.range_iter(k, hi).map(|(k, &v)| (k, v)).collect();
                    let want: Vec<_> = snap_model.range(k..=hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
        }
        prop_assert_eq!(contents(&live), expected(&model));
        for (snap, snap_model) in snapshots {
            prop_assert_eq!(contents(&snap), expected(&snap_model));
            // The owned drain copies out of leaves another table still shares.
            let drained: Vec<_> = snap.into_iter().collect();
            prop_assert_eq!(drained, expected(&snap_model));
        }
        prop_assert_eq!(contents(&live), expected(&model));
    }

    /// `from_sorted` bulk load produces the same tree as one-by-one
    /// insertion: same contents, same iteration, same drain, and it
    /// keeps absorbing writes correctly afterwards.
    #[test]
    fn bulk_load_matches_incremental(
        keys in collection::vec(0u128..2_000, 0..600usize),
        leaf_cap in 4usize..80,
    ) {
        let mut sorted: Vec<CurveIndex> = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let entries: Vec<(CurveIndex, u64)> =
            sorted.iter().map(|&k| (k, k as u64)).collect();
        let bulk =
            BPlusTreeMap::from_sorted_with_capacity(leaf_cap, entries.iter().copied());
        let mut incremental = BPlusTreeMap::with_leaf_capacity(leaf_cap);
        for &k in &keys {
            incremental.insert(k, k as u64);
        }
        prop_assert_eq!(bulk.len(), incremental.len());
        let a: Vec<_> = bulk.iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<_> = incremental.iter().map(|(k, &v)| (k, v)).collect();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a, entries.clone());
        // The bulk-loaded tree is a first-class citizen for mutation.
        let mut bulk = bulk;
        let mut model: BTreeMap<CurveIndex, u64> = entries.iter().copied().collect();
        for &k in keys.iter().rev() {
            prop_assert_eq!(bulk.remove(&k), model.remove(&k));
        }
        prop_assert!(bulk.is_empty());
    }
}

/// The PR 5 publish-before-drain regression, rerun on the B+tree
/// memtable with four writers (two per shard) instead of one: a reader
/// hammering a hot cell through `get` and `query_box` must never find
/// the cell missing (flush gap) or see its value decrease (time
/// travel), while flushes every few writes and periodic compactions
/// exercise the cursor-walk drain under contention.
#[test]
fn multi_writer_flush_gaps_and_time_travel_stress() {
    let grid = Grid::<2>::new(4).unwrap();
    let z = ZCurve::over(grid);
    let store = ShardedSfcStore::with_memtable_capacity(z, 2, 3);
    let hot_a = Point::new([3, 3]);
    let hot_b = Point::new([12, 12]); // routes to the other shard
    store.insert(hot_a, 0u32);
    store.insert(hot_b, 0u32);
    const WRITES: u32 = 2_000;

    std::thread::scope(|scope| {
        let store = &store;
        let mut writers = Vec::new();
        // One writer per shard owns the hot cell (so its observed value
        // is monotone — two independent counters racing on the same cell
        // would legitimately let last-write-wins go backwards); the
        // second writer contends on the same shard's locks and flushes
        // through filler cells only.
        for (hot, filler) in [
            (Some(hot_a), Point::new([5, 2])),
            (None, Point::new([2, 5])),
            (Some(hot_b), Point::new([13, 10])),
            (None, Point::new([10, 13])),
        ] {
            writers.push(scope.spawn(move || {
                for v in 1..=WRITES {
                    if let Some(hot) = hot {
                        store.insert(hot, v);
                    }
                    store.insert(filler, v);
                    if v % 512 == 0 {
                        store.compact();
                    }
                }
            }));
        }
        let ball = BoxRegion::new(Point::new([2, 2]), Point::new([13, 13]));
        let mut last_get = [0u32; 2];
        let mut last_box = [0u32; 2];
        while writers.iter().any(|w| !w.is_finished()) {
            for (i, hot) in [hot_a, hot_b].into_iter().enumerate() {
                let got = store
                    .get(hot)
                    .expect("hot cell vanished: flush gap observed by get()");
                assert!(
                    got >= last_get[i],
                    "get() went backwards: {got} < {}",
                    last_get[i]
                );
                last_get[i] = got;
            }
            let (hits, _) = store.query_box(&ball);
            for (i, hot) in [hot_a, hot_b].into_iter().enumerate() {
                let hit = hits
                    .iter()
                    .find(|e| e.point == hot)
                    .expect("hot cell vanished: flush gap observed by query_box()");
                assert!(
                    hit.payload >= last_box[i],
                    "query_box went backwards: {} < {}",
                    hit.payload,
                    last_box[i]
                );
                last_box[i] = hit.payload;
            }
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
    });
    assert_eq!(store.get(hot_a), Some(WRITES));
    assert_eq!(store.get(hot_b), Some(WRITES));
}
