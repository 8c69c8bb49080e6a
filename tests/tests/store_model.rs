//! Model-based testing of the store engine: random interleavings of
//! insert / update / delete / flush / compact / rebalance are replayed
//! against a plain `BTreeMap<CurveIndex, payload>` model at every shard
//! count from 1 to 4, and every observable view of the store — point
//! gets, live count, iteration, box queries (beside the static index's
//! raw interval walk over a snapshot), and kNN (against a linear scan that
//! shares no code with the engine) — must agree with the model at every
//! checkpoint, live and through a snapshot, and byte-for-byte across shard
//! counts. Tiny memtable capacities force many flushes and merges, so
//! tombstones routinely end up in *newer runs shadowing older ones*, the
//! case single-level tests can't reach. Z and Hilbert stores run every
//! interleaving; every shipped curve runs through a type-erased store at
//! one and three shards.

use proptest::prelude::*;
use sfc_core::{
    CurveIndex, CurveKind, Grid, HilbertCurve, Point, SharedCurve, SpaceFillingCurve, ZCurve,
};
use sfc_index::BoxRegion;
use sfc_integration::{oracle, test_rng};
use sfc_store::{BatchOp, ShardedSfcStore, StoreEntry, StoreEntryRef};
use std::collections::BTreeMap;
use std::sync::Arc;

type Model = BTreeMap<CurveIndex, (Point<2>, u32)>;
type Store<C> = ShardedSfcStore<2, u32, C>;
type Triple = (CurveIndex, Point<2>, u32);

/// The shard counts every interleaving runs at; the first is the 1-shard
/// store the others must equal byte for byte.
const PARTS: [usize; 4] = [1, 2, 3, 4];

fn stores_at<C: SpaceFillingCurve<2> + Clone>(
    curve: &C,
    parts: &[usize],
    cap: usize,
) -> Vec<Store<C>> {
    parts
        .iter()
        .map(|&p| ShardedSfcStore::with_memtable_capacity(curve.clone(), p, cap))
        .collect()
}

fn owned(v: &[StoreEntry<2, u32>]) -> Vec<Triple> {
    v.iter().map(|e| (e.key, e.point, e.payload)).collect()
}

fn borrowed(v: &[StoreEntryRef<'_, 2, u32>]) -> Vec<Triple> {
    v.iter().map(|e| (e.key, e.point, *e.payload)).collect()
}

/// One random operation of the interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32, u32, u32),
    Delete(u32, u32),
    Flush,
    Compact,
    Rebalance,
}

fn random_ops(len: usize, side: u32, seed: u64) -> Vec<Op> {
    use rand::Rng;
    let mut rng = test_rng(seed);
    (0..len)
        .map(|i| {
            let x = rng.gen_range(0..side);
            let y = rng.gen_range(0..side);
            match rng.gen_range(0..12u32) {
                // Deletes are frequent enough to seed plenty of tombstones.
                0..=6 => Op::Insert(x, y, i as u32),
                7..=9 => Op::Delete(x, y),
                10 => {
                    if rng.gen_range(0..4u32) == 0 {
                        Op::Compact
                    } else {
                        Op::Flush
                    }
                }
                // Rebalances are frequent enough that records routinely
                // migrate between shards mid-interleaving (a no-op at one
                // shard).
                11 => Op::Rebalance,
                _ => unreachable!(),
            }
        })
        .collect()
}

/// Applies one op to the model and to every store, which must all report
/// the visibility the model does.
fn apply<C: SpaceFillingCurve<2> + Clone>(stores: &[Store<C>], model: &mut Model, op: Op) {
    match op {
        Op::Insert(x, y, v) => {
            let p = Point::new([x, y]);
            let was_live = model
                .insert(stores[0].curve().index_of(p), (p, v))
                .is_some();
            for store in stores {
                assert_eq!(store.insert(p, v), was_live, "insert visibility");
            }
        }
        Op::Delete(x, y) => {
            let p = Point::new([x, y]);
            let was_live = model.remove(&stores[0].curve().index_of(p)).is_some();
            for store in stores {
                assert_eq!(store.delete(p), was_live, "delete visibility");
            }
        }
        Op::Flush => stores.iter().for_each(|s| s.flush()),
        Op::Compact => stores.iter().for_each(|s| s.compact()),
        Op::Rebalance => stores.iter().for_each(|s| {
            s.rebalance(1e-9);
        }),
    }
}

/// The one checker: every observable view of `store` against the model —
/// live (owned results) and through a snapshot (borrowed results), on any
/// curve. Returns everything it read, in a fixed order, so stores at
/// different shard counts can be compared byte for byte.
fn check_against_model<C: SpaceFillingCurve<2> + Clone>(
    store: &Store<C>,
    model: &Model,
    seed: u64,
) -> Vec<Vec<Triple>> {
    use rand::Rng;
    let grid = store.curve().grid();
    let snap = store.snapshot();
    let mut read: Vec<Vec<Triple>> = Vec::new();
    assert_eq!(store.len(), model.len(), "live count");
    assert_eq!(snap.len(), model.len(), "snapshot live count");

    // Iteration reproduces the model exactly, in key order.
    let expected: Vec<Triple> = model.iter().map(|(&k, &(p, v))| (k, p, v)).collect();
    assert_eq!(owned(&store.iter().collect::<Vec<_>>()), expected, "iter");
    assert_eq!(
        borrowed(&snap.iter().collect::<Vec<_>>()),
        expected,
        "snapshot iter"
    );

    // Point gets agree on hits, shadowed cells, and misses.
    let mut rng = test_rng(seed ^ 0x5eed);
    for _ in 0..40 {
        let p = grid.random_cell(&mut rng);
        let want = model.get(&store.curve().index_of(p)).map(|&(_, v)| v);
        assert_eq!(store.get(p), want, "get({p})");
        assert_eq!(snap.get(p).copied(), want, "snapshot get({p})");
    }

    // Box queries match the filtered model, live and frozen, and so does
    // the static index's raw walk of the box's curve intervals.
    let index = snap.to_index();
    for _ in 0..8 {
        let a = grid.random_cell(&mut rng);
        let b = grid.random_cell(&mut rng);
        let lo = Point::new([a.coord(0).min(b.coord(0)), a.coord(1).min(b.coord(1))]);
        let hi = Point::new([a.coord(0).max(b.coord(0)), a.coord(1).max(b.coord(1))]);
        let region = BoxRegion::new(lo, hi);
        let want: Vec<Triple> = expected
            .iter()
            .filter(|(_, p, _)| region.contains(p))
            .copied()
            .collect();
        let (walked, stats) = index.query_intervals(&region.curve_intervals(store.curve()));
        assert_eq!(stats.reported as usize, walked.len());
        let (planned, stats) = store.query_box(&region);
        assert_eq!(stats.reported as usize, planned.len());
        let paths = [
            walked
                .iter()
                .map(|e| (e.key, e.point, *e.payload))
                .collect(),
            owned(&planned),
            borrowed(&snap.query_box(&region).0),
        ];
        for (i, got) in paths.iter().enumerate() {
            assert_eq!(got, &want, "box path {i} on {region:?}");
        }
        read.push(want);
    }

    // kNN over the merged view is exact.
    for _ in 0..5 {
        let q = grid.random_cell(&mut rng);
        let k = rng.gen_range(1..6usize);
        read.push(check_knn(store, q, k));
    }
    read
}

/// The kNN part of the checker: `store.knn(q, k)` and `snap.knn(q, k)`
/// against the linear scan of the store's and the snapshot's `iter()`,
/// byte for byte. Returns what it read.
fn check_knn<C: SpaceFillingCurve<2> + Clone>(
    store: &Store<C>,
    q: Point<2>,
    k: usize,
) -> Vec<Triple> {
    let snap = store.snapshot();
    let (got, stats) = store.knn(q, k, 3);
    let want = oracle::knn_linear(owned(&store.iter().collect::<Vec<_>>()), q, k);
    assert_eq!(owned(&got), want, "knn k={k} q={q}");
    assert_eq!(stats.reported as usize, k.min(store.len()));
    assert_eq!(
        oracle::knn_linear(borrowed(&snap.iter().collect::<Vec<_>>()), q, k),
        want,
        "snapshot iter, ranked"
    );
    assert_eq!(
        borrowed(&snap.knn(q, k, 3).0),
        want,
        "snapshot knn k={k} q={q}"
    );
    want
}

/// Runs the checker on every store; all must have read the same bytes as
/// the first (the 1-shard store).
fn check_all<C: SpaceFillingCurve<2> + Clone>(stores: &[Store<C>], model: &Model, seed: u64) {
    let one = check_against_model(&stores[0], model, seed);
    for store in &stores[1..] {
        let many = check_against_model(store, model, seed);
        assert_eq!(many, one, "{} shards vs 1 shard", store.parts());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Z-curve store vs model at 1–4 shards, the planner (BIGMIN skips)
    /// cross-checked against the raw interval walk on every checkpoint.
    #[test]
    fn z_store_matches_btreemap_model(seed in any::<u64>(), cap in 1usize..32) {
        let grid = Grid::<2>::new(4).unwrap();
        let stores = stores_at(&ZCurve::over(grid), &PARTS, cap);
        let mut model = Model::new();
        let ops = random_ops(300, 16, seed);
        for (i, chunk) in ops.chunks(60).enumerate() {
            for &op in chunk {
                apply(&stores, &mut model, op);
            }
            check_all(&stores, &model, seed.wrapping_add(i as u64));
        }
    }

    /// The same interleavings hold for a non-Morton curve (Hilbert), where
    /// the planner skips by the box's intervals.
    #[test]
    fn hilbert_store_matches_btreemap_model(seed in any::<u64>(), cap in 1usize..24) {
        let grid = Grid::<2>::new(4).unwrap();
        let stores = stores_at(&HilbertCurve::over(grid), &PARTS, cap);
        let mut model = Model::new();
        for &op in &random_ops(250, 16, seed) {
            apply(&stores, &mut model, op);
        }
        check_all(&stores, &model, seed);
        // After a major compaction every shard is a single tombstone-free
        // run and the store still equals the model.
        for store in &stores {
            store.compact();
            let runs = store.shard_run_lens();
            prop_assert!(runs.iter().all(|r| r.len() <= 1));
            prop_assert_eq!(runs.iter().flatten().sum::<usize>(), model.len());
        }
        check_all(&stores, &model, seed ^ 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A store at a random shard count vs the 1-shard store vs the model
    /// under random insert / update / delete / flush / compact /
    /// **rebalance** interleavings: every observable view must be
    /// byte-identical to the 1-shard store's (and therefore to the model).
    #[test]
    fn sharded_store_matches_single_store_and_model(
        seed in any::<u64>(),
        cap in 1usize..24,
        parts in 1usize..5,
    ) {
        let grid = Grid::<2>::new(4).unwrap();
        let stores = stores_at(&ZCurve::over(grid), &[1, parts], cap);
        let mut model = Model::new();
        let ops = random_ops(300, 16, seed);
        for (i, chunk) in ops.chunks(75).enumerate() {
            for &op in chunk {
                apply(&stores, &mut model, op);
            }
            check_all(&stores, &model, seed.wrapping_add(i as u64));
        }
        // A final rebalance + compaction sweep leaves everything intact.
        apply(&stores, &mut model, Op::Rebalance);
        apply(&stores, &mut model, Op::Compact);
        check_all(&stores, &model, seed ^ 0xfe);
    }
}

/// A box around the cells on both sides of shard boundary `boundary`
/// (the first key of a shard), widened by up to three cells on every side
/// — so it may reach past the grid edge, which the store clips.
fn straddling_box(
    curve: &SharedCurve<2>,
    boundary: CurveIndex,
    rng: &mut impl rand::Rng,
) -> BoxRegion<2> {
    let (a, b) = (curve.point_of(boundary - 1), curve.point_of(boundary));
    let lo = [0, 1].map(|i| {
        a.coord(i)
            .min(b.coord(i))
            .saturating_sub(rng.gen_range(0..4u32))
    });
    let hi = [0, 1].map(|i| a.coord(i).max(b.coord(i)) + rng.gen_range(0..4u32));
    BoxRegion::new(Point::new(lo), Point::new(hi))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every shipped curve, type-erased as a `SharedCurve<2>`, at one and
    /// three shards: the per-cell decompositions of the simple and snake
    /// curves, sliced across shards, are held to the model like Z (BIGMIN)
    /// and Gray and Hilbert (hierarchical intervals). A tiny memtable
    /// makes several runs with tombstones across them. Boxes straddle the
    /// three-shard store's boundaries (which rebalances move), some reach
    /// past the grid edge; `query_box` (live and on a snapshot) and `knn`
    /// must equal the linear references over the model.
    #[test]
    fn every_curve_store_matches_the_model(seed in any::<u64>(), cap in 2usize..10) {
        use rand::Rng;
        for kind in CurveKind::ALL {
            let curve: SharedCurve<2> = Arc::from(kind.build::<2>(4).unwrap());
            let stores = stores_at(&curve, &[1, 3], cap);
            let mut model = Model::new();
            let mut rng = test_rng(seed ^ 0xb0c5);
            for (i, chunk) in random_ops(240, 16, seed).chunks(80).enumerate() {
                for &op in chunk {
                    apply(&stores, &mut model, op);
                }
                let entries: Vec<Triple> = model.iter().map(|(&k, &(p, v))| (k, p, v)).collect();
                let partition = stores[1].partition();
                let mut boxes: Vec<BoxRegion<2>> = (1..partition.parts())
                    .map(|j| partition.range(j).start)
                    .filter(|&boundary| boundary > 0 && boundary < curve.grid().n())
                    .map(|boundary| straddling_box(&curve, boundary, &mut rng))
                    .collect();
                boxes.push(BoxRegion::new(Point::new([9, 2]), Point::new([30, 17])));
                for store in &stores {
                    let snap = store.snapshot();
                    for b in &boxes {
                        let want = oracle::box_linear(entries.iter().copied(), b);
                        let what = format!("{kind} {} shards, chunk {i}, box {b:?}", store.parts());
                        prop_assert_eq!(&owned(&store.query_box(b).0), &want, "live {}", &what);
                        prop_assert_eq!(&borrowed(&snap.query_box(b).0), &want, "snapshot {}", &what);
                    }
                    for _ in 0..3 {
                        let q = curve.grid().random_cell(&mut rng);
                        let k = rng.gen_range(1..6usize);
                        let want = oracle::knn_linear(entries.iter().copied(), q, k);
                        let what = format!("{kind} {} shards, knn k={k} q={q}", store.parts());
                        prop_assert_eq!(&owned(&store.knn(q, k, 3).0), &want, "live {}", &what);
                        prop_assert_eq!(&borrowed(&snap.knn(q, k, 3).0), &want, "snapshot {}", &what);
                    }
                }
            }
        }
    }
}

/// One action of the batched differential interleaving: a whole batch of
/// `(x, y, Some(v) | None)` records, or a store-wide maintenance op.
#[derive(Debug, Clone)]
enum BatchAction {
    Batch(Vec<(u32, u32, Option<u32>)>),
    Flush,
    Compact,
    Rebalance,
}

fn random_batch_actions(len: usize, side: u32, seed: u64) -> Vec<BatchAction> {
    use rand::Rng;
    let mut rng = test_rng(seed);
    (0..len)
        .map(|i| match rng.gen_range(0..8u32) {
            0..=5 => {
                let n = rng.gen_range(1..=10usize);
                // Confined to a quarter of the grid so batches routinely
                // write the same cell twice — the last-wins case.
                BatchAction::Batch(
                    (0..n)
                        .map(|j| {
                            let x = rng.gen_range(0..side / 2);
                            let y = rng.gen_range(0..side / 2);
                            let v = if rng.gen_range(0..4u32) == 3 {
                                None
                            } else {
                                Some((i * 100 + j) as u32)
                            };
                            (x, y, v)
                        })
                        .collect(),
                )
            }
            6 => BatchAction::Flush,
            7 => {
                if rng.gen_range(0..3u32) == 0 {
                    BatchAction::Rebalance
                } else {
                    BatchAction::Compact
                }
            }
            _ => unreachable!(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential: `apply_batch` is observably equivalent to applying
    /// the same ops one-by-one in slice order — at one shard and at
    /// several, interleaved with flushes, compactions, and rebalances,
    /// and including batches that write the same cell twice (the later op
    /// must win despite the internal key sort).
    #[test]
    fn batched_writes_match_per_record_application(
        seed in any::<u64>(),
        cap in 1usize..24,
        parts in 1usize..5,
    ) {
        let grid = Grid::<2>::new(4).unwrap();
        let curve = ZCurve::over(grid);
        let batched = stores_at(&curve, &[1, parts], cap);
        // The per-record twins replay every batch op individually.
        let per_record = stores_at(&curve, &[1, parts], cap);
        let mut model = Model::new();
        let actions = random_batch_actions(80, 16, seed);
        for (i, chunk) in actions.chunks(20).enumerate() {
            for action in chunk {
                match action {
                    BatchAction::Batch(recs) => {
                        let ops: Vec<BatchOp<2, u32>> = recs
                            .iter()
                            .map(|&(x, y, v)| {
                                let p = Point::new([x, y]);
                                match v {
                                    Some(v) => BatchOp::Insert(p, v),
                                    None => BatchOp::Delete(p),
                                }
                            })
                            .collect();
                        batched.iter().for_each(|s| s.apply_batch(&ops));
                        for &(x, y, v) in recs {
                            let op = match v {
                                Some(v) => Op::Insert(x, y, v),
                                None => Op::Delete(x, y),
                            };
                            apply(&per_record, &mut model, op);
                        }
                    }
                    BatchAction::Flush => {
                        batched.iter().chain(&per_record).for_each(|s| s.flush());
                    }
                    BatchAction::Compact => {
                        batched.iter().chain(&per_record).for_each(|s| s.compact());
                    }
                    BatchAction::Rebalance => {
                        batched.iter().chain(&per_record).for_each(|s| {
                            s.rebalance(1e-9);
                        });
                    }
                }
            }
            // Full query coverage for the batched stores (vs the model)…
            check_all(&batched, &model, seed.wrapping_add(i as u64));
            // …and byte-identical iteration against the per-record twins.
            for (b, r) in batched.iter().zip(&per_record) {
                prop_assert_eq!(
                    owned(&b.iter().collect::<Vec<_>>()),
                    owned(&r.iter().collect::<Vec<_>>()),
                    "{} shards: batch vs per-record",
                    b.parts()
                );
            }
        }
    }
}

/// Tombstone-heavy interleavings: deletes dominate, so runs end up mostly
/// (sometimes entirely) tombstones and zone-map blocks routinely go
/// all-dead. Every observable view — box (beside the static index's raw
/// interval walk), kNN, iter — must stay byte-identical to the model.
fn random_tombstone_heavy_ops(len: usize, side: u32, seed: u64) -> Vec<Op> {
    use rand::Rng;
    let mut rng = test_rng(seed);
    (0..len)
        .map(|i| {
            // Confine writes to a narrow band so deletes actually hit
            // earlier inserts instead of missing at random.
            let x = rng.gen_range(0..side / 2);
            let y = rng.gen_range(0..side / 2);
            match rng.gen_range(0..10u32) {
                0..=2 => Op::Insert(x, y, i as u32),
                3..=8 => Op::Delete(x, y),
                9 => Op::Flush,
                _ => unreachable!(),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tombstone_heavy_store_matches_model(
        seed in any::<u64>(),
        cap in 1usize..16,
    ) {
        let grid = Grid::<2>::new(4).unwrap();
        let stores = stores_at(&ZCurve::over(grid), &PARTS, cap);
        let mut model = Model::new();
        let ops = random_tombstone_heavy_ops(400, 16, seed);
        for (i, chunk) in ops.chunks(100).enumerate() {
            for &op in chunk {
                apply(&stores, &mut model, op);
            }
            check_all(&stores, &model, seed.wrapping_add(i as u64));
        }
    }
}

/// Deterministic all-dead-block shape: a curve-contiguous region is bulk
/// inserted, flushed into a run, then deleted cell by cell and flushed
/// again — the tombstone run consists of several *entirely dead* zone-map
/// blocks shadowing the bottom run. Box queries must still honor the
/// tombstones (no resurrection), kNN candidate collection must skip the
/// dead blocks.
#[test]
fn all_dead_blocks_shadow_correctly_and_are_skipped_by_knn() {
    let grid = Grid::<2>::new(5).unwrap(); // 32×32
    let z = ZCurve::over(grid);
    let store = ShardedSfcStore::with_memtable_capacity(z, 1, 4096);
    // The Z quadrant [0,16)² is exactly the contiguous key range 0..256.
    let quadrant = BoxRegion::new(Point::new([0, 0]), Point::new([15, 15]));
    for (i, cell) in quadrant.cells().enumerate() {
        store.insert(cell, i as u32);
    }
    // Background records elsewhere keep the store non-empty afterwards —
    // and make the bottom run big enough (≥ 2 × 256) that the size-tiered
    // policy does NOT merge the upcoming tombstone run into it.
    let background = BoxRegion::new(Point::new([16, 0]), Point::new([31, 31]));
    for (i, cell) in background.cells().enumerate() {
        store.insert(cell, 10_000 + i as u32);
    }
    store.flush();
    for cell in quadrant.cells() {
        store.delete(cell);
    }
    store.flush();
    // The newest run now holds 256 contiguous tombstones — at block size
    // 64 that is at least 4 entirely dead blocks.
    assert_eq!(
        store.shard_run_lens(),
        vec![vec![768, 256]],
        "tombstone run must survive"
    );
    assert_eq!(store.len(), 512);

    let flat = borrowed;
    // Box queries over the dead region: every strategy agrees on "empty".
    let snap = store.snapshot();
    let index = snap.to_index();
    let (iv, _) = index.query_intervals(&quadrant.curve_intervals(snap.curve()));
    let (pl, _) = snap.query_box(&quadrant);
    assert!(iv.is_empty(), "tombstoned region resurrected: {:?}", iv[0]);
    assert!(pl.is_empty(), "tombstoned region resurrected: {:?}", pl[0]);
    // Iteration sees only the live half.
    assert_eq!(store.iter().count(), 512);
    assert!(store.iter().all(|e| e.point.coord(0) >= 16));

    // kNN from inside the dead region: exact, and the dead blocks are
    // observably skipped.
    let q = Point::new([5, 5]);
    for k in [1usize, 4, 10] {
        let (got, stats) = snap.knn(q, k, 3);
        let want = oracle::knn_linear(flat(&snap.iter().collect::<Vec<_>>()), q, k);
        assert_eq!(flat(&got), want, "knn k={k}");
        assert!(
            stats.blocks_pruned > 0,
            "kNN near all-dead blocks must skip some: {stats:?}"
        );
    }
}

/// The kNN shapes a candidate walk gets wrong first, each built by hand
/// and put through the checker's kNN part at every shard count (a
/// 16×16 Z grid cut uniformly: two shards are the lower and upper half of
/// the key space, four are the quadrants). A wrong candidate set shows as
/// a verification radius that is too small, hence as a result that is
/// short or not the nearest — which `oracle::knn_linear` catches.
#[test]
fn knn_must_fail_cases() {
    let grid = Grid::<2>::new(4).unwrap();
    let z = ZCurve::over(grid);
    // Far filler in every quadrant, so no shard is empty and every store
    // holds well over `k` records.
    let filler = |stores: &[Store<ZCurve<2>>], model: &mut Model| {
        for (i, (x, y)) in [
            (0, 0),
            (1, 0),
            (15, 0),
            (14, 1),
            (0, 15),
            (1, 14),
            (15, 15),
            (14, 14),
        ]
        .into_iter()
        .enumerate()
        {
            apply(stores, model, Op::Insert(x, y, 900 + i as u32));
        }
    };
    let check = |stores: &[Store<ZCurve<2>>], model: &Model, q: Point<2>, k: usize, what: &str| {
        let want: Vec<Triple> = {
            let mut all: Vec<Triple> = model.iter().map(|(&key, &(p, v))| (key, p, v)).collect();
            all.sort_by_key(|&(key, p, _)| (q.euclidean_sq(&p), key));
            all.truncate(k);
            all
        };
        for store in stores {
            let got = check_knn(store, q, k);
            assert_eq!(got, want, "{what}: {} shards, k={k}", store.parts());
        }
    };

    // q on a shard boundary, its true neighbours all across it: (7, 7) is
    // the last cell of the first quadrant; the three cells around the
    // grid's centre belong to the other three.
    let stores = stores_at(&z, &PARTS, 4);
    let mut model = Model::new();
    filler(&stores, &mut model);
    for (i, (x, y)) in [(8, 7), (7, 8), (8, 8)].into_iter().enumerate() {
        apply(&stores, &mut model, Op::Insert(x, y, i as u32));
    }
    apply(&stores, &mut model, Op::Flush);
    check(
        &stores,
        &model,
        Point::new([7, 7]),
        3,
        "neighbours across the boundary",
    );

    // A home shard with fewer live records than k: the first quadrant
    // holds one live record among tombstones, so collection has to widen
    // to the other shards to find k genuine candidates.
    let stores = stores_at(&z, &PARTS, 4);
    let mut model = Model::new();
    filler(&stores, &mut model);
    for (x, y) in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)] {
        apply(&stores, &mut model, Op::Insert(x, y, 10 * x + y));
    }
    apply(&stores, &mut model, Op::Flush);
    for (x, y) in [(0, 0), (1, 0), (2, 2), (3, 2), (2, 3), (3, 3)] {
        apply(&stores, &mut model, Op::Delete(x, y));
    }
    check(
        &stores,
        &model,
        Point::new([3, 3]),
        4,
        "home shard short of k",
    );

    // The same cell live in two runs and the memtable: counted three
    // times it would fill a k = 3 heap by itself and shrink the ball onto
    // that one cell.
    let stores = stores_at(&z, &PARTS, 64);
    let mut model = Model::new();
    filler(&stores, &mut model);
    for (x, y) in [(5, 5), (6, 5), (5, 7), (9, 5), (5, 10)] {
        apply(&stores, &mut model, Op::Insert(x, y, 10 * x + y));
    }
    apply(&stores, &mut model, Op::Flush);
    apply(&stores, &mut model, Op::Insert(5, 5, 1));
    apply(&stores, &mut model, Op::Flush);
    apply(&stores, &mut model, Op::Insert(5, 5, 2));
    assert!(
        stores[0].shard_run_lens()[0].len() >= 2 && stores[0].shard_memtable_lens()[0] == 1,
        "want the cell in two runs and the memtable: {:?}",
        stores[0].shard_run_lens()
    );
    for k in [2, 3] {
        check(
            &stores,
            &model,
            Point::new([5, 6]),
            k,
            "one cell live in three levels",
        );
    }

    // The nearest slot of the bottom run shadowed by a tombstone, once in
    // a newer run and once in the memtable: offered as a candidate it
    // would bound the ball below the true nearest.
    let stores = stores_at(&z, &PARTS, 64);
    let mut model = Model::new();
    filler(&stores, &mut model);
    for (x, y) in [(10, 10), (10, 11), (13, 10), (10, 14)] {
        apply(&stores, &mut model, Op::Insert(x, y, 10 * x + y));
    }
    apply(&stores, &mut model, Op::Flush);
    apply(&stores, &mut model, Op::Delete(10, 10));
    apply(&stores, &mut model, Op::Flush);
    apply(&stores, &mut model, Op::Delete(10, 11));
    for k in [1, 2] {
        check(
            &stores,
            &model,
            Point::new([10, 10]),
            k,
            "tombstoned nearest",
        );
    }

    // k larger than the store: everything, ranked.
    check(
        &stores,
        &model,
        Point::new([10, 10]),
        50,
        "k past the store",
    );
    assert_eq!(
        check_knn(&stores[0], Point::new([10, 10]), 50).len(),
        model.len()
    );
}

/// Deterministic regression for the canonical tombstone-across-runs shape:
/// a key written into the bottom run, tombstoned in a *newer* run, then
/// resurrected in the memtable — every transition observable.
#[test]
fn tombstone_across_runs_lifecycle() {
    let grid = Grid::<2>::new(4).unwrap();
    let store = ShardedSfcStore::with_memtable_capacity(ZCurve::over(grid), 1, 64);
    let p = Point::new([9, 4]);
    // Bottom run holds p …
    store.insert(p, 1u32);
    for i in 0..32u32 {
        store.insert(Point::new([i % 8, i / 8]), 100 + i);
    }
    store.flush();
    assert_eq!(store.get(p), Some(1));
    // … a newer run holds only its tombstone …
    store.delete(p);
    store.flush();
    let runs = store.shard_run_lens().remove(0);
    assert!(runs.len() >= 2, "runs: {runs:?}");
    assert_eq!(store.get(p), None);
    assert!(store.iter().all(|e| e.point != p));
    // … the memtable resurrects it over the tombstone …
    store.insert(p, 3u32);
    assert_eq!(store.get(p), Some(3));
    // … and compaction folds all three versions into one live record.
    store.compact();
    assert_eq!(store.get(p), Some(3));
    assert_eq!(store.shard_run_lens()[0].iter().sum::<usize>(), store.len());
}

/// A key live in the bottom run and tombstoned in a newer run, with no
/// memtable entry, is *not* live: the newest version is the tombstone.
/// Every run's key filter must cover tombstoned slots too — a filter over
/// live slots only turns the tombstone run's probe away, the write path
/// falls through to the bottom run's live version, `insert` reports a
/// replacement and `len()` drifts.
#[test]
fn a_tombstone_in_a_newer_run_shadows_the_bottom_run() {
    let grid = Grid::<2>::new(5).unwrap();
    let curve = ZCurve::over(grid);
    let records: Vec<(Point<2>, u32)> = (0..grid.n())
        .step_by(3)
        .map(|key| (curve.point_of(key), key as u32))
        .collect();
    let total = records.len();
    let store = ShardedSfcStore::bulk_load(curve, 1, records);
    let k = curve.point_of(42);
    assert_eq!(store.get(k), Some(42), "bottom run holds k live");
    assert_eq!(store.len(), total);

    assert!(store.delete(k), "deleting the live bottom-run version");
    assert_eq!(store.len(), total - 1);
    store.flush();
    assert_eq!(
        store.shard_run_lens(),
        vec![vec![total, 1]],
        "bottom run plus a one-tombstone run"
    );
    assert_eq!(store.shard_memtable_lens(), vec![0]);
    assert_eq!(store.get(k), None);
    assert_eq!(store.len(), total - 1);

    assert!(!store.insert(k, 7), "k was tombstoned: nothing replaced");
    assert_eq!(store.len(), total);
    assert_eq!(store.get(k), Some(7));
    assert!(store.delete(k), "the re-inserted k is live");
    assert_eq!(store.len(), total - 1);
    assert_eq!(store.get(k), None);
    assert_eq!(store.iter().count(), store.len());
}
