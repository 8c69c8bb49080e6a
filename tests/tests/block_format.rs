//! Round-trip properties of the compressed columnar block format.
//!
//! Every test packs a sorted key/point/liveness column set through
//! `BlockStore::pack` and checks that decoding — slot accessors, the
//! bulk `decode_into` kernel, and the cursor — reproduces the input
//! byte-for-byte. The generators deliberately steer into the format's
//! corner cases: all-equal keys (width 0), deltas past 64 bits (the raw
//! fallback), ragged tail blocks, and all-tombstone blocks. The byte
//! image (`write_to` / `read_from`) must reproduce every such store
//! exactly, and reject every strict prefix of itself.
//!
//! The in-memory key filter must never turn a stored key away:
//! `find_key` is checked against a linear search over every key of a
//! small key grid and keys outside it, before and after an image round
//! trip, and on a 64 k-key run absent keys must pass the filter at most
//! 3 % of the time.

use proptest::prelude::*;
use sfc_core::{CurveIndex, Point, ZCurve};
use sfc_index::{BlockCursor, BlockStore, DecodedBlock, SfcIndex, BLOCK_SLOTS};

/// Packs the columns and asserts every decode path reproduces them.
fn assert_round_trip(keys: &[CurveIndex], points: &[Point<2>], live: &[bool]) {
    let store = BlockStore::pack(keys, points, |i| live[i]);
    assert_eq!(store.len(), keys.len());
    assert_eq!(
        store.live_len(),
        live.iter().filter(|&&l| l).count(),
        "live bitmap must count exactly the live slots"
    );

    // The byte image reloads to the very same store, nothing re-packed.
    let mut image = Vec::new();
    store.write_to(&mut image);
    assert_eq!(
        BlockStore::<2>::read_from(&image).as_ref(),
        Ok(&store),
        "read_from(write_to(b)) == b"
    );

    // Slot accessors (decode one field at a time).
    for i in 0..keys.len() {
        assert_eq!(store.key_at(i), keys[i], "key_at({i})");
        assert_eq!(store.point_at(i), points[i], "point_at({i})");
        assert_eq!(store.is_live_slot(i), live[i], "is_live_slot({i})");
    }

    // Bulk kernel decode, block by block.
    let mut dec = Box::<DecodedBlock<2>>::default();
    for block in 0..store.blocks() {
        store.decode_into(block, &mut dec);
        for i in store.block_range(block) {
            let j = i % BLOCK_SLOTS;
            assert_eq!(dec.keys[j], keys[i], "decoded key at slot {i}");
            assert_eq!(dec.point(j), points[i], "decoded point at slot {i}");
        }
    }

    // Cursor decode (the scan-path entry point).
    let mut cur = BlockCursor::new(&store);
    for i in 0..keys.len() {
        assert_eq!(cur.key(i), keys[i]);
        assert_eq!(cur.point(i), points[i]);
    }

    // Rank into the dense payload column is the live-slot prefix count.
    let mut rank = 0usize;
    for (i, &is_live) in live.iter().enumerate() {
        if is_live {
            assert_eq!(store.rank(i), rank, "rank({i})");
            rank += 1;
        }
    }

    // lower_bound agrees with a linear scan on every stored key.
    for (i, &k) in keys.iter().enumerate() {
        let lb = store.lower_bound(k);
        assert!(lb <= i && store.key_at(lb) == k, "lower_bound under-seeks");
        if lb > 0 {
            assert!(store.key_at(lb - 1) < k, "lower_bound over-seeks");
        }
    }
}

/// Generates sorted-key columns with adversarial delta shapes: each step
/// is either zero (duplicate pressure → narrow widths), small, medium,
/// or astronomically large (forces the raw-width fallback).
fn columns(seed: u64, len: usize) -> (Vec<CurveIndex>, Vec<Point<2>>, Vec<bool>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut key: CurveIndex = 0;
    let mut keys = Vec::with_capacity(len);
    let mut points = Vec::with_capacity(len);
    let mut live = Vec::with_capacity(len);
    for _ in 0..len {
        let step: u128 = match rng.gen_range(0u8..4) {
            0 => 0,
            1 => rng.gen_range(1u128..16),
            2 => rng.gen_range(1u128..(1 << 20)),
            _ => rng.gen_range(u128::from(u64::MAX)..(u128::from(u64::MAX) << 40)),
        };
        key = key.saturating_add(step);
        keys.push(key);
        points.push(Point::new([rng.gen::<u32>(), rng.gen::<u32>()]));
        live.push(rng.gen::<bool>());
    }
    (keys, points, live)
}

/// Keys of the small key grid the `find_key` property draws from.
const GRID_KEYS: u128 = 64;

/// A key past 64 bits of delta from any grid key: a block holding it and
/// a grid key takes the raw escape.
const FAR_KEY: u128 = 5 << 100;

/// Sorted columns over the key grid `0..GRID_KEYS` (duplicates are
/// likely), random liveness; with `raw`, one [`FAR_KEY`] slot shares the
/// last block with a grid key.
fn grid_columns(seed: u64, len: usize, raw: bool) -> (Vec<CurveIndex>, Vec<Point<2>>, Vec<bool>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut keys: Vec<CurveIndex> = (0..len).map(|_| rng.gen_range(0..GRID_KEYS)).collect();
    keys.sort_unstable();
    if raw {
        if keys.len().is_multiple_of(BLOCK_SLOTS) {
            keys.push(GRID_KEYS - 1);
        }
        keys.push(FAR_KEY);
    }
    let points = (0..keys.len())
        .map(|_| Point::new([rng.gen_range(0..8u32), rng.gen_range(0..8u32)]))
        .collect();
    let live = (0..keys.len()).map(|_| rng.gen::<bool>()).collect();
    (keys, points, live)
}

/// `find_key` on `store` equals the first position a linear search finds,
/// for every key of the grid, every stored key and keys outside both.
fn assert_find_key_matches_linear(store: BlockStore<2>, keys: &[CurveIndex]) {
    // `find_key` never consults the curve, so any curve can carry the
    // store, whatever its keys.
    let payloads = vec![0u32; store.live_len()];
    let index = SfcIndex::from_parts(ZCurve::<2>::new(3).unwrap(), store, payloads);
    let outside = [
        GRID_KEYS,
        GRID_KEYS + 1,
        1 << 64,
        FAR_KEY - 1,
        FAR_KEY + 1,
        u128::MAX,
    ];
    for key in (0..GRID_KEYS).chain(keys.iter().copied()).chain(outside) {
        assert_eq!(
            index.find_key(key),
            keys.iter().position(|&k| k == key),
            "find_key({key}) over {} slots",
            keys.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The key filter has no false negative: `find_key` matches a linear
    /// search on a packed store and on its reloaded image — duplicate
    /// keys, tombstoned slots (their keys are found too), raw-width
    /// blocks and the empty store included.
    #[test]
    fn find_key_matches_a_linear_search(seed in any::<u64>(), len in 0usize..200, raw in any::<bool>()) {
        let (keys, points, live) = grid_columns(seed, len, raw);
        let store = BlockStore::pack(&keys, &points, |i| live[i]);
        let mut image = Vec::new();
        store.write_to(&mut image);
        assert_find_key_matches_linear(store, &keys);
        let reloaded = BlockStore::<2>::read_from(&image).expect("own image");
        assert_find_key_matches_linear(reloaded, &keys);
    }

    /// pack → unpack is the identity on every decode path, across block
    /// boundaries, ragged tails, and raw-width escapes.
    #[test]
    fn pack_unpack_round_trips(seed in any::<u64>(), len in 0usize..200) {
        let (keys, points, live) = columns(seed, len);
        assert_round_trip(&keys, &points, &live);
    }

    /// A truncated or padded image is an error, never a panic and never
    /// a shorter store: the counts must match the bytes exactly.
    #[test]
    fn image_of_the_wrong_length_is_rejected(seed in any::<u64>(), len in 0usize..200) {
        let (keys, points, live) = columns(seed, len);
        let mut image = Vec::new();
        BlockStore::pack(&keys, &points, |i| live[i]).write_to(&mut image);
        for cut in 0..image.len() {
            prop_assert!(BlockStore::<2>::read_from(&image[..cut]).is_err(), "cut at {cut}");
        }
        image.push(0);
        prop_assert!(BlockStore::<2>::read_from(&image).is_err(), "one byte too many");
    }

    /// Per-block metadata used for pruning must stay conservative: the
    /// AABB bounds every stored point and the fence is the block minimum.
    #[test]
    fn block_summaries_bound_their_slots(seed in any::<u64>(), len in 0usize..200) {
        let (keys, points, live) = columns(seed, len);
        let store = BlockStore::pack(&keys, &points, |i| live[i]);
        for block in 0..store.blocks() {
            let (lo, hi) = store.aabb(block);
            for i in store.block_range(block) {
                prop_assert!(store.fence(block) <= keys[i]);
                for d in 0..2 {
                    prop_assert!(lo.coords()[d] <= points[i].coords()[d]);
                    prop_assert!(points[i].coords()[d] <= hi.coords()[d]);
                }
            }
        }
    }
}

#[test]
fn all_equal_keys_pack_at_width_zero() {
    // 3 blocks of identical keys and identical points: the key and
    // coordinate columns need no words at all, only block metadata.
    let n = 3 * BLOCK_SLOTS;
    let keys = vec![42u128; n];
    let points = vec![Point::new([7, 9]); n];
    let live = vec![true; n];
    assert_round_trip(&keys, &points, &live);
    let store = BlockStore::pack(&keys, &points, |_| true);
    let metadata_only = BlockStore::<2>::pack(&[], &[], |_| true).heap_bytes();
    assert!(
        store.heap_bytes() < metadata_only + n * 2,
        "all-equal columns should cost ~0 bits per slot beyond metadata"
    );
}

#[test]
fn max_delta_keys_take_the_raw_escape() {
    // First and last key of one block span the full u128 range: the
    // delta exceeds 64 bits, so the block must fall back to raw words
    // and still round-trip exactly.
    let mut keys = vec![0u128; BLOCK_SLOTS];
    keys[BLOCK_SLOTS - 1] = u128::MAX;
    let points: Vec<Point<2>> = (0..BLOCK_SLOTS as u32)
        .map(|i| Point::new([i, i]))
        .collect();
    let live = vec![true; BLOCK_SLOTS];
    assert_round_trip(&keys, &points, &live);
}

#[test]
fn one_slot_tail_block_round_trips() {
    // One full block plus a single-slot tail: the tail is zero-padded to
    // 64 logical slots but only its real slot is addressable.
    let n = BLOCK_SLOTS + 1;
    let keys: Vec<CurveIndex> = (0..n as u128).map(|i| i * 3).collect();
    let points: Vec<Point<2>> = (0..n as u32).map(|i| Point::new([i, 1000 - i])).collect();
    let live: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    assert_round_trip(&keys, &points, &live);
    let store = BlockStore::pack(&keys, &points, |i| live[i]);
    assert_eq!(store.blocks(), 2);
    assert_eq!(store.block_range(1), BLOCK_SLOTS..n);
}

#[test]
fn all_tombstone_blocks_are_flagged_dead() {
    let n = 2 * BLOCK_SLOTS;
    let keys: Vec<CurveIndex> = (0..n as u128).collect();
    let points: Vec<Point<2>> = (0..n as u32).map(|i| Point::new([i, i])).collect();
    // First block entirely tombstoned, second entirely live.
    let live: Vec<bool> = (0..n).map(|i| i >= BLOCK_SLOTS).collect();
    assert_round_trip(&keys, &points, &live);
    let store = BlockStore::pack(&keys, &points, |i| live[i]);
    assert!(store.is_all_dead(0));
    assert!(!store.is_all_dead(1));
    assert_eq!(store.live(0), 0);
    assert_eq!(store.live(1), BLOCK_SLOTS as u32);
}

#[test]
fn empty_store_has_no_blocks() {
    let store = BlockStore::<2>::pack(&[], &[], |_| true);
    assert!(store.is_empty());
    assert_eq!(store.blocks(), 0);
    assert_eq!(store.lower_bound(0), 0);
    assert!(store.bounds().is_none());
    assert_round_trip(&[], &[], &[]);
}

#[test]
fn absent_keys_rarely_pass_the_key_filter() {
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    // A 64 k-key run over a 2048 × 2048 grid's key space, and as many
    // absent keys, on a fixed seed.
    const KEYS: usize = 1 << 16;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    let mut present = BTreeSet::new();
    while present.len() < KEYS {
        present.insert(rng.gen_range(0..1u128 << 22));
    }
    let keys: Vec<CurveIndex> = present.iter().copied().collect();
    let points = vec![Point::new([0, 0]); KEYS];
    let store = BlockStore::pack(&keys, &points, |_| true);
    assert!(
        keys.iter().all(|&k| store.may_contain(k)),
        "a false negative"
    );
    let mut probes = 0u32;
    let mut passed = 0u32;
    while probes < KEYS as u32 {
        let key = rng.gen_range(0..1u128 << 22);
        if !present.contains(&key) {
            probes += 1;
            passed += u32::from(store.may_contain(key));
        }
    }
    let rate = f64::from(passed) / f64::from(probes);
    assert!(
        rate <= 0.03,
        "{passed} of {probes} absent keys passed ({rate:.4})"
    );
}
