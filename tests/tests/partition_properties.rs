//! Property tests for the partitioner: optimality of min-bottleneck
//! against brute force, structural invariants of greedy cuts, and the
//! cost of the store's coarse traffic buckets.

use proptest::prelude::*;
use rand::Rng;
use sfc_core::{Grid, HilbertCurve, Point, SimpleCurve, SpaceFillingCurve, ZCurve};
use sfc_integration::test_rng;
use sfc_partition::partitioner::partition_min_bottleneck;
use sfc_partition::{partition_greedy, TrafficWeights, WeightedGrid};
use sfc_store::ShardedSfcStore;

/// Brute-force optimal bottleneck for a 1-D weight sequence split into at
/// most `p` contiguous parts, by dynamic programming.
#[allow(clippy::needless_range_loop)] // index-form DP recurrences read clearer
fn dp_bottleneck(weights: &[f64], p: usize) -> f64 {
    let n = weights.len();
    let mut prefix = vec![0.0f64; n + 1];
    for (i, w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    let seg = |a: usize, b: usize| prefix[b] - prefix[a];
    // dp[j][i] = min bottleneck splitting weights[..i] into j parts.
    let mut dp = vec![f64::INFINITY; n + 1];
    dp[0] = 0.0;
    for i in 1..=n {
        dp[i] = seg(0, i);
    }
    for _ in 2..=p {
        let mut next = vec![f64::INFINITY; n + 1];
        next[0] = 0.0;
        for i in 1..=n {
            let mut best = f64::INFINITY;
            for cut in 0..i {
                best = best.min(dp[cut].max(seg(cut, i)));
            }
            next[i] = best;
        }
        dp = next;
    }
    dp[n]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bisection-based min-bottleneck partitioner matches the exact DP
    /// optimum on random 1-D weight sequences (8 cells, the d=1, k=3 grid).
    #[test]
    fn min_bottleneck_matches_dp(
        raw in proptest::collection::vec(0.0f64..100.0, 8),
        p in 1usize..6,
    ) {
        let grid = Grid::<1>::new(3).unwrap();
        let curve = SimpleCurve::<1>::over(grid);
        let weights = WeightedGrid::from_weights(grid, raw.clone());
        let partition = partition_min_bottleneck(&curve, &weights, p, 1e-12);
        let measured = partition.bottleneck(&raw);
        let optimal = dp_bottleneck(&raw, p);
        let total: f64 = raw.iter().sum();
        prop_assert!(
            (measured - optimal).abs() <= 1e-6 * total.max(1.0),
            "measured {measured} vs DP optimum {optimal} (p = {p}, weights {raw:?})"
        );
    }

    /// Greedy bottleneck is at most optimum + max single weight (the
    /// classical greedy guarantee), and never below the optimum.
    #[test]
    fn greedy_respects_classical_guarantee(
        raw in proptest::collection::vec(0.0f64..50.0, 8),
        p in 1usize..5,
    ) {
        let grid = Grid::<1>::new(3).unwrap();
        let curve = SimpleCurve::<1>::over(grid);
        let weights = WeightedGrid::from_weights(grid, raw.clone());
        let greedy = partition_greedy(&curve, &weights, p).bottleneck(&raw);
        let optimal = dp_bottleneck(&raw, p);
        let max_w = raw.iter().cloned().fold(0.0, f64::max);
        prop_assert!(greedy >= optimal - 1e-9, "greedy {greedy} < optimal {optimal}");
        prop_assert!(
            greedy <= optimal + max_w + 1e-9,
            "greedy {greedy} > optimal {optimal} + max {max_w}"
        );
    }
}

/// Sends `writes` skewed writes through a `parts`-shard store over
/// `curve` and one exact per-cell [`TrafficWeights`], rebalances the
/// store, and checks the cost of its bucketed cut: measured on the exact
/// per-cell weights, the store's new partition has a bottleneck at most
/// the exact per-cell min-bottleneck plus the heaviest bucket.
///
/// Each write lands, with probability `hot_pct` %, in an 8 × 8 tile at
/// one of `spots` random hot corners, otherwise anywhere.
fn check_bucket_cost<C: SpaceFillingCurve<2> + Clone>(
    curve: C,
    seed: u64,
    parts: usize,
    hot_pct: u32,
    spots: usize,
) {
    const WRITES: u32 = 2_000;
    let grid = curve.grid();
    let n = grid.n();
    let store = ShardedSfcStore::new(curve.clone(), parts);
    let mut exact = TrafficWeights::new(n);
    let mut rng = test_rng(seed);
    let side = grid.side() as u32;
    let corners: Vec<[u32; 2]> = (0..spots)
        .map(|_| [rng.gen_range(0..side - 8), rng.gen_range(0..side - 8)])
        .collect();
    for i in 0..WRITES {
        let p = if rng.gen_range(0..100u32) < hot_pct {
            let [x, y] = corners[rng.gen_range(0..spots)];
            Point::new([x + rng.gen_range(0..8u32), y + rng.gen_range(0..8u32)])
        } else {
            grid.random_cell(&mut rng)
        };
        store.insert(p, i);
        exact.record(curve.index_of(p), 1.0);
    }
    let buckets = store.traffic();
    assert_eq!(buckets.total(), f64::from(WRITES), "every write counted");
    let heaviest = buckets.entries().map(|(_, w)| w).fold(0.0, f64::max);
    // Integer weights and a tolerance far below one write: each
    // bisection lands on the true optimum of its own candidate cuts.
    store.rebalance(1e-9);
    let mut dense = vec![0.0f64; n as usize];
    for (key, w) in exact.entries() {
        dense[key as usize] = w;
    }
    let bucketed = store.partition().bottleneck(&dense);
    let optimum = exact
        .partition_min_bottleneck(parts, 1e-9)
        .bottleneck(&dense);
    assert!(
        bucketed <= optimum + heaviest,
        "bucketed cut {bucketed} > per-cell optimum {optimum} + heaviest bucket {heaviest}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On the 256 × 256 grid (n = 65 536 > 4 096) a traffic bucket spans
    /// 16 cells, so the store's rebalance cuts on bucket starts; the cut
    /// costs at most one bucket over the per-cell optimum, on Z and
    /// Hilbert order.
    #[test]
    fn coarse_traffic_buckets_cost_at_most_one_bucket(
        seed in any::<u64>(),
        parts in 2usize..8,
        hot_pct in 0u32..=100,
        spots in 1usize..5,
    ) {
        let grid = Grid::<2>::new(8).unwrap();
        check_bucket_cost(ZCurve::over(grid), seed, parts, hot_pct, spots);
        check_bucket_cost(HilbertCurve::over(grid), seed, parts, hot_pct, spots);
    }
}
