//! Live-traffic weight feedback for repartitioning.
//!
//! The synthetic workloads in [`weights`](crate::weights) materialise a
//! weight for *every* cell of the grid — fine for the paper's experiments,
//! impossible for a serving system whose keyspace has `2^{kd}` cells. A
//! running store instead **observes** weight where traffic actually lands:
//! each write (or any other costed operation) reports its curve index, and
//! the accumulated sparse histogram feeds
//! [`partition_min_bottleneck_sparse`] to recompute shard boundaries that
//! balance the *observed* load.
//!
//! Two accumulators are provided. [`TrafficWeights`] is exact: one
//! sparse map, one entry per touched cell, `&mut self` recording.
//! [`TrafficHistogram`] is what a multi-writer engine records into: a
//! fixed array of at most 4 096 equal curve-index buckets, one
//! relaxed atomic add per write, read back (or drained) as a
//! [`TrafficWeights`] of bucket starts. Its memory does not grow with the
//! keys written; a cut derived from it lands on a bucket start, so a part
//! can carry up to one bucket's weight more than the per-cell optimum.
//! Because curve-contiguous shards own contiguous bucket ranges, writers
//! to different shards share a cache line only at a shard boundary.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use sfc_core::CurveIndex;

use crate::partitioner::{partition_min_bottleneck_sparse, Partition};

/// A sparse per-cell weight accumulator over the curve order `0..n`,
/// recording live traffic as it happens.
///
/// Only touched cells take memory; iteration is in curve order (the form
/// the chains-on-a-line partitioners consume).
#[derive(Debug, Clone)]
pub struct TrafficWeights {
    /// Size of the curve-index domain `{0, …, n−1}`.
    n: u128,
    /// Accumulated weight per touched curve index.
    weights: BTreeMap<CurveIndex, f64>,
}

impl TrafficWeights {
    /// An empty accumulator over the curve-index domain `0..n`.
    pub fn new(n: u128) -> Self {
        Self {
            n,
            weights: BTreeMap::new(),
        }
    }

    /// The size of the curve-index domain.
    pub fn n(&self) -> u128 {
        self.n
    }

    /// Adds `weight` to the observed load of curve index `key`.
    ///
    /// # Panics
    /// Panics if `key ≥ n` or `weight` is negative or non-finite.
    pub fn record(&mut self, key: CurveIndex, weight: f64) {
        assert!(key < self.n, "curve index {key} outside 0..{}", self.n);
        assert!(
            weight.is_finite() && weight >= 0.0,
            "weight must be non-negative and finite"
        );
        *self.weights.entry(key).or_insert(0.0) += weight;
    }

    /// Number of distinct cells with observed weight.
    pub fn observed(&self) -> usize {
        self.weights.len()
    }

    /// `true` iff no weight has been recorded since the last
    /// [`clear`](Self::clear).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total observed weight.
    pub fn total(&self) -> f64 {
        self.weights.values().sum()
    }

    /// The observed `(curve index, weight)` pairs in curve order.
    pub fn entries(&self) -> impl Iterator<Item = (CurveIndex, f64)> + '_ {
        self.weights.iter().map(|(&k, &w)| (k, w))
    }

    /// Forgets all observed weight (e.g. after a rebalance consumed it).
    pub fn clear(&mut self) {
        self.weights.clear();
    }

    /// The min-bottleneck partition of `0..n` into `p` parts under the
    /// observed weights (see [`partition_min_bottleneck_sparse`]); the
    /// keyspace-uniform partition when nothing has been observed.
    pub fn partition_min_bottleneck(&self, p: usize, rel_tol: f64) -> Partition {
        let entries: Vec<(CurveIndex, f64)> = self.entries().collect();
        partition_min_bottleneck_sparse(&entries, self.n, p, rel_tol)
    }
}

/// The number of buckets a [`TrafficHistogram`] holds at most.
const MAX_BUCKETS: usize = 4096;

/// A fixed, `&self` write-count histogram for concurrent writers: the
/// curve-index domain `0..n` cut into `min(n, 4096)` equal buckets, one
/// relaxed atomic counter each.
///
/// `n` is a power of two (`2^{k·d}` for a grid), so a key's bucket is
/// `key >> shift` and a write is one `fetch_add`: no lock, no map, no
/// allocation, and memory that does not grow with the keys written. The
/// price is granularity: a cut derived from the histogram lands on a
/// bucket start, so a part can carry up to one bucket's weight more than
/// the per-cell optimum. On grids of at most 4 096 cells a bucket is one
/// cell and nothing is lost.
pub struct TrafficHistogram {
    /// Size of the curve-index domain `{0, …, n−1}`.
    n: u128,
    /// `log2` of the keys per bucket.
    shift: u32,
    buckets: Box<[AtomicU64]>,
}

impl fmt::Debug for TrafficHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrafficHistogram")
            .field("n", &self.n)
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

impl TrafficHistogram {
    /// An empty histogram over the curve-index domain `0..n`.
    ///
    /// # Panics
    /// Panics unless `n` is a power of two.
    pub fn new(n: u128) -> Self {
        assert!(n.is_power_of_two(), "domain size {n} is not a power of two");
        let shift = n
            .trailing_zeros()
            .saturating_sub(MAX_BUCKETS.trailing_zeros());
        Self {
            n,
            shift,
            buckets: (0..n >> shift).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The bucket holding `key`.
    ///
    /// # Panics
    /// Panics if `key ≥ n`.
    fn bucket_of(&self, key: CurveIndex) -> usize {
        assert!(key < self.n, "curve index {key} outside 0..{}", self.n);
        (key >> self.shift) as usize
    }

    /// One write happened at `key`.
    ///
    /// # Panics
    /// Panics if `key ≥ n`.
    pub fn record(&self, key: CurveIndex) {
        self.buckets[self.bucket_of(key)].fetch_add(1, Ordering::Relaxed);
    }

    /// One write happened at each of `keys`: one `fetch_add` per run of
    /// consecutive keys in the same bucket, so a key-sorted batch pays
    /// one per bucket it touches.
    ///
    /// # Panics
    /// Panics if a key is `≥ n`.
    pub fn record_keys(&self, keys: impl IntoIterator<Item = CurveIndex>) {
        // The open run: its bucket and its writes so far.
        let (mut bucket, mut writes) = (0, 0u64);
        for key in keys {
            let b = self.bucket_of(key);
            if b != bucket && writes > 0 {
                self.buckets[bucket].fetch_add(writes, Ordering::Relaxed);
                writes = 0;
            }
            (bucket, writes) = (b, writes + 1);
        }
        if writes > 0 {
            self.buckets[bucket].fetch_add(writes, Ordering::Relaxed);
        }
    }

    /// The write counts, as `(bucket start, count)` weights, without
    /// clearing anything.
    pub fn weights(&self) -> TrafficWeights {
        self.read(|b| b.load(Ordering::Relaxed))
    }

    /// The write counts, as `(bucket start, count)` weights, and every
    /// bucket back to 0 (each rebalance consumes its own epoch of
    /// traffic). A write racing the drain lands in exactly one epoch; a
    /// caller that excludes writers while it drains sees a clean cut.
    pub fn drain(&self) -> TrafficWeights {
        self.read(|b| b.swap(0, Ordering::Relaxed))
    }

    fn read(&self, count: impl Fn(&AtomicU64) -> u64) -> TrafficWeights {
        let mut out = TrafficWeights::new(self.n);
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = count(bucket);
            if c > 0 {
                out.record((i as u128) << self.shift, c as f64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightedGrid;
    use sfc_core::{Grid, SpaceFillingCurve, ZCurve};

    #[test]
    fn record_accumulates_and_iterates_in_curve_order() {
        let mut t = TrafficWeights::new(64);
        t.record(9, 2.0);
        t.record(3, 1.0);
        t.record(9, 0.5);
        assert_eq!(t.observed(), 2);
        assert_eq!(t.entries().collect::<Vec<_>>(), vec![(3, 1.0), (9, 2.5)]);
        assert!((t.total() - 3.5).abs() < 1e-12);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn empty_traffic_partitions_uniformly() {
        let t = TrafficWeights::new(10);
        let part = t.partition_min_bottleneck(3, 1e-9);
        assert_eq!(part.boundaries(), &[0, 4, 7, 10]);
    }

    #[test]
    fn sparse_partition_matches_dense_on_materialised_weights() {
        // Observing every cell's weight must reproduce the dense
        // min-bottleneck result: same bottleneck on the same weight
        // vector.
        let grid = Grid::<2>::new(3).unwrap();
        let z = ZCurve::<2>::over(grid);
        let dense_weights: Vec<f64> = (0..64u32)
            .map(|i| f64::from((i * 37) % 11) + 0.25)
            .collect();
        // `WeightedGrid` weights are row-major; permute ours back so the
        // curve order matches `dense_weights`.
        let mut row_major = vec![0.0f64; 64];
        for (idx, &w) in dense_weights.iter().enumerate() {
            let cell = z.point_of(idx as u128);
            row_major[grid.row_major_rank(&cell) as usize] = w;
        }
        let dense = crate::partition_min_bottleneck(
            &z,
            &WeightedGrid::from_weights(grid, row_major),
            4,
            1e-12,
        );
        let mut t = TrafficWeights::new(64);
        for (idx, &w) in dense_weights.iter().enumerate() {
            t.record(idx as u128, w);
        }
        let sparse = t.partition_min_bottleneck(4, 1e-12);
        assert_eq!(sparse.boundaries(), dense.boundaries());
        assert!(
            (sparse.bottleneck(&dense_weights) - dense.bottleneck(&dense_weights)).abs() < 1e-9
        );
    }

    #[test]
    fn sparse_partition_balances_skewed_observations() {
        // All weight on two distant hot cells: with 2 parts each hot cell
        // must land in its own part.
        let mut t = TrafficWeights::new(1 << 20);
        t.record(100, 50.0);
        t.record(900_000, 50.0);
        let part = t.partition_min_bottleneck(2, 1e-9);
        assert_eq!(part.parts(), 2);
        assert_ne!(part.part_of(100), part.part_of(900_000));
        // The cut lands at an observed index.
        assert_eq!(part.boundaries()[1], 900_000);
    }

    #[test]
    #[should_panic(expected = "outside 0..")]
    fn record_rejects_out_of_domain_keys() {
        let mut t = TrafficWeights::new(8);
        t.record(8, 1.0);
    }

    #[test]
    fn recording_is_exact_and_drain_consumes() {
        // n ≤ MAX_BUCKETS: one cell a bucket, so the weights are the
        // per-cell write counts.
        let t = TrafficHistogram::new(1 << 10);
        for i in 0..100u64 {
            t.record(u128::from(i));
            t.record(u128::from(i % 10));
        }
        let weights = t.weights();
        assert_eq!(weights.observed(), 100);
        assert_eq!(weights.entries().next(), Some((0, 11.0)));
        assert_eq!(weights.total(), 200.0);
        // Drain consumes; a second drain sees nothing.
        assert_eq!(t.drain().total(), 200.0);
        assert!(t.drain().is_empty());
    }

    #[test]
    fn large_domains_keep_a_fixed_bucket_count() {
        let t = TrafficHistogram::new(1 << 20);
        // 2^20 / 4 096 = 256 keys a bucket: 0 and 255 share bucket 0, 256 opens bucket 1,
        // the last key lands in the last bucket.
        for key in [0, 255, 256, (1 << 20) - 1] {
            t.record(key);
        }
        assert_eq!(
            t.weights().entries().collect::<Vec<_>>(),
            vec![(0, 2.0), (256, 1.0), ((1 << 20) - 256, 1.0)]
        );
        // The whole 128-bit range still fits 4 096 buckets.
        let t = TrafficHistogram::new(1 << 127);
        t.record((1 << 127) - 1);
        assert_eq!(t.drain().entries().next(), Some((4095 << 115, 1.0)));
    }

    #[test]
    #[should_panic(expected = "outside 0..")]
    fn histogram_rejects_out_of_domain_keys() {
        TrafficHistogram::new(8).record(8);
    }

    #[test]
    fn concurrent_recording_is_race_free_across_threads() {
        // 4 writer threads, two of them on overlapping keys: every write
        // is counted exactly once.
        let t = TrafficHistogram::new(1 << 20);
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        t.record(u128::from((thread % 2) * per_thread + i));
                    }
                });
            }
        });
        assert_eq!(t.weights().total(), 20_000.0);
    }

    #[test]
    fn batched_recording_matches_single_writes() {
        // Runs of uneven length, sorted and unsorted, over a domain of 4
        // keys a bucket.
        let runs: Vec<Vec<CurveIndex>> = (0..40u128)
            .map(|r| {
                let mut run: Vec<CurveIndex> = (0..(r * 7) % 23)
                    .map(|i| (r * 131 + i * 17) % (1 << 14))
                    .collect();
                if r % 2 == 0 {
                    run.sort_unstable();
                }
                run
            })
            .collect();
        let (batched, single) = (
            TrafficHistogram::new(1 << 14),
            TrafficHistogram::new(1 << 14),
        );
        for run in &runs {
            batched.record_keys(run.iter().copied());
            for &key in run {
                single.record(key);
            }
        }
        assert_eq!(
            batched.weights().entries().collect::<Vec<_>>(),
            single.weights().entries().collect::<Vec<_>>()
        );
    }
}
