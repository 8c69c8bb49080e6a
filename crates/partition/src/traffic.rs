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
//! Two accumulators are provided. [`TrafficWeights`] is the
//! single-threaded original: one sparse map, `&mut self` recording.
//! [`ConcurrentTraffic`] is its concurrent counterpart for multi-writer
//! engines: the map is **striped** (one stripe per shard, matching the
//! writers' natural partition), each stripe samples its own write stream
//! through a per-stripe atomic counter, and only sampled writes touch the
//! stripe's mutex — so concurrent writers to different shards never
//! contend, a hot shard can never be under-sampled by other shards
//! advancing a shared stride counter, and draining merges the stripes
//! back into a plain [`TrafficWeights`] for the partitioner.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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

/// One contention domain of a [`ConcurrentTraffic`] accumulator: the
/// stripe's own write counter (driving its sampler) plus its share of the
/// sparse weight map.
#[derive(Debug, Default)]
struct TrafficStripe {
    /// Writes observed by this stripe since construction (sampled or
    /// not) — the deterministic per-stripe sampling stride walks this.
    writes: AtomicU64,
    /// Accumulated weight per touched curve index, this stripe only.
    weights: Mutex<BTreeMap<CurveIndex, f64>>,
}

/// A striped, `&self` traffic accumulator for concurrent writers.
///
/// Each stripe is an independent contention domain — callers route a
/// write to the stripe of the shard that absorbed it, so writers to
/// different shards touch disjoint atomics and mutexes. Sampling
/// ([`set_sample_every`](Self::set_sample_every)) is **per stripe**: every
/// stripe counts its own writes and records 1 in `every` of them with
/// weight `every`, which keeps the estimator unbiased per shard. A single
/// global stride counter (the previous design) shared its phase across
/// shards: under parallel writers the interleaving decided which shard's
/// writes landed on the sampled ticks, systematically under-counting hot
/// shards. A per-stripe counter cannot — each shard's sample rate depends
/// only on that shard's own write count.
#[derive(Debug)]
pub struct ConcurrentTraffic {
    /// Size of the curve-index domain `{0, …, n−1}`.
    n: u128,
    /// Record 1 in `sample_every` writes, each carrying weight
    /// `sample_every`.
    sample_every: AtomicU64,
    stripes: Box<[TrafficStripe]>,
}

impl ConcurrentTraffic {
    /// An empty accumulator over the curve-index domain `0..n` with
    /// `stripes` independent contention domains (typically one per
    /// shard). Sampling starts at 1 (record every write exactly).
    pub fn new(n: u128, stripes: usize) -> Self {
        Self {
            n,
            sample_every: AtomicU64::new(1),
            stripes: (0..stripes.max(1))
                .map(|_| TrafficStripe::default())
                .collect(),
        }
    }

    /// The size of the curve-index domain.
    pub fn n(&self) -> u128 {
        self.n
    }

    /// Number of stripes (contention domains).
    pub fn stripes(&self) -> usize {
        self.stripes.len()
    }

    /// Samples write-weight recording down to 1 in `every` writes per
    /// stripe, each carrying weight `every` (`1` records every write
    /// exactly). Takes effect for subsequent writes on every stripe.
    pub fn set_sample_every(&self, every: u64) {
        self.sample_every.store(every.max(1), Ordering::Relaxed);
    }

    /// The current sampling stride.
    pub fn sample_every(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// One write happened at `key`, absorbed by the shard behind
    /// `stripe`: count it, touching the stripe's weight map only on
    /// sampled ticks.
    ///
    /// # Panics
    /// Panics if `stripe` is out of range or `key ≥ n`.
    pub fn record_write(&self, stripe: usize, key: CurveIndex) {
        assert!(key < self.n, "curve index {key} outside 0..{}", self.n);
        let s = &self.stripes[stripe];
        let count = s.writes.fetch_add(1, Ordering::Relaxed);
        let every = self.sample_every.load(Ordering::Relaxed);
        if count.is_multiple_of(every) {
            let mut weights = s.weights.lock().expect("traffic stripe poisoned");
            *weights.entry(key).or_insert(0.0) += every as f64;
        }
    }

    /// A run of writes, all absorbed by the shard behind `stripe`, in one
    /// go: one counter bump for the whole run and at most one hold of the
    /// stripe's mutex (none when no sampled tick falls inside the run).
    /// Write `i` of the run takes tick `first + i` of the stripe's
    /// counter, so the stripe's sampling stride is exactly what
    /// `keys.len()` calls of [`record_write`](Self::record_write) would
    /// have walked.
    ///
    /// # Panics
    /// Panics if `stripe` is out of range or a sampled key is `≥ n`.
    pub fn record_writes(&self, stripe: usize, keys: impl ExactSizeIterator<Item = CurveIndex>) {
        let s = &self.stripes[stripe];
        let run = keys.len() as u64;
        let first = s.writes.fetch_add(run, Ordering::Relaxed);
        let every = self.sample_every.load(Ordering::Relaxed);
        // Writes of the run before its first sampled tick.
        let skip = (every - first % every) % every;
        if skip >= run {
            return;
        }
        let mut weights = s.weights.lock().expect("traffic stripe poisoned");
        for key in keys.skip(skip as usize).step_by(every as usize) {
            assert!(key < self.n, "curve index {key} outside 0..{}", self.n);
            *weights.entry(key).or_insert(0.0) += every as f64;
        }
    }

    /// Total writes observed by `stripe` (sampled and unsampled alike).
    pub fn stripe_writes(&self, stripe: usize) -> u64 {
        self.stripes[stripe].writes.load(Ordering::Relaxed)
    }

    /// Merges every stripe into a plain [`TrafficWeights`] without
    /// clearing anything — a consistent *copy* of the observed load.
    pub fn merged(&self) -> TrafficWeights {
        let mut out = TrafficWeights::new(self.n);
        for stripe in self.stripes.iter() {
            let weights = stripe.weights.lock().expect("traffic stripe poisoned");
            for (&k, &w) in weights.iter() {
                out.record(k, w);
            }
        }
        out
    }

    /// Drains every stripe into a plain [`TrafficWeights`] and forgets
    /// the observed load (each rebalance consumes its own epoch of
    /// traffic). Write counters keep running — they drive the sampling
    /// phase, not the weights.
    pub fn drain(&self) -> TrafficWeights {
        let mut out = TrafficWeights::new(self.n);
        for stripe in self.stripes.iter() {
            let mut weights = stripe.weights.lock().expect("traffic stripe poisoned");
            for (k, w) in std::mem::take(&mut *weights) {
                out.record(k, w);
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
    fn concurrent_unsampled_recording_is_exact() {
        let t = ConcurrentTraffic::new(1 << 10, 4);
        for i in 0..100u64 {
            t.record_write((i % 4) as usize, u128::from(i));
        }
        let merged = t.merged();
        assert_eq!(merged.observed(), 100);
        assert!((merged.total() - 100.0).abs() < 1e-9);
        // Drain consumes; a second drain sees nothing.
        let drained = t.drain();
        assert!((drained.total() - 100.0).abs() < 1e-9);
        assert!(t.drain().is_empty());
        // Write counters keep running across drains.
        assert_eq!(t.stripe_writes(0), 25);
    }

    #[test]
    fn per_stripe_sampling_cannot_undersample_a_hot_stripe() {
        // Regression for the global-stride design: stripe 0 takes 400
        // writes, stripe 1 takes 4, interleaved. A single shared counter
        // with stride 4 could phase-lock so that (depending on the
        // interleaving) stripe 1's writes land on every sampled tick and
        // stripe 0 is under-counted. Per-stripe counters make each
        // stripe's recorded total depend only on its own write count.
        let t = ConcurrentTraffic::new(1 << 10, 2);
        t.set_sample_every(4);
        for i in 0..400u64 {
            t.record_write(0, u128::from(i % 64));
            if i % 100 == 0 {
                t.record_write(1, 512 + u128::from(i));
            }
        }
        let merged = t.merged();
        // Stripe 0: 400 writes at stride 4 → exactly 100 samples × 4.
        let hot: f64 = merged
            .entries()
            .filter(|&(k, _)| k < 512)
            .map(|(_, w)| w)
            .sum();
        assert!(
            (hot - 400.0).abs() < 1e-9,
            "hot stripe under-sampled: {hot}"
        );
        // Stripe 1: 4 writes at stride 4 → at least the first sampled.
        let cold: f64 = merged
            .entries()
            .filter(|&(k, _)| k >= 512)
            .map(|(_, w)| w)
            .sum();
        assert!(cold >= 4.0, "cold stripe lost its traffic: {cold}");
    }

    #[test]
    fn concurrent_recording_is_race_free_across_threads() {
        // 4 writer threads × 2 stripes, sampling 1 (exact): every write
        // must be counted exactly once — fetch_add and the stripe mutex
        // may lose nothing.
        let t = ConcurrentTraffic::new(1 << 20, 2);
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let stripe = (thread % 2) as usize;
                        t.record_write(stripe, u128::from(thread * per_thread + i));
                    }
                });
            }
        });
        let merged = t.merged();
        assert!((merged.total() - 20_000.0).abs() < 1e-9);
        assert_eq!(merged.observed(), 20_000);
        assert_eq!(t.stripe_writes(0) + t.stripe_writes(1), 20_000);
    }

    #[test]
    fn batched_recording_matches_single_writes() {
        // Runs of uneven length dealt round-robin to three stripes.
        let runs: Vec<Vec<CurveIndex>> = (0..40u128)
            .map(|r| {
                (0..(r * 7) % 23)
                    .map(|i| (r * 131 + i * 17) % 4096)
                    .collect()
            })
            .collect();
        // Unsampled: the merged weights are exactly those of one
        // `record_write` per key.
        let (batched, single) = (
            ConcurrentTraffic::new(1 << 12, 3),
            ConcurrentTraffic::new(1 << 12, 3),
        );
        for (r, run) in runs.iter().enumerate() {
            batched.record_writes(r % 3, run.iter().copied());
            for &key in run {
                single.record_write(r % 3, key);
            }
        }
        assert_eq!(
            batched.merged().entries().collect::<Vec<_>>(),
            single.merged().entries().collect::<Vec<_>>()
        );
        // Sampled: each stripe keeps its own stride across run
        // boundaries, so its recorded weight is its write count rounded
        // up to the stride — never more than one stride off.
        for every in [4u64, 8] {
            let t = ConcurrentTraffic::new((1 << 12) + 3, 3);
            t.set_sample_every(every);
            for (r, run) in runs.iter().enumerate() {
                // Stripe j only sees keys of residue class j, so its
                // weight can be read back out of the merged map.
                let stripe = r % 3;
                t.record_writes(stripe, run.iter().map(|k| k - k % 3 + stripe as u128));
            }
            let merged = t.merged();
            for stripe in 0..3 {
                let weight: f64 = merged
                    .entries()
                    .filter(|&(k, _)| k % 3 == stripe as u128)
                    .map(|(_, w)| w)
                    .sum();
                let writes = t.stripe_writes(stripe);
                assert_eq!(
                    weight,
                    (writes.div_ceil(every) * every) as f64,
                    "stripe {stripe} at stride {every}: {writes} writes"
                );
            }
        }
    }

    #[test]
    fn sampled_weight_total_tracks_true_write_count() {
        let t = ConcurrentTraffic::new(1 << 12, 3);
        t.set_sample_every(8);
        let writes = 4_000u64;
        for i in 0..writes {
            t.record_write((i % 3) as usize, u128::from(i % 1024));
        }
        let total = t.merged().total();
        // Each stripe records ceil(writes_j / 8) samples of weight 8: the
        // total can overshoot by at most (every − 1) per stripe.
        let slack = 8.0 * 3.0;
        assert!(
            (total - writes as f64).abs() <= slack,
            "sampled total {total} drifted from {writes}"
        );
    }
}
