//! Cutting a weighted curve order into `p` contiguous chunks.
//!
//! This is the core operation of SFC-based domain decomposition
//! (Aluru & Sevilgen \[3\], Pilkington & Baden \[23\] in the paper's
//! bibliography): the multi-dimensional load-balancing problem reduces to
//! the one-dimensional *chains-on-a-line* problem along the curve.
//!
//! Two algorithms:
//!
//! * [`partition_greedy`] — single pass, fills each part to the ideal
//!   average; `O(n)`; the classic online heuristic.
//! * [`partition_min_bottleneck`] — minimizes the maximum part weight
//!   exactly (up to floating-point bisection tolerance) via parametric
//!   search with a greedy feasibility oracle; `O(n log(total/ε))`.

use sfc_core::{CurveIndex, SpaceFillingCurve};

use crate::weights::WeightedGrid;

/// A partition of the curve order `{0, …, n−1}` into `p` contiguous parts.
///
/// `boundaries` has `p + 1` entries with `boundaries[0] = 0` and
/// `boundaries[p] = n`; part `j` owns the **half-open** curve-index range
/// `boundaries[j] .. boundaries[j+1]` (the start is owned, the end is the
/// next part's start). The half-open convention makes the parts a
/// partition in the mathematical sense: every index in `0..n` belongs to
/// exactly one part, adjacent parts never share an index, and a part with
/// `boundaries[j] == boundaries[j+1]` is *empty* — it owns no indices and
/// is never returned by [`part_of`](Self::part_of).
///
/// Indices outside `0..n` belong to no part: [`part_of`](Self::part_of)
/// panics on them and [`try_part_of`](Self::try_part_of) returns `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    boundaries: Vec<CurveIndex>,
}

impl Partition {
    /// Creates a partition from explicit boundaries.
    ///
    /// # Panics
    /// Panics unless boundaries are non-decreasing, start at 0, and the
    /// partition has at least one part.
    pub fn from_boundaries(boundaries: Vec<CurveIndex>) -> Self {
        assert!(boundaries.len() >= 2, "need at least one part");
        assert_eq!(boundaries[0], 0, "first boundary must be 0");
        assert!(
            boundaries.windows(2).all(|w| w[0] <= w[1]),
            "boundaries must be non-decreasing"
        );
        Self { boundaries }
    }

    /// The partition of `{0, …, n−1}` into `p` parts of (near-)equal cell
    /// count: the first `n mod p` parts own `⌈n/p⌉` indices, the rest
    /// `⌊n/p⌋`. The keyspace-uniform starting point when no weights have
    /// been observed yet.
    pub fn uniform(n: u128, p: usize) -> Self {
        assert!(p >= 1, "need at least one part");
        let base = n / p as u128;
        let rem = n % p as u128;
        let boundaries = (0..=p as u128)
            .map(|j| j * base + j.min(rem))
            .collect::<Vec<_>>();
        Self::from_boundaries(boundaries)
    }

    /// Number of parts `p`.
    pub fn parts(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// The boundary list (length `p + 1`).
    pub fn boundaries(&self) -> &[CurveIndex] {
        &self.boundaries
    }

    /// The size `n` of the partitioned domain `{0, …, n−1}` (the last
    /// boundary).
    pub fn n(&self) -> CurveIndex {
        *self.boundaries.last().expect("at least one part")
    }

    /// The half-open curve-index range `boundaries[j] .. boundaries[j+1]`
    /// of part `j`; empty when the two boundaries coincide.
    ///
    /// # Panics
    /// Panics if `j >= parts()`.
    pub fn range(&self, j: usize) -> std::ops::Range<CurveIndex> {
        assert!(
            j < self.parts(),
            "part {j} out of range (p = {})",
            self.parts()
        );
        self.boundaries[j]..self.boundaries[j + 1]
    }

    /// The part owning curve index `idx` (binary search, `O(log p)`). The
    /// returned part always satisfies `range(j).contains(&idx)`; in
    /// particular an empty part is never returned.
    ///
    /// # Panics
    /// Panics if `idx` lies outside the partitioned domain `0..n` — an
    /// out-of-range index belongs to no part (it must **not** silently map
    /// to a nonexistent or wrong part).
    pub fn part_of(&self, idx: CurveIndex) -> usize {
        match self.try_part_of(idx) {
            Some(j) => j,
            None => panic!(
                "curve index {idx} outside the partitioned domain 0..{}",
                self.n()
            ),
        }
    }

    /// The part owning curve index `idx`, or `None` if `idx ≥ n` (outside
    /// the partitioned domain).
    pub fn try_part_of(&self, idx: CurveIndex) -> Option<usize> {
        if idx >= self.n() {
            return None;
        }
        // partition_point returns the count of boundaries ≤ idx; the cell
        // belongs to that boundary's part. With idx < n, boundary 0 (= 0)
        // is always ≤ idx and the last boundary is > idx, so the result is
        // a valid part whose half-open range contains idx.
        Some(self.boundaries.partition_point(|&b| b <= idx) - 1)
    }

    /// Weight of each part under `weights` given in curve order.
    pub fn part_weights(&self, curve_order_weights: &[f64]) -> Vec<f64> {
        (0..self.parts())
            .map(|j| {
                let r = self.range(j);
                curve_order_weights[r.start as usize..r.end as usize]
                    .iter()
                    .sum()
            })
            .collect()
    }

    /// The maximum part weight (the bottleneck).
    pub fn bottleneck(&self, curve_order_weights: &[f64]) -> f64 {
        self.part_weights(curve_order_weights)
            .into_iter()
            .fold(0.0, f64::max)
    }
}

/// Greedy prefix partition: walk the curve order, closing a part as soon as
/// its weight reaches the running ideal average of the *remaining* work.
///
/// Cost `O(n)`; the bottleneck is at most `ideal + max cell weight`.
pub fn partition_greedy<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    weights: &WeightedGrid<D>,
    p: usize,
) -> Partition {
    assert!(p >= 1, "need at least one part");
    let order = weights.in_curve_order(curve);
    let n = order.len();
    let mut boundaries = Vec::with_capacity(p + 1);
    boundaries.push(0u128);

    let mut remaining: f64 = order.iter().sum();
    let mut i = 0usize;
    for part in 0..p {
        let parts_left = (p - part) as f64;
        let target = remaining / parts_left;
        let mut acc = 0.0;
        // Leave enough cells for the remaining parts to be non-empty when
        // possible.
        let must_stop_by = n - (p - part - 1).min(n);
        while i < must_stop_by && (acc < target || acc == 0.0) {
            acc += order[i];
            i += 1;
        }
        remaining -= acc;
        boundaries.push(i as u128);
    }
    *boundaries.last_mut().unwrap() = n as u128;
    Partition::from_boundaries(boundaries)
}

/// Feasibility oracle: can the order be cut into at most `p` contiguous
/// parts of weight ≤ `cap`? Greedy filling is optimal for this check.
fn feasible(order: &[f64], p: usize, cap: f64) -> bool {
    let mut parts = 1usize;
    let mut acc = 0.0f64;
    for &w in order {
        if w > cap {
            return false;
        }
        if acc + w > cap {
            parts += 1;
            if parts > p {
                return false;
            }
            acc = w;
        } else {
            acc += w;
        }
    }
    true
}

/// Minimum-bottleneck partition: minimizes `max_j weight(part j)` over all
/// contiguous `p`-way partitions, by bisection on the bottleneck with the
/// greedy feasibility oracle.
///
/// The returned partition's bottleneck is within `rel_tol · total` of the
/// true optimum.
pub fn partition_min_bottleneck<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    weights: &WeightedGrid<D>,
    p: usize,
    rel_tol: f64,
) -> Partition {
    let order = weights.in_curve_order(curve);
    let n = order.len() as u128;
    min_bottleneck_cut(&order, |i| i as u128, n, p, rel_tol)
}

/// Minimum-bottleneck partition over a **sparse** weight sequence: only
/// the curve indices that carried weight are listed; every other index has
/// weight zero and is free to land on either side of a cut. This is the
/// form live-traffic feedback arrives in
/// ([`TrafficWeights`](crate::TrafficWeights)): a serving system observes
/// weights for the cells it actually touched, out of a keyspace far too
/// large to materialise densely.
///
/// `entries` must be sorted by strictly increasing curve index, every
/// index `< n`, and every weight non-negative and finite. The cut points
/// of the returned partition coincide with observed indices (a boundary
/// between two observed cells may be placed at the second cell's index;
/// the zero-weight gap in between belongs to the earlier part). With no
/// entries at all the keyspace-uniform partition of `0..n` is returned.
pub fn partition_min_bottleneck_sparse(
    entries: &[(CurveIndex, f64)],
    n: u128,
    p: usize,
    rel_tol: f64,
) -> Partition {
    assert!(p >= 1, "need at least one part");
    assert!(rel_tol > 0.0, "tolerance must be positive");
    assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "entries must have strictly increasing curve indices"
    );
    assert!(
        entries.last().is_none_or(|&(idx, _)| idx < n),
        "entry index outside the domain 0..{n}"
    );
    assert!(
        entries.iter().all(|&(_, w)| w.is_finite() && w >= 0.0),
        "weights must be non-negative and finite"
    );
    if entries.is_empty() {
        return Partition::uniform(n, p);
    }
    let order: Vec<f64> = entries.iter().map(|&(_, w)| w).collect();
    min_bottleneck_cut(&order, |i| entries[i].0, n, p, rel_tol)
}

/// The shared min-bottleneck engine: bisection on the bottleneck over the
/// weight sequence `order`, then the greedy cut materialised at the
/// feasible capacity. `key_of(i)` maps a sequence position to its curve
/// index (the identity for a dense order, the observed index for a sparse
/// one), so the dense path never materialises an `(index, weight)` pair
/// table.
fn min_bottleneck_cut(
    order: &[f64],
    key_of: impl Fn(usize) -> CurveIndex,
    n: u128,
    p: usize,
    rel_tol: f64,
) -> Partition {
    let total: f64 = order.iter().sum();
    let max_w = order.iter().cloned().fold(0.0, f64::max);

    let mut lo = (total / p as f64).max(max_w); // optimum is ≥ both
    let mut hi = total;
    let tol = rel_tol * total.max(f64::MIN_POSITIVE);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if feasible(order, p, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    // Materialise the greedy cut at the feasible capacity `hi`; a part
    // opens at the first weighted index that would overflow the previous
    // part. The first entry never opens a new part (its weight is ≤ the
    // capacity), so boundaries stay strictly increasing until padding.
    let mut boundaries = vec![0u128];
    let mut acc = 0.0f64;
    for (i, &w) in order.iter().enumerate() {
        if acc + w > hi && boundaries.len() < p {
            boundaries.push(key_of(i));
            acc = w;
        } else {
            acc += w;
        }
    }
    while boundaries.len() < p {
        boundaries.push(n); // degenerate empty tail parts
    }
    boundaries.push(n);
    Partition::from_boundaries(boundaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{WeightedGrid, Workload};
    use rand::SeedableRng;
    use sfc_core::{CurveKind, Grid, HilbertCurve, ZCurve};

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(4)
    }

    #[test]
    fn partition_accessors() {
        let p = Partition::from_boundaries(vec![0, 4, 8, 16]);
        assert_eq!(p.parts(), 3);
        assert_eq!(p.n(), 16);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(2), 8..16);
        assert_eq!(p.part_of(0), 0);
        assert_eq!(p.part_of(3), 0);
        assert_eq!(p.part_of(4), 1);
        assert_eq!(p.part_of(15), 2);
    }

    #[test]
    fn part_of_is_half_open_at_exact_boundaries() {
        let p = Partition::from_boundaries(vec![0, 4, 8, 16]);
        // A boundary index belongs to the part it *starts*, never to the
        // part it ends.
        for (idx, want) in [(0u128, 0usize), (3, 0), (4, 1), (7, 1), (8, 2), (15, 2)] {
            let j = p.part_of(idx);
            assert_eq!(j, want, "part_of({idx})");
            assert!(p.range(j).contains(&idx), "range({j}) must own {idx}");
            assert_eq!(p.try_part_of(idx), Some(want));
        }
    }

    #[test]
    fn part_of_skips_empty_parts() {
        // Part 1 is empty ([4, 4)): it owns no indices, and the boundary
        // index 4 belongs to part 2, which starts there.
        let p = Partition::from_boundaries(vec![0, 4, 4, 8]);
        assert_eq!(p.part_of(3), 0);
        assert_eq!(p.part_of(4), 2);
        assert!(p.range(1).is_empty());
        for idx in 0..8u128 {
            let j = p.part_of(idx);
            assert!(p.range(j).contains(&idx));
        }
    }

    #[test]
    #[should_panic(expected = "outside the partitioned domain")]
    fn part_of_rejects_indices_past_the_last_boundary() {
        let p = Partition::from_boundaries(vec![0, 4, 8, 16]);
        p.part_of(16);
    }

    #[test]
    fn try_part_of_returns_none_out_of_domain() {
        let p = Partition::from_boundaries(vec![0, 4, 8, 16]);
        assert_eq!(p.try_part_of(15), Some(2));
        assert_eq!(p.try_part_of(16), None);
        assert_eq!(p.try_part_of(u128::MAX), None);
        // Empty domain: no index belongs anywhere.
        let empty = Partition::from_boundaries(vec![0, 0]);
        assert_eq!(empty.n(), 0);
        assert_eq!(empty.try_part_of(0), None);
    }

    #[test]
    fn uniform_partition_covers_the_domain_evenly() {
        let p = Partition::uniform(10, 3);
        assert_eq!(p.boundaries(), &[0, 4, 7, 10]);
        for idx in 0..10u128 {
            assert!(p.range(p.part_of(idx)).contains(&idx));
        }
        // More parts than indices: empty tails, every index still owned.
        let p = Partition::uniform(2, 4);
        assert_eq!(p.boundaries(), &[0, 1, 2, 2, 2]);
        assert_eq!(p.part_of(0), 0);
        assert_eq!(p.part_of(1), 1);
        // Huge domains must not overflow the boundary arithmetic.
        let p = Partition::uniform(1u128 << 126, 3);
        assert_eq!(p.parts(), 3);
        assert_eq!(p.n(), 1u128 << 126);
    }

    #[test]
    fn sparse_min_bottleneck_matches_dense_positions() {
        // Dense weights presented sparsely (every index observed) must
        // reproduce the dense algorithm's cuts exactly.
        let weights = [5.0, 1.0, 1.0, 1.0, 6.0, 1.0, 1.0, 2.0];
        let entries: Vec<(CurveIndex, f64)> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u128, w))
            .collect();
        let grid = sfc_core::Grid::<1>::new(3).unwrap();
        let curve = sfc_core::SimpleCurve::<1>::over(grid);
        let dense = partition_min_bottleneck(
            &curve,
            &WeightedGrid::from_weights(grid, weights.to_vec()),
            3,
            1e-12,
        );
        let sparse = partition_min_bottleneck_sparse(&entries, 8, 3, 1e-12);
        assert_eq!(sparse.boundaries(), dense.boundaries());
    }

    #[test]
    fn sparse_min_bottleneck_with_gaps_balances_observed_load() {
        // Three hot cells far apart in a huge domain; 3 parts isolate
        // them.
        let entries = [(10u128, 4.0), (1_000_000, 4.0), (2_000_000, 4.0)];
        let part = partition_min_bottleneck_sparse(&entries, 1 << 40, 3, 1e-9);
        let parts: Vec<usize> = entries.iter().map(|&(i, _)| part.part_of(i)).collect();
        assert_eq!(parts, vec![0, 1, 2]);
    }

    #[test]
    fn sparse_min_bottleneck_empty_is_uniform() {
        let part = partition_min_bottleneck_sparse(&[], 9, 3, 1e-9);
        assert_eq!(part.boundaries(), Partition::uniform(9, 3).boundaries());
    }

    #[test]
    fn uniform_load_divides_evenly() {
        let grid = Grid::<2>::new(3).unwrap();
        let w = WeightedGrid::generate(grid, Workload::Uniform, &mut rng());
        let z = ZCurve::<2>::over(grid);
        for p in [1usize, 2, 4, 8] {
            let part = partition_greedy(&z, &w, p);
            assert_eq!(part.parts(), p);
            let weights = part.part_weights(&w.in_curve_order(&z));
            for pw in &weights {
                assert_eq!(*pw, 64.0 / p as f64, "p={p}");
            }
        }
    }

    #[test]
    fn greedy_covers_all_cells_exactly_once() {
        let grid = Grid::<2>::new(2).unwrap();
        let w =
            WeightedGrid::generate(grid, Workload::CornerExponential { scale: 1.5 }, &mut rng());
        let z = ZCurve::<2>::over(grid);
        let part = partition_greedy(&z, &w, 5);
        assert_eq!(part.boundaries().first(), Some(&0));
        assert_eq!(part.boundaries().last(), Some(&16));
        // Every index belongs to exactly one part.
        for idx in 0..16u128 {
            let j = part.part_of(idx);
            assert!(part.range(j).contains(&idx));
        }
    }

    #[test]
    fn min_bottleneck_never_worse_than_greedy() {
        let grid = Grid::<2>::new(3).unwrap();
        let mut r = rng();
        for workload in [
            Workload::Uniform,
            Workload::CornerExponential { scale: 2.0 },
            Workload::GaussianClusters {
                count: 3,
                sigma: 2.0,
            },
        ] {
            let w = WeightedGrid::generate(grid, workload, &mut r);
            let z = ZCurve::<2>::over(grid);
            let order = w.in_curve_order(&z);
            for p in [2usize, 3, 7] {
                let g = partition_greedy(&z, &w, p).bottleneck(&order);
                let m = partition_min_bottleneck(&z, &w, p, 1e-9).bottleneck(&order);
                assert!(m <= g + 1e-6, "{workload:?} p={p}: {m} > {g}");
            }
        }
    }

    #[test]
    fn min_bottleneck_matches_exhaustive_on_small_input() {
        // 1-D grid with 8 cells: exhaustively try all 2-cut placements.
        let grid = Grid::<1>::new(3).unwrap();
        let weights = vec![5.0, 1.0, 1.0, 1.0, 6.0, 1.0, 1.0, 2.0];
        let w = WeightedGrid::from_weights(grid, weights.clone());
        let curve = sfc_core::SimpleCurve::<1>::over(grid);
        let result = partition_min_bottleneck(&curve, &w, 3, 1e-12);
        let measured = result.bottleneck(&weights);
        // Brute force all cut pairs (c1 ≤ c2).
        let mut best = f64::INFINITY;
        for c1 in 0..=8usize {
            for c2 in c1..=8usize {
                let s1: f64 = weights[..c1].iter().sum();
                let s2: f64 = weights[c1..c2].iter().sum();
                let s3: f64 = weights[c2..].iter().sum();
                best = best.min(s1.max(s2).max(s3));
            }
        }
        assert!((measured - best).abs() < 1e-6, "{measured} vs {best}");
    }

    #[test]
    fn single_part_partition_is_everything() {
        let grid = Grid::<2>::new(2).unwrap();
        let w = WeightedGrid::generate(grid, Workload::Uniform, &mut rng());
        let z = ZCurve::<2>::over(grid);
        let part = partition_greedy(&z, &w, 1);
        assert_eq!(part.parts(), 1);
        assert_eq!(part.range(0), 0..16);
    }

    #[test]
    fn more_parts_than_cells_yields_empty_tails() {
        let grid = Grid::<1>::new(1).unwrap(); // 2 cells
        let w = WeightedGrid::generate(grid, Workload::Uniform, &mut rng());
        let c = sfc_core::SimpleCurve::<1>::over(grid);
        let part = partition_greedy(&c, &w, 4);
        assert_eq!(part.parts(), 4);
        let weights = part.part_weights(&w.in_curve_order(&c));
        let nonzero = weights.iter().filter(|&&x| x > 0.0).count();
        assert_eq!(nonzero, 2);
    }

    #[test]
    fn every_curve_kind_partitions_cleanly() {
        let grid = Grid::<2>::new(3).unwrap();
        let mut r = rng();
        let w = WeightedGrid::generate(
            grid,
            Workload::GaussianClusters {
                count: 4,
                sigma: 1.0,
            },
            &mut r,
        );
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(3).unwrap();
            let part = partition_greedy(&c, &w, 4);
            assert_eq!(part.parts(), 4);
            assert_eq!(*part.boundaries().last().unwrap(), 64);
        }
    }

    #[test]
    fn bottleneck_lower_bound_is_respected() {
        // The optimum is ≥ max(total/p, max single weight); bisection must
        // not report below it.
        let grid = Grid::<2>::new(2).unwrap();
        let mut r = rng();
        let w = WeightedGrid::generate(
            grid,
            Workload::GaussianClusters {
                count: 2,
                sigma: 1.0,
            },
            &mut r,
        );
        let h = HilbertCurve::<2>::over(grid);
        let order = w.in_curve_order(&h);
        let total: f64 = order.iter().sum();
        let max_w = order.iter().cloned().fold(0.0, f64::max);
        for p in [2usize, 4] {
            let b = partition_min_bottleneck(&h, &w, p, 1e-9).bottleneck(&order);
            assert!(b >= (total / p as f64).max(max_w) - 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn zero_parts_rejected() {
        let grid = Grid::<1>::new(1).unwrap();
        let w = WeightedGrid::generate(grid, Workload::Uniform, &mut rng());
        let c = sfc_core::SimpleCurve::<1>::over(grid);
        partition_greedy(&c, &w, 0);
    }
}
