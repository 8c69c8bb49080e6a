//! Nearest-neighbor stretch metrics (paper, Definitions 1–4).
//!
//! * `δ^avg_π(α)` — average curve distance from `α` to its grid neighbors
//!   ([`delta_avg`]).
//! * `δ^max_π(α)` — maximum curve distance to a neighbor ([`delta_max`]).
//! * `D^avg(π)` — average-average NN-stretch: the mean of `δ^avg` over all
//!   cells.
//! * `D^max(π)` — average-maximum NN-stretch: the mean of `δ^max`.
//!
//! [`summarize`] / [`summarize_par`] compute all of these **exactly** in one
//! pass: the rational sum `Σ_α δ^avg_π(α)` is accumulated as the integer
//! `Σ_α (L/|N(α)|)·Σ_β Δπ(α,β)` with `L = lcm(d,…,2d)`, so the result is a
//! ratio of two `u128`s.
//!
//! # The window
//!
//! Every exact per-cell driver of this crate (the two summaries,
//! [`per_cell_delta_avg`], and the histograms of [`crate::histogram`])
//! walks the grid through one rolling window over **row-major
//! hyperplanes**: the cells sharing a coordinate along the slowest axis
//! `d−1`, `side^{d−1}` of them, contiguous in row-major rank. Each plane is
//! encoded exactly once, by one [`SpaceFillingCurve::index_of_batch`] call,
//! into one of three reused buffers (`prev`/`cur`/`next`); a cell's
//! neighbours are then array reads — `cur[r ± side^a]` along the in-plane
//! axes `a < d−1`, `prev[r]` and `next[r]` along the slowest axis.
//!
//! * **Cost:** `n` batched encodes plus at most `2dn` array reads, where
//!   the per-cell drivers this replaces paid `(2d+1)·n` scalar (and, through
//!   a `BoxedCurve`, virtual) encodes.
//! * **Memory:** `3·side^{d−1}` curve indices and one plane of points,
//!   whatever `n` is. (In `d = 1` a plane is a single cell.)
//! * **Parallel driver:** [`summarize_par`] cuts the `side` planes into
//!   contiguous ranges and gives each range a window of its own, which
//!   re-encodes the one plane on either side of the range as its halo. Every
//!   cell is visited exactly once with exactly the neighbours the sequential
//!   pass sees, and all accumulators are integers (addition is associative,
//!   `max` too), so the result is bit-identical to [`summarize`] however the
//!   planes are cut — the tests assert it for every cut.
//!
//! The single-cell helpers [`delta_sum`], [`delta_avg`] and [`delta_max`]
//! evaluate the curve directly; the samplers use them, and the differential
//! tests use them as the reference the window is checked against.

use rayon::prelude::*;
use sfc_core::{CurveIndex, Point, SpaceFillingCurve};
use std::ops::Range;

/// Calls `visit(π(α), down, up)` for every cell `α` of the grid in
/// row-major order, where `down` / `up` hold the curve indices of the
/// neighbours `α − e_a` / `α + e_a` that exist (axes ascending).
pub(crate) fn for_each_cell<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    visit: impl FnMut(CurveIndex, &[CurveIndex], &[CurveIndex]),
) {
    for_each_cell_in_planes(curve, 0..curve.grid().side(), visit);
}

/// [`for_each_cell`] restricted to the hyperplanes whose coordinate along
/// the slowest axis lies in `planes` (see the module docs).
fn for_each_cell_in_planes<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    planes: Range<u64>,
    mut visit: impl FnMut(CurveIndex, &[CurveIndex], &[CurveIndex]),
) {
    if planes.is_empty() {
        return;
    }
    let grid = curve.grid();
    let (k, side) = (grid.k(), grid.side());
    let plane_len =
        usize::try_from(grid.n() / u128::from(side)).expect("grid too large for exact enumeration");
    let mask = side as usize - 1;
    // The cells of one plane; planes differ in the slowest coordinate only.
    let mut cells: Vec<Point<D>> = grid.cells().take(plane_len).collect();
    let (mut prev, mut cur, mut next) = (Vec::new(), Vec::new(), Vec::new());
    let mut encode = |z: u64, out: &mut Vec<CurveIndex>| {
        for cell in &mut cells {
            *cell = cell.with_coord(D - 1, z as u32);
        }
        curve.index_of_batch(&cells, out);
    };
    // Ahead of the first roll: the plane below the range (its lower halo)
    // sits in `cur`, the first plane of the range in `next`.
    if planes.start > 0 {
        encode(planes.start - 1, &mut cur);
    }
    encode(planes.start, &mut next);
    for z in planes {
        // Roll: the plane encoded ahead becomes current, and the oldest
        // buffer is free to take the plane after it (the upper halo, at
        // the end of the range).
        std::mem::swap(&mut prev, &mut cur);
        std::mem::swap(&mut cur, &mut next);
        let (has_prev, has_next) = (z > 0, z + 1 < side);
        if has_next {
            encode(z + 1, &mut next);
        }
        for (r, &own) in cur.iter().enumerate() {
            let (mut down, mut up) = ([0; D], [0; D]);
            let (mut downs, mut ups) = (0, 0);
            for axis in 0..D - 1 {
                let shift = k as usize * axis;
                let coord = (r >> shift) & mask;
                if coord > 0 {
                    down[downs] = cur[r - (1 << shift)];
                    downs += 1;
                }
                if coord < mask {
                    up[ups] = cur[r + (1 << shift)];
                    ups += 1;
                }
            }
            if has_prev {
                down[downs] = prev[r];
                downs += 1;
            }
            if has_next {
                up[ups] = next[r];
                ups += 1;
            }
            visit(own, &down[..downs], &up[..ups]);
        }
    }
}

/// `(Σ_β Δπ(α,β), max_β Δπ(α,β), |N(α)|)` of one visited cell.
pub(crate) fn neighbor_distances(
    own: CurveIndex,
    down: &[CurveIndex],
    up: &[CurveIndex],
) -> (u128, CurveIndex, usize) {
    let (mut sum, mut max) = (0, 0);
    for &nb in down.iter().chain(up) {
        let dist = own.abs_diff(nb);
        sum += dist;
        max = max.max(dist);
    }
    (sum, max, down.len() + up.len())
}

/// Greatest common divisor (Euclid).
fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Least common multiple of `d, d+1, …, 2d` — every possible `|N(α)|`
/// divides this, so `L/|N(α)|` is an integer.
pub(crate) fn neighbor_count_lcm(d: usize) -> u128 {
    let mut l = 1u128;
    for m in d..=2 * d {
        let m = m as u128;
        l = l / gcd(l, m) * m;
    }
    l
}

/// The paper's `δ^avg_π(α)`: the average curve distance from `α` to its
/// nearest neighbors `N(α)`.
pub fn delta_avg<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, cell: Point<D>) -> f64 {
    let (sum, count) = delta_sum(curve, cell);
    sum as f64 / count as f64
}

/// The exact numerator/denominator of `δ^avg_π(α)`:
/// `(Σ_{β∈N(α)} Δπ(α,β), |N(α)|)`.
pub fn delta_sum<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    cell: Point<D>,
) -> (u128, usize) {
    let grid = curve.grid();
    let idx = curve.index_of(cell);
    let mut sum = 0u128;
    let mut count = 0usize;
    for nb in grid.neighbors(cell) {
        sum += idx.abs_diff(curve.index_of(nb));
        count += 1;
    }
    (sum, count)
}

/// The paper's `δ^max_π(α)`: the maximum curve distance from `α` to a
/// nearest neighbor.
pub fn delta_max<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, cell: Point<D>) -> CurveIndex {
    let grid = curve.grid();
    let idx = curve.index_of(cell);
    grid.neighbors(cell)
        .map(|nb| idx.abs_diff(curve.index_of(nb)))
        .max()
        .unwrap_or(0)
}

/// Exact one-pass summary of all NN-stretch metrics of a curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NnStretchSummary {
    /// Curve name (for reports).
    pub curve: String,
    /// Dimension `d`.
    pub d: usize,
    /// Bits per coordinate `k`.
    pub k: u32,
    /// Number of cells `n = 2^{kd}`.
    pub n: u128,
    /// Exact numerator of `D^avg`: `Σ_α (L/|N(α)|)·Σ_β Δπ(α,β)`.
    pub davg_numerator: u128,
    /// Exact denominator of `D^avg`: `L · n`.
    pub davg_denominator: u128,
    /// `Σ_α δ^max_π(α)` (so `D^max = dmax_sum / n`).
    pub dmax_sum: u128,
    /// `Σ_{(α,β) ∈ NN_d} Δπ(α,β)` — the Lemma 3 / Lemma 5 edge sum.
    pub edge_sum: u128,
    /// `max_α δ^max_π(α)`: the worst single neighbor separation.
    pub max_delta: CurveIndex,
}

impl NnStretchSummary {
    /// `D^avg(π)` as a float (the underlying value is exact).
    pub fn d_avg(&self) -> f64 {
        self.davg_numerator as f64 / self.davg_denominator as f64
    }

    /// `D^max(π)` as a float (the underlying value is exact).
    pub fn d_max(&self) -> f64 {
        self.dmax_sum as f64 / self.n as f64
    }

    /// `true` iff `D^avg` equals `num/den` exactly (cross-multiplication,
    /// no floating point). Used to assert the paper's hand-worked values.
    pub fn d_avg_equals_ratio(&self, num: u128, den: u128) -> bool {
        // davg_numerator / davg_denominator == num / den
        self.davg_numerator * den == num * self.davg_denominator
    }

    /// `true` iff `D^max` equals `num/den` exactly.
    pub fn d_max_equals_ratio(&self, num: u128, den: u128) -> bool {
        self.dmax_sum * den == num * self.n
    }

    /// Ratio of the measured `D^avg` to a reference value (a bound or an
    /// asymptote).
    pub fn ratio_to(&self, reference: f64) -> f64 {
        self.d_avg() / reference
    }
}

/// The exact sums of a set of cells.
#[derive(Debug, Clone, Copy, Default)]
struct Accum {
    davg_scaled: u128,
    dmax_sum: u128,
    double_edge_sum: u128,
    max_delta: u128,
}

impl Accum {
    fn merge(self, other: Self) -> Self {
        Accum {
            davg_scaled: self.davg_scaled + other.davg_scaled,
            dmax_sum: self.dmax_sum + other.dmax_sum,
            double_edge_sum: self.double_edge_sum + other.double_edge_sum,
            max_delta: self.max_delta.max(other.max_delta),
        }
    }
}

/// Folds [`Accum`] over the cells of a range of hyperplanes.
fn accumulate_planes<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    planes: Range<u64>,
) -> Accum {
    // `L/|N(α)|` per neighbour count; a one-cell grid has `|N(α)| = 0` and
    // an empty sum, which weighs nothing.
    let lcm = neighbor_count_lcm(D);
    let weights: Vec<u128> = (0..=2 * D as u128)
        .map(|count| lcm.checked_div(count).unwrap_or(0))
        .collect();
    let mut acc = Accum::default();
    for_each_cell_in_planes(curve, planes, |own, down, up| {
        let (sum, max, count) = neighbor_distances(own, down, up);
        acc.davg_scaled += sum * weights[count];
        acc.dmax_sum += max;
        acc.double_edge_sum += sum;
        acc.max_delta = acc.max_delta.max(max);
    });
    acc
}

fn finish<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, acc: Accum) -> NnStretchSummary {
    let grid = curve.grid();
    NnStretchSummary {
        curve: curve.name(),
        d: D,
        k: grid.k(),
        n: grid.n(),
        davg_numerator: acc.davg_scaled,
        davg_denominator: neighbor_count_lcm(D) * grid.n(),
        dmax_sum: acc.dmax_sum,
        // Each unordered NN edge was visited from both endpoints.
        edge_sum: acc.double_edge_sum / 2,
        max_delta: acc.max_delta,
    }
}

/// Computes all NN-stretch metrics exactly, sequentially.
///
/// Cost: `n` batched curve evaluations and `O(n·d)` array reads (see the
/// module docs). A one-cell grid has no neighbour pairs: every sum is `0`.
pub fn summarize<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> NnStretchSummary {
    finish(curve, accumulate_planes(curve, 0..curve.grid().side()))
}

/// How many contiguous plane ranges [`summarize_par`] cuts the grid into
/// (at most; never more than there are planes). Each range re-encodes two
/// halo planes, so more ranges buy load balance with redundant encodes.
const PLANE_RANGES: u64 = 32;

/// Computes all NN-stretch metrics exactly, in parallel with Rayon over
/// contiguous ranges of hyperplanes.
///
/// Returns bit-identical results to [`summarize`] (integer accumulation is
/// order-independent).
///
/// Measured crossover on two cores: 0.03–0.04× [`summarize`] at `d=2
/// k=4`, 0.29–0.30× at `k=6`, 0.35–0.48× at `d=3 k=4`, 1.29× at `d=2
/// k=8`; 1.73–1.83× at `d=2 k=10` (1.72–1.86× for Hilbert), where
/// `benches/nn_stretch.rs` gates it at ≥ 1.3× on any box with two or more
/// CPUs. Below `d=2 k≈8` call [`summarize`].
pub fn summarize_par<const D: usize, C: SpaceFillingCurve<D> + Sync>(
    curve: &C,
) -> NnStretchSummary {
    let side = curve.grid().side();
    let ranges = PLANE_RANGES.min(side);
    let acc = (0..ranges)
        .into_par_iter()
        .map(|i| accumulate_planes(curve, side * i / ranges..side * (i + 1) / ranges))
        .reduce(Accum::default, Accum::merge);
    finish(curve, acc)
}

/// The per-cell `δ^avg` values in row-major cell order (for distribution
/// plots and the Figure 1 worked example).
pub fn per_cell_delta_avg<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> Vec<f64> {
    let mut out = Vec::new();
    for_each_cell(curve, |own, down, up| {
        let (sum, _, count) = neighbor_distances(own, down, up);
        out.push(sum as f64 / count as f64);
    });
    out
}

/// A measured value paired with a reference (bound or asymptote), as
/// reported by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StretchRatio {
    /// The measured metric value.
    pub measured: f64,
    /// The reference value it is compared against.
    pub reference: f64,
}

impl StretchRatio {
    /// `measured / reference`.
    pub fn ratio(&self) -> f64 {
        self.measured / self.reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sfc_core::transform::Reversed;
    use sfc_core::{CurveKind, Grid, PermutationCurve, SimpleCurve, ZCurve};

    #[test]
    fn lcm_of_neighbor_counts() {
        assert_eq!(neighbor_count_lcm(1), 2); // lcm(1, 2)
        assert_eq!(neighbor_count_lcm(2), 12); // lcm(2, 3, 4)
        assert_eq!(neighbor_count_lcm(3), 60); // lcm(3, 4, 5, 6)
        assert_eq!(neighbor_count_lcm(4), 840); // lcm(4..=8)
    }

    #[test]
    fn figure1_pi1_worked_values() {
        // Paper, Section III: D^avg(π₁) = 1.5, D^max(π₁) = 2, and every
        // per-cell δ^avg is 1.5.
        let pi1 = PermutationCurve::figure1_pi1();
        let s = summarize(&pi1);
        assert!(s.d_avg_equals_ratio(3, 2), "D^avg(π₁) = {}", s.d_avg());
        assert!(s.d_max_equals_ratio(2, 1), "D^max(π₁) = {}", s.d_max());
        for v in per_cell_delta_avg(&pi1) {
            assert_eq!(v, 1.5);
        }
    }

    #[test]
    fn figure1_pi2_worked_values() {
        // Paper: D^avg(π₂) = 2 and D^max(π₂) = 2.5.
        let pi2 = PermutationCurve::figure1_pi2();
        let s = summarize(&pi2);
        assert!(s.d_avg_equals_ratio(2, 1), "D^avg(π₂) = {}", s.d_avg());
        assert!(s.d_max_equals_ratio(5, 2), "D^max(π₂) = {}", s.d_max());
    }

    #[test]
    fn dmax_dominates_davg_everywhere() {
        // Proposition 1's driving fact: δ^max ≥ δ^avg, hence D^max ≥ D^avg.
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(3).unwrap();
            let s = summarize(&c);
            assert!(
                s.d_max() >= s.d_avg() - 1e-12,
                "{kind}: {} < {}",
                s.d_max(),
                s.d_avg()
            );
        }
    }

    #[test]
    fn one_cell_grid_has_all_zero_sums() {
        fn check<const D: usize>() {
            for kind in CurveKind::ALL {
                let c = kind.build::<D>(0).unwrap();
                let s = summarize(&c);
                assert_eq!(s, summarize_par(&c), "{kind} d={D}");
                assert_eq!((s.n, s.davg_numerator, s.dmax_sum), (1, 0, 0));
                assert_eq!((s.edge_sum, s.max_delta), (0, 0));
                assert_eq!(s.davg_denominator, neighbor_count_lcm(D));
                assert_eq!((s.d_avg(), s.d_max()), (0.0, 0.0), "{kind} d={D}");
            }
        }
        check::<1>();
        check::<2>();
        check::<3>();
    }

    /// The summary of a curve folded over the plane ranges `cuts` delimit.
    fn summarize_cut<const D: usize>(kind: CurveKind, k: u32, cuts: &[u64]) -> NnStretchSummary {
        let curve = kind.build::<D>(k).unwrap();
        let side = curve.grid().side();
        let mut bounds: Vec<u64> = cuts.iter().map(|c| c % (side + 1)).collect();
        bounds.extend([0, side]);
        bounds.sort_unstable();
        let acc = bounds
            .windows(2)
            .map(|w| accumulate_planes(&curve, w[0]..w[1]))
            .fold(Accum::default(), Accum::merge);
        let cut = finish(&curve, acc);
        assert_eq!(cut, summarize(&curve), "{kind} d={D} k={k} cuts {bounds:?}");
        cut
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// What makes `summarize_par` bit-identical to `summarize`: any cut
        /// of the planes into contiguous ranges (empty ones included), each
        /// with its own window and halo, merges to the same summary.
        #[test]
        fn any_cut_into_plane_ranges_merges_to_the_sequential_summary(
            kind in 0usize..CurveKind::ALL.len(),
            d in 1usize..=3,
            k in 0u32..=3,
            cuts in proptest::collection::vec(0u64..64, 0..6),
        ) {
            let kind = CurveKind::ALL[kind];
            match d {
                1 => summarize_cut::<1>(kind, k + 2, &cuts),
                2 => summarize_cut::<2>(kind, k, &cuts),
                _ => summarize_cut::<3>(kind, k.min(2), &cuts),
            };
        }
    }

    #[test]
    fn window_drivers_match_the_single_cell_helpers() {
        let h = CurveKind::Hilbert.build::<3>(2).unwrap();
        let cells: Vec<_> = h.grid().cells().collect();
        let per_cell: Vec<f64> = cells.iter().map(|&c| delta_avg(&h, c)).collect();
        assert_eq!(per_cell_delta_avg(&h), per_cell);
        let mut maxima = crate::histogram::Log2Histogram::default();
        cells.iter().for_each(|&c| maxima.push(delta_max(&h, c)));
        assert_eq!(crate::histogram::delta_max_histogram(&h), maxima);
        let mut edges = crate::histogram::Log2Histogram::default();
        for (a, b, _) in h.grid().nn_edges() {
            edges.push(h.curve_distance(a, b));
        }
        assert_eq!(crate::histogram::edge_distance_histogram(&h), edges);
    }

    #[test]
    fn parallel_equals_sequential_bitwise() {
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(3).unwrap();
            assert_eq!(summarize(&c), summarize_par(&c), "{kind}");
            let c3 = kind.build::<3>(2).unwrap();
            assert_eq!(summarize(&c3), summarize_par(&c3), "{kind} d=3");
        }
    }

    #[test]
    fn lemma3_brackets_davg() {
        use crate::bounds::{lemma3_lower, lemma3_upper};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let grid = Grid::<2>::new(2).unwrap();
        for _ in 0..5 {
            let c = PermutationCurve::random(grid, &mut rng).unwrap();
            let s = summarize(&c);
            let lo = lemma3_lower(s.edge_sum, s.n, 2);
            let hi = lemma3_upper(s.edge_sum, s.n, 2);
            assert!(lo <= s.d_avg() + 1e-12 && s.d_avg() <= hi + 1e-12);
        }
    }

    #[test]
    fn reversal_preserves_all_metrics() {
        let z = ZCurve::<2>::new(3).unwrap();
        let s = summarize(&z);
        let r = summarize(&Reversed::new(z));
        assert_eq!(s.davg_numerator, r.davg_numerator);
        assert_eq!(s.dmax_sum, r.dmax_sum);
        assert_eq!(s.edge_sum, r.edge_sum);
        assert_eq!(s.max_delta, r.max_delta);
    }

    #[test]
    fn one_dimensional_monotone_curve_has_stretch_one() {
        // In d = 1 the simple curve is the identity: every neighbor pair is
        // at curve distance 1, so D^avg = D^max = 1.
        let s = summarize(&SimpleCurve::<1>::new(5).unwrap());
        assert!(s.d_avg_equals_ratio(1, 1));
        assert!(s.d_max_equals_ratio(1, 1));
        assert_eq!(s.max_delta, 1);
    }

    #[test]
    fn simple_curve_dmax_is_exactly_n_pow() {
        // Proposition 2: D^max(S) = n^{1−1/d}, exactly, for every cell.
        for k in 1..=3u32 {
            let s2 = summarize(&SimpleCurve::<2>::new(k).unwrap());
            let expected = crate::bounds::prop2_dmax_simple_exact(k, 2);
            assert!(s2.d_max_equals_ratio(expected, 1), "d=2 k={k}");
        }
        let s3 = summarize(&SimpleCurve::<3>::new(2).unwrap());
        assert!(s3.d_max_equals_ratio(crate::bounds::prop2_dmax_simple_exact(2, 3), 1));
    }

    #[test]
    fn edge_sum_matches_direct_enumeration() {
        let z = ZCurve::<2>::new(2).unwrap();
        let s = summarize(&z);
        let direct: u128 = z
            .grid()
            .nn_edges()
            .map(|(a, b, _)| z.curve_distance(a, b))
            .sum();
        assert_eq!(s.edge_sum, direct);
    }

    #[test]
    fn delta_helpers_agree_with_summary() {
        let z = ZCurve::<2>::new(2).unwrap();
        let cell = Point::new([1, 2]);
        let (sum, count) = delta_sum(&z, cell);
        assert_eq!(count, 4);
        assert!((delta_avg(&z, cell) - sum as f64 / 4.0).abs() < 1e-12);
        assert!(delta_max(&z, cell) >= sum / 4);
    }

    #[test]
    fn thm1_lower_bound_holds_for_every_curve_and_random_bijections() {
        use crate::bounds::thm1_nn_stretch_lower_bound;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        for kind in CurveKind::ALL {
            for k in 1..=3u32 {
                let c = kind.build::<2>(k).unwrap();
                let s = summarize(&c);
                let bound = thm1_nn_stretch_lower_bound(k, 2);
                assert!(
                    s.d_avg() >= bound - 1e-12,
                    "{kind} d=2 k={k}: {} < {bound}",
                    s.d_avg()
                );
            }
        }
        let grid = Grid::<2>::new(2).unwrap();
        for _ in 0..20 {
            let c = PermutationCurve::random(grid, &mut rng).unwrap();
            let s = summarize(&c);
            assert!(s.d_avg() >= thm1_nn_stretch_lower_bound(2, 2) - 1e-12);
        }
    }
}
