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
//! narrowed to 64-bit curve indices and kept in one of three reused buffers
//! (`prev`/`cur`/`next`).
//!
//! A plane is worked **a row at a time**: a row is the `side` cells along
//! axis 0 that share every other coordinate (in `d = 1`, where axis 0 is
//! the slowest axis, a row is one cell). The rows one step down and up
//! along every other axis are contiguous slices of the same buffers —
//! `cur[r ∓ side^a]` along the in-plane axes `0 < a < d−1`, `prev[r]` and
//! `next[r]` along the slowest axis — fixed for the whole row. One pass over
//! the row gives every cell its neighbour sum and maximum: the edge to the
//! next cell of the row is taken once and serves both its ends, and the
//! partner rows are read in step with the row, with no branch per cell (a
//! partner row outside the grid is replaced by the row itself, at distance
//! 0). All interior cells of a row have the same neighbour count, and so
//! have its two ends, so the summaries weigh by `L/|N(α)|` with two
//! multiplies per row: one on the sum of its interior cells, one on the
//! sum of its ends.
//!
//! * **Cost:** `n` batched encodes, then per cell one in-row edge and
//!   `2(d−1)` partner reads and distances (two in `d = 1`) in 64-bit
//!   lanes, where a per-cell evaluation pays `(2d+1)·n` scalar (and,
//!   through a `BoxedCurve`, virtual) encodes.
//! * **Memory:** three planes of 64-bit indices, plus one plane of points and
//!   its 128-bit indices for the encoder: `O(side^{d−1})`, whatever `n` is.
//! * **Size limit:** `max_cells(d)` cells. A cell's neighbour sum is at
//!   most `2d·(n−1)` and must fit its 64-bit lane; the sums fold into
//!   128-bit accumulators, the largest of which, the `D^avg` numerator, is
//!   at most `L·n·(n−1)`. That admits `2^62` cells in `d = 2` (`k ≤ 31`),
//!   about `2^61` in `d = 3` (`k ≤ 20`) and `2^59` in `d = 4` (`k ≤ 14`):
//!   far beyond any grid that can be enumerated. Every exact driver
//!   asserts it at entry.
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
use sfc_core::{CurveIndex, Grid, Point, SpaceFillingCurve};
use std::ops::Range;

/// The largest number of cells the exact drivers accept in `d`
/// dimensions (see the module docs): the largest `n` with
/// `2d·(n−1) ≤ u64::MAX`, the bound of one cell's neighbour sum, and
/// `L·n·(n−1) ≤ u128::MAX`, the bound of the `D^avg` numerator.
pub(crate) fn max_cells(d: usize) -> u128 {
    let by_lane = u128::from(u64::MAX) / (2 * d as u128) + 1;
    let cap = u128::MAX / neighbor_count_lcm(d);
    let mut by_total = cap.isqrt();
    if by_total * (by_total + 1) <= cap {
        by_total += 1;
    }
    by_lane.min(by_total)
}

/// Panics unless the grid is within [`max_cells`]; every exact driver
/// calls it first.
pub(crate) fn assert_within_limit<const D: usize>(grid: Grid<D>) {
    let limit = max_cells(D);
    assert!(
        grid.n() <= limit,
        "exact NN-stretch drivers take at most {limit} cells in d = {D}; this grid has {}",
        grid.n()
    );
}

/// One row of the window (see the module docs): its cells' curve indices
/// and, per axis `a`, the partner rows one step down and up along `a`
/// that exist. Axis 0 runs along the row, so its slot stays empty unless
/// `d = 1`.
pub(crate) struct Row<'a, const D: usize> {
    pub(crate) cells: &'a [u64],
    pub(crate) down: [Option<&'a [u64]>; D],
    pub(crate) up: [Option<&'a [u64]>; D],
}

impl<const D: usize> Row<'_, D> {
    /// The first axis that can hold a partner row.
    const FIRST_PARTNER_AXIS: usize = if D == 1 { 0 } else { 1 };

    /// The number of partner rows.
    pub(crate) fn partners(&self) -> usize {
        self.down.iter().chain(&self.up).flatten().count()
    }

    /// `|N(α)|` of the row's `i`-th cell.
    pub(crate) fn neighbor_count(&self, i: usize) -> usize {
        self.partners() + usize::from(i > 0) + usize::from(i + 1 < self.cells.len())
    }

    /// Calls `cell(i, Σ_β Δπ(α,β), max_β Δπ(α,β))` for the row's cells `α`
    /// in order, in one pass. Each edge along the row is taken once, as the
    /// right edge of one cell and the left edge of the next. A missing
    /// partner row is read as the row itself: distance 0, which moves
    /// neither the sum nor the maximum.
    #[inline(always)]
    pub(crate) fn for_each_cell(&self, mut cell: impl FnMut(usize, u64, u64)) {
        let cells = self.cells;
        let len = cells.len();
        let down = self.down.map(|row| &row.unwrap_or(cells)[..len]);
        let up = self.up.map(|row| &row.unwrap_or(cells)[..len]);
        let sum_and_max = |i: usize, left: u64, right: u64| {
            let own = cells[i];
            let (mut sum, mut max) = (left + right, left.max(right));
            for axis in Self::FIRST_PARTNER_AXIS..D {
                for dist in [own.abs_diff(down[axis][i]), own.abs_diff(up[axis][i])] {
                    sum += dist;
                    max = max.max(dist);
                }
            }
            (sum, max)
        };
        let mut left = 0;
        for (i, pair) in cells.windows(2).enumerate() {
            let right = pair[0].abs_diff(pair[1]);
            let (sum, max) = sum_and_max(i, left, right);
            cell(i, sum, max);
            left = right;
        }
        let (sum, max) = sum_and_max(len - 1, left, 0);
        cell(len - 1, sum, max);
    }
}

/// Calls `visit` on every row of the hyperplanes whose coordinate along
/// the slowest axis lies in `planes`, in row-major order (see the module
/// docs).
pub(crate) fn for_each_row<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    planes: Range<u64>,
    mut visit: impl FnMut(&Row<'_, D>),
) {
    if planes.is_empty() {
        return;
    }
    let grid = curve.grid();
    let (k, side) = (grid.k(), grid.side());
    let plane_len =
        usize::try_from(grid.n() / u128::from(side)).expect("grid too large for exact enumeration");
    let row_len = plane_len.min(side as usize);
    let mask = side as usize - 1;
    // The cells of one plane; planes differ in the slowest coordinate only.
    let mut cells: Vec<Point<D>> = grid.cells().take(plane_len).collect();
    let mut wide = Vec::new();
    let (mut prev, mut cur, mut next) = (Vec::new(), Vec::new(), Vec::new());
    let mut encode = |z: u64, out: &mut Vec<u64>| {
        for cell in &mut cells {
            *cell = cell.with_coord(D - 1, z as u32);
        }
        curve.index_of_batch(&cells, &mut wide);
        out.clear();
        // Within `max_cells` every curve index fits 64 bits.
        out.extend(wide.iter().map(|&idx| idx as u64));
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
        for start in (0..plane_len).step_by(row_len) {
            let span = start..start + row_len;
            let mut row = Row {
                cells: &cur[span.clone()],
                down: [None; D],
                up: [None; D],
            };
            for axis in 1..D - 1 {
                let shift = k as usize * axis;
                let coord = (start >> shift) & mask;
                row.down[axis] = (coord > 0).then(|| &cur[start - (1 << shift)..][..row_len]);
                row.up[axis] = (coord < mask).then(|| &cur[start + (1 << shift)..][..row_len]);
            }
            row.down[D - 1] = has_prev.then(|| &prev[span.clone()]);
            row.up[D - 1] = has_next.then(|| &next[span]);
            visit(&row);
        }
    }
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
/// nearest neighbors `N(α)`; `0.0` for the one cell of a one-cell grid,
/// which has none.
pub fn delta_avg<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, cell: Point<D>) -> f64 {
    let (sum, count) = delta_sum(curve, cell);
    average(sum, count)
}

/// `sum / count`, and `0.0` for an empty neighbourhood.
fn average(sum: u128, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
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

    /// Adds the cells of one row. Its interior cells share one neighbour
    /// count, and so do its two ends, so `L/|N(α)|` weighs the row's sum
    /// once and its two end sums once.
    fn add_row<const D: usize>(&mut self, row: &Row<'_, D>, weights: &[u128]) {
        let (mut sum, mut dmax_sum, mut max_delta) = (0u128, 0u128, 0u64);
        let (mut first, mut last) = (0, 0);
        row.for_each_cell(|i, cell_sum, cell_max| {
            if i == 0 {
                first = cell_sum;
            }
            last = cell_sum;
            sum += u128::from(cell_sum);
            dmax_sum += u128::from(cell_max);
            max_delta = max_delta.max(cell_max);
        });
        let end_weight = weights[row.neighbor_count(0)];
        self.davg_scaled += if row.cells.len() == 1 {
            end_weight * sum
        } else {
            let ends = u128::from(first) + u128::from(last);
            // An interior cell has both in-row neighbours and every partner.
            let inner_weight = weights[row.partners() + 2];
            inner_weight * (sum - ends) + end_weight * ends
        };
        self.dmax_sum += dmax_sum;
        self.double_edge_sum += sum;
        self.max_delta = self.max_delta.max(max_delta.into());
    }
}

/// `L/|N(α)|` for every neighbour count `0..=2d`; a one-cell grid has
/// `|N(α)| = 0` and an empty sum, which weighs nothing.
fn neighbor_weights(d: usize) -> Vec<u128> {
    let lcm = neighbor_count_lcm(d);
    (0..=2 * d as u128)
        .map(|count| lcm.checked_div(count).unwrap_or(0))
        .collect()
}

/// Folds [`Accum`] over the rows of a range of hyperplanes.
fn accumulate_planes<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    planes: Range<u64>,
) -> Accum {
    let weights = neighbor_weights(D);
    let mut acc = Accum::default();
    for_each_row(curve, planes, |row| acc.add_row(row, &weights));
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
/// Cost: `n` batched curve evaluations and `O(n·d)` reads and distances
/// in 64-bit lanes, a row at a time (see the module docs). A one-cell grid
/// has no neighbour pairs: every sum is `0`.
///
/// # Panics
///
/// If the grid has more than `max_cells(d)` cells, the size limit of the
/// module docs: `2^62` in `d = 2`, about `2^61` in `d = 3`, `2^59` in
/// `d = 4` — far past any grid that can be enumerated.
pub fn summarize<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> NnStretchSummary {
    assert_within_limit(curve.grid());
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
/// order-independent), and panics where it does.
///
/// Measured crossover on two cores, on the row kernel (Z unless named;
/// three interleaved runs of 15 calls a side, medians): 0.02–0.03×
/// [`summarize`] at `d=2 k=4`, 0.14–0.21× at `k=6`, 0.54–0.87× at `k=8`;
/// 1.43–1.63× at `d=2 k=10` (1.25–1.65× for Hilbert), where
/// `benches/nn_stretch.rs` gates it at ≥ 1.3× on any box with two or more
/// CPUs. In `d=3`: 0.22–0.25× at `k=4`, 0.53–0.99× at `k=6`, where 32
/// ranges of two planes re-encode a halo plane per plane. Below `d=2
/// k=10` call [`summarize`].
pub fn summarize_par<const D: usize, C: SpaceFillingCurve<D> + Sync>(
    curve: &C,
) -> NnStretchSummary {
    assert_within_limit(curve.grid());
    let side = curve.grid().side();
    let ranges = PLANE_RANGES.min(side);
    let acc = (0..ranges)
        .into_par_iter()
        .map(|i| accumulate_planes(curve, side * i / ranges..side * (i + 1) / ranges))
        .reduce(Accum::default, Accum::merge);
    finish(curve, acc)
}

/// The per-cell `δ^avg` values in row-major cell order (for distribution
/// plots and the Figure 1 worked example). The one cell of a one-cell grid
/// has no neighbours and gets `0.0`, as [`delta_avg`] gives it and as
/// [`summarize`] reports `D^avg`. Panics where [`summarize`] does.
pub fn per_cell_delta_avg<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> Vec<f64> {
    assert_within_limit(curve.grid());
    let mut out = Vec::new();
    for_each_row(curve, 0..curve.grid().side(), |row| {
        row.for_each_cell(|i, sum, _| out.push(average(sum.into(), row.neighbor_count(i))));
    });
    out
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
    fn size_limit_is_the_largest_n_both_bounds_admit() {
        let fits = |d: usize, n: u128| {
            let lane = (2 * d as u128).checked_mul(n - 1);
            let total = n
                .checked_mul(n - 1)
                .and_then(|x| x.checked_mul(neighbor_count_lcm(d)));
            lane.is_some_and(|sum| sum <= u128::from(u64::MAX)) && total.is_some()
        };
        for d in 1..=8 {
            let n = max_cells(d);
            assert!(fits(d, n) && !fits(d, n + 1), "d={d}: {n}");
        }
        assert_eq!(max_cells(2), 1 << 62);
        assert!((1 << 60..1 << 63).contains(&max_cells(3)));
        assert!((1 << 56..1 << 60).contains(&max_cells(4)));
    }

    /// `add_row` on a synthetic row at the size limit, against the sums
    /// taken cell by cell in `u128`: every cell and partner index is `0` or
    /// `n − 1`, alternating, so each edge is `n − 1` and a cell with every
    /// neighbour sums to the bound `2d·(n−1)`.
    fn check_row_at_the_limit<const D: usize>() {
        let n = max_cells(D) as u64;
        let first = Row::<D>::FIRST_PARTNER_AXIS;
        for len in if D == 1 { 1..2 } else { 1..6 } {
            let cells: Vec<u64> = (0..len)
                .map(|i| if i % 2 == 0 { 0 } else { n - 1 })
                .collect();
            let other: Vec<u64> = cells.iter().map(|&c| n - 1 - c).collect();
            for missing in [None, Some(first)] {
                let mut row = Row {
                    cells: &cells[..],
                    down: [None; D],
                    up: [None; D],
                };
                for axis in first..D {
                    row.down[axis] = Some(&other[..]);
                    row.up[axis] = (Some(axis) != missing).then_some(&other[..]);
                }
                let weights = neighbor_weights(D);
                let mut acc = Accum::default();
                acc.add_row(&row, &weights);
                let (mut want, mut largest_sum) = (Accum::default(), 0);
                for i in 0..len {
                    let mut neighbors: Vec<u64> = row
                        .down
                        .iter()
                        .chain(&row.up)
                        .flatten()
                        .map(|p| p[i])
                        .collect();
                    neighbors.extend(i.checked_sub(1).map(|j| cells[j]));
                    neighbors.extend(cells.get(i + 1));
                    let dists = neighbors
                        .iter()
                        .map(|&nb| u128::from(cells[i].abs_diff(nb)));
                    let (sum, max) = (dists.clone().sum::<u128>(), dists.max().unwrap_or(0));
                    want.davg_scaled += weights[neighbors.len()] * sum;
                    want.dmax_sum += max;
                    want.double_edge_sum += sum;
                    want.max_delta = want.max_delta.max(max);
                    largest_sum = largest_sum.max(sum);
                }
                if missing.is_none() && (D == 1 || len > 2) {
                    assert_eq!(largest_sum, 2 * D as u128 * u128::from(n - 1));
                }
                assert_eq!(
                    (
                        acc.davg_scaled,
                        acc.dmax_sum,
                        acc.double_edge_sum,
                        acc.max_delta
                    ),
                    (
                        want.davg_scaled,
                        want.dmax_sum,
                        want.double_edge_sum,
                        want.max_delta
                    ),
                    "d={D} len={len} missing {missing:?}"
                );
            }
        }
    }

    #[test]
    fn row_fold_is_exact_at_the_size_limit() {
        check_row_at_the_limit::<1>();
        check_row_at_the_limit::<2>();
        check_row_at_the_limit::<3>();
        check_row_at_the_limit::<4>();
    }

    #[test]
    fn grids_past_the_size_limit_are_rejected_by_every_exact_driver() {
        fn rejected(driver: impl FnOnce()) -> bool {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(driver)).unwrap_err();
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            msg.starts_with("exact NN-stretch drivers take at most")
        }
        fn check<const D: usize>(k: u32) {
            let c = SimpleCurve::<D>::new(k).unwrap();
            assert!(c.grid().n() > max_cells(D));
            assert!(rejected(|| drop(summarize(&c))), "d={D}");
            assert!(rejected(|| drop(summarize_par(&c))), "d={D}");
            assert!(rejected(|| drop(per_cell_delta_avg(&c))), "d={D}");
            assert!(
                rejected(|| drop(crate::histogram::delta_max_histogram(&c))),
                "d={D}"
            );
            assert!(
                rejected(|| drop(crate::histogram::edge_distance_histogram(&c))),
                "d={D}"
            );
        }
        check::<2>(32);
        check::<3>(21);
        check::<4>(15);
    }

    #[test]
    fn per_cell_delta_avg_of_a_one_cell_grid_is_zero() {
        fn check<const D: usize>() {
            for kind in CurveKind::ALL {
                let c = kind.build::<D>(0).unwrap();
                assert_eq!(per_cell_delta_avg(&c), [0.0], "{kind} d={D}");
                assert_eq!(delta_avg(&c, Point::new([0; D])), 0.0, "{kind} d={D}");
            }
        }
        check::<1>();
        check::<2>();
        check::<3>();
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
