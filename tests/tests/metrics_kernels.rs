//! Differential tests of the exact metric kernels: the row-window
//! NN-stretch drivers (the two summaries, `per_cell_delta_avg` and the two
//! histograms) and the offset-grouped all-pairs stretch, against naive
//! per-cell and per-pair oracles that live here, outside the shipped crate.
//! The oracles evaluate the curve once per neighbour (through the
//! single-cell helpers `delta_sum` / `delta_max`) and once per pair.

use proptest::prelude::*;
use sfc_core::transform::{AxisPermuted, Reflected, Reversed};
use sfc_core::{CurveKind, Grid, PermutationCurve, SpaceFillingCurve};
use sfc_integration::test_rng;
use sfc_metrics::all_pairs::{all_pairs_exact, AllPairsStretch};
use sfc_metrics::histogram::{delta_max_histogram, edge_distance_histogram, Log2Histogram};
use sfc_metrics::nn_stretch::{
    delta_avg, delta_max, delta_sum, per_cell_delta_avg, summarize, summarize_par,
};
use sfc_metrics::NnStretchSummary;

/// The summary as Definitions 1–4 spell it: per cell, per neighbour.
fn naive_summary<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> NnStretchSummary {
    fn gcd(a: u128, b: u128) -> u128 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let grid = curve.grid();
    let lcm = (D as u128..=2 * D as u128).fold(1, |l, m| l / gcd(l, m) * m);
    let mut s = NnStretchSummary {
        curve: curve.name(),
        d: D,
        k: grid.k(),
        n: grid.n(),
        davg_numerator: 0,
        davg_denominator: lcm * grid.n(),
        dmax_sum: 0,
        edge_sum: 0,
        max_delta: 0,
    };
    for cell in grid.cells() {
        let (sum, count) = delta_sum(curve, cell);
        let max = delta_max(curve, cell);
        if count > 0 {
            s.davg_numerator += sum * (lcm / count as u128);
        }
        s.dmax_sum += max;
        s.edge_sum += sum; // every edge from both ends; halved below
        s.max_delta = s.max_delta.max(max);
    }
    s.edge_sum /= 2;
    s
}

/// `δ^avg` of every cell in row-major order, from `Σ_β Δπ(α,β)` and
/// `|N(α)|`; `0.0` for a cell without neighbours (the one cell of a
/// one-cell grid).
fn naive_per_cell_delta_avg<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> Vec<f64> {
    let cells = curve.grid().cells();
    cells
        .map(|cell| match delta_sum(curve, cell) {
            (_, 0) => 0.0,
            (sum, count) => sum as f64 / count as f64,
        })
        .collect()
}

/// The histogram of `δ^max` over all cells, one cell at a time.
fn naive_delta_max_histogram<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> Log2Histogram {
    let mut h = Log2Histogram::default();
    curve
        .grid()
        .cells()
        .for_each(|cell| h.push(delta_max(curve, cell)));
    h
}

/// The histogram of `Δπ` over the grid's nearest-neighbour edges, one edge
/// at a time.
fn naive_edge_distance_histogram<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
) -> Log2Histogram {
    let mut h = Log2Histogram::default();
    for (a, b, _) in curve.grid().nn_edges() {
        h.push(curve.curve_distance(a, b));
    }
    h
}

/// The all-pairs stretch as Section V.B spells it: one ratio per pair.
fn naive_pairs<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> AllPairsStretch {
    let cells: Vec<_> = curve.grid().cells().collect();
    let mut s = AllPairsStretch {
        curve: curve.name(),
        n: curve.grid().n(),
        manhattan: 0.0,
        euclidean: 0.0,
        max_ratio_manhattan: 0.0,
        max_ratio_euclidean: 0.0,
        sa_prime: 0,
    };
    for (i, &a) in cells.iter().enumerate() {
        for &b in &cells[i + 1..] {
            let dist = curve.curve_distance(a, b);
            let by_manhattan = dist as f64 / a.manhattan(&b) as f64;
            let by_euclidean = dist as f64 / a.euclidean(&b);
            s.manhattan += by_manhattan;
            s.euclidean += by_euclidean;
            s.max_ratio_manhattan = s.max_ratio_manhattan.max(by_manhattan);
            s.max_ratio_euclidean = s.max_ratio_euclidean.max(by_euclidean);
            s.sa_prime += 2 * dist;
        }
    }
    let pairs = (cells.len() * (cells.len() - 1) / 2).max(1) as f64;
    s.manhattan /= pairs;
    s.euclidean /= pairs;
    s
}

/// Calls `check` on every analytic curve over `Grid<D>(k)`, on a reversed,
/// an axis-rotated and a reflected one, and on seeded random bijections.
fn for_each_curve<const D: usize>(k: u32, check: impl Fn(&(dyn SpaceFillingCurve<D> + Sync))) {
    for kind in CurveKind::ALL {
        check(&kind.build::<D>(k).unwrap());
    }
    let build = |kind: CurveKind| kind.build::<D>(k).unwrap();
    check(&Reversed::new(build(CurveKind::Hilbert)));
    let rotation: [usize; D] = std::array::from_fn(|axis| (axis + 1) % D);
    check(&AxisPermuted::new(build(CurveKind::Gray), rotation).unwrap());
    let flips: [bool; D] = std::array::from_fn(|axis| axis % 2 == 0);
    check(&Reflected::new(build(CurveKind::Snake), flips));
    let grid = Grid::<D>::new(k).unwrap();
    let mut rng = test_rng(0x5eed ^ (u64::from(k) << 8) ^ D as u64);
    for _ in 0..3 {
        check(&PermutationCurve::random(grid, &mut rng).unwrap());
    }
}

/// Every `k` from 0 with `2^{kD} ≤ max_cells`.
fn ks<const D: usize>(max_cells: u128) -> impl Iterator<Item = u32> {
    (0..).take_while(move |&k| 1u128 << (k as usize * D) <= max_cells)
}

fn check_summaries<const D: usize>() {
    for k in ks::<D>(1 << 12) {
        for_each_curve::<D>(k, |curve| {
            let naive = naive_summary(&curve);
            assert_eq!(summarize(&curve), naive, "{} d={D} k={k}", naive.curve);
            assert_eq!(
                summarize_par(&curve),
                naive,
                "par {} d={D} k={k}",
                naive.curve
            );
        });
    }
}

#[test]
fn window_summaries_equal_the_naive_summary_d1() {
    check_summaries::<1>();
}

#[test]
fn window_summaries_equal_the_naive_summary_d2() {
    check_summaries::<2>();
}

#[test]
fn window_summaries_equal_the_naive_summary_d3() {
    check_summaries::<3>();
}

#[test]
fn window_summaries_equal_the_naive_summary_d4() {
    check_summaries::<4>();
}

/// The per-cell drivers of the window against their oracles: whole
/// vectors and whole histograms, compared exactly.
fn check_per_cell_drivers<const D: usize>(k: u32) {
    for_each_curve::<D>(k, |curve| {
        let what = format!("{} d={D} k={k}", curve.name());
        let per_cell = naive_per_cell_delta_avg(&curve);
        assert_eq!(per_cell_delta_avg(&curve), per_cell, "{what}");
        let cells = curve.grid().cells();
        let helper: Vec<f64> = cells.map(|cell| delta_avg(&curve, cell)).collect();
        assert_eq!(helper, per_cell, "delta_avg {what}");
        let maxima = naive_delta_max_histogram(&curve);
        assert_eq!(delta_max_histogram(&curve), maxima, "{what}");
        let edges = naive_edge_distance_histogram(&curve);
        assert_eq!(edge_distance_histogram(&curve), edges, "{what}");
    });
}

fn check_all_per_cell_drivers<const D: usize>() {
    for k in ks::<D>(1 << 12) {
        check_per_cell_drivers::<D>(k);
    }
}

#[test]
fn window_per_cell_drivers_equal_the_oracles_d1() {
    check_all_per_cell_drivers::<1>();
}

#[test]
fn window_per_cell_drivers_equal_the_oracles_d2() {
    check_all_per_cell_drivers::<2>();
}

#[test]
fn window_per_cell_drivers_equal_the_oracles_d3() {
    check_all_per_cell_drivers::<3>();
}

#[test]
fn window_per_cell_drivers_equal_the_oracles_d4() {
    check_all_per_cell_drivers::<4>();
}

/// `k = 1`, where every row is two cells and so every cell is a row end,
/// past the dimensions of the tests above (which take `k = 1` too).
#[test]
fn every_driver_equals_the_oracles_when_every_cell_is_a_row_end() {
    fn check<const D: usize>() {
        for_each_curve::<D>(1, |curve| {
            let naive = naive_summary(&curve);
            assert_eq!(summarize(&curve), naive, "{} d={D}", naive.curve);
            assert_eq!(summarize_par(&curve), naive, "par {} d={D}", naive.curve);
        });
        check_per_cell_drivers::<D>(1);
    }
    check::<5>();
    check::<6>();
}

fn assert_pairs_agree(kernel: &AllPairsStretch, naive: &AllPairsStretch, what: &str) {
    let what = format!("{what} {} n={}", naive.curve, naive.n);
    assert_eq!(kernel.curve, naive.curve, "{what}");
    assert_eq!(kernel.n, naive.n, "{what}");
    assert_eq!(kernel.sa_prime, naive.sa_prime, "{what}");
    assert_eq!(
        kernel.max_ratio_manhattan, naive.max_ratio_manhattan,
        "{what}"
    );
    assert_eq!(
        kernel.max_ratio_euclidean, naive.max_ratio_euclidean,
        "{what}"
    );
    for (got, want) in [
        (kernel.manhattan, naive.manhattan),
        (kernel.euclidean, naive.euclidean),
    ] {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "{what}: {got} against {want}"
        );
    }
}

fn check_pairs<const D: usize>() {
    for k in ks::<D>(1 << 10) {
        for_each_curve::<D>(k, |curve| {
            let naive = naive_pairs(&curve);
            assert_pairs_agree(&all_pairs_exact(&curve), &naive, "seq");
        });
    }
}

#[test]
fn offset_grouped_pairs_equal_the_naive_pair_loop_d1() {
    check_pairs::<1>();
}

#[test]
fn offset_grouped_pairs_equal_the_naive_pair_loop_d2() {
    check_pairs::<2>();
}

#[test]
fn offset_grouped_pairs_equal_the_naive_pair_loop_d3() {
    check_pairs::<3>();
}

fn par_summary_of_random_bijection<const D: usize>(k: u32, seed: u64) {
    let grid = Grid::<D>::new(k).unwrap();
    let curve = PermutationCurve::random(grid, &mut test_rng(seed)).unwrap();
    assert_eq!(summarize_par(&curve), naive_summary(&curve), "d={D} k={k}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel driver on arbitrary bijections: grids from one plane to
    /// more planes than plane ranges (`d = 1`, `k = 7`: 128 planes of one
    /// cell against 32 ranges), so ranges of one and of several planes both
    /// occur.
    /// (That *any* cut into plane ranges merges to the same summary is a
    /// proptest next to the private fold, in `nn_stretch.rs`.)
    #[test]
    fn parallel_summary_equals_naive_on_random_bijections(
        d in 1usize..=3,
        k in 0u32..=7,
        seed in any::<u64>(),
    ) {
        match d {
            1 => par_summary_of_random_bijection::<1>(k, seed),
            2 => par_summary_of_random_bijection::<2>(k.min(5), seed),
            _ => par_summary_of_random_bijection::<3>(k.min(3), seed),
        }
    }
}
