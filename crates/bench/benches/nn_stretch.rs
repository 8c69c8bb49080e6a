//! Exact NN-stretch computation: the plane-window drivers against the
//! per-cell loop they replaced, the row kernel against the per-cell window
//! it replaced, per curve, and sequential vs Rayon.
//!
//! Writes its part of `BENCH_metrics.json` (ns per cell and the
//! window-vs-naive ratio per curve at `d=2 k=8` and `d=3 k=5`; ns per cell
//! and the rows-vs-reference ratio per curve at `d=2 k=10` and `d=3 k=6`,
//! the sizes of the benchmark of record, with each grid's Hilbert ÷ Z
//! `summarize` cost timed interleaved; and `summarize_par` against
//! `summarize` on Z at `d=2 k=4..10`) and asserts the committed gates: the
//! window is at least [`WINDOW_VS_NAIVE_GATE`]× the naive loop on the 2-D
//! Hilbert curve, the row kernel is at least [`ROWS_VS_REFERENCE_GATE`]×
//! the per-cell window on the 2-D simple curve at `k=10`, and on a box
//! with two or more CPUs `summarize_par` is at least [`PAR_VS_SEQ_GATE`]×
//! `summarize` at `d=2 k=10` (on one CPU the ratio is `"unmeasured"`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use sfc_bench::{interleaved_ratio, median_ns, BenchReport};
use sfc_core::{CurveIndex, CurveKind, Point, SpaceFillingCurve, ZCurve};
use sfc_metrics::nn_stretch::{summarize, summarize_par};
use sfc_metrics::NnStretchSummary;
use std::hint::black_box;

/// The committed floor of `naive / window` on Hilbert `d=2 k=8` (measured
/// ≈ 13×: a scalar Hilbert encode per neighbour against a table read).
const WINDOW_VS_NAIVE_GATE: f64 = 4.0;

/// The committed floor of `summarize / summarize_par` on Z `d=2 k=10`
/// with two or more CPUs (measured 1.43–1.63× on two on the row kernel;
/// below `k=10` the sequential driver wins — the doc comment of
/// `summarize_par`).
const PAR_VS_SEQ_GATE: f64 = 1.3;

/// The committed floor of `reference / summarize` on the simple curve at
/// `d=2 k=10`, where the curve costs least and the window is nearly all
/// of the time (measured 1.84–3.70× over eight unpinned runs on two
/// shared vCPUs).
const ROWS_VS_REFERENCE_GATE: f64 = 1.8;

/// Rounds of the interleaved Hilbert-vs-Z timing (one summary a side).
const RATIO_ROUNDS: usize = 21;

/// Grid orders of the `summarize` / `summarize_par` comparison; the last
/// one is gated.
const PAR_KS: [u32; 4] = [4, 6, 8, 10];

/// The reference: what `summarize` did before the window — one curve
/// evaluation for the cell and one per neighbour. Returns
/// `(Σ δ^max, edge sum, max δ^max)`.
fn naive_summary<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> (u128, u128, u128) {
    let grid = curve.grid();
    let (mut dmax_sum, mut double_edge_sum, mut max_delta) = (0, 0, 0);
    for cell in grid.cells() {
        let idx = curve.index_of(cell);
        let (mut sum, mut max) = (0, 0);
        for nb in grid.neighbors(cell) {
            let dist = idx.abs_diff(curve.index_of(nb));
            sum += dist;
            max = max.max(dist);
        }
        dmax_sum += max;
        double_edge_sum += sum;
        max_delta = max_delta.max(max);
    }
    (dmax_sum, double_edge_sum / 2, max_delta)
}

/// The reference: the per-cell window `summarize` ran on before the row
/// kernel. The same three planes and batched encodes, but per cell a
/// neighbour list built with a branch per axis, `u128` distances and a
/// `u128` multiply for `L/|N(α)|`.
fn reference_summary<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> NnStretchSummary {
    let grid = curve.grid();
    let (k, side) = (grid.k(), grid.side());
    let plane_len = usize::try_from(grid.n() / u128::from(side)).unwrap();
    let mask = side as usize - 1;
    let lcm = (D as u128..=2 * D as u128).fold(1, |l, m| {
        let (mut a, mut b) = (l, m);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        l / a * m
    });
    let weights: Vec<u128> = (0..=2 * D as u128)
        .map(|count| lcm.checked_div(count).unwrap_or(0))
        .collect();
    let (mut davg_scaled, mut dmax_sum, mut double_edge_sum, mut max_delta) = (0, 0, 0, 0);
    let mut cells: Vec<Point<D>> = grid.cells().take(plane_len).collect();
    let (mut prev, mut cur, mut next): (Vec<CurveIndex>, _, _) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut encode = |z: u64, out: &mut Vec<CurveIndex>| {
        for cell in &mut cells {
            *cell = cell.with_coord(D - 1, z as u32);
        }
        curve.index_of_batch(&cells, out);
    };
    encode(0, &mut next);
    for z in 0..side {
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
            let (mut sum, mut max) = (0, 0);
            for &nb in down[..downs].iter().chain(&up[..ups]) {
                let dist = own.abs_diff(nb);
                sum += dist;
                max = max.max(dist);
            }
            davg_scaled += sum * weights[downs + ups];
            dmax_sum += max;
            double_edge_sum += sum;
            max_delta = max_delta.max(max);
        }
    }
    NnStretchSummary {
        curve: curve.name(),
        d: D,
        k,
        n: grid.n(),
        davg_numerator: davg_scaled,
        davg_denominator: lcm * grid.n(),
        dmax_sum,
        edge_sum: double_edge_sum / 2,
        max_delta,
    }
}

fn bench_window_vs_naive<const D: usize>(c: &mut Criterion, k: u32) {
    let mut group = c.benchmark_group(format!("nn_stretch_d{D}_k{k}"));
    for kind in CurveKind::ALL {
        let curve = kind.build::<D>(k).unwrap();
        let s = summarize(&curve);
        assert_eq!(
            naive_summary(&curve),
            (s.dmax_sum, s.edge_sum, s.max_delta),
            "{kind} d={D}: the window disagrees with the naive loop"
        );
        group.bench_with_input(BenchmarkId::new("window", kind.name()), &curve, |b, c| {
            b.iter(|| black_box(summarize(c)))
        });
        group.bench_with_input(BenchmarkId::new("naive", kind.name()), &curve, |b, c| {
            b.iter(|| black_box(naive_summary(c)))
        });
    }
    group.finish();
}

fn bench_rows_vs_reference<const D: usize>(c: &mut Criterion, k: u32) {
    let mut group = c.benchmark_group(format!("nn_stretch_rows_d{D}_k{k}"));
    for kind in CurveKind::ALL {
        let curve = kind.build::<D>(k).unwrap();
        assert_eq!(
            reference_summary(&curve),
            summarize(&curve),
            "{kind} d={D} k={k}: the row kernel disagrees with the per-cell window"
        );
        group.bench_with_input(BenchmarkId::new("rows", kind.name()), &curve, |b, c| {
            b.iter(|| black_box(summarize(c)))
        });
        group.bench_with_input(
            BenchmarkId::new("reference", kind.name()),
            &curve,
            |b, c| b.iter(|| black_box(reference_summary(c))),
        );
    }
    group.finish();
}

/// `summarize` on Hilbert ÷ on Z at `d`, `k`, timed interleaved
/// ([`interleaved_ratio`]): the two differ only in the encode.
fn rows_hilbert_vs_z<const D: usize>(k: u32) -> f64 {
    let [z, hilbert] = [CurveKind::Z, CurveKind::Hilbert].map(|kind| {
        let curve = kind.build::<D>(k).unwrap();
        move || {
            black_box(summarize(&curve));
        }
    });
    interleaved_ratio(RATIO_ROUNDS, z, hilbert)
}

fn bench_by_curve(c: &mut Criterion) {
    bench_window_vs_naive::<2>(c, 8);
    bench_window_vs_naive::<3>(c, 5);
    bench_rows_vs_reference::<2>(c, 10);
    bench_rows_vs_reference::<3>(c, 6);
}

fn bench_summarize_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_stretch_summarize_z_d2");
    for k in PAR_KS {
        let z = ZCurve::<2>::new(k).unwrap();
        group.bench_with_input(BenchmarkId::new("seq", format!("k{k}")), &z, |b, z| {
            b.iter(|| black_box(summarize(z)))
        });
        group.bench_with_input(BenchmarkId::new("par", format!("k{k}")), &z, |b, z| {
            b.iter(|| black_box(summarize_par(z)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_by_curve, bench_summarize_scaling
}

fn main() {
    benches();
    let records = criterion::take_records();
    let median = |name: String| median_ns(&records, &name);
    let mut ns_per_cell = Vec::new();
    let mut speedups = Vec::new();
    for (group, cells, [new, old]) in [
        ("nn_stretch_d2_k8", 1u64 << 16, ["window", "naive"]),
        ("nn_stretch_d3_k5", 1 << 15, ["window", "naive"]),
        ("nn_stretch_rows_d2_k10", 1 << 20, ["rows", "reference"]),
        ("nn_stretch_rows_d3_k6", 1 << 18, ["rows", "reference"]),
    ] {
        for kind in CurveKind::ALL {
            let new_ns = median(format!("{group}/{new}/{}", kind.name()));
            let old_ns = median(format!("{group}/{old}/{}", kind.name()));
            for (path, ns) in [(new, new_ns), (old, old_ns)] {
                ns_per_cell.push((format!("{group}/{path}/{}", kind.name()), ns / cells as f64));
            }
            speedups.push((
                format!("{group}/{new}_vs_{old}/{}", kind.name()),
                old_ns / new_ns,
            ));
        }
    }
    // Ungated: ROADMAP item 11(a) targets ≤ 1.5× at d=2 and ≤ 1.4× at d=3.
    let curve_ratios = [
        (
            "nn_stretch_rows_d2_k10/rows/hilbert_vs_Z",
            rows_hilbert_vs_z::<2>(10),
        ),
        (
            "nn_stretch_rows_d3_k6/rows/hilbert_vs_Z",
            rows_hilbert_vs_z::<3>(6),
        ),
    ];
    let mut report = BenchReport::extending("metrics");
    report.section(
        "nn_stretch_config",
        "{\"grids\": [\"d=2 k=8\", \"d=3 k=5\", \"d=2 k=10\", \"d=3 k=6\"], \"curves\": \"CurveKind::ALL through BoxedCurve\", \"naive\": \"one scalar encode per cell and per neighbour\", \"reference\": \"the per-cell plane window before the row kernel\"}",
    );
    report.results("nn_stretch_results", &records);
    let pair = |(name, value): &(String, f64)| (name.clone(), *value);
    report.numbers("nn_stretch_ns_per_cell", 2, ns_per_cell.iter().map(pair));
    report.numbers("nn_stretch_speedups", 2, speedups.iter().map(pair));
    report.numbers("nn_stretch_curve_ratios", 2, curve_ratios);
    // A two-thread ratio on one CPU measures the scheduler: "unmeasured".
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let par: Vec<(String, Option<f64>)> = PAR_KS
        .iter()
        .map(|k| {
            let group = "nn_stretch_summarize_z_d2";
            let ratio = median(format!("{group}/seq/k{k}")) / median(format!("{group}/par/k{k}"));
            (
                format!("par_vs_seq_k{k}"),
                Some(ratio).filter(|_| nproc >= 2),
            )
        })
        .collect();
    report.numbers("nn_stretch_par", 2, par.iter().map(|(n, r)| (n, *r)));
    report.write();
    for (name, ratio) in &speedups {
        println!("speedup {name}: {ratio:.2}x");
    }
    for (name, ratio) in &curve_ratios {
        println!("cost ratio {name}: {ratio:.2}x");
    }
    for (name, ratio) in &par {
        match ratio {
            Some(r) => println!("summarize {name}: {r:.2}x"),
            None => println!("summarize {name}: unmeasured ({nproc} CPU)"),
        }
    }
    if let Some((name, Some(ratio))) = par.last() {
        assert!(
            *ratio >= PAR_VS_SEQ_GATE,
            "summarize {name} = {ratio:.2}x, below the committed {PAR_VS_SEQ_GATE}x"
        );
    }
    for (gated, gate) in [
        (
            "nn_stretch_d2_k8/window_vs_naive/hilbert",
            WINDOW_VS_NAIVE_GATE,
        ),
        (
            "nn_stretch_rows_d2_k10/rows_vs_reference/simple",
            ROWS_VS_REFERENCE_GATE,
        ),
    ] {
        let ratio = speedups
            .iter()
            .find(|(n, _)| n == gated)
            .expect("gated ratio")
            .1;
        assert!(
            ratio >= gate,
            "{gated} = {ratio:.2}x, below the committed {gate}x"
        );
    }
}
