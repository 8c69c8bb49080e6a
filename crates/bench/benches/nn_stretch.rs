//! Exact NN-stretch computation: the plane-window drivers against the
//! per-cell loop they replaced, per curve, and sequential vs Rayon.
//!
//! Writes its part of `BENCH_metrics.json` (ns per cell and the
//! window-vs-naive ratio per curve at `d=2 k=8` and `d=3 k=5`, and
//! `summarize_par` against `summarize` on Z at `d=2 k=4..10`) and asserts
//! the committed gates: the window is at least [`WINDOW_VS_NAIVE_GATE`]×
//! the naive loop on the 2-D Hilbert curve, and on a box with two or more
//! CPUs `summarize_par` is at least [`PAR_VS_SEQ_GATE`]× `summarize` at
//! `d=2 k=10` (on one CPU the ratio is `"unmeasured"`).

use criterion::{criterion_group, BenchmarkId, Criterion};
use sfc_bench::{median_ns, BenchReport};
use sfc_core::{CurveKind, SpaceFillingCurve, ZCurve};
use sfc_metrics::nn_stretch::{summarize, summarize_par};
use std::hint::black_box;

/// The committed floor of `naive / window` on Hilbert `d=2 k=8` (measured
/// ≈ 13×: a scalar Hilbert encode per neighbour against a table read).
const WINDOW_VS_NAIVE_GATE: f64 = 4.0;

/// The committed floor of `summarize / summarize_par` on Z `d=2 k=10`
/// with two or more CPUs (measured 1.73–1.83× on two; below `k≈8` the
/// sequential driver wins — the doc comment of `summarize_par`).
const PAR_VS_SEQ_GATE: f64 = 1.3;

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

fn bench_by_curve(c: &mut Criterion) {
    bench_window_vs_naive::<2>(c, 8);
    bench_window_vs_naive::<3>(c, 5);
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
    for (group, cells) in [
        ("nn_stretch_d2_k8", 1u64 << 16),
        ("nn_stretch_d3_k5", 1 << 15),
    ] {
        for kind in CurveKind::ALL {
            let window = median(format!("{group}/window/{}", kind.name()));
            let naive = median(format!("{group}/naive/{}", kind.name()));
            for (path, ns) in [("window", window), ("naive", naive)] {
                ns_per_cell.push((format!("{group}/{path}/{}", kind.name()), ns / cells as f64));
            }
            speedups.push((
                format!("{group}/window_vs_naive/{}", kind.name()),
                naive / window,
            ));
        }
    }
    let mut report = BenchReport::extending("metrics");
    report.section(
        "nn_stretch_config",
        "{\"grids\": [\"d=2 k=8\", \"d=3 k=5\"], \"curves\": \"CurveKind::ALL through BoxedCurve\", \"naive\": \"one scalar encode per cell and per neighbour\"}",
    );
    report.results("nn_stretch_results", &records);
    let pair = |(name, value): &(String, f64)| (name.clone(), *value);
    report.numbers("nn_stretch_ns_per_cell", 2, ns_per_cell.iter().map(pair));
    report.numbers("nn_stretch_speedups", 2, speedups.iter().map(pair));
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
    let gated = "nn_stretch_d2_k8/window_vs_naive/hilbert";
    let ratio = speedups
        .iter()
        .find(|(n, _)| n == gated)
        .expect("gated ratio")
        .1;
    assert!(
        ratio >= WINDOW_VS_NAIVE_GATE,
        "{gated} = {ratio:.2}x, below the committed {WINDOW_VS_NAIVE_GATE}x"
    );
}
