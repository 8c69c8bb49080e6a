//! Exact all-pairs stretch (`O(n²)`): the offset-grouped kernel against the
//! per-pair loop it replaced, and Monte-Carlo estimation costs.
//!
//! Writes its part of `BENCH_metrics.json` (ns per pair at `d=2 k=5`) and
//! asserts the committed gate: offset grouping is at least
//! [`GROUPED_VS_NAIVE_GATE`]× the naive pair loop.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use sfc_bench::{median_ns, BenchReport};
use sfc_core::{CurveKind, SpaceFillingCurve, ZCurve};
use sfc_metrics::all_pairs::all_pairs_exact;
use sfc_metrics::sampling::estimate_all_pairs_manhattan;
use std::hint::black_box;

/// The committed floor of `naive / grouped` at `d=2 k=5` (measured ≈ 7×:
/// two divisions, a square root and a `u128 → f64` conversion per pair
/// against one integer subtract).
const GROUPED_VS_NAIVE_GATE: f64 = 3.0;

/// Grid of the gated comparison: `d=2 k=5`, 1024 cells, 523 776 pairs.
const K: u32 = 5;

/// The reference: what `all_pairs_exact` did before offset grouping — the
/// curve evaluated once per cell (batched), then both ratios formed per
/// pair. Returns `(Σ Δπ/Δ, Σ Δπ/Δ_E, max Δπ/Δ, max Δπ/Δ_E, Σ Δπ)`.
fn naive_pairs<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> (f64, f64, f64, f64, u128) {
    let cells: Vec<_> = curve.grid().cells().collect();
    let mut indices = Vec::new();
    curve.index_of_batch(&cells, &mut indices);
    let (mut sum_m, mut sum_e, mut max_m, mut max_e, mut dist_sum) = (0.0, 0.0, 0.0f64, 0.0f64, 0);
    for i in 0..cells.len() {
        for j in i + 1..cells.len() {
            let dist = indices[i].abs_diff(indices[j]);
            let by_manhattan = dist as f64 / cells[i].manhattan(&cells[j]) as f64;
            let by_euclidean = dist as f64 / cells[i].euclidean(&cells[j]);
            sum_m += by_manhattan;
            sum_e += by_euclidean;
            max_m = max_m.max(by_manhattan);
            max_e = max_e.max(by_euclidean);
            dist_sum += dist;
        }
    }
    (sum_m, sum_e, max_m, max_e, dist_sum)
}

fn bench_grouped_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("all_pairs_d2_k{K}"));
    for kind in [CurveKind::Z, CurveKind::Hilbert] {
        let curve = kind.build::<2>(K).unwrap();
        let s = all_pairs_exact(&curve);
        let (_, _, max_m, max_e, dist_sum) = naive_pairs(&curve);
        assert_eq!(
            (s.max_ratio_manhattan, s.max_ratio_euclidean, s.sa_prime),
            (max_m, max_e, 2 * dist_sum),
            "{kind}: offset grouping disagrees with the naive pair loop"
        );
        group.bench_with_input(BenchmarkId::new("grouped", kind.name()), &curve, |b, c| {
            b.iter(|| black_box(all_pairs_exact(c)))
        });
        group.bench_with_input(BenchmarkId::new("naive", kind.name()), &curve, |b, c| {
            b.iter(|| black_box(naive_pairs(c)))
        });
    }
    group.finish();
}

fn bench_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_pairs_exact_z_d2");
    for k in [3u32, 4, 5] {
        let z = ZCurve::<2>::new(k).unwrap();
        group.bench_with_input(BenchmarkId::new("seq", format!("k{k}")), &z, |b, z| {
            b.iter(|| black_box(all_pairs_exact(z)))
        });
    }
    group.finish();
}

fn bench_sampled(c: &mut Criterion) {
    // Sampling cost is independent of n: demonstrate on a 2^40-cell grid.
    let z = ZCurve::<2>::new(20).unwrap();
    c.bench_function("all_pairs_sampled_10k_n2pow40", |b| {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        b.iter(|| black_box(estimate_all_pairs_manhattan(&z, 10_000, &mut rng)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_grouped_vs_naive, bench_exact, bench_sampled
}

fn main() {
    benches();
    let records = criterion::take_records();
    let median = |name: String| median_ns(&records, &name);
    let n = 1u64 << (2 * K);
    let pairs = (n * (n - 1) / 2) as f64;
    let group = format!("all_pairs_d2_k{K}");
    let mut ns_per_pair = Vec::new();
    let mut speedups = Vec::new();
    for kind in [CurveKind::Z, CurveKind::Hilbert] {
        let grouped = median(format!("{group}/grouped/{}", kind.name()));
        let naive = median(format!("{group}/naive/{}", kind.name()));
        for (path, ns) in [("grouped", grouped), ("naive", naive)] {
            ns_per_pair.push((format!("{group}/{path}/{}", kind.name()), ns / pairs));
        }
        speedups.push((
            format!("{group}/grouped_vs_naive/{}", kind.name()),
            naive / grouped,
        ));
    }
    let mut report = BenchReport::extending("metrics");
    report.section(
        "all_pairs_config",
        format!("{{\"grid\": \"d=2 k={K}\", \"pairs\": {pairs}, \"naive\": \"two divisions and a square root per pair over a batched index table\"}}"),
    );
    report.results("all_pairs_results", &records);
    let pair = |(name, value): &(String, f64)| (name.clone(), *value);
    report.numbers("all_pairs_ns_per_pair", 3, ns_per_pair.iter().map(pair));
    report.numbers("all_pairs_speedups", 2, speedups.iter().map(pair));
    report.write();
    for (name, ratio) in &speedups {
        println!("speedup {name}: {ratio:.2}x");
        assert!(
            *ratio >= GROUPED_VS_NAIVE_GATE,
            "{name} = {ratio:.2}x, below the committed {GROUPED_VS_NAIVE_GATE}x"
        );
    }
}
