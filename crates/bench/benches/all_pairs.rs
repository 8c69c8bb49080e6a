//! Exact all-pairs stretch (`O(n²)`): the offset-grouped kernel against the
//! per-pair loop it replaced; and the sampled estimator against the loop it
//! replaced.
//!
//! Writes its part of `BENCH_metrics.json` (ns per pair at `d=2 k=5`, ns per
//! sample at `d=2 k=20`) and asserts the committed gates: offset grouping is
//! at least [`GROUPED_VS_NAIVE_GATE`]× the naive pair loop, the sampled
//! estimator at least [`SAMPLED_VS_REFERENCE_GATE`]× its reference on the
//! simple curve, and the sampled estimator on Hilbert at most
//! [`SAMPLED_HILBERT_VS_Z_GATE`]× the one on Z. The two sampled gates are
//! timed interleaved ([`interleaved_ratio`]); the criterion groups' own
//! `estimate_vs_reference` ratios are recorded, not gated.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sfc_bench::{interleaved_ratio, median_ns, BenchReport};
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

/// The committed floor of `reference / estimate` for the sampled
/// estimator on the simple curve, whose encode is nearly free, so the
/// sampler is nearly all of the cost. Timed interleaved in one process
/// ([`interleaved_ratio`] over [`RATIO_ROUNDS`] rounds). Measured
/// 3.52–3.69× over five runs: two random words per pair against eight,
/// drawn a chunk at a time, an `i64` ratio against a `u128` one, a chunked
/// accumulator against one Welford update per sample. The same runs'
/// criterion groups, timed apart, read 3.50–5.29×.
const SAMPLED_VS_REFERENCE_GATE: f64 = 1.5;

/// The committed ceiling of `estimate/hilbert ÷ estimate/Z` for the
/// sampled estimator at `d=2 k=20`, timed interleaved in one process
/// ([`interleaved_ratio`] over [`RATIO_ROUNDS`] rounds): the two differ
/// only in the encode, so this bounds the 2-D Hilbert batch encode against
/// Morton's. Measured 1.19–1.21× in four of five runs and 1.44× in one,
/// with the lane-built keys and the chunked sampler (1.22–1.23× before
/// them; 2.57× with the state-transition tables before the prefix scan).
const SAMPLED_HILBERT_VS_Z_GATE: f64 = 1.6;

/// Rounds of the interleaved Hilbert-vs-Z timing (one estimate a side).
const RATIO_ROUNDS: usize = 101;

/// Grid of the sampled estimator: `d=2 k=20`, `n = 2^40` cells, as the
/// benchmark of record's `paper_stretch` samples it.
const K_SAMPLED: u32 = 20;

/// Samples per timed estimate.
const SAMPLES: u64 = 10_000;

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

/// The reference: the sampled all-pairs estimator before it cut cells from
/// raw words — two `random_cell` draws per pair (a 128-bit rejection draw
/// per coordinate), a `u128 → f64` ratio and one Welford update per sample.
/// Returns `(mean, standard error)`.
fn reference_estimate<const D: usize, C: SpaceFillingCurve<D>, R: Rng>(
    curve: &C,
    samples: u64,
    rng: &mut R,
) -> (f64, f64) {
    const BATCH: usize = 1024;
    let grid = curve.grid();
    let (mut points, mut keys) = (Vec::with_capacity(2 * BATCH), Vec::with_capacity(2 * BATCH));
    let (mut count, mut mean, mut m2) = (0u64, 0.0f64, 0.0f64);
    let mut remaining = samples;
    while remaining > 0 {
        let chunk = (remaining as usize).min(BATCH);
        points.clear();
        for _ in 0..chunk {
            let a = grid.random_cell(rng);
            let b = loop {
                let b = grid.random_cell(rng);
                if b != a {
                    break b;
                }
            };
            points.push(a);
            points.push(b);
        }
        curve.index_of_batch(&points, &mut keys);
        for i in 0..chunk {
            let dist = keys[2 * i].abs_diff(keys[2 * i + 1]);
            let x = dist as f64 / points[2 * i].manhattan(&points[2 * i + 1]) as f64;
            count += 1;
            let delta = x - mean;
            mean += delta / count as f64;
            m2 += delta * (x - mean);
        }
        remaining -= chunk as u64;
    }
    (mean, (m2 / (count - 1) as f64 / count as f64).sqrt())
}

fn bench_sampled(c: &mut Criterion) {
    // Sampling cost is independent of n: a 2^40-cell grid, with the
    // benchmark of record's generator.
    let mut group = c.benchmark_group(format!("all_pairs_sampled_d2_k{K_SAMPLED}"));
    for kind in CurveKind::ALL {
        let curve = kind.build::<2>(K_SAMPLED).unwrap();
        // Different streams, one quantity: the two means agree within 5σ.
        let est = estimate_all_pairs_manhattan(&curve, 100_000, &mut SmallRng::seed_from_u64(5));
        let (mean, se) = reference_estimate(&curve, 100_000, &mut SmallRng::seed_from_u64(6));
        assert!(
            (est.mean - mean).abs() <= 5.0 * est.std_error.hypot(se),
            "{kind}: estimate {est:?} disagrees with the reference {mean} ± {se}"
        );
        group.bench_with_input(BenchmarkId::new("estimate", kind.name()), &curve, |b, c| {
            let mut rng = SmallRng::seed_from_u64(5);
            b.iter(|| black_box(estimate_all_pairs_manhattan(c, SAMPLES, &mut rng)))
        });
        group.bench_with_input(
            BenchmarkId::new("reference", kind.name()),
            &curve,
            |b, c| {
                let mut rng = SmallRng::seed_from_u64(5);
                b.iter(|| black_box(reference_estimate(c, SAMPLES, &mut rng)))
            },
        );
    }
    group.finish();
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
        format!("{{\"grid\": \"d=2 k={K}\", \"pairs\": {pairs}, \"naive\": \"two divisions and a square root per pair over a batched index table\", \"sampled\": \"d=2 k={K_SAMPLED}, {SAMPLES} samples per iteration, SmallRng\", \"reference\": \"random_cell per cell, u128 ratio, one Welford update per sample\"}}"),
    );
    report.results("all_pairs_results", &records);
    let sampled = format!("all_pairs_sampled_d2_k{K_SAMPLED}");
    let mut ns_per_sample = Vec::new();
    let mut sampled_speedups = Vec::new();
    for kind in CurveKind::ALL {
        let estimate = median(format!("{sampled}/estimate/{}", kind.name()));
        let reference = median(format!("{sampled}/reference/{}", kind.name()));
        for (path, ns) in [("estimate", estimate), ("reference", reference)] {
            ns_per_sample.push((
                format!("{sampled}/{path}/{}", kind.name()),
                ns / SAMPLES as f64,
            ));
        }
        sampled_speedups.push((
            format!("{sampled}/estimate_vs_reference/{}", kind.name()),
            reference / estimate,
        ));
    }
    let hilbert_vs_z_name = format!("{sampled}/estimate/hilbert_vs_Z");
    let [z, hilbert] = [CurveKind::Z, CurveKind::Hilbert].map(|kind| {
        let curve = kind.build::<2>(K_SAMPLED).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        move || {
            black_box(estimate_all_pairs_manhattan(&curve, SAMPLES, &mut rng));
        }
    });
    let hilbert_vs_z = interleaved_ratio(RATIO_ROUNDS, z, hilbert);
    let simple = CurveKind::Simple.name();
    let simple_vs_reference_name = format!("{sampled}/estimate_vs_reference_interleaved/{simple}");
    let simple_vs_reference = {
        let curve = CurveKind::Simple.build::<2>(K_SAMPLED).unwrap();
        let (mut est_rng, mut ref_rng) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(5));
        interleaved_ratio(
            RATIO_ROUNDS,
            || {
                black_box(estimate_all_pairs_manhattan(&curve, SAMPLES, &mut est_rng));
            },
            || {
                black_box(reference_estimate(&curve, SAMPLES, &mut ref_rng));
            },
        )
    };
    sampled_speedups.push((simple_vs_reference_name.clone(), simple_vs_reference));
    let pair = |(name, value): &(String, f64)| (name.clone(), *value);
    report.numbers("all_pairs_ns_per_pair", 3, ns_per_pair.iter().map(pair));
    report.numbers("all_pairs_speedups", 2, speedups.iter().map(pair));
    report.numbers(
        "all_pairs_sampled_ns_per_sample",
        3,
        ns_per_sample.iter().map(pair),
    );
    report.numbers(
        "all_pairs_sampled_speedups",
        2,
        sampled_speedups.iter().map(pair),
    );
    report.numbers(
        "all_pairs_sampled_curve_ratios",
        2,
        [(&hilbert_vs_z_name, hilbert_vs_z)],
    );
    report.write();
    for (name, ratio) in &speedups {
        println!("speedup {name}: {ratio:.2}x");
        assert!(
            *ratio >= GROUPED_VS_NAIVE_GATE,
            "{name} = {ratio:.2}x, below the committed {GROUPED_VS_NAIVE_GATE}x"
        );
    }
    for (name, ratio) in &sampled_speedups {
        println!("speedup {name}: {ratio:.2}x");
    }
    println!("{hilbert_vs_z_name}: {hilbert_vs_z:.2}x");
    assert!(
        hilbert_vs_z <= SAMPLED_HILBERT_VS_Z_GATE,
        "{hilbert_vs_z_name} = {hilbert_vs_z:.2}x, above the committed {SAMPLED_HILBERT_VS_Z_GATE}x"
    );
    assert!(
        simple_vs_reference >= SAMPLED_VS_REFERENCE_GATE,
        "{simple_vs_reference_name} = {simple_vs_reference:.2}x, below the committed {SAMPLED_VS_REFERENCE_GATE}x"
    );
}
