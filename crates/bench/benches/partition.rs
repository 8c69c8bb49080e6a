//! Partitioning: greedy vs min-bottleneck, and quality evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use sfc_core::{Grid, ZCurve};
use sfc_partition::{
    partition_greedy, partitioner::partition_min_bottleneck, quality, WeightedGrid, Workload,
};
use std::hint::black_box;

fn bench_partition(c: &mut Criterion) {
    let grid = Grid::<2>::new(7).unwrap(); // 128×128 = 16384 cells
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let weights = WeightedGrid::generate(
        grid,
        Workload::GaussianClusters {
            count: 6,
            sigma: 9.0,
        },
        &mut rng,
    );
    let z = ZCurve::<2>::over(grid);

    let mut group = c.benchmark_group("partition_128x128_p32");
    group.bench_function("greedy", |b| {
        b.iter(|| black_box(partition_greedy(&z, &weights, 32)))
    });
    group.bench_function("min_bottleneck", |b| {
        b.iter(|| black_box(partition_min_bottleneck(&z, &weights, 32, 1e-6)))
    });
    group.finish();

    let part = partition_greedy(&z, &weights, 32);
    let mut group = c.benchmark_group("partition_quality_128x128");
    group.bench_function("evaluate", |b| {
        b.iter(|| black_box(quality::evaluate(&z, &weights, &part)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partition
}
criterion_main!(benches);
