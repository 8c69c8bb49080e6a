//! N-body: tree build, Barnes–Hut vs direct.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use sfc_nbody::body::{sample_bodies, Distribution};
use sfc_nbody::gravity::{barnes_hut_forces, direct_forces};
use sfc_nbody::{Body, Tree};
use std::hint::black_box;

fn bench_tree_build(c: &mut Criterion) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
    let bodies: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 10_000, &mut rng);
    c.bench_function("tree_build_10k", |b| {
        b.iter(|| black_box(Tree::build(bodies.clone(), 10, 8)))
    });
}

fn bench_forces(c: &mut Criterion) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
    let bodies: Vec<Body<2>> = sample_bodies(
        Distribution::Clustered {
            clusters: 5,
            sigma: 0.04,
        },
        2_000,
        &mut rng,
    );
    let tree = Tree::build(bodies, 10, 8);

    let mut group = c.benchmark_group("forces_2k_bodies");
    group.bench_function("direct", |b| {
        b.iter(|| black_box(direct_forces(tree.bodies(), 1e-3)))
    });
    group.bench_function("barnes_hut_theta0.5", |b| {
        b.iter(|| black_box(barnes_hut_forces(&tree, 0.5, 1e-3)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_tree_build, bench_forces
}
criterion_main!(benches);
