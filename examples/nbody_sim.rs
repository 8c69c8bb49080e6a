//! SFC-ordered Barnes–Hut N-body simulation — the paper's first motivating
//! application (Warren & Salmon's hashed oct-tree).
//!
//! Bodies are sorted by Morton key, a tree is built over the sorted array,
//! gravity is evaluated with the opening-angle approximation, and the
//! system is integrated with leapfrog while we watch the energy drift and
//! the work saved vs direct summation.
//!
//! ```text
//! cargo run --release -p sfc --example nbody_sim
//! ```

use rand::SeedableRng;
use sfc::nbody::body::{sample_bodies, Distribution};
use sfc::nbody::gravity::{barnes_hut_forces, direct_forces_par, mean_relative_error};
use sfc::nbody::sim::{leapfrog_step, total_energy};
use sfc::nbody::{Body, Tree};

fn main() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1993);
    let n = 5_000;
    let mut bodies: Vec<Body<2>> = sample_bodies(
        Distribution::Clustered {
            clusters: 4,
            sigma: 0.06,
        },
        n,
        &mut rng,
    );
    for b in bodies.iter_mut() {
        b.mass = 1.0 / n as f64;
    }
    let softening = 5e-3;
    println!("{n} bodies, 4 clusters, total mass 1, softening {softening}\n");

    // One-shot accuracy/work comparison.
    let tree = Tree::build(bodies.clone(), 10, 8);
    let t0 = std::time::Instant::now();
    let direct = direct_forces_par(tree.bodies(), softening);
    let t_direct = t0.elapsed();
    println!(
        "direct summation: {} interactions in {t_direct:.2?}",
        n * (n - 1)
    );
    for theta in [0.3, 0.6, 1.0] {
        let t0 = std::time::Instant::now();
        let (forces, stats) = barnes_hut_forces(&tree, theta, softening);
        let dt = t0.elapsed();
        println!(
            "barnes-hut θ={theta}: {:>9} interactions in {dt:>8.2?}  (err {:.2e})",
            stats.total(),
            mean_relative_error(&forces, &direct)
        );
    }

    // Short integration with per-step resort + rebuild.
    println!("\nintegrating 200 steps (dt = 1e-4, θ = 0.6, rebuild every step)…");
    let e0 = total_energy(&bodies, softening);
    let wall = std::time::Instant::now();
    for step in 0..200 {
        leapfrog_step(&mut bodies, 1e-4, |b| {
            let (tree, order) = Tree::build_tracked(b, 10, 8);
            let sorted = barnes_hut_forces(&tree, 0.6, softening).0;
            let mut forces = vec![[0.0; 2]; b.len()];
            for (s, &orig) in order.iter().enumerate() {
                forces[orig] = sorted[s];
            }
            forces
        });
        if (step + 1) % 50 == 0 {
            let e = total_energy(&bodies, softening);
            println!(
                "  step {:>3}: energy {:+.6}  (rel. drift {:.2e})",
                step + 1,
                e,
                (e - e0).abs() / e0.abs()
            );
        }
    }
    println!("done in {:.2?}", wall.elapsed());
}
