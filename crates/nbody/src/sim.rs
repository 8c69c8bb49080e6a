//! Leapfrog (kick–drift–kick) time integration and energy accounting.

use crate::body::Body;
use crate::decomp::Orderer;
use crate::gravity::direct_forces;
use crate::tree::Tree;
use sfc_core::{CurveIndex, ZCurve};

/// How the per-step Morton resort of the Barnes–Hut cycle is performed —
/// the constructor choice for [`run_barnes_hut_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingMode {
    /// Re-sort all bodies from scratch every step (the static path used by
    /// the experiments).
    Rebuild,
    /// Maintain the order incrementally through a
    /// [`ShardedSfcStore`](sfc_store::ShardedSfcStore)-backed [`Orderer`]: only bodies
    /// that crossed a grid-cell boundary are re-ingested.
    Incremental,
}

/// One kick–drift–kick leapfrog step with accelerations recomputed by the
/// supplied force function. Positions are wrapped back into the unit cube
/// (periodic in presentation only — forces are not periodic).
pub fn leapfrog_step<const D: usize>(
    bodies: &mut [Body<D>],
    dt: f64,
    mut forces: impl FnMut(&[Body<D>]) -> Vec<[f64; D]>,
) {
    let acc0 = forces(bodies);
    // Half kick + drift.
    for (b, a) in bodies.iter_mut().zip(acc0.iter()) {
        for (axis, acc) in a.iter().enumerate() {
            b.vel[axis] += 0.5 * dt * acc;
            b.pos[axis] += dt * b.vel[axis];
            // Keep positions inside [0,1) so curve keys stay valid.
            b.pos[axis] = b.pos[axis].rem_euclid(1.0).min(1.0 - 1e-12);
        }
    }
    // Second half kick with fresh accelerations.
    let acc1 = forces(bodies);
    for (b, a) in bodies.iter_mut().zip(acc1.iter()) {
        for (axis, acc) in a.iter().enumerate() {
            b.vel[axis] += 0.5 * dt * acc;
        }
    }
}

/// Total kinetic energy `Σ ½ m v²`.
pub fn kinetic_energy<const D: usize>(bodies: &[Body<D>]) -> f64 {
    bodies
        .iter()
        .map(|b| {
            let v2: f64 = b.vel.iter().map(|v| v * v).sum();
            0.5 * b.mass * v2
        })
        .sum()
}

/// Total (softened) potential energy `−Σ_{i<j} m_i m_j / √(r² + ε²)`.
pub fn potential_energy<const D: usize>(bodies: &[Body<D>], softening: f64) -> f64 {
    let eps2 = softening * softening;
    let mut total = 0.0;
    for i in 0..bodies.len() {
        for j in (i + 1)..bodies.len() {
            let r2 = bodies[i].dist_sq(&bodies[j]) + eps2;
            total -= bodies[i].mass * bodies[j].mass / r2.sqrt();
        }
    }
    total
}

/// Total energy.
pub fn total_energy<const D: usize>(bodies: &[Body<D>], softening: f64) -> f64 {
    kinetic_energy(bodies) + potential_energy(bodies, softening)
}

/// Convenience driver: `steps` leapfrog steps under direct-summation
/// gravity. Returns the relative energy drift `|E_end − E_0| / |E_0|`.
pub fn run_direct<const D: usize>(
    bodies: &mut [Body<D>],
    dt: f64,
    steps: usize,
    softening: f64,
) -> f64 {
    let e0 = total_energy(bodies, softening);
    for _ in 0..steps {
        leapfrog_step(bodies, dt, |b| direct_forces(b, softening));
    }
    let e1 = total_energy(bodies, softening);
    (e1 - e0).abs() / e0.abs().max(1e-30)
}

/// Convenience driver: `steps` leapfrog steps under Barnes–Hut gravity with
/// the tree rebuilt every step (the standard SFC-resort-and-rebuild cycle
/// of Warren–Salmon). Returns the relative energy drift.
pub fn run_barnes_hut<const D: usize>(
    bodies: &mut [Body<D>],
    dt: f64,
    steps: usize,
    softening: f64,
    theta: f64,
    k: u32,
    leaf_cap: usize,
) -> f64 {
    run_barnes_hut_with(
        bodies,
        dt,
        steps,
        softening,
        theta,
        k,
        leaf_cap,
        OrderingMode::Rebuild,
    )
}

/// [`run_barnes_hut`] with an explicit [`OrderingMode`]: the Morton order
/// feeding each step's tree build is either recomputed from scratch or
/// maintained incrementally across steps (only cell-crossing bodies are
/// re-ingested). Bodies stay in their caller-visible slots; the tree is
/// built from a gathered copy and forces are scattered back through the
/// step's permutation. Returns the relative energy drift.
#[allow(clippy::too_many_arguments)]
pub fn run_barnes_hut_with<const D: usize>(
    bodies: &mut [Body<D>],
    dt: f64,
    steps: usize,
    softening: f64,
    theta: f64,
    k: u32,
    leaf_cap: usize,
    mode: OrderingMode,
) -> f64 {
    let z = ZCurve::<D>::new(k).expect("valid resolution");
    let mut orderer = match mode {
        OrderingMode::Rebuild => Orderer::rebuild(z),
        OrderingMode::Incremental => Orderer::incremental(z),
    };
    let e0 = total_energy(bodies, softening);
    for _ in 0..steps {
        leapfrog_step(bodies, dt, |b| {
            let (perm, sorted_keys): (Vec<u32>, Vec<CurveIndex>) = orderer.permutation_with_keys(b);
            let sorted: Vec<Body<D>> = perm.iter().map(|&i| b[i as usize]).collect();
            let tree = Tree::build_presorted(sorted, &sorted_keys, k, leaf_cap);
            let sorted_forces = crate::gravity::barnes_hut_forces(&tree, theta, softening).0;
            let mut forces = vec![[0.0; D]; b.len()];
            for (s, &orig) in perm.iter().enumerate() {
                forces[orig as usize] = sorted_forces[s];
            }
            forces
        });
    }
    let e1 = total_energy(bodies, softening);
    (e1 - e0).abs() / e0.abs().max(1e-30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{sample_bodies, Distribution};
    use rand::SeedableRng;

    #[test]
    fn kinetic_energy_hand_value() {
        let mut b = Body::<2>::at_rest([0.5, 0.5], 2.0);
        b.vel = [3.0, 4.0];
        assert!((kinetic_energy(&[b]) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn potential_energy_two_bodies() {
        let bodies = vec![
            Body::<2>::at_rest([0.25, 0.5], 2.0),
            Body::<2>::at_rest([0.75, 0.5], 1.0),
        ];
        // −m1 m2 / r = −2/0.5 = −4.
        assert!((potential_energy(&bodies, 0.0) + 4.0).abs() < 1e-12);
    }

    #[test]
    fn circular_orbit_conserves_energy() {
        // Two equal masses in mutual circular orbit: separation r, each at
        // radius r/2; circular speed v with v² = m/(2r) for G=1 equal mass m
        // (a = m/r² toward partner = v²/(r/2)).
        let m = 1.0;
        let r = 0.2f64;
        let v = (m / (2.0 * r)).sqrt();
        let mut bodies = vec![
            Body::<2> {
                pos: [0.5 - r / 2.0, 0.5],
                vel: [0.0, v],
                mass: m,
            },
            Body::<2> {
                pos: [0.5 + r / 2.0, 0.5],
                vel: [0.0, -v],
                mass: m,
            },
        ];
        let drift = run_direct(&mut bodies, 1e-4, 2_000, 0.0);
        assert!(drift < 1e-5, "energy drift {drift}");
    }

    #[test]
    fn leapfrog_is_time_reversible() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(8);
        let start: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 20, &mut rng);
        let mut fwd = start.clone();
        let steps = 50;
        let dt = 1e-4;
        for _ in 0..steps {
            leapfrog_step(&mut fwd, dt, |b| direct_forces(b, 1e-2));
        }
        // Reverse velocities, integrate the same number of steps, reverse
        // again: should recover the initial state.
        for b in fwd.iter_mut() {
            for v in b.vel.iter_mut() {
                *v = -*v;
            }
        }
        for _ in 0..steps {
            leapfrog_step(&mut fwd, dt, |b| direct_forces(b, 1e-2));
        }
        for (a, b) in fwd.iter().zip(start.iter()) {
            for axis in 0..2 {
                assert!(
                    (a.pos[axis] - b.pos[axis]).abs() < 1e-8,
                    "{} vs {}",
                    a.pos[axis],
                    b.pos[axis]
                );
            }
        }
    }

    #[test]
    fn incremental_ordering_matches_rebuild_physics() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
        let base: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 120, &mut rng);
        let mut a = base.clone();
        let mut b = base.clone();
        for body in a.iter_mut().chain(b.iter_mut()) {
            body.mass = 1.0 / 120.0;
        }
        let drift_rebuild =
            run_barnes_hut_with(&mut a, 1e-4, 15, 1e-2, 0.5, 8, 4, OrderingMode::Rebuild);
        let drift_incremental =
            run_barnes_hut_with(&mut b, 1e-4, 15, 1e-2, 0.5, 8, 4, OrderingMode::Incremental);
        assert!(drift_rebuild < 1e-2, "rebuild drift {drift_rebuild}");
        assert!(
            drift_incremental < 1e-2,
            "incremental drift {drift_incremental}"
        );
        // Same physics: the two orderings differ at most in within-cell tie
        // order, which only reshuffles float summation.
        for (x, y) in a.iter().zip(&b) {
            for axis in 0..2 {
                assert!(
                    (x.pos[axis] - y.pos[axis]).abs() < 1e-9,
                    "positions diverged: {} vs {}",
                    x.pos[axis],
                    y.pos[axis]
                );
            }
        }
    }

    #[test]
    fn barnes_hut_driver_has_bounded_drift() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut bodies: Vec<Body<2>> = sample_bodies(
            Distribution::Clustered {
                clusters: 2,
                sigma: 0.05,
            },
            100,
            &mut rng,
        );
        // Give total mass 1 so the dynamics are gentle at dt = 1e-4.
        for b in bodies.iter_mut() {
            b.mass = 1.0 / 100.0;
        }
        let drift = run_barnes_hut(&mut bodies, 1e-4, 20, 1e-2, 0.5, 8, 4);
        assert!(drift < 1e-2, "drift {drift}");
    }
}
