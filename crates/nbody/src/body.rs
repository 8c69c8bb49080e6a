//! Particles, synthetic distributions, and curve-key quantisation.

use rand::Rng;
use sfc_core::{CurveIndex, Grid, Point, SpaceFillingCurve};

/// A point mass in the unit cube `[0, 1)^d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Body<const D: usize> {
    /// Position in `[0, 1)^d`.
    pub pos: [f64; D],
    /// Mass (positive).
    pub mass: f64,
}

impl<const D: usize> Body<D> {
    /// A body at rest.
    pub fn at_rest(pos: [f64; D], mass: f64) -> Self {
        Self { pos, mass }
    }

    /// Squared Euclidean distance between two bodies.
    pub fn dist_sq(&self, other: &Self) -> f64 {
        let mut s = 0.0;
        for a in 0..D {
            let d = self.pos[a] - other.pos[a];
            s += d * d;
        }
        s
    }
}

/// Synthetic particle distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform in the unit cube.
    Uniform,
    /// A mixture of isotropic Gaussian clusters (positions clamped to the
    /// cube) — the standard stand-in for clustered astrophysical data.
    Clustered {
        /// Number of clusters.
        clusters: usize,
        /// Standard deviation of each cluster.
        sigma: f64,
    },
}

/// Samples `count` unit-mass bodies at rest from a distribution.
pub fn sample_bodies<const D: usize, R: Rng + ?Sized>(
    dist: Distribution,
    count: usize,
    rng: &mut R,
) -> Vec<Body<D>> {
    match dist {
        Distribution::Uniform => (0..count)
            .map(|_| {
                let mut pos = [0.0; D];
                for p in pos.iter_mut() {
                    *p = rng.gen::<f64>();
                }
                Body::at_rest(pos, 1.0)
            })
            .collect(),
        Distribution::Clustered { clusters, sigma } => {
            let centers: Vec<[f64; D]> = (0..clusters.max(1))
                .map(|_| {
                    let mut c = [0.0; D];
                    for x in c.iter_mut() {
                        *x = rng.gen::<f64>();
                    }
                    c
                })
                .collect();
            (0..count)
                .map(|i| {
                    let c = centers[i % centers.len()];
                    let mut pos = [0.0; D];
                    for (p, center) in pos.iter_mut().zip(c.iter()) {
                        // Box-Muller normal sample.
                        let u1: f64 = rng.gen::<f64>().max(1e-12);
                        let u2: f64 = rng.gen();
                        let normal =
                            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        *p = (center + sigma * normal).clamp(0.0, 1.0 - 1e-9);
                    }
                    Body::at_rest(pos, 1.0)
                })
                .collect()
        }
    }
}

/// Quantises a position in `[0, 1)^d` to the grid cell at resolution `2^k`.
pub fn quantize<const D: usize>(grid: Grid<D>, pos: &[f64; D]) -> Point<D> {
    let side = grid.side() as f64;
    let max = (grid.side() - 1) as u32;
    let mut coords = [0u32; D];
    for (c, &p) in coords.iter_mut().zip(pos.iter()) {
        debug_assert!((0.0..1.0).contains(&p), "position out of unit cube: {p}");
        *c = ((p * side) as u32).min(max);
    }
    Point::new(coords)
}

/// The curve key of a body at resolution `2^k` under any curve.
pub fn body_key<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, body: &Body<D>) -> CurveIndex {
    curve.index_of(quantize(curve.grid(), &body.pos))
}

/// The curve keys of a batch of bodies at resolution `2^k`: quantise all
/// positions, then encode through the curve's batch kernel
/// ([`SpaceFillingCurve::index_of_batch`]).
pub fn body_keys<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    bodies: &[Body<D>],
    out: &mut Vec<CurveIndex>,
) {
    let grid = curve.grid();
    let cells: Vec<Point<D>> = bodies.iter().map(|b| quantize(grid, &b.pos)).collect();
    curve.index_of_batch(&cells, out);
}

/// Sorts bodies in place by their curve key (the Warren–Salmon ordering
/// step). Ties (same cell) keep their relative order.
///
/// Keys come from the batch encoding kernel; the sort itself is a stable
/// comparison sort on the `(key, body)` pairs.
pub fn sort_by_curve<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, bodies: &mut [Body<D>]) {
    let mut keys = Vec::new();
    body_keys(curve, bodies, &mut keys);
    let mut keyed: Vec<(CurveIndex, Body<D>)> =
        keys.into_iter().zip(bodies.iter().copied()).collect();
    keyed.sort_by_key(|(k, _)| *k);
    for (dst, (_, b)) in bodies.iter_mut().zip(keyed) {
        *dst = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sfc_core::ZCurve;

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(14)
    }

    #[test]
    fn uniform_bodies_land_in_cube() {
        let bodies: Vec<Body<3>> = sample_bodies(Distribution::Uniform, 200, &mut rng());
        assert_eq!(bodies.len(), 200);
        for b in &bodies {
            for a in 0..3 {
                assert!((0.0..1.0).contains(&b.pos[a]));
            }
            assert_eq!(b.mass, 1.0);
        }
    }

    #[test]
    fn clustered_bodies_concentrate() {
        let bodies: Vec<Body<2>> = sample_bodies(
            Distribution::Clustered {
                clusters: 2,
                sigma: 0.01,
            },
            400,
            &mut rng(),
        );
        // With σ = 0.01 and 2 clusters, pairwise distances are bimodal:
        // most same-cluster distances are tiny.
        let mut close = 0;
        for i in 0..100 {
            for j in (i + 1)..100 {
                if bodies[i].dist_sq(&bodies[j]) < 0.01 {
                    close += 1;
                }
            }
        }
        assert!(close > 1000, "only {close} close pairs");
        for b in &bodies {
            for a in 0..2 {
                assert!((0.0..1.0).contains(&b.pos[a]));
            }
        }
    }

    #[test]
    fn quantize_maps_cube_onto_grid() {
        let grid = Grid::<2>::new(3).unwrap();
        assert_eq!(quantize(grid, &[0.0, 0.0]), Point::new([0, 0]));
        assert_eq!(quantize(grid, &[0.999, 0.999]), Point::new([7, 7]));
        assert_eq!(quantize(grid, &[0.5, 0.124]), Point::new([4, 0]));
        assert_eq!(quantize(grid, &[0.126, 0.51]), Point::new([1, 4]));
    }

    #[test]
    fn sort_by_curve_orders_keys() {
        let mut bodies: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 300, &mut rng());
        let z = ZCurve::<2>::new(6).unwrap();
        sort_by_curve(&z, &mut bodies);
        let keys: Vec<u128> = bodies.iter().map(|b| body_key(&z, b)).collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn dist_sq_matches_hand_value() {
        let a = Body::<2>::at_rest([0.0, 0.0], 1.0);
        let b = Body::<2>::at_rest([0.3, 0.4], 1.0);
        assert!((a.dist_sq(&b) - 0.25).abs() < 1e-12);
    }
}
