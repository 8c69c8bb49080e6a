//! SFC work decomposition of the body array and spatial-compactness
//! metrics.
//!
//! Sorting bodies along a curve and cutting the order into `p` contiguous
//! chunks is exactly the Warren–Salmon / Aluru–Sevilgen decomposition. How
//! *compact* the chunks are in space is governed by the curve's proximity
//! preservation — the `app-nbody` experiment reports the metrics below per
//! curve family, connecting the paper's stretch theory to an end-to-end
//! N-body quantity.

use crate::body::Body;
use sfc_core::SpaceFillingCurve;

/// One chunk of an SFC decomposition of the sorted body array.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Range of body indices (into the curve-sorted array).
    pub range: std::ops::Range<usize>,
    /// Axis-aligned bounding-box volume of the chunk's bodies.
    pub bbox_volume: f64,
    /// Largest bounding-box side length.
    pub bbox_longest_side: f64,
}

/// Sorts bodies by `curve` key and splits them into `p` near-equal-count
/// contiguous chunks, reporting each chunk's spatial compactness.
pub fn decompose<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    bodies: &mut [Body<D>],
    p: usize,
) -> Vec<Chunk> {
    crate::body::sort_by_curve(curve, bodies);
    assert!(p >= 1, "need at least one chunk");
    let n = bodies.len();
    let mut chunks = Vec::with_capacity(p);
    for j in 0..p {
        let start = j * n / p;
        let end = (j + 1) * n / p;
        let (volume, longest) = bbox(&bodies[start..end]);
        chunks.push(Chunk {
            range: start..end,
            bbox_volume: volume,
            bbox_longest_side: longest,
        });
    }
    chunks
}

fn bbox<const D: usize>(bodies: &[Body<D>]) -> (f64, f64) {
    if bodies.is_empty() {
        return (0.0, 0.0);
    }
    let mut lo = [f64::INFINITY; D];
    let mut hi = [f64::NEG_INFINITY; D];
    for b in bodies {
        for a in 0..D {
            lo[a] = lo[a].min(b.pos[a]);
            hi[a] = hi[a].max(b.pos[a]);
        }
    }
    let mut volume = 1.0;
    let mut longest = 0.0f64;
    for a in 0..D {
        let side = hi[a] - lo[a];
        volume *= side;
        longest = longest.max(side);
    }
    (volume, longest)
}

/// Aggregate compactness of a decomposition: the mean bounding-box volume
/// per chunk (lower = more compact parts = less halo communication).
pub fn mean_chunk_volume(chunks: &[Chunk]) -> f64 {
    if chunks.is_empty() {
        return 0.0;
    }
    chunks.iter().map(|c| c.bbox_volume).sum::<f64>() / chunks.len() as f64
}

/// The average over consecutive (sorted) body pairs of their Euclidean
/// distance — a memory-locality proxy: low values mean neighboring array
/// entries are spatial neighbors, so force kernels walk coherent data.
pub fn sequential_locality<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    bodies: &mut [Body<D>],
) -> f64 {
    crate::body::sort_by_curve(curve, bodies);
    if bodies.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for w in bodies.windows(2) {
        total += w[0].dist_sq(&w[1]).sqrt();
    }
    total / (bodies.len() - 1) as f64
}

/// Mean key-rank distance between each body and its spatially nearest
/// other bodies — the *empirical nearest-neighbor stretch of the point
/// set* under this curve, the direct analogue of the paper's `D^avg` for
/// continuous data: per body, the rank distance is averaged over **all**
/// bodies tied at the minimum spatial distance (mirroring the paper's
/// average over the whole neighbor set `N(α)`), then averaged over bodies.
///
/// `O(n²)`; intended for experiment-scale inputs.
pub fn empirical_nn_stretch<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    bodies: &mut [Body<D>],
) -> f64 {
    crate::body::sort_by_curve(curve, bodies);
    let n = bodies.len();
    assert!(n >= 2, "need at least two bodies");
    let mut total = 0.0f64;
    for i in 0..n {
        let mut best = f64::INFINITY;
        for j in 0..n {
            if i != j {
                best = best.min(bodies[i].dist_sq(&bodies[j]));
            }
        }
        let mut rank_sum = 0.0f64;
        let mut ties = 0u64;
        for j in 0..n {
            if i != j && bodies[i].dist_sq(&bodies[j]) <= best * (1.0 + 1e-12) {
                rank_sum += (i as f64 - j as f64).abs();
                ties += 1;
            }
        }
        total += rank_sum / ties as f64;
    }
    total / n as f64
}

/// Per-curve summary for the `app-nbody` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompSummary {
    /// Curve name.
    pub curve: String,
    /// Mean chunk bounding-box volume for the given `p`.
    pub mean_chunk_volume: f64,
    /// Mean consecutive-body distance after sorting.
    pub sequential_locality: f64,
    /// Mean rank distance to the spatial nearest neighbor.
    pub empirical_nn_stretch: f64,
}

/// Computes the full summary for one curve (sorts `bodies` as a side
/// effect).
pub fn summarize<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    bodies: &mut [Body<D>],
    p: usize,
) -> DecompSummary {
    let chunks = decompose(curve, bodies, p);
    DecompSummary {
        curve: curve.name(),
        mean_chunk_volume: mean_chunk_volume(&chunks),
        sequential_locality: sequential_locality(curve, bodies),
        empirical_nn_stretch: empirical_nn_stretch(curve, bodies),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{sample_bodies, Distribution};
    use rand::SeedableRng;
    use sfc_core::{HilbertCurve, SimpleCurve, ZCurve};

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(77)
    }

    #[test]
    fn decompose_covers_all_bodies() {
        let mut bodies: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 100, &mut rng());
        let z = ZCurve::<2>::new(6).unwrap();
        let chunks = decompose(&z, &mut bodies, 7);
        assert_eq!(chunks.len(), 7);
        assert_eq!(chunks[0].range.start, 0);
        assert_eq!(chunks.last().unwrap().range.end, 100);
        for w in chunks.windows(2) {
            assert_eq!(w[0].range.end, w[1].range.start);
        }
        // Near-equal counts.
        for c in &chunks {
            assert!(c.range.len() == 14 || c.range.len() == 15);
        }
    }

    #[test]
    fn compact_curves_make_smaller_chunks_than_slabs() {
        let mut b1: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 1_000, &mut rng());
        let mut b2 = b1.clone();
        let hilbert = HilbertCurve::<2>::new(6).unwrap();
        let simple = SimpleCurve::<2>::new(6).unwrap();
        // Simple-curve chunks are 1/16-high full-width slabs: their
        // longest bbox side is ≈ 1.0. Hilbert chunks are blocky: their
        // longest side is ≈ 1/4. (Bounding-box *volume* is not
        // discriminative here — an unaligned Hilbert segment can have a
        // slightly larger sloppy bbox than a tight slab — so the metric of
        // record is the longest side.)
        let lh = decompose(&hilbert, &mut b1, 16)
            .iter()
            .map(|c| c.bbox_longest_side)
            .sum::<f64>()
            / 16.0;
        let ls = decompose(&simple, &mut b2, 16)
            .iter()
            .map(|c| c.bbox_longest_side)
            .sum::<f64>()
            / 16.0;
        assert!(lh < 0.75 * ls, "hilbert longest side {lh} vs simple {ls}");
    }

    #[test]
    fn sequential_locality_ranks_curves_sensibly() {
        let base: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 2_000, &mut rng());
        let hilbert = HilbertCurve::<2>::new(7).unwrap();
        let simple = SimpleCurve::<2>::new(7).unwrap();
        let z = ZCurve::<2>::new(7).unwrap();
        let mut b = base.clone();
        let sl_h = sequential_locality(&hilbert, &mut b);
        let mut b = base.clone();
        let sl_z = sequential_locality(&z, &mut b);
        let mut b = base.clone();
        let sl_s = sequential_locality(&simple, &mut b);
        // Hilbert (continuous) beats Z (jumps), which beats row-major
        // slabs for consecutive-body distance.
        assert!(sl_h < sl_z, "hilbert {sl_h} vs z {sl_z}");
        assert!(sl_z < sl_s, "z {sl_z} vs simple {sl_s}");
    }

    #[test]
    fn empirical_nn_stretch_mirrors_the_papers_surprise() {
        // Place bodies exactly on an 8×8 sub-grid: the empirical NN stretch
        // then mirrors the paper's cell-based D^avg. The paper's surprising
        // finding (Theorems 2 & 3, Section VI open question) is that the
        // *average* NN-stretch cannot be much improved by curve
        // sophistication: the trivial simple curve already matches the Z
        // curve, and the measured Hilbert value is in the same Θ(n^{1−1/d})
        // ballpark — NOT asymptotically better. Measured on this grid:
        // hilbert ≈ 4.84, simple = 4.5.
        let mut bodies = Vec::new();
        for x in 0..8 {
            for y in 0..8 {
                bodies.push(Body::<2>::at_rest(
                    [x as f64 / 8.0 + 0.01, y as f64 / 8.0 + 0.01],
                    1.0,
                ));
            }
        }
        let hilbert = HilbertCurve::<2>::new(3).unwrap();
        let simple = SimpleCurve::<2>::new(3).unwrap();
        let eh = empirical_nn_stretch(&hilbert, &mut bodies.clone());
        let es = empirical_nn_stretch(&simple, &mut bodies.clone());
        assert!(eh >= 1.0 && es >= 1.0, "rank distance to NN is at least 1");
        // Same ballpark: neither curve beats the other by more than 25%.
        let ratio = eh / es;
        assert!(
            (0.8..1.25).contains(&ratio),
            "hilbert {eh} vs simple {es} (ratio {ratio})"
        );
        // The simple curve hits exactly the interior value 4.5 from the
        // Theorem 3 proof (boundary ties average out on this torus-free
        // layout).
        assert!((es - 4.5).abs() < 0.01, "simple measured {es}");
    }

    #[test]
    fn summarize_produces_consistent_fields() {
        let mut bodies: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 200, &mut rng());
        let z = ZCurve::<2>::new(5).unwrap();
        let s = summarize(&z, &mut bodies, 4);
        assert_eq!(s.curve, "Z");
        assert!(s.mean_chunk_volume > 0.0 && s.mean_chunk_volume <= 1.0);
        assert!(s.sequential_locality > 0.0);
        assert!(s.empirical_nn_stretch >= 1.0);
    }

    #[test]
    fn bbox_of_empty_and_single() {
        let chunks = decompose(
            &ZCurve::<2>::new(3).unwrap(),
            &mut Vec::<Body<2>>::new()[..],
            1,
        );
        assert_eq!(chunks[0].bbox_volume, 0.0);
        let mut one = vec![Body::<2>::at_rest([0.5, 0.5], 1.0)];
        let chunks = decompose(&ZCurve::<2>::new(3).unwrap(), &mut one, 1);
        assert_eq!(chunks[0].bbox_volume, 0.0);
    }
}
