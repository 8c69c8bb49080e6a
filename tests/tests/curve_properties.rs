//! Property-based tests on curve invariants, spanning core + metrics.

use proptest::prelude::*;
use sfc_core::transform::{AxisPermuted, Reflected, Reversed};
use sfc_core::{CurveKind, Grid, PermutationCurve, Point, SpaceFillingCurve, ZCurve};
use sfc_metrics::nn_stretch::summarize;

proptest! {
    /// Round-trip bijectivity of every analytic family at random points.
    #[test]
    fn all_curves_roundtrip_d2(
        kind_idx in 0usize..5,
        x in 0u32..(1 << 8),
        y in 0u32..(1 << 8),
    ) {
        let kind = CurveKind::ALL[kind_idx];
        let curve = kind.build::<2>(8).unwrap();
        let p = Point::new([x, y]);
        let idx = curve.index_of(p);
        prop_assert!(idx < curve.grid().n());
        prop_assert_eq!(curve.point_of(idx), p);
    }

    /// Round-trip in 3-D.
    #[test]
    fn all_curves_roundtrip_d3(
        kind_idx in 0usize..5,
        coords in proptest::array::uniform3(0u32..(1 << 5)),
    ) {
        let kind = CurveKind::ALL[kind_idx];
        let curve = kind.build::<3>(5).unwrap();
        let p = Point::new(coords);
        prop_assert_eq!(curve.point_of(curve.index_of(p)), p);
    }

    /// The generalized triangle inequality (Lemma 1) holds for Δπ along
    /// arbitrary 3-point chains, for every curve family.
    #[test]
    fn lemma1_triangle_inequality(
        kind_idx in 0usize..5,
        a in proptest::array::uniform2(0u32..16),
        b in proptest::array::uniform2(0u32..16),
        c in proptest::array::uniform2(0u32..16),
    ) {
        let curve = CurveKind::ALL[kind_idx].build::<2>(4).unwrap();
        let (pa, pb, pc) = (Point::new(a), Point::new(b), Point::new(c));
        prop_assert!(
            curve.curve_distance(pa, pc)
                <= curve.curve_distance(pa, pb) + curve.curve_distance(pb, pc)
        );
    }

    /// Reversing a curve preserves every pairwise curve distance, hence
    /// every stretch metric (used by the paper implicitly: the metrics
    /// depend only on |π(α) − π(β)|).
    #[test]
    fn reversal_preserves_stretch(kind_idx in 0usize..5) {
        let curve = CurveKind::ALL[kind_idx].build::<2>(3).unwrap();
        let s = summarize(&curve);
        let r = summarize(&Reversed::new(&curve));
        prop_assert_eq!(s.davg_numerator, r.davg_numerator);
        prop_assert_eq!(s.dmax_sum, r.dmax_sum);
        prop_assert_eq!(s.edge_sum, r.edge_sum);
    }

    /// The paper's Section IV.B remark, verified: permuting the dimension
    /// order of the Z curve does not change any stretch metric.
    #[test]
    fn axis_permutation_of_z_preserves_stretch(swap in any::<bool>()) {
        let z = ZCurve::<2>::new(3).unwrap();
        let perm = if swap { [1usize, 0] } else { [0usize, 1] };
        let wrapped = AxisPermuted::new(z, perm).unwrap();
        let s = summarize(&z);
        let w = summarize(&wrapped);
        prop_assert_eq!(s.davg_numerator, w.davg_numerator);
        prop_assert_eq!(s.dmax_sum, w.dmax_sum);
        prop_assert_eq!(s.edge_sum, w.edge_sum);
        prop_assert_eq!(s.max_delta, w.max_delta);
    }

    /// Reflections are grid symmetries: all stretch metrics invariant.
    #[test]
    fn reflection_preserves_stretch(
        kind_idx in 0usize..5,
        flip in proptest::array::uniform2(any::<bool>()),
    ) {
        let curve = CurveKind::ALL[kind_idx].build::<2>(3).unwrap();
        let wrapped = Reflected::new(&curve, flip);
        let s = summarize(&curve);
        let w = summarize(&wrapped);
        prop_assert_eq!(s.davg_numerator, w.davg_numerator);
        prop_assert_eq!(s.dmax_sum, w.dmax_sum);
    }

    /// Random bijections: the Theorem 1 bound holds on every draw, and
    /// D^max dominates D^avg (Proposition 1's driver).
    #[test]
    fn random_bijections_respect_bounds(seed in any::<u64>()) {
        let mut rng = sfc_integration::test_rng(seed);
        let grid = Grid::<2>::new(2).unwrap();
        let curve = PermutationCurve::random(grid, &mut rng).unwrap();
        let s = summarize(&curve);
        let bound = sfc_metrics::bounds::thm1_nn_stretch_lower_bound(2, 2);
        prop_assert!(s.d_avg() >= bound - 1e-12);
        prop_assert!(s.d_max() >= s.d_avg() - 1e-12);
    }

    /// Lemma 2 as a property: S_A' is invariant across random bijections.
    #[test]
    fn lemma2_invariance(seed in any::<u64>()) {
        let mut rng = sfc_integration::test_rng(seed);
        let grid = Grid::<2>::new(2).unwrap();
        let curve = PermutationCurve::random(grid, &mut rng).unwrap();
        let measured = sfc_metrics::all_pairs::sa_prime_sum(&curve);
        prop_assert_eq!(measured, sfc_metrics::bounds::lemma2_sa_prime(16));
    }
}

/// Hilbert continuity across every dimension/order combination we ship —
/// not a proptest (exhaustive walk), but an integration-level guarantee.
#[test]
fn hilbert_is_continuous_everywhere() {
    macro_rules! check {
        ($d:literal, $k:expr) => {
            let h = sfc_core::HilbertCurve::<$d>::new($k).unwrap();
            assert!(h.is_continuous(), "hilbert d={} k={}", $d, $k);
        };
    }
    check!(2, 6);
    check!(3, 4);
    check!(4, 2);
    check!(5, 2);
    check!(6, 1);
}
