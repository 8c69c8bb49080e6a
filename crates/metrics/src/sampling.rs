//! Monte-Carlo estimators for stretch metrics on grids too large to
//! enumerate.
//!
//! The exact drivers in [`crate::nn_stretch`] and [`crate::all_pairs`] are
//! `O(n·d)` and `O(n²)` respectively; these estimators sample cells /
//! pairs uniformly and report a mean with a normal-approximation standard
//! error, so the experiment harness can probe grids up to `n = 2^{60}` and
//! beyond (curve evaluation itself is `O(d·k)` bit work regardless of `n`).
//!
//! ## Heavy-tail caveat
//!
//! For bit-interleaving curves (Z, Gray) the per-cell `δ^avg` distribution
//! is heavy-tailed: a neighbor step across a `2^j`-aligned boundary costs
//! `~2^{jd}` and occurs with probability `~2^{−j}`, so the *mean* is carried
//! by rare cells. A naive sample of `m ≪ 2^k` cells therefore almost surely
//! under-estimates `D^avg(Z)` (while remaining unbiased). For the Z curve
//! use the exact closed form ([`crate::lambda`]) instead; sampling is
//! reliable for curves with concentrated per-cell values (simple, snake,
//! Hilbert) and for the all-pairs metrics, whose ratios are bounded.

use rand::Rng;
use sfc_core::SpaceFillingCurve;

/// A Monte-Carlo estimate: sample mean with standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean (`s/√m`).
    pub std_error: f64,
    /// Number of samples drawn.
    pub samples: u64,
}

impl Estimate {
    /// `true` iff `value` lies within `sigmas` standard errors of the mean.
    pub fn within(&self, value: f64, sigmas: f64) -> bool {
        (value - self.mean).abs() <= sigmas * self.std_error.max(f64::EPSILON)
    }
}

/// Welford online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Adds a chunk of values at once: its mean and `M2` in two passes, then
    /// Chan, Golub & LeVeque's pairwise update. Agrees with one
    /// [`push`](Self::push) per value to rounding, with no division on a
    /// per-value dependency chain.
    fn push_chunk(&mut self, xs: &[f64]) {
        if xs.is_empty() {
            return;
        }
        let n_b = xs.len() as f64;
        let mean_b = lane_sum(xs, |x| x) / n_b;
        let m2_b = lane_sum(xs, |x| (x - mean_b) * (x - mean_b));
        let n_a = self.count as f64;
        let n = n_a + n_b;
        let delta = mean_b - self.mean;
        self.count += xs.len() as u64;
        self.mean += delta * (n_b / n);
        self.m2 += m2_b + delta * delta * (n_a * n_b / n);
    }

    fn estimate(&self) -> Estimate {
        let variance = if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        };
        Estimate {
            mean: self.mean,
            std_error: (variance / self.count.max(1) as f64).sqrt(),
            samples: self.count,
        }
    }
}

/// `Σ f(x)` over `xs` in four interleaved lanes, so that each add does not
/// wait for the one before it.
#[inline]
fn lane_sum(xs: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    let chunks = xs.chunks_exact(4);
    let tail: f64 = chunks.remainder().iter().map(|&x| f(x)).sum();
    let mut lanes = [0.0f64; 4];
    for c in chunks {
        for (lane, &x) in lanes.iter_mut().zip(c) {
            *lane += f(x);
        }
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + tail
}

/// Estimates `D^avg(π)` by sampling cells uniformly and averaging
/// `δ^avg_π`.
pub fn estimate_d_avg<const D: usize, C: SpaceFillingCurve<D>, R: Rng + ?Sized>(
    curve: &C,
    samples: u64,
    rng: &mut R,
) -> Estimate {
    let grid = curve.grid();
    let mut acc = Welford::default();
    for _ in 0..samples {
        let cell = grid.random_cell(rng);
        acc.push(crate::nn_stretch::delta_avg(curve, cell));
    }
    acc.estimate()
}

/// Pairs per encoding batch in the all-pairs estimators: big enough to
/// amortize the batch kernel's setup, small enough to stay cache-resident.
const PAIR_BATCH: usize = 1024;

/// `Δπ` as an `f64` on a grid wider than 63 index bits. Below `2^64` the
/// conversion goes through `u64`, a few instructions where `u128 → f64` is
/// a software routine; both round the same integer the same way, so the
/// value is identical. Narrower grids take [`narrow_ratios`].
#[inline]
fn distance_f64(d: sfc_core::CurveIndex) -> f64 {
    match u64::try_from(d) {
        Ok(d) => d as f64,
        Err(_) => d as f64,
    }
}

/// `Δπ / Δ(a, b)` of each pair when every key is below `2^63`: both
/// distances are then exact `i64`s, and `i64 → f64` is one instruction
/// where `u64 → f64` and `u128 → f64` are several. Each converts the same
/// integer with the same rounding, so every ratio equals the one
/// [`distance_f64`] forms.
#[inline]
fn narrow_ratios<const D: usize>(
    points: &[sfc_core::Point<D>],
    keys: &[sfc_core::CurveIndex],
    out: &mut [f64],
) {
    for ((r, p), k) in out
        .iter_mut()
        .zip(points.chunks_exact(2))
        .zip(keys.chunks_exact(2))
    {
        let dpi = (k[0] as u64).abs_diff(k[1] as u64) as i64;
        let delta = p[0].manhattan(&p[1]) as i64;
        *r = dpi as f64 / delta as f64;
    }
}

/// Estimates the all-pairs Manhattan stretch `str^{avg,M}(π)` by sampling
/// ordered pairs of distinct cells uniformly: draws them a chunk at a time,
/// encodes each chunk through the curve's batch kernel
/// ([`SpaceFillingCurve::index_of_batch`]) and accumulates its
/// `Δπ / Δ(a, b)` at once.
///
/// The pairs come from [`Grid::fill_distinct_pairs`](sfc_core::Grid::fill_distinct_pairs),
/// which cuts cells from raw random words, so a seeded RNG gives a different
/// sample sequence than a draw through `gen_range` per coordinate would. Each
/// pair is still uniform over the ordered distinct pairs and independent of
/// the others, so the mean stays an unbiased estimate and `s/√m` its
/// standard error.
///
/// # Panics
/// On a one-cell grid, which has no pair to sample.
pub fn estimate_all_pairs_manhattan<const D: usize, C: SpaceFillingCurve<D>, R: Rng + ?Sized>(
    curve: &C,
    samples: u64,
    rng: &mut R,
) -> Estimate {
    let grid = curve.grid();
    assert!(grid.k() >= 1, "a one-cell grid has no pairs to sample");
    let narrow = D * grid.k() as usize <= 63;
    let mut acc = Welford::default();
    // On the heap: a chunk of `Point<D>`s outgrows a thread's stack at large `D`.
    let mut points = vec![sfc_core::Point::origin(); 2 * PAIR_BATCH].into_boxed_slice();
    let mut keys = Vec::with_capacity(2 * PAIR_BATCH);
    let mut ratios = [0.0f64; PAIR_BATCH];
    let mut remaining = samples;
    while remaining > 0 {
        let chunk = (remaining as usize).min(PAIR_BATCH);
        let (points, ratios) = (&mut points[..2 * chunk], &mut ratios[..chunk]);
        grid.fill_distinct_pairs(rng, points);
        curve.index_of_batch(points, &mut keys);
        if narrow {
            narrow_ratios(points, &keys, ratios);
        } else {
            for ((r, p), k) in ratios
                .iter_mut()
                .zip(points.chunks_exact(2))
                .zip(keys.chunks_exact(2))
            {
                *r = distance_f64(sfc_core::index_distance(k[0], k[1]))
                    / p[0].manhattan(&p[1]) as f64;
            }
        }
        acc.push_chunk(ratios);
        remaining -= chunk as u64;
    }
    acc.estimate()
}

/// Stratified estimator of the **mean nearest-neighbor edge distance**
/// `Σ_{NN_d} Δπ / |NN_d|` — the quantity that brackets `D^avg` through
/// Lemma 3 and equals it asymptotically (`|NN_d|/(n·d) = (side−1)/side`).
///
/// Strata are the paper's groups `G_{i,j}` (Lemma 5): axis `i` × the
/// trailing-ones class `j` of the lower coordinate. For bit-interleaving
/// curves (Z, Gray) the edge distance is **constant within a stratum**, so
/// a handful of samples per stratum recovers the exact mean — repairing
/// the heavy-tail failure of naive sampling documented above. For other
/// curves the estimator remains unbiased with reduced variance.
pub fn estimate_edge_mean_stratified<const D: usize, C: SpaceFillingCurve<D>, R: Rng + ?Sized>(
    curve: &C,
    samples_per_stratum: u64,
    rng: &mut R,
) -> Estimate {
    assert!(
        samples_per_stratum >= 2,
        "need ≥ 2 samples per stratum for a variance estimate"
    );
    let grid = curve.grid();
    let k = grid.k();
    assert!(k >= 1, "a single-cell grid has no edges");
    let side = grid.side();

    let mut mean = 0.0f64;
    let mut var = 0.0f64;
    for axis in 0..D {
        for j in 1..=k {
            // Stratum weight: |G_{i,j}| / |NN_d| = 2^{k−j} / (d·(side−1)).
            let weight = (1u64 << (k - j)) as f64 / (D as f64 * (side - 1) as f64);
            let mut acc = Welford::default();
            for _ in 0..samples_per_stratum {
                // Lower coordinate with exactly j−1 trailing ones then a 0:
                // c = u·2^j + (2^{j−1} − 1).
                let u = rng.gen_range(0..(1u64 << (k - j)));
                let c = (u << j) + ((1u64 << (j - 1)) - 1);
                let mut coords = [0u32; D];
                for (a, slot) in coords.iter_mut().enumerate() {
                    *slot = if a == axis {
                        c as u32
                    } else {
                        rng.gen_range(0..side) as u32
                    };
                }
                let p = sfc_core::Point::new(coords);
                let q = p.step_up(axis).expect("in bounds by construction");
                acc.push(curve.curve_distance(p, q) as f64);
            }
            let e = acc.estimate();
            mean += weight * e.mean;
            // Variance of the weighted stratum mean: w²·(s/√m)².
            var += weight * weight * e.std_error * e.std_error;
        }
    }
    Estimate {
        mean,
        std_error: var.sqrt(),
        samples: samples_per_stratum * (D as u64) * u64::from(k),
    }
}

/// The exact mean NN-edge distance `Σ_{NN_d} Δπ / |NN_d|`, by enumeration
/// (ground truth for the stratified estimator).
pub fn exact_edge_mean<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> f64 {
    let s = crate::nn_stretch::summarize(curve);
    let grid = curve.grid();
    s.edge_sum as f64 / grid.nn_edge_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_pairs, nn_stretch};
    use rand::SeedableRng;
    use sfc_core::{CurveKind, ZCurve};

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn welford_matches_closed_form() {
        let mut w = Welford::default();
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        let e = w.estimate();
        assert!((e.mean - 2.5).abs() < 1e-12);
        // Sample variance of 1..4 is 5/3; SE = sqrt(5/3/4).
        assert!((e.std_error - (5.0 / 3.0 / 4.0f64).sqrt()).abs() < 1e-12);
        assert_eq!(e.samples, 4);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut w = Welford::default();
        w.push(7.0);
        let e = w.estimate();
        assert_eq!(e.mean, 7.0);
        assert_eq!(e.std_error, 0.0);
        assert!(e.within(7.0, 1.0));
    }

    #[test]
    fn d_avg_estimate_converges_to_exact() {
        let z = ZCurve::<2>::new(4).unwrap();
        let exact = nn_stretch::summarize(&z).d_avg();
        let est = estimate_d_avg(&z, 20_000, &mut rng(1));
        assert!(
            est.within(exact, 5.0),
            "exact {exact} not within 5σ of {est:?}"
        );
    }

    #[test]
    fn chunked_accumulator_matches_per_sample_welford() {
        // 10 000 values: PAIR_BATCH does not divide it, so the last chunk is
        // short. Then the degenerate streams of 0 and 1 values.
        let mut r = rng(7);
        let stream: Vec<f64> = (0..10_000).map(|_| 1.0 + 1e3 * r.gen::<f64>()).collect();
        assert_ne!(stream.len() % PAIR_BATCH, 0);
        for xs in [&stream[..], &[], &[42.5]] {
            let mut one = Welford::default();
            xs.iter().for_each(|&x| one.push(x));
            let mut chunked = Welford::default();
            xs.chunks(PAIR_BATCH).for_each(|c| chunked.push_chunk(c));
            let (a, b) = (one.estimate(), chunked.estimate());
            assert_eq!(a.samples, b.samples);
            let close = |x: f64, y: f64| (x - y).abs() <= 1e-12 * x.abs().max(y.abs());
            assert!(
                close(a.mean, b.mean) && close(a.std_error, b.std_error),
                "{} values: {a:?} vs {b:?}",
                xs.len()
            );
        }
    }

    #[test]
    fn all_pairs_estimates_converge_to_exact() {
        for (i, kind) in CurveKind::ALL.into_iter().enumerate() {
            let c = kind.build::<2>(3).unwrap();
            let exact = all_pairs::all_pairs_exact(&c);
            let seed = 2 * i as u64;
            let est_m = estimate_all_pairs_manhattan(&c, 30_000, &mut rng(3 + seed));
            assert!(
                est_m.within(exact.manhattan, 5.0),
                "{kind}: {est_m:?} vs {exact:?}"
            );
        }
    }

    /// `(mean bits, std_error bits, samples)` of a seeded estimate.
    fn estimate_bits<const D: usize>(kind: CurveKind, k: u32, seed: u64) -> (u64, u64, u64) {
        let c = kind.build::<D>(k).unwrap();
        let e = estimate_all_pairs_manhattan(&c, 2_500, &mut rng(seed));
        (e.mean.to_bits(), e.std_error.to_bits(), e.samples)
    }

    #[test]
    fn all_pairs_estimates_are_pinned_bit_for_bit() {
        // 2 500 samples: two full chunks and a partial one. The grids
        // cover each way a pair is drawn and a ratio formed: one word per
        // cell with a 64-bit ratio (d=2 k=20, d=3 k=21), one word per cell
        // with a 128-bit ratio (d=2 k=32), one word per coordinate
        // (d=3 k=22), and a 2×2 grid where a redraw is frequent.
        let got = [
            estimate_bits::<2>(CurveKind::Hilbert, 20, 41),
            estimate_bits::<2>(CurveKind::Z, 20, 42),
            estimate_bits::<2>(CurveKind::Simple, 20, 43),
            estimate_bits::<2>(CurveKind::Hilbert, 32, 44),
            estimate_bits::<2>(CurveKind::Z, 32, 45),
            estimate_bits::<3>(CurveKind::Hilbert, 21, 46),
            estimate_bits::<3>(CurveKind::Z, 21, 47),
            estimate_bits::<3>(CurveKind::Hilbert, 22, 48),
            estimate_bits::<3>(CurveKind::Z, 22, 49),
            estimate_bits::<2>(CurveKind::Hilbert, 1, 50),
            estimate_bits::<2>(CurveKind::Z, 1, 51),
        ];
        let want = [
            (0x4120_c61b_1739_4358, 0x40c2_c44e_3ff1_bbb0, 2500),
            (0x4120_6ea8_3f1a_1a93, 0x40ba_ee0c_215a_988a, 2500),
            (0x4120_2e08_5d90_352f, 0x40b5_6dea_e708_a15a, 2500),
            (0x41e0_cdb2_e3a1_9881, 0x4186_55d6_3852_3e73, 2500),
            (0x41e0_6a6c_996f_077a, 0x417c_e7dc_2dd4_8b5a, 2500),
            (0x4276_bd34_71f9_4e51, 0x4219_5803_ed2f_31da, 2500),
            (0x4275_536b_79cb_459c, 0x4214_1405_1825_69d5, 2500),
            (0x4296_27a8_fba2_b38d, 0x4238_e0cc_b2f4_5cfb, 2500),
            (0x4296_78a4_e527_81da, 0x4237_c828_d0fa_9d18, 2500),
            (0x3ff4_faac_d9e8_3e42, 0x3f8d_b32f_f83c_2265, 2500),
            (0x3ff5_0b0f_27bb_2fec, 0x3f86_aa0f_74a7_8ac5, 2500),
        ];
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "one-cell grid")]
    fn all_pairs_estimate_on_a_one_cell_grid_panics() {
        let c = CurveKind::Hilbert.build::<2>(0).unwrap();
        estimate_all_pairs_manhattan(&c, 1, &mut rng(8));
    }

    #[test]
    fn estimators_scale_to_huge_grids_simple_curve() {
        // n = 2^52 — far beyond enumeration. The simple curve's δ^avg is
        // *constant* on interior cells ((n−1)/(d(side−1)), Theorem 3 proof),
        // and boundary cells are a 2^{−25}-fraction of the universe, so a
        // modest sample nails D^avg(S) to high accuracy.
        use sfc_core::SimpleCurve;
        let s = SimpleCurve::<2>::new(26).unwrap();
        let est = estimate_d_avg(&s, 4_000, &mut rng(5));
        let (num, den) = crate::bounds::thm3_simple_interior_delta_avg(26, 2);
        let interior = num as f64 / den as f64;
        assert!(
            (est.mean - interior).abs() / interior < 1e-3,
            "est {} vs interior value {interior}",
            est.mean
        );
    }

    #[test]
    fn z_curve_sampling_underestimates_heavy_tail() {
        // Cautionary behaviour, documented for users: the per-cell δ^avg of
        // the Z curve is heavy-tailed (the mean is carried by coordinates
        // with long carry chains, probability ~2^{−j} for contribution
        // ~2^{jd−i}), so a naive cell sample of m ≪ 2^k cells almost surely
        // *under*-estimates D^avg. The estimator stays unbiased — its
        // variance is the problem.
        let z = ZCurve::<2>::new(26).unwrap();
        let est = estimate_d_avg(&z, 2_000, &mut rng(5));
        let asym = crate::bounds::nn_stretch_asymptote(26, 2);
        assert!(
            est.mean < 0.5 * asym,
            "with 2k samples the heavy tail should be missed: {} vs {asym}",
            est.mean
        );
    }

    #[test]
    fn every_curve_kind_is_estimable() {
        for kind in CurveKind::ALL {
            let c = kind.build::<3>(4).unwrap();
            let est = estimate_d_avg(&c, 500, &mut rng(6));
            assert!(est.mean >= 1.0, "{kind}: mean {}", est.mean);
            assert_eq!(est.samples, 500);
        }
    }

    #[test]
    fn stratified_estimator_is_exact_for_z() {
        // Within every stratum the Z curve's edge distance is constant, so
        // the stratified mean equals the exact mean with zero variance.
        for k in [3u32, 6, 10] {
            let z = ZCurve::<2>::new(k).unwrap();
            let est = estimate_edge_mean_stratified(&z, 4, &mut rng(31));
            if k <= 6 {
                let exact = exact_edge_mean(&z);
                assert!(
                    (est.mean - exact).abs() < 1e-9,
                    "k={k}: {} vs {exact}",
                    est.mean
                );
            }
            assert!(est.std_error < 1e-9, "k={k}: σ = {}", est.std_error);
        }
        let z3 = ZCurve::<3>::new(4).unwrap();
        let est = estimate_edge_mean_stratified(&z3, 4, &mut rng(32));
        assert!((est.mean - exact_edge_mean(&z3)).abs() < 1e-9);
    }

    #[test]
    fn stratified_beats_naive_on_huge_z_grids() {
        // The failure mode documented in `z_curve_sampling_underestimates_
        // heavy_tail`, repaired: on n = 2^52 the stratified estimate hits
        // the Theorem-2 asymptote; naive sampling with the same budget is
        // off by orders of magnitude.
        let z = ZCurve::<2>::new(26).unwrap();
        let est = estimate_edge_mean_stratified(&z, 40, &mut rng(33));
        let asym = crate::bounds::nn_stretch_asymptote(26, 2);
        assert!(
            (est.mean - asym).abs() / asym < 1e-6,
            "stratified {} vs asymptote {asym}",
            est.mean
        );
    }

    #[test]
    fn stratified_estimator_is_consistent_for_other_curves() {
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(5).unwrap();
            let exact = exact_edge_mean(&c);
            let est = estimate_edge_mean_stratified(&c, 400, &mut rng(34));
            assert!(
                est.within(exact, 6.0) || (est.mean - exact).abs() / exact < 0.05,
                "{kind}: est {:?} vs exact {exact}",
                est
            );
        }
    }

    #[test]
    #[should_panic(expected = "samples per stratum")]
    fn stratified_requires_two_samples() {
        let z = ZCurve::<2>::new(3).unwrap();
        estimate_edge_mean_stratified(&z, 1, &mut rng(35));
    }
}
