//! All-pairs stretch metrics (paper, Section V.B) and the universal pair
//! sum `S_{A'}` (Lemma 2).
//!
//! * `str^{avg,M}(π) = (2/n(n−1)) Σ_{(α,β)∈A} Δπ(α,β)/Δ(α,β)` — Manhattan.
//! * `str^{avg,E}(π)` — the same with the Euclidean metric in the
//!   denominator.
//! * `S_{A'}(π) = Σ_{(α,β)∈A'} Δπ(α,β)` — Lemma 2 proves this equals
//!   `(n−1)n(n+1)/3` for **every** bijection; measuring it is therefore a
//!   strong self-test of any curve implementation.
//!
//! # Offset grouping
//!
//! Both grid distances of a pair depend only on its **offset vector**
//! `δ = β − α`, so the `O(n²)` pairs are enumerated by offset: every `δ`
//! whose highest non-zero component is positive (each unordered pair
//! exactly once), and for each the box of base cells `α` with `α + δ` in
//! the grid. The curve is evaluated once per cell, by one batched encode
//! into a row-major `u32` table (`n ≤ 2^17` keeps every index in range);
//! the sum `S_δ` and maximum `M_δ` of `|π(α) − π(α+δ)|` over the box are a
//! pure-integer loop over pairs of row slices of that table. Floating point
//! enters once per offset — `O(side^d)` divisions and square roots where a
//! per-pair loop pays `O(n²)`:
//!
//! * `Σ_δ S_δ/Δ(δ)` and `Σ_δ S_δ/Δ_E(δ)` give the two averages. Every
//!   `S_δ < 2^53` converts to `f64` exactly, so each term is the correctly
//!   rounded share of its offset; a per-pair accumulation rounds once per
//!   pair instead, and the two agree to within last-place rounding of the
//!   sums (the differential tests allow `1e-12` relative).
//! * `max_δ M_δ/Δ(δ)` (and the Euclidean twin) are **bit-identical** to the
//!   per-pair maxima: `x ↦ fl(x/Δ)` is monotone, so the largest distance
//!   of an offset gives its largest ratio.
//! * `S_{A'} = 2·Σ_δ S_δ` is an integer sum, exact.
//!
//! There is no parallel driver: measured on two cores (Z, `d=2`), a
//! Rayon fan-out over the offsets ran at 0.04× / 0.23–0.30× / 0.87–1.09×
//! of this kernel at `k = 3 / 4 / 5` — every size a caller runs — and
//! 1.03–1.76× at `k = 6` (`docs/perf/PR-25.md`). For larger grids use the
//! Monte-Carlo estimators in [`crate::sampling`].

use sfc_core::{Point, SpaceFillingCurve};

/// Exact all-pairs stretch values of a curve.
#[derive(Debug, Clone, PartialEq)]
pub struct AllPairsStretch {
    /// Curve name (for reports).
    pub curve: String,
    /// Number of cells.
    pub n: u128,
    /// `str^{avg,M}(π)`: average stretch under the Manhattan metric (`0` on
    /// a one-cell grid, which has no pairs).
    pub manhattan: f64,
    /// `str^{avg,E}(π)`: average stretch under the Euclidean metric.
    pub euclidean: f64,
    /// `max_{(α,β)} Δπ/Δ` — the per-pair Manhattan ratio bounded by
    /// Lemma 7 for the simple curve.
    pub max_ratio_manhattan: f64,
    /// `max_{(α,β)} Δπ/Δ_E` — the per-pair Euclidean ratio.
    pub max_ratio_euclidean: f64,
    /// Measured `S_{A'}(π) = Σ_{ordered pairs} Δπ` (Lemma 2 says this is
    /// `(n−1)n(n+1)/3` regardless of the curve).
    pub sa_prime: u128,
}

/// Largest grid the exact pair enumeration accepts; also what lets the
/// index table be `u32`.
const MAX_ENUMERABLE: u128 = 1 << 17;

/// The curve index of every cell in row-major rank order, from one batched
/// encode ([`SpaceFillingCurve::index_of_batch`]), so the pair loop
/// performs no curve evaluations.
///
/// Guard: exact all-pairs work is `O(n²)`; refuse absurd sizes loudly.
fn index_table<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> Vec<u32> {
    let n = curve.grid().n();
    assert!(
        n <= MAX_ENUMERABLE,
        "exact all-pairs stretch is O(n²); n = {n} is too large — use sampling::estimate_all_pairs"
    );
    let cells: Vec<Point<D>> = curve.grid().cells().collect();
    let mut indices = Vec::new();
    curve.index_of_batch(&cells, &mut indices);
    indices
        .into_iter()
        .map(|idx| u32::try_from(idx).expect("a curve index is below n ≤ 2^17"))
        .collect()
}

/// An offset vector `δ` of the grid, one component per axis.
type Offset<const D: usize> = [i64; D];

/// The offsets are numbered in the mixed-radix order of
/// `{−(side−1), …, side−1}^D`, axis 0 least significant. The zero vector
/// sits in the middle, at `zero_offset`, and the numbers above it are
/// exactly the vectors whose highest non-zero component is positive.
fn zero_offset<const D: usize>(side: u64) -> u64 {
    ((2 * side - 1).pow(D as u32) - 1) / 2
}

fn offset_numbered<const D: usize>(side: u64, mut number: u64) -> Offset<D> {
    let radix = 2 * side - 1;
    let mut delta = [0; D];
    for component in &mut delta {
        *component = (number % radix) as i64 - (side as i64 - 1);
        number /= radix;
    }
    delta
}

/// `(S_δ, M_δ)`: the sum and the maximum of `|π(α) − π(α+δ)|` over every
/// base cell `α` with `α + δ` in the grid of side `2^k`.
fn offset_sums<const D: usize>(table: &[u32], k: u32, delta: Offset<D>) -> (u64, u32) {
    let side = 1i64 << k;
    // Base cells span `lo[a] .. lo[a] + len[a]` along axis `a`; `α + δ` is
    // `shift` ranks away from `α`.
    let lo = delta.map(|c| (-c).max(0) as usize);
    let len = delta.map(|c| (side - c.abs()) as usize);
    let shift: i64 = (0..D).map(|axis| delta[axis] << (k as usize * axis)).sum();
    let rank = |alpha: [usize; D]| -> usize {
        (0..D).map(|axis| alpha[axis] << (k as usize * axis)).sum()
    };
    let (mut sum, mut max) = (0u64, 0u32);
    let mut alpha = lo;
    loop {
        // One row of the box: `len[0]` cells along axis 0 against the row
        // `shift` away.
        let base = rank(alpha);
        let from = &table[base..base + len[0]];
        let to = &table[(base as i64 + shift) as usize..][..len[0]];
        for (&a, &b) in from.iter().zip(to) {
            let dist = a.abs_diff(b);
            sum += u64::from(dist);
            max = max.max(dist);
        }
        // Odometer over the remaining axes.
        let mut axis = 1;
        loop {
            if axis >= D {
                return (sum, max);
            }
            alpha[axis] += 1;
            if alpha[axis] < lo[axis] + len[axis] {
                break;
            }
            alpha[axis] = lo[axis];
            axis += 1;
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PairAccum {
    manhattan_sum: f64,
    euclidean_sum: f64,
    max_ratio_m: f64,
    max_ratio_e: f64,
    curve_dist_sum: u128,
}

impl PairAccum {
    /// Adds every pair at offset `delta`.
    fn add_offset<const D: usize>(mut self, table: &[u32], k: u32, delta: Offset<D>) -> Self {
        let (sum, max) = offset_sums(table, k, delta);
        // `Δ(δ)` and `Δ_E(δ)`, the latter rounded as `Point::euclidean` does.
        let man = delta.iter().map(|c| c.abs()).sum::<i64>() as f64;
        let euc = (delta.iter().map(|c| c * c).sum::<i64>() as f64).sqrt();
        self.manhattan_sum += sum as f64 / man;
        self.euclidean_sum += sum as f64 / euc;
        self.max_ratio_m = self.max_ratio_m.max(f64::from(max) / man);
        self.max_ratio_e = self.max_ratio_e.max(f64::from(max) / euc);
        self.curve_dist_sum += u128::from(sum);
        self
    }
}

fn finish<const D: usize, C: SpaceFillingCurve<D>>(curve: &C, acc: PairAccum) -> AllPairsStretch {
    let n = curve.grid().n();
    // A one-cell grid has no pairs and empty sums: the averages are 0.
    let pairs = (n * (n - 1) / 2).max(1) as f64;
    AllPairsStretch {
        curve: curve.name(),
        n,
        manhattan: acc.manhattan_sum / pairs,
        euclidean: acc.euclidean_sum / pairs,
        max_ratio_manhattan: acc.max_ratio_m,
        max_ratio_euclidean: acc.max_ratio_e,
        // Unordered sum doubled = ordered sum.
        sa_prime: acc.curve_dist_sum * 2,
    }
}

/// Exact all-pairs stretch. Cost `O(n²)` integer operations and
/// `O(side^d)` floating-point ones (see the module docs).
pub fn all_pairs_exact<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> AllPairsStretch {
    let table = index_table(curve);
    let (k, zero) = (curve.grid().k(), zero_offset::<D>(curve.grid().side()));
    let acc = (zero + 1..=2 * zero).fold(PairAccum::default(), |acc, number| {
        acc.add_offset(&table, k, offset_numbered::<D>(1 << k, number))
    });
    finish(curve, acc)
}

/// Measured `S_{A'}(π) = Σ_{(α,β)∈A'} Δπ(α,β)` alone, in `O(n log n)`:
/// with the indices sorted ascending, `a_(0) ≤ … ≤ a_(n−1)`,
/// `Σ_{i<j} |a_i − a_j| = Σ_i (2i − n + 1)·a_(i)`.
///
/// Not subject to the `O(n²)` size guard of the stretch functions; the
/// index table costs 16 bytes per cell.
pub fn sa_prime_sum<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> u128 {
    /// Cells per batched encode.
    const BATCH: usize = 1 << 16;
    let n = curve.grid().n();
    let mut indices = Vec::with_capacity(usize::try_from(n).expect("grid too large to enumerate"));
    let mut cells = curve.grid().cells();
    let (mut batch, mut encoded) = (Vec::with_capacity(BATCH), Vec::new());
    loop {
        batch.clear();
        batch.extend(cells.by_ref().take(BATCH));
        if batch.is_empty() {
            break;
        }
        curve.index_of_batch(&batch, &mut encoded);
        indices.extend_from_slice(&encoded);
    }
    indices.sort_unstable();
    // Σ_i (2i − n + 1)·a_(i), the positive and the negative part apart.
    let weighted: u128 = (0u128..).zip(&indices).map(|(i, &a)| 2 * i * a).sum();
    let plain: u128 = indices.iter().sum();
    (weighted - (n - 1) * plain) * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use rand::SeedableRng;
    use sfc_core::{CurveKind, Grid, PermutationCurve, SimpleCurve};

    #[test]
    fn lemma2_sa_prime_is_curve_independent() {
        // Every curve family and random bijections all produce exactly
        // (n−1)n(n+1)/3.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(2).unwrap();
            let expected = bounds::lemma2_sa_prime(16);
            assert_eq!(sa_prime_sum(&c), expected, "{kind}");
            assert_eq!(all_pairs_exact(&c).sa_prime, expected, "{kind}");
        }
        let grid = Grid::<2>::new(2).unwrap();
        for _ in 0..5 {
            let c = PermutationCurve::random(grid, &mut rng).unwrap();
            assert_eq!(sa_prime_sum(&c), bounds::lemma2_sa_prime(16));
        }
    }

    #[test]
    fn lemma2_holds_past_the_pair_enumeration_guard() {
        // n = 2^20: refused by the O(n²) functions, 20 sorts' worth of work
        // for the O(n log n) sum.
        let expected = bounds::lemma2_sa_prime(1 << 20);
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(10).unwrap();
            assert_eq!(sa_prime_sum(&c), expected, "{kind}");
        }
    }

    #[test]
    fn sa_prime_sum_of_a_non_bijection_is_still_the_pair_sum() {
        // Indices {0, 0, 3, 3}: ordered pair sum 2·(0+3+3+3+3+0) = 24 — the
        // sorted-sum identity needs no distinctness, so a broken curve
        // shows up as a Lemma 2 mismatch, not as a wrong-but-plausible sum.
        struct Broken;
        impl SpaceFillingCurve<2> for Broken {
            fn grid(&self) -> Grid<2> {
                Grid::new(1).unwrap()
            }
            fn index_of(&self, p: Point<2>) -> u128 {
                u128::from(p.coord(1)) * 3
            }
            fn point_of(&self, _: u128) -> Point<2> {
                unimplemented!("not a bijection")
            }
        }
        assert_eq!(sa_prime_sum(&Broken), 24);
    }

    #[test]
    fn one_cell_grid_has_no_pairs_and_zero_averages() {
        fn check<const D: usize>() {
            let c = CurveKind::Hilbert.build::<D>(0).unwrap();
            let s = all_pairs_exact(&c);
            assert_eq!((s.n, s.sa_prime), (1, 0));
            assert_eq!((s.manhattan, s.euclidean), (0.0, 0.0), "d={D}");
            assert_eq!((s.max_ratio_manhattan, s.max_ratio_euclidean), (0.0, 0.0));
            assert_eq!(sa_prime_sum(&c), 0);
        }
        check::<1>();
        check::<2>();
        check::<3>();
    }

    #[test]
    fn offsets_above_zero_are_each_unordered_pair_once() {
        // side 4, d = 2: 7² = 49 vectors, the zero vector is number 24, and
        // the 24 above it pair off with the 24 below it by negation.
        assert_eq!(zero_offset::<2>(4), 24);
        assert_eq!(offset_numbered::<2>(4, 24), [0, 0]);
        for number in 25..=48 {
            let delta = offset_numbered::<2>(4, number);
            let top = delta.iter().rev().find(|&&c| c != 0).unwrap();
            assert!(*top > 0, "{delta:?}");
            assert_eq!(offset_numbered::<2>(4, 48 - number), delta.map(|c| -c));
        }
    }

    #[test]
    fn prop3_lower_bounds_hold_for_all_curves() {
        for kind in CurveKind::ALL {
            for k in 1..=2u32 {
                let c = kind.build::<2>(k).unwrap();
                let s = all_pairs_exact(&c);
                let lower_m = bounds::prop3_all_pairs_lower_manhattan(k, 2);
                let lower_e = bounds::prop3_all_pairs_lower_euclidean(k, 2);
                assert!(
                    s.manhattan >= lower_m - 1e-9,
                    "{kind} k={k}: str_M {} < {lower_m}",
                    s.manhattan
                );
                assert!(
                    s.euclidean >= lower_e - 1e-9,
                    "{kind} k={k}: str_E {} < {lower_e}",
                    s.euclidean
                );
            }
        }
    }

    #[test]
    fn prop4_upper_bounds_hold_for_simple_curve() {
        for k in 1..=3u32 {
            let s2 = all_pairs_exact(&SimpleCurve::<2>::new(k).unwrap());
            assert!(s2.manhattan <= bounds::prop4_all_pairs_upper_manhattan(k, 2) + 1e-9);
            assert!(s2.euclidean <= bounds::prop4_all_pairs_upper_euclidean(k, 2) + 1e-9);
        }
        let s3 = all_pairs_exact(&SimpleCurve::<3>::new(1).unwrap());
        assert!(s3.manhattan <= bounds::prop4_all_pairs_upper_manhattan(1, 3) + 1e-9);
        assert!(s3.euclidean <= bounds::prop4_all_pairs_upper_euclidean(1, 3) + 1e-9);
    }

    #[test]
    fn lemma7_per_pair_ratio_bound_for_simple_curve() {
        // Lemma 7: Δ_S/Δ ≤ n^{1−1/d} and Δ_S/Δ_E ≤ √2·n^{1−1/d} for every
        // pair — so the maxima obey the same bounds.
        for k in 1..=3u32 {
            let s = all_pairs_exact(&SimpleCurve::<2>::new(k).unwrap());
            let cap = bounds::n_pow_1_minus_1_over_d(k, 2) as f64;
            assert!(s.max_ratio_manhattan <= cap + 1e-9, "k={k}");
            assert!(
                s.max_ratio_euclidean <= std::f64::consts::SQRT_2 * cap + 1e-9,
                "k={k}"
            );
        }
    }

    #[test]
    fn euclidean_stretch_at_least_manhattan_stretch() {
        // Δ_E ≤ Δ pointwise, so Δπ/Δ_E ≥ Δπ/Δ and the averages order the
        // same way.
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(2).unwrap();
            let s = all_pairs_exact(&c);
            assert!(s.euclidean >= s.manhattan - 1e-12, "{kind}");
        }
    }

    #[test]
    fn two_by_two_hand_computation() {
        // On the 2×2 grid with π₁ (order C,A,B,D): pairs and their Δπ/Δ:
        // A-C: |1-0|/1 = 1;  A-D: |1-3|/1 = 2;  A-B: |1-2|/2 = 0.5
        // C-D: |0-3|/2 = 1.5; C-B: |0-2|/1 = 2;  B-D: |2-3|/1 = 1
        // mean = (1 + 2 + 0.5 + 1.5 + 2 + 1)/6 = 8/6.
        let pi1 = PermutationCurve::figure1_pi1();
        let s = all_pairs_exact(&pi1);
        assert!((s.manhattan - 8.0 / 6.0).abs() < 1e-12, "{}", s.manhattan);
        // Euclidean: diagonal pairs have Δ_E = √2:
        // (1 + 2 + 1/√2 + 3/√2 + 2 + 1)/6.
        let expected_e = (1.0 + 2.0 + 1.0 / 2f64.sqrt() + 3.0 / 2f64.sqrt() + 2.0 + 1.0) / 6.0;
        assert!((s.euclidean - expected_e).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_exact_computation_is_rejected() {
        let c = CurveKind::Z.build::<2>(10).unwrap(); // n = 2^20
        let _ = all_pairs_exact(&c);
    }
}
