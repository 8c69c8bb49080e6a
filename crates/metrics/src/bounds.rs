//! Closed-form bounds and asymptotics from the paper.
//!
//! Every theorem, lemma and proposition with a numeric content gets a
//! function here; the experiment harness compares *measured* metric values
//! against these targets. Wherever the paper's quantity is an exact integer
//! (e.g. `S_{A'}` or `D^max(S)`) the function returns exact integer
//! arithmetic; asymptotic targets are `f64`.
//!
//! All functions take the grid parameters `(k, d)` — side `2^k`,
//! `n = 2^{kd}` — so that powers like `n^{1−1/d} = side^{d−1}` are computed
//! exactly instead of through floating-point roots.

/// Number of cells `n = 2^{kd}`.
#[inline]
pub fn n_cells(k: u32, d: usize) -> u128 {
    1u128 << (k as usize * d)
}

/// `n^{1−1/d} = side^{d−1} = 2^{k(d−1)}`, exactly.
#[inline]
pub fn n_pow_1_minus_1_over_d(k: u32, d: usize) -> u128 {
    1u128 << (k as usize * (d - 1))
}

/// **Theorem 1**: for any SFC `π` on the `d`-dimensional universe with `n`
/// cells, `D^avg(π) ≥ (2/3d)(n^{1−1/d} − n^{−1−1/d})`.
pub fn thm1_nn_stretch_lower_bound(k: u32, d: usize) -> f64 {
    let n = n_cells(k, d) as f64;
    let d_f = d as f64;
    (2.0 / (3.0 * d_f)) * (n.powf(1.0 - 1.0 / d_f) - n.powf(-1.0 - 1.0 / d_f))
}

/// **Theorems 2 & 3**: the asymptotic average-average NN-stretch of both
/// the Z curve and the simple curve, `(1/d)·n^{1−1/d}`.
pub fn nn_stretch_asymptote(k: u32, d: usize) -> f64 {
    n_pow_1_minus_1_over_d(k, d) as f64 / d as f64
}

/// **Proposition 2**: the average-maximum NN-stretch of the simple curve is
/// exactly `n^{1−1/d}` (an exact integer).
#[inline]
pub fn prop2_dmax_simple_exact(k: u32, d: usize) -> u128 {
    n_pow_1_minus_1_over_d(k, d)
}

/// **Lemma 2**: for *any* SFC, the ordered-pair curve-distance sum is
/// `S_{A'}(π) = (n−1)·n·(n+1)/3`, independent of the curve.
///
/// # Panics
/// Panics if the product overflows `u128` (requires roughly `n < 2^42`).
pub fn lemma2_sa_prime(n: u128) -> u128 {
    // n³ grows fast; stay exact and loud rather than silently wrapping.
    let prod = (n - 1)
        .checked_mul(n)
        .and_then(|x| x.checked_mul(n + 1))
        .expect("S_A' overflows u128; use a smaller grid");
    prod / 3
}

/// **Lemma 4**: each nearest-neighbor edge `(ζ, η)` differing along the
/// paper's dimension `i` with lower coordinate `c = ζ_i` appears in exactly
/// `2 · side^{d−1} · (c+1) · (side−1−c)` decompositions `p(α, β)` of ordered
/// pairs. (The paper rounds this to `2·side^{d−1}·ζ_i·(side−ζ_i)` before
/// bounding; the exact count is what brute-force enumeration measures.)
pub fn lemma4_edge_multiplicity_exact(k: u32, d: usize, c: u64) -> u128 {
    let side = 1u128 << k;
    let c = c as u128;
    debug_assert!(c + 1 < side);
    2 * (1u128 << (k as usize * (d - 1))) * (c + 1) * (side - 1 - c)
}

/// **Lemma 4** (bound form): the maximum multiplicity is at most
/// `½·n^{(d+1)/d} = side^{d+1}/2`, exactly.
pub fn lemma4_multiplicity_bound(k: u32, d: usize) -> u128 {
    1u128 << (k as usize * (d + 1)).saturating_sub(1)
}

/// **Proposition 3** (Manhattan): for any SFC,
/// `str^{avg,M}(π) ≥ (1/3d)·(n+1)/(n^{1/d}−1)`.
pub fn prop3_all_pairs_lower_manhattan(k: u32, d: usize) -> f64 {
    let n = n_cells(k, d) as f64;
    let side = (1u128 << k) as f64;
    (n + 1.0) / (3.0 * d as f64 * (side - 1.0))
}

/// **Proposition 3** (Euclidean): for any SFC,
/// `str^{avg,E}(π) ≥ (1/3√d)·(n+1)/(n^{1/d}−1)`.
pub fn prop3_all_pairs_lower_euclidean(k: u32, d: usize) -> f64 {
    let n = n_cells(k, d) as f64;
    let side = (1u128 << k) as f64;
    (n + 1.0) / (3.0 * (d as f64).sqrt() * (side - 1.0))
}

/// **Proposition 4** (Manhattan): the simple curve satisfies
/// `str^{avg,M}(S) ≤ n^{1−1/d}`.
pub fn prop4_all_pairs_upper_manhattan(k: u32, d: usize) -> f64 {
    n_pow_1_minus_1_over_d(k, d) as f64
}

/// **Proposition 4** (Euclidean): the simple curve satisfies
/// `str^{avg,E}(S) ≤ √2·n^{1−1/d}`.
pub fn prop4_all_pairs_upper_euclidean(k: u32, d: usize) -> f64 {
    std::f64::consts::SQRT_2 * n_pow_1_minus_1_over_d(k, d) as f64
}

/// **Theorem 3** (proof): the exact `δ^avg_S(α)` of every *interior* cell of
/// the simple curve: `(1/d)·(n−1)/(n^{1/d}−1) = (1/d)·Σ_{ℓ=0}^{d−1} side^ℓ`.
///
/// Returned as an exact pair `(numerator, denominator)` with
/// `numerator = Σ_ℓ side^ℓ` and `denominator = d`.
pub fn thm3_simple_interior_delta_avg(k: u32, d: usize) -> (u128, u128) {
    let mut sum = 0u128;
    for l in 0..d {
        sum += 1u128 << (k as usize * l);
    }
    (sum, d as u128)
}

/// **Lemma 5** (limit): `lim_{n→∞} Λ_i(Z)/n^{2−1/d} = 2^{d−i}/(2^d − 1)`
/// for the paper's dimension index `1 ≤ i ≤ d`.
pub fn lemma5_lambda_limit(d: usize, i: usize) -> f64 {
    debug_assert!((1..=d).contains(&i));
    (1u128 << (d - i)) as f64 / ((1u128 << d) - 1) as f64
}

/// Lower bound of **Lemma 3**: `D^avg(π) ≥ (1/nd)·Σ_{NN_d} Δπ`.
pub fn lemma3_lower(edge_sum: u128, n: u128, d: usize) -> f64 {
    edge_sum as f64 / (n as f64 * d as f64)
}

/// Upper bound of **Lemma 3**: `D^avg(π) ≤ (2/nd)·Σ_{NN_d} Δπ`.
pub fn lemma3_upper(edge_sum: u128, n: u128, d: usize) -> f64 {
    2.0 * edge_sum as f64 / (n as f64 * d as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_cells_and_powers() {
        assert_eq!(n_cells(3, 2), 64);
        assert_eq!(n_cells(2, 3), 64);
        assert_eq!(n_pow_1_minus_1_over_d(3, 2), 8); // 64^{1/2}
        assert_eq!(n_pow_1_minus_1_over_d(2, 3), 16); // 64^{2/3}
        assert_eq!(n_pow_1_minus_1_over_d(5, 1), 1); // d = 1: n^0
    }

    #[test]
    fn thm1_bound_matches_hand_computation() {
        // d = 2, k = 3: n = 64. Bound = (2/6)(64^{1/2} − 64^{−3/2})
        //             = (1/3)(8 − 1/512).
        let expected = (8.0 - 1.0 / 512.0) / 3.0;
        assert!((thm1_nn_stretch_lower_bound(3, 2) - expected).abs() < 1e-12);
        // d = 1: bound = (2/3)(1 − n^{−2}); with k = 4, n = 16.
        let expected1 = (2.0 / 3.0) * (1.0 - 1.0 / 256.0);
        assert!((thm1_nn_stretch_lower_bound(4, 1) - expected1).abs() < 1e-12);
    }

    #[test]
    fn asymptote_is_1point5_times_limit_bound() {
        // As n → ∞ the Thm 1 bound tends to (2/3d)·n^{1−1/d} and the Z/simple
        // stretch to (1/d)·n^{1−1/d}; the ratio is exactly 1.5.
        for d in 1..=4usize {
            let k = 20 / d as u32;
            let asym = nn_stretch_asymptote(k, d);
            let limit_bound = (2.0 / (3.0 * d as f64)) * n_pow_1_minus_1_over_d(k, d) as f64;
            // The paper's headline: Z is within 3/2 of optimal.
            assert!(((asym / limit_bound) - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn lemma2_small_values() {
        // n = 4: Σ over ordered pairs of |i − j| for i,j in 0..4 is 20·... by
        // formula (3·4·5)/3 = 20.
        assert_eq!(lemma2_sa_prime(4), 20);
        // Brute force for several n.
        for n in 1u128..=32 {
            let mut brute = 0u128;
            for i in 0..n {
                for j in 0..n {
                    brute += i.abs_diff(j);
                }
            }
            assert_eq!(lemma2_sa_prime(n), brute, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn lemma2_overflow_is_loud() {
        lemma2_sa_prime(1u128 << 60);
    }

    #[test]
    fn lemma4_multiplicity_peaks_at_center_and_respects_bound() {
        let k = 3; // side 8
        let d = 2;
        let bound = lemma4_multiplicity_bound(k, d); // 8³/2 = 256
        assert_eq!(bound, 256);
        let mut max_seen = 0;
        for c in 0..7u64 {
            let m = lemma4_edge_multiplicity_exact(k, d, c);
            assert!(m <= bound, "c = {c}: {m} > {bound}");
            max_seen = max_seen.max(m);
        }
        // Peak at c = 3: 2·8·4·4 = 256 — the bound is tight on this grid.
        assert_eq!(max_seen, 256);
        assert_eq!(lemma4_edge_multiplicity_exact(k, d, 3), 256);
    }

    #[test]
    fn prop3_bounds_euclidean_ge_manhattan() {
        // 1/(3√d) ≥ 1/(3d) for d ≥ 1, so the Euclidean lower bound is the
        // larger of the two.
        for d in 1..=4usize {
            let k = 2;
            assert!(
                prop3_all_pairs_lower_euclidean(k, d)
                    >= prop3_all_pairs_lower_manhattan(k, d) - 1e-12
            );
        }
    }

    #[test]
    fn prop4_euclidean_is_sqrt2_times_manhattan() {
        let m = prop4_all_pairs_upper_manhattan(3, 2);
        let e = prop4_all_pairs_upper_euclidean(3, 2);
        assert!((e / m - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn thm3_interior_delta_avg_geometric_sum() {
        // d = 3, side = 4: Σ_ℓ 4^ℓ = 1 + 4 + 16 = 21, denominator 3.
        assert_eq!(thm3_simple_interior_delta_avg(2, 3), (21, 3));
        // Equals (n−1)/(side−1): (64−1)/(4−1) = 21. Cross-check.
        assert_eq!((n_cells(2, 3) - 1) / ((1 << 2) - 1), 21);
    }

    #[test]
    fn lemma5_limits_sum_to_one() {
        // Σ_{i=1}^{d} 2^{d−i}/(2^d−1) = (2^d−1)/(2^d−1) = 1 — used in the
        // proof of Theorem 2 (h₁ limit).
        for d in 1..=6usize {
            let sum: f64 = (1..=d).map(|i| lemma5_lambda_limit(d, i)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "d = {d}: {sum}");
        }
    }

    #[test]
    fn lemma3_bounds_bracket() {
        let edge_sum = 1000u128;
        let lo = lemma3_lower(edge_sum, 64, 2);
        let hi = lemma3_upper(edge_sum, 64, 2);
        assert!((hi / lo - 2.0).abs() < 1e-12);
    }
}
