//! Numerical validation of every theorem, lemma and proposition.

use rand::SeedableRng;
use sfc_core::{CurveKind, Grid, PermutationCurve, SimpleCurve, SpaceFillingCurve, ZCurve};
use sfc_metrics::all_pairs::all_pairs_exact;
use sfc_metrics::bounds;
use sfc_metrics::nn_stretch::{summarize_par, NnStretchSummary};
use sfc_metrics::report::{fmt_f64, fmt_ratio, fmt_u128, Table};

fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// Summaries for all five analytic curve families in dimension `D`.
fn curve_summaries<const D: usize>(k: u32) -> Vec<NnStretchSummary> {
    CurveKind::ALL
        .iter()
        .map(|kind| {
            let c = kind.build::<D>(k).expect("valid grid");
            summarize_par(&c)
        })
        .collect()
}

/// **Theorem 1.** For every analytic curve family, several random
/// bijections, and d = 1..4, verify `D^avg ≥ (2/3d)(n^{1−1/d} − n^{−1−1/d})`.
pub fn thm1() -> Vec<Table> {
    let mut table = Table::new(
        "Theorem 1: measured D^avg vs the universal lower bound",
        &["d", "k", "n", "curve", "D^avg", "lower bound", "ratio"],
    );
    fn rows<const D: usize>(table: &mut Table, ks: &[u32]) {
        for &k in ks {
            let bound = bounds::thm1_nn_stretch_lower_bound(k, D);
            for s in curve_summaries::<D>(k) {
                assert!(
                    s.d_avg() >= bound - 1e-9,
                    "violation: {} d={D} k={k}",
                    s.curve
                );
                table.push_row(vec![
                    D.to_string(),
                    k.to_string(),
                    fmt_u128(s.n),
                    s.curve.clone(),
                    fmt_f64(s.d_avg(), 4),
                    fmt_f64(bound, 4),
                    fmt_ratio(s.d_avg() / bound),
                ]);
            }
        }
    }
    rows::<1>(&mut table, &[6]);
    rows::<2>(&mut table, &[2, 4]);
    rows::<3>(&mut table, &[2]);
    rows::<4>(&mut table, &[1, 2]);
    rows::<5>(&mut table, &[1]);
    rows::<6>(&mut table, &[1]);

    // Random bijections probe the full class the bound quantifies over.
    let mut random = Table::new(
        "Theorem 1 on uniformly random bijections (d=2, k=3; 10 draws)",
        &["draw", "D^avg", "lower bound", "ratio"],
    );
    let grid = Grid::<2>::new(3).unwrap();
    let bound = bounds::thm1_nn_stretch_lower_bound(3, 2);
    let mut r = rng(2024);
    for draw in 0..10 {
        let c = PermutationCurve::random(grid, &mut r).unwrap();
        let s = sfc_metrics::nn_stretch::summarize(&c);
        assert!(s.d_avg() >= bound - 1e-9);
        random.push_row(vec![
            draw.to_string(),
            fmt_f64(s.d_avg(), 4),
            fmt_f64(bound, 4),
            fmt_ratio(s.d_avg() / bound),
        ]);
    }
    vec![table, random]
}

/// **Lemma 2.** `S_{A'}(π)` is the same for every bijection:
/// `(n−1)n(n+1)/3`.
pub fn lem2() -> Vec<Table> {
    let mut table = Table::new(
        "Lemma 2: measured S_A' vs (n−1)n(n+1)/3 (d=2, k=2, n=16)",
        &["curve", "measured", "formula", "equal"],
    );
    let formula = bounds::lemma2_sa_prime(16);
    let mut r = rng(7);
    let grid = Grid::<2>::new(2).unwrap();
    let mut curves: Vec<(String, Box<dyn SpaceFillingCurve<2>>)> = CurveKind::ALL
        .iter()
        .map(|kind| {
            (
                kind.name().to_string(),
                kind.build::<2>(2).unwrap() as Box<dyn SpaceFillingCurve<2>>,
            )
        })
        .collect();
    for i in 0..3 {
        curves.push((
            format!("random-{i}"),
            Box::new(PermutationCurve::random(grid, &mut r).unwrap()),
        ));
    }
    for (name, curve) in &curves {
        let measured = sfc_metrics::all_pairs::sa_prime_sum(&curve.as_ref());
        table.push_row(vec![
            name.clone(),
            fmt_u128(measured),
            fmt_u128(formula),
            (measured == formula).to_string(),
        ]);
        assert_eq!(measured, formula, "{name}");
    }
    vec![table]
}

/// **Lemma 4.** Census the multiplicity of every NN edge over all ordered
/// pairs; compare the maximum to the bound `½·n^{(d+1)/d}`.
pub fn lem4() -> Vec<Table> {
    let mut table = Table::new(
        "Lemma 4: max edge multiplicity in the NN decomposition vs bound",
        &[
            "d",
            "k",
            "max multiplicity (census)",
            "closed-form max",
            "bound ½·n^{(d+1)/d}",
        ],
    );
    fn row<const D: usize>(table: &mut Table, k: u32) {
        let grid = Grid::<D>::new(k).unwrap();
        let census = sfc_metrics::decomposition::edge_multiplicity_census(grid);
        let max_census = census.values().copied().max().unwrap_or(0);
        let max_closed = census
            .keys()
            .map(|e| sfc_metrics::decomposition::edge_multiplicity_closed_form(grid, e))
            .max()
            .unwrap_or(0);
        assert_eq!(max_census, max_closed);
        let bound = bounds::lemma4_multiplicity_bound(k, D);
        assert!(max_census <= bound);
        table.push_row(vec![
            D.to_string(),
            k.to_string(),
            fmt_u128(max_census),
            fmt_u128(max_closed),
            fmt_u128(bound),
        ]);
    }
    row::<2>(&mut table, 1);
    row::<2>(&mut table, 2);
    row::<2>(&mut table, 3);
    row::<3>(&mut table, 1);
    vec![table]
}

/// **Theorem 2.** Convergence of `d·D^avg(Z)/n^{1−1/d}` to 1.
pub fn thm2() -> Vec<Table> {
    let mut table = Table::new(
        "Theorem 2: D^avg(Z) vs the asymptote (1/d)·n^{1−1/d}",
        &["d", "k", "n", "D^avg(Z)", "asymptote", "normalized (→1)"],
    );
    fn rows<const D: usize>(table: &mut Table, ks: &[u32]) {
        for &k in ks {
            let z = ZCurve::<D>::new(k).unwrap();
            let s = summarize_par(&z);
            let asym = bounds::nn_stretch_asymptote(k, D);
            table.push_row(vec![
                D.to_string(),
                k.to_string(),
                fmt_u128(s.n),
                fmt_f64(s.d_avg(), 4),
                fmt_f64(asym, 4),
                fmt_ratio(s.d_avg() / asym),
            ]);
        }
    }
    rows::<2>(&mut table, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
    rows::<3>(&mut table, &[1, 2, 3, 4, 5]);
    rows::<4>(&mut table, &[1, 2, 3]);
    vec![table]
}

/// **Lemma 5.** `Λ_i(Z)/n^{2−1/d}` against its limit `2^{d−i}/(2^d−1)`,
/// with the measured, aggregated and closed-form values cross-checked.
pub fn lem5() -> Vec<Table> {
    let mut table = Table::new(
        "Lemma 5: normalized Λ_i(Z) vs limit 2^{d−i}/(2^d−1)",
        &["d", "i", "k", "Λ_i (closed form)", "normalized", "limit"],
    );
    fn rows<const D: usize>(table: &mut Table, ks: &[u32]) {
        for &k in ks {
            let z = ZCurve::<D>::new(k).unwrap();
            for i in 1..=D {
                let measured = sfc_metrics::lambda::lambda_measured(&z, i - 1);
                let closed = sfc_metrics::lambda::lambda_closed_form(k, D, i);
                assert_eq!(measured, closed, "d={D} k={k} i={i}");
                table.push_row(vec![
                    D.to_string(),
                    i.to_string(),
                    k.to_string(),
                    fmt_u128(closed),
                    fmt_f64(sfc_metrics::lambda::lambda_normalized(k, D, i), 6),
                    fmt_f64(bounds::lemma5_lambda_limit(D, i), 6),
                ]);
            }
        }
    }
    rows::<2>(&mut table, &[2, 4, 8, 12]);
    rows::<3>(&mut table, &[2, 4, 8]);
    vec![table]
}

/// **Theorem 3.** The simple curve's convergence to the same asymptote,
/// plus the exact interior-cell value from the proof.
pub fn thm3() -> Vec<Table> {
    let mut table = Table::new(
        "Theorem 3: D^avg(simple) vs the asymptote (1/d)·n^{1−1/d}",
        &[
            "d",
            "k",
            "D^avg(S)",
            "asymptote",
            "normalized (→1)",
            "interior δ^avg (exact)",
        ],
    );
    fn rows<const D: usize>(table: &mut Table, ks: &[u32]) {
        for &k in ks {
            let s = summarize_par(&SimpleCurve::<D>::new(k).unwrap());
            let asym = bounds::nn_stretch_asymptote(k, D);
            let (num, den) = bounds::thm3_simple_interior_delta_avg(k, D);
            table.push_row(vec![
                D.to_string(),
                k.to_string(),
                fmt_f64(s.d_avg(), 4),
                fmt_f64(asym, 4),
                fmt_ratio(s.d_avg() / asym),
                format!("{}/{}", fmt_u128(num), den),
            ]);
        }
    }
    rows::<2>(&mut table, &[1, 2, 4, 6, 8, 9]);
    rows::<3>(&mut table, &[1, 2, 3, 4, 5]);
    vec![table]
}

/// The 1.5× headline: `D^avg(Z)` over the Theorem 1 bound converges to 3/2.
pub fn ratio15() -> Vec<Table> {
    let mut table = Table::new(
        "Z-curve optimality gap: D^avg(Z) / Thm-1 bound (→ 1.5)",
        &["d", "k", "ratio"],
    );
    fn rows<const D: usize>(table: &mut Table, ks: &[u32]) {
        for &k in ks {
            let s = summarize_par(&ZCurve::<D>::new(k).unwrap());
            let bound = bounds::thm1_nn_stretch_lower_bound(k, D);
            table.push_row(vec![
                D.to_string(),
                k.to_string(),
                fmt_ratio(s.d_avg() / bound),
            ]);
        }
    }
    rows::<2>(&mut table, &[2, 4, 6, 8, 9]);
    rows::<3>(&mut table, &[2, 3, 4, 5]);
    rows::<4>(&mut table, &[1, 2, 3]);
    vec![table]
}

/// **Proposition 1.** `D^max ≥ D^avg ≥ bound` for every curve family.
pub fn prop1() -> Vec<Table> {
    let mut table = Table::new(
        "Proposition 1: D^max vs the Theorem-1 lower bound (d=2)",
        &["k", "curve", "D^max", "D^avg", "lower bound"],
    );
    for k in [2u32, 3, 4] {
        let bound = bounds::thm1_nn_stretch_lower_bound(k, 2);
        for s in curve_summaries::<2>(k) {
            assert!(s.d_max() >= s.d_avg() - 1e-9);
            assert!(s.d_max() >= bound - 1e-9);
            table.push_row(vec![
                k.to_string(),
                s.curve.clone(),
                fmt_f64(s.d_max(), 4),
                fmt_f64(s.d_avg(), 4),
                fmt_f64(bound, 4),
            ]);
        }
    }
    vec![table]
}

/// **Proposition 2.** `D^max(S) = n^{1−1/d}` exactly.
pub fn prop2() -> Vec<Table> {
    let mut table = Table::new(
        "Proposition 2: D^max(simple) = n^{1−1/d}, exactly",
        &["d", "k", "D^max(S) (exact ratio)", "n^{1−1/d}", "equal"],
    );
    fn rows<const D: usize>(table: &mut Table, ks: &[u32]) {
        for &k in ks {
            let s = summarize_par(&SimpleCurve::<D>::new(k).unwrap());
            let expected = bounds::prop2_dmax_simple_exact(k, D);
            let equal = s.d_max_equals_ratio(expected, 1);
            assert!(equal, "d={D} k={k}");
            table.push_row(vec![
                D.to_string(),
                k.to_string(),
                format!("{}/{}", fmt_u128(s.dmax_sum), fmt_u128(s.n)),
                fmt_u128(expected),
                equal.to_string(),
            ]);
        }
    }
    rows::<2>(&mut table, &[1, 2, 3, 4, 6]);
    rows::<3>(&mut table, &[1, 2, 3]);
    rows::<4>(&mut table, &[1, 2]);
    vec![table]
}

/// **Propositions 3 & 4.** All-pairs stretch of every curve vs the
/// universal lower bounds, and the simple curve vs its upper bounds.
pub fn prop34() -> Vec<Table> {
    let mut table = Table::new(
        "Propositions 3 & 4: all-pairs stretch (d=2)",
        &["k", "curve", "str M", "lower M", "str E", "lower E"],
    );
    for k in [2u32, 3, 4] {
        let lower_m = bounds::prop3_all_pairs_lower_manhattan(k, 2);
        let lower_e = bounds::prop3_all_pairs_lower_euclidean(k, 2);
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(k).unwrap();
            let s = all_pairs_exact(&c);
            assert!(s.manhattan >= lower_m - 1e-9, "{kind} k={k}");
            assert!(s.euclidean >= lower_e - 1e-9, "{kind} k={k}");
            table.push_row(vec![
                k.to_string(),
                kind.name().to_string(),
                fmt_f64(s.manhattan, 4),
                fmt_f64(lower_m, 4),
                fmt_f64(s.euclidean, 4),
                fmt_f64(lower_e, 4),
            ]);
        }
    }
    let mut upper = Table::new(
        "Proposition 4: simple curve vs its upper bounds (d=2)",
        &["k", "str M", "upper M", "str E", "upper E"],
    );
    for k in [2u32, 3, 4, 5] {
        let s = all_pairs_exact(&SimpleCurve::<2>::new(k).unwrap());
        let um = bounds::prop4_all_pairs_upper_manhattan(k, 2);
        let ue = bounds::prop4_all_pairs_upper_euclidean(k, 2);
        assert!(s.manhattan <= um + 1e-9);
        assert!(s.euclidean <= ue + 1e-9);
        upper.push_row(vec![
            k.to_string(),
            fmt_f64(s.manhattan, 4),
            fmt_f64(um, 4),
            fmt_f64(s.euclidean, 4),
            fmt_f64(ue, 4),
        ]);
    }
    vec![table, upper]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thm2_normalized_values_approach_one_from_below_region() {
        let tables = thm2();
        let rows = &tables[0].rows;
        // d=2 rows: normalized ratio at the largest k should be close to 1.
        let last_d2 = rows.iter().rfind(|r| r[0] == "2").unwrap();
        let ratio: f64 = last_d2[5].parse().unwrap();
        assert!((ratio - 1.0).abs() < 0.05, "d=2 normalized {ratio}");
    }

    #[test]
    fn ratio15_converges() {
        let tables = ratio15();
        let rows = &tables[0].rows;
        let last_d2 = rows.iter().rfind(|r| r[0] == "2").unwrap();
        let ratio: f64 = last_d2[2].parse().unwrap();
        assert!((ratio - 1.5).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn lem5_normalized_near_limits_at_high_k() {
        let tables = lem5();
        for row in &tables[0].rows {
            if row[0] == "2" && row[2] == "12" {
                let normalized: f64 = row[4].parse().unwrap();
                let limit: f64 = row[5].parse().unwrap();
                assert!((normalized - limit).abs() < 1e-3, "{row:?}");
            }
        }
    }

    #[test]
    fn all_validating_experiments_run_clean() {
        // These assert internally; running them is the test.
        thm1();
        lem2();
        lem4();
        prop1();
        prop2();
    }

    #[test]
    fn thm3_interior_value_matches_davg_direction() {
        let tables = thm3();
        assert!(!tables[0].rows.is_empty());
    }

    #[test]
    fn prop34_runs_clean() {
        let tables = prop34();
        assert_eq!(tables.len(), 2);
    }
}
