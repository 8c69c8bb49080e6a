//! Experiments on the paper's open questions (Section VI).

use sfc_core::{CurveKind, Grid, SpaceFillingCurve};
use sfc_metrics::bounds;
use sfc_metrics::nn_stretch::summarize_par;
use sfc_metrics::optimal::{down_set_optimum, exhaustive_optimal, SearchResult};
use sfc_metrics::report::{fmt_f64, fmt_ratio, Table};

/// Open question 1: the average NN-stretch of the Hilbert curve, measured.
///
/// The paper proves Z and simple are `~ (1/d)·n^{1−1/d}` and asks about
/// Hilbert. The measurement shows Hilbert (and Gray, and snake) sit in the
/// same `Θ(n^{1−1/d})` regime — normalized values converge to constants of
/// the same order, so no curve in the family escapes the Theorem 1 bound
/// by more than a constant.
pub fn hilbert() -> Vec<Table> {
    let mut table = Table::new(
        "Measured D^avg of every family, normalized by n^{1−1/d}/d (d=2)",
        &["k", "Z", "simple", "snake", "gray", "hilbert"],
    );
    for k in [2u32, 3, 4, 5, 6, 7, 8] {
        let asym = bounds::nn_stretch_asymptote(k, 2);
        let mut row = vec![k.to_string()];
        for kind in CurveKind::ALL {
            let s = summarize_par(&kind.build::<2>(k).unwrap());
            row.push(fmt_ratio(s.d_avg() / asym));
        }
        table.push_row(row);
    }
    let mut table3 = Table::new(
        "Same in d = 3",
        &["k", "Z", "simple", "snake", "gray", "hilbert"],
    );
    for k in [1u32, 2, 3, 4] {
        let asym = bounds::nn_stretch_asymptote(k, 3);
        let mut row = vec![k.to_string()];
        for kind in CurveKind::ALL {
            let s = summarize_par(&kind.build::<3>(k).unwrap());
            row.push(fmt_ratio(s.d_avg() / asym));
        }
        table3.push_row(row);
    }
    vec![table, table3]
}

/// Open question 2: how much slack does Theorem 1 leave? Exhaustive search
/// on the 2×2 grid; on 4×4, 8×8 and 2×2×2 the best down-set chain, which is
/// exact over that class but not proved optimal over all bijections.
pub fn optsearch() -> Vec<Table> {
    let mut table = Table::new(
        "Best curves found vs the Theorem-1 bound and the Z curve",
        &[
            "grid",
            "method",
            "best D^avg",
            "Z D^avg",
            "Thm-1 bound",
            "best/bound",
        ],
    );
    let opt = exhaustive_optimal(Grid::<2>::new(1).unwrap());
    table.push_row(search_row(&opt, "exhaustive (24 perms)".into()));
    for k in [2u32, 3] {
        table.push_row(down_set_row(Grid::<2>::new(k).unwrap()));
    }
    table.push_row(down_set_row(Grid::<3>::new(1).unwrap()));
    vec![table]
}

fn down_set_row<const D: usize>(grid: Grid<D>) -> Vec<String> {
    let result = down_set_optimum(grid);
    let method = format!("best down-set chain ({} states)", result.evaluated);
    search_row(&result, method)
}

/// One `optsearch` row: a search's best `D^avg` beside Z's and the
/// Theorem 1 bound on the same grid.
fn search_row<const D: usize>(result: &SearchResult<D>, method: String) -> Vec<String> {
    let grid = result.best.grid();
    let z = summarize_par(&sfc_core::ZCurve::<D>::new(grid.k()).unwrap());
    let bound = bounds::thm1_nn_stretch_lower_bound(grid.k(), D);
    vec![
        vec![grid.side().to_string(); D].join("×"),
        method,
        fmt_f64(result.d_avg(), 4),
        fmt_f64(z.d_avg(), 4),
        fmt_f64(bound, 4),
        fmt_ratio(result.d_avg() / bound),
    ]
}

/// New analysis: the exact closed-form `D^max(Z)` and its limit 2·n^{1−1/d}.
///
/// The paper leaves the `D^max` gap open (Section VI). The closed form in
/// `sfc_metrics::dmax_z` shows `D^max(Z)/n^{1−1/d} → 2` — exactly twice
/// Proposition 2's simple-curve constant.
pub fn dmax_z() -> Vec<Table> {
    let mut table = Table::new(
        "D^max(Z)/n^{1−1/d}: exact closed form, far beyond enumerable sizes",
        &[
            "d",
            "k",
            "n",
            "normalized D^max(Z)",
            "simple curve (Prop. 2)",
        ],
    );
    for (d, ks) in [
        (2usize, vec![2u32, 4, 8, 16, 24, 28]),
        (3, vec![2, 4, 8, 12, 16]),
    ] {
        for k in ks {
            let v = sfc_metrics::dmax_z::dmax_z_normalized(k, d);
            table.push_row(vec![
                d.to_string(),
                k.to_string(),
                format!("2^{}", k as usize * d),
                fmt_f64(v, 6),
                "1.000000".into(),
            ]);
        }
    }
    // Cross-check the closed form against enumeration on a small grid.
    let mut check = Table::new(
        "Closed form vs brute-force enumeration",
        &["d", "k", "closed-form Σδ^max", "enumerated Σδ^max", "equal"],
    );
    let z2 = sfc_core::ZCurve::<2>::new(4).unwrap();
    let enum2 = summarize_par(&z2).dmax_sum;
    let closed2 = sfc_metrics::dmax_z::dmax_z_sum(4, 2);
    check.push_row(vec![
        "2".into(),
        "4".into(),
        closed2.to_string(),
        enum2.to_string(),
        (closed2 == enum2).to_string(),
    ]);
    let z3 = sfc_core::ZCurve::<3>::new(3).unwrap();
    let enum3 = summarize_par(&z3).dmax_sum;
    let closed3 = sfc_metrics::dmax_z::dmax_z_sum(3, 3);
    check.push_row(vec![
        "3".into(),
        "3".into(),
        closed3.to_string(),
        enum3.to_string(),
        (closed3 == enum3).to_string(),
    ]);
    assert_eq!(closed2, enum2);
    assert_eq!(closed3, enum3);
    vec![table, check]
}

/// Torus variant: periodic boundaries make Lemma 3 an equality and give
/// the simple curve an exact closed form at twice its open-grid stretch.
pub fn torus() -> Vec<Table> {
    use sfc_metrics::torus::{summarize_torus, torus_simple_davg_exact};
    let mut table = Table::new(
        "Torus vs open-grid D^avg (d=2)",
        &["k", "curve", "open D^avg", "torus D^avg", "torus/open"],
    );
    for k in [3u32, 5, 7] {
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(k).unwrap();
            let open = summarize_par(&c).d_avg();
            let tor = summarize_torus(&c).d_avg(2);
            table.push_row(vec![
                k.to_string(),
                kind.name().to_string(),
                fmt_f64(open, 3),
                fmt_f64(tor, 3),
                fmt_ratio(tor / open),
            ]);
        }
    }
    let mut closed = Table::new(
        "Simple-curve torus closed form: D^avg_T(S) = 2(n−1)·n^{1−1/d}/(dn)",
        &["d", "k", "measured", "closed form", "equal (exact)"],
    );
    for (d2k, dd) in [(4u32, 2usize), (2, 3)] {
        let (num, den) = torus_simple_davg_exact(d2k, dd);
        let (measured, eq) = if dd == 2 {
            let s = summarize_torus(&sfc_core::SimpleCurve::<2>::new(d2k).unwrap());
            (s.d_avg(2), s.d_avg_equals_ratio(2, num, den))
        } else {
            let s = summarize_torus(&sfc_core::SimpleCurve::<3>::new(d2k).unwrap());
            (s.d_avg(3), s.d_avg_equals_ratio(3, num, den))
        };
        assert!(eq);
        closed.push_row(vec![
            dd.to_string(),
            d2k.to_string(),
            fmt_f64(measured, 4),
            format!("{num}/{den}"),
            eq.to_string(),
        ]);
    }
    vec![table, closed]
}

/// Contrast metric: the clustering number of Moon et al. ranks curves
/// differently from the stretch (Hilbert wins clustering; nobody
/// meaningfully wins average NN-stretch).
pub fn cluster() -> Vec<Table> {
    let mut table = Table::new(
        "Average clusters per q×q box query (8×8 grid, exact over all placements)",
        &["curve", "q=2", "q=3", "q=4", "D^avg (for contrast)"],
    );
    for kind in CurveKind::ALL {
        let c = kind.build::<2>(3).unwrap();
        let mut row = vec![kind.name().to_string()];
        for q in [2u64, 3, 4] {
            row.push(fmt_f64(
                sfc_metrics::clustering::average_clusters_exact(&c, q),
                3,
            ));
        }
        row.push(fmt_f64(summarize_par(&c).d_avg(), 3));
        table.push_row(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_normalized_values_are_bounded_constants() {
        let tables = hilbert();
        // Every normalized value is within [2/3 · (1 − ε), ~4]: the 2/3
        // floor is Theorem 1 (bound/asymptote = 2/3), and a small constant
        // cap shows everyone is Θ(n^{1−1/d}).
        for table in &tables {
            for row in &table.rows {
                for cell in &row[1..] {
                    let v: f64 = cell.parse().unwrap();
                    assert!(v > 0.6 && v < 4.0, "normalized stretch {v} out of range");
                }
            }
        }
    }

    #[test]
    fn torus_ratios_are_at_least_one() {
        let tables = torus();
        for row in &tables[0].rows {
            let ratio: f64 = row[4].parse().unwrap();
            assert!(ratio >= 1.0 - 1e-9, "{row:?}");
        }
    }

    #[test]
    fn optsearch_beats_nothing_below_the_bound() {
        let tables = optsearch();
        for row in &tables[0].rows {
            let ratio: f64 = row[5].parse().unwrap();
            assert!(ratio >= 1.0 - 1e-9, "search went below the bound: {ratio}");
        }
    }

    #[test]
    fn cluster_table_shows_hilbert_best_at_clustering() {
        let tables = cluster();
        let rows = &tables[0].rows;
        let get = |name: &str, col: usize| -> f64 {
            rows.iter()
                .find(|r| r[0] == name)
                .map(|r| r[col].parse().unwrap())
                .unwrap()
        };
        // Hilbert clusters at least as well as Z for q=2 and q=4.
        assert!(get("hilbert", 1) <= get("Z", 1) + 1e-9);
        assert!(get("hilbert", 3) <= get("Z", 3) + 1e-9);
    }
}
