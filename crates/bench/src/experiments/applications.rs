//! Application-level experiments: the paper's motivating workloads.

use rand::{Rng, SeedableRng};
use sfc_core::{CurveKind, Grid, Point, ZCurve};
use sfc_index::{BoxRegion, SfcIndex};
use sfc_metrics::point_set::{sample_points, summarize, Distribution};
use sfc_metrics::report::{fmt_f64, Table};
use sfc_partition::{partition_greedy, quality, WeightedGrid, Workload};

fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// Domain decomposition quality per curve: load imbalance, edge cut and
/// communication volume, under uniform and clustered workloads.
pub fn app_partition() -> Vec<Table> {
    let grid = Grid::<2>::new(4).unwrap(); // 16×16
    let mut tables = Vec::new();
    for (wname, workload) in [
        ("uniform", Workload::Uniform),
        (
            "clustered",
            Workload::GaussianClusters {
                count: 4,
                sigma: 2.0,
            },
        ),
    ] {
        let weights = WeightedGrid::generate(grid, workload, &mut rng(55));
        let mut table = Table::new(
            format!("Partition quality, 16×16 grid, {wname} load"),
            &["curve", "p", "imbalance", "edge cut", "comm volume"],
        );
        for kind in CurveKind::ALL {
            let curve = kind.build::<2>(4).unwrap();
            for p in [4usize, 16] {
                let part = partition_greedy(&curve, &weights, p);
                let q = quality::evaluate(&curve, &weights, &part);
                table.push_row(vec![
                    kind.name().to_string(),
                    p.to_string(),
                    fmt_f64(q.imbalance, 4),
                    q.edge_cut.to_string(),
                    q.comm_volume.to_string(),
                ]);
            }
        }
        tables.push(table);
    }
    tables
}

/// Range-query and kNN cost per curve on a random record set.
pub fn app_index() -> Vec<Table> {
    let grid = Grid::<2>::new(5).unwrap(); // 32×32
    let mut r = rng(66);
    let records: Vec<(Point<2>, usize)> =
        (0..2_000).map(|i| (grid.random_cell(&mut r), i)).collect();
    let queries: Vec<BoxRegion<2>> = (0..100)
        .map(|_| {
            let corner = grid.random_cell(&mut r);
            let size = r.gen_range(2..8u32);
            let max = (grid.side() - 1) as u32;
            let hi = Point::new([
                (corner.coord(0) + size).min(max),
                (corner.coord(1) + size).min(max),
            ]);
            BoxRegion::new(corner, hi)
        })
        .collect();
    let knn_queries: Vec<Point<2>> = (0..60).map(|_| grid.random_cell(&mut r)).collect();

    let mut table = Table::new(
        "Box-query cost via interval decomposition (100 random boxes, 2000 records)",
        &[
            "curve",
            "avg seeks (intervals)",
            "avg reported",
            "kNN avg scanned (k=5)",
        ],
    );
    for kind in CurveKind::ALL {
        let curve = kind.build::<2>(5).unwrap();
        let index = SfcIndex::build(&curve, records.clone());
        let mut seeks = 0u64;
        let mut reported = 0u64;
        for q in &queries {
            let (_, stats) = index.query_intervals(&q.curve_intervals(&curve));
            seeks += stats.seeks;
            reported += stats.reported;
        }
        let mut knn_scanned = 0u64;
        for q in &knn_queries {
            knn_scanned += index.knn(*q, 5, 8).1.scanned;
        }
        table.push_row(vec![
            kind.name().to_string(),
            fmt_f64(seeks as f64 / queries.len() as f64, 2),
            fmt_f64(reported as f64 / queries.len() as f64, 2),
            fmt_f64(knn_scanned as f64 / knn_queries.len() as f64, 2),
        ]);
    }

    // BIGMIN vs full scan for the Z curve specifically.
    let z = ZCurve::<2>::over(grid);
    let zindex = SfcIndex::build(z, records.clone());
    let mut bigmin_scanned = 0u64;
    let mut bigmin_seeks = 0u64;
    // A full scan filters every record once per box.
    let full_scanned = (zindex.len() * queries.len()) as u64;
    for q in &queries {
        let (_, b) = zindex.query_box(q);
        bigmin_scanned += b.scanned;
        bigmin_seeks += b.seeks;
    }
    let mut zt = Table::new(
        "Z curve: BIGMIN jumping vs full scan (same 100 boxes)",
        &["strategy", "avg scanned", "avg seeks"],
    );
    zt.push_row(vec![
        "full scan".into(),
        fmt_f64(full_scanned as f64 / 100.0, 1),
        "1.00".into(),
    ]);
    zt.push_row(vec![
        "bigmin".into(),
        fmt_f64(bigmin_scanned as f64 / 100.0, 1),
        fmt_f64(bigmin_seeks as f64 / 100.0, 2),
    ]);
    vec![table, zt]
}

/// N-body decomposition locality per curve.
pub fn app_nbody() -> Vec<Table> {
    let mut tables = Vec::new();
    for (dname, dist) in [
        ("uniform", Distribution::Uniform),
        (
            "clustered",
            Distribution::Clustered {
                clusters: 4,
                sigma: 0.05,
            },
        ),
    ] {
        let bodies: Vec<[f64; 2]> = sample_points(dist, 600, &mut rng(77));
        let mut table = Table::new(
            format!("SFC body-ordering quality, 600 bodies, {dname}"),
            &[
                "curve",
                "seq. locality",
                "mean chunk bbox vol (p=8)",
                "empirical NN stretch",
            ],
        );
        for kind in CurveKind::ALL {
            let curve = kind.build::<2>(6).unwrap();
            let mut b = bodies.clone();
            let summary = summarize(&curve, &mut b, 8);
            table.push_row(vec![
                kind.name().to_string(),
                fmt_f64(summary.sequential_locality, 5),
                fmt_f64(summary.mean_chunk_volume, 5),
                fmt_f64(summary.empirical_nn_stretch, 2),
            ]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_partition_tables_are_complete() {
        let tables = app_partition();
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows.len(), CurveKind::ALL.len() * 2);
        }
        // At p=16 on uniform load the simple curve's slab cut (15·16=240)
        // must exceed Hilbert's blocky cut.
        let uniform = &tables[0];
        let cut = |name: &str| -> u64 {
            uniform
                .rows
                .iter()
                .find(|r| r[0] == name && r[1] == "16")
                .map(|r| r[3].parse().unwrap())
                .unwrap()
        };
        assert!(cut("hilbert") < cut("simple"));
    }

    #[test]
    fn app_index_interval_seeks_track_clustering() {
        let tables = app_index();
        let t = &tables[0];
        let seeks = |name: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[1].parse().unwrap())
                .unwrap()
        };
        // Hilbert needs no more interval seeks than the simple curve on
        // square-ish boxes.
        assert!(seeks("hilbert") <= seeks("simple") + 1e-9);
        // BIGMIN scans far fewer entries than a full scan.
        let zt = &tables[1];
        let full: f64 = zt.rows[0][1].parse().unwrap();
        let bigmin: f64 = zt.rows[1][1].parse().unwrap();
        assert!(bigmin < full / 3.0, "bigmin {bigmin} vs full {full}");
    }
}
