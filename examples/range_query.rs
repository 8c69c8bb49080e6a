//! Spatial range queries over a curve-keyed table — the paper's database
//! motivation (Orenstein–Merrett / UB-tree style).
//!
//! Records live in a plain sorted array keyed by curve index. Box queries
//! run two ways: the raw walk of the box's exact interval decomposition
//! (any curve), and the block-at-a-time box kernel, which on the Z curve
//! leaves the box by BIGMIN jumps (no preprocessing). The work counters
//! show how the curve's clustering quality becomes query cost.
//!
//! ```text
//! cargo run --release -p sfc --example range_query
//! ```

use rand::{Rng, SeedableRng};
use sfc::index::SfcIndex;
use sfc::metrics::report::{fmt_f64, Table};
use sfc::prelude::*;

fn main() {
    let grid = Grid::<2>::new(7).unwrap(); // 128×128
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let records: Vec<(Point<2>, u64)> = (0..30_000)
        .map(|i| (grid.random_cell(&mut rng), i))
        .collect();
    println!("30 000 records on a 128×128 grid; 200 random box queries\n");

    // Query workload: random boxes of side 4..24.
    let max = (grid.side() - 1) as u32;
    let boxes: Vec<BoxRegion<2>> = (0..200)
        .map(|_| {
            let corner = grid.random_cell(&mut rng);
            let size = rng.gen_range(4..24u32);
            BoxRegion::new(
                corner,
                Point::new([
                    (corner.coord(0) + size).min(max),
                    (corner.coord(1) + size).min(max),
                ]),
            )
        })
        .collect();

    let mut table = Table::new(
        "Interval-decomposed box queries (exact, zero overscan)",
        &["curve", "avg seeks", "avg hits", "hits/seek"],
    );
    for kind in CurveKind::ALL {
        let curve = kind.build::<2>(7).unwrap();
        let index = SfcIndex::build(&curve, records.clone());
        let (mut seeks, mut hits) = (0u64, 0u64);
        for b in &boxes {
            let (_, stats) = index.query_intervals(&b.curve_intervals(&curve));
            seeks += stats.seeks;
            hits += stats.reported;
        }
        table.push_row(vec![
            kind.name().to_string(),
            fmt_f64(seeks as f64 / boxes.len() as f64, 1),
            fmt_f64(hits as f64 / boxes.len() as f64, 1),
            fmt_f64(hits as f64 / seeks as f64, 2),
        ]);
    }
    println!("{}", table.render_text());

    // The Z curve's special power: BIGMIN needs no per-query O(volume)
    // preprocessing.
    let zindex = SfcIndex::build(ZCurve::over(grid), records.clone());
    let (mut scanned, mut seeks, mut hits) = (0u64, 0u64, 0u64);
    for b in &boxes {
        let (_, stats) = zindex.query_box(b);
        scanned += stats.scanned;
        seeks += stats.seeks;
        hits += stats.reported;
    }
    let mut zt = Table::new(
        "Z curve with BIGMIN jumping (Tropf–Herzog)",
        &["avg scanned", "avg hits", "overscan", "avg seeks"],
    );
    zt.push_row(vec![
        fmt_f64(scanned as f64 / boxes.len() as f64, 1),
        fmt_f64(hits as f64 / boxes.len() as f64, 1),
        fmt_f64(QueryStats::overscan_ratio(scanned, hits), 3),
        fmt_f64(seeks as f64 / boxes.len() as f64, 1),
    ]);
    println!("{}", zt.render_text());

    // Exact verified kNN.
    let q = Point::new([64, 64]);
    let (nearest, stats) = zindex.knn(q, 5, 16);
    println!(
        "5 nearest records to {q} (scanned {} entries):",
        stats.scanned
    );
    for e in nearest {
        println!(
            "  record {:>6} at {}  (distance {:.2})",
            e.payload,
            e.point,
            q.euclidean(&e.point)
        );
    }
}
