//! Parallel domain decomposition with space filling curves — the paper's
//! scientific-computing motivation, end to end.
//!
//! A clustered workload (think adaptive mesh refinement or particle
//! clusters) is partitioned into `p` parts by cutting each curve's 1-D
//! order; we report load imbalance and communication cost per curve.
//!
//! ```text
//! cargo run --release -p sfc --example domain_decomposition
//! ```

use rand::SeedableRng;
use sfc::metrics::report::{fmt_f64, Table};
use sfc::partition::partitioner::partition_min_bottleneck;
use sfc::partition::{partition_greedy, quality};
use sfc::prelude::*;

fn main() {
    let grid = Grid::<2>::new(6).unwrap(); // 64×64 = 4096 cells
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2012);
    let weights = WeightedGrid::generate(
        grid,
        Workload::GaussianClusters {
            count: 5,
            sigma: 6.0,
        },
        &mut rng,
    );
    println!(
        "64×64 grid, clustered load (5 Gaussian blobs), total weight {:.1}\n",
        weights.total()
    );

    for p in [8usize, 32] {
        let mut table = Table::new(
            format!("p = {p} parts"),
            &["curve", "strategy", "imbalance", "edge cut", "comm volume"],
        );
        for kind in CurveKind::ALL {
            let curve = kind.build::<2>(6).unwrap();
            for (strategy, part) in [
                ("greedy", partition_greedy(&curve, &weights, p)),
                (
                    "min-bottleneck",
                    partition_min_bottleneck(&curve, &weights, p, 1e-9),
                ),
            ] {
                let q = quality::evaluate(&curve, &weights, &part);
                table.push_row(vec![
                    kind.name().to_string(),
                    strategy.to_string(),
                    fmt_f64(q.imbalance, 4),
                    q.edge_cut.to_string(),
                    q.comm_volume.to_string(),
                ]);
            }
        }
        println!("{}", table.render_text());
    }

    println!(
        "Reading: all curves balance load equally well (the 1-D cut does that);\n\
         the *communication* columns are where proximity preservation pays —\n\
         compact curves (Hilbert, Z) cut far fewer neighbor edges than the\n\
         slab-producing simple curve at high part counts."
    );
}
