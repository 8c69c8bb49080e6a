//! Quality metrics for SFC partitions: load imbalance and communication
//! cost.
//!
//! The link back to the paper: a partition's **edge cut** (nearest-neighbor
//! edges crossing part boundaries) is precisely the number of NN pairs whose
//! curve distance straddles a cut point — curves with low NN-stretch keep
//! neighbors close along the order, so fewer edges straddle cuts and
//! communication is cheaper. The `app-partition` experiment quantifies this
//! correlation across curve families.

use sfc_core::SpaceFillingCurve;

use crate::partitioner::Partition;
use crate::weights::WeightedGrid;

/// Quality summary of a partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Number of parts.
    pub parts: usize,
    /// `max_j weight_j / (total/p)` — 1.0 is perfect balance.
    pub imbalance: f64,
    /// Number of grid NN edges whose endpoints lie in different parts.
    pub edge_cut: u64,
    /// Number of cells with at least one neighbor in another part (the
    /// total communication volume under a halo-exchange model).
    pub comm_volume: u64,
    /// Maximum part weight.
    pub max_part_weight: f64,
    /// Mean part weight (`total / p`).
    pub mean_part_weight: f64,
}

/// Evaluates a partition's quality. There is no parallel twin: on two
/// cores a Rayon scan of the cells ran at 0.38–0.55× of this loop at
/// `k = 4` (the experiments) and 1.26–1.60× at `k = 6` (one example),
/// with no gate or workload behind it (`docs/perf/PR-25.md`).
pub fn evaluate<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    weights: &WeightedGrid<D>,
    partition: &Partition,
) -> PartitionQuality {
    let grid = curve.grid();
    let order = weights.in_curve_order(curve);
    let part_weights = partition.part_weights(&order);

    let mut edge_cut = 0u64;
    for (a, b, _) in grid.nn_edges() {
        if partition.part_of(curve.index_of(a)) != partition.part_of(curve.index_of(b)) {
            edge_cut += 1;
        }
    }
    let mut comm_volume = 0u64;
    for cell in grid.cells() {
        let own = partition.part_of(curve.index_of(cell));
        if grid
            .neighbors(cell)
            .any(|nb| partition.part_of(curve.index_of(nb)) != own)
        {
            comm_volume += 1;
        }
    }
    finish(partition, part_weights, edge_cut, comm_volume)
}

fn finish(
    partition: &Partition,
    part_weights: Vec<f64>,
    edge_cut: u64,
    comm_volume: u64,
) -> PartitionQuality {
    let p = partition.parts();
    let total: f64 = part_weights.iter().sum();
    let mean = total / p as f64;
    let max = part_weights.iter().cloned().fold(0.0, f64::max);
    PartitionQuality {
        parts: p,
        imbalance: if mean > 0.0 { max / mean } else { 1.0 },
        edge_cut,
        comm_volume,
        max_part_weight: max,
        mean_part_weight: mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{partition_greedy, Partition};
    use crate::weights::{WeightedGrid, Workload};
    use rand::SeedableRng;
    use sfc_core::{CurveKind, Grid, HilbertCurve, SimpleCurve, ZCurve};

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(12)
    }

    #[test]
    fn single_part_has_no_cut() {
        let grid = Grid::<2>::new(2).unwrap();
        let w = WeightedGrid::generate(grid, Workload::Uniform, &mut rng());
        let z = ZCurve::<2>::over(grid);
        let part = partition_greedy(&z, &w, 1);
        let q = evaluate(&z, &w, &part);
        assert_eq!(q.edge_cut, 0);
        assert_eq!(q.comm_volume, 0);
        assert_eq!(q.imbalance, 1.0);
    }

    #[test]
    fn hand_checked_cut_on_4x4_simple_curve() {
        // Simple curve on 4×4 split in half: parts are the bottom two rows
        // and the top two rows. Cut edges: the 4 vertical edges between
        // rows 1 and 2; comm volume: the 8 cells of those rows.
        let grid = Grid::<2>::new(2).unwrap();
        let w = WeightedGrid::generate(grid, Workload::Uniform, &mut rng());
        let s = SimpleCurve::<2>::over(grid);
        let part = Partition::from_boundaries(vec![0, 8, 16]);
        let q = evaluate(&s, &w, &part);
        assert_eq!(q.edge_cut, 4);
        assert_eq!(q.comm_volume, 8);
        assert_eq!(q.imbalance, 1.0);
    }

    #[test]
    fn compact_curves_cut_less_than_slabs_at_high_part_count() {
        // With p = 8 on an 8×8 uniform grid, the simple curve produces
        // 8×1 slabs (cut = 7 rows × 8 = 56 edges); Hilbert/Z produce
        // blocky parts with smaller perimeter.
        let grid = Grid::<2>::new(3).unwrap();
        let w = WeightedGrid::generate(grid, Workload::Uniform, &mut rng());
        let simple = SimpleCurve::<2>::over(grid);
        let hilbert = HilbertCurve::<2>::over(grid);
        let z = ZCurve::<2>::over(grid);
        let q_simple = evaluate(&simple, &w, &partition_greedy(&simple, &w, 8));
        let q_hilbert = evaluate(&hilbert, &w, &partition_greedy(&hilbert, &w, 8));
        let q_z = evaluate(&z, &w, &partition_greedy(&z, &w, 8));
        assert_eq!(q_simple.edge_cut, 56);
        assert!(q_hilbert.edge_cut < q_simple.edge_cut);
        assert!(q_z.edge_cut < q_simple.edge_cut);
        // Hilbert's 8-cell parts on an 8×8 grid are 4×2 blocks: perimeter
        // cut strictly better than or equal to Z's.
        assert!(q_hilbert.edge_cut <= q_z.edge_cut);
    }

    #[test]
    fn comm_volume_bounded_by_twice_edge_cut() {
        // Each cut edge exposes at most 2 cells.
        let grid = Grid::<2>::new(3).unwrap();
        let mut r = rng();
        let w = WeightedGrid::generate(grid, Workload::CornerExponential { scale: 3.0 }, &mut r);
        for kind in CurveKind::ALL {
            let c = kind.build::<2>(3).unwrap();
            let part = partition_greedy(&c, &w, 6);
            let q = evaluate(&c, &w, &part);
            assert!(q.comm_volume <= 2 * q.edge_cut, "{kind}");
            assert!(q.comm_volume >= 1, "{kind}: p=6 must expose boundaries");
        }
    }

    #[test]
    fn imbalance_is_at_least_one() {
        let grid = Grid::<2>::new(2).unwrap();
        let mut r = rng();
        let w = WeightedGrid::generate(
            grid,
            Workload::GaussianClusters {
                count: 2,
                sigma: 0.8,
            },
            &mut r,
        );
        let z = ZCurve::<2>::over(grid);
        for p in [2usize, 3, 4, 7] {
            let q = evaluate(&z, &w, &partition_greedy(&z, &w, p));
            assert!(q.imbalance >= 1.0 - 1e-12, "p={p}: {}", q.imbalance);
        }
    }
}
