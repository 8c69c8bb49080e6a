//! # sfc — space filling curves and their proximity-preservation limits
//!
//! A faithful, production-grade implementation of
//! *Pan Xu & Srikanta Tirthapura, "A Lower Bound on Proximity Preservation
//! by Space Filling Curves", IEEE IPDPS 2012* — the curves, the stretch
//! metrics, the lower/upper bounds, and the application substrates the
//! paper motivates.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `sfc-core` | grids, points, Z/simple/snake/Gray/Hilbert curves, permutation curves |
//! | [`metrics`] | `sfc-metrics` | `D^avg`, `D^max`, all-pairs stretch, `Λ_i`, bounds, optimal-curve search, point-set ordering |
//! | [`partition`] | `sfc-partition` | weighted SFC domain decomposition and quality metrics |
//! | [`index`] | `sfc-index` | sorted-key spatial index, BIGMIN range queries, verified kNN |
//! | [`store`] | `sfc-store` | mutable LSM-style spatial store over SFC-sorted runs |
//! | [`obs`] | `sfc-obs` | lock-free metrics registry, latency histograms, slow-query log |
//!
//! ## Quickstart
//!
//! ```
//! use sfc::prelude::*;
//!
//! // The 2-D Z curve on a 256×256 grid.
//! let z = ZCurve::<2>::new(8).unwrap();
//!
//! // Exact average nearest-neighbor stretch (Definition 2 of the paper) …
//! let summary = sfc::metrics::nn_stretch::summarize(&z);
//!
//! // … versus the paper's universal lower bound (Theorem 1):
//! let bound = sfc::metrics::bounds::thm1_nn_stretch_lower_bound(8, 2);
//! assert!(summary.d_avg() >= bound);
//!
//! // The Z curve is within 1.5× of optimal (Theorems 1+2); at finite n the
//! // ratio approaches 1.5 from above:
//! assert!(summary.d_avg() / bound < 1.51);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use sfc_core as core;
pub use sfc_index as index;
pub use sfc_metrics as metrics;
pub use sfc_obs as obs;
pub use sfc_partition as partition;
pub use sfc_store as store;

/// The most commonly used types, one `use` away.
pub mod prelude {
    pub use sfc_core::{
        CurveIndex, CurveKind, DiagonalCurve, GrayCurve, Grid, HilbertCurve, PermutationCurve,
        Point, SimpleCurve, SnakeCurve, SpaceFillingCurve, SpiralCurve, ZCurve,
    };
    pub use sfc_index::{BlockStore, BoxRegion, QueryStats, SfcIndex};
    pub use sfc_metrics::nn_stretch::NnStretchSummary;
    pub use sfc_partition::{Partition, TrafficHistogram, TrafficWeights, WeightedGrid, Workload};
    pub use sfc_store::{ShardedSfcStore, ShardedSnapshot, StoreEntry};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let z = ZCurve::<2>::new(3).unwrap();
        let s = crate::metrics::nn_stretch::summarize(&z);
        assert_eq!(s.n, 64);
        let grid = Grid::<2>::new(3).unwrap();
        let idx = SfcIndex::build(ZCurve::over(grid), vec![(Point::new([1, 1]), ())]);
        assert_eq!(idx.len(), 1);
    }
}
