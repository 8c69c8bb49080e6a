//! # sfc-partition — SFC-based parallel domain decomposition
//!
//! The paper's opening motivation (Section I) is data partitioning for
//! parallel and scientific computing: order the cells of a domain along a
//! space filling curve, then cut the 1-D order into `p` contiguous chunks.
//! Proximity preservation is what makes the resulting parts *compact*: a
//! curve with low stretch keeps each part's cells close together in space,
//! which bounds the communication surface between parts.
//!
//! This crate is the application substrate for the `app-partition`
//! experiments:
//!
//! * [`weights`] — synthetic weighted workloads (uniform, corner-heavy
//!   exponential, Gaussian clusters) standing in for the adaptive-mesh /
//!   N-body cell loads of the cited applications.
//! * [`partitioner`] — cutting a curve order into `p` weighted chunks:
//!   greedy prefix filling and an optimal min-bottleneck partition
//!   (parametric search over the classic "chains-on-a-line" problem),
//!   dense or sparse. [`Partition`] ranges are **half-open**
//!   (`boundaries[j] .. boundaries[j+1]`), so every curve index belongs
//!   to exactly one part.
//! * [`traffic`] — live-traffic weight feedback: a running system
//!   records observed load (exactly per cell in [`TrafficWeights`], or
//!   per fixed curve-index bucket in the lock-free [`TrafficHistogram`])
//!   and derives fresh min-bottleneck boundaries from it, which is how
//!   the `sfc-store` sharded store rebalances its shards.
//! * [`quality`] — load imbalance, edge cut and communication volume of a
//!   partition, computable sequentially or Rayon-parallel.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod partitioner;
pub mod quality;
pub mod traffic;
pub mod weights;

pub use partitioner::{
    partition_greedy, partition_min_bottleneck, partition_min_bottleneck_sparse, Partition,
};
pub use quality::{evaluate, PartitionQuality};
pub use traffic::{TrafficHistogram, TrafficWeights};
pub use weights::{WeightedGrid, Workload};
