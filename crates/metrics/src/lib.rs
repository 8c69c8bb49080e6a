//! # sfc-metrics — proximity-preservation metrics for space filling curves
//!
//! This crate implements every metric, bound and analysis of
//! *Xu & Tirthapura, "A Lower Bound on Proximity Preservation by Space
//! Filling Curves", IEEE IPDPS 2012*:
//!
//! * [`nn_stretch`] — the nearest-neighbor stretch metrics
//!   `δ^avg_π(α)`, `δ^max_π(α)`, `D^avg(π)`, `D^max(π)`
//!   (Definitions 1–4), computed **exactly** (integer arithmetic, no
//!   floating-point accumulation error) with sequential and Rayon-parallel
//!   drivers over one rolling window of row-major hyperplanes, so every
//!   cell is encoded once.
//! * [`all_pairs`] — the all-pairs stretch `str^{avg,M}` and `str^{avg,E}`
//!   (Section V.B), grouped by offset vector over one index table, plus the
//!   universal pair-distance sum `S_{A'}(π)` (Lemma 2) in `O(n log n)`.
//! * [`lambda`] — the `Λ_i(Z)` / `G_{i,j}` decomposition driving the exact
//!   analysis of the Z curve (Lemma 5).
//! * [`decomposition`] — the nearest-neighbor decomposition `p(α, β)` and
//!   the edge-multiplicity count of Lemma 4.
//! * [`bounds`] — closed forms for every theorem, lemma and proposition in
//!   the paper, used as the comparison targets of the experiment harness.
//! * [`sampling`] — Monte-Carlo estimators (with normal-approximation
//!   confidence intervals) for grids too large to enumerate.
//! * [`clustering`] — the clustering metric of Moon et al. (discussed in
//!   the paper's related work) for contrast with the stretch.
//! * [`optimal`] — exhaustive search and the exact best chain of
//!   down-sets, probing the gap between the paper's lower and upper
//!   bounds.
//! * [`point_set`] — what a curve's order does to a set of points in the
//!   unit cube: chunk compactness, sequential locality and the empirical
//!   nearest-neighbor stretch of the `app-nbody` experiment.
//! * [`report`] — small table/report rendering used by the experiment
//!   harness.
//!
//! ## Exact arithmetic
//!
//! `D^avg(π) = (1/n) Σ_α δ^avg_π(α)` is a sum of rationals whose
//! denominators `|N(α)|` all divide `L = lcm(d, …, 2d)`. The exact drivers
//! accumulate `Σ_α (L / |N(α)|) · Σ_β Δπ(α, β)` in `u128`, so
//! `D^avg = total / (L·n)` is exact, and the paper's hand-worked values
//! (e.g. Figure 1's `D^avg(π₁) = 1.5`) are reproduced without tolerance
//! fudging. The parallel driver folds the same integers over contiguous
//! ranges of hyperplanes, each range re-encoding the plane on either side
//! of it, so parallel and sequential runs agree bit-for-bit however the
//! grid is cut.
//!
//! The all-pairs stretch is exact where it is an integer — `S_{A'}`, and
//! per offset vector `δ` the sum and maximum of `Δπ` over all pairs `δ`
//! apart — and rounds once per offset, not once per pair: the two
//! per-pair maxima are bit-identical to a per-pair loop's, the two
//! averages equal it to within last-place rounding of the sums.
//!
//! A one-cell grid (`k = 0`) has no neighbours and no pairs: every sum,
//! both stretches and both averages are `0`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod all_pairs;
pub mod bounds;
pub mod clustering;
pub mod decomposition;
pub mod dmax_z;
pub mod histogram;
pub mod lambda;
pub mod nn_stretch;
pub mod optimal;
pub mod point_set;
pub mod report;
pub mod sampling;
pub mod torus;

pub use nn_stretch::NnStretchSummary;
pub use report::Table;
