//! # sfc-core — space filling curves over power-of-two grids
//!
//! This crate implements the model of
//! *Xu & Tirthapura, "A Lower Bound on Proximity Preservation by Space
//! Filling Curves", IEEE IPDPS 2012* and every curve the paper analyses or
//! cites, plus the d-dimensional Hilbert curve (the subject of the paper's
//! open question).
//!
//! ## The model (paper, Section III)
//!
//! The **universe** is the `d`-dimensional grid of side `2^k`, containing
//! `n = 2^{kd}` **cells**. A **space filling curve** (SFC) is any *bijection*
//! `π : U → {0, 1, …, n−1}`. Note this is deliberately more general than the
//! usual notion of a non-self-intersecting curve: every lower bound proved on
//! this class also applies to the classical curves.
//!
//! The crate provides:
//!
//! * [`Point`] — a cell of the universe, with Manhattan / Euclidean /
//!   Chebyshev distances ([`Point::manhattan`], …).
//! * [`Grid`] — the universe itself: cell iteration, nearest-neighbor
//!   iteration, boundary predicates.
//! * [`SpaceFillingCurve`] — the bijection trait, with curve-order iteration
//!   and bijectivity validation.
//! * Concrete curves: [`ZCurve`] (Morton order, exactly the paper's bit
//!   convention), [`SimpleCurve`] (the paper's Eq. 8), [`SnakeCurve`],
//!   [`GrayCurve`], [`HilbertCurve`], and table-driven
//!   [`PermutationCurve`]s (including uniformly random bijections and the
//!   two worked curves of the paper's Figure 1).
//! * [`transform`] — axis-permutation / reflection adaptors, formalising the
//!   paper's remark that "different Z curves are possible by taking the
//!   dimensions in a different order".
//!
//! ## Batch API
//!
//! Every curve also exposes
//! [`index_of_batch`](SpaceFillingCurve::index_of_batch) and
//! [`point_of_batch`](SpaceFillingCurve::point_of_batch) — semantically a
//! `map` of the scalar calls, but overridden with table-driven kernels
//! where it pays:
//!
//! * [`ZCurve`] encodes through 256-entry dilation LUTs
//!   ([`bits::DILATE2_LUT`] / [`bits::DILATE3_LUT`]);
//! * [`HilbertCurve`] encodes 2-D points with a branch-free prefix scan
//!   over its four orientation states, 32 levels at once in `u32` lanes,
//!   and transduces 3-D Morton keys (and decodes both) through
//!   precomputed state-transition tables — each an order of magnitude
//!   faster than the per-bit Skilling transpose it replaces;
//! * [`GrayCurve`] rides the Morton kernel and applies the Gray inverse
//!   in place, in a `u64` when the key fits one.
//!
//! Bulk workloads (index construction in `sfc-index`, metric sweeps and
//! point-set ordering in `sfc-metrics`) all route through this API.
//! Quickstart:
//!
//! ```
//! use sfc_core::{HilbertCurve, Point, SpaceFillingCurve};
//!
//! let h = HilbertCurve::<2>::new(16).unwrap();
//! let points: Vec<Point<2>> = (0..1000).map(|i| Point::new([i, i * 7 % 65_536])).collect();
//!
//! // One call encodes the whole batch through the table kernel …
//! let mut keys = Vec::new();
//! h.index_of_batch(&points, &mut keys);
//!
//! // … bit-identically to the scalar path.
//! assert_eq!(keys[3], h.index_of(points[3]));
//!
//! // And back again.
//! let mut roundtrip = Vec::new();
//! h.point_of_batch(&keys, &mut roundtrip);
//! assert_eq!(roundtrip, points);
//! ```
//!
//! ## Conventions
//!
//! * Dimensions are indexed `1..=d` in the paper; in code, **axis `i`**
//!   (`0`-based) corresponds to the paper's dimension `i+1`.
//! * Curve indices are [`CurveIndex`] = `u128`; all index arithmetic is
//!   exact. Grids are limited to `k·d ≤ 127` bits.
//!
//! ## Quick example
//!
//! ```
//! use sfc_core::{Grid, Point, SpaceFillingCurve, ZCurve};
//!
//! // The paper's worked example: d = 3, k = 3, Z(101, 010, 011) = 100011101.
//! let z = ZCurve::<3>::new(3).unwrap();
//! let p = Point::new([0b101, 0b010, 0b011]);
//! assert_eq!(z.index_of(p), 0b100011101);
//! assert_eq!(z.point_of(0b100011101), p);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bits;
pub mod curve;
pub mod diagonal;
pub mod error;
pub mod gray;
pub mod grid;
pub mod hilbert;
mod hilbert_tables;
pub mod morton;
pub mod permutation;
pub mod point;
pub mod simple;
pub mod snake;
pub mod spiral;
pub mod transform;
pub mod viz;

pub use curve::{BoxedCurve, CurveKind, CurveOrderIter, SharedCurve, SpaceFillingCurve};
pub use diagonal::DiagonalCurve;
pub use error::SfcError;
pub use gray::GrayCurve;
pub use grid::{CellIter, Grid, NeighborIter, NnEdgeIter};
pub use hilbert::HilbertCurve;
pub use morton::ZCurve;
pub use permutation::PermutationCurve;
pub use point::Point;
pub use simple::SimpleCurve;
pub use snake::SnakeCurve;
pub use spiral::SpiralCurve;

/// A position along a space filling curve: an integer in `{0, …, n−1}`.
///
/// `u128` keeps all index arithmetic exact for every grid this crate can
/// represent (`k·d ≤ 127`).
pub type CurveIndex = u128;

/// Absolute difference of two curve indices: the paper's
/// `Δπ(α, β) = |π(α) − π(β)|`.
#[inline]
pub fn index_distance(a: CurveIndex, b: CurveIndex) -> CurveIndex {
    a.abs_diff(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_distance_is_symmetric_and_zero_on_diagonal() {
        assert_eq!(index_distance(3, 10), 7);
        assert_eq!(index_distance(10, 3), 7);
        assert_eq!(index_distance(42, 42), 0);
        assert_eq!(index_distance(0, u128::MAX), u128::MAX);
    }
}
