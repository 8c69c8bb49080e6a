//! # sfc-nbody — an SFC-ordered Barnes-Hut N-body substrate
//!
//! The paper's first motivating application (Section I) is N-body
//! simulation, citing Warren & Salmon's parallel hashed oct-tree [26],
//! which keys particles by their Morton code, sorts them, and builds the
//! tree from the sorted key sequence. Nearest-neighbor proximity along the
//! curve is exactly what makes the sorted order useful: dominant
//! interactions are between nearby particles, so a low-stretch curve keeps
//! interaction partners close in memory and in the work partition.
//!
//! Components:
//!
//! * [`body`] — particles in the unit cube, synthetic distributions
//!   (uniform, clustered), and curve-key quantisation.
//! * [`tree`] — the Morton-keyed tree built from a sorted body array
//!   (Warren–Salmon style, no hashing needed in-memory).
//! * [`gravity`] — direct `O(n²)` reference forces and Barnes–Hut with the
//!   opening-angle criterion.
//! * [`decomp`] — SFC-based work decomposition of the sorted body array and
//!   the compactness metrics the `app-nbody` experiment reports per curve.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod body;
pub mod decomp;
pub mod gravity;
pub mod tree;

pub use body::{Body, Distribution};
pub use gravity::{barnes_hut_forces, direct_forces, BhStats};
pub use tree::Tree;
