//! Cells of the `d`-dimensional universe and the distances between them.
//!
//! The paper works with the Manhattan metric `Δ` (Section III) and, for the
//! all-pairs stretch, also the Euclidean metric `Δ_E` (Section V.B). Both are
//! provided here, plus Chebyshev distance (useful for box queries in
//! `sfc-index`).

use std::fmt;

/// A cell of the `d`-dimensional universe: a tuple `(x_1, …, x_d)` with
/// `0 ≤ x_i < 2^k`.
///
/// Axis `i` (0-based) corresponds to the paper's dimension `i+1`.
///
/// `Point` is `Copy` and stores its coordinates inline (`[u32; D]`), so the
/// hot metric loops never allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point<const D: usize> {
    coords: [u32; D],
}

// serde's derive does not support const-generic arrays (`Deserialize` is
// only provided for lengths 0..=32), so the impls are written by hand:
// a point serializes as a plain coordinate sequence.
#[cfg(feature = "serde")]
impl<const D: usize> serde::Serialize for Point<D> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeTuple;
        let mut tup = serializer.serialize_tuple(D)?;
        for c in &self.coords {
            tup.serialize_element(c)?;
        }
        tup.end()
    }
}

#[cfg(feature = "serde")]
impl<'de, const D: usize> serde::Deserialize<'de> for Point<D> {
    fn deserialize<De: serde::Deserializer<'de>>(deserializer: De) -> Result<Self, De::Error> {
        struct CoordsVisitor<const D: usize>;
        impl<'de, const D: usize> serde::de::Visitor<'de> for CoordsVisitor<D> {
            type Value = Point<D>;

            fn expecting(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "a sequence of {D} coordinates")
            }

            fn visit_seq<A: serde::de::SeqAccess<'de>>(
                self,
                mut seq: A,
            ) -> Result<Point<D>, A::Error> {
                let mut coords = [0u32; D];
                for (i, c) in coords.iter_mut().enumerate() {
                    *c = seq
                        .next_element()?
                        .ok_or_else(|| serde::de::Error::invalid_length(i, &self))?;
                }
                Ok(Point::new(coords))
            }
        }
        deserializer.deserialize_tuple(D, CoordsVisitor::<D>)
    }
}

impl<const D: usize> Point<D> {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(coords: [u32; D]) -> Self {
        Self { coords }
    }

    /// The origin `(0, …, 0)`.
    #[inline]
    pub const fn origin() -> Self {
        Self { coords: [0; D] }
    }

    /// The coordinates as an array.
    #[inline]
    pub const fn coords(&self) -> [u32; D] {
        self.coords
    }

    /// The coordinate along `axis` (0-based; the paper's dimension `axis+1`).
    ///
    /// # Panics
    /// Panics if `axis >= D`.
    #[inline]
    pub fn coord(&self, axis: usize) -> u32 {
        self.coords[axis]
    }

    /// Returns a copy with the coordinate along `axis` replaced by `value`.
    #[inline]
    #[must_use]
    pub fn with_coord(mut self, axis: usize, value: u32) -> Self {
        self.coords[axis] = value;
        self
    }

    /// Returns the neighbor offset by `+1` along `axis`, or `None` on
    /// overflow of the coordinate type (grid bounds are checked by
    /// [`Grid`](crate::Grid), not here).
    #[inline]
    pub fn step_up(&self, axis: usize) -> Option<Self> {
        let c = self.coords[axis].checked_add(1)?;
        Some(self.with_coord(axis, c))
    }

    /// Returns the neighbor offset by `−1` along `axis`, or `None` if the
    /// coordinate is already `0`.
    #[inline]
    pub fn step_down(&self, axis: usize) -> Option<Self> {
        let c = self.coords[axis].checked_sub(1)?;
        Some(self.with_coord(axis, c))
    }

    /// Manhattan distance `Δ(α, β) = Σ_i |α_i − β_i|` (paper, Section III).
    #[inline]
    pub fn manhattan(&self, other: &Self) -> u64 {
        let mut sum = 0u64;
        for i in 0..D {
            sum += u64::from(self.coords[i].abs_diff(other.coords[i]));
        }
        sum
    }

    /// Squared Euclidean distance `Σ_i (α_i − β_i)²`, exact in `u128`:
    /// one axis's square fits a `u64`, but on a `k = 32` grid two of them
    /// already overflow it.
    #[inline]
    pub fn euclidean_sq(&self, other: &Self) -> u128 {
        let mut sum = 0u128;
        for i in 0..D {
            let diff = u64::from(self.coords[i].abs_diff(other.coords[i]));
            sum += u128::from(diff * diff);
        }
        sum
    }

    /// Euclidean distance `Δ_E(α, β)` (paper, Section V.B).
    #[inline]
    pub fn euclidean(&self, other: &Self) -> f64 {
        (self.euclidean_sq(other) as f64).sqrt()
    }

    /// The single axis along which two points differ, if they differ along
    /// exactly one axis (regardless of by how much); `None` otherwise.
    pub fn differing_axis(&self, other: &Self) -> Option<usize> {
        let mut found = None;
        for i in 0..D {
            if self.coords[i] != other.coords[i] {
                if found.is_some() {
                    return None;
                }
                found = Some(i);
            }
        }
        found
    }
}

impl<const D: usize> fmt::Display for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl<const D: usize> From<[u32; D]> for Point<D> {
    #[inline]
    fn from(coords: [u32; D]) -> Self {
        Self::new(coords)
    }
}

impl<const D: usize> From<Point<D>> for [u32; D] {
    #[inline]
    fn from(p: Point<D>) -> Self {
        p.coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_matches_paper_example() {
        // Figure 2 of the paper: α = (1,1), β = (3,5) has Δ = 2 + 4 = 6.
        let a = Point::new([1, 1]);
        let b = Point::new([3, 5]);
        assert_eq!(a.manhattan(&b), 6);
        assert_eq!(b.manhattan(&a), 6);
    }

    #[test]
    fn euclidean_matches_hand_computation() {
        let a = Point::new([0, 0]);
        let b = Point::new([3, 4]);
        assert_eq!(a.euclidean_sq(&b), 25);
        assert!((a.euclidean(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new([5, 6, 7, 8]);
        assert_eq!(p.manhattan(&p), 0);
        assert_eq!(p.euclidean_sq(&p), 0);
    }

    #[test]
    fn step_up_and_down() {
        let p = Point::new([0, 7]);
        assert_eq!(p.step_up(0), Some(Point::new([1, 7])));
        assert_eq!(p.step_down(0), None);
        assert_eq!(p.step_down(1), Some(Point::new([0, 6])));
        let m = Point::new([u32::MAX]);
        assert_eq!(m.step_up(0), None);
    }

    #[test]
    fn differing_axis_detects_single_axis() {
        let p = Point::new([1, 2, 3]);
        assert_eq!(p.differing_axis(&Point::new([1, 5, 3])), Some(1));
        assert_eq!(p.differing_axis(&Point::new([1, 2, 3])), None);
        assert_eq!(p.differing_axis(&Point::new([0, 2, 4])), None);
    }

    #[test]
    fn display_formats_tuple() {
        assert_eq!(Point::new([1, 2, 3]).to_string(), "(1, 2, 3)");
        assert_eq!(Point::new([9]).to_string(), "(9)");
    }

    #[test]
    fn conversions_roundtrip() {
        let arr = [4u32, 5, 6];
        let p: Point<3> = arr.into();
        let back: [u32; 3] = p.into();
        assert_eq!(arr, back);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_roundtrip_as_coordinate_tuple() {
        use serde_test::{assert_tokens, Token};
        let p = Point::new([3u32, 7, 11]);
        assert_tokens(
            &p,
            &[
                Token::Tuple { len: 3 },
                Token::U32(3),
                Token::U32(7),
                Token::U32(11),
                Token::TupleEnd,
            ],
        );
    }

    #[test]
    fn euclidean_le_manhattan_and_manhattan_le_sqrt_d_euclidean() {
        // Standard norm inequalities used implicitly in the paper's
        // Proposition 3 proof: Δ_E ≤ Δ ≤ √d · Δ_E.
        let a = Point::new([1, 2, 3]);
        let b = Point::new([4, 0, 9]);
        let man = a.manhattan(&b) as f64;
        let euc = a.euclidean(&b);
        assert!(euc <= man + 1e-12);
        assert!(man <= 3f64.sqrt() * euc + 1e-12);
    }
}
