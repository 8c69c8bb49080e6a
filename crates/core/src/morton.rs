//! The Z curve (Morton order), with exactly the paper's bit convention.
//!
//! The paper (Section IV.B) defines the key of a cell `x = (x₁, …, x_d)` as
//! the binary string
//! `x₁¹ x₂¹ ⋯ x_d¹  x₁² x₂² ⋯ x_d²  ⋯  x₁ᵏ x₂ᵏ ⋯ x_dᵏ`,
//! where `x_iʲ` is the *j-th most significant* bit of coordinate `x_i`.
//! In other words coordinate bits are interleaved most-significant group
//! first, and within a group **dimension 1 is most significant**.
//!
//! In code, axis `a` (0-based) is the paper's dimension `a+1`, so bit `b`
//! (0 = LSB) of axis `a` lands at key bit `b·d + (d−1−a)`.
//!
//! The paper's worked example `d = 3, k = 3`:
//! `Z(101, 010, 011) = 100011101` — verified in the tests below and in the
//! crate-level docs.

use crate::bits::{
    dilate, dilate2, dilate2_lut, dilate3, dilate3_lut, undilate, undilate2, undilate3,
};
use crate::curve::SpaceFillingCurve;
use crate::error::SfcError;
use crate::grid::Grid;
use crate::point::Point;
use crate::CurveIndex;

/// The `d`-dimensional Z curve (Morton order) on the grid of side `2^k`.
///
/// ```
/// use sfc_core::{Point, SpaceFillingCurve, ZCurve};
/// let z = ZCurve::<2>::new(3).unwrap();
/// // Figure 3 of the paper: cell (x1, x2) = (010, 001) has key 001001... let's
/// // check one: key of (011, 010) interleaves to 001110 = 14? Work it out:
/// // bits MSB-first: (0,0),(1,1),(1,0) → 00 11 10 = 0b001110.
/// assert_eq!(z.index_of(Point::new([0b011, 0b010])), 0b001110);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZCurve<const D: usize> {
    grid: Grid<D>,
}

impl<const D: usize> ZCurve<D> {
    /// Creates the Z curve over the grid of side `2^k`.
    pub fn new(k: u32) -> Result<Self, SfcError> {
        Ok(Self {
            grid: Grid::new(k)?,
        })
    }

    /// Creates the Z curve over an existing grid.
    pub fn over(grid: Grid<D>) -> Self {
        Self { grid }
    }

    /// Encodes a point into its Morton key (the paper's `Z(x)`).
    #[inline]
    pub fn encode(&self, p: Point<D>) -> CurveIndex {
        let k = self.grid.k();
        let coords = p.coords();
        // Monomorphized fast paths; the branches are resolved at compile
        // time because `D` is const.
        if D == 2 && k <= 32 {
            let hi = u128::from(dilate2(coords[0])) << 1;
            let lo = u128::from(dilate2(coords[1]));
            return hi | lo;
        }
        if D == 3 && k <= 21 {
            let a = u128::from(dilate3(coords[0])) << 2;
            let b = u128::from(dilate3(coords[1])) << 1;
            let c = u128::from(dilate3(coords[2]));
            return a | b | c;
        }
        let mut key = 0u128;
        for (axis, &c) in coords.iter().enumerate() {
            key |= dilate(c, D, k) << (D - 1 - axis);
        }
        key
    }

    /// Decodes a Morton key back into a point.
    #[inline]
    pub fn decode(&self, key: CurveIndex) -> Point<D> {
        let k = self.grid.k();
        if D == 2 && k <= 32 {
            let x0 = undilate2((key >> 1) as u64 & 0x5555_5555_5555_5555);
            let x1 = undilate2(key as u64 & 0x5555_5555_5555_5555);
            let mut coords = [0u32; D];
            coords[0] = x0;
            coords[1] = x1;
            return Point::new(coords);
        }
        if D == 3 && k <= 21 {
            let mut coords = [0u32; D];
            coords[0] = undilate3((key >> 2) as u64 & 0x1249_2492_4924_9249);
            coords[1] = undilate3((key >> 1) as u64 & 0x1249_2492_4924_9249);
            coords[2] = undilate3(key as u64 & 0x1249_2492_4924_9249);
            return Point::new(coords);
        }
        let mut coords = [0u32; D];
        for (axis, c) in coords.iter_mut().enumerate() {
            *c = undilate(key >> (D - 1 - axis), D, k);
        }
        Point::new(coords)
    }

    /// Table-driven encode: identical output to [`encode`](Self::encode),
    /// using the 256-entry dilation LUTs ([`crate::bits::DILATE2_LUT`] /
    /// [`crate::bits::DILATE3_LUT`]) instead of the magic-mask ladder.
    ///
    /// This is the kernel behind
    /// [`index_of_batch`](SpaceFillingCurve::index_of_batch): over a batch
    /// the tables stay L1-resident and the loop body is branch-free, so
    /// the compiler can keep the pipeline full.
    #[inline]
    pub fn encode_lut(&self, p: Point<D>) -> CurveIndex {
        let k = self.grid.k();
        let coords = p.coords();
        if D == 2 && k <= 32 {
            let hi = u128::from(dilate2_lut(coords[0])) << 1;
            let lo = u128::from(dilate2_lut(coords[1]));
            return hi | lo;
        }
        if D == 3 && k <= 21 {
            let a = u128::from(dilate3_lut(coords[0])) << 2;
            let b = u128::from(dilate3_lut(coords[1])) << 1;
            let c = u128::from(dilate3_lut(coords[2]));
            return a | b | c;
        }
        self.encode(p)
    }

    /// The exact curve distance between the two endpoints of a
    /// nearest-neighbor edge along `axis` whose lower coordinate is `c`.
    ///
    /// This is the quantity analysed in the paper's Lemma 5: if the paper's
    /// dimension is `i = axis + 1` and `c` ends in `j−1` one-bits, then
    /// `Δ_Z = 2^{jd−i} − Σ_{ℓ=1}^{j−1} 2^{ℓd−i}`.
    pub fn nn_edge_distance(&self, axis: usize, c: u32) -> CurveIndex {
        debug_assert!(u64::from(c) + 1 < self.grid.side());
        let i = axis + 1; // paper's dimension index
        let j = (c.trailing_ones() + 1) as usize;
        let mut dist: i128 = 1i128 << (j * D - i);
        for l in 1..j {
            dist -= 1i128 << (l * D - i);
        }
        debug_assert!(dist > 0);
        dist as u128
    }
}

impl<const D: usize> SpaceFillingCurve<D> for ZCurve<D> {
    fn grid(&self) -> Grid<D> {
        self.grid
    }

    #[inline]
    fn index_of(&self, p: Point<D>) -> CurveIndex {
        self.encode(p)
    }

    #[inline]
    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        self.decode(idx)
    }

    fn index_of_batch(&self, points: &[Point<D>], out: &mut Vec<CurveIndex>) {
        out.clear();
        out.reserve(points.len());
        // `extend` from an exact-size iterator keeps the loop free of
        // per-element capacity checks; `encode_lut` is branch-free for the
        // monomorphized d = 2, 3 fast paths.
        out.extend(points.iter().map(|&p| self.encode_lut(p)));
    }

    fn point_of_batch(&self, indices: &[CurveIndex], out: &mut Vec<Point<D>>) {
        out.clear();
        out.reserve(indices.len());
        out.extend(indices.iter().map(|&i| self.decode(i)));
    }

    fn name(&self) -> String {
        "Z".to_string()
    }

    fn as_morton(&self) -> Option<&ZCurve<D>> {
        Some(self)
    }

    fn is_block_recursive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_worked_example_d3_k3() {
        // Z(101, 010, 011) = 100011101 (paper, Section IV.B).
        let z = ZCurve::<3>::new(3).unwrap();
        let p = Point::new([0b101, 0b010, 0b011]);
        assert_eq!(z.index_of(p), 0b100011101);
        assert_eq!(z.point_of(0b100011101), p);
    }

    #[test]
    fn figure_3_key_layout_8x8() {
        // Figure 3: the cell in the bottom-left corner has key 000000, its
        // right neighbor (x1=001, x2=000) has key 000010 (dim 1 is the
        // higher bit in each pair), and its upper neighbor (x1=000, x2=001)
        // has key 000001.
        let z = ZCurve::<2>::new(3).unwrap();
        assert_eq!(z.index_of(Point::new([0, 0])), 0b000000);
        assert_eq!(z.index_of(Point::new([1, 0])), 0b000010);
        assert_eq!(z.index_of(Point::new([0, 1])), 0b000001);
        // Top-right cell of the figure: (111, 111) → 111111.
        assert_eq!(z.index_of(Point::new([7, 7])), 0b111111);
        // A mid-grid cell from the figure: (011, 101) → the key whose pairs
        // are (0,1),(1,0),(1,1) = 01 10 11.
        assert_eq!(z.index_of(Point::new([0b011, 0b101])), 0b011011);
    }

    #[test]
    fn z_is_bijective_for_various_d_and_k() {
        macro_rules! check {
            ($d:literal, $k:expr) => {
                ZCurve::<$d>::new($k).unwrap().validate_bijection().unwrap();
            };
        }
        check!(1, 5);
        check!(2, 3);
        check!(3, 2);
        check!(4, 2);
        check!(5, 1);
        check!(6, 1);
    }

    #[test]
    fn generic_path_matches_fast_path_d2() {
        // Force the generic path by comparing against hand-dilated values on
        // a grid with k > 32 impossible; instead compare fast-path results
        // with the definition for all cells of an 8×8 grid.
        let z = ZCurve::<2>::new(3).unwrap();
        for p in z.grid().cells() {
            let mut expected = 0u128;
            for (axis, &c) in p.coords().iter().enumerate() {
                expected |= dilate(c, 2, 3) << (1 - axis);
            }
            assert_eq!(z.encode(p), expected, "at {p}");
        }
    }

    #[test]
    fn generic_path_matches_fast_path_d3() {
        let z = ZCurve::<3>::new(2).unwrap();
        for p in z.grid().cells() {
            let mut expected = 0u128;
            for (axis, &c) in p.coords().iter().enumerate() {
                expected |= dilate(c, 3, 2) << (2 - axis);
            }
            assert_eq!(z.encode(p), expected, "at {p}");
        }
    }

    #[test]
    fn lut_encode_and_batch_match_scalar() {
        let z2 = ZCurve::<2>::new(3).unwrap();
        let pts2: Vec<Point<2>> = z2.grid().cells().collect();
        let mut keys = Vec::new();
        z2.index_of_batch(&pts2, &mut keys);
        for (p, &key) in pts2.iter().zip(&keys) {
            assert_eq!(key, z2.index_of(*p), "at {p}");
            assert_eq!(z2.encode_lut(*p), z2.encode(*p), "at {p}");
        }
        let mut back = Vec::new();
        z2.point_of_batch(&keys, &mut back);
        assert_eq!(back, pts2);

        let z3 = ZCurve::<3>::new(2).unwrap();
        let pts3: Vec<Point<3>> = z3.grid().cells().collect();
        z3.index_of_batch(&pts3, &mut keys);
        for (p, &key) in pts3.iter().zip(&keys) {
            assert_eq!(key, z3.index_of(*p), "at {p}");
        }
        // Generic dimension falls back to the scalar path.
        let z5 = ZCurve::<5>::new(1).unwrap();
        let pts5: Vec<Point<5>> = z5.grid().cells().collect();
        z5.index_of_batch(&pts5, &mut keys);
        for (p, &key) in pts5.iter().zip(&keys) {
            assert_eq!(key, z5.index_of(*p), "at {p}");
        }
    }

    #[test]
    fn lsb_neighbor_distance_is_2_pow_d_minus_i() {
        // Lemma 5, base case: neighbors along the paper's dimension i whose
        // lower coordinate has LSB 0 are at curve distance 2^{d−i}.
        let z = ZCurve::<3>::new(3).unwrap();
        for axis in 0..3 {
            let i = axis + 1;
            let a = Point::new([2, 4, 6]); // all even coordinates
            let b = a.step_up(axis).unwrap();
            assert_eq!(z.curve_distance(a, b), 1 << (3 - i), "axis {axis}");
        }
    }

    #[test]
    fn nn_edge_distance_formula_matches_measured() {
        let z2 = ZCurve::<2>::new(4).unwrap();
        for axis in 0..2 {
            for c in 0..15u32 {
                let mut coords = [5u32, 9];
                coords[axis] = c;
                let a = Point::new(coords);
                let b = a.step_up(axis).unwrap();
                assert_eq!(
                    z2.curve_distance(a, b),
                    z2.nn_edge_distance(axis, c),
                    "d=2 axis={axis} c={c}"
                );
            }
        }
        let z3 = ZCurve::<3>::new(3).unwrap();
        for axis in 0..3 {
            for c in 0..7u32 {
                let mut coords = [3u32, 1, 6];
                coords[axis] = c;
                let a = Point::new(coords);
                let b = a.step_up(axis).unwrap();
                assert_eq!(
                    z3.curve_distance(a, b),
                    z3.nn_edge_distance(axis, c),
                    "d=3 axis={axis} c={c}"
                );
            }
        }
    }

    #[test]
    fn edge_distance_is_independent_of_other_coordinates() {
        // ΔZ for a NN edge depends only on the axis and the coordinate along
        // that axis — the other coordinates' interleaved bits are identical
        // in both keys and cancel.
        let z = ZCurve::<2>::new(3).unwrap();
        for c in 0..7u32 {
            let mut seen = None;
            for other in 0..8u32 {
                let a = Point::new([c, other]);
                let b = a.step_up(0).unwrap();
                let dist = z.curve_distance(a, b);
                if let Some(s) = seen {
                    assert_eq!(s, dist);
                } else {
                    seen = Some(dist);
                }
            }
        }
    }

    #[test]
    fn single_dimension_z_is_identity() {
        let z = ZCurve::<1>::new(6).unwrap();
        for p in z.grid().cells() {
            assert_eq!(z.index_of(p), u128::from(p.coord(0)));
        }
    }

    #[test]
    fn large_coordinate_roundtrip_d2() {
        // Exercise the k = 32 fast-path boundary.
        let z = ZCurve::<2>::new(32).unwrap();
        for &x in &[0u32, 1, u32::MAX, 0xDEAD_BEEF, 0x1234_5678] {
            for &y in &[0u32, u32::MAX, 0x0F0F_0F0F] {
                let p = Point::new([x, y]);
                assert_eq!(z.decode(z.encode(p)), p);
            }
        }
    }

    #[test]
    fn large_coordinate_roundtrip_high_d_generic() {
        let z = ZCurve::<6>::new(21).unwrap();
        let p = Point::new([0x1F_FFFF, 0, 0x15_5555, 0x0A_AAAA, 1, 0x10_0000]);
        assert_eq!(z.decode(z.encode(p)), p);
    }

    proptest! {
        #[test]
        fn roundtrip_d2(x in 0u32..(1 << 16), y in 0u32..(1 << 16)) {
            let z = ZCurve::<2>::new(16).unwrap();
            let p = Point::new([x, y]);
            prop_assert_eq!(z.decode(z.encode(p)), p);
        }

        #[test]
        fn roundtrip_d4(coords in proptest::array::uniform4(0u32..(1 << 8))) {
            let z = ZCurve::<4>::new(8).unwrap();
            let p = Point::new(coords);
            prop_assert_eq!(z.decode(z.encode(p)), p);
        }

        #[test]
        fn key_order_matches_interleaved_msb_comparison(
            a in proptest::array::uniform2(0u32..256),
            b in proptest::array::uniform2(0u32..256),
        ) {
            // The Z order compares points by the most significant differing
            // interleaved bit; an equivalent formulation is comparing
            // (max XOR-significance axis first). Here we just verify keys are
            // consistent with direct bit interleaving.
            let z = ZCurve::<2>::new(8).unwrap();
            let pa = Point::new(a);
            let pb = Point::new(b);
            let mut ka = 0u128;
            let mut kb = 0u128;
            for bit in (0..8).rev() {
                for axis in 0..2 {
                    ka = (ka << 1) | u128::from((a[axis] >> bit) & 1);
                    kb = (kb << 1) | u128::from((b[axis] >> bit) & 1);
                }
            }
            prop_assert_eq!(z.encode(pa), ka);
            prop_assert_eq!(z.encode(pb), kb);
            prop_assert_eq!(z.encode(pa) < z.encode(pb), ka < kb);
        }
    }
}
