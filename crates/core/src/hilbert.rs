//! The `d`-dimensional Hilbert curve.
//!
//! The paper lists the average NN-stretch of the Hilbert curve as an open
//! question (Section VI); this implementation lets the experiment harness
//! *measure* it alongside the curves the paper analyses exactly.
//!
//! The implementation is John Skilling's transpose algorithm
//! (*"Programming the Hilbert curve"*, AIP Conf. Proc. 707, 2004), which
//! maps between axis coordinates and the "transpose" form of the Hilbert
//! index in `O(d·k)` bit operations, for any dimension. The transpose form
//! is then packed into a single [`CurveIndex`] with the same interleaving
//! convention as the Z curve (axis 0 most significant within each group).
//!
//! Unlike the Z curve, the Hilbert curve is *continuous*: cells at
//! consecutive indices are always nearest neighbors — a property the tests
//! verify exhaustively on small grids in 2, 3 and 4 dimensions.
//!
//! The scalar Skilling code is the oracle for the batch kernels. The 2-D
//! batch encode is a branch-free prefix scan over the curve's four
//! orientation states, 32 levels at once in `u32` lanes (`scan_2d`).
//! The 3-D batch encode and both batch decodes run on the state-transition
//! tables of `hilbert_tables.rs`.

use crate::bits::{dilate, dilate2_u16, dilate3_lut, undilate, undilate2_lut, undilate3};
use crate::curve::SpaceFillingCurve;
use crate::error::SfcError;
use crate::grid::Grid;
use crate::hilbert_tables::{tables_2d, tables_3d};
use crate::point::Point;
use crate::CurveIndex;

/// The `d`-dimensional Hilbert curve on the grid of side `2^k`.
///
/// ```
/// use sfc_core::{HilbertCurve, Point, SpaceFillingCurve};
/// let h = HilbertCurve::<2>::new(1).unwrap();
/// // The first-order 2-D Hilbert curve starts at the origin and is a
/// // Hamiltonian path on the 2×2 grid.
/// assert_eq!(h.point_of(0), Point::new([0, 0]));
/// let order: Vec<_> = h.traverse().collect();
/// for pair in order.windows(2) {
///     assert_eq!(pair[0].manhattan(&pair[1]), 1);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertCurve<const D: usize> {
    grid: Grid<D>,
}

impl<const D: usize> HilbertCurve<D> {
    /// Creates the Hilbert curve over the grid of side `2^k`.
    pub fn new(k: u32) -> Result<Self, SfcError> {
        Ok(Self {
            grid: Grid::new(k)?,
        })
    }

    /// Creates the Hilbert curve over an existing grid.
    pub fn over(grid: Grid<D>) -> Self {
        Self { grid }
    }

    /// Skilling's `AxestoTranspose`: converts grid coordinates into the
    /// transpose form of the Hilbert index.
    ///
    /// Internal arithmetic is `u64` so the bit masks stay in range even at
    /// the maximum `k = 32`.
    fn axes_to_transpose(&self, coords: [u32; D]) -> [u32; D] {
        let k = self.grid.k();
        let mut x = [0u64; D];
        for (xi, &c) in x.iter_mut().zip(coords.iter()) {
            *xi = u64::from(c);
        }
        if k == 0 {
            return coords;
        }
        let m = 1u64 << (k - 1);
        // Inverse undo.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..D {
                if x[i] & q != 0 {
                    x[0] ^= p; // invert low bits of x[0]
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode.
        for i in 1..D {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u64;
        let mut q = m;
        while q > 1 {
            if x[D - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        let mut out = [0u32; D];
        for (o, xi) in out.iter_mut().zip(x.iter()) {
            *o = (*xi ^ t) as u32;
        }
        out
    }

    /// Skilling's `TransposetoAxes`: inverse of
    /// [`axes_to_transpose`](Self::axes_to_transpose).
    fn transpose_to_axes(&self, transpose: [u32; D]) -> [u32; D] {
        let k = self.grid.k();
        if k == 0 {
            return transpose;
        }
        let mut x = [0u64; D];
        for (xi, &c) in x.iter_mut().zip(transpose.iter()) {
            *xi = u64::from(c);
        }
        let m = 1u64 << k;
        // Gray decode by H ^ (H/2).
        let t = x[D - 1] >> 1;
        for i in (1..D).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work.
        let mut q = 2u64;
        while q != m {
            let p = q - 1;
            for i in (0..D).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
        let mut out = [0u32; D];
        for (o, xi) in out.iter_mut().zip(x.iter()) {
            *o = *xi as u32;
        }
        out
    }

    /// Packs the transpose form into a single index: bit `j` of transpose
    /// word `i` becomes bit `j·d + (d−1−i)` of the index (the same layout as
    /// the Z curve key).
    fn pack(&self, transpose: [u32; D]) -> CurveIndex {
        let k = self.grid.k();
        let mut key = 0u128;
        for (axis, &w) in transpose.iter().enumerate() {
            key |= dilate(w, D, k) << (D - 1 - axis);
        }
        key
    }

    /// Inverse of [`pack`](Self::pack).
    fn unpack(&self, key: CurveIndex) -> [u32; D] {
        let k = self.grid.k();
        let mut transpose = [0u32; D];
        for (axis, w) in transpose.iter_mut().enumerate() {
            *w = undilate(key >> (D - 1 - axis), D, k);
        }
        transpose
    }
}

impl<const D: usize> SpaceFillingCurve<D> for HilbertCurve<D> {
    fn grid(&self) -> Grid<D> {
        self.grid
    }

    fn index_of(&self, p: Point<D>) -> CurveIndex {
        self.pack(self.axes_to_transpose(p.coords()))
    }

    fn point_of(&self, idx: CurveIndex) -> Point<D> {
        Point::new(self.transpose_to_axes(self.unpack(idx)))
    }

    /// Batch encode. In 2-D, a branch-free prefix scan over chunks of
    /// 32-bit lanes (`encode_2d_batch`); in 3-D, the state-transition
    /// tables (`hilbert_tables.rs`): LUT-dilate each point to its
    /// Morton key, then transduce Morton → Hilbert 6 bits per table lookup.
    /// Other dimensions run the scalar path. Identical output to the scalar
    /// Skilling path, verified against it in this module's tests and by the
    /// workspace property tests.
    fn index_of_batch(&self, points: &[Point<D>], out: &mut Vec<CurveIndex>) {
        let k = self.grid.k();
        out.clear();
        out.reserve(points.len());
        if D == 2 {
            encode_2d_batch(points, k, out);
        } else if D == 3 && k <= 21 {
            let t = tables_3d();
            out.extend(points.iter().map(|p| {
                let c = p.coords();
                let m = dilate3_lut(c[0]) << 2 | dilate3_lut(c[1]) << 1 | dilate3_lut(c[2]);
                u128::from(t.encode(m, k))
            }));
        } else {
            out.extend(points.iter().map(|&p| self.index_of(p)));
        }
    }

    /// Batch decode: the inverse transduction (Hilbert → Morton), then
    /// LUT undilation.
    fn point_of_batch(&self, indices: &[CurveIndex], out: &mut Vec<Point<D>>) {
        let k = self.grid.k();
        out.clear();
        out.reserve(indices.len());
        if D == 2 && k <= 32 {
            let t = tables_2d();
            out.extend(indices.iter().map(|&idx| {
                let m = t.decode(idx as u64, k);
                let mut coords = [0u32; D];
                coords[0] = undilate2_lut(m >> 1);
                coords[1] = undilate2_lut(m);
                Point::new(coords)
            }));
        } else if D == 3 && k <= 21 {
            let t = tables_3d();
            out.extend(indices.iter().map(|&idx| {
                let m = t.decode(idx as u64, k);
                let mut coords = [0u32; D];
                coords[0] = undilate3((m >> 2) & 0x1249_2492_4924_9249);
                coords[1] = undilate3((m >> 1) & 0x1249_2492_4924_9249);
                coords[2] = undilate3(m & 0x1249_2492_4924_9249);
                Point::new(coords)
            }));
        } else {
            out.extend(indices.iter().map(|&i| self.point_of(i)));
        }
    }

    fn name(&self) -> String {
        "hilbert".to_string()
    }

    fn is_block_recursive(&self) -> bool {
        true
    }
}

/// Points per stack chunk of [`encode_2d_batch`]: two 256-byte lane
/// arrays. A batch shorter than a chunk scans only its own lanes.
const SCAN_CHUNK: usize = 64;

/// The 2-D batch encode: the two bit planes of each point's Hilbert index
/// from the prefix scan [`scan_2d`], interleaved in the same lanes by the
/// shift ladder [`dilate2_u16`], one 16-bit half of each plane at a time,
/// into the key's low and high 32 bits. Points are copied a chunk at a
/// time into `u32` lane arrays, so the scan and the interleave are loops
/// over plain slices that rustc vectorises (4 lanes per SSE2 register);
/// each key is widened to a [`CurveIndex`] only on the way out. Eight
/// `DILATE2_LUT` loads a key cost 1.07–1.26× as much here (see its doc).
fn encode_2d_batch<const D: usize>(points: &[Point<D>], k: u32, out: &mut Vec<CurveIndex>) {
    if k == 0 {
        out.resize(points.len(), 0);
        return;
    }
    // The top level of a coordinate goes to bit 31 of its lane.
    let shift = 32 - k;
    let (mut xs, mut ys) = ([0u32; SCAN_CHUNK], [0u32; SCAN_CHUNK]);
    for chunk in points.chunks(SCAN_CHUNK) {
        let (xs, ys) = (&mut xs[..chunk.len()], &mut ys[..chunk.len()]);
        for ((x, y), p) in xs.iter_mut().zip(ys.iter_mut()).zip(chunk) {
            let c = p.coords();
            (*x, *y) = (c[0] << shift, c[1] << shift);
        }
        for (x, y) in xs.iter_mut().zip(ys.iter_mut()) {
            (*x, *y) = scan_2d(*x, *y);
        }
        // Each plane's levels back at the bottom, then its 16-bit halves
        // interleaved in place: `xs` takes the key's high 32 bits, `ys`
        // its low 32.
        for (hi, lo) in xs.iter_mut().zip(ys.iter_mut()) {
            let (h, l) = (*hi >> shift, *lo >> shift);
            *hi = (dilate2_u16(h >> 16) << 1) | dilate2_u16(l >> 16);
            *lo = (dilate2_u16(h & 0xFFFF) << 1) | dilate2_u16(l & 0xFFFF);
        }
        out.extend(
            xs.iter()
                .zip(ys.iter())
                .map(|(&hi, &lo)| u128::from(u64::from(hi) << 32 | u64::from(lo))),
        );
    }
}

/// The 2-D Hilbert index of the point whose coordinates fill the lanes
/// `x` and `y` from bit 31 down (one level per bit), as its two bit
/// planes `(hi, lo)`: bit `j` of `hi` and of `lo` are the two index bits
/// of the level in bit `j`. The low plane is `x ^ y` whatever the state.
///
/// The 2-D curve's four subcube orientations form the Klein four-group,
/// and with the state `s` written as an element of GF(4), each level's
/// transition, read off its quadrant, is an affine map `s ↦ λ·s + v`. So
/// the state entering every level comes from a prefix scan, not a chain
/// of dependent table loads. Per bit, the words `a`, `b` hold `λ = a + bω`
/// and `c`, `d` hold `v`. A round at shift `n` composes each bit's map
/// with the map `n` bits above it: `(λ, v) ← (λ·λ↑, v + λ·v↑)`. The seed
/// round reads off each level's map composed with the one above; rounds at
/// 2, 4 and 8 follow; the curve starts in state 0, so the last round, at
/// 16, needs only the offsets, which are then the states. Branch-free, in
/// `O(log 32)` rounds.
#[inline(always)]
fn scan_2d(x: u32, y: u32) -> (u32, u32) {
    let (mut a, mut b, mut c, mut d) = {
        let a = x ^ y;
        let b = !a;
        let c = !(x | y);
        let d = x & !y;
        (
            a | (b >> 1),
            (a >> 1) ^ a,
            (c >> 1) ^ (b & (d >> 1)) ^ c,
            (a & (c >> 1)) ^ (d >> 1) ^ d,
        )
    };
    for n in [2, 4, 8] {
        (a, b, c, d) = (
            (a & (a >> n)) ^ (b & (b >> n)),
            (a & (b >> n)) ^ (b & ((a ^ b) >> n)),
            c ^ (a & (c >> n)) ^ (b & (d >> n)),
            d ^ (b & (c >> n)) ^ ((a ^ b) & (d >> n)),
        );
    }
    (c, d) = (
        c ^ (a & (c >> 16)) ^ (b & (d >> 16)),
        d ^ (b & (c >> 16)) ^ ((a ^ b) & (d >> 16)),
    );
    let lo = x ^ y;
    let (dc, dd) = (c ^ (c >> 1), d ^ (d >> 1));
    (dd | !(lo | dc), lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn is_bijective() {
        HilbertCurve::<1>::new(4)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<2>::new(1)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<2>::new(2)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<2>::new(3)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<2>::new(4)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<3>::new(1)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<3>::new(2)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<3>::new(3)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<4>::new(1)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<4>::new(2)
            .unwrap()
            .validate_bijection()
            .unwrap();
        HilbertCurve::<5>::new(1)
            .unwrap()
            .validate_bijection()
            .unwrap();
    }

    #[test]
    fn is_continuous_in_every_tested_dimension() {
        // The defining Hilbert property: a Hamiltonian path on the grid.
        assert!(HilbertCurve::<2>::new(1).unwrap().is_continuous());
        assert!(HilbertCurve::<2>::new(2).unwrap().is_continuous());
        assert!(HilbertCurve::<2>::new(3).unwrap().is_continuous());
        assert!(HilbertCurve::<2>::new(4).unwrap().is_continuous());
        assert!(HilbertCurve::<2>::new(5).unwrap().is_continuous());
        assert!(HilbertCurve::<3>::new(1).unwrap().is_continuous());
        assert!(HilbertCurve::<3>::new(2).unwrap().is_continuous());
        assert!(HilbertCurve::<3>::new(3).unwrap().is_continuous());
        assert!(HilbertCurve::<4>::new(1).unwrap().is_continuous());
        assert!(HilbertCurve::<4>::new(2).unwrap().is_continuous());
        assert!(HilbertCurve::<5>::new(1).unwrap().is_continuous());
    }

    #[test]
    fn starts_at_origin() {
        assert_eq!(
            HilbertCurve::<2>::new(3).unwrap().point_of(0),
            Point::origin()
        );
        assert_eq!(
            HilbertCurve::<3>::new(2).unwrap().point_of(0),
            Point::origin()
        );
        assert_eq!(
            HilbertCurve::<4>::new(2).unwrap().point_of(0),
            Point::origin()
        );
    }

    #[test]
    fn one_dimension_is_identity() {
        let h = HilbertCurve::<1>::new(5).unwrap();
        for p in h.grid().cells() {
            assert_eq!(h.index_of(p), u128::from(p.coord(0)));
        }
    }

    #[test]
    fn order_one_2d_curve_is_the_classic_u_shape() {
        let h = HilbertCurve::<2>::new(1).unwrap();
        let order: Vec<_> = h.traverse().collect();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], Point::new([0, 0]));
        // A U-shape: the last cell is adjacent to the first's row or column;
        // all consecutive steps are unit steps.
        for pair in order.windows(2) {
            assert_eq!(pair[0].manhattan(&pair[1]), 1);
        }
        // Visits all 4 cells.
        let set: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn nested_structure_quadrant_locality() {
        // Hilbert visits each quadrant of the grid in one contiguous index
        // range: for an 8×8 grid, indices 0..16 lie in a single 4×4
        // quadrant, etc.
        let h = HilbertCurve::<2>::new(3).unwrap();
        for q in 0..4u128 {
            let cells: Vec<_> = (q * 16..(q + 1) * 16).map(|i| h.point_of(i)).collect();
            let min_x = cells.iter().map(|p| p.coord(0)).min().unwrap();
            let max_x = cells.iter().map(|p| p.coord(0)).max().unwrap();
            let min_y = cells.iter().map(|p| p.coord(1)).min().unwrap();
            let max_y = cells.iter().map(|p| p.coord(1)).max().unwrap();
            assert!(max_x - min_x <= 3 && max_y - min_y <= 3, "quadrant {q}");
            assert!(min_x % 4 == 0 && min_y % 4 == 0, "quadrant {q}");
        }
    }

    #[test]
    fn batch_2d_equals_skilling_on_every_cell_up_to_k6() {
        for k in 0..=6 {
            let h = HilbertCurve::<2>::new(k).unwrap();
            let cells: Vec<_> = h.grid().cells().collect();
            let mut keys = Vec::new();
            h.index_of_batch(&cells, &mut keys);
            let want: Vec<_> = cells.iter().map(|&p| h.index_of(p)).collect();
            assert_eq!(keys, want, "k={k}");
        }
    }

    #[test]
    fn batch_2d_equals_skilling_at_every_k_and_chunk_edge() {
        for k in 0..=32 {
            let h = HilbertCurve::<2>::new(k).unwrap();
            let mask = u32::MAX.checked_shr(32 - k).unwrap_or(0);
            let cells: Vec<_> = (0u32..2 * SCAN_CHUNK as u32 + 1)
                .map(|i| {
                    let x = i.wrapping_mul(0x9E37_79B9) ^ (i << 7);
                    let y = i.wrapping_mul(0x85EB_CA6B).rotate_left(11);
                    Point::new([x & mask, y & mask])
                })
                .collect();
            for len in [
                0,
                1,
                SCAN_CHUNK - 1,
                SCAN_CHUNK,
                SCAN_CHUNK + 1,
                cells.len(),
            ] {
                let mut keys = Vec::new();
                h.index_of_batch(&cells[..len], &mut keys);
                let want: Vec<_> = cells[..len].iter().map(|&p| h.index_of(p)).collect();
                assert_eq!(keys, want, "k={k} len={len}");
            }
        }
    }

    proptest! {
        #[test]
        fn roundtrip_d2(x in 0u32..(1 << 10), y in 0u32..(1 << 10)) {
            let h = HilbertCurve::<2>::new(10).unwrap();
            let p = Point::new([x, y]);
            prop_assert_eq!(h.point_of(h.index_of(p)), p);
        }

        #[test]
        fn roundtrip_d3(coords in proptest::array::uniform3(0u32..(1 << 7))) {
            let h = HilbertCurve::<3>::new(7).unwrap();
            let p = Point::new(coords);
            prop_assert_eq!(h.point_of(h.index_of(p)), p);
        }

        #[test]
        fn consecutive_indices_are_grid_neighbors_d2(i in 0u128..((1u128 << 12) - 1)) {
            let h = HilbertCurve::<2>::new(6).unwrap();
            let a = h.point_of(i);
            let b = h.point_of(i + 1);
            prop_assert_eq!(a.manhattan(&b), 1);
        }
    }
}
