//! BIGMIN on Morton codes (Tropf & Herzog, 1981).
//!
//! When scanning a sorted table of Z keys over the range
//! `[Z(lo), Z(hi)]` of a query box, the scan may wander into long key runs
//! whose cells lie *outside* the box (the Z curve's characteristic "jumps").
//! `BIGMIN(z, box)` computes the smallest Morton code **greater than** `z`
//! that decodes into the box, letting the scan skip the entire gap with one
//! binary search.
//!
//! The implementation walks the `d·k` key bits from most to least
//! significant, maintaining candidate box corners, exactly as in the
//! original paper — generalized to any dimension and to this crate's bit
//! convention (axis 0 most significant within each `d`-bit group, which is
//! irrelevant to the algorithm: all that matters is that bits of the same
//! axis are congruent modulo `d`).

use sfc_core::{CurveIndex, SpaceFillingCurve, ZCurve};

/// Sets bit `pos` of `v` to 1 and clears all lower bits of the same axis
/// (positions `pos − d`, `pos − 2d`, …): the "load 1000…" operation.
#[inline]
fn load_one_zeros(v: CurveIndex, pos: usize, d: usize) -> CurveIndex {
    let mut out = v | (1u128 << pos);
    let mut p = pos;
    while p >= d {
        p -= d;
        out &= !(1u128 << p);
    }
    out
}

/// Sets bit `pos` of `v` to 0 and sets all lower bits of the same axis
/// (the "load 0111…" operation).
#[inline]
fn load_zero_ones(v: CurveIndex, pos: usize, d: usize) -> CurveIndex {
    let mut out = v & !(1u128 << pos);
    let mut p = pos;
    while p >= d {
        p -= d;
        out |= 1u128 << p;
    }
    out
}

/// The smallest Morton code strictly greater than `zcode` whose cell lies
/// in the box with corner codes `zmin = Z(lo)` and `zmax = Z(hi)`, or
/// `None` if no such code exists.
///
/// `zmin`/`zmax` must be the codes of the box's lower/upper corners; for
/// the Z curve these are also the minimum and maximum codes over the box.
pub fn bigmin<const D: usize>(
    z: &ZCurve<D>,
    zcode: CurveIndex,
    mut zmin: CurveIndex,
    mut zmax: CurveIndex,
) -> Option<CurveIndex> {
    debug_assert!(zmin <= zmax);
    let total_bits = z.grid().k() as usize * D;
    let mut result: Option<CurveIndex> = None;
    for pos in (0..total_bits).rev() {
        let zb = (zcode >> pos) & 1;
        let minb = (zmin >> pos) & 1;
        let maxb = (zmax >> pos) & 1;
        match (zb, minb, maxb) {
            (0, 0, 0) => {}
            (0, 0, 1) => {
                result = Some(load_one_zeros(zmin, pos, D));
                zmax = load_zero_ones(zmax, pos, D);
            }
            (0, 1, 1) => return Some(zmin),
            (1, 0, 0) => return result,
            (1, 0, 1) => {
                zmin = load_one_zeros(zmin, pos, D);
            }
            (1, 1, 1) => {}
            // (0,1,0) and (1,1,0) mean zmin > zmax in this sub-box:
            // impossible for valid corner codes.
            _ => unreachable!("inconsistent box corner codes"),
        }
    }
    // zcode itself is in the box (all bits matched): the next code inside
    // could only have been recorded as `result`.
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::BoxRegion;
    use sfc_core::{Point, SpaceFillingCurve};

    /// Brute-force reference: smallest code > zcode decoding into the box.
    fn bigmin_brute<const D: usize>(z: &ZCurve<D>, zcode: u128, b: &BoxRegion<D>) -> Option<u128> {
        (zcode + 1..z.grid().n()).find(|&c| b.contains(&z.decode(c)))
    }

    #[test]
    fn load_helpers() {
        // d = 2: same-axis bits of pos 5 are 3 and 1.
        assert_eq!(load_one_zeros(0b000000, 5, 2), 0b100000);
        assert_eq!(load_one_zeros(0b001010, 5, 2), 0b100000);
        assert_eq!(load_zero_ones(0b100000, 5, 2), 0b001010);
        assert_eq!(load_zero_ones(0b111111, 5, 2), 0b011111);
    }

    #[test]
    fn bigmin_matches_brute_force_exhaustively_2d() {
        let z = ZCurve::<2>::new(2).unwrap(); // 4×4, exhaustive over boxes & codes
        for lx in 0..4u32 {
            for ly in 0..4u32 {
                for hx in lx..4u32 {
                    for hy in ly..4u32 {
                        let b = BoxRegion::new(Point::new([lx, ly]), Point::new([hx, hy]));
                        let zmin = z.encode(b.lo());
                        let zmax = z.encode(b.hi());
                        for code in 0..16u128 {
                            let fast = bigmin(&z, code, zmin, zmax);
                            let brute = bigmin_brute(&z, code, &b);
                            assert_eq!(fast, brute, "box {b:?} code {code}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bigmin_matches_brute_force_sampled_3d() {
        use rand::{Rng, SeedableRng};
        let z = ZCurve::<3>::new(2).unwrap(); // 4×4×4
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        for _ in 0..300 {
            let mut lo = [0u32; 3];
            let mut hi = [0u32; 3];
            for a in 0..3 {
                let x = rng.gen_range(0..4u32);
                let y = rng.gen_range(0..4u32);
                lo[a] = x.min(y);
                hi[a] = x.max(y);
            }
            let b = BoxRegion::new(Point::new(lo), Point::new(hi));
            let zmin = z.encode(b.lo());
            let zmax = z.encode(b.hi());
            let code = rng.gen_range(0..64u128);
            assert_eq!(
                bigmin(&z, code, zmin, zmax),
                bigmin_brute(&z, code, &b),
                "box {b:?} code {code}"
            );
        }
    }

    #[test]
    fn bigmin_on_the_classic_tropf_example_shape() {
        // A box straddling the major quadrant boundary of an 8×8 grid: the
        // scan from inside the low quadrant must jump over the entire
        // out-of-box key run.
        let z = ZCurve::<2>::new(3).unwrap();
        let b = BoxRegion::new(Point::new([2, 2]), Point::new([5, 5]));
        let zmin = z.encode(b.lo());
        let zmax = z.encode(b.hi());
        // Walk the full box range; every bigmin jump must land in the box.
        let mut code = zmin;
        let mut visited = 0;
        loop {
            if b.contains(&z.decode(code)) {
                visited += 1;
                if code >= zmax {
                    break;
                }
                code += 1;
            } else {
                match bigmin(&z, code, zmin, zmax) {
                    Some(next) => {
                        assert!(next > code);
                        assert!(b.contains(&z.decode(next)), "bigmin left the box");
                        code = next;
                    }
                    None => break,
                }
            }
        }
        assert_eq!(visited, 16, "all box cells visited exactly once");
    }

    #[test]
    fn bigmin_does_not_wrap_at_end_of_keyspace_full_resolution() {
        // Regression guard for the end-of-keyspace edge: on a
        // full-resolution grid (2^32 × 2^32 — keys occupy all 64 bits), a
        // box containing the all-max corner has `zmax = n − 1`. BIGMIN
        // jumps near the maximum curve index must stay strictly
        // increasing, land inside the box, and terminate via `None` — a
        // wrap or overflow would either panic (debug) or jump backwards.
        let z = ZCurve::<2>::new(32).unwrap();
        let max = u32::MAX;
        let b = BoxRegion::new(Point::new([max - 2, max - 2]), Point::new([max, max]));
        let zmin = z.encode(b.lo());
        let zmax = z.encode(b.hi());
        assert_eq!(zmax, z.grid().n() - 1, "all-max corner is the last key");
        // Walk every box cell by repeated BIGMIN from just-outside codes.
        let mut code = zmin;
        let mut visited = 0u32;
        loop {
            if b.contains(&z.decode(code)) {
                visited += 1;
                if code >= zmax {
                    break;
                }
                code += 1;
            } else {
                match bigmin(&z, code, zmin, zmax) {
                    Some(next) => {
                        assert!(next > code, "bigmin wrapped: {next:#x} <= {code:#x}");
                        assert!(next <= zmax, "bigmin escaped the key range");
                        assert!(b.contains(&z.decode(next)), "bigmin left the box");
                        code = next;
                    }
                    None => break,
                }
            }
        }
        assert_eq!(visited, 9, "all 3×3 corner cells visited");
        assert_eq!(bigmin(&z, zmax, zmin, zmax), None, "nothing past the end");
    }

    #[test]
    fn bigmin_does_not_wrap_at_127_bit_key_cap() {
        // Same edge through the generic (non-LUT) dilation path, at the
        // largest grid the index type supports: d = 4, k = 31 → 124 key
        // bits.
        let z = ZCurve::<4>::new(31).unwrap();
        let max = (1u32 << 31) - 1;
        let b = BoxRegion::new(
            Point::new([max - 1, max - 1, max - 1, max - 1]),
            Point::new([max, max, max, max]),
        );
        let zmin = z.encode(b.lo());
        let zmax = z.encode(b.hi());
        assert_eq!(zmax, z.grid().n() - 1);
        assert_eq!(z.decode(zmax), b.hi());
        let mut code = zmin;
        let mut visited = 0u32;
        loop {
            if b.contains(&z.decode(code)) {
                visited += 1;
                if code >= zmax {
                    break;
                }
                code += 1;
            } else {
                match bigmin(&z, code, zmin, zmax) {
                    Some(next) => {
                        assert!(next > code, "bigmin wrapped");
                        assert!(b.contains(&z.decode(next)), "bigmin left the box");
                        code = next;
                    }
                    None => break,
                }
            }
        }
        assert_eq!(visited, 16, "all 2^4 corner cells visited");
        assert_eq!(bigmin(&z, zmax, zmin, zmax), None);
    }

    #[test]
    fn bigmin_returns_none_past_the_box() {
        let z = ZCurve::<2>::new(2).unwrap();
        let b = BoxRegion::new(Point::new([0, 0]), Point::new([1, 1]));
        let zmin = z.encode(b.lo());
        let zmax = z.encode(b.hi());
        assert_eq!(bigmin(&z, zmax, zmin, zmax), None);
        assert_eq!(bigmin(&z, 15, zmin, zmax), None);
    }
}
