//! Precomputed state-transition tables for the Hilbert curve's batch
//! kernels: the 3-D batch encode and the 2-D and 3-D batch decodes. The
//! 2-D batch encode does not use them; it is a bit-parallel prefix scan
//! (`scan_2d` in [`crate::hilbert`]).
//!
//! Skilling's transpose algorithm ([`crate::HilbertCurve`]) costs `O(d·k)`
//! *dependent* bit operations per point — every level's output feeds the
//! next level's input, so the CPU pipeline stalls on a long serial chain.
//! But the Hilbert curve is exactly self-similar: at every level of the
//! recursion, the curve inside a subcube is the base curve composed with a
//! *signed axis permutation* (an element of the hyperoctahedral group).
//! That makes encoding a finite-state transduction over the Morton digits
//! of a point: `state × d-bit group → d-bit output × next state`.
//!
//! This module derives those tables **from the scalar implementation
//! itself** at construction time (orders 1 and 2 determine the base
//! orientation of each subcube; a breadth-first closure enumerates the
//! reachable states), then verifies the derived machine against the scalar
//! code exhaustively at orders 3 and 4. Nothing is hand-transcribed, so the
//! tables cannot drift from the scalar curve they accelerate.
//!
//! On top of the per-level table, a *wide* table processes several levels
//! per lookup (4 levels = one byte of Morton key for `d = 2`; 2 levels = 6
//! bits for `d = 3`), which is where the batch speedup comes from: one
//! table load replaces 8–12 dependent ALU ops, and the tables (a few KiB)
//! stay L1-resident across a batch.
//!
//! Table derivation is done once per dimension and cached in a
//! [`OnceLock`]; only `d = 2` and `d = 3` are materialised (other
//! dimensions fall back to the scalar path).

use crate::curve::SpaceFillingCurve;
use crate::hilbert::HilbertCurve;
use crate::point::Point;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A signed axis permutation: output axis `i` reads input axis `perm[i]`,
/// XOR-flipped iff bit `i` of `flip` is set. Acting on subcube corners
/// (one bit per axis), these are exactly the orientations a Hilbert
/// subcube can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SignedPerm<const D: usize> {
    perm: [u8; D],
    flip: u32,
}

impl<const D: usize> SignedPerm<D> {
    fn identity() -> Self {
        let mut perm = [0u8; D];
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i as u8;
        }
        Self { perm, flip: 0 }
    }

    /// Applies to a corner (axis-indexed bitmask).
    fn apply(&self, c: u32) -> u32 {
        let mut out = 0u32;
        for i in 0..D {
            out |= ((c >> self.perm[i]) & 1) << i;
        }
        out ^ self.flip
    }

    /// `self ∘ other`: first `other`, then `self`.
    fn compose(&self, other: &Self) -> Self {
        let mut perm = [0u8; D];
        let mut flip = self.flip;
        for (i, slot) in perm.iter_mut().enumerate() {
            *slot = other.perm[self.perm[i] as usize];
            flip ^= ((other.flip >> self.perm[i]) & 1) << i;
        }
        Self { perm, flip }
    }
}

/// Reconstructs the signed permutation from its corner map `m`
/// (`m[corner] = image corner`), panicking if `m` is not one — which would
/// mean the scalar curve is not self-similar and the whole table approach
/// is invalid.
fn fit_signed_perm<const D: usize>(m: &[u32]) -> SignedPerm<D> {
    let flip = m[0];
    let mut perm = [u8::MAX; D];
    for j in 0..D {
        let t = m[1 << j] ^ flip;
        assert_eq!(
            t.count_ones(),
            1,
            "hilbert subcube map is not a signed permutation"
        );
        perm[t.trailing_zeros() as usize] = j as u8;
    }
    let fitted = SignedPerm { perm, flip };
    for (c, &want) in m.iter().enumerate() {
        assert_eq!(
            fitted.apply(c as u32),
            want,
            "hilbert subcube map disagrees with fitted signed permutation"
        );
    }
    fitted
}

/// The derived transition tables for one dimension.
///
/// Entry encoding for all four tables: `low byte = output bits`,
/// `high byte = next state`. Inputs and outputs use the *packed group*
/// convention of the curve key: within a `d`-bit group, axis 0 is the most
/// significant bit.
#[derive(Debug)]
pub(crate) struct HilbertTables {
    d: u32,
    /// Levels consumed per wide-table lookup.
    wide_levels: u32,
    /// `[state << d | morton_group]` → hilbert group + next state.
    level_enc: Vec<u16>,
    /// `[state << d | hilbert_group]` → morton group + next state.
    level_dec: Vec<u16>,
    /// `[state << (wide_levels·d) | morton_bits]` → hilbert bits + next.
    wide_enc: Vec<u16>,
    /// `[state << (wide_levels·d) | hilbert_bits]` → morton bits + next.
    wide_dec: Vec<u16>,
}

/// Packed group (axis 0 most significant) → axis-indexed corner mask.
fn packed_to_mask<const D: usize>(g: u32) -> u32 {
    let mut c = 0u32;
    for a in 0..D {
        c |= ((g >> (D - 1 - a)) & 1) << a;
    }
    c
}

fn build_tables<const D: usize>(wide_levels: u32) -> HilbertTables {
    let h1 = HilbertCurve::<D>::new(1).expect("order-1 grid");
    let h2 = HilbertCurve::<D>::new(2).expect("order-2 grid");
    let corners = 1usize << D;

    // Base data: the order-1 curve gives each top-level subcube's rank;
    // the order-2 curve reveals each subcube's internal orientation.
    let mut h_base = vec![0u32; corners];
    let mut h1_inv = vec![0u32; corners];
    for (c, rank) in h_base.iter_mut().enumerate() {
        let mut coords = [0u32; D];
        for (i, x) in coords.iter_mut().enumerate() {
            *x = (c as u32 >> i) & 1;
        }
        let idx = h1.index_of(Point::new(coords)) as u32;
        *rank = idx;
        h1_inv[idx as usize] = c as u32;
    }
    let mut sub_orient: Vec<SignedPerm<D>> = Vec::with_capacity(corners);
    for (w, &rank) in h_base.iter().enumerate() {
        let mut corner_map = vec![0u32; corners];
        for (y, slot) in corner_map.iter_mut().enumerate() {
            let mut coords = [0u32; D];
            for (i, x) in coords.iter_mut().enumerate() {
                *x = ((w as u32 >> i) & 1) << 1 | (y as u32 >> i) & 1;
            }
            let z = h2.index_of(Point::new(coords));
            assert_eq!(
                (z >> D) as u32,
                rank,
                "hilbert top-level rank disagrees between orders 1 and 2"
            );
            *slot = h1_inv[(z as u32 & (corners as u32 - 1)) as usize];
        }
        sub_orient.push(fit_signed_perm::<D>(&corner_map));
    }

    // Breadth-first closure over reachable states. For state T and input
    // corner c: the curve visits subcube T(c) of the base orientation, so
    // the output group is h_base[T(c)] and the next state is the subcube's
    // own orientation composed with T.
    let mut states: Vec<SignedPerm<D>> = vec![SignedPerm::identity()];
    let mut ids: HashMap<SignedPerm<D>, usize> = HashMap::new();
    ids.insert(states[0], 0);
    let mut level_enc: Vec<u16> = Vec::new();
    let mut s = 0usize;
    while s < states.len() {
        let t = states[s];
        for g in 0..corners as u32 {
            let tv = t.apply(packed_to_mask::<D>(g));
            let h = h_base[tv as usize];
            let next = sub_orient[tv as usize].compose(&t);
            let next_id = *ids.entry(next).or_insert_with(|| {
                states.push(next);
                states.len() - 1
            });
            debug_assert!(next_id < 256, "state id exceeds one byte");
            level_enc.push(h as u16 | (next_id as u16) << 8);
        }
        s += 1;
    }
    let n_states = states.len();

    let mut level_dec = vec![0u16; n_states << D];
    for state in 0..n_states {
        for g in 0..corners as u32 {
            let e = level_enc[state << D | g as usize];
            let (h, next) = (e & 0xFF, e >> 8);
            level_dec[state << D | h as usize] = g as u16 | next << 8;
        }
    }

    // Wide tables: `wide_levels` composed steps of the level table.
    let group_bits = (wide_levels * D as u32) as usize;
    let wide_inputs = 1usize << group_bits;
    let mut wide_enc = vec![0u16; n_states * wide_inputs];
    let mut wide_dec = vec![0u16; n_states * wide_inputs];
    for state in 0..n_states {
        for bits in 0..wide_inputs {
            let mut st = state;
            let mut out = 0u16;
            for lvl in (0..wide_levels).rev() {
                let g = (bits >> (lvl * D as u32)) & (corners - 1);
                let e = level_enc[st << D | g];
                out = out << D | (e & 0xFF);
                st = (e >> 8) as usize;
            }
            wide_enc[(state << group_bits) | bits] = out | (st as u16) << 8;
            debug_assert!(group_bits <= 8 && st < 256);
        }
        for bits in 0..wide_inputs {
            let e = wide_enc[(state << group_bits) | bits];
            let (h, next) = (e & 0xFF, e >> 8);
            wide_dec[(state << group_bits) | h as usize] = bits as u16 | next << 8;
        }
    }

    let tables = HilbertTables {
        d: D as u32,
        wide_levels,
        level_enc,
        level_dec,
        wide_enc,
        wide_dec,
    };

    // Exhaustive verification against the scalar algorithm at deeper
    // orders: if the scalar curve were not exactly self-similar the
    // derivation above would be wrong, and this catches it at first use.
    let max_verify = if D == 2 { 4 } else { 3 };
    for k in 1..=max_verify {
        let h = HilbertCurve::<D>::new(k).expect("verification grid");
        let z = crate::morton::ZCurve::<D>::new(k).expect("verification grid");
        for p in h.grid().cells() {
            let want = h.index_of(p);
            let got = tables.encode(z.encode(p) as u64, k);
            assert_eq!(
                got, want as u64,
                "hilbert state machine disagrees with scalar at d={D} k={k} p={p}"
            );
            let back = tables.decode(got, k);
            assert_eq!(back, z.encode(p) as u64, "decode mismatch d={D} k={k}");
        }
    }
    tables
}

impl HilbertTables {
    /// Transduces a Morton key (`d·k` bits in a `u64`) into the Hilbert
    /// index, consuming `wide_levels` levels per table lookup.
    #[inline]
    pub(crate) fn encode(&self, morton: u64, k: u32) -> u64 {
        let d = self.d;
        let group_bits = self.wide_levels * d;
        let mut state = 0usize;
        let mut out = 0u64;
        let mut level = k;
        // Leading levels that don't fill a wide group go one at a time.
        while !level.is_multiple_of(self.wide_levels) {
            level -= 1;
            let g = (morton >> (level * d)) as usize & ((1 << d) - 1);
            let e = self.level_enc[state << d | g];
            out = out << d | u64::from(e & 0xFF);
            state = (e >> 8) as usize;
        }
        while level > 0 {
            level -= self.wide_levels;
            let bits = (morton >> (level * d)) as usize & ((1 << group_bits) - 1);
            let e = self.wide_enc[(state << group_bits) | bits];
            out = out << group_bits | u64::from(e & 0xFF);
            state = (e >> 8) as usize;
        }
        out
    }

    /// Inverse of [`encode`](Self::encode): Hilbert index → Morton key.
    #[inline]
    pub(crate) fn decode(&self, hilbert: u64, k: u32) -> u64 {
        let d = self.d;
        let group_bits = self.wide_levels * d;
        let mut state = 0usize;
        let mut out = 0u64;
        let mut level = k;
        while !level.is_multiple_of(self.wide_levels) {
            level -= 1;
            let h = (hilbert >> (level * d)) as usize & ((1 << d) - 1);
            let e = self.level_dec[state << d | h];
            out = out << d | u64::from(e & 0xFF);
            state = (e >> 8) as usize;
        }
        while level > 0 {
            level -= self.wide_levels;
            let bits = (hilbert >> (level * d)) as usize & ((1 << group_bits) - 1);
            let e = self.wide_dec[(state << group_bits) | bits];
            out = out << group_bits | u64::from(e & 0xFF);
            state = (e >> 8) as usize;
        }
        out
    }
}

/// The `d = 2` tables: 4 levels (one Morton byte) per wide lookup.
pub(crate) fn tables_2d() -> &'static HilbertTables {
    static TABLES: OnceLock<HilbertTables> = OnceLock::new();
    TABLES.get_or_init(|| build_tables::<2>(4))
}

/// The `d = 3` tables: 2 levels (6 Morton bits) per wide lookup.
pub(crate) fn tables_3d() -> &'static HilbertTables {
    static TABLES: OnceLock<HilbertTables> = OnceLock::new();
    TABLES.get_or_init(|| build_tables::<3>(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morton::ZCurve;

    #[test]
    fn tables_build_and_self_verify() {
        // Construction itself verifies orders 1..=4 (2-D) and 1..=3 (3-D)
        // exhaustively; reaching here means the machine matches Skilling.
        let t2 = tables_2d();
        assert_eq!(t2.d, 2);
        let t3 = tables_3d();
        assert_eq!(t3.d, 3);
    }

    #[test]
    fn two_d_state_count_is_the_classical_four() {
        // The 2-D Hilbert curve needs exactly the 4 classical orientations.
        let t = tables_2d();
        assert_eq!(t.level_enc.len() >> 2, 4);
    }

    #[test]
    fn three_d_state_count_is_bounded_by_hyperoctahedral_group() {
        let t = tables_3d();
        let states = t.level_enc.len() >> 3;
        assert!(states <= 48, "3-D states {states} exceed |B₃| = 48");
    }

    #[test]
    fn deep_grid_matches_scalar_spot_checks() {
        // Beyond the orders the builder verifies exhaustively.
        let k = 13;
        let h = HilbertCurve::<2>::new(k).unwrap();
        let z = ZCurve::<2>::new(k).unwrap();
        let t = tables_2d();
        for seed in 0u32..500 {
            let x = seed.wrapping_mul(0x9E37_79B9) % (1 << k);
            let y = seed.wrapping_mul(0x85EB_CA6B) % (1 << k);
            let p = Point::new([x, y]);
            let m = z.encode(p) as u64;
            assert_eq!(t.encode(m, k), h.index_of(p) as u64, "at {p}");
            assert_eq!(t.decode(t.encode(m, k), k), m, "at {p}");
        }
        let k3 = 9;
        let h3 = HilbertCurve::<3>::new(k3).unwrap();
        let z3 = ZCurve::<3>::new(k3).unwrap();
        let t3 = tables_3d();
        for seed in 0u32..500 {
            let x = seed.wrapping_mul(0x9E37_79B9) % (1 << k3);
            let y = seed.wrapping_mul(0x85EB_CA6B) % (1 << k3);
            let w = seed.wrapping_mul(0xC2B2_AE35) % (1 << k3);
            let p = Point::new([x, y, w]);
            let m = z3.encode(p) as u64;
            assert_eq!(t3.encode(m, k3), h3.index_of(p) as u64, "at {p}");
            assert_eq!(t3.decode(t3.encode(m, k3), k3), m, "at {p}");
        }
    }
}
