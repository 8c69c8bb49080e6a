//! The shadow model the store workloads are checked against: one slot per
//! grid cell, written in submission order, sharing no code with the store.
//! Every oracle here runs outside the timed sections.

use crate::adapter::{Op, P2};

const EMPTY: u64 = u64::MAX;

/// A live record as the oracles compare it: cell coordinates and payload.
pub type Rec = ([u32; 2], u64);

#[derive(Clone)]
pub struct GridModel {
    side: u32,
    cells: Vec<u64>,
    live: usize,
}

impl GridModel {
    pub fn new(k: u32) -> Self {
        let side = 1u32 << k;
        GridModel {
            side,
            cells: vec![EMPTY; (side as usize) * (side as usize)],
            live: 0,
        }
    }

    fn slot(&self, x: u32, y: u32) -> usize {
        (y as usize) * (self.side as usize) + x as usize
    }

    pub fn insert(&mut self, p: P2, v: u64) {
        let s = self.slot(p.coord(0), p.coord(1));
        if self.cells[s] == EMPTY {
            self.live += 1;
        }
        self.cells[s] = v;
    }

    pub fn delete(&mut self, p: P2) {
        let s = self.slot(p.coord(0), p.coord(1));
        if self.cells[s] != EMPTY {
            self.live -= 1;
        }
        self.cells[s] = EMPTY;
    }

    pub fn apply(&mut self, op: &Op) {
        match *op {
            Op::Insert(p, v) => self.insert(p, v),
            Op::Delete(p) => self.delete(p),
        }
    }

    pub fn get(&self, p: P2) -> Option<u64> {
        let v = self.cells[self.slot(p.coord(0), p.coord(1))];
        (v != EMPTY).then_some(v)
    }

    pub fn len(&self) -> usize {
        self.live
    }

    /// Live records with `lo ≤ cell ≤ hi` on both axes, in row-major order.
    pub fn in_box(&self, lo: [u32; 2], hi: [u32; 2]) -> Vec<Rec> {
        let mut out = Vec::new();
        for y in lo[1]..=hi[1] {
            for x in lo[0]..=hi[0] {
                let v = self.cells[self.slot(x, y)];
                if v != EMPTY {
                    out.push(([x, y], v));
                }
            }
        }
        out
    }

    /// The `k` live records nearest to `q` (squared Euclidean distance, ties
    /// broken by `tie`, the cell's curve key), nearest first.
    pub fn knn(&self, q: P2, k: usize, tie: impl Fn([u32; 2]) -> u128) -> Vec<Rec> {
        let (qx, qy) = (i64::from(q.coord(0)), i64::from(q.coord(1)));
        let side = i64::from(self.side);
        let mut r = 8i64;
        loop {
            let lo = [(qx - r).max(0) as u32, (qy - r).max(0) as u32];
            let hi = [(qx + r).min(side - 1) as u32, (qy + r).min(side - 1) as u32];
            let mut found: Vec<(u64, u128, Rec)> = self
                .in_box(lo, hi)
                .into_iter()
                .map(|(c, v)| {
                    let (dx, dy) = (i64::from(c[0]) - qx, i64::from(c[1]) - qy);
                    ((dx * dx + dy * dy) as u64, tie(c), (c, v))
                })
                .collect();
            found.sort_unstable_by_key(|&(d, t, _)| (d, t));
            found.truncate(k);
            // Complete once the window holds the whole disc of the k-th
            // distance (or the whole grid).
            let covers_grid = r >= side;
            let enough = found.len() == k && found[k - 1].0 <= (r * r) as u64;
            if enough || covers_grid {
                return found.into_iter().map(|(_, _, rec)| rec).collect();
            }
            r *= 2;
        }
    }

    /// Order-independent digest of the live records.
    pub fn digest(&self) -> u64 {
        let side = self.side as usize;
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != EMPTY)
            .fold(0u64, |acc, (i, &v)| {
                acc.wrapping_add(record_hash([(i % side) as u32, (i / side) as u32], v))
            })
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash of one record; digests sum these, so they do not depend on order.
pub fn record_hash(cell: [u32; 2], payload: u64) -> u64 {
    mix((u64::from(cell[0]) << 32 | u64::from(cell[1]))
        ^ mix(payload.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// Length and digest of a stream of records, for comparison with
/// [`GridModel::len`] and [`GridModel::digest`].
pub fn stream_digest(records: impl Iterator<Item = Rec>) -> (usize, u64) {
    records.fold((0, 0u64), |(n, acc), (c, v)| {
        (n + 1, acc.wrapping_add(record_hash(c, v)))
    })
}

/// FNV-1a over bytes: the golden digests of the paper's summaries.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: u32, y: u32) -> P2 {
        P2::new([x, y])
    }

    #[test]
    fn newest_write_wins_and_deletes_empty_the_cell() {
        let mut m = GridModel::new(4);
        m.insert(p(1, 2), 10);
        m.insert(p(1, 2), 11);
        m.insert(p(3, 3), 12);
        assert_eq!((m.len(), m.get(p(1, 2))), (2, Some(11)));
        m.delete(p(1, 2));
        m.delete(p(9, 9));
        assert_eq!((m.len(), m.get(p(1, 2))), (1, None));
        assert_eq!(m.in_box([0, 0], [15, 15]), vec![([3, 3], 12)]);
    }

    #[test]
    fn digest_ignores_order_and_sees_every_field() {
        let a = stream_digest([([1, 2], 5), ([3, 4], 6)].into_iter());
        let b = stream_digest([([3, 4], 6), ([1, 2], 5)].into_iter());
        assert_eq!(a, b);
        assert_ne!(a, stream_digest([([1, 2], 6), ([3, 4], 5)].into_iter()));
        let mut m = GridModel::new(3);
        m.insert(p(1, 2), 5);
        m.insert(p(3, 4), 6);
        assert_eq!((m.len(), m.digest()), a);
    }

    #[test]
    fn knn_finds_the_nearest_beyond_the_first_window() {
        let mut m = GridModel::new(8);
        m.insert(p(200, 200), 1);
        m.insert(p(10, 12), 2);
        m.insert(p(10, 8), 3);
        // Equidistant records order by the tie key.
        let got = m.knn(p(10, 10), 3, |c| u128::from(c[1]));
        assert_eq!(got, vec![([10, 8], 3), ([10, 12], 2), ([200, 200], 1)]);
        assert_eq!(
            m.knn(p(0, 0), 5, |_| 0).len(),
            3,
            "fewer live records than k"
        );
    }
}
