//! Host crate for the workspace integration tests (see `tests/tests/`).
//!
//! The library itself only provides shared helpers for the integration
//! tests.

use rand::SeedableRng;

/// A deterministic test RNG.
pub fn test_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// References that share no code with the engine under test.
pub mod oracle {
    use sfc_core::{CurveIndex, Point, ZCurve};
    use sfc_index::{bigmin, BlockCursor, BlockStore, BoxRegion, QueryStats};

    /// The `k` nearest of `entries` — `(key, point, payload)` triples, e.g.
    /// a store's or a snapshot's `iter()` — to `q`, by linear scan: ranked
    /// by Euclidean distance, ties broken by curve key (the order every
    /// kNN path must report).
    pub fn knn_linear<const D: usize, T>(
        entries: impl IntoIterator<Item = (CurveIndex, Point<D>, T)>,
        q: Point<D>,
        k: usize,
    ) -> Vec<(CurveIndex, Point<D>, T)> {
        let mut all: Vec<_> = entries.into_iter().collect();
        all.sort_by_key(|&(key, point, _)| (q.euclidean_sq(&point), key));
        all.truncate(k);
        all
    }

    /// The entries of `entries` — `(key, point, payload)` triples — whose
    /// point lies in `b`, in their input order, by linear scan.
    pub fn box_linear<const D: usize, T>(
        entries: impl IntoIterator<Item = (CurveIndex, Point<D>, T)>,
        b: &BoxRegion<D>,
    ) -> Vec<(CurveIndex, Point<D>, T)> {
        entries
            .into_iter()
            .filter(|(_, point, _)| b.contains(point))
            .collect()
    }

    /// First position in `[from, to)` whose key is ≥ `target` (binary
    /// search over single-slot key extractions), or `to` if none.
    fn partition_point_in<const D: usize>(
        blocks: &BlockStore<D>,
        from: usize,
        to: usize,
        target: CurveIndex,
    ) -> usize {
        let (mut lo, mut hi) = (from, to);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if blocks.key_at(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// The pre-zone-map interval scan: one whole-column binary search per
    /// interval and one slot at a time — the reference
    /// `sfc_index::interval_scan` and the box kernel are diffed against.
    pub fn interval_scan_plain<const D: usize>(
        blocks: &BlockStore<D>,
        intervals: &[(CurveIndex, CurveIndex)],
        stats: &mut QueryStats,
        mut visit: impl FnMut(usize, CurveIndex, Point<D>),
    ) {
        let mut cur = BlockCursor::new(blocks);
        let len = blocks.len();
        for &(lo, hi) in intervals {
            stats.seeks += 1;
            let mut i = partition_point_in(blocks, 0, len, lo);
            while i < len {
                let key = blocks.key_at(i);
                if key > hi {
                    break;
                }
                stats.scanned += 1;
                visit(i, key, cur.point(i));
                i += 1;
            }
        }
        stats.blocks_decoded += cur.decodes;
    }

    /// The pre-zone-map BIGMIN scan: per-slot box tests throughout and
    /// whole-tail binary searches after each jump — the reference the box
    /// kernel with a `MortonSkipper` is diffed against.
    pub fn bigmin_scan_plain<const D: usize>(
        z: &ZCurve<D>,
        blocks: &BlockStore<D>,
        b: &BoxRegion<D>,
        stats: &mut QueryStats,
        mut visit: impl FnMut(usize, CurveIndex, Point<D>),
    ) {
        let zmin = z.encode(b.lo());
        let zmax = z.encode(b.hi());
        stats.seeks += 1;
        let mut cur = BlockCursor::new(blocks);
        let len = blocks.len();
        let mut i = partition_point_in(blocks, 0, len, zmin);
        while i < len {
            let key = blocks.key_at(i);
            if key > zmax {
                break;
            }
            stats.scanned += 1;
            let point = cur.point(i);
            if b.contains(&point) {
                visit(i, key, point);
                i += 1;
            } else {
                match bigmin(z, key, zmin, zmax) {
                    Some(next) => {
                        stats.seeks += 1;
                        // `next > key`, so searching the tail finds the same
                        // position as a fresh whole-column search.
                        i = partition_point_in(blocks, i, len, next);
                    }
                    None => break,
                }
            }
        }
        stats.blocks_decoded += cur.decodes;
    }
}
