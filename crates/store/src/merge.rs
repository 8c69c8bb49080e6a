//! K-way merge of immutable sorted runs.

use std::sync::Arc;

use sfc_core::{CurveIndex, Point, SpaceFillingCurve};
use sfc_index::{BlockStore, DecodedBlock, SfcIndex, BLOCK_SLOTS};

use crate::view::Run;

/// A forward-only cursor over one run's compressed blocks, decoding one
/// block at a time as the merge advances. Dense payloads are consumed
/// through the vector's `IntoIter`, advanced exactly on live slots, so
/// merging moves every payload exactly once and never clones.
struct Cursor<const D: usize, T> {
    blocks: BlockStore<D>,
    payloads: std::vec::IntoIter<T>,
    /// Decode buffer holding block `dec_block` (`usize::MAX` = none yet).
    dec: Box<DecodedBlock<D>>,
    dec_block: usize,
    pos: usize,
}

impl<const D: usize, T> Cursor<D, T> {
    /// Ensures the block holding `pos` is decoded into the buffer.
    fn fill(&mut self) {
        let block = self.blocks.block_of(self.pos);
        if self.dec_block != block {
            self.blocks.decode_into(block, &mut self.dec);
            self.dec_block = block;
        }
    }

    fn head(&mut self) -> Option<CurveIndex> {
        if self.pos >= self.blocks.len() {
            return None;
        }
        self.fill();
        Some(self.dec.keys[self.pos % BLOCK_SLOTS])
    }

    fn take(&mut self) -> (Point<D>, Option<T>) {
        self.fill();
        let point = self.dec.point(self.pos % BLOCK_SLOTS);
        let slot = self.blocks.is_live_slot(self.pos).then(|| {
            self.payloads
                .next()
                .expect("dense payload column parallel to live bitmap")
        });
        self.pos += 1;
        (point, slot)
    }
}

/// Merges `runs` (ordered oldest → newest, each with unique keys) into a
/// single run. For keys present in several runs the **newest** version
/// survives and superseded versions are dropped. Tombstones (`None`
/// payloads) are kept as tombstones unless `drop_tombstones` is set, which
/// is only sound when the merged run becomes the bottom of the stack.
///
/// Runs arrive behind [`Arc`]s because snapshots may pin them: a uniquely
/// owned run is consumed in place (no payload is copied); a run still
/// pinned by a snapshot is cloned out of its `Arc` first, leaving the
/// snapshot's view untouched.
pub(crate) fn merge_runs<const D: usize, T: Clone, C: SpaceFillingCurve<D> + Clone>(
    curve: &C,
    runs: Vec<Run<D, T, C>>,
    drop_tombstones: bool,
) -> SfcIndex<D, T, C> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut cursors: Vec<Cursor<D, T>> = runs
        .into_iter()
        .map(|run| {
            // Copy-on-write: only snapshot-pinned runs are cloned.
            let run = Arc::try_unwrap(run).unwrap_or_else(|shared| (*shared).clone());
            let (_, blocks, payloads) = run.into_parts();
            Cursor {
                blocks,
                payloads: payloads.into_iter(),
                dec: Box::default(),
                dec_block: usize::MAX,
                pos: 0,
            }
        })
        .collect();
    let mut keys = Vec::with_capacity(total);
    let mut points = Vec::with_capacity(total);
    let mut payloads: Vec<Option<T>> = Vec::with_capacity(total);
    while let Some(min) = cursors.iter_mut().filter_map(Cursor::head).min() {
        // Advance every cursor holding the minimum key; cursors are ordered
        // oldest → newest, so the last writer is the newest version.
        let mut winner: Option<(Point<D>, Option<T>)> = None;
        for cursor in cursors.iter_mut() {
            if cursor.head() == Some(min) {
                winner = Some(cursor.take());
            }
        }
        let (point, slot) = winner.expect("min key came from some cursor");
        if slot.is_some() || !drop_tombstones {
            keys.push(min);
            points.push(point);
            payloads.push(slot);
        }
    }
    // `from_sorted_versions` repacks the merged columns into compressed
    // blocks, folding the tombstones into the live bitmap.
    SfcIndex::from_sorted_versions(curve.clone(), keys, points, payloads)
}

/// Restores the size-tier invariant on a run stack: while an older run is
/// less than twice the size of the run stacked on it, the pair is merged
/// (newest wins; tombstones drop only when the merge produces the bottom
/// run). Keeps the run count at `O(log n)` and total merge work amortised
/// `O(log n)` moves per write. A shard's flush applies it to a *copy* of
/// the published run stack before swapping the next epoch in.
pub(crate) fn restore_size_tiers<const D: usize, T: Clone, C: SpaceFillingCurve<D> + Clone>(
    curve: &C,
    runs: &mut Vec<Run<D, T, C>>,
) {
    while runs.len() >= 2 {
        let n = runs.len();
        if runs[n - 2].len() < 2 * runs[n - 1].len() {
            let newer = runs.pop().expect("len >= 2");
            let older = runs.pop().expect("len >= 2");
            let drop_tombstones = runs.is_empty();
            runs.push(Arc::new(merge_runs(
                curve,
                vec![older, newer],
                drop_tombstones,
            )));
        } else {
            break;
        }
    }
    if runs.len() == 1 && runs[0].is_empty() {
        runs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{Grid, ZCurve};

    fn run_of(curve: ZCurve<2>, cells: &[(u32, u32, Option<u32>)]) -> Run<2, u32, ZCurve<2>> {
        let mut rows: Vec<(CurveIndex, Point<2>, Option<u32>)> = cells
            .iter()
            .map(|&(x, y, v)| {
                let p = Point::new([x, y]);
                (curve.index_of(p), p, v)
            })
            .collect();
        rows.sort_by_key(|&(k, _, _)| k);
        let (keys, rest): (Vec<_>, Vec<_>) = rows.into_iter().map(|(k, p, v)| (k, (p, v))).unzip();
        let (points, payloads) = rest.into_iter().unzip();
        Arc::new(SfcIndex::from_sorted_versions(
            curve, keys, points, payloads,
        ))
    }

    #[test]
    fn newest_version_wins_and_tombstones_drop_at_bottom() {
        let curve = ZCurve::over(Grid::<2>::new(3).unwrap());
        let old = run_of(curve, &[(0, 0, Some(1)), (1, 1, Some(2)), (2, 2, Some(3))]);
        let new = run_of(curve, &[(1, 1, Some(20)), (2, 2, None), (3, 3, Some(4))]);

        let kept = merge_runs(&curve, vec![old.clone(), new.clone()], false);
        assert_eq!(kept.len(), 4); // tombstone for (2,2) is retained
        assert_eq!(kept.live_len(), 3);
        let vals = kept.payloads();
        assert!(vals.contains(&20) && !vals.contains(&2));

        // `old` and `new` are still pinned by this test (cloned above), so
        // the second merge exercises the copy-on-write path — and the
        // pinned runs remain readable afterwards.
        let bottom = merge_runs(&curve, vec![old.clone(), new.clone()], true);
        assert_eq!(bottom.len(), 3); // (0,0)=1, (1,1)=20, (3,3)=4
        assert_eq!(bottom.live_len(), bottom.len());
        assert_eq!(old.len(), 3);
        assert_eq!(new.len(), 3);
    }

    #[test]
    fn merge_of_empty_inputs_is_empty() {
        let curve = ZCurve::over(Grid::<2>::new(2).unwrap());
        let merged = merge_runs::<2, u32, _>(&curve, vec![run_of(curve, &[])], true);
        assert!(merged.is_empty());
    }
}
