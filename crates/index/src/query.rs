//! Query cost accounting.
//!
//! The experiment harness compares curve families by the *work* a query
//! does against the sorted key table, not wall-clock alone:
//!
//! * `seeks` — binary searches / scan restarts (disk seeks in the classic
//!   secondary-memory model of the paper's reference [9]);
//! * `scanned` — slots put through a filter: every slot of a block the
//!   box kernel masked or bulk-visited (64 per block, so a selective box
//!   that touches a dozen partial blocks "scans" several hundred slots in
//!   a dozen straight-line mask passes), every slot a per-slot walk
//!   tested. It measures filter lanes, not time — `blocks_decoded` and
//!   `seeks` are the units that cost time;
//! * `reported` — entries actually inside the query region;
//! * `blocks_scanned` / `blocks_pruned` — blocks a scan examined versus
//!   rejected wholesale from their uncompressed summaries (fence key,
//!   point AABB, live count) without touching a single entry — see
//!   [`BlockStore`](crate::BlockStore);
//! * `blocks_decoded` — blocks whose packed key/coordinate words were run
//!   through the unpack kernels; the gap to `blocks_scanned` shows how
//!   much decode work the lazy per-block contract avoided (contained
//!   blocks decode once for reporting; pruned blocks never decode).
//!
//! `scanned / reported` is the **overscan ratio**: 1.0 means every slot
//! filtered was a hit (always, on an exact interval walk); a box scan's
//! ratio says what share of the blocks it masked lay inside the box.

/// Work counters for one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Binary searches / scan restarts performed.
    pub seeks: u64,
    /// Slots put through a filter — all of a block the box kernel masked
    /// or bulk-visited, each slot a per-slot walk tested (see the module
    /// docs: a count of filter lanes, not of time).
    pub scanned: u64,
    /// Entries matching the query.
    pub reported: u64,
    /// Blocks whose entries a scan examined.
    pub blocks_scanned: u64,
    /// Blocks rejected from their summaries alone — their entries were
    /// never touched.
    pub blocks_pruned: u64,
    /// Blocks run through the unpack kernels (each decode counted once,
    /// however many slots were then read from the buffer — including a
    /// partial block whose coordinate mask came out empty and whose keys
    /// were therefore never unpacked).
    pub blocks_decoded: u64,
}

impl QueryStats {
    /// `scanned / reported`, the overscan ratio (`∞` if nothing matched but
    /// entries were scanned; 1.0 for an empty scan).
    pub fn overscan(&self) -> f64 {
        Self::overscan_ratio(self.scanned, self.reported)
    }

    /// The overscan ratio for a raw `scanned` / `reported` pair — the
    /// same edge-case convention as [`overscan`](Self::overscan), for
    /// callers that accumulate the two counters across many queries and
    /// would otherwise recompute the division (and its empty/miss cases)
    /// inline.
    pub fn overscan_ratio(scanned: u64, reported: u64) -> f64 {
        if reported == 0 {
            if scanned == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            scanned as f64 / reported as f64
        }
    }

    /// Accumulates another query's counters into this one — the summation
    /// every multi-level and multi-shard query path uses, so per-part
    /// stats always add up to the reported total (see the shard-router
    /// audit tests). Saturating: experiment drivers fold millions of
    /// queries into one accumulator, and a (pathological) overflow should
    /// pin at `u64::MAX` rather than wrap into a nonsense total.
    pub fn add(&mut self, other: &QueryStats) {
        self.seeks = self.seeks.saturating_add(other.seeks);
        self.scanned = self.scanned.saturating_add(other.scanned);
        self.reported = self.reported.saturating_add(other.reported);
        self.blocks_scanned = self.blocks_scanned.saturating_add(other.blocks_scanned);
        self.blocks_pruned = self.blocks_pruned.saturating_add(other.blocks_pruned);
        self.blocks_decoded = self.blocks_decoded.saturating_add(other.blocks_decoded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overscan_ratios() {
        let q = QueryStats {
            seeks: 1,
            scanned: 20,
            reported: 10,
            ..Default::default()
        };
        assert_eq!(q.overscan(), 2.0);
        let empty = QueryStats::default();
        assert_eq!(empty.overscan(), 1.0);
        let miss = QueryStats {
            seeks: 1,
            scanned: 5,
            reported: 0,
            ..Default::default()
        };
        assert!(miss.overscan().is_infinite());
    }

    #[test]
    fn add_sums_every_counter() {
        let mut a = QueryStats {
            seeks: 1,
            scanned: 2,
            reported: 3,
            blocks_scanned: 4,
            blocks_pruned: 5,
            blocks_decoded: 6,
        };
        let b = QueryStats {
            seeks: 10,
            scanned: 20,
            reported: 30,
            blocks_scanned: 40,
            blocks_pruned: 50,
            blocks_decoded: 60,
        };
        a.add(&b);
        assert_eq!(
            a,
            QueryStats {
                seeks: 11,
                scanned: 22,
                reported: 33,
                blocks_scanned: 44,
                blocks_pruned: 55,
                blocks_decoded: 66,
            }
        );
    }

    #[test]
    fn add_saturates_instead_of_wrapping() {
        let mut a = QueryStats {
            scanned: u64::MAX - 1,
            ..Default::default()
        };
        a.add(&QueryStats {
            scanned: 5,
            seeks: 1,
            ..Default::default()
        });
        assert_eq!(a.scanned, u64::MAX);
        assert_eq!(a.seeks, 1);
    }

    #[test]
    fn raw_pair_helper_matches_method() {
        assert_eq!(QueryStats::overscan_ratio(20, 10), 2.0);
        assert_eq!(QueryStats::overscan_ratio(0, 0), 1.0);
        assert!(QueryStats::overscan_ratio(5, 0).is_infinite());
    }
}
