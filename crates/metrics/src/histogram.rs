//! Log₂-bucket distribution analysis of the stretch.
//!
//! The paper's averages hide *shape*: for the Z curve the per-edge curve
//! distance `Δ_Z` is a power-law-like mixture (`Δ ≈ 2^{jd−i}` with
//! probability `2^{−j}`, Lemma 5), while the simple curve's distances are
//! concentrated on `d` spikes (`side^{i−1}`). These histograms make that
//! concrete, explain the naive-sampling failure documented in
//! [`crate::sampling`], and quantify tail mass for application modelling.

use crate::nn_stretch::{assert_within_limit, for_each_row};
use sfc_core::{CurveIndex, SpaceFillingCurve};

/// A histogram over log₂ buckets: bucket `b` counts values `v` with
/// `⌊log₂ v⌋ = b` (bucket 0 holds `v = 1`; zeros are counted separately).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Log2Histogram {
    /// `buckets[b]` = number of values in `[2^b, 2^{b+1})`.
    pub buckets: Vec<u64>,
    /// Number of zero values observed.
    pub zeros: u64,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: u128,
    /// Largest observation.
    pub max: u128,
}

impl Log2Histogram {
    /// Adds one observation.
    pub fn push(&mut self, v: CurveIndex) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        if v == 0 {
            self.zeros += 1;
            return;
        }
        let b = (127 - v.leading_zeros()) as usize;
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
    }

    /// Mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fraction of the *sum* carried by values `≥ 2^b` — the "tail mass".
    /// For heavy-tailed curves this stays near 1 even for large `b`.
    pub fn tail_mass(&self, b: usize) -> f64 {
        if self.sum == 0 {
            return 0.0;
        }
        // Recompute per-bucket sums approximately from counts is lossy;
        // instead callers who need exactness should build two histograms.
        // Here we bound the tail: bucket i contributes between
        // count·2^i and count·2^{i+1}. We return the midpoint estimate.
        let mut tail = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if i >= b {
                tail += c as f64 * 1.5 * (1u128 << i) as f64;
            }
        }
        (tail / self.sum as f64).min(1.0)
    }

    /// The median bucket (bucket containing the median observation), or
    /// `None` if empty.
    pub fn median_bucket(&self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let mut seen = self.zeros;
        let half = self.count.div_ceil(2);
        if seen >= half {
            return Some(0);
        }
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= half {
                return Some(i);
            }
        }
        None
    }
}

/// Histogram of `Δπ` over **all nearest-neighbor edges** of the grid
/// (each edge once, from its lower endpoint), on the row window of
/// [`crate::nn_stretch`]. Panics past the size limit of
/// [`crate::nn_stretch::summarize`].
pub fn edge_distance_histogram<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
) -> Log2Histogram {
    assert_within_limit(curve.grid());
    let mut h = Log2Histogram::default();
    for_each_row(curve, 0..curve.grid().side(), |row| {
        for pair in row.cells.windows(2) {
            h.push(pair[0].abs_diff(pair[1]).into());
        }
        for up in row.up.iter().flatten() {
            for (own, nb) in row.cells.iter().zip(*up) {
                h.push(own.abs_diff(*nb).into());
            }
        }
    });
    h
}

/// Histogram of `δ^max_π(α)` over all cells, on the same window.
pub fn delta_max_histogram<const D: usize, C: SpaceFillingCurve<D>>(curve: &C) -> Log2Histogram {
    assert_within_limit(curve.grid());
    let mut h = Log2Histogram::default();
    for_each_row(curve, 0..curve.grid().side(), |row| {
        row.for_each_cell(|_, _, max| h.push(max.into()));
    });
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfc_core::{SimpleCurve, ZCurve};

    #[test]
    fn histogram_accounting() {
        let mut h = Log2Histogram::default();
        for v in [0u128, 1, 1, 2, 3, 4, 1024] {
            h.push(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.zeros, 1);
        assert_eq!(h.sum, 1035);
        assert_eq!(h.max, 1024);
        assert_eq!(h.buckets[0], 2); // the two 1s
        assert_eq!(h.buckets[1], 2); // 2 and 3
        assert_eq!(h.buckets[2], 1); // 4
        assert_eq!(h.buckets[10], 1); // 1024
        assert!((h.mean() - 1035.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn median_bucket_positions() {
        let mut h = Log2Histogram::default();
        for v in [1u128, 1, 1, 8, 8] {
            h.push(v);
        }
        assert_eq!(h.median_bucket(), Some(0));
        let empty = Log2Histogram::default();
        assert_eq!(empty.median_bucket(), None);
    }

    #[test]
    fn z_edges_are_heavy_tailed_simple_edges_are_spikes() {
        let z = ZCurve::<2>::new(6).unwrap();
        let s = SimpleCurve::<2>::new(6).unwrap();
        let hz = edge_distance_histogram(&z);
        let hs = edge_distance_histogram(&s);
        // The simple curve's edge distances are exactly {1, side}: two
        // occupied buckets.
        let occupied = hs.buckets.iter().filter(|&&c| c > 0).count();
        assert_eq!(occupied, 2);
        // The Z curve occupies a bucket for every class: 2k buckets.
        let occupied_z = hz.buckets.iter().filter(|&&c| c > 0).count();
        assert!(occupied_z >= 10, "{occupied_z}");
        // Identical totals (same edge set) and equal sums? Not equal sums —
        // but Lemma 3 says the sums govern D^avg; here they are close:
        assert_eq!(hz.count, hs.count);
        // Median Z edge is short (bucket ≤ 2) even though the mean is huge:
        // the textbook heavy-tail signature.
        assert!(hz.median_bucket().unwrap() <= 2);
        assert!(hz.mean() > 16.0);
    }

    #[test]
    fn z_tail_mass_dominates_the_sum() {
        let z = ZCurve::<2>::new(8).unwrap();
        let h = edge_distance_histogram(&z);
        // More than half the total edge-distance mass sits in values
        // ≥ 2^6, carried by a small minority of edges (classes j ≥ 4 have
        // total frequency ~2^{−3}).
        let tail = h.tail_mass(6);
        assert!(tail > 0.5, "tail mass {tail}");
        let big_edges: u64 = h.buckets.iter().skip(6).sum();
        assert!(
            (big_edges as f64) < 0.15 * h.count as f64,
            "{big_edges} of {}",
            h.count
        );
    }

    #[test]
    fn delta_max_histogram_matches_summary_sum() {
        let z = ZCurve::<2>::new(4).unwrap();
        let h = delta_max_histogram(&z);
        let s = crate::nn_stretch::summarize(&z);
        assert_eq!(h.sum, s.dmax_sum);
        assert_eq!(h.count as u128, s.n);
        assert_eq!(h.max, s.max_delta);
    }
}
