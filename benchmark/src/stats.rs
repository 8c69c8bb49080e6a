//! Honest statistics (ROADMAP 1(d)): a percentile is reported only when at
//! least ten samples lie beyond it, every value carries its sample count,
//! and a reported value is the median over segments with the spread beside it.

use std::time::Instant;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail is chosen from, highest first.
const TAIL_CANDIDATES: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    v
}

/// Nearest-rank quantile of an ascending slice.
fn rank(sorted: &[u64], q: f64) -> u64 {
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// `true` when `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn supported(n: usize, q: f64) -> bool {
    ((n as f64) * (1.0 - q)).floor() as usize >= MIN_BEYOND
}

/// Quantile `q` of `samples`, or `None` when too few samples lie beyond it.
/// The median is always reported.
pub fn quantile(samples: &[u64], q: f64) -> Option<u64> {
    quantile_sorted(&sorted(samples), q)
}

/// [`quantile`] of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() || (q > 0.5 && !supported(sorted.len(), q)) {
        return None;
    }
    Some(rank(sorted, q))
}

/// The highest percentile an ascending sample supports and its value; the
/// slowest sample (labelled `1.0`) when it supports none.
pub fn tail_sorted(sorted: &[u64]) -> Option<(f64, u64)> {
    let last = *sorted.last()?;
    Some(
        TAIL_CANDIDATES
            .iter()
            .find(|&&q| supported(sorted.len(), q))
            .map_or((1.0, last), |&q| (q, rank(sorted, q))),
    )
}

/// Name of a tail quantile as [`tail`] labels it.
pub fn tail_label(q: f64) -> String {
    if q >= 1.0 {
        "max".to_string()
    } else {
        format!("p{:.0}", q * 100.0)
    }
}

/// Median of the values (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median
/// (the rule the benchmark contract applies across runs); 0 for fewer than
/// two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The exclusive method of Python's `statistics.quantiles(v, n=4)`.
    let q = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        ((q(0.75) - q(0.25)) / med).abs()
    }
}

/// Cost of one `Instant::now()` + `elapsed()` pair, so that sub-2 µs `get`
/// latencies can be read against it.
pub fn timer_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let start = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let t = Instant::now();
        acc += std::hint::black_box(t.elapsed()).as_nanos();
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Peak resident set of this process (`VmHWM`) in MB; 0 where `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(quantile(&v, 0.99), None, "999 samples leave 9 beyond p99");
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.99), Some(990));
        assert_eq!(quantile(&v, 0.5), Some(500));
        assert_eq!(
            quantile(&[7], 0.5),
            Some(7),
            "the median is always reported"
        );
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_sorted(&v), Some((0.99, 990)));
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_sorted(&v), Some((0.95, 190)));
        let v: Vec<u64> = (1..=17).collect();
        assert_eq!(
            tail_sorted(&v),
            Some((1.0, 17)),
            "too few for any percentile"
        );
        assert_eq!(tail_label(0.99), "p99");
        assert_eq!(tail_label(1.0), "max");
    }

    #[test]
    fn median_and_quartile_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
