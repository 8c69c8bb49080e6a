//! # sfc-obs — engine observability: lock-free metrics, latency histograms, slow-query log
//!
//! The store is a concurrent engine; its instruments must not become the
//! bottleneck they are measuring. Everything in this crate follows one
//! discipline: **writers are wait-free, readers snapshot without
//! stopping the world.**
//!
//! ## The pieces
//!
//! * [`MetricsRegistry`] — a named directory of [`Counter`]s,
//!   [`Histogram`]s and gauges. Registration (`registry.counter("x")`)
//!   takes a short mutex once per *handle*, never per *update*; the
//!   returned handles are cheap `Arc` clones that callers cache and hit
//!   directly. [`MetricsRegistry::render`] and
//!   [`MetricsRegistry::to_json`] export the whole registry as aligned
//!   text or a flat JSON object.
//! * [`Counter`] — a monotone event count, **striped** across
//!   cache-line-padded atomics (one stripe picked per thread), so
//!   concurrent writers on different cores never bounce the same line.
//!   `value()` sums the stripes; the sum is exact for all updates that
//!   happened-before the read.
//! * Gauges — a level (memtable size, run count) is a read function its
//!   owner registers ([`MetricsRegistry::gauges`]); nothing pushes it.
//! * [`Histogram`] — an HDR-style log-bucketed latency histogram; see the
//!   error-bound discussion below. Reports p50/p90/p99/p999/max.
//! * [`Sampler`] — a wait-free 1-in-N decimator for timings too cheap to
//!   clock on every call (the insert hot path).
//! * [`SlowLog`] — a bounded ring buffer of the slowest operations:
//!   `observe(wall_ns, || detail)` keeps the detail closure unevaluated
//!   unless the wall time crosses the configurable threshold, so the
//!   fast path pays one atomic load.
//!
//! ## Memory model of the striped recorders
//!
//! All updates use `Ordering::Relaxed`: each stripe/bucket is an
//! independent monotone counter and no recorder ordering is promised
//! between metrics. What *is* promised: an update that happens-before a
//! snapshot (e.g. the updating thread was joined, or a lock/channel
//! established the edge) is visible in that snapshot — exactly the
//! guarantee the multi-writer stress tests assert when they join the
//! writers and then compare per-shard op counts against driver totals.
//! Snapshots taken concurrently with writers are *torn but monotone*:
//! each counter independently shows some prefix of its updates, so
//! totals can lag but never invent events.
//!
//! ## Histogram bucket layout and error bounds
//!
//! Values (latencies in ns) land in power-of-two blocks subdivided into
//! `2^5 = 32` linear sub-buckets ([`SUB_BITS`]). Values below 64 are
//! recorded exactly (blocks 0–1 have width-1 buckets); above that, a
//! bucket spanning `[lo, hi]` has `hi - lo < lo / 32`, so any reported
//! quantile `q` satisfies `v ≤ q ≤ v · (1 + 2⁻⁵)` where `v` is the exact
//! order statistic — relative error at most **3.125%**, never
//! under-reported. The full `u64` range needs only 1 920 buckets
//! (15 KiB), updated with a single `fetch_add` — no resizing, no locks.
//! `p50()`/`p90()`/`p99()`/`p999()` clamp to the exact recorded
//! min/max, so degenerate distributions report exact values.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod histogram;
mod metric;
mod registry;
mod slowlog;

pub use histogram::{Histogram, HistogramSnapshot, SUB_BITS};
pub use metric::{Counter, Sampler};
pub use registry::{MetricValue, MetricsRegistry, RegistrySnapshot};
pub use slowlog::{SlowEntry, SlowLog};

/// Formats a nanosecond quantity with a human-readable unit (`ns`, `µs`,
/// `ms`, `s`) — shared by the text exporter and the examples.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.210s");
    }
}
