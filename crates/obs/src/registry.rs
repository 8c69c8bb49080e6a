//! The named metric directory and its text/JSON exporters.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::metric::Counter;

/// A gauge read function: one call yields the level of every name it was
/// registered under, in registration order.
type GaugeRead = Arc<dyn Fn() -> Vec<i64> + Send + Sync>;

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    /// The `i`-th level of a read function.
    Gauge(GaugeRead, usize),
    Histogram(Histogram),
}

impl fmt::Debug for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Counter(c) => c.fmt(f),
            Metric::Gauge(_, i) => write!(f, "Gauge(level {i} of a read function)"),
            Metric::Histogram(h) => h.fmt(f),
        }
    }
}

/// A directory of named metrics.
///
/// The registry's mutex guards only the *name → handle* map: it is taken
/// when a metric is registered and when a snapshot clones the map, never
/// on the update path. Counter and histogram handles returned by
/// [`counter`](MetricsRegistry::counter) /
/// [`histogram`](MetricsRegistry::histogram) are cheap clones that
/// callers cache once and update wait-free thereafter. A gauge has no
/// handle and nothing updates it: it is a read function registered with
/// [`gauges`](MetricsRegistry::gauges) that
/// [`snapshot`](MetricsRegistry::snapshot) calls.
///
/// Asking for an existing counter or histogram name returns the *same*
/// underlying metric, so independent components can share a metric by
/// name. Asking for an existing name with a different kind panics — that
/// is a wiring bug.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted counter"),
        }
    }

    /// Registers `names` as gauges read together: every
    /// [`snapshot`](Self::snapshot) calls `read` once, with the map lock
    /// released, and reports its `i`-th level under `names[i]` — so
    /// levels that must agree (taken under one lock) are read in one
    /// call. Registering a name again replaces its read function.
    pub fn gauges<const N: usize>(
        &self,
        names: [impl AsRef<str>; N],
        read: impl Fn() -> [i64; N] + Send + Sync + 'static,
    ) {
        let read: GaugeRead = Arc::new(move || read().to_vec());
        let mut map = self.metrics.lock().unwrap();
        for (i, name) in names.iter().map(AsRef::as_ref).enumerate() {
            if let Some(other @ (Metric::Counter(_) | Metric::Histogram(_))) =
                map.insert(name.to_string(), Metric::Gauge(Arc::clone(&read), i))
            {
                panic!("metric {name:?} already registered as {other:?}, wanted gauge");
            }
        }
    }

    /// Returns (registering on first use) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted histogram"),
        }
    }

    /// Captures every registered metric. The map lock is held only long
    /// enough to clone the handles; the atomics are then read and each
    /// gauge read function called once, without any registry lock, so
    /// writers are never paused by the registry.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let handles: Vec<(String, Metric)> = {
            let map = self.metrics.lock().unwrap();
            map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
        };
        let mut reads: Vec<(GaugeRead, Vec<i64>)> = Vec::new();
        let entries = handles
            .into_iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(read, i) => {
                        let at = match reads.iter().position(|(r, _)| Arc::ptr_eq(r, &read)) {
                            Some(at) => at,
                            None => {
                                let levels = read();
                                reads.push((read, levels));
                                reads.len() - 1
                            }
                        };
                        MetricValue::Gauge(reads[at].1[i])
                    }
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name, value)
            })
            .collect();
        RegistrySnapshot { entries }
    }

    /// Renders the registry as aligned human-readable text.
    pub fn render(&self) -> String {
        self.snapshot().render()
    }

    /// Renders the registry as a flat JSON object keyed by metric name.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// One captured metric value.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// A counter's summed stripes.
    Counter(u64),
    /// A gauge's level.
    Gauge(i64),
    /// A histogram capture.
    Histogram(HistogramSnapshot),
}

/// A point-in-time capture of a whole [`MetricsRegistry`], sorted by
/// metric name.
#[derive(Clone, Debug)]
pub struct RegistrySnapshot {
    /// `(name, value)` pairs in name order.
    pub entries: Vec<(String, MetricValue)>,
}

impl RegistrySnapshot {
    /// Looks up a captured counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Looks up a captured gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// Looks up a captured histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(h),
            _ => None,
        })
    }

    /// Aligned text report: counters and gauges as plain numbers,
    /// histograms as a count + percentile line.
    pub fn render(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{name:<width$}  {c}\n"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("{name:<width$}  {g}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{name:<width$}  count={} p50={} p90={} p99={} p999={} max={}\n",
                        h.count(),
                        crate::fmt_ns(h.p50()),
                        crate::fmt_ns(h.p90()),
                        crate::fmt_ns(h.p99()),
                        crate::fmt_ns(h.p999()),
                        crate::fmt_ns(h.max()),
                    ));
                }
            }
        }
        out
    }

    /// Flat JSON object: counters/gauges as numbers, histograms as
    /// `{count, min, max, mean, p50, p90, p99, p999}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n  \"{}\": ", escape_json(name)));
            match value {
                MetricValue::Counter(c) => out.push_str(&c.to_string()),
                MetricValue::Gauge(g) => out.push_str(&g.to_string()),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.1}, \
                         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
                        h.count(),
                        h.min(),
                        h.max(),
                        h.mean(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.p999(),
                    ));
                }
            }
        }
        out.push_str("\n}");
        out
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter("x.count"), Some(3));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x");
        r.gauges(["x"], || [0]);
    }

    #[test]
    fn snapshot_lookups_and_render() {
        let r = MetricsRegistry::new();
        r.counter("ops.count").add(7);
        r.gauges(["mem.len"], || [-3]);
        r.histogram("ops.ns").record(1000);
        let s = r.snapshot();
        assert_eq!(s.counter("ops.count"), Some(7));
        assert_eq!(s.gauge("mem.len"), Some(-3));
        assert_eq!(s.histogram("ops.ns").unwrap().count(), 1);
        assert_eq!(s.counter("mem.len"), None, "kind-checked lookup");
        let text = r.render();
        assert!(text.contains("ops.count"));
        assert!(text.contains("p999="));
    }

    #[test]
    fn gauges_read_together_are_read_once_per_snapshot() {
        let r = MetricsRegistry::new();
        let calls = Arc::new(std::sync::atomic::AtomicI64::new(0));
        let seen = Arc::clone(&calls);
        r.gauges(["b.len", "a.live"], move || {
            let n = seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            [n, 10 * n]
        });
        let s = r.snapshot();
        assert_eq!((s.gauge("b.len"), s.gauge("a.live")), (Some(1), Some(10)));
        assert_eq!(
            r.snapshot().gauge("b.len"),
            Some(2),
            "read anew per snapshot"
        );
        r.gauges(["a.live"], || [-7]);
        let s = r.snapshot();
        assert_eq!(
            s.gauge("a.live"),
            Some(-7),
            "re-registering replaces the reader"
        );
        assert_eq!(s.gauge("b.len"), Some(3));
    }

    #[test]
    fn json_is_flat_and_escaped() {
        let r = MetricsRegistry::new();
        r.counter("a\"b").inc();
        r.histogram("h").record(100);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\\\"b\": 1"));
        assert!(json.contains("\"p999\""));
    }
}
