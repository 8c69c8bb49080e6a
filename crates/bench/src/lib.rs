//! # sfc-bench — the reproduction harness
//!
//! One experiment per paper artifact (figure, theorem, lemma, proposition)
//! plus the application-level experiments motivated by the paper's
//! introduction. Run them all:
//!
//! ```text
//! cargo run -p sfc-bench --release --bin experiments
//! ```
//!
//! or a single one by id (see [`all_experiments`]):
//!
//! ```text
//! cargo run -p sfc-bench --release --bin experiments -- thm2 fig1 lem5
//! ```
//!
//! Criterion micro-benchmarks (curve throughput, metric scaling, query
//! strategies, partitioning, tree building) live under `benches/`; those
//! that leave a committed trajectory write it through [`BenchReport`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::{all_experiments, Experiment};

use criterion::BenchRecord;
use sfc_metrics::report::Table;
use std::path::PathBuf;
use std::time::Instant;

/// Renders a slice of tables as plain text, one blank line apart.
pub fn render_tables(tables: &[Table]) -> String {
    tables
        .iter()
        .map(Table::render_text)
        .collect::<Vec<_>>()
        .join("\n")
}

/// A `BENCH_<bench>.json` report at the workspace root — the committed,
/// CI-uploaded trajectory of one group of micro-benchmarks.
///
/// The file is one JSON object: `schema`, `bench`, `nproc` (the CPUs the
/// writing process could run on — `available_parallelism` honours the
/// affinity mask, so a pinned run says so), then the sections in the
/// order they were set, each starting on a line of its own at a
/// two-space indent. That layout is what lets [`extending`](Self::extending)
/// read a report back without a JSON parser.
#[derive(Debug)]
pub struct BenchReport {
    bench: String,
    sections: Vec<(String, String)>,
}

impl BenchReport {
    /// An empty report for `BENCH_<bench>.json`.
    pub fn new(bench: &str) -> Self {
        Self {
            bench: bench.to_string(),
            sections: Vec::new(),
        }
    }

    /// A report that starts from the sections `BENCH_<bench>.json` already
    /// holds (none if there is no such file), for a file several bench
    /// binaries write a part of each: a section set again is replaced in
    /// place, every other one is carried over.
    pub fn extending(bench: &str) -> Self {
        let mut report = Self::new(bench);
        let text = std::fs::read_to_string(report.path()).unwrap_or_default();
        report.sections = parse_sections(&text);
        report
    }

    fn path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{}.json", self.bench))
    }

    /// Sets the section `key` to the JSON value `json`.
    pub fn section(&mut self, key: &str, json: impl Into<String>) {
        // Nested lines sit deeper than the section's own.
        let json = json.into().trim_end().replace('\n', "\n  ");
        match self.sections.iter_mut().find(|(k, _)| k == key) {
            Some((_, value)) => *value = json,
            None => self.sections.push((key.to_string(), json)),
        }
    }

    /// Sets the section `key` to an object of `members`, one
    /// `"name": value` per line; each value is JSON already.
    pub fn object(&mut self, key: &str, members: impl IntoIterator<Item = (String, String)>) {
        let lines: Vec<String> = members
            .into_iter()
            .map(|(name, value)| format!("  \"{}\": {value}", json_escape(&name)))
            .collect();
        self.section(key, format!("{{\n{}\n}}", lines.join(",\n")));
    }

    /// Sets the section `key` to an object of numbers printed with
    /// `decimals` places; `None` prints as `"unmeasured"` (a figure this
    /// box cannot produce, such as an N-thread ratio on fewer CPUs).
    pub fn numbers<N: AsRef<str>, V: Into<Option<f64>>>(
        &mut self,
        key: &str,
        decimals: usize,
        members: impl IntoIterator<Item = (N, V)>,
    ) {
        self.object(
            key,
            members.into_iter().map(|(name, value)| {
                let value = value
                    .into()
                    .map_or("\"unmeasured\"".to_string(), |v| format!("{v:.decimals$}"));
                (name.as_ref().to_string(), value)
            }),
        );
    }

    /// Sets the section `key` to the array of `records`: every benchmark's
    /// median/min/max and p50/p95/p99 nanoseconds per iteration.
    pub fn results(&mut self, key: &str, records: &[BenchRecord]) {
        let lines: Vec<String> = records
            .iter()
            .map(|r| {
                format!(
                    "  {{\"name\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"p50_ns\": {:.1}, \"p95_ns\": {:.1}, \"p99_ns\": {:.1}}}",
                    json_escape(&r.name),
                    r.median_ns,
                    r.min_ns,
                    r.max_ns,
                    r.p50_ns,
                    r.p95_ns,
                    r.p99_ns,
                )
            })
            .collect();
        self.section(key, format!("[\n{}\n]", lines.join(",\n")));
    }

    /// The report as it is written.
    fn render(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": 1,\n  \"bench\": \"{}\",\n  \"nproc\": {}",
            self.bench,
            nproc()
        );
        for (key, value) in &self.sections {
            out.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        out.push_str("\n}\n");
        out
    }

    /// Writes the file and prints where.
    pub fn write(&self) {
        let path = self.path();
        std::fs::write(&path, self.render())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// The sections of a rendered report: a line `  "key": …` opens one, the
/// lines up to the next such line (or the closing brace) belong to it.
fn parse_sections(text: &str) -> Vec<(String, String)> {
    let mut sections: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        let opening = line
            .strip_prefix("  \"")
            .and_then(|rest| rest.split_once("\": "));
        match (opening, sections.last_mut()) {
            (Some((key, value)), _) => sections.push((key.into(), value.into())),
            (None, Some((_, value))) if line != "}" => {
                value.push('\n');
                value.push_str(line);
            }
            _ => {}
        }
    }
    for (_, value) in &mut sections {
        if value.ends_with(',') {
            value.pop();
        }
    }
    sections.retain(|(key, _)| !["schema", "bench", "nproc"].contains(&key.as_str()));
    sections
}

/// The CPUs this process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The median nanoseconds per iteration of the benchmark `name`.
///
/// # Panics
/// Panics if `records` holds no benchmark of that name.
pub fn median_ns(records: &[BenchRecord], name: &str) -> f64 {
    let found = records.iter().find(|r| r.name == name);
    found
        .unwrap_or_else(|| panic!("no benchmark record {name}"))
        .median_ns
}

/// `cost(b) ÷ cost(a)`, timed interleaved: each of `rounds` rounds times
/// one call of each, the side that goes first alternating, and the result
/// is the median of the rounds' ratios. A slow spell of the box then hits
/// both sides of a round alike, which two benchmarks timed one after the
/// other do not get.
pub fn interleaved_ratio(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    fn time(f: &mut dyn FnMut()) -> f64 {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    }
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|round| {
            if round % 2 == 0 {
                let ta = time(&mut a);
                time(&mut b) / ta
            } else {
                let tb = time(&mut b);
                tb / time(&mut a)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[rounds / 2]
}

/// Escapes a string for a JSON string literal (benchmark names hold no
/// control characters).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_ratio_alternates_the_side_that_goes_first() {
        let calls = std::cell::RefCell::new(String::new());
        let ratio = interleaved_ratio(
            4,
            || calls.borrow_mut().push('a'),
            || calls.borrow_mut().push('b'),
        );
        assert_eq!(calls.into_inner(), "abbaabba");
        assert!(ratio.is_finite() && ratio > 0.0, "{ratio}");
    }

    #[test]
    fn bench_report_reads_back_what_it_renders() {
        let mut report = BenchReport::new("selftest_never_written");
        report.section("config", "{\"k\": 8}");
        report.numbers("speedups", 2, [("a_vs_b", Some(4.0)), ("c", None)]);
        report.section("metrics", "{\n  \"engine.x\": 1,\n  \"engine.y\": 2\n}\n");
        let text = report.render();
        assert!(text.starts_with(&format!(
            "{{\n  \"schema\": 1,\n  \"bench\": \"selftest_never_written\",\n  \"nproc\": {},\n",
            nproc()
        )));
        assert!(text.contains(
            "  \"speedups\": {\n    \"a_vs_b\": 4.00,\n    \"c\": \"unmeasured\"\n  },\n"
        ));
        assert!(text.contains("\n    \"engine.y\": 2\n  }\n}\n"), "{text}");

        // What `extending` starts from: the same sections; one set again
        // is replaced where it stood.
        let mut second = BenchReport::new("selftest_never_written");
        second.sections = parse_sections(&text);
        assert_eq!(second.sections, report.sections);
        second.numbers("speedups", 1, [("a_vs_b", Some(5.0))]);
        second.section("extra", "[]");
        let keys: Vec<&str> = second.sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["config", "speedups", "metrics", "extra"]);
        assert!(second.render().contains("\"a_vs_b\": 5.0\n"));
        assert!(BenchReport::extending("selftest_never_written")
            .sections
            .is_empty());
    }

    #[test]
    fn every_experiment_has_unique_id_and_title() {
        let experiments = all_experiments();
        assert!(experiments.len() >= 18, "got {}", experiments.len());
        let mut ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), experiments.len(), "duplicate experiment ids");
        for e in &experiments {
            assert!(!e.title.is_empty());
            assert!(!e.paper_ref.is_empty());
        }
    }

    #[test]
    fn render_tables_joins_text_tables() {
        let mut t = Table::new("x", &["a"]);
        t.push_row(vec!["1".into()]);
        let text = render_tables(&[t.clone(), t]);
        assert_eq!(text.matches("== x ==").count(), 2);
        assert!(text.contains("\n\n== x =="));
    }
}
