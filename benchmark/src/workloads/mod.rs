//! The four workloads (names are final; later issues refer to them) and
//! what they share: the segment loop, the closed-loop call driver, the
//! per-class latency summaries and the oracles over recorded answers.
//!
//! Load shape of every workload: closed loop, one client thread. Each
//! metric is computed per segment and reported as the median over segments.

use std::path::PathBuf;
use std::time::Instant;

use crate::adapter::{self, Entry, QueryStats, Store, StoreCurve, P2};
use crate::gen::Call;
use crate::model::{GridModel, Rec};
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer};

pub mod ingest_durable;
pub mod mixed_rw;
pub mod paper_stretch;
pub mod query_static;

pub const NAMES: [&str; 4] = [
    "paper_stretch",
    "ingest_durable",
    "query_static",
    "mixed_rw",
];

/// Bits per coordinate of the 2-D grid every store workload runs on
/// (2048 × 2048 = 4.2 M cells).
pub const GRID_K: u32 = 11;
/// The kNN every workload issues: `knn(k = 10, window = 32)`.
pub const KNN_K: usize = 10;
pub const KNN_WINDOW: usize = 32;
/// Every `CHECK_EVERY`-th query's answer is kept and checked against the
/// shadow model after the segment.
pub const CHECK_EVERY: usize = 64;

#[derive(Debug, Clone)]
pub struct Cfg {
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Sizes ÷ 100: same code paths and oracles, finishes in seconds.
    pub smoke: bool,
    /// Where durable stores live; inside the checkout, removed afterwards.
    pub data_dir: PathBuf,
    /// Where span files go.
    pub trace_dir: PathBuf,
    /// Test only: expect wrong digests, to show that the oracles bite.
    #[cfg(test)]
    pub corrupt_oracle: bool,
}

impl Cfg {
    /// `full` at full size, a hundredth of it (at least `floor`) in smoke mode.
    pub fn size(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 100).max(floor)
        } else {
            full
        }
    }

    /// How long the untraced phase measures: all of `seconds`, or half of it
    /// when a traced segment and the layer replay follow.
    pub fn untraced_seconds(&self, traced: bool) -> f64 {
        if traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Added to every expected digest; 0 outside the oracle tests.
    pub fn digest_skew(&self) -> u64 {
        #[cfg(test)]
        if self.corrupt_oracle {
            return 1;
        }
        0
    }
}

/// Runs `workload`. Untraced, it measures for `cfg.seconds` and reports the
/// end-to-end metrics; traced, it measures untraced for half the time, then
/// runs one traced segment and the layer replay, and reports the per-layer
/// metrics too.
pub fn run(workload: &str, cfg: &Cfg, traced: bool) -> Result<Report, String> {
    match workload {
        "paper_stretch" => paper_stretch::run(cfg, traced),
        "ingest_durable" => ingest_durable::run(cfg, traced),
        "query_static" => query_static::run(cfg, traced),
        "mixed_rw" => mixed_rw::run(cfg, traced),
        other => Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    }
}

/// Runs `segment(i)` until `seconds` have passed, at least `min` times and
/// at most `max`. Returns the segments run.
pub fn segments(seconds: f64, min: usize, max: usize, mut segment: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < max && (i < min || start.elapsed().as_secs_f64() < seconds) {
        segment(i);
        i += 1;
    }
    i
}

/// Runs `setup` `times` times, keeps the last result and reports the median
/// time as `setup_s`.
pub fn timed_setup<T>(
    report: &mut Report,
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    report.series("setup_s", "s", &secs, 0, "median over set-ups");
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// Latency of one class of call, summarised per segment.
#[derive(Debug, Default, Clone)]
pub struct ClassSeries {
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub tail_us: Vec<f64>,
    pub tail_q: f64,
    /// Calls in the last segment folded.
    pub calls: usize,
}

impl ClassSeries {
    /// Folds one segment's latencies in.
    pub fn fold(&mut self, ns: &[u64]) {
        let us = |v: u64| v as f64 / 1e3;
        self.calls = ns.len();
        let mut sorted = ns.to_vec();
        sorted.sort_unstable();
        if let Some(p50) = stats::quantile_sorted(&sorted, 0.5) {
            self.p50_us.push(us(p50));
        }
        if let Some(p99) = stats::quantile_sorted(&sorted, 0.99) {
            self.p99_us.push(us(p99));
        }
        if let Some((q, v)) = stats::tail_sorted(&sorted) {
            self.tail_q = q;
            self.tail_us.push(us(v));
        }
    }

    /// Reports `<class>_p50_us` and, when asked, `<class>_p99_us`.
    pub fn report(&self, report: &mut Report, class: &str, with_p99: bool) {
        report.series(
            &format!("{class}_p50_us"),
            "us",
            &self.p50_us,
            self.calls as u64,
            "",
        );
        if with_p99 {
            let note = if self.p99_us.is_empty() {
                "fewer than 10 samples beyond p99"
            } else {
                ""
            };
            report.series(
                &format!("{class}_p99_us"),
                "us",
                &self.p99_us,
                self.calls as u64,
                note,
            );
        }
    }

    /// Reports this class as the workload's headline call.
    pub fn report_headline(&self, report: &mut Report, what: &str) {
        report.series("call_p50_us", "us", &self.p50_us, self.calls as u64, what);
        let note = format!("{what}, {}", stats::tail_label(self.tail_q));
        report.series(
            "call_tail_us",
            "us",
            &self.tail_us,
            self.calls as u64,
            &note,
        );
    }
}

/// The classes of [`Call`] the driver times separately.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Class {
    Write = 0,
    Box = 1,
    BigBox = 2,
    Knn = 3,
    Get = 4,
}

pub const CLASSES: usize = 5;

/// A kept answer, checked against the shadow model after the segment.
#[derive(Debug)]
pub enum Answer {
    Hits(Vec<Rec>),
    Got(Option<u64>),
}

/// What a call returned, before anything is made of it outside the timer.
enum Raw {
    Wrote(Result<(), String>),
    Hits((Vec<Entry>, QueryStats)),
    Got(Option<u64>),
}

/// What one pass of [`drive`] measured.
#[derive(Default)]
pub struct Segment {
    pub wall_ns: u64,
    pub lat_ns: [Vec<u64>; CLASSES],
    /// Summed work counts of the box, big-box and kNN queries.
    pub work: [QueryStats; CLASSES],
    /// `(position in the call stream, answer)` of every checked query.
    pub kept: Vec<(usize, Answer)>,
    pub errors: Vec<String>,
}

impl Segment {
    pub fn with_capacity(calls: usize) -> Self {
        let mut s = Segment::default();
        for v in &mut s.lat_ns {
            v.reserve(calls);
        }
        s.kept.reserve(calls / CHECK_EVERY + CLASSES);
        s
    }
}

fn rec(e: &Entry) -> Rec {
    ([e.point.coord(0), e.point.coord(1)], e.payload)
}

/// The closed loop: issues `calls` one after another against `store`,
/// timing each; with a tracer, also records a span per call carrying the
/// query's work counts.
pub fn drive<C: StoreCurve>(
    store: &Store<C>,
    calls: &[Call],
    mut tracer: Option<(&mut Tracer, SpanId)>,
) -> Segment {
    let mut seg = Segment::with_capacity(calls.len());
    let mut seen = [0usize; CLASSES];
    let wall = Instant::now();
    for (i, call) in calls.iter().enumerate() {
        let t = Instant::now();
        let (class, name, raw) = match call {
            Call::Insert(p, v) => (
                Class::Write,
                "store.write_one",
                Raw::Wrote(adapter::write_one(store, *p, *v)),
            ),
            Call::Delete(p) => (
                Class::Write,
                "store.write_one",
                Raw::Wrote(adapter::delete_one(store, *p)),
            ),
            Call::Box(b) => (
                Class::Box,
                "store.box",
                Raw::Hits(adapter::box_query(store, b)),
            ),
            Call::BigBox(b) => (
                Class::BigBox,
                "store.bigbox",
                Raw::Hits(adapter::box_query(store, b)),
            ),
            Call::Knn(q) => (
                Class::Knn,
                "store.knn",
                Raw::Hits(adapter::knn(store, *q, KNN_K, KNN_WINDOW)),
            ),
            Call::Get(p) => (Class::Get, "store.get", Raw::Got(adapter::get(store, *p))),
        };
        let ns = stats::ns_since(t);
        let c = class as usize;
        seg.lat_ns[c].push(ns);
        let keep = seen[c] % CHECK_EVERY == 0;
        seen[c] += 1;
        let work = match raw {
            Raw::Wrote(Ok(())) => None,
            Raw::Wrote(Err(e)) => {
                seg.errors.push(format!("call {i}: {e}"));
                None
            }
            Raw::Hits((hits, work)) => {
                seg.work[c].add(&work);
                if keep {
                    seg.kept
                        .push((i, Answer::Hits(hits.iter().map(rec).collect())));
                }
                Some(work)
            }
            Raw::Got(got) => {
                if keep {
                    seg.kept.push((i, Answer::Got(got)));
                }
                None
            }
        };
        if let Some((tr, parent)) = tracer.as_mut() {
            tr.push(name, *parent, i as u64, t, ns, work);
        }
    }
    seg.wall_ns = stats::ns_since(wall);
    seg
}

/// Replays the segment's writes into `model` in submission order and checks
/// every kept answer against the model as it stood when the query ran.
/// Counts every call of the segment as attempted.
pub fn check_segment<C: StoreCurve>(
    report: &mut Report,
    curve: &C,
    model: &mut GridModel,
    calls: &[Call],
    seg: &Segment,
) {
    report.attempted += calls.len() as u64;
    for e in &seg.errors {
        report.fail(e.clone());
    }
    let mut kept = seg.kept.iter().peekable();
    for (i, call) in calls.iter().enumerate() {
        if let Some((_, answer)) = kept.next_if(|(at, _)| *at == i) {
            if let Err(why) = check_answer(curve, model, call, answer) {
                report.fail(format!("call {i} {call:?}: {why}"));
            }
        }
        match call {
            Call::Insert(p, v) => model.insert(*p, *v),
            Call::Delete(p) => model.delete(*p),
            _ => {}
        }
    }
}

fn check_answer<C: StoreCurve>(
    curve: &C,
    model: &GridModel,
    call: &Call,
    answer: &Answer,
) -> Result<(), String> {
    let corner = |p: P2| [p.coord(0), p.coord(1)];
    let differ = |got: &[Rec], want: &[Rec]| {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{} records, the model has {}",
                got.len(),
                want.len()
            ))
        }
    };
    match (call, answer) {
        (Call::Box(b) | Call::BigBox(b), Answer::Hits(hits)) => {
            let mut got = hits.clone();
            got.sort_unstable_by_key(|&(c, _)| (c[1], c[0]));
            differ(&got, &model.in_box(corner(b.lo()), corner(b.hi())))
        }
        (Call::Knn(q), Answer::Hits(hits)) => {
            let want = model.knn(*q, KNN_K, |c| adapter::key_of(curve, P2::new(c)));
            differ(hits, &want)
        }
        (Call::Get(p), Answer::Got(got)) => {
            let want = model.get(*p);
            if *got == want {
                Ok(())
            } else {
                Err(format!("got {got:?}, the model has {want:?}"))
            }
        }
        _ => Err("answer of another class".to_string()),
    }
}

/// Checks the whole store against the model: `len()` and the
/// order-independent digest of `iter()`. One attempted operation.
pub fn check_store<C: StoreCurve>(
    report: &mut Report,
    what: &str,
    store: &Store<C>,
    model: &GridModel,
    skew: u64,
) {
    let (n, digest) = crate::model::stream_digest(adapter::iter(store).map(|e| rec(&e)));
    let want = (model.len(), model.digest().wrapping_add(skew));
    let ok = adapter::len(store) == want.0 && (n, digest) == want;
    report.check(ok, || {
        format!(
            "{what}: store len {} iter ({n}, {digest:#x}), the model has ({}, {:#x})",
            adapter::len(store),
            want.0,
            want.1
        )
    });
}

/// `obs.trace_overhead`: untraced ÷ traced throughput of the same workload.
pub fn report_trace_overhead(report: &mut Report, untraced: &[f64], traced_ops_per_s: f64) {
    let ratio = stats::median(untraced) / traced_ops_per_s;
    report.scalar(
        "obs.trace_overhead",
        "ratio",
        ratio,
        0,
        "untraced / traced ops_per_s",
    );
}

/// The first `n` selective boxes of a call stream.
pub fn selective_boxes(calls: &[Call], n: usize) -> Vec<adapter::BoxRegion<2>> {
    calls
        .iter()
        .filter_map(|c| match c {
            Call::Box(b) => Some(*b),
            _ => None,
        })
        .take(n)
        .collect()
}

/// Throughput of a segment in operations per second.
pub fn ops_per_s(ops: usize, wall_ns: u64) -> f64 {
    ops as f64 / (wall_ns.max(1) as f64 / 1e9)
}

/// Bytes of regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Per-query means of the work counts of one class, as `index.<class>.*`.
pub fn report_work(report: &mut Report, class: &str, work: &QueryStats, queries: usize) {
    let per = |v: u64| v as f64 / queries.max(1) as f64;
    let n = queries as u64;
    report.scalar(
        &format!("index.{class}.seeks"),
        "count",
        per(work.seeks),
        n,
        "",
    );
    report.scalar(
        &format!("index.{class}.scanned"),
        "count",
        per(work.scanned),
        n,
        "",
    );
    report.scalar(
        &format!("index.{class}.reported"),
        "count",
        per(work.reported),
        n,
        "",
    );
    report.scalar(
        &format!("index.{class}.blocks_decoded"),
        "count",
        per(work.blocks_decoded),
        n,
        "",
    );
    report.scalar(
        &format!("index.{class}.blocks_pruned"),
        "count",
        per(work.blocks_pruned),
        n,
        "",
    );
    let overscan = if work.reported == 0 {
        0.0
    } else {
        work.scanned as f64 / work.reported as f64
    };
    report.scalar(&format!("index.{class}.overscan"), "ratio", overscan, n, "");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare;

    fn smoke(name: &str, corrupt_oracle: bool) -> Cfg {
        let dir = std::env::temp_dir().join(format!(
            "sfc-benchmark-test-{}-{name}-{corrupt_oracle}",
            std::process::id()
        ));
        Cfg {
            seed: 11,
            seconds: 0.2,
            smoke: true,
            data_dir: dir.join("data"),
            trace_dir: dir,
            corrupt_oracle,
        }
    }

    /// Every workload passes its oracles at smoke size, and each oracle
    /// bites: with a wrong expected digest `failed_share` rises and
    /// `compare` fails the run.
    #[test]
    fn oracles_pass_and_bite_on_every_workload() {
        for name in NAMES {
            let good = run(name, &smoke(name, false), false).unwrap();
            assert_eq!(good.failed, 0, "{name}: {:?}", good.failures);
            assert!(good.attempted > 0);
            for metric in crate::report::CONTRACT {
                assert!(
                    good.get(metric.name).is_some_and(|v| v > 0.0),
                    "{name} reports no {}",
                    metric.name
                );
            }
            let bad = run(name, &smoke(name, true), false).unwrap();
            assert!(
                bad.failed > 0 && bad.failed_share() > 0.0,
                "{name}: a wrong digest went unnoticed"
            );

            let cfg = smoke(name, false);
            std::fs::create_dir_all(&cfg.trace_dir).unwrap();
            let (a, b) = (cfg.trace_dir.join("a.json"), cfg.trace_dir.join("b.json"));
            let _ = (std::fs::remove_file(&a), std::fs::remove_file(&b));
            good.append_to(&a).unwrap();
            bad.append_to(&b).unwrap();
            let (table, pass) = compare::files(&a, &b).unwrap();
            assert!(
                !pass,
                "{name}: compare passed a run with failures:\n{table}"
            );
            assert!(
                compare::files(&a, &a).unwrap().1,
                "{name}: a run disagrees with itself"
            );
            let _ = std::fs::remove_dir_all(&cfg.trace_dir);
        }
    }

    /// A traced smoke run reports per-layer metrics and writes its spans.
    #[test]
    fn traced_runs_fill_the_layers_they_reach() {
        for (name, expect) in [
            ("paper_stretch", "metrics.nn_ns_per_cell.z_d2"),
            ("ingest_durable", "wal.cost_ns_per_record.batched"),
            ("query_static", "index.box.blocks_decoded"),
            ("mixed_rw", "maintenance.ticks"),
        ] {
            let cfg = smoke(&format!("traced-{name}"), false);
            let report = run(name, &cfg, true).unwrap();
            assert_eq!(report.failed, 0, "{name}: {:?}", report.failures);
            assert!(
                report.get(expect).is_some_and(|v| v > 0.0),
                "{name} reports no {expect}"
            );
            assert!(report.get("obs.trace_overhead").is_some_and(|v| v > 0.0));
            let spans =
                std::fs::read_to_string(cfg.trace_dir.join(format!("trace-{name}.jsonl"))).unwrap();
            assert!(spans.lines().count() > 10 && spans.contains("\"name\":\"replay\""));
            if name == "paper_stretch" {
                assert!(
                    !spans.contains("\"name\":\"store."),
                    "paper_stretch reaches no store layer"
                );
                assert_eq!(report.get("wal.groups"), None);
            }
            if name == "query_static" {
                assert_eq!(report.get("wal.groups"), Some(0.0));
                assert_eq!(report.get("maintenance.ticks"), Some(0.0));
            }
            let _ = std::fs::remove_dir_all(&cfg.trace_dir);
        }
    }

    #[test]
    fn segments_run_for_the_time_within_their_limits() {
        assert_eq!(segments(0.0, 3, 64, |_| {}), 3);
        assert_eq!(segments(3600.0, 1, 5, |_| {}), 5);
        let n = segments(0.02, 1, 1_000_000, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!((2..=6).contains(&n), "{n} segments of 5 ms in 20 ms");
    }
}
