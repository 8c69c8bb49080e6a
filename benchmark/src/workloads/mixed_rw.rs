//! `mixed_rw` — the same layers, used differently.
//!
//! A durable Hilbert-curve store preloaded with half a million records and
//! a background maintenance thread; segments of 25 % acked per-record
//! writes (every 7th a delete), 50 % get, 20 % selective box, 5 % kNN, 80 %
//! of keys from 64 hot 128×128 tiles scattered over the grid. Against
//! `ingest_durable`: per-record v1 frames and a per-write ack wait instead
//! of coalesced batches; scattered instead of curve-local memtable inserts;
//! background instead of inline maintenance. Against `query_static`: reads
//! that capture a non-empty memtable and deeper run stacks, and a
//! non-Morton curve, so every box goes through interval decomposition. A
//! write-path gain bought at the readers' expense shows here as worse
//! `box_*` / `knn_*`. One op = one call; the headline call is one acked
//! single-record write.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use super::{
    check_segment, check_store, drive, ops_per_s, report_work, segments, Cfg, Class, ClassSeries,
    Segment, GRID_K,
};
use crate::adapter::{self, HilbertCurve, Key, Op, Registry, Store, P2};
use crate::gen::{self, Call, Keys, Mix};
use crate::layers;
use crate::model::GridModel;
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer, NO_PARENT};

const MIX: Mix = Mix {
    write: 25,
    small_box: 20,
    big_box: 0,
    knn: 5,
};
const PRELOAD_BATCH: usize = 256;

struct Bench<'a> {
    cfg: &'a Cfg,
    curve: HilbertCurve<2>,
    dir: PathBuf,
    preload: Vec<(P2, u64)>,
    tiles: Keys,
    segment_calls: usize,
}

/// What the segments of one store measured.
#[derive(Default)]
struct Phase {
    classes: [ClassSeries; super::CLASSES],
    throughput: Vec<f64>,
    /// The last measured segment and its calls.
    last: Option<(Vec<Call>, Segment)>,
    runs_max: usize,
    rebalance_pause_ms: Option<f64>,
    routing: Option<layers::Routing>,
}

impl Bench<'_> {
    /// Set-up: a fresh durable store with the preload written and synced.
    fn open(&self) -> Result<Store<HilbertCurve<2>>, String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        let store = adapter::open_durable(&self.curve, &self.dir)?;
        for chunk in self.preload.chunks(PRELOAD_BATCH) {
            let ops: Vec<Op> = chunk.iter().map(|&(p, v)| Op::Insert(p, v)).collect();
            adapter::write_batch_nosync(&store, &ops);
        }
        adapter::sync(&store)?;
        Ok(store)
    }

    fn calls(&self, stream: usize) -> Vec<Call> {
        let first_payload = (self.preload.len() + stream * self.segment_calls) as u64;
        gen::calls(
            self.cfg.seed,
            stream as u64,
            self.segment_calls,
            GRID_K,
            MIX,
            &self.tiles,
            first_payload,
        )
    }

    /// Drives `store` under background maintenance: one warm-up segment
    /// (discarded), then segments for `seconds` — or, with a tracer, one
    /// traced segment. Ends with a crash, a reopen and a check of the
    /// recovered store against the model.
    fn phase(
        &self,
        report: &mut Report,
        store: Store<HilbertCurve<2>>,
        seconds: f64,
        mut trace: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let mut model = GridModel::new(GRID_K);
        self.preload.iter().for_each(|&(p, v)| model.insert(p, v));
        let store = Arc::new(store);
        adapter::start_maintenance(&store);

        let mut phase = Phase::default();
        let warm = self.calls(0);
        let seg = drive(&store, &warm, None);
        check_segment(report, &self.curve, &mut model, &warm, &seg);
        let traced = trace.is_some();
        segments(
            seconds,
            if traced { 1 } else { 3 },
            if traced { 1 } else { 64 },
            |i| {
                let calls = self.calls(i + 1);
                let seg = match trace.as_mut() {
                    Some(tr) => {
                        let root = tr.begin("segment", NO_PARENT, 0);
                        let seg = drive(&store, &calls, Some((&mut **tr, root)));
                        tr.end(root);
                        seg
                    }
                    None => drive(&store, &calls, None),
                };
                phase.throughput.push(ops_per_s(calls.len(), seg.wall_ns));
                for (series, ns) in phase.classes.iter_mut().zip(&seg.lat_ns) {
                    series.fold(ns);
                }
                phase.runs_max = phase.runs_max.max(adapter::runs_max(&store));
                check_segment(report, &self.curve, &mut model, &calls, &seg);
                phase.last = Some((calls, seg));
            },
        );

        adapter::stop_maintenance(&store);
        if traced {
            phase.routing = Some(layers::Routing::of(&store));
            // The baseline ROADMAP asks for: today's stop-the-world pause.
            let t = Instant::now();
            adapter::rebalance(&store, 0.05);
            phase.rebalance_pause_ms = Some(stats::ns_since(t) as f64 / 1e6);
        }
        adapter::sync(&store)?;
        let store = Arc::try_unwrap(store)
            .map_err(|_| "the maintenance thread still holds the store".to_string())?;
        adapter::crash(store);
        let store = adapter::open_durable(&self.curve, &self.dir)?;
        check_store(
            report,
            "recovered store",
            &store,
            &model,
            self.cfg.digest_skew(),
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(phase)
    }
}

/// The write calls of a stream, as `(point, Some(payload))` or a delete.
fn writes(calls: &[Call]) -> Vec<(P2, Option<u64>)> {
    calls
        .iter()
        .filter_map(|c| match *c {
            Call::Insert(p, v) => Some((p, Some(v))),
            Call::Delete(p) => Some((p, None)),
            _ => None,
        })
        .collect()
}

/// The same single-record writes into a durable store without waiting
/// (`*_nosync`, one `sync` at the end) and into an in-memory store: the
/// difference is what the log costs a record; the acked write's median
/// minus the unacked one's is the ack wait.
fn wal_differential(
    report: &mut Report,
    tr: &mut Tracer,
    replay: SpanId,
    curve: &HilbertCurve<2>,
    dir: &Path,
    stream: &[(P2, Option<u64>)],
) -> Result<(), String> {
    let apply = |store: &Store<HilbertCurve<2>>, lat: &mut Vec<u64>| {
        for &(p, v) in stream {
            let t = Instant::now();
            match v {
                Some(v) => adapter::write_one_nosync(store, p, v),
                None => adapter::delete_one_nosync(store, p),
            }
            lat.push(stats::ns_since(t));
        }
    };
    let _ = std::fs::remove_dir_all(dir);
    let durable = adapter::open_durable(curve, dir)?;
    let mut unacked = Vec::with_capacity(stream.len());
    let (result, durable_ns) = tr.span("wal.durable_stream", replay, || {
        apply(&durable, &mut unacked);
        adapter::sync(&durable)
    });
    result?;
    drop(durable);
    let _ = std::fs::remove_dir_all(dir);
    let memory = adapter::open_in_memory(curve);
    let ((), memory_ns) = tr.span("wal.memory_stream", replay, || {
        apply(&memory, &mut Vec::with_capacity(stream.len()))
    });
    let n = stream.len().max(1) as f64;
    report.scalar(
        "wal.cost_ns_per_record.single",
        "ns",
        (durable_ns as f64 - memory_ns as f64) / n,
        stream.len() as u64,
        "durable nosync stream - in-memory stream",
    );
    if let (Some(acked), Some(unacked)) =
        (report.get("write_p50_us"), stats::quantile(&unacked, 0.5))
    {
        report.scalar(
            "wal.ack_wait_us_p50",
            "us",
            acked - unacked as f64 / 1e3,
            stream.len() as u64,
            "try_insert p50 - insert_nosync p50",
        );
    }
    Ok(())
}

pub fn run(cfg: &Cfg, traced: bool) -> Result<Report, String> {
    let mut report = Report::new("mixed_rw", cfg.seed, cfg.smoke, traced);
    let bench = Bench {
        cfg,
        curve: adapter::hilbert_curve(GRID_K),
        dir: cfg.data_dir.join("mixed_rw"),
        preload: gen::uniform_records(cfg.seed, cfg.size(500_000, 20_000), GRID_K, 0),
        tiles: gen::hot_tiles(cfg.seed, 64, 128, GRID_K),
        segment_calls: cfg.size(48_000, 1_000),
    };

    let store = super::timed_setup(&mut report, 3, || bench.open())?;
    let phase = bench.phase(&mut report, store, cfg.untraced_seconds(traced), None)?;

    report.series(
        "ops_per_s",
        "ops/s",
        &phase.throughput,
        bench.segment_calls as u64,
        "calls per segment",
    );
    phase.classes[Class::Write as usize].report(&mut report, "write", true);
    phase.classes[Class::Box as usize].report(&mut report, "box", true);
    phase.classes[Class::Knn as usize].report(&mut report, "knn", true);
    phase.classes[Class::Get as usize].report(&mut report, "get", false);
    phase.classes[Class::Write as usize]
        .report_headline(&mut report, "one acked single-record write");
    report.scalar("peak_rss_mb", "MB", stats::peak_rss_mb(), 0, "");

    if traced {
        let mut store = bench.open()?;
        let registry = adapter::attach_metrics(&mut store);
        let mut tr = Tracer::with_capacity(bench.segment_calls + 4096);
        let traced_phase = bench.phase(&mut report, store, 0.0, Some(&mut tr))?;
        let (calls, seg) = traced_phase.last.as_ref().expect("one traced segment");
        super::report_trace_overhead(
            &mut report,
            &phase.throughput,
            stats::median(&traced_phase.throughput),
        );
        for (class, name) in [(Class::Box, "box"), (Class::Knn, "knn")] {
            report_work(
                &mut report,
                name,
                &seg.work[class as usize],
                seg.lat_ns[class as usize].len(),
            );
        }
        let stream: Vec<(P2, Option<u64>)> = writes(&bench.calls(0))
            .into_iter()
            .chain(writes(calls))
            .collect();
        let user_bytes: u64 = stream
            .iter()
            .map(|(_, v)| {
                if v.is_some() {
                    adapter::USER_BYTES_PER_RECORD
                } else {
                    adapter::USER_BYTES_PER_DELETE
                }
            })
            .sum();
        layers::registry(&mut report, &Registry::read(&registry), user_bytes);
        report.scalar(
            "shard.runs_max",
            "count",
            traced_phase.runs_max as f64,
            0,
            "deepest run stack at a segment end",
        );
        let stall = seg.lat_ns[Class::Write as usize]
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        report.scalar(
            "shard.write_stall_ms_max",
            "ms",
            stall as f64 / 1e6,
            seg.lat_ns[Class::Write as usize].len() as u64,
            "largest single write call",
        );
        if let Some(ms) = traced_phase.rebalance_pause_ms {
            report.scalar(
                "partition.rebalance_pause_ms",
                "ms",
                ms,
                0,
                "one rebalance(0.05) after the last segment",
            );
        }

        let replay = tr.begin("replay", NO_PARENT, 0);
        let points: Vec<P2> = stream.iter().map(|&(p, _)| p).collect();
        layers::core(
            &mut report,
            &mut tr,
            replay,
            "hilbert",
            &bench.curve,
            &points,
        );
        let mut keys: Vec<Key> = Vec::new();
        adapter::encode_batch(&bench.curve, &points, &mut keys);
        if let Some(routing) = &traced_phase.routing {
            layers::partition(&mut report, &mut tr, replay, routing, &keys);
        }
        let boxes = super::selective_boxes(calls, 500);
        layers::index(
            &mut report,
            &mut tr,
            replay,
            &bench.curve,
            &bench.preload,
            &boxes,
        );
        layers::memtable(&mut report, &mut tr, replay, "scattered", &keys);
        wal_differential(
            &mut report,
            &mut tr,
            replay,
            &bench.curve,
            &bench.dir,
            &stream,
        )?;
        layers::common(&mut report, &mut tr, replay);
        tr.end(replay);

        // How much of the median acked write and of the median box query
        // the externally measurable layers explain.
        let ns: f64 = [
            "core.encode_ns_per_key.hilbert",
            "partition.route_ns_per_key",
            "memtable.insert_ns.scattered",
            "wal.cost_ns_per_record.single",
        ]
        .iter()
        .filter_map(|n| report.get(n))
        .sum();
        if let (Some(wait_us), Some(p50)) = (
            report.get("wal.ack_wait_us_p50"),
            report.get("write_p50_us"),
        ) {
            report.scalar(
                "trace.write_coverage",
                "share",
                (ns / 1e3 + wait_us) / p50,
                0,
                "encode + route + memtable + log + ack wait, of the median write",
            );
        }
        if let (Some(us), Some(p50)) = (
            report.get("index.decompose_us_per_box"),
            report.get("box_p50_us"),
        ) {
            report.scalar(
                "trace.read_coverage",
                "share",
                us / p50,
                0,
                "interval decomposition, of the median selective box",
            );
        }
        layers::write_trace(&mut report, &tr, cfg);
    }
    let _ = std::fs::remove_dir_all(&bench.dir);
    Ok(report)
}
