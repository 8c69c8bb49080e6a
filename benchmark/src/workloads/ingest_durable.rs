//! `ingest_durable` — the write side, batch path.
//!
//! A fresh durable store per segment; acked 256-op batches (90 % insert,
//! 10 % delete) whose keys are curve-local; inline flush and compaction (no
//! maintenance thread); then `sync`, a simulated crash, a timed reopen and
//! a check of the recovered store against the shadow model. Exercises
//! encode → route → one memtable-lock hold → B+tree hint path → coalesced
//! v2 WAL frames → commit queue → fsync, plus flush, merge, run persistence
//! and recovery. Reads do nothing. One op = one record of a batch; the
//! headline call is one acked batch.

use std::path::Path;
use std::time::Instant;

use super::{check_store, dir_bytes, ops_per_s, segments, Cfg, ClassSeries, GRID_K};
use crate::adapter::{self, Op, Registry, Store, ZCurve, P2};
use crate::gen;
use crate::layers;
use crate::model::GridModel;
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer, NO_PARENT};

const BATCH_OPS: usize = 256;

/// What one segment measured.
struct Measured {
    setup_s: f64,
    wall_ns: u64,
    batch_ns: Vec<u64>,
    recovery_s: f64,
    disk_bytes_per_record: f64,
}

/// What a traced segment kept of the store it drove, read before the crash.
struct Observed {
    registry: Registry,
    routing: layers::Routing,
    runs_max: usize,
}

struct Run<'a> {
    curve: ZCurve<2>,
    dir: &'a Path,
    /// Applied during set-up, so segments start with warm caches, an
    /// existing manifest and a first run on disk.
    warm: &'a [Vec<Op>],
    measured: &'a [Vec<Op>],
    model: &'a GridModel,
    skew: u64,
}

impl Run<'_> {
    /// One segment on a fresh store. With a tracer, the store reports into
    /// an attached `EngineMetrics` and every call is a span under `root`.
    fn segment(
        &self,
        report: &mut Report,
        mut trace: Option<(&mut Tracer, SpanId)>,
    ) -> Result<(Measured, Option<Observed>), String> {
        let _ = std::fs::remove_dir_all(self.dir);
        let t = Instant::now();
        let mut store = adapter::open_durable(&self.curve, self.dir)?;
        let registry = trace.is_some().then(|| adapter::attach_metrics(&mut store));
        for ops in self.warm {
            adapter::write_batch(&store, ops)?;
        }
        let setup_s = t.elapsed().as_secs_f64();
        if let Some((tr, root)) = trace.as_mut() {
            tr.push("store.setup", *root, 0, t, (setup_s * 1e9) as u64, None);
        }

        let mut batch_ns = Vec::with_capacity(self.measured.len());
        let wall = Instant::now();
        for (i, ops) in self.measured.iter().enumerate() {
            let t = Instant::now();
            let result = adapter::write_batch(&store, ops);
            let ns = stats::ns_since(t);
            batch_ns.push(ns);
            if let Some((tr, root)) = trace.as_mut() {
                tr.push("store.write_batch", *root, i as u64, t, ns, None);
            }
            report.check(result.is_ok(), || {
                format!("batch {i}: {}", result.unwrap_err())
            });
        }
        let wall_ns = stats::ns_since(wall);

        let mut span =
            |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| match trace.as_mut() {
                Some((tr, root)) => tr.span(name, *root, f).0,
                None => f(),
            };
        span("store.sync", &mut || adapter::sync(&store))?;
        let observed = registry.map(|r| Observed {
            registry: Registry::read(&r),
            routing: layers::Routing::of(&store),
            runs_max: adapter::runs_max(&store),
        });

        // Power cut, then what the application waits for on restart.
        let mut crashing = Some(store);
        span("store.crash", &mut || {
            adapter::crash(crashing.take().expect("crashed once"));
            Ok(())
        })?;
        let t = Instant::now();
        let mut reopened = None;
        span("store.reopen", &mut || {
            reopened = Some(adapter::open_durable(&self.curve, self.dir)?);
            Ok(())
        })?;
        let recovery_s = t.elapsed().as_secs_f64();
        let store = reopened.expect("reopened");
        check_store(report, "recovered store", &store, self.model, self.skew);

        span("store.flush", &mut || adapter::flush(&store))?;
        let disk_bytes_per_record = dir_bytes(self.dir) as f64 / self.model.len().max(1) as f64;
        if let Some((tr, root)) = trace.as_mut() {
            self.recovery_metrics(report, tr, *root, &store);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(self.dir);
        Ok((
            Measured {
                setup_s,
                wall_ns,
                batch_ns,
                recovery_s,
                disk_bytes_per_record,
            },
            observed,
        ))
    }

    /// `store.wal` replay and `view` scan of the reopened store.
    fn recovery_metrics(
        &self,
        report: &mut Report,
        tr: &mut Tracer,
        root: SpanId,
        store: &Store<ZCurve<2>>,
    ) {
        if let Some(r) = adapter::recovery(store) {
            let per_s = r.replayed_records as f64 / r.elapsed.as_secs_f64().max(1e-9);
            report.scalar(
                "wal.replay_records_per_s",
                "1/s",
                per_s,
                r.replayed_records as u64,
                "",
            );
            report.scalar("wal.recovery_bytes_scanned", "B", r.wal_bytes as f64, 0, "");
        }
        let (n, ns) = tr.span("view.iter", root, || adapter::iter(store).count());
        report.scalar(
            "view.iter_ns_per_record",
            "ns",
            ns as f64 / n.max(1) as f64,
            n as u64,
            "",
        );
    }

    /// The same batches written durably without waiting (`*_nosync`, a
    /// `sync` barrier every 128 batches) and into an in-memory store: the
    /// difference is what the log costs a record.
    fn wal_differential(
        &self,
        report: &mut Report,
        tr: &mut Tracer,
        replay: SpanId,
    ) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(self.dir);
        let durable = adapter::open_durable(&self.curve, self.dir)?;
        let mut barriers = Vec::new();
        let (result, durable_ns) = tr.span("wal.durable_stream", replay, || {
            for (i, ops) in self.measured.iter().enumerate() {
                adapter::write_batch_nosync(&durable, ops);
                if i % 128 == 127 {
                    let t = Instant::now();
                    adapter::sync(&durable)?;
                    barriers.push(stats::ns_since(t));
                }
            }
            adapter::sync(&durable)
        });
        result?;
        drop(durable);
        let _ = std::fs::remove_dir_all(self.dir);
        let memory = adapter::open_in_memory(&self.curve);
        let ((), memory_ns) = tr.span("wal.memory_stream", replay, || {
            for ops in self.measured {
                adapter::write_batch_in_memory(&memory, ops);
            }
        });
        let records = (self.measured.len() * BATCH_OPS) as u64;
        let cost = (durable_ns as f64 - memory_ns as f64) / records as f64;
        report.scalar(
            "wal.cost_ns_per_record.batched",
            "ns",
            cost,
            records,
            "durable nosync stream - in-memory stream",
        );
        if let Some(p50) = stats::quantile(&barriers, 0.5) {
            report.scalar(
                "wal.sync_barrier_us_p50",
                "us",
                p50 as f64 / 1e3,
                barriers.len() as u64,
                "",
            );
        }
        Ok(())
    }
}

pub fn run(cfg: &Cfg, traced: bool) -> Result<Report, String> {
    let mut report = Report::new("ingest_durable", cfg.seed, cfg.smoke, traced);
    let (warm_n, measured_n) = (cfg.size(500, 4), cfg.size(5000, 25));
    let batches = gen::clustered_batches(cfg.seed, warm_n + measured_n, BATCH_OPS, GRID_K);
    let mut model = GridModel::new(GRID_K);
    batches.iter().flatten().for_each(|op| model.apply(op));
    let dir = cfg.data_dir.join("ingest_durable");
    let run = Run {
        curve: adapter::z_curve(GRID_K),
        dir: &dir,
        warm: &batches[..warm_n],
        measured: &batches[warm_n..],
        model: &model,
        skew: cfg.digest_skew(),
    };

    let mut writes = ClassSeries::default();
    let (mut setup, mut throughput, mut recovery, mut disk) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut failure = None;
    segments(cfg.untraced_seconds(traced), 3, 64, |_| {
        match run.segment(&mut report, None) {
            Ok((m, _)) => {
                setup.push(m.setup_s);
                throughput.push(ops_per_s(measured_n * BATCH_OPS, m.wall_ns));
                writes.fold(&m.batch_ns);
                recovery.push(m.recovery_s);
                disk.push(m.disk_bytes_per_record);
            }
            Err(e) => failure = Some(e),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    report.series(
        "setup_s",
        "s",
        &setup,
        0,
        "open a fresh store + warm-up batches; median over segments",
    );
    report.series(
        "ops_per_s",
        "ops/s",
        &throughput,
        (measured_n * BATCH_OPS) as u64,
        "records of acked batches",
    );
    writes.report(&mut report, "write", true);
    writes.report_headline(&mut report, "one acked 256-op batch");
    report.series(
        "recovery_s",
        "s",
        &recovery,
        0,
        "open_durable after simulate_crash",
    );
    report.series(
        "disk_bytes_per_record",
        "B",
        &disk,
        model.len() as u64,
        "bytes under the store directory after a final flush / live records",
    );
    report.scalar("peak_rss_mb", "MB", stats::peak_rss_mb(), 0, "");

    if traced {
        let mut tr = Tracer::with_capacity(measured_n + 4096);
        let root = tr.begin("segment", NO_PARENT, 0);
        let (m, observed) = run.segment(&mut report, Some((&mut tr, root)))?;
        tr.end(root);
        let observed = observed.expect("a traced segment observes its store");
        super::report_trace_overhead(
            &mut report,
            &throughput,
            ops_per_s(measured_n * BATCH_OPS, m.wall_ns),
        );
        let inserts = run
            .measured
            .iter()
            .flatten()
            .filter(|op| matches!(op, Op::Insert(..)))
            .count() as u64;
        let deletes = (measured_n * BATCH_OPS) as u64 - inserts;
        let user_bytes =
            inserts * adapter::USER_BYTES_PER_RECORD + deletes * adapter::USER_BYTES_PER_DELETE;
        layers::registry(&mut report, &observed.registry, user_bytes);
        report.scalar(
            "shard.runs_max",
            "count",
            observed.runs_max as f64,
            0,
            "deepest run stack at the end of the segment",
        );
        let stall = m.batch_ns.iter().copied().max().unwrap_or(0);
        report.scalar(
            "shard.write_stall_ms_max",
            "ms",
            stall as f64 / 1e6,
            m.batch_ns.len() as u64,
            "largest single write call",
        );

        let replay = tr.begin("replay", NO_PARENT, 0);
        let points: Vec<P2> = run
            .measured
            .iter()
            .flatten()
            .map(|op| *op.point())
            .collect();
        layers::core(&mut report, &mut tr, replay, "z", &run.curve, &points);
        let mut keys = Vec::new();
        adapter::encode_batch(&run.curve, &points, &mut keys);
        layers::partition(&mut report, &mut tr, replay, &observed.routing, &keys);
        let records: Vec<(P2, u64)> = run
            .measured
            .iter()
            .flatten()
            .filter_map(|op| match *op {
                Op::Insert(p, v) => Some((p, v)),
                Op::Delete(_) => None,
            })
            .collect();
        layers::index(&mut report, &mut tr, replay, &run.curve, &records, &[]);
        // The batch path sorts each shard's slice by key before applying it.
        let mut local = keys.clone();
        local.chunks_mut(BATCH_OPS).for_each(<[_]>::sort_unstable);
        layers::memtable(&mut report, &mut tr, replay, "local", &local);
        run.wal_differential(&mut report, &mut tr, replay)?;
        layers::common(&mut report, &mut tr, replay);
        tr.end(replay);

        // How much of the median batch the externally measurable layers explain.
        let per_record: f64 = [
            "core.encode_ns_per_key.z",
            "partition.route_ns_per_key",
            "memtable.insert_ns.local",
            "wal.cost_ns_per_record.batched",
        ]
        .iter()
        .filter_map(|n| report.get(n))
        .sum();
        if let Some(p50_us) = report.get("write_p50_us") {
            report.scalar(
                "trace.write_coverage",
                "share",
                per_record * BATCH_OPS as f64 / 1e3 / p50_us,
                0,
                "encode + route + memtable + log, of the median batch",
            );
        }
        layers::write_trace(&mut report, &tr, cfg);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}
