//! `query_static` — the read side.
//!
//! A bulk-loaded million uniform records on a Z-curve store plus an overlay
//! of single inserts (three runs per shard and small memtables), no WAL;
//! then passes over one fixed query mix: 40 % selective box, 10 % big box,
//! 30 % kNN, 20 % get. Exercises plan → capture → run/block prune → block
//! decode → filter → k-way merge on a working set (≈ 11 MB compressed)
//! larger than L2 and far larger than the memtables. `wal` and
//! `maintenance` do nothing, `memtable` almost nothing. One op = one query;
//! the headline call is one selective box query.

use super::{
    check_segment, drive, ops_per_s, report_work, segments, timed_setup, Cfg, Class, ClassSeries,
    GRID_K,
};
use crate::adapter::{self, BoxRegion, Registry, Store, ZCurve, P2};
use crate::gen::{self, Keys, Mix};
use crate::layers;
use crate::model::GridModel;
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer, NO_PARENT};

const MIX: Mix = Mix {
    write: 0,
    small_box: 40,
    big_box: 10,
    knn: 30,
};

/// Median latency in µs of `boxes` against `f`.
fn box_p50_us(boxes: &[BoxRegion<2>], mut f: impl FnMut(&BoxRegion<2>) -> usize) -> f64 {
    let ns: Vec<u64> = boxes
        .iter()
        .map(|b| {
            let t = std::time::Instant::now();
            std::hint::black_box(f(b));
            stats::ns_since(t)
        })
        .collect();
    stats::quantile(&ns, 0.5).unwrap_or(0) as f64 / 1e3
}

/// `view` and `snapshot`: what a nearly full memtable adds to a box query,
/// and what pinning and querying a snapshot cost. Writes to the store, so
/// it runs after every check.
fn overlay_and_snapshot(
    report: &mut Report,
    tr: &mut Tracer,
    replay: SpanId,
    store: &Store<ZCurve<2>>,
    boxes: &[BoxRegion<2>],
    seed: u64,
) {
    let target = adapter::MEMTABLE_CAPACITY * 15 / 16;
    let fill = gen::uniform_records(
        seed ^ 0xf111,
        adapter::SHARDS * target,
        GRID_K,
        u64::MAX / 2,
    );
    for (p, v) in fill {
        if adapter::memtable_lens(store).iter().any(|&n| n >= target) {
            break;
        }
        adapter::write_one_nosync(store, p, v);
    }
    let (full, _) = tr.span("view.box_full_memtable", replay, || {
        box_p50_us(boxes, |b| adapter::box_query(store, b).0.len())
    });
    let _ = adapter::flush(store);
    let (flushed, _) = tr.span("view.box_flushed", replay, || {
        box_p50_us(boxes, |b| adapter::box_query(store, b).0.len())
    });
    report.scalar(
        "view.memtable_overlay_us_per_box",
        "us",
        full - flushed,
        boxes.len() as u64,
        "box p50 with memtables near capacity - right after flush",
    );

    let (snap, ns) = tr.span("snapshot.create", replay, || adapter::snapshot(store));
    report.scalar("snapshot.create_ms", "ms", ns as f64 / 1e6, 0, "");
    let (p50, _) = tr.span("snapshot.box", replay, || {
        box_p50_us(boxes, |b| adapter::snapshot_box(&snap, b))
    });
    report.scalar("snapshot.box_p50_us", "us", p50, boxes.len() as u64, "");
}

pub fn run(cfg: &Cfg, traced: bool) -> Result<Report, String> {
    let mut report = Report::new("query_static", cfg.seed, cfg.smoke, traced);
    let curve = adapter::z_curve(GRID_K);
    let (base_n, overlay_n, queries_n) = (
        cfg.size(1_000_000, 20_000),
        cfg.size(100_000, 18_000),
        cfg.size(20_000, 1_000),
    );
    let base = gen::uniform_records(cfg.seed, base_n, GRID_K, 0);
    let overlay = gen::uniform_records(cfg.seed ^ 0x0a11, overlay_n, GRID_K, base_n as u64);
    let mut model = GridModel::new(GRID_K);
    base.iter()
        .chain(&overlay)
        .for_each(|&(p, v)| model.insert(p, v));
    let known: Vec<P2> = base.iter().step_by(16).map(|&(p, _)| p).collect();
    let calls = gen::calls(
        cfg.seed,
        0,
        queries_n,
        GRID_K,
        MIX,
        &Keys::Uniform { known },
        0,
    );

    let mut store = timed_setup(&mut report, 3, || {
        let store = adapter::bulk_load(&curve, &base);
        for &(p, v) in &overlay {
            adapter::write_one_nosync(&store, p, v);
        }
        Ok(store)
    })?;

    let mut classes: [ClassSeries; super::CLASSES] = Default::default();
    let mut throughput = Vec::new();
    segments(cfg.untraced_seconds(traced), 3, 64, |_| {
        let seg = drive(&store, &calls, None);
        throughput.push(ops_per_s(calls.len(), seg.wall_ns));
        for (series, ns) in classes.iter_mut().zip(&seg.lat_ns) {
            series.fold(ns);
        }
        check_segment(&mut report, &curve, &mut model, &calls, &seg);
    });
    super::check_store(
        &mut report,
        "store after the passes",
        &store,
        &model,
        cfg.digest_skew(),
    );

    report.series(
        "ops_per_s",
        "ops/s",
        &throughput,
        calls.len() as u64,
        "queries per pass",
    );
    classes[Class::Box as usize].report(&mut report, "box", true);
    classes[Class::BigBox as usize].report(&mut report, "bigbox", false);
    classes[Class::Knn as usize].report(&mut report, "knn", true);
    classes[Class::Get as usize].report(&mut report, "get", false);
    classes[Class::Box as usize].report_headline(&mut report, "one selective box query");
    report.scalar("peak_rss_mb", "MB", stats::peak_rss_mb(), 0, "");

    if traced {
        let registry = adapter::attach_metrics(&mut store);
        let mut tr = Tracer::with_capacity(calls.len() + 4096);
        let root = tr.begin("segment", NO_PARENT, 0);
        let seg = drive(&store, &calls, Some((&mut tr, root)));
        tr.end(root);
        check_segment(&mut report, &curve, &mut model, &calls, &seg);
        super::report_trace_overhead(
            &mut report,
            &throughput,
            ops_per_s(calls.len(), seg.wall_ns),
        );
        for (class, name) in [
            (Class::Box, "box"),
            (Class::BigBox, "bigbox"),
            (Class::Knn, "knn"),
        ] {
            report_work(
                &mut report,
                name,
                &seg.work[class as usize],
                seg.lat_ns[class as usize].len(),
            );
        }
        layers::registry(&mut report, &Registry::read(&registry), 0);
        report.scalar(
            "shard.runs_max",
            "count",
            adapter::runs_max(&store) as f64,
            0,
            "",
        );

        let replay = tr.begin("replay", NO_PARENT, 0);
        let points: Vec<P2> = base.iter().map(|&(p, _)| p).collect();
        layers::core(&mut report, &mut tr, replay, "z", &curve, &points);
        let mut keys = Vec::new();
        adapter::encode_batch(&curve, &points, &mut keys);
        layers::partition(
            &mut report,
            &mut tr,
            replay,
            &layers::Routing::of(&store),
            &keys,
        );
        let boxes = super::selective_boxes(&calls, cfg.size(2_000, 100));
        layers::index(
            &mut report,
            &mut tr,
            replay,
            &curve,
            &base,
            &boxes[..boxes.len().min(500)],
        );
        let (n, ns) = tr.span("view.iter", replay, || adapter::iter(&store).count());
        report.scalar(
            "view.iter_ns_per_record",
            "ns",
            ns as f64 / n.max(1) as f64,
            n as u64,
            "",
        );
        overlay_and_snapshot(&mut report, &mut tr, replay, &store, &boxes, cfg.seed);
        layers::common(&mut report, &mut tr, replay);
        tr.end(replay);

        // How much of the median box query the one externally measurable
        // read stage, block decode, explains.
        if let (Some(blocks), Some(ns), Some(p50)) = (
            report.get("index.box.blocks_decoded"),
            report.get("index.block_decode_ns_per_block"),
            report.get("box_p50_us"),
        ) {
            report.scalar(
                "trace.read_coverage",
                "share",
                blocks * ns / 1e3 / p50,
                0,
                "block decode, of the median selective box",
            );
        }
        layers::write_trace(&mut report, &tr, cfg);
    }
    Ok(report)
}
