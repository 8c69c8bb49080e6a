//! Layer replay: after a traced segment, its recorded inputs are fed to
//! each layer's public functions in isolation, each call under a span
//! parented to the `replay` root. Layer names are module names.
//!
//! These numbers come from outside the program, so they say what a layer
//! costs alone on these inputs, not what it cost inside the traced call.

use crate::adapter::{self, BoxRegion, Key, Point, Store, StoreCurve, P2};
use crate::report::Report;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::workloads::Cfg;

/// Keys per `index_of_batch` call, so the key buffer stays in cache.
const ENCODE_CHUNK: usize = 8192;

/// `core`: the batch encode and decode kernels over `points`.
pub fn core<const D: usize, C: adapter::Curve<D>>(
    report: &mut Report,
    tr: &mut Tracer,
    replay: SpanId,
    curve_name: &str,
    curve: &C,
    points: &[Point<D>],
) {
    if points.is_empty() {
        return;
    }
    let mut keys = Vec::with_capacity(ENCODE_CHUNK);
    let mut back = Vec::with_capacity(ENCODE_CHUNK);
    let (mut encode_ns, mut decode_ns) = (0u64, 0u64);
    for chunk in points.chunks(ENCODE_CHUNK) {
        encode_ns += tr
            .span("core.encode", replay, || {
                adapter::encode_batch(curve, chunk, &mut keys)
            })
            .1;
        decode_ns += tr
            .span("core.decode", replay, || {
                adapter::decode_batch(curve, &keys, &mut back)
            })
            .1;
        assert_eq!(back.as_slice(), chunk, "decode inverts encode");
    }
    let n = points.len() as u64;
    let per = |ns: u64| ns as f64 / n as f64;
    report.scalar(
        &format!("core.encode_ns_per_key.{curve_name}"),
        "ns",
        per(encode_ns),
        n,
        "",
    );
    report.scalar(
        &format!("core.decode_ns_per_key.{curve_name}"),
        "ns",
        per(decode_ns),
        n,
        "",
    );
}

/// What `partition` needs of a live store, copied out so the replay can run
/// after the store is gone.
pub struct Routing {
    partition: adapter::Partition,
    /// Per-cell write weights the store observed, in curve order.
    traffic: Vec<(Key, f64)>,
    shard_lens: Vec<usize>,
}

impl Routing {
    pub fn of<C: StoreCurve>(store: &Store<C>) -> Self {
        Routing {
            partition: adapter::partition_of(store),
            traffic: adapter::traffic_entries(store),
            shard_lens: adapter::shard_lens(store),
        }
    }
}

/// `partition`: routing the keys, and the cut the store's observed write
/// traffic would ask for.
pub fn partition(
    report: &mut Report,
    tr: &mut Tracer,
    replay: SpanId,
    routing: &Routing,
    keys: &[Key],
) {
    let (sum, ns) = tr.span("partition.route", replay, || {
        keys.iter().fold(0usize, |acc, &k| {
            acc + adapter::route(&routing.partition, k)
        })
    });
    std::hint::black_box(sum);
    report.scalar(
        "partition.route_ns_per_key",
        "ns",
        ns as f64 / keys.len().max(1) as f64,
        keys.len() as u64,
        "",
    );
    let n = adapter::grid_cells_count(crate::workloads::GRID_K, 2);
    let (_, ns) = tr.span("partition.min_bottleneck", replay, || {
        adapter::min_bottleneck(&routing.traffic, n)
    });
    report.scalar(
        "partition.min_bottleneck_ms",
        "ms",
        ns as f64 / 1e6,
        routing.traffic.len() as u64,
        "cells with observed writes",
    );
    let lens = &routing.shard_lens;
    let mean = lens.iter().sum::<usize>() as f64 / lens.len().max(1) as f64;
    let imbalance = if mean > 0.0 {
        *lens.iter().max().unwrap_or(&0) as f64 / mean
    } else {
        0.0
    };
    report.scalar(
        "partition.shard_imbalance",
        "ratio",
        imbalance,
        0,
        "largest shard / mean shard",
    );
}

/// `index`: building one sorted run from `records`, decoding every block of
/// it, scanning it, and decomposing `boxes` into curve intervals.
pub fn index<C: StoreCurve>(
    report: &mut Report,
    tr: &mut Tracer,
    replay: SpanId,
    curve: &C,
    records: &[(P2, u64)],
    boxes: &[BoxRegion<2>],
) {
    let (index, ns) = tr.span("index.build", replay, || {
        adapter::index_build(curve, records)
    });
    let n = adapter::index_len(&index).max(1);
    report.scalar(
        "index.build_ns_per_record",
        "ns",
        ns as f64 / records.len().max(1) as f64,
        records.len() as u64,
        "",
    );
    let ((blocks, sum), ns) = tr.span("index.block_decode", replay, || {
        adapter::index_decode_all(&index)
    });
    std::hint::black_box(sum);
    report.scalar(
        "index.block_decode_ns_per_block",
        "ns",
        ns as f64 / blocks.max(1) as f64,
        blocks as u64,
        "",
    );
    let bytes = adapter::index_heap_bytes(&index);
    let (sum, ns) = tr.span("index.scan", replay, || adapter::index_scan(&index));
    std::hint::black_box(sum);
    report.scalar(
        "index.scan_gbps",
        "GB/s",
        bytes as f64 / ns.max(1) as f64,
        n as u64,
        "compressed bytes per second of a full scan",
    );
    report.scalar(
        "index.bytes_per_record",
        "B",
        bytes as f64 / n as f64,
        n as u64,
        "",
    );
    if !boxes.is_empty() {
        let (intervals, ns) = tr.span("index.decompose", replay, || {
            boxes
                .iter()
                .map(|b| adapter::decompose(curve, b))
                .sum::<usize>()
        });
        let m = boxes.len() as f64;
        report.scalar(
            "index.decompose_us_per_box",
            "us",
            ns as f64 / 1e3 / m,
            boxes.len() as u64,
            "",
        );
        report.scalar(
            "index.intervals_per_box",
            "count",
            intervals as f64 / m,
            boxes.len() as u64,
            "",
        );
    }
}

/// `store.memtable`: a write workload's key stream replayed into a bare
/// memtable, cleared at the shard capacity as a flush would; then point
/// reads and the range copy a query capture makes.
pub fn memtable(
    report: &mut Report,
    tr: &mut Tracer,
    replay: SpanId,
    locality: &str,
    keys: &[Key],
) {
    if keys.is_empty() {
        return;
    }
    let mut mem = adapter::mem_new();
    let mut insert_ns = 0u64;
    let mut last_full = adapter::mem_new();
    for chunk in keys.chunks(adapter::MEMTABLE_CAPACITY) {
        insert_ns += tr
            .span("memtable.insert", replay, || {
                for (i, &k) in chunk.iter().enumerate() {
                    adapter::mem_insert(&mut mem, k, i as u64);
                }
            })
            .1;
        // Keep the fullest memtable for the read probes below.
        let drained = std::mem::replace(&mut mem, adapter::mem_new());
        if adapter::mem_len(&drained) >= adapter::mem_len(&last_full) {
            last_full = drained;
        }
    }
    let n = keys.len() as u64;
    report.scalar(
        &format!("memtable.insert_ns.{locality}"),
        "ns",
        insert_ns as f64 / n as f64,
        n,
        "",
    );

    let mem = last_full;
    let probe = &keys[..keys.len().min(adapter::MEMTABLE_CAPACITY)];
    let (hits, ns) = tr.span("memtable.get", replay, || {
        probe
            .iter()
            .filter(|&&k| adapter::mem_get(&mem, k).is_some())
            .count()
    });
    std::hint::black_box(hits);
    report.scalar(
        "memtable.get_ns",
        "ns",
        ns as f64 / probe.len() as f64,
        probe.len() as u64,
        "",
    );
    // A capture copies the key span a query covers; spans here are a
    // sixteenth of the memtable's key range, from each probe key.
    let (lo, hi) = (
        probe.iter().min().copied().unwrap_or(0),
        probe.iter().max().copied().unwrap_or(0),
    );
    let width = ((hi - lo) / 16).max(1);
    let starts: Vec<Key> = probe.iter().step_by(16).copied().collect();
    let (copied, ns) = tr.span("memtable.range_clone", replay, || {
        starts
            .iter()
            .map(|&k| adapter::mem_range_clone(&mem, k, k + width))
            .sum::<usize>()
    });
    report.scalar(
        "memtable.range_clone_ns_per_entry",
        "ns",
        ns as f64 / copied.max(1) as f64,
        copied as u64,
        "",
    );
    let entries = adapter::mem_len(&mem).max(1);
    report.scalar(
        "memtable.heap_bytes_per_entry",
        "B",
        adapter::mem_heap_bytes(&mem) as f64 / entries as f64,
        entries as u64,
        "",
    );
}

/// Closes every replay: `obs` and the harness's own clock (what one counter
/// increment, one histogram record and one timer pair cost), and the keys
/// the `core` replays encoded.
pub fn common(report: &mut Report, tr: &mut Tracer, replay: SpanId) {
    const N: u64 = 2_000_000;
    let encoded: u64 = report
        .values
        .iter()
        .filter(|v| v.name.starts_with("core.encode_ns_per_key."))
        .map(|v| v.samples)
        .sum();
    report.scalar(
        "core.keys_encoded",
        "count",
        encoded as f64,
        0,
        "by the replay",
    );
    let (count, ns) = tr.span("obs.counter_inc", replay, || adapter::counter_inc_loop(N));
    assert_eq!(count, N);
    report.scalar("obs.counter_inc_ns", "ns", ns as f64 / N as f64, N, "");
    let (count, ns) = tr.span("obs.histogram_record", replay, || {
        adapter::histogram_record_loop(N)
    });
    assert_eq!(count, N);
    report.scalar("obs.histogram_record_ns", "ns", ns as f64 / N as f64, N, "");
    report.scalar(
        "harness.timer_ns",
        "ns",
        stats::timer_overhead_ns(),
        0,
        "one Instant::now + elapsed pair",
    );
}

/// Reads the registry attached to the traced store into the `wal.*`,
/// `shard.*` and `maintenance.*` metrics.
pub fn registry(report: &mut Report, reg: &adapter::Registry, user_bytes: u64) {
    let us = |ns: u64| ns as f64 / 1e3;
    let ms = |ns: u64| ns as f64 / 1e6;
    let groups = reg.counter("wal.groups");
    report.scalar("wal.groups", "count", groups as f64, 0, "");
    report.scalar(
        "wal.group_size_p50",
        "count",
        reg.hist("wal.group_size").p50 as f64,
        groups,
        "records per group commit",
    );
    let fsync = reg.hist("wal.fsync.ns");
    report.scalar("wal.fsync_us_p50", "us", us(fsync.p50), fsync.count, "");
    if stats::supported(fsync.count as usize, 0.99) {
        report.scalar("wal.fsync_us_p99", "us", us(fsync.p99), fsync.count, "");
    }
    report.scalar(
        "wal.segments_pruned",
        "count",
        reg.counter("wal.segments.pruned") as f64,
        0,
        "",
    );
    if user_bytes > 0 {
        let logged = reg.counter("wal.bytes");
        report.scalar(
            "wal.bytes_per_user_byte",
            "ratio",
            logged as f64 / user_bytes as f64,
            logged,
            "log bytes",
        );
    }

    let flushes = reg.shard_hists("flush.ns");
    let flush_count: u64 = reg.shard_counter_sum("flush.count");
    report.scalar("shard.flush_count", "count", flush_count as f64, 0, "");
    let timed: Vec<f64> = flushes
        .iter()
        .filter(|h| h.count > 0)
        .map(|h| ms(h.p50))
        .collect();
    if !timed.is_empty() {
        report.scalar(
            "shard.flush_ms_p50",
            "ms",
            stats::median(&timed),
            flush_count,
            "median of the shards' medians",
        );
    }
    report.scalar(
        "shard.flush_ms_max",
        "ms",
        ms(flushes.iter().map(|h| h.max).max().unwrap_or(0)),
        flush_count,
        "",
    );
    let compactions = reg.shard_hists("compact.ns");
    let compact_count = reg.shard_counter_sum("compact.count");
    report.scalar("shard.compact_count", "count", compact_count as f64, 0, "");
    report.scalar(
        "shard.compact_ms_max",
        "ms",
        ms(compactions.iter().map(|h| h.max).max().unwrap_or(0)),
        compact_count,
        "",
    );

    report.scalar(
        "maintenance.ticks",
        "count",
        reg.counter("engine.maintenance.ticks") as f64,
        0,
        "",
    );
    report.scalar(
        "maintenance.flushes",
        "count",
        reg.counter("engine.maintenance.flushes") as f64,
        0,
        "",
    );
    report.scalar(
        "maintenance.compactions",
        "count",
        reg.counter("engine.maintenance.compactions") as f64,
        0,
        "",
    );
    let throttle = reg.hist("engine.maintenance.throttle.ns");
    report.scalar(
        "maintenance.throttle_ms_total",
        "ms",
        throttle.mean * throttle.count as f64 / 1e6,
        throttle.count,
        "",
    );
}

/// Writes the span file and notes where it went.
pub fn write_trace(report: &mut Report, tr: &Tracer, cfg: &Cfg) {
    let path = cfg
        .trace_dir
        .join(format!("trace-{}.jsonl", report.workload));
    match tr.write_jsonl(&path) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => report
            .notes
            .push(format!("could not write {}: {e}", path.display())),
    }
}
