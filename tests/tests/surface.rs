//! Surface gates: each test greps the source tree for an API that was
//! deleted on purpose (or counts the methods of a surface that must not
//! grow a twin), so that bringing it back fails `cargo test`.
//!
//! Every gate runs `grep -E` from the workspace root with its pattern,
//! paths and count written exactly as a shell one-liner would, so a gate
//! reads the same here as on the command line. A grep error (a missing
//! path, a bad pattern) fails the gate: none can pass by scanning nothing.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

/// The workspace root, which every gate's paths are relative to.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `grep -E <flags> <pattern> <paths>` run from the workspace root: its
/// output lines, none when nothing matches.
fn grep(flags: &str, pattern: &str, paths: &[&str]) -> Vec<String> {
    let out = Command::new("grep")
        .current_dir(root())
        .arg(format!("-E{flags}"))
        .arg("--")
        .arg(pattern)
        .args(paths)
        .output()
        .expect("grep runs");
    match out.status.code() {
        Some(0 | 1) => String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(str::to_owned)
            .collect(),
        _ => panic!(
            "grep -E{flags} {pattern:?} {paths:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ),
    }
}

/// Fails with every hit if `pattern` matches anywhere under `paths`,
/// except in this file, which spells every pattern out.
fn assert_absent(rule: &str, pattern: &str, paths: &[&str]) {
    let hits: Vec<String> = grep("rn", pattern, paths)
        .into_iter()
        .filter(|hit| !hit.starts_with("tests/tests/surface.rs:"))
        .collect();
    assert!(hits.is_empty(), "{rule}:\n{}", hits.join("\n"));
}

/// Fails unless exactly `want` lines of `file` match `pattern`.
fn assert_count(rule: &str, pattern: &str, file: &str, want: usize) {
    let hits = grep("n", pattern, &[file]);
    assert_eq!(hits.len(), want, "{rule}:\n{}", hits.join("\n"));
}

/// One method per question on store and snapshot (`query_box` and
/// `knn`, twice): a `_par`, `_plain` or per-strategy twin, or the raw
/// interval read the box kernel replaced, cannot come back unnoticed.
#[test]
fn read_surface_gate() {
    assert_count(
        "the store and its snapshot answer each read question with one method",
        "pub fn (query_|knn|plan_box)",
        "crates/store/src/shard.rs",
        4,
    );
}

/// "BIGMIN on Morton order, the box's intervals elsewhere" is decided in
/// one place, `sfc_index::CurveSkipper::new`: nothing else outside
/// `sfc-core` asks a curve whether it is Morton order.
#[test]
fn one_skip_rule() {
    assert_absent(
        "only `CurveSkipper::new` asks a curve whether it is Morton order",
        r"as_morton\(",
        &[
            "crates/store",
            "crates/bench",
            "crates/index/src/table.rs",
            "examples",
        ],
    );
    assert_count(
        "`CurveSkipper::new` is the one Morton-order test in the index crate",
        r"as_morton\(",
        "crates/index/src/scan.rs",
        1,
    );
}

/// A box query's skipper follows from the curve alone (BIGMIN on Z order,
/// the box's intervals elsewhere), so there is no plan to inspect; and
/// `ShardedSnapshot` is the one public snapshot type, a shard's capture
/// staying internal.
#[test]
fn one_public_snapshot_type() {
    assert_absent(
        "no query plan API and one public snapshot type",
        r"QueryPlan|LevelStrategy|fn plan_box|pub struct StoreSnapshot|pub fn shards\b",
        &["crates", "examples"],
    );
}

/// One read engine: the static `SfcIndex` has one box path, one interval
/// path, one kNN path and `point_lookup` (the store's kernels over one
/// run), and ships no second engine or test oracle (those live in
/// `sfc_integration::oracle`).
#[test]
fn index_read_surface_gate() {
    assert_count(
        "the static index answers each read question with one method",
        "pub fn (query_|knn|point_lookup)",
        "crates/index/src/table.rs",
        4,
    );
    assert_absent(
        "the index crate ships no second read engine or test oracle",
        r"fn (bigmin_scan|[a-z_]+_plain|knn_linear|query_box_[a-z_]+)\b",
        &["crates/index/src"],
    );
}

/// One optimum search beside the exhaustive oracle: the exact best chain
/// of down-sets (`optimal::down_set_optimum`). The simulated annealer it
/// replaced, with its tuning struct, cannot come back.
#[test]
fn one_optimum_search() {
    assert_absent(
        "the down-set chain search is the one optimum search",
        r"fn anneal\b|AnnealConfig",
        &["crates", "examples"],
    );
}

/// A store setting stays only while two callers need different values:
/// the WAL's batch-delay clock and byte-bound switch, the maintenance
/// token bucket, its throttle histogram and the explicit-partition
/// constructor had one value in use each.
#[test]
fn one_value_in_use_is_a_constant() {
    assert_absent(
        "a setting with one value in use is a constant",
        r"max_batch_delay|fn fsync_bytes|RateLimit|TokenBucket|fn with_partition\b|throttle\.ns",
        &["crates", "examples", "tests"],
    );
}

/// One write path under every write method: `Shard::apply` is the shard's
/// only write entry, `DurabilityHook::encode` the hook's only encoder,
/// `encode_unsealed_batch` the only frame encoder (a single write is a
/// batch of one). The first scan reads `epoch.rs` only: the committer has
/// an unrelated `fn write`.
#[test]
fn write_path_gate() {
    assert_absent(
        "`Shard::apply` is the shard's one write entry",
        r"fn (write|apply_batch|replaced_live)\b",
        &["crates/store/src/epoch.rs"],
    );
    assert_absent(
        "`encode_unsealed_batch` is the one WAL frame encoder",
        "encode_write|encode_unsealed_record",
        &["crates/store/src"],
    );
}

/// A parallel twin stays only with a measured win: `summarize_par`, gated
/// in `benches/nn_stretch.rs`, is the only one.
#[test]
fn parallel_twin_gate() {
    let srcs: Vec<String> = std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").file_name())
        .map(|name| format!("crates/{}/src", name.to_string_lossy()))
        .filter(|src| root().join(src).is_dir())
        .collect();
    let srcs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let twins: BTreeSet<String> = grep("rho", r"pub fn [a-z_]+_par\b", &srcs)
        .into_iter()
        .collect();
    assert_eq!(
        twins.len(),
        1,
        "one parallel twin, the gated `summarize_par`: {twins:?}"
    );
}

/// The memtable keeps what the engine calls: it only inserts, drains with
/// `retain` and resets with `clear`. Per-key removal, owned cursors and
/// the inner-node free list (which stranded live inners on every drain)
/// cannot come back unnoticed.
#[test]
fn memtable_keeps_what_the_engine_calls() {
    assert_absent(
        "the memtable has no per-key removal, owned cursor or inner free list",
        r"pub fn (remove|cursor_first|cursor_seek)\b|pub struct Cursor\b|free_inners",
        &["crates/store/src/memtable"],
    );
}

/// Write traffic is one fixed histogram per store, one relaxed atomic
/// add per write: the striped map accumulator it replaced, with its
/// per-stripe sampler and sampling knob, cannot come back.
#[test]
fn traffic_is_a_fixed_histogram() {
    assert_absent(
        "write traffic is counted in a fixed histogram, never sampled into a map",
        r"set_traffic_sampling|set_sample_every|ConcurrentTraffic",
        &["crates", "examples", "tests"],
    );
}

/// The workspace measures what a curve's order does to a point set
/// (`sfc_metrics::point_set`) and simulates nothing: the Barnes–Hut crate,
/// its force kernels and its massive bodies cannot come back.
#[test]
fn no_nbody_simulator() {
    assert_absent(
        "no N-body simulator: point-set ordering lives in sfc_metrics::point_set",
        r"sfc_nbody|sfc-nbody|barnes_hut|direct_forces|BhStats|pub struct Body\b",
        &["crates", "examples", "tests", "Cargo.toml"],
    );
}

/// A level gauge is a read function the registry calls when it is
/// snapshotted: no push gauge type, no gauge import and no `.set(` on a
/// gauge handle can come back into the store.
#[test]
fn gauges_are_read_not_pushed() {
    assert_absent(
        "the store pushes no gauge: levels are read at snapshot",
        r"\bGauge\b|\.(memtable_len|memtable_bytes|run_count|live|segments)\.set\(",
        &["crates/store/src"],
    );
    assert_absent(
        "sfc_obs has no push gauge type",
        r"pub struct Gauge\b|-> Gauge\b",
        &["crates/obs/src"],
    );
}

/// A shard's levels are read by one block cursor, `sfc_index::BlockCursor`:
/// no hand-rolled decode cache (`decode_into(` with its `dec_block`
/// bookkeeping) comes back into the store, a run file's key check decodes
/// through the cursor and keeps each of its checks, and no run is taken
/// apart by value (`into_parts`) to be merged.
#[test]
fn one_run_cursor() {
    assert_absent(
        "the store decodes blocks only through BlockCursor",
        r"decode_into\(|dec_block",
        &["crates/store/src"],
    );
    assert_absent(
        "no run is consumed by value to be merged",
        r"into_parts",
        &["crates"],
    );
    let manifest = "crates/store/src/wal/manifest.rs";
    assert_count(
        "a run file's key check decodes through BlockCursor::decoded",
        r"BlockCursor::new\(blocks\)|cursor\.decoded\(block\)",
        manifest,
        2,
    );
    for check in [
        "outside the grid",
        "is not the curve's key",
        "run keys not strictly increasing",
    ] {
        assert_count(
            "a run file's key check keeps its checks",
            check,
            manifest,
            1,
        );
    }
}

/// One `MANIFEST` names every shard's run files and replay floor: no
/// per-shard checkpoint file, generation or deferred-commit step comes
/// back into the store.
#[test]
fn one_manifest_no_checkpoints() {
    assert_absent(
        "the MANIFEST is the store's only metadata file",
        "ckpt|Checkpoint|CKPT_MAGIC|finish_commit|finish_durable_commit",
        &["crates/store/src"],
    );
}

/// Every row of `sfc-store`'s § Guarantees names the test that fails when
/// its guarantee breaks, written `file::test` (`tests/tests/<file>.rs`, or
/// the store module `<file>.rs`), or says it is untested. A named test
/// that does not exist fails here.
#[test]
fn every_guarantee_names_a_test_that_exists() {
    let lib = std::fs::read_to_string(root().join("crates/store/src/lib.rs")).unwrap();
    let rows: Vec<&str> = lib
        .lines()
        .skip_while(|l| *l != "//! ## Guarantees")
        .skip_while(|l| !l.starts_with("//! |---"))
        .skip(1)
        .take_while(|l| l.starts_with("//! | "))
        .collect();
    assert_eq!(rows.len(), 9, "one row per guarantee");
    let sources = grep("rl", "", &["tests/tests", "crates/store/src"]);
    for row in rows {
        let tested = row
            .split('`')
            .skip(1)
            .step_by(2)
            .filter(|s| s.contains("::"));
        let mut named = 0;
        for path in tested {
            let (file, test) = path.split_once("::").unwrap();
            let file = sources
                .iter()
                .find(|s| s.ends_with(&format!("/{file}.rs")))
                .unwrap_or_else(|| panic!("{row}\nno source file {file}.rs"));
            let hits = grep("n", &format!(r"fn {test}\b"), &[file]);
            assert_eq!(hits.len(), 1, "{row}\nno test `{test}` in {file}");
            named += 1;
        }
        assert!(
            named > 0 || row.contains("untested"),
            "{row}\nnames no test and does not say it is untested"
        );
    }
}
