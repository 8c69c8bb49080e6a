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

/// One method per question on store and snapshot (`query_box`,
/// `query_intervals`, `knn`, twice): a `_par`, `_plain` or per-strategy
/// twin cannot come back unnoticed.
#[test]
fn read_surface_gate() {
    assert_count(
        "the store and its snapshot answer each read question with one method",
        "pub fn (query_|knn|plan_box)",
        "crates/store/src/shard.rs",
        6,
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
