//! The benchmark of record — see `README.md` beside this package.
//!
//! ```text
//! sfc-benchmark run --workload <name|all> --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]
//!                   [--out <file>] [--data-dir <dir>]
//! sfc-benchmark compare <a.json> <b.json>
//! ```
//!
//! `run` prints every metric by name with its unit and, as its last line,
//! the JSON object the benchmark contract asks for.

mod adapter;
mod compare;
mod gen;
mod layers;
mod model;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use workloads::Cfg;

const USAGE: &str = "usage:
  sfc-benchmark run --workload <paper_stretch|ingest_durable|query_static|mixed_rw|all> --seed <u64>
                    [--seconds <n>] [--trace <0|1>] [--smoke] [--out <file>] [--data-dir <dir>]
  sfc-benchmark compare <a.json> <b.json>";

/// Seconds one run measures when `--seconds` is not given; `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    data_dir: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out: None,
        data_dir: None,
    };
    let mut seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => run.smoke = true,
            "--out" => run.out = Some(PathBuf::from(value()?)),
            "--data-dir" => run.data_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    run.seed = seed.ok_or("--seed is required: the inputs are made from it")?;
    if run.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if run.seconds <= 0.0 {
        run.seconds = if run.smoke { 1.0 } else { DEFAULT_SECONDS };
    }
    Ok(run)
}

/// Where the benchmark may write: the build directory of its checkout.
fn scratch_root() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

/// Where durable stores live for the length of a run. A tmpfs when the box
/// has one, so that write latencies are the sandbox's and not a device's:
/// the fsync of this sandbox's virtual disk takes 0.1 ms or 0.25 ms for
/// minutes at a time, which moved every durable metric by up to 2x between
/// two sets of runs of one build. `--data-dir` overrides the choice.
fn data_dir(args: &RunArgs) -> PathBuf {
    let unique = format!("sfc-benchmark-{}", std::process::id());
    if let Some(dir) = &args.data_dir {
        return dir.join(unique);
    }
    let tmpfs = PathBuf::from("/dev/shm").join(&unique);
    if std::fs::create_dir_all(&tmpfs).is_ok() {
        return tmpfs;
    }
    scratch_root().join("benchmark").join(unique)
}

fn run(args: &RunArgs) -> Result<(), String> {
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    for name in names {
        // Only the two durable workloads write store files.
        let durable = matches!(name, "ingest_durable" | "mixed_rw");
        let data_dir = if durable {
            data_dir(args)
        } else {
            PathBuf::new()
        };
        let cfg = Cfg {
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            data_dir: data_dir.clone(),
            trace_dir: scratch_root().join("benchmark"),
            #[cfg(test)]
            corrupt_oracle: false,
        };
        let result = workloads::run(name, &cfg, args.trace);
        if durable {
            let _ = std::fs::remove_dir_all(&data_dir);
        }
        let mut report = result?;
        if durable {
            report
                .notes
                .push(format!("durable stores were under {}", data_dir.display()));
        }
        print!("{}", report.table());
        if let Some(out) = &args.out {
            report
                .append_to(out)
                .map_err(|e| format!("{}: {e}", out.display()))?;
        }
        println!("{}", report.contract_json());
    }
    Ok(())
}

/// Set in the pinned child, so that it does not pin itself again.
const PINNED: &str = "SFC_BENCHMARK_PINNED";

/// Runs `run` again as a child pinned to CPU 0 (`taskset -c 0`) and returns
/// its exit code; `None` where that cannot be done, and in the child.
///
/// An acked write hands over to the committer thread and back. Between the
/// two virtual CPUs of this sandbox such a wake-up takes ≈ 5 µs or ≈ 45 µs
/// for half an hour at a time, depending on what else the host runs: that
/// moved `write_p50_us` on `mixed_rw` from 10 µs to 50 µs and `ops_per_s`
/// on both durable workloads by 30-50 % between two sets of runs of one
/// build. On one CPU a hand-over is a context switch inside the guest, and
/// the closed loop loses little: the client waits while the committer works.
fn rerun_pinned(args: &[String]) -> Option<ExitCode> {
    if std::env::var_os(PINNED).is_some() {
        return None;
    }
    let taskset = |program: &std::ffi::OsStr, rest: &[String]| {
        Command::new("taskset")
            .args(["-c", "0"])
            .arg(program)
            .args(rest)
            .env(PINNED, "1")
            .status()
            .ok()
    };
    if !taskset("true".as_ref(), &[])?.success() {
        return None;
    }
    let status = taskset(std::env::current_exe().ok()?.as_os_str(), args)?;
    Some(ExitCode::from(
        u8::try_from(status.code().unwrap_or(1)).unwrap_or(1),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("run") {
        if let Some(code) = rerun_pinned(&args) {
            return code;
        }
    }
    // A run whose oracles failed still prints its result line and exits 0:
    // the failures are in `failed`, and `compare` turns them into an exit code.
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..])
            .and_then(|a| run(&a))
            .map(|()| ExitCode::SUCCESS),
        Some("compare") if args.len() == 3 => compare::files(args[1].as_ref(), args[2].as_ref())
            .map(|(table, pass)| {
                print!("{table}");
                if pass {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    /// The harness reaches the library through `adapter.rs` alone.
    #[test]
    fn only_the_adapter_names_the_library_crates() {
        fn visit(dir: &std::path::Path, offenders: &mut Vec<String>) {
            for entry in std::fs::read_dir(dir).unwrap().flatten() {
                let path = entry.path();
                if path.is_dir() {
                    visit(&path, offenders);
                } else if path.file_name().is_some_and(|n| n != "adapter.rs") {
                    let text = std::fs::read_to_string(&path).unwrap();
                    if text.contains(concat!("sfc", "_")) || text.contains(concat!("rand", "::")) {
                        offenders.push(path.display().to_string());
                    }
                }
            }
        }
        let mut offenders = Vec::new();
        visit(
            &std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
            &mut offenders,
        );
        assert!(
            offenders.is_empty(),
            "library crates named outside adapter.rs: {offenders:?}"
        );
    }
}
