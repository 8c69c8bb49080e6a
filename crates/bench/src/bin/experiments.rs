//! The experiment runner.
//!
//! ```text
//! experiments [--list] [ids...]
//! ```
//!
//! With no ids, runs every experiment. The tables each id prints are
//! recorded in `tests/golden/experiments.txt`, which the `paper_pipeline`
//! test checks byte for byte.

use sfc_bench::{all_experiments, render_tables};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let list = args.iter().any(|a| a == "--list");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let experiments = all_experiments();

    if list {
        for e in &experiments {
            println!("{:14} {}  [{}]", e.id, e.title, e.paper_ref);
        }
        return;
    }

    let selected: Vec<_> = if ids.is_empty() {
        experiments.iter().collect()
    } else {
        let mut chosen = Vec::new();
        for id in &ids {
            match experiments.iter().find(|e| e.id == id.as_str()) {
                Some(e) => chosen.push(e),
                None => {
                    eprintln!("unknown experiment id: {id}");
                    eprintln!("known ids:");
                    for e in &experiments {
                        eprintln!("  {}", e.id);
                    }
                    std::process::exit(1);
                }
            }
        }
        chosen
    };

    for e in selected {
        let header = format!("{} — {} [{}]", e.id, e.title, e.paper_ref);
        println!("{}", "=".repeat(header.chars().count().min(100)));
        println!("{header}");
        println!("{}", "=".repeat(header.chars().count().min(100)));
        let started = std::time::Instant::now();
        let tables = (e.run)();
        println!("{}", render_tables(&tables));
        println!("[{} completed in {:.2?}]\n", e.id, started.elapsed());
    }
}
