//! `compare <a.json> <b.json>`: per (workload, end-to-end metric), both
//! medians, the ratio with its base, the bound and a verdict.
//!
//! * `ok` — b's median is no worse than a's by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — the spread of either side is wider than the bound, so
//!   the runs cannot tell (unless every run of b reads better than every
//!   run of a, which is `ok`).
//!
//! With four or more runs on a side the spread is the quartile distance
//! across runs as a share of their median; with fewer, the widest such
//! spread over the segments inside a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::report::{bounded, Better};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `(value, in-run spread)` of every run, per (workload, metric).
pub type Runs = BTreeMap<(String, String), Vec<(f64, f64)>>;

/// The value of `key` in a flat JSON object holding strings and numbers.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let rest = rest.trim_start();
    let end = if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.find('"').map(|e| &quoted[..e]);
    } else {
        rest.find([',', '}']).unwrap_or(rest.len())
    };
    Some(rest[..end].trim())
}

/// Reads the rows a run wrote with `--out`; untraced runs only.
pub fn parse(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let get = |k: &str| field(line, k).ok_or_else(|| format!("line {}: no {k:?}", i + 1));
        let number = |k: &str| {
            get(k).and_then(|v| {
                v.parse::<f64>()
                    .map_err(|e| format!("line {}: {k}: {e}", i + 1))
            })
        };
        if number("traced")? != 0.0 {
            continue;
        }
        runs.entry((get("workload")?.to_string(), get("metric")?.to_string()))
            .or_default()
            .push((number("value")?, number("spread")?));
    }
    Ok(runs)
}

fn values(runs: &[(f64, f64)]) -> Vec<f64> {
    runs.iter().map(|r| r.0).collect()
}

fn spread(runs: &[(f64, f64)]) -> f64 {
    if runs.len() >= 4 {
        stats::iqr_share(&values(runs))
    } else {
        runs.iter().map(|r| r.1).fold(0.0, f64::max)
    }
}

/// The verdict on one metric: `a` is the base, `b` the candidate.
pub fn verdict(a: &[(f64, f64)], b: &[(f64, f64)], better: Better, bound: f64) -> Verdict {
    let (va, vb) = (values(a), values(b));
    let (ma, mb) = (stats::median(&va), stats::median(&vb));
    let worse = match better {
        Better::Lower => mb > ma * (1.0 + bound),
        Better::Higher => mb < ma * (1.0 - bound),
    };
    if spread(a) > bound || spread(b) > bound {
        let every_b_better = vb.iter().all(|&y| {
            va.iter().all(|&x| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The comparison table and whether it passes: no `worse`, and no rise in
/// `failed_share`.
pub fn table(a: &Runs, b: &Runs) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<16}{:<24}{:>14}{:>14}{:>9}{:>7}{:>8}{:>8}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "bound", "iqr a", "iqr b"
    );
    for (key, ra) in a {
        let Some(rb) = b.get(key) else { continue };
        let (workload, metric) = key;
        let (ma, mb) = (stats::median(&values(ra)), stats::median(&values(rb)));
        if metric == "failed_share" {
            let rose = mb > ma;
            pass &= !rose;
            let _ = writeln!(
                out,
                "{workload:<16}{metric:<24}{ma:>14.6}{mb:>14.6}{:>46}  {}",
                "",
                if rose { "worse" } else { "ok" }
            );
            continue;
        }
        let Some(decl) = bounded(metric) else {
            continue;
        };
        let v = verdict(ra, rb, decl.better, decl.bound);
        pass &= v != Verdict::Worse;
        let _ = writeln!(
            out,
            "{workload:<16}{metric:<24}{ma:>14.4}{mb:>14.4}{:>9.3}{:>6.0}%{:>7.1}%{:>7.1}%  {}",
            mb / ma,
            decl.bound * 100.0,
            spread(ra) * 100.0,
            spread(rb) * 100.0,
            match v {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    (out, pass)
}

/// Compares two result files; `Ok(pass)`.
pub fn files(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| parse(&t))
    };
    let (a, b) = (read(a)?, read(b)?);
    if a.is_empty() || b.is_empty() {
        return Err("a result file holds no untraced run".to_string());
    }
    Ok(table(&a, &b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(values: &[f64]) -> Vec<(f64, f64)> {
        values.iter().map(|&v| (v, 0.01)).collect()
    }

    #[test]
    fn the_three_verdicts() {
        let base = tight(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        // Lower is better, bound 10 %.
        assert_eq!(
            verdict(
                &base,
                &tight(&[105.0, 106.0, 104.0, 105.0, 105.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                &base,
                &tight(&[115.0, 116.0, 114.0, 115.0, 115.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
        let noisy = tight(&[80.0, 100.0, 125.0, 90.0, 140.0]);
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Noisy, but every run of b beats every run of a.
        assert_eq!(
            verdict(
                &base,
                &tight(&[50.0, 60.0, 75.0, 55.0, 90.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        // Higher is better.
        assert_eq!(
            verdict(
                &base,
                &tight(&[85.0, 86.0, 84.0, 85.0, 85.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                &base,
                &tight(&[95.0, 96.0, 94.0, 95.0, 95.5]),
                Better::Higher,
                0.10
            ),
            Verdict::Ok
        );
        // Fewer than four runs: the spread inside a run decides.
        assert_eq!(
            verdict(&[(100.0, 0.30)], &[(150.0, 0.02)], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[(100.0, 0.02)], &[(150.0, 0.02)], Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn rows_parse_and_a_rise_in_failed_share_fails() {
        let row = |metric: &str, value: f64| {
            format!("{{\"workload\": \"mixed_rw\", \"metric\": \"{metric}\", \"unit\": \"us\", \"value\": {value}, \"spread\": 0.01, \"samples\": 5, \"seed\": 1, \"traced\": 0}}\n")
        };
        let a = parse(&(row("write_p50_us", 100.0) + &row("failed_share", 0.0))).unwrap();
        assert_eq!(
            a[&("mixed_rw".to_string(), "write_p50_us".to_string())],
            vec![(100.0, 0.01)]
        );
        let same = parse(&(row("write_p50_us", 104.0) + &row("failed_share", 0.0))).unwrap();
        assert!(table(&a, &same).1);
        let slower = parse(&(row("write_p50_us", 140.0) + &row("failed_share", 0.0))).unwrap();
        let (text, pass) = table(&a, &slower);
        assert!(!pass && text.contains("worse"), "{text}");
        let failing = parse(&(row("write_p50_us", 100.0) + &row("failed_share", 0.001))).unwrap();
        assert!(!table(&a, &failing).1);
        let traced = row("write_p50_us", 1.0).replace("\"traced\": 0", "\"traced\": 1");
        assert!(
            parse(&traced).unwrap().is_empty(),
            "traced runs are not compared"
        );
        assert!(parse("{\"workload\": \"x\"}").is_err());
    }
}
