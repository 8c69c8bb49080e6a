//! `paper_stretch` — the paper's own computation.
//!
//! For every `CurveKind::ALL` curve: the exact nearest-neighbour stretch
//! summary in 2-D and 3-D; the exact all-pairs stretch for Z and Hilbert;
//! the sampled all-pairs stretch on a grid too large to enumerate. `core`
//! encode/decode and `metrics` do all the work and every store layer does
//! none: an encode-kernel or `metrics` optimisation must show here and a
//! store change must not move it. One op = one cell, pair or sample
//! evaluated; the headline call is one metric evaluation.

use std::time::Instant;

use super::{segments, timed_setup, Cfg, ClassSeries};
use crate::adapter::{self, AllPairsStretch, BoxedCurve, CurveKind, Estimate, NnStretchSummary};
use crate::layers;
use crate::model::fnv1a;
use crate::report::Report;
use crate::stats;
use crate::trace::{Tracer, NO_PARENT};

struct Sizes {
    /// Bits per coordinate of the 2-D and 3-D summaries.
    k2: u32,
    k3: u32,
    /// Of the exact all-pairs grid (`O(n²)` pairs).
    k_pairs: u32,
    /// Of the sampled grid, and samples drawn on it.
    k_sampled: u32,
    samples: u64,
}

fn sizes(cfg: &Cfg) -> Sizes {
    if cfg.smoke {
        Sizes {
            k2: 8,
            k3: 5,
            k_pairs: 4,
            k_sampled: 20,
            samples: 10_000,
        }
    } else {
        Sizes {
            k2: 10,
            k3: 6,
            k_pairs: 6,
            k_sampled: 20,
            samples: 1_000_000,
        }
    }
}

/// The curves one pass evaluates, built during set-up.
struct Curves {
    d2: Vec<BoxedCurve<2>>,
    d3: Vec<BoxedCurve<3>>,
    /// Z and Hilbert.
    pairs: Vec<BoxedCurve<2>>,
    sampled: Vec<BoxedCurve<2>>,
}

fn build(s: &Sizes) -> Curves {
    let all = CurveKind::ALL;
    Curves {
        d2: all
            .iter()
            .map(|&c| adapter::curve_of_kind(c, s.k2))
            .collect(),
        d3: all
            .iter()
            .map(|&c| adapter::curve_of_kind(c, s.k3))
            .collect(),
        pairs: [CurveKind::Z, CurveKind::Hilbert]
            .iter()
            .map(|&c| adapter::curve_of_kind(c, s.k_pairs))
            .collect(),
        sampled: all
            .iter()
            .map(|&c| adapter::curve_of_kind(c, s.k_sampled))
            .collect(),
    }
}

/// What one evaluation returned.
enum Out {
    Nn(NnStretchSummary),
    Pairs(AllPairsStretch),
    Sampled(Estimate),
}

/// One evaluation of a pass: its span name, what it returned, how long it
/// took and how many ops it stands for.
struct Done {
    name: &'static str,
    out: Out,
    start: Instant,
    ns: u64,
    ops: u64,
}

/// One pass: every evaluation once, each timed.
fn pass(curves: &Curves, s: &Sizes, seed: u64) -> Vec<Done> {
    let mut done = Vec::with_capacity(curves.d2.len() * 3 + curves.pairs.len());
    let mut time = |name: &'static str, ops: u128, f: &mut dyn FnMut() -> Out| {
        let start = Instant::now();
        let out = f();
        done.push(Done {
            name,
            out,
            start,
            ns: stats::ns_since(start),
            ops: ops as u64,
        });
    };
    for c in &curves.d2 {
        time(
            "metrics.summarize",
            adapter::grid_cells_count(s.k2, 2),
            &mut || Out::Nn(adapter::nn_summarize(c)),
        );
    }
    for c in &curves.d3 {
        time(
            "metrics.summarize",
            adapter::grid_cells_count(s.k3, 3),
            &mut || Out::Nn(adapter::nn_summarize(c)),
        );
    }
    for c in &curves.pairs {
        let n = adapter::grid_cells_count(s.k_pairs, 2);
        time("metrics.all_pairs_exact", n * (n - 1) / 2, &mut || {
            Out::Pairs(adapter::all_pairs_exact(c))
        });
    }
    for (i, c) in curves.sampled.iter().enumerate() {
        time("metrics.estimate", u128::from(s.samples), &mut || {
            Out::Sampled(adapter::estimate_all_pairs(
                c,
                s.samples,
                seed.wrapping_add(i as u64),
            ))
        });
    }
    done
}

/// Digest of every field of a summary.
fn summary_digest(s: &NnStretchSummary) -> u64 {
    let mut bytes = s.curve.as_bytes().to_vec();
    bytes.extend((s.d as u64).to_le_bytes());
    bytes.extend(s.k.to_le_bytes());
    for v in [
        s.n,
        s.davg_numerator,
        s.davg_denominator,
        s.dmax_sum,
        s.edge_sum,
        s.max_delta,
    ] {
        bytes.extend(v.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// Committed digests of every summary the workload computes, full size and
/// smoke size: `(curve, d, k, digest)`.
const GOLDEN: [(&str, usize, u32, u64); 20] = [
    ("Z", 2, 10, 0xd0022a2a82852c3d),
    ("simple", 2, 10, 0x1692a0bc3395713c),
    ("snake", 2, 10, 0x5221e37c5f33a9a3),
    ("gray", 2, 10, 0xe96033e87094e736),
    ("hilbert", 2, 10, 0x3350d753f4371703),
    ("Z", 3, 6, 0x7fc7ccaae130fa51),
    ("simple", 3, 6, 0x28268463c8915885),
    ("snake", 3, 6, 0x9bbf460470f019ae),
    ("gray", 3, 6, 0xb996c1bab62be4f0),
    ("hilbert", 3, 6, 0xabde5566d89be20b),
    ("Z", 2, 8, 0xb861f8460b4138a8),
    ("simple", 2, 8, 0xeebafd1b8d14d9ae),
    ("snake", 2, 8, 0xe9974311f8dc8306),
    ("gray", 2, 8, 0x048710f4ea10877e),
    ("hilbert", 2, 8, 0x0b22c5ac5df36378),
    ("Z", 3, 5, 0x7bd446d288a16c08),
    ("simple", 3, 5, 0xb442b1d7d749d5cc),
    ("snake", 3, 5, 0x214d0c136bd9ccde),
    ("gray", 3, 5, 0xc7555c9068eb304c),
    ("hilbert", 3, 5, 0x44db188f1d407d56),
];

/// Checks one evaluation against its oracles: the golden digest and the
/// Theorem 1 bound for a summary, the Lemma 2 identity for exact all-pairs,
/// sanity of a sampled estimate.
fn check(report: &mut Report, out: &Out, s: &Sizes, skew: u64) {
    match out {
        Out::Nn(sum) => {
            let golden = GOLDEN
                .iter()
                .find(|g| (g.0, g.1, g.2) == (sum.curve.as_str(), sum.d, sum.k))
                .map(|g| g.3.wrapping_add(skew));
            let digest = summary_digest(sum);
            let bound = adapter::thm1_lower_bound(sum.k, sum.d);
            report.check(golden == Some(digest) && sum.d_avg() >= bound, || {
                format!(
                    "{} d={} k={}: digest {digest:#018x}, golden {golden:x?}; D^avg {} against the Theorem 1 bound {bound}",
                    sum.curve,
                    sum.d,
                    sum.k,
                    sum.d_avg()
                )
            });
        }
        Out::Pairs(p) => {
            let want = adapter::lemma2_sa_prime(p.n).wrapping_add(u128::from(skew));
            report.check(p.sa_prime == want, || {
                format!("{}: S_A' = {}, Lemma 2 says {want}", p.curve, p.sa_prime)
            });
        }
        Out::Sampled(e) => {
            let ok = e.samples == s.samples + skew
                && e.mean.is_finite()
                && e.mean >= 1.0
                && e.std_error > 0.0;
            report.check(ok, || format!("sampled estimate {e:?}"));
        }
    }
}

/// Once per run, on the small curves of the set-up (the parallel driver is
/// slower than the sequential one on this box, and a pass-sized comparison
/// would cost more than the passes): `summarize_par` agrees with `summarize`
/// on every curve, and Lemma 2 holds for the curves the passes do not
/// enumerate.
fn check_once(report: &mut Report, small: &Curves, s: &Sizes, skew: u64) {
    let pairs = (small
        .d2
        .iter()
        .map(|c| (adapter::nn_summarize(c), adapter::nn_summarize_par(c))))
    .chain(
        small
            .d3
            .iter()
            .map(|c| (adapter::nn_summarize(c), adapter::nn_summarize_par(c))),
    );
    for (seq, mut par) in pairs {
        par.dmax_sum = par.dmax_sum.wrapping_add(u128::from(skew));
        report.check(seq == par, || {
            format!(
                "summarize_par disagrees with summarize on {} d={}",
                seq.curve, seq.d
            )
        });
    }
    for kind in [CurveKind::Simple, CurveKind::Snake, CurveKind::Gray] {
        let out = Out::Pairs(adapter::all_pairs_exact(&adapter::curve_of_kind(
            kind, s.k_pairs,
        )));
        check(report, &out, s, skew);
    }
}

pub fn run(cfg: &Cfg, traced: bool) -> Result<Report, String> {
    let mut report = Report::new("paper_stretch", cfg.seed, cfg.smoke, traced);
    let s = sizes(cfg);
    let skew = cfg.digest_skew();

    // Set-up: build every curve (Hilbert checks its tables against the
    // scalar code on construction) and run each evaluation once at smoke
    // size, so lookup tables are built and warm before timing.
    let warm = sizes(&Cfg {
        smoke: true,
        ..cfg.clone()
    });
    let curves = timed_setup(&mut report, 5, || {
        let small = build(&warm);
        std::hint::black_box(pass(&small, &warm, cfg.seed).len());
        Ok(build(&s))
    })?;

    let mut calls = ClassSeries::default();
    let mut throughput = Vec::new();
    segments(cfg.untraced_seconds(traced), 2, 64, |_| {
        let wall = Instant::now();
        let done = pass(&curves, &s, cfg.seed);
        let wall_ns = stats::ns_since(wall);
        let ops: u64 = done.iter().map(|d| d.ops).sum();
        throughput.push(ops as f64 / (wall_ns as f64 / 1e9));
        calls.fold(&done.iter().map(|d| d.ns).collect::<Vec<_>>());
        for d in &done {
            check(&mut report, &d.out, &s, skew);
        }
    });
    // Read before the once-per-run oracles: the parallel driver's buffers
    // are not what a pass costs.
    let peak_rss_mb = stats::peak_rss_mb();
    check_once(&mut report, &build(&warm), &s, skew);

    report.series(
        "ops_per_s",
        "ops/s",
        &throughput,
        0,
        "cells + pairs + samples per pass",
    );
    calls.report_headline(&mut report, "one metric evaluation");
    report.scalar("peak_rss_mb", "MB", peak_rss_mb, 0, "");

    if traced {
        let mut tr = Tracer::with_capacity(256);
        let root = tr.begin("segment", NO_PARENT, 0);
        let wall = Instant::now();
        let done = pass(&curves, &s, cfg.seed);
        let wall_ns = stats::ns_since(wall);
        for (i, d) in done.iter().enumerate() {
            tr.push(d.name, root, i as u64, d.start, d.ns, None);
        }
        tr.end(root);
        let ops: u64 = done.iter().map(|d| d.ops).sum();
        super::report_trace_overhead(
            &mut report,
            &throughput,
            ops as f64 / (wall_ns as f64 / 1e9),
        );

        // The per-evaluation costs ride on the spans of the traced pass.
        let per_op = |i: usize| done[i].ns as f64 / done[i].ops as f64;
        let kinds = CurveKind::ALL;
        let at = |kind: CurveKind| kinds.iter().position(|&k| k == kind).expect("in ALL");
        for (name, i) in [
            ("z_d2", at(CurveKind::Z)),
            ("hilbert_d2", at(CurveKind::Hilbert)),
            ("gray_d2", at(CurveKind::Gray)),
            ("z_d3", kinds.len() + at(CurveKind::Z)),
            ("hilbert_d3", kinds.len() + at(CurveKind::Hilbert)),
        ] {
            report.scalar(
                &format!("metrics.nn_ns_per_cell.{name}"),
                "ns",
                per_op(i),
                done[i].ops,
                "",
            );
        }
        let mean_of = |name: &str| {
            let (ns, ops) = done
                .iter()
                .filter(|d| d.name == name)
                .fold((0u64, 0u64), |(ns, ops), d| (ns + d.ns, ops + d.ops));
            (ns as f64 / ops.max(1) as f64, ops)
        };
        let (v, n) = mean_of("metrics.all_pairs_exact");
        report.scalar("metrics.all_pairs_ns_per_pair", "ns", v, n, "");
        let (v, n) = mean_of("metrics.estimate");
        report.scalar("metrics.sampled_ns_per_sample", "ns", v, n, "");
        if stats::nproc() >= 2 {
            let z = at(CurveKind::Z);
            let (_, par_ns) = tr.span("metrics.summarize_par", NO_PARENT, || {
                adapter::nn_summarize_par(&curves.d2[z])
            });
            report.scalar(
                "metrics.par_speedup",
                "ratio",
                done[z].ns as f64 / par_ns.max(1) as f64,
                0,
                "summarize / summarize_par, Z d=2",
            );
        } else {
            report
                .notes
                .push("metrics.par_speedup: unmeasured (fewer than 2 cores)".to_string());
        }

        // Layer replay: the encode and decode kernels over the workload's
        // own points, the cells of the 2-D grid.
        let replay = tr.begin("replay", NO_PARENT, 0);
        let z = &curves.d2[at(CurveKind::Z)];
        let cells = adapter::grid_cells(z);
        layers::core(&mut report, &mut tr, replay, "z", z, &cells);
        layers::core(
            &mut report,
            &mut tr,
            replay,
            "hilbert",
            &curves.d2[at(CurveKind::Hilbert)],
            &cells,
        );
        layers::common(&mut report, &mut tr, replay);
        tr.end(replay);
        report.notes.push(format!(
            "store spans in the trace: {} (this workload reaches no store layer)",
            tr.count_prefixed("store.")
        ));
        layers::write_trace(&mut report, &tr, cfg);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_digest_sees_every_field() {
        let curve: BoxedCurve<2> = adapter::curve_of_kind(CurveKind::Z, 3);
        let a = adapter::nn_summarize(&curve);
        let mut b = a.clone();
        assert_eq!(summary_digest(&a), summary_digest(&b));
        b.edge_sum += 1;
        assert_ne!(summary_digest(&a), summary_digest(&b));
    }

    /// Prints the `GOLDEN` table; run it when a size changes:
    /// `cargo test --release -- --ignored print_golden --nocapture`.
    #[test]
    #[ignore = "prints the golden table, takes a few seconds"]
    fn print_golden() {
        for &(name, d, k, _) in &GOLDEN {
            let kind = *CurveKind::ALL.iter().find(|c| c.name() == name).unwrap();
            let digest = match d {
                2 => summary_digest(&adapter::nn_summarize(&adapter::curve_of_kind::<2>(
                    kind, k,
                ))),
                _ => summary_digest(&adapter::nn_summarize(&adapter::curve_of_kind::<3>(
                    kind, k,
                ))),
            };
            println!("    (\"{name}\", {d}, {k}, {digest:#018x}),");
        }
    }
}
