//! End-to-end reproduction pipeline: the paper's claims checked through
//! the public facade, exactly as a downstream user would.

use sfc::metrics::{all_pairs, bounds, lambda, nn_stretch};
use sfc::prelude::*;

/// The complete claim chain of the paper for d = 2, k = 4 (n = 256):
/// Theorem 1 bound ≤ D^avg(Z) ≤ D^max(Z), Lemma 3 brackets, Lemma 2
/// universality, Proposition 2 exactness.
#[test]
fn full_claim_chain_d2() {
    let k = 4;
    let z = ZCurve::<2>::new(k).unwrap();
    let s = nn_stretch::summarize_par(&z);

    // Theorem 1.
    let bound = bounds::thm1_nn_stretch_lower_bound(k, 2);
    assert!(s.d_avg() >= bound);

    // Proposition 1 (D^max dominates).
    assert!(s.d_max() >= s.d_avg());

    // Lemma 3 brackets D^avg by the edge sum.
    assert!(s.d_avg() >= bounds::lemma3_lower(s.edge_sum, s.n, 2) - 1e-12);
    assert!(s.d_avg() <= bounds::lemma3_upper(s.edge_sum, s.n, 2) + 1e-12);

    // Lemma 5 machinery: Σ_i Λ_i equals the measured edge sum.
    let lambda_total: u128 = (0..2).map(|axis| lambda::lambda_measured(&z, axis)).sum();
    assert_eq!(lambda_total, s.edge_sum);

    // Lemma 2: the all-pairs sum is curve-independent.
    let ap = all_pairs::all_pairs_exact(&z);
    assert_eq!(ap.sa_prime, bounds::lemma2_sa_prime(s.n));

    // Proposition 3: all-pairs stretch lower bounds.
    assert!(ap.manhattan >= bounds::prop3_all_pairs_lower_manhattan(k, 2) - 1e-9);
    assert!(ap.euclidean >= bounds::prop3_all_pairs_lower_euclidean(k, 2) - 1e-9);

    // Proposition 2 for the simple curve on the same grid.
    let simple = nn_stretch::summarize_par(&SimpleCurve::<2>::new(k).unwrap());
    assert!(simple.d_max_equals_ratio(bounds::prop2_dmax_simple_exact(k, 2), 1));
}

/// Theorem 2 + Theorem 3: Z and simple have the *same* asymptotic
/// stretch, and both converge to (1/d)·n^{1−1/d} from the data's direction.
#[test]
fn z_and_simple_share_the_asymptote() {
    for d2k in [4u32, 6, 8] {
        let z = nn_stretch::summarize_par(&ZCurve::<2>::new(d2k).unwrap());
        let s = nn_stretch::summarize_par(&SimpleCurve::<2>::new(d2k).unwrap());
        let asym = bounds::nn_stretch_asymptote(d2k, 2);
        let rz = z.d_avg() / asym;
        let rs = s.d_avg() / asym;
        // Both normalized values lie in (0.9, 1.2) by k = 4 and tighten
        // with k.
        assert!((0.9..1.2).contains(&rz), "Z k={d2k}: {rz}");
        assert!((0.9..1.2).contains(&rs), "S k={d2k}: {rs}");
    }
    // Convergence: at k = 8 both are within 2% of the asymptote.
    let asym = bounds::nn_stretch_asymptote(8, 2);
    let z = nn_stretch::summarize_par(&ZCurve::<2>::new(8).unwrap());
    let s = nn_stretch::summarize_par(&SimpleCurve::<2>::new(8).unwrap());
    assert!((z.d_avg() / asym - 1.0).abs() < 0.02);
    assert!((s.d_avg() / asym - 1.0).abs() < 0.02);
}

/// The 1.5 headline, measured across dimensions at the largest enumerable
/// sizes.
#[test]
fn z_is_within_1_5_of_the_lower_bound() {
    let checks: Vec<(f64, &str)> = vec![
        (
            nn_stretch::summarize_par(&ZCurve::<2>::new(9).unwrap()).d_avg()
                / bounds::thm1_nn_stretch_lower_bound(9, 2),
            "d=2",
        ),
        (
            nn_stretch::summarize_par(&ZCurve::<3>::new(5).unwrap()).d_avg()
                / bounds::thm1_nn_stretch_lower_bound(5, 3),
            "d=3",
        ),
        (
            nn_stretch::summarize_par(&ZCurve::<4>::new(5).unwrap()).d_avg()
                / bounds::thm1_nn_stretch_lower_bound(5, 4),
            "d=4",
        ),
    ];
    // The ratio converges to 1.5 from above at rate ~2^{−k}; at these
    // sizes every dimension is within 4% of the limit.
    for (ratio, label) in checks {
        assert!(ratio >= 1.0, "{label}: Z below the bound?! {ratio}");
        assert!(
            ratio < 1.56,
            "{label}: ratio {ratio} — should be near 1.5 at these sizes"
        );
    }
}

/// Every experiment id's `== id ==` header followed by its rendered text
/// tables, in registry order: the content of `tests/golden/experiments.txt`.
fn experiment_sections() -> Vec<(&'static str, String)> {
    sfc_bench::all_experiments()
        .into_iter()
        .map(|e| {
            let tables = (e.run)();
            assert!(!tables.is_empty(), "{} produced no tables", e.id);
            for t in &tables {
                assert!(!t.rows.is_empty(), "{}: empty table '{}'", e.id, t.title);
            }
            let text = sfc_bench::render_tables(&tables);
            (e.id, format!("== {} ==\n{text}\n", e.id))
        })
        .collect()
}

/// Every registered experiment runs to completion, yields non-empty
/// tables, and renders byte for byte what `tests/golden/experiments.txt`
/// records (the harness is itself part of the reproduction contract).
#[test]
fn every_experiment_runs() {
    let golden = include_str!("../golden/experiments.txt");
    let mut rest = golden;
    for (id, section) in experiment_sections() {
        if let Some(tail) = rest.strip_prefix(section.as_str()) {
            rest = tail;
            continue;
        }
        let line = section
            .lines()
            .zip(rest.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| section.lines().count().min(rest.lines().count()));
        panic!(
            "experiment {id} differs from tests/golden/experiments.txt at its line {}:\n  \
             got:    {:?}\n  golden: {:?}\n(regenerate with `cargo test -p sfc-integration \
             --test paper_pipeline -- --ignored print_experiments_golden --nocapture` only if \
             the change is meant to move a table)",
            line + 1,
            section.lines().nth(line),
            rest.lines().nth(line),
        );
    }
    assert!(
        rest.is_empty(),
        "golden file has sections past the last experiment id"
    );
}

/// Prints `tests/golden/experiments.txt`; run it when an experiment's
/// table is meant to change:
/// `cargo test -p sfc-integration --test paper_pipeline -- --ignored
/// print_experiments_golden --nocapture`, keeping what the test prints
/// between the harness's "running 1 test" and its result lines.
#[test]
#[ignore = "prints the golden experiment tables"]
fn print_experiments_golden() {
    for (_, section) in experiment_sections() {
        print!("{section}");
    }
}

/// The paper's Figure 1 values, reproduced through the facade.
#[test]
fn figure1_values_via_facade() {
    let pi1 = PermutationCurve::figure1_pi1();
    let pi2 = PermutationCurve::figure1_pi2();
    let s1 = nn_stretch::summarize(&pi1);
    let s2 = nn_stretch::summarize(&pi2);
    assert!(s1.d_avg_equals_ratio(3, 2));
    assert!(s1.d_max_equals_ratio(2, 1));
    assert!(s2.d_avg_equals_ratio(2, 1));
    assert!(s2.d_max_equals_ratio(5, 2));
}
