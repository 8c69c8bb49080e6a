//! The experiment registry: one entry per paper artifact.
//!
//! Each experiment regenerates a figure or numerically validates a theorem,
//! lemma or proposition of the paper, returning its results as tables. Each
//! entry names its paper artifact (`paper_ref`); the tables every id
//! renders are recorded in `tests/golden/experiments.txt`, which the
//! `paper_pipeline` test checks byte for byte.

pub mod applications;
pub mod extensions;
pub mod figures;
pub mod gallery;
pub mod theorems;

use sfc_metrics::report::Table;

/// A registered experiment.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Stable id used on the command line (e.g. `thm2`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The paper artifact this reproduces (e.g. "Theorem 2").
    pub paper_ref: &'static str,
    /// Runs the experiment and returns its result tables.
    pub run: fn() -> Vec<Table>,
}

/// All experiments, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig1",
            title: "Figure 1: the two worked curves on the 2×2 grid, and the true optimum",
            paper_ref: "Figure 1 + Section III worked values",
            run: figures::fig1,
        },
        Experiment {
            id: "fig2",
            title: "Figure 2: the nearest-neighbor decomposition p(α,β) vs p(β,α)",
            paper_ref: "Figure 2 + Section IV.A",
            run: figures::fig2,
        },
        Experiment {
            id: "fig3",
            title: "Figure 3: the 2-D Z curve key layout on the 8×8 grid",
            paper_ref: "Figure 3 + Section IV.B worked example",
            run: figures::fig3,
        },
        Experiment {
            id: "fig4",
            title: "Figure 4: the simple curve on the 8×8 grid",
            paper_ref: "Figure 4 + Eq. 8",
            run: figures::fig4,
        },
        Experiment {
            id: "thm1",
            title: "Theorem 1: the universal NN-stretch lower bound, across curves and dimensions",
            paper_ref: "Theorem 1",
            run: theorems::thm1,
        },
        Experiment {
            id: "lem2",
            title: "Lemma 2: S_A'(π) = (n−1)n(n+1)/3 for every bijection",
            paper_ref: "Lemma 2",
            run: theorems::lem2,
        },
        Experiment {
            id: "lem4",
            title: "Lemma 4: edge multiplicity of the NN decomposition",
            paper_ref: "Lemma 4",
            run: theorems::lem4,
        },
        Experiment {
            id: "thm2",
            title: "Theorem 2: D^avg(Z) ~ (1/d)·n^{1−1/d} (convergence)",
            paper_ref: "Theorem 2",
            run: theorems::thm2,
        },
        Experiment {
            id: "lem5",
            title: "Lemma 5: Λ_i(Z)/n^{2−1/d} → 2^{d−i}/(2^d−1)",
            paper_ref: "Lemma 5",
            run: theorems::lem5,
        },
        Experiment {
            id: "thm3",
            title: "Theorem 3: the simple curve matches the Z curve's stretch",
            paper_ref: "Theorem 3",
            run: theorems::thm3,
        },
        Experiment {
            id: "ratio15",
            title: "The 1.5× optimality gap of the Z curve",
            paper_ref: "Section I headline (Theorems 1+2)",
            run: theorems::ratio15,
        },
        Experiment {
            id: "prop1",
            title: "Proposition 1: D^max obeys the same lower bound",
            paper_ref: "Proposition 1",
            run: theorems::prop1,
        },
        Experiment {
            id: "prop2",
            title: "Proposition 2: D^max(S) = n^{1−1/d}, exactly",
            paper_ref: "Proposition 2",
            run: theorems::prop2,
        },
        Experiment {
            id: "prop34",
            title: "Propositions 3 & 4: all-pairs stretch bounds (Manhattan & Euclidean)",
            paper_ref: "Propositions 3 and 4",
            run: theorems::prop34,
        },
        Experiment {
            id: "hilbert",
            title: "Open question: measured NN-stretch of the Hilbert (and Gray) curves",
            paper_ref: "Section VI, first open question",
            run: extensions::hilbert,
        },
        Experiment {
            id: "optsearch",
            title: "Open question: searching for better-than-Z curves (exhaustive + best down-set chain)",
            paper_ref: "Section VI (gap between bounds)",
            run: extensions::optsearch,
        },
        Experiment {
            id: "dmax-z",
            title: "New analysis: D^max(Z) in closed form converges to 2·n^{1−1/d}",
            paper_ref: "Section VI open question on the D^max gap",
            run: extensions::dmax_z,
        },
        Experiment {
            id: "torus",
            title: "Torus variant: periodic boundaries, Lemma 3 as equality, exact closed forms",
            paper_ref: "Section VI (model extensions)",
            run: extensions::torus,
        },
        Experiment {
            id: "cluster",
            title: "Contrast metric: Moon et al. clustering vs the stretch",
            paper_ref: "Section II (related work, ref [18])",
            run: extensions::cluster,
        },
        Experiment {
            id: "more-curves",
            title: "Extended survey: spiral and diagonal curves vs the bounds",
            paper_ref: "Section II (comparative studies, ref [1])",
            run: gallery::more_curves,
        },
        Experiment {
            id: "gallery",
            title: "Traversal gallery: continuity and jumps of all seven curves",
            paper_ref: "Figures 3-4 (visual counterpart)",
            run: gallery::gallery,
        },
        Experiment {
            id: "distribution",
            title: "Distribution shapes: per-edge stretch histograms per curve",
            paper_ref: "Lemma 5 class structure, visualized",
            run: gallery::distribution,
        },
        Experiment {
            id: "stratified",
            title: "Stratified estimation of Z-curve stretch beyond enumerable sizes",
            paper_ref: "Lemma 5 strata, applied to estimation",
            run: gallery::stratified,
        },
        Experiment {
            id: "app-partition",
            title: "Application: SFC domain decomposition quality per curve",
            paper_ref: "Section I (refs [3], [22], [23])",
            run: applications::app_partition,
        },
        Experiment {
            id: "app-index",
            title: "Application: range & kNN query cost per curve",
            paper_ref: "Section I (refs [9], [21]) + ref [5]",
            run: applications::app_index,
        },
        Experiment {
            id: "app-nbody",
            title: "Application: N-body decomposition locality per curve",
            paper_ref: "Section I (ref [26])",
            run: applications::app_nbody,
        },
    ]
}
