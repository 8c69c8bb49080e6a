//! Searching for *optimal* curves: how close to the Theorem 1 lower bound
//! can any bijection get?
//!
//! The paper leaves the exact optimum open (Section VI). Two searches, both
//! exact:
//!
//! * [`exhaustive_optimal`] — enumerates **all** `n!` bijections for tiny
//!   universes (the 2×2 grid of Figure 1 and the 2×2×2 cube), establishing
//!   the true optimum by brute force. For the 2×2 grid this proves
//!   Figure 1's `π₁` (with `D^avg = 1.5`) is optimal.
//! * [`down_set_optimum`] — the best order whose every prefix is a
//!   down-set, as a shortest path through the down-set lattice: 8×8 in
//!   milliseconds, 4×4×4 in a fraction of a second. It is the best over
//!   down-set chains, which is not proved to be the best over all
//!   bijections; it matches [`exhaustive_optimal`] wherever that reaches.
//!
//! Both optimize the *exact* scaled objective
//! `T(π) = Σ_α (L/|N(α)|)·Σ_{β∈N(α)} Δπ(α,β)` (so `D^avg = T/(L·n)`),
//! keeping search decisions free of floating-point noise.

use crate::nn_stretch::neighbor_count_lcm;
use sfc_core::{Grid, PermutationCurve};
use std::collections::HashMap;

/// A weighted nearest-neighbor edge of the grid, with endpoints as
/// row-major ranks and weight `L/|N(a)| + L/|N(b)|`.
#[derive(Debug, Clone, Copy)]
struct WeightedEdge {
    a: u32,
    b: u32,
    weight: u64,
}

/// Precomputes the weighted edge list of the grid: the exact objective is
/// `T(π) = Σ_e weight(e) · |π(a_e) − π(b_e)|`.
fn weighted_edges<const D: usize>(grid: Grid<D>) -> Vec<WeightedEdge> {
    let lcm = neighbor_count_lcm(D) as u64;
    grid.nn_edges()
        .map(|(p, q, _)| WeightedEdge {
            a: grid.row_major_rank(&p) as u32,
            b: grid.row_major_rank(&q) as u32,
            weight: lcm / grid.neighbor_count(&p) as u64 + lcm / grid.neighbor_count(&q) as u64,
        })
        .collect()
}

/// The exact scaled objective for a permutation `perm[rank] = index`.
fn objective(edges: &[WeightedEdge], perm: &[u64]) -> u128 {
    edges
        .iter()
        .map(|e| u128::from(e.weight) * u128::from(perm[e.a as usize].abs_diff(perm[e.b as usize])))
        .sum()
}

/// Result of an optimal-curve search.
#[derive(Debug, Clone)]
pub struct SearchResult<const D: usize> {
    /// The best curve found.
    pub best: PermutationCurve<D>,
    /// Exact numerator of the best `D^avg` (same scaling as
    /// [`NnStretchSummary`](crate::nn_stretch::NnStretchSummary)).
    pub davg_numerator: u128,
    /// Exact denominator (`L·n`).
    pub davg_denominator: u128,
    /// Number of permutations achieving the optimum (exhaustive search
    /// only; `0` for [`down_set_optimum`], which does not count ties).
    pub optima_count: u64,
    /// Number of candidates evaluated: permutations for exhaustive search,
    /// down-sets reached for [`down_set_optimum`].
    pub evaluated: u64,
}

impl<const D: usize> SearchResult<D> {
    /// The best `D^avg` as a float.
    pub fn d_avg(&self) -> f64 {
        self.davg_numerator as f64 / self.davg_denominator as f64
    }

    /// `true` iff the best `D^avg` equals `num/den` exactly.
    pub fn d_avg_equals_ratio(&self, num: u128, den: u128) -> bool {
        self.davg_numerator * den == num * self.davg_denominator
    }
}

fn perm_to_curve<const D: usize>(grid: Grid<D>, perm: &[u64]) -> PermutationCurve<D> {
    PermutationCurve::from_index_fn(grid, "search-best", |p| {
        u128::from(perm[grid.row_major_rank(&p) as usize])
    })
    .expect("a permutation is always a bijection")
}

/// Exhaustively enumerates all `n!` bijections and returns the true optimum
/// of `D^avg`.
///
/// # Panics
/// Panics if `n > 8` (`8! = 40320` is the practical limit; `9!` grids do
/// not exist since `n` is a power of two, and `16!` is out of reach).
pub fn exhaustive_optimal<const D: usize>(grid: Grid<D>) -> SearchResult<D> {
    let n = grid.n();
    assert!(n <= 8, "exhaustive search requires n ≤ 8 (got {n})");
    let n = n as usize;
    let edges = weighted_edges(grid);
    let lcm = neighbor_count_lcm(D);

    let mut perm: Vec<u64> = (0..n as u64).collect();
    let mut best_cost = u128::MAX;
    let mut best_perm = perm.clone();
    let mut optima = 0u64;
    let mut evaluated = 0u64;

    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    let mut consider = |perm: &[u64], best_cost: &mut u128, best_perm: &mut Vec<u64>| {
        let cost = objective(&edges, perm);
        evaluated += 1;
        match cost.cmp(best_cost) {
            std::cmp::Ordering::Less => {
                *best_cost = cost;
                *best_perm = perm.to_vec();
                optima = 1;
            }
            std::cmp::Ordering::Equal => optima += 1,
            std::cmp::Ordering::Greater => {}
        }
    };
    consider(&perm, &mut best_cost, &mut best_perm);
    let mut i = 1usize;
    while i < n {
        if c[i] < i {
            if i.is_multiple_of(2) {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            consider(&perm, &mut best_cost, &mut best_perm);
            c[i] += 1;
            i = 1;
        } else {
            c[i] = 0;
            i += 1;
        }
    }

    SearchResult {
        best: perm_to_curve(grid, &best_perm),
        davg_numerator: best_cost,
        davg_denominator: lcm * grid.n(),
        optima_count: optima,
        evaluated,
    }
}

/// The best chain found so far to one down-set.
#[derive(Debug, Clone, Copy)]
struct Chain {
    /// `Σ w(cut(P_t))` over the chain's prefixes, this set included.
    cost: u64,
    /// `w(cut(set))`: a function of the set alone.
    cut: u64,
    /// The row-major rank of the cell the chain added last.
    last: usize,
}

/// The best order over **down-set chains**: orders whose every prefix is a
/// down-set toward the origin corner (it holds each of its cells' lower
/// neighbours), found exactly as a shortest path through the down-set
/// lattice.
///
/// An order is a chain of nested prefixes `P_1 ⊂ … ⊂ P_n`, and an edge is
/// cut by exactly `|π(a) − π(b)|` of them, so
/// `T(π) = Σ_{t=1}^{n−1} w(cut(P_t))`. Layer `t` holds the down-sets of `t`
/// cells. A step adds a cell whose lower neighbours are all in the set (in
/// row-major terms, the cell on top of a column whose height is below that
/// of each predecessor column), which changes the cut by `+w` for each of
/// the cell's neighbours outside the set and `−w` for each inside it. Every
/// down-set keeps its least chain cost and the cell that chain added last;
/// equal costs go to the lower cell, so the result does not depend on hash
/// order. The winning chain is walked back from the full grid.
///
/// This is exact over down-set chains, not over all bijections: for
/// `D^avg`'s weights no proof says some optimal order is a down-set chain.
/// It equals [`exhaustive_optimal`] wherever that reaches (`n ≤ 8`).
/// `optima_count` is `0`: ties are not counted. `evaluated` is the number
/// of down-sets reached, `C(2m, m)` on an `m×m` grid.
///
/// # Panics
/// Panics if `n > 64` (each down-set is a 64-bit cell mask). That admits
/// side 8 in 2-D (12 870 down-sets) and side 4 in 3-D (232 848); a 16×16
/// grid has `C(32, 16) ≈ 6·10⁸`.
pub fn down_set_optimum<const D: usize>(grid: Grid<D>) -> SearchResult<D> {
    let n = grid.n();
    assert!(n <= 64, "down-set search requires n ≤ 64 (got {n})");
    let n = n as usize;
    let mut lower = vec![0u64; n];
    let mut neighbours: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    for e in weighted_edges(grid) {
        lower[e.b as usize] |= 1 << e.a;
        neighbours[e.a as usize].push((e.b, e.weight));
        neighbours[e.b as usize].push((e.a, e.weight));
    }

    let start = Chain {
        cost: 0,
        cut: 0,
        last: 0,
    };
    let mut layers = vec![HashMap::from([(0u64, start)])];
    for t in 0..n {
        let mut next: HashMap<u64, Chain> = HashMap::new();
        for (&set, chain) in &layers[t] {
            for c in (0..n).filter(|&c| set >> c & 1 == 0 && lower[c] & !set == 0) {
                let cut = neighbours[c].iter().fold(chain.cut, |cut, &(q, w)| {
                    if set >> q & 1 == 1 {
                        cut - w
                    } else {
                        cut + w
                    }
                });
                let step = Chain {
                    cost: chain.cost + cut,
                    cut,
                    last: c,
                };
                next.entry(set | 1 << c)
                    .and_modify(|best| {
                        if (step.cost, step.last) < (best.cost, best.last) {
                            *best = step;
                        }
                    })
                    .or_insert(step);
            }
        }
        layers.push(next);
    }

    let mut set = u64::MAX >> (64 - n);
    let cost = layers[n][&set].cost;
    let mut perm = vec![0u64; n];
    for t in (0..n).rev() {
        let c = layers[t + 1][&set].last;
        perm[c] = t as u64;
        set &= !(1 << c);
    }
    SearchResult {
        best: perm_to_curve(grid, &perm),
        davg_numerator: u128::from(cost),
        davg_denominator: neighbor_count_lcm(D) * grid.n(),
        optima_count: 0,
        evaluated: layers.iter().map(|layer| layer.len() as u64).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn_stretch::summarize;
    use sfc_core::{SpaceFillingCurve, ZCurve};

    #[test]
    fn exhaustive_2x2_optimum_is_figure1_pi1_value() {
        // All 24 bijections of the 2×2 grid: the optimum D^avg is 1.5 —
        // Figure 1's π₁ achieves it.
        let grid = Grid::<2>::new(1).unwrap();
        let result = exhaustive_optimal(grid);
        assert_eq!(result.evaluated, 24);
        assert!(
            result.d_avg_equals_ratio(3, 2),
            "optimum = {}",
            result.d_avg()
        );
        // The 2×2 universe is a 4-cycle; of the 6 cyclic label orders, 4
        // reach the minimum cycle cost 6 (= D^avg 1.5), each in 4 rotations:
        // 16 optimal permutations out of 24.
        assert_eq!(result.optima_count, 16);
        // And the Thm 1 lower bound is respected (it is loose at n = 4).
        let bound = crate::bounds::thm1_nn_stretch_lower_bound(1, 2);
        assert!(result.d_avg() >= bound);
    }

    #[test]
    fn exhaustive_1d_optimum_is_monotone_order() {
        // In one dimension (n = 8) the identity order is optimal with
        // D^avg = 1.
        let grid = Grid::<1>::new(3).unwrap();
        let result = exhaustive_optimal(grid);
        assert!(
            result.d_avg_equals_ratio(1, 1),
            "optimum = {}",
            result.d_avg()
        );
        // Exactly 2 optima: ascending and descending.
        assert_eq!(result.optima_count, 2);
        assert_eq!(result.evaluated, 40320);
    }

    #[test]
    fn exhaustive_matches_summarize_on_its_winner() {
        let grid = Grid::<2>::new(1).unwrap();
        let result = exhaustive_optimal(grid);
        let s = summarize(&result.best);
        assert_eq!(
            s.davg_numerator * result.davg_denominator,
            result.davg_numerator * s.davg_denominator
        );
    }

    #[test]
    #[should_panic(expected = "n ≤ 8")]
    fn exhaustive_rejects_large_grids() {
        exhaustive_optimal(Grid::<2>::new(2).unwrap());
    }

    /// `down_set_optimum` on `grid` equals the exhaustive optimum exactly.
    fn assert_down_sets_reach_the_optimum<const D: usize>(grid: Grid<D>) {
        let truth = exhaustive_optimal(grid);
        let chain = down_set_optimum(grid);
        assert!(
            chain.d_avg_equals_ratio(truth.davg_numerator, truth.davg_denominator),
            "down-set chain {} vs exhaustive {}",
            chain.d_avg(),
            truth.d_avg()
        );
    }

    #[test]
    fn down_set_optimum_equals_exhaustive_search_where_it_reaches() {
        assert_down_sets_reach_the_optimum(Grid::<1>::new(3).unwrap());
        assert_down_sets_reach_the_optimum(Grid::<2>::new(1).unwrap());
        assert_down_sets_reach_the_optimum(Grid::<3>::new(1).unwrap());
        // The 2×2×2 optimum over all 8! orders.
        assert!(down_set_optimum(Grid::<3>::new(1).unwrap()).d_avg_equals_ratio(7, 3));
    }

    #[test]
    fn down_set_optimum_is_19_8_at_4x4_and_49_12_at_8x8() {
        let four = down_set_optimum(Grid::<2>::new(2).unwrap());
        assert!(four.d_avg_equals_ratio(19, 8), "4×4: {}", four.d_avg());
        assert_eq!(four.evaluated, 70); // C(8, 4)
        let eight = down_set_optimum(Grid::<2>::new(3).unwrap());
        assert!(eight.d_avg_equals_ratio(49, 12), "8×8: {}", eight.d_avg());
        assert_eq!(eight.evaluated, 12_870); // C(16, 8)
        assert_eq!(eight.optima_count, 0);
    }

    #[test]
    fn down_set_winner_is_a_bijection_with_the_searched_value() {
        fn check<const D: usize>(grid: Grid<D>) {
            let result = down_set_optimum(grid);
            result.best.validate_bijection().unwrap();
            let s = summarize(&result.best);
            assert_eq!(
                s.davg_numerator * result.davg_denominator,
                result.davg_numerator * s.davg_denominator
            );
        }
        check(Grid::<2>::new(2).unwrap());
        check(Grid::<2>::new(3).unwrap());
        check(Grid::<3>::new(1).unwrap());
    }

    #[test]
    fn down_set_optimum_lies_between_thm1_and_z() {
        for k in 1..=3 {
            let result = down_set_optimum(Grid::<2>::new(k).unwrap());
            let bound = crate::bounds::thm1_nn_stretch_lower_bound(k, 2);
            let z = summarize(&ZCurve::<2>::new(k).unwrap()).d_avg();
            assert!(result.d_avg() >= bound, "k={k}: below Theorem 1");
            assert!(result.d_avg() <= z, "k={k}: above Z ({z})");
        }
    }

    #[test]
    fn down_set_optimum_ignores_hash_order() {
        // Every run hashes with fresh keys; ties must still pick one chain.
        let grid = Grid::<2>::new(3).unwrap();
        assert_eq!(down_set_optimum(grid).best, down_set_optimum(grid).best);
    }

    #[test]
    fn down_set_optimum_of_one_cell_is_zero() {
        let result = down_set_optimum(Grid::<2>::new(0).unwrap());
        assert!(result.d_avg_equals_ratio(0, 1));
        assert_eq!(result.evaluated, 2);
    }

    #[test]
    #[should_panic(expected = "n ≤ 64")]
    fn down_set_optimum_rejects_large_grids() {
        down_set_optimum(Grid::<2>::new(4).unwrap());
    }
}
