//! Host crate for the workspace integration tests (see `tests/tests/`).
//!
//! The library itself only provides shared helpers for the integration
//! tests.

use rand::SeedableRng;

/// A deterministic test RNG.
pub fn test_rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// References that share no code with the engine under test.
pub mod oracle {
    use sfc_core::{CurveIndex, Point};

    /// The `k` nearest of `entries` — `(key, point, payload)` triples, e.g.
    /// a store's or a snapshot's `iter()` — to `q`, by linear scan: ranked
    /// by Euclidean distance, ties broken by curve key (the order every
    /// kNN path must report).
    pub fn knn_linear<const D: usize, T>(
        entries: impl IntoIterator<Item = (CurveIndex, Point<D>, T)>,
        q: Point<D>,
        k: usize,
    ) -> Vec<(CurveIndex, Point<D>, T)> {
        let mut all: Vec<_> = entries.into_iter().collect();
        all.sort_by_key(|&(key, point, _)| (q.euclidean_sq(&point), key));
        all.truncate(k);
        all
    }
}
