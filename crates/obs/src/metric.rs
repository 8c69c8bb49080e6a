//! Counters and the sampling decimator.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of independent stripes per [`Counter`]. A power of two so the
/// per-thread stripe pick is a mask, not a division.
const STRIPES: usize = 16;

/// One cache line per stripe: adjacent stripes never share a line, so
/// writers on different cores don't invalidate each other.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// Stable per-thread stripe index: threads are numbered in creation
/// order and hash onto stripes with a mask, so callers need not thread
/// an index through.
fn stripe_of_thread() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
    }
    STRIPE.with(|s| *s)
}

/// A monotone event counter striped across padded atomics.
///
/// `inc`/`add` are wait-free (one relaxed `fetch_add` on the calling
/// thread's stripe); `value` sums the stripes and is exact for every
/// update that happened-before the read.
#[derive(Clone, Debug)]
pub struct Counter {
    stripes: Arc<[PaddedU64; STRIPES]>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter {
            stripes: Arc::new(std::array::from_fn(|_| PaddedU64::default())),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_of_thread()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all stripes.
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A wait-free 1-in-N decimator for timings too cheap to clock on every
/// call: `tick()` is one relaxed `fetch_add`, and only every `every`-th
/// call answers `true`. `every == 0` disables sampling entirely;
/// `every == 1` samples everything.
#[derive(Debug)]
pub struct Sampler {
    every: AtomicU64,
    ticks: AtomicU64,
}

impl Sampler {
    /// A sampler that passes one call in `every`.
    pub fn new(every: u64) -> Self {
        Sampler {
            every: AtomicU64::new(every),
            ticks: AtomicU64::new(0),
        }
    }

    /// Changes the sampling period (0 disables, 1 samples everything).
    pub fn set_every(&self, every: u64) {
        self.every.store(every, Ordering::Relaxed);
    }

    /// Current sampling period.
    pub fn every(&self) -> u64 {
        self.every.load(Ordering::Relaxed)
    }

    /// Advances the decimator; `true` on the sampled calls.
    #[inline]
    pub fn tick(&self) -> bool {
        let every = self.every.load(Ordering::Relaxed);
        every != 0
            && self
                .ticks
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(every)
    }

    /// Starts a clock only on sampled calls — the hot-path timing idiom:
    /// `let t = sampler.sampled_start(); ...; if let Some(t) = t { hist.record(elapsed) }`.
    #[inline]
    pub fn sampled_start(&self) -> Option<Instant> {
        if self.tick() {
            Some(Instant::now())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 40_000);
    }

    #[test]
    fn sampler_period() {
        let s = Sampler::new(4);
        let hits = (0..16).filter(|_| s.tick()).count();
        assert_eq!(hits, 4);
        s.set_every(0);
        assert!(!(0..16).any(|_| s.tick()));
        s.set_every(1);
        assert_eq!((0..5).filter(|_| s.tick()).count(), 5);
    }
}
