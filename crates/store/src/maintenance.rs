//! Background maintenance for the sharded engine: a per-store thread
//! that owns size-triggered flushes and tiered-compaction scheduling, so
//! writer threads never pay for either.
//!
//! Without maintenance, the writer that happens to tip a memtable over
//! capacity performs the flush inline — correct, but that writer eats a
//! latency spike proportional to the memtable, and a flush that cascades
//! into a merge stalls it further. [`start_maintenance`] moves both off
//! the write path: it clears each shard's inline-flush flag (writers
//! then *never* flush) and a dedicated thread polls every
//! [`MaintenanceConfig::interval`], flushing shards at capacity and
//! compacting shards whose run stack has grown past
//! [`MaintenanceConfig::compact_at_runs`].
//!
//! # Rate limiting
//!
//! Maintenance I/O competes with the log's group fsyncs for the same
//! device. An optional token-bucket [`RateLimit`] throttles the
//! maintenance thread — each flush/compaction first acquires tokens for
//! its estimated byte cost, sleeping in [`RateLimit::quantum`] slices
//! until the bucket refills. Writers never wait on the bucket (they
//! don't flush at all while maintenance runs), so the longest a writer
//! can stall behind a major merge is one memtable insert plus its own
//! group-commit ack — the property `tests/concurrency.rs` asserts.
//!
//! The thread holds a [`Weak`] reference to the store and stops on its
//! own when the store is dropped; [`ShardedSfcStore::stop_maintenance`]
//! (also called by `Drop`) stops it promptly and restores inline
//! flushing.
//!
//! [`start_maintenance`]: crate::ShardedSfcStore::start_maintenance
//! [`ShardedSfcStore::stop_maintenance`]: crate::ShardedSfcStore::stop_maintenance

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token-bucket throttle for maintenance I/O, in bytes per second.
#[derive(Debug, Clone)]
pub struct RateLimit {
    /// Sustained maintenance throughput.
    pub bytes_per_sec: u64,
    /// Bucket capacity: how large a burst may proceed unthrottled. Also
    /// caps the charge of a single operation, so one oversized merge
    /// cannot park the thread for longer than `burst / rate`.
    pub burst_bytes: u64,
    /// Sleep slice while waiting for tokens. The stop signal is checked
    /// every quantum, which bounds shutdown latency; it is also the
    /// worst-case scheduling delay the limiter can add beyond the token
    /// wait itself.
    pub quantum: Duration,
}

impl Default for RateLimit {
    /// 64 MiB/s sustained, 8 MiB bursts, 1 ms quantum.
    fn default() -> Self {
        Self {
            bytes_per_sec: 64 << 20,
            burst_bytes: 8 << 20,
            quantum: Duration::from_millis(1),
        }
    }
}

/// Configuration of the background maintenance thread.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// Poll interval between maintenance ticks.
    pub interval: Duration,
    /// A shard is compacted once its published run stack reaches this
    /// many runs (the tiered-compaction trigger).
    pub compact_at_runs: usize,
    /// Optional token-bucket throttle on maintenance I/O; `None` runs
    /// flushes and compactions at full speed.
    pub rate_limit: Option<RateLimit>,
}

impl Default for MaintenanceConfig {
    /// 2 ms ticks, compaction at 8 runs, no rate limit.
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(2),
            compact_at_runs: 8,
            rate_limit: None,
        }
    }
}

/// Stop signal shared with the maintenance thread: `true` = stop, plus
/// the condvar both the tick sleep and the token-bucket waits park on,
/// so a stop request interrupts either immediately.
pub(crate) type StopSignal = Arc<(Mutex<bool>, Condvar)>;

/// Handle to a running maintenance thread, stored inside the store.
pub(crate) struct MaintenanceHandle {
    pub(crate) stop: StopSignal,
    pub(crate) handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MaintenanceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceHandle")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

/// The token bucket itself, owned by the maintenance thread.
pub(crate) struct TokenBucket {
    limit: RateLimit,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    pub(crate) fn new(limit: RateLimit) -> Self {
        Self {
            tokens: limit.burst_bytes as f64,
            last: Instant::now(),
            limit,
        }
    }

    /// Blocks until `bytes` tokens are available (capped at the burst
    /// size) or the stop flag is raised, sleeping in quantum slices on
    /// the stop condvar. Returns the time spent waiting.
    pub(crate) fn acquire(&mut self, bytes: u64, stop: &StopSignal) -> Duration {
        let need = bytes.min(self.limit.burst_bytes).max(1) as f64;
        let start = Instant::now();
        loop {
            let now = Instant::now();
            let refill =
                now.duration_since(self.last).as_secs_f64() * self.limit.bytes_per_sec as f64;
            self.tokens = (self.tokens + refill).min(self.limit.burst_bytes as f64);
            self.last = now;
            if self.tokens >= need {
                self.tokens -= need;
                return start.elapsed();
            }
            let (lock, cv) = &**stop;
            let stopped = lock.lock().expect("maintenance stop signal poisoned");
            if *stopped {
                return start.elapsed();
            }
            let quantum = self.limit.quantum.max(Duration::from_micros(100));
            let _ = cv
                .wait_timeout(stopped, quantum)
                .expect("maintenance stop signal poisoned");
        }
    }
}

/// Sleeps for `interval` on the stop condvar; returns `true` if the
/// thread should exit.
pub(crate) fn wait_tick(stop: &StopSignal, interval: Duration) -> bool {
    let (lock, cv) = &**stop;
    let mut stopped = lock.lock().expect("maintenance stop signal poisoned");
    if *stopped {
        return true;
    }
    let deadline = Instant::now() + interval;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return *stopped;
        }
        let (g, _) = cv
            .wait_timeout(stopped, deadline - now)
            .expect("maintenance stop signal poisoned");
        stopped = g;
        if *stopped {
            return true;
        }
    }
}
