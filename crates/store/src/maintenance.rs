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
//! [`MaintenanceConfig::compact_at_runs`]. Writers don't flush at all
//! while maintenance runs, so the longest a writer can stall behind a
//! major merge is one memtable insert plus its own group-commit ack —
//! the property `tests/concurrency.rs` asserts.
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

/// Configuration of the background maintenance thread.
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// Poll interval between maintenance ticks.
    pub interval: Duration,
    /// A shard is compacted once its published run stack reaches this
    /// many runs (the tiered-compaction trigger).
    pub compact_at_runs: usize,
}

impl Default for MaintenanceConfig {
    /// 2 ms ticks, compaction at 8 runs.
    fn default() -> Self {
        Self {
            interval: Duration::from_millis(2),
            compact_at_runs: 8,
        }
    }
}

/// Stop signal shared with the maintenance thread: `true` = stop, plus
/// the condvar the tick sleep parks on, so a stop request interrupts it
/// immediately.
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
