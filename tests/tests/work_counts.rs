//! Work pins: counts of what an operation does, pinned with `assert_eq!`.
//! Work is deterministic for a fixed input where a time is not, so a pin
//! moves only when the code does.
//!
//! Heap allocations are counted by a `#[global_allocator]` local to this
//! test binary that delegates to the system allocator and bumps a
//! **thread-local** counter: a pin counts only the allocations made on
//! its calling thread. Other test threads, and any thread the code under
//! test hands work to, are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sfc_core::{Grid, SpaceFillingCurve, ZCurve};
use sfc_partition::TrafficHistogram;
use sfc_store::ShardedSfcStore;

/// The system allocator, counting allocations on the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call delegates unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// `count` distinct keys of `0..n` (`n` a power of two): an odd stride
/// is a bijection modulo `n`.
fn distinct_keys(count: u128, n: u128) -> impl Iterator<Item = u128> {
    (0..count).map(move |i| i.wrapping_mul(0x9e37_79b9) % n)
}

/// Counting a write in the traffic histogram allocates nothing, however
/// many distinct keys are written.
#[test]
fn traffic_histogram_records_without_allocating() {
    let n = 1u128 << 22;
    let traffic = TrafficHistogram::new(n);
    let allocs = allocations(|| {
        for key in distinct_keys(100_000, n) {
            traffic.record(key);
        }
    });
    assert_eq!(allocs, 0, "allocations for 100 000 distinct-key records");
    assert_eq!(traffic.weights().total(), 100_000.0);
}

/// Routed inserts of distinct keys into an in-memory 4-shard store: the
/// memtable's node slabs, inline flushes and their runs, and nothing per
/// write for traffic.
#[test]
fn routed_inserts_allocate_a_pinned_count() {
    let curve = ZCurve::over(Grid::<2>::new(11).unwrap());
    let store = ShardedSfcStore::new(curve, 4);
    let points: Vec<_> = distinct_keys(20_000, curve.grid().n())
        .map(|key| curve.point_of(key))
        .collect();
    let allocs = allocations(|| {
        for (i, &p) in points.iter().enumerate() {
            store.insert(p, i as u32);
        }
    });
    assert_eq!(store.len(), 20_000);
    assert_eq!(
        allocs, 1_659,
        "allocations for 20 000 distinct-key routed inserts"
    );
}
