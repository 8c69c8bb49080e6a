//! Work pins: counts of what an operation does, pinned with `assert_eq!`.
//! Work is deterministic for a fixed input where a time is not, so a pin
//! moves only when the code does.
//!
//! Heap allocations are counted by a `#[global_allocator]` local to this
//! test binary that delegates to the system allocator and bumps two
//! **thread-local** counters, allocations and requested bytes (a
//! `realloc` requests its whole new size): a pin counts only the
//! allocations made on its calling thread. Other test threads, and any
//! thread the code under test hands work to, are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sfc_core::{CurveIndex, Grid, SpaceFillingCurve, ZCurve};
use sfc_partition::TrafficHistogram;
use sfc_store::ShardedSfcStore;

/// The system allocator, counting allocations and their requested bytes
/// on the calling thread.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: the slots are gone while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call delegates unchanged to `System`; the counter is a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// Heap bytes `f` requests on the calling thread.
fn allocated_bytes(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
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
        allocs, 1_615,
        "allocations for 20 000 distinct-key routed inserts"
    );
}

type MergeStore = ShardedSfcStore<2, u64, ZCurve<2>>;

/// A 1-shard in-memory store over a 256 × 256 grid whose run stack is
/// `[4096, 256]` (oldest first): the newer run updates 192 cells of the
/// older one and tombstones 64 more. The memtable never fills on its own.
fn two_run_store() -> (MergeStore, Vec<CurveIndex>) {
    let curve = ZCurve::over(Grid::<2>::new(8).unwrap());
    let store = ShardedSfcStore::with_memtable_capacity(curve, 1, 1 << 16);
    let keys: Vec<CurveIndex> = distinct_keys(8192, curve.grid().n()).collect();
    for (i, &key) in keys[..4096].iter().enumerate() {
        store.insert(curve.point_of(key), i as u64);
    }
    store.flush();
    for &key in &keys[..192] {
        store.insert(curve.point_of(key), 1);
    }
    for &key in &keys[192..256] {
        store.delete(curve.point_of(key));
    }
    store.flush();
    assert_eq!(store.shard_run_lens(), [[4096, 256]]);
    (store, keys)
}

/// Inserts `new` cells no run holds and tombstones 50 cells only the
/// oldest run holds, live: `new + 50` memtable entries.
fn write_third_level(store: &MergeStore, keys: &[CurveIndex], new: usize) {
    let curve = *store.curve();
    for &key in &keys[4096..4096 + new] {
        store.insert(curve.point_of(key), 2);
    }
    for &key in &keys[256..306] {
        store.delete(curve.point_of(key));
    }
}

/// A major compaction of a fixed `[4096, 256, 100]` stack reads its
/// inputs where the published epoch holds them: what it allocates is the
/// merged run (its columns, blocks and payloads) and the merge's level
/// cursors, with no copy of any input run.
#[test]
fn compaction_allocates_a_pinned_byte_count() {
    let (store, keys) = two_run_store();
    write_third_level(&store, &keys, 50);
    store.flush();
    assert_eq!(store.shard_run_lens(), [[4096, 256, 100]]);
    let bytes = allocated_bytes(|| store.compact());
    assert_eq!(store.shard_run_lens(), [[4096 - 64 - 50 + 50]]);
    assert_eq!(
        bytes, 354_105,
        "bytes requested by one compact() of [4096, 256, 100]"
    );
}

/// A flush of 200 entries onto `[4096, 256]` tier-merges the new run with
/// the 256-run (256 < 2 × 200): the pin covers the memtable's copy into
/// run columns, the new run, the merged run and the drain.
#[test]
fn tier_merging_flush_allocates_a_pinned_byte_count() {
    let (store, keys) = two_run_store();
    write_third_level(&store, &keys, 150);
    let bytes = allocated_bytes(|| store.flush());
    assert_eq!(store.shard_run_lens(), [[4096, 456]]);
    assert_eq!(bytes, 61_532, "bytes requested by one tier-merging flush");
}
