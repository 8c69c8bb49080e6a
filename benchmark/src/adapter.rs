//! The only file of the benchmark that names the library crates.
//!
//! One small function per call the harness times, so a change to the
//! public API (ROADMAP: `query(&Query)`, `Durability::{Sync, Async}`) is a
//! one-file follow-up here, and so the harness provably uses public items
//! only: a unit test fails if any other source file mentions `sfc_`.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rand::SeedableRng;
use sfc_core::{CurveIndex, SpaceFillingCurve};
use sfc_index::{BlockStore, DecodedBlock, SfcIndex};
use sfc_metrics::{all_pairs, bounds, nn_stretch, sampling};
use sfc_obs::MetricsRegistry;
use sfc_partition::partition_min_bottleneck_sparse;
pub use sfc_partition::Partition;
use sfc_store::memtable::SfcMemtable;
use sfc_store::{
    EngineMetrics, MaintenanceConfig, ShardedSfcStore, ShardedSnapshot, StoreEntry, WalConfig,
};

pub use sfc_core::SpaceFillingCurve as Curve;
pub use sfc_core::{BoxedCurve, CurveKind, HilbertCurve, Point, ZCurve};
pub use sfc_index::{BoxRegion, QueryStats};
pub use sfc_metrics::all_pairs::AllPairsStretch;
pub use sfc_metrics::sampling::Estimate;
pub use sfc_metrics::NnStretchSummary;

/// The input generators' random source (the workspace's seedable stand-in).
pub type Rng = rand::rngs::SmallRng;
pub use rand::Rng as RngExt;

/// A generator whose stream depends only on `seed`.
pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}

// ---- fixed store configuration (the load shape in README.md) ------------

/// Shards of every store the benchmark opens.
pub const SHARDS: usize = 4;
/// Memtable capacity per shard.
pub const MEMTABLE_CAPACITY: usize = 4096;
/// Group-commit bound: the flush policy is the same on every commit measured.
const FSYNC_EVERY: usize = 512;
/// Bytes of user data in one inserted record: two `u32` coordinates and the
/// `u64` payload.
pub const USER_BYTES_PER_RECORD: u64 = 16;
/// Bytes of user data in one delete: the two coordinates.
pub const USER_BYTES_PER_DELETE: u64 = 8;

pub type P2 = Point<2>;
pub type Key = CurveIndex;
pub type Op = sfc_store::BatchOp<2, u64>;
pub type Entry = StoreEntry<2, u64>;
pub type Store<C> = ShardedSfcStore<2, u64, C>;
pub type Snapshot<C> = ShardedSnapshot<2, u64, C>;
pub type Index<C> = SfcIndex<2, u64, C>;
pub type Memtable = SfcMemtable<u64>;

/// What a curve must be for a store to be built over it.
pub trait StoreCurve: SpaceFillingCurve<2> + Clone + Send + Sync + 'static {}
impl<C: SpaceFillingCurve<2> + Clone + Send + Sync + 'static> StoreCurve for C {}

pub fn z_curve(k: u32) -> ZCurve<2> {
    ZCurve::new(k).expect("grid fits")
}

pub fn hilbert_curve(k: u32) -> HilbertCurve<2> {
    HilbertCurve::new(k).expect("grid fits")
}

// ---- core ----------------------------------------------------------------

pub fn curve_of_kind<const D: usize>(kind: CurveKind, k: u32) -> BoxedCurve<D> {
    kind.build::<D>(k).expect("grid fits")
}

pub fn key_of<C: SpaceFillingCurve<2>>(curve: &C, p: P2) -> Key {
    curve.index_of(p)
}

pub fn encode_batch<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    points: &[Point<D>],
    out: &mut Vec<Key>,
) {
    curve.index_of_batch(points, out);
}

pub fn decode_batch<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    keys: &[Key],
    out: &mut Vec<Point<D>>,
) {
    curve.point_of_batch(keys, out);
}

/// Every cell of the curve's grid, in row-major order.
pub fn grid_cells<const D: usize>(curve: &BoxedCurve<D>) -> Vec<Point<D>> {
    curve.grid().cells().collect()
}

// ---- metrics -------------------------------------------------------------

pub fn nn_summarize<const D: usize>(curve: &BoxedCurve<D>) -> NnStretchSummary {
    nn_stretch::summarize(curve)
}

pub fn nn_summarize_par<const D: usize>(curve: &BoxedCurve<D>) -> NnStretchSummary {
    nn_stretch::summarize_par(curve)
}

pub fn all_pairs_exact(curve: &BoxedCurve<2>) -> AllPairsStretch {
    all_pairs::all_pairs_exact(curve)
}

pub fn estimate_all_pairs(curve: &BoxedCurve<2>, samples: u64, seed: u64) -> Estimate {
    sampling::estimate_all_pairs_manhattan(curve, samples, &mut rng(seed))
}

pub fn thm1_lower_bound(k: u32, d: usize) -> f64 {
    bounds::thm1_nn_stretch_lower_bound(k, d)
}

pub fn lemma2_sa_prime(n: u128) -> u128 {
    bounds::lemma2_sa_prime(n)
}

// ---- store: construction ---------------------------------------------------

fn wal_config(dir: &Path) -> WalConfig {
    WalConfig::new(dir).fsync_every(FSYNC_EVERY)
}

/// Opens (or reopens, which is recovery) the durable store under `dir`.
pub fn open_durable<C: StoreCurve>(curve: &C, dir: &Path) -> Result<Store<C>, String> {
    Store::open_durable(curve.clone(), SHARDS, MEMTABLE_CAPACITY, wal_config(dir))
        .map_err(|e| e.to_string())
}

pub fn open_in_memory<C: StoreCurve>(curve: &C) -> Store<C> {
    Store::with_memtable_capacity(curve.clone(), SHARDS, MEMTABLE_CAPACITY)
}

pub fn bulk_load<C: StoreCurve>(curve: &C, records: &[(P2, u64)]) -> Store<C> {
    Store::bulk_load(curve.clone(), SHARDS, records.iter().copied())
}

/// Attaches a fresh `EngineMetrics` to the very store being driven and
/// returns the registry it reports into.
pub fn attach_metrics<C: StoreCurve>(store: &mut Store<C>) -> Arc<MetricsRegistry> {
    let registry = Arc::new(MetricsRegistry::new());
    let metrics = EngineMetrics::for_shards(Arc::clone(&registry), SHARDS);
    // Time every write and get, not one in 64: the traced run wants the
    // per-shard histograms complete.
    metrics.set_timing_sampling(1);
    store.attach_metrics(metrics);
    registry
}

pub fn start_maintenance<C: StoreCurve>(store: &Arc<Store<C>>) {
    store.start_maintenance(MaintenanceConfig::default());
}

pub fn stop_maintenance<C: StoreCurve>(store: &Store<C>) {
    store.stop_maintenance();
}

// ---- store: the timed calls -------------------------------------------------

pub fn write_batch<C: StoreCurve>(store: &Store<C>, ops: &[Op]) -> Result<(), String> {
    store.try_apply_batch(ops).map_err(|e| e.to_string())
}

pub fn write_batch_nosync<C: StoreCurve>(store: &Store<C>, ops: &[Op]) {
    store.apply_batch_nosync(ops);
}

/// The batch path of a store without a log.
pub fn write_batch_in_memory<C: StoreCurve>(store: &Store<C>, ops: &[Op]) {
    store.apply_batch(ops);
}

pub fn write_one<C: StoreCurve>(store: &Store<C>, p: P2, v: u64) -> Result<(), String> {
    store.try_insert(p, v).map(drop).map_err(|e| e.to_string())
}

pub fn delete_one<C: StoreCurve>(store: &Store<C>, p: P2) -> Result<(), String> {
    store.try_delete(p).map(drop).map_err(|e| e.to_string())
}

pub fn write_one_nosync<C: StoreCurve>(store: &Store<C>, p: P2, v: u64) {
    store.insert_nosync(p, v);
}

pub fn delete_one_nosync<C: StoreCurve>(store: &Store<C>, p: P2) {
    store.delete_nosync(p);
}

pub fn box_query<C: StoreCurve>(store: &Store<C>, b: &BoxRegion<2>) -> (Vec<Entry>, QueryStats) {
    store.query_box(b)
}

pub fn knn<C: StoreCurve>(
    store: &Store<C>,
    q: P2,
    k: usize,
    window: usize,
) -> (Vec<Entry>, QueryStats) {
    store.knn(q, k, window)
}

pub fn get<C: StoreCurve>(store: &Store<C>, p: P2) -> Option<u64> {
    store.get(p)
}

pub fn flush<C: StoreCurve>(store: &Store<C>) -> Result<(), String> {
    store.try_flush().map_err(|e| e.to_string())
}

pub fn sync<C: StoreCurve>(store: &Store<C>) -> Result<(), String> {
    store.sync().map_err(|e| e.to_string())
}

/// A power cut: unacknowledged writes are abandoned.
pub fn crash<C: StoreCurve>(store: Store<C>) {
    store.simulate_crash();
}

pub fn rebalance<C: StoreCurve>(store: &Store<C>, rel_tol: f64) -> bool {
    store.rebalance(rel_tol)
}

pub fn snapshot<C: StoreCurve>(store: &Store<C>) -> Snapshot<C> {
    store.snapshot()
}

/// Number of hits of a box query against a snapshot.
pub fn snapshot_box<C: StoreCurve>(snap: &Snapshot<C>, b: &BoxRegion<2>) -> usize {
    snap.query_box(b).0.len()
}

// ---- store: inspection ------------------------------------------------------

pub fn iter<C: StoreCurve>(store: &Store<C>) -> impl Iterator<Item = Entry> {
    store.iter()
}

pub fn len<C: StoreCurve>(store: &Store<C>) -> usize {
    store.len()
}

pub fn shard_lens<C: StoreCurve>(store: &Store<C>) -> Vec<usize> {
    store.shard_lens()
}

/// Depth of the deepest shard's run stack.
pub fn runs_max<C: StoreCurve>(store: &Store<C>) -> usize {
    store
        .shard_run_lens()
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
}

pub fn memtable_lens<C: StoreCurve>(store: &Store<C>) -> Vec<usize> {
    store.shard_memtable_lens()
}

pub fn partition_of<C: StoreCurve>(store: &Store<C>) -> Partition {
    store.partition()
}

/// The per-cell write weights the store observed, in curve order.
pub fn traffic_entries<C: StoreCurve>(store: &Store<C>) -> Vec<(Key, f64)> {
    store.traffic().entries().collect()
}

/// What the reopen that produced this store replayed.
pub struct Recovery {
    pub replayed_records: usize,
    pub wal_bytes: u64,
    pub elapsed: Duration,
}

pub fn recovery<C: StoreCurve>(store: &Store<C>) -> Option<Recovery> {
    store.recovery_stats().map(|s| Recovery {
        replayed_records: s.replayed_records,
        wal_bytes: s.wal_bytes,
        elapsed: s.elapsed,
    })
}

// ---- partition ----------------------------------------------------------------

pub fn route(partition: &Partition, key: Key) -> usize {
    partition.part_of(key)
}

pub fn min_bottleneck(entries: &[(Key, f64)], n: u128) -> Partition {
    partition_min_bottleneck_sparse(entries, n, SHARDS, 0.05)
}

pub fn grid_cells_count(k: u32, d: usize) -> u128 {
    bounds::n_cells(k, d)
}

// ---- index ----------------------------------------------------------------------

pub fn index_build<C: StoreCurve>(curve: &C, records: &[(P2, u64)]) -> Index<C> {
    SfcIndex::build(curve.clone(), records.iter().copied())
}

/// Runs every block of the index through the unpack kernels; returns the
/// block count and a checksum that keeps the decode alive.
pub fn index_decode_all<C: StoreCurve>(index: &Index<C>) -> (usize, u64) {
    let blocks: &BlockStore<2> = index.blocks();
    let mut out = DecodedBlock::default();
    let mut sum = 0u64;
    for b in 0..blocks.blocks() {
        blocks.decode_into(b, &mut out);
        sum = sum.wrapping_add(out.keys[0] as u64 ^ u64::from(out.coords[0][0]));
    }
    (blocks.blocks(), sum)
}

/// A full scan of the index in key order; returns the payload sum.
pub fn index_scan<C: StoreCurve>(index: &Index<C>) -> u64 {
    index
        .entries()
        .fold(0u64, |acc, e| acc.wrapping_add(*e.payload ^ e.key as u64))
}

pub fn index_len<C: StoreCurve>(index: &Index<C>) -> usize {
    index.len()
}

pub fn index_heap_bytes<C: StoreCurve>(index: &Index<C>) -> usize {
    index.heap_bytes()
}

/// Exact interval decomposition of a box; returns the interval count.
pub fn decompose<C: StoreCurve>(curve: &C, b: &BoxRegion<2>) -> usize {
    b.curve_intervals(curve).len()
}

// ---- memtable -----------------------------------------------------------------------

pub fn mem_new() -> Memtable {
    Memtable::new()
}

pub fn mem_insert(mem: &mut Memtable, key: Key, v: u64) {
    mem.insert(key, v);
}

pub fn mem_get(mem: &Memtable, key: Key) -> Option<u64> {
    mem.get(&key).copied()
}

pub fn mem_len(mem: &Memtable) -> usize {
    mem.len()
}

pub fn mem_heap_bytes(mem: &Memtable) -> usize {
    mem.heap_bytes()
}

/// What a query capture does to a memtable: walk the key span and
/// bulk-load the copy. Returns the entries copied.
pub fn mem_range_clone(mem: &Memtable, lo: Key, hi: Key) -> usize {
    Memtable::from_sorted(mem.range_iter(lo, hi).map(|(k, v)| (k, *v))).len()
}

// ---- obs ------------------------------------------------------------------------------

/// `n` increments of one counter; returns the final count.
pub fn counter_inc_loop(n: u64) -> u64 {
    let c = sfc_obs::Counter::new();
    for _ in 0..n {
        c.inc();
    }
    c.value()
}

/// `n` records into one histogram; returns the recorded count.
pub fn histogram_record_loop(n: u64) -> u64 {
    let h = sfc_obs::Histogram::new();
    for i in 0..n {
        h.record(100 + (i & 1023));
    }
    h.snapshot().count()
}

/// A reading of the registry attached by [`attach_metrics`].
pub struct Registry(sfc_obs::RegistrySnapshot);

/// Count and selected quantiles of one registry histogram.
#[derive(Default, Clone, Copy)]
pub struct Hist {
    pub count: u64,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
    pub mean: f64,
}

impl Registry {
    pub fn read(registry: &MetricsRegistry) -> Self {
        Registry(registry.snapshot())
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.0.counter(name).unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Hist {
        self.0.histogram(name).map_or_else(Hist::default, |h| Hist {
            count: h.count(),
            p50: h.p50(),
            p99: h.p99(),
            max: h.max(),
            mean: h.mean(),
        })
    }

    /// The readings of `shard<j>.<metric>` for every shard.
    pub fn shard_hists(&self, metric: &str) -> Vec<Hist> {
        (0..SHARDS)
            .map(|j| self.hist(&format!("shard{j}.{metric}")))
            .collect()
    }

    pub fn shard_counter_sum(&self, metric: &str) -> u64 {
        (0..SHARDS)
            .map(|j| self.counter(&format!("shard{j}.{metric}")))
            .sum()
    }
}
