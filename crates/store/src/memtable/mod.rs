//! The memtable: one ordered `CurveIndex → V` map that every engine
//! layer (store, epoch/shard, snapshot, views) compiles against —
//! [`SfcMemtable`] is the locality-aware [`bptree::BPlusTreeMap`] (large
//! leaves, last-accessed-leaf hint, bulk load, `retain` drains,
//! copy-on-write snapshots; see the [`bptree`] module docs).

pub mod bptree;

pub use bptree::{BPlusTreeMap as SfcMemtable, IntoIter, Iter, RevIter};
