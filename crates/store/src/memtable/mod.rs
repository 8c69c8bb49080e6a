//! The memtable: one ordered `CurveIndex → V` map that every engine
//! layer (store, epoch/shard, snapshot, views) compiles against —
//! [`SfcMemtable`] is the locality-aware [`bptree::BPlusTreeMap`] (large
//! leaves, last-accessed-leaf hint, owned cursors, bulk load,
//! copy-on-write snapshots; see the [`bptree`] module docs).

pub mod bptree;

pub use bptree::{BPlusTreeMap as SfcMemtable, Cursor, IntoIter, Iter, RevIter};
