//! The memtable abstraction: one opaque, ordered `CurveIndex → V` map
//! that every engine layer (store, epoch/shard, snapshot, views)
//! compiles against.
//!
//! [`SfcMemtable`] wraps one of two backings selected at compile time:
//!
//! * default — the locality-aware [`bptree::BPlusTreeMap`] (large
//!   leaves, last-accessed-leaf hint, owned cursors, bulk load; see the
//!   [`bptree`] module docs for the design);
//! * `memtable-btreemap` feature — the original
//!   [`reference::BTreeBacking`] over `std::collections::BTreeMap`,
//!   kept as the differential baseline so the full engine test suite
//!   can be replayed against the old map with
//!   `cargo test --features sfc-store/memtable-btreemap`.
//!
//! The wrapper is deliberately opaque: no engine layer can name the
//! concrete map type (the abstraction leak this module replaces — the
//! old `Memtable` alias in `view.rs` exposed `BTreeMap` crate-wide), so
//! the backing can change without touching the seq protocol, the
//! capture path, or the query engines.
//!
//! Values must be `Clone` to be written: [`snapshot`](SfcMemtable::snapshot)
//! shares the B+tree's nodes with the copy it hands out, and a later
//! write copies the one leaf it lands in if a snapshot still holds it.

pub mod bptree;
pub mod reference;

use sfc_core::CurveIndex;

#[cfg(not(feature = "memtable-btreemap"))]
use bptree::{
    BPlusTreeMap as Backing, IntoIter as BackingIntoIter, Iter as BackingIter,
    RevIter as BackingRevIter,
};
#[cfg(feature = "memtable-btreemap")]
use reference::{
    BTreeBacking as Backing, IntoIter as BackingIntoIter, Iter as BackingIter,
    RevIter as BackingRevIter,
};

/// The engine's memtable: an ordered map from curve index to `V`, with
/// ordered/range/reverse iteration, an `O(n)` predicate drain
/// ([`retain`](Self::retain)), sorted bulk load, owned cursors,
/// copy-on-write [`snapshot`](Self::snapshot)s, and `O(1)` heap
/// accounting. See the module docs for backing selection.
#[derive(Debug, Clone)]
pub struct SfcMemtable<V> {
    inner: Backing<V>,
}

impl<V> Default for SfcMemtable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SfcMemtable<V> {
    /// An empty memtable with the default leaf capacity.
    pub fn new() -> Self {
        Self {
            inner: Backing::new(),
        }
    }

    /// An empty memtable with `leaf_cap`-entry leaves (ignored by the
    /// `BTreeMap` reference backing).
    pub fn with_leaf_capacity(leaf_cap: usize) -> Self {
        Self {
            inner: Backing::with_leaf_capacity(leaf_cap),
        }
    }

    /// Bulk-loads from strictly-increasing `(key, value)` pairs — the
    /// fastest build path.
    pub fn from_sorted(iter: impl IntoIterator<Item = (CurveIndex, V)>) -> Self {
        Self {
            inner: Backing::from_sorted(iter),
        }
    }

    /// Number of entries (tombstone values count — the memtable does not
    /// interpret `V`).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` iff the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &CurveIndex) -> Option<&V> {
        self.inner.get(key)
    }

    /// `true` iff `key` is present.
    pub fn contains_key(&self, key: &CurveIndex) -> bool {
        self.inner.contains_key(key)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Bytes of heap memory held by the memtable structure, in `O(1)`.
    /// Exact node-slab accounting on the B+tree backing; a per-entry
    /// estimate on the reference backing.
    pub fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }

    /// Ascending iteration over all entries as `(key, &value)`.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter(self.inner.iter())
    }

    /// Ascending iteration over the inclusive key span `[lo, hi]`
    /// (empty when `lo > hi`).
    pub fn range_iter(&self, lo: CurveIndex, hi: CurveIndex) -> Iter<'_, V> {
        Iter(self.inner.range_iter(lo, hi))
    }

    /// Ascending iteration from `key` (inclusive) to the end.
    pub fn iter_from(&self, key: CurveIndex) -> Iter<'_, V> {
        Iter(self.inner.iter_from(key))
    }

    /// Descending iteration over keys strictly below `key`.
    pub fn iter_rev_below(&self, key: CurveIndex) -> RevIter<'_, V> {
        RevIter(self.inner.iter_rev_below(key))
    }

    /// An owned cursor at the smallest key, or `None` on an empty
    /// memtable.
    pub fn cursor_first(&self) -> Option<Cursor> {
        #[cfg(not(feature = "memtable-btreemap"))]
        {
            self.inner.cursor_first().map(Cursor)
        }
        #[cfg(feature = "memtable-btreemap")]
        {
            self.inner.iter().next().map(|(k, _)| Cursor(k))
        }
    }

    /// An owned cursor at the first entry with key `>= key`, or `None`
    /// if no such entry exists.
    pub fn cursor_seek(&self, key: CurveIndex) -> Option<Cursor> {
        #[cfg(not(feature = "memtable-btreemap"))]
        {
            self.inner.cursor_seek(key).map(Cursor)
        }
        #[cfg(feature = "memtable-btreemap")]
        {
            self.inner.iter_from(key).next().map(|(k, _)| Cursor(k))
        }
    }
}

/// Writes and copies (see the module docs for the `Clone` bound).
impl<V: Clone> SfcMemtable<V> {
    /// A point-in-time copy that later writes to either side never
    /// disturb. `O(1)` on the B+tree backing — two refcount bumps, the
    /// copying left to whichever side writes first while the other is
    /// alive (see [`bptree`]); a full clone on the reference backing.
    /// This is what a query captures under the shard lock.
    pub fn snapshot(&self) -> Self {
        Self {
            inner: self.inner.snapshot(),
        }
    }

    /// Inserts or replaces the value at `key`, returning the previous
    /// value if one existed.
    pub fn insert(&mut self, key: CurveIndex, val: V) -> Option<V> {
        self.inner.insert(key, val)
    }

    /// Removes the entry at `key`, returning its value.
    pub fn remove(&mut self, key: &CurveIndex) -> Option<V> {
        self.inner.remove(key)
    }

    /// Keeps only the entries `f` approves — one ordered walk with a
    /// predicate call per entry. This is the flush drain primitive: the
    /// epoch layer drains exactly `seq < high_water` with it.
    pub fn retain(&mut self, f: impl FnMut(CurveIndex, &V) -> bool) {
        self.inner.retain(f);
    }
}

impl<V: Clone> IntoIterator for SfcMemtable<V> {
    type Item = (CurveIndex, V);
    type IntoIter = IntoIter<V>;

    fn into_iter(self) -> Self::IntoIter {
        IntoIter(self.inner.into_iter())
    }
}

/// Ascending borrowed iterator over an [`SfcMemtable`], yielding
/// `(key, &value)`.
#[derive(Debug)]
pub struct Iter<'a, V>(BackingIter<'a, V>);

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (CurveIndex, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
}

/// Descending borrowed iterator over an [`SfcMemtable`], yielding
/// `(key, &value)`.
#[derive(Debug)]
pub struct RevIter<'a, V>(BackingRevIter<'a, V>);

impl<'a, V> Iterator for RevIter<'a, V> {
    type Item = (CurveIndex, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
}

/// Owned ascending iterator over an [`SfcMemtable`] — the ordered flush
/// drain path.
#[derive(Debug)]
pub struct IntoIter<V>(BackingIntoIter<V>);

impl<V: Clone> Iterator for IntoIter<V> {
    type Item = (CurveIndex, V);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next()
    }
}

/// An owned position in an [`SfcMemtable`], valid across mutation: it
/// borrows nothing and revalidates on every access. After the entry it
/// points at is removed, [`value`](Self::value) returns `None` while
/// [`next`](Self::next)/[`prev`](Self::prev) continue the ordered walk
/// from the remembered key. On the B+tree backing revalidation is
/// `O(1)` when the entry has not moved; the reference backing re-seeks
/// by key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cursor(
    #[cfg(not(feature = "memtable-btreemap"))] bptree::Cursor,
    #[cfg(feature = "memtable-btreemap")] CurveIndex,
);

impl Cursor {
    /// The key this cursor was positioned at.
    pub fn key(&self) -> CurveIndex {
        #[cfg(not(feature = "memtable-btreemap"))]
        {
            self.0.key()
        }
        #[cfg(feature = "memtable-btreemap")]
        {
            self.0
        }
    }

    /// The value currently stored at the cursor's key, or `None` if the
    /// key has been removed since.
    pub fn value<'a, V>(&self, mem: &'a SfcMemtable<V>) -> Option<&'a V> {
        #[cfg(not(feature = "memtable-btreemap"))]
        {
            self.0.value(&mem.inner)
        }
        #[cfg(feature = "memtable-btreemap")]
        {
            mem.inner.get(&self.0)
        }
    }

    /// A cursor at the smallest key strictly greater than this one, or
    /// `None` at the end — whether or not the current key still exists.
    pub fn next<V>(&self, mem: &SfcMemtable<V>) -> Option<Cursor> {
        #[cfg(not(feature = "memtable-btreemap"))]
        {
            self.0.next(&mem.inner).map(Cursor)
        }
        #[cfg(feature = "memtable-btreemap")]
        {
            mem.cursor_seek(self.0.checked_add(1)?)
        }
    }

    /// A cursor at the largest key strictly smaller than this one, or
    /// `None` at the start — whether or not the current key still
    /// exists.
    pub fn prev<V>(&self, mem: &SfcMemtable<V>) -> Option<Cursor> {
        #[cfg(not(feature = "memtable-btreemap"))]
        {
            self.0.prev(&mem.inner).map(Cursor)
        }
        #[cfg(feature = "memtable-btreemap")]
        {
            mem.inner
                .iter_rev_below(self.0)
                .next()
                .map(|(k, _)| Cursor(k))
        }
    }
}
