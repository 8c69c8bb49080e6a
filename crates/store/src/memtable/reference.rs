//! `BTreeMap` reference backing for the memtable, kept behind the
//! `memtable-btreemap` feature as the differential baseline: building
//! the workspace with `--features sfc-store/memtable-btreemap` runs the
//! entire engine — every store/sharded/snapshot differential suite —
//! against the old map, so any behavioral divergence introduced by the
//! B+tree shows up as a cross-feature test failure rather than a silent
//! semantics change.

use std::collections::BTreeMap;

use sfc_core::CurveIndex;

/// The `BTreeMap`-backed memtable, mirroring the inherent API of
/// [`BPlusTreeMap`](super::bptree::BPlusTreeMap) that the engine layers
/// compile against.
#[derive(Debug, Clone)]
pub struct BTreeBacking<V> {
    map: BTreeMap<CurveIndex, V>,
}

impl<V> Default for BTreeBacking<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BTreeBacking<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            map: BTreeMap::new(),
        }
    }

    /// Leaf capacity is meaningless for `BTreeMap`; accepted and ignored
    /// so callers stay backing-agnostic.
    pub fn with_leaf_capacity(_leaf_cap: usize) -> Self {
        Self::new()
    }

    /// Builds from ascending `(key, value)` pairs.
    pub fn from_sorted(iter: impl IntoIterator<Item = (CurveIndex, V)>) -> Self {
        Self {
            map: iter.into_iter().collect(),
        }
    }

    /// A point-in-time copy — a full clone here; the B+tree shares its
    /// leaves instead.
    pub fn snapshot(&self) -> Self
    where
        V: Clone,
    {
        self.clone()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &CurveIndex) -> Option<&V> {
        self.map.get(key)
    }

    /// `true` iff `key` is present.
    pub fn contains_key(&self, key: &CurveIndex) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts or replaces, returning the previous value.
    pub fn insert(&mut self, key: CurveIndex, val: V) -> Option<V> {
        self.map.insert(key, val)
    }

    /// Removes the entry at `key`, returning its value.
    pub fn remove(&mut self, key: &CurveIndex) -> Option<V> {
        self.map.remove(key)
    }

    /// Keeps only entries `f` approves.
    pub fn retain(&mut self, mut f: impl FnMut(CurveIndex, &V) -> bool) {
        self.map.retain(|&k, v| f(k, v));
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The coarse per-entry estimate the store used before the B+tree
    /// (node overhead is invisible through `BTreeMap`'s API).
    pub fn heap_bytes(&self) -> usize {
        self.map.len() * std::mem::size_of::<(CurveIndex, V)>()
    }

    /// Ascending iteration over all entries as `(key, &value)`.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            inner: self.map.range(..),
        }
    }

    /// Ascending iteration over the inclusive span `[lo, hi]`.
    pub fn range_iter(&self, lo: CurveIndex, hi: CurveIndex) -> Iter<'_, V> {
        if lo > hi {
            // An empty iterator with the same type; `lo..=hi` would panic.
            use std::ops::Bound;
            return Iter {
                inner: self
                    .map
                    .range((Bound::Excluded(CurveIndex::MAX), Bound::Unbounded)),
            };
        }
        Iter {
            inner: self.map.range(lo..=hi),
        }
    }

    /// Ascending iteration from `key` (inclusive) to the end.
    pub fn iter_from(&self, key: CurveIndex) -> Iter<'_, V> {
        Iter {
            inner: self.map.range(key..),
        }
    }

    /// Descending iteration over keys strictly below `key`.
    pub fn iter_rev_below(&self, key: CurveIndex) -> RevIter<'_, V> {
        RevIter {
            inner: self.map.range(..key),
        }
    }
}

/// Ascending borrowed iterator over a [`BTreeBacking`].
#[derive(Debug)]
pub struct Iter<'a, V> {
    inner: std::collections::btree_map::Range<'a, CurveIndex, V>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (CurveIndex, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(&k, v)| (k, v))
    }
}

/// Descending borrowed iterator over a [`BTreeBacking`].
#[derive(Debug)]
pub struct RevIter<'a, V> {
    inner: std::collections::btree_map::Range<'a, CurveIndex, V>,
}

impl<'a, V> Iterator for RevIter<'a, V> {
    type Item = (CurveIndex, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next_back().map(|(&k, v)| (k, v))
    }
}

/// Owned ascending iterator over a [`BTreeBacking`].
#[derive(Debug)]
pub struct IntoIter<V> {
    inner: std::collections::btree_map::IntoIter<CurveIndex, V>,
}

impl<V> Iterator for IntoIter<V> {
    type Item = (CurveIndex, V);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

impl<V> IntoIterator for BTreeBacking<V> {
    type Item = (CurveIndex, V);
    type IntoIter = IntoIter<V>;

    fn into_iter(self) -> Self::IntoIter {
        IntoIter {
            inner: self.map.into_iter(),
        }
    }
}
