//! The locality-aware B+tree backing the memtable.
//!
//! A safe-Rust B+tree keyed by [`CurveIndex`], designed for the one
//! workload `std::collections::BTreeMap` cannot exploit: curve-local
//! writes, where consecutive upserts land on adjacent keys (the access
//! pattern the paper's space-filling-curve ordering produces by
//! construction). Two design points, following the sweep-bptree idiom
//! (SNIPPETS.md §1–2):
//!
//! * **Large leaves** ([`DEFAULT_LEAF_CAPACITY`] entries, configurable
//!   per tree). One leaf holds a whole curve neighborhood contiguously,
//!   so a local write burst touches one cache-resident key array instead
//!   of a pointer chase per operation.
//! * **A last-accessed-leaf hint.** Every seek records the leaf it
//!   landed in (a relaxed atomic, so shared readers can update it too).
//!   The next operation first checks whether its key falls inside the
//!   hinted leaf's key range — a bounds check plus one binary search —
//!   and only descends from the root on a miss. Curve-local streams hit
//!   the hint almost always, making ordered/local access near-O(1).
//!
//! Nodes live in index-addressed slabs (`Vec<Arc<Leaf>>` / `Vec<Inner>`,
//! each behind an `Arc` of its own), which keeps the whole structure in
//! safe Rust (the crate forbids `unsafe`): node references are `u32` ids,
//! not pointers, so there is no aliasing to argue about. Leaves are
//! doubly linked for ordered iteration in both directions; inner nodes
//! store the minimum key of each child subtree. Entries leave the tree
//! only wholesale: [`retain`](BPlusTreeMap::retain) (a linked-leaf walk
//! that compacts survivors in place, puts emptied leaves on a free list
//! for later inserts and rebuilds the inner levels bulk-load-style in a
//! fresh slab) and [`clear`](BPlusTreeMap::clear).
//!
//! **Copy-on-write snapshots.** Both slabs sit behind an [`Arc`], and so
//! does every leaf; each write reaches a leaf through one `leaf_mut(id)`
//! and an inner node through one `inners_mut()`, both [`Arc::make_mut`].
//! [`snapshot`](BPlusTreeMap::snapshot) therefore copies no entry and no
//! node: it bumps the two slab refcounts and is an independent tree from
//! then on. The copying is deferred to a writer that finds a snapshot
//! still alive: its first write copies the leaf-pointer slab (one
//! refcount bump per leaf — `O(leaves)`) and the one leaf it lands in (at
//! most `leaf_cap` entries), plus the few inner nodes if it has to touch
//! one. With no snapshot alive `make_mut` is a uniqueness check and
//! writes stay in place.
//!
//! Values must be `Clone` to be written: a snapshot shares the tree's
//! nodes with the copy it hands out, and a later write copies the one
//! leaf it lands in if a snapshot still holds it. Reads, iteration and
//! [`snapshot`](BPlusTreeMap::snapshot) itself need no bound.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use sfc_core::CurveIndex;

/// Entries per leaf unless overridden with
/// [`BPlusTreeMap::with_leaf_capacity`]. Large enough that a leaf spans a
/// whole curve neighborhood (64 entries ≈ 3 KiB of keys+values for the
/// store's tuple payloads), small enough that the `Vec::insert` shift on
/// a mid-leaf write stays a fraction of a cache-miss-laden root descent.
pub const DEFAULT_LEAF_CAPACITY: usize = 64;

/// Children per inner node before it splits.
const INNER_CAP: usize = 32;

/// Slab id sentinel for "no node".
const NIL: u32 = u32::MAX;

/// One leaf: parallel sorted key/value arrays plus sibling links.
#[derive(Debug)]
struct Leaf<V> {
    keys: Vec<CurveIndex>,
    vals: Vec<V>,
    prev: u32,
    next: u32,
}

impl<V> Leaf<V> {
    fn with_capacity(cap: usize) -> Self {
        Self {
            keys: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
            prev: NIL,
            next: NIL,
        }
    }
}

/// The copy a writer makes of a leaf it shares with a snapshot. Keeps the
/// full-capacity allocations (a derived clone would shrink them to the
/// current length): `heap_bytes` counts on them, and the copy is about to
/// be written to.
impl<V: Clone> Clone for Leaf<V> {
    fn clone(&self) -> Self {
        let mut copy = Self::with_capacity(self.keys.capacity());
        copy.keys.extend_from_slice(&self.keys);
        copy.vals.extend_from_slice(&self.vals);
        copy.prev = self.prev;
        copy.next = self.next;
        copy
    }
}

/// One inner node: `mins[i]` is the smallest key in subtree
/// `children[i]`; both arrays are parallel and sorted by `mins`.
#[derive(Debug, Default)]
struct Inner {
    mins: Vec<CurveIndex>,
    children: Vec<u32>,
}

impl Inner {
    fn with_capacity(cap: usize) -> Self {
        Self {
            mins: Vec::with_capacity(cap + 1),
            children: Vec::with_capacity(cap + 1),
        }
    }
}

/// Like [`Leaf`]'s, the copy keeps the full-capacity allocations.
impl Clone for Inner {
    fn clone(&self) -> Self {
        let mut copy = Self::with_capacity(INNER_CAP);
        copy.mins.extend_from_slice(&self.mins);
        copy.children.extend_from_slice(&self.children);
        copy
    }
}

/// The child of `mins` covering `key`: the last subtree whose minimum is
/// `<= key` (clamped to the first — keys below the tree minimum descend
/// leftmost).
fn child_index(mins: &[CurveIndex], key: CurveIndex) -> usize {
    mins.partition_point(|&m| m <= key).saturating_sub(1)
}

/// Deepest root-to-leaf path the slab can represent: height only grows
/// on a root split, which needs `INNER_CAP` children each at least a
/// half-full split product, so 32 levels would take well over `2^64`
/// entries.
const MAX_HEIGHT: usize = 32;

/// A root-to-leaf descent path of `(inner id, child index)` pairs,
/// stack-allocated so an insert that misses the hint never
/// heap-allocates per operation.
struct DescentPath {
    nodes: [(u32, usize); MAX_HEIGHT],
    len: usize,
}

impl DescentPath {
    fn new() -> Self {
        Self {
            nodes: [(NIL, 0); MAX_HEIGHT],
            len: 0,
        }
    }

    fn push(&mut self, id: u32, ci: usize) {
        self.nodes[self.len] = (id, ci);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(u32, usize)> {
        let i = self.len.checked_sub(1)?;
        self.len = i;
        Some(self.nodes[i])
    }

    fn as_slice(&self) -> &[(u32, usize)] {
        &self.nodes[..self.len]
    }
}

/// A locality-aware B+tree map from [`CurveIndex`] to `V` — see the
/// module docs for the design. All ordered iteration is ascending by key
/// unless stated otherwise.
#[derive(Debug)]
pub struct BPlusTreeMap<V> {
    /// Shared with snapshots slab-wise and leaf by leaf; written only via
    /// `leaves_mut` / `leaf_mut`.
    leaves: Arc<Vec<Arc<Leaf<V>>>>,
    /// Shared with snapshots; written only via `inners_mut`.
    inners: Arc<Vec<Inner>>,
    free_leaves: Vec<u32>,
    /// Root node id: a leaf id when `height == 0`, else an inner id.
    /// `NIL` for the empty tree.
    root: u32,
    /// Inner levels above the leaves (0 = the root is a leaf).
    height: usize,
    /// Leftmost leaf, head of the sibling chain.
    head: u32,
    len: usize,
    leaf_cap: usize,
    /// Last-accessed leaf, checked before any root descent. Relaxed
    /// atomic so `&self` readers can refresh it; `NIL` = no hint.
    hint: AtomicU32,
}

impl<V> Default for BPlusTreeMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Clone for BPlusTreeMap<V> {
    fn clone(&self) -> Self {
        self.snapshot()
    }
}

impl<V> BPlusTreeMap<V> {
    /// An empty tree with [`DEFAULT_LEAF_CAPACITY`]-entry leaves.
    pub fn new() -> Self {
        Self::with_leaf_capacity(DEFAULT_LEAF_CAPACITY)
    }

    /// An empty tree whose leaves hold up to `leaf_cap` entries
    /// (clamped to at least 4).
    pub fn with_leaf_capacity(leaf_cap: usize) -> Self {
        Self {
            leaves: Arc::default(),
            inners: Arc::default(),
            free_leaves: Vec::new(),
            root: NIL,
            height: 0,
            head: NIL,
            len: 0,
            leaf_cap: leaf_cap.max(4),
            hint: AtomicU32::new(NIL),
        }
    }

    /// Bulk-loads a tree from strictly-increasing `(key, value)` pairs —
    /// the fastest build path: leaves fill left to right with zero
    /// comparisons and the inner levels are assembled bottom-up in one
    /// pass per level.
    pub fn from_sorted(iter: impl IntoIterator<Item = (CurveIndex, V)>) -> Self {
        Self::from_sorted_with_capacity(DEFAULT_LEAF_CAPACITY, iter)
    }

    /// [`from_sorted`](Self::from_sorted) with an explicit leaf capacity.
    pub fn from_sorted_with_capacity(
        leaf_cap: usize,
        iter: impl IntoIterator<Item = (CurveIndex, V)>,
    ) -> Self {
        let mut tree = Self::with_leaf_capacity(leaf_cap);
        // Leaves are filled as plain values and only then put behind
        // their `Arc`; leaf `i` of the chain gets slab id `i`.
        let mut leaves: Vec<Arc<Leaf<V>>> = Vec::new();
        let mut level: Vec<(CurveIndex, u32)> = Vec::new();
        let mut cur: Option<Leaf<V>> = None;
        let mut last_key: Option<CurveIndex> = None;
        for (key, val) in iter {
            debug_assert!(
                last_key.is_none_or(|prev| prev < key),
                "from_sorted keys must be strictly increasing"
            );
            last_key = Some(key);
            if cur.as_ref().is_none_or(|l| l.keys.len() == tree.leaf_cap) {
                if let Some(mut full) = cur.take() {
                    full.next = leaves.len() as u32 + 1;
                    leaves.push(Arc::new(full));
                }
                let mut leaf = Leaf::with_capacity(tree.leaf_cap);
                leaf.prev = (leaves.len() as u32).checked_sub(1).unwrap_or(NIL);
                level.push((key, leaves.len() as u32));
                cur = Some(leaf);
            }
            let leaf = cur.as_mut().expect("opened above");
            leaf.keys.push(key);
            leaf.vals.push(val);
            tree.len += 1;
        }
        leaves.extend(cur.map(Arc::new));
        tree.leaves = Arc::new(leaves);
        tree.head = level.first().map_or(NIL, |&(_, id)| id);
        tree.rebuild_inners(level);
        tree
    }

    /// A point-in-time copy in `O(1)`: two refcount bumps, no entry and no
    /// node copied. The copy is a full tree of its own; later writes to
    /// either side leave the other untouched, paying for the copy they
    /// need then (see the module docs). The copy starts with an empty
    /// free list: the freed slots are unreachable from its root, and a
    /// write to it allocates fresh leaves, so only the live tree reuses
    /// them.
    pub fn snapshot(&self) -> Self {
        Self {
            leaves: Arc::clone(&self.leaves),
            inners: Arc::clone(&self.inners),
            free_leaves: Vec::new(),
            root: self.root,
            height: self.height,
            head: self.head,
            len: self.len,
            leaf_cap: self.leaf_cap,
            hint: AtomicU32::new(NIL),
        }
    }

    /// Number of entries (live keys, tombstone values included — the
    /// tree does not interpret `V`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of heap memory held by the node slabs. O(1): every live or
    /// free leaf keeps its fixed `leaf_cap`-entry allocation (the leaf
    /// slab recycles leaves instead of freeing buffers), so the figure is
    /// a per-node constant times the slab lengths.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let leaf_bytes =
            size_of::<Leaf<V>>() + self.leaf_cap * (size_of::<CurveIndex>() + size_of::<V>());
        let inner_bytes =
            size_of::<Inner>() + (INNER_CAP + 1) * (size_of::<CurveIndex>() + size_of::<u32>());
        self.leaves.len() * leaf_bytes
            + self.inners.len() * inner_bytes
            + self.free_leaves.capacity() * size_of::<u32>()
    }

    /// Removes every entry, keeping no allocations.
    pub fn clear(&mut self) {
        self.leaves = Arc::default();
        self.inners = Arc::default();
        self.free_leaves.clear();
        self.root = NIL;
        self.height = 0;
        self.head = NIL;
        self.len = 0;
        self.hint.store(NIL, Ordering::Relaxed);
    }

    fn alloc_leaf(&mut self) -> u32 {
        match self.free_leaves.pop() {
            Some(id) => id,
            None => {
                let leaf = Arc::new(Leaf::with_capacity(self.leaf_cap));
                self.leaves_mut().push(leaf);
                (self.leaves.len() - 1) as u32
            }
        }
    }

    /// Returns a leaf to the free list. The cleared key array is what
    /// keeps a stale hint honest: a freed leaf holds no key, so the hint
    /// check misses and the seek descends from the root.
    fn free_leaf(&mut self, id: u32) {
        let cap = self.leaf_cap;
        let slot = &mut self.leaves_mut()[id as usize];
        match Arc::get_mut(slot) {
            Some(leaf) => {
                leaf.keys.clear();
                leaf.vals.clear();
                leaf.prev = NIL;
                leaf.next = NIL;
            }
            // A snapshot still reads the old contents: leave them to it.
            None => *slot = Arc::new(Leaf::with_capacity(cap)),
        }
        self.free_leaves.push(id);
        if self.hint.load(Ordering::Relaxed) == id {
            self.hint.store(NIL, Ordering::Relaxed);
        }
    }

    fn alloc_inner(&mut self) -> u32 {
        self.inners_mut().push(Inner::with_capacity(INNER_CAP));
        (self.inners.len() - 1) as u32
    }

    /// The leaf-pointer slab for writing: in place while no snapshot
    /// shares it, else a private copy (pointers only — the leaves stay
    /// shared until written).
    fn leaves_mut(&mut self) -> &mut Vec<Arc<Leaf<V>>> {
        Arc::make_mut(&mut self.leaves)
    }

    /// The inner-node slab for writing, copied first if a snapshot shares
    /// it.
    fn inners_mut(&mut self) -> &mut Vec<Inner> {
        Arc::make_mut(&mut self.inners)
    }

    /// The one door every leaf write goes through: in place while no
    /// snapshot shares the leaf, on a private copy of it otherwise.
    fn leaf_mut(&mut self, id: u32) -> &mut Leaf<V>
    where
        V: Clone,
    {
        Arc::make_mut(&mut self.leaves_mut()[id as usize])
    }

    fn two_leaves(&mut self, a: u32, b: u32) -> (&mut Leaf<V>, &mut Leaf<V>)
    where
        V: Clone,
    {
        debug_assert_ne!(a, b);
        let (a, b) = (a as usize, b as usize);
        let leaves = self.leaves_mut();
        if a < b {
            let (lo, hi) = leaves.split_at_mut(b);
            (Arc::make_mut(&mut lo[a]), Arc::make_mut(&mut hi[0]))
        } else {
            let (lo, hi) = leaves.split_at_mut(a);
            (Arc::make_mut(&mut hi[0]), Arc::make_mut(&mut lo[b]))
        }
    }

    fn two_inners(&mut self, a: u32, b: u32) -> (&mut Inner, &mut Inner) {
        debug_assert_ne!(a, b);
        let (a, b) = (a as usize, b as usize);
        let inners = self.inners_mut();
        if a < b {
            let (lo, hi) = inners.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = inners.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }

    /// The hinted leaf, if `key` provably belongs to it: `key` is at or
    /// after the leaf's first key and before the next leaf's first key
    /// (or the leaf is rightmost). The containment test needs only the
    /// hinted leaf's bounds plus at most one sibling read — no descent.
    fn hint_leaf(&self, key: CurveIndex) -> Option<u32> {
        let h = self.hint.load(Ordering::Relaxed);
        let leaf = self.leaves.get(h as usize)?;
        let first = *leaf.keys.first()?;
        if key < first {
            return None;
        }
        if key <= *leaf.keys.last()? {
            return Some(h);
        }
        if leaf.next == NIL || self.leaves[leaf.next as usize].keys.first().copied()? > key {
            return Some(h);
        }
        None
    }

    /// The leaf whose key range covers `key` (hint first, root descent on
    /// a miss), refreshing the hint. `NIL` on an empty tree. For keys
    /// below the tree minimum this is the leftmost leaf; above the
    /// maximum, the rightmost.
    fn seek_leaf(&self, key: CurveIndex) -> u32 {
        if self.root == NIL {
            return NIL;
        }
        if let Some(h) = self.hint_leaf(key) {
            return h;
        }
        let mut node = self.root;
        for _ in 0..self.height {
            let inner = &self.inners[node as usize];
            node = inner.children[child_index(&inner.mins, key)];
        }
        self.hint.store(node, Ordering::Relaxed);
        node
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &CurveIndex) -> Option<&V> {
        let id = self.seek_leaf(*key);
        let leaf = self.leaves.get(id as usize)?;
        let i = leaf.keys.binary_search(key).ok()?;
        Some(&leaf.vals[i])
    }

    /// `true` iff `key` is present.
    pub fn contains_key(&self, key: &CurveIndex) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or replaces the value at `key`, returning the previous
    /// value if one existed. Curve-local streams resolve through the
    /// leaf hint without touching the root.
    pub fn insert(&mut self, key: CurveIndex, val: V) -> Option<V>
    where
        V: Clone,
    {
        if let Some(h) = self.hint_leaf(key) {
            let cap = self.leaf_cap;
            // Taken for writing up front: the key belongs to this leaf, so
            // even the descent below ends up writing to it.
            let leaf = self.leaf_mut(h);
            match leaf.keys.binary_search(&key) {
                Ok(i) => return Some(std::mem::replace(&mut leaf.vals[i], val)),
                // `i > 0` keeps the leaf minimum (and so every ancestor
                // min) unchanged; `i == 0` means key == first is absent,
                // which the hint precondition `key >= first` rules out
                // except for exact-first replacement handled above.
                Err(i) if i > 0 && leaf.keys.len() < cap => {
                    leaf.keys.insert(i, key);
                    leaf.vals.insert(i, val);
                    self.len += 1;
                    return None;
                }
                Err(_) => {}
            }
        }
        self.insert_descend(key, val)
    }

    /// Insert via root descent: records the path for min-key updates and
    /// split propagation.
    fn insert_descend(&mut self, key: CurveIndex, val: V) -> Option<V>
    where
        V: Clone,
    {
        if self.root == NIL {
            let id = self.alloc_leaf();
            let leaf = self.leaf_mut(id);
            leaf.keys.push(key);
            leaf.vals.push(val);
            self.root = id;
            self.head = id;
            self.height = 0;
            self.len = 1;
            self.hint.store(id, Ordering::Relaxed);
            return None;
        }
        let mut path = DescentPath::new();
        let mut node = self.root;
        for _ in 0..self.height {
            let inner = &self.inners[node as usize];
            let ci = child_index(&inner.mins, key);
            path.push(node, ci);
            node = inner.children[ci];
        }
        let leaf_id = node;
        let i = match self.leaves[leaf_id as usize].keys.binary_search(&key) {
            Ok(i) => {
                self.hint.store(leaf_id, Ordering::Relaxed);
                return Some(std::mem::replace(&mut self.leaf_mut(leaf_id).vals[i], val));
            }
            Err(i) => i,
        };
        self.len += 1;
        if self.leaves[leaf_id as usize].keys.len() < self.leaf_cap {
            let leaf = self.leaf_mut(leaf_id);
            leaf.keys.insert(i, key);
            leaf.vals.insert(i, val);
            if i == 0 {
                self.propagate_min(path.as_slice(), key);
            }
            self.hint.store(leaf_id, Ordering::Relaxed);
            return None;
        }
        // Split: upper half moves to a fresh right sibling, the new
        // entry lands on its side, and (right-min, right-id) bubbles up.
        let mid = self.leaf_cap / 2;
        let right_id = self.alloc_leaf();
        {
            let (left, right) = self.two_leaves(leaf_id, right_id);
            right.keys.extend(left.keys.drain(mid..));
            right.vals.extend(left.vals.drain(mid..));
            right.next = left.next;
            right.prev = leaf_id;
            left.next = right_id;
        }
        let after = self.leaves[right_id as usize].next;
        if after != NIL {
            self.leaf_mut(after).prev = right_id;
        }
        let right_first = self.leaves[right_id as usize].keys[0];
        let target = if key < right_first {
            let leaf = self.leaf_mut(leaf_id);
            leaf.keys.insert(i, key);
            leaf.vals.insert(i, val);
            if i == 0 {
                self.propagate_min(path.as_slice(), key);
            }
            leaf_id
        } else {
            let leaf = self.leaf_mut(right_id);
            leaf.keys.insert(i - mid, key);
            leaf.vals.insert(i - mid, val);
            right_id
        };
        self.hint.store(target, Ordering::Relaxed);
        let right_min = self.leaves[right_id as usize].keys[0];
        self.insert_into_parents(path, right_min, right_id);
        None
    }

    /// Rewrites the stored child minimum along `path` after the leaf's
    /// first key changed to `new_min`; stops at the first ancestor whose
    /// own minimum is unaffected.
    fn propagate_min(&mut self, path: &[(u32, usize)], new_min: CurveIndex) {
        for &(inner_id, ci) in path.iter().rev() {
            self.inners_mut()[inner_id as usize].mins[ci] = new_min;
            if ci != 0 {
                break;
            }
        }
    }

    /// Inserts a split-off child `(new_min, new_child)` into the parents
    /// along `path`, splitting inner nodes (and growing a new root) as
    /// needed.
    fn insert_into_parents(&mut self, mut path: DescentPath, min: CurveIndex, child: u32) {
        let mut new_min = min;
        let mut new_child = child;
        loop {
            let Some((inner_id, ci)) = path.pop() else {
                // The split reached the top: grow a new root over the
                // old one and the propagated sibling.
                let old_root = self.root;
                let old_min = if self.height == 0 {
                    self.leaves[old_root as usize].keys[0]
                } else {
                    self.inners[old_root as usize].mins[0]
                };
                let id = self.alloc_inner();
                let root = &mut self.inners_mut()[id as usize];
                root.mins.extend([old_min, new_min]);
                root.children.extend([old_root, new_child]);
                self.root = id;
                self.height += 1;
                return;
            };
            let inner = &mut self.inners_mut()[inner_id as usize];
            inner.mins.insert(ci + 1, new_min);
            inner.children.insert(ci + 1, new_child);
            if inner.children.len() <= INNER_CAP {
                return;
            }
            let mid = inner.children.len() / 2;
            let new_id = self.alloc_inner();
            let (left, right) = self.two_inners(inner_id, new_id);
            right.mins.extend(left.mins.drain(mid..));
            right.children.extend(left.children.drain(mid..));
            new_min = self.inners[new_id as usize].mins[0];
            new_child = new_id;
        }
    }

    /// Keeps only the entries `f` approves, in one ordered walk
    /// down the leaf chain: each leaf compacts its survivors in place
    /// (no per-entry tree surgery, no clone), emptied leaves are freed,
    /// and the inner levels are rebuilt bottom-up from the surviving
    /// leaves exactly like a bulk load. This is the memtable drain
    /// primitive: `O(n)` with one predicate call per entry.
    pub fn retain(&mut self, mut f: impl FnMut(CurveIndex, &V) -> bool)
    where
        V: Clone,
    {
        let mut level: Vec<(CurveIndex, u32)> = Vec::new();
        let mut emptied: Vec<u32> = Vec::new();
        let mut prev_kept: u32 = NIL;
        let mut kept = 0usize;
        let mut cur = self.head;
        while cur != NIL {
            let next = self.leaves[cur as usize].next;
            let leaf = self.leaf_mut(cur);
            let mut w = 0usize;
            for r in 0..leaf.keys.len() {
                if f(leaf.keys[r], &leaf.vals[r]) {
                    leaf.keys.swap(w, r);
                    leaf.vals.swap(w, r);
                    w += 1;
                }
            }
            leaf.keys.truncate(w);
            leaf.vals.truncate(w);
            if w == 0 {
                emptied.push(cur);
            } else {
                leaf.prev = prev_kept;
                leaf.next = NIL;
                if prev_kept != NIL {
                    self.leaf_mut(prev_kept).next = cur;
                }
                prev_kept = cur;
                level.push((self.leaves[cur as usize].keys[0], cur));
                kept += w;
            }
            cur = next;
        }
        for id in emptied {
            self.free_leaf(id);
        }
        // The survivors form a fresh bottom level; rebuild the inner
        // levels over them in a fresh slab, dropping the old ones wholesale.
        self.inners = Arc::default();
        self.len = kept;
        self.head = level.first().map_or(NIL, |&(_, id)| id);
        self.hint.store(NIL, Ordering::Relaxed);
        self.rebuild_inners(level);
    }

    /// Builds the inner levels over a bottom level of `(min, node-id)`
    /// pairs, [`INNER_CAP`] children at a time, and installs the root.
    fn rebuild_inners(&mut self, mut level: Vec<(CurveIndex, u32)>) {
        self.height = 0;
        let Some(&(_, first)) = level.first() else {
            self.root = NIL;
            return;
        };
        if level.len() == 1 {
            self.root = first;
            return;
        }
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(INNER_CAP));
            for chunk in level.chunks(INNER_CAP) {
                let id = self.alloc_inner();
                let inner = &mut self.inners_mut()[id as usize];
                inner.mins.extend(chunk.iter().map(|&(m, _)| m));
                inner.children.extend(chunk.iter().map(|&(_, c)| c));
                next.push((chunk[0].0, id));
            }
            level = next;
            self.height += 1;
        }
        self.root = level[0].1;
    }

    /// Ascending iteration over all entries.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            tree: self,
            leaf: self.head,
            slot: 0,
            hi: CurveIndex::MAX,
        }
    }

    /// Ascending iteration over the inclusive key span `[lo, hi]`.
    pub fn range_iter(&self, lo: CurveIndex, hi: CurveIndex) -> Iter<'_, V> {
        if lo > hi || self.root == NIL {
            return Iter {
                tree: self,
                leaf: NIL,
                slot: 0,
                hi,
            };
        }
        let leaf = self.seek_leaf(lo);
        let slot = self.leaves[leaf as usize].keys.partition_point(|&k| k < lo);
        Iter {
            tree: self,
            leaf,
            slot,
            hi,
        }
    }

    /// Ascending iteration from `key` (inclusive) to the end.
    pub fn iter_from(&self, key: CurveIndex) -> Iter<'_, V> {
        self.range_iter(key, CurveIndex::MAX)
    }

    /// Descending iteration over keys strictly below `key`.
    pub fn iter_rev_below(&self, key: CurveIndex) -> RevIter<'_, V> {
        if self.root == NIL {
            return RevIter {
                tree: self,
                leaf: NIL,
                slot: 0,
            };
        }
        let leaf = self.seek_leaf(key);
        let slot = self.leaves[leaf as usize]
            .keys
            .partition_point(|&k| k < key);
        RevIter {
            tree: self,
            leaf,
            slot,
        }
    }
}

/// Ascending borrowed iterator over a [`BPlusTreeMap`] — see
/// [`BPlusTreeMap::iter`] / [`range_iter`](BPlusTreeMap::range_iter).
/// Yields `(key, &value)` (keys are `Copy`).
#[derive(Debug)]
pub struct Iter<'a, V> {
    tree: &'a BPlusTreeMap<V>,
    leaf: u32,
    slot: usize,
    hi: CurveIndex,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (CurveIndex, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.tree.leaves.get(self.leaf as usize)?;
            if let Some(&key) = leaf.keys.get(self.slot) {
                if key > self.hi {
                    self.leaf = NIL;
                    return None;
                }
                let val = &leaf.vals[self.slot];
                self.slot += 1;
                return Some((key, val));
            }
            self.leaf = leaf.next;
            self.slot = 0;
        }
    }
}

/// Descending borrowed iterator — see
/// [`BPlusTreeMap::iter_rev_below`]. Yields `(key, &value)`.
#[derive(Debug)]
pub struct RevIter<'a, V> {
    tree: &'a BPlusTreeMap<V>,
    leaf: u32,
    /// One past the next slot to yield; 0 = step to the previous leaf.
    slot: usize,
}

impl<'a, V> Iterator for RevIter<'a, V> {
    type Item = (CurveIndex, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let leaf = self.tree.leaves.get(self.leaf as usize)?;
            if self.slot > 0 {
                self.slot -= 1;
                return Some((leaf.keys[self.slot], &leaf.vals[self.slot]));
            }
            self.leaf = leaf.prev;
            self.slot = self
                .tree
                .leaves
                .get(self.leaf as usize)
                .map_or(0, |l| l.keys.len());
        }
    }
}

/// Owned ascending iterator — the ordered drain path: leaves are
/// consumed in chain order, each one's columns moved out wholesale.
#[derive(Debug)]
pub struct IntoIter<V> {
    /// `None` once a leaf has been consumed.
    leaves: Vec<Option<Arc<Leaf<V>>>>,
    next_leaf: u32,
    keys: std::vec::IntoIter<CurveIndex>,
    vals: std::vec::IntoIter<V>,
}

impl<V: Clone> Iterator for IntoIter<V> {
    type Item = (CurveIndex, V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(key) = self.keys.next() {
                let val = self.vals.next().expect("parallel columns");
                return Some((key, val));
            }
            let id = self.next_leaf;
            if id == NIL {
                return None;
            }
            // Moved out when this tree is the leaf's only owner, copied
            // when a snapshot still reads it.
            let leaf = self.leaves[id as usize]
                .take()
                .expect("chain visits a leaf once");
            let leaf = Arc::try_unwrap(leaf).unwrap_or_else(|shared| (*shared).clone());
            self.next_leaf = leaf.next;
            self.keys = leaf.keys.into_iter();
            self.vals = leaf.vals.into_iter();
        }
    }
}

impl<V: Clone> IntoIterator for BPlusTreeMap<V> {
    type Item = (CurveIndex, V);
    type IntoIter = IntoIter<V>;

    fn into_iter(self) -> Self::IntoIter {
        let leaves = Arc::try_unwrap(self.leaves).unwrap_or_else(|shared| (*shared).clone());
        IntoIter {
            next_leaf: self.head,
            leaves: leaves.into_iter().map(Some).collect(),
            keys: Vec::new().into_iter(),
            vals: Vec::new().into_iter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn keys(tree: &BPlusTreeMap<u64>) -> Vec<CurveIndex> {
        tree.iter().map(|(k, _)| k).collect()
    }

    /// Drops one entry the only way the engine drops entries: a `retain`
    /// that spares every other key.
    fn delete(tree: &mut BPlusTreeMap<u64>, key: CurveIndex) -> Option<u64> {
        let was = tree.get(&key).copied();
        tree.retain(|k, _| k != key);
        was
    }

    /// Inner ids reachable from the root, level by level.
    fn reachable_inners(tree: &BPlusTreeMap<u64>) -> usize {
        let mut level = vec![tree.root];
        let mut count = 0;
        for _ in 0..tree.height {
            count += level.len();
            level = level
                .iter()
                .flat_map(|&id| tree.inners[id as usize].children.iter().copied())
                .collect();
        }
        count
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = BPlusTreeMap::with_leaf_capacity(4);
        assert!(t.is_empty());
        for k in [5u128, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            assert_eq!(t.insert(k, k as u64 * 10), None);
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.insert(5, 999), Some(50));
        assert_eq!(t.get(&5), Some(&999));
        assert_eq!(keys(&t), (0..10).collect::<Vec<_>>());
        assert_eq!(delete(&mut t, 5), Some(999));
        assert_eq!(delete(&mut t, 5), None);
        assert_eq!(t.get(&5), None);
        assert_eq!(t.len(), 9);
        for k in 0..10u128 {
            delete(&mut t, k);
        }
        assert!(t.is_empty());
        assert_eq!(keys(&t), Vec::<CurveIndex>::new());
        // Reuse after emptying.
        t.insert(42, 1);
        assert_eq!(t.get(&42), Some(&1));
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xB71);
        let mut tree = BPlusTreeMap::with_leaf_capacity(8);
        let mut model: BTreeMap<CurveIndex, u64> = BTreeMap::new();
        for step in 0..20_000u64 {
            let k = u128::from(rng.gen_range(0..512u32));
            match rng.gen_range(0..10u32) {
                0..=6 => {
                    assert_eq!(tree.insert(k, step), model.insert(k, step), "insert {k}");
                }
                7..=8 => {
                    assert_eq!(delete(&mut tree, k), model.remove(&k), "delete {k}");
                }
                _ => {
                    let hi = k + u128::from(rng.gen_range(0..64u32));
                    let got: Vec<_> = tree.range_iter(k, hi).map(|(k, &v)| (k, v)).collect();
                    let want: Vec<_> = model.range(k..=hi).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, want, "range {k}..={hi}");
                }
            }
            assert_eq!(tree.len(), model.len());
        }
        let got: Vec<_> = tree.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
        let got_rev: Vec<_> = tree.iter_rev_below(300).map(|(k, &v)| (k, v)).collect();
        let want_rev: Vec<_> = model
            .range(..300u128)
            .rev()
            .map(|(&k, &v)| (k, v))
            .collect();
        assert_eq!(got_rev, want_rev);
    }

    #[test]
    fn from_sorted_bulk_load_matches_inserts() {
        let entries: Vec<(CurveIndex, u64)> =
            (0..1000u128).step_by(3).map(|k| (k, k as u64)).collect();
        let bulk = BPlusTreeMap::from_sorted_with_capacity(16, entries.iter().copied());
        assert_eq!(bulk.len(), entries.len());
        let walked: Vec<_> = bulk.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(walked, entries);
        assert_eq!(bulk.get(&999), Some(&999));
        assert_eq!(bulk.get(&998), None);
        let drained: Vec<_> = bulk.into_iter().collect();
        assert_eq!(drained, entries);
    }

    #[test]
    fn retain_drains_a_seq_window() {
        let mut t = BPlusTreeMap::with_leaf_capacity(8);
        for k in 0..500u128 {
            t.insert(k, k as u64);
        }
        t.retain(|_, &v| v >= 250);
        assert_eq!(t.len(), 250);
        assert_eq!(keys(&t), (250..500).collect::<Vec<_>>());
        // The rebuilt tree keeps absorbing writes correctly.
        for k in 0..250u128 {
            t.insert(k, k as u64 + 1000);
        }
        assert_eq!(t.len(), 500);
        assert_eq!(keys(&t), (0..500).collect::<Vec<_>>());
        t.retain(|_, _| false);
        assert!(t.is_empty());
        assert_eq!(t.iter().next(), None);
    }

    /// Every drain rebuilds the inner levels from scratch, so after it
    /// the inner slab holds exactly the nodes the root reaches: alternating
    /// big and small fills cannot strand inners or grow the slab.
    #[test]
    fn drains_leave_no_orphan_inner() {
        let mut t = BPlusTreeMap::with_leaf_capacity(4);
        for round in 0..40u128 {
            let n = if round % 2 == 0 { 400 } else { 60 };
            for k in 0..n {
                t.insert(round * 1_000 + k, 0);
            }
            t.retain(|k, _| k % 1_000 < 8);
            assert_eq!(t.inners.len(), reachable_inners(&t), "round {round}");
        }
    }

    /// A snapshot copies no free list (the capture under the shard's
    /// lock stays two refcount bumps), a write to it still allocates
    /// correctly, and the live tree keeps recycling its emptied leaves.
    #[test]
    fn snapshots_share_no_free_list_and_the_live_tree_recycles() {
        let fill = |t: &mut BPlusTreeMap<u64>, round: u128| {
            for k in 0..4_096u128 {
                t.insert(round * 10_000 + k, k as u64);
            }
        };
        let mut t = BPlusTreeMap::new();
        fill(&mut t, 0);
        t.retain(|k, _| k < 8);
        assert!(!t.free_leaves.is_empty(), "the drain emptied leaves");
        let mut snap = t.snapshot();
        assert!(snap.free_leaves.is_empty());

        let mut model: BTreeMap<CurveIndex, u64> = snap.iter().map(|(k, &v)| (k, v)).collect();
        for k in (0..3_000u128).step_by(7) {
            assert_eq!(snap.insert(k, 1), model.insert(k, 1), "insert {k}");
        }
        let got: Vec<_> = snap.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
        assert_eq!(
            keys(&t),
            (0..8).collect::<Vec<_>>(),
            "the live tree is untouched"
        );

        // Every round fills the same shape over the same 8 survivors, so
        // from the first round on the free list covers the fill.
        let slabs: Vec<usize> = (1..=20u128)
            .map(|round| {
                let _capture = t.snapshot();
                fill(&mut t, round);
                t.retain(|k, _| k < 8);
                t.leaves.len()
            })
            .collect();
        assert!(
            slabs.iter().all(|&n| n == slabs[0]),
            "leaf slab per round: {slabs:?}"
        );
    }

    #[test]
    fn hint_accelerated_local_stream_stays_correct() {
        let mut t = BPlusTreeMap::with_leaf_capacity(32);
        // A curve-local walk: keys wander up and down in a small window.
        let mut key = 1_000u128;
        let mut model = BTreeMap::new();
        for i in 0..10_000u64 {
            key = if i % 7 < 4 {
                key + 3
            } else {
                key.saturating_sub(2)
            };
            t.insert(key, i);
            model.insert(key, i);
        }
        assert_eq!(t.len(), model.len());
        let got: Vec<_> = t.iter().map(|(k, &v)| (k, v)).collect();
        let want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn heap_bytes_tracks_leaf_count() {
        let mut t = BPlusTreeMap::<u64>::with_leaf_capacity(16);
        let empty = t.heap_bytes();
        for k in 0..1_000u128 {
            t.insert(k, 0);
        }
        let full = t.heap_bytes();
        assert!(full > empty);
        // Draining keeps slab allocations (recycled), clear() drops them.
        t.retain(|_, _| false);
        assert!(t.heap_bytes() >= full / 2);
        t.clear();
        // Only the (tiny, retained) free-list buffers remain.
        assert!(t.heap_bytes() < full / 100);
    }
}
