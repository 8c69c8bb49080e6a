//! The Morton-keyed tree over a sorted body array (Warren–Salmon style).
//!
//! Because bodies are sorted by Morton key, every tree node's bodies form a
//! **contiguous range** of the array — the in-memory equivalent of
//! Warren & Salmon's hashed oct-tree keys. Construction is a recursive
//! split of the sorted range on successive `d`-bit key digits; no hashing
//! or per-body pointers are needed.

use crate::body::{body_key, sort_by_curve, Body};
use sfc_core::{CurveIndex, ZCurve};
use std::ops::Range;

/// A node of the tree: a `2^{-level}`-sided cube owning a contiguous body
/// range.
#[derive(Debug, Clone)]
pub struct Node<const D: usize> {
    /// Geometric center of the node's cube in `[0,1)^d`.
    pub center: [f64; D],
    /// Half the side length of the node's cube.
    pub half_size: f64,
    /// Center of mass of the bodies in the node.
    pub com: [f64; D],
    /// Total mass.
    pub mass: f64,
    /// The bodies owned, as a range into the sorted array.
    pub bodies: Range<usize>,
    /// Child node ids (empty for leaves).
    pub children: Vec<usize>,
    /// Tree depth of this node (root = 0).
    pub level: u32,
}

impl<const D: usize> Node<D> {
    /// Side length of the node's cube.
    pub fn size(&self) -> f64 {
        2.0 * self.half_size
    }

    /// `true` for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The Barnes–Hut tree: sorted bodies plus the node arena.
#[derive(Debug, Clone)]
pub struct Tree<const D: usize> {
    bodies: Vec<Body<D>>,
    nodes: Vec<Node<D>>,
    leaf_cap: usize,
    max_level: u32,
}

impl<const D: usize> Tree<D> {
    /// Builds the tree: sorts `bodies` by Morton key at resolution `2^k`,
    /// then splits ranges until each leaf holds at most `leaf_cap` bodies
    /// or the key resolution is exhausted.
    pub fn build(mut bodies: Vec<Body<D>>, k: u32, leaf_cap: usize) -> Self {
        assert!(leaf_cap >= 1, "leaf capacity must be at least 1");
        let z = ZCurve::<D>::new(k).expect("valid resolution");
        sort_by_curve(&z, &mut bodies);
        let keys: Vec<CurveIndex> = bodies.iter().map(|b| body_key(&z, b)).collect();
        let mut tree = Self {
            bodies,
            nodes: Vec::new(),
            leaf_cap,
            max_level: k,
        };
        if !keys.is_empty() {
            tree.split(&keys, 0..keys.len(), 0, [0.5; D], 0.5, k);
        }
        tree
    }

    /// Recursively creates the node for `range` at `level`; returns its id.
    fn split(
        &mut self,
        keys: &[CurveIndex],
        range: Range<usize>,
        level: u32,
        center: [f64; D],
        half_size: f64,
        k: u32,
    ) -> usize {
        let id = self.nodes.len();
        let (com, mass) = self.center_of_mass(&range);
        self.nodes.push(Node {
            center,
            half_size,
            com,
            mass,
            bodies: range.clone(),
            children: Vec::new(),
            level,
        });

        if range.len() > self.leaf_cap && level < k {
            // Split by the d-bit digit at this level. The digit of key `key`
            // is bits [shift, shift + d), where shift counts from the top.
            let shift = (k - level - 1) as usize * D;
            let digit = |key: CurveIndex| -> u32 { ((key >> shift) & ((1 << D) - 1)) as u32 };
            let mut children = Vec::new();
            let mut start = range.start;
            while start < range.end {
                let dg = digit(keys[start]);
                let mut end = start + 1;
                while end < range.end && digit(keys[end]) == dg {
                    end += 1;
                }
                // Child cube geometry: bit (D−1−axis) of the digit selects
                // the upper half along `axis` (the paper's interleave order).
                let mut child_center = center;
                let quarter = half_size * 0.5;
                for (axis, cc) in child_center.iter_mut().enumerate() {
                    if dg >> (D - 1 - axis) & 1 == 1 {
                        *cc += quarter;
                    } else {
                        *cc -= quarter;
                    }
                }
                let child = self.split(keys, start..end, level + 1, child_center, quarter, k);
                children.push(child);
                start = end;
            }
            self.nodes[id].children = children;
        }
        id
    }

    fn center_of_mass(&self, range: &Range<usize>) -> ([f64; D], f64) {
        let mut com = [0.0; D];
        let mut mass = 0.0;
        for b in &self.bodies[range.clone()] {
            mass += b.mass;
            for (c, p) in com.iter_mut().zip(b.pos.iter()) {
                *c += b.mass * p;
            }
        }
        if mass > 0.0 {
            for c in com.iter_mut() {
                *c /= mass;
            }
        }
        (com, mass)
    }

    /// The sorted body array.
    pub fn bodies(&self) -> &[Body<D>] {
        &self.bodies
    }

    /// All nodes; index 0 is the root (when non-empty).
    pub fn nodes(&self) -> &[Node<D>] {
        &self.nodes
    }

    /// The root node, if any bodies exist.
    pub fn root(&self) -> Option<&Node<D>> {
        self.nodes.first()
    }

    /// Maximum key resolution (tree depth bound).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Leaf capacity used at construction.
    pub fn leaf_cap(&self) -> usize {
        self.leaf_cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{sample_bodies, Distribution};
    use rand::SeedableRng;

    fn rng() -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(23)
    }

    fn build_test_tree() -> Tree<2> {
        let bodies: Vec<Body<2>> = sample_bodies(Distribution::Uniform, 500, &mut rng());
        Tree::build(bodies, 8, 8)
    }

    #[test]
    fn root_owns_everything_with_total_mass() {
        let tree = build_test_tree();
        let root = tree.root().unwrap();
        assert_eq!(root.bodies, 0..500);
        assert!((root.mass - 500.0).abs() < 1e-9);
        assert_eq!(root.level, 0);
        assert_eq!(root.size(), 1.0);
    }

    #[test]
    fn children_partition_parent_ranges() {
        let tree = build_test_tree();
        for node in tree.nodes() {
            if node.is_leaf() {
                assert!(
                    node.bodies.len() <= tree.leaf_cap() || node.level == tree.max_level(),
                    "leaf too big: {:?} at level {}",
                    node.bodies,
                    node.level
                );
                continue;
            }
            // Children cover the parent range contiguously, in order.
            let mut cursor = node.bodies.start;
            for &c in &node.children {
                let child = &tree.nodes()[c];
                assert_eq!(child.bodies.start, cursor);
                assert_eq!(child.level, node.level + 1);
                cursor = child.bodies.end;
            }
            assert_eq!(cursor, node.bodies.end);
            // Mass is conserved across the split.
            let child_mass: f64 = node.children.iter().map(|&c| tree.nodes()[c].mass).sum();
            assert!((child_mass - node.mass).abs() < 1e-9);
        }
    }

    #[test]
    fn bodies_lie_inside_their_nodes() {
        let tree = build_test_tree();
        for node in tree.nodes() {
            for b in &tree.bodies()[node.bodies.clone()] {
                for a in 0..2 {
                    let lo = node.center[a] - node.half_size - 1e-9;
                    let hi = node.center[a] + node.half_size + 1e-9;
                    assert!(
                        (lo..=hi).contains(&b.pos[a]),
                        "body {:?} outside node at {:?} ± {}",
                        b.pos,
                        node.center,
                        node.half_size
                    );
                }
            }
        }
    }

    #[test]
    fn com_lies_inside_node_cube() {
        let tree = build_test_tree();
        for node in tree.nodes() {
            for a in 0..2 {
                assert!(node.com[a] >= node.center[a] - node.half_size - 1e-9);
                assert!(node.com[a] <= node.center[a] + node.half_size + 1e-9);
            }
        }
    }

    #[test]
    fn empty_and_single_body_trees() {
        let empty: Tree<2> = Tree::build(vec![], 4, 4);
        assert!(empty.root().is_none());
        let one = Tree::build(vec![Body::<2>::at_rest([0.25, 0.75], 2.0)], 4, 4);
        let root = one.root().unwrap();
        assert!(root.is_leaf());
        assert_eq!(root.mass, 2.0);
        assert_eq!(root.com, [0.25, 0.75]);
    }

    #[test]
    fn identical_positions_do_not_recurse_forever() {
        // 20 bodies in the same cell: depth is capped at k even though the
        // leaf cap is exceeded.
        let bodies: Vec<Body<2>> = (0..20)
            .map(|_| Body::at_rest([0.123, 0.456], 1.0))
            .collect();
        let tree = Tree::build(bodies, 5, 2);
        let max_level = tree.nodes().iter().map(|n| n.level).max().unwrap();
        assert!(max_level <= 5);
        // The deepest node holds all 20 bodies as an (oversized) leaf.
        let deepest = tree.nodes().iter().find(|n| n.level == max_level).unwrap();
        assert!(deepest.is_leaf());
        assert_eq!(deepest.bodies.len(), 20);
    }

    #[test]
    fn three_dimensional_tree_builds() {
        let bodies: Vec<Body<3>> = sample_bodies(Distribution::Uniform, 300, &mut rng());
        let tree = Tree::build(bodies, 6, 4);
        assert_eq!(tree.root().unwrap().bodies, 0..300);
        // Every non-leaf has between 1 and 2^3 = 8 children in 3-D (a
        // single child happens when all bodies share the next key digit).
        for node in tree.nodes() {
            if !node.is_leaf() {
                assert!(!node.children.is_empty() && node.children.len() <= 8);
            }
        }
    }
}
