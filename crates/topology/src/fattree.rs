//! Fat-tree topology (metric only).
//!
//! The paper contrasts torus machines with "networks such as Fat-Trees
//! \[or\] hypercubes, with number of wires growing as P log P", where
//! contention is not a significant factor (§1). The mapping algorithms can
//! still target a fat-tree — they only require a distance metric — so this
//! type implements [`Topology`] but not `RoutedTopology` (messages between
//! leaves pass through switch stages, not through other processors, so a
//! processor-level `next_hop` does not exist).

use crate::{NodeId, Topology};

/// A `k`-ary fat-tree of `levels` switch stages, with processors at the
/// leaves: `k^levels` processors total.
///
/// The distance between two leaves is `2 · h`, where `h` is the height of
/// their lowest common ancestor — the message goes up `h` stages and down
/// `h` stages. Leaves under the same edge switch are at distance 2; the
/// diameter is `2 · levels`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTree {
    arity: usize,
    levels: u32,
    leaves: usize,
}

impl FatTree {
    /// A fat-tree with `arity^levels` processors. Panics if that overflows
    /// or if `arity < 2` / `levels == 0`.
    pub fn new(arity: usize, levels: u32) -> Self {
        assert!(arity >= 2, "fat-tree arity must be at least 2");
        assert!(levels >= 1, "fat-tree needs at least one switch stage");
        let leaves = arity
            .checked_pow(levels)
            .expect("fat-tree size overflows usize");
        FatTree {
            arity,
            levels,
            leaves,
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    pub(crate) fn levels(&self) -> u32 {
        self.levels
    }

    /// Height of the lowest common ancestor of two leaves (0 if equal).
    fn lca_height(&self, a: NodeId, b: NodeId) -> u32 {
        let mut h = 0u32;
        let (mut a, mut b) = (a, b);
        while a != b {
            a /= self.arity;
            b /= self.arity;
            h += 1;
        }
        h
    }
}

impl Topology for FatTree {
    fn num_nodes(&self) -> usize {
        self.leaves
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        debug_assert!(a < self.leaves && b < self.leaves);
        2 * self.lca_height(a, b)
    }

    fn name(&self) -> String {
        format!("FatTree({}-ary, {} levels)", self.arity, self.levels)
    }

    fn diameter(&self) -> u32 {
        2 * self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_tree_distances() {
        let t = FatTree::new(2, 3); // 8 leaves
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.distance(0, 1), 2); // same edge switch
        assert_eq!(t.distance(0, 2), 4);
        assert_eq!(t.distance(0, 3), 4);
        assert_eq!(t.distance(0, 4), 6);
        assert_eq!(t.distance(0, 7), 6);
        assert_eq!(t.distance(5, 5), 0);
        assert_eq!(t.diameter(), 6);
    }

    #[test]
    fn quaternary_tree() {
        let t = FatTree::new(4, 2); // 16 leaves
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.distance(0, 3), 2);
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.diameter(), 4);
    }

    #[test]
    fn metric_axioms_hold() {
        let t = FatTree::new(3, 3); // 27 leaves
        let n = t.num_nodes();
        for a in 0..n {
            assert_eq!(t.distance(a, a), 0);
            for b in 0..n {
                assert_eq!(t.distance(a, b), t.distance(b, a));
                for c in 0..n {
                    assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
                }
            }
        }
    }

    #[test]
    fn average_distance_much_lower_than_mesh() {
        // The P log P wiring buys locality: a 64-leaf fat-tree has smaller
        // diameter growth than a 64-node 2D mesh.
        let ft = FatTree::new(4, 3);
        assert_eq!(ft.num_nodes(), 64);
        assert_eq!(ft.diameter(), 6);
        let mesh = crate::Torus::mesh_2d(8, 8);
        assert_eq!(mesh.diameter(), 14);
    }
}
