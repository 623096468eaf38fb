//! Hypercube topology.
//!
//! The paper notes (§1) that for "Fat-Trees or hypercubes, with number of
//! wires growing as P log P", contention is much less significant — the
//! hypercube is included both as a mapping target and as the low-contention
//! comparison point for experiments.

use crate::{NodeId, RoutedTopology, Topology};

/// A `d`-dimensional binary hypercube on `2^d` processors.
///
/// Node ids are the natural binary labels; two processors are adjacent iff
/// their labels differ in exactly one bit, and `distance` is the Hamming
/// distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypercube {
    dims: u32,
}

impl Hypercube {
    /// A hypercube with `2^dims` nodes. Panics if `dims > 30`.
    pub fn new(dims: u32) -> Self {
        assert!(dims <= 30, "hypercube dimension too large");
        Hypercube { dims }
    }
}

impl Topology for Hypercube {
    fn num_nodes(&self) -> usize {
        1usize << self.dims
    }

    fn node_coords(&self, node: NodeId) -> Option<[f64; 3]> {
        // Deal the address bits onto 3 axes round-robin (bit i goes to
        // axis i % 3), giving a 3-D lattice embedding where one hop
        // changes exactly one axis.
        let mut c = [0u64; 3];
        let mut shift = [0u32; 3];
        for i in 0..self.dims {
            let axis = (i % 3) as usize;
            c[axis] |= (((node >> i) & 1) as u64) << shift[axis];
            shift[axis] += 1;
        }
        Some([c[0] as f64, c[1] as f64, c[2] as f64])
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        debug_assert!(a < self.num_nodes() && b < self.num_nodes());
        (a ^ b).count_ones()
    }

    fn name(&self) -> String {
        format!("Hypercube({}d)", self.dims)
    }

    fn diameter(&self) -> u32 {
        self.dims
    }

    fn sum_distance_from(&self, _node: NodeId) -> u64 {
        // By symmetry: sum of Hamming distances to all labels is d * 2^(d-1).
        if self.dims == 0 {
            0
        } else {
            (self.dims as u64) << (self.dims - 1)
        }
    }
}

impl RoutedTopology for Hypercube {
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        for bit in 0..self.dims {
            out.push(node ^ (1usize << bit));
        }
    }

    fn next_hop(&self, cur: NodeId, dest: NodeId) -> NodeId {
        debug_assert_ne!(cur, dest);
        // E-cube routing: correct the lowest-order differing bit.
        let diff = cur ^ dest;
        cur ^ (1usize << diff.trailing_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_properties() {
        let h = Hypercube::new(4);
        assert_eq!(h.num_nodes(), 16);
        assert_eq!(h.diameter(), 4);
        assert_eq!(h.distance(0b0000, 0b1111), 4);
        assert_eq!(h.distance(0b0101, 0b0101), 0);
        assert_eq!(h.degree(3), 4);
    }

    #[test]
    fn sum_distance_closed_form() {
        let h = Hypercube::new(5);
        for node in [0usize, 7, 31] {
            let brute: u64 = (0..h.num_nodes()).map(|b| h.distance(node, b) as u64).sum();
            assert_eq!(h.sum_distance_from(node), brute);
        }
    }

    #[test]
    fn routing_follows_shortest_paths() {
        let h = Hypercube::new(4);
        for a in 0..16 {
            for b in 0..16 {
                if a == b {
                    continue;
                }
                let route = h.route(a, b);
                assert_eq!(route.len() as u32, h.distance(a, b));
            }
        }
    }

    #[test]
    fn neighbors_are_single_bit_flips() {
        let h = Hypercube::new(3);
        let n = h.neighbors(0b101);
        assert_eq!(n.len(), 3);
        for x in n {
            assert_eq!(h.distance(0b101, x), 1);
        }
    }
}
