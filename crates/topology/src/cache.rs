//! Distance-matrix caching wrapper.
//!
//! The mapping algorithms issue O(p²)–O(p³) distance queries. For the
//! regular families (torus, hypercube) the closed forms are already
//! O(1)-cheap, but for metric-only topologies with non-trivial `distance`
//! (deep fat-trees, user-defined metrics) a precomputed `p × p` matrix
//! trades O(p²) u32 memory for constant-time lookups. [`CachedTopology`]
//! wraps any topology and serves `distance`/`sum_distance_from` from the
//! matrix, delegating everything else.

use crate::{NodeId, RoutedTopology, Topology};

/// A topology wrapper with a precomputed all-pairs distance matrix.
#[derive(Debug, Clone)]
pub struct CachedTopology<T> {
    inner: T,
    n: usize,
    dist: Vec<u32>,
    row_sums: Vec<u64>,
    diameter: u32,
}

impl<T: Topology> CachedTopology<T> {
    /// Precompute the matrix, once: one batched
    /// [`Topology::distances_sum_into`] row gather per node, which every
    /// override answers with the values of `inner.distance`.
    pub fn new(inner: T) -> Self {
        let n = inner.num_nodes();
        let all: Vec<NodeId> = (0..n).collect();
        let mut dist = vec![0u32; n * n];
        let mut row_sums = vec![0u64; n];
        let mut diameter = 0u32;
        let mut row = Vec::with_capacity(n);
        for a in 0..n {
            row_sums[a] = inner.distances_sum_into(a, &all, &mut row);
            diameter = row.iter().copied().fold(diameter, u32::max);
            dist[a * n..(a + 1) * n].copy_from_slice(&row);
        }
        CachedTopology {
            inner,
            n,
            dist,
            row_sums,
            diameter,
        }
    }

    /// Unwrap the row-major `p × p` distance matrix
    /// (`distance(a, b)` at `a * p + b`).
    pub fn into_matrix(self) -> Vec<u32> {
        self.dist
    }
}

impl<T: Topology> Topology for CachedTopology<T> {
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.dist[a * self.n + b]
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn diameter(&self) -> u32 {
        self.diameter
    }

    fn sum_distance_from(&self, node: NodeId) -> u64 {
        self.row_sums[node]
    }

    fn distances_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) {
        let row = &self.dist[from * self.n..(from + 1) * self.n];
        out.clear();
        out.extend(targets.iter().map(|&t| row[t]));
    }

    fn node_coords(&self, node: NodeId) -> Option<[f64; 3]> {
        self.inner.node_coords(node)
    }
}

impl<T: RoutedTopology> RoutedTopology for CachedTopology<T> {
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        self.inner.neighbors_into(node, out)
    }

    fn next_hop(&self, cur: NodeId, dest: NodeId) -> NodeId {
        self.inner.next_hop(cur, dest)
    }

    fn productive_neighbors_into(&self, cur: NodeId, dest: NodeId, out: &mut Vec<NodeId>) {
        self.inner.productive_neighbors_into(cur, dest, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FatTree, Torus};

    #[test]
    fn matches_inner_everywhere() {
        let t = Torus::new(&[3, 4, 2], &[true, false, true]);
        let c = CachedTopology::new(t.clone());
        for a in 0..t.num_nodes() {
            assert_eq!(c.sum_distance_from(a), t.sum_distance_from(a));
            for b in 0..t.num_nodes() {
                assert_eq!(c.distance(a, b), t.distance(a, b));
            }
        }
        assert_eq!(c.diameter(), t.diameter());
        assert_eq!(c.name(), t.name());
        let n = t.num_nodes();
        let matrix = c.into_matrix();
        assert_eq!(matrix.len(), n * n);
        for (k, &d) in matrix.iter().enumerate() {
            assert_eq!(d, t.distance(k / n, k % n));
        }
    }

    #[test]
    fn works_for_metric_only_topologies() {
        let f = FatTree::new(3, 3);
        let c = CachedTopology::new(f);
        assert_eq!(c.num_nodes(), 27);
        assert_eq!(c.distance(0, 26), 6);
    }

    #[test]
    fn routing_passthrough() {
        let t = Torus::torus_2d(4, 4);
        let c = CachedTopology::new(t.clone());
        for a in 0..16 {
            assert_eq!(c.neighbors(a), t.neighbors(a));
            for b in 0..16 {
                if a != b {
                    assert_eq!(c.route(a, b), t.route(a, b));
                }
            }
        }
    }
}
