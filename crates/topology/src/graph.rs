//! Arbitrary network topologies given as adjacency lists.
//!
//! The paper states (§3) that the algorithms "work for arbitrary network
//! topologies" — this type is that escape hatch. Distances come from an
//! all-pairs BFS computed once at construction (the topology graph is
//! unweighted); deterministic shortest-path routing uses a next-hop table
//! derived from the same BFS forest (lowest-id parent wins, so routes are
//! reproducible across runs and platforms).

use crate::{NodeId, RoutedTopology, Topology};

/// An arbitrary connected topology with cached all-pairs distances.
///
/// Memory: `p²` u32 distances + `p²` u32 next hops — fine for the
/// irregular-machine sizes this is meant for (the regular families use
/// closed forms instead).
#[derive(Debug, Clone)]
pub struct GraphTopology {
    n: usize,
    /// CSR adjacency.
    xadj: Vec<usize>,
    adj: Vec<NodeId>,
    /// Row-major `n × n` distance matrix.
    dist: Vec<u32>,
    /// Row-major `n × n` next-hop matrix; `next[a*n+b]` is the first hop on
    /// the canonical shortest path a→b (undefined as `a` when a == b).
    next: Vec<u32>,
    name: String,
}

impl GraphTopology {
    /// Build from undirected edges over `n` nodes. Self-loops and duplicate
    /// edges are ignored. Panics if the graph is disconnected (a topology
    /// must have finite distances) or any endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        Self::from_edges_named(n, edges, format!("Graph({n} nodes)"))
    }

    /// Like [`Self::from_edges`] with an explicit display name.
    pub fn from_edges_named(n: usize, edges: &[(NodeId, NodeId)], name: String) -> Self {
        assert!(n > 0, "empty topology");
        // Deduplicate into sorted undirected adjacency.
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            if a == b {
                continue;
            }
            pairs.push((a, b));
            pairs.push((b, a));
        }
        pairs.sort_unstable();
        pairs.dedup();

        let mut xadj = vec![0usize; n + 1];
        for &(a, _) in &pairs {
            xadj[a + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        let adj: Vec<NodeId> = pairs.iter().map(|&(_, b)| b).collect();

        let mut g = GraphTopology {
            n,
            xadj,
            adj,
            dist: vec![u32::MAX; n * n],
            next: vec![u32::MAX; n * n],
            name,
        };
        g.compute_apsp();
        g
    }

    /// A ring of `n` processors (equivalent to a 1-D torus, provided for
    /// irregular-topology testing).
    pub fn ring(n: usize) -> Self {
        assert!(n >= 2);
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Self::from_edges_named(n, &edges, format!("Ring({n})"))
    }

    /// A star: node 0 is the hub, nodes `1..n` are leaves.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2);
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
        Self::from_edges_named(n, &edges, format!("Star({n})"))
    }

    /// A complete graph (crossbar): every pair directly connected.
    pub fn complete(n: usize) -> Self {
        assert!(n >= 1);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        Self::from_edges_named(n, &edges, format!("Crossbar({n})"))
    }

    /// Materialize any routed topology into an explicit graph (useful for
    /// cross-validating closed-form implementations).
    pub fn from_topology<T: RoutedTopology>(t: &T) -> Self {
        let n = t.num_nodes();
        let mut edges = Vec::new();
        let mut nbrs = Vec::new();
        for a in 0..n {
            t.neighbors_into(a, &mut nbrs);
            for &b in &nbrs {
                if a < b {
                    edges.push((a, b));
                }
            }
        }
        Self::from_edges_named(n, &edges, t.name())
    }

    fn adjacency(&self, node: NodeId) -> &[NodeId] {
        &self.adj[self.xadj[node]..self.xadj[node + 1]]
    }

    /// BFS from every source, filling `dist` and `next`.
    ///
    /// `next[a][b]` is derived backwards: for the BFS tree rooted at `b`,
    /// the first hop from `a` toward `b` is `a`'s BFS parent. Scanning
    /// neighbors in sorted id order makes the choice canonical.
    fn compute_apsp(&mut self) {
        let n = self.n;
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        for root in 0..n {
            // BFS rooted at `root`; parent[v] = first hop from v toward root.
            queue.clear();
            queue.push(root);
            self.dist[root * n + root] = 0;
            self.next[root * n + root] = root as u32;
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                let dv = self.dist[v * n + root];
                for &w in &self.adj[self.xadj[v]..self.xadj[v + 1]] {
                    let slot = w * n + root;
                    if self.dist[slot] == u32::MAX {
                        self.dist[slot] = dv + 1;
                        self.next[slot] = v as u32;
                        queue.push(w);
                    }
                }
            }
            assert_eq!(
                queue.len(),
                n,
                "topology graph must be connected (BFS from {root} reached {} of {n})",
                queue.len()
            );
        }
    }
}

impl Topology for GraphTopology {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        debug_assert!(a < self.n && b < self.n);
        self.dist[a * self.n + b]
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn diameter(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0)
    }

    fn distances_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) {
        let row = &self.dist[from * self.n..(from + 1) * self.n];
        out.clear();
        out.extend(targets.iter().map(|&t| row[t]));
    }
}

impl RoutedTopology for GraphTopology {
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.adjacency(node));
    }

    fn next_hop(&self, cur: NodeId, dest: NodeId) -> NodeId {
        debug_assert_ne!(cur, dest);
        self.next[cur * self.n + dest] as NodeId
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Torus;

    #[test]
    fn ring_distances() {
        let g = GraphTopology::ring(6);
        assert_eq!(g.distance(0, 3), 3);
        assert_eq!(g.distance(0, 5), 1);
        assert_eq!(g.distance(2, 2), 0);
        assert_eq!(g.diameter(), 3);
    }

    #[test]
    fn star_distances() {
        let g = GraphTopology::star(5);
        assert_eq!(g.distance(0, 4), 1);
        assert_eq!(g.distance(1, 4), 2);
        assert_eq!(g.diameter(), 2);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = GraphTopology::complete(7);
        assert_eq!(g.diameter(), 1);
        assert_eq!(g.adj.len() / 2, 21);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_rejected() {
        GraphTopology::from_edges(4, &[(0, 1), (2, 3)]);
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let g = GraphTopology::from_edges(3, &[(0, 1), (1, 0), (0, 0), (1, 2), (1, 2)]);
        assert_eq!(g.adj.len() / 2, 2);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn symmetric_distances() {
        let g =
            GraphTopology::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        for a in 0..6 {
            for b in 0..6 {
                assert_eq!(g.distance(a, b), g.distance(b, a));
            }
        }
    }

    #[test]
    fn routing_matches_distance() {
        let g = GraphTopology::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 2),
            ],
        );
        for a in 0..7 {
            for b in 0..7 {
                if a == b {
                    continue;
                }
                assert_eq!(g.route(a, b).len() as u32, g.distance(a, b));
            }
        }
    }

    #[test]
    fn materialized_torus_matches_closed_form() {
        let t = Torus::torus_2d(4, 5);
        let g = GraphTopology::from_topology(&t);
        for a in 0..20 {
            for b in 0..20 {
                assert_eq!(t.distance(a, b), g.distance(a, b));
            }
        }
        assert_eq!(g.name(), t.name());
    }
}
