//! # topomap-topology
//!
//! Processor topology graphs and distance oracles for topology-aware task
//! mapping, reproducing the machine models of Agarwal, Sharma & Kalé,
//! *"Topology-aware task mapping for reducing communication contention on
//! large parallel machines"* (IPDPS 2006).
//!
//! The paper's mapping heuristics (TopoLB / TopoCentLB) need only a *metric*
//! over processors — the shortest-path distance `d_p(p1, p2)` in the
//! interconnect graph — while the network simulator additionally needs
//! *routes* (which physical links a message crosses). The two capabilities
//! are split into two traits:
//!
//! - [`Topology`]: `num_nodes` + `distance` (+ derived statistics). Every
//!   machine model implements this; the mapping algorithms in
//!   `topomap-core` are generic over it.
//! - [`RoutedTopology`]: adds `neighbors`, `degree` and deterministic
//!   shortest-path `next_hop` routing (dimension-ordered on tori/meshes).
//!   The packet simulator in `topomap-netsim` and the per-link load metric
//!   require this.
//!
//! ## Provided machine models
//!
//! | Type | Trait level | Paper role |
//! |------|-------------|------------|
//! | [`Torus`] (N-dimensional, per-dimension wrap flags) | routed | BlueGene 3D-torus / 3D-mesh, 2D tori of §5.2 |
//! | [`Hypercube`] | routed | "networks such as ... hypercubes" (§1) |
//! | [`GraphTopology`] (arbitrary adjacency list) | routed | "our algorithms work for arbitrary network topologies" (§3) |
//! | [`FatTree`] (k-ary tree metric) | metric only | Fat-tree comparison point (§1) |
//! | [`Dragonfly`] (groups × all-to-all global channels) | routed | Hierarchical direct network where global-link contention concentrates |
//!
//! ## Example
//!
//! ```
//! use topomap_topology::{Topology, RoutedTopology, Torus};
//!
//! // The (16,16,16) 3D-torus of the paper's introduction: diameter 24,
//! // average inter-node distance 12.
//! let t = Torus::torus_3d(16, 16, 16);
//! assert_eq!(t.num_nodes(), 4096);
//! assert_eq!(t.diameter(), 24);
//! let avg = topomap_topology::stats::average_pairwise_distance(&t);
//! assert!((avg - 12.0).abs() < 0.01);
//! ```

pub(crate) mod cache;
pub(crate) mod coords;
pub(crate) mod dragonfly;
pub(crate) mod fattree;
pub(crate) mod graph;
pub(crate) mod hierarchy;
pub(crate) mod hypercube;
pub(crate) mod link_index;
pub mod stats;
pub(crate) mod torus;

pub use cache::CachedTopology;
pub use dragonfly::Dragonfly;
pub use fattree::FatTree;
pub use graph::GraphTopology;
pub use hierarchy::Hierarchy;
pub use hypercube::Hypercube;
pub use link_index::LinkIndex;
pub use torus::Torus;

/// Identifier of a processor (a vertex of the topology graph `G_p`).
pub type NodeId = usize;

/// A directed physical link `(from, to)` between adjacent processors.
///
/// The network simulator models each direction of a bidirectional wire as
/// an independent channel (as torus networks do in practice), so links are
/// directed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    pub from: NodeId,
    pub to: NodeId,
}

impl Link {
    pub fn new(from: NodeId, to: NodeId) -> Self {
        Link { from, to }
    }
}

/// A metric over processors: the interface the mapping heuristics consume.
///
/// `distance` must be a true graph metric (symmetric, zero iff equal,
/// triangle inequality) — the shortest-path distance in the topology graph.
pub trait Topology: Send + Sync {
    /// Number of processors `p = |V_p|`.
    fn num_nodes(&self) -> usize;

    /// Shortest-path distance `d_p(a, b)` in hops.
    fn distance(&self, a: NodeId, b: NodeId) -> u32;

    /// Human-readable name used in experiment output (e.g. `"3D-Torus(8x8x8)"`).
    fn name(&self) -> String;

    /// Largest shortest-path distance between any two processors.
    ///
    /// The default computes it by brute force over all pairs; regular
    /// topologies override with a closed form.
    fn diameter(&self) -> u32 {
        let n = self.num_nodes();
        let mut d = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                d = d.max(self.distance(a, b));
            }
        }
        d
    }

    /// Sum of distances from `node` to every processor (including itself).
    fn sum_distance_from(&self, node: NodeId) -> u64 {
        (0..self.num_nodes())
            .map(|b| self.distance(node, b) as u64)
            .sum()
    }

    /// Bulk distance query: write `distance(from, t)` for each `t` in
    /// `targets` into `out` (cleared first, same order as `targets`).
    ///
    /// This is the hot call of the incremental mapping kernels — one full
    /// column of the fest table per placement — so regular topologies
    /// override it with batched closed forms (per-dimension lookup tables
    /// on tori, matrix-row gathers on cached/BFS topologies) that avoid a
    /// virtual call and a coordinate decode per element. The default just
    /// loops over [`Topology::distance`]; overrides must return bit-identical
    /// values.
    fn distances_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) {
        out.clear();
        out.extend(targets.iter().map(|&t| self.distance(from, t)));
    }

    /// [`Topology::distances_into`] plus the column total `Σ out` in one
    /// call. The incremental kernels want both every placement; regular
    /// topologies override this to accumulate the total inside the gather
    /// pass instead of re-reading the column. The default sums after the
    /// fact (4-lane striped — exact either way for integer distances).
    fn distances_sum_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) -> u64 {
        self.distances_into(from, targets, out);
        let mut s = [0u64; 4];
        for (i, &d) in out.iter().enumerate() {
            s[i & 3] += d as u64;
        }
        (s[0] + s[1]) + (s[2] + s[3])
    }

    /// Spatial position of `node` for geometric mappers (SFC/RCB), or
    /// `None` when the machine has no natural ≤3-D embedding. Grid
    /// machines return their torus/mesh coordinates (z padded with 0);
    /// hierarchical machines return (group, member, 0)-style positions.
    /// Consumers must handle `None` (geometric mappers fall back to
    /// node-id ordering).
    fn node_coords(&self, _node: NodeId) -> Option<[f64; 3]> {
        None
    }
}

/// A topology with explicit links and deterministic shortest-path routing.
pub trait RoutedTopology: Topology {
    /// Append the neighbors of `node` to `out` (cleared first).
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>);

    /// The neighbors of `node` as a fresh vector (convenience wrapper).
    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut v = Vec::new();
        self.neighbors_into(node, &mut v);
        v
    }

    /// Degree of `node` in the topology graph.
    fn degree(&self, node: NodeId) -> usize {
        let mut v = Vec::new();
        self.neighbors_into(node, &mut v);
        v.len()
    }

    /// The next node on the deterministic shortest path from `cur` to
    /// `dest`. Must satisfy `distance(next_hop(c,d), d) == distance(c,d) - 1`
    /// for `c != d` so that repeated application terminates at `dest` along
    /// a shortest path. Panics or returns `cur` when `cur == dest`.
    fn next_hop(&self, cur: NodeId, dest: NodeId) -> NodeId;

    /// Append every *productive* neighbor of `cur` toward `dest` — each
    /// neighbor one hop closer to `dest` — to `out` (cleared first). Used
    /// by minimal-adaptive routing: any choice among these still follows
    /// a shortest path. The default derives them from `distance`; regular
    /// topologies may override with a closed form.
    fn productive_neighbors_into(&self, cur: NodeId, dest: NodeId, out: &mut Vec<NodeId>) {
        debug_assert_ne!(cur, dest);
        let target = self.distance(cur, dest) - 1;
        let mut nbrs = Vec::new();
        self.neighbors_into(cur, &mut nbrs);
        out.clear();
        out.extend(
            nbrs.into_iter()
                .filter(|&v| self.distance(v, dest) == target),
        );
        debug_assert!(
            !out.is_empty(),
            "no productive neighbor on a connected graph"
        );
    }

    /// The full deterministic route from `src` to `dest`, appended to `out`
    /// (cleared first) as a sequence of directed links.
    fn route_into(&self, src: NodeId, dest: NodeId, out: &mut Vec<Link>) {
        out.clear();
        let mut cur = src;
        while cur != dest {
            let nxt = self.next_hop(cur, dest);
            debug_assert_ne!(nxt, cur, "next_hop made no progress");
            out.push(Link::new(cur, nxt));
            cur = nxt;
        }
    }

    /// The full deterministic route as a fresh vector.
    fn route(&self, src: NodeId, dest: NodeId) -> Vec<Link> {
        let mut v = Vec::new();
        self.route_into(src, dest, &mut v);
        v
    }

    /// Every directed link in the topology, ascending in `(from, to)` and
    /// without duplicates. A link's position in this list is its id in
    /// every per-link ledger; [`LinkIndex`] maps `(from, to)` back to it
    /// and checks the order.
    fn links(&self) -> Vec<Link> {
        let n = self.num_nodes();
        let mut out = Vec::new();
        let mut nbrs = Vec::new();
        for a in 0..n {
            self.neighbors_into(a, &mut nbrs);
            for &b in &nbrs {
                out.push(Link::new(a, b));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Blanket impls so `&T` and `Box<dyn ...>` work wherever `T: Topology` does.
impl<T: Topology + ?Sized> Topology for &T {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (**self).distance(a, b)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn diameter(&self) -> u32 {
        (**self).diameter()
    }
    fn sum_distance_from(&self, node: NodeId) -> u64 {
        (**self).sum_distance_from(node)
    }
    fn distances_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) {
        (**self).distances_into(from, targets, out)
    }

    fn distances_sum_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) -> u64 {
        (**self).distances_sum_into(from, targets, out)
    }
    fn node_coords(&self, node: NodeId) -> Option<[f64; 3]> {
        (**self).node_coords(node)
    }
}

impl<T: Topology + ?Sized> Topology for Box<T> {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }
    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        (**self).distance(a, b)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn diameter(&self) -> u32 {
        (**self).diameter()
    }
    fn sum_distance_from(&self, node: NodeId) -> u64 {
        (**self).sum_distance_from(node)
    }
    fn distances_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) {
        (**self).distances_into(from, targets, out)
    }

    fn distances_sum_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) -> u64 {
        (**self).distances_sum_into(from, targets, out)
    }
    fn node_coords(&self, node: NodeId) -> Option<[f64; 3]> {
        (**self).node_coords(node)
    }
}

impl<T: RoutedTopology + ?Sized> RoutedTopology for &T {
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        (**self).neighbors_into(node, out)
    }
    fn next_hop(&self, cur: NodeId, dest: NodeId) -> NodeId {
        (**self).next_hop(cur, dest)
    }
    fn productive_neighbors_into(&self, cur: NodeId, dest: NodeId, out: &mut Vec<NodeId>) {
        (**self).productive_neighbors_into(cur, dest, out)
    }
}

impl<T: RoutedTopology + ?Sized> RoutedTopology for Box<T> {
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        (**self).neighbors_into(node, out)
    }
    fn next_hop(&self, cur: NodeId, dest: NodeId) -> NodeId {
        (**self).next_hop(cur, dest)
    }
    fn productive_neighbors_into(&self, cur: NodeId, dest: NodeId, out: &mut Vec<NodeId>) {
        (**self).productive_neighbors_into(cur, dest, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_dispatch_works() {
        let t: Box<dyn Topology> = Box::new(Torus::torus_2d(4, 4));
        assert_eq!(t.num_nodes(), 16);
        assert_eq!(t.distance(0, 15), t.distance(15, 0));
    }

    #[test]
    fn reference_forwarding_matches_value() {
        let t = Torus::mesh_2d(3, 5);
        let r: &dyn Topology = &t;
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                assert_eq!(t.distance(a, b), r.distance(a, b));
            }
        }
        assert_eq!(t.diameter(), r.diameter());
    }

    #[test]
    fn distances_into_forwards_through_ref_and_box() {
        let t = Torus::torus_2d(4, 5);
        let boxed: Box<dyn Topology> = Box::new(Torus::torus_2d(4, 5));
        let targets: Vec<NodeId> = vec![0, 7, 19, 3, 3, 12];
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        t.distances_into(9, &targets, &mut a);
        (&t as &dyn Topology).distances_into(9, &targets, &mut b);
        boxed.distances_into(9, &targets, &mut c);
        let want: Vec<u32> = targets.iter().map(|&q| t.distance(9, q)).collect();
        assert_eq!(a, want);
        assert_eq!(b, want);
        assert_eq!(c, want);
    }

    #[test]
    fn routes_have_metric_length() {
        let t = Torus::torus_3d(4, 3, 5);
        for (a, b) in [(0usize, 59usize), (7, 31), (12, 12), (58, 1)] {
            let r = t.route(a, b);
            assert_eq!(r.len() as u32, t.distance(a, b));
            // Route is contiguous and ends at b.
            let mut cur = a;
            for l in &r {
                assert_eq!(l.from, cur);
                cur = l.to;
            }
            assert_eq!(cur, b);
        }
    }

    #[test]
    fn links_are_unique_and_paired() {
        let t = Torus::mesh_2d(4, 4);
        let links = t.links();
        let mut seen = std::collections::HashSet::new();
        for l in &links {
            assert!(seen.insert(*l), "duplicate link {:?}", l);
        }
        // Every directed link's reverse exists (bidirectional wires).
        for l in &links {
            assert!(seen.contains(&Link::new(l.to, l.from)));
        }
    }
}
