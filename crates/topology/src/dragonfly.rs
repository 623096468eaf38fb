//! Dragonfly topology: `g` groups of `a` routers, all-to-all local links
//! inside each group and per-router global channels between groups.
//!
//! This models the dragonfly class of Kim/Dally-style hierarchical
//! direct networks that the geometric-partitioning line of work targets:
//! dense electrical groups joined by a sparse all-to-all layer of optical
//! global links. We use the *per-router global channel* variant — router
//! `r` of group `i` has a dedicated global link to router `r` of every
//! other group — i.e. the Cartesian product `K_g □ K_a`. Unlike the
//! gateway-router formulation (whose closed-form "local + global + local"
//! cost is not a graph metric — it can violate the triangle inequality),
//! this variant's shortest-path distance is exactly the number of
//! differing coordinates, which satisfies every [`Topology`] axiom and is
//! cross-checked against BFS in the property suite.
//!
//! Node `n` is router `n % a` of group `n / a`:
//!
//! - distance 1: same group (local link) or same router index (global link),
//! - distance 2: different group *and* different router index,
//! - diameter 2 (once both `g > 1` and `a > 1`).
//!
//! Deterministic routing is global-first (take the global channel out of
//! the source group, then the local hop), mirroring dimension-order
//! routing on tori. For distance-2 pairs there are exactly two minimal
//! routes — global-then-local and local-then-global — which is what makes
//! global links the interesting adaptive-routing choice: minimal-adaptive
//! routing picks whichever of the two first links is free.

use crate::{NodeId, RoutedTopology, Topology};

/// A dragonfly machine: `groups` groups × `routers` routers per group,
/// all-to-all within a group, per-router global channels between groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dragonfly {
    groups: usize,
    routers: usize,
    nodes: usize,
}

impl Dragonfly {
    /// Build a dragonfly with `groups` groups of `routers` routers each.
    /// Panics if either is zero.
    pub fn new(groups: usize, routers: usize) -> Self {
        assert!(groups > 0, "dragonfly needs at least one group");
        assert!(routers > 0, "dragonfly needs at least one router per group");
        let nodes = groups
            .checked_mul(routers)
            .expect("dragonfly size overflows usize");
        Dragonfly {
            groups,
            routers,
            nodes,
        }
    }

    /// Number of groups `g`.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Routers per group `a`.
    pub fn routers(&self) -> usize {
        self.routers
    }

    /// Group index of `node` (`node / a`).
    pub fn group_of(&self, node: NodeId) -> usize {
        node / self.routers
    }

    /// Router index of `node` within its group (`node % a`).
    pub fn router_of(&self, node: NodeId) -> usize {
        node % self.routers
    }

    /// `(group, router)` coordinates of `node`.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        (self.group_of(node), self.router_of(node))
    }

    /// Node id of router `router` in group `group` (inverse of
    /// [`Dragonfly::coords`]).
    pub fn node_of(&self, group: usize, router: usize) -> NodeId {
        debug_assert!(group < self.groups && router < self.routers);
        group * self.routers + router
    }
}

impl Topology for Dragonfly {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn node_coords(&self, node: NodeId) -> Option<[f64; 3]> {
        let (g, r) = self.coords(node);
        Some([g as f64, r as f64, 0.0])
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (ga, ra) = self.coords(a);
        let (gb, rb) = self.coords(b);
        (ga != gb) as u32 + (ra != rb) as u32
    }

    fn name(&self) -> String {
        format!("Dragonfly({}g x {}r)", self.groups, self.routers)
    }

    fn diameter(&self) -> u32 {
        match (self.groups > 1, self.routers > 1) {
            (true, true) => 2,
            (false, false) => 0,
            _ => 1,
        }
    }

    fn sum_distance_from(&self, _node: NodeId) -> u64 {
        // Vertex-transitive: (a-1) local + (g-1) global peers at distance 1,
        // the remaining (g-1)(a-1) at distance 2.
        let (g, a) = (self.groups as u64, self.routers as u64);
        (a - 1) + (g - 1) + 2 * (g - 1) * (a - 1)
    }
}

impl RoutedTopology for Dragonfly {
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let (g, r) = self.coords(node);
        for j in 0..self.groups {
            if j == g {
                for q in 0..self.routers {
                    if q != r {
                        out.push(self.node_of(g, q));
                    }
                }
            } else {
                out.push(self.node_of(j, r));
            }
        }
    }

    fn next_hop(&self, cur: NodeId, dest: NodeId) -> NodeId {
        let (gc, rc) = self.coords(cur);
        let (gd, _) = self.coords(dest);
        if gc == gd {
            // Same group: one local hop finishes the route.
            dest
        } else {
            // Global-first: exit on cur's own global channel toward gd.
            // When rc == rd this already *is* dest.
            self.node_of(gd, rc)
        }
    }

    fn productive_neighbors_into(&self, cur: NodeId, dest: NodeId, out: &mut Vec<NodeId>) {
        debug_assert_ne!(cur, dest);
        out.clear();
        let (gc, rc) = self.coords(cur);
        let (gd, rd) = self.coords(dest);
        if gc == gd || rc == rd {
            out.push(dest);
        } else {
            // Two minimal first hops: fix the router index locally, or fix
            // the group globally. Emit in ascending node-id order to match
            // the neighbor enumeration the default derivation would use.
            let local = self.node_of(gc, rd);
            let global = self.node_of(gd, rc);
            out.push(local.min(global));
            out.push(local.max(global));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let d = Dragonfly::new(4, 6);
        for n in 0..d.num_nodes() {
            let (g, r) = d.coords(n);
            assert!(g < 4 && r < 6);
            assert_eq!(d.node_of(g, r), n);
        }
    }

    #[test]
    fn distance_counts_differing_coords() {
        let d = Dragonfly::new(3, 4);
        assert_eq!(d.distance(0, 0), 0);
        assert_eq!(d.distance(d.node_of(0, 1), d.node_of(0, 3)), 1); // local
        assert_eq!(d.distance(d.node_of(0, 2), d.node_of(2, 2)), 1); // global
        assert_eq!(d.distance(d.node_of(0, 1), d.node_of(2, 3)), 2);
    }

    #[test]
    fn diameter_edge_cases() {
        assert_eq!(Dragonfly::new(1, 1).diameter(), 0);
        assert_eq!(Dragonfly::new(1, 5).diameter(), 1); // one group = K_5
        assert_eq!(Dragonfly::new(5, 1).diameter(), 1); // one router each = K_5
        assert_eq!(Dragonfly::new(3, 4).diameter(), 2);
    }

    #[test]
    fn sum_distance_matches_brute_force() {
        let d = Dragonfly::new(4, 5);
        for node in [0, 7, 19] {
            let brute: u64 = (0..d.num_nodes()).map(|b| d.distance(node, b) as u64).sum();
            assert_eq!(d.sum_distance_from(node), brute);
        }
    }

    #[test]
    fn degree_is_locals_plus_globals() {
        let d = Dragonfly::new(4, 6);
        for n in 0..d.num_nodes() {
            assert_eq!(d.degree(n), (6 - 1) + (4 - 1));
        }
    }

    #[test]
    fn routes_are_global_first_and_minimal() {
        let d = Dragonfly::new(4, 4);
        let src = d.node_of(1, 2);
        let dst = d.node_of(3, 0);
        let route = d.route(src, dst);
        assert_eq!(route.len(), 2);
        // The global channel first (it changes the group), then the
        // local one (it stays inside the destination group).
        assert_ne!(d.group_of(route[0].from), d.group_of(route[0].to));
        assert_eq!(d.group_of(route[1].from), d.group_of(route[1].to));
        for (a, b) in [(0usize, 15usize), (5, 5), (2, 14), (9, 1)] {
            assert_eq!(d.route(a, b).len() as u32, d.distance(a, b));
        }
    }

    #[test]
    fn link_count_is_locals_plus_globals() {
        let (g, a) = (4usize, 5usize);
        let d = Dragonfly::new(g, a);
        // Directed: a(a-1) local per group, plus a global channels per
        // ordered group pair.
        assert_eq!(d.links().len(), g * a * (a - 1) + g * (g - 1) * a);
    }
}
