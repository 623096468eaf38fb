//! Property-based tests for the topology metric and routing invariants.

use proptest::prelude::*;
use topomap_topology::{
    stats, CachedTopology, Dragonfly, FatTree, GraphTopology, Hierarchy, Hypercube, RoutedTopology,
    Topology, Torus,
};

/// Strategy producing small dragonflies, including the degenerate
/// one-group and one-router-per-group shapes.
fn arb_dragonfly() -> impl Strategy<Value = Dragonfly> {
    (1usize..=6, 1usize..=6).prop_map(|(g, a)| Dragonfly::new(g, a))
}

/// Strategy producing small random tori/meshes (≤ ~200 nodes).
fn arb_torus() -> impl Strategy<Value = Torus> {
    (
        proptest::collection::vec(1usize..=6, 1..=4),
        proptest::collection::vec(any::<bool>(), 4),
    )
        .prop_map(|(dims, wrap)| {
            let wrap = &wrap[..dims.len()];
            Torus::new(&dims, wrap)
        })
}

/// Strategy producing small random connected graphs: a random spanning
/// path plus extra random edges.
fn arb_connected_graph() -> impl Strategy<Value = GraphTopology> {
    (2usize..=24).prop_flat_map(|n| {
        let extra = proptest::collection::vec((0..n, 0..n), 0..(2 * n));
        extra.prop_map(move |extra| {
            let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
            edges.extend(extra.into_iter().filter(|&(a, b)| a != b));
            GraphTopology::from_edges(n, &edges)
        })
    })
}

/// Strategy producing small hierarchies: one to three levels of arity
/// 1–4 with strictly increasing level distances.
fn arb_hierarchy() -> impl Strategy<Value = Hierarchy> {
    proptest::collection::vec((1usize..=4, 1u32..=3), 1..=3).prop_map(|levels| {
        let arities = levels.iter().map(|&(a, _)| a).collect();
        let dists = levels
            .iter()
            .scan(0u32, |d, &(_, step)| {
                *d += step;
                Some(*d)
            })
            .collect();
        Hierarchy::new(arities, dists)
    })
}

/// `CachedTopology::new` builds its table from batched row gathers
/// (`distances_sum_into`); every entry, row sum and the diameter must
/// equal what scalar `distance` gives.
fn cache_matches_scalar_distance<T: Topology + Clone>(t: &T) -> Result<(), TestCaseError> {
    let c = CachedTopology::new(t.clone());
    let n = t.num_nodes();
    let mut diameter = 0;
    for a in 0..n {
        let mut sum = 0u64;
        for b in 0..n {
            let d = t.distance(a, b);
            prop_assert_eq!(c.distance(a, b), d, "{} ({}, {})", t.name(), a, b);
            sum += d as u64;
            diameter = diameter.max(d);
        }
        prop_assert_eq!(c.sum_distance_from(a), sum, "{} row {}", t.name(), a);
    }
    prop_assert_eq!(c.diameter(), diameter, "{}", t.name());
    Ok(())
}

proptest! {
    #[test]
    fn torus_metric_axioms(t in arb_torus(), seed in any::<u64>()) {
        let n = t.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 7) % n;
        let c = (seed as usize / 49) % n;
        prop_assert_eq!(t.distance(a, a), 0);
        prop_assert_eq!(t.distance(a, b), t.distance(b, a));
        prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
        prop_assert!(t.distance(a, b) <= t.diameter());
    }

    #[test]
    fn torus_closed_form_equals_bfs(t in arb_torus()) {
        let g = GraphTopology::from_topology(&t);
        let n = t.num_nodes();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(t.distance(a, b), g.distance(a, b));
            }
        }
    }

    #[test]
    fn torus_routing_reaches_destination(t in arb_torus(), seed in any::<u64>()) {
        let n = t.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 13) % n;
        let route = t.route(a, b);
        prop_assert_eq!(route.len() as u32, t.distance(a, b));
        let mut cur = a;
        for l in &route {
            prop_assert_eq!(l.from, cur);
            prop_assert_eq!(t.distance(cur, l.to), 1);
            cur = l.to;
        }
        prop_assert_eq!(cur, b);
    }

    #[test]
    fn graph_metric_axioms(g in arb_connected_graph(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 7) % n;
        let c = (seed as usize / 49) % n;
        prop_assert_eq!(g.distance(a, a), 0);
        prop_assert_eq!(g.distance(a, b), g.distance(b, a));
        prop_assert!(g.distance(a, c) <= g.distance(a, b) + g.distance(b, c));
    }

    #[test]
    fn graph_routing_is_shortest(g in arb_connected_graph()) {
        let n = g.num_nodes();
        for a in 0..n {
            for b in 0..n {
                if a == b { continue; }
                prop_assert_eq!(g.route(a, b).len() as u32, g.distance(a, b));
            }
        }
    }

    #[test]
    fn neighbors_agree_with_distance_one(t in arb_torus()) {
        let n = t.num_nodes();
        let mut nbrs = Vec::new();
        for a in 0..n {
            t.neighbors_into(a, &mut nbrs);
            for &b in &nbrs {
                prop_assert_eq!(t.distance(a, b), 1, "{} {} {}", t.name(), a, b);
            }
            // And conversely: every distance-1 node is a neighbor.
            for b in 0..n {
                if t.distance(a, b) == 1 {
                    prop_assert!(nbrs.contains(&b));
                }
            }
        }
    }

    #[test]
    fn avg_dist_table_consistent(t in arb_torus()) {
        let table = stats::AvgDistTable::new(&t);
        let n = t.num_nodes();
        for a in 0..n {
            let s: u64 = (0..n).map(|b| t.distance(a, b) as u64).sum();
            prop_assert_eq!(table.sum(a), s);
        }
        let center = table.center();
        for a in 0..n {
            prop_assert!(table.sum(center) <= table.sum(a));
        }
    }

    #[test]
    fn hypercube_metric_is_hamming(dims in 1u32..=8, seed in any::<u64>()) {
        let h = Hypercube::new(dims);
        let n = h.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 3) % n;
        prop_assert_eq!(h.distance(a, b), (a ^ b).count_ones());
        if a != b {
            prop_assert_eq!(h.route(a, b).len() as u32, h.distance(a, b));
        }
    }

    #[test]
    fn productive_neighbors_are_exactly_the_closer_ones(t in arb_torus(), seed in any::<u64>()) {
        let n = t.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 3) % n;
        prop_assume!(a != b);
        let mut prod = Vec::new();
        t.productive_neighbors_into(a, b, &mut prod);
        prop_assert!(!prod.is_empty());
        let d = t.distance(a, b);
        let mut expected: Vec<usize> = t
            .neighbors(a)
            .into_iter()
            .filter(|&v| t.distance(v, b) == d - 1)
            .collect();
        let mut got = prod.clone();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        // The deterministic next hop is always among the productive set.
        prop_assert!(prod.contains(&t.next_hop(a, b)));
    }

    #[test]
    fn cached_topology_is_transparent(t in arb_torus()) {
        cache_matches_scalar_distance(&t)?;
        let c = CachedTopology::new(t.clone());
        for a in 0..t.num_nodes() {
            prop_assert_eq!(c.sum_distance_from(a), t.sum_distance_from(a));
        }
        prop_assert_eq!(c.diameter(), t.diameter());
        prop_assert_eq!(c.links(), t.links());
    }

    /// The same table check on the other five families.
    #[test]
    fn cached_table_matches_scalar_distance_beyond_tori(
        dims in 1u32..=6,
        (arity, levels) in (2usize..=4, 1u32..=3),
        d in arb_dragonfly(),
        g in arb_connected_graph(),
        h in arb_hierarchy(),
    ) {
        cache_matches_scalar_distance(&Hypercube::new(dims))?;
        cache_matches_scalar_distance(&FatTree::new(arity, levels))?;
        cache_matches_scalar_distance(&d)?;
        cache_matches_scalar_distance(&g)?;
        cache_matches_scalar_distance(&h)?;
    }

    #[test]
    fn fattree_metric_axioms(arity in 2usize..=4, levels in 1u32..=3, seed in any::<u64>()) {
        let t = FatTree::new(arity, levels);
        let n = t.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 11) % n;
        let c = (seed as usize / 121) % n;
        prop_assert_eq!(t.distance(a, a), 0);
        prop_assert_eq!(t.distance(a, b), t.distance(b, a));
        prop_assert!(t.distance(a, c) <= t.distance(a, b) + t.distance(b, c));
        // Fat-tree distances are always even.
        prop_assert_eq!(t.distance(a, b) % 2, 0);
    }

    #[test]
    fn dragonfly_metric_axioms(d in arb_dragonfly(), seed in any::<u64>()) {
        let n = d.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 7) % n;
        let c = (seed as usize / 49) % n;
        prop_assert_eq!(d.distance(a, a), 0);
        prop_assert_eq!(d.distance(a, b), d.distance(b, a));
        prop_assert!(d.distance(a, c) <= d.distance(a, b) + d.distance(b, c));
        prop_assert!(d.distance(a, b) <= d.diameter());
        prop_assert!(d.diameter() <= 3, "low-diameter topology by construction");
    }

    #[test]
    fn dragonfly_closed_form_equals_bfs(d in arb_dragonfly()) {
        let g = GraphTopology::from_topology(&d);
        let n = d.num_nodes();
        for a in 0..n {
            prop_assert_eq!(d.sum_distance_from(a), g.sum_distance_from(a));
            for b in 0..n {
                prop_assert_eq!(d.distance(a, b), g.distance(a, b), "{} -> {}", a, b);
            }
        }
        prop_assert_eq!(d.diameter(), g.diameter());
    }

    #[test]
    fn dragonfly_coords_roundtrip(d in arb_dragonfly()) {
        for node in 0..d.num_nodes() {
            let (g, r) = d.coords(node);
            prop_assert!(g < d.groups() && r < d.routers());
            prop_assert_eq!(d.node_of(g, r), node);
            prop_assert_eq!((d.group_of(node), d.router_of(node)), (g, r));
        }
    }

    #[test]
    fn dragonfly_routing_reaches_destination(d in arb_dragonfly(), seed in any::<u64>()) {
        let n = d.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 13) % n;
        let route = d.route(a, b);
        prop_assert_eq!(route.len() as u32, d.distance(a, b));
        let mut cur = a;
        for l in &route {
            prop_assert_eq!(l.from, cur);
            prop_assert_eq!(d.distance(cur, l.to), 1);
            cur = l.to;
        }
        prop_assert_eq!(cur, b);
    }

    #[test]
    fn dragonfly_productive_neighbors_are_exactly_the_closer_ones(
        d in arb_dragonfly(),
        seed in any::<u64>(),
    ) {
        let n = d.num_nodes();
        let a = (seed as usize) % n;
        let b = (seed as usize / 3) % n;
        prop_assume!(a != b);
        let mut prod = Vec::new();
        d.productive_neighbors_into(a, b, &mut prod);
        prop_assert!(!prod.is_empty());
        let dist = d.distance(a, b);
        let mut expected: Vec<usize> = d
            .neighbors(a)
            .into_iter()
            .filter(|&v| d.distance(v, b) == dist - 1)
            .collect();
        let mut got = prod.clone();
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
        prop_assert!(prod.contains(&d.next_hop(a, b)));
    }

    /// `Hierarchy::from_dragonfly` must agree with the generic
    /// `identity_over` derivation (routers within a group, then groups),
    /// so the hierarchical mapper sees the same machine either way.
    #[test]
    fn dragonfly_hierarchy_matches_identity_over(d in arb_dragonfly()) {
        let derived = Hierarchy::identity_over(&d, &[d.routers(), d.groups()]).unwrap();
        prop_assert_eq!(Hierarchy::from_dragonfly(&d), derived);
    }
}
