//! Task-graph transformations: composition of application modules and
//! phases, and relabelling of task ids.

use crate::{TaskGraph, TaskId};

/// Disjoint union: the tasks of `b` are renumbered after those of `a`
/// (two independent application modules sharing a machine).
pub fn disjoint_union(a: &TaskGraph, b: &TaskGraph) -> TaskGraph {
    let na = a.num_tasks();
    let mut out = TaskGraph::builder(na + b.num_tasks());
    for t in 0..na {
        out.set_task_weight(t, a.vertex_weight(t));
    }
    for t in 0..b.num_tasks() {
        out.set_task_weight(na + t, b.vertex_weight(t));
    }
    for (x, y, w) in a.edges() {
        out.add_comm(x, y, w);
    }
    for (x, y, w) in b.edges() {
        out.add_comm(na + x, na + y, w);
    }
    // Geometry survives only when both modules carry it (the two
    // coordinate frames are simply juxtaposed).
    if let (Some(ca), Some(cb)) = (a.coords(), b.coords()) {
        let mut cs = ca.to_vec();
        cs.extend_from_slice(cb);
        out.set_coords(cs);
    }
    out.build()
}

/// Overlay: sum the communication of two graphs on the same task set
/// (an application with two communication phases, e.g. halo exchange +
/// transpose).
pub fn overlay(a: &TaskGraph, b: &TaskGraph) -> TaskGraph {
    assert_eq!(
        a.num_tasks(),
        b.num_tasks(),
        "overlay needs equal task sets"
    );
    let mut out = TaskGraph::builder(a.num_tasks());
    for t in 0..a.num_tasks() {
        out.set_task_weight(t, a.vertex_weight(t) + b.vertex_weight(t));
    }
    for (x, y, w) in a.edges().chain(b.edges()) {
        out.add_comm(x, y, w);
    }
    // Same task set, same geometry: prefer a's coordinates.
    if let Some(cs) = a.coords().or_else(|| b.coords()) {
        out.set_coords(cs.to_vec());
    }
    out.build()
}

/// Relabel tasks by a permutation: `perm[old] = new`. Useful for testing
/// label-invariance of mappers and metrics. Public although no other crate
/// calls it yet: ROADMAP item 17(a) names it as the numbering step of the
/// planted-instance generator.
pub fn relabel(g: &TaskGraph, perm: &[TaskId]) -> TaskGraph {
    assert_eq!(perm.len(), g.num_tasks());
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        assert!(p < perm.len() && !seen[p], "not a permutation");
        seen[p] = true;
    }
    let mut b = TaskGraph::builder(g.num_tasks());
    for (t, &new) in perm.iter().enumerate() {
        b.set_task_weight(new, g.vertex_weight(t));
    }
    for (x, y, w) in g.edges() {
        b.add_comm(perm[x], perm[y], w);
    }
    if let Some(cs) = g.coords() {
        let mut out = vec![[0.0f64; 3]; cs.len()];
        for (t, &new) in perm.iter().enumerate() {
            out[new] = cs[t];
        }
        b.set_coords(out);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn union_offsets_ids() {
        let a = gen::ring(3, 1.0);
        let b = gen::ring(4, 2.0);
        let u = disjoint_union(&a, &b);
        assert_eq!(u.num_tasks(), 7);
        assert_eq!(u.num_edges(), 3 + 4);
        assert_eq!(u.edge_weight(3, 4), Some(4.0)); // b's first edge
        assert_eq!(u.edge_weight(2, 3), None, "no cross edges");
    }

    #[test]
    fn overlay_sums() {
        let a = gen::ring(4, 10.0);
        let b = gen::all_to_all(4, 1.0);
        let o = overlay(&a, &b);
        // Ring edge (0,1): 20 from ring + 2 from all-to-all.
        assert_eq!(o.edge_weight(0, 1), Some(22.0));
        // Diagonal (0,2): only all-to-all.
        assert_eq!(o.edge_weight(0, 2), Some(2.0));
        assert_eq!(o.vertex_weight(0), 2.0);
    }

    #[test]
    fn relabel_is_isomorphism() {
        let g = gen::stencil2d(3, 3, 7.0, false);
        let perm: Vec<usize> = (0..9).map(|t| (t + 4) % 9).collect();
        let r = relabel(&g, &perm);
        assert_eq!(r.num_edges(), g.num_edges());
        assert!((r.total_comm() - g.total_comm()).abs() < 1e-9);
        // Edge (0,1) in g appears as (perm[0], perm[1]).
        assert_eq!(r.edge_weight(perm[0], perm[1]), g.edge_weight(0, 1));
    }

    #[test]
    fn transforms_carry_coords() {
        let g = gen::stencil2d(3, 3, 7.0, false);
        assert!(overlay(&g, &g).coords().is_some());
        let u = disjoint_union(&g, &g);
        assert_eq!(u.coords().unwrap().len(), 18);
        // Union with a coordinate-free module drops geometry.
        assert!(disjoint_union(&g, &gen::ring(3, 1.0)).coords().is_none());
        // Relabel permutes positions along with ids.
        let perm: Vec<usize> = (0..9).map(|t| (t + 4) % 9).collect();
        let r = relabel(&g, &perm);
        assert_eq!(r.coords().unwrap()[perm[5]], g.coords().unwrap()[5]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let g = gen::ring(3, 1.0);
        relabel(&g, &[0, 0, 1]);
    }
}
