//! Isomorphism ("optimal") mappings.
//!
//! Table 1 compares random placement against "the optimal mapping (a
//! simple isomorphism mapping)": when the task pattern is generated with
//! the same row-major numbering as the target mesh/torus, the identity
//! map places every pair of communicating tasks on adjacent processors,
//! achieving the ideal hops-per-byte of 1.

use crate::{Mapper, Mapping};
use topomap_taskgraph::TaskGraph;
use topomap_topology::Topology;

/// Identity mapping: task `i` on processor `i`.
///
/// Only *optimal* when the task graph is (a subgraph of) the topology
/// graph under identity numbering — e.g. a row-major `a×b` stencil onto a
/// row-major `a×b` mesh or torus.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityMap;

impl Mapper for IdentityMap {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "need at least as many processors as tasks");
        Mapping::new((0..n).collect(), p)
    }

    fn name(&self) -> String {
        "Optimal(identity)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    /// Does the identity map achieve dilation 1 for this pair (i.e. is
    /// every task edge a topology edge)?
    fn verify_dilation_one(tasks: &TaskGraph, topo: &dyn Topology) -> bool {
        tasks.num_tasks() <= topo.num_nodes()
            && tasks.edges().all(|(a, b, _)| topo.distance(a, b) == 1)
    }

    #[test]
    fn identity_on_matching_stencil_is_optimal() {
        let tasks = gen::stencil3d(8, 8, 8, 1000.0, false);
        let topo = Torus::mesh_3d(8, 8, 8);
        assert!(verify_dilation_one(&tasks, &topo));
        let m = IdentityMap.map(&tasks, &topo);
        assert_eq!(metrics::hops_per_byte(&tasks, &topo, &m), 1.0);
    }

    #[test]
    fn mesh_pattern_on_torus_is_still_dilation_one() {
        // The torus contains the mesh: wraparound links are simply unused.
        let tasks = gen::stencil2d(6, 6, 1.0, false);
        let topo = Torus::torus_2d(6, 6);
        assert!(verify_dilation_one(&tasks, &topo));
    }

    #[test]
    fn periodic_pattern_on_open_mesh_is_not() {
        // Wraparound task edges stretch across the open mesh.
        let tasks = gen::stencil2d(4, 4, 1.0, true);
        let topo = Torus::mesh_2d(4, 4);
        assert!(!verify_dilation_one(&tasks, &topo));
    }

    #[test]
    fn shape_mismatch_detected() {
        let tasks = gen::stencil2d(4, 4, 1.0, false); // 16 tasks, 4x4 numbering
        let topo = Torus::mesh_2d(2, 8); // same size, different shape
        assert!(!verify_dilation_one(&tasks, &topo));
    }
}
