//! The two-phased approach of §4: partition (topology-oblivious), then map
//! (topology-aware).
//!
//! "In the first phase, called the partitioning phase, ... partitioning
//! the objects (oblivious to network-topology) into p groups. ... In the
//! next phase, the mapping phase, the p groups are mapped onto the p
//! processors with the objective of placing communicating groups on
//! nearby processors."

use crate::{metrics, obs, Mapper, Mapping};
use topomap_partition::{Partition, Partitioner};
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{NodeId, Topology};

/// The full output of a two-phase run: the phase-1 partition, the
/// coalesced group graph, and the phase-2 group mapping.
#[derive(Debug, Clone)]
pub struct TwoPhaseResult {
    pub partition: Partition,
    pub group_graph: TaskGraph,
    pub group_mapping: Mapping,
}

impl TwoPhaseResult {
    /// Processor hosting an original (pre-coalescing) task.
    pub(crate) fn proc_of_task(&self, t: TaskId) -> NodeId {
        self.group_mapping.proc_of(self.partition.part_of(t))
    }

    /// Full task→processor vector for the original graph.
    pub fn task_placement(&self) -> Vec<NodeId> {
        (0..self.partition.num_tasks())
            .map(|t| self.proc_of_task(t))
            .collect()
    }

    /// Hops-per-byte of the group graph under the group mapping — the
    /// quantity the paper plots in Figures 1–6. (Intra-group communication
    /// is processor-local and contributes no hops by definition.)
    pub fn hops_per_byte(&self, topo: &dyn Topology) -> f64 {
        metrics::hops_per_byte(&self.group_graph, topo, &self.group_mapping)
    }

    /// Hop-bytes of the group graph under the group mapping.
    pub fn hop_bytes(&self, topo: &dyn Topology) -> f64 {
        metrics::hop_bytes(&self.group_graph, topo, &self.group_mapping)
    }
}

/// Run the two-phase pipeline: partition `tasks` into `topo.num_nodes()`
/// groups with `partitioner`, coalesce, then map the group graph with
/// `mapper`.
///
/// When the task count already equals the processor count the partition
/// step degenerates to singleton groups (the paper's §5.2.1 setup, "the
/// number of tasks created is the same as the number of processors").
pub fn two_phase(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    partitioner: &dyn Partitioner,
    mapper: &dyn Mapper,
) -> TwoPhaseResult {
    let p = topo.num_nodes();
    obs::counter_add("pipeline.tasks", tasks.num_tasks() as u64);
    obs::counter_add("pipeline.groups", p as u64);
    // The partition crate sits below `obs`, so phase 1 is named here.
    let partition = {
        let _span = obs::span("pipeline.partition");
        if tasks.num_tasks() == p {
            Partition::new((0..p).collect(), p)
        } else {
            partitioner.partition(tasks, p)
        }
    };
    let group_graph = {
        let _span = obs::span("pipeline.coalesce");
        partition.coalesce(tasks)
    };
    let group_mapping = {
        let _span = obs::span("pipeline.map");
        mapper.map(&group_graph, topo)
    };
    TwoPhaseResult {
        partition,
        group_graph,
        group_mapping,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RandomMap, TopoLb};
    use topomap_partition::{GreedyLoad, MultilevelKWay};
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    #[test]
    fn pipeline_covers_all_tasks() {
        let tasks = gen::stencil2d(12, 12, 100.0, false); // 144 tasks
        let topo = Torus::torus_2d(4, 4); // 16 procs
        let r = two_phase(
            &tasks,
            &topo,
            &MultilevelKWay::default(),
            &TopoLb::default(),
        );
        assert_eq!(r.partition.num_parts(), 16);
        assert_eq!(r.group_graph.num_tasks(), 16);
        let placement = r.task_placement();
        assert_eq!(placement.len(), 144);
        assert!(placement.iter().all(|&p| p < 16));
    }

    #[test]
    fn equal_sizes_skip_partitioning() {
        let tasks = gen::stencil2d(4, 4, 1.0, false);
        let topo = Torus::torus_2d(4, 4);
        let r = two_phase(
            &tasks,
            &topo,
            &MultilevelKWay::default(),
            &TopoLb::default(),
        );
        // Singleton groups preserve the graph exactly.
        assert_eq!(r.group_graph.num_edges(), tasks.num_edges());
        assert_eq!(r.group_graph.total_comm(), tasks.total_comm());
    }

    #[test]
    fn topolb_pipeline_beats_random_pipeline() {
        let tasks = gen::leanmd(32, &gen::LeanMdConfig::default());
        let topo = Torus::torus_2d(8, 4);
        let ml = MultilevelKWay::default();
        let good = two_phase(&tasks, &topo, &ml, &TopoLb::default());
        let bad = two_phase(&tasks, &topo, &ml, &RandomMap::new(5));
        assert!(good.hops_per_byte(&topo) < bad.hops_per_byte(&topo));
        // GreedyLB: load-only groups placed at random, the paper's
        // "essentially random" baseline. Its groups differ from the
        // multilevel ones, so the two compare on hop-bytes.
        let greedy = two_phase(&tasks, &topo, &GreedyLoad, &RandomMap::new(5));
        assert!(good.hop_bytes(&topo) < greedy.hop_bytes(&topo));
    }

    #[test]
    fn group_loads_balanced() {
        let tasks = gen::stencil2d(16, 16, 1.0, false);
        let topo = Torus::torus_2d(4, 4);
        let r = two_phase(
            &tasks,
            &topo,
            &MultilevelKWay::default(),
            &TopoLb::default(),
        );
        let imb = r.partition.imbalance_for(&tasks);
        assert!(imb <= 1.35, "group imbalance {imb}");
    }
}
