//! # topomap-partition
//!
//! Graph partitioners for the first phase of the paper's two-phased
//! mapping approach (§4): "the partitioning phase involves partitioning
//! the objects (oblivious to network-topology) into p groups", balancing
//! compute load and — for the cut-reducing partitioners — keeping heavily
//! communicating objects in the same group.
//!
//! The paper uses METIS (or Charm++'s topology-oblivious strategies like
//! GreedyLB) for this phase. This crate provides both substitutes:
//!
//! - [`MultilevelKWay`] — a METIS-style multilevel k-way partitioner:
//!   heavy-edge-matching coarsening, greedy graph-growing initial
//!   partitioning, and FM-style boundary refinement under a balance
//!   constraint.
//! - [`GreedyLoad`] — GreedyLB's algorithm: sort tasks by load, place each
//!   on the currently least-loaded group (communication-oblivious).
//! - [`RandomPartition`] — seeded random assignment.
//!
//! ```
//! use topomap_partition::{MultilevelKWay, Partitioner};
//! use topomap_taskgraph::gen;
//!
//! let g = gen::stencil2d(16, 16, 1024.0, false);
//! let part = MultilevelKWay::default().partition(&g, 8);
//! assert_eq!(part.num_parts(), 8);
//! assert!(part.imbalance() < 1.15); // near-balanced group sizes
//! ```

mod greedy;
mod multilevel;
mod random;

pub use greedy::GreedyLoad;
pub use multilevel::MultilevelKWay;
pub use random::RandomPartition;

use topomap_taskgraph::TaskGraph;

/// A k-way partition of a task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    assignment: Vec<usize>,
    k: usize,
}

impl Partition {
    /// Wrap an assignment vector. Panics if any part id is `>= k`.
    pub fn new(assignment: Vec<usize>, k: usize) -> Self {
        assert!(k > 0);
        assert!(assignment.iter().all(|&p| p < k), "part id out of range");
        Partition { assignment, k }
    }

    /// `part_of[t]` = the group task `t` belongs to.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    pub fn part_of(&self, task: usize) -> usize {
        self.assignment[task]
    }

    pub fn num_parts(&self) -> usize {
        self.k
    }

    pub fn num_tasks(&self) -> usize {
        self.assignment.len()
    }

    /// Number of tasks in each part.
    pub(crate) fn part_sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k];
        for &p in &self.assignment {
            s[p] += 1;
        }
        s
    }

    /// Per-part compute loads for the weights in `g`.
    pub(crate) fn part_loads(&self, g: &TaskGraph) -> Vec<f64> {
        assert_eq!(g.num_tasks(), self.assignment.len());
        let mut loads = vec![0f64; self.k];
        for (t, &p) in self.assignment.iter().enumerate() {
            loads[p] += g.vertex_weight(t);
        }
        loads
    }

    /// Max part load over average part load (1.0 = perfect balance),
    /// under the compute weights in `g`.
    pub fn imbalance_for(&self, g: &TaskGraph) -> f64 {
        let loads = self.part_loads(g);
        let total: f64 = loads.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        let avg = total / self.k as f64;
        loads.iter().fold(0.0f64, |m, &l| m.max(l)) / avg
    }

    /// Unit-weight imbalance: max part *size* over average part size.
    pub fn imbalance(&self) -> f64 {
        let sizes = self.part_sizes();
        let avg = self.assignment.len() as f64 / self.k as f64;
        if avg == 0.0 {
            return 1.0;
        }
        sizes.iter().fold(0.0f64, |m, &s| m.max(s as f64)) / avg
    }

    /// Total weight of edges crossing between parts ("inter-partition
    /// communication", the quantity cut-reducing phase-1 partitioners
    /// minimize).
    pub fn edge_cut(&self, g: &TaskGraph) -> f64 {
        assert_eq!(g.num_tasks(), self.assignment.len());
        g.edges()
            .filter(|&(a, b, _)| self.assignment[a] != self.assignment[b])
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Coalesce the graph along this partition (phase-1 output → the
    /// p-node group graph that gets mapped in phase 2).
    pub fn coalesce(&self, g: &TaskGraph) -> TaskGraph {
        g.coalesce(&self.assignment, self.k)
    }
}

/// A topology-oblivious partitioner: splits `n` tasks into `k` groups.
pub trait Partitioner {
    /// Partition `g` into `k` groups. Implementations must return a
    /// partition where every group id is `< k`; groups may be empty only
    /// when `k > g.num_tasks()`.
    fn partition(&self, g: &TaskGraph, k: usize) -> Partition;

    /// Name for experiment output.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;

    #[test]
    fn partition_accessors() {
        let p = Partition::new(vec![0, 1, 0, 2], 3);
        assert_eq!(p.num_parts(), 3);
        assert_eq!(p.num_tasks(), 4);
        assert_eq!(p.part_of(2), 0);
        assert_eq!(p.part_sizes(), vec![2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_part_id_rejected() {
        Partition::new(vec![0, 3], 3);
    }

    #[test]
    fn edge_cut_counts_crossing_only() {
        let g = gen::ring(4, 10.0); // edges of weight 20 each
                                    // Parts {0,1} {2,3}: edges 1-2 and 3-0 cross.
        let p = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.edge_cut(&g), 40.0);
        // All in one part: no cut.
        let p1 = Partition::new(vec![0, 0, 0, 0], 1);
        assert_eq!(p1.edge_cut(&g), 0.0);
    }

    #[test]
    fn imbalance_unit_weights() {
        let p = Partition::new(vec![0, 0, 0, 1], 2);
        assert_eq!(p.imbalance(), 1.5);
        let balanced = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(balanced.imbalance(), 1.0);
    }

    #[test]
    fn part_loads_use_graph_weights() {
        let mut b = topomap_taskgraph::TaskGraph::builder(3);
        b.set_task_weight(0, 1.0)
            .set_task_weight(1, 2.0)
            .set_task_weight(2, 3.0);
        let g = b.build();
        let p = Partition::new(vec![0, 1, 1], 2);
        assert_eq!(p.part_loads(&g), vec![1.0, 5.0]);
        assert!((p.imbalance_for(&g) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn coalesce_through_partition() {
        let g = gen::stencil2d(4, 4, 1.0, false);
        let assignment: Vec<usize> = (0..16).map(|t| t / 4).collect();
        let p = Partition::new(assignment, 4);
        let c = p.coalesce(&g);
        assert_eq!(c.num_tasks(), 4);
        assert_eq!(c.total_vertex_weight(), 16.0);
    }
}
