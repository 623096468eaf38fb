//! Linear-ordering mapper — the Taura & Chien scheme from the paper's
//! related work (§2, ref \[21\]): "tasks are linearly ordered with more
//! communicating tasks placed closer, and the tasks are mapped in this
//! order" onto a linearized processor sequence.
//!
//! Both sides become one-dimensional:
//!
//! - **Tasks** are ordered by a greedy communication-weighted BFS: start
//!   from the heaviest communicator, repeatedly append the unplaced task
//!   most strongly connected to the already-ordered prefix (a cheap
//!   linear arrangement).
//! - **Processors** are ordered by distance from the topology center
//!   (ties by id), which works for any metric, fat-trees included.
//!
//! O(n²) worst case but with tiny constants; lands between random and
//! TopoCentLB in quality, which is exactly the role the related-work
//! comparison needs.

use crate::{Mapper, Mapping};
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{stats::AvgDistTable, NodeId, Topology};

/// Greedy communication-weighted linear arrangement of tasks.
fn task_order(tasks: &TaskGraph) -> Vec<TaskId> {
    let n = tasks.num_tasks();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    // Connection of each unplaced task to the ordered prefix.
    let mut conn = vec![0f64; n];
    for _ in 0..n {
        // Next: strongest connection to prefix; fall back to heaviest
        // communicator (starts a new component / the very first task).
        let next = (0..n)
            .filter(|&t| !placed[t])
            .max_by(|&a, &b| {
                (conn[a], tasks.weighted_degree(a), std::cmp::Reverse(a))
                    .partial_cmp(&(conn[b], tasks.weighted_degree(b), std::cmp::Reverse(b)))
                    .unwrap()
            })
            .expect("tasks remain");
        placed[next] = true;
        order.push(next);
        for (u, w) in tasks.neighbors(next) {
            if !placed[u] {
                conn[u] += w;
            }
        }
    }
    order
}

/// The Taura–Chien-style linear-ordering mapper: tasks in greedy
/// linear-arrangement order onto processors in center-out distance order.
#[derive(Debug, Clone, Default)]
pub struct LinearOrderMap;

impl LinearOrderMap {
    /// Distance-sorted order from the topology center (works for any
    /// metric, including fat-trees).
    pub fn bfs() -> Self {
        LinearOrderMap
    }

    fn effective_order(&self, topo: &dyn Topology) -> Vec<NodeId> {
        let center = AvgDistTable::new(topo).center();
        let mut order: Vec<NodeId> = (0..topo.num_nodes()).collect();
        order.sort_by_key(|&q| (topo.distance(center, q), q));
        order
    }
}

impl Mapper for LinearOrderMap {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "need at least as many processors as tasks");
        let procs = self.effective_order(topo);
        let torder = task_order(tasks);
        let mut proc_of = vec![usize::MAX; n];
        for (i, &t) in torder.iter().enumerate() {
            proc_of[t] = procs[i];
        }
        Mapping::new(proc_of, p)
    }

    fn name(&self) -> String {
        "LinearOrder(bfs)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, RandomMap};
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    #[test]
    fn bfs_order_works_on_metric_only_topology() {
        let tasks = gen::ring(8, 10.0);
        let ft = topomap_topology::FatTree::new(2, 3);
        let m = LinearOrderMap::bfs().map(&tasks, &ft);
        assert_eq!(m.num_tasks(), 8);
        let rnd = RandomMap::new(2).map(&tasks, &ft);
        assert!(
            metrics::hop_bytes(&tasks, &ft, &m) <= metrics::hop_bytes(&tasks, &ft, &rnd) + 1e-9
        );
    }

    #[test]
    fn deterministic() {
        let tasks = gen::random_graph(30, 4.0, 1.0, 10.0, 3);
        let machine = Torus::torus_2d(6, 5);
        let a = LinearOrderMap::bfs().map(&tasks, &machine);
        let b = LinearOrderMap::bfs().map(&tasks, &machine);
        assert_eq!(a, b);
    }
}
