//! TopoCentLB — the simpler, faster strategy of §4.5.
//!
//! "In the first iteration, the most communicating task is selected and
//! mapped to a processor. In each subsequent iteration, the task that has
//! maximum total communication with already assigned tasks is selected.
//! It is mapped to the free physical processor where it incurs the least
//! total cost of communication (in terms of hop-bytes) with the already
//! assigned tasks." — i.e. first-order estimation with a
//! max-communication selection rule (Baba et al.'s (P3,P4) scheme).
//!
//! Implemented with the paper's heap: selection pops the max-key task in
//! O(log p); key updates for the popped task's neighbors are lazy
//! insertions (stale entries are skipped on pop). The first-order cost
//! table is maintained **incrementally**: each task with a placed
//! neighbor owns a pooled, positionally-indexed cost row over the free
//! list, updated by one bulk distance column per placement (an *edge
//! event* per unplaced neighbor), so placing a task folds one contiguous
//! row instead of rescanning its adjacency for every free processor. The
//! placement, free list and row slots are the `frontier::Frontier` that
//! TopoLB's estimation kernels keep too.
//! The pre-rewrite full-rescan semantics live on as the differential
//! oracle [`crate::naive::NaiveTopoCentLb`].

use crate::frontier::{Frontier, NONE};
use crate::obs;
use crate::{Mapper, Mapping};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{stats::AvgDistTable, Topology};

/// Heap entry ordered by (communication key, then lower task id).
#[derive(Debug, PartialEq)]
pub(crate) struct Entry {
    pub(crate) key: f64,
    pub(crate) task: TaskId,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on key; ties -> lower task id first.
        self.key
            .partial_cmp(&other.key)
            .unwrap()
            .then_with(|| other.task.cmp(&self.task))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The most-communicating task (ties → lowest id) of a non-empty graph:
/// the seed selection, shared with the naive oracle.
pub(crate) fn seed_task(tasks: &TaskGraph) -> TaskId {
    (0..tasks.num_tasks())
        .max_by(|&a, &b| {
            tasks
                .weighted_degree(a)
                .partial_cmp(&tasks.weighted_degree(b))
                .unwrap()
                .then(b.cmp(&a))
        })
        .expect("non-empty task graph")
}

/// Working state of one TopoCentLB run: heap selection plus pooled
/// positional cost rows, one per task on the frontier, kept in step with
/// the frontier's shrinking free list.
struct CentState<'a> {
    tasks: &'a TaskGraph,
    topo: &'a dyn Topology,
    /// Placement, free list, frontier and row slots.
    front: Frontier,
    /// `comm_assigned[t]` = total communication of t with placed tasks.
    comm_assigned: Vec<f64>,
    heap: BinaryHeap<Entry>,
    pushes: u64,
    pops: u64,
    stale: u64,
    row_events: u64,
    /// Pooled cost rows, indexed by `front.row_slot`: `rows[slot][i]` = Σ
    /// over placed neighbors j of the owning task of `c · d(free[i],
    /// P(j))`, accumulated in placement order.
    rows: Vec<Vec<f64>>,
    dist_scratch: Vec<u32>,
}

impl<'a> CentState<'a> {
    fn new(tasks: &'a TaskGraph, topo: &'a dyn Topology) -> Self {
        let n = tasks.num_tasks();
        CentState {
            tasks,
            topo,
            front: Frontier::new(n, topo.num_nodes()),
            comm_assigned: vec![0f64; n],
            heap: BinaryHeap::with_capacity(n * 2),
            pushes: 0,
            pops: 0,
            stale: 0,
            row_events: 0,
            rows: Vec::new(),
            dist_scratch: Vec::new(),
        }
    }

    /// One placement: take q, shrink every live row in sync, retire t's
    /// row, then fire an edge event (comm update + heap push + row
    /// update over one bulk distance column) per unplaced neighbor.
    fn place(&mut self, t: TaskId, q: usize) {
        let qi = self.front.place(t, q);
        for &u in &self.front.active {
            self.rows[self.front.row_slot[u]].swap_remove(qi);
        }

        let nbrs: Vec<(TaskId, f64)> = self
            .tasks
            .neighbors(t)
            .filter(|&(j, _)| !self.front.is_placed(j))
            .collect();
        if nbrs.is_empty() {
            return;
        }
        self.topo
            .distances_into(q, &self.front.free, &mut self.dist_scratch);
        for &(j, c) in &nbrs {
            self.comm_assigned[j] += c;
            self.heap.push(Entry {
                key: self.comm_assigned[j],
                task: j,
            });
            self.pushes += 1;
            self.row_events += 1;
            let (slot, fresh) = self.front.activate(j);
            if slot == self.rows.len() {
                self.rows.push(Vec::new());
            }
            let row = &mut self.rows[slot];
            if fresh {
                row.clear();
                row.extend(self.dist_scratch.iter().map(|&d| c * d as f64));
            } else {
                for (v, &d) in row.iter_mut().zip(&self.dist_scratch) {
                    *v += c * d as f64;
                }
            }
        }
    }
}

/// The TopoCentLB mapping strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopoCentLb;

impl Mapper for TopoCentLb {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        let _map_span = obs::span("topocentlb.map");
        if n == 0 {
            return Mapping::new(Vec::new(), p);
        }
        let mut s = CentState::new(tasks, topo);

        {
            let _seed_span = obs::span("topocentlb.seed");
            // First selection: the most communicating task overall; it goes
            // to the topology center (the processor with minimum average
            // distance — the natural seed for growing a compact region).
            let first = seed_task(tasks);
            let center = AvgDistTable::new(topo).center();
            s.place(first, center);
        }

        let _place_span = obs::span("topocentlb.place");
        for _ in 1..n {
            // Pop the max-communication unplaced task; skip stale entries.
            let t = loop {
                match s.heap.pop() {
                    Some(Entry { key, task })
                        if !s.front.is_placed(task) && key == s.comm_assigned[task] =>
                    {
                        s.pops += 1;
                        break Some(task);
                    }
                    Some(_) => {
                        s.pops += 1;
                        s.stale += 1;
                        continue;
                    }
                    None => break None,
                }
            };
            // Disconnected remainder: pick the lowest-id unplaced task.
            let t = t.unwrap_or_else(|| s.front.first_unplaced());

            // Place on the free processor minimizing first-order cost:
            // one contiguous fold of t's cost row (lowest-id tie-break).
            // No row means no placed neighbor — every free processor
            // costs 0, so the lowest id wins.
            let best_q = match s.front.row_slot[t] {
                NONE => s.front.free.iter().copied().min().unwrap(),
                slot => {
                    let row = &s.rows[slot];
                    let mut best_q = usize::MAX;
                    let mut best_cost = f64::INFINITY;
                    for (i, &cost) in row.iter().enumerate() {
                        let q = s.front.free[i];
                        if cost < best_cost || (cost == best_cost && q < best_q) {
                            best_cost = cost;
                            best_q = q;
                        }
                    }
                    best_q
                }
            };
            s.place(t, best_q);
        }
        obs::counter_add("topocentlb.heap_pushes", s.pushes);
        obs::counter_add("topocentlb.heap_pops", s.pops);
        obs::counter_add("topocentlb.stale_pops", s.stale);
        obs::counter_add("topocentlb.row_events", s.row_events);
        obs::counter_add("topocentlb.placements", n as u64);
        Mapping::new(s.front.placement, p)
    }

    fn name(&self) -> String {
        "TopoCentLB".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, RandomMap, TopoLb};
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    #[test]
    fn maps_injectively() {
        let tasks = gen::stencil2d(5, 5, 10.0, false);
        let topo = Torus::torus_2d(5, 5);
        let m = TopoCentLb.map(&tasks, &topo);
        let mut seen = [false; 25];
        for t in 0..25 {
            assert!(!seen[m.proc_of(t)]);
            seen[m.proc_of(t)] = true;
        }
    }

    #[test]
    fn beats_random() {
        let tasks = gen::stencil2d(8, 8, 100.0, false);
        let topo = Torus::torus_2d(8, 8);
        let cent = metrics::hops_per_byte(&tasks, &topo, &TopoCentLb.map(&tasks, &topo));
        let rnd = metrics::hops_per_byte(&tasks, &topo, &RandomMap::new(1).map(&tasks, &topo));
        assert!(cent < 0.6 * rnd, "TopoCentLB {cent} vs random {rnd}");
    }

    #[test]
    fn close_to_topolb_but_typically_behind() {
        // Paper: "TopoCentLB also results in small values of hops-per-byte
        // ... about 10% higher than those from TopoLB" (§5.2.2). Allow a
        // loose band: within 2x of TopoLB and below random.
        let tasks = gen::stencil2d(8, 8, 100.0, false);
        let topo = Torus::torus_3d(4, 4, 4);
        let lb = metrics::hops_per_byte(&tasks, &topo, &TopoLb::default().map(&tasks, &topo));
        let cent = metrics::hops_per_byte(&tasks, &topo, &TopoCentLb.map(&tasks, &topo));
        assert!(cent <= 2.0 * lb, "TopoCentLB {cent} vs TopoLB {lb}");
    }

    #[test]
    fn handles_disconnected_tasks() {
        // Two disjoint rings: heap drains between components.
        let mut b = topomap_taskgraph::TaskGraph::builder(8);
        for i in 0..4usize {
            b.add_comm(i, (i + 1) % 4, 10.0);
            b.add_comm(4 + i, 4 + (i + 1) % 4, 10.0);
        }
        let tasks = b.build();
        let topo = Torus::torus_2d(3, 3);
        let m = TopoCentLb.map(&tasks, &topo);
        assert_eq!(m.num_tasks(), 8);
    }

    #[test]
    fn handles_edgeless_graph() {
        let tasks = topomap_taskgraph::TaskGraph::builder(4).build();
        let topo = Torus::torus_2d(2, 2);
        let m = TopoCentLb.map(&tasks, &topo);
        assert_eq!(m.num_tasks(), 4);
    }

    #[test]
    fn deterministic() {
        let tasks = gen::random_graph(40, 4.0, 1.0, 100.0, 9);
        let topo = Torus::torus_2d(7, 6);
        assert_eq!(TopoCentLb.map(&tasks, &topo), TopoCentLb.map(&tasks, &topo));
    }

    #[test]
    fn first_task_lands_on_center() {
        let tasks = gen::stencil2d(3, 3, 10.0, false);
        let topo = Torus::mesh_2d(3, 3);
        let m = TopoCentLb.map(&tasks, &topo);
        // Most-communicating task in a 3x3 open stencil is the center
        // task 4 (degree 4); mesh center is node 4.
        assert_eq!(m.proc_of(4), 4);
    }
}
