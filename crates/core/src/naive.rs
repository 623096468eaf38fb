//! Naive (pre-optimization) mapper twins for the differential test suite.
//!
//! [`NaiveTopoLb`] and [`NaiveTopoCentLb`] implement exactly the same
//! selection/placement semantics as the production [`crate::TopoLb`] and
//! [`crate::TopoCentLb`], but from their straightforward defining
//! recurrences: dense id-indexed tables, per-element distance calls, no
//! row pooling, no dirty tracking, no parallelism. They are the *oracles*
//! of `tests/incremental_equivalence.rs`, which pins the incremental
//! kernels **bit-identical** to them. Compiled unconditionally (but
//! `#[doc(hidden)]`) so every future PR can cross-check.

use crate::estimation::EstimationOrder;
use crate::estimation_naive::NaiveEstimationState;
use crate::topocentlb::{seed_task, Entry};
use crate::{Mapper, Mapping};
use std::collections::BinaryHeap;
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{stats::AvgDistTable, Topology};

/// Dense-table oracle twin of [`crate::TopoLb`]. Serial, no obs output.
#[derive(Debug, Clone, Copy)]
pub struct NaiveTopoLb {
    pub order: EstimationOrder,
}

impl Default for NaiveTopoLb {
    fn default() -> Self {
        NaiveTopoLb {
            order: EstimationOrder::Second,
        }
    }
}

impl Mapper for NaiveTopoLb {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        let mut state = NaiveEstimationState::new(tasks, topo, self.order);
        let mut proc_of = vec![usize::MAX; n];
        for _ in 0..n {
            let t = state.select_task();
            let q = state.best_proc(t);
            proc_of[t] = q;
            state.assign(t, q);
        }
        Mapping::new(proc_of, p)
    }

    fn name(&self) -> String {
        format!("NaiveTopoLB({})", self.order.label())
    }
}

/// Full-rescan oracle twin of [`crate::TopoCentLb`]: same heap-based
/// selection, but placement cost is recomputed from a dense id-indexed
/// contribution table scanned over all processors in id order.
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveTopoCentLb;

impl Mapper for NaiveTopoCentLb {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "need at least as many processors as tasks");
        if n == 0 {
            return Mapping::new(Vec::new(), p);
        }

        let mut proc_of = vec![usize::MAX; n];
        let mut placed = vec![false; n];
        let mut is_free = vec![true; p];
        let mut comm_assigned = vec![0f64; n];
        let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(n * 2);
        // cost[t * p + q] = Σ over placed neighbors j of c · d(q, P(j)),
        // accumulated per placement event in the same order as the fast
        // kernel's pooled rows — bit-equal values by construction.
        let mut cost = vec![0.0f64; n * p];

        // Identical placement event schedule to the fast kernel.
        #[allow(clippy::too_many_arguments)]
        fn place(
            tasks: &TaskGraph,
            topo: &dyn Topology,
            t: TaskId,
            q: usize,
            proc_of: &mut [usize],
            placed: &mut [bool],
            is_free: &mut [bool],
            comm_assigned: &mut [f64],
            heap: &mut BinaryHeap<Entry>,
            cost: &mut [f64],
        ) {
            let p = topo.num_nodes();
            proc_of[t] = q;
            placed[t] = true;
            is_free[q] = false;
            for (j, c) in tasks.neighbors(t) {
                if placed[j] {
                    continue;
                }
                comm_assigned[j] += c;
                heap.push(Entry {
                    key: comm_assigned[j],
                    task: j,
                });
                for (r, slot) in cost[j * p..(j + 1) * p].iter_mut().enumerate() {
                    *slot += c * topo.distance(r, q) as f64;
                }
            }
        }

        let first = seed_task(tasks);
        let center = AvgDistTable::new(topo).center();
        place(
            tasks,
            topo,
            first,
            center,
            &mut proc_of,
            &mut placed,
            &mut is_free,
            &mut comm_assigned,
            &mut heap,
            &mut cost,
        );

        for _ in 1..n {
            let t = loop {
                match heap.pop() {
                    Some(Entry { key, task }) if !placed[task] && key == comm_assigned[task] => {
                        break Some(task);
                    }
                    Some(_) => continue,
                    None => break None,
                }
            };
            let t = t.unwrap_or_else(|| (0..n).find(|&x| !placed[x]).unwrap());

            // Full scan in processor-id order; strict `<` keeps the lowest
            // id among ties — the same (cost, id) lexmin as the fast fold.
            let mut best_q = usize::MAX;
            let mut best_cost = f64::INFINITY;
            for q in 0..p {
                if !is_free[q] {
                    continue;
                }
                let cq = cost[t * p + q];
                if cq < best_cost {
                    best_cost = cq;
                    best_q = q;
                }
            }
            place(
                tasks,
                topo,
                t,
                best_q,
                &mut proc_of,
                &mut placed,
                &mut is_free,
                &mut comm_assigned,
                &mut heap,
                &mut cost,
            );
        }
        Mapping::new(proc_of, p)
    }

    fn name(&self) -> String {
        "NaiveTopoCentLB".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    #[test]
    fn naive_mappers_produce_valid_mappings() {
        let tasks = gen::stencil2d(4, 4, 10.0, false);
        let topo = Torus::torus_2d(4, 4);
        for m in [
            NaiveTopoLb::default().map(&tasks, &topo),
            NaiveTopoCentLb.map(&tasks, &topo),
        ] {
            let mut seen = [false; 16];
            for t in 0..16 {
                assert!(!seen[m.proc_of(t)]);
                seen[m.proc_of(t)] = true;
            }
        }
    }

    #[test]
    fn names() {
        assert_eq!(NaiveTopoLb::default().name(), "NaiveTopoLB(second-order)");
        assert_eq!(NaiveTopoCentLb.name(), "NaiveTopoCentLB");
    }
}
