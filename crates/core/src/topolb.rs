//! TopoLB — Algorithm 1 of the paper.
//!
//! Iteratively builds the mapping: in each cycle, compute for every
//! unplaced task the *gain* it stands to achieve by being placed now —
//! the difference between its expected cost on an arbitrary free processor
//! (`FAvg`) and its cost on its best processor (`FMin`) — then place the
//! maximum-gain task on its cheapest free processor. The intuition (§4.1):
//! if a task would do almost as well anywhere, placing it can wait; if its
//! best spot is much better than average, claiming that spot now is
//! critical.

use crate::estimation::{EstimationOrder, EstimationState};
use crate::obs;
use crate::par::Parallelism;
use crate::{Mapper, Mapping};
use topomap_taskgraph::TaskGraph;
use topomap_topology::Topology;

/// The TopoLB mapping strategy.
///
/// `order` selects the estimation function; the default is the paper's
/// production choice (second order, O(p·|Et|) total work). Third order is
/// tighter but O(p³) — the paper keeps it for comparison, and so do we
/// (see the `estimation_order` ablation bench).
///
/// `par` selects the thread count for third-order TopoLB's frontier-wide
/// refold, the one region the estimation kernels fan out; first and
/// second order run serially at any setting. Every setting produces the
/// same mapping bit-for-bit (see [`crate::par`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TopoLb {
    pub order: EstimationOrder,
    pub par: Parallelism,
}

impl TopoLb {
    pub fn new(order: EstimationOrder) -> Self {
        TopoLb {
            order,
            par: Parallelism::default(),
        }
    }

    pub fn with_parallelism(order: EstimationOrder, par: Parallelism) -> Self {
        TopoLb { order, par }
    }
}

impl Mapper for TopoLb {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        let _map_span = obs::span("topolb.map");
        if obs::enabled() {
            obs::counter_add(&format!("topolb.order.{}", self.order.label()), 1);
        }
        let mut state = EstimationState::with_parallelism(tasks, topo, self.order, self.par);
        let mut proc_of = vec![usize::MAX; n];
        let _place_span = obs::span("topolb.place");
        for _ in 0..n {
            let t = obs::time_counter("topolb.select_ns", || state.select_task());
            let q = state.best_proc(t);
            proc_of[t] = q;
            obs::time_counter("topolb.assign_ns", || state.assign(t, q));
        }
        obs::counter_add("topolb.placements", n as u64);
        Mapping::new(proc_of, p)
    }

    fn name(&self) -> String {
        match self.order {
            EstimationOrder::Second => "TopoLB".to_string(),
            o => format!("TopoLB({})", o.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, RandomMap};
    use topomap_taskgraph::gen;
    use topomap_topology::{GraphTopology, Hypercube, Torus};

    #[test]
    fn maps_every_task_injectively() {
        let tasks = gen::stencil2d(4, 4, 100.0, false);
        let topo = Torus::torus_2d(4, 4);
        let m = TopoLb::default().map(&tasks, &topo);
        let mut seen = [false; 16];
        for t in 0..16 {
            let p = m.proc_of(t);
            assert!(!seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn beats_random_on_stencil() {
        let tasks = gen::stencil2d(6, 6, 100.0, false);
        let topo = Torus::torus_2d(6, 6);
        let lb = TopoLb::default().map(&tasks, &topo);
        let rnd = RandomMap::new(3).map(&tasks, &topo);
        let h_lb = metrics::hops_per_byte(&tasks, &topo, &lb);
        let h_rnd = metrics::hops_per_byte(&tasks, &topo, &rnd);
        assert!(
            h_lb < 0.6 * h_rnd,
            "TopoLB {h_lb} should be well below random {h_rnd}"
        );
    }

    #[test]
    fn near_optimal_on_mesh_to_torus() {
        // Paper §5.2.1: "TopoLB actually produces an optimal mapping in
        // most cases" for 2D-mesh onto 2D-torus. Accept near-optimal.
        for side in [4usize, 6, 8] {
            let tasks = gen::stencil2d(side, side, 100.0, false);
            let topo = Torus::torus_2d(side, side);
            let m = TopoLb::default().map(&tasks, &topo);
            let hpb = metrics::hops_per_byte(&tasks, &topo, &m);
            assert!(
                hpb <= 1.35,
                "side {side}: TopoLB hops-per-byte {hpb} should be near 1"
            );
        }
    }

    #[test]
    fn works_on_all_estimation_orders() {
        let tasks = gen::stencil2d(4, 4, 10.0, false);
        let topo = Torus::torus_2d(4, 4);
        for order in [
            EstimationOrder::First,
            EstimationOrder::Second,
            EstimationOrder::Third,
        ] {
            let m = TopoLb::new(order).map(&tasks, &topo);
            let hpb = metrics::hops_per_byte(&tasks, &topo, &m);
            assert!(hpb >= 1.0, "hops-per-byte below the embedding bound?");
            assert!(hpb < 3.0, "{}: hpb {hpb} unexpectedly poor", order.label());
        }
    }

    #[test]
    fn works_with_fewer_tasks_than_procs() {
        let tasks = gen::ring(5, 10.0);
        let topo = Torus::torus_2d(3, 3);
        let m = TopoLb::default().map(&tasks, &topo);
        assert_eq!(m.num_tasks(), 5);
        // A 5-ring cannot embed at dilation 1 in a 3x3 torus... it can:
        // rings embed in any 2D torus with a cycle of length 5? A 3x3
        // torus is vertex-transitive with girth 3; a closed walk of length
        // 5 exists (3 + 2 wrap), so optimal hpb can reach 1. Accept <= 1.5.
        let hpb = metrics::hops_per_byte(&tasks, &topo, &m);
        assert!(hpb <= 1.5, "hpb = {hpb}");
    }

    #[test]
    fn works_on_irregular_topology() {
        let topo = GraphTopology::ring(9);
        let tasks = gen::ring(9, 10.0);
        let m = TopoLb::default().map(&tasks, &topo);
        let hpb = metrics::hops_per_byte(&tasks, &topo, &m);
        assert!(hpb <= 1.5, "ring-on-ring should be near optimal, got {hpb}");
    }

    #[test]
    fn works_on_hypercube() {
        let topo = Hypercube::new(4);
        let tasks = gen::stencil2d(4, 4, 10.0, true);
        let m = TopoLb::default().map(&tasks, &topo);
        // A 4x4 periodic stencil embeds in a 4-cube (it *is* Q4 ⊇ C4×C4).
        let hpb = metrics::hops_per_byte(&tasks, &topo, &m);
        let rnd = metrics::hops_per_byte(&tasks, &topo, &RandomMap::new(0).map(&tasks, &topo));
        assert!(hpb < rnd);
    }

    #[test]
    fn deterministic() {
        let tasks = gen::random_graph(30, 4.0, 1.0, 100.0, 5);
        let topo = Torus::torus_2d(6, 5);
        let a = TopoLb::default().map(&tasks, &topo);
        let b = TopoLb::default().map(&tasks, &topo);
        assert_eq!(a, b);
    }

    #[test]
    fn names() {
        assert_eq!(TopoLb::default().name(), "TopoLB");
        assert_eq!(
            TopoLb::new(EstimationOrder::Third).name(),
            "TopoLB(third-order)"
        );
    }
}
