//! # topomap-core
//!
//! The paper's primary contribution: topology-aware task-mapping
//! heuristics that minimize **hop-bytes** — the total inter-processor
//! communication volume weighted by the distance it travels:
//!
//! ```text
//! HB(Gt, Gp, P) = Σ_{e_ab ∈ Et} c_ab · d_p(P(a), P(b))
//! ```
//!
//! Provided mappers (all implement [`Mapper`]):
//!
//! - [`TopoLb`] — Algorithm 1 of the paper: each iteration places the task
//!   whose placement is most *critical* (maximum gain `FAvg − FMin` of its
//!   estimation function) on the free processor where it costs least. The
//!   estimation function comes in three [`EstimationOrder`]s (§4.3);
//!   the paper ships the second order for its O(p·|Et|) running time.
//! - [`TopoCentLb`] — the simpler heap-based strategy of §4.5: pick the
//!   task with maximum communication to already-placed tasks (first-order
//!   estimation), place it where that communication is cheapest. This is
//!   the (P3,P4) scheme of Baba et al.
//! - [`RefineTopoLb`] — the §5.2.3 refiner: pairwise swaps accepted only
//!   when they reduce hop-bytes, applied after an initial mapping.
//! - [`RandomMap`] — the random-placement baseline.
//! - [`IdentityMap`] — the "simple isomorphism mapping" used as the optimal
//!   mapping in Table 1 (valid when the task pattern is a subgraph of the
//!   topology under identity numbering).
//!
//! Metrics live in [`metrics`]; the two-phase partition-then-map driver of
//! §4 lives in [`pipeline`].
//!
//! ```
//! use topomap_core::{Mapper, TopoLb, RandomMap, metrics};
//! use topomap_taskgraph::gen;
//! use topomap_topology::Torus;
//!
//! let tasks = gen::stencil2d(8, 8, 1024.0, false); // 2D-mesh pattern
//! let torus = Torus::torus_2d(8, 8);
//! let topo_lb = TopoLb::default().map(&tasks, &torus);
//! let random = RandomMap::new(42).map(&tasks, &torus);
//! let hpb_lb = metrics::hops_per_byte(&tasks, &torus, &topo_lb);
//! let hpb_rand = metrics::hops_per_byte(&tasks, &torus, &random);
//! assert!(hpb_lb < hpb_rand); // topology-awareness wins
//! ```

#![forbid(unsafe_code)]

pub(crate) mod anneal;
pub mod contention;
pub mod estimation;
#[doc(hidden)]
pub mod estimation_naive;
pub(crate) mod estimation_uniform;
mod frontier;
pub(crate) mod genetic;
pub mod geom;
pub(crate) mod hierarchy;
pub(crate) mod linear;
pub mod metrics;
#[doc(hidden)]
pub mod naive;
pub mod obs;
pub(crate) mod optimal;
pub mod par;
pub mod pipeline;
pub(crate) mod random;
pub mod refine;
pub(crate) mod topocentlb;
pub(crate) mod topolb;

pub use anneal::SimulatedAnnealingMap;
pub use contention::{ContentionRefine, ContentionReport, SimObservation};
pub use estimation::EstimationOrder;
pub use genetic::GeneticMap;
pub use geom::{synthesize_coords, Curve, GeomError, RcbMap, SfcMap};
pub use hierarchy::{auto_arities, HierMapper};
pub use linear::LinearOrderMap;
pub use optimal::IdentityMap;
pub use par::{Parallelism, Threads};
pub use random::RandomMap;
pub use refine::RefineTopoLb;
pub use topocentlb::TopoCentLb;
pub use topolb::TopoLb;

use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{NodeId, Topology};

/// A task mapping `P : V_t → V_p` (injective; every task on its own
/// processor — the phase-2 object of the paper, where the task graph has
/// been coalesced to at most `p` groups).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    proc_of: Vec<NodeId>,
    /// Inverse: `task_on[p]` = task on processor `p`, or `usize::MAX`.
    task_on: Vec<usize>,
}

impl Mapping {
    /// Build from a task→processor vector. Panics if two tasks share a
    /// processor or a processor id is out of range.
    pub fn new(proc_of: Vec<NodeId>, num_procs: usize) -> Self {
        Self::try_new(proc_of, num_procs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Mapping::new`] for a vector from outside the program: the
    /// violated condition comes back as an error instead of a panic.
    pub fn try_new(proc_of: Vec<NodeId>, num_procs: usize) -> Result<Self, String> {
        if proc_of.len() > num_procs {
            return Err(format!(
                "more tasks ({}) than processors ({num_procs})",
                proc_of.len()
            ));
        }
        let mut task_on = vec![usize::MAX; num_procs];
        for (t, &p) in proc_of.iter().enumerate() {
            match task_on.get(p) {
                None => return Err(format!("processor id {p} out of range 0..{num_procs}")),
                Some(&prev) if prev != usize::MAX => {
                    return Err(format!(
                        "processor {p} assigned twice (tasks {prev} and {t})"
                    ))
                }
                Some(_) => task_on[p] = t,
            }
        }
        Ok(Mapping { proc_of, task_on })
    }

    /// Processor hosting task `t`.
    #[inline]
    pub fn proc_of(&self, t: TaskId) -> NodeId {
        self.proc_of[t]
    }

    /// Task hosted on processor `p`, if any.
    #[inline]
    pub(crate) fn task_on(&self, p: NodeId) -> Option<TaskId> {
        match self.task_on[p] {
            usize::MAX => None,
            t => Some(t),
        }
    }

    pub fn num_tasks(&self) -> usize {
        self.proc_of.len()
    }

    pub fn num_procs(&self) -> usize {
        self.task_on.len()
    }

    /// The raw task→processor slice.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.proc_of
    }

    /// Swap the processors of two tasks (used by the refiner).
    pub(crate) fn swap_tasks(&mut self, a: TaskId, b: TaskId) {
        if a == b {
            return;
        }
        let (pa, pb) = (self.proc_of[a], self.proc_of[b]);
        self.proc_of[a] = pb;
        self.proc_of[b] = pa;
        self.task_on[pa] = b;
        self.task_on[pb] = a;
    }

    /// Move task `t` to a currently-free processor `p`. Panics if `p` is
    /// occupied by a different task.
    pub(crate) fn move_task(&mut self, t: TaskId, p: NodeId) {
        let cur = self.proc_of[t];
        if cur == p {
            return;
        }
        assert!(
            self.task_on[p] == usize::MAX,
            "processor {p} is occupied; use swap_tasks"
        );
        self.task_on[cur] = usize::MAX;
        self.task_on[p] = t;
        self.proc_of[t] = p;
    }
}

/// A phase-2 mapping strategy: place the (already coalesced) task graph on
/// the topology.
pub trait Mapper {
    /// Map `tasks` onto `topo`. Requires `tasks.num_tasks() <=
    /// topo.num_nodes()`; implementations must return an injective
    /// mapping covering every task.
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping;

    /// Strategy name for experiment output (e.g. `"TopoLB"`).
    fn name(&self) -> String;
}

/// Boxed mappers are mappers too, so parsed/dynamic strategies compose
/// with generic wrappers like [`RefineTopoLb`] (e.g. `--init sfc`).
impl Mapper for Box<dyn Mapper> {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        (**self).map(tasks, topo)
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_inverse_consistency() {
        let m = Mapping::new(vec![2, 0, 3], 4);
        assert_eq!(m.proc_of(0), 2);
        assert_eq!(m.task_on(2), Some(0));
        assert_eq!(m.task_on(1), None);
        assert_eq!(m.num_tasks(), 3);
        assert_eq!(m.num_procs(), 4);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn duplicate_processor_rejected() {
        Mapping::new(vec![1, 1], 3);
    }

    #[test]
    #[should_panic(expected = "more tasks")]
    fn too_many_tasks_rejected() {
        Mapping::new(vec![0, 1, 2], 2);
    }

    #[test]
    fn swap_updates_both_directions() {
        let mut m = Mapping::new(vec![0, 1, 2], 3);
        m.swap_tasks(0, 2);
        assert_eq!(m.proc_of(0), 2);
        assert_eq!(m.proc_of(2), 0);
        assert_eq!(m.task_on(0), Some(2));
        assert_eq!(m.task_on(2), Some(0));
        m.swap_tasks(1, 1); // no-op
        assert_eq!(m.proc_of(1), 1);
    }

    #[test]
    fn move_to_free_processor() {
        let mut m = Mapping::new(vec![0, 1], 4);
        m.move_task(0, 3);
        assert_eq!(m.proc_of(0), 3);
        assert_eq!(m.task_on(0), None);
        assert_eq!(m.task_on(3), Some(0));
        m.move_task(0, 3); // moving to own proc is a no-op
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn move_to_occupied_panics() {
        let mut m = Mapping::new(vec![0, 1], 4);
        m.move_task(0, 1);
    }
}
