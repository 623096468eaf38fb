//! # topomap
//!
//! Topology-aware task mapping for reducing communication contention on
//! large parallel machines — a Rust reproduction of Agarwal, Sharma &
//! Kalé (IPDPS 2006).
//!
//! This facade crate re-exports the whole workspace behind one
//! dependency. The pieces:
//!
//! - [`topology`] — processor graphs (N-D torus/mesh, hypercube,
//!   fat-tree, arbitrary) with distance oracles and deterministic routing.
//! - [`taskgraph`] — weighted task graphs and workload generators
//!   (stencils, synthetic LeanMD, random families).
//! - [`partition`] — multilevel k-way partitioner (METIS substitute) and
//!   load-only partitioners for the paper's phase 1.
//! - [`core`] — the paper's contribution: TopoLB (three estimation
//!   orders), TopoCentLB, RefineTopoLB, hop-byte metrics, and the
//!   two-phase pipeline.
//! - [`lb`] — the Charm++-style LB framework: measured database,
//!   `+LBDump` step files (replayed through `core::pipeline::two_phase`),
//!   RefineLB, threaded mini-runtime.
//! - [`netsim`] — a discrete-event packet-level network simulator
//!   (BigNetSim substitute) with wormhole/cut-through switching.
//! - [`serve`] — mapping-as-a-service: a persistent mapping daemon with
//!   cached distance oracles, bounded queues with `Busy` backpressure,
//!   and a minimal blocking client.
//!
//! ## Quickstart
//!
//! ```
//! use topomap::prelude::*;
//!
//! // A 2D Jacobi-like application of 64 communicating tasks...
//! let tasks = topomap::taskgraph::gen::stencil2d(8, 8, 4096.0, false);
//! // ...mapped onto a 64-node 3D torus.
//! let machine = Torus::torus_3d(4, 4, 4);
//!
//! let smart = TopoLb::default().map(&tasks, &machine);
//! let naive = RandomMap::new(42).map(&tasks, &machine);
//!
//! let hpb_smart = hops_per_byte(&tasks, &machine, &smart);
//! let hpb_naive = hops_per_byte(&tasks, &machine, &naive);
//! assert!(hpb_smart < hpb_naive / 2.0);
//! ```

pub use topomap_core as core;
pub use topomap_lb as lb;
pub use topomap_netsim as netsim;
pub use topomap_partition as partition;
pub use topomap_serve as serve;
pub use topomap_taskgraph as taskgraph;
pub use topomap_topology as topology;

/// The most common imports in one place.
pub mod prelude {
    pub use topomap_core::metrics::{hop_bytes, hops_per_byte};
    pub use topomap_core::{
        synthesize_coords, ContentionRefine, ContentionReport, Curve, EstimationOrder, GeneticMap,
        GeomError, HierMapper, IdentityMap, LinearOrderMap, Mapper, Mapping, Parallelism,
        RandomMap, RcbMap, RefineTopoLb, SfcMap, SimObservation, SimulatedAnnealingMap, Threads,
        TopoCentLb, TopoLb,
    };
    pub use topomap_netsim::{
        contention_oracle, NetworkConfig, SimReport, SimStats, Simulation, Trace,
    };
    pub use topomap_partition::{GreedyLoad, MultilevelKWay, Partition, Partitioner};
    pub use topomap_taskgraph::{TaskGraph, TaskId};
    pub use topomap_topology::{
        CachedTopology, Dragonfly, FatTree, GraphTopology, Hierarchy, Hypercube, NodeId,
        RoutedTopology, Topology, Torus,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let t = Torus::torus_2d(4, 4);
        let g = crate::taskgraph::gen::ring(16, 100.0);
        let m = TopoLb::default().map(&g, &t);
        assert!(hops_per_byte(&g, &t, &m) >= 1.0);
    }
}
