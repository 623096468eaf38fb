//! Every name the benchmark takes from the program, in one place.
//!
//! The harness measures each layer from outside, by timing calls into its
//! public functions through the `topomap` facade. Nothing else in this
//! crate names a `topomap::` path, so this file is the API surface the
//! benchmark pins: a later change that renames or reshapes one of these
//! items edits this file and nothing else here.

pub use topomap::core::metrics::{hop_bytes, hops_per_byte};
pub use topomap::core::refine::refine_mapping_with;
pub use topomap::core::{
    ContentionRefine, Curve, HierMapper, Mapper, Mapping, Parallelism, RandomMap, RcbMap,
    RefineTopoLb, SfcMap, TopoCentLb, TopoLb,
};
pub use topomap::lb::LbDatabase;
pub use topomap::netsim::config::NicModel;
pub use topomap::netsim::trace::stencil_trace;
pub use topomap::netsim::{contention_oracle, NetworkConfig, Simulation, Trace};
pub use topomap::partition::{MultilevelKWay, Partitioner};
pub use topomap::serve::client::Client;
pub use topomap::serve::oracle::OracleCaches;
pub use topomap::serve::proto::{
    decode_request, decode_response, encode_request, encode_response, MapRequest, Request,
    Response, ServerStats,
};
pub use topomap::serve::server::{spawn, spawn_ephemeral, Bind, ServeConfig, ServerHandle};
pub use topomap::serve::specs::{
    hier_mapper_from_plan, parse_hier_plan, parse_mapper, parse_mapper_with_init, parse_pattern,
    parse_topology,
};
pub use topomap::taskgraph::gen::{leanmd, random_graph, stencil2d, stencil3d, LeanMdConfig};
pub use topomap::taskgraph::TaskGraph;
pub use topomap::topology::{RoutedTopology, Topology, Torus};

/// Second-order TopoLB (the paper's configuration) at a thread setting.
pub fn topolb(par: Parallelism) -> TopoLb {
    TopoLb {
        par,
        ..TopoLb::default()
    }
}
