//! # topomap-netsim
//!
//! A discrete-event interconnection-network simulator — the substitute for
//! BigNetSim (Zheng et al., the paper's ref \[23\]) used in §5.3 to show
//! that hop-byte reductions translate into lower message latencies and
//! execution times under bandwidth constraints.
//!
//! ## Model
//!
//! - **Links**: every directed link of a
//!   [`RoutedTopology`](topomap_topology::RoutedTopology) is an
//!   independent FIFO channel of finite bandwidth. A message occupies a
//!   link for its serialization time `bytes / bandwidth`.
//! - **Routing**: the topology's deterministic shortest-path routes
//!   (dimension-ordered on tori/meshes).
//! - **Switching**: virtual cut-through. The message head advances one
//!   `hop_latency` after securing each link; the body pipelines behind it;
//!   the final link's serialization completes delivery. Under contention
//!   a message waits in FIFO order for each link to free — this queueing
//!   is what makes random placement collapse at low bandwidth (Fig. 7/9).
//! - **Applications**: per-task op traces ([`Trace`]: compute / send /
//!   recv), replayed while honoring dependencies — the same "event
//!   timestamps are corrected depending on the network being simulated
//!   while honoring event ordering" methodology as the paper's trace-driven
//!   BigNetSim runs.
//!
//! Time is in integer nanoseconds; the event queue hands out simultaneous
//! events in the order they were scheduled, so simulations are exactly
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use topomap_core::{Mapper, TopoLb, RandomMap};
//! use topomap_netsim::{NetworkConfig, Simulation, trace};
//! use topomap_taskgraph::gen;
//! use topomap_topology::Torus;
//!
//! let tasks = gen::stencil2d(4, 4, 10_000.0, false);
//! let topo = Torus::torus_3d(4, 2, 2);
//! let cfg = NetworkConfig::default();
//! let tr = trace::stencil_trace(&tasks, 20, 5_000);
//!
//! let good = Simulation::run(&topo, &cfg, &tr, &TopoLb::default().map(&tasks, &topo));
//! let bad = Simulation::run(&topo, &cfg, &tr, &RandomMap::new(7).map(&tasks, &topo));
//! assert!(good.completion_ns <= bad.completion_ns);
//! ```

pub mod bluegene;
pub mod config;
pub(crate) mod sim;
pub(crate) mod stats;
pub mod trace;

pub use config::NetworkConfig;
pub use sim::{contention_oracle, SimReport, Simulation};
pub use stats::SimStats;
pub use trace::{Trace, TraceOp};
