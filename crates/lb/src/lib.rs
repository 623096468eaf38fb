//! # topomap-lb
//!
//! The Charm++ load-balancing database and its dump files: the data the
//! paper's strategies consume (§1, §5.1).
//!
//! The Charm++ model: the application is over-decomposed into migratable
//! objects; the runtime *measures* per-object loads and communication
//! during execution, stores them in a load-balancing **database**, and
//! periodically hands that database to a strategy which returns a new
//! object→processor assignment. A strategy is the paper's two-phase
//! pipeline, `topomap_core::pipeline::two_phase`, run on
//! [`LbDatabase::to_task_graph`] with any `Partitioner` and any `Mapper`;
//! its `task_placement()` is the assignment.
//!
//! This crate reproduces the two pieces the paper's evaluation relies on:
//!
//! - [`LbDatabase`] — per-object loads + communication records (the
//!   "load information" of §5.1). It is also the wire schema of a
//!   served map request.
//! - [`dump`] — the `+LBDump` mechanism: write the database of selected
//!   steps to JSON files for offline study. `+LBSim` is
//!   [`dump::read_step`] followed by `two_phase` on the loaded database,
//!   so "different strategies can be compared on exactly the same load
//!   scenarios, which is not possible in actual execution" (§5.1).
//!
//! A database is built from a task graph's weights
//! ([`LbDatabase::from_task_graph`]) or recorded one object and one
//! message at a time ([`LbDatabase::record_load`],
//! [`LbDatabase::record_comm`]).
//!
//! ```
//! use topomap_core::{pipeline::two_phase, TopoLb};
//! use topomap_lb::LbDatabase;
//! use topomap_partition::MultilevelKWay;
//! use topomap_taskgraph::gen;
//! use topomap_topology::Torus;
//!
//! let g = gen::stencil2d(16, 16, 4096.0, false);
//! let db = LbDatabase::from_task_graph(&g);
//! let topo = Torus::torus_2d(8, 8);
//!
//! let r = two_phase(&db.to_task_graph(), &topo, &MultilevelKWay::default(), &TopoLb::default());
//! assert_eq!(r.task_placement().len(), 256);
//! assert!(r.hops_per_byte(&topo) < 2.0);
//! ```

pub(crate) mod database;
pub mod dump;

pub use database::{CommRecord, LbDatabase};
