//! # topomap-serve
//!
//! Mapping-as-a-service: a persistent, concurrent mapping server with
//! machine caching and backpressure (DESIGN.md §9).
//!
//! A long-running mapping daemon beats one-shot CLI invocations for the
//! load-balancer use case the paper targets: the purely machine-dependent
//! artifacts — the parsed machine with its distance tables, and the
//! hierarchy factorization — are built once and amortized across every
//! rebalancing step, while the workload (an [`topomap_lb::LbDatabase`])
//! changes per request.
//!
//! The crate splits into:
//!
//! - [`proto`] — length-prefixed JSON frames, the request/response
//!   schema, and the structured error taxonomy;
//! - [`cache`] — a dependency-free LRU with hit/miss counters;
//! - [`oracle`] — the cached machines and hierarchy plans;
//! - [`specs`] — the single parser for topology/pattern/mapper/hierarchy
//!   spec strings, shared with the CLI (which re-exports it);
//! - [`server`] — the bounded-queue worker-pool daemon with graceful
//!   drain-and-shutdown;
//! - [`client`] — a minimal blocking client.
//!
//! ```no_run
//! use topomap_serve::{client::Client, proto::MapRequest, server};
//! use topomap_lb::LbDatabase;
//!
//! let handle = server::spawn_ephemeral(server::ServeConfig::default()).unwrap();
//! let mut client = Client::connect_tcp(handle.addr()).unwrap();
//! let mut db = LbDatabase::new(2);
//! db.record_comm(0, 1, 1024.0, 1);
//! let resp = client.map(MapRequest {
//!     id: 1,
//!     topology: "torus:8x8".into(),
//!     mapper: "topolb".into(),
//!     init: None,
//!     fast_lane: None,
//!     hierarchy: None,
//!     hier_dist: None,
//!     seed: 0,
//!     deadline_ms: None,
//!     database: db,
//! });
//! println!("{resp:?}");
//! handle.join();
//! ```

pub mod cache;
pub mod client;
mod net;
pub mod oracle;
pub mod proto;
pub mod server;
pub mod specs;

pub use client::Client;
pub use proto::{
    ErrorKind, FrameError, MapRequest, Request, Response, ServerStats, MAX_FRAME_BYTES,
    PROTO_VERSION,
};
