//! `SimReport` golden matrix: 640 configurations whose reports were
//! recorded from the engine as it stood before its event set, link lookup
//! and message storage were replaced (binary heap keyed `(time, seq)`,
//! hashed link index, one `Msg` per message of the run). Any engine change
//! that claims to keep the simulation bit-identical must reproduce every
//! row of `golden_reports.txt`; the table is not to be edited alongside
//! such a change.
//!
//! Axes: five routed families × four trace shapes × routing mode ×
//! switching × NIC model × link health × two random placements.

use topomap_core::{Mapper, Mapping, RandomMap};
use topomap_netsim::config::{NicModel, RoutingMode, Switching};
use topomap_netsim::trace::{allreduce_trace, alltoall_trace, stencil_trace};
use topomap_netsim::{NetworkConfig, SimReport, Simulation, Trace};
use topomap_taskgraph::{gen, TaskGraph};
use topomap_topology::{Dragonfly, GraphTopology, Hypercube, RoutedTopology, Torus};

const GOLDEN: &str = include_str!("golden_reports.txt");

/// FNV-1a over the little-endian bytes of each word. Written out here
/// because std pins neither `DefaultHasher`'s algorithm nor its output.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn topologies() -> Vec<(&'static str, Box<dyn RoutedTopology>)> {
    vec![
        ("torus3d", Box::new(Torus::torus_3d(4, 4, 2))),
        ("mesh2d", Box::new(Torus::mesh_2d(4, 8))),
        ("hypercube", Box::new(Hypercube::new(5))),
        ("dragonfly", Box::new(Dragonfly::new(4, 8))),
        ("ring", Box::new(GraphTopology::ring(32))),
    ]
}

/// `(name, task count, trace)`. Task counts at and below the 32 processors
/// so that both full and sparse placements occur.
fn traces() -> Vec<(&'static str, usize, Trace)> {
    let stencil = gen::stencil2d(4, 8, 16_384.0, true);
    let random = gen::random_graph(24, 3.0, 1_024.0, 65_536.0, 7);
    vec![
        ("stencil", 32, stencil_trace(&stencil, 6, 2_000)),
        ("randgraph", 24, stencil_trace(&random, 5, 1_500)),
        ("alltoall", 16, alltoall_trace(16, 2, 2_048)),
        ("allreduce", 32, allreduce_trace(32, 3, 8_192)),
    ]
}

fn placement(num_tasks: usize, topo: &dyn RoutedTopology, seed: u64) -> Mapping {
    RandomMap::new(seed).map(&TaskGraph::builder(num_tasks).build(), &topo)
}

fn render(key: &str, r: &SimReport) -> String {
    let s = &r.stats;
    format!(
        "{key} completion={} net={} local={} p50={} p95={} p99={} max={} qev={} qwait={} used={} busy={:016x} bytes={:016x}",
        s.completion_ns,
        s.network_messages,
        s.local_messages,
        s.p50_latency_ns,
        s.p95_latency_ns,
        s.p99_latency_ns,
        s.max_latency_ns,
        r.acct.queue_events(),
        r.acct.queue_wait_ns(),
        s.used_links,
        fnv1a(r.acct.busy_slice()),
        fnv1a(r.acct.bytes_slice()),
    )
}

fn matrix() -> Vec<String> {
    let mut rows = Vec::new();
    let traces = traces();
    for (topo_name, topo) in topologies() {
        let topo: &dyn RoutedTopology = &*topo;
        let degraded: Vec<(usize, usize, f64)> = topo
            .links()
            .iter()
            .step_by(7)
            .map(|l| (l.from, l.to, 0.3))
            .collect();
        for (trace_name, num_tasks, trace) in &traces {
            for (routing_name, routing) in [
                ("det", RoutingMode::Deterministic),
                ("adaptive", RoutingMode::MinimalAdaptive),
            ] {
                for (sw_name, switching) in [
                    ("cutthrough", Switching::CutThrough),
                    ("wormhole", Switching::Wormhole),
                ] {
                    for (nic_name, nic) in [
                        ("shared", NicModel::SharedChannel),
                        ("perlink", NicModel::PerLink),
                    ] {
                        for (health_name, factors) in
                            [("healthy", Vec::new()), ("degraded", degraded.clone())]
                        {
                            for seed in [1u64, 2] {
                                let cfg = NetworkConfig {
                                    link_bandwidth: 200e6,
                                    hop_latency_ns: 100,
                                    send_overhead_ns: 1_000,
                                    local_latency_ns: 500,
                                    switching,
                                    nic,
                                    routing,
                                    link_speed_factors: factors.clone(),
                                };
                                let m = placement(*num_tasks, topo, seed);
                                let report = Simulation::run_with_links(topo, &cfg, trace, &m);
                                let key = format!(
                                    "{topo_name}/{trace_name}/{routing_name}/{sw_name}/{nic_name}/{health_name}/seed{seed}"
                                );
                                rows.push(render(&key, &report));
                            }
                        }
                    }
                }
            }
        }
    }
    rows
}

#[test]
fn every_report_matches_the_recorded_engine() {
    let got = matrix();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(want.len(), 640, "golden table is truncated");
    assert_eq!(got.len(), want.len(), "matrix axes changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "SimReport differs from the recorded engine");
    }
}

#[test]
fn fnv1a_reference_vectors() {
    // Published FNV-1a 64 test vectors ("" and "a"), through the word
    // interface: one word whose low byte is 'a' hashes 'a' then seven NULs.
    assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    let mut h = 0xaf63_dc4c_8601_ec8cu64; // fnv1a("a")
    for _ in 0..7 {
        h = h.wrapping_mul(0x0000_0100_0000_01b3); // ^ 0 is the identity
    }
    assert_eq!(fnv1a(&[b'a' as u64]), h);
}
