//! Mapping-service gate: drive the `topomap-serve` daemon with
//! thousands of concurrent mixed requests and hold it to the PR's
//! acceptance bar.
//!
//! Checks (all fatal, so CI runs this binary as a gate):
//! - every `MapOk` is **bit-identical** to the same specs run directly
//!   in-process with `Parallelism::serial()` — the server's cached
//!   distance oracles and worker pool must not perturb a single bit;
//! - **zero protocol errors** and zero structured `Error` responses
//!   across the whole run (the queue is sized so `Busy` cannot fire);
//! - the distance-oracle cache earns a **hit rate above 50%** (a
//!   handful of machines, thousands of requests);
//! - the server's own counters agree with the client-side tallies.
//!
//! Prints throughput (requests/s), client-observed p50/p99 latency and
//! the server's final counters; the layered numbers are the benchmark's
//! (`benchmark/README.md`, workloads `serve_small` / `serve_large`).
//!
//! Run: `cargo run -p topomap-bench --release --bin exp_serve
//!       [--requests N] [--clients N] [--workers N] [--threads N]`

use std::thread;
use std::time::Instant;
use topomap_bench::{f2, print_table};
use topomap_core::Parallelism;
use topomap_lb::LbDatabase;
use topomap_serve::client::Client;
use topomap_serve::proto::{MapRequest, Response, ServerStats};
use topomap_serve::server::{spawn_ephemeral, ServeConfig};
use topomap_serve::specs::{parse_pattern, parse_topology, MapperSpec};

/// One request shape in the mixed workload.
struct Scenario {
    topology: &'static str,
    mapper: &'static str,
    hierarchy: Option<&'static str>,
    pattern: &'static str,
    seed: u64,
}

/// Eight mixed shapes over five distinct machines: enough machine
/// variety to exercise eviction-free reuse, enough repetition that the
/// oracle cache must pay for itself.
const SCENARIOS: &[Scenario] = &[
    Scenario {
        topology: "torus:8x8",
        mapper: "topolb",
        hierarchy: None,
        pattern: "stencil2d:8x8",
        seed: 1,
    },
    Scenario {
        topology: "torus:8x8",
        mapper: "refine",
        hierarchy: None,
        pattern: "pstencil2d:8x8",
        seed: 2,
    },
    Scenario {
        topology: "mesh:10x10",
        mapper: "topocentlb",
        hierarchy: None,
        pattern: "random:100:4",
        seed: 3,
    },
    Scenario {
        topology: "hypercube:5",
        mapper: "topolb",
        hierarchy: None,
        pattern: "all2all:32",
        seed: 4,
    },
    Scenario {
        topology: "torus:8x8",
        mapper: "hier",
        hierarchy: Some("4:4:4"),
        pattern: "butterfly:64",
        seed: 5,
    },
    Scenario {
        topology: "fattree:4:3",
        mapper: "topocentlb",
        hierarchy: None,
        pattern: "transpose:8",
        seed: 6,
    },
    Scenario {
        topology: "torus:4x4x4",
        mapper: "topolb-first",
        hierarchy: None,
        pattern: "stencil3d:4x4x4",
        seed: 7,
    },
    Scenario {
        topology: "mesh:10x10",
        mapper: "linear",
        hierarchy: None,
        pattern: "sweep2d:10x10",
        seed: 8,
    },
];

fn database_for(s: &Scenario) -> LbDatabase {
    let g = parse_pattern(s.pattern, 1024.0, s.seed).unwrap();
    LbDatabase::from_task_graph(&g)
}

fn request_for(s: &Scenario, id: u64) -> MapRequest {
    MapRequest {
        id,
        topology: s.topology.to_string(),
        mapper: s.mapper.to_string(),
        init: None,
        fast_lane: None,
        hierarchy: s.hierarchy.map(str::to_string),
        hier_dist: None,
        seed: s.seed,
        deadline_ms: Some(60_000),
        database: database_for(s),
    }
}

/// Ground truth: the same specs run directly, in-process, serially.
fn direct_mapping(s: &Scenario) -> Vec<usize> {
    let par = Parallelism::serial();
    let parsed = parse_topology(s.topology).unwrap();
    let topo = parsed.as_topology();
    let mapper = MapperSpec::parse(Some(s.mapper), None, s.hierarchy, None)
        .and_then(|spec| spec.build_on(s.topology, topo, s.seed, par))
        .unwrap();
    let tasks = database_for(s).to_task_graph();
    mapper.map(&tasks, topo).as_slice().to_vec()
}

fn arg(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{name} takes an integer"))
        })
        .unwrap_or(default)
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    assert!(!sorted_us.is_empty());
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn main() {
    let requests = arg("--requests", 1200);
    let clients = arg("--clients", 8);
    let workers = arg("--workers", 4);
    let threads = arg("--threads", 1);
    assert!(clients >= 1 && workers >= 1 && requests >= clients);

    // Queue sized so full-burst admission never sheds: Busy here would
    // mean the gate is mis-sized, not that backpressure is broken
    // (server_e2e covers the shedding contract).
    let handle = spawn_ephemeral(ServeConfig {
        workers,
        queue_cap: clients * 4 + 64,
        par: Parallelism::fixed(threads),
        ..ServeConfig::default()
    })
    .expect("spawn server");
    let addr = handle.addr().to_string();
    println!(
        "exp_serve: {requests} requests / {clients} clients / {workers} workers / \
         {threads} mapper thread(s) against {addr}"
    );

    let expected: Vec<Vec<usize>> = SCENARIOS.iter().map(direct_mapping).collect();

    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let expected = expected.clone();
            let per_client = requests / clients + usize::from(c < requests % clients);
            thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                let mut latencies_us = Vec::with_capacity(per_client);
                let mut ok = 0u64;
                for i in 0..per_client {
                    // Round-robin offset by client index: every client
                    // cycles through all shapes, out of phase with its
                    // neighbours.
                    let s_idx = (c + i) % SCENARIOS.len();
                    let id = (c * 1_000_000 + i) as u64;
                    let req = request_for(&SCENARIOS[s_idx], id);
                    let start = Instant::now();
                    let resp = client.map(req).expect("protocol error");
                    latencies_us.push(start.elapsed().as_micros() as u64);
                    match resp {
                        Response::MapOk {
                            id: rid,
                            proc_of_task,
                            ..
                        } => {
                            assert_eq!(rid, id, "response id mismatch");
                            assert_eq!(
                                proc_of_task, expected[s_idx],
                                "served mapping diverged from direct run \
                                 (scenario {s_idx}, client {c}, request {i})"
                            );
                            ok += 1;
                        }
                        other => panic!("client {c} request {i}: unexpected {other:?}"),
                    }
                }
                (ok, latencies_us)
            })
        })
        .collect();

    let mut total_ok = 0u64;
    let mut latencies_us: Vec<u64> = Vec::with_capacity(requests);
    for h in handles {
        let (ok, lat) = h.join().expect("client thread panicked");
        total_ok += ok;
        latencies_us.extend(lat);
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let mut admin = Client::connect_tcp(&addr).expect("connect admin");
    let stats: ServerStats = admin.stats().expect("stats");
    admin.shutdown().expect("shutdown");
    let final_stats = handle.join();

    latencies_us.sort_unstable();
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    let throughput = requests as f64 / elapsed;
    let hit_rate = final_stats.oracle_hit_rate();

    print_table(
        &format!("Mapping service under load ({clients} clients, {workers} workers)"),
        &["metric", "value"],
        &[
            vec!["requests".into(), format!("{requests}")],
            vec!["elapsed".into(), format!("{:.2} s", elapsed)],
            vec!["throughput".into(), format!("{:.0} req/s", throughput)],
            vec!["p50 latency".into(), format!("{p50} us")],
            vec!["p99 latency".into(), format!("{p99} us")],
            vec![
                "oracle cache".into(),
                format!(
                    "{} hit / {} miss ({})",
                    final_stats.oracle_hits,
                    final_stats.oracle_misses,
                    f2(hit_rate)
                ),
            ],
            vec![
                "hier cache".into(),
                format!(
                    "{} hit / {} miss",
                    final_stats.hier_hits, final_stats.hier_misses
                ),
            ],
        ],
    );

    // The gate. Bit-identity already asserted per response above.
    assert_eq!(
        total_ok, requests as u64,
        "not every request came back MapOk"
    );
    assert_eq!(stats.requests, requests as u64, "server miscounted");
    assert_eq!(final_stats.ok, requests as u64);
    assert_eq!(final_stats.errors, 0, "structured errors under clean load");
    assert_eq!(final_stats.busy, 0, "Busy despite a generously sized queue");
    assert!(
        hit_rate > 0.5,
        "oracle cache hit rate {hit_rate:.2} <= 0.5 over {requests} requests"
    );
    assert!(
        final_stats.hier_hits > 0,
        "hierarchy-plan cache never hit despite repeated hier requests"
    );
    println!("\nMapping service gate PASSED.");
}
