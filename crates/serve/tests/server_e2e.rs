//! End-to-end server tests: real sockets, concurrent clients, and the
//! contract that served mappings are bit-identical to direct in-process
//! mapper invocations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use topomap_core::{obs, Parallelism};
use topomap_lb::LbDatabase;
use topomap_serve::client::Client;
use topomap_serve::proto::{ErrorKind, MapRequest, Request, Response};
use topomap_serve::server::{spawn, spawn_ephemeral, Bind, ServeConfig};
use topomap_serve::specs::{
    hier_mapper_from_plan, parse_hier_plan, parse_mapper, parse_pattern, parse_topology,
};

/// A mixed request scenario and its direct (in-process) answer.
#[derive(Clone)]
struct Scenario {
    topology: &'static str,
    mapper: &'static str,
    hierarchy: Option<&'static str>,
    pattern: &'static str,
    seed: u64,
}

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
        deadline_ms: None,
        database: database_for(s),
    }
}

/// The ground truth: run the same specs directly, in-process, serially
/// — no oracle, no server, `Parallelism::serial()`.
fn direct_mapping(s: &Scenario) -> Vec<usize> {
    let par = Parallelism::serial();
    let parsed = parse_topology(s.topology).unwrap();
    let topo = parsed.as_topology();
    let mapper: Box<dyn topomap_core::Mapper> = if s.mapper == "hier" {
        let plan = parse_hier_plan(s.topology, topo, s.hierarchy, None).unwrap();
        Box::new(hier_mapper_from_plan(&plan, par))
    } else {
        parse_mapper(s.mapper, s.seed, par).unwrap()
    };
    let tasks = database_for(s).to_task_graph();
    mapper.map(&tasks, topo).as_slice().to_vec()
}

#[test]
fn concurrent_clients_get_bit_identical_mappings() {
    let handle = spawn_ephemeral(ServeConfig {
        workers: 4,
        queue_cap: 256,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let expected: Vec<Vec<usize>> = SCENARIOS.iter().map(direct_mapping).collect();

    let clients: Vec<_> = (0..8)
        .map(|c| {
            let addr = addr.clone();
            let expected = expected.clone();
            thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).unwrap();
                for round in 0..3 {
                    let si = (c + round) % SCENARIOS.len();
                    let id = (c * 100 + round) as u64;
                    match client.map(request_for(&SCENARIOS[si], id)).unwrap() {
                        Response::MapOk {
                            id: rid,
                            proc_of_task,
                            hops_per_byte,
                            ..
                        } => {
                            assert_eq!(rid, id, "response id echoes request id");
                            assert_eq!(
                                proc_of_task, expected[si],
                                "served mapping differs from direct call for {}",
                                SCENARIOS[si].pattern
                            );
                            assert!(hops_per_byte > 0.0);
                        }
                        other => panic!("client {c} round {round}: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let stats = handle.join();
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.ok, 24);
    assert_eq!(stats.errors, 0);
    // 6 distinct topologies (one is shared by three scenarios) → at
    // most 5 oracle misses, everything else hits.
    assert!(stats.oracle_misses <= 5, "{stats:?}");
    assert!(stats.oracle_hits >= 19, "{stats:?}");
    assert!(
        stats.hier_hits >= 1,
        "hier plan should be cached: {stats:?}"
    );
}

#[test]
fn zero_capacity_queue_sheds_every_job() {
    let handle = spawn_ephemeral(ServeConfig {
        workers: 1,
        queue_cap: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect_tcp(handle.addr()).unwrap();
    match client.map(request_for(&SCENARIOS[0], 9)).unwrap() {
        Response::Busy { id, queue_cap } => {
            assert_eq!(id, 9);
            assert_eq!(queue_cap, 0);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    let stats = handle.join();
    assert_eq!(stats.busy, 1);
    assert_eq!(stats.ok, 0);
}

#[test]
fn saturated_queue_answers_busy_not_hang() {
    // 1 worker, queue of 1: with 4 clients resubmitting back-to-back,
    // at any moment at most 2 jobs can be in the system; the rest must
    // be shed with Busy immediately (not queued, not blocked).
    let handle = spawn_ephemeral(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();
    let busy_seen = Arc::new(AtomicBool::new(false));

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            let busy_seen = Arc::clone(&busy_seen);
            thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).unwrap();
                let mut ok = 0u32;
                for i in 0..30 {
                    if busy_seen.load(Ordering::Relaxed) && ok > 0 {
                        break;
                    }
                    let resp = client
                        .map(request_for(&SCENARIOS[2], (c * 1000 + i) as u64))
                        .unwrap();
                    match resp {
                        Response::MapOk { .. } => ok += 1,
                        Response::Busy { .. } => busy_seen.store(true, Ordering::Relaxed),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert!(
        busy_seen.load(Ordering::Relaxed),
        "4 clients against a 1-deep queue never saw Busy"
    );
    let stats = handle.join();
    assert!(stats.busy >= 1, "{stats:?}");
    assert!(stats.ok >= 1, "{stats:?}");
}

#[test]
fn shutdown_drains_inflight_jobs() {
    let handle = spawn_ephemeral(ServeConfig {
        workers: 1,
        queue_cap: 16,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    // Client 1 submits a heavy job, then the server is told to shut
    // down while that job is queued or running.
    let heavy = Scenario {
        topology: "mesh:12x12",
        mapper: "topolb",
        hierarchy: None,
        pattern: "random:140:4",
        seed: 11,
    };
    let inflight = {
        let addr = addr.clone();
        let heavy = heavy.clone();
        thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).unwrap();
            client.map(request_for(&heavy, 501)).unwrap()
        })
    };
    // Wait until the job is inside the server (submitted, no outcome
    // yet), then begin the drain.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.stats().requests == 0 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(2));
    }
    thread::sleep(Duration::from_millis(20));
    let mut admin = Client::connect_tcp(&addr).unwrap();
    admin.shutdown().unwrap();

    // The in-flight job still completes with a real answer.
    match inflight.join().unwrap() {
        Response::MapOk { id, .. } => assert_eq!(id, 501),
        other => panic!("in-flight job was dropped: {other:?}"),
    }

    // New jobs after the drain began are refused (or the connection is
    // already gone) — never silently queued.
    match admin.map(request_for(&SCENARIOS[0], 502)) {
        Ok(Response::Error { kind, .. }) => assert_eq!(kind, ErrorKind::ShuttingDown),
        Ok(other) => panic!("job accepted during drain: {other:?}"),
        Err(_) => {} // server already closed the connection
    }
    handle.join();
}

#[test]
fn zero_deadline_expires_in_queue() {
    let handle = spawn_ephemeral(ServeConfig::default()).unwrap();
    let mut client = Client::connect_tcp(handle.addr()).unwrap();
    let mut req = request_for(&SCENARIOS[0], 77);
    req.deadline_ms = Some(0);
    match client.map(req).unwrap() {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, 77);
            assert_eq!(kind, ErrorKind::Deadline);
        }
        other => panic!("expected Deadline error, got {other:?}"),
    }
    let stats = handle.join();
    assert_eq!(stats.errors, 1);
}

#[test]
fn structured_errors_for_bad_specs_and_workloads() {
    let handle = spawn_ephemeral(ServeConfig::default()).unwrap();
    let mut client = Client::connect_tcp(handle.addr()).unwrap();

    let mut req = request_for(&SCENARIOS[0], 1);
    req.topology = "nope:3".to_string();
    match client.map(req).unwrap() {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::BadSpec);
            assert!(message.contains("unknown topology"), "{message}");
        }
        other => panic!("{other:?}"),
    }

    let mut req = request_for(&SCENARIOS[0], 2);
    req.mapper = "bogus".to_string();
    match client.map(req).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadSpec),
        other => panic!("{other:?}"),
    }

    // 100 tasks onto 64 processors: BadWorkload, not a worker panic.
    let mut req = request_for(&SCENARIOS[2], 3);
    req.topology = "torus:8x8".to_string();
    match client.map(req).unwrap() {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::BadWorkload);
            assert!(message.contains("partition"), "{message}");
        }
        other => panic!("{other:?}"),
    }

    // Corrupt database: out-of-range object ids.
    let mut req = request_for(&SCENARIOS[0], 4);
    req.database.comm[0].to = 10_000;
    match client.map(req).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadWorkload),
        other => panic!("{other:?}"),
    }

    // A frame that is valid JSON but not a Request: BadRequest with id 0.
    match client.request(&Request::Ping) {
        Ok(Response::Pong { .. }) => {}
        other => panic!("connection should still be usable: {other:?}"),
    }

    // The server is still healthy after all those failures.
    let stats = client.stats().unwrap();
    assert_eq!(stats.errors, 4);
    assert_eq!(stats.ok, 0);
    handle.join();
}

#[test]
fn garbage_frames_get_bad_request_then_resync() {
    use std::io::{Read, Write};
    let handle = spawn_ephemeral(ServeConfig::default()).unwrap();
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();

    // Well-framed garbage payload → structured BadRequest (id 0).
    let garbage = b"{\"NotARequest\":{}}";
    raw.write_all(&(garbage.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(garbage).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut payload).unwrap();
    match topomap_serve::proto::decode_response(&payload).unwrap() {
        Response::Error { id, kind, .. } => {
            assert_eq!(id, 0);
            assert_eq!(kind, ErrorKind::BadRequest);
        }
        other => panic!("{other:?}"),
    }

    // The framing survived: the same connection still answers Ping.
    let ping = topomap_serve::proto::encode_request(&Request::Ping);
    raw.write_all(&(ping.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(&ping).unwrap();
    raw.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(len) as usize];
    raw.read_exact(&mut payload).unwrap();
    assert!(matches!(
        topomap_serve::proto::decode_response(&payload).unwrap(),
        Response::Pong { .. }
    ));
    handle.join();
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_like_tcp() {
    let path = std::env::temp_dir().join(format!("topomap-serve-test-{}.sock", std::process::id()));
    let handle = spawn(ServeConfig {
        bind: Bind::Unix(path.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect_unix(&path).unwrap();
    assert_eq!(client.ping().unwrap(), topomap_serve::proto::PROTO_VERSION);
    let expected = direct_mapping(&SCENARIOS[0]);
    match client.map(request_for(&SCENARIOS[0], 11)).unwrap() {
        Response::MapOk { proc_of_task, .. } => assert_eq!(proc_of_task, expected),
        other => panic!("{other:?}"),
    }
    handle.join();
    assert!(!path.exists(), "socket file removed on join");
}

#[test]
fn fast_lane_rescues_deadline_and_warm_start_serves() {
    let handle = spawn_ephemeral(ServeConfig::default()).unwrap();
    let mut client = Client::connect_tcp(handle.addr()).unwrap();

    // 64x64 stencil = 4096 tasks on a 64x64 torus: topolb's estimated
    // n·p cost (~170ms) overruns a 20ms budget, so the opted-in fast
    // lane swaps in the near-linear SFC mapper and answers on time.
    let mut req = request_for(&SCENARIOS[0], 21);
    req.mapper = "topolb".to_string();
    req.fast_lane = Some(true);
    let g = parse_pattern("stencil2d:64x64", 1024.0, 0).unwrap();
    req.topology = "torus:64x64".to_string();
    req.database = LbDatabase::from_task_graph(&g);
    req.deadline_ms = Some(20);
    match client.map(req.clone()).unwrap() {
        Response::MapOk {
            fast_lane_used,
            hops_per_byte,
            ..
        } => {
            assert_eq!(fast_lane_used, Some(true), "lane should engage");
            // The stencil embeds perfectly under the Hilbert order.
            assert!((hops_per_byte - 1.0).abs() < 1e-9, "{hops_per_byte}");
        }
        other => panic!("fast lane should beat the deadline: {other:?}"),
    }

    // Same job without the opt-in reports None (never silently swaps).
    req.fast_lane = None;
    req.deadline_ms = Some(60_000);
    match client.map(req.clone()).unwrap() {
        Response::MapOk { fast_lane_used, .. } => assert_eq!(fast_lane_used, None),
        other => panic!("{other:?}"),
    }

    // Opted in with budget to spare: the lane stays closed, says so, and
    // the requested mapper's own answer comes back.
    let mut roomy = request_for(&SCENARIOS[0], 22);
    roomy.fast_lane = Some(true);
    roomy.deadline_ms = Some(60_000);
    match client.map(roomy).unwrap() {
        Response::MapOk {
            fast_lane_used,
            proc_of_task,
            ..
        } => {
            assert_eq!(fast_lane_used, Some(false));
            assert_eq!(proc_of_task, direct_mapping(&SCENARIOS[0]));
        }
        other => panic!("{other:?}"),
    }

    // Warm start over the wire: refine(init=sfc) matches the direct run.
    let mut warm = request_for(&SCENARIOS[0], 23);
    warm.mapper = "refine".to_string();
    warm.init = Some("sfc".to_string());
    let direct = {
        let parsed = parse_topology("torus:8x8").unwrap();
        let tasks = database_for(&SCENARIOS[0]).to_task_graph();
        let m = topomap_serve::specs::parse_mapper_with_init(
            "refine",
            Some("sfc"),
            SCENARIOS[0].seed,
            Parallelism::serial(),
        )
        .unwrap();
        topomap_core::Mapper::map(&*m, &tasks, parsed.as_topology())
            .as_slice()
            .to_vec()
    };
    match client.map(warm).unwrap() {
        Response::MapOk { proc_of_task, .. } => assert_eq!(proc_of_task, direct),
        other => panic!("{other:?}"),
    }

    // init on a non-refine mapper is a BadSpec, not a panic.
    let mut bad = request_for(&SCENARIOS[0], 24);
    bad.init = Some("sfc".to_string());
    match client.map(bad).unwrap() {
        Response::Error { kind, message, .. } => {
            assert_eq!(kind, ErrorKind::BadSpec);
            assert!(message.contains("refine"), "{message}");
        }
        other => panic!("{other:?}"),
    }
    handle.join();
}

#[test]
fn obs_spans_are_tagged_with_request_ids() {
    let ((), report) = obs::record(|| {
        let handle = spawn_ephemeral(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect_tcp(handle.addr()).unwrap();
        match client.map(request_for(&SCENARIOS[0], 424_242)).unwrap() {
            Response::MapOk { .. } => {}
            other => panic!("{other:?}"),
        }
        handle.join();
    });
    let root = report
        .find_span("serve.request.424242")
        .expect("per-request span tree");
    assert!(!root.children.is_empty(), "span tree has kernel children");
    assert_eq!(report.meta("serve.request.424242"), Some("ok"));
    // Only this test's server records here, whatever the e2e tests beside
    // it are serving.
    for m in report
        .meta
        .iter()
        .filter(|m| m.name.starts_with("serve.request."))
    {
        assert_eq!(m.name, "serve.request.424242");
    }
    assert_eq!(report.counter("serve.requests"), Some(1));
    assert_eq!(report.counter("serve.ok"), Some(1));
}
