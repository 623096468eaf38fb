//! End-to-end tests that spawn the actual `topomap` binary.

use std::process::Command;

fn topomap(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_topomap"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("topomap-bin-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn full_workflow_through_the_binary() {
    let tasks = tmp("t.json");
    let mapping = tmp("m.json");

    let (ok, out, err) = topomap(&[
        "gen",
        "--pattern",
        "stencil2d:6x6",
        "--bytes",
        "2048",
        "--out",
        &tasks,
    ]);
    assert!(ok, "gen failed: {err}");
    assert!(out.contains("36 tasks"), "{out}");

    let (ok, out, err) = topomap(&[
        "map",
        "--topology",
        "torus:6x6",
        "--tasks",
        &tasks,
        "--mapper",
        "topolb",
        "--out",
        &mapping,
    ]);
    assert!(ok, "map failed: {err}");
    assert!(out.contains("hops-per-byte: 1.0000"), "{out}");

    let (ok, out, err) = topomap(&[
        "eval",
        "--topology",
        "torus:6x6",
        "--tasks",
        &tasks,
        "--mapping",
        &mapping,
    ]);
    assert!(ok, "eval failed: {err}");
    assert!(out.contains("local fraction:   1.000"), "{out}");

    let (ok, out, err) = topomap(&[
        "simulate",
        "--topology",
        "torus:6x6",
        "--tasks",
        &tasks,
        "--mapping",
        &mapping,
        "--iterations",
        "3",
        "--bandwidth-mbps",
        "200",
    ]);
    assert!(ok, "simulate failed: {err}");
    assert!(out.contains("network messages:   "), "{out}");
}

#[test]
fn profiled_map_and_simulate_emit_traces() {
    let tasks = tmp("prof-t.json");
    let mapping = tmp("prof-m.json");
    let map_trace = tmp("prof-map-trace.json");
    let sim_trace = tmp("prof-sim-trace.json");

    let (ok, _, err) = topomap(&["gen", "--pattern", "stencil2d:4x4", "--out", &tasks]);
    assert!(ok, "gen failed: {err}");

    let (ok, out, err) = topomap(&[
        "map",
        "--topology",
        "torus:4x4",
        "--tasks",
        &tasks,
        "--mapper",
        "refine",
        "--out",
        &mapping,
        "--profile",
        "--trace-out",
        &map_trace,
    ]);
    assert!(ok, "profiled map failed: {err}");
    assert!(out.contains("profile:"), "{out}");
    assert!(out.contains("wrote trace "), "{out}");

    let report =
        topomap_core::obs::Report::from_json(&std::fs::read_to_string(&map_trace).unwrap())
            .unwrap();
    // Refine wraps TopoLB: the tree must show the whole pipeline.
    for phase in [
        "refine.map",
        "refine.initial",
        "refine.sweep",
        "topolb.map",
        "estimation.init",
        "topolb.place",
    ] {
        assert!(report.find_span(phase).is_some(), "missing span {phase}");
    }
    assert!(report.span_count() >= 3, "span tree too shallow");
    assert!(report.counter("topolb.placements").unwrap_or(0) > 0);
    assert_eq!(
        report.counter("refine.candidates_evaluated"),
        Some(
            report.counter("refine.swaps_accepted").unwrap()
                + report.counter("refine.swaps_rejected").unwrap()
        )
    );

    let (ok, out, err) = topomap(&[
        "simulate",
        "--topology",
        "torus:4x4",
        "--tasks",
        &tasks,
        "--mapping",
        &mapping,
        "--iterations",
        "3",
        "--profile",
        "--trace-out",
        &sim_trace,
    ]);
    assert!(ok, "profiled simulate failed: {err}");
    assert!(out.contains("profile:"), "{out}");

    let report =
        topomap_core::obs::Report::from_json(&std::fs::read_to_string(&sim_trace).unwrap())
            .unwrap();
    for phase in [
        "netsim.run",
        "netsim.setup",
        "netsim.events",
        "netsim.aggregate",
    ] {
        assert!(report.find_span(phase).is_some(), "missing span {phase}");
    }
    assert!(report.counter("netsim.events").unwrap_or(0) > 0);
    // The two hop-bytes ledgers agree: per-link bytes vs per-delivery.
    let link_bytes: f64 = report
        .series("netsim.link_bytes")
        .map_or(0.0, |s| s.values.iter().sum());
    assert_eq!(
        link_bytes as u64,
        report.counter("netsim.bytes_hops").unwrap(),
        "link byte ledger must match delivered bytes x hops"
    );
}

#[test]
fn serve_subcommand_answers_requests_then_drains() {
    use std::io::{BufRead, BufReader};
    use topomap_serve::client::Client;
    use topomap_serve::proto::{MapRequest, Response};

    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_topomap"))
        .args(["serve", "--port", "0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary runs");

    // The server prints its bound address before accepting connections.
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server printed a banner")
        .expect("banner is utf-8");
    let addr = banner
        .strip_prefix("serving on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .trim()
        .to_string();

    let mut client = Client::connect_tcp(&addr).expect("connect to spawned server");
    assert_eq!(client.ping().expect("ping"), topomap_serve::PROTO_VERSION);

    let tasks = topomap_taskgraph::gen::stencil2d(6, 6, 2048.0, false);
    let resp = client
        .map(MapRequest {
            id: 7,
            topology: "torus:6x6".to_string(),
            mapper: "topolb".to_string(),
            init: None,
            fast_lane: None,
            hierarchy: None,
            hier_dist: None,
            seed: 0,
            deadline_ms: Some(10_000),
            database: topomap_lb::LbDatabase::from_task_graph(&tasks),
        })
        .expect("map request");
    match resp {
        Response::MapOk {
            id, proc_of_task, ..
        } => {
            assert_eq!(id, 7);
            assert_eq!(proc_of_task.len(), 36);
        }
        other => panic!("expected MapOk, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    let status = child.wait().expect("server exits");
    assert!(status.success(), "serve exited nonzero");
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    let tail = rest.join("\n");
    assert!(tail.contains("drained"), "missing drain summary: {tail}");
}

/// A mapping file that does not fit the workload or the machine is an
/// `error:` line and exit code 1 from both commands that read one.
#[test]
fn malformed_mapping_files_exit_1_without_a_panic() {
    let tasks = tmp("bad-t.json");
    let (ok, _, err) = topomap(&["gen", "--pattern", "stencil2d:4x4", "--out", &tasks]);
    assert!(ok, "gen failed: {err}");
    let dup: Vec<usize> = [0].into_iter().chain(0..15).collect();
    let far: Vec<usize> = (0..15).chain([63]).collect();
    for (i, (num_procs, procs, needle)) in [
        (16, dup, "processor 0 assigned twice (tasks 0 and 1)"),
        (64, far.clone(), "num_procs 64 but the machine has 16"),
        (16, far, "processor id 63 out of range"),
        (16, vec![0, 1, 2], "3 entries for 16 tasks"),
    ]
    .into_iter()
    .enumerate()
    {
        let path = tmp(&format!("bad-m{i}.json"));
        let body = format!(r#"{{"num_procs": {num_procs}, "proc_of_task": {procs:?}}}"#);
        std::fs::write(&path, body).unwrap();
        for cmd in ["eval", "simulate"] {
            let out = Command::new(env!("CARGO_BIN_EXE_topomap"))
                .args([cmd, "--topology", "torus:4x4", "--tasks", tasks.as_str()])
                .args(["--mapping", path.as_str()])
                .output()
                .expect("binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {needle}: {err}");
            assert!(!err.contains("panicked"), "{cmd} {needle}: {err}");
            let line = format!("error: mapping {path}: {needle}");
            assert!(err.contains(&line), "{err}");
        }
    }
}

#[test]
fn errors_exit_nonzero_with_usage() {
    // An oversized machine is refused by the spec parser before anything
    // sized by it is allocated: an allocation failure would abort (134).
    let tasks = tmp("usage-t.json");
    let (ok, _, err) = topomap(&["gen", "--pattern", "stencil2d:4x4", "--out", &tasks]);
    assert!(ok, "gen failed: {err}");
    for spec in ["nonsense:3", "torus:99999999999x2", "torus:1024x1024"] {
        let out = Command::new(env!("CARGO_BIN_EXE_topomap"))
            .args(["map", "--topology", spec, "--tasks", &tasks])
            .args(["--mapper", "topolb"])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{spec}: {err}");
        assert!(err.contains("error:") && err.contains("USAGE"), "{err}");
    }

    let (ok, _, _) = topomap(&[]);
    assert!(!ok, "no subcommand must fail");
}

#[test]
fn help_succeeds() {
    let (ok, out, _) = topomap(&["help"]);
    assert!(ok);
    assert!(out.contains("SPECS"));
}
