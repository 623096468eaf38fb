//! Golden-schema suite for the trace report: a pinned fixture run
//! (stencil 4x8 placed by serial second-order TopoLB on a 4x8 torus)
//! must produce a report whose *shape* — span tree, counter names and
//! deterministic values, JSON field layout, CSV row grammar — matches
//! this file exactly. Timings vary run to run; everything else is fixed,
//! and a change here is a schema break that trace consumers must hear
//! about (bump `obs::SCHEMA_VERSION`).

use topomap::core::obs;
use topomap::prelude::*;
use topomap::taskgraph::gen;

const N_TASKS: u64 = 32;

/// The pinned fixture: every placement decision is deterministic, so the
/// report differs between runs only in nanosecond timings.
fn pinned_report() -> obs::Report {
    let g = gen::stencil2d(4, 8, 1024.0, false);
    let machine = Torus::torus_2d(4, 8);
    let mapper = TopoLb::with_parallelism(EstimationOrder::Second, Parallelism::serial());
    obs::record(|| mapper.map(&g, &machine)).1
}

#[test]
fn version_is_pinned() {
    assert_eq!(
        obs::SCHEMA_VERSION,
        2,
        "schema version changed: update the golden tests"
    );
    assert_eq!(pinned_report().version, obs::SCHEMA_VERSION);
}

#[test]
fn meta_describes_run_environment() {
    let r = pinned_report();
    // A serial fixture still records how it ran: resolved thread count
    // and how many cores the host offered (value varies by machine; the
    // key and its format are the schema).
    assert_eq!(r.meta("par.threads"), Some("1"));
    let cores: usize = r
        .meta("par.host_cores")
        .expect("host core count recorded")
        .parse()
        .expect("par.host_cores is an integer");
    assert!(cores >= 1);
}

#[test]
fn span_tree_matches_golden_shape() {
    let r = pinned_report();

    // Exactly one root — the mapper entry point — with the two phases of
    // the TopoLB pipeline as its only children, in execution order.
    assert_eq!(r.spans.len(), 1, "{:?}", r.span_names());
    let root = &r.spans[0];
    assert_eq!(root.name, "topolb.map");
    let phases: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(phases, ["estimation.init", "topolb.place"]);
    assert!(root.children.iter().all(|c| c.children.is_empty()));
    assert_eq!(r.span_count(), 3);

    // Timing sanity: children start inside the parent and nest within
    // its elapsed window.
    for c in &root.children {
        assert!(c.start_ns >= root.start_ns);
        assert!(c.start_ns + c.elapsed_ns <= root.start_ns + root.elapsed_ns + 1);
    }
}

#[test]
fn counters_match_golden_names_and_values() {
    let r = pinned_report();

    // The exact counter name list, sorted (the recorder guarantees the
    // order). A new probe on this code path must be added here. No
    // `par.*` counter: a second-order run has no fork-join region.
    let names: Vec<&str> = r.counters.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "estimation.assigns",
            "estimation.fest_full_scan",
            "estimation.fest_incremental",
            "estimation.kernel_uniform_int",
            "estimation.row_events",
            "topolb.assign_ns",
            "topolb.order.second-order",
            "topolb.placements",
            "topolb.select_ns",
        ]
    );

    // Deterministic values: one assign per task; uniform weights on a
    // torus select the integer kernel; one row event per task-graph
    // edge (stencil 4x8: 4·7 + 3·8 = 52), and every row event is a full
    // fold, so the full-scan count at least covers the edges.
    assert_eq!(r.counter("estimation.assigns"), Some(N_TASKS));
    assert_eq!(r.counter("topolb.placements"), Some(N_TASKS));
    assert_eq!(r.counter("topolb.order.second-order"), Some(1));
    assert_eq!(r.counter("estimation.kernel_uniform_int"), Some(1));
    assert_eq!(r.counter("estimation.row_events"), Some(52));
    assert!(r.counter("estimation.fest_full_scan").unwrap() >= 52);

    // A serial run has no series and no worker counters.
    assert!(r.series.is_empty(), "{:?}", r.series);

    // Rerunning the fixture reproduces every non-timing value.
    let r2 = pinned_report();
    let stable = |r: &obs::Report| -> Vec<(String, u64)> {
        r.counters
            .iter()
            .filter(|c| !c.name.ends_with("_ns"))
            .map(|c| (c.name.clone(), c.value))
            .collect()
    };
    assert_eq!(stable(&r), stable(&r2));
    assert_eq!(r.span_names(), r2.span_names());
}

#[test]
fn json_layout_matches_golden_fields() {
    let r = pinned_report();
    let json = r.to_json();

    // Field-by-field: the four top-level keys and the per-record keys
    // the schema promises, spelled exactly.
    for key in [
        "\"version\"",
        "\"meta\"",
        "\"spans\"",
        "\"counters\"",
        "\"series\"",
        "\"name\"",
        "\"start_ns\"",
        "\"elapsed_ns\"",
        "\"children\"",
        "\"value\"",
    ] {
        assert!(
            json.contains(key),
            "trace JSON lost the {key} field:\n{json}"
        );
    }
    assert!(json.contains("\"topolb.map\""));

    // The round trip is lossless — what a consumer parses is exactly
    // what the recorder drained.
    let parsed = obs::Report::from_json(&json).expect("golden JSON parses");
    assert_eq!(parsed, r);
}

#[test]
fn csv_layout_matches_golden_rows() {
    let r = pinned_report();
    let csv = r.to_csv();
    let lines: Vec<&str> = csv.lines().collect();

    assert_eq!(lines[0], "kind,name,a,b");
    // Span rows come first, paths slash-joined in tree order.
    assert!(lines[1].starts_with("span,topolb.map,"), "{}", lines[1]);
    assert!(
        lines[2].starts_with("span,topolb.map/estimation.init,"),
        "{}",
        lines[2]
    );
    assert!(
        lines[3].starts_with("span,topolb.map/topolb.place,"),
        "{}",
        lines[3]
    );
    // Then one row per counter and one per metadata pair (meta rows come
    // last); a serial fixture has no series rows, so the line count is
    // pinned: header + 3 spans + 9 counters + 2 meta.
    assert_eq!(lines.len(), 1 + 3 + 9 + 2, "{csv}");
    assert!(
        lines[4..13].iter().all(|l| l.starts_with("counter,")),
        "{csv}"
    );
    assert!(lines[13..].iter().all(|l| l.starts_with("meta,")), "{csv}");
    assert!(csv.contains(&format!("counter,topolb.placements,{N_TASKS},\n")));
    assert!(csv.contains("counter,topolb.order.second-order,1,\n"));
    assert!(csv.contains("meta,par.threads,1,\n"), "{csv}");
}
