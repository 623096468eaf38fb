//! Profiled smoke run: exercise every mapper family and one simulator
//! run with the observability layer armed, validate the reports (span
//! tree with at least three phases, non-zero counters), and stamp them
//! as `PROFILE_<name>.json` in the working directory (gitignored).
//!
//! This is the bench-side consumer of `topomap_core::obs`: perf PRs diff
//! these profiles to see where a change moved time; wall-clock numbers
//! come from the benchmark (`benchmark/README.md`).
//!
//! Run: `cargo run -p topomap-bench --release --bin exp_profile [--full]`

use topomap_bench::{fmt_time_ns, full_mode, print_table};
use topomap_core::obs;
use topomap_core::{
    EstimationOrder, GeneticMap, Mapper, RefineTopoLb, SimulatedAnnealingMap, TopoCentLb, TopoLb,
};
use topomap_netsim::{trace, NetworkConfig, Simulation};
use topomap_taskgraph::gen;
use topomap_topology::Torus;

/// Root span's elapsed time, as the run's wall-clock estimate.
fn root_elapsed_ns(report: &obs::Report) -> u64 {
    report.spans.iter().map(|s| s.elapsed_ns).sum()
}

/// The acceptance gate: a usable profile has a span tree of >= 3 phases
/// and at least one non-zero counter.
fn validate(name: &str, report: &obs::Report) {
    assert!(
        report.span_count() >= 3,
        "{name}: span tree too shallow: {:?}",
        report.span_names()
    );
    assert!(
        report.counters.iter().any(|c| c.value > 0),
        "{name}: all counters zero"
    );
}

fn stamp(name: &str, report: &obs::Report) -> String {
    let path = format!("PROFILE_{name}.json");
    std::fs::write(&path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    path
}

fn main() {
    let side = if full_mode() { 16 } else { 8 };
    let tasks = gen::stencil2d(side, side, 2048.0, false);
    let topo = Torus::torus_2d(side, side);

    let mappers: Vec<(&str, Box<dyn Mapper>)> = vec![
        ("TopoLB", Box::new(TopoLb::new(EstimationOrder::Second))),
        ("TopoCentLB", Box::new(TopoCentLb)),
        (
            "TopoLB-Refine",
            Box::new(RefineTopoLb::new(TopoLb::new(EstimationOrder::Second))),
        ),
        ("SimAnneal", Box::new(SimulatedAnnealingMap::quick(1))),
        ("Genetic", Box::new(GeneticMap::quick(1))),
    ];

    let mut rows = Vec::new();
    for (name, mapper) in &mappers {
        obs::start();
        let mapping = mapper.map(&tasks, &topo);
        let report = obs::finish();
        validate(name, &report);
        let path = stamp(name, &report);
        rows.push(vec![
            name.to_string(),
            report.span_count().to_string(),
            report.counters.len().to_string(),
            fmt_time_ns(root_elapsed_ns(&report)),
            path,
        ]);
        drop(mapping);
    }

    // One profiled simulator run over the TopoLB placement: the
    // contention heatmap (per-link bytes/busy series) rides in the trace.
    let mapping = TopoLb::default().map(&tasks, &topo);
    let tr = trace::stencil_trace(&tasks, if full_mode() { 100 } else { 20 }, 5_000);
    let cfg = NetworkConfig::default().with_bandwidth(500.0e6);
    obs::start();
    let stats = Simulation::run(&topo, &cfg, &tr, &mapping);
    let report = obs::finish();
    validate("netsim", &report);
    assert!(
        report.series("netsim.link_bytes").is_some(),
        "netsim profile lost its contention heatmap"
    );
    let path = stamp("netsim", &report);
    rows.push(vec![
        "netsim".to_string(),
        report.span_count().to_string(),
        report.counters.len().to_string(),
        fmt_time_ns(root_elapsed_ns(&report)),
        path,
    ]);

    print_table(
        "Profiled smoke run (stencil on 2D torus, recording armed)",
        &["run", "spans", "counters", "wall", "profile"],
        &rows,
    );
    println!(
        "\nSimulated completion under the profiled TopoLB mapping: {:.3} ms;\n\
         every report validated (>= 3 phases, non-zero counters) and written\n\
         to the working directory.",
        stats.completion_ms()
    );
}
