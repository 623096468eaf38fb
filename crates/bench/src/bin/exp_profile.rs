//! Profiled smoke run: exercise every mapper family, one simulator run,
//! the two 4096-processor kernels, TopoLB's general f64 kernel on a
//! 2,048-task weighted graph, the two-phase pipeline and RCB at 16,384
//! tasks and the contention loop with the observability layer armed, validate
//! the reports (span tree with at least three phases, non-zero counters),
//! and stamp them as `PROFILE_<name>.json` in the working directory
//! (gitignored).
//!
//! This is the bench-side consumer of `topomap_core::obs`: perf PRs diff
//! these profiles to see where a change moved time; wall-clock numbers
//! come from the benchmark (`benchmark/README.md`).
//!
//! Run: `cargo run --release -p topomap-bench --bin exp_profile`

use topomap_bench::cases::Scale;
use topomap_core::obs;
use topomap_core::pipeline::two_phase;
use topomap_core::{
    EstimationOrder, GeneticMap, HierMapper, Mapper, RcbMap, RefineTopoLb, SimulatedAnnealingMap,
    TopoCentLb, TopoLb,
};
use topomap_netsim::{trace, NetworkConfig, Simulation};
use topomap_partition::MultilevelKWay;
use topomap_taskgraph::gen;
use topomap_topology::{Topology, Torus};

/// Root span's elapsed time, as the run's wall-clock estimate.
fn root_elapsed_ms(report: &obs::Report) -> f64 {
    report.spans.iter().map(|s| s.elapsed_ns).sum::<u64>() as f64 / 1e6
}

/// Record `run`, hold the report to the acceptance gate — a usable
/// profile has a span tree of >= 3 phases, at least one non-zero counter
/// and, if a region fanned out, its workers' probes — and stamp it.
fn profile<R>(name: &str, run: impl FnOnce() -> R) -> obs::Report {
    let (_, report) = obs::record(run);
    assert!(
        report.span_count() >= 3,
        "{name}: span tree too shallow: {:?}",
        report.span_names()
    );
    assert!(
        report.counters.iter().any(|c| c.value > 0),
        "{name}: all counters zero"
    );
    assert!(
        report.counter("par.regions.parallel").unwrap_or(0) == 0
            || report.counter("par.worker.1.busy_ns").is_some(),
        "{name}: a region fanned out but no worker probe reached the report"
    );
    let path = format!("PROFILE_{name}.json");
    std::fs::write(&path, report.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "{path:<28} {:>3} spans {:>3} counters {:>9.2} ms",
        report.span_count(),
        report.counters.len(),
        root_elapsed_ms(&report)
    );
    report
}

fn main() {
    let tasks = gen::stencil2d(8, 8, 2048.0, false);
    let topo = Torus::torus_2d(8, 8);
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
    for (name, mapper) in &mappers {
        profile(name, || mapper.map(&tasks, &topo));
    }

    // One profiled simulator run over the TopoLB placement: the
    // contention heatmap (per-link bytes/busy series) rides in the trace.
    let mapping = TopoLb::default().map(&tasks, &topo);
    let tr = trace::stencil_trace(&tasks, 20, 5_000);
    let cfg = NetworkConfig::default().with_bandwidth(500.0e6);
    let report = profile("netsim", || Simulation::run(&topo, &cfg, &tr, &mapping));
    assert!(
        report.series("netsim.link_bytes").is_some(),
        "netsim profile lost its contention heatmap"
    );

    // Where the time goes at 4096 processors, flat and hierarchical (the
    // matrix's `hier` row; more than one thread shows up as
    // `par.regions.parallel` in the second).
    let tasks = gen::stencil2d(64, 64, 1024.0, true);
    let topo = Torus::torus_2d(64, 64);
    profile("scaling_4096", || TopoLb::default().map(&tasks, &topo));

    // The general f64 kernel at scale: the benchmark's `place_weighted`
    // random graph of 2,048 tasks with unequal weights.
    let weighted = gen::random_graph(2048, 8.0, 512.0, 4096.0, 2);
    let wtopo = Torus::torus_3d(8, 16, 16);
    let report = profile("weighted_2048", || TopoLb::default().map(&weighted, &wtopo));
    assert!(
        report.counter("estimation.kernel_general") == Some(1)
            && report.counter("estimation.rescan_cells").unwrap_or(0) > 0
            && report.counter("estimation.event_cells").unwrap_or(0) > 0,
        "weighted profile did not fold rows on the general kernel"
    );
    let hier = HierMapper::for_torus(&topo).expect("a 64 x 64 torus factors into blocks");
    let report = profile("hier_4096", || hier.map(&tasks, &topo));
    // The coarse step's decomposition: block table, coarse TopoLB,
    // cluster sweeps.
    let coarse = report.find_span("hier.coarse_map");
    for step in [
        "hier.coarse.table",
        "hier.coarse.topolb",
        "hier.coarse.sweeps",
    ] {
        assert!(
            coarse.is_some_and(|c| c.children.iter().any(|s| s.name == step)),
            "hier profile lost `{step}` under `hier.coarse_map`: {:?}",
            report.span_names()
        );
    }

    // The paper's two phases on the benchmark's `scale` case: partition
    // 16,384 tasks into 1,024 groups, coalesce, place the groups.
    let tasks = gen::stencil2d(128, 128, 4096.0, false);
    let topo = Torus::torus_2d(32, 32);
    let report = profile("twophase_16384", || {
        two_phase(
            &tasks,
            &topo,
            &MultilevelKWay::default(),
            &TopoLb::default(),
        )
    });
    assert!(
        ["pipeline.partition", "pipeline.coalesce", "pipeline.map"]
            .iter()
            .all(|phase| report.find_span(phase).is_some())
            && report.counter("pipeline.tasks") == Some(16_384)
            && report.counter("pipeline.groups") == Some(1_024),
        "two-phase profile lost a phase: {:?}",
        report.span_names()
    );

    // RCB on the same 16,384-task stencil and a 128 x 128 torus (the
    // benchmark's `rcb/stencil2d-16384`). Each level stable-partitions
    // the lists sorted once per axis, writing at most two lists of every
    // task and processor, so the ids written are bounded by counted work
    // on any host; a per-level re-sort would have to write more.
    let rtopo = Torus::torus_2d(128, 128);
    let report = profile("rcb_16384", || RcbMap::new().map(&tasks, &rtopo));
    let (levels, moved) = (
        report.counter("geom.rcb.levels").unwrap_or(0),
        report.counter("geom.rcb.moved").unwrap_or(0),
    );
    let ids = (tasks.num_tasks() + rtopo.num_nodes()) as u64;
    assert!(
        levels == 14 && 0 < moved && moved <= 2 * ids * levels,
        "RCB wrote {moved} ids over {levels} levels (bound 2 x {ids} a level)"
    );

    // The matrix's three `contention` rows, recorded.
    let report = profile("contention", || {
        topomap_bench::run::run("contention", Scale::Default)
    });
    assert!(
        report.counter("contention.sims").unwrap_or(0) > 0
            && report.find_span("contention.refine").is_some(),
        "profiled refine recorded no contention.sims or no contention.refine span"
    );
    // Rejected trials stop at the makespan they had to beat; the baseline
    // and every accepted trial run to the end.
    let (sims, cut) = (
        report.counter("contention.sims").unwrap_or(0),
        report.counter("contention.sims_cut").unwrap_or(0),
    );
    assert!(
        0 < cut && cut < sims,
        "profiled refine cut {cut} of {sims} simulations at their horizon"
    );
}
