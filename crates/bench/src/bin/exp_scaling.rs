//! Scaling smoke gate for the incremental-gain kernels: map a
//! 4096-processor torus and hold it to a host-relative wall-clock
//! budget, with a profiled run as evidence that the gain-scan phase no
//! longer dominates.
//!
//! The budget is anchored to hardware the run actually measures, not to
//! stored numbers: the dense naive oracle ([`NaiveTopoLb`]) mapping the
//! 576-node case is this host's unit of "pre-optimization work". The
//! incremental kernel must map the 7.1x-larger 4096-node machine within
//! 3x that unit. At the seed the production kernel itself took the
//! oracle's ballpark on 576 nodes (~27.5 ms, TopoLB/576 as measured at
//! PR 6), and a kernel that slid back onto the quadratic cliff
//! would pay ~50x the unit at 4096 — the gate fails loudly long before
//! that.
//!
//! Checks (all fatal, so CI runs this binary as a gate):
//! - incremental 4096-node map <= 3x the naive 576-node map;
//! - in the profiled 4096 run, selection (the per-step gain scan over
//!   the frontier) costs less than the delta update itself
//!   (`topolb.select_ns < topolb.assign_ns`) — the gain scan is off the
//!   critical path. The report is stamped as
//!   `PROFILE_scaling_4096.json` next to the other baselines.
//!
//! Run: `cargo run -p topomap-bench --release --bin exp_scaling`

use std::time::Instant;
use topomap_bench::{fmt_time_ns, print_table};
use topomap_core::naive::NaiveTopoLb;
use topomap_core::{obs, EstimationOrder, HierMapper, Mapper, TopoLb};
use topomap_taskgraph::gen;
use topomap_topology::Torus;

/// Best-of-3 wall-clock of one mapper run (single-shot timings on a
/// shared host drift by 2x; the floor is the stable statistic).
fn best_of_3(f: impl Fn() -> usize) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut witness = 0;
    for _ in 0..3 {
        let t0 = Instant::now();
        witness = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, witness)
}

fn main() {
    let lb = TopoLb::new(EstimationOrder::Second);
    let mut rows = Vec::new();
    let mut wall = Vec::new();
    for side in [24usize, 32, 64] {
        let tasks = gen::stencil2d(side, side, 1024.0, true);
        let topo = Torus::torus_2d(side, side);
        let (secs, m0) = best_of_3(|| lb.map(&tasks, &topo).proc_of(0));
        wall.push(secs);
        rows.push(vec![
            format!("{}", side * side),
            "TopoLB (incremental)".into(),
            format!("{:.3} ms", secs * 1e3),
            format!("{m0}"),
        ]);
    }
    let (t576, t4096) = (wall[0], wall[2]);

    // The host-relative work unit: the pre-optimization oracle on the
    // 576-node case. (At 4096 nodes it would take minutes.)
    let tasks = gen::stencil2d(24, 24, 1024.0, true);
    let topo = Torus::torus_2d(24, 24);
    let naive = NaiveTopoLb::default();
    let (unit, m0) = best_of_3(|| naive.map(&tasks, &topo).proc_of(0));
    rows.push(vec![
        "576".into(),
        "NaiveTopoLB (oracle)".into(),
        format!("{:.3} ms", unit * 1e3),
        format!("{m0}"),
    ]);

    // The hierarchical mapper must beat the flat kernel it decomposes
    // on the same 4096-node case — it rides the same smoke gate.
    let tasks = gen::stencil2d(64, 64, 1024.0, true);
    let topo = Torus::torus_2d(64, 64);
    let hier = HierMapper::for_torus(&topo).expect("square torus factors");
    let (t_hier, m0) = best_of_3(|| hier.map(&tasks, &topo).proc_of(0));
    rows.push(vec![
        "4096".into(),
        "HierMapper".into(),
        format!("{:.3} ms", t_hier * 1e3),
        format!("{m0}"),
    ]);

    // Profiled 4096 run: where does the time go now?
    let tasks = gen::stencil2d(64, 64, 1024.0, true);
    let topo = Torus::torus_2d(64, 64);
    obs::start();
    let m = lb.map(&tasks, &topo);
    let report = obs::finish();
    drop(m);
    let select_ns = report.counter("topolb.select_ns").unwrap_or(0);
    let assign_ns = report.counter("topolb.assign_ns").unwrap_or(0);
    std::fs::write("PROFILE_scaling_4096.json", report.to_json())
        .unwrap_or_else(|e| panic!("write PROFILE_scaling_4096.json: {e}"));

    print_table(
        "Scaling smoke (2D periodic stencil on matching 2D torus)",
        &["p", "kernel", "wall (best of 3)", "m0"],
        &rows,
    );
    println!(
        "\n4096/576 incremental wall ratio: {:.2}x; 4096 vs naive-576 unit: \
         {:.2}x (budget 3x)",
        t4096 / t576,
        t4096 / unit,
    );
    println!(
        "profiled 4096 run: select {} vs assign {} -> gain scan {}dominant \
         (PROFILE_scaling_4096.json)",
        fmt_time_ns(select_ns),
        fmt_time_ns(assign_ns),
        if select_ns < assign_ns { "non-" } else { "" },
    );

    assert!(
        t4096 <= 3.0 * unit,
        "4096-node map blew the smoke budget: {:.1} ms > 3 x {:.1} ms \
         (naive 576-node unit)",
        t4096 * 1e3,
        unit * 1e3
    );
    assert!(
        t_hier <= t4096,
        "HierMapper slower than the flat kernel it decomposes at 4096: \
         {:.1} ms > {:.1} ms",
        t_hier * 1e3,
        t4096 * 1e3
    );
    assert!(
        select_ns < assign_ns,
        "gain scan still dominates: select {select_ns} ns >= assign {assign_ns} ns"
    );
    assert!(
        report.find_span("topolb.map").is_some() && report.find_span("topolb.place").is_some(),
        "profile lost its span tree"
    );
    println!("\nScaling smoke PASSED.");
}
