//! Contention-refinement gate: hop-bytes-refined vs contention-refined
//! mappings, judged by the simulator's completion time.
//!
//! Hop-bytes is the paper's proxy for contention; `ContentionRefine`
//! optimizes the real thing (simulated makespan read off the per-link
//! ledger). The gate exercises the regimes where the proxy is blind:
//!
//! - **degraded-torus** (the saturated-scenario row): a (4,4,8) torus
//!   whose busiest router loses 90% of its outgoing bandwidth. Hop-bytes
//!   cannot see link speeds, so the refined-hop-bytes mapping keeps
//!   streaming through the sick router; contention refinement migrates
//!   the affected tasks onto the machine's free processors.
//! - **dragonfly-global**: an all-to-all workload on a dragonfly, where
//!   many same-router-index flows share single global channels and
//!   hop-bytes ties hide large differences in global-link sharing.
//! - **saturated-torus**: a transpose pattern at low bandwidth on a 2D
//!   torus — long-haul flows overlap on central links.
//!
//! Checks (fatal, so CI runs this binary as a gate):
//! - on every row, contention-refined makespan <= hop-bytes-refined
//!   makespan (the loop only ever accepts strict improvements);
//! - on the degraded-torus row, the improvement is >= 5%;
//! - the profiled run records `contention.sims > 0` and a
//!   `contention.refine` span, stamped as `PROFILE_contention.json`.
//!
//! Run: `cargo run -p topomap-bench --release --bin exp_contention [--threads N]`

use topomap_bench::print_table;
use topomap_core::{obs, ContentionRefine, Mapper, Mapping, Parallelism, RefineTopoLb, TopoLb};
use topomap_netsim::config::NicModel;
use topomap_netsim::{contention_oracle, trace, NetworkConfig, Simulation, Trace};
use topomap_taskgraph::{gen, TaskGraph};
use topomap_topology::{Dragonfly, RoutedTopology, Torus};

struct Row {
    scenario: String,
    machine: String,
    hb_makespan_ms: f64,
    contention_makespan_ms: f64,
    improvement_pct: f64,
    sims_run: usize,
    accepted: usize,
}

fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes an integer"))
        .unwrap_or(1)
}

struct Scenario {
    name: &'static str,
    tasks: TaskGraph,
    topo: Box<dyn RoutedTopology>,
    tr: Trace,
    cfg: NetworkConfig,
}

/// The degraded-torus scenario degrades the busiest router *of the
/// hop-bytes-refined mapping*, so the baseline provably suffers — the
/// realistic "failing linecard under the hottest router" case.
fn degraded_torus(par: Parallelism) -> Scenario {
    let tasks = gen::stencil2d(8, 8, 2.0 * 65_536.0, false);
    let topo = Torus::torus_3d(4, 4, 8);
    let tr = trace::stencil_trace(&tasks, 20, 5_000);
    let mut cfg = NetworkConfig::default().with_bandwidth(300e6);
    cfg.nic = NicModel::PerLink;

    let hb = hb_refined(&tasks, &topo, par);
    let clean = Simulation::run_with_links(&topo, &cfg, &tr, &hb);
    let busiest = (0..clean.links.len())
        .max_by_key(|&i| (clean.acct.busy_ns(i), std::cmp::Reverse(i)))
        .expect("torus has links");
    let sick = clean.links[busiest].from;
    cfg.link_speed_factors = topo
        .neighbors(sick)
        .into_iter()
        .map(|n| (sick, n, 0.1))
        .collect();
    Scenario {
        name: "degraded-torus",
        tasks,
        topo: Box::new(topo),
        tr,
        cfg,
    }
}

fn dragonfly_global() -> Scenario {
    let tasks = gen::all_to_all(16, 65_536.0);
    let topo = Dragonfly::new(4, 8);
    let tr = trace::stencil_trace(&tasks, 10, 5_000);
    let mut cfg = NetworkConfig::default().with_bandwidth(200e6);
    cfg.nic = NicModel::PerLink;
    Scenario {
        name: "dragonfly-global",
        tasks,
        topo: Box::new(topo),
        tr,
        cfg,
    }
}

fn saturated_torus() -> Scenario {
    let tasks = gen::transpose(6, 65_536.0);
    let topo = Torus::torus_2d(8, 8);
    let tr = trace::stencil_trace(&tasks, 10, 5_000);
    let mut cfg = NetworkConfig::default().with_bandwidth(150e6);
    cfg.nic = NicModel::PerLink;
    Scenario {
        name: "saturated-torus",
        tasks,
        topo: Box::new(topo),
        tr,
        cfg,
    }
}

fn hb_refined(tasks: &TaskGraph, topo: &dyn RoutedTopology, par: Parallelism) -> Mapping {
    RefineTopoLb::with_parallelism(
        TopoLb {
            par,
            ..TopoLb::default()
        },
        par,
    )
    .map(tasks, topo)
}

fn run_scenario(sc: &Scenario, par: Parallelism) -> Row {
    let topo = sc.topo.as_ref();
    let hb = hb_refined(&sc.tasks, topo, par);
    let hb_stats = Simulation::run(topo, &sc.cfg, &sc.tr, &hb);

    let mut refined = hb.clone();
    let refiner = ContentionRefine {
        max_iters: 24,
        sim_budget: 120,
        par,
        ..ContentionRefine::default()
    };
    let report = refiner.refine(
        &sc.tasks,
        topo,
        &mut refined,
        contention_oracle(topo, &sc.cfg, &sc.tr),
    );
    assert_eq!(
        report.initial_makespan_ns, hb_stats.completion_ns,
        "{}: oracle and Simulation::run disagree on the baseline",
        sc.name
    );

    Row {
        scenario: sc.name.to_string(),
        machine: topo.name(),
        hb_makespan_ms: hb_stats.completion_ns as f64 / 1e6,
        contention_makespan_ms: report.final_makespan_ns as f64 / 1e6,
        improvement_pct: report.improvement_pct(),
        sims_run: report.sims_run,
        accepted: report.accepted,
    }
}

fn main() {
    let threads = threads_arg();
    let par = Parallelism::fixed(threads);

    let scenarios = [degraded_torus(par), dragonfly_global(), saturated_torus()];
    let rows: Vec<Row> = scenarios.iter().map(|sc| run_scenario(sc, par)).collect();

    // Profiled re-run of the gated scenario: prove the loop records its
    // spans/counters, stamped for the CI artifact.
    let sc = &scenarios[0];
    obs::start();
    let mut m = hb_refined(&sc.tasks, sc.topo.as_ref(), par);
    let refiner = ContentionRefine {
        max_iters: 24,
        sim_budget: 120,
        par,
        ..ContentionRefine::default()
    };
    refiner.refine(
        &sc.tasks,
        sc.topo.as_ref(),
        &mut m,
        contention_oracle(sc.topo.as_ref(), &sc.cfg, &sc.tr),
    );
    let report = obs::finish();
    let profiled_sims = report.counter("contention.sims").unwrap_or(0);
    assert!(
        profiled_sims > 0,
        "profiled refine recorded no contention.sims"
    );
    assert!(
        report.find_span("contention.refine").is_some(),
        "profiled refine recorded no contention.refine span"
    );
    std::fs::write("PROFILE_contention.json", report.to_json())
        .unwrap_or_else(|e| panic!("write PROFILE_contention.json: {e}"));

    print_table(
        &format!("Hop-bytes-refined vs contention-refined makespan ({threads} thread(s))"),
        &[
            "scenario",
            "machine",
            "hb ms",
            "contention ms",
            "gain",
            "sims",
            "accepted",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.scenario.clone(),
                    r.machine.clone(),
                    format!("{:.2}", r.hb_makespan_ms),
                    format!("{:.2}", r.contention_makespan_ms),
                    format!("{:.1}%", r.improvement_pct),
                    format!("{}", r.sims_run),
                    format!("{}", r.accepted),
                ]
            })
            .collect::<Vec<_>>(),
    );

    for r in &rows {
        assert!(
            r.contention_makespan_ms <= r.hb_makespan_ms + 1e-9,
            "{}: contention-refined {:.3} ms worse than hop-bytes-refined {:.3} ms",
            r.scenario,
            r.contention_makespan_ms,
            r.hb_makespan_ms
        );
    }
    let degraded = &rows[0];
    assert!(
        degraded.improvement_pct >= 5.0,
        "degraded-torus row gained only {:.2}% (< 5%)",
        degraded.improvement_pct
    );
    println!("\nContention refinement gate PASSED.");
}
