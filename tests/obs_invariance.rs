//! Instrumentation-invariance suite: the observability layer must be
//! **provably non-perturbing**. For every instrumented mapper, every
//! topology family, and thread counts {1, 4}, a run with recording ON must
//! produce a bit-identical result to the same run with recording OFF — and
//! the counters it emits must be internally consistent and
//! thread-invariant. (ON ≡ OFF for every registered mapper is also a check
//! of `tests/mapper_invariants.rs`.)
//! An OFF run is simply a run outside `obs::record`; each recording holds
//! its own run alone, whatever the harness runs beside it.

use proptest::prelude::*;
use topomap::core::obs;
use topomap::core::pipeline::two_phase;
use topomap::core::refine::refine_mapping_with;
use topomap::netsim::config::RoutingMode;
use topomap::netsim::trace::{stencil_trace, TraceOp};
use topomap::prelude::*;
use topomap::taskgraph::gen;

fn arb_task_graph() -> impl Strategy<Value = TaskGraph> {
    (4usize..=16, 0.5f64..4.0, any::<u64>())
        .prop_map(|(n, deg, seed)| gen::random_graph(n, deg.min(n as f64 - 1.0), 1.0, 1000.0, seed))
}

/// One topology of each family: 2-D torus, hypercube, ring
/// (GraphTopology), and a distance-cached torus (CachedTopology).
fn topology_for(idx: usize, min_nodes: usize) -> Box<dyn Topology> {
    match idx {
        0 => {
            let side = (min_nodes as f64).sqrt().ceil() as usize;
            Box::new(Torus::torus_2d(side, side))
        }
        1 => {
            let dims = (min_nodes as f64).log2().ceil() as u32;
            Box::new(Hypercube::new(dims.max(1)))
        }
        2 => Box::new(GraphTopology::ring(min_nodes)),
        _ => {
            let side = (min_nodes as f64).sqrt().ceil() as usize;
            Box::new(CachedTopology::new(Torus::torus_2d(side, side)))
        }
    }
}

/// One routed topology per family for the ledger-conservation suite (the
/// conservation law needs `RoutedTopology` — real links — not just a
/// distance metric).
fn routed_for(idx: usize, min_nodes: usize) -> Box<dyn RoutedTopology> {
    match idx {
        0 => {
            let side = (min_nodes as f64).sqrt().ceil() as usize;
            Box::new(Torus::torus_2d(side, side))
        }
        1 => {
            let dims = (min_nodes as f64).log2().ceil() as u32;
            Box::new(Hypercube::new(dims.max(1)))
        }
        2 => Box::new(GraphTopology::ring(min_nodes)),
        _ => Box::new(Dragonfly::new(4, min_nodes.div_ceil(4))),
    }
}

/// Analytic hop-bytes of a trace under a mapping: each `Send` crosses
/// exactly `distance(src_proc, dst_proc)` links under minimal routing,
/// charging its full payload on every link of the path.
fn trace_hop_bytes(tr: &Trace, topo: &dyn RoutedTopology, m: &Mapping) -> u64 {
    let mut total = 0u64;
    for (t, prog) in tr.programs.iter().enumerate() {
        for op in prog {
            if let TraceOp::Send { to, bytes } = *op {
                total += bytes * topo.distance(m.proc_of(t), m.proc_of(to)) as u64;
            }
        }
    }
    total
}

const ORDERS: [EstimationOrder; 3] = [
    EstimationOrder::First,
    EstimationOrder::Second,
    EstimationOrder::Third,
];

fn counter(r: &obs::Report, name: &str) -> u64 {
    r.counter(name).unwrap_or(0)
}

/// The TopoLB/estimation counter identities for the incremental kernels:
/// one assign per task; one row event per task-graph edge (an edge fires
/// exactly once, when its first endpoint is placed); every row event is
/// folded in full (and argmin-hit refolds only add), so the full-scan
/// count dominates the row events; and exactly one estimation kernel
/// (general f64 or uniform-integer) is selected per run. The general
/// kernel also counts the cells it folds per path: an edge event's or a
/// refold's row is the free list after the placement, between `p − n + 1`
/// and `p − 1` cells long.
fn check_topolb_counters(r: &obs::Report, g: &TaskGraph, p: usize, order: EstimationOrder) {
    let n = g.num_tasks() as u64;
    assert_eq!(counter(r, "topolb.placements"), n);
    assert_eq!(counter(r, "estimation.assigns"), n);
    let edges = g.num_edges() as u64;
    assert_eq!(
        counter(r, "estimation.row_events"),
        edges,
        "order {order:?}"
    );
    let full = counter(r, "estimation.fest_full_scan");
    assert!(
        full >= edges,
        "full {full} < edges {edges}, order {order:?}"
    );
    if order == EstimationOrder::Third {
        // Third order refolds the whole frontier every step; the
        // incremental subtraction path never runs.
        assert_eq!(
            counter(r, "estimation.fest_incremental"),
            0,
            "third order always rescans in full"
        );
    }
    let gen_runs = counter(r, "estimation.kernel_general");
    let uni_runs = counter(r, "estimation.kernel_uniform_int");
    assert_eq!(gen_runs + uni_runs, 1, "exactly one kernel per run");
    if order == EstimationOrder::Third {
        assert_eq!(uni_runs, 0, "third order never takes the integer kernel");
    }
    assert_eq!(counter(r, &format!("topolb.order.{}", order.label())), 1);
    let (event_cells, rescan_cells) = (
        counter(r, "estimation.event_cells"),
        counter(r, "estimation.rescan_cells"),
    );
    if uni_runs == 1 {
        assert_eq!(
            (event_cells, rescan_cells),
            (0, 0),
            "general-kernel counters only"
        );
        return;
    }
    // Argmin-hit rescans for orders one/two; the frontier refold (which
    // folds the event rows too) for order three.
    let rescans = match order {
        EstimationOrder::Third => full,
        _ => full - edges,
    };
    let (lo, hi) = (p as u64 + 1 - n, p as u64 - 1);
    for (cells, rows, path) in [
        (event_cells, edges, "event"),
        (rescan_cells, rescans, "rescan"),
    ] {
        assert!(
            (rows * lo..=rows * hi).contains(&cells),
            "{path}_cells {cells} for {rows} rows of {lo}..={hi} cells, order {order:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// TopoLB: recording ON is bit-identical to OFF at 1 and 4 threads,
    /// the estimation counters obey their closed forms, and every
    /// algorithm counter is identical across thread counts.
    #[test]
    fn topolb_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        order_idx in 0usize..3,
    ) {
        let topo = topology_for(topo_idx, 25);
        let order = ORDERS[order_idx];

        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let mapper = TopoLb::with_parallelism(order, Parallelism::eager(threads));
            let off = mapper.map(&g, topo.as_ref());
            let (on, report) = obs::record(|| mapper.map(&g, topo.as_ref()));
            prop_assert_eq!(&off, &on, "ON differs from OFF at {} threads", threads);
            check_topolb_counters(&report, &g, topo.num_nodes(), order);
            reports.push(report);
        }
        // Thread-count invariance of the algorithm counters (the par.*
        // and *_ns counters legitimately differ).
        for name in [
            "topolb.placements",
            "estimation.assigns",
            "estimation.row_events",
            "estimation.fest_full_scan",
            "estimation.fest_incremental",
            "estimation.event_cells",
            "estimation.rescan_cells",
            "estimation.kernel_general",
            "estimation.kernel_uniform_int",
        ] {
            prop_assert_eq!(
                reports[0].counter(name), reports[1].counter(name),
                "counter {} depends on thread count", name
            );
        }
    }

    /// RefineTopoLB: ON == OFF, accepted + rejected == evaluated, the
    /// delta-HB trajectory has one sample per accepted exchange, and the
    /// refine counters are thread-invariant.
    #[test]
    fn refine_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
    ) {
        let topo = topology_for(topo_idx, 25);

        let mut reports = Vec::new();
        for threads in [1usize, 4] {
            let mapper = RefineTopoLb::with_parallelism(
                TopoLb::with_parallelism(EstimationOrder::Second, Parallelism::eager(threads)),
                Parallelism::eager(threads),
            );
            let off = mapper.map(&g, topo.as_ref());
            let (on, report) = obs::record(|| mapper.map(&g, topo.as_ref()));
            prop_assert_eq!(&off, &on, "ON differs from OFF at {} threads", threads);

            let acc = counter(&report, "refine.swaps_accepted");
            let rej = counter(&report, "refine.swaps_rejected");
            prop_assert_eq!(counter(&report, "refine.candidates_evaluated"), acc + rej);
            let trajectory = report.series("refine.delta_hb").map_or(0, |s| s.count);
            prop_assert_eq!(trajectory, acc, "one delta sample per acceptance");
            // Every accepted exchange strictly improves hop-bytes.
            if let Some(s) = report.series("refine.delta_hb") {
                prop_assert!(s.values.iter().all(|&d| d < 0.0), "{:?}", s.values);
            }
            reports.push(report);
        }
        for name in [
            "refine.candidates_evaluated",
            "refine.swaps_accepted",
            "refine.swaps_rejected",
            "refine.passes",
        ] {
            prop_assert_eq!(
                reports[0].counter(name), reports[1].counter(name),
                "counter {} depends on thread count", name
            );
        }
    }

    /// TopoCentLB: ON == OFF; the heap ledger is ordered
    /// stale <= pops <= pushes and places every task.
    #[test]
    fn topocentlb_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
    ) {
        let topo = topology_for(topo_idx, 25);
        let off = TopoCentLb.map(&g, topo.as_ref());
        let (on, report) = obs::record(|| TopoCentLb.map(&g, topo.as_ref()));
        prop_assert_eq!(&off, &on);
        prop_assert_eq!(counter(&report, "topocentlb.placements"), g.num_tasks() as u64);
        let pushes = counter(&report, "topocentlb.heap_pushes");
        let pops = counter(&report, "topocentlb.heap_pops");
        let stale = counter(&report, "topocentlb.stale_pops");
        prop_assert!(stale <= pops, "stale {stale} > pops {pops}");
        prop_assert!(pops <= pushes, "pops {pops} > pushes {pushes}");
    }

    /// The stochastic mappers: ON == OFF with the same seed, and the
    /// proposal/fitness ledgers balance exactly.
    #[test]
    fn stochastic_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let topo = topology_for(topo_idx, 25);

        let sa = SimulatedAnnealingMap::quick(seed);
        let off = sa.map(&g, topo.as_ref());
        let (on, report) = obs::record(|| sa.map(&g, topo.as_ref()));
        prop_assert_eq!(&off, &on, "SA perturbed by recording");
        if let Some(proposals) = report.counter("anneal.proposals") {
            // (Edgeless graphs return before the search loop and emit
            // nothing — the mapping equality above still covers them.)
            let acc = counter(&report, "anneal.accepted");
            let rej = counter(&report, "anneal.rejected");
            let voided = counter(&report, "anneal.voided");
            prop_assert_eq!(acc + rej + voided, proposals, "proposal ledger leak");
            prop_assert_eq!(
                proposals,
                counter(&report, "anneal.temp_steps") * sa.moves_per_temp as u64
            );
            let hb_samples = report.series("anneal.hb").map_or(0, |s| s.count);
            prop_assert_eq!(hb_samples, counter(&report, "anneal.temp_steps"));
        }

        let ga = GeneticMap { par: Parallelism::eager(4), generations: 8, ..GeneticMap::quick(seed) };
        let off = ga.map(&g, topo.as_ref());
        let (on, report) = obs::record(|| ga.map(&g, topo.as_ref()));
        prop_assert_eq!(&off, &on, "GA perturbed by recording");
        prop_assert_eq!(
            counter(&report, "genetic.fitness_evaluations"),
            counter(&report, "genetic.initial_pop") + counter(&report, "genetic.children_bred"),
            "every genome scored exactly once"
        );
        prop_assert_eq!(counter(&report, "genetic.generations"), 8);
        let best = report.series("genetic.best_hb").map_or(0, |s| s.count);
        prop_assert_eq!(best, 8, "one best-fitness sample per generation");
    }

    /// The two-phase pipeline: ON == OFF in all three outputs, one span per
    /// phase, and the two size counters read the instance.
    #[test]
    fn two_phase_recording_is_invisible(
        n in 30usize..=80,
        deg in 1.0f64..5.0,
        seed in any::<u64>(),
        topo_idx in 0usize..4,
    ) {
        let g = gen::random_graph(n, deg, 1.0, 1000.0, seed);
        let topo = topology_for(topo_idx, 9);
        let (ml, mapper) = (MultilevelKWay::default(), TopoLb::default());
        let off = two_phase(&g, topo.as_ref(), &ml, &mapper);
        let (on, report) = obs::record(|| two_phase(&g, topo.as_ref(), &ml, &mapper));
        prop_assert_eq!(&off.partition, &on.partition);
        prop_assert_eq!(&off.group_graph, &on.group_graph);
        prop_assert_eq!(&off.group_mapping, &on.group_mapping);
        for phase in ["pipeline.partition", "pipeline.coalesce", "pipeline.map"] {
            prop_assert!(report.find_span(phase).is_some(), "no {} span", phase);
        }
        prop_assert_eq!(counter(&report, "pipeline.tasks"), n as u64);
        prop_assert_eq!(counter(&report, "pipeline.groups"), topo.num_nodes() as u64);
        prop_assert_eq!(counter(&report, "topolb.placements"), topo.num_nodes() as u64);
    }

    /// The baseline mappers carry no instrumentation but must still be
    /// byte-identical under recording (they share the metric kernels).
    #[test]
    fn baseline_mappers_recording_is_invisible(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let topo = topology_for(topo_idx, 25);
        for mapper in [
            Box::new(RandomMap::new(seed)) as Box<dyn Mapper>,
            Box::new(IdentityMap),
        ] {
            let off = mapper.map(&g, topo.as_ref());
            let (on, _) = obs::record(|| mapper.map(&g, topo.as_ref()));
            prop_assert_eq!(&off, &on, "{} perturbed by recording", mapper.name());
        }
    }

    /// Netsim: recording must not shift a single simulated nanosecond,
    /// and the per-link byte heatmap must sum to the independently
    /// accumulated bytes x hops ledger.
    #[test]
    fn netsim_recording_is_invisible(
        rx in 2usize..=4,
        ry in 2usize..=4,
        iters in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let g = gen::stencil2d(rx, ry, 2048.0, false);
        let topo = Torus::torus_2d(rx, ry);
        let m = RandomMap::new(seed).map(&g, &topo);
        let tr = stencil_trace(&g, iters, 1_000);
        let cfg = NetworkConfig::default();

        let off = Simulation::run(&topo, &cfg, &tr, &m);
        let (on, report) = obs::record(|| Simulation::run(&topo, &cfg, &tr, &m));
        prop_assert_eq!(&off, &on, "simulation perturbed by recording");

        prop_assert!(counter(&report, "netsim.events") > 0);
        prop_assert_eq!(
            counter(&report, "netsim.messages.network") + counter(&report, "netsim.messages.local"),
            off.network_messages + off.local_messages
        );
        // Two independent ledgers for realized hop-bytes: per-delivery
        // (bytes x hops at delivery time) vs per-link (bytes charged on
        // each link crossed). They must agree exactly.
        let link_bytes: f64 = report
            .series("netsim.link_bytes")
            .map_or(0.0, |s| s.values.iter().sum());
        prop_assert_eq!(link_bytes as u64, counter(&report, "netsim.bytes_hops"));
        // The heatmap has one row per directed link of the machine.
        let links = report.series("netsim.link_bytes").map_or(0, |s| s.count);
        let busy = report.series("netsim.link_busy_ns").map_or(0, |s| s.count);
        prop_assert_eq!(links, busy, "heatmap series must be parallel arrays");
    }

    /// Ledger conservation, the netsim analogue of Kirchhoff's law: over
    /// arbitrary small topologies × random mappings, the per-link byte
    /// ledger of a deterministic run sums to exactly Σ bytes × distance
    /// over the trace's `Send`s — no bytes invented, none lost, every
    /// message charged on a shortest path. Minimal-adaptive routing may
    /// spread load differently but must never exceed that total (adaptive
    /// stays minimal).
    #[test]
    fn netsim_ledger_conserves_hop_bytes(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
        iters in 1usize..=3,
    ) {
        let topo = routed_for(topo_idx, g.num_tasks().max(9));
        let m = RandomMap::new(seed).map(&g, topo.as_ref());
        let tr = stencil_trace(&g, iters, 1_000);
        let analytic = trace_hop_bytes(&tr, topo.as_ref(), &m);

        let det = NetworkConfig::default();
        let rep = Simulation::run_with_links(topo.as_ref(), &det, &tr, &m);
        let ledger: u64 = rep.acct.bytes_slice().iter().sum();
        prop_assert_eq!(
            ledger, analytic,
            "deterministic routing must charge bytes x distance exactly on {}",
            topo.name()
        );
        prop_assert_eq!(ledger, rep.acct.total_bytes_hops(), "internal ledgers disagree");
        prop_assert_eq!(rep.stats.bytes_delivered, tr.total_send_bytes());
        // The ledger-keeping entry point reports the same statistics as
        // the plain one.
        prop_assert_eq!(&Simulation::run(topo.as_ref(), &det, &tr, &m), &rep.stats);

        let ada = NetworkConfig {
            routing: RoutingMode::MinimalAdaptive,
            ..NetworkConfig::default()
        };
        let arep = Simulation::run_with_links(topo.as_ref(), &ada, &tr, &m);
        let aledger: u64 = arep.acct.bytes_slice().iter().sum();
        prop_assert!(
            aledger <= analytic,
            "adaptive routing left the minimal envelope on {}: {} > {}",
            topo.name(), aledger, analytic
        );
        prop_assert_eq!(arep.stats.bytes_delivered, rep.stats.bytes_delivered);
    }
}

/// Pinned proptest regression: `netsim_recording_is_invisible` failed
/// with `assertion failed: 92 == 68` at seed 4777960189187380889 because
/// the ledger property ran its `Simulation`s without the suite's old test
/// lock and their `netsim.messages.*` counts landed in the recording in
/// progress.
/// The failure is the interleaving, not the inputs, so the pin runs the
/// two properties side by side.
#[test]
fn regression_seed_4777960189187380889() {
    std::thread::scope(|s| {
        s.spawn(netsim_ledger_conserves_hop_bytes);
        netsim_recording_is_invisible();
    });
}

/// One recording that spans several mapper runs accumulates — the bench
/// harness profiles whole experiment grids this way.
#[test]
fn counters_accumulate_across_runs_in_one_session() {
    let g = gen::stencil2d(4, 4, 100.0, false);
    let topo = Torus::torus_2d(4, 4);
    let mapper = TopoLb::default();
    let (_, report) = obs::record(|| {
        mapper.map(&g, &topo);
        mapper.map(&g, &topo);
        mapper.map(&g, &topo);
    });
    assert_eq!(report.counter("topolb.placements"), Some(48));
    assert_eq!(report.counter("estimation.assigns"), Some(48));
}

/// Two runs recorded at the same time on two threads get a report each,
/// holding that run's counters alone. The barrier makes both recordings
/// live while either maps.
#[test]
fn concurrent_recordings_each_report_only_their_own_run() {
    let both_live = std::sync::Barrier::new(2);
    let run = |side: usize| {
        let g = gen::stencil2d(side, side, 100.0, false);
        let topo = Torus::torus_2d(side, side);
        let ((), report) = obs::record(|| {
            both_live.wait();
            TopoLb::default().map(&g, &topo);
            both_live.wait();
        });
        (g.num_tasks() as u64, report)
    };
    std::thread::scope(|s| {
        let other = s.spawn(|| run(6));
        for (n, report) in [run(4), other.join().unwrap()] {
            assert_eq!(report.counter("topolb.placements"), Some(n));
            assert_eq!(report.spans.len(), 1, "{:?}", report.span_names());
        }
    });
}

/// A placement already at one hop per byte has no candidate that can gain:
/// the sweep skips all of them and evaluates none — the work the looseness
/// skip removes, pinned without a clock.
#[test]
fn refine_evaluates_nothing_on_a_tight_mapping() {
    let g = gen::stencil2d(16, 16, 1024.0, true);
    let topo = Torus::torus_2d(16, 16);
    let mut m = IdentityMap.map(&g, &topo);
    let (accepted, report) =
        obs::record(|| refine_mapping_with(&g, &topo, &mut m, 8, Parallelism::serial()));
    assert_eq!(accepted, 0);
    assert_eq!(m, IdentityMap.map(&g, &topo));
    let n = g.num_tasks() as u64;
    assert_eq!(counter(&report, "refine.candidates_evaluated"), 0);
    assert_eq!(
        counter(&report, "refine.candidates_skipped"),
        n * (n - 1) / 2
    );
    assert_eq!(counter(&report, "refine.swaps_accepted"), 0);
    assert_eq!(counter(&report, "refine.passes"), 1);
}

/// The sweep's ledger: with as many processors as tasks a pass enumerates
/// the n(n−1)/2 swaps exactly once, each either evaluated or skipped —
/// whatever the window size, so every refine counter, skips included, is
/// thread-invariant.
#[test]
fn refine_ledger_accounts_for_every_candidate_of_every_pass() {
    let topo = Torus::torus_2d(5, 5);
    let stencil = gen::stencil2d(5, 5, 1024.0, false);
    for seed in 0..6u64 {
        let random = gen::random_graph(25, 3.0, 1.0, 1000.0, seed);
        for g in [&stencil, &random] {
            let start = RandomMap::new(seed).map(g, &topo);
            let mut reports = Vec::new();
            for threads in [1usize, 4] {
                let mut m = start.clone();
                let par = Parallelism::eager(threads);
                let (_, report) = obs::record(|| refine_mapping_with(g, &topo, &mut m, 8, par));
                let passes = counter(&report, "refine.passes");
                assert!(passes > 1, "a random start accepts something");
                assert_eq!(
                    counter(&report, "refine.candidates_evaluated")
                        + counter(&report, "refine.candidates_skipped"),
                    passes * 25 * 24 / 2,
                    "seed {seed}, {threads} threads"
                );
                reports.push(report);
            }
            for name in [
                "refine.candidates_evaluated",
                "refine.candidates_skipped",
                "refine.swaps_accepted",
                "refine.swaps_rejected",
                "refine.passes",
            ] {
                assert_eq!(
                    reports[0].counter(name),
                    reports[1].counter(name),
                    "counter {name} depends on thread count (seed {seed})"
                );
            }
        }
    }
}

/// A random start on a 24×24 stencil leaves every row loose and long, so
/// the sweep prices rows from tables (`refine.rows_built` > 0, at most
/// one per row and pass plus one per accept), and the count is the same
/// whatever thread count the caller hands it.
#[test]
fn refine_builds_rows_on_a_random_start() {
    let g = gen::stencil2d(24, 24, 1024.0, false);
    let topo = Torus::torus_2d(24, 24);
    let start = RandomMap::new(1).map(&g, &topo);
    let rows: Vec<u64> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let mut m = start.clone();
            let par = Parallelism::eager(threads);
            let (_, report) = obs::record(|| refine_mapping_with(&g, &topo, &mut m, 8, par));
            let rows = counter(&report, "refine.rows_built");
            let passes = counter(&report, "refine.passes");
            let accepted = counter(&report, "refine.swaps_accepted");
            assert!(rows <= 576 * passes + accepted, "{rows} rows built");
            rows
        })
        .collect();
    assert!(rows[0] > 0, "no row built");
    assert_eq!(
        rows[0], rows[1],
        "refine.rows_built depends on thread count"
    );
}

/// A pool that is *not* eager — `Parallelism::fixed`, what `--threads 4`
/// and `TOPOMAP_THREADS=4` make — engages at a real size: the hierarchy's
/// leaf phase on 4096 processors clears the per-thread work cutoff and
/// fans out, and maps exactly as the serial run does. Every other
/// multi-thread test here uses an eager pool, which skips the cutoff.
#[test]
fn fixed_pool_fans_out_hier_leaves_at_4096_and_maps_as_serial() {
    let g = gen::stencil2d(64, 64, 1024.0, true);
    let topo = Torus::torus_2d(64, 64);
    let hier = |par| {
        HierMapper::for_torus(&topo)
            .expect("a 64 x 64 torus factors into blocks")
            .with_parallelism(par)
    };
    let (fanned, report) = obs::record(|| hier(Parallelism::fixed(4)).map(&g, &topo));
    assert!(
        counter(&report, "par.regions.parallel") >= 1,
        "no region cleared the cutoff: {:?}",
        report.counters
    );
    assert_eq!(fanned, hier(Parallelism::serial()).map(&g, &topo));
}
