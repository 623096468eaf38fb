//! Geometric fast-path gate: the near-linear SFC (Hilbert / Morton) and
//! RCB mappers against the quadratic incremental TopoLB kernel and the
//! hierarchical mapper, plus the warm-start claim.
//!
//! The claims under test:
//! - **Speed**: at 4096 processors SFC and RCB each finish in at most
//!   **one tenth** of TopoLB's wall-clock (best-of-3 both sides) — they
//!   are O(n log n) against TopoLB's O(n·p).
//! - **Quality**: their hop-bytes stay within **1.5x** of TopoLB at 1024
//!   and 4096 on stencils, and the simulated stencil completion time at
//!   1024 stays within 1.2x.
//! - **Warm start**: seeding the refinement loop with the SFC mapping
//!   (`--init sfc`) reaches same-or-better hop-bytes than refining the
//!   TopoLB mapping, with no more accepted exchanges.
//! - **Scale smoke**: both mappers handle 16384 processors, SFC keeping
//!   the matching-stencil embedding at identity quality (hpb = 1).
//! - **Coordinate-free workloads**: on the coalesced LeanMD group graph
//!   (no geometry — the BFS-layering fallback synthesizes it) both
//!   geometric mappers still beat random placement.
//!
//! Run: `cargo run -p topomap-bench --release --bin exp_geom [--threads N]`

use std::time::Instant;
use topomap_bench::{f3, print_table};
use topomap_core::metrics::hops_per_byte;
use topomap_core::pipeline::two_phase;
use topomap_core::refine::refine_mapping_with;
use topomap_core::{obs, Curve, Mapper, Mapping, Parallelism, RandomMap, RcbMap, SfcMap, TopoLb};
use topomap_netsim::{trace, NetworkConfig, Simulation};
use topomap_partition::MultilevelKWay;
use topomap_taskgraph::{gen, TaskGraph};
use topomap_topology::{Topology, Torus};

/// Best-of-3 wall-clock of one mapper run (single-shot timings on a
/// shared host drift by 2x; the floor is the stable statistic).
fn best_of_3(f: impl Fn() -> Mapping) -> (f64, Mapping) {
    let mut best = f64::INFINITY;
    let mut m = f();
    for _ in 0..3 {
        let t0 = Instant::now();
        let cand = f();
        let secs = t0.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            m = cand;
        }
    }
    (best, m)
}

struct MapperRecord {
    mapper: String,
    ms: f64,
    hpb: f64,
}

struct SizeRecord {
    p: usize,
    topolb_ms: f64,
    topolb_hpb: f64,
    mappers: Vec<MapperRecord>,
}

struct WarmStart {
    cold_ms: f64,
    cold_hpb: f64,
    cold_accepted: usize,
    cold_passes: u64,
    warm_ms: f64,
    warm_hpb: f64,
    warm_accepted: usize,
    warm_passes: u64,
}

struct NetsimRecord {
    mapper: String,
    completion_ms: f64,
}

struct LeanMdRecord {
    mapper: String,
    hpb: f64,
}

fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes an integer"))
        .unwrap_or(1)
}

fn geometric_mappers(par: Parallelism) -> Vec<Box<dyn Mapper>> {
    vec![
        Box::new(SfcMap::with_parallelism(Curve::Hilbert, par)),
        Box::new(SfcMap::with_parallelism(Curve::Morton, par)),
        Box::new(RcbMap::with_parallelism(par)),
    ]
}

fn size_record(
    p: usize,
    workload: &str,
    tasks: &TaskGraph,
    topo: &dyn Topology,
    par: Parallelism,
    rows: &mut Vec<Vec<String>>,
) -> SizeRecord {
    let flat = TopoLb::with_parallelism(topomap_core::EstimationOrder::Second, par);
    let (flat_secs, flat_m) = best_of_3(|| flat.map(tasks, topo));
    let flat_hpb = hops_per_byte(tasks, topo, &flat_m);

    let mut mappers = Vec::new();
    for mapper in geometric_mappers(par) {
        let (secs, m) = best_of_3(|| mapper.map(tasks, topo));
        let hpb = hops_per_byte(tasks, topo, &m);
        rows.push(vec![
            format!("{p}"),
            workload.to_string(),
            mapper.name(),
            format!("{:.3} ms", secs * 1e3),
            format!("{:.1}x", flat_secs / secs),
            f3(hpb),
            f3(hpb / flat_hpb),
        ]);
        mappers.push(MapperRecord {
            mapper: mapper.name(),
            ms: secs * 1e3,
            hpb,
        });
    }
    SizeRecord {
        p,
        topolb_ms: flat_secs * 1e3,
        topolb_hpb: flat_hpb,
        mappers,
    }
}

fn main() {
    let threads = threads_arg();
    let par = Parallelism::fixed(threads);
    let mut rows = Vec::new();
    let mut sizes = Vec::new();

    // Gate sizes: 1024 (2-D stencil) and 4096 (3-D stencil).
    let (tasks_1024, topo_1024) = (
        gen::stencil2d(32, 32, 1024.0, false),
        Torus::torus_2d(32, 32),
    );
    sizes.push(size_record(
        1024,
        "stencil2d:32x32",
        &tasks_1024,
        &topo_1024,
        par,
        &mut rows,
    ));
    let (tasks_4096, topo_4096) = (
        gen::stencil3d(16, 16, 16, 1024.0, false),
        Torus::torus_3d(16, 16, 16),
    );
    sizes.push(size_record(
        4096,
        "stencil3d:16x16x16",
        &tasks_4096,
        &topo_4096,
        par,
        &mut rows,
    ));

    print_table(
        &format!("Geometric fast path vs TopoLB ({threads} thread(s))"),
        &[
            "p",
            "workload",
            "mapper",
            "wall",
            "speedup",
            "hpb",
            "vs TopoLB",
        ],
        &rows,
    );

    // Warm start: the full cold pipeline (TopoLB seed + refinement, i.e.
    // RefineTopoLB) against the SFC seed + the same refinement budget.
    // On a coordinate-bearing workload the geometric seed must match the
    // cold pipeline's quality in no more refinement passes / accepted
    // exchanges, while skipping the quadratic seeding cost entirely.
    let warm_pipeline = |tasks: &TaskGraph, topo: &dyn Topology| {
        let seeded_refine = |seed: &dyn Mapper| {
            let run = || {
                let mut m = seed.map(tasks, topo);
                obs::start();
                let accepted = refine_mapping_with(tasks, topo, &mut m, 8, par);
                let passes = obs::finish().counter("refine.passes").unwrap_or(0);
                (m, accepted, passes)
            };
            let mut best_secs = f64::INFINITY;
            let mut best = run();
            for _ in 0..2 {
                let t0 = Instant::now();
                let cand = run();
                let secs = t0.elapsed().as_secs_f64();
                if secs < best_secs {
                    best_secs = secs;
                    best = cand;
                }
            }
            (best_secs, best)
        };
        let flat = TopoLb::with_parallelism(topomap_core::EstimationOrder::Second, par);
        let (cold_secs, (cold_m, cold_accepted, cold_passes)) = seeded_refine(&flat);
        let sfc = SfcMap::with_parallelism(Curve::Hilbert, par);
        let (warm_secs, (warm_m, warm_accepted, warm_passes)) = seeded_refine(&sfc);
        WarmStart {
            cold_ms: cold_secs * 1e3,
            cold_hpb: hops_per_byte(tasks, topo, &cold_m),
            cold_accepted,
            cold_passes,
            warm_ms: warm_secs * 1e3,
            warm_hpb: hops_per_byte(tasks, topo, &warm_m),
            warm_accepted,
            warm_passes,
        }
    };
    // The periodic variant of the 1024 stencil (`pstencil2d:32x32`).
    let warm_start = warm_pipeline(&gen::stencil2d(32, 32, 1024.0, true), &topo_1024);
    println!(
        "\nwarm start (1024): cold RefineTopoLB hpb {} in {} pass(es), {} accepts, {:.2} ms; \
         sfc-seeded hpb {} in {} pass(es), {} accepts, {:.2} ms",
        f3(warm_start.cold_hpb),
        warm_start.cold_passes,
        warm_start.cold_accepted,
        warm_start.cold_ms,
        f3(warm_start.warm_hpb),
        warm_start.warm_passes,
        warm_start.warm_accepted,
        warm_start.warm_ms,
    );

    // Simulated stencil completion at 1024: the geometry-aware mapping
    // must not slow the replayed program down materially.
    let tr = trace::stencil_trace(&tasks_1024, 5, 2_000);
    let cfg = NetworkConfig::default();
    let mut netsim_1024 = Vec::new();
    let topolb_m = TopoLb::with_parallelism(topomap_core::EstimationOrder::Second, par)
        .map(&tasks_1024, &topo_1024);
    let topolb_sim = Simulation::run(&topo_1024, &cfg, &tr, &topolb_m);
    netsim_1024.push(NetsimRecord {
        mapper: "TopoLB".to_string(),
        completion_ms: topolb_sim.completion_ns as f64 / 1e6,
    });
    for mapper in geometric_mappers(par) {
        let m = mapper.map(&tasks_1024, &topo_1024);
        let sim = Simulation::run(&topo_1024, &cfg, &tr, &m);
        netsim_1024.push(NetsimRecord {
            mapper: mapper.name(),
            completion_ms: sim.completion_ns as f64 / 1e6,
        });
    }
    for r in &netsim_1024 {
        println!(
            "netsim 1024: {:<14} completes in {:.3} ms",
            r.mapper, r.completion_ms
        );
    }

    // Coordinate-free LeanMD: coalesce 3240 + p chares to p groups with
    // the multilevel partitioner, then map the (geometry-less) group
    // graph. The BFS-layering fallback must still beat random placement.
    let leanmd_1024 = {
        let p = 1024;
        let topo = Torus::torus_2d(32, 32);
        let tasks = gen::leanmd(p, &gen::LeanMdConfig::default());
        let base = two_phase(
            &tasks,
            &topo,
            &MultilevelKWay::default(),
            &RandomMap::new(17),
        );
        let groups = &base.group_graph;
        let mut recs = vec![
            LeanMdRecord {
                mapper: "Random".to_string(),
                hpb: hops_per_byte(groups, &topo, &RandomMap::new(17).map(groups, &topo)),
            },
            LeanMdRecord {
                mapper: "TopoLB".to_string(),
                hpb: hops_per_byte(groups, &topo, &TopoLb::default().map(groups, &topo)),
            },
        ];
        for mapper in geometric_mappers(par) {
            recs.push(LeanMdRecord {
                mapper: mapper.name(),
                hpb: hops_per_byte(groups, &topo, &mapper.map(groups, &topo)),
            });
        }
        recs
    };
    for r in &leanmd_1024 {
        println!("leanmd 1024:  {:<14} hpb {}", r.mapper, f3(r.hpb));
    }

    // 16384-processor smoke: near-linear really means these sizes are
    // routine. SFC keeps the matching stencil at identity quality.
    let (tasks, topo) = (
        gen::stencil2d(128, 128, 1024.0, false),
        Torus::torus_2d(128, 128),
    );
    let mut smoke_16384 = Vec::new();
    for mapper in geometric_mappers(par) {
        let (secs, m) = best_of_3(|| mapper.map(&tasks, &topo));
        smoke_16384.push(MapperRecord {
            mapper: mapper.name(),
            ms: secs * 1e3,
            hpb: hops_per_byte(&tasks, &topo, &m),
        });
    }
    for r in &smoke_16384 {
        println!(
            "smoke 16384:  {:<14} {:.2} ms, hpb {}",
            r.mapper,
            r.ms,
            f3(r.hpb)
        );
    }

    // ---- Gates (all fatal; CI runs this binary as a check) ----
    let r4096 = &sizes[1];
    for m in &r4096.mappers {
        assert!(
            m.ms <= r4096.topolb_ms / 10.0,
            "{} lost the headline at 4096: {:.2} ms > TopoLB {:.2} ms / 10",
            m.mapper,
            m.ms,
            r4096.topolb_ms
        );
    }
    for r in &sizes {
        for m in &r.mappers {
            assert!(
                m.hpb <= 1.5 * r.topolb_hpb,
                "{} hop-bytes off the rails at p={}: {:.3} > 1.5 x TopoLB {:.3}",
                m.mapper,
                r.p,
                m.hpb,
                r.topolb_hpb
            );
        }
    }
    let ws = &warm_start;
    assert!(
        ws.warm_hpb <= ws.cold_hpb * (1.0 + 1e-9),
        "warm start lost quality: sfc-seeded {:.4} > cold {:.4}",
        ws.warm_hpb,
        ws.cold_hpb
    );
    assert!(
        ws.warm_passes <= ws.cold_passes && ws.warm_accepted <= ws.cold_accepted,
        "warm start converged slower: {} pass(es) / {} accepts vs cold {} / {}",
        ws.warm_passes,
        ws.warm_accepted,
        ws.cold_passes,
        ws.cold_accepted
    );
    // No end-to-end wall gate here: the shared refinement sweep dominates
    // both pipelines (the seeding speedup itself is gated per-size above),
    // so a wall comparison would only measure host noise.
    let sim_of = |name: &str| {
        netsim_1024
            .iter()
            .find(|r| r.mapper.starts_with(name))
            .unwrap()
            .completion_ms
    };
    assert!(
        sim_of("SFC(Hilbert)") <= 1.2 * sim_of("TopoLB"),
        "simulated stencil slowed down under SFC: {:.3} ms > 1.2 x {:.3} ms",
        sim_of("SFC(Hilbert)"),
        sim_of("TopoLB")
    );
    let lm_of = |name: &str| {
        leanmd_1024
            .iter()
            .find(|r| r.mapper.starts_with(name))
            .unwrap()
            .hpb
    };
    for m in ["SFC(Hilbert)", "SFC(Morton)", "RCB"] {
        assert!(
            lm_of(m) <= lm_of("Random"),
            "{m} fell behind random placement on LeanMD: {:.3} > {:.3}",
            lm_of(m),
            lm_of("Random")
        );
    }
    for r in &smoke_16384 {
        let bound = if r.mapper.starts_with("SFC(Hilbert)") {
            1.0 + 1e-9
        } else {
            2.5
        };
        assert!(
            r.hpb <= bound,
            "{} smoke quality regressed at 16384: hpb {:.3} > {bound}",
            r.mapper,
            r.hpb
        );
    }
    println!("\nGeometric fast-path gate PASSED.");
}
