//! Hierarchical-mapping gate: `HierMapper` (recursive
//! partition-and-map over the explicit hardware hierarchy, leaf
//! sub-mappings fanned onto the pool) against the flat incremental
//! TopoLB kernel it decomposes.
//!
//! The claim under test is the PR's headline: at 4096 processors the
//! hierarchical mapper must finish in at most **one third** of the flat
//! incremental TopoLB wall-clock at the same thread count, while
//! landing hop-bytes within **15%** of the flat TopoLB+Refine
//! pipeline's quality. A 16384-processor smoke run holds the
//! super-linear tail to a host-relative budget (the naive 576-node
//! oracle is the unit of "pre-optimization work", as in `exp_scaling`).
//!
//! Checks (all fatal, so CI runs this binary as a gate):
//! - `hier(4096) <= flat_topolb(4096) / 3` (best-of-3 wall both sides);
//! - `hpb(hier) <= 1.15 * hpb(TopoLB+Refine)` at 1024 and 4096;
//! - `hier(16384) <= 6x` the naive-576 unit;
//! - the profiled 4096 run records `par.regions.parallel > 0` when the
//!   pool has more than one thread (the leaf phase really fanned out),
//!   stamped as `PROFILE_hier_4096.json`.
//!
//! Run: `cargo run -p topomap-bench --release --bin exp_hier [--threads N]`

use std::time::Instant;
use topomap_bench::{f3, print_table};
use topomap_core::metrics::hops_per_byte;
use topomap_core::naive::NaiveTopoLb;
use topomap_core::{
    obs, EstimationOrder, HierMapper, Mapper, Mapping, Parallelism, RefineTopoLb, TopoLb,
};
use topomap_taskgraph::{gen, TaskGraph};
use topomap_topology::Torus;

/// Best-of-3 wall-clock of one mapper run (single-shot timings on a
/// shared host drift by 2x; the floor is the stable statistic).
fn best_of_3(f: impl Fn() -> Mapping) -> (f64, Mapping) {
    let mut best = f64::INFINITY;
    let mut m = f();
    for _ in 0..2 {
        let t0 = Instant::now();
        let cand = f();
        if t0.elapsed().as_secs_f64() < best {
            best = t0.elapsed().as_secs_f64();
            m = cand;
        }
    }
    let t0 = Instant::now();
    let cand = f();
    let secs = t0.elapsed().as_secs_f64();
    if secs < best {
        best = secs;
        m = cand;
    }
    (best, m)
}

struct SizeRecord {
    p: usize,
    flat_topolb_ms: f64,
    hier_ms: f64,
    flat_refine_hpb: f64,
    hier_hpb: f64,
    hpb_ratio: f64,
}

fn threads_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--threads takes an integer"))
        .unwrap_or(1)
}

fn stencil_case(side: usize) -> (TaskGraph, Torus) {
    (
        gen::stencil2d(side, side, 1024.0, true),
        Torus::torus_2d(side, side),
    )
}

fn main() {
    let threads = threads_arg();
    let par = Parallelism::fixed(threads);
    let mut rows = Vec::new();
    let mut sizes = Vec::new();

    for side in [32usize, 64] {
        let p = side * side;
        let (tasks, topo) = stencil_case(side);

        let flat = TopoLb::with_parallelism(EstimationOrder::Second, par);
        let (flat_secs, _) = best_of_3(|| flat.map(&tasks, &topo));

        let hier = HierMapper::for_torus(&topo)
            .expect("square torus factors")
            .with_parallelism(par);
        let (hier_secs, hier_m) = best_of_3(|| hier.map(&tasks, &topo));

        // Quality baseline: the full flat pipeline (TopoLB + windowed
        // refinement). One run — this is a quality bar, not a timing.
        let refine = RefineTopoLb::with_parallelism(
            TopoLb::with_parallelism(EstimationOrder::Second, par),
            par,
        );
        let refine_hpb = hops_per_byte(&tasks, &topo, &refine.map(&tasks, &topo));
        let hier_hpb = hops_per_byte(&tasks, &topo, &hier_m);

        rows.push(vec![
            format!("{p}"),
            format!("{:.3} ms", flat_secs * 1e3),
            format!("{:.3} ms", hier_secs * 1e3),
            format!("{:.2}x", flat_secs / hier_secs),
            f3(refine_hpb),
            f3(hier_hpb),
            f3(hier_hpb / refine_hpb),
        ]);
        sizes.push(SizeRecord {
            p,
            flat_topolb_ms: flat_secs * 1e3,
            hier_ms: hier_secs * 1e3,
            flat_refine_hpb: refine_hpb,
            hier_hpb,
            hpb_ratio: hier_hpb / refine_hpb,
        });
    }

    // Host-relative work unit, same anchor as exp_scaling: the dense
    // naive oracle on 576 nodes.
    let (tasks, topo) = stencil_case(24);
    let naive = NaiveTopoLb::default();
    let (unit, _) = best_of_3(|| naive.map(&tasks, &topo));

    // 16384-processor smoke: one level further up than the gate sizes.
    let (tasks, topo) = stencil_case(128);
    let hier = HierMapper::for_torus(&topo)
        .expect("square torus factors")
        .with_parallelism(par);
    let (smoke_secs, smoke_m) = best_of_3(|| hier.map(&tasks, &topo));
    let smoke_hpb = hops_per_byte(&tasks, &topo, &smoke_m);

    // Profiled 4096 run: prove the leaf phase actually fanned out.
    let (tasks, topo) = stencil_case(64);
    let hier = HierMapper::for_torus(&topo)
        .expect("square torus factors")
        .with_parallelism(par);
    obs::start();
    let m = hier.map(&tasks, &topo);
    let report = obs::finish();
    drop(m);
    let parallel_regions = report.counter("par.regions.parallel").unwrap_or(0);
    std::fs::write("PROFILE_hier_4096.json", report.to_json())
        .unwrap_or_else(|e| panic!("write PROFILE_hier_4096.json: {e}"));

    print_table(
        &format!("Hierarchical vs flat mapping ({threads} thread(s), 2D periodic stencil)"),
        &[
            "p",
            "flat TopoLB",
            "HierMapper",
            "speedup",
            "refine hpb",
            "hier hpb",
            "ratio",
        ],
        &rows,
    );
    println!(
        "\n16384 smoke: {:.1} ms (hpb {:.3}); naive-576 unit: {:.1} ms; \
         profiled 4096 run fanned out {} region(s)",
        smoke_secs * 1e3,
        smoke_hpb,
        unit * 1e3,
        parallel_regions,
    );

    let r4096 = &sizes[1];
    assert!(
        r4096.hier_ms <= r4096.flat_topolb_ms / 3.0,
        "HierMapper lost its headline: {:.1} ms > flat {:.1} ms / 3 at 4096",
        r4096.hier_ms,
        r4096.flat_topolb_ms
    );
    for r in &sizes {
        assert!(
            r.hpb_ratio <= 1.15,
            "hop-bytes regressed at p={}: hier {:.3} > 1.15 x refine {:.3}",
            r.p,
            r.hier_hpb,
            r.flat_refine_hpb
        );
    }
    assert!(
        smoke_secs <= 6.0 * unit,
        "16384 smoke blew its budget: {:.1} ms > 6 x {:.1} ms (naive 576-node unit)",
        smoke_secs * 1e3,
        unit * 1e3
    );
    if threads > 1 {
        assert!(
            parallel_regions > 0,
            "multi-threaded run never engaged the pool (par.regions.parallel = 0)"
        );
    }
    println!("\nHierarchical mapping gate PASSED.");
}
