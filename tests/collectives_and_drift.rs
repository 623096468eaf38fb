//! Integration tests for the collective workloads and the load-drift
//! re-balancing scenario (the runtime situation the Charm++ framework —
//! and this library's RefineLB — exists for).

use topomap::core::pipeline::two_phase;
use topomap::lb::{LbDatabase, RefineLb};
use topomap::netsim::config::NicModel;
use topomap::netsim::trace::{allreduce_trace, reduce_broadcast_trace};
use topomap::prelude::*;
use topomap::taskgraph::{gen, transform};

/// The butterfly pattern *is* the hypercube graph: TopoLB should embed it
/// at (near) dilation 1 on a hypercube machine, while any 2D-torus
/// placement must stretch its long edges.
#[test]
fn butterfly_loves_hypercubes_not_tori() {
    let tasks = gen::butterfly(32, 4096.0);
    let cube = Hypercube::new(5);
    let torus = Torus::torus_2d_for(32);
    let on_cube = hops_per_byte(&tasks, &cube, &TopoLb::default().map(&tasks, &cube));
    let on_torus = hops_per_byte(&tasks, &torus, &TopoLb::default().map(&tasks, &torus));
    assert!(on_cube <= 1.5, "butterfly on hypercube: {on_cube}");
    assert!(
        on_torus > on_cube,
        "torus ({on_torus}) cannot beat the butterfly's native host ({on_cube})"
    );
}

/// All-reduce completion: recursive doubling on a hypercube machine beats
/// the same trace on a same-size 2D torus (the P·log P wiring argument of
/// the paper's introduction).
#[test]
fn allreduce_faster_on_hypercube_than_torus() {
    // Note: a 4x4 torus *is* Q4 (C4 x C4 ≅ Q2 x Q2), so the comparison
    // needs n = 64 where the 8x8 torus genuinely differs from Q6.
    let n = 64;
    let tr = allreduce_trace(n, 5, 8192);
    tr.check_matched().unwrap();
    let mut cfg = NetworkConfig::default().with_bandwidth(200e6);
    cfg.nic = NicModel::PerLink;

    let cube = Hypercube::new(6);
    let torus = Torus::torus_2d(8, 8);
    // Identity mapping on the hypercube is the native embedding.
    let tasks = gen::butterfly(n, 8192.0);
    let cube_map = IdentityMap.map(&tasks, &cube);
    let torus_map = TopoLb::default().map(&tasks, &torus);

    let s_cube = Simulation::run(&cube, &cfg, &tr, &cube_map);
    let s_torus = Simulation::run(&torus, &cfg, &tr, &torus_map);
    assert!(
        s_cube.completion_ns < s_torus.completion_ns,
        "hypercube {} vs torus {}",
        s_cube.completion_ns,
        s_torus.completion_ns
    );
}

/// Reduce+broadcast traces run to completion on every machine family and
/// respect the tree depth in their critical path.
#[test]
fn reduction_trace_critical_path() {
    let n = 16;
    let tr = reduce_broadcast_trace(n, 1, 1024);
    tr.check_matched().unwrap();
    let tasks = gen::reduction_tree(n, 1024.0);
    let topo = Torus::torus_2d(4, 4);
    let cfg = NetworkConfig::default();
    let m = TopoLb::default().map(&tasks, &topo);
    let s = Simulation::run(&topo, &cfg, &tr, &m);
    // 4 reduction levels + 4 broadcast levels, each at least one
    // serialization (1024B at 500MB/s = 2048ns) + overhead.
    assert!(s.completion_ns >= 8 * 2048);
    assert_eq!(s.network_messages + s.local_messages, 2 * (n as u64 - 1));
}

/// The transpose *task graph* is a perfect matching (each (r,c) pairs
/// with (c,r)), so a free mapper can colocate partners at dilation 1 —
/// the bisection pain of a real transpose comes from the *fixed* grid
/// placement, which we pin with the identity mapping here.
#[test]
fn transpose_stress() {
    let tasks = gen::transpose(8, 65_536.0);
    let topo = Torus::torus_2d(8, 8);
    // Free placement: matching embeds perfectly.
    let lb = hops_per_byte(&tasks, &topo, &TopoLb::default().map(&tasks, &topo));
    assert!(lb <= 1.05, "a matching embeds at dilation ~1, got {lb}");
    let rnd = hops_per_byte(&tasks, &topo, &RandomMap::new(4).map(&tasks, &topo));
    assert!(lb < rnd, "TopoLB {lb} vs random {rnd}");
    // Pinned grid placement: (r,c) at processor (r,c) — the classic
    // transpose, paying the full across-the-diagonal distance.
    let pinned = IdentityMap.map(&tasks, &topo);
    let pinned_hpb = hops_per_byte(&tasks, &topo, &pinned);
    assert!(
        pinned_hpb > 2.0,
        "pinned transpose must pay long routes, got {pinned_hpb}"
    );
}

/// The full drift cycle: map with TopoLB, drift the loads, repair with
/// RefineLB — imbalance is fixed with few migrations and the hop-byte
/// quality of the topology-aware placement survives.
#[test]
fn load_drift_repair_cycle() {
    let g0 = gen::stencil2d(8, 8, 4096.0, false);
    let machine = Torus::torus_2d(4, 4);
    let db0 = LbDatabase::from_task_graph(&g0);
    let base = two_phase(
        &db0.to_task_graph(),
        &machine,
        &MultilevelKWay::default(),
        &TopoLb::default(),
    )
    .task_placement();

    // Loads drift by up to 60%; communication unchanged.
    let g1 = transform::perturb_loads(&transform::scale(&g0, 1.0, 1.0), 0.6, 99);
    let db1 = LbDatabase::from_task_graph(&g1);

    let out = RefineLb {
        tolerance: 1.10,
        ..Default::default()
    }
    .rebalance(&db1, &machine, &base);

    let imbalance = |a: &[NodeId]| Partition::new(a.to_vec(), 16).imbalance_for(&g1);
    let (drifted, refined) = (imbalance(&base), imbalance(&out.assignment));
    assert!(
        refined <= drifted,
        "refinement must not worsen imbalance: {drifted} -> {refined}"
    );
    // Placement quality stays within 2x of the original TopoLB quality.
    let hops_per_byte = |a: &[NodeId]| {
        g0.edges()
            .map(|(x, y, w)| w * machine.distance(a[x], a[y]) as f64)
            .sum::<f64>()
            / g0.total_comm()
    };
    assert!(hops_per_byte(&out.assignment) <= 2.0 * hops_per_byte(&base).max(1.0));
    // Incremental: far fewer moves than a full remap.
    let changed = base
        .iter()
        .zip(&out.assignment)
        .filter(|(a, b)| a != b)
        .count();
    assert!(
        changed < g0.num_tasks() / 2,
        "changed {changed} of {}",
        g0.num_tasks()
    );
}

/// Composed workloads (halo + transpose phases overlaid) still map and
/// simulate end to end.
#[test]
fn overlaid_phases_pipeline() {
    let halo = gen::stencil2d(8, 8, 2048.0, false);
    let fft = gen::transpose(8, 1024.0);
    let both = transform::overlay(&halo, &fft);
    let machine = Torus::torus_3d(4, 4, 4);
    let m = RefineTopoLb::new(TopoLb::default()).map(&both, &machine);
    let q = topomap::core::metrics::quality(&both, &machine, &m);
    assert!(q.hops_per_byte < 3.0, "overlaid hpb {}", q.hops_per_byte);
    let tr = topomap::netsim::trace::stencil_trace(&both, 5, 1_000);
    tr.check_matched().unwrap();
    let s = Simulation::run(&machine, &NetworkConfig::default(), &tr, &m);
    assert_eq!(
        s.network_messages + s.local_messages,
        2 * both.num_edges() as u64 * 5
    );
}
