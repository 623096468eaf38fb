//! Ablation studies on the design choices DESIGN.md calls out:
//!
//! 1. **Estimation order** (§4.3/4.4): solution quality and wall time of
//!    first- vs second- vs third-order TopoLB. The paper chooses second
//!    order on scaling grounds; this quantifies what third order buys.
//! 2. **Refinement passes**: hop-byte improvement per RefineTopoLB pass.
//! 3. **Phase-1 partitioner**: final hops-per-byte of the full pipeline
//!    with Random / GreedyLoad / MultilevelKWay partitioning (why a
//!    cut-reducing partitioner "must be preferred", §4).
//!
//! Run: `cargo run -p topomap-bench --release --bin exp_ablation [--full]`

use std::time::Instant;
use topomap_bench::{f2, f3, full_mode, print_table};
use topomap_core::{
    metrics, pipeline::two_phase, refine::refine_mapping, EstimationOrder, Mapper, RandomMap,
    TopoLb,
};
use topomap_partition::{GreedyLoad, MultilevelKWay, Partitioner, RandomPartition};
use topomap_taskgraph::gen;
use topomap_topology::{Topology, Torus};

fn ablation_estimation_order(full: bool) {
    let sides: &[usize] = if full { &[8, 12, 16, 20] } else { &[8, 12, 16] };
    let mut rows = Vec::new();
    for &side in sides {
        let p = side * side;
        let tasks = gen::stencil2d(side, side, 1024.0, false);
        let topo = Torus::torus_2d(side, side);
        let mut cells = vec![p.to_string()];
        for order in [
            EstimationOrder::First,
            EstimationOrder::Second,
            EstimationOrder::Third,
        ] {
            let t0 = Instant::now();
            let m = TopoLb::new(order).map(&tasks, &topo);
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            let hpb = metrics::hops_per_byte(&tasks, &topo, &m);
            cells.push(format!("{} ({:.1}ms)", f3(hpb), dt));
        }
        rows.push(cells);
    }
    print_table(
        "Ablation 1: estimation order — hops-per-byte (runtime)",
        &["p", "first-order", "second-order", "third-order"],
        &rows,
    );
}

fn ablation_refine_passes() {
    let tasks = gen::leanmd(64, &gen::LeanMdConfig::default());
    let topo = Torus::torus_2d(8, 8);
    let part = MultilevelKWay::default().partition(&tasks, 64);
    let groups = part.coalesce(&tasks);
    let mut m = TopoLb::default().map(&groups, &topo);
    let mut rows = vec![vec![
        "0".to_string(),
        f3(metrics::hops_per_byte(&groups, &topo, &m)),
        "0".to_string(),
    ]];
    for pass in 1..=6 {
        let swaps = refine_mapping(&groups, &topo, &mut m, 1);
        rows.push(vec![
            pass.to_string(),
            f3(metrics::hops_per_byte(&groups, &topo, &m)),
            swaps.to_string(),
        ]);
        if swaps == 0 {
            break;
        }
    }
    print_table(
        "Ablation 2: RefineTopoLB passes after TopoLB (LeanMD p=64, 2D-torus)",
        &["pass", "hops-per-byte", "accepted swaps"],
        &rows,
    );
}

fn ablation_partitioner() {
    let tasks = gen::leanmd(64, &gen::LeanMdConfig::default());
    let topo = Torus::torus_2d(8, 8);
    let mut rows = Vec::new();
    let partitioners: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("Random", Box::new(RandomPartition::new(5))),
        ("GreedyLoad", Box::new(GreedyLoad)),
        ("MultilevelKWay", Box::new(MultilevelKWay::default())),
    ];
    for (name, part) in partitioners {
        let r = two_phase(&tasks, &topo, part.as_ref(), &TopoLb::default());
        let rnd = two_phase(&tasks, &topo, part.as_ref(), &RandomMap::new(3));
        rows.push(vec![
            name.to_string(),
            f2(r.partition.edge_cut(&tasks) / 1e6),
            f2(r.partition.imbalance_for(&tasks)),
            f3(r.hops_per_byte(&topo)),
            f3(rnd.hops_per_byte(&topo)),
        ]);
    }
    print_table(
        "Ablation 3: phase-1 partitioner (LeanMD p=64, 2D-torus)",
        &[
            "partitioner",
            "cut (MB)",
            "imbalance",
            "hpb w/ TopoLB",
            "hpb w/ Random",
        ],
        &rows,
    );
}

fn ablation_topology_family() {
    // How much topology-awareness matters per network family: the paper's
    // §1 argument that fat-tree/hypercube machines need it less.
    let tasks = gen::stencil2d(8, 8, 1024.0, false);
    let mut rows = Vec::new();
    let topos: Vec<Box<dyn Topology>> = vec![
        Box::new(Torus::torus_2d(8, 8)),
        Box::new(Torus::mesh_2d(8, 8)),
        Box::new(Torus::torus_3d(4, 4, 4)),
        Box::new(topomap_topology::Hypercube::new(6)),
        Box::new(topomap_topology::FatTree::new(4, 3)),
    ];
    for topo in &topos {
        let lb = metrics::hops_per_byte(&tasks, topo, &TopoLb::default().map(&tasks, topo));
        let rnd: f64 = (0..3)
            .map(|s| metrics::hops_per_byte(&tasks, topo, &RandomMap::new(s).map(&tasks, topo)))
            .sum::<f64>()
            / 3.0;
        rows.push(vec![topo.name(), f3(lb), f2(rnd), f2(rnd / lb)]);
    }
    print_table(
        "Ablation 4: gain of topology-aware mapping per network family (8x8 stencil)",
        &["topology", "TopoLB hpb", "Random hpb", "Random/TopoLB"],
        &rows,
    );
}

fn ablation_hierarchical(full: bool) {
    // The paper's §6 future-work direction: semi-distributed two-level
    // mapping. Quality premium and runtime saving vs flat TopoLB.
    use topomap_core::HierMapper;
    let sides: &[usize] = if full { &[8, 16, 24, 32] } else { &[8, 16, 24] };
    let mut rows = Vec::new();
    for &side in sides {
        let p = side * side;
        let tasks = gen::stencil2d(side, side, 1024.0, false);
        let machine = Torus::torus_2d(side, side);
        let t0 = Instant::now();
        let flat = TopoLb::default().map(&tasks, &machine);
        let t_flat = t0.elapsed().as_secs_f64() * 1e3;
        let hier_mapper = HierMapper::for_torus(&machine).expect("factorable torus");
        let t0 = Instant::now();
        let hier = hier_mapper.map(&tasks, &machine);
        let t_hier = t0.elapsed().as_secs_f64() * 1e3;
        rows.push(vec![
            p.to_string(),
            format!(
                "{} ({:.1}ms)",
                f3(metrics::hops_per_byte(&tasks, &machine, &flat)),
                t_flat
            ),
            format!(
                "{} ({:.1}ms)",
                f3(metrics::hops_per_byte(&tasks, &machine, &hier)),
                t_hier
            ),
        ]);
    }
    print_table(
        "Ablation 5: flat TopoLB vs hierarchical mapping — hpb (runtime)",
        &["p", "TopoLB", "HierMapper"],
        &rows,
    );
}

fn main() {
    let full = full_mode();
    ablation_estimation_order(full);
    ablation_refine_passes();
    ablation_partitioner();
    ablation_topology_family();
    ablation_hierarchical(full);
}
