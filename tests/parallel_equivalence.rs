//! Serial-equivalence suite for the deterministic parallel execution
//! layer: every mapper that takes a [`Parallelism`] must return a
//! **bit-identical** mapping for every thread count, on every topology
//! family, for every estimation order. The parallel kernels are chunked
//! scans whose reductions keep the serial lowest-id tie-break, so this is
//! a hard equality — no tolerance.

use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use topomap::core::metrics::hop_bytes;
use topomap::core::refine::refine_mapping_with;
use topomap::netsim::trace::stencil_trace;
use topomap::prelude::*;
use topomap::taskgraph::gen;

/// A `Parallelism` that takes the threaded path even on tiny inputs
/// (the default `min_work` would route the small proptest cases to the
/// serial fallback and test nothing).
fn eager(threads: usize) -> Parallelism {
    Parallelism {
        threads: Threads::Fixed(threads),
        min_work: 1,
    }
}

fn arb_task_graph() -> impl Strategy<Value = TaskGraph> {
    (4usize..=20, 0.5f64..4.0, any::<u64>())
        .prop_map(|(n, deg, seed)| gen::random_graph(n, deg.min(n as f64 - 1.0), 1.0, 1000.0, seed))
}

/// One topology of each family under test, all with >= 25 nodes:
/// 2-D torus, hypercube, ring (GraphTopology), and a distance-cached
/// torus (CachedTopology) whose metric must match the uncached one.
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

/// The four hierarchy families: each pairs a machine with a hierarchy
/// over >= 25 slots (factored torus, factored mesh, fat-tree, identity
/// layout over an arbitrary metric).
fn hier_family(family: usize) -> (Box<dyn Topology>, HierMapper) {
    match family {
        0 => {
            let t = Torus::torus_2d(8, 8);
            let h = HierMapper::for_torus_with(&t, &[4, 4, 4]).unwrap();
            (Box::new(t), h)
        }
        1 => {
            let t = Torus::mesh(&[6, 6]);
            let h = HierMapper::for_torus_with(&t, &[6, 6]).unwrap();
            (Box::new(t), h)
        }
        2 => {
            let ft = FatTree::new(2, 5);
            let h = HierMapper::new(Hierarchy::from_fattree(&ft));
            (Box::new(ft), h)
        }
        _ => {
            let ring = GraphTopology::ring(32);
            let h = HierMapper::new(Hierarchy::identity_over(&ring, &[4, 4, 2]).unwrap());
            (Box::new(ring), h)
        }
    }
}

const ORDERS: [EstimationOrder; 3] = [
    EstimationOrder::First,
    EstimationOrder::Second,
    EstimationOrder::Third,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// TopoLB: all three estimation orders, all four topology families,
    /// thread counts {2, 8} — each bit-identical to the serial run.
    #[test]
    fn topolb_parallel_matches_serial(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        order_idx in 0usize..3,
    ) {
        let topo = topology_for(topo_idx, 25);
        let order = ORDERS[order_idx];
        let serial = TopoLb::with_parallelism(order, Parallelism::serial())
            .map(&g, topo.as_ref());
        for threads in [2, 8] {
            let par = TopoLb::with_parallelism(order, eager(threads)).map(&g, topo.as_ref());
            prop_assert_eq!(&serial, &par, "order {:?}, {} threads", order, threads);
        }
    }

    /// RefineTopoLB (windowed speculative refinement): same guarantee.
    #[test]
    fn refine_parallel_matches_serial(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        order_idx in 0usize..3,
    ) {
        let topo = topology_for(topo_idx, 25);
        let order = ORDERS[order_idx];
        let serial = RefineTopoLb::with_parallelism(
            TopoLb::with_parallelism(order, Parallelism::serial()),
            Parallelism::serial(),
        )
        .map(&g, topo.as_ref());
        for threads in [2, 8] {
            let par = RefineTopoLb::with_parallelism(
                TopoLb::with_parallelism(order, eager(threads)),
                eager(threads),
            )
            .map(&g, topo.as_ref());
            prop_assert_eq!(&serial, &par, "order {:?}, {} threads", order, threads);
        }
    }

    /// Parallel refinement is still monotone: it never increases
    /// hop-bytes, from any random start, at any thread count.
    #[test]
    fn parallel_refinement_monotone(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
        threads in 1usize..=8,
    ) {
        let topo = topology_for(topo_idx, 25);
        let mut m = RandomMap::new(seed).map(&g, topo.as_ref());
        let before = hop_bytes(&g, topo.as_ref(), &m);
        refine_mapping_with(&g, topo.as_ref(), &mut m, 3, eager(threads));
        let after = hop_bytes(&g, topo.as_ref(), &m);
        prop_assert!(after <= before + 1e-9, "{before} -> {after} at {threads} threads");
    }

    /// HierMapper fans leaf sub-mappings (and the cross-leaf refinement
    /// units) onto the pool; results must be bit-identical to the serial
    /// run on every hierarchy family.
    #[test]
    fn hier_mapper_parallel_matches_serial(
        g in arb_task_graph(),
        family in 0usize..4,
    ) {
        let (topo, base) = hier_family(family);
        let serial = base.clone().with_parallelism(Parallelism::serial()).map(&g, topo.as_ref());
        for threads in [2, 8] {
            let par = base.clone().with_parallelism(eager(threads)).map(&g, topo.as_ref());
            prop_assert_eq!(&serial, &par, "family {}, {} threads", family, threads);
        }
    }

    /// The geometric mappers fan out curve-key computation (SFC) and
    /// whole bisection levels (RCB) onto the pool; ordered chunk
    /// recombination keeps both bit-identical at every thread count,
    /// with real coordinates and with the BFS-synthesized fallback.
    #[test]
    fn geometric_mappers_thread_invariant(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        curve_idx in 0usize..2,
    ) {
        let topo = topology_for(topo_idx, 25);
        let curve = [Curve::Hilbert, Curve::Morton][curve_idx];
        let sfc_serial = SfcMap::with_parallelism(curve, Parallelism::serial())
            .map(&g, topo.as_ref());
        let rcb_serial = RcbMap::with_parallelism(Parallelism::serial()).map(&g, topo.as_ref());
        for threads in [2, 8] {
            let sfc = SfcMap::with_parallelism(curve, eager(threads)).map(&g, topo.as_ref());
            prop_assert_eq!(&sfc_serial, &sfc, "SFC {:?}, {} threads", curve, threads);
            let rcb = RcbMap::with_parallelism(eager(threads)).map(&g, topo.as_ref());
            prop_assert_eq!(&rcb_serial, &rcb, "RCB, {} threads", threads);
        }
    }

    /// Same guarantee on a coordinate-free workload, where both mappers
    /// run the BFS double-sweep synthesis first: synthesis is serial and
    /// deterministic, so the pool must not leak into the result.
    #[test]
    fn geometric_mappers_thread_invariant_without_coords(
        n in 8usize..=40,
        bytes in 1.0f64..1e6,
    ) {
        let g = gen::ring(n, bytes);
        let topo = topology_for(0, n.max(25));
        let sfc_serial = SfcMap::with_parallelism(Curve::Hilbert, Parallelism::serial())
            .map(&g, topo.as_ref());
        let rcb_serial = RcbMap::with_parallelism(Parallelism::serial()).map(&g, topo.as_ref());
        for threads in [2, 8] {
            prop_assert_eq!(
                &sfc_serial,
                &SfcMap::with_parallelism(Curve::Hilbert, eager(threads)).map(&g, topo.as_ref()),
                "SFC fallback, {} threads", threads
            );
            prop_assert_eq!(
                &rcb_serial,
                &RcbMap::with_parallelism(eager(threads)).map(&g, topo.as_ref()),
                "RCB fallback, {} threads", threads
            );
        }
    }

    /// The annealer and the genetic mapper fan out delta/fitness
    /// evaluation only; their search is defined by the RNG streams, so
    /// thread count must not change the result either.
    #[test]
    fn stochastic_mappers_thread_invariant(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let topo = topology_for(topo_idx, 25);
        let sa_serial = SimulatedAnnealingMap {
            par: Parallelism::serial(),
            ..SimulatedAnnealingMap::quick(seed)
        }
        .map(&g, topo.as_ref());
        let sa_par = SimulatedAnnealingMap { par: eager(4), ..SimulatedAnnealingMap::quick(seed) }
            .map(&g, topo.as_ref());
        prop_assert_eq!(&sa_serial, &sa_par);

        let ga = |par: Parallelism| GeneticMap {
            par,
            generations: 10,
            ..GeneticMap::quick(seed)
        };
        prop_assert_eq!(
            ga(Parallelism::serial()).map(&g, topo.as_ref()),
            ga(eager(4)).map(&g, topo.as_ref())
        );
    }
}

fn mapping_hash(m: &Mapping) -> u64 {
    let mut h = DefaultHasher::new();
    m.as_slice().hash(&mut h);
    h.finish()
}

/// Concurrency stress: a 32x32 stencil placed on a 32x32 torus with an
/// oversubscribed 8-thread pool, 25 times over. Every run must produce
/// the same mapping hash as the serial reference — this is the test that
/// would catch a racy reduction or a torn chunk write, because each
/// repetition re-rolls the OS scheduler's interleaving.
#[test]
fn stress_repeated_parallel_runs_are_identical() {
    let tasks = gen::stencil2d(32, 32, 1024.0, false);
    let topo = Torus::torus_2d(32, 32);
    let mapper = TopoLb::with_parallelism(EstimationOrder::Second, eager(8));

    let reference =
        TopoLb::with_parallelism(EstimationOrder::Second, Parallelism::serial()).map(&tasks, &topo);
    let want = mapping_hash(&reference);

    for run in 0..25 {
        let m = mapper.map(&tasks, &topo);
        assert_eq!(
            mapping_hash(&m),
            want,
            "run {run} diverged from the serial reference"
        );
    }
}

/// The hierarchy descent's hop-bytes on one fixed graph per family,
/// captured at the last commit that still carried a second (top-down)
/// descent: deleting that fork must not move a bit of what the
/// bottom-up descent produces, at any thread count.
#[test]
fn hier_mapper_hop_bytes_match_goldens() {
    const GOLDEN: [f64; 4] = [
        31467.737943903616,
        30145.090032042215,
        108111.5729258356,
        51732.321376173444,
    ];
    for (family, want) in GOLDEN.into_iter().enumerate() {
        let (topo, base) = hier_family(family);
        let g = gen::random_graph(24, 3.0, 1.0, 1000.0, 7 + family as u64);
        for par in [Parallelism::serial(), eager(8)] {
            let m = base.clone().with_parallelism(par).map(&g, topo.as_ref());
            assert_eq!(hop_bytes(&g, topo.as_ref(), &m), want, "family {family}");
        }
    }
}

/// Pinned proptest regression (`workspace_properties.proptest-regressions`
/// shrank to `seed = 2883168991836340068`). The offline proptest stand-in
/// does not replay regression files, so the case is pinned here as an
/// explicit test: the seed exercises the mapper-validity and simulator
/// determinism properties it was recorded against.
#[test]
fn regression_seed_2883168991836340068() {
    const SEED: u64 = 2883168991836340068;
    let g = gen::random_graph(16, 3.0, 1.0, 1000.0, SEED);
    let topo = Torus::torus_2d(5, 5);
    for mapper in [
        Box::new(RandomMap::new(SEED)) as Box<dyn Mapper>,
        Box::new(TopoLb::default()),
        Box::new(TopoLb::new(EstimationOrder::First)),
        Box::new(TopoCentLb),
    ] {
        let m = mapper.map(&g, &topo);
        let mut seen = std::collections::HashSet::new();
        for t in 0..g.num_tasks() {
            assert!(
                seen.insert(m.proc_of(t)),
                "{} double-books a node",
                mapper.name()
            );
        }
    }

    let sg = gen::stencil2d(3, 4, 512.0, false);
    let stopo = Torus::torus_2d(4, 3);
    let tr = stencil_trace(&sg, 2, 1000);
    let m = RandomMap::new(SEED).map(&sg, &stopo);
    let cfg = NetworkConfig::default();
    let s1 = Simulation::run(&stopo, &cfg, &tr, &m);
    let s2 = Simulation::run(&stopo, &cfg, &tr, &m);
    assert_eq!(s1.completion_ns, s2.completion_ns);
    assert_eq!(
        s1.network_messages + s1.local_messages,
        (2 * sg.num_edges() * 2) as u64
    );
}

/// A saturated scenario for the contention-refinement determinism tests:
/// a 4x4 stencil randomly scattered over a 32-node torus with free
/// processors, so the loop has both swaps and migrations to choose from.
fn contention_fixture() -> (TaskGraph, Torus, Trace, NetworkConfig, Mapping) {
    let g = gen::stencil2d(4, 4, 65_536.0, false);
    let topo = Torus::torus_3d(4, 2, 4);
    let tr = stencil_trace(&g, 6, 2_000);
    let cfg = NetworkConfig::default().with_bandwidth(200e6);
    let m = RandomMap::new(11).map(&g, &topo);
    (g, topo, tr, cfg, m)
}

/// ContentionRefine fans out only the hop-bytes guard; the accept loop is
/// serial by design. The whole refinement — final mapping AND every
/// report field — must be bit-identical at 1, 2, and 8 pool threads.
#[test]
fn contention_refine_thread_invariant() {
    let (g, topo, tr, cfg, start) = contention_fixture();

    let mut results = Vec::new();
    for threads in [1usize, 2, 8] {
        let refiner = ContentionRefine {
            par: eager(threads),
            ..ContentionRefine::default()
        };
        let mut m = start.clone();
        let report = refiner.refine(&g, &topo, &mut m, contention_oracle(&topo, &cfg, &tr));
        results.push((threads, m, report));
    }
    let (_, ref_m, ref_r) = &results[0];
    assert!(ref_r.accepted > 0, "fixture must exercise the accept path");
    for (threads, m, r) in &results[1..] {
        assert_eq!(ref_m, m, "mapping diverged at {threads} threads");
        assert_eq!(ref_r, r, "report diverged at {threads} threads");
    }
}

/// Once the loop converges, running it again is the identity: zero
/// acceptances, unchanged mapping, and the same makespan it ended on.
#[test]
fn contention_refine_idempotent_after_convergence() {
    let (g, topo, tr, cfg, mut m) = contention_fixture();
    let refiner = ContentionRefine::default();

    let first = refiner.refine(&g, &topo, &mut m, contention_oracle(&topo, &cfg, &tr));
    assert!(first.final_makespan_ns <= first.initial_makespan_ns);

    let converged = m.clone();
    let second = refiner.refine(&g, &topo, &mut m, contention_oracle(&topo, &cfg, &tr));
    assert_eq!(second.accepted, 0, "converged state accepted an exchange");
    assert_eq!(m, converged, "idempotent refinement moved a task");
    assert_eq!(second.initial_makespan_ns, first.final_makespan_ns);
    assert_eq!(second.final_makespan_ns, first.final_makespan_ns);
}
