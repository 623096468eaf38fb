//! Serial-equivalence suite for the deterministic parallel execution
//! layer: every mapper that takes a [`Parallelism`] must return a
//! **bit-identical** mapping for every thread count, on every topology
//! family, for every estimation order. The parallel kernels are chunked
//! scans whose reductions keep the serial lowest-id tie-break, so this is
//! a hard equality — no tolerance.

use proptest::prelude::*;
use topomap::core::metrics::hop_bytes;
use topomap::core::refine::refine_mapping_with;
use topomap::netsim::trace::stencil_trace;
use topomap::prelude::*;
use topomap::taskgraph::gen;

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
            let par = TopoLb::with_parallelism(order, Parallelism::eager(threads)).map(&g, topo.as_ref());
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
                TopoLb::with_parallelism(order, Parallelism::eager(threads)),
                Parallelism::eager(threads),
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
        refine_mapping_with(&g, topo.as_ref(), &mut m, 3, Parallelism::eager(threads));
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
            let par = base.clone().with_parallelism(Parallelism::eager(threads)).map(&g, topo.as_ref());
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
            let sfc = SfcMap::with_parallelism(curve, Parallelism::eager(threads)).map(&g, topo.as_ref());
            prop_assert_eq!(&sfc_serial, &sfc, "SFC {:?}, {} threads", curve, threads);
            let rcb = RcbMap::with_parallelism(Parallelism::eager(threads)).map(&g, topo.as_ref());
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
                &SfcMap::with_parallelism(Curve::Hilbert, Parallelism::eager(threads)).map(&g, topo.as_ref()),
                "SFC fallback, {} threads", threads
            );
            prop_assert_eq!(
                &rcb_serial,
                &RcbMap::with_parallelism(Parallelism::eager(threads)).map(&g, topo.as_ref()),
                "RCB fallback, {} threads", threads
            );
        }
    }

    /// The genetic mapper fans out fitness evaluation only; its search
    /// is defined by the RNG stream, so thread count must not change the
    /// result either. (The annealer takes no thread count; its outputs
    /// are pinned by `fixture_hashes_match_parent_goldens`.)
    #[test]
    fn stochastic_mappers_thread_invariant(
        g in arb_task_graph(),
        topo_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let topo = topology_for(topo_idx, 25);
        let ga = |par: Parallelism| GeneticMap {
            par,
            generations: 10,
            ..GeneticMap::quick(seed)
        };
        prop_assert_eq!(
            ga(Parallelism::serial()).map(&g, topo.as_ref()),
            ga(Parallelism::eager(4)).map(&g, topo.as_ref())
        );
    }
}

/// Concurrency stress: third-order TopoLB (one fork-join region per
/// placement) and a converged-start refinement sweep (one per window,
/// every candidate evaluated) on a 16x16 stencil with an oversubscribed
/// 8-thread pool, 25 times over. Every run must produce the same mapping
/// hash as the serial reference — this is the test that would catch a
/// racy reduction or a torn chunk write, because each repetition
/// re-rolls the OS scheduler's interleaving.
#[test]
fn stress_repeated_parallel_runs_are_identical() {
    let tasks = gen::stencil2d(16, 16, 1024.0, false);
    let topo = Torus::torus_2d(16, 16);
    let run = |par: Parallelism| {
        let mut m = TopoLb::with_parallelism(EstimationOrder::Third, par).map(&tasks, &topo);
        let placed = fnv(FNV_INIT, &m);
        refine_mapping_with(&tasks, &topo, &mut m, 3, par);
        let converged = m.clone();
        assert_eq!(refine_mapping_with(&tasks, &topo, &mut m, 3, par), 0);
        assert_eq!(m, converged, "a converged sweep moved a task");
        (placed, fnv(FNV_INIT, &m))
    };

    let want = run(Parallelism::serial());
    for rep in 0..25 {
        assert_eq!(
            run(Parallelism::eager(8)),
            want,
            "run {rep} diverged from the serial reference"
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
        for par in [Parallelism::serial(), Parallelism::eager(8)] {
            let m = base.clone().with_parallelism(par).map(&g, topo.as_ref());
            assert_eq!(hop_bytes(&g, topo.as_ref(), &m), want, "family {family}");
        }
    }
}

/// `proc_of` hashes recorded from the hierarchy mapper as it stood before
/// its coarse step read the coarse TopoLB's block table and its sweeps
/// skipped settled tasks: the two `scale` benchmark cases, then one
/// full-machine random graph per hierarchy family at 1 and 8 threads.
/// Compare-only — a change that claims bit-identical mappings must
/// reproduce every value without editing it.
#[test]
fn hier_mapper_hashes_match_recorded_goldens() {
    const SCALE_3D: u64 = 0x976d_e062_0a54_9325;
    const SCALE_2D: u64 = 0xc032_34c5_bf16_e325;
    const FAMILY: [u64; 4] = [
        0x9789_9336_feae_1df7,
        0xb323_ad71_483e_78cf,
        0x9eac_52c0_65e1_f1a1,
        0xfd00_bc27_fd3d_5e93,
    ];
    let t3 = Torus::torus_3d(16, 16, 16);
    let s3 = gen::stencil3d(16, 16, 16, 4096.0, false);
    let m3 = HierMapper::for_torus(&t3).unwrap().map(&s3, &t3);
    assert_eq!(fnv(FNV_INIT, &m3), SCALE_3D, "stencil3d 16³ → torus 16³");
    let t2 = Torus::torus_2d(128, 128);
    let s2 = gen::stencil2d(128, 128, 4096.0, false);
    let m2 = HierMapper::for_torus(&t2).unwrap().map(&s2, &t2);
    assert_eq!(fnv(FNV_INIT, &m2), SCALE_2D, "stencil2d 128² → torus 128²");
    for (family, want) in FAMILY.into_iter().enumerate() {
        let (topo, base) = hier_family(family);
        let g = gen::random_graph(topo.num_nodes(), 4.0, 1.0, 1000.0, 11 + family as u64);
        for par in [Parallelism::serial(), Parallelism::eager(8)] {
            let m = base.clone().with_parallelism(par).map(&g, topo.as_ref());
            assert_eq!(fnv(FNV_INIT, &m), want, "family {family}");
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

/// A saturated scenario for the contention-refinement tests:
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

/// FNV-1a of the task → processor array, chained onto `h`. Unlike
/// `DefaultHasher`, whose algorithm the standard library does not promise,
/// its values can be committed.
fn fnv(h: u64, m: &Mapping) -> u64 {
    m.as_slice()
        .iter()
        .fold(h, |h, &q| (h ^ q as u64).wrapping_mul(0x0100_0000_01b3))
}
const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Outputs captured at the last commit whose greedy step still forked
/// (the gain scan and the non-neighbour subtraction of both estimation
/// kernels, the annealer's batched deltas, ContentionRefine's guard), at
/// 1, 2 and 8 eager threads each: deleting those forks must not move a
/// bit, at any thread count a type still takes. One chained hash per
/// mapper family over `random_graph(100, 6.0)` seeds 1–4.
#[test]
fn fixture_hashes_match_parent_goldens() {
    const TOPOLB: u64 = 0xe40a_5a8b_a0a3_3535;
    const GENETIC: u64 = 0x65c8_8e32_614a_1dd3;
    const ANNEAL: u64 = 0xaee0_f7ab_2102_5eff;
    const TOPOCENT: u64 = 0x4442_49c2_a1ab_2cf6;
    const CONTENTION: u64 = 0x4d43_0337_900d_b656;
    const REPORT: ContentionReport = ContentionReport {
        iterations: 3,
        sims_run: 64,
        accepted: 3,
        initial_makespan_ns: 8_867_760,
        final_makespan_ns: 7_884_320,
    };
    // The 4x4x8 mesh is not distance-regular, so there the second order's
    // factor varies by processor; the 32x32 stencil takes the integer kernel.
    let (torus, mesh) = (Torus::torus_3d(4, 4, 8), Torus::mesh(&[4, 4, 8]));
    let stencil = gen::stencil2d(32, 32, 1024.0, false);
    let square = Torus::torus_2d(32, 32);
    let graphs = [1, 2, 3, 4].map(|seed| (seed, gen::random_graph(100, 6.0, 1.0, 1000.0, seed)));

    for threads in [1, 2, 8] {
        let par = Parallelism::eager(threads);
        let (mut topolb, mut genetic) = (FNV_INIT, FNV_INIT);
        for order in ORDERS {
            let mapper = TopoLb::with_parallelism(order, par);
            for (_, g) in &graphs {
                topolb = fnv(fnv(topolb, &mapper.map(g, &torus)), &mapper.map(g, &mesh));
            }
            if order != EstimationOrder::Third {
                topolb = fnv(topolb, &mapper.map(&stencil, &square));
            }
        }
        for (seed, g) in &graphs {
            let mut ga = GeneticMap::quick(*seed);
            ga.par = par;
            genetic = fnv(genetic, &ga.map(g, &torus));
        }
        assert_eq!(topolb, TOPOLB, "TopoLB at {threads} threads");
        assert_eq!(genetic, GENETIC, "GeneticMap at {threads} threads");
    }

    // The types that take no thread count any more.
    let (mut anneal, mut topocent) = (FNV_INIT, FNV_INIT);
    for (seed, g) in &graphs {
        anneal = fnv(anneal, &SimulatedAnnealingMap::quick(*seed).map(g, &torus));
        anneal = fnv(anneal, &SimulatedAnnealingMap::new(*seed).map(g, &torus));
        topocent = fnv(topocent, &TopoCentLb.map(g, &torus));
    }
    assert_eq!(anneal, ANNEAL, "SimulatedAnnealingMap");
    assert_eq!(topocent, TOPOCENT, "TopoCentLb");
    let (g, topo, tr, cfg, mut m) = contention_fixture();
    let report =
        ContentionRefine::default().refine(&g, &topo, &mut m, contention_oracle(&topo, &cfg, &tr));
    assert_eq!((fnv(FNV_INIT, &m), report), (CONTENTION, REPORT));
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
