//! `CASES`: what the evaluation matrix measures, as data.
//!
//! A case names an experiment (the id of its `<!-- matrix:ID -->` block
//! in EXPERIMENTS.md; several cases may share one), a measurement, the
//! `(workload, machine)` pairs it runs on with the smallest [`Scale`]
//! that includes each, mapper names for `MapperSpec::parse`, seeds, and
//! for the simulator-backed measurements a network scenario. The paper's
//! own columns (hardware times, closed forms) are static fields too. A
//! case spells out what differs from the base it updates.

use topomap_netsim::config::RoutingMode::{self, Deterministic, MinimalAdaptive};
use topomap_partition::{GreedyLoad, MultilevelKWay, Partitioner, RandomPartition};
use topomap_taskgraph::{gen, TaskGraph};
use topomap_topology::stats::{expected_random_hops_torus_2d, expected_random_hops_torus_3d};

/// How much of a case runs: the tier-1 test's subset, what `matrix`
/// commits to `results/matrix.tsv`, or the paper's full sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    Test,
    Default,
    Full,
}
use Scale::{Default as Dflt, Full, Test};

/// A workload: a `parse_pattern` spec, or — for the two families that
/// parser does not have — a label and a constructor.
pub(crate) enum Workload {
    Spec(&'static str),
    Built(&'static str, fn() -> TaskGraph),
}
use Workload::{Built, Spec};

/// The five things the deleted programs did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Measure {
    /// Place (best of three timed `map` calls) and score hop-bytes.
    Score,
    /// Place once, replay the stencil trace under every network variant.
    Simulate,
    /// Place `refine`'s init, then one record per RefineTopoLB pass.
    RefinePasses,
    /// Partition → coalesce → `Score` on the group graph.
    Coalesce,
    /// Hop-bytes-refined mapping, then `ContentionRefine` against the
    /// simulator: one record before, one after.
    Contention,
}

type MakePartitioner = fn() -> Box<dyn Partitioner>;

pub(crate) struct Case {
    pub(crate) exp: &'static str,
    pub(crate) measure: Measure,
    /// `(smallest scale that runs it, workload, parse_topology spec)`.
    pub(crate) sizes: &'static [(Scale, Workload, &'static str)],
    /// Message sizes handed to `parse_pattern` (stencil edges carry twice
    /// that: one message each way); more than one makes bytes the row.
    pub(crate) bytes: &'static [f64],
    /// `parse_pattern`'s seed (the random families and LeanMD read it).
    pub(crate) gen_seed: u64,
    /// `NAME` or `refine --init NAME`, as on the `topomap map` command line.
    pub(crate) mappers: &'static [&'static str],
    /// Seeds of the seeded mappers (tables average over them); the
    /// deterministic ones run once, with the first.
    pub(crate) seeds: &'static [u64],
    pub(crate) partitioners: &'static [(&'static str, MakePartitioner)],
    // The network scenario, read by the simulator-backed measurements.
    /// BG/L link constants instead of `NetworkConfig::default()`.
    pub(crate) bgl: bool,
    /// Link bandwidths, MB/s (empty: the base config's); more than one
    /// makes bandwidth the row.
    pub(crate) mbs: &'static [f64],
    /// BigNetSim-style per-port NIC instead of the shared channel.
    pub(crate) per_link: bool,
    pub(crate) routing: &'static [RoutingMode],
    /// Trace iterations at `[Test, Default, Full]`.
    pub(crate) iterations: [usize; 3],
    pub(crate) compute_ns: u64,
    pub(crate) send_overhead_ns: Option<u64>,
    /// Slow every outgoing link of the router that is busiest under the
    /// hop-bytes-refined mapping to this fraction of its bandwidth.
    pub(crate) degrade: Option<f64>,
    /// The paper's closed form for Random's hops per byte on `p` PEs.
    pub(crate) analytic: Option<fn(usize) -> f64>,
    /// The paper's own cells, by row label.
    pub(crate) paper: &'static [(&'static str, &'static [&'static str])],
}

const MULTILEVEL: (&str, MakePartitioner) = ("multilevel", || Box::new(MultilevelKWay::default()));
const PAPER_THREE: &[&str] = &["random", "topocentlb", "topolb"];
const GEOMETRIC: &[&str] = &["topolb", "sfc", "sfc-morton", "rcb"];

/// Place and score 1 KiB stencil edges; the network fields are §5.3's
/// BigNetSim setup.
const BASE: Case = Case {
    exp: "",
    measure: Measure::Score,
    sizes: &[],
    bytes: &[512.0],
    gen_seed: 0,
    mappers: &[],
    seeds: &[0],
    partitioners: &[MULTILEVEL],
    bgl: false,
    mbs: &[],
    per_link: true,
    routing: &[Deterministic],
    iterations: [0, 0, 0],
    compute_ns: 5_000,
    send_overhead_ns: None,
    degrade: None,
    analytic: None,
    paper: &[],
};

/// §5.3: the 8×8 stencil on the 64-node torus, 2 KiB messages, light
/// compute ("communication is a significant factor"), GreedyLB played by
/// Random.
const SECTION_5_3: Case = Case {
    measure: Measure::Simulate,
    sizes: &[(Dflt, Spec("stencil2d:8x8"), "torus:4x4x4")],
    bytes: &[2048.0],
    mappers: PAPER_THREE,
    seeds: &[1],
    ..BASE
};

/// The BG/L hardware runs: its link constants, shared-channel NIC.
const BLUEGENE: Case = Case {
    measure: Measure::Simulate,
    bgl: true,
    per_link: false,
    ..BASE
};

/// 3240 + p chares coalesced to p groups. The seed is
/// `LeanMdConfig::default().seed`, so `leanmd:P` at 2048 bytes is the
/// generator's default graph.
const LEANMD: Case = Case {
    measure: Measure::Coalesce,
    bytes: &[2048.0],
    gen_seed: 0x0001_ea9d,
    seeds: &[17],
    ..BASE
};

const CONTENTION: Case = Case {
    exp: "contention",
    measure: Measure::Contention,
    bytes: &[65536.0],
    mappers: &["refine"],
    ..BASE
};

/// `side`² points in the unit square, neighbours within 1.6 / side.
fn geometric(side: usize) -> TaskGraph {
    gen::random_geometric(side * side, 1.6 / side as f64, 100.0, 2048.0, 11)
}

fn leanmd_groups_64() -> TaskGraph {
    let chares = gen::leanmd(64, &gen::LeanMdConfig::default());
    let partition = MultilevelKWay::default().partition(&chares, 64);
    partition.coalesce(&chares)
}

/// The cases of experiment `exp`.
pub(crate) fn of(exp: &str) -> impl Iterator<Item = &'static Case> + '_ {
    CASES.iter().filter(move |c| c.exp == exp)
}

pub(crate) const CASES: &[Case] = &[
    // The paper's 235 µs per iteration at 1 KB is MPI software overhead
    // and Jacobi compute, not wire time: 10 µs of sender overhead per
    // message and 150 µs of compute; the links stay BG/L's.
    Case {
        exp: "table1",
        sizes: &[(Test, Spec("stencil3d:8x8x8"), "mesh:8x8x8")],
        bytes: &[1024.0, 10240.0, 102400.0, 512000.0, 1048576.0],
        mappers: &["random", "identity"],
        seeds: &[1],
        iterations: [4, 50, 200],
        compute_ns: 150_000,
        send_overhead_ns: Some(10_000),
        paper: &[
            ("1024", &["56.93ms / 46.91ms", "1.21"]),
            ("10240", &["243.64ms / 124.56ms", "1.96"]),
            ("102400", &["2247.75ms / 914.72ms", "2.46"]),
            ("512000", &["11.62s / 4.44s", "2.62"]),
            ("1048576", &["23.50s / 8.80s", "2.67"]),
        ],
        ..BLUEGENE
    },
    Case {
        exp: "fig1_2",
        sizes: &[
            (Test, Spec("stencil2d:8x8"), "torus:8x8"),
            (Test, Spec("stencil2d:16x16"), "torus:16x16"),
            (Dflt, Spec("stencil2d:24x24"), "torus:24x24"),
            (Dflt, Spec("stencil2d:32x32"), "torus:32x32"),
            (Dflt, Spec("stencil2d:48x48"), "torus:48x48"),
            (Dflt, Spec("stencil2d:64x64"), "torus:64x64"),
            (Full, Spec("stencil2d:76x76"), "torus:76x76"),
        ],
        mappers: PAPER_THREE,
        seeds: &[0, 1, 2],
        analytic: Some(expected_random_hops_torus_2d),
        ..BASE
    },
    // The 2-D task mesh is the most balanced factorization of p = side³.
    Case {
        exp: "fig3_4",
        sizes: &[
            (Test, Spec("stencil2d:8x8"), "torus:4x4x4"),
            (Test, Spec("stencil2d:12x18"), "torus:6x6x6"),
            (Dflt, Spec("stencil2d:16x32"), "torus:8x8x8"),
            (Dflt, Spec("stencil2d:25x40"), "torus:10x10x10"),
            (Dflt, Spec("stencil2d:36x48"), "torus:12x12x12"),
            (Full, Spec("stencil2d:64x64"), "torus:16x16x16"),
        ],
        mappers: PAPER_THREE,
        seeds: &[0, 1, 2],
        analytic: Some(expected_random_hops_torus_3d),
        ..BASE
    },
    // The most balanced 2-D and 3-D tori of p nodes.
    Case {
        exp: "fig5_6",
        sizes: &[
            (Test, Spec("leanmd:18"), "torus:3x6"),
            (Dflt, Spec("leanmd:64"), "torus:8x8"),
            (Dflt, Spec("leanmd:128"), "torus:8x16"),
            (Dflt, Spec("leanmd:256"), "torus:16x16"),
            (Dflt, Spec("leanmd:512"), "torus:16x32"),
            (Full, Spec("leanmd:1024"), "torus:32x32"),
            (Test, Spec("leanmd:18"), "torus:2x3x3"),
            (Dflt, Spec("leanmd:64"), "torus:4x4x4"),
            (Dflt, Spec("leanmd:128"), "torus:4x4x8"),
            (Dflt, Spec("leanmd:256"), "torus:4x8x8"),
            (Dflt, Spec("leanmd:512"), "torus:8x8x8"),
            (Full, Spec("leanmd:1024"), "torus:8x8x16"),
        ],
        mappers: &["random", "topocentlb", "topolb", "refine"],
        paper: &[("18", &["12.7"]), ("512", &["19.5"])],
        ..LEANMD
    },
    Case {
        exp: "fig7_8",
        mbs: &[
            100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0,
        ],
        iterations: [0, 200, 500],
        ..SECTION_5_3
    },
    Case {
        exp: "fig9",
        mbs: &[50.0, 100.0, 200.0, 300.0, 400.0, 500.0],
        iterations: [0, 500, 2000],
        ..SECTION_5_3
    },
    // Supplementary: 512 nodes, where TopoCentLB and TopoLB separate.
    Case {
        exp: "fig9",
        sizes: &[(Dflt, Spec("stencil2d:16x32"), "torus:8x8x8")],
        mbs: &[50.0, 100.0, 200.0, 400.0],
        iterations: [0, 100, 400],
        ..SECTION_5_3
    },
    // 2-D Jacobi with 100 KB messages on the most cubic BG/L partition of
    // p nodes, as a torus (Figure 10) and as a mesh (Figure 11).
    Case {
        exp: "fig10_11",
        sizes: &[
            (Dflt, Spec("stencil2d:8x8"), "torus:4x4x4"),
            (Dflt, Spec("stencil2d:8x16"), "torus:4x4x8"),
            (Dflt, Spec("stencil2d:16x16"), "torus:4x8x8"),
            (Dflt, Spec("stencil2d:16x32"), "torus:8x8x8"),
            (Full, Spec("stencil2d:27x27"), "torus:9x9x9"),
            (Dflt, Spec("stencil2d:8x8"), "mesh:4x4x4"),
            (Dflt, Spec("stencil2d:8x16"), "mesh:4x4x8"),
            (Dflt, Spec("stencil2d:16x16"), "mesh:4x8x8"),
            (Dflt, Spec("stencil2d:16x32"), "mesh:8x8x8"),
            (Full, Spec("stencil2d:27x27"), "mesh:9x9x9"),
        ],
        bytes: &[102400.0],
        mappers: &["topolb", "topocentlb", "random"],
        seeds: &[0, 1, 2],
        iterations: [0, 400, 4000],
        compute_ns: 50_000,
        ..BLUEGENE
    },
    Case {
        exp: "ablation1",
        sizes: &[
            (Dflt, Spec("stencil2d:8x8"), "torus:8x8"),
            (Dflt, Spec("stencil2d:12x12"), "torus:12x12"),
            (Dflt, Spec("stencil2d:16x16"), "torus:16x16"),
            (Full, Spec("stencil2d:20x20"), "torus:20x20"),
        ],
        mappers: &["topolb-first", "topolb", "topolb-third"],
        ..BASE
    },
    Case {
        exp: "ablation2",
        measure: Measure::RefinePasses,
        sizes: &[(
            Dflt,
            Built("leanmd-groups:64", leanmd_groups_64),
            "torus:8x8",
        )],
        mappers: &["refine"],
        ..BASE
    },
    Case {
        exp: "ablation3",
        sizes: &[(Dflt, Spec("leanmd:64"), "torus:8x8")],
        mappers: &["topolb", "random"],
        seeds: &[3],
        partitioners: &[
            ("random", || Box::new(RandomPartition::new(5))),
            ("greedy-load", || Box::new(GreedyLoad)),
            MULTILEVEL,
        ],
        ..LEANMD
    },
    // §1's argument that fat-tree and hypercube machines need topology
    // awareness less; the 3-D mesh beside the 3-D torus is §5.4's.
    Case {
        exp: "ablation4",
        sizes: &[
            (Test, Spec("stencil2d:8x8"), "torus:8x8"),
            (Test, Spec("stencil2d:8x8"), "mesh:8x8"),
            (Test, Spec("stencil2d:8x8"), "torus:4x4x4"),
            (Test, Spec("stencil2d:8x8"), "mesh:4x4x4"),
            (Test, Spec("stencil2d:8x8"), "hypercube:6"),
            (Test, Spec("stencil2d:8x8"), "fattree:4:3"),
        ],
        mappers: &["topolb", "random"],
        seeds: &[0, 1, 2],
        ..BASE
    },
    // §5.4's comparison at the four seeds tier-1 has always drawn for it.
    Case {
        exp: "ablation4_mesh",
        sizes: &[
            (Test, Spec("stencil2d:8x8"), "torus:4x4x4"),
            (Test, Spec("stencil2d:8x8"), "mesh:4x4x4"),
        ],
        mappers: &["topolb", "random"],
        seeds: &[0, 1, 2, 3],
        ..BASE
    },
    Case {
        exp: "ablation5",
        sizes: &[
            (Dflt, Spec("stencil2d:8x8"), "torus:8x8"),
            (Dflt, Spec("stencil2d:16x16"), "torus:16x16"),
            (Dflt, Spec("stencil2d:24x24"), "torus:24x24"),
            (Full, Spec("stencil2d:32x32"), "torus:32x32"),
        ],
        mappers: &["topolb", "hier"],
        ..BASE
    },
    // Heuristics against simulated annealing and a genetic search, on the
    // stencil and on a random geometric graph.
    Case {
        exp: "physopt",
        sizes: &[
            (Dflt, Spec("stencil2d:8x8"), "torus:8x8"),
            (Test, Built("geometric:64", || geometric(8)), "torus:8x8"),
            (Dflt, Spec("stencil2d:12x12"), "torus:12x12"),
            (
                Dflt,
                Built("geometric:144", || geometric(12)),
                "torus:12x12",
            ),
            (Dflt, Spec("stencil2d:16x16"), "torus:16x16"),
            (
                Dflt,
                Built("geometric:256", || geometric(16)),
                "torus:16x16",
            ),
            (Full, Spec("stencil2d:24x24"), "torus:24x24"),
            (
                Full,
                Built("geometric:576", || geometric(24)),
                "torus:24x24",
            ),
        ],
        mappers: &[
            "random",
            "topocentlb",
            "topolb",
            "refine",
            "anneal",
            "genetic",
        ],
        seeds: &[1],
        ..BASE
    },
    Case {
        exp: "routing",
        mappers: &["random", "topolb"],
        mbs: &[100.0, 200.0, 500.0, 1000.0],
        routing: &[Deterministic, MinimalAdaptive],
        iterations: [0, 150, 500],
        ..SECTION_5_3
    },
    // Periodic stencils on the matching torus; `refine` is the quality bar.
    Case {
        exp: "hier",
        sizes: &[
            (Dflt, Spec("pstencil2d:32x32"), "torus:32x32"),
            (Dflt, Spec("pstencil2d:64x64"), "torus:64x64"),
            (Dflt, Spec("pstencil2d:128x128"), "torus:128x128"),
        ],
        mappers: &["topolb", "hier", "refine"],
        ..BASE
    },
    Case {
        exp: "geom",
        sizes: &[
            (Dflt, Spec("stencil2d:32x32"), "torus:32x32"),
            (Dflt, Spec("stencil3d:16x16x16"), "torus:16x16x16"),
            (Dflt, Spec("stencil2d:128x128"), "torus:128x128"),
        ],
        mappers: GEOMETRIC,
        ..BASE
    },
    // Warm start: a matching stencil, where the geometric seed is already
    // the refiner's fixed point, and two inputs where it is not.
    Case {
        exp: "geom_warm",
        measure: Measure::RefinePasses,
        sizes: &[
            (Dflt, Spec("pstencil2d:32x32"), "torus:32x32"),
            (Dflt, Spec("random:1024:6"), "torus:32x32"),
            (Dflt, Spec("stencil2d:30x30"), "torus:32x32"),
        ],
        bytes: &[1024.0],
        gen_seed: 3,
        mappers: &["refine", "refine --init sfc", "refine --init rcb"],
        ..BASE
    },
    Case {
        exp: "geom_replay",
        measure: Measure::Simulate,
        sizes: &[(Dflt, Spec("stencil2d:32x32"), "torus:32x32")],
        mappers: GEOMETRIC,
        per_link: false,
        iterations: [0, 5, 5],
        compute_ns: 2_000,
        ..BASE
    },
    // The group graph has no coordinates: SFC and RCB run on the
    // BFS-layering fallback.
    Case {
        exp: "geom_leanmd",
        sizes: &[(Dflt, Spec("leanmd:1024"), "torus:32x32")],
        mappers: &["random", "topolb", "sfc", "sfc-morton", "rcb"],
        ..LEANMD
    },
    // degraded-torus: the router busiest under the hop-bytes-refined
    // mapping loses 90 % of its outgoing bandwidth.
    Case {
        sizes: &[(Dflt, Spec("stencil2d:8x8"), "torus:4x4x8")],
        mbs: &[300.0],
        iterations: [0, 20, 20],
        degrade: Some(0.1),
        ..CONTENTION
    },
    // dragonfly-global: same-pair flows share single global channels.
    Case {
        sizes: &[(Dflt, Spec("all2all:16"), "dragonfly:4:8")],
        mbs: &[200.0],
        iterations: [0, 10, 10],
        ..CONTENTION
    },
    // saturated-torus: long-haul transpose flows at low bandwidth.
    Case {
        sizes: &[(Dflt, Spec("transpose:6"), "torus:8x8")],
        mbs: &[150.0],
        iterations: [0, 10, 10],
        ..CONTENTION
    },
];
