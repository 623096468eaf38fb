//! The five case-list workloads: `place_uniform`, `place_weighted`,
//! `refine`, `scale` and `simulate`.
//!
//! A workload is a list of cases; one iteration runs every case once on
//! the calling thread, and each case is timed around the single public
//! call (or, for the two-phase case, the three calls) it exists to
//! measure. Inputs and initial mappings are built in set-up and cloned
//! outside the timer.

use std::hint::black_box;
use std::time::Instant;

use crate::adapter::{
    contention_oracle, hop_bytes, hops_per_byte, leanmd, random_graph, refine_mapping_with,
    stencil2d, stencil3d, stencil_trace, topolb, ContentionRefine, Curve, HierMapper, LeanMdConfig,
    Mapper, Mapping, MultilevelKWay, NetworkConfig, NicModel, Parallelism, Partitioner, RandomMap,
    RcbMap, RefineTopoLb, RoutedTopology, SfcMap, Simulation, TaskGraph, TopoCentLb, Topology,
    Torus, Trace,
};
use crate::trace::Recorder;

/// Refinement sweeps allowed per `refine` case. The sweep at which a
/// seeded start converges varies from the fourth to beyond the eighth,
/// which made the time of an iteration swing by 8 % with the seed; every
/// seed still runs three sweeps in full, so three is steady work.
const REFINE_PASSES: usize = 3;
/// Uniform message size of the stencil inputs, in bytes.
const STENCIL_BYTES: f64 = 4096.0;

pub enum Op {
    /// `Mapper::map` of TopoLB-2nd.
    TopoLb,
    /// `Mapper::map` of TopoCentLB.
    TopoCentLb,
    /// `Mapper::map` of the hierarchy built by `HierMapper::for_torus`.
    Hier(HierMapper),
    /// `Mapper::map` of the Hilbert `SfcMap`.
    Sfc,
    /// `Mapper::map` of `RcbMap`.
    Rcb,
    /// `refine_mapping_with` from `init`.
    Refine { init: Mapping },
    /// The paper's two phases: `MultilevelKWay::partition` into `parts`
    /// groups, `Partition::coalesce`, TopoLB on the group graph.
    TwoPhase { parts: usize },
    /// `metrics::hop_bytes` of a fixed mapping.
    HopBytes { mapping: Mapping },
    /// `Simulation::run` of `trace` under a fixed mapping; the simulated
    /// completion time is recorded under `completion_key`.
    Simulate {
        trace: Trace,
        cfg: NetworkConfig,
        mapping: Mapping,
        completion_key: &'static str,
    },
    /// `ContentionRefine::refine` from `init` with `contention_oracle`.
    Contention {
        trace: Trace,
        cfg: NetworkConfig,
        init: Mapping,
    },
}

pub struct Case {
    pub name: &'static str,
    /// Span name of the timed public call.
    pub layer: &'static str,
    pub tasks: TaskGraph,
    pub topo: Torus,
    pub op: Op,
    /// Hop-bytes of the seeded `RandomMap`, on the stencil mapping cases:
    /// the produced mapping must never be worse.
    pub random_hb: Option<f64>,
}

/// What a case produced. Everything here must repeat exactly: across
/// iterations and between the 1-thread and default-thread passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Produced {
    pub mapping: Option<Mapping>,
    /// Exact by-products, keyed by the per-layer metric they feed where
    /// there is one (`core.refine.accepted`, ...).
    pub counts: Vec<(&'static str, f64)>,
}

pub struct CaseRun {
    /// Time inside the measured public call(s), in milliseconds.
    pub ms: f64,
    pub produced: Produced,
    /// `metrics::hops_per_byte` of the mapping produced or simulated; only
    /// computed when scoring was asked for.
    pub hops_per_byte: Option<f64>,
}

fn timed<T>(rec: &mut Recorder, name: &str, id: u64, ms: &mut f64, f: impl FnOnce() -> T) -> T {
    rec.enter(name, id);
    let start = Instant::now();
    let out = black_box(f());
    *ms += start.elapsed().as_secs_f64() * 1e3;
    rec.exit();
    out
}

impl Case {
    /// `n · p` of every TopoLB placement this case makes.
    pub fn topolb_cells(&self) -> usize {
        match self.op {
            Op::TopoLb => self.tasks.num_tasks() * self.topo.num_nodes(),
            Op::TwoPhase { parts } => parts * self.topo.num_nodes(),
            _ => 0,
        }
    }

    /// Messages one `Simulation::run` of this case delivers.
    pub fn sim_messages(&self) -> usize {
        match &self.op {
            Op::Simulate { trace, .. } => trace.num_messages(),
            _ => 0,
        }
    }

    /// Run the case once. With `score`, also compute `hops_per_byte` of
    /// the result inside a `core.metrics.hop_bytes` span.
    pub fn run(&self, par: Parallelism, rec: &mut Recorder, id: u64, score: bool) -> CaseRun {
        let (tasks, topo) = (&self.tasks, &self.topo);
        let mut ms = 0.0;
        let mut counts = Vec::new();
        // The graph the produced mapping places, when it is not `tasks`.
        let mut groups = None;
        rec.enter(&format!("case.{}", self.name), id);
        let mapping = match &self.op {
            Op::TopoLb => {
                let mapper = topolb(par);
                Some(timed(rec, self.layer, id, &mut ms, || {
                    mapper.map(tasks, topo)
                }))
            }
            Op::TopoCentLb => Some(timed(rec, self.layer, id, &mut ms, || {
                TopoCentLb.map(tasks, topo)
            })),
            Op::Hier(mapper) => {
                let mapper = mapper.clone().with_parallelism(par);
                Some(timed(rec, self.layer, id, &mut ms, || {
                    mapper.map(tasks, topo)
                }))
            }
            Op::Sfc => {
                let mapper = SfcMap::with_parallelism(Curve::Hilbert, par);
                Some(timed(rec, self.layer, id, &mut ms, || {
                    mapper.map(tasks, topo)
                }))
            }
            Op::Rcb => {
                let mapper = RcbMap::with_parallelism(par);
                Some(timed(rec, self.layer, id, &mut ms, || {
                    mapper.map(tasks, topo)
                }))
            }
            Op::Refine { init } => {
                let mut m = init.clone();
                let accepted = timed(rec, self.layer, id, &mut ms, || {
                    refine_mapping_with(tasks, topo, &mut m, REFINE_PASSES, par)
                });
                counts.push(("core.refine.accepted", accepted as f64));
                Some(m)
            }
            Op::TwoPhase { parts } => {
                let partitioner = MultilevelKWay::default();
                let part = timed(rec, "partition.multilevel.partition", id, &mut ms, || {
                    partitioner.partition(tasks, *parts)
                });
                let coalesced = timed(rec, "partition.coalesce", id, &mut ms, || {
                    part.coalesce(tasks)
                });
                let mapper = topolb(par);
                let m = timed(rec, self.layer, id, &mut ms, || {
                    mapper.map(&coalesced, topo)
                });
                counts.push(("partition.multilevel.edge_cut", part.edge_cut(tasks)));
                counts.push(("partition.multilevel.imbalance", part.imbalance()));
                groups = Some(coalesced);
                Some(m)
            }
            Op::HopBytes { mapping } => {
                let hb = timed(rec, self.layer, id, &mut ms, || {
                    hop_bytes(tasks, topo, mapping)
                });
                counts.push(("hop_bytes", hb));
                None
            }
            Op::Simulate {
                trace,
                cfg,
                mapping,
                completion_key,
            } => {
                let stats = timed(rec, self.layer, id, &mut ms, || {
                    Simulation::run(topo, cfg, trace, mapping)
                });
                counts.push((completion_key, stats.completion_ms()));
                None
            }
            Op::Contention { trace, cfg, init } => {
                let mut m = init.clone();
                let refiner = ContentionRefine {
                    max_iters: 24,
                    sim_budget: 120,
                    par,
                    ..ContentionRefine::default()
                };
                let report = timed(rec, self.layer, id, &mut ms, || {
                    refiner.refine(tasks, topo, &mut m, contention_oracle(topo, cfg, trace))
                });
                counts.push(("core.contention.sims_run", report.sims_run as f64));
                counts.push(("core.contention.improvement_pct", report.improvement_pct()));
                counts.push(("final_makespan_ns", report.final_makespan_ns as f64));
                Some(m)
            }
        };
        let hops_per_byte = if score {
            let scored = match &self.op {
                Op::Simulate { mapping, .. } => Some(mapping),
                _ => mapping.as_ref(),
            };
            scored.map(|m| {
                let graph = groups.as_ref().unwrap_or(tasks);
                rec.span("core.metrics.hop_bytes", id, || {
                    hops_per_byte(graph, topo, m)
                })
            })
        } else {
            None
        };
        rec.exit();
        CaseRun {
            ms,
            produced: Produced { mapping, counts },
            hops_per_byte,
        }
    }
}

/// Is every task on its own processor of the machine, and does the
/// mapping survive a `Mapping::new` round trip?
pub fn mapping_is_valid(m: &Mapping) -> bool {
    let p = m.num_procs();
    let mut taken = vec![false; p];
    for &q in m.as_slice() {
        if q >= p || std::mem::replace(&mut taken[q], true) {
            return false;
        }
    }
    Mapping::new(m.as_slice().to_vec(), p) == *m
}

fn mapping_case(
    name: &'static str,
    layer: &'static str,
    tasks: &TaskGraph,
    topo: &Torus,
    op: Op,
) -> Case {
    Case {
        name,
        layer,
        tasks: tasks.clone(),
        topo: topo.clone(),
        op,
        random_hb: None,
    }
}

/// The same, on a stencil: records the seeded random baseline.
fn stencil_case(
    name: &'static str,
    layer: &'static str,
    tasks: &TaskGraph,
    topo: &Torus,
    op: Op,
    seed: u64,
) -> Case {
    let random = RandomMap::new(seed).map(tasks, topo);
    Case {
        random_hb: Some(hop_bytes(tasks, topo, &random)),
        ..mapping_case(name, layer, tasks, topo, op)
    }
}

const TOPOLB: &str = "core.topolb.map";
const TOPOCENTLB: &str = "core.topocentlb.map";

fn place_uniform(seed: u64) -> Vec<Case> {
    let s2 = stencil2d(32, 32, STENCIL_BYTES, false);
    let t2 = Torus::torus_2d(32, 32);
    let s3 = stencil3d(16, 16, 16, STENCIL_BYTES, false);
    let t3 = Torus::torus_3d(16, 16, 16);
    vec![
        stencil_case("topolb/stencil2d-1024", TOPOLB, &s2, &t2, Op::TopoLb, seed),
        stencil_case(
            "topocentlb/stencil2d-1024",
            TOPOCENTLB,
            &s2,
            &t2,
            Op::TopoCentLb,
            seed,
        ),
        stencil_case("topolb/stencil3d-4096", TOPOLB, &s3, &t3, Op::TopoLb, seed),
        stencil_case(
            "topocentlb/stencil3d-4096",
            TOPOCENTLB,
            &s3,
            &t3,
            Op::TopoCentLb,
            seed,
        ),
    ]
}

fn place_weighted(seed: u64) -> Vec<Case> {
    let r1 = random_graph(1024, 8.0, 512.0, 4096.0, seed);
    let r2 = random_graph(2048, 8.0, 512.0, 4096.0, seed.wrapping_add(1));
    let t1 = Torus::torus_3d(8, 8, 16);
    let t2 = Torus::torus_3d(8, 16, 16);
    // LeanMD keeps its default seed: the density of its group graph, and
    // with it placement time and hops per byte, swung by 20 % with the
    // seed. The random graphs carry the seed.
    let md = leanmd(1024, &LeanMdConfig::default());
    let md_groups = MultilevelKWay::default().partition(&md, 1024).coalesce(&md);
    vec![
        mapping_case("topolb/random-1024", TOPOLB, &r1, &t1, Op::TopoLb),
        mapping_case(
            "topocentlb/random-1024",
            TOPOCENTLB,
            &r1,
            &t1,
            Op::TopoCentLb,
        ),
        mapping_case("topolb/random-2048", TOPOLB, &r2, &t2, Op::TopoLb),
        mapping_case("topolb/leanmd-1024", TOPOLB, &md_groups, &t1, Op::TopoLb),
        mapping_case(
            "topocentlb/leanmd-1024",
            TOPOCENTLB,
            &md_groups,
            &t1,
            Op::TopoCentLb,
        ),
    ]
}

fn refine(seed: u64) -> Vec<Case> {
    const SWEEP: &str = "core.refine.sweep";
    let s576 = stencil2d(24, 24, STENCIL_BYTES, false);
    let t576 = Torus::torus_2d(24, 24);
    let ps1024 = stencil2d(32, 32, STENCIL_BYTES, true);
    let t1024 = Torus::torus_2d(32, 32);
    let r256 = random_graph(256, 8.0, 512.0, 4096.0, seed);
    let t256 = Torus::torus_3d(8, 8, 4);
    let serial = Parallelism::serial();
    vec![
        stencil_case(
            "rand576",
            SWEEP,
            &s576,
            &t576,
            Op::Refine {
                init: RandomMap::new(seed).map(&s576, &t576),
            },
            seed,
        ),
        // Converged input: the sweep runs to accept nothing.
        stencil_case(
            "zero1024",
            "core.refine.zero_accept",
            &ps1024,
            &t1024,
            Op::Refine {
                init: topolb(serial).map(&ps1024, &t1024),
            },
            seed,
        ),
        mapping_case(
            "wrand256",
            SWEEP,
            &r256,
            &t256,
            Op::Refine {
                init: TopoCentLb.map(&r256, &t256),
            },
        ),
    ]
}

fn scale(seed: u64) -> Vec<Case> {
    let s3 = stencil3d(16, 16, 16, STENCIL_BYTES, false);
    let t3 = Torus::torus_3d(16, 16, 16);
    let s2 = stencil2d(128, 128, STENCIL_BYTES, false);
    let t2 = Torus::torus_2d(128, 128);
    let groups_machine = Torus::torus_2d(32, 32);
    let hier = |t: &Torus| Op::Hier(HierMapper::for_torus(t).expect("torus factors"));
    let sfc_mapping = SfcMap::with_parallelism(Curve::Hilbert, Parallelism::serial()).map(&s2, &t2);
    const HIER: &str = "core.hierarchy.map";
    vec![
        stencil_case("hier/stencil3d-4096", HIER, &s3, &t3, hier(&t3), seed),
        stencil_case("hier/stencil2d-16384", HIER, &s2, &t2, hier(&t2), seed),
        stencil_case(
            "sfc/stencil2d-16384",
            "core.geom.sfc",
            &s2,
            &t2,
            Op::Sfc,
            seed,
        ),
        stencil_case(
            "rcb/stencil2d-16384",
            "core.geom.rcb",
            &s2,
            &t2,
            Op::Rcb,
            seed,
        ),
        mapping_case(
            "twophase/stencil2d-16384-to-1024",
            TOPOLB,
            &s2,
            &groups_machine,
            Op::TwoPhase { parts: 1024 },
        ),
        mapping_case(
            "hopbytes/stencil2d-16384",
            "core.metrics.hop_bytes",
            &s2,
            &t2,
            Op::HopBytes {
                mapping: sfc_mapping,
            },
        ),
    ]
}

/// The degraded-torus scenario of `exp_contention`: the busiest router of
/// the hop-bytes-refined mapping loses 90 % of its outgoing bandwidth.
fn degraded_torus() -> Case {
    let tasks = stencil2d(8, 8, 2.0 * 65_536.0, false);
    let topo = Torus::torus_3d(4, 4, 8);
    let trace = stencil_trace(&tasks, 20, 5_000);
    let mut cfg = NetworkConfig::default().with_bandwidth(300e6);
    cfg.nic = NicModel::PerLink;
    let serial = Parallelism::serial();
    let init = RefineTopoLb::with_parallelism(topolb(serial), serial).map(&tasks, &topo);
    let clean = Simulation::run_with_links(&topo, &cfg, &trace, &init);
    let busiest = (0..clean.links.len())
        .max_by_key(|&i| (clean.acct.busy_ns(i), std::cmp::Reverse(i)))
        .expect("torus has links");
    let sick = clean.links[busiest].from;
    cfg.link_speed_factors = RoutedTopology::neighbors(&topo, sick)
        .into_iter()
        .map(|n| (sick, n, 0.1))
        .collect();
    Case {
        name: "contention/degraded-torus",
        layer: "core.contention.refine",
        tasks,
        topo,
        op: Op::Contention { trace, cfg, init },
        random_hb: None,
    }
}

/// Keys under which the two `simulate` cases record their simulated
/// completion time; the first is also the per-layer metric.
pub const COMPLETION_TOPOLB: &str = "netsim.sim.completion_ms";
pub const COMPLETION_RANDOM: &str = "completion_ms.random";

fn simulate(seed: u64) -> Vec<Case> {
    let tasks = stencil2d(16, 32, STENCIL_BYTES, false);
    let topo = Torus::torus_3d(8, 8, 8);
    let trace = stencil_trace(&tasks, 100, 5_000);
    let mut cfg = NetworkConfig::default().with_bandwidth(100e6);
    cfg.nic = NicModel::PerLink;
    let sim = |name, mapping, completion_key| Case {
        name,
        layer: "netsim.sim.run",
        tasks: tasks.clone(),
        topo: topo.clone(),
        op: Op::Simulate {
            trace: trace.clone(),
            cfg: cfg.clone(),
            mapping,
            completion_key,
        },
        random_hb: None,
    };
    vec![
        sim(
            "sim/topolb",
            topolb(Parallelism::serial()).map(&tasks, &topo),
            COMPLETION_TOPOLB,
        ),
        sim(
            "sim/random",
            RandomMap::new(seed).map(&tasks, &topo),
            COMPLETION_RANDOM,
        ),
        degraded_torus(),
    ]
}

/// The case list of a workload, or `None` for a name that is not one of
/// the five case-list workloads.
pub fn build(workload: &str, seed: u64) -> Option<Vec<Case>> {
    Some(match workload {
        "place_uniform" => place_uniform(seed),
        "place_weighted" => place_weighted(seed),
        "refine" => refine(seed),
        "scale" => scale(seed),
        "simulate" => simulate(seed),
        _ => return None,
    })
}
