//! The runner: one function per `Measure`, each emitting flat records.
//!
//! Everything runs under `Parallelism::default()` (the `TOPOMAP_THREADS`
//! environment variable reaches it); no mapper's result depends on it.

use crate::cases::{self, Case, Measure, Scale, Workload, CASES};
use crate::Record;
use std::time::Instant;
use topomap_core::refine::{refine_mapping, MAX_PASSES};
use topomap_core::{metrics, ContentionRefine, Mapper, Mapping, Parallelism};
use topomap_netsim::config::{NicModel, RoutingMode};
use topomap_netsim::{bluegene, contention_oracle, trace, NetworkConfig, Simulation, Trace};
use topomap_serve::specs::{parse_pattern, parse_topology, MapperSpec, ParsedTopology};
use topomap_taskgraph::{stats::graph_stats, TaskGraph};
use topomap_topology::{RoutedTopology, Topology};

/// Run every case of experiment `exp` at `scale`.
pub fn run(exp: &str, scale: Scale) -> Vec<Record> {
    let mut out = Vec::new();
    for case in cases::of(exp) {
        run_case(case, scale, &mut out);
    }
    out
}

/// Run every case, with one progress line per case on stderr.
pub fn run_all(scale: Scale) -> Vec<Record> {
    let mut out = Vec::new();
    for case in CASES {
        let (t0, before) = (Instant::now(), out.len());
        run_case(case, scale, &mut out);
        let (records, secs) = (out.len() - before, t0.elapsed().as_secs_f64());
        eprintln!(
            "[matrix] {:<12} {records:>4} records {secs:>6.1} s",
            case.exp
        );
    }
    out
}

/// One `(workload, machine, message size)` of a case.
struct Instance<'a> {
    case: &'a Case,
    scale: Scale,
    machine: &'a str,
    parsed: &'a ParsedTopology,
    tasks: &'a TaskGraph,
    /// The key columns every record of the instance shares.
    base: Record,
}

fn run_case(case: &Case, scale: Scale, out: &mut Vec<Record>) {
    let broken = |e: String| -> ! { panic!("CASES {}: {e}", case.exp) };
    for (_, workload, machine) in case.sizes.iter().filter(|size| size.0 <= scale) {
        let parsed = parse_topology(machine).unwrap_or_else(|e| broken(e));
        for &bytes in case.bytes {
            let (pattern, tasks) = match workload {
                Workload::Built(label, build) => (*label, build()),
                Workload::Spec(spec) => {
                    let tasks = parse_pattern(spec, bytes, case.gen_seed);
                    (*spec, tasks.unwrap_or_else(|e| broken(e)))
                }
            };
            let row = match case.bytes.len() {
                1 => parsed.as_topology().num_nodes().to_string(),
                _ => bytes.to_string(),
            };
            let base = Record {
                exp: case.exp.into(),
                row,
                pattern: pattern.into(),
                machine: (*machine).into(),
                tasks: tasks.num_tasks() as f64,
                degree: graph_stats(&tasks).avg_degree,
                ..Record::default()
            };
            let (parsed, tasks) = (&parsed, &tasks);
            let inst = Instance {
                case,
                scale,
                machine,
                parsed,
                tasks,
                base,
            };
            match case.measure {
                Measure::Score => inst.score(tasks, &inst.base, out),
                Measure::Simulate => inst.simulate(out),
                Measure::RefinePasses => inst.refine_passes(out),
                Measure::Coalesce => inst.coalesce(out),
                Measure::Contention => inst.contention(out),
            }
        }
    }
}

/// `NAME` or `refine --init NAME` through the one mapper table.
fn spec_of(entry: &str) -> MapperSpec {
    let (name, init) = match entry.split_once(" --init ") {
        Some((name, init)) => (name, Some(init)),
        None => (entry, None),
    };
    let spec = MapperSpec::parse(Some(name), init, None, None);
    spec.unwrap_or_else(|e| panic!("CASES mapper '{entry}': {e}"))
}

impl Case {
    fn network(&self, mbs: Option<f64>, routing: RoutingMode) -> NetworkConfig {
        let mut cfg = match self.bgl {
            true => bluegene::bluegene_config(),
            false => NetworkConfig::default(),
        };
        if let Some(mbs) = mbs {
            cfg = cfg.with_bandwidth(mbs * 1e6);
        }
        if self.per_link {
            cfg.nic = NicModel::PerLink;
        }
        cfg.send_overhead_ns = self.send_overhead_ns.unwrap_or(cfg.send_overhead_ns);
        cfg.routing = routing;
        cfg
    }
}

impl Instance<'_> {
    fn topo(&self) -> &dyn Topology {
        self.parsed.as_topology()
    }

    fn mapper(&self, spec: &MapperSpec, seed: u64) -> Box<dyn Mapper> {
        let built = spec.build_on(self.machine, self.topo(), seed, Parallelism::default());
        built.unwrap_or_else(|e| panic!("CASES {} on {}: {e}", self.case.exp, self.machine))
    }

    /// Best of three timed `map` calls (single shots on a shared host
    /// drift by 2×; the floor is the stable statistic), in ms to the
    /// microsecond. One call at test scale, where nothing reads the time.
    fn place(&self, mapper: &dyn Mapper, tasks: &TaskGraph) -> (Mapping, f64) {
        let timed = || {
            let t0 = Instant::now();
            let m = mapper.map(tasks, self.topo());
            (m, (t0.elapsed().as_secs_f64() * 1e6).round() / 1e3)
        };
        let (m, first) = timed();
        let repeats = if self.scale == Scale::Test { 0 } else { 2 };
        (m, (0..repeats).fold(first, |best, _| best.min(timed().1)))
    }

    /// The case's seeds for a mapper that reads its seed, the first one
    /// for the rest (their records would repeat).
    fn seeds(&self, spec: &MapperSpec) -> &[u64] {
        if spec.is_seeded() {
            self.case.seeds
        } else {
            &self.case.seeds[..1]
        }
    }

    /// The machine with its links, and the stencil trace to replay on it.
    fn replay(&self) -> (&dyn RoutedTopology, Trace) {
        let routed = self.parsed.as_routed();
        let routed = routed.unwrap_or_else(|e| panic!("CASES {}: {e}", self.case.exp));
        let iterations = self.case.iterations[self.scale as usize];
        (
            routed,
            trace::stencil_trace(self.tasks, iterations, self.case.compute_ns),
        )
    }

    /// Place and score `tasks` (the instance's graph, or the group graph
    /// [`coalesce`](Self::coalesce) made of it). The seeds of one mapper
    /// are scored as one `hop_bytes_many` batch.
    fn score(&self, tasks: &TaskGraph, base: &Record, out: &mut Vec<Record>) {
        for entry in self.case.mappers {
            let spec = spec_of(entry);
            let seeds = self.seeds(&spec);
            let placed = seeds
                .iter()
                .map(|&s| self.place(&*self.mapper(&spec, s), tasks));
            let (maps, ms): (Vec<Mapping>, Vec<f64>) = placed.unzip();
            let hbs = metrics::hop_bytes_many(tasks, self.topo(), &maps, Parallelism::default());
            for ((seed, map_ms), hop_bytes) in seeds.iter().zip(ms).zip(hbs) {
                out.push(Record {
                    mapper: (*entry).into(),
                    seed: seed.to_string(),
                    hpb: hop_bytes / tasks.total_comm(),
                    map_ms,
                    ..base.clone()
                });
            }
        }
    }

    /// Place once per seed, replay under every bandwidth × routing mode.
    fn simulate(&self, out: &mut Vec<Record>) {
        let (case, (routed, tr)) = (self.case, self.replay());
        let bandwidths: Vec<Option<f64>> = match case.mbs {
            [] => vec![None],
            mbs => mbs.iter().copied().map(Some).collect(),
        };
        for entry in case.mappers {
            let spec = spec_of(entry);
            for &seed in self.seeds(&spec) {
                let m = self.mapper(&spec, seed).map(self.tasks, routed);
                let hpb = metrics::hops_per_byte(self.tasks, routed, &m);
                for &mbs in &bandwidths {
                    for &routing in case.routing {
                        let stats = Simulation::run(routed, &case.network(mbs, routing), &tr, &m);
                        let swept = mbs.filter(|_| case.mbs.len() > 1);
                        out.push(Record {
                            row: swept.map_or(self.base.row.clone(), |mbs| mbs.to_string()),
                            mapper: (*entry).into(),
                            seed: seed.to_string(),
                            variant: match case.routing.len() {
                                1 => String::new(),
                                _ => format!("{routing:?}"),
                            },
                            hpb,
                            completion_ns: stats.completion_ns as f64,
                            avg_latency_ns: stats.avg_latency_ns,
                            ..self.base.clone()
                        });
                    }
                }
            }
        }
    }

    /// Record 0 is the init mapper's placement; record k the mapping after
    /// the k-th sweep, up to RefineTopoLB's limit or a sweep that accepts
    /// nothing — the same exchanges `refine` makes in one call.
    fn refine_passes(&self, out: &mut Vec<Record>) {
        for entry in self.case.mappers {
            let MapperSpec::Refine { init } = spec_of(entry) else {
                panic!(
                    "CASES {}: '{entry}' is not a `refine` mapper",
                    self.case.exp
                );
            };
            let mut m = self
                .mapper(&init, self.case.seeds[0])
                .map(self.tasks, self.topo());
            for pass in 0..=MAX_PASSES {
                let accepts = match pass {
                    0 => 0,
                    _ => refine_mapping(self.tasks, self.topo(), &mut m, 1),
                };
                out.push(Record {
                    mapper: (*entry).into(),
                    hpb: metrics::hops_per_byte(self.tasks, self.topo(), &m),
                    accepts: accepts as f64,
                    passes: pass as f64,
                    ..self.base.clone()
                });
                if pass > 0 && accepts == 0 {
                    break;
                }
            }
        }
    }

    /// The paper's two-phase pipeline, one partition per partitioner so
    /// every mapper sees the identical group graph (§5.1).
    fn coalesce(&self, out: &mut Vec<Record>) {
        for (name, partitioner) in self.case.partitioners {
            let part = partitioner().partition(self.tasks, self.topo().num_nodes());
            let groups = part.coalesce(self.tasks);
            let base = Record {
                variant: (*name).into(),
                degree: graph_stats(&groups).avg_degree,
                edge_cut: part.edge_cut(self.tasks),
                imbalance: part.imbalance_for(self.tasks),
                ..self.base.clone()
            };
            self.score(&groups, &base, out);
        }
    }

    /// The case's (hop-bytes-refining) mapper, then `ContentionRefine`
    /// against the simulator: one record before, one after.
    fn contention(&self, out: &mut Vec<Record>) {
        let (case, (routed, tr)) = (self.case, self.replay());
        let mut cfg = case.network(case.mbs.first().copied(), RoutingMode::Deterministic);
        let entry = case.mappers[0];
        let hb = self
            .mapper(&spec_of(entry), case.seeds[0])
            .map(self.tasks, routed);
        if let Some(factor) = case.degrade {
            let clean = Simulation::run_with_links(routed, &cfg, &tr, &hb);
            let busiest = (0..clean.links.len())
                .max_by_key(|&i| (clean.acct.busy_ns(i), std::cmp::Reverse(i)))
                .expect("a routed machine has links");
            let sick = clean.links[busiest].from;
            let slowed = routed
                .neighbors(sick)
                .into_iter()
                .map(|n| (sick, n, factor));
            cfg.link_speed_factors = slowed.collect();
        }
        let before = Simulation::run(routed, &cfg, &tr, &hb).completion_ns;
        let mut refined = hb.clone();
        let refiner = ContentionRefine {
            max_iters: 24,
            sim_budget: 120,
            ..ContentionRefine::default()
        };
        let oracle = contention_oracle(routed, &cfg, &tr);
        let report = refiner.refine(self.tasks, routed, &mut refined, oracle);
        assert_eq!(
            report.initial_makespan_ns, before,
            "{}: the contention oracle and Simulation::run disagree on the baseline",
            self.machine
        );
        let record = |variant: &str, m: &Mapping, ns: u64| Record {
            mapper: entry.into(),
            variant: variant.into(),
            hpb: metrics::hops_per_byte(self.tasks, routed, m),
            completion_ns: ns as f64,
            ..self.base.clone()
        };
        out.push(record("hop-bytes", &hb, before));
        out.push(Record {
            accepts: report.accepted as f64,
            sims: report.sims_run as f64,
            ..record("contention", &refined, report.final_makespan_ns)
        });
    }
}
