//! The five subcommands.

use crate::args::Args;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use topomap_core::{metrics, obs, ContentionRefine, Mapping};
use topomap_netsim::{contention_oracle, trace, NetworkConfig, Simulation};
use topomap_serve::server::{self, Bind, ServeConfig};
use topomap_serve::specs;
use topomap_taskgraph::io as tgio;
use topomap_topology::Topology;

/// Boolean (value-less) flags accepted by the subcommands — the single
/// list shared by the dispatcher (`run_inner`) and the tests, so a flag
/// added for one subcommand cannot silently parse differently elsewhere.
pub(crate) const BOOL_FLAGS: &[&str] = &["profile", "refine-contention"];

pub(crate) const USAGE: &str = "\
topomap — topology-aware task mapping (IPDPS'06 reproduction)

USAGE:
  topomap gen      --pattern SPEC [--bytes N] [--seed S] --out FILE
  topomap map      --topology SPEC --tasks FILE --mapper NAME [--seed S]
                   [--init NAME] [--threads auto|N] [--out FILE] [--profile]
                   [--trace-out FILE] [--trace-format json|csv]
                   [--hierarchy A1:A2:... [--hier-dist D1:D2:...]]
  topomap eval     --topology SPEC --tasks FILE --mapping FILE
  topomap simulate --topology SPEC --tasks FILE
                   (--mapping FILE | --init NAME [--seed S])
                   [--iterations N] [--bandwidth-mbps B] [--compute-ns C]
                   [--refine-contention [--sim-iters N] [--threads auto|N]
                    [--out FILE]]
                   [--profile] [--trace-out FILE] [--trace-format json|csv]
  topomap serve    [--host H] [--port P] [--unix PATH] [--workers N]
                   [--queue N] [--cache N] [--threads auto|N]
                   [--deadline-ms MS] [--profile] [--trace-out FILE]
                   [--trace-format json|csv]
  topomap help

SPECS:
  topology: torus:8x8x8 | mesh:4x4 | hypercube:6 | ring:16 | star:9
            | crossbar:8 | fattree:ARITY:LEVELS | dragonfly:GROUPS:ROUTERS
            (at most 16384 processors, e.g. torus:128x128)
  pattern:  stencil2d:16x16 | pstencil2d:8x8 (periodic) | stencil3d:8x8x8
            | leanmd:64 | ring:32 | all2all:16 | butterfly:64 | transpose:8
            | sweep2d:6x6 | tree:32 | random:N:AVGDEG
  mapper:   random | topolb | topolb-first | topolb-third | topocentlb
            | refine | identity | linear | anneal | genetic | hier
            | sfc | sfc-morton | rcb
  threads:  worker threads for the mapper (auto = detect; results are
            identical for every setting)
  init:     warm start. With '--mapper refine', '--init NAME' refines
            NAME's mapping instead of a cold TopoLB run (sfc/rcb save the
            quadratic pass and are fixed points on a matching stencil;
            elsewhere they end 2-81% worse in hop-bytes). With 'simulate
            --refine-contention', '--init NAME' computes the starting
            mapping on the spot instead of loading --mapping.
  hierarchy: --hierarchy 4:8:16 selects the hierarchical mapper (same as
            --mapper hier), decomposing the machine into blocks of 4,
            cabinets of 8x4, ... innermost level first; the product must
            equal the processor count. --hier-dist 1:10:100 pins the
            per-level distances (default: derived from the machine).
            --mapper hier alone auto-chooses the arities.

CONTENTION:
  --refine-contention  after the baseline run, iteratively refine the
            mapping against the simulator itself: find the busiest links,
            try swapping/migrating the task pairs feeding them, keep an
            exchange only when the simulated completion time strictly
            improves (hop-bytes guarded within a slack). Prints the
            refined completion time; --out FILE writes the refined
            mapping. --sim-iters N caps total simulator runs (default
            64). The loop itself is serial; --threads applies to the
            --init mapper only.

OBSERVABILITY:
  --profile            print a span/counter summary after the run
  --trace-out FILE     write the full trace report to FILE
  --trace-format FMT   trace file format: json (default) | csv

SERVE:
  topomap serve runs the persistent mapping daemon (length-prefixed JSON
  frames; see DESIGN.md §9). --port 0 picks an ephemeral port; the bound
  address is printed as 'serving on ADDR'. --unix PATH listens on a
  unix-domain socket instead. --workers bounds concurrent mapping jobs,
  --queue bounds waiting jobs (beyond it clients get Busy), --cache sizes
  the distance-oracle/hierarchy LRUs, --deadline-ms sets a default
  per-request deadline. SIGINT (or a Shutdown request) drains in-flight
  jobs and exits with a stats summary.
";

/// On-disk mapping format.
#[derive(Debug, Serialize, Deserialize)]
struct MappingFile {
    num_procs: usize,
    proc_of_task: Vec<usize>,
}

fn save_json<T: Serialize>(value: &T, path: &str) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    serde_json::to_writer_pretty(std::io::BufWriter::new(f), value)
        .map_err(|e| format!("write {path}: {e}"))
}

/// Read a mapping file and check it places `num_tasks` tasks on
/// `machine`: an error names the file and the first violated condition.
fn load_mapping(path: &str, num_tasks: usize, machine: &dyn Topology) -> Result<Mapping, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mf: MappingFile = serde_json::from_reader(std::io::BufReader::new(f))
        .map_err(|e| format!("parse {path}: {e}"))?;
    let bad = |problem: String| format!("mapping {path}: {problem}");
    let (entries, claimed, procs) = (mf.proc_of_task.len(), mf.num_procs, machine.num_nodes());
    let problem = if entries != num_tasks {
        format!("{entries} entries for {num_tasks} tasks")
    } else if claimed != procs {
        format!("num_procs {claimed} but the machine has {procs}")
    } else {
        return Mapping::try_new(mf.proc_of_task, procs).map_err(bad);
    };
    Err(bad(problem))
}

/// Observability flags shared by `map`, `simulate` and `serve`:
/// `--profile` prints a summary, `--trace-out FILE` writes the full
/// report in `--trace-format` (json|csv). Recording turns on only when
/// at least one of them is requested, so default runs pay a single
/// atomic load.
struct ObsOpts {
    profile: bool,
    trace_out: Option<String>,
    csv: bool,
}

impl ObsOpts {
    fn from_args(args: &Args) -> Result<Self, String> {
        let csv = match args.optional("trace-format").unwrap_or("json") {
            "json" => false,
            "csv" => true,
            other => return Err(format!("flag --trace-format: unknown format '{other}'")),
        };
        Ok(ObsOpts {
            profile: args.flag("profile"),
            trace_out: args.optional("trace-out").map(|s| s.to_string()),
            csv,
        })
    }

    /// Run the command body `f`, recorded if requested; then write the
    /// trace file and append the `--profile` summary to its output.
    fn run(&self, f: impl FnOnce() -> Result<String, String>) -> Result<String, String> {
        if !self.profile && self.trace_out.is_none() {
            return f();
        }
        let (out, report) = obs::record(f);
        let mut out = out?;
        if let Some(path) = &self.trace_out {
            let body = if self.csv {
                report.to_csv()
            } else {
                report.to_json()
            };
            std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))?;
            let _ = writeln!(out, "wrote trace {path}");
        }
        if self.profile {
            let _ = writeln!(out, "\nprofile:\n{}", report.summary());
        }
        Ok(out)
    }
}

/// `topomap gen` — generate a workload task graph and write it as JSON.
pub(crate) fn cmd_gen(args: &Args) -> Result<String, String> {
    let pattern = args.required("pattern")?;
    let bytes: f64 = args.parsed_or("bytes", 1024.0)?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let out = args.required("out")?;
    let g = specs::parse_pattern(pattern, bytes, seed)?;
    tgio::save(&g, out).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} ({} tasks, {} edges, {:.1} KiB per iteration)\n",
        out,
        g.num_tasks(),
        g.num_edges(),
        g.total_comm() / 1024.0
    ))
}

/// `topomap map` — map a task graph onto a machine.
pub(crate) fn cmd_map(args: &Args) -> Result<String, String> {
    let obs_opts = ObsOpts::from_args(args)?;
    let topo_spec = args.required("topology")?;
    let topo = specs::parse_topology(topo_spec)?;
    let tasks = tgio::load(args.required("tasks")?).map_err(|e| e.to_string())?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let par = specs::parse_threads(args.optional("threads").unwrap_or("auto"))?;
    let t = topo.as_topology();
    let mapper = specs::MapperSpec::parse(
        args.optional("mapper"),
        args.optional("init"),
        args.optional("hierarchy"),
        args.optional("hier-dist"),
    )?
    .build_on(topo_spec, t, seed, par)?;
    if tasks.num_tasks() > t.num_nodes() {
        return Err(format!(
            "{} tasks need partitioning onto {} processors first; \
             pre-partition with the library's two_phase pipeline",
            tasks.num_tasks(),
            t.num_nodes()
        ));
    }
    obs_opts.run(|| {
        let mapping = mapper.map(&tasks, t);
        let q = metrics::quality(&tasks, t, &mapping);
        let mut out = String::new();
        let _ = writeln!(out, "mapper:        {}", mapper.name());
        let _ = writeln!(out, "machine:       {}", t.name());
        let _ = writeln!(out, "hops-per-byte: {:.4}", q.hops_per_byte);
        let _ = writeln!(out, "hop-bytes:     {:.1}", q.hop_bytes);
        let _ = writeln!(out, "max dilation:  {}", q.max_dilation);
        if let Some(path) = args.optional("out") {
            save_json(
                &MappingFile {
                    num_procs: t.num_nodes(),
                    proc_of_task: mapping.as_slice().to_vec(),
                },
                path,
            )?;
            let _ = writeln!(out, "wrote {path}");
        }
        Ok(out)
    })
}

/// `topomap eval` — evaluate an existing mapping.
pub(crate) fn cmd_eval(args: &Args) -> Result<String, String> {
    let topo = specs::parse_topology(args.required("topology")?)?;
    let tasks = tgio::load(args.required("tasks")?).map_err(|e| e.to_string())?;
    let t = topo.as_topology();
    let mapping = load_mapping(args.required("mapping")?, tasks.num_tasks(), t)?;
    let q = metrics::quality(&tasks, t, &mapping);
    let mut out = String::new();
    let _ = writeln!(out, "machine:          {}", t.name());
    let _ = writeln!(out, "tasks:            {}", tasks.num_tasks());
    let _ = writeln!(out, "hops-per-byte:    {:.4}", q.hops_per_byte);
    let _ = writeln!(out, "hop-bytes:        {:.1}", q.hop_bytes);
    let _ = writeln!(out, "max dilation:     {}", q.max_dilation);
    let _ = writeln!(out, "median dilation:  {}", q.median_dilation);
    let _ = writeln!(out, "local fraction:   {:.3}", q.local_fraction);
    // Per-link loads when the machine supports routing.
    if let Ok(routed) = topo.as_routed() {
        let ll = metrics::LinkLoads::compute(&tasks, routed, &mapping);
        let _ = writeln!(out, "max link load:    {:.1} bytes", ll.max_load());
        let _ = writeln!(out, "avg link load:    {:.1} bytes", ll.avg_load());
        let _ = writeln!(out, "idle links:       {:.1}%", 100.0 * ll.idle_fraction());
    }
    Ok(out)
}

/// `topomap simulate` — replay the stencil-style trace of the workload
/// through the packet simulator under the given mapping.
pub(crate) fn cmd_simulate(args: &Args) -> Result<String, String> {
    let obs_opts = ObsOpts::from_args(args)?;
    let topo_spec = args.required("topology")?;
    let topo = specs::parse_topology(topo_spec)?;
    let routed = topo.as_routed()?;
    let tasks = tgio::load(args.required("tasks")?).map_err(|e| e.to_string())?;
    let refine_contention = args.flag("refine-contention");
    if !refine_contention {
        if args.optional("sim-iters").is_some() {
            return Err("--sim-iters needs --refine-contention".into());
        }
        if args.optional("out").is_some() {
            return Err(
                "--out needs --refine-contention (plain simulate writes no mapping)".into(),
            );
        }
    }
    let par = specs::parse_threads(args.optional("threads").unwrap_or("auto"))?;
    let sim_iters: usize = args.parsed_or("sim-iters", 64)?;
    if sim_iters < 2 {
        return Err("--sim-iters must be >= 2 (one baseline + one candidate run)".into());
    }
    let mapping = match (args.optional("init"), args.optional("mapping")) {
        (Some(_), Some(_)) => {
            return Err(
                "--init and --mapping are mutually exclusive (the init mapper \
                 produces the starting mapping)"
                    .into(),
            )
        }
        (Some(init_spec), None) => {
            if !refine_contention {
                return Err("--init needs --refine-contention (otherwise run \
                     'topomap map' and pass its --out as --mapping)"
                    .into());
            }
            let seed: u64 = args.parsed_or("seed", 0)?;
            let m = specs::MapperSpec::parse(Some(init_spec), None, None, None)?.build_on(
                topo_spec,
                topo.as_topology(),
                seed,
                par,
            )?;
            if tasks.num_tasks() > routed.num_nodes() {
                return Err(format!(
                    "{} tasks need partitioning onto {} processors first",
                    tasks.num_tasks(),
                    routed.num_nodes()
                ));
            }
            m.map(&tasks, routed)
        }
        (None, _) => load_mapping(
            args.required("mapping")?,
            tasks.num_tasks(),
            topo.as_topology(),
        )?,
    };
    let iterations: usize = args.parsed_or("iterations", 100)?;
    let bandwidth_mbps: f64 = args.parsed_or("bandwidth-mbps", 500.0)?;
    let compute_ns: u64 = args.parsed_or("compute-ns", 5_000)?;

    let tr = trace::stencil_trace(&tasks, iterations, compute_ns);
    tr.check_matched()
        .map_err(|(a, b)| format!("trace mismatch between {a} and {b}"))?;
    let cfg = NetworkConfig::default().with_bandwidth(bandwidth_mbps * 1e6);
    obs_opts.run(|| {
        let s = Simulation::run(routed, &cfg, &tr, &mapping);

        let mut out = String::new();
        let _ = writeln!(out, "machine:            {}", routed.name());
        let _ = writeln!(out, "iterations:         {iterations}");
        let _ = writeln!(out, "bandwidth:          {bandwidth_mbps} MB/s");
        let _ = writeln!(out, "completion:         {:.3} ms", s.completion_ms());
        let _ = writeln!(out, "avg msg latency:    {:.2} us", s.avg_latency_us());
        let _ = writeln!(
            out,
            "p99 msg latency:    {:.2} us",
            s.p99_latency_ns as f64 / 1e3
        );
        let _ = writeln!(out, "avg hops:           {:.3}", s.avg_hops);
        let _ = writeln!(out, "network messages:   {}", s.network_messages);
        let _ = writeln!(out, "max link util:      {:.3}", s.max_link_utilization);

        if refine_contention {
            let refiner = ContentionRefine {
                sim_budget: sim_iters,
                par,
                ..ContentionRefine::default()
            };
            let mut refined = mapping.clone();
            let report = refiner.refine(
                &tasks,
                routed,
                &mut refined,
                contention_oracle(routed, &cfg, &tr),
            );
            let _ = writeln!(
                out,
                "contention refine:  {} iters, {} sims, {} accepted",
                report.iterations, report.sims_run, report.accepted
            );
            let _ = writeln!(
                out,
                "refined completion: {:.3} ms ({:.1}% better)",
                report.final_makespan_ns as f64 / 1e6,
                report.improvement_pct()
            );
            if let Some(path) = args.optional("out") {
                save_json(
                    &MappingFile {
                        num_procs: routed.num_nodes(),
                        proc_of_task: refined.as_slice().to_vec(),
                    },
                    path,
                )?;
                let _ = writeln!(out, "wrote {path}");
            }
        }
        Ok(out)
    })
}

/// Set by the SIGINT handler; polled by the serve loop.
static SIGINT_SEEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    SIGINT_SEEN.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// Install a SIGINT handler without a libc dependency: `signal(2)` is
/// declared directly (std already links libc on unix platforms).
#[cfg(unix)]
fn install_sigint() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint() {}

/// `topomap serve` — run the persistent mapping daemon until SIGINT or
/// a `Shutdown` request, then drain and report stats.
pub(crate) fn cmd_serve(args: &Args) -> Result<String, String> {
    let obs_opts = ObsOpts::from_args(args)?;
    let bind = match args.optional("unix") {
        #[cfg(unix)]
        Some(path) => {
            if args.optional("host").is_some() || args.optional("port").is_some() {
                return Err("--unix and --host/--port are mutually exclusive".into());
            }
            Bind::Unix(std::path::PathBuf::from(path))
        }
        #[cfg(not(unix))]
        Some(_) => return Err("--unix is only supported on unix platforms".into()),
        None => {
            let host = args.optional("host").unwrap_or("127.0.0.1");
            let port: u16 = args.parsed_or("port", 0)?;
            Bind::Tcp(format!("{host}:{port}"))
        }
    };
    let cfg = ServeConfig {
        bind,
        workers: args.parsed_or("workers", 2)?,
        queue_cap: args.parsed_or("queue", 64)?,
        cache_cap: args.parsed_or("cache", 32)?,
        default_deadline_ms: match args.optional("deadline-ms") {
            Some(ms) => Some(
                ms.parse()
                    .map_err(|_| format!("bad --deadline-ms '{ms}'"))?,
            ),
            None => None,
        },
        par: specs::parse_threads(args.optional("threads").unwrap_or("auto"))?,
    };
    if cfg.workers == 0 {
        return Err("--workers must be >= 1".into());
    }

    install_sigint();
    obs_opts.run(|| {
        let handle = server::spawn(cfg).map_err(|e| format!("bind failed: {e}"))?;
        // Printed (and flushed) before blocking so scripts and tests can
        // discover the ephemeral port.
        println!("serving on {}", handle.addr());
        use std::io::Write as _;
        let _ = std::io::stdout().flush();

        while !SIGINT_SEEN.load(std::sync::atomic::Ordering::SeqCst) && !handle.stopping() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let stats = handle.join();

        let mut out = String::new();
        let _ = writeln!(out, "drained; final stats:");
        let _ = writeln!(
            out,
            "  map requests:  {} (ok {}, busy {}, errors {})",
            stats.requests, stats.ok, stats.busy, stats.errors
        );
        let _ = writeln!(
            out,
            "  oracle cache:  {} hits / {} misses ({:.0}% hit rate)",
            stats.oracle_hits,
            stats.oracle_misses,
            100.0 * stats.oracle_hit_rate()
        );
        let _ = writeln!(
            out,
            "  hier cache:    {} hits / {} misses",
            stats.hier_hits, stats.hier_misses
        );
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse(&v.iter().map(|x| x.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("topomap-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn gen_map_eval_simulate_roundtrip() {
        let tasks_path = tmp("tasks.json");
        let map_path = tmp("mapping.json");

        let out = cmd_gen(&args(&[
            "--pattern",
            "stencil2d:4x4",
            "--bytes",
            "2048",
            "--out",
            &tasks_path,
        ]))
        .unwrap();
        assert!(out.contains("16 tasks"));

        let out = cmd_map(&args(&[
            "--topology",
            "torus:4x4",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--out",
            &map_path,
        ]))
        .unwrap();
        assert!(out.contains("hops-per-byte: 1.0000"), "{out}");

        let out = cmd_eval(&args(&[
            "--topology",
            "torus:4x4",
            "--tasks",
            &tasks_path,
            "--mapping",
            &map_path,
        ]))
        .unwrap();
        assert!(out.contains("max dilation:     1"), "{out}");

        let out = cmd_simulate(&args(&[
            "--topology",
            "torus:4x4",
            "--tasks",
            &tasks_path,
            "--mapping",
            &map_path,
            "--iterations",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("completion:"), "{out}");
        assert!(out.contains("avg hops:           1.000"), "{out}");
    }

    #[test]
    fn map_rejects_oversized_workload() {
        let tasks_path = tmp("big.json");
        cmd_gen(&args(&["--pattern", "stencil2d:5x5", "--out", &tasks_path])).unwrap();
        let err = cmd_map(&args(&[
            "--topology",
            "torus:4x4",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
        ]))
        .unwrap_err();
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn simulate_rejects_metric_only_topology() {
        let tasks_path = tmp("ft-tasks.json");
        let map_path = tmp("ft-map.json");
        cmd_gen(&args(&["--pattern", "stencil2d:4x4", "--out", &tasks_path])).unwrap();
        cmd_map(&args(&[
            "--topology",
            "fattree:4:2",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--out",
            &map_path,
        ]))
        .unwrap();
        let err = cmd_simulate(&args(&[
            "--topology",
            "fattree:4:2",
            "--tasks",
            &tasks_path,
            "--mapping",
            &map_path,
        ]))
        .unwrap_err();
        assert!(err.contains("metric-only"), "{err}");
    }

    #[test]
    fn eval_works_on_metric_only_topology_without_link_loads() {
        let tasks_path = tmp("ft2-tasks.json");
        let map_path = tmp("ft2-map.json");
        cmd_gen(&args(&["--pattern", "ring:8", "--out", &tasks_path])).unwrap();
        cmd_map(&args(&[
            "--topology",
            "fattree:2:3",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topocentlb",
            "--out",
            &map_path,
        ]))
        .unwrap();
        let out = cmd_eval(&args(&[
            "--topology",
            "fattree:2:3",
            "--tasks",
            &tasks_path,
            "--mapping",
            &map_path,
        ]))
        .unwrap();
        assert!(out.contains("hops-per-byte"));
        assert!(
            !out.contains("max link load"),
            "no link loads for metric-only"
        );
    }

    #[test]
    fn threads_flag_does_not_change_the_mapping() {
        let tasks_path = tmp("thr-tasks.json");
        cmd_gen(&args(&["--pattern", "stencil2d:4x4", "--out", &tasks_path])).unwrap();
        let run = |threads: &str, path: &str| {
            cmd_map(&args(&[
                "--topology",
                "torus:4x4",
                "--tasks",
                &tasks_path,
                "--mapper",
                "refine",
                "--threads",
                threads,
                "--out",
                path,
            ]))
            .unwrap();
            std::fs::read_to_string(path).unwrap()
        };
        let serial = run("1", &tmp("thr-m1.json"));
        let parallel = run("4", &tmp("thr-m4.json"));
        assert_eq!(serial, parallel);

        let err = cmd_map(&args(&[
            "--topology",
            "torus:4x4",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--threads",
            "zero",
        ]))
        .unwrap_err();
        assert!(err.contains("thread count"), "{err}");
    }

    #[test]
    fn hierarchy_flag_runs_hier_mapper_end_to_end() {
        let tasks_path = tmp("hier-tasks.json");
        let map_path = tmp("hier-map.json");
        cmd_gen(&args(&["--pattern", "stencil2d:8x8", "--out", &tasks_path])).unwrap();
        let out = cmd_map(&args(&[
            "--topology",
            "torus:8x8",
            "--tasks",
            &tasks_path,
            "--hierarchy",
            "4:4:4",
            "--out",
            &map_path,
        ]))
        .unwrap();
        assert!(out.contains("HierMapper(4:4:4)"), "{out}");
        assert!(out.contains("hops-per-byte: 1.0000"), "{out}");
        // `--mapper hier` with no --hierarchy auto-chooses the arities.
        let out = cmd_map(&args(&[
            "--topology",
            "torus:8x8",
            "--tasks",
            &tasks_path,
            "--mapper",
            "hier",
        ]))
        .unwrap();
        assert!(out.contains("HierMapper("), "{out}");

        // Malformed spec surfaces the parser's message.
        let err = cmd_map(&args(&[
            "--topology",
            "torus:8x8",
            "--tasks",
            &tasks_path,
            "--hierarchy",
            "4:0:8",
        ]))
        .unwrap_err();
        assert!(err.contains("zero children"), "{err}");
        // Conflicting --mapper is rejected, as is a dangling --hier-dist.
        let err = cmd_map(&args(&[
            "--topology",
            "torus:8x8",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--hierarchy",
            "4:4:4",
        ]))
        .unwrap_err();
        assert!(err.contains("drop mapper 'topolb'"), "{err}");
        let err = cmd_map(&args(&[
            "--topology",
            "torus:8x8",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--hier-dist",
            "1:2:3",
        ]))
        .unwrap_err();
        assert!(err.contains("hier-dist needs a hierarchy"), "{err}");
    }

    #[test]
    fn geometric_mappers_and_warm_start_run_end_to_end() {
        let tasks_path = tmp("geom-tasks.json");
        cmd_gen(&args(&["--pattern", "stencil2d:8x8", "--out", &tasks_path])).unwrap();
        // SFC on a matching torus embeds perfectly.
        for mapper in ["sfc", "sfc-morton", "rcb"] {
            let out = cmd_map(&args(&[
                "--topology",
                "torus:8x8",
                "--tasks",
                &tasks_path,
                "--mapper",
                mapper,
            ]))
            .unwrap();
            assert!(out.contains("hops-per-byte"), "{mapper}: {out}");
        }
        // Warm-started refine reports the init in its name.
        let out = cmd_map(&args(&[
            "--topology",
            "torus:8x8",
            "--tasks",
            &tasks_path,
            "--mapper",
            "refine",
            "--init",
            "sfc",
        ]))
        .unwrap();
        assert!(out.contains("SFC(Hilbert)+Refine"), "{out}");
        assert!(out.contains("hops-per-byte: 1.0000"), "{out}");
        // --init outside refine is rejected.
        let err = cmd_map(&args(&[
            "--topology",
            "torus:8x8",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--init",
            "sfc",
        ]))
        .unwrap_err();
        assert!(err.contains("refine"), "{err}");
    }

    #[test]
    fn simulate_init_computes_starting_mapping() {
        let tasks_path = tmp("sim-init-tasks.json");
        cmd_gen(&args(&[
            "--pattern",
            "stencil2d:4x4",
            "--bytes",
            "65536",
            "--out",
            &tasks_path,
        ]))
        .unwrap();
        let base = [
            "--topology",
            "torus:4x4",
            "--tasks",
            tasks_path.as_str(),
            "--init",
            "sfc",
        ];
        // --init without --refine-contention is rejected.
        let err = cmd_simulate(&args(&base)).unwrap_err();
        assert!(err.contains("--refine-contention"), "{err}");
        // With it, the warm start feeds the contention loop directly.
        let mut full = base.to_vec();
        full.extend([
            "--iterations",
            "5",
            "--refine-contention",
            "--sim-iters",
            "8",
        ]);
        let out = cmd_simulate(&args_with_profile(&full)).unwrap();
        assert!(out.contains("contention refine:"), "{out}");
        // Every mapper name is an init, `hier` (auto arities over the
        // machine) included: one table, not a second name list.
        let hier: Vec<&str> = full
            .iter()
            .map(|&a| if a == "sfc" { "hier" } else { a })
            .collect();
        let out = cmd_simulate(&args_with_profile(&hier)).unwrap();
        assert!(out.contains("avg hops:           1.000"), "{out}");
        // --init and --mapping together are rejected.
        let mut both = base.to_vec();
        both.extend(["--mapping", "/tmp/nope.json", "--refine-contention"]);
        let err = cmd_simulate(&args_with_profile(&both)).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn usage_lists_every_mapper() {
        let mappers = USAGE
            .split_once("  mapper:")
            .and_then(|(_, rest)| rest.split_once("  threads:"))
            .expect("USAGE has a mapper section")
            .0;
        let listed: Vec<&str> = mappers.split('|').map(str::trim).collect();
        assert_eq!(listed, specs::MapperSpec::NAMES);
    }

    #[test]
    fn missing_flags_are_reported() {
        assert!(cmd_gen(&args(&["--out", "/tmp/x"])).is_err());
        assert!(cmd_map(&args(&["--topology", "torus:2x2"])).is_err());
    }

    fn args_with_profile(v: &[&str]) -> Args {
        Args::parse_with_flags(
            &v.iter().map(|x| x.to_string()).collect::<Vec<_>>(),
            BOOL_FLAGS,
        )
        .unwrap()
    }

    #[test]
    fn unknown_trace_format_is_rejected() {
        let err = cmd_map(&args(&[
            "--topology",
            "torus:2x2",
            "--tasks",
            "unused.json",
            "--mapper",
            "topolb",
            "--trace-format",
            "xml",
        ]))
        .unwrap_err();
        assert!(err.contains("trace-format"), "{err}");
    }

    #[test]
    fn simulate_refine_contention_end_to_end() {
        let tasks_path = tmp("cont-tasks.json");
        let map_path = tmp("cont-map.json");
        let refined_path = tmp("cont-refined.json");
        cmd_gen(&args(&[
            "--pattern",
            "stencil2d:4x4",
            "--bytes",
            "65536",
            "--out",
            &tasks_path,
        ]))
        .unwrap();
        cmd_map(&args(&[
            "--topology",
            "dragonfly:4:8",
            "--tasks",
            &tasks_path,
            "--mapper",
            "random",
            "--seed",
            "7",
            "--out",
            &map_path,
        ]))
        .unwrap();
        let out = cmd_simulate(&args_with_profile(&[
            "--topology",
            "dragonfly:4:8",
            "--tasks",
            &tasks_path,
            "--mapping",
            &map_path,
            "--iterations",
            "5",
            "--bandwidth-mbps",
            "100",
            "--refine-contention",
            "--sim-iters",
            "24",
            "--threads",
            "2",
            "--out",
            &refined_path,
        ]))
        .unwrap();
        assert!(out.contains("contention refine:"), "{out}");
        assert!(out.contains("refined completion:"), "{out}");
        assert!(out.contains(&format!("wrote {refined_path}")), "{out}");
        // The refined mapping is a valid input to eval/simulate again.
        let out = cmd_eval(&args(&[
            "--topology",
            "dragonfly:4:8",
            "--tasks",
            &tasks_path,
            "--mapping",
            &refined_path,
        ]))
        .unwrap();
        assert!(out.contains("hops-per-byte"), "{out}");
    }

    #[test]
    fn dangling_contention_flags_are_rejected() {
        let tasks_path = tmp("dang-tasks.json");
        let map_path = tmp("dang-map.json");
        cmd_gen(&args(&["--pattern", "stencil2d:4x4", "--out", &tasks_path])).unwrap();
        cmd_map(&args(&[
            "--topology",
            "torus:4x4",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--out",
            &map_path,
        ]))
        .unwrap();
        let base = [
            "--topology",
            "torus:4x4",
            "--tasks",
            tasks_path.as_str(),
            "--mapping",
            map_path.as_str(),
        ];
        let mut with_sim_iters = base.to_vec();
        with_sim_iters.extend(["--sim-iters", "8"]);
        let err = cmd_simulate(&args(&with_sim_iters)).unwrap_err();
        assert!(err.contains("--refine-contention"), "{err}");
        let mut with_out = base.to_vec();
        with_out.extend(["--out", "/tmp/nope.json"]);
        let err = cmd_simulate(&args(&with_out)).unwrap_err();
        assert!(err.contains("--refine-contention"), "{err}");
        let mut bad_budget = base.to_vec();
        bad_budget.extend(["--refine-contention", "--sim-iters", "1"]);
        let err = cmd_simulate(&args_with_profile(&bad_budget)).unwrap_err();
        assert!(err.contains("sim-iters"), "{err}");
    }

    #[test]
    fn map_profile_writes_trace_and_summary() {
        let tasks_path = tmp("prof-tasks.json");
        let trace_json = tmp("prof-trace.json");
        let trace_csv = tmp("prof-trace.csv");
        cmd_gen(&args(&["--pattern", "stencil2d:4x4", "--out", &tasks_path])).unwrap();

        let out = cmd_map(&args_with_profile(&[
            "--topology",
            "torus:4x4",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--profile",
            "--trace-out",
            &trace_json,
        ]))
        .unwrap();
        assert!(out.contains("profile:"), "{out}");
        assert!(out.contains("topolb.map"), "{out}");
        let report =
            obs::Report::from_json(&std::fs::read_to_string(&trace_json).unwrap()).unwrap();
        assert!(report.find_span("topolb.map").is_some());
        // The report holds this run alone, whatever else the binary runs.
        assert_eq!(report.counter("topolb.placements"), Some(16));

        // CSV format writes the line-oriented dump instead.
        cmd_map(&args_with_profile(&[
            "--topology",
            "torus:4x4",
            "--tasks",
            &tasks_path,
            "--mapper",
            "topolb",
            "--trace-out",
            &trace_csv,
            "--trace-format",
            "csv",
        ]))
        .unwrap();
        let csv = std::fs::read_to_string(&trace_csv).unwrap();
        assert!(csv.starts_with("kind,name,a,b"), "{csv}");
        assert!(csv.contains("counter,topolb.placements,"), "{csv}");
    }
}
