//! The topomap benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload NAME [--seed N] [--seconds S] [--trace [0|1]]   one run
//! run.sh [--seed N] [--seconds S] [--trace]                         every workload
//! run.sh --compare A.json B.json                                    two result files
//! ```

mod adapter;
mod cases;
mod metrics;
mod outcome;
mod report;
mod runner;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use outcome::{peak_rss_mb, Outcome};
use report::{Meta, Metric, ResultFile, WorkloadResult};

/// Measured seconds per run when `--seconds` is not given; the driver
/// passes `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
/// Set-up runs at least three times per run and reports the median; a
/// cheap set-up repeats, up to nine times, until 1.5 s have gone into it,
/// so that a 90 ms set-up is not judged on three samples.
const SETUP_REPS: std::ops::RangeInclusive<usize> = 3..=9;
const SETUP_BUDGET_S: f64 = 1.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed takes an integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?
            }
            "--out" => args.out = Some(value("a path")?.into()),
            "--compare" => {
                args.compare = Some((value("two paths")?.into(), value("two paths")?.into()))
            }
            // `--trace`, `--trace 1` and `--trace 0`.
            "--trace" => {
                args.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload '{w}' (one of {})",
                WORKLOADS.join(", ")
            ));
        }
    }
    Ok(args)
}

/// The benchmark's own directory; `run.sh` exports it.
fn bench_dir() -> PathBuf {
    std::env::var_os("TOPOMAP_BENCH_DIR").map_or_else(|| "benchmark".into(), PathBuf::from)
}

/// Set up repeatedly, keeping the last; returns it with the set-up times
/// in seconds. `discard` releases an earlier set-up outside the timer.
fn timed_setup<P>(mut setup: impl FnMut() -> P, mut discard: impl FnMut(P)) -> (P, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let start = Instant::now();
        let prepared = setup();
        times.push(start.elapsed().as_secs_f64());
        let spent: f64 = times.iter().sum();
        let enough = times.len() >= *SETUP_REPS.start() && spent >= SETUP_BUDGET_S;
        if enough || times.len() == *SETUP_REPS.end() {
            return (prepared, times);
        }
        discard(prepared);
    }
}

fn run_workload(workload: &str, args: &Args, out_dir: &Path) -> (Outcome, Vec<f64>) {
    let origin = Instant::now();
    if let Some(kind) = serve::Kind::of(workload) {
        let (prepared, setup_times) = timed_setup(
            || serve::setup(kind, args.seed),
            |earlier| {
                earlier.teardown();
            },
        );
        (
            prepared.run(args.seconds, args.traced, origin, out_dir),
            setup_times,
        )
    } else {
        let (set, setup_times) = timed_setup(
            || runner::setup(workload, args.seed).expect("a case-list workload"),
            drop,
        );
        (set.run(args.seconds, args.traced, origin), setup_times)
    }
}

fn one_workload(workload: &str, args: &Args) -> Result<bool, String> {
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let (outcome, setup_times) = run_workload(workload, args, &out_dir);

    let ops = outcome.op_ms.len();
    let metrics: Vec<Metric> = if args.traced {
        PER_LAYER
            .iter()
            .map(|m| {
                // A layer this workload does not cross spent no time in it.
                let found = outcome.layers.iter().find(|l| l.name == m.name);
                Metric {
                    name: m.name.to_string(),
                    value: found.map_or(0.0, |l| l.value),
                    unit: m.unit.to_string(),
                    samples: found.map_or(0, |l| l.samples as u64),
                }
            })
            .collect()
    } else {
        let value = |name: &str| -> (f64, usize) {
            match name {
                "setup_s" => (stats::median(&setup_times), setup_times.len()),
                "op_ms_p50" => (stats::median(&outcome.op_ms), ops),
                "throughput_ops" => (outcome.ops_ok as f64 / outcome.window_s, ops),
                "hops_per_byte" => (outcome.hops_per_byte, 1),
                "peak_rss_mb" => (peak_rss_mb(), 1),
                other => unreachable!("end-to-end metric {other} has no source"),
            }
        };
        END_TO_END
            .iter()
            .map(|e| {
                let (value, samples) = value(e.name);
                Metric {
                    name: e.name.to_string(),
                    value,
                    unit: e.unit.to_string(),
                    samples: samples as u64,
                }
            })
            .collect()
    };

    let result = WorkloadResult {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        correct: outcome.failed == 0,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics,
        failures: outcome.failures,
    };

    for m in &result.metrics {
        println!(
            "{workload} {} {} {} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(p) = stats::highest_supported_percentile(ops) {
        let tail = stats::percentile(&outcome.op_ms, p);
        println!("{workload} op_ms_p{p} {tail} ms n={ops}");
    }
    println!(
        "{workload} fail_share {} ratio ({} failed of {} attempted)",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    );
    for note in &outcome.notes {
        println!("{workload} note: {note}");
    }
    for why in &result.failures {
        println!("{workload} FAILED: {why}");
    }
    if args.traced {
        let path = out_dir.join(format!("trace_{workload}.json"));
        let file = trace::TraceFile {
            workload: workload.to_string(),
            seed: args.seed,
            spans: outcome.spans,
        };
        report::write_json(&path, &file)?;
    }
    if let Some(path) = &args.out {
        report::write_json(path, &result)?;
    }
    println!("{}", result.driver_line());
    Ok(result.correct)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `[profile.release]` table of the benchmark's manifest, on one line.
fn release_profile(dir: &Path) -> String {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Every workload, each in a process of its own so that `peak_rss_mb` is
/// per workload; then one result file with the meta block.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let dir = bench_dir();
    let out_dir = dir.join("out");
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let part = out_dir.join(format!("run_{workload}.json"));
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .status()
            .map_err(|e| format!("run {workload}: {e}"))?;
        let result: WorkloadResult = report::read_json(&part)
            .map_err(|e| format!("{workload} exited with {status} and left no result: {e}"))?;
        // The part file was only the hand-over from the child process.
        let _ = std::fs::remove_file(&part);
        results.push(result);
    }
    let default_par = adapter::Parallelism::default();
    let file = ResultFile {
        meta: Meta {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
            default_threads: default_par.resolved_threads() as u64,
            topomap_threads_env: std::env::var("TOPOMAP_THREADS").ok(),
            git_revision: command_line("git", &["rev-parse", "HEAD"], &dir),
            rustc: command_line("rustc", &["--version"], &dir),
            profile: release_profile(&dir),
            seed: args.seed,
            host_unit_ms: report::host_unit_ms(),
        },
        results,
    };
    let name = format!(
        "results_{}seed{}.json",
        if args.traced { "traced_" } else { "" },
        args.seed
    );
    let path = args.out.clone().unwrap_or_else(|| out_dir.join(name));
    report::write_json(&path, &file)?;
    println!("wrote {}", path.display());
    Ok(file.results.iter().all(|r| r.correct))
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let spec: report::BenchmarkSpec = report::read_json(&bench_dir().join("../BENCHMARK.json"))?;
    let (a, b): (ResultFile, ResultFile) = (report::read_json(a)?, report::read_json(b)?);
    let (lines, regressions) = report::compare(&spec, &a, &b);
    for line in lines {
        println!("{line}");
    }
    for line in &regressions {
        println!("REGRESSION: {line}");
    }
    Ok(regressions.is_empty())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare_files(a, b),
        (None, Some(workload)) => one_workload(workload, &args),
        (None, None) => all_workloads(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
