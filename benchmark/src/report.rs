//! Result records: the line the driver reads, the result file a full set
//! of runs writes, and the comparison of two such files.

use serde::{Deserialize, Serialize};
use std::path::Path;

/// One metric of one workload, with the number of samples behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: u64,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

impl WorkloadResult {
    /// The last line of standard output: one JSON object with exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("a string serializes")
}

fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a finite number");
    serde_json::to_string(&x).expect("a number serializes")
}

/// Where and how a set of results was measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Meta {
    pub host_cores: u64,
    /// Thread count `Parallelism::default()` resolves to on this host.
    pub default_threads: u64,
    /// `TOPOMAP_THREADS`, if set.
    pub topomap_threads_env: Option<String>,
    pub git_revision: String,
    pub rustc: String,
    /// The `[profile.release]` table the benchmark was built with.
    pub profile: String,
    pub seed: u64,
    /// Median time of a fixed reference loop that shares no code with the
    /// program; divide by it to compare numbers from different hosts.
    pub host_unit_ms: f64,
}

/// A full set: every workload once, untraced or traced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    pub meta: Meta,
    pub results: Vec<WorkloadResult>,
}

pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

pub fn read_json<T: Deserialize>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// `BENCHMARK.json`, as the driver's contract fixes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEndSpec>,
    pub per_layer: Vec<PerLayerSpec>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerLayerSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// By what share of `a` is `b` worse? Negative when `b` is better.
fn worse_by(spec: &EndToEndSpec, a: f64, b: f64) -> f64 {
    if spec.better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Compare result file `b` against `a`: one line per workload and
/// end-to-end metric, and the lines on which `b` is worse than `a` by more
/// than the metric's bound, is incorrect, or lacks the metric.
pub fn compare(spec: &BenchmarkSpec, a: &ResultFile, b: &ResultFile) -> (Vec<String>, Vec<String>) {
    let mut lines = Vec::new();
    let mut regressions = Vec::new();
    for ra in &a.results {
        let Some(rb) = b.results.iter().find(|r| r.workload == ra.workload) else {
            regressions.push(format!("{}: missing from the second file", ra.workload));
            continue;
        };
        if !rb.correct {
            regressions.push(format!(
                "{}: the second file's run was incorrect",
                rb.workload
            ));
        }
        for e in &spec.end_to_end {
            let (Some(ma), Some(mb)) = (ra.metric(&e.name), rb.metric(&e.name)) else {
                regressions.push(format!("{} {}: missing", ra.workload, e.name));
                continue;
            };
            let worse = worse_by(e, ma.value, mb.value);
            let line = format!(
                "{} {} {} -> {} {} ({:+.2} % worse, bound {:.0} %)",
                ra.workload,
                e.name,
                ma.value,
                mb.value,
                e.unit,
                100.0 * worse,
                100.0 * e.bound
            );
            if worse > e.bound {
                regressions.push(line.clone());
            }
            lines.push(line);
        }
    }
    (lines, regressions)
}

/// Median wall time of a fixed reference loop: an integer hash over 2^22
/// elements, then one sweep over a 64 MB array. It calls nothing in the
/// program, so no optimisation there can move the unit.
pub fn host_unit_ms() -> f64 {
    use std::hint::black_box;
    let mut array = vec![1u64; 8 << 20];
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for i in 0..(1u64 << 22) {
                h = (h ^ i).wrapping_mul(0x0000_0100_0000_01b3);
                h ^= h >> 29;
            }
            for x in array.iter_mut() {
                *x = x.wrapping_add(h);
            }
            black_box(&array);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

    fn spec() -> BenchmarkSpec {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        read_json(&path).expect("BENCHMARK.json parses")
    }

    fn result_file(scale: f64) -> ResultFile {
        let metrics = END_TO_END
            .iter()
            .map(|e| Metric {
                name: e.name.to_string(),
                value: 10.0 * scale,
                unit: e.unit.to_string(),
                samples: 12,
            })
            .collect();
        ResultFile {
            meta: Meta {
                host_cores: 2,
                default_threads: 2,
                topomap_threads_env: None,
                git_revision: "abc".into(),
                rustc: "rustc 1.0".into(),
                profile: "debug = true".into(),
                seed: 1,
                host_unit_ms: 20.5,
            },
            results: vec![WorkloadResult {
                workload: "refine".into(),
                seed: 1,
                seconds: 8.0,
                traced: false,
                correct: true,
                attempted: 3,
                failed: 0,
                metrics,
                failures: vec![],
            }],
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec = spec();
        let names = |v: Vec<&str>| v.into_iter().map(str::to_string).collect::<Vec<_>>();
        assert_eq!(
            spec.workloads
                .iter()
                .map(|w| w.name.clone())
                .collect::<Vec<_>>(),
            names(WORKLOADS.to_vec())
        );
        assert_eq!(
            spec.end_to_end
                .iter()
                .map(|e| (e.name.clone(), e.unit.clone()))
                .collect::<Vec<_>>(),
            END_TO_END
                .iter()
                .map(|e| (e.name.to_string(), e.unit.to_string()))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            spec.per_layer
                .iter()
                .map(|e| (e.name.clone(), e.unit.clone()))
                .collect::<Vec<_>>(),
            PER_LAYER
                .iter()
                .map(|e| (e.name.to_string(), e.unit.to_string()))
                .collect::<Vec<_>>()
        );
        assert!(spec
            .end_to_end
            .iter()
            .all(|e| e.bound > 0.0 && e.bound <= 0.25));
        let direction = |better: &String| better == "lower" || better == "higher";
        assert!(spec.end_to_end.iter().all(|e| direction(&e.better)));
        assert!(spec.per_layer.iter().all(|e| direction(&e.better)));
        assert_eq!(spec.paths, ["benchmark"]);
    }

    #[test]
    fn result_file_round_trips() {
        let file = result_file(1.0);
        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: ResultFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = result_file(1.0).results[0].driver_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 10.0, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn compare_passes_identical_files_and_flags_planted_regressions() {
        let spec = spec();
        let base = result_file(1.0);
        let (lines, regressions) = compare(&spec, &base, &base);
        assert_eq!(lines.len(), END_TO_END.len());
        assert!(regressions.is_empty(), "{regressions:?}");

        // Plant a regression on one metric: past its bound it is flagged,
        // half way to the bound it is not.
        let planted = |name: &str, factor: f64| {
            let mut file = result_file(1.0);
            for m in &mut file.results[0].metrics {
                if m.name == name {
                    m.value *= factor;
                }
            }
            compare(&spec, &base, &file).1
        };
        let bound = |name: &str| {
            spec.end_to_end
                .iter()
                .find(|e| e.name == name)
                .unwrap()
                .bound
        };
        let slower = planted("op_ms_p50", 1.0 + bound("op_ms_p50") + 0.05);
        assert_eq!(slower.len(), 1, "{slower:?}");
        assert!(slower[0].contains("op_ms_p50"));
        assert!(planted("op_ms_p50", 1.0 + bound("op_ms_p50") / 2.0).is_empty());
        // Throughput is better when higher: less of it regresses, more
        // does not.
        let starved = planted("throughput_ops", 1.0 - bound("throughput_ops") - 0.05);
        assert_eq!(starved.len(), 1, "{starved:?}");
        assert!(starved[0].contains("throughput_ops"));
        assert!(planted("throughput_ops", 2.0).is_empty());

        let mut wrong = result_file(1.0);
        wrong.results[0].correct = false;
        assert!(!compare(&spec, &base, &wrong).1.is_empty());
    }
}
