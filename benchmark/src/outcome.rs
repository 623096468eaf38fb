//! What a workload hands back to `main`, and process-level readings.

use crate::metrics::PER_LAYER;
use crate::trace::{self_ms_per_id, Span};

/// One per-layer value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl LayerValue {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Self {
        LayerValue {
            name,
            value,
            samples,
        }
    }
}

/// The per-layer times that are read off spans: for every metric whose
/// spans were recorded, `aggregate` over the ids (iterations or requests)
/// of the summed self time of those spans.
pub fn span_layers(spans: &[Span], aggregate: fn(&[f64]) -> f64) -> Vec<LayerValue> {
    PER_LAYER
        .iter()
        .filter(|m| !m.spans.is_empty())
        .filter_map(|m| {
            let per_id = self_ms_per_id(spans, m.spans);
            (!per_id.is_empty()).then(|| LayerValue::new(m.name, aggregate(&per_id), per_id.len()))
        })
        .collect()
}

/// Samples of a traced window alternate, recorded first: split them and
/// return by how many percent the recorded median exceeds the other.
pub fn trace_overhead_pct(alternating: &[f64]) -> LayerValue {
    let recorded: Vec<f64> = alternating.iter().copied().step_by(2).collect();
    let unrecorded: Vec<f64> = alternating.iter().copied().skip(1).step_by(2).collect();
    LayerValue::new(
        "bench.trace.overhead_pct",
        100.0 * (crate::stats::median(&recorded) / crate::stats::median(&unrecorded) - 1.0),
        recorded.len(),
    )
}

/// The measured window of one workload run.
///
/// An operation is what a caller waits for: one iteration over the case
/// list (mapping and simulate workloads) or one `Client::map` round trip
/// (serve workloads).
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each operation completed inside the window, in ms.
    pub op_ms: Vec<f64>,
    /// Operations that completed and passed every check.
    pub ops_ok: u64,
    /// Length of the measured window in seconds.
    pub window_s: f64,
    /// Process CPU time spent during the window, in ms.
    pub cpu_ms: f64,
    /// Operations attempted, the checks outside the window included.
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong output.
    pub failed: u64,
    /// Why: one line per failed check.
    pub failures: Vec<String>,
    /// Geometric mean of `hops_per_byte` over the workload's mappings.
    pub hops_per_byte: f64,
    /// Per-layer values; filled by a traced run only.
    pub layers: Vec<LayerValue>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// Free-form lines for the human-readable output.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one attempted operation and the checks it failed, if any.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        self.failed += u64::from(!failures.is_empty());
        self.failures.extend(failures);
    }
}

/// A field of `/proc/self/status`, in kB (`VmHWM`, `VmRSS`).
fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").expect("/proc/self/status has VmHWM") / 1024.0
}

/// CPU time (user + system, all threads) this process has used, in ms.
/// `/proc/self/stat` counts in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn process_cpu_ms() -> f64 {
    const MS_PER_TICK: f64 = 10.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (tick() + tick()) * MS_PER_TICK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_readings_are_positive_and_monotone() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_ms();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_ms() >= before + 20.0);
    }
}
