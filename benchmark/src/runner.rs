//! Set-up, measured loop and correctness gate of the case-list workloads.

use std::hint::black_box;
use std::time::Instant;

use crate::adapter::{hop_bytes, Parallelism, Topology};
use crate::cases::{self, mapping_is_valid, Case, Produced, COMPLETION_RANDOM, COMPLETION_TOPOLB};
use crate::metrics::PER_LAYER;
use crate::outcome::{process_cpu_ms, span_layers, trace_overhead_pct, LayerValue, Outcome};
use crate::stats::{geomean, median};
use crate::trace::Recorder;

pub struct CaseSet {
    cases: Vec<Case>,
    /// What each case produced in set-up, at `Parallelism::serial()`:
    /// every later run must produce exactly this.
    expected: Vec<Produced>,
    hops_per_byte: f64,
    /// Checks that failed on the expected outputs themselves.
    setup_failures: Vec<String>,
}

/// Build inputs, initial mappings and expected outputs.
pub fn setup(workload: &str, seed: u64) -> Option<CaseSet> {
    let cases = cases::build(workload, seed)?;
    let mut rec = Recorder::new(Instant::now());
    let mut expected = Vec::new();
    let mut hpb = Vec::new();
    let mut setup_failures = Vec::new();
    for case in &cases {
        let run = case.run(Parallelism::serial(), &mut rec, 0, true);
        if let (Some(random_hb), Some(m)) = (case.random_hb, &run.produced.mapping) {
            let hb = hop_bytes(&case.tasks, &case.topo, m);
            if hb > random_hb {
                setup_failures.push(format!(
                    "{}: hop-bytes {hb} worse than the random baseline {random_hb}",
                    case.name
                ));
            }
        }
        hpb.extend(run.hops_per_byte);
        expected.push(run.produced);
    }
    let count = |key: &str| {
        expected
            .iter()
            .flat_map(|p| &p.counts)
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    };
    if let (Some(smart), Some(random)) = (count(COMPLETION_TOPOLB), count(COMPLETION_RANDOM)) {
        if smart > random {
            setup_failures.push(format!(
                "simulated completion under TopoLB ({smart} ms) exceeds Random ({random} ms)"
            ));
        }
    }
    Some(CaseSet {
        cases,
        expected,
        hops_per_byte: geomean(&hpb),
        setup_failures,
    })
}

struct Iteration {
    /// Summed time inside the measured public calls, ms.
    op_ms: f64,
    /// Wall time of the whole iteration, harness work included, ms.
    wall_ms: f64,
    failures: Vec<String>,
}

impl CaseSet {
    fn iterate(&self, par: Parallelism, rec: &mut Recorder, id: u64, score: bool) -> Iteration {
        let start = Instant::now();
        let mut op_ms = 0.0;
        let mut failures = Vec::new();
        for (case, expected) in self.cases.iter().zip(&self.expected) {
            let run = case.run(par, rec, id, score);
            op_ms += run.ms;
            if let Some(m) = &run.produced.mapping {
                if !mapping_is_valid(m) {
                    failures.push(format!(
                        "{}: mapping out of range or not injective",
                        case.name
                    ));
                }
            }
            if run.produced != *expected {
                failures.push(format!(
                    "{}: output differs from the set-up run (iteration {id}, {} thread(s))",
                    case.name,
                    par.resolved_threads()
                ));
            }
        }
        Iteration {
            op_ms,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            failures,
        }
    }

    /// Run iterations for `seconds`. Untraced: all of it at one thread,
    /// then one checked iteration at the default thread count. Traced:
    /// two thirds at one thread, alternating recorded and unrecorded
    /// iterations, then one third at the default thread count.
    pub fn run(&self, seconds: f64, traced: bool, origin: Instant) -> Outcome {
        let mut out = Outcome {
            hops_per_byte: self.hops_per_byte,
            // The checks on the set-up run count as one operation.
            attempted: 1,
            failed: u64::from(!self.setup_failures.is_empty()),
            failures: self.setup_failures.clone(),
            ..Outcome::default()
        };
        let mut rec = Recorder::new(origin);
        let serial_s = if traced { seconds * 2.0 / 3.0 } else { seconds };
        // Wall time of each serial iteration; in a traced run the odd
        // ones are recorded.
        let mut wall_ms = Vec::new();
        let mut id = 0u64;

        let cpu_before = process_cpu_ms();
        let window = Instant::now();
        // A traced run needs one recorded and one unrecorded iteration.
        while window.elapsed().as_secs_f64() < serial_s || (traced && id < 2) {
            id += 1;
            rec.set_on(traced && id % 2 == 1);
            let it = self.iterate(Parallelism::serial(), &mut rec, id, traced);
            wall_ms.push(it.wall_ms);
            out.op_ms.push(it.op_ms);
            out.ops_ok += u64::from(it.failures.is_empty());
            out.record(it.failures);
        }
        out.window_s = window.elapsed().as_secs_f64();
        out.cpu_ms = process_cpu_ms() - cpu_before;
        rec.set_on(false);

        let auto = Parallelism::default();
        let mut auto_ms = Vec::new();
        let auto_window = Instant::now();
        loop {
            id += 1;
            let it = self.iterate(auto, &mut rec, id, false);
            auto_ms.push(it.op_ms);
            out.record(it.failures);
            if !traced || auto_window.elapsed().as_secs_f64() >= seconds - serial_s {
                break;
            }
        }
        out.notes.push(format!(
            "default parallelism resolves to {} thread(s)",
            auto.resolved_threads()
        ));

        if traced {
            out.spans = rec.into_spans();
            out.layers = self.layers(&out, &wall_ms, &auto_ms);
        }
        out
    }

    fn layers(&self, out: &Outcome, wall_ms: &[f64], auto_ms: &[f64]) -> Vec<LayerValue> {
        let mut layers = span_layers(&out.spans, median);
        // Exact by-products of the cases, summed over one iteration.
        for m in PER_LAYER {
            let values: Vec<f64> = self
                .expected
                .iter()
                .flat_map(|p| &p.counts)
                .filter(|(k, _)| *k == m.name)
                .map(|&(_, v)| v)
                .collect();
            if !values.is_empty() {
                layers.push(LayerValue::new(m.name, values.iter().sum(), 1));
            }
        }
        let layer_ms = |layers: &[LayerValue], name: &str| {
            layers
                .iter()
                .find(|l| l.name == name)
                .map(|l| (l.value, l.samples))
        };
        if let Some((ms, n)) = layer_ms(&layers, "core.topolb.map_ms") {
            let cells: usize = self.cases.iter().map(Case::topolb_cells).sum();
            layers.push(LayerValue::new(
                "core.topolb.ns_per_cell",
                ms * 1e6 / cells as f64,
                n,
            ));
        }
        if let Some((ms, n)) = layer_ms(&layers, "netsim.sim.run_ms") {
            let messages: usize = self.cases.iter().map(Case::sim_messages).sum();
            layers.push(LayerValue::new(
                "netsim.sim.msgs_per_s",
                messages as f64 / (ms / 1e3),
                n,
            ));
        }
        let serial_ms = median(&out.op_ms);
        layers.extend([
            LayerValue::new(
                "topology.torus.distance_ns",
                distance_ns(&self.cases[0].topo),
                DISTANCE_CALLS,
            ),
            LayerValue::new("core.par.auto_ms", median(auto_ms), auto_ms.len()),
            LayerValue::new(
                "core.par.auto_over_t1",
                median(auto_ms) / serial_ms,
                auto_ms.len(),
            ),
            trace_overhead_pct(wall_ms),
            LayerValue::new(
                "bench.process.cpu_ms_per_op",
                out.cpu_ms / out.op_ms.len() as f64,
                out.op_ms.len(),
            ),
        ]);
        layers
    }
}

/// Calls in the fixed distance sweep: 256 passes over 4096 node pairs, so
/// the pairs stay in cache and the calls dominate.
const DISTANCE_CALLS: usize = 1 << 20;

/// Mean cost of one `Topology::distance` call through `&dyn Topology`,
/// the way the mappers call it, in nanoseconds.
fn distance_ns(topo: &dyn Topology) -> f64 {
    let p = topo.num_nodes();
    let pairs: Vec<(usize, usize)> = (0..4096usize)
        .map(|i| ((i * 7919) % p, (i * 104_729 + 13) % p))
        .collect();
    let start = Instant::now();
    let mut sum = 0u64;
    for _ in 0..DISTANCE_CALLS / pairs.len() {
        for &(a, b) in &pairs {
            sum += u64::from(topo.distance(black_box(a), b));
        }
    }
    black_box(sum);
    start.elapsed().as_nanos() as f64 / DISTANCE_CALLS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_a_clean_run_and_counts_an_output_that_differs() {
        let mut set = setup("place_uniform", 1).expect("a case-list workload");
        assert!(set.setup_failures.is_empty(), "{:?}", set.setup_failures);
        let clean = set.run(0.01, false, Instant::now());
        assert_eq!((clean.failed, clean.ops_ok), (0, 1));
        // One serial iteration, one at the default thread count, and the
        // checks on the set-up run.
        assert_eq!(clean.attempted, 3);

        set.expected[0].counts.push(("planted", 1.0));
        let broken = set.run(0.01, false, Instant::now());
        assert_eq!((broken.failed, broken.ops_ok), (2, 0));
        assert!(
            broken.failures[0].contains("output differs"),
            "{:?}",
            broken.failures
        );
    }

    #[test]
    fn traced_run_reports_the_layers_the_workload_crosses() {
        let set = setup("place_uniform", 1).expect("a case-list workload");
        let out = set.run(0.01, true, Instant::now());
        let value = |name: &str| out.layers.iter().find(|l| l.name == name).map(|l| l.value);
        assert!(value("core.topolb.map_ms").unwrap() > 0.0);
        assert!(value("core.topocentlb.map_ms").unwrap() > 0.0);
        assert!(value("bench.trace.overhead_pct").is_some());
        assert_eq!(value("core.refine.sweep_ms"), None);
        // Every case span of a recorded iteration has its layer call and
        // the scoring call as children.
        let cases = out
            .spans
            .iter()
            .filter(|s| s.name.starts_with("case."))
            .count();
        let children = out.spans.iter().filter(|s| s.parent.is_some()).count();
        assert_eq!(children, 2 * cases);
    }
}
