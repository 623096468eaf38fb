//! The harness's own span recorder.
//!
//! Spans wrap only calls into the program's public functions, recorded
//! from this crate's files; `topomap::core::obs` stays off. A recorder is
//! an in-memory `Vec` owned by one thread and written out once, when the
//! run ends. When it is off, `enter`/`exit` do nothing, so traced and
//! untraced iterations run the same harness code and differ only by the
//! recording itself: that difference is `bench.trace.overhead_pct`.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One recorded span. `parent` indexes the recorder's span list; `id` is
/// the iteration or request the span belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            on: false,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled the recorder inside a span");
        self.on = on;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str, id: u64) {
        if !self.on {
            return;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &str, id: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "recorder dropped with open spans");
        self.spans
    }
}

/// Concatenate per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// A span's self time: its duration minus the part its children cover.
/// Children of one parent run one after another on one thread, so the
/// covered part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// For every id that has a span named in `names`: the summed self time of
/// those spans, in milliseconds, in ascending id order.
pub fn self_ms_per_id(spans: &[Span], names: &[&str]) -> Vec<f64> {
    let own = self_times_ns(spans);
    let mut per_id = std::collections::BTreeMap::<u64, u64>::new();
    for (s, ns) in spans.iter().zip(own) {
        if names.contains(&s.name.as_str()) {
            *per_id.entry(s.id).or_default() += ns;
        }
    }
    per_id.into_values().map(|ns| ns as f64 / 1e6).collect()
}

/// The trace file written at exit for a traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFile {
    pub workload: String,
    pub seed: u64,
    pub spans: Vec<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, id: u64) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            id,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // case [0,100] -> map [10,70] -> inner [20,30]; case -> score [70,90]
        let spans = vec![
            span("case", 0, 100, None, 1),
            span("map", 10, 70, Some(0), 1),
            span("inner", 20, 30, Some(1), 1),
            span("score", 70, 90, Some(0), 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 10, 20]);
    }

    #[test]
    fn per_id_sums_group_by_id_and_name() {
        let spans = vec![
            span("case", 0, 3_000_000, None, 1),
            span("map", 0, 2_000_000, Some(0), 1),
            span("case", 0, 5_000_000, None, 2),
            span("map", 0, 1_000_000, Some(2), 2),
            span("map", 1_000_000, 4_000_000, Some(2), 2),
        ];
        assert_eq!(self_ms_per_id(&spans, &["map"]), vec![2.0, 4.0]);
        assert_eq!(self_ms_per_id(&spans, &["case"]), vec![1.0, 1.0]);
        assert!(self_ms_per_id(&spans, &["absent"]).is_empty());
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("ignored", 0, || ());
        rec.set_on(true);
        rec.enter("outer", 7);
        rec.span("inner", 7, || ());
        rec.exit();
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("a", 0, 1, None, 0), span("b", 0, 1, Some(0), 0)];
        let b = vec![span("c", 0, 1, None, 1), span("d", 0, 1, Some(0), 1)];
        let m = merge(vec![a, b]);
        assert_eq!(m[3].parent, Some(2));
        assert_eq!(m[1].parent, Some(0));
    }
}
