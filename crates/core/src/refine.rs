//! RefineTopoLB — the pairwise-swap refiner of §5.2.3.
//!
//! "The refiner swaps tasks between processors to see if hop-bytes are
//! reduced or not. It swaps only when hop-bytes get reduced." Intended to
//! run *after* an initial mapper like TopoLB; the paper reports a further
//! ~12% hop-byte reduction on the LeanMD workloads.
//!
//! This implementation sweeps over all task pairs (and, when processors
//! outnumber tasks, task→free-processor moves), accepting strictly
//! improving exchanges, until a full sweep finds no improvement or the
//! pass limit is hit. Swap gains are evaluated incrementally in O(δ(a) +
//! δ(b)) from the hop-byte definition.
//!
//! Three layers keep the sweep off the quadratic cliff without changing its
//! result:
//!
//! - **Per-edge current lengths** (`EdgeState`): the sweep keeps
//!   `d(P(t), P(j))` for every task-graph edge, refreshed only around the
//!   tasks an accepted exchange moved, so a candidate's delta measures the
//!   *new* position of each edge and reads the old one — half the distance
//!   calls of `swap_delta`, the same f64 operations in the same order.
//!   It also counts, per task, the edges longer than one hop, and the
//!   filter skips a swap of two tasks with none (and every move of such a
//!   task). That skip is exact:
//!   1. the mapping is injective and `distance` is zero only between equal
//!      nodes, so every edge, now or after any exchange, is ≥ 1 hop long;
//!   2. a task with no loose edge has every edge at exactly 1, so each term
//!      of the candidate's delta is `c · (d − 1)` with `d ≥ 1`;
//!   3. builder weights are finite and > 0, so every term and every partial
//!      f64 sum is ≥ 0;
//!   4. hence `delta < −1e-12` cannot hold: the candidate is one the naive
//!      sweep rejects at that moment (a fat-tree, whose shortest distance
//!      is 2, simply never skips).
//!
//!   The stateless `swap_delta` / `move_delta` stay: the naive oracle,
//!   the annealer and ContentionRefine evaluate against mappings no sweep
//!   state follows, and the tests hold the cached kernels to them bit for
//!   bit.
//! - **Dirty-set tracking** (`DirtyTracker`): `swap_delta(a, b)` depends
//!   only on the placements of `{a, b} ∪ N(a) ∪ N(b)`, so an accepted
//!   exchange of `(x, y)` can change the verdict only of candidates whose
//!   relevant set meets `{x, y}` — exactly the tasks whose *epoch* the
//!   tracker bumps. A candidate whose tasks (and, for moves, target
//!   processor) are untouched since the start of the previous pass was
//!   already evaluated there (or skipped by the same argument) against an
//!   identical delta and provably still rejects, so later passes evaluate
//!   only the dirty frontier of the previous pass's accepts.
//! - **Sweep rows** (`Row`): a dirty row `a` with at least `p/4`
//!   partners left tabulates, under the current mapping,
//!   `h[q] = Σ_{j∈N(a)} c_aj · (d(P(j), q) − cur_d[a→j])`, accumulated in
//!   `tasks.neighbors(a)` order from one [`Topology::distances_into`] row
//!   per neighbour, and `da[q] = d(P(a), q)`. A move to a free `q` is then
//!   `h[q]`, and a swap with a non-neighbour `b` is `h[P(b)]` followed by
//!   `b`'s terms read from `da` in `neighbors(b)` order. `distance` is
//!   symmetric (the [`Topology`] contract), so these are the cached
//!   kernels' f64 operations in their order on the same values: the same
//!   bits. A swap with one of `a`'s neighbours skips the shared edge in
//!   both sums and so keeps the cached kernel. The row is dropped on every
//!   accept and rebuilt at the next evaluation that still has `p/4`
//!   partners ahead.
//!
//! Skipped candidates are provably rejecting and evaluated candidates
//! get the naive sweep's deltas bit for bit, in its order, so the accepted
//! exchange sequence — and the final mapping — is bit-identical to the
//! naive full sweep ([`refine_mapping_naive`], the differential-suite
//! oracle). The sweep runs on the calling thread: with a candidate at
//! ≈ δ(b) table loads, no batch of them repays a fork-join round trip.

use crate::obs;
use crate::par::Parallelism;
use crate::{Mapper, Mapping};
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::Topology;

/// Pairwise-swap hop-byte refiner wrapping an inner mapper.
pub struct RefineTopoLb<M> {
    inner: M,
    /// Maximum full sweeps (each sweep covers all task pairs).
    pub max_passes: usize,
}

impl<M: Mapper> RefineTopoLb<M> {
    pub fn new(inner: M) -> Self {
        RefineTopoLb {
            inner,
            max_passes: 8,
        }
    }

    /// [`RefineTopoLb::new`]: the sweep is serial, so `par` is accepted
    /// and ignored (the inner mapper takes its own).
    pub fn with_parallelism(inner: M, _par: Parallelism) -> Self {
        Self::new(inner)
    }
}

/// Change in hop-bytes if tasks `a` and `b` swapped processors
/// (negative = improvement). The `(a,b)` edge itself is unaffected.
pub(crate) fn swap_delta(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    m: &Mapping,
    a: TaskId,
    b: TaskId,
) -> f64 {
    let (pa, pb) = (m.proc_of(a), m.proc_of(b));
    let mut delta = 0.0;
    for (j, c) in tasks.neighbors(a) {
        if j == b {
            continue;
        }
        let pj = m.proc_of(j);
        delta += c * (topo.distance(pb, pj) as f64 - topo.distance(pa, pj) as f64);
    }
    for (j, c) in tasks.neighbors(b) {
        if j == a {
            continue;
        }
        let pj = m.proc_of(j);
        delta += c * (topo.distance(pa, pj) as f64 - topo.distance(pb, pj) as f64);
    }
    delta
}

/// Change in hop-bytes if task `t` moved to the free processor `q`.
pub(crate) fn move_delta(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    m: &Mapping,
    t: TaskId,
    q: usize,
) -> f64 {
    let pt = m.proc_of(t);
    let mut delta = 0.0;
    for (j, c) in tasks.neighbors(t) {
        let pj = m.proc_of(j);
        delta += c * (topo.distance(q, pj) as f64 - topo.distance(pt, pj) as f64);
    }
    delta
}

/// A sweep candidate in serial enumeration order: for each task `a`, all
/// swaps `(a, b)` with `b > a`, then (when `p > n`) all moves `(a, q)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidate {
    Swap(TaskId, TaskId),
    Move(TaskId, usize),
}

/// Whether the serial sweep would accept `c` under the current mapping.
fn improves(tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping, c: Candidate) -> bool {
    match c {
        Candidate::Swap(a, b) => swap_delta(tasks, topo, m, a, b) < -1e-12,
        Candidate::Move(a, q) => {
            m.task_on(q).is_none() && move_delta(tasks, topo, m, a, q) < -1e-12
        }
    }
}

/// What one sweep knows about the current mapping, per adjacency slot of
/// the task graph: slot `off[t] + k` is the `k`-th entry `(j, c)` of
/// `tasks.neighbors(t)`. O(|E| + n); built once per sweep and refreshed
/// only around the tasks an accepted exchange moved.
struct EdgeState {
    off: Vec<usize>,
    /// The slot of `(j → t)`.
    twin: Vec<usize>,
    /// `d(P(t), P(j))` under the current mapping.
    cur_d: Vec<u32>,
    /// Per task: how many of its edges are longer than one hop.
    loose: Vec<u32>,
}

impl EdgeState {
    fn new(tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping) -> Self {
        let n = tasks.num_tasks();
        let mut off = Vec::with_capacity(n + 1);
        off.push(0);
        for t in 0..n {
            off.push(off[t] + tasks.degree(t));
        }
        // Adjacency is symmetric and every list ascending (`TaskGraph`'s
        // invariants), so visiting tasks in ascending order meets each
        // neighbour's list in order too: one cursor per task pairs every
        // slot with its twin in O(|E|).
        let mut next = off.clone();
        let mut twin = Vec::with_capacity(off[n]);
        let mut cur_d = Vec::with_capacity(off[n]);
        let mut loose = vec![0; n];
        for (t, loose_t) in loose.iter_mut().enumerate() {
            let pt = m.proc_of(t);
            for (j, _) in tasks.neighbors(t) {
                twin.push(next[j]);
                next[j] += 1;
                let d = topo.distance(pt, m.proc_of(j));
                cur_d.push(d);
                *loose_t += u32::from(d > 1);
            }
        }
        debug_assert!((0..off[n]).all(|s| twin[s] != s && twin[twin[s]] == s));
        EdgeState {
            off,
            twin,
            cur_d,
            loose,
        }
    }

    /// Current lengths of `t`'s edges, in `tasks.neighbors(t)` order.
    fn lengths(&self, t: TaskId) -> &[u32] {
        &self.cur_d[self.off[t]..self.off[t + 1]]
    }

    /// No edge of `t` is longer than one hop: no exchange can shorten one.
    fn tight(&self, t: TaskId) -> bool {
        self.loose[t] == 0
    }

    /// Re-measure `t`'s edges (and their twins) after `t` changed processor.
    fn refresh(&mut self, tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping, t: TaskId) {
        let pt = m.proc_of(t);
        for (k, (j, _)) in tasks.neighbors(t).enumerate() {
            let slot = self.off[t] + k;
            let d = topo.distance(pt, m.proc_of(j));
            let was = self.cur_d[slot];
            if (d > 1) != (was > 1) {
                for end in [t, j] {
                    if d > 1 {
                        self.loose[end] += 1;
                    } else {
                        self.loose[end] -= 1;
                    }
                }
            }
            self.cur_d[slot] = d;
            self.cur_d[self.twin[slot]] = d;
        }
    }

    /// Apply an accepted candidate to `m` and bring the state up to date.
    fn apply(&mut self, tasks: &TaskGraph, topo: &dyn Topology, m: &mut Mapping, c: Candidate) {
        match c {
            Candidate::Swap(a, b) => {
                m.swap_tasks(a, b);
                self.refresh(tasks, topo, m, a);
                self.refresh(tasks, topo, m, b);
            }
            Candidate::Move(a, q) => {
                m.move_task(a, q);
                self.refresh(tasks, topo, m, a);
            }
        }
    }

    /// [`swap_delta`] with the subtracted term of every edge read from the
    /// state: the same f64 operations in the same order, so the same bits.
    fn swap_delta(
        &self,
        tasks: &TaskGraph,
        topo: &dyn Topology,
        m: &Mapping,
        a: TaskId,
        b: TaskId,
    ) -> f64 {
        let (pa, pb) = (m.proc_of(a), m.proc_of(b));
        let mut delta = 0.0;
        for ((j, c), &d) in tasks.neighbors(a).zip(self.lengths(a)) {
            if j == b {
                continue;
            }
            delta += c * (topo.distance(pb, m.proc_of(j)) as f64 - d as f64);
        }
        for ((j, c), &d) in tasks.neighbors(b).zip(self.lengths(b)) {
            if j == a {
                continue;
            }
            delta += c * (topo.distance(pa, m.proc_of(j)) as f64 - d as f64);
        }
        delta
    }

    /// [`move_delta`], likewise.
    fn move_delta(
        &self,
        tasks: &TaskGraph,
        topo: &dyn Topology,
        m: &Mapping,
        t: TaskId,
        q: usize,
    ) -> f64 {
        let mut delta = 0.0;
        for ((j, c), &d) in tasks.neighbors(t).zip(self.lengths(t)) {
            delta += c * (topo.distance(q, m.proc_of(j)) as f64 - d as f64);
        }
        delta
    }
}

/// One sweep row's tables (module doc): `h` and `da` for the row task
/// `a`, valid under the mapping they were built from.
struct Row {
    /// Every processor, the targets of each row gather.
    nodes: Vec<usize>,
    /// Scratch: one neighbour's distance row.
    dj: Vec<u32>,
    h: Vec<f64>,
    da: Vec<u32>,
    /// `stamp[j] == a` iff `j ∈ N(a)` for the task `a` last built.
    stamp: Vec<usize>,
}

impl Row {
    fn new(n: usize, p: usize) -> Self {
        Row {
            nodes: (0..p).collect(),
            dj: Vec::with_capacity(p),
            h: vec![0.0; p],
            da: Vec::with_capacity(p),
            stamp: vec![usize::MAX; n],
        }
    }

    /// Tabulate row `a` under `m`: `(δa + 1) · p` table reads.
    fn build(
        &mut self,
        tasks: &TaskGraph,
        topo: &dyn Topology,
        m: &Mapping,
        state: &EdgeState,
        a: TaskId,
    ) {
        self.h.fill(0.0);
        for ((j, c), &d) in tasks.neighbors(a).zip(state.lengths(a)) {
            self.stamp[j] = a;
            topo.distances_into(m.proc_of(j), &self.nodes, &mut self.dj);
            let d = d as f64;
            for (h, &dq) in self.h.iter_mut().zip(&self.dj) {
                *h += c * (dq as f64 - d);
            }
        }
        topo.distances_into(m.proc_of(a), &self.nodes, &mut self.da);
    }

    /// Whether `b` is a neighbour of the row task `a`.
    fn adjacent(&self, a: TaskId, b: TaskId) -> bool {
        self.stamp[b] == a
    }

    /// [`EdgeState::swap_delta`] of the row task and a non-neighbour `b`.
    fn swap_delta(&self, tasks: &TaskGraph, state: &EdgeState, m: &Mapping, b: TaskId) -> f64 {
        let mut delta = self.h[m.proc_of(b)];
        for ((j, c), &d) in tasks.neighbors(b).zip(state.lengths(b)) {
            delta += c * (self.da[m.proc_of(j)] as f64 - d as f64);
        }
        delta
    }
}

/// Epoch bookkeeping for the dirty-set sweep.
///
/// `task_epoch(t)` is the generation of the last accepted exchange whose
/// delta-relevant set `{x, y} ∪ N(x) ∪ N(y)` contained `t`;
/// `proc_epoch(q)` the generation of the last accepted exchange that
/// changed processor `q`'s occupancy (only moves do). A swap candidate
/// `(a, b)` is *clean* w.r.t. a threshold generation `s` iff both task
/// epochs are ≤ `s` — its delta is bit-identical to what it was at any
/// evaluation at generation ≥ `s`. The dirty-set unit tests audit it
/// against a brute-force affected-set computation.
struct DirtyTracker {
    epoch: Vec<u64>,
    proc_epoch: Vec<u64>,
    g: u64,
}

impl DirtyTracker {
    fn new(num_tasks: usize, num_procs: usize) -> Self {
        // Generation 1 with threshold 0 marks everything dirty: the first
        // pass is always a full sweep.
        DirtyTracker {
            epoch: vec![1; num_tasks],
            proc_epoch: vec![1; num_procs],
            g: 1,
        }
    }

    /// Current generation (bumped once per accepted exchange).
    fn generation(&self) -> u64 {
        self.g
    }

    fn task_epoch(&self, t: TaskId) -> u64 {
        self.epoch[t]
    }

    fn proc_epoch(&self, q: usize) -> u64 {
        self.proc_epoch[q]
    }

    /// Record an accepted swap of `a` and `b`: their own deltas and those
    /// of every candidate touching a neighbor changed.
    fn record_swap(&mut self, tasks: &TaskGraph, a: TaskId, b: TaskId) {
        self.g += 1;
        let g = self.g;
        self.epoch[a] = g;
        self.epoch[b] = g;
        for (j, _) in tasks.neighbors(a) {
            self.epoch[j] = g;
        }
        for (j, _) in tasks.neighbors(b) {
            self.epoch[j] = g;
        }
    }

    /// Record an accepted move of `t` from `from_q` to `to_q`: besides
    /// the task epochs, both processors changed occupancy.
    fn record_move(&mut self, tasks: &TaskGraph, t: TaskId, from_q: usize, to_q: usize) {
        self.g += 1;
        let g = self.g;
        self.epoch[t] = g;
        for (j, _) in tasks.neighbors(t) {
            self.epoch[j] = g;
        }
        self.proc_epoch[from_q] = g;
        self.proc_epoch[to_q] = g;
    }
}

/// First entry of the ascending `ids` at or after `from`, or `end`.
fn first_at_or_after(ids: &[usize], from: usize, end: usize) -> usize {
    let i = ids.partition_point(|&t| t < from);
    ids.get(i).copied().unwrap_or(end)
}

/// Refine an existing mapping in place; returns the number of accepted
/// exchanges. Exposed so the refiner can be applied to mappings from any
/// source (e.g. replayed LB databases).
pub fn refine_mapping(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    m: &mut Mapping,
    max_passes: usize,
) -> usize {
    let _sweep_span = obs::span("refine.sweep");
    // Sampled once so the counters emitted at the end are all-or-nothing
    // for this run.
    let prof = obs::enabled();
    let n = tasks.num_tasks();
    let p = topo.num_nodes();
    // A row's partners, in enumeration order: swap partners `b < n`, then
    // (when `p > n`) move targets `q` as `n + q`.
    let end = if p > n { n + p } else { n };

    let mut state = EdgeState::new(tasks, topo, m);
    let mut dirty = DirtyTracker::new(n, p);
    let mut row = Row::new(n, p);
    // Clean threshold: a candidate untouched since the start of the
    // *previous* pass was evaluated (or skipped, inductively) there
    // against a bit-identical delta and still rejects. 0 = nothing clean.
    let mut s: u64 = 0;

    let (mut c_acc, mut c_rej, mut c_skip, mut c_rows) = (0u64, 0u64, 0u64, 0u64);
    let mut passes_run = 0u64;
    for _ in 0..max_passes {
        passes_run += 1;
        let pass_start_g = dirty.generation();
        let accepted_before = c_acc;
        // Ascending dirty partners (tasks, then `n + q` for processors),
        // read only by clean rows to skip clean partners wholesale. An
        // accept dirties the row it happens in, so the list is rebuilt
        // lazily, at the next clean row.
        let mut dirty_ids: Vec<usize> = Vec::new();
        let mut stale = true;
        for a in 0..n {
            let mut row_dirty = dirty.task_epoch(a) > s;
            if !row_dirty && stale {
                dirty_ids.clear();
                dirty_ids.extend((0..n).filter(|&t| dirty.task_epoch(t) > s));
                dirty_ids.extend((n..end).filter(|&k| dirty.proc_epoch(k - n) > s));
                stale = false;
            }
            let mut tight_a = state.tight(a);
            let mut have_row = false;
            let mut k = a + 1;
            loop {
                // A dirty row evaluates against every partner, a clean one
                // only against dirty ones: nothing else can have changed.
                let next = if row_dirty {
                    k
                } else {
                    first_at_or_after(&dirty_ids, k, end)
                };
                c_skip += (next - k) as u64;
                k = next;
                if k >= n && tight_a {
                    c_skip += (end - k) as u64;
                    break;
                }
                if k == end {
                    break;
                }
                if k < n && tight_a && state.tight(k) {
                    c_skip += 1;
                    k += 1;
                    continue;
                }
                if !have_row && row_dirty && 4 * (end - k) >= p {
                    row.build(tasks, topo, m, &state, a);
                    have_row = true;
                    c_rows += 1;
                }
                let (c, delta) = if k < n {
                    let delta = if have_row && !row.adjacent(a, k) {
                        row.swap_delta(tasks, &state, m, k)
                    } else {
                        state.swap_delta(tasks, topo, m, a, k)
                    };
                    (Candidate::Swap(a, k), delta)
                } else {
                    let q = k - n;
                    let delta = if m.task_on(q).is_some() {
                        0.0 // occupied: rejected unevaluated, as the naive sweep does
                    } else if have_row {
                        row.h[q]
                    } else {
                        state.move_delta(tasks, topo, m, a, q)
                    };
                    (Candidate::Move(a, q), delta)
                };
                k += 1;
                if delta >= -1e-12 {
                    c_rej += 1;
                    continue;
                }
                c_acc += 1;
                if prof {
                    obs::series_push("refine.delta_hb", delta);
                }
                match c {
                    Candidate::Swap(a, b) => dirty.record_swap(tasks, a, b),
                    Candidate::Move(a, q) => dirty.record_move(tasks, a, m.proc_of(a), q),
                }
                state.apply(tasks, topo, m, c);
                // The exchange moved `a`: its row is dirty, its looseness
                // may have changed and its tables are stale.
                row_dirty = true;
                tight_a = state.tight(a);
                have_row = false;
                stale = true;
            }
        }
        if c_acc == accepted_before {
            break;
        }
        s = pass_start_g;
    }
    if prof {
        obs::counter_add("refine.candidates_evaluated", c_acc + c_rej);
        obs::counter_add("refine.candidates_skipped", c_skip);
        obs::counter_add("refine.swaps_accepted", c_acc);
        obs::counter_add("refine.swaps_rejected", c_rej);
        obs::counter_add("refine.passes", passes_run);
        obs::counter_add("refine.rows_built", c_rows);
    }
    c_acc as usize
}

/// [`refine_mapping`]. The sweep is serial: `par` is accepted and
/// ignored.
pub fn refine_mapping_with(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    m: &mut Mapping,
    max_passes: usize,
    _par: Parallelism,
) -> usize {
    refine_mapping(tasks, topo, m, max_passes)
}

/// The pre-rewrite semantics: a plain serial full sweep evaluating every
/// candidate in enumeration order, no dirty tracking, no cached state, no
/// obs output. The differential suite pins [`refine_mapping`]
/// bit-identical to this.
#[doc(hidden)]
pub fn refine_mapping_naive(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    m: &mut Mapping,
    max_passes: usize,
) -> usize {
    let n = tasks.num_tasks();
    let p = topo.num_nodes();
    let moves = p > n;
    let mut accepted = 0usize;
    for _ in 0..max_passes {
        let mut improved = false;
        for a in 0..n {
            for b in (a + 1)..n {
                if improves(tasks, topo, m, Candidate::Swap(a, b)) {
                    m.swap_tasks(a, b);
                    accepted += 1;
                    improved = true;
                }
            }
            if moves {
                for q in 0..p {
                    if improves(tasks, topo, m, Candidate::Move(a, q)) {
                        m.move_task(a, q);
                        accepted += 1;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    accepted
}

impl<M: Mapper> Mapper for RefineTopoLb<M> {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let _map_span = obs::span("refine.map");
        let mut m = {
            let _initial_span = obs::span("refine.initial");
            self.inner.map(tasks, topo)
        };
        refine_mapping(tasks, topo, &mut m, self.max_passes);
        m
    }

    fn name(&self) -> String {
        format!("{}+Refine", self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, RandomMap, TopoCentLb, TopoLb};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use topomap_taskgraph::gen;
    use topomap_topology::{CachedTopology, Dragonfly, FatTree, GraphTopology, Hypercube, Torus};

    #[test]
    fn never_increases_hop_bytes() {
        let tasks = gen::random_graph(24, 4.0, 1.0, 100.0, 7);
        let topo = Torus::torus_2d(5, 5);
        let base = RandomMap::new(3).map(&tasks, &topo);
        let before = metrics::hop_bytes(&tasks, &topo, &base);
        let mut refined = base.clone();
        refine_mapping(&tasks, &topo, &mut refined, 8);
        let after = metrics::hop_bytes(&tasks, &topo, &refined);
        assert!(
            after <= before + 1e-9,
            "refine must not worsen: {before} -> {after}"
        );
    }

    #[test]
    fn improves_random_mapping_substantially() {
        let tasks = gen::stencil2d(6, 6, 100.0, false);
        let topo = Torus::torus_2d(6, 6);
        let refined = RefineTopoLb::new(RandomMap::new(11)).map(&tasks, &topo);
        let raw = RandomMap::new(11).map(&tasks, &topo);
        let h_ref = metrics::hops_per_byte(&tasks, &topo, &refined);
        let h_raw = metrics::hops_per_byte(&tasks, &topo, &raw);
        assert!(h_ref < 0.7 * h_raw, "refined {h_ref} vs raw random {h_raw}");
    }

    #[test]
    fn refines_topolb_without_regression() {
        // Paper: RefineTopoLB after TopoLB gives a further reduction.
        let tasks = gen::random_geometric(49, 0.25, 10.0, 100.0, 5);
        let topo = Torus::torus_2d(7, 7);
        let lb = TopoLb::default().map(&tasks, &topo);
        let refined = RefineTopoLb::new(TopoLb::default()).map(&tasks, &topo);
        let h_lb = metrics::hop_bytes(&tasks, &topo, &lb);
        let h_ref = metrics::hop_bytes(&tasks, &topo, &refined);
        assert!(h_ref <= h_lb + 1e-9);
    }

    #[test]
    fn swap_delta_matches_recompute() {
        let tasks = gen::random_graph(12, 3.0, 1.0, 50.0, 2);
        let topo = Torus::torus_2d(4, 3);
        let m = RandomMap::new(1).map(&tasks, &topo);
        for a in 0..12 {
            for b in (a + 1)..12 {
                let predicted = swap_delta(&tasks, &topo, &m, a, b);
                let mut m2 = m.clone();
                m2.swap_tasks(a, b);
                let actual =
                    metrics::hop_bytes(&tasks, &topo, &m2) - metrics::hop_bytes(&tasks, &topo, &m);
                assert!(
                    (predicted - actual).abs() < 1e-6,
                    "swap({a},{b}): predicted {predicted}, actual {actual}"
                );
            }
        }
    }

    #[test]
    fn move_delta_matches_recompute() {
        let tasks = gen::ring(5, 10.0);
        let topo = Torus::torus_2d(3, 3);
        let m = RandomMap::new(4).map(&tasks, &topo);
        for t in 0..5 {
            for q in 0..9 {
                if m.task_on(q).is_some() {
                    continue;
                }
                let predicted = move_delta(&tasks, &topo, &m, t, q);
                let mut m2 = m.clone();
                m2.move_task(t, q);
                let actual =
                    metrics::hop_bytes(&tasks, &topo, &m2) - metrics::hop_bytes(&tasks, &topo, &m);
                assert!((predicted - actual).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn uses_free_processors_when_available() {
        // Two heavily-communicating tasks placed far apart, with free
        // processors in between: moves should pull them together.
        let mut b = topomap_taskgraph::TaskGraph::builder(2);
        b.add_comm(0, 1, 1000.0);
        let tasks = b.build();
        let topo = Torus::mesh_1d(8);
        let mut m = crate::Mapping::new(vec![0, 7], 8);
        refine_mapping(&tasks, &topo, &mut m, 8);
        assert_eq!(
            topo.distance(m.proc_of(0), m.proc_of(1)),
            1,
            "refiner should colocate the pair at distance 1"
        );
    }

    /// Brute-force affected set of swapping (a, b): {a, b} ∪ N(a) ∪ N(b).
    fn affected_set(tasks: &TaskGraph, a: TaskId, b: TaskId) -> Vec<TaskId> {
        let mut set: Vec<TaskId> = vec![a, b];
        set.extend(tasks.neighbors(a).map(|(j, _)| j));
        set.extend(tasks.neighbors(b).map(|(j, _)| j));
        set.sort_unstable();
        set.dedup();
        set
    }

    #[test]
    fn dirty_tracker_matches_bruteforce_affected_sets() {
        // Scripted swap sequence on a graph with varied neighborhoods:
        // after each recorded swap the tasks at the current generation
        // must be exactly the brute-force affected-pairs set.
        let tasks = gen::random_graph(14, 3.0, 1.0, 50.0, 21);
        let mut dirty = DirtyTracker::new(14, 20);
        let script = [(0usize, 5usize), (3, 9), (1, 2), (0, 13), (7, 8), (5, 6)];
        for &(a, b) in &script {
            let before_g = dirty.generation();
            dirty.record_swap(&tasks, a, b);
            assert_eq!(dirty.generation(), before_g + 1);
            let want = affected_set(&tasks, a, b);
            let got: Vec<TaskId> = (0..14)
                .filter(|&t| dirty.task_epoch(t) == dirty.generation())
                .collect();
            assert_eq!(got, want, "dirty set after swap({a},{b})");
            // Swaps never change processor occupancy.
            assert!((0..20).all(|q| dirty.proc_epoch(q) == 1));
        }
        // Against the pre-swap generation as threshold, the swapped pair is
        // dirty and every task outside the last affected set stays clean.
        let s = dirty.generation() - 1;
        assert!(dirty.task_epoch(5) > s && dirty.task_epoch(6) > s);
        let last = affected_set(&tasks, 5, 6);
        let clean: Vec<TaskId> = (0..14).filter(|t| !last.contains(t)).collect();
        assert!(!clean.is_empty());
        assert!(clean.iter().all(|&t| dirty.task_epoch(t) <= s));
    }

    #[test]
    fn dirty_tracker_moves_bump_proc_epochs() {
        let tasks = gen::ring(6, 10.0);
        let mut dirty = DirtyTracker::new(6, 12);
        dirty.record_move(&tasks, 2, 4, 9);
        let g = dirty.generation();
        // Task side: {2} ∪ N(2) = {1, 2, 3}.
        let got: Vec<TaskId> = (0..6).filter(|&t| dirty.task_epoch(t) == g).collect();
        assert_eq!(got, vec![1, 2, 3]);
        // Proc side: exactly the vacated and occupied processors.
        let got_q: Vec<usize> = (0..12).filter(|&q| dirty.proc_epoch(q) == g).collect();
        assert_eq!(got_q, vec![4, 9]);
        // Against the pre-move generation as threshold:
        let s = g - 1;
        assert!(dirty.proc_epoch(9) > s, "dirty target processor");
        assert!(
            dirty.task_epoch(5) <= s && dirty.proc_epoch(7) <= s,
            "clean task, clean target"
        );
    }

    #[test]
    fn dirty_sweep_matches_naive_sweep() {
        // The in-module smoke version of the differential suite: same
        // graphs, the dirty sweep (handed 1 and 4 threads, which it
        // ignores) versus the serial full-enumeration oracle.
        for (seed, n, (rows, cols)) in [(1u64, 24usize, (5usize, 5usize)), (2, 18, (4, 6))] {
            let tasks = gen::random_graph(n, 3.0, 1.0, 100.0, seed);
            let topo = Torus::torus_2d(rows, cols);
            let base = RandomMap::new(seed).map(&tasks, &topo);
            let mut want = base.clone();
            let acc_naive = refine_mapping_naive(&tasks, &topo, &mut want, 8);
            for threads in [1usize, 4] {
                let mut got = base.clone();
                let par = Parallelism::eager(threads);
                let acc = refine_mapping_with(&tasks, &topo, &mut got, 8, par);
                assert_eq!(acc, acc_naive, "accept count (seed {seed}, {threads}t)");
                assert_eq!(got, want, "mapping (seed {seed}, {threads}t)");
            }
        }
    }

    #[test]
    fn row_sweep_matches_naive_sweep_with_moves() {
        // p > n at a size where rows carry the sweep (no benchmark case
        // has free processors): 200 tasks of degree 8 on 256 processors.
        let tasks = gen::random_graph(200, 8.0, 1.0, 100.0, 3);
        let topo = Torus::torus_2d(16, 16);
        for (start, base) in [
            ("random", RandomMap::new(3).map(&tasks, &topo)),
            ("topocentlb", TopoCentLb.map(&tasks, &topo)),
        ] {
            let mut want = base.clone();
            let acc_naive = refine_mapping_naive(&tasks, &topo, &mut want, 8);
            let mut got = base;
            let (acc, report) = obs::record(|| refine_mapping(&tasks, &topo, &mut got, 8));
            assert_eq!(acc, acc_naive, "accept count ({start} start)");
            assert_eq!(got, want, "mapping ({start} start)");
            let rows = report.counter("refine.rows_built").unwrap_or(0);
            assert!(rows > 0, "{start} start never took the row path");
        }
    }

    /// One 16-processor machine per topology family.
    fn families() -> Vec<Box<dyn Topology>> {
        vec![
            Box::new(Torus::torus_2d(4, 4)),
            Box::new(Torus::mesh_2d(4, 4)),
            Box::new(Hypercube::new(4)),
            Box::new(FatTree::new(2, 4)),
            Box::new(Dragonfly::new(4, 4)),
            Box::new(CachedTopology::new(GraphTopology::ring(16))),
        ]
    }

    /// A random exchange the mapping admits: a swap, or (when a processor
    /// is free) a move.
    fn random_exchange(rng: &mut StdRng, m: &Mapping) -> Candidate {
        let n = m.num_tasks();
        let free: Vec<usize> = (0..m.num_procs())
            .filter(|&q| m.task_on(q).is_none())
            .collect();
        if !free.is_empty() && rng.gen_bool(0.5) {
            Candidate::Move(rng.gen_range(0..n), free[rng.gen_range(0..free.len())])
        } else {
            let a = rng.gen_range(0..n);
            let b = (a + rng.gen_range(1..n)) % n;
            Candidate::Swap(a.min(b), a.max(b))
        }
    }

    /// The state against a from-scratch recompute, and its kernels — and a
    /// freshly built row of every task — against the stateless ones on
    /// every swap and every move to a free processor.
    fn audit_edge_state(state: &EdgeState, tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping) {
        let n = tasks.num_tasks();
        for t in 0..n {
            let want: Vec<u32> = tasks
                .neighbors(t)
                .map(|(j, _)| topo.distance(m.proc_of(t), m.proc_of(j)))
                .collect();
            assert_eq!(state.lengths(t), want, "cur_d of task {t}");
            let loose = want.iter().filter(|&&d| d > 1).count();
            assert_eq!(state.loose[t] as usize, loose, "loose[{t}]");
            for (k, (j, _)) in tasks.neighbors(t).enumerate() {
                let back = state.twin[state.off[t] + k] - state.off[j];
                assert_eq!(tasks.neighbors(j).nth(back).map(|e| e.0), Some(t));
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                assert_eq!(
                    state.swap_delta(tasks, topo, m, a, b).to_bits(),
                    swap_delta(tasks, topo, m, a, b).to_bits(),
                    "swap({a},{b}) on {}",
                    topo.name()
                );
            }
            for q in (0..m.num_procs()).filter(|&q| m.task_on(q).is_none()) {
                assert_eq!(
                    state.move_delta(tasks, topo, m, a, q).to_bits(),
                    move_delta(tasks, topo, m, a, q).to_bits(),
                    "move({a},{q}) on {}",
                    topo.name()
                );
            }
        }
        let mut row = Row::new(n, m.num_procs());
        for a in 0..n {
            row.build(tasks, topo, m, state, a);
            for b in (0..n).filter(|&b| b != a) {
                let adjacent = tasks.neighbors(a).any(|(j, _)| j == b);
                assert_eq!(row.adjacent(a, b), adjacent, "stamp of {b} in row {a}");
                if adjacent {
                    continue;
                }
                assert_eq!(
                    row.swap_delta(tasks, state, m, b).to_bits(),
                    swap_delta(tasks, topo, m, a, b).to_bits(),
                    "row swap({a},{b}) on {}",
                    topo.name()
                );
            }
            for q in (0..m.num_procs()).filter(|&q| m.task_on(q).is_none()) {
                assert_eq!(
                    row.h[q].to_bits(),
                    move_delta(tasks, topo, m, a, q).to_bits(),
                    "row move({a},{q}) on {}",
                    topo.name()
                );
            }
        }
    }

    #[test]
    fn edge_state_matches_stateless_kernels_bit_for_bit() {
        // Weighted graphs on every family, p = n and p > n: drive random
        // exchanges through the sweep's own update path and audit the
        // whole state after each.
        for (f, topo) in families().iter().enumerate() {
            let topo = topo.as_ref();
            for n in [16usize, 11] {
                let seed = (16 * f + n) as u64;
                let tasks = gen::random_graph(n, 4.0, 1.0, 100.0, seed);
                let mut m = RandomMap::new(seed).map(&tasks, topo);
                let mut state = EdgeState::new(&tasks, topo, &m);
                let mut rng = StdRng::seed_from_u64(seed);
                audit_edge_state(&state, &tasks, topo, &m);
                for _ in 0..30 {
                    let c = random_exchange(&mut rng, &m);
                    state.apply(&tasks, topo, &mut m, c);
                    audit_edge_state(&state, &tasks, topo, &m);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The looseness skip is exact: from a TopoLB start (many tasks
        /// already tight) through random exchanges, every candidate the
        /// filter would skip has a stateless delta that is not negative,
        /// and the sweep still lands where the naive one does.
        #[test]
        fn looseness_skip_only_drops_rejecting_candidates(
            family in 0usize..6,
            n in 6usize..=16,
            deg in 1.0f64..4.0,
            seed in any::<u64>(),
        ) {
            let topo = families().swap_remove(family);
            let topo = topo.as_ref();
            let tasks = gen::random_graph(n, deg, 1.0, 1000.0, seed);
            let mut m = TopoLb::default().map(&tasks, topo);
            let mut state = EdgeState::new(&tasks, topo, &m);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..8 {
                for a in (0..n).filter(|&a| state.tight(a)) {
                    // Nothing is ever tight on a fat-tree: leaves are ≥ 2 apart.
                    prop_assert!(tasks.degree(a) == 0 || family != 3);
                    for b in ((a + 1)..n).filter(|&b| state.tight(b)) {
                        prop_assert!(swap_delta(&tasks, topo, &m, a, b) >= 0.0, "swap({}, {})", a, b);
                    }
                    for q in (0..16).filter(|&q| m.task_on(q).is_none()) {
                        prop_assert!(move_delta(&tasks, topo, &m, a, q) >= 0.0, "move({}, {})", a, q);
                    }
                }
                let c = random_exchange(&mut rng, &m);
                state.apply(&tasks, topo, &mut m, c);
            }
            let mut want = m.clone();
            let accepted = refine_mapping_naive(&tasks, topo, &mut want, 8);
            prop_assert_eq!(refine_mapping(&tasks, topo, &mut m, 8), accepted);
            prop_assert_eq!(m, want);
        }
    }

    #[test]
    fn name_includes_inner() {
        assert_eq!(RefineTopoLb::new(TopoLb::default()).name(), "TopoLB+Refine");
        assert_eq!(RefineTopoLb::new(TopoCentLb).name(), "TopoCentLB+Refine");
    }
}
