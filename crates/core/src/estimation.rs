//! Estimation functions for TopoLB (§4.3 of the paper), maintained
//! incrementally.
//!
//! During iteration `k` of the mapping algorithm only a *partial* mapping
//! exists. The estimation function `fest(t, p, P)` approximates the
//! contribution of task `t` to the overall hop-bytes if it were placed on
//! free processor `p` now:
//!
//! - **First order** — drop terms for unplaced tasks:
//!   `fest = Σ_{j ∈ assigned} c_tj · d(p, P(j))`.
//! - **Second order** — assume unplaced neighbors land on a uniformly
//!   random processor of the whole machine:
//!   `fest = Σ_{j ∈ assigned} c_tj · d(p, P(j)) + Σ_{j ∈ unassigned} c_tj · avg_Vp(p)`
//!   where `avg_Vp(p) = Σ_q d(p,q)/|Vp|`. This is the order TopoLB ships
//!   with.
//! - **Third order** — assume unplaced neighbors land on a uniformly
//!   random *free* processor: replaces `avg_Vp(p)` with
//!   `avg_Pk(p) = Σ_{q ∈ Pk} d(p,q)/|Pk|`, tracked incrementally. Tighter,
//!   but O(p²) per iteration (O(p³) total), as analyzed in §4.4.
//!
//! ## Incremental-gain structure
//!
//! The original implementation kept a dense `n × p` fest table and
//! rescanned every unassigned task's row after each placement, O(n·p)
//! per placement and O(n²·p) per map. [`EstimationState`] instead
//! maintains gain structure only for the **active frontier** (unassigned
//! tasks with at least one placed neighbor):
//!
//! - Each active task owns a pooled, cache-friendly row of assigned
//!   contributions indexed by *position in the free list* (kept in sync
//!   with the free list's `swap_remove`s), allocated lazily on activation.
//! - A placement triggers one **edge event** per unplaced neighbor of the
//!   placed task: a row update, then a stats fold over the free list.
//! - Every other active task takes the O(1) subtraction fast path (its
//!   fest only lost the entry of the processor just occupied), falling
//!   back to a full refold only when its argmin processor was taken.
//! - Every fold of a row is `fold_row`'s two passes: a branch-free
//!   minimum and striped sum, then a scan of the cache-hot row for the
//!   smallest id at that minimum.
//! - Task selection follows §4.1: while the frontier is non-empty the
//!   max-gain active task wins; otherwise (start of the run or of a new
//!   connected component) the lowest-id virgin task is picked — for virgin
//!   tasks `FAvg ≈ FMin` (exactly equal on vertex-transitive machines), so
//!   their gains carry no signal, are defined as 0, and fall to the
//!   lowest-id tie-break without being materialized at all.
//!
//! Per placement this costs O(δ(t)·F + |active|) for orders one/two
//! instead of O(n·F); initialization drops from O(n·p) to O(n + p).
//! The pre-rewrite full-rescan semantics live on as the differential test
//! oracle in [`crate::estimation_naive`], which implements the *same*
//! selection and floating-point update trajectory naively — the two are
//! bit-identical, see `tests/incremental_equivalence.rs`.

use crate::estimation_uniform::UniEstimationState;
use crate::obs;
use crate::par::{Executor, Parallelism};
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{stats::AvgDistTable, NodeId, Topology};

/// Which approximation of §4.3 to use for unplaced-neighbor terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EstimationOrder {
    /// Ignore unplaced neighbors entirely.
    First,
    /// Unplaced neighbors at the machine-wide average distance (the
    /// paper's production choice).
    #[default]
    Second,
    /// Unplaced neighbors at the average distance over *free* processors.
    Third,
}

impl EstimationOrder {
    pub fn label(self) -> &'static str {
        match self {
            EstimationOrder::First => "first-order",
            EstimationOrder::Second => "second-order",
            EstimationOrder::Third => "third-order",
        }
    }
}

const NONE: usize = usize::MAX;

/// Incrementally maintained estimation structure for one mapping run —
/// the **general** f64 kernel, correct for arbitrary edge weights,
/// topologies and orders. [`EstimationState`] wraps it and swaps in the
/// integer kernel ([`crate::estimation_uniform`]) when
/// `uniform_kernel` detects that the run qualifies.
pub struct GenEstimationState<'a> {
    tasks: &'a TaskGraph,
    topo: &'a dyn Topology,
    order: EstimationOrder,
    p: usize,
    /// Machine-wide average distance table (second order; also seeds the
    /// third order's free-set sums).
    avg_all: AvgDistTable,
    /// Free processors, positionally synced with every row below.
    free: Vec<NodeId>,
    free_pos: Vec<usize>,
    /// `avg_all.avg(free[i])` per position (second-order factor gather).
    avg_free: Vec<f64>,
    /// Σ_{q ∈ free} d(r, q) for each processor r (third order only).
    sum_free: Vec<f64>,
    /// Third-order factor per free-list position, rebuilt each placement.
    factor_free: Vec<f64>,
    unassigned: Vec<TaskId>,
    unassigned_pos: Vec<usize>,
    /// Total edge weight from t to its still-unassigned neighbors.
    unassigned_wgt: Vec<f64>,
    placement: Vec<NodeId>,
    /// The active frontier: unassigned tasks with ≥ 1 placed neighbor.
    active: Vec<TaskId>,
    active_pos: Vec<usize>,
    /// Row pool. `rows[slot][i]` = Σ over placed neighbors j of the owning
    /// task of `c · d(free[i], P(j))`, accumulated in placement order.
    rows: Vec<Vec<f64>>,
    free_slots: Vec<usize>,
    row_slot: Vec<usize>,
    /// Per-active-task FMin value / argmin processor / Σ fest over free.
    fmin: Vec<f64>,
    fmin_proc: Vec<NodeId>,
    fsum: Vec<f64>,
    /// Lowest task id that may still be virgin; advanced past placed
    /// entries on assign (the virgin-selection rule is lowest id first).
    virgin_cursor: usize,
    /// Stamp of the step in which a task last was an edge-event target.
    nbr_stamp: Vec<usize>,
    step: usize,
    /// Scratch for bulk distance queries.
    dist_scratch: Vec<u32>,
    /// `0..p`, the target list for third-order full columns.
    all_ids: Vec<NodeId>,
    /// Fans out the third order's frontier-wide refold, the one step
    /// whose items (whole rows) are independent; nothing else here does.
    exec: Executor,
}

/// Fold `FMin`/argmin/`FSum` over `(fest, proc)` pairs in free-list
/// position order with the lowest-id tie-break — the defining fold, which
/// the naive oracle spells out the same way.
///
/// `FSum` uses a **4-lane striped** accumulation: position `i` adds into
/// lane `i mod 4` and the total is `(s0 + s1) + (s2 + s3)`, a *fixed*
/// floating-point expression. The `(FMin, argmin)` pair is the
/// lexicographic minimum of the `(fest, proc)` multiset — a unique value
/// independent of fold order. Rows fold through [`fold_row`], which
/// computes the same bits in two passes that vectorize; this form remains
/// for the virgin `best_proc` fold, which has no row.
#[inline]
fn fold_stats(iter: impl Iterator<Item = (f64, NodeId)>) -> (f64, NodeId, f64) {
    let mut min = f64::INFINITY;
    let mut argmin = NONE;
    let mut s = [0.0f64; 4];
    for (i, (f, q)) in iter.enumerate() {
        s[i & 3] += f;
        if f < min || (f == min && q < argmin) {
            min = f;
            argmin = q;
        }
    }
    (min, argmin, (s[0] + s[1]) + (s[2] + s[3]))
}

/// [`fold_stats`] over `fest[i] = row[i] + w · fac[i]` with processor
/// `free[i]`, bit for bit, in two passes. Pass 1 keeps the striped sum and
/// a per-lane `if f < m { f } else { m }` minimum — no data-dependent
/// branch, so it vectorizes. Pass 2 rescans the now cache-hot row for the
/// smallest id whose recomputed `fest` equals that minimum (reading ids
/// only in 16-cell chunks that hold such a cell) and returns that cell's
/// own `fest`.
///
/// The pair cannot differ from the fused fold's. NaN fails every `<` and
/// `==`, so it enters neither fold's minimum nor either argmin. `-0.0` and
/// `0.0` compare equal, so both folds pick the smallest id among the cells
/// `==` the numeric minimum and report that cell's value, sign bit
/// included, whichever zero a lane kept. A row is always folded whole by
/// one thread, so no result depends on the thread count. Every row has
/// `row.len()` free positions; `fac` and `free` are at least that long.
fn fold_row(row: &[f64], w: f64, fac: &[f64], free: &[NodeId]) -> (f64, NodeId, f64) {
    let fac = &fac[..row.len()];
    let (mut m, mut s) = ([f64::INFINITY; 4], [0.0f64; 4]);
    let mut lane = |k: usize, r: f64, fq: f64| {
        let f = r + w * fq;
        s[k] += f;
        m[k] = if f < m[k] { f } else { m[k] };
    };
    let (mut rc, mut fc) = (row.chunks_exact(4), fac.chunks_exact(4));
    for (r, fq) in (&mut rc).zip(&mut fc) {
        (0..4).for_each(|k| lane(k, r[k], fq[k]));
    }
    for (k, (&r, &fq)) in rc.remainder().iter().zip(fc.remainder()).enumerate() {
        lane(k, r, fq);
    }
    let min = m[0].min(m[1]).min(m[2].min(m[3]));
    let (mut fmin, mut argmin) = (f64::INFINITY, NONE);
    let mut scan = |at: usize, r: &[f64], fq: &[f64]| {
        for (i, (&r, &fq)) in r.iter().zip(fq).enumerate() {
            let (f, q) = (r + w * fq, free[at + i]);
            if f == min && q < argmin {
                (fmin, argmin) = (f, q);
            }
        }
    };
    for (c, (r, fq)) in row.chunks_exact(16).zip(fac.chunks_exact(16)).enumerate() {
        if (0..16).fold(false, |hit, k| hit | (r[k] + w * fq[k] == min)) {
            scan(16 * c, r, fq);
        }
    }
    let tail = row.len() / 16 * 16;
    scan(tail, &row[tail..], &fac[tail..]);
    (fmin, argmin, (s[0] + s[1]) + (s[2] + s[3]))
}

impl<'a> GenEstimationState<'a> {
    pub fn new(tasks: &'a TaskGraph, topo: &'a dyn Topology, order: EstimationOrder) -> Self {
        Self::with_executor(tasks, topo, order, Executor::new(Parallelism::default()))
    }

    fn with_executor(
        tasks: &'a TaskGraph,
        topo: &'a dyn Topology,
        order: EstimationOrder,
        exec: Executor,
    ) -> Self {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "need at least as many processors as tasks");
        // Covers the distance tables; no initial fest scan exists anymore —
        // the frontier is empty until the first placement.
        let _init_span = obs::span("estimation.init");
        let avg_all = AvgDistTable::new(topo);
        let sum_free: Vec<f64> = match order {
            EstimationOrder::Third => (0..p).map(|r| avg_all.sum(r) as f64).collect(),
            _ => Vec::new(),
        };
        // Third order's positional factor column must exist before the
        // first placement (virgin best_proc folds it).
        let factor_free = match order {
            EstimationOrder::Third => sum_free.iter().map(|&s| s / p as f64).collect(),
            _ => Vec::new(),
        };
        let avg_free = match order {
            EstimationOrder::Second => (0..p).map(|q| avg_all.avg(q)).collect(),
            _ => vec![0.0; p],
        };
        let w: Vec<f64> = (0..n).map(|t| tasks.weighted_degree(t)).collect();
        GenEstimationState {
            tasks,
            topo,
            order,
            p,
            avg_all,
            free: (0..p).collect(),
            free_pos: (0..p).collect(),
            avg_free,
            sum_free,
            factor_free,
            unassigned: (0..n).collect(),
            unassigned_pos: (0..n).collect(),
            unassigned_wgt: w,
            placement: vec![NONE; n],
            active: Vec::new(),
            active_pos: vec![NONE; n],
            rows: Vec::new(),
            free_slots: Vec::new(),
            row_slot: vec![NONE; n],
            fmin: vec![0.0; n],
            fmin_proc: vec![0; n],
            fsum: vec![0.0; n],
            virgin_cursor: 0,
            nbr_stamp: vec![0; n],
            step: 0,
            dist_scratch: Vec::new(),
            all_ids: match order {
                EstimationOrder::Third => (0..p).collect(),
                _ => Vec::new(),
            },
            exec,
        }
    }

    /// The per-byte distance assumed for an unplaced neighbor when the
    /// candidate processor is `q`.
    #[inline]
    fn unplaced_factor(&self, q: NodeId) -> f64 {
        match self.order {
            EstimationOrder::First => 0.0,
            EstimationOrder::Second => self.avg_all.avg(q),
            EstimationOrder::Third => {
                let f = self.free.len();
                if f == 0 {
                    0.0
                } else {
                    self.sum_free[q] / f as f64
                }
            }
        }
    }

    /// The factor at free-list position `i` (gathered, so the hot folds
    /// skip the per-element match).
    #[inline]
    fn factor_at(&self, i: usize) -> f64 {
        match self.order {
            EstimationOrder::First => 0.0,
            EstimationOrder::Second => self.avg_free[i],
            EstimationOrder::Third => self.factor_free[i],
        }
    }

    /// Current `fest(t, q)` for unassigned task `t` and free processor `q`.
    #[inline]
    pub fn fest(&self, t: TaskId, q: NodeId) -> f64 {
        debug_assert!(self.placement[t] == NONE, "task already placed");
        debug_assert!(self.free_pos[q] != NONE, "processor not free");
        let contrib = match self.row_slot[t] {
            NONE => 0.0,
            slot => self.rows[slot][self.free_pos[q]],
        };
        contrib + self.unassigned_wgt[t] * self.unplaced_factor(q)
    }

    /// Is `t` on the active frontier (unassigned with a placed neighbor)?
    /// The maintained `FMin`/`FSum` stats exist only for active tasks.
    #[doc(hidden)]
    pub fn is_active(&self, t: TaskId) -> bool {
        self.row_slot[t] != NONE
    }

    /// The maintained `(FMin, argmin, FSum)` triple of an active task —
    /// exposed for the differential test suite's checkpoint audits.
    #[doc(hidden)]
    pub fn stats(&self, t: TaskId) -> (f64, NodeId, f64) {
        debug_assert!(self.is_active(t));
        (self.fmin[t], self.fmin_proc[t], self.fsum[t])
    }

    /// Gain of placing `t` now: `FAvg(t) − FMin(t)` (Algorithm 1's
    /// criticality measure). Virgin tasks carry no gain signal (§4.1:
    /// `FAvg ≈ FMin` when nothing is placed near them) — their gain is 0.
    #[inline]
    pub fn gain(&self, t: TaskId) -> f64 {
        if self.row_slot[t] == NONE {
            return 0.0;
        }
        let f = self.free.len();
        if f == 0 {
            return 0.0;
        }
        self.fsum[t] / f as f64 - self.fmin[t]
    }

    /// The next task to place: the max-gain frontier task (ties → lowest
    /// id) while the frontier is non-empty; otherwise the lowest-id virgin
    /// task (every virgin's gain is defined 0, so the id tie-break rules).
    pub fn select_task(&self) -> TaskId {
        debug_assert!(!self.unassigned.is_empty());
        if self.active.is_empty() {
            let mut c = self.virgin_cursor;
            while self.placement[c] != NONE {
                c += 1;
            }
            return c;
        }
        let flen = self.free.len() as f64;
        let mut best_t = NONE;
        let mut best_gain = f64::NEG_INFINITY;
        for &t in &self.active {
            let g = self.fsum[t] / flen - self.fmin[t];
            if g > best_gain || (g == best_gain && t < best_t) {
                best_gain = g;
                best_t = t;
            }
        }
        best_t
    }

    /// The free processor where `t` costs least (ties → lowest id). O(1)
    /// for frontier tasks; virgin tasks fold their factor column once.
    #[inline]
    pub fn best_proc(&self, t: TaskId) -> NodeId {
        if self.row_slot[t] != NONE {
            return self.fmin_proc[t];
        }
        let w = self.unassigned_wgt[t];
        let (_, argmin, _) =
            fold_stats((0..self.free.len()).map(|i| (w * self.factor_at(i), self.free[i])));
        argmin
    }

    pub fn num_free(&self) -> usize {
        self.free.len()
    }

    pub fn num_unassigned(&self) -> usize {
        self.unassigned.len()
    }

    pub fn free_procs(&self) -> &[NodeId] {
        &self.free
    }

    pub fn is_free(&self, q: NodeId) -> bool {
        self.free_pos[q] != NONE
    }

    /// `j`'s row slot, and whether `j` just joined the frontier with an
    /// empty pooled row to be written on first touch — the free set only
    /// shrinks, so entries for procs taken later are simply dropped,
    /// never read stale.
    fn activate(&mut self, j: TaskId) -> (usize, bool) {
        if self.row_slot[j] != NONE {
            return (self.row_slot[j], false);
        }
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.rows.push(Vec::new());
            self.rows.len() - 1
        });
        self.row_slot[j] = slot;
        self.active_pos[j] = self.active.len();
        self.active.push(j);
        self.rows[slot].clear();
        (slot, true)
    }

    /// Commit the placement `t → q` and update the frontier structure:
    /// one row update + stats fold per unplaced neighbor of `t` (edge
    /// events), the O(1) subtraction fast path for every other frontier
    /// task, O(p) + a frontier-wide refold for order three.
    pub fn assign(&mut self, t: TaskId, q: NodeId) {
        assert!(self.placement[t] == NONE, "task {t} already placed");
        assert!(self.free_pos[q] != NONE, "processor {q} not free");
        obs::counter_add("estimation.assigns", 1);
        self.placement[t] = q;
        self.step += 1;

        // Retire t from the frontier, releasing its row to the pool.
        if self.row_slot[t] != NONE {
            self.free_slots.push(self.row_slot[t]);
            self.row_slot[t] = NONE;
            let ai = self.active_pos[t];
            let lasta = *self.active.last().unwrap();
            self.active.swap_remove(ai);
            if lasta != t {
                self.active_pos[lasta] = ai;
            }
            self.active_pos[t] = NONE;
        }

        // Remove t from unassigned (swap-remove keeps O(1)).
        let ti = self.unassigned_pos[t];
        let last = *self.unassigned.last().unwrap();
        self.unassigned.swap_remove(ti);
        if last != t {
            self.unassigned_pos[last] = ti;
        }
        self.unassigned_pos[t] = NONE;

        // Advance the virgin cursor past placed entries (amortized O(n)
        // over the whole run).
        while self.virgin_cursor < self.placement.len()
            && self.placement[self.virgin_cursor] != NONE
        {
            self.virgin_cursor += 1;
        }

        // Remove q from the free list. Every live row shrinks at the same
        // position; those shrinks are fused into the passes below.
        let qi = self.free_pos[q];
        let lastq = *self.free.last().unwrap();
        self.free.swap_remove(qi);
        if lastq != q {
            self.free_pos[lastq] = qi;
        }
        self.free_pos[q] = NONE;
        self.avg_free.swap_remove(qi);

        if self.unassigned.is_empty() {
            // The frontier is a subset of the unassigned set, so there are
            // no live rows left to shrink.
            debug_assert!(self.active.is_empty());
            return;
        }
        let flen = self.free.len();

        // Unplaced neighbors of t: their rows gain the c·d(·, q) column
        // and their unassigned weight drops by c (adjacency order).
        let nbrs: Vec<(TaskId, f64)> = self
            .tasks
            .neighbors(t)
            .filter(|&(j, _)| self.placement[j] == NONE)
            .collect();
        for &(j, c) in &nbrs {
            self.unassigned_wgt[j] -= c;
            self.nbr_stamp[j] = self.step;
        }

        if self.order == EstimationOrder::Third {
            for &u in &self.active {
                let s = self.row_slot[u];
                self.rows[s].swap_remove(qi);
            }
            self.assign_third_order(q, &nbrs);
            return;
        }

        // The d(·, q) column over the post-removal free list, one bulk
        // topology query.
        if !nbrs.is_empty() {
            let mut scratch = std::mem::take(&mut self.dist_scratch);
            self.topo.distances_into(q, &self.free, &mut scratch);
            self.dist_scratch = scratch;
        }

        // Subtraction fast path for every frontier task that is not an
        // edge-event target this step: its fest column only lost processor
        // q, so FSum drops by the dropped entry and (FMin, argmin) survive
        // unless the argmin was q. A non-neighbor's row and weight are
        // untouched by the edge events below, so this pass commutes with
        // them and is fused with the row shrink (one pass over the
        // frontier instead of two). Argmin hits are collected there and
        // refolded after it.
        let factor_pre = match self.order {
            EstimationOrder::First => 0.0,
            _ => self.avg_all.avg(q),
        };
        let step = self.step;
        let (mut rescans, mut fast) = (Vec::new(), 0u64);
        for i in 0..self.active.len() {
            let u = self.active[i];
            let s = self.row_slot[u];
            let v = self.rows[s].swap_remove(qi);
            if self.nbr_stamp[u] == step {
                continue; // handled by its edge event below
            }
            if self.fmin_proc[u] == q {
                rescans.push(u);
            } else {
                self.fsum[u] -= v + self.unassigned_wgt[u] * factor_pre;
                fast += 1;
            }
        }
        // `avg_free` is the positional factor column for orders one/two
        // (all-zero for first order); third order exited above.
        for &u in &rescans {
            let row = &self.rows[self.row_slot[u]];
            (self.fmin[u], self.fmin_proc[u], self.fsum[u]) =
                fold_row(row, self.unassigned_wgt[u], &self.avg_free, &self.free);
        }
        obs::counter_add("estimation.fest_incremental", fast);

        // Edge events: the row gains the c·d(·, q) column, then refolds.
        for &(j, c) in &nbrs {
            let (slot, fresh) = self.activate(j);
            let (row, dist) = (&mut self.rows[slot], &self.dist_scratch[..flen]);
            if fresh {
                row.extend(dist.iter().map(|&d| c * d as f64));
            } else {
                for (r, &d) in row.iter_mut().zip(dist) {
                    *r += c * d as f64;
                }
            }
            (self.fmin[j], self.fmin_proc[j], self.fsum[j]) =
                fold_row(row, self.unassigned_wgt[j], &self.avg_free, &self.free);
        }
        obs::counter_add("estimation.row_events", nbrs.len() as u64);
        obs::counter_add(
            "estimation.fest_full_scan",
            (rescans.len() + nbrs.len()) as u64,
        );
        obs::counter_add("estimation.rescan_cells", (rescans.len() * flen) as u64);
        obs::counter_add("estimation.event_cells", (nbrs.len() * flen) as u64);
    }

    /// Third-order tail of [`Self::assign`]: the free-set average changes
    /// for every processor, so after the O(p) column subtraction the whole
    /// frontier refolds (the §4.4 O(p²)-per-iteration bound — unchanged,
    /// but now over the frontier instead of all unassigned tasks).
    fn assign_third_order(&mut self, q: NodeId, nbrs: &[(TaskId, f64)]) {
        let flen = self.free.len();
        let mut scratch = std::mem::take(&mut self.dist_scratch);
        self.topo.distances_into(q, &self.all_ids, &mut scratch);
        self.dist_scratch = scratch;
        for r in 0..self.p {
            self.sum_free[r] -= self.dist_scratch[r] as f64;
        }

        // Row updates per edge event (folds happen frontier-wide below).
        for &(j, c) in nbrs {
            let (slot, fresh) = self.activate(j);
            let (row, dist) = (&mut self.rows[slot], &self.dist_scratch);
            if fresh {
                row.extend(self.free.iter().map(|&r| c * dist[r] as f64));
            } else {
                for (v, &r) in row.iter_mut().zip(&self.free) {
                    *v += c * dist[r] as f64;
                }
            }
        }
        obs::counter_add("estimation.row_events", nbrs.len() as u64);
        obs::counter_add("estimation.event_cells", (nbrs.len() * flen) as u64);

        self.factor_free.clear();
        let fdiv = flen as f64;
        for i in 0..flen {
            self.factor_free.push(self.sum_free[self.free[i]] / fdiv);
        }

        // One item is one frontier row refolded over the free list, 2.5 ns
        // an element (measured 2.3–2.5 at 1024–2048 PEs).
        let this = &*self;
        let row_ns = 5 * (flen + 1) / 2;
        let parts = this.exec.map_chunks(this.active.len(), row_ns, |range| {
            range
                .map(|i| {
                    let u = this.active[i];
                    let row = &this.rows[this.row_slot[u]];
                    let wu = this.unassigned_wgt[u];
                    let (min, argmin, sum) = fold_row(row, wu, &this.factor_free, &this.free);
                    (u, min, argmin, sum)
                })
                .collect::<Vec<_>>()
        });
        obs::counter_add("estimation.fest_full_scan", self.active.len() as u64);
        obs::counter_add("estimation.rescan_cells", (self.active.len() * flen) as u64);
        for chunk in parts {
            for (u, min, argmin, sum) in chunk {
                self.fmin[u] = min;
                self.fmin_proc[u] = argmin;
                self.fsum[u] = sum;
            }
        }
    }

    /// Brute-force fest for validation: recompute from the definition.
    #[cfg(test)]
    fn fest_bruteforce(&self, t: TaskId, q: NodeId) -> f64 {
        let mut v = 0.0;
        for (j, c) in self.tasks.neighbors(t) {
            if self.placement[j] != NONE {
                v += c * self.topo.distance(q, self.placement[j]) as f64;
            } else {
                v += c * self.unplaced_factor(q);
            }
        }
        v
    }
}

/// Detect the uniform-weight integer fast path: `Some((c, K))` when every
/// edge of the task graph carries the same weight `c` (bit-equal, so no
/// rounding judgment is involved) and the unplaced-neighbor factor is the
/// single constant `K` for every processor — always true for the first
/// order (`K = 0`), true for the second order exactly when the machine is
/// distance-regular (`Σ_q d(p, q)` identical for all `p`, an integer
/// comparison — tori, rings, hypercubes qualify; open meshes do not).
/// The third order's factor varies with the shrinking free set, so it
/// never qualifies.
///
/// Both the fast kernel ([`EstimationState`]) and the differential oracle
/// ([`crate::estimation_naive`]) call this one predicate, so the two
/// sides of the equivalence suite always agree on the kernel choice.
pub(crate) fn uniform_kernel(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    order: EstimationOrder,
) -> Option<(f64, f64)> {
    if order == EstimationOrder::Third {
        return None;
    }
    let mut it = tasks.edges();
    let (_, _, c) = it.next()?;
    if !c.is_finite() || c <= 0.0 {
        return None;
    }
    if it.any(|(_, _, w)| w.to_bits() != c.to_bits()) {
        return None;
    }
    let k = match order {
        EstimationOrder::First => 0.0,
        EstimationOrder::Second => {
            let table = AvgDistTable::new(topo);
            let s0 = table.sum(0);
            if (1..topo.num_nodes()).any(|q| table.sum(q) != s0) {
                return None;
            }
            table.avg(0)
        }
        EstimationOrder::Third => unreachable!(),
    };
    Some((c, k))
}

enum Kernel<'a> {
    Gen(GenEstimationState<'a>),
    Uni(UniEstimationState<'a>),
}

/// The estimation structure driving [`crate::TopoLb`]: a facade that
/// picks the right kernel for the run. Uniform-weight graphs on
/// distance-regular machines (orders one/two) run on the exact-integer
/// kernel of [`crate::estimation_uniform`]; everything else runs on the
/// general f64 kernel [`GenEstimationState`]. Both kernels share the
/// selection and placement semantics, and each has a naive oracle twin in
/// [`crate::estimation_naive`] pinned bit-identical by
/// `tests/incremental_equivalence.rs`.
pub struct EstimationState<'a> {
    inner: Kernel<'a>,
}

impl<'a> EstimationState<'a> {
    pub fn new(tasks: &'a TaskGraph, topo: &'a dyn Topology, order: EstimationOrder) -> Self {
        Self::with_parallelism(tasks, topo, order, Parallelism::default())
    }

    pub fn with_parallelism(
        tasks: &'a TaskGraph,
        topo: &'a dyn Topology,
        order: EstimationOrder,
        par: Parallelism,
    ) -> Self {
        // Built before the kernel is picked: `Executor::new` is where a
        // profiled run records its thread configuration, and the integer
        // kernel — which has no region to fan out — would otherwise leave
        // a stencil's profile without it.
        let exec = Executor::new(par);
        let inner = match uniform_kernel(tasks, topo, order) {
            Some((c, k)) => Kernel::Uni(UniEstimationState::new(tasks, topo, c, k)),
            None => Kernel::Gen(GenEstimationState::with_executor(tasks, topo, order, exec)),
        };
        obs::counter_add(
            match inner {
                Kernel::Gen(_) => "estimation.kernel_general",
                Kernel::Uni(_) => "estimation.kernel_uniform_int",
            },
            1,
        );
        EstimationState { inner }
    }

    /// Which kernel this run dispatched to (profiling / test evidence).
    pub fn kernel_label(&self) -> &'static str {
        match &self.inner {
            Kernel::Gen(_) => "general",
            Kernel::Uni(_) => "uniform-int",
        }
    }

    /// Current `fest(t, q)` for unassigned task `t` and free processor `q`.
    #[inline]
    pub fn fest(&self, t: TaskId, q: NodeId) -> f64 {
        match &self.inner {
            Kernel::Gen(g) => g.fest(t, q),
            Kernel::Uni(u) => u.fest(t, q),
        }
    }

    /// Is `t` on the active frontier (unassigned with a placed neighbor)?
    #[doc(hidden)]
    pub fn is_active(&self, t: TaskId) -> bool {
        match &self.inner {
            Kernel::Gen(g) => g.is_active(t),
            Kernel::Uni(u) => u.is_active(t),
        }
    }

    /// The maintained `(FMin, FSum)` pair of an active task — exposed for
    /// the differential test suite's checkpoint audits. (The argmin
    /// processor is observable through [`Self::best_proc`]; the integer
    /// kernel computes it lazily there rather than maintaining it.)
    #[doc(hidden)]
    pub fn stats(&self, t: TaskId) -> (f64, f64) {
        match &self.inner {
            Kernel::Gen(g) => {
                let (fmin, _, fsum) = g.stats(t);
                (fmin, fsum)
            }
            Kernel::Uni(u) => u.stats(t),
        }
    }

    /// Gain of placing `t` now (Algorithm 1's criticality measure).
    #[inline]
    pub fn gain(&self, t: TaskId) -> f64 {
        match &self.inner {
            Kernel::Gen(g) => g.gain(t),
            Kernel::Uni(u) => u.gain(t),
        }
    }

    /// The next task to place — see the kernels for the shared rule.
    pub fn select_task(&self) -> TaskId {
        match &self.inner {
            Kernel::Gen(g) => g.select_task(),
            Kernel::Uni(u) => u.select_task(),
        }
    }

    /// The free processor where `t` costs least (ties → lowest id).
    pub fn best_proc(&mut self, t: TaskId) -> NodeId {
        match &mut self.inner {
            Kernel::Gen(g) => g.best_proc(t),
            Kernel::Uni(u) => u.best_proc(t),
        }
    }

    /// Commit the placement `t → q` and update the gain structure.
    pub fn assign(&mut self, t: TaskId, q: NodeId) {
        match &mut self.inner {
            Kernel::Gen(g) => g.assign(t, q),
            Kernel::Uni(u) => u.assign(t, q),
        }
    }

    pub fn num_free(&self) -> usize {
        match &self.inner {
            Kernel::Gen(g) => g.num_free(),
            Kernel::Uni(u) => u.num_free(),
        }
    }

    pub fn num_unassigned(&self) -> usize {
        match &self.inner {
            Kernel::Gen(g) => g.num_unassigned(),
            Kernel::Uni(u) => u.num_unassigned(),
        }
    }

    pub fn free_procs(&self) -> &[NodeId] {
        match &self.inner {
            Kernel::Gen(g) => g.free_procs(),
            Kernel::Uni(u) => u.free_procs(),
        }
    }

    pub fn is_free(&self, q: NodeId) -> bool {
        match &self.inner {
            Kernel::Gen(g) => g.is_free(q),
            Kernel::Uni(u) => u.is_free(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    fn check_invariants(state: &GenEstimationState<'_>) {
        for &t in state.unassigned.iter() {
            let mut min = f64::INFINITY;
            let mut argmin = NONE;
            let mut sum = 0.0;
            for &q in state.free.iter() {
                let f = state.fest(t, q);
                let bf = state.fest_bruteforce(t, q);
                assert!(
                    (f - bf).abs() < 1e-6 * bf.abs().max(1.0),
                    "fest({t},{q}) = {f} but brute force = {bf}"
                );
                sum += f;
                if f < min || (f == min && q < argmin) {
                    min = f;
                    argmin = q;
                }
            }
            if !state.is_active(t) {
                continue; // stats are maintained for the frontier only
            }
            assert!(
                (state.fmin[t] - min).abs() < 1e-6 * min.abs().max(1.0),
                "FMin[{t}] = {} but brute force = {min}",
                state.fmin[t]
            );
            assert!(
                (state.fsum[t] - sum).abs() < 1e-6 * sum.abs().max(1.0),
                "FSum[{t}] = {} but brute force = {sum}",
                state.fsum[t]
            );
            // argmin agreement modulo float ties
            let f_arg = state.fest(t, state.fmin_proc[t]);
            assert!((f_arg - min).abs() < 1e-9 * min.abs().max(1.0));
        }
    }

    fn run_incremental_check(order: EstimationOrder) {
        let tasks = gen::stencil2d(4, 4, 100.0, false);
        let topo = Torus::torus_2d(4, 4);
        let mut state = GenEstimationState::new(&tasks, &topo, order);
        check_invariants(&state);
        // Drive the full Algorithm-1 loop, checking after every step.
        for _ in 0..16 {
            let t = state.select_task();
            let q = state.best_proc(t);
            state.assign(t, q);
            check_invariants(&state);
        }
        assert_eq!(state.num_unassigned(), 0);
        assert_eq!(state.num_free(), 0);
    }

    #[test]
    fn incremental_matches_bruteforce_first_order() {
        run_incremental_check(EstimationOrder::First);
    }

    #[test]
    fn incremental_matches_bruteforce_second_order() {
        run_incremental_check(EstimationOrder::Second);
    }

    #[test]
    fn incremental_matches_bruteforce_third_order() {
        run_incremental_check(EstimationOrder::Third);
    }

    #[test]
    fn more_procs_than_tasks() {
        let tasks = gen::ring(5, 10.0);
        let topo = Torus::torus_2d(3, 3);
        let mut state = GenEstimationState::new(&tasks, &topo, EstimationOrder::Second);
        for _ in 0..5 {
            let t = state.select_task();
            let q = state.best_proc(t);
            state.assign(t, q);
            check_invariants(&state);
        }
        assert_eq!(state.num_free(), 4);
    }

    #[test]
    fn second_order_first_virgin_to_center() {
        // A star task graph: the lowest-id virgin (the hub, id 0) is
        // picked first; its best processor is the topology center (min
        // average distance, so min second-order factor).
        let mut b = topomap_taskgraph::TaskGraph::builder(5);
        for leaf in 1..5 {
            b.add_comm(0, leaf, 100.0);
        }
        let tasks = b.build();
        let topo = Torus::mesh_2d(3, 3); // center = (1,1) = node 4
        let state = GenEstimationState::new(&tasks, &topo, EstimationOrder::Second);
        let t = state.select_task();
        assert_eq!(t, 0, "lowest-id virgin starts the run");
        assert_eq!(state.best_proc(0), 4, "hub goes to the mesh center");
    }

    #[test]
    fn frontier_growth_and_retirement() {
        // Placing a task activates exactly its unplaced neighbors; placing
        // an active task retires it from the frontier.
        let tasks = gen::ring(6, 10.0);
        let topo = Torus::torus_2d(3, 3);
        let mut state = GenEstimationState::new(&tasks, &topo, EstimationOrder::Second);
        assert!(state.active.is_empty());
        let t = state.select_task();
        let q = state.best_proc(t);
        state.assign(t, q);
        let mut want: Vec<TaskId> = tasks.neighbors(t).map(|(j, _)| j).collect();
        want.sort_unstable();
        let mut got: Vec<TaskId> = state.active.clone();
        got.sort_unstable();
        assert_eq!(got, want, "frontier must equal the placed task's neighbors");
        let t2 = state.select_task();
        assert!(state.is_active(t2), "selection stays on the frontier");
        state.assign(t2, state.best_proc(t2));
        assert!(!state.is_active(t2));
    }

    #[test]
    #[should_panic(expected = "at least as many processors")]
    fn too_few_processors_rejected() {
        let tasks = gen::ring(10, 1.0);
        let topo = Torus::torus_2d(3, 3);
        GenEstimationState::new(&tasks, &topo, EstimationOrder::Second);
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn double_assign_rejected() {
        let tasks = gen::ring(4, 1.0);
        let topo = Torus::torus_2d(2, 2);
        let mut state = GenEstimationState::new(&tasks, &topo, EstimationOrder::Second);
        state.assign(0, 0);
        state.assign(0, 1);
    }

    /// `fold_row` is `fold_stats` bit for bit on random rows, on rows with
    /// planted ties whose ids run against position order, on signed zeros
    /// and NaN, and at every length 0–7 (the remainder lanes) and beyond.
    #[test]
    fn fold_row_matches_fold_stats() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let check = |row: &[f64], w: f64, fac: &[f64], free: &[NodeId]| {
            let (m, q, s) = fold_row(row, w, fac, free);
            let cells = row.iter().zip(fac).zip(free);
            let (wm, wq, ws) = fold_stats(cells.map(|((&r, &f), &q)| (r + w * f, q)));
            assert_eq!(
                (m.to_bits(), q, s.to_bits()),
                (wm.to_bits(), wq, ws.to_bits()),
                "row {row:?}, w {w}, fac {fac:?}, free {free:?}"
            );
        };
        for len in (0..40).chain([255, 256, 257, 1500]) {
            let scattered: Vec<NodeId> = (0..len).map(|i| (i * 7919 + 13) % 8191).collect();
            let descending: Vec<NodeId> = (0..len).rev().collect();
            let row: Vec<f64> = (0..len).map(|_| (rnd() % 1_000_000) as f64 / 8.0).collect();
            let fac: Vec<f64> = (0..len).map(|_| (rnd() % 64) as f64 / 7.0).collect();
            check(&row, 3.5, &fac, &scattered);
            let row: Vec<f64> = (0..len).map(|_| (rnd() % 3) as f64).collect();
            check(&row, 2.0, &vec![1.5; len], &descending);
            // fac = −0.0 leaves every row value, the sign of zero included,
            // as its own fest.
            let row: Vec<f64> = (0..len)
                .map(|_| [0.0, -0.0, f64::NAN, 1.0][(rnd() % 4) as usize])
                .collect();
            check(&row, 1.0, &vec![-0.0; len], &descending);
        }
    }

    #[test]
    fn order_labels() {
        assert_eq!(EstimationOrder::First.label(), "first-order");
        assert_eq!(EstimationOrder::Second.label(), "second-order");
        assert_eq!(EstimationOrder::Third.label(), "third-order");
        assert_eq!(EstimationOrder::default(), EstimationOrder::Second);
    }
}
