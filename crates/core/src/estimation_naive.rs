//! The naive full-table estimation oracle for the differential test
//! suite (`tests/incremental_equivalence.rs`).
//!
//! [`NaiveEstimationState`] implements exactly the selection and
//! placement semantics of [`crate::estimation::EstimationState`] — the
//! frontier-first task choice, the fold orders, every floating-point
//! expression — but in the straightforward pre-optimization style: one
//! dense `n × p` contribution table indexed by (task, processor id),
//! per-element `Topology::distance` calls, no row pooling, no positional
//! tricks, no parallelism. Where the fast kernel maintains a value with
//! an O(1) delta, the oracle recomputes it from the same defining
//! recurrence, so any divergence between the two is a bug in the
//! incremental bookkeeping, not floating-point noise: the differential
//! suite pins them **bit-identical**.
//!
//! This module is `#[doc(hidden)]` but compiled unconditionally, so
//! future PRs that touch the kernels can always cross-check against it.

use crate::estimation::{uniform_kernel, EstimationOrder};
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{stats::AvgDistTable, NodeId, Topology};

const NONE: usize = usize::MAX;

/// Dense-table oracle twin of [`crate::estimation::EstimationState`].
///
/// Mirrors the facade's kernel dispatch: when
/// `estimation::uniform_kernel` (the same predicate the fast
/// side calls) detects the uniform-weight integer path, the oracle keeps
/// a dense `n × p` table of *unweighted integer* distance sums and
/// recomputes every minimum, sum and gain from it on demand — integer
/// arithmetic has no evaluation-order sensitivity, so the fast kernel's
/// incremental bookkeeping must match it bit-for-bit with no trajectory
/// mirroring at all. Otherwise it runs the general f64 path described
/// above.
pub struct NaiveEstimationState<'a> {
    tasks: &'a TaskGraph,
    topo: &'a dyn Topology,
    order: EstimationOrder,
    p: usize,
    avg_all: AvgDistTable,
    /// `contrib[t * p + q]` = Σ over placed neighbors j of t of
    /// `c · d(q, P(j))`, accumulated in placement order over all q.
    contrib: Vec<f64>,
    unassigned_wgt: Vec<f64>,
    placed_nbrs: Vec<u32>,
    /// Same positional free-list bookkeeping as the fast kernel — fold
    /// order over the free list is part of the shared semantics.
    free: Vec<NodeId>,
    free_pos: Vec<usize>,
    unassigned: Vec<TaskId>,
    placement: Vec<NodeId>,
    fmin: Vec<f64>,
    fmin_proc: Vec<NodeId>,
    fsum: Vec<f64>,
    sum_free: Vec<f64>,
    /// Uniform-integer path (mirrors `estimation_uniform`): the uniform
    /// edge weight `c`, the constant factor `K`, and the unweighted
    /// integer distance-sum table `r(t, q)`.
    uni: bool,
    uc: f64,
    ukfac: f64,
    contrib_int: Vec<u32>,
}

impl<'a> NaiveEstimationState<'a> {
    pub fn new(tasks: &'a TaskGraph, topo: &'a dyn Topology, order: EstimationOrder) -> Self {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "need at least as many processors as tasks");
        let avg_all = AvgDistTable::new(topo);
        let sum_free = match order {
            EstimationOrder::Third => (0..p).map(|r| avg_all.sum(r) as f64).collect(),
            _ => Vec::new(),
        };
        let (uni, uc, ukfac) = match uniform_kernel(tasks, topo, order) {
            Some((c, k)) => (true, c, k),
            None => (false, 0.0, 0.0),
        };
        NaiveEstimationState {
            tasks,
            topo,
            order,
            p,
            avg_all,
            contrib: if uni { Vec::new() } else { vec![0.0; n * p] },
            unassigned_wgt: (0..n).map(|t| tasks.weighted_degree(t)).collect(),
            placed_nbrs: vec![0; n],
            free: (0..p).collect(),
            free_pos: (0..p).collect(),
            unassigned: (0..n).collect(),
            placement: vec![NONE; n],
            fmin: vec![0.0; n],
            fmin_proc: vec![0; n],
            fsum: vec![0.0; n],
            sum_free,
            uni,
            uc,
            ukfac,
            contrib_int: if uni { vec![0; n * p] } else { Vec::new() },
        }
    }

    /// Which kernel this oracle dispatched to (must agree with the fast
    /// facade's [`crate::estimation::EstimationState::kernel_label`]).
    pub fn kernel_label(&self) -> &'static str {
        if self.uni {
            "uniform-int"
        } else {
            "general"
        }
    }

    /// Integer-path from-scratch fold: `(r_min, S_r)` over the free set.
    fn scan_int(&self, t: TaskId) -> (u32, u64) {
        let mut min = u32::MAX;
        let mut sum = 0u64;
        for &q in &self.free {
            let r = self.contrib_int[t * self.p + q];
            min = min.min(r);
            sum += r as u64;
        }
        (min, sum)
    }

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

    #[inline]
    pub fn fest(&self, t: TaskId, q: NodeId) -> f64 {
        debug_assert!(self.placement[t] == NONE);
        debug_assert!(self.free_pos[q] != NONE);
        if self.uni {
            return self.uc * self.contrib_int[t * self.p + q] as f64
                + (self.uc * self.placed_nbrs[t] as f64) * self.ukfac;
        }
        self.contrib[t * self.p + q] + self.unassigned_wgt[t] * self.unplaced_factor(q)
    }

    pub fn is_active(&self, t: TaskId) -> bool {
        self.placed_nbrs[t] > 0
    }

    /// `(FMin, FSum)` — recomputed from the integer table on the uniform
    /// path, read from the maintained values on the general path.
    pub fn stats(&self, t: TaskId) -> (f64, f64) {
        debug_assert!(self.is_active(t));
        if self.uni {
            let (rmin, sr) = self.scan_int(t);
            let shift = (self.uc * self.placed_nbrs[t] as f64) * self.ukfac;
            return (
                self.uc * rmin as f64 + shift,
                self.uc * sr as f64 + shift * self.free.len() as f64,
            );
        }
        (self.fmin[t], self.fsum[t])
    }

    #[inline]
    pub fn gain(&self, t: TaskId) -> f64 {
        if !self.is_active(t) {
            return 0.0;
        }
        let f = self.free.len();
        if f == 0 {
            return 0.0;
        }
        if self.uni {
            let (rmin, sr) = self.scan_int(t);
            return self.uc * (sr as f64 / f as f64 - rmin as f64);
        }
        self.fsum[t] / f as f64 - self.fmin[t]
    }

    /// Same selection rule as the fast kernel: max-gain frontier task
    /// (ties → lowest id), else the lowest-id virgin (every virgin's gain
    /// is defined 0, so the id tie-break rules).
    pub fn select_task(&self) -> TaskId {
        debug_assert!(!self.unassigned.is_empty());
        let any_active = self.unassigned.iter().any(|&t| self.is_active(t));
        let flen = self.free.len() as f64;
        let mut best_t = NONE;
        let mut best_key = f64::NEG_INFINITY;
        for t in 0..self.tasks.num_tasks() {
            if self.placement[t] != NONE {
                continue;
            }
            if !any_active {
                // No frontier: every unassigned task is virgin; scanning
                // ascending, the first one is the lowest id.
                return t;
            }
            if !self.is_active(t) {
                continue;
            }
            let g = if self.uni {
                let (rmin, sr) = self.scan_int(t);
                self.uc * (sr as f64 / flen - rmin as f64)
            } else {
                self.fsum[t] / flen - self.fmin[t]
            };
            if g > best_key || (g == best_key && t < best_t) {
                best_key = g;
                best_t = t;
            }
        }
        best_t
    }

    pub fn best_proc(&self, t: TaskId) -> NodeId {
        if self.uni {
            // Active: lexicographic (r, id) minimum of the integer row.
            // Virgin: the constant factor ties every free processor, so
            // the lowest id wins.
            let mut min = u32::MAX;
            let mut argmin = NONE;
            for &q in &self.free {
                let r = if self.is_active(t) {
                    self.contrib_int[t * self.p + q]
                } else {
                    0
                };
                if r < min || (r == min && q < argmin) {
                    min = r;
                    argmin = q;
                }
            }
            return argmin;
        }
        if self.is_active(t) {
            return self.fmin_proc[t];
        }
        let w = self.unassigned_wgt[t];
        let mut min = f64::INFINITY;
        let mut argmin = NONE;
        for &q in &self.free {
            let f = w * self.unplaced_factor(q);
            if f < min || (f == min && q < argmin) {
                min = f;
                argmin = q;
            }
        }
        argmin
    }

    pub fn num_free(&self) -> usize {
        self.free.len()
    }

    pub fn num_unassigned(&self) -> usize {
        self.unassigned.len()
    }

    /// Full fold of `(FMin, argmin, FSum)` over the free list in position
    /// order — the defining recurrence the fast kernel's folds mirror.
    /// `FSum` is the shared 4-lane striped sum (position `i` adds into lane
    /// `i mod 4`, total `(s0 + s1) + (s2 + s3)`); `(FMin, argmin)` is the
    /// order-independent lexicographic minimum of `(fest, proc)`.
    fn refold(&mut self, t: TaskId) {
        let mut min = f64::INFINITY;
        let mut argmin = NONE;
        let mut s = [0.0f64; 4];
        for (i, &q) in self.free.iter().enumerate() {
            let f = self.fest(t, q);
            s[i & 3] += f;
            if f < min || (f == min && q < argmin) {
                min = f;
                argmin = q;
            }
        }
        self.fmin[t] = min;
        self.fmin_proc[t] = argmin;
        self.fsum[t] = (s[0] + s[1]) + (s[2] + s[3]);
    }

    pub fn assign(&mut self, t: TaskId, q: NodeId) {
        assert!(self.placement[t] == NONE, "task {t} already placed");
        assert!(self.free_pos[q] != NONE, "processor {q} not free");
        self.placement[t] = q;
        self.unassigned.retain(|&u| u != t);

        // Identical free-list swap-remove bookkeeping: the fold order over
        // the free list is shared semantics.
        let qi = self.free_pos[q];
        let lastq = *self.free.last().unwrap();
        self.free.swap_remove(qi);
        if lastq != q {
            self.free_pos[lastq] = qi;
        }
        self.free_pos[q] = NONE;

        if self.unassigned.is_empty() {
            return;
        }

        let nbrs: Vec<(TaskId, f64)> = self
            .tasks
            .neighbors(t)
            .filter(|&(j, _)| self.placement[j] == NONE)
            .collect();

        if self.uni {
            // Integer path: the only state is the unweighted distance-sum
            // table and the placed-neighbor counts — everything else is
            // recomputed on demand.
            for &(j, _) in &nbrs {
                self.placed_nbrs[j] += 1;
                for r in 0..self.p {
                    self.contrib_int[j * self.p + r] += self.topo.distance(r, q);
                }
            }
            return;
        }

        for &(j, c) in &nbrs {
            self.unassigned_wgt[j] -= c;
        }

        if self.order == EstimationOrder::Third {
            for r in 0..self.p {
                self.sum_free[r] -= self.topo.distance(r, q) as f64;
            }
            for &(j, c) in &nbrs {
                self.placed_nbrs[j] += 1;
                for r in 0..self.p {
                    self.contrib[j * self.p + r] += c * self.topo.distance(r, q) as f64;
                }
            }
            // The free-set average moved for every processor: refold the
            // whole frontier (id order; folds are per-task independent).
            for u in 0..self.tasks.num_tasks() {
                if self.placement[u] == NONE && self.is_active(u) {
                    self.refold(u);
                }
            }
            return;
        }

        // Edge events in adjacency order: contribution column + full fold.
        let mut is_nbr = vec![false; self.tasks.num_tasks()];
        for &(j, c) in &nbrs {
            is_nbr[j] = true;
            self.placed_nbrs[j] += 1;
            for r in 0..self.p {
                self.contrib[j * self.p + r] += c * self.topo.distance(r, q) as f64;
            }
            self.refold(j);
        }

        // Every other frontier task lost only processor q: FSum follows
        // the same subtraction recurrence as the fast kernel (recomputing
        // the dropped fest from the definition), and (FMin, argmin)
        // survive unless the argmin was q.
        let factor_pre = match self.order {
            EstimationOrder::First => 0.0,
            _ => self.avg_all.avg(q),
        };
        for (u, &u_is_nbr) in is_nbr.iter().enumerate() {
            if self.placement[u] != NONE || !self.is_active(u) || u_is_nbr {
                continue;
            }
            let old = self.contrib[u * self.p + q] + self.unassigned_wgt[u] * factor_pre;
            if self.fmin_proc[u] == q {
                self.refold(u);
            } else {
                self.fsum[u] -= old;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    /// The oracle agrees with its own from-scratch definition at every
    /// step (the fast-kernel equivalence lives in the differential suite).
    /// Uniform weights on a torus exercise the integer path for orders
    /// one/two; varied weights force the general f64 path everywhere.
    #[test]
    fn oracle_stats_match_definition() {
        for order in [
            EstimationOrder::First,
            EstimationOrder::Second,
            EstimationOrder::Third,
        ] {
            for varied in [false, true] {
                let tasks = if varied {
                    let mut b = topomap_taskgraph::TaskGraph::builder(12);
                    for t in 0..12usize {
                        b.add_comm(t, (t + 1) % 12, 10.0 + t as f64);
                    }
                    b.build()
                } else {
                    gen::stencil2d(3, 4, 100.0, false)
                };
                let topo = Torus::torus_2d(4, 3);
                let mut s = NaiveEstimationState::new(&tasks, &topo, order);
                let want_uni = !varied && order != EstimationOrder::Third;
                assert_eq!(
                    s.kernel_label(),
                    if want_uni { "uniform-int" } else { "general" }
                );
                for _ in 0..12 {
                    let t = s.select_task();
                    let q = s.best_proc(t);
                    s.assign(t, q);
                    for &u in &s.unassigned {
                        if !s.is_active(u) {
                            continue;
                        }
                        let mut sum = 0.0;
                        let mut min = f64::INFINITY;
                        for &r in &s.free {
                            let f = s.fest(u, r);
                            sum += f;
                            min = min.min(f);
                        }
                        let (fmin, fsum) = s.stats(u);
                        assert_eq!(fmin, min, "FMin drifted for task {u} ({order:?})");
                        assert!(
                            (fsum - sum).abs() <= 1e-9 * sum.abs().max(1.0),
                            "FSum drifted for task {u} ({order:?}): {fsum} vs {sum}"
                        );
                    }
                }
                assert_eq!(s.num_unassigned(), 0);
            }
        }
    }
}
