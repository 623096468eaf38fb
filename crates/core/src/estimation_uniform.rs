//! The uniform-weight integer estimation kernel.
//!
//! When every task-graph edge carries the same weight `c` and the
//! unplaced-neighbor factor of §4.3 is one constant `K` over the whole
//! machine (always true for the first order; true for the second order
//! exactly when the topology is distance-regular enough that
//! `Σ_q d(p, q)` is the same for every `p` — tori, rings, hypercubes),
//! the estimation function collapses:
//!
//! ```text
//! fest(t, q) = c · r(t, q) + (c · cnt(t)) · K
//! r(t, q)    = Σ over placed neighbors j of t of d(q, P(j))   (integer!)
//! ```
//!
//! The weight factors out of every comparison, so the whole gain
//! structure lives in **exact integer arithmetic**: u32 distance-sum rows,
//! a u64 row total `S_r`, and a u32 row minimum `r_min`. Exactness buys
//! two things the f64 kernel cannot have:
//!
//! - The naive oracle ([`crate::estimation_naive`]) is bit-identical *by
//!   construction* — integer sums and minima do not depend on evaluation
//!   order, so there is no floating-point trajectory to mirror. The few
//!   f64 values exposed (`gain`, `fest`, `stats`) are fixed formulas over
//!   those integers.
//! - The per-placement work drops further than the general kernel's:
//!   `S_r` updates in O(1) from a shared per-placement column sum, the
//!   subtraction fast path recomputes the dropped entry from the task's
//!   placed-neighbor list and the current distance column (never touching
//!   the row), and rows are only synced with the free list lazily —
//!   replaying a global swap log — when an edge event or refold actually
//!   folds them. A placement touches O(δ·F) row entries and O(|active|)
//!   scalars, with u32 rows halving the memory traffic of the f64 path.
//!
//! `r_min` maintenance is exact: between edge events a task's row values
//! never change, only free-set membership shrinks, so the minimum — and
//! the lexicographic `(r, id)` argmin — over the survivors is unchanged
//! unless the dropped processor *is* the argmin (a tying entry may drop,
//! but the argmin still holds the minimum). The argmin-hit check
//! `q == argmin` (exact ids, no tolerance) triggers the only refolds,
//! and `best_proc` is an O(1) lookup.
//!
//! Kernel choice is decided by `estimation::uniform_kernel`,
//! which the oracle shares, so both sides of the differential suite
//! always pick the same path.

use crate::frontier::{swap_remove_tracked, Frontier, NONE};
use crate::obs;
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{NodeId, Topology};

/// Integer-exact estimation structure for uniform-weight task graphs on
/// factor-uniform machines. Same surface as the general kernel.
pub(crate) struct UniEstimationState<'a> {
    tasks: &'a TaskGraph,
    topo: &'a dyn Topology,
    /// The uniform edge weight.
    c: f64,
    /// The constant unplaced-neighbor factor (0 for first order).
    kfac: f64,
    /// Placement, free list, frontier and row slots — the bookkeeping the
    /// general kernel and TopoCentLB share.
    pub(crate) front: Frontier,
    /// u32 mirror of `front.free`, kept in lockstep — the row folds read
    /// ids from this to halve the per-element id traffic (ids fit u32,
    /// checked at construction).
    free32: Vec<u32>,
    /// Pooled u32 rows, indexed by `front.row_slot`: `rows[slot][i]` = Σ
    /// over placed neighbors of `d(free[i], P(j))` — positionally indexed
    /// against the free list *as of `synced[slot]` entries of the swap
    /// log*.
    rows: Vec<Vec<u32>>,
    /// Per slot: how many swap-log entries have been applied to the row.
    synced: Vec<usize>,
    /// One entry per placement: the free-list position vacated by
    /// `swap_remove`. Rows replay this to catch up with the free list.
    swap_log: Vec<u32>,
    /// Per *placed* task: its unplaced neighbors at placement time,
    /// compacted lazily as they get placed. The transpose of the frontier
    /// tasks' placed-neighbor lists — the subtraction pass scatters one
    /// distance per placed task through these instead of gathering one
    /// distance per (frontier task, placed neighbor) pair.
    uset: Vec<Vec<TaskId>>,
    /// Placed tasks whose `uset` still has (or may have) live entries.
    pfront: Vec<TaskId>,
    /// Scratch: `pfront` processors / their gathered distances to the
    /// just-filled processor.
    plist: Vec<NodeId>,
    pdist: Vec<u32>,
    /// Per processor: the active tasks whose argmin is that processor,
    /// with per-task positions for O(1) moves. A placement refolds
    /// exactly `ambucket[q]` — every other maintained argmin survives —
    /// so refold candidates are found without scanning the frontier.
    ambucket: Vec<Vec<TaskId>>,
    ampos: Vec<usize>,
    /// Per task: exact row minimum / lexicographic argmin processor /
    /// row total over the current free set. The argmin stays valid under
    /// subtraction: a drop can only invalidate it when the dropped value
    /// equals the minimum, which is exactly the value-hit refold trigger.
    rmin: Vec<u32>,
    argmin: Vec<NodeId>,
    sr: Vec<u64>,
    /// Per task: number of placed neighbors (drives the `cnt` views).
    placed_cnt: Vec<u32>,
    nbr_stamp: Vec<usize>,
    step: usize,
    /// Positional `d(free[i], q)` gather of the most recent placement
    /// (feeds the edge folds).
    dist: Vec<u32>,
}

/// Lexicographic `(r, id)` min over a row and its positionally aligned
/// free list, in one branchless pass: each pair packs into the u64 key
/// `(r << 32) | id` (ids fit u32 — checked at construction), and the
/// u64 minimum of the keys *is* the lexicographic minimum. Four
/// independent lanes keep it vectorizable.
#[inline]
fn row_lexmin(row: &[u32], free: &[u32]) -> (u32, NodeId) {
    debug_assert_eq!(row.len(), free.len());
    let mut m = [u64::MAX; 4];
    let mut rc = row.chunks_exact(4);
    let mut fc = free.chunks_exact(4);
    for (r4, f4) in rc.by_ref().zip(fc.by_ref()) {
        m[0] = m[0].min(((r4[0] as u64) << 32) | f4[0] as u64);
        m[1] = m[1].min(((r4[1] as u64) << 32) | f4[1] as u64);
        m[2] = m[2].min(((r4[2] as u64) << 32) | f4[2] as u64);
        m[3] = m[3].min(((r4[3] as u64) << 32) | f4[3] as u64);
    }
    let mut min = m[0].min(m[1]).min(m[2]).min(m[3]);
    for (&r, &q) in rc.remainder().iter().zip(fc.remainder()) {
        min = min.min(((r as u64) << 32) | q as u64);
    }
    ((min >> 32) as u32, (min & u32::MAX as u64) as NodeId)
}

impl<'a> UniEstimationState<'a> {
    pub(crate) fn new(tasks: &'a TaskGraph, topo: &'a dyn Topology, c: f64, kfac: f64) -> Self {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        let front = Frontier::new(n, p);
        assert!(p <= u32::MAX as usize, "processor ids must fit u32");
        let _init_span = obs::span("estimation.init");
        UniEstimationState {
            tasks,
            topo,
            c,
            kfac,
            front,
            free32: (0..p as u32).collect(),
            rows: Vec::new(),
            synced: Vec::new(),
            swap_log: Vec::new(),
            uset: vec![Vec::new(); n],
            pfront: Vec::new(),
            plist: Vec::new(),
            pdist: Vec::new(),
            ambucket: vec![Vec::new(); p],
            ampos: vec![NONE; n],
            rmin: vec![0; n],
            argmin: vec![NONE; n],
            sr: vec![0; n],
            placed_cnt: vec![0; n],
            nbr_stamp: vec![0; n],
            step: 0,
            dist: Vec::new(),
        }
    }

    /// `fest(t, q) = c·r + (c·cnt)·K`, with `r` recomputed from the
    /// placed-neighbor list (a view; not on the hot path).
    pub(crate) fn fest(&self, t: TaskId, q: NodeId) -> f64 {
        debug_assert!(!self.front.is_placed(t), "task already placed");
        debug_assert!(self.front.is_free(q), "processor not free");
        let mut r: u32 = 0;
        for (j, _) in self.tasks.neighbors(t) {
            if self.front.is_placed(j) {
                r += self.topo.distance(q, self.front.placement[j]);
            }
        }
        self.c * r as f64 + (self.c * self.placed_cnt[t] as f64) * self.kfac
    }

    /// `(FMin, FSum)` views of the maintained integers.
    pub(crate) fn stats(&self, t: TaskId) -> (f64, f64) {
        debug_assert!(self.front.is_active(t));
        let shift = (self.c * self.placed_cnt[t] as f64) * self.kfac;
        let fmin = self.c * self.rmin[t] as f64 + shift;
        let fsum = self.c * self.sr[t] as f64 + shift * self.front.free.len() as f64;
        (fmin, fsum)
    }

    /// Gain view: the constant factor shifts FAvg and FMin equally, so
    /// `gain = c · (S_r/F − r_min)` exactly.
    #[inline]
    pub(crate) fn gain(&self, t: TaskId) -> f64 {
        let flen = self.front.free.len();
        if !self.front.is_active(t) || flen == 0 {
            return 0.0;
        }
        self.c * (self.sr[t] as f64 / flen as f64 - self.rmin[t] as f64)
    }

    pub(crate) fn select_task(&self) -> TaskId {
        if self.front.active.is_empty() {
            return self.front.first_unplaced();
        }
        let flen = self.front.free.len() as f64;
        let mut best_t = NONE;
        let mut best_gain = f64::NEG_INFINITY;
        for &t in &self.front.active {
            let g = self.c * (self.sr[t] as f64 / flen - self.rmin[t] as f64);
            if g > best_gain || (g == best_gain && t < best_t) {
                best_gain = g;
                best_t = t;
            }
        }
        best_t
    }

    /// The maintained lexicographic `(r, id)` argmin for an active task;
    /// the lowest free id for a virgin one (the constant factor ties
    /// every candidate).
    pub(crate) fn best_proc(&mut self, t: TaskId) -> NodeId {
        if !self.front.is_active(t) {
            return *self.front.free.iter().min().expect("no free processor");
        }
        self.argmin[t]
    }

    /// Replay the swap log so `rows[slot]` is positionally aligned with
    /// the current free list. Amortized O(1) per (row, placement).
    fn sync_row(&mut self, slot: usize) {
        let row = &mut self.rows[slot];
        for k in self.synced[slot]..self.swap_log.len() {
            row.swap_remove(self.swap_log[k] as usize);
        }
        self.synced[slot] = self.swap_log.len();
    }

    /// Unhook `u` from its argmin bucket (no-op if unbucketed).
    fn bucket_remove(&mut self, u: TaskId) {
        if self.ampos[u] != NONE {
            swap_remove_tracked(&mut self.ambucket[self.argmin[u]], &mut self.ampos, u);
        }
    }

    /// File `u` under its (current) argmin processor.
    fn bucket_push(&mut self, u: TaskId) {
        let b = self.argmin[u];
        self.ampos[u] = self.ambucket[b].len();
        self.ambucket[b].push(u);
    }

    pub(crate) fn assign(&mut self, t: TaskId, q: NodeId) {
        obs::counter_add("estimation.assigns", 1);
        // Retire t's row to the pool and take q off the free list; live
        // rows catch up lazily via the swap log instead of being touched
        // here.
        self.bucket_remove(t);
        let qi = self.front.place(t, q);
        self.step += 1;
        self.free32.swap_remove(qi);
        self.swap_log.push(qi as u32);

        if self.front.num_unplaced() == 0 {
            debug_assert!(self.front.active.is_empty());
            return;
        }
        let flen = self.front.free.len();

        let nbrs: Vec<TaskId> = self
            .tasks
            .neighbors(t)
            .map(|(j, _)| j)
            .filter(|&j| !self.front.is_placed(j))
            .collect();
        for &j in &nbrs {
            self.nbr_stamp[j] = self.step;
        }

        if self.front.active.is_empty() && nbrs.is_empty() {
            return;
        }

        // The positional d(free[i], q) gather feeding the edge folds, with
        // the shared row-total increment Σ_{i ∈ free} d(free[i], q)
        // accumulated inside the same pass.
        let mut colsum: u64 = 0;
        if !nbrs.is_empty() {
            let mut dist = std::mem::take(&mut self.dist);
            colsum = self.topo.distances_sum_into(q, &self.front.free, &mut dist);
            self.dist = dist;
        }

        // Subtraction pass, transposed: every unplaced task adjacent to a
        // placed one loses the row entry v = Σ_k d(q, P(k)) from S_r when
        // q leaves the free set. Instead of gathering one distance per
        // (frontier task, placed neighbor) pair, gather ONE distance per
        // placed frontier task and scatter `S_r -= d` through that task's
        // unplaced neighbors — the same pair set walked from the other
        // side, with O(|pfront|) distance lookups instead of O(pairs).
        // Integer subtraction makes the scatter order irrelevant. Dead
        // `uset` entries (neighbors placed since) are skipped and
        // compacted away once they are the majority, so each edge is
        // cleaned up O(1) amortized.
        let step = self.step;
        let mut pfront = std::mem::take(&mut self.pfront);
        let mut plist = std::mem::take(&mut self.plist);
        let mut pdist = std::mem::take(&mut self.pdist);
        plist.clear();
        plist.extend(pfront.iter().map(|&j| self.front.placement[j]));
        if !plist.is_empty() {
            self.topo.distances_into(q, &plist, &mut pdist);
        }
        let (mut full, mut fast) = (0u64, 0u64);
        let mut w = 0usize;
        for i in 0..pfront.len() {
            let j = pfront[i];
            let d = pdist[i] as u64;
            let us = &mut self.uset[j];
            let mut dead = 0usize;
            for &u in us.iter() {
                if !self.front.is_placed(u) {
                    self.sr[u] -= d;
                    fast += 1;
                } else {
                    dead += 1;
                }
            }
            if dead * 2 > us.len() {
                let front = &self.front;
                us.retain(|&u| !front.is_placed(u));
            }
            if !us.is_empty() {
                pfront[w] = j;
                w += 1;
            }
        }
        pfront.truncate(w);
        self.pfront = pfront;
        self.plist = plist;
        self.pdist = pdist;

        // Refolds: exactly the tasks whose argmin was q — dropping any
        // other entry leaves a task's argmin in place still holding the
        // minimum, even when the dropped value ties it. Edge-event targets
        // found here are left for their edge fold (which refolds anyway).
        let mut drained = std::mem::take(&mut self.ambucket[q]);
        for &u in &drained {
            self.ampos[u] = NONE;
            if self.nbr_stamp[u] == step {
                continue;
            }
            let slot = self.front.row_slot[u];
            self.sync_row(slot);
            let (min, am) = row_lexmin(&self.rows[slot], &self.free32);
            self.rmin[u] = min;
            self.argmin[u] = am;
            self.bucket_push(u);
            full += 1;
        }
        drained.clear();
        self.ambucket[q] = drained;
        obs::counter_add("estimation.fest_full_scan", full);
        obs::counter_add("estimation.fest_incremental", fast);

        // Edge events: sync the row, add the distance column, refold the
        // row minimum, and bump S_r by the shared column sum. The add and
        // min passes are separate so both auto-vectorize over the
        // L1/L2-resident u32 row.
        for &j in &nbrs {
            let (slot, is_new) = self.front.activate(j);
            if slot == self.rows.len() {
                self.rows.push(Vec::new());
                self.synced.push(0);
            }
            if is_new {
                self.synced[slot] = self.swap_log.len();
            } else {
                self.sync_row(slot);
            }
            // Two passes on purpose: the pure u32 add vectorizes 8-wide,
            // and the packed-key fold in row_lexmin vectorizes on its own
            // — fusing them was measurably slower.
            let mut row = std::mem::take(&mut self.rows[slot]);
            let (min, am) = if is_new {
                row.clear();
                row.extend_from_slice(&self.dist[..flen]);
                row_lexmin(&row, &self.free32)
            } else {
                for (rv, &d) in row[..flen].iter_mut().zip(&self.dist[..flen]) {
                    *rv += d;
                }
                row_lexmin(&row[..flen], &self.free32)
            };
            self.bucket_remove(j);
            self.rmin[j] = min;
            self.argmin[j] = am;
            self.bucket_push(j);
            self.rows[slot] = row;
            self.sr[j] += colsum;
            self.placed_cnt[j] += 1;
        }
        // Register t's own unplaced neighbors for future scatters — after
        // this placement's scatter, so t never scatters d(q, q) = 0 into
        // rows that never held a q entry.
        let nlen = nbrs.len() as u64;
        if !nbrs.is_empty() {
            self.uset[t] = nbrs;
            self.pfront.push(t);
        }
        obs::counter_add("estimation.row_events", nlen);
        obs::counter_add("estimation.fest_full_scan", nlen);
    }

    /// Brute-force integer row recomputation for the in-module tests.
    #[cfg(test)]
    fn r_bruteforce(&self, t: TaskId, q: NodeId) -> u32 {
        self.tasks
            .neighbors(t)
            .filter(|&(j, _)| self.front.is_placed(j))
            .map(|(j, _)| self.topo.distance(q, self.front.placement[j]))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    /// Drive the full loop on a torus, auditing the maintained integers
    /// against brute-force recomputation after every placement.
    #[test]
    fn integers_match_bruteforce_every_step() {
        let tasks = gen::stencil2d(4, 5, 100.0, false);
        let topo = Torus::torus_2d(5, 4);
        let mut s = UniEstimationState::new(&tasks, &topo, 100.0, 1.5);
        for _ in 0..20 {
            let t = s.select_task();
            let q = s.best_proc(t);
            s.assign(t, q);
            for u in 0..tasks.num_tasks() {
                if !s.front.is_active(u) {
                    continue;
                }
                let mut min = u32::MAX;
                let mut sum = 0u64;
                for &r in &s.front.free {
                    let v = s.r_bruteforce(u, r);
                    min = min.min(v);
                    sum += v as u64;
                }
                assert_eq!(s.rmin[u], min, "rmin drifted for task {u}");
                assert_eq!(s.sr[u], sum, "S_r drifted for task {u}");
            }
        }
        assert_eq!(s.front.num_unplaced(), 0);
    }

    #[test]
    fn virgin_rule_lowest_id_lowest_proc() {
        let tasks = gen::ring(5, 7.0);
        let topo = Torus::torus_2d(3, 3);
        let mut s = UniEstimationState::new(&tasks, &topo, 7.0, 2.0);
        assert_eq!(s.select_task(), 0, "lowest-id virgin first");
        assert_eq!(s.best_proc(0), 0, "constant factor ties break to lowest id");
    }
}
