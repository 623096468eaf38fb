//! Contention-aware refinement: map → simulate → unload hot links.
//!
//! Every mapper in this crate optimizes *hop-bytes*, which the source
//! paper itself presents only as a proxy for the real cost — contention on
//! shared links. [`ContentionRefine`] is the first optimizer here whose
//! objective is the simulator's actual completion time: it runs the
//! network simulation on a candidate mapping, reads the per-link
//! busy-time ledger back, identifies the hottest links, and greedily
//! swaps or migrates the task pairs contributing the most bytes to those
//! links — accepting an exchange only when it strictly improves the
//! *simulated makespan*, and only when it does not blow up hop-bytes
//! (the incremental `swap_delta`/`move_delta` kernels from the refiner
//! guard the proxy within a slack factor).
//!
//! ## Crate layering
//!
//! The simulator lives in `topomap-netsim`, which depends on this crate —
//! so the loop takes the simulator as a closure `FnMut(&Mapping, u64) ->
//! Option<SimObservation>` rather than calling it directly.
//! `topomap_netsim::contention_oracle` builds that closure from a
//! topology + config + trace; tests can substitute analytic models.
//!
//! The second argument, `beat`, is the makespan the run must strictly
//! undercut to matter: `u64::MAX` for the baseline, then the smaller of
//! the current makespan and the best trial so far. A simulator may stop
//! early and return `None` once the makespan is known to be at least
//! `beat`; the loop counts that as a rejection, which it would have been.
//!
//! ## Loop invariants
//!
//! - The mapping is always injective (exchanges are swaps between mapped
//!   tasks or moves onto free processors).
//! - The accepted makespan sequence is strictly decreasing, so the loop
//!   terminates and the final mapping is never worse than the input
//!   (under the same simulator).
//! - Hop-bytes never exceeds `(1 + hb_slack)` × the per-iteration value
//!   it started from: candidates failing the guard are never simulated.
//! - The loop is serial and deterministic: hot-link ranking, candidate
//!   enumeration (`BTreeMap` accumulation, stable sorts), the hop-bytes
//!   guard, first-strictly-better acceptance and the simulations
//!   themselves.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::metrics;
use crate::obs;
use crate::par::Parallelism;
use crate::refine::Exchange;
use crate::Mapping;
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{LinkIndex, RoutedTopology};

/// What the refiner reads back from one simulator run: the makespan it
/// optimizes plus the per-link ledger it mines for hot links. Link vectors
/// are indexed in `topo.links()` order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimObservation {
    /// Simulated completion time of the whole trace.
    pub makespan_ns: u64,
    /// Per-link busy time (serialization + backpressure), `links()` order.
    pub link_busy_ns: Vec<u64>,
    /// Per-link bytes carried, `links()` order.
    pub link_bytes: Vec<u64>,
    /// Total time messages spent queued behind busy links.
    pub queue_wait_ns: u64,
}

/// Outcome of one [`ContentionRefine::refine`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionReport {
    /// Refinement iterations entered (each = one hot-link analysis).
    pub iterations: usize,
    /// Total simulator invocations, including the initial baseline run.
    pub sims_run: usize,
    /// Exchanges accepted (== strict makespan improvements applied).
    pub accepted: usize,
    /// Makespan of the input mapping.
    pub initial_makespan_ns: u64,
    /// Makespan of the refined mapping (== initial when nothing helped).
    pub final_makespan_ns: u64,
}

impl ContentionReport {
    /// Relative makespan improvement in percent (0 when nothing helped).
    pub fn improvement_pct(&self) -> f64 {
        if self.initial_makespan_ns == 0 {
            return 0.0;
        }
        100.0 * (self.initial_makespan_ns - self.final_makespan_ns) as f64
            / self.initial_makespan_ns as f64
    }
}

/// How many of the busiest links to analyze per iteration.
const HOT_LINKS: usize = 4;
/// How many top-contributing task pairs to consider per hot link.
const PAIRS_PER_LINK: usize = 2;
/// Cap on candidate exchanges per iteration (after dedup).
const MAX_CANDIDATES: usize = 24;

/// The contention-aware refinement loop. See the module docs for the
/// algorithm; construct with [`Default`] and override fields as needed.
#[derive(Debug, Clone)]
pub struct ContentionRefine {
    /// Maximum refinement iterations (hot-link analyses).
    pub max_iters: usize,
    /// Total simulator-invocation budget, counting the baseline run —
    /// the CLI's `--sim-iters`. At least 2 to do anything.
    pub sim_budget: usize,
    /// Allowed hop-bytes regression per accepted exchange, as a fraction
    /// of the current hop-bytes: candidates with `delta_hb > hb_slack·HB`
    /// are discarded before simulation. Trading a *bounded* amount of the
    /// proxy for real makespan is the point of the loop.
    pub hb_slack: f64,
    /// Read by nothing (the guard is `MAX_CANDIDATES` deltas of O(δ)
    /// beside dozens of simulations). `benchmark/src/cases.rs` builds this
    /// struct with it; ROADMAP item 1(g) removes both.
    pub par: Parallelism,
}

impl Default for ContentionRefine {
    fn default() -> Self {
        ContentionRefine {
            max_iters: 16,
            sim_budget: 64,
            hb_slack: 0.10,
            par: Parallelism::default(),
        }
    }
}

impl ContentionRefine {
    /// Refine `m` in place against the simulator `sim`; returns the run
    /// report. `sim(mapping, beat)` must be deterministic (same mapping →
    /// same observation) with ledgers in `topo.links()` order, and may
    /// return `None` only when the mapping's makespan is at least `beat`
    /// (see the module docs); the baseline run gets `beat = u64::MAX`.
    /// Routes used for byte attribution are the topology's deterministic
    /// ones, which is exact under deterministic routing and a
    /// minimal-route approximation under adaptive routing.
    pub fn refine<F>(
        &self,
        tasks: &TaskGraph,
        topo: &dyn RoutedTopology,
        m: &mut Mapping,
        mut sim: F,
    ) -> ContentionReport
    where
        F: FnMut(&Mapping, u64) -> Option<SimObservation>,
    {
        let _span = obs::span("contention.refine");
        let prof = obs::enabled();
        let links = LinkIndex::new(topo);

        let mut sims_run = 0usize;
        let mut sims_cut = 0u64;
        let mut iterations = 0usize;
        let mut accepted = 0usize;
        let mut candidates_total = 0u64;

        let mut cur = sim(m, u64::MAX).expect("the baseline simulation has no makespan to beat");
        sims_run += 1;
        assert_eq!(
            cur.link_busy_ns.len(),
            links.num_links(),
            "simulator ledger does not match topo.links()"
        );
        let initial_makespan_ns = cur.makespan_ns;

        while iterations < self.max_iters && sims_run < self.sim_budget {
            let _iter_span = obs::span("contention.iter");
            iterations += 1;

            let hot = hot_link_ranking(&cur.link_busy_ns, HOT_LINKS);
            if hot.is_empty() {
                break; // nothing crossed the network
            }
            let cands = self.candidates(tasks, topo, m, &links, &hot);
            candidates_total += cands.len() as u64;
            if cands.is_empty() {
                break;
            }

            // Hop-bytes guard: a candidate that regresses the proxy by
            // more than the slack is never simulated.
            let hb = metrics::hop_bytes(tasks, topo, m);
            let slack = self.hb_slack * hb.max(1.0);

            // Simulated-makespan acceptance: try survivors in enumeration
            // order, keep the best strict improvement (ties → earliest).
            let mut best: Option<(u64, Exchange, SimObservation)> = None;
            for &c in cands.iter().filter(|c| c.delta(tasks, topo, m) <= slack) {
                if sims_run >= self.sim_budget {
                    break;
                }
                let mut trial = m.clone();
                c.apply(&mut trial);
                let beat = best.as_ref().map_or(cur.makespan_ns, |(b, _, _)| *b);
                sims_run += 1;
                match sim(&trial, beat) {
                    Some(o) if o.makespan_ns < beat => best = Some((o.makespan_ns, c, o)),
                    Some(_) => {}
                    None => sims_cut += 1,
                }
            }

            match best {
                Some((_, c, o)) => {
                    c.apply(m);
                    cur = o;
                    accepted += 1;
                    obs::series_push("contention.makespan_ns", cur.makespan_ns as f64);
                }
                None => break, // no hot-link exchange improves the makespan
            }
        }

        if prof {
            obs::counter_add("contention.iterations", iterations as u64);
            obs::counter_add("contention.sims", sims_run as u64);
            obs::counter_add("contention.sims_cut", sims_cut);
            obs::counter_add("contention.accepted", accepted as u64);
            obs::counter_add("contention.candidates", candidates_total);
        }
        ContentionReport {
            iterations,
            sims_run,
            accepted,
            initial_makespan_ns,
            final_makespan_ns: cur.makespan_ns,
        }
    }

    /// Enumerate candidate exchanges that pull the endpoints of the
    /// top-contributing task pairs of each hot link next to each other:
    /// for pair `(u, v)`, every neighbor processor of `proc(v)` offers
    /// either a swap (occupied) or a migration (free) for `u`, and
    /// symmetrically for `v`. Deterministic order: hot links by rank,
    /// pairs by contributed bytes, neighbors in enumeration order; dedup
    /// keeps first occurrence.
    fn candidates(
        &self,
        tasks: &TaskGraph,
        topo: &dyn RoutedTopology,
        m: &Mapping,
        links: &LinkIndex,
        hot: &[usize],
    ) -> Vec<Exchange> {
        let hot_rank: HashMap<usize, usize> =
            hot.iter().enumerate().map(|(r, &li)| (li, r)).collect();

        // Attribute each task edge's bytes to the hot links its
        // deterministic route crosses. BTreeMap keeps the per-link
        // contributor sets in a platform-independent order.
        let mut contrib: Vec<BTreeMap<(TaskId, TaskId), f64>> = vec![BTreeMap::new(); hot.len()];
        let mut route = Vec::new();
        for (a, b, c) in tasks.edges() {
            let (pa, pb) = (m.proc_of(a), m.proc_of(b));
            if pa == pb {
                continue;
            }
            let half = c / 2.0;
            for (src, dst) in [(pa, pb), (pb, pa)] {
                topo.route_into(src, dst, &mut route);
                for l in &route {
                    let li = links.id(l.from, l.to).expect("route follows links");
                    if let Some(&r) = hot_rank.get(&li) {
                        *contrib[r].entry((a, b)).or_insert(0.0) += half;
                    }
                }
            }
        }

        let mut cands = Vec::new();
        let mut seen = HashSet::new();
        let mut push = |c: Exchange| {
            if seen.insert(c) {
                cands.push(c);
            }
        };
        for per_link in &contrib {
            let mut pairs: Vec<(&(TaskId, TaskId), &f64)> = per_link.iter().collect();
            pairs.sort_by(|x, y| y.1.total_cmp(x.1).then(x.0.cmp(y.0)));
            for (&(u, v), _) in pairs.into_iter().take(PAIRS_PER_LINK) {
                for (t, peer) in [(u, v), (v, u)] {
                    let (pt, pp) = (m.proc_of(t), m.proc_of(peer));
                    for q in topo.neighbors(pp) {
                        if q == pt {
                            continue;
                        }
                        match m.task_on(q) {
                            Some(w) if w != t && w != peer => {
                                push(Exchange::Swap(t.min(w), t.max(w)))
                            }
                            Some(_) => {}
                            None => push(Exchange::Move(t, q)),
                        }
                    }
                }
            }
        }
        cands.truncate(MAX_CANDIDATES);
        cands
    }
}

/// Indices of the `k` busiest links (busy time descending, ties → lower
/// link index), skipping idle links.
fn hot_link_ranking(busy: &[u64], k: usize) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..busy.len()).filter(|&i| busy[i] > 0).collect();
    ranked.sort_by_key(|&i| (std::cmp::Reverse(busy[i]), i));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mapper, RandomMap};
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    /// An analytic stand-in simulator: makespan = max per-link bytes under
    /// deterministic routing, with a per-link weight so tests can mark
    /// links "slow". Ledger bytes double as busy time. When `bounded`, it
    /// answers `None` for every makespan at or above `beat`, as a
    /// simulator that stops at its horizon does.
    fn toy_sim<'a>(
        tasks: &'a TaskGraph,
        topo: &'a dyn RoutedTopology,
        slow: &'a [(usize, f64)],
        bounded: bool,
    ) -> impl FnMut(&Mapping, u64) -> Option<SimObservation> + 'a {
        move |m: &Mapping, beat: u64| {
            let ll = metrics::LinkLoads::compute(tasks, topo, m);
            let mut busy: Vec<u64> = ll.loads().iter().map(|&b| b as u64).collect();
            for &(li, w) in slow {
                busy[li] = (busy[li] as f64 * w) as u64;
            }
            let makespan_ns = busy.iter().copied().max().unwrap_or(0);
            (!bounded || makespan_ns < beat).then(|| SimObservation {
                makespan_ns,
                link_bytes: ll.loads().iter().map(|&b| b as u64).collect(),
                link_busy_ns: busy,
                queue_wait_ns: 0,
            })
        }
    }

    #[test]
    fn hot_link_ranking_orders_and_skips_idle() {
        assert_eq!(hot_link_ranking(&[0, 5, 9, 5, 0], 3), vec![2, 1, 3]);
        assert_eq!(hot_link_ranking(&[0, 0], 4), Vec::<usize>::new());
        assert_eq!(hot_link_ranking(&[7, 7], 1), vec![0]);
    }

    #[test]
    fn converged_refine_is_identity() {
        let tasks = gen::stencil2d(3, 3, 64.0, false);
        let topo = Torus::torus_2d(4, 4);
        let r = ContentionRefine::default();
        let mut runs = Vec::new();
        for bounded in [false, true] {
            let mut m = RandomMap::new(5).map(&tasks, &topo);
            let rep1 = r.refine(&tasks, &topo, &mut m, toy_sim(&tasks, &topo, &[], bounded));
            let before = m.clone();
            let rep2 = r.refine(&tasks, &topo, &mut m, toy_sim(&tasks, &topo, &[], bounded));
            assert_eq!(rep1.final_makespan_ns, rep2.initial_makespan_ns);
            assert_eq!(rep2.accepted, 0, "converged run must accept nothing");
            assert_eq!(m, before, "converged run must not touch the mapping");
            assert_eq!(rep2.final_makespan_ns, rep2.initial_makespan_ns);
            runs.push((rep1, rep2, m));
        }
        assert_eq!(
            runs[0], runs[1],
            "a bounded simulator must not change the outcome"
        );
    }

    #[test]
    fn never_worse_and_monotone() {
        let mut cut = 0;
        for seed in [1u64, 3, 8] {
            let tasks = gen::random_graph(10, 2.5, 1.0, 100.0, seed);
            let topo = Torus::torus_2d(4, 4);
            let mut runs = Vec::new();
            for bounded in [false, true] {
                let mut m = RandomMap::new(seed).map(&tasks, &topo);
                let mut sim = toy_sim(&tasks, &topo, &[], bounded);
                let rep = ContentionRefine::default().refine(&tasks, &topo, &mut m, |m, beat| {
                    let o = sim(m, beat);
                    cut += usize::from(o.is_none());
                    o
                });
                assert!(rep.final_makespan_ns <= rep.initial_makespan_ns);
                assert!(rep.sims_run <= ContentionRefine::default().sim_budget);
                let check = toy_sim(&tasks, &topo, &[], false)(&m, u64::MAX).unwrap();
                assert_eq!(check.makespan_ns, rep.final_makespan_ns);
                runs.push((rep, m));
            }
            assert_eq!(
                runs[0], runs[1],
                "seed {seed}: bounded and unbounded disagree"
            );
        }
        assert!(cut > 0, "the bounded simulator never stopped a trial");
    }

    #[test]
    fn hb_guard_bounds_proxy_regression() {
        let tasks = gen::stencil2d(4, 4, 100.0, false);
        let topo = Torus::torus_2d(4, 4);
        let mut m = RandomMap::new(2).map(&tasks, &topo);
        let hb0 = metrics::hop_bytes(&tasks, &topo, &m);
        let r = ContentionRefine {
            hb_slack: 0.05,
            ..Default::default()
        };
        let rep = r.refine(&tasks, &topo, &mut m, toy_sim(&tasks, &topo, &[], false));
        let hb1 = metrics::hop_bytes(&tasks, &topo, &m);
        // Each accepted exchange regresses HB by at most 5% of the HB at
        // its own iteration; with a decreasing makespan the compounded
        // bound over `accepted` steps still holds.
        let bound = hb0 * (1.0 + r.hb_slack).powi(rep.accepted as i32);
        assert!(hb1 <= bound + 1e-9, "hb {hb1} vs bound {bound}");
    }

    #[test]
    fn report_improvement_pct() {
        let rep = ContentionReport {
            iterations: 2,
            sims_run: 5,
            accepted: 1,
            initial_makespan_ns: 200,
            final_makespan_ns: 150,
        };
        assert!((rep.improvement_pct() - 25.0).abs() < 1e-12);
    }
}
