//! Simulated-annealing mapping — the "physical optimization" comparison
//! point.
//!
//! The paper's introduction: "Two kinds of algorithms have been developed
//! in the past ... Heuristic algorithms and Physical optimization
//! algorithms. Though physical optimization algorithms produce
//! high-quality solutions (better than heuristic algorithms), they tend
//! to be very slow." (§1, citing Bollinger & Midkiff's process-annealing
//! phase \[6\]).
//!
//! [`SimulatedAnnealingMap`] implements the classic scheme over the
//! hop-bytes objective: start from a seed mapping, propose random task
//! swaps (or moves to free processors), accept improvements always and
//! regressions with probability `exp(-Δ/T)`, cool geometrically. The
//! evaluation matrix's `physopt` rows quantify the paper's
//! quality-vs-time trade-off against TopoLB.

use crate::obs;
use crate::refine::{move_delta, swap_delta};
use crate::{metrics, Mapper, Mapping, RandomMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topomap_taskgraph::TaskGraph;
use topomap_topology::Topology;

/// Simulated-annealing mapper over hop-bytes.
///
/// Proposals and acceptance decisions draw from two *independent* RNG
/// streams, and a temperature step's proposals are all drawn up front
/// against the step's starting mapping (a relocation's target is free at
/// that point, and void if an earlier acceptance fills it); the step then
/// walks them in order, evaluating each against the live mapping. One
/// stream and one proposal at a time would be the textbook loop, but the
/// split defines *which* proposals a seed makes: changing it would change
/// every mapping this type has returned, including the
/// physical-optimization rows EXPERIMENTS.md cites. (The batch was
/// introduced so a pool could evaluate a step's deltas; a step holds
/// 100–400 deltas of O(δ) each, far less than a fork-join round trip
/// costs, so the pool went and the sequence definition stayed.)
#[derive(Debug, Clone)]
pub struct SimulatedAnnealingMap {
    /// RNG seed (deterministic per seed).
    pub(crate) seed: u64,
    /// Swap proposals per temperature step.
    pub moves_per_temp: usize,
    /// Geometric cooling rate per temperature step (e.g. 0.95).
    pub(crate) cooling: f64,
}

/// Initial temperature as a fraction of the seed mapping's hop-bytes per
/// edge (scale-free across workloads).
const INITIAL_TEMP_FACTOR: f64 = 2.0;
/// Stop once temperature falls below this fraction of the initial.
const MIN_TEMP_FRACTION: f64 = 1e-3;

impl Default for SimulatedAnnealingMap {
    fn default() -> Self {
        SimulatedAnnealingMap {
            seed: 0xA11EA1,
            moves_per_temp: 400,
            cooling: 0.95,
        }
    }
}

/// One proposed exchange, generated against the step-start mapping.
#[derive(Debug, Clone, Copy)]
enum Proposal {
    Swap(usize, usize),
    Relocate(usize, usize),
}

impl SimulatedAnnealingMap {
    pub fn new(seed: u64) -> Self {
        SimulatedAnnealingMap {
            seed,
            ..Default::default()
        }
    }

    /// A lighter configuration for tests and examples.
    pub fn quick(seed: u64) -> Self {
        SimulatedAnnealingMap {
            seed,
            moves_per_temp: 100,
            cooling: 0.90,
        }
    }
}

impl Mapper for SimulatedAnnealingMap {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "need at least as many processors as tasks");
        let _map_span = obs::span("anneal.map");
        // Independent streams: the proposal sequence does not depend on
        // how many acceptance draws interleave (see the type docs).
        let mut prop_rng = StdRng::seed_from_u64(self.seed);
        let mut acc_rng = StdRng::seed_from_u64(self.seed ^ 0xACCE_0000);

        // Seed from random placement (the classic SA setup; seeding from
        // TopoLB would conflate the comparison).
        let seed_span = obs::span("anneal.seed");
        let mut m = RandomMap::new(self.seed ^ 0x5eed).map(tasks, topo);
        let mut best = m.clone();
        let mut cur_hb = metrics::hop_bytes(tasks, topo, &m);
        let mut best_hb = cur_hb;
        drop(seed_span);

        if n < 2 || tasks.num_edges() == 0 {
            return m;
        }

        let _search_span = obs::span("anneal.search");
        let (mut n_acc, mut n_rej, mut n_void, mut n_steps) = (0u64, 0u64, 0u64, 0u64);

        // Scale-free initial temperature: proportional to the average
        // per-edge hop-bytes of the seed.
        let t0 = INITIAL_TEMP_FACTOR * cur_hb / tasks.num_edges() as f64;
        let mut temp = t0;
        let t_min = t0 * MIN_TEMP_FRACTION;

        while temp > t_min {
            // Generate one temperature step's proposals against the
            // step-start mapping.
            let proposals: Vec<Proposal> = (0..self.moves_per_temp)
                .map(|_| {
                    let a = prop_rng.gen_range(0..n);
                    // Candidate partner: another task (swap), or a free
                    // processor (move) when the machine has spare nodes.
                    if p > n && prop_rng.gen_bool(0.25) {
                        // Pick a random free processor by rejection
                        // sampling (free fraction is at least (p-n)/p).
                        let q = loop {
                            let q = prop_rng.gen_range(0..p);
                            if m.task_on(q).is_none() {
                                break q;
                            }
                        };
                        Proposal::Relocate(a, q)
                    } else {
                        let mut b = prop_rng.gen_range(0..n);
                        if b == a {
                            b = (b + 1) % n;
                        }
                        Proposal::Swap(a, b)
                    }
                })
                .collect();

            // Walk the batch in order against the live mapping.
            for &prop in &proposals {
                let delta = match prop {
                    Proposal::Swap(a, b) => swap_delta(tasks, topo, &m, a, b),
                    Proposal::Relocate(a, q) => {
                        // An earlier acceptance may have filled q; the
                        // proposal is then void (no acceptance draw).
                        if m.task_on(q).is_some() {
                            n_void += 1;
                            continue;
                        }
                        move_delta(tasks, topo, &m, a, q)
                    }
                };
                let accept = delta < 0.0 || acc_rng.gen_bool((-delta / temp).exp().min(1.0));
                if !accept {
                    n_rej += 1;
                }
                if accept {
                    n_acc += 1;
                    match prop {
                        Proposal::Swap(a, b) => m.swap_tasks(a, b),
                        Proposal::Relocate(a, q) => m.move_task(a, q),
                    }
                    cur_hb += delta;
                    if cur_hb < best_hb {
                        best_hb = cur_hb;
                        best = m.clone();
                    }
                }
            }
            n_steps += 1;
            obs::series_push("anneal.hb", cur_hb);
            temp *= self.cooling;
        }
        obs::counter_add("anneal.proposals", n_steps * self.moves_per_temp as u64);
        obs::counter_add("anneal.accepted", n_acc);
        obs::counter_add("anneal.rejected", n_rej);
        obs::counter_add("anneal.voided", n_void);
        obs::counter_add("anneal.temp_steps", n_steps);
        best
    }

    fn name(&self) -> String {
        "SimAnneal".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    #[test]
    fn beats_its_own_random_seed() {
        let tasks = gen::stencil2d(5, 5, 100.0, false);
        let topo = Torus::torus_2d(5, 5);
        let sa = SimulatedAnnealingMap::quick(3).map(&tasks, &topo);
        let seed = RandomMap::new(3 ^ 0x5eed).map(&tasks, &topo);
        let h_sa = metrics::hop_bytes(&tasks, &topo, &sa);
        let h_seed = metrics::hop_bytes(&tasks, &topo, &seed);
        assert!(h_sa < 0.6 * h_seed, "SA {h_sa} vs seed {h_seed}");
    }

    #[test]
    fn near_optimal_on_small_stencil() {
        // SA should find (near-)dilation-1 embeddings of a 4x4 mesh in a
        // 4x4 torus given enough moves.
        let tasks = gen::stencil2d(4, 4, 100.0, false);
        let topo = Torus::torus_2d(4, 4);
        let m = SimulatedAnnealingMap::new(1).map(&tasks, &topo);
        let hpb = metrics::hops_per_byte(&tasks, &topo, &m);
        assert!(hpb <= 1.35, "SA hpb {hpb}");
    }

    #[test]
    fn deterministic_per_seed() {
        let tasks = gen::random_graph(16, 3.0, 1.0, 100.0, 7);
        let topo = Torus::torus_2d(4, 4);
        let a = SimulatedAnnealingMap::quick(9).map(&tasks, &topo);
        let b = SimulatedAnnealingMap::quick(9).map(&tasks, &topo);
        assert_eq!(a, b);
    }

    #[test]
    fn uses_free_processors() {
        // 2 heavy communicators on an 8-node line with 6 free nodes:
        // relocation moves must bring them adjacent.
        let mut b = TaskGraph::builder(2);
        b.add_comm(0, 1, 1000.0);
        let tasks = b.build();
        let topo = Torus::mesh_1d(8);
        let m = SimulatedAnnealingMap::new(5).map(&tasks, &topo);
        assert_eq!(topo.distance(m.proc_of(0), m.proc_of(1)), 1);
    }

    use topomap_taskgraph::TaskGraph;

    #[test]
    fn edgeless_graph_short_circuits() {
        let tasks = TaskGraph::builder(4).build();
        let topo = Torus::torus_2d(2, 2);
        let m = SimulatedAnnealingMap::new(1).map(&tasks, &topo);
        assert_eq!(m.num_tasks(), 4);
    }
}
