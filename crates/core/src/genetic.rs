//! Genetic-algorithm mapping — the second "physical optimization" family
//! from the paper's related work (§2: Arunkumar & Chockalingam's
//! randomized heuristics \[2\]; Orduña, Silla & Duato's iterated-exchange
//! seeds \[18\]).
//!
//! [`GeneticMap`] evolves a population of permutations (task→processor
//! bijections extended with free processors) under the hop-bytes fitness:
//! tournament selection, cycle-safe position crossover, swap mutation,
//! elitism. Like SA, it exists to reproduce the paper's cost/quality
//! comparison — "the time required for them to converge is usually quite
//! large compared to the execution time of the application" — not to be
//! the production mapper.

use crate::obs;
use crate::par::Parallelism;
use crate::{metrics, Mapper, Mapping};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use topomap_taskgraph::TaskGraph;
use topomap_topology::Topology;

/// Probability a child position is taken from parent A in crossover.
const CROSSOVER_BIAS: f64 = 0.5;
/// Per-child expected number of mutation swaps.
const MUTATION_SWAPS: f64 = 2.0;
/// Individuals preserved unchanged each generation.
const ELITE: usize = 4;

/// Genetic-algorithm mapper over hop-bytes.
#[derive(Debug, Clone)]
pub struct GeneticMap {
    pub seed: u64,
    pub population: usize,
    pub generations: usize,
    /// Thread configuration for the population fitness batches. Children
    /// are generated serially (the RNG stream fixes the search), only
    /// their fitness evaluation fans out, so any setting yields the same
    /// mapping.
    pub par: Parallelism,
}

impl Default for GeneticMap {
    fn default() -> Self {
        GeneticMap {
            seed: 0x6e6e,
            population: 48,
            generations: 300,
            par: Parallelism::default(),
        }
    }
}

impl GeneticMap {
    pub fn new(seed: u64) -> Self {
        GeneticMap {
            seed,
            ..Default::default()
        }
    }

    /// A lighter configuration for tests and examples.
    pub fn quick(seed: u64) -> Self {
        GeneticMap {
            seed,
            population: 24,
            generations: 80,
            ..Default::default()
        }
    }
}

/// A genome: `perm[t]` = processor of task `t`; the tail `perm[n..]`
/// holds the unused processors so crossover/mutation stay permutations.
type Genome = Vec<usize>;

/// Hop-bytes of each genome, fanned out over `par`. Each genome's
/// edge sum runs on a single worker in edge order, so the values match a
/// per-genome serial evaluation exactly.
fn batch_fitness(
    par: Parallelism,
    tasks: &TaskGraph,
    topo: &dyn Topology,
    genomes: &[Genome],
    n: usize,
    p: usize,
) -> Vec<f64> {
    let maps: Vec<Mapping> = genomes
        .iter()
        .map(|g| Mapping::new(g[..n].to_vec(), p))
        .collect();
    obs::counter_add("genetic.fitness_evaluations", genomes.len() as u64);
    metrics::hop_bytes_many(tasks, topo, &maps, par)
}

/// Position-based crossover that preserves permutation validity: child
/// copies A's value at positions where a biased coin lands A, then fills
/// remaining positions with B's values in B's order, skipping used ones.
fn crossover(a: &Genome, b: &Genome, bias: f64, rng: &mut StdRng) -> Genome {
    let len = a.len();
    let mut child = vec![usize::MAX; len];
    let mut used = vec![false; len];
    for i in 0..len {
        if rng.gen_bool(bias) {
            child[i] = a[i];
            used[a[i]] = true;
        }
    }
    let mut fill = b.iter().copied().filter(|&v| !used[v]);
    for slot in child.iter_mut() {
        if *slot == usize::MAX {
            *slot = fill.next().expect("permutation fill");
        }
    }
    child
}

impl Mapper for GeneticMap {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "need at least as many processors as tasks");
        let _map_span = obs::span("genetic.map");
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Initial population of random permutations of all p processors.
        let init_span = obs::span("genetic.init_pop");
        let genomes: Vec<Genome> = (0..self.population.max(2))
            .map(|_| {
                let mut g: Genome = (0..p).collect();
                g.shuffle(&mut rng);
                g
            })
            .collect();
        obs::counter_add("genetic.initial_pop", genomes.len() as u64);
        let fits = batch_fitness(self.par, tasks, topo, &genomes, n, p);
        let mut pop: Vec<(f64, Genome)> = fits.into_iter().zip(genomes).collect();
        pop.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
        drop(init_span);

        let _evolve_span = obs::span("genetic.evolve");
        let mut children_bred = 0u64;
        for _gen in 0..self.generations {
            let mut next: Vec<(f64, Genome)> = pop[..ELITE.min(pop.len())].to_vec();
            // Breed serially (the RNG draw order defines the algorithm),
            // then score the whole brood in one parallel batch.
            let mut children: Vec<Genome> = Vec::with_capacity(pop.len() - next.len());
            while next.len() + children.len() < pop.len() {
                // Tournament selection (size 3).
                let pick = |rng: &mut StdRng| -> usize {
                    (0..3).map(|_| rng.gen_range(0..pop.len())).min().unwrap()
                };
                let (ia, ib) = (pick(&mut rng), pick(&mut rng));
                let mut child = crossover(&pop[ia].1, &pop[ib].1, CROSSOVER_BIAS, &mut rng);
                // Poisson-ish mutation: expected `MUTATION_SWAPS` swaps.
                let swaps = (MUTATION_SWAPS * rng.gen_range(0.0..2.0)).round() as usize;
                for _ in 0..swaps {
                    let i = rng.gen_range(0..p);
                    let j = rng.gen_range(0..p);
                    child.swap(i, j);
                }
                children.push(child);
            }
            children_bred += children.len() as u64;
            let fits = batch_fitness(self.par, tasks, topo, &children, n, p);
            next.extend(fits.into_iter().zip(children));
            next.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap());
            pop = next;
            obs::series_push("genetic.best_hb", pop[0].0);
        }
        obs::counter_add("genetic.generations", self.generations as u64);
        obs::counter_add("genetic.children_bred", children_bred);

        let best = &pop[0].1;
        Mapping::new(best[..n].to_vec(), p)
    }

    fn name(&self) -> String {
        "Genetic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, RandomMap};
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    #[test]
    fn crossover_preserves_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a: Genome = (0..20).collect();
        let mut b: Genome = (0..20).collect();
        a.shuffle(&mut rng);
        b.shuffle(&mut rng);
        for _ in 0..50 {
            let c = crossover(&a, &b, 0.5, &mut rng);
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        }
    }

    #[test]
    fn improves_over_random() {
        let tasks = gen::stencil2d(4, 4, 100.0, false);
        let topo = Torus::torus_2d(4, 4);
        let ga = GeneticMap::quick(2).map(&tasks, &topo);
        let rnd = RandomMap::new(2).map(&tasks, &topo);
        let h_ga = metrics::hop_bytes(&tasks, &topo, &ga);
        let h_rnd = metrics::hop_bytes(&tasks, &topo, &rnd);
        assert!(h_ga < 0.75 * h_rnd, "GA {h_ga} vs random {h_rnd}");
    }

    #[test]
    fn deterministic_per_seed() {
        let tasks = gen::ring(12, 100.0);
        let topo = Torus::torus_2d(4, 4);
        assert_eq!(
            GeneticMap::quick(4).map(&tasks, &topo),
            GeneticMap::quick(4).map(&tasks, &topo)
        );
    }

    #[test]
    fn valid_with_spare_processors() {
        let tasks = gen::ring(6, 10.0);
        let topo = Torus::torus_2d(4, 4);
        let m = GeneticMap::quick(1).map(&tasks, &topo);
        let mut seen = std::collections::HashSet::new();
        for t in 0..6 {
            assert!(seen.insert(m.proc_of(t)));
        }
    }
}
