//! Random placement — the paper's baseline.
//!
//! "We also compare their performances to a load balancer which places the
//! tasks on the processors at random" (§5). On a 2D torus this yields
//! hops-per-byte ≈ √p/2, on a 3D torus ≈ 3·∛p/4 — the analytic curves of
//! Figures 1 and 3.

use crate::{Mapper, Mapping};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use topomap_taskgraph::TaskGraph;
use topomap_topology::Topology;

/// Uniform-random injective placement (seeded, deterministic per seed).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomMap {
    pub(crate) seed: u64,
}

impl RandomMap {
    pub fn new(seed: u64) -> Self {
        RandomMap { seed }
    }
}

impl Mapper for RandomMap {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "need at least as many processors as tasks");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut procs: Vec<usize> = (0..p).collect();
        procs.shuffle(&mut rng);
        procs.truncate(n);
        Mapping::new(procs, p)
    }

    fn name(&self) -> String {
        "Random".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use topomap_taskgraph::gen;
    use topomap_topology::{stats, Torus};

    #[test]
    fn deterministic_per_seed() {
        let tasks = gen::ring(20, 1.0);
        let topo = Torus::torus_2d(5, 5);
        assert_eq!(
            RandomMap::new(7).map(&tasks, &topo),
            RandomMap::new(7).map(&tasks, &topo)
        );
        assert_ne!(
            RandomMap::new(7).map(&tasks, &topo),
            RandomMap::new(8).map(&tasks, &topo)
        );
    }

    #[test]
    fn matches_analytic_expectation_on_torus() {
        // Paper §5.2.1: random placement hops-per-byte ≈ √p/2. Average a
        // few seeds on a 16x16 torus (p=256, expected 8).
        let tasks = gen::stencil2d(16, 16, 100.0, false);
        let topo = Torus::torus_2d(16, 16);
        let mut sum = 0.0;
        let runs = 5;
        for seed in 0..runs {
            let m = RandomMap::new(seed).map(&tasks, &topo);
            sum += metrics::hops_per_byte(&tasks, &topo, &m);
        }
        let measured = sum / runs as f64;
        let analytic = stats::expected_random_hops_torus_2d(256);
        assert!(
            (measured - analytic).abs() < 0.15 * analytic,
            "measured {measured} vs analytic {analytic}"
        );
    }
}
