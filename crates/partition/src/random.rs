//! Seeded random partitioning — the n-tasks-onto-k-groups analogue of the
//! paper's "random placement" baseline.

use crate::{Partition, Partitioner};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use topomap_taskgraph::TaskGraph;

/// Assign tasks to groups by a random permutation, keeping group *sizes*
/// balanced (each group receives `⌈n/k⌉` or `⌊n/k⌋` tasks) — random in
/// placement but not pathological in load, like scattering chares round-
/// robin over a shuffled processor list.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomPartition {
    pub(crate) seed: u64,
}

impl RandomPartition {
    pub fn new(seed: u64) -> Self {
        RandomPartition { seed }
    }
}

impl Partitioner for RandomPartition {
    fn partition(&self, g: &TaskGraph, k: usize) -> Partition {
        assert!(k > 0);
        let n = g.num_tasks();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut assignment = vec![0usize; n];
        for (i, &t) in order.iter().enumerate() {
            assignment[t] = i % k;
        }
        Partition::new(assignment, k)
    }

    fn name(&self) -> &'static str {
        "Random"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;

    #[test]
    fn sizes_balanced() {
        let g = gen::stencil2d(10, 10, 1.0, false);
        let p = RandomPartition::new(3).partition(&g, 7);
        let sizes = p.part_sizes();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::ring(20, 1.0);
        let a = RandomPartition::new(9).partition(&g, 4);
        let b = RandomPartition::new(9).partition(&g, 4);
        let c = RandomPartition::new(10).partition(&g, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_cut_is_high() {
        // A random partition of a stencil should cut far more than a
        // contiguous block partition: sanity-check the baseline is bad.
        let g = gen::stencil2d(8, 8, 1.0, false);
        let rnd = RandomPartition::new(1).partition(&g, 4);
        let blocks = Partition::new((0..64).map(|t| t / 16).collect(), 4);
        assert!(rnd.edge_cut(&g) > blocks.edge_cut(&g));
    }
}
