//! Incremental load refinement — Charm++'s `RefineLB` family.
//!
//! Unlike the from-scratch strategies, a refiner starts from the *current*
//! object placement and migrates as few objects as possible: it moves
//! objects off overloaded processors onto underloaded ones until every
//! processor is within `tolerance` of the average load. Among candidate
//! moves it prefers the one that adds the least hop-bytes, so refinement
//! repairs load imbalance without wrecking a topology-aware placement —
//! the role it plays after TopoLB in a long-running Charm++ application
//! whose loads drift between LB steps.

use crate::database::LbDatabase;
use topomap_topology::{NodeId, Topology};

/// Incremental load-balance refiner.
#[derive(Debug, Clone, Copy)]
pub struct RefineLb {
    /// A processor is overloaded when its load exceeds
    /// `tolerance × average`.
    pub tolerance: f64,
    /// Upper bound on migrations (guards pathological inputs).
    pub max_migrations: usize,
}

impl Default for RefineLb {
    fn default() -> Self {
        RefineLb {
            tolerance: 1.05,
            max_migrations: usize::MAX,
        }
    }
}

/// The result of a refinement: the new assignment plus what it cost.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// `assignment[o]` = the processor object `o` now lives on.
    pub assignment: Vec<NodeId>,
    /// Objects that changed processor.
    pub migrations: usize,
    /// Max processor load before/after.
    pub max_load_before: f64,
    pub max_load_after: f64,
}

impl RefineLb {
    /// Refine `current` (object → processor) against the measured `db` on
    /// `topo`.
    pub fn rebalance(
        &self,
        db: &LbDatabase,
        topo: &dyn Topology,
        current: &[NodeId],
    ) -> RefineOutcome {
        let p = topo.num_nodes();
        let n = db.num_objects();
        assert_eq!(current.len(), n);
        let mut proc_of = current.to_vec();

        let mut loads = vec![0f64; p];
        for (o, &q) in proc_of.iter().enumerate() {
            loads[q] += db.loads[o];
        }
        let total: f64 = loads.iter().sum();
        let avg = total / p as f64;
        let threshold = avg * self.tolerance;
        let max_before = loads.iter().fold(0.0f64, |m, &l| m.max(l));

        // Object communication adjacency (for hop-byte deltas).
        let graph = db.to_task_graph();

        let mut migrations = 0usize;
        while migrations < self.max_migrations {
            // Heaviest overloaded processor.
            let Some(src) = (0..p)
                .filter(|&q| loads[q] > threshold)
                .max_by(|&a, &b| loads[a].partial_cmp(&loads[b]).unwrap().then(b.cmp(&a)))
            else {
                break;
            };
            // Lightest processor.
            let dst = (0..p)
                .min_by(|&a, &b| loads[a].partial_cmp(&loads[b]).unwrap().then(a.cmp(&b)))
                .expect("p > 0");
            if dst == src {
                break;
            }
            // Candidate objects on src small enough not to overload dst;
            // pick the one whose move adds the least hop-bytes.
            let mut best: Option<(f64, usize)> = None;
            for o in 0..n {
                if proc_of[o] != src {
                    continue;
                }
                let w = db.loads[o];
                // Admissible iff the move strictly reduces the pair's
                // maximum (src sheds, dst stays below src's old load):
                // guarantees monotone progress and termination even when
                // object granularity can't fit under the threshold.
                if w <= 0.0 || loads[dst] + w >= loads[src] {
                    continue;
                }
                let delta: f64 = graph
                    .neighbors(o)
                    .map(|(u, c)| {
                        let pu = proc_of[u];
                        c * (topo.distance(dst, pu) as f64 - topo.distance(src, pu) as f64)
                    })
                    .sum();
                let better = match best {
                    None => true,
                    Some((bd, bo)) => delta < bd || (delta == bd && o < bo),
                };
                if better {
                    best = Some((delta, o));
                }
            }
            let Some((_, victim)) = best else { break };
            loads[src] -= db.loads[victim];
            loads[dst] += db.loads[victim];
            proc_of[victim] = dst;
            migrations += 1;
        }

        let max_after = loads.iter().fold(0.0f64, |m, &l| m.max(l));
        RefineOutcome {
            assignment: proc_of,
            migrations,
            max_load_before: max_before,
            max_load_after: max_after,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_core::{pipeline::two_phase, TopoLb};
    use topomap_partition::{MultilevelKWay, Partition};
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    fn skewed_db(n: usize) -> LbDatabase {
        let mut db = LbDatabase::new(n);
        for o in 0..n {
            db.record_load(o, 1.0 + (o % 3) as f64);
        }
        db
    }

    #[test]
    fn repairs_gross_imbalance_with_few_migrations() {
        let db = skewed_db(32);
        let topo = Torus::torus_2d(4, 4);
        // Pathological start: everything on processor 0 (an assignment
        // may colocate any number of objects).
        let out = RefineLb::default().rebalance(&db, &topo, &[0; 32]);
        assert!(out.max_load_after < 0.2 * out.max_load_before);
        assert!(out.migrations >= 16, "migrations {}", out.migrations);
        // All objects accounted for.
        assert_eq!(out.assignment.len(), 32);
    }

    #[test]
    fn no_op_when_already_balanced() {
        let mut db = LbDatabase::new(16);
        for o in 0..16 {
            db.record_load(o, 1.0);
        }
        let topo = Torus::torus_2d(4, 4);
        let current: Vec<NodeId> = (0..16).collect();
        let out = RefineLb::default().rebalance(&db, &topo, &current);
        assert_eq!(out.migrations, 0);
        assert_eq!(out.assignment, current);
    }

    #[test]
    fn preserves_topology_aware_placement() {
        // Start from TopoLB; perturb one processor's load heavily; refine
        // must fix the hotspot while keeping hop-bytes near the original.
        let g = gen::stencil2d(8, 8, 2048.0, false);
        let mut db = LbDatabase::from_task_graph(&g);
        let topo = Torus::torus_2d(4, 4);
        let base = two_phase(
            &db.to_task_graph(),
            &topo,
            &MultilevelKWay::default(),
            &TopoLb::default(),
        )
        .task_placement();
        // Load spike on the objects of processor 0.
        for (load, &q) in db.loads.iter_mut().zip(&base) {
            if q == 0 {
                *load *= 6.0;
            }
        }
        let out = RefineLb {
            tolerance: 1.25,
            ..Default::default()
        }
        .rebalance(&db, &topo, &base);
        assert!(out.max_load_after < out.max_load_before);
        let spiked = db.to_task_graph();
        let imbalance = |a: &[NodeId]| Partition::new(a.to_vec(), 16).imbalance_for(&spiked);
        assert!(imbalance(&out.assignment) < imbalance(&base));
        // Migration was incremental, not a remap.
        let changed = base
            .iter()
            .zip(&out.assignment)
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed <= db.num_objects() / 3, "changed {changed}");
        // Hop-bytes stays in the same ballpark (< 2x).
        let hop_bytes = |a: &[NodeId]| {
            g.edges()
                .map(|(x, y, w)| w * topo.distance(a[x], a[y]) as f64)
                .sum::<f64>()
        };
        assert!(hop_bytes(&out.assignment) <= 2.0 * hop_bytes(&base).max(1.0));
    }

    #[test]
    fn respects_migration_cap() {
        let db = skewed_db(64);
        let topo = Torus::torus_2d(4, 4);
        let out = RefineLb {
            max_migrations: 5,
            ..Default::default()
        }
        .rebalance(&db, &topo, &[0; 64]);
        assert_eq!(out.migrations, 5);
    }
}
