//! Distance statistics over topologies.
//!
//! The paper validates random placement against analytic expectations
//! (§5.2): on a 2D torus of `p` nodes the expected distance between two
//! random processors is `√p / 2`, on a 3D torus it is `3·∛p / 4`. This
//! module provides both the measured quantities (average pairwise
//! distance, per-node distance sums used by TopoLB's second-order
//! estimation) and those closed forms.

use crate::{NodeId, Topology};

/// Average distance between two distinct random processors
/// (`Σ_{a≠b} d(a,b) / (p·(p−1))`).
pub fn average_pairwise_distance<T: Topology + ?Sized>(t: &T) -> f64 {
    let n = t.num_nodes();
    if n <= 1 {
        return 0.0;
    }
    let total: u64 = (0..n).map(|a| t.sum_distance_from(a)).sum();
    total as f64 / (n as f64 * (n as f64 - 1.0))
}

/// Average distance from each node to *all* nodes (including itself), the
/// `Σ_{p_j ∈ V_p} d(p, p_j) / |V_p|` table of the paper's second-order
/// estimation function. Computed once in O(p²) and reused across TopoLB
/// iterations.
#[derive(Debug, Clone)]
pub struct AvgDistTable {
    avg: Vec<f64>,
    sum: Vec<u64>,
}

impl AvgDistTable {
    pub fn new<T: Topology + ?Sized>(t: &T) -> Self {
        let n = t.num_nodes();
        let sum: Vec<u64> = (0..n).map(|a| t.sum_distance_from(a)).collect();
        let avg = sum.iter().map(|&s| s as f64 / n as f64).collect();
        AvgDistTable { avg, sum }
    }

    /// `E_{q ~ U[V_p]}[d(p, q)]`.
    #[inline]
    pub fn avg(&self, p: NodeId) -> f64 {
        self.avg[p]
    }

    /// `Σ_{q ∈ V_p} d(p, q)`.
    #[inline]
    pub fn sum(&self, p: NodeId) -> u64 {
        self.sum[p]
    }

    /// The node with minimum total distance to all others — the topology
    /// "center", used as TopoCentLB's first placement.
    pub fn center(&self) -> NodeId {
        self.sum
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .map(|(i, _)| i)
            .expect("non-empty topology")
    }
}

/// Paper §5.2.1: expected distance between two uniform-random processors on
/// a `√p × √p` 2D torus is `√p / 2` (each dimension contributes `√p / 4`
/// with wraparound).
pub fn expected_random_hops_torus_2d(p: usize) -> f64 {
    (p as f64).sqrt() / 2.0
}

/// Paper §5.2.2: expected distance on a `∛p`-sided 3D torus is `3·∛p / 4`.
pub fn expected_random_hops_torus_3d(p: usize) -> f64 {
    3.0 * (p as f64).cbrt() / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphTopology, Torus};

    /// Exact expected distance between two independent uniform-random
    /// nodes (with replacement): `Σ_{a,b} d(a,b) / p²`, the brute-force
    /// reference for the closed forms. Differs from
    /// `average_pairwise_distance` by including the `a == b` diagonal;
    /// this matches the analytic `E[hops]` the paper plots against random
    /// placement.
    fn expected_random_distance<T: Topology + ?Sized>(t: &T) -> f64 {
        let n = t.num_nodes();
        let total: u64 = (0..n).map(|a| t.sum_distance_from(a)).sum();
        total as f64 / (n as f64 * n as f64)
    }

    #[test]
    fn avg_table_matches_bruteforce() {
        let t = Torus::torus_2d(4, 6);
        let table = AvgDistTable::new(&t);
        for a in 0..t.num_nodes() {
            let s: u64 = (0..t.num_nodes()).map(|b| t.distance(a, b) as u64).sum();
            assert_eq!(table.sum(a), s);
            assert!((table.avg(a) - s as f64 / 24.0).abs() < 1e-12);
        }
    }

    #[test]
    fn torus_analytic_formula_even_side() {
        // For an even side n, per-dimension expected wrap distance over all
        // ordered pairs is exactly n/4; two dims give sqrt(p)/2.
        for side in [4usize, 8, 16] {
            let t = Torus::torus_2d(side, side);
            let measured = expected_random_distance(&t);
            let analytic = expected_random_hops_torus_2d(side * side);
            assert!(
                (measured - analytic).abs() < 1e-9,
                "side {side}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn torus_3d_analytic_formula_even_side() {
        for side in [4usize, 8] {
            let t = Torus::torus_3d(side, side, side);
            let measured = expected_random_distance(&t);
            let analytic = expected_random_hops_torus_3d(side * side * side);
            assert!(
                (measured - analytic).abs() < 1e-9,
                "side {side}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn star_center_is_hub() {
        let g = GraphTopology::star(9);
        let table = AvgDistTable::new(&g);
        assert_eq!(table.center(), 0);
    }

    #[test]
    fn torus_center_by_symmetry_any_node() {
        // Every torus node is equivalent; center() picks the lowest id.
        let t = Torus::torus_2d(4, 4);
        let table = AvgDistTable::new(&t);
        assert_eq!(table.center(), 0);
        let s0 = table.sum(0);
        for a in 0..16 {
            assert_eq!(table.sum(a), s0);
        }
    }

    #[test]
    fn mesh_center_is_middle() {
        let t = Torus::mesh_2d(5, 5);
        let table = AvgDistTable::new(&t);
        assert_eq!(table.center(), t.node_at(&[2, 2]));
    }

    #[test]
    fn average_pairwise_excludes_diagonal() {
        let g = GraphTopology::ring(4);
        // distances from any node: 0,1,2,1 -> pairwise avg over distinct = 4/3
        assert!((average_pairwise_distance(&g) - 4.0 / 3.0).abs() < 1e-12);
        // with diagonal: 4/4 = 1.0
        assert!((expected_random_distance(&g) - 1.0).abs() < 1e-12);
    }
}
