//! Descriptive statistics over task graphs, used by the experiment harness
//! to report the same workload characteristics the paper quotes (e.g. the
//! average coalesced degree of the LeanMD graphs in §5.2.3).

use crate::TaskGraph;

/// Summary statistics of a task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub num_tasks: usize,
    pub num_edges: usize,
    /// Average vertex degree `2|E|/|V|`.
    pub avg_degree: f64,
    pub(crate) max_degree: usize,
    /// Fraction of all possible pairs that communicate.
    pub(crate) density: f64,
    pub total_comm_bytes: f64,
    pub(crate) total_load: f64,
    /// Max over min non-zero vertex weight (1.0 = perfectly uniform).
    pub load_imbalance: f64,
}

/// Compute [`GraphStats`] for a graph.
pub fn graph_stats(g: &TaskGraph) -> GraphStats {
    let n = g.num_tasks();
    let m = g.num_edges();
    let mut max_w = f64::MIN;
    let mut min_w = f64::MAX;
    for t in 0..n {
        let w = g.vertex_weight(t);
        if w > 0.0 {
            max_w = max_w.max(w);
            min_w = min_w.min(w);
        }
    }
    let load_imbalance = if min_w > 0.0 && min_w.is_finite() && max_w.is_finite() {
        max_w / min_w
    } else {
        1.0
    };
    GraphStats {
        num_tasks: n,
        num_edges: m,
        avg_degree: if n > 0 {
            2.0 * m as f64 / n as f64
        } else {
            0.0
        },
        max_degree: g.max_degree(),
        density: if n > 1 {
            m as f64 / (n as f64 * (n as f64 - 1.0) / 2.0)
        } else {
            0.0
        },
        total_comm_bytes: g.total_comm(),
        total_load: g.total_vertex_weight(),
        load_imbalance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stencil_stats() {
        let g = gen::stencil2d(4, 4, 100.0, true);
        let s = graph_stats(&g);
        assert_eq!(s.num_tasks, 16);
        assert_eq!(s.num_edges, 32);
        assert_eq!(s.avg_degree, 4.0);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.load_imbalance, 1.0);
        assert_eq!(s.total_comm_bytes, 32.0 * 200.0);
    }

    #[test]
    fn all_to_all_density_is_one() {
        let g = gen::all_to_all(6, 1.0);
        let s = graph_stats(&g);
        assert!((s.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_tracks_weights() {
        let mut b = crate::TaskGraph::builder(3);
        b.set_task_weight(0, 1.0)
            .set_task_weight(1, 4.0)
            .set_task_weight(2, 2.0);
        let s = graph_stats(&b.build());
        assert_eq!(s.load_imbalance, 4.0);
    }
}
