//! # topomap-taskgraph
//!
//! Task graphs — the `G_t = (V_t, E_t)` of the paper — plus the workload
//! generators used throughout its evaluation.
//!
//! A task graph is a weighted undirected graph: vertices are compute
//! objects (Charm++ chares, or groups of them after coalescing) carrying a
//! computation weight, and edges carry the total bytes communicated per
//! iteration between their endpoints. The paper's process-based model has
//! no DAG dependencies — edges are symmetric communication volumes (§1).
//!
//! ## Generators
//!
//! - [`gen::stencil2d`] / [`gen::stencil3d`] — the Jacobi-like benchmark
//!   patterns of §5 (4-/6-point stencils, optionally periodic).
//! - [`gen::leanmd`] — a synthetic stand-in for the paper's LeanMD
//!   molecular-dynamics load dumps (§5.2.3); see its docs for the
//!   substitution argument.
//! - [`gen::random_graph`], [`gen::ring`], [`gen::all_to_all`] — synthetic
//!   stress patterns.
//!
//! ## Example
//!
//! ```
//! use topomap_taskgraph::gen;
//!
//! // 512 tasks communicating in an 8x8x8 3D stencil, 1 KiB per message.
//! let g = gen::stencil3d(8, 8, 8, 1024.0, false);
//! assert_eq!(g.num_tasks(), 512);
//! ```

pub mod gen;
pub mod io;
pub mod stats;
pub mod transform;

use serde::{Deserialize, Serialize};

/// Identifier of a task (a vertex of `G_t`).
pub type TaskId = usize;

/// A weighted undirected task graph in CSR form.
///
/// Construction goes through [`TaskGraphBuilder`], which accumulates
/// duplicate edge declarations (two `add_comm(a, b, …)` calls sum their
/// byte counts, matching how the Charm++ LB database merges communication
/// records).
///
/// Invariants every graph holds, whatever order the edges were declared in
/// (also after [`TaskGraph::coalesce`]), and that consumers may lean on:
/// the adjacency is symmetric (`j ∈ N(t)` iff `t ∈ N(j)`, with the same
/// weight), every [`TaskGraph::neighbors`] list is strictly ascending in
/// task id, edge weights are finite and > 0, and no task neighbours itself.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    vwgt: Vec<f64>,
    xadj: Vec<usize>,
    adj: Vec<u32>,
    ewgt: Vec<f64>,
    /// Optional per-task spatial coordinates (geometric generators attach
    /// them; the SFC/RCB mappers consume them). 2-D workloads pad z = 0.
    coords: Option<Vec<[f64; 3]>>,
}

impl TaskGraph {
    /// Start building a graph with `n` tasks of unit compute weight.
    pub fn builder(n: usize) -> TaskGraphBuilder {
        TaskGraphBuilder {
            vwgt: vec![1.0; n],
            edges: Vec::new(),
            coords: None,
        }
    }

    /// Per-task spatial coordinates, if the workload carries geometry.
    pub fn coords(&self) -> Option<&[[f64; 3]]> {
        self.coords.as_deref()
    }

    /// Number of tasks `|V_t|`.
    pub fn num_tasks(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of undirected edges `|E_t|`.
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Compute weight of task `t`.
    pub fn vertex_weight(&self, t: TaskId) -> f64 {
        self.vwgt[t]
    }

    /// Sum of all compute weights.
    pub fn total_vertex_weight(&self) -> f64 {
        self.vwgt.iter().sum()
    }

    /// Degree of task `t` in the task graph (`δ(t)` in the paper's
    /// complexity analysis).
    pub fn degree(&self, t: TaskId) -> usize {
        self.xadj[t + 1] - self.xadj[t]
    }

    /// Maximum degree over all tasks.
    pub(crate) fn max_degree(&self) -> usize {
        (0..self.num_tasks())
            .map(|t| self.degree(t))
            .max()
            .unwrap_or(0)
    }

    /// Neighbors of `t` with edge weights (bytes).
    pub fn neighbors(&self, t: TaskId) -> impl Iterator<Item = (TaskId, f64)> + '_ {
        let lo = self.xadj[t];
        let hi = self.xadj[t + 1];
        self.adj[lo..hi]
            .iter()
            .zip(&self.ewgt[lo..hi])
            .map(|(&u, &w)| (u as TaskId, w))
    }

    /// Total communication of task `t` with all its neighbors (bytes).
    pub fn weighted_degree(&self, t: TaskId) -> f64 {
        let lo = self.xadj[t];
        let hi = self.xadj[t + 1];
        self.ewgt[lo..hi].iter().sum()
    }

    /// Every undirected edge exactly once (`a < b`), with weight.
    pub fn edges(&self) -> impl Iterator<Item = (TaskId, TaskId, f64)> + '_ {
        (0..self.num_tasks()).flat_map(move |a| {
            self.neighbors(a)
                .filter(move |&(b, _)| a < b)
                .map(move |(b, w)| (a, b, w))
        })
    }

    /// Total bytes communicated per iteration: `Σ_{e ∈ E_t} c_e`.
    pub fn total_comm(&self) -> f64 {
        self.ewgt.iter().sum::<f64>() / 2.0
    }

    /// The weight of edge `(a, b)`, or `None` if absent. O(δ(a)).
    pub fn edge_weight(&self, a: TaskId, b: TaskId) -> Option<f64> {
        self.neighbors(a).find(|&(u, _)| u == b).map(|(_, w)| w)
    }

    /// Coalesce tasks into groups according to `assignment[t] = group id`,
    /// producing a new task graph on `num_groups` vertices. Vertex weights
    /// sum; edges between distinct groups accumulate; intra-group
    /// communication disappears (it becomes processor-local, which is
    /// exactly why cut-reducing partitioners are preferred in phase 1).
    pub fn coalesce(&self, assignment: &[usize], num_groups: usize) -> TaskGraph {
        assert_eq!(assignment.len(), self.num_tasks());
        let mut b = TaskGraph::builder(num_groups);
        for g in 0..num_groups {
            b.set_task_weight(g, 0.0);
        }
        for (t, &g) in assignment.iter().enumerate() {
            assert!(g < num_groups, "group id out of range");
            b.add_task_weight(g, self.vwgt[t]);
        }
        for (a, bb, w) in self.edges() {
            let (ga, gb) = (assignment[a], assignment[bb]);
            if ga != gb {
                b.add_comm(ga, gb, w);
            }
        }
        // Geometry survives coalescing: each group sits at the
        // weight-weighted centroid of its members (plain mean when the
        // group's total weight is zero), so geometric mappers keep
        // working on pre-partitioned graphs.
        if let Some(cs) = &self.coords {
            let mut sums = vec![[0.0f64; 3]; num_groups];
            let mut plain = vec![[0.0f64; 3]; num_groups];
            let mut wsum = vec![0.0f64; num_groups];
            let mut cnt = vec![0usize; num_groups];
            for (t, &g) in assignment.iter().enumerate() {
                let w = self.vwgt[t];
                for d in 0..3 {
                    sums[g][d] += cs[t][d] * w;
                    plain[g][d] += cs[t][d];
                }
                wsum[g] += w;
                cnt[g] += 1;
            }
            let mut out = vec![[0.0f64; 3]; num_groups];
            for g in 0..num_groups {
                let (sum, by) = if wsum[g] > 0.0 {
                    (sums[g], wsum[g])
                } else if cnt[g] > 0 {
                    (plain[g], cnt[g] as f64) // unweighted mean of the members
                } else {
                    continue; // an empty group stays at the origin
                };
                for d in 0..3 {
                    out[g][d] = sum[d] / by;
                }
            }
            b.set_coords(out);
        }
        b.build()
    }
}

/// Coordinate validation for the builder.
fn validate_coords(coords: &[[f64; 3]], n: usize) {
    assert_eq!(
        coords.len(),
        n,
        "coords cover {} tasks but the graph has {n}",
        coords.len()
    );
    for (t, c) in coords.iter().enumerate() {
        assert!(
            c.iter().all(|v| v.is_finite()),
            "task {t} has non-finite coordinate {c:?}"
        );
    }
}

/// Incremental builder for [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct TaskGraphBuilder {
    vwgt: Vec<f64>,
    edges: Vec<(u32, u32, f64)>,
    coords: Option<Vec<[f64; 3]>>,
}

impl TaskGraphBuilder {
    /// Set the compute weight of task `t`.
    pub fn set_task_weight(&mut self, t: TaskId, w: f64) -> &mut Self {
        assert!(w >= 0.0 && w.is_finite(), "invalid task weight {w}");
        self.vwgt[t] = w;
        self
    }

    /// Add to the compute weight of task `t`.
    pub(crate) fn add_task_weight(&mut self, t: TaskId, w: f64) -> &mut Self {
        assert!(w >= 0.0 && w.is_finite());
        self.vwgt[t] += w;
        self
    }

    /// Record `bytes` of communication between `a` and `b` (accumulates
    /// across calls). Self-communication is ignored — it never crosses the
    /// network.
    pub fn add_comm(&mut self, a: TaskId, b: TaskId, bytes: f64) -> &mut Self {
        assert!(
            a < self.vwgt.len() && b < self.vwgt.len(),
            "task id out of range"
        );
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "invalid byte count {bytes}"
        );
        if a != b && bytes > 0.0 {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            self.edges.push((lo as u32, hi as u32, bytes));
        }
        self
    }

    /// Attach per-task coordinates (one `[x, y, z]` per task; 2-D
    /// workloads pad z = 0). Panics on length mismatch or non-finite
    /// components.
    pub fn set_coords(&mut self, coords: Vec<[f64; 3]>) -> &mut Self {
        validate_coords(&coords, self.vwgt.len());
        self.coords = Some(coords);
        self
    }

    /// Finalize into CSR form, merging duplicate edges.
    pub fn build(&mut self) -> TaskGraph {
        let n = self.vwgt.len();
        // Merge duplicates.
        self.edges.sort_unstable_by_key(|x| (x.0, x.1));
        let mut merged: Vec<(u32, u32, f64)> = Vec::with_capacity(self.edges.len());
        for &(a, b, w) in &self.edges {
            match merged.last_mut() {
                Some(last) if last.0 == a && last.1 == b => last.2 += w,
                _ => merged.push((a, b, w)),
            }
        }
        // Count degrees.
        let mut xadj = vec![0usize; n + 1];
        for &(a, b, _) in &merged {
            xadj[a as usize + 1] += 1;
            xadj[b as usize + 1] += 1;
        }
        for i in 0..n {
            xadj[i + 1] += xadj[i];
        }
        let m2 = merged.len() * 2;
        let mut adj = vec![0u32; m2];
        let mut ewgt = vec![0f64; m2];
        let mut cursor = xadj.clone();
        for &(a, b, w) in &merged {
            adj[cursor[a as usize]] = b;
            ewgt[cursor[a as usize]] = w;
            cursor[a as usize] += 1;
            adj[cursor[b as usize]] = a;
            ewgt[cursor[b as usize]] = w;
            cursor[b as usize] += 1;
        }
        TaskGraph {
            vwgt: std::mem::take(&mut self.vwgt),
            xadj,
            adj,
            ewgt,
            coords: self.coords.take(),
        }
    }
}

/// Plain-old-data form of a task graph for serialization (the LB dump
/// format of `topomap-lb` embeds this).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub(crate) struct TaskGraphData {
    pub(crate) vertex_weights: Vec<f64>,
    /// Undirected edges, each once, as `(a, b, bytes)`.
    pub(crate) edges: Vec<(usize, usize, f64)>,
    /// Optional per-task coordinates. Absent or `null` in dumps written
    /// before geometry existed — both load as `None`.
    pub(crate) coords: Option<Vec<[f64; 3]>>,
}

impl From<&TaskGraph> for TaskGraphData {
    fn from(g: &TaskGraph) -> Self {
        TaskGraphData {
            vertex_weights: g.vwgt.clone(),
            edges: g.edges().collect(),
            coords: g.coords.clone(),
        }
    }
}

impl From<&TaskGraphData> for TaskGraph {
    fn from(d: &TaskGraphData) -> Self {
        let mut b = TaskGraph::builder(d.vertex_weights.len());
        for (t, &w) in d.vertex_weights.iter().enumerate() {
            b.set_task_weight(t, w);
        }
        for &(a, bb, w) in &d.edges {
            b.add_comm(a, bb, w);
        }
        if let Some(cs) = &d.coords {
            b.set_coords(cs.clone());
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_merges_duplicates() {
        let mut b = TaskGraph::builder(3);
        b.add_comm(0, 1, 10.0)
            .add_comm(1, 0, 5.0)
            .add_comm(1, 2, 7.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), Some(15.0));
        assert_eq!(g.edge_weight(2, 1), Some(7.0));
        assert_eq!(g.edge_weight(0, 2), None);
        assert_eq!(g.total_comm(), 22.0);
    }

    #[test]
    fn self_loops_and_zero_edges_dropped() {
        let mut b = TaskGraph::builder(2);
        b.add_comm(0, 0, 100.0).add_comm(0, 1, 0.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_comm(), 0.0);
    }

    /// The invariants on the [`TaskGraph`] doc comment.
    fn assert_adjacency_invariants(g: &TaskGraph) {
        for t in 0..g.num_tasks() {
            let nbrs: Vec<(TaskId, f64)> = g.neighbors(t).collect();
            assert!(
                nbrs.windows(2).all(|w| w[0].0 < w[1].0),
                "neighbours of {t} not strictly ascending: {nbrs:?}"
            );
            for (j, w) in nbrs {
                assert_ne!(j, t, "self-loop at {t}");
                assert!(w.is_finite() && w > 0.0, "weight {w} on ({t}, {j})");
                assert_eq!(g.edge_weight(j, t), Some(w), "({t}, {j}) has no twin");
            }
        }
    }

    #[test]
    fn adjacency_is_symmetric_ascending_positive_and_loop_free() {
        // Scrambled order, both orientations, duplicates, zero weights and
        // self-loops, declared in no particular order.
        let mut b = TaskGraph::builder(7);
        for (a, bb, w) in [
            (5, 1, 3.0),
            (0, 6, 1.5),
            (1, 5, 2.0),
            (3, 3, 9.0),
            (2, 4, 0.0),
            (6, 0, 0.5),
            (4, 2, 7.0),
            (6, 5, 1.0),
            (0, 1, 4.0),
            (5, 0, 2.5),
            (3, 1, 1.0),
            (1, 3, 0.0),
            (5, 1, 0.25),
        ] {
            b.add_comm(a, bb, w);
        }
        let g = b.build();
        assert_adjacency_invariants(&g);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.edge_weight(1, 5), Some(5.25));
        assert_eq!(g.neighbors(5).map(|e| e.0).collect::<Vec<_>>(), [0, 1, 6]);
        // Coalescing merges parallel edges and drops the internal ones.
        let c = g.coalesce(&[0, 1, 2, 0, 1, 2, 0], 3);
        assert_adjacency_invariants(&c);
        assert_eq!(c.num_edges(), 3);
        assert_eq!(c.edge_weight(2, 1), Some(12.25));
        assert_adjacency_invariants(&gen::random_graph(40, 5.0, 1.0, 100.0, 3));
        assert_adjacency_invariants(&gen::leanmd(16, &Default::default()));
    }

    #[test]
    fn weighted_degree_sums_incident() {
        let mut b = TaskGraph::builder(4);
        b.add_comm(0, 1, 1.0)
            .add_comm(0, 2, 2.0)
            .add_comm(0, 3, 3.0);
        let g = b.build();
        assert_eq!(g.weighted_degree(0), 6.0);
        assert_eq!(g.weighted_degree(3), 3.0);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn edges_iterate_each_once() {
        let mut b = TaskGraph::builder(3);
        b.add_comm(0, 1, 1.0)
            .add_comm(1, 2, 2.0)
            .add_comm(0, 2, 3.0);
        let g = b.build();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 3);
        for (a, bb, _) in es {
            assert!(a < bb);
        }
    }

    #[test]
    fn vertex_weights() {
        let mut b = TaskGraph::builder(2);
        b.set_task_weight(0, 2.5)
            .add_task_weight(0, 0.5)
            .set_task_weight(1, 4.0);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 3.0);
        assert_eq!(g.total_vertex_weight(), 7.0);
    }

    #[test]
    fn coalesce_sums_weights_and_drops_internal_edges() {
        // 4 tasks: 0-1 (10), 1-2 (20), 2-3 (30); groups {0,1}, {2,3}.
        let mut b = TaskGraph::builder(4);
        b.add_comm(0, 1, 10.0)
            .add_comm(1, 2, 20.0)
            .add_comm(2, 3, 30.0);
        b.set_task_weight(3, 5.0);
        let g = b.build();
        let c = g.coalesce(&[0, 0, 1, 1], 2);
        assert_eq!(c.num_tasks(), 2);
        assert_eq!(c.num_edges(), 1);
        assert_eq!(c.edge_weight(0, 1), Some(20.0));
        assert_eq!(c.vertex_weight(0), 2.0);
        assert_eq!(c.vertex_weight(1), 6.0);
    }

    #[test]
    fn data_roundtrip() {
        let mut b = TaskGraph::builder(5);
        b.add_comm(0, 4, 8.0)
            .add_comm(2, 3, 2.0)
            .set_task_weight(1, 9.0);
        let g = b.build();
        let data = TaskGraphData::from(&g);
        let g2 = TaskGraph::from(&data);
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        TaskGraph::builder(2).add_comm(0, 2, 1.0);
    }

    #[test]
    fn coords_roundtrip_and_default_absent() {
        let mut b = TaskGraph::builder(2);
        b.add_comm(0, 1, 3.0);
        b.set_coords(vec![[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]);
        let g = b.build();
        assert_eq!(g.coords().unwrap()[1], [3.0, 4.0, 5.0]);
        let data = TaskGraphData::from(&g);
        assert_eq!(TaskGraph::from(&data), g);
        // Coordinate-free graphs report None both ways.
        let g2 = TaskGraph::builder(2).build();
        assert!(g2.coords().is_none());
        assert!(TaskGraphData::from(&g2).coords.is_none());
    }

    #[test]
    #[should_panic(expected = "coords cover")]
    fn coords_length_mismatch_panics() {
        TaskGraph::builder(3).set_coords(vec![[0.0; 3]]);
    }

    #[test]
    fn coalesce_propagates_weighted_centroids() {
        let mut b = TaskGraph::builder(4);
        b.add_comm(0, 2, 1.0);
        b.set_task_weight(0, 1.0)
            .set_task_weight(1, 3.0)
            .set_task_weight(2, 2.0)
            .set_task_weight(3, 2.0);
        b.set_coords(vec![
            [0.0, 0.0, 0.0],
            [4.0, 0.0, 0.0],
            [0.0, 2.0, 0.0],
            [0.0, 6.0, 0.0],
        ]);
        let g = b.build();
        let c = g.coalesce(&[0, 0, 1, 1], 2);
        let cs = c.coords().unwrap();
        // Group 0: (1*0 + 3*4)/4 = 3 on x; group 1: (2*2 + 2*6)/4 = 4 on y.
        assert_eq!(cs[0], [3.0, 0.0, 0.0]);
        assert_eq!(cs[1], [0.0, 4.0, 0.0]);
        // Coordinate-free input stays coordinate-free.
        let plain = TaskGraph::builder(4).build().coalesce(&[0, 0, 1, 1], 2);
        assert!(plain.coords().is_none());
    }

    #[test]
    fn coalesce_places_weightless_groups_at_the_plain_mean() {
        // Every task weighs nothing, so every group takes the fallback:
        // the member coordinates summed in ascending task order, over the
        // member count. Group 2 is empty.
        let mut b = TaskGraph::builder(6);
        for t in 0..6 {
            b.set_task_weight(t, 0.0);
        }
        let cs = [
            [0.1, 1.0, -3.0],
            [0.2, 1.0, 0.5],
            [0.3, 4.0, 0.25],
            [0.7, -2.0, 0.0],
            [1e-3, 1.0, 7.0],
            [5.0, 0.5, 0.125],
        ];
        b.set_coords(cs.to_vec());
        let c = b.build().coalesce(&[0, 1, 0, 3, 0, 1], 4);
        let mean = |members: &[usize]| -> [f64; 3] {
            std::array::from_fn(|d| {
                members.iter().fold(0.0, |s, &t| s + cs[t][d]) / members.len() as f64
            })
        };
        let got = c.coords().unwrap();
        assert_eq!(got[0], mean(&[0, 2, 4]));
        assert_eq!(got[0][0], (0.1 + 0.3 + 1e-3) / 3.0);
        assert_eq!(got[1], mean(&[1, 5]));
        assert_eq!(got[2], [0.0; 3]);
        assert_eq!(got[3], cs[3]);
        // A weighted group beside a weightless one is unaffected by it.
        let mut b = TaskGraph::builder(3);
        b.set_task_weight(0, 0.0).set_task_weight(1, 3.0);
        b.set_coords(cs[..3].to_vec());
        let c = b.build().coalesce(&[0, 1, 1], 2);
        assert_eq!(c.coords().unwrap()[0], cs[0]);
        assert_eq!(c.coords().unwrap()[1][0], (0.2 * 3.0 + 0.3 * 1.0) / 4.0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = TaskGraph::builder(0).build();
        assert_eq!(g.num_tasks(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.total_comm(), 0.0);
    }
}
