//! Geometric mappers: space-filling-curve (SFC) ordering and recursive
//! coordinate bisection (RCB) — the near-linear fast path for
//! coordinate-bearing workloads.
//!
//! The quadratic greedy mappers (TopoLB and friends) pay O(n·p) per
//! placement decision. When the workload carries geometry — stencils,
//! LeanMD cells, geometric random graphs — locality is already explicit
//! in the coordinates, and two classic strategies exploit it in
//! O(n log n) ("Geometric Partitioning and Ordering Strategies for Task
//! Mapping on Parallel Computers", Deveci et al.):
//!
//! - [`SfcMap`] linearizes *both* sides of the problem along one
//!   space-filling curve: tasks by the curve index of their coordinates,
//!   processors by the curve index of their torus/mesh coordinates
//!   ([`Topology::node_coords`]), then matches the two orders by
//!   weighted rank so compute load stays balanced along the curve.
//!   Hilbert ([`Curve::Hilbert`], Gray-rotation encoding — consecutive
//!   indices are always coordinate-adjacent) or Morton
//!   ([`Curve::Morton`], plain bit interleave — cheaper, bounded jumps).
//! - [`RcbMap`] recursively bisects the task set at the weighted median
//!   of its widest coordinate axis, in lockstep with an orthogonal
//!   bisection of the processor block: each task half receives exactly
//!   as many processors as its share of the machine, so the recursion
//!   bottoms out with ≤ 1 task per processor. Both sides are sorted once
//!   along each axis and a bisection stable-partitions the sorted lists,
//!   so no level sorts again. Independent sub-bisections fan out on `par`
//!   threads level by level; results are combined in subproblem order,
//!   so the mapping is bit-identical at every thread count (the
//!   workspace-wide ordered-reduction discipline).
//!
//! Workloads without geometry degrade gracefully: [`synthesize_coords`]
//! builds a BFS-layering embedding from peripheral vertices (a
//! spectral-free heuristic), and both mappers use it automatically
//! unless `fallback` is disabled — in which case [`SfcMap::try_map`] /
//! [`RcbMap::try_map`] report [`GeomError::MissingCoordinates`] instead
//! of panicking.
//!
//! Curve encoders work on unsigned grid coordinates produced by
//! quantizing the f64 bounding box to `CURVE_BITS` bits per axis; all
//! hot loops are allocation-free per element (stack arrays + flat
//! output buffers).

use std::ops::Range;

use crate::obs;
use crate::par::{Executor, Parallelism};
use crate::{Mapper, Mapping};
use topomap_taskgraph::TaskGraph;
use topomap_topology::{NodeId, Topology};

/// Bits per axis used when quantizing f64 coordinates onto the curve
/// grid: 16 bits × 3 axes = 48-bit indices, distinct for any machine or
/// workload grid up to 65536 cells per side.
pub(crate) const CURVE_BITS: u32 = 16;

/// Which space-filling curve orders the points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curve {
    /// Gray-rotation curve: consecutive indices are always exactly one
    /// grid step apart (best locality).
    Hilbert,
    /// Plain bit-interleave (Z-order): cheaper to encode, but
    /// consecutive indices can jump (bounded by the grid side sums).
    Morton,
}

/// Why a geometric mapper could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// The task graph carries no coordinates and the BFS-synthesis
    /// fallback was disabled.
    MissingCoordinates {
        /// Name of the mapper that needed them.
        mapper: &'static str,
    },
}

impl std::fmt::Display for GeomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeomError::MissingCoordinates { mapper } => write!(
                f,
                "{mapper} needs per-task coordinates but the task graph carries none; \
                 use a coordinate-bearing generator, attach coordinates \
                 (TaskGraphBuilder::set_coords), or enable the BFS-layering fallback"
            ),
        }
    }
}

impl std::error::Error for GeomError {}

// ---------------------------------------------------------------------
// Curve encoders
// ---------------------------------------------------------------------

/// Morton (Z-order) index of a point: interleave the bits of the `N`
/// axes, axis 0 most significant within each bit group. Requires
/// `N * bits <= 64`.
pub fn morton_index<const N: usize>(x: [u32; N], bits: u32) -> u64 {
    debug_assert!(N as u32 * bits <= 64);
    interleave(x, bits)
}

/// Inverse of [`morton_index`].
pub fn morton_point<const N: usize>(d: u64, bits: u32) -> [u32; N] {
    deinterleave(d, bits)
}

/// Hilbert index of a point via Skilling's transpose algorithm ("the
/// Gray-rotation variant"): convert axes to the transposed Hilbert
/// representation, then bit-interleave. Consecutive indices differ by
/// exactly one unit step in one axis. Requires `N * bits <= 64`.
pub fn hilbert_index<const N: usize>(x: [u32; N], bits: u32) -> u64 {
    debug_assert!(N as u32 * bits <= 64);
    interleave(axes_to_transpose(x, bits), bits)
}

/// Inverse of [`hilbert_index`].
pub fn hilbert_point<const N: usize>(d: u64, bits: u32) -> [u32; N] {
    transpose_to_axes(deinterleave(d, bits), bits)
}

/// Bit-interleave `N` axis values: output bit `(j*N + (N-1-i))` is bit
/// `j` of axis `i`, so axis 0 is most significant within each group.
fn interleave<const N: usize>(x: [u32; N], bits: u32) -> u64 {
    let mut out = 0u64;
    for j in (0..bits).rev() {
        for v in x {
            out = (out << 1) | (((v >> j) & 1) as u64);
        }
    }
    out
}

fn deinterleave<const N: usize>(d: u64, bits: u32) -> [u32; N] {
    let mut x = [0u32; N];
    for j in 0..bits {
        for (i, v) in x.iter_mut().enumerate() {
            let pos = (j * N as u32) + (N as u32 - 1 - i as u32);
            *v |= (((d >> pos) & 1) as u32) << j;
        }
    }
    x
}

/// Skilling, "Programming the Hilbert curve" (2004): map axis
/// coordinates to the transposed Hilbert representation in place.
fn axes_to_transpose<const N: usize>(mut x: [u32; N], bits: u32) -> [u32; N] {
    if N <= 1 || bits == 0 {
        return x;
    }
    let m = 1u32 << (bits - 1);
    // Inverse undo.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..N {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q >>= 1;
    }
    // Gray encode.
    for i in 1..N {
        x[i] ^= x[i - 1];
    }
    let mut t = 0;
    let mut q = m;
    while q > 1 {
        if x[N - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for v in &mut x {
        *v ^= t;
    }
    x
}

/// Inverse of [`axes_to_transpose`].
fn transpose_to_axes<const N: usize>(mut x: [u32; N], bits: u32) -> [u32; N] {
    if N <= 1 || bits == 0 {
        return x;
    }
    let top = 2u32 << (bits - 1);
    // Gray decode by H ^ (H/2).
    let t = x[N - 1] >> 1;
    for i in (1..N).rev() {
        x[i] ^= x[i - 1];
    }
    x[0] ^= t;
    // Undo excess work.
    let mut q = 2u32;
    while q != top {
        let p = q - 1;
        for i in (0..N).rev() {
            if x[i] & q != 0 {
                x[0] ^= p;
            } else {
                let t = (x[0] ^ x[i]) & p;
                x[0] ^= t;
                x[i] ^= t;
            }
        }
        q <<= 1;
    }
    x
}

// ---------------------------------------------------------------------
// Quantization: f64 points -> curve keys
// ---------------------------------------------------------------------

/// Per-axis bounding box of a point set.
fn bounding_box(pts: &[[f64; 3]]) -> ([f64; 3], [f64; 3]) {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in pts {
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    (lo, hi)
}

/// Curve key of one point: quantize the *active* axes (positive extent)
/// of the bounding box to `CURVE_BITS` bits and encode with the curve of
/// matching arity. Degenerate axes are dropped so a planar workload gets
/// a true 2-D curve (a 3-D curve restricted to a plane loses locality).
fn curve_key(p: &[f64; 3], lo: &[f64; 3], hi: &[f64; 3], axes: &[usize], curve: Curve) -> u64 {
    let scale = (1u64 << CURVE_BITS) as f64 - 1.0;
    let mut q = [0u32; 3];
    for (k, &d) in axes.iter().enumerate() {
        let t = (p[d] - lo[d]) / (hi[d] - lo[d]);
        q[k] = (t * scale).round() as u32;
    }
    match (axes.len(), curve) {
        (0, _) => 0,
        (1, _) => q[0] as u64,
        (2, Curve::Hilbert) => hilbert_index([q[0], q[1]], CURVE_BITS),
        (2, Curve::Morton) => morton_index([q[0], q[1]], CURVE_BITS),
        (3, Curve::Hilbert) => hilbert_index([q[0], q[1], q[2]], CURVE_BITS),
        (3, Curve::Morton) => morton_index([q[0], q[1], q[2]], CURVE_BITS),
        _ => unreachable!("at most 3 axes"),
    }
}

/// Axes with positive extent, in axis order.
fn active_axes(lo: &[f64; 3], hi: &[f64; 3]) -> Vec<usize> {
    (0..3).filter(|&d| hi[d] > lo[d]).collect()
}

/// Curve keys for a whole point set, fanned out by `par` (element-wise,
/// so chunk order never changes the result).
fn curve_keys(pts: &[[f64; 3]], curve: Curve, exec: &Executor) -> Vec<u64> {
    let (lo, hi) = bounding_box(pts);
    let axes = active_axes(&lo, &hi);
    // 90 ns a key (measured 76–109 from 64 to 16384 points).
    let chunks = exec.map_chunks(pts.len(), 90, |r| {
        pts[r]
            .iter()
            .map(|p| curve_key(p, &lo, &hi, &axes, curve))
            .collect::<Vec<u64>>()
    });
    let mut keys = Vec::with_capacity(pts.len());
    for c in chunks {
        keys.extend(c);
    }
    keys
}

/// Processor coordinates from the machine, or `None` when the topology
/// has no geometric embedding (geometric mappers then keep node-id
/// order, which is the natural linearization for e.g. fat-trees).
fn machine_points(topo: &dyn Topology) -> Option<Vec<[f64; 3]>> {
    let p = topo.num_nodes();
    let mut pts = Vec::with_capacity(p);
    for node in 0..p {
        pts.push(topo.node_coords(node)?);
    }
    Some(pts)
}

/// Order `0..n` by `(key, id)` — the curve order with deterministic
/// tie-breaks.
fn order_by_key(keys: &[u64]) -> Vec<u32> {
    let mut ord: Vec<u32> = (0..keys.len() as u32).collect();
    ord.sort_unstable_by_key(|&i| (keys[i as usize], i));
    ord
}

// ---------------------------------------------------------------------
// Coordinate synthesis for non-geometric graphs
// ---------------------------------------------------------------------

/// BFS layers from `start` over one component, writing `layer[t]` for
/// every reached task. Returns the farthest reached task (lowest id on
/// ties) — the "peripheral vertex" of the double-sweep heuristic.
fn bfs_layers(g: &TaskGraph, start: usize, layer: &mut [u32], visited: &mut [bool]) -> usize {
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    visited[start] = true;
    layer[start] = 0;
    let (mut far, mut far_depth) = (start, 0u32);
    while let Some(t) = queue.pop_front() {
        let d = layer[t];
        if d > far_depth {
            far_depth = d;
            far = t;
        }
        for (u, _) in g.neighbors(t) {
            if !visited[u] {
                visited[u] = true;
                layer[u] = d + 1;
                queue.push_back(u);
            }
        }
    }
    far
}

/// Synthesize coordinates for a graph without geometry: a double BFS
/// sweep per component finds a peripheral vertex `s1` (BFS from the
/// component root, take the farthest) and a second anchor `s2` (farthest
/// from `s1`); each task gets `[layer_from_s1, layer_from_s2, 0]`, with
/// components offset along x so they never interleave. Deterministic,
/// O(|V| + |E|) — the spectral-free fallback that lets `--mapper sfc`
/// degrade gracefully on LU/random graphs.
pub fn synthesize_coords(g: &TaskGraph) -> Vec<[f64; 3]> {
    let n = g.num_tasks();
    let mut out = vec![[0.0f64; 3]; n];
    let mut visited = vec![false; n];
    let mut scratch = vec![0u32; n];
    let mut x_base = 0f64;
    for root in 0..n {
        if visited[root] {
            continue;
        }
        // Double sweep: root -> s1 (peripheral), s1 -> layers + s2,
        // s2 -> second axis.
        let s1 = bfs_layers(g, root, &mut scratch, &mut visited);
        let mut comp = Vec::new();
        {
            // Collect the component (everything the first sweep reached
            // from this root and not claimed by an earlier component).
            let mut seen2 = vec![false; n];
            let mut q = std::collections::VecDeque::new();
            q.push_back(root);
            seen2[root] = true;
            while let Some(t) = q.pop_front() {
                comp.push(t);
                for (u, _) in g.neighbors(t) {
                    if !seen2[u] {
                        seen2[u] = true;
                        q.push_back(u);
                    }
                }
            }
            comp.sort_unstable();
        }
        let mut vis1 = vec![false; n];
        let mut lay1 = vec![0u32; n];
        let s2 = bfs_layers(g, s1, &mut lay1, &mut vis1);
        let mut vis2 = vec![false; n];
        let mut lay2 = vec![0u32; n];
        bfs_layers(g, s2, &mut lay2, &mut vis2);
        let mut max_x = 0u32;
        for &t in &comp {
            out[t] = [x_base + lay1[t] as f64, lay2[t] as f64, 0.0];
            max_x = max_x.max(lay1[t]);
        }
        // Leave a gap so components occupy disjoint x ranges.
        x_base += max_x as f64 + 2.0;
    }
    out
}

/// Task coordinates: the graph's own, or synthesized when `fallback`.
fn task_points(
    tasks: &TaskGraph,
    fallback: bool,
    mapper: &'static str,
) -> Result<Vec<[f64; 3]>, GeomError> {
    match tasks.coords() {
        Some(cs) => Ok(cs.to_vec()),
        None if fallback => {
            obs::counter_add("geom.synth_coords", 1);
            Ok(synthesize_coords(tasks))
        }
        None => Err(GeomError::MissingCoordinates { mapper }),
    }
}

// ---------------------------------------------------------------------
// SFC mapper
// ---------------------------------------------------------------------

/// Space-filling-curve mapper: tasks ordered by curve index of their
/// coordinates, processors by curve index of their machine coordinates,
/// matched rank-to-rank weighted by compute load. O(n log n).
pub struct SfcMap {
    pub(crate) curve: Curve,
    /// Synthesize BFS-layering coordinates when the graph carries none
    /// (disable to get [`GeomError::MissingCoordinates`] instead).
    pub(crate) fallback: bool,
    pub(crate) par: Parallelism,
}

impl SfcMap {
    /// Hilbert-curve mapper with the BFS fallback enabled.
    pub fn hilbert() -> Self {
        SfcMap {
            curve: Curve::Hilbert,
            fallback: true,
            par: Parallelism::default(),
        }
    }

    /// Morton-curve mapper with the BFS fallback enabled.
    pub fn morton() -> Self {
        SfcMap {
            curve: Curve::Morton,
            fallback: true,
            par: Parallelism::default(),
        }
    }

    /// Strict variant: error on coordinate-free graphs.
    pub fn strict(curve: Curve) -> Self {
        SfcMap {
            curve,
            fallback: false,
            par: Parallelism::default(),
        }
    }

    pub fn with_parallelism(curve: Curve, par: Parallelism) -> Self {
        SfcMap {
            curve,
            fallback: true,
            par,
        }
    }

    /// Map, reporting [`GeomError`] instead of panicking when geometry
    /// is required but absent.
    pub fn try_map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Result<Mapping, GeomError> {
        let _sp = obs::span("geom.sfc");
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "more tasks ({n}) than processors ({p})");
        if n == 0 {
            return Ok(Mapping::new(Vec::new(), p));
        }
        let exec = Executor::new(self.par);
        let task_pts = task_points(tasks, self.fallback, "SFC mapper")?;
        let task_order = order_by_key(&curve_keys(&task_pts, self.curve, &exec));

        // Machine side: curve order of node coordinates, or node-id
        // order when the machine has no embedding.
        let pe_order: Vec<u32> = match machine_points(topo) {
            Some(pts) => order_by_key(&curve_keys(&pts, self.curve, &exec)),
            None => (0..p as u32).collect(),
        };

        // Weighted rank-matching: task i (in curve order) lands at the
        // processor rank nearest its load center `c_i = (prefix_i +
        // w_i/2) / W` scaled to p ranks, kept strictly monotone (so the
        // assignment is injective and order-preserving) and clamped so
        // the remaining tasks always fit.
        let total: f64 = task_order
            .iter()
            .map(|&t| tasks.vertex_weight(t as usize))
            .sum();
        let uniform = total.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater);
        let w_total = if uniform { n as f64 } else { total };
        let mut proc_of = vec![0usize; n];
        let mut prefix = 0.0f64;
        let mut prev: isize = -1;
        for (i, &t) in task_order.iter().enumerate() {
            let w = if uniform {
                1.0
            } else {
                tasks.vertex_weight(t as usize)
            };
            let center = (prefix + 0.5 * w) / w_total;
            prefix += w;
            let mut r = (center * p as f64).floor() as isize;
            r = r.max(prev + 1).min((p - (n - i)) as isize);
            prev = r;
            proc_of[t as usize] = pe_order[r as usize] as NodeId;
        }
        obs::counter_add("geom.sfc.tasks", n as u64);
        Ok(Mapping::new(proc_of, p))
    }
}

impl Mapper for SfcMap {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        self.try_map(tasks, topo).unwrap_or_else(|e| panic!("{e}"))
    }

    fn name(&self) -> String {
        match self.curve {
            Curve::Hilbert => "SFC(Hilbert)".to_string(),
            Curve::Morton => "SFC(Morton)".to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// RCB mapper
// ---------------------------------------------------------------------

/// Split position for a weighted median: the index `k` (0 ≤ k ≤ n) that
/// brings the prefix weight closest to `target` (first such index on
/// ties). The left side's weight then differs from `target` by at most
/// the weight of the single task at the boundary.
pub fn weighted_median_split(ws: &[f64], target: f64) -> usize {
    median_split(ws.iter().copied(), target)
}

/// [`weighted_median_split`] over weights in iteration order.
fn median_split(ws: impl Iterator<Item = f64>, target: f64) -> usize {
    let mut prefix = 0.0f64;
    let mut best = 0usize;
    let mut best_err = target.abs();
    for (i, w) in ws.enumerate() {
        prefix += w;
        let err = (prefix - target).abs();
        if err < best_err {
            best_err = err;
            best = i + 1;
        }
    }
    best
}

/// Recursive-coordinate-bisection mapper: bisect the task set at the
/// weighted median along its widest axis, bisect the processor block
/// orthogonally along *its* widest axis, recurse the matched halves.
/// O(n log n): both sides are sorted once per axis, and a bisection
/// stable-partitions the presorted lists; sub-bisections of one level
/// run concurrently.
pub struct RcbMap {
    /// Synthesize BFS-layering coordinates when the graph carries none.
    pub(crate) fallback: bool,
    pub(crate) par: Parallelism,
}

impl RcbMap {
    pub fn new() -> Self {
        RcbMap {
            fallback: true,
            par: Parallelism::default(),
        }
    }

    /// Strict variant: error on coordinate-free graphs.
    pub fn strict() -> Self {
        RcbMap {
            fallback: false,
            par: Parallelism::default(),
        }
    }

    pub fn with_parallelism(par: Parallelism) -> Self {
        RcbMap {
            fallback: true,
            par,
        }
    }

    /// Map, reporting [`GeomError`] instead of panicking when geometry
    /// is required but absent.
    pub fn try_map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Result<Mapping, GeomError> {
        let _sp = obs::span("geom.rcb");
        let n = tasks.num_tasks();
        let p = topo.num_nodes();
        assert!(n <= p, "more tasks ({n}) than processors ({p})");
        if n == 0 {
            return Ok(Mapping::new(Vec::new(), p));
        }
        let exec = Executor::new(self.par);
        let task_pts = task_points(tasks, self.fallback, "RCB mapper")?;
        // Machines without an embedding bisect by node id: pe "geometry"
        // is the id line, so blocks are contiguous id ranges.
        let pe_pts: Vec<[f64; 3]> =
            machine_points(topo).unwrap_or_else(|| (0..p).map(|i| [i as f64, 0.0, 0.0]).collect());
        let weights: Vec<f64> = {
            let raw: Vec<f64> = (0..n).map(|t| tasks.vertex_weight(t)).collect();
            if raw.iter().sum::<f64>() > 0.0 {
                raw
            } else {
                vec![1.0; n]
            }
        };
        let (mut ts, mut ps) = {
            let _sp = obs::span("geom.rcb.presort");
            (Presorted::new(&task_pts), Presorted::new(&pe_pts))
        };

        let _sp = obs::span("geom.rcb.bisect");
        let mut proc_of = vec![0usize; n];
        let mut frontier = vec![Job {
            tasks: 0..n,
            pes: 0..p,
        }];
        let (mut levels, mut moved) = (0u64, 0u64);
        while !frontier.is_empty() {
            levels += 1;
            // Fan the level's independent bisections out on `par`; chunk
            // results are recombined in job order, so the schedule never
            // affects which task lands where. A level costs 25 ns a task
            // (measured 16–38 at 1,024–16,384 tasks on as many PEs).
            let avg = ts.lists[0].len() / frontier.len();
            let parts = exec.map_chunks(frontier.len(), 25 * avg.max(1), |r| {
                bisect_jobs(&frontier[r], &ts, &ps, &weights)
            });
            let mut next = Vec::with_capacity(2 * frontier.len());
            let (mut t_lists, mut p_lists) = <([Vec<u32>; 3], [Vec<u32>; 3])>::default();
            let (mut t0, mut p0) = (0, 0);
            for part in parts {
                for (t, pe) in part.leaves {
                    proc_of[t as usize] = pe as NodeId;
                }
                for (nt, pp) in part.children {
                    next.push(Job {
                        tasks: t0..t0 + nt,
                        pes: p0..p0 + pp,
                    });
                    (t0, p0) = (t0 + nt, p0 + pp);
                }
                for (dst, src) in t_lists.iter_mut().zip(part.tasks) {
                    append(dst, src);
                }
                for (dst, src) in p_lists.iter_mut().zip(part.pes) {
                    append(dst, src);
                }
                moved += part.moved;
            }
            (ts.lists, ps.lists) = (t_lists, p_lists);
            frontier = next;
        }
        obs::counter_add("geom.rcb.levels", levels);
        obs::counter_add("geom.rcb.moved", moved);
        obs::counter_add("geom.rcb.tasks", n as u64);
        Ok(Mapping::new(proc_of, p))
    }
}

impl Default for RcbMap {
    fn default() -> Self {
        RcbMap::new()
    }
}

impl Mapper for RcbMap {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        self.try_map(tasks, topo).unwrap_or_else(|e| panic!("{e}"))
    }

    fn name(&self) -> String {
        "RCB".to_string()
    }
}

/// The order `f64::total_cmp` defines, as an unsigned integer key.
fn total_order_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// One side of the RCB problem (tasks or processors), sorted once along
/// each axis by `(coordinate in total order, id)`. An open job owns one
/// range of each of the three lists, and every range stays sorted along
/// its list's axis: a bisection cuts the chosen axis's range at `k` and
/// stable-partitions the other two, so a subset's order is its parent's
/// order filtered — the order a fresh sort of the subset would give.
struct Presorted<'a> {
    pts: &'a [[f64; 3]],
    /// The ids of every open job, job after job, in each axis's order.
    lists: [Vec<u32>; 3],
    /// `rank[d][id]`: position of `id` in the full sort along axis `d`.
    rank: [Vec<u32>; 3],
}

impl<'a> Presorted<'a> {
    fn new(pts: &'a [[f64; 3]]) -> Self {
        let lists: [Vec<u32>; 3] = std::array::from_fn(|d| {
            let mut keyed: Vec<(u64, u32)> = pts
                .iter()
                .zip(0..)
                .map(|(pt, i)| (total_order_key(pt[d]), i))
                .collect();
            keyed.sort_unstable();
            keyed.into_iter().map(|(_, i)| i).collect()
        });
        let rank = std::array::from_fn(|d| {
            let mut rank = vec![0u32; pts.len()];
            for (pos, &i) in lists[d].iter().enumerate() {
                rank[i as usize] = pos as u32;
            }
            rank
        });
        Presorted { pts, lists, rank }
    }

    /// Widest axis of the ids in `r` (lowest axis on ties): each list's
    /// first and last ids carry the range's minimum and maximum.
    fn widest_axis(&self, r: &Range<usize>) -> usize {
        let ext = |d: usize| {
            let ids = &self.lists[d][r.clone()];
            self.pts[ids[ids.len() - 1] as usize][d] - self.pts[ids[0] as usize][d]
        };
        let mut best = 0usize;
        let mut best_ext = ext(0);
        for d in 1..3 {
            let e = ext(d);
            if e > best_ext {
                best_ext = e;
                best = d;
            }
        }
        best
    }

    /// Append to `out` one half of the range `r` cut at position `k` of
    /// `axis`'s list — the first `k` ids when `left`, the rest otherwise —
    /// in each axis's order. Returns the ids the two stable partitions
    /// wrote.
    fn emit_half(
        &self,
        out: &mut [Vec<u32>; 3],
        r: &Range<usize>,
        axis: usize,
        k: usize,
        left: bool,
    ) -> u64 {
        let cut = &self.lists[axis][r.clone()];
        let half = if left { &cut[..k] } else { &cut[k..] };
        out[axis].extend_from_slice(half);
        // Membership by rank along `axis`: the half is every id ranked
        // below (left) or from (right) the first id past the cut.
        let rank = &self.rank[axis];
        let pivot = cut.get(k).map_or(u32::MAX, |&i| rank[i as usize]);
        for d in [(axis + 1) % 3, (axis + 2) % 3] {
            let ids = &self.lists[d][r.clone()];
            out[d].extend(ids.iter().filter(|&&i| (rank[i as usize] < pivot) == left));
        }
        2 * half.len() as u64
    }
}

/// One open subproblem of the recursion: the tasks in `tasks` of each
/// task list go somewhere in the processors in `pes` of each processor
/// list (`1 <= tasks.len() <= pes.len()`).
struct Job {
    tasks: Range<usize>,
    pes: Range<usize>,
}

/// What bisecting a run of consecutive jobs yields: the lists of their
/// children, in job order. A child with no task is dropped, and one with
/// a single processor is placed at once.
#[derive(Default)]
struct LevelPart {
    tasks: [Vec<u32>; 3],
    pes: [Vec<u32>; 3],
    /// `(tasks, processors)` of each child, in list order.
    children: Vec<(usize, usize)>,
    /// `(task, processor)` of each half with one processor.
    leaves: Vec<(u32, u32)>,
    moved: u64,
}

/// Bisect each job: processors at their spatial median (left block gets
/// the extra on odd counts), tasks at the weighted median clamped so each
/// half fits its processor half.
fn bisect_jobs(jobs: &[Job], ts: &Presorted, ps: &Presorted, ws: &[f64]) -> LevelPart {
    let (nt, pp) = jobs.iter().fold((0, 0), |(nt, pp), job| {
        (nt + job.tasks.len(), pp + job.pes.len())
    });
    let mut out = LevelPart {
        tasks: std::array::from_fn(|_| Vec::with_capacity(nt)),
        pes: std::array::from_fn(|_| Vec::with_capacity(pp)),
        ..LevelPart::default()
    };
    for job in jobs {
        let (nt, pp) = (job.tasks.len(), job.pes.len());
        debug_assert!(0 < nt && nt <= pp);
        let pe_axis = ps.widest_axis(&job.pes);
        let pl = pp.div_ceil(2);
        // Task side: weighted median along the tasks' own widest axis,
        // clamped to [n - pr, pl] so both halves fit their blocks.
        let t_axis = ts.widest_axis(&job.tasks);
        let sorted = &ts.lists[t_axis][job.tasks.clone()];
        let total: f64 = sorted.iter().map(|&t| ws[t as usize]).sum();
        let target = total * (pl as f64) / (pp as f64);
        let k = median_split(sorted.iter().map(|&t| ws[t as usize]), target)
            .max(nt.saturating_sub(pp - pl))
            .min(pl.min(nt));
        let pe_sorted = &ps.lists[pe_axis][job.pes.clone()];
        for (left, nk, pk) in [(true, k, pl), (false, nt - k, pp - pl)] {
            if nk == 0 {
                continue;
            }
            if pk == 1 {
                // One processor: its one task is placed here.
                let (t, pe) = if left { (0, 0) } else { (k, pl) };
                out.leaves.push((sorted[t], pe_sorted[pe]));
                continue;
            }
            out.moved += ts.emit_half(&mut out.tasks, &job.tasks, t_axis, k, left);
            out.moved += ps.emit_half(&mut out.pes, &job.pes, pe_axis, pl, left);
            out.children.push((nk, pk));
        }
    }
    out
}

/// `dst` followed by `src`, without a copy when `dst` is empty.
fn append(dst: &mut Vec<u32>, src: Vec<u32>) {
    if dst.is_empty() {
        *dst = src;
    } else {
        dst.extend_from_slice(&src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    #[test]
    fn curve_encoders_are_bijections_2d() {
        for bits in 1..=4u32 {
            let side = 1u32 << bits;
            let mut seen_h = vec![false; (side * side) as usize];
            let mut seen_m = vec![false; (side * side) as usize];
            for x in 0..side {
                for y in 0..side {
                    let h = hilbert_index([x, y], bits);
                    let m = morton_index([x, y], bits);
                    assert!(!seen_h[h as usize], "hilbert collision at ({x},{y})");
                    assert!(!seen_m[m as usize], "morton collision at ({x},{y})");
                    seen_h[h as usize] = true;
                    seen_m[m as usize] = true;
                    assert_eq!(hilbert_point::<2>(h, bits), [x, y]);
                    assert_eq!(morton_point::<2>(m, bits), [x, y]);
                }
            }
        }
    }

    #[test]
    fn hilbert_consecutive_indices_are_grid_neighbors_3d() {
        let bits = 3u32;
        let total = 1u64 << (3 * bits);
        let mut prev = hilbert_point::<3>(0, bits);
        for d in 1..total {
            let cur = hilbert_point::<3>(d, bits);
            let l1: u32 = (0..3).map(|i| cur[i].abs_diff(prev[i])).sum();
            assert_eq!(l1, 1, "jump at index {d}: {prev:?} -> {cur:?}");
            prev = cur;
        }
    }

    #[test]
    fn sfc_on_matching_stencil_is_identity_quality() {
        // 8x8 stencil on an 8x8 torus: both sides take the same Hilbert
        // order, so the mapping is the identity embedding — hpb == 1.
        let tasks = gen::stencil2d(8, 8, 1024.0, false);
        let topo = Torus::torus_2d(8, 8);
        let m = SfcMap::hilbert().map(&tasks, &topo);
        assert!((metrics::hops_per_byte(&tasks, &topo, &m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rcb_on_matching_stencil_beats_random_badly() {
        let tasks = gen::stencil2d(8, 8, 1024.0, false);
        let topo = Torus::torus_2d(8, 8);
        let m = RcbMap::new().map(&tasks, &topo);
        let hpb = metrics::hops_per_byte(&tasks, &topo, &m);
        assert!(hpb < 2.0, "RCB hpb {hpb} should be near-optimal");
    }

    #[test]
    fn strict_mappers_error_without_coords() {
        let tasks = gen::ring(8, 64.0); // no geometry
        let topo = Torus::torus_2d(4, 4);
        let err = SfcMap::strict(Curve::Hilbert)
            .try_map(&tasks, &topo)
            .unwrap_err();
        assert!(matches!(err, GeomError::MissingCoordinates { .. }));
        assert!(err.to_string().contains("coordinates"));
        assert!(RcbMap::strict().try_map(&tasks, &topo).is_err());
    }

    #[test]
    fn fallback_maps_coordinate_free_graphs() {
        let tasks = gen::random_graph(30, 3.0, 1.0, 10.0, 7);
        let topo = Torus::torus_2d(6, 6);
        let a = SfcMap::hilbert().map(&tasks, &topo);
        let b = RcbMap::new().map(&tasks, &topo);
        assert_eq!(a.num_tasks(), 30);
        assert_eq!(b.num_tasks(), 30);
    }

    #[test]
    fn total_order_key_orders_like_total_cmp() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            1.0,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn weighted_median_is_within_one_task() {
        let ws = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let total: f64 = ws.iter().sum();
        let target = total / 2.0;
        let k = weighted_median_split(&ws, target);
        let left: f64 = ws[..k].iter().sum();
        let max_w = ws.iter().cloned().fold(0.0, f64::max);
        assert!((left - target).abs() <= max_w);
    }

    #[test]
    fn more_procs_than_tasks_is_fine() {
        let tasks = gen::stencil2d(3, 3, 8.0, false);
        let topo = Torus::torus_2d(8, 8);
        for m in [
            SfcMap::hilbert().map(&tasks, &topo),
            RcbMap::new().map(&tasks, &topo),
        ] {
            assert_eq!(m.num_tasks(), 9);
            assert_eq!(m.num_procs(), 64);
        }
    }

    #[test]
    fn one_task_on_one_processor() {
        let tasks = TaskGraph::builder(1).build();
        let m = RcbMap::new().map(&tasks, &Torus::torus_1d(1));
        assert_eq!(m.as_slice(), [0]);
    }

    #[test]
    fn synthesized_coords_reflect_bfs_layers() {
        let g = gen::ring(6, 1.0);
        let cs = synthesize_coords(&g);
        assert_eq!(cs.len(), 6);
        // Ring: all layers within diameter.
        assert!(cs.iter().all(|c| c[0] <= 3.0 && c[1] <= 3.0));
        // Two components get disjoint x ranges.
        let two = topomap_taskgraph::transform::disjoint_union(&g, &g);
        let cs2 = synthesize_coords(&two);
        let max_a = (0..6).map(|t| cs2[t][0]).fold(0.0, f64::max);
        let min_b = (6..12).map(|t| cs2[t][0]).fold(f64::INFINITY, f64::min);
        assert!(min_b > max_a);
    }
}
