//! Hierarchical mapping — the paper's future-work direction
//! (§6: "a distributed approach toward keeping communication localized in
//! a neighborhood may be needed for scalability"; hybrid semi-distributed
//! approaches) implemented over an explicit hardware hierarchy.
//!
//! [`HierMapper`] decomposes one `p`-processor mapping problem down a
//! [`Hierarchy`] `H = a1:…:al`:
//!
//! 1. **Grouping** collects tasks into innermost containers bottom-up:
//!    heavy-edge-matching coarsening capped at `a1`, then an incremental
//!    TopoLB + realized-cost polish places the cluster graph on the leaf
//!    blocks. Clusters are compact by construction and the coarse
//!    placement reuses the paper's strongest kernel at 1/a1 of the
//!    problem size.
//! 2. **Leaf sub-mapping**: each innermost container (≤ `a1` tasks on
//!    `a1` processors) is an independent table-driven `Unit` job —
//!    attraction-ordered greedy growth plus local improvement sweeps —
//!    dispatched on `par` threads via one `map_chunks` region. Leaves
//!    only read shared immutable state and write disjoint tasks, so the
//!    merged result is bit-identical for every thread count.
//! 3. **Cross-leaf refinement**: Jacobi-style passes that pair up the
//!    leaves currently exchanging the most bytes and sweep each pair as
//!    one `Unit` (swaps may cross the pair's leaf boundary), reading a
//!    pass snapshot for outside neighbors. Per-unit work depends only on
//!    the snapshot, so parallel == serial exactly; converged pairs are
//!    remembered and the loop stops when no discontent pair remains.
//!
//! Table work drops from the flat kernels' O(p²)-ish to
//! O(coarsen + Σ_leaves a1² ·  d̄) with the leaf and refinement terms
//! embarrassingly parallel — exactly the shape a `par` region is for.

use crate::par::Executor;
use crate::{obs, EstimationOrder, Mapper, Mapping, Parallelism, TopoLb};
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::{CachedTopology, Hierarchy, NodeId, Topology, Torus};

/// Serial nanoseconds a [`Unit`] job costs per pair of its slots (greedy
/// growth plus its sweeps), for `par`'s cutoff: measured 45 on a 2-D
/// stencil and 150–200 on a degree-6 random graph; the lower one is
/// declared, so a region that fans out has at least the work it claims.
const PAIR_NS: usize = 45;

/// Refine sweeps over each leaf's greedy placement, inside its leaf job.
const LEAF_SWEEPS: usize = 6;

/// Recursive partition-and-map over an explicit hardware hierarchy, with
/// the leaf sub-mappings dispatched in parallel (deterministically).
#[derive(Debug, Clone)]
pub struct HierMapper {
    /// The hardware hierarchy (its processor count must match the machine
    /// handed to [`Mapper::map`]).
    pub hier: Hierarchy,
    /// Machine node at each hierarchy position (`None` = identity — the
    /// machine is numbered hierarchically already, e.g. a fat-tree).
    pub pe_order: Option<Vec<NodeId>>,
    /// Cross-leaf Jacobi swap passes after the leaf sub-mappings.
    pub refine_passes: usize,
    /// Thread configuration for the leaf and refinement fan-outs.
    pub par: Parallelism,
}

impl HierMapper {
    /// Identity processor layout: hierarchy position `q` is machine node
    /// `q`. Right for fat-trees and for machines that are themselves
    /// numbered hierarchically.
    pub fn new(hier: Hierarchy) -> Self {
        HierMapper {
            hier,
            pe_order: None,
            refine_passes: 4,
            par: Parallelism::default(),
        }
    }

    /// Explicit layout: `pe_order[q]` = machine node at position `q`.
    pub fn with_layout(hier: Hierarchy, pe_order: Vec<NodeId>) -> Self {
        assert_eq!(pe_order.len(), hier.num_nodes(), "layout length mismatch");
        HierMapper {
            pe_order: Some(pe_order),
            ..Self::new(hier)
        }
    }

    /// Derive a hierarchy for a torus/mesh with auto-chosen arities
    /// ([`auto_arities`]) and the block layout from
    /// [`Hierarchy::factor_torus`].
    pub fn for_torus(t: &Torus) -> Result<Self, String> {
        Self::for_torus_with(t, &auto_arities(t.num_nodes()))
    }

    /// Derive a hierarchy for a torus/mesh with the given arities.
    pub fn for_torus_with(t: &Torus, arities: &[usize]) -> Result<Self, String> {
        let (hier, pe_order) = Hierarchy::factor_torus(t, arities)?;
        Ok(Self::with_layout(hier, pe_order))
    }

    /// Builder: set the thread configuration.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// Machine node at hierarchy position `q`.
    #[inline]
    fn pe(&self, q: usize) -> NodeId {
        match &self.pe_order {
            Some(v) => v[q],
            None => q,
        }
    }

    /// Bottom-up leaf grouping: [`HierMapper::coarsen`], then
    /// [`HierMapper::coarse_unit`] places the cluster graph on the
    /// leaf-block representative processors and cluster-level sweeps
    /// polish it. Returns the leaf index of every task.
    fn coarsen_to_leaves(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Vec<usize> {
        let n = tasks.num_tasks();
        let a1 = self.hier.arities()[0];
        let leaves = self.hier.num_nodes() / a1;
        let (cluster_of, coarse) = self.coarsen(tasks);
        let count = coarse.num_tasks();
        let _span = obs::span("hier.coarse_map");
        let mut unit = self.coarse_unit(&coarse, topo);
        {
            let _span = obs::span("hier.coarse.sweeps");
            unit.sweeps(8);
        }
        if obs::enabled() {
            obs::counter_add("hier.coarse.candidates", unit.evaluated);
        }
        let mut assign: Vec<usize> = unit.slot_of;
        // Origin distance is orientation-blind: on a wrap-heavy block
        // grid many twisted embeddings tie with the straight one, yet
        // the (translation-only) leaf placements can align their
        // boundaries only under the straight one. For small coarse
        // instances, polish under the *realized* objective instead:
        // predict every task's final node as `block origin + canonical
        // growth slot` — the same intra-only growth the leaf phase runs
        // — and hill-climb whole-cluster exchanges on that. Gated to
        // `count <= 32` where a polish round is far cheaper than the
        // quality it recovers; larger coarse graphs have enough distance
        // diversity that the origin proxy already separates embeddings.
        if (2..=32).contains(&count) {
            let mut slot = vec![0usize; n];
            let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); count];
            for (t, &cl) in cluster_of.iter().enumerate() {
                members[cl].push(t);
            }
            let nodes0: Vec<NodeId> = (0..a1).map(|o| self.pe(o)).collect();
            let origin0 = self.pe(0);
            let anywhere = |_: TaskId| origin0;
            let mut scratch = vec![usize::MAX; n];
            for ms in &members {
                if ms.is_empty() {
                    continue;
                }
                let mut u = Unit::new(
                    tasks,
                    topo,
                    ms.clone(),
                    nodes0.clone(),
                    &mut scratch,
                    &anywhere,
                );
                u.place_greedy(false);
                for (i, &t) in u.ms.iter().enumerate() {
                    slot[t] = u.slot_of[i];
                }
            }
            let pred = |leaf: usize, t: TaskId| self.pe(leaf * a1 + slot[t]);
            // Cross-cluster edges, also bucketed per cluster for deltas.
            let mut incident: Vec<Vec<usize>> = vec![Vec::new(); count];
            let cross: Vec<(TaskId, TaskId, f64)> = tasks
                .edges()
                .filter(|&(x, y, _)| cluster_of[x] != cluster_of[y])
                .collect();
            for (e, &(x, y, _)) in cross.iter().enumerate() {
                incident[cluster_of[x]].push(e);
                incident[cluster_of[y]].push(e);
            }
            let cost_of = |edges: &[usize], assign: &[usize]| -> f64 {
                edges
                    .iter()
                    .map(|&e| {
                        let (x, y, w) = cross[e];
                        let (px, py) = (
                            pred(assign[cluster_of[x]], x),
                            pred(assign[cluster_of[y]], y),
                        );
                        w * topo.distance(px, py) as f64
                    })
                    .sum()
            };
            for _round in 0..4 * count {
                let occupied: std::collections::BTreeSet<usize> = assign.iter().copied().collect();
                let free: Vec<usize> = (0..leaves).filter(|g| !occupied.contains(g)).collect();
                let mut best: (f64, usize, usize, bool) = (-1e-9, 0, 0, false);
                for ca in 0..count {
                    // Exchange with another cluster's leaf...
                    for cb in (ca + 1)..count {
                        let mut edges: Vec<usize> = incident[ca]
                            .iter()
                            .chain(incident[cb].iter())
                            .copied()
                            .collect();
                        edges.sort_unstable();
                        edges.dedup();
                        let before = cost_of(&edges, &assign);
                        let mut trial = assign.clone();
                        trial.swap(ca, cb);
                        let d = cost_of(&edges, &trial) - before;
                        if d < best.0 {
                            best = (d, ca, cb, false);
                        }
                    }
                    // ...or relocation onto an unused leaf block.
                    for &f in &free {
                        let before = cost_of(&incident[ca], &assign);
                        let mut trial = assign.clone();
                        trial[ca] = f;
                        let d = cost_of(&incident[ca], &trial) - before;
                        if d < best.0 {
                            best = (d, ca, f, true);
                        }
                    }
                }
                let (d, a, b, relocate) = best;
                if d >= -1e-9 {
                    break;
                }
                if relocate {
                    assign[a] = b;
                } else {
                    assign.swap(a, b);
                }
            }
        }
        // Cluster `cl` sits on slot (= leaf index) `assign[cl]`.
        cluster_of.iter().map(|&cl| assign[cl]).collect()
    }

    /// Heavy-edge-matching coarsening: merge clusters along their
    /// heaviest edges (cluster size capped at `a1`) until at most `p/a1`
    /// clusters remain, bin-packing if matching stalls above that.
    /// Returns every task's cluster and the cluster graph.
    fn coarsen(&self, tasks: &TaskGraph) -> (Vec<usize>, TaskGraph) {
        let _span = obs::span("hier.coarsen");
        let n = tasks.num_tasks();
        let a1 = self.hier.arities()[0];
        let leaves = self.hier.num_nodes() / a1;
        let mut cluster_of: Vec<usize> = (0..n).collect();
        let mut count = n;
        let mut sizes = vec![1usize; n];
        let mut coarse = tasks.clone();
        while count > leaves {
            // One matching pass over the current cluster graph,
            // stopping as soon as enough merges are queued to hit
            // the target count.
            let needed = count - leaves;
            let mut match_to = vec![usize::MAX; count];
            let mut merged = 0usize;
            for c in 0..count {
                if merged >= needed {
                    break;
                }
                if match_to[c] != usize::MAX {
                    continue;
                }
                let best = coarse
                    .neighbors(c)
                    .filter(|&(u, _)| {
                        u != c && match_to[u] == usize::MAX && sizes[c] + sizes[u] <= a1
                    })
                    .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap().then(y.0.cmp(&x.0)));
                if let Some((u, _)) = best {
                    match_to[c] = u;
                    match_to[u] = c;
                    merged += 1;
                }
            }
            if merged == 0 {
                // Disconnected or saturated: force-pair smallest
                // with the largest partner that still fits.
                let mut order: Vec<usize> = (0..count).collect();
                order.sort_by_key(|&c| (sizes[c], c));
                let (mut lo, mut hi) = (0usize, count - 1);
                while lo < hi && merged < needed {
                    let (c, u) = (order[lo], order[hi]);
                    if sizes[c] + sizes[u] <= a1 {
                        match_to[c] = u;
                        match_to[u] = c;
                        merged += 1;
                        lo += 1;
                        hi -= 1;
                    } else {
                        hi -= 1; // partner too big; try a smaller one
                    }
                }
                if merged == 0 {
                    break; // no pair fits; bin-pack fallback below
                }
            }
            let mut new_id = vec![usize::MAX; count];
            let mut next = 0usize;
            for c in 0..count {
                if new_id[c] != usize::MAX {
                    continue;
                }
                new_id[c] = next;
                if match_to[c] != usize::MAX {
                    new_id[match_to[c]] = next;
                }
                next += 1;
            }
            let mut new_sizes = vec![0usize; next];
            for c in 0..count {
                new_sizes[new_id[c]] += sizes[c];
            }
            for cl in cluster_of.iter_mut() {
                *cl = new_id[*cl];
            }
            coarse = tasks.coalesce(&cluster_of, next);
            sizes = new_sizes;
            count = next;
        }
        if count > leaves {
            // Matching stalled above the target (all pairs would
            // overflow `a1`). Bin-pack clusters into `leaves` bins of
            // capacity `a1`, splitting any cluster that no longer
            // fits whole — guaranteed to succeed since `n <= p`.
            let mut bin_of = vec![usize::MAX; count];
            let mut load = vec![0usize; leaves];
            let mut order: Vec<usize> = (0..count).collect();
            order.sort_by_key(|&c| (std::cmp::Reverse(sizes[c]), c));
            for &c in &order {
                if let Some(b) = (0..leaves).find(|&b| load[b] + sizes[c] <= a1) {
                    bin_of[c] = b;
                    load[b] += sizes[c];
                }
            }
            for cl in cluster_of.iter_mut() {
                *cl = bin_of[*cl]; // split clusters become MAX for now
            }
            for cl in cluster_of.iter_mut() {
                if *cl == usize::MAX {
                    let b = (0..leaves).find(|&b| load[b] < a1).expect("n <= p");
                    load[b] += 1;
                    *cl = b;
                }
            }
            count = leaves;
            coarse = tasks.coalesce(&cluster_of, count);
        }
        if obs::enabled() {
            obs::counter_add("hier.coarsen.clusters", count as u64);
        }
        (cluster_of, coarse)
    }

    /// Place the cluster graph on the leaf-block representatives: an
    /// incremental TopoLB over the restricted (origins-only) metric.
    /// On small, highly symmetric cluster graphs a single estimation
    /// order can tie-break into a twisted embedding that later pairwise
    /// swaps provably cannot undo, so there all three orders are tried
    /// and scored exactly (the coarse graph is tiny). Returns the best
    /// start as a [`Unit`] over the block origins, ready for
    /// cluster-level swap sweeps — one such swap exchanges whole blocks,
    /// exactly the repair task-level swaps cannot express later.
    ///
    /// The block table is built once, by one batched row gather per
    /// origin, and the unit reuses it.
    fn coarse_unit(&self, coarse: &TaskGraph, topo: &dyn Topology) -> Unit {
        let a1 = self.hier.arities()[0];
        let leaves = self.hier.num_nodes() / a1;
        let count = coarse.num_tasks();
        let origins: Vec<NodeId> = (0..leaves).map(|g| self.pe(g * a1)).collect();
        let blocks = {
            let _span = obs::span("hier.coarse.table");
            CachedTopology::new(Restriction {
                topo,
                nodes: &origins,
            })
        };
        let best = {
            let _span = obs::span("hier.coarse.topolb");
            let score = |m: &Mapping| -> f64 {
                coarse
                    .edges()
                    .map(|(x, y, w)| w * blocks.distance(m.proc_of(x), m.proc_of(y)) as f64)
                    .sum()
            };
            let orders: &[EstimationOrder] = if count <= 32 {
                &[
                    EstimationOrder::Second,
                    EstimationOrder::First,
                    EstimationOrder::Third,
                ]
            } else {
                &[EstimationOrder::Second]
            };
            orders
                .iter()
                .map(|&ord| {
                    let m =
                        TopoLb::with_parallelism(ord, Parallelism::serial()).map(coarse, &blocks);
                    (score(&m), m)
                })
                .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                .expect("non-empty portfolio")
                .1
        };
        let dmat = blocks.into_matrix();
        let mut local_of = vec![usize::MAX; count];
        let no_ext = |_: TaskId| -> NodeId { unreachable!("cluster graph has no external tasks") };
        let mut unit = Unit::with_table(
            coarse,
            topo,
            (0..count).collect(),
            origins,
            dmat,
            &mut local_of,
            &no_ext,
        );
        for cl in 0..count {
            unit.slot_of[cl] = best.proc_of(cl);
            unit.occupant[best.proc_of(cl)] = cl;
        }
        unit
    }
}

/// Auto-chosen hierarchy arities for `p` processors: an innermost level of
/// up to 16 cores, middle levels near 16, and whatever small remainder
/// tops it off. Degenerates gracefully (a prime `p` yields a single-level
/// hierarchy, i.e. flat TopoLB).
pub fn auto_arities(p: usize) -> Vec<usize> {
    assert!(p > 0);
    let a1 = (1..=16usize.min(p))
        .rev()
        .find(|&a| p.is_multiple_of(a))
        .unwrap_or(1);
    let mut arities = vec![a1];
    let mut rem = p / a1;
    while rem > 32 {
        // Divisor of the remainder in [2, 32] closest to 16.
        let f = (2..=32)
            .filter(|&f| rem.is_multiple_of(f))
            .min_by_key(|&f| (f as i64 - 16).unsigned_abs())
            .unwrap_or(rem);
        if f == rem {
            break;
        }
        arities.push(f);
        rem /= f;
    }
    if rem > 1 {
        arities.push(rem);
    }
    arities
}

/// A refinement unit: a small fixed set of machine slots (one or two
/// leaf blocks) plus the tasks living on them. All distance work is
/// table-driven — a slot×slot matrix and a task×slot external-cost table
/// are built once (`O(slots² + tasks·ext_deg·slots)` oracle calls), after
/// which greedy placement and improvement sweeps cost O(1) per candidate.
///
/// External neighbors are charged at frozen positions supplied by the
/// caller (a snapshot during Jacobi refinement, block-origin proxies
/// during leaf construction), which is what makes units independent and
/// the parallel result bit-identical to the serial one.
#[derive(Clone)]
struct Unit {
    ms: Vec<TaskId>,
    nodes: Vec<NodeId>,
    /// task index -> slot index (usize::MAX = unplaced).
    slot_of: Vec<usize>,
    /// slot index -> task index (usize::MAX = free).
    occupant: Vec<usize>,
    /// slot×slot distance matrix.
    dmat: Vec<u32>,
    /// Smallest off-diagonal entry of `dmat`: the shortest an intra edge
    /// can be.
    dmin: u32,
    /// task×slot cost against frozen external neighbors; empty when no
    /// task has one (read through [`Unit::ext_at`]).
    ext: Vec<f64>,
    /// Per task, the minimum of its `ext` row (0 for a task without
    /// external neighbors, whose row is all zero).
    ext_min: Vec<f64>,
    /// task index -> intra-unit neighbors as (task index, weight).
    intra: Vec<Vec<(usize, f64)>>,
    /// Candidates [`Unit::sweeps`] has evaluated so far.
    evaluated: u64,
}

impl Unit {
    /// Build tables for `ms` over `nodes`. `local_of` is an n-sized
    /// scratch array (all `usize::MAX` on entry; restored before
    /// returning). `ext_pos` gives the frozen position of any task
    /// outside the unit. The slot table costs `s(s−1)/2` scalar distance
    /// calls — cheaper than a row gather at leaf sizes.
    fn new(
        tasks: &TaskGraph,
        topo: &dyn Topology,
        ms: Vec<TaskId>,
        nodes: Vec<NodeId>,
        local_of: &mut [usize],
        ext_pos: &dyn Fn(TaskId) -> NodeId,
    ) -> Unit {
        let s = nodes.len();
        let mut dmat = vec![0u32; s * s];
        for a in 0..s {
            for b in (a + 1)..s {
                let d = topo.distance(nodes[a], nodes[b]);
                dmat[a * s + b] = d;
                dmat[b * s + a] = d;
            }
        }
        Unit::with_table(tasks, topo, ms, nodes, dmat, local_of, ext_pos)
    }

    /// [`Unit::new`] over a slot table the caller already holds
    /// (`dmat[a * s + b] = topo.distance(nodes[a], nodes[b])`).
    fn with_table(
        tasks: &TaskGraph,
        topo: &dyn Topology,
        ms: Vec<TaskId>,
        nodes: Vec<NodeId>,
        dmat: Vec<u32>,
        local_of: &mut [usize],
        ext_pos: &dyn Fn(TaskId) -> NodeId,
    ) -> Unit {
        let (m, s) = (ms.len(), nodes.len());
        debug_assert_eq!(dmat.len(), s * s);
        for (i, &t) in ms.iter().enumerate() {
            local_of[t] = i;
        }
        let mut dmin = u32::MAX;
        for a in 0..s {
            for b in (0..s).filter(|&b| b != a) {
                dmin = dmin.min(dmat[a * s + b]);
            }
        }
        let mut ext: Vec<f64> = Vec::new();
        let mut ext_min = vec![0f64; m];
        let mut intra: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for (i, &t) in ms.iter().enumerate() {
            let mut external = false;
            for (u, w) in tasks.neighbors(t) {
                let li = local_of[u];
                if li != usize::MAX {
                    if li != i {
                        intra[i].push((li, w));
                    }
                } else {
                    external = true;
                    ext.resize(m * s, 0.0);
                    let pu = ext_pos(u);
                    for (sl, &node) in nodes.iter().enumerate() {
                        ext[i * s + sl] += w * topo.distance(node, pu) as f64;
                    }
                }
            }
            if external {
                ext_min[i] = ext[i * s..(i + 1) * s]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
            }
        }
        for &t in &ms {
            local_of[t] = usize::MAX;
        }
        Unit {
            ms,
            nodes,
            slot_of: vec![usize::MAX; m],
            occupant: vec![usize::MAX; s],
            dmat,
            dmin,
            ext,
            ext_min,
            intra,
            evaluated: 0,
        }
    }

    /// External cost of task `i` on slot `sl`: 0 in a unit whose tasks
    /// have no external neighbors, which keeps no table.
    #[inline]
    fn ext_at(&self, i: usize, sl: usize) -> f64 {
        self.ext
            .get(i * self.nodes.len() + sl)
            .copied()
            .unwrap_or(0.0)
    }

    /// Load current positions (`proc_of[t]` must be one of the unit's
    /// nodes for every task in the unit).
    fn load_positions(&mut self, proc_of: &[NodeId]) {
        for i in 0..self.ms.len() {
            let node = proc_of[self.ms[i]];
            let sl = self
                .nodes
                .iter()
                .position(|&x| x == node)
                .expect("task on unit slot");
            self.slot_of[i] = sl;
            self.occupant[sl] = i;
        }
    }

    /// Forget the current placement (before a fresh [`Unit::place_greedy`]).
    fn reset(&mut self) {
        self.slot_of.fill(usize::MAX);
        self.occupant.fill(usize::MAX);
    }

    /// Total cost of the current placement: external charges plus each
    /// intra edge once (every edge appears in both endpoints' lists).
    fn objective(&self) -> f64 {
        let s = self.nodes.len();
        let mut total = 0.0;
        for (i, &sl) in self.slot_of.iter().enumerate() {
            total += self.ext_at(i, sl);
            for &(j, w) in &self.intra[i] {
                total += 0.5 * w * self.dmat[sl * s + self.slot_of[j]] as f64;
            }
        }
        total
    }

    /// Greedy initial placement: grow the placement task by task, always
    /// placing the unplaced task most attracted (total edge weight) to
    /// the placed set on the free slot cheapest against its placed
    /// neighbors. Each connected component is seeded by its *lightest*
    /// member — on grid-like clusters that's a corner, which lands on
    /// slot 0 (the block corner) and lets the growth reproduce the
    /// cluster's own shape.
    ///
    /// `charge_ext` controls whether slot choice also charges the frozen
    /// external table. During leaf construction externals are only block
    /// -origin *proxies* — every pull points at a neighbor's corner and
    /// would shear the internal layout — so leaves pass `false` and let
    /// [`Unit::sweeps`] orient the block. During cross-leaf refinement
    /// the externals are real task positions, and charging them lets a
    /// rebuild re-orient a block toward its actual neighbors. Ties:
    /// lowest task index, lowest slot index.
    fn place_greedy(&mut self, charge_ext: bool) {
        let (m, s) = (self.ms.len(), self.nodes.len());
        let wdeg: Vec<f64> = (0..m)
            .map(|i| self.intra[i].iter().map(|&(_, w)| w).sum::<f64>())
            .collect();
        let mut attr = vec![0f64; m];
        for _ in 0..m {
            let mut next = usize::MAX;
            for i in 0..m {
                if self.slot_of[i] != usize::MAX {
                    continue;
                }
                next = if next == usize::MAX {
                    i
                } else if attr[i] > attr[next]
                    || (attr[i] == attr[next] && attr[i] == 0.0 && wdeg[i] < wdeg[next])
                {
                    // Strongest attachment wins; among detached tasks
                    // (fresh components) the lightest — a corner — seeds.
                    i
                } else {
                    next
                };
            }
            let mut best = (f64::INFINITY, usize::MAX);
            for sl in 0..s {
                if self.occupant[sl] != usize::MAX {
                    continue;
                }
                let mut cost = if charge_ext {
                    self.ext_at(next, sl)
                } else {
                    0.0
                };
                for &(j, w) in &self.intra[next] {
                    if self.slot_of[j] != usize::MAX {
                        cost += w * self.dmat[sl * s + self.slot_of[j]] as f64;
                    }
                }
                if cost < best.0 {
                    best = (cost, sl);
                }
            }
            self.slot_of[next] = best.1;
            self.occupant[best.1] = next;
            for &(j, w) in &self.intra[next] {
                attr[j] += w;
            }
        }
    }

    /// Cost delta of putting task `i` on slot `sl` instead of its
    /// current slot (intra neighbors at their current slots; task `skip`
    /// excluded from the intra sum).
    fn delta_to(&self, i: usize, sl: usize, skip: usize) -> f64 {
        let s = self.nodes.len();
        let cur = self.slot_of[i];
        let mut d = self.ext_at(i, sl) - self.ext_at(i, cur);
        for &(j, w) in &self.intra[i] {
            if j != skip {
                let sj = self.slot_of[j];
                d += w * (self.dmat[sl * s + sj] as f64 - self.dmat[cur * s + sj] as f64);
            }
        }
        d
    }

    /// Task `i` is *settled* when every intra edge sits at `dmin` and its
    /// external cost at its current slot is its row minimum.
    fn settled(&self, i: usize) -> bool {
        let s = self.nodes.len();
        let cur = self.slot_of[i];
        self.intra[i]
            .iter()
            .all(|&(j, _)| self.dmat[cur * s + self.slot_of[j]] == self.dmin)
            && self.ext_at(i, cur) == self.ext_min[i]
    }

    /// Greedy improvement sweeps (pair swaps and moves to free slots),
    /// up to `max_sweeps` or until none improves. Returns accepted
    /// changes.
    ///
    /// Candidates whose tasks are all [settled](Unit::settled) are
    /// skipped, exactly. The unit is injective, so every intra edge joins
    /// two distinct slots before and after a move or swap, and is at
    /// least `dmin` long. For a settled task each term of `delta_to` is
    /// therefore `ext[sl] − ext_min ≥ 0` or `w · (d − dmin) ≥ 0`: every
    /// partial f64 sum is ≥ 0, and neither its move nor its swap with
    /// another settled task can pass `< −1e-12`. So a settled `i` scans
    /// only the slots of unsettled tasks, and none at all when every task
    /// is settled; an accept re-derives the moved tasks and their intra
    /// neighbors. The same candidates are accepted in the same order as
    /// without the skip.
    fn sweeps(&mut self, max_sweeps: usize) -> u64 {
        let (m, s) = (self.ms.len(), self.nodes.len());
        let mut settled: Vec<bool> = (0..m).map(|i| self.settled(i)).collect();
        let mut unsettled = settled.iter().filter(|&&x| !x).count();
        let mut changes = 0u64;
        for _ in 0..max_sweeps {
            let mut round = 0u64;
            for i in 0..m {
                if settled[i] && unsettled == 0 {
                    continue;
                }
                let si = self.slot_of[i];
                let mut moved = None;
                for sl in 0..s {
                    if sl == si {
                        continue;
                    }
                    let j = self.occupant[sl];
                    if settled[i] && (j == usize::MAX || settled[j]) {
                        continue;
                    }
                    if j == usize::MAX {
                        self.evaluated += 1;
                        if self.delta_to(i, sl, usize::MAX) < -1e-12 {
                            self.occupant[si] = usize::MAX;
                            self.occupant[sl] = i;
                            self.slot_of[i] = sl;
                            moved = Some(usize::MAX);
                            break; // i moved; restart its scan at next i
                        }
                    } else if j > i {
                        self.evaluated += 1;
                        if self.delta_to(i, sl, j) + self.delta_to(j, si, i) < -1e-12 {
                            self.occupant[si] = j;
                            self.occupant[sl] = i;
                            self.slot_of[i] = sl;
                            self.slot_of[j] = si;
                            moved = Some(j);
                            break;
                        }
                    }
                }
                // The partner of an accept (`usize::MAX` for a move).
                let Some(j) = moved else { continue };
                round += 1;
                for k in [i, j].into_iter().filter(|&k| k != usize::MAX) {
                    for t in std::iter::once(k).chain(self.intra[k].iter().map(|&(u, _)| u)) {
                        let now = self.settled(t);
                        if now != settled[t] {
                            settled[t] = now;
                            if now {
                                unsettled -= 1;
                            } else {
                                unsettled += 1;
                            }
                        }
                    }
                }
            }
            changes += round;
            if round == 0 {
                break;
            }
        }
        changes
    }

    /// [`Unit::sweeps`] as it was before the settled-task skip, kept
    /// verbatim as the differential oracle.
    #[cfg(test)]
    fn sweeps_naive(&mut self, max_sweeps: usize) -> u64 {
        let (m, s) = (self.ms.len(), self.nodes.len());
        let mut changes = 0u64;
        for _ in 0..max_sweeps {
            let mut round = 0u64;
            for i in 0..m {
                let si = self.slot_of[i];
                for sl in 0..s {
                    if sl == si {
                        continue;
                    }
                    let j = self.occupant[sl];
                    if j == usize::MAX {
                        if self.delta_to(i, sl, usize::MAX) < -1e-12 {
                            self.occupant[si] = usize::MAX;
                            self.occupant[sl] = i;
                            self.slot_of[i] = sl;
                            round += 1;
                            break; // i moved; restart its scan at next i
                        }
                    } else if j > i && self.delta_to(i, sl, j) + self.delta_to(j, si, i) < -1e-12 {
                        self.occupant[si] = j;
                        self.occupant[sl] = i;
                        self.slot_of[i] = sl;
                        self.slot_of[j] = si;
                        round += 1;
                        break;
                    }
                }
            }
            changes += round;
            if round == 0 {
                break;
            }
        }
        changes
    }

    /// Emit (task, machine node) assignments.
    fn emit(&self, out: &mut Vec<(TaskId, NodeId)>) {
        for (i, &t) in self.ms.iter().enumerate() {
            out.push((t, self.nodes[self.slot_of[i]]));
        }
    }
}

/// A sub-machine: the metric of `topo` restricted to `nodes` (local id
/// `i` is machine node `nodes[i]`). What the coarse-placement TopoLB runs
/// against.
struct Restriction<'a> {
    topo: &'a dyn Topology,
    nodes: &'a [NodeId],
}

impl Topology for Restriction<'_> {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        self.topo.distance(self.nodes[a], self.nodes[b])
    }

    fn name(&self) -> String {
        format!("Restrict({} of {})", self.nodes.len(), self.topo.name())
    }

    /// One batched gather on the machine over the targets' nodes.
    fn distances_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) {
        let on_machine: Vec<NodeId> = targets.iter().map(|&t| self.nodes[t]).collect();
        self.topo.distances_into(self.nodes[from], &on_machine, out);
    }
}

impl Mapper for HierMapper {
    fn map(&self, tasks: &TaskGraph, topo: &dyn Topology) -> Mapping {
        let n = tasks.num_tasks();
        let p = self.hier.num_nodes();
        assert_eq!(
            p,
            topo.num_nodes(),
            "hierarchy {} covers {p} processors but machine {} has {}",
            self.hier.name(),
            topo.name(),
            topo.num_nodes()
        );
        assert!(n <= p, "need at least as many processors as tasks");
        let _span = obs::span("hier.map");
        let prof = obs::enabled();
        if prof {
            obs::meta_set("hier.shape", &self.hier.shape_spec());
            obs::meta_set("hier.dist", &self.hier.dist_spec());
        }
        if n == 0 {
            return Mapping::new(Vec::new(), p);
        }
        let exec = Executor::new(self.par);
        let a1 = self.hier.arities()[0];
        let leaves = p / a1;

        // --- 1. group tasks into innermost containers ---
        let leaf_of = self.coarsen_to_leaves(tasks, topo);

        // --- 2. independent leaf sub-mappings, one `par` region ---
        let members: Vec<Vec<TaskId>> = {
            let mut v = vec![Vec::new(); leaves];
            for (t, &g) in leaf_of.iter().enumerate() {
                v[g].push(t);
            }
            v
        };
        let leaf_span = obs::span("hier.leaf_map");
        if prof {
            obs::counter_add("hier.leaves", leaves as u64);
            obs::counter_add("hier.leaf_tasks", n as u64);
        }
        // Proxy position for a yet-unmapped neighbor leaf: its block
        // origin. Known before any leaf is mapped, so leaves can orient
        // themselves toward their neighbors without ordering constraints.
        let leaf_origin: Vec<NodeId> = (0..leaves).map(|g| self.pe(g * a1)).collect();
        let leaf_ns = PAIR_NS * a1 * a1;
        let placed: Vec<Vec<(TaskId, NodeId)>> = exec.map_chunks(leaves, leaf_ns, |range| {
            let mut out = Vec::new();
            let mut local_of = vec![usize::MAX; n];
            for leaf in range.clone() {
                let ms = &members[leaf];
                if ms.is_empty() {
                    continue;
                }
                if ms.len() == 1 {
                    out.push((ms[0], self.pe(leaf * a1)));
                    continue;
                }
                let leaf_nodes: Vec<NodeId> = (0..a1).map(|o| self.pe(leaf * a1 + o)).collect();
                let origin_of = |u: TaskId| leaf_origin[leaf_of[u]];
                let mut unit = Unit::new(
                    tasks,
                    topo,
                    ms.clone(),
                    leaf_nodes,
                    &mut local_of,
                    &origin_of,
                );
                unit.place_greedy(false);
                unit.sweeps(LEAF_SWEEPS);
                unit.emit(&mut out);
            }
            out
        });
        let mut proc_of = vec![usize::MAX; n];
        for chunk in placed {
            for (t, node) in chunk {
                proc_of[t] = node;
            }
        }
        drop(leaf_span);

        // --- 3. cross-leaf Jacobi swap refinement ---
        // Each pass pairs up leaves that currently exchange the most
        // bytes — a deterministic greedy maximal matching on the live
        // cross-leaf traffic matrix, heaviest pair first — and sweeps
        // each pair as one unit, letting tasks migrate across the leaf
        // boundary to repair grouping raggedness the leaf-local sweeps
        // cannot touch (a pair unit's sweep covers its intra-leaf pairs
        // too, so no single-leaf schedule is needed). Matching by
        // traffic, not by leaf id, means *every* communicating pair of
        // blocks eventually meets, whatever the machine's shape. Every
        // unit reads the pass snapshot for outside neighbors and owns a
        // disjoint set of tasks, so parallel == serial exactly.
        //
        // A pair that sweeps to convergence is remembered in `tried` and
        // not rescheduled until one of its leaves is *dirtied* — changed
        // by a later pass, or holding a neighbor of a changed task. Both
        // sets are derived from the merged pass result
        // (chunking-invariant), so the schedule — and the mapping — stay
        // identical across thread counts.
        if leaves > 1 && self.refine_passes > 0 {
            let _refine_span = obs::span("hier.refine");
            // Hierarchy position of each machine node (to re-derive leaf
            // membership after cross-leaf swaps).
            let node_pos: Vec<usize> = {
                let mut v = vec![0usize; p];
                for q in 0..p {
                    v[self.pe(q)] = q;
                }
                v
            };
            let leaf_at = |proc_of: &[usize], t: TaskId| node_pos[proc_of[t]] / a1;
            // Cheapest nonzero hop between nearby processors — the
            // per-edge floor. A task whose every neighbor already sits at
            // this floor cannot lower its cost by moving (distinct nodes
            // are never closer), so a leaf pair containing only such
            // tasks is provably converged and skipped without building
            // its tables. Sampled from the first block. A sample can only
            // over-estimate the global minimum, and an over-estimate
            // treats loose edges as tight, so it skips *more* pairs — the
            // skip is then no longer exact. `factor_torus` (with `a1 ≥ 2`
            // each leaf block is a box of adjacent nodes, so it holds a
            // pair 1 hop apart) and `from_fattree` (siblings at distance
            // 2) put the global minimum in the first block;
            // `identity_over` does not guarantee it.
            let dmin = {
                let k = a1.max(2).min(p);
                let mut d = u32::MAX;
                for x in 0..k {
                    for y in (x + 1)..k {
                        d = d.min(topo.distance(self.pe(x), self.pe(y)));
                    }
                }
                d
            };
            let mut tried: std::collections::BTreeSet<(usize, usize)> =
                std::collections::BTreeSet::new();
            for _pass in 0..4 * self.refine_passes {
                // Membership and cross-leaf traffic follow current
                // positions.
                let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); leaves];
                for t in 0..n {
                    members[leaf_at(&proc_of, t)].push(t);
                }
                let mut cross: std::collections::BTreeMap<(usize, usize), f64> =
                    std::collections::BTreeMap::new();
                let mut discontent = vec![false; leaves];
                for (x, y, w) in tasks.edges() {
                    let (gx, gy) = (leaf_at(&proc_of, x), leaf_at(&proc_of, y));
                    if topo.distance(proc_of[x], proc_of[y]) > dmin {
                        discontent[gx] = true;
                        discontent[gy] = true;
                    }
                    if gx != gy {
                        *cross.entry((gx.min(gy), gx.max(gy))).or_insert(0.0) += w;
                    }
                }
                let mut cands: Vec<((usize, usize), f64)> = cross
                    .into_iter()
                    .filter(|(k, _)| (discontent[k.0] || discontent[k.1]) && !tried.contains(k))
                    .collect();
                cands.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                let mut matched = vec![false; leaves];
                let mut units: Vec<(usize, usize)> = Vec::new();
                for ((g1, g2), _) in cands {
                    if !matched[g1] && !matched[g2] {
                        matched[g1] = true;
                        matched[g2] = true;
                        units.push((g1, g2));
                    }
                }
                if units.is_empty() {
                    break; // every communicating pair swept to convergence
                }
                if prof {
                    obs::counter_add("hier.refine.passes", 1);
                }
                let snapshot = proc_of.clone();
                // Per chunk: (position updates, changed unit indices, swaps).
                type RefineChunk = (Vec<(TaskId, NodeId)>, Vec<usize>, u64);
                let unit_ns = 4 * PAIR_NS * a1 * a1;
                let rounds: Vec<RefineChunk> = exec.map_chunks(units.len(), unit_ns, |range| {
                    let mut updates = Vec::new();
                    let mut changed_units = Vec::new();
                    let mut swaps = 0u64;
                    let mut local_of = vec![usize::MAX; n];
                    for ui in range.clone() {
                        let (g1, g2) = units[ui];
                        let mut ms = members[g1].clone();
                        ms.extend_from_slice(&members[g2]);
                        if ms.len() < 2 {
                            continue;
                        }
                        let nodes: Vec<NodeId> = (g1 * a1..(g1 + 1) * a1)
                            .chain(g2 * a1..(g2 + 1) * a1)
                            .map(|q| self.pe(q))
                            .collect();
                        let frozen = |u: TaskId| snapshot[u];
                        let mut unit = Unit::new(tasks, topo, ms, nodes, &mut local_of, &frozen);
                        unit.load_positions(&snapshot);
                        let unit_swaps = unit.sweeps(4);
                        // Incremental sweeps can be trapped by a
                        // mis-*oriented* block (fixing it needs a
                        // coherent many-task move no single swap
                        // starts). Also try rebuilding the pair from
                        // scratch with the real frozen externals
                        // charged, and keep whichever placement
                        // scores lower.
                        let incremental = unit.objective();
                        let kept: Vec<usize> = unit.slot_of.clone();
                        unit.reset();
                        unit.place_greedy(true);
                        unit.sweeps(4);
                        let rebuilt = unit.objective() + 1e-9 < incremental;
                        if !rebuilt {
                            unit.occupant.fill(usize::MAX);
                            for (i, &sl) in kept.iter().enumerate() {
                                unit.slot_of[i] = sl;
                                unit.occupant[sl] = i;
                            }
                        }
                        if unit_swaps > 0 || rebuilt {
                            swaps += unit_swaps.max(1);
                            changed_units.push(ui);
                            unit.emit(&mut updates);
                        }
                    }
                    (updates, changed_units, swaps)
                });
                let mut total = 0u64;
                let mut changed: Vec<usize> = Vec::new();
                for (updates, changed_units, swaps) in rounds {
                    total += swaps;
                    changed.extend(changed_units);
                    for (t, node) in updates {
                        proc_of[t] = node;
                    }
                }
                if prof {
                    obs::counter_add("hier.refine.swaps", total);
                }
                // Every scheduled pair has now been swept to convergence
                // against this pass's snapshot; changed pairs dirty their
                // leaves and their tasks' neighbor leaves, re-enabling
                // any remembered pair that touches them. All derived
                // from the merged result, so identical for every
                // chunking.
                for &(g1, g2) in &units {
                    tried.insert((g1, g2));
                }
                if total == 0 {
                    continue; // nothing moved; remaining pairs next pass
                }
                let mut dirtied = vec![false; leaves];
                for &ui in &changed {
                    let (g1, g2) = units[ui];
                    dirtied[g1] = true;
                    dirtied[g2] = true;
                    for &t in members[g1].iter().chain(members[g2].iter()) {
                        for (u, _) in tasks.neighbors(t) {
                            dirtied[leaf_at(&proc_of, u)] = true;
                        }
                    }
                }
                tried.retain(|&(g1, g2)| !dirtied[g1] && !dirtied[g2]);
            }
        }
        Mapping::new(proc_of, p)
    }

    fn name(&self) -> String {
        format!("HierMapper({})", self.hier.shape_spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, RandomMap, RefineTopoLb};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use topomap_taskgraph::gen;
    use topomap_topology::{Dragonfly, FatTree, GraphTopology, Hypercube};

    #[test]
    fn valid_injective_mapping_on_torus() {
        let tasks = gen::stencil2d(8, 8, 1024.0, false);
        let machine = Torus::torus_2d(8, 8);
        let h = HierMapper::for_torus_with(&machine, &[4, 4, 4]).unwrap();
        let m = h.map(&tasks, &machine);
        let mut seen = [false; 64];
        for t in 0..64 {
            assert!(!seen[m.proc_of(t)]);
            seen[m.proc_of(t)] = true;
        }
    }

    #[test]
    fn close_to_flat_topolb_on_stencil() {
        let tasks = gen::stencil2d(16, 16, 1024.0, false);
        let machine = Torus::torus_2d(16, 16);
        let flat = metrics::hops_per_byte(
            &tasks,
            &machine,
            &RefineTopoLb::new(TopoLb::default()).map(&tasks, &machine),
        );
        let h = HierMapper::for_torus_with(&machine, &[16, 4, 4]).unwrap();
        let hier = metrics::hops_per_byte(&tasks, &machine, &h.map(&tasks, &machine));
        let rnd =
            metrics::hops_per_byte(&tasks, &machine, &RandomMap::new(1).map(&tasks, &machine));
        assert!(
            hier < 0.5 * rnd,
            "hierarchical {hier} must beat random {rnd}"
        );
        assert!(
            hier <= 1.35 * flat,
            "hierarchical {hier} vs flat+refine {flat}"
        );
    }

    #[test]
    fn works_on_3d_machine() {
        let tasks = gen::stencil3d(4, 4, 4, 512.0, false);
        let machine = Torus::torus_3d(4, 4, 4);
        let h = HierMapper::for_torus_with(&machine, &[8, 8]).unwrap();
        let m = h.map(&tasks, &machine);
        let hpb = metrics::hops_per_byte(&tasks, &machine, &m);
        assert!(hpb < 2.5, "hpb {hpb}");
    }

    #[test]
    fn fattree_machine_via_identity_hierarchy() {
        let tasks = gen::stencil2d(8, 8, 256.0, false);
        let machine = FatTree::new(4, 3);
        let h = HierMapper::new(Hierarchy::from_fattree(&machine));
        let m = h.map(&tasks, &machine);
        assert_eq!(m.num_tasks(), 64);
        let hier = metrics::hops_per_byte(&tasks, &machine, &m);
        let rnd =
            metrics::hops_per_byte(&tasks, &machine, &RandomMap::new(7).map(&tasks, &machine));
        assert!(hier < rnd, "hier {hier} vs random {rnd}");
    }

    #[test]
    fn arbitrary_metric_machine_via_identity_over() {
        let machine = GraphTopology::ring(32);
        let hier = Hierarchy::identity_over(&machine, &[4, 8]).unwrap();
        let tasks = gen::ring(32, 100.0);
        let m = HierMapper::new(hier).map(&tasks, &machine);
        assert_eq!(m.num_tasks(), 32);
    }

    #[test]
    fn fewer_tasks_than_processors() {
        let tasks = gen::ring(10, 100.0);
        let machine = Torus::torus_2d(4, 4);
        let h = HierMapper::for_torus_with(&machine, &[4, 4]).unwrap();
        let m = h.map(&tasks, &machine);
        assert_eq!(m.num_tasks(), 10);
    }

    #[test]
    fn parallel_equals_serial_quick_check() {
        let tasks = gen::stencil2d(8, 8, 777.0, true);
        let machine = Torus::torus_2d(8, 8);
        let mk = |threads: usize| {
            let mut h = HierMapper::for_torus_with(&machine, &[4, 4, 4]).unwrap();
            h.par = Parallelism::eager(threads);
            h.map(&tasks, &machine)
        };
        let serial = mk(1);
        assert_eq!(serial, mk(2));
        assert_eq!(serial, mk(8));
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn machine_size_mismatch_panics() {
        let tasks = gen::ring(4, 1.0);
        let machine = Torus::torus_2d(4, 4);
        HierMapper::new(Hierarchy::new(vec![4, 8], vec![1, 3])).map(&tasks, &machine);
    }

    #[test]
    fn auto_arities_cover_and_shape() {
        for p in [1usize, 7, 25, 64, 576, 1024, 4096, 16384] {
            let a = auto_arities(p);
            assert_eq!(a.iter().product::<usize>(), p, "{a:?}");
            assert!(a[0] <= 16);
        }
        assert_eq!(auto_arities(4096), vec![16, 16, 16]);
        assert_eq!(auto_arities(1024), vec![16, 16, 4]);
    }

    /// The block layout `Hierarchy::factor_torus` hands `for_torus`: every
    /// level-`i` container (a contiguous `pe_order` run) is an axis-aligned
    /// box of the machine, all boxes of a level share their extents, and
    /// their origins sit on the grid those extents stride.
    #[test]
    fn factor_torus_blocks_are_aligned_boxes_on_a_strided_grid() {
        let t3 = Torus::torus_3d(16, 16, 16);
        let t2 = Torus::torus_2d(128, 128);
        let cases = [
            (auto_arities(t3.num_nodes()), t3),
            (auto_arities(t2.num_nodes()), t2),
            (vec![4, 4, 3], Torus::mesh(&[8, 6])),
            (vec![4, 3, 5], Torus::torus(&[5, 4, 3])),
        ];
        for (arities, t) in &cases {
            let (_, pe_order) = Hierarchy::factor_torus(t, arities).unwrap();
            let nd = t.dims().len();
            let mut size = 1;
            for (level, &a) in arities.iter().enumerate() {
                size *= a;
                let mut level_extent = None;
                for block in pe_order.chunks(size) {
                    let (mut lo, mut hi) = (vec![usize::MAX; nd], vec![0; nd]);
                    for &node in block {
                        let c = t.coords(node);
                        for d in 0..nd {
                            lo[d] = lo[d].min(c.get(d));
                            hi[d] = hi[d].max(c.get(d));
                        }
                    }
                    let extent: Vec<usize> = (0..nd).map(|d| hi[d] - lo[d] + 1).collect();
                    // `size` distinct nodes inside a box of volume `size`:
                    // the block fills the box, no wrap-around.
                    let what = format!("{} level {} block at {lo:?}", t.name(), level + 1);
                    assert_eq!(extent.iter().product::<usize>(), size, "{what}");
                    let first = level_extent.get_or_insert_with(|| extent.clone());
                    assert_eq!(first, &extent, "{what}");
                    assert!((0..nd).all(|d| lo[d] % extent[d] == 0), "{what}");
                }
            }
        }
    }

    /// One machine per family with a hierarchy over it: torus, mesh,
    /// mixed-wrap torus (factored), hypercube, dragonfly and a graph with
    /// chords (identity layouts), fat-tree (its own tree, `dmin` = 2).
    fn sweep_machines() -> Vec<(Box<dyn Topology>, HierMapper)> {
        let factored = |t: Torus, arities: &[usize]| -> (Box<dyn Topology>, HierMapper) {
            let h = HierMapper::for_torus_with(&t, arities).unwrap();
            (Box::new(t), h)
        };
        let identity = |t: Box<dyn Topology>, arities: &[usize]| {
            let h = HierMapper::new(Hierarchy::identity_over(t.as_ref(), arities).unwrap());
            (t, h)
        };
        let chords: Vec<(usize, usize)> = (0..32)
            .map(|i| (i, (i + 1) % 32))
            .chain((0..32).step_by(5).map(|i| (i, (i * 7 + 11) % 32)))
            .filter(|&(a, b)| a != b)
            .collect();
        let ft = FatTree::new(4, 3);
        vec![
            factored(Torus::torus_2d(8, 8), &[4, 4, 4]),
            factored(Torus::mesh(&[6, 6]), &[6, 6]),
            factored(Torus::new(&[8, 4], &[true, false]), &[4, 8]),
            identity(Box::new(Hypercube::new(6)), &[4, 4, 4]),
            identity(Box::new(Dragonfly::new(4, 8)), &[8, 4]),
            identity(Box::new(GraphTopology::from_edges(32, &chords)), &[4, 4, 2]),
            (Box::new(ft), HierMapper::new(Hierarchy::from_fattree(&ft))),
        ]
    }

    /// Run [`Unit::sweeps`] and the skip-free oracle on copies of `unit`:
    /// both must accept the same candidates in the same order — same
    /// `slot_of`, `occupant` and return value. Returns the swept copy.
    fn sweeps_match_oracle(unit: &Unit, max_sweeps: usize, what: &str) -> Unit {
        let (mut fast, mut naive) = (unit.clone(), unit.clone());
        let got = fast.sweeps(max_sweeps);
        assert_eq!(got, naive.sweeps_naive(max_sweeps), "{what}: changes");
        assert_eq!(fast.slot_of, naive.slot_of, "{what}: slot_of");
        assert_eq!(fast.occupant, naive.occupant, "{what}: occupant");
        fast
    }

    /// From `unit`'s own start and from a seeded random one: a bounded
    /// call, a call to convergence, and a call from the converged state.
    fn check_unit(unit: &Unit, max_sweeps: usize, seed: u64, what: &str) {
        let mut random = unit.clone();
        let mut slots: Vec<usize> = (0..unit.nodes.len()).collect();
        slots.shuffle(&mut StdRng::seed_from_u64(seed));
        random.reset();
        for (i, &sl) in slots.iter().take(unit.ms.len()).enumerate() {
            random.slot_of[i] = sl;
            random.occupant[sl] = i;
        }
        for (start, from) in [(unit, "given"), (&random, "random")] {
            let what = format!("{what}, {from} start");
            let once = sweeps_match_oracle(start, max_sweeps, &what);
            let converged = sweeps_match_oracle(&once, 64, &what);
            sweeps_match_oracle(&converged, max_sweeps, &format!("{what}, converged"));
        }
    }

    /// The settled-task skip accepts exactly what the skip-free sweep
    /// accepts, on all three unit kinds (leaf units with block-origin
    /// externals; pair units with frozen externals, after
    /// `load_positions` and after `place_greedy(true)`; the coarse unit)
    /// over every machine family, full and part-full.
    #[test]
    fn sweep_skip_matches_the_skip_free_oracle() {
        for (topo, h) in sweep_machines() {
            let topo = topo.as_ref();
            let p = topo.num_nodes();
            let a1 = h.hier.arities()[0];
            let leaves = p / a1;
            let side = (1..=p).rev().find(|d| p % d == 0 && d * d <= p).unwrap();
            let graphs = [
                gen::stencil2d(side, p / side, 512.0, false),
                gen::random_graph(p, 4.0, 1.0, 1000.0, p as u64),
                gen::random_graph(3 * p / 4, 3.0, 1.0, 1000.0, 7),
            ];
            for (gi, tasks) in graphs.iter().enumerate() {
                let n = tasks.num_tasks();
                let what = format!("{} graph {gi}", topo.name());
                let mut local_of = vec![usize::MAX; n];

                let (leaf_of, coarse) = h.coarsen(tasks);
                let coarse = h.coarse_unit(&coarse, topo);
                check_unit(&coarse, 8, 1, &format!("{what} coarse"));

                let leaf_of: Vec<usize> = leaf_of.iter().map(|&cl| coarse.slot_of[cl]).collect();
                let origin_of = |u: TaskId| h.pe(leaf_of[u] * a1);
                for leaf in 0..leaves {
                    let ms: Vec<TaskId> = (0..n).filter(|&t| leaf_of[t] == leaf).collect();
                    let nodes = (0..a1).map(|o| h.pe(leaf * a1 + o)).collect();
                    let mut unit = Unit::new(tasks, topo, ms, nodes, &mut local_of, &origin_of);
                    unit.place_greedy(false);
                    let what = format!("{what} leaf {leaf}");
                    check_unit(&unit, LEAF_SWEEPS, leaf as u64, &what);
                }

                let snapshot = h.map(tasks, topo);
                let snapshot = snapshot.as_slice();
                let mut node_pos = vec![0usize; p];
                for q in 0..p {
                    node_pos[h.pe(q)] = q;
                }
                let frozen = |u: TaskId| snapshot[u];
                for g in 0..leaves.saturating_sub(1) {
                    let in_pair = |t: &usize| (g..g + 2).contains(&(node_pos[snapshot[*t]] / a1));
                    let ms: Vec<TaskId> = (0..n).filter(in_pair).collect();
                    let nodes = (g * a1..(g + 2) * a1).map(|q| h.pe(q)).collect();
                    let mut unit = Unit::new(tasks, topo, ms, nodes, &mut local_of, &frozen);
                    unit.load_positions(snapshot);
                    check_unit(&unit, 4, g as u64, &format!("{what} pair {g} loaded"));
                    unit.reset();
                    unit.place_greedy(true);
                    check_unit(&unit, 4, g as u64, &format!("{what} pair {g} rebuilt"));
                }
            }
        }
    }

    /// On the benchmark's converged 2-D coarse unit (1,024 clusters of a
    /// 128² stencil on the 32² grid of block origins), every cluster is
    /// settled, so the sweep evaluates no candidate at all — where the
    /// skip-free sweep scanned every (cluster, slot) pair once.
    #[test]
    fn converged_2d_coarse_unit_skips_every_candidate() {
        let t = Torus::torus_2d(128, 128);
        let tasks = gen::stencil2d(128, 128, 4096.0, false);
        let h = HierMapper::for_torus(&t).unwrap();
        let (_, coarse) = h.coarsen(&tasks);
        let unit = h.coarse_unit(&coarse, &t);
        assert_eq!(unit.ms.len(), 1024);
        assert!((0..unit.ms.len()).all(|i| unit.settled(i)));
        let swept = sweeps_match_oracle(&unit, 8, "2-D coarse unit");
        assert_eq!(swept.evaluated, 0, "a candidate was evaluated");
    }

    /// The coarse step's block table is the machine's metric over the
    /// block origins: `CachedTopology` over a `Restriction` to a scrambled
    /// origin list matches scalar `distance` entry by entry, in its row
    /// sums and in its diameter, and `Restriction::distances_into` matches
    /// it over a scrambled, duplicated target list.
    #[test]
    fn restriction_table_and_gather_match_scalar_distance() {
        let machines: Vec<Box<dyn Topology>> = vec![
            Box::new(Torus::torus_2d(6, 5)),
            Box::new(Torus::mesh_2d(4, 7)),
            Box::new(Torus::new(&[4, 3, 2], &[true, false, true])),
            Box::new(Hypercube::new(5)),
            Box::new(FatTree::new(3, 3)),
            Box::new(Dragonfly::new(4, 5)),
            Box::new(GraphTopology::ring(21)),
        ];
        for (seed, m) in machines.iter().enumerate() {
            let p = m.num_nodes();
            let mut nodes: Vec<NodeId> = (0..p).filter(|q| q % 3 != 1).collect();
            nodes.shuffle(&mut StdRng::seed_from_u64(seed as u64));
            let k = nodes.len();
            let restricted = Restriction {
                topo: m.as_ref(),
                nodes: &nodes,
            };
            let table = CachedTopology::new(Restriction {
                topo: m.as_ref(),
                nodes: &nodes,
            });
            let mut diameter = 0;
            for a in 0..k {
                let row: Vec<u32> = (0..k).map(|b| m.distance(nodes[a], nodes[b])).collect();
                for (b, &d) in row.iter().enumerate() {
                    assert_eq!(table.distance(a, b), d, "{} ({a}, {b})", m.name());
                }
                let sum: u64 = row.iter().map(|&d| d as u64).sum();
                assert_eq!(table.sum_distance_from(a), sum, "{} row {a}", m.name());
                diameter = row.into_iter().fold(diameter, u32::max);
            }
            assert_eq!(table.diameter(), diameter, "{}", m.name());

            let targets: Vec<NodeId> = (0..k).rev().chain([0, k / 2, 0]).collect();
            let mut got = Vec::new();
            for from in 0..k {
                restricted.distances_into(from, &targets, &mut got);
                let want: Vec<u32> = targets
                    .iter()
                    .map(|&t| m.distance(nodes[from], nodes[t]))
                    .collect();
                assert_eq!(got, want, "{} from {from}", m.name());
            }
        }
    }

    #[test]
    fn name_reflects_shape() {
        let h = HierMapper::new(Hierarchy::new(vec![4, 8], vec![1, 3]));
        assert_eq!(h.name(), "HierMapper(4:8)");
    }

    #[test]
    fn unit_deltas_match_brute_force() {
        // One pair unit on a small torus; every delta_to-based decision
        // must match the brute-force hop-bytes change.
        let tasks = gen::stencil2d(4, 8, 100.0, false);
        let machine = Torus::torus_2d(4, 8);
        let h = HierMapper::for_torus_with(&machine, &[8, 4]).unwrap();
        let m = {
            let mut h0 = h.clone();
            h0.refine_passes = 0;
            h0.map(&tasks, &machine)
        };
        let snapshot: Vec<usize> = (0..32).map(|t| m.proc_of(t)).collect();
        let node_pos = {
            let mut v = vec![0usize; 32];
            for q in 0..32 {
                v[h.pe(q)] = q;
            }
            v
        };
        let mut members: Vec<Vec<TaskId>> = vec![Vec::new(); 4];
        for t in 0..32 {
            members[node_pos[snapshot[t]] / 8].push(t);
        }
        let mut ms = members[0].clone();
        ms.extend_from_slice(&members[1]);
        let nodes: Vec<usize> = (0..16).map(|q| h.pe(q)).collect();
        let mut local_of = vec![usize::MAX; 32];
        let frozen = |u: TaskId| snapshot[u];
        let mut unit = Unit::new(
            &tasks,
            &machine,
            ms.clone(),
            nodes.clone(),
            &mut local_of,
            &frozen,
        );
        unit.load_positions(&snapshot);
        // Brute-force objective of a candidate assignment for unit tasks,
        // snapshot for everyone else (each edge once).
        let hb = |slot_of: &[usize]| -> f64 {
            let pos = |t: TaskId| -> usize {
                match ms.iter().position(|&x| x == t) {
                    Some(i) => nodes[slot_of[i]],
                    None => snapshot[t],
                }
            };
            tasks
                .edges()
                .map(|(a, b, w)| w * machine.distance(pos(a), pos(b)) as f64)
                .sum()
        };
        let base = hb(&unit.slot_of);
        for i in 0..ms.len() {
            for sl in 0..nodes.len() {
                if sl == unit.slot_of[i] {
                    continue;
                }
                let j = unit.occupant[sl];
                let mut trial = unit.slot_of.clone();
                let predicted = if j == usize::MAX {
                    trial[i] = sl;
                    unit.delta_to(i, sl, usize::MAX)
                } else {
                    trial.swap(i, j);
                    unit.delta_to(i, sl, j) + unit.delta_to(j, unit.slot_of[i], i)
                };
                let actual = hb(&trial) - base;
                assert!(
                    (predicted - actual).abs() < 1e-6,
                    "i={i} sl={sl} j={j}: predicted {predicted} actual {actual}"
                );
            }
        }
    }
}
