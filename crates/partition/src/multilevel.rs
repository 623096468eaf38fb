//! Multilevel k-way partitioner — the METIS substitute.
//!
//! Follows the scheme of Karypis & Kumar (the paper's refs [13–15]):
//!
//! 1. **Coarsening**: repeatedly contract a heavy-edge matching until the
//!    graph is small (≤ `coarsen_to × k` vertices) or contraction stalls.
//!    Matching prefers the heaviest incident edge, so the strongest
//!    communication gets hidden inside coarse vertices early.
//! 2. **Initial partitioning**: greedy graph growing on the coarsest
//!    graph — seed a region with the highest-connectivity unassigned
//!    vertex, grow by strongest connection until the load target is met,
//!    repeat for each part. `O(|E| log n)`.
//! 3. **Uncoarsening + refinement**: project the partition back level by
//!    level, running FM-style refinement at each level: sweep *every*
//!    vertex (not only the boundary) up to `refine_passes` times, moving
//!    it to the neighboring part with maximal cut gain subject to the
//!    balance constraint. `O(passes · |E|)`, measured at 0.9 ms per level
//!    on `stencil2d 128×128` into 1,024 parts, where the whole partition
//!    takes ≈ 5 ms spread flat over its steps (DESIGN.md §13): measure
//!    before optimising any of them.
//!
//! The result is the paper's phase-1 input: p balanced groups with low
//! inter-group communication.

use crate::{Partition, Partitioner};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use topomap_taskgraph::TaskGraph;

/// METIS-style multilevel k-way partitioner.
#[derive(Debug, Clone)]
pub struct MultilevelKWay {
    /// Stop coarsening once the graph has at most `coarsen_to * k` vertices.
    pub(crate) coarsen_to: usize,
    /// Allowed imbalance: max part load ≤ `balance_tolerance ×` average.
    pub(crate) balance_tolerance: f64,
    /// FM refinement passes per level.
    pub(crate) refine_passes: usize,
    /// Seed for tie-breaking orders in matching and refinement.
    pub(crate) seed: u64,
}

impl Default for MultilevelKWay {
    fn default() -> Self {
        MultilevelKWay {
            coarsen_to: 15,
            balance_tolerance: 1.05,
            refine_passes: 4,
            seed: 0xC0FFEE,
        }
    }
}

impl Partitioner for MultilevelKWay {
    fn partition(&self, g: &TaskGraph, k: usize) -> Partition {
        assert!(k > 0);
        let n = g.num_tasks();
        if k == 1 {
            return Partition::new(vec![0; n], 1);
        }
        if k >= n {
            return Partition::new((0..n).collect(), k);
        }

        let mut rng = StdRng::seed_from_u64(self.seed);

        // --- Coarsening phase ---
        // `coarse[i]` is level i + 1 (level 0 is `g` itself) and `maps[i]`
        // takes the vertices of level i to those of level i + 1.
        let mut coarse: Vec<TaskGraph> = Vec::new();
        let mut maps: Vec<Vec<usize>> = Vec::new();
        let target = (self.coarsen_to * k).max(2 * k);
        loop {
            let cur = coarse.last().unwrap_or(g);
            if cur.num_tasks() <= target {
                break;
            }
            let (map, coarse_n) = heavy_edge_matching(cur, &mut rng);
            // Stall detection: require at least 10% shrinkage.
            if coarse_n as f64 > cur.num_tasks() as f64 * 0.9 {
                break;
            }
            // Intra-pair edges vanish: their weight is irrelevant to the cut.
            let next = cur.coalesce(&map, coarse_n);
            maps.push(map);
            coarse.push(next);
        }

        // --- Initial partitioning on the coarsest graph ---
        let coarsest = coarse.last().unwrap_or(g);
        let mut assignment = greedy_graph_growing(coarsest, k);
        refine(
            coarsest,
            &mut assignment,
            k,
            self.balance_tolerance,
            self.refine_passes,
        );

        // --- Uncoarsening + refinement ---
        for level in (0..maps.len()).rev() {
            let fine = if level == 0 { g } else { &coarse[level - 1] };
            assignment = maps[level].iter().map(|&c| assignment[c]).collect();
            refine(
                fine,
                &mut assignment,
                k,
                self.balance_tolerance,
                self.refine_passes,
            );
        }

        Partition::new(assignment, k)
    }

    fn name(&self) -> &'static str {
        "MultilevelKWay"
    }
}

/// Heavy-edge matching: returns (fine→coarse map, #coarse vertices).
///
/// Vertices are visited in a random order; an unmatched vertex matches its
/// unmatched neighbor with the heaviest connecting edge (ties → lower id).
fn heavy_edge_matching(g: &TaskGraph, rng: &mut StdRng) -> (Vec<usize>, usize) {
    let n = g.num_tasks();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut mate = vec![usize::MAX; n];
    for &v in &order {
        if mate[v] != usize::MAX {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for (u, w) in g.neighbors(v) {
            if mate[u] != usize::MAX || u == v {
                continue;
            }
            let better = match best {
                None => true,
                Some((bw, bu)) => w > bw || (w == bw && u < bu),
            };
            if better {
                best = Some((w, u));
            }
        }
        match best {
            Some((_, u)) => {
                mate[v] = u;
                mate[u] = v;
            }
            None => mate[v] = v, // stays single
        }
    }
    // Number coarse vertices.
    let mut map = vec![usize::MAX; n];
    let mut next = 0usize;
    for v in 0..n {
        if map[v] != usize::MAX {
            continue;
        }
        map[v] = next;
        let m = mate[v];
        if m != v && m != usize::MAX {
            map[m] = next;
        }
        next += 1;
    }
    (map, next)
}

/// Greedy graph growing: grow `k` regions to the average load target.
///
/// A region starts at the unassigned vertex of maximum weighted degree and
/// keeps taking the unassigned vertex most strongly connected to it (ties
/// to the lower id in both); when the frontier runs dry before the target
/// it re-seeds (otherwise parts strand at one vertex on graphs like
/// LeanMD's cell/compute bipartite structure and the remainder collapses
/// into the last part).
///
/// Both choices are maxima of a total order, so they do not depend on how
/// the candidates are stored. Seeds come off one cursor over the vertices
/// sorted by (degree desc, id asc); assignments are permanent, so it never
/// moves back. The frontier is a max-heap keyed on `conn`'s bits (edge
/// weights are finite and > 0, so bit order is value order); `conn` only
/// grows while a vertex waits, so every increase pushes a fresh entry, and
/// an entry whose key is no longer `conn[v]` is skipped when it surfaces.
fn greedy_graph_growing(g: &TaskGraph, k: usize) -> Vec<usize> {
    let n = g.num_tasks();
    let target = g.total_vertex_weight() / k as f64;
    let mut assignment = vec![usize::MAX; n];

    let degree: Vec<f64> = (0..n).map(|v| g.weighted_degree(v)).collect();
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_unstable_by(|&a, &b| degree[b].total_cmp(&degree[a]).then(a.cmp(&b)));
    let mut cursor = 0usize;

    // Connectivity of each unassigned vertex to the current region; the
    // non-zero entries are exactly `touched`.
    let mut conn = vec![0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut frontier: BinaryHeap<(u64, Reverse<usize>)> = BinaryHeap::new();

    'parts: for part in 0..k - 1 {
        #[cfg(test)]
        tests::tally(tests::RESETS, touched.len());
        for u in touched.drain(..) {
            conn[u] = 0.0;
        }
        frontier.clear();
        let mut load = 0f64;

        while load < target {
            let live = std::iter::from_fn(|| frontier.pop())
                .find(|&(key, Reverse(v))| assignment[v] == usize::MAX && key == conn[v].to_bits());
            let v = match live {
                Some((_, Reverse(v))) => v,
                None => {
                    // Frontier dry: seed at the strongest communicator left.
                    while cursor < n && assignment[by_degree[cursor]] != usize::MAX {
                        cursor += 1;
                        #[cfg(test)]
                        tests::tally(tests::CURSOR_STEPS, 1);
                    }
                    if cursor == n {
                        break 'parts; // everything is assigned
                    }
                    by_degree[cursor]
                }
            };
            assignment[v] = part;
            load += g.vertex_weight(v);
            for (u, w) in g.neighbors(v) {
                if assignment[u] == usize::MAX {
                    if conn[u] == 0.0 {
                        touched.push(u);
                    }
                    conn[u] += w;
                    frontier.push((conn[u].to_bits(), Reverse(u)));
                    #[cfg(test)]
                    tests::tally(tests::PUSHES, 1);
                }
            }
        }
    }
    // Remainder goes to the last part.
    let last = |a: usize| if a == usize::MAX { k - 1 } else { a };
    assignment.into_iter().map(last).collect()
}

/// FM-style refinement: up to `passes` sweeps over every vertex, each a
/// greedy single-vertex move that reduces the cut (or, at zero gain,
/// improves balance), subject to the balance bound. `O(passes · |E|)`.
fn refine(
    g: &TaskGraph,
    assignment: &mut [usize],
    k: usize,
    balance_tolerance: f64,
    passes: usize,
) {
    let n = g.num_tasks();
    let total = g.total_vertex_weight();
    let avg = total / k as f64;
    let max_load = avg * balance_tolerance;

    let mut loads = vec![0f64; k];
    for v in 0..n {
        loads[assignment[v]] += g.vertex_weight(v);
    }

    // Per-vertex scratch: connection weight to each part (sparse touch-list).
    let mut conn = vec![0f64; k];
    let mut touched: Vec<usize> = Vec::with_capacity(8);

    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let cur = assignment[v];
            // Compute connections to parts of neighbors.
            touched.clear();
            for (u, w) in g.neighbors(v) {
                let pu = assignment[u];
                if conn[pu] == 0.0 {
                    touched.push(pu);
                }
                conn[pu] += w;
            }
            // Best alternative part among neighbor parts.
            let mut best: Option<(f64, usize)> = None;
            for &p in &touched {
                if p == cur {
                    continue;
                }
                let gain = conn[p] - conn[cur];
                let better = match best {
                    None => true,
                    Some((bg, bp)) => gain > bg || (gain == bg && p < bp),
                };
                if better {
                    best = Some((gain, p));
                }
            }
            if let Some((gain, p)) = best {
                let w = g.vertex_weight(v);
                let fits = loads[p] + w <= max_load;
                // Never empty a part entirely (k-way partition must stay k-way
                // when k <= n): moving the last vertex out is forbidden.
                let keeps_nonempty = loads[cur] - w > 0.0 || w == 0.0;
                let improves_balance = loads[p] + w < loads[cur];
                // Balance repair: while the source part is over the bound,
                // accept moves that shed load even at negative cut gain.
                let repair = loads[cur] > max_load && improves_balance && loads[p] + w <= max_load;
                if keeps_nonempty
                    && ((gain > 0.0 && fits) || (gain == 0.0 && improves_balance) || repair)
                {
                    assignment[v] = p;
                    loads[cur] -= w;
                    loads[p] += w;
                    moved += 1;
                }
            }
            // Reset scratch.
            for &p in &touched {
                conn[p] = 0.0;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use topomap_taskgraph::gen;

    thread_local! {
        /// `[pushes, cursor steps, resets]` of this thread's growing calls,
        /// counted in test builds only.
        static WORK: Cell<[usize; 3]> = const { Cell::new([0; 3]) };
    }
    pub(super) const PUSHES: usize = 0;
    pub(super) const CURSOR_STEPS: usize = 1;
    pub(super) const RESETS: usize = 2;

    pub(super) fn tally(what: usize, by: usize) {
        WORK.with(|w| {
            let mut counts = w.get();
            counts[what] += by;
            w.set(counts);
        });
    }

    /// Greedy graph growing as it was before the rewrite, kept verbatim as
    /// the oracle: per part a full `conn` reset, a scan of all of `order`
    /// for the seed and a linear `max_by` over the frontier.
    fn greedy_graph_growing_naive(g: &TaskGraph, k: usize, rng: &mut StdRng) -> Vec<usize> {
        let n = g.num_tasks();
        let total: f64 = g.total_vertex_weight();
        let target = total / k as f64;
        let mut assignment = vec![usize::MAX; n];
        let mut conn = vec![0f64; n];

        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);

        for part in 0..k.saturating_sub(1) {
            conn.iter_mut().for_each(|c| *c = 0.0);
            let mut load = 0f64;
            let mut frontier: Vec<usize> = Vec::new();

            while load < target {
                if frontier.is_empty() {
                    let seed = order
                        .iter()
                        .copied()
                        .filter(|&v| assignment[v] == usize::MAX)
                        .max_by(|&a, &b| {
                            g.weighted_degree(a)
                                .partial_cmp(&g.weighted_degree(b))
                                .unwrap()
                                .then(b.cmp(&a))
                        });
                    let Some(seed) = seed else { break };
                    conn[seed] = f64::INFINITY;
                    frontier.push(seed);
                }
                let Some((idx, &v)) = frontier.iter().enumerate().max_by(|(_, &a), (_, &b)| {
                    conn[a].partial_cmp(&conn[b]).unwrap().then(b.cmp(&a))
                }) else {
                    break;
                };
                frontier.swap_remove(idx);
                if assignment[v] != usize::MAX {
                    continue;
                }
                assignment[v] = part;
                load += g.vertex_weight(v);
                for (u, w) in g.neighbors(v) {
                    if assignment[u] == usize::MAX {
                        if conn[u] == 0.0 {
                            frontier.push(u);
                        }
                        conn[u] += w;
                    }
                }
            }
        }
        for a in assignment.iter_mut().take(n) {
            if *a == usize::MAX {
                *a = k - 1;
            }
        }
        assignment
    }

    fn two_rings(n: usize) -> TaskGraph {
        let mut b = TaskGraph::builder(2 * n);
        for i in 0..n {
            b.add_comm(i, (i + 1) % n, 2.0);
            b.add_comm(n + i, n + (i + 1) % n, 3.0);
        }
        b.build()
    }

    /// Every family of `tests/golden_partitions.rs`, at sizes the naive
    /// oracle gets through in a debug build.
    fn golden_families() -> Vec<(&'static str, TaskGraph)> {
        let md = gen::LeanMdConfig {
            num_computes: 800,
            ..Default::default()
        };
        vec![
            ("stencil2d-32", gen::stencil2d(32, 32, 1024.0, false)),
            (
                "stencil2d-48-periodic",
                gen::stencil2d(48, 48, 1024.0, true),
            ),
            ("stencil3d-10", gen::stencil3d(10, 10, 10, 512.0, false)),
            (
                "random-600-seed1",
                gen::random_graph(600, 6.0, 1.0, 1000.0, 1),
            ),
            (
                "random-600-seed3",
                gen::random_graph(600, 3.0, 1.0, 1000.0, 3),
            ),
            ("leanmd-64", gen::leanmd(64, &md)),
            ("ring-1000", gen::ring(1000, 8.0)),
            ("two-rings-40", two_rings(20)),
        ]
    }

    #[test]
    fn growing_equals_the_naive_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for (name, fine) in golden_families() {
            let (map, coarse_n) = heavy_edge_matching(&fine, &mut rng);
            let matched = fine.coalesce(&map, coarse_n);
            for (level, g) in [("fine", &fine), ("matched", &matched)] {
                let n = g.num_tasks();
                for k in [2, 7, 64, (n / 16).max(2), n - 1] {
                    // The oracle's `order` is shuffled differently on every
                    // call: its seeds do not depend on it.
                    assert_eq!(
                        greedy_graph_growing(g, k),
                        greedy_graph_growing_naive(g, k, &mut rng),
                        "{name} ({level}, {n} vertices), k = {k}"
                    );
                }
            }
        }
    }

    /// The `k × n` loop cannot come back unnoticed, on any host: the
    /// benchmark's case does `O(|E|)` heap pushes and one pass of the cursor.
    #[test]
    fn growing_work_is_bounded_by_the_graph_not_by_k_times_n() {
        let g = gen::stencil2d(128, 128, 1024.0, false);
        let (n, edges) = (g.num_tasks(), g.num_edges());
        WORK.with(|w| w.set([0; 3]));
        let assignment = greedy_graph_growing(&g, 1024);
        let [pushes, cursor_steps, resets] = WORK.with(|w| w.get());
        assert!(assignment.iter().all(|&p| p < 1024));
        assert!(pushes > 0 && cursor_steps > 0 && resets > 0, "not counted");
        assert!(pushes <= 2 * edges + n, "{pushes} pushes, |E| = {edges}");
        assert!(cursor_steps <= n, "{cursor_steps} cursor steps, n = {n}");
        assert!(resets <= pushes, "{resets} resets, {pushes} pushes");
    }

    #[test]
    fn covers_all_and_in_range() {
        let g = gen::random_graph(120, 5.0, 1.0, 100.0, 3);
        let p = MultilevelKWay::default().partition(&g, 8);
        assert_eq!(p.num_tasks(), 120);
        assert!(p.assignment().iter().all(|&x| x < 8));
        assert!(p.part_sizes().iter().all(|&s| s > 0), "no empty parts");
    }

    #[test]
    fn balanced_on_uniform_stencil() {
        let g = gen::stencil2d(16, 16, 1024.0, false);
        let p = MultilevelKWay::default().partition(&g, 16);
        assert!(
            p.imbalance_for(&g) <= 1.30,
            "imbalance {}",
            p.imbalance_for(&g)
        );
    }

    #[test]
    fn beats_random_cut_substantially() {
        let g = gen::stencil2d(16, 16, 1.0, false);
        let ml = MultilevelKWay::default().partition(&g, 8);
        let rnd = crate::RandomPartition::new(7).partition(&g, 8);
        let (mc, rc) = (ml.edge_cut(&g), rnd.edge_cut(&g));
        assert!(
            mc < 0.5 * rc,
            "multilevel cut {mc} should be far below random cut {rc}"
        );
    }

    #[test]
    fn k_equals_one_and_k_ge_n() {
        let g = gen::ring(6, 1.0);
        let p1 = MultilevelKWay::default().partition(&g, 1);
        assert!(p1.assignment().iter().all(|&x| x == 0));
        let p6 = MultilevelKWay::default().partition(&g, 6);
        let mut seen = p6.assignment().to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>(), "k == n gives singletons");
        let p9 = MultilevelKWay::default().partition(&g, 9);
        assert_eq!(p9.num_parts(), 9);
    }

    #[test]
    fn deterministic() {
        let g = gen::random_graph(80, 4.0, 1.0, 10.0, 11);
        let ml = MultilevelKWay::default();
        assert_eq!(ml.partition(&g, 5), ml.partition(&g, 5));
    }

    #[test]
    fn matching_is_valid() {
        let g = gen::stencil2d(6, 6, 1.0, false);
        let mut rng = StdRng::seed_from_u64(1);
        let (map, cn) = heavy_edge_matching(&g, &mut rng);
        assert!((18..=36).contains(&cn));
        // Each coarse vertex has 1 or 2 fine vertices.
        let mut counts = vec![0usize; cn];
        for &c in &map {
            counts[c] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1 || c == 2));
    }

    #[test]
    fn handles_disconnected_graph() {
        // Two disjoint rings: partitioner must still cover everything.
        let mut b = topomap_taskgraph::TaskGraph::builder(12);
        for i in 0..6usize {
            b.add_comm(i, (i + 1) % 6, 2.0);
            b.add_comm(6 + i, 6 + (i + 1) % 6, 2.0);
        }
        let g = b.build();
        let p = MultilevelKWay::default().partition(&g, 2);
        assert_eq!(p.num_tasks(), 12);
        assert!(p.imbalance() <= 1.5);
    }

    #[test]
    fn leanmd_partition_quality() {
        let g = gen::leanmd(64, &gen::LeanMdConfig::default());
        let p = MultilevelKWay::default().partition(&g, 64);
        assert!(p.part_sizes().iter().all(|&s| s > 0));
        let rnd = crate::RandomPartition::new(1).partition(&g, 64);
        assert!(p.edge_cut(&g) < rnd.edge_cut(&g));
    }
}
