//! Mapping-quality metrics (§3 of the paper).
//!
//! The primary metric is **hop-bytes** — communication volume weighted by
//! the number of network links it crosses — and its normalized form
//! **hops-per-byte** ("the average number of network links a byte has to
//! travel under a task mapping"). The per-link load metrics connect
//! hop-bytes to contention: with deterministic routing, hop-bytes equals
//! the total byte-load summed over all links, so reducing it reduces the
//! *average* link load directly.

use crate::par::{Executor, Parallelism};
use crate::Mapping;
use topomap_taskgraph::TaskGraph;
use topomap_topology::{Link, LinkIndex, RoutedTopology, Topology};

/// Total hop-bytes: `Σ_{e_ab ∈ Et} c_ab · d_p(P(a), P(b))`.
pub fn hop_bytes(tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping) -> f64 {
    assert_eq!(tasks.num_tasks(), m.num_tasks());
    tasks
        .edges()
        .map(|(a, b, c)| c * topo.distance(m.proc_of(a), m.proc_of(b)) as f64)
        .sum()
}

/// [`hop_bytes`] for a batch of mappings, evaluated in parallel — one
/// mapping per work item, so every mapping's edge sum keeps the serial
/// accumulation order and each result is bit-identical to a
/// [`hop_bytes`] call. Used by the genetic mapper's population fitness
/// and the bench drivers.
pub fn hop_bytes_many(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    maps: &[Mapping],
    par: Parallelism,
) -> Vec<f64> {
    // One distance evaluation (15 ns) per edge per mapping.
    let map_ns = 15 * tasks.num_edges();
    Executor::new(par)
        .map_chunks(maps.len(), map_ns, |range| {
            range
                .map(|i| hop_bytes(tasks, topo, &maps[i]))
                .collect::<Vec<_>>()
        })
        .concat()
}

/// Hops-per-byte: `HB / Σ c_ab` — the paper's headline figure-of-merit
/// (Figures 1–6). Returns 0 for graphs with no communication.
pub fn hops_per_byte(tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping) -> f64 {
    let total = tasks.total_comm();
    if total == 0.0 {
        return 0.0;
    }
    hop_bytes(tasks, topo, m) / total
}

/// Maximum edge dilation: the largest distance any task-graph edge is
/// stretched over. The ideal mapping of a pattern that embeds in the
/// topology has dilation 1.
pub(crate) fn max_dilation(tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping) -> u32 {
    tasks
        .edges()
        .map(|(a, b, _)| topo.distance(m.proc_of(a), m.proc_of(b)))
        .max()
        .unwrap_or(0)
}

/// Histogram of edge dilations: `hist[d]` = total bytes travelling `d`
/// hops. `hist[0]` counts colocated (same-processor) communication.
pub(crate) fn dilation_histogram(tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping) -> Vec<f64> {
    let mut hist = vec![0f64; topo.diameter() as usize + 1];
    for (a, b, c) in tasks.edges() {
        let d = topo.distance(m.proc_of(a), m.proc_of(b)) as usize;
        hist[d] += c;
    }
    hist
}

/// The dilation below which fraction `q` of all communicated bytes stay
/// (e.g. `q = 0.99` gives the 99th byte-percentile hop count).
pub(crate) fn dilation_percentile(
    tasks: &TaskGraph,
    topo: &dyn Topology,
    m: &Mapping,
    q: f64,
) -> u32 {
    assert!((0.0..=1.0).contains(&q));
    let hist = dilation_histogram(tasks, topo, m);
    let total: f64 = hist.iter().sum();
    if total == 0.0 {
        return 0;
    }
    let mut acc = 0.0;
    for (d, &bytes) in hist.iter().enumerate() {
        acc += bytes;
        if acc >= q * total {
            return d as u32;
        }
    }
    (hist.len() - 1) as u32
}

/// A compact quality summary of a mapping, for reports and experiment
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct MappingQuality {
    pub hop_bytes: f64,
    pub hops_per_byte: f64,
    pub max_dilation: u32,
    /// Byte-weighted median dilation.
    pub median_dilation: u32,
    /// Fraction of bytes that stay within one hop.
    pub local_fraction: f64,
}

/// Compute the [`MappingQuality`] summary.
pub fn quality(tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping) -> MappingQuality {
    let hist = dilation_histogram(tasks, topo, m);
    let total: f64 = hist.iter().sum();
    let near: f64 = hist.iter().take(2).sum();
    MappingQuality {
        hop_bytes: hop_bytes(tasks, topo, m),
        hops_per_byte: hops_per_byte(tasks, topo, m),
        max_dilation: max_dilation(tasks, topo, m),
        median_dilation: dilation_percentile(tasks, topo, m, 0.5),
        local_fraction: if total > 0.0 { near / total } else { 1.0 },
    }
}

/// Per-link byte loads under the topology's deterministic routing.
#[derive(Debug, Clone)]
pub struct LinkLoads {
    links: Vec<Link>,
    loads: Vec<f64>,
}

impl LinkLoads {
    /// Route every task-graph edge (both directions carry `c/2` bytes —
    /// edge weights are totals of the bidirectional exchange) and
    /// accumulate bytes per directed link.
    pub fn compute<T: RoutedTopology + ?Sized>(tasks: &TaskGraph, topo: &T, m: &Mapping) -> Self {
        let index = LinkIndex::new(topo);
        let mut loads = vec![0f64; index.num_links()];
        let mut route = Vec::new();
        for (a, b, c) in tasks.edges() {
            let (pa, pb) = (m.proc_of(a), m.proc_of(b));
            if pa == pb {
                continue;
            }
            let half = c / 2.0;
            for (src, dst) in [(pa, pb), (pb, pa)] {
                topo.route_into(src, dst, &mut route);
                for l in &route {
                    let li = index.id(l.from, l.to).expect("route follows links");
                    loads[li] += half;
                }
            }
        }
        LinkLoads {
            links: index.into_links(),
            loads,
        }
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Heaviest-loaded link (bytes). This is the contention bottleneck the
    /// paper's §5.3 bandwidth sweeps expose.
    pub fn max_load(&self) -> f64 {
        self.loads.iter().fold(0.0f64, |m, &l| m.max(l))
    }

    /// Mean load over all links (bytes).
    pub fn avg_load(&self) -> f64 {
        if self.loads.is_empty() {
            return 0.0;
        }
        self.loads.iter().sum::<f64>() / self.loads.len() as f64
    }

    /// Total bytes×links — equals hop-bytes when routes are shortest paths.
    pub fn total(&self) -> f64 {
        self.loads.iter().sum()
    }

    /// Fraction of links carrying zero traffic.
    pub fn idle_fraction(&self) -> f64 {
        if self.loads.is_empty() {
            return 0.0;
        }
        self.loads.iter().filter(|&&l| l == 0.0).count() as f64 / self.loads.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mapping;
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    /// Hop-bytes contributed by a single task:
    /// `HB(t) = Σ_{(t,j) ∈ Et} c_tj · d_p(P(t), P(j))`, the per-task
    /// reference for the paper's `HB = ½ Σ_v HB(v)`.
    fn task_hop_bytes(tasks: &TaskGraph, topo: &dyn Topology, m: &Mapping, t: usize) -> f64 {
        tasks
            .neighbors(t)
            .map(|(j, c)| c * topo.distance(m.proc_of(t), m.proc_of(j)) as f64)
            .sum()
    }

    fn identity(n: usize) -> Mapping {
        Mapping::new((0..n).collect(), n)
    }

    #[test]
    fn identity_stencil_on_matching_torus_has_hpb_one() {
        let tasks = gen::stencil2d(4, 4, 100.0, false);
        let topo = Torus::torus_2d(4, 4);
        let m = identity(16);
        assert_eq!(hops_per_byte(&tasks, &topo, &m), 1.0);
        assert_eq!(max_dilation(&tasks, &topo, &m), 1);
    }

    #[test]
    fn hop_bytes_additivity_over_tasks() {
        let tasks = gen::random_graph(20, 3.0, 1.0, 50.0, 2);
        let topo = Torus::torus_2d(4, 5);
        let m = identity(20);
        let total = hop_bytes(&tasks, &topo, &m);
        let per_task: f64 = (0..20).map(|t| task_hop_bytes(&tasks, &topo, &m, t)).sum();
        assert!((per_task - 2.0 * total).abs() < 1e-6 * total.max(1.0));
    }

    #[test]
    fn reversed_mapping_changes_hop_bytes() {
        let tasks = gen::stencil2d(3, 3, 10.0, false);
        let topo = Torus::mesh_2d(3, 3);
        let id = identity(9);
        // A scrambled mapping (reverse) strictly increases HB for a stencil.
        let rev = Mapping::new((0..9).rev().collect(), 9);
        // Reversal of a mesh is an automorphism (180° rotation) — HB equal!
        assert_eq!(
            hop_bytes(&tasks, &topo, &id),
            hop_bytes(&tasks, &topo, &rev)
        );
        // A genuinely scrambled mapping increases it.
        let scrambled = Mapping::new(vec![4, 7, 2, 8, 0, 5, 1, 6, 3], 9);
        assert!(hop_bytes(&tasks, &topo, &scrambled) > hop_bytes(&tasks, &topo, &id));
    }

    #[test]
    fn link_loads_total_equals_hop_bytes() {
        let tasks = gen::stencil2d(4, 4, 64.0, true);
        let topo = Torus::torus_2d(4, 4);
        // Scramble deterministically: multiply by 5 mod 16 (coprime).
        let m = Mapping::new((0..16).map(|t| (t * 5) % 16).collect(), 16);
        let hb = hop_bytes(&tasks, &topo, &m);
        let ll = LinkLoads::compute(&tasks, &topo, &m);
        assert!((ll.total() - hb).abs() < 1e-9, "{} vs {hb}", ll.total());
        assert!(ll.max_load() >= ll.avg_load());
    }

    #[test]
    fn optimal_mapping_spreads_load() {
        // Under identity mapping of a periodic stencil every link carries
        // exactly one message's worth each way: max == avg, idle == 0 on
        // used axes.
        let tasks = gen::stencil2d(4, 4, 10.0, true);
        let topo = Torus::torus_2d(4, 4);
        let ll = LinkLoads::compute(&tasks, &topo, &identity(16));
        assert!((ll.max_load() - ll.avg_load()).abs() < 1e-9);
        assert_eq!(ll.idle_fraction(), 0.0);
    }

    #[test]
    fn dilation_histogram_partitions_bytes() {
        let tasks = gen::random_graph(20, 3.0, 10.0, 100.0, 6);
        let topo = Torus::torus_2d(5, 4);
        let m = identity(20);
        let hist = dilation_histogram(&tasks, &topo, &m);
        assert!((hist.iter().sum::<f64>() - tasks.total_comm()).abs() < 1e-9);
        // Hop-bytes equals the histogram's first moment.
        let moment: f64 = hist.iter().enumerate().map(|(d, &b)| d as f64 * b).sum();
        assert!((moment - hop_bytes(&tasks, &topo, &m)).abs() < 1e-6);
    }

    #[test]
    fn dilation_percentiles_monotone() {
        let tasks = gen::stencil2d(4, 4, 100.0, false);
        let topo = Torus::torus_2d(4, 4);
        let m = Mapping::new((0..16).map(|t| (t * 7) % 16).collect(), 16);
        let p50 = dilation_percentile(&tasks, &topo, &m, 0.5);
        let p99 = dilation_percentile(&tasks, &topo, &m, 0.99);
        assert!(p50 <= p99);
        assert!(p99 <= topo.diameter());
        assert_eq!(dilation_percentile(&tasks, &topo, &m, 0.001), {
            // Tiny percentile = smallest dilation with any bytes.
            let hist = dilation_histogram(&tasks, &topo, &m);
            hist.iter().position(|&b| b > 0.0).unwrap() as u32
        });
    }

    #[test]
    fn quality_summary_for_optimal_mapping() {
        let tasks = gen::stencil2d(4, 4, 100.0, false);
        let topo = Torus::torus_2d(4, 4);
        let q = quality(&tasks, &topo, &identity(16));
        assert_eq!(q.hops_per_byte, 1.0);
        assert_eq!(q.max_dilation, 1);
        assert_eq!(q.median_dilation, 1);
        assert_eq!(q.local_fraction, 1.0);
    }

    #[test]
    fn colocated_tasks_contribute_zero() {
        let mut b = topomap_taskgraph::TaskGraph::builder(2);
        b.add_comm(0, 1, 1000.0);
        let tasks = b.build();
        let topo = Torus::torus_2d(2, 2);
        // Tasks on procs 0 and 1: distance 1 -> HB = 1000.
        let m = Mapping::new(vec![0, 1], 4);
        assert_eq!(hop_bytes(&tasks, &topo, &m), 1000.0);
        // hops_per_byte of an empty graph is 0.
        let empty = topomap_taskgraph::TaskGraph::builder(2).build();
        assert_eq!(hops_per_byte(&empty, &topo, &m), 0.0);
    }
}
