//! Explicit hardware hierarchy: `H = a1:a2:…:al` with per-level distances
//! `D = d1:d2:…:dl` (cores : nodes : racks : islands), in the style of
//! SharedMap's hierarchical process mapping.
//!
//! Level 1 is the innermost grouping (`a1` cores per node), level `l` the
//! outermost (`al` islands). Two distinct processors that first share a
//! container at level `i` are at distance `d_i`; requiring `D`
//! non-decreasing makes this an *ultrametric*, which is stronger than the
//! triangle inequality the mapping heuristics need.
//!
//! A [`Hierarchy`] can be built three ways:
//! - standalone ([`Hierarchy::new`] / [`Hierarchy::try_new`]) with
//!   explicit distances,
//! - exactly from a [`FatTree`] ([`Hierarchy::from_fattree`]) — the k-ary
//!   tree metric *is* an ultrametric, so the derivation loses nothing,
//! - from a [`Torus`]/mesh by factoring its dimensions into per-level
//!   blocks ([`Hierarchy::factor_torus`]), which also yields the processor
//!   permutation placing hierarchy positions onto machine nodes. Here the
//!   hierarchy distance is an upper bound on the true torus distance
//!   (tight at block corners), never an underestimate.
//!
//! The distance oracle is O(levels) per query and composes with
//! [`crate::cache::CachedTopology`] like every other metric.

use crate::dragonfly::Dragonfly;
use crate::fattree::FatTree;
use crate::torus::Torus;
use crate::{NodeId, Topology};

/// A rooted, uniformly branching hardware hierarchy with per-level hop
/// costs. Implements [`Topology`] over its `a1·a2·…·al` leaf processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    /// Branching factors, innermost first: `arities[0] = a1`.
    arities: Vec<usize>,
    /// `dists[i]` = distance between two processors whose lowest common
    /// container is at level `i + 1`. Non-decreasing.
    dists: Vec<u32>,
    /// `prefix[i]` = processors per level-`i+1` container = `a1·…·a(i+1)`.
    prefix: Vec<usize>,
    nodes: usize,
}

impl Hierarchy {
    /// Build a hierarchy, panicking on invalid shapes (see
    /// [`Hierarchy::try_new`] for the fallible form the CLI uses).
    pub fn new(arities: Vec<usize>, dists: Vec<u32>) -> Self {
        Self::try_new(arities, dists).unwrap_or_else(|e| panic!("invalid hierarchy: {e}"))
    }

    /// Build a hierarchy, reporting invalid shapes as errors: empty or
    /// zero levels, length mismatch between `H` and `D`, a zero distance
    /// on a branching level, decreasing distances, or overflow.
    pub fn try_new(arities: Vec<usize>, dists: Vec<u32>) -> Result<Self, String> {
        if arities.is_empty() {
            return Err("hierarchy must have at least one level".into());
        }
        if let Some(i) = arities.iter().position(|&a| a == 0) {
            return Err(format!(
                "hierarchy level {} has zero children (every level must be >= 1)",
                i + 1
            ));
        }
        if dists.len() != arities.len() {
            return Err(format!(
                "hierarchy has {} levels but {} distances",
                arities.len(),
                dists.len()
            ));
        }
        let mut prefix = Vec::with_capacity(arities.len());
        let mut nodes = 1usize;
        for (i, &a) in arities.iter().enumerate() {
            nodes = nodes.checked_mul(a).ok_or_else(|| {
                format!("hierarchy size overflows at level {} (arity {a})", i + 1)
            })?;
            prefix.push(nodes);
        }
        for i in 0..dists.len() {
            if dists[i] == 0 && arities[i] > 1 {
                return Err(format!(
                    "distance d{} is 0 on a branching level (distinct processors would be at distance 0)",
                    i + 1
                ));
            }
            if i > 0 && dists[i] < dists[i - 1] {
                return Err(format!(
                    "distances must be non-decreasing (d{} = {} < d{} = {})",
                    i + 1,
                    dists[i],
                    i,
                    dists[i - 1]
                ));
            }
        }
        Ok(Hierarchy {
            arities,
            dists,
            prefix,
            nodes,
        })
    }

    /// Parse a colon-separated arity list like `4:8:16`. Every level must
    /// be a positive integer; empty segments (leading, trailing, or double
    /// colons) are rejected with a clear message.
    pub fn parse_arities(spec: &str) -> Result<Vec<usize>, String> {
        Self::parse_seq::<usize>(spec, "hierarchy")
    }

    /// Parse a colon-separated distance list like `1:10:100`.
    pub fn parse_dists(spec: &str) -> Result<Vec<u32>, String> {
        Self::parse_seq::<u32>(spec, "distance sequence")
    }

    fn parse_seq<T: std::str::FromStr>(spec: &str, what: &str) -> Result<Vec<T>, String> {
        if spec.trim().is_empty() {
            return Err(format!("{what} is empty (expected e.g. 4:8:16)"));
        }
        spec.split(':')
            .enumerate()
            .map(|(i, part)| {
                let part = part.trim();
                if part.is_empty() {
                    return Err(format!(
                        "{what} '{spec}' has an empty level at position {} (no leading/trailing/double colons)",
                        i + 1
                    ));
                }
                part.parse::<T>().map_err(|_| {
                    format!("{what} '{spec}': '{part}' is not a non-negative integer")
                })
            })
            .collect()
    }

    /// The exact hierarchy of a fat-tree: `levels` levels of branching
    /// `arity`, level `i` at distance `2i`. Identity processor layout —
    /// hierarchy position `q` *is* fat-tree leaf `q` — and the derived
    /// metric equals the fat-tree metric on every pair.
    pub fn from_fattree(ft: &FatTree) -> Self {
        let l = ft.levels() as usize;
        let arities = vec![ft.arity(); l];
        let dists = (1..=l as u32).map(|i| 2 * i).collect();
        Self::new(arities, dists)
    }

    /// The natural two-level hierarchy of a dragonfly: `a` routers per
    /// group at distance 1, `g` groups at the machine diameter. Identity
    /// processor layout (node `n` *is* hierarchy position `n`), and the
    /// result equals `identity_over(df, &[a, g])` exactly: the intra-group
    /// radius is 1 (clamped to the >= 1 floor even when `a == 1`), the
    /// outer level the diameter (0 or 1 degenerate cases clamp likewise).
    pub fn from_dragonfly(df: &Dragonfly) -> Self {
        let d1 = 1u32;
        let d2 = d1.max(df.diameter());
        Self::new(vec![df.routers(), df.groups()], vec![d1, d2])
    }

    /// Derive per-level distances for an identity layout over an arbitrary
    /// metric: `d_i` = the radius of the first level-`i` block as seen by
    /// `topo` (clamped non-decreasing). Exact for fat-trees; an
    /// approximation elsewhere. Errors if `H` does not cover the machine.
    pub fn identity_over(topo: &dyn Topology, arities: &[usize]) -> Result<Self, String> {
        let p: usize = arities.iter().try_fold(1usize, |acc, &a| {
            acc.checked_mul(a).ok_or("hierarchy size overflows usize")
        })?;
        if p != topo.num_nodes() {
            return Err(format!(
                "hierarchy covers {p} processors but the machine has {}",
                topo.num_nodes()
            ));
        }
        let mut dists = Vec::with_capacity(arities.len());
        let mut block = 1usize;
        let mut floor = 1u32;
        for &a in arities {
            block *= a;
            let radius = (0..block).map(|q| topo.distance(0, q)).max().unwrap_or(0);
            floor = floor.max(radius);
            dists.push(floor);
        }
        Self::try_new(arities.to_vec(), dists)
    }

    /// Factor a torus/mesh into hierarchy blocks: level `i` groups
    /// `arities[i]` level-`(i-1)` blocks into a larger sub-grid, with the
    /// per-level prime factors greedily assigned to the machine dimension
    /// with the most remaining headroom (so blocks stay near-cubic).
    ///
    /// Returns the hierarchy plus the processor layout `pe_order`, where
    /// `pe_order[q]` is the machine node at hierarchy position `q`
    /// (positions within one block are contiguous). The hierarchy distance
    /// between two positions is always >= the true torus distance between
    /// their machine nodes, with equality at block-corner pairs.
    ///
    /// Errors when the arities cannot be factored into the machine's
    /// dimensions (e.g. `3:...` on a power-of-two torus).
    pub fn factor_torus(t: &Torus, arities: &[usize]) -> Result<(Self, Vec<NodeId>), String> {
        let p: usize = arities.iter().try_fold(1usize, |acc, &a| {
            acc.checked_mul(a).ok_or("hierarchy size overflows usize")
        })?;
        if p != t.num_nodes() {
            return Err(format!(
                "hierarchy covers {p} processors but the machine {} has {}",
                t.name(),
                t.num_nodes()
            ));
        }
        if arities.contains(&0) {
            return Err("hierarchy level has zero children".into());
        }
        let dims = t.dims();
        let nd = dims.len();
        let mut block = vec![1usize; nd];
        let mut per_level_blocks = Vec::with_capacity(arities.len());
        let mut dists = Vec::with_capacity(arities.len());
        for (i, &a) in arities.iter().enumerate() {
            for f in prime_factors_desc(a) {
                // Place factor f on the dimension with the most remaining
                // headroom that it divides (ties -> lowest dimension).
                let d = (0..nd)
                    .filter(|&d| (dims[d] / block[d]).is_multiple_of(f))
                    .max_by_key(|&d| dims[d] / block[d])
                    .ok_or_else(|| {
                        format!(
                            "hierarchy level {} (arity {a}) does not factor into {}: \
                             factor {f} divides no remaining dimension",
                            i + 1,
                            t.name()
                        )
                    })?;
                block[d] *= f;
            }
            // Worst-case hops between two nodes of one level-i block: the
            // per-dimension span, using the wrap shortcut only once a
            // dimension is fully covered.
            let span: u32 = (0..nd)
                .map(|d| {
                    if block[d] == dims[d] && t.wrap()[d] {
                        (dims[d] / 2) as u32
                    } else {
                        (block[d] - 1) as u32
                    }
                })
                .sum();
            dists.push(span.max(1));
            per_level_blocks.push(block.clone());
        }
        // Hierarchy position order: sort machine nodes by their block path,
        // outermost block first, then raw id within the innermost block.
        let l = arities.len();
        let keys: Vec<Vec<usize>> = (0..p)
            .map(|node| {
                let c = t.coords(node);
                let mut key = Vec::with_capacity(l * nd + 1);
                for level in (0..l).rev() {
                    let b = &per_level_blocks[level];
                    for (d, &bd) in b.iter().enumerate() {
                        key.push(c.get(d) / bd);
                    }
                }
                key.push(node);
                key
            })
            .collect();
        let mut pe_order: Vec<NodeId> = (0..p).collect();
        pe_order.sort_unstable_by(|&x, &y| keys[x].cmp(&keys[y]));
        Ok((Self::try_new(arities.to_vec(), dists)?, pe_order))
    }

    /// Number of levels `l`.
    pub(crate) fn levels(&self) -> usize {
        self.arities.len()
    }

    /// Branching factors, innermost first.
    pub fn arities(&self) -> &[usize] {
        &self.arities
    }

    /// The `H` spec string, e.g. `"4:8:16"`.
    pub fn shape_spec(&self) -> String {
        join_seq(&self.arities)
    }

    /// The `D` spec string, e.g. `"1:10:100"`.
    pub fn dist_spec(&self) -> String {
        join_seq(&self.dists)
    }
}

fn join_seq<T: std::fmt::Display>(xs: &[T]) -> String {
    xs.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(":")
}

/// Prime factorization by trial division, largest factors first (so the
/// greedy dimension packing places the coarse splits before the fine ones).
fn prime_factors_desc(mut n: usize) -> Vec<usize> {
    let mut fs = Vec::new();
    let mut f = 2usize;
    while f * f <= n {
        while n.is_multiple_of(f) {
            fs.push(f);
            n /= f;
        }
        f += 1;
    }
    if n > 1 {
        fs.push(n);
    }
    fs.reverse();
    fs
}

impl Topology for Hierarchy {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        debug_assert!(a < self.nodes && b < self.nodes);
        if a == b {
            return 0;
        }
        let (mut a, mut b) = (a, b);
        for (i, &k) in self.arities.iter().enumerate() {
            a /= k;
            b /= k;
            if a == b {
                return self.dists[i];
            }
        }
        // Unreachable for in-range ids (the root container holds everyone).
        *self.dists.last().unwrap()
    }

    fn name(&self) -> String {
        format!("Hierarchy({}; d={})", self.shape_spec(), self.dist_spec())
    }

    fn diameter(&self) -> u32 {
        (0..self.levels())
            .rev()
            .find(|&i| self.arities[i] > 1)
            .map_or(0, |i| self.dists[i])
    }

    fn sum_distance_from(&self, _node: NodeId) -> u64 {
        // Every level-i container is full and internally symmetric, so the
        // distance profile is the same from every processor: exactly
        // `block(i) - block(i-1)` peers sit at distance `d_i`.
        let mut total = 0u64;
        let mut inner = 1u64;
        for i in 0..self.levels() {
            let outer = self.prefix[i] as u64;
            total += (outer - inner) * self.dists[i] as u64;
            inner = outer;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedTopology;

    #[test]
    fn basic_distances_follow_levels() {
        let h = Hierarchy::new(vec![4, 8, 16], vec![1, 10, 100]);
        assert_eq!(h.num_nodes(), 512);
        assert_eq!(h.distance(0, 0), 0);
        assert_eq!(h.distance(0, 3), 1); // same level-1 block
        assert_eq!(h.distance(0, 4), 10); // same node, different core group
        assert_eq!(h.distance(0, 31), 10);
        assert_eq!(h.distance(0, 32), 100); // different rack
        assert_eq!(h.distance(511, 0), 100);
        assert_eq!(h.diameter(), 100);
        assert_eq!(h.name(), "Hierarchy(4:8:16; d=1:10:100)");
    }

    #[test]
    fn ultrametric_axioms_hold_on_sampled_triples() {
        let h = Hierarchy::new(vec![3, 2, 4], vec![2, 5, 9]);
        let n = h.num_nodes();
        for a in 0..n {
            assert_eq!(h.distance(a, a), 0);
            for b in 0..n {
                assert_eq!(h.distance(a, b), h.distance(b, a));
                if a != b {
                    assert!(h.distance(a, b) > 0);
                }
                for c in (0..n).step_by(5) {
                    // Ultrametric: stronger than the triangle inequality.
                    assert!(h.distance(a, c) <= h.distance(a, b).max(h.distance(b, c)));
                }
            }
        }
    }

    #[test]
    fn sum_and_diameter_match_brute_force() {
        let h = Hierarchy::new(vec![2, 3, 2], vec![1, 4, 7]);
        let n = h.num_nodes();
        let brute_diam = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| h.distance(a, b))
            .max()
            .unwrap();
        assert_eq!(h.diameter(), brute_diam);
        for a in 0..n {
            let brute: u64 = (0..n).map(|b| h.distance(a, b) as u64).sum();
            assert_eq!(h.sum_distance_from(a), brute, "node {a}");
        }
    }

    #[test]
    fn fattree_derivation_is_exact_on_all_pairs() {
        for (arity, levels) in [(2usize, 3u32), (4, 2), (3, 3)] {
            let ft = FatTree::new(arity, levels);
            let h = Hierarchy::from_fattree(&ft);
            assert_eq!(h.num_nodes(), ft.num_nodes());
            for a in 0..ft.num_nodes() {
                for b in 0..ft.num_nodes() {
                    assert_eq!(
                        h.distance(a, b),
                        ft.distance(a, b),
                        "pair ({a},{b}) of {arity}-ary {levels}-level tree"
                    );
                }
            }
            assert_eq!(h.diameter(), ft.diameter());
        }
    }

    #[test]
    fn identity_over_fattree_matches_from_fattree() {
        let ft = FatTree::new(2, 4);
        let derived = Hierarchy::identity_over(&ft, &[2, 2, 2, 2]).unwrap();
        assert_eq!(derived, Hierarchy::from_fattree(&ft));
    }

    #[test]
    fn factor_torus_dominates_true_distance() {
        let t = Torus::torus_2d(8, 8);
        let (h, pe) = Hierarchy::factor_torus(&t, &[4, 4, 4]).unwrap();
        assert_eq!(h.num_nodes(), 64);
        // pe is a permutation of the machine nodes.
        let mut seen = [false; 64];
        for &n in &pe {
            assert!(!seen[n], "duplicate machine node {n}");
            seen[n] = true;
        }
        // The hierarchy metric over positions never underestimates the
        // machine metric over the mapped nodes.
        let mut tight = 0usize;
        for qa in 0..64 {
            for qb in 0..64 {
                let hd = h.distance(qa, qb);
                let td = t.distance(pe[qa], pe[qb]);
                assert!(hd >= td, "positions ({qa},{qb}): hier {hd} < torus {td}");
                if qa != qb && hd == td {
                    tight += 1;
                }
            }
        }
        assert!(tight > 0, "bound should be attained at block corners");
        // Innermost blocks are contiguous position runs of a1 nodes that
        // really are close on the machine.
        for q in (0..64).step_by(4) {
            for o in 1..4 {
                assert!(t.distance(pe[q], pe[q + o]) <= h.dists[0]);
            }
        }
    }

    #[test]
    fn factor_torus_on_mesh_and_odd_dims() {
        let t = Torus::mesh(&[6, 4]);
        let (h, pe) = Hierarchy::factor_torus(&t, &[4, 6]).unwrap();
        assert_eq!(h.num_nodes(), 24);
        assert_eq!(pe.len(), 24);
        for qa in 0..24 {
            for qb in 0..24 {
                assert!(h.distance(qa, qb) >= t.distance(pe[qa], pe[qb]));
            }
        }
    }

    #[test]
    fn factor_torus_rejects_incompatible_arities() {
        let t = Torus::torus_2d(8, 8);
        let err = Hierarchy::factor_torus(&t, &[3, 3, 7]).unwrap_err();
        assert!(err.contains("63") || err.contains("factor"), "{err}");
        let err = Hierarchy::factor_torus(&t, &[16, 4])
            .unwrap() // 64 ok
            .0;
        assert_eq!(err.num_nodes(), 64);
        // Product matches but a prime factor doesn't fit any dimension.
        let err = Hierarchy::factor_torus(&Torus::torus_2d(8, 8), &[32, 2]).unwrap();
        assert_eq!(err.0.num_nodes(), 64);
        let bad = Hierarchy::factor_torus(&Torus::mesh(&[2, 32]), &[3, 3, 7]);
        assert!(bad.is_err());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        let parse = |h: &str, d: &str| {
            Hierarchy::try_new(Hierarchy::parse_arities(h)?, Hierarchy::parse_dists(d)?)
        };
        assert!(parse("4:0:8", "1:10:100")
            .unwrap_err()
            .contains("zero children"));
        assert!(parse("4:8:", "1").unwrap_err().contains("empty"));
        assert!(parse(":4:8", "1").unwrap_err().contains("empty"));
        assert!(parse("", "1").unwrap_err().contains("empty"));
        assert!(parse("4:x", "1")
            .unwrap_err()
            .contains("not a non-negative integer"));
        assert!(parse("4:8", "1:2:3").unwrap_err().contains("levels"));
        assert!(parse("4:8", "5:2").unwrap_err().contains("non-decreasing"));
        assert!(parse("4:8", "0:2").unwrap_err().contains("distance d1"));
        let h = parse(" 2 : 2 ", "3:9").unwrap();
        assert_eq!(h.arities(), &[2, 2]);
        assert_eq!(h.dists, [3, 9]);
    }

    #[test]
    fn composes_with_distance_cache() {
        let h = Hierarchy::new(vec![4, 4], vec![2, 6]);
        let cached = CachedTopology::new(h.clone());
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(cached.distance(a, b), h.distance(a, b));
            }
        }
        assert_eq!(cached.diameter(), h.diameter());
        let targets: Vec<NodeId> = vec![0, 5, 5, 15, 3];
        let (mut x, mut y) = (Vec::new(), Vec::new());
        let sx = h.distances_sum_into(7, &targets, &mut x);
        let sy = cached.distances_sum_into(7, &targets, &mut y);
        assert_eq!(x, y);
        assert_eq!(sx, sy);
    }

    #[test]
    fn degenerate_single_level_and_unit_arities() {
        let h = Hierarchy::new(vec![1, 5, 1], vec![1, 3, 3]);
        assert_eq!(h.num_nodes(), 5);
        assert_eq!(h.distance(0, 4), 3);
        assert_eq!(h.diameter(), 3);
        let solo = Hierarchy::new(vec![1], vec![1]);
        assert_eq!(solo.num_nodes(), 1);
        assert_eq!(solo.diameter(), 0);
    }
}
