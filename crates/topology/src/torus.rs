//! N-dimensional torus and mesh topologies with closed-form distances and
//! dimension-ordered routing.
//!
//! This is the machine family the paper targets: "the packaging
//! considerations for a large number of processors lead to the choice of a
//! mesh or a torus topology" (§1). A [`Torus`] carries a per-dimension
//! wraparound flag, so the same type models BlueGene's 3D-torus *and* the
//! 3D-mesh it "can be converted to, if required".

use crate::coords::{self, Coords};
use crate::{NodeId, RoutedTopology, Topology};

/// An N-dimensional grid, torus, or mixed-wrap machine.
///
/// Distances are computed in O(dims) from coordinates — no `p × p` matrix —
/// so mapping algorithms hit the paper's stated complexity even at
/// thousands of processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    dims: Vec<usize>,
    wrap: Vec<bool>,
    strides: Vec<usize>,
    nodes: usize,
    /// `coord_tab[d * nodes + id]` = coordinate of node `id` in dimension
    /// `d`. Precomputed so bulk distance queries and routing read a table
    /// instead of paying a div/mod pair per coordinate; u16 keeps the
    /// tables L1-resident. Empty when a dimension exceeds
    /// [`MAX_TABLE_DIM`] — see [`Torus::tabulated`].
    coord_tab: Vec<u16>,
    /// Byte-packed coordinates — `packed[id]` holds coordinate `d` in byte
    /// `d` — when the torus has at most 4 dimensions, each of size ≤ 256.
    /// Lets the bulk gather do one table load per element and index fixed
    /// 256-entry distance LUTs whose bounds checks vanish. Empty otherwise.
    packed: Vec<u32>,
}

/// Largest dimension whose coordinates (`0..dim`) fit the `u16` tables.
const MAX_TABLE_DIM: usize = 1 << 16;

impl Torus {
    /// General constructor: `dims[d]` processors along dimension `d`,
    /// `wrap[d]` selects torus (true) vs mesh (false) behaviour per
    /// dimension.
    ///
    /// Panics on empty dims, zero-size dimensions, or length mismatch.
    pub fn new(dims: &[usize], wrap: &[bool]) -> Self {
        assert!(!dims.is_empty(), "at least one dimension required");
        assert_eq!(dims.len(), wrap.len(), "dims/wrap length mismatch");
        assert!(dims.iter().all(|&d| d > 0), "zero-size dimension");
        let nodes = dims.iter().product();
        let strides = coords::strides(dims);
        // Coordinate tables, built by tiling: coordinate d is constant over
        // contiguous blocks of `strides[d]` ids and cycles with period
        // `strides[d] * dims[d]`. One dimension too long for u16 (the
        // counter below would wrap) and no table is built at all.
        let tab_dims = if dims.iter().all(|&l| l <= MAX_TABLE_DIM) {
            dims.len()
        } else {
            0
        };
        let mut coord_tab = vec![0u16; nodes * tab_dims];
        for d in 0..tab_dims {
            let l = dims[d];
            let stride = strides[d];
            let tab = &mut coord_tab[d * nodes..(d + 1) * nodes];
            let mut i = 0;
            let mut c = 0u16;
            while i < nodes {
                let end = (i + stride).min(nodes);
                tab[i..end].fill(c);
                i = end;
                c = if c as usize + 1 == l { 0 } else { c + 1 };
            }
        }
        let packed = if dims.len() <= 4 && dims.iter().all(|&d| d <= 256) {
            (0..nodes)
                .map(|id| {
                    let mut w = 0u32;
                    for d in 0..dims.len() {
                        w |= (coord_tab[d * nodes + id] as u32) << (8 * d);
                    }
                    w
                })
                .collect()
        } else {
            Vec::new()
        };
        Torus {
            strides,
            dims: dims.to_vec(),
            wrap: wrap.to_vec(),
            nodes,
            coord_tab,
            packed,
        }
    }

    /// Fully wrapped torus.
    #[allow(clippy::self_named_constructors)] // `Torus::torus` pairs with `Torus::mesh`
    pub fn torus(dims: &[usize]) -> Self {
        Self::new(dims, &vec![true; dims.len()])
    }

    /// Fully unwrapped mesh.
    pub fn mesh(dims: &[usize]) -> Self {
        Self::new(dims, &vec![false; dims.len()])
    }

    pub fn torus_1d(n: usize) -> Self {
        Self::torus(&[n])
    }
    pub fn mesh_1d(n: usize) -> Self {
        Self::mesh(&[n])
    }
    pub fn torus_2d(x: usize, y: usize) -> Self {
        Self::torus(&[x, y])
    }
    pub fn mesh_2d(x: usize, y: usize) -> Self {
        Self::mesh(&[x, y])
    }
    pub fn torus_3d(x: usize, y: usize, z: usize) -> Self {
        Self::torus(&[x, y, z])
    }
    pub fn mesh_3d(x: usize, y: usize, z: usize) -> Self {
        Self::mesh(&[x, y, z])
    }

    /// A near-square 2D torus with `p` nodes: side `√p` when `p` is a
    /// perfect square, otherwise the most balanced `a × b = p`
    /// factorization. Used by the paper's §5.2 sweeps where "tori of
    /// various sizes" are built per processor count.
    pub fn torus_2d_for(p: usize) -> Self {
        let (a, b) = balanced_factors_2(p);
        Self::torus_2d(a, b)
    }

    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    pub(crate) fn wrap(&self) -> &[bool] {
        &self.wrap
    }

    /// Coordinates of a node.
    pub fn coords(&self, node: NodeId) -> Coords {
        debug_assert!(node < self.nodes);
        coords::delinearize(node, &self.dims)
    }

    /// Node id for coordinates.
    #[cfg(test)]
    pub(crate) fn node_at(&self, c: &[usize]) -> NodeId {
        coords::linearize(c, &self.dims)
    }

    /// Distance along a single dimension, wrap-aware.
    #[inline]
    fn dim_distance(&self, d: usize, a: usize, b: usize) -> u32 {
        let raw = a.abs_diff(b);
        if self.wrap[d] {
            raw.min(self.dims[d] - raw) as u32
        } else {
            raw as u32
        }
    }

    /// Do the coordinate tables hold every dimension? False only when a
    /// dimension exceeds [`MAX_TABLE_DIM`]; then no tables exist and
    /// [`Torus::coord`] and the bulk gather decode coordinates with
    /// div/mod instead.
    #[inline]
    fn tabulated(&self) -> bool {
        !self.coord_tab.is_empty()
    }

    /// Coordinate of `node` in dimension `d`: one table read.
    #[inline]
    fn coord(&self, d: usize, node: NodeId) -> usize {
        if self.tabulated() {
            self.coord_tab[d * self.nodes + node] as usize
        } else {
            coords::coord_of(node, self.dims[d], self.strides[d])
        }
    }

    /// The neighbor of `cur` (coordinate `a` in dimension `d`) one step
    /// toward coordinate `b` along the shortest arc of that dimension.
    /// Ties (exactly half way around a wrapped dimension) break toward +1
    /// so routing is deterministic.
    #[inline]
    fn dim_step(&self, d: usize, cur: NodeId, a: usize, b: usize) -> NodeId {
        debug_assert_ne!(a, b);
        let (n, stride) = (self.dims[d], self.strides[d]);
        let forward = if self.wrap[d] {
            // Steps going +1 against the `n - fwd` going -1.
            let fwd = if b > a { b - a } else { b + n - a };
            fwd <= n - fwd
        } else {
            b > a
        };
        if forward {
            if a + 1 == n {
                cur - (n - 1) * stride
            } else {
                cur + stride
            }
        } else if a == 0 {
            cur + (n - 1) * stride
        } else {
            cur - stride
        }
    }
}

impl Torus {
    /// Per-dimension LUT gather: build one wrap-distance table per
    /// dimension from `from`'s coordinates (O(Σ dims) total, tiny), then
    /// each target costs one table lookup per dimension through the
    /// precomputed coordinate tables — O(targets · dims) with no div or
    /// mod, and crucially no O(p) full-column pass. The mapping kernels
    /// call this once per placement with the shrinking free list as
    /// `targets`, so the column-free formulation is what keeps their
    /// per-placement cost proportional to the free set. The u64 column
    /// total rides along in four independent lanes (`gather_with`) so it
    /// never serializes the gather on one add chain.
    fn gather_sum(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) -> u64 {
        debug_assert!(from < self.nodes);
        if !self.tabulated() {
            return gather_with(targets, out, |t| self.distance(from, t));
        }
        let n = self.nodes;
        let nd = self.dims.len();
        let mut lut: Vec<u32> = Vec::with_capacity(self.dims.iter().sum());
        let mut lut_off = [0usize; 8];
        for d in 0..nd {
            let l = self.dims[d];
            let cf = coords::coord_of(from, l, self.strides[d]);
            if d < lut_off.len() {
                lut_off[d] = lut.len();
            }
            lut.extend((0..l).map(|x| self.dim_distance(d, cf, x)));
        }
        // Byte-packed fast paths: one `packed` load per element, and the
        // 256-entry LUT arrays are indexed by a masked byte, so the only
        // bounds check left is the packed-table load itself.
        if !self.packed.is_empty() && nd >= 2 {
            let mut a = [[0u32; 256]; 4];
            for d in 0..nd {
                let l = self.dims[d];
                a[d][..l].copy_from_slice(&lut[lut_off[d]..lut_off[d] + l]);
            }
            let pk = &self.packed[..n];
            match nd {
                2 => {
                    let (a0, a1) = (&a[0], &a[1]);
                    return gather_with(targets, out, |t| {
                        let c = pk[t] as usize;
                        a0[c & 255] + a1[(c >> 8) & 255]
                    });
                }
                3 => {
                    let (a0, a1, a2) = (&a[0], &a[1], &a[2]);
                    return gather_with(targets, out, |t| {
                        let c = pk[t] as usize;
                        a0[c & 255] + a1[(c >> 8) & 255] + a2[(c >> 16) & 255]
                    });
                }
                _ => {
                    let (a0, a1, a2, a3) = (&a[0], &a[1], &a[2], &a[3]);
                    return gather_with(targets, out, |t| {
                        let c = pk[t] as usize;
                        a0[c & 255] + a1[(c >> 8) & 255] + a2[(c >> 16) & 255] + a3[(c >> 24) & 255]
                    });
                }
            }
        }
        match nd {
            1 => {
                let t0 = &self.coord_tab[..n];
                gather_with(targets, out, |t| lut[t0[t] as usize])
            }
            2 => {
                let (l0, l1) = lut.split_at(lut_off[1]);
                let (t0, t1) = self.coord_tab.split_at(n);
                gather_with(targets, out, |t| l0[t0[t] as usize] + l1[t1[t] as usize])
            }
            3 => {
                let (l0, rest) = lut.split_at(lut_off[1]);
                let (l1, l2) = rest.split_at(lut_off[2] - lut_off[1]);
                let t0 = &self.coord_tab[..n];
                let t1 = &self.coord_tab[n..2 * n];
                let t2 = &self.coord_tab[2 * n..3 * n];
                gather_with(targets, out, |t| {
                    l0[t0[t] as usize] + l1[t1[t] as usize] + l2[t2[t] as usize]
                })
            }
            _ => {
                // Arbitrary rank: per-dimension offsets recomputed on the
                // fly (ranks above 8 fall back to scalar distance).
                if nd > lut_off.len() {
                    gather_with(targets, out, |t| self.distance(from, t))
                } else {
                    gather_with(targets, out, |t| {
                        let mut v = 0u32;
                        for d in 0..nd {
                            v += lut[lut_off[d] + self.coord_tab[d * n + t] as usize];
                        }
                        v
                    })
                }
            }
        }
    }
}

/// Fill `out[i] = f(targets[i])` and return `Σ out`, four elements per
/// step with four independent u64 sum lanes — the total never becomes a
/// loop-carried dependency of the gather.
#[inline]
fn gather_with<F: Fn(NodeId) -> u32>(targets: &[NodeId], out: &mut Vec<u32>, f: F) -> u64 {
    out.clear();
    out.resize(targets.len(), 0);
    let mut s = [0u64; 4];
    let mut oc = out.chunks_exact_mut(4);
    let mut tc = targets.chunks_exact(4);
    for (o4, t4) in oc.by_ref().zip(tc.by_ref()) {
        let v0 = f(t4[0]);
        let v1 = f(t4[1]);
        let v2 = f(t4[2]);
        let v3 = f(t4[3]);
        o4[0] = v0;
        o4[1] = v1;
        o4[2] = v2;
        o4[3] = v3;
        s[0] += v0 as u64;
        s[1] += v1 as u64;
        s[2] += v2 as u64;
        s[3] += v3 as u64;
    }
    let mut sum = (s[0] + s[1]) + (s[2] + s[3]);
    for (o, &t) in oc.into_remainder().iter_mut().zip(tc.remainder()) {
        let v = f(t);
        *o = v;
        sum += v as u64;
    }
    sum
}

impl Topology for Torus {
    fn num_nodes(&self) -> usize {
        self.nodes
    }

    fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        debug_assert!(a < self.nodes && b < self.nodes);
        // Coordinates come from the tables `next_hop` and the bulk gather
        // read: one byte-packed load per node when the shape allows, else
        // one `u16` load per dimension — no div/mod pair per coordinate.
        if let (Some(&pa), Some(&pb)) = (self.packed.get(a), self.packed.get(b)) {
            let mut total = 0u32;
            for d in 0..self.dims.len() {
                let (ca, cb) = ((pa >> (8 * d)) & 255, (pb >> (8 * d)) & 255);
                total += self.dim_distance(d, ca as usize, cb as usize);
            }
            return total;
        }
        let mut total = 0u32;
        for d in 0..self.dims.len() {
            total += self.dim_distance(d, self.coord(d, a), self.coord(d, b));
        }
        total
    }

    fn node_coords(&self, node: NodeId) -> Option<[f64; 3]> {
        if self.dims.len() > 3 {
            return None;
        }
        let mut c = [0.0f64; 3];
        for (d, slot) in c.iter_mut().enumerate().take(self.dims.len()) {
            *slot = coords::coord_of(node, self.dims[d], self.strides[d]) as f64;
        }
        Some(c)
    }

    fn name(&self) -> String {
        let kind = if self.wrap.iter().all(|&w| w) {
            "Torus"
        } else if self.wrap.iter().all(|&w| !w) {
            "Mesh"
        } else {
            "MixedWrap"
        };
        let dims: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        format!("{}D-{}({})", self.dims.len(), kind, dims.join("x"))
    }

    fn diameter(&self) -> u32 {
        // Closed form: per-dimension maximum, summed.
        self.dims
            .iter()
            .zip(&self.wrap)
            .map(|(&n, &w)| if w { (n / 2) as u32 } else { (n - 1) as u32 })
            .sum()
    }

    fn sum_distance_from(&self, node: NodeId) -> u64 {
        // Closed form, O(dims): distances separate per dimension, and each
        // coordinate value in dimension d is shared by nodes/dims[d] nodes.
        // A wrapped dimension of size L contributes floor(L²/4) per sweep
        // (independent of the start coordinate); a mesh dimension at
        // coordinate c contributes c(c+1)/2 + (L-1-c)(L-c)/2.
        debug_assert!(node < self.nodes);
        let mut total = 0u64;
        for d in 0..self.dims.len() {
            let l = self.dims[d] as u64;
            let reps = self.nodes as u64 / l;
            let sweep = if self.wrap[d] {
                l * l / 4
            } else {
                let c = coords::coord_of(node, self.dims[d], self.strides[d]) as u64;
                c * (c + 1) / 2 + (l - 1 - c) * (l - c) / 2
            };
            total += reps * sweep;
        }
        total
    }

    fn distances_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) {
        self.gather_sum(from, targets, out);
    }

    fn distances_sum_into(&self, from: NodeId, targets: &[NodeId], out: &mut Vec<u32>) -> u64 {
        self.gather_sum(from, targets, out)
    }
}

impl RoutedTopology for Torus {
    fn neighbors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let c = self.coords(node);
        for d in 0..self.dims.len() {
            let n = self.dims[d];
            if n == 1 {
                continue;
            }
            let x = c.get(d);
            let stride = self.strides[d];
            // +1 direction
            if x + 1 < n {
                out.push(node + stride);
            } else if self.wrap[d] && n > 2 {
                out.push(node - (n - 1) * stride);
            }
            // -1 direction
            if x > 0 {
                out.push(node - stride);
            } else if self.wrap[d] && n > 2 {
                out.push(node + (n - 1) * stride);
            }
            // n == 2 with wrap: +1 and -1 reach the same node; emit once.
            if self.wrap[d] && n == 2 {
                let other = if x == 0 { node + stride } else { node - stride };
                if !out.contains(&other) {
                    out.push(other);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    fn next_hop(&self, cur: NodeId, dest: NodeId) -> NodeId {
        debug_assert_ne!(cur, dest, "next_hop called at destination");
        // Dimension-ordered (e-cube) routing: correct dimensions in order,
        // each along its shortest arc.
        for d in 0..self.dims.len() {
            let (a, b) = (self.coord(d, cur), self.coord(d, dest));
            if a != b {
                return self.dim_step(d, cur, a, b);
            }
        }
        unreachable!("cur == dest");
    }
}

/// Most balanced `(a, b)` with `a * b == p` and `a <= b`.
pub(crate) fn balanced_factors_2(p: usize) -> (usize, usize) {
    assert!(p > 0);
    let mut best = (1, p);
    let mut a = 1usize;
    while a * a <= p {
        if p.is_multiple_of(a) {
            best = (a, p / a);
        }
        a += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphTopology;

    /// BFS ground truth for validating closed-form distances.
    fn as_graph(t: &Torus) -> GraphTopology {
        let mut edges = Vec::new();
        let mut nbrs = Vec::new();
        for a in 0..t.num_nodes() {
            t.neighbors_into(a, &mut nbrs);
            for &b in &nbrs {
                if a < b {
                    edges.push((a, b));
                }
            }
        }
        GraphTopology::from_edges(t.num_nodes(), &edges)
    }

    #[test]
    fn torus_2d_distance_examples() {
        let t = Torus::torus_2d(4, 4);
        // (0,0) to (3,3): wrap both dims -> 1 + 1 = 2.
        assert_eq!(t.distance(t.node_at(&[0, 0]), t.node_at(&[3, 3])), 2);
        // (0,0) to (2,2): 2 + 2 = 4.
        assert_eq!(t.distance(t.node_at(&[0, 0]), t.node_at(&[2, 2])), 4);
    }

    #[test]
    fn mesh_2d_distance_is_manhattan() {
        let t = Torus::mesh_2d(5, 7);
        for a in 0..35 {
            for b in 0..35 {
                let ca = t.coords(a);
                let cb = t.coords(b);
                let manhattan = ca.get(0).abs_diff(cb.get(0)) + ca.get(1).abs_diff(cb.get(1));
                assert_eq!(t.distance(a, b), manhattan as u32);
            }
        }
    }

    #[test]
    fn closed_form_matches_bfs_torus() {
        for t in [
            Torus::torus_2d(5, 4),
            Torus::torus_3d(3, 4, 2),
            Torus::mesh_3d(3, 3, 3),
            Torus::new(&[4, 3, 2], &[true, false, true]),
            Torus::torus_1d(7),
            Torus::mesh_1d(6),
        ] {
            let g = as_graph(&t);
            for a in 0..t.num_nodes() {
                for b in 0..t.num_nodes() {
                    assert_eq!(
                        t.distance(a, b),
                        g.distance(a, b),
                        "{} d({a},{b})",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn paper_intro_machine_stats() {
        // §1: "(16,16,16) 3D-Torus on 4k processors has a diameter of 24
        // hops and the average internode distance of 12 hops."
        let t = Torus::torus_3d(16, 16, 16);
        assert_eq!(t.num_nodes(), 4096);
        assert_eq!(t.diameter(), 24);
        let avg = crate::stats::average_pairwise_distance(&t);
        assert!((avg - 12.0).abs() < 0.02, "avg = {avg}");
    }

    #[test]
    fn diameter_closed_form_matches_bruteforce() {
        for t in [
            Torus::torus_2d(4, 5),
            Torus::mesh_2d(3, 6),
            Torus::torus_3d(3, 3, 4),
            Torus::new(&[5, 2], &[false, true]),
        ] {
            let n = t.num_nodes();
            let mut brute = 0;
            for a in 0..n {
                for b in 0..n {
                    brute = brute.max(t.distance(a, b));
                }
            }
            assert_eq!(t.diameter(), brute, "{}", t.name());
        }
    }

    #[test]
    fn neighbors_degree() {
        let t = Torus::torus_3d(4, 4, 4);
        for a in 0..t.num_nodes() {
            assert_eq!(t.degree(a), 6, "interior torus node has 6 neighbors");
        }
        let m = Torus::mesh_2d(3, 3);
        assert_eq!(m.degree(m.node_at(&[1, 1])), 4);
        assert_eq!(m.degree(m.node_at(&[0, 0])), 2);
        assert_eq!(m.degree(m.node_at(&[0, 1])), 3);
    }

    #[test]
    fn two_wide_wrapped_dim_has_single_link() {
        // With n == 2, +1 and -1 wrap to the same node: degree must not
        // double-count.
        let t = Torus::torus_2d(2, 2);
        for a in 0..4 {
            assert_eq!(t.degree(a), 2);
        }
    }

    #[test]
    fn next_hop_progresses_and_reaches() {
        let t = Torus::new(&[4, 5, 3], &[true, false, true]);
        for a in 0..t.num_nodes() {
            for b in 0..t.num_nodes() {
                if a == b {
                    continue;
                }
                let mut cur = a;
                let mut hops = 0;
                while cur != b {
                    let nxt = t.next_hop(cur, b);
                    assert_eq!(
                        t.distance(nxt, b),
                        t.distance(cur, b) - 1,
                        "hop must reduce distance by exactly 1"
                    );
                    cur = nxt;
                    hops += 1;
                    assert!(hops <= t.diameter(), "routing loop");
                }
                assert_eq!(hops, t.distance(a, b));
            }
        }
    }

    /// Dimension-ordered routing written with a div/mod coordinate decode
    /// and modular stepping — the formula `next_hop` used before it read
    /// the coordinate tables, kept as its reference.
    fn next_hop_divmod(t: &Torus, cur: NodeId, dest: NodeId) -> NodeId {
        for d in 0..t.dims.len() {
            let (n, stride) = (t.dims[d], t.strides[d]);
            let a = coords::coord_of(cur, n, stride);
            let b = coords::coord_of(dest, n, stride);
            if a == b {
                continue;
            }
            let forward = if t.wrap[d] {
                (b + n - a) % n <= (a + n - b) % n
            } else {
                b > a
            };
            let na = if forward {
                (a + 1) % n
            } else {
                (a + n - 1) % n
            };
            return cur - a * stride + na * stride;
        }
        unreachable!("cur == dest");
    }

    #[test]
    fn next_hop_matches_divmod_formula() {
        for t in [
            Torus::new(&[4, 5, 3], &[true, false, true]),
            Torus::torus_3d(4, 2, 6),
            Torus::torus_2d(2, 7),
            Torus::mesh_2d(3, 4),
            Torus::torus_1d(8),
            Torus::new(&[2, 3, 2, 3, 2], &[true, true, false, true, false]),
        ] {
            assert!(t.tabulated());
            for a in 0..t.num_nodes() {
                for b in (0..t.num_nodes()).filter(|&b| b != a) {
                    assert_eq!(
                        t.next_hop(a, b),
                        next_hop_divmod(&t, a, b),
                        "{} {a}->{b}",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dimension_above_u16_range_uses_the_scalar_path() {
        // Coordinates of a 70,000-long dimension do not fit the u16
        // tables: tiling them used to overflow (debug) or wrap (release),
        // after which bulk distances disagreed with `distance`.
        for t in [
            Torus::torus_1d(70_000),
            Torus::new(&[70_000, 2], &[true, false]),
            Torus::new(&[2, 70_000], &[false, true]),
        ] {
            assert!(!t.tabulated(), "{}", t.name());
            let n = t.num_nodes();
            let probes: Vec<NodeId> = vec![
                0,
                1,
                65_535,
                65_536,
                65_537,
                69_999,
                n / 2,
                n - 65_537,
                n - 2,
                n - 1,
            ];
            let mut got = Vec::new();
            for &from in &probes {
                let sum = t.distances_sum_into(from, &probes, &mut got);
                let want: Vec<u32> = probes.iter().map(|&q| t.distance(from, q)).collect();
                assert_eq!(got, want, "{} from {from}", t.name());
                assert_eq!(sum, want.iter().map(|&d| d as u64).sum::<u64>());
                for &to in probes.iter().filter(|&&to| to != from) {
                    let next = t.next_hop(from, to);
                    assert_eq!(
                        next,
                        next_hop_divmod(&t, from, to),
                        "{} {from}->{to}",
                        t.name()
                    );
                    assert_eq!(t.distance(next, to), t.distance(from, to) - 1);
                }
            }
        }
        let t = Torus::torus_1d(70_000);
        let mut got = Vec::new();
        t.distances_into(0, &[65_536, 65_537, 69_999], &mut got);
        assert_eq!(got, [4464, 4463, 1]);
    }

    #[test]
    fn largest_tabulated_dimension_is_exact() {
        // 65,536 is the last length whose coordinates (0..=65,535) fit.
        let t = Torus::torus_1d(MAX_TABLE_DIM);
        assert!(t.tabulated());
        let probes: Vec<NodeId> = vec![0, 1, 32_767, 32_768, 32_769, 65_534, 65_535];
        let mut got = Vec::new();
        for &from in &probes {
            t.distances_into(from, &probes, &mut got);
            let want: Vec<u32> = probes.iter().map(|&q| t.distance(from, q)).collect();
            assert_eq!(got, want, "from {from}");
            for &to in probes.iter().filter(|&&to| to != from) {
                assert_eq!(t.next_hop(from, to), next_hop_divmod(&t, from, to));
            }
        }
    }

    #[test]
    fn sum_distance_closed_form_matches_bruteforce() {
        for t in [
            Torus::torus_2d(5, 4),
            Torus::mesh_2d(4, 7),
            Torus::torus_3d(3, 4, 2),
            Torus::mesh_3d(3, 3, 3),
            Torus::new(&[4, 3, 2], &[true, false, true]),
            Torus::torus_1d(9),
            Torus::mesh_1d(6),
        ] {
            for a in 0..t.num_nodes() {
                let brute: u64 = (0..t.num_nodes()).map(|b| t.distance(a, b) as u64).sum();
                assert_eq!(t.sum_distance_from(a), brute, "{} from {a}", t.name());
            }
        }
    }

    #[test]
    fn distances_into_matches_scalar_distance() {
        for t in [
            Torus::torus_2d(5, 4),
            Torus::mesh_2d(4, 7),
            Torus::torus_3d(3, 4, 2),
            Torus::new(&[4, 3, 2], &[true, false, true]),
            Torus::torus_1d(9),
        ] {
            let n = t.num_nodes();
            // A scrambled, duplicated target list — the free-list shapes the
            // mapping kernels pass in.
            let targets: Vec<NodeId> = (0..n).rev().chain([0, n / 2, 0]).collect();
            let mut got = Vec::new();
            for from in 0..n {
                t.distances_into(from, &targets, &mut got);
                let want: Vec<u32> = targets.iter().map(|&q| t.distance(from, q)).collect();
                assert_eq!(got, want, "{} from {from}", t.name());
            }
        }
    }

    /// Distance from a div/mod coordinate decode — the closed form
    /// `distance` used before it read the coordinate tables, kept as its
    /// reference.
    fn distance_divmod(t: &Torus, a: NodeId, b: NodeId) -> u32 {
        let mut total = 0;
        for d in 0..t.dims.len() {
            let n = t.dims[d];
            let ca = coords::coord_of(a, n, t.strides[d]);
            let cb = coords::coord_of(b, n, t.strides[d]);
            let raw = ca.abs_diff(cb);
            total += if t.wrap[d] { raw.min(n - raw) } else { raw } as u32;
        }
        total
    }

    #[test]
    fn distance_matches_divmod_formula() {
        // (shape, byte-packed, u16-tabulated): every table layout
        // `distance` can read, with mixed wrap and dimensions of 1 and 2.
        let shapes = [
            (
                Torus::new(&[4, 1, 2, 3], &[true, false, true, false]),
                true,
                true,
            ),
            (Torus::new(&[256, 2], &[true, false]), true, true),
            (
                Torus::new(&[2, 3, 2, 3, 2], &[true, true, false, true, false]),
                false,
                true,
            ),
            (Torus::mesh_2d(300, 20), false, true),
            (Torus::new(&[257, 1, 2], &[true, false, true]), false, true),
            (Torus::torus_1d(70_000), false, false),
        ];
        for (t, packed, tabulated) in shapes {
            assert_eq!(!t.packed.is_empty(), packed, "{}", t.name());
            assert_eq!(t.tabulated(), tabulated, "{}", t.name());
            let n = t.num_nodes();
            // Every node of the small shapes; on the large ones a stride,
            // the ids around the byte and `u16` limits, and the last ids.
            let mut probes: Vec<NodeId> = (0..n).step_by(n.div_ceil(600)).collect();
            probes.extend(
                [1, 255, 256, 257, 65_535, 65_536, n / 2, n - 2, n - 1]
                    .iter()
                    .filter(|&&q| q < n),
            );
            for &a in &probes {
                for &b in &probes {
                    assert_eq!(
                        t.distance(a, b),
                        distance_divmod(&t, a, b),
                        "{} d({a},{b})",
                        t.name()
                    );
                }
            }
        }
    }

    #[test]
    fn balanced_factorizations() {
        assert_eq!(balanced_factors_2(16), (4, 4));
        assert_eq!(balanced_factors_2(18), (3, 6));
        assert_eq!(balanced_factors_2(13), (1, 13));
    }

    #[test]
    fn torus_2d_for_perfect_square() {
        let t = Torus::torus_2d_for(4096);
        assert_eq!(t.dims(), &[64, 64]);
    }

    #[test]
    fn name_strings() {
        assert_eq!(Torus::torus_3d(8, 8, 8).name(), "3D-Torus(8x8x8)");
        assert_eq!(Torus::mesh_2d(4, 6).name(), "2D-Mesh(4x6)");
        assert_eq!(
            Torus::new(&[2, 3], &[true, false]).name(),
            "2D-MixedWrap(2x3)"
        );
    }
}
