//! `RcbMap` golden table: one FNV-1a hash of `proc_of` per (machine,
//! workload) pair, recorded from the mapper as it stood before its
//! recursion was rewritten (every level re-sorted each job's tasks and
//! processors along their widest axis). Any change to `geom.rs` that
//! claims to return the same mappings must reproduce every row of
//! `golden_geom.txt`; the table is not to be edited alongside such a
//! change.
//!
//! Axes: tori, meshes and mixed-wrap machines (with dimensions of size 1
//! and 2), two hypercubes, a dragonfly and two fat-trees (no node
//! coordinates, so RCB bisects the id line); stencils (many coordinate
//! ties), LeanMD, random geometric graphs, coordinate-free random graphs
//! and rings (synthesized coordinates), signed coordinates with `-0.0`,
//! all-zero and skewed vertex weights, `n < p`, and the 16,384-PE
//! stencil of the benchmark's `scale` workload.

use topomap_core::{Mapper, Parallelism, RcbMap};
use topomap_taskgraph::{gen, TaskGraph};
use topomap_topology::{Dragonfly, FatTree, Hypercube, Topology, Torus};

const GOLDEN: &str = include_str!("golden_geom.txt");

/// FNV-1a over the little-endian bytes of each processor id. Written out
/// here because std pins neither `DefaultHasher`'s algorithm nor its
/// output.
fn fnv1a(words: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in words {
        for b in (w as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `g` with vertex weight `w(t)` on task `t` and coordinates `coords`
/// (or `g`'s own when `None`); edges unchanged.
fn rebuilt(g: &TaskGraph, w: impl Fn(usize) -> f64, coords: Option<Vec<[f64; 3]>>) -> TaskGraph {
    let mut b = TaskGraph::builder(g.num_tasks());
    for t in 0..g.num_tasks() {
        b.set_task_weight(t, w(t));
    }
    for (a, c, bytes) in g.edges() {
        b.add_comm(a, c, bytes);
    }
    if let Some(cs) = coords.or_else(|| g.coords().map(<[_]>::to_vec)) {
        b.set_coords(cs);
    }
    b.build()
}

/// LeanMD with `cells` cells and `computes` compute objects (computes
/// sit at their cell pair's midpoint, so many share a coordinate).
fn leanmd(cells: usize, computes: usize) -> TaskGraph {
    let cfg = gen::LeanMdConfig {
        num_computes: computes,
        ..gen::LeanMdConfig::default()
    };
    gen::leanmd(cells, &cfg)
}

/// Skewed weights: a heavy task every 13th, zeros every 5th.
fn skewed(t: usize) -> f64 {
    match (t % 13, t % 5) {
        (0, _) => 40.0,
        (_, 0) => 0.0,
        _ => 1.0 + (t % 7) as f64 * 0.37,
    }
}

/// Coordinates centred on the origin, so both signs and `-0.0` appear.
fn signed(g: &TaskGraph) -> Vec<[f64; 3]> {
    let cs = g.coords().expect("geometric workload");
    let mut mid = [0.0f64; 3];
    for c in cs {
        for d in 0..3 {
            mid[d] = mid[d].max(c[d]);
        }
    }
    cs.iter()
        .map(|c| {
            let mut s = [0.0f64; 3];
            for d in 0..3 {
                let v = c[d] - (mid[d] / 2.0).floor();
                s[d] = if v == 0.0 && (c[d] as usize) % 2 == 1 {
                    -0.0
                } else {
                    v
                };
            }
            s
        })
        .collect()
}

/// Workloads of at most 64 tasks.
fn small_graphs() -> Vec<(&'static str, TaskGraph)> {
    let s8 = gen::stencil2d(8, 8, 1024.0, false);
    let s444 = gen::stencil3d(4, 4, 4, 512.0, false);
    vec![
        ("stencil2d-8x8", s8.clone()),
        ("stencil2d-8x8-periodic", gen::stencil2d(8, 8, 1024.0, true)),
        ("stencil3d-4x4x4", s444.clone()),
        ("stencil2d-5x7", gen::stencil2d(5, 7, 64.0, false)),
        ("stencil2d-16x4", gen::stencil2d(16, 4, 64.0, false)),
        ("leanmd-16+48", leanmd(16, 48)),
        ("leanmd-27+20", leanmd(27, 20)),
        (
            "geometric-60",
            gen::random_geometric(60, 0.25, 1.0, 100.0, 3),
        ),
        ("random-60", gen::random_graph(60, 4.0, 1.0, 1000.0, 1)),
        ("random-17", gen::random_graph(17, 2.0, 1.0, 1000.0, 2)),
        ("ring-40", gen::ring(40, 8.0)),
        ("stencil2d-8x8-zero", rebuilt(&s8, |_| 0.0, None)),
        ("stencil2d-8x8-skewed", rebuilt(&s8, skewed, None)),
        ("stencil3d-4x4x4-skewed", rebuilt(&s444, skewed, None)),
        (
            "stencil2d-8x8-signed",
            rebuilt(&s8, |_| 1.0, Some(signed(&s8))),
        ),
        (
            "stencil3d-4x4x4-signed",
            rebuilt(&s444, skewed, Some(signed(&s444))),
        ),
    ]
}

/// Workloads of 65 to 256 tasks.
fn large_graphs() -> Vec<(&'static str, TaskGraph)> {
    let s16 = gen::stencil2d(16, 16, 1024.0, false);
    vec![
        ("stencil2d-16x16", s16.clone()),
        ("stencil3d-8x8x4", gen::stencil3d(8, 8, 4, 512.0, true)),
        ("stencil2d-11x13", gen::stencil2d(11, 13, 64.0, false)),
        ("leanmd-64+192", leanmd(64, 192)),
        (
            "geometric-200",
            gen::random_geometric(200, 0.12, 1.0, 100.0, 5),
        ),
        ("random-250", gen::random_graph(250, 5.0, 1.0, 1000.0, 3)),
        ("stencil2d-16x16-zero", rebuilt(&s16, |_| 0.0, None)),
        ("stencil2d-16x16-skewed", rebuilt(&s16, skewed, None)),
        (
            "stencil2d-16x16-signed",
            rebuilt(&s16, skewed, Some(signed(&s16))),
        ),
    ]
}

/// 64-PE machines.
fn small_machines() -> Vec<(&'static str, Box<dyn Topology>)> {
    vec![
        ("torus-8x8", Box::new(Torus::torus_2d(8, 8))),
        ("torus-4x4x4", Box::new(Torus::torus_3d(4, 4, 4))),
        ("mesh-8x8", Box::new(Torus::mesh_2d(8, 8))),
        (
            "mixed-4x1x16",
            Box::new(Torus::new(&[4, 1, 16], &[true, false, false])),
        ),
        ("hypercube-6", Box::new(Hypercube::new(6))),
        ("dragonfly-8x8", Box::new(Dragonfly::new(8, 8))),
        ("fattree-4^3", Box::new(FatTree::new(4, 3))),
    ]
}

/// 256-PE machines.
fn large_machines() -> Vec<(&'static str, Box<dyn Topology>)> {
    vec![
        ("torus-16x16", Box::new(Torus::torus_2d(16, 16))),
        ("mesh-8x8x4", Box::new(Torus::mesh_3d(8, 8, 4))),
        (
            "mixed-2x16x8",
            Box::new(Torus::new(&[2, 16, 8], &[false, true, false])),
        ),
        ("hypercube-8", Box::new(Hypercube::new(8))),
        ("fattree-2^8", Box::new(FatTree::new(2, 8))),
    ]
}

fn row(machine: &str, graph: &str, g: &TaskGraph, topo: &dyn Topology) -> String {
    let serial = RcbMap::with_parallelism(Parallelism::serial()).map(g, topo);
    let threaded = RcbMap::with_parallelism(Parallelism::eager(3)).map(g, topo);
    assert_eq!(
        serial, threaded,
        "{machine} {graph}: thread count changed RCB"
    );
    format!(
        "{machine} {graph} n={} p={} proc_of={:016x}",
        g.num_tasks(),
        topo.num_nodes(),
        fnv1a(serial.as_slice())
    )
}

fn table() -> Vec<String> {
    let mut rows = Vec::new();
    let small = small_graphs();
    let large = large_graphs();
    for (m, topo) in small_machines() {
        for (name, g) in &small {
            rows.push(row(m, name, g, topo.as_ref()));
        }
    }
    for (m, topo) in large_machines() {
        for (name, g) in small.iter().step_by(3).chain(&large) {
            rows.push(row(m, name, g, topo.as_ref()));
        }
    }
    let s = gen::stencil2d(128, 128, 1024.0, false);
    rows.push(row(
        "torus-128x128",
        "stencil2d-128x128",
        &s,
        &Torus::torus_2d(128, 128),
    ));
    rows
}

#[test]
fn every_rcb_mapping_matches_the_recorded_mapper() {
    let got = table();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(want.len(), 188, "golden table is truncated");
    assert_eq!(got.len(), want.len(), "table axes changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "RCB mapping differs from the recorded mapper");
    }
}
