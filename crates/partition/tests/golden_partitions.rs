//! `Partition` golden table: 44 `MultilevelKWay::default()` partitions
//! recorded from the partitioner as it stood before its initial
//! partitioning was rewritten (greedy graph growing as a `k × n` loop: a
//! full `conn` reset, a full seed scan and a linear frontier `max_by` per
//! part). Any change to `multilevel.rs` that claims to return the same
//! partitions must reproduce every row of `golden_partitions.txt`; the
//! table is not to be edited alongside such a change.
//!
//! Axes: the stencils of the paper's §5 from 16² to 128² (open and
//! periodic) and 16³, random graphs at three seeds, LeanMD at 64 / 256 /
//! 1024 cells, a ring and two disjoint rings; `k` drawn from
//! `{2, 7, 64, n/16, n − 1}` — deep coarsening, none at all, the
//! benchmark's 16,384 → 1,024 case, and parts of one or two vertices.

use topomap_partition::{MultilevelKWay, Partitioner};
use topomap_taskgraph::{gen, TaskGraph};

const GOLDEN: &str = include_str!("golden_partitions.txt");

/// FNV-1a over the little-endian bytes of each part id. Written out here
/// because std pins neither `DefaultHasher`'s algorithm nor its output.
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

fn two_rings(n: usize) -> TaskGraph {
    let mut b = TaskGraph::builder(2 * n);
    for i in 0..n {
        b.add_comm(i, (i + 1) % n, 2.0);
        b.add_comm(n + i, n + (i + 1) % n, 3.0);
    }
    b.build()
}

/// `(name, graph, the k values recorded for it)`.
fn cases() -> Vec<(&'static str, TaskGraph, &'static [usize])> {
    let md = gen::LeanMdConfig::default();
    vec![
        (
            "stencil2d-16",
            gen::stencil2d(16, 16, 1024.0, false),
            &[2, 7, 16, 255],
        ),
        (
            "stencil2d-32",
            gen::stencil2d(32, 32, 1024.0, false),
            &[7, 64],
        ),
        (
            "stencil2d-64",
            gen::stencil2d(64, 64, 1024.0, false),
            &[2, 256],
        ),
        (
            "stencil2d-128",
            gen::stencil2d(128, 128, 1024.0, false),
            &[2, 64, 1024],
        ),
        (
            "stencil2d-16-periodic",
            gen::stencil2d(16, 16, 1024.0, true),
            &[7, 64],
        ),
        (
            "stencil2d-32-periodic",
            gen::stencil2d(32, 32, 1024.0, true),
            &[2, 64, 1023],
        ),
        (
            "stencil2d-64-periodic",
            gen::stencil2d(64, 64, 1024.0, true),
            &[7, 4095],
        ),
        (
            "stencil2d-128-periodic",
            gen::stencil2d(128, 128, 1024.0, true),
            &[7, 1024],
        ),
        (
            "stencil3d-16",
            gen::stencil3d(16, 16, 16, 512.0, false),
            &[7, 64, 256],
        ),
        (
            "random-600-seed1",
            gen::random_graph(600, 6.0, 1.0, 1000.0, 1),
            &[2, 37, 599],
        ),
        (
            "random-600-seed2",
            gen::random_graph(600, 6.0, 1.0, 1000.0, 2),
            &[7, 64],
        ),
        (
            "random-600-seed3",
            gen::random_graph(600, 3.0, 1.0, 1000.0, 3),
            &[64, 599],
        ),
        ("leanmd-64", gen::leanmd(64, &md), &[2, 64, 206]),
        ("leanmd-256", gen::leanmd(256, &md), &[7, 256, 3495]),
        ("leanmd-1024", gen::leanmd(1024, &md), &[64, 1024]),
        ("ring-1000", gen::ring(1000, 8.0), &[2, 7, 62, 999]),
        ("two-rings-40", two_rings(20), &[2, 7]),
    ]
}

fn table() -> Vec<String> {
    let ml = MultilevelKWay::default();
    let mut rows = Vec::new();
    for (name, g, ks) in cases() {
        for &k in ks {
            let p = ml.partition(&g, k);
            rows.push(format!(
                "{name} k={k} assignment={:016x} edge_cut={:016x}",
                fnv1a(p.assignment()),
                p.edge_cut(&g).to_bits()
            ));
        }
    }
    rows
}

#[test]
fn every_partition_matches_the_recorded_partitioner() {
    let got = table();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(want.len(), 44, "golden table is truncated");
    assert_eq!(got.len(), want.len(), "table axes changed");
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "Partition differs from the recorded partitioner");
    }
}

#[test]
fn fnv1a_reference_vectors() {
    // Published FNV-1a 64 test vectors ("" and "a"), through the word
    // interface: one word whose low byte is 'a' hashes 'a' then seven NULs.
    assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
    let mut h = 0xaf63_dc4c_8601_ec8cu64; // fnv1a("a")
    for _ in 0..7 {
        h = h.wrapping_mul(0x0000_0100_0000_01b3); // ^ 0 is the identity
    }
    assert_eq!(fnv1a(&[b'a' as usize]), h);
}
