//! The invariants every mapping keeps, checked in one table: every
//! registered mapper (every entry of `MapperSpec::NAMES`, built through
//! `MapperSpec::build_on`, plus `refine` warm-started from four inits) on
//! every machine family, for six inputs. A mapper is covered the day it is
//! registered. Each cell checks that
//!
//! 1. the mapping is valid and injective;
//! 2. the run under `obs::record` equals the run without it (which also
//!    pins determinism: two runs, one mapping);
//! 3. on the stencil inputs, every mapper but `random` does no worse in
//!    hop-bytes than the mean of `RandomMap` seeds 0–7;
//! 4. hops-per-byte is at most the diameter, and on a routed machine the
//!    per-link loads sum to the hop-bytes;
//! 5. a `refine` row ends no worse than the mapping its init returns.
//!
//! Properties of one mapper (paper thresholds, counter identities, thread
//! invariance) stay with that mapper's tests.

use topomap::core::metrics::{hop_bytes, hops_per_byte, LinkLoads};
use topomap::core::obs;
use topomap::prelude::*;
use topomap::serve::specs::{parse_topology, MapperSpec, ParsedTopology};
use topomap::taskgraph::{gen, transform};

const SEED: u64 = 1;
const P: usize = 16;

/// Every registered name, then `refine` over each init worth warming from.
fn rows() -> Vec<(String, MapperSpec)> {
    let parse = |name, init| MapperSpec::parse(Some(name), init, None, None).unwrap();
    let mut rows: Vec<_> = MapperSpec::NAMES
        .iter()
        .map(|&name| (name.to_string(), parse(name, None)))
        .collect();
    for init in ["random", "sfc", "rcb", "hier"] {
        rows.push((format!("refine --init {init}"), parse("refine", Some(init))));
    }
    rows
}

/// The 16-PE machine families: the spec `build_on` resolves a hierarchy
/// against, and the machine.
fn families() -> Vec<(&'static str, ParsedTopology)> {
    let specs = [
        "torus:4x4",
        "mesh:4x4",
        "hypercube:4",
        "fattree:2:4",
        "dragonfly:4:4",
        "ring:16",
    ];
    let mut families: Vec<_> = specs
        .into_iter()
        .map(|spec| (spec, parse_topology(spec).unwrap()))
        .collect();
    let cached = CachedTopology::new(Torus::torus_2d(4, 4));
    families.push(("torus:4x4", ParsedTopology::Routed(Box::new(cached))));
    families
}

/// The inputs, each flagged whether the random baseline (check 3) applies.
fn inputs() -> Vec<(&'static str, TaskGraph, bool)> {
    let ring = gen::ring(4, 512.0);
    vec![
        ("stencil 4x4", gen::stencil2d(4, 4, 1024.0, false), true),
        ("stencil 3x4", gen::stencil2d(3, 4, 1024.0, false), true),
        (
            "random 12",
            gen::random_graph(12, 3.0, 1.0, 1000.0, 7),
            false,
        ),
        ("6 edgeless", TaskGraph::builder(6).build(), false),
        (
            "two 4-rings",
            transform::disjoint_union(&ring, &ring),
            false,
        ),
        ("1 task", TaskGraph::builder(1).build(), false),
    ]
}

/// `spec` built on the machine; the search heuristics take their quick
/// schedules (their defaults cost 0.2 s and 0.8 s a map in debug).
fn build(spec: &MapperSpec, family: &str, topo: &dyn Topology) -> Box<dyn Mapper> {
    match spec {
        MapperSpec::Anneal => Box::new(SimulatedAnnealingMap::quick(SEED)),
        MapperSpec::Genetic => Box::new(GeneticMap::quick(SEED)),
        _ => spec
            .build_on(family, topo, SEED, Parallelism::default())
            .unwrap_or_else(|e| panic!("{spec:?} on {family}: {e}")),
    }
}

#[test]
fn every_mapper_on_every_family_keeps_the_invariants() {
    let rows = rows();
    for (family, machine) in families() {
        let topo = machine.as_topology();
        assert_eq!(topo.num_nodes(), P, "{family}");
        for (input, g, stencil) in inputs() {
            let random_mean = stencil.then(|| {
                let hb = |s| hop_bytes(&g, topo, &RandomMap::new(s).map(&g, topo));
                (0..8).map(hb).sum::<f64>() / 8.0
            });
            for (row, spec) in &rows {
                let what = format!("{row} on {} ({family}), {input}", topo.name());
                let mapper = build(spec, family, topo);
                let off = mapper.map(&g, topo);
                let (on, _) = obs::record(|| mapper.map(&g, topo));

                // 1. Valid and injective.
                assert_eq!(
                    (off.num_tasks(), off.num_procs()),
                    (g.num_tasks(), P),
                    "{what}"
                );
                let mut used = [false; P];
                for &q in off.as_slice() {
                    assert!(
                        q < P && !used[q],
                        "{what}: processor {q} out of range or reused"
                    );
                    used[q] = true;
                }
                // 2. Recording is invisible.
                assert_eq!(on, off, "{what}: recording changed the mapping");
                // 3. No worse than random on the stencils.
                let hb = hop_bytes(&g, topo, &off);
                if let Some(mean) = random_mean.filter(|_| *spec != MapperSpec::Random) {
                    assert!(hb <= mean, "{what}: hop-bytes {hb} > random mean {mean}");
                }
                // 4. The metric, the link ledger and the diameter agree.
                let hpb = hops_per_byte(&g, topo, &off);
                assert!(hpb <= topo.diameter() as f64, "{what}: hops-per-byte {hpb}");
                if let ParsedTopology::Routed(routed) = &machine {
                    let links = LinkLoads::compute(&g, routed.as_ref(), &off).total();
                    assert!(
                        (links - hb).abs() <= 1e-9 * hb.max(1.0),
                        "{what}: {links} ≠ {hb}"
                    );
                }
                // 5. Refinement never ends worse than its start.
                if let MapperSpec::Refine { init } = spec {
                    let start = hop_bytes(&g, topo, &build(init, family, topo).map(&g, topo));
                    assert!(hb <= start, "{what}: refined {hb} > init {start}");
                }
            }
        }
    }
}
