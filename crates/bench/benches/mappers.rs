//! Criterion: mapper runtime scaling (the §4.4 complexity claims —
//! TopoLB second order ≈ O(p²) in practice, TopoCentLB O(p·|Et|)).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use topomap_core::naive::NaiveTopoLb;
use topomap_core::{
    metrics, EstimationOrder, HierMapper, Mapper, Mapping, Parallelism, RandomMap, RefineTopoLb,
    TopoCentLb, TopoLb,
};
use topomap_taskgraph::gen;
use topomap_topology::Torus;

fn bench_mappers(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapper_runtime");
    group.sample_size(10);
    for side in [8usize, 16, 24] {
        let p = side * side;
        let tasks = gen::stencil2d(side, side, 1024.0, false);
        let topo = Torus::torus_2d(side, side);
        group.bench_with_input(BenchmarkId::new("TopoLB", p), &p, |b, _| {
            b.iter(|| TopoLb::default().map(&tasks, &topo))
        });
        group.bench_with_input(BenchmarkId::new("TopoCentLB", p), &p, |b, _| {
            b.iter(|| TopoCentLb.map(&tasks, &topo))
        });
        group.bench_with_input(BenchmarkId::new("Random", p), &p, |b, _| {
            b.iter(|| RandomMap::new(1).map(&tasks, &topo))
        });
        group.bench_with_input(BenchmarkId::new("TopoLB+Refine", p), &p, |b, _| {
            b.iter(|| RefineTopoLb::new(TopoLb::default()).map(&tasks, &topo))
        });
        // Hierarchical (semi-distributed) variant: the §6 future-work
        // scalability point.
        let hier = HierMapper::for_torus(&topo).expect("factorable torus");
        group.bench_with_input(BenchmarkId::new("HierMapper", p), &p, |b, _| {
            b.iter(|| hier.map(&tasks, &topo))
        });
    }
    group.finish();
}

/// Thread-count scaling of the deterministic parallel layer. Results are
/// bit-identical across rows (see `tests/parallel_equivalence.rs`); only
/// wall-clock should move. On a single-core host the >1-thread rows just
/// pay the fork-join overhead — the speedup needs real cores.
fn bench_par_vs_serial(c: &mut Criterion) {
    let mut group = c.benchmark_group("par_vs_serial");
    group.sample_size(10);
    let side = 24usize;
    let tasks = gen::stencil2d(side, side, 1024.0, false);
    let topo = Torus::torus_2d(side, side);
    for threads in [1usize, 2, 4] {
        let par = Parallelism::fixed(threads);
        let lb = TopoLb::with_parallelism(EstimationOrder::Second, par);
        group.bench_with_input(
            BenchmarkId::new("TopoLB-second", threads),
            &threads,
            |b, _| b.iter(|| lb.map(&tasks, &topo)),
        );
        let refine = RefineTopoLb::with_parallelism(
            TopoLb::with_parallelism(EstimationOrder::Second, par),
            par,
        );
        group.bench_with_input(
            BenchmarkId::new("TopoLB+Refine", threads),
            &threads,
            |b, _| b.iter(|| refine.map(&tasks, &topo)),
        );
    }
    // The batch metric API on a population-sized set of mappings.
    let maps: Vec<Mapping> = (0..48)
        .map(|s| RandomMap::new(s).map(&tasks, &topo))
        .collect();
    for threads in [1usize, 2, 4] {
        let par = Parallelism::fixed(threads);
        group.bench_with_input(
            BenchmarkId::new("hop_bytes_many", threads),
            &threads,
            |b, _| b.iter(|| metrics::hop_bytes_many(&tasks, &topo, &maps, par)),
        );
    }
    group.finish();
}

/// A 2D stencil whose edge weights vary per edge: defeats the
/// uniform-weight detection, pinning the run to the general f64 kernel
/// (the pre-integer production path) for old-vs-new comparison.
fn stencil2d_varied(nx: usize, ny: usize) -> topomap_taskgraph::TaskGraph {
    let mut b = topomap_taskgraph::TaskGraph::builder(nx * ny);
    let id = |x: usize, y: usize| x * ny + y;
    for x in 0..nx {
        for y in 0..ny {
            let w = |k: usize| 1024.0 + ((id(x, y) * 31 + k * 17) % 997) as f64;
            if x + 1 < nx {
                b.add_comm(id(x, y), id(x + 1, y), w(1));
            }
            if y + 1 < ny {
                b.add_comm(id(x, y), id(x, y + 1), w(2));
            }
        }
    }
    b.build()
}

/// Large-machine kernel comparison — the quadratic-cliff rows. Three
/// kernels on the same 1024- and 4096-processor torus problems:
/// - `TopoLB-int`: uniform weights route to the incremental
///   uniform-integer kernel (the new fast path);
/// - `TopoLB-f64`: varied weights route to the incremental general
///   kernel (what every run paid before integer dispatch);
/// - `TopoLB-naive`: the dense full-rescan oracle, 1024 nodes only (at
///   4096 one iteration takes minutes — the cliff the others avoid).
fn bench_kernel_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_scaling");
    group.sample_size(5);
    for side in [32usize, 64] {
        let p = side * side;
        let uniform = gen::stencil2d(side, side, 1024.0, true);
        let varied = stencil2d_varied(side, side);
        let topo = Torus::torus_2d(side, side);
        let lb = TopoLb::new(EstimationOrder::Second);
        group.bench_with_input(BenchmarkId::new("TopoLB-int", p), &p, |b, _| {
            b.iter(|| lb.map(&uniform, &topo))
        });
        group.bench_with_input(BenchmarkId::new("TopoLB-f64", p), &p, |b, _| {
            b.iter(|| lb.map(&varied, &topo))
        });
        if side == 32 {
            group.sample_size(2);
            group.bench_with_input(BenchmarkId::new("TopoLB-naive", p), &p, |b, _| {
                b.iter(|| NaiveTopoLb::default().map(&uniform, &topo))
            });
            group.sample_size(5);
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mappers,
    bench_par_vs_serial,
    bench_kernel_scaling
);
criterion_main!(benches);
