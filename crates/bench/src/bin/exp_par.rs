//! Thread-timing probe for `core::par`, the source of DESIGN §6's and
//! EXPERIMENTS' thread numbers. It prints, asserts nothing, and is in
//! neither `matrix` nor CI: thread timing on a shared runner decides
//! nothing. Public API only, so the file builds at any commit with `obs::record`.
//!
//! Protocol (DESIGN §6 says why): on the VM this repo is measured on, a
//! thread starts on its parent's core and only ≈ 0.6 s of two threads
//! spinning moves it to the idle one, which then stays engaged until it
//! has idled for a while. So before every timed run `engage` spins two
//! threads until [`sentinel`] reads ≤ 0.6, the sentinel is read again
//! after the two-thread run (`*` marks a repetition that read above
//! 0.65), the thread count that goes first alternates, and — the VM
//! also runs at two speeds a factor of two apart — every timing is
//! divided by an adjacent one-thread spin. t2/t1 < 1: two threads win.
//! Run: `cargo run -p topomap-bench --release --bin exp_par [SITE-SUBSTRING]`

use std::hint::black_box;
use std::time::{Duration, Instant};
use topomap_core::par::Executor;
use topomap_core::{metrics::hop_bytes_many, obs, Curve, EstimationOrder::*, HierMapper, Mapper};
use topomap_core::{Mapping, Parallelism, RandomMap, RcbMap, SfcMap};
use topomap_core::{SimulatedAnnealingMap, TopoLb};
use topomap_taskgraph::{gen, TaskGraph};
use topomap_topology::Torus;

const GRID: &[usize] = &[64, 256, 1024, 4096, 16384];
/// Third order is O(p³) (2048 takes 5 s). The last three sites are deleted ones, for older commits.
#[rustfmt::skip]
const SITES: [(&str, &[usize]); 9] = [
    ("topolb3.refold", &[64, 256, 1024, 2048]),
    ("hop_bytes_many", GRID), ("sfc.curve_keys", GRID), ("rcb.frontier", GRID),
    ("hier.leaves", GRID), ("hier.stencil", GRID), ("topolb2.general", GRID),
    ("topolb2.uniform", GRID), ("anneal.quick", GRID),
];

type Run = Box<dyn Fn(Parallelism)>;

fn job<M: Mapper + 'static>(g: TaskGraph, t: Torus, mk: fn(&Torus, Parallelism) -> M) -> Run {
    Box::new(move |par| drop(mk(&t, par).map(&g, &t)))
}

/// The workload behind one site at `p` PEs; set-up stays outside the run.
fn prepare(site: &str, p: usize) -> Run {
    let x = 1 << (p.trailing_zeros() / 2);
    let t = Torus::torus_2d(x, p / x);
    let s = gen::stencil2d(x, p / x, 1024.0, false);
    let g = gen::random_graph(p, 6.0, 1.0, 1000.0, 1);
    match site {
        "topolb3.refold" => job(g, t, |_, par| TopoLb::with_parallelism(Third, par)),
        "topolb2.general" => job(g, t, |_, par| TopoLb::with_parallelism(Second, par)),
        "topolb2.uniform" => job(s, t, |_, par| TopoLb::with_parallelism(Second, par)),
        "sfc.curve_keys" => job(s, t, |_, par| SfcMap::with_parallelism(Curve::Hilbert, par)),
        "rcb.frontier" => job(s, t, |_, par| RcbMap::with_parallelism(par)),
        "hier.leaves" => job(g, t, |t, p| {
            HierMapper::for_torus(t).unwrap().with_parallelism(p)
        }),
        "hier.stencil" => job(s, t, |t, p| {
            HierMapper::for_torus(t).unwrap().with_parallelism(p)
        }),
        // The annealer's only thread knob that exists at every commit.
        "anneal.quick" => Box::new(move |par| {
            std::env::set_var("TOPOMAP_THREADS", par.resolved_threads().to_string());
            drop(SimulatedAnnealingMap::quick(1).map(&g, &t));
        }),
        _ => {
            let maps: Vec<Mapping> = (0..64).map(|i| RandomMap::new(i).map(&s, &t)).collect();
            Box::new(move |par| drop(hop_bytes_many(&s, &t, &maps, par)))
        }
    }
}

/// Median seconds per call of `f`, repeated for at least 50 ms.
fn secs(mut f: impl FnMut()) -> f64 {
    let (start, mut all) = (Instant::now(), Vec::new());
    while all.is_empty() || start.elapsed() < Duration::from_millis(50) {
        let t = Instant::now();
        f();
        all.push(t.elapsed().as_secs_f64());
    }
    all.sort_by(f64::total_cmp);
    all[all.len() / 2]
}

fn spin(rounds: u64) {
    (0..rounds * 10_000_000).for_each(|i| _ = black_box(i));
}
fn spin_pair(rounds: u64) {
    std::thread::scope(|s| drop((s.spawn(move || spin(rounds)), spin(rounds))));
}

/// Two threads spinning side by side over one thread spinning twice:
/// 0.5 when both cores are engaged, 1.0 when the threads share a core.
fn sentinel() -> f64 {
    secs(|| spin_pair(1)) / secs(|| spin(2))
}

fn main() {
    let cores = std::thread::available_parallelism();
    println!("cores {cores:?}, first sentinel {:.2}", sentinel());
    println!("site PEs regions us/region(measured declared; serial run) t1-us t2/t1(x3) t8/t1");
    let only = std::env::args().nth(1).unwrap_or_default();
    // Until the sentinel reads low, spin a pair for half a second and read again; gives up
    // after 20 rounds, so a one-core host still gets its rows.
    let engage = || _ = (0..20).find(|_| sentinel() <= 0.6 || (spin_pair(100), false).1);
    for (site, sizes) in SITES.iter().filter(|(site, _)| site.contains(&only)) {
        for &p in *sizes {
            let run = prepare(site, p);
            let ((), r) = obs::record(|| run(Parallelism::serial()));
            let regions = r.counter("par.regions.serial").unwrap_or(0);
            let per = |name| r.counter(name).unwrap_or(0) as f64 / 1e3 / regions.max(1) as f64;
            let (mut t, mut clock, mut reps) = ([0.0; 2], [0.0; 2], String::new());
            for rep in 0..3 {
                let mut after = 0.0;
                for k in [rep % 2, 1 - rep % 2] {
                    engage();
                    t[k] = secs(|| run(Parallelism::fixed(k + 1)));
                    clock[k] = secs(|| spin(1));
                    after = if k == 1 { sentinel() } else { after };
                }
                let ratio = t[1] / t[0] * clock[0] / clock[1];
                reps += &format!(" {ratio:.2}{}", if after > 0.65 { "*" } else { "" });
            }
            let (us, est) = (per("par.serial_ns"), per("par.estimate_ns"));
            let (t1, t8) = (t[0] * 1e6, secs(|| run(Parallelism::fixed(8))) / t[0]);
            println!("{site:<17}{p:>6}{regions:>7}{us:>9.1}{est:>9.1}{t1:>10.0}  {reps}   {t8:.2}");
        }
    }
    engage();
    let exec = Executor::new(Parallelism::fixed(2));
    // 0 ns declared keeps a region serial, usize::MAX fans it out; 2 adds make an empty one.
    let region = |len, est| {
        secs(|| drop(exec.map_chunks(len, est, |r| r.map(black_box).sum::<usize>()))) * 1e6
    };
    for adds in [2usize, 4096, 65536, 262144, 1 << 20] {
        let (one, two) = (region(adds, 0), region(adds, usize::MAX));
        println!("region of {adds} adds: serial {one:.1} us, two threads {two:.1} us");
    }
}
