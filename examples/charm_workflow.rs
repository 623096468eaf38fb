//! The Charm++ measurement-based load-balancing workflow, end to end:
//!
//! 1. run communicating objects on worker threads with instrumentation,
//! 2. dump the measured LB database to disk (`+LBDump`),
//! 3. replay the dump offline through the paper's two-phase pipeline
//!    (`+LBSim`), one row per (partitioner, mapper) pair — every row sees
//!    the identical load scenario,
//! 4. migrate the live runtime to the winning assignment and keep going.
//!
//! Run: `cargo run --release --example charm_workflow`

use topomap::core::pipeline::two_phase;
use topomap::lb::dump::{read_step, write_step, LbDump};
use topomap::lb::runtime::Runtime;
use topomap::partition::RandomPartition;
use topomap::prelude::*;
use topomap::serve::specs::parse_mapper;

fn main() {
    let machine = Torus::torus_2d(4, 4);
    let p = machine.num_nodes();

    // An over-decomposed application: 128 objects on 16 "processors"
    // (worker threads), communicating in a 2D stencil.
    let app = topomap::taskgraph::gen::stencil2d(16, 8, 2048.0, false);
    let mut runtime = Runtime::from_task_graph(&app, p, 200.0);

    // --- 1. instrumented execution ---
    println!(
        "running {} objects on {p} workers (instrumented)...",
        app.num_tasks()
    );
    let db = runtime.run_instrumented(3);
    println!(
        "measured: total load {:.1} ms, {} comm records, {:.1} KiB traffic\n",
        db.total_load() * 1e3,
        db.comm.len(),
        db.total_bytes() / 1024.0
    );

    // --- 2. +LBDump ---
    let dir = std::env::temp_dir().join("topomap-charm-workflow");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = dir.join("app");
    let path = write_step(
        &base,
        &LbDump {
            step: 0,
            num_procs: p,
            database: db,
        },
    )
    .expect("dump written");
    println!("dumped LB database to {}\n", path.display());

    // --- 3. +LBSim: compare every (phase 1, phase 2) pair on the same scenario ---
    let dump = read_step(&base, 0).expect("dump read");
    let objects = dump.database.to_task_graph();
    let multilevel = MultilevelKWay::default();
    let rows: [(&str, &dyn Partitioner, &str); 7] = [
        ("random", &RandomPartition::new(0x5eed), "random"),
        // GreedyLB: load-only groups placed at random, the paper's
        // "essentially random" baseline.
        ("greedy-load", &GreedyLoad, "random"),
        ("multilevel", &multilevel, "random"),
        ("multilevel", &multilevel, "linear"),
        ("multilevel", &multilevel, "topocentlb"),
        ("multilevel", &multilevel, "topolb"),
        ("multilevel", &multilevel, "refine"),
    ];
    println!(
        "{:<12} {:<11} {:>14} {:>10} {:>15}",
        "phase 1", "phase 2", "hops-per-byte", "imbalance", "hop-bytes (KB)"
    );
    let mut best = None;
    for (phase1, partitioner, phase2) in rows {
        let mapper = parse_mapper(phase2, 0x5eed, Parallelism::serial()).expect("mapper name");
        let r = two_phase(&objects, &machine, partitioner, mapper.as_ref());
        let hop_bytes = r.hop_bytes(&machine);
        println!(
            "{phase1:<12} {phase2:<11} {:>14.3} {:>10.2} {:>15.1}",
            r.hops_per_byte(&machine),
            r.partition.imbalance_for(&objects),
            hop_bytes / 1024.0
        );
        if best.as_ref().is_none_or(|(_, h, _)| hop_bytes < *h) {
            best = Some((format!("{phase1} + {phase2}"), hop_bytes, r));
        }
    }
    let (winner, hop_bytes, result) = best.expect("at least one row");
    println!(
        "\nwinner: {winner} (hop-bytes {:.1} KB)",
        hop_bytes / 1024.0
    );

    // --- 4. migrate and continue ---
    runtime.migrate(&result.task_placement());
    let db2 = runtime.run_instrumented(2);
    println!(
        "resumed after migration: {} comm records re-measured, still {} objects",
        db2.comm.len(),
        db2.num_objects()
    );
    std::fs::remove_file(&path).ok();
}
