//! End-to-end integration: workload generation → LB framework →
//! partitioning → mapping → network simulation, spanning every crate.

use topomap::core::pipeline::two_phase;
use topomap::lb::dump::{read_step, step_path, write_step, LbDump};
use topomap::lb::LbDatabase;
use topomap::netsim::{trace, Trace, TraceOp};
use topomap::partition::RandomPartition;
use topomap::prelude::*;
use topomap::taskgraph::gen;

/// Generate → LB database → strategize → map → simulate: the full life
/// of an application under this library.
#[test]
fn full_stack_life_cycle() {
    let machine = Torus::torus_2d(3, 3);
    let p = machine.num_nodes();

    // 1. The application: a 9x4 stencil over-decomposed 4x.
    let app = gen::stencil2d(9, 4, 1024.0, false);

    // 2. Its LB database, as the load balancer would hand it over.
    let db = LbDatabase::from_task_graph(&app);
    assert_eq!(db.num_objects(), 36);
    assert!(db.total_load() > 0.0);

    // 3. Run the paper's pipeline on the database.
    let objects = db.to_task_graph();
    let ml = MultilevelKWay::default();
    let topolb = two_phase(&objects, &machine, &ml, &TopoLb::default());

    // 4. Verify the placement beats random on the database's comm graph.
    let random = two_phase(
        &objects,
        &machine,
        &RandomPartition::new(0x5eed),
        &RandomMap::new(0x5eed),
    );
    assert!(topolb.hop_bytes(&machine) <= random.hop_bytes(&machine));

    // 5. Replay the *coalesced* application through the network simulator
    //    under both placements and confirm the ordering carries to time.
    let part = MultilevelKWay::default().partition(&app, p);
    let groups = part.coalesce(&app);
    let tr = trace::stencil_trace(&groups, 30, 2_000);
    let cfg = NetworkConfig::default().with_bandwidth(100e6);
    let good = Simulation::run(
        &machine,
        &cfg,
        &tr,
        &TopoLb::default().map(&groups, &machine),
    );
    let bad = Simulation::run(
        &machine,
        &cfg,
        &tr,
        &RandomMap::new(5).map(&groups, &machine),
    );
    assert!(good.completion_ns <= bad.completion_ns);
}

/// The `+LBDump` → `+LBSim` path preserves the placement and its
/// hop-bytes bit for bit.
#[test]
fn dump_replay_is_lossless() {
    let dir = std::env::temp_dir().join("topomap-integration-dump");
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("it");
    let g = gen::leanmd(
        16,
        &gen::LeanMdConfig {
            num_computes: 150,
            ..Default::default()
        },
    );
    let db = LbDatabase::from_task_graph(&g);
    let machine = Torus::torus_2d(4, 4);
    let topolb = |db: &LbDatabase| {
        two_phase(
            &db.to_task_graph(),
            &machine,
            &MultilevelKWay::default(),
            &TopoLb::default(),
        )
    };

    let direct = topolb(&db);
    write_step(
        &base,
        &LbDump {
            step: 7,
            num_procs: 16,
            database: db,
        },
    )
    .unwrap();
    let dump = read_step(&base, 7).unwrap();
    assert_eq!(dump.num_procs, machine.num_nodes());
    let via_file = topolb(&dump.database);
    assert_eq!(via_file.task_placement(), direct.task_placement());
    assert_eq!(
        via_file.hop_bytes(&machine).to_bits(),
        direct.hop_bytes(&machine).to_bits()
    );
    std::fs::remove_file(step_path(&base, 7)).ok();
}

/// Two-phase pipeline handles every partitioner/mapper combination without
/// violating coverage or injectivity, on an awkward task count (not a
/// multiple of p) and on an over-decomposed LeanMD, where the
/// load-balancing partitioners leave no processor without work.
#[test]
fn two_phase_all_combinations() {
    let leanmd = gen::LeanMdConfig {
        num_computes: 200,
        ..Default::default()
    };
    let workloads = [
        (
            gen::random_geometric(95, 0.2, 10.0, 1000.0, 9),
            Torus::torus_2d(4, 3),
        ),
        (gen::leanmd(16, &leanmd), Torus::torus_2d(4, 4)),
    ];
    // (phase 1, whether every processor must receive an object)
    let partitioners: Vec<(Box<dyn Partitioner>, bool)> = vec![
        (Box::new(RandomPartition::new(2)), false),
        (Box::new(GreedyLoad), true),
        (Box::new(MultilevelKWay::default()), true),
    ];
    let mappers: Vec<Box<dyn Mapper>> = vec![
        Box::new(RandomMap::new(2)),
        Box::new(TopoCentLb),
        Box::new(TopoLb::default()),
        Box::new(RefineTopoLb::new(TopoCentLb)),
    ];
    for (tasks, machine) in &workloads {
        let (n, p) = (tasks.num_tasks(), machine.num_nodes());
        for (part, fills_every_proc) in &partitioners {
            for mapper in &mappers {
                let r = two_phase(tasks, machine, part.as_ref(), mapper.as_ref());
                let placement = r.task_placement();
                assert_eq!(placement.len(), n);
                assert!(placement.iter().all(|&q| q < p));
                // Group mapping must be injective over the p groups.
                let mut seen = vec![false; p];
                for g in 0..r.group_graph.num_tasks() {
                    let q = r.group_mapping.proc_of(g);
                    assert!(!seen[q]);
                    seen[q] = true;
                }
                if *fills_every_proc {
                    let mut busy = vec![false; p];
                    placement.iter().for_each(|&q| busy[q] = true);
                    assert!(busy.iter().all(|&b| b), "n = {n}: a processor left empty");
                }
            }
        }
    }
}

/// A hand-written trace with asymmetric communication exercises the
/// simulator's dependency tracking across crates.
#[test]
fn simulator_honors_cross_task_dependencies() {
    // Task 0 computes 1ms then sends to 1; task 1 forwards to 2; task 2
    // finishes. Completion must be >= 1ms + two message latencies, and
    // task ordering must hold regardless of mapping.
    let tr = Trace {
        programs: vec![
            vec![
                TraceOp::Compute { ns: 1_000_000 },
                TraceOp::Send { to: 1, bytes: 1000 },
            ],
            vec![
                TraceOp::Recv { from: 0 },
                TraceOp::Send { to: 2, bytes: 1000 },
            ],
            vec![TraceOp::Recv { from: 1 }],
        ],
    };
    tr.check_matched().unwrap();
    let machine = Torus::mesh_1d(3);
    let cfg = NetworkConfig::default();
    for mapping in [
        Mapping::new(vec![0, 1, 2], 3),
        Mapping::new(vec![2, 0, 1], 3),
        Mapping::new(vec![1, 2, 0], 3),
    ] {
        let s = Simulation::run(&machine, &cfg, &tr, &mapping);
        assert!(
            s.completion_ns >= 1_000_000,
            "chain can't finish before the compute"
        );
        assert_eq!(s.network_messages + s.local_messages, 2);
    }
}

/// Group graphs fed to the simulator through stencil traces stay
/// deadlock-free even when the partitioner produces irregular group
/// degrees.
#[test]
fn coalesced_leanmd_simulates_cleanly() {
    let p = 16;
    let tasks = gen::leanmd(
        p,
        &gen::LeanMdConfig {
            num_computes: 200,
            ..Default::default()
        },
    );
    let machine = Torus::torus_2d(4, 4);
    let r = two_phase(
        &tasks,
        &machine,
        &MultilevelKWay::default(),
        &TopoLb::default(),
    );
    let tr = trace::stencil_trace(&r.group_graph, 5, 1_000);
    tr.check_matched().unwrap();
    let s = Simulation::run(&machine, &NetworkConfig::default(), &tr, &r.group_mapping);
    assert!(s.completion_ns > 0);
    assert_eq!(
        s.network_messages + s.local_messages,
        2 * r.group_graph.num_edges() as u64 * 5
    );
}
