//! An instrumented threaded mini-runtime: the measurement side of the
//! Charm++ model.
//!
//! "The Charm++ programming model involves breaking up the application
//! into a large number of communicating objects which can be freely mapped
//! to the physical processors by the runtime system. Furthermore, these
//! objects are migratable, which allows the runtime system to perform
//! dynamic load balancing based on measurement of load and communication
//! characteristics during actual execution." (§1)
//!
//! [`Runtime`] executes communicating objects on worker threads (one
//! thread = one "processor"), measures per-object compute time, records
//! every message into an [`LbDatabase`], and migrates objects when handed
//! a new assignment — objects here are plain data, so migration is a move
//! between owners (the role Charm++'s PUP framework plays for C++
//! objects).
//!
//! Message passing uses crossbeam channels and the database a
//! `parking_lot` mutex: data-race freedom by construction, per the
//! Rust-concurrency guidance this project follows.

use crate::database::LbDatabase;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::time::Instant;
use topomap_taskgraph::{TaskGraph, TaskId};
use topomap_topology::NodeId;

/// Per-iteration behaviour of one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ObjectSpec {
    /// Abstract compute work per iteration (spin-loop units).
    pub(crate) work_units: u64,
    /// Messages sent each iteration: `(destination object, bytes)`.
    pub(crate) sends: Vec<(TaskId, u64)>,
}

/// A message in flight between objects.
#[derive(Debug, Clone, Copy)]
struct ObjMessage {
    from: TaskId,
    to: TaskId,
    bytes: u64,
}

/// The mini-runtime: object specs + current object→processor assignment.
#[derive(Debug, Clone)]
pub struct Runtime {
    specs: Vec<ObjectSpec>,
    num_procs: usize,
    assignment: Vec<usize>,
}

/// Spin-loop calibration: work per `work_unit`. Small enough that tests
/// are fast, large enough that measured times order correctly.
const SPIN_PER_UNIT: u64 = 64;

#[inline]
fn spin(units: u64) -> u64 {
    let mut x = 0x9e3779b97f4a7c15u64;
    for i in 0..units * SPIN_PER_UNIT {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
    }
    std::hint::black_box(x)
}

impl Runtime {
    /// Create a runtime with a round-robin initial assignment (the naive
    /// placement a fresh Charm++ run starts from).
    pub(crate) fn new(specs: Vec<ObjectSpec>, num_procs: usize) -> Self {
        assert!(num_procs > 0);
        let n = specs.len();
        Runtime {
            specs,
            num_procs,
            assignment: (0..n).map(|o| o % num_procs).collect(),
        }
    }

    /// Derive object specs from a task graph: work proportional to vertex
    /// weight, one message per neighbor per iteration carrying half the
    /// edge's byte total.
    pub fn from_task_graph(g: &TaskGraph, num_procs: usize, work_scale: f64) -> Self {
        let specs = (0..g.num_tasks())
            .map(|t| ObjectSpec {
                work_units: (g.vertex_weight(t) * work_scale).round().max(1.0) as u64,
                sends: g
                    .neighbors(t)
                    .map(|(j, w)| (j, (w / 2.0).round() as u64))
                    .collect(),
            })
            .collect();
        Runtime::new(specs, num_procs)
    }

    /// Objects currently owned by each processor.
    pub(crate) fn objects_on(&self, proc: usize) -> Vec<TaskId> {
        (0..self.specs.len())
            .filter(|&o| self.assignment[o] == proc)
            .collect()
    }

    /// Migrate objects to a new assignment, `placement[o]` = object `o`'s
    /// processor (the LB step's output applied; objects being plain data,
    /// migration is a move of ownership).
    pub fn migrate(&mut self, placement: &[NodeId]) {
        assert_eq!(placement.len(), self.specs.len());
        assert!(placement.iter().all(|&p| p < self.num_procs));
        self.assignment = placement.to_vec();
    }

    /// Execute `iterations` BSP iterations on `num_procs` worker threads,
    /// measuring per-object compute time and recording all communication.
    ///
    /// Every object: compute (spin), send its messages, then receive all
    /// messages addressed to it for this iteration. Workers synchronize on
    /// a barrier between iterations.
    pub fn run_instrumented(&self, iterations: usize) -> LbDatabase {
        let n = self.specs.len();
        let db = Mutex::new(LbDatabase::new(n));

        // One channel per worker (its inbox).
        let mut senders: Vec<Sender<ObjMessage>> = Vec::with_capacity(self.num_procs);
        let mut receivers: Vec<Option<Receiver<ObjMessage>>> = Vec::with_capacity(self.num_procs);
        for _ in 0..self.num_procs {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(Some(r));
        }

        // Expected messages per worker per iteration (to know when a
        // worker's receive phase is done).
        let mut expected = vec![0usize; self.num_procs];
        for spec in &self.specs {
            for &(to, _) in &spec.sends {
                expected[self.assignment[to]] += 1;
            }
        }

        let barrier = std::sync::Barrier::new(self.num_procs);

        crossbeam::thread::scope(|scope| {
            for w in 0..self.num_procs {
                let my_objects = self.objects_on(w);
                let my_rx = receivers[w].take().expect("receiver taken once");
                let senders = senders.clone();
                let specs = &self.specs;
                let assignment = &self.assignment;
                let db = &db;
                let barrier = &barrier;
                let my_expected = expected[w];

                scope.spawn(move |_| {
                    let mut my_loads = vec![0f64; my_objects.len()];
                    // (from, to, bytes, count) accumulated locally.
                    let mut recv_log: Vec<ObjMessage> = Vec::new();

                    for _iter in 0..iterations {
                        // Compute + send phase.
                        for (i, &obj) in my_objects.iter().enumerate() {
                            let t0 = Instant::now();
                            spin(specs[obj].work_units);
                            my_loads[i] += t0.elapsed().as_secs_f64();
                            for &(to, bytes) in &specs[obj].sends {
                                senders[assignment[to]]
                                    .send(ObjMessage {
                                        from: obj,
                                        to,
                                        bytes,
                                    })
                                    .expect("worker inbox closed early");
                            }
                        }
                        // Receive phase: exactly the expected count.
                        for _ in 0..my_expected {
                            let msg = my_rx.recv().expect("message lost");
                            debug_assert_eq!(assignment[msg.to], w);
                            recv_log.push(msg);
                        }
                        barrier.wait();
                    }

                    // Commit instrumentation to the shared database.
                    let mut db = db.lock();
                    for (i, &obj) in my_objects.iter().enumerate() {
                        db.record_load(obj, my_loads[i]);
                    }
                    for m in recv_log {
                        db.record_comm(m.from, m.to, m.bytes as f64, 1);
                    }
                });
            }
        })
        .expect("worker thread panicked");

        db.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_core::{pipeline::two_phase, TopoLb};
    use topomap_partition::MultilevelKWay;
    use topomap_taskgraph::gen;

    #[test]
    fn comm_records_are_exact() {
        // A 4-ring, 3 iterations: each directed edge carries 3 messages.
        let g = gen::ring(4, 200.0); // edge weight 400 total -> 200/direction... /2 = 200
        let rt = Runtime::from_task_graph(&g, 2, 1.0);
        let db = rt.run_instrumented(3);
        assert_eq!(db.num_objects(), 4);
        // 4 tasks x 2 neighbors = 8 directed records.
        assert_eq!(db.comm.len(), 8);
        for r in &db.comm {
            assert_eq!(r.messages, 3, "{r:?}");
            assert_eq!(r.bytes, 3.0 * 200.0, "{r:?}");
        }
    }

    #[test]
    fn loads_are_measured_and_ordered() {
        // Object 0 does ~200x the work of object 1: measured load must be
        // larger despite timer noise.
        let specs = vec![
            ObjectSpec {
                work_units: 20_000,
                sends: vec![],
            },
            ObjectSpec {
                work_units: 100,
                sends: vec![],
            },
        ];
        let rt = Runtime::new(specs, 2);
        let db = rt.run_instrumented(3);
        assert!(db.loads[0] > 0.0 && db.loads[1] > 0.0);
        assert!(
            db.loads[0] > 5.0 * db.loads[1],
            "heavy {} vs light {}",
            db.loads[0],
            db.loads[1]
        );
    }

    #[test]
    fn migration_moves_ownership() {
        let g = gen::ring(6, 100.0);
        let mut rt = Runtime::from_task_graph(&g, 3, 1.0);
        assert_eq!(rt.objects_on(0), vec![0, 3]);
        rt.migrate(&[0, 0, 1, 1, 2, 2]);
        assert_eq!(rt.objects_on(0), vec![0, 1]);
        assert_eq!(rt.objects_on(2), vec![4, 5]);
        // Still runs correctly after migration.
        let db = rt.run_instrumented(2);
        assert_eq!(db.comm.iter().map(|r| r.messages).sum::<u64>(), 2 * 12);
    }

    #[test]
    fn full_measure_balance_rerun_cycle() {
        // The complete Charm++ workflow: run, measure, strategize, migrate.
        let g = gen::stencil2d(4, 4, 512.0, false);
        let mut rt = Runtime::from_task_graph(&g, 4, 1.0);
        let db = rt.run_instrumented(2);
        let topo = topomap_topology::Torus::torus_2d(2, 2);
        let r = two_phase(
            &db.to_task_graph(),
            &topo,
            &MultilevelKWay::default(),
            &TopoLb::default(),
        );
        rt.migrate(&r.task_placement());
        let db2 = rt.run_instrumented(2);
        assert_eq!(db2.num_objects(), 16);
        // The communication structure is assignment-independent.
        assert_eq!(
            db.comm.iter().map(|r| r.messages).sum::<u64>(),
            db2.comm.iter().map(|r| r.messages).sum::<u64>()
        );
    }

    #[test]
    fn single_processor_runtime_works() {
        let g = gen::ring(3, 100.0);
        let rt = Runtime::from_task_graph(&g, 1, 1.0);
        let db = rt.run_instrumented(1);
        assert_eq!(db.comm.len(), 6);
    }
}
