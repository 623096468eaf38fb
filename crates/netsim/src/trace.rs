//! Application traces: per-task operation sequences replayed by the
//! simulator while honoring dependencies.
//!
//! This mirrors the paper's §5.3 methodology: "event traces contain
//! timestamps for message sending and entry point initiation.
//! Event-dependency information is also available ... so that these
//! timestamps can be corrected depending on the network being simulated
//! while honoring event ordering." Here a trace carries the *structure*
//! (op order and dependencies); the simulator computes all timing from the
//! network model.

use serde::{Deserialize, Serialize};
use topomap_taskgraph::{TaskGraph, TaskId};

/// One operation in a task's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// Busy-compute for the given number of nanoseconds.
    Compute { ns: u64 },
    /// Send `bytes` to task `to` (asynchronous; costs the sender only the
    /// configured software overhead).
    Send { to: TaskId, bytes: u64 },
    /// Block until one more message from task `from` has been received
    /// than this task has consumed so far.
    Recv { from: TaskId },
}

/// A complete application trace: one op sequence per task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub programs: Vec<Vec<TraceOp>>,
}

impl Trace {
    pub(crate) fn num_tasks(&self) -> usize {
        self.programs.len()
    }

    /// Total bytes sent across the whole trace.
    pub fn total_send_bytes(&self) -> u64 {
        self.programs
            .iter()
            .flatten()
            .map(|op| match op {
                TraceOp::Send { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total number of messages in the trace.
    pub fn num_messages(&self) -> usize {
        self.programs
            .iter()
            .flatten()
            .filter(|op| matches!(op, TraceOp::Send { .. }))
            .count()
    }

    /// Sanity-check that every `Send` has a matching `Recv` (per ordered
    /// pair of tasks), so replay cannot deadlock on missing messages.
    /// Returns the first mismatched pair if any.
    pub fn check_matched(&self) -> Result<(), (TaskId, TaskId)> {
        use std::collections::HashMap;
        let mut sends: HashMap<(TaskId, TaskId), i64> = HashMap::new();
        for (t, prog) in self.programs.iter().enumerate() {
            for op in prog {
                match *op {
                    TraceOp::Send { to, .. } => *sends.entry((t, to)).or_insert(0) += 1,
                    TraceOp::Recv { from } => *sends.entry((from, t)).or_insert(0) -= 1,
                    TraceOp::Compute { .. } => {}
                }
            }
        }
        for (&pair, &bal) in &sends {
            if bal != 0 {
                return Err(pair);
            }
        }
        Ok(())
    }
}

/// Build the paper's iterative stencil benchmark as a trace: in each
/// iteration every task computes for `compute_ns`, sends one message to
/// each task-graph neighbor (half the edge weight — edge weights are
/// bidirectional totals), then waits for one message from each neighbor.
///
/// Sends precede receives within an iteration, so the program is
/// deadlock-free; a task can run at most one iteration ahead of its
/// neighbors, exactly like a real Jacobi sweep.
pub fn stencil_trace(tasks: &TaskGraph, iterations: usize, compute_ns: u64) -> Trace {
    let n = tasks.num_tasks();
    let mut programs = Vec::with_capacity(n);
    for t in 0..n {
        let nbrs: Vec<(TaskId, u64)> = tasks
            .neighbors(t)
            .map(|(j, w)| (j, (w / 2.0).round() as u64))
            .collect();
        let mut prog = Vec::with_capacity(iterations * (1 + 2 * nbrs.len()));
        for _ in 0..iterations {
            prog.push(TraceOp::Compute { ns: compute_ns });
            for &(j, bytes) in &nbrs {
                prog.push(TraceOp::Send { to: j, bytes });
            }
            for &(j, _) in &nbrs {
                prog.push(TraceOp::Recv { from: j });
            }
        }
        programs.push(prog);
    }
    Trace { programs }
}

/// A ping-pong trace between two tasks (`rounds` round trips of `bytes`),
/// useful for calibrating the latency model.
#[cfg(test)]
pub(crate) fn pingpong_trace(
    num_tasks: usize,
    a: TaskId,
    b: TaskId,
    rounds: usize,
    bytes: u64,
) -> Trace {
    assert!(a < num_tasks && b < num_tasks && a != b);
    let mut programs = vec![Vec::new(); num_tasks];
    for _ in 0..rounds {
        programs[a].push(TraceOp::Send { to: b, bytes });
        programs[a].push(TraceOp::Recv { from: b });
        programs[b].push(TraceOp::Recv { from: a });
        programs[b].push(TraceOp::Send { to: a, bytes });
    }
    Trace { programs }
}

/// A personalized all-to-all (MPI_Alltoall) trace: in each of `rounds`
/// phases every task sends `bytes` to every other task and receives from
/// all of them. The bisection-bandwidth stress collective.
pub fn alltoall_trace(num_tasks: usize, rounds: usize, bytes: u64) -> Trace {
    assert!(num_tasks >= 2);
    let mut programs = vec![Vec::new(); num_tasks];
    for _ in 0..rounds {
        for (t, prog) in programs.iter_mut().enumerate() {
            for peer in 0..num_tasks {
                if peer != t {
                    prog.push(TraceOp::Send { to: peer, bytes });
                }
            }
            for peer in 0..num_tasks {
                if peer != t {
                    prog.push(TraceOp::Recv { from: peer });
                }
            }
        }
    }
    Trace { programs }
}

/// A recursive-doubling all-reduce trace over `n = 2^k` tasks: `log2 n`
/// rounds in which each task exchanges `bytes` with the partner differing
/// in bit `k` — the classic latency-optimal collective. Each round fully
/// synchronizes partner pairs, so the simulated completion time exposes
/// how the mapping stretches the butterfly's long exchanges.
pub fn allreduce_trace(num_tasks: usize, rounds: usize, bytes: u64) -> Trace {
    assert!(num_tasks >= 2 && num_tasks.is_power_of_two());
    let mut programs = vec![Vec::new(); num_tasks];
    for _ in 0..rounds {
        let mut bit = 1usize;
        while bit < num_tasks {
            for (t, prog) in programs.iter_mut().enumerate() {
                let partner = t ^ bit;
                prog.push(TraceOp::Send { to: partner, bytes });
                prog.push(TraceOp::Recv { from: partner });
            }
            bit <<= 1;
        }
    }
    Trace { programs }
}

/// A binomial-tree reduction trace: leaves send up, parents combine and
/// forward, the root ends holding the result; then a broadcast unwinds
/// back down. `rounds` repetitions.
pub fn reduce_broadcast_trace(num_tasks: usize, rounds: usize, bytes: u64) -> Trace {
    assert!(num_tasks >= 2);
    let mut programs = vec![Vec::new(); num_tasks];
    for _ in 0..rounds {
        // Reduction: in pass k, node i with i % 2^(k+1) == 2^k sends to
        // i - 2^k.
        let mut stride = 1usize;
        while stride < num_tasks {
            for t in 0..num_tasks {
                if t % (2 * stride) == stride {
                    let parent = t - stride;
                    programs[t].push(TraceOp::Send { to: parent, bytes });
                    programs[parent].push(TraceOp::Recv { from: t });
                }
            }
            stride *= 2;
        }
        // Broadcast: unwind in reverse order.
        stride /= 2;
        while stride >= 1 {
            for t in 0..num_tasks {
                if t % (2 * stride) == 0 && t + stride < num_tasks {
                    let child = t + stride;
                    programs[t].push(TraceOp::Send { to: child, bytes });
                    programs[child].push(TraceOp::Recv { from: t });
                }
            }
            if stride == 1 {
                break;
            }
            stride /= 2;
        }
    }
    Trace { programs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topomap_taskgraph::gen;

    #[test]
    fn stencil_trace_shape() {
        let g = gen::stencil2d(3, 3, 2000.0, false);
        let tr = stencil_trace(&g, 5, 1000);
        assert_eq!(tr.num_tasks(), 9);
        // Center task: 5 iters x (1 compute + 4 sends + 4 recvs).
        assert_eq!(tr.programs[4].len(), 5 * 9);
        // Corner: degree 2.
        assert_eq!(tr.programs[0].len(), 5 * 5);
        assert!(tr.check_matched().is_ok());
    }

    #[test]
    fn stencil_trace_bytes_per_message() {
        let g = gen::stencil2d(2, 2, 2000.0, false); // edge weight 4000 total
        let tr = stencil_trace(&g, 1, 0);
        for op in tr.programs.iter().flatten() {
            if let TraceOp::Send { bytes, .. } = op {
                assert_eq!(*bytes, 2000, "per-direction message is half the edge");
            }
        }
        assert_eq!(tr.num_messages(), 4 * 2); // 4 edges, both directions
        assert_eq!(tr.total_send_bytes(), 8 * 2000);
    }

    #[test]
    fn unmatched_trace_detected() {
        let tr = Trace {
            programs: vec![
                vec![TraceOp::Send { to: 1, bytes: 10 }],
                vec![], // missing Recv
            ],
        };
        assert_eq!(tr.check_matched(), Err((0, 1)));
    }

    #[test]
    fn pingpong_matched() {
        let tr = pingpong_trace(4, 0, 3, 10, 1024);
        assert!(tr.check_matched().is_ok());
        assert_eq!(tr.num_messages(), 20);
    }

    #[test]
    fn alltoall_trace_matched_and_counts() {
        let tr = alltoall_trace(5, 2, 256);
        assert!(tr.check_matched().is_ok());
        assert_eq!(tr.num_messages(), 2 * 5 * 4);
        assert_eq!(tr.total_send_bytes(), (2 * 5 * 4 * 256) as u64);
    }

    #[test]
    fn allreduce_trace_matched_and_log_rounds() {
        let tr = allreduce_trace(8, 1, 512);
        assert!(tr.check_matched().is_ok());
        // 3 rounds x 8 tasks x 1 send each.
        assert_eq!(tr.num_messages(), 24);
        // Every program alternates Send/Recv with the same partner.
        for (t, prog) in tr.programs.iter().enumerate() {
            for pair in prog.chunks(2) {
                match pair {
                    [TraceOp::Send { to, .. }, TraceOp::Recv { from }] => {
                        assert_eq!(to, from);
                        assert_eq!((t ^ to).count_ones(), 1);
                    }
                    other => panic!("unexpected ops {other:?}"),
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power_of_two")]
    fn allreduce_requires_power_of_two() {
        allreduce_trace(6, 1, 1);
    }

    #[test]
    fn reduce_broadcast_matched() {
        for n in [2usize, 4, 8, 16, 7, 12] {
            let tr = reduce_broadcast_trace(n, 2, 100);
            assert!(tr.check_matched().is_ok(), "n = {n}");
            // Reduction + broadcast over a binomial tree: 2(n-1) messages
            // per round for power-of-two n.
            if n.is_power_of_two() {
                assert_eq!(tr.num_messages(), 2 * 2 * (n - 1), "n = {n}");
            }
        }
    }

    #[test]
    fn trace_serde_roundtrip() {
        let g = gen::ring(4, 100.0);
        let tr = stencil_trace(&g, 2, 500);
        let s = serde_json::to_string(&tr).unwrap();
        let back: Trace = serde_json::from_str(&s).unwrap();
        assert_eq!(tr, back);
    }
}
