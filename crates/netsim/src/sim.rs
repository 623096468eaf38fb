//! The discrete-event simulation engine.
//!
//! Messages advance hop by hop; the outgoing link at each hop is chosen
//! at simulation time, which supports both deterministic dimension-ordered
//! routing and minimal-adaptive routing (pick the productive link that
//! frees earliest — modeling adaptive virtual-channel selection). A
//! deterministic route depends only on its two processors, which the
//! mapping fixes for the whole run, so the engine walks each (source task,
//! destination task) route once and replays its link ids.
//!
//! ## Horizon
//!
//! A run may carry a horizon: the makespan it must strictly undercut to
//! be of use ([`contention_oracle`]'s `beat`). It stops and returns `None`
//! when it pops an event at or after the horizon while a task is
//! unfinished — that task can only finish at or after the event's time —
//! or when the last task finished at or after it. Either way the makespan
//! of the full run is at least the horizon, and otherwise the run is the
//! full run, bit for bit.
//!
//! ## Event order
//!
//! Events are handled earliest time first and, among equal times, in the
//! order they were scheduled. No handler schedules before the time it is
//! handling, so the event set is a monotone priority queue and
//! `EventQueue` is a radix heap: with `last` the time of the latest pop,
//! bucket 0 holds the events at `last` and bucket `b > 0` those whose
//! highest bit differing from `last` is bit `b − 1`. It pops in exactly
//! the order of a binary heap keyed `(time, push counter)` without
//! storing the counter:
//!
//! 1. An event's bucket is a function of its time and `last` alone, so at
//!    any moment all queued events of one time sit in one bucket.
//! 2. A push appends to its bucket, behind every earlier push of that
//!    time (which, by 1, is in the same bucket).
//! 3. A refill takes the lowest non-empty bucket `b`, sets `last` to its
//!    minimum and re-files its entries, in stored order, into buckets
//!    below `b` — all empty, since `b` was the lowest — so entries of one
//!    time stay together and keep their relative order; entries of higher
//!    buckets differ from the old and the new `last` in the same highest
//!    bit and do not move.
//! 4. Bucket 0 is read front to back, so events of the minimum time
//!    leave in push order, and by 3 nothing earlier is queued elsewhere.

use crate::config::{NetworkConfig, NicModel, RoutingMode, Switching};
use crate::stats::{LinkAccounting, SimStats};
use crate::trace::{Trace, TraceOp};
use topomap_core::contention::SimObservation;
use topomap_core::{obs, Mapping};
use topomap_taskgraph::TaskId;
use topomap_topology::{Link, LinkIndex, NodeId, RoutedTopology};

/// Event kinds processed by the engine. Payloads are `u32` (checked where
/// they are narrowed) so a queued event is 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A task resumes executing its program (after compute or unblock).
    Resume { task: u32 },
    /// A message head is at a node, ready to cross its next link.
    Hop { msg: u32 },
    /// A message head reaches the destination's ejection (reception)
    /// channel.
    Eject { msg: u32 },
    /// A message's last byte reaches its destination NIC.
    Deliver { msg: u32 },
}

/// The pending events: a monotone radix heap (see the module docs for the
/// layout and the proof that it pops in `(time, push order)`).
struct EventQueue {
    /// Time of the latest pop; no queued event is earlier.
    last: u64,
    buckets: [Vec<(u64, EventKind)>; 65],
    /// Next unread entry of bucket 0.
    cursor: usize,
    /// Bit `b − 1` is set iff bucket `b ≥ 1` is non-empty.
    occupied: u64,
}

/// The bucket of `time` relative to `last`: 0 when equal, else one more
/// than the position of the highest differing bit.
#[inline]
fn bucket_of(time: u64, last: u64) -> usize {
    (u64::BITS - (time ^ last).leading_zeros()) as usize
}

impl EventQueue {
    fn new() -> Self {
        EventQueue {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            cursor: 0,
            occupied: 0,
        }
    }

    fn push(&mut self, time: u64, kind: EventKind) {
        // Not a debug_assert: a past-dated event (an overflowed timestamp
        // in a release build, say) would be filed under the wrong bucket
        // and silently reorder the run.
        assert!(
            time >= self.last,
            "event at {time} ns scheduled in the past of {} ns",
            self.last
        );
        self.file(time, kind);
    }

    /// Append an event to the bucket its time has relative to `last`.
    #[inline]
    fn file(&mut self, time: u64, kind: EventKind) {
        let b = bucket_of(time, self.last);
        self.buckets[b].push((time, kind));
        if b > 0 {
            self.occupied |= 1 << (b - 1);
        }
    }

    fn pop(&mut self) -> Option<(u64, EventKind)> {
        if self.cursor == self.buckets[0].len() {
            self.buckets[0].clear();
            self.cursor = 0;
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let (_, kind) = self.buckets[0][self.cursor];
        self.cursor += 1;
        Some((self.last, kind))
    }

    /// Advance `last` to the earliest queued time and re-file the lowest
    /// non-empty bucket around it. Bucket 0 must be empty.
    fn refill(&mut self) {
        let b = self.occupied.trailing_zeros() as usize + 1;
        self.occupied &= self.occupied - 1; // clear the lowest set bit: `b`'s
        let mut source = std::mem::take(&mut self.buckets[b]);
        self.last = source
            .iter()
            .map(|&(time, _)| time)
            .min()
            .expect("an occupied bucket holds an event");
        for (time, kind) in source.drain(..) {
            self.file(time, kind); // always below `b`
        }
        self.buckets[b] = source; // emptied; keeps its allocation
    }
}

/// An in-flight message.
#[derive(Debug)]
struct Msg {
    src: TaskId,
    dst: TaskId,
    bytes: u64,
    inject_ns: u64,
    /// Destination processor (cached from the mapping).
    dst_proc: NodeId,
    /// Node the head currently occupies.
    cur: NodeId,
    /// Under deterministic routing, the position in `Engine::routes` of
    /// the next link to cross.
    route: u32,
    /// The link the head most recently crossed (for wormhole
    /// backpressure), as an index into `links`.
    prev_link: Option<u32>,
    hops: u32,
    /// Earliest time the message's last byte can exist at the head's
    /// position: `max_k (start_k + ser_k)` over links crossed so far.
    /// With uniform link speeds this is just the last link's completion;
    /// with degraded links the slowest link dominates.
    tail_ready: u64,
}

#[derive(Debug, Default)]
struct TaskState {
    pc: usize,
    /// Messages received but not yet consumed, per source task: sorted by
    /// source, an entry inserted when a source is first seen.
    avail: Vec<(TaskId, u32)>,
    /// Source this task's current `Recv` is blocked on, if any.
    blocked_on: Option<TaskId>,
    finished_at: Option<u64>,
    /// Where the route to each destination task starts in
    /// `Engine::routes`: sorted by destination, an entry inserted when the
    /// route is first walked (deterministic routing only).
    routes: Vec<(TaskId, u32)>,
}

impl TaskState {
    /// The count of unconsumed messages from `src`.
    fn avail_from(&mut self, src: TaskId) -> &mut u32 {
        let i = match self.avail.binary_search_by_key(&src, |&(s, _)| s) {
            Ok(i) => i,
            Err(i) => {
                self.avail.insert(i, (src, 0));
                i
            }
        };
        &mut self.avail[i].1
    }
}

/// One complete simulation run.
pub struct Simulation;

/// A simulation's aggregate statistics plus the per-link ledger it
/// accumulated. `links` is the ledger's index space — the deterministic
/// [`RoutedTopology::links`] order — so `acct.busy_ns(i)` is the busy time
/// of `links[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    pub stats: SimStats,
    pub links: Vec<Link>,
    pub acct: LinkAccounting,
}

impl Simulation {
    /// Replay `trace` on `topo` under `mapping` with network parameters
    /// `cfg`; returns aggregate statistics.
    ///
    /// Panics if the trace deadlocks (a `Recv` that no `Send` satisfies) —
    /// use [`Trace::check_matched`] to validate traces up front.
    pub fn run(
        topo: &dyn RoutedTopology,
        cfg: &NetworkConfig,
        trace: &Trace,
        mapping: &Mapping,
    ) -> SimStats {
        Self::run_with_links(topo, cfg, trace, mapping).stats
    }

    /// [`Simulation::run`], but keep the per-link accounting ledger instead
    /// of dropping it after the aggregate statistics are computed. This is
    /// what contention-aware consumers (hot-link identification, ledger
    /// conservation checks) read.
    pub fn run_with_links(
        topo: &dyn RoutedTopology,
        cfg: &NetworkConfig,
        trace: &Trace,
        mapping: &Mapping,
    ) -> SimReport {
        Self::run_until(topo, cfg, trace, mapping, None)
            .expect("a run without a horizon is never cut")
    }

    /// [`Simulation::run_with_links`] with an optional horizon (see the
    /// module docs): `None` when the makespan is at least `horizon`.
    fn run_until(
        topo: &dyn RoutedTopology,
        cfg: &NetworkConfig,
        trace: &Trace,
        mapping: &Mapping,
        horizon: Option<u64>,
    ) -> Option<SimReport> {
        let _run_span = obs::span("netsim.run");
        let engine = {
            let _setup_span = obs::span("netsim.setup");
            Engine::new(topo, cfg, trace, mapping)
        };
        engine.run_report(horizon)
    }
}

/// Build the simulate-closure that [`topomap_core::contention::ContentionRefine`]
/// consumes: each call `(mapping, beat)` replays `trace` under the
/// candidate mapping with `beat` as its horizon and returns the makespan
/// plus the per-link busy/byte ledger in `topo.links()` order, or `None`
/// when the makespan is at least `beat`. Lives here rather than in
/// `topomap-core` because the crate dependency points netsim → core.
pub fn contention_oracle<'a>(
    topo: &'a dyn RoutedTopology,
    cfg: &'a NetworkConfig,
    trace: &'a Trace,
) -> impl FnMut(&Mapping, u64) -> Option<SimObservation> + 'a {
    move |m: &Mapping, beat: u64| {
        let report = Simulation::run_until(topo, cfg, trace, m, Some(beat))?;
        let queue_wait_ns = report.acct.queue_wait_ns();
        let (link_busy_ns, link_bytes) = report.acct.into_ledgers();
        Some(SimObservation {
            makespan_ns: report.stats.completion_ns,
            link_busy_ns,
            link_bytes,
            queue_wait_ns,
        })
    }
}

struct Engine<'a> {
    topo: &'a dyn RoutedTopology,
    cfg: &'a NetworkConfig,
    trace: &'a Trace,
    mapping: &'a Mapping,
    events: EventQueue,
    /// The link-id space of every per-link vector below.
    links: LinkIndex,
    /// Time each directed link becomes free.
    link_free: Vec<u64>,
    /// Per-link busy time, bytes, and queueing (utilization stats and
    /// the contention heatmap export).
    acct: LinkAccounting,
    /// Relative speed factor per link (1.0 = nominal bandwidth).
    link_speed: Vec<f64>,
    /// Per-processor NIC injection channel (SharedChannel model).
    inject_free: Vec<u64>,
    /// Per-processor NIC ejection channel (SharedChannel model).
    eject_free: Vec<u64>,
    /// In-flight messages: a slab. `Deliver` returns a slot to
    /// `free_msgs` and the next `inject` reuses it, so the vector grows to
    /// the peak number in flight, not the number sent.
    msgs: Vec<Msg>,
    free_msgs: Vec<u32>,
    tasks: Vec<TaskState>,
    /// Tasks whose program has not run to its end.
    unfinished: usize,
    /// The link ids of every deterministic route walked so far, back to
    /// back; `TaskState::routes` says where each starts.
    routes: Vec<u32>,
    nbr_buf: Vec<NodeId>,
    // Statistics accumulators.
    latencies: Vec<u64>,
    local_delivered: u64,
    bytes_delivered: u64,
    hop_sum: u64,
    /// Σ bytes × hops over delivered network messages — accumulated at
    /// delivery, independently of the per-link ledger, so the two can be
    /// cross-checked (Σ link bytes must equal this).
    bytes_hops: u64,
}

impl<'a> Engine<'a> {
    fn new(
        topo: &'a dyn RoutedTopology,
        cfg: &'a NetworkConfig,
        trace: &'a Trace,
        mapping: &'a Mapping,
    ) -> Self {
        assert_eq!(
            trace.num_tasks(),
            mapping.num_tasks(),
            "trace and mapping disagree on task count"
        );
        assert_eq!(
            mapping.num_procs(),
            topo.num_nodes(),
            "mapping and topology disagree on processor count"
        );
        assert!(
            u32::try_from(trace.num_tasks()).is_ok(),
            "more than u32::MAX tasks"
        );
        let links = LinkIndex::new(topo);
        let n_links = links.num_links();
        let mut link_speed = vec![1.0f64; n_links];
        for &(from, to, factor) in &cfg.link_speed_factors {
            assert!(factor > 0.0, "link speed factor must be positive");
            let li = links.id(from, to).unwrap_or_else(|| {
                panic!(
                    "speed factor for nonexistent link {:?}",
                    Link::new(from, to)
                )
            });
            link_speed[li] = factor;
        }
        Engine {
            topo,
            cfg,
            trace,
            mapping,
            events: EventQueue::new(),
            links,
            link_free: vec![0; n_links],
            acct: LinkAccounting::new(n_links),
            link_speed,
            inject_free: vec![0; topo.num_nodes()],
            eject_free: vec![0; topo.num_nodes()],
            msgs: Vec::new(),
            free_msgs: Vec::new(),
            tasks: (0..trace.num_tasks())
                .map(|_| TaskState::default())
                .collect(),
            unfinished: trace.num_tasks(),
            routes: Vec::new(),
            nbr_buf: Vec::new(),
            latencies: Vec::new(),
            local_delivered: 0,
            bytes_delivered: 0,
            hop_sum: 0,
            bytes_hops: 0,
        }
    }

    fn dispatch(&mut self, time: u64, kind: EventKind) {
        match kind {
            EventKind::Resume { task } => self.advance(task as TaskId, time),
            EventKind::Hop { msg } => self.handle_hop(msg, time),
            EventKind::Eject { msg } => self.handle_eject(msg, time),
            EventKind::Deliver { msg } => self.handle_deliver(msg, time),
        }
    }

    /// Schedule every task's start at t = 0.
    fn start_tasks(&mut self) {
        for task in 0..self.trace.num_tasks() as u32 {
            self.events.push(0, EventKind::Resume { task });
        }
    }

    /// Run to the end, or to `horizon` (see the module docs).
    fn run_report(mut self, horizon: Option<u64>) -> Option<SimReport> {
        let events_span = obs::span("netsim.events");
        self.start_tasks();
        let mut events_processed = 0u64;
        let mut cut = false;
        while let Some((time, kind)) = self.events.pop() {
            if horizon.is_some_and(|h| time >= h) && self.unfinished > 0 {
                cut = true;
                break;
            }
            events_processed += 1;
            self.dispatch(time, kind);
        }
        drop(events_span);
        obs::counter_add("netsim.events", events_processed);
        if cut {
            return None;
        }
        let _agg_span = obs::span("netsim.aggregate");

        // Deadlock / starvation check: every task must have finished.
        let stuck: Vec<usize> = self
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, s)| s.finished_at.is_none())
            .map(|(t, _)| t)
            .collect();
        assert!(
            stuck.is_empty(),
            "simulation ended with unfinished tasks {stuck:?} (unmatched Recv?)"
        );

        let completion_ns = self
            .tasks
            .iter()
            .map(|s| s.finished_at.unwrap())
            .max()
            .unwrap_or(0);
        if horizon.is_some_and(|h| completion_ns >= h) {
            return None;
        }

        let delivered = self.latencies.len() as u64;
        if obs::enabled() {
            obs::counter_add("netsim.messages.network", delivered);
            obs::counter_add("netsim.messages.local", self.local_delivered);
            obs::counter_add("netsim.bytes_delivered", self.bytes_delivered);
            obs::counter_add("netsim.bytes_hops", self.bytes_hops);
            obs::counter_add("netsim.queue_events", self.acct.queue_events());
            obs::counter_add("netsim.queue_wait_ns", self.acct.queue_wait_ns());
            // Contention heatmap: one observation per directed link, in
            // `RoutedTopology::links()` order.
            obs::series_extend(
                "netsim.link_bytes",
                self.acct.bytes_slice().iter().map(|&b| b as f64),
            );
            obs::series_extend(
                "netsim.link_busy_ns",
                self.acct.busy_slice().iter().map(|&b| b as f64),
            );
        }
        self.latencies.sort_unstable();
        let pct = |q: f64| -> u64 {
            if self.latencies.is_empty() {
                0
            } else {
                let idx = ((self.latencies.len() - 1) as f64 * q).round() as usize;
                self.latencies[idx]
            }
        };
        let stats = SimStats {
            completion_ns,
            network_messages: delivered,
            local_messages: self.local_delivered,
            bytes_delivered: self.bytes_delivered,
            avg_latency_ns: if delivered > 0 {
                self.latencies.iter().sum::<u64>() as f64 / delivered as f64
            } else {
                0.0
            },
            p50_latency_ns: pct(0.50),
            p95_latency_ns: pct(0.95),
            p99_latency_ns: pct(0.99),
            max_latency_ns: self.latencies.last().copied().unwrap_or(0),
            avg_hops: if delivered > 0 {
                self.hop_sum as f64 / delivered as f64
            } else {
                0.0
            },
            max_link_utilization: self.acct.max_utilization(completion_ns),
            avg_link_utilization: self.acct.avg_utilization(completion_ns),
            used_links: self.acct.used_links(),
            total_links: self.links.num_links(),
        };
        Some(SimReport {
            stats,
            links: self.links.into_links(),
            acct: self.acct,
        })
    }

    /// Run task `task`'s program from its current pc, starting at `now`,
    /// until it blocks (compute or recv) or finishes.
    fn advance(&mut self, task: TaskId, now: u64) {
        let mut now = now;
        loop {
            let Some(&op) = self.trace.programs[task].get(self.tasks[task].pc) else {
                if self.tasks[task].finished_at.is_none() {
                    self.tasks[task].finished_at = Some(now);
                    self.unfinished -= 1;
                }
                return;
            };
            match op {
                TraceOp::Compute { ns } => {
                    self.tasks[task].pc += 1;
                    let task = task as u32; // Engine::new checked the count
                    self.events.push(now + ns, EventKind::Resume { task });
                    return;
                }
                TraceOp::Send { to, bytes } => {
                    self.tasks[task].pc += 1;
                    now += self.cfg.send_overhead_ns;
                    self.inject(task, to, bytes, now);
                }
                TraceOp::Recv { from } => {
                    let avail = self.tasks[task].avail_from(from);
                    if *avail > 0 {
                        *avail -= 1;
                        self.tasks[task].pc += 1;
                    } else {
                        self.tasks[task].blocked_on = Some(from);
                        return;
                    }
                }
            }
        }
    }

    /// Put a message on the wire (or the local loopback) at `time`.
    fn inject(&mut self, src: TaskId, dst: TaskId, bytes: u64, time: u64) {
        let (ps, pd) = (self.mapping.proc_of(src), self.mapping.proc_of(dst));
        let route = if ps != pd && self.cfg.routing == RoutingMode::Deterministic {
            self.route_start(src, dst, ps, pd)
        } else {
            0
        };
        let msg = Msg {
            src,
            dst,
            bytes,
            inject_ns: time,
            dst_proc: pd,
            cur: ps,
            route,
            prev_link: None,
            hops: 0,
            tail_ready: 0,
        };
        let id = match self.free_msgs.pop() {
            Some(id) => {
                self.msgs[id as usize] = msg;
                id
            }
            None => {
                let id = u32::try_from(self.msgs.len()).expect("more than u32::MAX in flight");
                self.msgs.push(msg);
                id
            }
        };
        if ps == pd {
            self.events.push(
                time + self.cfg.local_latency_ns,
                EventKind::Deliver { msg: id },
            );
        } else {
            let start = match self.cfg.nic {
                NicModel::SharedChannel => {
                    // The sending NIC streams outgoing messages into the
                    // network one at a time at link bandwidth.
                    let ser = self.cfg.serialization_ns(bytes);
                    let s = time.max(self.inject_free[ps]);
                    self.inject_free[ps] = s + ser;
                    s
                }
                // Per-port injection: the first link's FIFO serializes.
                NicModel::PerLink => time,
            };
            self.events.push(start, EventKind::Hop { msg: id });
        }
    }

    /// Where the deterministic route from task `src` (on `ps`) to task
    /// `dst` (on `pd`) starts in `routes`, walking it on first use.
    fn route_start(&mut self, src: TaskId, dst: TaskId, ps: NodeId, pd: NodeId) -> u32 {
        let known = &mut self.tasks[src].routes;
        let i = match known.binary_search_by_key(&dst, |&(d, _)| d) {
            Ok(i) => return known[i].1,
            Err(i) => i,
        };
        let start = self.routes.len();
        let mut cur = ps;
        while cur != pd {
            let next = self.topo.next_hop(cur, pd);
            let li = self.link_id(cur, next) as u32; // LinkIndex: < u32::MAX links
            self.routes.push(li);
            cur = next;
        }
        // A message's offset runs up to its route's end.
        assert!(
            u32::try_from(self.routes.len()).is_ok(),
            "more than u32::MAX cached route links"
        );
        let start = start as u32;
        self.tasks[src].routes.insert(i, (dst, start));
        start
    }

    /// The outgoing link of `msg` at its current node under adaptive
    /// routing: among productive links, the one that frees earliest (ties
    /// → lowest neighbor id), a proxy for adaptive output-queue selection
    /// in real routers.
    fn choose_next(&mut self, msg: u32) -> usize {
        let m = &self.msgs[msg as usize];
        let (cur, dst) = (m.cur, m.dst_proc);
        let mut nbrs = std::mem::take(&mut self.nbr_buf);
        self.topo.productive_neighbors_into(cur, dst, &mut nbrs);
        let next = nbrs
            .iter()
            .map(|&v| self.link_id(cur, v))
            .min_by_key(|&li| (self.link_free[li], self.links.head(li)))
            .expect("at least one productive neighbor");
        self.nbr_buf = nbrs;
        next
    }

    /// Id of the link `from → to`, which routing just chose.
    #[inline]
    fn link_id(&self, from: NodeId, to: NodeId) -> usize {
        self.links
            .id(from, to)
            .expect("routing steps along a link of the topology")
    }

    /// Serialization time of `bytes` on a specific (possibly degraded)
    /// link.
    #[inline]
    fn link_ser(&self, li: usize, bytes: u64) -> u64 {
        let speed = self.link_speed[li];
        if speed == 1.0 {
            self.cfg.serialization_ns(bytes)
        } else {
            ((bytes as f64) * 1e9 / (self.cfg.link_bandwidth * speed)).ceil() as u64
        }
    }

    /// The head of `msg` is at a node: reserve the next link FIFO, then
    /// forward the head (cut-through) toward the destination.
    fn handle_hop(&mut self, msg: u32, now: u64) {
        let li = match self.cfg.routing {
            RoutingMode::Deterministic => {
                let m = &mut self.msgs[msg as usize];
                m.route += 1;
                self.routes[m.route as usize - 1] as usize
            }
            RoutingMode::MinimalAdaptive => self.choose_next(msg),
        };
        let next = self.links.head(li);
        let m = &self.msgs[msg as usize];
        let prev = m.prev_link;
        let ser = self.link_ser(li, m.bytes);
        let start = now.max(self.link_free[li]);
        self.link_free[li] = start + ser;
        self.acct.on_transfer(li, ser, m.bytes, start - now);
        // Wormhole backpressure: while this message waited for (and now
        // streams over) the current link, its body kept the upstream link
        // occupied — the tail leaves that link only at `start + ser`.
        if self.cfg.switching == Switching::Wormhole {
            if let Some(pl) = prev {
                let pl = pl as usize;
                let extended = start + ser;
                if extended > self.link_free[pl] {
                    self.acct.extend_busy(pl, extended - self.link_free[pl]);
                    self.link_free[pl] = extended;
                }
            }
        }
        let head_out = start + self.cfg.hop_latency_ns;
        let m = &mut self.msgs[msg as usize];
        m.cur = next;
        m.prev_link = Some(li as u32);
        m.hops += 1;
        m.tail_ready = m.tail_ready.max(start + ser);
        if next == m.dst_proc {
            self.events.push(head_out, EventKind::Eject { msg });
        } else {
            self.events.push(head_out, EventKind::Hop { msg });
        }
    }

    /// The head reaches the destination's reception channel: messages
    /// converging on one node from several links drain serially
    /// (SharedChannel) or per final link (PerLink).
    fn handle_eject(&mut self, msg: u32, now: u64) {
        let m = &self.msgs[msg as usize];
        let pd = m.dst_proc;
        let last_link = m.prev_link;
        let ser = self.cfg.serialization_ns(m.bytes);
        let start = match self.cfg.nic {
            NicModel::SharedChannel => {
                let s = now.max(self.eject_free[pd]);
                self.eject_free[pd] = s + ser;
                s
            }
            // Per-port ejection: the final link already serialized the
            // body; delivery completes one serialization after the head.
            NicModel::PerLink => now,
        };
        // Backpressure into the final link while waiting for the NIC.
        if self.cfg.switching == Switching::Wormhole {
            if let Some(ll) = last_link {
                let ll = ll as usize;
                let extended = start + ser;
                if extended > self.link_free[ll] {
                    self.acct.extend_busy(ll, extended - self.link_free[ll]);
                    self.link_free[ll] = extended;
                }
            }
        }
        // Delivery completes when the NIC has drained the message AND the
        // slowest link on the route has pushed the last byte through.
        let tail_ready = self.msgs[msg as usize].tail_ready;
        self.events
            .push((start + ser).max(tail_ready), EventKind::Deliver { msg });
    }

    fn handle_deliver(&mut self, msg: u32, now: u64) {
        let (src, dst, bytes, inject_ns, hops) = {
            let m = &self.msgs[msg as usize];
            (m.src, m.dst, m.bytes, m.inject_ns, m.hops)
        };
        self.free_msgs.push(msg);
        if hops > 0 {
            self.latencies.push(now - inject_ns);
            self.hop_sum += hops as u64;
            self.bytes_hops += bytes * hops as u64;
        } else {
            self.local_delivered += 1;
        }
        self.bytes_delivered += bytes;

        let st = &mut self.tasks[dst];
        *st.avail_from(src) += 1;
        if st.blocked_on == Some(src) {
            st.blocked_on = None;
            self.advance(dst, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{pingpong_trace, stencil_trace};
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use topomap_core::{Mapper, Mapping, RandomMap, TopoLb};
    use topomap_taskgraph::gen;
    use topomap_topology::Torus;

    /// An event that carries `id` and, through its variant, `id % 4`.
    fn event(id: u32) -> EventKind {
        match id % 4 {
            0 => EventKind::Resume { task: id },
            1 => EventKind::Hop { msg: id },
            2 => EventKind::Eject { msg: id },
            _ => EventKind::Deliver { msg: id },
        }
    }

    /// Delays built to hurt a radix heap: equal times, neighbours, the
    /// engine's own latencies, and jumps across many buckets.
    const DELAYS: [u64; 7] = [0, 1, 100, 1_000, 40_960, 1 << 20, 1 << 40];

    /// Drive an [`EventQueue`] and the structure it replaced — a binary
    /// heap keyed `(time, push counter)` — through the same schedule and
    /// demand the same pops. `ops` are `(what, delay index, count)`:
    /// mostly "push `count` events at the latest popped time + delay"
    /// (so delay 0 lands in bucket 0 while it is being read), else "pop
    /// `count`" or "drain to empty". The first pushes happen at `start`.
    fn same_pops_as_binary_heap(
        start: u64,
        ops: &[(u32, usize, usize)],
    ) -> Result<(), TestCaseError> {
        let mut queue = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut pushed = 0u64;
        let mut now = start;
        let pop_both = |queue: &mut EventQueue,
                        heap: &mut BinaryHeap<Reverse<(u64, u64, u32)>>,
                        now: &mut u64|
         -> Result<bool, TestCaseError> {
            let want = heap.pop().map(|Reverse((time, _, id))| (time, event(id)));
            prop_assert_eq!(queue.pop(), want);
            if let Some((time, _)) = want {
                *now = time;
            }
            Ok(want.is_some())
        };
        for &(what, delay, count) in ops {
            match what {
                0..=4 => {
                    let time = now.saturating_add(DELAYS[delay]);
                    for _ in 0..count {
                        let id = pushed as u32;
                        queue.push(time, event(id));
                        heap.push(Reverse((time, pushed, id)));
                        pushed += 1;
                    }
                }
                5..=6 => {
                    for _ in 0..count {
                        pop_both(&mut queue, &mut heap, &mut now)?;
                    }
                }
                _ => while pop_both(&mut queue, &mut heap, &mut now)? {},
            }
        }
        while pop_both(&mut queue, &mut heap, &mut now)? {}
        prop_assert_eq!(queue.pop(), None);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn queue_pops_like_a_binary_heap_on_time_then_push_order(
            ops in proptest::collection::vec((0u32..8, 0usize..DELAYS.len(), 1usize..40), 1..300),
            start_high in any::<bool>(),
        ) {
            // From 0, and from just below u64::MAX so that the first push
            // lands in bucket 64 and later ones differ in high bits.
            let start = if start_high { u64::MAX - (1 << 50) } else { 0 };
            same_pops_as_binary_heap(start, &ops)?;
        }
    }

    #[test]
    fn queue_handles_equal_times_the_top_bucket_and_refill_after_empty() {
        let far = u64::MAX - 5;
        let mut q = EventQueue::new();
        assert_eq!(q.pop(), None);
        q.push(far, event(0));
        q.push(3, event(1));
        q.push(far, event(2));
        q.push(3, event(3));
        assert_eq!(q.buckets[64].len(), 2, "bit 63 differs from last = 0");
        assert_eq!(q.pop(), Some((3, event(1))));
        // Scheduled at the time being handled: behind what is queued there.
        q.push(3, event(4));
        assert_eq!(q.pop(), Some((3, event(3))));
        assert_eq!(q.pop(), Some((3, event(4))));
        // ... also when bucket 0 has just been read to its end.
        q.push(3, event(5));
        assert_eq!(q.pop(), Some((3, event(5))));
        assert_eq!(q.pop(), Some((far, event(0))));
        q.push(u64::MAX, event(6));
        q.push(far, event(7));
        assert_eq!(q.pop(), Some((far, event(2))));
        assert_eq!(q.pop(), Some((far, event(7))));
        assert_eq!(q.pop(), Some((u64::MAX, event(6))));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
        q.push(u64::MAX, event(8));
        assert_eq!(q.pop(), Some((u64::MAX, event(8))));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queued_event_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<(u64, EventKind)>(), 16);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn queue_rejects_an_event_before_the_latest_pop() {
        let mut q = EventQueue::new();
        q.push(10, event(0));
        q.pop();
        q.push(9, event(1));
    }

    /// A run that exercises every scheduling site: backpressure
    /// extensions (wormhole), NIC queues (shared channel) and per-link
    /// serialization times (degraded links).
    fn hard_run() -> (Torus, NetworkConfig, Trace, Mapping) {
        let tasks = gen::stencil2d(4, 4, 65_536.0, true);
        let topo = Torus::torus_3d(4, 2, 2);
        let mut hard = cfg().with_bandwidth(100e6);
        hard.switching = Switching::Wormhole;
        hard.nic = NicModel::SharedChannel;
        hard.link_speed_factors = topo
            .links()
            .iter()
            .step_by(3)
            .map(|l| (l.from, l.to, 0.3))
            .collect();
        let m = RandomMap::new(5).map(&tasks, &topo);
        (topo, hard, stencil_trace(&tasks, 6, 500), m)
    }

    fn run_to_end(e: &mut Engine) {
        e.start_tasks();
        while let Some((time, kind)) = e.events.pop() {
            e.dispatch(time, kind);
        }
    }

    #[test]
    fn engine_never_schedules_before_the_event_it_handles() {
        // What `EventQueue::push`'s assert guards, checked from outside:
        // after each handler, nothing queued is earlier than its event.
        let (topo, hard, tr, m) = hard_run();
        let mut e = Engine::new(&topo, &hard, &tr, &m);
        e.start_tasks();
        let mut handled = 0;
        while let Some((time, kind)) = e.events.pop() {
            e.dispatch(time, kind);
            let q = &e.events;
            let earliest = q.buckets[0][q.cursor..]
                .iter()
                .chain(q.buckets[1..].iter().flatten())
                .map(|&(t, _)| t)
                .min();
            assert!(earliest.is_none_or(|t| t >= time), "{kind:?} at {time}");
            handled += 1;
        }
        assert!(handled > 1_000, "only {handled} events");
        assert!(e.tasks.iter().all(|t| t.finished_at.is_some()));
    }

    #[test]
    fn message_slots_are_reused() {
        // 50 round trips, one message in flight at a time: one slot, and
        // each direction's three-link route walked once.
        let topo = Torus::mesh_1d(4);
        let tr = pingpong_trace(2, 0, 1, 50, 1000);
        let m = Mapping::new(vec![0, 3], 4);
        let c = cfg();
        let mut e = Engine::new(&topo, &c, &tr, &m);
        run_to_end(&mut e);
        assert_eq!(e.latencies.len(), 100);
        assert_eq!(e.msgs.len(), 1);
        assert_eq!(e.routes.len(), 2 * 3);
        // A contended stencil holds far fewer slots than it sends messages.
        let (topo, hard, tr, m) = hard_run();
        let mut e = Engine::new(&topo, &hard, &tr, &m);
        run_to_end(&mut e);
        assert_eq!(e.latencies.len(), tr.num_messages());
        assert!(e.msgs.len() <= 2 * 64, "{} slots", e.msgs.len());
    }

    fn cfg() -> NetworkConfig {
        NetworkConfig {
            link_bandwidth: 1e9, // 1 B/ns
            hop_latency_ns: 100,
            send_overhead_ns: 1000,
            local_latency_ns: 500,
            switching: Switching::CutThrough,
            nic: NicModel::SharedChannel,
            routing: RoutingMode::Deterministic,
            link_speed_factors: Vec::new(),
        }
    }

    #[test]
    fn pingpong_latency_matches_model() {
        // Two tasks on adjacent processors of a 1D mesh, one round trip.
        let topo = Torus::mesh_1d(2);
        let tr = pingpong_trace(2, 0, 1, 1, 1000);
        let m = Mapping::new(vec![0, 1], 2);
        let s = Simulation::run(&topo, &cfg(), &tr, &m);
        // One-way latency: 1 hop => hop_latency + serialization = 100 + 1000.
        assert_eq!(s.network_messages, 2);
        assert_eq!(s.avg_latency_ns, 1100.0);
        assert_eq!(s.avg_hops, 1.0);
        assert_eq!(s.p50_latency_ns, 1100);
        assert_eq!(s.p99_latency_ns, 1100);
        // Completion: overhead + latency, twice.
        assert_eq!(s.completion_ns, 4200);
    }

    #[test]
    fn multihop_latency_adds_hops() {
        // Tasks at the two ends of a 4-node 1D mesh: 3 hops.
        let topo = Torus::mesh_1d(4);
        let tr = pingpong_trace(2, 0, 1, 1, 1000);
        let m = Mapping::new(vec![0, 3], 4);
        let s = Simulation::run(&topo, &cfg(), &tr, &m);
        // Uncontended cut-through: 3 * hop_latency + serialization.
        assert_eq!(s.avg_latency_ns, (3 * 100 + 1000) as f64);
        assert_eq!(s.avg_hops, 3.0);
    }

    #[test]
    fn compute_only_trace_uses_no_network() {
        let topo = Torus::mesh_1d(2);
        let m = Mapping::new(vec![0], 2);
        let tr1 = Trace {
            programs: vec![vec![TraceOp::Compute { ns: 777 }]],
        };
        let s = Simulation::run(&topo, &cfg(), &tr1, &m);
        assert_eq!(s.network_messages, 0);
        assert_eq!(s.completion_ns, 777);
    }

    #[test]
    fn contention_serializes_shared_link() {
        // Three senders at one end of a 1D mesh all send to the far node
        // through the same final link: deliveries must serialize.
        let topo = Torus::mesh_1d(4);
        let tr = Trace {
            programs: vec![
                vec![TraceOp::Send {
                    to: 3,
                    bytes: 10_000,
                }],
                vec![TraceOp::Send {
                    to: 3,
                    bytes: 10_000,
                }],
                vec![TraceOp::Send {
                    to: 3,
                    bytes: 10_000,
                }],
                vec![
                    TraceOp::Recv { from: 0 },
                    TraceOp::Recv { from: 1 },
                    TraceOp::Recv { from: 2 },
                ],
            ],
        };
        let m = Mapping::new(vec![0, 1, 2, 3], 4);
        let s = Simulation::run(&topo, &cfg(), &tr, &m);
        // Link 2->3 carries 30_000 bytes at 1 B/ns.
        assert!(s.completion_ns >= 30_000, "completion {}", s.completion_ns);
        assert_eq!(s.network_messages, 3);
        assert!(s.max_latency_ns > 20_000);
        assert!(s.p99_latency_ns >= s.p50_latency_ns);
    }

    #[test]
    fn stencil_runs_to_completion_and_is_deterministic() {
        let tasks = gen::stencil2d(4, 4, 4096.0, false);
        let topo = Torus::torus_2d(4, 4);
        let tr = stencil_trace(&tasks, 10, 2_000);
        let m = TopoLb::default().map(&tasks, &topo);
        let s1 = Simulation::run(&topo, &cfg(), &tr, &m);
        let s2 = Simulation::run(&topo, &cfg(), &tr, &m);
        assert_eq!(s1.completion_ns, s2.completion_ns);
        assert_eq!(s1.network_messages, s2.network_messages);
        assert_eq!(s1.network_messages + s1.local_messages, 2 * 24 * 10);
    }

    #[test]
    fn good_mapping_beats_random_under_tight_bandwidth() {
        let tasks = gen::stencil2d(4, 4, 100_000.0, false);
        let topo = Torus::torus_3d(4, 2, 2);
        let tr = stencil_trace(&tasks, 20, 1_000);
        let tight = cfg().with_bandwidth(100e6); // 100 MB/s
        let good = Simulation::run(&topo, &tight, &tr, &TopoLb::default().map(&tasks, &topo));
        let bad = Simulation::run(&topo, &tight, &tr, &RandomMap::new(9).map(&tasks, &topo));
        assert!(
            good.completion_ns < bad.completion_ns,
            "TopoLB {} should beat random {}",
            good.completion_ns,
            bad.completion_ns
        );
        assert!(good.avg_latency_ns < bad.avg_latency_ns);
    }

    #[test]
    fn avg_hops_matches_metric_hops() {
        // With a uniform stencil every message is the same size, so the
        // simulator's average hops equals the mapping's hops-per-byte.
        let tasks = gen::stencil2d(4, 4, 8192.0, true);
        let topo = Torus::torus_2d(4, 4);
        let m = RandomMap::new(4).map(&tasks, &topo);
        let tr = stencil_trace(&tasks, 3, 100);
        let s = Simulation::run(&topo, &cfg(), &tr, &m);
        let hpb = topomap_core::metrics::hops_per_byte(&tasks, &topo, &m);
        assert!(
            (s.avg_hops - hpb).abs() < 1e-9,
            "sim hops {} vs metric {hpb}",
            s.avg_hops
        );
    }

    #[test]
    #[should_panic(expected = "unfinished tasks")]
    fn deadlocked_trace_panics() {
        let topo = Torus::mesh_1d(2);
        let tr = Trace {
            programs: vec![vec![TraceOp::Recv { from: 1 }], vec![]],
        };
        let m = Mapping::new(vec![0, 1], 2);
        Simulation::run(&topo, &cfg(), &tr, &m);
    }

    /// `contention_oracle` with `beat` as its horizon against the full
    /// run: `None` exactly when the makespan is at least the horizon, the
    /// full run's observation bit for bit otherwise.
    fn horizon_is_exact(
        topo: &Torus,
        cfg: &NetworkConfig,
        tr: &Trace,
        m: &Mapping,
    ) -> Result<(), TestCaseError> {
        let full = Simulation::run_with_links(topo, cfg, tr, m);
        let makespan = full.stats.completion_ns;
        let want = SimObservation {
            makespan_ns: makespan,
            link_busy_ns: full.acct.busy_slice().to_vec(),
            link_bytes: full.acct.bytes_slice().to_vec(),
            queue_wait_ns: full.acct.queue_wait_ns(),
        };
        let mut oracle = contention_oracle(topo, cfg, tr);
        for horizon in [0, makespan / 2, makespan, makespan + 1, u64::MAX] {
            let got = oracle(m, horizon);
            if makespan >= horizon {
                prop_assert_eq!(got, None, "horizon {} makespan {}", horizon, makespan);
            } else {
                prop_assert_eq!(got.as_ref(), Some(&want), "horizon {}", horizon);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn horizon_cuts_exactly_the_runs_whose_makespan_reaches_it(
            seed in 0u64..1_000,
            pingpong in any::<bool>(),
            adaptive in any::<bool>(),
            wormhole in any::<bool>(),
            per_link_nic in any::<bool>(),
            kib in 1u64..64,
        ) {
            let topo = Torus::torus_2d(4, 4);
            let tasks = gen::stencil2d(4, 4, (kib * 1024) as f64, seed % 2 == 0);
            let tr = if pingpong {
                let a = (seed % 16) as usize;
                let b = (a + 1 + (seed / 16 % 15) as usize) % 16;
                pingpong_trace(16, a, b, 1 + (seed % 3) as usize, kib * 1024)
            } else {
                stencil_trace(&tasks, 1 + (seed % 4) as usize, 200)
            };
            let mut c = cfg().with_bandwidth(100e6);
            if adaptive {
                c.routing = RoutingMode::MinimalAdaptive;
            }
            if wormhole {
                c.switching = Switching::Wormhole;
            }
            if per_link_nic {
                c.nic = NicModel::PerLink;
            }
            let m = RandomMap::new(seed).map(&tasks, &topo);
            horizon_is_exact(&topo, &c, &tr, &m)?;
        }
    }

    #[test]
    fn horizon_is_exact_under_backpressure_nic_queues_and_degraded_links() {
        let (topo, hard, tr, m) = hard_run();
        horizon_is_exact(&topo, &hard, &tr, &m).unwrap();
    }

    #[test]
    fn horizon_does_not_cut_a_run_whose_tasks_have_all_finished() {
        // Task 0 sends 1 MB that task 1 never receives: both tasks finish
        // by the send overhead, long before the message's last events.
        let topo = Torus::mesh_1d(4);
        let tr = Trace {
            programs: vec![
                vec![TraceOp::Send {
                    to: 1,
                    bytes: 1_000_000,
                }],
                vec![],
            ],
        };
        let m = Mapping::new(vec![0, 3], 4);
        let c = cfg();
        let run = |horizon| obs::record(|| contention_oracle(&topo, &c, &tr)(&m, horizon));
        let (full, full_report) = run(u64::MAX);
        assert_eq!(full.as_ref().map(|o| o.makespan_ns), Some(1_000));
        let (bounded, report) = run(2_000);
        assert_eq!(bounded, full);
        // Every event ran, the delivery a millisecond past the horizon too.
        assert_eq!(
            report.counter("netsim.events"),
            full_report.counter("netsim.events")
        );
        horizon_is_exact(&topo, &c, &tr, &m).unwrap();
    }

    #[test]
    fn cut_run_counts_its_events_and_records_nothing_else() {
        let tasks = gen::stencil2d(4, 4, 8192.0, true);
        let topo = Torus::torus_2d(4, 4);
        let m = RandomMap::new(4).map(&tasks, &topo);
        let tr = stencil_trace(&tasks, 3, 100);
        let c = cfg();
        let (full, full_report) = obs::record(|| Simulation::run(&topo, &c, &tr, &m));
        let (cut, report) =
            obs::record(|| contention_oracle(&topo, &c, &tr)(&m, full.completion_ns / 2));
        assert_eq!(cut, None);
        let events = report.counter("netsim.events").unwrap();
        assert!(0 < events && Some(events) < full_report.counter("netsim.events"));
        assert_eq!(report.counter("netsim.messages.network"), None);
        assert!(report.series("netsim.link_bytes").is_none());
        assert!(full_report.series("netsim.link_bytes").is_some());
    }

    #[test]
    fn utilization_bounds() {
        let tasks = gen::stencil2d(4, 4, 50_000.0, true);
        let topo = Torus::torus_2d(4, 4);
        let tr = stencil_trace(&tasks, 10, 100);
        let m = RandomMap::new(2).map(&tasks, &topo);
        let s = Simulation::run(&topo, &cfg().with_bandwidth(200e6), &tr, &m);
        assert!(s.max_link_utilization <= 1.0 + 1e-9);
        assert!(s.avg_link_utilization <= s.max_link_utilization);
        assert!(s.used_links <= s.total_links);
        assert!(s.used_links > 0);
    }

    #[test]
    fn adaptive_routing_still_minimal() {
        // Adaptive routes must use exactly distance(src, dst) hops.
        let topo = Torus::torus_2d(4, 4);
        let tasks = gen::stencil2d(4, 4, 4096.0, true);
        let m = RandomMap::new(8).map(&tasks, &topo);
        let tr = stencil_trace(&tasks, 2, 100);
        let mut acfg = cfg();
        acfg.routing = RoutingMode::MinimalAdaptive;
        let s = Simulation::run(&topo, &acfg, &tr, &m);
        let hpb = topomap_core::metrics::hops_per_byte(&tasks, &topo, &m);
        assert!(
            (s.avg_hops - hpb).abs() < 1e-9,
            "adaptive must stay minimal: {} vs {hpb}",
            s.avg_hops
        );
    }

    #[test]
    fn adaptive_routing_relieves_contention() {
        // Many sources funnel to one destination region under random
        // mapping on a torus: spreading over productive links must not be
        // slower than deterministic DOR, and typically helps.
        let tasks = gen::stencil2d(4, 4, 65_536.0, true);
        let topo = Torus::torus_2d(4, 4);
        let m = RandomMap::new(6).map(&tasks, &topo);
        let tr = stencil_trace(&tasks, 10, 500);
        let mut det = cfg().with_bandwidth(100e6);
        det.nic = NicModel::PerLink;
        let mut ada = det.clone();
        ada.routing = RoutingMode::MinimalAdaptive;
        let s_det = Simulation::run(&topo, &det, &tr, &m);
        let s_ada = Simulation::run(&topo, &ada, &tr, &m);
        assert!(
            (s_ada.completion_ns as f64) < 1.15 * s_det.completion_ns as f64,
            "adaptive {} should not lose badly to deterministic {}",
            s_ada.completion_ns,
            s_det.completion_ns
        );
    }

    #[test]
    fn adaptive_is_deterministic_too() {
        let tasks = gen::stencil2d(4, 4, 4096.0, false);
        let topo = Torus::torus_3d(4, 2, 2);
        let m = RandomMap::new(3).map(&tasks, &topo);
        let tr = stencil_trace(&tasks, 5, 100);
        let mut acfg = cfg();
        acfg.routing = RoutingMode::MinimalAdaptive;
        let s1 = Simulation::run(&topo, &acfg, &tr, &m);
        let s2 = Simulation::run(&topo, &acfg, &tr, &m);
        assert_eq!(s1, s2);
    }

    #[test]
    fn degraded_link_slows_serialization() {
        // A 2-node mesh whose single forward link runs at 10% speed.
        let topo = Torus::mesh_1d(2);
        let tr = pingpong_trace(2, 0, 1, 1, 1000);
        let m = Mapping::new(vec![0, 1], 2);
        let mut slow = cfg();
        slow.link_speed_factors = vec![(0, 1, 0.1)];
        let s = Simulation::run(&topo, &slow, &tr, &m);
        // Forward message: the 10_000ns slow-link serialization dominates
        // (hop latency and NIC drain pipeline behind it). Return message
        // unaffected: 100 (hop) + 1000 (ser). Mean = 5550.
        assert_eq!(s.avg_latency_ns, (10_000 + 1_100) as f64 / 2.0);
    }

    #[test]
    #[should_panic(expected = "nonexistent link")]
    fn speed_factor_for_missing_link_rejected() {
        let topo = Torus::mesh_1d(2);
        let tr = pingpong_trace(2, 0, 1, 1, 10);
        let m = Mapping::new(vec![0, 1], 2);
        let mut bad = cfg();
        bad.link_speed_factors = vec![(0, 5, 0.5)];
        Simulation::run(&topo, &bad, &tr, &m);
    }

    #[test]
    fn adaptive_routing_avoids_degraded_link() {
        // A 4-ring: 0 -> 2 has two equal-length routes (via 1 or via 3).
        // Degrade 0->1 badly: deterministic DOR is pinned to one side and
        // may pay 20x serialization; adaptive routing sends at most one
        // message over the slow link (the second sees it busy).
        let topo = Torus::torus_1d(4);
        let tr = Trace {
            programs: vec![
                vec![
                    TraceOp::Send {
                        to: 1,
                        bytes: 100_000,
                    },
                    TraceOp::Send {
                        to: 1,
                        bytes: 100_000,
                    },
                ],
                vec![TraceOp::Recv { from: 0 }, TraceOp::Recv { from: 0 }],
                vec![],
                vec![],
            ],
        };
        // Task 0 on proc 0, task 1 on proc 2 (the antipode).
        let m = Mapping::new(vec![0, 2, 1, 3], 4);
        let mut det = cfg();
        det.nic = NicModel::PerLink;
        det.link_speed_factors = vec![(0, 1, 0.05)];
        let mut ada = det.clone();
        ada.routing = RoutingMode::MinimalAdaptive;
        let s_det = Simulation::run(&topo, &det, &tr, &m);
        let s_ada = Simulation::run(&topo, &ada, &tr, &m);
        assert!(
            s_ada.completion_ns <= s_det.completion_ns,
            "adaptive {} vs deterministic {}",
            s_ada.completion_ns,
            s_det.completion_ns
        );
    }
}
