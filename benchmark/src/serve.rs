//! The two serve workloads: an in-process server driven closed-loop by
//! two blocking clients.
//!
//! Callers that wait for a mapping before continuing make a closed loop,
//! so each client sends its next request when the previous one returns.
//! `serve_small` sends small jobs, where wire, framing and queue hand-off
//! are nearly all of the latency; `serve_large` sends 400-576-PE jobs to
//! more machines than the oracle cache holds, so decode, graph build and
//! oracle build carry the weight.

use std::path::Path;
use std::time::Instant;

use crate::adapter::{
    decode_request, decode_response, encode_request, encode_response, hier_mapper_from_plan,
    hop_bytes, hops_per_byte, parse_hier_plan, parse_mapper, parse_mapper_with_init, parse_pattern,
    parse_topology, spawn, spawn_ephemeral, Bind, Client, LbDatabase, MapRequest, Mapper,
    OracleCaches, Parallelism, Request, Response, ServeConfig, ServerHandle, ServerStats, Topology,
};
use crate::outcome::{process_cpu_ms, span_layers, trace_overhead_pct, LayerValue, Outcome};
use crate::stats::{geomean, mean, median, percentile, SplitMix64};
use crate::trace::{merge, self_ms_per_id, Recorder, Span};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const QUEUE_CAP: usize = 64;
/// Message size handed to `parse_pattern`, as in `exp_serve`.
const PATTERN_BYTES: f64 = 1024.0;
/// In-process replays of the server's stages in a traced run, at most.
const MAX_REPLAYS: usize = 200;
const TCP_PINGS: usize = 25;
const UNIX_PINGS: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Small,
    Large,
}

impl Kind {
    pub fn of(workload: &str) -> Option<Kind> {
        match workload {
            "serve_small" => Some(Kind::Small),
            "serve_large" => Some(Kind::Large),
            _ => None,
        }
    }

    /// LRU capacity of the server's oracle cache: roomy for the five
    /// machines of `serve_small`, half the sixteen of `serve_large`.
    fn cache_cap(self) -> usize {
        match self {
            Kind::Small => 32,
            Kind::Large => 8,
        }
    }
}

/// One request shape: specs plus the workload `pattern` generates. The id
/// is stamped per send.
fn request(
    topology: &str,
    mapper: &str,
    hierarchy: Option<&str>,
    pattern: &str,
    seed: u64,
) -> MapRequest {
    let graph = parse_pattern(pattern, PATTERN_BYTES, seed).expect("pattern spec parses");
    MapRequest {
        id: 0,
        topology: topology.to_string(),
        mapper: mapper.to_string(),
        init: None,
        fast_lane: None,
        hierarchy: hierarchy.map(str::to_string),
        hier_dist: None,
        seed,
        deadline_ms: Some(60_000),
        database: LbDatabase::from_task_graph(&graph),
    }
}

/// The eight-scenario mix of `exp_serve`: 32-100 PE over five machines.
fn small_scenarios(seed: u64) -> Vec<MapRequest> {
    [
        ("torus:8x8", "topolb", None, "stencil2d:8x8"),
        ("torus:8x8", "refine", None, "pstencil2d:8x8"),
        ("mesh:10x10", "topocentlb", None, "random:100:4"),
        ("hypercube:5", "topolb", None, "all2all:32"),
        ("torus:8x8", "hier", Some("4:4:4"), "butterfly:64"),
        ("fattree:4:3", "topocentlb", None, "transpose:8"),
        ("torus:4x4x4", "topolb-first", None, "stencil3d:4x4x4"),
        ("mesh:10x10", "linear", None, "sweep2d:10x10"),
    ]
    .into_iter()
    .zip(0u64..)
    .map(|((topology, mapper, hierarchy, pattern), i)| {
        request(topology, mapper, hierarchy, pattern, seed.wrapping_add(i))
    })
    .collect()
}

/// Machines of `serve_large`, in popularity order: the fifteen tori
/// `WxH` with `20 <= W <= H <= 24` and `hypercube:9`, interleaved so
/// that popularity does not follow size.
pub fn large_machines() -> Vec<(String, usize)> {
    let mut machines = Vec::new();
    for w in 20..=24usize {
        for h in w..=24 {
            machines.push((format!("torus:{w}x{h}"), w * h));
        }
    }
    machines.push(("hypercube:9".to_string(), 512));
    (0..machines.len())
        .map(|rank| machines[(rank * 7) % machines.len()].clone())
        .collect()
}

/// Communication records per `serve_large` request, about. Decode time
/// grows faster than the payload, so requests of unequal size gave the
/// latency of a run several modes and a median that jumped between them.
const LARGE_EDGES: f64 = 1050.0;

/// Two scenarios per machine, TopoLB then TopoCentLB, with `n = p` tasks:
/// the matching stencil on the tori of 500 PE and more (963-1104 edges),
/// elsewhere a random graph whose degree gives `LARGE_EDGES` edges.
fn large_scenarios(seed: u64) -> Vec<MapRequest> {
    let mut scenarios = Vec::new();
    for ((topology, p), i) in large_machines().into_iter().zip(0u64..) {
        let pattern = match topology.strip_prefix("torus:") {
            Some(dims) if p >= 500 => format!("stencil2d:{dims}"),
            _ => format!("random:{p}:{:.2}", 2.0 * LARGE_EDGES / p as f64),
        };
        for mapper in ["topolb", "topocentlb"] {
            scenarios.push(request(
                &topology,
                mapper,
                None,
                &pattern,
                seed.wrapping_add(i),
            ));
        }
    }
    scenarios
}

/// Seeded request order of one client: a shuffled deck of scenario
/// groups, dealt to the end and reshuffled. A deck fixes how often each
/// group comes up, so runs on different seeds send the same mix in a
/// different order; independent draws made the median latency of a run
/// swing with the luck of the draw.
pub struct Order {
    rng: SplitMix64,
    deck: Vec<usize>,
    next: usize,
    /// Scenarios per group, taken in turn (the two mappers of a machine).
    variants: usize,
    sent: usize,
}

impl Order {
    pub fn new(kind: Kind, seed: u64, client: usize, scenarios: usize) -> Self {
        let (deck, variants) = match kind {
            // Every scenario once.
            Kind::Small => ((0..scenarios).collect(), 1),
            // Zipf(1) over the machines: rank k holds round(m / (k + 1))
            // of the cards.
            Kind::Large => {
                let machines = scenarios / 2;
                let cards = |k: usize| (machines as f64 / (k + 1) as f64).round() as usize;
                let deck = (0..machines)
                    .flat_map(|k| std::iter::repeat_n(k, cards(k)))
                    .collect();
                (deck, 2)
            }
        };
        let mut order = Order {
            rng: SplitMix64::new(seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9)),
            next: 0,
            deck,
            variants,
            sent: 0,
        };
        order.shuffle();
        order
    }

    fn shuffle(&mut self) {
        for i in (1..self.deck.len()).rev() {
            self.deck.swap(i, self.rng.below(i + 1));
        }
        self.next = 0;
    }

    /// Index of the next scenario.
    pub fn next(&mut self) -> usize {
        if self.next == self.deck.len() {
            self.shuffle();
        }
        let group = self.deck[self.next];
        self.next += 1;
        self.sent += 1;
        group * self.variants + self.sent % self.variants
    }
}

/// Ground truth: the request's specs run directly, in-process, serially
/// on the real topology. Returns the mapping and its hops per byte.
fn direct_mapping(req: &MapRequest) -> (Vec<usize>, f64) {
    let par = Parallelism::serial();
    let parsed = parse_topology(&req.topology).expect("topology spec parses");
    let topo = parsed.as_topology();
    let mapper: Box<dyn Mapper> = if req.mapper == "hier" {
        let plan = parse_hier_plan(&req.topology, topo, req.hierarchy.as_deref(), None)
            .expect("hierarchy spec parses");
        Box::new(hier_mapper_from_plan(&plan, par))
    } else {
        parse_mapper(&req.mapper, req.seed, par).expect("mapper spec parses")
    };
    let tasks = req.database.to_task_graph();
    let mapping = mapper.map(&tasks, topo);
    let hpb = hops_per_byte(&tasks, topo, &mapping);
    (mapping.as_slice().to_vec(), hpb)
}

pub struct Prepared {
    kind: Kind,
    seed: u64,
    /// One request per scenario, id 0; cloned and stamped per send.
    templates: Vec<MapRequest>,
    expected: Vec<Vec<usize>>,
    hops_per_byte: f64,
    server: ServerHandle,
    clients: Vec<Client>,
    /// Requests sent, and failures seen, while warming the caches.
    warmup_sent: u64,
    warmup_failures: Vec<String>,
}

/// What one `Client::map` came back with, checked against the direct run.
fn check_response(
    resp: Result<Response, String>,
    id: u64,
    expected: &[usize],
) -> Result<u64, String> {
    match resp {
        Ok(Response::MapOk {
            id: rid,
            proc_of_task,
            elapsed_us,
            ..
        }) => {
            if rid != id {
                Err(format!("request {id}: response carries id {rid}"))
            } else if proc_of_task != expected {
                Err(format!(
                    "request {id}: mapping differs from the direct in-process run"
                ))
            } else {
                Ok(elapsed_us)
            }
        }
        Ok(Response::Busy { .. }) => Err(format!("request {id}: Busy")),
        Ok(other) => Err(format!("request {id}: {other:?}")),
        Err(e) => Err(format!("request {id}: protocol error: {e}")),
    }
}

/// Build requests and expected mappings, spawn the server, connect the
/// clients and warm the caches.
pub fn setup(kind: Kind, seed: u64) -> Prepared {
    let templates = match kind {
        Kind::Small => small_scenarios(seed),
        Kind::Large => large_scenarios(seed),
    };
    let (expected, hpb): (Vec<_>, Vec<_>) = templates.iter().map(direct_mapping).unzip();
    let server = spawn_ephemeral(ServeConfig {
        workers: WORKERS,
        queue_cap: QUEUE_CAP,
        cache_cap: kind.cache_cap(),
        par: Parallelism::fixed(1),
        ..ServeConfig::default()
    })
    .expect("server binds an ephemeral port");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect_tcp(server.addr()).expect("client connects"))
        .collect();

    // Warm-up: every scenario once (small), or one request to each of the
    // machines the cache can hold (large), split between the clients.
    let warm: Vec<usize> = match kind {
        Kind::Small => (0..templates.len()).collect(),
        Kind::Large => (0..kind.cache_cap()).map(|m| 2 * m).collect(),
    };
    let warmup_failures = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (warm, templates, expected) = (&warm, &templates, &expected);
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for (i, &s) in warm.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let id = i as u64 + 1;
                        let req = MapRequest {
                            id,
                            ..templates[s].clone()
                        };
                        let resp = client.map(req).map_err(|e| e.to_string());
                        failures.extend(check_response(resp, id, &expected[s]).err());
                    }
                    failures
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up thread"))
            .collect()
    });

    Prepared {
        kind,
        seed,
        warmup_sent: warm.len() as u64,
        templates,
        expected,
        hops_per_byte: geomean(&hpb),
        server,
        clients,
        warmup_failures,
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientTally {
    /// Round trips in send order; in a traced run the odd ones (first,
    /// third, ...) are recorded.
    rtt_ms: Vec<f64>,
    kernel_ms: Vec<f64>,
    ok: u64,
    busy: u64,
    failures: Vec<String>,
    spans: Vec<Span>,
}

impl Prepared {
    /// Stop the server and drop the connections.
    pub fn teardown(self) -> ServerStats {
        drop(self.clients);
        self.server.join()
    }

    fn closed_loop(
        &self,
        client: &mut Client,
        c: usize,
        seconds: f64,
        traced: bool,
        origin: Instant,
    ) -> ClientTally {
        let mut tally = ClientTally::default();
        let mut order = Order::new(self.kind, self.seed, c, self.templates.len());
        let mut rec = Recorder::new(origin);
        let window = Instant::now();
        let mut i = 0u64;
        // A traced run needs one recorded and one unrecorded request.
        while window.elapsed().as_secs_f64() < seconds || (traced && i < 2) {
            i += 1;
            let s = order.next();
            let id = (c as u64 + 1) * 1_000_000_000 + i;
            rec.set_on(traced && i % 2 == 1);
            rec.enter("serve.client.request", id);
            let req = rec.span("build_request", id, || MapRequest {
                id,
                ..self.templates[s].clone()
            });
            let start = Instant::now();
            let resp = rec.span("serve.client.map", id, || client.map(req));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            rec.exit();
            tally.rtt_ms.push(ms);
            tally.busy += u64::from(matches!(resp, Ok(Response::Busy { .. })));
            match check_response(resp.map_err(|e| e.to_string()), id, &self.expected[s]) {
                Ok(elapsed_us) => {
                    tally.ok += 1;
                    tally.kernel_ms.push(elapsed_us as f64 / 1e3);
                }
                Err(why) => tally.failures.push(why),
            }
        }
        rec.set_on(false);
        tally.spans = rec.into_spans();
        tally
    }

    /// Drive the server for `seconds` (half of it in a traced run, which
    /// spends the rest replaying the server's stages in-process and
    /// pinging), check every response and the server's own totals, and
    /// shut the server down.
    pub fn run(mut self, seconds: f64, traced: bool, origin: Instant, out_dir: &Path) -> Outcome {
        let loop_s = if traced { seconds * 0.5 } else { seconds };
        let before = self.server.stats();
        let cpu_before = process_cpu_ms();
        let window = Instant::now();
        let mut clients = std::mem::take(&mut self.clients);
        let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let this = &self;
                    scope.spawn(move || this.closed_loop(client, c, loop_s, traced, origin))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let window_s = window.elapsed().as_secs_f64();
        let cpu_ms = process_cpu_ms() - cpu_before;
        let after = self.server.stats();
        self.clients = clients;

        let mut out = Outcome {
            window_s,
            cpu_ms,
            hops_per_byte: self.hops_per_byte,
            attempted: self.warmup_sent,
            failed: self.warmup_failures.len() as u64,
            failures: self.warmup_failures.clone(),
            ..Outcome::default()
        };
        // Round trips of a traced window, recorded and unrecorded in turn.
        let mut alternating = Vec::new();
        let mut kernel_ms = Vec::new();
        let mut busy = 0;
        let mut span_lists = Vec::new();
        for t in tallies {
            out.attempted += t.rtt_ms.len() as u64;
            out.failed += t.failures.len() as u64;
            out.ops_ok += t.ok;
            // Whole pairs only, so that the clients' lists splice in turn.
            alternating.extend(&t.rtt_ms[..t.rtt_ms.len() & !1]);
            out.op_ms.extend(t.rtt_ms);
            out.failures.extend(t.failures);
            kernel_ms.extend(t.kernel_ms);
            busy += t.busy;
            span_lists.push(t.spans);
        }
        let sent = out.op_ms.len() as u64;

        let mut layers = Vec::new();
        if traced {
            let mut rec = Recorder::new(origin);
            rec.set_on(true);
            let replay = self.replay(seconds * 0.3, &mut rec, &mut out);
            span_lists.push(rec.into_spans());
            out.spans = merge(span_lists);
            layers = self.layers(&out, &replay, out_dir);
            let lookups = (after.oracle_hits + after.oracle_misses)
                - (before.oracle_hits + before.oracle_misses);
            layers.extend([
                LayerValue::new(
                    "serve.oracle.hit_rate",
                    (after.oracle_hits - before.oracle_hits) as f64 / lookups as f64,
                    lookups as usize,
                ),
                LayerValue::new(
                    "serve.server.kernel_ms",
                    median(&kernel_ms),
                    kernel_ms.len(),
                ),
                LayerValue::new(
                    "serve.client.rtt_ms_p90",
                    percentile(&out.op_ms, 90.0),
                    out.op_ms.len(),
                ),
                LayerValue::new(
                    "serve.server.busy_share",
                    busy as f64 / sent as f64,
                    sent as usize,
                ),
                trace_overhead_pct(&alternating),
                LayerValue::new(
                    "bench.process.cpu_ms_per_op",
                    out.cpu_ms / sent as f64,
                    sent as usize,
                ),
            ]);
        }

        // The server's own totals must agree with what the clients saw.
        let warmup_sent = self.warmup_sent;
        let warm_ok = warmup_sent - self.warmup_failures.len() as u64;
        let want = ServerStats {
            requests: warmup_sent + sent,
            ok: warm_ok + out.ops_ok,
            busy,
            errors: (warmup_sent - warm_ok) + (sent - out.ops_ok - busy),
            ..after
        };
        let stats = self.teardown();
        if stats != want {
            out.record(vec![format!(
                "server totals {stats:?} disagree with the clients' tallies {want:?}"
            )]);
        }
        out.notes.push(format!(
            "requests sent {sent} / succeeded {} / failed {} (Busy {busy}); \
             {} more sent and checked in warm-up",
            out.ops_ok,
            sent - out.ops_ok,
            warmup_sent
        ));
        out.layers = layers;
        out
    }

    /// Replay the stages a request crosses inside the server, in-process
    /// and on one thread, on the workload's own payloads: one root span
    /// per request with a child per stage. Returns `(payload bytes,
    /// root-span ms)` per replayed request.
    fn replay(&self, seconds: f64, rec: &mut Recorder, out: &mut Outcome) -> Vec<(usize, f64)> {
        let caches = OracleCaches::new(self.kind.cache_cap());
        let par = Parallelism::fixed(1);
        let mut order = Order::new(self.kind, self.seed, CLIENTS, self.templates.len());
        let mut replayed = Vec::new();
        let window = Instant::now();
        while replayed.len() < MAX_REPLAYS && window.elapsed().as_secs_f64() < seconds {
            let s = order.next();
            let id = (CLIENTS as u64 + 1) * 1_000_000_000 + replayed.len() as u64 + 1;
            let req = rec.span("build_request", id, || Request::Map {
                req: MapRequest {
                    id,
                    ..self.templates[s].clone()
                },
            });
            let payload = rec.span("serve.proto.encode_request", id, || encode_request(&req));
            let start = Instant::now();
            rec.enter("serve.direct", id);
            let decoded = rec.span("serve.proto.decode_request", id, || {
                decode_request(&payload)
            });
            let Ok(Request::Map { req }) = decoded else {
                rec.exit();
                out.record(vec![format!("replay {id}: request does not decode back")]);
                continue;
            };
            let (oracle, hit) = rec
                .span("serve.oracle.lookup", id, || caches.oracle(&req.topology))
                .expect("topology spec parses");
            let tasks = rec.span("lb.database.to_task_graph", id, || {
                req.database.to_task_graph()
            });
            let (mapper, hier_hit): (Box<dyn Mapper>, _) =
                rec.span("serve.specs.parse_mapper", id, || {
                    if req.mapper == "hier" {
                        let (plan, hit) = caches
                            .hier_plan(&req.topology, &oracle, req.hierarchy.as_deref(), None)
                            .expect("hierarchy spec parses");
                        let mapper: Box<dyn Mapper> = Box::new(hier_mapper_from_plan(&plan, par));
                        (mapper, Some(hit))
                    } else {
                        let mapper = parse_mapper_with_init(&req.mapper, None, req.seed, par)
                            .expect("mapper spec parses");
                        (mapper, None)
                    }
                });
            let layer = match req.mapper.as_str() {
                "topolb" => "core.topolb.map",
                "topocentlb" => "core.topocentlb.map",
                _ => "core.other.map",
            };
            let kernel = Instant::now();
            let mapping = rec.span(layer, id, || mapper.map(&tasks, oracle.as_ref()));
            let elapsed_us = kernel.elapsed().as_micros() as u64;
            let topo: &dyn Topology = oracle.as_ref();
            let (hb, hpb) = rec.span("core.metrics.hop_bytes", id, || {
                (
                    hop_bytes(&tasks, topo, &mapping),
                    hops_per_byte(&tasks, topo, &mapping),
                )
            });
            let response = Response::MapOk {
                id,
                num_procs: mapping.num_procs(),
                proc_of_task: mapping.as_slice().to_vec(),
                hop_bytes: hb,
                hops_per_byte: hpb,
                elapsed_us,
                oracle_cache_hit: hit,
                hier_cache_hit: hier_hit,
                fast_lane_used: None,
            };
            let encoded = rec.span("serve.proto.encode_response", id, || {
                encode_response(&response)
            });
            rec.exit();
            let direct_ms = start.elapsed().as_secs_f64() * 1e3;
            let back = rec.span("serve.proto.decode_response", id, || {
                decode_response(&encoded)
            });
            let resp = back.map_err(|e| e.to_string());
            out.record(
                check_response(resp, id, &self.expected[s])
                    .err()
                    .into_iter()
                    .collect(),
            );
            replayed.push((payload.len(), direct_ms));
        }
        replayed
    }

    fn layers(&self, out: &Outcome, replay: &[(usize, f64)], out_dir: &Path) -> Vec<LayerValue> {
        let mut layers = span_layers(&out.spans, mean);
        let n = replay.len();
        let bytes: Vec<f64> = replay.iter().map(|&(b, _)| b as f64).collect();
        let direct_ms: Vec<f64> = replay.iter().map(|&(_, ms)| ms).collect();
        let decode_ms = self_ms_per_id(&out.spans, &["serve.proto.decode_request"]);
        let direct_p50 = median(&direct_ms);
        let (tcp, unix) = self.ping_rtts(out_dir);
        layers.extend([
            LayerValue::new("serve.proto.request_bytes", mean(&bytes), n),
            LayerValue::new(
                "serve.proto.decode_mb_per_s",
                bytes.iter().sum::<f64>() / 1e6 / (decode_ms.iter().sum::<f64>() / 1e3),
                n,
            ),
            LayerValue::new("serve.direct.total_ms", direct_p50, n),
            LayerValue::new("serve.residual_ms", median(&out.op_ms) - direct_p50, n),
            LayerValue::new("serve.net.ping_rtt_ms", median(&tcp), tcp.len()),
            LayerValue::new("serve.net.ping_rtt_unix_ms", median(&unix), unix.len()),
            self.oracle_build(),
        ]);
        layers
    }

    /// Cold `OracleCaches::oracle` of every distinct machine: mean ms.
    fn oracle_build(&self) -> LayerValue {
        let mut specs: Vec<&str> = self.templates.iter().map(|t| t.topology.as_str()).collect();
        specs.sort_unstable();
        specs.dedup();
        let ms: Vec<f64> = specs
            .iter()
            .map(|spec| {
                let caches = OracleCaches::new(1);
                let start = Instant::now();
                let built = caches.oracle(spec);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert!(
                    matches!(built, Ok((_, false))),
                    "cold lookup of {spec} must miss"
                );
                ms
            })
            .collect();
        LayerValue::new("serve.oracle.build_ms", mean(&ms), ms.len())
    }

    /// `Client::ping` round trips, in ms: over TCP to the running server,
    /// and over a unix socket to a second server spawned for the purpose.
    fn ping_rtts(&self, out_dir: &Path) -> (Vec<f64>, Vec<f64>) {
        fn pings(client: &mut Client, n: usize) -> Vec<f64> {
            (0..n)
                .map(|_| {
                    let start = Instant::now();
                    client.ping().expect("ping answered");
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect()
        }
        let mut tcp = Client::connect_tcp(self.server.addr()).expect("ping client connects");
        let tcp_ms = pings(&mut tcp, TCP_PINGS);

        let path = out_dir.join("ping.sock");
        let unix_server = spawn(ServeConfig {
            bind: Bind::Unix(path.clone()),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server binds a unix socket");
        let mut unix = Client::connect_unix(&path).expect("unix ping client connects");
        let unix_ms = pings(&mut unix, UNIX_PINGS);
        drop(unix);
        unix_server.join();
        (tcp_ms, unix_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draw(kind: Kind, seed: u64, client: usize, scenarios: usize) -> Vec<usize> {
        let mut order = Order::new(kind, seed, client, scenarios);
        (0..400).map(|_| order.next()).collect()
    }

    #[test]
    fn request_order_repeats_per_seed_and_differs_across_seeds_and_clients() {
        for (kind, scenarios) in [(Kind::Small, 8), (Kind::Large, 32)] {
            assert_eq!(draw(kind, 1, 0, scenarios), draw(kind, 1, 0, scenarios));
            assert_ne!(draw(kind, 1, 0, scenarios), draw(kind, 2, 0, scenarios));
            assert_ne!(draw(kind, 1, 0, scenarios), draw(kind, 1, 1, scenarios));
        }
    }

    #[test]
    fn large_order_is_zipf_over_machines_and_alternates_mappers() {
        let mut order = Order::new(Kind::Large, 3, 0, 32);
        let deck = order.deck.len();
        assert_eq!(deck, 16 + 8 + 5 + 4 + 3 + 3 + 2 + 2 + 2 + 2 + 6);
        let picks: Vec<usize> = (0..4 * deck).map(|_| order.next()).collect();
        for pair in picks.chunks(2) {
            assert_ne!(pair[0] % 2, pair[1] % 2);
        }
        let count = |machine| picks.iter().filter(|&&s| s / 2 == machine).count();
        assert_eq!(count(0), 4 * 16);
        assert_eq!(count(1), 4 * 8);
        for machine in 0..16 {
            assert!(count(machine) >= 4, "machine {machine}");
        }
    }

    #[test]
    fn small_order_deals_every_scenario_once_per_deck() {
        let mut order = Order::new(Kind::Small, 5, 1, 8);
        for _ in 0..3 {
            let mut dealt: Vec<usize> = (0..8).map(|_| order.next()).collect();
            dealt.sort_unstable();
            assert_eq!(dealt, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn responses_are_checked_against_the_direct_run() {
        let ok = |id, proc_of_task| {
            Ok(Response::MapOk {
                id,
                num_procs: 4,
                proc_of_task,
                hop_bytes: 1.0,
                hops_per_byte: 1.0,
                elapsed_us: 7,
                oracle_cache_hit: true,
                hier_cache_hit: None,
                fast_lane_used: None,
            })
        };
        assert_eq!(check_response(ok(5, vec![0, 2, 1]), 5, &[0, 2, 1]), Ok(7));
        assert!(check_response(ok(5, vec![0, 1, 2]), 5, &[0, 2, 1]).is_err());
        assert!(check_response(ok(6, vec![0, 2, 1]), 5, &[0, 2, 1]).is_err());
        let busy = Ok(Response::Busy {
            id: 5,
            queue_cap: 64,
        });
        assert!(check_response(busy, 5, &[0, 2, 1]).is_err());
        assert!(check_response(Err("closed".into()), 5, &[0, 2, 1]).is_err());
    }

    #[test]
    fn large_machines_are_sixteen_distinct_400_to_576_pe() {
        let machines = large_machines();
        assert_eq!(machines.len(), 16);
        let mut specs: Vec<&str> = machines.iter().map(|(s, _)| s.as_str()).collect();
        specs.sort_unstable();
        specs.dedup();
        assert_eq!(specs.len(), 16);
        assert!(machines.iter().all(|&(_, p)| (400..=576).contains(&p)));
    }
}
