//! The mapping server: a persistent daemon that accepts framed JSON
//! requests, batches mapping jobs through a bounded queue and a fixed
//! worker pool, and amortizes topology oracles and hierarchy
//! factorizations across requests.
//!
//! ## Concurrency model
//!
//! One acceptor thread hands each connection to its own handler thread;
//! handlers do synchronous request/response framing. `Map` jobs are not
//! executed on the handler thread — they are pushed onto a **bounded**
//! queue drained by `workers` worker threads (each mapping kernel may
//! itself use `Parallelism` threads). When the queue is at its bound the
//! handler answers [`Response::Busy`] immediately: the server sheds load
//! explicitly rather than buffering without limit.
//!
//! ## Shutdown
//!
//! `ServerHandle::stop()` (or a `Shutdown` request, or SIGINT in the
//! CLI) flips one stop flag, under the queue lock so no idle worker can
//! miss the wake-up. The acceptor stops accepting, handlers refuse new
//! jobs with `ShuttingDown`, and workers finish every job already queued
//! — a drain, not an abort — before `join()` returns the final stats.
//! Handlers block in `proto::read_frame` and end with their client; the
//! drain does not wait for them.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use topomap_core::{metrics, obs, Curve, Mapper, Parallelism, SfcMap};
use topomap_topology::Topology;

#[cfg(unix)]
use std::os::unix::net::UnixListener;
#[cfg(unix)]
use std::path::PathBuf;

use crate::net::Stream;
use crate::oracle::OracleCaches;
use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, ErrorKind, MapRequest, Request,
    Response, ServerStats, PROTO_VERSION,
};
use crate::specs::MapperSpec;

/// How often the acceptor wakes to look at the stop flag.
const POLL: Duration = Duration::from_millis(25);

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Bind {
    /// TCP `host:port`; port 0 asks the OS for an ephemeral port.
    Tcp(String),
    /// Unix-domain socket path (removed on startup and on join).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Server configuration. `Default` binds an ephemeral localhost port
/// with a small pool — every knob has a CLI flag in `topomap serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub bind: Bind,
    /// Mapping worker threads (>= 1).
    pub workers: usize,
    /// Bound on queued (not yet running) jobs; at the bound new jobs get
    /// `Busy`.
    pub queue_cap: usize,
    /// LRU capacity for each of the oracle and hierarchy-plan caches.
    pub cache_cap: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Intra-job parallelism handed to the mapping kernels.
    pub par: Parallelism,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            queue_cap: 64,
            cache_cap: 32,
            default_deadline_ms: None,
            par: Parallelism::default(),
        }
    }
}

/// One queued mapping job: the request plus its reply channel and
/// deadline (absolute, derived at enqueue time).
struct Job {
    req: MapRequest,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Response>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    ok: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
}

struct Shared {
    stop: AtomicBool,
    queue: Mutex<VecDeque<Job>>,
    queue_cap: usize,
    not_empty: Condvar,
    caches: OracleCaches,
    counters: Counters,
    par: Parallelism,
    default_deadline_ms: Option<u64>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Flip the stop flag and wake every idle worker. The flag flips
    /// under the queue lock: a worker decides to wait while holding that
    /// lock, so it either sees the flag or is already waiting when the
    /// notification is sent — never in between.
    fn request_stop(&self) {
        let _q = self.queue.lock().unwrap();
        self.stop.store(true, Ordering::SeqCst);
        self.not_empty.notify_all();
    }

    fn stats(&self) -> ServerStats {
        let c = self.caches.counters();
        ServerStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            ok: self.counters.ok.load(Ordering::Relaxed),
            busy: self.counters.busy.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            oracle_hits: c.oracle_hits,
            oracle_misses: c.oracle_misses,
            hier_hits: c.hier_hits,
            hier_misses: c.hier_misses,
        }
    }
}

/// The listening socket, wrapped for the two transports.
enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// Handle to a running server. Dropping the handle does NOT stop the
/// server; call [`ServerHandle::stop`] then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: String,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
    #[cfg(unix)]
    unix_path: Option<PathBuf>,
}

impl ServerHandle {
    /// The bound address: `host:port` for TCP (with the real ephemeral
    /// port), the socket path for unix.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Flip the stop flag: stop accepting, refuse new jobs, let workers
    /// drain the queue.
    pub fn stop(&self) {
        self.shared.request_stop();
    }

    /// Snapshot the live counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Whether a stop was requested (by [`Self::stop`], a `Shutdown`
    /// request, or the CLI's SIGINT handler).
    pub fn stopping(&self) -> bool {
        self.shared.stopping()
    }

    /// Wait for the drain to finish and return the final stats. Implies
    /// [`Self::stop`].
    pub fn join(mut self) -> ServerStats {
        self.stop();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        #[cfg(unix)]
        if let Some(p) = self.unix_path.take() {
            let _ = std::fs::remove_file(p);
        }
        self.shared.stats()
    }
}

/// Bind and spawn the server threads; returns once the socket is
/// listening, so the address is immediately connectable.
pub fn spawn(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let (listener, addr) = match &cfg.bind {
        Bind::Tcp(spec) => {
            let l = TcpListener::bind(spec.as_str())?;
            let addr = l.local_addr()?.to_string();
            l.set_nonblocking(true)?;
            (Listener::Tcp(l), addr)
        }
        #[cfg(unix)]
        Bind::Unix(path) => {
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            (Listener::Unix(l), path.display().to_string())
        }
    };
    #[cfg(unix)]
    let unix_path = match &cfg.bind {
        Bind::Unix(p) => Some(p.clone()),
        _ => None,
    };

    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        queue_cap: cfg.queue_cap,
        not_empty: Condvar::new(),
        caches: OracleCaches::new(cfg.cache_cap),
        counters: Counters::default(),
        par: cfg.par,
        default_deadline_ms: cfg.default_deadline_ms,
    });

    if obs::enabled() {
        obs::meta_set("serve.addr", &addr);
        obs::meta_set("serve.workers", &cfg.workers.max(1).to_string());
        obs::meta_set("serve.queue_cap", &cfg.queue_cap.to_string());
    }

    // Spawned inside `obs::record`, every server thread records into it.
    let rec = obs::current();
    let workers: Vec<_> = (0..cfg.workers.max(1))
        .map(|i| {
            let (shared, rec) = (Arc::clone(&shared), rec.clone());
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || obs::within(rec.as_ref(), || worker_loop(&shared)))
                .expect("spawn worker")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || obs::within(rec.as_ref(), || accept_loop(listener, &shared)))
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
        #[cfg(unix)]
        unix_path,
    })
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>) {
    while !shared.stopping() {
        let accepted = match &listener {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
        };
        match accepted {
            Ok(stream) => {
                let (shared, rec) = (Arc::clone(shared), obs::current());
                // Handlers are detached: they live as long as their
                // client and hold no state the drain depends on.
                let _ = thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        obs::within(rec.as_ref(), || handle_connection(stream, &shared))
                    });
            }
            // Nothing pending (`WouldBlock`) or a transient accept failure.
            Err(_) => thread::sleep(POLL),
        }
    }
}

fn handle_connection(mut stream: Stream, shared: &Arc<Shared>) {
    // Some platforms hand accepted sockets the listener's nonblocking flag.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    loop {
        // The frame is freed once decoded: `dispatch` may block on a
        // worker, and a large `Map` payload should not sit through that.
        let request = match read_frame(&mut stream) {
            Ok(Some(payload)) => decode_request(&payload),
            // Clean EOF: the client hung up between frames.
            Ok(None) => return,
            // Framing is unrecoverable (truncation, oversized, I/O):
            // drop the connection rather than guess at resync.
            Err(_) => return,
        };
        let response = match request {
            Ok(req) => dispatch(req, shared),
            Err(e) => Response::Error {
                id: 0,
                kind: ErrorKind::BadRequest,
                message: e.to_string(),
            },
        };
        if write_frame(&mut stream, &encode_response(&response)).is_err() {
            return;
        }
    }
}

/// Handle one decoded request on the connection thread. Control
/// requests answer inline; `Map` goes through the bounded queue.
fn dispatch(req: Request, shared: &Arc<Shared>) -> Response {
    match req {
        Request::Ping => Response::Pong {
            version: PROTO_VERSION,
            server: format!("topomap-serve/{}", env!("CARGO_PKG_VERSION")),
        },
        Request::Stats => Response::StatsOk {
            stats: shared.stats(),
        },
        Request::Shutdown => {
            shared.request_stop();
            Response::ShutdownAck
        }
        Request::Map { req } => submit_map(req, shared),
    }
}

/// Enqueue a map job (or shed it) and wait for the worker's answer.
fn submit_map(req: MapRequest, shared: &Arc<Shared>) -> Response {
    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
    obs::counter_add("serve.requests", 1);
    let id = req.id;
    let deadline = req
        .deadline_ms
        .or(shared.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (tx, rx) = mpsc::channel();
    {
        let mut q = shared.queue.lock().unwrap();
        // Checked under the queue lock: workers take their final
        // "queue empty + stopping" decision under this same lock, so a
        // job enqueued here is guaranteed to be drained (never orphaned
        // after the last worker exits).
        if shared.stopping() {
            drop(q);
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return Response::Error {
                id,
                kind: ErrorKind::ShuttingDown,
                message: "server is draining; no new jobs accepted".to_string(),
            };
        }
        if q.len() >= shared.queue_cap {
            drop(q);
            shared.counters.busy.fetch_add(1, Ordering::Relaxed);
            obs::counter_add("serve.busy", 1);
            return Response::Busy {
                id,
                queue_cap: shared.queue_cap,
            };
        }
        q.push_back(Job {
            req,
            deadline,
            reply: tx,
        });
    }
    shared.not_empty.notify_one();
    let response = rx.recv().unwrap_or_else(|_| Response::Error {
        id,
        kind: ErrorKind::Internal,
        message: "worker dropped the job".to_string(),
    });
    match &response {
        Response::MapOk { .. } => {
            shared.counters.ok.fetch_add(1, Ordering::Relaxed);
            obs::counter_add("serve.ok", 1);
        }
        _ => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            obs::counter_add("serve.errors", 1);
        }
    }
    response
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = shared
            .not_empty
            .wait_while(shared.queue.lock().unwrap(), |q| {
                q.is_empty() && !shared.stopping()
            })
            .unwrap()
            .pop_front();
        // Empty and stopping: the drain is complete.
        let Some(job) = job else { return };
        let response = run_job(&job, shared);
        // The handler may have gone away (client disconnect); the result
        // is simply dropped then.
        let _ = job.reply.send(response);
    }
}

/// Execute one mapping job on a worker thread.
fn run_job(job: &Job, shared: &Shared) -> Response {
    let id = job.req.id;
    let _root = if obs::enabled() {
        Some(obs::span(&format!("serve.request.{id}")))
    } else {
        None
    };
    if let Some(deadline) = job.deadline {
        if Instant::now() >= deadline {
            obs::counter_add("serve.deadline", 1);
            tag_request(id, "deadline");
            return Response::Error {
                id,
                kind: ErrorKind::Deadline,
                message: "deadline passed while the job was queued".to_string(),
            };
        }
    }
    // Everything a request can make a worker do runs under this guard: a
    // panic that escaped it would end the worker thread for good, and
    // `workers` of those leave a pool that never answers another job.
    let outcome = catch_unwind(AssertUnwindSafe(|| map_job(&job.req, job.deadline, shared)))
        .unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("no panic message");
            Err((ErrorKind::Internal, format!("mapping job panicked: {msg}")))
        });
    match outcome {
        Ok(resp) => {
            tag_request(id, "ok");
            resp
        }
        Err((kind, message)) => {
            tag_request(id, &kind.to_string());
            Response::Error { id, kind, message }
        }
    }
}

/// Tag the request id into the obs meta section (schema v2), making the
/// span tree of this request attributable from the report alone.
fn tag_request(id: u64, outcome: &str) {
    if obs::enabled() {
        obs::meta_set(&format!("serve.request.{id}"), outcome);
    }
}

/// Reject malformed wire-supplied workloads with a structured error
/// before they can trip the task-graph builder's asserts on a worker.
fn validate_database(db: &topomap_lb::LbDatabase) -> Result<(), (ErrorKind, String)> {
    let n = db.num_objects();
    let bad = |msg: String| Err((ErrorKind::BadWorkload, msg));
    for (i, &l) in db.loads.iter().enumerate() {
        if !(l >= 0.0 && l.is_finite()) {
            return bad(format!("object {i} has invalid load {l}"));
        }
    }
    for r in &db.comm {
        if r.from >= n || r.to >= n {
            return bad(format!(
                "comm record {}→{} references objects outside 0..{n}",
                r.from, r.to
            ));
        }
        if !(r.bytes >= 0.0 && r.bytes.is_finite()) {
            return bad(format!(
                "comm record {}→{} has invalid byte count {}",
                r.from, r.to, r.bytes
            ));
        }
    }
    if let Some(coords) = &db.coords {
        if coords.len() != n {
            return bad(format!(
                "coords cover {} objects but loads cover {n}",
                coords.len()
            ));
        }
        if let Some(i) = coords.iter().position(|c| !c.iter().all(|v| v.is_finite())) {
            return bad(format!(
                "object {i} has non-finite coordinate {:?}",
                coords[i]
            ));
        }
    }
    Ok(())
}

/// Resolve specs through the caches, run the kernel, score the mapping.
fn map_job(
    req: &MapRequest,
    deadline: Option<Instant>,
    shared: &Shared,
) -> Result<Response, (ErrorKind, String)> {
    let bad_spec = |e: String| (ErrorKind::BadSpec, e);

    let (oracle, oracle_cache_hit) = {
        let _sp = obs::span("serve.oracle");
        shared.caches.oracle(&req.topology).map_err(bad_spec)?
    };
    obs::counter_add(
        if oracle_cache_hit {
            "serve.oracle.hit"
        } else {
            "serve.oracle.miss"
        },
        1,
    );

    // Every combination rule is checked before a hierarchy plan is built
    // (and cached) for the request.
    let spec = MapperSpec::parse(
        Some(&req.mapper),
        req.init.as_deref(),
        req.hierarchy.as_deref(),
        req.hier_dist.as_deref(),
    )
    .map_err(bad_spec)?;
    let plan = match spec.hier_specs() {
        Some((arities, dists)) => {
            let _sp = obs::span("serve.hier-plan");
            let (plan, hit) = shared
                .caches
                .hier_plan(&req.topology, &oracle, arities, dists)
                .map_err(bad_spec)?;
            obs::counter_add(
                if hit {
                    "serve.hier.hit"
                } else {
                    "serve.hier.miss"
                },
                1,
            );
            Some((plan, hit))
        }
        None => None,
    };
    let hier_cache_hit = plan.as_ref().map(|&(_, hit)| hit);
    let mapper = spec
        .build(req.seed, shared.par, plan.as_ref().map(|(p, _)| &**p))
        .map_err(bad_spec)?;

    validate_database(&req.database)?;
    let tasks = req.database.to_task_graph();
    if tasks.num_tasks() > oracle.num_nodes() {
        return Err((
            ErrorKind::BadWorkload,
            format!(
                "workload has {} tasks but machine '{}' has {} processors; \
                 partition the workload first",
                tasks.num_tasks(),
                req.topology.trim(),
                oracle.num_nodes()
            ),
        ));
    }

    // Fast lane (opt-in): a quadratic mapper that cannot finish inside
    // the remaining deadline budget is swapped for the near-linear
    // Hilbert SFC mapper — a worse-but-on-time answer instead of a
    // guaranteed Deadline error. Coordinate-bearing workloads get their
    // real geometry; others fall back to the BFS-layering embedding.
    let hierarchical = matches!(spec, MapperSpec::Hier { .. });
    let fast_lane_used = if req.fast_lane.unwrap_or(false) && !hierarchical {
        match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                spec.estimated_cost(tasks.num_tasks(), oracle.num_nodes()) > remaining
            }
            None => false,
        }
    } else {
        false
    };
    let mapper: Box<dyn Mapper> = if fast_lane_used {
        obs::counter_add("serve.fast_lane", 1);
        Box::new(SfcMap::with_parallelism(Curve::Hilbert, shared.par))
    } else {
        mapper
    };

    let started = Instant::now();
    let mapping = {
        let _sp = obs::span("serve.kernel");
        mapper.map(&tasks, oracle.as_ref())
    };
    let elapsed_us = started.elapsed().as_micros() as u64;

    let (hop_bytes, hops_per_byte) = {
        let _sp = obs::span("serve.eval");
        (
            metrics::hop_bytes(&tasks, oracle.as_ref(), &mapping),
            metrics::hops_per_byte(&tasks, oracle.as_ref(), &mapping),
        )
    };

    Ok(Response::MapOk {
        id: req.id,
        num_procs: mapping.num_procs(),
        proc_of_task: mapping.as_slice().to_vec(),
        hop_bytes,
        hops_per_byte,
        elapsed_us,
        oracle_cache_hit,
        hier_cache_hit,
        fast_lane_used: req.fast_lane.map(|requested| requested && fast_lane_used),
    })
}

/// Convenience used by tests and the bench driver: serve on an
/// ephemeral localhost TCP port.
pub fn spawn_ephemeral(mut cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    cfg.bind = Bind::Tcp("127.0.0.1:0".to_string());
    spawn(cfg)
}
