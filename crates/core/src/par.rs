//! Deterministic multi-threaded execution layer.
//!
//! A parallel region is a *chunked map with an order-independent
//! combination*: the index space is split into contiguous chunks, each
//! worker produces the result for its chunk, and the caller combines the
//! results **in chunk order** (concatenation, or the lowest index of a
//! first hit). An item — a leaf of the hierarchy, a bisection, a mapping
//! to score, a refinement candidate, a frontier row to refold — is always
//! computed whole by one worker, so no floating-point sum is ever split
//! and the result is bit-identical to the serial loop for *every* thread
//! count. That is the guarantee `tests/parallel_equivalence.rs` pins.
//!
//! Regions exist only where the items are independent sub-problems, never
//! inside a greedy step's own scan; DESIGN.md §6 has the table of call
//! sites and what each measured, and `exp_par` reproduces it.
//!
//! [`Parallelism`] is the user-facing knob (the thread count);
//! [`Executor`] owns the worker pool for one mapping run. The pool is a
//! fork-join broadcaster: workers park on a condvar between regions, and
//! one pool amortizes thread spawns over the regions of a run. The first
//! region that clears [`MIN_CHUNK_NS`] spawns it, so a run whose regions
//! all stay below the cutoff never starts a thread.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::obs;

/// The serial cutoff, per chunk: a region runs on the calling thread
/// unless each thread's share of its estimated serial work
/// (`len · ns_per_item / threads` nanoseconds) reaches this. It is over
/// twice the round trip of an **empty** two-thread region on the
/// benchmark host, 33–47 µs (`exp_par`), so a chunk does at least double
/// the work of the handshake that delivers it and the smallest region
/// that fans out takes about three quarters of its serial time — the
/// "two threads beat one by 1.3×" bar each surviving call site was kept
/// for. (Measured there: a two-thread region of `W` µs of serial adds
/// takes `W/2 + 34` — 43 for 22, 76–78 for 85–97, 207–211 for 342–362.)
/// Call sites state their estimates in one unit, with 25 ns per topology
/// distance evaluation as the yardstick.
const MIN_CHUNK_NS: usize = 100_000;

/// Thread-count selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Use `TOPOMAP_THREADS` if set (0 or unset → all available cores).
    Auto,
    /// Use exactly this many threads (0 is clamped to 1).
    Fixed(usize),
}

/// Parallelism configuration carried by every mapper: how many threads
/// a region may fan out to. Which regions do is not configurable — a
/// region below [`MIN_CHUNK_NS`] runs the same code on the calling
/// thread and computes exactly the same result (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    pub threads: Threads,
    /// Set only by [`Parallelism::eager`].
    eager: bool,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism {
            threads: Threads::Auto,
            eager: false,
        }
    }
}

impl Parallelism {
    /// Force serial execution.
    pub fn serial() -> Self {
        Self::fixed(1)
    }

    /// Use exactly `n` threads (0 is clamped to 1).
    pub fn fixed(n: usize) -> Self {
        Parallelism {
            threads: Threads::Fixed(n),
            eager: false,
        }
    }

    /// Test hook: `n` threads with the serial cutoff at zero, so the tiny
    /// inputs of the equivalence suites take the threaded path too.
    #[doc(hidden)]
    pub fn eager(n: usize) -> Self {
        Parallelism {
            threads: Threads::Fixed(n),
            eager: true,
        }
    }

    /// The thread count this configuration resolves to on this machine.
    pub fn resolved_threads(self) -> usize {
        let n = match self.threads {
            Threads::Fixed(n) => n,
            Threads::Auto => env_threads().unwrap_or_else(available_threads),
        };
        n.clamp(1, MAX_THREADS)
    }
}

/// Hard cap so a typo'd `TOPOMAP_THREADS` cannot fork-bomb the host.
const MAX_THREADS: usize = 256;

fn env_threads() -> Option<usize> {
    let v = std::env::var("TOPOMAP_THREADS").ok()?;
    match v.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The contiguous sub-range chunk `i` of `k` covers in `0..len`
/// (balanced: the first `len % k` chunks get one extra item).
fn chunk_range(len: usize, k: usize, i: usize) -> Range<usize> {
    let base = len / k;
    let rem = len % k;
    let start = i * base + i.min(rem);
    let end = start + base + usize::from(i < rem);
    start..end
}

/// Per-run executor: a resolved thread count plus, once a region has
/// fanned out, a parked worker pool.
pub struct Executor {
    threads: usize,
    /// Estimated serial nanoseconds below which a region stays serial.
    min_region_ns: usize,
    pool: OnceLock<Pool>,
}

impl Executor {
    /// Resolves the thread count and spawns nothing. Every mapper gets
    /// here before it does any work, so this is also where a profiled run
    /// records how it was configured.
    pub fn new(par: Parallelism) -> Self {
        let threads = par.resolved_threads();
        if obs::enabled() {
            // Self-describing profiles: why par.* counters look serial on
            // a small host is visible in the artifact itself.
            obs::meta_set("par.threads", &threads.to_string());
            obs::meta_set("par.host_cores", &available_threads().to_string());
        }
        let min_region_ns = if par.eager { 0 } else { MIN_CHUNK_NS * threads };
        Executor {
            threads,
            min_region_ns,
            pool: OnceLock::new(),
        }
    }

    /// Resolved thread count (1 = everything runs on the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over `0..len` split into contiguous chunks and return the
    /// per-chunk results in chunk order. Runs serially (a single chunk on
    /// the calling thread) at one thread or when the region is below
    /// [`MIN_CHUNK_NS`]; callers must combine chunk results with a
    /// chunking-invariant reduction so both paths agree bit-for-bit.
    ///
    /// `ns_per_item` is the caller's estimate of the serial nanoseconds
    /// one index costs. A profiled serial run records the estimates it
    /// was given (`par.estimate_ns`) beside the time the regions took
    /// (`par.serial_ns`), so an estimate that drifted shows in a trace.
    pub fn map_chunks<T, F>(&self, len: usize, ns_per_item: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        // The caller's recorder (one relaxed load when nothing records),
        // installed around every chunk so the workers' probes reach it.
        let rec = obs::current();
        let prof = rec.is_some();
        let estimate_ns = len.saturating_mul(ns_per_item);
        if self.threads == 1 || len < 2 || estimate_ns < self.min_region_ns {
            if prof {
                // Two distinct serial causes: a one-thread run vs a
                // region under the cutoff (or of a single item).
                let cause = if self.threads == 1 {
                    "par.regions.serial"
                } else {
                    "par.regions.below_cutoff"
                };
                obs::counter_add(cause, 1);
                obs::counter_add("par.estimate_ns", estimate_ns as u64);
                return vec![obs::time_counter("par.serial_ns", || f(0..len))];
            }
            return vec![f(0..len)];
        }
        let pool = self.pool.get_or_init(|| Pool::new(self.threads));
        let k = self.threads;
        let region_start = prof.then(Instant::now);
        let mut out: Vec<Option<T>> = Vec::with_capacity(k);
        out.resize_with(k, || None);
        {
            let slots = Slots(out.as_mut_ptr());
            let f = &f;
            pool.broadcast(&move |i: usize| {
                let chunk = || f(chunk_range(len, k, i));
                let r = if prof {
                    let busy = format!("par.worker.{i}.busy_ns");
                    obs::within(rec.as_ref(), || obs::time_counter(&busy, chunk))
                } else {
                    chunk()
                };
                // Sound: each worker index writes exactly one distinct slot,
                // and broadcast() does not return until every worker is done.
                unsafe { slots.set(i, r) };
            });
        }
        if let Some(t) = region_start {
            obs::counter_add("par.regions.parallel", 1);
            obs::counter_add("par.chunks", k as u64);
            obs::counter_add("par.wall_ns", t.elapsed().as_nanos() as u64);
        }
        out.into_iter().map(|r| r.expect("chunk result")).collect()
    }
}

/// Raw slot pointer handed to workers; disjointness of indices makes the
/// unsynchronized writes race-free. Accessed only through [`Slots::set`]
/// so closures capture the whole wrapper (edition-2021 closures would
/// otherwise capture the raw pointer field, which is not `Sync`).
struct Slots<T>(*mut Option<T>);
unsafe impl<T: Send> Send for Slots<T> {}
unsafe impl<T: Send> Sync for Slots<T> {}
impl<T> Slots<T> {
    /// Safety: `i` must be in bounds and written by at most one thread
    /// while the buffer outlives all writers.
    unsafe fn set(&self, i: usize, v: T) {
        *self.0.add(i) = Some(v);
    }
}

/// One fork-join region's job: called once per worker with its index.
type Job = &'static (dyn Fn(usize) + Sync);

struct PoolState {
    /// Current job + generation counter; bumping the generation publishes
    /// a new job to the workers.
    job: Mutex<JobCell>,
    work_cv: Condvar,
    /// Count of workers finished with the current job.
    done: Mutex<usize>,
    done_cv: Condvar,
    panicked: AtomicBool,
}

struct JobCell {
    generation: u64,
    job: Option<Job>,
    shutdown: bool,
}

/// Fork-join worker pool. The caller participates as worker 0, so a pool
/// for `threads` threads spawns `threads - 1` OS threads.
struct Pool {
    state: Arc<PoolState>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    fn new(threads: usize) -> Self {
        debug_assert!(threads > 1);
        let state = Arc::new(PoolState {
            job: Mutex::new(JobCell {
                generation: 0,
                job: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let handles = (1..threads)
            .map(|index| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("topomap-par-{index}"))
                    .spawn(move || worker_loop(&state, index))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { state, handles }
    }

    /// Run `job(i)` once for every worker index `0..threads`, index 0 on
    /// the calling thread. Returns only after all workers finished, which
    /// is what makes the lifetime erasure below sound: the job reference
    /// cannot dangle while any worker still holds it.
    fn broadcast(&self, job: &(dyn Fn(usize) + Sync)) {
        let job: Job = unsafe { std::mem::transmute(job) };
        *self.state.done.lock().unwrap() = 0;
        {
            let mut cell = self.state.job.lock().unwrap();
            cell.generation += 1;
            cell.job = Some(job);
        }
        self.state.work_cv.notify_all();

        let mine = catch_unwind(AssertUnwindSafe(|| job(0)));

        let workers = self.handles.len();
        let mut done = self.state.done.lock().unwrap();
        while *done != workers {
            done = self.state.done_cv.wait(done).unwrap();
        }
        drop(done);

        match mine {
            Err(payload) => resume_unwind(payload),
            Ok(()) if self.state.panicked.swap(false, Ordering::Relaxed) => {
                panic!("topomap-par worker thread panicked");
            }
            Ok(()) => {}
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut cell = self.state.job.lock().unwrap();
            cell.shutdown = true;
        }
        self.state.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(state: &PoolState, index: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut cell = state.job.lock().unwrap();
            loop {
                if cell.shutdown {
                    return;
                }
                if cell.generation != seen {
                    seen = cell.generation;
                    break cell.job.expect("published job");
                }
                cell = state.work_cv.wait(cell).unwrap();
            }
        };
        if catch_unwind(AssertUnwindSafe(|| job(index))).is_err() {
            state.panicked.store(true, Ordering::Relaxed);
        }
        let mut done = state.done.lock().unwrap();
        *done += 1;
        state.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_and_balance() {
        for len in [0usize, 1, 7, 64, 1000] {
            for k in [1usize, 2, 3, 8] {
                let mut next = 0;
                for i in 0..k {
                    let r = chunk_range(len, k, i);
                    assert_eq!(r.start, next, "len {len} k {k} chunk {i}");
                    assert!(r.len() <= len / k + 1);
                    next = r.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn resolution_clamps_and_defaults() {
        assert_eq!(Parallelism::serial().resolved_threads(), 1);
        assert_eq!(Parallelism::fixed(0).resolved_threads(), 1);
        assert_eq!(Parallelism::fixed(3).resolved_threads(), 3);
        assert_eq!(
            Parallelism::fixed(usize::MAX).resolved_threads(),
            MAX_THREADS
        );
        assert!(Parallelism::default().resolved_threads() >= 1);
    }

    #[test]
    fn map_chunks_matches_serial_sum() {
        let data: Vec<u64> = (0..10_000).collect();
        let serial: u64 = data.iter().sum();
        for threads in [1usize, 2, 5, 8] {
            let exec = Executor::new(Parallelism::eager(threads));
            let chunks = exec.map_chunks(data.len(), 1, |r| data[r].iter().sum::<u64>());
            assert_eq!(
                chunks.len(),
                if threads == 1 { 1 } else { threads },
                "{threads} threads"
            );
            assert_eq!(chunks.into_iter().sum::<u64>(), serial);
        }
    }

    #[test]
    fn below_threshold_runs_single_chunk() {
        let exec = Executor::new(Parallelism::fixed(4));
        // One nanosecond short of four full chunks, and a one-item region
        // of any size: both stay on the caller and neither starts a thread.
        let chunks = exec.map_chunks(4 * MIN_CHUNK_NS - 1, 1, |r| r.len());
        assert_eq!(chunks, vec![4 * MIN_CHUNK_NS - 1]);
        assert_eq!(exec.map_chunks(1, usize::MAX, |r| r.len()), vec![1]);
        assert!(exec.pool.get().is_none(), "pool spawned by a serial region");
        // At the cutoff the region fans out.
        assert_eq!(exec.map_chunks(4 * MIN_CHUNK_NS, 1, |r| r.len()).len(), 4);
        assert!(exec.pool.get().is_some());
    }

    #[test]
    fn pool_survives_many_regions() {
        let exec = Executor::new(Parallelism::eager(4));
        assert!(exec.pool.get().is_none(), "pool spawned before any region");
        let mut seen = std::collections::HashSet::new();
        for round in 0..200usize {
            let chunks = exec.map_chunks(97, 1, |r| {
                let sum = r.map(|i| i * round).sum::<usize>();
                (std::thread::current().id(), sum)
            });
            let total: usize = chunks.iter().map(|&(_, sum)| sum).sum();
            assert_eq!(total, (0..97).map(|i| i * round).sum::<usize>());
            seen.extend(chunks.into_iter().map(|(id, _)| id));
        }
        // Spawned once, by the first region: 200 regions ran on the same
        // three workers plus the caller.
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let exec = Executor::new(Parallelism::eager(2));
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.map_chunks(100, 1, |r| {
                // The second chunk runs on the spawned worker.
                assert!(r.start == 0, "boom");
                0usize
            })
        }));
        assert!(result.is_err());
        // The pool must still be usable for the next region.
        let ok: usize = exec.map_chunks(10, 1, |r| r.len()).into_iter().sum();
        assert_eq!(ok, 10);
    }

    #[test]
    fn env_override_is_read() {
        // Only checks the parse helper, not the process env, to stay
        // hermetic under parallel test execution.
        assert_eq!("8".trim().parse::<usize>().ok(), Some(8));
        assert!(env_threads().is_none_or(|n| n >= 1));
    }
}
