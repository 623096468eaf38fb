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
//! [`Executor`] is its resolution for one mapping run. A region that
//! clears `MIN_CHUNK_NS` fans out on one `std::thread::scope`: chunk 0
//! runs on the caller, every other chunk on a scoped thread of its own,
//! and the scope joins them all before the region returns. A run whose
//! regions all stay below the cutoff never starts a thread.

use std::ops::Range;
use std::panic::resume_unwind;
use std::time::Instant;

use crate::obs;

/// The serial cutoff, per chunk: a region runs on the calling thread
/// unless each thread's share of its estimated serial work
/// (`len · ns_per_item / threads` nanoseconds) reaches this. It was set
/// at over twice the 33–47 µs round trip of an **empty** two-thread
/// region on the parked worker pool this layer used to keep (2-vCPU
/// host, `exp_par`), so the smallest region that fans out would take
/// about three quarters of its serial time — the "two threads beat one
/// by 1.3×" bar each surviving call site was kept for. A scoped spawn and
/// join reads ≈ 52 µs on that host, and a region at the cutoff then
/// takes ≈ 0.9 of its serial time; DESIGN.md §6 has the readings and
/// leaves the retuning open. Call sites state their estimates in one
/// unit, with 25 ns per topology distance evaluation as the yardstick.
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
/// region below `MIN_CHUNK_NS` runs the same code on the calling
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

/// Per-run executor: a resolved thread count and the serial cutoff.
pub struct Executor {
    threads: usize,
    /// Estimated serial nanoseconds below which a region stays serial.
    min_region_ns: usize,
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
        }
    }

    /// Run `f` over `0..len` split into contiguous chunks and return the
    /// per-chunk results in chunk order. Runs serially (a single chunk on
    /// the calling thread) at one thread or when the region is below
    /// `MIN_CHUNK_NS`; callers must combine chunk results with a
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
        let k = self.threads;
        let region_start = prof.then(Instant::now);
        let chunk = |i: usize| {
            let run = || f(chunk_range(len, k, i));
            if prof {
                let busy = format!("par.worker.{i}.busy_ns");
                obs::within(rec.as_ref(), || obs::time_counter(&busy, run))
            } else {
                run()
            }
        };
        // Chunk 0 runs on the caller. If it panics, the scope joins every
        // worker before re-raising, so no thread outlives the borrows of
        // `f`; a worker's own panic is re-raised here with its payload.
        let out = std::thread::scope(|s| {
            let chunk = &chunk;
            let workers: Vec<_> = (1..k).map(|i| s.spawn(move || chunk(i))).collect();
            let first = chunk(0);
            let rest = workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload)));
            std::iter::once(first).chain(rest).collect()
        });
        if let Some(t) = region_start {
            obs::counter_add("par.regions.parallel", 1);
            obs::counter_add("par.chunks", k as u64);
            obs::counter_add("par.wall_ns", t.elapsed().as_nanos() as u64);
        }
        out
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
        let caller = std::thread::current().id();
        let on_caller = |r: Range<usize>| (r.len(), std::thread::current().id());
        // One nanosecond short of four full chunks, and a one-item region
        // of any size: both stay on the caller and neither starts a thread.
        let chunks = exec.map_chunks(4 * MIN_CHUNK_NS - 1, 1, on_caller);
        assert_eq!(chunks, vec![(4 * MIN_CHUNK_NS - 1, caller)]);
        assert_eq!(exec.map_chunks(1, usize::MAX, on_caller), vec![(1, caller)]);
        // At the cutoff the region fans out, chunk 0 still on the caller.
        let chunks = exec.map_chunks(4 * MIN_CHUNK_NS, 1, on_caller);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].1, caller);
        assert!(chunks[1..].iter().all(|&(_, id)| id != caller));
    }

    #[test]
    fn many_regions_each_fan_out_on_distinct_threads() {
        let exec = Executor::new(Parallelism::eager(4));
        for round in 0..200usize {
            let chunks = exec.map_chunks(97, 1, |r| {
                let sum = r.map(|i| i * round).sum::<usize>();
                (std::thread::current().id(), sum)
            });
            let total: usize = chunks.iter().map(|&(_, sum)| sum).sum();
            assert_eq!(total, (0..97).map(|i| i * round).sum::<usize>());
            let ids: std::collections::HashSet<_> = chunks.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids.len(), 4, "round {round}");
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, Ordering};

        let exec = Executor::new(Parallelism::eager(2));
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.map_chunks(100, 1, |r| {
                // The second chunk runs on the spawned worker.
                assert!(r.start == 0, "boom");
                0usize
            })
        }));
        let payload = result.expect_err("worker panic swallowed");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));

        // The caller's chunk panics while the worker is still running: the
        // panic reaches the caller only after the scope joined the worker,
        // which is what keeps the worker's borrows of the closure sound.
        // The sleep only makes a missing join visible; with the join the
        // flag is set before the panic arrives on every schedule.
        let worker_done = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.map_chunks(100, 1, |r| {
                if r.start == 0 {
                    panic!("caller chunk");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                worker_done.store(true, Ordering::SeqCst);
                0usize
            })
        }));
        assert!(result.is_err());
        assert!(worker_done.load(Ordering::SeqCst), "panic outran the join");

        // The executor is still usable for the next region.
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
