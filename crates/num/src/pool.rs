//! A small persistent worker pool for the sparse kernels.
//!
//! The Krylov hot path at the paper-native 100 µm grid (57 500 nodes) is
//! dominated by CSR matvecs, triangular preconditioner sweeps and vector
//! reductions. The matvecs and reductions are embarrassingly parallel
//! across rows once the work is partitioned deterministically; the
//! triangular sweeps are not (each wavefront level waits on the last)
//! and stay on the calling thread. [`KernelPool`] owns a handful of
//! `std::thread` workers that stay parked between calls (spawning threads
//! per matvec would cost more than the matvec), and the kernels in this
//! crate accept a pool handle through [`SolverWorkspace`] and the
//! preconditioner builders.
//!
//! # Determinism by partitioning
//!
//! Every parallel kernel is written so its floating-point result is
//! **bit-identical for every thread count**, including one:
//!
//! * output-disjoint kernels (matvec rows, axpy updates, multigrid
//!   transfers) compute each output element with exactly the same
//!   per-element instruction sequence regardless of which worker runs it;
//! * reductions ([`dot`](crate::dot)/[`norm2`](crate::norm2)) accumulate
//!   into **fixed-size blocks** ([`REDUCE_BLOCK`](crate::REDUCE_BLOCK))
//!   whose partial sums are folded in block order on the calling thread,
//!   so the association of the sum depends only on the vector length —
//!   never on the partition.
//!
//! This is the contract that lets `VFC_NUM_THREADS` be a pure execution
//! knob: simulation results, figure outputs and cache keys are unaffected.
//!
//! # Oversubscription
//!
//! When `vfc_runner` already fans simulations out across every core, the
//! per-solve parallelism would only add contention. The pool therefore
//! hands out its workers to **one broadcast at a time**: a caller that
//! finds the pool busy (another thread mid-broadcast, or a nested call
//! from inside a kernel) simply runs its partition serially — permitted
//! precisely because partitioning never changes results.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Environment variable overriding the global pool's thread count.
pub const THREADS_ENV: &str = "VFC_NUM_THREADS";

/// Minimum vector length before the elementwise kernels bother with the
/// pool; below this the broadcast wake-up costs more than the loop.
/// Public so callers can tell whether a system is large enough for the
/// parallel paths to engage at all — determinism gates must test at or
/// above this size, and setup work that only feeds the parallel paths
/// (schedule construction for one-shot solves) can be skipped below it.
pub const PAR_MIN_LEN: usize = 8_192;

/// Rows per dispensed chunk in the row-parallel kernels (a grain small
/// enough to balance ragged rows, large enough to amortize the atomic
/// fetch).
pub(crate) const ROW_CHUNK: usize = 1_024;

/// A lifetime-erased broadcast task. The pointer is only dereferenced
/// between the generation bump and the caller's completion wait, during
/// which the caller keeps the referent alive on its stack.
struct Job {
    task: *const (dyn Fn() + Sync),
}

// SAFETY: the raw pointer is only shared while `broadcast` keeps the
// underlying closure borrowed and alive (it blocks until every worker
// reports completion), and the closure itself is `Sync`.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped per broadcast; workers run the job once per generation.
    generation: u64,
    /// Workers still executing the current generation.
    active: usize,
    /// Set when a worker's task panicked this generation.
    panicked: bool,
    job: Option<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

/// A persistent fork-join pool for the sparse kernels.
///
/// Construct one explicitly with [`new`](Self::new) (benchmarks and the
/// determinism smoke tests pin thread counts this way) or share the
/// process-wide [`global`](Self::global) pool, sized by
/// [`VFC_NUM_THREADS`](THREADS_ENV) or `available_parallelism`. Handles
/// are `Arc`s; cloning is free.
///
/// `threads == 1` pools own no worker threads at all — every kernel runs
/// inline on the caller, which is also the fallback whenever the pool is
/// busy with another broadcast.
#[derive(Debug)]
pub struct KernelPool {
    threads: usize,
    shared: Option<Arc<PoolShared>>,
    /// Serializes broadcasts; `try_lock` failure means "pool busy — run
    /// serially", which keeps nested and concurrent callers deadlock-free.
    broadcast_gate: Mutex<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Worker wake-ups actually performed (serial fallbacks not counted).
    broadcasts: AtomicU64,
}

/// Snapshot of a pool's synchronization counters — which kernels
/// actually wake the workers, measurable without wall-clock (see
/// `transient_bench` and `kernel_probe`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolCounters {
    /// Worker wake-ups performed (one per parallel kernel launch).
    pub broadcasts: u64,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolShared")
    }
}

impl KernelPool {
    /// A pool running kernels on `threads` threads total: the calling
    /// thread plus `threads - 1` parked workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Arc<Self> {
        let threads = threads.max(1);
        if threads == 1 {
            return Arc::new(Self {
                threads: 1,
                shared: None,
                broadcast_gate: Mutex::new(()),
                workers: Vec::new(),
                broadcasts: AtomicU64::new(0),
            });
        }
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                generation: 0,
                active: 0,
                panicked: false,
                job: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vfc-kernel-{id}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning kernel worker")
            })
            .collect();
        Arc::new(Self {
            threads,
            shared: Some(shared),
            broadcast_gate: Mutex::new(()),
            workers,
            broadcasts: AtomicU64::new(0),
        })
    }

    /// The process-wide pool: `VFC_NUM_THREADS` if set to a positive
    /// integer, otherwise `std::thread::available_parallelism`.
    pub fn global() -> &'static Arc<KernelPool> {
        static GLOBAL: OnceLock<Arc<KernelPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| KernelPool::new(default_threads()))
    }

    /// Total threads participating in this pool's kernels (callers + the
    /// parked workers).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pool's broadcast counter since construction. Counters are
    /// diagnostics only — they never influence kernel execution or
    /// results.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            broadcasts: self.broadcasts.load(Ordering::Relaxed),
        }
    }

    /// Runs `task` on every participant — the calling thread and each
    /// worker — returning once all have finished. When the pool is
    /// single-threaded or busy with another broadcast, falls back to one
    /// inline `task()` call, so tasks must claim their work dynamically
    /// (and produce partition-independent results — the
    /// determinism-by-partitioning contract).
    fn broadcast(&self, task: &(dyn Fn() + Sync)) {
        let Some(shared) = &self.shared else {
            task();
            return;
        };
        // Busy (another broadcast in flight, possibly from this very
        // thread via a nested kernel): run the whole task inline.
        let Ok(_gate) = self.broadcast_gate.try_lock() else {
            task();
            return;
        };
        self.broadcasts.fetch_add(1, Ordering::Relaxed);
        // Mirrored into the global registry so cross-layer snapshots see
        // every pool's wake-ups, not just pools the caller kept a handle
        // to (per-pool deltas stay on `counters()`).
        vfc_obs::counter_add("pool.broadcasts", 1);
        {
            let mut st = shared.state.lock().expect("pool state");
            // SAFETY: `Job::task` outlives the broadcast — the guard
            // below waits for `active == 0` before this function returns
            // (even if the caller's own task call unwinds), and workers
            // only touch the pointer while `active > 0`.
            st.job = Some(Job {
                task: unsafe {
                    std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync)>(
                        task as *const _,
                    )
                },
            });
            st.generation = st.generation.wrapping_add(1);
            st.active = self.workers.len();
            st.panicked = false;
            shared.start.notify_all();
        }
        // The guard keeps the job alive across an unwinding caller task:
        // its Drop blocks until every worker has finished before the
        // closure's stack frame can be torn down.
        let mut guard = CompletionGuard {
            shared,
            finished: false,
        };
        task();
        let worker_panicked = guard.finish();
        drop(guard);
        if worker_panicked {
            panic!("a kernel task panicked on a pool worker thread");
        }
    }

    /// Runs `task(chunk)` for every `chunk in 0..chunks`, dynamically
    /// load-balanced across the pool. Chunks are claimed via an atomic
    /// dispenser, so callers must make each chunk's output independent of
    /// *which* thread runs it (the determinism-by-partitioning contract).
    pub(crate) fn run_chunks(&self, chunks: usize, task: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 || chunks <= 1 {
            for c in 0..chunks {
                task(c);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.broadcast(&|| loop {
            let c = next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            task(c);
        });
    }
}

/// Blocks until the current broadcast generation fully drains; runs on
/// the normal path *and* during caller-task unwinding, which is what
/// keeps the lifetime-erased job pointer sound.
struct CompletionGuard<'a> {
    shared: &'a PoolShared,
    finished: bool,
}

impl CompletionGuard<'_> {
    /// Waits for all workers, clears the job, and reports whether any
    /// worker's task panicked.
    fn finish(&mut self) -> bool {
        if self.finished {
            return false;
        }
        self.finished = true;
        let mut st = self.shared.state.lock().expect("pool state");
        while st.active > 0 {
            st = self.shared.done.wait(st).expect("pool state");
        }
        st.job = None;
        st.panicked
    }
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            let mut st = shared.state.lock().expect("pool state");
            st.shutdown = true;
            shared.start.notify_all();
            drop(st);
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    break st.job.as_ref().expect("job set with generation").task;
                }
                st = shared.start.wait(st).expect("pool state");
            }
        };
        // SAFETY: the broadcasting caller keeps the closure alive until
        // `active` returns to zero, which happens strictly after this
        // call returns. catch_unwind keeps a panicking task from killing
        // the worker before it decrements `active` (which would deadlock
        // the caller forever); the panic is surfaced on the caller side.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*task)() }));
        let mut st = shared.state.lock().expect("pool state");
        if outcome.is_err() {
            st.panicked = true;
        }
        st.active -= 1;
        if st.active == 0 {
            shared.done.notify_all();
        }
    }
}

/// Runs `body(start, end)` over a partition of `0..n`, parallel on
/// `pool` for large `n`. Partition-independent bodies (elementwise
/// updates) produce bit-identical results at every thread count.
pub(crate) fn par_range(pool: &KernelPool, n: usize, body: &(dyn Fn(usize, usize) + Sync)) {
    const ELEM_CHUNK: usize = 8_192;
    if pool.threads() == 1 || n < PAR_MIN_LEN {
        body(0, n);
        return;
    }
    pool.run_chunks(n.div_ceil(ELEM_CHUNK), &|c| {
        let s = c * ELEM_CHUNK;
        body(s, (s + ELEM_CHUNK).min(n));
    });
}

/// Thread count for the global pool: `VFC_NUM_THREADS` (positive
/// integers only) or the machine's available parallelism.
fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A `Send + Sync` wrapper for a raw mutable slice pointer, used by the
/// row-parallel kernels whose writers touch disjoint index ranges.
#[derive(Clone, Copy)]
pub(crate) struct SharedMut(pub *mut f64);

impl SharedMut {
    /// The wrapped pointer. Going through a method (rather than field
    /// access) makes closures capture the whole `Sync` wrapper instead
    /// of the raw pointer (2021 disjoint capture).
    #[inline]
    pub fn ptr(self) -> *mut f64 {
        self.0
    }
}

// SAFETY: every kernel using `SharedMut` writes disjoint elements from
// different threads and synchronizes completion through the pool's
// broadcast join, so no data race is possible.
unsafe impl Send for SharedMut {}
unsafe impl Sync for SharedMut {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_chunks_covers_every_chunk_exactly_once() {
        for threads in [1, 2, 4] {
            let pool = KernelPool::new(threads);
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            pool.run_chunks(100, &|c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            for (c, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "chunk {c} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn broadcast_runs_every_participant() {
        let pool = KernelPool::new(3);
        let runs = AtomicU64::new(0);
        pool.broadcast(&|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 3);
        assert_eq!(pool.counters().broadcasts, 1);
    }

    #[test]
    fn nested_broadcast_falls_back_to_serial() {
        // A kernel that itself calls into the pool must not deadlock: the
        // inner broadcast finds the gate held and runs inline.
        let pool = KernelPool::new(2);
        let count = AtomicU64::new(0);
        pool.broadcast(&|| {
            pool.run_chunks(5, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        // Both participants ran the nested 5-chunk loop serially.
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn single_threaded_pool_spawns_no_workers() {
        let pool = KernelPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let ran = AtomicU64::new(0);
        pool.run_chunks(3, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn zero_clamps_to_one() {
        assert_eq!(KernelPool::new(0).threads(), 1);
    }

    #[test]
    fn task_panics_propagate_without_deadlocking_the_pool() {
        let pool = KernelPool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_chunks(100, &|c| {
                if c == 57 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        // The pool must stay fully usable afterwards (workers alive,
        // job slot cleared, gate released).
        let ran = AtomicU64::new(0);
        pool.run_chunks(10, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn pools_shut_down_cleanly() {
        for _ in 0..10 {
            let pool = KernelPool::new(3);
            pool.run_chunks(8, &|_| {});
            drop(pool); // Drop joins the workers; must not hang.
        }
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = KernelPool::global();
        let b = KernelPool::global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.threads() >= 1);
    }
}
