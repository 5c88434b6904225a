//! Intra-operator parallelism: a persistent, morsel-driven worker pool.
//!
//! The algebra executor (`ExecOpts` in `smv-algebra`, which re-exports
//! this module) and the catalog's batch materialization both need one
//! primitive: *run `n` independent
//! tasks on up to `t` threads and collect the results in task order*.
//!
//! [`WorkerPool::pool_map`] provides it. A pool of long-lived OS threads
//! (created **once**, parked when idle) watches a shared injector queue
//! of jobs. Each job is one `pool_map` call: its tasks are the
//! *morsels*, and idle workers claim morsel indices from the job's
//! atomic counter, so uneven morsels balance dynamically and a dispatch
//! costs a queue push + wakeup (single-digit µs) instead of a thread
//! spawn (~100µs per `std::thread::scope`). The calling thread
//! participates in its own job, which makes nested/reentrant use
//! deadlock-free: a job always makes progress even when every worker is
//! busy elsewhere.
//!
//! Results come back in task order, everything runs inline when there is
//! nothing to parallelize, and — when a task panics — the job stops
//! claiming further tasks, drains in-flight ones, and re-raises the
//! *original* panic payload on the calling thread, so one poisoned morsel
//! can neither wedge the pool nor obscure its message. The offline build
//! environment has no `rayon`; this module is the small subset of it the
//! workspace actually uses.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Resolves a user-facing thread count: `0` means "use the host's
/// available parallelism", anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    }
}

// ---------------------------------------------------------------------
// the persistent pool
// ---------------------------------------------------------------------

/// One in-flight `pool_map` call: the shared state workers and the caller
/// cooperate through. Tasks (morsels) are claimed from `next`; `done`
/// counts completions; the caller sleeps on `finished` until
/// `done == n`.
///
/// # Safety invariants
///
/// `data` points into the *caller's stack frame* (the closure and the
/// result slots of the `pool_map` call that created the job), so it is
/// valid only until that call returns. The caller returns only after
/// `done == n`, and every worker's last touch of `data` strictly
/// precedes its increment of `done` for the task in hand — so no access
/// can outlive the frame. The `Arc<Job>` itself (counters, panic slot,
/// condvar) outlives the call safely.
struct Job {
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Completed (or drained) task count.
    done: AtomicUsize,
    /// Total tasks.
    n: usize,
    /// Workers that have joined this job (the caller is not counted).
    helpers: AtomicUsize,
    /// Maximum workers that may join (per-job parallelism cap − 1).
    helper_cap: usize,
    /// Set on the first panic: remaining tasks drain without executing.
    abort: AtomicBool,
    /// The first panic payload, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Completion latch.
    finished: Mutex<bool>,
    finished_cv: Condvar,
    /// Type-erased pointer to the caller-frame closure + result slots.
    data: *const (),
    /// Monomorphized trampoline: runs task `i` against `data`.
    run_one: unsafe fn(*const (), usize),
    /// The owning pool's execution counters (morsels, busy time).
    stats: Arc<PoolStats>,
}

// SAFETY: `data` is shared across threads but only dereferenced through
// `run_one` under the lifetime protocol documented on the struct; all
// other fields are Sync primitives.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// True once every task index has been claimed (the job can accept no
    /// more workers and may be dropped from the queue).
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }

    /// Reserves a helper slot; `false` when the job is already at its
    /// parallelism cap.
    fn try_help(&self) -> bool {
        let mut h = self.helpers.load(Ordering::Relaxed);
        loop {
            if h >= self.helper_cap {
                return false;
            }
            match self
                .helpers
                .compare_exchange_weak(h, h + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(cur) => h = cur,
            }
        }
    }

    /// Claims and runs tasks until none remain. Shared by the caller and
    /// every helping worker. Panics inside tasks are captured (first
    /// payload wins) and flip `abort`, after which the remaining indices
    /// are drained — claimed and counted done without executing — so the
    /// job still completes and the pool stays usable.
    fn run(&self) {
        let t0 = Instant::now();
        let mut executed = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            if !self.abort.load(Ordering::Relaxed) {
                executed += 1;
                // SAFETY: task indices are claimed at most once, and the
                // caller keeps `data` alive until `done == n` (see Job).
                if let Err(p) =
                    catch_unwind(AssertUnwindSafe(|| unsafe { (self.run_one)(self.data, i) }))
                {
                    self.abort.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().expect("panic slot lock");
                    slot.get_or_insert(p);
                }
            }
            // AcqRel: the RMW chain on `done` publishes every prior
            // task's result-slot write to whoever observes `done == n`.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                let mut fin = self.finished.lock().expect("finished lock");
                *fin = true;
                self.finished_cv.notify_all();
            }
        }
        // two atomic adds per *participant per job* — not per morsel — so
        // the accounting cost is amortized over the whole job
        self.stats.morsels.fetch_add(executed, Ordering::Relaxed);
        self.stats
            .busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Blocks until every task has completed (or drained).
    fn wait(&self) {
        let mut fin = self.finished.lock().expect("finished lock");
        while !*fin {
            fin = self.finished_cv.wait(fin).expect("finished wait");
        }
    }
}

/// Monotonic execution counters a pool accumulates over its lifetime.
/// Shared (`Arc`) between the pool and every in-flight job so counts
/// survive the job's retirement from the queue.
#[derive(Default)]
struct PoolStats {
    /// Morsels (tasks) actually executed by pool jobs.
    morsels: AtomicU64,
    /// Nanoseconds participants (workers + callers) spent inside jobs.
    busy_ns: AtomicU64,
    /// High-water mark of the injector queue length at dispatch.
    max_queue_depth: AtomicU64,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    /// The injector queue of active jobs, oldest first.
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Signaled when a job is pushed (and on shutdown).
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Jobs ever dispatched to the queue (telemetry; the
    /// `threads == 1`-never-touches-the-pool regression test reads it).
    dispatched: AtomicU64,
    /// Lifetime execution counters ([`WorkerPool::metrics`]).
    stats: Arc<PoolStats>,
}

/// A point-in-time snapshot of a pool's execution counters
/// ([`WorkerPool::metrics`]). All counts are monotonic over the pool's
/// lifetime; diff two snapshots to meter an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Total parallelism of the pool (workers + caller).
    pub size: usize,
    /// Jobs ever dispatched to the injector queue.
    pub jobs_dispatched: u64,
    /// Morsels (tasks) executed by pool jobs. Inline fast-path calls do
    /// not count, mirroring [`WorkerPool::jobs_dispatched`].
    pub morsels_executed: u64,
    /// Nanoseconds participants spent inside jobs, summed over threads.
    pub busy_ns: u64,
    /// High-water mark of the injector queue length at dispatch.
    pub max_queue_depth: u64,
}

impl PoolMetrics {
    /// Worker utilization over a wall-clock window: the fraction of the
    /// pool's total thread-time (`wall_ns × size`) spent inside jobs.
    /// Clamped to `[0, 1]`; `0` for an empty window.
    pub fn utilization(&self, wall_ns: u64) -> f64 {
        let capacity = wall_ns.saturating_mul(self.size as u64);
        if capacity == 0 {
            return 0.0;
        }
        (self.busy_ns as f64 / capacity as f64).clamp(0.0, 1.0)
    }
}

/// A persistent pool of worker OS threads fed by a shared injector queue
/// of morsel-sized work items.
///
/// The pool is sized **once, at construction** ([`WorkerPool::new`];
/// `threads == 0` resolves to the host's available parallelism) and
/// spawns `size − 1` workers — the thread calling
/// [`pool_map`](WorkerPool::pool_map) is the remaining unit of
/// parallelism, participating in its own jobs. Workers park on a condvar
/// when idle; a dispatch is a queue push plus a wakeup, which is what
/// drops per-join overhead from a ~100µs scope spawn to single-digit µs.
///
/// One pool serves any number of concurrent callers (sessions, ingest,
/// queries) — jobs queue FIFO and each carries its own parallelism cap —
/// and nested `pool_map` calls from inside a task are safe: the inner
/// caller works on its own job rather than parking, so progress never
/// depends on another thread being free. Dropping the pool joins all
/// workers (in-flight jobs finish first; nothing leaks).
///
/// ```
/// use smv_xml::par::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.pool_map(4, 6, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
/// assert_eq!(pool.size(), 4);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Total parallelism including the calling thread.
    size: usize,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of total parallelism `threads` (`0` = the host's
    /// available parallelism), spawning `threads − 1` worker threads.
    /// Thread-count resolution happens here, once — not per operator.
    pub fn new(threads: usize) -> WorkerPool {
        let size = resolve_threads(threads).max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            dispatched: AtomicU64::new(0),
            stats: Arc::new(PoolStats::default()),
        });
        let workers = (0..size - 1)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("smv-pool-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            size,
            workers,
        }
    }

    /// The process-wide shared pool, created lazily at the host's
    /// available parallelism. Executor options that ask for parallelism
    /// without naming a pool draw from this one, so every session in the
    /// process shares one set of worker threads.
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(WorkerPool::new(0)))
    }

    /// Total parallelism (worker threads + the calling thread).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of pool-owned worker threads (`size() − 1`).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Jobs ever dispatched to the injector queue. Inline fast-path calls
    /// (one task, cap 1, or a worker-less pool) do not count — which is
    /// exactly what the "`threads == 1` never touches the pool"
    /// regression test relies on.
    pub fn jobs_dispatched(&self) -> u64 {
        self.shared.dispatched.load(Ordering::Relaxed)
    }

    /// Morsels (tasks) executed by pool jobs so far. Inline fast-path
    /// calls do not count, mirroring [`jobs_dispatched`](Self::jobs_dispatched).
    pub fn morsels_executed(&self) -> u64 {
        self.shared.stats.morsels.load(Ordering::Relaxed)
    }

    /// Current injector queue length (jobs, not morsels). Exhausted
    /// jobs are retired lazily — by the next worker that scans the
    /// queue — so a just-completed job may still be counted here.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("pool queue lock").len()
    }

    /// Snapshots the pool's lifetime execution counters.
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            size: self.size,
            jobs_dispatched: self.jobs_dispatched(),
            morsels_executed: self.shared.stats.morsels.load(Ordering::Relaxed),
            busy_ns: self.shared.stats.busy_ns.load(Ordering::Relaxed),
            max_queue_depth: self.shared.stats.max_queue_depth.load(Ordering::Relaxed),
        }
    }

    /// Writes the pool's counters into a metrics registry as
    /// `pool.size`, `pool.jobs_dispatched`, `pool.morsels_executed`,
    /// `pool.busy_ns` and `pool.max_queue_depth` gauges.
    pub fn export_metrics(&self, reg: &smv_obs::MetricsRegistry) {
        let m = self.metrics();
        reg.gauge_set("pool.size", m.size as i64);
        reg.gauge_set("pool.jobs_dispatched", m.jobs_dispatched as i64);
        reg.gauge_set("pool.morsels_executed", m.morsels_executed as i64);
        reg.gauge_set("pool.busy_ns", m.busy_ns as i64);
        reg.gauge_set("pool.max_queue_depth", m.max_queue_depth as i64);
    }

    /// Maps `f` over `0..n` with parallelism at most `cap` (capped by the
    /// pool size; `0` means "the whole pool") and returns the results in
    /// index order.
    ///
    /// The tasks become one job on the injector queue; idle workers claim
    /// task indices dynamically, and the caller participates too. With
    /// `cap <= 1`, fewer than two tasks, or no workers, everything runs
    /// inline on the caller — no dispatch, no pool contact. If a task
    /// panics, remaining tasks drain unexecuted and the original payload
    /// is re-raised on the caller; the pool remains usable.
    pub fn pool_map<R, F>(&self, cap: usize, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let cap = if cap == 0 { self.size } else { cap }.min(self.size).min(n);
        if n == 0 {
            return Vec::new();
        }
        if cap <= 1 || n < 2 || self.workers.is_empty() {
            return (0..n).map(f).collect();
        }
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        /// The caller-frame payload `Job::data` points at.
        struct Frame<'a, R, F> {
            f: &'a F,
            slots: *mut Option<R>,
        }
        unsafe fn run_one<R, F: Fn(usize) -> R>(data: *const (), i: usize) {
            let frame = unsafe { &*(data as *const Frame<'_, R, F>) };
            let r = (frame.f)(i);
            // SAFETY: each index is claimed exactly once, so writes to
            // distinct slots never alias.
            unsafe { *frame.slots.add(i) = Some(r) };
        }
        let frame = Frame {
            f: &f,
            slots: slots.as_mut_ptr(),
        };
        let job = Arc::new(Job {
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            n,
            helpers: AtomicUsize::new(0),
            helper_cap: cap - 1,
            abort: AtomicBool::new(false),
            panic: Mutex::new(None),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
            data: &frame as *const Frame<'_, R, F> as *const (),
            run_one: run_one::<R, F>,
            stats: Arc::clone(&self.shared.stats),
        });
        self.shared.dispatched.fetch_add(1, Ordering::Relaxed);
        let depth = {
            let mut q = self.shared.queue.lock().expect("pool queue lock");
            q.push_back(Arc::clone(&job));
            q.len() as u64
        };
        self.shared
            .stats
            .max_queue_depth
            .fetch_max(depth, Ordering::Relaxed);
        smv_obs::gauge_max("pool.queue_depth", depth as i64);
        self.shared.work_cv.notify_all();
        job.run(); // the caller is a full participant
        job.wait();
        if let Some(p) = job.panic.lock().expect("panic slot lock").take() {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task index produced a result"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // The store must happen under the queue mutex: worker_loop checks
        // `shutdown` while holding it and then atomically
        // releases-and-parks in `work_cv.wait`, so a store outside the
        // lock could land between that check and the park — the worker
        // would miss the notification and sleep forever (and this join
        // would hang). Holding the lock forces the store to order either
        // before the check (worker sees it) or after the park (the
        // notify_all reaches it).
        {
            let _queue = self.shared.queue.lock().expect("pool queue lock");
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_all();
        for h in self.workers.drain(..) {
            h.join().expect("pool worker exits cleanly");
        }
    }
}

/// The worker thread body: find the oldest job with an open helper slot,
/// run its tasks, repeat; park when there is nothing runnable.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue lock");
            loop {
                q.retain(|j| !j.exhausted());
                if let Some(j) = q.iter().find(|j| j.try_help()) {
                    break Arc::clone(j);
                }
                if shared.shutdown.load(Ordering::Relaxed) {
                    // any job still queued is at its cap or exhausted;
                    // its caller completes it without us
                    return;
                }
                q = shared.work_cv.wait(q).expect("pool queue wait");
            }
        };
        job.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_order_regardless_of_threads() {
        for threads in [0, 1, 2, 4, 9] {
            let out = WorkerPool::new(threads).pool_map(0, 37, |i| i * 3);
            assert_eq!(out, (0..37).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single_task() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.pool_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.pool_map(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn uneven_tasks_all_complete() {
        // tasks with wildly different costs still land in order
        let out = WorkerPool::new(3).pool_map(3, 16, |i| {
            let mut acc = 0u64;
            for k in 0..((i % 5) * 10_000) as u64 {
                acc = acc.wrapping_add(k);
            }
            (i, acc)
        });
        for (i, (j, _)) in out.iter().enumerate() {
            assert_eq!(i, *j);
        }
    }

    #[test]
    fn resolve_threads_zero_is_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn pool_map_matches_par_map_across_shapes() {
        let pool = WorkerPool::new(4);
        for n in [0usize, 1, 2, 7, 64, 1000] {
            for cap in [0usize, 1, 2, 4, 16] {
                let got = pool.pool_map(cap, n, |i| i * i + 1);
                let want: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
                assert_eq!(got, want, "n={n} cap={cap}");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let out = pool.pool_map(3, 17, move |i| i + round);
            assert_eq!(out, (0..17).map(|i| i + round).collect::<Vec<_>>());
        }
        assert!(pool.jobs_dispatched() >= 1);
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..20 {
                        let out = pool.pool_map(4, 31, move |i| i * t + round);
                        assert_eq!(out, (0..31).map(|i| i * t + round).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn nested_pool_map_does_not_deadlock() {
        // a task that itself maps on the same pool: the inner caller
        // participates in its own job, so this terminates even when every
        // worker is stuck in the outer job
        let pool = WorkerPool::new(2);
        let out = pool.pool_map(2, 4, |i| pool.pool_map(2, 3, |j| i * 10 + j));
        let want: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..3).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn worker_panic_is_reraised_with_original_message_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.pool_map(4, 100, |i| {
                if i == 41 {
                    panic!("task 41 poisoned the batch");
                }
                i
            })
        }));
        let payload = caught.expect_err("the task panic must surface");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("payload is the original message");
        assert!(msg.contains("task 41 poisoned the batch"), "got: {msg}");
        // the pool is not wedged: the next job completes normally
        let out = pool.pool_map(4, 10, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drop_joins_all_workers() {
        // dropping a pool with completed work returns (joining all
        // workers) instead of leaking parked threads; a hang here is the
        // failure mode
        let pool = WorkerPool::new(4);
        let _ = pool.pool_map(4, 100, |i| i);
        assert_eq!(pool.workers(), 3);
        drop(pool);
    }

    #[test]
    fn drop_while_workers_rescan_does_not_hang() {
        // Regression for a lost-wakeup race: shutdown used to be stored
        // outside the queue mutex, so a worker between its shutdown check
        // and the condvar park could miss the notification and sleep
        // forever, hanging Drop's join. Dropping right after dispatch
        // maximizes the odds a worker is mid-rescan at shutdown time.
        for _ in 0..200 {
            let pool = WorkerPool::new(3);
            let _ = pool.pool_map(3, 5, |i| i);
            drop(pool);
        }
    }

    #[test]
    fn inline_fast_path_skips_dispatch() {
        let pool = WorkerPool::new(4);
        let before = pool.jobs_dispatched();
        assert_eq!(pool.pool_map(1, 100, |i| i).len(), 100); // cap 1
        assert_eq!(pool.pool_map(4, 1, |i| i).len(), 1); // one task
        assert_eq!(pool.jobs_dispatched(), before, "inline calls never queue");
    }

    #[test]
    fn metrics_count_morsels_and_busy_time() {
        let pool = WorkerPool::new(3);
        let before = pool.metrics();
        let _ = pool.pool_map(3, 64, |i| {
            let mut acc = 0u64;
            for k in 0..5_000u64 {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            acc
        });
        let after = pool.metrics();
        assert_eq!(
            after.morsels_executed - before.morsels_executed,
            64,
            "every task is one morsel"
        );
        assert_eq!(after.jobs_dispatched - before.jobs_dispatched, 1);
        assert!(after.busy_ns > before.busy_ns, "participants logged time");
        assert!(after.max_queue_depth >= 1);
        assert!(
            pool.queue_depth() <= 1,
            "at most the lazily-retired exhausted job lingers"
        );
        // inline fast-path calls stay invisible, like jobs_dispatched
        let m0 = pool.metrics();
        let _ = pool.pool_map(1, 50, |i| i);
        assert_eq!(pool.metrics().morsels_executed, m0.morsels_executed);
        // utilization is a sane fraction of the wall window
        assert!(after.utilization(u64::MAX / 8) <= 1.0);
        assert_eq!(
            PoolMetrics {
                busy_ns: 0,
                ..after
            }
            .utilization(0),
            0.0
        );
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_host() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(a.size(), resolve_threads(0));
    }
}
