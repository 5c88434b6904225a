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

/// Resolves a user-facing thread count: `0` means "use the host's
/// available parallelism", anything else is taken literally.
fn resolve_threads(threads: usize) -> usize {
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
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            if !self.abort.load(Ordering::Relaxed) {
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
    }

    /// Blocks until every task has completed (or drained).
    fn wait(&self) {
        let mut fin = self.finished.lock().expect("finished lock");
        while !*fin {
            fin = self.finished_cv.wait(fin).expect("finished wait");
        }
    }
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

    /// Jobs ever dispatched to the injector queue. Inline fast-path calls
    /// (one task, cap 1, or a worker-less pool) do not count — which is
    /// exactly what the "`threads == 1` never touches the pool"
    /// regression test relies on.
    pub fn jobs_dispatched(&self) -> u64 {
        self.shared.dispatched.load(Ordering::Relaxed)
    }

    /// Current injector queue length (jobs, not morsels). Exhausted
    /// jobs are retired lazily — by the next worker that scans the
    /// queue — so a just-completed job may still be counted here.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("pool queue lock").len()
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
        });
        self.shared.dispatched.fetch_add(1, Ordering::Relaxed);
        let depth = {
            let mut q = self.shared.queue.lock().expect("pool queue lock");
            q.push_back(Arc::clone(&job));
            q.len() as i64
        };
        smv_obs::gauge_max("pool.queue_depth", depth);
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
    fn global_pool_is_shared_and_sized_to_the_host() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(a.size(), resolve_threads(0));
    }
}
