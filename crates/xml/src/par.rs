//! Bulk parallelism: a scoped map over independent tasks.
//!
//! One caller fans work out: the catalog's batch view registration
//! (`EpochCatalog::add_views_on` in `smv-views`), which materializes one
//! extent per task. Queries run on the calling thread.
//!
//! [`WorkerPool::pool_map`] runs `n` independent tasks on up to the
//! pool's size of threads and collects the results in task order. The
//! threads are `std::thread::scope` threads spawned per call — a few tens
//! of microseconds, nothing next to materializing a view — and the
//! calling thread works alongside them. Tasks are claimed from a shared
//! counter, so uneven tasks balance. When a task panics, no further task
//! starts, the running ones finish, and the first panic's original
//! payload is re-raised on the caller.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a user-facing thread count: `0` means "use the host's
/// available parallelism", anything else is taken literally.
fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    }
}

/// A thread budget for [`pool_map`](WorkerPool::pool_map): how many
/// threads, the caller included, one bulk map may occupy.
///
/// The budget is fixed at construction ([`WorkerPool::new`]; `threads ==
/// 0` resolves to the host's available parallelism). No thread outlives
/// a `pool_map` call, so a pool holds nothing but its size.
///
/// ```
/// use smv_xml::par::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.pool_map(4, 6, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
/// assert_eq!(pool.size(), 4);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    /// Total parallelism including the calling thread.
    size: usize,
}

impl WorkerPool {
    /// A budget of `threads` (`0` = the host's available parallelism).
    /// Thread-count resolution happens here, once.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool {
            size: resolve_threads(threads).max(1),
        }
    }

    /// Total parallelism (spawned threads + the calling thread).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Maps `f` over `0..n` with parallelism at most `cap` (capped by the
    /// pool size; `0` means "the whole pool") and returns the results in
    /// index order.
    ///
    /// With `cap <= 1`, fewer than two tasks or a size-1 pool, everything
    /// runs inline on the caller and no thread is spawned. If a task
    /// panics, tasks not yet started are skipped and the first panic's
    /// original payload is re-raised on the caller.
    pub fn pool_map<R, F>(&self, cap: usize, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let threads = if cap == 0 { self.size } else { cap }.min(self.size).min(n);
        if threads <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        // one participant: claims indices until none remain or a task
        // has panicked, keeping each result with its index. `next` only
        // hands out indices; results come back through `join`, which
        // synchronizes, so `Relaxed` suffices
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                match catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(r) => done.push((i, r)),
                    Err(p) => {
                        next.store(n, Ordering::Relaxed);
                        let mut slot = panicked.lock().unwrap_or_else(|e| e.into_inner());
                        slot.get_or_insert(p);
                        return done;
                    }
                }
            }
        };
        let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
            let mut parts = vec![work()];
            for h in helpers {
                parts.push(h.join().expect("task panics are caught inside"));
            }
            parts
        });
        if let Some(p) = panicked.into_inner().unwrap_or_else(|e| e.into_inner()) {
            resume_unwind(p);
        }
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in parts.into_iter().flatten() {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every task index produced a result"))
            .collect()
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
    }

    #[test]
    fn inline_fast_path_skips_dispatch() {
        // cap 1, one task, or a size-1 pool: every task runs on the caller
        let me = std::thread::current().id();
        let on_caller = |out: Vec<std::thread::ThreadId>| out.iter().all(|&t| t == me);
        let here = |_| std::thread::current().id();
        assert!(on_caller(WorkerPool::new(4).pool_map(1, 100, here)));
        assert!(on_caller(WorkerPool::new(4).pool_map(4, 1, here)));
        assert!(on_caller(WorkerPool::new(1).pool_map(0, 100, here)));
    }

    #[test]
    fn nested_pool_map_does_not_deadlock() {
        // a task that itself maps on the same pool spawns its own scoped
        // threads; every level terminates
        let pool = WorkerPool::new(2);
        let out = pool.pool_map(2, 4, |i| pool.pool_map(2, 3, |j| i * 10 + j));
        let want: Vec<Vec<usize>> = (0..4)
            .map(|i| (0..3).map(|j| i * 10 + j).collect())
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = WorkerPool::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = &pool;
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
        // the pool is not wedged: the next map completes normally
        let out = pool.pool_map(4, 10, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }
}
