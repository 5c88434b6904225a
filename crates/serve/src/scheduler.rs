//! Admission scheduling: inter- vs intra-query parallelism per request.
//!
//! One worker pool serves every client, so parallelism is a budget to
//! split, not a dial to max out. Fanning a query into morsels helps when
//! workers would otherwise idle; under heavy concurrency the same
//! fan-out just queues behind other clients' morsels and pays the
//! scheduling overhead twice. The policy here mirrors the morsel-driven
//! literature's rule of thumb: **one query per core when cores are
//! contended, morsel fan-out when they are not.**
//!
//! The decision reads three live signals:
//!
//! * the number of in-flight requests (the service's active-client
//!   gauge),
//! * the pool's injector [`WorkerPool::queue_depth`] — a backlog means
//!   workers are already saturated regardless of client count,
//! * the plan's expected output rows (execution feedback when the
//!   [`smv_algebra::FeedbackStore`] has measured this plan, the static
//!   estimate otherwise) — tiny results never repay fan-out, the same
//!   economics as [`smv_algebra::ExecOpts::min_par_rows`].

use smv_xml::par::WorkerPool;

/// Which kind of parallelism a request was granted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedMode {
    /// Inter-query: run this request sequentially (`threads: 1`, the
    /// pool is never touched) and let concurrent requests be the
    /// parallelism.
    Inter,
    /// Intra-query: fan this request's operators into morsels on the
    /// shared pool.
    Intra,
}

impl SchedMode {
    /// Stable lowercase name (used in reports and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            SchedMode::Inter => "inter",
            SchedMode::Intra => "intra",
        }
    }
}

/// The scheduler's verdict for one request.
#[derive(Clone, Copy, Debug)]
pub struct SchedDecision {
    /// Inter- or intra-query parallelism.
    pub mode: SchedMode,
    /// The `ExecOpts::threads` value to execute with (`1` for
    /// [`SchedMode::Inter`]).
    pub threads: usize,
}

impl SchedDecision {
    /// Run on the calling thread, the pool untouched: the verdict for a
    /// contended or tiny request, and what every cache hit reports.
    pub const INLINE: SchedDecision = SchedDecision {
        mode: SchedMode::Inter,
        threads: 1,
    };
}

/// Per-request admission policy (see the module docs for the signals).
pub struct AdmissionScheduler {
    min_par_rows: usize,
}

impl AdmissionScheduler {
    /// A scheduler that refuses fan-out for plans expected to produce
    /// fewer than `min_par_rows` rows.
    pub fn new(min_par_rows: usize) -> AdmissionScheduler {
        AdmissionScheduler { min_par_rows }
    }

    /// Decides the parallelism for one request. `active` counts this
    /// request itself; `expected_rows` is the plan's expected output
    /// cardinality (measured if available, estimated otherwise).
    pub fn decide(&self, active: usize, pool: &WorkerPool, expected_rows: f64) -> SchedDecision {
        let size = pool.size().max(1);
        let active = active.max(1);
        let inter = SchedDecision::INLINE;
        if size <= 1 {
            return inter; // nothing to fan out onto
        }
        if active >= size {
            return inter; // contended: one query per core
        }
        if pool.queue_depth() >= size {
            return inter; // backlog: workers already saturated
        }
        if expected_rows < self.min_par_rows as f64 {
            return inter; // tiny result: fan-out never repays itself
        }
        // Uncontended: split the pool evenly among the live requests.
        SchedDecision {
            mode: SchedMode::Intra,
            threads: (size / active).max(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_picks_inter_under_contention_and_intra_when_idle() {
        let pool = WorkerPool::new(4);
        let sched = AdmissionScheduler::new(64);

        let idle = sched.decide(1, &pool, 10_000.0);
        assert_eq!(idle.mode, SchedMode::Intra);
        assert_eq!(idle.threads, 4, "sole client gets the whole pool");

        let shared = sched.decide(2, &pool, 10_000.0);
        assert_eq!(shared.mode, SchedMode::Intra);
        assert_eq!(shared.threads, 2, "two clients split the pool");

        let contended = sched.decide(4, &pool, 10_000.0);
        assert_eq!(contended.mode, SchedMode::Inter);
        assert_eq!(contended.threads, 1);

        let oversubscribed = sched.decide(100, &pool, 10_000.0);
        assert_eq!(oversubscribed.mode, SchedMode::Inter);

        let tiny = sched.decide(1, &pool, 8.0);
        assert_eq!(tiny.mode, SchedMode::Inter, "small results stay sequential");

        let solo = WorkerPool::new(1);
        assert_eq!(
            sched.decide(1, &solo, 10_000.0).mode,
            SchedMode::Inter,
            "a size-1 pool has nothing to fan out onto"
        );
    }
}
