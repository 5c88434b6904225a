//! The long-running query service.
//!
//! [`QueryService`] owns an [`EpochCatalog`], the cache table of
//! [`crate::cache`], a [`FeedbackStore`] and the thread budget bulk view
//! registration materializes on. It is `Sync`: clients call
//! [`QueryService::query`] from any number of threads while maintenance
//! runs through [`QueryService::apply`] on another.
//!
//! A request takes a snapshot and probes the cache table once: text →
//! pattern → plan → rows in one critical section. A hit is answered from
//! there, inline. Otherwise the miss path parses, ranks and executes
//! whatever the probe did not find, handing each step back to the table,
//! and only a request that executes consults the feedback store. A
//! request executes on the thread that called [`QueryService::query`].
//! Every response reports which layers hit and the epoch served. The
//! pattern and plan layers hold a fixed number of entries, the result
//! layer a fixed number of bytes ([`RESULT_CACHE_BYTES`]): an executed
//! answer is admitted, evicting the oldest answers until it fits, unless
//! it alone is larger than the budget.
//!
//! **Feedback.** This is the system's adaptive loop: a plan-cache miss
//! ranks under the service's [`FeedbackStore`], every execution is
//! profiled and its profile ingested, and a mutation's sweep drops the
//! memos over the views it touched. Rankings are cached per epoch, so
//! what a run measured changes a query's plan at that query's next
//! plan-cache miss (a new epoch or an eviction), not at its next run.
//!
//! **Coherence.** A cached result must be byte-identical to a fresh
//! execution against the snapshot the response carries, and a reader
//! must never wait for a writer. The one protocol that gives both —
//! what a reader touches, what orders publish, sweep and validation — is
//! stated in ARCHITECTURE.md ("Query service & caching → Publication
//! protocol"). Its parts here: readers take snapshots from `published`
//! (an [`EpochReader`]) and never from the writer-side `master`;
//! `QueryService::sweep` is the second half of every mutation, run under
//! `master` right after the catalog publishes; and
//! every probe of the cache table carries the request's snapshot epoch,
//! which the table validates.
//! Results are keyed by *plan* fingerprint besides — equivalent plans may
//! order rows differently, so a re-ranked plan misses rather than serving
//! another plan's bytes.

use crate::cache::{lock, Answer, CacheTable, Probe, RankedPlan};
use smv_algebra::{
    execute_profiled_with, plan_fingerprint, ExecError, ExecOpts, FeedbackStore, NestedRelation,
    PlanEstimate, WorkerPool,
};
use smv_core::{RewriteOpts, Rewriter};
use smv_pattern::{parse_pattern, Pattern, PatternParseError};
use smv_views::{
    CatalogCards, CatalogEpoch, EpochCatalog, EpochReader, MaintenanceReport, RefreshPolicy, View,
    ViewStore,
};
use smv_xml::{Document, IdScheme, LiveError, UpdateBatch};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockWriteGuard};
use std::time::Instant;

/// Everything a request can fail with.
#[derive(Debug)]
pub enum ServeError {
    /// The query text does not parse.
    Parse(PatternParseError),
    /// The bounded search found no rewriting over the registered views.
    NoRewriting,
    /// The chosen plan failed to execute.
    Exec(ExecError),
    /// An update batch was rejected by the live document.
    Update(LiveError),
    /// An earlier mutation panicked while it held the writer-side catalog,
    /// which may be half-maintained and accepts no further mutation.
    /// Queries keep being served from the last published epoch.
    CatalogPoisoned,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "parse error: {e}"),
            ServeError::NoRewriting => f.write_str("no rewriting over the registered views"),
            ServeError::Exec(e) => write!(f, "execution error: {e}"),
            ServeError::Update(e) => write!(f, "update rejected: {e:?}"),
            ServeError::CatalogPoisoned => f.write_str(
                "an earlier mutation panicked mid-change: the catalog accepts no more \
                 mutations (queries still serve the last published epoch)",
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PatternParseError> for ServeError {
    fn from(e: PatternParseError) -> ServeError {
        ServeError::Parse(e)
    }
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> ServeError {
        ServeError::Exec(e)
    }
}

impl From<LiveError> for ServeError {
    fn from(e: LiveError) -> ServeError {
        ServeError::Update(e)
    }
}

/// Service construction knobs; `..Default::default()` is a sensible
/// serving configuration.
#[derive(Clone, Debug, Default)]
pub struct ServiceConfig {
    /// How many threads, the caller's included, materialize a batch of
    /// views registered through [`QueryService::add_views`] (`0` = the
    /// host's available parallelism). Queries always execute on the
    /// thread that asks them.
    pub threads: usize,
}

/// Pattern-cache capacity (distinct spellings / canonical forms).
const PATTERN_CACHE_CAPACITY: usize = 1024;
/// Plan-cache capacity (rankings).
const PLAN_CACHE_CAPACITY: usize = 1024;
/// The result cache's budget: the bytes its answers may be charged in
/// total ([`crate::cache`] says what a charge counts). An answer is worth
/// its space only while requests read it again. On scale-10 XMark the
/// `hot` workload of `smvbench` reuses 7–8 distinct answers charged
/// 0.59–0.61 MB together, so 4 MiB holds about 7× the largest set any
/// workload reads again. `adhoc`, which never reads an answer twice,
/// holds about 60 answers (3.4–3.6 MB) under it; bounded by 256 entries
/// instead, it pinned 248 answers charged 14.4 MB (58 KB each on average).
pub const RESULT_CACHE_BYTES: usize = 4 << 20;

/// One served answer.
pub struct QueryResponse {
    /// The result rows (shared with the cache — cheap to clone).
    pub rows: Arc<NestedRelation>,
    /// The epoch snapshot the answer is consistent with — clients that
    /// need follow-up reads at the same version keep it; coherence tests
    /// re-execute against it.
    pub snapshot: Arc<CatalogEpoch>,
    /// The epoch the answer is consistent with.
    pub epoch: u64,
    /// Fingerprint of the executed (or cached) plan.
    pub plan_fingerprint: u64,
    /// The plan's estimate at ranking time.
    pub est: PlanEstimate,
    /// Equivalent rewritings ranked when the plan was chosen.
    pub candidates: usize,
    /// Layer 1 hit: the query text (or its canonical form) was already
    /// parsed.
    pub pattern_cache_hit: bool,
    /// Layer 2 hit: the ranking was reused.
    pub plan_cache_hit: bool,
    /// Layer 3 hit: the answer was served without executing.
    pub result_cache_hit: bool,
    /// Wall-clock from request entry to response.
    pub latency_ns: u64,
}

/// A point-in-time snapshot of the service's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests served (successful responses).
    pub queries: u64,
    /// Layer 1 (pattern) hits.
    pub pattern_hits: u64,
    /// Layer 2 (plan) hits.
    pub plan_hits: u64,
    /// Layer 3 (result) hits.
    pub result_hits: u64,
    /// Always 0: every request executes on its calling thread. Kept only
    /// because the benchmark harness (`smvbench`) reads it; the next
    /// change to the benchmark removes it.
    pub sched_intra: u64,
    /// Result-cache entries killed by maintenance.
    pub results_invalidated: u64,
    /// Update batches applied.
    pub batches_applied: u64,
    /// Result-cache entries evicted to make room for newer ones.
    pub results_evicted: u64,
    /// The bytes the live result-cache entries are charged, at most
    /// [`RESULT_CACHE_BYTES`] (a level, not a count).
    pub result_bytes: u64,
}

/// How many times a request whose snapshot was superseded before it
/// reached the result cache starts over on a new snapshot; after that it
/// executes on the snapshot it holds (right, but uncached), so a request
/// is never hostage to a fast writer.
const MAX_RESTARTS: usize = 3;

/// The multi-client query service. See the module docs for the request
/// flow and the coherence argument.
pub struct QueryService {
    /// The writer side: mutators hold it exclusively through maintain →
    /// publish → sweep, [`Self::with_catalog`] shares it. No query takes
    /// it.
    master: RwLock<EpochCatalog>,
    /// The reader side: the catalog's publication cell.
    published: EpochReader,
    /// The thread budget of [`Self::add_views`].
    pool: WorkerPool,
    cache: CacheTable,
    /// Copy-on-write: readers clone the `Arc` and rank against a frozen
    /// store; `ingest` and invalidation go through [`Arc::make_mut`],
    /// which copies only while a reader still holds the old one.
    feedback: Mutex<Arc<FeedbackStore>>,
    rewrite_opts: RewriteOpts,
    /// In-flight requests, counted around [`Self::query`] for the
    /// `serve.active_clients_max` gauge.
    active: AtomicUsize,
}

struct ActiveGuard<'a>(&'a AtomicUsize);

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl QueryService {
    /// A service over `doc`, its views identified in `scheme`.
    pub fn new(doc: Document, scheme: IdScheme, config: ServiceConfig) -> QueryService {
        let catalog = EpochCatalog::new(doc, scheme);
        QueryService {
            published: catalog.reader(),
            master: RwLock::new(catalog),
            cache: CacheTable::new(
                PATTERN_CACHE_CAPACITY,
                PLAN_CACHE_CAPACITY,
                RESULT_CACHE_BYTES,
            ),
            feedback: Mutex::new(Arc::new(FeedbackStore::new())),
            rewrite_opts: RewriteOpts::default(),
            pool: WorkerPool::new(config.threads),
            active: AtomicUsize::new(0),
        }
    }

    /// The current (published) epoch.
    pub fn epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// The current epoch snapshot — what a query entering now would see.
    pub fn snapshot(&self) -> Arc<CatalogEpoch> {
        self.published.snapshot()
    }

    /// Runs `f` on the writer-side catalog, shared with other
    /// `with_catalog` callers and excluding mutators for as long as `f`
    /// runs — update drivers use this to build batches against the live
    /// document's IDs. Queries are not held up by it. After
    /// [`ServeError::CatalogPoisoned`] it still runs `f`, on whatever
    /// state the failed mutation left behind.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&EpochCatalog) -> R) -> R {
        f(&self.master.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The writer-side catalog, exclusively.
    fn writer(&self) -> Result<RwLockWriteGuard<'_, EpochCatalog>, ServeError> {
        self.master.write().map_err(|_| ServeError::CatalogPoisoned)
    }

    /// The second half of every mutation, with the writer-side lock still
    /// held so that sweeps run in epoch order: `cat` has just published
    /// an epoch whose extents differ from its predecessor's exactly on
    /// `touched`. Kills the result-cache entries that read those views,
    /// purges dead-epoch plan rankings and moves the cache to the new
    /// epoch, then invalidates feedback memos over the touched views.
    /// Returns how many result entries died.
    fn sweep<S: AsRef<str>>(
        &self,
        cat: &RwLockWriteGuard<'_, EpochCatalog>,
        touched: &[S],
    ) -> usize {
        let epoch = cat.epoch();
        let killed = self.cache.sweep(touched, epoch);
        if !touched.is_empty() {
            Arc::make_mut(&mut lock(&self.feedback)).invalidate_fingerprints_touching(touched);
        }
        killed
    }

    /// Registers one view (materialized inline; see [`Self::add_views`]
    /// for the parallel bulk path). Re-registering a name replaces
    /// its extent, so cached results that read it are swept. Fails with
    /// [`ServeError::CatalogPoisoned`] once a mutation has panicked.
    ///
    /// # Panics
    ///
    /// As [`EpochCatalog::add_view`] does, on a view in another ID scheme.
    pub fn add_view(&self, view: View, policy: RefreshPolicy) -> Result<(), ServeError> {
        let mut cat = self.writer()?;
        let name = view.name.clone();
        cat.add_view(view, policy);
        self.sweep(&cat, &[name]);
        Ok(())
    }

    /// Bulk-registers views, materializing extents on up to
    /// [`ServiceConfig::threads`] threads ([`EpochCatalog::add_views_on`])
    /// and publishing one epoch.
    ///
    /// # Panics
    ///
    /// On [`ServeError::CatalogPoisoned`], and as
    /// [`EpochCatalog::add_views_on`] does. Unlike [`Self::add_view`] it
    /// does not return the poisoning as an error yet: the benchmark
    /// harness calls it, so its signature changes with the next change
    /// to the benchmark (ROADMAP item 5).
    pub fn add_views(&self, views: Vec<View>, policy: RefreshPolicy) {
        let mut cat = self.writer().unwrap_or_else(|e| panic!("{e}"));
        let names: Vec<String> = views.iter().map(|v| v.name.clone()).collect();
        cat.add_views_on(views, policy, &self.pool);
        self.sweep(&cat, &names);
    }

    /// Applies an update batch and sweeps every cache entry the
    /// maintenance delta touched: result-cache entries reading a
    /// refreshed or newly stale view die, stale-epoch plan rankings are
    /// purged, and feedback memos for touched views are invalidated.
    /// Untouched result entries survive — their extents are untouched
    /// `Arc`s in the new epoch. Queries are served throughout, from the
    /// previous epoch until the new one is published.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<MaintenanceReport, ServeError> {
        let mut cat = self.writer()?;
        let report = cat.apply(batch)?;
        let touched: Vec<&str> = report
            .refreshed
            .iter()
            .chain(report.deferred_stale.iter())
            .map(String::as_str)
            .collect();
        let killed = self.sweep(&cat, &touched);
        drop(cat);
        self.cache.applied(killed);
        smv_obs::counter_add("serve.batches_applied", 1);
        smv_obs::counter_add("serve.results_invalidated", killed as u64);
        Ok(report)
    }

    /// Refreshes a deferred view ([`EpochCatalog::refresh`]) and sweeps
    /// cache entries that read it (its extent may have been rebuilt).
    /// `Ok(false)` for an unknown name; [`ServeError::CatalogPoisoned`]
    /// once a mutation has panicked.
    pub fn refresh(&self, name: &str) -> Result<bool, ServeError> {
        let mut cat = self.writer()?;
        let before = cat.epoch();
        if !cat.refresh(name) {
            return Ok(false);
        }
        // a view that was current publishes nothing, so there is no epoch
        // to sweep for
        if cat.epoch() != before {
            self.sweep(&cat, &[name]);
        }
        Ok(true)
    }

    /// Serves one query. See the module docs for the layer flow; the
    /// response says which layers hit.
    pub fn query(&self, text: &str) -> Result<QueryResponse, ServeError> {
        let t0 = Instant::now();
        let active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        let _guard = ActiveGuard(&self.active);
        smv_obs::gauge_max("serve.active_clients_max", active as i64);

        let mut restarts_left = MAX_RESTARTS;
        loop {
            let snap = self.published.snapshot();
            if let Some(answer) = self.serve_on(text, &snap, restarts_left > 0)? {
                return Ok(self.respond(answer, snap, t0));
            }
            restarts_left -= 1;
        }
    }

    /// One attempt, all against the one snapshot `snap`: probes the cache
    /// table, which answers a hit, then parses, ranks and executes
    /// whatever the probe did not find, handing each step back to the
    /// table, so whatever this returns is byte-identical to a fresh
    /// execution on `snap`. `None` asks for a restart: the table has been
    /// swept for a newer epoch, so a newer snapshot is published and the
    /// table can no longer answer for this one. With `may_restart` false
    /// the request executes on `snap` instead.
    fn serve_on(
        &self,
        text: &str,
        snap: &CatalogEpoch,
        may_restart: bool,
    ) -> Result<Option<Answer>, ServeError> {
        let (geometry, epoch) = (snap.summary().geometry_token(), snap.epoch());
        let mut probe = self.cache.probe(text, geometry, epoch);
        let miss = loop {
            probe = match probe {
                Probe::Hit(answer) => return Ok(Some(answer)),
                Probe::Unparsed => self
                    .cache
                    .parsed(text, parse_pattern(text)?, geometry, epoch),
                Probe::Unranked {
                    pattern,
                    pattern_hit,
                } => {
                    let plan = self.rank(&pattern.pattern, snap)?;
                    self.cache
                        .ranked(&pattern, pattern_hit, plan, geometry, epoch)
                }
                Probe::Unserved(miss) => break miss,
            };
        };
        if miss.superseded && may_restart {
            return Ok(None);
        }

        let ranked = &miss.plan;
        let (rel, profile) = execute_profiled_with(&ranked.plan, snap, &ExecOpts::default())?;
        Arc::make_mut(&mut lock(&self.feedback)).ingest(&ranked.plan, &profile);
        Ok(Some(self.cache.executed(&miss, Arc::new(rel), epoch)))
    }

    /// The feedback store as of now, frozen: later ingests and
    /// invalidations go to a copy.
    fn frozen_feedback(&self) -> Arc<FeedbackStore> {
        Arc::clone(&lock(&self.feedback))
    }

    /// Ranks a query's rewritings against a snapshot under the feedback
    /// gathered so far — the plan-cache miss path. Holds no service lock.
    /// The views' query-independent preparation rides on the snapshot's
    /// `View`s and crosses epochs with them, so only the first ranking
    /// after a summary-constraint change builds it; after that a
    /// child-axis query (`/open_auction{id}(/initial{v}[…])`) ranks in
    /// about 26–39 µs and a descendant-axis one (`//quantity{id,v}[…]`)
    /// in 0.21–0.22 ms, deciding 45 joins where it decided 101 before
    /// the cost bound was taken ahead of deciding a join (best of 200
    /// rankings of never-seen texts under feedback from earlier
    /// executions, three runs, scale-10 XMark, the nine views of
    /// `smvbench`'s `adhoc`, a 2-core x86-64 host). A query with a
    /// returned column no view stores is refused with
    /// [`ServeError::NoRewriting`] right after set-up.
    fn rank(&self, q: &Pattern, snap: &CatalogEpoch) -> Result<RankedPlan, ServeError> {
        let fb = self.frozen_feedback();
        let cards = CatalogCards::over(snap, snap.summary());
        let ranked = Rewriter::new(q, snap.views(), snap.summary(), self.rewrite_opts.clone())
            .with_card_source(&cards)
            .with_feedback(&fb)
            .run();
        let candidates = ranked.rewritings.len();
        let best = ranked
            .rewritings
            .into_iter()
            .next()
            .ok_or(ServeError::NoRewriting)?;
        Ok(RankedPlan {
            fingerprint: plan_fingerprint(&best.plan),
            plan: best.plan,
            est: best.est,
            candidates,
        })
    }

    /// Stamps the response (the cache table has counted the request) and
    /// mirrors the counts into `smv_obs`.
    fn respond(&self, answer: Answer, snapshot: Arc<CatalogEpoch>, t0: Instant) -> QueryResponse {
        let latency_ns = t0.elapsed().as_nanos() as u64;
        if smv_obs::enabled() {
            for (name, hit) in [
                ("serve.pattern_hits", answer.pattern_hit),
                ("serve.plan_hits", answer.plan_hit),
                ("serve.result_hits", answer.result_hit),
                ("serve.queries", true),
            ] {
                if hit {
                    smv_obs::counter_add(name, 1);
                }
            }
            smv_obs::observe("serve.latency_ns", latency_ns);
            smv_obs::observe("serve.result_rows", answer.rows.len() as u64);
        }
        QueryResponse {
            rows: answer.rows,
            epoch: snapshot.epoch(),
            snapshot,
            plan_fingerprint: answer.plan_fingerprint,
            est: answer.est,
            candidates: answer.candidates,
            pattern_cache_hit: answer.pattern_hit,
            plan_cache_hit: answer.plan_hit,
            result_cache_hit: answer.result_hit,
            latency_ns,
        }
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.cache.counts()
    }

    /// Number of live result-cache entries (benchmark/test telemetry).
    pub fn cached_results(&self) -> usize {
        self.cache.results()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_pattern::parse_pattern;
    use smv_xml::StructId;

    fn service(threads: usize) -> QueryService {
        let doc = Document::from_parens(r#"r(a(b="1" b="2" c(b="3")) a(b="4") x(y="9"))"#);
        let svc = QueryService::new(doc, IdScheme::OrdPath, ServiceConfig { threads });
        svc.add_views(
            vec![
                View::new(
                    "vb",
                    parse_pattern("r(//b{id,v})").unwrap(),
                    IdScheme::OrdPath,
                ),
                View::new(
                    "vy",
                    parse_pattern("r(/x{id}(?/y{id,v}))").unwrap(),
                    IdScheme::OrdPath,
                ),
            ],
            RefreshPolicy::Eager,
        );
        svc
    }

    fn sid(svc: &QueryService, label: &str, nth: usize) -> StructId {
        svc.with_catalog(|cat| {
            let doc = cat.live().doc();
            let n = doc
                .iter()
                .filter(|&n| doc.label(n).as_str() == label)
                .nth(nth)
                .expect("labeled node");
            cat.live().ids().id(n).clone()
        })
    }

    const B: &str = "r(//b{id,v})";

    /// One attempt of a request for [`B`] that already holds `snap`.
    fn attempt(svc: &QueryService, snap: &CatalogEpoch, may_restart: bool) -> Option<Answer> {
        svc.serve_on(B, snap, may_restart).unwrap()
    }

    fn delete_c(svc: &QueryService) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        batch.delete(sid(svc, "c", 0));
        batch
    }

    #[test]
    fn layers_hit_in_order_and_results_match() {
        let svc = service(1);
        let q = "r(//b{id,v})";
        let first = svc.query(q).unwrap();
        assert!(!first.pattern_cache_hit && !first.plan_cache_hit && !first.result_cache_hit);
        assert_eq!(first.rows.len(), 4);
        let second = svc.query(q).unwrap();
        assert!(second.pattern_cache_hit && second.plan_cache_hit && second.result_cache_hit);
        assert_eq!(second.rows.rows, first.rows.rows, "cached bytes identical");
        // a different spelling shares every layer below the text map
        let respelled = svc.query("r ( // b { id , v } )").unwrap();
        assert!(respelled.result_cache_hit);
        assert_eq!(respelled.plan_fingerprint, first.plan_fingerprint);
        let stats = svc.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.result_hits, 2);
    }

    #[test]
    fn maintenance_kills_touched_entries_and_spares_the_rest() {
        let svc = service(1);
        let hot = svc.query("r(//b{id,v})").unwrap();
        let cold = svc.query("r(/x{id}(?/y{id,v}))").unwrap();
        assert_eq!(svc.cached_results(), 2);
        // delete a b-subtree: vb refreshed; vy is Rebuild-class so it
        // refreshes too — target the check at epoch/plan keys instead
        let mut batch = UpdateBatch::new();
        batch.delete(sid(&svc, "c", 0));
        let report = svc.apply(&batch).unwrap();
        assert!(report.refreshed.iter().any(|v| v == "vb"));
        let after = svc.query("r(//b{id,v})").unwrap();
        assert!(!after.result_cache_hit, "touched entry was killed");
        assert_eq!(after.rows.len(), hot.rows.len() - 1);
        assert_eq!(after.epoch, hot.epoch + 1);
        assert!(!cold.rows.is_empty());
    }

    #[test]
    fn untouched_entries_survive_epoch_bumps() {
        let svc = service(1);
        svc.query("r(/x{id}(?/y{id,v}))").unwrap();
        // vy is Rebuild-class: every apply refreshes it. Register a
        // second document region's view and update only the other side.
        let before = svc.query("r(//b{id,v})").unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(sid(&svc, "x", 0), Document::from_parens(r#"y="10""#));
        let report = svc.apply(&batch).unwrap();
        // vb is Incremental and the batch never touches b-rows — but the
        // epoch still advanced
        assert!(report.epoch > before.epoch);
        if report.refreshed.iter().all(|v| v != "vb") {
            let again = svc.query("r(//b{id,v})").unwrap();
            assert!(
                again.result_cache_hit,
                "untouched entry survives the epoch bump"
            );
            assert_eq!(again.rows.rows, before.rows.rows);
            assert_eq!(again.epoch, report.epoch, "served as current");
        }
    }

    #[test]
    fn unknown_patterns_and_unrewritable_queries_error() {
        let svc = service(1);
        assert!(matches!(svc.query("r(//b{"), Err(ServeError::Parse(_))));
        assert!(matches!(
            svc.query("r(//nosuch{id,c})"),
            Err(ServeError::NoRewriting)
        ));
    }

    #[test]
    fn a_superseded_snapshot_is_never_paired_with_newer_cached_rows() {
        let svc = service(1);
        // reader A takes the epoch-N snapshot and is then overtaken:
        let held = svc.snapshot();
        assert_eq!(svc.query(B).unwrap().rows.len(), 4);
        // … the writer publishes N+1 and sweeps, reader B executes on N+1
        // and caches its rows under the very key A will look up
        svc.apply(&delete_c(&svc)).unwrap();
        let b = svc.query(B).unwrap();
        assert!(!b.result_cache_hit);
        assert_eq!(b.rows.len(), 3);
        // A reaches the result cache: B's rows are not an answer on N
        assert!(attempt(&svc, &held, true).is_none(), "asks for a restart");
        // out of restarts, A answers from the snapshot it holds, uncached
        let a = attempt(&svc, &held, false).expect("served");
        assert!(!a.result_hit);
        assert_eq!(a.rows.len(), 4, "epoch-N rows with the epoch-N snapshot");
        // … and did not overwrite B's entry with superseded rows
        let again = svc.query(B).unwrap();
        assert!(again.result_cache_hit);
        assert_eq!(again.rows.len(), 3);
        assert_eq!(again.epoch, svc.epoch());
    }

    #[test]
    fn between_publish_and_sweep_the_cache_answers_only_the_old_epoch() {
        let svc = service(1);
        let held = svc.snapshot();
        assert_eq!(svc.query(B).unwrap().rows.len(), 4);
        // a mutation stopped between its two halves: published, not swept
        let batch = delete_c(&svc);
        let mut cat = svc.writer().unwrap();
        let report = cat.apply(&batch).unwrap();
        assert_eq!(svc.epoch(), report.epoch);
        // a request on the new epoch must not see the unswept (now stale)
        // entry, and what it computes is not cached ahead of the sweep
        let ahead = svc.query(B).unwrap();
        assert_eq!(ahead.epoch, report.epoch);
        assert!(!ahead.result_cache_hit);
        assert_eq!(ahead.rows.len(), 3);
        assert!(!svc.query(B).unwrap().result_cache_hit);
        // a request still on the old epoch is served the old entry, which
        // is right for the snapshot it names
        let behind = attempt(&svc, &held, true).expect("served");
        assert!(behind.result_hit);
        assert_eq!(behind.rows.len(), 4);
        // the sweep closes the window
        assert_eq!(svc.sweep(&cat, &["vb", "vy"]), 1);
        drop(cat);
        assert!(!svc.query(B).unwrap().result_cache_hit);
        assert!(svc.query(B).unwrap().result_cache_hit);
    }

    #[test]
    fn reregistering_a_view_sweeps_the_results_that_read_it() {
        let svc = service(1);
        assert_eq!(svc.query(B).unwrap().rows.len(), 4);
        // same name, narrower pattern: the plan (a scan of "vb") keeps its
        // fingerprint, so only the sweep keeps the old rows from serving
        svc.add_view(
            View::new(
                "vb",
                parse_pattern("r(/a(/c(/b{id,v})))").unwrap(),
                IdScheme::OrdPath,
            ),
            RefreshPolicy::Eager,
        )
        .unwrap();
        assert_eq!(svc.cached_results(), 0);
    }

    #[test]
    fn a_lone_client_never_copies_the_feedback_store() {
        let svc = service(1);
        let store = |svc: &QueryService| Arc::as_ptr(&lock(&svc.feedback));
        let before = store(&svc);
        svc.query(B).unwrap(); // ranks on a frozen handle, then ingests
        assert_eq!(store(&svc), before, "ingested in place");
        assert_eq!(svc.frozen_feedback().ingests(), 1);
        // a handle held across an ingest keeps what it froze
        let frozen = svc.frozen_feedback();
        svc.query("r(/x{id}(?/y{id,v}))").unwrap();
        assert_eq!(frozen.ingests(), 1);
        assert_eq!(svc.frozen_feedback().ingests(), 2);
        assert_ne!(store(&svc), before, "copied on write");
    }

    #[test]
    fn result_cache_hits_leave_feedback_and_the_scheduler_alone() {
        let doc = Document::from_parens(r#"r(a(b="1" b="2" c(b="3")) a(b="4"))"#);
        let svc = QueryService::new(doc, IdScheme::OrdPath, ServiceConfig { threads: 3 });
        svc.add_view(
            View::new("vb", parse_pattern(B).unwrap(), IdScheme::OrdPath),
            RefreshPolicy::Eager,
        )
        .unwrap();
        assert!(!svc.query(B).unwrap().result_cache_hit);
        let before = svc.frozen_feedback().stats();
        for _ in 0..1_000 {
            assert!(svc.query(B).unwrap().result_cache_hit);
        }
        assert_eq!(svc.frozen_feedback().stats(), before);
        let stats = svc.stats();
        assert_eq!((stats.queries, stats.result_hits), (1_001, 1_000));
        assert_eq!(stats.sched_intra, 0, "nothing fans out");
    }

    #[test]
    fn apply_drops_stale_feedback_memos() {
        let doc = Document::from_parens(r#"r(a(name="x") a(name="y") a(name="z"))"#);
        let svc = QueryService::new(doc, IdScheme::OrdPath, ServiceConfig { threads: 1 });
        svc.add_view(
            View::new(
                "names",
                parse_pattern("r(//name{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            RefreshPolicy::Eager,
        )
        .unwrap();
        let q = "r(//name{id,v})";
        assert_eq!(svc.query(q).unwrap().rows.len(), 3);
        let names = smv_algebra::Plan::Scan {
            view: "names".into(),
        };
        assert_eq!(svc.frozen_feedback().measured_rows(&names), Some(3.0));
        let mut batch = UpdateBatch::new();
        batch.delete(sid(&svc, "a", 0));
        let report = svc.apply(&batch).unwrap();
        assert!(report.refreshed.iter().any(|v| v == "names"));
        assert_eq!(svc.frozen_feedback().measured_rows(&names), None);
        // relearned from the new extent alone: a blend with the stale
        // memo would sit between 2 and 3
        assert_eq!(svc.query(q).unwrap().rows.len(), 2);
        assert_eq!(svc.frozen_feedback().measured_rows(&names), Some(2.0));
    }

    #[test]
    fn queries_outlive_panics_under_any_lock() {
        let svc = service(1);
        let first = svc.query(B).unwrap();
        // a panic under each query-path lock …
        crate::cache::poison(&svc.cache.table);
        crate::cache::poison(&svc.feedback);
        let hot = svc.query(B).unwrap();
        assert!(hot.pattern_cache_hit && hot.plan_cache_hit && hot.result_cache_hit);
        assert_eq!(svc.query("r(/x{id}(?/y{id,v}))").unwrap().rows.len(), 1);
        // … and one inside a mutator, holding the writer-side catalog:
        // registering a Dewey view in an OrdPath store panics
        let batch = delete_c(&svc);
        std::thread::scope(|s| {
            let bad = View::new("vd", parse_pattern("r(//b{id})").unwrap(), IdScheme::Dewey);
            let panicked = s.spawn(|| svc.add_view(bad, RefreshPolicy::Eager)).join();
            assert!(panicked.is_err());
        });
        assert!(matches!(
            svc.apply(&batch),
            Err(ServeError::CatalogPoisoned)
        ));
        // `add_view` and `refresh` report it too, rather than panicking
        let good = View::new(
            "vc",
            parse_pattern("r(//c{id})").unwrap(),
            IdScheme::OrdPath,
        );
        assert!(matches!(
            svc.add_view(good, RefreshPolicy::Eager),
            Err(ServeError::CatalogPoisoned)
        ));
        assert!(matches!(
            svc.refresh("vb"),
            Err(ServeError::CatalogPoisoned)
        ));
        // queries keep answering from the last published epoch
        let after = svc.query(B).unwrap();
        assert!(after.result_cache_hit);
        assert_eq!(after.epoch, first.epoch);
        assert_eq!(after.rows.rows, first.rows.rows);
        assert_eq!(svc.with_catalog(|cat| cat.epoch()), first.epoch);
    }
}
