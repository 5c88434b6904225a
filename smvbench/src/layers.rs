//! Every call into `smv` is in this file, so a refactor of the library's
//! public surface (see README, "When the library changes") is followed by
//! editing this file alone. The rest of the harness sees plain numbers,
//! strings and the opaque handles defined here.
//!
//! Each public call is wrapped in a harness span named `<layer>.<call>`;
//! with the [`Tracer`] off the wrapper costs a branch.

use crate::trace::Tracer;
use smv::advisor::{advise, mine_candidates, AdvisorOpts, CandidateKind, Workload};
use smv::algebra::{
    execute_profiled_with, execute_with, plan_fingerprint, ExecOpts, NestedRelation, Plan,
    ViewProvider,
};
use smv::core::{RewriteOpts, RewriteResult, Rewriter};
use smv::datagen::{pr3_workload, pr7_document, pr7_views, Pr7Stream};
use smv::obs::ScopedEnable;
use smv::pattern::{canonical_form, parse_pattern, Pattern};
use smv::serve::{QueryService, ServiceConfig};
use smv::store::{DiskStore, DiskVfs, StoreOptions, Vfs};
use smv::summary::Summary;
use smv::views::{CatalogCards, CatalogEpoch, RefreshPolicy, ViewStore};
use smv::xml::{parse_document, serialize_document, IdScheme, Update};
use std::ops::Sub;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Share of the document's items one update batch touches.
const CHURN: f64 = 0.01;

const SCHEME: IdScheme = IdScheme::OrdPath;

/// The XMark document of a run, as the XML text the system is given.
pub fn generate_xml(scale: f64, seed: u64) -> String {
    serialize_document(&pr7_document(scale, seed))
}

// ---------------------------------------------------------------------------
// store I/O counting

#[derive(Clone, Copy, Default, Debug)]
pub struct IoCounts {
    pub reads: u64,
    pub read_bytes: u64,
    pub writes: u64,
    pub written_bytes: u64,
    pub fsyncs: u64,
}

impl Sub for IoCounts {
    type Output = IoCounts;
    fn sub(self, o: IoCounts) -> IoCounts {
        IoCounts {
            reads: self.reads - o.reads,
            read_bytes: self.read_bytes - o.read_bytes,
            writes: self.writes - o.writes,
            written_bytes: self.written_bytes - o.written_bytes,
            fsyncs: self.fsyncs - o.fsyncs,
        }
    }
}

/// `DiskVfs` with exact counts of what the store asked of it. It changes
/// nothing the store does: every fsync the store issues reaches the file.
/// (The directory fsync `DiskVfs::rename` performs itself is below this
/// seam and is not counted.)
struct CountingVfs {
    inner: DiskVfs,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    writes: AtomicU64,
    written_bytes: AtomicU64,
    fsyncs: AtomicU64,
}

impl CountingVfs {
    fn new(inner: DiskVfs) -> CountingVfs {
        CountingVfs {
            inner,
            reads: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            written_bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }
    }

    fn counts(&self) -> IoCounts {
        IoCounts {
            reads: self.reads.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            written_bytes: self.written_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }

    fn read_done(&self, r: smv::store::Result<Vec<u8>>) -> smv::store::Result<Vec<u8>> {
        if let Ok(bytes) = &r {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.read_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        r
    }

    fn write_done(&self, len: usize, r: smv::store::Result<()>) -> smv::store::Result<()> {
        if r.is_ok() {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.written_bytes.fetch_add(len as u64, Ordering::Relaxed);
        }
        r
    }
}

impl Vfs for CountingVfs {
    fn read(&self, name: &str) -> smv::store::Result<Vec<u8>> {
        self.read_done(self.inner.read(name))
    }
    fn read_at(&self, name: &str, offset: u64, len: usize) -> smv::store::Result<Vec<u8>> {
        self.read_done(self.inner.read_at(name, offset, len))
    }
    fn write(&self, name: &str, bytes: &[u8]) -> smv::store::Result<()> {
        self.write_done(bytes.len(), self.inner.write(name, bytes))
    }
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> smv::store::Result<()> {
        self.write_done(bytes.len(), self.inner.write_at(name, offset, bytes))
    }
    fn fsync(&self, name: &str) -> smv::store::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.inner.fsync(name)
    }
    fn rename(&self, from: &str, to: &str) -> smv::store::Result<()> {
        self.inner.rename(from, to)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn len(&self, name: &str) -> Option<u64> {
        self.inner.len(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn remove(&self, name: &str) -> smv::store::Result<()> {
        self.inner.remove(name)
    }
}

// ---------------------------------------------------------------------------
// the system under test

/// Buffer-pool geometry of the store a workload runs on.
#[derive(Clone, Copy)]
pub struct StoreShape {
    pub pool_pages: usize,
    pub page_size: usize,
}

/// Counts the build reports beside its spans.
#[derive(Clone, Copy, Default)]
pub struct SetupFacts {
    pub doc_nodes: usize,
    pub summary_paths: usize,
    pub views_chosen: usize,
    pub bytes_chosen: f64,
    pub views_total: usize,
    pub materialized_rows: usize,
}

/// The whole stack over one document: the query service, the store it
/// publishes every epoch to, and the update stream.
pub struct System {
    svc: QueryService,
    store: DiskStore,
    vfs: Arc<CountingVfs>,
    stream: Mutex<Pr7Stream>,
    dir: PathBuf,
}

impl Drop for System {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `map_err` adapter: the error as text, prefixed with what was attempted.
fn ctx<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Sequential execution, the reference the gates compare against.
fn sequential() -> ExecOpts {
    ExecOpts {
        threads: 1,
        min_par_rows: 4096,
        pool: None,
        par_hints: None,
    }
}

/// Every rewriting of `pattern` over `snap`'s views, cheapest first, under
/// the bounds and with the extent cardinalities `QueryService` ranks with.
fn rewrite_on(snap: &CatalogEpoch, pattern: &Pattern) -> RewriteResult {
    let cards = CatalogCards::over(snap, snap.summary());
    let opts = RewriteOpts {
        rank_by_cost: true,
        ..RewriteOpts::default()
    };
    Rewriter::new(pattern, snap.views(), snap.summary(), opts)
        .with_card_source(&cards)
        .run()
}

impl System {
    /// XML text → parsed document → summary → advised views (the advisor
    /// workload under 90 % of its all-singleton budget, plus the update
    /// workload's four views) → service with every view materialized →
    /// first epoch durable in an empty `dir` → reopened once.
    pub fn build(
        xml: &str,
        seed: u64,
        dir: &Path,
        shape: StoreShape,
        tr: &mut Tracer,
    ) -> Result<(System, SetupFacts), String> {
        let root = tr.enter("setup.build", None);
        let doc = tr
            .time("xml.parse_document", None, || parse_document(xml))
            .map_err(ctx("parse_document"))?;
        let doc_nodes = doc.len();
        let summary = tr.time("summary.of", None, || Summary::of(&doc));

        let queries = pr3_workload();
        let workload = Workload::weighted(queries.iter().map(|q| (q.pattern.clone(), q.weight)));
        let mut opts = AdvisorOpts {
            scheme: SCHEME,
            ..AdvisorOpts::default()
        };
        let cands = tr.time("advisor.mine_candidates", None, || {
            mine_candidates(&workload, &summary, &opts)
        });
        let singleton_bytes: f64 = cands
            .iter()
            .filter(|c| c.kind == CandidateKind::Singleton)
            .map(|c| c.est_bytes)
            .sum();
        opts.budget_bytes = 0.9 * singleton_bytes;
        let advice = tr.time("advisor.advise", None, || {
            advise(&workload, &summary, &cands, &opts)
        });
        let mut views = advice.views();
        views.extend(pr7_views(SCHEME));
        let views_total = views.len();

        // one pool worker: with the default 0 the service adds a worker
        // per core on top of the client threads, and the host has two cores
        let config = ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        };
        let svc = tr.time("serve.new", None, || QueryService::new(doc, SCHEME, config));
        tr.time("serve.add_views", None, || {
            svc.add_views(views, RefreshPolicy::Eager)
        });

        std::fs::create_dir_all(dir).map_err(ctx("create store dir"))?;
        let vfs = Arc::new(CountingVfs::new(
            DiskVfs::new(dir).map_err(ctx("open store dir"))?,
        ));
        let store = DiskStore::with_options(
            Arc::clone(&vfs) as Arc<dyn Vfs>,
            StoreOptions {
                page_size: shape.page_size,
                pool_pages: shape.pool_pages,
            },
        );
        let snap = svc.snapshot();
        tr.time("store.publish_epoch", None, || {
            store.publish_epoch(&snap, None)
        })
        .map_err(ctx("publish_epoch"))?;
        let reopened = tr
            .time("store.open", None, || store.open())
            .map_err(ctx("open"))?;
        if reopened.epoch() != snap.epoch() {
            return Err(format!(
                "reopened epoch {} after publishing {}",
                reopened.epoch(),
                snap.epoch()
            ));
        }
        tr.exit(root);

        let facts = SetupFacts {
            doc_nodes,
            summary_paths: summary.len(),
            views_chosen: advice.chosen.len(),
            bytes_chosen: advice.total_bytes,
            views_total,
            materialized_rows: snap
                .views()
                .iter()
                .filter_map(|v| snap.extent_rows(&v.name))
                .sum(),
        };
        let sys = System {
            svc,
            store,
            vfs,
            stream: Mutex::new(Pr7Stream::new(seed)),
            dir: dir.to_path_buf(),
        };
        Ok((sys, facts))
    }

    // ---- serve

    /// One request through `QueryService::query`.
    #[inline]
    pub fn query(&self, text: &str) -> Result<Reply, String> {
        match self.svc.query(text) {
            Ok(r) => Ok(Reply {
                latency_ns: r.latency_ns,
                result_hit: r.result_cache_hit,
            }),
            Err(e) => Err(format!("query {text}: {e}")),
        }
    }

    pub fn serve_counts(&self) -> ServeCounts {
        let s = self.svc.stats();
        ServeCounts {
            queries: s.queries,
            pattern_hits: s.pattern_hits,
            plan_hits: s.plan_hits,
            result_hits: s.result_hits,
            sched_intra: s.sched_intra,
            results_invalidated: s.results_invalidated,
        }
    }

    // ---- update

    /// One update batch made visible (`QueryService::apply`) and durable
    /// (`DiskStore::publish_epoch` of the new snapshot). Generating the
    /// batch is input preparation and is not timed.
    pub fn update(&self, tr: &mut Tracer) -> Result<UpdateReport, String> {
        let batch = {
            let mut stream = self.stream.lock().expect("update stream lock");
            self.svc
                .with_catalog(|c| stream.next_batch(c.live(), CHURN))
        };
        let batch_xml_bytes: usize = batch
            .ops
            .iter()
            .map(|op| match op {
                Update::Insert { fragment, .. } => serialize_document(fragment).len(),
                Update::Delete { .. } => 0,
            })
            .sum();
        let root = tr.enter("update", None);
        let t = Instant::now();
        let report = tr
            .time("serve.apply", None, || self.svc.apply(&batch))
            .map_err(ctx("apply"))?;
        let apply_ns = t.elapsed().as_nanos() as u64;
        let snap = self.svc.snapshot();
        let io_before = self.vfs.counts();
        let t = Instant::now();
        tr.time("store.publish_epoch", None, || {
            self.store.publish_epoch(&snap, None)
        })
        .map_err(ctx("publish_epoch"))?;
        let store_publish_ns = t.elapsed().as_nanos() as u64;
        tr.exit(root);
        Ok(UpdateReport {
            apply_ns,
            store_publish_ns,
            ingest_ns: report.ingest_ns,
            maintain_ns: report.maintain_ns,
            epoch_publish_ns: report.publish_ns,
            rows_killed: report.rows_killed,
            rows_added: report.rows_added,
            views_refreshed: report.refreshed.len(),
            batch_xml_bytes,
            io: self.vfs.counts() - io_before,
        })
    }

    // ---- core + algebra, called the way the service calls them

    /// The cheapest rewriting of `text` over the current snapshot.
    pub fn rank(&self, text: &str) -> Result<PoolPlan, String> {
        let pattern = parse_pattern(text).map_err(ctx(text))?;
        let ranked = rewrite_on(&self.svc.snapshot(), &pattern);
        let best = ranked
            .rewritings
            .into_iter()
            .next()
            .ok_or_else(|| format!("{text}: no rewriting"))?;
        Ok(PoolPlan { plan: best.plan })
    }

    /// A miss-path request taken apart outside the service: parse →
    /// canonical form → rewrite → profiled execute, on the current snapshot.
    pub fn replay(&self, text: &str, request: u64, tr: &mut Tracer) -> Result<Decomposed, String> {
        let req = Some(request);
        let root = tr.enter("replay", req);
        let t = Instant::now();
        let pattern = tr
            .time("pattern.parse_pattern", req, || parse_pattern(text))
            .map_err(ctx(text))?;
        let parse_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let canon = tr.time("pattern.canonical_form", req, || canonical_form(&pattern));
        let canonical_ns = t.elapsed().as_nanos() as u64;
        std::hint::black_box(canon);

        let snap = self.svc.snapshot();
        let ranked = tr.time("core.rewriter_run", req, || rewrite_on(&snap, &pattern));
        let stats = &ranked.stats;
        let mut out = Decomposed {
            parse_ns,
            canonical_ns,
            rewrite_ns: stats.total.as_nanos() as u64,
            rewrite_setup_ns: stats.setup.as_nanos() as u64,
            first_rewriting_ns: stats.first_rewriting.map(|d| d.as_nanos() as u64),
            pairs_explored: stats.pairs_explored,
            pairs_pruned: stats.pairs_pruned,
            views_total: stats.views_total,
            views_kept: stats.views_kept,
            rewritings: ranked.rewritings.len(),
            ..Decomposed::default()
        };
        if let Some(best) = ranked.rewritings.first() {
            let t = Instant::now();
            let (rel, profile) = tr
                .time("algebra.execute_profiled_with", req, || {
                    execute_profiled_with(&best.plan, &*snap, &sequential())
                })
                .map_err(ctx(text))?;
            out.execute_ns = t.elapsed().as_nanos() as u64;
            out.rows_out = rel.len();
            out.rows_examined = profile.iter().map(|(_, rows)| rows).sum();
            let (est, actual) = (best.est.rows.max(1.0), (rel.len() as f64).max(1.0));
            out.q_error = (est / actual).max(actual / est);
        }
        tr.exit(root);
        Ok(out)
    }

    // ---- store reads

    /// The first answer after a restart: `DiskStore::open`, then the plan
    /// executed on the fresh catalog (which reads and decodes the extents
    /// it scans through a cold buffer pool). With tracing on, the extent
    /// loads are made explicit first so decode and execute separate.
    pub fn cold_read(
        &self,
        plan: &PoolPlan,
        request: u64,
        tr: &mut Tracer,
    ) -> Result<ColdRead, String> {
        self.cold_execute(plan, request, tr).map(|(read, _)| read)
    }

    fn cold_execute(
        &self,
        plan: &PoolPlan,
        request: u64,
        tr: &mut Tracer,
    ) -> Result<(ColdRead, NestedRelation), String> {
        let req = Some(request);
        let root = tr.enter("cold_read", req);
        let cat = tr
            .time("store.open", req, || self.store.open())
            .map_err(ctx("open"))?;
        if tr.is_on() {
            for view in plan.plan.views_used() {
                tr.time("store.load_extent", req, || {
                    cat.load_extent(&view).map(|e| e.map(|e| e.len()))
                })
                .map_err(ctx("load_extent"))?;
            }
        }
        let rel = tr
            .time("algebra.execute_with", req, || {
                execute_with(&plan.plan, &cat, &sequential())
            })
            .map_err(ctx("execute on disk catalog"))?;
        tr.exit(root);
        let pool = cat.pool().stats();
        let read = ColdRead {
            epoch: cat.epoch(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_evictions: pool.evictions,
        };
        Ok((read, rel))
    }

    pub fn epoch(&self) -> u64 {
        self.svc.epoch()
    }

    /// Bytes of every file in the store directory.
    pub fn stored_bytes(&self) -> u64 {
        let vfs = &self.vfs;
        vfs.list().iter().filter_map(|n| vfs.len(n)).sum()
    }

    /// Bytes of the newest epoch's segment files.
    pub fn segment_bytes(&self) -> u64 {
        let Some(epoch) = self.store.latest_epoch() else {
            return 0;
        };
        let prefix = format!("seg-{epoch:020}-");
        let vfs = &self.vfs;
        vfs.list()
            .iter()
            .filter(|n| n.starts_with(&prefix))
            .filter_map(|n| vfs.len(n))
            .sum()
    }

    /// Bytes of the live document serialized as XML.
    pub fn doc_bytes(&self) -> u64 {
        self.svc
            .with_catalog(|c| serialize_document(c.live().doc()).len() as u64)
    }

    // ---- correctness gates

    /// The repository's equivalence bars, checked on this run's state:
    /// cached ≡ fresh for each of `texts` (asked twice, so a miss and a hit
    /// are both compared with a fresh rewrite + sequential execute on the
    /// snapshot the response names), maintained ≡ rebuilt, disk ≡ memory
    /// for each of `plans`, and reopen finds the last published epoch.
    pub fn check_gates(&self, texts: &[String], plans: &[PoolPlan], tr: &mut Tracer) -> Gates {
        let mut g = Gates::default();
        let root = tr.enter("gates", None);
        for text in texts {
            for _ in 0..2 {
                g.check("cached = fresh", self.cached_equals_fresh(text));
            }
        }
        let snap = self.svc.snapshot();
        let rebuilt = self.svc.with_catalog(|c| c.rebuild_from_scratch());
        for v in snap.views() {
            let same =
                snap.extent(&v.name).map(|e| &e.rows) == rebuilt.extent(&v.name).map(|e| &e.rows);
            g.check(
                "maintained = rebuilt",
                same.then_some(()).ok_or_else(|| format!("view {}", v.name)),
            );
        }
        let io_before = self.vfs.counts();
        for (i, plan) in plans.iter().enumerate() {
            let verdict = self
                .cold_execute(plan, i as u64, tr)
                .and_then(|(read, disk)| {
                    g.cold_reads.push(read);
                    let mem = execute_with(&plan.plan, &*snap, &sequential())
                        .map_err(ctx("execute in memory"))?;
                    (disk.rows == mem.rows)
                        .then_some(())
                        .ok_or_else(|| format!("pool plan {i}"))
                });
            g.check("disk = memory", verdict);
        }
        g.cold_io = self.vfs.counts() - io_before;
        let reopened = self.store.open().map_err(ctx("open")).and_then(|cat| {
            (cat.epoch() == self.svc.epoch())
                .then_some(())
                .ok_or_else(|| format!("epoch {} != {}", cat.epoch(), self.svc.epoch()))
        });
        g.check("reopen = last published epoch", reopened);
        tr.exit(root);
        g
    }

    fn cached_equals_fresh(&self, text: &str) -> Result<(), String> {
        let resp = self.svc.query(text).map_err(ctx(text))?;
        let pattern = parse_pattern(text).map_err(ctx(text))?;
        let snap = &*resp.snapshot;
        let fresh = rewrite_on(snap, &pattern);
        // equivalent plans may order rows differently, so compare with the
        // fresh rewriting that is the plan the service chose
        let plan = fresh
            .rewritings
            .iter()
            .find(|rw| plan_fingerprint(&rw.plan) == resp.plan_fingerprint)
            .or(fresh.rewritings.first())
            .map(|rw| &rw.plan)
            .ok_or_else(|| format!("{text}: fresh rewrite found nothing"))?;
        let oracle = execute_with(plan, snap, &sequential()).map_err(ctx(text))?;
        (resp.rows.rows == oracle.rows)
            .then_some(())
            .ok_or_else(|| text.to_string())
    }
}

/// What one served request reports about itself.
#[derive(Clone, Copy)]
pub struct Reply {
    pub latency_ns: u64,
    pub result_hit: bool,
}

#[derive(Clone, Copy, Default)]
pub struct ServeCounts {
    pub queries: u64,
    pub pattern_hits: u64,
    pub plan_hits: u64,
    pub result_hits: u64,
    pub sched_intra: u64,
    pub results_invalidated: u64,
}

impl Sub for ServeCounts {
    type Output = ServeCounts;
    fn sub(self, o: ServeCounts) -> ServeCounts {
        ServeCounts {
            queries: self.queries - o.queries,
            pattern_hits: self.pattern_hits - o.pattern_hits,
            plan_hits: self.plan_hits - o.plan_hits,
            result_hits: self.result_hits - o.result_hits,
            sched_intra: self.sched_intra - o.sched_intra,
            results_invalidated: self.results_invalidated - o.results_invalidated,
        }
    }
}

pub struct UpdateReport {
    pub apply_ns: u64,
    pub store_publish_ns: u64,
    /// `MaintenanceReport.ingest_ns`
    pub ingest_ns: u64,
    /// `MaintenanceReport.maintain_ns`
    pub maintain_ns: u64,
    /// `MaintenanceReport.publish_ns`
    pub epoch_publish_ns: u64,
    pub rows_killed: usize,
    pub rows_added: usize,
    pub views_refreshed: usize,
    /// Serialized size of the subtrees the batch inserts.
    pub batch_xml_bytes: usize,
    /// What the durable publish asked of the file system.
    pub io: IoCounts,
}

/// A plan ranked once and executed many times.
pub struct PoolPlan {
    plan: Plan,
}

#[derive(Default)]
pub struct Decomposed {
    pub parse_ns: u64,
    pub canonical_ns: u64,
    pub rewrite_ns: u64,
    pub rewrite_setup_ns: u64,
    pub first_rewriting_ns: Option<u64>,
    pub pairs_explored: usize,
    pub pairs_pruned: usize,
    pub views_total: usize,
    pub views_kept: usize,
    pub rewritings: usize,
    pub execute_ns: u64,
    pub rows_out: usize,
    /// Σ of every operator's output rows (`ExecProfile`).
    pub rows_examined: u64,
    /// max(est/actual, actual/est) of the plan's output rows, both ≥ 1.
    pub q_error: f64,
}

#[derive(Clone, Copy)]
pub struct ColdRead {
    pub epoch: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
}

#[derive(Default)]
pub struct Gates {
    pub checks: u64,
    pub failures: Vec<String>,
    /// The disk ≡ memory gate's reads and what they asked of the file system.
    pub cold_reads: Vec<ColdRead>,
    pub cold_io: IoCounts,
}

impl Gates {
    fn check(&mut self, gate: &str, verdict: Result<(), String>) {
        self.checks += 1;
        if let Err(what) = verdict {
            self.failures.push(format!("{gate}: {what}"));
        }
    }
}

// ---------------------------------------------------------------------------
// obs

/// `smv::obs` switched on for as long as this lives.
pub struct ObsOn(#[allow(dead_code)] ScopedEnable);

pub fn obs_on() -> ObsOn {
    smv::obs::global().reset();
    let _ = smv::obs::drain_spans();
    ObsOn(ScopedEnable::new())
}

/// Number of spans the library recorded since the last call.
pub fn obs_drain_span_count() -> usize {
    smv::obs::drain_spans().len()
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
