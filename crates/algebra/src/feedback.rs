//! Runtime execution feedback: profiles, the feedback store, and
//! feedback-corrected scan cardinalities.
//!
//! The cost model of [`crate::cost`] is *static*: it estimates from
//! summary statistics and extent sizes, and its selectivity guesses
//! (saturated value sketches, independence across join inputs) can
//! misrank plans. This module closes the loop:
//!
//! * the executor's profiled entry point ([`crate::exec::execute_profiled_with`])
//!   emits an [`ExecProfile`] — the *actual* output row count of every
//!   operator, keyed by its stable [`OpPath`] into the plan tree;
//! * a [`FeedbackStore`] ingests profiles and maintains, with exponential
//!   decay across ingests, per-view scan row counts, join-selectivity
//!   memos and predicate-selectivity memos keyed by stable *plan-fragment
//!   fingerprints* (for a selection directly over a scan the key collapses
//!   to `(view, column, formula)`, for a base structural join to
//!   `(left scan, right scan, axis)` — deeper fragments key on the whole
//!   fragment);
//! * [`FeedbackCards`] decorates any [`CardSource`] with the corrected
//!   scan rows, and [`crate::cost::CostModel::with_feedback`] makes the
//!   model prefer memoized selectivities over static guesses.
//!
//! Because the rewriting enumeration is deterministic, a repeated query
//! re-enumerates the same plans and every shared fragment hits its memo —
//! the second ranking of a repeated query runs on corrected estimates.

use crate::cost::{CardSource, ScanCard};
use crate::plan::{Plan, Predicate};
use crate::struct_join::StructRel;
use smv_xml::wire::{ByteReader, ByteWriter, Fnv64};
use std::collections::{HashMap, HashSet};

/// A stable address of one operator inside a plan tree: the child-index
/// chain from the root, rendered `"1.0"` (root = `""`). Child indexing:
/// unary operators have child `0`; joins have left `0` / right `1`;
/// union branches are numbered in order.
pub type OpPath = String;

pub(crate) fn path_key(path: &[u32]) -> OpPath {
    let mut s = String::new();
    for (i, p) in path.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        s.push_str(&p.to_string());
    }
    s
}

/// Per-operator observations of one plan execution: actual output row
/// counts (the feedback loop's input), plus — same keys — inclusive
/// per-operator wall time and the number of parallel morsels/tasks the
/// operator fanned out. Row counters are deterministic at every thread
/// count; times and morsel counts are runtime artifacts and take no part
/// in equivalence comparisons ([`ExecProfile::len`]/[`ExecProfile::iter`]
/// remain row-only).
#[derive(Clone, Debug, Default)]
pub struct ExecProfile {
    rows: HashMap<OpPath, u64>,
    time_ns: HashMap<OpPath, u64>,
    morsels: HashMap<OpPath, u64>,
}

impl ExecProfile {
    /// Records (or overwrites) the output rows of the operator at `path`.
    pub fn record(&mut self, path: &[u32], out_rows: u64) {
        self.rows.insert(path_key(path), out_rows);
    }

    /// Records (or overwrites) the operator's inclusive wall time —
    /// the operator together with its inputs, as a parent frame sees it.
    pub fn record_time(&mut self, path: &[u32], ns: u64) {
        self.time_ns.insert(path_key(path), ns);
    }

    /// Adds `n` parallel morsels/tasks executed by the operator at `path`.
    pub fn add_morsels(&mut self, path: &[u32], n: u64) {
        *self.morsels.entry(path_key(path)).or_insert(0) += n;
    }

    /// Output rows of the operator at `path`, if recorded.
    pub fn rows(&self, path: &[u32]) -> Option<u64> {
        self.rows.get(&path_key(path)).copied()
    }

    /// Output rows by rendered path string (`""` = the plan root).
    pub fn rows_at(&self, path: &str) -> Option<u64> {
        self.rows.get(path).copied()
    }

    /// Inclusive wall time (ns) by rendered path string, if recorded.
    pub fn time_ns_at(&self, path: &str) -> Option<u64> {
        self.time_ns.get(path).copied()
    }

    /// Parallel morsels/tasks fanned out by the operator at `path`;
    /// `None` when the operator ran sequentially.
    pub fn morsels_at(&self, path: &str) -> Option<u64> {
        self.morsels.get(path).copied()
    }

    /// Number of operators profiled.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing was profiled.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(operator path, output rows)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.rows.iter().map(|(k, &v)| (k.as_str(), v))
    }
}

// ---- stable plan-fragment fingerprints --------------------------------
//
// FNV-1a ([`Fnv64`]): stable across runs and platforms, unlike
// `DefaultHasher`, whose initial keys are an implementation detail.

fn hash_pred(h: &mut Fnv64, pred: &Predicate) {
    match pred {
        Predicate::Value { col, formula } => {
            h.write(b"V");
            h.write_u64(*col as u64);
            h.write(formula.to_string().as_bytes());
        }
        Predicate::LabelEq { col, label } => {
            h.write(b"L");
            h.write_u64(*col as u64);
            h.write(label.as_str().as_bytes());
        }
        Predicate::NotNull { col } => {
            h.write(b"N");
            h.write_u64(*col as u64);
        }
    }
}

fn hash_plan(h: &mut Fnv64, p: &Plan) {
    match p {
        Plan::Scan { view } => {
            h.write(b"scan");
            h.write(view.as_bytes());
        }
        Plan::Select { input, pred } => {
            h.write(b"sel");
            hash_pred(h, pred);
            hash_plan(h, input);
        }
        Plan::Project { input, cols } => {
            h.write(b"proj");
            for &c in cols {
                h.write_u64(c as u64);
            }
            hash_plan(h, input);
        }
        Plan::IdJoin {
            left,
            right,
            lcol,
            rcol,
        } => {
            h.write(b"idj");
            h.write_u64(*lcol as u64);
            h.write_u64(*rcol as u64);
            hash_plan(h, left);
            hash_plan(h, right);
        }
        Plan::StructJoin {
            left,
            right,
            lcol,
            rcol,
            rel,
        } => {
            h.write(match rel {
                StructRel::Parent => b"sjp",
                StructRel::Ancestor => b"sja",
            });
            h.write_u64(*lcol as u64);
            h.write_u64(*rcol as u64);
            hash_plan(h, left);
            hash_plan(h, right);
        }
        Plan::Union { inputs } => {
            h.write(b"uni");
            h.write_u64(inputs.len() as u64);
            for i in inputs {
                hash_plan(h, i);
            }
        }
        Plan::Nest {
            input,
            key_cols,
            nested_cols,
            name,
        } => {
            h.write(b"nest");
            for &c in key_cols {
                h.write_u64(c as u64);
            }
            h.write(b"/");
            for &c in nested_cols {
                h.write_u64(c as u64);
            }
            h.write(name.as_str().as_bytes());
            hash_plan(h, input);
        }
        Plan::Unnest { input, col, outer } => {
            h.write(if *outer { b"unno" } else { b"unn." });
            h.write_u64(*col as u64);
            hash_plan(h, input);
        }
        Plan::NavigateContent {
            input,
            content_col,
            base_id_col,
            steps,
            attrs,
            optional,
            name,
        } => {
            h.write(if *optional { b"navo" } else { b"nav." });
            h.write_u64(*content_col as u64);
            h.write_u64(base_id_col.map(|c| c as u64 + 1).unwrap_or(0));
            for s in steps {
                h.write(match s.axis {
                    smv_pattern::Axis::Child => b"/",
                    smv_pattern::Axis::Descendant => b"%",
                });
                if let Some(l) = s.label {
                    h.write(l.as_str().as_bytes());
                }
            }
            h.write_u64(attrs.len() as u64);
            h.write(name.as_str().as_bytes());
            hash_plan(h, input);
        }
        Plan::DeriveParentId {
            input, col, levels, ..
        } => {
            h.write(b"vid");
            h.write_u64(*col as u64);
            h.write_u64(*levels as u64);
            hash_plan(h, input);
        }
        Plan::DupElim { input } => {
            h.write(b"dup");
            hash_plan(h, input);
        }
    }
}

/// A stable fingerprint of a plan fragment. Two structurally identical
/// fragments (same operators, views, columns, formulas) always agree, in
/// this run and the next.
pub fn plan_fingerprint(p: &Plan) -> u64 {
    let mut h = Fnv64::new();
    hash_plan(&mut h, p);
    h.finish()
}

fn select_key(input: &Plan, pred: &Predicate) -> u64 {
    let mut h = Fnv64::new();
    h.write(b"SELKEY");
    hash_pred(&mut h, pred);
    hash_plan(&mut h, input);
    h.finish()
}

fn join_key(left: &Plan, right: &Plan, lcol: usize, rcol: usize, rel: Option<StructRel>) -> u64 {
    let mut h = Fnv64::new();
    h.write(match rel {
        None => b"IDJKEY",
        Some(StructRel::Parent) => b"SJPKEY",
        Some(StructRel::Ancestor) => b"SJAKEY",
    });
    h.write_u64(lcol as u64);
    h.write_u64(rcol as u64);
    hash_plan(&mut h, left);
    hash_plan(&mut h, right);
    h.finish()
}

// ---- the feedback store ------------------------------------------------

/// Default EWMA weight of a fresh observation.
const DEFAULT_DECAY: f64 = 0.5;

/// A relaxed atomic event counter that clones by value, so the store's
/// `derive(Clone)` keeps working while `&self` lookup methods can count.
#[derive(Debug, Default)]
struct EventCounter(std::sync::atomic::AtomicU64);

impl EventCounter {
    fn bump(&self) {
        self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    fn add(&self, n: u64) {
        self.0.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }
    fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Clone for EventCounter {
    fn clone(&self) -> Self {
        EventCounter(std::sync::atomic::AtomicU64::new(self.get()))
    }
}

/// A snapshot of the store's event counters — the "is the adaptive loop
/// actually firing" numbers, also exported to a registry by
/// [`FeedbackStore::export_metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackStats {
    /// Lookups that found a memo (scan rows, fragment rows, selection or
    /// join selectivity).
    pub hits: u64,
    /// Lookups that found nothing — the cost model fell back to its
    /// static guess.
    pub misses: u64,
    /// EWMA blends onto an *existing* memo entry: each one decayed an
    /// older observation toward a fresh one.
    pub decays: u64,
    /// Memo entries dropped by
    /// [`FeedbackStore::invalidate_fingerprints_touching`].
    pub invalidated: u64,
    /// Profiles ingested.
    pub ingests: u64,
}

/// Accumulates execution feedback across queries: per-view actual scan
/// rows, selection pass-rates and join selectivities, each maintained as
/// an exponentially-decayed moving average over ingests so drifting data
/// ages out stale observations.
#[derive(Clone, Debug)]
pub struct FeedbackStore {
    /// EWMA weight of the newest observation (`1.0` = keep only the
    /// latest, `0.0` would ignore new evidence).
    decay: f64,
    scans: HashMap<String, f64>,
    selects: HashMap<u64, f64>,
    joins: HashMap<u64, f64>,
    /// Decayed actual *output rows* per plan-fragment fingerprint — every
    /// profiled operator, not just scans/selections/joins. This is what
    /// the executor's adaptive parallelize-or-not gate reads (via
    /// [`ParHints`]): input sizes are exact for materialized inputs, but
    /// whether an operator is worth fanning out also depends on how much
    /// it produces.
    frags: HashMap<u64, f64>,
    /// Reverse index: for every view, the fingerprint keys of memo
    /// entries (selections, joins, fragments) whose plan fragment scans
    /// it — what [`FeedbackStore::invalidate_fingerprints_touching`]
    /// walks when a view's extent changes under maintenance.
    by_view: HashMap<String, HashSet<u64>>,
    ingests: u64,
    hits: EventCounter,
    misses: EventCounter,
    decays: EventCounter,
    invalidated: EventCounter,
}

impl Default for FeedbackStore {
    fn default() -> Self {
        FeedbackStore::new()
    }
}

impl FeedbackStore {
    /// An empty store with the default decay.
    pub fn new() -> FeedbackStore {
        FeedbackStore::with_decay(DEFAULT_DECAY)
    }

    /// An empty store blending each new observation with weight `decay`
    /// (clamped to `(0, 1]`).
    pub fn with_decay(decay: f64) -> FeedbackStore {
        FeedbackStore {
            decay: decay.clamp(f64::MIN_POSITIVE, 1.0),
            scans: HashMap::new(),
            selects: HashMap::new(),
            joins: HashMap::new(),
            frags: HashMap::new(),
            by_view: HashMap::new(),
            ingests: 0,
            hits: EventCounter::default(),
            misses: EventCounter::default(),
            decays: EventCounter::default(),
            invalidated: EventCounter::default(),
        }
    }

    /// Event counters since construction (hits, misses, decays, …).
    pub fn stats(&self) -> FeedbackStats {
        FeedbackStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            decays: self.decays.get(),
            invalidated: self.invalidated.get(),
            ingests: self.ingests,
        }
    }

    /// Writes the event counters and memo sizes into `reg` under the
    /// `feedback.*` namespace, so a metrics snapshot answers "is the
    /// adaptive loop firing" without rerunning the feedback tests.
    pub fn export_metrics(&self, reg: &smv_obs::MetricsRegistry) {
        let s = self.stats();
        reg.gauge_set("feedback.hits", s.hits as i64);
        reg.gauge_set("feedback.misses", s.misses as i64);
        reg.gauge_set("feedback.decays", s.decays as i64);
        reg.gauge_set("feedback.invalidated", s.invalidated as i64);
        reg.gauge_set("feedback.ingests", s.ingests as i64);
        reg.gauge_set("feedback.memo_entries", self.len() as i64);
    }

    /// Number of profiles ingested.
    pub fn ingests(&self) -> u64 {
        self.ingests
    }

    /// True when no feedback has been ingested.
    pub fn is_empty(&self) -> bool {
        self.ingests == 0
    }

    /// Number of memo entries (scans + selections + joins).
    pub fn len(&self) -> usize {
        self.scans.len() + self.selects.len() + self.joins.len()
    }

    fn blend(decay: f64, slot: &mut HashMap<u64, f64>, key: u64, obs: f64, decays: &EventCounter) {
        slot.entry(key)
            .and_modify(|v| {
                *v = decay * obs + (1.0 - decay) * *v;
                decays.bump();
            })
            .or_insert(obs);
    }

    /// Counts a memo lookup, both locally and (when tracing is enabled)
    /// into the global registry.
    fn count_lookup(&self, hit: bool) {
        if hit {
            self.hits.bump();
            smv_obs::counter_add("feedback.lookup.hit", 1);
        } else {
            self.misses.bump();
            smv_obs::counter_add("feedback.lookup.miss", 1);
        }
    }

    /// Folds one execution profile into the memos. The profile must come
    /// from executing exactly `plan` (operator paths are positional).
    pub fn ingest(&mut self, plan: &Plan, profile: &ExecProfile) {
        let mut path = Vec::new();
        self.walk(plan, profile, &mut path);
        self.ingests += 1;
    }

    /// Records `key` in the reverse index under every view of the
    /// fragment it was derived from.
    fn index_key(&mut self, key: u64, views: &[String]) {
        for v in views {
            self.by_view.entry(v.clone()).or_default().insert(key);
        }
    }

    /// Walks one fragment: recurses first (collecting the set of views
    /// the fragment scans on the way up), then folds the fragment's
    /// observations into the memos, indexing every created key by those
    /// views. Returns the fragment's view set.
    fn walk(&mut self, plan: &Plan, profile: &ExecProfile, path: &mut Vec<u32>) -> Vec<String> {
        let views: Vec<String> = match plan {
            Plan::Scan { view } => vec![view.clone()],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Nest { input, .. }
            | Plan::Unnest { input, .. }
            | Plan::NavigateContent { input, .. }
            | Plan::DeriveParentId { input, .. }
            | Plan::DupElim { input } => {
                path.push(0);
                let v = self.walk(input, profile, path);
                path.pop();
                v
            }
            Plan::IdJoin { left, right, .. } | Plan::StructJoin { left, right, .. } => {
                path.push(0);
                let mut v = self.walk(left, profile, path);
                path.pop();
                path.push(1);
                let r = self.walk(right, profile, path);
                path.pop();
                for x in r {
                    if !v.contains(&x) {
                        v.push(x);
                    }
                }
                v
            }
            Plan::Union { inputs } => {
                let mut v: Vec<String> = Vec::new();
                for (i, p) in inputs.iter().enumerate() {
                    path.push(i as u32);
                    let b = self.walk(p, profile, path);
                    path.pop();
                    for x in b {
                        if !v.contains(&x) {
                            v.push(x);
                        }
                    }
                }
                v
            }
        };
        let out = profile.rows(path);
        if let Some(out) = out {
            let key = plan_fingerprint(plan);
            Self::blend(self.decay, &mut self.frags, key, out as f64, &self.decays);
            self.index_key(key, &views);
        }
        let child = |path: &mut Vec<u32>, i: u32, profile: &ExecProfile| {
            path.push(i);
            let r = profile.rows(path);
            path.pop();
            r
        };
        match plan {
            Plan::Scan { view } => {
                if let Some(out) = out {
                    let decay = self.decay;
                    let decays = &self.decays;
                    self.scans
                        .entry(view.clone())
                        .and_modify(|v| {
                            *v = decay * out as f64 + (1.0 - decay) * *v;
                            decays.bump();
                        })
                        .or_insert(out as f64);
                }
            }
            Plan::Select { input, pred } => {
                if let (Some(out), Some(inp)) = (out, child(path, 0, profile)) {
                    if inp > 0 {
                        let key = select_key(input, pred);
                        Self::blend(
                            self.decay,
                            &mut self.selects,
                            key,
                            out as f64 / inp as f64,
                            &self.decays,
                        );
                        self.index_key(key, &views);
                    }
                }
            }
            Plan::IdJoin {
                left,
                right,
                lcol,
                rcol,
            } => {
                if let (Some(out), Some(l), Some(r)) =
                    (out, child(path, 0, profile), child(path, 1, profile))
                {
                    if l > 0 && r > 0 {
                        let key = join_key(left, right, *lcol, *rcol, None);
                        Self::blend(
                            self.decay,
                            &mut self.joins,
                            key,
                            out as f64 / (l as f64 * r as f64),
                            &self.decays,
                        );
                        self.index_key(key, &views);
                    }
                }
            }
            Plan::StructJoin {
                left,
                right,
                lcol,
                rcol,
                rel,
            } => {
                if let (Some(out), Some(l), Some(r)) =
                    (out, child(path, 0, profile), child(path, 1, profile))
                {
                    if l > 0 && r > 0 {
                        let key = join_key(left, right, *lcol, *rcol, Some(*rel));
                        Self::blend(
                            self.decay,
                            &mut self.joins,
                            key,
                            out as f64 / (l as f64 * r as f64),
                            &self.decays,
                        );
                        self.index_key(key, &views);
                    }
                }
            }
            _ => {}
        }
        views
    }

    /// Drops every memo derived from a plan fragment scanning any of
    /// `views` — decayed scan rows, selection pass-rates, join
    /// selectivities and per-fragment measured output rows — and returns
    /// how many entries were removed. Call after view maintenance: an
    /// extent that changed invalidates observations made against its old
    /// contents, while memos over untouched views survive and keep
    /// steering plans.
    pub fn invalidate_fingerprints_touching<S: AsRef<str>>(&mut self, views: &[S]) -> usize {
        let mut keys: HashSet<u64> = HashSet::new();
        let mut removed = 0;
        for v in views {
            let v = v.as_ref();
            if self.scans.remove(v).is_some() {
                removed += 1;
            }
            if let Some(ks) = self.by_view.remove(v) {
                keys.extend(ks);
            }
        }
        for k in keys {
            removed += usize::from(self.selects.remove(&k).is_some());
            removed += usize::from(self.joins.remove(&k).is_some());
            removed += usize::from(self.frags.remove(&k).is_some());
        }
        self.invalidated.add(removed as u64);
        smv_obs::counter_add("feedback.invalidated", removed as u64);
        removed
    }

    /// Decayed actual scan rows observed for `view`.
    pub fn scan_rows(&self, view: &str) -> Option<f64> {
        let r = self.scans.get(view).copied();
        self.count_lookup(r.is_some());
        r
    }

    /// Decayed actual *output rows* observed for the plan fragment
    /// `fragment` (any operator — keyed by [`plan_fingerprint`]).
    pub fn measured_rows(&self, fragment: &Plan) -> Option<f64> {
        self.measured_rows_by_fingerprint(plan_fingerprint(fragment))
    }

    /// [`Self::measured_rows`] for a caller that already holds the
    /// fragment's [`plan_fingerprint`] — no plan walk, no hashing.
    pub fn measured_rows_by_fingerprint(&self, fingerprint: u64) -> Option<f64> {
        let r = self.frags.get(&fingerprint).copied();
        self.count_lookup(r.is_some());
        r
    }

    /// Memoized pass-rate of selecting `pred` over `input`.
    pub fn select_selectivity(&self, input: &Plan, pred: &Predicate) -> Option<f64> {
        let r = self.selects.get(&select_key(input, pred)).copied();
        self.count_lookup(r.is_some());
        r
    }

    /// Memoized join selectivity (`out / (|left| · |right|)`) of joining
    /// `left` and `right` on `(lcol, rcol)`; `rel = None` is `⋈_=`.
    pub fn join_selectivity(
        &self,
        left: &Plan,
        right: &Plan,
        lcol: usize,
        rcol: usize,
        rel: Option<StructRel>,
    ) -> Option<f64> {
        let r = self
            .joins
            .get(&join_key(left, right, lcol, rcol, rel))
            .copied();
        self.count_lookup(r.is_some());
        r
    }

    // ---- persistence --------------------------------------------------
    //
    // The memo keys are FNV-1a fingerprints, stable across runs and
    // platforms by construction ([`Fnv64`]), so persisting the raw
    // u64 keys is sound: a warm-started session fingerprints its plans to
    // the same values and hits the restored memos immediately.

    /// Serializes the learned state — decay, every memo map, the
    /// view→fingerprint reverse index, and the ingest count — with all
    /// map keys sorted so the bytes are deterministic for a given state.
    /// The session-local event counters (hits/misses/…) are not stored.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(1); // wire version
        w.put_f64(self.decay);
        let mut scans: Vec<&String> = self.scans.keys().collect();
        scans.sort();
        w.put_uv(scans.len() as u64);
        for k in scans {
            w.put_str(k);
            w.put_f64(self.scans[k]);
        }
        for memo in [&self.selects, &self.joins, &self.frags] {
            let mut keys: Vec<u64> = memo.keys().copied().collect();
            keys.sort_unstable();
            w.put_uv(keys.len() as u64);
            for k in keys {
                w.put_uv(k);
                w.put_f64(memo[&k]);
            }
        }
        let mut views: Vec<&String> = self.by_view.keys().collect();
        views.sort();
        w.put_uv(views.len() as u64);
        for v in views {
            w.put_str(v);
            let mut fps: Vec<u64> = self.by_view[v].iter().copied().collect();
            fps.sort_unstable();
            w.put_uv(fps.len() as u64);
            for fp in fps {
                w.put_uv(fp);
            }
        }
        w.put_uv(self.ingests);
        w.into_bytes()
    }

    /// Reconstructs a store serialized by [`FeedbackStore::to_bytes`].
    /// Event counters start at zero (they describe a session, not the
    /// learned state).
    pub fn from_bytes(bytes: &[u8]) -> Result<FeedbackStore, String> {
        let mut r = ByteReader::new(bytes);
        let version = r.get_u8()?;
        if version != 1 {
            return Err(format!("unsupported feedback wire version {version}"));
        }
        let decay = r.get_f64()?;
        if !(decay > 0.0 && decay <= 1.0) {
            return Err(format!("decay {decay} outside (0, 1]"));
        }
        let n_scans = r.get_count()?;
        let mut scans = HashMap::with_capacity(n_scans);
        for _ in 0..n_scans {
            let k = r.get_str()?;
            scans.insert(k, r.get_f64()?);
        }
        let mut memos: [HashMap<u64, f64>; 3] = Default::default();
        for memo in &mut memos {
            let n = r.get_count()?;
            memo.reserve(n);
            for _ in 0..n {
                let k = r.get_uv()?;
                memo.insert(k, r.get_f64()?);
            }
        }
        let [selects, joins, frags] = memos;
        let n_views = r.get_count()?;
        let mut by_view = HashMap::with_capacity(n_views);
        for _ in 0..n_views {
            let v = r.get_str()?;
            let n = r.get_count()?;
            let mut fps = HashSet::with_capacity(n);
            for _ in 0..n {
                fps.insert(r.get_uv()?);
            }
            by_view.insert(v, fps);
        }
        let ingests = r.get_uv()?;
        if r.remaining() != 0 {
            return Err(format!(
                "{} trailing bytes after feedback store",
                r.remaining()
            ));
        }
        Ok(FeedbackStore {
            decay,
            scans,
            selects,
            joins,
            frags,
            by_view,
            ingests,
            hits: EventCounter::default(),
            misses: EventCounter::default(),
            decays: EventCounter::default(),
            invalidated: EventCounter::default(),
        })
    }
}

/// A [`CardSource`] decorator replacing estimated scan rows with the
/// feedback store's decayed actuals where available. Column path
/// annotations still come from the inner source (feedback only observes
/// row counts).
pub struct FeedbackCards<'a> {
    inner: &'a dyn CardSource,
    store: &'a FeedbackStore,
}

impl<'a> FeedbackCards<'a> {
    /// Wraps `inner`, correcting its scan rows from `store`.
    pub fn new(inner: &'a dyn CardSource, store: &'a FeedbackStore) -> FeedbackCards<'a> {
        FeedbackCards { inner, store }
    }
}

impl CardSource for FeedbackCards<'_> {
    fn scan_card(&self, view: &str) -> Option<ScanCard> {
        let corrected = self.store.scan_rows(view);
        match (self.inner.scan_card(view), corrected) {
            (Some(mut sc), Some(rows)) => {
                sc.rows = rows;
                Some(sc)
            }
            (Some(sc), None) => Some(sc),
            // the view is unknown to the inner source but was executed:
            // feedback still knows its size (columns stay unannotated)
            (None, Some(rows)) => Some(ScanCard {
                rows,
                cols: Vec::new(),
            }),
            (None, None) => None,
        }
    }
}

// ---- adaptive parallelism hints ---------------------------------------

/// Measured output cardinalities for the fragments of one plan, snapshot
/// from a [`FeedbackStore`] before execution — the executor's adaptive
/// parallelize-or-not gate.
///
/// The static `min_par_rows` threshold only sees an operator's *input*
/// sizes; a selective join over large inputs and an explosive join over
/// small inputs both defeat it. `ParHints::for_plan` snapshots the
/// store's decayed per-fragment actual output rows for every operator of
/// the plan about to run, and the executor treats a fragment whose
/// *measured* output crosses the threshold as worth fanning out even when
/// its inputs alone would not qualify. Fragments never executed before
/// simply miss — the static gate still applies.
#[derive(Clone, Debug, Default)]
pub struct ParHints {
    rows: HashMap<u64, f64>,
}

impl ParHints {
    /// Snapshots the measured output rows of every fragment of `plan`
    /// that `store` has feedback for.
    pub fn for_plan(plan: &Plan, store: &FeedbackStore) -> ParHints {
        let mut hints = ParHints::default();
        hints.collect(plan, store);
        hints
    }

    fn collect(&mut self, plan: &Plan, store: &FeedbackStore) {
        if let Some(rows) = store.measured_rows(plan) {
            self.rows.insert(plan_fingerprint(plan), rows);
        }
        match plan {
            Plan::Scan { .. } => {}
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Nest { input, .. }
            | Plan::Unnest { input, .. }
            | Plan::NavigateContent { input, .. }
            | Plan::DeriveParentId { input, .. }
            | Plan::DupElim { input } => self.collect(input, store),
            Plan::IdJoin { left, right, .. } | Plan::StructJoin { left, right, .. } => {
                self.collect(left, store);
                self.collect(right, store);
            }
            Plan::Union { inputs } => {
                for i in inputs {
                    self.collect(i, store);
                }
            }
        }
    }

    /// Measured output rows of `fragment`, if the plan this snapshot was
    /// taken for contains it and feedback existed at snapshot time.
    pub fn measured(&self, fragment: &Plan) -> Option<f64> {
        self.rows.get(&plan_fingerprint(fragment)).copied()
    }

    /// Number of fragments with feedback.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no fragment had feedback.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NoCards;
    use smv_pattern::Formula;
    use smv_xml::Value;

    fn scan(v: &str) -> Plan {
        Plan::Scan { view: v.into() }
    }

    fn select(input: Plan, col: usize, formula: Formula) -> Plan {
        Plan::Select {
            input: Box::new(input),
            pred: Predicate::Value { col, formula },
        }
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let a = select(scan("v"), 1, Formula::ge(Value::int(3)));
        let b = select(scan("v"), 1, Formula::ge(Value::int(3)));
        let c = select(scan("v"), 1, Formula::ge(Value::int(4)));
        let d = select(scan("w"), 1, Formula::ge(Value::int(3)));
        assert_eq!(plan_fingerprint(&a), plan_fingerprint(&b));
        assert_ne!(plan_fingerprint(&a), plan_fingerprint(&c));
        assert_ne!(plan_fingerprint(&a), plan_fingerprint(&d));
    }

    #[test]
    fn ingest_builds_scan_select_and_join_memos() {
        let plan = Plan::StructJoin {
            left: Box::new(scan("a")),
            right: Box::new(select(scan("b"), 0, Formula::ge(Value::int(10)))),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Parent,
        };
        let mut prof = ExecProfile::default();
        prof.record(&[0], 100); // scan a
        prof.record(&[1, 0], 200); // scan b
        prof.record(&[1], 50); // select out of 200
        prof.record(&[], 40); // join out of 100 × 50
        let mut store = FeedbackStore::new();
        store.ingest(&plan, &prof);
        assert_eq!(store.scan_rows("a"), Some(100.0));
        assert_eq!(store.scan_rows("b"), Some(200.0));
        let sel = store
            .select_selectivity(
                &scan("b"),
                &Predicate::Value {
                    col: 0,
                    formula: Formula::ge(Value::int(10)),
                },
            )
            .unwrap();
        assert!((sel - 0.25).abs() < 1e-12);
        let jsel = store
            .join_selectivity(
                &scan("a"),
                &select(scan("b"), 0, Formula::ge(Value::int(10))),
                0,
                0,
                Some(StructRel::Parent),
            )
            .unwrap();
        assert!((jsel - 40.0 / (100.0 * 50.0)).abs() < 1e-12);
        // a different fragment misses
        assert!(store
            .join_selectivity(&scan("a"), &scan("b"), 0, 0, Some(StructRel::Parent))
            .is_none());
    }

    #[test]
    fn decay_blends_observations() {
        let plan = scan("v");
        let mut p1 = ExecProfile::default();
        p1.record(&[], 100);
        let mut p2 = ExecProfile::default();
        p2.record(&[], 200);
        let mut store = FeedbackStore::with_decay(0.5);
        store.ingest(&plan, &p1);
        store.ingest(&plan, &p2);
        assert_eq!(store.scan_rows("v"), Some(150.0));
        assert_eq!(store.ingests(), 2);
        // decay 1.0 keeps only the latest
        let mut latest = FeedbackStore::with_decay(1.0);
        latest.ingest(&plan, &p1);
        latest.ingest(&plan, &p2);
        assert_eq!(latest.scan_rows("v"), Some(200.0));
    }

    #[test]
    fn measured_rows_memo_and_par_hints_snapshot() {
        let plan = Plan::StructJoin {
            left: Box::new(scan("a")),
            right: Box::new(scan("b")),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Ancestor,
        };
        let mut prof = ExecProfile::default();
        prof.record(&[0], 100);
        prof.record(&[1], 200);
        prof.record(&[], 9000); // explosive join: output ≫ inputs
        let mut store = FeedbackStore::new();
        store.ingest(&plan, &prof);
        assert_eq!(store.measured_rows(&plan), Some(9000.0));
        assert_eq!(store.measured_rows(&scan("a")), Some(100.0));
        assert_eq!(store.measured_rows(&scan("never-ran")), None);
        assert_eq!(
            store.measured_rows_by_fingerprint(plan_fingerprint(&plan)),
            Some(9000.0),
            "a held fingerprint finds the same memo"
        );
        let hints = ParHints::for_plan(&plan, &store);
        assert_eq!(hints.len(), 3);
        assert_eq!(hints.measured(&plan), Some(9000.0));
        assert_eq!(hints.measured(&scan("b")), Some(200.0));
        assert!(hints.measured(&scan("never-ran")).is_none());
        // a fresh fragment has no hints at all
        let cold = ParHints::for_plan(&scan("never-ran"), &store);
        assert!(cold.is_empty());
    }

    #[test]
    fn invalidation_is_scoped_to_touched_views() {
        let pred = || Predicate::Value {
            col: 0,
            formula: Formula::ge(Value::int(10)),
        };
        let joined = Plan::StructJoin {
            left: Box::new(scan("a")),
            right: Box::new(Plan::Select {
                input: Box::new(scan("b")),
                pred: pred(),
            }),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Parent,
        };
        let mut prof = ExecProfile::default();
        prof.record(&[0], 100);
        prof.record(&[1, 0], 200);
        prof.record(&[1], 50);
        prof.record(&[], 40);
        let mut store = FeedbackStore::new();
        store.ingest(&joined, &prof);
        // an independent plan over an untouched view
        let mut other = ExecProfile::default();
        other.record(&[], 7);
        store.ingest(&scan("c"), &other);

        assert_eq!(store.invalidate_fingerprints_touching(&["zz"]), 0);
        let removed = store.invalidate_fingerprints_touching(&["b"]);
        assert!(removed > 0, "select, join and fragment memos touching b");
        assert!(store.select_selectivity(&scan("b"), &pred()).is_none());
        assert!(store
            .join_selectivity(
                &scan("a"),
                &Plan::Select {
                    input: Box::new(scan("b")),
                    pred: pred(),
                },
                0,
                0,
                Some(StructRel::Parent),
            )
            .is_none());
        assert!(store.measured_rows(&joined).is_none());
        assert!(store.scan_rows("b").is_none());
        // untouched views keep their feedback
        assert_eq!(store.scan_rows("a"), Some(100.0));
        assert_eq!(store.measured_rows(&scan("a")), Some(100.0));
        assert_eq!(store.scan_rows("c"), Some(7.0));
        // idempotent: everything touching b is already gone
        assert_eq!(store.invalidate_fingerprints_touching(&["b"]), 0);
    }

    #[test]
    fn feedback_cards_override_scan_rows() {
        let mut prof = ExecProfile::default();
        prof.record(&[], 42);
        let mut store = FeedbackStore::new();
        store.ingest(&scan("v"), &prof);
        let cards = FeedbackCards::new(&NoCards, &store);
        use crate::cost::CardSource;
        assert_eq!(cards.scan_card("v").unwrap().rows, 42.0);
        assert!(cards.scan_card("unknown").is_none());
    }
}
