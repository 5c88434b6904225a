//! Runtime execution feedback: profiles and the feedback store.
//!
//! The cost model of [`crate::cost`] is *static*: it estimates from
//! summary statistics and extent sizes, and its selectivity guesses
//! (saturated value sketches, independence across join inputs) can
//! misrank plans. This module closes the loop:
//!
//! * the executor's profiled entry point ([`crate::exec::execute_profiled_with`])
//!   emits an [`ExecProfile`] — the *actual* output row count of every
//!   operator, keyed by its stable [`OpPath`] into the plan tree;
//! * a [`FeedbackStore`] ingests profiles and keeps one memo: the
//!   measured output rows of every plan fragment, decayed across ingests
//!   and keyed by a stable *plan-fragment fingerprint*;
//! * [`crate::cost::CostModel::with_feedback`] derives scan rows,
//!   selection pass-rates and join selectivities from that memo in place
//!   of static guesses.
//!
//! Because the rewriting enumeration is deterministic, a repeated query
//! re-enumerates the same plans and every shared fragment hits its memo —
//! the second ranking of a repeated query runs on corrected estimates.

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
/// per-operator wall time. Row counters are deterministic; times are
/// runtime artifacts and take no part in equivalence comparisons
/// ([`ExecProfile::len`]/[`ExecProfile::iter`] are row-only).
#[derive(Clone, Debug, Default)]
pub struct ExecProfile {
    rows: HashMap<OpPath, u64>,
    time_ns: HashMap<OpPath, u64>,
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

// ---- the feedback store ------------------------------------------------

/// EWMA weight of a fresh observation.
const DECAY: f64 = 0.5;

/// Version byte of [`FeedbackStore::to_bytes`]; `from_bytes` refuses any
/// other.
const WIRE_VERSION: u8 = 2;

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
/// actually firing" numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackStats {
    /// Fragment lookups that found measured rows.
    pub hits: u64,
    /// Fragment lookups that found nothing — the cost model fell back to
    /// its static guess.
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

/// Accumulates execution feedback across queries: the actual output rows
/// of every profiled plan fragment, keyed by [`plan_fingerprint`] and
/// maintained as an exponentially-decayed moving average over ingests so
/// drifting data ages out stale observations.
///
/// That one memo is all the store keeps. The cost model derives a scan's
/// rows, a selection's pass-rate (`m(select) / m(input)`) and a join's
/// selectivity (`m(join) / (m(left) · m(right))`) from it.
#[derive(Clone, Debug, Default)]
pub struct FeedbackStore {
    /// Decayed actual output rows per plan-fragment fingerprint.
    rows: HashMap<u64, f64>,
    /// Reverse index: for every view, the fingerprints of the memoized
    /// fragments that scan it — what
    /// [`FeedbackStore::invalidate_fingerprints_touching`] walks when a
    /// view's extent changes under maintenance.
    by_view: HashMap<String, HashSet<u64>>,
    ingests: u64,
    hits: EventCounter,
    misses: EventCounter,
    decays: EventCounter,
    invalidated: EventCounter,
}

impl FeedbackStore {
    /// An empty store.
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
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

    /// Number of profiles ingested.
    pub fn ingests(&self) -> u64 {
        self.ingests
    }

    /// True when no feedback has been ingested.
    pub fn is_empty(&self) -> bool {
        self.ingests == 0
    }

    /// Number of memoized fragments.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Folds one execution profile into the memo. The profile must come
    /// from executing exactly `plan` (operator paths are positional).
    pub fn ingest(&mut self, plan: &Plan, profile: &ExecProfile) {
        let mut path = Vec::new();
        self.walk(plan, profile, &mut path);
        self.ingests += 1;
    }

    /// Walks one fragment: recurses first (collecting the set of views
    /// the fragment scans on the way up), then blends the fragment's
    /// observed output rows into the memo, indexing its fingerprint by
    /// those views. Returns the fragment's view set.
    fn walk(&mut self, plan: &Plan, profile: &ExecProfile, path: &mut Vec<u32>) -> Vec<String> {
        let mut views: Vec<String> = match plan {
            Plan::Scan { view } => vec![view.clone()],
            _ => Vec::new(),
        };
        for (i, child) in plan.children().into_iter().enumerate() {
            path.push(i as u32);
            for v in self.walk(child, profile, path) {
                if !views.contains(&v) {
                    views.push(v);
                }
            }
            path.pop();
        }
        if let Some(out) = profile.rows(path) {
            let key = plan_fingerprint(plan);
            let obs = out as f64;
            self.rows
                .entry(key)
                .and_modify(|v| {
                    *v = DECAY * obs + (1.0 - DECAY) * *v;
                    self.decays.bump();
                })
                .or_insert(obs);
            for v in &views {
                self.by_view.entry(v.clone()).or_default().insert(key);
            }
        }
        views
    }

    /// Drops the measured rows of every fragment scanning any of `views`
    /// and returns how many were removed. Call after view maintenance: an
    /// extent that changed invalidates observations made against its old
    /// contents, while fragments over untouched views keep theirs and
    /// keep steering plans.
    pub fn invalidate_fingerprints_touching<S: AsRef<str>>(&mut self, views: &[S]) -> usize {
        let mut keys: HashSet<u64> = HashSet::new();
        for v in views {
            if let Some(ks) = self.by_view.remove(v.as_ref()) {
                keys.extend(ks);
            }
        }
        if keys.is_empty() {
            return 0;
        }
        let removed = keys
            .iter()
            .filter(|k| self.rows.remove(k).is_some())
            .count();
        // a dropped fragment that also scans other views leaves their sets
        self.by_view.retain(|_, ks| {
            ks.retain(|k| !keys.contains(k));
            !ks.is_empty()
        });
        self.invalidated.add(removed as u64);
        smv_obs::counter_add("feedback.invalidated", removed as u64);
        removed
    }

    /// Decayed actual *output rows* observed for the plan fragment
    /// `fragment` (any operator — keyed by [`plan_fingerprint`]).
    pub fn measured_rows(&self, fragment: &Plan) -> Option<f64> {
        let r = self.rows.get(&plan_fingerprint(fragment)).copied();
        let (counter, name) = match r {
            Some(_) => (&self.hits, "feedback.lookup.hit"),
            None => (&self.misses, "feedback.lookup.miss"),
        };
        counter.bump();
        smv_obs::counter_add(name, 1);
        r
    }

    // ---- persistence --------------------------------------------------
    //
    // The memo keys are FNV-1a fingerprints, stable across runs and
    // platforms by construction ([`Fnv64`]), so persisting the raw
    // u64 keys is sound: a warm-started session fingerprints its plans to
    // the same values and hits the restored memo immediately.

    /// Serializes the learned state — the memo, the view→fingerprint
    /// reverse index, and the ingest count — with all keys sorted so the
    /// bytes are deterministic for a given state. The session-local event
    /// counters (hits/misses/…) are not stored.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_VERSION);
        let mut keys: Vec<u64> = self.rows.keys().copied().collect();
        keys.sort_unstable();
        w.put_uv(keys.len() as u64);
        for k in keys {
            w.put_uv(k);
            w.put_f64(self.rows[&k]);
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
        if version != WIRE_VERSION {
            return Err(format!("unsupported feedback wire version {version}"));
        }
        let n = r.get_count()?;
        let mut rows = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = r.get_uv()?;
            rows.insert(k, r.get_f64()?);
        }
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
            rows,
            by_view,
            ingests,
            ..FeedbackStore::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn parent_join(left: Plan, right: Plan) -> Plan {
        Plan::StructJoin {
            left: Box::new(left),
            right: Box::new(right),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Parent,
        }
    }

    /// `a ≺ σ(b)` as executed: 100 a rows, 200 b rows, 50 kept, 40 joined.
    fn join_and_profile() -> (Plan, ExecProfile) {
        let plan = parent_join(scan("a"), select(scan("b"), 0, Formula::ge(Value::int(10))));
        let mut prof = ExecProfile::default();
        prof.record(&[0], 100); // scan a
        prof.record(&[1, 0], 200); // scan b
        prof.record(&[1], 50); // select out of 200
        prof.record(&[], 40); // join out of 100 × 50
        (plan, prof)
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
        let (plan, prof) = join_and_profile();
        let mut store = FeedbackStore::new();
        store.ingest(&plan, &prof);
        assert_eq!(store.len(), 4, "one memo per profiled operator");
        assert_eq!(store.measured_rows(&scan("a")), Some(100.0));
        assert_eq!(store.measured_rows(&scan("b")), Some(200.0));
        let sel = select(scan("b"), 0, Formula::ge(Value::int(10)));
        assert_eq!(store.measured_rows(&sel), Some(50.0));
        assert_eq!(store.measured_rows(&plan), Some(40.0));
        // a different fragment misses
        assert!(store
            .measured_rows(&parent_join(scan("a"), scan("b")))
            .is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.ingests), (4, 1, 1));
    }

    #[test]
    fn decay_blends_observations() {
        let plan = scan("v");
        let mut store = FeedbackStore::new();
        for rows in [100, 200] {
            let mut p = ExecProfile::default();
            p.record(&[], rows);
            store.ingest(&plan, &p);
        }
        assert_eq!(store.measured_rows(&plan), Some(150.0));
        assert_eq!(store.ingests(), 2);
        assert_eq!(store.stats().decays, 1);
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
        // a frozen copy (what a ranking holds): later feedback stays out
        let hints = std::sync::Arc::new(store.clone());
        let mut later = ExecProfile::default();
        later.record(&[], 7);
        store.ingest(&scan("c"), &later);
        assert_eq!(store.measured_rows(&scan("c")), Some(7.0));
        assert_eq!(hints.measured_rows(&scan("c")), None);
        assert_eq!(hints.measured_rows(&plan), Some(9000.0));
    }

    #[test]
    fn invalidation_is_scoped_to_touched_views() {
        let (joined, prof) = join_and_profile();
        let mut store = FeedbackStore::new();
        store.ingest(&joined, &prof);
        // an independent plan over an untouched view
        let mut other = ExecProfile::default();
        other.record(&[], 7);
        store.ingest(&scan("c"), &other);

        assert_eq!(store.invalidate_fingerprints_touching(&["zz"]), 0);
        let removed = store.invalidate_fingerprints_touching(&["b"]);
        assert_eq!(removed, 3, "scan b, the selection over it and the join");
        let sel = select(scan("b"), 0, Formula::ge(Value::int(10)));
        assert!(store.measured_rows(&sel).is_none());
        assert!(store.measured_rows(&joined).is_none());
        assert!(store.measured_rows(&scan("b")).is_none());
        // untouched views keep their feedback
        assert_eq!(store.measured_rows(&scan("a")), Some(100.0));
        assert_eq!(store.measured_rows(&scan("c")), Some(7.0));
        // idempotent: everything touching b is already gone
        assert_eq!(store.invalidate_fingerprints_touching(&["b"]), 0);
        assert_eq!(store.stats().invalidated, 3);
    }

    #[test]
    fn invalidation_leaves_no_dead_keys_under_other_views() {
        let (joined, prof) = join_and_profile();
        let scan_a = |store: &mut FeedbackStore| {
            let mut p = ExecProfile::default();
            p.record(&[], 100);
            store.ingest(&scan("a"), &p);
        };
        let mut store = FeedbackStore::new();
        store.ingest(&joined, &prof);
        scan_a(&mut store);
        store.invalidate_fingerprints_touching(&["b"]);
        let mut fresh = FeedbackStore::new();
        scan_a(&mut fresh);
        scan_a(&mut fresh);
        assert_eq!(store.to_bytes(), fresh.to_bytes());
    }

    #[test]
    fn bytes_round_trip_and_refuse_other_versions() {
        let (joined, prof) = join_and_profile();
        let mut store = FeedbackStore::new();
        store.ingest(&joined, &prof);
        let bytes = store.to_bytes();
        let back = FeedbackStore::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.measured_rows(&joined), Some(40.0));
        assert_eq!(back.ingests(), 1);
        // version 1: decay 0.5, then four empty memos, no views, no ingests
        let mut v1 = vec![1];
        v1.extend(0.5f64.to_le_bytes());
        v1.extend([0, 0, 0, 0, 0, 0]);
        let err = FeedbackStore::from_bytes(&v1).unwrap_err();
        assert!(err.contains("version 1"), "{err}");
    }

    #[test]
    fn feedback_cards_override_scan_rows() {
        use crate::cost::{CostModel, NoCards};
        use smv_summary::Summary;
        use smv_xml::Document;
        let s = Summary::of(&Document::from_parens("r(a(b) a)"));
        // a measured scan replaces the extent size, even of a view the
        // source does not know; an unmeasured one keeps the default
        let mut prof = ExecProfile::default();
        prof.record(&[], 42);
        let mut store = FeedbackStore::new();
        store.ingest(&scan("v"), &prof);
        let model = CostModel::new(&s, &NoCards).with_feedback(&store);
        let static_model = CostModel::new(&s, &NoCards);
        assert_eq!(model.estimate(&scan("v")).rows, 42.0);
        assert_ne!(static_model.estimate(&scan("v")).rows, 42.0);
        assert_eq!(
            model.estimate(&scan("unknown")).rows,
            static_model.estimate(&scan("unknown")).rows
        );
    }
}
