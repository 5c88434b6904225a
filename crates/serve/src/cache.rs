//! The service's cache: one table, three key spaces, one lock.
//!
//! * **patterns** — query text → parsed pattern, with spellings that
//!   render to the same canonical form sharing one entry;
//! * **plans** — keyed by canonical-form fingerprint × summary geometry
//!   token × epoch, so an entry can never outlive the statistics and view
//!   set it was ranked against. A fingerprint is not an identity (two
//!   canonical forms can share one), so a plan or result entry also holds
//!   the pattern it was stored for and answers only that pattern;
//! * **results** — keyed by canonical-form fingerprint × plan
//!   fingerprint, with a view → keys reverse index: maintenance kills
//!   exactly the entries whose read set was touched, and untouched entries
//!   keep serving across epoch bumps — their extents are `Arc`-identical
//!   to the live ones, so the cached bytes equal a fresh execution.
//!   This layer is bounded in bytes, not entries: each answer is charged
//!   once, when it is admitted, [`NestedRelation::heap_bytes`] plus a
//!   fixed `ENTRY_BYTES`, and the layer evicts until the charges fit
//!   its budget. An answer charged more than the whole budget is served
//!   but not admitted.
//!
//! A request walks all three in one critical section (`CacheTable::probe`),
//! which answers a hit and counts it. A walk that stops short says where
//! (`Probe`); the miss path parses, ranks or executes outside the lock and
//! hands each step back, one critical section that caches it and walks on.
//! The lock is never held across parsing, ranking or execution, and a
//! poisoned one is recovered (`lock` below): the maps are whole between
//! any two steps of a critical section. Eviction is insertion-order
//! (FIFO) in every layer: the hot set is refreshed by re-insertion after
//! invalidation, and FIFO needs no per-hit bookkeeping. What an eviction
//! or a replacement takes out of the result layer is freed after the lock
//! is released.

use crate::service::ServiceStats;
use smv_algebra::{NestedRelation, Plan, PlanEstimate};
use smv_pattern::{canonical_form, Pattern};
use smv_xml::fasthash::FastBuild;
use smv_xml::wire::fnv64;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, taking the guard out of a poisoned mutex: a lock in this
/// crate guards a value that is whole whenever a panic can unwind through
/// its holder (see the module docs), so the poison flag carries no news.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread panics while holding `m`'s guard (tests of the recovery in
/// [`lock`]).
#[cfg(test)]
pub(crate) fn poison<T: Send>(m: &Mutex<T>) {
    std::thread::scope(|s| {
        let panicked = s
            .spawn(|| {
                let _guard = m.lock();
                panic!("poisoning a lock on purpose");
            })
            .join();
        assert!(panicked.is_err());
    });
}

/// FNV-1a ([`fnv64`]) of canonical pattern text — the hash
/// [`smv_algebra::plan_fingerprint`] takes of plans. A fingerprint, not an
/// identity: two canonical forms can share one.
pub fn text_fingerprint(text: &str) -> u64 {
    fnv64(text.as_bytes())
}

/// A parsed, canonicalized query pattern — what the pattern layer hands
/// to the planning layers.
pub struct CachedPattern {
    /// The parsed pattern.
    pub pattern: Pattern,
    /// Its canonical form ([`smv_pattern::canonical_form`]).
    pub canon: String,
    /// [`text_fingerprint`] of the canonical form — the key the plan and
    /// result layers build on.
    pub canon_fp: u64,
}

/// The plan key: which canonical query, ranked against which summary
/// geometry, at which epoch. The epoch component makes every entry stale
/// the moment stats or views change — `apply`, `refresh` and view
/// registration all publish a new epoch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct PlanKey {
    canon_fp: u64,
    /// [`smv_summary::Summary::geometry_token`] of the ranked-against
    /// summary snapshot.
    geometry: (u64, u64),
    epoch: u64,
}

/// A ranked rewriting, ready to execute.
pub(crate) struct RankedPlan {
    /// The cheapest plan found.
    pub plan: Plan,
    /// [`smv_algebra::plan_fingerprint`] of [`Self::plan`].
    pub fingerprint: u64,
    /// Its estimate at ranking time.
    pub est: PlanEstimate,
    /// How many equivalent rewritings were ranked.
    pub candidates: usize,
}

/// The result key. The *plan* fingerprint is part of it: a cached row set
/// is the deterministic output of one plan over extents that invalidation
/// guarantees unchanged — if re-ranking after an epoch bump picks a
/// different plan, the key misses and the query recomputes (row order may
/// differ between equivalent plans).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct ResultKey {
    canon_fp: u64,
    plan_fp: u64,
}

/// A ranking and the pattern it was ranked for.
struct PlanEntry {
    pattern: Arc<CachedPattern>,
    plan: Arc<RankedPlan>,
}

struct ResultEntry {
    pattern: Arc<CachedPattern>,
    rows: Arc<NestedRelation>,
    reads: Vec<String>,
    /// The charge taken at admission: `rows`' heap bytes plus
    /// [`ENTRY_BYTES`].
    bytes: usize,
}

/// The fixed part of a result entry's charge: about what the entry's own
/// bookkeeping takes (the relation's header and its `Arc`, the map and
/// order slots, the read set and its reverse-index edges), so that empty
/// answers are bounded too.
pub(crate) const ENTRY_BYTES: usize = 256;

/// What an entry costs its layer's budget: a pattern or a ranking counts
/// one, so those layers are bounded by entries; a result counts its bytes.
trait Charged {
    fn charge(&self) -> usize {
        1
    }
}

impl Charged for Arc<CachedPattern> {}

impl Charged for PlanEntry {}

impl Charged for ResultEntry {
    fn charge(&self) -> usize {
        self.bytes
    }
}

/// Whether an entry stored for `stored` answers `pat`: the keys hold only
/// the canonical form's fingerprint. Spellings of one form share one
/// pattern, so a hit is one pointer compare; the text decides otherwise.
fn same_pattern(stored: &Arc<CachedPattern>, pat: &Arc<CachedPattern>) -> bool {
    Arc::ptr_eq(stored, pat) || stored.canon == pat.canon
}

/// Multiply-rotate hashing for the plan and result layers. Their keys
/// are fingerprints, already hashes, and a layer's capacity bounds how long
/// a probe among crafted colliding keys can run; client text keeps SipHash.
type ByFingerprint = FastBuild;

/// A map bounded by the sum of its entries' charges, evicting in
/// insertion order.
struct Fifo<K, V, S = RandomState> {
    map: HashMap<K, V, S>,
    order: VecDeque<K>,
    /// The most the charges may sum to.
    budget: usize,
    /// The charges of the entries in `map`, summed.
    used: usize,
}

impl<K: Clone + Eq + Hash, V: Charged, S: BuildHasher + Default> Fifo<K, V, S> {
    fn new(budget: usize) -> Fifo<K, V, S> {
        Fifo {
            map: HashMap::default(),
            order: VecDeque::new(),
            budget: budget.max(1),
            used: 0,
        }
    }

    /// Inserts `value` under `key` and returns the entries that left: the
    /// oldest ones, evicted until the charges fit the budget, then the one
    /// `value` replaced. A present key is replaced in place and keeps its
    /// place in the order, unless it reaches the front while others are
    /// evicted: it is never evicted itself, so it moves behind them. A
    /// value charged more than the whole budget is dropped and nothing
    /// leaves.
    fn insert(&mut self, key: K, value: V) -> Vec<(K, V)> {
        let charge = value.charge();
        if charge > self.budget {
            return Vec::new();
        }
        let replaced = match self.map.get_mut(&key) {
            Some(slot) => Some((key, std::mem::replace(slot, value))),
            None => {
                self.order.push_back(key.clone());
                self.map.insert(key, value);
                None
            }
        };
        if let Some((_, old)) = &replaced {
            self.used -= old.charge();
        }
        self.used += charge;
        let mut left = Vec::new();
        while self.used > self.budget {
            let oldest = self.order.pop_front().expect("an entry over budget");
            if replaced.as_ref().is_some_and(|(k, _)| *k == oldest) {
                self.order.push_back(oldest);
                continue;
            }
            let (k, v) = self.map.remove_entry(&oldest).expect("order and map agree");
            self.used -= v.charge();
            left.push((k, v));
        }
        left.extend(replaced);
        left
    }

    /// Removes and returns every entry whose key `keep` rejects.
    fn retain(&mut self, keep: impl Fn(&K) -> bool) -> Vec<(K, V)> {
        let dead: Vec<(K, V)> = self.map.extract_if(|k, _| !keep(k)).collect();
        if !dead.is_empty() {
            self.order.retain(|k| self.map.contains_key(k));
            self.used -= dead.iter().map(|(_, v)| v.charge()).sum::<usize>();
        }
        dead
    }
}

/// A request's answer as the layers saw it: the fields of a
/// `QueryResponse` the cache knows.
pub(crate) struct Answer {
    pub rows: Arc<NestedRelation>,
    pub plan_fingerprint: u64,
    pub est: PlanEstimate,
    pub candidates: usize,
    pub pattern_hit: bool,
    pub plan_hit: bool,
    pub result_hit: bool,
}

/// A request the table holds no rows for: execute `plan`, ranked for the
/// request's geometry and epoch.
pub(crate) struct Miss {
    pub pattern: Arc<CachedPattern>,
    pub plan: Arc<RankedPlan>,
    /// The layer verdicts so far.
    pub pattern_hit: bool,
    pub plan_hit: bool,
    /// Swept for a newer epoch than the request's: rows may postdate its
    /// snapshot, so take a new one (or execute uncached). Otherwise no
    /// entry, or its sweep is pending (the entry may predate it).
    pub superseded: bool,
}

/// How far one walk through the layers got.
pub(crate) enum Probe {
    /// Every layer the request needed hit; the request is counted.
    Hit(Answer),
    /// The text is not cached: parse it.
    Unparsed,
    /// The pattern is cached, no ranking for the request's geometry and
    /// epoch is: rank it.
    Unranked {
        pattern: Arc<CachedPattern>,
        pattern_hit: bool,
    },
    /// No servable rows.
    Unserved(Miss),
}

pub(crate) struct Table {
    by_text: Fifo<String, Arc<CachedPattern>>,
    by_canon: Fifo<String, Arc<CachedPattern>>,
    plans: Fifo<PlanKey, PlanEntry, ByFingerprint>,
    results: Fifo<ResultKey, ResultEntry, ByFingerprint>,
    by_view: HashMap<String, HashSet<ResultKey>>,
    /// The epoch the table has been swept through. Invariant: every
    /// result equals a fresh execution of its plan on this epoch's
    /// snapshot.
    swept: u64,
    counts: ServiceStats,
}

impl Table {
    /// The plan and result layers for `pat` on `(geometry, epoch)`.
    /// `plan_hit` is false when the caller has just ranked the plan.
    fn walk(
        &self,
        pat: &Arc<CachedPattern>,
        pattern_hit: bool,
        plan_hit: bool,
        geometry: (u64, u64),
        epoch: u64,
    ) -> Probe {
        let key = PlanKey {
            canon_fp: pat.canon_fp,
            geometry,
            epoch,
        };
        let entry = self.plans.map.get(&key);
        let Some(PlanEntry { plan, .. }) = entry.filter(|e| same_pattern(&e.pattern, pat)) else {
            return Probe::Unranked {
                pattern: Arc::clone(pat),
                pattern_hit,
            };
        };
        let key = ResultKey {
            canon_fp: pat.canon_fp,
            plan_fp: plan.fingerprint,
        };
        match self.results.map.get(&key) {
            Some(e) if epoch == self.swept && same_pattern(&e.pattern, pat) => Probe::Hit(Answer {
                rows: Arc::clone(&e.rows),
                plan_fingerprint: plan.fingerprint,
                est: plan.est,
                candidates: plan.candidates,
                pattern_hit,
                plan_hit,
                result_hit: true,
            }),
            _ => Probe::Unserved(Miss {
                pattern: Arc::clone(pat),
                plan: Arc::clone(plan),
                pattern_hit,
                plan_hit,
                superseded: epoch < self.swept,
            }),
        }
    }

    /// Counts `a`'s request.
    fn count(&mut self, a: &Answer) {
        let c = &mut self.counts;
        c.queries += 1;
        c.pattern_hits += u64::from(a.pattern_hit);
        c.plan_hits += u64::from(a.plan_hit);
        c.result_hits += u64::from(a.result_hit);
    }

    /// Counts `probe`'s request if it was answered.
    fn counted(&mut self, probe: Probe) -> Probe {
        if let Probe::Hit(a) = &probe {
            self.count(a);
        }
        probe
    }
}

/// Drops `key`'s reverse edges.
fn unlink(by_view: &mut HashMap<String, HashSet<ResultKey>>, key: &ResultKey, reads: &[String]) {
    for v in reads {
        if let Some(set) = by_view.get_mut(v) {
            set.remove(key);
            if set.is_empty() {
                by_view.remove(v);
            }
        }
    }
}

/// The three cache layers behind one lock.
///
/// **Coherence.** The table carries the epoch it was last swept for, and
/// changes it only in [`Self::sweep`], in the same critical section that
/// kills the results that epoch's mutation touched. Every walk to the
/// result layer and [`Self::executed`] compare the caller's snapshot
/// epoch with it under the same lock, so rows are served with, or
/// admitted from, a snapshot of exactly the epoch the table is valid for
/// — never one from the other side of a sweep. The epoch number is the
/// only sequence; ARCHITECTURE.md ("Query service & caching →
/// Publication protocol") has the whole argument.
pub(crate) struct CacheTable {
    pub(crate) table: Mutex<Table>,
}

impl CacheTable {
    /// An empty table evicting (FIFO) beyond the given numbers of
    /// spellings (and of canonical forms) and rankings, and beyond
    /// `result_bytes` of charged results, valid for epoch 0 (a new
    /// [`smv_views::EpochCatalog`]'s epoch).
    pub(crate) fn new(patterns: usize, plans: usize, result_bytes: usize) -> CacheTable {
        CacheTable {
            table: Mutex::new(Table {
                by_text: Fifo::new(patterns),
                by_canon: Fifo::new(patterns),
                plans: Fifo::new(plans),
                results: Fifo::new(result_bytes),
                by_view: HashMap::new(),
                swept: 0,
                counts: ServiceStats::default(),
            }),
        }
    }

    /// Text → pattern → plan → rows for a request whose snapshot is of
    /// `epoch` and has summary geometry `geometry`.
    pub(crate) fn probe(&self, text: &str, geometry: (u64, u64), epoch: u64) -> Probe {
        let mut guard = lock(&self.table);
        let t = &mut *guard;
        let probe = match t.by_text.map.get(text) {
            Some(pat) => t.walk(pat, true, true, geometry, epoch),
            None => Probe::Unparsed,
        };
        t.counted(probe)
    }

    /// After [`Probe::Unparsed`]: caches `text`'s pattern, sharing the
    /// entry of an equal canonical form seen before, and walks on.
    pub(crate) fn parsed(
        &self,
        text: &str,
        pattern: Pattern,
        geometry: (u64, u64),
        epoch: u64,
    ) -> Probe {
        let canon = canonical_form(&pattern);
        let fresh = Arc::new(CachedPattern {
            canon_fp: text_fingerprint(&canon),
            canon,
            pattern,
        });
        let mut t = lock(&self.table);
        let pat = match t.by_canon.map.get(fresh.canon.as_str()) {
            Some(shared) => Arc::clone(shared),
            None => {
                t.by_canon.insert(fresh.canon.clone(), Arc::clone(&fresh));
                fresh
            }
        };
        t.by_text.insert(text.to_owned(), Arc::clone(&pat));
        let probe = t.walk(&pat, false, true, geometry, epoch);
        t.counted(probe)
    }

    /// After [`Probe::Unranked`]: caches `plan`, ranked for `pattern` on
    /// `(geometry, epoch)`, and walks on to the rows.
    pub(crate) fn ranked(
        &self,
        pattern: &Arc<CachedPattern>,
        pattern_hit: bool,
        plan: RankedPlan,
        geometry: (u64, u64),
        epoch: u64,
    ) -> Probe {
        let key = PlanKey {
            canon_fp: pattern.canon_fp,
            geometry,
            epoch,
        };
        let entry = PlanEntry {
            pattern: Arc::clone(pattern),
            plan: Arc::new(plan),
        };
        let mut t = lock(&self.table);
        t.plans.insert(key, entry);
        let probe = t.walk(pattern, pattern_hit, false, geometry, epoch);
        t.counted(probe)
    }

    /// After [`Probe::Unserved`]: counts the request and caches `rows`,
    /// computed on the snapshot of `epoch`, with the plan's read set —
    /// unless the table is not (or no longer) valid for exactly that
    /// epoch: rows from a superseded snapshot must not slip in after the
    /// sweep that would have killed them, and rows from a snapshot the
    /// sweep has yet to reach would be killed unseen. Admitting the rows
    /// evicts the oldest results until the charges fit the budget; rows
    /// charged more than the whole budget are answered, not admitted.
    pub(crate) fn executed(&self, miss: &Miss, rows: Arc<NestedRelation>, epoch: u64) -> Answer {
        let plan = &miss.plan;
        let answer = Answer {
            rows,
            plan_fingerprint: plan.fingerprint,
            est: plan.est,
            candidates: plan.candidates,
            pattern_hit: miss.pattern_hit,
            plan_hit: miss.plan_hit,
            result_hit: false,
        };
        let key = ResultKey {
            canon_fp: miss.pattern.canon_fp,
            plan_fp: plan.fingerprint,
        };
        let reads = plan.plan.views_used();
        let bytes = ENTRY_BYTES + answer.rows.heap_bytes();
        let mut guard = lock(&self.table);
        let t = &mut *guard;
        t.count(&answer);
        // what this displaces is freed after the lock is released: freeing
        // a large row set takes milliseconds
        let mut left = Vec::new();
        let mut evicted = 0;
        if t.swept == epoch {
            let entry = ResultEntry {
                pattern: Arc::clone(&miss.pattern),
                rows: Arc::clone(&answer.rows),
                reads,
                bytes,
            };
            left = t.results.insert(key, entry);
            for (old, e) in &left {
                unlink(&mut t.by_view, old, &e.reads);
                evicted += usize::from(*old != key);
            }
            t.counts.results_evicted += evicted as u64;
            if let Some(e) = t.results.map.get(&key) {
                for v in &e.reads {
                    t.by_view.entry(v.clone()).or_default().insert(key);
                }
            }
        }
        let held = t.results.used;
        drop(guard);
        drop(left);
        smv_obs::counter_add("serve.results_evicted", evicted as u64);
        smv_obs::gauge_set("serve.result_bytes", held as i64);
        answer
    }

    /// The maintenance delta → cache invalidation edge, run once per
    /// published epoch, in epoch order: kills every result whose read set
    /// meets `views` (the views whose extents differ between `epoch` and
    /// its predecessor), drops the rankings of earlier epochs (no lookup
    /// names them again) and makes the table valid for `epoch`. Returns
    /// how many results died.
    pub(crate) fn sweep<S: AsRef<str>>(&self, views: &[S], epoch: u64) -> usize {
        let mut guard = lock(&self.table);
        let t = &mut *guard;
        debug_assert!(epoch > t.swept, "sweeps run in epoch order");
        let doomed: HashSet<ResultKey> = views
            .iter()
            .filter_map(|v| t.by_view.get(v.as_ref()))
            .flatten()
            .copied()
            .collect();
        let dead = t.results.retain(|k| !doomed.contains(k));
        for (key, e) in &dead {
            unlink(&mut t.by_view, key, &e.reads);
        }
        let stale = t.plans.retain(|k| k.epoch >= epoch);
        t.swept = epoch;
        let held = t.results.used;
        drop(guard);
        drop(stale);
        smv_obs::gauge_set("serve.result_bytes", held as i64);
        dead.len()
    }

    /// Counts an applied update batch whose sweep killed `killed` results.
    pub(crate) fn applied(&self, killed: usize) {
        let mut t = lock(&self.table);
        t.counts.batches_applied += 1;
        t.counts.results_invalidated += killed as u64;
    }

    /// The counts so far, and the bytes the result layer holds.
    pub(crate) fn counts(&self) -> ServiceStats {
        let t = lock(&self.table);
        ServiceStats {
            result_bytes: t.results.used as u64,
            ..t.counts
        }
    }

    /// Number of live results.
    pub(crate) fn results(&self) -> usize {
        lock(&self.table).results.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smv_algebra::{AttrKind, Cell, Row, Schema};
    use smv_pattern::parse_pattern;
    use smv_xml::StructId;

    const G: (u64, u64) = (0, 0);
    const T: &str = "a(/b{v})";
    /// A result budget no test here fills.
    const ROOM: usize = 1 << 20;

    fn rel() -> Arc<NestedRelation> {
        Arc::new(NestedRelation::new(Schema { cols: Vec::new() }, Vec::new()))
    }

    /// `n` two-cell rows in room for `n + spare`.
    fn rows(n: usize, spare: usize) -> Arc<NestedRelation> {
        let schema = Schema::atoms(&[("a.ID", AttrKind::Id), ("a.V", AttrKind::Value)]);
        let mut rows = Vec::with_capacity(n + spare);
        rows.extend((0..n as u64).map(|i| Row::new(vec![Cell::Id(StructId::Seq(i)), Cell::Null])));
        Arc::new(NestedRelation::new(schema, rows))
    }

    /// What the result layer charges `rows`.
    fn charge(rows: &NestedRelation) -> usize {
        ENTRY_BYTES + rows.heap_bytes()
    }

    /// A ranking whose plan reads `reads`.
    fn plan(fingerprint: u64, reads: &[&str]) -> RankedPlan {
        let scan = |v: &&str| Plan::Scan {
            view: v.to_string(),
        };
        RankedPlan {
            plan: Plan::Union {
                inputs: reads.iter().map(scan).collect(),
            },
            fingerprint,
            est: PlanEstimate {
                rows: 0.0,
                cost: 0.0,
            },
            candidates: 1,
        }
    }

    /// `text` on `epoch` through every layer, parsing and ranking (a plan
    /// reading `reads`) whatever the table lacks.
    fn walk(cache: &CacheTable, text: &str, reads: &[&str], epoch: u64) -> Probe {
        let mut probe = cache.probe(text, G, epoch);
        loop {
            probe = match probe {
                Probe::Unparsed => cache.parsed(text, parse_pattern(text).unwrap(), G, epoch),
                Probe::Unranked {
                    pattern,
                    pattern_hit,
                } => {
                    let ranked = plan(text_fingerprint(text), reads);
                    cache.ranked(&pattern, pattern_hit, ranked, G, epoch)
                }
                done => return done,
            }
        }
    }

    /// The rows the table serves `text` on `epoch`, if any.
    fn served(cache: &CacheTable, text: &str, epoch: u64) -> Option<Arc<NestedRelation>> {
        match walk(cache, text, &[], epoch) {
            Probe::Hit(a) => Some(a.rows),
            _ => None,
        }
    }

    /// Executes a request for `text` on `epoch` that found no rows; returns
    /// the rows it offered the table.
    fn execute(cache: &CacheTable, text: &str, reads: &[&str], epoch: u64) -> Arc<NestedRelation> {
        let Probe::Unserved(miss) = walk(cache, text, reads, epoch) else {
            panic!("{text} is served on epoch {epoch}");
        };
        let rows = rel();
        cache.executed(&miss, Arc::clone(&rows), epoch);
        rows
    }

    #[test]
    fn pattern_cache_shares_by_canonical_form() {
        let cache = CacheTable::new(8, 8, ROOM);
        let parse = |text| cache.parsed(text, parse_pattern(text).unwrap(), G, 0);
        assert!(matches!(cache.probe(T, G, 0), Probe::Unparsed));
        let Probe::Unranked { pattern: a, .. } = parse(T) else {
            panic!("nothing is ranked yet");
        };
        assert!(matches!(
            cache.probe("a ( / b { v } )", G, 0),
            Probe::Unparsed
        ));
        let Probe::Unranked { pattern: b, .. } = parse("a ( / b { v } )") else {
            panic!("nothing is ranked yet");
        };
        assert!(Arc::ptr_eq(&a, &b), "a text miss, but one shared entry");
        let Probe::Unranked {
            pattern: c,
            pattern_hit: true,
        } = cache.probe(T, G, 0)
        else {
            panic!("a text hit");
        };
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn plan_cache_purges_stale_epochs() {
        let cache = CacheTable::new(8, 8, ROOM);
        for epoch in 0..=2 {
            assert!(matches!(walk(&cache, T, &["v"], epoch), Probe::Unserved(_)));
        }
        cache.sweep::<&str>(&[], 2);
        assert!(matches!(cache.probe(T, G, 1), Probe::Unranked { .. }));
        assert!(matches!(cache.probe(T, G, 2), Probe::Unserved(_)));
    }

    #[test]
    fn a_present_key_is_replaced_in_place() {
        let cache = CacheTable::new(2, 2, 2 * ENTRY_BYTES);
        let parse = |text| cache.parsed(text, parse_pattern(text).unwrap(), G, 0);
        let rank = |probe| match probe {
            Probe::Unranked {
                pattern,
                pattern_hit,
            } => {
                cache.ranked(&pattern, pattern_hit, plan(1, &["v"]), G, 0);
                pattern
            }
            _ => panic!("unranked"),
        };
        // two clients both miss on each text and both hand back their work
        rank(parse("a(/b{v})"));
        parse("a(/b{v})");
        let c = rank(parse("a(/c{v})"));
        parse("a(/c{v})");
        rank(Probe::Unranked {
            pattern: c,
            pattern_hit: true,
        });
        // one slot per key, so nothing was evicted …
        assert!(matches!(cache.probe("a(/b{v})", G, 0), Probe::Unserved(_)));
        assert!(matches!(cache.probe("a(/c{v})", G, 0), Probe::Unserved(_)));
        // … and the first key is still the oldest
        parse("a(/d{v})");
        parse("a(/e{v})");
        assert!(matches!(cache.probe("a(/c{v})", G, 0), Probe::Unparsed));
        assert!(matches!(
            cache.probe("a(/e{v})", G, 0),
            Probe::Unranked { .. }
        ));
    }

    #[test]
    fn result_cache_reverse_index_kills_only_touched_entries() {
        let cache = CacheTable::new(8, 8, ROOM);
        execute(&cache, T, &["va", "vb"], 0);
        execute(&cache, "a(/c{v})", &["vc"], 0);
        assert_eq!(cache.sweep(&["vb"], 1), 1);
        assert!(served(&cache, T, 1).is_none(), "touched entry dies");
        assert!(
            served(&cache, "a(/c{v})", 1).is_some(),
            "untouched entry survives the bump"
        );
        assert_eq!(cache.sweep(&["va"], 2), 0, "no edge outlives its entry");
    }

    #[test]
    fn result_cache_serves_and_admits_only_its_swept_epoch() {
        let cache = CacheTable::new(8, 8, ROOM);
        let first = execute(&cache, T, &["va"], 0);
        // epoch 1 is published but its sweep is pending: the entry may be
        // stale for a request already on epoch 1, and fresh rows from
        // epoch 1 would be swept unseen
        execute(&cache, T, &["va"], 1);
        let old = served(&cache, T, 0).expect("still right for epoch 0");
        assert!(Arc::ptr_eq(&old, &first), "epoch-1 rows were not admitted");
        cache.sweep::<&str>(&[], 1);
        // swept for 1: a request still on epoch 0 must not see entries
        // that may have been computed on epoch 1, nor add its own
        let Probe::Unserved(miss) = walk(&cache, T, &["va"], 0) else {
            panic!("superseded");
        };
        assert!(miss.superseded);
        cache.executed(&miss, rel(), 0);
        let now = served(&cache, T, 1).expect("swept through");
        assert!(Arc::ptr_eq(&now, &first));
    }

    #[test]
    fn result_cache_evicts_fifo_at_capacity() {
        // room for two empty answers
        let cache = CacheTable::new(8, 8, 2 * ENTRY_BYTES);
        for (text, view) in [("a(/b{v})", "v0"), ("a(/c{v})", "v1"), ("a(/d{v})", "v2")] {
            execute(&cache, text, &[view], 0);
        }
        assert_eq!(cache.results(), 2);
        assert!(served(&cache, T, 0).is_none(), "oldest evicted");
        // the evicted entry's reverse-index edges are gone too
        assert_eq!(cache.sweep(&["v0"], 1), 0);
    }

    #[test]
    fn result_cache_replaces_an_entry_with_its_new_read_set() {
        let cache = CacheTable::new(8, 8, ROOM);
        // two misses on one key whose plans read different views
        let Probe::Unserved(first) = walk(&cache, T, &["va"], 0) else {
            panic!("nothing is cached yet");
        };
        let second = Miss {
            pattern: Arc::clone(&first.pattern),
            plan: Arc::new(plan(first.plan.fingerprint, &["vb"])),
            pattern_hit: true,
            plan_hit: true,
            superseded: false,
        };
        cache.executed(&first, rel(), 0);
        cache.executed(&second, rel(), 0);
        assert_eq!(cache.results(), 1);
        assert_eq!(cache.sweep(&["va"], 1), 0, "the old edge went with it");
        assert_eq!(cache.sweep(&["vb"], 2), 1);
    }

    /// Two canonical forms with one fingerprint are two patterns: neither
    /// is served the other's plan or rows, and an equal form under another
    /// entry still hits.
    #[test]
    fn a_fingerprint_collision_is_not_a_hit() {
        let cache = CacheTable::new(8, 8, ROOM);
        let forged = |canon: &str| {
            Arc::new(CachedPattern {
                pattern: parse_pattern(canon).unwrap(),
                canon: canon.to_owned(),
                canon_fp: 7,
            })
        };
        let (a, b) = (forged("a(/b{v})"), forged("a(/c{v})"));
        let Probe::Unserved(miss) = cache.ranked(&a, false, plan(1, &["va"]), G, 0) else {
            panic!("nothing is served yet");
        };
        cache.executed(&miss, rel(), 0);
        let probe = |p: &Arc<CachedPattern>| lock(&cache.table).walk(p, true, true, G, 0);
        assert!(matches!(probe(&a), Probe::Hit(_)));
        assert!(matches!(probe(&forged("a(/b{v})")), Probe::Hit(_)));
        assert!(matches!(probe(&b), Probe::Unranked { .. }), "a's plan");
        // ranked to a plan of the same fingerprint, b is still not a's rows
        let ranked = cache.ranked(&b, true, plan(1, &["vb"]), G, 0);
        assert!(matches!(ranked, Probe::Unserved(_)), "a's rows");
    }

    /// A request for `text` that found no rows on `epoch`, with a plan
    /// reading `reads`: what [`CacheTable::executed`] is handed after any
    /// probe that stops at the result layer, so executing it twice is a
    /// same-key replacement.
    fn miss(cache: &CacheTable, text: &str, reads: &[&str], epoch: u64) -> Miss {
        let pattern = match walk(cache, text, reads, epoch) {
            Probe::Unserved(miss) => miss.pattern,
            Probe::Hit(_) => Arc::clone(&lock(&cache.table).by_text.map[text]),
            _ => unreachable!("walked to the result layer"),
        };
        Miss {
            pattern,
            plan: Arc::new(plan(text_fingerprint(text), reads)),
            pattern_hit: true,
            plan_hit: true,
            superseded: false,
        }
    }

    /// The result layer's books: its total is the sum of its entries'
    /// charges and within its budget, its order lists exactly its keys, and
    /// the reverse index holds exactly the entries' read sets.
    fn assert_books(cache: &CacheTable) {
        let t = lock(&cache.table);
        let r = &t.results;
        let charged: usize = r.map.values().map(|e| e.bytes).sum();
        assert_eq!(r.used, charged, "the running total");
        assert!(r.used <= r.budget, "{} over {}", r.used, r.budget);
        for e in r.map.values() {
            assert_eq!(e.bytes, charge(&e.rows), "charged once, as admitted");
        }
        let ordered: HashSet<&ResultKey> = r.order.iter().collect();
        assert_eq!(ordered.len(), r.order.len(), "one order slot per key");
        assert_eq!(ordered, r.map.keys().collect(), "order and map agree");
        let mut edges: HashMap<&str, HashSet<ResultKey>> = HashMap::new();
        for (k, e) in &r.map {
            for v in &e.reads {
                edges.entry(v.as_str()).or_default().insert(*k);
            }
        }
        let index: HashMap<&str, HashSet<ResultKey>> = t
            .by_view
            .iter()
            .map(|(v, ks)| (v.as_str(), ks.clone()))
            .collect();
        assert_eq!(index, edges, "the reverse index");
        let used = r.used as u64;
        drop(t);
        assert_eq!(cache.counts().result_bytes, used);
    }

    const VIEWS: [&str; 4] = ["v0", "v1", "v2", "v3"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random admissions (a text of ten, up to 80 rows with spare room,
        /// one or two views read), same-key replacements and sweeps, under a
        /// budget a few answers fill and the largest exceed: the books
        /// balance after every step.
        #[test]
        fn the_result_layer_books_balance(
            ops in proptest::collection::vec((0u8..4, 0u8..10, 0usize..80, 0usize..8, 0u8..4), 1..60),
        ) {
            let cache = CacheTable::new(64, 64, 6 * ENTRY_BYTES + 4_000);
            let mut epoch = 0;
            for (op, text, n, spare, view) in ops {
                let text = format!("a(/t{text}{{v}})");
                let reads = [VIEWS[view as usize], VIEWS[(view as usize + 1) % 4]];
                let reads = &reads[..1 + usize::from(op == 1)];
                if op == 3 {
                    epoch += 1;
                    cache.sweep(&[VIEWS[view as usize]], epoch);
                } else {
                    let miss = miss(&cache, &text, reads, epoch);
                    let offered = rows(n, spare);
                    let answer = cache.executed(&miss, Arc::clone(&offered), epoch);
                    prop_assert!(Arc::ptr_eq(&answer.rows, &offered), "served");
                }
                assert_books(&cache);
            }
        }
    }

    #[test]
    fn an_answer_over_the_whole_budget_is_served_not_admitted() {
        let cache = CacheTable::new(8, 8, 3 * ENTRY_BYTES);
        execute(&cache, T, &["va"], 0);
        execute(&cache, "a(/c{v})", &["vb"], 0);
        let before = cache.counts();
        let big = rows(20, 0);
        assert!(charge(&big) > 3 * ENTRY_BYTES);
        let Probe::Unserved(m) = walk(&cache, "a(/d{v})", &["vc"], 0) else {
            panic!("nothing is cached yet");
        };
        let answer = cache.executed(&m, Arc::clone(&big), 0);
        assert!(Arc::ptr_eq(&answer.rows, &big), "served all the same");
        assert!(served(&cache, "a(/d{v})", 0).is_none(), "not admitted");
        assert!(served(&cache, T, 0).is_some() && served(&cache, "a(/c{v})", 0).is_some());
        let after = cache.counts();
        assert_eq!(after.results_evicted, 0, "evicted nothing");
        assert_eq!(after.result_bytes, before.result_bytes);
        assert_eq!(after.result_bytes, 2 * ENTRY_BYTES as u64);
        assert_eq!(cache.sweep(&["vc"], 1), 0, "no edge of it either");
        assert_books(&cache);
    }

    #[test]
    fn an_admission_evicts_the_oldest_until_it_fits() {
        let cache = CacheTable::new(8, 8, 4 * ENTRY_BYTES);
        for (text, view) in [("a(/b{v})", "v0"), ("a(/c{v})", "v1"), ("a(/d{v})", "v2")] {
            execute(&cache, text, &[view], 0);
        }
        // more than one free slot's room, less than two
        let big = rows(3, 0);
        assert!((ENTRY_BYTES..2 * ENTRY_BYTES).contains(&(charge(&big) - ENTRY_BYTES)));
        let Probe::Unserved(m) = walk(&cache, "a(/e{v})", &["v3"], 0) else {
            panic!("nothing is cached yet");
        };
        cache.executed(&m, big, 0);
        assert_eq!(cache.results(), 2);
        assert!(served(&cache, "a(/b{v})", 0).is_none(), "oldest evicted");
        assert!(served(&cache, "a(/c{v})", 0).is_none(), "second oldest too");
        assert!(served(&cache, "a(/d{v})", 0).is_some());
        assert!(served(&cache, "a(/e{v})", 0).is_some());
        assert_eq!(cache.counts().results_evicted, 2);
        let by_view = |v: &str| lock(&cache.table).by_view.contains_key(v);
        assert!(!by_view("v0") && !by_view("v1"), "unlinked");
        assert!(by_view("v2") && by_view("v3"));
        assert_books(&cache);
    }

    /// Two misses on one key whose second answer is larger: the oldest
    /// entry is the key being replaced, so the entry after it makes room.
    #[test]
    fn a_replacement_is_never_evicted_to_make_room_for_itself() {
        let cache = CacheTable::new(8, 8, 4 * ENTRY_BYTES);
        let first = miss(&cache, T, &["va"], 0);
        cache.executed(&first, rel(), 0);
        execute(&cache, "a(/c{v})", &["vb"], 0);
        execute(&cache, "a(/d{v})", &["vc"], 0);
        // room for it once one other entry leaves, not before
        let larger = rows(3, 0);
        assert!((2 * ENTRY_BYTES + 1..=3 * ENTRY_BYTES).contains(&charge(&larger)));
        cache.executed(&miss(&cache, T, &["va"], 0), Arc::clone(&larger), 0);
        let now = served(&cache, T, 0).expect("the replacement stays");
        assert!(Arc::ptr_eq(&now, &larger));
        assert!(
            served(&cache, "a(/c{v})", 0).is_none(),
            "the next oldest made room"
        );
        assert!(served(&cache, "a(/d{v})", 0).is_some());
        assert_eq!(cache.counts().results_evicted, 1);
        assert_books(&cache);
    }

    #[test]
    fn an_empty_answer_is_charged_the_fixed_charge() {
        let cache = CacheTable::new(8, 8, ROOM);
        execute(&cache, T, &["va"], 0);
        assert_eq!(rel().heap_bytes(), 0);
        assert_eq!(cache.counts().result_bytes, ENTRY_BYTES as u64);
        // a replacement is charged anew and evicts nothing
        let m = miss(&cache, T, &["vb"], 0);
        cache.executed(&m, rows(3, 1), 0);
        assert_eq!(cache.results(), 1);
        assert_eq!(cache.counts().result_bytes, charge(&rows(3, 1)) as u64);
        assert_eq!(cache.counts().results_evicted, 0);
        cache.sweep(&["vb"], 1);
        assert_eq!(cache.counts().result_bytes, 0, "a sweep subtracts");
        assert_books(&cache);
    }

    #[test]
    fn poisoned_caches_keep_serving() {
        let cache = CacheTable::new(8, 8, ROOM);
        execute(&cache, T, &["va"], 0);
        poison(&cache.table);
        assert!(cache.table.is_poisoned());
        assert!(served(&cache, T, 0).is_some(), "still a hit");
        assert_eq!(cache.sweep(&["va"], 1), 1);
    }
}
