//! The service's three cache layers.
//!
//! Each layer is an independently locked, capacity-bounded map that the
//! service composes per request. Every lock here is held for a few map
//! operations and never across parsing, ranking or execution, and a
//! poisoned one is recovered (`lock` below): the maps are whole between any
//! two steps of a critical section, so a panic elsewhere must not take
//! the query path down with it.
//!
//! * [`PatternCache`] — query text → parsed pattern, with spellings that
//!   render to the same canonical form sharing one entry;
//! * [`PlanCache`] — keyed by canonical-form fingerprint × summary
//!   geometry token × epoch, so an entry can never outlive the statistics
//!   and view set it was ranked against;
//! * [`ResultCache`] — keyed by canonical-form fingerprint × plan
//!   fingerprint, with a view → keys reverse index (the
//!   `FeedbackStore::invalidate_fingerprints_touching` idea applied to
//!   rows): maintenance kills exactly the entries whose read set was
//!   touched, and untouched entries keep serving across epoch bumps —
//!   their extents are `Arc`-identical to the live ones, so the cached
//!   bytes equal a fresh execution. The cache knows which epoch it has
//!   been swept through and serves or admits an entry only for a
//!   request on exactly that epoch (see [`ResultCache`]).
//!
//! Eviction is insertion-order (FIFO) everywhere: the service's hot set
//! is refreshed by re-insertion after invalidation, and FIFO avoids
//! per-hit bookkeeping on the fast path.

use smv_algebra::{NestedRelation, Plan, PlanEstimate};
use smv_pattern::{canonical_form, parse_pattern, Pattern, PatternParseError};
use std::collections::{HashMap, HashSet, VecDeque};
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

/// FNV-1a over a byte string — the same hash family as
/// [`smv_algebra::plan_fingerprint`], applied to canonical pattern text.
pub fn text_fingerprint(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A parsed, canonicalized query pattern — what the pattern cache hands
/// to the planning layers.
pub struct CachedPattern {
    /// The parsed pattern.
    pub pattern: Pattern,
    /// Its canonical form ([`smv_pattern::canonical_form`]).
    pub canon: String,
    /// [`text_fingerprint`] of the canonical form — the key the plan and
    /// result caches build on.
    pub canon_fp: u64,
}

struct PatternCacheInner {
    by_text: HashMap<String, Arc<CachedPattern>>,
    by_canon: HashMap<String, Arc<CachedPattern>>,
    text_order: VecDeque<String>,
    canon_order: VecDeque<String>,
}

/// Layer 1: query text → parsed pattern. Two spellings with the same
/// canonical form (whitespace, a redundant explicit `ret`) share one
/// [`CachedPattern`].
pub struct PatternCache {
    inner: Mutex<PatternCacheInner>,
    capacity: usize,
}

impl PatternCache {
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        poison(&self.inner);
    }

    /// An empty cache evicting (FIFO) beyond `capacity` entries.
    pub fn new(capacity: usize) -> PatternCache {
        PatternCache {
            inner: Mutex::new(PatternCacheInner {
                by_text: HashMap::new(),
                by_canon: HashMap::new(),
                text_order: VecDeque::new(),
                canon_order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Resolves `text` to a parsed pattern, parsing at most once per
    /// spelling. Returns the entry and whether it was a hit.
    pub fn get_or_parse(
        &self,
        text: &str,
    ) -> Result<(Arc<CachedPattern>, bool), PatternParseError> {
        {
            let inner = lock(&self.inner);
            if let Some(e) = inner.by_text.get(text) {
                return Ok((Arc::clone(e), true));
            }
        }
        let pattern = parse_pattern(text)?;
        let canon = canonical_form(&pattern);
        let mut inner = lock(&self.inner);
        // share the entry of an equal-canonical-form spelling seen before
        let entry = match inner.by_canon.get(&canon) {
            Some(e) => Arc::clone(e),
            None => {
                let e = Arc::new(CachedPattern {
                    canon_fp: text_fingerprint(&canon),
                    canon: canon.clone(),
                    pattern,
                });
                if inner.by_canon.len() >= self.capacity {
                    if let Some(old) = inner.canon_order.pop_front() {
                        inner.by_canon.remove(&old);
                    }
                }
                inner.by_canon.insert(canon.clone(), Arc::clone(&e));
                inner.canon_order.push_back(canon);
                e
            }
        };
        if inner.by_text.len() >= self.capacity {
            if let Some(old) = inner.text_order.pop_front() {
                inner.by_text.remove(&old);
            }
        }
        inner.by_text.insert(text.to_string(), Arc::clone(&entry));
        inner.text_order.push_back(text.to_string());
        Ok((entry, false))
    }

    /// Number of distinct spellings cached.
    pub fn len(&self) -> usize {
        lock(&self.inner).by_text.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The plan-cache key: which canonical query, ranked against which
/// summary geometry, at which epoch. The epoch component makes every
/// entry stale the moment stats or views change — `apply`, `refresh` and
/// view registration all publish a new epoch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PlanKey {
    /// [`text_fingerprint`] of the pattern's canonical form.
    pub canon_fp: u64,
    /// [`smv_summary::Summary::geometry_token`] of the ranked-against
    /// summary snapshot.
    pub geometry: (u64, u64),
    /// The epoch the ranking saw.
    pub epoch: u64,
}

/// A ranked rewriting, ready to execute.
pub struct RankedPlan {
    /// The cheapest plan found.
    pub plan: Plan,
    /// [`smv_algebra::plan_fingerprint`] of [`Self::plan`].
    pub fingerprint: u64,
    /// Its estimate at ranking time.
    pub est: PlanEstimate,
    /// How many equivalent rewritings were ranked.
    pub candidates: usize,
}

struct PlanCacheInner {
    map: HashMap<PlanKey, Arc<RankedPlan>>,
    order: VecDeque<PlanKey>,
}

/// Layer 2: ranked rewritings, reused until stats or views change.
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    capacity: usize,
}

impl PlanCache {
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        poison(&self.inner);
    }

    /// An empty cache evicting (FIFO) beyond `capacity` entries.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(PlanCacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// The cached ranking for `key`, if present.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<RankedPlan>> {
        lock(&self.inner).map.get(key).map(Arc::clone)
    }

    /// Caches a ranking.
    pub fn insert(&self, key: PlanKey, plan: Arc<RankedPlan>) {
        let mut inner = lock(&self.inner);
        while inner.map.len() >= self.capacity {
            match inner.order.pop_front() {
                Some(old) => {
                    inner.map.remove(&old);
                }
                None => break,
            }
        }
        if inner.map.insert(key, plan).is_none() {
            inner.order.push_back(key);
        }
    }

    /// Drops every entry ranked before `epoch` (their key can never be
    /// looked up again — lookups always use the current epoch). Returns
    /// how many entries died.
    pub fn purge_below(&self, epoch: u64) -> usize {
        let mut inner = lock(&self.inner);
        let before = inner.map.len();
        inner.map.retain(|k, _| k.epoch >= epoch);
        let map = std::mem::take(&mut inner.map);
        inner.order.retain(|k| map.contains_key(k));
        inner.map = map;
        before - inner.map.len()
    }

    /// Number of cached rankings.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The result-cache key. The *plan* fingerprint is part of the key: a
/// cached row set is the deterministic output of one plan over extents
/// that invalidation guarantees unchanged — if re-ranking after an epoch
/// bump picks a different plan, the key misses and the query recomputes
/// (row order may differ between equivalent plans).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ResultKey {
    /// [`text_fingerprint`] of the pattern's canonical form.
    pub canon_fp: u64,
    /// [`smv_algebra::plan_fingerprint`] of the executed plan.
    pub plan_fp: u64,
}

struct ResultEntry {
    rows: Arc<NestedRelation>,
    reads: Vec<String>,
}

struct ResultCacheInner {
    map: HashMap<ResultKey, ResultEntry>,
    by_view: HashMap<String, HashSet<ResultKey>>,
    order: VecDeque<ResultKey>,
    /// The epoch the cache has been swept through. Invariant: every
    /// entry equals a fresh execution of its plan on this epoch's
    /// snapshot.
    swept: u64,
}

/// What [`ResultCache::get`] found for a request on one epoch.
pub enum Lookup {
    /// Rows valid for the request's epoch.
    Hit(Arc<NestedRelation>),
    /// Nothing servable: no entry, or the sweep for the request's epoch
    /// has not run yet (the entry may predate it). Execute.
    Miss,
    /// The cache has been swept for a newer epoch than the request's: its
    /// entries may postdate the request's snapshot. Take a new snapshot.
    Superseded,
}

/// Layer 3: materialized answers of hot queries, killed by maintenance
/// deltas through a view → keys reverse index.
///
/// **Coherence.** The cache carries the epoch it was last swept for, and
/// changes it only in [`Self::sweep`], in the same critical section that
/// kills the entries that epoch's mutation touched. [`Self::get`] and
/// [`Self::insert_for`] compare the caller's snapshot epoch with it under
/// the same lock, so an entry is served with, or admitted from, a
/// snapshot of exactly the epoch the cache is valid for — never one from
/// the other side of a sweep. The epoch number is the only sequence;
/// ARCHITECTURE.md ("Query service & caching → Publication protocol")
/// has the whole argument.
pub struct ResultCache {
    inner: Mutex<ResultCacheInner>,
    capacity: usize,
}

impl ResultCache {
    #[cfg(test)]
    pub(crate) fn poison(&self) {
        poison(&self.inner);
    }

    /// An empty cache evicting (FIFO) beyond `capacity` entries, valid
    /// for epoch 0 (a new [`smv_views::EpochCatalog`]'s epoch).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(ResultCacheInner {
                map: HashMap::new(),
                by_view: HashMap::new(),
                order: VecDeque::new(),
                swept: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// The cached rows for `key`, for a request whose snapshot is of
    /// `epoch`.
    pub fn get(&self, key: &ResultKey, epoch: u64) -> Lookup {
        let inner = lock(&self.inner);
        match epoch.cmp(&inner.swept) {
            std::cmp::Ordering::Less => Lookup::Superseded,
            std::cmp::Ordering::Greater => Lookup::Miss,
            std::cmp::Ordering::Equal => match inner.map.get(key) {
                Some(e) => Lookup::Hit(Arc::clone(&e.rows)),
                None => Lookup::Miss,
            },
        }
    }

    /// Caches `rows`, computed on the snapshot of `epoch`, under `key`
    /// with its read set — unless the cache is not (or no longer) valid
    /// for exactly that epoch: rows from a superseded snapshot must not
    /// slip in after the sweep that would have killed them, and rows from
    /// a snapshot the sweep has yet to reach would be killed unseen.
    /// Returns whether the entry was admitted.
    pub fn insert_for(
        &self,
        key: ResultKey,
        rows: Arc<NestedRelation>,
        reads: Vec<String>,
        epoch: u64,
    ) -> bool {
        // whatever this pushes out is freed after the lock is released
        let mut dead = Vec::new();
        let mut inner = lock(&self.inner);
        if inner.swept != epoch {
            return false;
        }
        while inner.map.len() >= self.capacity {
            match inner.order.pop_front() {
                Some(old) => dead.extend(Self::remove_locked(&mut inner, &old)),
                None => break,
            }
        }
        // reverse edges before the entry: a dangling edge is harmless, an
        // entry a sweep cannot find is not
        let replaced = Self::remove_locked(&mut inner, &key);
        for v in &reads {
            inner.by_view.entry(v.clone()).or_default().insert(key);
        }
        if replaced.is_none() {
            inner.order.push_back(key);
        }
        dead.extend(replaced);
        inner.map.insert(key, ResultEntry { rows, reads });
        drop(inner);
        true
    }

    /// Unlinks `key`, handing back its rows for the caller to drop once
    /// the lock is released (freeing a large row set takes milliseconds).
    fn remove_locked(inner: &mut ResultCacheInner, key: &ResultKey) -> Option<Arc<NestedRelation>> {
        let e = inner.map.remove(key)?;
        for v in e.reads {
            if let Some(set) = inner.by_view.get_mut(&v) {
                set.remove(key);
                if set.is_empty() {
                    inner.by_view.remove(&v);
                }
            }
        }
        Some(e.rows)
    }

    /// The maintenance delta → cache invalidation edge, run once per
    /// published epoch, in epoch order: kills every entry whose read set
    /// meets `views` (the views whose extents differ between `epoch` and
    /// its predecessor) and makes the cache valid for `epoch`. Returns
    /// how many entries died.
    pub fn sweep<S: AsRef<str>>(&self, views: &[S], epoch: u64) -> usize {
        let mut inner = lock(&self.inner);
        debug_assert!(epoch > inner.swept, "sweeps run in epoch order");
        let mut doomed: HashSet<ResultKey> = HashSet::new();
        for v in views {
            if let Some(set) = inner.by_view.get(v.as_ref()) {
                doomed.extend(set.iter().copied());
            }
        }
        let dead: Vec<Arc<NestedRelation>> = doomed
            .iter()
            .filter_map(|key| Self::remove_locked(&mut inner, key))
            .collect();
        if !doomed.is_empty() {
            let map = std::mem::take(&mut inner.map);
            inner.order.retain(|k| map.contains_key(k));
            inner.map = map;
        }
        inner.swept = epoch;
        drop(inner);
        dead.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_algebra::{Plan, Schema};

    fn rel() -> Arc<NestedRelation> {
        Arc::new(NestedRelation::new(Schema { cols: Vec::new() }, Vec::new()))
    }

    #[test]
    fn pattern_cache_shares_by_canonical_form() {
        let cache = PatternCache::new(8);
        let (a, hit_a) = cache.get_or_parse("a(/b{v})").unwrap();
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_parse("a ( / b { v } )").unwrap();
        assert!(!hit_b, "different spelling: a text miss");
        assert!(Arc::ptr_eq(&a, &b), "…but the same shared entry");
        let (c, hit_c) = cache.get_or_parse("a(/b{v})").unwrap();
        assert!(hit_c);
        assert!(Arc::ptr_eq(&a, &c));
        assert!(cache.get_or_parse("a(/b{").is_err());
    }

    #[test]
    fn plan_cache_purges_stale_epochs() {
        let cache = PlanCache::new(8);
        let key = |epoch| PlanKey {
            canon_fp: 1,
            geometry: (0, 0),
            epoch,
        };
        for e in 1..=3 {
            cache.insert(
                key(e),
                Arc::new(RankedPlan {
                    plan: Plan::Scan { view: "v".into() },
                    fingerprint: e,
                    est: PlanEstimate {
                        rows: 0.0,
                        cost: 0.0,
                    },
                    candidates: 1,
                }),
            );
        }
        assert_eq!(cache.purge_below(3), 2);
        assert!(cache.get(&key(2)).is_none());
        assert_eq!(cache.get(&key(3)).unwrap().fingerprint, 3);
    }

    fn hit(cache: &ResultCache, key: &ResultKey, epoch: u64) -> bool {
        matches!(cache.get(key, epoch), Lookup::Hit(_))
    }

    #[test]
    fn result_cache_reverse_index_kills_only_touched_entries() {
        let cache = ResultCache::new(8);
        let k1 = ResultKey {
            canon_fp: 1,
            plan_fp: 1,
        };
        let k2 = ResultKey {
            canon_fp: 2,
            plan_fp: 2,
        };
        assert!(cache.insert_for(k1, rel(), vec!["va".into(), "vb".into()], 0));
        assert!(cache.insert_for(k2, rel(), vec!["vc".into()], 0));
        assert_eq!(cache.sweep(&["vb"], 1), 1);
        assert!(!hit(&cache, &k1, 1), "touched entry dies");
        assert!(hit(&cache, &k2, 1), "untouched entry survives the bump");
        assert_eq!(cache.sweep(&["va"], 2), 0, "no edge outlives its entry");
    }

    #[test]
    fn result_cache_serves_and_admits_only_its_swept_epoch() {
        let cache = ResultCache::new(8);
        let k = ResultKey {
            canon_fp: 1,
            plan_fp: 1,
        };
        assert!(cache.insert_for(k, rel(), vec!["va".into()], 0));
        // epoch 1 is published but its sweep is pending: the entry may be
        // stale for a request already on epoch 1, and fresh rows from
        // epoch 1 would be swept unseen
        assert!(matches!(cache.get(&k, 1), Lookup::Miss));
        assert!(!cache.insert_for(k, rel(), vec!["va".into()], 1));
        assert!(hit(&cache, &k, 0), "still right for a request on epoch 0");
        cache.sweep::<&str>(&[], 1);
        // swept for 1: a request still on epoch 0 must not see entries
        // that may have been computed on epoch 1, nor add its own
        assert!(matches!(cache.get(&k, 0), Lookup::Superseded));
        assert!(!cache.insert_for(k, rel(), vec!["va".into()], 0));
        assert!(hit(&cache, &k, 1));
    }

    #[test]
    fn result_cache_evicts_fifo_at_capacity() {
        let cache = ResultCache::new(2);
        for i in 0..3u64 {
            let k = ResultKey {
                canon_fp: i,
                plan_fp: i,
            };
            assert!(cache.insert_for(k, rel(), vec![format!("v{i}")], 0));
        }
        assert_eq!(cache.len(), 2);
        let oldest = ResultKey {
            canon_fp: 0,
            plan_fp: 0,
        };
        assert!(!hit(&cache, &oldest, 0), "oldest evicted");
        // the evicted entry's reverse-index edges are gone too
        assert_eq!(cache.sweep(&["v0"], 1), 0);
    }

    #[test]
    fn result_cache_replaces_an_entry_with_its_new_read_set() {
        let cache = ResultCache::new(8);
        let k = ResultKey {
            canon_fp: 1,
            plan_fp: 1,
        };
        assert!(cache.insert_for(k, rel(), vec!["va".into()], 0));
        assert!(cache.insert_for(k, rel(), vec!["vb".into()], 0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.sweep(&["va"], 1), 0, "the old edge went with it");
        assert_eq!(cache.sweep(&["vb"], 2), 1);
    }

    #[test]
    fn poisoned_caches_keep_serving() {
        let patterns = PatternCache::new(8);
        let plans = PlanCache::new(8);
        let results = ResultCache::new(8);
        let k = ResultKey {
            canon_fp: 1,
            plan_fp: 1,
        };
        patterns.get_or_parse("a(/b{v})").unwrap();
        assert!(results.insert_for(k, rel(), vec!["va".into()], 0));
        patterns.poison();
        plans.poison();
        results.poison();
        assert!(patterns.inner.is_poisoned() && results.inner.is_poisoned());
        assert!(patterns.get_or_parse("a(/b{v})").unwrap().1, "still a hit");
        assert_eq!(plans.len(), 0);
        assert_eq!(plans.purge_below(1), 0);
        assert!(hit(&results, &k, 0));
        assert_eq!(results.sweep(&["va"], 1), 1);
    }
}
