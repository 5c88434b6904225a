//! Epoch-versioned catalog with incremental view maintenance.
//!
//! The mutable [`crate::Catalog`] is a build-once structure: documents
//! change, you rebuild. This module is the live-store counterpart.
//! Queries run against an immutable [`CatalogEpoch`] snapshot (an
//! `Arc`-cloned value — in-flight queries are never invalidated by
//! concurrent maintenance), while an [`EpochCatalog`] owns the evolving
//! state: a [`LiveDoc`] with stable node identity, a maintained
//! [`Summary`], and per-view extents kept current under document
//! **update batches**. Applying a batch maintains each view and
//! atomically publishes the next epoch into a shared publication cell;
//! an [`EpochReader`] handle on that cell lets other threads take
//! snapshots without ever touching the `EpochCatalog` (and whatever
//! lock guards it) — the pointer swap in the cell is the only instant a
//! reader can contend with maintenance.
//!
//! Maintenance is *delta* work where the view shape permits it
//! ([`RefreshClass::Incremental`]) and a full re-materialization
//! otherwise:
//!
//! * **Deletions** become row kills. A deleted subtree's node IDs are
//!   never re-issued by [`LiveDoc`], so membership of any stored ID cell
//!   in the batch's kill set is an exact death certificate for a row.
//!   When a view's extent is shard-partitioned, the partition's
//!   pre-order interval metadata (`pre`/`last_desc` of each shard's
//!   summary path) prunes the scan: shards whose path interval does not
//!   meet any deleted subtree's path interval cannot hold killed rows
//!   and are retained wholesale.
//! * **Insertions** become a restricted re-evaluation. For a monotone
//!   pattern, every new result embedding binds at least one pattern node
//!   to an inserted document node; pinning each pattern node in turn to
//!   the inserted-subtree intervals (and its pattern ancestors to the
//!   insertion spine or the inserted subtrees) enumerates exactly the
//!   added rows, which union into the surviving extent under set
//!   semantics.
//!
//! The maintained result is required to be **byte-identical** to a
//! from-scratch rebuild over the same live document —
//! [`EpochCatalog::rebuild_from_scratch`] is the oracle the test suite
//! and the benchmark's `maintenance_equivalent` flag check against.

use crate::catalog::{shard_extent_classified, shard_extent_with, View, ViewStore};
use crate::materialize::{eval_embeddings, materialize_with, own_cells};
use smv_algebra::{AttrKind, Cell, ColKind, NestedRelation, Row, ShardPartition, ViewProvider};
use smv_pattern::{Axis, MatchTarget, Matcher, PNodeId, Pattern};
use smv_summary::Summary;
use smv_xml::{
    Document, IdAssignment, IdScheme, LiveDoc, LiveError, NodeId, StructId, UpdateBatch,
};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// When a view's extent is brought up to date, mirroring SQL
/// materialized-view refresh semantics (`WITH DATA` / `WITH NO DATA`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefreshPolicy {
    /// Materialized at registration and maintained on every batch
    /// (`WITH DATA`): always present in published epochs.
    Eager,
    /// Registered without an extent (`WITH NO DATA`): excluded from
    /// published epochs until [`EpochCatalog::refresh`] populates it,
    /// and marked stale again by the next batch.
    Deferred,
}

/// How a view's extent can be maintained under an update batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefreshClass {
    /// Delta-maintainable: kill rows by deleted-ID membership, add rows
    /// by restricted re-evaluation. Requires a monotone pattern whose
    /// result rows carry their own death certificate — no optional or
    /// nested edges, no content attributes (a serialized subtree can
    /// change without any stored ID dying), and an ID attribute on every
    /// leaf pattern node (so every embedding that loses *any* binding
    /// loses a stored ID with it).
    Incremental,
    /// Anything else: re-materialized in full (still against the live
    /// IDs) on every eager refresh.
    Rebuild,
}

/// Classifies a pattern for maintenance (see [`RefreshClass`]).
pub fn refresh_class(p: &Pattern) -> RefreshClass {
    let incremental = p.optional_edges().is_empty()
        && p.nested_edges().is_empty()
        && p.iter().all(|n| !p.node(n).attrs.content)
        && p.iter()
            .filter(|&n| p.children(n).is_empty())
            .all(|n| p.node(n).attrs.id);
    if incremental {
        RefreshClass::Incremental
    } else {
        RefreshClass::Rebuild
    }
}

/// An immutable catalog snapshot: the view definitions, extents, shard
/// partitions and summary snapshot current at one epoch. Cheap to hold
/// (extents and partitions are `Arc`-shared with the store and with
/// neighboring epochs) and never mutated — a query planned and executed
/// against an epoch sees one consistent version of the data no matter
/// how many batches are applied concurrently.
#[derive(Clone)]
pub struct CatalogEpoch {
    epoch: u64,
    views: Vec<View>,
    extents: HashMap<String, Arc<NestedRelation>>,
    shards: HashMap<String, Arc<ShardPartition>>,
    summary: Summary,
}

impl CatalogEpoch {
    /// The epoch number (monotonically increasing per publish).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The summary snapshot taken when this epoch was published.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }
}

impl ViewStore for CatalogEpoch {
    fn views(&self) -> &[View] {
        &self.views
    }

    fn extent_rows(&self, name: &str) -> Option<usize> {
        self.extents.get(name).map(|r| r.len())
    }
}

impl ViewProvider for CatalogEpoch {
    fn extent(&self, name: &str) -> Option<&NestedRelation> {
        self.extents.get(name).map(Arc::as_ref)
    }

    fn shard_partition(&self, name: &str) -> Option<&ShardPartition> {
        self.shards.get(name).map(Arc::as_ref)
    }
}

/// A cloneable, `Send + Sync` handle on an [`EpochCatalog`]'s publication
/// cell: the one place the catalog's writer and its readers share.
///
/// The cell holds the current `Arc<CatalogEpoch>` behind a lock that is
/// only ever held for one `Arc` clone (readers) or one pointer swap
/// (`EpochCatalog`'s publish — the next epoch is assembled before the
/// lock is taken and the previous one is dropped after it is released).
/// A reader therefore never waits for maintenance, however long the
/// thread that owns the `EpochCatalog` spends inside `apply`. The cell
/// always holds a whole value, so a poisoned lock is recovered, not
/// propagated.
#[derive(Clone)]
pub struct EpochReader {
    cell: Arc<RwLock<Arc<CatalogEpoch>>>,
}

impl EpochReader {
    fn new(first: Arc<CatalogEpoch>) -> EpochReader {
        EpochReader {
            cell: Arc::new(RwLock::new(first)),
        }
    }

    /// The current published epoch — what a query entering now sees. The
    /// returned `Arc` stays valid (and internally consistent) however
    /// many epochs are published after.
    pub fn snapshot(&self) -> Arc<CatalogEpoch> {
        Arc::clone(&self.cell.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current published epoch's number. Always read from the
    /// published snapshot itself, so it can never be paired with a
    /// snapshot from the other side of a publication.
    pub fn epoch(&self) -> u64 {
        self.cell
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .epoch
    }

    /// The pointer swap. The superseded epoch is dropped after the lock
    /// is released: if this was its last reference, freeing its maps must
    /// not happen while readers wait.
    fn store(&self, next: Arc<CatalogEpoch>) {
        let superseded = {
            let mut cell = self.cell.write().unwrap_or_else(PoisonError::into_inner);
            std::mem::replace(&mut *cell, next)
        };
        drop(superseded);
    }
}

/// What one applied batch did to the store — consumed by adaptive
/// sessions to invalidate cached plan feedback for touched views.
#[derive(Clone, Debug)]
pub struct MaintenanceReport {
    /// The epoch this batch published.
    pub epoch: u64,
    /// Eager views whose extents changed (delta-maintained or rebuilt).
    pub refreshed: Vec<String>,
    /// Deferred views marked stale by this batch.
    pub deferred_stale: Vec<String>,
    /// Rows killed across delta-maintained extents.
    pub rows_killed: usize,
    /// Rows added across delta-maintained extents.
    pub rows_added: usize,
    /// Did the batch create summary paths (invalidating rank geometry)?
    pub geometry_changed: bool,
    /// Nanoseconds ingesting the batch into the live document (ID
    /// resolution, arena rebuild, ID-index maintenance) — a cost any
    /// maintenance strategy, delta or rebuild, pays before view work.
    pub ingest_ns: u64,
    /// Nanoseconds on maintenance proper: summary update, extent
    /// delta/rebuild work and re-sharding (publication excluded —
    /// see [`publish_ns`](Self::publish_ns)).
    pub maintain_ns: u64,
    /// Nanoseconds atomically publishing the new epoch (snapshot
    /// assembly and pointer swap) — the readers-visible cutover cost.
    pub publish_ns: u64,
}

struct Registered {
    view: View,
    policy: RefreshPolicy,
    class: RefreshClass,
    /// Deferred views start stale and return to stale after every batch.
    stale: bool,
}

/// The mutable handle of the epoch store: owns the live document, the
/// maintained summary and the evolving per-view state, and publishes an
/// immutable [`CatalogEpoch`] after every change.
pub struct EpochCatalog {
    live: LiveDoc,
    summary: Summary,
    /// Classification of the current live document (`classes[node] =
    /// summary path`), carried across batches — [`Summary::classify`] is
    /// an O(doc) label search, so maintenance derives the next map
    /// incrementally instead of recomputing it.
    classes: Vec<NodeId>,
    registered: Vec<Registered>,
    extents: HashMap<String, Arc<NestedRelation>>,
    shards: HashMap<String, Arc<ShardPartition>>,
    epoch: u64,
    published: EpochReader,
    reports: Vec<MaintenanceReport>,
}

impl EpochCatalog {
    /// Takes ownership of `doc` as the live document, with node IDs
    /// assigned under `scheme`. Every registered view shares the store's
    /// scheme — the whole point is one stable identity space.
    pub fn new(doc: Document, scheme: IdScheme) -> EpochCatalog {
        let live = LiveDoc::new(doc, scheme);
        let summary = Summary::of(live.doc());
        let classes = summary
            .classify(live.doc())
            .expect("a document conforms to its own summary");
        let published = EpochReader::new(Arc::new(CatalogEpoch {
            epoch: 0,
            views: Vec::new(),
            extents: HashMap::new(),
            shards: HashMap::new(),
            summary: summary.snapshot(),
        }));
        EpochCatalog {
            live,
            summary,
            classes,
            registered: Vec::new(),
            extents: HashMap::new(),
            shards: HashMap::new(),
            epoch: 0,
            published,
            reports: Vec::new(),
        }
    }

    /// The store's ID scheme.
    pub fn scheme(&self) -> IdScheme {
        self.live.scheme()
    }

    /// The live document.
    pub fn live(&self) -> &LiveDoc {
        &self.live
    }

    /// The maintained (live) summary — snapshots of it are published
    /// with each epoch.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current published epoch. The returned `Arc` stays valid (and
    /// internally consistent) however many batches are applied after —
    /// queries in flight against it are never invalidated.
    pub fn snapshot(&self) -> Arc<CatalogEpoch> {
        self.published.snapshot()
    }

    /// A handle on the publication cell, for threads that take snapshots
    /// while another thread owns (or holds a lock on) this catalog. It
    /// sees every epoch this catalog publishes from now on.
    pub fn reader(&self) -> EpochReader {
        self.published.clone()
    }

    /// Maintenance reports for every batch applied so far.
    pub fn reports(&self) -> &[MaintenanceReport] {
        &self.reports
    }

    /// Reports of batches published after `epoch` — what a session that
    /// last saw `epoch` must catch up on.
    pub fn reports_since(&self, epoch: u64) -> impl Iterator<Item = &MaintenanceReport> {
        self.reports.iter().filter(move |r| r.epoch > epoch)
    }

    /// Registers a view over the live document and publishes a new
    /// epoch. Eager views are materialized (against the live IDs),
    /// normalized and shard-partitioned immediately; deferred views are
    /// registered stale, excluded from epochs until [`Self::refresh`].
    /// Re-registering a name retires every piece of the old state first.
    ///
    /// # Panics
    ///
    /// If `view.scheme` differs from the store's scheme: extents store
    /// the live document's node identities, which exist in one scheme.
    pub fn add_view(&mut self, view: View, policy: RefreshPolicy) {
        assert_eq!(
            view.scheme,
            self.live.scheme(),
            "epoch store holds {:?} identities; register views in that scheme",
            self.live.scheme()
        );
        let name = view.name.clone();
        self.registered.retain(|r| r.view.name != name);
        self.extents.remove(&name);
        self.shards.remove(&name);
        let class = refresh_class(&view.pattern);
        let stale = match policy {
            RefreshPolicy::Eager => {
                let extent = materialize_with(&view.pattern, self.live.doc(), self.live.ids());
                if let Some(p) =
                    shard_extent_with(&extent, self.live.doc(), self.live.ids(), &self.summary)
                {
                    self.shards.insert(name.clone(), Arc::new(p));
                }
                self.extents.insert(name, Arc::new(extent));
                false
            }
            RefreshPolicy::Deferred => true,
        };
        self.registered.push(Registered {
            view,
            policy,
            class,
            stale,
        });
        self.publish();
    }

    /// Registers a batch of views at once, materializing and
    /// shard-partitioning eager extents in parallel on `pool` (one
    /// morsel per view, like [`crate::Catalog::add_sharded_batch`]),
    /// then publishes a **single** epoch covering the whole batch —
    /// [`Self::add_view`] in a loop would publish one epoch per view.
    /// This is the query service's ingest path: the same explicitly
    /// sized pool that executes queries does the materialization work,
    /// so one knob governs both kinds of parallelism.
    ///
    /// # Panics
    ///
    /// If any view's scheme differs from the store's scheme (see
    /// [`Self::add_view`]).
    pub fn add_views_on(
        &mut self,
        views: Vec<View>,
        policy: RefreshPolicy,
        pool: &smv_xml::par::WorkerPool,
    ) {
        for view in &views {
            assert_eq!(
                view.scheme,
                self.live.scheme(),
                "epoch store holds {:?} identities; register views in that scheme",
                self.live.scheme()
            );
        }
        let built: Vec<Option<(NestedRelation, Option<ShardPartition>)>> = match policy {
            RefreshPolicy::Eager => pool.pool_map(0, views.len(), |i| {
                let view = &views[i];
                let extent = materialize_with(&view.pattern, self.live.doc(), self.live.ids());
                let partition =
                    shard_extent_with(&extent, self.live.doc(), self.live.ids(), &self.summary);
                Some((extent, partition))
            }),
            RefreshPolicy::Deferred => views.iter().map(|_| None).collect(),
        };
        for (view, built) in views.into_iter().zip(built) {
            let name = view.name.clone();
            self.registered.retain(|r| r.view.name != name);
            self.extents.remove(&name);
            self.shards.remove(&name);
            let class = refresh_class(&view.pattern);
            let stale = match built {
                Some((extent, partition)) => {
                    if let Some(p) = partition {
                        self.shards.insert(name.clone(), Arc::new(p));
                    }
                    self.extents.insert(name, Arc::new(extent));
                    false
                }
                None => true,
            };
            self.registered.push(Registered {
                view,
                policy,
                class,
                stale,
            });
        }
        self.publish();
    }

    /// Applies one update batch: mutates the live document, maintains
    /// the summary and every eager extent, marks deferred views stale,
    /// and publishes the next epoch. Errors from [`LiveDoc::apply`]
    /// leave the store untouched (same epoch, same snapshot).
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<MaintenanceReport, LiveError> {
        let mut apply_span = smv_obs::SpanGuard::enter("epoch.apply");
        let token_before = self.summary.geometry_token();
        let t_ingest = Instant::now();
        let applied = self.live.apply(batch)?;
        let ingest_ns = t_ingest.elapsed().as_nanos() as u64;
        let t_maintain = Instant::now();

        // The cached classification of the pre-update document serves
        // both the deleted-subtree shard-pruning intervals (against the
        // pre-update summary geometry — what existing partitions were
        // stamped with) and the summary's own maintenance pass.
        let old_classes = std::mem::take(&mut self.classes);
        let deleted_intervals: Vec<(u32, u32)> = {
            let mut iv: Vec<(u32, u32)> = applied
                .deleted_roots
                .iter()
                .map(|&r| {
                    let p = old_classes[r.idx()];
                    (
                        self.summary.pre_rank(p),
                        self.summary.last_descendant_rank(p),
                    )
                })
                .collect();
            iv.sort_unstable();
            iv.dedup();
            iv
        };

        let (geometry_changed, new_classes) =
            self.summary
                .apply_update_with(&applied, self.live.doc(), &old_classes);
        self.classes = new_classes;
        let killed: HashSet<&StructId> = applied.deleted_ids.iter().collect();

        // Inserted-subtree intervals and the insertion spine, in the new
        // document. Fragment roots are grafted under distinct surviving
        // parents, so the intervals are pairwise disjoint.
        let doc = self.live.doc();
        let mut inserted_iv: Vec<(NodeId, NodeId)> = applied
            .inserted_roots
            .iter()
            .map(|&r| (r, doc.last_descendant(r)))
            .collect();
        inserted_iv.sort_unstable();
        let inserted = |y: NodeId| -> bool {
            let i = inserted_iv.partition_point(|&(s, _)| s <= y);
            i > 0 && y <= inserted_iv[i - 1].1
        };
        let mut spine: HashSet<NodeId> = HashSet::new();
        for &(r, _) in &inserted_iv {
            let mut cur = doc.parent(r);
            while let Some(p) = cur {
                if !spine.insert(p) {
                    break;
                }
                cur = doc.parent(p);
            }
        }

        let mut report = MaintenanceReport {
            epoch: 0, // stamped at publish
            refreshed: Vec::new(),
            deferred_stale: Vec::new(),
            rows_killed: 0,
            rows_added: 0,
            geometry_changed,
            ingest_ns,
            maintain_ns: 0, // stamped before return
            publish_ns: 0,  // stamped at publish
        };

        let mut new_extents: Vec<(String, NestedRelation, bool)> = Vec::new();
        for reg in &mut self.registered {
            let name = reg.view.name.clone();
            if reg.policy == RefreshPolicy::Deferred {
                if !reg.stale {
                    reg.stale = true;
                    self.extents.remove(&name);
                    self.shards.remove(&name);
                }
                report.deferred_stale.push(name);
                continue;
            }
            match reg.class {
                RefreshClass::Rebuild => {
                    let extent =
                        materialize_with(&reg.view.pattern, self.live.doc(), self.live.ids());
                    report.refreshed.push(name.clone());
                    new_extents.push((name, extent, true));
                }
                RefreshClass::Incremental => {
                    let old = self
                        .extents
                        .get(&name)
                        .cloned()
                        .expect("eager view has an extent");
                    let partition = self
                        .shards
                        .get(&name)
                        .filter(|p| p.token == token_before)
                        .cloned();
                    let retained =
                        filter_killed(&old, &killed, partition.as_deref(), &deleted_intervals);
                    let delta = if inserted_iv.is_empty() {
                        Vec::new()
                    } else {
                        delta_rows(
                            &reg.view.pattern,
                            self.live.doc(),
                            self.live.ids(),
                            &inserted_iv,
                            &inserted,
                            &spine,
                        )
                    };
                    if retained.is_none() && delta.is_empty() {
                        // untouched extent: keep the Arcs; only the rank
                        // geometry may need a re-stamp
                        if geometry_changed {
                            new_extents.push((name, (*old).clone(), false));
                        }
                        continue;
                    }
                    let survivors = retained.unwrap_or_else(|| old.rows.clone());
                    report.rows_killed += old.rows.len() - survivors.len();
                    let before = survivors.len();
                    // survivors are a subsequence of a normalized extent,
                    // so a sorted merge of the delta suffices — no
                    // whole-extent re-sort
                    let mut rel = NestedRelation::new(old.schema.clone(), survivors);
                    rel.union_sorted(delta);
                    report.rows_added += rel.len().saturating_sub(before);
                    report.refreshed.push(name.clone());
                    new_extents.push((name, rel, false));
                }
            }
        }
        // re-shard against the maintained classification and the live
        // document's ID index — O(extent rows), not O(doc), per view
        for (name, extent, _) in new_extents {
            let partition = shard_extent_classified(
                &extent,
                &self.classes,
                &|id| self.live.node_of(id),
                &self.summary,
            );
            match partition {
                Some(p) => {
                    self.shards.insert(name.clone(), Arc::new(p));
                }
                None => {
                    self.shards.remove(&name);
                }
            }
            self.extents.insert(name, Arc::new(extent));
        }

        report.maintain_ns = t_maintain.elapsed().as_nanos() as u64;
        // the pre-batch document and its IDs are freed (milliseconds on a
        // large document) before the publish, not between it and the
        // caller's reaction to it
        drop(killed);
        drop(applied);
        let t_publish = Instant::now();
        self.publish();
        report.publish_ns = t_publish.elapsed().as_nanos() as u64;
        report.epoch = self.epoch;
        apply_span.field("epoch", report.epoch);
        apply_span.field("rows_killed", report.rows_killed as u64);
        apply_span.field("rows_added", report.rows_added as u64);
        drop(apply_span);
        smv_obs::observe("epoch.ingest_ns", report.ingest_ns);
        smv_obs::observe("epoch.maintain_ns", report.maintain_ns);
        smv_obs::observe("epoch.publish_ns", report.publish_ns);
        smv_obs::counter_add("epoch.batches_applied", 1);
        smv_obs::counter_add("epoch.rows_killed", report.rows_killed as u64);
        smv_obs::counter_add("epoch.rows_added", report.rows_added as u64);
        self.reports.push(report.clone());
        Ok(report)
    }

    /// Populates (or refreshes) a deferred view's extent from the live
    /// document — the `REFRESH MATERIALIZED VIEW` analog — and publishes
    /// a new epoch including it. Returns false for unknown names; eager
    /// views are already current and are left alone.
    pub fn refresh(&mut self, name: &str) -> bool {
        let Some(i) = self.registered.iter().position(|r| r.view.name == name) else {
            return false;
        };
        if !self.registered[i].stale {
            return true;
        }
        let extent = materialize_with(
            &self.registered[i].view.pattern,
            self.live.doc(),
            self.live.ids(),
        );
        if let Some(p) = shard_extent_with(&extent, self.live.doc(), self.live.ids(), &self.summary)
        {
            self.shards.insert(name.to_owned(), Arc::new(p));
        } else {
            self.shards.remove(name);
        }
        self.extents.insert(name.to_owned(), Arc::new(extent));
        self.registered[i].stale = false;
        self.publish();
        true
    }

    /// The from-scratch oracle: re-materializes every non-stale view
    /// over the current live document (same maintained IDs — node
    /// identity is data, not an artifact of maintenance) and shards
    /// against a freshly built summary. Delta maintenance is correct iff
    /// the published epoch is byte-identical to this.
    pub fn rebuild_from_scratch(&self) -> CatalogEpoch {
        let fresh = Summary::of(self.live.doc());
        let mut extents = HashMap::new();
        let mut shards = HashMap::new();
        let mut views = Vec::new();
        for reg in self.registered.iter().filter(|r| !r.stale) {
            let extent = materialize_with(&reg.view.pattern, self.live.doc(), self.live.ids());
            if let Some(p) = shard_extent_with(&extent, self.live.doc(), self.live.ids(), &fresh) {
                shards.insert(reg.view.name.clone(), Arc::new(p));
            }
            extents.insert(reg.view.name.clone(), Arc::new(extent));
            views.push(reg.view.clone());
        }
        CatalogEpoch {
            epoch: self.epoch,
            views,
            extents,
            shards,
            summary: fresh,
        }
    }

    fn publish(&mut self) {
        self.epoch += 1;
        let views: Vec<View> = self
            .registered
            .iter()
            .filter(|r| !r.stale)
            .map(|r| r.view.clone())
            .collect();
        // assemble first, then swap: the store below is the only step a
        // concurrent `EpochReader` can wait on
        let next = Arc::new(CatalogEpoch {
            epoch: self.epoch,
            views,
            extents: self.extents.clone(),
            shards: self.shards.clone(),
            summary: self.summary.snapshot(),
        });
        self.published.store(next);
    }
}

/// Indices of top-level ID columns in a schema.
fn id_cols(rel: &NestedRelation) -> Vec<usize> {
    rel.schema
        .cols
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == ColKind::Atom(AttrKind::Id))
        .map(|(i, _)| i)
        .collect()
}

/// Removes rows whose stored IDs intersect the kill set. Returns `None`
/// when no row dies (caller keeps the old extent untouched). With a
/// single ID column and a token-valid shard partition, shards whose
/// summary-path interval misses every deleted subtree's interval are
/// retained without inspection.
fn filter_killed(
    old: &NestedRelation,
    killed: &HashSet<&StructId>,
    partition: Option<&ShardPartition>,
    deleted_intervals: &[(u32, u32)],
) -> Option<Vec<Row>> {
    if killed.is_empty() {
        return None;
    }
    let cols = id_cols(old);
    let row_dies = |row: &Row| {
        cols.iter().any(|&c| match &row.cells[c] {
            Cell::Id(id) => killed.contains(id),
            _ => false,
        })
    };
    let must_check: Option<Vec<bool>> = match (partition, deleted_intervals) {
        (Some(p), iv) if cols.len() == 1 && p.col == cols[0] => {
            let mut check = vec![false; old.rows.len()];
            for sh in &p.shards {
                if iv.iter().any(|&(s, e)| s <= sh.pre && sh.pre <= e) {
                    for &r in &sh.rows {
                        check[r] = true;
                    }
                }
            }
            for &r in &p.unclassified {
                check[r] = true;
            }
            Some(check)
        }
        _ => None,
    };
    let survives = |i: usize, row: &Row| match &must_check {
        Some(check) => !check[i] || !row_dies(row),
        None => !row_dies(row),
    };
    if old.rows.iter().enumerate().all(|(i, row)| survives(i, row)) {
        return None;
    }
    Some(
        old.rows
            .iter()
            .enumerate()
            .filter(|(i, row)| survives(*i, row))
            .map(|(_, row)| row.clone())
            .collect(),
    )
}

/// The added embeddings of a monotone pattern: for each pattern node in
/// turn, re-evaluates with that node pinned to inserted subtrees, its
/// pattern ancestors confined to the insertion spine or inserted
/// subtrees, and everything else unrestricted. Every new-touching
/// embedding binds *some* pattern node to an inserted node and its
/// pattern ancestors necessarily to spine-or-inserted nodes, so the
/// union over targets is exactly the delta (duplicates dissolve in the
/// set-semantic union with the surviving extent).
fn delta_rows(
    p: &Pattern,
    doc: &Document,
    ids: &IdAssignment,
    inserted_iv: &[(NodeId, NodeId)],
    inserted: &dyn Fn(NodeId) -> bool,
    spine: &HashSet<NodeId>,
) -> Vec<Row> {
    if let Some(chain) = chain_of(p) {
        return delta_rows_chain(p, &chain, doc, ids, inserted_iv, inserted);
    }
    let matcher = Matcher::new(p, doc);
    let mut rows = Vec::new();
    for target in p.iter() {
        let mut anc = vec![false; p.len()];
        let mut cur = p.parent(target);
        while let Some(a) = cur {
            anc[a.idx()] = true;
            cur = p.parent(a);
        }
        let allowed = |m: PNodeId, y: NodeId| -> bool {
            if m == target {
                inserted(y)
            } else if anc[m.idx()] {
                spine.contains(&y) || inserted(y)
            } else {
                true
            }
        };
        rows.extend(eval_embeddings(p, doc, ids, &matcher, &allowed));
    }
    rows
}

/// The pattern's nodes in root-to-leaf order when every node has at most
/// one child (a *chain*); `None` for branching shapes.
fn chain_of(p: &Pattern) -> Option<Vec<PNodeId>> {
    let mut chain = vec![p.root()];
    loop {
        match p.children(*chain.last().unwrap()) {
            [] => return Some(chain),
            &[c] => chain.push(c),
            _ => return None,
        }
    }
}

/// May pattern node `m` be mapped onto document node `y`? The same label
/// + value-predicate admission [`Matcher::new`] applies per candidate.
fn admits_node(p: &Pattern, m: PNodeId, doc: &Document, y: NodeId) -> bool {
    let nd = p.node(m);
    nd.label.is_none_or(|l| doc.label(y) == l) && doc.admits(y, &nd.predicate)
}

/// [`delta_rows`] for chain patterns, without building a [`Matcher`]
/// (whose candidate pools are O(|p|·|doc|) however small the batch).
///
/// A chain's bindings lie on one root-to-leaf document path, and along
/// that path the inserted bindings form a suffix (the inserted node set
/// is descendant-closed). Partitioning the new embeddings by their
/// **pivot** — the first chain position bound to an inserted node —
/// enumerates each exactly once: walk the inserted subtrees, and for
/// every (inserted node `y`, admitting position `k`) pair extend upward
/// through non-inserted nodes only (forcing `k` to be first) and
/// downward through `y`'s descendants (inserted by closure). The pivot
/// is never position 0: the pattern root binds only the document root,
/// which predates every batch.
fn delta_rows_chain(
    p: &Pattern,
    chain: &[PNodeId],
    doc: &Document,
    ids: &IdAssignment,
    inserted_iv: &[(NodeId, NodeId)],
    inserted: &dyn Fn(NodeId) -> bool,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(start, end) in inserted_iv {
        for y in (start.0..=end.0).map(NodeId) {
            for k in 1..chain.len() {
                if !admits_node(p, chain[k], doc, y) {
                    continue;
                }
                let ups = bind_up(p, chain, doc, k, y, inserted);
                if ups.is_empty() {
                    continue;
                }
                let downs = bind_down(p, chain, doc, k, y);
                for up in &ups {
                    for down in &downs {
                        let bound = up.iter().chain(Some(&y)).chain(down.iter());
                        let mut cells = Vec::new();
                        for (i, &b) in bound.enumerate() {
                            cells.extend(own_cells(p, chain[i], doc, ids, b));
                        }
                        rows.push(Row::new(cells));
                    }
                }
            }
        }
    }
    rows
}

/// Assignments for `chain[..k]` (root→leaf order) compatible with
/// position `k` bound to `below`: each step follows `chain[i]`'s axis
/// upward, admitting only non-inserted nodes, and pins position 0 to the
/// document root.
fn bind_up(
    p: &Pattern,
    chain: &[PNodeId],
    doc: &Document,
    k: usize,
    below: NodeId,
    inserted: &dyn Fn(NodeId) -> bool,
) -> Vec<Vec<NodeId>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut extend_with = |x: NodeId| {
        if inserted(x) || !admits_node(p, chain[k - 1], doc, x) || (k - 1 == 0 && x != doc.root()) {
            return;
        }
        for mut up in bind_up(p, chain, doc, k - 1, x, inserted) {
            up.push(x);
            out.push(up);
        }
    };
    match p.node(chain[k]).axis {
        Axis::Child => {
            if let Some(x) = doc.parent(below) {
                extend_with(x);
            }
        }
        Axis::Descendant => {
            let mut cur = doc.parent(below);
            while let Some(x) = cur {
                extend_with(x);
                cur = doc.parent(x);
            }
        }
    }
    out
}

/// Assignments for `chain[k + 1..]` under position `k` bound to `above`:
/// each step follows the next position's axis downward (children, or the
/// pre-order descendant interval).
fn bind_down(
    p: &Pattern,
    chain: &[PNodeId],
    doc: &Document,
    k: usize,
    above: NodeId,
) -> Vec<Vec<NodeId>> {
    if k + 1 == chain.len() {
        return vec![Vec::new()];
    }
    let m = chain[k + 1];
    let mut out = Vec::new();
    let mut extend_with = |y: NodeId| {
        if !admits_node(p, m, doc, y) {
            return;
        }
        for down in bind_down(p, chain, doc, k + 1, y) {
            let mut v = Vec::with_capacity(1 + down.len());
            v.push(y);
            v.extend(down);
            out.push(v);
        }
    };
    match p.node(m).axis {
        Axis::Child => {
            for &y in doc.children(above) {
                extend_with(y);
            }
        }
        Axis::Descendant => {
            for y in (above.0 + 1..=doc.last_descendant(above).0).map(NodeId) {
                extend_with(y);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_pattern::parse_pattern;

    fn sid(ec: &EpochCatalog, label: &str, nth: usize) -> StructId {
        let doc = ec.live().doc();
        let n = doc
            .iter()
            .filter(|&n| doc.label(n).as_str() == label)
            .nth(nth)
            .expect("labeled node");
        ec.live().ids().id(n).clone()
    }

    fn assert_epoch_matches_oracle(ec: &EpochCatalog) {
        let snap = ec.snapshot();
        let oracle = ec.rebuild_from_scratch();
        assert_eq!(
            ViewStore::views(&*snap).len(),
            ViewStore::views(&oracle).len()
        );
        for v in ViewStore::views(&oracle) {
            let got = snap.extent(&v.name).expect("maintained extent");
            let want = oracle.extent(&v.name).expect("oracle extent");
            assert_eq!(got.schema, want.schema, "schema of {}", v.name);
            assert_eq!(got.rows, want.rows, "rows of {}", v.name);
            let (gp, wp) = (
                snap.shard_partition(&v.name),
                oracle.shard_partition(&v.name),
            );
            assert_eq!(gp.is_some(), wp.is_some(), "partitioned-ness of {}", v.name);
            if let (Some(gp), Some(wp)) = (gp, wp) {
                // same row grouping per summary path (rank geometries may
                // differ: the maintained summary keeps dead paths)
                let (gs, ws): (Vec<_>, Vec<_>) = (
                    gp.shards.iter().map(|s| &s.rows).collect(),
                    wp.shards.iter().map(|s| &s.rows).collect(),
                );
                assert_eq!(gs, ws, "shard rows of {}", v.name);
                assert_eq!(gp.unclassified, wp.unclassified);
            }
        }
    }

    #[test]
    fn classifier_separates_monotone_id_leaf_patterns() {
        for (pat, class) in [
            ("a(//b{id,v})", RefreshClass::Incremental),
            ("a(/b{id}(/c{id,v}))", RefreshClass::Incremental),
            ("a(?/b{id})", RefreshClass::Rebuild), // optional edge
            ("a(%/b{id})", RefreshClass::Rebuild), // nested edge
            ("a(/b{id,c})", RefreshClass::Rebuild), // content attr
            ("a(/b{v})", RefreshClass::Rebuild),   // leaf without id
            ("a(/b{id}(/c{v}))", RefreshClass::Rebuild), // deep leaf without id
        ] {
            assert_eq!(refresh_class(&parse_pattern(pat).unwrap()), class, "{pat}");
        }
    }

    #[test]
    fn delta_maintenance_equals_rebuild_across_schemes() {
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
            let doc = Document::from_parens(r#"r(a(b="1" b="2" c(b="3")) a(b="4") x(y="9"))"#);
            let mut ec = EpochCatalog::new(doc, scheme);
            ec.add_view(
                View::new("vb", parse_pattern("r(//b{id,v})").unwrap(), scheme),
                RefreshPolicy::Eager,
            );
            ec.add_view(
                View::new(
                    "vab",
                    parse_pattern("r(/a{id}(//b{id,v}))").unwrap(),
                    scheme,
                ),
                RefreshPolicy::Eager,
            );
            // a Rebuild-class rider: optional edge
            ec.add_view(
                View::new("vy", parse_pattern("r(/x{id}(?/y{id,v}))").unwrap(), scheme),
                RefreshPolicy::Eager,
            );
            assert_epoch_matches_oracle(&ec);

            // batch 1: delete a subtree holding b's, insert fresh b's
            let mut batch = UpdateBatch::new();
            batch.delete(sid(&ec, "c", 0));
            batch.insert(sid(&ec, "a", 1), Document::from_parens(r#"b="5""#));
            batch.insert(
                sid(&ec, "r", 0),
                Document::from_parens(r#"a(b="6" c(b="7"))"#),
            );
            let rep = ec.apply(&batch).unwrap();
            assert!(rep.rows_killed > 0 && rep.rows_added > 0);
            assert!(rep.refreshed.iter().any(|n| n == "vb"));
            assert_epoch_matches_oracle(&ec);

            // batch 2: delete one of the freshly inserted subtrees
            let mut batch = UpdateBatch::new();
            batch.delete(sid(&ec, "a", 2));
            ec.apply(&batch).unwrap();
            assert_epoch_matches_oracle(&ec);

            // batch 3: pure insert under a node that survived two batches
            let mut batch = UpdateBatch::new();
            batch.insert(sid(&ec, "x", 0), Document::from_parens(r#"y="10""#));
            ec.apply(&batch).unwrap();
            assert_epoch_matches_oracle(&ec);
        }
    }

    #[test]
    fn bulk_registration_matches_sequential_and_publishes_once() {
        let pool = smv_xml::par::WorkerPool::new(3);
        let src = r#"r(a(b="1" b="2" c(b="3")) a(b="4") x(y="9"))"#;
        let views = || {
            vec![
                View::new(
                    "vb",
                    parse_pattern("r(//b{id,v})").unwrap(),
                    IdScheme::OrdPath,
                ),
                View::new(
                    "vab",
                    parse_pattern("r(/a{id}(//b{id,v}))").unwrap(),
                    IdScheme::OrdPath,
                ),
                View::new(
                    "vy",
                    parse_pattern("r(/x{id}(?/y{id,v}))").unwrap(),
                    IdScheme::OrdPath,
                ),
            ]
        };
        let mut bulk = EpochCatalog::new(Document::from_parens(src), IdScheme::OrdPath);
        bulk.add_views_on(views(), RefreshPolicy::Eager, &pool);
        assert_eq!(bulk.epoch(), 1, "one epoch for the whole batch");
        let mut seq = EpochCatalog::new(Document::from_parens(src), IdScheme::OrdPath);
        for v in views() {
            seq.add_view(v, RefreshPolicy::Eager);
        }
        assert_eq!(seq.epoch(), 3);
        let (b, s) = (bulk.snapshot(), seq.snapshot());
        assert_eq!(ViewStore::views(&*b).len(), ViewStore::views(&*s).len());
        for v in ViewStore::views(&*s) {
            assert_eq!(
                b.extent(&v.name).unwrap().rows,
                s.extent(&v.name).unwrap().rows,
                "bulk extent of {}",
                v.name
            );
            assert_eq!(
                b.shard_partition(&v.name).is_some(),
                s.shard_partition(&v.name).is_some()
            );
        }
        // maintenance still exact after bulk registration
        let mut batch = UpdateBatch::new();
        batch.delete(sid(&bulk, "c", 0));
        batch.insert(sid(&bulk, "r", 0), Document::from_parens(r#"a(b="6")"#));
        bulk.apply(&batch).unwrap();
        assert_epoch_matches_oracle(&bulk);
        // deferred bulk registration: stale, excluded from the epoch
        let mut def = EpochCatalog::new(Document::from_parens(src), IdScheme::OrdPath);
        def.add_views_on(views(), RefreshPolicy::Deferred, &pool);
        assert!(def.snapshot().extent("vb").is_none());
        assert!(def.refresh("vb"));
        assert!(def.snapshot().extent("vb").is_some());
    }

    #[test]
    fn old_epoch_snapshots_still_answer_after_publishes() {
        let doc = Document::from_parens(r#"r(a(b="1") a(b="2"))"#);
        let mut ec = EpochCatalog::new(doc, IdScheme::OrdPath);
        ec.add_view(
            View::new(
                "vb",
                parse_pattern("r(//b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            RefreshPolicy::Eager,
        );
        let old = ec.snapshot();
        let old_rows = old.extent("vb").unwrap().rows.clone();
        assert_eq!(old_rows.len(), 2);
        // two newer epochs publish: a delete, then an insert
        let mut batch = UpdateBatch::new();
        batch.delete(sid(&ec, "a", 0));
        ec.apply(&batch).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(sid(&ec, "r", 0), Document::from_parens(r#"a(b="3" b="4")"#));
        ec.apply(&batch).unwrap();
        assert!(ec.epoch() > old.epoch() + 1);
        // the old snapshot is untouched: same rows, same partition
        assert_eq!(old.extent("vb").unwrap().rows, old_rows);
        assert_eq!(ec.snapshot().extent("vb").unwrap().len(), 3);
        assert_eq!(
            old.summary()
                .count(old.summary().node_by_path("/r/a/b").unwrap()),
            2,
            "epoch summary frozen"
        );
    }

    #[test]
    fn reader_handles_follow_publications_without_the_catalog() {
        let doc = Document::from_parens(r#"r(a(b="1") a(b="2"))"#);
        let mut ec = EpochCatalog::new(doc, IdScheme::OrdPath);
        let reader = ec.reader();
        assert_eq!(reader.epoch(), 0);
        let (published, on_publish) = std::sync::mpsc::channel::<u64>();
        let (checked, on_checked) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            // the reader thread never sees `ec`, only the handle
            s.spawn(move || {
                for epoch in on_publish {
                    let snap = reader.snapshot();
                    assert_eq!(snap.epoch(), epoch);
                    assert_eq!(reader.epoch(), epoch);
                    assert_eq!(
                        snap.extent("vb").map(NestedRelation::len),
                        Some(if epoch == 1 { 2 } else { 1 })
                    );
                    checked.send(()).unwrap();
                }
            });
            ec.add_view(
                View::new(
                    "vb",
                    parse_pattern("r(//b{id,v})").unwrap(),
                    IdScheme::OrdPath,
                ),
                RefreshPolicy::Eager,
            );
            published.send(ec.epoch()).unwrap();
            on_checked.recv().unwrap();
            let mut batch = UpdateBatch::new();
            batch.delete(sid(&ec, "a", 0));
            ec.apply(&batch).unwrap();
            published.send(ec.epoch()).unwrap();
            on_checked.recv().unwrap();
            drop(published);
        });
        assert!(Arc::ptr_eq(&ec.snapshot(), &ec.reader().snapshot()));
    }

    #[test]
    fn deferred_views_join_epochs_only_after_refresh() {
        let doc = Document::from_parens(r#"r(a(b="1"))"#);
        let mut ec = EpochCatalog::new(doc, IdScheme::OrdPath);
        ec.add_view(
            View::new(
                "vb",
                parse_pattern("r(//b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            RefreshPolicy::Deferred,
        );
        let snap = ec.snapshot();
        assert!(snap.extent("vb").is_none(), "WITH NO DATA: not scannable");
        assert!(ViewStore::views(&*snap).is_empty());
        assert!(ec.refresh("vb"));
        let snap = ec.snapshot();
        assert_eq!(snap.extent("vb").unwrap().len(), 1);
        // next batch marks it stale again and drops it from the epoch
        let mut batch = UpdateBatch::new();
        batch.insert(sid(&ec, "a", 0), Document::from_parens(r#"b="2""#));
        let rep = ec.apply(&batch).unwrap();
        assert_eq!(rep.deferred_stale, vec!["vb".to_string()]);
        assert!(ec.snapshot().extent("vb").is_none());
        assert!(ec.refresh("vb"));
        assert_eq!(ec.snapshot().extent("vb").unwrap().len(), 2);
        assert!(!ec.refresh("nope"), "unknown names report false");
    }

    #[test]
    fn failed_batches_leave_the_store_untouched() {
        let doc = Document::from_parens(r#"r(a(b="1"))"#);
        let mut ec = EpochCatalog::new(doc, IdScheme::OrdPath);
        ec.add_view(
            View::new(
                "vb",
                parse_pattern("r(//b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            RefreshPolicy::Eager,
        );
        let before = ec.epoch();
        let root = ec.live().ids().id(ec.live().doc().root()).clone();
        let mut batch = UpdateBatch::new();
        batch.delete(root);
        assert_eq!(ec.apply(&batch).unwrap_err(), LiveError::DeleteRoot);
        assert_eq!(ec.epoch(), before);
        assert_eq!(ec.snapshot().extent("vb").unwrap().len(), 1);
        assert!(ec.reports().is_empty());
    }
}
