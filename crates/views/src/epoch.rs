//! Epoch-versioned catalog with incremental view maintenance.
//!
//! The one in-memory catalog: views are registered over a live document
//! and kept current as it changes. Queries run against an immutable
//! [`CatalogEpoch`] snapshot, the in-memory [`ViewProvider`] (an
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
//! Maintenance follows one rule, *anchored refresh*. A view is anchored
//! at the deepest pattern node `K` that stores an ID and is reached from
//! the pattern root by a single chain of required, un-nested edges with
//! no content attribute above it. Every row then carries the ID of its
//! `K`-binding, and a `K`-binding that survives a batch with no inserted
//! or deleted node below it has the same subtree and the same ancestors
//! as before — hence the same rows. So a batch touches a view only
//! through its **dirty** nodes (inserted nodes, and the surviving
//! ancestors of an inserted or deleted subtree root) and its deleted
//! nodes, restricted to those `K` admits:
//!
//! * rows whose `K`-cell is the ID of a deleted node or of a dirty node
//!   are dropped — a deleted subtree's IDs are never re-issued by
//!   [`LiveDoc`], so the cell is an exact certificate;
//! * the pattern is re-evaluated with `K` pinned to the dirty nodes —
//!   below `K` inside their subtrees (optional and nested edges and
//!   content attributes included), above `K` by climbing their ancestor
//!   paths — and the rows merge into the surviving extent.
//!
//! A view with no such `K` ([`RefreshClass::Rebuild`]: a branch, an
//! optional or nested edge, or a content attribute above every ID) is
//! re-materialized in full. Either way an extent whose rows come out
//! unchanged keeps its `Arc` and stays out of
//! [`MaintenanceReport::refreshed`].
//!
//! The maintained result is required to be **byte-identical** to a
//! from-scratch rebuild over the same live document —
//! [`EpochCatalog::rebuild_from_scratch`] is the oracle the test suite
//! and the benchmark's `maintenance_equivalent` flag check against.

use crate::catalog::{View, ViewStore};
use crate::materialize::{admits_node, materialize_with, rows_pinned};
use smv_algebra::{AttrKind, Cell, ExecError, NestedRelation, Row, ViewProvider};
use smv_pattern::{PNodeId, Pattern};
use smv_summary::Summary;
use smv_xml::{
    AppliedBatch, Document, IdScheme, LiveDoc, LiveError, NodeId, StructId, UpdateBatch,
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

/// How a view's extent is maintained under an update batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefreshClass {
    /// Anchored: some non-root pattern node stores an ID and hangs off
    /// the pattern root by a single chain of required, un-nested edges
    /// with no content attribute above it. Rows are dropped by that ID
    /// and re-evaluated under the batch's dirty nodes only (see the
    /// module docs); whatever sits *below* the anchor — branches,
    /// optional and nested edges, content attributes, leaves without IDs
    /// — is free.
    Incremental,
    /// Anything else: re-materialized in full (still against the live
    /// IDs) on every eager refresh.
    Rebuild,
}

/// Classifies a pattern for maintenance (see [`RefreshClass`]).
pub fn refresh_class(p: &Pattern) -> RefreshClass {
    match Anchor::of(p) {
        Some(_) => RefreshClass::Incremental,
        None => RefreshClass::Rebuild,
    }
}

/// Where a view's refresh is anchored.
struct Anchor {
    /// The pattern's path from its root down to the anchor node.
    chain: Vec<PNodeId>,
    /// The extent column holding the anchor's ID.
    col: usize,
}

impl Anchor {
    /// The deepest node that stores an ID on the pattern's top chain —
    /// root, its only child, and so on while the edge taken is required
    /// and un-nested and the node left stores no content. The root itself
    /// does not count: every batch dirties it, so anchoring there would
    /// be a full re-materialization under another name.
    fn of(p: &Pattern) -> Option<Anchor> {
        let mut chain = vec![p.root()];
        let mut cols_above = 0;
        let mut best = None;
        loop {
            let n = *chain.last().expect("starts at the root");
            let nd = p.node(n);
            if n != p.root() && nd.attrs.id {
                best = Some((chain.len(), cols_above));
            }
            let &[c] = p.children(n) else { break };
            if nd.attrs.content || p.node(c).optional || p.node(c).nested {
                break;
            }
            cols_above += AttrKind::of_node(p, n).count();
            chain.push(c);
        }
        best.map(|(len, col)| {
            chain.truncate(len);
            Anchor { chain, col }
        })
    }
}

/// An immutable catalog snapshot: the view definitions, extents and
/// summary snapshot current at one epoch. Cheap to hold (extents are
/// `Arc`-shared with the store and with neighboring epochs) and never
/// mutated — a query planned and executed against an epoch sees one
/// consistent version of the data no matter how many batches are
/// applied concurrently.
#[derive(Clone)]
pub struct CatalogEpoch {
    epoch: u64,
    views: Vec<View>,
    extents: HashMap<String, Arc<NestedRelation>>,
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
    fn extent(&self, name: &str) -> Result<&NestedRelation, ExecError> {
        self.extents
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| ExecError::UnknownView(name.to_owned()))
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

/// What one applied batch did to the store, returned by
/// [`EpochCatalog::apply`]: the query service sweeps its caches over the
/// touched views, and the benchmark reports the phase timings.
#[derive(Clone, Debug)]
pub struct MaintenanceReport {
    /// The epoch this batch published.
    pub epoch: u64,
    /// Eager views whose extent rows changed. A view the batch did not
    /// reach, or whose refresh reproduced the rows it had, keeps its
    /// extent `Arc` and is not listed.
    pub refreshed: Vec<String>,
    /// Deferred views marked stale by this batch.
    pub deferred_stale: Vec<String>,
    /// Rows that left [`RefreshClass::Incremental`] extents.
    pub rows_killed: usize,
    /// Rows that joined [`RefreshClass::Incremental`] extents.
    pub rows_added: usize,
    /// Did the batch create summary paths (invalidating rank geometry)?
    pub geometry_changed: bool,
    /// Nanoseconds ingesting the batch into the live document (ID
    /// resolution and the in-place arena edit) — a cost any
    /// maintenance strategy, delta or rebuild, pays before view work.
    pub ingest_ns: u64,
    /// Nanoseconds on maintenance proper: summary update and extent
    /// refresh (publication excluded — see
    /// [`publish_ns`](Self::publish_ns)).
    pub maintain_ns: u64,
    /// Nanoseconds freeing the batch's deleted subtrees and their IDs
    /// once maintenance no longer reads them — before the publish, so
    /// readers never wait on it. What is freed is the size of the batch,
    /// not of the document.
    pub release_ns: u64,
    /// Nanoseconds atomically publishing the new epoch (snapshot
    /// assembly and pointer swap) — the readers-visible cutover cost.
    ///
    /// The four `*_ns` phases are stamped back to back from
    /// [`EpochCatalog::apply`]'s entry: together they are its wall time
    /// less the few microseconds of bookkeeping after the last stamp.
    pub publish_ns: u64,
}

struct Registered {
    view: View,
    policy: RefreshPolicy,
    /// `None` for [`RefreshClass::Rebuild`] views.
    anchor: Option<Anchor>,
    /// Deferred views start stale and return to stale after every batch.
    stale: bool,
}

/// The mutable handle of the epoch store: owns the live document, the
/// maintained summary and the evolving per-view state, and publishes an
/// immutable [`CatalogEpoch`] after every change. The summary is
/// maintained from each applied batch alone ([`Summary::apply_update`]),
/// so the catalog keeps nothing per document node beside the live
/// document itself.
pub struct EpochCatalog {
    live: LiveDoc,
    summary: Summary,
    registered: Vec<Registered>,
    extents: HashMap<String, Arc<NestedRelation>>,
    epoch: u64,
    published: EpochReader,
}

impl EpochCatalog {
    /// Takes ownership of `doc` as the live document, with node IDs
    /// assigned under `scheme`. Every registered view shares the store's
    /// scheme — the whole point is one stable identity space.
    pub fn new(doc: Document, scheme: IdScheme) -> EpochCatalog {
        let live = LiveDoc::new(doc, scheme);
        let summary = Summary::of(live.doc());
        let published = EpochReader::new(Arc::new(CatalogEpoch {
            epoch: 0,
            views: Vec::new(),
            extents: HashMap::new(),
            summary: summary.snapshot(),
        }));
        EpochCatalog {
            live,
            summary,
            registered: Vec::new(),
            extents: HashMap::new(),
            epoch: 0,
            published,
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

    /// Registers a view over the live document and publishes a new
    /// epoch. Eager views are materialized (against the live IDs) and
    /// normalized immediately; deferred views are registered stale,
    /// excluded from epochs until [`Self::refresh`]. Re-registering a
    /// name retires every piece of the old state first.
    ///
    /// An eager extent is stored **normalized**: sorted in document order
    /// on its first column, duplicates removed. Scans of it therefore
    /// reach a structural join already sorted, and the join skips its
    /// sort.
    ///
    /// ```
    /// use smv_algebra::ViewProvider;
    /// use smv_pattern::parse_pattern;
    /// use smv_views::{EpochCatalog, RefreshPolicy, View};
    /// use smv_xml::{Document, IdScheme};
    ///
    /// let doc = Document::from_parens(r#"site(item(name="pen") item(name="ink"))"#);
    /// let mut catalog = EpochCatalog::new(doc, IdScheme::OrdPath);
    /// catalog.add_view(
    ///     View::new("v", parse_pattern("site(//name{id,v})").unwrap(), IdScheme::OrdPath),
    ///     RefreshPolicy::Eager,
    /// );
    /// let snap = catalog.snapshot();
    /// let extent = snap.extent("v").unwrap();
    /// assert_eq!(extent.len(), 2);
    /// assert_eq!(extent.sorted_on, Some(0), "stored normalized");
    /// ```
    ///
    /// # Panics
    ///
    /// If `view.scheme` differs from the store's scheme: extents store
    /// the live document's node identities, which exist in one scheme.
    pub fn add_view(&mut self, view: View, policy: RefreshPolicy) {
        self.assert_scheme(&view);
        let built = (policy == RefreshPolicy::Eager).then(|| self.build(&view.pattern));
        self.register(view, policy, built);
        self.publish();
    }

    /// Registers a batch of views at once, materializing eager extents
    /// in parallel on up to `pool`'s size of threads (one task per view,
    /// registered in `views` order), then publishes a **single** epoch
    /// covering the whole batch — [`Self::add_view`] in a loop would
    /// publish one epoch per view. This is the query service's ingest
    /// path, and the library's one place that fans work out to threads.
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
            self.assert_scheme(view);
        }
        let built: Vec<Option<NestedRelation>> = match policy {
            RefreshPolicy::Eager => {
                pool.pool_map(0, views.len(), |i| Some(self.build(&views[i].pattern)))
            }
            RefreshPolicy::Deferred => views.iter().map(|_| None).collect(),
        };
        for (view, built) in views.into_iter().zip(built) {
            self.register(view, policy, built);
        }
        self.publish();
    }

    fn assert_scheme(&self, view: &View) {
        assert_eq!(
            view.scheme,
            self.live.scheme(),
            "epoch store holds {:?} identities; register views in that scheme",
            self.live.scheme()
        );
    }

    /// Materializes `pattern` over the live document — how an extent is
    /// built from nothing, at registration and on [`Self::refresh`]
    /// alike.
    fn build(&self, pattern: &Pattern) -> NestedRelation {
        materialize_with(pattern, self.live.doc(), self.live.ids())
    }

    /// Makes `extent` the current extent of view `name`.
    fn install(&mut self, name: &str, extent: NestedRelation) {
        self.extents.insert(name.to_owned(), Arc::new(extent));
    }

    /// Retires whatever `view.name` named before and registers `view`,
    /// current when `built` is given and stale otherwise.
    fn register(&mut self, view: View, policy: RefreshPolicy, built: Option<NestedRelation>) {
        self.registered.retain(|r| r.view.name != view.name);
        self.extents.remove(&view.name);
        let stale = built.is_none();
        if let Some(built) = built {
            self.install(&view.name, built);
        }
        self.registered.push(Registered {
            anchor: Anchor::of(&view.pattern),
            view,
            policy,
            stale,
        });
    }

    /// Applies one update batch: mutates the live document, maintains
    /// the summary and every eager extent, marks deferred views stale,
    /// and publishes the next epoch. Errors from [`LiveDoc::apply`]
    /// leave the store untouched (same epoch, same snapshot).
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<MaintenanceReport, LiveError> {
        // the phase stamps: each ends one report field and starts the next
        let t_entry = Instant::now();
        let mut apply_span = smv_obs::SpanGuard::enter("epoch.apply");
        let applied = self.live.apply(batch)?;
        let t_ingested = Instant::now();

        let geometry_changed = self.summary.apply_update(&applied, self.live.doc());

        let mut report = MaintenanceReport {
            epoch: 0, // stamped at publish
            refreshed: Vec::new(),
            deferred_stale: Vec::new(),
            rows_killed: 0,
            rows_added: 0,
            geometry_changed,
            ingest_ns: (t_ingested - t_entry).as_nanos() as u64,
            // the remaining phases are stamped as they end
            maintain_ns: 0,
            release_ns: 0,
            publish_ns: 0,
        };
        let delta = Delta::of(&applied, self.live.doc());
        for i in 0..self.registered.len() {
            let name = self.registered[i].view.name.clone();
            if self.registered[i].policy == RefreshPolicy::Deferred {
                if !std::mem::replace(&mut self.registered[i].stale, true) {
                    self.extents.remove(&name);
                }
                report.deferred_stale.push(name);
                continue;
            }
            let reg = &self.registered[i];
            let old = Arc::clone(&self.extents[&name]);
            let next = match &reg.anchor {
                Some(anchor) => delta
                    .refresh(&reg.view.pattern, anchor, &old, &self.live)
                    .map(|(extent, killed, added)| {
                        report.rows_killed += killed;
                        report.rows_added += added;
                        extent
                    }),
                None => Some(materialize_with(
                    &reg.view.pattern,
                    self.live.doc(),
                    self.live.ids(),
                ))
                .filter(|extent| extent.rows != old.rows),
            };
            // no new rows: the extent keeps its `Arc`
            if let Some(extent) = next {
                self.install(&name, extent);
                report.refreshed.push(name);
            }
        }
        let t_maintained = Instant::now();
        report.maintain_ns = (t_maintained - t_ingested).as_nanos() as u64;

        // the deleted subtrees and their IDs are freed before the publish,
        // not between it and the caller's reaction to it
        drop(delta);
        drop(applied);
        let t_released = Instant::now();
        report.release_ns = (t_released - t_maintained).as_nanos() as u64;

        self.publish();
        report.publish_ns = t_released.elapsed().as_nanos() as u64;
        report.epoch = self.epoch;
        apply_span.field("epoch", report.epoch);
        apply_span.field("rows_killed", report.rows_killed as u64);
        apply_span.field("rows_added", report.rows_added as u64);
        drop(apply_span);
        smv_obs::observe("epoch.ingest_ns", report.ingest_ns);
        smv_obs::observe("epoch.maintain_ns", report.maintain_ns);
        smv_obs::observe("epoch.release_ns", report.release_ns);
        smv_obs::observe("epoch.publish_ns", report.publish_ns);
        smv_obs::counter_add("epoch.batches_applied", 1);
        smv_obs::counter_add("epoch.rows_killed", report.rows_killed as u64);
        smv_obs::counter_add("epoch.rows_added", report.rows_added as u64);
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
        let built = self.build(&self.registered[i].view.pattern);
        self.install(name, built);
        self.registered[i].stale = false;
        self.publish();
        true
    }

    /// The from-scratch oracle: re-materializes every non-stale view
    /// over the current live document (same maintained IDs — node
    /// identity is data, not an artifact of maintenance) beside a freshly
    /// built summary. Delta maintenance is correct iff the published
    /// epoch's extents are byte-identical to these.
    pub fn rebuild_from_scratch(&self) -> CatalogEpoch {
        let mut extents = HashMap::new();
        let mut views = Vec::new();
        for reg in self.registered.iter().filter(|r| !r.stale) {
            let extent = self.build(&reg.view.pattern);
            extents.insert(reg.view.name.clone(), Arc::new(extent));
            views.push(reg.view.clone());
        }
        CatalogEpoch {
            epoch: self.epoch,
            views,
            extents,
            summary: Summary::of(self.live.doc()),
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
            summary: self.summary.snapshot(),
        });
        self.published.store(next);
    }
}

/// What one applied batch changed, in the terms anchored refresh needs.
struct Delta<'a> {
    applied: &'a AppliedBatch,
    /// Post-batch nodes whose subtree the batch changed or created: the
    /// inserted nodes and the surviving ancestors of every inserted or
    /// deleted subtree root. Ascending. Any other surviving node has the
    /// subtree and the ancestors it had before the batch.
    dirty: Vec<NodeId>,
}

impl<'a> Delta<'a> {
    fn of(applied: &'a AppliedBatch, doc: &Document) -> Delta<'a> {
        let mut spine: HashSet<NodeId> = HashSet::new();
        let mut dirty = Vec::new();
        // both spines climb the post-batch document: from each deleted
        // subtree's parent, which survives with the ancestors it had, and
        // from each inserted root's parent
        let mut climb = |from: Option<NodeId>| {
            let mut cur = from;
            while let Some(a) = cur.filter(|&a| spine.insert(a)) {
                cur = doc.parent(a);
            }
        };
        for d in &applied.detached {
            climb(Some(d.parent));
        }
        for &r in &applied.inserted_roots {
            dirty.extend(doc.subtree(r));
            climb(doc.parent(r));
        }
        dirty.extend(spine);
        dirty.sort_unstable();
        Delta { applied, dirty }
    }

    /// Anchored refresh of one extent (module docs). `None` when the
    /// batch leaves the rows as they are; otherwise the next extent with
    /// the number of rows that left and that joined.
    fn refresh(
        &self,
        p: &Pattern,
        anchor: &Anchor,
        old: &NestedRelation,
        live: &LiveDoc,
    ) -> Option<(NestedRelation, usize, usize)> {
        let (doc, ids) = (live.doc(), live.ids());
        let k = *anchor.chain.last().expect("a chain holds its anchor");
        // the anchor hangs below the pattern root, which holds the
        // document root: the one dirty node it can never bind
        let pinned: Vec<NodeId> = self
            .dirty
            .iter()
            .copied()
            .filter(|&d| d != doc.root() && admits_node(p, k, doc, d))
            .collect();
        // a dirty survivor has the ID it had, an inserted node an ID no
        // row holds yet
        let mut stale: HashSet<&StructId> = pinned.iter().map(|&d| ids.id(d)).collect();
        for (d, ids) in self.applied.deleted_subtrees() {
            stale.extend(
                d.doc
                    .iter()
                    .filter(|&n| admits_node(p, k, &d.doc, n))
                    .map(|n| &ids[n.idx()]),
            );
        }
        if stale.is_empty() {
            return None; // nothing the anchor can bind was touched
        }
        let dropped: Vec<usize> = (0..old.rows.len())
            .filter(
                |&i| matches!(&old.rows[i].cells[anchor.col], Cell::Id(id) if stale.contains(id)),
            )
            .collect();
        let mut fresh = NestedRelation::new(
            old.schema.clone(),
            rows_pinned(p, doc, ids, &anchor.chain, &pinned),
        );
        fresh.normalize();

        // both runs are in normalized order: one merge pass counts the
        // rows the refresh merely reproduced
        let mut reproduced = 0;
        let mut f = fresh.rows.iter().peekable();
        for &i in &dropped {
            while f.next_if(|r| **r < old.rows[i]).is_some() {}
            reproduced += f.next_if(|r| **r == old.rows[i]).is_some() as usize;
        }
        let (killed, added) = (dropped.len() - reproduced, fresh.len() - reproduced);
        if killed == 0 && added == 0 {
            return None;
        }
        let mut gone = dropped.iter().copied().peekable();
        let survivors: Vec<Row> = (0..old.rows.len())
            .filter(|&i| gone.next_if_eq(&i).is_none())
            .map(|i| old.rows[i].clone())
            .collect();
        // survivors are a subsequence of a normalized extent, so a sorted
        // merge suffices — no whole-extent re-sort
        let mut next = NestedRelation::new(old.schema.clone(), survivors);
        next.union_sorted(fresh.rows);
        Some((next, killed, added))
    }
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
        }
    }

    #[test]
    fn classifier_anchors_at_the_deepest_id_on_the_required_top_chain() {
        // (pattern, chain length down to the anchor, anchor ID column)
        for (pat, anchor) in [
            ("a(//b{id,v})", Some((2, 0))),
            ("a{id}(/b{id}(/c{id,v}))", Some((3, 2))),
            // whatever sits below the anchor is free
            ("a(/b{id}(?/c{id}))", Some((2, 0))),
            ("a(/b{id}(%/c{id}))", Some((2, 0))),
            ("a(/b{id,c})", Some((2, 0))),
            ("a{l}(/b{id}(/c{v}, //d{c}))", Some((2, 1))),
            // the chain stops at an optional or nested edge, at a branch
            // and below a content attribute
            ("a(/b{id}(?/c{id}(/d{id})))", Some((2, 0))),
            ("a(/b{id}(/c{id}, /d{id}))", Some((2, 0))),
            ("a(/b{id,c}(/c{id}))", Some((2, 0))),
            // and no ID on it (the root's aside) means a full rebuild
            ("a(?/b{id})", None),
            ("a(%/b{id})", None),
            ("a(/b{v})", None),
            ("a{id}(/b{v})", None),
            ("a(/b{id}, /c{id})", None),
            ("a{c}(/b{id})", None),
        ] {
            let p = parse_pattern(pat).unwrap();
            let got = Anchor::of(&p).map(|a| (a.chain.len(), a.col));
            assert_eq!(got, anchor, "{pat}");
            let class = match anchor {
                Some(_) => RefreshClass::Incremental,
                None => RefreshClass::Rebuild,
            };
            assert_eq!(refresh_class(&p), class, "{pat}");
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
        assert!(def.snapshot().extent("vb").is_err());
        assert!(def.refresh("vb"));
        assert!(def.snapshot().extent("vb").is_ok());
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
        // the old snapshot is untouched: same rows, same summary
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
                        Ok(if epoch == 1 { 2 } else { 1 })
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
        assert!(snap.extent("vb").is_err(), "WITH NO DATA: not scannable");
        assert!(ViewStore::views(&*snap).is_empty());
        assert!(ec.refresh("vb"));
        let snap = ec.snapshot();
        assert_eq!(snap.extent("vb").unwrap().len(), 1);
        // next batch marks it stale again and drops it from the epoch
        let mut batch = UpdateBatch::new();
        batch.insert(sid(&ec, "a", 0), Document::from_parens(r#"b="2""#));
        let rep = ec.apply(&batch).unwrap();
        assert_eq!(rep.deferred_stale, vec!["vb".to_string()]);
        assert!(ec.snapshot().extent("vb").is_err());
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
    }

    /// The executor's copies of an extent's strings are the extent's: a
    /// `DupElim(Project(Scan))` answer shares every string value and
    /// content cell with the epoch it read instead of copying it.
    #[test]
    fn executor_copies_share_the_extents_strings() {
        use smv_algebra::{execute_with, ExecOpts, Plan};
        let doc = Document::from_parens(r#"a(b(c="pen") b(c="pen") b(c="ink"))"#);
        let mut ec = EpochCatalog::new(doc, IdScheme::OrdPath);
        let pat = parse_pattern("a(//c{id,v,c})").unwrap();
        ec.add_view(
            View::new("cs", pat, IdScheme::OrdPath),
            RefreshPolicy::Eager,
        );
        let snap = ec.snapshot();
        let plan = Plan::DupElim {
            input: Arc::new(Plan::Project {
                input: Arc::new(Plan::Scan { view: "cs".into() }),
                cols: vec![1, 2],
            }),
        };
        let out = execute_with(&plan, &*snap, &ExecOpts::default()).unwrap();
        let strings = |rel: &NestedRelation| -> Vec<Arc<str>> {
            let cells = rel.rows.iter().flat_map(|r| &r.cells);
            cells
                .filter_map(|c| match c {
                    Cell::Atom(smv_xml::Value::Str(s)) | Cell::Content(s) => Some(s.clone()),
                    _ => None,
                })
                .collect()
        };
        let held = strings(snap.extent("cs").unwrap());
        let got = strings(&out);
        assert_eq!((held.len(), got.len()), (6, 4), "two distinct rows out");
        for s in &got {
            assert!(held.iter().any(|h| Arc::ptr_eq(h, s)), "{s} was copied");
        }
    }
}
