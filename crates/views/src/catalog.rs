//! View catalog: definitions + materialized extents, optionally
//! partitioned per summary-path shard.

use crate::materialize::{materialize, schema_of};
use smv_algebra::{
    AttrKind, Cell, ColKind, ExtentShard, NestedRelation, Schema, ShardPartition, ViewProvider,
};
use smv_pattern::Pattern;
use smv_summary::Summary;
use smv_xml::{Document, IdAssignment, IdScheme, NodeId, StructId};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A view definition: a named extended tree pattern with an ID scheme.
///
/// A definition is immutable once built: state derived from it is cached
/// on it and shared by its clones ([`View::derived`]), so a different
/// name, pattern or scheme is a different `View::new`.
#[derive(Clone, Debug)]
pub struct View {
    /// Catalog name.
    pub name: String,
    /// The defining pattern.
    pub pattern: Pattern,
    /// The identifier scheme stored in `ID` columns.
    pub scheme: IdScheme,
    derived: DerivedCell,
}

/// The one value [`View::derived`] keeps per definition. The slot always
/// holds a whole value, so a poisoned lock is recovered, not propagated.
#[derive(Clone, Default)]
struct DerivedCell(Arc<Mutex<Option<Arc<dyn Any + Send + Sync>>>>);

impl std::fmt::Debug for DerivedCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DerivedCell")
    }
}

impl View {
    /// Creates a view definition.
    pub fn new(name: &str, pattern: Pattern, scheme: IdScheme) -> View {
        View {
            name: name.to_owned(),
            pattern,
            scheme,
            derived: DerivedCell::default(),
        }
    }

    /// State derived from this definition, built at most once for as long
    /// as `valid` accepts it: returns the cached `T` when there is one and
    /// `valid` holds, otherwise runs `build`, replaces whatever was cached
    /// and returns the new value — with `true` when it was built by this
    /// call. The cache is one slot shared by every clone of the definition
    /// (an epoch's `Vec<View>`, an advisor's candidate sets), and `build`
    /// runs under its lock, so concurrent callers build once.
    ///
    /// The rewriter keeps its query-independent preparation here, with
    /// `valid` comparing the summary-constraints stamp it was built under.
    pub fn derived<T: Any + Send + Sync>(
        &self,
        valid: impl FnOnce(&T) -> bool,
        build: impl FnOnce() -> T,
    ) -> (Arc<T>, bool) {
        let mut slot = self
            .derived
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(cached) = slot.clone().and_then(|a| a.downcast::<T>().ok()) {
            if valid(&cached) {
                return (cached, false);
            }
        }
        let fresh = Arc::new(build());
        *slot = Some(Arc::clone(&fresh) as Arc<dyn Any + Send + Sync>);
        (fresh, true)
    }

    /// The relational schema of the view.
    pub fn schema(&self) -> Schema {
        schema_of(&self.pattern)
    }
}

/// Definitions plus materialized extents; the [`ViewProvider`] rewriting
/// plans run against.
#[derive(Default)]
pub struct Catalog {
    views: Vec<View>,
    extents: HashMap<String, NestedRelation>,
    shards: HashMap<String, ShardPartition>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers a view and materializes it over `doc`.
    pub fn add(&mut self, view: View, doc: &Document) {
        let extent = materialize(&view.pattern, doc, view.scheme);
        self.retire_view_state(&view.name);
        self.extents.insert(view.name.clone(), extent);
        self.views.push(view);
    }

    /// Drops every piece of per-registration state a previous view of
    /// this name left behind: its definition entry, extent, and shard
    /// partition. Every registration path funnels through this before
    /// inserting, so a re-registered name can neither resolve to a stale
    /// definition (`view()` returns the first name match) nor leave a
    /// partition whose row indices dangle into the replaced extent.
    fn retire_view_state(&mut self, name: &str) {
        self.views.retain(|v| v.name != name);
        self.extents.remove(name);
        self.shards.remove(name);
    }

    /// Registers a view, materializes it over `doc`, and partitions the
    /// extent per summary-path shard: every row is assigned to the
    /// summary path of its first-column ID, giving the executor the
    /// per-path-pair decomposition of structural joins (`⋈_≺` / `⋈_≺≺`
    /// shard pairs whose paths are not ancestor-related in `summary`
    /// produce no output and are skipped; the rest run in parallel under
    /// `ExecOpts { threads: n > 1 }`).
    ///
    /// The extent is stored **normalized** (sorted in document order on
    /// its first column, duplicates removed) — semantically identical
    /// under set semantics, and a prerequisite for per-shard joins.
    /// Views whose first column is not an ID, or whose rows cannot be
    /// classified against `summary`, are stored unpartitioned and simply
    /// keep the chunk-parallel execution path.
    ///
    /// ```
    /// use smv_views::{Catalog, View};
    /// use smv_pattern::parse_pattern;
    /// use smv_summary::Summary;
    /// use smv_xml::{Document, IdScheme};
    ///
    /// let doc = Document::from_parens(r#"site(item(name="pen") item(name="ink"))"#);
    /// let summary = Summary::of(&doc);
    /// let mut catalog = Catalog::new();
    /// catalog.add_sharded(
    ///     View::new("v", parse_pattern("site(//name{id,v})").unwrap(), IdScheme::OrdPath),
    ///     &doc,
    ///     &summary,
    /// );
    /// let partition = catalog.shard_partition("v").expect("id-first view is sharded");
    /// assert_eq!(partition.shards.len(), 1, "every name sits on one summary path");
    /// assert_eq!(partition.shards[0].rows.len(), 2);
    /// ```
    pub fn add_sharded(&mut self, view: View, doc: &Document, summary: &Summary) {
        let mut extent = materialize(&view.pattern, doc, view.scheme);
        extent.normalize();
        let partition = shard_extent(&extent, doc, view.scheme, summary);
        self.retire_view_state(&view.name);
        if let Some(partition) = partition {
            self.shards.insert(view.name.clone(), partition);
        }
        self.extents.insert(view.name.clone(), extent);
        self.views.push(view);
    }

    /// Registers a batch of views at once, materializing, normalizing and
    /// shard-partitioning each on `pool` — one task per view, so bulk
    /// catalog builds draw from the same worker queue as query execution
    /// instead of running view-at-a-time. Catalog insertion order (and
    /// hence [`Catalog::views`] order) matches the `views` argument
    /// exactly, and each view's stored extent and partition are identical
    /// to what [`Catalog::add_sharded`] would have produced.
    pub fn add_sharded_batch(
        &mut self,
        views: Vec<View>,
        doc: &Document,
        summary: &Summary,
        pool: &smv_xml::par::WorkerPool,
    ) {
        let built = pool.pool_map(0, views.len(), |i| {
            let view = &views[i];
            let mut extent = materialize(&view.pattern, doc, view.scheme);
            extent.normalize();
            let partition = shard_extent(&extent, doc, view.scheme, summary);
            (extent, partition)
        });
        for (view, (extent, partition)) in views.into_iter().zip(built) {
            self.retire_view_state(&view.name);
            if let Some(p) = partition {
                self.shards.insert(view.name.clone(), p);
            }
            self.extents.insert(view.name.clone(), extent);
            self.views.push(view);
        }
    }

    /// Registers a view with a precomputed extent (tests / remote stores).
    pub fn add_with_extent(&mut self, view: View, extent: NestedRelation) {
        self.retire_view_state(&view.name);
        self.extents.insert(view.name.clone(), extent);
        self.views.push(view);
    }

    /// The summary-path shard partition of a view's extent, when the view
    /// was registered through [`Catalog::add_sharded`] and qualified.
    pub fn shard_partition(&self, name: &str) -> Option<&ShardPartition> {
        self.shards.get(name)
    }

    /// All view definitions.
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// Definition lookup.
    pub fn view(&self, name: &str) -> Option<&View> {
        self.views.iter().find(|v| v.name == name)
    }

    /// Row count of a materialized extent (the scan cardinality the cost
    /// model starts from).
    pub fn extent_rows(&self, name: &str) -> Option<usize> {
        self.extents.get(name).map(NestedRelation::len)
    }

    /// Stored bytes of a materialized extent, using the same per-cell
    /// weights as [`crate::cards::estimate_extent_bytes`] (IDs 16, labels
    /// 8, values 16; content at its serialized length; nulls free; nested
    /// tables recursively) — so a storage budget checked against the
    /// definition-only estimate remains meaningful after materialization.
    pub fn extent_bytes(&self, name: &str) -> Option<f64> {
        fn rel_bytes(rel: &NestedRelation) -> f64 {
            use crate::cards::{BYTES_ID, BYTES_LABEL, BYTES_VALUE};
            use smv_algebra::Cell;
            let mut b = 0.0;
            for row in &rel.rows {
                for cell in &row.cells {
                    b += match cell {
                        Cell::Null => 0.0,
                        Cell::Id(_) => BYTES_ID,
                        Cell::Label(_) => BYTES_LABEL,
                        Cell::Atom(_) => BYTES_VALUE,
                        Cell::Content(c) => c.len() as f64,
                        Cell::Table(t) => rel_bytes(t),
                    };
                }
            }
            b
        }
        self.extents.get(name).map(rel_bytes)
    }

    /// Total stored bytes across every materialized extent.
    pub fn total_bytes(&self) -> f64 {
        self.views
            .iter()
            .filter_map(|v| self.extent_bytes(&v.name))
            .sum()
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

/// Read access to view definitions and extent sizes — the surface
/// cardinality estimation needs, abstracted over the mutable [`Catalog`]
/// and the immutable per-epoch snapshots of [`crate::epoch`].
pub trait ViewStore {
    /// All view definitions, in registration order.
    fn views(&self) -> &[View];

    /// Definition lookup by name.
    fn view(&self, name: &str) -> Option<&View> {
        self.views().iter().find(|v| v.name == name)
    }

    /// Row count of a materialized extent.
    fn extent_rows(&self, name: &str) -> Option<usize>;
}

impl ViewStore for Catalog {
    fn views(&self) -> &[View] {
        Catalog::views(self)
    }

    fn extent_rows(&self, name: &str) -> Option<usize> {
        Catalog::extent_rows(self, name)
    }
}

/// Partitions a **normalized** extent's rows by the summary path of the
/// first-column ID. Returns `None` — no partition, executor falls back
/// to chunking — when the first column is not an ID column, the
/// document does not conform to `summary`, or some row's ID does not
/// belong to `doc` (never the case for extents materialized from it).
fn shard_extent(
    extent: &NestedRelation,
    doc: &Document,
    scheme: IdScheme,
    summary: &Summary,
) -> Option<ShardPartition> {
    shard_extent_with(extent, doc, &IdAssignment::assign(doc, scheme), summary)
}

/// [`shard_extent`] against an explicit ID assignment — required for live
/// documents, whose maintained IDs diverge from a fresh positional
/// assignment after the first update batch. Classifies the whole document
/// and hashes every ID: the build-once [`Catalog`]'s form, and the
/// from-scratch oracle's ([`crate::EpochCatalog::rebuild_from_scratch`]).
/// The epoch store itself shards through [`shard_extent_classified`].
pub(crate) fn shard_extent_with(
    extent: &NestedRelation,
    doc: &Document,
    ids: &IdAssignment,
    summary: &Summary,
) -> Option<ShardPartition> {
    match extent.schema.cols.first() {
        Some(c) if c.kind == ColKind::Atom(AttrKind::Id) => {}
        _ => return None,
    }
    let classes = summary.classify(doc)?;
    let id_to_node: HashMap<&StructId, NodeId> = doc.iter().map(|n| (ids.id(n), n)).collect();
    shard_extent_classified(extent, &classes, &|id| id_to_node.get(id).copied(), summary)
}

/// [`shard_extent_with`] against a precomputed classification of the
/// document and an ID lookup — the epoch store's form: `classes` falls
/// out of summary maintenance and `node_of` is the live document's
/// search of its sorted ID vector, so sharding costs O(extent rows)
/// instead of O(document). An ID unknown to `node_of` aborts the
/// partition (`None`), as does a first column that is not an ID column.
pub(crate) fn shard_extent_classified(
    extent: &NestedRelation,
    classes: &[NodeId],
    node_of: &dyn Fn(&StructId) -> Option<NodeId>,
    summary: &Summary,
) -> Option<ShardPartition> {
    match extent.schema.cols.first() {
        Some(c) if c.kind == ColKind::Atom(AttrKind::Id) => {}
        _ => return None,
    }
    debug_assert_eq!(extent.sorted_on, Some(0), "normalized id-first extent");
    let mut by_path: HashMap<NodeId, Vec<usize>> = HashMap::new();
    let mut unclassified = Vec::new();
    for (i, row) in extent.rows.iter().enumerate() {
        match &row.cells[0] {
            Cell::Id(id) => by_path
                .entry(classes[node_of(id)?.idx()])
                .or_default()
                .push(i),
            _ => unclassified.push(i),
        }
    }
    let mut shards: Vec<ExtentShard> = by_path
        .into_iter()
        .map(|(path, rows)| ExtentShard {
            path,
            pre: summary.pre_rank(path),
            last_desc: summary.last_descendant_rank(path),
            depth: summary.depth(path),
            rows,
        })
        .collect();
    shards.sort_by_key(|s| s.pre);
    Some(ShardPartition {
        col: 0,
        token: summary.geometry_token(),
        shards,
        unclassified,
    })
}

impl ViewProvider for Catalog {
    fn extent(&self, name: &str) -> Option<&NestedRelation> {
        self.extents.get(name)
    }

    fn shard_partition(&self, name: &str) -> Option<&ShardPartition> {
        self.shards.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_pattern::parse_pattern;

    #[test]
    fn derived_state_is_one_slot_shared_by_clones() {
        let v = View::new("v", parse_pattern("a(/b{id})").unwrap(), IdScheme::OrdPath);
        let (first, built) = v.derived(|_: &u32| true, || 7u32);
        assert!(built && *first == 7);
        let copy = v.clone();
        let (again, built) = copy.derived(|x: &u32| *x == 7, || unreachable!());
        assert!(!built && Arc::ptr_eq(&first, &again), "clones share it");
        // rejected: rebuilt and replaced, for every clone
        let (next, built) = copy.derived(|x: &u32| *x == 8, || 8u32);
        assert!(built && *next == 8);
        assert_eq!(*v.derived(|_: &u32| true, || unreachable!()).0, 8);
        // another type takes the slot over
        let (text, built) = v.derived(|_: &&str| true, || "x");
        assert!(built && *text == "x");
        assert!(copy.derived(|_: &u32| true, || 9u32).1);
        // a new definition starts empty
        let other = View::new(&v.name, v.pattern.clone(), v.scheme);
        assert!(other.derived(|_: &u32| true, || 1u32).1);
    }

    #[test]
    fn catalog_materializes_on_add() {
        let doc = Document::from_parens(r#"a(b="1" b="2")"#);
        let mut cat = Catalog::new();
        cat.add(
            View::new(
                "v_b",
                parse_pattern("a(/b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            &doc,
        );
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.extent("v_b").unwrap().len(), 2);
        assert!(cat.extent("zz").is_none());
        assert_eq!(cat.view("v_b").unwrap().schema().len(), 2);
        assert!(cat.shard_partition("v_b").is_none(), "plain add: no shards");
    }

    #[test]
    fn sharded_add_partitions_rows_by_summary_path() {
        // `b` occurs on two summary paths: /a/b and /a/c/b
        let doc = Document::from_parens(r#"a(b="1" c(b="2" b="3") b="4")"#);
        let s = Summary::of(&doc);
        let mut cat = Catalog::new();
        cat.add_sharded(
            View::new(
                "v_b",
                parse_pattern("a(//b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            &doc,
            &s,
        );
        let extent = cat.extent("v_b").unwrap();
        assert_eq!(extent.sorted_on, Some(0), "stored normalized");
        let p = cat.shard_partition("v_b").expect("sharded");
        assert_eq!(p.col, 0);
        assert_eq!(p.shards.len(), 2, "one shard per summary path");
        assert!(p.unclassified.is_empty());
        // shards disjointly cover every row, each in ascending order
        let mut seen: Vec<usize> = Vec::new();
        for sh in &p.shards {
            assert!(sh.rows.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(s.pre_rank(sh.path), sh.pre);
            assert_eq!(s.last_descendant_rank(sh.path), sh.last_desc);
            assert_eq!(s.depth(sh.path), sh.depth);
            seen.extend(&sh.rows);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..extent.len()).collect::<Vec<_>>());
        // shard sizes follow the document: 2 b's on /a/b, 2 on /a/c/b
        let sizes: Vec<usize> = p.shards.iter().map(|sh| sh.rows.len()).collect();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn value_first_views_stay_unpartitioned() {
        let doc = Document::from_parens(r#"a(b="1" b="2")"#);
        let s = Summary::of(&doc);
        let mut cat = Catalog::new();
        cat.add_sharded(
            View::new("v", parse_pattern("a(/b{v})").unwrap(), IdScheme::OrdPath),
            &doc,
            &s,
        );
        assert!(cat.shard_partition("v").is_none(), "no leading ID column");
        assert!(cat.extent("v").is_some(), "extent still served");
    }

    #[test]
    fn re_registering_a_view_drops_its_stale_partition() {
        use smv_algebra::{execute, execute_with, ExecOpts, Plan, StructRel};
        let doc = Document::from_parens(r#"a(p(k="1") p(k="2") p(k="3"))"#);
        let s = Summary::of(&doc);
        let mk = |pat: &str| View::new("v", parse_pattern(pat).unwrap(), IdScheme::OrdPath);
        let anc = View::new(
            "anc",
            parse_pattern("a(//p{id})").unwrap(),
            IdScheme::OrdPath,
        );
        for re_register in [0, 1] {
            let mut cat = Catalog::new();
            cat.add_sharded(anc.clone(), &doc, &s);
            cat.add_sharded(mk("a(//k{id,v})"), &doc, &s);
            assert!(cat.shard_partition("v").is_some());
            // replace `v` with a smaller extent through each non-sharded
            // registration path: the old partition's row indices must go
            // with it, or the parallel fast path would index out of (or
            // wrongly into) the new extent
            match re_register {
                0 => cat.add(mk(r#"a(//k{id,v}[v<=2])"#), &doc),
                _ => {
                    let mut smaller = materialize(
                        &parse_pattern(r#"a(//k{id,v}[v<=2])"#).unwrap(),
                        &doc,
                        IdScheme::OrdPath,
                    );
                    smaller.normalize();
                    cat.add_with_extent(mk(r#"a(//k{id,v}[v<=2])"#), smaller);
                }
            }
            assert!(
                cat.shard_partition("v").is_none(),
                "stale partition dropped (path {re_register})"
            );
            let plan = Plan::StructJoin {
                left: Box::new(Plan::Scan { view: "anc".into() }),
                right: Box::new(Plan::Scan { view: "v".into() }),
                lcol: 0,
                rcol: 0,
                rel: StructRel::Ancestor,
            };
            let seq = execute(&plan, &cat).unwrap();
            let par = execute_with(
                &plan,
                &cat,
                &ExecOpts {
                    threads: 4,
                    min_par_rows: 0,
                    ..ExecOpts::default()
                },
            )
            .unwrap();
            assert_eq!(seq.len(), 2, "the replaced extent is the one served");
            assert_eq!(seq.rows, par.rows);
        }
    }

    #[test]
    fn re_registering_a_view_replaces_its_definition_everywhere() {
        let doc = Document::from_parens(r#"a(p(k="1") p(k="2"))"#);
        let s = Summary::of(&doc);
        let old = || {
            View::new(
                "v",
                parse_pattern("a(//k{id,v})").unwrap(),
                IdScheme::OrdPath,
            )
        };
        let new = || View::new("v", parse_pattern("a(//p{id})").unwrap(), IdScheme::Dewey);
        let pool = smv_xml::par::WorkerPool::new(2);
        type Register<'a> = &'a dyn Fn(&mut Catalog, View);
        let register: [Register; 4] = [
            &|c, v| c.add(v, &doc),
            &|c, v| c.add_sharded(v, &doc, &s),
            &|c, v| c.add_sharded_batch(vec![v], &doc, &s, &pool),
            &|c, v| {
                let mut e = materialize(&v.pattern, &doc, v.scheme);
                e.normalize();
                c.add_with_extent(v, e);
            },
        ];
        for reg in register {
            let mut cat = Catalog::new();
            cat.add_sharded(old(), &doc, &s);
            reg(&mut cat, new());
            assert_eq!(cat.len(), 1, "no duplicate definition entries");
            let v = cat.view("v").expect("still registered");
            assert_eq!(
                (v.scheme, v.pattern.iter().count()),
                (IdScheme::Dewey, new().pattern.iter().count()),
                "lookup resolves to the new definition, not the stale one"
            );
            assert_eq!(cat.extent_rows("v"), Some(2), "extent is the new one");
        }
    }

    #[test]
    fn mismatched_shard_tokens_fall_back_to_chunking() {
        use smv_algebra::{execute, execute_with, ExecOpts, Plan, StructRel};
        // shard one view, extend the summary (which renumbers pre-order
        // ranks and bumps the geometry token), then shard the other:
        // the two partitions' rank geometries are no longer comparable,
        // so the executor must not take the path-pair fast path — and
        // results must stay identical either way.
        let doc = Document::from_parens(r#"a(p(q(k="1") k="2") p(q(k="3")))"#);
        let mut s = Summary::of(&doc);
        let mut cat = Catalog::new();
        cat.add_sharded(
            View::new(
                "anc",
                parse_pattern("a(//q{id})").unwrap(),
                IdScheme::OrdPath,
            ),
            &doc,
            &s,
        );
        s.extend_with(&Document::from_parens("a(zz(q(k)))"));
        cat.add_sharded(
            View::new(
                "des",
                parse_pattern("a(//k{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            &doc,
            &s,
        );
        let (p1, p2) = (
            cat.shard_partition("anc").unwrap(),
            cat.shard_partition("des").unwrap(),
        );
        assert_ne!(p1.token, p2.token, "extension invalidated the geometry");
        let plan = Plan::StructJoin {
            left: Box::new(Plan::Scan { view: "anc".into() }),
            right: Box::new(Plan::Scan { view: "des".into() }),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Ancestor,
        };
        let seq = execute(&plan, &cat).unwrap();
        let par = execute_with(
            &plan,
            &cat,
            &ExecOpts {
                threads: 4,
                min_par_rows: 0,
                ..ExecOpts::default()
            },
        )
        .unwrap();
        assert!(!seq.is_empty());
        assert_eq!(seq.rows, par.rows);
    }

    #[test]
    fn sharded_catalog_executes_struct_joins_identically_in_parallel() {
        use smv_algebra::{execute_profiled, execute_profiled_with, ExecOpts, Plan, StructRel};
        let doc = Document::from_parens(
            r#"a(p(q(k="1") k="2") p(k="3") r(q(k="4" k="5")) p(q(q(k="6"))))"#,
        );
        let s = Summary::of(&doc);
        let mut cat = Catalog::new();
        for (name, pat) in [("anc", "a(//q{id})"), ("des", "a(//k{id,v})")] {
            cat.add_sharded(
                View::new(name, parse_pattern(pat).unwrap(), IdScheme::OrdPath),
                &doc,
                &s,
            );
        }
        for rel in [StructRel::Ancestor, StructRel::Parent] {
            let plan = Plan::StructJoin {
                left: Box::new(Plan::Scan { view: "anc".into() }),
                right: Box::new(Plan::Scan { view: "des".into() }),
                lcol: 0,
                rcol: 0,
                rel,
            };
            let (seq, prof_seq) = execute_profiled(&plan, &cat).unwrap();
            let opts = ExecOpts {
                threads: 4,
                min_par_rows: 0,
                ..ExecOpts::default()
            };
            let (par, prof_par) = execute_profiled_with(&plan, &cat, &opts).unwrap();
            assert!(!seq.is_empty());
            assert_eq!(seq.rows, par.rows, "{rel:?}");
            for (path, rows) in prof_seq.iter() {
                assert_eq!(prof_par.rows_at(path), Some(rows), "{rel:?} at `{path}`");
            }
        }
    }

    #[test]
    fn add_sharded_batch_equals_one_at_a_time() {
        let doc = Document::from_parens(
            r#"a(p(q(k="1") k="2") p(k="3") r(q(k="4" k="5")) p(q(q(k="6"))))"#,
        );
        let s = Summary::of(&doc);
        let defs = || {
            vec![
                View::new(
                    "anc",
                    parse_pattern("a(//q{id})").unwrap(),
                    IdScheme::OrdPath,
                ),
                View::new(
                    "des",
                    parse_pattern("a(//k{id,v})").unwrap(),
                    IdScheme::OrdPath,
                ),
                // value-first view: stays unpartitioned in both paths
                View::new(
                    "vals",
                    parse_pattern("a(//k{v})").unwrap(),
                    IdScheme::OrdPath,
                ),
            ]
        };
        let mut one_by_one = Catalog::new();
        for v in defs() {
            one_by_one.add_sharded(v, &doc, &s);
        }
        let pool = smv_xml::par::WorkerPool::new(3);
        let mut batched = Catalog::new();
        batched.add_sharded_batch(defs(), &doc, &s, &pool);
        assert_eq!(
            batched.views().iter().map(|v| &v.name).collect::<Vec<_>>(),
            one_by_one
                .views()
                .iter()
                .map(|v| &v.name)
                .collect::<Vec<_>>(),
            "insertion order preserved"
        );
        for v in one_by_one.views() {
            use smv_algebra::ViewProvider;
            assert_eq!(
                batched.extent(&v.name).unwrap().rows,
                one_by_one.extent(&v.name).unwrap().rows,
                "extent of {}",
                v.name
            );
            let (b, o) = (
                batched.shard_partition(&v.name),
                one_by_one.shard_partition(&v.name),
            );
            assert_eq!(b.is_some(), o.is_some(), "partitioned-ness of {}", v.name);
            if let (Some(b), Some(o)) = (b, o) {
                assert_eq!(b.col, o.col);
                assert_eq!(b.token, o.token);
                assert_eq!(b.unclassified, o.unclassified);
                assert_eq!(b.shards.len(), o.shards.len());
                for (bs, os) in b.shards.iter().zip(&o.shards) {
                    assert_eq!(
                        (bs.path, bs.pre, bs.last_desc, bs.depth),
                        (os.path, os.pre, os.last_desc, os.depth)
                    );
                    assert_eq!(bs.rows, os.rows);
                }
            }
        }
        assert!(
            pool.jobs_dispatched() >= 1,
            "the batch really used the pool"
        );
    }
}
