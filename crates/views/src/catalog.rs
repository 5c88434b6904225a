//! View definitions, the read surface cardinality estimation needs, and
//! the per-summary-path shard partitioning of materialized extents.

use crate::materialize::schema_of;
use smv_algebra::{AttrKind, Cell, ColKind, ExtentShard, NestedRelation, Schema, ShardPartition};
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

/// Read access to view definitions and extent sizes — the surface
/// cardinality estimation needs, implemented by the per-epoch snapshots
/// of [`crate::epoch`].
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

/// Partitions a **normalized** extent's rows by the summary path of the
/// first-column ID, against an explicit ID assignment. Returns `None` — no
/// partition, executor falls back to chunking — when the first column is
/// not an ID column, the document does not conform to `summary`, or some
/// row's ID does not belong to `doc`. Classifies the whole document and
/// hashes every ID: the from-scratch oracle's form
/// ([`crate::EpochCatalog::rebuild_from_scratch`]). The epoch store itself
/// shards through [`shard_extent_classified`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{EpochCatalog, RefreshPolicy};
    use crate::materialize::materialize;
    use smv_algebra::{
        execute_profiled_with, execute_with, ExecOpts, MapProvider, Plan, StructRel, ViewProvider,
    };
    use smv_pattern::{canonical_form, parse_pattern};

    const SCHEME: IdScheme = IdScheme::OrdPath;

    fn view(name: &str, pattern: &str) -> View {
        View::new(name, parse_pattern(pattern).unwrap(), SCHEME)
    }

    /// An epoch store over `doc` with `views` registered eagerly.
    fn epochs(doc: &str, views: &[(&str, &str)]) -> EpochCatalog {
        let mut ec = EpochCatalog::new(Document::from_parens(doc), SCHEME);
        for (name, pattern) in views {
            ec.add_view(view(name, pattern), RefreshPolicy::Eager);
        }
        ec
    }

    /// The structural join `anc ⋈ des` under `rel`, on the first columns.
    fn anc_join(anc: &str, des: &str, rel: StructRel) -> Plan {
        Plan::StructJoin {
            left: Box::new(Plan::Scan { view: anc.into() }),
            right: Box::new(Plan::Scan { view: des.into() }),
            lcol: 0,
            rcol: 0,
            rel,
        }
    }

    fn forced_parallel() -> ExecOpts {
        ExecOpts {
            threads: 4,
            min_par_rows: 0,
            ..ExecOpts::default()
        }
    }

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
    fn sharded_add_partitions_rows_by_summary_path() {
        // `b` occurs on two summary paths: /a/b and /a/c/b
        let ec = epochs(
            r#"a(b="1" c(b="2" b="3") b="4")"#,
            &[("v_b", "a(//b{id,v})")],
        );
        let snap = ec.snapshot();
        let s = snap.summary();
        let extent = snap.extent("v_b").unwrap();
        assert_eq!(extent.sorted_on, Some(0), "stored normalized");
        let p = snap.shard_partition("v_b").expect("sharded");
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
        let snap = epochs(r#"a(b="1" b="2")"#, &[("v", "a(/b{v})")]).snapshot();
        assert!(snap.shard_partition("v").is_none(), "no leading ID column");
        assert_eq!(snap.extent("v").unwrap().len(), 2, "extent still served");
    }

    #[test]
    fn re_registering_a_view_drops_its_stale_partition() {
        let pool = smv_xml::par::WorkerPool::new(2);
        let smaller = || view("v", r#"a(//k{id,v}[v<=2])"#);
        let plan = anc_join("anc", "v", StructRel::Ancestor);
        for re_register in 0..3 {
            let mut ec = epochs(
                r#"a(p(k="1") p(k="2") p(k="3"))"#,
                &[("anc", "a(//p{id})"), ("v", "a(//k{id,v})")],
            );
            assert_eq!(
                ec.snapshot().shard_partition("v").unwrap().shards[0]
                    .rows
                    .len(),
                3
            );
            // replace `v` with a smaller extent through each registration
            // path: the old partition's row indices must go with it, or the
            // parallel fast path would index out of (or wrongly into) the
            // new extent
            match re_register {
                0 => ec.add_view(smaller(), RefreshPolicy::Eager),
                1 => ec.add_views_on(vec![smaller()], RefreshPolicy::Eager, &pool),
                _ => {
                    ec.add_view(smaller(), RefreshPolicy::Deferred);
                    let snap = ec.snapshot();
                    assert!(snap.shard_partition("v").is_none(), "stale: nothing served");
                    assert!(snap.extent("v").is_err());
                    assert!(ec.refresh("v"));
                }
            }
            let snap = ec.snapshot();
            let p = snap
                .shard_partition("v")
                .expect("the new extent's own partition");
            let covered: usize = p.shards.iter().map(|sh| sh.rows.len()).sum();
            assert_eq!(covered + p.unclassified.len(), 2, "path {re_register}");
            let seq = execute_with(&plan, &*snap, &ExecOpts::with_threads(1)).unwrap();
            let par = execute_with(&plan, &*snap, &forced_parallel()).unwrap();
            assert_eq!(seq.len(), 2, "the replaced extent is the one served");
            assert_eq!(seq.rows, par.rows);
        }
    }

    #[test]
    fn re_registering_a_view_replaces_its_definition_everywhere() {
        let pool = smv_xml::par::WorkerPool::new(2);
        let new = || view("v", "a(//p{id})");
        type Register<'a> = &'a dyn Fn(&mut EpochCatalog, View);
        let register: [Register; 3] = [
            &|ec, v| ec.add_view(v, RefreshPolicy::Eager),
            &|ec, v| ec.add_views_on(vec![v], RefreshPolicy::Eager, &pool),
            &|ec, v| {
                ec.add_view(v, RefreshPolicy::Deferred);
                assert!(ec.refresh("v"));
            },
        ];
        for reg in register {
            let mut ec = epochs(r#"a(p(k="1") p(k="2"))"#, &[("v", "a(//k{id,v})")]);
            reg(&mut ec, new());
            let snap = ec.snapshot();
            assert_eq!(snap.views().len(), 1, "no duplicate definition entries");
            let v = snap.view("v").expect("still registered");
            assert_eq!(
                canonical_form(&v.pattern),
                canonical_form(&new().pattern),
                "lookup resolves to the new definition, not the stale one"
            );
            assert_eq!(snap.extent("v").unwrap().schema, new().schema());
            assert_eq!(snap.extent_rows("v"), Some(2), "extent is the new one");
        }
    }

    #[test]
    fn mismatched_shard_tokens_fall_back_to_chunking() {
        // shard one view, extend the summary (which renumbers pre-order
        // ranks and bumps the geometry token), then shard the other: the
        // two partitions' rank geometries are no longer comparable, so the
        // executor must not take the path-pair fast path — and results
        // must stay identical either way.
        let doc = Document::from_parens(r#"a(p(q(k="1") k="2") p(q(k="3")))"#);
        let ids = IdAssignment::assign(&doc, SCHEME);
        let mut s = Summary::of(&doc);
        let mut views = MapProvider::default();
        let mut add = |name: &str, pattern: &str, s: &Summary| {
            let extent = materialize(&parse_pattern(pattern).unwrap(), &doc, SCHEME);
            let partition = shard_extent_with(&extent, &doc, &ids, s).expect("id-first");
            views.insert_sharded(name, extent, partition);
        };
        add("anc", "a(//q{id})", &s);
        s.extend_with(&Document::from_parens("a(zz(q(k)))"));
        add("des", "a(//k{id,v})", &s);
        let (p1, p2) = (
            views.shard_partition("anc").unwrap(),
            views.shard_partition("des").unwrap(),
        );
        assert_ne!(p1.token, p2.token, "extension invalidated the geometry");
        for rel in [StructRel::Ancestor, StructRel::Parent] {
            let plan = anc_join("anc", "des", rel);
            let seq_opts = ExecOpts::with_threads(1);
            let (seq, prof_seq) = execute_profiled_with(&plan, &views, &seq_opts).unwrap();
            let (par, prof_par) = execute_profiled_with(&plan, &views, &forced_parallel()).unwrap();
            assert!(!seq.is_empty());
            assert_eq!(seq.rows, par.rows, "{rel:?}");
            for (path, rows) in prof_seq.iter() {
                assert_eq!(prof_par.rows_at(path), Some(rows), "{rel:?} at `{path}`");
            }
        }
    }
}
