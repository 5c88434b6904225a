//! The build and refresh path against its independent definitions: the
//! marking [`Matcher`] against the per-candidate scan it replaced,
//! interval-scoped materialization against the embedding enumerator,
//! `LiveDoc`'s index-free ID lookup against a linear search, its in-place
//! arena edit against the arena rebuild it replaced, and anchored refresh
//! and summary maintenance against a from-scratch rebuild — over random
//! documents, patterns and update batches, on all three ID schemes.

#[path = "common/rebuild.rs"]
mod rebuild;
#[path = "../crates/summary/tests/common/mod.rs"]
mod summary_check;

use proptest::prelude::*;
use smv::algebra::{Cell, ViewProvider};
use smv::pattern::{Axis, MatchTarget, Matcher, PNodeId};
use smv::prelude::*;
use smv::xml::{AppliedBatch, IdAssignment, NodeId, StructId};
use std::cmp::Ordering;
use std::time::Instant;
use summary_check::summaries_agree;

const SCHEMES: [IdScheme; 3] = [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential];

// ---------------------------------------------------------------------------
// generators

fn label(l: u8) -> char {
    (b'a' + l) as char
}

/// A single-rooted subtree over four labels, values in 0..3 so that
/// equal-valued siblings (which set semantics collapse) are common.
fn subtree_strategy() -> BoxedStrategy<String> {
    let leaf = (0u8..4, proptest::option::of(0i64..3)).prop_map(|(l, v)| match v {
        Some(v) => format!("{}=\"{v}\"", label(l)),
        None => label(l).to_string(),
    });
    leaf.prop_recursive(3, 24, 3, |inner| {
        (0u8..4, proptest::collection::vec(inner, 1..4))
            .prop_map(|(l, kids)| format!("{}({})", label(l), kids.join(" ")))
    })
}

/// A document `r(…)` of one to three such subtrees.
fn tree_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(subtree_strategy(), 1..4)
        .prop_map(|kids| format!("r({})", kids.join(" ")))
}

/// Patterns rooted at `r` with child and descendant axes, wildcards,
/// branches, optional edges and value predicates. With `rich`, any
/// attribute subset per node (so leaves with and without IDs, and `C`
/// anywhere) and nested edges; without, every node stores exactly its ID.
fn pattern_strategy(rich: bool) -> impl Strategy<Value = String> {
    let decor = move || {
        (0u8..5, 0u8..16, 0u8..4).prop_map(move |(l, attrs, pred)| {
            let mut s = if l == 4 {
                "*".to_string()
            } else {
                label(l).to_string()
            };
            let stored: Vec<&str> = [(1, "id"), (2, "l"), (4, "v"), (8, "c")]
                .iter()
                .filter(|(bit, _)| if rich { attrs & bit != 0 } else { *bit == 1 })
                .map(|(_, name)| *name)
                .collect();
            if !stored.is_empty() {
                s += &format!("{{{}}}", stored.join(","));
            }
            if pred == 0 {
                s += "[v>=1]";
            }
            s
        })
    };
    let edges = move |inner: BoxedStrategy<String>| {
        proptest::collection::vec((inner, 0u8..2, 0u8..3, 0u8..4), 1..3).prop_map(move |kids| {
            let kids: Vec<String> = kids
                .into_iter()
                .map(|(kid, axis, optional, nested)| {
                    format!(
                        "{}{}{}{kid}",
                        if optional == 0 { "?" } else { "" },
                        if rich && nested == 0 { "%" } else { "" },
                        if axis == 0 { "/" } else { "//" },
                    )
                })
                .collect();
            format!("({})", kids.join(", "))
        })
    };
    let below = decor().prop_recursive(2, 8, 2, move |inner| {
        (decor(), edges(inner)).prop_map(|(node, kids)| node + &kids)
    });
    (0u8..4, edges(below)).prop_map(move |(root, kids)| {
        let root = match root {
            0 if rich => "r{c}",
            1 => "r{id}",
            _ => "r",
        };
        format!("{root}{kids}")
    })
}

/// `(kind, target, fragment)` triples; [`batch_from`] turns them into a
/// batch that is valid on whatever the document has become.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u16, String)>> {
    proptest::collection::vec((0u8..5, 0u16..1000, subtree_strategy()), 1..5)
}

/// Deletions (kind 0 and 1) of non-root nodes picked by `target`, then
/// insertions of `fragment` under surviving nodes picked the same way.
fn batch_from(live: &LiveDoc, ops: &[(u8, u16, String)]) -> UpdateBatch {
    let doc = live.doc();
    let mut batch = UpdateBatch::new();
    let mut deleted: Vec<NodeId> = Vec::new();
    for (kind, target, _) in ops {
        if *kind < 2 && doc.len() > 1 {
            let n = NodeId(1 + *target as u32 % (doc.len() as u32 - 1));
            batch.delete(live.id_of(n).clone());
            deleted.push(n);
        }
    }
    for (kind, target, fragment) in ops {
        let parent = NodeId(*target as u32 % doc.len() as u32);
        let dies = deleted
            .iter()
            .any(|&d| d == parent || doc.is_ancestor(d, parent));
        if *kind >= 2 && !dies {
            batch.insert(live.id_of(parent).clone(), Document::from_parens(fragment));
        }
    }
    batch
}

/// `doc_src`, an `r(…)` document, with the children of `r` repeated
/// `copies` times: the same paths under the same local numbering, again.
fn repeated(doc_src: &str, copies: usize) -> Document {
    let body = &doc_src[2..doc_src.len() - 1];
    Document::from_parens(&format!("r({})", vec![body; copies].join(" ")))
}

/// Deletes every other node labeled `l`, in document order: subtrees on
/// one summary path go together, each numbered from 0 once detached,
/// and others on it survive to be counted.
fn delete_every_other(live: &LiveDoc, l: u8) -> UpdateBatch {
    let (doc, l) = (live.doc(), Label::intern(&label(l).to_string()));
    let mut batch = UpdateBatch::new();
    for n in doc.iter().filter(|&n| doc.label(n) == l).step_by(2) {
        batch.delete(live.id_of(n).clone());
    }
    batch
}

// ---------------------------------------------------------------------------
// oracles

/// The candidate sets as `Matcher::new` defined them before the marking
/// passes: every candidate of a pattern node tested against the whole
/// candidate list of each required child.
fn candidates_by_scan<T: MatchTarget>(p: &Pattern, t: &T) -> Vec<Vec<NodeId>> {
    let mut cand: Vec<Vec<NodeId>> = vec![Vec::new(); p.len()];
    for pid in (0..p.len() as u32).map(PNodeId).rev() {
        let pnode = p.node(pid);
        let pool: Vec<NodeId> = if pid == p.root() {
            vec![t.tree_root()]
        } else {
            (0..t.tree_len() as u32).map(NodeId).collect()
        };
        cand[pid.idx()] = pool
            .into_iter()
            .filter(|&x| {
                pnode.label.is_none_or(|l| t.tree_label(x) == l)
                    && t.admits(x, &pnode.predicate)
                    && p.children(pid).iter().all(|&m| {
                        let child = p.node(m);
                        child.optional
                            || cand[m.idx()].iter().any(|&y| match child.axis {
                                Axis::Child => t.tree_parent(y) == Some(x),
                                Axis::Descendant => t.tree_is_ancestor(x, y),
                            })
                    })
            })
            .collect();
    }
    cand
}

/// The in-place edit against the rebuild, after one batch both applied
/// to the same document: every node's label, value, parent, last
/// descendant, children, depth and rank; the ID vector and its lookup;
/// the inserted roots and deleted IDs; and each detached subtree against
/// the pre-batch subtree it was, with its IDs and its parent.
fn edit_equals_rebuild(
    live: &LiveDoc,
    applied: &AppliedBatch,
    rebuilt: &rebuild::Rebuilt,
    want: &rebuild::Applied,
) -> Result<(), String> {
    let same_tree = |got: &Document, want: &Document, from: NodeId| -> Result<(), String> {
        let lens = (got.len(), want.subtree(from).count());
        if lens.0 != lens.1 {
            return Err(format!("{} nodes, want {}", lens.0, lens.1));
        }
        for (n, w) in got.iter().zip(want.subtree(from)) {
            let node = |d: &Document, n: NodeId, base: u32| {
                (
                    d.label(n),
                    d.value(n).cloned(),
                    d.parent(n).filter(|_| n.0 != base).map(|p| p.0 - base),
                    d.last_descendant(n).0 - base,
                    d.children(n).iter().map(|c| c.0 - base).collect::<Vec<_>>(),
                    d.depth(n) - d.depth(NodeId(base)),
                    if n.0 == base { 0 } else { d.child_rank(n) },
                )
            };
            let (g, w) = (node(got, n, 0), node(want, w, from.0));
            if g != w {
                return Err(format!("node {n:?}: {g:?}, want {w:?}"));
            }
        }
        Ok(())
    };
    same_tree(live.doc(), &rebuilt.doc, NodeId(0)).map_err(|e| format!("document: {e}"))?;
    if live.ids().as_slice() != rebuilt.ids.as_slice() {
        return Err(format!(
            "IDs {:?}, want {:?}",
            live.ids().as_slice(),
            rebuilt.ids.as_slice()
        ));
    }
    for n in live.doc().iter() {
        if live.node_of(live.id_of(n)) != Some(n) {
            return Err(format!("node_of({}) is not {n:?}", live.id_of(n)));
        }
    }
    if applied.inserted_roots != want.inserted_roots {
        return Err(format!(
            "inserted roots {:?}, want {:?}",
            applied.inserted_roots, want.inserted_roots
        ));
    }
    if applied.deleted_ids != want.deleted_ids {
        return Err(format!(
            "deleted IDs {:?}, want {:?}",
            applied.deleted_ids, want.deleted_ids
        ));
    }
    if applied.detached.len() != want.deleted_roots.len() {
        return Err("a detached subtree per deleted root".into());
    }
    for ((d, ids), &r) in applied.deleted_subtrees().zip(&want.deleted_roots) {
        same_tree(&d.doc, &want.old_doc, r).map_err(|e| format!("detached {r:?}: {e}"))?;
        let old_ids = &want.old_ids[r.idx()..=want.old_doc.last_descendant(r).idx()];
        if ids != old_ids {
            return Err(format!("detached {r:?}: IDs {ids:?}, want {old_ids:?}"));
        }
        let parent = want
            .old_doc
            .parent(r)
            .and_then(|p| want.old_to_new[p.idx()]);
        if Some(d.parent) != parent {
            return Err(format!(
                "detached {r:?}: parent {:?}, want {parent:?}",
                d.parent
            ));
        }
    }
    Ok(())
}

/// The published epoch against `rebuild_from_scratch`: views, schemas,
/// rows, and the maintained summary against the summary built afresh.
fn check_against_rebuild(ec: &EpochCatalog) -> Result<(), String> {
    let (snap, oracle) = (ec.snapshot(), ec.rebuild_from_scratch());
    if snap.views().len() != oracle.views().len() {
        return Err("view lists differ".into());
    }
    for v in oracle.views() {
        let (got, want) = (
            snap.extent(&v.name)
                .map_err(|e| format!("maintained: {e}"))?,
            oracle.extent(&v.name).map_err(|e| format!("oracle: {e}"))?,
        );
        if got.schema != want.schema {
            return Err(format!("schema of {}", v.pattern));
        }
        if got.rows != want.rows {
            return Err(format!(
                "rows of {}\nmaintained:\n{got}rebuilt:\n{want}",
                v.pattern
            ));
        }
    }
    summaries_agree(snap.summary(), oracle.summary()).map_err(|e| format!("summary: {e}"))
}

// ---------------------------------------------------------------------------
// properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) The marking passes compute exactly the old candidate sets, on
    /// documents (pre-order node ids, value-checked predicates) and on
    /// summaries (ids in creation order after an extension, predicates
    /// checked for satisfiability only).
    #[test]
    fn marking_matcher_equals_candidate_scan(
        doc_src in tree_strategy(),
        other_src in tree_strategy(),
        p_src in pattern_strategy(true),
    ) {
        let p = parse_pattern(&p_src).unwrap();
        let doc = Document::from_parens(&doc_src);
        let mut summary = Summary::of(&doc);
        summary.extend_with(&Document::from_parens(&other_src));
        let on_doc = Matcher::new(&p, &doc);
        let on_summary = Matcher::new(&p, &summary);
        let (doc_scan, summary_scan) =
            (candidates_by_scan(&p, &doc), candidates_by_scan(&p, &summary));
        for n in p.iter() {
            prop_assert_eq!(
                on_doc.candidates(n), &doc_scan[n.idx()][..],
                "{} node {:?} on {}", p_src, n, doc_src
            );
            prop_assert_eq!(
                on_summary.candidates(n), &summary_scan[n.idx()][..],
                "{} node {:?} on the summary of {} + {}", p_src, n, doc_src, other_src
            );
        }
    }

    /// (b) Materialization — candidate intervals, top-down — produces the
    /// tuples the backtracking embedding enumerator does. Every pattern
    /// node stores its ID and sequential IDs are pre-order ranks, so a row
    /// reads off as a tuple of node ids.
    #[test]
    fn materialization_equals_embedding_enumeration(
        doc_src in tree_strategy(),
        p_src in pattern_strategy(false),
    ) {
        let p = parse_pattern(&p_src).unwrap();
        let doc = Document::from_parens(&doc_src);
        let ids = IdAssignment::assign(&doc, IdScheme::Sequential);
        let mut from_rows: Vec<Vec<Option<u32>>> = materialize_with(&p, &doc, &ids)
            .rows
            .iter()
            .map(|r| {
                r.cells
                    .iter()
                    .map(|c| match c {
                        Cell::Id(StructId::Seq(s)) => Some(*s as u32),
                        Cell::Null => None,
                        other => panic!("unexpected cell {other}"),
                    })
                    .collect()
            })
            .collect();
        let mut from_embeddings: Vec<Vec<Option<u32>>> = evaluate(&p, &doc)
            .into_iter()
            .map(|t| t.into_iter().map(|n| n.map(|n| n.0)).collect())
            .collect();
        from_rows.sort();
        from_embeddings.sort();
        prop_assert_eq!(from_rows, from_embeddings, "{} on {}", p_src, doc_src);
    }

    /// (c) `LiveDoc::node_of` answers like a linear
    /// search of the ID vector after any batch sequence, deleted IDs
    /// resolve to nothing, and under ORDPATH and Dewey the ID vector stays
    /// strictly increasing in document order — what the binary search
    /// stands on.
    #[test]
    fn live_id_lookup_equals_linear_search(
        doc_src in tree_strategy(),
        batches in proptest::collection::vec(ops_strategy(), 1..5),
    ) {
        for scheme in SCHEMES {
            let mut live = LiveDoc::new(Document::from_parens(&doc_src), scheme);
            let mut dead: Vec<StructId> = Vec::new();
            for ops in &batches {
                let applied = live.apply(&batch_from(&live, ops)).expect("valid by construction");
                dead.extend(applied.deleted_ids);
                let ids = live.ids();
                for n in live.doc().iter() {
                    prop_assert_eq!(live.node_of(ids.id(n)), ids.node_of(ids.id(n)));
                }
                for id in &dead {
                    prop_assert_eq!(live.node_of(id), None, "{:?}: {} is dead", scheme, id);
                }
                if scheme.is_structural() {
                    for w in ids.as_slice().windows(2) {
                        prop_assert_eq!(
                            w[0].cmp_doc_order(&w[1]), Some(Ordering::Less),
                            "{:?}: {} before {}", scheme, w[0], w[1]
                        );
                    }
                }
            }
        }
    }

    /// (e) Editing the arena in place leaves exactly the document, IDs
    /// and batch record the arena rebuild it replaced produces, batch
    /// after batch.
    #[test]
    fn in_place_edit_equals_rebuild(
        doc_src in tree_strategy(),
        copies in 1usize..4,
        swept in 0u8..4,
        batches in proptest::collection::vec(ops_strategy(), 1..5),
    ) {
        for scheme in SCHEMES {
            let mut live = LiveDoc::new(repeated(&doc_src, copies), scheme);
            let mut rebuilt = rebuild::Rebuilt::new(repeated(&doc_src, copies), scheme);
            let mut summary = Summary::of(live.doc());
            // the last batch deletes every other node of one label
            for round in 0..=batches.len() {
                let batch = match batches.get(round) {
                    Some(ops) => batch_from(&live, ops),
                    None => delete_every_other(&live, swept),
                };
                let applied = live.apply(&batch).expect("valid by construction");
                let want = rebuilt.apply(&batch);
                summary.apply_update(&applied, live.doc());
                let agree = edit_equals_rebuild(&live, &applied, &rebuilt, &want).and_then(|()| {
                    summaries_agree(&summary, &Summary::of(live.doc()))
                        .map_err(|e| format!("summary: {e}"))
                });
                if let Err(e) = agree {
                    return Err(TestCaseError::fail(format!(
                        "{e}\n{scheme:?}, batch {round} of {batches:?} on {copies} × {doc_src}"
                    )));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (d) Whatever the pattern shape — anchored or rebuilt — and
    /// whatever the batch, the published epoch is the from-scratch one;
    /// and `refreshed` lists exactly the views whose rows changed, the
    /// others keeping their extent allocation.
    #[test]
    fn refresh_equals_rebuild(
        doc_src in tree_strategy(),
        patterns in proptest::collection::vec(pattern_strategy(true), 3..4),
        batches in proptest::collection::vec(ops_strategy(), 2..4),
    ) {
        for scheme in SCHEMES {
            let mut ec = EpochCatalog::new(Document::from_parens(&doc_src), scheme);
            for (i, p_src) in patterns.iter().enumerate() {
                let view = View::new(&format!("v{i}"), parse_pattern(p_src).unwrap(), scheme);
                ec.add_view(view, RefreshPolicy::Eager);
            }
            let context = |round: usize| {
                format!("{scheme:?}, batch {round} of {batches:?} on {doc_src} under {patterns:?}")
            };
            if let Err(e) = check_against_rebuild(&ec) {
                return Err(TestCaseError::fail(format!("{e}\n{}", context(0))));
            }
            for (round, ops) in batches.iter().enumerate() {
                let before = ec.snapshot();
                let report = ec.apply(&batch_from(ec.live(), ops)).expect("valid by construction");
                if let Err(e) = check_against_rebuild(&ec) {
                    return Err(TestCaseError::fail(format!("{e}\n{}", context(round + 1))));
                }
                let after = ec.snapshot();
                for v in after.views() {
                    let (old, new) = (before.extent(&v.name).unwrap(), after.extent(&v.name).unwrap());
                    prop_assert_eq!(
                        report.refreshed.contains(&v.name), old.rows != new.rows,
                        "refreshed = rows changed, for {}; {}", v.pattern, context(round + 1)
                    );
                    prop_assert_eq!(
                        std::ptr::eq(old, new), old.rows == new.rows,
                        "unchanged rows keep their allocation, for {}", v.pattern
                    );
                }
            }
        }
    }
}

/// The cases a delta algorithm gets wrong first, spelled out: set
/// semantics hiding a dying embedding, and an optional edge gaining its
/// first match and losing its last.
#[test]
fn dedup_and_optional_edges_refresh_exactly() {
    let id_of = |ec: &EpochCatalog, label: &str, nth: usize| {
        let doc = ec.live().doc();
        let n = doc
            .iter()
            .filter(|&n| doc.label(n).as_str() == label)
            .nth(nth)
            .expect("labeled node");
        ec.live().id_of(n).clone()
    };
    let rows = |ec: &EpochCatalog| ec.snapshot().extent("v").unwrap().rows.clone();
    for scheme in SCHEMES {
        // two equal-valued siblings yield one row; it must outlive the
        // first deletion and die with the second
        let mut ec = EpochCatalog::new(Document::from_parens(r#"r(a(b="1" b="1"))"#), scheme);
        let view = View::new("v", parse_pattern("r(/a{id}(/b{v}))").unwrap(), scheme);
        ec.add_view(view, RefreshPolicy::Eager);
        assert_eq!(rows(&ec).len(), 1);
        for (left, refreshed) in [(1, false), (0, true)] {
            let mut batch = UpdateBatch::new();
            batch.delete(id_of(&ec, "b", 0));
            let report = ec.apply(&batch).unwrap();
            assert_eq!(rows(&ec).len(), left, "{scheme:?}");
            assert_eq!(report.refreshed.len(), refreshed as usize, "{scheme:?}");
            check_against_rebuild(&ec).unwrap();
        }

        // ⊥ gives way to the first match and returns with the last
        let mut ec = EpochCatalog::new(Document::from_parens("r(a)"), scheme);
        let view = View::new("v", parse_pattern("r(/a{id}(?/b{id}))").unwrap(), scheme);
        ec.add_view(view, RefreshPolicy::Eager);
        let bottom = rows(&ec);
        assert!(bottom[0].cells[1].is_null());
        let mut batch = UpdateBatch::new();
        batch.insert(id_of(&ec, "a", 0), Document::from_parens("b"));
        ec.apply(&batch).unwrap();
        assert_eq!(rows(&ec).len(), 1);
        assert!(!rows(&ec)[0].cells[1].is_null(), "{scheme:?}");
        check_against_rebuild(&ec).unwrap();
        let mut batch = UpdateBatch::new();
        batch.delete(id_of(&ec, "b", 0));
        ec.apply(&batch).unwrap();
        assert_eq!(rows(&ec), bottom, "{scheme:?}");
        check_against_rebuild(&ec).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (f) A batch that deletes every other node of one label — several
    /// subtrees on one summary path, detached and each numbered from 0 —
    /// still publishes the from-scratch epoch, summary included.
    #[test]
    fn same_path_deletions_equal_rebuild(
        doc_src in tree_strategy(),
        swept in 0u8..4,
        patterns in proptest::collection::vec(pattern_strategy(true), 1..3),
    ) {
        for scheme in SCHEMES {
            let mut ec = EpochCatalog::new(repeated(&doc_src, 3), scheme);
            for (i, p_src) in patterns.iter().enumerate() {
                let view = View::new(&format!("v{i}"), parse_pattern(p_src).unwrap(), scheme);
                ec.add_view(view, RefreshPolicy::Eager);
            }
            ec.apply(&delete_every_other(ec.live(), swept)).expect("valid by construction");
            if let Err(e) = check_against_rebuild(&ec) {
                return Err(TestCaseError::fail(format!(
                    "{e}\n{scheme:?}, every other {} deleted from 3 × {doc_src} under {patterns:?}",
                    label(swept)
                )));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the benchmark's nine views

/// The advisor's choice for `pr3_workload` under 90 % of its all-singleton
/// budget plus `pr7_views` — what `smvbench` registers.
fn benchmark_views(doc: &Document, scheme: IdScheme) -> Vec<View> {
    use smv::advisor::CandidateKind;
    let summary = Summary::of(doc);
    let queries = smv::datagen::pr3_workload();
    let workload = Workload::weighted(queries.iter().map(|q| (q.pattern.clone(), q.weight)));
    let mut opts = AdvisorOpts {
        scheme,
        ..AdvisorOpts::default()
    };
    let candidates = mine_candidates(&workload, &summary, &opts);
    let singletons: f64 = candidates
        .iter()
        .filter(|c| c.kind == CandidateKind::Singleton)
        .map(|c| c.est_bytes)
        .sum();
    opts.budget_bytes = 0.9 * singletons;
    let mut views = advise(&workload, &summary, &candidates, &opts).views();
    views.extend(pr7_views(scheme));
    views
}

/// `Pr7Stream` edits `regions/*/item` only: the views over people and
/// auctions keep their extent allocations across batches
/// and stay out of `refreshed`, and a deferred view is neither
/// materialized nor reported until it is refreshed.
#[test]
fn untouched_views_keep_their_extents_across_batches() {
    let scheme = IdScheme::OrdPath;
    let doc = pr7_document(1.0, 4);
    let views = benchmark_views(&doc, scheme);
    let reads_items = |v: &View| {
        let text = v.pattern.to_string();
        ["item", "//name", "//quantity"]
            .iter()
            .any(|l| text.contains(l))
    };
    let (touched, untouched): (Vec<&View>, Vec<&View>) = views.iter().partition(|v| reads_items(v));
    assert!(
        touched.len() >= 4 && !untouched.is_empty(),
        "both kinds registered"
    );
    for v in &views {
        assert_eq!(
            refresh_class(&v.pattern),
            RefreshClass::Incremental,
            "{}",
            v.pattern
        );
    }

    let mut ec = EpochCatalog::new(doc, scheme);
    let pool = WorkerPool::new(1);
    ec.add_views_on(views.clone(), RefreshPolicy::Eager, &pool);
    let deferred = View::new("later", parse_pattern("site(//item{id})").unwrap(), scheme);
    ec.add_view(deferred, RefreshPolicy::Deferred);
    let first = ec.snapshot();
    let mut stream = Pr7Stream::new(9);
    for _ in 0..3 {
        let batch = stream.next_batch(ec.live(), 0.01);
        let report = ec.apply(&batch).unwrap();
        assert!(!report.refreshed.is_empty());
        for name in &report.refreshed {
            assert!(touched.iter().any(|v| v.name == *name), "{name} refreshed");
        }
        assert_eq!(report.deferred_stale, ["later"]);
        let snap = ec.snapshot();
        assert!(snap.extent("later").is_err(), "WITH NO DATA until refresh");
        for v in &untouched {
            assert!(std::ptr::eq(
                first.extent(&v.name).unwrap(),
                snap.extent(&v.name).unwrap()
            ));
        }
    }
    assert!(ec.refresh("later"));
    assert!(ec.snapshot().extent("later").is_ok());
    check_against_rebuild(&ec).unwrap();
}

/// Every instant of `EpochCatalog::apply` belongs to a report field: the
/// four phases sum to the wall time around the call, less the bookkeeping
/// after the last stamp.
#[test]
fn report_phases_account_for_apply() {
    let scheme = IdScheme::OrdPath;
    let doc = pr7_document(1.0, 6);
    let views = benchmark_views(&doc, scheme);
    let mut ec = EpochCatalog::new(doc, scheme);
    for v in views {
        ec.add_view(v, RefreshPolicy::Eager);
    }
    let mut stream = Pr7Stream::new(2);
    let mut owned: Vec<f64> = (0..5)
        .map(|_| {
            let batch = stream.next_batch(ec.live(), 0.01);
            let t = Instant::now();
            let r = ec.apply(&batch).unwrap();
            let wall = t.elapsed().as_nanos() as f64;
            assert!(r.release_ns > 0, "the pre-batch document is freed inside");
            (r.ingest_ns + r.maintain_ns + r.release_ns + r.publish_ns) as f64 / wall
        })
        .collect();
    // the median: one batch descheduled between the last stamp and the
    // return must not fail the suite
    owned.sort_by(f64::total_cmp);
    assert!(
        owned[2] >= 0.95 && owned[2] <= 1.0,
        "owned shares {owned:?}"
    );
}
