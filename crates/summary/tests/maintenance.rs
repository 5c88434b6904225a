//! Incremental summary maintenance equals from-scratch summarization.

mod common;

use common::summaries_agree;
use smv_summary::Summary;
use smv_xml::{Document, IdScheme, LiveDoc, StructId, UpdateBatch};

fn id_by_path(live: &LiveDoc, path: &[&str]) -> StructId {
    let mut n = live.doc().root();
    for step in path {
        n = *live
            .doc()
            .children(n)
            .iter()
            .find(|&&c| live.doc().label(c).as_str() == *step)
            .unwrap_or_else(|| panic!("no child {step}"));
    }
    live.ids().id(n).clone()
}

#[test]
fn insert_maintains_stats_exactly() {
    let mut live = LiveDoc::new(
        Document::from_parens(r#"r(a(b="1" c) a(b="2" c))"#),
        IdScheme::OrdPath,
    );
    let mut s = Summary::of(live.doc());
    let a0 = id_by_path(&live, &["a"]);
    let mut batch = UpdateBatch::new();
    // grows an existing path (b), adds a new path (d/e), revisits c
    batch.insert(a0, Document::from_parens(r#"d(e="9")"#));
    batch.insert(
        live.ids().id(live.doc().root()).clone(),
        Document::from_parens(r#"a(b="3" c)"#),
    );
    let applied = live.apply(&batch).unwrap();
    let created = s.apply_update(&applied, live.doc());
    assert!(created, "d/e are new paths");
    summaries_agree(&s, &Summary::of(live.doc())).unwrap();
}

#[test]
fn delete_maintains_stats_and_keeps_dead_paths() {
    let mut live = LiveDoc::new(
        Document::from_parens(r#"r(a(b="1" c(d="7")) a(b="2" c(d="8")) a(b="2"))"#),
        IdScheme::Dewey,
    );
    let mut s = Summary::of(live.doc());
    let token_before = s.geometry_token();
    // delete both c subtrees: path /r/a/c/d dies entirely
    let mut batch = UpdateBatch::new();
    for n in live.doc().iter() {
        if live.doc().label(n).as_str() == "c" {
            batch.delete(live.ids().id(n).clone());
        }
    }
    let applied = live.apply(&batch).unwrap();
    let created = s.apply_update(&applied, live.doc());
    assert!(!created, "deletions never create paths");
    assert_eq!(
        s.geometry_token(),
        token_before,
        "count-only maintenance must not invalidate the geometry"
    );
    summaries_agree(&s, &Summary::of(live.doc())).unwrap();
    let dead = s
        .node_by_path("/r/a/c/d")
        .expect("path survives at count 0");
    assert_eq!(s.count(dead), 0);
}

#[test]
fn mixed_batches_match_from_scratch_across_schemes() {
    for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
        let mut live = LiveDoc::new(
            Document::from_parens(r#"r(a(b="1" b="1" c) a(b="2" c) x(y="5"))"#),
            scheme,
        );
        let mut s = Summary::of(live.doc());
        // batch 1: delete one b (a value duplicated elsewhere), insert under x
        let b0 = id_by_path(&live, &["a", "b"]);
        let x = id_by_path(&live, &["x"]);
        let mut batch = UpdateBatch::new();
        batch.delete(b0);
        batch.insert(x.clone(), Document::from_parens(r#"y="6""#));
        let applied = live.apply(&batch).unwrap();
        s.apply_update(&applied, live.doc());
        summaries_agree(&s, &Summary::of(live.doc())).unwrap();
        // batch 2: modify = delete + insert under the same parent
        let y = id_by_path(&live, &["x", "y"]);
        let mut batch = UpdateBatch::new();
        batch.delete(y);
        batch.insert(x, Document::from_parens(r#"y="7""#));
        let applied = live.apply(&batch).unwrap();
        s.apply_update(&applied, live.doc());
        summaries_agree(&s, &Summary::of(live.doc())).unwrap();
    }
}

#[test]
fn snapshot_preserves_token_and_freezes_stats() {
    let mut live = LiveDoc::new(
        Document::from_parens(r#"r(a="1" a="2")"#),
        IdScheme::OrdPath,
    );
    let mut s = Summary::of(live.doc());
    let snap = s.snapshot();
    assert_eq!(snap.geometry_token(), s.geometry_token());
    // maintenance that creates a path bumps the live token, not the snapshot
    let r = live.ids().id(live.doc().root()).clone();
    let mut batch = UpdateBatch::new();
    batch.insert(r, Document::from_parens("z"));
    let applied = live.apply(&batch).unwrap();
    assert!(s.apply_update(&applied, live.doc()));
    assert_ne!(snap.geometry_token(), s.geometry_token());
    let a = snap.node_by_path("/r/a").unwrap();
    assert_eq!(snap.count(a), 2, "snapshot stats frozen");
}

/// The constraints token moves with the geometry and with every flipped
/// strong / one-to-one flag, and with nothing else: counts and values may
/// change under it, and an override that sets a flag to what it was is not
/// a change.
#[test]
fn constraints_token_follows_paths_and_edge_classes_only() {
    let mut live = LiveDoc::new(
        Document::from_parens(r#"r(a(b="1") a(b="2" b="3") c)"#),
        IdScheme::OrdPath,
    );
    let mut s = Summary::of(live.doc());
    let b = s.node_by_path("/r/a/b").unwrap();
    assert!(s.is_strong_edge(b) && !s.is_one_to_one_edge(b));
    let t0 = s.constraints_token();
    assert_eq!((t0.0, t0.1), s.geometry_token());
    assert_eq!(s.snapshot().constraints_token(), t0, "snapshots keep it");

    // one more b under the first a: counts move, no class does
    let a1 = id_by_path(&live, &["a"]);
    let mut batch = UpdateBatch::new();
    batch.insert(a1, Document::from_parens(r#"b="4""#));
    let applied = live.apply(&batch).unwrap();
    assert!(!s.apply_update(&applied, live.doc()));
    assert_eq!(s.constraints_token(), t0, "a count-only batch");

    // the first a loses every b: a → b is no longer strong
    let mut batch = UpdateBatch::new();
    for n in live
        .doc()
        .children(live.doc().children(live.doc().root())[0])
    {
        batch.delete(live.ids().id(*n).clone());
    }
    let applied = live.apply(&batch).unwrap();
    assert!(!s.apply_update(&applied, live.doc()));
    assert!(!s.is_strong_edge(b));
    let t1 = s.constraints_token();
    assert_eq!((t1.0, t1.1), (t0.0, t0.1), "no path came or went");
    assert_ne!(t1.2, t0.2, "a flipped flag");

    // overrides count when they change something
    s.set_strong_edge(b, false);
    s.set_one_to_one_edge(b, false);
    assert_eq!(s.constraints_token(), t1);
    s.set_one_to_one_edge(b, true);
    assert!(s.is_strong_edge(b));
    assert_ne!(s.constraints_token(), t1);

    // serialization carries neither the instance nor the generation
    let back = Summary::from_bytes(&s.to_bytes()).unwrap();
    assert_ne!(back.constraints_token().0, s.constraints_token().0);
    assert!(back.is_one_to_one_edge(back.node_by_path("/r/a/b").unwrap()));
}
