//! Cross-scheme integration tests: the rewriting opportunities the paper
//! attributes to ID properties (§1 "Exploiting ID properties", §4.6) must
//! appear and disappear with the scheme's capabilities.

mod common;

use common::materialized;
use smv::prelude::*;
use std::sync::Arc;

fn fixture() -> (Document, Summary) {
    let doc = Document::from_parens(r#"r(item(name="p1" price="5") item(name="p2" price="9"))"#);
    let s = Summary::of(&doc);
    (doc, s)
}

/// Structural joins require structural IDs: with ORDPATH or Dewey the
/// two-view rewriting exists; with sequential IDs it must not.
#[test]
fn structural_rewriting_needs_structural_ids() {
    let (doc, s) = fixture();
    let q = parse_pattern("r(/item{id}(/name{id,v}))").unwrap();
    // exhaustive mode: the cost bound would otherwise (correctly) prune
    // the 2-scan join once the cheaper virtual-ID plan is found — this
    // test is about capability, not ranking
    let opts = RewriteOpts {
        cost_prune: false,
        ..Default::default()
    };
    for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
        let vi = View::new("vi", parse_pattern("r(/item{id})").unwrap(), scheme);
        let vn = View::new("vn", parse_pattern("r(//name{id,v})").unwrap(), scheme);
        let r = rewrite(&q, &[vi.clone(), vn.clone()], &s, &opts);
        assert!(
            r.rewritings.iter().any(|rw| rw.scans == 2),
            "{scheme:?} supports the structural-join rewriting"
        );
        let catalog = materialized(&doc, &[vi, vn]);
        let direct = materialize(&q, &doc, scheme);
        for rw in &r.rewritings {
            let out = execute_with(&rw.plan, &catalog, &ExecOpts::default()).unwrap();
            assert!(out.set_eq(&direct), "{scheme:?} plan:\n{}", rw.plan);
        }
    }
    // sequential ids cannot be structurally joined
    let vi = View::new(
        "vi",
        parse_pattern("r(/item{id})").unwrap(),
        IdScheme::Sequential,
    );
    let vn = View::new(
        "vn",
        parse_pattern("r(//name{id,v})").unwrap(),
        IdScheme::Sequential,
    );
    let r = rewrite(&q, &[vi, vn], &s, &RewriteOpts::default());
    assert!(
        r.rewritings.iter().all(|rw| rw.scans < 2),
        "no structural join is possible over sequential IDs"
    );
}

/// Virtual IDs (§4.6) only exist for parent-derivable schemes.
#[test]
fn virtual_ids_follow_scheme_capability() {
    let (doc, s) = fixture();
    let q = parse_pattern("r(/item{id})").unwrap();
    // view stores only the *name* ids — item ids must be derived
    for (scheme, expect) in [
        (IdScheme::OrdPath, true),
        (IdScheme::Dewey, true),
        (IdScheme::Sequential, false),
    ] {
        let v = View::new("vn", parse_pattern("r(/item(/name{id}))").unwrap(), scheme);
        let r = rewrite(&q, std::slice::from_ref(&v), &s, &RewriteOpts::default());
        assert_eq!(
            !r.rewritings.is_empty(),
            expect,
            "virtual-ID rewriting under {scheme:?}"
        );
        if expect {
            let catalog = materialized(&doc, &[v]);
            let out = execute_with(&r.rewritings[0].plan, &catalog, &ExecOpts::default()).unwrap();
            let direct = materialize(&q, &doc, scheme);
            assert!(out.set_eq(&direct));
        }
    }
}

/// Mixed-scheme view sets never join across schemes.
#[test]
fn mixed_schemes_do_not_join() {
    let (_, s) = fixture();
    let q = parse_pattern("r(/item{id}(/name{id,v}))").unwrap();
    let vi = View::new(
        "vi",
        parse_pattern("r(/item{id})").unwrap(),
        IdScheme::OrdPath,
    );
    let vn = View::new(
        "vn",
        parse_pattern("r(//name{id,v})").unwrap(),
        IdScheme::Dewey,
    );
    let r = rewrite(&q, &[vi, vn], &s, &RewriteOpts::default());
    // self-joins within one view are fine; what must never happen is a
    // plan mixing the OrdPath view with the Dewey view
    for rw in &r.rewritings {
        let used = rw.plan.views_used();
        assert!(
            !(used.contains(&"vi".to_string()) && used.contains(&"vn".to_string())),
            "cross-scheme join in plan:\n{}",
            rw.plan
        );
    }
}

/// Failure injection: plans referencing unknown views or ill-typed
/// columns fail cleanly, never panicking.
#[test]
fn executor_failure_injection() {
    use smv::algebra::{ExecError, Plan, Predicate};
    let (doc, _) = fixture();
    let v = View::new(
        "v",
        parse_pattern("r(/item{id})").unwrap(),
        IdScheme::OrdPath,
    );
    let catalog = materialized(&doc, &[v]);
    // unknown view
    let bad = Plan::Scan {
        view: "nope".into(),
    };
    let err = execute_with(&bad, &catalog, &ExecOpts::default()).unwrap_err();
    assert!(matches!(err.kind(), ExecError::UnknownView(_)));
    assert_eq!(err.op_path(), Some(""), "located at the root operator");
    // value predicate on an ID column is a type error
    let typed = Plan::Select {
        input: Arc::new(Plan::Scan { view: "v".into() }),
        pred: Predicate::Value {
            col: 0,
            formula: Formula::eq(Value::int(1)),
        },
    };
    assert!(matches!(
        execute_with(&typed, &catalog, &ExecOpts::default())
            .unwrap_err()
            .kind(),
        ExecError::Type(_)
    ));
    // projecting a column out of range is a schema error
    let oob = Plan::Project {
        input: Arc::new(Plan::Scan { view: "v".into() }),
        cols: vec![7],
    };
    assert!(matches!(
        execute_with(&oob, &catalog, &ExecOpts::default())
            .unwrap_err()
            .kind(),
        ExecError::Schema(_)
    ));
}

/// The catalog materializes per-scheme, and extents differ only in ID
/// representation.
#[test]
fn extents_across_schemes_have_equal_cardinality() {
    let (doc, _) = fixture();
    let pat = parse_pattern("r(//*{id,l})").unwrap();
    let mut sizes = Vec::new();
    for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
        sizes.push(materialize(&pat, &doc, scheme).len());
    }
    assert_eq!(sizes[0], sizes[1]);
    assert_eq!(sizes[1], sizes[2]);
}
