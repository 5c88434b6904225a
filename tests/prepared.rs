//! The rewriter's per-view preparation, cached on the `View` and stamped
//! with the summary constraints it was built under, is invisible in every
//! result: a run over a maintained snapshot's views (warm cells) returns
//! what a run over freshly built definitions (cold cells) returns — the
//! same plans in the same order with the same estimates, and the same
//! search counters. The directed cases fail if the stamp is too coarse.

use smv::advisor::CandidateKind;
use smv::core::{RewriteResult, Rewriter};
use smv::prelude::*;
use smv::views::col_cards;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One test reads `smv-obs` counters, which are process-wide, and every
/// test here runs the rewriter: they take turns.
static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The benchmark's query pool (`smvbench/src/workloads.rs`).
const POOL: [&str; 11] = [
    "site(/open_auctions(/open_auction{id}(/initial{v})))",
    "site(/open_auctions(/open_auction{id}(/current{v})))",
    "site(/people(/person{id}(/name{v})))",
    "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
    "site(/people(/person{id}(/emailaddress{v})))",
    "site(/closed_auctions(/closed_auction{id}(/price{v}[v>400])))",
    "site(/regions(/asia(/item{id}(/name{v}))))",
    "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v})))",
    "site(//name{id,v})",
    "site(//item{id}(/name{id,v}))",
    "site(//quantity{id,v})",
];

/// The advisor's choice for `pr3_workload` under 90 % of its all-singleton
/// budget plus `pr7_views` — what `smvbench` registers.
fn benchmark_views(doc: &Document, scheme: IdScheme) -> Vec<View> {
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

/// Ranks `q` the way `QueryService` does, over `views` under `snap`'s
/// summary and extent sizes.
fn rank(snap: &CatalogEpoch, views: &[View], q: &Pattern) -> RewriteResult {
    let cards = CatalogCards::over(snap, snap.summary());
    Rewriter::new(q, views, snap.summary(), RewriteOpts::default())
        .with_card_source(&cards)
        .run()
}

/// The same definitions with nothing cached on them.
fn cold(views: &[View]) -> Vec<View> {
    views
        .iter()
        .map(|v| View::new(&v.name, v.pattern.clone(), v.scheme))
        .collect()
}

/// Ranks `q` over the snapshot's own views and over cold copies and holds
/// the two results equal; returns the warm one.
fn assert_prepared_equals_fresh(snap: &CatalogEpoch, q: &Pattern, at: &str) -> RewriteResult {
    let warm = rank(snap, snap.views(), q);
    let fresh_views = cold(snap.views());
    let fresh = rank(snap, &fresh_views, q);
    assert_eq!(fresh.stats.prepared_reused, 0, "{at}: cold cells");
    assert_eq!(fresh.stats.prepared_built, fresh_views.len(), "{at}");
    assert_eq!(
        warm.stats.prepared_reused + warm.stats.prepared_built,
        snap.views().len(),
        "{at}: every view is either found or built"
    );
    let plans = |r: &RewriteResult| -> Vec<(String, u64, u64)> {
        r.rewritings
            .iter()
            .map(|rw| {
                (
                    rw.plan.to_string(),
                    rw.est.cost.to_bits(),
                    rw.est.rows.to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(plans(&warm), plans(&fresh), "{at}: plans, order, estimates");
    let counters = |r: &RewriteResult| {
        (
            r.stats.pairs_explored,
            r.stats.pairs_pruned,
            r.stats.views_kept,
            r.stats.views_total,
        )
    };
    assert_eq!(counters(&warm), counters(&fresh), "{at}: the same search");
    warm
}

#[test]
fn prepared_equals_fresh_after_every_batch_of_a_stream() {
    let _turn = my_turn();
    let scheme = IdScheme::OrdPath;
    let doc = pr7_document(0.05, 17);
    let views = benchmark_views(&doc, scheme);
    let mut ec = EpochCatalog::new(doc, scheme);
    for v in views {
        ec.add_view(v, RefreshPolicy::Eager);
    }
    let queries: Vec<Pattern> = POOL.iter().map(|q| parse_pattern(q).unwrap()).collect();
    let mut stream = Pr7Stream::new(23);
    let mut stamps = std::collections::BTreeSet::new();
    let mut geometries = std::collections::BTreeSet::new();
    for batch_no in 0..=20 {
        if batch_no > 0 {
            let batch = stream.next_batch(ec.live(), 0.05);
            ec.apply(&batch).unwrap();
        }
        let snap = ec.snapshot();
        geometries.insert(snap.summary().geometry_token());
        let first_under_stamp = stamps.insert(snap.summary().constraints_token());
        for (qi, q) in queries.iter().enumerate() {
            let at = format!("batch {batch_no}, query {}", POOL[qi]);
            let warm = assert_prepared_equals_fresh(&snap, q, &at);
            assert!(!warm.rewritings.is_empty(), "{at}: the pool is answerable");
            // under an unchanged stamp nothing is rebuilt; under a new one
            // the first ranking rebuilds every view, once
            let expect_built = if first_under_stamp && qi == 0 {
                snap.views().len()
            } else {
                0
            };
            assert_eq!(warm.stats.prepared_built, expect_built, "{at}");
        }
        // the column cards kept with each view's preparation, which the
        // rankings above priced scans with, are the view's cards under
        // this epoch's summary
        let rewriter = Rewriter::new(
            &queries[0],
            snap.views(),
            snap.summary(),
            RewriteOpts::default(),
        );
        for v in snap.views() {
            assert_eq!(
                format!("{:?}", rewriter.prepared_cards(v)),
                format!("{:?}", col_cards(&v.pattern, snap.summary())),
                "batch {batch_no}, view {}",
                v.name
            );
        }
    }
    assert!(geometries.len() > 1, "the stream creates summary paths");
}

/// A catalog over a small document with one view, for the directed cases.
fn tiny(doc: &str, view: &str) -> EpochCatalog {
    let scheme = IdScheme::OrdPath;
    let mut ec = EpochCatalog::new(Document::from_parens(doc), scheme);
    ec.add_view(
        View::new("v", parse_pattern(view).unwrap(), scheme),
        RefreshPolicy::Eager,
    );
    ec
}

fn id_of(ec: &EpochCatalog, label: &str, nth: usize) -> smv::xml::StructId {
    let doc = ec.live().doc();
    let n = doc
        .iter()
        .filter(|&n| doc.label(n).as_str() == label)
        .nth(nth)
        .unwrap_or_else(|| panic!("no {label} #{nth}"));
    ec.live().ids().id(n).clone()
}

/// A batch that creates a summary path under a `//` view: the view's
/// associated paths and canonical model grow, so a preparation stamped
/// with less than the geometry would miss the new member and the view
/// would stop covering the query. (Two `c`s, one of them given a `b`: the
/// new edge is not strong, so no flag flips and the geometry alone has to
/// move the stamp.)
#[test]
fn a_new_path_under_a_descendant_view_rebuilds_its_preparation() {
    let _turn = my_turn();
    let mut ec = tiny(r#"r(a(b="1") c c)"#, "r(//b{id,v})");
    let q = parse_pattern("r(//b{id,v})").unwrap();
    let before = ec.snapshot();
    let warm = assert_prepared_equals_fresh(&before, &q, "before");
    assert_eq!(warm.stats.prepared_built, 1, "first ranking builds");
    assert_eq!(rank(&before, before.views(), &q).stats.prepared_built, 0);

    let mut batch = UpdateBatch::new();
    batch.insert(id_of(&ec, "c", 0), Document::from_parens(r#"b="2""#));
    let report = ec.apply(&batch).unwrap();
    assert!(report.geometry_changed, "/r/c/b is a new path");
    let after = ec.snapshot();
    assert_ne!(
        before.summary().geometry_token(),
        after.summary().geometry_token()
    );
    assert_eq!(
        before.summary().constraints_token().2,
        after.summary().constraints_token().2,
        "no edge class flipped"
    );
    let warm = assert_prepared_equals_fresh(&after, &q, "after");
    assert_eq!(
        warm.stats.prepared_built, 1,
        "the stamp moved: rebuilt once"
    );
    assert!(!warm.rewritings.is_empty(), "the view still answers //b");
    let rows = execute_with(&warm.rewritings[0].plan, &*after, &ExecOpts::default()).unwrap();
    assert_eq!(rows.len(), 2, "both b nodes, the new path's included");
    // the superseded snapshot is still served by its own constraints
    assert_prepared_equals_fresh(&before, &q, "before, again");
}

/// A batch that deletes the last `b` child of one `a`: no path appears or
/// disappears (the geometry token stands), but the edge `a → b` stops
/// being strong, and with it the closure that made `r(/a{id})` equivalent
/// to "the `a`s that have a `b`". A preparation stamped with the geometry
/// alone would keep answering that query from the view.
#[test]
fn a_flipped_edge_class_rebuilds_the_preparation_though_geometry_stands() {
    let _turn = my_turn();
    let mut ec = tiny(r#"r(a(b="1") a(b="2"))"#, "r(/a{id})");
    let q = parse_pattern("r(/a{id}(/b))").unwrap();
    let before = ec.snapshot();
    let warm = assert_prepared_equals_fresh(&before, &q, "before");
    assert!(
        !warm.rewritings.is_empty(),
        "every a has a b: the view answers the query"
    );

    let mut batch = UpdateBatch::new();
    batch.delete(id_of(&ec, "b", 1));
    let report = ec.apply(&batch).unwrap();
    assert!(!report.geometry_changed);
    let after = ec.snapshot();
    assert_eq!(
        before.summary().geometry_token(),
        after.summary().geometry_token(),
        "count-only maintenance keeps the geometry"
    );
    assert_ne!(
        before.summary().constraints_token(),
        after.summary().constraints_token(),
        "the strong flag flipped"
    );
    let warm = assert_prepared_equals_fresh(&after, &q, "after");
    assert_eq!(warm.stats.prepared_built, 1);
    assert!(
        warm.rewritings.is_empty(),
        "one a lost its b: the view no longer answers the query"
    );

    // a batch that flips nothing leaves the stamp, and the cell, alone
    let mut batch = UpdateBatch::new();
    batch.insert(id_of(&ec, "a", 0), Document::from_parens(r#"b="3""#));
    ec.apply(&batch).unwrap();
    let later = ec.snapshot();
    assert_eq!(
        after.summary().constraints_token(),
        later.summary().constraints_token()
    );
    let warm = assert_prepared_equals_fresh(&later, &q, "later");
    assert_eq!(warm.stats.prepared_built, 0, "carried across the epoch");
}

/// Through `QueryService`: after the first request of an epoch whose stamp
/// is unchanged, a ranking builds nothing — `rewrite.prepared_built`, the
/// library's own counter, stands still across an `apply`; a constraint
/// change rebuilds exactly the views registered, once.
#[test]
fn the_service_builds_no_preparation_across_an_apply() {
    let _turn = my_turn();
    let _obs = ScopedEnable::new();
    let obs = smv::obs::global();
    let scheme = IdScheme::OrdPath;
    let svc = QueryService::new(
        Document::from_parens(r#"r(a(b="1") a(b="2" b="3") c)"#),
        scheme,
        ServiceConfig { threads: 1 },
    );
    let views = vec![
        View::new("va", parse_pattern("r(/a{id})").unwrap(), scheme),
        View::new("vb", parse_pattern("r(//b{id,v})").unwrap(), scheme),
    ];
    let registered = views.len() as u64;
    svc.add_views(views, RefreshPolicy::Eager);
    let id_of = |label: &str, nth: usize| {
        svc.with_catalog(|c| {
            let doc = c.live().doc();
            let n = doc
                .iter()
                .filter(|&n| doc.label(n).as_str() == label)
                .nth(nth)
                .expect("labelled node");
            c.live().ids().id(n).clone()
        })
    };
    let built = || obs.counter("rewrite.prepared_built");
    let reused = || obs.counter("rewrite.prepared_reused");

    obs.reset();
    svc.query("r(//b{id,v})").unwrap();
    assert_eq!(
        built(),
        registered,
        "a cold cell is the first request's cost"
    );
    svc.query("r(//b{id,v}[v>1])").unwrap();
    svc.query("r(/a{id})").unwrap();
    assert_eq!(
        built(),
        registered,
        "never-seen texts find the views prepared"
    );
    assert_eq!(reused(), 2 * registered);

    // an update that adds a b beside another: no new path, no flipped flag
    let stamp = svc.snapshot().summary().constraints_token();
    let mut batch = UpdateBatch::new();
    batch.insert(id_of("a", 1), Document::from_parens(r#"b="4""#));
    svc.apply(&batch).unwrap();
    assert_eq!(svc.snapshot().summary().constraints_token(), stamp);
    let rows = svc.query("r(//b{id,v})").unwrap().rows.len();
    assert_eq!(rows, 4, "re-ranked on the new epoch");
    svc.query("r(//b{id,v}[v>2])").unwrap();
    assert_eq!(built(), registered, "the preparation crossed the epoch");

    // a new path (/r/c/b): every registered view is prepared again, once
    let mut batch = UpdateBatch::new();
    batch.insert(id_of("c", 0), Document::from_parens(r#"b="5""#));
    svc.apply(&batch).unwrap();
    assert_ne!(svc.snapshot().summary().constraints_token(), stamp);
    assert_eq!(svc.query("r(//b{id,v})").unwrap().rows.len(), 5);
    assert_eq!(built(), 2 * registered);
    svc.query("r(//b{id,v}[v>3])").unwrap();
    svc.query("r(/a{id})").unwrap();
    assert_eq!(built(), 2 * registered, "and only once");
}
