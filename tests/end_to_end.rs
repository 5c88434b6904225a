//! Integration tests spanning the whole stack: XML → summary → views →
//! containment → rewriting → plan execution, on the paper's running
//! example (Figure 1) and on generated XMark data.

mod common;

use common::materialized;
use smv::prelude::*;

/// A document shaped like the paper's Figure 1(a).
fn figure1_doc() -> Document {
    parse_document(
        r#"<site><regions><asia>
             <item>
               <name>Columbus pen</name>
               <mailbox><mail><from>bill@aol.com</from><to>jane@u2.com</to></mail></mailbox>
               <description><parlist>
                 <listitem><keyword>Columbus</keyword><text>Italic
                   <keyword>fountain pen</keyword></text></listitem>
                 <listitem><text>Stainless steel, <bold>gold plated</bold></text></listitem>
               </parlist></description>
             </item>
             <item>
               <name>Monteverdi pen</name>
               <description><parlist>
                 <listitem><text>Monteverdi Invincia pen</text></listitem>
               </parlist></description>
             </item>
           </asia></regions></site>"#,
    )
    .expect("figure 1 document parses")
}

#[test]
fn figure1_views_materialize_like_the_paper() {
    let doc = figure1_doc();
    // V1: regions//*{ID}(description/parlist/listitem? nested {C}, bold? {V})
    let v1 = parse_pattern(
        "site(/regions(//*{id}(/description(/parlist(?%/listitem{c})), ?//bold{v})))",
    )
    .unwrap();
    let rel = materialize(&v1, &doc, IdScheme::OrdPath);
    // two items → two tuples; one has a bold value, the other ⊥
    assert_eq!(rel.len(), 2);
    let bolds: Vec<bool> = rel.rows.iter().map(|r| r.cells[2].is_null()).collect();
    assert!(bolds.contains(&true) && bolds.contains(&false));
    // V2: regions//*{ID}(name {V})
    let v2 = parse_pattern("site(/regions(//item{id}(/name{v})))").unwrap();
    let rel2 = materialize(&v2, &doc, IdScheme::OrdPath);
    assert_eq!(rel2.len(), 2);
}

#[test]
fn figure1_summary_reasoning() {
    let doc = figure1_doc();
    let s = Summary::of(&doc);
    let opts = ContainOpts::default();
    // "all children of regions-regions that have description children are
    // labeled item": a * view over them is equivalent to item
    let star = parse_pattern("site(/regions(//*{id}(/description)))").unwrap();
    let item = parse_pattern("site(/regions(//item{id}(/description)))").unwrap();
    assert_eq!(equivalent(&star, &item, &s, &opts), Decision::Contained);
    // "all /regions//item//keyword nodes are descendants of listitem"
    let kw_any = parse_pattern("site(/regions(//item(//keyword{id})))").unwrap();
    let kw_li = parse_pattern("site(/regions(//item(//listitem(//keyword{id}))))").unwrap();
    assert_eq!(equivalent(&kw_any, &kw_li, &s, &opts), Decision::Contained);
}

#[test]
fn xquery_to_rewriting_pipeline() {
    let doc = figure1_doc();
    let s = Summary::of(&doc);
    // the paper's §1 query, via the XQuery front-end
    let flwr = parse_xquery(
        r#"for $x in doc("x")//item[//mail] return
           <res>{ $x/name/text() }</res>"#,
    )
    .unwrap();
    let q = translate(&flwr).unwrap();
    // a view storing item ids + names (optional), item content for the
    // mail check
    let v = View::new(
        "v1",
        parse_pattern("*(//item{id}(//mail, ?/name{v}))").unwrap(),
        IdScheme::OrdPath,
    );
    let r = rewrite(&q, std::slice::from_ref(&v), &s, &RewriteOpts::default());
    assert!(
        !r.rewritings.is_empty(),
        "the §1 query rewrites over a matching view"
    );
    let catalog = materialized(&doc, &[v]);
    let out = execute_with(&r.rewritings[0].plan, &catalog, &ExecOpts::default()).unwrap();
    let direct = materialize(&q, &doc, IdScheme::OrdPath);
    assert!(out.set_eq(&direct), "got {out}\nexpected {direct}");
    assert_eq!(out.len(), 1, "only the mail-ed item qualifies");
}

#[test]
fn nested_query_rewrites_over_flat_views_on_xmark() {
    let doc = xmark(&XmarkConfig {
        scale: 0.05,
        ..Default::default()
    });
    let s = Summary::of(&doc);
    let q = parse_pattern("site(//mail{id}(?%/from{v}))").unwrap();
    let v = View::new(
        "vm",
        parse_pattern("site(//mail{id}(?/from{v}))").unwrap(),
        IdScheme::OrdPath,
    );
    let r = rewrite(&q, std::slice::from_ref(&v), &s, &RewriteOpts::default());
    assert!(!r.rewritings.is_empty());
    let catalog = materialized(&doc, &[v]);
    let out = execute_with(&r.rewritings[0].plan, &catalog, &ExecOpts::default()).unwrap();
    let direct = materialize(&q, &doc, IdScheme::OrdPath);
    assert!(out.set_eq(&direct));
}

#[test]
fn structural_join_rewriting_on_xmark() {
    let doc = xmark(&XmarkConfig {
        scale: 0.05,
        ..Default::default()
    });
    let s = Summary::of(&doc);
    // query: open auctions with their initial — from two separate views
    let q = parse_pattern("site(/open_auctions(/open_auction{id}(/initial{id,v})))").unwrap();
    let va = View::new(
        "va",
        parse_pattern("site(//open_auction{id})").unwrap(),
        IdScheme::OrdPath,
    );
    let vi = View::new(
        "vi",
        parse_pattern("site(//initial{id,v})").unwrap(),
        IdScheme::OrdPath,
    );
    // exhaustive mode (no cost bound): the join rewriting must exist
    let exhaustive = RewriteOpts {
        cost_prune: false,
        ..Default::default()
    };
    let r = rewrite(&q, &[va.clone(), vi.clone()], &s, &exhaustive);
    assert!(!r.rewritings.is_empty(), "structural join rewriting exists");
    assert!(
        r.rewritings.iter().any(|rw| rw.scans == 2),
        "some rewriting joins both views"
    );
    let catalog = materialized(&doc, &[va, vi]);
    for rw in &r.rewritings {
        let out = execute_with(&rw.plan, &catalog, &ExecOpts::default()).unwrap();
        let direct = materialize(&q, &doc, IdScheme::OrdPath);
        assert!(out.set_eq(&direct), "plan:\n{}", rw.plan);
    }
    // default mode keeps only non-dominated plans, ranked cheapest-first —
    // here a single-scan virtual-ID plan beats every two-view join
    let ranked = rewrite(
        &q,
        &[catalog.views()[0].clone(), catalog.views()[1].clone()],
        &s,
        &RewriteOpts::default(),
    );
    assert!(!ranked.rewritings.is_empty());
    assert_eq!(
        ranked.rewritings[0].scans, 1,
        "cheapest plan scans one view"
    );
    let best = execute_with(&ranked.rewritings[0].plan, &catalog, &ExecOpts::default()).unwrap();
    assert!(best.set_eq(&materialize(&q, &doc, IdScheme::OrdPath)));
}

#[test]
fn cost_ranking_never_changes_results_on_xmark() {
    // every plan returned by the cost-ranked rewrite() — best, worst and
    // everything between — must evaluate to exactly the relation direct
    // pattern evaluation produces; ranking reorders, never alters
    let doc = xmark(&XmarkConfig {
        scale: 0.1,
        ..Default::default()
    });
    let s = Summary::of(&doc);
    for case in smv::datagen::pr2_workload(IdScheme::OrdPath) {
        let catalog = materialized(&doc, &case.views);
        let cards = CatalogCards::over(&catalog, &s);
        let r = Rewriter::new(&case.query, &case.views, &s, RewriteOpts::default())
            .with_card_source(&cards)
            .run();
        assert!(!r.rewritings.is_empty(), "case {} rewrites", case.name);
        let direct = materialize(&case.query, &doc, IdScheme::OrdPath);
        for rw in &r.rewritings {
            let out = execute_with(&rw.plan, &catalog, &ExecOpts::default()).unwrap();
            assert!(
                out.set_eq(&direct),
                "case {}: ranked plan diverges\n{}",
                case.name,
                rw.plan
            );
        }
        for w in r.rewritings.windows(2) {
            assert!(w[0].est.cost <= w[1].est.cost, "ranked by cost");
        }
    }
}

/// Documented accuracy bound for the cardinality estimator on this
/// workload: estimates stay within this factor of actual output rows.
const EST_FACTOR: f64 = 4.0;

#[test]
fn estimated_cardinalities_track_actuals_on_xmark() {
    let doc = xmark(&XmarkConfig {
        scale: 0.2,
        ..Default::default()
    });
    let s = Summary::of(&doc);
    // scan + σ_L plans from the pr2 workload
    for case in smv::datagen::pr2_workload(IdScheme::OrdPath) {
        let catalog = materialized(&doc, &case.views);
        let cards = CatalogCards::over(&catalog, &s);
        let r = Rewriter::new(&case.query, &case.views, &s, RewriteOpts::default())
            .with_card_source(&cards)
            .run();
        for rw in &r.rewritings {
            let actual = execute_with(&rw.plan, &catalog, &ExecOpts::default())
                .unwrap()
                .len() as f64;
            assert!(
                rw.est.rows <= actual * EST_FACTOR && rw.est.rows >= actual / EST_FACTOR,
                "case {}: estimate {} vs actual {} exceeds ×{EST_FACTOR}\n{}",
                case.name,
                rw.est.rows,
                actual,
                rw.plan
            );
        }
    }
    // a structural-join plan: the containment-count estimate
    let q = parse_pattern("site(/open_auctions(/open_auction{id}(/initial{id,v})))").unwrap();
    let va = View::new(
        "va",
        parse_pattern("site(//open_auction{id})").unwrap(),
        IdScheme::OrdPath,
    );
    let vi = View::new(
        "vi",
        parse_pattern("site(//initial{id,v})").unwrap(),
        IdScheme::OrdPath,
    );
    let catalog = materialized(&doc, &[va.clone(), vi.clone()]);
    let cards = CatalogCards::over(&catalog, &s);
    let opts = RewriteOpts {
        cost_prune: false, // keep the join plans for inspection
        ..Default::default()
    };
    let views = [va, vi];
    let r = Rewriter::new(&q, &views, &s, opts)
        .with_card_source(&cards)
        .run();
    assert!(!r.rewritings.is_empty());
    for rw in &r.rewritings {
        let actual = execute_with(&rw.plan, &catalog, &ExecOpts::default())
            .unwrap()
            .len() as f64;
        assert!(
            rw.est.rows <= actual * EST_FACTOR && rw.est.rows >= actual / EST_FACTOR,
            "join estimate {} vs actual {}\n{}",
            rw.est.rows,
            actual,
            rw.plan
        );
    }
}

#[test]
fn containment_decisions_respect_evaluation_on_xmark() {
    // sanity at scale: if p ⊆S q is decided, then p(d) ⊆ q(d) on the
    // generated document (soundness spot-check on real data)
    let doc = xmark(&XmarkConfig {
        scale: 0.05,
        ..Default::default()
    });
    let s = Summary::of(&doc);
    let opts = ContainOpts::default();
    let pairs = [
        ("site(/regions(//item{id}))", "site(//item{id})"),
        (
            "site(//item{id}(/description(/parlist)))",
            "site(//item{id}(/description))",
        ),
        ("site(//keyword{id})", "site(//*{id})"),
        (
            "site(//open_auction{id}(/initial[v>100]))",
            "site(//open_auction{id}(/initial))",
        ),
    ];
    for (psrc, qsrc) in pairs {
        let p = parse_pattern(psrc).unwrap();
        let q = parse_pattern(qsrc).unwrap();
        assert_eq!(
            contained(&p, &q, &s, &opts),
            Decision::Contained,
            "{psrc} ⊆ {qsrc}"
        );
        let pt = evaluate(&p, &doc);
        let qt = evaluate(&q, &doc);
        assert!(pt.is_subset(&qt), "evaluation contradicts {psrc} ⊆ {qsrc}");
    }
}

#[test]
fn all_xmark_queries_self_contain() {
    let s = Summary::of(&xmark(&XmarkConfig::default()));
    let opts = ContainOpts::default();
    for (i, q) in xmark_query_patterns().iter().enumerate() {
        assert_eq!(
            contained(q, q, &s, &opts),
            Decision::Contained,
            "Q{}",
            i + 1
        );
    }
}

#[test]
fn serializer_parser_round_trip_on_xmark() {
    let doc = xmark(&XmarkConfig {
        scale: 0.02,
        ..Default::default()
    });
    let xml = serialize_document(&doc);
    let doc2 = parse_document(&xml).unwrap();
    assert_eq!(doc.len(), doc2.len());
    let s1 = Summary::of(&doc);
    let s2 = Summary::of(&doc2);
    assert_eq!(s1.len(), s2.len());
}

#[test]
fn xquery_pipeline_answers_identically_from_disk() {
    // The §1 pipeline again, but executed through the full provider
    // matrix: the on-disk columnar store (cold and warm) must answer the
    // translated XQuery exactly like the in-memory providers.
    let doc = figure1_doc();
    let flwr = parse_xquery(
        r#"for $x in doc("x")//item[//mail] return
           <res>{ $x/name/text() }</res>"#,
    )
    .unwrap();
    let q = translate(&flwr).unwrap();
    let matrix = smv::store::ProviderMatrix::new(
        &doc,
        IdScheme::OrdPath,
        &[("v1", "*(//item{id}(//mail, ?/name{v}))")],
    );
    let r = rewrite(
        &q,
        matrix.views(),
        matrix.summary(),
        &RewriteOpts::default(),
    );
    assert!(!r.rewritings.is_empty());
    let (out, _) = matrix.check(&r.rewritings[0].plan);
    assert!(out.set_eq(&materialize(&q, &doc, IdScheme::OrdPath)));
    assert_eq!(out.len(), 1, "only the mail-ed item qualifies");
}
