//! Tests of the adaptive feedback loop: profile/relation consistency, the
//! perfect-feedback property (with full feedback, estimates equal
//! actuals for scans, selections and structural joins), and the query
//! service re-ranking a misestimated query on what it measured.
//!
//! `tests/golden/feedback_ranking.txt` pins the corrected ranking itself:
//! per query, every rewriting's plan and estimate before and after the
//! feedback of executing them all. Regenerate intentionally with
//! `SMV_BLESS=1 cargo test --test feedback`.

mod common;
#[path = "common/golden.rs"]
mod golden;

use golden::{check_golden, BENCH_VIEWS, QUERIES};
use proptest::prelude::*;
use smv::algebra::{plan_fingerprint, CardSource, Predicate, StructRel};
use smv::datagen::skewed_workload;
use smv::prelude::*;
use smv::views::CatalogCards;
use smv::xml::IdScheme;
use std::fmt::Write;
use std::sync::Arc;

/// A document with `a` parents over valued `b` children, sized and
/// valued by the generator inputs.
fn doc_of(groups: &[Vec<i64>]) -> Document {
    let parts: Vec<String> = groups
        .iter()
        .map(|vs| {
            let kids: Vec<String> = vs.iter().map(|v| format!(r#"b="{v}""#)).collect();
            if kids.is_empty() {
                "a".to_string()
            } else {
                format!("a({})", kids.join(" "))
            }
        })
        .collect();
    Document::from_parens(&format!("r({})", parts.join(" ")))
}

fn catalog_of(doc: &Document) -> CatalogEpoch {
    let views = [("va", "r(//a{id})"), ("vb", "r(//b{id,v})")]
        .map(|(name, pat)| View::new(name, parse_pattern(pat).unwrap(), IdScheme::OrdPath));
    common::materialized(doc, &views)
}

fn scan(view: &str) -> Plan {
    Plan::Scan { view: view.into() }
}

fn select_ge(input: Plan, col: usize, cut: i64) -> Plan {
    Plan::Select {
        input: Arc::new(input),
        pred: Predicate::Value {
            col,
            formula: smv::pattern::Formula::ge(smv::xml::Value::int(cut)),
        },
    }
}

fn parent_join(left: Plan, right: Plan) -> Plan {
    Plan::StructJoin {
        left: Arc::new(left),
        right: Arc::new(right),
        lcol: 0,
        rcol: 0,
        rel: StructRel::Parent,
    }
}

#[test]
fn exec_profile_counts_match_materialized_sizes() {
    let doc = doc_of(&[vec![1, 5, 9], vec![3], vec![], vec![7, 2]]);
    let catalog = catalog_of(&doc);
    let plan = parent_join(scan("va"), select_ge(scan("vb"), 1, 4));
    let (out, profile) = execute_profiled_with(&plan, &catalog, &ExecOpts::default()).unwrap();
    // one entry per operator: join, its two scans, the select
    assert_eq!(profile.len(), 4);
    // the root entry always equals the returned (normalized) relation
    assert_eq!(profile.rows_at(""), Some(out.len() as u64));
    // scans report the extents, the select its surviving rows
    assert_eq!(profile.rows_at("0"), Some(4), "four a nodes");
    assert_eq!(profile.rows_at("1.0"), Some(6), "six b nodes");
    assert_eq!(profile.rows_at("1"), Some(3), "values ≥ 4: 5, 9, 7");
    // every operator's count equals executing that subplan directly
    assert_eq!(
        profile.rows_at("1").unwrap(),
        execute_with(&select_ge(scan("vb"), 1, 4), &catalog, &ExecOpts::default())
            .unwrap()
            .len() as u64
    );
    assert_eq!(out.len(), 3, "each kept b joins its parent a");
}

#[test]
fn unprofiled_and_profiled_execution_agree() {
    let doc = doc_of(&[vec![2, 4], vec![8, 1, 3]]);
    let catalog = catalog_of(&doc);
    let plan = Plan::DupElim {
        input: Arc::new(parent_join(scan("va"), select_ge(scan("vb"), 1, 3))),
    };
    let plain = execute_with(&plan, &catalog, &ExecOpts::default()).unwrap();
    let (profiled, profile) = execute_profiled_with(&plan, &catalog, &ExecOpts::default()).unwrap();
    assert!(plain.set_eq(&profiled));
    assert_eq!(profile.rows_at(""), Some(profiled.len() as u64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With a fully populated feedback store, the cost model's row
    /// estimates equal the actual `execute_with(, &ExecOpts::default())` output rows for scans,
    /// selections over scans, and structural joins over (selected) scans.
    #[test]
    fn perfect_feedback_makes_estimates_exact(
        groups in proptest::collection::vec(
            proptest::collection::vec(0i64..20, 0..5), 1..12),
        cut in 0i64..20,
        ancestor in (0u8..2).prop_map(|b| b == 1),
    ) {
        let doc = doc_of(&groups);
        let s = Summary::of(&doc);
        let catalog = catalog_of(&doc);
        let rel = if ancestor { StructRel::Ancestor } else { StructRel::Parent };
        let join = Plan::StructJoin {
            left: Arc::new(scan("va")),
            right: Arc::new(select_ge(scan("vb"), 1, cut)),
            lcol: 0,
            rcol: 0,
            rel,
        };
        let plans = [scan("va"), scan("vb"), select_ge(scan("vb"), 1, cut), join];
        // feed every plan's profile back, then re-estimate with feedback
        let mut store = FeedbackStore::new();
        for p in &plans {
            let (_, profile) = execute_profiled_with(p, &catalog, &ExecOpts::default()).unwrap();
            store.ingest(p, &profile);
        }
        let cards = CatalogCards::over(&catalog, &s);
        let model = CostModel::new(&s, &cards).with_feedback(&store);
        for p in &plans {
            let actual = execute_with(p, &catalog, &ExecOpts::default()).unwrap().len() as f64;
            let est = model.estimate(p).rows;
            prop_assert!(
                (est - actual).abs() < 1e-6,
                "plan {p} estimated {est} actual {actual}"
            );
        }
    }

    /// Fingerprints identify plan fragments: equal fragments collide,
    /// fragments differing in view, column, predicate or axis do not.
    #[test]
    fn fingerprints_separate_distinct_fragments(
        cut_a in 0i64..10,
        cut_b in 0i64..10,
    ) {
        let a = select_ge(scan("vb"), 1, cut_a);
        let b = select_ge(scan("vb"), 1, cut_b);
        prop_assert_eq!(
            plan_fingerprint(&a) == plan_fingerprint(&b),
            cut_a == cut_b
        );
    }
}

/// Feedback corrects a scan's rows while its column annotations still
/// come from the catalog's cards, and leaves unmeasured views alone.
#[test]
fn feedback_scan_rows_compose_with_catalog_cards() {
    let doc = doc_of(&[vec![1], vec![2, 3]]);
    let s = Summary::of(&doc);
    let catalog = catalog_of(&doc);
    let mut store = FeedbackStore::new();
    let (_, profile) = execute_profiled_with(&scan("vb"), &catalog, &ExecOpts::default()).unwrap();
    store.ingest(&scan("vb"), &profile);
    let cards = CatalogCards::over(&catalog, &s);
    let model = CostModel::new(&s, &cards).with_feedback(&store);
    assert_eq!(model.estimate(&scan("vb")).rows, 3.0);
    // the value column keeps its summary path: `v >= 2` keeps two of the
    // three distinct values, where an unannotated column would get 1/3
    assert_eq!(model.estimate(&select_ge(scan("vb"), 1, 2)).rows, 2.0);
    assert_eq!(
        model.estimate(&scan("va")).rows,
        cards.scan_card("va").unwrap().rows
    );
}

/// The service's feedback loop. 80 % of the `b` values are the heavy
/// hitter 5, which the distinct sample hides, so static estimates call
/// `v<=10` rare and rank the online filter over `all_b` first. That plan
/// serves its epoch from the plan cache; the next plan-cache miss (here
/// the epoch an unrelated view publishes) re-ranks on what it measured.
#[test]
fn service_reranks_on_feedback_at_the_next_epoch() {
    let groups: Vec<Vec<i64>> = (0..200)
        .map(|i| vec![if i % 5 == 4 { 1000 + i } else { 5 }])
        .collect();
    let svc = QueryService::new(
        doc_of(&groups),
        IdScheme::OrdPath,
        ServiceConfig { threads: 1 },
    );
    let view =
        |name: &str, pat: &str| View::new(name, parse_pattern(pat).unwrap(), IdScheme::OrdPath);
    svc.add_views(
        vec![
            view("all_b", "r(//b{id,v})"),
            view("low_b", "r(//b{id,v}[v<=10])"),
        ],
        RefreshPolicy::Eager,
    );
    let q = "r(//b{id,v}[v<=10])";
    let first = svc.query(q).unwrap();
    assert_eq!(first.rows.len(), 160);
    assert!(first.est.rows < 16.0, "misestimated: {}", first.est.rows);
    // the same epoch reuses the ranking, however wrong
    let again = svc.query(q).unwrap();
    assert!(again.plan_cache_hit);
    assert_eq!(again.plan_fingerprint, first.plan_fingerprint);
    // a new epoch ranks again, now on the measured pass-rate
    svc.add_view(view("as", "r(//a{id})"), RefreshPolicy::Eager)
        .unwrap();
    let after = svc.query(q).unwrap();
    assert!(after.epoch > first.epoch && !after.plan_cache_hit);
    let over_low_b = rewrite(
        &parse_pattern(q).unwrap(),
        &[view("low_b", "r(//b{id,v}[v<=10])")],
        after.snapshot.summary(),
        &RewriteOpts::default(),
    );
    assert_eq!(
        after.plan_fingerprint,
        plan_fingerprint(&over_low_b.rewritings[0].plan),
        "re-ranked onto low_b"
    );
    assert_eq!(after.rows.rows, first.rows.rows);
    assert_eq!(after.est.rows, after.rows.len() as f64);
}

/// Ranks each query of `queries` over `catalog`, executes every returned
/// rewriting profiled into one store shared by the whole set (as the
/// query service's store is), then ranks the query again under that
/// feedback; renders both rankings, plan by plan with its estimate.
fn feedback_rankings(
    set: &str,
    catalog: &CatalogEpoch,
    queries: &[(&str, Pattern)],
    out: &mut String,
) {
    let summary = catalog.summary();
    let cards = CatalogCards::over(catalog, summary);
    let mut store = FeedbackStore::new();
    for (name, q) in queries {
        let rank = |store: Option<&FeedbackStore>| {
            let r = Rewriter::new(q, catalog.views(), summary, RewriteOpts::default())
                .with_card_source(&cards);
            match store {
                Some(store) => r.with_feedback(store).run(),
                None => r.run(),
            }
        };
        let before = rank(None);
        for rw in &before.rewritings {
            let (_, profile) =
                execute_profiled_with(&rw.plan, catalog, &ExecOpts::default()).unwrap();
            store.ingest(&rw.plan, &profile);
        }
        let after = rank(Some(&store));
        writeln!(out, "== {set} {name}").unwrap();
        for (when, ranked) in [("static", &before), ("feedback", &after)] {
            for (i, rw) in ranked.rewritings.iter().enumerate() {
                writeln!(
                    out,
                    "{when} {i}: rows {:?} cost {:?}\n{}",
                    rw.est.rows, rw.est.cost, rw.plan
                )
                .unwrap();
            }
        }
    }
}

/// The feedback-corrected ranking, pinned on the skewed values, where
/// feedback flips plans, on the benchmark's queries over its views, and on
/// queries only joins answer, over those views and over skewed values.
#[test]
fn feedback_ranking_matches_its_golden_file() {
    let mut rendered = String::new();
    let skewed = skewed_workload(0.05, IdScheme::OrdPath);
    let queries: Vec<(&str, Pattern)> = skewed
        .queries
        .iter()
        .map(|q| (q.name, q.pattern.clone()))
        .collect();
    let catalog = common::materialized(&skewed.doc, &skewed.views);
    // `pr4` names this block of the golden file
    feedback_rankings("pr4", &catalog, &queries, &mut rendered);

    let views: Vec<View> = BENCH_VIEWS
        .iter()
        .map(|(name, src)| View::new(name, parse_pattern(src).unwrap(), IdScheme::OrdPath))
        .collect();
    let queries: Vec<(&str, Pattern)> = QUERIES
        .iter()
        .map(|src| (*src, parse_pattern(src).unwrap()))
        .collect();
    let catalog = common::materialized(&pr7_document(0.1, 1), &views);
    feedback_rankings("bench", &catalog, &queries, &mut rendered);

    // and rewritings that join: selections under joins, both join kinds
    let queries: Vec<(&str, Pattern)> = JOIN_QUERIES
        .iter()
        .map(|src| (*src, parse_pattern(src).unwrap()))
        .collect();
    feedback_rankings("joins", &catalog, &queries, &mut rendered);
    let groups: Vec<Vec<i64>> = (0..60)
        .map(|i| vec![if i % 5 == 4 { 1000 + i } else { 5 }, i % 7])
        .collect();
    let views = [
        ("va", "r(//a{id})"),
        ("vb", "r(//b{id,v})"),
        ("low_b", "r(//b{id,v}[v<=10])"),
    ]
    .map(|(name, pat)| View::new(name, parse_pattern(pat).unwrap(), IdScheme::OrdPath));
    let catalog = common::materialized(&doc_of(&groups), &views);
    let queries: Vec<(&str, Pattern)> = SKEWED_JOIN_QUERIES
        .iter()
        .map(|src| (*src, parse_pattern(src).unwrap()))
        .collect();
    feedback_rankings("skewed", &catalog, &queries, &mut rendered);
    check_golden("feedback_ranking.txt", &rendered);
}

/// Queries over the benchmark's views that only joins answer.
const JOIN_QUERIES: [&str; 4] = [
    "site(//item{id}(/name{v}, /quantity{v}))",
    "site(//item{id}(/quantity{v}[v>1]))",
    "site(/open_auctions(/open_auction{id}(/initial{v}, /bidder(/increase{v}))))",
    r#"site(/people(/person{id}(/name{v}[v<"k"])))"#,
];

/// Joins over skewed `b` values, which the distinct sample hides.
const SKEWED_JOIN_QUERIES: [&str; 4] = [
    "r(//a{id}(/b{id,v}[v<=10]))",
    "r(//a{id}(/b{v}))",
    "r(/a{id}(/b{v}[v>=1000]))",
    "r(/a{id}(/b{v}[v<=10], /b{v}[v>=3]))",
];
