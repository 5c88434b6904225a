//! `EXPLAIN` / `EXPLAIN ANALYZE` surface tests.
//!
//! * Golden files: the rendered `EXPLAIN` of the best rewriting for each
//!   pr2 workload XMark query is pinned under `tests/golden/`. The renderer,
//!   cost model, and plan choice are all deterministic for a fixed
//!   document, so any drift in these files is a real behavior change.
//!   Regenerate intentionally with `SMV_BLESS=1 cargo test --test explain`.
//! * Property: `EXPLAIN ANALYZE` joins actuals to operators purely by
//!   positional path, so every node's actual-row count must equal the
//!   `ExecProfile` counter at that path, over random documents and
//!   join, select and union plan shapes.
//! * Feedback: a model corrected by a run's profile explains that run
//!   with a q-error of 1 where the static model was off by 30×.

mod common;

use common::{materialized, tree_strategy};
use proptest::prelude::*;
use smv::datagen::pr2_workload;
use smv::prelude::*;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("explain_{name}.txt"))
}

fn golden_check(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var_os("SMV_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — regenerate with SMV_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, want,
        "EXPLAIN output drifted for `{name}` — if intended, rebless with SMV_BLESS=1"
    );
}

/// The rendered `EXPLAIN` of each pr2 workload XMark query's best (cost-
/// ranked) rewriting matches its pinned golden file: operator heads,
/// tree shape, and estimated rows are all stable.
#[test]
fn explain_golden_xmark_bench_queries() {
    let doc = xmark(&XmarkConfig {
        scale: 0.2,
        ..Default::default()
    });
    let summary = Summary::of(&doc);
    let cases = pr2_workload(IdScheme::OrdPath);
    assert_eq!(cases.len(), 5, "golden set covers five bench queries");
    for case in cases {
        let catalog = materialized(&doc, &case.views);
        let cards = CatalogCards::over(&catalog, &summary);
        let ranked = Rewriter::new(&case.query, &case.views, &summary, RewriteOpts::default())
            .with_card_source(&cards)
            .run();
        assert!(
            !ranked.rewritings.is_empty(),
            "case {} must rewrite",
            case.name
        );
        let model = CostModel::new(&summary, &cards);
        let ex = explain(&ranked.rewritings[0].plan, &model);
        assert!(!ex.analyzed);
        let txt = ex.to_string();
        assert!(!txt.contains("actual"), "plain EXPLAIN carries no actuals");
        golden_check(case.name, &txt);
    }
}

/// Feedback tightens `EXPLAIN ANALYZE`: 80 % of the `b` values are the
/// heavy hitter 5, which the distinct sample hides, so the static model
/// misestimates an online `v<=10` filter; the model corrected by that
/// run's own profile explains the same run exactly.
#[test]
fn feedback_tightens_explain_analyze_q_error() {
    let items: Vec<String> = (0..200)
        .map(|i| format!(r#"a(b="{}")"#, if i % 5 == 4 { 1000 + i } else { 5 }))
        .collect();
    let doc = Document::from_parens(&format!("r({})", items.join(" ")));
    let summary = Summary::of(&doc);
    let view = View::new(
        "all_b",
        parse_pattern("r(//b{id,v})").unwrap(),
        IdScheme::OrdPath,
    );
    let catalog = materialized(&doc, std::slice::from_ref(&view));
    let q = parse_pattern("r(//b{id,v}[v<=10])").unwrap();
    let ranked = rewrite(&q, &[view], &summary, &RewriteOpts::default());
    let plan = &ranked.rewritings[0].plan;
    let (rows, profile) = execute_profiled_with(plan, &catalog, &ExecOpts::default()).unwrap();
    assert_eq!(rows.len(), 160);
    let cards = CatalogCards::over(&catalog, &summary);
    let before = explain_analyze(plan, &CostModel::new(&summary, &cards), &profile);
    let mut store = FeedbackStore::new();
    store.ingest(plan, &profile);
    let model = CostModel::new(&summary, &cards).with_feedback(&store);
    let after = explain_analyze(plan, &model, &profile);
    let (before, after) = (before.max_q_error().unwrap(), after.max_q_error().unwrap());
    assert!(before > 10.0, "static q-error {before}");
    assert_eq!(after, 1.0, "corrected q-error");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `EXPLAIN ANALYZE` is a faithful join against the profile: every
    /// operator's `actual_rows` equals the `ExecProfile` row counter at
    /// its path, the walk covers exactly the
    /// profiled operators, and the root actual equals the result size.
    #[test]
    fn analyze_actuals_equal_profile_at_every_thread_count(
        doc_src in tree_strategy(),
    ) {
        use smv::algebra::{NoCards, Predicate};
        let d = Document::from_parens(&doc_src);
        let s = Summary::of(&d);
        let views: Vec<View> = [("va", "r(//a{id})"), ("vb", "r(//b{id,v})"), ("vc", "r(//*{id,l})")]
            .map(|(name, pat)| View::new(name, parse_pattern(pat).unwrap(), IdScheme::OrdPath))
            .into();
        let catalog = materialized(&d, &views);
        let scan = |v: &str| Box::new(Plan::Scan { view: v.into() });
        let plans = vec![
            Plan::StructJoin {
                left: scan("va"),
                right: scan("vb"),
                lcol: 0,
                rcol: 0,
                rel: StructRel::Ancestor,
            },
            Plan::Select {
                input: Box::new(Plan::StructJoin {
                    left: scan("va"),
                    right: scan("vc"),
                    lcol: 0,
                    rcol: 0,
                    rel: StructRel::Parent,
                }),
                pred: Predicate::NotNull { col: 0 },
            },
            Plan::Union {
                inputs: vec![
                    Plan::Project { input: scan("vb"), cols: vec![0] },
                    Plan::Project { input: scan("va"), cols: vec![0] },
                ],
            },
        ];
        let model = CostModel::new(&s, &NoCards);
        let opts = ExecOpts::default();
        for plan in &plans {
            let (out, prof) = execute_profiled_with(plan, &catalog, &opts).unwrap();
            let ex = explain_analyze(plan, &model, &prof);
            prop_assert!(ex.analyzed);
            let ops = ex.operators();
            prop_assert_eq!(ops.len(), prof.len(), "walk covers the profile for\n{}", plan);
            prop_assert_eq!(
                ex.root.actual_rows,
                Some(out.len() as u64),
                "root actual is the result size"
            );
            for n in &ops {
                prop_assert_eq!(
                    n.actual_rows,
                    prof.rows_at(&n.path),
                    "actuals diverge at `{}` for\n{}",
                    n.path, plan
                );
                prop_assert!(n.q_error().is_some(), "analyzed node has a q-error");
            }
        }
    }
}
