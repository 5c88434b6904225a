//! Differential suite: every query answered identically by every
//! provider arm — in-memory map, epoch catalog, cold disk, warm disk.
//! This is the harness that proves the on-disk
//! columnar store is a drop-in [`ViewProvider`](smv::algebra::ViewProvider).
//!
//! The suite checks, for every rewriting the rewriter emits, *provider
//! equivalence* (all arms byte-identical) and
//! *soundness* (the answer is direct evaluation's) — not the best one, not
//! any one: an unsound second-ranked rewriting fails it. Rewriter
//! completeness itself is covered by `tests/end_to_end.rs`.

mod common;

use common::tree_strategy;
use proptest::prelude::*;
use smv::core::RewriteResult;
use smv::datagen::{random_patterns, random_views, SynthConfig, ViewGenConfig};
use smv::prelude::*;
use smv::store::ProviderMatrix;
use std::sync::Arc;

const SCHEMES: [IdScheme; 3] = [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential];

/// The paper's Figure 1 document, in parenthesized form.
fn figure1_doc() -> Document {
    Document::from_parens(
        r#"site(regions(asia(item(name="one" description="cheap"))
                       europe(item(name="two" description="dear")
                              item(name="three")))
             people(person(name="alice" emailaddress="a@x")
                    person(name="bob")))"#,
    )
}

/// Runs every rewriting of `q` through the full matrix and asserts that
/// each one reproduces direct evaluation. Returns how many rewritings were
/// checked.
fn check_rewritings(
    matrix: &ProviderMatrix,
    doc: &Document,
    scheme: IdScheme,
    q: &Pattern,
) -> usize {
    let res = rewrite(q, matrix.views(), matrix.summary(), &RewriteOpts::default());
    let direct = materialize(q, doc, scheme);
    for (i, rw) in res.rewritings.iter().enumerate() {
        let (rel, _) = matrix.check(&rw.plan);
        assert!(
            rel.set_eq(&direct),
            "{} ({scheme:?}): rewriting #{i} differs from direct evaluation\nplan:\n{}",
            canonical_form(q),
            rw.plan
        );
    }
    res.rewritings.len()
}

fn check_query(matrix: &ProviderMatrix, doc: &Document, scheme: IdScheme, query: &str) -> usize {
    check_rewritings(matrix, doc, scheme, &parse_pattern(query).unwrap())
}

/// A handful of rewritable queries over Figure 1, checked across the
/// full provider matrix under every ID scheme.
#[test]
fn figure1_queries_are_provider_invariant() {
    let doc = figure1_doc();
    for scheme in SCHEMES {
        let matrix = ProviderMatrix::new(
            &doc,
            scheme,
            &[
                ("everything", "site(//*{id,l,v})"),
                ("names", "site(//name{id,v})"),
                ("items", "site(//item{id}(/name{v}))"),
            ],
        );
        let mut checked = 0;
        for query in [
            "site(//name{id,v})",
            "site(//item{id}(/name{v}))",
            "site(//description{id,v})",
        ] {
            checked += check_query(&matrix, &doc, scheme, query);
        }
        assert!(checked >= 3, "most figure-1 queries should rewrite");
    }
}

/// The cost-ranking cases (wide + exact views per XMark query): every
/// rewriting of every case returns the same rows from every arm, and
/// those rows are direct evaluation's.
#[test]
fn pr2_workload_is_provider_invariant_on_xmark() {
    let doc = xmark(&XmarkConfig {
        scale: 0.05,
        ..Default::default()
    });
    for case in smv::datagen::ranking_cases(IdScheme::OrdPath) {
        let matrix = ProviderMatrix::from_views(&doc, case.views.clone());
        let checked = check_rewritings(&matrix, &doc, IdScheme::OrdPath, &case.query);
        assert!(checked > 0, "ranking case {} should rewrite", case.name);
    }
}

/// A recursive summary (`a` under `a`), where joins on derived ancestor
/// IDs returned wrong rows: two rewritings under each scheme that derives
/// parents, none under sequential IDs, and each one sound on every arm.
#[test]
fn derived_ancestor_ids_join_soundly_on_a_recursive_document() {
    let doc =
        Document::from_parens(r#"r(c(a(a(c="3" b)) a(b(c d="3") a(a) c(a c)) a(c(a a="3"))))"#);
    for scheme in SCHEMES {
        let matrix = ProviderMatrix::new(
            &doc,
            scheme,
            &[("all", "r(//*{id,l,v})"), ("bs", "r(//b{id,v})")],
        );
        let checked = check_query(&matrix, &doc, scheme, "r(//a{id}(//b{v}))");
        let want = if scheme.derives_parent() { 2 } else { 0 };
        assert_eq!(checked, want, "{scheme:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random documents, all three ID schemes: every rewriting found over
    /// a wide view + a label view answers identically on every arm, with
    /// direct evaluation's rows.
    #[test]
    fn random_trees_are_provider_invariant(src in tree_strategy()) {
        let doc = Document::from_parens(&src);
        for scheme in SCHEMES {
            let matrix = ProviderMatrix::new(
                &doc,
                scheme,
                &[("all", "r(//*{id,l,v})"), ("bs", "r(//b{id,v})")],
            );
            for query in [
                "r(//b{id,v})",
                "r(//a{id}(//b{v}))",
                "r(//*{id,l})",
                "r(//a{ret}(//b{v}))",
                "r(//b{ret})",
            ] {
                check_query(&matrix, &doc, scheme, query);
            }
        }
    }
}

/// The search without the cost bound. Its caps on the working set and on
/// rewritings only keep a case cheap: a run that reaches one is skipped.
fn unpruned() -> RewriteOpts {
    RewriteOpts {
        cost_prune: false,
        max_pairs: 300,
        max_rewritings: 100,
        ..RewriteOpts::default()
    }
}

/// Did a run stop at one of `opts`' caps rather than at the fixpoint?
/// Every pair in the working set was explored first, so fewer explored
/// pairs than the cap means the working set never filled.
fn capped(r: &RewriteResult, opts: &RewriteOpts) -> bool {
    r.rewritings.len() >= opts.max_rewritings || r.stats.pairs_explored >= opts.max_pairs
}

/// `(plan, scans, estimate)` of each rewriting, rendered.
fn answers(r: &RewriteResult) -> Vec<String> {
    r.rewritings
        .iter()
        .map(|rw| format!("{:?} {} {:?}", rw.plan, rw.scans, rw.est))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random documents, random views beside a label view per query
    /// label, random path queries with one or two returned nodes: the
    /// default search, branch-and-bound on, ranks first a rewriting as
    /// cheap as the unpruned search's cheapest, and returns only
    /// rewritings that search returns too — same plan, same estimate.
    /// Either both find one or neither does. With two returned nodes, no
    /// single view supplies every column, so the cheapest rewriting is a
    /// join whose first view lacks some of them.
    ///
    /// Queries are chains without wildcards, optional edges or
    /// predicates: the shapes that have rewritings over these views. The
    /// others mostly have none, and prove it only by exhausting the
    /// search.
    #[test]
    fn pruning_keeps_the_cheapest_rewriting(
        src in tree_strategy(),
        seed in 0u64..1 << 20,
        scheme in 0usize..3,
        nodes in 2usize..5,
    ) {
        let doc = Document::from_parens(&src);
        let s = Summary::of(&doc);
        let scheme = SCHEMES[scheme];
        let random = random_views(&s, &ViewGenConfig { count: 2, scheme, seed, ..Default::default() });
        let returns = 1 + (seed % 2) as usize;
        let synth = SynthConfig {
            nodes: nodes.max(returns + 1),
            returns,
            return_labels: Vec::new(),
            fanout: 1,
            p_star: 0.0,
            p_pred: 0.0,
            p_opt: 0.0,
            seed,
            ..SynthConfig::default()
        };
        let (defaults, unpruned) = (RewriteOpts::default(), unpruned());
        for q in random_patterns(&s, &synth, 2) {
            let mut labels: Vec<String> =
                q.iter().skip(1).map(|n| q.node(n).label.expect("no wildcard").to_string()).collect();
            labels.sort();
            labels.dedup();
            let mut views = random.clone();
            for l in labels {
                let label_view = parse_pattern(&format!("r(//{l}{{id,v}})")).unwrap();
                views.push(View::new(&l, label_view, scheme));
            }
            let pruned = rewrite(&q, &views, &s, &defaults);
            if capped(&pruned, &defaults) {
                continue;
            }
            let whole = rewrite(&q, &views, &s, &unpruned);
            if capped(&whole, &unpruned) {
                continue;
            }
            let at = format!("{} over {src} ({scheme:?})", canonical_form(&q));
            prop_assert_eq!(
                pruned.rewritings.is_empty(),
                whole.rewritings.is_empty(),
                "{}", at
            );
            if let (Some(best), Some(min)) = (pruned.rewritings.first(), whole.rewritings.first()) {
                prop_assert_eq!(best.est.cost, min.est.cost, "rank 0 of {}", at);
            }
            let all = answers(&whole);
            for rw in answers(&pruned) {
                prop_assert!(all.contains(&rw), "{}: {} is not in the unpruned list", at, rw);
            }
        }
    }
}

/// A `Project` that drops the parent id a `DeriveParentId` just added
/// (rank 0 of `site(//item{id}(/name{id,v}))` over the pr7 views): every
/// arm returns the same rows and the same per-operator row counts, the
/// derive's and the scan's included, and the rows are direct evaluation's.
#[test]
fn project_over_an_unread_parent_id_is_provider_invariant() {
    let doc = pr7_document(0.2, 3);
    let scheme = IdScheme::OrdPath;
    let matrix = ProviderMatrix::from_views(&doc, pr7_views(scheme));
    let q = parse_pattern("site(//item{id}(/name{id,v}))").unwrap();
    let direct = materialize(&q, &doc, scheme);
    for view in ["items", "maybe_named"] {
        let plan = Plan::DupElim {
            input: Arc::new(Plan::Project {
                input: Arc::new(Plan::DeriveParentId {
                    input: Arc::new(Plan::Scan { view: view.into() }),
                    col: 1,
                    levels: 1,
                    name: "vid1u1".into(),
                }),
                cols: vec![0, 1, 2],
            }),
        };
        let (rel, prof) = matrix.check(&plan);
        let scanned = matrix.disk().load_extent(view).unwrap().unwrap().len() as u64;
        assert_eq!(
            prof.rows_at("0.0"),
            Some(scanned),
            "{view}: the derive's rows"
        );
        assert_eq!(
            prof.rows_at("0.0.0"),
            Some(scanned),
            "{view}: the scan's rows"
        );
        if view == "items" {
            assert!(rel.set_eq(&direct), "{view}");
        }
    }
}
