//! Integration tests for the persistent worker pool: pooled execution
//! equals sequential execution, sessions share one pool, pool use is
//! reentrant (bulk view registration while a query runs on the same
//! pool), a
//! dropped pool leaves nothing behind, `threads: 1` provably never
//! touches a pool, and feedback's measured rows (`par_hints`) change where
//! a plan fans out but not what it returns.

mod common;

use smv::algebra::{Predicate, Row, ViewProvider};
use smv::prelude::*;
use std::sync::Arc;

/// `r` with `n` `a`-groups of three valued `b` children each.
fn fixture_doc(n: usize) -> Document {
    let groups: Vec<String> = (0..n)
        .map(|i| format!(r#"a(b="{}" b="{}" b="{}")"#, 3 * i, 3 * i + 1, 3 * i + 2))
        .collect();
    Document::from_parens(&format!("r({})", groups.join(" ")))
}

/// `va` = every `a`'s ID, `vb` = every `b`'s ID and value.
fn views() -> Vec<View> {
    [("va", "r(//a{id})"), ("vb", "r(//b{id,v})")]
        .map(|(name, pat)| View::new(name, parse_pattern(pat).unwrap(), IdScheme::OrdPath))
        .to_vec()
}

fn catalog_of(doc: &Document) -> CatalogEpoch {
    common::materialized(doc, &views())
}

/// ancestor join → select → dup-elim: exercises the morselized join,
/// selection, and parallel normalization sort in one plan.
fn mixed_plan() -> Plan {
    Plan::DupElim {
        input: Box::new(Plan::Select {
            input: Box::new(Plan::StructJoin {
                left: Box::new(Plan::Scan { view: "va".into() }),
                right: Box::new(Plan::Scan { view: "vb".into() }),
                lcol: 0,
                rcol: 0,
                rel: StructRel::Ancestor,
            }),
            pred: Predicate::NotNull { col: 2 },
        }),
    }
}

fn pooled_opts(pool: &Arc<WorkerPool>, threads: usize) -> ExecOpts {
    ExecOpts {
        threads,
        min_par_rows: 0,
        pool: Some(Arc::clone(pool)),
        par_hints: None,
    }
}

/// Strictly sequential options — immune to `SMV_TEST_THREADS`, so the
/// reference side of every equivalence check really is the sequential
/// executor.
fn seq_opts() -> ExecOpts {
    ExecOpts {
        threads: 1,
        min_par_rows: 4096,
        pool: None,
        par_hints: None,
    }
}

#[test]
fn two_sessions_sharing_one_pool_match_sequential() {
    let doc = fixture_doc(40);
    let catalog_a = catalog_of(&doc);
    let catalog_b = catalog_of(&doc);
    let pool = Arc::new(WorkerPool::new(3));
    let plan = mixed_plan();
    let seq = execute_with(&plan, &catalog_a, &seq_opts()).unwrap();
    // interleaved "sessions": alternate executions against two catalogs,
    // all drawing from the same queue
    for round in 0..3 {
        let a = execute_with(&plan, &catalog_a, &pooled_opts(&pool, 3)).unwrap();
        let b = execute_with(&plan, &catalog_b, &pooled_opts(&pool, 2)).unwrap();
        assert_eq!(seq.rows, a.rows, "session A round {round}");
        assert_eq!(seq.rows, b.rows, "session B round {round}");
    }
    assert!(
        pool.jobs_dispatched() > 0,
        "parallel execution really dispatched to the shared pool"
    );
}

#[test]
fn reentrant_pool_use_ingest_during_query() {
    let doc = fixture_doc(30);
    let catalog = catalog_of(&doc);
    let plan = mixed_plan();

    // sequential references: the query, and the views registered one at
    // a time
    let seq_rows = execute_with(&plan, &catalog, &seq_opts()).unwrap().rows;
    let seq_extents: Vec<Vec<Row>> = views()
        .iter()
        .map(|v| catalog.extent(&v.name).unwrap().rows.clone())
        .collect();

    // a query and a bulk registration run *as tasks on the pool*, each
    // fanning out onto that same pool from inside a worker — the
    // service's ingest path beside a query
    let pool = Arc::new(WorkerPool::new(4));
    let outs: Vec<Vec<Vec<Row>>> = pool.pool_map(2, 2, |i| {
        if i == 0 {
            vec![
                execute_with(&plan, &catalog, &pooled_opts(&pool, 2))
                    .unwrap()
                    .rows,
            ]
        } else {
            let mut ec = EpochCatalog::new(doc.clone(), IdScheme::OrdPath);
            ec.add_views_on(views(), RefreshPolicy::Eager, &pool);
            let snap = ec.snapshot();
            views()
                .iter()
                .map(|v| snap.extent(&v.name).unwrap().rows.clone())
                .collect()
        }
    });
    assert_eq!(outs[0], [seq_rows], "query inside the pool");
    assert_eq!(outs[1], seq_extents, "ingest inside the pool");
}

#[test]
fn threads_one_never_touches_the_pool() {
    let doc = fixture_doc(25);
    let catalog = catalog_of(&doc);
    let pool = Arc::new(WorkerPool::new(4));
    // a pool is attached and min_par_rows would pass every gate — but
    // threads: 1 must still execute fully inline
    let opts = ExecOpts {
        threads: 1,
        min_par_rows: 0,
        pool: Some(Arc::clone(&pool)),
        par_hints: None,
    };
    let out = execute_with(&mixed_plan(), &catalog, &opts).unwrap();
    assert_eq!(
        out.rows,
        execute_with(&mixed_plan(), &catalog, &seq_opts())
            .unwrap()
            .rows
    );
    assert_eq!(
        pool.jobs_dispatched(),
        0,
        "sequential runs stay off the pool"
    );
}

#[test]
fn results_survive_pool_drop() {
    let doc = fixture_doc(30);
    let catalog = catalog_of(&doc);
    let plan = mixed_plan();
    let seq = execute_with(&plan, &catalog, &seq_opts()).unwrap();
    let par = {
        let pool = Arc::new(WorkerPool::new(3));
        let out = execute_with(&plan, &catalog, &pooled_opts(&pool, 3)).unwrap();
        assert!(pool.jobs_dispatched() > 0);
        out
        // the last Arc drops here: Drop parks the queue shut and joins
        // every worker (thread-level assertions live in the par module's
        // unit tests)
    };
    assert_eq!(seq.rows, par.rows);
    // execution continues to work afterwards, on a fresh private pool
    let pool = Arc::new(WorkerPool::new(2));
    let again = execute_with(&plan, &catalog, &pooled_opts(&pool, 2)).unwrap();
    assert_eq!(seq.rows, again.rows);
}

#[test]
fn query_service_runs_ingest_and_queries_on_one_explicit_pool() {
    let pool = Arc::new(WorkerPool::new(3));
    let svc = QueryService::with_pool(
        fixture_doc(40),
        IdScheme::OrdPath,
        ServiceConfig {
            threads: 3,
            min_par_rows: 0,
        },
        Arc::clone(&pool),
    );
    assert_eq!(svc.pool().size(), 3, "explicitly sized pool");
    svc.add_views(views(), RefreshPolicy::Eager);
    let after_ingest = pool.jobs_dispatched();
    assert!(
        after_ingest > 0,
        "bulk ingest dispatched to the shared pool"
    );

    // an uncontended client gets morsel fan-out — on that same pool
    let resp = svc.query("r(//b{id,v})").unwrap();
    assert_eq!(resp.scheduling.mode, SchedMode::Intra);
    assert!(
        pool.jobs_dispatched() > after_ingest,
        "query execution dispatched to the shared pool"
    );

    // results match a strictly sequential service over the same data
    let seq_svc = QueryService::new(
        fixture_doc(40),
        IdScheme::OrdPath,
        ServiceConfig {
            threads: 1,
            ..ServiceConfig::default()
        },
    );
    seq_svc.add_views(views(), RefreshPolicy::Eager);
    let seq = seq_svc.query("r(//b{id,v})").unwrap();
    assert_eq!(resp.rows.rows, seq.rows.rows);
}

/// Feedback as `par_hints` opens the parallel path for a join whose inputs stay under
/// `min_par_rows` but whose measured output crosses it, and the rows stay
/// those of the run without hints.
#[test]
fn par_hints_keep_results_identical() {
    // ten nested `a`s over twenty `b`s: 30 input rows, 200 joined
    let leaves: Vec<String> = (0..20).map(|i| format!(r#"b="{i}""#)).collect();
    let doc = Document::from_parens(&format!(
        "r({}{}{})",
        "a(".repeat(10),
        leaves.join(" "),
        ")".repeat(10)
    ));
    let catalog = catalog_of(&doc);
    let plan = Plan::StructJoin {
        left: Box::new(Plan::Scan { view: "va".into() }),
        right: Box::new(Plan::Scan { view: "vb".into() }),
        lcol: 0,
        rcol: 0,
        rel: StructRel::Ancestor,
    };
    let opts = ExecOpts {
        threads: 2,
        min_par_rows: 100,
        pool: Some(Arc::new(WorkerPool::new(2))),
        par_hints: None,
    };
    let (plain, prof) = execute_profiled_with(&plan, &catalog, &opts).unwrap();
    assert_eq!(plain.len(), 200);
    assert_eq!(prof.morsels_at(""), None, "the static gate keeps it inline");
    let mut store = FeedbackStore::new();
    store.ingest(&plan, &prof);
    let hinted = ExecOpts {
        par_hints: Some(Arc::new(store)),
        ..opts
    };
    let (rows, prof) = execute_profiled_with(&plan, &catalog, &hinted).unwrap();
    assert!(
        prof.morsels_at("").is_some(),
        "the hint fanned the join out"
    );
    assert_eq!(rows.schema, plain.schema);
    assert_eq!(rows.rows, plain.rows);
}
