//! Cache-coherence tests for the smv-serve query service.
//!
//! The contract under test: a result served from the cache at epoch N is
//! **byte-identical** to a fresh rank + execute against the same epoch
//! snapshot — across thread counts, ID schemes, interleaved maintenance
//! batches, and genuinely concurrent clients. Execution output is
//! canonically normalized (sorted, deduplicated), so the fresh oracle
//! may pick any equivalent plan and byte equality is still the bar.

use smv::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Tests in one binary run on parallel threads, and one of these measures
/// stalls: it runs alone, the others beside each other.
static QUIET: RwLock<()> = RwLock::new(());

fn beside_others() -> RwLockReadGuard<'static, ()> {
    QUIET.read().unwrap_or_else(PoisonError::into_inner)
}

fn alone() -> RwLockWriteGuard<'static, ()> {
    QUIET.write().unwrap_or_else(PoisonError::into_inner)
}

/// The pr7 workload queries: three exact view matches (one per
/// maintenance class) plus the optional-edge view's own pattern.
const QUERIES: &[&str] = &[
    "site(//name{id,v})",
    "site(//item{id}(/name{id,v}))",
    "site(//quantity{id,v})",
    "site(//item{id}(?/name{id,v}))",
];

fn service(scale: f64, seed: u64, scheme: IdScheme, threads: usize) -> QueryService {
    let svc = QueryService::new(pr7_document(scale, seed), scheme, ServiceConfig { threads });
    svc.add_views(pr7_views(scheme), RefreshPolicy::Eager);
    svc
}

/// Fresh-execution oracle against the exact snapshot a response was
/// served from: rank without feedback, execute.
fn oracle_rows(q: &str, snap: &CatalogEpoch) -> Vec<smv::algebra::Row> {
    let p = parse_pattern(q).expect("test query parses");
    let r = rewrite(&p, snap.views(), snap.summary(), &RewriteOpts::default());
    let plan = &r.rewritings.first().expect("oracle rewriting").plan;
    execute_with(plan, snap, &ExecOpts::default())
        .expect("oracle executes")
        .rows
}

#[test]
fn cached_results_match_fresh_execution_across_schemes_and_threads() {
    let _quiet = beside_others();
    for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
        for threads in [1, 2, 4] {
            let svc = service(0.03, 11, scheme, threads);
            let mut stream = Pr7Stream::new(7);
            for round in 0..3 {
                for q in QUERIES {
                    let cold = svc.query(q).unwrap();
                    assert_eq!(
                        cold.rows.rows,
                        oracle_rows(q, &cold.snapshot),
                        "{scheme:?}/t{threads} round {round}: {q}"
                    );
                    let hot = svc.query(q).unwrap();
                    assert_eq!(
                        hot.rows.rows, cold.rows.rows,
                        "{scheme:?}/t{threads} round {round}: hot path of {q}"
                    );
                    assert_eq!(
                        hot.epoch,
                        svc.epoch(),
                        "hot answers serve the current epoch"
                    );
                }
                let batch = svc.with_catalog(|cat| stream.next_batch(cat.live(), 0.2));
                svc.apply(&batch).unwrap();
            }
            let stats = svc.stats();
            assert!(stats.result_hits > 0, "the hot path was exercised");
            assert!(
                stats.results_invalidated > 0,
                "maintenance killed touched entries"
            );
        }
    }
}

/// A served `//quantity{v}` answer holds its few distinct rows and no room
/// for the many its `Select` passed: the plan's `DupElim` builds each
/// distinct value once, and the result cache keeps that vector.
#[test]
fn a_cached_answer_holds_no_dead_capacity() {
    let _quiet = beside_others();
    let svc = service(1.0, 1, IdScheme::OrdPath, 1);
    let q = "site(//quantity{v}[v>3 and v<1000008])";
    let cold = svc.query(q).unwrap();
    let hot = svc.query(q).unwrap();
    assert!(hot.result_cache_hit && hot.rows.rows == cold.rows.rows);
    let quantities = smv::algebra::ViewProvider::extent(&*hot.snapshot, "quantities").unwrap();
    let rows = &hot.rows.rows;
    assert!(rows.len() > 1 && rows.len() * 10 < quantities.len());
    assert!(
        rows.capacity() <= 2 * rows.len(),
        "{} rows in room for {}",
        rows.len(),
        rows.capacity()
    );
}

/// A stream of never-seen texts, each a large answer, keeps the result
/// cache within its byte budget after every request: the oldest answers
/// make room, and the newest is served from the cache.
#[test]
fn never_seen_large_answers_stay_within_the_byte_budget() {
    let _quiet = beside_others();
    let svc = service(3.0, 1, IdScheme::OrdPath, 1);
    let budget = smv::serve::RESULT_CACHE_BYTES as u64;
    let mut largest = 0;
    for i in 0..300 {
        let q = format!("site(//quantity{{id,v}}[v>0 and v<{}])", 1_000_000 + i);
        let resp = svc.query(&q).unwrap();
        assert!(!resp.result_cache_hit, "{q} is never-seen");
        largest = largest.max(resp.rows.heap_bytes());
        let stats = svc.stats();
        assert!(stats.result_bytes <= budget, "request {i}: {stats:?}");
    }
    let stats = svc.stats();
    assert!(300 * largest as u64 > 2 * budget, "the stream overflows it");
    assert!(stats.results_evicted > 0, "{stats:?}");
    assert!(stats.result_bytes > budget / 2, "{stats:?}");
    let last = "site(//quantity{id,v}[v>0 and v<1000299])";
    assert!(
        svc.query(last).unwrap().result_cache_hit,
        "the newest stays"
    );
}

#[test]
fn concurrent_clients_with_interleaved_updates_stay_coherent() {
    const CLIENTS: usize = 3;
    const BATCHES: usize = 8;
    // requests (all clients together) the updater waits for between two
    // batches, so every epoch is read and the readers outlive the updater
    const PER_EPOCH: usize = 25;
    let _quiet = beside_others();
    let svc = service(0.04, 5, IdScheme::OrdPath, 4);
    let served = AtomicUsize::new(0);
    let updater_done = AtomicBool::new(false);
    let epochs = Mutex::new(BTreeSet::new());
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (svc, served, updater_done, epochs) = (&svc, &served, &updater_done, &epochs);
            s.spawn(move || {
                let mut seen = BTreeSet::new();
                for i in 0.. {
                    if updater_done.load(Ordering::Acquire) {
                        break;
                    }
                    // every fourth request is a text no request has used,
                    // so it executes and its insert races the sweeps
                    let q = if i % 4 == 3 {
                        format!(
                            "site(//quantity{{id,v}}[v>0 and v<{}])",
                            1_000_000 + i * CLIENTS + c
                        )
                    } else {
                        QUERIES[(c + i) % QUERIES.len()].to_string()
                    };
                    let resp = svc.query(&q).unwrap();
                    // every response is checked against the snapshot it
                    // names — whatever epoch the updater left it on
                    assert_eq!(resp.epoch, resp.snapshot.epoch());
                    assert_eq!(
                        resp.rows.rows,
                        oracle_rows(&q, &resp.snapshot),
                        "client {c} request {i} at epoch {}: {q}",
                        resp.epoch
                    );
                    seen.insert(resp.epoch);
                    served.fetch_add(1, Ordering::Release);
                }
                epochs.lock().unwrap().extend(seen);
            });
        }
        let mut stream = Pr7Stream::new(13);
        for _ in 0..BATCHES {
            // counted from now, not in total: clients that outran the last
            // apply must not let this one start before its epoch is read
            let before = served.load(Ordering::Acquire);
            while served.load(Ordering::Acquire) < before + PER_EPOCH {
                std::thread::yield_now();
            }
            let batch = svc.with_catalog(|cat| stream.next_batch(cat.live(), 0.15));
            svc.apply(&batch).unwrap();
        }
        updater_done.store(true, Ordering::Release);
    });
    assert!(served.load(Ordering::Acquire) >= BATCHES * PER_EPOCH);
    assert!(
        epochs.lock().unwrap().len() >= BATCHES,
        "responses named {:?}",
        epochs.lock().unwrap()
    );
    // quiesced: cached answers equal fresh execution at the final epoch
    for q in QUERIES {
        let resp = svc.query(q).unwrap();
        assert_eq!(resp.rows.rows, oracle_rows(q, &resp.snapshot), "{q}");
        assert_eq!(resp.epoch, svc.epoch());
    }
    assert_eq!(svc.stats().batches_applied, BATCHES as u64);
}

#[test]
fn service_counts_equal_the_registry_and_every_query_is_scheduled_once() {
    // the registry is process-wide: nothing else may count into it
    let _quiet = alone();
    let svc = QueryService::new(
        Document::from_parens(r#"r(a(b="1" c(b="2")) x(y="9"))"#),
        IdScheme::OrdPath,
        ServiceConfig { threads: 1 },
    );
    svc.add_view(
        View::new(
            "vb",
            parse_pattern("r(//b{id,v})").unwrap(),
            IdScheme::OrdPath,
        ),
        RefreshPolicy::Eager,
    )
    .unwrap();
    let node = |label: &str| {
        svc.with_catalog(|cat| {
            let doc = cat.live().doc();
            let n = doc.iter().find(|&n| doc.label(n).as_str() == label);
            cat.live().ids().id(n.expect("labeled node")).clone()
        })
    };
    let layers = |text: &str| {
        let r = svc.query(text).unwrap();
        (r.pattern_cache_hit, r.plan_cache_hit, r.result_cache_hit)
    };
    let q = "r(//b{id,v})";
    smv::obs::global().reset();
    let _on = ScopedEnable::new();
    assert_eq!(layers(q), (false, false, false), "cold");
    assert_eq!(layers(q), (true, true, true), "hot");
    assert_eq!(
        layers("r ( // b { id , v } )"),
        (false, true, true),
        "respelled"
    );
    // a new epoch whose delta misses vb: re-ranked, the rows still serve
    let mut beside = UpdateBatch::new();
    beside.insert(node("x"), Document::from_parens(r#"z="1""#));
    assert!(svc.apply(&beside).unwrap().refreshed.is_empty());
    assert_eq!(layers(q), (true, false, true), "untouched");
    // one that refreshes vb kills the rows
    let mut under = UpdateBatch::new();
    under.delete(node("c"));
    assert_eq!(svc.apply(&under).unwrap().refreshed, ["vb"]);
    assert_eq!(layers(q), (true, false, false), "touched");

    let stats = svc.stats();
    let registry = smv::obs::global();
    for (name, count) in [
        ("serve.queries", stats.queries),
        ("serve.pattern_hits", stats.pattern_hits),
        ("serve.plan_hits", stats.plan_hits),
        ("serve.result_hits", stats.result_hits),
        ("serve.results_invalidated", stats.results_invalidated),
        ("serve.batches_applied", stats.batches_applied),
        ("serve.results_evicted", stats.results_evicted),
    ] {
        assert_eq!(registry.counter(name), count, "{name}");
    }
    assert_eq!(
        registry.gauge("serve.result_bytes"),
        Some(stats.result_bytes as i64)
    );
    // every query ran on its calling thread
    assert_eq!(stats.sched_intra, 0);
    assert_eq!(
        (
            stats.queries,
            stats.pattern_hits,
            stats.plan_hits,
            stats.result_hits
        ),
        (5, 3, 2, 3)
    );
    assert_eq!((stats.results_invalidated, stats.batches_applied), (1, 2));
}

/// The longest stretch of `[from, to]` in which the reader, whose
/// requests completed at `completions` (ascending), completed nothing:
/// how long a request due at the worst moment of the window waited.
fn longest_silence(completions: &[Instant], from: Instant, to: Instant) -> Duration {
    let inside = completions
        .iter()
        .copied()
        .filter(|&c| from <= c && c <= to);
    let mut last = from;
    let mut longest = Duration::ZERO;
    for c in inside.chain([to]) {
        longest = longest.max(c - last);
        last = c;
    }
    longest
}

#[test]
fn cache_hits_keep_flowing_while_updates_apply() {
    const BATCHES: usize = 7;
    let _quiet = alone();
    // large enough that one apply takes tens of milliseconds
    let scale = if cfg!(debug_assertions) { 1.5 } else { 5.0 };
    let svc = service(scale, 3, IdScheme::OrdPath, 1);
    let q = QUERIES[2];
    svc.query(q).unwrap();
    let stop = AtomicBool::new(false);
    let hits = AtomicUsize::new(0);
    let (completions, windows) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut completions = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let resp = svc.query(q).unwrap();
                completions.push(Instant::now());
                if resp.plan_cache_hit && resp.result_cache_hit {
                    hits.fetch_add(1, Ordering::Release);
                }
            }
            completions
        });
        let mut stream = Pr7Stream::new(9);
        let mut windows = Vec::new();
        for _ in 0..BATCHES {
            // an apply starts once the reader is back on the hit path
            // (it re-ranks and re-executes after every publication)
            let warm = hits.load(Ordering::Acquire) + 1_000;
            while hits.load(Ordering::Acquire) < warm {
                std::thread::yield_now();
            }
            let batch = svc.with_catalog(|cat| stream.next_batch(cat.live(), 0.01));
            let from = Instant::now();
            svc.apply(&batch).unwrap();
            windows.push((from, Instant::now()));
        }
        stop.store(true, Ordering::Release);
        (reader.join().unwrap(), windows)
    });
    // a reader that waits for the writer is silent for the whole apply
    // (ratio 1.0); one that does not is silent for a request's length. The
    // median over the batches, because a host that deschedules the reader
    // for a few milliseconds in one window says nothing about locks.
    let mut ratios: Vec<f64> = windows
        .iter()
        .map(|&(from, to)| {
            longest_silence(&completions, from, to).as_secs_f64() / (to - from).as_secs_f64()
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let shortest = windows.iter().map(|&(from, to)| to - from).min().unwrap();
    assert!(
        ratios[BATCHES / 2] <= 0.25,
        "longest silence ÷ apply time per batch {ratios:?} (shortest apply {shortest:?})"
    );
    assert_eq!(svc.stats().batches_applied, BATCHES as u64);
}

#[test]
fn a_held_catalog_and_a_waiting_writer_do_not_block_cache_hits() {
    let _quiet = beside_others();
    let svc = &service(0.03, 5, IdScheme::OrdPath, 1);
    let q = QUERIES[0];
    svc.query(q).unwrap();
    let batch = &svc.with_catalog(|cat| Pr7Stream::new(3).next_batch(cat.live(), 0.1));
    let (parked, on_parked) = mpsc::channel();
    let (release, on_release) = mpsc::channel::<()>();
    let (applying, on_applying) = mpsc::channel();
    let (finished, on_finished) = mpsc::channel();
    std::thread::scope(|s| {
        // one thread parks inside `with_catalog` …
        s.spawn(move || {
            svc.with_catalog(|_| {
                parked.send(()).unwrap();
                let _ = on_release.recv();
            })
        });
        on_parked.recv().unwrap();
        // … so a second blocks in `apply` …
        s.spawn(move || {
            applying.send(()).unwrap();
            svc.apply(batch).unwrap();
        });
        on_applying.recv().unwrap();
        // … and a third is served all the same
        s.spawn(move || {
            for _ in 0..10_000 {
                assert!(svc.query(q).unwrap().result_cache_hit);
            }
            finished.send(svc.stats().batches_applied).unwrap();
        });
        let outcome = on_finished.recv_timeout(Duration::from_secs(30));
        // unpark first, so that a failure is an assert and not a hang
        release.send(()).unwrap();
        let applied_meanwhile =
            outcome.expect("10,000 hits complete while the catalog is held and a writer waits");
        assert_eq!(applied_meanwhile, 0, "the writer was still shut out");
    });
    assert_eq!(svc.stats().batches_applied, 1);
    assert_eq!(svc.query(q).unwrap().epoch, svc.epoch());
}
