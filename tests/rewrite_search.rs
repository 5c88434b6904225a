//! The rewriting search, pinned: for every query the benchmark serves, under
//! each ID scheme, what Algorithm 1 explored and what it returned.
//!
//! `tests/golden/rewrite_search.txt` records, per (scheme, query), the
//! search counters — views kept, pairs explored, pruned and deduplicated,
//! joins built — and every rewriting's plan, scan count and estimate. A
//! change that only makes the search cheaper leaves the file as it is; one
//! that explores other pairs or ranks other plans shows up line by line.
//! Regenerate intentionally with
//! `SMV_BLESS=1 cargo test --test rewrite_search`.

#[path = "common/golden.rs"]
mod golden;

use golden::{check_golden, BENCH_VIEWS, QUERIES};
use smv::prelude::*;
use std::fmt::Write;

/// Every query over the benchmark's views under one scheme, rendered.
fn search(summary: &Summary, scheme: IdScheme, out: &mut String) {
    let views: Vec<View> = BENCH_VIEWS
        .iter()
        .map(|(name, src)| View::new(name, parse_pattern(src).unwrap(), scheme))
        .collect();
    for src in QUERIES {
        let q = parse_pattern(src).unwrap();
        let r = rewrite(&q, &views, summary, &RewriteOpts::default());
        let st = &r.stats;
        writeln!(out, "== {scheme:?} {src}").unwrap();
        writeln!(
            out,
            "views_kept {} pairs_explored {} pairs_pruned {} pairs_deduped {} joins_built {}",
            st.views_kept, st.pairs_explored, st.pairs_pruned, st.pairs_deduped, st.joins_built
        )
        .unwrap();
        for (i, rw) in r.rewritings.iter().enumerate() {
            writeln!(
                out,
                "rewriting {i}: scans {} rows {:?} cost {:?}\n{}",
                rw.scans, rw.est.rows, rw.est.cost, rw.plan
            )
            .unwrap();
        }
    }
}

#[test]
fn the_benchmark_search_matches_its_golden_file() {
    let summary = Summary::of(&pr7_document(10.0, 1));
    let mut rendered = String::new();
    for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
        search(&summary, scheme, &mut rendered);
    }
    check_golden("rewrite_search.txt", &rendered);
}
