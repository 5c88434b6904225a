//! Regression: definition-only extent estimates vs materialized sizes.
//!
//! `smv_views::estimate_extent_rows` prices candidate views for the
//! advisor *without* materializing them; the materialized extent's row
//! count is the ground truth. The two must agree on the
//! workload the advisor actually prices — XMark views — or budgeted
//! selection drifts.

use smv::prelude::*;
use smv::views::estimate_extent_rows;

fn setup() -> (Document, Summary) {
    let doc = xmark(&XmarkConfig {
        scale: 0.3,
        ..Default::default()
    });
    let s = Summary::of(&doc);
    (doc, s)
}

/// Materializes `src` and returns (estimated rows, actual rows).
fn est_vs_actual(doc: &Document, s: &Summary, src: &str) -> (f64, f64) {
    let p = parse_pattern(src).unwrap();
    let est = estimate_extent_rows(&p, s);
    (est, materialize(&p, doc, IdScheme::OrdPath).len() as f64)
}

#[test]
fn chain_views_estimate_exactly() {
    let (doc, s) = setup();
    // required single-path chains: the estimate telescopes to the leaf
    // count and must be exact
    for src in [
        "site(/open_auctions(/open_auction(/initial{id,v})))",
        "site(/open_auctions(/open_auction{id}(/current{v})))",
        "site(/people(/person{id}(/emailaddress{v})))",
        "site(/closed_auctions(/closed_auction{id}(/price{v})))",
        "site(/regions(/asia(/item{id}(/name{v}))))",
    ] {
        let (est, actual) = est_vs_actual(&doc, &s, src);
        assert_eq!(est, actual, "estimate diverges on chain view {src}");
    }
}

#[test]
fn branching_views_estimate_exactly_on_strong_edges() {
    let (doc, s) = setup();
    // sibling branches over strong 1:1 edges: the product collapses to
    // the anchor count and stays exact (the advisor's merged candidates)
    for src in [
        "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v})))",
        "site(/people(/person{id}(/name{v}, /emailaddress{v})))",
    ] {
        let (est, actual) = est_vs_actual(&doc, &s, src);
        assert_eq!(est, actual, "estimate diverges on merged view {src}");
    }
}

#[test]
fn nested_views_estimate_outer_rows() {
    let (doc, s) = setup();
    // pre-fix behavior flattened nested edges, over-counting the extent
    // by the bidder fan-out; the extent has one row per open_auction
    let (est, actual) = est_vs_actual(
        &doc,
        &s,
        "site(/open_auctions(/open_auction{id}(?%/bidder(/increase{id,v}))))",
    );
    assert_eq!(est, actual, "nested views must be priced at outer rows");
}

#[test]
fn optional_and_descendant_views_estimate_within_tolerance() {
    let (doc, s) = setup();
    // optional edges (max(1, E[k]) vs E[max(1, k)]) and multi-path
    // descendant views are estimates, not identities — keep them within
    // a modest relative error so greedy ranking stays trustworthy
    for src in [
        "site(/people(/person{id}(?/phone{v})))",
        "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
        "site(//item{id}(/name{v}))",
    ] {
        let (est, actual) = est_vs_actual(&doc, &s, src);
        let ratio = est / actual.max(1.0);
        assert!(
            (0.5..=2.0).contains(&ratio),
            "estimate {est} vs actual {actual} off by {ratio:.2}x on {src}"
        );
    }
}
