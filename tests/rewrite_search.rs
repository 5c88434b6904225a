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

use smv::prelude::*;
use std::fmt::Write;
use std::path::PathBuf;

/// The views `smvbench` registers at scale 10: the advisor's five for the
/// `pr3` workload under 90 % of its singleton budget, and the four
/// `pr7_views`.
const BENCH_VIEWS: [(&str, &str); 9] = [
    (
        "adv8",
        "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v})))",
    ),
    ("adv6", "site(/regions(/asia(/item{id}(/name{v}))))"),
    (
        "adv5",
        "site(/closed_auctions(/closed_auction{id}(/price{v}[v>400])))",
    ),
    (
        "adv2",
        "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
    ),
    (
        "adv9",
        "site(/people(/person{id}(/name{v}, /emailaddress{v})))",
    ),
    ("items", "site(//item{id}(/name{id,v}))"),
    ("names", "site(//name{id,v})"),
    ("quantities", "site(//quantity{id,v})"),
    ("maybe_named", "site(//item{id}(?/name{id,v}))"),
];

/// The 11 pool queries and the 8 `adhoc` templates of `smvbench`, `@`
/// filled in, then three queries with string predicates.
const QUERIES: [&str; 22] = [
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
    "site(/open_auctions(/open_auction{id}(/initial{v}[v>50 and v<1000001])))",
    "site(/open_auctions(/open_auction{id}(/current{v}[v>100 and v<1000002])))",
    "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}[v>10 and v<1000003]))))",
    "site(/closed_auctions(/closed_auction{id}(/price{v}[v>500 and v<1000004])))",
    "site(/open_auctions(/open_auction{id}(/initial{v}[v>50 and v<1000005], /current{v})))",
    "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v}[v>100 and v<1000006])))",
    "site(//quantity{id,v}[v>2 and v<1000007])",
    "site(//quantity{v}[v>3 and v<1000008])",
    r#"site(//item{id}(/name{v}[v>"m"]))"#,
    r#"site(//name{id,v}[v<"k"])"#,
    r#"site(/regions(/asia(/item{id}(/name{v}[v>="c" and v<"p"]))))"#,
];

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
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/rewrite_search.txt");
    if std::env::var_os("SMV_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — regenerate with SMV_BLESS=1",
            path.display()
        )
    });
    // line by line, so a drift shows the first line it touches
    for (i, (got, want)) in rendered.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "rewriting search drifted at line {} — if intended, rebless with SMV_BLESS=1",
            i + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        want.lines().count(),
        "rewriting search drifted in length — if intended, rebless with SMV_BLESS=1"
    );
}
