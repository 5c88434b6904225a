//! The views and queries `smvbench` serves, and the golden-file check, for
//! the tests that pin what the rewriting search and the feedback loop do
//! with them.

use std::path::PathBuf;

/// Compares `rendered` with `tests/golden/{file}` line by line, so a drift
/// shows the first line it touches; with `SMV_BLESS` set, rewrites the
/// file instead.
pub fn check_golden(file: &str, rendered: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("SMV_BLESS").is_some() {
        std::fs::write(&path, rendered).expect("bless golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} — regenerate with SMV_BLESS=1",
            path.display()
        )
    });
    for (i, (got, want)) in rendered.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "{file} drifted at line {} — if intended, rebless with SMV_BLESS=1",
            i + 1
        );
    }
    assert_eq!(
        rendered.lines().count(),
        want.lines().count(),
        "{file} drifted in length — if intended, rebless with SMV_BLESS=1"
    );
}

/// The views `smvbench` registers at scale 10: the advisor's five for the
/// `pr3` workload under 90 % of its singleton budget, and the four
/// `pr7_views`.
pub const BENCH_VIEWS: [(&str, &str); 9] = [
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
pub const QUERIES: [&str; 22] = [
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
