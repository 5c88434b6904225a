//! The `pr3` advisor workload: weighted XMark queries with shared
//! sub-structure.
//!
//! Every query returns *two* nodes (an anchor ID plus a leaf value), so
//! the all-singleton-tag baseline (`seed_views`) must reassemble each
//! answer with a structural join, while an advised multi-node view serves
//! it by a single scan. Several queries share an anchor (`open_auction`
//! hosts `initial` and `current`; `person` hosts `name` and
//! `emailaddress`), giving the advisor genuinely shared *merged*
//! candidates that undercut two singleton views on storage; one query
//! carries a range predicate so generalization-vs-filtered-extent is
//! exercised too. Weights model query frequency.

use smv_pattern::{parse_pattern, Pattern};

/// One advisor-workload query.
pub struct Pr3Query {
    /// Short name.
    pub name: &'static str,
    /// The query pattern.
    pub pattern: Pattern,
    /// Relative frequency.
    pub weight: f64,
}

/// `(name, pattern, weight)` sources, kept public for the report.
pub const PR3_QUERIES: &[(&str, &str, f64)] = &[
    (
        "initial",
        "site(/open_auctions(/open_auction{id}(/initial{v})))",
        4.0,
    ),
    (
        "current",
        "site(/open_auctions(/open_auction{id}(/current{v})))",
        3.0,
    ),
    (
        "increase",
        "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
        2.0,
    ),
    (
        "person_email",
        "site(/people(/person{id}(/emailaddress{v})))",
        2.0,
    ),
    ("person_name", "site(/people(/person{id}(/name{v})))", 2.0),
    (
        "price_gt",
        "site(/closed_auctions(/closed_auction{id}(/price{v}[v>400])))",
        1.0,
    ),
    (
        "item_name",
        "site(/regions(/asia(/item{id}(/name{v}))))",
        1.0,
    ),
];

/// Builds the advisor workload.
pub fn pr3_workload() -> Vec<Pr3Query> {
    PR3_QUERIES
        .iter()
        .map(|&(name, src, weight)| Pr3Query {
            name,
            pattern: parse_pattern(src).expect("builtin pr3 query parses"),
            weight,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmark::{xmark, XmarkConfig};
    use smv_summary::Summary;

    #[test]
    fn workload_parses_and_matches_the_summary() {
        let s = Summary::of(&xmark(&XmarkConfig::default()));
        let wl = pr3_workload();
        assert!(wl.len() >= 5);
        for q in &wl {
            assert!(q.weight >= 1.0);
            assert_eq!(q.pattern.arity(), 2, "{} is a two-column query", q.name);
            assert!(
                smv_pattern::associated_paths(&q.pattern, &s)
                    .iter()
                    .all(|ps| !ps.is_empty()),
                "query {} has unmatched nodes",
                q.name
            );
        }
    }

    #[test]
    fn shared_anchors_have_strong_branches() {
        // the premise of merged-candidate mining on this workload:
        // initial/current and name/emailaddress are strong edges
        let s = Summary::of(&xmark(&XmarkConfig::default()));
        for path in [
            "/site/open_auctions/open_auction/initial",
            "/site/open_auctions/open_auction/current",
            "/site/people/person/name",
            "/site/people/person/emailaddress",
        ] {
            let n = s.node_by_path(path).unwrap();
            assert!(s.is_strong_edge(n), "{path} must be strong");
        }
    }
}
