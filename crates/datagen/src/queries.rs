//! Tree patterns of the 20 XMark queries.
//!
//! The paper's Figure 13 (top) tests self-containment of "the patterns of
//! the 20 XMark \[28\] queries". XMark queries are XQuery FLWRs; these are
//! their structural tree-pattern cores in our pattern syntax, following
//! the translation rules of `smv-xquery` (for-bindings → `ID` nodes,
//! where/exists branches → plain edges, return expressions → optional
//! edges, nested FLWRs → nested edges). Query 7 — counting three unrelated
//! kinds of content — is the canonical-model outlier the paper calls out.

use smv_pattern::{parse_pattern, Pattern};

/// The 20 XMark query patterns, index 0 = Q1.
pub fn xmark_query_patterns() -> Vec<Pattern> {
    XMARK_QUERIES
        .iter()
        .map(|src| parse_pattern(src).expect("builtin query pattern parses"))
        .collect()
}

/// Pattern sources (kept public for the benchmark report).
pub const XMARK_QUERIES: &[&str] = &[
    // Q1: the initial increase of a given open auction
    "site(/open_auctions(/open_auction{id}(/initial{v})))",
    // Q2: bidder increases per open auction
    "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
    // Q3: first and current increase of auctions
    "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}), /current{v})))",
    // Q4: auctions with a reserve, returning initial
    "site(/open_auctions(/open_auction{id}(/reserve, /initial{v})))",
    // Q5: closed auctions above a price
    "site(/closed_auctions(/closed_auction{id}(/price{v}[v>40])))",
    // Q6: items per region (descendant *)
    "site(/regions(//item{id}))",
    // Q7: three unrelated kinds of content — the |mod_S| outlier
    "site(//mail{ret}, //annotation{ret}, //description{ret})",
    // Q8: people with their purchases (nested join shape)
    "site(/people(/person{id}(/name{v})), /closed_auctions(/closed_auction(/buyer{id})))",
    // Q9: buyers with the items of their purchases
    "site(/people(/person{id}(/name{v})), /closed_auctions(/closed_auction(/buyer{id}, /itemref{id})))",
    // Q10: person profiles grouped by interest
    "site(/people(/person{id}(/profile(/interest{v}, ?/education{v}, ?/age{v}), ?/name{v})))",
    // Q11: people with open auctions matching their income
    "site(/people(/person{id}(/profile(/@income{v}))), /open_auctions(/open_auction(/initial{v})))",
    // Q12: as Q11, restricted to richer people
    "site(/people(/person{id}(/profile(/@income{v}[v>50000]))), /open_auctions(/open_auction(/initial{v})))",
    // Q13: items of a region with their descriptions
    "site(/regions(/australia(/item{id}(/name{v}, /description{c}))))",
    // Q14: items whose description mentions a keyword
    "site(//item{id}(/name{v}, /description(//keyword)))",
    // Q15: a long path into closed-auction annotations
    "site(/closed_auctions(/closed_auction(/annotation(/description(/parlist(/listitem(/text(/keyword{v})))))))) ",
    // Q16: the ancestors of deep keywords
    "site(/closed_auctions(/closed_auction{id}(/annotation(/description(/parlist(/listitem(//keyword)))))))",
    // Q17: people without a homepage (optional probe)
    "site(/people(/person{id}(/name{v}, ?/homepage{v})))",
    // Q18: a simple function over bidder increases
    "site(/open_auctions(/open_auction(/bidder(/increase{v}))))",
    // Q19: items with location, ordered by name
    "site(/regions(//item{id}(/location{v}, ?/name{v})))",
    // Q20: people counted by income bracket
    "site(/people(/person(/profile(/@income{v}))))",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmark::{xmark, XmarkConfig};
    use smv_pattern::{canonical_model, CanonOpts};
    use smv_summary::Summary;

    #[test]
    fn all_twenty_parse() {
        assert_eq!(xmark_query_patterns().len(), 20);
    }

    #[test]
    fn all_satisfiable_on_xmark_summary() {
        let s = Summary::of(&xmark(&XmarkConfig::default()));
        let opts = CanonOpts {
            use_strong: false,
            max_trees: 200_000,
        };
        for (i, q) in xmark_query_patterns().iter().enumerate() {
            let m = canonical_model(q, &s, &opts);
            assert!(
                m.is_satisfiable(),
                "XMark Q{} has empty canonical model",
                i + 1
            );
        }
    }

    #[test]
    fn q7_is_the_model_size_outlier() {
        let s = Summary::of(&xmark(&XmarkConfig::default()));
        let opts = CanonOpts {
            use_strong: false,
            max_trees: 500_000,
        };
        let qs = xmark_query_patterns();
        let sizes: Vec<usize> = qs
            .iter()
            .map(|q| canonical_model(q, &s, &opts).size())
            .collect();
        let q7 = sizes[6];
        let max_other = sizes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 6)
            .map(|(_, &v)| v)
            .max()
            .unwrap();
        assert!(
            q7 > 3 * max_other,
            "Q7 model ({q7}) should dwarf the others (max {max_other})"
        );
    }

    /// `|mod_S(q)|` of every query, plain and closed under strong edges:
    /// the deterministic column of Figure 13 (top). A change to how the
    /// model is enumerated or deduplicated must leave these sizes alone.
    #[test]
    fn model_sizes_are_pinned() {
        let s = Summary::of(&xmark(&XmarkConfig::default()));
        let sizes = |use_strong| -> Vec<usize> {
            let opts = CanonOpts {
                use_strong,
                max_trees: 500_000,
            };
            xmark_query_patterns()
                .iter()
                .map(|q| canonical_model(q, &s, &opts).size())
                .collect()
        };
        assert_eq!(
            sizes(false),
            [1, 1, 1, 1, 1, 6, 90, 1, 1, 8, 1, 1, 1, 15, 1, 2, 2, 1, 12, 1]
        );
        assert_eq!(
            sizes(true),
            [1, 1, 1, 1, 1, 6, 90, 1, 1, 4, 1, 1, 1, 15, 1, 2, 2, 1, 6, 1]
        );
    }
}
