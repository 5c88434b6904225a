//! The cost-ranking cases: queries with a deliberately wide plan space.
//!
//! Each case pairs one XMark query with two views that both rewrite it:
//!
//! * a **wide** view storing every `*` child of the query's anchor with
//!   `{id,l,v}` — rewriting it requires a label selection over a fat
//!   extent (the §4.6 `σ_L` adaptation);
//! * an **exact** view matching the query — a plain scan.
//!
//! The wide view is listed *first*, so a rewriter that returned its plans
//! in discovery order would return the expensive plan first, while the
//! cost-ranked default picks the exact scan. This isolates exactly what
//! the cost layer buys.

use smv_pattern::{parse_pattern, Pattern};
use smv_views::View;
use smv_xml::IdScheme;

/// One cost-ranking case: a query plus its view set (wide first).
pub struct RankingCase {
    /// Short case name (names the golden `EXPLAIN` file).
    pub name: &'static str,
    /// The query pattern.
    pub query: Pattern,
    /// The views, expensive-to-rewrite first.
    pub views: Vec<View>,
}

/// The (query, wide-anchor) sources of the cases.
const CASES: &[(&str, &str, &str)] = &[
    (
        "initial",
        "site(/open_auctions(/open_auction(/initial{id,v})))",
        "site(/open_auctions(/open_auction(/*{id,l,v})))",
    ),
    (
        "emailaddress",
        "site(/people(/person(/emailaddress{id,v})))",
        "site(/people(/person(/*{id,l,v})))",
    ),
    (
        "price",
        "site(/closed_auctions(/closed_auction(/price{id,v})))",
        "site(/closed_auctions(/closed_auction(/*{id,l,v})))",
    ),
    (
        "item_name",
        "site(/regions(/asia(/item(/name{id,v}))))",
        "site(/regions(/asia(/item(/*{id,l,v}))))",
    ),
    (
        "current",
        "site(/open_auctions(/open_auction(/current{id,v})))",
        "site(/open_auctions(/open_auction(/*{id,l,v})))",
    ),
];

/// Builds every case with views stored under `scheme`.
pub fn ranking_cases(scheme: IdScheme) -> Vec<RankingCase> {
    CASES
        .iter()
        .map(|(name, q_src, wide_src)| {
            let query = parse_pattern(q_src).expect("builtin ranking query parses");
            let views = vec![
                View::new(
                    &format!("{name}_wide"),
                    parse_pattern(wide_src).expect("builtin ranking wide view parses"),
                    scheme,
                ),
                View::new(&format!("{name}_exact"), query.clone(), scheme),
            ];
            RankingCase { name, query, views }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xmark::{xmark, XmarkConfig};
    use smv_summary::Summary;

    #[test]
    fn workload_builds_and_anchors_exist() {
        let s = Summary::of(&xmark(&XmarkConfig::default()));
        let cases = ranking_cases(IdScheme::OrdPath);
        assert!(cases.len() >= 3);
        for c in &cases {
            assert_eq!(c.views.len(), 2);
            assert!(c.views[0].name.ends_with("_wide"));
            // the query's deepest labeled path occurs in the summary
            assert!(
                smv_pattern::associated_paths(&c.query, &s)
                    .iter()
                    .all(|ps| !ps.is_empty()),
                "case {} has unmatched query nodes",
                c.name
            );
        }
    }
}
