//! Skewed values: frequency skew that static estimates cannot
//! see, so cost ranking picks a provably worse plan until runtime
//! feedback corrects it.
//!
//! Two value populations drive it:
//!
//! * **`initial` values are frequency-skewed**: 90% of the auctions carry
//!   one heavy-hitter value that satisfies the workload predicate
//!   `v<=100`, while the remaining 10% are pairwise-distinct large
//!   values. At full scale the distinct values alone exceed the summary's
//!   distinct-sketch cap, so the sketch saturates and even the end-biased
//!   histogram built from its *distinct sample* sees the heavy hitter as
//!   one value among a thousand — both statistics estimate the predicate
//!   at ≪ 1%, when it actually passes 90% of the rows. Every plan that
//!   filters online is therefore estimated far below its true cost and
//!   static ranking prefers it over the prefiltered view's plain scan,
//!   which is really cheaper. One profiled execution memoizes the true
//!   pass-rate and the ranking flips.
//! * **`price` values are uniformly distinct**: the sketch saturates too,
//!   but the histogram's estimate is accurate, static ranking already
//!   picks the best plan, and the adaptive loop must not disturb it —
//!   the workload's control.

use smv_pattern::{parse_pattern, Pattern};
use smv_views::View;
use smv_xml::{Document, IdScheme};

/// One query over the skewed values.
pub struct SkewedQuery {
    /// Short name.
    pub name: &'static str,
    /// The query pattern.
    pub pattern: Pattern,
    /// True when static ranking is expected to pick a worse plan on the
    /// first iteration (the adaptive loop must flip it); false for
    /// control queries static ranking already gets right.
    pub expect_misrank: bool,
}

/// The skewed document, views and queries.
pub struct SkewedWorkload {
    /// The generated document.
    pub doc: Document,
    /// The views to materialize.
    pub views: Vec<View>,
    /// The queries, repeated across loop iterations.
    pub queries: Vec<SkewedQuery>,
}

/// Heavy-hitter `initial` value (satisfies `v<=100`).
const HEAVY: i64 = 7;
/// Base of the distinct large `initial` values.
const BIG_BASE: i64 = 100_000;
/// `price` values span `[PRICE_BASE, PRICE_BASE + PRICE_SPAN)`.
const PRICE_BASE: i64 = 100_000;
const PRICE_SPAN: i64 = 12_000;

/// The `price` predicate threshold: keeps the top half of the span.
pub const PRICE_CUT: i64 = PRICE_BASE + PRICE_SPAN / 2;

/// Builds the workload at `scale` (1.0 ≈ 12k auctions + 6k bids, enough
/// distinct values to saturate the distinct sketch on both paths).
pub fn skewed_workload(scale: f64, scheme: IdScheme) -> SkewedWorkload {
    let n = ((scale * 12_000.0) as usize).max(400);
    let m = n / 2;
    let mut parts: Vec<String> = Vec::with_capacity(n + m + 2);
    parts.push("auctions(".into());
    // heavy hitters first: the distinct sample fills up with the rare
    // large values and never learns how frequent the heavy hitter is
    let heavy = (n * 9) / 10;
    for i in 0..n {
        let v = if i < heavy {
            HEAVY
        } else {
            BIG_BASE + i as i64
        };
        parts.push(format!(r#"auction(initial="{v}")"#));
    }
    parts.push(") bids(".into());
    for j in 0..m {
        // multiplicative stride: distinct, spread uniformly over the span
        let v = PRICE_BASE + (j as i64 * 37) % PRICE_SPAN;
        parts.push(format!(r#"bid(price="{v}")"#));
    }
    parts.push(")".into());
    let doc = Document::from_parens(&format!("site({})", parts.join(" ")));

    let view = |name: &str, src: &str| {
        View::new(
            name,
            parse_pattern(src).expect("skewed view parses"),
            scheme,
        )
    };
    let views = vec![
        view("auc_ids", "site(/auctions(/auction{id}))"),
        view(
            "auc_all_initial",
            "site(/auctions(/auction(/initial{id,v})))",
        ),
        view(
            "auc_low_initial",
            "site(/auctions(/auction(/initial{id,v}[v<=100])))",
        ),
        view("bid_all_price", "site(/bids(/bid(/price{id,v})))"),
        view(
            "bid_high_price",
            &format!("site(/bids(/bid(/price{{id,v}}[v>={PRICE_CUT}])))"),
        ),
    ];
    let q = |name, src: &str, expect_misrank| SkewedQuery {
        name,
        pattern: parse_pattern(src).expect("skewed query parses"),
        expect_misrank,
    };
    let queries = vec![
        q(
            "initial_low",
            "site(/auctions(/auction(/initial{id,v}[v<=100])))",
            true,
        ),
        q(
            "auction_of_low",
            "site(/auctions(/auction{id}(/initial{v}[v<=100])))",
            true,
        ),
        q(
            "price_high",
            &format!("site(/bids(/bid(/price{{id,v}}[v>={PRICE_CUT}])))"),
            false,
        ),
    ];
    SkewedWorkload {
        doc,
        views,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_summary::Summary;

    #[test]
    fn workload_builds_and_saturates_at_full_scale() {
        let wl = skewed_workload(1.0, IdScheme::OrdPath);
        let s = Summary::of(&wl.doc);
        let initial = s.node_by_path("/site/auctions/auction/initial").unwrap();
        let price = s.node_by_path("/site/bids/bid/price").unwrap();
        // both sketches saturated: the exact sample is gone, the
        // histograms are in place
        assert!(s.distinct_sample(initial).is_none(), "initial saturates");
        assert!(s.distinct_sample(price).is_none(), "price saturates");
        assert!(s.value_histogram(initial).is_some());
        assert!(s.value_histogram(price).is_some());
        for q in &wl.queries {
            assert!(
                smv_pattern::associated_paths(&q.pattern, &s)
                    .iter()
                    .all(|ps| !ps.is_empty()),
                "query {} has unmatched nodes",
                q.name
            );
        }
        assert_eq!(wl.views.len(), 5);
    }

    #[test]
    fn small_scales_stay_skewed() {
        // below the sketch cap the exact sample still hides frequency —
        // the misranking driver is present at every scale
        let wl = skewed_workload(0.05, IdScheme::OrdPath);
        let s = Summary::of(&wl.doc);
        let initial = s.node_by_path("/site/auctions/auction/initial").unwrap();
        let heavy_share = 0.9 * s.count(initial) as f64;
        // distinct count is tiny relative to the heavy hitter's frequency
        assert!((s.distinct_values(initial) as f64) < heavy_share / 2.0);
    }
}
