//! Cardinality sources for the cost model (`smv_algebra::cost`).
//!
//! Two implementations of [`CardSource`]:
//!
//! * [`CatalogCards`] — backed by a materialized [`ViewStore`] (an epoch
//!   snapshot): scan row counts are the *actual* extent sizes;
//! * [`DefCards`] — backed by view *definitions* only: scan row counts
//!   are estimated from the summary's per-path statistics, which is what
//!   the rewriting engine has available before anything is materialized.
//!
//! Both annotate every scan column with its candidate summary paths via
//! [`col_cards`], mirroring the [`schema_of`] column layout.

use crate::catalog::{View, ViewStore};
use crate::materialize::schema_of;
use smv_algebra::{AttrKind, CardSource, ColCard, ScanCard};
use smv_pattern::{associated_paths, PNodeId, Pattern};
use smv_summary::Summary;
use smv_xml::NodeId;

/// Per-column candidate summary paths for a view pattern, mirroring the
/// [`schema_of`] layout (attribute columns in `ID`, `L`, `V`, `C` order,
/// nested edges as [`ColCard::Nested`]).
pub fn col_cards(p: &Pattern, s: &Summary) -> Vec<ColCard> {
    fn rec(p: &Pattern, paths: &[Vec<NodeId>], n: PNodeId, out: &mut Vec<ColCard>) {
        for _ in AttrKind::of_node(p, n) {
            out.push(ColCard::Atom(paths[n.idx()].as_slice().into()));
        }
        for &c in p.children(n) {
            if p.node(c).nested {
                let mut inner = Vec::new();
                rec(p, paths, c, &mut inner);
                out.push(ColCard::Nested(inner));
            } else {
                rec(p, paths, c, out);
            }
        }
    }
    let paths = associated_paths(p, s);
    let mut out = Vec::new();
    rec(p, &paths, p.root(), &mut out);
    debug_assert_eq!(out.len(), schema_of(p).len(), "column layout mismatch");
    out
}

/// Estimates the extent size of a view from its definition and the
/// summary's per-path statistics, without materializing anything.
///
/// The estimate is the expected number of *outer* rows — the quantity
/// [`ViewStore::extent_rows`] reports — computed as the embedding count of
/// the non-nested part of the pattern: walking the pattern top-down, a
/// child on summary path `q` under a parent bound to path `sp` matches
/// `count(q) / count(sp)` times per parent binding (every `q`-node has
/// exactly one ancestor on each of its ancestor paths), sibling branches
/// multiply, optional branches keep at least one row (`⊥`), and nested
/// edges contribute a single table-valued cell rather than multiplying
/// rows. Exact for required single-path branches; branch products assume
/// independence and optional edges use `max(1, E[k])` ≤ `E[max(1, k)]`,
/// so skewed fan-outs can still deviate — callers needing exact numbers
/// should materialize and use [`CatalogCards`].
/// Value predicates discount their node's contribution by the fraction
/// of the path's distinct-value sample the formula accepts (1/3 once the
/// sketch has saturated), so filtered views are priced below their
/// unfiltered generalizations.
pub fn estimate_extent_rows(p: &Pattern, s: &Summary) -> f64 {
    let paths = associated_paths(p, s);
    let root_paths = &paths[p.root().idx()];
    root_paths
        .iter()
        .map(|&rp| {
            s.count(rp) as f64
                * predicate_selectivity(s, rp, &p.node(p.root()).predicate)
                * embeddings_per_binding(p, s, &paths, p.root(), rp)
        })
        .sum::<f64>()
        .max(1.0)
}

/// Fraction of the document nodes on path `q` satisfying `f`: the valued
/// fraction times the accepted share of the value distribution
/// ([`smv_algebra::value_accepted_fraction`] — the exact distinct-value
/// sample while the sketch is unsaturated, its end-biased equi-width
/// histogram afterwards; the same estimate the plan cost model uses, so
/// extents and selections never disagree). Falls back to 1/3 only when
/// neither statistic exists (non-numeric saturated values).
fn predicate_selectivity(s: &Summary, q: NodeId, f: &smv_pattern::Formula) -> f64 {
    if f.is_top() {
        return 1.0;
    }
    let value_frac = s.value_count(q) as f64 / (s.count(q).max(1)) as f64;
    match smv_algebra::value_accepted_fraction(s, q, f) {
        Some(frac) => value_frac * frac,
        None => value_frac / 3.0,
    }
}

/// Expected embeddings of the non-nested part of `n`'s subtree per
/// document node on summary path `sp` (see [`estimate_extent_rows`]).
fn embeddings_per_binding(
    p: &Pattern,
    s: &Summary,
    paths: &[Vec<NodeId>],
    n: PNodeId,
    sp: NodeId,
) -> f64 {
    use smv_pattern::Axis;
    let mut per = 1.0;
    for &c in p.children(n) {
        let cn = p.node(c);
        if cn.nested {
            continue; // nested subtrees land in table cells, not rows
        }
        let mut x = 0.0;
        for &q in &paths[c.idx()] {
            let under = match cn.axis {
                Axis::Child => s.is_parent(sp, q),
                Axis::Descendant => s.is_ancestor(sp, q),
            };
            if under && s.count(sp) > 0 {
                x += (s.count(q) as f64 / s.count(sp) as f64)
                    * predicate_selectivity(s, q, &cn.predicate)
                    * embeddings_per_binding(p, s, paths, c, q);
            }
        }
        per *= if cn.optional { x.max(1.0) } else { x };
    }
    per
}

/// Per-cell byte weights of the definition-only size estimate the advisor
/// budgets with: a structural ID ≈ 16 bytes, an interned label 8, an
/// atomic value 16, stored content 64 (serialized subtrees dwarf atoms).
pub const BYTES_ID: f64 = 16.0;
/// Byte weight of a label cell.
pub const BYTES_LABEL: f64 = 8.0;
/// Byte weight of an atomic value cell.
pub const BYTES_VALUE: f64 = 16.0;
/// Byte weight of a stored-content cell.
pub const BYTES_CONTENT: f64 = 64.0;

/// Per-row byte width of a pattern's stored attributes (nested subtrees
/// included — this is the width of the fully flattened row).
fn row_width(p: &Pattern) -> f64 {
    p.iter()
        .flat_map(|n| AttrKind::of_node(p, n))
        .map(|kind| match kind {
            AttrKind::Id => BYTES_ID,
            AttrKind::Label => BYTES_LABEL,
            AttrKind::Value => BYTES_VALUE,
            AttrKind::Content => BYTES_CONTENT,
        })
        .sum()
}

/// Estimated stored bytes of a view's extent: the fully *flattened* row
/// count (nested edges unnested — nested tables pay for their rows)
/// times the per-row width of every stored attribute. A deliberate
/// over-approximation of nested storage (outer cells are charged once
/// per nested row, as a flattened store would pay), which keeps budgeted
/// selection conservative.
pub fn estimate_extent_bytes(p: &Pattern, s: &Summary) -> f64 {
    estimate_extent_rows(&p.unnest_copy(), s) * row_width(p)
}

/// [`CardSource`] over a materialized view store: actual extent sizes
/// plus definition-derived column paths. Works over anything implementing
/// [`ViewStore`] — in practice an epoch snapshot ([`crate::CatalogEpoch`]).
pub struct CatalogCards<'a> {
    store: &'a dyn ViewStore,
    summary: &'a Summary,
}

impl<'a> CatalogCards<'a> {
    /// Builds a source over any [`ViewStore`] under `summary`.
    pub fn over(store: &'a dyn ViewStore, summary: &'a Summary) -> CatalogCards<'a> {
        CatalogCards { store, summary }
    }
}

impl CardSource for CatalogCards<'_> {
    fn scan_card(&self, view: &str) -> Option<ScanCard> {
        let v = self.store.view(view)?;
        let rows = self.store.extent_rows(view)? as f64;
        Some(ScanCard {
            rows,
            cols: col_cards(&v.pattern, self.summary),
        })
    }

    fn scan_rows(&self, view: &str) -> Option<f64> {
        self.store.view(view)?;
        Some(self.store.extent_rows(view)? as f64)
    }
}

/// [`CardSource`] over view definitions only: extent sizes are estimated
/// from the summary. This is what `rewrite()` uses by default — it never
/// sees materialized extents.
pub struct DefCards<'a> {
    views: &'a [View],
    summary: &'a Summary,
}

impl<'a> DefCards<'a> {
    /// Builds a source over `views` under `summary`.
    pub fn new(views: &'a [View], summary: &'a Summary) -> DefCards<'a> {
        DefCards { views, summary }
    }
}

impl CardSource for DefCards<'_> {
    fn scan_card(&self, view: &str) -> Option<ScanCard> {
        let v = self.views.iter().find(|v| v.name == view)?;
        Some(ScanCard {
            rows: estimate_extent_rows(&v.pattern, self.summary),
            cols: col_cards(&v.pattern, self.summary),
        })
    }

    fn scan_rows(&self, view: &str) -> Option<f64> {
        let v = self.views.iter().find(|v| v.name == view)?;
        Some(estimate_extent_rows(&v.pattern, self.summary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{CatalogEpoch, EpochCatalog, RefreshPolicy};
    use smv_pattern::parse_pattern;
    use smv_xml::{Document, IdScheme};
    use std::sync::Arc;

    fn fixture() -> (Document, Summary) {
        let d =
            Document::from_parens(r#"r(item(name="p1" bid="1" bid="2") item(name="p2") other)"#);
        let s = Summary::of(&d);
        (d, s)
    }

    /// `p` materialized as view `name` over `d`.
    fn materialized(d: &Document, name: &str, p: Pattern) -> Arc<CatalogEpoch> {
        let mut ec = EpochCatalog::new(d.clone(), IdScheme::OrdPath);
        ec.add_view(View::new(name, p, IdScheme::OrdPath), RefreshPolicy::Eager);
        ec.snapshot()
    }

    #[test]
    fn definition_estimates_track_path_counts() {
        let (_, s) = fixture();
        let v = parse_pattern("r(//name{id,v})").unwrap();
        assert_eq!(estimate_extent_rows(&v, &s), 2.0);
        let chain = parse_pattern("r(/item{id}(/bid{id,v}))").unwrap();
        assert_eq!(
            estimate_extent_rows(&chain, &s),
            2.0,
            "driven by bids' items"
        );
    }

    #[test]
    fn predicates_discount_the_estimate() {
        let (_, s) = fixture();
        // bids carry values {1, 2}; v>1 keeps half the distinct sample
        let all = parse_pattern("r(//bid{id,v})").unwrap();
        let some = parse_pattern("r(//bid{id,v}[v>1])").unwrap();
        assert_eq!(estimate_extent_rows(&all, &s), 2.0);
        assert_eq!(estimate_extent_rows(&some, &s), 1.0);
        assert!(estimate_extent_bytes(&some, &s) < estimate_extent_bytes(&all, &s));
    }

    #[test]
    fn nested_views_estimate_outer_rows() {
        let (d, s) = fixture();
        // the extent of a nested view has one row per item — the nested
        // bids live in a table cell and must not multiply outer rows
        let v = parse_pattern("r(/item{id}(?%/bid{id,v}))").unwrap();
        assert_eq!(estimate_extent_rows(&v, &s), 2.0);
        assert_eq!(materialized(&d, "vn", v).extent_rows("vn"), Some(2));
    }

    #[test]
    fn branching_views_multiply_sibling_fanouts() {
        let (d, s) = fixture();
        // item1 has 1 name × 2 bids, item2 has 1 name × 0 bids → 2 rows
        let v = parse_pattern("r(/item{id}(/name{v}, /bid{v}))").unwrap();
        assert_eq!(estimate_extent_rows(&v, &s), 2.0);
        assert_eq!(materialized(&d, "vb", v).extent_rows("vb"), Some(2));
    }

    #[test]
    fn byte_estimates_track_rows_and_width() {
        let (_, s) = fixture();
        let v = parse_pattern("r(//name{id,v})").unwrap();
        // 2 rows × (16 id + 16 value)
        assert_eq!(estimate_extent_bytes(&v, &s), 64.0);
    }

    #[test]
    fn catalog_cards_report_actual_sizes() {
        let (d, s) = fixture();
        let snap = materialized(&d, "vn", parse_pattern("r(//name{id,v})").unwrap());
        let cards = CatalogCards::over(&*snap, &s);
        let sc = cards.scan_card("vn").unwrap();
        assert_eq!(sc.rows, 2.0);
        assert_eq!(sc.cols.len(), 2, "ID and V columns");
        let name_path = s.node_by_path("/r/item/name").unwrap();
        match &sc.cols[0] {
            ColCard::Atom(ps) => assert_eq!(&ps[..], &[name_path]),
            other => panic!("expected atom card, got {other:?}"),
        }
        assert!(cards.scan_card("zz").is_none());
    }

    #[test]
    fn nested_patterns_nest_their_cards() {
        let (_, s) = fixture();
        let v = parse_pattern("r(/item{id}(?%/bid{v}))").unwrap();
        let cards = col_cards(&v, &s);
        assert_eq!(cards.len(), 2);
        assert!(matches!(cards[1], ColCard::Nested(ref inner) if inner.len() == 1));
    }
}
