//! Pattern → nested relation evaluation.
//!
//! The semantics of attribute patterns (§4.4) and nested patterns (§4.5):
//! a tuple per embedding, concatenating `tup(n_i, n^t_i)` for each return
//! node, with data under a nested edge grouped into one table per outer
//! tuple and optional subtrees contributing `⊥` when unmatched.

use smv_algebra::{AttrKind, Cell, ColKind, Column, NestedRelation, Row, Schema};
use smv_pattern::{Axis, MatchTarget, Matcher, PNodeId, Pattern};
use smv_xml::{serialize_subtree, Document, IdAssignment, IdScheme, NodeId, Symbol};
use std::cell::Cell as Counter;

/// The relational schema a pattern produces (shared convention between
/// materialization and the rewriting engine).
///
/// Columns appear in pattern-node (pre-order) id order; a node's own
/// attribute columns are ordered `ID`, `L`, `V`, `C`; a nested edge
/// produces a single table-valued column holding its subtree's schema.
pub fn schema_of(p: &Pattern) -> Schema {
    schema_of_sub(p, p.root())
}

/// [`schema_of`] restricted to the subtree rooted at `n` (names keep the
/// pattern's node ids) — the schema of the table a nested edge into `n`
/// produces.
fn schema_of_sub(p: &Pattern, n: PNodeId) -> Schema {
    fn rec(p: &Pattern, n: PNodeId, out: &mut Vec<Column>) {
        let nd = p.node(n);
        let base = match nd.label {
            Some(l) => format!("{}#{}", l.as_str(), n.0),
            None => format!("*#{}", n.0),
        };
        out.extend(AttrKind::of_node(p, n).map(|kind| Column {
            name: Symbol::intern(&format!("{base}.{kind}")),
            kind: ColKind::Atom(kind),
        }));
        for &c in p.children(n) {
            if p.node(c).nested {
                let mut inner = Vec::new();
                rec(p, c, &mut inner);
                out.push(Column {
                    name: Symbol::intern(&format!("A#{}", c.0)),
                    kind: ColKind::Nested(Schema { cols: inner }),
                });
            } else {
                rec(p, c, out);
            }
        }
    }
    let mut cols = Vec::new();
    rec(p, n, &mut cols);
    Schema { cols }
}

/// Number of (top-level) columns the subtree rooted at `n` contributes.
fn width(p: &Pattern, n: PNodeId) -> usize {
    let mut w = AttrKind::of_node(p, n).count();
    for &c in p.children(n) {
        if p.node(c).nested {
            w += 1;
        } else {
            w += width(p, c);
        }
    }
    w
}

/// The `smv-obs` counter of candidate probes: label postings examined and
/// marking steps taken by [`Matcher::new`], plus candidates examined (and
/// interval lookups made) while enumerating bindings. An exact, repeatable
/// work count — the linearity tests bound it instead of a clock.
pub const CANDIDATE_PROBES: &str = "views.candidate_probes";

/// Evaluates `p(doc, f_ID)` into a nested relation.
///
/// ```
/// use smv_pattern::parse_pattern;
/// use smv_views::materialize;
/// use smv_xml::{Document, IdScheme};
///
/// let doc = Document::from_parens(r#"site(item(name="pen") item(name="ink"))"#);
/// let pattern = parse_pattern("site(//item{id}(/name{v}))").unwrap();
/// let extent = materialize(&pattern, &doc, IdScheme::OrdPath);
/// assert_eq!(extent.len(), 2, "one tuple per embedding");
/// assert_eq!(extent.schema.len(), 2, "item.ID and name.V columns");
/// ```
pub fn materialize(p: &Pattern, doc: &Document, scheme: IdScheme) -> NestedRelation {
    let ids = IdAssignment::assign(doc, scheme);
    materialize_with(p, doc, &ids)
}

/// [`materialize`] against an explicit ID assignment instead of a fresh
/// positional one — the form live stores use: a maintained document's
/// IDs are carried across updates ([`smv_xml::LiveDoc`]), so re-assigning
/// them positionally would sever extent rows from their node identity.
pub fn materialize_with(p: &Pattern, doc: &Document, ids: &IdAssignment) -> NestedRelation {
    let matcher = Matcher::new(p, doc);
    let cand: Vec<&[NodeId]> = p.iter().map(|n| matcher.candidates(n)).collect();
    let eval = Evaluator::new(p, doc, ids, cand);
    let mut rows = Vec::new();
    for &x in matcher.candidates(p.root()) {
        rows.extend(eval.eval_node(p.root(), x));
    }
    smv_obs::counter_add(CANDIDATE_PROBES, matcher.probes() + eval.probes.get());
    let mut rel = NestedRelation::new(schema_of(p), rows);
    rel.normalize();
    rel
}

/// The rows of `p` in which the last node of `chain` — the pattern's
/// path from its root down to a refresh anchor, over required flat edges
/// only — binds one of `pinned` (ascending document nodes that each
/// [`admits_node`] the anchor). Raw rows, like [`Evaluator::eval_node`]'s.
///
/// Nothing outside the pinned nodes' subtrees and ancestor paths is
/// read: the candidates of the pattern nodes below the anchor are
/// collected from those subtrees, and the chain above it binds by
/// climbing.
pub(crate) fn rows_pinned(
    p: &Pattern,
    doc: &Document,
    ids: &IdAssignment,
    chain: &[PNodeId],
    pinned: &[NodeId],
) -> Vec<Row> {
    let (&k, above) = chain.split_last().expect("a chain holds its anchor");
    // admissible candidates below the anchor, one pass over each
    // outermost pinned subtree (none to collect under a leaf anchor)
    let below = &p.subtree(k)[1..];
    let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); p.len()];
    let mut probes = 0u64;
    let mut covered = None;
    for &d in pinned {
        if below.is_empty() || covered.is_some_and(|last| d <= last) {
            continue; // nothing to collect, or inside an earlier pinned subtree
        }
        for y in doc.descendants(d) {
            probes += 1;
            for &m in below {
                if admits_node(p, m, doc, y) {
                    lists[m.idx()].push(y);
                }
            }
        }
        covered = Some(doc.last_descendant(d));
    }
    let eval = Evaluator::new(p, doc, ids, lists.iter().map(Vec::as_slice).collect());
    let mut rows = Vec::new();
    for &d in pinned {
        let ups = eval.bind_up(chain, above.len(), d);
        if ups.is_empty() {
            continue;
        }
        let fragments = eval.eval_node(k, d);
        for up in &ups {
            let mut prefix = Vec::new();
            for (&m, &x) in above.iter().zip(up) {
                prefix.extend(own_cells(p, m, doc, ids, x));
            }
            for f in &fragments {
                let mut cells = prefix.clone();
                cells.extend(f.cells.iter().cloned());
                rows.push(Row::new(cells));
            }
        }
    }
    smv_obs::counter_add(CANDIDATE_PROBES, probes + eval.probes.get());
    rows
}

/// May pattern node `m` be mapped onto document node `y`? The same label
/// + value-predicate admission [`Matcher::new`] applies per candidate.
pub(crate) fn admits_node(p: &Pattern, m: PNodeId, doc: &Document, y: NodeId) -> bool {
    let nd = p.node(m);
    nd.label.is_none_or(|l| doc.label(y) == l) && doc.admits(y, &nd.predicate)
}

/// The attribute cells pattern node `n` contributes when bound to
/// document node `x`, in schema order (`ID`, `L`, `V`, `C`).
fn own_cells(p: &Pattern, n: PNodeId, doc: &Document, ids: &IdAssignment, x: NodeId) -> Vec<Cell> {
    AttrKind::of_node(p, n)
        .map(|kind| match kind {
            AttrKind::Id => Cell::Id(ids.id(x).clone()),
            AttrKind::Label => Cell::Label(doc.label(x)),
            AttrKind::Value => doc
                .value(x)
                .map(|v| Cell::Atom(v.clone()))
                .unwrap_or(Cell::Null),
            AttrKind::Content => Cell::Content(serialize_subtree(doc, x).into()),
        })
        .collect()
}

/// Top-down binding enumeration over per-pattern-node candidate lists.
///
/// A candidate list holds document nodes in ascending [`NodeId`] order,
/// which is pre-order: the bindings of a pattern child under a parent
/// binding `x` are the list's `partition_point` interval
/// `(x, last_descendant(x)]` — never a scan of the whole list. The lists
/// need only be *admissible* (right label and value predicate): a
/// candidate whose required pattern children cannot bind evaluates to no
/// rows, which is how a failed subtree is reported anyway. So the same
/// evaluator serves a full materialization (the [`Matcher`]'s lists) and
/// a refresh (lists collected under the dirty nodes alone).
struct Evaluator<'a> {
    p: &'a Pattern,
    doc: &'a Document,
    ids: &'a IdAssignment,
    cand: Vec<&'a [NodeId]>,
    /// Per pattern node: the table schema of the nested edge into it.
    nested: Vec<Option<Schema>>,
    probes: Counter<u64>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator over `cand`, indexed by pattern node id.
    fn new(
        p: &'a Pattern,
        doc: &'a Document,
        ids: &'a IdAssignment,
        cand: Vec<&'a [NodeId]>,
    ) -> Evaluator<'a> {
        let nested = p
            .iter()
            .map(|n| p.node(n).nested.then(|| schema_of_sub(p, n)))
            .collect();
        Evaluator {
            p,
            doc,
            ids,
            cand,
            nested,
            probes: Counter::new(0),
        }
    }

    /// The candidates of pattern node `c` in the subtree below `x`.
    fn below(&self, c: PNodeId, x: NodeId) -> &'a [NodeId] {
        let list = self.cand[c.idx()];
        let lo = list.partition_point(|&y| y <= x);
        let last = self.doc.last_descendant(x);
        let len = list[lo..].partition_point(|&y| y <= last);
        self.probes.set(self.probes.get() + 1 + len as u64);
        &list[lo..lo + len]
    }

    /// Assignments to `chain[..k]` (root first) under which `chain[k]` may
    /// bind `below`: each step follows the axis of the edge it crosses
    /// upward — the parent, or every proper ancestor — and position 0
    /// binds the document root only. Every edge of `chain` is required.
    fn bind_up(&self, chain: &[PNodeId], k: usize, below: NodeId) -> Vec<Vec<NodeId>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        let (p, doc) = (self.p, self.doc);
        let mut out = Vec::new();
        let mut cur = doc.parent(below);
        while let Some(x) = cur {
            self.probes.set(self.probes.get() + 1);
            if admits_node(p, chain[k - 1], doc, x) && (k > 1 || x == doc.root()) {
                for mut up in self.bind_up(chain, k - 1, x) {
                    up.push(x);
                    out.push(up);
                }
            }
            cur = match p.node(chain[k]).axis {
                Axis::Child => None,
                Axis::Descendant => doc.parent(x),
            };
        }
        out
    }

    /// Rows (fragments) for the subtree rooted at pattern node `n` bound
    /// to document node `x`.
    fn eval_node(&self, n: PNodeId, x: NodeId) -> Vec<Row> {
        let (p, doc) = (self.p, self.doc);
        let mut fragments: Vec<Vec<Cell>> = vec![own_cells(p, n, doc, self.ids, x)];
        for &c in p.children(n) {
            let child = p.node(c);
            let mut sub_rows: Vec<Row> = Vec::new();
            for &y in self.below(c, x) {
                // the interval is the descendant axis; the child axis
                // keeps its parent test
                if child.axis == Axis::Descendant || doc.is_parent(x, y) {
                    sub_rows.extend(self.eval_node(c, y));
                }
            }
            if sub_rows.is_empty() && !child.optional {
                return Vec::new(); // required subtree failed
            }
            if let Some(schema) = &self.nested[c.idx()] {
                // one table-valued cell per outer fragment (§4.5); empty
                // table when nothing matched (Fig. 12)
                let table = Cell::Table(Box::new(NestedRelation::new(schema.clone(), sub_rows)));
                for f in &mut fragments {
                    f.push(table.clone());
                }
            } else if sub_rows.is_empty() {
                // Def 4.1: ⊥ for the whole optional subtree
                let nulls = vec![Cell::Null; width(p, c)];
                for f in &mut fragments {
                    f.extend(nulls.iter().cloned());
                }
            } else {
                // cartesian combination with sibling fragments
                let mut next = Vec::with_capacity(fragments.len() * sub_rows.len());
                for f in &fragments {
                    for sr in &sub_rows {
                        let mut g = f.clone();
                        g.extend(sr.cells.iter().cloned());
                        next.push(g);
                    }
                }
                fragments = next;
            }
        }
        fragments.into_iter().map(Row::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_pattern::parse_pattern;
    use smv_xml::Value;

    #[test]
    fn schema_layout_follows_preorder() {
        let p = parse_pattern("a{id}(//b{id,v}, /c{l}(?%/d{c}))").unwrap();
        let s = schema_of(&p);
        let names: Vec<&str> = s.cols.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a#0.ID", "b#1.ID", "b#1.V", "c#2.L", "A#3"]);
        assert!(matches!(s.cols[4].kind, ColKind::Nested(_)));
    }

    #[test]
    fn flat_materialization_matches_fig11_style() {
        // Figure 11's p1: a(/c(/b{l}, //*{id,v}(/e{v,c})))-ish, simplified
        let doc = Document::from_parens(r#"a(c(b d(e="3")) c)"#);
        let p = parse_pattern("a(/c(/b{l}, //d{id}(/e{v,c})))").unwrap();
        let rel = materialize(&p, &doc, IdScheme::OrdPath);
        assert_eq!(rel.len(), 1);
        let row = &rel.rows[0];
        assert_eq!(row.cells[0], Cell::Label(smv_xml::Label::intern("b")));
        assert!(matches!(row.cells[1], Cell::Id(_)));
        assert_eq!(row.cells[2], Cell::Atom(Value::int(3)));
        assert_eq!(row.cells[3], Cell::Content("<e>3</e>".into()));
    }

    #[test]
    fn optional_yields_nulls() {
        let doc = Document::from_parens("a(c(b) c)");
        let p = parse_pattern("a(/c{id}(?/b{id}))").unwrap();
        let rel = materialize(&p, &doc, IdScheme::Dewey);
        assert_eq!(rel.len(), 2);
        let nulls: usize = rel.rows.iter().filter(|r| r.cells[1].is_null()).count();
        assert_eq!(nulls, 1, "the childless c yields ⊥: {rel}");
    }

    #[test]
    fn nested_edge_groups_bindings() {
        // the paper's V1 shape: items group their listitem contents
        let doc = Document::from_parens(r#"a(item(name="p1" li="x" li="y") item(name="p2"))"#);
        let p = parse_pattern("a(/item{id}(%?/li{v}))").unwrap();
        let rel = materialize(&p, &doc, IdScheme::OrdPath);
        assert_eq!(rel.len(), 2);
        // first item: table with 2 rows; second: empty table
        let tables: Vec<usize> = rel
            .rows
            .iter()
            .map(|r| match &r.cells[1] {
                Cell::Table(t) => t.len(),
                other => panic!("expected table, got {other}"),
            })
            .collect();
        let mut sorted = tables;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 2]);
    }

    #[test]
    fn nested_inside_nested() {
        let doc = Document::from_parens(r#"r(x(y(z="1") y(z="2")) x)"#);
        let p = parse_pattern("r(%/x{id}(%/y{id}(/z{v})))").unwrap();
        let rel = materialize(&p, &doc, IdScheme::OrdPath);
        assert_eq!(rel.len(), 1, "one row for the root binding");
        let Cell::Table(outer) = &rel.rows[0].cells[0] else {
            panic!("outer nested column expected");
        };
        // the second x has no y child and the nested y edge is required,
        // so only the first x survives — with a 2-row inner table
        assert_eq!(outer.len(), 1);
        let Cell::Table(inner) = &outer.rows[0].cells[1] else {
            panic!("inner nested column expected");
        };
        assert_eq!(inner.len(), 2);
    }

    #[test]
    fn required_branch_failure_removes_binding() {
        let doc = Document::from_parens("a(item(name) item)");
        let p = parse_pattern("a(/item{id}(/name{l}))").unwrap();
        let rel = materialize(&p, &doc, IdScheme::OrdPath);
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn flat_materialization_agrees_with_tuple_evaluation() {
        use smv_pattern::evaluate;
        let doc = Document::from_parens(r#"a(b(c="1") b(c="2") b)"#);
        let p = parse_pattern("a(/b{id}(?/c{id}))").unwrap();
        let rel = materialize(&p, &doc, IdScheme::Sequential);
        let tuples = evaluate(&p, &doc);
        assert_eq!(rel.len(), tuples.len());
        // sequential ids are the node pre-order indices, so compare directly
        let mut from_rel: Vec<Vec<Option<u32>>> = rel
            .rows
            .iter()
            .map(|r| {
                r.cells
                    .iter()
                    .map(|c| match c {
                        Cell::Id(smv_xml::StructId::Seq(s)) => Some(*s as u32),
                        Cell::Null => None,
                        other => panic!("unexpected cell {other}"),
                    })
                    .collect()
            })
            .collect();
        let mut from_eval: Vec<Vec<Option<u32>>> = tuples
            .into_iter()
            .map(|t| t.into_iter().map(|o| o.map(|n| n.0)).collect())
            .collect();
        from_rel.sort();
        from_eval.sort();
        assert_eq!(from_rel, from_eval);
    }
}
