//! Extended tree patterns (paper §2.2, §4.2-§4.5).
//!
//! A pattern is a tree whose nodes carry a label or `*`, whose edges are
//! `/` (child) or `//` (descendant) and may be **optional** (dashed in the
//! paper: produce a tuple even when the subtree fails to bind) and/or
//! **nested** (`n`-labeled: bindings of the subtree are grouped into one
//! nested table per outer tuple). Nodes may be decorated with a value
//! predicate [`Formula`] and annotated with up to four stored attributes
//! (§4.4): `ID` (identifier), `L` (label), `V` (value), `C` (content — the
//! serialized subtree).
//!
//! *Return nodes* are the nodes carrying at least one attribute, plus any
//! node explicitly marked (`ret`); the latter models the bare conjunctive
//! patterns of §2-§3 that return nodes abstractly.

use crate::formula::Formula;
use smv_xml::Label;

/// Index of a node within a [`Pattern`]; parents precede children.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PNodeId(pub u32);

impl PNodeId {
    /// The pattern root.
    pub const ROOT: PNodeId = PNodeId(0);
    /// Index as usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for PNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Edge axis from the parent.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Axis {
    /// `/` — child.
    Child,
    /// `//` — descendant.
    Descendant,
}

/// The stored-attribute annotation of a node (§4.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct Attrs {
    /// Store the node's identifier.
    pub id: bool,
    /// Store the node's label (useful for `*` nodes).
    pub label: bool,
    /// Store the node's value.
    pub value: bool,
    /// Store the node's content (serialized subtree).
    pub content: bool,
}

impl Attrs {
    /// No attributes.
    pub const NONE: Attrs = Attrs {
        id: false,
        label: false,
        value: false,
        content: false,
    };

    /// Any attribute stored?
    pub fn any(self) -> bool {
        self.id || self.label || self.value || self.content
    }

    /// Does `self` store every attribute `other` stores?
    pub fn covers(self, other: Attrs) -> bool {
        (self.id || !other.id)
            && (self.label || !other.label)
            && (self.value || !other.value)
            && (self.content || !other.content)
    }

    /// Union of stored attributes.
    pub fn union(self, other: Attrs) -> Attrs {
        Attrs {
            id: self.id || other.id,
            label: self.label || other.label,
            value: self.value || other.value,
            content: self.content || other.content,
        }
    }
}

/// One pattern node.
#[derive(Clone, Debug)]
pub struct PNode {
    /// `Some(l)` for a labeled node, `None` for `*`.
    pub label: Option<Label>,
    /// Axis of the edge from the parent (ignored at the root).
    pub axis: Axis,
    /// Dashed (optional) edge from the parent (§4.3).
    pub optional: bool,
    /// Nested (`n`) edge from the parent (§4.5).
    pub nested: bool,
    /// Stored attributes (§4.4).
    pub attrs: Attrs,
    /// Bare return-node marker (conjunctive patterns of §2-§3).
    pub ret: bool,
    /// Value predicate (§4.2); `T` when absent.
    pub predicate: Formula,
    parent: Option<PNodeId>,
    children: Vec<PNodeId>,
}

/// An extended tree pattern.
#[derive(Clone, Debug)]
pub struct Pattern {
    nodes: Vec<PNode>,
}

impl Pattern {
    /// Creates a pattern consisting of a single root node.
    pub fn new(label: Option<Label>) -> Pattern {
        Pattern {
            nodes: vec![PNode {
                label,
                axis: Axis::Child,
                optional: false,
                nested: false,
                attrs: Attrs::NONE,
                ret: false,
                predicate: Formula::top(),
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// Adds a child node under `parent`; returns the new node's id.
    pub fn add_child(&mut self, parent: PNodeId, axis: Axis, label: Option<Label>) -> PNodeId {
        let id = PNodeId(self.nodes.len() as u32);
        self.nodes.push(PNode {
            label,
            axis,
            optional: false,
            nested: false,
            attrs: Attrs::NONE,
            ret: false,
            predicate: Formula::top(),
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.idx()].children.push(id);
        id
    }

    /// Mutable access to a node's decorations.
    pub fn node_mut(&mut self, n: PNodeId) -> &mut PNode {
        &mut self.nodes[n.idx()]
    }

    /// Read access to a node.
    pub fn node(&self, n: PNodeId) -> &PNode {
        &self.nodes[n.idx()]
    }

    /// The root node id.
    pub fn root(&self) -> PNodeId {
        PNodeId::ROOT
    }

    /// Number of nodes (`|p|`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Never true — patterns always have a root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Children of `n`, in order.
    pub fn children(&self, n: PNodeId) -> &[PNodeId] {
        &self.nodes[n.idx()].children
    }

    /// Parent of `n`.
    pub fn parent(&self, n: PNodeId) -> Option<PNodeId> {
        self.nodes[n.idx()].parent
    }

    /// All node ids, parents before children.
    pub fn iter(&self) -> impl Iterator<Item = PNodeId> + '_ {
        (0..self.nodes.len() as u32).map(PNodeId)
    }

    /// The return nodes, in node-id order: nodes with attributes or an
    /// explicit `ret` mark.
    pub fn return_nodes(&self) -> Vec<PNodeId> {
        self.iter()
            .filter(|&n| {
                let nd = self.node(n);
                nd.ret || nd.attrs.any()
            })
            .collect()
    }

    /// Arity = number of return nodes.
    pub fn arity(&self) -> usize {
        self.return_nodes().len()
    }

    /// Ids of nodes whose incoming edge is optional.
    pub fn optional_edges(&self) -> Vec<PNodeId> {
        self.iter()
            .skip(1)
            .filter(|&n| self.node(n).optional)
            .collect()
    }

    /// Ids of nodes whose incoming edge is nested.
    pub fn nested_edges(&self) -> Vec<PNodeId> {
        self.iter()
            .skip(1)
            .filter(|&n| self.node(n).nested)
            .collect()
    }

    /// Is `a` a (possibly transitive) ancestor of `b` in the pattern tree?
    pub fn is_ancestor(&self, a: PNodeId, b: PNodeId) -> bool {
        let mut cur = self.parent(b);
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Nodes of the subtree rooted at `n`, pre-order.
    pub fn subtree(&self, n: PNodeId) -> Vec<PNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            out.push(x);
            for &c in self.children(x).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The *nesting anchors* of `n`: ancestors `n'` such that the edge
    /// going down from `n'` towards `n` is nested, ordered root-to-leaf
    /// (§4.5 — the pattern-side half of a nesting sequence).
    pub fn nesting_anchors(&self, n: PNodeId) -> Vec<PNodeId> {
        let mut anchors = Vec::new();
        let mut cur = n;
        while let Some(p) = self.parent(cur) {
            if self.node(cur).nested {
                anchors.push(p);
            }
            cur = p;
        }
        anchors.reverse();
        anchors
    }

    /// A copy with every nested flag cleared (the unnested pattern of
    /// Proposition 4.2 condition 1).
    pub fn unnest_copy(&self) -> Pattern {
        let mut p = self.clone();
        for i in 0..p.nodes.len() {
            p.nodes[i].nested = false;
        }
        p
    }
}

/// The canonical textual form of a pattern — the cache key the query
/// service's pattern and plan caches are built on.
///
/// The rendering is **injective up to pattern identity**: it serializes
/// every semantically meaningful part of the pattern (labels, axes,
/// optional/nested edge flags, stored attributes, return marks, value
/// predicates in the parser's own grammar) in a fixed traversal order, so
///
/// * two patterns with equal canonical form are semantically identical —
///   they annotate, rewrite and execute identically (the property
///   `tests/properties.rs` pins), and
/// * the round-trip is idempotent: `parse_pattern(canonical_form(p))`
///   yields a pattern with the same canonical form and the same
///   semantics as `p`. (The one normalization the round-trip performs is
///   dropping a redundant explicit `ret` mark from a node that already
///   stores attributes — attribute-bearing nodes are return nodes either
///   way.)
///
/// Sibling order is deliberately **preserved**, not sorted: return-node
/// order (and therefore output column order) follows pattern node order,
/// so patterns differing only in sibling order produce differently laid
/// out results and must not share a cache entry.
pub fn canonical_form(p: &Pattern) -> String {
    p.to_string()
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn write_node(
            p: &Pattern,
            n: PNodeId,
            f: &mut std::fmt::Formatter<'_>,
        ) -> std::fmt::Result {
            let nd = p.node(n);
            match nd.label {
                Some(l) => write!(f, "{l}")?,
                None => f.write_str("*")?,
            }
            let mut parts = Vec::new();
            if nd.attrs.id {
                parts.push("id");
            }
            if nd.attrs.label {
                parts.push("l");
            }
            if nd.attrs.value {
                parts.push("v");
            }
            if nd.attrs.content {
                parts.push("c");
            }
            if nd.ret && !nd.attrs.any() {
                parts.push("ret");
            }
            if !parts.is_empty() {
                write!(f, "{{{}}}", parts.join(","))?;
            }
            if !nd.predicate.is_top() {
                write!(f, "[{}]", nd.predicate)?;
            }
            if !p.children(n).is_empty() {
                f.write_str("(")?;
                for (i, &c) in p.children(n).iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    let cd = p.node(c);
                    if cd.optional {
                        f.write_str("?")?;
                    }
                    if cd.nested {
                        f.write_str("%")?;
                    }
                    f.write_str(match cd.axis {
                        Axis::Child => "/",
                        Axis::Descendant => "//",
                    })?;
                    write_node(p, c, f)?;
                }
                f.write_str(")")?;
            }
            Ok(())
        }
        write_node(self, self.root(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_inspect() {
        // regions(//*{id}(/description, ?//bold{v}))
        let mut p = Pattern::new(Some(Label::intern("regions")));
        let star = p.add_child(p.root(), Axis::Descendant, None);
        p.node_mut(star).attrs.id = true;
        let desc = p.add_child(star, Axis::Child, Some(Label::intern("description")));
        let bold = p.add_child(star, Axis::Descendant, Some(Label::intern("bold")));
        p.node_mut(bold).optional = true;
        p.node_mut(bold).attrs.value = true;
        assert_eq!(p.len(), 4);
        assert_eq!(p.return_nodes(), vec![star, bold]);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.optional_edges(), vec![bold]);
        assert!(p.is_ancestor(p.root(), bold));
        assert!(!p.is_ancestor(desc, bold));
        assert_eq!(p.to_string(), "regions(//*{id}(/description, ?//bold{v}))");
    }

    #[test]
    fn nesting_anchors_walk_nested_edges() {
        // a(%//b(%/c(/d{ret})))
        let mut p = Pattern::new(Some(Label::intern("a")));
        let b = p.add_child(p.root(), Axis::Descendant, Some(Label::intern("b")));
        p.node_mut(b).nested = true;
        let c = p.add_child(b, Axis::Child, Some(Label::intern("c")));
        p.node_mut(c).nested = true;
        let d = p.add_child(c, Axis::Child, Some(Label::intern("d")));
        p.node_mut(d).ret = true;
        assert_eq!(p.nesting_anchors(d), vec![p.root(), b]);
        assert_eq!(p.nesting_anchors(b), vec![p.root()]);
        assert_eq!(p.nesting_anchors(p.root()), vec![]);
    }

    #[test]
    fn canonical_form_round_trips_and_normalizes_redundant_ret() {
        use crate::parser::parse_pattern;
        // A node carrying both stored attrs and an explicit ret mark: the
        // canonical form absorbs the redundant mark (attrs imply return),
        // and the round-trip is idempotent and semantics-preserving.
        let mut p = Pattern::new(Some(Label::intern("a")));
        let b = p.add_child(p.root(), Axis::Descendant, Some(Label::intern("b")));
        p.node_mut(b).attrs.value = true;
        p.node_mut(b).ret = true;
        let form = canonical_form(&p);
        assert_eq!(form, "a(//b{v})");
        let p2 = parse_pattern(&form).unwrap();
        assert_eq!(canonical_form(&p2), form, "idempotent under reparse");
        assert_eq!(p2.return_nodes(), p.return_nodes());
        assert_eq!(p2.arity(), p.arity());

        // Sibling order is preserved, not sorted: swapped children must
        // produce distinct canonical forms (output column order differs).
        let left = parse_pattern("r(/a{v}, /b{v})").unwrap();
        let right = parse_pattern("r(/b{v}, /a{v})").unwrap();
        assert_ne!(canonical_form(&left), canonical_form(&right));
    }

    #[test]
    fn attrs_cover_and_union() {
        let a = Attrs {
            id: true,
            value: true,
            ..Attrs::NONE
        };
        let b = Attrs {
            id: true,
            ..Attrs::NONE
        };
        assert!(a.covers(b));
        assert!(!b.covers(a));
        assert_eq!(a.union(b), a);
    }
}
