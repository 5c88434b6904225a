//! Pattern embeddings and evaluation, generic over match targets.
//!
//! Embeddings (paper §2.2) are defined from a pattern into *documents*;
//! the same machinery is reused for embeddings into *summaries* (needed to
//! build canonical models, §2.4) and into *canonical-model trees* (needed
//! by the containment test, Proposition 3.1). [`MatchTarget`] abstracts
//! the difference: each target type decides when a node *admits* a value
//! predicate —
//!
//! * a document node admits `φ` iff its value satisfies `φ` (a node with
//!   no value only admits `T`);
//! * a summary node admits any satisfiable `φ` (conforming documents may
//!   put arbitrary values there);
//! * a decorated canonical-tree node with formula `ψ` admits `φ` iff
//!   `ψ ⇒ φ` (decorated embeddings, §4.2).
//!
//! Optional (dashed) edges follow Definition 4.1: a node under an optional
//! edge maps to `⊥` **only when no match exists** under its parent's image
//! (maximal-match semantics).

use crate::ast::{Axis, PNodeId, Pattern};
use crate::formula::Formula;
use smv_summary::Summary;
use smv_xml::{Document, LabeledTree, NodeId};
use std::collections::HashSet;

/// A tree a pattern can be embedded into.
pub trait MatchTarget: LabeledTree {
    /// May a pattern node decorated with `f` be mapped onto `n`?
    fn admits(&self, n: NodeId, f: &Formula) -> bool;
}

impl MatchTarget for Document {
    fn admits(&self, n: NodeId, f: &Formula) -> bool {
        if f.is_top() {
            return true;
        }
        match self.value(n) {
            Some(v) => f.accepts(v),
            None => false,
        }
    }
}

impl MatchTarget for Summary {
    fn admits(&self, _n: NodeId, f: &Formula) -> bool {
        f.is_sat()
    }
}

/// A partial assignment of target nodes to pattern nodes; `None` is `⊥`.
pub type Assignment = Vec<Option<NodeId>>;

/// Precomputed candidate sets and embedding enumeration for one
/// (pattern, target) pair.
pub struct Matcher<'p, 't, T: MatchTarget> {
    pattern: &'p Pattern,
    target: &'t T,
    /// Per pattern node, the target nodes it can map to in *some* optional
    /// embedding (labels, predicates and all non-optional descendants
    /// check out). Sorted by node id.
    cand: Vec<Vec<NodeId>>,
    probes: u64,
}

impl<'p, 't, T: MatchTarget> Matcher<'p, 't, T> {
    /// Computes candidate sets bottom-up in `O(|p| · |t|)`: each
    /// non-optional pattern edge is one marking pass over the child's
    /// candidates (child axis: mark the parent; descendant axis: climb,
    /// stopping at the first ancestor an earlier climb already marked),
    /// and a node qualifies when every such pass marked it.
    ///
    /// The nodes tested are the target root for the pattern root, the
    /// target's postings of the label for a labeled node when it keeps
    /// them ([`LabeledTree::tree_nodes_labeled`]: documents do), and every
    /// target node otherwise. Over a document that makes the cost the
    /// postings read plus the marking steps.
    pub fn new(pattern: &'p Pattern, target: &'t T) -> Self {
        let n_nodes = pattern.len();
        let t_len = target.tree_len();
        let mut cand: Vec<Vec<NodeId>> = vec![Vec::new(); n_nodes];
        let mut probes = 0u64;
        for pid in (0..n_nodes as u32).map(PNodeId).rev() {
            let pnode = pattern.node(pid);
            let marks: Vec<Vec<bool>> = pattern
                .children(pid)
                .iter()
                .filter(|&&m| !pattern.node(m).optional) // optional children never block a match
                .map(|&m| {
                    let mut mark = vec![false; t_len];
                    for &y in &cand[m.idx()] {
                        let mut cur = target.tree_parent(y);
                        while let Some(a) = cur {
                            probes += 1;
                            if std::mem::replace(&mut mark[a.idx()], true)
                                || pattern.node(m).axis == Axis::Child
                            {
                                break;
                            }
                            cur = target.tree_parent(a);
                        }
                    }
                    mark
                })
                .collect();
            let qualifies = |&x: &NodeId| {
                pnode.label.is_none_or(|l| target.tree_label(x) == l)
                    && target.admits(x, &pnode.predicate)
                    && marks.iter().all(|mark| mark[x.idx()])
            };
            let root = [target.tree_root()];
            let listed = match pnode.label {
                _ if pid == pattern.root() => Some(&root[..]),
                Some(l) => target.tree_nodes_labeled(l),
                None => None,
            };
            cand[pid.idx()] = match listed {
                Some(pool) => {
                    probes += pool.len() as u64;
                    pool.iter().copied().filter(qualifies).collect()
                }
                None => {
                    probes += t_len as u64;
                    (0..t_len as u32).map(NodeId).filter(qualifies).collect()
                }
            };
        }
        Matcher {
            pattern,
            target,
            cand,
            probes,
        }
    }

    /// Target nodes examined while computing the candidate sets (nodes of
    /// each pool tested — postings entries over a document — plus marking
    /// steps): an exact work count, for tests that bound the construction
    /// cost without a clock.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Candidate target nodes for a pattern node.
    pub fn candidates(&self, n: PNodeId) -> &[NodeId] {
        &self.cand[n.idx()]
    }

    /// Does at least one (optional) embedding exist?
    pub fn exists(&self) -> bool {
        !self.cand[self.pattern.root().idx()].is_empty()
    }

    /// Enumerates optional embeddings; the callback returns `false` to stop
    /// early. The assignment slice is indexed by pattern node id.
    ///
    /// Pattern node ids are assigned parents-before-children, so a plain
    /// backtracking recursion in id order is sound: each node's only
    /// constraint is against its (already assigned) parent.
    pub fn for_each_embedding(&self, mut f: impl FnMut(&Assignment) -> bool) {
        let mut asg: Assignment = vec![None; self.pattern.len()];
        self.rec(0, &mut asg, &mut f);
    }

    /// Returns false to abort the entire enumeration.
    fn rec(
        &self,
        idx: usize,
        asg: &mut Assignment,
        f: &mut impl FnMut(&Assignment) -> bool,
    ) -> bool {
        if idx == self.pattern.len() {
            return f(asg);
        }
        let m = PNodeId(idx as u32);
        let mnode = self.pattern.node(m);
        let parent_img = match self.pattern.parent(m) {
            None => {
                // the pattern root: must map onto the target root
                for &x in &self.cand[m.idx()] {
                    asg[m.idx()] = Some(x);
                    if !self.rec(idx + 1, asg, f) {
                        return false;
                    }
                }
                asg[m.idx()] = None;
                return true;
            }
            Some(p) => asg[p.idx()],
        };
        let Some(x) = parent_img else {
            // Def 4.1 3(b)(i): parent is ⊥ ⇒ child is ⊥
            asg[m.idx()] = None;
            return self.rec(idx + 1, asg, f);
        };
        let ys: Vec<NodeId> = self.cand[m.idx()]
            .iter()
            .copied()
            .filter(|&y| rel_ok(self.target, mnode.axis, x, y))
            .collect();
        if ys.is_empty() {
            if mnode.optional {
                // Def 4.1 3(b)(ii): no match exists ⇒ ⊥ (maximality)
                asg[m.idx()] = None;
                return self.rec(idx + 1, asg, f);
            }
            return true; // dead branch; backtrack
        }
        for y in ys {
            asg[m.idx()] = Some(y);
            if !self.rec(idx + 1, asg, f) {
                return false;
            }
        }
        asg[m.idx()] = None;
        true
    }

    /// All distinct return tuples (paper: `p(t)`), up to `limit` embeddings
    /// explored (guards pathological cases).
    pub fn tuples(&self, limit: usize) -> HashSet<Vec<Option<NodeId>>> {
        let returns = self.pattern.return_nodes();
        let mut out = HashSet::new();
        let mut seen = 0usize;
        self.for_each_embedding(|asg| {
            out.insert(returns.iter().map(|r| asg[r.idx()]).collect());
            seen += 1;
            seen < limit
        });
        out
    }

    /// Does any embedding produce exactly `tuple` on the return nodes?
    pub fn has_tuple(&self, tuple: &[Option<NodeId>]) -> bool {
        let returns = self.pattern.return_nodes();
        debug_assert_eq!(returns.len(), tuple.len());
        let mut found = false;
        self.for_each_embedding(|asg| {
            if returns
                .iter()
                .zip(tuple.iter())
                .all(|(r, t)| asg[r.idx()] == *t)
            {
                found = true;
                return false;
            }
            true
        });
        found
    }
}

fn rel_ok<T: MatchTarget>(t: &T, axis: Axis, x: NodeId, y: NodeId) -> bool {
    match axis {
        Axis::Child => t.tree_parent(y) == Some(x),
        Axis::Descendant => t.tree_is_ancestor(x, y),
    }
}

/// Evaluates `p(d)` on a document: the set of return tuples (Section 2.2,
/// extended with `⊥` for optional edges per §4.3).
pub fn evaluate(p: &Pattern, d: &Document) -> HashSet<Vec<Option<NodeId>>> {
    Matcher::new(p, d).tuples(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;

    fn tuple1(n: u32) -> Vec<Option<NodeId>> {
        vec![Some(NodeId(n))]
    }

    #[test]
    fn conjunctive_embedding_fig2_style() {
        // d = a(b c(b d(e)) d(c(b) b(d) b e)), p = a(//b{ret}, //d(/e))
        let d = Document::from_parens("a(b c(b d(e)) d(c(b) b(d) b e))");
        let p = parse_pattern("a(//b{ret}, //d(/e))").unwrap();
        let tuples = evaluate(&p, &d);
        // b nodes: 1, 3, 7, 8(b under d? let's see) — compute labels
        let bs: Vec<u32> = d
            .iter()
            .filter(|&n| d.label(n).as_str() == "b")
            .map(|n| n.0)
            .collect();
        let expect: HashSet<_> = bs.iter().map(|&n| tuple1(n)).collect();
        assert_eq!(tuples, expect);
    }

    #[test]
    fn child_vs_descendant_axes() {
        let d = Document::from_parens("a(b(c) c)");
        let direct = parse_pattern("a(/c{ret})").unwrap();
        let deep = parse_pattern("a(//c{ret})").unwrap();
        let t1 = evaluate(&direct, &d);
        let t2 = evaluate(&deep, &d);
        assert_eq!(t1.len(), 1);
        assert_eq!(t2.len(), 2);
    }

    #[test]
    fn wildcard_matches_any_label() {
        let d = Document::from_parens("a(b c d)");
        let p = parse_pattern("a(/*{ret})").unwrap();
        assert_eq!(evaluate(&p, &d).len(), 3);
    }

    #[test]
    fn value_predicates_filter() {
        let d = Document::from_parens(r#"a(b="1" b="5" b="9" b)"#);
        let p = parse_pattern("a(/b{ret}[v>2 and v<8])").unwrap();
        let tuples = evaluate(&p, &d);
        assert_eq!(tuples, HashSet::from([tuple1(2)]));
        // a valueless b never satisfies a non-T predicate
        let p2 = parse_pattern("a(/b{ret}[v>=0 or v<0])").unwrap();
        assert!(p2.node(PNodeId(1)).predicate.is_top(), "v>=0 or v<0 is T");
    }

    #[test]
    fn optional_edge_binds_bottom_only_when_no_match() {
        // the paper's Figure 10: p1(t) = {(c1,b2),(c1,b3),(c2,⊥)}
        // t = a(c(d(b e) d(b)) c(e))  — c1 has two b descendants via d
        // children; c2 has none.
        let d = Document::from_parens("a(c(d(b e) d(b)) c(e))");
        let p = parse_pattern("a(/c{ret}(?/d(/b{ret})))").unwrap();
        let tuples = evaluate(&p, &d);
        let c1 = NodeId(1);
        let c2 = NodeId(7);
        assert_eq!(d.label(c1).as_str(), "c");
        assert_eq!(d.label(c2).as_str(), "c");
        let b1 = NodeId(3);
        let b2 = NodeId(6);
        let expect: HashSet<Vec<Option<NodeId>>> = HashSet::from([
            vec![Some(c1), Some(b1)],
            vec![Some(c1), Some(b2)],
            vec![Some(c2), None],
        ]);
        assert_eq!(tuples, expect);
    }

    #[test]
    fn optional_under_optional_cascades_bottom() {
        let d = Document::from_parens("a(x)");
        let p = parse_pattern("a(?/b{ret}(?/c{ret}))").unwrap();
        let tuples = evaluate(&p, &d);
        assert_eq!(tuples, HashSet::from([vec![None, None]]));
    }

    #[test]
    fn optional_inner_still_maximal() {
        let d = Document::from_parens("a(b)");
        let p = parse_pattern("a(?/b{ret}(?/c{ret}))").unwrap();
        let tuples = evaluate(&p, &d);
        assert_eq!(tuples, HashSet::from([vec![Some(NodeId(1)), None]]));
    }

    #[test]
    fn non_optional_failure_kills_match() {
        let d = Document::from_parens("a(b)");
        let p = parse_pattern("a(/b{ret}(/c))").unwrap();
        assert!(evaluate(&p, &d).is_empty());
    }

    #[test]
    fn root_must_map_to_root() {
        let d = Document::from_parens("a(a(b))");
        let p = parse_pattern("a(/b{ret})").unwrap();
        // the inner a has a b child but the pattern root must map to the
        // document root, whose only child is `a`.
        assert!(evaluate(&p, &d).is_empty());
    }

    #[test]
    fn multiple_return_nodes_cross_product_of_consistent_bindings() {
        let d = Document::from_parens("a(b b c)");
        let p = parse_pattern("a(/b{ret}, /c{ret})").unwrap();
        assert_eq!(evaluate(&p, &d).len(), 2);
    }

    #[test]
    fn summary_matching_ignores_values_but_not_contradictions() {
        let s = Summary::of(&Document::from_parens("a(b)"));
        let p = parse_pattern("a(/b{ret}[v>3])").unwrap();
        let m = Matcher::new(&p, &s);
        assert!(m.exists(), "satisfiable predicate embeds into summary");
        // contradiction cannot embed anywhere
        let mut p2 = parse_pattern("a(/b{ret})").unwrap();
        p2.node_mut(PNodeId(1)).predicate = Formula::bottom();
        let m2 = Matcher::new(&p2, &s);
        assert!(!m2.exists());
    }

    #[test]
    fn has_tuple_early_exit() {
        let d = Document::from_parens("a(b b b)");
        let p = parse_pattern("a(/b{ret})").unwrap();
        let m = Matcher::new(&p, &d);
        assert!(m.has_tuple(&[Some(NodeId(2))]));
        assert!(!m.has_tuple(&[Some(NodeId(0))]));
        assert!(!m.has_tuple(&[None]));
    }
}
