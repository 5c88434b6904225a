//! Summary-based canonical models — `mod_S(p)` (paper §2.4, §4.1-§4.5).
//!
//! For every embedding `e : p → S`, the *canonical tree* `t_e` contains one
//! distinguished node per pattern node, connected by the label chains that
//! link their images in `S`; under an enhanced summary the tree is closed
//! under **strong edges** (§4.1). Decorated patterns put each node's
//! formula on its distinguished node and `T` elsewhere (§4.2). Optional
//! edges contribute *cut variants* `t_{e,F}` in which the subtrees hanging
//! below a subset `F` of the optional edges are erased (§4.3) — together
//! with embeddings that never mapped the optional subtree at all (its
//! paths may simply be absent from a conforming document).
//!
//! The model is **duplicate-free**: trees are hashed structurally
//! (summary path + formula + return designation, children unordered).
//!
//! Canonical trees implement [`MatchTarget`], so the containment test
//! (Proposition 3.1) evaluates `p'(t_e)` with the ordinary matcher using
//! decorated-embedding formula implication.

use crate::ast::{Axis, PNodeId, Pattern};
use crate::formula::Formula;
use crate::matching::{Assignment, MatchTarget, Matcher};
use smv_summary::Summary;
use smv_xml::fasthash::{FastBuild, FastHasher};
use smv_xml::{Label, LabeledTree, NodeId, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// One node of a canonical tree.
#[derive(Clone, Debug)]
pub struct CNode {
    /// Label (copied from the summary node).
    pub label: Label,
    /// The summary node (path) this canonical node sits on.
    pub spath: NodeId,
    /// The decoration formula (`T` on chain/closure nodes).
    pub formula: Formula,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// A canonical-model tree with its designated return nodes.
#[derive(Clone, Debug)]
pub struct CTree {
    nodes: Vec<CNode>,
    /// Per return index of the source pattern: the designated canonical
    /// node (`None` = `⊥`, the return node was cut or unmappable).
    ret: Vec<Option<NodeId>>,
    /// Per return index: the nesting sequence `ns(n_i, e)` as summary
    /// nodes, root-to-leaf (§4.5). Empty for unmapped returns.
    ret_nesting: Vec<Vec<NodeId>>,
}

impl CTree {
    /// Builds a canonical tree from an **ancestor-closed set of summary
    /// paths** with per-path formulas, designating return nodes by path.
    ///
    /// This is the representation the rewriting engine works in: any
    /// algebraic plan over views is `S`-equivalent to a union of such
    /// trees (Proposition 3.3, under the paper's §4.2 simplification that
    /// canonical trees are `S`-subtrees). Optionally closes the tree
    /// under strong edges.
    pub fn from_path_set(
        s: &Summary,
        nodes: &[(NodeId, Formula)],
        ret_paths: &[Option<NodeId>],
        strong: bool,
    ) -> CTree {
        let mut sorted: Vec<(NodeId, Formula)> = nodes.to_vec();
        sorted.sort_by_key(|(n, _)| n.0);
        sorted.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 = b.1.and(&a.1);
                true
            } else {
                false
            }
        });
        let mut t = CTree {
            nodes: Vec::with_capacity(sorted.len()),
            ret: vec![None; ret_paths.len()],
            ret_nesting: vec![Vec::new(); ret_paths.len()],
        };
        // nodes are pushed in path order, so a path's canonical node is
        // found by binary search over the nodes pushed so far
        for (sp, formula) in sorted {
            let parent = s
                .parent(sp)
                .map(|p| t.node_on(p).expect("path set must be ancestor-closed"));
            let id = NodeId(t.nodes.len() as u32);
            t.nodes.push(CNode {
                label: s.label(sp),
                spath: sp,
                formula,
                parent,
                children: Vec::new(),
            });
            if let Some(p) = parent {
                t.nodes[p.idx()].children.push(id);
            }
        }
        assert!(
            !t.nodes.is_empty(),
            "from_path_set requires at least the root path"
        );
        for (i, rp) in ret_paths.iter().enumerate() {
            if let Some(p) = rp {
                t.ret[i] = Some(
                    t.node_on(*p)
                        .expect("designated return path must be in the node set"),
                );
            }
        }
        if strong {
            strong_closure(s, &mut t);
        }
        t
    }

    /// The set of summary paths used by this tree, with conjoined
    /// formulas (`T` entries included).
    pub fn path_set(&self) -> Vec<(NodeId, Formula)> {
        let mut map: HashMap<NodeId, Formula> = HashMap::new();
        for n in &self.nodes {
            map.entry(n.spath)
                .and_modify(|f| *f = f.and(&n.formula))
                .or_insert_with(|| n.formula.clone());
        }
        let mut v: Vec<(NodeId, Formula)> = map.into_iter().collect();
        v.sort_by_key(|(n, _)| n.0);
        v
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always false (a canonical tree has at least its root).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The designated return nodes (canonical-node ids; `None` = `⊥`).
    pub fn return_nodes(&self) -> &[Option<NodeId>] {
        &self.ret
    }

    /// The designated return nodes as summary paths.
    pub fn return_paths(&self) -> Vec<Option<NodeId>> {
        self.ret
            .iter()
            .map(|o| o.map(|c| self.nodes[c.idx()].spath))
            .collect()
    }

    /// Nesting sequence of return `i` (§4.5).
    pub fn nesting_sequence(&self, i: usize) -> &[NodeId] {
        &self.ret_nesting[i]
    }

    /// The summary path of a canonical node.
    pub fn spath(&self, n: NodeId) -> NodeId {
        self.nodes[n.idx()].spath
    }

    /// The formula of a canonical node.
    pub fn formula(&self, n: NodeId) -> &Formula {
        &self.nodes[n.idx()].formula
    }

    /// Conjunction of all node formulas, as a per-summary-path map — the
    /// paper's `φ_te(v_1, …, v_{|S|})` (§4.2). Multiple canonical nodes on
    /// the same path conjoin.
    pub fn path_formula(&self) -> HashMap<NodeId, Formula> {
        let mut map: HashMap<NodeId, Formula> = HashMap::new();
        for n in &self.nodes {
            if n.formula.is_top() {
                continue;
            }
            map.entry(n.spath)
                .and_modify(|f| *f = f.and(&n.formula))
                .or_insert_with(|| n.formula.clone());
        }
        map
    }

    /// The node on summary path `p`, while the nodes are still in path
    /// order ([`CTree::from_path_set`] before its strong closure).
    fn node_on(&self, p: NodeId) -> Option<NodeId> {
        self.nodes
            .binary_search_by_key(&p.0, |n| n.spath.0)
            .ok()
            .map(|i| NodeId(i as u32))
    }

    /// Per node, a hash of its subtree: path, formula, the return indices
    /// designating it and its children's hashes, sorted so that children
    /// are unordered. Computed bottom-up, since every child's id is larger
    /// than its parent's. Trees that [`CTree::same_tree`] calls equal have
    /// equal hashes at their roots.
    fn subtree_hashes(&self) -> Vec<u64> {
        let mut h = vec![0u64; self.nodes.len()];
        // seed each node with its return marks
        for (i, r) in self.ret.iter().enumerate() {
            if let Some(n) = r {
                let mut st = FastHasher::default();
                st.write_u64(h[n.idx()]);
                st.write_usize(i);
                h[n.idx()] = st.finish();
            }
        }
        let mut kids: Vec<u64> = Vec::new();
        for (i, nd) in self.nodes.iter().enumerate().rev() {
            kids.clear();
            kids.extend(nd.children.iter().map(|c| {
                debug_assert!(c.idx() > i, "children follow their parent");
                h[c.idx()]
            }));
            kids.sort_unstable();
            let mut st = FastHasher::default();
            st.write_u64(h[i]);
            st.write_u32(nd.spath.0);
            nd.formula.hash(&mut st);
            kids.hash(&mut st);
            h[i] = st.finish();
        }
        h
    }

    /// The hash of the whole tree: its root's subtree hash and the
    /// nesting sequences.
    fn tree_hash(&self, subtree: &[u64]) -> u64 {
        let mut st = FastHasher::default();
        st.write_u64(subtree[0]);
        self.ret_nesting.hash(&mut st);
        st.finish()
    }

    /// Are `self` and `other` the same tree: the same nesting sequences
    /// and isomorphic node trees, children unordered, each pair of matched
    /// nodes on the same path with the same formula and designated by the
    /// same return indices? `ha` and `hb` are the two trees'
    /// [`CTree::subtree_hashes`]; they only skip comparisons that would
    /// fail, so a collision costs a comparison and never a wrong answer.
    fn same_tree(&self, ha: &[u64], other: &CTree, hb: &[u64]) -> bool {
        self.ret.len() == other.ret.len()
            && self.ret_nesting == other.ret_nesting
            && self.nodes.len() == other.nodes.len()
            && same_subtree(
                (self, ha),
                NodeId(0),
                (other, hb),
                NodeId(0),
                &mut vec![false; other.nodes.len()],
            )
    }

    /// Renders the tree in parenthesized `label@path` notation (debugging).
    pub fn render(&self) -> String {
        fn rec(t: &CTree, n: NodeId, out: &mut String) {
            let nd = &t.nodes[n.idx()];
            out.push_str(nd.label.as_str());
            if !nd.formula.is_top() {
                out.push('[');
                out.push_str(&nd.formula.to_string());
                out.push(']');
            }
            if t.ret.contains(&Some(n)) {
                out.push('!');
            }
            if !nd.children.is_empty() {
                out.push('(');
                for (i, &c) in nd.children.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    rec(t, c, out);
                }
                out.push(')');
            }
        }
        let mut out = String::new();
        rec(self, NodeId(0), &mut out);
        out
    }
}

/// Is the subtree of `a` at `x` the subtree of `b` at `y` (see
/// [`CTree::same_tree`])? Children are matched greedily, which is exact
/// because "same subtree" is an equivalence. `used` marks the nodes of
/// `b` matched so far; a failed comparison unmarks what it marked.
fn same_subtree(
    (a, ha): (&CTree, &[u64]),
    x: NodeId,
    (b, hb): (&CTree, &[u64]),
    y: NodeId,
    used: &mut [bool],
) -> bool {
    let (nx, ny) = (&a.nodes[x.idx()], &b.nodes[y.idx()]);
    let same_node = ha[x.idx()] == hb[y.idx()]
        && nx.spath == ny.spath
        && nx.children.len() == ny.children.len()
        && nx.formula == ny.formula
        && a.ret
            .iter()
            .zip(&b.ret)
            .all(|(ra, rb)| (*ra == Some(x)) == (*rb == Some(y)));
    if !same_node {
        return false;
    }
    for &cx in &nx.children {
        let matched = ny.children.iter().find(|&&cy| {
            if used[cy.idx()] {
                return false;
            }
            if same_subtree((a, ha), cx, (b, hb), cy, used) {
                used[cy.idx()] = true;
                return true;
            }
            unmark(b, cy, used);
            false
        });
        if matched.is_none() {
            return false;
        }
    }
    true
}

/// Clears `used` on `n`'s subtree in `t`.
fn unmark(t: &CTree, n: NodeId, used: &mut [bool]) {
    used[n.idx()] = false;
    for &c in &t.nodes[n.idx()].children {
        unmark(t, c, used);
    }
}

impl LabeledTree for CTree {
    fn tree_root(&self) -> NodeId {
        NodeId(0)
    }
    fn tree_label(&self, n: NodeId) -> Label {
        self.nodes[n.idx()].label
    }
    fn tree_children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.idx()].children
    }
    fn tree_parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.idx()].parent
    }
    fn tree_value(&self, _n: NodeId) -> Option<&Value> {
        None
    }
    fn tree_is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        // canonical trees are small; parent chasing beats bookkeeping
        let mut cur = self.nodes[b.idx()].parent;
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.nodes[p.idx()].parent;
        }
        false
    }
    fn tree_len(&self) -> usize {
        self.nodes.len()
    }
}

impl MatchTarget for CTree {
    /// Decorated embedding condition (§4.2): `φ_{e(n)}(v) ⇒ φ_n(v)`.
    fn admits(&self, n: NodeId, f: &Formula) -> bool {
        self.nodes[n.idx()].formula.implies(f)
    }
}

/// Options controlling canonical-model construction.
#[derive(Clone, Debug)]
pub struct CanonOpts {
    /// Close trees under strong edges (enhanced summaries, §4.1).
    pub use_strong: bool,
    /// Cap on the number of (pre-dedup) trees materialized; exceeding it
    /// sets [`CanonicalModel::truncated`].
    pub max_trees: usize,
}

impl Default for CanonOpts {
    fn default() -> Self {
        CanonOpts {
            use_strong: true,
            max_trees: 100_000,
        }
    }
}

/// The duplicate-free canonical model `mod_S(p)`.
#[derive(Clone, Debug)]
pub struct CanonicalModel {
    /// The canonical trees.
    pub trees: Vec<CTree>,
    /// True when enumeration hit [`CanonOpts::max_trees`]; containment
    /// tests must then answer conservatively.
    pub truncated: bool,
}

impl CanonicalModel {
    /// Is the pattern `S`-satisfiable? (`mod_S(p) ≠ ∅`, §2.4.)
    pub fn is_satisfiable(&self) -> bool {
        !self.trees.is_empty()
    }

    /// Number of distinct canonical trees — the `|mod_S(p)|` measured in
    /// the paper's Figure 13.
    pub fn size(&self) -> usize {
        self.trees.len()
    }
}

/// Computes `mod_S(p)`.
pub fn canonical_model(p: &Pattern, s: &Summary, opts: &CanonOpts) -> CanonicalModel {
    enumerate(p, s, opts, opts.use_strong)
}

/// `mod_S(p)` with its trees left unclosed: the trees of
/// [`canonical_model`] under `opts` before their strong closure, in the
/// same order and judged realizable on their closed trees all the same.
/// Two trees that close to the same tree are both listed, so closing
/// every tree gives `canonical_model`'s list with some later duplicates.
/// For a caller that reads only each tree's paths, formulas and
/// designation and closes the paths itself: the closure is most of a
/// closed tree's nodes.
pub fn unclosed_model(p: &Pattern, s: &Summary, opts: &CanonOpts) -> CanonicalModel {
    enumerate(p, s, opts, false)
}

/// The canonical trees of `p`, closed under strong edges when `close` is
/// set, each kept when its designation is realizable on its tree closed
/// as `opts` asks.
fn enumerate(p: &Pattern, s: &Summary, opts: &CanonOpts, close: bool) -> CanonicalModel {
    let matcher = Matcher::new(p, s);
    // every distinct tree so far, first-seen order, with its subtree
    // hashes and whether it is kept; and the distinct trees by tree hash
    let mut distinct: Vec<(CTree, Vec<u64>, bool)> = Vec::new();
    let mut by_hash: HashMap<u64, Vec<usize>, FastBuild> = HashMap::default();
    let mut truncated = false;
    let mut count = 0usize;
    // Enumerate *partial* embeddings: optional subtrees may be cut even
    // when a summary match exists (documents need not contain every path).
    let mut asg: Assignment = vec![None; p.len()];
    rec_partial(p, s, &matcher, 0, &mut asg, &mut |asg| {
        count += 1;
        if count > opts.max_trees {
            truncated = true;
            return false;
        }
        let t = build_ctree(p, s, asg, close);
        let h = t.subtree_hashes();
        let same = by_hash.entry(t.tree_hash(&h)).or_default();
        if same
            .iter()
            .all(|&i| !distinct[i].0.same_tree(&distinct[i].1, &t, &h))
        {
            same.push(distinct.len());
            let keep = if opts.use_strong && !close && t.ret.contains(&None) {
                // closure can force a binding: judge the closed tree
                let mut closed = t.clone();
                strong_closure(s, &mut closed);
                designation_realizable(p, &closed)
            } else {
                designation_realizable(p, &t)
            };
            distinct.push((t, h, keep));
        }
        true
    });
    let trees = distinct
        .into_iter()
        .filter_map(|(t, _, keep)| keep.then_some(t))
        .collect();
    CanonicalModel { trees, truncated }
}

/// Is the designated return tuple actually produced by `p` evaluated on
/// the canonical tree itself (the tuple-level form of the paper's
/// `p(t_{e,F}) ≠ ∅` condition, §4.3)?
///
/// A cut variant may become unrealizable when another branch of the tree
/// — or a strong-closure node (§4.1) — matches the cut optional subtree:
/// Definition 4.1's maximality then *forces* a binding in every document
/// containing the tree, so the `⊥` designation can never arise and the
/// tree must not witness containment failures. The check is exact: a
/// pattern node with a non-`T` predicate never matches a `T`-formula
/// closure node (implication fails), so predicate-guarded optional
/// branches keep their `⊥` variants.
fn designation_realizable(p: &Pattern, t: &CTree) -> bool {
    if t.ret.iter().all(|r| r.is_some()) {
        // the identity embedding realizes a fully-mapped designation
        return true;
    }
    Matcher::new(p, t).has_tuple(&t.ret)
}

/// Enumerates assignments where optional subtrees may be mapped *or cut*.
fn rec_partial(
    p: &Pattern,
    s: &Summary,
    matcher: &Matcher<'_, '_, Summary>,
    idx: usize,
    asg: &mut Assignment,
    f: &mut impl FnMut(&Assignment) -> bool,
) -> bool {
    if idx == p.len() {
        return f(asg);
    }
    let m = PNodeId(idx as u32);
    let mnode = p.node(m);
    let parent_img = match p.parent(m) {
        None => {
            for &x in matcher.candidates(m) {
                asg[m.idx()] = Some(x);
                if !rec_partial(p, s, matcher, idx + 1, asg, f) {
                    return false;
                }
            }
            asg[m.idx()] = None;
            return true;
        }
        Some(par) => asg[par.idx()],
    };
    let Some(x) = parent_img else {
        asg[m.idx()] = None;
        return rec_partial(p, s, matcher, idx + 1, asg, f);
    };
    let ys: Vec<NodeId> = matcher
        .candidates(m)
        .iter()
        .copied()
        .filter(|&y| match mnode.axis {
            Axis::Child => s.is_parent(x, y),
            Axis::Descendant => s.is_ancestor(x, y),
        })
        .collect();
    if mnode.optional {
        // cut variant first (documents lacking the branch)
        asg[m.idx()] = None;
        if !rec_partial(p, s, matcher, idx + 1, asg, f) {
            return false;
        }
    } else if ys.is_empty() {
        return true; // dead branch
    }
    for y in ys {
        asg[m.idx()] = Some(y);
        if !rec_partial(p, s, matcher, idx + 1, asg, f) {
            return false;
        }
    }
    asg[m.idx()] = None;
    true
}

/// Materializes the canonical tree of one (partial) embedding.
fn build_ctree(p: &Pattern, s: &Summary, asg: &Assignment, use_strong: bool) -> CTree {
    let returns = p.return_nodes();
    let mut t = CTree {
        nodes: Vec::new(),
        ret: vec![None; returns.len()],
        ret_nesting: vec![Vec::new(); returns.len()],
    };
    let sroot = asg[p.root().idx()].expect("root is always mapped");
    t.nodes.push(CNode {
        label: s.label(sroot),
        spath: sroot,
        formula: p.node(p.root()).predicate.clone(),
        parent: None,
        children: Vec::new(),
    });
    mark_return(p, &returns, p.root(), NodeId(0), asg, s, &mut t);
    add_children(p, s, asg, p.root(), NodeId(0), &returns, &mut t);
    if use_strong {
        strong_closure(s, &mut t);
    }
    t
}

fn mark_return(
    p: &Pattern,
    returns: &[PNodeId],
    pn: PNodeId,
    cn: NodeId,
    asg: &Assignment,
    _s: &Summary,
    t: &mut CTree,
) {
    if let Some(i) = returns.iter().position(|&r| r == pn) {
        t.ret[i] = Some(cn);
        t.ret_nesting[i] = p
            .nesting_anchors(pn)
            .iter()
            .map(|&a| asg[a.idx()].expect("anchors of a mapped node are mapped"))
            .collect();
    }
}

fn add_children(
    p: &Pattern,
    s: &Summary,
    asg: &Assignment,
    pn: PNodeId,
    cn: NodeId,
    returns: &[PNodeId],
    t: &mut CTree,
) {
    for &m in p.children(pn) {
        let Some(sm) = asg[m.idx()] else {
            continue; // cut or unmappable optional subtree
        };
        let sx = t.nodes[cn.idx()].spath;
        let chain = s.tree_chain_down(sx, sm);
        let mut cur = cn;
        for (i, &sn) in chain.iter().enumerate() {
            let is_last = i == chain.len() - 1;
            let formula = if is_last {
                p.node(m).predicate.clone()
            } else {
                Formula::top()
            };
            let id = NodeId(t.nodes.len() as u32);
            t.nodes.push(CNode {
                label: s.label(sn),
                spath: sn,
                formula,
                parent: Some(cur),
                children: Vec::new(),
            });
            t.nodes[cur.idx()].children.push(id);
            cur = id;
        }
        mark_return(p, returns, m, cur, asg, s, t);
        add_children(p, s, asg, m, cur, returns, t);
    }
}

/// Adds, under every tree node, the summary subtrees reachable through
/// chains of strong edges only (enhanced canonical model, §4.1).
fn strong_closure(s: &Summary, t: &mut CTree) {
    let mut queue: Vec<NodeId> = (0..t.nodes.len() as u32).map(NodeId).collect();
    while let Some(cn) = queue.pop() {
        let sp = t.nodes[cn.idx()].spath;
        for &sc in s.children(sp) {
            if !s.is_strong_edge(sc) {
                continue;
            }
            let already = t.nodes[cn.idx()]
                .children
                .iter()
                .any(|&c| t.nodes[c.idx()].spath == sc);
            if already {
                continue;
            }
            let id = NodeId(t.nodes.len() as u32);
            t.nodes.push(CNode {
                label: s.label(sc),
                spath: sc,
                formula: Formula::top(),
                parent: Some(cn),
                children: Vec::new(),
            });
            t.nodes[cn.idx()].children.push(id);
            queue.push(id);
        }
        // existing children also need their own strong children — they are
        // in the initial queue already (or pushed when created).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pattern;
    use proptest::prelude::*;
    use smv_xml::Document;
    use std::collections::HashSet;

    fn opts_plain() -> CanonOpts {
        CanonOpts {
            use_strong: false,
            max_trees: 100_000,
        }
    }

    /// The string the model was once deduplicated by: children unordered,
    /// path, formula and return designation per node, then the nesting
    /// sequences. The oracle for the structural hash's dedup.
    fn string_key(t: &CTree) -> String {
        fn rec(t: &CTree, n: NodeId, out: &mut String) {
            let nd = &t.nodes[n.idx()];
            out.push('(');
            out.push_str(&nd.spath.0.to_string());
            if !nd.formula.is_top() {
                out.push('[');
                out.push_str(&nd.formula.to_string());
                out.push(']');
            }
            let marks: Vec<String> = t
                .ret
                .iter()
                .enumerate()
                .filter(|(_, r)| **r == Some(n))
                .map(|(i, _)| i.to_string())
                .collect();
            if !marks.is_empty() {
                out.push('!');
                out.push_str(&marks.join(","));
            }
            let mut kids: Vec<String> = nd
                .children
                .iter()
                .map(|&c| {
                    let mut s = String::new();
                    rec(t, c, &mut s);
                    s
                })
                .collect();
            kids.sort();
            for k in kids {
                out.push_str(&k);
            }
            out.push(')');
        }
        let mut out = String::new();
        rec(t, NodeId(0), &mut out);
        for ns in &t.ret_nesting {
            out.push('|');
            for s in ns {
                out.push_str(&s.0.to_string());
                out.push('.');
            }
        }
        out
    }

    /// `mod_S(p)` over the same enumeration as [`canonical_model`],
    /// deduplicated by [`string_key`].
    fn string_keyed_model(p: &Pattern, s: &Summary, opts: &CanonOpts) -> CanonicalModel {
        let matcher = Matcher::new(p, s);
        let mut seen: HashSet<String> = HashSet::new();
        let mut trees = Vec::new();
        let mut truncated = false;
        let mut count = 0usize;
        let mut asg: Assignment = vec![None; p.len()];
        rec_partial(p, s, &matcher, 0, &mut asg, &mut |asg| {
            count += 1;
            if count > opts.max_trees {
                truncated = true;
                return false;
            }
            let t = build_ctree(p, s, asg, opts.use_strong);
            if seen.insert(string_key(&t)) && designation_realizable(p, &t) {
                trees.push(t);
            }
            true
        });
        CanonicalModel { trees, truncated }
    }

    /// A document `r(…)` over labels `a`, `b`, `c` that repeat down a
    /// path, so its summary is recursive; leaves may carry values 0–2.
    fn documents() -> impl Strategy<Value = String> {
        let leaf = (0u8..3, 0u8..4).prop_map(|(l, v)| {
            let label = (b'a' + l) as char;
            if v < 3 {
                format!("{label}=\"{v}\"")
            } else {
                label.to_string()
            }
        });
        let tree = leaf.prop_recursive(4, 24, 3, |inner| {
            (0u8..3, proptest::collection::vec(inner, 1..4))
                .prop_map(|(l, kids)| format!("{}({})", (b'a' + l) as char, kids.join(" ")))
        });
        proptest::collection::vec(tree, 1..4).prop_map(|kids| format!("r({})", kids.join(" ")))
    }

    /// A pattern `r(…)` whose edges mix `/` and `//`, optional edges,
    /// `*`, value predicates and several return nodes.
    fn patterns() -> impl Strategy<Value = String> {
        let edge = |(axis, opt, label, ret, pred): (u8, u8, u8, u8, u8), kids: Vec<String>| {
            let mut e = String::new();
            if opt == 0 {
                e.push('?');
            }
            e.push_str(if axis == 0 { "/" } else { "//" });
            e.push(if label == 3 {
                '*'
            } else {
                (b'a' + label) as char
            });
            if ret == 0 {
                e.push_str("{ret}");
            }
            e.push_str(["", "", "[v>0]", "[v=1 or v=2]"][pred as usize]);
            if !kids.is_empty() {
                e.push_str(&format!("({})", kids.join(", ")));
            }
            e
        };
        let head = || (0u8..2, 0u8..3, 0u8..4, 0u8..2, 0u8..4);
        let leaf = head().prop_map(move |h| edge(h, Vec::new()));
        let sub = leaf.prop_recursive(2, 12, 2, move |inner| {
            (head(), proptest::collection::vec(inner, 1..3)).prop_map(move |(h, k)| edge(h, k))
        });
        proptest::collection::vec(sub, 1..4).prop_map(|kids| format!("r({})", kids.join(", ")))
    }

    /// Two `a` siblings on one path, listed in opposite orders: matched
    /// without hashes, the first `a` first meets the wrong one, matches
    /// its `b(d)` and then fails on `c` against `e`. That `b(d)` must be
    /// free again for the second `a`.
    #[test]
    fn a_failed_match_frees_what_it_matched() {
        let s = Summary::of(&Document::from_parens("r(a(b(d) c e))"));
        let tree = |src: &str| {
            let m = canonical_model(&parse_pattern(src).unwrap(), &s, &opts_plain());
            assert_eq!(m.size(), 1);
            m.trees.into_iter().next().unwrap()
        };
        let t = tree("r(/a(/b(/d), /c), /a(/b(/d), /e))");
        let u = tree("r(/a(/b(/d), /e), /a(/b(/d), /c))");
        assert_eq!(string_key(&t), string_key(&u));
        let zeros = vec![0u64; t.len()];
        assert!(t.same_tree(&zeros, &u, &zeros));
        assert!(u.same_tree(&zeros, &t, &zeros));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Deduplicating by structural hash keeps exactly the trees, in
        /// exactly the order, that deduplicating by [`string_key`] does.
        #[test]
        fn hash_dedup_equals_string_dedup(doc in documents(), pat in patterns(), strong in 0u8..2) {
            let s = Summary::of(&Document::from_parens(&doc));
            let p = parse_pattern(&pat).unwrap_or_else(|e| panic!("`{pat}`: {e:?}"));
            let opts = CanonOpts {
                use_strong: strong == 1,
                max_trees: 1_000,
            };
            let got = canonical_model(&p, &s, &opts);
            let want = string_keyed_model(&p, &s, &opts);
            let keys = |m: &CanonicalModel| m.trees.iter().map(string_key).collect::<Vec<_>>();
            prop_assert_eq!(keys(&got), keys(&want), "`{}` over `{}`", pat, doc);
            prop_assert_eq!(got.truncated, want.truncated);
            // the exact comparison alone, as on a collision, tells the
            // kept trees apart and each from itself
            let zeros = |t: &CTree| vec![0u64; t.len()];
            for (i, a) in got.trees.iter().take(12).enumerate() {
                for (j, b) in got.trees.iter().take(12).enumerate() {
                    prop_assert_eq!(a.same_tree(&zeros(a), b, &zeros(b)), i == j, "{} {}", i, j);
                }
            }
        }
    }

    /// The Figure 3 situation: a pattern with two `*` nodes has exactly the
    /// embeddings the summary allows.
    #[test]
    fn fig3_two_embeddings() {
        // S of the Fig. 2 document: a(b c(b d(e)) d(c(b) b(d e)))-ish;
        // build a document realizing it.
        let d = Document::from_parens("a(b c(b d(e)) d(c(b) b(d e)))");
        let s = Summary::of(&d);
        // p = a(//*(/b, //*{ret})) — upper * with a b child and a returning
        // descendant *.
        let p = parse_pattern("a(//*(/b, //*{ret}))").unwrap();
        let m = canonical_model(&p, &s, &opts_plain());
        assert!(m.is_satisfiable());
        // upper * can be c (child b, descendants b/d/e) or d (child... d's
        // children are c and b; c has child b ⇒ only d has /b child? both
        // c and d have b children); enumerate and sanity check bounds.
        assert!(m.size() >= 2, "at least two distinct canonical trees");
        for t in &m.trees {
            assert_eq!(t.return_nodes().len(), 1);
            assert!(t.return_nodes()[0].is_some());
        }
    }

    #[test]
    fn satisfiability_detects_impossible_patterns() {
        let s = Summary::of(&Document::from_parens("a(b(c))"));
        let sat = parse_pattern("a(//c{ret})").unwrap();
        assert!(canonical_model(&sat, &s, &opts_plain()).is_satisfiable());
        let unsat = parse_pattern("a(/c{ret})").unwrap();
        assert!(
            !canonical_model(&unsat, &s, &opts_plain()).is_satisfiable(),
            "c is not a direct child of a"
        );
        let unsat2 = parse_pattern("a(//z{ret})").unwrap();
        assert!(!canonical_model(&unsat2, &s, &opts_plain()).is_satisfiable());
    }

    #[test]
    fn chains_materialize_intermediate_nodes() {
        let s = Summary::of(&Document::from_parens("a(b(c(d)))"));
        let p = parse_pattern("a(//d{ret})").unwrap();
        let m = canonical_model(&p, &s, &opts_plain());
        assert_eq!(m.size(), 1);
        let t = &m.trees[0];
        // chain a -> b -> c -> d fully materialized
        assert_eq!(t.len(), 4);
        assert_eq!(t.render(), "a(b(c(d!)))");
    }

    #[test]
    fn duplicate_embeddings_collapse() {
        // p' = /a//*//e: both intermediate choices yield the same tree
        // (the paper's duplicate-free remark in §2.4).
        let d = Document::from_parens("a(b(c(e)))");
        let s = Summary::of(&d);
        let p = parse_pattern("a(//*(//e{ret}))").unwrap();
        let m = canonical_model(&p, &s, &opts_plain());
        assert_eq!(
            m.size(),
            1,
            "trees for *=b and *=c coincide: {:?}",
            m.trees.iter().map(|t| t.render()).collect::<Vec<_>>()
        );
        assert_eq!(m.trees[0].render(), "a(b(c(e!)))");
    }

    #[test]
    fn optional_edges_produce_cut_variants() {
        // Figure 10: modS(p1) = {t1, t2, t3}
        let d = Document::from_parens("a(c(d(b e) b) c)");
        let s = Summary::of(&d); // S: a(c(d(b e) b))
        let p = parse_pattern("a(/c{ret}(?/d(/b{ret}, ?/e)))").unwrap();
        let m = canonical_model(&p, &s, &opts_plain());
        // variants: full (c,d,b,e), no-e (c,d,b), no-d-subtree (c)
        let renders: HashSet<String> = m.trees.iter().map(|t| t.render()).collect();
        assert_eq!(
            renders,
            HashSet::from([
                "a(c!(d(b! e)))".to_string(),
                "a(c!(d(b!)))".to_string(),
                "a(c!)".to_string(),
            ]),
            "got {renders:?}"
        );
        // the cut variant designates ⊥ for the b return
        assert!(m
            .trees
            .iter()
            .any(|t| t.return_nodes()[1].is_none() && t.return_nodes()[0].is_some()));
    }

    #[test]
    fn strong_edges_extend_trees() {
        // every b has a c child (strong); pattern only mentions a//b
        let d = Document::from_parens("a(b(c) b(c d))");
        let s = Summary::of(&d);
        assert!(s.is_strong_edge(s.node_by_path("/a/b/c").unwrap()));
        let p = parse_pattern("a(/b{ret})").unwrap();
        let plain = canonical_model(&p, &s, &opts_plain());
        assert_eq!(plain.trees[0].render(), "a(b!)");
        let enhanced = canonical_model(&p, &s, &CanonOpts::default());
        assert_eq!(enhanced.trees[0].render(), "a(b!(c))");
    }

    #[test]
    fn strong_closure_is_recursive() {
        let d = Document::from_parens("a(b(c(d)) b(c(d)))");
        let s = Summary::of(&d);
        let p = parse_pattern("a(/b{ret})").unwrap();
        let m = canonical_model(&p, &s, &CanonOpts::default());
        assert_eq!(m.trees[0].render(), "a(b!(c(d)))");
    }

    #[test]
    fn decorated_nodes_carry_formulas() {
        let d = Document::from_parens(r#"a(b="1")"#);
        let s = Summary::of(&d);
        let p = parse_pattern("a(/b{ret}[v>2])").unwrap();
        let m = canonical_model(&p, &s, &opts_plain());
        assert_eq!(m.size(), 1);
        let t = &m.trees[0];
        let b = t.return_nodes()[0].unwrap();
        assert_eq!(t.formula(b).to_string(), "v>2");
        let pf = t.path_formula();
        assert_eq!(pf.len(), 1);
    }

    #[test]
    fn nesting_sequences_recorded() {
        let d = Document::from_parens("a(b(c))");
        let s = Summary::of(&d);
        let p = parse_pattern("a(%//b(/c{ret}))").unwrap();
        let m = canonical_model(&p, &s, &opts_plain());
        assert_eq!(m.size(), 1);
        let t = &m.trees[0];
        // the nested edge hangs below `a`, so the anchor's image is /a
        assert_eq!(t.nesting_sequence(0), &[s.root()]);
    }

    #[test]
    fn model_size_bounded_by_cap() {
        // wildcard-heavy pattern on a wide summary
        let d = Document::from_parens("a(b(x) c(x) d(x) e(x) f(x))");
        let s = Summary::of(&d);
        let p = parse_pattern("a(//*{ret}, //*{ret})").unwrap();
        let m = canonical_model(
            &p,
            &s,
            &CanonOpts {
                use_strong: false,
                max_trees: 5,
            },
        );
        assert!(m.truncated);
        assert!(m.size() <= 5);
    }

    #[test]
    fn worst_case_is_product_not_power_here() {
        // the Figure 4 shape: |modS(p)| grows with |S| × returns
        let d = Document::from_parens("r(a(a(a(a))))");
        let s = Summary::of(&d);
        let p = parse_pattern("r(//a{ret})").unwrap();
        let m = canonical_model(&p, &s, &opts_plain());
        assert_eq!(m.size(), 4, "one tree per a-depth");
    }
}
