//! The (plan, pattern) pairs of Algorithm 1 (§4.2, Props. 3.3 and 3.5):
//! a pair's plan, its column layout and the union of members its pattern
//! side stands for, with the structural key the Prop. 3.5 test compares.

use smv_algebra::{AttrKind, Carried, Plan};
use smv_pattern::canonical::CTree;
use smv_pattern::Formula;
use smv_summary::Summary;
use smv_xml::fasthash::{FastBuild, FastHasher};
use smv_xml::{IdScheme, NodeId};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// A column of a flattened view plan.
#[derive(Clone, Debug)]
pub(super) struct ColInfo {
    pub(super) attr: AttrKind,
    pub(super) scheme: IdScheme,
    /// A §4.6 derived ancestor ID (`navfID`). A member places it at the
    /// stored column's path k steps up, which names the node only along
    /// that member's own chain: so it never stands on both sides of a
    /// `⋈_=`, nor on the ancestor side of a `⋈_≺` or `⋈_≺≺` (see
    /// [`Rewriter::join_options`](super::Rewriter::join_options)).
    pub(super) derived: bool,
}

/// A member's ancestor-closed set of summary paths, each with a formula,
/// with its hash — taken once, when the set is built, and read by every
/// key the member is part of. Shared with the view's [`PreparedView`](super::adapt::PreparedView) (and
/// between the copies a search makes of a pair) until a step has to
/// change it.
///
/// Under the strong closure (§4.2) a member holds most of the summary's
/// paths, nearly all with formula `T`, so the paths are a bitset — one bit
/// per summary path id — and only the other formulas are listed. Merging,
/// comparing and hashing two sets is then a pass over a few words plus
/// their short formula lists.
#[derive(Clone, Debug)]
pub(super) struct NodeSet(Arc<NodeSetInner>);

#[derive(Clone, Debug)]
struct NodeSetInner {
    hash: u64,
    /// Bit `p % 64` of word `p / 64` is set when path `p` is in the set;
    /// no trailing zero word, so equal sets have equal words.
    words: Vec<u64>,
    /// The paths whose formula is not `T`, sorted by path; each is in
    /// `words`.
    formulas: Vec<(NodeId, Formula)>,
}

impl NodeSet {
    /// The paths of a canonical tree, the formulas of its nodes on one
    /// path conjoined: [`CTree::path_set`] without building the list.
    pub(super) fn of_tree(t: &CTree) -> NodeSet {
        let mut words = Vec::new();
        let mut formulas = Vec::new();
        for n in (0..t.len()).map(|i| NodeId(i as u32)) {
            let (p, f) = (t.spath(n), t.formula(n));
            set_bit(&mut words, p);
            if !f.is_top() {
                formulas.push((p, f.clone()));
            }
        }
        formulas.sort_by_key(|(p, _)| *p);
        formulas.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.and(&next.1);
            }
            same
        });
        NodeSet::from_parts(words, formulas)
    }

    /// The set of a sorted, duplicate-free `(path, formula)` list.
    #[cfg(test)]
    pub(super) fn new(nodes: Vec<(NodeId, Formula)>) -> NodeSet {
        let mut words = Vec::new();
        for (n, _) in &nodes {
            set_bit(&mut words, *n);
        }
        let formulas = nodes.into_iter().filter(|(_, f)| !f.is_top()).collect();
        NodeSet::from_parts(words, formulas)
    }

    fn from_parts(words: Vec<u64>, formulas: Vec<(NodeId, Formula)>) -> NodeSet {
        NodeSet(Arc::new(NodeSetInner {
            hash: hash_parts(&words, &formulas),
            words,
            formulas,
        }))
    }

    pub(super) fn hash(&self) -> u64 {
        self.0.hash
    }

    fn contains(&self, p: NodeId) -> bool {
        has_bit(&self.0.words, p)
    }

    /// The formula of `p` when it is in the set and not `T`.
    pub(super) fn formula(&self, p: NodeId) -> Option<&Formula> {
        let fs = &self.0.formulas;
        fs.binary_search_by_key(&p, |(n, _)| *n)
            .ok()
            .map(|i| &fs[i].1)
    }

    /// The paths whose formula is not `T`, with their formulas, sorted.
    pub(super) fn formulas(&self) -> &[(NodeId, Formula)] {
        &self.0.formulas
    }

    /// The set's paths as words ([`NodeSet::contains`]'s layout), closed
    /// under the summary's strong edges (§4.1) when `strong` is set: a
    /// path a chain of strong edges leads to from a path of the set joins
    /// it. These are the paths of the tree
    /// [`CTree::from_path_set`](smv_pattern::canonical::CTree::from_path_set)
    /// builds from the set, one node each.
    pub(super) fn closed_words(&self, s: &Summary, strong: bool) -> Vec<u64> {
        let mut words = self.0.words.clone();
        if !strong {
            return words;
        }
        let mut stack: Vec<NodeId> = Vec::new();
        for (w, &word) in self.0.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                stack.push(NodeId((w * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        while let Some(p) = stack.pop() {
            for &c in s.children(p) {
                if s.is_strong_edge(c) && !has_bit(&words, c) {
                    set_bit(&mut words, c);
                    stack.push(c);
                }
            }
        }
        words
    }

    /// The set closed under the summary's strong edges when `strong` is
    /// set: [`NodeSet::closed_words`]' paths, the closure's with `T`, so
    /// the formulas are `self`'s — the node set of the canonical tree
    /// whose unclosed tree's set is `self`.
    pub(super) fn closed(&self, s: &Summary, strong: bool) -> NodeSet {
        if !strong {
            return self.clone();
        }
        NodeSet::from_parts(self.closed_words(s, true), self.0.formulas.clone())
    }

    /// Is every path of `self` in `other`?
    fn subset_of(&self, other: &NodeSet) -> bool {
        let (a, b) = (&self.0.words, &other.0.words);
        a.len() <= b.len() && a.iter().zip(b).all(|(x, y)| x & !y == 0)
    }

    /// The set as a sorted `(path, formula)` list, `T` written out.
    #[cfg(test)]
    pub(super) fn to_vec(&self) -> Vec<(NodeId, Formula)> {
        let mut out = Vec::new();
        let mut formulas = self.0.formulas.iter().peekable();
        for (w, &word) in self.0.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p = NodeId((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                let f = match formulas.next_if(|(n, _)| *n == p) {
                    Some((_, f)) => f.clone(),
                    None => Formula::top(),
                };
                out.push((p, f));
            }
        }
        out
    }

    /// Adds `path` with `f`, conjoined with the formula it has if it is
    /// already in the set (copying the set first if it is shared). Returns
    /// false, the set unchanged, when the result is unsatisfiable.
    pub(super) fn conj(&mut self, path: NodeId, f: &Formula) -> bool {
        let at = self.0.formulas.binary_search_by_key(&path, |(n, _)| *n);
        let merged = match at {
            Ok(i) => self.0.formulas[i].1.and(f),
            Err(_) if f.is_top() && self.contains(path) => return true,
            Err(_) => f.clone(),
        };
        if !merged.is_sat() {
            return false;
        }
        let inner = Arc::make_mut(&mut self.0);
        set_bit(&mut inner.words, path);
        match at {
            Ok(i) => inner.formulas[i].1 = merged,
            Err(i) if !merged.is_top() => inner.formulas.insert(i, (path, merged)),
            Err(_) => {}
        }
        inner.hash = hash_parts(&inner.words, &inner.formulas);
        true
    }

    /// Is every path of `self` in `tree`, its formula conjoining
    /// satisfiably with the tree's there? Only a path with a formula on
    /// either side can fail the second test.
    pub(super) fn fits_in(&self, tree: &NodeSet) -> bool {
        self.subset_of(tree)
            && self.formulas().iter().all(|(p, f)| match tree.formula(*p) {
                Some(tf) => tf.and(f).is_sat(),
                None => f.is_sat(),
            })
            && tree
                .formulas()
                .iter()
                .all(|(p, tf)| !self.contains(*p) || self.formula(*p).is_some() || tf.is_sat())
    }
}

fn word_bit(p: NodeId) -> (usize, u64) {
    ((p.0 / 64) as usize, 1 << (p.0 % 64))
}

/// Is path `p`'s bit set in `words`?
pub(super) fn has_bit(words: &[u64], p: NodeId) -> bool {
    let (w, b) = word_bit(p);
    words.get(w).is_some_and(|x| x & b != 0)
}

fn set_bit(words: &mut Vec<u64>, p: NodeId) {
    let (w, b) = word_bit(p);
    if words.len() <= w {
        words.resize(w + 1, 0);
    }
    words[w] |= b;
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &NodeSet) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.hash() == other.hash()
                && self.0.words == other.0.words
                && self.0.formulas == other.0.formulas)
    }
}

impl Eq for NodeSet {}

impl Hash for NodeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash());
    }
}

/// A total order consistent with `==` (words, then formulas), so that
/// [`PairKey`] can line equal multisets of members up.
impl Ord for NodeSet {
    fn cmp(&self, other: &NodeSet) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        (&self.0.words, &self.0.formulas).cmp(&(&other.0.words, &other.0.formulas))
    }
}

impl PartialOrd for NodeSet {
    fn partial_cmp(&self, other: &NodeSet) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One instantiated conjunctive pattern of a pair's union. Two members
/// are equal when their node sets and column paths are.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(super) struct Member {
    pub(super) nodes: NodeSet,
    /// Per plan column: the path its values sit on (`None` = `⊥`).
    pub(super) col_path: Vec<Option<NodeId>>,
}

impl Member {
    pub(super) fn formula_map(&self) -> HashMap<NodeId, Formula> {
        self.nodes.formulas().iter().cloned().collect()
    }
}

/// A (plan, pattern) pair of Algorithm 1.
#[derive(Clone, Debug)]
pub(super) struct Pair {
    /// The plan, its inputs shared with the pairs it was built from.
    pub(super) plan: Arc<Plan>,
    pub(super) cols: Vec<ColInfo>,
    /// Same-node equivalence classes over columns (merged by `⋈_=`).
    pub(super) groups: Vec<u32>,
    pub(super) members: Vec<Member>,
    /// Every member's layout, laid out once its columns are final and
    /// shared with the pair's [`PairKey`].
    pub(super) layouts: Arc<Layouts>,
    pub(super) views: Vec<usize>,
    /// The estimate of the raw (pre-output-adaptation) plan, once the
    /// search has made it: a base pair's operator by operator, a join's
    /// from its two inputs' ([`CostModel::carry`](smv_algebra::CostModel::carry)).
    pub(super) est: Option<Carried>,
}

impl Pair {
    /// The estimate; the search makes it before it reads it.
    pub(super) fn carried(&self) -> &Carried {
        self.est.as_ref().expect("the pair is estimated")
    }

    /// Estimated work of the raw plan.
    pub(super) fn cost(&self) -> f64 {
        self.carried().est.cost
    }

    /// Estimated rows of the raw plan. With [`Pair::cost`], the start of
    /// the pair's branch-and-bound bound ([`Suppliers::bound`](super::bound::Suppliers::bound)).
    pub(super) fn rows(&self) -> f64 {
        self.carried().est.rows
    }

    /// The first column of group `g` that carries `attr`, or of any
    /// attribute when `attr` is `None`: the column a member binds on the
    /// group's node.
    pub(super) fn group_col(&self, g: u32, attr: Option<AttrKind>) -> Option<usize> {
        (0..self.cols.len())
            .find(|&c| self.groups[c] == g && attr.is_none_or(|a| self.cols[c].attr == a))
    }

    /// Lays the members out anew from the columns ([`Layouts::of`]): once
    /// a base pair's columns are final.
    pub(super) fn lay_out(&mut self) {
        self.layouts = Arc::new(Layouts::of(&self.cols, &self.groups, &self.members));
    }

    /// The pair's Prop. 3.5 identity from its kept layouts.
    pub(super) fn kept_key(&self) -> PairKey {
        let nodes = self.members.iter().map(|m| m.nodes.clone());
        PairKey::new(nodes, Arc::clone(&self.layouts))
    }

    /// The pair's Prop. 3.5 identity with every member laid out afresh
    /// from the columns: what a key from parts must equal.
    #[cfg(test)]
    pub(super) fn key(&self) -> PairKey {
        let nodes = self.members.iter().map(|m| m.nodes.clone());
        PairKey::new(
            nodes,
            Arc::new(Layouts::of(&self.cols, &self.groups, &self.members)),
        )
    }
}

/// Every member's *layout*, in member order: per column group, the
/// sorted [`layout_code`]s of the group's columns followed by
/// [`GROUP_END`], the groups in order of their codes (then of their group
/// number); with each layout's hash, taken once. A base pair is laid out
/// from its columns ([`Layouts::of`]); a join's members are combined from
/// their inputs' layouts ([`Layouts::push_joined`]), no column sorted
/// again.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct Layouts {
    codes: Vec<u64>,
    /// The pair's column group of each word of `codes`.
    groups: Vec<u32>,
    /// Each member's end in `codes`, with its layout's hash.
    ends: Vec<(usize, u64)>,
}

impl Layouts {
    /// The layouts of `members` over the columns `cols`, grouped by
    /// `groups`.
    pub(super) fn of(cols: &[ColInfo], groups: &[u32], members: &[Member]) -> Layouts {
        let mut by_group: Vec<usize> = (0..cols.len()).collect();
        by_group.sort_by_key(|&c| groups[c]);
        let mut out = Layouts::default();
        let mut codes: Vec<u64> = Vec::with_capacity(cols.len());
        let mut spans: Vec<(Range<usize>, u32)> = Vec::new();
        for m in members {
            codes.clear();
            spans.clear();
            for group in by_group.chunk_by(|&x, &y| groups[x] == groups[y]) {
                let start = codes.len();
                codes.extend(
                    group
                        .iter()
                        .map(|&c| layout_code(cols[c].attr, m.col_path[c])),
                );
                codes[start..].sort_unstable();
                spans.push((start..codes.len(), groups[group[0]]));
            }
            spans.sort_unstable_by(|(x, gx), (y, gy)| {
                codes[x.clone()].cmp(&codes[y.clone()]).then(gx.cmp(gy))
            });
            for (span, g) in &spans {
                out.push_group(&codes[span.clone()], *g);
            }
            out.end_member();
        }
        out
    }

    /// Room for `members` layouts of `words` words in all.
    pub(super) fn with_capacity(members: usize, words: usize) -> Layouts {
        Layouts {
            codes: Vec::with_capacity(words),
            groups: Vec::with_capacity(words),
            ends: Vec::with_capacity(members),
        }
    }

    /// The words of member `m`'s layout.
    pub(super) fn width(&self, m: usize) -> usize {
        self.span(m).len()
    }

    /// Appends the layout of the member joining `l`'s member `i` with
    /// `r`'s member `j`, `r`'s groups numbered up by `off`: the two lists
    /// of groups merged in order. `eq` names the group of each side a
    /// `⋈_=` makes one; their codes merge into one group, which keeps
    /// `l`'s number. `merged` is scratch space.
    pub(super) fn push_joined(
        &mut self,
        (l, i): (&Layouts, usize),
        (r, j): (&Layouts, usize),
        off: u32,
        eq: Option<(u32, u32)>,
        merged: &mut Vec<u64>,
    ) {
        // the `⋈_=`'s merged group, put in its place among the others
        let mut pending = None;
        if let Some((gl, gr)) = eq {
            let (mut x, mut y) = (l.group(i, gl), r.group(j, gr));
            merged.clear();
            while let (Some(&p), Some(&q)) = (x.first(), y.first()) {
                merged.push(p.min(q));
                if p <= q {
                    x = &x[1..];
                } else {
                    y = &y[1..];
                }
            }
            merged.extend_from_slice(x);
            merged.extend_from_slice(y);
            pending = Some((&merged[..], gl));
        }
        let (skip_l, skip_r) = (eq.map(|e| e.0), eq.map(|e| e.1));
        let mut ls = l
            .groups_of(i)
            .filter(|&(_, g)| Some(g) != skip_l)
            .peekable();
        let mut rs = r
            .groups_of(j)
            .filter(|&(_, g)| Some(g) != skip_r)
            .map(|(c, g)| (c, g + off))
            .peekable();
        loop {
            let next = match (ls.peek(), rs.peek()) {
                (Some(x), Some(y)) if x <= y => ls.next(),
                (Some(_), Some(_)) => rs.next(),
                (Some(_), None) => ls.next(),
                (None, _) => rs.next(),
            };
            if let Some(p) = pending.filter(|p| next.is_none_or(|n| *p < n)) {
                self.push_group(p.0, p.1);
                pending = None;
            }
            let Some((codes, g)) = next else {
                break;
            };
            self.push_group(codes, g);
        }
        self.end_member();
    }

    fn push_group(&mut self, codes: &[u64], g: u32) {
        self.codes.extend_from_slice(codes);
        self.codes.push(GROUP_END);
        self.groups.resize(self.codes.len(), g);
    }

    /// Closes the member whose groups were pushed last, hashing its
    /// layout.
    fn end_member(&mut self) {
        let start = self.ends.last().map_or(0, |e| e.0);
        let hash = FastBuild::default().hash_one(&self.codes[start..]);
        self.ends.push((self.codes.len(), hash));
    }

    fn span(&self, m: usize) -> Range<usize> {
        let start = if m == 0 { 0 } else { self.ends[m - 1].0 };
        start..self.ends[m].0
    }

    /// Member `m`'s layout: its groups' codes, each group ended by
    /// [`GROUP_END`].
    fn codes(&self, m: usize) -> &[u64] {
        &self.codes[self.span(m)]
    }

    fn hash(&self, m: usize) -> u64 {
        self.ends[m].1
    }

    /// Member `m`'s groups in order: each one's codes (without its end)
    /// and its group number.
    fn groups_of(&self, m: usize) -> impl Iterator<Item = (&[u64], u32)> {
        let span = self.span(m);
        let groups = &self.groups[span.clone()];
        let mut at = 0;
        self.codes[span]
            .split_inclusive(|&c| c == GROUP_END)
            .map(move |g| {
                let group = groups[at];
                at += g.len();
                (&g[..g.len() - 1], group)
            })
    }

    /// The codes of member `m`'s group `g`.
    fn group(&self, m: usize, g: u32) -> &[u64] {
        self.groups_of(m)
            .find(|&(_, x)| x == g)
            .map(|(codes, _)| codes)
            .expect("the member lays the group out")
    }
}

/// A pair's Prop. 3.5 identity: the multiset of its members, each taken
/// as its node set plus its layout ([`Layouts`]). The plan, the views and
/// the column order are not part of it: a join whose key the search has
/// already seen opens no new rewriting. Two keys are equal exactly when
/// those contents are; the hash only decides where to look, so a
/// collision costs a comparison and never drops a pair.
#[derive(Clone)]
pub(super) struct PairKey {
    pub(super) hash: u64,
    /// Each member's node set and its index in `layouts`, in a total order
    /// (hashes, then node set, then layout) so equal multisets line up.
    members: Vec<(NodeSet, usize)>,
    layouts: Arc<Layouts>,
}

impl PairKey {
    /// The key of the members with node sets `nodes` and layouts
    /// `layouts`, in the same order.
    pub(super) fn new(nodes: impl Iterator<Item = NodeSet>, layouts: Arc<Layouts>) -> PairKey {
        let mut members: Vec<(NodeSet, usize)> = nodes.zip(0..).collect();
        let l = &*layouts;
        // hashes first, contents on a tie: a total order consistent with `==`
        members.sort_unstable_by(|(x, i), (y, j)| {
            (x.hash(), l.hash(*i))
                .cmp(&(y.hash(), l.hash(*j)))
                .then_with(|| x.cmp(y))
                .then_with(|| l.codes(*i).cmp(l.codes(*j)))
        });
        let mut h = FastHasher::default();
        for (nodes, m) in &members {
            h.write_u64(nodes.hash());
            h.write_u64(l.hash(*m));
        }
        PairKey {
            hash: h.finish(),
            members,
            layouts,
        }
    }
}

impl PartialEq for PairKey {
    fn eq(&self, other: &PairKey) -> bool {
        let (x, y) = (&*self.layouts, &*other.layouts);
        self.hash == other.hash
            && self.members.len() == other.members.len()
            && self
                .members
                .iter()
                .zip(&other.members)
                .all(|((a, i), (b, j))| {
                    x.hash(*i) == y.hash(*j) && a == b && x.codes(*i) == y.codes(*j)
                })
    }
}

impl Eq for PairKey {}

impl Hash for PairKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Ends one group of a member's layout; no [`layout_code`] is this large.
const GROUP_END: u64 = u64::MAX;

/// One column of a member's layout as a word: its path (`0` = `⊥`) above
/// two bits of attribute.
fn layout_code(attr: AttrKind, path: Option<NodeId>) -> u64 {
    let attr = match attr {
        AttrKind::Id => 0,
        AttrKind::Label => 1,
        AttrKind::Value => 2,
        AttrKind::Content => 3,
    };
    (path.map_or(0, |p| u64::from(p.0) + 1) << 2) | attr
}

/// A [`NodeSet`]'s hash: its words, then its formulas.
fn hash_parts(words: &[u64], formulas: &[(NodeId, Formula)]) -> u64 {
    let mut h = FastHasher::default();
    h.write_usize(words.len());
    for w in words {
        h.write_u64(*w);
    }
    formulas.hash(&mut h);
    h.finish()
}

/// `a ∧ b`: the union of the paths, a path on one side only keeping its
/// formula, a shared path taking the conjunction. `None` when a formula of
/// `b`, or a conjunction, is unsatisfiable — exactly when
/// [`NodeSet::conj`]-ing every path of `b` into `a` fails. The paths are
/// OR-ed word by word; only the formula lists are walked, in one pass.
pub(super) fn merge_nodes(a: &NodeSet, b: &NodeSet) -> Option<NodeSet> {
    let mut words = a.0.words.clone();
    let bw = &b.0.words;
    if words.len() < bw.len() {
        words.resize(bw.len(), 0);
    }
    for (w, x) in words.iter_mut().zip(bw) {
        *w |= x;
    }
    let (fa, fb) = (a.formulas(), b.formulas());
    let mut formulas = Vec::with_capacity(fa.len() + fb.len());
    let (mut i, mut j) = (0, 0);
    while i < fa.len() || j < fb.len() {
        let order = match (fa.get(i), fb.get(j)) {
            (Some((na, _)), Some((nb, _))) => na.cmp(nb),
            (Some(_), None) => Ordering::Less,
            _ => Ordering::Greater,
        };
        let f = match order {
            // `a`'s formula, conjoined with `T` when `b` has the path
            Ordering::Less => {
                let (n, f) = &fa[i];
                i += 1;
                if b.contains(*n) && !f.is_sat() {
                    return None;
                }
                (*n, f.clone())
            }
            // `b`'s formula, alone or conjoined with `a`'s `T`
            Ordering::Greater => {
                let (n, f) = &fb[j];
                j += 1;
                if !f.is_sat() {
                    return None;
                }
                (*n, f.clone())
            }
            Ordering::Equal => {
                let ((n, x), (_, y)) = (&fa[i], &fb[j]);
                i += 1;
                j += 1;
                let f = x.and(y);
                if !f.is_sat() {
                    return None;
                }
                (*n, f)
            }
        };
        formulas.push(f);
    }
    Some(NodeSet::from_parts(words, formulas))
}

/// Drops repeated members (equal node sets and column paths), keeping
/// the first of each.
pub(super) fn dedup_members(members: &mut Vec<Member>) {
    if members.len() < 2 {
        return;
    }
    let keep: Vec<bool> = {
        let mut seen: HashSet<&Member, FastBuild> =
            HashSet::with_capacity_and_hasher(members.len(), FastBuild::default());
        members.iter().map(|m| seen.insert(m)).collect()
    };
    let mut keep = keep.into_iter();
    members.retain(|_| keep.next().unwrap_or(true));
}
