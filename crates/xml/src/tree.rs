//! Arena-based unranked ordered labeled trees (the paper's data model, §2.1).
//!
//! A [`Document`] stores nodes in **document (pre-)order**: [`NodeId`] is the
//! arena index and simultaneously the node's pre-order rank, so document
//! order is integer comparison. Each node additionally records the index of
//! its last descendant, making ancestor tests O(1): `a ≺≺ b` iff
//! `a < b && b <= last_descendant(a)`.
//!
//! Child lists live in one compressed (CSR) pair for the whole document
//! rather than one vector per node: `child_start[n]..child_start[n + 1]`
//! indexes `child_list`, built once by [`TreeBuilder::finish`]. Label
//! postings — every node of a label, in pre-order — are built on first
//! use ([`Document::nodes_labeled`]), so a pattern node scans the nodes
//! carrying its label instead of the whole arena.
//!
//! A live document ([`crate::LiveDoc`]) edits the arena in place: one
//! splice cuts deleted subtrees — each one pre-order interval — and
//! opens gaps for inserted ones, moving every surviving node once.
//! Depths survive any such edit, and in pre-order they alone fix the
//! rest: a node's parent is the nearest earlier node one level up.
//!
//! Attributes are modeled as children labeled `@name` carrying a value, per
//! the paper's remark that a node's label "corresponds to the element or
//! attribute name".

use crate::label::Label;
use crate::treelike::LabeledTree;
use crate::value::Value;
use std::ops::Range;
use std::sync::OnceLock;

/// Index of a node in a [`Document`] arena; equals the node's pre-order rank.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The root of every document.
    pub const ROOT: NodeId = NodeId(0);

    /// Arena index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct Node {
    label: Label,
    parent: Option<NodeId>,
    /// Pre-order rank of this node's last descendant (itself if a leaf).
    last_desc: u32,
    value: Option<Value>,
    /// 0-based position among the parent's children.
    child_rank: u32,
    depth: u32,
}

/// An XML document: an unranked, ordered, labeled tree with optional atomic
/// values on nodes.
#[derive(Clone, Debug)]
pub struct Document {
    nodes: Vec<Node>,
    /// `child_list[child_start[n]..child_start[n + 1]]` are the children
    /// of `n`, in document order; `nodes.len() + 1` entries.
    child_start: Vec<u32>,
    child_list: Vec<NodeId>,
    postings: OnceLock<Postings>,
}

/// Every node grouped by label, each group in pre-order: a counting sort
/// of the arena by [`Label::index`].
#[derive(Clone, Debug)]
struct Postings {
    /// `nodes[start[l]..start[l + 1]]` carry the label of index `l`.
    start: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl Postings {
    fn of(nodes: &[Node]) -> Postings {
        let labels = nodes.iter().map(|n| n.label.index() as usize);
        let mut start = vec![0u32; labels.clone().max().map_or(1, |m| m + 2)];
        for l in labels.clone() {
            start[l + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut out = vec![NodeId::ROOT; nodes.len()];
        for (i, l) in labels.enumerate() {
            out[next[l] as usize] = NodeId(i as u32);
            next[l] += 1;
        }
        Postings { start, nodes: out }
    }

    fn labeled(&self, l: Label) -> &[NodeId] {
        let l = l.index() as usize;
        match self.start.get(l..l + 2) {
            Some(&[lo, hi]) => &self.nodes[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

impl Document {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document has no nodes (only possible before building).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// The node's label.
    pub fn label(&self, n: NodeId) -> Label {
        self.nodes[n.idx()].label
    }

    /// The node's atomic value, if any.
    pub fn value(&self, n: NodeId) -> Option<&Value> {
        self.nodes[n.idx()].value.as_ref()
    }

    /// The node's parent (`None` for the root).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.idx()].parent
    }

    /// The node's children, in document order.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let (lo, hi) = (self.child_start[n.idx()], self.child_start[n.idx() + 1]);
        &self.child_list[lo as usize..hi as usize]
    }

    /// Every node labeled `l`, in document order. The postings behind it
    /// are one counting sort of the arena, built on the first call.
    pub fn nodes_labeled(&self, l: Label) -> &[NodeId] {
        self.postings
            .get_or_init(|| Postings::of(&self.nodes))
            .labeled(l)
    }

    /// 0-based rank of `n` among its siblings.
    pub fn child_rank(&self, n: NodeId) -> u32 {
        self.nodes[n.idx()].child_rank
    }

    /// Depth of `n` (root = 0).
    pub fn depth(&self, n: NodeId) -> u32 {
        self.nodes[n.idx()].depth
    }

    /// Pre-order rank of the last descendant of `n`.
    pub fn last_descendant(&self, n: NodeId) -> NodeId {
        NodeId(self.nodes[n.idx()].last_desc)
    }

    /// `a ≺ b`: is `a` the parent of `b`?
    pub fn is_parent(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes[b.idx()].parent == Some(a)
    }

    /// `a ≺≺ b`: is `a` a proper ancestor of `b`? O(1).
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        a.0 < b.0 && b.0 <= self.nodes[a.idx()].last_desc
    }

    /// Iterates over all nodes in document order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over the descendants of `n` (excluding `n`), document order.
    pub fn descendants(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (n.0 + 1..=self.nodes[n.idx()].last_desc).map(NodeId)
    }

    /// Iterates over `n` plus its descendants, in document order.
    pub fn subtree(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (n.0..=self.nodes[n.idx()].last_desc).map(NodeId)
    }

    /// The sequence of labels from the root down to `n` (the node's *rooted
    /// simple path*, §2.3).
    pub fn path_labels(&self, n: NodeId) -> Vec<Label> {
        let mut labels = Vec::with_capacity(self.depth(n) as usize + 1);
        let mut cur = Some(n);
        while let Some(c) = cur {
            labels.push(self.label(c));
            cur = self.parent(c);
        }
        labels.reverse();
        labels
    }

    /// Builds a document from a parenthesized notation like `a(b c(d))`,
    /// with optional `label="value"` values: `a(b="1" c(d="2"))`.
    ///
    /// This is the notation the paper uses for examples; handy in tests.
    pub fn from_parens(s: &str) -> Document {
        let mut b = TreeBuilder::new();
        let mut chars = s.chars().peekable();
        parse_parens(&mut chars, &mut b, true);
        b.finish()
    }
}

fn parse_parens(chars: &mut std::iter::Peekable<std::str::Chars>, b: &mut TreeBuilder, _top: bool) {
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        match chars.peek() {
            None | Some(')') => return,
            _ => {}
        }
        let mut name = String::new();
        while matches!(chars.peek(), Some(c) if c.is_alphanumeric() || *c == '_' || *c == '@' || *c == '-')
        {
            name.push(chars.next().unwrap());
        }
        assert!(!name.is_empty(), "expected node label in parens notation");
        let mut value = None;
        if matches!(chars.peek(), Some('=')) {
            chars.next();
            assert_eq!(chars.next(), Some('"'), "expected opening quote");
            let mut v = String::new();
            for c in chars.by_ref() {
                if c == '"' {
                    break;
                }
                v.push(c);
            }
            value = Some(Value::from_text(&v));
        }
        b.open(Label::intern(&name));
        if let Some(v) = value {
            b.set_value(v);
        }
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        if matches!(chars.peek(), Some('(')) {
            chars.next();
            parse_parens(chars, b, false);
            assert_eq!(chars.next(), Some(')'), "unbalanced parens");
        }
        b.close();
    }
}

/// Incremental builder producing nodes in document order.
///
/// Call [`TreeBuilder::open`] / [`TreeBuilder::close`] in well-nested pairs;
/// the first `open` creates the root.
#[derive(Default)]
pub struct TreeBuilder {
    nodes: Vec<Node>,
    stack: Vec<Open>,
    /// Text appended to the open elements, innermost last; each element's
    /// share starts at its [`Open::text_start`].
    text: String,
}

/// An element between its `open` and `close`.
struct Open {
    id: NodeId,
    /// Children opened so far: the next child's rank.
    children: u32,
    text_start: usize,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> TreeBuilder {
        TreeBuilder::default()
    }

    /// Opens a new element as the next child of the currently open element
    /// (or as the root). Returns its id.
    pub fn open(&mut self, label: Label) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let (parent, child_rank, depth) = match self.stack.last_mut() {
            Some(p) => {
                let rank = p.children;
                p.children += 1;
                (Some(p.id), rank, self.stack.len() as u32)
            }
            None => {
                assert!(
                    self.nodes.is_empty(),
                    "a document has exactly one root element"
                );
                (None, 0, 0)
            }
        };
        self.nodes.push(Node {
            label,
            parent,
            last_desc: id.0,
            value: None,
            child_rank,
            depth,
        });
        self.stack.push(Open {
            id,
            children: 0,
            text_start: self.text.len(),
        });
        id
    }

    /// Sets the atomic value of the currently open element.
    pub fn set_value(&mut self, v: Value) {
        let &Open { id, .. } = self.stack.last().expect("no open element");
        self.nodes[id.idx()].value = Some(v);
    }

    /// Appends text to the currently open element (concatenating mixed
    /// content). When the element closes, all of its text is parsed once
    /// into its value, replacing one [`TreeBuilder::set_value`] gave it.
    pub fn append_text(&mut self, text: &str) {
        assert!(!self.stack.is_empty(), "no open element");
        self.text.push_str(text);
    }

    /// Convenience: `open`, set value, `close`.
    pub fn leaf(&mut self, label: Label, value: Option<Value>) -> NodeId {
        let id = self.open(label);
        if let Some(v) = value {
            self.set_value(v);
        }
        self.close();
        id
    }

    /// Closes the currently open element, fixing its descendant interval
    /// and parsing its appended text, if any, into its value.
    pub fn close(&mut self) {
        let top = self.stack.pop().expect("close without open");
        let last = (self.nodes.len() - 1) as u32;
        let node = &mut self.nodes[top.id.idx()];
        node.last_desc = last;
        if self.text.len() > top.text_start {
            node.value = Some(Value::from_text(&self.text[top.text_start..]));
            self.text.truncate(top.text_start);
        }
    }

    /// Current nesting depth of open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Finishes the build; panics if elements remain open or nothing was
    /// built. Lays the child lists out from each node's parent and rank.
    pub fn finish(self) -> Document {
        assert!(self.stack.is_empty(), "unclosed elements remain");
        assert!(!self.nodes.is_empty(), "empty document");
        Document::with_nodes(self.nodes)
    }
}

/// Sets every node's parent, child rank and last descendant from the
/// depths alone: in pre-order, a node's parent is the nearest earlier
/// node one level up.
fn relink(nodes: &mut [Node]) {
    // the current node's open ancestors, root first, each with the
    // children it has had so far
    let mut open: Vec<(u32, u32)> = Vec::new();
    for i in 0..nodes.len() {
        let depth = nodes[i].depth as usize;
        while open.len() > depth {
            let (a, _) = open.pop().expect("deeper than the node");
            nodes[a as usize].last_desc = i as u32 - 1;
        }
        assert_eq!(
            open.len(),
            depth,
            "a pre-order steps down one level at a time"
        );
        let (parent, rank) = match open.last_mut() {
            Some((p, kids)) => {
                *kids += 1;
                (Some(NodeId(*p)), *kids - 1)
            }
            None => (None, 0),
        };
        nodes[i].parent = parent;
        nodes[i].child_rank = rank;
        open.push((i as u32, 0));
    }
    for (a, _) in open {
        nodes[a as usize].last_desc = nodes.len() as u32 - 1;
    }
}

/// An in-place edit of a vector in arena order — a [`Document`]'s nodes,
/// or anything indexed by them — in its pre-edit positions. `cuts` are
/// the intervals to remove, ascending and disjoint. Each gap `(at, n)`
/// opens `n` slots before the element at `at` (at the end when `at` is
/// the length); gaps ascend in `at`, those sharing an `at` in the order
/// their slots follow each other, and none lies strictly inside a cut.
pub(crate) struct Splice {
    cuts: Vec<Range<usize>>,
    gaps: Vec<(usize, usize)>,
    /// Per cut, the elements it and the cuts before it remove.
    removed: Vec<usize>,
    /// Per gap, the slots it and the gaps before it open.
    opened: Vec<usize>,
}

/// Running sums of `lens`.
fn running(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    lens.scan(0, |sum, n| {
        *sum += n;
        Some(*sum)
    })
    .collect()
}

impl Splice {
    pub(crate) fn new(cuts: Vec<Range<usize>>, gaps: Vec<(usize, usize)>) -> Splice {
        Splice {
            removed: running(cuts.iter().map(|c| c.len())),
            opened: running(gaps.iter().map(|g| g.1)),
            cuts,
            gaps,
        }
    }

    /// True when the edit changes nothing.
    pub(crate) fn is_empty(&self) -> bool {
        self.cuts.is_empty() && self.gaps.is_empty()
    }

    /// The first pre-edit position the edit touches: everything before
    /// it keeps its place.
    pub(crate) fn first_touched(&self) -> usize {
        let cut = self.cuts.first().map_or(usize::MAX, |c| c.start);
        cut.min(self.gaps.first().map_or(usize::MAX, |g| g.0))
    }

    /// How many elements the cuts remove before pre-edit position `at`.
    fn removed_before(&self, at: usize) -> usize {
        match self.cuts.partition_point(|c| c.end <= at) {
            0 => 0,
            k => self.removed[k - 1],
        }
    }

    /// The post-edit position of the surviving element at `at`.
    pub(crate) fn moved(&self, at: usize) -> usize {
        let opened = match self.gaps.partition_point(|g| g.0 <= at) {
            0 => 0,
            k => self.opened[k - 1],
        };
        at - self.removed_before(at) + opened
    }

    /// The post-edit position of gap `k`'s first slot.
    pub(crate) fn slot(&self, k: usize) -> usize {
        let at = self.gaps[k].0;
        at - self.removed_before(at) + self.opened[k] - self.gaps[k].1
    }

    /// Applies the edit to `v`, filling the gaps in order from `fresh`,
    /// which holds exactly their slots. One forward pass closes the cuts
    /// and one backward pass opens the gaps, each moving a survivor at
    /// most once and cloning nothing; `v` reallocates only to grow past
    /// its capacity. The cut elements drop, and `pad` makes the
    /// placeholders the backward pass moves through the opened slots.
    pub(crate) fn apply<T>(&self, v: &mut Vec<T>, mut fresh: Vec<T>, pad: impl FnMut() -> T) {
        let mut w = self.cuts.first().map_or(v.len(), |c| c.start);
        for (k, cut) in self.cuts.iter().enumerate() {
            let next = self.cuts.get(k + 1).map_or(v.len(), |c| c.start);
            for r in cut.end..next {
                v.swap(w, r);
                w += 1;
            }
        }
        v.truncate(w);
        let mut r = v.len();
        v.resize_with(r + fresh.len(), pad);
        let mut w = v.len();
        for &(at, n) in self.gaps.iter().rev() {
            let at = at - self.removed_before(at);
            while r > at {
                r -= 1;
                w -= 1;
                v.swap(r, w);
            }
            for _ in 0..n {
                w -= 1;
                v[w] = fresh.pop().expect("a fresh element per slot");
            }
        }
        debug_assert!(fresh.is_empty() && r == w);
    }
}

impl Document {
    /// Wraps linked nodes, laying their child lists out.
    fn with_nodes(nodes: Vec<Node>) -> Document {
        let mut doc = Document {
            nodes,
            child_start: Vec::new(),
            child_list: Vec::new(),
            postings: OnceLock::new(),
        };
        doc.lay_out_children();
        doc
    }

    /// Lays the child lists out from each node's parent and rank,
    /// reusing the buffers the document already holds.
    fn lay_out_children(&mut self) {
        let (nodes, starts, list) = (&self.nodes, &mut self.child_start, &mut self.child_list);
        starts.clear();
        starts.resize(nodes.len() + 1, 0);
        for p in nodes.iter().filter_map(|n| n.parent) {
            starts[p.idx() + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        list.clear();
        list.resize(nodes.len() - 1, NodeId::ROOT);
        for (i, n) in nodes.iter().enumerate() {
            if let Some(p) = n.parent {
                list[(starts[p.idx()] + n.child_rank) as usize] = NodeId(i as u32);
            }
        }
    }

    /// Moves the subtree at `r` into a document of its own, numbered from
    /// 0 at `r`. Its values move, not clone: the arena keeps the
    /// subtree's nodes, valueless, until a [`Splice`] cuts them.
    pub(crate) fn detach(&mut self, r: NodeId) -> Document {
        let top = self.nodes[r.idx()].depth;
        let span = r.idx()..self.nodes[r.idx()].last_desc as usize + 1;
        let mut nodes: Vec<Node> = self.nodes[span]
            .iter_mut()
            .map(|n| Node {
                value: n.value.take(),
                depth: n.depth - top,
                ..*n
            })
            .collect();
        relink(&mut nodes);
        Document::with_nodes(nodes)
    }

    /// Edits the arena in place: the nodes `splice` cuts drop (detached
    /// beforehand), and its gaps fill with `grafts` in order, each a
    /// fragment with the depth of the node it goes under. Postings start
    /// over, as a freshly built document's do.
    pub(crate) fn splice(&mut self, splice: &Splice, grafts: &[(u32, &Document)]) {
        if splice.is_empty() {
            return;
        }
        let fresh = grafts
            .iter()
            .flat_map(|&(under, frag)| {
                frag.nodes.iter().map(move |n| Node {
                    value: n.value.clone(),
                    depth: under + 1 + n.depth,
                    ..*n
                })
            })
            .collect();
        let pad = Node {
            value: None,
            ..self.nodes[0]
        };
        splice.apply(&mut self.nodes, fresh, || pad.clone());
        relink(&mut self.nodes);
        self.lay_out_children();
        self.postings = OnceLock::new();
    }
}

impl LabeledTree for Document {
    fn tree_root(&self) -> NodeId {
        self.root()
    }
    fn tree_label(&self, n: NodeId) -> Label {
        self.label(n)
    }
    fn tree_children(&self, n: NodeId) -> &[NodeId] {
        self.children(n)
    }
    fn tree_nodes_labeled(&self, l: Label) -> Option<&[NodeId]> {
        Some(self.nodes_labeled(l))
    }
    fn tree_parent(&self, n: NodeId) -> Option<NodeId> {
        self.parent(n)
    }
    fn tree_value(&self, n: NodeId) -> Option<&Value> {
        self.value(n)
    }
    fn tree_is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.is_ancestor(a, b)
    }
    fn tree_len(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
impl Document {
    /// Where the node and child-list buffers live and what they can
    /// hold: what an in-place edit that does not grow leaves alone.
    pub(crate) fn buffers(&self) -> [(usize, usize); 2] {
        [
            (self.nodes.as_ptr() as usize, self.nodes.capacity()),
            (
                self.child_list.as_ptr() as usize,
                self.child_list.capacity(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Document {
        // Figure 2's document: a(b="1" c(b="2" d(e="3")) d(c(b="4") b(d="5") b e="6") ... )
        Document::from_parens(r#"a(b="1" c(b="2" d(e="3")) d(c(b="4")) c(d="6"))"#)
    }

    #[test]
    fn builds_in_document_order() {
        let d = sample();
        assert_eq!(d.label(NodeId(0)).as_str(), "a");
        assert_eq!(d.label(NodeId(1)).as_str(), "b");
        assert_eq!(d.value(NodeId(1)), Some(&Value::Int(1)));
        // children of root
        let kids: Vec<&str> = d
            .children(d.root())
            .iter()
            .map(|&c| d.label(c).as_str())
            .collect();
        assert_eq!(kids, vec!["b", "c", "d", "c"]);
    }

    #[test]
    fn ancestor_and_parent_tests() {
        let d = sample();
        let root = d.root();
        for n in d.iter().skip(1) {
            assert!(d.is_ancestor(root, n));
            assert!(!d.is_ancestor(n, root));
        }
        assert!(!d.is_ancestor(root, root));
        // c (node 2) is parent of b (node 3)
        assert!(d.is_parent(NodeId(2), NodeId(3)));
        assert!(d.is_ancestor(NodeId(2), NodeId(5)));
        assert!(!d.is_parent(NodeId(2), NodeId(5)));
    }

    #[test]
    fn descendant_intervals() {
        let d = sample();
        let c = NodeId(2); // first c child
        let desc: Vec<u32> = d.descendants(c).map(|n| n.0).collect();
        assert_eq!(desc, vec![3, 4, 5]);
        assert_eq!(d.last_descendant(c), NodeId(5));
    }

    #[test]
    fn path_labels_walk_to_root() {
        let d = sample();
        let e = d
            .iter()
            .find(|&n| d.label(n).as_str() == "e")
            .expect("e node");
        let path: Vec<&str> = d.path_labels(e).iter().map(|l| l.as_str()).collect();
        assert_eq!(path, vec!["a", "c", "d", "e"]);
    }

    #[test]
    fn depth_and_rank() {
        let d = sample();
        assert_eq!(d.depth(d.root()), 0);
        assert_eq!(d.depth(NodeId(1)), 1);
        assert_eq!(d.child_rank(NodeId(1)), 0);
        assert_eq!(d.child_rank(NodeId(2)), 1);
    }

    #[test]
    fn append_text_concatenates() {
        let mut b = TreeBuilder::new();
        b.open(Label::intern("t"));
        b.append_text("hello ");
        b.append_text("world");
        b.close();
        let d = b.finish();
        assert_eq!(d.value(d.root()), Some(&Value::str("hello world")));
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn unclosed_build_panics() {
        let mut b = TreeBuilder::new();
        b.open(Label::intern("x"));
        let _ = b.finish();
    }
}
