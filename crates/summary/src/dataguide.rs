//! Strong Dataguide construction and queries.

use smv_xml::wire::{ByteReader, ByteWriter};
use smv_xml::{Document, Label, LabeledTree, NodeId, Value};
use std::collections::{HashMap, HashSet};

/// Distinct atomic values seen on a path are tracked exactly up to this
/// cap; beyond it the sketch saturates and reports the value count as an
/// upper bound (good enough for selectivity estimation).
const DISTINCT_CAP: usize = 1024;

/// Buckets of a saturated path's equi-width histogram.
const HIST_BUCKETS: usize = 64;

/// An end-biased equi-width histogram over a path's integer values,
/// built from the accepted distinct-value sample the moment its sketch
/// saturates and updated with every value seen afterwards.
///
/// The bucket range `[lo, hi]` is pinned to the sample's true extremes
/// (end-biased: the extreme values anchor the ends exactly); later
/// values falling outside land in dedicated overflow counters rather
/// than smearing the interior buckets. String values — unorderable
/// against the integer axis — are counted separately.
#[derive(Clone, Debug)]
pub struct ValueHistogram {
    lo: i64,
    /// Inclusive width of one bucket (≥ 1).
    width: i64,
    /// Bucket masses. Fractional because merging two histograms
    /// apportions source buckets across target boundaries exactly
    /// (mass-preserving) instead of rounding to integer counts.
    buckets: Vec<f64>,
    /// Values observed strictly below `lo` after the build, with the
    /// smallest seen (their mass is apportioned over `[below_min, lo)`).
    below: f64,
    below_min: i64,
    /// Values observed strictly above the bucketed range after the
    /// build, with the largest seen.
    above: f64,
    above_max: i64,
    strings: u64,
    total: u64,
}

impl ValueHistogram {
    /// Builds a histogram from the saturated sketch's sample; `None` when
    /// the sample holds no integers (an all-string path has no axis).
    fn build<'v>(sample: impl Iterator<Item = &'v Value>) -> Option<ValueHistogram> {
        let mut ints: Vec<i64> = Vec::new();
        let mut strings = 0u64;
        for v in sample {
            match v {
                Value::Int(i) => ints.push(*i),
                Value::Str(_) => strings += 1,
            }
        }
        let (&lo, &hi) = (ints.iter().min()?, ints.iter().max()?);
        // inclusive span, computed in u128 to survive extreme samples
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let width = span.div_ceil(HIST_BUCKETS as u128).max(1) as i64;
        let mut h = ValueHistogram {
            lo,
            width,
            buckets: vec![0.0; HIST_BUCKETS],
            below: 0.0,
            below_min: lo,
            above: 0.0,
            above_max: hi,
            strings,
            total: strings,
        };
        for i in ints {
            h.add_int(i);
            h.total += 1;
        }
        Some(h)
    }

    fn bucket_of(&self, v: i64) -> Option<usize> {
        if v < self.lo {
            return None;
        }
        let idx = ((v as i128 - self.lo as i128) / self.width as i128) as u128;
        (idx < self.buckets.len() as u128).then_some(idx as usize)
    }

    fn add_int(&mut self, v: i64) {
        match self.bucket_of(v) {
            Some(b) => self.buckets[b] += 1.0,
            None if v < self.lo => {
                self.below += 1.0;
                self.below_min = self.below_min.min(v);
            }
            None => {
                self.above += 1.0;
                self.above_max = self.above_max.max(v);
            }
        }
    }

    /// Folds one post-saturation value in.
    fn add(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.add_int(*i),
            Value::Str(_) => self.strings += 1,
        }
        self.total += 1;
    }

    /// Total values folded in (integers + strings).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// String values folded in (not on the integer axis).
    pub fn string_count(&self) -> u64 {
        self.strings
    }

    /// Estimated number of values inside the inclusive integer range
    /// `[a, b]`: full buckets count whole, partially overlapped buckets
    /// contribute their overlap fraction (uniform-within-bucket), and the
    /// overflow masses are apportioned uniformly over the observed
    /// overflow spans (`[below_min, lo)` and `(top, above_max]`).
    pub fn mass_in(&self, a: i64, b: i64) -> f64 {
        if a > b {
            return 0.0;
        }
        // fraction of `count` mass spread uniformly over [slo, shi] that
        // lands inside [a, b]
        let spread = |count: f64, slo: i128, shi: i128| -> f64 {
            if count == 0.0 || slo > shi {
                return 0.0;
            }
            let olo = (a as i128).max(slo);
            let ohi = (b as i128).min(shi);
            if olo > ohi {
                return 0.0;
            }
            count * ((ohi - olo + 1) as f64 / (shi - slo + 1) as f64)
        };
        let mut mass = 0.0;
        for (k, &count) in self.buckets.iter().enumerate() {
            let blo = self.lo as i128 + k as i128 * self.width as i128;
            mass += spread(count, blo, blo + self.width as i128 - 1);
        }
        mass += spread(self.below, self.below_min as i128, self.lo as i128 - 1);
        let top = self.lo as i128 + self.buckets.len() as i128 * self.width as i128 - 1;
        mass += spread(self.above, top + 1, self.above_max as i128);
        mass
    }
}

/// A capped distinct-value sketch for one summary path. While unsaturated
/// it is the exact distinct-value set; on saturation it converts its
/// sample into a [`ValueHistogram`] and keeps folding subsequent values
/// into the buckets.
#[derive(Clone, Debug, Default)]
struct ValueSketch {
    seen: HashSet<Value>,
    saturated: bool,
    hist: Option<ValueHistogram>,
}

impl ValueSketch {
    fn insert(&mut self, v: &Value) {
        if self.saturated {
            if let Some(h) = &mut self.hist {
                h.add(v);
            }
            return;
        }
        if self.seen.contains(v) {
            return; // duplicates never saturate an exactly-tracked set
        }
        if self.seen.len() >= DISTINCT_CAP {
            self.saturated = true;
            self.hist = ValueHistogram::build(self.seen.iter());
            self.seen = HashSet::new(); // release the memory
            if let Some(h) = &mut self.hist {
                h.add(v);
            }
            return;
        }
        self.seen.insert(v.clone());
    }
}

#[derive(Clone, Debug)]
struct SNode {
    label: Label,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Pre-order rank (node *ids* are creation-order, which interleaves
    /// sibling subtrees when paths are discovered out of order, so the
    /// ancestor test needs explicit ranks).
    pre: u32,
    /// Pre-order rank of the last descendant.
    last_desc: u32,
    depth: u32,
    /// Number of document nodes on this path.
    count: u64,
    /// Number of document nodes on the *parent* path having at least one
    /// child on this path.
    parents_with: u64,
    /// Number of document nodes on this path carrying an atomic value.
    values: u64,
    /// Distinct atomic values seen on this path (capped sketch).
    distinct: ValueSketch,
    /// Edge from the parent is strong (§4.1).
    strong: bool,
    /// Edge from the parent is one-to-one (§4.5).
    one_to_one: bool,
}

impl SNode {
    /// A path no document node lies on yet.
    fn new(label: Label, parent: Option<NodeId>, depth: u32) -> SNode {
        SNode {
            label,
            parent,
            children: Vec::new(),
            pre: 0,
            last_desc: 0,
            depth,
            count: 0,
            parents_with: 0,
            values: 0,
            distinct: ValueSketch::default(),
            strong: false,
            one_to_one: false,
        }
    }
}

/// Summary nodes with at most this many children find one by label with a
/// scan; wider ones through a map, so a path with many distinct child
/// labels keeps a summary pass linear.
const SCAN_FANOUT: usize = 8;

/// The `(path, label) → child path` lookup of one summary pass.
struct EdgeIndex {
    /// The children of every path wider than [`SCAN_FANOUT`]. Labels are
    /// input, so this map keeps std's keyed hasher.
    wide: HashMap<(u32, Label), NodeId>,
}

impl EdgeIndex {
    fn over(nodes: &[SNode]) -> EdgeIndex {
        let mut index = EdgeIndex {
            wide: HashMap::new(),
        };
        for (p, n) in nodes.iter().enumerate() {
            if n.children.len() > SCAN_FANOUT {
                for &c in &n.children {
                    index.wide.insert((p as u32, nodes[c.idx()].label), c);
                }
            }
        }
        index
    }

    /// The child of `sp` labeled `label`, if the summary has it.
    fn child(&self, nodes: &[SNode], sp: NodeId, label: Label) -> Option<NodeId> {
        let kids = &nodes[sp.idx()].children;
        if kids.len() > SCAN_FANOUT {
            self.wide.get(&(sp.0, label)).copied()
        } else {
            kids.iter().copied().find(|c| nodes[c.idx()].label == label)
        }
    }

    /// Takes in the child just pushed onto `sp`'s children.
    fn added(&mut self, nodes: &[SNode], sp: NodeId) {
        let kids = &nodes[sp.idx()].children;
        // crossing the threshold moves every child into the map
        let from = match kids.len() {
            n if n <= SCAN_FANOUT => n,
            n if n == SCAN_FANOUT + 1 => 0,
            n => n - 1,
        };
        for &c in &kids[from..] {
            self.wide.insert((sp.0, nodes[c.idx()].label), c);
        }
    }
}

/// What the folds of one summary pass share ([`Summary::fold`]).
struct Fold {
    edges: EdgeIndex,
    /// Per path, the last document parent counted into `parents_with`,
    /// as `stamp_base` plus its node id. Nodes on one path share a depth,
    /// so between two children of one parent a pre-order walk visits no
    /// other node on their path: the stamp counts each parent once.
    last_parent: Vec<u32>,
    /// Added to every stamp, so that the documents one pass folds, each
    /// numbered from 0, never share a stamp.
    stamp_base: u32,
    /// Per path, whether a subtracted node carried a value: the path's
    /// sketch, which cannot subtract, is rebuilt.
    dirty: Vec<bool>,
}

impl Fold {
    fn over(nodes: &[SNode]) -> Fold {
        Fold {
            edges: EdgeIndex::over(nodes),
            last_parent: vec![u32::MAX; nodes.len()],
            stamp_base: 0,
            dirty: vec![false; nodes.len()],
        }
    }
}

/// Moves a summary statistic by `sign` (±1).
fn bump(stat: &mut u64, sign: i64) {
    *stat = stat
        .checked_add_signed(sign)
        .expect("a summary statistic below zero");
}

/// The path of the current node's parent `dp`, from the stack of the
/// current node's ancestors and their paths a pre-order walk keeps.
fn parent_path(stack: &mut Vec<(NodeId, NodeId)>, dp: NodeId) -> NodeId {
    while stack.last().expect("the parent was walked").0 != dp {
        stack.pop();
    }
    stack.last().expect("the parent was walked").1
}

/// The strong Dataguide of one or more documents, with enhanced-summary
/// (integrity-constraint) annotations.
///
/// Summary nodes are [`NodeId`]s into the summary's own arena, in
/// pre-order; the paper's "paths" *are* these nodes (§2.3 identifies a path
/// with its summary node).
#[derive(Debug)]
pub struct Summary {
    nodes: Vec<SNode>,
    /// Documents folded into this summary (for conformance bookkeeping).
    docs: usize,
    /// Process-unique instance identity (see [`Summary::geometry_token`]).
    id: u64,
    /// Bumped on every structural mutation (extension / merge), so a
    /// geometry snapshot taken before a mutation can be detected as
    /// stale.
    geometry_gen: u64,
    /// Bumped whenever a strong or one-to-one flag actually flips (see
    /// [`Summary::constraints_token`]). In memory only: the serialized
    /// form does not carry it.
    edge_gen: u64,
}

/// Each node's pre-order rank and the rank of its last descendant,
/// children visited in list order, from the root `nodes[0]`.
fn preorder(nodes: &[SNode]) -> Vec<(u32, u32)> {
    let mut ranks = vec![(0, 0); nodes.len()];
    let mut next = 1;
    // (node, children visited so far)
    let mut stack = vec![(0usize, 0usize)];
    while let Some(top) = stack.last_mut() {
        let (n, k) = *top;
        match nodes[n].children.get(k) {
            Some(c) => {
                top.1 += 1;
                ranks[c.idx()].0 = next;
                next += 1;
                stack.push((c.idx(), 0));
            }
            None => {
                ranks[n].1 = next - 1;
                stack.pop();
            }
        }
    }
    ranks
}

/// Process-unique summary instance ids; clones get fresh ones so two
/// lineages that diverge after a clone can never share a token.
fn next_summary_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Clone for Summary {
    fn clone(&self) -> Summary {
        Summary {
            nodes: self.nodes.clone(),
            docs: self.docs,
            id: next_summary_id(),
            geometry_gen: self.geometry_gen,
            edge_gen: self.edge_gen,
        }
    }
}

impl Summary {
    /// Builds the summary of a document in one linear pass.
    pub fn of(doc: &Document) -> Summary {
        let mut s = Summary::empty();
        s.extend_with(doc);
        s
    }

    /// A summary of no document.
    fn empty() -> Summary {
        Summary {
            nodes: Vec::new(),
            docs: 0,
            id: next_summary_id(),
            geometry_gen: 0,
            edge_gen: 0,
        }
    }

    /// An opaque token identifying this summary's current geometry: its
    /// set of paths and their pre-order ranks. Equal tokens guarantee the
    /// two snapshots were taken from the *same summary instance in the
    /// same state* — an update that adds paths renumbers the ranks and
    /// bumps the token, and clones get a fresh identity. The query
    /// service keys its plan cache with it, so a ranking never outlives
    /// the paths it was computed over.
    pub fn geometry_token(&self) -> (u64, u64) {
        (self.id, self.geometry_gen)
    }

    /// [`Summary::geometry_token`] plus the edge-class generation: equal
    /// tokens guarantee the same paths *and* the same strong / one-to-one
    /// flags — everything a canonical model or an associated-path set
    /// reads, and nothing a count-only update changes. The generation
    /// moves only when a flag actually flips, so anything derived from
    /// (pattern, summary constraints) stays valid across the updates that
    /// leave both alone. [`Summary::snapshot`] keeps it; a deserialized
    /// summary starts over (with a fresh instance id, like
    /// [`Summary::geometry_token`]).
    pub fn constraints_token(&self) -> (u64, u64, u64) {
        (self.id, self.geometry_gen, self.edge_gen)
    }

    /// Folds another document into the summary (linear time, as \[15\]
    /// promises for Dataguides over tree data). The root labels must agree.
    ///
    /// ```
    /// use smv_summary::Summary;
    /// use smv_xml::Document;
    ///
    /// let mut s = Summary::of(&Document::from_parens(r#"r(a(b="1"))"#));
    /// s.extend_with(&Document::from_parens(r#"r(a(b="2" c))"#));
    /// let b = s.node_by_path("/r/a/b").unwrap();
    /// assert_eq!(s.count(b), 2, "counts accumulate across documents");
    /// assert!(s.node_by_path("/r/a/c").is_some(), "new paths are added");
    /// ```
    pub fn extend_with(&mut self, doc: &Document) {
        if self.nodes.is_empty() {
            self.nodes.push(SNode::new(doc.label(doc.root()), None, 0));
        }
        assert_eq!(
            self.nodes[0].label,
            doc.label(doc.root()),
            "summary and document root labels must agree"
        );
        self.docs += 1;
        self.fold(&mut Fold::over(&self.nodes), doc, doc.root(), None, 1);
        self.refresh_edge_classes();
        self.recompute_order();
        self.geometry_gen += 1;
    }

    /// The one summary pass: adds (`sign` 1) or subtracts (`sign` −1) the
    /// subtree of `doc` at `root`, whose parent lies on path `under`
    /// (`None`: `root` is the document root, on the summary root). Each
    /// node maps to a path top-down, its parent's path then its label; an
    /// added node whose path is missing creates it. Counts, value counts
    /// and the `parents_with` of edges *inside* the subtree move by
    /// `sign`; the edge into `root` is the caller's. An added value goes
    /// into its path's sketch, in pre-order; a subtracted one marks the
    /// path dirty. Returns whether the pass created paths.
    fn fold(
        &mut self,
        f: &mut Fold,
        doc: &Document,
        root: NodeId,
        under: Option<NodeId>,
        sign: i64,
    ) -> bool {
        let paths_before = self.nodes.len();
        let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
        for dn in doc.subtree(root) {
            let sn = match (dn == root, under) {
                (true, None) => NodeId(0),
                (true, Some(sp)) => self.child_or_new(f, sp, doc.label(dn)),
                (false, _) => {
                    let dp = doc.parent(dn).expect("below the subtree root");
                    let sn = self.child_or_new(f, parent_path(&mut stack, dp), doc.label(dn));
                    let stamp = f.stamp_base + dp.0;
                    if std::mem::replace(&mut f.last_parent[sn.idx()], stamp) != stamp {
                        bump(&mut self.nodes[sn.idx()].parents_with, sign);
                    }
                    sn
                }
            };
            stack.push((dn, sn));
            let node = &mut self.nodes[sn.idx()];
            bump(&mut node.count, sign);
            if let Some(v) = doc.value(dn) {
                bump(&mut node.values, sign);
                if sign > 0 {
                    node.distinct.insert(v);
                } else {
                    f.dirty[sn.idx()] = true;
                }
            }
        }
        self.nodes.len() > paths_before
    }

    /// The child of path `sp` labeled `label`, created if missing.
    fn child_or_new(&mut self, f: &mut Fold, sp: NodeId, label: Label) -> NodeId {
        if let Some(c) = f.edges.child(&self.nodes, sp, label) {
            return c;
        }
        let c = NodeId(self.nodes.len() as u32);
        let depth = self.nodes[sp.idx()].depth + 1;
        self.nodes.push(SNode::new(label, Some(sp), depth));
        self.nodes[sp.idx()].children.push(c);
        f.edges.added(&self.nodes, sp);
        f.last_parent.push(u32::MAX);
        f.dirty.push(false);
        c
    }

    /// Recomputes strong/one-to-one flags from counts.
    fn refresh_edge_classes(&mut self) {
        for i in 1..self.nodes.len() {
            let parent = self.nodes[i].parent.expect("non-root").idx();
            let parent_count = self.nodes[parent].count;
            let n = &self.nodes[i];
            let strong = n.parents_with == parent_count && parent_count > 0;
            let one_to_one = strong && n.count == parent_count;
            self.set_edge_classes(NodeId(i as u32), strong, one_to_one);
        }
    }

    /// Rebuilds the pre-order ranks and descendant intervals after
    /// extension. Node ids remain stable (creation order); ancestor tests
    /// use the ranks.
    fn recompute_order(&mut self) {
        let ranks = preorder(&self.nodes);
        for (n, (pre, last_desc)) in self.nodes.iter_mut().zip(ranks) {
            n.pre = pre;
            n.last_desc = last_desc;
        }
    }

    /// Number of summary nodes (`|S|`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no document has been summarized yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root path node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Label of a summary node.
    pub fn label(&self, n: NodeId) -> Label {
        self.nodes[n.idx()].label
    }

    /// Parent path.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n.idx()].parent
    }

    /// Child paths.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.idx()].children
    }

    /// Depth (root = 0); also the number of `/`-steps in the path.
    pub fn depth(&self, n: NodeId) -> u32 {
        self.nodes[n.idx()].depth
    }

    /// Number of document nodes on this path.
    pub fn count(&self, n: NodeId) -> u64 {
        self.nodes[n.idx()].count
    }

    /// Number of document nodes on this path carrying an atomic value.
    pub fn value_count(&self, n: NodeId) -> u64 {
        self.nodes[n.idx()].values
    }

    /// Estimated number of distinct atomic values on this path. Exact up
    /// to an internal cap; saturated paths report the value count (an
    /// upper bound, which makes equality selectivities conservative).
    pub fn distinct_values(&self, n: NodeId) -> u64 {
        let nd = &self.nodes[n.idx()];
        if nd.distinct.saturated {
            nd.values
        } else {
            nd.distinct.seen.len() as u64
        }
    }

    /// The exact distinct-value sample for a path, when the sketch has
    /// not saturated (`None` once it has). While unsaturated the sketch
    /// *is* the full distinct-value set — in particular its extremes are
    /// the true min/max — so callers can derive end-biased range
    /// selectivities from it instead of guessing.
    pub fn distinct_sample(&self, n: NodeId) -> Option<impl Iterator<Item = &Value> + '_> {
        let nd = &self.nodes[n.idx()];
        (!nd.distinct.saturated).then(|| nd.distinct.seen.iter())
    }

    /// The end-biased equi-width histogram of a path whose distinct
    /// sketch has saturated (`None` while the exact sample is still
    /// available via [`Summary::distinct_sample`], or when the saturated
    /// sample held no integers to span an axis with).
    pub fn value_histogram(&self, n: NodeId) -> Option<&ValueHistogram> {
        self.nodes[n.idx()].distinct.hist.as_ref()
    }

    /// Average number of children on path `n` per document node on the
    /// parent path (the child fan-out of the summary edge into `n`). For
    /// the root this is the node count itself (one root per document).
    pub fn avg_fanout(&self, n: NodeId) -> f64 {
        let nd = &self.nodes[n.idx()];
        match nd.parent {
            None => nd.count as f64,
            Some(p) => {
                let pc = self.nodes[p.idx()].count;
                if pc == 0 {
                    0.0
                } else {
                    nd.count as f64 / pc as f64
                }
            }
        }
    }

    /// Total document nodes summarized — the sum of the per-path counts,
    /// the single source of truth for Table 1's node totals.
    pub fn doc_node_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.count).sum()
    }

    /// Is the edge from `n`'s parent to `n` strong (§4.1)?
    pub fn is_strong_edge(&self, n: NodeId) -> bool {
        self.nodes[n.idx()].strong
    }

    /// Is the edge from `n`'s parent to `n` one-to-one (§4.5)?
    pub fn is_one_to_one_edge(&self, n: NodeId) -> bool {
        self.nodes[n.idx()].one_to_one
    }

    /// Overrides the strong flag (used by tests and by DTD-derived
    /// constraints that are not observable from one sample document).
    pub fn set_strong_edge(&mut self, n: NodeId, strong: bool) {
        let one_to_one = self.nodes[n.idx()].one_to_one && strong;
        self.set_edge_classes(n, strong, one_to_one);
    }

    /// Overrides the one-to-one flag.
    pub fn set_one_to_one_edge(&mut self, n: NodeId, one: bool) {
        let strong = self.nodes[n.idx()].strong || one;
        self.set_edge_classes(n, strong, one);
    }

    /// Every change to an existing node's edge classes goes through here:
    /// a flag that actually flips moves the edge-class generation.
    fn set_edge_classes(&mut self, n: NodeId, strong: bool, one_to_one: bool) {
        let node = &mut self.nodes[n.idx()];
        self.edge_gen += ((strong, one_to_one) != (node.strong, node.one_to_one)) as u64;
        node.strong = strong;
        node.one_to_one = one_to_one;
    }

    /// Proper-ancestor test between paths, O(1) via pre-order intervals.
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let an = &self.nodes[a.idx()];
        let bp = self.nodes[b.idx()].pre;
        an.pre < bp && bp <= an.last_desc
    }

    /// Parent test between paths.
    pub fn is_parent(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes[b.idx()].parent == Some(a)
    }

    /// Iterates all paths in pre-order... of creation order; use
    /// [`Summary::children`] for structure.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The `/l1/l2/.../lk` string for a path node.
    pub fn path_string(&self, n: NodeId) -> String {
        let mut labels = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            labels.push(self.label(c));
            cur = self.parent(c);
        }
        labels.reverse();
        let mut out = String::new();
        for l in labels {
            out.push('/');
            out.push_str(l.as_str());
        }
        out
    }

    /// Looks up a path node by its `/l1/l2/...` string.
    pub fn node_by_path(&self, path: &str) -> Option<NodeId> {
        let mut cur = self.root();
        let mut steps = path.split('/').filter(|s| !s.is_empty());
        match steps.next() {
            Some(first) if first == self.label(cur).as_str() => {}
            _ => return None,
        }
        for step in steps {
            let label = Label::intern(step);
            cur = *self
                .children(cur)
                .iter()
                .find(|&&c| self.label(c) == label)?;
        }
        Some(cur)
    }

    /// The summary node for each document node — the mapping `φ : d → S(d)`
    /// of §2.3. Returns `None` if some document path is absent from the
    /// summary (the document does not conform).
    pub fn classify(&self, doc: &Document) -> Option<Vec<NodeId>> {
        if self.nodes.is_empty() || self.nodes[0].label != doc.label(doc.root()) {
            return None;
        }
        let mut map = vec![NodeId(0); doc.len()];
        for dn in doc.iter().skip(1) {
            let sp = map[doc.parent(dn).unwrap().idx()];
            let label = doc.label(dn);
            let sn = self
                .children(sp)
                .iter()
                .copied()
                .find(|&c| self.label(c) == label)?;
            map[dn.idx()] = sn;
        }
        Some(map)
    }

    /// `S |= d` in the *plain* sense: every path of `d` occurs in `S`.
    ///
    /// Note the paper defines conformance as `S(d) = S` exactly; for
    /// containment soundness only the ⊆ direction matters (a document
    /// using fewer paths cannot create new matches), and the ⊆ form is
    /// what the rewriting engine needs when a store holds many documents.
    /// [`Summary::conforms_exactly`] provides the strict check.
    pub fn conforms(&self, doc: &Document) -> bool {
        self.classify(doc).is_some()
    }

    /// Strict `S(d) = S` conformance.
    pub fn conforms_exactly(&self, doc: &Document) -> bool {
        match self.classify(doc) {
            None => false,
            Some(map) => {
                let mut seen = vec![false; self.nodes.len()];
                for s in map {
                    seen[s.idx()] = true;
                }
                seen.into_iter().all(|b| b)
            }
        }
    }

    /// Enhanced conformance: plain conformance plus every strong /
    /// one-to-one constraint holds in `d` (§4.1).
    pub fn conforms_enhanced(&self, doc: &Document) -> bool {
        let Some(map) = self.classify(doc) else {
            return false;
        };
        for dn in doc.iter() {
            let sn = map[dn.idx()];
            for &sc in self.children(sn) {
                let need_strong = self.is_strong_edge(sc);
                let need_one = self.is_one_to_one_edge(sc);
                if !need_strong && !need_one {
                    continue;
                }
                let k = doc
                    .children(dn)
                    .iter()
                    .filter(|&&c| map[c.idx()] == sc)
                    .count();
                if need_strong && k == 0 {
                    return false;
                }
                if need_one && k != 1 {
                    return false;
                }
            }
        }
        true
    }

    // ---- incremental maintenance (live document updates) ----
    //
    // The methods below keep a summary exact while its document changes
    // in place, instead of re-summarizing from scratch. They are the
    // smv-summary half of epoch maintenance (see smv-views): the batch's
    // fragments fold in and its deleted subtrees fold out through the
    // pass that builds the summary, so counts, value counts and interior
    // fan-out statistics update additively / subtractively; distinct
    // sketches — which cannot subtract — are rebuilt per dirty path from
    // the surviving values. Summary paths are **append-only**: a path
    // whose count drops to zero keeps its node, so summary `NodeId`s
    // stay stable across maintenance. This trades a little precision (a
    // dead path admits more documents, which is sound for containment —
    // conformance is a ⊆ check) for never invalidating state derived
    // from a geometry that didn't structurally change.

    /// A token-preserving copy: same instance id, same geometry
    /// generation, so [`Summary::geometry_token`] of the snapshot equals
    /// the original's *at this moment*. Used by the epoch catalog to
    /// freeze per-epoch statistics: the live summary keeps mutating (and
    /// bumps its generation on any structural change), while the
    /// snapshot keeps the tokens the epoch's plans were ranked under.
    /// Contrast [`Clone`], which deliberately severs the lineage with a
    /// fresh id.
    pub fn snapshot(&self) -> Summary {
        Summary {
            nodes: self.nodes.clone(),
            docs: self.docs,
            id: self.id,
            geometry_gen: self.geometry_gen,
            edge_gen: self.edge_gen,
        }
    }

    /// Maintains this summary across one applied live-document batch
    /// ([`smv_xml::LiveDoc::apply`]) from the batch alone: folds each
    /// deleted subtree out of it and each inserted fragment into it,
    /// settles the fan-out of the edge into every such root from the
    /// batch's own tallies, rebuilds the sketches of the paths that lost
    /// values from `new_doc`, and refreshes edge classes. Returns `true`
    /// when the batch introduced new paths (geometry changed, so anything
    /// stamped with the old [`Summary::geometry_token`] is now stale).
    ///
    /// Statistics come out exactly as additive arithmetic dictates:
    /// counts, value counts, fan-outs and unsaturated distinct sets all
    /// equal what from-scratch summarization of `new_doc` yields on the
    /// paths `new_doc` still uses. The one deliberate difference is that
    /// paths are append-only — a path whose last node died keeps its
    /// summary node at count zero, preserving summary `NodeId` stability
    /// for everything keyed on it.
    pub fn apply_update(&mut self, applied: &smv_xml::AppliedBatch, new_doc: &Document) -> bool {
        let mut f = Fold::over(&self.nodes);
        // per (surviving parent in `new_doc`, root label): the parent's
        // path, and the batch's inserted roots less its deleted ones
        let mut roots: HashMap<(NodeId, Label), (NodeId, i64)> = HashMap::new();
        for d in &applied.detached {
            let (p, r) = (d.parent, d.doc.root());
            let tally = roots
                .entry((p, d.doc.label(r)))
                .or_insert_with(|| (self.path_of(&f.edges, new_doc, p), 0));
            tally.1 -= 1;
            let under = tally.0;
            self.fold(&mut f, &d.doc, r, Some(under), -1);
            // each subtree numbers its nodes from 0, and so does `new_doc`:
            // the next one stamps past this one's numbers
            f.stamp_base += d.doc.len() as u32;
        }
        let mut created = false;
        for &r in &applied.inserted_roots {
            let p = new_doc.parent(r).expect("fragment root has a parent");
            let tally = roots
                .entry((p, new_doc.label(r)))
                .or_insert_with(|| (self.path_of(&f.edges, new_doc, p), 0));
            tally.1 += 1;
            let under = tally.0;
            // one geometry generation per fragment that creates paths
            if self.fold(&mut f, new_doc, r, Some(under), 1) {
                self.geometry_gen += 1;
                created = true;
            }
        }
        // the edge into each root: a child with its label before the
        // batch is one now, less what the batch inserted, plus what it
        // deleted
        for ((p, label), (under, net)) in roots {
            let now = new_doc
                .children(p)
                .iter()
                .filter(|&&c| new_doc.label(c) == label)
                .count() as i64;
            if (now - net > 0) != (now > 0) {
                let q = f.edges.child(&self.nodes, under, label).expect("folded");
                bump(
                    &mut self.nodes[q.idx()].parents_with,
                    if now > 0 { 1 } else { -1 },
                );
            }
        }
        self.rebuild_sketches(&f, new_doc);
        if created {
            self.recompute_order();
        }
        self.refresh_edge_classes();
        created
    }

    /// The path of `doc`'s node `n`: its labels from the root, walked
    /// down the summary.
    fn path_of(&self, edges: &EdgeIndex, doc: &Document, n: NodeId) -> NodeId {
        doc.path_labels(n)[1..]
            .iter()
            .fold(NodeId(0), |sp, &label| {
                edges
                    .child(&self.nodes, sp, label)
                    .expect("a surviving node's path exists")
            })
    }

    /// Rebuilds the sketch of every path [`Self::fold`] marked dirty from
    /// the values on it in `doc`, inserted in document order as a build
    /// inserts them: while a sketch is unsaturated this is exactly what
    /// from-scratch summarization holds for the path. The walk maps nodes
    /// top-down like the fold, and skips each subtree whose path is no
    /// ancestor-or-self of a dirty path.
    fn rebuild_sketches(&mut self, f: &Fold, doc: &Document) {
        let mut wanted = vec![false; self.nodes.len()];
        for p in (0..self.nodes.len()).filter(|&p| f.dirty[p]) {
            self.nodes[p].distinct = ValueSketch::default();
            let mut up = Some(NodeId(p as u32));
            while let Some(a) = up.filter(|a| !std::mem::replace(&mut wanted[a.idx()], true)) {
                up = self.nodes[a.idx()].parent;
            }
        }
        let mut stack: Vec<(NodeId, NodeId)> = Vec::new();
        let mut dn = doc.root();
        while dn.idx() < doc.len() {
            let sn = match doc.parent(dn) {
                None => NodeId(0),
                Some(dp) => f
                    .edges
                    .child(&self.nodes, parent_path(&mut stack, dp), doc.label(dn))
                    .expect("the document's paths exist"),
            };
            if !wanted[sn.idx()] {
                dn = NodeId(doc.last_descendant(dn).0 + 1);
                continue;
            }
            if let Some(v) = doc.value(dn).filter(|_| f.dirty[sn.idx()]) {
                self.nodes[sn.idx()].distinct.insert(v);
            }
            stack.push((dn, sn));
            dn = NodeId(dn.0 + 1);
        }
    }
}

impl LabeledTree for Summary {
    fn tree_root(&self) -> NodeId {
        self.root()
    }
    fn tree_label(&self, n: NodeId) -> Label {
        self.label(n)
    }
    fn tree_children(&self, n: NodeId) -> &[NodeId] {
        self.children(n)
    }
    fn tree_parent(&self, n: NodeId) -> Option<NodeId> {
        self.parent(n)
    }
    fn tree_value(&self, _n: NodeId) -> Option<&Value> {
        None
    }
    fn tree_is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.is_ancestor(a, b)
    }
    fn tree_len(&self) -> usize {
        self.len()
    }
}

// ---- persistence ------------------------------------------------------
//
// A self-contained binary serialization so the summary can be published
// to the on-disk store (smv-store wraps these bytes in a checksummed
// file), written and read with `smv_xml::wire`. The format is structural
// and deterministic: node vectors in arena order, sketch samples sorted,
// histogram masses as exact f64 bit patterns. The process-unique instance
// id is deliberately NOT stored — a deserialized summary is a new
// instance and gets a fresh id, exactly like [`Clone`].

const WIRE_VERSION: u8 = 1;

fn put_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Int(i) => {
            w.put_u8(0);
            w.put_iv(*i);
        }
        Value::Str(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
    }
}

fn get_value(r: &mut ByteReader) -> Result<Value, String> {
    match r.get_u8()? {
        0 => Ok(Value::Int(r.get_iv()?)),
        1 => Ok(Value::Str(r.get_str_ref()?.into())),
        t => Err(format!("bad value tag {t}")),
    }
}

impl ValueHistogram {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_iv(self.lo);
        w.put_iv(self.width);
        w.put_uv(self.buckets.len() as u64);
        for &b in &self.buckets {
            w.put_f64(b);
        }
        w.put_f64(self.below);
        w.put_iv(self.below_min);
        w.put_f64(self.above);
        w.put_iv(self.above_max);
        w.put_uv(self.strings);
        w.put_uv(self.total);
    }

    fn decode(r: &mut ByteReader) -> Result<ValueHistogram, String> {
        let lo = r.get_iv()?;
        let width = r.get_iv()?;
        if width < 1 {
            return Err("histogram width < 1".into());
        }
        let n = r.get_count()?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            buckets.push(r.get_f64()?);
        }
        Ok(ValueHistogram {
            lo,
            width,
            buckets,
            below: r.get_f64()?,
            below_min: r.get_iv()?,
            above: r.get_f64()?,
            above_max: r.get_iv()?,
            strings: r.get_uv()?,
            total: r.get_uv()?,
        })
    }
}

impl ValueSketch {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(self.saturated as u8);
        if self.saturated {
            match &self.hist {
                Some(h) => {
                    w.put_u8(1);
                    h.encode(w);
                }
                None => w.put_u8(0),
            }
        } else {
            // the exact set is a HashSet: sort for deterministic bytes
            let mut vals: Vec<&Value> = self.seen.iter().collect();
            vals.sort_by(|a, b| match (a, b) {
                (Value::Int(x), Value::Int(y)) => x.cmp(y),
                (Value::Str(x), Value::Str(y)) => x.cmp(y),
                (Value::Int(_), Value::Str(_)) => std::cmp::Ordering::Less,
                (Value::Str(_), Value::Int(_)) => std::cmp::Ordering::Greater,
            });
            w.put_uv(vals.len() as u64);
            for v in vals {
                put_value(w, v);
            }
        }
    }

    fn decode(r: &mut ByteReader) -> Result<ValueSketch, String> {
        let saturated = r.get_u8()? != 0;
        if saturated {
            let hist = match r.get_u8()? {
                0 => None,
                1 => Some(ValueHistogram::decode(r)?),
                t => return Err(format!("bad histogram flag {t}")),
            };
            Ok(ValueSketch {
                seen: HashSet::new(),
                saturated: true,
                hist,
            })
        } else {
            let n = r.get_count()?;
            if n > DISTINCT_CAP {
                return Err("unsaturated sketch above the distinct cap".into());
            }
            let mut seen = HashSet::with_capacity(n);
            for _ in 0..n {
                seen.insert(get_value(r)?);
            }
            Ok(ValueSketch {
                seen,
                saturated: false,
                hist: None,
            })
        }
    }
}

/// Refuses node vectors no summary can have. Paths are only ever appended
/// under a path that exists, so node 0 is the root and every other node's
/// parent comes before it; each node's `children` are exactly the nodes
/// naming it as parent; depths, pre-order ranks and descendant intervals
/// are the ones the tree derives. What passes is a tree, so every walk
/// over it ends.
fn check_tree(nodes: &[SNode]) -> Result<(), String> {
    let Some(root) = nodes.first() else {
        return Err("summary without a root".into());
    };
    if root.parent.is_some() || root.depth != 0 {
        return Err("summary root has a parent".into());
    }
    for (i, n) in nodes.iter().enumerate().skip(1) {
        match n.parent {
            // by induction every depth before `i` is its index's or less,
            // so `+ 1` cannot overflow
            Some(p) if p.idx() < i && n.depth == nodes[p.idx()].depth + 1 => {}
            _ => return Err(format!("summary node {i}: parent or depth out of place")),
        }
    }
    let mut listed = vec![false; nodes.len()];
    for (p, n) in nodes.iter().enumerate() {
        for &c in &n.children {
            let inverse = nodes
                .get(c.idx())
                .is_some_and(|c| c.parent == Some(NodeId(p as u32)));
            if !inverse || std::mem::replace(&mut listed[c.idx()], true) {
                return Err(format!("summary node {p}: children disagree with parents"));
            }
        }
    }
    if listed.iter().skip(1).any(|&l| !l) {
        return Err("a summary node is missing from its parent's children".into());
    }
    let ranks = preorder(nodes);
    match nodes
        .iter()
        .zip(ranks)
        .position(|(n, r)| (n.pre, n.last_desc) != r)
    {
        Some(i) => Err(format!("summary node {i}: pre-order ranks out of place")),
        None => Ok(()),
    }
}

impl Summary {
    /// Serializes the summary for persistence. Deterministic for a given
    /// summary state; the process-unique instance id is not stored (a
    /// reloaded summary is a fresh instance, like a clone).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(WIRE_VERSION);
        w.put_uv(self.docs as u64);
        w.put_uv(self.geometry_gen);
        w.put_uv(self.nodes.len() as u64);
        for n in &self.nodes {
            w.put_str(n.label.as_str());
            w.put_uv(n.parent.map_or(0, |p| p.0 as u64 + 1));
            w.put_uv(n.children.len() as u64);
            for c in &n.children {
                w.put_uv(c.0 as u64);
            }
            w.put_uv(n.pre as u64);
            w.put_uv(n.last_desc as u64);
            w.put_uv(n.depth as u64);
            w.put_uv(n.count);
            w.put_uv(n.parents_with);
            w.put_uv(n.values);
            w.put_u8(n.strong as u8);
            w.put_u8(n.one_to_one as u8);
            n.distinct.encode(&mut w);
        }
        w.into_bytes()
    }

    /// Reconstructs a summary serialized by [`Summary::to_bytes`], and
    /// refuses bytes that do not describe a tree. The result carries a
    /// fresh instance id, so its [`Summary::geometry_token`] differs from
    /// the publisher's.
    pub fn from_bytes(bytes: &[u8]) -> Result<Summary, String> {
        let mut r = ByteReader::new(bytes);
        let version = r.get_u8()?;
        if version != WIRE_VERSION {
            return Err(format!("unsupported summary wire version {version}"));
        }
        let docs = r.get_uv()? as usize;
        let geometry_gen = r.get_uv()?;
        let n_nodes = r.get_count()?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let label = Label::intern(r.get_str_ref()?);
            let parent = match r.get_u32()? {
                0 => None,
                p => Some(NodeId(p - 1)),
            };
            let n_children = r.get_count()?;
            let mut children = Vec::with_capacity(n_children);
            for _ in 0..n_children {
                children.push(NodeId(r.get_u32()?));
            }
            nodes.push(SNode {
                label,
                parent,
                children,
                pre: r.get_u32()?,
                last_desc: r.get_u32()?,
                depth: r.get_u32()?,
                count: r.get_uv()?,
                parents_with: r.get_uv()?,
                values: r.get_uv()?,
                strong: r.get_u8()? != 0,
                one_to_one: r.get_u8()? != 0,
                distinct: ValueSketch::decode(&mut r)?,
            });
        }
        if r.remaining() != 0 {
            return Err(format!("{} trailing bytes after summary", r.remaining()));
        }
        check_tree(&nodes)?;
        Ok(Summary {
            nodes,
            docs,
            id: next_summary_id(),
            geometry_gen,
            edge_gen: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        // every `a` has a `b` child (strong), exactly one `c` child
        // (one-to-one); `d` appears under only some `c`s (weak edge).
        Document::from_parens("r(a(b b c(d)) a(b c))")
    }

    #[test]
    fn builds_all_paths_once() {
        let d = doc();
        let s = Summary::of(&d);
        // paths: /r /r/a /r/a/b /r/a/c /r/a/c/d
        assert_eq!(s.len(), 5);
        assert_eq!(s.path_string(NodeId(2)), "/r/a/b");
        assert_eq!(s.node_by_path("/r/a/c/d"), Some(NodeId(4)));
        assert_eq!(s.node_by_path("/r/z"), None);
        assert_eq!(s.count(s.node_by_path("/r/a/b").unwrap()), 3);
    }

    #[test]
    fn strong_and_one_to_one_edges() {
        let s = Summary::of(&doc());
        let b = s.node_by_path("/r/a/b").unwrap();
        let c = s.node_by_path("/r/a/c").unwrap();
        let d = s.node_by_path("/r/a/c/d").unwrap();
        let a = s.node_by_path("/r/a").unwrap();
        assert!(s.is_strong_edge(b), "every a has a b child");
        assert!(!s.is_one_to_one_edge(b), "one a has two b children");
        assert!(s.is_one_to_one_edge(c), "every a has exactly one c");
        assert!(!s.is_strong_edge(d), "only one c has a d child");
        assert!(s.is_strong_edge(a), "r has a children");
    }

    #[test]
    fn per_path_cardinality_statistics() {
        let d = Document::from_parens(r#"r(a(b="1" b="2" c(d)) a(b="1" c))"#);
        let mut s = Summary::of(&d);
        let a = s.node_by_path("/r/a").unwrap();
        let b = s.node_by_path("/r/a/b").unwrap();
        let c = s.node_by_path("/r/a/c").unwrap();
        assert_eq!(s.count(b), 3);
        assert_eq!(s.value_count(b), 3);
        assert_eq!(s.distinct_values(b), 2, r#""1" twice, "2" once"#);
        assert_eq!(s.value_count(c), 0);
        assert_eq!(s.avg_fanout(b), 1.5, "3 b's over 2 a's");
        assert_eq!(s.avg_fanout(a), 2.0);
        assert_eq!(s.avg_fanout(s.root()), 1.0, "one root per document");
        assert_eq!(s.doc_node_count(), d.len() as u64);
        // incremental extension keeps the stats consistent
        s.extend_with(&Document::from_parens(r#"r(a(b="7" c))"#));
        assert_eq!(s.value_count(b), 4);
        assert_eq!(s.distinct_values(b), 3);
        assert_eq!(s.doc_node_count(), (d.len() + 4) as u64);
    }

    #[test]
    fn distinct_sketch_ignores_duplicates_and_saturates_on_distincts() {
        // duplicates beyond the cap never saturate the sketch
        let dupes = format!("r({})", vec![r#"b="7""#; 1500].join(" "));
        let s = Summary::of(&Document::from_parens(&dupes));
        let b = s.node_by_path("/r/b").unwrap();
        assert_eq!(s.distinct_values(b), 1, "1500 copies of one value");
        // genuinely distinct values past the cap saturate to the value
        // count (an upper bound)
        let distinct = format!(
            "r({})",
            (0..1500)
                .map(|i| format!(r#"b="{i}""#))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let s = Summary::of(&Document::from_parens(&distinct));
        let b = s.node_by_path("/r/b").unwrap();
        assert_eq!(s.distinct_values(b), 1500);
    }

    #[test]
    fn saturation_builds_a_histogram_over_the_sample() {
        let distinct = format!(
            "r({})",
            (0..1500)
                .map(|i| format!(r#"b="{i}""#))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let s = Summary::of(&Document::from_parens(&distinct));
        let b = s.node_by_path("/r/b").unwrap();
        assert!(s.distinct_sample(b).is_none(), "sketch saturated");
        let h = s.value_histogram(b).expect("histogram built");
        // every value was folded in: the 1024-sample at build time plus
        // each post-saturation insert
        assert_eq!(h.total(), 1500);
        assert_eq!(h.string_count(), 0);
        // uniform values: mass tracks range width
        let half = h.mass_in(0, 749);
        assert!(
            (half / h.total() as f64 - 0.5).abs() < 0.1,
            "half-range holds about half the mass, got {half}"
        );
        assert_eq!(h.mass_in(10_000, 20_000), 0.0, "outside the range");
        // an unsaturated path has no histogram
        let s2 = Summary::of(&Document::from_parens(r#"r(b="1" b="2")"#));
        assert!(s2
            .value_histogram(s2.node_by_path("/r/b").unwrap())
            .is_none());
    }

    #[test]
    fn all_string_saturation_yields_no_histogram() {
        let strs = format!(
            "r({})",
            (0..1200)
                .map(|i| format!(r#"b="s{i}x""#))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let s = Summary::of(&Document::from_parens(&strs));
        let b = s.node_by_path("/r/b").unwrap();
        assert!(s.distinct_sample(b).is_none());
        assert!(s.value_histogram(b).is_none(), "no integer axis");
    }

    #[test]
    fn ancestor_relations_between_paths() {
        let s = Summary::of(&doc());
        let r = s.root();
        let d = s.node_by_path("/r/a/c/d").unwrap();
        let c = s.node_by_path("/r/a/c").unwrap();
        assert!(s.is_ancestor(r, d));
        assert!(s.is_parent(c, d));
        assert!(!s.is_ancestor(d, c));
    }

    #[test]
    fn conformance() {
        let s = Summary::of(&doc());
        assert!(s.conforms(&doc()));
        assert!(s.conforms_exactly(&doc()));
        assert!(s.conforms_enhanced(&doc()));
        // fewer paths: conforms (plain) but not exactly
        let d2 = Document::from_parens("r(a(b))");
        assert!(s.conforms(&d2));
        assert!(!s.conforms_exactly(&d2));
        // violates one-to-one for c
        let d3 = Document::from_parens("r(a(b c c))");
        assert!(!s.conforms_enhanced(&d3));
        // violates strong for b
        let d4 = Document::from_parens("r(a(c))");
        assert!(!s.conforms_enhanced(&d4));
        // unknown path: does not conform at all
        let d5 = Document::from_parens("r(a(z))");
        assert!(!s.conforms(&d5));
    }

    #[test]
    fn extension_keeps_summary_stable_when_no_new_paths() {
        let mut s = Summary::of(&doc());
        let before = s.len();
        s.extend_with(&Document::from_parens("r(a(b c))"));
        assert_eq!(s.len(), before);
        // b is still strong (the new a has a b child)
        assert!(s.is_strong_edge(s.node_by_path("/r/a/b").unwrap()));
    }

    #[test]
    fn extension_adds_new_paths_and_weakens_edges() {
        let mut s = Summary::of(&doc());
        s.extend_with(&Document::from_parens("r(a(c x))"));
        assert!(s.node_by_path("/r/a/x").is_some());
        // b no longer strong: the new a lacks a b child
        assert!(!s.is_strong_edge(s.node_by_path("/r/a/b").unwrap()));
        // c remains one-to-one
        assert!(s.is_one_to_one_edge(s.node_by_path("/r/a/c").unwrap()));
    }

    #[test]
    fn classify_maps_nodes_to_paths() {
        let d = doc();
        let s = Summary::of(&d);
        let map = s.classify(&d).unwrap();
        for n in d.iter() {
            assert_eq!(s.label(map[n.idx()]), d.label(n));
            let expect: Vec<_> = d.path_labels(n);
            let got_path = s.path_string(map[n.idx()]);
            let expect_path: String = expect.iter().map(|l| format!("/{}", l.as_str())).collect();
            assert_eq!(got_path, expect_path);
        }
    }

    /// Bytes whose parent links loop are refused, not decoded into a
    /// summary no walk over would finish.
    #[test]
    fn from_bytes_refuses_a_parent_cycle() {
        let bytes = Summary::of(&doc()).to_bytes();
        assert!(Summary::from_bytes(&bytes).is_ok());
        // node 0 is `/r`: version, docs, generation and node count take a
        // byte each, then its label (length, `r`) and its parent varint
        let root_parent = 6;
        assert_eq!(bytes[root_parent], 0, "the root has no parent");
        // node 1 is `/r/a`, whose parent varint is 1 (node 0, plus one)
        let a_parent = 2 + bytes
            .windows(3)
            .position(|w| w == [1, b'a', 1])
            .expect("node 1's label and parent");
        // the root under itself, `a` under itself, `a` under its child `b`
        for (at, parent) in [(root_parent, 1), (a_parent, 2), (a_parent, 3)] {
            let mut bad = bytes.clone();
            bad[at] = parent;
            assert!(
                Summary::from_bytes(&bad).is_err(),
                "parent {parent} at {at}"
            );
        }
    }

    impl Summary {
        /// The summary pass as hash maps: an `(path, label)` edge map, and
        /// a `(document node, child path)` map whose keys count the parents
        /// with a child on each path.
        fn extend_with_reference(&mut self, doc: &Document) {
            if self.nodes.is_empty() {
                self.nodes.push(SNode::new(doc.label(doc.root()), None, 0));
            }
            self.docs += 1;
            let mut doc2sum: Vec<NodeId> = vec![NodeId(0); doc.len()];
            let mut edge: HashMap<(u32, Label), NodeId> = HashMap::new();
            for (i, n) in self.nodes.iter().enumerate() {
                for &c in &n.children {
                    edge.insert((i as u32, self.nodes[c.idx()].label), c);
                }
            }
            self.nodes[0].count += 1;
            for dn in doc.iter().skip(1) {
                let sp = doc2sum[doc.parent(dn).unwrap().idx()];
                let label = doc.label(dn);
                let sn = match edge.get(&(sp.0, label)) {
                    Some(&sn) => sn,
                    None => {
                        let sn = NodeId(self.nodes.len() as u32);
                        let depth = self.nodes[sp.idx()].depth + 1;
                        self.nodes.push(SNode::new(label, Some(sp), depth));
                        self.nodes[sp.idx()].children.push(sn);
                        edge.insert((sp.0, label), sn);
                        sn
                    }
                };
                doc2sum[dn.idx()] = sn;
                self.nodes[sn.idx()].count += 1;
            }
            for dn in doc.iter() {
                if let Some(v) = doc.value(dn) {
                    let sn = doc2sum[dn.idx()];
                    self.nodes[sn.idx()].values += 1;
                    self.nodes[sn.idx()].distinct.insert(v);
                }
            }
            let mut with_child: HashMap<(u32, u32), u64> = HashMap::new();
            for dn in doc.iter() {
                for &c in doc.children(dn) {
                    *with_child.entry((dn.0, doc2sum[c.idx()].0)).or_insert(0) += 1;
                }
            }
            for &(_, sc) in with_child.keys() {
                self.nodes[sc as usize].parents_with += 1;
            }
            self.refresh_edge_classes();
            self.recompute_order();
            self.geometry_gen += 1;
        }
    }

    /// Random trees in parenthesized notation under a root `r`: labels
    /// from a 12-letter alphabet and up to 12 children, so that a path
    /// gains more distinct child labels than [`SCAN_FANOUT`].
    fn wide_tree() -> impl proptest::prelude::Strategy<Value = String> {
        use proptest::prelude::*;
        let name = |l: u8| ((b'a' + l) as char).to_string();
        let leaf =
            (0u8..12, proptest::option::of(0i64..6), 0u8..3).prop_map(move |(l, v, s)| {
                match (v, s) {
                    (None, _) => name(l),
                    (Some(v), 0) => format!("{}=\"s{v}\"", name(l)),
                    (Some(v), _) => format!("{}=\"{v}\"", name(l)),
                }
            });
        leaf.prop_recursive(3, 64, 6, move |inner| {
            (0u8..12, proptest::collection::vec(inner, 1..12))
                .prop_map(move |(l, kids)| format!("{}({})", name(l), kids.join(" ")))
        })
        .prop_map(|body| format!("r({body} {body})"))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The stamp pass and the edge index build the summary the hash
        /// maps build, byte for byte, for one document and for a second
        /// folded in.
        #[test]
        fn summary_pass_is_the_hash_map_pass(a in wide_tree(), b in wide_tree()) {
            let (a, b) = (Document::from_parens(&a), Document::from_parens(&b));
            let mut built = Summary::of(&a);
            let mut reference = Summary::empty();
            reference.extend_with_reference(&a);
            proptest::prop_assert_eq!(built.to_bytes(), reference.to_bytes());
            built.extend_with(&b);
            reference.extend_with_reference(&b);
            proptest::prop_assert_eq!(built.to_bytes(), reference.to_bytes());
        }
    }

    #[test]
    fn a_wide_path_finds_its_children_through_the_map() {
        let kids: Vec<String> = (0..1000).map(|i| format!("k{i}(x)")).collect();
        let src = format!("r({} {})", kids.join(" "), kids.join(" "));
        let s = Summary::of(&Document::from_parens(&src));
        assert_eq!(s.len(), 1 + 2 * 1000);
        assert_eq!(s.children(s.root()).len(), 1000);
        let k7 = s.node_by_path("/r/k7").unwrap();
        assert_eq!(s.count(k7), 2);
        assert!(s.is_one_to_one_edge(s.node_by_path("/r/k7/x").unwrap()));
    }

    #[test]
    fn recursion_unfolds_into_distinct_paths() {
        // recursive listitem-like structure: each nesting level is its own
        // Dataguide path (the paper's point about DTD recursion vs
        // Dataguides, §1).
        let d = Document::from_parens("a(p(l(p(l))) p(l))");
        let s = Summary::of(&d);
        assert!(s.node_by_path("/a/p/l/p/l").is_some());
        assert_eq!(s.len(), 5);
    }
}
