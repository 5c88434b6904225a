//! View-based rewriting under summary constraints — Algorithm 1.
//!
//! Given a query pattern `q`, a set of materialized views and a summary
//! `S`, produce algebraic plans over the views that are `S`-equivalent to
//! `q`.
//!
//! ## Search-space representation
//!
//! Following Proposition 3.3, every join plan over views is `S`-equivalent
//! to a **union of conjunctive patterns**; under the paper's §4.2
//! simplification these are *S-subtrees with per-path formulas* — exactly
//! canonical-model trees. We therefore represent the pattern side of each
//! (plan, pattern) pair as a union of `Member`s: ancestor-closed sets of
//! summary paths with formulas, plus the per-column binding (`None` = the
//! column is `⊥` in rows of this member). Scanning a view yields one
//! member per canonical tree of its (unnested) pattern; joins merge
//! members pairwise — and because every node carries a single summary
//! path, the Fig. 5 merge ambiguity disappears: the structural relation
//! between any two paths is determined by `S`.
//!
//! ## Algorithm 1 correspondence
//!
//! * line 1 — `M0` = per-view base pairs, pre-pruned by Proposition 3.4,
//!   extended with virtual-ID columns (§4.6, `nav_fID`) and C-navigation
//!   columns (§4.6 unfolding, restricted to query-relevant paths). The
//!   part of a base pair no query changes (`PreparedView`) is built once
//!   per (view, summary constraints) and kept on the `View`; see the
//!   crate docs;
//! * lines 2-11 — left-deep join enumeration over `⋈_=`, `⋈_≺`, `⋈_≺≺`,
//!   with satisfiability pruning (dead member sets), the Proposition 3.5
//!   test on structural pair keys (`PairKey`), and the Proposition 3.6
//!   size bound;
//! * line 7 — the `≡_S q` test runs both directions on members: every
//!   member (strong-closed) must realize its designated tuple in `q`
//!   (Prop 3.1 / §4.2 decorated embeddings), and every tree of
//!   `mod_S(q)` must be covered by some member with value coverage
//!   (Prop 3.2 / §4.2 condition 2);
//! * line 7 adaptations — `σ_{L=l}` and `σ_{φ(v)}` selections are inserted
//!   per §4.6 before testing;
//! * lines 13-14 — minimal unions of pairs that jointly cover `mod_S(q)`;
//! * output — plans are completed with the §4.6 nesting adaptation: a
//!   group-by (`Nest`) per nested query edge, keyed on the nesting
//!   anchor's ID (the anchor must store `ID`, per the paper's "otherwise
//!   this nesting step cannot be obtained").

use crate::containment::{implies_disjunction, tuple_in, FormulaMode};
use smv_algebra::{
    AttrKind, CardSource, ColKind, CostModel, FeedbackStore, NavStep, Plan, PlanEstimate,
    Predicate, StructRel,
};
use smv_pattern::canonical::{canonical_model, CTree, CanonOpts};
use smv_pattern::{associated_paths, Axis, Formula, PNodeId, Pattern};
use smv_summary::Summary;
use smv_views::{schema_of, DefCards, View};
use smv_xml::fasthash::{FastBuild, FastHasher};
use smv_xml::{IdScheme, NodeId, Symbol};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options bounding the rewriting search.
#[derive(Clone, Debug)]
pub struct RewriteOpts {
    /// Canonical-model options.
    pub canon: CanonOpts,
    /// Cap on members per (plan, pattern) pair.
    pub max_members: usize,
    /// Cap on view scans per plan (min-ed with the Prop 3.6 bound).
    pub max_scans: usize,
    /// Cap on the working set `M`.
    pub max_pairs: usize,
    /// Stop after this many rewritings.
    pub max_rewritings: usize,
    /// Stop at the first rewriting (the "stopped early" mode of §5).
    pub first_only: bool,
    /// Unfold stored `C` content by navigation (§4.6), restricted to
    /// query-relevant paths.
    pub enable_content_navigation: bool,
    /// Rank results by estimated cost (cheapest first) and explore base
    /// pairs cheapest-first, shrinking time-to-first-rewriting.
    pub rank_by_cost: bool,
    /// Branch-and-bound: once a rewriting is known, prune every left-deep
    /// prefix whose lower bound reaches the best complete plan's cost. A
    /// prefix that supplies every flat output column is bounded by its
    /// estimated work. One that does not is bounded by its work and rows
    /// plus the largest, over the columns it lacks, of the cheapest base
    /// pair supplying that column — every rewriting from it still has to
    /// join one in. A returned column no base pair supplies ends the
    /// search at set-up with no rewriting, whether this is set or not:
    /// that is a proof, not a cost argument.
    pub cost_prune: bool,
}

impl Default for RewriteOpts {
    fn default() -> Self {
        RewriteOpts {
            canon: CanonOpts::default(),
            max_members: 64,
            max_scans: 4,
            max_pairs: 4000,
            max_rewritings: 8,
            first_only: false,
            enable_content_navigation: true,
            rank_by_cost: true,
            cost_prune: true,
        }
    }
}

/// One produced rewriting.
#[derive(Clone, Debug)]
pub struct Rewriting {
    /// The executable plan (output schema = the query's schema).
    pub plan: Plan,
    /// Number of view scans (plan size in the Prop 3.6 sense).
    pub scans: usize,
    /// Estimated output rows and work for the plan (summary-driven cost
    /// model; extent sizes are estimates unless a [`CardSource`] backed by
    /// a materialized catalog was supplied).
    pub est: PlanEstimate,
}

/// Timings and counters matching the paper's Figure 15.
#[derive(Clone, Debug, Default)]
pub struct RewriteStats {
    /// Views before Proposition 3.4 pruning.
    pub views_total: usize,
    /// Views kept after pruning.
    pub views_kept: usize,
    /// Views whose query-independent preparation (flat pattern, associated
    /// paths, canonical model, base plan and members) was found on the
    /// [`View`], built by an earlier run under the same summary
    /// constraints.
    pub prepared_reused: usize,
    /// Views whose preparation this run had to build.
    pub prepared_built: usize,
    /// Set-up time: the query's own context (unnesting, canonical model,
    /// associated paths), fetching or building each view's preparation,
    /// Prop. 3.4 pruning, the §4.6 derived columns and costing the base
    /// pairs. With every preparation reused, only the per-query part is
    /// left.
    pub setup: Duration,
    /// Time until the first rewriting was found.
    pub first_rewriting: Option<Duration>,
    /// Total rewriting time.
    pub total: Duration,
    /// (plan, pattern) pairs explored.
    pub pairs_explored: usize,
    /// (plan, pattern) pairs pruned by the cost bound before exploration:
    /// a freshly built join, or a prefix about to be extended, whose lower
    /// bound (see [`RewriteOpts::cost_prune`]) reaches the best rewriting
    /// found so far.
    pub pairs_pruned: usize,
    /// Joins dropped by the Proposition 3.5 test because their key was
    /// already seen — whether recognized before being built (the member
    /// combinations and column groups of an earlier join of the same two
    /// pairs) or after.
    pub pairs_deduped: usize,
    /// Joins built: members merged, plan and column layout made. A join
    /// recognized as a repeat from its member combinations is not.
    pub joins_built: usize,
    /// Direction-A verdicts computed — a member's canonical tree built and
    /// the query embedded in it — one per distinct (member node set,
    /// designation) the line-7 test met.
    pub member_tests: usize,
    /// Direction-A verdicts served from the run's memo of
    /// [`member_tests`](Self::member_tests) instead.
    pub member_tests_reused: usize,
}

/// The outcome of a rewriting run.
#[derive(Clone, Debug, Default)]
pub struct RewriteResult {
    /// Equivalent rewritings — ranked cheapest-first when
    /// [`RewriteOpts::rank_by_cost`] is set, discovery order otherwise.
    pub rewritings: Vec<Rewriting>,
    /// Run statistics.
    pub stats: RewriteStats,
}

/// A column of a flattened view plan.
#[derive(Clone, Debug)]
struct ColInfo {
    attr: AttrKind,
    scheme: IdScheme,
    /// A §4.6 derived ancestor ID (`navfID`). A member places it at the
    /// stored column's path k steps up, which names the node only along
    /// that member's own chain: so it never stands on both sides of a
    /// `⋈_=`, nor on the ancestor side of a `⋈_≺` or `⋈_≺≺` (see
    /// [`Rewriter::join_options`]).
    derived: bool,
}

/// A member's ancestor-closed set of summary paths, each with a formula,
/// with its hash — taken once, when the set is built, and read by every
/// key the member is part of. Shared with the view's [`PreparedView`] (and
/// between the copies a search makes of a pair) until a step has to
/// change it.
///
/// Under the strong closure (§4.2) a member holds most of the summary's
/// paths, nearly all with formula `T`, so the paths are a bitset — one bit
/// per summary path id — and only the other formulas are listed. Merging,
/// comparing and hashing two sets is then a pass over a few words plus
/// their short formula lists.
#[derive(Clone, Debug)]
struct NodeSet(Arc<NodeSetInner>);

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
    fn of_tree(t: &CTree) -> NodeSet {
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
    fn new(nodes: Vec<(NodeId, Formula)>) -> NodeSet {
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

    fn hash(&self) -> u64 {
        self.0.hash
    }

    fn contains(&self, p: NodeId) -> bool {
        let (w, b) = word_bit(p);
        self.0.words.get(w).is_some_and(|x| x & b != 0)
    }

    /// The formula of `p` when it is in the set and not `T`.
    fn formula(&self, p: NodeId) -> Option<&Formula> {
        let fs = &self.0.formulas;
        fs.binary_search_by_key(&p, |(n, _)| *n)
            .ok()
            .map(|i| &fs[i].1)
    }

    /// The paths whose formula is not `T`, with their formulas, sorted.
    fn formulas(&self) -> &[(NodeId, Formula)] {
        &self.0.formulas
    }

    /// Is every path of `self` in `other`?
    fn subset_of(&self, other: &NodeSet) -> bool {
        let (a, b) = (&self.0.words, &other.0.words);
        a.len() <= b.len() && a.iter().zip(b).all(|(x, y)| x & !y == 0)
    }

    /// The set as a sorted `(path, formula)` list, `T` written out.
    fn to_vec(&self) -> Vec<(NodeId, Formula)> {
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
    fn conj(&mut self, path: NodeId, f: &Formula) -> bool {
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
    fn fits_in(&self, tree: &NodeSet) -> bool {
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
struct Member {
    nodes: NodeSet,
    /// Per plan column: the path its values sit on (`None` = `⊥`).
    col_path: Vec<Option<NodeId>>,
}

impl Member {
    fn formula_map(&self) -> HashMap<NodeId, Formula> {
        self.nodes.formulas().iter().cloned().collect()
    }
}

/// A (plan, pattern) pair of Algorithm 1.
#[derive(Clone, Debug)]
struct Pair {
    plan: Plan,
    cols: Vec<ColInfo>,
    /// Same-node equivalence classes over columns (merged by `⋈_=`).
    groups: Vec<u32>,
    members: Vec<Member>,
    views: Vec<usize>,
    /// Estimated work of the raw (pre-output-adaptation) plan.
    cost: f64,
    /// Estimated rows of the raw plan. With `cost`, the start of the
    /// pair's branch-and-bound bound ([`Suppliers::bound`]).
    rows: f64,
}

impl Pair {
    /// Sets `cost` and `rows` from `model`'s estimate of the plan.
    fn estimate(&mut self, model: &CostModel<'_>) {
        let est = model.estimate(&self.plan);
        self.cost = est.cost;
        self.rows = est.rows;
    }

    /// The pair's Prop. 3.5 identity; see [`PairKey`].
    fn key(&self) -> PairKey {
        // the columns, grouped (column order within a group kept)
        let mut by_group: Vec<usize> = (0..self.cols.len()).collect();
        by_group.sort_by_key(|&c| self.groups[c]);
        let mut layouts: Vec<u64> = Vec::new();
        let mut members: Vec<MemberKey> = Vec::with_capacity(self.members.len());
        let mut codes: Vec<u64> = Vec::with_capacity(self.cols.len());
        let mut spans: Vec<Range<usize>> = Vec::new();
        for m in &self.members {
            codes.clear();
            spans.clear();
            for group in by_group.chunk_by(|&x, &y| self.groups[x] == self.groups[y]) {
                let start = codes.len();
                codes.extend(
                    group
                        .iter()
                        .map(|&c| layout_code(self.cols[c].attr, m.col_path[c])),
                );
                codes[start..].sort_unstable();
                spans.push(start..codes.len());
            }
            spans.sort_unstable_by(|x, y| codes[x.clone()].cmp(&codes[y.clone()]));
            let start = layouts.len();
            for span in &spans {
                layouts.extend_from_slice(&codes[span.clone()]);
                layouts.push(GROUP_END);
            }
            members.push(MemberKey {
                nodes: m.nodes.clone(),
                layout_hash: fast_hash(&layouts[start..]),
                layout: start..layouts.len(),
            });
        }
        // hashes first, contents on a tie: a total order consistent with `==`
        members.sort_unstable_by(|x, y| {
            (x.nodes.hash(), x.layout_hash)
                .cmp(&(y.nodes.hash(), y.layout_hash))
                .then_with(|| x.nodes.cmp(&y.nodes))
                .then_with(|| layouts[x.layout.clone()].cmp(&layouts[y.layout.clone()]))
        });
        let mut h = FastHasher::default();
        for mk in &members {
            h.write_u64(mk.nodes.hash());
            h.write_u64(mk.layout_hash);
        }
        PairKey {
            hash: h.finish(),
            members,
            layouts,
        }
    }
}

/// Which base pairs supply each flat output column of the query, and the
/// cheapest of them: the per-run table behind the branch-and-bound's lower
/// bound and its "no rewriting" proof at set-up.
///
/// A base pair *supplies* output column `(r, a)` when it has a column of
/// attribute `a` that some member binds on a path associated with `r` —
/// the test [`Rewriter::try_pair`] puts to the column's group. Joins and
/// selections never add a column or move one to another path, so every
/// pair that passes line 7 contains a supplier of every output column.
struct Suppliers {
    /// Per view (by index), per output column: does its base pair supply
    /// the column? All `false` for a view with no base pair.
    by_view: Vec<Vec<bool>>,
    /// Per output column: the least `cost + rows` among its suppliers,
    /// infinite when there is none.
    cheapest: Vec<f64>,
}

impl Suppliers {
    /// The table of the base pairs `m0` over `views` views.
    fn new(m0: &[Pair], ctx: &QueryCtx<'_>, views: usize) -> Suppliers {
        let mut by_view = vec![vec![false; ctx.out_cols.len()]; views];
        let mut cheapest = vec![f64::INFINITY; ctx.out_cols.len()];
        for pair in m0 {
            for (k, (r, attr)) in ctx.out_cols.iter().enumerate() {
                let rp = &ctx.qpaths[r.idx()];
                let supplies = (0..pair.cols.len()).any(|c| {
                    pair.cols[c].attr == *attr
                        && pair
                            .members
                            .iter()
                            .any(|m| m.col_path[c].is_some_and(|p| rp.contains(&p)))
                });
                if supplies {
                    by_view[pair.views[0]][k] = true;
                    cheapest[k] = cheapest[k].min(pair.cost + pair.rows);
                }
            }
        }
        Suppliers { by_view, cheapest }
    }

    /// Does some output column have no supplier? Then no pair the search
    /// can build passes line 7, and the query has no rewriting.
    fn some_unsupplied(&self) -> bool {
        self.cheapest.iter().any(|c| c.is_infinite())
    }

    /// A lower bound on the estimated cost of every rewriting built from
    /// `pair` or from a join extending it. A pair that supplies every
    /// output column keeps its own cost as the bound, so the rewritings
    /// it and its extensions yield are pruned exactly as before. One that
    /// does not cannot pass line 7 itself: every rewriting from it joins
    /// in a supplier of each missing column, and a join costs at least its
    /// inputs' costs and rows.
    fn bound(&self, pair: &Pair) -> f64 {
        let missing = (0..self.cheapest.len())
            .filter(|&k| !pair.views.iter().any(|&v| self.by_view[v][k]))
            .map(|k| self.cheapest[k])
            .max_by(f64::total_cmp);
        match missing {
            Some(cheapest) => pair.cost + pair.rows + cheapest,
            None => pair.cost,
        }
    }
}

/// A pair's Prop. 3.5 identity: the multiset of its members, each taken
/// as its node set plus its *layout* — per column group, the sorted
/// `(attribute, path)` list of the group's columns, the groups sorted. The
/// plan, the views and the column order are not part of it: a join whose
/// key the search has already seen opens no new rewriting. Two keys are
/// equal exactly when those contents are; the hash only decides where to
/// look, so a collision costs a comparison and never drops a pair.
struct PairKey {
    hash: u64,
    /// In a total order (node set, then layout), so equal multisets line
    /// up.
    members: Vec<MemberKey>,
    /// Every member's layout: its groups' [`layout_code`]s, each group
    /// followed by [`GROUP_END`].
    layouts: Vec<u64>,
}

struct MemberKey {
    nodes: NodeSet,
    layout_hash: u64,
    /// This member's span of [`PairKey::layouts`].
    layout: Range<usize>,
}

impl PartialEq for PairKey {
    fn eq(&self, other: &PairKey) -> bool {
        self.hash == other.hash
            && self.members.len() == other.members.len()
            && self.members.iter().zip(&other.members).all(|(a, b)| {
                a.layout_hash == b.layout_hash
                    && a.nodes == b.nodes
                    && self.layouts[a.layout.clone()] == other.layouts[b.layout.clone()]
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

fn fast_hash<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = FastHasher::default();
    x.hash(&mut h);
    h.finish()
}

/// Context precomputed from the query.
struct QueryCtx<'a> {
    /// The original query (with nesting).
    q: &'a Pattern,
    /// The unnested query.
    qf: Pattern,
    /// `mod_S(qf)` with strong closure.
    qmodel: Vec<ModelTree>,
    /// Flat output columns: (return node, attr) in schema order.
    out_cols: Vec<(PNodeId, AttrKind)>,
    /// Return nodes in order.
    returns: Vec<PNodeId>,
    /// Associated paths per qf node.
    qpaths: Vec<Vec<NodeId>>,
    /// Whether any query node carries a predicate.
    decorated: bool,
    /// Associated paths of every non-root query node (sorted, deduped) —
    /// the query side of the Prop 3.4 relatedness test.
    q_all: Vec<NodeId>,
}

/// A tree of `mod_S(q)` as direction B of the line-7 test reads it,
/// built once per run.
struct ModelTree {
    /// Its summary paths and their formulas.
    nodes: NodeSet,
    /// Its designated return paths.
    ret: Vec<Option<NodeId>>,
    /// Its formulas other than `T`: the left side of the coverage
    /// implication.
    lhs: HashMap<NodeId, Formula>,
}

impl ModelTree {
    fn new(t: &CTree) -> ModelTree {
        let nodes = NodeSet::of_tree(t);
        ModelTree {
            lhs: nodes.formulas().iter().cloned().collect(),
            nodes,
            ret: t.return_paths(),
        }
    }
}

/// Direction A's verdicts within one run — does `q` produce the member's
/// designated tuple? — by (member node set, designation). `q`, the summary
/// and the options do not change within a run, and the same member meets
/// the test again in every pair it survives into.
#[derive(Default)]
struct MemberVerdicts {
    memo: HashMap<(NodeSet, Vec<Option<NodeId>>), bool, FastBuild>,
    /// Verdicts served from `memo`.
    reused: usize,
}

impl MemberVerdicts {
    /// The verdict for `nodes` designating `des`, from `test` on a miss.
    fn get(
        &mut self,
        nodes: &NodeSet,
        des: &[Option<NodeId>],
        test: impl FnOnce() -> bool,
    ) -> bool {
        match self.memo.entry((nodes.clone(), des.to_vec())) {
            Entry::Occupied(e) => {
                self.reused += 1;
                *e.get()
            }
            Entry::Vacant(e) => *e.insert(test()),
        }
    }
}

/// The summary constraints and the two options a [`PreparedView`] was
/// built under: [`Summary::constraints_token`],
/// [`CanonOpts::use_strong`] and [`RewriteOpts::max_members`].
type PrepStamp = ((u64, u64, u64), bool, usize);

/// Everything a base pair needs of a view that no query changes, kept on
/// the [`View`] ([`View::derived`]) so that every run over the same
/// summary constraints — a service's next request, the advisor's next
/// probe, the next epoch's first ranking — finds it instead of deriving
/// it again.
struct PreparedView {
    stamp: PrepStamp,
    /// Associated paths of the flat pattern's non-root nodes: the view
    /// side of the Prop 3.4 relatedness test.
    vpaths: Vec<Vec<NodeId>>,
    /// The pair of the bare scan — flat plan, column layout, deduplicated
    /// members — before its §4.6 derived columns; `views` is left for the
    /// run to fill in. `None` when the view can seed no pair under these
    /// options (canonical model empty or truncated, too many members).
    base: Option<Pair>,
}

/// Rewrites `q` over `views` under `s`. See module docs. Scan
/// cardinalities are *estimated* from the summary (definition-only
/// [`DefCards`]); build a [`Rewriter`] with
/// [`Rewriter::with_card_source`] when materialized extent sizes are
/// available, and [`Rewriter::with_feedback`] to rank on observed
/// cardinalities.
///
/// ```
/// use smv_core::{rewrite, RewriteOpts};
/// use smv_pattern::parse_pattern;
/// use smv_summary::Summary;
/// use smv_views::View;
/// use smv_xml::{Document, IdScheme};
///
/// let doc = Document::from_parens(r#"site(item(name="pen") item(name="ink"))"#);
/// let summary = Summary::of(&doc);
/// let view = View::new("v", parse_pattern("site(//*{id,l,v})").unwrap(), IdScheme::OrdPath);
/// let query = parse_pattern("site(//name{id,v})").unwrap();
/// let result = rewrite(&query, &[view], &summary, &RewriteOpts::default());
/// assert!(!result.rewritings.is_empty(), "the wildcard view serves the query");
/// ```
pub fn rewrite(q: &Pattern, views: &[View], s: &Summary, opts: &RewriteOpts) -> RewriteResult {
    Rewriter::new(q, views, s, opts.clone()).run()
}

/// Estimated work of the cheapest S-equivalent rewriting of `q` over
/// `views`, or `None` when the bounded search finds no rewriting.
///
/// This is the probe the view advisor drives while scoring candidate
/// view sets: cost ranking and the branch-and-bound bound are forced on,
/// nothing is materialized (pass `DefCards` for definition-only pricing),
/// and only the winning plan's estimate is returned.
pub fn best_rewriting_cost(
    q: &Pattern,
    views: &[View],
    s: &Summary,
    opts: &RewriteOpts,
    cards: &dyn CardSource,
) -> Option<f64> {
    if views.is_empty() {
        return None;
    }
    let mut o = opts.clone();
    o.rank_by_cost = true;
    o.cost_prune = true;
    o.first_only = false; // the contract is *cheapest*, not first-found
    let r = Rewriter::new(q, views, s, o).with_card_source(cards).run();
    r.rewritings.first().map(|rw| rw.est.cost)
}

/// The rewriting engine (reusable across runs for benchmarks).
pub struct Rewriter<'a> {
    q: &'a Pattern,
    views: &'a [View],
    s: &'a Summary,
    opts: RewriteOpts,
    cards: Option<&'a dyn CardSource>,
    feedback: Option<&'a FeedbackStore>,
}

impl<'a> Rewriter<'a> {
    /// Creates an engine.
    pub fn new(q: &'a Pattern, views: &'a [View], s: &'a Summary, opts: RewriteOpts) -> Self {
        Rewriter {
            q,
            views,
            s,
            opts,
            cards: None,
            feedback: None,
        }
    }

    /// Supplies scan cardinalities (defaults to definition-only
    /// estimates).
    pub fn with_card_source(mut self, cards: &'a dyn CardSource) -> Self {
        self.cards = Some(cards);
        self
    }

    /// Supplies runtime feedback: the cost model prefers the store's
    /// memoized selectivities over its static guesses.
    pub fn with_feedback(mut self, feedback: &'a FeedbackStore) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Runs Algorithm 1.
    pub fn run(&self) -> RewriteResult {
        let t0 = Instant::now();
        let mut run_span = smv_obs::SpanGuard::enter("rewrite.run");
        let mut setup_span = smv_obs::SpanGuard::enter("rewrite.setup");
        let mut result = RewriteResult::default();
        result.stats.views_total = self.views.len();

        let qf = self.q.unnest_copy();
        let qmodel_full = canonical_model(&qf, self.s, &self.opts.canon);
        let qpaths = associated_paths(&qf, self.s);
        let out_cols = flat_out_cols(&qf);
        let mut q_all: Vec<NodeId> = Vec::new();
        for n in qf.iter().skip(1) {
            q_all.extend(qpaths[n.idx()].iter().copied());
        }
        q_all.sort();
        q_all.dedup();
        let ctx = QueryCtx {
            q: self.q,
            qf: qf.clone(),
            qmodel: qmodel_full.trees.iter().map(ModelTree::new).collect(),
            out_cols,
            returns: qf.return_nodes(),
            qpaths,
            decorated: qf.iter().any(|n| !qf.node(n).predicate.is_top()),
            q_all,
        };
        if ctx.qmodel.is_empty() {
            // unsatisfiable query: rewriting is the empty plan; report none
            result.stats.total = t0.elapsed();
            return result;
        }

        // cost model: supplied cardinalities, or definition-only estimates
        let def_cards = DefCards::new(self.views, self.s);
        let cards: &dyn CardSource = self.cards.unwrap_or(&def_cards);
        let mut model = CostModel::new(self.s, cards);
        if let Some(fb) = self.feedback {
            model = model.with_feedback(fb);
        }

        // ---- setup: base pairs (M0), Prop 3.4 pruning, derived columns
        let stamp: PrepStamp = (
            self.s.constraints_token(),
            self.opts.canon.use_strong,
            self.opts.max_members,
        );
        let mut m0: Vec<Pair> = Vec::new();
        for (vi, v) in self.views.iter().enumerate() {
            let (prep, built) = v.derived(
                |p: &PreparedView| p.stamp == stamp,
                || self.prepare(v, stamp),
            );
            if built {
                result.stats.prepared_built += 1;
            } else {
                result.stats.prepared_reused += 1;
            }
            if let Some(mut pair) = self.base_pair(vi, v, &prep, &ctx) {
                pair.estimate(&model);
                m0.push(pair);
            }
        }
        if self.opts.rank_by_cost {
            // cheapest-first exploration: the first rewriting found is
            // already a good one, shrinking time-to-first-rewriting and
            // tightening the branch-and-bound bound early
            m0.sort_by(|a, b| a.cost.total_cmp(&b.cost));
        }
        result.stats.views_kept = m0.len();
        let suppliers = Suppliers::new(&m0, &ctx, self.views.len());
        result.stats.setup = t0.elapsed();
        setup_span.field("views_total", self.views.len() as u64);
        setup_span.field("views_kept", m0.len() as u64);
        setup_span.field("prepared_reused", result.stats.prepared_reused as u64);
        setup_span.field("prepared_built", result.stats.prepared_built as u64);
        drop(setup_span);

        // Prop 3.6 plan-size bound
        let bound = ((self.q.len().saturating_sub(1)) * self.s.len()).max(1);
        let max_scans = self.opts.max_scans.min(bound);

        // collect union candidates: (pair, designations, coverage bitset)
        let mut union_candidates: Vec<(Plan, Vec<bool>)> = Vec::new();

        let mut seen: HashSet<PairKey, FastBuild> = HashSet::default();
        let mut m: Vec<Pair> = Vec::new();
        for p in &m0 {
            #[cfg(test)]
            tests::created(p);
            seen.insert(p.key());
            m.push(p.clone());
        }

        // best complete rewriting's estimated work — the B&B upper bound
        let mut best_cost = f64::INFINITY;

        let mut verdicts = MemberVerdicts::default();
        // line 7 test on the initial single-view pairs first
        let mut emit = |pair: &Pair,
                        result: &mut RewriteResult,
                        union_candidates: &mut Vec<(Plan, Vec<bool>)>,
                        best_cost: &mut f64|
         -> bool {
            result.stats.pairs_explored += 1;
            for plan_or_cand in self.try_pair(pair, &ctx, &mut verdicts) {
                match plan_or_cand {
                    Candidate::Equivalent(plan) => {
                        if result.stats.first_rewriting.is_none() {
                            result.stats.first_rewriting = Some(t0.elapsed());
                        }
                        let est = model.estimate(&plan);
                        *best_cost = best_cost.min(est.cost);
                        result.rewritings.push(Rewriting {
                            scans: plan.scan_count(),
                            plan,
                            est,
                        });
                        if self.opts.first_only
                            || result.rewritings.len() >= self.opts.max_rewritings
                        {
                            return true; // stop the whole search
                        }
                    }
                    Candidate::Partial(plan, coverage) => {
                        if union_candidates.len() < 64 {
                            union_candidates.push((plan, coverage));
                        }
                    }
                }
            }
            false
        };

        // a returned column no base pair supplies: no pair passes line 7
        let mut stop = suppliers.some_unsupplied()
            || m0
                .iter()
                .any(|pair| emit(pair, &mut result, &mut union_candidates, &mut best_cost));

        // ---- lines 2-11: left-deep join enumeration to a fixpoint
        let mut frontier = 0usize;
        while !stop && frontier < m.len() {
            let i = frontier;
            frontier += 1;
            if m[i].plan.scan_count() >= max_scans {
                continue;
            }
            // B&B on the prefix: every extension joins in more base pairs,
            // one for each column the prefix does not supply yet
            if self.opts.cost_prune && suppliers.bound(&m[i]) >= best_cost {
                result.stats.pairs_pruned += 1;
                continue;
            }
            // m[i] has fewer than `max_scans` scans and a base pair one, so
            // every join below is within the bound
            let mut created: Vec<Pair> = Vec::new();
            for base in &m0 {
                let joins = self.join_options(&m[i], base);
                result.stats.pairs_deduped += joins.repeats;
                result.stats.joins_built += joins.built.len();
                for mut joined in joins.built {
                    #[cfg(test)]
                    tests::created(&joined);
                    // Prop 3.5: no new pattern information. Dedup before
                    // costing so a dominated pair is estimated and counted
                    // as pruned once, not once per deriving prefix.
                    if !seen.insert(joined.key()) {
                        result.stats.pairs_deduped += 1;
                        continue;
                    }
                    joined.estimate(&model);
                    // B&B on the freshly created pair (dominated before it
                    // is ever tested or expanded)
                    if self.opts.cost_prune && suppliers.bound(&joined) >= best_cost {
                        result.stats.pairs_pruned += 1;
                        continue;
                    }
                    created.push(joined);
                }
            }
            for pair in created {
                if emit(&pair, &mut result, &mut union_candidates, &mut best_cost) {
                    stop = true;
                    break;
                }
                if m.len() < self.opts.max_pairs {
                    m.push(pair);
                }
            }
        }

        result.stats.member_tests = verdicts.memo.len();
        result.stats.member_tests_reused = verdicts.reused;

        // ---- lines 13-14: minimal unions of partial candidates
        if !stop && result.rewritings.len() < self.opts.max_rewritings {
            self.build_unions(&ctx, &union_candidates, &mut result, t0, &model);
        }

        if self.opts.rank_by_cost {
            // rank cheapest-first; stable sort keeps discovery order on ties
            result
                .rewritings
                .sort_by(|a, b| a.est.cost.total_cmp(&b.est.cost));
        }
        result.stats.total = t0.elapsed();
        run_span.field("pairs_explored", result.stats.pairs_explored as u64);
        run_span.field("pairs_pruned", result.stats.pairs_pruned as u64);
        run_span.field("pairs_deduped", result.stats.pairs_deduped as u64);
        run_span.field("joins_built", result.stats.joins_built as u64);
        run_span.field("member_tests", result.stats.member_tests as u64);
        run_span.field(
            "member_tests_reused",
            result.stats.member_tests_reused as u64,
        );
        run_span.field("rewritings", result.rewritings.len() as u64);
        drop(run_span);
        smv_obs::counter_add("rewrite.pairs_explored", result.stats.pairs_explored as u64);
        smv_obs::counter_add("rewrite.pairs_pruned", result.stats.pairs_pruned as u64);
        smv_obs::counter_add("rewrite.pairs_deduped", result.stats.pairs_deduped as u64);
        smv_obs::counter_add("rewrite.joins_built", result.stats.joins_built as u64);
        smv_obs::counter_add("rewrite.member_tests", result.stats.member_tests as u64);
        smv_obs::counter_add(
            "rewrite.member_tests_reused",
            result.stats.member_tests_reused as u64,
        );
        smv_obs::counter_add("rewrite.rewritings_found", result.rewritings.len() as u64);
        smv_obs::counter_add(
            "rewrite.prepared_reused",
            result.stats.prepared_reused as u64,
        );
        smv_obs::counter_add("rewrite.prepared_built", result.stats.prepared_built as u64);
        smv_obs::observe("rewrite.total_ns", result.stats.total.as_nanos() as u64);
        result
    }

    /// The query-independent half of a base pair: flatten the pattern and
    /// its nested columns, take the associated paths, enumerate and
    /// deduplicate the members. Reads the view, the summary's structure
    /// and strong edges, and the two options in `stamp` — nothing of the
    /// query.
    fn prepare(&self, v: &View, stamp: PrepStamp) -> PreparedView {
        let pf = v.pattern.unnest_copy();
        let mut vpaths = associated_paths(&pf, self.s);
        vpaths.remove(0);
        PreparedView {
            stamp,
            vpaths,
            base: self.scan_pair(v, &pf),
        }
    }

    /// The (plan, pattern) pair of `v`'s bare scan, `pf` its flat pattern.
    fn scan_pair(&self, v: &View, pf: &Pattern) -> Option<Pair> {
        // members from the canonical model of the flat pattern (strong
        // closure matches the conformance regime of the equivalence test)
        let model = canonical_model(
            pf,
            self.s,
            &CanonOpts {
                use_strong: self.opts.canon.use_strong,
                max_trees: self.opts.max_members * 8,
            },
        );
        if model.truncated || model.trees.is_empty() {
            return None;
        }
        // plan: scan + outer-unnest every nested column
        let mut plan = Plan::Scan {
            view: v.name.clone(),
        };
        let mut schema = schema_of(&v.pattern);
        while let Some(i) = schema
            .cols
            .iter()
            .position(|c| matches!(c.kind, ColKind::Nested(_)))
        {
            let ColKind::Nested(inner) = schema.cols[i].kind.clone() else {
                unreachable!()
            };
            plan = Plan::Unnest {
                input: Box::new(plan),
                col: i,
                outer: true,
            };
            let mut cols = schema.cols[..i].to_vec();
            cols.extend(inner.cols);
            cols.extend(schema.cols[i + 1..].iter().cloned());
            schema = smv_algebra::Schema { cols };
        }
        // flat column metadata: return nodes in pre-order × attr order
        let returns = pf.return_nodes();
        let mut cols: Vec<ColInfo> = Vec::new();
        let mut groups: Vec<u32> = Vec::new();
        let mut ret_col_ranges: Vec<(usize, usize)> = Vec::new();
        for (g, &r) in returns.iter().enumerate() {
            let start = cols.len();
            let a = pf.node(r).attrs;
            for kind in [
                AttrKind::Id,
                AttrKind::Label,
                AttrKind::Value,
                AttrKind::Content,
            ] {
                let stored = match kind {
                    AttrKind::Id => a.id,
                    AttrKind::Label => a.label,
                    AttrKind::Value => a.value,
                    AttrKind::Content => a.content,
                };
                if stored {
                    cols.push(ColInfo {
                        attr: kind,
                        scheme: v.scheme,
                        derived: false,
                    });
                    groups.push(g as u32);
                }
            }
            ret_col_ranges.push((start, cols.len()));
        }
        debug_assert_eq!(cols.len(), schema.cols.len(), "flat layout mismatch");
        let mut members: Vec<Member> = Vec::new();
        for t in &model.trees {
            let rp = t.return_paths();
            let mut col_path = Vec::with_capacity(cols.len());
            for (g, _) in returns.iter().enumerate() {
                let (a, b) = ret_col_ranges[g];
                for _ in a..b {
                    col_path.push(rp[g]);
                }
            }
            members.push(Member {
                nodes: NodeSet::of_tree(t),
                col_path,
            });
        }
        dedup_members(&mut members);
        if members.len() > self.opts.max_members {
            return None;
        }
        Some(Pair {
            plan,
            cols,
            groups,
            members,
            views: Vec::new(),
            cost: 0.0,
            rows: 0.0,
        })
    }

    /// The base (plan, pattern) pair of view `vi` for this query: prune by
    /// Prop 3.4, take the prepared scan pair (members shared, not copied),
    /// add the §4.6 derived columns the query can use.
    fn base_pair(
        &self,
        vi: usize,
        v: &View,
        prep: &PreparedView,
        ctx: &QueryCtx<'_>,
    ) -> Option<Pair> {
        // Prop 3.4: every non-root view node unrelated to every non-root
        // query node ⇒ the view is useless.
        let related = prep
            .vpaths
            .iter()
            .any(|ps| !smv_pattern::annotate::unrelated_to(self.s, ps, &ctx.q_all));
        if !prep.vpaths.is_empty() && !related {
            return None;
        }
        let mut pair = prep.base.clone()?;
        pair.views = vec![vi];
        if v.scheme.derives_parent() {
            self.add_virtual_ids(&mut pair, ctx);
        }
        if self.opts.enable_content_navigation {
            self.add_content_navigation(&mut pair, ctx);
        }
        Some(pair)
    }

    /// §4.6 virtual IDs: for each stored structural ID column, derive
    /// ancestor IDs at the levels that land on query-relevant paths.
    fn add_virtual_ids(&self, pair: &mut Pair, ctx: &QueryCtx<'_>) {
        let useful: HashSet<NodeId> = ctx
            .returns
            .iter()
            .flat_map(|r| ctx.qpaths[r.idx()].iter().copied())
            .collect();
        let base_cols: Vec<usize> = (0..pair.cols.len())
            .filter(|&c| pair.cols[c].attr == AttrKind::Id)
            .collect();
        let mut next_group = pair.groups.iter().copied().max().unwrap_or(0) + 1;
        for c in base_cols {
            for level in 1..=4usize {
                // derived path per member; useful if any lands on a query path
                let derived: Vec<Option<NodeId>> = pair
                    .members
                    .iter()
                    .map(|m| {
                        m.col_path[c].and_then(|p| {
                            let mut cur = p;
                            for _ in 0..level {
                                cur = self.s.parent(cur)?;
                            }
                            Some(cur)
                        })
                    })
                    .collect();
                if !derived.iter().flatten().any(|p| useful.contains(p)) {
                    continue;
                }
                pair.plan = Plan::DeriveParentId {
                    input: Box::new(pair.plan.clone()),
                    col: c,
                    levels: level,
                    name: Symbol::intern(&format!("vid{c}u{level}")),
                };
                pair.cols.push(ColInfo {
                    attr: AttrKind::Id,
                    scheme: pair.cols[c].scheme,
                    derived: true,
                });
                pair.groups.push(next_group);
                next_group += 1;
                for (m, d) in pair.members.iter_mut().zip(derived) {
                    m.col_path.push(d);
                }
            }
        }
    }

    /// §4.6 C-unfolding, restricted to summary paths associated with some
    /// query node: each unfolded path becomes a set of derived columns
    /// produced by `NavigateContent`.
    fn add_content_navigation(&self, pair: &mut Pair, ctx: &QueryCtx<'_>) {
        let useful: HashSet<NodeId> = ctx
            .qf
            .iter()
            .flat_map(|n| ctx.qpaths[n.idx()].iter().copied())
            .collect();
        let content_cols: Vec<usize> = (0..pair.cols.len())
            .filter(|&c| pair.cols[c].attr == AttrKind::Content)
            .collect();
        let mut next_group = pair.groups.iter().copied().max().unwrap_or(0) + 1;
        let mut nav_count = 0usize;
        for c in content_cols {
            // single-path content columns only: a column bound on several
            // summary paths would need §4.6's union decomposition, one
            // unfolding per path, which this rewriter does not build
            let paths: HashSet<Option<NodeId>> =
                pair.members.iter().map(|m| m.col_path[c]).collect();
            let bound: Vec<NodeId> = paths.iter().copied().flatten().collect();
            if bound.len() != 1 {
                continue;
            }
            let base = bound[0];
            // ID base column from the same group, if any
            let base_id_col = (0..pair.cols.len()).find(|&k| {
                pair.groups[k] == pair.groups[c]
                    && pair.cols[k].attr == AttrKind::Id
                    && pair.cols[k].scheme.derives_parent()
            });
            // descendants of `base` that the query cares about
            let mut targets: Vec<NodeId> = useful
                .iter()
                .copied()
                .filter(|&u| self.s.is_ancestor(base, u))
                .collect();
            targets.sort();
            for sd in targets {
                if nav_count >= 4 || pair.members.len() * 2 > self.opts.max_members {
                    return;
                }
                nav_count += 1;
                // child-axis step chain base → sd
                let chain = chain_labels(self.s, base, sd);
                let steps: Vec<NavStep> = chain
                    .iter()
                    .map(|&p| NavStep {
                        axis: Axis::Child,
                        label: Some(self.s.label(p)),
                    })
                    .collect();
                let attrs = vec![
                    AttrKind::Id,
                    AttrKind::Label,
                    AttrKind::Value,
                    AttrKind::Content,
                ];
                pair.plan = Plan::NavigateContent {
                    input: Box::new(pair.plan.clone()),
                    content_col: c,
                    base_id_col,
                    steps,
                    attrs: attrs.clone(),
                    optional: true,
                    name: Symbol::intern(&format!("nav{c}p{}", sd.0)),
                };
                let g = next_group;
                next_group += 1;
                for kind in attrs {
                    pair.cols.push(ColInfo {
                        attr: kind,
                        scheme: pair.cols[c].scheme,
                        derived: false,
                    });
                    pair.groups.push(g);
                }
                // member splitting: navigation bound vs missing
                let mut split = Vec::with_capacity(pair.members.len() * 2);
                for m in &pair.members {
                    if m.col_path[c].is_none() {
                        let mut mm = m.clone();
                        mm.col_path.extend([None, None, None, None]);
                        split.push(mm);
                        continue;
                    }
                    let mut bound_m = m.clone();
                    for p in chain_with(self.s, base, sd) {
                        bound_m.nodes.conj(p, &Formula::top());
                    }
                    bound_m
                        .col_path
                        .extend([Some(sd), Some(sd), Some(sd), Some(sd)]);
                    split.push(bound_m);
                    let mut null_m = m.clone();
                    null_m.col_path.extend([None, None, None, None]);
                    split.push(null_m);
                }
                dedup_members(&mut split);
                pair.members = split;
            }
        }
    }

    /// All joins of `a` with `b` (line 4: "each possible way of joining"),
    /// each option decided from its member combinations before it is
    /// built. An option whose combinations and column-group partition
    /// repeat an earlier option's has the same members and the same layout
    /// up to column order and group numbering — the same [`PairKey`], a
    /// certain Prop. 3.5 hit — so it is counted, not built. That catches
    /// `⋈_=` on two ID columns an earlier `⋈_=` put in one group, and
    /// `⋈_≺≺` where the summary has only parent edges between the paths.
    ///
    /// A join the member model cannot place is not an option: `⋈_=` of two
    /// derived IDs, or a structural join whose ancestor side is one. Such
    /// a join puts the two original nodes under a common ancestor but on no
    /// common chain, and the merged member's path set then merges distinct
    /// nodes below that ancestor.
    fn join_options(&self, a: &Pair, b: &Pair) -> Joins {
        let mut joins = Joins {
            built: Vec::new(),
            repeats: 0,
        };
        let mut tried: Vec<Tried> = Vec::new();
        let a_ids: Vec<usize> = (0..a.cols.len())
            .filter(|&c| a.cols[c].attr == AttrKind::Id)
            .collect();
        let b_ids: Vec<usize> = (0..b.cols.len())
            .filter(|&c| b.cols[c].attr == AttrKind::Id)
            .collect();
        for &ca in &a_ids {
            for &cb in &b_ids {
                if a.cols[ca].scheme != b.cols[cb].scheme {
                    continue;
                }
                let kinds: &[JoinKind] = if a.cols[ca].scheme.is_structural() {
                    &JOIN_KINDS
                } else {
                    &JOIN_KINDS[..1]
                };
                let derived = (a.cols[ca].derived, b.cols[cb].derived);
                for &kind in kinds {
                    let unplaced = match kind {
                        JoinKind::IdEq => derived.0 && derived.1,
                        JoinKind::Struct(_, false) => derived.0,
                        JoinKind::Struct(_, true) => derived.1,
                    };
                    if unplaced {
                        continue;
                    }
                    let combos = self.combinations(a, b, ca, cb, kind);
                    if combos.is_empty() {
                        continue; // no two members join
                    }
                    let merged = (kind == JoinKind::IdEq).then(|| (a.groups[ca], b.groups[cb]));
                    if let Some(earlier) = tried
                        .iter()
                        .find(|t| t.merged == merged && t.combos == combos)
                        .map(|t| t.built)
                    {
                        #[cfg(test)]
                        if tests::building_repeats() {
                            let pair = self.merge(a, b, ca, cb, kind, &combos);
                            tests::check_repeat(earlier.map(|e| &joins.built[e]), pair.as_ref());
                            joins.built.extend(pair);
                            continue;
                        }
                        joins.repeats += usize::from(earlier.is_some());
                        continue;
                    }
                    let pair = self.merge(a, b, ca, cb, kind, &combos);
                    tried.push(Tried {
                        merged,
                        combos,
                        built: pair.as_ref().map(|_| joins.built.len()),
                    });
                    joins.built.extend(pair);
                }
            }
        }
        joins
    }

    /// The member combinations `(i, j)` of `a.members × b.members` whose
    /// column paths pass `kind`'s path test on `ca`, `cb`, in merge order.
    fn combinations(
        &self,
        a: &Pair,
        b: &Pair,
        ca: usize,
        cb: usize,
        kind: JoinKind,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, ma) in a.members.iter().enumerate() {
            let Some(pa) = ma.col_path[ca] else {
                continue; // nulls never join
            };
            for (j, mb) in b.members.iter().enumerate() {
                let Some(pb) = mb.col_path[cb] else {
                    continue;
                };
                let ok = match kind {
                    JoinKind::IdEq => pa == pb,
                    JoinKind::Struct(StructRel::Parent, false) => self.s.is_parent(pa, pb),
                    JoinKind::Struct(StructRel::Ancestor, false) => self.s.is_ancestor(pa, pb),
                    JoinKind::Struct(StructRel::Parent, true) => self.s.is_parent(pb, pa),
                    JoinKind::Struct(StructRel::Ancestor, true) => self.s.is_ancestor(pb, pa),
                };
                if ok {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Builds the join of `a` and `b` on `ca`, `cb` from its surviving
    /// member `combos`: merges each combination's members (dropping the
    /// unsatisfiable ones), then makes the plan and the column layout.
    fn merge(
        &self,
        a: &Pair,
        b: &Pair,
        ca: usize,
        cb: usize,
        kind: JoinKind,
        combos: &[(usize, usize)],
    ) -> Option<Pair> {
        let mut members = Vec::with_capacity(combos.len());
        for &(i, j) in combos {
            let (ma, mb) = (&a.members[i], &b.members[j]);
            let Some(nodes) = merge_nodes(&ma.nodes, &mb.nodes) else {
                continue;
            };
            let mut col_path = ma.col_path.clone();
            col_path.extend(mb.col_path.iter().copied());
            members.push(Member { nodes, col_path });
        }
        if members.is_empty() {
            return None; // S-unsatisfiable join — discarded (line 5 remark)
        }
        dedup_members(&mut members);
        if members.len() > self.opts.max_members {
            return None;
        }
        let plan = match kind {
            JoinKind::IdEq => Plan::IdJoin {
                left: Box::new(a.plan.clone()),
                right: Box::new(b.plan.clone()),
                lcol: ca,
                rcol: cb,
            },
            JoinKind::Struct(rel, false) => Plan::StructJoin {
                left: Box::new(a.plan.clone()),
                right: Box::new(b.plan.clone()),
                lcol: ca,
                rcol: cb,
                rel,
            },
            JoinKind::Struct(rel, true) => Plan::StructJoin {
                // descendant side on the left input: swap roles by joining
                // b as the ancestor side, then the schema order is b ++ a;
                // to keep column order a ++ b we instead keep a left and
                // express the reversed relation by swapping operands.
                left: Box::new(b.plan.clone()),
                right: Box::new(a.plan.clone()),
                lcol: cb,
                rcol: ca,
                rel,
            },
        };
        // reversed struct joins put b's columns first
        let (cols, groups, members) = if matches!(kind, JoinKind::Struct(_, true)) {
            let mut cols = b.cols.clone();
            cols.extend(a.cols.iter().cloned());
            let mut groups = b.groups.clone();
            let off = groups.iter().copied().max().unwrap_or(0) + 1;
            groups.extend(a.groups.iter().map(|g| g + off));
            let members = members
                .into_iter()
                .map(|m| {
                    // member col_path was built a ++ b; rotate to b ++ a
                    let (av, bv) = m.col_path.split_at(a.cols.len());
                    let mut cp = bv.to_vec();
                    cp.extend(av.iter().copied());
                    Member {
                        nodes: m.nodes,
                        col_path: cp,
                    }
                })
                .collect();
            (cols, groups, members)
        } else {
            let mut cols = a.cols.clone();
            cols.extend(b.cols.iter().cloned());
            let mut groups = a.groups.clone();
            let off = groups.iter().copied().max().unwrap_or(0) + 1;
            let mut bg: Vec<u32> = b.groups.iter().map(|g| g + off).collect();
            if kind == JoinKind::IdEq {
                // same node on both sides: merge the groups
                let target = groups[ca];
                let src = bg[cb];
                for g in &mut bg {
                    if *g == src {
                        *g = target;
                    }
                }
            }
            groups.extend(bg);
            (cols, groups, members)
        };
        let mut views = a.views.clone();
        views.extend(b.views.iter().copied());
        views.sort_unstable();
        views.dedup();
        Some(Pair {
            plan,
            cols,
            groups,
            members,
            views,
            cost: 0.0,
            rows: 0.0,
        })
    }

    /// Line 7: tests a pair against the query for every admissible output
    /// column assignment; returns full rewritings and union candidates.
    fn try_pair(
        &self,
        pair: &Pair,
        ctx: &QueryCtx<'_>,
        verdicts: &mut MemberVerdicts,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        // candidate groups per query return node (Prop 3.7 + Prop 4.1)
        let mut cand_groups: Vec<Vec<u32>> = Vec::new();
        for &r in &ctx.returns {
            let want = ctx.qf.node(r).attrs;
            let rp = &ctx.qpaths[r.idx()];
            let mut groups: Vec<u32> = Vec::new();
            let all_groups: HashSet<u32> = pair.groups.iter().copied().collect();
            'g: for g in all_groups {
                let g_cols: Vec<usize> = (0..pair.cols.len())
                    .filter(|&c| pair.groups[c] == g)
                    .collect();
                // every wanted attr offered?
                for kind in [
                    AttrKind::Id,
                    AttrKind::Label,
                    AttrKind::Value,
                    AttrKind::Content,
                ] {
                    let need = match kind {
                        AttrKind::Id => want.id,
                        AttrKind::Label => want.label,
                        AttrKind::Value => want.value,
                        AttrKind::Content => want.content,
                    };
                    if need && !g_cols.iter().any(|&c| pair.cols[c].attr == kind) {
                        continue 'g;
                    }
                }
                // Prop 3.7 (relaxed pre-σ form): some member must bind the
                // column on a query-compatible path; members on other
                // paths may still be filtered by the σ adaptations, so the
                // strict subset check is left to the equivalence test.
                let some_compatible = pair
                    .members
                    .iter()
                    .any(|m| m.col_path[g_cols[0]].is_some_and(|p| rp.contains(&p)));
                if !some_compatible {
                    continue 'g;
                }
                groups.push(g);
            }
            if groups.is_empty() {
                return out;
            }
            groups.sort_unstable();
            cand_groups.push(groups);
        }
        // enumerate assignments (bounded product). Distinct query return
        // nodes must take **distinct** column groups: two returns on the
        // same summary path may still bind different document nodes, and
        // reusing one column would silently equate them (collapsing the
        // (x, y) tuples of q into (x, x)).
        let mut combos: Vec<Vec<u32>> = vec![Vec::new()];
        for groups in &cand_groups {
            let mut next = Vec::new();
            for c in &combos {
                for &g in groups {
                    if c.contains(&g) {
                        continue;
                    }
                    if next.len() >= 64 {
                        break;
                    }
                    let mut cc = c.clone();
                    cc.push(g);
                    next.push(cc);
                }
            }
            combos = next;
        }
        for combo in combos {
            if let Some(c) = self.test_combo(pair, ctx, &combo, verdicts) {
                let full = matches!(c, Candidate::Equivalent(_));
                out.push(c);
                if full {
                    break; // one equivalent assignment per pair suffices
                }
            }
        }
        out
    }

    /// Tests one output assignment; applies §4.6 σ-adaptations first.
    fn test_combo(
        &self,
        pair: &Pair,
        ctx: &QueryCtx<'_>,
        combo: &[u32],
        verdicts: &mut MemberVerdicts,
    ) -> Option<Candidate> {
        let mut pair = pair.clone();
        // chosen column per (return, attr) in flat output order
        let mut chosen: Vec<usize> = Vec::with_capacity(ctx.out_cols.len());
        for (r, kind) in &ctx.out_cols {
            let g = combo[ctx.returns.iter().position(|x| x == r).expect("return")];
            let c = (0..pair.cols.len())
                .find(|&c| pair.groups[c] == g && pair.cols[c].attr == *kind)?;
            chosen.push(c);
        }
        // σ adaptations per query return node
        for (ri, &r) in ctx.returns.iter().enumerate() {
            let g = combo[ri];
            let rep = (0..pair.cols.len()).find(|&c| pair.groups[c] == g)?;
            let qn = ctx.qf.node(r);
            let under_optional = node_or_ancestor_optional(&ctx.qf, r);
            // label selection (σ_{n.L=l}) when a * view column feeds a
            // labeled query node
            if let Some(l) = qn.label {
                let mismatched = pair
                    .members
                    .iter()
                    .any(|m| m.col_path[rep].is_some_and(|p| self.s.label(p) != l));
                if mismatched && !under_optional {
                    let lcol = (0..pair.cols.len())
                        .find(|&c| pair.groups[c] == g && pair.cols[c].attr == AttrKind::Label);
                    let lcol = lcol?;
                    pair.plan = Plan::Select {
                        input: Box::new(pair.plan.clone()),
                        pred: Predicate::LabelEq {
                            col: lcol,
                            label: l,
                        },
                    };
                    pair.members
                        .retain(|m| m.col_path[rep].is_none_or(|p| self.s.label(p) == l));
                    if pair.members.is_empty() {
                        return None;
                    }
                }
            }
            // value selection (σ_{φ(v)})
            if !qn.predicate.is_top() && !under_optional {
                let top = Formula::top();
                let needs = pair.members.iter().any(|m| {
                    m.col_path[rep]
                        .is_some_and(|p| !m.nodes.formula(p).unwrap_or(&top).implies(&qn.predicate))
                });
                if needs {
                    let vcol = (0..pair.cols.len())
                        .find(|&c| pair.groups[c] == g && pair.cols[c].attr == AttrKind::Value)?;
                    pair.plan = Plan::Select {
                        input: Box::new(pair.plan.clone()),
                        pred: Predicate::Value {
                            col: vcol,
                            formula: qn.predicate.clone(),
                        },
                    };
                    let mut refined = Vec::new();
                    for m in &pair.members {
                        let mut mm = m.clone();
                        if let Some(p) = mm.col_path[rep] {
                            if !mm.nodes.conj(p, &qn.predicate) {
                                continue; // unsatisfiable member filtered out
                            }
                        }
                        refined.push(mm);
                    }
                    if refined.is_empty() {
                        return None;
                    }
                    pair.members = refined;
                }
            }
        }
        // designations per member, in query-return order
        let designations: Vec<Vec<Option<NodeId>>> = pair
            .members
            .iter()
            .map(|m| {
                ctx.returns
                    .iter()
                    .enumerate()
                    .map(|(ri, _)| {
                        let g = combo[ri];
                        let rep = (0..pair.cols.len())
                            .find(|&c| pair.groups[c] == g)
                            .expect("group non-empty");
                        m.col_path[rep]
                    })
                    .collect()
            })
            .collect();

        // direction A: union of members ⊆ q (each member individually)
        for (m, des) in pair.members.iter().zip(designations.iter()) {
            let member_in_q = verdicts.get(&m.nodes, des, || {
                let te = CTree::from_path_set(
                    self.s,
                    &m.nodes.to_vec(),
                    des,
                    self.opts.canon.use_strong,
                );
                tuple_in(&ctx.qf, &te, self.s, FormulaMode::Implication)
            });
            if !member_in_q {
                return None;
            }
        }
        // direction B: every tq ∈ mod_S(q) covered by some member
        let mut coverage = vec![false; ctx.qmodel.len()];
        let mut all = true;
        for (ti, tq) in ctx.qmodel.iter().enumerate() {
            let matching: Vec<HashMap<NodeId, Formula>> = pair
                .members
                .iter()
                .zip(designations.iter())
                .filter(|(m, des)| **des == tq.ret && m.nodes.fits_in(&tq.nodes))
                .map(|(m, _)| m.formula_map())
                .collect();
            if matching.is_empty() {
                all = false;
                continue;
            }
            let formulas_matter = ctx.decorated || matching.iter().any(|m| !m.is_empty());
            if formulas_matter && !implies_disjunction(&tq.lhs, &matching) {
                all = false;
                continue;
            }
            coverage[ti] = true;
        }
        let projected = self.output_plan(&pair, ctx, &chosen)?;
        if all {
            Some(Candidate::Equivalent(projected))
        } else if coverage.iter().any(|&c| c) {
            Some(Candidate::Partial(projected, coverage))
        } else {
            None
        }
    }

    /// Builds the final plan: projection to the query's flat output, then
    /// the §4.6 nesting adaptation (group-by per nested edge, keyed on the
    /// anchor's stored ID).
    fn output_plan(&self, pair: &Pair, ctx: &QueryCtx<'_>, chosen: &[usize]) -> Option<Plan> {
        let mut plan = Plan::Project {
            input: Box::new(pair.plan.clone()),
            cols: chosen.to_vec(),
        };
        let nested: Vec<PNodeId> = ctx.q.nested_edges();
        if nested.is_empty() {
            return Some(Plan::DupElim {
                input: Box::new(plan),
            });
        }
        // every nesting anchor must expose an ID in the output
        for &c in &nested {
            let anchor = ctx.q.parent(c).expect("nested edge has a parent");
            let ok = anchor == ctx.q.root()
                || ctx
                    .out_cols
                    .iter()
                    .any(|(r, k)| *r == anchor && *k == AttrKind::Id);
            if !ok {
                return None; // "this nesting step cannot be obtained"
            }
        }
        // current layout: one slot per flat output column
        #[derive(Clone, PartialEq)]
        enum Slot {
            Flat(usize),
            Table(PNodeId),
        }
        let mut layout: Vec<Slot> = (0..ctx.out_cols.len()).map(Slot::Flat).collect();
        // deepest-first nesting
        let mut order = nested;
        order.sort_by_key(|&c| std::cmp::Reverse(depth_of(ctx.q, c)));
        for c in order {
            let in_subtree = |s: &Slot| -> bool {
                match s {
                    Slot::Flat(i) => {
                        let (r, _) = ctx.out_cols[*i];
                        r == c || ctx.q.is_ancestor(c, r)
                    }
                    Slot::Table(t) => *t == c || ctx.q.is_ancestor(c, *t),
                }
            };
            let key_cols: Vec<usize> = (0..layout.len())
                .filter(|&i| !in_subtree(&layout[i]))
                .collect();
            let nested_cols: Vec<usize> = (0..layout.len())
                .filter(|&i| in_subtree(&layout[i]))
                .collect();
            plan = Plan::Nest {
                input: Box::new(plan),
                key_cols: key_cols.clone(),
                nested_cols,
                name: Symbol::intern(&format!("A#{}", c.0)),
            };
            let mut new_layout: Vec<Slot> = key_cols.iter().map(|&i| layout[i].clone()).collect();
            new_layout.push(Slot::Table(c));
            layout = new_layout;
        }
        // final reorder to match schema_of(q)
        let target = target_layout(ctx.q);
        let perm: Option<Vec<usize>> = target
            .iter()
            .map(|t| {
                layout.iter().position(|s| match (s, t) {
                    (Slot::Flat(i), TargetSlot::Flat(r, k)) => {
                        ctx.out_cols[*i].0 == *r && ctx.out_cols[*i].1 == *k
                    }
                    (Slot::Table(a), TargetSlot::Table(b)) => a == b,
                    _ => false,
                })
            })
            .collect();
        let perm = perm?;
        Some(Plan::DupElim {
            input: Box::new(Plan::Project {
                input: Box::new(plan),
                cols: perm,
            }),
        })
    }

    /// Lines 13-14: minimal unions of partial candidates covering
    /// `mod_S(q)`, ranked by summed branch cost (cheapest union first)
    /// with dominated branches deduplicated before enumeration.
    fn build_unions(
        &self,
        ctx: &QueryCtx<'_>,
        candidates: &[(Plan, Vec<bool>)],
        result: &mut RewriteResult,
        t0: Instant,
        model: &CostModel<'_>,
    ) {
        let n = ctx.qmodel.len();
        if n == 0 || candidates.is_empty() {
            return;
        }
        let costed: Vec<(f64, Vec<bool>)> = candidates
            .iter()
            .map(|(plan, cov)| (model.estimate(plan).cost, cov.clone()))
            .collect();
        for sel in rank_union_covers(&costed).into_iter().take(4) {
            let plan = Plan::DupElim {
                input: Box::new(Plan::Union {
                    inputs: sel.iter().map(|&i| candidates[i].0.clone()).collect(),
                }),
            };
            if result.stats.first_rewriting.is_none() {
                result.stats.first_rewriting = Some(t0.elapsed());
            }
            let est = model.estimate(&plan);
            result.rewritings.push(Rewriting {
                scans: plan.scan_count(),
                plan,
                est,
            });
            if result.rewritings.len() >= self.opts.max_rewritings {
                return;
            }
        }
    }
}

/// Ranks minimal union covers of `mod_S(q)`, cheapest first.
///
/// `cands` holds, per union candidate, its estimated plan cost and its
/// per-canonical-tree coverage bitset. Candidates whose coverage is a
/// subset of a cheaper (or equally cheap, earlier) candidate's are
/// *dominated* — an overlapping branch that can only pad a union — and
/// are dropped before enumeration. Covers of size 2 are preferred (size 3
/// only when no pair covers), non-minimal covers are discarded, and the
/// survivors are ordered by summed branch cost.
fn rank_union_covers(cands: &[(f64, Vec<bool>)]) -> Vec<Vec<usize>> {
    let k = cands.len();
    if k == 0 {
        return Vec::new();
    }
    let n = cands[0].1.len();
    let subset = |a: &[bool], b: &[bool]| a.iter().zip(b).all(|(x, y)| !*x || *y);
    let mut alive: Vec<usize> = Vec::new();
    'cand: for i in 0..k {
        for j in 0..k {
            if i == j || !subset(&cands[i].1, &cands[j].1) {
                continue;
            }
            let cheaper = cands[j].0 < cands[i].0;
            let tie = cands[j].0 == cands[i].0 && (!subset(&cands[j].1, &cands[i].1) || j < i);
            if cheaper || tie {
                continue 'cand; // i is dominated by j
            }
        }
        alive.push(i);
    }
    let covers = |sel: &[usize]| (0..n).all(|t| sel.iter().any(|&i| cands[i].1[t]));
    let mut found: Vec<Vec<usize>> = Vec::new();
    for (a, &i) in alive.iter().enumerate() {
        for &j in &alive[a + 1..] {
            if covers(&[i, j]) {
                found.push(vec![i, j]);
            }
        }
    }
    if found.is_empty() {
        for (a, &i) in alive.iter().enumerate() {
            for (b, &j) in alive.iter().enumerate().skip(a + 1) {
                for &l in &alive[b + 1..] {
                    if covers(&[i, j, l]) {
                        found.push(vec![i, j, l]);
                    }
                }
            }
        }
    }
    // minimality: drop covers that still cover with a branch removed
    found.retain(|sel| {
        (0..sel.len()).all(|drop| {
            let sub: Vec<usize> = sel
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, &x)| x)
                .collect();
            !covers(&sub)
        })
    });
    found.sort_by(|a, b| {
        let ca: f64 = a.iter().map(|&i| cands[i].0).sum();
        let cb: f64 = b.iter().map(|&i| cands[i].0).sum();
        ca.total_cmp(&cb)
    });
    found
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    IdEq,
    /// (relation, reversed): reversed means the *b* side is the ancestor.
    Struct(StructRel, bool),
}

/// The joins tried per ID column pair, in order; the structural ones only
/// on a structural ID scheme.
const JOIN_KINDS: [JoinKind; 5] = [
    JoinKind::IdEq,
    JoinKind::Struct(StructRel::Parent, false),
    JoinKind::Struct(StructRel::Parent, true),
    JoinKind::Struct(StructRel::Ancestor, false),
    JoinKind::Struct(StructRel::Ancestor, true),
];

/// The joins of one expansion `a ⋈ b` ([`Rewriter::join_options`]).
struct Joins {
    /// The pairs built, in option order.
    built: Vec<Pair>,
    /// Options that repeat an earlier option's key and were not built.
    repeats: usize,
}

/// An option [`Rewriter::join_options`] has decided.
struct Tried {
    /// The column groups it merges into one: `a`'s and `b`'s joined
    /// columns' for a `⋈_=`, none for a structural join.
    merged: Option<(u32, u32)>,
    /// Its member combinations.
    combos: Vec<(usize, usize)>,
    /// Where its pair is in [`Joins::built`], if it built one.
    built: Option<usize>,
}

enum Candidate {
    Equivalent(Plan),
    Partial(Plan, Vec<bool>),
}

/// Flat output columns of the query: (return node, attr) in schema order.
fn flat_out_cols(qf: &Pattern) -> Vec<(PNodeId, AttrKind)> {
    let mut out = Vec::new();
    for r in qf.return_nodes() {
        let a = qf.node(r).attrs;
        if a.id {
            out.push((r, AttrKind::Id));
        }
        if a.label {
            out.push((r, AttrKind::Label));
        }
        if a.value {
            out.push((r, AttrKind::Value));
        }
        if a.content {
            out.push((r, AttrKind::Content));
        }
        if !a.any() {
            // bare `ret` nodes need an identity; require ID semantics
            out.push((r, AttrKind::Id));
        }
    }
    out
}

enum TargetSlot {
    Flat(PNodeId, AttrKind),
    Table(PNodeId),
}

/// The top-level slot layout of `schema_of(q)`.
fn target_layout(q: &Pattern) -> Vec<TargetSlot> {
    fn rec(q: &Pattern, n: PNodeId, out: &mut Vec<TargetSlot>) {
        let a = q.node(n).attrs;
        if a.id || q.node(n).ret && !a.any() {
            out.push(TargetSlot::Flat(n, AttrKind::Id));
        }
        if a.label {
            out.push(TargetSlot::Flat(n, AttrKind::Label));
        }
        if a.value {
            out.push(TargetSlot::Flat(n, AttrKind::Value));
        }
        if a.content {
            out.push(TargetSlot::Flat(n, AttrKind::Content));
        }
        for &c in q.children(n) {
            if q.node(c).nested {
                out.push(TargetSlot::Table(c));
            } else {
                rec(q, c, out);
            }
        }
    }
    let mut out = Vec::new();
    rec(q, q.root(), &mut out);
    out
}

fn depth_of(p: &Pattern, n: PNodeId) -> usize {
    let mut d = 0;
    let mut cur = n;
    while let Some(par) = p.parent(cur) {
        d += 1;
        cur = par;
    }
    d
}

fn node_or_ancestor_optional(p: &Pattern, n: PNodeId) -> bool {
    let mut cur = Some(n);
    while let Some(x) = cur {
        if p.node(x).optional {
            return true;
        }
        cur = p.parent(x);
    }
    false
}

/// `a ∧ b`: the union of the paths, a path on one side only keeping its
/// formula, a shared path taking the conjunction. `None` when a formula of
/// `b`, or a conjunction, is unsatisfiable — exactly when
/// [`NodeSet::conj`]-ing every path of `b` into `a` fails. The paths are
/// OR-ed word by word; only the formula lists are walked, in one pass.
fn merge_nodes(a: &NodeSet, b: &NodeSet) -> Option<NodeSet> {
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
fn dedup_members(members: &mut Vec<Member>) {
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

/// The chain of summary nodes strictly between `a` (exclusive) and `b`
/// (inclusive).
fn chain_labels(s: &Summary, a: NodeId, b: NodeId) -> Vec<NodeId> {
    use smv_xml::LabeledTree;
    s.tree_chain_down(a, b)
}

/// The chain including intermediate nodes, used for member extension.
fn chain_with(s: &Summary, a: NodeId, b: NodeId) -> Vec<NodeId> {
    chain_labels(s, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smv_algebra::{execute_with, ExecOpts};
    use smv_pattern::parse_pattern;
    use smv_views::{materialize, EpochCatalog, RefreshPolicy};
    use smv_xml::{Document, Value};
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;

    fn opts() -> RewriteOpts {
        RewriteOpts::default()
    }

    thread_local! {
        /// Every pair `Rewriter::run` creates on this thread — its base
        /// pairs and every join it builds — while a test is recording.
        static CREATED: RefCell<Option<Vec<Pair>>> = const { RefCell::new(None) };
    }

    /// `Rewriter::run`'s hook: records `p` if this thread is recording.
    pub(super) fn created(p: &Pair) {
        CREATED.with(|c| {
            if let Some(v) = c.borrow_mut().as_mut() {
                v.push(p.clone());
            }
        });
    }

    /// Runs `f`, returning every pair the rewriter created meanwhile.
    fn recording(f: impl FnOnce()) -> Vec<Pair> {
        CREATED.with(|c| *c.borrow_mut() = Some(Vec::new()));
        f();
        CREATED.with(|c| c.borrow_mut().take()).unwrap_or_default()
    }

    thread_local! {
        /// While set, `join_options` builds every option it recognizes as
        /// a repeat and hands it to the search like any other join, as
        /// before the pre-merge test — after checking that it carries the
        /// key of the option it repeats.
        static BUILD_REPEATS: Cell<bool> = const { Cell::new(false) };
    }

    /// `join_options`'s hook: is this thread building repeats?
    pub(super) fn building_repeats() -> bool {
        BUILD_REPEATS.with(Cell::get)
    }

    /// `join_options`'s check of a repeat it built against the pair of the
    /// earlier option it matched: both absent, or both present with equal
    /// keys and equal text fingerprints.
    pub(super) fn check_repeat(earlier: Option<&Pair>, repeat: Option<&Pair>) {
        match (earlier, repeat) {
            (None, None) => {}
            (Some(e), Some(r)) => {
                assert!(e.key() == r.key(), "a repeat keys apart from its match");
                assert_eq!(oracle_fingerprint(e), oracle_fingerprint(r));
            }
            (e, r) => panic!(
                "one of an option and its repeat built no pair: {} vs {}",
                e.is_some(),
                r.is_some()
            ),
        }
    }

    /// Runs `f` with every repeat built, returning what it returns.
    fn building_every_join<T>(f: impl FnOnce() -> T) -> T {
        BUILD_REPEATS.with(|b| b.set(true));
        let out = f();
        BUILD_REPEATS.with(|b| b.set(false));
        out
    }

    /// The text identity `Pair::key` replaced (PR 21), kept as the oracle
    /// the structural keys must partition pairs exactly like.
    fn oracle_signature(m: &Member) -> String {
        let mut s = String::new();
        for (n, f) in m.nodes.to_vec() {
            s.push_str(&n.0.to_string());
            if !f.is_top() {
                s.push('[');
                s.push_str(&f.to_string());
                s.push(']');
            }
            s.push(' ');
        }
        s
    }

    fn oracle_fingerprint(p: &Pair) -> String {
        let mut msigs: Vec<String> = p
            .members
            .iter()
            .map(|m| {
                let mut s = oracle_signature(m);
                s.push('|');
                let mut per_group: HashMap<u32, Vec<String>> = HashMap::new();
                for (c, info) in p.cols.iter().enumerate() {
                    per_group
                        .entry(p.groups[c])
                        .or_default()
                        .push(format!("{}@{:?}", info.attr, m.col_path[c]));
                }
                let mut gs: Vec<String> = per_group
                    .into_values()
                    .map(|mut v| {
                        v.sort();
                        v.join(",")
                    })
                    .collect();
                gs.sort();
                s.push_str(&gs.join(";"));
                s
            })
            .collect();
        msigs.sort();
        msigs.join("\n")
    }

    /// The text key `dedup_members` used before PR 21.
    fn oracle_member_key(m: &Member) -> String {
        format!("{}§{:?}", oracle_signature(m), m.col_path)
    }

    /// Holds `key(i) == key(j) ⇔ oracle(i) == oracle(j)` over `pairs`:
    /// the first pair of each key class must be the first of its oracle
    /// class. Returns (pairs, classes).
    fn assert_keys_match_oracle(pairs: &[Pair], at: &str) -> (usize, usize) {
        let mut by_text: HashMap<String, usize> = HashMap::new();
        let mut by_key: HashMap<PairKey, usize> = HashMap::new();
        for (i, p) in pairs.iter().enumerate() {
            let text = oracle_fingerprint(p);
            let t = *by_text.entry(text.clone()).or_insert(i);
            let k = *by_key.entry(p.key()).or_insert(i);
            assert_eq!(
                t, k,
                "{at}: pair {i} keys with pair {k} but its text matches pair {t}:\n{text}"
            );
            // dedup_members removed exactly what the text key would have
            let mut member_keys: Vec<String> = p.members.iter().map(oracle_member_key).collect();
            member_keys.sort();
            member_keys.dedup();
            assert_eq!(member_keys.len(), p.members.len(), "{at}: pair {i}");
        }
        (pairs.len(), by_key.len())
    }

    /// What `smvbench` registers: the advisor's five views at scale 10
    /// (`pr3_workload` under 90 % of its singleton budget) and
    /// `pr7_views`.
    const BENCH_VIEWS: [(&str, &str); 9] = [
        (
            "adv8",
            "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v})))",
        ),
        ("adv6", "site(/regions(/asia(/item{id}(/name{v}))))"),
        (
            "adv5",
            "site(/closed_auctions(/closed_auction{id}(/price{v}[v>400])))",
        ),
        (
            "adv2",
            "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
        ),
        (
            "adv9",
            "site(/people(/person{id}(/name{v}, /emailaddress{v})))",
        ),
        ("items", "site(//item{id}(/name{id,v}))"),
        ("names", "site(//name{id,v})"),
        ("quantities", "site(//quantity{id,v})"),
        ("maybe_named", "site(//item{id}(?/name{id,v}))"),
    ];

    /// The 11 pool queries and the 8 `adhoc` templates of
    /// `smvbench/src/workloads.rs`, `@` filled in.
    const BENCH_QUERIES: [&str; 19] = [
        "site(/open_auctions(/open_auction{id}(/initial{v})))",
        "site(/open_auctions(/open_auction{id}(/current{v})))",
        "site(/people(/person{id}(/name{v})))",
        "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
        "site(/people(/person{id}(/emailaddress{v})))",
        "site(/closed_auctions(/closed_auction{id}(/price{v}[v>400])))",
        "site(/regions(/asia(/item{id}(/name{v}))))",
        "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v})))",
        "site(//name{id,v})",
        "site(//item{id}(/name{id,v}))",
        "site(//quantity{id,v})",
        "site(/open_auctions(/open_auction{id}(/initial{v}[v>50 and v<1000001])))",
        "site(/open_auctions(/open_auction{id}(/current{v}[v>100 and v<1000002])))",
        "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}[v>10 and v<1000003]))))",
        "site(/closed_auctions(/closed_auction{id}(/price{v}[v>500 and v<1000004])))",
        "site(/open_auctions(/open_auction{id}(/initial{v}[v>50 and v<1000005], /current{v})))",
        "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v}[v>100 and v<1000006])))",
        "site(//quantity{id,v}[v>2 and v<1000007])",
        "site(//quantity{v}[v>3 and v<1000008])",
    ];

    fn bench_views(scheme: IdScheme) -> Vec<View> {
        BENCH_VIEWS
            .iter()
            .map(|(name, src)| View::new(name, parse_pattern(src).unwrap(), scheme))
            .collect()
    }

    /// The benchmark's document at scale 10 and its summary.
    fn bench_summary() -> Summary {
        Summary::of(&smv_datagen::pr7_document(10.0, 1))
    }

    /// Keys partition pairs as the text oracle does, over every pair the
    /// benchmark's queries can create: the search runs without the cost
    /// bound, so it sees the whole space.
    #[test]
    fn structural_keys_partition_benchmark_pairs_like_the_text_oracle() {
        let s = bench_summary();
        let views = bench_views(IdScheme::OrdPath);
        let whole = RewriteOpts {
            cost_prune: false,
            ..opts()
        };
        let (mut pairs, mut classes, mut deduped, mut hits) = (0, 0, 0, 0);
        for q_src in BENCH_QUERIES {
            let q = parse_pattern(q_src).unwrap();
            let mut r = RewriteResult::default();
            let created = recording(|| r = rewrite(&q, &views, &s, &whole));
            let (n, k) = assert_keys_match_oracle(&created, q_src);
            // created: the base pairs, then every join built
            let bases = r.stats.views_kept;
            assert_eq!(n, bases + r.stats.joins_built, "{q_src}");
            let (_, base_keys) = assert_keys_match_oracle(&created[..bases], q_src);
            // a join built is a new key or a `seen` hit; the other drops
            // were decided before building
            let built_hits = r.stats.joins_built - (k - base_keys);
            assert!(built_hits <= r.stats.pairs_deduped, "{q_src}");
            pairs += n;
            classes += k;
            deduped += r.stats.pairs_deduped;
            hits += built_hits;
        }
        // not vacuous: the search drops most joins, most before building
        assert!(pairs > 1000, "{pairs} pairs");
        assert!(deduped > pairs, "{deduped} dropped, {pairs} pairs");
        assert!(
            deduped - hits > hits,
            "{} of {deduped} drops decided before building",
            deduped - hits
        );
        assert!(classes > 500, "{classes} keys");
    }

    /// Every run over the benchmark's views, under each ID scheme: with
    /// repeats skipped, the same search — the same pairs explored, pruned
    /// and deduplicated, the same rewritings in the same order — as with
    /// every option built, each built repeat checked against its match by
    /// `check_repeat`.
    #[test]
    fn skipping_repeats_is_the_same_search_on_the_benchmark() {
        let s = bench_summary();
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
            let views = bench_views(scheme);
            let (mut skipping, mut building) = (0, 0);
            for q_src in BENCH_QUERIES {
                let at = format!("{scheme:?} {q_src}");
                let q = parse_pattern(q_src).unwrap();
                let (mut fast, mut every) = (RewriteResult::default(), RewriteResult::default());
                let made = recording(|| fast = rewrite(&q, &views, &s, &opts()));
                let made_every =
                    building_every_join(|| recording(|| every = rewrite(&q, &views, &s, &opts())));
                let counts = |r: &RewriteResult| {
                    let st = &r.stats;
                    (
                        st.views_kept,
                        st.pairs_explored,
                        st.pairs_pruned,
                        st.pairs_deduped,
                    )
                };
                assert_eq!(counts(&fast), counts(&every), "{at}");
                let answers = |r: &RewriteResult| -> Vec<String> {
                    r.rewritings
                        .iter()
                        .map(|rw| format!("{:?} {} {:?}", rw.plan, rw.scans, rw.est))
                        .collect()
                };
                assert_eq!(answers(&fast), answers(&every), "{at}");
                assert_eq!(made.len(), fast.stats.views_kept + fast.stats.joins_built);
                assert_eq!(
                    made_every.len(),
                    every.stats.views_kept + every.stats.joins_built
                );
                skipping += made.len();
                building += made_every.len();
            }
            assert!(skipping < building, "{scheme:?}: {skipping} vs {building}");
            if scheme == IdScheme::OrdPath {
                assert_eq!((skipping, building), (770, 1620), "pairs created");
            }
        }
    }

    /// The `adhoc` request that sets the p95: one descendant-axis ranking
    /// builds 101 joins, not 226.
    #[test]
    fn a_descendant_ranking_builds_only_joins_that_can_be_new() {
        let s = bench_summary();
        let views = bench_views(IdScheme::OrdPath);
        let q = parse_pattern("site(//quantity{id,v}[v>2 and v<1000007])").unwrap();
        let fast = rewrite(&q, &views, &s, &opts());
        let every = building_every_join(|| rewrite(&q, &views, &s, &opts()));
        assert_eq!(fast.stats.views_kept, 7);
        assert_eq!(fast.stats.joins_built, 101);
        assert_eq!(every.stats.joins_built, 226);
        assert_eq!(fast.stats.pairs_deduped, every.stats.pairs_deduped);
    }

    /// A returned column no kept view stores — here the content of an
    /// item's description — has no supplier, so the query has no
    /// rewriting. That is proven at set-up, with the cost bound on or off:
    /// no pair is explored and no join built.
    #[test]
    fn a_column_no_view_supplies_ends_the_search_at_setup() {
        let s = bench_summary();
        let views = bench_views(IdScheme::OrdPath);
        let q = parse_pattern("site(//item{id}(/description{c}))").unwrap();
        for cost_prune in [true, false] {
            let o = RewriteOpts {
                cost_prune,
                ..opts()
            };
            let st = rewrite(&q, &views, &s, &o).stats;
            assert!(st.views_kept > 0, "item's ID has suppliers");
            assert_eq!((st.pairs_explored, st.joins_built), (0, 0), "{cost_prune}");
        }
        assert!(rewrite(&q, &views, &s, &opts()).rewritings.is_empty());
    }

    /// The same ranking's direction-A test meets 9 distinct members in 21
    /// tests: 12 verdicts come from the run's memo.
    #[test]
    fn a_descendant_ranking_reuses_member_verdicts() {
        let s = bench_summary();
        let views = bench_views(IdScheme::OrdPath);
        let q = parse_pattern("site(//quantity{id,v}[v>2 and v<1000007])").unwrap();
        let st = rewrite(&q, &views, &s, &opts()).stats;
        assert_eq!((st.member_tests, st.member_tests_reused), (9, 12));
    }

    /// A scanned pair of `src` under OrdPath, with a rewriter over `s`.
    fn scanned(s: &Summary, src: &str) -> Pair {
        let v = View::new("v", parse_pattern(src).unwrap(), IdScheme::OrdPath);
        let q = parse_pattern("r").unwrap();
        Rewriter::new(&q, &[], s, opts())
            .scan_pair(&v, &v.pattern.unnest_copy())
            .expect("a base pair")
    }

    fn joins(s: &Summary, a: &Pair, b: &Pair) -> Joins {
        let q = parse_pattern("r").unwrap();
        Rewriter::new(&q, &[], s, opts()).join_options(a, b)
    }

    #[test]
    fn id_columns_one_group_already_joined_repeat_their_join() {
        let s = Summary::of(&Document::from_parens(
            r#"r(item(name="a") item(name="b"))"#,
        ));
        let names = scanned(&s, "r(//name{id,v})");
        // names ⋈_= names: both ID columns in one group
        let self_join = joins(&s, &names, &names);
        assert_eq!((self_join.built.len(), self_join.repeats), (1, 0));
        let twice = &self_join.built[0];
        assert_eq!(twice.groups, vec![0, 0, 0, 0]);
        // ⋈_= on the second ID column repeats the one on the first
        let j = joins(&s, twice, &names);
        assert_eq!((j.built.len(), j.repeats), (1, 1));
        let every = building_every_join(|| joins(&s, twice, &names));
        assert_eq!((every.built.len(), every.repeats), (2, 0));
        assert!(every.built[0].key() == every.built[1].key());
    }

    #[test]
    fn ancestor_repeats_parent_only_on_a_parent_only_summary() {
        let flat = Summary::of(&Document::from_parens(r#"r(item(name="a"))"#));
        let (items, names) = (
            scanned(&flat, "r(/item{id})"),
            scanned(&flat, "r(//name{id,v})"),
        );
        // ⋈_≺ builds, ⋈_≺≺ has the same one combination: a repeat
        let j = joins(&flat, &items, &names);
        assert_eq!((j.built.len(), j.repeats), (1, 1));
        let every = building_every_join(|| joins(&flat, &items, &names));
        assert_eq!(every.built.len(), 2);
        assert!(every.built[0].key() == every.built[1].key());
        // an item inside an item: ⋈_≺≺ also reaches the inner name
        let deep = Summary::of(&Document::from_parens(
            r#"r(item(name="a" item(name="b")))"#,
        ));
        let (items, names) = (
            scanned(&deep, "r(/item{id})"),
            scanned(&deep, "r(//name{id,v})"),
        );
        let j = joins(&deep, &items, &names);
        assert_eq!((j.built.len(), j.repeats), (2, 0));
        assert!(j.built[0].key() != j.built[1].key());
    }

    /// The near miss: two ID columns on the same path in every member but
    /// in different groups — a stored ID beside a virtual one — give
    /// `⋈_=`s with the same combinations and different layouts.
    #[test]
    fn same_combinations_under_another_group_are_built() {
        let s = Summary::of(&Document::from_parens(r#"r(item(name="a"))"#));
        let (r, item) = (
            s.node_by_path("/r").unwrap().0,
            s.node_by_path("/r/item").unwrap().0,
        );
        let top = Formula::top();
        let a = id_value_pair(vec![member(
            &[(r, top.clone()), (item, top)],
            &[Some(item), Some(item), Some(item)],
        )]);
        let items = scanned(&s, "r(/item{id})");
        let j = joins(&s, &a, &items);
        assert_eq!((j.built.len(), j.repeats), (2, 0));
        keys_agree(&j.built[0], &j.built[1], false);
    }

    fn f_gt(c: i64) -> Formula {
        Formula::gt(Value::int(c))
    }

    fn id_value_pair(members: Vec<Member>) -> Pair {
        Pair {
            plan: Plan::Scan { view: "t".into() },
            cols: [AttrKind::Id, AttrKind::Value, AttrKind::Id]
                .into_iter()
                .map(|attr| ColInfo {
                    attr,
                    scheme: IdScheme::OrdPath,
                    derived: false,
                })
                .collect(),
            groups: vec![0, 0, 1],
            members,
            views: Vec::new(),
            cost: 0.0,
            rows: 0.0,
        }
    }

    fn member(nodes: &[(u32, Formula)], col_path: &[Option<u32>]) -> Member {
        Member {
            nodes: NodeSet::new(nodes.iter().map(|(n, f)| (NodeId(*n), f.clone())).collect()),
            col_path: col_path.iter().map(|p| p.map(NodeId)).collect(),
        }
    }

    /// Asserts that the keys of `a` and `b` agree with the oracle and are
    /// `equal`.
    fn keys_agree(a: &Pair, b: &Pair, equal: bool) {
        assert_eq!(oracle_fingerprint(a) == oracle_fingerprint(b), equal);
        assert_eq!(a.key() == b.key(), equal);
        if equal {
            assert_eq!(a.key().hash, b.key().hash);
        }
    }

    #[test]
    fn keys_tell_apart_members_differing_only_in_a_formula() {
        let top = Formula::top();
        let cols = [Some(2), Some(2), Some(3)];
        let m = |f: Formula| member(&[(0, top.clone()), (2, f), (3, top.clone())], &cols);
        let base = id_value_pair(vec![m(top.clone())]);
        keys_agree(&base, &id_value_pair(vec![m(f_gt(1))]), false);
        keys_agree(
            &id_value_pair(vec![m(f_gt(1))]),
            &id_value_pair(vec![m(f_gt(2))]),
            false,
        );
        // equal contents in distinct allocations: equal keys
        keys_agree(
            &id_value_pair(vec![m(f_gt(1))]),
            &id_value_pair(vec![m(f_gt(1))]),
            true,
        );
        // and a different path where the formula was
        keys_agree(
            &base,
            &id_value_pair(vec![member(
                &[(0, top.clone()), (2, top.clone()), (4, top.clone())],
                &cols,
            )]),
            false,
        );
    }

    #[test]
    fn keys_ignore_column_order_and_group_numbering_but_not_grouping() {
        let nodes = [
            (0, Formula::top()),
            (2, Formula::top()),
            (3, Formula::top()),
        ];
        let a = id_value_pair(vec![member(&nodes, &[Some(2), Some(2), Some(3)])]);
        // the same groups, columns permuted and groups renumbered
        let mut b = id_value_pair(vec![member(&nodes, &[Some(3), Some(2), Some(2)])]);
        b.cols = [AttrKind::Id, AttrKind::Value, AttrKind::Id]
            .into_iter()
            .map(|attr| ColInfo {
                attr,
                scheme: IdScheme::OrdPath,
                derived: false,
            })
            .collect();
        b.cols.swap(1, 2);
        b.groups = vec![7, 4, 4];
        b.members[0].col_path = vec![Some(NodeId(3)), Some(NodeId(2)), Some(NodeId(2))];
        // cols of b: [Id@3 (g7), Id@2 (g4), Value@2 (g4)]
        keys_agree(&a, &b, true);
        // the same columns split differently: ID and value apart
        let mut c = a.clone();
        c.groups = vec![0, 1, 2];
        keys_agree(&a, &c, false);
        // group-of-two on the other ID
        let mut d = a.clone();
        d.groups = vec![0, 1, 1];
        keys_agree(&a, &d, false);
    }

    #[test]
    fn keys_count_duplicate_members() {
        let m1 = member(
            &[(0, Formula::top()), (2, Formula::top())],
            &[Some(2), Some(2), None],
        );
        let m2 = member(
            &[(0, Formula::top()), (3, Formula::top())],
            &[Some(3), Some(3), None],
        );
        let one = id_value_pair(vec![m1.clone()]);
        let two = id_value_pair(vec![m1.clone(), m1.clone()]);
        keys_agree(&one, &two, false);
        // a multiset: order does not matter, multiplicity does
        keys_agree(
            &id_value_pair(vec![m1.clone(), m2.clone()]),
            &id_value_pair(vec![m2.clone(), m1.clone()]),
            true,
        );
        keys_agree(
            &id_value_pair(vec![m1.clone(), m1.clone(), m2.clone()]),
            &id_value_pair(vec![m1.clone(), m2.clone(), m2.clone()]),
            false,
        );
        // dedup_members keeps the first of equal members, in order
        let mut ms = vec![m2.clone(), m1.clone(), m2.clone(), m1.clone()];
        dedup_members(&mut ms);
        assert_eq!(ms, vec![m2, m1]);
    }

    /// The list-form insert the bitset [`NodeSet`] replaced, kept as the
    /// oracle of [`NodeSet::conj`] and [`merge_nodes`]: conjoins `f` into
    /// the formula at `path`, or inserts it; false, the list unchanged,
    /// when the result is unsatisfiable.
    fn upsert_node(nodes: &mut Vec<(NodeId, Formula)>, path: NodeId, f: Formula) -> bool {
        match nodes.binary_search_by_key(&path, |(n, _)| *n) {
            Ok(i) => {
                let merged = nodes[i].1.and(&f);
                if !merged.is_sat() {
                    return false;
                }
                nodes[i].1 = merged;
                true
            }
            Err(i) => {
                if !f.is_sat() {
                    return false;
                }
                nodes.insert(i, (path, f));
                true
            }
        }
    }

    /// Direction B's member test as the `HashMap` loop over the tree's
    /// paths that [`NodeSet::fits_in`] replaced.
    fn fits_in_oracle(member: &[(NodeId, Formula)], tree: &[(NodeId, Formula)]) -> bool {
        let tree: HashMap<NodeId, Formula> = tree.iter().cloned().collect();
        member
            .iter()
            .all(|(n, f)| tree.get(n).is_some_and(|tf| tf.and(f).is_sat()))
    }

    /// A canonical tree's set is its `path_set` list, on every tree of the
    /// benchmark's queries and views.
    #[test]
    fn a_tree_set_is_its_path_set() {
        let s = bench_summary();
        let mut trees = 0;
        for src in BENCH_QUERIES
            .iter()
            .chain(BENCH_VIEWS.iter().map(|(_, v)| v))
        {
            let p = parse_pattern(src).unwrap().unnest_copy();
            for t in canonical_model(&p, &s, &CanonOpts::default()).trees {
                assert!(NodeSet::of_tree(&t) == NodeSet::new(t.path_set()), "{src}");
                trees += 1;
            }
        }
        assert!(trees > 50, "{trees} trees");
    }

    /// Sorted, unique node sets over paths `0..200` — four words, with
    /// paths clustered so that two sets share some often — and formulas
    /// that make conjunctions unsatisfiable often (`v>c ∧ v<d`, `F`).
    fn node_set() -> impl Strategy<Value = Vec<(NodeId, Formula)>> {
        proptest::collection::vec((0usize..4, 0u32..10, 0u8..6, 0i64..6), 0..12).prop_map(|raw| {
            let mut set = BTreeMap::new();
            for (cluster, n, kind, c) in raw {
                let c = Value::int(c);
                let f = match kind {
                    0 | 1 => Formula::top(),
                    2 => Formula::eq(c),
                    3 => Formula::lt(c),
                    4 => Formula::gt(c),
                    _ => Formula::bottom(),
                };
                set.insert(NodeId([0, 61, 130, 190][cluster] + n), f);
            }
            set.into_iter().collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass merge is the `upsert_node` loop it replaced.
        #[test]
        fn linear_merge_is_the_upsert_loop(a in node_set(), b in node_set()) {
            let mut upserted = a.clone();
            let sat = b.iter().all(|(n, f)| upsert_node(&mut upserted, *n, f.clone()));
            let merged = merge_nodes(&NodeSet::new(a), &NodeSet::new(b));
            prop_assert_eq!(merged.as_ref().map(NodeSet::to_vec), sat.then(|| upserted.clone()));
            if let Some(m) = merged {
                let listed = NodeSet::new(upserted);
                prop_assert!(m == listed);
                prop_assert_eq!(m.hash(), listed.hash());
            }
        }

        /// `conj` is `upsert_node`, refusals included.
        #[test]
        fn conj_is_upsert_node(a in node_set(), b in node_set()) {
            let mut list = a.clone();
            let mut set = NodeSet::new(a);
            for (n, f) in b {
                prop_assert_eq!(set.conj(n, &f), upsert_node(&mut list, n, f.clone()));
                prop_assert_eq!(set.to_vec(), list.clone());
                let listed = NodeSet::new(list.clone());
                prop_assert!(set == listed);
                prop_assert_eq!(set.hash(), listed.hash());
            }
        }

        /// The word-level coverage test is the `HashMap` loop, on trees
        /// that hold the member's paths (`cover` 1–3: with the member's
        /// formulas or `T` where the tree had none) and on any tree.
        #[test]
        fn fits_in_is_the_hash_map_loop(
            member in node_set(),
            tree in node_set(),
            cover in 0u8..4,
        ) {
            let mut tree: BTreeMap<NodeId, Formula> = tree.into_iter().collect();
            if cover > 0 {
                for (p, f) in &member {
                    tree.entry(*p)
                        .or_insert_with(|| if cover == 1 { f.clone() } else { Formula::top() });
                }
            }
            let tree: Vec<(NodeId, Formula)> = tree.into_iter().collect();
            prop_assert_eq!(
                NodeSet::new(member.clone()).fits_in(&NodeSet::new(tree.clone())),
                fits_in_oracle(&member, &tree)
            );
        }

        /// A set lists back what it was built from.
        #[test]
        fn a_node_set_lists_what_it_was_built_from(v in node_set()) {
            prop_assert_eq!(NodeSet::new(v.clone()).to_vec(), v);
        }

        /// `==`, the order and the hash agree with equality of the lists.
        #[test]
        fn node_set_identity_is_list_identity(a in node_set(), b in node_set(), same in 0u8..2) {
            let b = if same == 1 { a.clone() } else { b };
            let (x, y) = (NodeSet::new(a.clone()), NodeSet::new(b.clone()));
            prop_assert_eq!(x == y, a == b);
            prop_assert_eq!(x.cmp(&y) == Ordering::Equal, a == b);
            prop_assert_eq!(x.cmp(&y), y.cmp(&x).reverse());
            if a == b {
                prop_assert_eq!(x.hash(), y.hash());
            }
        }
    }

    /// End-to-end: rewrite, execute, compare against direct evaluation.
    fn check_roundtrip(
        doc: &Document,
        q_src: &str,
        views_src: &[(&str, &str)],
        expect_rewriting: bool,
    ) {
        check_roundtrip_in(IdScheme::OrdPath, doc, q_src, views_src, expect_rewriting);
    }

    /// [`check_roundtrip`] under `scheme`; returns how many rewritings
    /// were checked.
    fn check_roundtrip_in(
        scheme: IdScheme,
        doc: &Document,
        q_src: &str,
        views_src: &[(&str, &str)],
        expect_rewriting: bool,
    ) -> usize {
        let s = Summary::of(doc);
        let q = parse_pattern(q_src).unwrap();
        let mut catalog = EpochCatalog::new(doc.clone(), scheme);
        let mut defs = Vec::new();
        for (name, src) in views_src {
            let v = View::new(name, parse_pattern(src).unwrap(), scheme);
            catalog.add_view(v.clone(), RefreshPolicy::Eager);
            defs.push(v);
        }
        let snap = catalog.snapshot();
        let result = rewrite(&q, &defs, &s, &opts());
        if !expect_rewriting {
            assert!(
                result.rewritings.is_empty(),
                "unexpected rewriting for {q_src}: {}",
                result.rewritings[0].plan
            );
            return 0;
        }
        assert!(
            !result.rewritings.is_empty(),
            "no rewriting found for {q_src} using {views_src:?}"
        );
        let expected = materialize(&q, doc, scheme);
        for rw in &result.rewritings {
            let got = execute_with(&rw.plan, &*snap, &ExecOpts::default()).expect("plan executes");
            assert!(
                got.set_eq(&expected),
                "plan output differs for {q_src}\nplan:\n{}\ngot:\n{got}\nexpected:\n{expected}",
                rw.plan
            );
        }
        result.rewritings.len()
    }

    #[test]
    fn identity_rewriting_single_view() {
        let doc = Document::from_parens(r#"a(b="1" b="2" c)"#);
        check_roundtrip(&doc, "a(/b{id,v})", &[("v1", "a(/b{id,v})")], true);
    }

    #[test]
    fn summary_narrows_wildcard_view() {
        // the §1 motivating case: the view stores `*` children but the
        // summary proves they are all `b`
        let doc = Document::from_parens(r#"a(b="1" b="2")"#);
        check_roundtrip(&doc, "a(/b{id,v})", &[("v1", "a(/*{id,v})")], true);
    }

    #[test]
    fn label_selection_adaptation() {
        // summary has b and c children: σ_L is required
        let doc = Document::from_parens(r#"a(b="1" c="2")"#);
        check_roundtrip(&doc, "a(/b{id,v})", &[("v1", "a(/*{id,l,v})")], true);
        // without an L column the σ cannot be applied
        check_roundtrip(&doc, "a(/b{id,v})", &[("v1", "a(/*{id,v})")], false);
    }

    #[test]
    fn value_selection_adaptation() {
        let doc = Document::from_parens(r#"a(b="1" b="5" b="9")"#);
        check_roundtrip(
            &doc,
            "a(/b{id,v}[v>2 and v<8])",
            &[("v1", "a(/b{id,v})")],
            true,
        );
    }

    #[test]
    fn structural_join_combines_two_views() {
        // V1 stores items, V2 stores names; a structural join reassembles
        let doc = Document::from_parens(r#"r(item(name="p1") item(name="p2"))"#);
        check_roundtrip(
            &doc,
            "r(/item{id}(/name{id,v}))",
            &[("vi", "r(/item{id})"), ("vn", "r(//name{id,v})")],
            true,
        );
    }

    #[test]
    fn id_join_combines_attribute_sets() {
        // the §4.6 example: p1 = //*{id,l}, p2 = //*{id,v}; join gives {id,l,v}
        let doc = Document::from_parens(r#"a(x="1" y="2")"#);
        check_roundtrip(
            &doc,
            "a(/*{id,l,v})",
            &[("p1", "a(/*{id,l})"), ("p2", "a(/*{id,v})")],
            true,
        );
    }

    #[test]
    fn optional_view_serves_optional_query() {
        let doc = Document::from_parens(r#"a(item(bold="g") item)"#);
        check_roundtrip(
            &doc,
            "a(/item{id}(?/bold{v}))",
            &[("v1", "a(/item{id}(?/bold{v}))")],
            true,
        );
    }

    #[test]
    fn required_view_cannot_serve_optional_query() {
        // the view loses items without bold; the optional query needs them
        let doc = Document::from_parens(r#"a(item(bold="g") item)"#);
        check_roundtrip(
            &doc,
            "a(/item{id}(?/bold{v}))",
            &[("v1", "a(/item{id}(/bold{v}))")],
            false,
        );
    }

    #[test]
    fn nested_query_from_flat_views() {
        // §4.6(ii): nesting reconstructed by group-by on the anchor's ID
        let doc = Document::from_parens(r#"a(item(li="x" li="y") item(li="z") item)"#);
        check_roundtrip(
            &doc,
            "a(/item{id}(?%/li{v}))",
            &[("v1", "a(/item{id}(?/li{v}))")],
            true,
        );
    }

    #[test]
    fn nested_view_serves_flat_query_by_unnesting() {
        let doc = Document::from_parens(r#"a(item(li="x" li="y") item)"#);
        check_roundtrip(
            &doc,
            "a(/item{id}(?/li{v}))",
            &[("v1", "a(/item{id}(?%/li{v}))")],
            true,
        );
    }

    #[test]
    fn content_navigation_extracts_descendants() {
        // keywords live only inside the stored content of li (the paper's
        // second motivating bullet in §1)
        let doc = Document::from_parens(r#"a(item(li(kw="k1") li(kw="k2")))"#);
        check_roundtrip(&doc, "a(//kw{v})", &[("v1", "a(//li{id,c})")], true);
    }

    #[test]
    fn virtual_ids_join_through_derived_ancestor() {
        // V1 stores name IDs; the query wants item IDs: derive the parent
        // ID from the name ID (§4.6 virtual IDs)
        let doc = Document::from_parens(r#"r(item(name="a") item(name="b"))"#);
        check_roundtrip(&doc, "r(/item{id})", &[("vn", "r(/item(/name{id}))")], true);
    }

    /// Under a recursive summary (`a` under `a`), joining two `↑2` derived
    /// IDs, or taking one as the ancestor side, put two original nodes
    /// under one common ancestor on no common chain: five of eight
    /// rewritings returned wrong rows. Two remain, both sound.
    #[test]
    fn derived_ids_join_only_where_a_member_can_place_them() {
        let doc =
            Document::from_parens(r#"r(c(a(a(c="3" b)) a(b(c d="3") a(a) c(a c)) a(c(a a="3"))))"#);
        let views = [("all", "r(//*{id,l,v})"), ("bs", "r(//b{id,v})")];
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
            let checked = check_roundtrip_in(scheme, &doc, "r(//a{id}(//b{v}))", &views, true);
            assert_eq!(checked, 2, "{scheme:?}");
        }
    }

    #[test]
    fn union_rewriting_covers_wildcard() {
        let doc = Document::from_parens(r#"a(b="1" c="2")"#);
        check_roundtrip(
            &doc,
            "a(/*{id,v})",
            &[("vb", "a(/b{id,v})"), ("vc", "a(/c{id,v})")],
            true,
        );
    }

    #[test]
    fn no_rewriting_when_data_is_missing() {
        let doc = Document::from_parens(r#"a(b="1" c="2")"#);
        check_roundtrip(&doc, "a(/b{id,v})", &[("vc", "a(/c{id,v})")], false);
    }

    #[test]
    fn prop_3_4_prunes_unrelated_views() {
        let doc = Document::from_parens(r#"r(a(b="1") c(d="2"))"#);
        let s = Summary::of(&doc);
        let q = parse_pattern("r(/a(/b{id,v}))").unwrap();
        let views = vec![
            View::new(
                "vb",
                parse_pattern("r(//b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            View::new(
                "vd",
                parse_pattern("r(//d{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
        ];
        let result = rewrite(&q, &views, &s, &opts());
        assert_eq!(result.stats.views_total, 2);
        assert_eq!(result.stats.views_kept, 1, "vd pruned by Prop 3.4");
        assert!(!result.rewritings.is_empty());
    }

    #[test]
    fn cost_ranking_prefers_the_cheaper_view() {
        // the wide view needs a label selection over a fatter extent; the
        // exact view is a plain scan — ranking puts the exact view first
        let doc = Document::from_parens(r#"a(b="1" b="2" c="3" c="4" c="5")"#);
        let s = Summary::of(&doc);
        let q = parse_pattern("a(/b{id,v})").unwrap();
        let views = vec![
            View::new(
                "wide",
                parse_pattern("a(/*{id,l,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            View::new(
                "exact",
                parse_pattern("a(/b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
        ];
        let r = rewrite(&q, &views, &s, &opts());
        assert!(r.rewritings.len() >= 2, "both views rewrite the query");
        assert_eq!(
            r.rewritings[0].plan.views_used(),
            vec!["exact".to_string()],
            "cheapest-ranked plan scans the exact view:\n{}",
            r.rewritings[0].plan
        );
        for w in r.rewritings.windows(2) {
            assert!(w[0].est.cost <= w[1].est.cost, "ranked by estimated cost");
        }
    }

    #[test]
    fn branch_and_bound_prunes_dominated_prefixes() {
        let doc = Document::from_parens(r#"r(item(name="a") item(name="b") item(name="c"))"#);
        let s = Summary::of(&doc);
        let q = parse_pattern("r(/item{id}(/name{id,v}))").unwrap();
        let views = vec![
            View::new(
                "vi",
                parse_pattern("r(/item{id})").unwrap(),
                IdScheme::OrdPath,
            ),
            View::new(
                "vn",
                parse_pattern("r(//name{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            View::new(
                "vq",
                parse_pattern("r(/item{id}(/name{id,v}))").unwrap(),
                IdScheme::OrdPath,
            ),
        ];
        let mut on = opts();
        on.cost_prune = true;
        let mut off = opts();
        off.cost_prune = false;
        let r_on = rewrite(&q, &views, &s, &on);
        let r_off = rewrite(&q, &views, &s, &off);
        // same best plan either way, fewer pairs enumerated with the bound
        assert!(!r_on.rewritings.is_empty() && !r_off.rewritings.is_empty());
        assert!(r_on.stats.pairs_pruned > 0, "the bound fires");
        assert!(
            r_on.stats.pairs_explored < r_off.stats.pairs_explored,
            "B&B explores fewer pairs: {} vs {}",
            r_on.stats.pairs_explored,
            r_off.stats.pairs_explored
        );
        assert_eq!(
            r_on.rewritings[0].plan.views_used(),
            r_off.rewritings[0].plan.views_used(),
            "pruning never changes the winning plan"
        );
    }

    #[test]
    fn union_covers_rank_cheapest_and_drop_dominated() {
        // 3 trees; candidate 1 ({1}, cost 9) is dominated by 2 ({1,2},
        // cost 2) and must not appear in any cover
        let cands = vec![
            (1.0, vec![true, false, false]),
            (9.0, vec![false, true, false]),
            (2.0, vec![false, true, true]),
            (3.0, vec![true, false, true]),
        ];
        let covers = rank_union_covers(&cands);
        assert_eq!(covers, vec![vec![0, 2], vec![2, 3]]);
        // equal-coverage duplicates collapse to the cheaper one
        let dupes = vec![
            (5.0, vec![true, false]),
            (1.0, vec![true, false]),
            (3.0, vec![false, true]),
        ];
        assert_eq!(rank_union_covers(&dupes), vec![vec![1, 2]]);
        // triples only when no pair covers
        let tri = vec![
            (1.0, vec![true, false, false]),
            (1.0, vec![false, true, false]),
            (1.0, vec![false, false, true]),
        ];
        assert_eq!(rank_union_covers(&tri), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn union_rewriting_dedups_equal_coverage_branches() {
        // vb and vb2 cover the same canonical tree; only one union (with
        // vc) must be emitted, not one per duplicate
        let doc = Document::from_parens(r#"a(b="1" c="2")"#);
        let s = Summary::of(&doc);
        let q = parse_pattern("a(/*{id,v})").unwrap();
        let views = vec![
            View::new(
                "vb",
                parse_pattern("a(/b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            View::new(
                "vb2",
                parse_pattern("a(/b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            View::new(
                "vc",
                parse_pattern("a(/c{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
        ];
        let r = rewrite(&q, &views, &s, &opts());
        let unions: Vec<&Rewriting> = r
            .rewritings
            .iter()
            .filter(|rw| rw.plan.views_used().len() >= 2)
            .collect();
        assert_eq!(unions.len(), 1, "duplicate-coverage branch not deduped");
        assert!(unions[0].plan.views_used().contains(&"vc".to_string()));
    }

    #[test]
    fn best_rewriting_cost_probe() {
        let doc = Document::from_parens(r#"a(b="1" b="2" c="3" c="4" c="5")"#);
        let s = Summary::of(&doc);
        let q = parse_pattern("a(/b{id,v})").unwrap();
        let exact = View::new(
            "exact",
            parse_pattern("a(/b{id,v})").unwrap(),
            IdScheme::OrdPath,
        );
        let wide = View::new(
            "wide",
            parse_pattern("a(/*{id,l,v})").unwrap(),
            IdScheme::OrdPath,
        );
        let o = opts();
        let both = vec![wide.clone(), exact];
        let cards = DefCards::new(&both, &s);
        let c_both = best_rewriting_cost(&q, &both, &s, &o, &cards).expect("rewrites");
        let wide_only = vec![wide];
        let cards_w = DefCards::new(&wide_only, &s);
        let c_wide = best_rewriting_cost(&q, &wide_only, &s, &o, &cards_w).expect("rewrites");
        assert!(
            c_both < c_wide,
            "exact view must price below the filtered wide scan: {c_both} vs {c_wide}"
        );
        // no views → no rewriting, not a phantom cost
        assert_eq!(best_rewriting_cost(&q, &[], &s, &o, &cards), None);
        // unrelated view set → None
        let vd = vec![View::new(
            "vd",
            parse_pattern("a(/c{id,v})").unwrap(),
            IdScheme::OrdPath,
        )];
        let cards_d = DefCards::new(&vd, &s);
        assert_eq!(best_rewriting_cost(&q, &vd, &s, &o, &cards_d), None);
    }

    #[test]
    fn first_only_stops_early() {
        let doc = Document::from_parens(r#"a(b="1")"#);
        let s = Summary::of(&doc);
        let q = parse_pattern("a(/b{id,v})").unwrap();
        let views = vec![
            View::new(
                "v1",
                parse_pattern("a(/b{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
            View::new(
                "v2",
                parse_pattern("a(/*{id,v})").unwrap(),
                IdScheme::OrdPath,
            ),
        ];
        let mut o = opts();
        o.first_only = true;
        let result = rewrite(&q, &views, &s, &o);
        assert_eq!(result.rewritings.len(), 1);
        assert!(result.stats.first_rewriting.is_some());
    }
}
