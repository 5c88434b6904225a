//! Algorithm 1 line 7 (§4.2; Props. 3.1, 3.2 and 3.7): the `≡_S q` test
//! on a pair for each admissible output assignment, after the §4.6
//! selection adaptations.

use super::pair::{has_bit, Member, NodeSet, Pair};
use super::{QueryCtx, Rewriter, SearchSink};
use crate::containment::{embeds_tuple, implies_disjunction};
use smv_algebra::{AttrKind, Plan, Predicate};
use smv_pattern::canonical::CTree;
use smv_pattern::matching::MatchTarget;
use smv_pattern::{Formula, PNodeId, Pattern};
use smv_summary::Summary;
use smv_xml::fasthash::FastBuild;
use smv_xml::{Label, LabeledTree, NodeId, Value};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

pub(super) enum Candidate {
    Equivalent(Plan),
    Partial(Plan, Vec<bool>),
}

/// A tree of `mod_S(q)` as direction B of the line-7 test reads it,
/// built once per run.
pub(super) struct ModelTree {
    /// Its summary paths and their formulas.
    pub(super) nodes: NodeSet,
    /// Its designated return paths.
    pub(super) ret: Vec<Option<NodeId>>,
    /// Its formulas other than `T`: the left side of the coverage
    /// implication.
    lhs: HashMap<NodeId, Formula>,
}

impl ModelTree {
    /// The tree of `nodes` designating `ret`.
    fn of(nodes: NodeSet, ret: Vec<Option<NodeId>>) -> ModelTree {
        ModelTree {
            lhs: nodes.formulas().iter().cloned().collect(),
            nodes,
            ret,
        }
    }

    /// The entry of a tree as [`canonical_model`](smv_pattern::canonical::canonical_model)
    /// builds it: the oracle of [`ModelTree::closed_list`].
    #[cfg(test)]
    pub(super) fn new(t: &CTree) -> ModelTree {
        ModelTree::of(NodeSet::of_tree(t), t.return_paths())
    }

    /// `mod_S(q)` as direction B reads it, from the query's unclosed trees
    /// ([`unclosed_model`](smv_pattern::canonical::unclosed_model)): each
    /// tree's node set closed under strong edges when `strong` is set —
    /// the closed tree's node set, its closure's paths carrying `T` — and
    /// a tree with an earlier tree's node set and designation dropped.
    /// Direction B and the union covers answer the same for both.
    pub(super) fn closed_list(trees: &[CTree], s: &Summary, strong: bool) -> Vec<ModelTree> {
        let mut seen: HashSet<(NodeSet, Vec<Option<NodeId>>), FastBuild> = HashSet::default();
        trees
            .iter()
            .filter_map(|t| {
                let (nodes, ret) = (NodeSet::of_tree(t).closed(s, strong), t.return_paths());
                seen.insert((nodes.clone(), ret.clone()))
                    .then(|| ModelTree::of(nodes, ret))
            })
            .collect()
    }
}

/// Direction A's verdicts within one run — does `q` produce the member's
/// designated tuple? — by (member node set, designation). `q`, the summary
/// and the options do not change within a run, and the same member meets
/// the test again in every pair it survives into.
pub(super) type MemberVerdicts = HashMap<Designated, bool, FastBuild>;

/// A member's node set with the paths it designates.
pub(super) type Designated = (NodeSet, Vec<Option<NodeId>>);

/// A member's canonical tree, read in place: the summary restricted to
/// the member's paths closed under strong edges, each path one node
/// carrying the member's formula there (`T` on the closure's paths). This
/// is the tree [`CTree::from_path_set`](smv_pattern::canonical::CTree::from_path_set)
/// builds from the member, with its nodes named by their summary paths
/// instead of copied.
struct MemberTree<'a> {
    s: &'a Summary,
    nodes: &'a NodeSet,
    /// The member's paths and the closure's, as [`NodeSet`] words.
    closed: Vec<u64>,
}

impl<'a> MemberTree<'a> {
    fn new(s: &'a Summary, nodes: &'a NodeSet, strong: bool) -> MemberTree<'a> {
        MemberTree {
            s,
            nodes,
            closed: nodes.closed_words(s, strong),
        }
    }

    /// Direction A for one member: does `q` produce the tuple designating
    /// the paths `des` (decorated embeddings, §4.2)? A member's tree holds
    /// no nesting sequences.
    fn produces(&self, q: &Pattern, des: &[Option<NodeId>]) -> bool {
        embeds_tuple(q, self, des, |n| n, |_| &[], self.s)
    }
}

/// The matcher reads parents, ancestors, labels and admissions only;
/// children are the summary's.
impl LabeledTree for MemberTree<'_> {
    fn tree_root(&self) -> NodeId {
        self.s.root()
    }
    fn tree_label(&self, n: NodeId) -> Label {
        self.s.label(n)
    }
    fn tree_children(&self, n: NodeId) -> &[NodeId] {
        self.s.children(n)
    }
    fn tree_parent(&self, n: NodeId) -> Option<NodeId> {
        self.s.parent(n)
    }
    fn tree_value(&self, _n: NodeId) -> Option<&Value> {
        None
    }
    fn tree_is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.s.is_ancestor(a, b)
    }
    fn tree_len(&self) -> usize {
        self.s.len()
    }
}

impl MatchTarget for MemberTree<'_> {
    /// A path outside the tree admits nothing; one inside admits `T` and
    /// whatever its formula implies (§4.2).
    fn admits(&self, n: NodeId, f: &Formula) -> bool {
        has_bit(&self.closed, n)
            && (f.is_top() || self.nodes.formula(n).unwrap_or(&Formula::top()).implies(f))
    }
}

impl Rewriter<'_> {
    /// Line 7: tests a pair against the query for every admissible output
    /// column assignment; returns full rewritings and union candidates.
    pub(super) fn try_pair(
        &self,
        pair: &Pair,
        ctx: &QueryCtx<'_>,
        verdicts: &mut MemberVerdicts,
        sink: &mut impl SearchSink,
    ) -> Vec<Candidate> {
        let mut out = Vec::new();
        // candidate groups per query return node (Prop 3.7 + Prop 4.1)
        let mut cand_groups: Vec<Vec<u32>> = Vec::new();
        for &r in &ctx.returns {
            let rp = &ctx.qpaths[r.idx()];
            let mut groups: Vec<u32> = Vec::new();
            let all_groups: HashSet<u32> = pair.groups.iter().copied().collect();
            for g in all_groups {
                // every wanted attr offered?
                if !AttrKind::of_node(&ctx.qf, r)
                    .all(|kind| pair.group_col(g, Some(kind)).is_some())
                {
                    continue;
                }
                // Prop 3.7 (relaxed pre-σ form): some member must bind the
                // column on a query-compatible path; members on other
                // paths may still be filtered by the σ adaptations, so the
                // strict subset check is left to the equivalence test.
                let rep = pair.group_col(g, None).expect("a group has a column");
                let some_compatible = pair
                    .members
                    .iter()
                    .any(|m| m.col_path[rep].is_some_and(|p| rp.contains(&p)));
                if some_compatible {
                    groups.push(g);
                }
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
            if let Some(c) = self.test_combo(pair, ctx, &combo, verdicts, sink) {
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
        sink: &mut impl SearchSink,
    ) -> Option<Candidate> {
        // chosen column per (return, attr) in flat output order
        let mut chosen: Vec<usize> = Vec::with_capacity(ctx.out_cols.len());
        for (r, kind) in &ctx.out_cols {
            let g = combo[ctx.returns.iter().position(|x| x == r).expect("return")];
            chosen.push(pair.group_col(g, Some(*kind))?);
        }
        // the column standing for each return node, in query-return order
        let reps: Vec<usize> = combo
            .iter()
            .map(|&g| pair.group_col(g, None))
            .collect::<Option<_>>()?;
        // σ adaptations per query return node: the selections put over the
        // pair's plan, bottom-up, and the members they leave
        let mut selections: Vec<Predicate> = Vec::new();
        let mut members: Cow<'_, [Member]> = Cow::Borrowed(&pair.members);
        for (ri, &r) in ctx.returns.iter().enumerate() {
            let (g, rep) = (combo[ri], reps[ri]);
            let qn = ctx.qf.node(r);
            let under_optional = node_or_ancestor_optional(&ctx.qf, r);
            // label selection (σ_{n.L=l}) when a * view column feeds a
            // labeled query node
            if let Some(l) = qn.label {
                let mismatched = members
                    .iter()
                    .any(|m| m.col_path[rep].is_some_and(|p| self.s.label(p) != l));
                if mismatched && !under_optional {
                    let lcol = pair.group_col(g, Some(AttrKind::Label))?;
                    selections.push(Predicate::LabelEq {
                        col: lcol,
                        label: l,
                    });
                    members
                        .to_mut()
                        .retain(|m| m.col_path[rep].is_none_or(|p| self.s.label(p) == l));
                    if members.is_empty() {
                        return None;
                    }
                }
            }
            // value selection (σ_{φ(v)})
            if !qn.predicate.is_top() && !under_optional {
                let top = Formula::top();
                let needs = members.iter().any(|m| {
                    m.col_path[rep]
                        .is_some_and(|p| !m.nodes.formula(p).unwrap_or(&top).implies(&qn.predicate))
                });
                if needs {
                    let vcol = pair.group_col(g, Some(AttrKind::Value))?;
                    selections.push(Predicate::Value {
                        col: vcol,
                        formula: qn.predicate.clone(),
                    });
                    let mut refined = Vec::new();
                    for m in members.iter() {
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
                    members = Cow::Owned(refined);
                }
            }
        }
        // designations per member, in query-return order
        let designations: Vec<Vec<Option<NodeId>>> = members
            .iter()
            .map(|m| reps.iter().map(|&c| m.col_path[c]).collect())
            .collect();

        // direction A: union of members ⊆ q (each member individually)
        for (m, des) in members.iter().zip(designations.iter()) {
            let member_in_q = match verdicts.entry((m.nodes.clone(), des.clone())) {
                Entry::Occupied(e) => {
                    sink.verdict(pair, e.key(), None);
                    *e.get()
                }
                Entry::Vacant(e) => {
                    let verdict = MemberTree::new(self.s, &m.nodes, self.opts.canon.use_strong)
                        .produces(&ctx.qf, des);
                    sink.verdict(pair, e.key(), Some((verdict, !selections.is_empty())));
                    *e.insert(verdict)
                }
            };
            if !member_in_q {
                return None;
            }
        }
        // direction B: every tq ∈ mod_S(q) covered by some member
        let mut coverage = vec![false; ctx.qmodel.len()];
        let mut all = true;
        for (ti, tq) in ctx.qmodel.iter().enumerate() {
            let matching: Vec<HashMap<NodeId, Formula>> = members
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
        if !all && !coverage.contains(&true) {
            return None;
        }
        let selected = selections
            .into_iter()
            .fold(Arc::clone(&pair.plan), |input, pred| {
                Arc::new(Plan::Select { input, pred })
            });
        let projected = self.output_plan(selected, ctx, &chosen)?;
        Some(if all {
            Candidate::Equivalent(projected)
        } else {
            Candidate::Partial(projected, coverage)
        })
    }
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
