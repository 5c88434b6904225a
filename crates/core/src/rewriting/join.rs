//! Algorithm 1 lines 2–11 (§4.2): every way of joining two pairs on an
//! ID column (`⋈_=`, `⋈_≺`, `⋈_≺≺`), each decided — its members merged
//! and its key made from its inputs' parts — before anything of it is
//! built.

use super::pair::{merge_nodes, ColInfo, Layouts, Member, NodeSet, Pair, PairKey};
use super::Rewriter;
use smv_algebra::{AttrKind, Carried, Plan, StructRel};
use smv_xml::fasthash::FastBuild;
use smv_xml::NodeId;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum JoinKind {
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

/// The joins of one expansion `a ⋈ b` ([`Rewriter::join_options`]), and
/// the scratch space deciding them takes, kept from one expansion to the
/// next.
#[derive(Default)]
pub(super) struct Joins {
    /// The options decided, in option order.
    pub(super) decided: Vec<Decided>,
    /// Options that repeat an earlier option's combinations and were not
    /// decided.
    pub(super) repeats: usize,
    /// Every option decided or dropped so far.
    tried: Vec<Tried>,
    /// Every tried option's member combinations.
    combos: Vec<(usize, usize)>,
    /// One ID column pair's member combinations with their join kinds
    /// ([`Rewriter::classify`]).
    classified: Vec<(usize, usize, u8)>,
    /// [`Layouts::push_joined`]'s scratch space.
    merged: Vec<u64>,
}

/// An option [`Rewriter::join_options`] has decided or dropped.
struct Tried {
    /// The column groups it merges into one: `a`'s and `b`'s joined
    /// columns' for a `⋈_=`, none for a structural join.
    merged: Option<(u32, u32)>,
    /// Its span of [`Joins::combos`].
    combos: Range<usize>,
    /// Where its join is in [`Joins::decided`], if it kept a member.
    decided: Option<usize>,
}

/// A join of `a` and `b` decided but not built: its key, and what building
/// it takes.
pub(super) struct Decided {
    pub(super) key: PairKey,
    pub(super) join: Join,
}

/// What a decided join is built from.
#[derive(Clone)]
pub(super) struct Join {
    kind: JoinKind,
    /// The joined ID columns of `a` and `b`.
    ca: usize,
    cb: usize,
    /// The member combinations `(i, j)` of `a.members × b.members` kept —
    /// satisfiable and distinct, in merge order — with their merged node
    /// sets.
    kept: Vec<(usize, usize, NodeSet)>,
    layouts: Arc<Layouts>,
}

impl Join {
    /// `b` is the plan's left input: a structural join with `b` on the
    /// ancestor side. `a` is otherwise.
    pub(super) fn b_left(&self) -> bool {
        matches!(self.kind, JoinKind::Struct(_, true))
    }

    /// The join's plan, its inputs `a`'s and `b`'s plans, shared.
    pub(super) fn plan(&self, a: &Pair, b: &Pair) -> Arc<Plan> {
        let (left, right, lcol, rcol) = if self.b_left() {
            (&b.plan, &a.plan, self.cb, self.ca)
        } else {
            (&a.plan, &b.plan, self.ca, self.cb)
        };
        let (left, right) = (Arc::clone(left), Arc::clone(right));
        Arc::new(match self.kind {
            JoinKind::IdEq => Plan::IdJoin {
                left,
                right,
                lcol,
                rcol,
            },
            JoinKind::Struct(rel, _) => Plan::StructJoin {
                left,
                right,
                lcol,
                rcol,
                rel,
            },
        })
    }

    /// The joined pair over `plan` with estimate `est`: its columns (the
    /// left input's, then the right's), column groups, views and members.
    pub(super) fn pair(self, a: &Pair, b: &Pair, plan: Arc<Plan>, est: Option<Carried>) -> Pair {
        let reversed = self.b_left();
        let (left, right) = if reversed { (b, a) } else { (a, b) };
        let members = self
            .kept
            .into_iter()
            .map(|(i, j, nodes)| {
                let (ml, mr) = (&a.members[i], &b.members[j]);
                let (ml, mr) = if reversed { (mr, ml) } else { (ml, mr) };
                let mut col_path = Vec::with_capacity(ml.col_path.len() + mr.col_path.len());
                col_path.extend_from_slice(&ml.col_path);
                col_path.extend_from_slice(&mr.col_path);
                Member { nodes, col_path }
            })
            .collect();
        let cols: Vec<ColInfo> = left.cols.iter().chain(&right.cols).cloned().collect();
        let off = next_group(left);
        let mut groups = left.groups.clone();
        groups.extend(right.groups.iter().map(|g| g + off));
        if self.kind == JoinKind::IdEq {
            // same node on both sides: merge the groups
            let (target, src) = (left.groups[self.ca], right.groups[self.cb] + off);
            for g in &mut groups[left.cols.len()..] {
                if *g == src {
                    *g = target;
                }
            }
        }
        let mut views = a.views.clone();
        views.extend(b.views.iter().copied());
        views.sort_unstable();
        views.dedup();
        Pair {
            plan,
            cols,
            groups,
            members,
            layouts: self.layouts,
            views,
            est,
        }
    }
}

/// `p`'s ID columns.
fn id_cols(p: &Pair) -> impl Iterator<Item = usize> + '_ {
    (0..p.cols.len()).filter(|&c| p.cols[c].attr == AttrKind::Id)
}

/// One past `p`'s highest column group: where the groups of a pair joined
/// to its right start.
fn next_group(p: &Pair) -> u32 {
    p.groups.iter().copied().max().unwrap_or(0) + 1
}

impl Rewriter<'_> {
    /// All joins of `a` with `b` (line 4: "each possible way of joining"),
    /// each option decided from its member combinations before anything
    /// of it is built. An option whose combinations and column-group
    /// partition repeat an earlier option's has the same members and the
    /// same layout up to column order and group numbering — the same
    /// [`PairKey`], a certain Prop. 3.5 hit — so it is counted, not
    /// decided. That catches `⋈_=` on two ID columns an earlier `⋈_=` put
    /// in one group, and `⋈_≺≺` where the summary has only parent edges
    /// between the paths.
    ///
    /// A join the member model cannot place is not an option: `⋈_=` of two
    /// derived IDs, or a structural join whose ancestor side is one. Such
    /// a join puts the two original nodes under a common ancestor but on no
    /// common chain, and the merged member's path set then merges distinct
    /// nodes below that ancestor.
    pub(super) fn join_options(&self, a: &Pair, b: &Pair, joins: &mut Joins) {
        joins.decided.clear();
        joins.repeats = 0;
        joins.tried.clear();
        joins.combos.clear();
        for ca in id_cols(a) {
            for cb in id_cols(b) {
                let derived = (a.cols[ca].derived, b.cols[cb].derived);
                if a.cols[ca].scheme != b.cols[cb].scheme || derived.0 && derived.1 {
                    continue; // no kind of join is an option
                }
                let kinds = if a.cols[ca].scheme.is_structural() {
                    JOIN_KINDS.len()
                } else {
                    1
                };
                self.classify(a, b, ca, cb, &mut joins.classified);
                for (k, &kind) in JOIN_KINDS.iter().enumerate().take(kinds) {
                    let unplaced = match kind {
                        JoinKind::IdEq => false,
                        JoinKind::Struct(_, false) => derived.0,
                        JoinKind::Struct(_, true) => derived.1,
                    };
                    let classified = &joins.classified;
                    let these = || {
                        classified
                            .iter()
                            .filter(move |c| c.2 & (1 << k) != 0)
                            .map(|&(i, j, _)| (i, j))
                    };
                    if unplaced || these().next().is_none() {
                        continue; // no two members join
                    }
                    let merged = (kind == JoinKind::IdEq).then(|| (a.groups[ca], b.groups[cb]));
                    let combos = &mut joins.combos;
                    if let Some(earlier) = joins
                        .tried
                        .iter()
                        .find(|t| {
                            t.merged == merged
                                && combos[t.combos.clone()].iter().copied().eq(these())
                        })
                        .map(|t| t.decided)
                    {
                        #[cfg(test)]
                        if super::tests::building_repeats() {
                            let option: Vec<(usize, usize)> = these().collect();
                            let d = self.decide(a, b, ca, cb, kind, &option, &mut joins.merged);
                            super::tests::check_repeat(
                                earlier.map(|e| &joins.decided[e]),
                                d.as_ref(),
                                a,
                                b,
                            );
                            joins.decided.extend(d);
                            continue;
                        }
                        joins.repeats += usize::from(earlier.is_some());
                        continue;
                    }
                    let start = combos.len();
                    combos.extend(these());
                    let option = &combos[start..];
                    let d = self.decide(a, b, ca, cb, kind, option, &mut joins.merged);
                    #[cfg(test)]
                    super::tests::check_parts(self, a, b, ca, cb, kind, option, d.as_ref());
                    joins.tried.push(Tried {
                        merged,
                        combos: start..combos.len(),
                        decided: d.as_ref().map(|_| joins.decided.len()),
                    });
                    joins.decided.extend(d);
                }
            }
        }
    }

    /// Classifies the member combinations `(i, j)` of `a.members ×
    /// b.members` by the join kinds whose path test their column paths on
    /// `ca`, `cb` pass, into `out`, in merge order: bit `k` of a
    /// combination's mask is set when it joins under `JOIN_KINDS[k]`.
    fn classify(
        &self,
        a: &Pair,
        b: &Pair,
        ca: usize,
        cb: usize,
        out: &mut Vec<(usize, usize, u8)>,
    ) {
        out.clear();
        for (i, ma) in a.members.iter().enumerate() {
            let Some(pa) = ma.col_path[ca] else {
                continue; // nulls never join
            };
            for (j, mb) in b.members.iter().enumerate() {
                let Some(pb) = mb.col_path[cb] else {
                    continue;
                };
                // `⋈_=`, then `a`'s path above `b`'s (`⋈_≺`, `⋈_≺≺`), then
                // below it (the reversed two); a parent is an ancestor
                let mask = if pa == pb {
                    1
                } else if self.s.is_ancestor(pa, pb) {
                    (u8::from(self.s.is_parent(pa, pb)) << 1) | 1 << 3
                } else if self.s.is_ancestor(pb, pa) {
                    (u8::from(self.s.is_parent(pb, pa)) << 2) | 1 << 4
                } else {
                    continue;
                };
                out.push((i, j, mask));
            }
        }
    }

    /// Decides the join of `a` and `b` on `ca`, `cb` from its member
    /// `combos`: merges each combination's node sets, drops the
    /// unsatisfiable and the repeated members, and keys the join from the
    /// merged node sets and its inputs' layouts. `None` when no member is
    /// left (an S-unsatisfiable join, discarded: line 5 remark) or more
    /// than [`RewriteOpts::max_members`](super::RewriteOpts::max_members).
    /// `merged` is scratch space.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn decide(
        &self,
        a: &Pair,
        b: &Pair,
        ca: usize,
        cb: usize,
        kind: JoinKind,
        combos: &[(usize, usize)],
        merged: &mut Vec<u64>,
    ) -> Option<Decided> {
        let mut kept: Vec<(usize, usize, NodeSet)> = combos
            .iter()
            .filter_map(|&(i, j)| {
                Some((i, j, merge_nodes(&a.members[i].nodes, &b.members[j].nodes)?))
            })
            .collect();
        if kept.is_empty() {
            return None;
        }
        if kept.len() > 1 {
            // repeated members: equal node sets and column paths, the first
            // of each kept
            let keep: Vec<bool> = {
                type Merged<'p> = (&'p NodeSet, &'p [Option<NodeId>], &'p [Option<NodeId>]);
                let mut seen: HashSet<Merged<'_>, FastBuild> =
                    HashSet::with_capacity_and_hasher(kept.len(), FastBuild::default());
                kept.iter()
                    .map(|(i, j, n)| {
                        seen.insert((n, &a.members[*i].col_path, &b.members[*j].col_path))
                    })
                    .collect()
            };
            let mut k = keep.into_iter();
            kept.retain(|_| k.next().expect("one flag each"));
        }
        if kept.len() > self.opts.max_members {
            return None;
        }
        let eq = (kind == JoinKind::IdEq).then(|| (a.groups[ca], b.groups[cb]));
        let words = kept
            .iter()
            .map(|&(i, j, _)| a.layouts.width(i) + b.layouts.width(j));
        let mut layouts = Layouts::with_capacity(kept.len(), words.sum());
        for &(i, j, _) in &kept {
            let (ai, bj) = ((&*a.layouts, i), (&*b.layouts, j));
            if matches!(kind, JoinKind::Struct(_, true)) {
                layouts.push_joined(bj, ai, next_group(b), None, merged);
            } else {
                layouts.push_joined(ai, bj, next_group(a), eq, merged);
            }
        }
        let layouts = Arc::new(layouts);
        Some(Decided {
            key: PairKey::new(kept.iter().map(|m| m.2.clone()), Arc::clone(&layouts)),
            join: Join {
                kind,
                ca,
                cb,
                kept,
                layouts,
            },
        })
    }
}
