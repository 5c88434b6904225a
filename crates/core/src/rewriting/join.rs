//! Algorithm 1 lines 2–11 (§4.2): every way of joining two pairs on an
//! ID column (`⋈_=`, `⋈_≺`, `⋈_≺≺`), each decided from its member
//! combinations before it is built.

use super::pair::{dedup_members, merge_nodes, Member, Pair};
use super::Rewriter;
use smv_algebra::{AttrKind, Plan, StructRel};
use std::sync::Arc;

#[derive(Clone, Copy, PartialEq, Eq)]
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

/// The joins of one expansion `a ⋈ b` ([`Rewriter::join_options`]).
pub(super) struct Joins {
    /// The pairs built, in option order.
    pub(super) built: Vec<Joined>,
    /// Options that repeat an earlier option's key and were not built.
    pub(super) repeats: usize,
}

/// A join built from `a` and `b`.
pub(super) struct Joined {
    pub(super) pair: Pair,
    /// `b` is the plan's left input (a structural join with `b` on the
    /// ancestor side); `a` is otherwise.
    pub(super) b_left: bool,
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

impl Rewriter<'_> {
    /// All joins of `a` with `b` (line 4: "each possible way of joining"),
    /// each option decided from its member combinations before it is
    /// built. An option whose combinations and column-group partition
    /// repeat an earlier option's has the same members and the same layout
    /// up to column order and group numbering — the same [`PairKey`](super::pair::PairKey), a
    /// certain Prop. 3.5 hit — so it is counted, not built. That catches
    /// `⋈_=` on two ID columns an earlier `⋈_=` put in one group, and
    /// `⋈_≺≺` where the summary has only parent edges between the paths.
    ///
    /// A join the member model cannot place is not an option: `⋈_=` of two
    /// derived IDs, or a structural join whose ancestor side is one. Such
    /// a join puts the two original nodes under a common ancestor but on no
    /// common chain, and the merged member's path set then merges distinct
    /// nodes below that ancestor.
    pub(super) fn join_options(&self, a: &Pair, b: &Pair) -> Joins {
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
                let kinds = if a.cols[ca].scheme.is_structural() {
                    JOIN_KINDS.len()
                } else {
                    1
                };
                let derived = (a.cols[ca].derived, b.cols[cb].derived);
                let by_kind = self.combinations(a, b, ca, cb);
                for (&kind, combos) in JOIN_KINDS.iter().zip(by_kind).take(kinds) {
                    let unplaced = match kind {
                        JoinKind::IdEq => derived.0 && derived.1,
                        JoinKind::Struct(_, false) => derived.0,
                        JoinKind::Struct(_, true) => derived.1,
                    };
                    if unplaced || combos.is_empty() {
                        continue; // no two members join
                    }
                    let merged = (kind == JoinKind::IdEq).then(|| (a.groups[ca], b.groups[cb]));
                    if let Some(earlier) = tried
                        .iter()
                        .find(|t| t.merged == merged && t.combos == combos)
                        .map(|t| t.built)
                    {
                        #[cfg(test)]
                        if super::tests::building_repeats() {
                            let pair = self.merge(a, b, ca, cb, kind, &combos);
                            super::tests::check_repeat(
                                earlier.map(|e| &joins.built[e].pair),
                                pair.as_ref().map(|j| &j.pair),
                            );
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
    /// column paths on `ca`, `cb` pass each join kind's path test, in merge
    /// order, indexed as [`JOIN_KINDS`]: one pass over the member pairs
    /// classifies each for every kind.
    fn combinations(&self, a: &Pair, b: &Pair, ca: usize, cb: usize) -> [Vec<(usize, usize)>; 5] {
        let mut out: [Vec<(usize, usize)>; 5] = Default::default();
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
                let (parent, ancestor) = if pa == pb {
                    out[0].push((i, j));
                    continue;
                } else if self.s.is_ancestor(pa, pb) {
                    (self.s.is_parent(pa, pb).then_some(1), 3)
                } else if self.s.is_ancestor(pb, pa) {
                    (self.s.is_parent(pb, pa).then_some(2), 4)
                } else {
                    continue;
                };
                if let Some(k) = parent {
                    out[k].push((i, j));
                }
                out[ancestor].push((i, j));
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
    ) -> Option<Joined> {
        // a reversed structural join has `b` on the ancestor side: `b` is
        // the left input, so the pair's columns are `b`'s, then `a`'s
        let reversed = matches!(kind, JoinKind::Struct(_, true));
        let (left, right, lcol, rcol) = if reversed {
            (b, a, cb, ca)
        } else {
            (a, b, ca, cb)
        };
        let mut members = Vec::with_capacity(combos.len());
        for &(i, j) in combos {
            let (ma, mb) = (&a.members[i], &b.members[j]);
            let Some(nodes) = merge_nodes(&ma.nodes, &mb.nodes) else {
                continue;
            };
            let (ml, mr) = if reversed { (mb, ma) } else { (ma, mb) };
            let mut col_path = ml.col_path.clone();
            col_path.extend(mr.col_path.iter().copied());
            members.push(Member { nodes, col_path });
        }
        if members.is_empty() {
            return None; // S-unsatisfiable join — discarded (line 5 remark)
        }
        dedup_members(&mut members);
        if members.len() > self.opts.max_members {
            return None;
        }
        let (left_plan, right_plan) = (Arc::clone(&left.plan), Arc::clone(&right.plan));
        let plan = Arc::new(match kind {
            JoinKind::IdEq => Plan::IdJoin {
                left: left_plan,
                right: right_plan,
                lcol,
                rcol,
            },
            JoinKind::Struct(rel, _) => Plan::StructJoin {
                left: left_plan,
                right: right_plan,
                lcol,
                rcol,
                rel,
            },
        });
        let mut cols = left.cols.clone();
        cols.extend(right.cols.iter().cloned());
        let off = left.groups.iter().copied().max().unwrap_or(0) + 1;
        let mut groups = left.groups.clone();
        groups.extend(right.groups.iter().map(|g| g + off));
        if kind == JoinKind::IdEq {
            // same node on both sides: merge the groups
            let (target, src) = (groups[lcol], groups[left.cols.len() + rcol]);
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
        Some(Joined {
            pair: Pair {
                plan,
                cols,
                groups,
                members,
                views,
                est: None,
            },
            b_left: reversed,
        })
    }
}
