//! Algorithm 1 line 1 (§4.3, §4.6): the base pair of each view — its
//! query-independent preparation kept on the view, the Prop. 3.4 pruning
//! and the §4.6 derived columns (virtual IDs and content navigation).

use super::pair::{dedup_members, ColInfo, Member, NodeSet, Pair};
use super::{QueryCtx, Rewriter};
use smv_algebra::{AttrKind, ColCard, ColKind, NavStep, Plan};
use smv_pattern::canonical::{canonical_model, CanonOpts};
use smv_pattern::{associated_paths, Axis, Formula, Pattern};
use smv_views::{col_cards, schema_of, View};
use smv_xml::{LabeledTree, NodeId, Symbol};
use std::collections::HashSet;
use std::sync::Arc;

/// The summary constraints and the two options a [`PreparedView`] was
/// built under: [`Summary::constraints_token`](smv_summary::Summary::constraints_token),
/// [`CanonOpts::use_strong`] and
/// [`RewriteOpts::max_members`](super::RewriteOpts::max_members).
pub(super) type PrepStamp = ((u64, u64, u64), bool, usize);

/// Everything a base pair needs of a view that no query changes, kept on
/// the [`View`] ([`View::derived`]) so that every run over the same
/// summary constraints — a service's next request, the advisor's next
/// probe, the next epoch's first ranking — finds it instead of deriving
/// it again.
pub(super) struct PreparedView {
    pub(super) stamp: PrepStamp,
    /// Associated paths of the flat pattern's non-root nodes: the view
    /// side of the Prop 3.4 relatedness test.
    pub(super) vpaths: Vec<Vec<NodeId>>,
    /// The cost model's column paths of a scan of the view
    /// ([`col_cards`]).
    pub(super) cols: Vec<ColCard>,
    /// The pair of the bare scan — flat plan, column layout, deduplicated
    /// members — before its §4.6 derived columns; `views` is left for the
    /// run to fill in. `None` when the view can seed no pair under these
    /// options (canonical model empty or truncated, too many members).
    pub(super) base: Option<Pair>,
}

impl Rewriter<'_> {
    /// The query-independent half of a base pair: flatten the pattern and
    /// its nested columns, take the associated paths, enumerate and
    /// deduplicate the members. Reads the view, the summary's structure
    /// and strong edges, and the two options in `stamp` — nothing of the
    /// query.
    pub(super) fn prepare(&self, v: &View, stamp: PrepStamp) -> PreparedView {
        let pf = v.pattern.unnest_copy();
        let mut vpaths = associated_paths(&pf, self.s);
        vpaths.remove(0);
        PreparedView {
            stamp,
            vpaths,
            cols: col_cards(&v.pattern, self.s),
            base: self.scan_pair(v, &pf),
        }
    }

    /// The (plan, pattern) pair of `v`'s bare scan, `pf` its flat pattern.
    pub(super) fn scan_pair(&self, v: &View, pf: &Pattern) -> Option<Pair> {
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
                input: Arc::new(plan),
                col: i,
                outer: true,
            };
            let mut cols = schema.cols[..i].to_vec();
            cols.extend(inner.cols);
            cols.extend(schema.cols[i + 1..].iter().cloned());
            schema = smv_algebra::Schema { cols };
        }
        // flat column metadata: return nodes in pre-order × attr order
        let mut cols: Vec<ColInfo> = Vec::new();
        let mut groups: Vec<u32> = Vec::new();
        for (g, r) in pf.return_nodes().into_iter().enumerate() {
            for kind in AttrKind::of_node(pf, r) {
                cols.push(ColInfo {
                    attr: kind,
                    scheme: v.scheme,
                    derived: false,
                });
                groups.push(g as u32);
            }
        }
        debug_assert_eq!(cols.len(), schema.cols.len(), "flat layout mismatch");
        let mut members: Vec<Member> = Vec::new();
        for t in &model.trees {
            let rp = t.return_paths();
            members.push(Member {
                nodes: NodeSet::of_tree(t),
                col_path: groups.iter().map(|&g| rp[g as usize]).collect(),
            });
        }
        dedup_members(&mut members);
        if members.len() > self.opts.max_members {
            return None;
        }
        Some(Pair {
            plan: Arc::new(plan),
            cols,
            groups,
            members,
            views: Vec::new(),
            est: None,
        })
    }

    /// The base (plan, pattern) pair of view `vi` for this query: prune by
    /// Prop 3.4, take the prepared scan pair (members shared, not copied),
    /// add the §4.6 derived columns the query can use.
    pub(super) fn base_pair(
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
                pair.plan = Arc::new(Plan::DeriveParentId {
                    input: Arc::clone(&pair.plan),
                    col: c,
                    levels: level,
                    name: Symbol::intern(&format!("vid{c}u{level}")),
                });
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
                let chain = self.s.tree_chain_down(base, sd);
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
                pair.plan = Arc::new(Plan::NavigateContent {
                    input: Arc::clone(&pair.plan),
                    content_col: c,
                    base_id_col,
                    steps,
                    attrs: attrs.clone(),
                    optional: true,
                    name: Symbol::intern(&format!("nav{c}p{}", sd.0)),
                });
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
                    for &p in &chain {
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
}
