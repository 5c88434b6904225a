//! Algorithm 1's output and lines 13–14 (§4.2, §4.6): the final plan of
//! a pair that passes line 7 — projection and the §4.6 nesting
//! adaptation — and the minimal unions of partial candidates.

use super::{QueryCtx, RewriteStats, Rewriter, Rewriting};
use smv_algebra::{AttrKind, Carried, CostModel, Plan};
use smv_pattern::{PNodeId, Pattern};
use smv_xml::Symbol;
use std::sync::Arc;
use std::time::Instant;

/// A partial candidate of lines 13–14: its estimate, its plan and which
/// trees of `mod_S(q)` it covers.
pub(super) type UnionCandidate = (Carried, Plan, Vec<bool>);

impl Rewriter<'_> {
    /// Builds the final plan over a pair's (selected) plan `input`:
    /// projection to the query's flat output, then the §4.6 nesting
    /// adaptation (group-by per nested edge, keyed on the anchor's stored
    /// ID).
    pub(super) fn output_plan(
        &self,
        input: Arc<Plan>,
        ctx: &QueryCtx<'_>,
        chosen: &[usize],
    ) -> Option<Plan> {
        let mut plan = Plan::Project {
            input,
            cols: chosen.to_vec(),
        };
        let nested: Vec<PNodeId> = ctx.q.nested_edges();
        if nested.is_empty() {
            return Some(Plan::DupElim {
                input: Arc::new(plan),
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
                input: Arc::new(plan),
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
            input: Arc::new(Plan::Project {
                input: Arc::new(plan),
                cols: perm,
            }),
        })
    }

    /// Lines 13-14: minimal unions of partial candidates covering
    /// `mod_S(q)`, ranked by summed branch cost (cheapest union first)
    /// with dominated branches deduplicated before enumeration. A union
    /// is priced over its branches' estimates.
    pub(super) fn build_unions(
        &self,
        ctx: &QueryCtx<'_>,
        candidates: &[UnionCandidate],
        rewritings: &mut Vec<Rewriting>,
        stats: &mut RewriteStats,
        t0: Instant,
        model: &CostModel<'_>,
    ) {
        let n = ctx.qmodel.len();
        if n == 0 || candidates.is_empty() {
            return;
        }
        let costed: Vec<(f64, Vec<bool>)> = candidates
            .iter()
            .map(|(est, _, cov)| (est.est.cost, cov.clone()))
            .collect();
        for sel in rank_union_covers(&costed).into_iter().take(4) {
            let union = Plan::Union {
                inputs: sel.iter().map(|&i| candidates[i].1.clone()).collect(),
            };
            let branches: Vec<&Carried> = sel.iter().map(|&i| &candidates[i].0).collect();
            let union_est = model.carry(&union, &branches);
            let plan = Plan::DupElim {
                input: Arc::new(union),
            };
            let est = model.carry(&plan, &[&union_est]).est;
            if self.record(plan, est, rewritings, stats, t0) {
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
pub(super) fn rank_union_covers(cands: &[(f64, Vec<bool>)]) -> Vec<Vec<usize>> {
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

/// Flat output columns of the query: (return node, attr) in schema order.
pub(super) fn flat_out_cols(qf: &Pattern) -> Vec<(PNodeId, AttrKind)> {
    qf.return_nodes()
        .into_iter()
        .flat_map(|r| AttrKind::of_node(qf, r).map(move |kind| (r, kind)))
        .collect()
}

enum TargetSlot {
    Flat(PNodeId, AttrKind),
    Table(PNodeId),
}

/// The top-level slot layout of `schema_of(q)`.
fn target_layout(q: &Pattern) -> Vec<TargetSlot> {
    fn rec(q: &Pattern, n: PNodeId, out: &mut Vec<TargetSlot>) {
        out.extend(AttrKind::of_node(q, n).map(|kind| TargetSlot::Flat(n, kind)));
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
