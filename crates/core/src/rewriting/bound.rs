//! The branch-and-bound over Algorithm 1's lines 2–11 (§4): which base
//! pairs supply each returned column, and the lower bound on every
//! rewriting a pair can still reach.

use super::pair::Pair;
use super::QueryCtx;
use smv_algebra::PlanEstimate;

/// Which base pairs supply each flat output column of the query, and the
/// cheapest of them: the per-run table behind the branch-and-bound's lower
/// bound and its "no rewriting" proof at set-up.
///
/// A base pair *supplies* output column `(r, a)` when it has a column of
/// attribute `a` that some member binds on a path associated with `r` —
/// the test [`Rewriter::try_pair`](super::Rewriter::try_pair) puts to the column's group. Joins and
/// selections never add a column or move one to another path, so every
/// pair that passes line 7 contains a supplier of every output column.
pub(super) struct Suppliers {
    /// Per view (by index), per output column: does its base pair supply
    /// the column? All `false` for a view with no base pair.
    by_view: Vec<Vec<bool>>,
    /// Per output column: the least `cost + rows` among its suppliers,
    /// infinite when there is none.
    cheapest: Vec<f64>,
}

impl Suppliers {
    /// The table of the base pairs `m0` over `views` views.
    pub(super) fn new(m0: &[Pair], ctx: &QueryCtx<'_>, views: usize) -> Suppliers {
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
                    cheapest[k] = cheapest[k].min(pair.cost() + pair.rows());
                }
            }
        }
        Suppliers { by_view, cheapest }
    }

    /// Does some output column have no supplier? Then no pair the search
    /// can build passes line 7, and the query has no rewriting.
    pub(super) fn some_unsupplied(&self) -> bool {
        self.cheapest.iter().any(|c| c.is_infinite())
    }

    /// A lower bound on the estimated cost of every rewriting built from
    /// a pair of estimate `est` over the views of `views` (a join's are
    /// its two inputs'), or from a join extending it. A pair that supplies
    /// every output column keeps its own cost as the bound, so the
    /// rewritings it and its extensions yield are pruned exactly as
    /// before. One that does not cannot pass line 7 itself: every
    /// rewriting from it joins in a supplier of each missing column, and a
    /// join costs at least its inputs' costs and rows.
    pub(super) fn bound(&self, views: &[&[usize]], est: &PlanEstimate) -> f64 {
        let missing = (0..self.cheapest.len())
            .filter(|&k| {
                !views
                    .iter()
                    .flat_map(|v| v.iter())
                    .any(|&v| self.by_view[v][k])
            })
            .map(|k| self.cheapest[k])
            .max_by(f64::total_cmp);
        match missing {
            Some(cheapest) => est.cost + est.rows + cheapest,
            None => est.cost,
        }
    }
}
