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
//! One module per step; this one holds the options, the results and the
//! search loop with its branch-and-bound.
//!
//! * `pair` — the (plan, pattern) pairs: members, node sets and the
//!   Proposition 3.5 key (`PairKey`);
//! * `adapt`, line 1 — `M0` = per-view base pairs, pre-pruned by
//!   Proposition 3.4, extended with virtual-ID columns (§4.6, `nav_fID`)
//!   and C-navigation columns (§4.6 unfolding, restricted to
//!   query-relevant paths). The part of a base pair no query changes
//!   (`PreparedView`) is built once per (view, summary constraints) and
//!   kept on the `View`; see the crate docs;
//! * `join`, lines 2-11 — left-deep join enumeration over `⋈_=`, `⋈_≺`,
//!   `⋈_≺≺`, with satisfiability pruning (dead member sets), each join
//!   decided — its members merged and keyed from its inputs' parts —
//!   before it is built; the loop here applies the Proposition 3.5 test
//!   and the Proposition 3.6 size bound, and `bound` the
//!   branch-and-bound's lower bound, and builds only the joins that pass
//!   both;
//! * `verdict`, line 7 — the `≡_S q` test runs both directions on
//!   members: every member (strong-closed) must realize its designated
//!   tuple in `q` (Prop 3.1 / §4.2 decorated embeddings), and every tree
//!   of `mod_S(q)` must be covered by some member with value coverage
//!   (Prop 3.2 / §4.2 condition 2). `σ_{L=l}` and `σ_{φ(v)}` selections
//!   are inserted per §4.6 before testing;
//! * `plan`, lines 13-14 — minimal unions of pairs that jointly cover
//!   `mod_S(q)`; and the output — plans are completed with the §4.6
//!   nesting adaptation: a group-by (`Nest`) per nested query edge, keyed
//!   on the nesting anchor's ID (the anchor must store `ID`, per the
//!   paper's "otherwise this nesting step cannot be obtained").

mod adapt;
mod bound;
mod join;
mod pair;
mod plan;
mod verdict;

use adapt::{PrepStamp, PreparedView};
use bound::Suppliers;
use pair::{Pair, PairKey};
use plan::{flat_out_cols, UnionCandidate};
use smv_algebra::{
    AttrKind, CardSource, ColCard, CostModel, FeedbackStore, Plan, PlanEstimate, ScanCard,
};
use smv_pattern::canonical::{canonical_model, CanonOpts};
use smv_pattern::{associated_paths, PNodeId, Pattern};
use smv_summary::Summary;
use smv_views::{DefCards, View};
use smv_xml::fasthash::FastBuild;
use smv_xml::NodeId;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict::{Candidate, MemberVerdicts, ModelTree};

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
    /// Stop after this many rewritings; `1` stops at the first (the
    /// "stopped early" mode of §5).
    pub max_rewritings: usize,
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
    /// Joins decided: members merged and keyed from the inputs' parts, the
    /// options left with at least one member and at most
    /// [`RewriteOpts::max_members`]. A join recognized as a repeat from
    /// its member combinations is not decided. Of the decided, a join
    /// whose key was seen builds nothing more, and one the cost bound
    /// prunes only its plan and estimate.
    pub joins_built: usize,
    /// Direction-A verdicts computed — the query embedded in a member's
    /// canonical tree, read off the member's node set — one per distinct
    /// (member node set, designation) the line-7 test met.
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

/// The run's scan statistics: each view's rows from the supplied source,
/// its column paths from its preparation ([`PreparedView::cols`]), built
/// once per (view, summary constraints) instead of once per run. The
/// search's plans scan only the run's views.
struct PreparedCards<'a> {
    rows: &'a dyn CardSource,
    views: &'a [View],
    preps: &'a [Arc<PreparedView>],
}

impl CardSource for PreparedCards<'_> {
    fn scan_card(&self, view: &str) -> Option<ScanCard> {
        let i = self.views.iter().position(|v| v.name == view)?;
        Some(ScanCard {
            rows: self.rows.scan_rows(view)?,
            cols: self.preps[i].cols.clone(),
        })
    }
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
        if ctx.qmodel.is_empty() || qmodel_full.truncated {
            // unsatisfiable query: rewriting is the empty plan; report none.
            // A truncated model lists only some of the query's trees, and
            // direction B would check coverage of those alone: report none
            // (`prepare` drops a view whose model is truncated likewise)
            result.stats.total = t0.elapsed();
            return result;
        }

        // ---- setup: each view's preparation
        let preps: Vec<Arc<PreparedView>> = self
            .views
            .iter()
            .map(|v| {
                let (prep, built) = self.prepared(v);
                if built {
                    result.stats.prepared_built += 1;
                } else {
                    result.stats.prepared_reused += 1;
                }
                prep
            })
            .collect();

        // cost model: supplied cardinalities, or definition-only estimates,
        // with the column paths of the preparations
        let def_cards = DefCards::new(self.views, self.s);
        let cards = PreparedCards {
            rows: self.cards.unwrap_or(&def_cards),
            views: self.views,
            preps: &preps,
        };
        let mut model = CostModel::new(self.s, &cards);
        if let Some(fb) = self.feedback {
            model = model.with_feedback(fb);
        }

        // ---- base pairs (M0), Prop 3.4 pruning, derived columns
        let mut m0: Vec<Pair> = Vec::new();
        for (vi, (v, prep)) in self.views.iter().zip(&preps).enumerate() {
            if let Some(mut pair) = self.base_pair(vi, v, prep, &ctx) {
                pair.est = Some(model.carried(&pair.plan, None));
                #[cfg(test)]
                tests::estimated(&pair);
                m0.push(pair);
            }
        }
        if self.opts.rank_by_cost {
            // cheapest-first exploration: the first rewriting found is
            // already a good one, shrinking time-to-first-rewriting and
            // tightening the branch-and-bound bound early
            m0.sort_by(|a, b| a.cost().total_cmp(&b.cost()));
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

        // collect union candidates: (estimate, plan, coverage bitset)
        let mut union_candidates: Vec<UnionCandidate> = Vec::new();

        let mut seen: HashSet<PairKey, FastBuild> = HashSet::default();
        let mut m: Vec<Pair> = Vec::new();
        for p in &m0 {
            #[cfg(test)]
            tests::created(p);
            seen.insert(p.kept_key());
            m.push(p.clone());
        }

        // best complete rewriting's estimated work — the B&B upper bound
        let mut best_cost = f64::INFINITY;

        let mut verdicts = MemberVerdicts::default();
        // line 7 test on the initial single-view pairs first
        let mut emit = |pair: &Pair,
                        result: &mut RewriteResult,
                        union_candidates: &mut Vec<UnionCandidate>,
                        best_cost: &mut f64|
         -> bool {
            result.stats.pairs_explored += 1;
            // a candidate's σ and output operators priced over the pair's
            // estimate
            let priced = |plan: &Plan| model.carried(plan, Some((&pair.plan, pair.carried())));
            for plan_or_cand in self.try_pair(pair, &ctx, &mut verdicts) {
                match plan_or_cand {
                    Candidate::Equivalent(plan) => {
                        let est = priced(&plan).est;
                        let full = self.record(plan, est, result, t0);
                        let found = result.rewritings.last().expect("just recorded");
                        *best_cost = best_cost.min(found.est.cost);
                        if full {
                            return true; // stop the whole search
                        }
                    }
                    Candidate::Partial(plan, coverage) => {
                        if union_candidates.len() < 64 {
                            union_candidates.push((priced(&plan), plan, coverage));
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
        let mut joins = join::Joins::default();
        let mut frontier = 0usize;
        while !stop && frontier < m.len() {
            let i = frontier;
            frontier += 1;
            let a = &m[i];
            if a.plan.scan_count() >= max_scans {
                continue;
            }
            // B&B on the prefix: every extension joins in more base pairs,
            // one for each column the prefix does not supply yet
            if self.opts.cost_prune && suppliers.bound(&[&a.views], &a.carried().est) >= best_cost {
                result.stats.pairs_pruned += 1;
                continue;
            }
            // `a` has fewer than `max_scans` scans and a base pair one, so
            // every join below is within the bound. Each is decided before
            // anything of it is built, and built only once it is kept.
            let mut created: Vec<Pair> = Vec::new();
            for base in &m0 {
                self.join_options(a, base, &mut joins);
                result.stats.pairs_deduped += joins.repeats;
                result.stats.joins_built += joins.decided.len();
                for join::Decided { key, join } in joins.decided.drain(..) {
                    #[cfg(test)]
                    tests::created(&join.clone().pair(a, base, join.plan(a, base), None));
                    // Prop 3.5: no new pattern information. Dedup before
                    // costing so a dominated pair is estimated and counted
                    // as pruned once, not once per deriving prefix.
                    if !seen.insert(key) {
                        result.stats.pairs_deduped += 1;
                        continue;
                    }
                    let plan = join.plan(a, base);
                    let (x, y) = (a.carried(), base.carried());
                    let inputs = if join.b_left() { [y, x] } else { [x, y] };
                    let est = model.carry(&plan, &inputs);
                    #[cfg(test)]
                    tests::estimated(&join.clone().pair(
                        a,
                        base,
                        Arc::clone(&plan),
                        Some(est.clone()),
                    ));
                    // B&B on the fresh join (dominated before it is ever
                    // built, tested or expanded)
                    if self.opts.cost_prune
                        && suppliers.bound(&[&a.views, &base.views], &est.est) >= best_cost
                    {
                        result.stats.pairs_pruned += 1;
                        continue;
                    }
                    let joined = join.pair(a, base, plan, Some(est));
                    #[cfg(test)]
                    tests::survived(&joined);
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

    /// `v`'s preparation under this rewriter's summary constraints and
    /// options: the one kept on the view, or a new one built and kept
    /// there (then with `true`).
    fn prepared(&self, v: &View) -> (Arc<PreparedView>, bool) {
        let stamp: PrepStamp = (
            self.s.constraints_token(),
            self.opts.canon.use_strong,
            self.opts.max_members,
        );
        v.derived(
            |p: &PreparedView| p.stamp == stamp,
            || self.prepare(v, stamp),
        )
    }

    /// The column cards the cost model reads for scans of `view`:
    /// [`col_cards`](smv_views::col_cards) of its pattern under this
    /// rewriter's summary, as kept with the view's preparation. Prepares
    /// the view first when no run under the same summary constraints and
    /// options has.
    pub fn prepared_cards(&self, view: &View) -> Vec<ColCard> {
        self.prepared(view).0.cols.clone()
    }

    /// Records `plan` as a rewriting with its estimate `est`; the first
    /// one of the run sets [`RewriteStats::first_rewriting`] to the time
    /// since `t0`. Returns whether the run now has
    /// [`RewriteOpts::max_rewritings`] of them.
    fn record(
        &self,
        plan: Plan,
        est: PlanEstimate,
        result: &mut RewriteResult,
        t0: Instant,
    ) -> bool {
        result
            .stats
            .first_rewriting
            .get_or_insert_with(|| t0.elapsed());
        result.rewritings.push(Rewriting {
            scans: plan.scan_count(),
            plan,
            est,
        });
        result.rewritings.len() >= self.opts.max_rewritings
    }
}

#[cfg(test)]
mod tests {
    use super::join::{Decided, JoinKind, Joins};
    use super::pair::{dedup_members, merge_nodes, ColInfo, Member, NodeSet};
    use super::plan::rank_union_covers;
    use super::*;
    use crate::containment::{tuple_in, FormulaMode};
    use proptest::prelude::*;
    use smv_algebra::{execute_profiled_with, execute_with, ExecOpts};
    use smv_pattern::canonical::CTree;
    use smv_pattern::parse_pattern;
    use smv_pattern::Formula;
    use smv_views::{
        materialize, CatalogCards, CatalogEpoch, EpochCatalog, RefreshPolicy, ViewStore,
    };
    use smv_xml::IdScheme;
    use smv_xml::{Document, Value};
    use std::cell::{Cell, RefCell};
    use std::cmp::Ordering;
    use std::collections::BTreeMap;
    use std::collections::HashMap;

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

    /// `join_options`'s check of a repeat it decided against the option it
    /// matched, both joins of `a` and `b`: both absent, or both present
    /// with equal keys and equal text fingerprints.
    pub(super) fn check_repeat(
        earlier: Option<&Decided>,
        repeat: Option<&Decided>,
        a: &Pair,
        b: &Pair,
    ) {
        match (earlier, repeat) {
            (None, None) => {}
            (Some(e), Some(r)) => {
                assert!(e.key == r.key, "a repeat keys apart from its match");
                assert_eq!(
                    oracle_fingerprint(&assembled(e, a, b)),
                    oracle_fingerprint(&assembled(r, a, b))
                );
            }
            (e, r) => panic!(
                "one of an option and its repeat kept no member: {} vs {}",
                e.is_some(),
                r.is_some()
            ),
        }
    }

    /// The pair a decided join of `a` and `b` builds, unestimated.
    fn assembled(d: &Decided, a: &Pair, b: &Pair) -> Pair {
        d.join.clone().pair(a, b, d.join.plan(a, b), None)
    }

    /// Runs `f` with every repeat built, returning what it returns.
    fn building_every_join<T>(f: impl FnOnce() -> T) -> T {
        BUILD_REPEATS.with(|b| b.set(true));
        let out = f();
        BUILD_REPEATS.with(|b| b.set(false));
        out
    }

    /// One direction-A verdict the search computed, with what its oracle
    /// reads.
    pub(super) struct MemberTest {
        nodes: NodeSet,
        des: Vec<Option<NodeId>>,
        verdict: bool,
        /// A §4.6 selection refined the pair's members before the test.
        refined: bool,
        /// The plan of the pair tested.
        plan: Arc<Plan>,
    }

    thread_local! {
        /// Every direction-A verdict `Rewriter::run` computes on this
        /// thread (a miss of the run's memo) while a test is recording.
        static MEMBER_TESTS: RefCell<Option<Vec<MemberTest>>> = const { RefCell::new(None) };
        /// Every pair `Rewriter::run` estimates on this thread — its base
        /// pairs and each join that survives the Prop. 3.5 test — while a
        /// test is recording.
        static ESTIMATED: RefCell<Option<Vec<Pair>>> = const { RefCell::new(None) };
    }

    /// `test_combo`'s hook: records a computed verdict if this thread is
    /// recording.
    pub(super) fn member_tested(
        nodes: &NodeSet,
        des: &[Option<NodeId>],
        verdict: bool,
        refined: bool,
        pair: &Pair,
    ) {
        MEMBER_TESTS.with(|c| {
            if let Some(v) = c.borrow_mut().as_mut() {
                v.push(MemberTest {
                    nodes: nodes.clone(),
                    des: des.to_vec(),
                    verdict,
                    refined,
                    plan: Arc::clone(&pair.plan),
                });
            }
        });
    }

    /// `Rewriter::run`'s hook: records an estimated pair if this thread is
    /// recording.
    pub(super) fn estimated(p: &Pair) {
        ESTIMATED.with(|c| {
            if let Some(v) = c.borrow_mut().as_mut() {
                v.push(p.clone());
            }
        });
    }

    thread_local! {
        /// While set: every join the search builds past the bound, and,
        /// for every option `join_options` decides, the pair built the
        /// way the search built every option before options were decided
        /// ([`merged_by_hand`]).
        static PARTS: RefCell<Option<(Vec<Pair>, Vec<Pair>)>> = const { RefCell::new(None) };
    }

    /// `join_options`'s hook: while this thread records parts, holds the
    /// option of `a` and `b` on `ca`, `cb` of kind `kind` with
    /// combinations `combos`, decided as `d`, equal to the pair
    /// [`merged_by_hand`] builds from them — both absent, or present with
    /// equal keys in equality and hash, and equal fields but the estimate —
    /// and records that pair.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn check_parts(
        r: &Rewriter<'_>,
        a: &Pair,
        b: &Pair,
        ca: usize,
        cb: usize,
        kind: JoinKind,
        combos: &[(usize, usize)],
        d: Option<&Decided>,
    ) {
        PARTS.with(|c| {
            let mut c = c.borrow_mut();
            let Some((oracles, _)) = c.as_mut() else {
                return;
            };
            let want = merged_by_hand(r, a, b, ca, cb, kind, combos);
            match (d, want) {
                (None, None) => {}
                (Some(d), Some(want)) => {
                    let key = want.key();
                    assert!(d.key == key, "a key from parts keys apart from the pair");
                    assert_eq!(d.key.hash, key.hash);
                    assert_same_pair(&assembled(d, a, b), &want, "decided");
                    oracles.push(want);
                }
                (d, want) => panic!("decided {} but merged {}", d.is_some(), want.is_some()),
            }
        });
    }

    /// `Rewriter::run`'s hook: records a join built past the bound if this
    /// thread records parts.
    pub(super) fn survived(p: &Pair) {
        PARTS.with(|c| {
            if let Some((_, survivors)) = c.borrow_mut().as_mut() {
                survivors.push(p.clone());
            }
        });
    }

    /// Runs `f`, returning the pairs [`check_parts`] checked decided
    /// options against, and every join built past the bound, meanwhile.
    fn recording_parts(f: impl FnOnce()) -> (Vec<Pair>, Vec<Pair>) {
        PARTS.with(|c| *c.borrow_mut() = Some(Default::default()));
        f();
        PARTS.with(|c| c.borrow_mut().take()).unwrap_or_default()
    }

    /// The join of `a` and `b` on `ca`, `cb` from member `combos`, built
    /// as the search built every option before options were decided:
    /// each combination's members merged into a member (the
    /// unsatisfiable dropped), repeated members dropped, then the plan,
    /// the columns, the groups and the views made, and the members laid
    /// out afresh. `None` for no member or more than `max_members`.
    fn merged_by_hand(
        r: &Rewriter<'_>,
        a: &Pair,
        b: &Pair,
        ca: usize,
        cb: usize,
        kind: JoinKind,
        combos: &[(usize, usize)],
    ) -> Option<Pair> {
        let reversed = matches!(kind, JoinKind::Struct(_, true));
        let (left, right, lcol, rcol) = if reversed {
            (b, a, cb, ca)
        } else {
            (a, b, ca, cb)
        };
        let mut members = Vec::new();
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
            return None;
        }
        dedup_members(&mut members);
        if members.len() > r.opts.max_members {
            return None;
        }
        let (l, rp) = (Arc::clone(&left.plan), Arc::clone(&right.plan));
        let plan = Arc::new(match kind {
            JoinKind::IdEq => Plan::IdJoin {
                left: l,
                right: rp,
                lcol,
                rcol,
            },
            JoinKind::Struct(rel, _) => Plan::StructJoin {
                left: l,
                right: rp,
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
        let mut pair = Pair {
            plan,
            cols,
            groups,
            members,
            layouts: Arc::default(),
            views,
            est: None,
        };
        pair.lay_out();
        Some(pair)
    }

    /// Holds `got` equal to `want` field by field: plan, columns, groups,
    /// members in order, views, and the kept layouts those of the columns.
    fn assert_same_pair(got: &Pair, want: &Pair, at: &str) {
        assert_eq!(
            format!("{:?}", got.plan),
            format!("{:?}", want.plan),
            "{at}"
        );
        assert_eq!(
            format!("{:?}", got.cols),
            format!("{:?}", want.cols),
            "{at}"
        );
        assert_eq!(got.groups, want.groups, "{at}");
        assert_eq!(got.members, want.members, "{at}");
        assert_eq!(got.views, want.views, "{at}");
        assert_eq!(got.layouts, want.layouts, "{at}: layouts from parts");
    }

    /// Runs `f`, returning every direction-A verdict computed meanwhile.
    fn recording_member_tests(f: impl FnOnce()) -> Vec<MemberTest> {
        MEMBER_TESTS.with(|c| *c.borrow_mut() = Some(Vec::new()));
        f();
        MEMBER_TESTS
            .with(|c| c.borrow_mut().take())
            .unwrap_or_default()
    }

    /// Runs `f`, returning every pair estimated meanwhile.
    fn recording_estimates(f: impl FnOnce()) -> Vec<Pair> {
        ESTIMATED.with(|c| *c.borrow_mut() = Some(Vec::new()));
        f();
        ESTIMATED
            .with(|c| c.borrow_mut().take())
            .unwrap_or_default()
    }

    /// Holds every recorded verdict equal to its oracle: the member's node
    /// set copied into a canonical tree (`CTree::from_path_set`, closed
    /// under strong edges when `use_strong` is set) and `q` embedded in it
    /// by `tuple_in`. Returns how many verdicts were `true`.
    fn assert_direction_a_is_the_tree_oracle(
        q: &Pattern,
        s: &Summary,
        use_strong: bool,
        tests: &[MemberTest],
        at: &str,
    ) -> usize {
        let qf = q.unnest_copy();
        for t in tests {
            let tree = CTree::from_path_set(s, &t.nodes.to_vec(), &t.des, use_strong);
            let oracle = tuple_in(&qf, &tree, s, FormulaMode::Implication);
            assert_eq!(
                t.verdict,
                oracle,
                "{at}: {} designating {:?}",
                tree.render(),
                t.des
            );
        }
        tests.iter().filter(|t| t.verdict).count()
    }

    /// Does `p` navigate stored content (§4.6 C-unfolding)?
    fn navigates(p: &Plan) -> bool {
        matches!(p, Plan::NavigateContent { .. }) || p.children().into_iter().any(navigates)
    }

    /// Rewriting options with strong closure on or off.
    fn strong_opts(use_strong: bool) -> RewriteOpts {
        RewriteOpts {
            canon: CanonOpts {
                use_strong,
                ..CanonOpts::default()
            },
            ..opts()
        }
    }

    /// Direction A read off a member's node set gives the tree oracle's
    /// verdict for every (member, designation) the 22 golden queries meet
    /// over the benchmark's views, under each ID scheme, with strong
    /// closure on and off. Among them are members a §4.6 selection refined
    /// and members merged by joins, and both verdicts occur.
    #[test]
    fn direction_a_is_the_tree_oracle_on_the_benchmark() {
        let s = bench_summary();
        let (mut tested, mut held, mut refined, mut merged) = (0, 0, 0, 0);
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
            let views = bench_views(scheme);
            for use_strong in [true, false] {
                let o = strong_opts(use_strong);
                for q_src in BENCH_QUERIES.iter().chain(&STRING_QUERIES) {
                    let q = parse_pattern(q_src).unwrap();
                    let made = recording_member_tests(|| {
                        rewrite(&q, &views, &s, &o);
                    });
                    let at = format!("{scheme:?}, strong {use_strong}, {q_src}");
                    held += assert_direction_a_is_the_tree_oracle(&q, &s, use_strong, &made, &at);
                    tested += made.len();
                    refined += made.iter().filter(|t| t.refined).count();
                    merged += made.iter().filter(|t| t.plan.scan_count() > 1).count();
                }
            }
        }
        assert!(
            tested > 400 && held > 0 && held < tested && refined > 0 && merged > 0,
            "{tested} tested, {held} held, {refined} refined, {merged} merged"
        );
    }

    /// A document, its views (name, pattern) and the queries to rank.
    type Fixture = (
        &'static str,
        &'static [(&'static str, &'static str)],
        &'static [&'static str],
    );

    /// The same on small fixtures: members that carry a navigation chain
    /// below a `C` column (§4.6), alone and joined. A canonical model is
    /// strong-closed already, and so is a merge of two closed sets; the
    /// chain is not. In the second fixture not every `a` has a `c`, but
    /// every `c` has a `d`: the member that navigates from `a` to `c`
    /// embeds `r(//a{id}(/c{id}(/d)))` only through its strong closure.
    #[test]
    fn direction_a_is_the_tree_oracle_on_content_navigation() {
        let fixtures: [Fixture; 2] = [
            (
                r#"r(a(b="1" c(d="2")) a(b="3" c(d="4" d="5")) a(c))"#,
                &[("content", "r(//a{id,c})"), ("bs", "r(//a{id}(/b{id,v}))")],
                &[
                    "r(//a{id}(/c(/d{v})))",
                    "r(//a{id}(/c{id}(/d{v}[v>2])))",
                    "r(//d{id,v})",
                    "r(//a{id}(/b{v}, /c(/d{v})))",
                ],
            ),
            (
                r#"r(a(c(d(e="1"))) a(c(d(e="2"))) a)"#,
                &[("content", "r(//a{id,c})")],
                &["r(//a{id}(/c{id}(/d)))", "r(//a{id}(/c(/d(/e{v}))))"],
            ),
        ];
        let (mut navigated, mut closed) = (0, 0);
        for (doc, views, queries) in fixtures {
            let s = Summary::of(&Document::from_parens(doc));
            let views: Vec<View> = views
                .iter()
                .map(|(name, src)| View::new(name, parse_pattern(src).unwrap(), IdScheme::OrdPath))
                .collect();
            for q_src in queries {
                let q = parse_pattern(q_src).unwrap();
                for use_strong in [true, false] {
                    let made = recording_member_tests(|| {
                        rewrite(&q, &views, &s, &strong_opts(use_strong));
                    });
                    let at = format!("strong {use_strong}, {q_src}");
                    let held =
                        assert_direction_a_is_the_tree_oracle(&q, &s, use_strong, &made, &at);
                    navigated += made.iter().filter(|t| navigates(&t.plan)).count();
                    if use_strong && *q_src == "r(//a{id}(/c{id}(/d)))" {
                        closed += held;
                    }
                }
            }
        }
        assert!(navigated > 0, "no member navigated content");
        assert!(
            closed > 0,
            "no member embedded the query through its closure"
        );
    }

    /// `tests/common`'s `tree_strategy`: small labeled trees over `a`–`d`
    /// under a root `r`, with optional small values.
    fn tree_text() -> impl Strategy<Value = String> {
        let leaf = (0u8..4, proptest::option::of(0i64..5)).prop_map(|(l, v)| match v {
            Some(v) => format!("{}=\"{v}\"", (b'a' + l) as char),
            None => format!("{}", (b'a' + l) as char),
        });
        leaf.prop_recursive(3, 24, 3, |inner| {
            (0u8..4, proptest::collection::vec(inner, 1..4))
                .prop_map(|(l, kids)| format!("{}({})", (b'a' + l) as char, kids.join(" ")))
        })
        .prop_map(|body| format!("r({body})"))
    }

    /// A step of a view or query pattern over `tree_text`'s labels: `/` or
    /// `//`, a label or `*`, stored attributes (content among them), or
    /// none when `bare` is set.
    fn step_text(bare: bool) -> impl Strategy<Value = String> {
        const ATTRS: [&str; 6] = ["{id}", "{id,v}", "{id,c}", "{id,l,v}", "{v}", ""];
        let attrs = if bare { ATTRS.len() } else { ATTRS.len() - 1 };
        (0usize..2, 0u8..5, 0usize..attrs).prop_map(|(axis, l, a)| {
            let label = if l == 4 {
                "*".to_string()
            } else {
                ((b'a' + l) as char).to_string()
            };
            format!("{}{label}{}", ["/", "//"][axis], ATTRS[a])
        })
    }

    /// One step under `r`, a step with a child step, or two sibling steps.
    /// A query's (`query` set) last step may store nothing or carry a
    /// value predicate.
    fn pattern_text(query: bool) -> impl Strategy<Value = String> {
        (step_text(false), step_text(query), 0u8..3, 0i64..5, 0u8..2).prop_map(
            move |(x, y, shape, k, p)| {
                let last = if query && p == 1 {
                    format!("[v>{k}]")
                } else {
                    String::new()
                };
                match shape {
                    0 => format!("r({x}{last})"),
                    1 => format!("r({x}({y}{last}))"),
                    _ => format!("r({x}, {y}{last})"),
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Direction A read off a member's node set gives the tree
        /// oracle's verdict for every (member, designation) a search over
        /// random documents, views and queries meets, under each ID scheme
        /// and with strong closure on and off.
        #[test]
        fn direction_a_is_the_tree_oracle(
            doc in tree_text(),
            views in proptest::collection::vec(pattern_text(false), 1..4),
            q in pattern_text(true),
            scheme in 0usize..3,
            strong in 0u8..2,
        ) {
            let s = Summary::of(&Document::from_parens(&doc));
            let scheme = [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential][scheme];
            let views: Vec<View> = views
                .iter()
                .enumerate()
                .map(|(i, v)| View::new(&format!("v{i}"), parse_pattern(v).unwrap(), scheme))
                .collect();
            let q = parse_pattern(&q).unwrap();
            let use_strong = strong == 1;
            let o = RewriteOpts {
                max_scans: 3,
                max_pairs: 400,
                ..strong_opts(use_strong)
            };
            let made = recording_member_tests(|| {
                rewrite(&q, &views, &s, &o);
            });
            let at = format!("{doc}, {views:?}, strong {use_strong}");
            assert_direction_a_is_the_tree_oracle(&q, &s, use_strong, &made, &at);
        }
    }

    /// For each ID scheme: an epoch catalog over `pr7_document(1.0, 1)`
    /// with the benchmark's views, and a feedback store that measured each
    /// of the 22 golden queries' rank-0 plan and first two joins; `f` gets
    /// the scheme, the snapshot, the store and the queries with their
    /// texts.
    fn with_bench_feedback(
        mut f: impl FnMut(IdScheme, &CatalogEpoch, &FeedbackStore, &[(Pattern, &str)]),
    ) {
        let doc = smv_datagen::pr7_document(1.0, 1);
        let queries: Vec<(Pattern, &str)> = BENCH_QUERIES
            .iter()
            .chain(&STRING_QUERIES)
            .map(|q| (parse_pattern(q).unwrap(), *q))
            .collect();
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
            let mut ec = EpochCatalog::new(doc.clone(), scheme);
            for v in bench_views(scheme) {
                ec.add_view(v, RefreshPolicy::Eager);
            }
            let snap = ec.snapshot();
            let s = snap.summary();
            let cards = CatalogCards::over(&*snap, s);
            // measured rows: each query's rank-0 plan and its first two
            // joins, executed
            let mut fb = FeedbackStore::new();
            for (q, _) in &queries {
                let r = Rewriter::new(q, snap.views(), s, opts()).with_card_source(&cards);
                let mut result = RewriteResult::default();
                let made = recording_estimates(|| result = r.run());
                let joins = made.iter().filter(|p| p.plan.scan_count() > 1).take(2);
                let plans = result
                    .rewritings
                    .first()
                    .map(|rw| rw.plan.clone())
                    .into_iter()
                    .chain(joins.map(|p| Plan::clone(&p.plan)));
                for plan in plans {
                    let (_, profile) =
                        execute_profiled_with(&plan, &*snap, &ExecOpts::default()).unwrap();
                    fb.ingest(&plan, &profile);
                }
            }
            f(scheme, &snap, &fb, &queries);
        }
    }

    /// `q` ranked over `snap`'s views through its card source, with
    /// `feedback` if given, as the service ranks it.
    fn rank_over(
        snap: &CatalogEpoch,
        q: &Pattern,
        feedback: Option<&FeedbackStore>,
    ) -> RewriteResult {
        let s = snap.summary();
        let cards = CatalogCards::over(snap, s);
        let mut r = Rewriter::new(q, snap.views(), s, opts()).with_card_source(&cards);
        if let Some(fb) = feedback {
            r = r.with_feedback(fb);
        }
        r.run()
    }

    /// Every pair the search estimates — a base pair operator by
    /// operator, a join from its inputs' carried estimates, both over the
    /// column cards kept with the views' preparations — carries exactly
    /// what a fresh cost model over the card source gives its plan, bit
    /// for bit, and so does every rewriting, priced over its pair's. For
    /// the 22 golden queries under the three ID schemes, without feedback
    /// and with a feedback store that measured some fragments, joins and
    /// their inputs among them.
    #[test]
    fn carried_estimates_are_fresh_estimates() {
        with_bench_feedback(|scheme, snap, fb, queries| {
            let s = snap.summary();
            let cards = CatalogCards::over(snap, s);
            for feedback in [None, Some(fb)] {
                let mut fresh = CostModel::new(s, &cards);
                if let Some(fb) = feedback {
                    fresh = fresh.with_feedback(fb);
                }
                let (mut pairs, mut measured_joins, mut rewritings) = (0, 0, 0);
                for (q, src) in queries {
                    let mut result = RewriteResult::default();
                    let made = recording_estimates(|| result = rank_over(snap, q, feedback));
                    for rw in &result.rewritings {
                        let (got, want) = (rw.est, fresh.estimate(&rw.plan));
                        assert_eq!(
                            (got.cost.to_bits(), got.rows.to_bits()),
                            (want.cost.to_bits(), want.rows.to_bits()),
                            "{scheme:?}, {src}, feedback {}: rewriting {got:?} vs {want:?}",
                            feedback.is_some(),
                        );
                        rewritings += 1;
                    }
                    for p in made {
                        let (got, want) = (p.carried().est, fresh.estimate(&p.plan));
                        assert_eq!(
                            (got.cost.to_bits(), got.rows.to_bits()),
                            (want.cost.to_bits(), want.rows.to_bits()),
                            "{scheme:?}, {src}, feedback {}: {got:?} vs {want:?} for\n{}",
                            feedback.is_some(),
                            p.plan
                        );
                        pairs += 1;
                        let measured = |p: &Plan| feedback.and_then(|fb| fb.measured_rows(p));
                        if p.plan.scan_count() > 1
                            && measured(&p.plan).is_some()
                            && p.plan.children().into_iter().all(|c| measured(c).is_some())
                        {
                            measured_joins += 1;
                        }
                    }
                }
                assert!(pairs > 200, "{scheme:?}: {pairs} pairs");
                assert!(
                    rewritings >= queries.len(),
                    "{scheme:?}: {rewritings} rewritings"
                );
                assert_eq!(feedback.is_some(), measured_joins > 0, "{scheme:?}");
            }
        });
    }

    /// Every option the search decides — the 22 golden queries under the
    /// three ID schemes, without feedback and with the store of
    /// [`carried_estimates_are_fresh_estimates`] — is keyed from its
    /// parts exactly as the pair built the way every option was built
    /// before options were decided keys itself, in hash and in equality,
    /// and assembles to that pair ([`check_parts`]). Every join built past
    /// the bound is that pair field by field, its estimate a fresh cost
    /// model's over that pair's plan, bit for bit.
    #[test]
    fn a_key_from_parts_is_the_key() {
        let (mut options, mut kept) = (0, 0);
        with_bench_feedback(|scheme, snap, fb, queries| {
            let s = snap.summary();
            let cards = CatalogCards::over(snap, s);
            for feedback in [None, Some(fb)] {
                let mut fresh = CostModel::new(s, &cards);
                if let Some(fb) = feedback {
                    fresh = fresh.with_feedback(fb);
                }
                for (q, src) in queries {
                    let at = format!("{scheme:?}, {src}, feedback {}", feedback.is_some());
                    let mut result = RewriteResult::default();
                    let (oracles, survivors) =
                        recording_parts(|| result = rank_over(snap, q, feedback));
                    assert_eq!(oracles.len(), result.stats.joins_built, "{at}");
                    let mut by_key: HashMap<PairKey, &Pair> = HashMap::new();
                    for p in &oracles {
                        by_key.entry(p.key()).or_insert(p);
                    }
                    for got in &survivors {
                        let want = by_key[&got.key()];
                        assert_same_pair(got, want, &at);
                        let (est, fresh) = (got.carried().est, fresh.estimate(&want.plan));
                        assert_eq!(
                            (est.cost.to_bits(), est.rows.to_bits()),
                            (fresh.cost.to_bits(), fresh.rows.to_bits()),
                            "{at}"
                        );
                    }
                    options += oracles.len();
                    kept += survivors.len();
                }
            }
        });
        // not vacuous: most options decided are dropped, some kept
        assert!(
            options > 1000 && kept > 100,
            "{options} options, {kept} kept"
        );
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

    /// With [`BENCH_QUERIES`], the 22 queries of `tests/common/golden.rs`:
    /// three with string predicates.
    const STRING_QUERIES: [&str; 3] = [
        r#"site(//item{id}(/name{v}[v>"m"]))"#,
        r#"site(//name{id,v}[v<"k"])"#,
        r#"site(/regions(/asia(/item{id}(/name{v}[v>="c" and v<"p"]))))"#,
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
    /// decides 101 joins, not 226, and builds only the 19 it keeps.
    #[test]
    fn a_descendant_ranking_builds_only_joins_that_can_be_new() {
        let s = bench_summary();
        let views = bench_views(IdScheme::OrdPath);
        let q = parse_pattern("site(//quantity{id,v}[v>2 and v<1000007])").unwrap();
        let mut fast = RewriteResult::default();
        let (_, kept) = recording_parts(|| fast = rewrite(&q, &views, &s, &opts()));
        let every = building_every_join(|| rewrite(&q, &views, &s, &opts()));
        assert_eq!(fast.stats.views_kept, 7);
        assert_eq!(fast.stats.joins_built, 101);
        assert_eq!(every.stats.joins_built, 226);
        assert_eq!(fast.stats.pairs_deduped, every.stats.pairs_deduped);
        assert_eq!(kept.len(), 19, "joins built past the bound");
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
        let mut joins = Joins::default();
        Rewriter::new(&q, &[], s, opts()).join_options(a, b, &mut joins);
        joins
    }

    /// The pairs the decided joins `j` of `a` and `b` build, each keyed
    /// from its parts as it was decided: the key must be the pair's.
    fn built(j: &Joins, a: &Pair, b: &Pair) -> Vec<Pair> {
        j.decided
            .iter()
            .map(|d| {
                let p = assembled(d, a, b);
                assert!(d.key == p.key(), "a key from parts is the key");
                p
            })
            .collect()
    }

    #[test]
    fn id_columns_one_group_already_joined_repeat_their_join() {
        let s = Summary::of(&Document::from_parens(
            r#"r(item(name="a") item(name="b"))"#,
        ));
        let names = scanned(&s, "r(//name{id,v})");
        // names ⋈_= names: both ID columns in one group
        let self_join = joins(&s, &names, &names);
        assert_eq!((self_join.decided.len(), self_join.repeats), (1, 0));
        let twice = &built(&self_join, &names, &names)[0];
        assert_eq!(twice.groups, vec![0, 0, 0, 0]);
        // ⋈_= on the second ID column repeats the one on the first
        let j = joins(&s, twice, &names);
        assert_eq!((j.decided.len(), j.repeats), (1, 1));
        let every = building_every_join(|| joins(&s, twice, &names));
        assert_eq!((every.decided.len(), every.repeats), (2, 0));
        let every = built(&every, twice, &names);
        assert!(every[0].key() == every[1].key());
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
        assert_eq!((j.decided.len(), j.repeats), (1, 1));
        let every = building_every_join(|| joins(&flat, &items, &names));
        let every = built(&every, &items, &names);
        assert_eq!(every.len(), 2);
        assert!(every[0].key() == every[1].key());
        // an item inside an item: ⋈_≺≺ also reaches the inner name
        let deep = Summary::of(&Document::from_parens(
            r#"r(item(name="a" item(name="b")))"#,
        ));
        let (items, names) = (
            scanned(&deep, "r(/item{id})"),
            scanned(&deep, "r(//name{id,v})"),
        );
        let j = joins(&deep, &items, &names);
        assert_eq!((j.decided.len(), j.repeats), (2, 0));
        let j = built(&j, &items, &names);
        assert!(j[0].key() != j[1].key());
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
        assert_eq!((j.decided.len(), j.repeats), (2, 0));
        let j = built(&j, &a, &items);
        keys_agree(&j[0], &j[1], false);
    }

    fn f_gt(c: i64) -> Formula {
        Formula::gt(Value::int(c))
    }

    fn id_value_pair(members: Vec<Member>) -> Pair {
        let mut pair = Pair {
            plan: Arc::new(Plan::Scan { view: "t".into() }),
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
            layouts: Arc::default(),
            views: Vec::new(),
            est: None,
        };
        pair.lay_out();
        pair
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

    /// A query model cut at `max_trees` lists only some of the query's
    /// trees, so covering them proves nothing: with the cap at one tree,
    /// the view below covers `/r/a/b` but not `/r/c/b`, and a rewriting
    /// from it would return one of the query's two rows.
    #[test]
    fn a_truncated_query_model_yields_no_rewriting() {
        let doc = Document::from_parens(r#"r(a(b="1") c(b="2"))"#);
        let s = Summary::of(&doc);
        let q = parse_pattern("r(//b{id,v})").unwrap();
        let views = [View::new(
            "v",
            parse_pattern("r(/a(/b{id,v}))").unwrap(),
            IdScheme::OrdPath,
        )];
        let capped = RewriteOpts {
            canon: CanonOpts {
                max_trees: 1,
                ..CanonOpts::default()
            },
            ..opts()
        };
        assert!(canonical_model(&q.unnest_copy(), &s, &capped.canon).truncated);
        assert!(rewrite(&q, &views, &s, &capped).rewritings.is_empty());
        assert!(rewrite(&q, &views, &s, &opts()).rewritings.is_empty());
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
        o.max_rewritings = 1;
        let result = rewrite(&q, &views, &s, &o);
        assert_eq!(result.rewritings.len(), 1);
        assert!(result.stats.first_rewriting.is_some());
    }
}
