//! Cardinality estimation and plan costing over summary statistics.
//!
//! The rewriting algorithm (paper, Algorithm 1) enumerates *all*
//! S-equivalent plans but says nothing about which one to run. Following
//! the XML-warehouse line of work (Mahboubi & Darmont), this module turns
//! the structural summary into a cost model: every summary path carries a
//! node count, a child fan-out and value-distribution statistics (see
//! `smv-summary`), and every plan column can be annotated with the set of
//! summary paths its values may sit on. From these two ingredients the
//! model estimates, bottom-up over a [`Plan`]:
//!
//! * **output rows** — scans from view-extent sizes, structural joins
//!   from path-pair containment counts (every document node has exactly
//!   one ancestor on each ancestor path, so the containment count of a
//!   path pair `(a, b)` with `a` an ancestor of `b` is `count(b)`),
//!   selections from label counts and value selectivities, nest/unnest
//!   from fan-outs;
//! * **work** — a unit-cost sum over the operators, with materialize-
//!   everything semantics (each operator pays its input and output rows;
//!   content navigation pays a re-parse penalty per row).
//!
//! Estimates are deliberately *total*: unknown views and unannotated
//! columns fall back to documented defaults rather than failing, so the
//! model can always rank plans.

use crate::feedback::FeedbackStore;
use crate::plan::{Plan, Predicate};
use crate::struct_join::StructRel;
use smv_pattern::{Bound, Formula, Interval};
use smv_summary::{Summary, ValueHistogram};
use smv_xml::NodeId;
use std::sync::{Arc, OnceLock};

/// Default extent size assumed for views the source does not know.
const DEFAULT_ROWS: f64 = 1_000.0;
/// Selectivity of a non-point value predicate when the distinct-value
/// sketch has saturated (or no paths are known) and nothing better can be
/// derived.
const RANGE_SEL: f64 = 1.0 / 3.0;
/// Selectivity of a label-equality selection with unknown paths.
const LABEL_SEL: f64 = 0.5;
/// Selectivity of a not-null filter with unknown paths.
const NOT_NULL_SEL: f64 = 0.9;
/// Join selectivity fallback for structural joins with unknown paths.
const STRUCT_SEL: f64 = 0.05;
/// Average nested-table size when no fan-out can be derived.
const DEFAULT_FAN: f64 = 2.0;
/// Per-row penalty for re-parsing stored content during navigation.
const CONTENT_PARSE_COST: f64 = 16.0;

/// Per-column path annotation of a relation: which summary paths the
/// column's (non-null) values may sit on. An empty candidate set means
/// *unknown*, not *empty*.
#[derive(Clone, Debug, Default)]
pub enum ColCard {
    /// Atomic column with candidate summary paths. Shared: an estimate
    /// over the column copies no path list.
    Atom(Arc<[NodeId]>),
    /// Nested table column with its inner layout.
    Nested(Vec<ColCard>),
    /// Nothing is known about this column.
    #[default]
    Unknown,
}

impl ColCard {
    fn paths(&self) -> &[NodeId] {
        match self {
            ColCard::Atom(ps) => ps,
            _ => &[],
        }
    }
}

/// Scan-level statistics supplied by the view layer.
#[derive(Clone, Debug)]
pub struct ScanCard {
    /// Rows in the stored extent (estimated when not materialized).
    pub rows: f64,
    /// Per stored column: candidate summary paths, mirroring the view's
    /// relational schema (nested columns carry their inner layout).
    pub cols: Vec<ColCard>,
}

/// Supplies per-view scan statistics to the cost model.
pub trait CardSource {
    /// Statistics for the extent of `view`, if the view is known.
    fn scan_card(&self, view: &str) -> Option<ScanCard>;

    /// [`CardSource::scan_card`]'s `rows` alone, for a caller that has the
    /// column paths already.
    fn scan_rows(&self, view: &str) -> Option<f64> {
        self.scan_card(view).map(|c| c.rows)
    }
}

/// The estimate for a (sub)plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated total work (unit-cost sum over all operators).
    pub cost: f64,
}

/// A plan's estimate kept with what an operator above the plan reads: its
/// columns' candidate paths and, with feedback attached, its measured
/// rows. Every estimate is built from these, one operator at a time
/// ([`CostModel::carry`]); a caller that builds plans bottom-up keeps one
/// per plan and prices an operator it puts on top over them.
#[derive(Clone, Debug)]
pub struct Carried {
    /// Estimated output rows and total work: [`CostModel::estimate`]'s.
    pub est: PlanEstimate,
    cols: Vec<ColCard>,
    /// Feedback's measured output rows of the plan: a scan's from its
    /// pricing, a selection's or a join's from its ratio's first lookup,
    /// any other's the first time an operator over the plan reads them.
    measured: OnceLock<Option<f64>>,
}

/// A summary-driven cost model for [`Plan`]s.
///
/// With [`CostModel::with_feedback`], measured rows (see
/// [`crate::feedback::FeedbackStore`]) take precedence over the static
/// summary-driven guesses wherever an observation exists.
pub struct CostModel<'a> {
    summary: &'a Summary,
    source: &'a dyn CardSource,
    feedback: Option<&'a FeedbackStore>,
}

impl<'a> CostModel<'a> {
    /// Builds a model over a summary and a scan-statistics source.
    pub fn new(summary: &'a Summary, source: &'a dyn CardSource) -> CostModel<'a> {
        CostModel {
            summary,
            source,
            feedback: None,
        }
    }

    /// Applies runtime feedback from `store`'s measured fragment rows: a
    /// measured scan replaces the extent size, a selection takes the
    /// pass-rate `m(select) / m(input)` and a join the selectivity
    /// `m(join) / (m(left) · m(right))` in place of the static estimate.
    pub fn with_feedback(mut self, store: &'a FeedbackStore) -> CostModel<'a> {
        self.feedback = Some(store);
        self
    }

    /// Estimates output rows and total work for `plan`: the estimate of
    /// [`CostModel::carried`].
    pub fn estimate(&self, plan: &Plan) -> PlanEstimate {
        self.carried(plan, None).est
    }

    /// `plan`'s kept estimate, each operator priced once, bottom-up, over
    /// its inputs' kept estimates ([`CostModel::carry`]). `below` is a
    /// subplan of `plan` (that node, not an equal one) with the kept
    /// estimate the caller has for it: it is taken, not priced again.
    pub fn carried(&self, plan: &Plan, below: Option<(&Plan, &Carried)>) -> Carried {
        if let Some((_, kept)) = below.filter(|(sub, _)| std::ptr::eq(*sub, plan)) {
            return kept.clone();
        }
        let inputs: Vec<Carried> = plan
            .children()
            .into_iter()
            .map(|c| self.carried(c, below))
            .collect();
        self.carry(plan, &inputs.iter().collect::<Vec<_>>())
    }

    /// `plan`'s own operator priced over `inputs`, the kept estimates of
    /// all of its inputs in [`Plan::children`] order (none for a scan).
    /// The values are [`CostModel::estimate`]'s of `plan`, bit for bit.
    ///
    /// With feedback attached, each fragment is looked up once and its
    /// measured rows kept: a scan's when it is priced, a selection's or a
    /// join's first by its ratio, so a miss costs one fingerprint and a
    /// hit reads the inputs' rows from their kept estimates.
    pub fn carry(&self, plan: &Plan, inputs: &[&Carried]) -> Carried {
        debug_assert_eq!(inputs.len(), plan.children().len(), "one per input");
        let measured = OnceLock::new();
        let (est, cols) = self.op(plan, inputs, &measured);
        Carried {
            est,
            cols,
            measured,
        }
    }

    /// Feedback's measured rows of `plan`, looked up once into `kept`.
    fn measured(&self, kept: &OnceLock<Option<f64>>, plan: &Plan) -> Option<f64> {
        *kept.get_or_init(|| self.feedback?.measured_rows(plan))
    }

    /// Feedback's measured output rows of `fragment` over the product of
    /// its inputs' kept measured rows: a selection's pass-rate, a join's
    /// selectivity. `None` without feedback for all of them, or when an
    /// input measured no rows. The fragment's own rows are looked up
    /// first, into `own`.
    fn ratio(
        &self,
        fragment: &Plan,
        inputs: &[&Carried],
        own: &OnceLock<Option<f64>>,
    ) -> Option<f64> {
        let out = self.measured(own, fragment)?;
        let mut product = 1.0;
        for (input, child) in inputs.iter().zip(fragment.children()) {
            let m = self.measured(&input.measured, child)?;
            if m <= 0.0 {
                return None;
            }
            product *= m;
        }
        Some(out / product)
    }

    /// Total document-node count over a candidate path set (`None` when
    /// the set is unknown/empty).
    fn path_total(&self, paths: &[NodeId]) -> Option<f64> {
        if paths.is_empty() {
            return None;
        }
        Some(paths.iter().map(|&p| self.summary.count(p) as f64).sum())
    }

    /// [`CostModel::carry`]'s estimate and columns of `plan`'s operator
    /// over `ins`; `own` keeps the fragment's measured rows.
    fn op(
        &self,
        plan: &Plan,
        ins: &[&Carried],
        own: &OnceLock<Option<f64>>,
    ) -> (PlanEstimate, Vec<ColCard>) {
        let est = |rows, cost| PlanEstimate { rows, cost };
        match plan {
            Plan::Scan { view } => {
                let mut card = self.source.scan_card(view);
                if let Some(rows) = self.measured(own, plan) {
                    // a view the source does not know but that was executed
                    // keeps its measured size, its columns unannotated
                    card.get_or_insert_with(|| ScanCard {
                        rows,
                        cols: Vec::new(),
                    })
                    .rows = rows;
                }
                match card {
                    Some(sc) => (est(sc.rows, sc.rows), sc.cols),
                    None => (est(DEFAULT_ROWS, DEFAULT_ROWS), Vec::new()),
                }
            }
            Plan::Select { pred, .. } => {
                let e = &ins[0];
                let mut cols = e.cols.clone();
                let sel = match pred {
                    Predicate::Value { col, formula } => {
                        let paths = cols.get(*col).map(ColCard::paths).unwrap_or(&[]);
                        match self.path_total(paths) {
                            Some(total) if total > 0.0 => {
                                let values: f64 = paths
                                    .iter()
                                    .map(|&p| self.summary.value_count(p) as f64)
                                    .sum();
                                let distinct: f64 = paths
                                    .iter()
                                    .map(|&p| self.summary.distinct_values(p) as f64)
                                    .sum::<f64>()
                                    .max(1.0);
                                let value_frac = (values / total).clamp(0.0, 1.0);
                                let pred_sel = match point_count(formula) {
                                    Some(points) => (points as f64 / distinct).min(1.0),
                                    None => self.range_selectivity(paths, formula),
                                };
                                value_frac * pred_sel
                            }
                            _ => RANGE_SEL,
                        }
                    }
                    Predicate::LabelEq { col, label } => {
                        let paths = cols.get(*col).map(ColCard::paths).unwrap_or(&[]);
                        match self.path_total(paths) {
                            Some(total) if total > 0.0 => {
                                let matching: Vec<NodeId> = paths
                                    .iter()
                                    .copied()
                                    .filter(|&p| self.summary.label(p) == *label)
                                    .collect();
                                let kept: f64 =
                                    matching.iter().map(|&p| self.summary.count(p) as f64).sum();
                                // the selection also narrows the column's
                                // candidate paths to the matching labels
                                if let Some(ColCard::Atom(ps)) = cols.get_mut(*col) {
                                    *ps = matching.into();
                                }
                                (kept / total).clamp(0.0, 1.0)
                            }
                            _ => LABEL_SEL,
                        }
                    }
                    Predicate::NotNull { .. } => NOT_NULL_SEL,
                };
                // an observed pass-rate for this exact fragment beats any
                // static guess (the label narrowing above still applies)
                let sel = self.ratio(plan, ins, own).unwrap_or(sel);
                (est(e.est.rows * sel, e.est.cost + e.est.rows), cols)
            }
            Plan::Project { cols, .. } => {
                let e = &ins[0];
                let projected = cols
                    .iter()
                    .map(|&c| e.cols.get(c).cloned().unwrap_or_default())
                    .collect();
                (est(e.est.rows, e.est.cost + e.est.rows), projected)
            }
            Plan::IdJoin { lcol, rcol, .. } => {
                let (l, r) = (&ins[0], &ins[1]);
                let lp = l.cols.get(*lcol).map(ColCard::paths).unwrap_or(&[]);
                let rp = r.cols.get(*rcol).map(ColCard::paths).unwrap_or(&[]);
                let (lrows, rrows) = (l.est.rows, r.est.rows);
                let rows = match (self.path_total(lp), self.path_total(rp)) {
                    (Some(dl), Some(dr)) if dl > 0.0 && dr > 0.0 => {
                        // IDs are unique per node: the shared key domain is
                        // the node count on the common paths
                        let shared: f64 = lp
                            .iter()
                            .filter(|p| rp.contains(p))
                            .map(|&p| self.summary.count(p) as f64)
                            .sum();
                        lrows * rrows * shared / (dl * dr)
                    }
                    _ => lrows * rrows / lrows.max(rrows).max(1.0),
                };
                self.joined(plan, ins, own, rows)
            }
            Plan::StructJoin {
                lcol, rcol, rel, ..
            } => {
                let (l, r) = (&ins[0], &ins[1]);
                let lp = l.cols.get(*lcol).map(ColCard::paths).unwrap_or(&[]);
                let rp = r.cols.get(*rcol).map(ColCard::paths).unwrap_or(&[]);
                let rows = match (self.path_total(lp), self.path_total(rp)) {
                    (Some(dl), Some(dr)) if dl > 0.0 && dr > 0.0 => {
                        // containment count of a path pair (a ≺≺ b) is
                        // count(b): each document node has exactly one
                        // ancestor on every ancestor path
                        let mut pairs = 0.0;
                        for &pa in lp {
                            for &pb in rp {
                                let related = match rel {
                                    StructRel::Parent => self.summary.is_parent(pa, pb),
                                    StructRel::Ancestor => self.summary.is_ancestor(pa, pb),
                                };
                                if related {
                                    pairs += self.summary.count(pb) as f64;
                                }
                            }
                        }
                        pairs * (l.est.rows / dl) * (r.est.rows / dr)
                    }
                    _ => l.est.rows * r.est.rows * STRUCT_SEL,
                };
                self.joined(plan, ins, own, rows)
            }
            Plan::Union { .. } => {
                let mut rows = 0.0;
                let mut cost = 0.0;
                let mut cols: Vec<ColCard> = Vec::new();
                for (i, e) in ins.iter().enumerate() {
                    rows += e.est.rows;
                    cost += e.est.cost + e.est.rows;
                    if i == 0 {
                        cols = e.cols.clone();
                    } else {
                        // merge candidate paths per position; mismatched
                        // layouts degrade to unknown
                        for (c, ec) in cols.iter_mut().zip(&e.cols) {
                            *c = match (std::mem::take(c), ec) {
                                (ColCard::Atom(a), ColCard::Atom(b)) => {
                                    let mut a = a.to_vec();
                                    for &p in b.iter() {
                                        if !a.contains(&p) {
                                            a.push(p);
                                        }
                                    }
                                    ColCard::Atom(a.into())
                                }
                                _ => ColCard::Unknown,
                            };
                        }
                    }
                }
                (est(rows, cost), cols)
            }
            Plan::Nest {
                key_cols,
                nested_cols,
                ..
            } => {
                let e = &ins[0];
                // distinct key tuples: at least the distinct count of any
                // single key column — take the largest single-column bound
                let key_bound = key_cols
                    .iter()
                    .filter_map(|&c| self.path_total(e.cols.get(c).map(ColCard::paths)?))
                    .fold(None::<f64>, |acc, d| Some(acc.map_or(d, |a| a.max(d))));
                let rows = match key_bound {
                    Some(d) => e.est.rows.min(d.max(1.0)),
                    None => e.est.rows * 0.5,
                };
                let mut cols: Vec<ColCard> = key_cols
                    .iter()
                    .map(|&c| e.cols.get(c).cloned().unwrap_or_default())
                    .collect();
                cols.push(ColCard::Nested(
                    nested_cols
                        .iter()
                        .map(|&c| e.cols.get(c).cloned().unwrap_or_default())
                        .collect(),
                ));
                (est(rows, e.est.cost + e.est.rows), cols)
            }
            Plan::Unnest { col, outer, .. } => {
                let e = &ins[0];
                let inner = match e.cols.get(*col) {
                    Some(ColCard::Nested(inner)) => inner.clone(),
                    _ => Vec::new(),
                };
                // fan-out: inner nodes per outer row, derived from the
                // summary when an outer column's path is an ancestor of an
                // inner column's path
                let fan = self.unnest_fanout(&e.cols, *col, &inner);
                let fan = if *outer { fan.max(1.0) } else { fan };
                let rows = (e.est.rows * fan).max(0.0);
                let mut cols: Vec<ColCard> = Vec::new();
                for (i, c) in e.cols.iter().enumerate() {
                    if i == *col {
                        if inner.is_empty() {
                            cols.push(ColCard::Unknown);
                        } else {
                            cols.extend(inner.iter().cloned());
                        }
                    } else {
                        cols.push(c.clone());
                    }
                }
                (est(rows, e.est.cost + e.est.rows + rows), cols)
            }
            Plan::NavigateContent {
                content_col,
                steps,
                attrs,
                optional,
                ..
            } => {
                let e = &ins[0];
                let base = e.cols.get(*content_col).map(ColCard::paths).unwrap_or(&[]);
                // walk the steps through the summary, multiplying fan-outs
                let mut frontier: Vec<NodeId> = base.to_vec();
                let mut fan = if frontier.is_empty() {
                    DEFAULT_FAN
                } else {
                    1.0
                };
                for step in steps {
                    if frontier.is_empty() {
                        break;
                    }
                    let mut next = Vec::new();
                    let mut step_fan = 0.0;
                    for &p in &frontier {
                        for &c in self.summary.children(p) {
                            if step.label.is_none_or(|l| self.summary.label(c) == l) {
                                step_fan += self.summary.avg_fanout(c);
                                next.push(c);
                            }
                        }
                    }
                    fan *= step_fan / frontier.len().max(1) as f64;
                    frontier = next;
                }
                let fan = if *optional { fan.max(1.0) } else { fan };
                let rows = e.est.rows * fan;
                let mut cols = e.cols.clone();
                for _ in attrs {
                    cols.push(if frontier.is_empty() {
                        ColCard::Unknown
                    } else {
                        ColCard::Atom(frontier.as_slice().into())
                    });
                }
                let cost = e.est.cost + e.est.rows * CONTENT_PARSE_COST + rows;
                (est(rows, cost), cols)
            }
            Plan::DeriveParentId { col, levels, .. } => {
                let e = &ins[0];
                let derived: Vec<NodeId> = e
                    .cols
                    .get(*col)
                    .map(ColCard::paths)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|&p| {
                        let mut cur = p;
                        for _ in 0..*levels {
                            cur = self.summary.parent(cur)?;
                        }
                        Some(cur)
                    })
                    .collect();
                let mut cols = e.cols.clone();
                cols.push(if derived.is_empty() {
                    ColCard::Unknown
                } else {
                    ColCard::Atom(derived.into())
                });
                (est(e.est.rows, e.est.cost + e.est.rows), cols)
            }
            Plan::DupElim { .. } => {
                let e = &ins[0];
                // bound distinct rows by the node counts when every column
                // is path-annotated (a relation over k annotated columns
                // cannot have more distinct rows than the product of the
                // per-column domains, capped by the input)
                let bound = e
                    .cols
                    .iter()
                    .map(|c| self.path_total(c.paths()))
                    .try_fold(1.0f64, |acc, d| d.map(|d| (acc * d.max(1.0)).min(1e18)));
                let rows = match bound {
                    Some(b) if !e.cols.is_empty() => e.est.rows.min(b),
                    _ => e.est.rows,
                };
                (est(rows, e.est.cost + e.est.rows), e.cols.clone())
            }
        }
    }

    /// A join of `ins` with `rows` estimated from the summary: the rows
    /// feedback's measured selectivity gives instead, when there is one,
    /// and the join's work and columns.
    fn joined(
        &self,
        plan: &Plan,
        ins: &[&Carried],
        own: &OnceLock<Option<f64>>,
        rows: f64,
    ) -> (PlanEstimate, Vec<ColCard>) {
        let (l, r) = (&ins[0].est, &ins[1].est);
        let rows = match self.ratio(plan, ins, own) {
            Some(s) => l.rows * r.rows * s,
            None => rows,
        };
        let cols = ins[0].cols.iter().chain(&ins[1].cols).cloned().collect();
        let cost = l.cost + r.cost + l.rows + r.rows + rows;
        (PlanEstimate { rows, cost }, cols)
    }

    /// Selectivity of a non-point (range) predicate over the candidate
    /// paths' value distributions. While a path's distinct-value sketch
    /// has not saturated it *is* the exact distinct-value set (its
    /// extremes are the true min/max), so the fraction of distinct values
    /// the formula accepts — weighted by each path's valued-node count,
    /// assuming uniform frequency per distinct value — is an end-biased
    /// estimate far tighter than a blanket constant. Once a sketch has
    /// saturated, the end-biased equi-width histogram built from its
    /// accepted sample takes over; only a path with neither (non-numeric
    /// saturated values) degrades the whole estimate to `RANGE_SEL` (1/3).
    fn range_selectivity(&self, paths: &[NodeId], formula: &Formula) -> f64 {
        let mut kept = 0.0;
        let mut total = 0.0;
        for &p in paths {
            let Some(frac) = value_accepted_fraction(self.summary, p, formula) else {
                return RANGE_SEL; // no sample, no histogram: unknown
            };
            let values = self.summary.value_count(p) as f64;
            total += values;
            kept += values * frac;
        }
        if total > 0.0 {
            (kept / total).clamp(0.0, 1.0)
        } else {
            RANGE_SEL
        }
    }

    /// Average inner rows per outer row for an unnest: looks for an outer
    /// column whose path is an ancestor of an inner column's path and uses
    /// the summary counts; falls back to [`DEFAULT_FAN`].
    fn unnest_fanout(&self, outer_cols: &[ColCard], col: usize, inner: &[ColCard]) -> f64 {
        let inner_paths: Vec<NodeId> = inner
            .iter()
            .flat_map(|c| c.paths().iter().copied())
            .collect();
        if inner_paths.is_empty() {
            return DEFAULT_FAN;
        }
        for (i, oc) in outer_cols.iter().enumerate() {
            if i == col {
                continue;
            }
            for &pa in oc.paths() {
                let reach: f64 = inner_paths
                    .iter()
                    .filter(|&&pb| self.summary.is_ancestor(pa, pb))
                    .map(|&pb| self.summary.count(pb) as f64)
                    .sum();
                let anchor = self.summary.count(pa) as f64;
                if reach > 0.0 && anchor > 0.0 {
                    return reach / anchor;
                }
            }
        }
        DEFAULT_FAN
    }
}

/// Fraction of path `p`'s distinct-value sample that `f` accepts, while
/// the sketch is exact (`None` once it has saturated). The single source
/// of the uniform-frequency range-selectivity assumption — the plan cost
/// model and the view layer's extent estimates both derive from it, so
/// benefit-per-byte ranking and operator costing can never disagree on a
/// predicate's selectivity.
pub fn sample_accepted_fraction(s: &Summary, p: NodeId, f: &Formula) -> Option<f64> {
    let sample = s.distinct_sample(p)?;
    let (mut n, mut acc) = (0usize, 0usize);
    for v in sample {
        n += 1;
        if f.accepts(v) {
            acc += 1;
        }
    }
    Some(if n == 0 { 0.0 } else { acc as f64 / n as f64 })
}

/// Fraction of path `p`'s value distribution that `f` accepts, from the
/// best statistic available: the exact distinct-value sample while the
/// sketch is unsaturated, the end-biased equi-width histogram after
/// saturation, `None` when neither exists (non-numeric saturated
/// values). The single entry point shared by the plan cost model and the
/// view layer's extent estimates, so operator costing and benefit-per-
/// byte ranking can never disagree on a predicate's selectivity.
pub fn value_accepted_fraction(s: &Summary, p: NodeId, f: &Formula) -> Option<f64> {
    if let Some(frac) = sample_accepted_fraction(s, p, f) {
        return Some(frac);
    }
    s.value_histogram(p)
        .and_then(|h| histogram_accepted_fraction(h, f))
}

/// Fraction of a saturated path's histogram mass that `f` accepts.
///
/// Integer mass is apportioned per bucket by fractional overlap with the
/// formula's intervals (the histogram is equi-width with end-biased
/// overflow buckets tracking the true observed min/max); string mass —
/// invisible to an integer histogram — contributes the blanket
/// `RANGE_SEL` (1/3). Returns `None` on an empty histogram.
pub fn histogram_accepted_fraction(h: &ValueHistogram, f: &Formula) -> Option<f64> {
    let total = h.total() as f64;
    if total <= 0.0 {
        return None;
    }
    if f.is_top() {
        return Some(1.0);
    }
    let mut accepted = 0.0;
    for iv in f.intervals() {
        if let Some((a, b)) = interval_int_range(iv) {
            accepted += h.mass_in(a, b);
        }
    }
    accepted += h.string_count() as f64 * RANGE_SEL;
    Some((accepted / total).clamp(0.0, 1.0))
}

/// The inclusive integer range a formula interval admits, or `None` when
/// it admits no integer. Uses the domain's total order (all integers sort
/// before all strings): a string lower bound excludes every integer, a
/// string upper bound admits them all.
fn interval_int_range(iv: &Interval) -> Option<(i64, i64)> {
    use smv_xml::Value;
    let lo = match &iv.lo {
        Bound::NegInf => i64::MIN,
        Bound::Incl(Value::Int(x)) => *x,
        Bound::Excl(Value::Int(x)) => x.checked_add(1)?,
        // ints sort before strings: v > "s" admits no integer
        Bound::Incl(Value::Str(_)) | Bound::Excl(Value::Str(_)) => return None,
        Bound::PosInf => return None,
    };
    let hi = match &iv.hi {
        Bound::PosInf => i64::MAX,
        Bound::Incl(Value::Int(x)) => *x,
        Bound::Excl(Value::Int(x)) => x.checked_sub(1)?,
        // every integer is below every string
        Bound::Incl(Value::Str(_)) | Bound::Excl(Value::Str(_)) => i64::MAX,
        Bound::NegInf => return None,
    };
    (lo <= hi).then_some((lo, hi))
}

/// Number of single-point intervals in a formula, or `None` when some
/// interval admits a range (point predicates get `points / distinct`
/// selectivity, ranges a fixed default).
fn point_count(f: &Formula) -> Option<usize> {
    if f.is_top() {
        return None;
    }
    let mut points = 0;
    for iv in f.intervals() {
        match (&iv.lo, &iv.hi) {
            (Bound::Incl(a), Bound::Incl(b)) if a == b => points += 1,
            _ => return None,
        }
    }
    Some(points)
}

/// A [`CardSource`] that knows nothing — every scan falls back to the
/// default extent size. Useful in tests and as a neutral baseline.
pub struct NoCards;

impl CardSource for NoCards {
    fn scan_card(&self, _view: &str) -> Option<ScanCard> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_xml::Document;
    use std::collections::HashMap;

    struct MapCards(HashMap<String, ScanCard>);

    impl CardSource for MapCards {
        fn scan_card(&self, view: &str) -> Option<ScanCard> {
            self.0.get(view).cloned()
        }
    }

    /// r(a(b b c(d)) a(b c)): counts r=1 a=2 b=3 c=2 d=1.
    fn summary() -> Summary {
        Summary::of(&Document::from_parens(
            r#"r(a(b="1" b="2" c(d)) a(b="1" c))"#,
        ))
    }

    fn cards(s: &Summary) -> MapCards {
        let a = s.node_by_path("/r/a").unwrap();
        let b = s.node_by_path("/r/a/b").unwrap();
        let mut m = HashMap::new();
        m.insert(
            "va".to_owned(),
            ScanCard {
                rows: 2.0,
                cols: vec![ColCard::Atom([a].into())],
            },
        );
        m.insert(
            "vb".to_owned(),
            ScanCard {
                rows: 3.0,
                cols: vec![ColCard::Atom([b].into()), ColCard::Atom([b].into())],
            },
        );
        MapCards(m)
    }

    #[test]
    fn scan_and_select_estimates() {
        let s = summary();
        let src = cards(&s);
        let model = CostModel::new(&s, &src);
        let scan = Plan::Scan { view: "vb".into() };
        assert_eq!(model.estimate(&scan).rows, 3.0);
        // equality on 2 distinct values over 3 valued nodes: 3 × (1/2)
        let sel = Plan::Select {
            input: Arc::new(scan),
            pred: Predicate::Value {
                col: 1,
                formula: Formula::eq(smv_xml::Value::int(1)),
            },
        };
        let e = model.estimate(&sel);
        assert!((e.rows - 1.5).abs() < 1e-9, "rows = {}", e.rows);
    }

    #[test]
    fn range_selectivity_uses_distinct_sketch() {
        let s = summary();
        let src = cards(&s);
        let model = CostModel::new(&s, &src);
        // b carries values {1, 2} over 3 valued nodes; v ≥ 2 keeps one of
        // the two distinct values → selectivity 1/2, not the blanket 1/3
        let sel = Plan::Select {
            input: Arc::new(Plan::Scan { view: "vb".into() }),
            pred: Predicate::Value {
                col: 1,
                formula: Formula::ge(smv_xml::Value::int(2)),
            },
        };
        let e = model.estimate(&sel);
        assert!((e.rows - 1.5).abs() < 1e-9, "rows = {}", e.rows);
        // a range outside the observed min/max keeps nothing
        let none = Plan::Select {
            input: Arc::new(Plan::Scan { view: "vb".into() }),
            pred: Predicate::Value {
                col: 1,
                formula: Formula::gt(smv_xml::Value::int(99)),
            },
        };
        assert_eq!(model.estimate(&none).rows, 0.0);
    }

    #[test]
    fn saturated_sketch_falls_back_to_the_histogram() {
        // 1500 uniform distinct values saturate the sketch; the histogram
        // keeps range selectivities near the truth instead of RANGE_SEL
        let body: Vec<String> = (0..1500).map(|i| format!(r#"b="{i}""#)).collect();
        let s = Summary::of(&Document::from_parens(&format!("r({})", body.join(" "))));
        let b = s.node_by_path("/r/b").unwrap();
        assert!(s.distinct_sample(b).is_none(), "sketch saturated");
        let mut m = HashMap::new();
        m.insert(
            "vb".to_owned(),
            ScanCard {
                rows: 1500.0,
                cols: vec![ColCard::Atom([b].into()), ColCard::Atom([b].into())],
            },
        );
        let src = MapCards(m);
        let model = CostModel::new(&s, &src);
        // v >= 1200 keeps the top 20% of the uniform range
        let sel = Plan::Select {
            input: Arc::new(Plan::Scan { view: "vb".into() }),
            pred: Predicate::Value {
                col: 1,
                formula: Formula::ge(smv_xml::Value::int(1200)),
            },
        };
        let e = model.estimate(&sel);
        assert!(
            (e.rows - 300.0).abs() < 60.0,
            "histogram estimate near truth (300): {}",
            e.rows
        );
        // direct helper agreement
        let frac = value_accepted_fraction(&s, b, &Formula::ge(smv_xml::Value::int(1200))).unwrap();
        assert!((frac - 0.2).abs() < 0.04, "accepted fraction {frac}");
    }

    #[test]
    fn feedback_overrides_static_selection_and_join_estimates() {
        use crate::feedback::{ExecProfile, FeedbackStore};
        let s = summary();
        let src = cards(&s);
        let formula = Formula::ge(smv_xml::Value::int(2));
        let sel = Plan::Select {
            input: Arc::new(Plan::Scan { view: "vb".into() }),
            pred: Predicate::Value { col: 1, formula },
        };
        let join = Plan::StructJoin {
            left: Arc::new(Plan::Scan { view: "va".into() }),
            right: Arc::new(sel.clone()),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Parent,
        };
        // pretend execution observed: 3 scanned, 1 kept, join emitted 1
        let mut prof = ExecProfile::default();
        prof.record(&[0], 2); // scan va
        prof.record(&[1, 0], 3); // scan vb
        prof.record(&[1], 1); // select
        prof.record(&[], 1); // join
        let mut store = FeedbackStore::new();
        store.ingest(&join, &prof);
        let model = CostModel::new(&s, &src).with_feedback(&store);
        let e_sel = model.estimate(&sel);
        assert!((e_sel.rows - 1.0).abs() < 1e-9, "memoized 1/3 pass-rate");
        let e_join = model.estimate(&join);
        assert!(
            (e_join.rows - 1.0).abs() < 1e-9,
            "memoized join selectivity: rows = {}",
            e_join.rows
        );
        // without feedback the static estimates differ
        let static_model = CostModel::new(&s, &src);
        assert!((static_model.estimate(&sel).rows - 1.0).abs() > 1e-9);
        // a measured scan replaces the extent size, even of a view the
        // source does not know; an unmeasured one keeps the default
        let zz = Plan::Scan { view: "zz".into() };
        let mut scanned = ExecProfile::default();
        scanned.record(&[], 42);
        store.ingest(&zz, &scanned);
        let model = CostModel::new(&s, &NoCards).with_feedback(&store);
        assert_eq!(model.estimate(&zz).rows, 42.0);
        let unknown = Plan::Scan {
            view: "unknown".into(),
        };
        assert_eq!(model.estimate(&unknown).rows, DEFAULT_ROWS);
    }

    /// A join priced over kept estimates whose measured rows have been
    /// read makes one store lookup, its own, and reads its inputs' rows
    /// from them; an unmeasured join's one lookup misses. Both equal a
    /// fresh estimate, bit for bit.
    #[test]
    fn a_join_reads_its_inputs_kept_rows() {
        use crate::feedback::{ExecProfile, FeedbackStore};
        let s = summary();
        let src = cards(&s);
        let va = Plan::Scan { view: "va".into() };
        let sel = Plan::Select {
            input: Arc::new(Plan::Scan { view: "vb".into() }),
            pred: Predicate::Value {
                col: 1,
                formula: Formula::ge(smv_xml::Value::int(2)),
            },
        };
        let join = |rel| Plan::StructJoin {
            left: Arc::new(va.clone()),
            right: Arc::new(sel.clone()),
            lcol: 0,
            rcol: 0,
            rel,
        };
        // the parent join, both its inputs and the select's scan measured
        let mut prof = ExecProfile::default();
        prof.record(&[0], 2);
        prof.record(&[1, 0], 3);
        prof.record(&[1], 1);
        prof.record(&[], 1);
        let mut store = FeedbackStore::new();
        store.ingest(&join(StructRel::Parent), &prof);
        let model = CostModel::new(&s, &src).with_feedback(&store);
        let lookups = || {
            let st = store.stats();
            st.hits + st.misses
        };
        let (l, r) = (model.carried(&va, None), model.carried(&sel, None));
        for (rel, hits) in [(StructRel::Parent, 1), (StructRel::Ancestor, 0)] {
            let plan = join(rel);
            let (before, hits_before) = (lookups(), store.stats().hits);
            let got = model.carry(&plan, &[&l, &r]).est;
            assert_eq!(lookups() - before, 1, "{rel:?}: one lookup, the join's");
            assert_eq!(store.stats().hits - hits_before, hits, "{rel:?}");
            let want = model.estimate(&plan);
            assert_eq!(
                (got.rows.to_bits(), got.cost.to_bits()),
                (want.rows.to_bits(), want.cost.to_bits()),
                "{rel:?}: {got:?} vs {want:?}"
            );
        }
        // the measured join took its observed selectivity: 1 of 2 × 1
        assert_eq!(model.estimate(&join(StructRel::Parent)).rows, 1.0);
    }

    #[test]
    fn structural_join_uses_containment_counts() {
        let s = summary();
        let src = cards(&s);
        let model = CostModel::new(&s, &src);
        let join = Plan::StructJoin {
            left: Arc::new(Plan::Scan { view: "va".into() }),
            right: Arc::new(Plan::Scan { view: "vb".into() }),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Parent,
        };
        // every b has exactly one a parent: 3 pairs, full extents present
        let e = model.estimate(&join);
        assert!((e.rows - 3.0).abs() < 1e-9, "rows = {}", e.rows);
        assert!(e.cost > 5.0, "join pays its inputs: {}", e.cost);
    }

    #[test]
    fn unknown_views_fall_back_to_defaults() {
        let s = summary();
        let model = CostModel::new(&s, &NoCards);
        let e = model.estimate(&Plan::Scan { view: "zz".into() });
        assert_eq!(e.rows, DEFAULT_ROWS);
    }

    #[test]
    fn cheaper_scan_beats_filtered_wide_scan() {
        // the ranking decision the cost-ranking cases rely on: a narrow extent scan
        // costs less than a wide scan plus label selection
        let s = summary();
        let b = s.node_by_path("/r/a/b").unwrap();
        let c = s.node_by_path("/r/a/c").unwrap();
        let d = s.node_by_path("/r/a/c/d").unwrap();
        let mut m = HashMap::new();
        m.insert(
            "narrow".to_owned(),
            ScanCard {
                rows: 3.0,
                cols: vec![ColCard::Atom([b].into())],
            },
        );
        m.insert(
            "wide".to_owned(),
            ScanCard {
                rows: 6.0,
                cols: vec![ColCard::Atom([b, c, d].into())],
            },
        );
        let src = MapCards(m);
        let model = CostModel::new(&s, &src);
        let narrow = model.estimate(&Plan::Scan {
            view: "narrow".into(),
        });
        let wide = model.estimate(&Plan::Select {
            input: Arc::new(Plan::Scan {
                view: "wide".into(),
            }),
            pred: Predicate::LabelEq {
                col: 0,
                label: smv_xml::Label::intern("b"),
            },
        });
        assert!(wide.cost > narrow.cost);
        // and the label selection narrows the estimate toward b's count
        assert!((wide.rows - 3.0).abs() < 1e-9, "rows = {}", wide.rows);
    }
}
