//! `EXPLAIN` / `EXPLAIN ANALYZE`: the plan renderer that puts the cost
//! model's estimated rows next to a profiled run's actual rows and wall
//! time, operator by operator.
//!
//! [`explain`] prices a [`Plan`] bottom-up, each operator once over its
//! inputs' kept estimates ([`CostModel::carry`]), and shows every
//! subtree's: exactly what [`CostModel::estimate`] says about it as a
//! standalone plan. [`explain_analyze`] additionally joins each
//! operator — by its positional [`OpPath`] — with the row counters and
//! inclusive wall times of an [`ExecProfile`], and computes the
//! per-operator *q-error* (`max(est/actual, actual/est)`, both sides
//! clamped to ≥ 1 row) so feedback-loop misestimates are visible at a
//! glance.
//!
//! ```
//! use smv_algebra::{
//!     execute_profiled_with, explain_analyze, AttrKind, Cell, CostModel, ExecOpts,
//!     MapProvider, NestedRelation, NoCards, Plan, Row, Schema,
//! };
//! use smv_summary::Summary;
//! use smv_xml::{Document, StructId};
//!
//! let doc = Document::from_parens(r#"a(b="1")"#);
//! let summary = Summary::of(&doc);
//! let mut views = MapProvider::default();
//! views.insert(
//!     "v",
//!     NestedRelation::new(
//!         Schema::atoms(&[("b.ID", AttrKind::Id)]),
//!         vec![Row::new(vec![Cell::Id(StructId::Seq(7))])],
//!     ),
//! );
//! let plan = Plan::Scan { view: "v".into() };
//! let (_, profile) = execute_profiled_with(&plan, &views, &ExecOpts::default()).unwrap();
//! let cost = CostModel::new(&summary, &NoCards);
//! let ex = explain_analyze(&plan, &cost, &profile);
//! assert_eq!(ex.root.actual_rows, Some(1));
//! assert!(ex.to_string().contains("Scan(v)"));
//! ```

use crate::cost::{Carried, CostModel};
use crate::feedback::{path_key, ExecProfile, OpPath};
use crate::plan::Plan;

/// One operator of an explained plan: estimates always, actuals when the
/// explain was built from a profiled run.
#[derive(Debug, Clone)]
pub struct ExplainNode {
    /// The operator's rendered head ([`Plan::op_label`]).
    pub op: String,
    /// Positional path of the operator (`""` = the root).
    pub path: OpPath,
    /// The cost model's estimated output rows for this subtree.
    pub est_rows: f64,
    /// The cost model's estimated cumulative cost for this subtree.
    pub est_cost: f64,
    /// Actual output rows from the profiled run (`EXPLAIN ANALYZE` only).
    pub actual_rows: Option<u64>,
    /// Inclusive wall time of the operator and its inputs, nanoseconds.
    pub time_ns: Option<u64>,
    /// The operator's inputs, in child-index order.
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    /// The factor by which the estimate missed:
    /// `max(est/actual, actual/est)` with both sides clamped to ≥ 1 row
    /// (so an exact hit — and a "predicted none, got none" — is 1.0).
    /// `None` until actuals exist.
    pub fn q_error(&self) -> Option<f64> {
        self.actual_rows.map(|a| q_error(self.est_rows, a))
    }

    /// This node followed by its subtree, depth-first.
    pub fn walk(&self) -> Vec<&ExplainNode> {
        let mut out = vec![self];
        for c in &self.children {
            out.extend(c.walk());
        }
        out
    }

    fn fmt_indent(&self, f: &mut std::fmt::Formatter<'_>, indent: usize) -> std::fmt::Result {
        write!(
            f,
            "{}{}  (est {:.1} rows",
            "  ".repeat(indent),
            self.op,
            self.est_rows
        )?;
        if let Some(a) = self.actual_rows {
            write!(f, ", actual {a}, q-err {:.2}", q_error(self.est_rows, a))?;
        }
        if let Some(ns) = self.time_ns {
            write!(f, ", {}", fmt_duration(ns))?;
        }
        writeln!(f, ")")?;
        for c in &self.children {
            c.fmt_indent(f, indent + 1)?;
        }
        Ok(())
    }
}

/// A rendered plan with per-operator estimates (and, for
/// `EXPLAIN ANALYZE`, actuals). `Display` prints the indented tree.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The plan root.
    pub root: ExplainNode,
    /// True when built from a profiled run ([`explain_analyze`]).
    pub analyzed: bool,
}

impl Explain {
    /// Every operator, depth-first from the root.
    pub fn operators(&self) -> Vec<&ExplainNode> {
        self.root.walk()
    }

    /// The worst per-operator q-error of the plan, if analyzed.
    pub fn max_q_error(&self) -> Option<f64> {
        self.operators()
            .iter()
            .filter_map(|n| n.q_error())
            .fold(None, |m, q| Some(m.map_or(q, |m: f64| m.max(q))))
    }
}

impl std::fmt::Display for Explain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.root.fmt_indent(f, 0)
    }
}

/// `max(est/actual, actual/est)`, both sides clamped to ≥ 1 row.
pub fn q_error(est_rows: f64, actual_rows: u64) -> f64 {
    let e = est_rows.max(1.0);
    let a = (actual_rows as f64).max(1.0);
    (e / a).max(a / e)
}

/// Renders nanoseconds at a human scale (`873ns`, `12.4µs`, `3.21ms`, …).
pub fn fmt_duration(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

/// `plan`'s node, its inputs' built first, and its kept estimate, priced
/// over theirs: each operator once.
fn build(
    plan: &Plan,
    cost: &CostModel<'_>,
    profile: Option<&ExecProfile>,
    path: &mut Vec<u32>,
) -> (ExplainNode, Carried) {
    let key = path_key(path);
    let (children, inputs): (Vec<ExplainNode>, Vec<Carried>) = plan
        .children()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            path.push(i as u32);
            let built = build(c, cost, profile, path);
            path.pop();
            built
        })
        .unzip();
    let carried = cost.carry(plan, &inputs.iter().collect::<Vec<_>>());
    let node = ExplainNode {
        op: plan.op_label(),
        est_rows: carried.est.rows,
        est_cost: carried.est.cost,
        actual_rows: profile.and_then(|p| p.rows_at(&key)),
        time_ns: profile.and_then(|p| p.time_ns_at(&key)),
        path: key,
        children,
    };
    (node, carried)
}

/// `EXPLAIN`: the plan with the cost model's estimated rows and cost per
/// operator. Deterministic for a fixed plan, summary and card source.
pub fn explain(plan: &Plan, cost: &CostModel<'_>) -> Explain {
    Explain {
        root: build(plan, cost, None, &mut Vec::new()).0,
        analyzed: false,
    }
}

/// `EXPLAIN ANALYZE`: [`explain`] joined with a profiled run of the same
/// plan — actual rows and inclusive wall time per operator, by
/// positional path. The profile must come from executing
/// exactly `plan` (as [`crate::exec::execute_profiled_with`] produces).
pub fn explain_analyze(plan: &Plan, cost: &CostModel<'_>, profile: &ExecProfile) -> Explain {
    Explain {
        root: build(plan, cost, Some(profile), &mut Vec::new()).0,
        analyzed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::NoCards;
    use crate::exec::{execute_profiled_with, ExecOpts, MapProvider};
    use crate::plan::Predicate;
    use crate::relation::{AttrKind, Cell, NestedRelation, Row, Schema};
    use smv_summary::Summary;
    use smv_xml::{Document, StructId};
    use std::sync::Arc;

    fn fixture() -> (MapProvider, Summary) {
        let doc = Document::from_parens(r#"a(b="1" b="2" b="3")"#);
        let summary = Summary::of(&doc);
        let mut views = MapProvider::default();
        views.insert(
            "v",
            NestedRelation::new(
                Schema::atoms(&[("b.ID", AttrKind::Id), ("b.V", AttrKind::Value)]),
                (0..3)
                    .map(|i| Row::new(vec![Cell::Id(StructId::Seq(i)), Cell::Null]))
                    .collect(),
            ),
        );
        (views, summary)
    }

    fn plan() -> Plan {
        Plan::Select {
            input: Arc::new(Plan::Scan { view: "v".into() }),
            pred: Predicate::NotNull { col: 0 },
        }
    }

    #[test]
    fn explain_has_estimates_and_no_actuals() {
        let (_, summary) = fixture();
        let cost = CostModel::new(&summary, &NoCards);
        let ex = explain(&plan(), &cost);
        assert!(!ex.analyzed);
        assert_eq!(ex.operators().len(), 2);
        for n in ex.operators() {
            assert!(n.est_rows >= 0.0);
            assert_eq!(n.actual_rows, None);
            assert_eq!(n.q_error(), None);
        }
        assert_eq!(ex.root.path, "");
        assert_eq!(ex.root.children[0].path, "0");
        let txt = ex.to_string();
        assert!(txt.contains("Select"), "{txt}");
        assert!(txt.contains("  Scan(v)  (est"), "{txt}");
        assert!(!txt.contains("actual"), "{txt}");
    }

    #[test]
    fn explain_analyze_joins_profile_by_path() {
        let (views, summary) = fixture();
        let cost = CostModel::new(&summary, &NoCards);
        let (out, prof) = execute_profiled_with(&plan(), &views, &ExecOpts::default()).unwrap();
        let ex = explain_analyze(&plan(), &cost, &prof);
        assert!(ex.analyzed);
        assert_eq!(ex.root.actual_rows, Some(out.len() as u64));
        for n in ex.operators() {
            assert_eq!(n.actual_rows, prof.rows_at(&n.path), "at `{}`", n.path);
            assert!(n.time_ns.is_some(), "time at `{}`", n.path);
            assert!(n.q_error().is_some());
        }
        assert!(ex.max_q_error().unwrap() >= 1.0);
        let txt = ex.to_string();
        assert!(txt.contains("actual 3"), "{txt}");
        assert!(txt.contains("q-err"), "{txt}");
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(q_error(10.0, 10), 1.0);
        assert_eq!(q_error(0.0, 0), 1.0, "none predicted, none seen");
        assert_eq!(q_error(20.0, 10), 2.0);
        assert_eq!(q_error(5.0, 10), 2.0);
    }

    #[test]
    fn durations_render_at_human_scale() {
        assert_eq!(fmt_duration(873), "873ns");
        assert_eq!(fmt_duration(12_400), "12.4µs");
        assert_eq!(fmt_duration(3_210_000), "3.21ms");
        assert_eq!(fmt_duration(2_500_000_000), "2.50s");
    }
}
