//! Logical algebraic plans (paper §3.2, §4.6).
//!
//! Rewritings are *plans* built from view scans with `⋈_=` (ID equality),
//! `⋈_≺` / `⋈_≺≺` (structural joins), `σ`, `π`, `∪`, plus the adaptation
//! operators of §4.6: nest (group-by) / unnest, navigation inside stored
//! `C` attributes (XPath over content), and `nav_fID` — deriving an
//! ancestor's ID from a stored descendant ID when the ID scheme allows it
//! (ORDPATH / Dewey).

use crate::relation::AttrKind;
use crate::struct_join::StructRel;
use smv_pattern::{Axis, Formula};
use smv_xml::{Label, Symbol};
use std::sync::Arc;

/// A navigation step inside a stored content column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NavStep {
    /// Child or descendant.
    pub axis: Axis,
    /// Required label (`None` = any).
    pub label: Option<Label>,
}

/// Row predicates for `σ`.
#[derive(Clone, Debug)]
pub enum Predicate {
    /// The value in an atom column satisfies a formula (nulls fail).
    Value {
        /// Column index.
        col: usize,
        /// The predicate formula.
        formula: Formula,
    },
    /// The label in a label column equals `label`.
    LabelEq {
        /// Column index.
        col: usize,
        /// Required label.
        label: Label,
    },
    /// The column is not `⊥`.
    NotNull {
        /// Column index.
        col: usize,
    },
}

/// A logical plan over materialized views.
#[derive(Clone, Debug)]
pub enum Plan {
    /// Scan a named view's extent.
    Scan {
        /// View name in the catalog.
        view: String,
    },
    /// `σ` — filter rows.
    Select {
        /// Input plan.
        input: Arc<Plan>,
        /// Predicate.
        pred: Predicate,
    },
    /// `π` — keep the given columns, in the given order.
    Project {
        /// Input plan.
        input: Arc<Plan>,
        /// Column indices to keep.
        cols: Vec<usize>,
    },
    /// `⋈_=` — equality join on ID columns.
    IdJoin {
        /// Left input.
        left: Arc<Plan>,
        /// Right input.
        right: Arc<Plan>,
        /// Left join column.
        lcol: usize,
        /// Right join column.
        rcol: usize,
    },
    /// `⋈_≺` / `⋈_≺≺` — structural join on ID columns.
    StructJoin {
        /// Left (ancestor side) input.
        left: Arc<Plan>,
        /// Right (descendant side) input.
        right: Arc<Plan>,
        /// Left join column.
        lcol: usize,
        /// Right join column.
        rcol: usize,
        /// Parent or ancestor.
        rel: StructRel,
    },
    /// `∪` — union of same-schema inputs (set semantics).
    Union {
        /// The branches.
        inputs: Vec<Plan>,
    },
    /// Group-by: group on `key_cols`, nest the `nested_cols` into a
    /// table-valued column named `name` (§4.6 nesting adaptation).
    Nest {
        /// Input plan.
        input: Arc<Plan>,
        /// Grouping key columns.
        key_cols: Vec<usize>,
        /// Columns gathered into the nested table.
        nested_cols: Vec<usize>,
        /// Interned name of the new nested column.
        name: Symbol,
    },
    /// Flatten a table-valued column; `outer` keeps rows whose table is
    /// empty (yielding nulls).
    Unnest {
        /// Input plan.
        input: Arc<Plan>,
        /// The table-valued column.
        col: usize,
        /// Keep empty groups as null rows.
        outer: bool,
    },
    /// Navigate inside a stored `C` column, producing new attribute
    /// columns for the nodes reached (§4.6 C-unfolding support).
    NavigateContent {
        /// Input plan.
        input: Arc<Plan>,
        /// The content column.
        content_col: usize,
        /// Column holding the ID of the content root, if available —
        /// enables reconstructing structural IDs for inner nodes.
        base_id_col: Option<usize>,
        /// Navigation steps from the content root.
        steps: Vec<NavStep>,
        /// Attributes to emit for each reached node.
        attrs: Vec<AttrKind>,
        /// If true, rows with no reached node survive with nulls.
        optional: bool,
        /// Interned prefix for the new columns' names.
        name: Symbol,
    },
    /// `nav_fID` — derive the ID of the `levels`-up ancestor from a stored
    /// structural ID (§4.6 virtual IDs).
    DeriveParentId {
        /// Input plan.
        input: Arc<Plan>,
        /// Source ID column.
        col: usize,
        /// How many parent steps to take.
        levels: usize,
        /// Interned name of the new column.
        name: Symbol,
    },
    /// Explicit duplicate elimination.
    DupElim {
        /// Input plan.
        input: Arc<Plan>,
    },
}

impl Plan {
    /// Number of `Scan` leaves — the plan "size" of Proposition 3.6.
    pub fn scan_count(&self) -> usize {
        match self {
            Plan::Scan { .. } => 1,
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Nest { input, .. }
            | Plan::Unnest { input, .. }
            | Plan::NavigateContent { input, .. }
            | Plan::DeriveParentId { input, .. }
            | Plan::DupElim { input } => input.scan_count(),
            Plan::IdJoin { left, right, .. } | Plan::StructJoin { left, right, .. } => {
                left.scan_count() + right.scan_count()
            }
            Plan::Union { inputs } => inputs.iter().map(Plan::scan_count).sum(),
        }
    }

    /// The distinct view names scanned.
    pub fn views_used(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn rec(p: &Plan, out: &mut Vec<String>) {
            match p {
                Plan::Scan { view } => {
                    if !out.contains(view) {
                        out.push(view.clone());
                    }
                }
                Plan::Select { input, .. }
                | Plan::Project { input, .. }
                | Plan::Nest { input, .. }
                | Plan::Unnest { input, .. }
                | Plan::NavigateContent { input, .. }
                | Plan::DeriveParentId { input, .. }
                | Plan::DupElim { input } => rec(input, out),
                Plan::IdJoin { left, right, .. } | Plan::StructJoin { left, right, .. } => {
                    rec(left, out);
                    rec(right, out);
                }
                Plan::Union { inputs } => inputs.iter().for_each(|i| rec(i, out)),
            }
        }
        rec(self, &mut out);
        out
    }

    /// The operator's direct inputs, in child-index order — the same
    /// numbering [`crate::feedback::OpPath`] uses: unary inputs are child
    /// `0`, joins are left `0` / right `1`, union branches in order.
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Scan { .. } => Vec::new(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Nest { input, .. }
            | Plan::Unnest { input, .. }
            | Plan::NavigateContent { input, .. }
            | Plan::DeriveParentId { input, .. }
            | Plan::DupElim { input } => vec![input],
            Plan::IdJoin { left, right, .. } | Plan::StructJoin { left, right, .. } => {
                vec![left, right]
            }
            Plan::Union { inputs } => inputs.iter().collect(),
        }
    }

    /// The operator's rendered head, without inputs — one line of the
    /// indented [`std::fmt::Display`] tree, e.g. `Scan(v_item)` or
    /// `StructJoin[#0 ≺≺ #0]`. Shared by the plan printer, `EXPLAIN`,
    /// and located execution errors.
    pub fn op_label(&self) -> String {
        match self {
            Plan::Scan { view } => format!("Scan({view})"),
            Plan::Select { pred, .. } => {
                let p = match pred {
                    Predicate::Value { col, formula } => format!("#{col} sat {formula}"),
                    Predicate::LabelEq { col, label } => format!("#{col} = <{label}>"),
                    Predicate::NotNull { col } => format!("#{col} not null"),
                };
                format!("Select[{p}]")
            }
            Plan::Project { cols, .. } => format!("Project{cols:?}"),
            Plan::IdJoin { lcol, rcol, .. } => format!("IdJoin[#{lcol} = #{rcol}]"),
            Plan::StructJoin {
                lcol, rcol, rel, ..
            } => {
                let sym = match rel {
                    StructRel::Parent => "≺",
                    StructRel::Ancestor => "≺≺",
                };
                format!("StructJoin[#{lcol} {sym} #{rcol}]")
            }
            Plan::Union { .. } => "Union".to_string(),
            Plan::Nest {
                key_cols,
                nested_cols,
                name,
                ..
            } => format!("Nest[key={key_cols:?} nest={nested_cols:?} as {name}]"),
            Plan::Unnest { col, outer, .. } => {
                format!("Unnest[#{col}{}]", if *outer { " outer" } else { "" })
            }
            Plan::NavigateContent {
                content_col,
                steps,
                attrs,
                optional,
                name,
                ..
            } => {
                let path: String = steps
                    .iter()
                    .map(|s| {
                        format!(
                            "{}{}",
                            if s.axis == Axis::Child { "/" } else { "//" },
                            s.label.map(|l| l.as_str()).unwrap_or("*")
                        )
                    })
                    .collect();
                format!(
                    "NavigateC[#{content_col}{path} → {name}.{attrs:?}{}]",
                    if *optional { " optional" } else { "" }
                )
            }
            Plan::DeriveParentId {
                col, levels, name, ..
            } => format!("navfID[#{col} ↑{levels} as {name}]"),
            Plan::DupElim { .. } => "DupElim".to_string(),
        }
    }

    fn fmt_indent(&self, f: &mut std::fmt::Formatter<'_>, indent: usize) -> std::fmt::Result {
        writeln!(f, "{}{}", "  ".repeat(indent), self.op_label())?;
        for c in self.children() {
            c.fmt_indent(f, indent + 1)?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_indent(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Plan {
        Plan::IdJoin {
            left: Arc::new(Plan::Scan { view: "V1".into() }),
            right: Arc::new(Plan::Select {
                input: Arc::new(Plan::Scan { view: "V2".into() }),
                pred: Predicate::NotNull { col: 0 },
            }),
            lcol: 0,
            rcol: 0,
        }
    }

    #[test]
    fn scan_count_and_views() {
        let p = sample();
        assert_eq!(p.scan_count(), 2);
        assert_eq!(p.views_used(), vec!["V1".to_string(), "V2".to_string()]);
        let u = Plan::Union {
            inputs: vec![sample(), Plan::Scan { view: "V1".into() }],
        };
        assert_eq!(u.scan_count(), 3);
        assert_eq!(u.views_used().len(), 2, "views deduplicated");
    }

    #[test]
    fn display_is_indented() {
        let txt = sample().to_string();
        assert!(txt.contains("IdJoin"));
        assert!(txt.contains("  Scan(V1)"));
        assert!(txt.contains("    Scan(V2)"));
    }
}
