//! # smv-algebra — logical plans and execution
//!
//! The algebraic layer the rewriting algorithm targets (paper §3.2): plans
//! over materialized views built from scans, `σ`, `π`, ID-equality joins,
//! structural joins (`⋈_≺`, `⋈_≺≺` — the stack-tree algorithm of \[1\]),
//! unions, nest/unnest, content navigation and `nav_fID` parent-ID
//! derivation (§4.6), plus the nested-relation values views materialize.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cost;
pub mod exec;
pub mod explain;
pub mod feedback;
pub mod plan;
pub mod relation;
pub mod struct_join;

pub use cost::{
    histogram_accepted_fraction, sample_accepted_fraction, value_accepted_fraction, CardSource,
    ColCard, CostModel, NoCards, PlanEstimate, ScanCard,
};
pub use exec::{
    execute_profiled_with, execute_with, ExecError, ExecOpts, MapProvider, ViewProvider,
};
pub use explain::{explain, explain_analyze, Explain, ExplainNode};
pub use feedback::{plan_fingerprint, ExecProfile, FeedbackStats, FeedbackStore, OpPath};
pub use plan::{NavStep, Plan, Predicate};
pub use relation::{AttrKind, Cell, ColKind, Column, NestedRelation, Row, Schema};
pub use smv_xml::par::WorkerPool;
pub use struct_join::{
    doc_sorted_indices, nested_loop_join, stack_tree_join, stack_tree_join_presorted, StructRel,
};
