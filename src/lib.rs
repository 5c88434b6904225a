//! # smv — Structured Materialized Views for XML Queries
//!
//! A Rust implementation of the system described in *"Structured
//! Materialized Views for XML Queries"* (Manolescu, Benzaken, Arion,
//! Papakonstantinou; INRIA research report inria-00001233, 2006 — the
//! ULoad prototype line of work): **containment and rewriting of extended
//! tree-pattern queries using materialized tree-pattern views, under the
//! constraints of a structural summary (strong Dataguide)**.
//!
//! ## Quick start
//!
//! ```
//! use smv::prelude::*;
//!
//! // a document and its strong Dataguide
//! let doc = Document::from_parens(r#"site(item(name="pen") item(name="ink"))"#);
//! let summary = Summary::of(&doc);
//!
//! // a materialized view and a query, both extended tree patterns
//! let view = View::new("v", parse_pattern("site(//*{id,l,v})").unwrap(), IdScheme::OrdPath);
//! let query = parse_pattern("site(//name{id,v})").unwrap();
//!
//! // rewrite the query over the view under the summary's constraints …
//! let result = rewrite(&query, &[view.clone()], &summary, &RewriteOpts::default());
//! assert!(!result.rewritings.is_empty());
//!
//! // … and execute the plan against the materialized extent
//! let mut catalog = EpochCatalog::new(doc, IdScheme::OrdPath);
//! catalog.add_view(view, RefreshPolicy::Eager);
//! let snap = catalog.snapshot();
//! let out = execute_with(&result.rewritings[0].plan, &*snap, &ExecOpts::default()).unwrap();
//! assert_eq!(out.len(), 2);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`xml`] | tree model, parser/serializer, ORDPATH & Dewey IDs |
//! | [`summary`] | strong Dataguides + integrity constraints (§2.3, §4.1) |
//! | [`pattern`] | extended tree patterns, embeddings, canonical models |
//! | [`algebra`] | logical plans, structural joins, nested relations |
//! | [`views`] | view definitions, materialization, catalog |
//! | [`store`] | on-disk columnar segments, buffer pool, epoch manifests |
//! | [`core`] | containment (§3-§4) and rewriting (Algorithm 1) |
//! | [`advisor`] | workload-driven view selection (greedy benefit/byte) |
//! | [`xquery`] | FLWR-subset parser + pattern translation (§1) |
//! | [`serve`] | the query service: layered caches, the feedback loop |
//! | [`datagen`] | XMark/DBLP/… generators and §5 workloads |
//! | [`obs`] | zero-dependency tracing spans + metrics registry |

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub use smv_advisor as advisor;
pub use smv_algebra as algebra;
pub use smv_core as core;
pub use smv_datagen as datagen;
pub use smv_obs as obs;
pub use smv_pattern as pattern;
pub use smv_serve as serve;
pub use smv_store as store;
pub use smv_summary as summary;
pub use smv_views as views;
pub use smv_xml as xml;
pub use smv_xquery as xquery;

/// The commonly used surface of the library, re-exported flat.
pub mod prelude {
    pub use smv_advisor::{
        advise, advise_exhaustive, mine_candidates, Advice, AdvisorOpts, Workload,
    };
    pub use smv_algebra::{
        execute_profiled_with, execute_with, explain, explain_analyze, CostModel, ExecOpts,
        ExecProfile, Explain, ExplainNode, FeedbackStats, FeedbackStore, NestedRelation, Plan,
        PlanEstimate, StructRel, WorkerPool,
    };
    pub use smv_core::{
        best_rewriting_cost, contained, contained_in_union, equivalent, is_satisfiable, rewrite,
        ContainOpts, Decision, RewriteOpts, Rewriter,
    };
    pub use smv_datagen::{
        pr7_document, pr7_views, xmark, xmark_query_patterns, Pr7Stream, XmarkConfig,
    };
    pub use smv_obs::{MetricsRegistry, ScopedEnable, SpanRecord};
    pub use smv_pattern::{
        canonical_form, canonical_model, evaluate, parse_pattern, CanonOpts, Formula, Pattern,
    };
    pub use smv_serve::{QueryResponse, QueryService, ServeError, ServiceConfig, ServiceStats};
    pub use smv_store::{DiskCatalog, DiskStore, DiskVfs, ProviderMatrix, SimVfs, StoreOptions};
    pub use smv_summary::{Summary, SummaryStats};
    pub use smv_views::{
        materialize, materialize_with, refresh_class, CatalogCards, CatalogEpoch, DefCards,
        EpochCatalog, EpochReader, MaintenanceReport, RefreshClass, RefreshPolicy, View, ViewStore,
    };
    pub use smv_xml::{
        parse_document, serialize_document, Document, IdScheme, Label, LiveDoc, LiveError,
        UpdateBatch, Value,
    };
    pub use smv_xquery::{parse_xquery, translate};
}

/// The README's quick-start blocks, compiled and run as doctests so they
/// cannot drift from the API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
