//! # smv-views — materialized view definitions, storage and evaluation
//!
//! A view is an extended tree pattern plus an ID scheme (paper §1: "XML
//! Access Modules" \[3\]). Materializing a view over a document produces the
//! nested table of Figures 1(c), 11 and 12: one column per (return node,
//! stored attribute), table-valued columns for nested edges, `⊥` for
//! optional subtrees that did not bind.
//!
//! The [`epoch`] module holds the one in-memory catalog: an
//! [`EpochCatalog`] registers views over a live document, maintains their
//! extents under document update batches and publishes immutable
//! [`CatalogEpoch`] snapshots, the `ViewProvider` plans execute against.

#![deny(clippy::print_stdout, clippy::print_stderr)]
pub mod cards;
pub mod catalog;
pub mod epoch;
pub mod materialize;

pub use cards::{col_cards, estimate_extent_bytes, estimate_extent_rows, CatalogCards, DefCards};
pub use catalog::{View, ViewStore};
pub use epoch::{
    refresh_class, CatalogEpoch, EpochCatalog, EpochReader, MaintenanceReport, RefreshClass,
    RefreshPolicy,
};
pub use materialize::{materialize, materialize_with, schema_of, CANDIDATE_PROBES};
