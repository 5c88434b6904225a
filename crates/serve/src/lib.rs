//! # smv-serve — the multi-client query service
//!
//! The paper's premise is that materialization pays when structural work
//! recurs. The rewriter and the executor exploit recurrence *within* one
//! query; this crate exploits recurrence *across* a workload: a
//! long-running [`QueryService`] holds [`smv_views::EpochCatalog`]
//! snapshots, serves concurrent clients, each request on the thread that
//! asks it, and caches in one table, under one lock —
//!
//! 1. a **pattern cache** keyed by the query text and shared across
//!    spellings via [`smv_pattern::canonical_form`] (parse once),
//! 2. a **plan cache** keyed by canonical-form fingerprint ×
//!    [`smv_summary::Summary::geometry_token`] × epoch (rank once per
//!    epoch), and
//! 3. a **result cache** for hot queries, bounded in bytes
//!    ([`RESULT_CACHE_BYTES`]) and invalidated by maintenance deltas:
//!    each entry is reverse-indexed by the views it read, an
//!    [`smv_views::EpochCatalog::apply`] kills exactly the touched
//!    entries, and untouched entries survive epoch bumps.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cache;
pub mod service;

pub use cache::{text_fingerprint, CachedPattern};
pub use service::{
    QueryResponse, QueryService, ServeError, ServiceConfig, ServiceStats, RESULT_CACHE_BYTES,
};
