//! # smv-serve — the multi-client query service
//!
//! The paper's premise is that materialization pays when structural work
//! recurs; PR 2–8 exploited recurrence *within* one query. This crate
//! exploits recurrence *across* a workload: a long-running
//! [`QueryService`] holds [`smv_views::EpochCatalog`] snapshots, serves
//! concurrent clients on one explicitly sized
//! [`smv_xml::par::WorkerPool`], and caches in one table, under one lock —
//!
//! 1. a **pattern cache** keyed by the query text and shared across
//!    spellings via [`smv_pattern::canonical_form`] (parse once),
//! 2. a **plan cache** keyed by canonical-form fingerprint ×
//!    [`smv_summary::Summary::geometry_token`] × epoch (rank once per
//!    epoch), and
//! 3. a **result cache** for hot queries, invalidated by maintenance
//!    deltas: each entry is reverse-indexed by the views it read, an
//!    [`smv_views::EpochCatalog::apply`] kills exactly the touched
//!    entries, and untouched entries survive epoch bumps.
//!
//! An [`AdmissionScheduler`] picks inter- vs intra-query parallelism for
//! each request that executes, from the live client count, the pool's
//! queue depth and the plan's expected cardinality.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cache;
pub mod scheduler;
pub mod service;

pub use cache::{text_fingerprint, CachedPattern};
pub use scheduler::{AdmissionScheduler, SchedDecision, SchedMode};
pub use service::{QueryResponse, QueryService, ServeError, ServiceConfig, ServiceStats};
