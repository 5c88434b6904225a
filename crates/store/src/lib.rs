//! # smv-store — the on-disk columnar extent store
//!
//! Everything before this crate lived in RAM: view extents, the
//! [`smv_summary::Summary`], the [`smv_algebra::FeedbackStore`] — all
//! gone at process exit. This crate persists them as **columnar
//! segments**, read through a **buffer pool**, with epoch-atomic
//! publication:
//!
//! * [`codec`] — the segment codec: in-segment string dictionaries over
//!   the process-local [`smv_xml::Symbol`] interning, run-length encoded
//!   cell tags, and front-coded / delta-coded ID columns that exploit the
//!   document order extents are normalized into. Every decode is checked:
//!   truncation and bit-flips are [`StoreError::Corrupt`], never garbage
//!   rows. Like every persisted format, it is written and read with
//!   [`smv_xml::wire`]'s byte codec.
//! * [`pool`] — fixed-size pages with per-page FNV-1a checksums, read
//!   through a pinned/clock-evicted [`BufferPool`] under a configurable
//!   budget that caches and verifies but never writes, and smv-obs
//!   `store.pool.*` counters.
//! * [`io`] — the [`Vfs`] seam everything runs on: [`DiskVfs`] for real
//!   directories, [`SimVfs`] for tests — an in-memory file system that
//!   models the visible/durable distinction and injects torn writes,
//!   dropped fsyncs, short reads and hard stops at a chosen op index.
//! * [`disk`] — epoch-versioned catalogs: [`DiskStore::publish_epoch`]
//!   writes an [`smv_views::EpochCatalog`] snapshot's segments + summary
//!   (+ feedback), each built whole in memory and written once, then
//!   commits by renaming a checksummed manifest;
//!   [`DiskStore::open`] serves the newest epoch whose manifest and files
//!   validate, so a crash at *any* interior point recovers the previous
//!   epoch exactly. [`DiskCatalog`] plugs into the executor through
//!   [`smv_algebra::ViewProvider`] (`open` reads the manifest only;
//!   extents, summary and feedback load on first use); a segment that
//!   fails to load fails the query that scans it with
//!   [`smv_algebra::ExecError::Storage`], and no read panics. Durable
//!   maintenance is [`smv_views::EpochCatalog::apply`] followed by
//!   `publish_epoch` of the new snapshot.
//! * [`differential`] — the [`ProviderMatrix`] harness proving all of the
//!   above: one plan, four provider arms (map / epoch / disk-cold /
//!   disk-warm), every thread count, byte-identical rows and profile
//!   counters.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod codec;
pub mod differential;
pub mod disk;
pub mod io;
pub mod pool;

pub use codec::{decode_relation, encode_relation};
pub use differential::ProviderMatrix;
pub use disk::{DiskCatalog, DiskStore, StoreOptions};
pub use io::{DiskVfs, FaultKind, FaultPlan, Result, SimVfs, StoreError, Vfs};
pub use pool::{BufferPool, PageGuard, PoolStats};
pub use smv_xml::wire::fnv64;
