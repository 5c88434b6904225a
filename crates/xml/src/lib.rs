//! # smv-xml — XML substrate
//!
//! The data-model substrate for the structured-materialized-views system:
//! an arena-based unranked, ordered, labeled tree model for XML documents
//! (paper §2.1), a from-scratch XML parser and serializer, atomic values
//! with a total order, and the two structural node-identifier schemes the
//! paper relies on (ORDPATH and Dewey), which support document-order
//! comparison, ancestor/parent tests, and *parent-ID derivation* — the
//! property exploited by the rewriting algorithm's "virtual ID" step
//! (paper §4.6).
//!
//! Everything higher in the stack (summaries, patterns, algebra, views,
//! containment, rewriting) builds on this crate. That bottom position is
//! also why the primitives the layers above share live here: the [`par`]
//! scoped map (the catalog's parallel view registration), the
//! [`fasthash`] hasher, and [`wire`] —
//! the byte codec every persisted format is written with and the FNV-1a
//! hash every fingerprint is taken with.

#![deny(clippy::print_stdout, clippy::print_stderr)]
pub mod fasthash;
pub mod ids;
pub mod label;
pub mod live;
pub mod par;
pub mod parser;
pub mod tree;
pub mod treelike;
pub mod value;
pub mod wire;
pub mod writer;

pub use ids::{DeweyId, IdAssignment, IdScheme, OrdPath, StructId};
pub use label::{Label, Symbol};
pub use live::{AppliedBatch, Detached, LiveDoc, LiveError, Update, UpdateBatch};
pub use parser::{parse_document, ParseError, MAX_DEPTH};
pub use tree::{Document, NodeId, TreeBuilder};
pub use treelike::LabeledTree;
pub use value::Value;
pub use writer::{serialize_document, serialize_subtree};
