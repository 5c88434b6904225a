//! # smv-datagen — benchmark data, queries and views
//!
//! Synthetic but shape-faithful generators for every dataset of the
//! paper's §5 (Table 1): XMark documents at configurable scale, DBLP
//! snapshots ('02 and '05 vocabularies), Shakespeare plays, NASA and
//! SwissProt records; the tree patterns of the 20 XMark queries
//! (Figure 13); and the random satisfiable pattern and view generators
//! with the exact §5 parameters (fanout 3, P(*)=0.1, P(pred)=0.2,
//! P(//)=0.5, P(optional)=0.5; 2-node seed views + random 3-node views
//! storing ID,V with probability 0.75).
//!
//! All generators are deterministic given a seed.

#![deny(clippy::print_stdout, clippy::print_stderr)]
pub mod corpora;
pub mod dblp;
pub mod pr3;
pub mod pr7;
pub mod queries;
pub mod ranking;
pub mod skewed;
pub mod synthetic;
pub mod views;
pub mod xmark;

pub use dblp::{dblp, DblpSnapshot};
pub use pr3::{pr3_workload, Pr3Query};
pub use pr7::{pr7_document, pr7_views, Pr7Stream};
pub use queries::xmark_query_patterns;
pub use ranking::{ranking_cases, RankingCase};
pub use skewed::{skewed_workload, SkewedQuery, SkewedWorkload};
pub use synthetic::{random_patterns, SynthConfig};
pub use views::{random_views, seed_views, ViewGenConfig};
pub use xmark::{xmark, XmarkConfig};
