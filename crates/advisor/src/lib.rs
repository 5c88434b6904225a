//! # smv-advisor — workload-driven materialized-view selection
//!
//! The paper assumes the view set is *given* and rewrites queries against
//! it; this crate inverts the problem, following the query-clustering
//! view-selection line of Mahboubi/Aouiche/Darmont (arXiv:0809.1963,
//! arXiv:1701.08088): given a **workload** — tree-pattern queries with
//! frequencies — and a structural [`Summary`](smv_summary::Summary),
//! propose the view set to materialize under a storage budget.
//!
//! The pipeline:
//!
//! 1. **Mine candidates** ([`mine_candidates`]): each query's own
//!    pattern, predicate-relaxed generalizations, and *merged* views
//!    built from pairs of queries sharing a summary anchor — one
//!    candidate serving several queries, justified by the summary's
//!    strong edges so the merged required branches lose no bindings.
//! 2. **Score** each candidate set by *benefit*: Σ over workload queries
//!    of `weight × (best rewriting cost without − with)`, where costs
//!    come from [`smv_core::best_rewriting_cost`] driven with
//!    [`DefCards`](smv_views::DefCards) — nothing is materialized during
//!    search — and a query no view set serves pays the **navigation
//!    baseline** (one unit per document node, [`navigation_cost`]).
//!    Candidate *size* comes from
//!    [`smv_views::estimate_extent_bytes`].
//! 3. **Select** greedily by benefit per byte under the budget, with
//!    full benefit recomputation after each pick ([`advise`]) — picked
//!    views change every later marginal gain — or exhaustively over all
//!    subsets as a test oracle for small candidate sets
//!    ([`advise_exhaustive`]).

#![deny(clippy::print_stdout, clippy::print_stderr)]
pub mod candidates;
pub mod select;

pub use candidates::{mine_candidates, Candidate, CandidateKind};
pub use select::{advise, advise_exhaustive, navigation_cost, Advice, AdvisedView, PerQuery};

use smv_core::RewriteOpts;
use smv_pattern::Pattern;
use smv_xml::IdScheme;

/// One workload query: a tree pattern plus its relative frequency.
#[derive(Clone, Debug)]
pub struct WorkloadQuery {
    /// The query pattern.
    pub pattern: Pattern,
    /// Relative frequency (benefit weight); 1.0 = one occurrence.
    pub weight: f64,
}

impl WorkloadQuery {
    /// A query with weight 1.
    pub fn new(pattern: Pattern) -> WorkloadQuery {
        WorkloadQuery {
            pattern,
            weight: 1.0,
        }
    }

    /// A query with an explicit weight.
    pub fn weighted(pattern: Pattern, weight: f64) -> WorkloadQuery {
        WorkloadQuery { pattern, weight }
    }
}

/// A query workload.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// The queries.
    pub queries: Vec<WorkloadQuery>,
}

impl Workload {
    /// A workload over `queries`, all weight 1.
    pub fn from_patterns(queries: impl IntoIterator<Item = Pattern>) -> Workload {
        Workload {
            queries: queries.into_iter().map(WorkloadQuery::new).collect(),
        }
    }

    /// A workload from `(pattern, weight)` pairs.
    pub fn weighted(queries: impl IntoIterator<Item = (Pattern, f64)>) -> Workload {
        Workload {
            queries: queries
                .into_iter()
                .map(|(p, w)| WorkloadQuery::weighted(p, w))
                .collect(),
        }
    }
}

/// Advisor knobs.
#[derive(Clone, Debug)]
pub struct AdvisorOpts {
    /// Storage budget in (estimated) bytes; `f64::INFINITY` = unbounded.
    pub budget_bytes: f64,
    /// ID scheme of proposed views.
    pub scheme: IdScheme,
    /// Rewriting bounds used by the cost probes.
    pub rewrite: RewriteOpts,
    /// Cap on mined candidates (mining order: singletons, then
    /// generalizations, then merged pairs).
    pub max_candidates: usize,
}

impl Default for AdvisorOpts {
    fn default() -> Self {
        AdvisorOpts {
            budget_bytes: f64::INFINITY,
            scheme: IdScheme::OrdPath,
            rewrite: RewriteOpts::default(),
            max_candidates: 24,
        }
    }
}
