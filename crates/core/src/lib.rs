//! # smv-core — containment and view-based rewriting
//!
//! The paper's primary contribution:
//!
//! * [`containment`] — deciding `p ⊆_S q`, `p ⊆_S q_1 ∪ … ∪ q_m` and
//!   `p ≡_S q` under Dataguide (and integrity-constraint) constraints, for
//!   the full extended pattern language (Propositions 3.1/3.2, §4).
//! * [`rewriting`] — Algorithm 1: given a query pattern and a set of
//!   materialized view patterns, produce the algebraic plans over the
//!   views that are `S`-equivalent to the query, with the pruning rules of
//!   Propositions 3.4-3.7, C-attribute unfolding and virtual-ID
//!   derivation (§4.6). One module per step of the algorithm: `mod.rs`
//!   (options, results, the search loop and its branch-and-bound),
//!   `pair` (the (plan, pattern) pairs and their Prop. 3.5 keys),
//!   `adapt` (line 1: base pairs, Prop. 3.4, the §4.6 derived columns),
//!   `bound` (the branch-and-bound's lower bound), `join` (lines 2–11),
//!   `verdict` (line 7: Props. 3.1, 3.2 and 3.7, the §4.6 selections)
//!   and `plan` (the output plan and lines 13–14).
//!
//! ## What a run pays for
//!
//! A run's set-up splits in two. What depends on a view and the summary's
//! constraints alone — its flat pattern, associated paths, canonical
//! model, base plan, column layout and deduplicated members — is built
//! once and kept on the `View` itself (`smv_views::View::derived`),
//! stamped with `Summary::constraints_token` and the two options it read.
//! Clones of a definition share that slot, so `smv-serve`'s
//! `QueryService` finds it on every snapshot's views and the advisor's
//! probes ([`best_rewriting_cost`]) on the candidate definitions. What
//! depends on the query — its canonical model, the Prop. 3.4 relatedness
//! test, the §4.6 derived columns, costing — is paid per run. A stamp
//! mismatch rebuilds and replaces; [`RewriteStats`] reports how many views
//! each run found prepared and how many it built.
//!
//! After set-up, a run pays for the join enumeration (Algorithm 1 lines
//! 2–11). The Proposition 3.5 test and member deduplication key on
//! values — `Arc`-shared node sets hashed once, sorted
//! `(attribute, path)` words per column group — compared in full on a
//! hash hit, so no text is formatted and no collision prunes a pair. A
//! join is decided before anything of it is built. An option that repeats
//! the member combinations, column groups and orientation of an earlier
//! option of the same expansion takes that option's decision and is
//! priced on its own plan; every other option merges its members' node
//! sets and takes its key from those and its inputs' member layouts
//! ([`RewriteStats::joins_built`] counts the decided ones). An option
//! whose key is already in `seen`, which holds the keys of the pairs the
//! search keeps, is dropped before it is priced
//! ([`RewriteStats::pairs_deduped`]); a join the bound prunes leaves no
//! key behind. Only a join the bound keeps gets its columns, groups,
//! views and column paths.
//!
//! The branch-and-bound prunes a pair once a lower bound on every
//! rewriting reachable from it reaches the best rewriting found. For a
//! pair that lacks a returned column, that bound is its estimated work
//! and rows plus the cheapest view supplying the costliest missing column
//! (see [`RewriteOpts::cost_prune`]). The same per-run table answers "no
//! rewriting" at set-up when a returned column has no supplier at all.
//!
//! A node set is a bitset over summary path ids plus the sorted list of
//! its formulas other than `T`: merging two members ORs words and walks
//! two short lists, and the line-7 test's "member within a tree of
//! `mod_S(q)`" is a word-wise subset test plus satisfiability checks on
//! those lists. The query's side of that test is built once per run, and
//! the other direction's verdict is kept for the run by (node set,
//! designation): [`RewriteStats::member_tests`] counts the verdicts
//! computed, [`RewriteStats::member_tests_reused`] the ones served again.
//! `ARCHITECTURE.md` ("Rewriting") states each step's invariants and the
//! tests that pin them.

#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod containment;

pub use containment::{
    contained, contained_in_union, equivalent, is_satisfiable, one_to_one_connected, ContainOpts,
    Decision,
};

pub mod rewriting;

pub use rewriting::{
    best_rewriting_cost, rewrite, RewriteOpts, RewriteResult, RewriteStats, Rewriter, Rewriting,
};
