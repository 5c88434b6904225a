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
//! Clones of a definition share that slot, so the cache has no owner to
//! plumb: `smv-serve`'s `QueryService` finds it on the snapshot's views
//! and carries it across epochs, the advisor's probes
//! ([`best_rewriting_cost`]) find it on the candidate definitions every
//! probe set is cloned from, and the views it advises arrive at the
//! service already carrying theirs. What depends on the query — its own
//! canonical model, the Prop. 3.4 relatedness test, the §4.6 derived
//! columns, costing — is paid per run. A stamp mismatch rebuilds and
//! replaces; [`RewriteStats`] reports how many views each run found
//! prepared and how many it built.
//!
//! After set-up, a run pays for the join enumeration (Algorithm 1 lines
//! 2–11): merging member pairs, testing pairs against the query, and the
//! Proposition 3.5 test that drops a join whose pattern information the
//! search has already seen. That test, and member deduplication, key on
//! values — `Arc`-shared node sets hashed once when built, sorted
//! `(attribute, path)` words per column group — through a small
//! multiplicative hasher, compared in full on a hit, so no text is
//! formatted and no hash collision can prune a pair. A join is first
//! decided from its member combinations: one that repeats the
//! combinations and column groups of an earlier join of the same two
//! pairs has that join's key, so it is counted as dropped and never
//! built. The benchmark's `//quantity` ranking builds 101 of its 226
//! joins ([`RewriteStats::joins_built`]). 44 of those still meet an
//! earlier key in `seen`: the mirrored `b ⋈ a` and reorderings across
//! expansions, which the pre-merge test does not see
//! ([`RewriteStats::pairs_deduped`] counts both kinds of drop).
//!
//! The branch-and-bound prunes a pair once a lower bound on every
//! rewriting reachable from it reaches the best rewriting found. For a
//! pair that lacks a returned column, that bound is its estimated work
//! and rows plus the cheapest view supplying the costliest missing column
//! (see [`RewriteOpts::cost_prune`]). The same per-run table answers "no
//! rewriting" at set-up when a returned column has no supplier at all.
//! Without the supplier term that ranking explored 58 pairs and built
//! 279 joins; with it, 26 and 101.
//!
//! Under the strong closure a member holds most of the summary's paths
//! (about 124 of 770 on that ranking), nearly all with formula `T`. A
//! node set is therefore a bitset over summary path ids plus the sorted
//! list of its other formulas: merging two members ORs a dozen words and
//! walks two short lists, and the line-7 test's "member within a tree of
//! `mod_S(q)`" is a word-wise subset test plus satisfiability checks on
//! those lists alone. The query's side of that test — each model tree's
//! node set, return paths and formulas — is built once per run, and the
//! other direction's verdict (does `q` produce the member's designated
//! tuple?) is kept for the run by (node set, designation):
//! [`RewriteStats::member_tests`] counts the verdicts computed,
//! [`RewriteStats::member_tests_reused`] the ones served again (9 and 12
//! on that ranking). Over prepared views, that ranking takes about
//! 0.8 ms at best of 200 runs (1.5–2.0 ms without the supplier term)
//! and a child-axis one about 0.07 ms (scale-10 XMark, the nine views of
//! `smvbench`'s `adhoc`, a 2-core x86-64 host).

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
