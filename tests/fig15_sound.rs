//! Figure 15's setting as a soundness suite: the 20 XMark queries
//! rewritten over the §5 view set — the 33 seed views and 40 random
//! ones of `fig15_views(&s, 40)`, 118 in all — over the default XMark
//! document (`xmark_summary`'s), every rewriting executed on every
//! provider arm and compared with direct evaluation.
//!
//! All 20 queries run under the bench's `fig15_opts`; Q1–Q6, Q13, Q18
//! and Q20, whose search ends quickly, also run under the defaults. The
//! rewritings that return wrong rows are pinned in [`KNOWN_UNSOUND`],
//! in plain view: ROADMAP item 1's witnesses, where line 7 reads a
//! member as a set of summary paths and so merges two `open_auction`
//! nodes that no `⋈_=` equated. Any other unsound rewriting fails the
//! suite, and so does one of these turning sound: the fix empties the
//! list.

use smv::prelude::*;
use smv_bench::{fig15_opts, fig15_views};

/// The unsound rewritings: (query number, option set, rank).
const KNOWN_UNSOUND: [(usize, &str, usize); 2] = [(3, "defaults", 5), (4, "defaults", 3)];

#[test]
fn fig15_rewritings_are_sound_but_the_known_witnesses() {
    let doc = xmark(&XmarkConfig::default());
    let s = Summary::of(&doc);
    let views = fig15_views(&s, 40);
    assert_eq!(views.len(), 118);
    let scheme = views[0].scheme;
    let matrix = ProviderMatrix::from_views(&doc, views);
    let views = matrix.views();
    let option_sets = [
        ("fig15_opts", fig15_opts(), &[][..]),
        (
            "defaults",
            RewriteOpts::default(),
            &[1, 2, 3, 4, 5, 6, 13, 18, 20][..],
        ),
    ];
    // one option set at a time: each keeps its own view preparations
    let (mut unsound, mut checked) = (Vec::new(), 0);
    let queries = xmark_query_patterns();
    let direct: Vec<_> = queries
        .iter()
        .map(|q| materialize(q, &doc, scheme))
        .collect();
    for (name, opts, only) in &option_sets {
        for (i, q) in queries.iter().enumerate() {
            let n = i + 1;
            if !only.is_empty() && !only.contains(&n) {
                continue;
            }
            let r = rewrite(q, views, &s, opts);
            for (rank, rw) in r.rewritings.iter().enumerate() {
                let (rows, _) = matrix.check(&rw.plan);
                if !rows.set_eq(&direct[i]) {
                    unsound.push((n, *name, rank));
                }
                checked += 1;
            }
        }
    }
    unsound.sort();
    assert_eq!(
        unsound, KNOWN_UNSOUND,
        "(query, options, rank) of every unsound rewriting"
    );
    assert!(checked > 20, "{checked} rewritings checked");
}
