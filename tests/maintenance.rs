//! Workspace-level maintenance equivalence: under interleavings of
//! update batches and queries, an epoch store's delta-maintained
//! extents answer **byte-identically** — same rows in the same order,
//! same execution-profile counters — to a from-scratch rebuild, for
//! every ID scheme and at every thread count.

use smv::prelude::*;

/// The pr7 workload queries: a direct view scan, a structural join over
/// two views, and an online selection over a stored-value view.
const QUERIES: &[&str] = &[
    "site(//name{id,v})",
    "site(//item{id}(/name{id,v}))",
    "site(//quantity{id,v}[v<=3])",
];

fn profile_entries(p: &ExecProfile) -> Vec<(String, u64)> {
    let mut v: Vec<_> = p.iter().map(|(k, r)| (k.to_string(), r)).collect();
    v.sort();
    v
}

/// Delta maintenance ≡ rebuild, observed through the query path: every
/// rewriting of every workload query, executed against the maintained
/// snapshot and against a from-scratch oracle, returns identical rows
/// *and* identical per-operator profiles — serial and parallel alike.
#[test]
fn interleaved_updates_answer_like_a_from_scratch_rebuild() {
    for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
        for threads in [1usize, 4] {
            let exec_opts = ExecOpts::with_threads(threads);
            let mut epochs = EpochCatalog::new(pr7_document(0.05, 21), scheme);
            for v in pr7_views(scheme) {
                epochs.add_view(v, RefreshPolicy::Eager);
            }
            let mut stream = Pr7Stream::new(33);
            for round in 0..3 {
                let batch = stream.next_batch(epochs.live(), 0.15);
                epochs.apply(&batch).expect("stream batches apply");
                let snap = epochs.snapshot();
                let oracle = epochs.rebuild_from_scratch();
                for q in QUERIES {
                    let q = parse_pattern(q).unwrap();
                    let ranked = rewrite(&q, snap.views(), snap.summary(), &RewriteOpts::default());
                    assert!(
                        !ranked.rewritings.is_empty(),
                        "{scheme:?} round {round}: {q} has a rewriting"
                    );
                    for rw in &ranked.rewritings {
                        let (rows, prof) =
                            execute_profiled_with(&rw.plan, &*snap, &exec_opts).unwrap();
                        let (orows, oprof) =
                            execute_profiled_with(&rw.plan, &oracle, &exec_opts).unwrap();
                        assert_eq!(rows.schema, orows.schema);
                        assert_eq!(
                            rows.rows, orows.rows,
                            "{scheme:?} t={threads} round {round}: {q} rows diverge\n{}",
                            rw.plan
                        );
                        assert_eq!(
                            profile_entries(&prof),
                            profile_entries(&oprof),
                            "{scheme:?} t={threads} round {round}: {q} profiles diverge"
                        );
                    }
                }
            }
        }
    }
}
