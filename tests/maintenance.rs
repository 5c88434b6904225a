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

/// The maintained summary's bytes after each batch of a seeded stream
/// (about 120 items, so each batch deletes, modifies and inserts some) and
/// of three directed batches, and whether its constraints token moved.
/// The directed batches: two fragments that each create paths (one
/// geometry bump per fragment), one of them saturating a path's distinct
/// sketch; a child label added under a path wider than the summary's scan
/// fan-out (8), found through its edge map; and a deletion and an insert
/// on the saturated path, whose sketch is rebuilt in document order.
#[test]
fn maintained_summary_bytes_are_pinned() {
    use smv::xml::wire::fnv64;
    let mut live = LiveDoc::new(pr7_document(1.0, 21), IdScheme::OrdPath);
    let mut summary = Summary::of(live.doc());
    let mut got: Vec<(u64, bool)> = vec![(fnv64(&summary.to_bytes()), false)];
    let mut apply = |live: &mut LiveDoc, summary: &mut Summary, batch: &UpdateBatch| {
        let token = summary.constraints_token();
        let applied = live.apply(batch).expect("batches apply");
        summary.apply_update(&applied, live.doc());
        got.push((
            fnv64(&summary.to_bytes()),
            summary.constraints_token() != token,
        ));
    };
    let mut stream = Pr7Stream::new(5);
    for _ in 0..8 {
        let batch = stream.next_batch(&live, 0.15);
        apply(&mut live, &mut summary, &batch);
    }
    let root = live.doc().root();
    let first_child = live.doc().children(root)[0];
    let many: Vec<String> = (0..1500).map(|i| format!(r#"probe_x="{i}""#)).collect();
    let mut batch = UpdateBatch::new();
    batch.insert(
        live.ids().id(root).clone(),
        Document::from_parens(&format!("probe_a({})", many.join(" "))),
    );
    batch.insert(
        live.ids().id(first_child).clone(),
        Document::from_parens("probe_b(probe_y(probe_z))"),
    );
    apply(&mut live, &mut summary, &batch);
    let wide = summary
        .iter()
        .max_by_key(|&p| (summary.children(p).len(), std::cmp::Reverse(p)))
        .unwrap();
    assert!(
        summary.children(wide).len() > 8,
        "{}",
        summary.path_string(wide)
    );
    let paths = summary.classify(live.doc()).unwrap();
    let on_wide = live.doc().iter().find(|n| paths[n.idx()] == wide).unwrap();
    let mut batch = UpdateBatch::new();
    batch.insert(
        live.ids().id(on_wide).clone(),
        Document::from_parens(r#"probe_wide="7""#),
    );
    apply(&mut live, &mut summary, &batch);
    let probe_a = *live.doc().children(root).last().unwrap();
    let mut batch = UpdateBatch::new();
    batch.delete(live.ids().id(live.doc().children(probe_a)[0]).clone());
    batch.insert(
        live.ids().id(probe_a).clone(),
        Document::from_parens(r#"probe_x="2000""#),
    );
    apply(&mut live, &mut summary, &batch);
    let x = summary.node_by_path("/site/probe_a/probe_x").unwrap();
    assert!(summary.value_histogram(x).is_some(), "a saturated sketch");
    assert_eq!(got, PINNED_SUMMARY);
}

/// `fnv64` of `Summary::to_bytes` and "the constraints token moved", for
/// the built summary and after each batch of
/// [`maintained_summary_bytes_are_pinned`].
const PINNED_SUMMARY: [(u64, bool); 12] = [
    (0xbeb5e6897ce6a841, false),
    (0xc66b8054c3537019, true),
    (0xdcb2dc8519b3a90c, true),
    (0xad8bf367f59be269, true),
    (0xb1552ce34db64dc1, true),
    (0x955b153416b56f1c, false),
    (0xf9ad81722b24fe44, true),
    (0x766c67b1bbbfaad9, true),
    (0xdab58a51cd8f2e49, true),
    (0x4e36c936ae5a7569, true),
    (0xb988d271ef9ebdea, true),
    (0x0676597f29193268, false),
];
