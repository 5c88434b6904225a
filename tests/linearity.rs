//! Build and refresh cost as a count, not a clock: the `smv-obs` counter
//! of candidate probes ([`CANDIDATE_PROBES`]: label postings and marking
//! steps the matcher examined, plus candidates examined and interval
//! lookups made while binding) is exact and repeatable, so the bounds
//! below hold on any host. One test function, because the counter is
//! process-wide.

use smv::obs::{global, ScopedEnable};
use smv::prelude::*;
use smv::views::CANDIDATE_PROBES;
use smv::xml::{IdAssignment, Update};

const PATTERNS: [&str; 2] = [
    "site(//item{id}(/name{v}))",
    "site(//item{id}(?/name{id,v}))",
];

/// The probes `work` makes.
fn probes<T>(work: impl FnOnce() -> T) -> (u64, T) {
    global().reset();
    let out = work();
    (global().counter(CANDIDATE_PROBES), out)
}

#[test]
fn probes_follow_the_document_at_build_and_the_delta_at_refresh() {
    let _on = ScopedEnable::new();
    let scheme = IdScheme::OrdPath;
    // two documents 4× apart in scale
    let docs = [pr7_document(0.5, 13), pr7_document(2.0, 13)];
    let growth = docs[1].len() as f64 / docs[0].len() as f64;
    assert!((3.5..4.5).contains(&growth), "documents {growth}× apart");

    // materialization: linear in the document. A per-binding scan of the
    // candidate lists — the defect this replaces — reads 16× here.
    for pat in PATTERNS {
        let p = parse_pattern(pat).unwrap();
        let [small, large] = [&docs[0], &docs[1]].map(|doc| {
            let ids = IdAssignment::assign(doc, scheme);
            probes(|| materialize_with(&p, doc, &ids)).0
        });
        assert!(small > 0);
        assert!(
            large as f64 <= 4.5 * small as f64,
            "{pat}: {small} probes, then {large} on a document {growth:.2}× the size"
        );
    }

    // a labeled pattern node reads its label's postings, not the whole
    // document: a child-axis path to one region's items probes fewer
    // nodes than the document holds (about a tenth of them). Testing
    // every node for every pattern node reads 4× the document here.
    let p = parse_pattern("site(/regions(/asia(/item{id}(/name{v}))))").unwrap();
    let doc = &docs[1];
    let ids = IdAssignment::assign(doc, scheme);
    let (spent, extent) = probes(|| materialize_with(&p, doc, &ids));
    assert!(!extent.is_empty());
    assert!(
        spent < doc.len() as u64,
        "{spent} probes to materialize {p} on {} nodes",
        doc.len()
    );

    // refresh: a 1 % batch costs a multiple of what it touches — nodes
    // inserted, the paths above each edit, rows that left and joined —
    // whatever the size of the document around it
    for doc in docs {
        let nodes = doc.len();
        let mut ec = EpochCatalog::new(doc, scheme);
        for (i, pat) in PATTERNS.iter().enumerate() {
            let view = View::new(&format!("v{i}"), parse_pattern(pat).unwrap(), scheme);
            ec.add_view(view, RefreshPolicy::Eager);
        }
        // WITH NO DATA: registered, and free until refreshed
        let later = View::new("later", parse_pattern(PATTERNS[0]).unwrap(), scheme);
        let (registering, ()) = probes(|| ec.add_view(later, RefreshPolicy::Deferred));
        assert_eq!(registering, 0);

        let batch = Pr7Stream::new(5).next_batch(ec.live(), 0.01);
        let live = ec.live();
        let touched: usize = batch
            .ops
            .iter()
            .map(|op| match op {
                Update::Insert { parent, fragment } => {
                    let depth = live.doc().depth(live.node_of(parent).unwrap());
                    fragment.len() + depth as usize + 1
                }
                Update::Delete { id } => live.doc().depth(live.node_of(id).unwrap()) as usize,
            })
            .sum();
        let (spent, report) = probes(|| ec.apply(&batch).unwrap());
        let delta = touched + report.rows_killed + report.rows_added;
        assert!(report.rows_added > 0 && spent > 0);
        assert!(
            spent <= 2 * PATTERNS.len() as u64 * delta as u64,
            "{spent} probes for a delta of {delta} over {} views on {nodes} nodes",
            PATTERNS.len()
        );
        assert_eq!(report.deferred_stale, ["later"]);

        let (refreshing, refreshed) = probes(|| ec.refresh("later"));
        assert!(refreshed && refreshing > 0);
    }
}
