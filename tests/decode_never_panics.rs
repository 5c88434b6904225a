//! The persisted-byte decoders on hostile input: `decode_relation` (full
//! and projected), `OrdPath::try_from_bytes`, `DeweyId::try_from_bytes`
//! and `FeedbackStore::from_bytes` answer every byte string with a value
//! or an error, never a panic. The inputs are truncated, edited and random
//! bytes, and the seeds are real encodings: `encode_relation` of every
//! `pr7` extent over a small benchmark document in both structural
//! schemes, a feedback store that profiled those extents, and their ids.
//!
//! What an `Ok` must satisfy: a decoded relation re-encodes to bytes that
//! decode equal; a projected decode fails exactly when the full decode
//! fails and, for ascending columns inside the schema, is the full decode
//! projected; an id re-encodes to the bytes it came from; a feedback store
//! re-encodes to bytes that decode to the same encoding.

use proptest::prelude::*;
use smv::algebra::{execute_profiled_with, Cell, NestedRelation, Row, Schema, ViewProvider};
use smv::prelude::*;
use smv::store::{decode_relation, encode_relation};
use smv::xml::{DeweyId, OrdPath, StructId};
use std::sync::OnceLock;

/// Column lists a projected decode is asked for: ascending inside every
/// `pr7` schema, ascending past it, and not ascending.
const PROJECTIONS: &[&[usize]] = &[&[0], &[1], &[0, 2], &[2], &[0, 9], &[2, 0], &[]];

/// The seeds: `encode_relation` of each `pr7` extent in each structural
/// scheme, a profiled feedback store's bytes, and the bytes of one id of
/// each scheme.
fn seeds() -> &'static [Vec<u8>] {
    static SEEDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let doc = pr7_document(0.05, 7);
        let mut seeds = Vec::new();
        let mut feedback = FeedbackStore::new();
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
            let mut catalog = EpochCatalog::new(doc.clone(), scheme);
            for v in pr7_views(scheme) {
                catalog.add_view(v, RefreshPolicy::Eager);
            }
            let snap = catalog.snapshot();
            for v in snap.views() {
                let rel = snap.extent(&v.name).expect("eager extent");
                seeds.push(encode_relation(rel));
                let scan = Plan::Scan {
                    view: v.name.clone(),
                };
                let (_, profile) = execute_profiled_with(&scan, &*snap, &ExecOpts::default())
                    .expect("a scan executes");
                feedback.ingest(&scan, &profile);
                if let Some(id) = rel.rows.iter().find_map(|r| match &r.cells[0] {
                    Cell::Id(StructId::Ord(o)) => Some(o.to_bytes()),
                    Cell::Id(StructId::Dewey(d)) => Some(d.to_bytes()),
                    _ => None,
                }) {
                    seeds.push(id);
                }
            }
        }
        seeds.push(feedback.to_bytes());
        seeds
    })
}

/// Feeds `bytes` to every decoder and checks what each one accepts.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let full = decode_relation(bytes, None);
    if let Ok(rel) = &full {
        let again = decode_relation(&encode_relation(rel), None);
        prop_assert!(
            again.is_ok(),
            "a decoded relation re-decodes: {:?}",
            again.err()
        );
        let again = again.unwrap();
        prop_assert_eq!(&again, rel, "re-encoded relation decodes equal");
        prop_assert_eq!(again.sorted_on, rel.sorted_on);
    }
    for &cols in PROJECTIONS {
        let projected = decode_relation(bytes, Some(cols));
        prop_assert_eq!(
            projected.is_ok(),
            full.is_ok(),
            "projected {:?} and full decodes disagree: {:?} / {:?}",
            cols,
            projected.as_ref().err(),
            full.as_ref().err()
        );
        if let (Ok(p), Ok(f)) = (&projected, &full) {
            let inside = cols.iter().all(|&c| c < f.schema.len());
            if inside && cols.is_sorted_by(|a, b| a < b) {
                prop_assert_eq!(p, &project(f, cols), "projected {:?}", cols);
                let sorted_on = f.sorted_on.and_then(|s| cols.iter().position(|&c| c == s));
                prop_assert_eq!(p.sorted_on, sorted_on, "projected {:?}", cols);
            }
        }
    }
    if let Some(id) = OrdPath::try_from_bytes(bytes) {
        prop_assert_eq!(id.to_bytes(), bytes.to_vec(), "an OrdPath is its bytes");
    }
    if let Some(id) = DeweyId::try_from_bytes(bytes) {
        prop_assert_eq!(id.to_bytes(), bytes.to_vec(), "a DeweyId is its bytes");
    }
    if let Ok(store) = FeedbackStore::from_bytes(bytes) {
        let encoded = store.to_bytes();
        let again = FeedbackStore::from_bytes(&encoded);
        prop_assert!(
            again.is_ok(),
            "a decoded store re-decodes: {:?}",
            again.err()
        );
        prop_assert_eq!(again.unwrap().to_bytes(), encoded);
    }
    Ok(())
}

/// `rel`'s columns `cols`, in that order.
fn project(rel: &NestedRelation, cols: &[usize]) -> NestedRelation {
    let schema = Schema {
        cols: cols.iter().map(|&c| rel.schema.cols[c].clone()).collect(),
    };
    let rows = rel.rows.iter();
    let rows = rows.map(|r| Row::new(cols.iter().map(|&c| r.cells[c].clone()).collect()));
    NestedRelation::new(schema, rows.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A seed cut short anywhere.
    #[test]
    fn truncated_bytes_decode_or_fail(seed in 0usize..1 << 10, at in 0usize..1 << 20) {
        let bytes = &seeds()[seed % seeds().len()];
        check(&bytes[..at % (bytes.len() + 1)])?;
    }

    /// One byte of a seed changed, dropped or inserted anywhere.
    #[test]
    fn single_byte_edits_decode_or_fail(
        seed in 0usize..1 << 10,
        at in 0usize..1 << 20,
        with in 0u16..256,
        edit in 0u8..3,
    ) {
        let mut bytes = seeds()[seed % seeds().len()].clone();
        let i = at % bytes.len();
        match edit {
            0 => bytes[i] = with as u8,
            1 => { bytes.remove(i); }
            _ => bytes.insert(i, with as u8),
        }
        check(&bytes)?;
    }

    /// Arbitrary bytes; half of them behind a real seed's first byte,
    /// which gets the relation decoder past its first field more often.
    #[test]
    fn arbitrary_bytes_decode_or_fail(
        bytes in proptest::collection::vec(0u16..256, 0..120),
        lead in 0usize..1 << 10,
        open in 0u8..2,
    ) {
        let mut bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        if open == 1 {
            let seed = &seeds()[lead % seeds().len()];
            bytes.insert(0, seed[0]);
        }
        check(&bytes)?;
    }
}

/// The seeds themselves decode: every extent round-trips and every
/// projection asked for is answered, the ids decode, and so does the
/// feedback store.
#[test]
fn seeds_decode() {
    let seeds = seeds();
    let relations = seeds
        .iter()
        .filter(|b| decode_relation(b, None).is_ok())
        .count();
    assert_eq!(relations, 8, "four pr7 extents in two schemes");
    assert!(seeds
        .iter()
        .any(|b| OrdPath::try_from_bytes(b).is_some_and(|id| id.to_bytes() == **b)));
    assert!(seeds.iter().any(|b| DeweyId::try_from_bytes(b).is_some()));
    assert!(seeds
        .iter()
        .any(|b| FeedbackStore::from_bytes(b).is_ok_and(|s| s.len() >= 4)));
    for b in seeds {
        check(b).expect("a seed passes every check");
    }
}
