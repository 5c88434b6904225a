//! The pattern parser and the query service on hostile client text: every
//! byte string parses to an `Ok` or an `Err`, never a panic. An `Ok`
//! renders to text that parses back to the same canonical form, and any
//! text sent to a `QueryService` gets a response or a `ServeError` — no
//! panic, and no poisoned lock for the next request.

#[path = "common/golden.rs"]
#[allow(dead_code, reason = "only the query texts are used here")]
mod golden;

use golden::QUERIES;
use proptest::prelude::*;
use smv::prelude::*;
use std::sync::OnceLock;

/// The benchmark's query texts: its 11 pool queries and 8 `adhoc`
/// templates, filled in.
const BENCH_QUERIES: &[&str] = QUERIES.split_at(19).0;

/// One service over a small benchmark document and the `pr7` views,
/// shared by every case, so a case that poisoned a lock would fail the
/// next.
fn service() -> &'static QueryService {
    static SERVICE: OnceLock<QueryService> = OnceLock::new();
    SERVICE.get_or_init(|| {
        let scheme = IdScheme::OrdPath;
        let svc = QueryService::new(
            pr7_document(0.05, 7),
            scheme,
            ServiceConfig {
                threads: 1,
                ..ServiceConfig::default()
            },
        );
        svc.add_views(pr7_views(scheme), RefreshPolicy::Eager);
        svc
    })
}

/// Parses `text`; an `Ok` must survive rendering and re-parsing, and the
/// service must answer the text with rows or an error.
fn check(text: &str) -> Result<(), TestCaseError> {
    if let Ok(p) = parse_pattern(text) {
        let rendered = p.to_string();
        let again = parse_pattern(&rendered);
        prop_assert!(
            again.is_ok(),
            "{text:?} renders to {rendered:?}, which does not parse: {:?}",
            again.err()
        );
        prop_assert_eq!(
            canonical_form(&again.unwrap()),
            canonical_form(&p),
            "{:?} renders to {:?}",
            text,
            rendered
        );
    }
    // an `Err` is an answer too; only a panic fails the case
    let _ = service().query(text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, forced to UTF-8; half of them after `site(`, which
    /// takes the parser past its first token.
    #[test]
    fn arbitrary_bytes_parse_or_fail(
        bytes in proptest::collection::vec(0u16..256, 0..80),
        open in 0u8..2,
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut text = String::from_utf8_lossy(&bytes).into_owned();
        if open == 1 {
            text.insert_str(0, "site(");
        }
        check(&text)?;
    }

    /// One byte changed, dropped or inserted anywhere in a benchmark query.
    /// About a third of the edits parse and are ranked.
    #[test]
    fn single_byte_edits_parse_or_fail(
        query in 0usize..BENCH_QUERIES.len(),
        at in 0usize..1 << 20,
        with in 0u16..256,
        edit in 0u8..3,
    ) {
        let mut bytes = BENCH_QUERIES[query].as_bytes().to_vec();
        let i = at % bytes.len();
        match edit {
            0 => bytes[i] = with as u8,
            1 => { bytes.remove(i); }
            _ => bytes.insert(i, with as u8),
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }
}

/// The edit test starts from texts that parse and survive rendering, and
/// the shared service answers the ones its views serve with rows.
#[test]
fn benchmark_queries_parse_and_the_served_ones_answer() {
    for text in BENCH_QUERIES {
        check(text).expect("a benchmark query round-trips");
    }
    for text in ["site(//name{id,v})", "site(//item{id}(/name{id,v}))"] {
        let rows = service().query(text).expect("the pr7 views serve it");
        assert!(!rows.rows.is_empty(), "{text}");
    }
}
