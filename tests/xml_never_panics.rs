//! The XML parser on hostile input: every byte string is an `Ok` or an
//! `Err` — never a panic, a hang or a stack overflow. Nesting is refused
//! beyond `smv::xml::MAX_DEPTH`, and a document exactly at the cap goes
//! through every layer that walks a document recursively on a small
//! worker stack.

use proptest::prelude::*;
use smv::prelude::*;
use smv::xml::MAX_DEPTH;

/// A small benchmark document, as the text a client would send.
fn small_pr7() -> String {
    serialize_document(&pr7_document(0.01, 5))
}

/// `depth` nested elements around a text, each with an attribute.
fn nested(depth: usize) -> String {
    let mut s = String::new();
    for i in 0..depth {
        s.push_str(&format!("<e{} k=\"{i}\">", i % 3));
    }
    s.push_str("leaf");
    for i in (0..depth).rev() {
        s.push_str(&format!("</e{}>", i % 3));
    }
    s
}

/// `Err` is an answer; an `Ok` must at least be a document.
fn check(input: &str) -> Result<(), TestCaseError> {
    if let Ok(doc) = parse_document(input) {
        prop_assert!(!doc.is_empty(), "a parsed document has a root");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, forced to UTF-8 the way a network front end would;
    /// the leading `<` gets the parser past its first check.
    #[test]
    fn arbitrary_bytes_parse_or_fail(
        bytes in proptest::collection::vec(0u16..256, 0..200),
        open in 0u8..2,
    ) {
        let mut bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        if open == 1 {
            bytes.insert(0, b'<');
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// One byte changed, dropped or inserted anywhere in a real document.
    #[test]
    fn single_byte_edits_parse_or_fail(
        at in 0usize..1 << 20,
        with in 0u16..256,
        edit in 0u8..3,
    ) {
        let mut bytes = small_pr7().into_bytes();
        let i = at % bytes.len();
        match edit {
            0 => bytes[i] = with as u8,
            1 => { bytes.remove(i); }
            _ => bytes.insert(i, with as u8),
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Nesting around the cap: accepted up to it, refused past it.
    #[test]
    fn nesting_around_the_cap(extra in 0usize..6) {
        let depth = MAX_DEPTH - 2 + extra;
        let r = parse_document(&nested(depth));
        prop_assert_eq!(r.is_ok(), depth <= MAX_DEPTH, "depth {}: {:?}", depth, r.err());
    }
}

/// The edit test starts from an `Ok`.
#[test]
fn small_pr7_parses() {
    let doc = parse_document(&small_pr7()).expect("the generator writes XML");
    assert!(doc.len() > 100, "{} nodes", doc.len());
}

/// A document exactly at the cap is parsed, summarized and materialized
/// under a `//*{id}` view on a 2 MB stack (a worker's, not the main
/// thread's 8 MB); one level more is an error, not an abort.
#[test]
fn a_document_at_the_cap_goes_through_the_stack_on_a_small_thread() {
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let doc = parse_document(&nested(MAX_DEPTH)).expect("at the cap");
            let summary = Summary::of(&doc);
            assert_eq!(
                summary.len(),
                2 * MAX_DEPTH,
                "an element and an @k per level"
            );
            let view = parse_pattern("e0(//*{id})").unwrap();
            for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
                let rows = materialize(&view, &doc, scheme);
                assert_eq!(rows.len(), doc.len() - 1, "{scheme:?}: every descendant");
            }
            let e = parse_document(&nested(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.message.contains("deeper"), "{e}");
        })
        .unwrap();
    worker.join().expect("no stack overflow at the cap");
}
