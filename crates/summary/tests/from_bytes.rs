//! `Summary::from_bytes` on hostile input: arbitrary bytes, and
//! single-byte edits and truncations of a real summary's encoding. It
//! never panics, and every summary it accepts re-encodes to bytes that
//! decode to the same summary.

use proptest::prelude::*;
use smv_summary::Summary;
use std::sync::OnceLock;

/// The encoding of a pr7 document's summary, whose paths carry sketches
/// of both string and integer values.
fn pr7_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| Summary::of(&smv_datagen::pr7_document(0.05, 21)).to_bytes())
}

/// Decodes `bytes`; when that succeeds, the re-encoding must decode, and
/// to a summary that encodes the same.
fn decodes_stably(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(summary) = Summary::from_bytes(bytes) else {
        return Ok(());
    };
    let encoded = summary.to_bytes();
    match Summary::from_bytes(&encoded) {
        Ok(again) => prop_assert_eq!(again.to_bytes(), encoded),
        Err(e) => prop_assert!(false, "a re-encoded summary fails to decode: {}", e),
    }
    Ok(())
}

fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

#[test]
fn the_unedited_encoding_round_trips() {
    let summary = Summary::from_bytes(pr7_bytes()).expect("a real encoding decodes");
    assert_eq!(summary.to_bytes(), pr7_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Short random byte strings, half of them led by the wire version so
    /// the decoder gets past its first check.
    #[test]
    fn arbitrary_bytes_never_panic(
        versioned in 0u8..2,
        tail in proptest::collection::vec(byte(), 0..48),
    ) {
        let mut bytes = vec![1; versioned as usize];
        bytes.extend(tail);
        decodes_stably(&bytes)?;
    }

    /// One byte of the real encoding overwritten.
    #[test]
    fn single_byte_edits_never_panic(at in 0..pr7_bytes().len(), b in byte()) {
        let mut bytes = pr7_bytes().to_vec();
        bytes[at] = b;
        decodes_stably(&bytes)?;
    }

    /// The real encoding cut short.
    #[test]
    fn truncations_never_panic(len in 0..pr7_bytes().len()) {
        decodes_stably(&pr7_bytes()[..len])?;
    }
}
