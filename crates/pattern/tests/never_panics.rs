//! The pattern parser on hostile input: every string is an `Ok` or an
//! `Err` — never a panic, a hang or a stack overflow — and every `Ok`
//! survives `canonical_form` → `parse_pattern` unchanged (the text the
//! service caches plans under must name the pattern it was made from).

use proptest::prelude::*;
use smv_pattern::{canonical_form, parse_pattern};

/// `Ok` must round-trip; `Err` is an answer.
fn check(input: &str) -> Result<(), TestCaseError> {
    let Ok(p) = parse_pattern(input) else {
        return Ok(());
    };
    let canon = canonical_form(&p);
    let again = parse_pattern(&canon);
    prop_assert!(
        again.is_ok(),
        "`{input}` parses, its canonical form `{canon}` does not: {again:?}"
    );
    prop_assert_eq!(
        canonical_form(&again.unwrap()),
        canon,
        "canonical form of `{}` is not a fixpoint",
        input
    );
    Ok(())
}

/// The benchmark's query pool and ad-hoc templates
/// (`smvbench/src/workloads.rs`), `@` filled in the way its generator
/// fills it; the last four reach the productions those leave out (string
/// constants, `or`, parentheses, optional and nested edges, `*`, `ret`).
const TEXTS: [&str; 23] = [
    "site(/open_auctions(/open_auction{id}(/initial{v})))",
    "site(/open_auctions(/open_auction{id}(/current{v})))",
    "site(/people(/person{id}(/name{v})))",
    "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
    "site(/people(/person{id}(/emailaddress{v})))",
    "site(/closed_auctions(/closed_auction{id}(/price{v}[v>400])))",
    "site(/regions(/asia(/item{id}(/name{v}))))",
    "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v})))",
    "site(//name{id,v})",
    "site(//item{id}(/name{id,v}))",
    "site(//quantity{id,v})",
    "site(/open_auctions(/open_auction{id}(/initial{v}[v>12 and v<100007])))",
    "site(/open_auctions(/open_auction{id}(/current{v}[v>12 and v<100007])))",
    "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}[v>12 and v<100007]))))",
    "site(/closed_auctions(/closed_auction{id}(/price{v}[v>12 and v<100007])))",
    "site(/open_auctions(/open_auction{id}(/initial{v}[v>12 and v<100007], /current{v})))",
    "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v}[v>12 and v<100007])))",
    "site(//quantity{id,v}[v>3 and v<100007])",
    "site(//quantity{v}[v>3 and v<100007])",
    r#"site(//item{id}(/location{v}[v="United States" or v="pen"]))"#,
    "site(//*{id,l}(?%/listitem{c}, ?//bold{ret}))",
    "site(/people(/person{id}(/age{v}[(v<18 or v>=65) and v!=-1])))",
    "/ site ( // name { id , v } [ v >= \"a\" and v < \"n\" ] )",
];

/// What the grammar is made of, plus what it is not.
const TOKENS: [&str; 40] = [
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    "/",
    "//",
    "?",
    "%",
    "*",
    "site",
    "item",
    "a",
    "b-c",
    "x_1",
    "@k",
    "id",
    "l",
    "v",
    "c",
    "ret",
    "=",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "and",
    "or",
    "0",
    "-7",
    "9223372036854775807",
    "99999999999999999999",
    "\"pen\"",
    "\"a\\b\"",
    "\"",
    " ",
    "é\u{0}\t",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Token soup: grammar pieces in any order, so the fuzz gets past the
    /// first character of every production.
    #[test]
    fn token_sequences_parse_or_fail(
        tokens in proptest::collection::vec(0usize..TOKENS.len(), 0..40),
    ) {
        let input: String = tokens.into_iter().map(|t| TOKENS[t]).collect();
        check(&input)?;
    }

    /// Arbitrary Unicode scalar values.
    #[test]
    fn arbitrary_strings_parse_or_fail(
        chars in proptest::collection::vec(0u32..0x11_0000, 0..60),
    ) {
        let input: String = chars.into_iter().filter_map(char::from_u32).collect();
        check(&input)?;
    }

    /// Arbitrary bytes, forced to UTF-8 the way a network front end would.
    #[test]
    fn arbitrary_bytes_parse_or_fail(
        bytes in proptest::collection::vec(0u16..256, 0..120),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// One character changed, dropped or inserted anywhere in a text the
    /// benchmark serves — the typos a real client sends.
    #[test]
    fn single_character_edits_parse_or_fail(
        which in 0usize..TEXTS.len(),
        at in 0usize..1 << 16,
        with in 0usize..TOKENS.len() + 96,
        edit in 0u8..3,
    ) {
        let mut chars: Vec<char> = TEXTS[which].chars().collect();
        // printable ASCII, or the first character of a token
        let with = match with.checked_sub(96) {
            None => (b' ' + with as u8) as char,
            Some(t) => TOKENS[t].chars().next().expect("tokens are non-empty"),
        };
        let i = at % chars.len();
        match edit {
            0 => chars[i] = with,
            1 => { chars.remove(i); }
            _ => chars.insert(i, with),
        }
        check(&chars.into_iter().collect::<String>())?;
    }
}

/// The unedited texts are patterns, so the edit test starts from `Ok`s.
#[test]
fn benchmark_texts_parse() {
    for text in TEXTS {
        let p = parse_pattern(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let canon = canonical_form(&p);
        assert_eq!(canonical_form(&parse_pattern(&canon).unwrap()), canon);
    }
}
