//! The FLWR parser and its translation on hostile input: every string is
//! an `Ok` or an `Err` from `parse_xquery`, and every parsed query an `Ok`
//! or an `Err` from `translate` — never a panic, a hang or a stack
//! overflow.

use proptest::prelude::*;
use smv_pattern::parser::MAX_NESTING;
use smv_xquery::{parse_xquery, translate};

/// Parse, then translate what parses; an `Ok` pattern is printed, which
/// walks it once per level.
fn check(input: &str) {
    if let Ok(flwr) = parse_xquery(input) {
        if let Ok(p) = translate(&flwr) {
            let _ = p.to_string();
        }
    }
}

/// The crate's own test queries; the last three reach the productions
/// those leave out (`*`, string constants, the other comparisons, a
/// negative constant, a `where` without its variable).
const TEXTS: [&str; 9] = [
    r#"for $x in doc("XMark.xml")//item[//mail] return
       <res>{ $x/name/text(),
              for $y in $x//listitem return <key>{ $y//keyword }</key> }</res>"#,
    r#"for $x in doc("d")//item[/mail] return
       <res>{ $x/name/text(),
              for $y in $x/listitem return <key>{ $y/keyword }</key> }</res>"#,
    r#"for $a in doc("d")//open_auction where $a/initial > 100 return $a/reserve/text()"#,
    r#"for $p in doc("d")/site/people/person[/profile/@income > 50000] return $p/name/text()"#,
    r#"for $x in doc("d")//a return $zz/b/text()"#,
    r#"for $x in doc("d")//item return $x/description"#,
    r#"for $x in doc("d")/*[/name = "pen"][/b != -7] return $x/c/text(), $x//d"#,
    r#"for $x in doc("d")//a where /b <= 3 return for $y in $x/* where $y/c >= "k" return $y"#,
    r#"for $x in doc("d")//a[/b < 1] return <r>{ for $y in $x//b[/c] return $y/text() }</r>"#,
];

/// What the grammar is made of, plus what it is not.
const TOKENS: [&str; 36] = [
    "for ",
    "$x",
    "$y",
    " in ",
    "doc(\"d\")",
    "doc(",
    "\"",
    "/",
    "//",
    "*",
    "a",
    "item",
    "@k",
    "b-c",
    "[",
    "]",
    " where ",
    " return ",
    "<r>",
    "</r>",
    "<",
    ">",
    "{",
    "}",
    ",",
    "/text()",
    "=",
    "!=",
    "<=",
    ">=",
    "0",
    "-7",
    "99999999999999999999",
    "\"pen\"",
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
        check(&input);
    }

    /// Arbitrary Unicode scalar values.
    #[test]
    fn arbitrary_strings_parse_or_fail(
        chars in proptest::collection::vec(0u32..0x11_0000, 0..60),
    ) {
        let input: String = chars.into_iter().filter_map(char::from_u32).collect();
        check(&input);
    }

    /// Arbitrary bytes, forced to UTF-8 the way a network front end would.
    #[test]
    fn arbitrary_bytes_parse_or_fail(
        bytes in proptest::collection::vec(0u16..256, 0..120),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        check(&String::from_utf8_lossy(&bytes));
    }

    /// One byte changed, dropped or inserted anywhere in a test query,
    /// forced back to UTF-8.
    #[test]
    fn single_byte_edits_parse_or_fail(
        which in 0usize..TEXTS.len(),
        at in 0usize..1 << 16,
        with in 0u16..256,
        edit in 0u8..3,
    ) {
        let mut bytes = TEXTS[which].as_bytes().to_vec();
        let i = at % bytes.len();
        match edit {
            0 => bytes[i] = with as u8,
            1 => { bytes.remove(i); }
            _ => bytes.insert(i, with as u8),
        }
        check(&String::from_utf8_lossy(&bytes));
    }
}

/// The unedited texts parse, so the edit test starts from `Ok`s.
#[test]
fn test_queries_parse() {
    for text in TEXTS {
        parse_xquery(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    }
}

/// Nested `for`s, `[` predicates, `where` predicates and child-step
/// chains at the cap and around it, and far beyond it.
#[test]
fn nesting_at_and_around_the_cap_parses_or_fails() {
    let shapes: [&dyn Fn(usize) -> String; 4] = [
        // nested `for`s, each bound under the previous variable
        &|n| {
            let mut s = String::from(r#"for $x0 in doc("d")/a return "#);
            for i in 1..=n {
                s += &format!("for $x{i} in $x{}/a return ", i - 1);
            }
            s + &format!("$x{n}/text()")
        },
        &|n| {
            format!(
                r#"for $x in doc("d")/a{}{} return $x"#,
                "[/a".repeat(n),
                "]".repeat(n)
            )
        },
        &|n| {
            format!(
                r#"for $x in doc("d")/a where $x{} = 1 return $x/text()"#,
                "/a".repeat(n)
            )
        },
        &|n| format!(r#"for $x in doc("d"){} return $x/text()"#, "/a".repeat(n)),
    ];
    for shape in shapes {
        for n in [
            0,
            1,
            MAX_NESTING - 2,
            MAX_NESTING - 1,
            MAX_NESTING,
            MAX_NESTING + 1,
            10_000,
        ] {
            check(&shape(n));
        }
    }
    // at the cap: the nesting parses and translates into a pattern as deep
    // as the cap
    let p = translate(&parse_xquery(&shapes[0](MAX_NESTING - 1)).unwrap()).unwrap();
    assert!(smv_pattern::parse_pattern(&p.to_string()).is_ok());
    assert!(parse_xquery(&shapes[0](MAX_NESTING)).is_ok());
    assert!(translate(&parse_xquery(&shapes[0](MAX_NESTING)).unwrap()).is_err());
    assert!(parse_xquery(&shapes[0](MAX_NESTING + 1)).is_err());
}
