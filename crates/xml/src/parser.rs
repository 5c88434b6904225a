//! A from-scratch XML parser for data-oriented documents.
//!
//! Supports elements, attributes (modeled as `@name` child nodes carrying a
//! value), character data with the five predefined entities plus numeric
//! character references, CDATA sections, comments, processing instructions,
//! and a skipped DOCTYPE. This covers all documents the benchmark
//! generators and the paper's examples produce; full XML (namespaces, DTD
//! entity expansion, …) is out of scope and rejected gracefully.
//!
//! Elements nest at most [`MAX_DEPTH`] deep: the parser recurses once per
//! level, and so do the summary, the ID schemes and materialization above
//! it, so a deeper document is refused here, with an error, instead of
//! overflowing a stack further up.

use crate::fasthash::FastHasher;
use crate::label::Label;
use crate::tree::{Document, TreeBuilder};
use crate::value::Value;
use std::borrow::Cow;
use std::hash::Hasher;

/// A parse failure with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest element nesting [`parse_document`] accepts (the root is level
/// 1). Data-oriented XML is shallow — XMark documents are 12 levels deep
/// — and a document at this depth still goes through parsing, the
/// summary and materialization on a 2 MB thread stack.
pub const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Elements open around `pos`.
    depth: usize,
    builder: TreeBuilder,
    /// The text run since the last tag: character data and CDATA, decoded.
    text_buf: String,
    labels: LabelCache<'a>,
}

/// Parses an XML document into a [`Document`].
///
/// Names are read as slices of the input and resolved through a per-parse
/// label cache; text without `&` is borrowed rather than decoded into a
/// string of its own, and an element's runs become its value once, when
/// it closes.
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
        builder: TreeBuilder::new(),
        text_buf: String::new(),
        labels: LabelCache::new(),
    };
    p.parse()?;
    Ok(p.builder.finish())
}

/// Slots in a [`LabelCache`]; a power of two.
const LABEL_SLOTS: usize = 1024;

/// The labels one parse has resolved, in front of [`Label::intern`]'s
/// process-wide lock: a direct-mapped table keyed by the name as it
/// appears in the input, plus whether it names an attribute. Names are
/// input, so the table is bounded: names that collide evict each other
/// and go back to the interner, whatever the document holds.
struct LabelCache<'a> {
    slots: Vec<Option<(&'a str, bool, Label)>>,
    /// `@name` for an attribute's miss.
    scratch: String,
}

impl<'a> LabelCache<'a> {
    fn new() -> LabelCache<'a> {
        LabelCache {
            slots: vec![None; LABEL_SLOTS],
            scratch: String::new(),
        }
    }

    /// The label of element `name`, or of attribute `name` (`@name`).
    fn get(&mut self, name: &'a str, attribute: bool) -> Label {
        let mut h = FastHasher::default();
        h.write(name.as_bytes());
        h.write_u8(attribute as u8);
        // the last multiply mixes every input bit into the top ones
        let slot = &mut self.slots[(h.finish() >> (64 - LABEL_SLOTS.trailing_zeros())) as usize];
        match *slot {
            Some((n, a, label)) if n == name && a == attribute => label,
            _ => {
                let label = if attribute {
                    self.scratch.clear();
                    self.scratch.push('@');
                    self.scratch.push_str(name);
                    Label::intern(&self.scratch)
                } else {
                    Label::intern(name)
                };
                *slot = Some((name, attribute, label));
                label
            }
        }
    }
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    fn skip_until(&mut self, s: &str) -> Result<(), ParseError> {
        match self.input[self.pos..]
            .windows(s.len())
            .position(|w| w == s.as_bytes())
        {
            Some(i) => {
                self.pos += i + s.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct, `{s}` not found")),
        }
    }

    fn parse(&mut self) -> Result<(), ParseError> {
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return self.err("expected root element");
        }
        self.parse_element()?;
        self.skip_misc()?;
        if self.pos != self.input.len() {
            return self.err("trailing content after root element");
        }
        Ok(())
    }

    /// Skips whitespace, comments, PIs, XML declaration and DOCTYPE.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // skip to the matching '>' handling one level of [ ... ]
                let mut depth = 0usize;
                while let Some(b) = self.peek() {
                    self.pos += 1;
                    match b {
                        b'[' => depth += 1,
                        b']' => depth = depth.saturating_sub(1),
                        b'>' if depth == 0 => break,
                        _ => {}
                    }
                }
            } else {
                return Ok(());
            }
        }
    }

    /// The name at `pos`, as a slice of the input.
    fn read_name(&mut self) -> Result<&'a str, ParseError> {
        let input = self.input;
        let start = self.pos;
        self.pos += input[start..]
            .iter()
            .position(|&b| !(b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':')))
            .unwrap_or(input.len() - start);
        if self.pos == start {
            return self.err("expected a name");
        }
        std::str::from_utf8(&input[start..self.pos]).map_err(|_| ParseError {
            position: start,
            message: "invalid UTF-8 in name".into(),
        })
    }

    /// Ends the text run: its trimmed text joins the open element's value.
    fn flush_text(&mut self) {
        // whitespace-only runs between elements are formatting, not data
        let run = self.text_buf.trim();
        if !run.is_empty() {
            self.builder.append_text(run);
        }
        self.text_buf.clear();
    }

    fn parse_element(&mut self) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("elements nested deeper than {MAX_DEPTH} levels"));
        }
        self.expect("<")?;
        let name = self.read_name()?;
        self.builder.open(self.labels.get(name, false));
        self.depth += 1;
        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    self.builder.close();
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    let attr = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => {
                            self.pos += 1;
                            q
                        }
                        _ => return self.err("expected quoted attribute value"),
                    };
                    let start = self.pos;
                    match self.input[start..].iter().position(|&b| b == quote) {
                        Some(len) => self.pos += len,
                        None => {
                            self.pos = self.input.len();
                            return self.err("unterminated attribute value");
                        }
                    }
                    let raw = std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| {
                        ParseError {
                            position: start,
                            message: "invalid UTF-8 in attribute".into(),
                        }
                    })?;
                    let decoded = decode_entities(raw, start)?;
                    self.pos += 1; // closing quote
                    let label = self.labels.get(attr, true);
                    self.builder.leaf(label, Some(Value::from_text(&decoded)));
                }
            }
        }
        // content
        loop {
            if self.starts_with("</") {
                self.flush_text();
                self.pos += 2;
                let close = self.read_name()?;
                if close != name {
                    return self.err(format!("mismatched close tag `{close}` for `{name}`"));
                }
                self.skip_ws();
                self.expect(">")?;
                self.builder.close();
                self.depth -= 1;
                return Ok(());
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let start = self.pos;
                self.skip_until("]]>")?;
                let text = std::str::from_utf8(&self.input[start..self.pos - 3]).map_err(|_| {
                    ParseError {
                        position: start,
                        message: "invalid UTF-8 in CDATA".into(),
                    }
                })?;
                self.text_buf.push_str(text);
            } else if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.peek() == Some(b'<') {
                self.flush_text();
                self.parse_element()?;
            } else if self.peek().is_none() {
                return self.err(format!("unexpected end of input inside `{name}`"));
            } else {
                let start = self.pos;
                self.pos += self.input[start..]
                    .iter()
                    .position(|&b| b == b'<')
                    .unwrap_or(self.input.len() - start);
                let raw =
                    std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| ParseError {
                        position: start,
                        message: "invalid UTF-8 in text".into(),
                    })?;
                let decoded = decode_entities(raw, start)?;
                self.text_buf.push_str(&decoded);
            }
        }
    }
}

/// Decodes the predefined entities and numeric character references,
/// borrowing `raw` when it has none. `base` is the byte offset of `raw` in
/// the whole input; errors point at the `&` of the offending reference,
/// not at the start of the text run.
fn decode_entities(raw: &str, base: usize) -> Result<Cow<'_, str>, ParseError> {
    if !raw.contains('&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let at = base + raw.len() - rest.len(); // offset of this `&`
        let semi = rest.find(';').ok_or_else(|| ParseError {
            position: at,
            message: "unterminated entity reference".into(),
        })?;
        let ent = &rest[1..semi];
        match ent {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16).map_err(|_| ParseError {
                    position: at,
                    message: format!("bad character reference `&{ent};`"),
                })?;
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..].parse().map_err(|_| ParseError {
                    position: at,
                    message: format!("bad character reference `&{ent};`"),
                })?;
                out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
            }
            _ => {
                return Err(ParseError {
                    position: at,
                    message: format!("unknown entity `&{ent};`"),
                })
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::NodeId;

    #[test]
    fn parses_simple_document() {
        let d = parse_document("<a><b>1</b><c><d>2</d></c></a>").unwrap();
        assert_eq!(d.len(), 4);
        assert_eq!(d.label(NodeId(0)).as_str(), "a");
        assert_eq!(d.value(NodeId(1)), Some(&Value::Int(1)));
        assert_eq!(d.value(NodeId(3)), Some(&Value::Int(2)));
    }

    #[test]
    fn attributes_become_at_children() {
        let d = parse_document(r#"<item id="7" featured="yes"><name>pen</name></item>"#).unwrap();
        let kids: Vec<&str> = d
            .children(d.root())
            .iter()
            .map(|&c| d.label(c).as_str())
            .collect();
        assert_eq!(kids, vec!["@id", "@featured", "name"]);
        assert_eq!(d.value(NodeId(1)), Some(&Value::Int(7)));
        assert_eq!(d.value(NodeId(2)), Some(&Value::str("yes")));
    }

    #[test]
    fn entities_and_charrefs() {
        let d = parse_document("<t>&lt;a&gt; &amp; &#65;&#x42;</t>").unwrap();
        assert_eq!(d.value(d.root()), Some(&Value::str("<a> & AB")));
    }

    #[test]
    fn entity_errors_point_at_the_offending_ampersand() {
        // a valid reference precedes the bad one: the position must be the
        // second `&`, not the start of the text run
        let src = "<t>&amp; &zz;</t>";
        let e = parse_document(src).unwrap_err();
        assert_eq!(e.position, src.find("&zz;").unwrap(), "{e}");
        // same inside attribute values
        let src = r#"<t a="x&lt;y &#bad; z"/>"#;
        let e = parse_document(src).unwrap_err();
        assert_eq!(e.position, src.find("&#bad;").unwrap(), "{e}");
        // unterminated reference after a decoded one
        let src = "<t>&gt; &broken</t>";
        let e = parse_document(src).unwrap_err();
        assert_eq!(e.position, src.find("&broken").unwrap(), "{e}");
    }

    #[test]
    fn cdata_comments_pis_doctype() {
        let d = parse_document(
            "<?xml version=\"1.0\"?><!DOCTYPE site [<!ELEMENT a (b)>]>\n<a><!-- c --><![CDATA[x<y]]><?pi data?><b/></a>",
        )
        .unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.value(d.root()), Some(&Value::str("x<y")));
    }

    #[test]
    fn self_closing_and_whitespace() {
        let d = parse_document("<a>\n  <b/>\n  <c></c>\n</a>").unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.value(d.root()), None);
    }

    #[test]
    fn mixed_content_is_one_value_parsed_at_close() {
        // parsed run by run, "007" would become 7 before "x" joined it
        let d = parse_document("<a>007<b/>x</a>").unwrap();
        assert_eq!(d.value(d.root()), Some(&Value::str("007x")));
        let d = parse_document("<a> 1 <b>2</b> 2 </a>").unwrap();
        assert_eq!(d.value(d.root()), Some(&Value::Int(12)));
        assert_eq!(d.value(NodeId(1)), Some(&Value::Int(2)));
        // runs split by comments and CDATA are one run, trimmed as a whole
        let d = parse_document("<a> x<!-- c --> <![CDATA[ y ]]> </a>").unwrap();
        assert_eq!(d.value(d.root()), Some(&Value::str("x  y")));
    }

    #[test]
    fn many_runs_in_one_element_are_joined_once() {
        let runs = 50_000;
        let src = format!("<a>{}</a>", "xy<b/>".repeat(runs));
        let d = parse_document(&src).unwrap();
        assert_eq!(d.len(), runs + 1);
        assert_eq!(d.value(d.root()), Some(&Value::str(&"xy".repeat(runs))));
        assert!(d.children(d.root()).iter().all(|&b| d.value(b).is_none()));
    }

    #[test]
    fn names_resolve_to_interned_labels() {
        let d = parse_document(r#"<r a="1"><r a="2"/><s-t.u:v/></r>"#).unwrap();
        let labels: Vec<Label> = d.iter().map(|n| d.label(n)).collect();
        let want = ["r", "@a", "r", "@a", "s-t.u:v"].map(Label::intern);
        assert_eq!(labels, want);
    }

    #[test]
    fn mismatched_tags_error() {
        let e = parse_document("<a><b></c></a>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
    }

    #[test]
    fn trailing_garbage_error() {
        assert!(parse_document("<a/><b/>").is_err());
    }

    /// `<a>` `depth` times, closed.
    fn nested(depth: usize) -> String {
        "<a>".repeat(depth) + &"</a>".repeat(depth)
    }

    #[test]
    fn nesting_is_refused_beyond_the_cap_at_the_refused_tag() {
        let d = parse_document(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(d.len(), MAX_DEPTH);
        let e = parse_document(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.position, 3 * MAX_DEPTH, "at the refused `<`: {e}");
        // self-closing at the cap counts too
        let src = "<a>".repeat(MAX_DEPTH - 1) + "<b/>" + &"</a>".repeat(MAX_DEPTH - 1);
        assert!(parse_document(&src).is_ok());
        let src = "<a>".repeat(MAX_DEPTH) + "<b/>" + &"</a>".repeat(MAX_DEPTH);
        assert!(parse_document(&src).is_err());
        // far deeper input fails the same way, without recursing into it
        assert!(parse_document(&nested(200_000)).is_err());
    }

    #[test]
    fn unterminated_error_positions() {
        let e = parse_document("<a><b>").unwrap_err();
        assert!(e.position > 0);
    }
}
