//! Textual syntax for extended tree patterns.
//!
//! Grammar (whitespace insignificant between tokens):
//!
//! ```text
//! pattern  := node
//! node     := label attrs? pred? children?
//! label    := NAME | '*'
//! attrs    := '{' attr (',' attr)* '}'        attr := id | l | v | c | ret
//! pred     := '[' or ']'
//! or       := and ('or' and)*
//! and      := atom ('and' atom)*
//! atom     := 'v' op const | '(' or ')'
//! op       := '=' | '!=' | '<' | '<=' | '>' | '>='
//! const    := INT | '"' chars '"'
//! children := '(' edge (',' edge)* ')'
//! edge     := ('?'|'%')* ('//'|'/')? node     # '?' optional, '%' nested,
//!                                             # default axis '/'
//! ```
//!
//! The parser recurses once per `children` level and once per predicate
//! parenthesis; both are refused beyond [`MAX_NESTING`] levels, so no
//! input can exhaust the stack.
//!
//! Example — the paper's view `V1` (Figure 1c): `regions` descendant `*`
//! storing `ID`, child chain `description/parlist` with a nested optional
//! `listitem` storing `C`, and an optional `bold` storing `V`:
//!
//! ```text
//! regions(//*{id}(/description(/parlist(?%/listitem{c})), ?//bold{v}))
//! ```

use crate::ast::{Attrs, Axis, PNodeId, Pattern};
use crate::formula::Formula;
use smv_xml::{Label, Value};

/// A pattern-syntax error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternParseError {
    /// Byte offset of the error.
    pub position: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for PatternParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pattern syntax error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for PatternParseError {}

/// Deepest nesting accepted, of pattern levels and of predicate
/// parentheses alike (the bound `smv-store`'s decoders use): the parser
/// and everything that later walks a pattern recurse per level.
pub const MAX_NESTING: usize = 64;

/// Parses the textual pattern syntax.
pub fn parse_pattern(input: &str) -> Result<Pattern, PatternParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let pat = p.parse_root()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return p.err("trailing input after pattern");
    }
    Ok(pat)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Open `(`s — pattern levels plus predicate parentheses — above the
    /// current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, PatternParseError> {
        Err(PatternParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Eats a `(` if one is next, refusing it beyond [`MAX_NESTING`].
    fn open_paren(&mut self) -> Result<bool, PatternParseError> {
        if self.peek() != Some(b'(') {
            return Ok(false);
        }
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(true)
    }

    fn close_paren(&mut self) -> Result<(), PatternParseError> {
        self.expect(")")?;
        self.depth -= 1;
        Ok(())
    }

    fn expect(&mut self, s: &str) -> Result<(), PatternParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    fn parse_name(&mut self) -> Result<String, PatternParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'@')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a label name or `*`");
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .unwrap()
            .to_owned())
    }

    fn parse_root(&mut self) -> Result<Pattern, PatternParseError> {
        // allow a leading '/' before the root label
        self.eat("/");
        let label = self.parse_label()?;
        let mut p = Pattern::new(label);
        self.parse_decorations(&mut p, PNodeId::ROOT)?;
        self.parse_children(&mut p, PNodeId::ROOT)?;
        Ok(p)
    }

    fn parse_label(&mut self) -> Result<Option<Label>, PatternParseError> {
        self.skip_ws();
        if self.eat("*") {
            Ok(None)
        } else {
            Ok(Some(Label::intern(&self.parse_name()?)))
        }
    }

    fn parse_decorations(&mut self, p: &mut Pattern, n: PNodeId) -> Result<(), PatternParseError> {
        self.skip_ws();
        if self.eat("{") {
            let mut attrs = Attrs::NONE;
            let mut ret = false;
            loop {
                self.skip_ws();
                let name = self.parse_name()?;
                match name.as_str() {
                    "id" | "ID" => attrs.id = true,
                    "l" | "L" => attrs.label = true,
                    "v" | "V" => attrs.value = true,
                    "c" | "C" => attrs.content = true,
                    "ret" => ret = true,
                    other => return self.err(format!("unknown attribute `{other}`")),
                }
                self.skip_ws();
                if self.eat(",") {
                    continue;
                }
                self.expect("}")?;
                break;
            }
            p.node_mut(n).attrs = attrs;
            p.node_mut(n).ret = ret;
        }
        self.skip_ws();
        if self.eat("[") {
            let f = self.parse_or()?;
            self.skip_ws();
            self.expect("]")?;
            p.node_mut(n).predicate = f;
        }
        Ok(())
    }

    fn parse_or(&mut self) -> Result<Formula, PatternParseError> {
        let mut f = self.parse_and()?;
        loop {
            self.skip_ws();
            if self.eat("or") {
                let g = self.parse_and()?;
                f = f.or(&g);
            } else {
                return Ok(f);
            }
        }
    }

    fn parse_and(&mut self) -> Result<Formula, PatternParseError> {
        let mut f = self.parse_atom()?;
        loop {
            self.skip_ws();
            if self.eat("and") {
                let g = self.parse_atom()?;
                f = f.and(&g);
            } else {
                return Ok(f);
            }
        }
    }

    fn parse_atom(&mut self) -> Result<Formula, PatternParseError> {
        self.skip_ws();
        if self.open_paren()? {
            let f = self.parse_or()?;
            self.skip_ws();
            self.close_paren()?;
            return Ok(f);
        }
        self.expect("v")?;
        self.skip_ws();
        // order matters: multi-char operators first
        let op = if self.eat("!=") {
            "!="
        } else if self.eat("<=") {
            "<="
        } else if self.eat(">=") {
            ">="
        } else if self.eat("=") {
            "="
        } else if self.eat("<") {
            "<"
        } else if self.eat(">") {
            ">"
        } else {
            return self.err("expected a comparison operator");
        };
        self.skip_ws();
        let c = self.parse_const()?;
        Ok(match op {
            "=" => Formula::eq(c),
            "!=" => Formula::ne(c),
            "<" => Formula::lt(c),
            "<=" => Formula::le(c),
            ">" => Formula::gt(c),
            ">=" => Formula::ge(c),
            _ => unreachable!(),
        })
    }

    fn parse_const(&mut self) -> Result<Value, PatternParseError> {
        self.skip_ws();
        if self.eat("\"") {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"') | None) {
                self.pos += 1;
            }
            if self.peek().is_none() {
                return self.err("unterminated string constant");
            }
            let s = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
            self.pos += 1;
            return Ok(Value::Str(s.into()));
        }
        let start = self.pos;
        if matches!(self.peek(), Some(b'-')) {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected an integer or quoted string constant");
        }
        let txt = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
        txt.parse::<i64>()
            .map(Value::Int)
            .map_err(|_| PatternParseError {
                position: start,
                message: format!("invalid integer `{txt}`"),
            })
    }

    fn parse_children(
        &mut self,
        p: &mut Pattern,
        parent: PNodeId,
    ) -> Result<(), PatternParseError> {
        self.skip_ws();
        if !self.open_paren()? {
            return Ok(());
        }
        loop {
            self.skip_ws();
            let mut optional = false;
            let mut nested = false;
            loop {
                if self.eat("?") {
                    optional = true;
                } else if self.eat("%") {
                    nested = true;
                } else {
                    break;
                }
                self.skip_ws();
            }
            let axis = if self.eat("//") {
                Axis::Descendant
            } else {
                self.eat("/");
                Axis::Child
            };
            let label = self.parse_label()?;
            let child = p.add_child(parent, axis, label);
            p.node_mut(child).optional = optional;
            p.node_mut(child).nested = nested;
            self.parse_decorations(p, child)?;
            self.parse_children(p, child)?;
            self.skip_ws();
            if self.eat(",") {
                continue;
            }
            return self.close_paren();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_view_v1() {
        let p =
            parse_pattern("regions(//*{id}(/description(/parlist(?%/listitem{c})), ?//bold{v}))")
                .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.arity(), 3);
        let li = p
            .iter()
            .find(|&n| p.node(n).label.map(|l| l.as_str()) == Some("listitem"))
            .unwrap();
        assert!(p.node(li).optional);
        assert!(p.node(li).nested);
        assert!(p.node(li).attrs.content);
    }

    #[test]
    fn display_parse_round_trip() {
        for src in [
            "a",
            "a(/b, //c)",
            "a(//*{id,v}(?/b{ret}))",
            "item{id}(?%//listitem{c}, /name{v})",
            "a(/b[v=3], /c[v>2 and v<5])",
            "a(/b[v<1 or v>9])",
            r#"a(/b[v="pen"])"#,
        ] {
            let p = parse_pattern(src).unwrap();
            let rendered = p.to_string();
            let p2 = parse_pattern(&rendered).unwrap();
            assert_eq!(p2.to_string(), rendered, "round trip of `{src}`");
        }
    }

    #[test]
    fn leading_slash_and_whitespace() {
        let p = parse_pattern("/ a ( / b , // c { ret } )").unwrap();
        assert_eq!(p.to_string(), "a(/b, //c{ret})");
    }

    #[test]
    fn wildcard_nodes() {
        let p = parse_pattern("*(//*{ret})").unwrap();
        assert_eq!(p.node(p.root()).label, None);
        assert_eq!(p.arity(), 1);
    }

    #[test]
    fn predicate_precedence_and_parens() {
        let p = parse_pattern("a(/b[v=1 or v=2 and v<10])").unwrap();
        let b = PNodeId(1);
        // and binds tighter: v=1 ∨ (v=2 ∧ v<10) accepts 1 and 2
        assert!(p.node(b).predicate.accepts(&Value::int(1)));
        assert!(p.node(b).predicate.accepts(&Value::int(2)));
        assert!(!p.node(b).predicate.accepts(&Value::int(3)));
        let q = parse_pattern("a(/b[(v=1 or v=2) and v<2])").unwrap();
        assert!(q.node(b).predicate.accepts(&Value::int(1)));
        assert!(!q.node(b).predicate.accepts(&Value::int(2)));
    }

    #[test]
    fn error_positions_and_messages() {
        assert!(parse_pattern("a(/b").is_err());
        assert!(parse_pattern("a{zz}").is_err());
        assert!(parse_pattern("a[v ~ 3]").is_err());
        assert!(parse_pattern("a(/b) trailing").is_err());
        assert!(parse_pattern("").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_the_stack() {
        let chain = |levels: usize| format!("a{}{}", "(/b".repeat(levels), ")".repeat(levels));
        assert!(parse_pattern(&chain(MAX_NESTING)).is_ok());
        let e = parse_pattern(&chain(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(e.position, 1 + 3 * MAX_NESTING, "at the refused `(`");
        // depths that used to overflow the stack
        assert!(parse_pattern(&"a(/b".repeat(60_000)).is_err());
        let parens = |levels: usize| {
            format!(
                "a(/b{{v}}[{}v>1{}])",
                "(".repeat(levels),
                ")".repeat(levels)
            )
        };
        assert!(parse_pattern(&parens(MAX_NESTING - 1)).is_ok());
        assert!(parse_pattern(&parens(MAX_NESTING)).is_err());
        assert!(parse_pattern(&parens(30_000)).is_err());
        // siblings do not nest
        let wide = format!("a({})", vec!["/b(/c)"; 500].join(", "));
        assert!(parse_pattern(&wide).is_ok());
    }

    #[test]
    fn negative_integer_constants() {
        let p = parse_pattern("a(/b[v>=-5])").unwrap();
        assert!(p.node(PNodeId(1)).predicate.accepts(&Value::int(-5)));
        assert!(!p.node(PNodeId(1)).predicate.accepts(&Value::int(-6)));
    }
}
