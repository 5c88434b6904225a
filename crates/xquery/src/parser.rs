//! Recursive-descent parser for the FLWR subset.
//!
//! The parser recurses once per `[` predicate and once per nested `for`;
//! together they are refused beyond [`MAX_NESTING`] levels, so no input
//! can exhaust the stack.

use smv_pattern::parser::MAX_NESTING;
use smv_pattern::{Axis, Formula};
use smv_xml::Value;

/// A parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XqError {
    /// Byte offset.
    pub position: usize,
    /// Message.
    pub message: String,
}

impl std::fmt::Display for XqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XQuery syntax error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for XqError {}

/// One path step with its predicates.
#[derive(Debug, Clone)]
pub struct Step {
    /// `/` or `//`.
    pub axis: Axis,
    /// `None` = `*`.
    pub label: Option<String>,
    /// `[path]` / `[path cmp c]` predicates.
    pub predicates: Vec<Predicate>,
}

/// A step predicate.
#[derive(Debug, Clone)]
pub struct Predicate {
    /// The tested path (relative).
    pub path: Vec<Step>,
    /// Optional value comparison on the final node.
    pub formula: Option<Formula>,
}

/// A relative path expression.
#[derive(Debug, Clone, Default)]
pub struct PathExpr {
    /// The steps.
    pub steps: Vec<Step>,
    /// Trailing `/text()`.
    pub text: bool,
}

/// A returned expression.
#[derive(Debug, Clone)]
pub enum RetExpr {
    /// `$var path (/text())?`
    Path {
        /// The variable.
        var: String,
        /// Relative path from it.
        path: PathExpr,
    },
    /// A nested FLWR.
    Nested(Box<Flwr>),
}

/// A FLWR block.
#[derive(Debug, Clone)]
pub struct Flwr {
    /// Bound variable name.
    pub var: String,
    /// `None` when bound from `doc(...)`, `Some(v)` when bound from `$v`.
    pub source_var: Option<String>,
    /// Binding path.
    pub path: Vec<Step>,
    /// `where` clause as a predicate on the bound variable.
    pub where_pred: Option<Predicate>,
    /// Name of the constructed element (`None` = bare sequence).
    pub element: Option<String>,
    /// Returned expressions.
    pub returns: Vec<RetExpr>,
}

/// Parses a FLWR query.
pub fn parse_xquery(input: &str) -> Result<Flwr, XqError> {
    let mut p = P {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let f = p.parse_flwr()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return p.err("trailing input");
    }
    Ok(f)
}

struct P<'a> {
    input: &'a [u8],
    pos: usize,
    /// Open `[` predicates and nested `for`s above the current position.
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, m: impl Into<String>) -> Result<T, XqError> {
        Err(XqError {
            position: self.pos,
            message: m.into(),
        })
    }

    /// Opens one nesting level at the current position, refusing it
    /// beyond [`MAX_NESTING`].
    fn descend(&mut self) -> Result<(), XqError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    fn skip_ws(&mut self) {
        while matches!(self.input.get(self.pos), Some(b) if b.is_ascii_whitespace()) {
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

    fn eat_kw(&mut self, s: &str) -> bool {
        self.skip_ws();
        self.eat(s)
    }

    fn expect(&mut self, s: &str) -> Result<(), XqError> {
        self.skip_ws();
        if self.eat(s) {
            Ok(())
        } else {
            self.err(format!("expected `{s}`"))
        }
    }

    fn name(&mut self) -> Result<String, XqError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.input.get(self.pos), Some(b) if b.is_ascii_alphanumeric() || *b == b'_' || *b == b'-' || *b == b'@')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .unwrap()
            .to_owned())
    }

    fn var(&mut self) -> Result<String, XqError> {
        self.expect("$")?;
        self.name()
    }

    fn parse_flwr(&mut self) -> Result<Flwr, XqError> {
        self.expect("for")?;
        let var = self.var()?;
        self.expect("in")?;
        self.skip_ws();
        let source_var = if self.eat("doc(") {
            self.skip_ws();
            self.expect("\"")?;
            while !matches!(self.input.get(self.pos), Some(b'"') | None) {
                self.pos += 1;
            }
            self.expect("\"")?;
            self.expect(")")?;
            None
        } else {
            Some(self.var()?)
        };
        let path = self.parse_steps()?;
        if path.is_empty() {
            return self.err("a for-binding needs at least one path step");
        }
        let where_pred = if self.eat_kw("where") {
            self.skip_ws();
            if self.eat("$") {
                let v = self.name()?;
                if v != var {
                    return self.err(format!(
                        "where clause must test the bound variable ${var}, got ${v}"
                    ));
                }
            }
            let wp = self.parse_steps()?;
            let formula = self.maybe_cmp()?;
            Some(Predicate { path: wp, formula })
        } else {
            None
        };
        self.expect("return")?;
        self.skip_ws();
        let (element, returns) = if self.eat("<") {
            let tag = self.name()?;
            self.expect(">")?;
            self.expect("{")?;
            let exprs = self.parse_exprs()?;
            self.expect("}")?;
            self.expect("</")?;
            let close = self.name()?;
            if close != tag {
                return self.err(format!("mismatched constructor `{close}`"));
            }
            self.expect(">")?;
            (Some(tag), exprs)
        } else {
            (None, self.parse_exprs()?)
        };
        Ok(Flwr {
            var,
            source_var,
            path,
            where_pred,
            element,
            returns,
        })
    }

    fn parse_exprs(&mut self) -> Result<Vec<RetExpr>, XqError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            if self.input[self.pos..].starts_with(b"for") {
                self.descend()?;
                out.push(RetExpr::Nested(Box::new(self.parse_flwr()?)));
                self.depth -= 1;
            } else {
                let var = self.var()?;
                let steps = self.parse_steps()?;
                let mut text = false;
                if self.eat_kw("/text()") {
                    text = true;
                }
                out.push(RetExpr::Path {
                    var,
                    path: PathExpr { steps, text },
                });
            }
            self.skip_ws();
            if !self.eat(",") {
                return Ok(out);
            }
        }
    }

    fn parse_steps(&mut self) -> Result<Vec<Step>, XqError> {
        let mut steps = Vec::new();
        loop {
            self.skip_ws();
            // stop before `/text()`
            if self.input[self.pos..].starts_with(b"/text()") {
                return Ok(steps);
            }
            let axis = if self.eat("//") {
                Axis::Descendant
            } else if self.eat("/") {
                Axis::Child
            } else {
                return Ok(steps);
            };
            self.skip_ws();
            let label = if self.eat("*") {
                None
            } else {
                Some(self.name()?)
            };
            let mut predicates = Vec::new();
            loop {
                self.skip_ws();
                if self.input.get(self.pos) != Some(&b'[') {
                    break;
                }
                self.descend()?;
                self.pos += 1;
                let path = self.parse_steps()?;
                let formula = self.maybe_cmp()?;
                self.expect("]")?;
                self.depth -= 1;
                predicates.push(Predicate { path, formula });
            }
            steps.push(Step {
                axis,
                label,
                predicates,
            });
        }
    }

    fn maybe_cmp(&mut self) -> Result<Option<Formula>, XqError> {
        self.skip_ws();
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
            return Ok(None);
        };
        self.skip_ws();
        let v = if self.eat("\"") {
            let start = self.pos;
            while !matches!(self.input.get(self.pos), Some(b'"') | None) {
                self.pos += 1;
            }
            let s = std::str::from_utf8(&self.input[start..self.pos])
                .unwrap()
                .to_owned();
            self.expect("\"")?;
            Value::Str(s.into())
        } else {
            let start = self.pos;
            if matches!(self.input.get(self.pos), Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.input.get(self.pos), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == start {
                return self.err("expected a comparison constant");
            }
            Value::Int(
                std::str::from_utf8(&self.input[start..self.pos])
                    .unwrap()
                    .parse()
                    .map_err(|_| XqError {
                        position: start,
                        message: "invalid integer".into(),
                    })?,
            )
        };
        Ok(Some(match op {
            "=" => Formula::eq(v),
            "!=" => Formula::ne(v),
            "<" => Formula::lt(v),
            "<=" => Formula::le(v),
            ">" => Formula::gt(v),
            ">=" => Formula::ge(v),
            _ => unreachable!(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_example() {
        let q = parse_xquery(
            r#"for $x in doc("XMark.xml")//item[//mail] return
               <res>{ $x/name/text(),
                      for $y in $x//listitem return <key>{ $y//keyword }</key> }</res>"#,
        )
        .unwrap();
        assert_eq!(q.var, "x");
        assert!(q.source_var.is_none());
        assert_eq!(q.path.len(), 1);
        assert_eq!(q.path[0].label.as_deref(), Some("item"));
        assert_eq!(q.path[0].predicates.len(), 1);
        assert_eq!(q.element.as_deref(), Some("res"));
        assert_eq!(q.returns.len(), 2);
        match &q.returns[0] {
            RetExpr::Path { var, path } => {
                assert_eq!(var, "x");
                assert!(path.text);
                assert_eq!(path.steps[0].label.as_deref(), Some("name"));
            }
            other => panic!("expected path return, got {other:?}"),
        }
        match &q.returns[1] {
            RetExpr::Nested(inner) => {
                assert_eq!(inner.var, "y");
                assert_eq!(inner.source_var.as_deref(), Some("x"));
                assert_eq!(inner.element.as_deref(), Some("key"));
            }
            other => panic!("expected nested flwr, got {other:?}"),
        }
    }

    #[test]
    fn where_clause_with_comparison() {
        let q = parse_xquery(
            r#"for $a in doc("d")//open_auction where $a/initial > 100 return $a/reserve/text()"#,
        )
        .unwrap();
        let wp = q.where_pred.unwrap();
        assert_eq!(wp.path[0].label.as_deref(), Some("initial"));
        assert!(wp.formula.unwrap().accepts(&Value::int(200)));
    }

    #[test]
    fn value_predicates_in_brackets() {
        let q = parse_xquery(
            r#"for $p in doc("d")/site/people/person[/profile/@income > 50000] return $p/name/text()"#,
        )
        .unwrap();
        let pred = &q.path.last().unwrap().predicates[0];
        assert_eq!(pred.path.len(), 2);
        assert!(pred.formula.is_some());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_xquery("for x in doc()").is_err());
        assert!(parse_xquery(r#"for $x in doc("d")//a return <r>{$x}</s>"#).is_err());
        assert!(parse_xquery(r#"for $x in doc("d") return $x"#).is_err());
    }

    #[test]
    fn nesting_is_bounded_not_the_stack() {
        // `levels` nested `for`s inside the outer one
        let unit = r#"for $x in doc("d")//a return "#;
        let fors = |levels: usize| format!("{}$x", unit.repeat(levels + 1));
        assert!(parse_xquery(&fors(MAX_NESTING)).is_ok());
        let e = parse_xquery(&fors(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            e.position,
            (MAX_NESTING + 1) * unit.len(),
            "at the refused `for`"
        );
        // `levels` nested `[` predicates
        let head = r#"for $x in doc("d")/a"#;
        let preds = |levels: usize| {
            format!(
                "{head}{}{} return $x",
                "[/a".repeat(levels),
                "]".repeat(levels)
            )
        };
        assert!(parse_xquery(&preds(MAX_NESTING)).is_ok());
        let e = parse_xquery(&preds(MAX_NESTING + 1)).unwrap_err();
        assert_eq!(
            e.position,
            head.len() + 3 * MAX_NESTING,
            "at the refused `[`"
        );
        // depths that used to overflow the stack
        assert!(parse_xquery(&fors(100_000)).is_err());
        assert!(parse_xquery(&preds(100_000)).is_err());
        // siblings do not nest
        let wide = format!(
            r#"for $x in doc("d")/a{} return $x"#,
            "[/b[/c]]".repeat(500)
        );
        assert!(parse_xquery(&wide).is_ok());
    }
}
