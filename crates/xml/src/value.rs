//! Atomic values.
//!
//! The paper assumes a totally ordered, enumerable domain `A` of atomic
//! values (§4.2). We model it as the disjoint union of 64-bit integers and
//! strings, with all integers ordering before all strings; integers order
//! numerically and strings lexicographically. Numeric-looking text parses
//! to the integer variant so that value predicates like `v > 3` behave the
//! way the paper's examples (Fig. 2, Fig. 9) expect.

use std::cmp::Ordering;
use std::sync::Arc;

/// An atomic XML value: the content of a text node / attribute.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer value (numeric text content).
    Int(i64),
    /// A string value, shared: a clone bumps a reference count, so every
    /// cell that copies it (and every cell a segment decodes from one
    /// dictionary slot) points at one allocation.
    Str(Arc<str>),
}

impl Value {
    /// Parses text into a value: integers when the whole trimmed text is a
    /// valid `i64`, strings otherwise.
    pub fn from_text(text: &str) -> Value {
        let t = text.trim();
        match t.parse::<i64>() {
            Ok(i) => Value::Int(i),
            Err(_) => Value::Str(text.into()),
        }
    }

    /// Convenience constructor for integer values.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// Convenience constructor for string values.
    pub fn str(s: &str) -> Value {
        Value::Str(s.into())
    }

    /// Renders the value back to text.
    pub fn as_text(&self) -> String {
        match self {
            Value::Int(i) => i.to_string(),
            Value::Str(s) => s.to_string(),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Int(_), Value::Str(_)) => Ordering::Less,
            (Value::Str(_), Value::Int(_)) => Ordering::Greater,
        }
    }
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.as_text())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::from_text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_text_parses_to_int() {
        assert_eq!(Value::from_text("42"), Value::Int(42));
        assert_eq!(Value::from_text("  -7 "), Value::Int(-7));
        assert_eq!(Value::from_text("4.2"), Value::Str("4.2".into()));
        assert_eq!(Value::from_text("pen"), Value::Str("pen".into()));
    }

    #[test]
    fn total_order_ints_before_strings() {
        assert!(Value::int(999) < Value::str("a"));
        assert!(Value::int(1) < Value::int(2));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::str("") > Value::int(i64::MAX));
    }

    #[test]
    fn round_trip_text() {
        for t in ["42", "hello", "-5"] {
            let v = Value::from_text(t);
            assert_eq!(v.as_text(), t);
        }
    }
}
