//! Value-predicate formulas (paper §4.2).
//!
//! A pattern node may be decorated with a formula `φ(v)` built from atoms
//! `v θ c` (`θ ∈ {=, ≠, <, ≤, >, ≥}`) with `∧`/`∨`. Over a totally ordered
//! domain every such formula is equivalent to a **finite union of disjoint
//! intervals** — the compact representation the paper suggests — which
//! makes conjunction, disjunction, negation, satisfiability and implication
//! all cheap and exact. `T` is the full interval, `F` the empty union.

use smv_xml::Value;
use std::cmp::Ordering;

/// An endpoint of an interval.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Bound {
    /// Unbounded below.
    NegInf,
    /// Inclusive endpoint.
    Incl(Value),
    /// Exclusive endpoint.
    Excl(Value),
    /// Unbounded above.
    PosInf,
}

/// A non-empty interval of atomic values.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Interval {
    /// Lower endpoint (`NegInf`, `Incl`, or `Excl`).
    pub lo: Bound,
    /// Upper endpoint (`PosInf`, `Incl`, or `Excl`).
    pub hi: Bound,
}

/// Position of a *lower* bound on the number line (earlier = admits more).
fn lo_key(b: &Bound) -> (u8, Option<&Value>, u8) {
    match b {
        Bound::NegInf => (0, None, 0),
        Bound::Incl(v) => (1, Some(v), 0),
        Bound::Excl(v) => (1, Some(v), 1),
        Bound::PosInf => (2, None, 0),
    }
}

/// Position of an *upper* bound (later = admits more).
fn hi_key(b: &Bound) -> (u8, Option<&Value>, u8) {
    match b {
        Bound::NegInf => (0, None, 0),
        Bound::Excl(v) => (1, Some(v), 0),
        Bound::Incl(v) => (1, Some(v), 1),
        Bound::PosInf => (2, None, 0),
    }
}

fn cmp_keys(a: (u8, Option<&Value>, u8), b: (u8, Option<&Value>, u8)) -> Ordering {
    a.0.cmp(&b.0)
        .then_with(|| a.1.cmp(&b.1))
        .then_with(|| a.2.cmp(&b.2))
}

fn lo_max(a: Bound, b: Bound) -> Bound {
    if cmp_keys(lo_key(&a), lo_key(&b)) == Ordering::Less {
        b
    } else {
        a
    }
}

fn hi_min(a: Bound, b: Bound) -> Bound {
    if cmp_keys(hi_key(&a), hi_key(&b)) == Ordering::Greater {
        b
    } else {
        a
    }
}

impl Interval {
    fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Bound::NegInf, _) | (_, Bound::PosInf) => false,
            (Bound::Incl(a), Bound::Incl(b)) => a > b,
            (Bound::Incl(a), Bound::Excl(b)) | (Bound::Excl(a), Bound::Incl(b)) => a >= b,
            (Bound::Excl(a), Bound::Excl(b)) => a >= b,
            _ => unreachable!("malformed interval bounds"),
        }
    }

    fn contains(&self, v: &Value) -> bool {
        let lo_ok = match &self.lo {
            Bound::NegInf => true,
            Bound::Incl(a) => v >= a,
            Bound::Excl(a) => v > a,
            Bound::PosInf => false,
        };
        let hi_ok = match &self.hi {
            Bound::PosInf => true,
            Bound::Incl(a) => v <= a,
            Bound::Excl(a) => v < a,
            Bound::NegInf => false,
        };
        lo_ok && hi_ok
    }

    /// Do `self` and `next` (with `next.lo` not before `self.lo`) overlap or
    /// touch so their union is one interval?
    fn merges_with(&self, next: &Interval) -> bool {
        match (&self.hi, &next.lo) {
            (Bound::PosInf, _) | (_, Bound::NegInf) => true,
            (Bound::Incl(a), Bound::Incl(b)) => b <= a,
            (Bound::Incl(a), Bound::Excl(b)) => b <= a,
            (Bound::Excl(a), Bound::Incl(b)) => b <= a,
            // both exclusive at the same point leave a hole
            (Bound::Excl(a), Bound::Excl(b)) => b < a,
            _ => unreachable!("malformed interval bounds"),
        }
    }
}

/// A formula in canonical form: `T`, or a sorted union of disjoint,
/// non-touching intervals that is not `(−∞, +∞)`; `F` = empty union.
///
/// `Ord` is a structural total order consistent with `==` — a sort key
/// for sets of formulas, not implication (that is [`Formula::implies`]).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Formula {
    /// `T` is a flag and no interval: nearly every pattern node carries
    /// it, and one rewriting builds, clones and tests it some 10⁵ times,
    /// none of which may touch the heap. When set, `intervals` is empty.
    top: bool,
    intervals: Vec<Interval>,
}

/// `T` as an interval list, for [`Formula::intervals`].
static FULL: [Interval; 1] = [Interval {
    lo: Bound::NegInf,
    hi: Bound::PosInf,
}];

impl Formula {
    /// `T` — satisfied by every value.
    pub fn top() -> Formula {
        Formula {
            top: true,
            intervals: Vec::new(),
        }
    }

    /// `F` — satisfied by no value.
    pub fn bottom() -> Formula {
        Formula {
            top: false,
            intervals: Vec::new(),
        }
    }

    /// `v = c`.
    pub fn eq(c: Value) -> Formula {
        Formula {
            top: false,
            intervals: vec![Interval {
                lo: Bound::Incl(c.clone()),
                hi: Bound::Incl(c),
            }],
        }
    }

    /// `v ≠ c`.
    pub fn ne(c: Value) -> Formula {
        Formula::eq(c).not()
    }

    /// `v < c`.
    pub fn lt(c: Value) -> Formula {
        Formula {
            top: false,
            intervals: vec![Interval {
                lo: Bound::NegInf,
                hi: Bound::Excl(c),
            }],
        }
    }

    /// `v ≤ c`.
    pub fn le(c: Value) -> Formula {
        Formula {
            top: false,
            intervals: vec![Interval {
                lo: Bound::NegInf,
                hi: Bound::Incl(c),
            }],
        }
    }

    /// `v > c`.
    pub fn gt(c: Value) -> Formula {
        Formula {
            top: false,
            intervals: vec![Interval {
                lo: Bound::Excl(c),
                hi: Bound::PosInf,
            }],
        }
    }

    /// `v ≥ c`.
    pub fn ge(c: Value) -> Formula {
        Formula {
            top: false,
            intervals: vec![Interval {
                lo: Bound::Incl(c),
                hi: Bound::PosInf,
            }],
        }
    }

    fn normalize(mut intervals: Vec<Interval>) -> Formula {
        intervals.retain(|i| !i.is_empty());
        intervals.sort_by(|a, b| {
            cmp_keys(lo_key(&a.lo), lo_key(&b.lo))
                .then_with(|| cmp_keys(hi_key(&a.hi), hi_key(&b.hi)))
        });
        let mut out: Vec<Interval> = Vec::with_capacity(intervals.len());
        for iv in intervals {
            match out.last_mut() {
                Some(last) if last.merges_with(&iv) => {
                    if cmp_keys(hi_key(&iv.hi), hi_key(&last.hi)) == Ordering::Greater {
                        last.hi = iv.hi;
                    }
                }
                _ => out.push(iv),
            }
        }
        if out == FULL {
            return Formula::top();
        }
        Formula {
            top: false,
            intervals: out,
        }
    }

    /// `self ∨ other`.
    pub fn or(&self, other: &Formula) -> Formula {
        if self.top || other.top {
            return Formula::top();
        }
        let mut ivs = self.intervals.clone();
        ivs.extend(other.intervals.iter().cloned());
        Formula::normalize(ivs)
    }

    /// `self ∧ other`.
    pub fn and(&self, other: &Formula) -> Formula {
        if self.top {
            return other.clone();
        }
        if other.top {
            return self.clone();
        }
        let mut out = Vec::new();
        for a in &self.intervals {
            for b in &other.intervals {
                let iv = Interval {
                    lo: lo_max(a.lo.clone(), b.lo.clone()),
                    hi: hi_min(a.hi.clone(), b.hi.clone()),
                };
                if !iv.is_empty() {
                    out.push(iv);
                }
            }
        }
        Formula::normalize(out)
    }

    /// `¬self`.
    pub fn not(&self) -> Formula {
        if self.top {
            return Formula::bottom();
        }
        // walk the gaps between intervals
        let mut out = Vec::new();
        let mut lo = Bound::NegInf;
        for iv in &self.intervals {
            let gap_hi = match &iv.lo {
                Bound::NegInf => None, // no gap before
                Bound::Incl(v) => Some(Bound::Excl(v.clone())),
                Bound::Excl(v) => Some(Bound::Incl(v.clone())),
                Bound::PosInf => unreachable!(),
            };
            if let Some(hi) = gap_hi {
                let g = Interval { lo, hi };
                if !g.is_empty() {
                    out.push(g);
                }
            }
            lo = match &iv.hi {
                Bound::PosInf => return Formula::normalize(out),
                Bound::Incl(v) => Bound::Excl(v.clone()),
                Bound::Excl(v) => Bound::Incl(v.clone()),
                Bound::NegInf => unreachable!(),
            };
        }
        out.push(Interval {
            lo,
            hi: Bound::PosInf,
        });
        Formula::normalize(out)
    }

    /// Is the formula satisfiable (≠ `F`)?
    pub fn is_sat(&self) -> bool {
        self.top || !self.intervals.is_empty()
    }

    /// Is the formula `T`?
    pub fn is_top(&self) -> bool {
        self.top
    }

    /// Does `v` satisfy the formula?
    pub fn accepts(&self, v: &Value) -> bool {
        self.top || self.intervals.iter().any(|i| i.contains(v))
    }

    /// `self ⇒ other` (validity of the implication).
    pub fn implies(&self, other: &Formula) -> bool {
        !self.and(&other.not()).is_sat()
    }

    /// The canonical intervals (read-only; mainly for display/tests).
    pub fn intervals(&self) -> &[Interval] {
        if self.top {
            &FULL
        } else {
            &self.intervals
        }
    }
}

impl Default for Formula {
    fn default() -> Self {
        Formula::top()
    }
}

impl std::fmt::Display for Formula {
    /// Renders in the *pattern predicate grammar* (see `smv-pattern`'s
    /// parser), so that `Display` → parse round-trips: intervals become
    /// `and`-conjunctions of atoms joined by `or`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn fmt_const(v: &Value) -> String {
            match v {
                Value::Int(i) => i.to_string(),
                // verbatim: the grammar has no escapes, so a constant the
                // parser accepted reads back as itself only unescaped
                Value::Str(s) => format!("\"{s}\""),
            }
        }
        if self.is_top() {
            return f.write_str("T");
        }
        if !self.is_sat() {
            // unsatisfiable but still parseable
            return f.write_str("v<0 and v>0");
        }
        for (i, iv) in self.intervals.iter().enumerate() {
            if i > 0 {
                f.write_str(" or ")?;
            }
            match (&iv.lo, &iv.hi) {
                (Bound::Incl(a), Bound::Incl(b)) if a == b => write!(f, "v={}", fmt_const(a))?,
                (Bound::NegInf, Bound::Incl(b)) => write!(f, "v<={}", fmt_const(b))?,
                (Bound::NegInf, Bound::Excl(b)) => write!(f, "v<{}", fmt_const(b))?,
                (Bound::Incl(a), Bound::PosInf) => write!(f, "v>={}", fmt_const(a))?,
                (Bound::Excl(a), Bound::PosInf) => write!(f, "v>{}", fmt_const(a))?,
                (lo, hi) => {
                    match lo {
                        Bound::Incl(v) => write!(f, "v>={}", fmt_const(v))?,
                        Bound::Excl(v) => write!(f, "v>{}", fmt_const(v))?,
                        _ => unreachable!(),
                    }
                    f.write_str(" and ")?;
                    match hi {
                        Bound::Incl(v) => write!(f, "v<={}", fmt_const(v))?,
                        Bound::Excl(v) => write!(f, "v<{}", fmt_const(v))?,
                        _ => unreachable!(),
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: i64) -> Value {
        Value::int(i)
    }

    #[test]
    fn atoms_accept_correctly() {
        assert!(Formula::eq(v(3)).accepts(&v(3)));
        assert!(!Formula::eq(v(3)).accepts(&v(4)));
        assert!(Formula::lt(v(3)).accepts(&v(2)));
        assert!(!Formula::lt(v(3)).accepts(&v(3)));
        assert!(Formula::le(v(3)).accepts(&v(3)));
        assert!(Formula::gt(v(3)).accepts(&v(4)));
        assert!(Formula::ne(v(3)).accepts(&v(4)));
        assert!(!Formula::ne(v(3)).accepts(&v(3)));
    }

    #[test]
    fn and_or_not() {
        // (v > 2) ∧ (v < 5): accepts 3, 4, rejects 2, 5
        let f = Formula::gt(v(2)).and(&Formula::lt(v(5)));
        assert!(f.accepts(&v(3)) && f.accepts(&v(4)));
        assert!(!f.accepts(&v(2)) && !f.accepts(&v(5)));
        // negation
        let g = f.not();
        assert!(g.accepts(&v(2)) && g.accepts(&v(5)));
        assert!(!g.accepts(&v(3)));
        // double negation is identity (canonical form)
        assert_eq!(g.not(), f);
    }

    #[test]
    fn normalization_merges_touching() {
        // v<5 ∨ v>=5 == T
        let f = Formula::lt(v(5)).or(&Formula::ge(v(5)));
        assert!(f.is_top());
        // v<5 ∨ v>5 != T (hole at 5)
        let g = Formula::lt(v(5)).or(&Formula::gt(v(5)));
        assert!(!g.is_top());
        assert!(!g.accepts(&v(5)));
        assert_eq!(g, Formula::ne(v(5)));
    }

    #[test]
    fn top_is_one_value_however_it_is_reached() {
        let top = Formula::top();
        let x = Formula::gt(v(2)).and(&Formula::lt(v(5)));
        assert_eq!(Formula::lt(v(5)).or(&Formula::ge(v(5))), top);
        assert_eq!(Formula::bottom().not(), top);
        assert_eq!(x.or(&x.not()), top);
        assert_eq!(top.not(), Formula::bottom());
        assert_eq!((top.and(&x), x.and(&top)), (x.clone(), x.clone()));
        assert_eq!((top.or(&x), x.or(&top)), (top.clone(), top.clone()));
        assert!(top.is_sat() && top.accepts(&v(0)) && !x.implies(&Formula::bottom()));
        assert_eq!(top.intervals().len(), 1);
        assert_eq!(top.intervals()[0].lo, Bound::NegInf);
        assert_eq!(top.intervals()[0].hi, Bound::PosInf);
    }

    #[test]
    fn implication() {
        // v=3 ⇒ v>1  (the paper's example pφ2 ⊆ pφ3 check)
        assert!(Formula::eq(v(3)).implies(&Formula::gt(v(1))));
        assert!(!Formula::gt(v(1)).implies(&Formula::eq(v(3))));
        // (v=3 ∧ v>0) ⇒ (v=3 ∧ v<5) ∨ (v<5 ∧ v>2)  — paper §4.2 example shape
        let lhs = Formula::eq(v(3)).and(&Formula::gt(v(0)));
        let rhs = Formula::eq(v(3))
            .and(&Formula::lt(v(5)))
            .or(&Formula::lt(v(5)).and(&Formula::gt(v(2))));
        assert!(lhs.implies(&rhs));
        // everything implies T, F implies everything
        assert!(lhs.implies(&Formula::top()));
        assert!(Formula::bottom().implies(&lhs));
        assert!(!Formula::top().implies(&lhs));
    }

    #[test]
    fn sat_and_contradiction() {
        let c = Formula::lt(v(1)).and(&Formula::gt(v(2)));
        assert!(!c.is_sat());
        assert!(Formula::eq(v(1)).is_sat());
        assert_eq!(c, Formula::bottom());
    }

    #[test]
    fn string_values_order_after_ints() {
        let f = Formula::gt(Value::str("m"));
        assert!(f.accepts(&Value::str("z")));
        assert!(!f.accepts(&Value::str("a")));
        assert!(!f.accepts(&v(999)), "ints sort before strings");
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Formula::top().to_string(), "T");
        assert_eq!(Formula::bottom().to_string(), "v<0 and v>0");
        assert_eq!(Formula::eq(v(3)).to_string(), "v=3");
        assert_eq!(
            Formula::gt(v(2)).and(&Formula::lt(v(5))).to_string(),
            "v>2 and v<5"
        );
        assert_eq!(Formula::ne(v(5)).to_string(), "v<5 or v>5");
        assert_eq!(Formula::eq(Value::str("pen")).to_string(), "v=\"pen\"");
    }

    #[test]
    fn de_morgan() {
        let a = Formula::lt(v(10)).and(&Formula::gt(v(0)));
        let b = Formula::eq(v(20));
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
    }
}
