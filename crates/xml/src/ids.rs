//! Structural node identifiers.
//!
//! The paper's rewriting engine exploits three properties of popular ID
//! schemes (§1, §4.6):
//!
//! 1. **order**: comparing two IDs decides document order;
//! 2. **structure**: comparing two IDs decides parent / ancestor
//!    relationships (enables structural joins, \[1\] in the paper);
//! 3. **parent derivation**: a node's ID can be *computed* from the ID of
//!    any of its children (ORDPATH \[21\], Dewey \[25\]) — this is what makes
//!    "virtual ID" attributes possible during rewriting.
//!
//! We implement ORDPATH (with careting for insertions and a compact
//! zigzag-varint binary encoding), Dewey order IDs, and a plain sequential
//! scheme that has none of the structural properties (useful as a negative
//! baseline in tests and benches).

use crate::tree::{Document, NodeId};
use std::cmp::Ordering;

/// Which identifier scheme a view stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IdScheme {
    /// ORDPATH labels: odd components are real levels, even components are
    /// carets; insert-friendly; prefix-based ancestor test; parent derivable.
    OrdPath,
    /// Dewey order labels: child ranks; parent derivable.
    Dewey,
    /// An opaque sequential identifier: unique but carries no structural
    /// information (cannot be structurally joined).
    Sequential,
}

impl IdScheme {
    /// Does comparing two IDs of this scheme decide document order and
    /// ancestry? (Required for structural joins.)
    pub fn is_structural(self) -> bool {
        !matches!(self, IdScheme::Sequential)
    }

    /// Can a parent's ID be computed from a child's ID? (Required for the
    /// virtual-ID pre-processing of §4.6.)
    pub fn derives_parent(self) -> bool {
        !matches!(self, IdScheme::Sequential)
    }
}

/// An ORDPATH label: a sequence of i64 components; odd components encode
/// levels, even components are carets gluing onto the following component.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OrdPath {
    components: Vec<i64>,
}

impl OrdPath {
    /// The root label `1`.
    pub fn root() -> OrdPath {
        OrdPath {
            components: vec![1],
        }
    }

    /// Creates an ORDPATH from raw components (odd = level, even = caret).
    pub fn from_components(components: Vec<i64>) -> OrdPath {
        assert!(!components.is_empty(), "empty ORDPATH");
        OrdPath { components }
    }

    /// Raw components.
    pub fn components(&self) -> &[i64] {
        &self.components
    }

    /// The ORDPATH of this node's `rank`-th child (0-based) at initial load:
    /// component `2*rank + 1`.
    pub fn child(&self, rank: usize) -> OrdPath {
        let mut c = self.components.clone();
        c.push(2 * rank as i64 + 1);
        OrdPath { components: c }
    }

    /// Number of levels (count of odd components). The root has 1.
    pub fn level(&self) -> usize {
        self.components.iter().filter(|c| *c % 2 != 0).count()
    }

    /// Derives the parent's ORDPATH: drops the trailing odd component and
    /// any even (caret) components immediately preceding it. Returns `None`
    /// at the root.
    pub fn parent(&self) -> Option<OrdPath> {
        let mut end = self.components.len();
        // skip nothing: last component of a valid ORDPATH is odd
        debug_assert!(self.components[end - 1] % 2 != 0, "ORDPATH must end odd");
        end -= 1; // drop the odd component
        while end > 0 && self.components[end - 1] % 2 == 0 {
            end -= 1; // drop carets
        }
        if end == 0 {
            None
        } else {
            Some(OrdPath {
                components: self.components[..end].to_vec(),
            })
        }
    }

    /// Is `self` a proper ancestor of `other`? Component-prefix test: the
    /// remainder must contain at least one odd (level) component.
    pub fn is_ancestor_of(&self, other: &OrdPath) -> bool {
        if other.components.len() <= self.components.len() {
            return false;
        }
        if other.components[..self.components.len()] != self.components[..] {
            return false;
        }
        other.components[self.components.len()..]
            .iter()
            .any(|c| c % 2 != 0)
    }

    /// Is `self` the parent of `other`?
    pub fn is_parent_of(&self, other: &OrdPath) -> bool {
        other.parent().as_ref() == Some(self)
    }

    /// An ORDPATH strictly between `self` and `next` at the same level,
    /// using careting when the gap is exhausted. `self` and `next` must be
    /// siblings (same parent label) with `self < next`; either may itself
    /// be a careted label. The result always ends in an odd component.
    pub fn between(&self, next: &OrdPath) -> OrdPath {
        assert_eq!(self.parent(), next.parent(), "between() requires siblings");
        assert!(self < next, "between() requires ordered siblings");
        // sibling-local suffixes after the shared parent label: zero or
        // more even carets followed by exactly one odd level component
        let plen = self.parent().map_or(0, |p| p.components.len());
        let l = &self.components[plen..];
        let r = &next.components[plen..];
        let i = l
            .iter()
            .zip(r.iter())
            .position(|(x, y)| x != y)
            .expect("valid sibling labels are never prefixes of one another");
        let (a, b) = (l[i], r[i]);
        debug_assert!(a < b, "first differing component orders the siblings");
        let mut c = self.components[..plen + i].to_vec();
        let lo = if a % 2 == 0 { a + 1 } else { a + 2 }; // smallest odd > a
        if lo < b {
            // room for an odd value in the open interval (a, b): pick one
            // near the middle to keep space on both sides
            let mut mid = a + (b - a) / 2;
            if mid % 2 == 0 {
                mid -= 1;
            }
            let mid = mid.max(lo);
            debug_assert!(a < mid && mid < b && mid % 2 != 0);
            c.push(mid);
            return OrdPath { components: c };
        }
        if b - a >= 2 {
            // only the even value a+1 fits: caret, then a fresh level
            c.push(a + 1);
            c.push(1);
            return OrdPath { components: c };
        }
        // b == a + 1: nothing fits at this position
        if plen + i + 1 == self.components.len() {
            // `a` is self's terminal odd, so b is an even caret in `next`
            // (even components cannot be terminal): descend into next's
            // caret chain and slot in just before it — odd components are
            // unbounded below, so a smaller odd always exists
            c.push(b);
            let t = r[i + 1];
            c.push(if t % 2 == 0 { t - 1 } else { t - 2 });
            OrdPath { components: c }
        } else {
            // `a` is an even caret in self, and next diverges above self's
            // terminal: bumping self's terminal odd stays after self and
            // still before next (they already differ at position `i`)
            self.following_sibling()
        }
    }

    /// The next sibling label after `self` at initial-load spacing.
    pub fn following_sibling(&self) -> OrdPath {
        let mut c = self.components.clone();
        *c.last_mut().unwrap() += 2;
        OrdPath { components: c }
    }

    /// Compact binary encoding: zigzag varint per component. Prefix-free at
    /// component granularity (a deviation from the original bitstring
    /// encoding of \[21\], documented in DESIGN.md; order/ancestor operations
    /// in this library compare decoded components).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.components.len() * 2);
        for &c in &self.components {
            let mut z = ((c << 1) ^ (c >> 63)) as u64;
            loop {
                let byte = (z & 0x7f) as u8;
                z >>= 7;
                if z == 0 {
                    out.push(byte);
                    break;
                }
                out.push(byte | 0x80);
            }
        }
        out
    }

    /// Decodes [`OrdPath::to_bytes`]; panics on bytes it did not write.
    pub fn from_bytes(bytes: &[u8]) -> OrdPath {
        OrdPath::try_from_bytes(bytes).expect("malformed ORDPATH bytes")
    }

    /// Decodes [`OrdPath::to_bytes`] from untrusted bytes: `None` for an
    /// empty label, a component wider than 64 bits, or a varint cut short.
    pub fn try_from_bytes(bytes: &[u8]) -> Option<OrdPath> {
        // a component takes at least a byte, and load-time ones exactly one
        let mut components = Vec::with_capacity(bytes.len());
        let mut z: u64 = 0;
        let mut shift = 0;
        for &b in bytes {
            if shift >= 64 {
                return None;
            }
            z |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                components.push(((z >> 1) as i64) ^ -((z & 1) as i64));
                z = 0;
                shift = 0;
            } else {
                shift += 7;
            }
        }
        (shift == 0 && !components.is_empty()).then_some(OrdPath { components })
    }
}

impl PartialOrd for OrdPath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdPath {
    /// Document order: lexicographic component order (ancestors before
    /// descendants, left siblings before right).
    fn cmp(&self, other: &Self) -> Ordering {
        self.components.cmp(&other.components)
    }
}

impl std::fmt::Display for OrdPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A Dewey order identifier: the sequence of 1-based child ranks from the
/// root.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DeweyId {
    ranks: Vec<u32>,
}

impl DeweyId {
    /// The root's Dewey ID (`1`).
    pub fn root() -> DeweyId {
        DeweyId { ranks: vec![1] }
    }

    /// From explicit ranks.
    pub fn from_ranks(ranks: Vec<u32>) -> DeweyId {
        assert!(!ranks.is_empty(), "empty Dewey id");
        DeweyId { ranks }
    }

    /// Ranks from the root.
    pub fn ranks(&self) -> &[u32] {
        &self.ranks
    }

    /// The `rank`-th child (0-based).
    pub fn child(&self, rank: usize) -> DeweyId {
        let mut r = self.ranks.clone();
        r.push(rank as u32 + 1);
        DeweyId { ranks: r }
    }

    /// Parent ID (drop the last rank).
    pub fn parent(&self) -> Option<DeweyId> {
        if self.ranks.len() == 1 {
            None
        } else {
            Some(DeweyId {
                ranks: self.ranks[..self.ranks.len() - 1].to_vec(),
            })
        }
    }

    /// Proper-ancestor test: proper prefix.
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        other.ranks.len() > self.ranks.len() && other.ranks[..self.ranks.len()] == self.ranks[..]
    }

    /// Parent test.
    pub fn is_parent_of(&self, other: &DeweyId) -> bool {
        other.ranks.len() == self.ranks.len() + 1 && self.is_ancestor_of(other)
    }

    /// Depth (root = 1 component).
    pub fn level(&self) -> usize {
        self.ranks.len()
    }
}

impl PartialOrd for DeweyId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ranks.cmp(&other.ranks)
    }
}

impl std::fmt::Display for DeweyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, r) in self.ranks.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

/// A concrete structural identifier value, tagged by scheme.
///
/// The derived total order groups by scheme (ORDPATH < Dewey < sequential)
/// and orders by document order within a scheme — so sorting a uniform
/// column of IDs yields document order, which the sort-based structural
/// join relies on. Cross-scheme comparisons are *ordered* (the total order
/// must be total) but carry no document meaning; use
/// [`StructId::cmp_doc_order`] when mixed schemes must be rejected.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum StructId {
    /// ORDPATH label.
    Ord(OrdPath),
    /// Dewey label.
    Dewey(DeweyId),
    /// Opaque sequence number.
    Seq(u64),
}

impl StructId {
    /// Document-order comparison; `None` when the schemes differ or the
    /// scheme is non-structural (sequential IDs do still order by load
    /// sequence, which *happens* to be document order at initial load, but
    /// the scheme does not guarantee it — we allow it and document this).
    pub fn cmp_doc_order(&self, other: &StructId) -> Option<Ordering> {
        match (self, other) {
            (StructId::Ord(a), StructId::Ord(b)) => Some(a.cmp(b)),
            (StructId::Dewey(a), StructId::Dewey(b)) => Some(a.cmp(b)),
            (StructId::Seq(a), StructId::Seq(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Proper-ancestor test; `None` when undecidable from the IDs alone.
    pub fn is_ancestor_of(&self, other: &StructId) -> Option<bool> {
        match (self, other) {
            (StructId::Ord(a), StructId::Ord(b)) => Some(a.is_ancestor_of(b)),
            (StructId::Dewey(a), StructId::Dewey(b)) => Some(a.is_ancestor_of(b)),
            _ => None,
        }
    }

    /// Parent test; `None` when undecidable from the IDs alone.
    pub fn is_parent_of(&self, other: &StructId) -> Option<bool> {
        match (self, other) {
            (StructId::Ord(a), StructId::Ord(b)) => Some(a.is_parent_of(b)),
            (StructId::Dewey(a), StructId::Dewey(b)) => Some(a.is_parent_of(b)),
            _ => None,
        }
    }

    /// Derives the parent's ID; `None` when the scheme cannot, or at root.
    pub fn derive_parent(&self) -> Option<StructId> {
        match self {
            StructId::Ord(a) => a.parent().map(StructId::Ord),
            StructId::Dewey(a) => a.parent().map(StructId::Dewey),
            StructId::Seq(_) => None,
        }
    }

    /// Depth-like level (number of levels encoded in the ID), when defined.
    pub fn level(&self) -> Option<usize> {
        match self {
            StructId::Ord(a) => Some(a.level()),
            StructId::Dewey(a) => Some(a.level()),
            StructId::Seq(_) => None,
        }
    }
}

impl std::fmt::Display for StructId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StructId::Ord(a) => write!(f, "{a}"),
            StructId::Dewey(a) => write!(f, "{a}"),
            StructId::Seq(a) => write!(f, "#{a}"),
        }
    }
}

/// A full assignment of identifiers to every node of a document — the
/// paper's labeling function `f_ID : nodes(t) → A`.
#[derive(Clone, Debug)]
pub struct IdAssignment {
    scheme: IdScheme,
    ids: Vec<StructId>,
}

impl IdAssignment {
    /// Assigns IDs to every node of `doc` in document order.
    pub fn assign(doc: &Document, scheme: IdScheme) -> IdAssignment {
        let mut ids: Vec<Option<StructId>> = vec![None; doc.len()];
        for n in doc.iter() {
            let id = match scheme {
                IdScheme::Sequential => StructId::Seq(n.0 as u64),
                IdScheme::OrdPath => match doc.parent(n) {
                    None => StructId::Ord(OrdPath::root()),
                    Some(p) => {
                        let StructId::Ord(pid) = ids[p.idx()].as_ref().unwrap() else {
                            unreachable!()
                        };
                        StructId::Ord(pid.child(doc.child_rank(n) as usize))
                    }
                },
                IdScheme::Dewey => match doc.parent(n) {
                    None => StructId::Dewey(DeweyId::root()),
                    Some(p) => {
                        let StructId::Dewey(pid) = ids[p.idx()].as_ref().unwrap() else {
                            unreachable!()
                        };
                        StructId::Dewey(pid.child(doc.child_rank(n) as usize))
                    }
                },
            };
            ids[n.idx()] = Some(id);
        }
        IdAssignment {
            scheme,
            ids: ids.into_iter().map(|o| o.unwrap()).collect(),
        }
    }

    /// Wraps an explicit per-node ID vector (document order). Used by the
    /// live-update rebuild, which carries surviving IDs across re-ingest
    /// instead of re-deriving them positionally.
    pub fn from_ids(scheme: IdScheme, ids: Vec<StructId>) -> IdAssignment {
        IdAssignment { scheme, ids }
    }

    /// The scheme used.
    pub fn scheme(&self) -> IdScheme {
        self.scheme
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Every node's ID, indexed by [`NodeId`] — document order. A fresh
    /// [`assign`](Self::assign)ment under ORDPATH or Dewey is therefore
    /// strictly increasing (ID order *is* document order), which lets a
    /// holder that keeps it so look IDs up by binary search
    /// ([`crate::LiveDoc::node_of`]).
    pub fn as_slice(&self) -> &[StructId] {
        &self.ids
    }

    /// The ID of node `n`.
    pub fn id(&self, n: NodeId) -> &StructId {
        &self.ids[n.idx()]
    }

    /// Reverse lookup by linear scan, for any ID vector whatever its
    /// order — tests and one-off lookups. [`crate::LiveDoc::node_of`] is
    /// the logarithmic one, and needs no index to be it.
    pub fn node_of(&self, id: &StructId) -> Option<NodeId> {
        self.ids
            .iter()
            .position(|x| x == id)
            .map(|i| NodeId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    #[test]
    fn ordpath_assignment_matches_figure2() {
        // Figure 2 labels nodes 1, 1.1, 1.3, 1.3.1, 1.3.3, 1.3.3.1, 1.5, ...
        let d = Document::from_parens(r#"a(b="1" c(b="2" d(e="3")) d(c(b) b b e) c(d e))"#);
        let ids = IdAssignment::assign(&d, IdScheme::OrdPath);
        assert_eq!(ids.id(NodeId(0)).to_string(), "1");
        assert_eq!(ids.id(NodeId(1)).to_string(), "1.1");
        assert_eq!(ids.id(NodeId(2)).to_string(), "1.3");
        assert_eq!(ids.id(NodeId(3)).to_string(), "1.3.1");
        assert_eq!(ids.id(NodeId(4)).to_string(), "1.3.3");
        assert_eq!(ids.id(NodeId(5)).to_string(), "1.3.3.1");
        assert_eq!(ids.id(NodeId(6)).to_string(), "1.5");
    }

    #[test]
    fn ordpath_parent_derivation() {
        let p = OrdPath::from_components(vec![1, 5, 3]);
        assert_eq!(p.parent().unwrap().to_string(), "1.5");
        assert_eq!(p.parent().unwrap().parent().unwrap().to_string(), "1");
        assert_eq!(OrdPath::root().parent(), None);
        // careted path 1.5.2.3: parent drops the caret too
        let c = OrdPath::from_components(vec![1, 5, 2, 3]);
        assert_eq!(c.parent().unwrap().to_string(), "1.5");
        assert_eq!(c.level(), 3);
    }

    #[test]
    fn ordpath_ancestor_and_order() {
        let a = OrdPath::from_components(vec![1, 3]);
        let b = OrdPath::from_components(vec![1, 3, 5]);
        let c = OrdPath::from_components(vec![1, 5]);
        assert!(a.is_ancestor_of(&b));
        assert!(!b.is_ancestor_of(&a));
        assert!(!a.is_ancestor_of(&c));
        assert!(a < b && b < c);
        // caret child is still a descendant
        let caret = OrdPath::from_components(vec![1, 3, 2, 1]);
        assert!(a.is_ancestor_of(&caret));
        assert!(a.is_parent_of(&caret));
    }

    #[test]
    fn ordpath_between_makes_room() {
        let a = OrdPath::from_components(vec![1, 3]);
        let b = OrdPath::from_components(vec![1, 9]);
        let m = a.between(&b);
        assert!(a < m && m < b);
        assert_eq!(m.level(), a.level());
        // adjacent odds force a caret
        let c = OrdPath::from_components(vec![1, 5]);
        let m2 = a.between(&c);
        assert!(a < m2 && m2 < c);
        assert_eq!(m2.level(), 2);
        assert_eq!(m2.parent().unwrap().to_string(), "1");
    }

    #[test]
    fn ordpath_between_careted_siblings() {
        let root = OrdPath::root();
        // careted right sibling (1.4.1 sits between 1.3 and 1.5)
        let a = OrdPath::from_components(vec![1, 3]);
        let caret = a.between(&OrdPath::from_components(vec![1, 5]));
        assert_eq!(caret.components(), &[1, 4, 1]);
        let m = a.between(&caret);
        assert!(a < m && m < caret, "{a} < {m} < {caret}");
        assert!(root.is_parent_of(&m));
        // careted left sibling, plain right sibling
        let b = OrdPath::from_components(vec![1, 5]);
        let m2 = caret.between(&b);
        assert!(caret < m2 && m2 < b, "{caret} < {m2} < {b}");
        assert!(root.is_parent_of(&m2));
        // both careted, different lengths
        let c1 = OrdPath::from_components(vec![1, 4, 1]);
        let c2 = OrdPath::from_components(vec![1, 4, 2, 5]);
        let m3 = c1.between(&c2);
        assert!(c1 < m3 && m3 < c2, "{c1} < {m3} < {c2}");
        assert!(root.is_parent_of(&m3));
        // even trailing component before the terminal on both sides
        let d1 = OrdPath::from_components(vec![1, 4, 3]);
        let m4 = c1.between(&d1);
        assert!(c1 < m4 && m4 < d1, "{c1} < {m4} < {d1}");
        assert!(root.is_parent_of(&m4));
        // repeated splitting between the same neighbors keeps converging
        let mut left = a;
        let right = OrdPath::from_components(vec![1, 5]);
        for _ in 0..12 {
            let mid = left.between(&right);
            assert!(left < mid && mid < right, "{left} < {mid} < {right}");
            assert!(root.is_parent_of(&mid), "mid {mid} stays a sibling");
            assert!(mid.components().last().unwrap() % 2 != 0, "ends odd");
            left = mid;
        }
    }

    #[test]
    fn ordpath_bytes_round_trip() {
        for comps in [vec![1], vec![1, 3, 5], vec![1, 2000001, 7], vec![1, -4, 1]] {
            let p = OrdPath::from_components(comps);
            assert_eq!(OrdPath::from_bytes(&p.to_bytes()), p);
        }
        let extremes = OrdPath::from_components(vec![i64::MIN, i64::MAX]);
        assert_eq!(
            OrdPath::try_from_bytes(&extremes.to_bytes()),
            Some(extremes)
        );
    }

    #[test]
    fn foreign_ordpath_bytes_are_refused() {
        assert_eq!(OrdPath::try_from_bytes(&[]), None, "empty label");
        assert_eq!(
            OrdPath::try_from_bytes(&[0x02, 0x80]),
            None,
            "varint cut short"
        );
        assert_eq!(
            OrdPath::try_from_bytes(&[0xff; 11]),
            None,
            "wider than 64 bits"
        );
    }

    #[test]
    fn dewey_basics() {
        let d = Document::from_parens("a(b(c) d)");
        let ids = IdAssignment::assign(&d, IdScheme::Dewey);
        assert_eq!(ids.id(NodeId(0)).to_string(), "1");
        assert_eq!(ids.id(NodeId(1)).to_string(), "1.1");
        assert_eq!(ids.id(NodeId(2)).to_string(), "1.1.1");
        assert_eq!(ids.id(NodeId(3)).to_string(), "1.2");
        let b = ids.id(NodeId(1));
        let c = ids.id(NodeId(2));
        assert_eq!(b.is_parent_of(c), Some(true));
        assert_eq!(c.derive_parent().as_ref(), Some(b));
    }

    #[test]
    fn ids_agree_with_tree_relations() {
        let d = Document::from_parens("a(b(c(e) d) f(g h(i)))");
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
            let ids = IdAssignment::assign(&d, scheme);
            for x in d.iter() {
                for y in d.iter() {
                    let ix = ids.id(x);
                    let iy = ids.id(y);
                    assert_eq!(
                        ix.is_ancestor_of(iy),
                        Some(d.is_ancestor(x, y)),
                        "{scheme:?} ancestor mismatch {x:?} {y:?}"
                    );
                    assert_eq!(
                        ix.cmp_doc_order(iy),
                        Some(x.0.cmp(&y.0)),
                        "{scheme:?} order mismatch {x:?} {y:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sequential_scheme_is_opaque() {
        assert!(!IdScheme::Sequential.is_structural());
        assert!(!IdScheme::Sequential.derives_parent());
        let a = StructId::Seq(1);
        let b = StructId::Seq(2);
        assert_eq!(a.is_ancestor_of(&b), None);
        assert_eq!(a.derive_parent(), None);
    }
}
