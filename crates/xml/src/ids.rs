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
//! We implement ORDPATH (with careting for insertions), Dewey order IDs,
//! and a plain sequential scheme that has none of the structural
//! properties (useful as a negative baseline in tests and benches).
//!
//! # Labels are byte strings
//!
//! An ORDPATH or Dewey ID is stored as its *label*: one code per
//! component, concatenated, as ORDPATH \[21\] stores its own. The code
//! has three properties, and every ID operation is a byte operation
//! because of them:
//!
//! * **prefix-free** — the lead byte fixes a code's length, so a label
//!   splits into codes without separators, and a byte prefix of a label
//!   that ends on a code boundary is a component prefix;
//! * **order-preserving** — byte order is numeric order, so comparing two
//!   labels bytewise compares their component sequences
//!   lexicographically: `Ord`, `Eq` and `Hash` are `memcmp`s;
//! * **canonical** — each value has exactly one code, and
//!   [`OrdPath::try_from_bytes`] / [`DeweyId::try_from_bytes`] refuse any
//!   other byte string, so equal IDs always have equal bytes.
//!
//! | lead byte | code bytes | values |
//! |---|---|---|
//! | `0x40..=0xBF` | 1 | −32 ..= 95 |
//! | `0xC0..=0xDF` / `0x20..=0x3F` | 2 | the next 2¹³ above / below |
//! | `0xE0..=0xEF` / `0x10..=0x1F` | 3 | the next 2²⁰ |
//! | `0xF0..=0xF7` / `0x08..=0x0F` | 4 | the next 2²⁷ |
//! | `0xF8..=0xFB` / `0x04..=0x07` | 5 | the next 2³⁴ |
//! | `0xFC..=0xFD` / `0x02..=0x03` | 6 | the next 2⁴¹ |
//! | `0xFE` / `0x01` | 7 | the next 2⁴⁸ |
//! | `0xFF` / `0x00` | 9 | the rest, to `i64::MAX` / `i64::MIN` |
//!
//! A code is the big-endian number "tier base + (value − tier start)".
//! Every tier starts at an even value, so a component is odd exactly when
//! its code's last byte is: ORDPATH's level/caret distinction reads one
//! byte per code. On these labels the ancestor test is a byte-prefix test
//! plus a parity scan of the remainder, the parent test needs no parent,
//! parent derivation truncates and a child appends one code. Every
//! component in `[0, 2²⁰)` codes in no more bytes than a zigzag varint.
//!
//! A label of up to 22 bytes — an XMark node at depth 14 whose
//! components are below 96 takes 14 — is held inline, a longer one in a
//! boxed slice, so building, copying, truncating or comparing an ID
//! allocates nothing unless the ID is that long.

use crate::tree::{Document, NodeId};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

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

// ---------------------------------------------------------------------------
// component codes

/// `(first lead byte, code length, payload bits)` of every tier of the
/// code, in byte order; the one-byte tier sits at [`ONE_BYTE_TIER`].
const TIERS: [(u8, usize, u32); 15] = [
    (0x00, 9, 64),
    (0x01, 7, 48),
    (0x02, 6, 41),
    (0x04, 5, 34),
    (0x08, 4, 27),
    (0x10, 3, 20),
    (0x20, 2, 13),
    (0x40, 1, 7),
    (0xC0, 2, 13),
    (0xE0, 3, 20),
    (0xF0, 4, 27),
    (0xF8, 5, 34),
    (0xFC, 6, 41),
    (0xFE, 7, 48),
    (0xFF, 9, 64),
];
const ONE_BYTE_TIER: usize = 7;
/// The smallest value with a one-byte code.
const ONE_BYTE_LO: i64 = -32;
/// The longest code.
const MAX_CODE: usize = 9;

/// What a lead byte says about its code: the code's length, the value of
/// its smallest payload, and how far above that the payload may go.
#[derive(Clone, Copy)]
struct Lead {
    len: u8,
    min: i64,
    span: u64,
}

/// The [`Lead`] of every byte. The tiers' value ranges lie end to end
/// outward from the one-byte tier, clipped to `i64`, and a tier's lead
/// bytes split its range into equal blocks, in order — so the blocks
/// ascend with the byte.
const LEADS: [Lead; 256] = {
    let mut leads = [Lead {
        len: 0,
        min: 0,
        span: 0,
    }; 256];
    let mut i = 0;
    while i < TIERS.len() {
        let (first, len, bits) = TIERS[i];
        // the tier's first value: past the sizes of the tiers between it
        // and the one-byte tier, on its side
        let mut lo = ONE_BYTE_LO as i128;
        let mut j = ONE_BYTE_TIER;
        while j < i {
            lo += 1 << TIERS[j].2;
            j += 1;
        }
        while j > i {
            j -= 1;
            lo -= 1 << TIERS[j].2;
        }
        let mut hi = lo + (1 << bits) - 1;
        if lo < i64::MIN as i128 {
            lo = i64::MIN as i128; // the 9-byte tiers have one lead byte each
        }
        if hi > i64::MAX as i128 {
            hi = i64::MAX as i128;
        }
        let end = if i + 1 < TIERS.len() {
            TIERS[i + 1].0 as usize
        } else {
            256
        };
        let block = 1i128 << (8 * (len - 1));
        let mut b = first as usize;
        while b < end {
            let min = lo + (b - first as usize) as i128 * block;
            let max = if min + block - 1 < hi {
                min + block - 1
            } else {
                hi
            };
            leads[b] = Lead {
                len: len as u8,
                min: min as i64,
                span: (max - min) as u64,
            };
            b += 1;
        }
        i += 1;
    }
    leads
};

/// Whether `lead` is a whole one-byte code.
#[inline]
fn one_byte(lead: u8) -> bool {
    (0x40..0xC0).contains(&lead)
}

/// The length of the code that starts with `lead`. One-byte codes, the
/// common case, skip the table: a predicted branch keeps a walk over a
/// label from being one chain of dependent loads.
#[inline]
fn code_len(lead: u8) -> usize {
    if one_byte(lead) {
        1
    } else {
        LEADS[lead as usize].len as usize
    }
}

/// Writes `v`'s code into `out`; returns its length.
fn put_code(v: i64, out: &mut [u8]) -> usize {
    if (ONE_BYTE_LO..ONE_BYTE_LO + 128).contains(&v) {
        out[0] = (v - ONE_BYTE_LO) as u8 + 0x40; // skips the search below
        return 1;
    }
    // the last lead byte whose block starts at or below v (byte 0's
    // starts at i64::MIN)
    let lead = LEADS.partition_point(|l| l.min <= v) - 1;
    let len = LEADS[lead].len as usize;
    let x = v.wrapping_sub(LEADS[lead].min) as u64;
    out[0] = lead as u8;
    out[1..len].copy_from_slice(&x.to_be_bytes()[9 - len..]);
    len
}

/// The value of one well-formed code, or `None` when `code` is cut short
/// or its payload runs past its tier (only the 9-byte tiers can).
fn code_value(code: &[u8]) -> Option<i64> {
    let l = LEADS[*code.first()? as usize];
    let code = code.get(..l.len as usize)?;
    let x = code[1..].iter().fold(0u64, |x, &b| (x << 8) | b as u64);
    (x <= l.span).then(|| l.min.wrapping_add(x as i64))
}

/// The end offset of every code of a well-formed label, in order.
fn code_ends(label: &[u8]) -> impl Iterator<Item = usize> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        (at < label.len()).then(|| {
            at += code_len(label[at]);
            at
        })
    })
}

/// The component values of a well-formed label.
fn values(label: &[u8]) -> impl Iterator<Item = i64> + '_ {
    let mut start = 0;
    code_ends(label).map(move |end| {
        let v = code_value(&label[start..end]).expect("well-formed label");
        start = end;
        v
    })
}

/// Where the last code of a well-formed label starts.
fn last_code_start(label: &[u8]) -> usize {
    code_ends(label)
        .take_while(|&end| end < label.len())
        .last()
        .unwrap_or(0)
}

/// Whether the code ending at `end` holds an odd value.
fn odd_at(label: &[u8], end: usize) -> bool {
    label[end - 1] & 1 == 1
}

/// Whether `bytes` is a non-empty run of whole, canonical codes whose
/// values all lie in `lo..=hi`: the one validator behind
/// [`OrdPath::valid_bytes`] and [`DeweyId::valid_bytes`].
#[inline]
fn well_formed(bytes: &[u8], lo: i64, hi: i64) -> bool {
    let mut at = 0;
    while let Some(&lead) = bytes.get(at) {
        if one_byte(lead) {
            // as in code_len, no table lookup for the common case
            if !(lo..=hi).contains(&(lead as i64 - 0x40 + ONE_BYTE_LO)) {
                return false;
            }
            at += 1;
            continue;
        }
        let l = LEADS[lead as usize];
        let Some(code) = bytes.get(at..at + l.len as usize) else {
            return false;
        };
        // a value needs reading only when the payload could run past its
        // tier (9-byte codes) or the lead's block leaves lo..=hi
        let max = l.min.wrapping_add(l.span as i64);
        if (code.len() == MAX_CODE || l.min < lo || max > hi)
            && !code_value(code).is_some_and(|v| (lo..=hi).contains(&v))
        {
            return false;
        }
        at += code.len();
    }
    at > 0
}

fn fmt_dotted(f: &mut std::fmt::Formatter<'_>, label: &[u8]) -> std::fmt::Result {
    for (i, v) in values(label).enumerate() {
        if i > 0 {
            f.write_str(".")?;
        }
        write!(f, "{v}")?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// label storage

/// The longest label held inline.
const INLINE: usize = 22;

/// A label's bytes: inline exactly when they fit, so equal labels always
/// have equal representations.
#[derive(Clone)]
enum LabelBytes {
    Inline(u8, [u8; INLINE]),
    Spilled(Box<[u8]>),
}

const _: () = assert!(std::mem::size_of::<LabelBytes>() == 24);

impl LabelBytes {
    /// `head` followed by `tail`.
    #[inline]
    fn concat(head: &[u8], tail: &[u8]) -> LabelBytes {
        let n = head.len() + tail.len();
        if n > INLINE {
            return LabelBytes::Spilled([head, tail].concat().into_boxed_slice());
        }
        let mut buf = [0u8; INLINE];
        copy_words(&mut buf[..n], head);
        copy_words(&mut buf[head.len()..n], tail);
        LabelBytes::Inline(n as u8, buf)
    }

    /// The codes of `values`, which must be non-empty.
    fn from_values(values: impl IntoIterator<Item = i64>) -> LabelBytes {
        let mut bytes = Vec::new();
        let mut code = [0u8; MAX_CODE];
        for v in values {
            let n = put_code(v, &mut code);
            bytes.extend_from_slice(&code[..n]);
        }
        assert!(!bytes.is_empty(), "empty label");
        LabelBytes::concat(&bytes, &[])
    }

    /// `head` followed by the codes of `values`.
    fn with_codes(head: &[u8], values: &[i64]) -> LabelBytes {
        let mut buf = [0u8; 2 * MAX_CODE];
        let mut n = 0;
        for &v in values {
            n += put_code(v, &mut buf[n..]);
        }
        LabelBytes::concat(head, &buf[..n])
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            LabelBytes::Inline(n, buf) => &buf[..*n as usize],
            LabelBytes::Spilled(b) => b,
        }
    }

    /// The bytes held on the heap: none when inline.
    fn heap_bytes(&self) -> usize {
        match self {
            LabelBytes::Inline(..) => 0,
            LabelBytes::Spilled(b) => b.len(),
        }
    }
}

/// Copies `src` to the front of `dst` in whole 8-byte words where it has
/// them: for a label that is a few word moves, where a variable-length
/// `memcpy` costs a call and a store-forwarding stall on the next read.
#[inline]
fn copy_words(dst: &mut [u8], src: &[u8]) {
    let mut at = 0;
    while at + 8 <= src.len() {
        dst[at..at + 8].copy_from_slice(&src[at..at + 8]);
        at += 8;
    }
    while at < src.len() {
        dst[at] = src[at];
        at += 1;
    }
}

impl PartialEq for LabelBytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LabelBytes {}

impl PartialOrd for LabelBytes {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LabelBytes {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for LabelBytes {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

// ---------------------------------------------------------------------------
// ORDPATH

/// An ORDPATH label: a sequence of i64 components; odd components encode
/// levels, even components are carets gluing onto the following component.
/// Ordered by document order (lexicographic component order: ancestors
/// before descendants, left siblings before right).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrdPath(LabelBytes);

impl OrdPath {
    /// The root label `1`.
    pub fn root() -> OrdPath {
        OrdPath(LabelBytes::with_codes(&[], &[1]))
    }

    /// Creates an ORDPATH from raw components (odd = level, even = caret).
    pub fn from_components(components: impl IntoIterator<Item = i64>) -> OrdPath {
        OrdPath(LabelBytes::from_values(components))
    }

    /// Raw components, root first.
    pub fn components(&self) -> impl Iterator<Item = i64> + '_ {
        values(self.as_bytes())
    }

    /// The ORDPATH of this node's `rank`-th child (0-based) at initial load:
    /// component `2*rank + 1`.
    pub fn child(&self, rank: usize) -> OrdPath {
        OrdPath(LabelBytes::with_codes(
            self.as_bytes(),
            &[2 * rank as i64 + 1],
        ))
    }

    /// Number of levels (count of odd components). The root has 1.
    pub fn level(&self) -> usize {
        let b = self.as_bytes();
        code_ends(b).filter(|&end| odd_at(b, end)).count()
    }

    /// The byte length of the parent's label: the end of the last odd code
    /// before the final one (the final odd component goes, and the carets
    /// before it with it).
    fn parent_len(&self) -> Option<usize> {
        let b = self.as_bytes();
        code_ends(b)
            .take_while(|&end| end < b.len())
            .filter(|&end| odd_at(b, end))
            .last()
    }

    /// Derives the parent's ORDPATH: drops the trailing odd component and
    /// any even (caret) components immediately preceding it. Returns `None`
    /// at the root.
    pub fn parent(&self) -> Option<OrdPath> {
        let end = self.parent_len()?;
        Some(OrdPath(LabelBytes::concat(&self.as_bytes()[..end], &[])))
    }

    /// Is `self` a proper ancestor of `other`? Byte-prefix test: the
    /// remainder must contain at least one odd (level) code.
    pub fn is_ancestor_of(&self, other: &OrdPath) -> bool {
        let (a, b) = (self.as_bytes(), other.as_bytes());
        if b.len() <= a.len() || !b.starts_with(a) {
            return false;
        }
        // the remainder ends with other's final code, odd in a valid label
        let rest = &b[a.len()..];
        odd_at(rest, rest.len()) || code_ends(rest).any(|end| odd_at(rest, end))
    }

    /// Is `self` the parent of `other`? `other` must be `self` (ending odd)
    /// followed by carets and one final component.
    pub fn is_parent_of(&self, other: &OrdPath) -> bool {
        let (a, b) = (self.as_bytes(), other.as_bytes());
        if b.len() <= a.len() || !b.starts_with(a) || !odd_at(a, a.len()) {
            return false;
        }
        let rest = &b[a.len()..];
        code_len(rest[0]) == rest.len()
            || code_ends(rest).all(|end| end == rest.len() || !odd_at(rest, end))
    }

    /// An ORDPATH strictly between `self` and `next` at the same level,
    /// using careting when the gap is exhausted. `self` and `next` must be
    /// siblings (same parent label) with `self < next`; either may itself
    /// be a careted label. The result always ends in an odd component.
    pub fn between(&self, next: &OrdPath) -> OrdPath {
        assert_eq!(self.parent(), next.parent(), "between() requires siblings");
        assert!(self < next, "between() requires ordered siblings");
        // sibling-local suffixes after the shared parent label: zero or
        // more even carets followed by exactly one odd level component.
        // Find the first code where they differ; equal codes have equal
        // lengths, so it starts at the same offset in both labels
        fn code(label: &[u8], at: usize) -> &[u8] {
            let lead = *label
                .get(at)
                .expect("valid sibling labels are never prefixes of one another");
            &label[at..at + code_len(lead)]
        }
        let value = |c: &[u8]| code_value(c).expect("well-formed label");
        let (l, r) = (self.as_bytes(), next.as_bytes());
        let mut at = self.parent_len().unwrap_or(0);
        while code(l, at) == code(r, at) {
            at += code(l, at).len();
        }
        let (lc, rc) = (code(l, at), code(r, at));
        let (a, b) = (value(lc), value(rc));
        debug_assert!(a < b, "first differing component orders the siblings");
        let head = &l[..at];
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
            return OrdPath(LabelBytes::with_codes(head, &[mid]));
        }
        if b - a >= 2 {
            // only the even value a+1 fits: caret, then a fresh level
            return OrdPath(LabelBytes::with_codes(head, &[a + 1, 1]));
        }
        // b == a + 1: nothing fits at this position
        if at + lc.len() == l.len() {
            // `a` is self's terminal odd, so b is an even caret in `next`
            // (even components cannot be terminal): descend into next's
            // caret chain and slot in just before it — odd components are
            // unbounded below, so a smaller odd always exists
            let t = value(code(r, at + rc.len()));
            OrdPath(LabelBytes::with_codes(
                head,
                &[b, if t % 2 == 0 { t - 1 } else { t - 2 }],
            ))
        } else {
            // `a` is an even caret in self, and next diverges above self's
            // terminal: bumping self's terminal odd stays after self and
            // still before next (they already differ at `at`)
            self.following_sibling()
        }
    }

    /// The next sibling label after `self` at initial-load spacing.
    pub fn following_sibling(&self) -> OrdPath {
        let b = self.as_bytes();
        let start = last_code_start(b);
        let last = code_value(&b[start..]).expect("well-formed label");
        OrdPath(LabelBytes::with_codes(&b[..start], &[last + 2]))
    }

    /// The label bytes (see the module docs for the code).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// The label bytes, owned.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// Whether [`OrdPath::try_from_bytes`] accepts `bytes`, without
    /// building the label: a non-empty run of whole, canonical codes.
    #[inline]
    pub fn valid_bytes(bytes: &[u8]) -> bool {
        well_formed(bytes, i64::MIN, i64::MAX)
    }

    /// Decodes [`OrdPath::to_bytes`] from untrusted bytes: `None` for an
    /// empty label, a code cut short, or a 9-byte code past `i64`.
    #[inline]
    pub fn try_from_bytes(bytes: &[u8]) -> Option<OrdPath> {
        OrdPath::valid_bytes(bytes).then(|| OrdPath(LabelBytes::concat(bytes, &[])))
    }
}

impl std::fmt::Display for OrdPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_dotted(f, self.as_bytes())
    }
}

impl std::fmt::Debug for OrdPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OrdPath({self})")
    }
}

// ---------------------------------------------------------------------------
// Dewey

/// A Dewey order identifier: the sequence of 1-based child ranks from the
/// root, ordered by document order.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeweyId(LabelBytes);

impl DeweyId {
    /// The root's Dewey ID (`1`).
    pub fn root() -> DeweyId {
        DeweyId(LabelBytes::with_codes(&[], &[1]))
    }

    /// From explicit ranks.
    pub fn from_ranks(ranks: impl IntoIterator<Item = u32>) -> DeweyId {
        DeweyId(LabelBytes::from_values(ranks.into_iter().map(i64::from)))
    }

    /// Ranks from the root.
    pub fn ranks(&self) -> impl Iterator<Item = u32> + '_ {
        values(self.as_bytes()).map(|v| v as u32)
    }

    /// The `rank`-th child (0-based).
    pub fn child(&self, rank: usize) -> DeweyId {
        DeweyId(LabelBytes::with_codes(self.as_bytes(), &[rank as i64 + 1]))
    }

    /// Parent ID (drop the last rank).
    pub fn parent(&self) -> Option<DeweyId> {
        let b = self.as_bytes();
        let end = last_code_start(b);
        (end > 0).then(|| DeweyId(LabelBytes::concat(&b[..end], &[])))
    }

    /// Proper-ancestor test: proper byte prefix.
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        let (a, b) = (self.as_bytes(), other.as_bytes());
        b.len() > a.len() && b.starts_with(a)
    }

    /// Parent test: a proper prefix one code short.
    pub fn is_parent_of(&self, other: &DeweyId) -> bool {
        let (a, b) = (self.as_bytes(), other.as_bytes());
        self.is_ancestor_of(other) && a.len() + code_len(b[a.len()]) == b.len()
    }

    /// Depth (root = 1 component).
    pub fn level(&self) -> usize {
        code_ends(self.as_bytes()).count()
    }

    /// The label bytes (the ORDPATH code, one code per rank).
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    /// The label bytes, owned.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    /// Whether [`DeweyId::try_from_bytes`] accepts `bytes`, without
    /// building the label: a non-empty run of whole, canonical codes of
    /// `u32` values.
    #[inline]
    pub fn valid_bytes(bytes: &[u8]) -> bool {
        well_formed(bytes, 0, u32::MAX as i64)
    }

    /// Decodes [`DeweyId::to_bytes`] from untrusted bytes.
    #[inline]
    pub fn try_from_bytes(bytes: &[u8]) -> Option<DeweyId> {
        DeweyId::valid_bytes(bytes).then(|| DeweyId(LabelBytes::concat(bytes, &[])))
    }
}

impl std::fmt::Display for DeweyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_dotted(f, self.as_bytes())
    }
}

impl std::fmt::Debug for DeweyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeweyId({self})")
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

// an ID cell stays one label plus a tag: inline labels must not widen rows
const _: () = assert!(std::mem::size_of::<StructId>() <= 32);

impl StructId {
    /// Document-order comparison; `None` when the schemes differ or the
    /// scheme is non-structural (sequential IDs do still order by load
    /// sequence, which *happens* to be document order at initial load, but
    /// the scheme does not guarantee it — we allow it and document this).
    #[inline]
    pub fn cmp_doc_order(&self, other: &StructId) -> Option<Ordering> {
        match (self, other) {
            (StructId::Ord(a), StructId::Ord(b)) => Some(a.cmp(b)),
            (StructId::Dewey(a), StructId::Dewey(b)) => Some(a.cmp(b)),
            (StructId::Seq(a), StructId::Seq(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Proper-ancestor test; `None` when undecidable from the IDs alone.
    #[inline]
    pub fn is_ancestor_of(&self, other: &StructId) -> Option<bool> {
        match (self, other) {
            (StructId::Ord(a), StructId::Ord(b)) => Some(a.is_ancestor_of(b)),
            (StructId::Dewey(a), StructId::Dewey(b)) => Some(a.is_ancestor_of(b)),
            _ => None,
        }
    }

    /// Parent test; `None` when undecidable from the IDs alone.
    #[inline]
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

    /// The ID of this node's `rank`-th child (0-based) at initial-load
    /// spacing; `None` under the sequential scheme, whose IDs say nothing
    /// about position.
    pub fn child(&self, rank: usize) -> Option<StructId> {
        match self {
            StructId::Ord(a) => Some(StructId::Ord(a.child(rank))),
            StructId::Dewey(a) => Some(StructId::Dewey(a.child(rank))),
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

    /// The bytes this ID owns on the heap: a label too long to be held
    /// inline, otherwise none.
    pub fn heap_bytes(&self) -> usize {
        match self {
            StructId::Ord(OrdPath(b)) | StructId::Dewey(DeweyId(b)) => b.heap_bytes(),
            StructId::Seq(_) => 0,
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
    /// Assigns IDs to every node of `doc` in document order: a node's
    /// label is its parent's with one code appended.
    pub fn assign(doc: &Document, scheme: IdScheme) -> IdAssignment {
        let mut ids: Vec<StructId> = Vec::with_capacity(doc.len());
        for n in doc.iter() {
            // document order visits a parent before its children
            let id = match (scheme, doc.parent(n)) {
                (IdScheme::Sequential, _) => StructId::Seq(n.0 as u64),
                (IdScheme::OrdPath, None) => StructId::Ord(OrdPath::root()),
                (IdScheme::Dewey, None) => StructId::Dewey(DeweyId::root()),
                (_, Some(p)) => ids[p.idx()]
                    .child(doc.child_rank(n) as usize)
                    .expect("a structural parent"),
            };
            ids.push(id);
        }
        IdAssignment { scheme, ids }
    }

    /// The ID vector itself, for [`crate::LiveDoc`]'s in-place edits.
    pub(crate) fn ids_mut(&mut self) -> &mut Vec<StructId> {
        &mut self.ids
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
        assert_eq!(caret.components().collect::<Vec<_>>(), [1, 4, 1]);
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
            assert_eq!(OrdPath::try_from_bytes(&p.to_bytes()), Some(p));
        }
        let extremes = OrdPath::from_components(vec![i64::MIN, i64::MAX]);
        assert_eq!(
            OrdPath::try_from_bytes(&extremes.to_bytes()),
            Some(extremes)
        );
    }

    /// Every block boundary codes and decodes, in as many bytes as its
    /// lead byte says, and codes order like their values.
    #[test]
    fn codes_are_ordered_and_sized_per_tier() {
        let mut edges = vec![i64::MIN, i64::MAX, 0, -1, 1];
        for l in &LEADS {
            let max = l.min.wrapping_add(l.span as i64);
            edges.extend([l.min, l.min.saturating_sub(1), max, max.saturating_add(1)]);
        }
        edges.sort_unstable();
        edges.dedup();
        let code = |v: i64| {
            let mut buf = [0u8; MAX_CODE];
            let n = put_code(v, &mut buf);
            buf[..n].to_vec()
        };
        for w in edges.windows(2) {
            assert!(code(w[0]) < code(w[1]), "{} < {}", w[0], w[1]);
        }
        for &v in &edges {
            let c = code(v);
            assert_eq!(c.len(), code_len(c[0]), "{v}");
            assert_eq!(code_value(&c), Some(v));
            assert_eq!(c[c.len() - 1] & 1 == 1, v % 2 != 0, "parity of {v}");
        }
        let len = |v: i64| code(v).len();
        assert_eq!((len(-32), len(95), len(96), len(-33)), (1, 1, 2, 2));
        // never longer than a zigzag varint on [0, 2^20)
        for v in [63, 64, 95, 96, 8191, 8192, 8287, 8288, (1 << 20) - 1] {
            let zigzag = (64 - ((v as u64) << 1).leading_zeros()).div_ceil(7).max(1);
            assert!(len(v) <= zigzag as usize, "{v}: {} > {zigzag}", len(v));
        }
    }

    #[test]
    fn foreign_ordpath_bytes_are_refused() {
        assert_eq!(OrdPath::try_from_bytes(&[]), None, "empty label");
        assert_eq!(
            OrdPath::try_from_bytes(&[0x61, 0xC0]),
            None,
            "code cut short"
        );
        assert_eq!(OrdPath::try_from_bytes(&[0xff; 9]), None, "past i64::MAX");
        let below_min = [0x00, 0x80, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            OrdPath::try_from_bytes(&below_min),
            None,
            "into 0x01's range"
        );
        let max = OrdPath::from_components([i64::MAX]);
        let min = OrdPath::from_components([i64::MIN]);
        assert!(OrdPath::try_from_bytes(max.as_bytes()).is_some());
        assert!(OrdPath::try_from_bytes(min.as_bytes()).is_some());
        // Dewey ranks are u32s
        let negative = OrdPath::from_components([1, -1]);
        let wide = OrdPath::from_components([1, u32::MAX as i64 + 1]);
        for bytes in [negative.as_bytes(), wide.as_bytes()] {
            assert!(OrdPath::try_from_bytes(bytes).is_some());
            assert_eq!(DeweyId::try_from_bytes(bytes), None, "{bytes:?}");
        }
        let top = DeweyId::from_ranks([0, u32::MAX]);
        assert_eq!(DeweyId::try_from_bytes(top.as_bytes()), Some(top));
    }

    /// Labels are inline exactly when they fit, and compare, hash and
    /// relate the same on both sides of the boundary.
    #[test]
    fn inline_and_spilled_labels_mix() {
        let short = OrdPath::from_components(vec![1; INLINE]);
        let long = OrdPath::from_components(vec![1; INLINE + 1]);
        assert!(matches!(short.0, LabelBytes::Inline(..)));
        assert!(matches!(long.0, LabelBytes::Spilled(_)));
        assert!(short < long && short.is_parent_of(&long));
        assert_eq!(long.parent(), Some(short.clone()));
        assert!(matches!(long.parent().unwrap().0, LabelBytes::Inline(..)));
        assert!(matches!(short.child(0).0, LabelBytes::Spilled(_)));
        assert_eq!(short.child(0), long);
        let back = OrdPath::try_from_bytes(long.as_bytes()).unwrap();
        assert!(matches!(back.0, LabelBytes::Spilled(_)));
        assert_eq!(back, long);
        // only a spilled label owns heap bytes
        assert_eq!(StructId::Ord(short).heap_bytes(), 0);
        assert_eq!(StructId::Ord(long).heap_bytes(), INLINE + 1);
        assert_eq!(StructId::Seq(7).heap_bytes(), 0);
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
        assert_eq!(a.child(0), None);
    }
}
