//! A small multiplicative hasher for keys no client can craft to collide.
//!
//! This is the rotate-xor-multiply step of the Firefox/rustc hasher, one
//! multiplication per word. std's SipHash spends most of its time
//! guarding against keys crafted to collide; the users here either hash
//! keys built from view definitions and the summary (the rewriter's
//! summary paths and column layouts), keys that are already fingerprints
//! (the service's plan and result caches), or bound the damage a
//! collision can do (the parser's fixed-size label cache, where a
//! collision is a miss). Every map user compares keys in full on a hit,
//! so a collision of this hash costs a comparison and never a wrong
//! answer. A key that is itself a fingerprint is another matter: equal
//! fingerprints need not mean equal inputs (see [`crate::wire`]), so the
//! service's caches also check that a hit was stored for the request's
//! own query. Keys taken from untrusted input into an unbounded map keep
//! SipHash.

use std::hash::{BuildHasherDefault, Hasher};

/// The Firefox/rustc hasher's multiplier (odd, bits well spread).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiplicative hasher. Not DoS-resistant; see the
/// module docs for where that is fine.
#[derive(Clone, Copy, Default)]
pub struct FastHasher(u64);

/// `HashMap`/`HashSet` state for [`FastHasher`].
pub type FastBuild = BuildHasherDefault<FastHasher>;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // the length keeps "a" and "a\0" apart
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn h(x: impl Hash) -> u64 {
        let mut s = FastHasher::default();
        x.hash(&mut s);
        s.finish()
    }

    #[test]
    fn distinguishes_what_it_should() {
        assert_ne!(h(1u32), h(2u32));
        assert_ne!(h((1u32, 2u32)), h((2u32, 1u32)));
        assert_ne!(h("a"), h("a\0"));
        assert_ne!(h([1u8; 9].as_slice()), h([1u8; 10].as_slice()));
        assert_eq!(h(vec![3u64, 4]), h(vec![3u64, 4]));
    }
}
