//! The workspace's one byte codec and one fingerprint hash.
//!
//! Everything the system persists — extent segments, the manifest, the
//! serialized summary and feedback store — is written with
//! [`ByteWriter`] and read back with [`ByteReader`]: LEB128 varints,
//! zigzag signed varints, fixed-width little-endian words and
//! length-prefixed bytes. Every read is bounds-checked, and bad input is
//! a [`WireError`], never a panic or an allocation the input cannot back
//! ([`ByteReader::get_count`]).
//!
//! [`Fnv64`] is FNV-1a over 64 bits, stable across runs and platforms. It
//! computes every *fingerprint* the system keeps: page and file checksums,
//! the feedback store's plan-fragment keys, the service's cache lookup
//! keys. A fingerprint is not an identity: FNV-1a is not
//! collision-resistant, and two inputs with one value are easy to craft,
//! so a user that must not confuse two inputs compares them in full.

/// Bytes a [`ByteReader`] refused: truncated, overlong or malformed.
/// Each decoder reports it as its own error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl From<WireError> for String {
    fn from(e: WireError) -> String {
        e.0
    }
}

/// Shorthand result type of the reader.
pub type Result<T> = std::result::Result<T, WireError>;

/// Streaming FNV-1a 64.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// The hash of nothing.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Hashes `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes `x`'s eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The hash so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// A growable little-endian byte sink.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One raw byte.
    #[inline]
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Fixed-width little-endian u64.
    #[inline]
    pub fn put_u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// An f64's exact bit pattern, as [`ByteWriter::put_u64`].
    #[inline]
    pub fn put_f64(&mut self, x: f64) {
        self.put_u64(x.to_bits());
    }

    /// LEB128 varint.
    #[inline]
    pub fn put_uv(&mut self, mut x: u64) {
        loop {
            let b = (x & 0x7f) as u8;
            x >>= 7;
            if x == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Zigzag varint for signed values.
    #[inline]
    pub fn put_iv(&mut self, x: i64) {
        self.put_uv(((x << 1) ^ (x >> 63)) as u64);
    }

    /// Length-prefixed raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_uv(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Raw bytes, no length prefix.
    #[inline]
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// A checked little-endian byte cursor: every read validates bounds and
/// returns a [`WireError`] on overrun.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated(n, self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One raw byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Fixed-width little-endian u64.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(word))
    }

    /// An f64 written by [`ByteWriter::put_f64`].
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64> {
        self.get_u64().map(f64::from_bits)
    }

    /// LEB128 varint.
    #[inline]
    pub fn get_uv(&mut self) -> Result<u64> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8()?;
            if shift >= 64 {
                return Err(WireError("varint overflow".into()));
            }
            x |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
        }
    }

    /// A varint element count for a sequence whose every element takes at
    /// least one byte of the stream: a count above [`remaining`] is
    /// refused, so no allocation sized by it can exceed the input.
    ///
    /// [`remaining`]: ByteReader::remaining
    #[inline]
    pub fn get_count(&mut self) -> Result<usize> {
        let n = self.get_uv()?;
        if n > self.remaining() as u64 {
            return Err(WireError(format!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// A varint that must fit 32 bits.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        u32::try_from(self.get_uv()?).map_err(|_| WireError("value does not fit 32 bits".into()))
    }

    /// Zigzag varint.
    #[inline]
    pub fn get_iv(&mut self) -> Result<i64> {
        let z = self.get_uv()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Length-prefixed raw bytes.
    #[inline]
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_count()?;
        self.take(n)
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        self.get_str_ref().map(str::to_string)
    }

    /// Length-prefixed UTF-8 string, borrowed from the stream.
    #[inline]
    pub fn get_str_ref(&mut self) -> Result<&'a str> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError("invalid utf-8".into()))
    }
}

#[cold]
fn truncated(wanted: usize, left: usize) -> WireError {
    WireError(format!(
        "truncated stream: wanted {wanted} bytes, {left} left"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_and_overruns_are_errors() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.25);
        for x in [0, 127, 128, u64::MAX] {
            w.put_uv(x);
        }
        for x in [-1, i64::MIN, i64::MAX] {
            w.put_iv(x);
        }
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u64(), Ok(u64::MAX - 1));
        assert_eq!(r.get_f64(), Ok(-0.25));
        for x in [0, 127, 128, u64::MAX] {
            assert_eq!(r.get_uv(), Ok(x));
        }
        for x in [-1, i64::MIN, i64::MAX] {
            assert_eq!(r.get_iv(), Ok(x));
        }
        assert_eq!(r.get_str().as_deref(), Ok("héllo"));
        assert!(r.get_u8().is_err(), "past the end");
        // a count the bytes left cannot back, a varint past 64 bits, a
        // value past 32 bits, bad utf-8
        assert!(ByteReader::new(&[5, 1, 2]).get_bytes().is_err());
        assert!(ByteReader::new(&[0xff; 11]).get_uv().is_err());
        assert!(ByteReader::new(&[0x80, 0x80, 0x80, 0x80, 0x10])
            .get_u32()
            .is_err());
        assert!(ByteReader::new(&[2, 0xc3, 0x28]).get_str().is_err());
    }

    #[test]
    fn fnv64_is_fnv_1a() {
        // published FNV-1a 64 test vectors
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }
}
