//! Fixed-size page cache with clock eviction.
//!
//! Segment files are read through a [`BufferPool`] holding at most
//! `budget` resident pages. Lookups pin the page ([`PageGuard`] unpins on
//! drop), misses read the page through the [`Vfs`] and verify its FNV-1a
//! checksum — a bit-flipped page surfaces as
//! [`StoreError::Corrupt`](crate::StoreError), never as garbage rows. The
//! pool never writes: a segment is framed whole in memory, page by page
//! with `put_page`, and written once. When the pool is full a clock hand
//! sweeps the resident set: pinned pages are skipped, recently-referenced
//! pages get a second chance, and the first other page is dropped. If
//! every frame is pinned the pool temporarily overcommits rather than
//! deadlocking.
//!
//! The pool reports `store.pool.hit` / `store.pool.miss` /
//! `store.pool.evict` counters and a `store.pool.resident` gauge to the
//! smv-obs registry.

use crate::io::{Result, StoreError, Vfs};
use smv_xml::wire::fnv64;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Page-level checksum prefix: each on-disk page is `8 + payload` bytes.
pub const PAGE_CHECKSUM_BYTES: u64 = 8;

/// Appends one on-disk page to `out`: the payload's FNV-1a checksum, then
/// the payload — the layout [`BufferPool::get`] verifies.
pub(crate) fn put_page(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

type Key = (String, u32);

struct Frame {
    data: Arc<Vec<u8>>,
    pins: u32,
    referenced: bool,
}

struct Inner {
    frames: HashMap<Key, Frame>,
    /// Clock ring over resident keys plus the sweep hand.
    ring: Vec<Key>,
    hand: usize,
}

/// Counters snapshot for a pool; also mirrored into the smv-obs registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups served from a resident page.
    pub hits: u64,
    /// Lookups that had to read through the VFS.
    pub misses: u64,
    /// Pages evicted to stay within the budget.
    pub evictions: u64,
    /// Pages currently resident.
    pub resident: u64,
}

/// A shared, budgeted page cache over one [`Vfs`].
pub struct BufferPool {
    vfs: Arc<dyn Vfs>,
    budget: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A pinned page. The payload stays resident (and the frame un-evictable)
/// until the guard drops.
pub struct PageGuard {
    pool: Arc<BufferPool>,
    key: Key,
    data: Arc<Vec<u8>>,
}

impl PageGuard {
    /// The page payload (checksum already stripped and verified).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for PageGuard {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock().unwrap();
        if let Some(f) = inner.frames.get_mut(&self.key) {
            f.pins = f.pins.saturating_sub(1);
            f.referenced = true;
        }
    }
}

impl BufferPool {
    /// A pool over `vfs` holding at most `budget` resident pages
    /// (minimum one).
    pub fn new(vfs: Arc<dyn Vfs>, budget: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            vfs,
            budget: budget.max(1),
            inner: Mutex::new(Inner {
                frames: HashMap::new(),
                ring: Vec::new(),
                hand: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// Pin page `page` of `file`, whose checksum prefix starts at `offset`
    /// and whose payload is `len` bytes. Reads through the VFS on a miss
    /// and verifies the checksum.
    pub fn get(
        self: &Arc<Self>,
        file: &str,
        page: u32,
        offset: u64,
        len: usize,
    ) -> Result<PageGuard> {
        let key = (file.to_string(), page);
        {
            let mut inner = self.inner.lock().unwrap();
            if let Some(f) = inner.frames.get_mut(&key) {
                f.pins += 1;
                f.referenced = true;
                let data = Arc::clone(&f.data);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                smv_obs::counter_add("store.pool.hit", 1);
                return Ok(PageGuard {
                    pool: Arc::clone(self),
                    key,
                    data,
                });
            }
        }
        // Miss: read outside the lock, verify, then install. A racing
        // thread may install the same page first; the existing frame wins.
        self.misses.fetch_add(1, Ordering::Relaxed);
        smv_obs::counter_add("store.pool.miss", 1);
        let raw = self
            .vfs
            .read_at(file, offset, PAGE_CHECKSUM_BYTES as usize + len)?;
        if raw.len() != PAGE_CHECKSUM_BYTES as usize + len {
            return Err(StoreError::Corrupt(format!(
                "short read of {file} page {page}: {} of {} bytes",
                raw.len(),
                PAGE_CHECKSUM_BYTES as usize + len
            )));
        }
        let (sum, payload) = raw.split_at(PAGE_CHECKSUM_BYTES as usize);
        let want = u64::from_le_bytes(sum.try_into().unwrap());
        let payload = payload.to_vec();
        if fnv64(&payload) != want {
            return Err(StoreError::Corrupt(format!(
                "checksum mismatch on {file} page {page}"
            )));
        }
        let data = Arc::new(payload);
        let mut inner = self.inner.lock().unwrap();
        let f = inner.frames.entry(key.clone()).or_insert_with(|| Frame {
            data: Arc::clone(&data),
            pins: 0,
            referenced: false,
        });
        f.pins += 1;
        f.referenced = true;
        let data = Arc::clone(&f.data);
        self.install(&mut inner, &key);
        drop(inner);
        Ok(PageGuard {
            pool: Arc::clone(self),
            key,
            data,
        })
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        let resident = self.inner.lock().unwrap().frames.len() as u64;
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident,
        }
    }

    /// Add `key` to the clock ring, evicting past the budget.
    fn install(&self, inner: &mut Inner, key: &Key) {
        if !inner.ring.contains(key) {
            inner.ring.push(key.clone());
        }
        while inner.frames.len() > self.budget {
            if !self.evict_one(inner) {
                break; // everything pinned: overcommit rather than deadlock
            }
        }
        smv_obs::gauge_set("store.pool.resident", inner.frames.len() as i64);
    }

    /// One clock sweep; returns false when no frame is evictable.
    fn evict_one(&self, inner: &mut Inner) -> bool {
        let n = inner.ring.len();
        // Two full sweeps: the first may only clear reference bits.
        for _ in 0..2 * n {
            if inner.ring.is_empty() {
                return false;
            }
            let hand = inner.hand % inner.ring.len();
            let key = inner.ring[hand].clone();
            let Some(f) = inner.frames.get_mut(&key) else {
                inner.ring.remove(hand);
                continue;
            };
            if f.pins > 0 {
                inner.hand = hand + 1;
                continue;
            }
            if f.referenced {
                f.referenced = false;
                inner.hand = hand + 1;
                continue;
            }
            inner.frames.remove(&key);
            inner.ring.remove(hand);
            inner.hand = hand;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            smv_obs::counter_add("store.pool.evict", 1);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimVfs;

    /// Appends one checksummed page to `file`.
    fn page(vfs: &SimVfs, file: &str, payload: &[u8]) {
        let mut whole = vfs.read(file).unwrap_or_default();
        put_page(&mut whole, payload);
        vfs.write(file, &whole).unwrap();
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let vfs = SimVfs::new();
        page(&vfs, "f", b"hello");
        let pool = BufferPool::new(Arc::new(vfs), 4);
        let g1 = pool.get("f", 0, 0, 5).unwrap();
        assert_eq!(g1.bytes(), b"hello");
        drop(g1);
        let g2 = pool.get("f", 0, 0, 5).unwrap();
        assert_eq!(g2.bytes(), b"hello");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn budget_forces_eviction() {
        let vfs = SimVfs::new();
        for i in 0..4u64 {
            page(&vfs, "f", &[i as u8; 5]);
        }
        let pool = BufferPool::new(Arc::new(vfs), 2);
        for i in 0..4u32 {
            let g = pool.get("f", i, i as u64 * 13, 5).unwrap();
            assert_eq!(g.bytes(), &[i as u8; 5]);
        }
        let s = pool.stats();
        assert!(s.evictions >= 2, "expected evictions, got {s:?}");
        assert!(s.resident <= 2);
    }

    #[test]
    fn corrupt_page_is_a_checked_error() {
        let vfs = SimVfs::new();
        page(&vfs, "f", b"hello");
        // flip one payload bit behind the checksum
        let mut whole = vfs.read("f").unwrap();
        whole[9] ^= 0x40;
        vfs.write("f", &whole).unwrap();
        vfs.fsync("f").unwrap();
        let pool = BufferPool::new(Arc::new(vfs), 4);
        let err = pool.get("f", 0, 0, 5).err().expect("bit flip detected");
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err}");
    }
}
