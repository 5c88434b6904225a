//! The virtual file system the store runs on.
//!
//! Everything the storage engine does to stable media goes through the
//! [`Vfs`] trait — whole-file and ranged reads, ranged writes, fsync,
//! atomic rename, listing, removal. Two implementations:
//!
//! * [`DiskVfs`] — a directory of real files (`std::fs`), with `rename`
//!   followed by a directory sync so the swap survives power loss on
//!   journaled file systems;
//! * [`SimVfs`] — an in-memory file system that distinguishes *visible*
//!   bytes (what the running process reads back) from *durable* bytes
//!   (what survives [`SimVfs::crash`]): `write` only touches the visible
//!   copy, `fsync` promotes it to durable, and `rename` is atomic but
//!   carries only the durable content of the source. A [`FaultPlan`] arms
//!   one injected fault at a chosen operation index — a torn write,
//!   a silently dropped fsync, a short read, or a hard stop — which is
//!   how the crash-recovery property test walks every operation of an
//!   epoch publish and proves the previous epoch always survives.

use smv_xml::wire::WireError;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Errors of the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An underlying I/O failure (message carries the operation and path).
    Io(String),
    /// Stored bytes failed validation — bad magic, a checksum mismatch, a
    /// truncated stream. The store never returns partially decoded rows:
    /// corruption is always surfaced as this error.
    Corrupt(String),
    /// An injected fault fired ([`FaultPlan`]); only produced by
    /// [`SimVfs`] under test.
    Injected {
        /// The operation index the fault fired at.
        op: u64,
        /// What was injected.
        kind: FaultKind,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "io error: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Injected { op, kind } => {
                write!(f, "injected fault {kind:?} at op {op}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Bytes the wire reader refuses are stored bytes that fail validation.
impl From<WireError> for StoreError {
    fn from(e: WireError) -> StoreError {
        StoreError::Corrupt(e.0)
    }
}

/// Shorthand result type of the storage layer.
pub type Result<T> = std::result::Result<T, StoreError>;

/// The file-system surface the store needs. Filenames are flat (no
/// directories); implementations must be safe to share across threads.
pub trait Vfs: Send + Sync {
    /// Reads a whole file.
    fn read(&self, name: &str) -> Result<Vec<u8>>;
    /// Reads `len` bytes at `offset`. Reading past the end is `Corrupt`
    /// (the store always knows how long its files are).
    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Creates or truncates a file with the given bytes (visible, not
    /// necessarily durable — call [`Vfs::fsync`]).
    fn write(&self, name: &str, bytes: &[u8]) -> Result<()>;
    /// Writes bytes at an offset, extending the file if needed.
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> Result<()>;
    /// Forces a file's current content to stable media.
    fn fsync(&self, name: &str) -> Result<()>;
    /// Atomically renames `from` to `to` (replacing `to`).
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Does the file exist?
    fn exists(&self, name: &str) -> bool;
    /// Byte length of a file, if it exists.
    fn len(&self, name: &str) -> Option<u64>;
    /// All file names, in unspecified order.
    fn list(&self) -> Vec<String>;
    /// Removes a file (missing files are not an error).
    fn remove(&self, name: &str) -> Result<()>;
}

// ---------------------------------------------------------------------------
// real files

/// A [`Vfs`] over one real directory.
pub struct DiskVfs {
    root: PathBuf,
}

impl DiskVfs {
    /// Opens (creating if needed) a directory-backed VFS.
    pub fn new(root: impl Into<PathBuf>) -> Result<DiskVfs> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|e| StoreError::Io(format!("create_dir_all {}: {e}", root.display())))?;
        Ok(DiskVfs { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn io<T>(op: &str, name: &str, r: std::io::Result<T>) -> Result<T> {
        r.map_err(|e| StoreError::Io(format!("{op} {name}: {e}")))
    }
}

impl Vfs for DiskVfs {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        Self::io("read", name, std::fs::read(self.path(name)))
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = Self::io("open", name, std::fs::File::open(self.path(name)))?;
        Self::io("seek", name, f.seek(SeekFrom::Start(offset)))?;
        let mut buf = vec![0u8; len];
        match f.read_exact(&mut buf) {
            Ok(()) => Ok(buf),
            // the file ends before offset+len: the bytes are not there
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(StoreError::Corrupt(
                format!("short read of {name} at {offset}+{len}: {e}"),
            )),
            // anything else is the device or the OS, not the content
            Err(e) => Err(StoreError::Io(format!("read_at {name}: {e}"))),
        }
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<()> {
        Self::io("write", name, std::fs::write(self.path(name), bytes))
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = Self::io(
            "open",
            name,
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(self.path(name)),
        )?;
        Self::io("seek", name, f.seek(SeekFrom::Start(offset)))?;
        Self::io("write_at", name, f.write_all(bytes))
    }

    fn fsync(&self, name: &str) -> Result<()> {
        let f = Self::io("open", name, std::fs::File::open(self.path(name)))?;
        Self::io("fsync", name, f.sync_all())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        Self::io(
            "rename",
            from,
            std::fs::rename(self.path(from), self.path(to)),
        )?;
        // make the rename itself durable: sync the directory
        if let Ok(d) = std::fs::File::open(&self.root) {
            let _ = d.sync_all(); // not all platforms support dir sync
        }
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn len(&self, name: &str) -> Option<u64> {
        std::fs::metadata(self.path(name)).ok().map(|m| m.len())
    }

    fn list(&self) -> Vec<String> {
        std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .collect()
            })
            .unwrap_or_default()
    }

    fn remove(&self, name: &str) -> Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(format!("remove {name}: {e}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// simulated files + fault injection

/// The kinds of fault [`SimVfs`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A `write`/`write_at` persists only the first half of its bytes,
    /// then the VFS goes dead (every later operation fails) — a torn
    /// write followed by a crash.
    TornWrite,
    /// One `fsync` returns `Ok` without promoting anything to durable —
    /// a lying disk. The VFS stays alive; the damage surfaces only after
    /// [`SimVfs::crash`].
    DroppedFsync,
    /// One `read`/`read_at` returns only the first half of the requested
    /// bytes. The VFS stays alive; the next read is clean.
    ShortRead,
    /// The operation and every one after it fail — a hard process kill
    /// mid-sequence.
    Stop,
}

/// One armed fault: fire `kind` at the `fail_at`-th VFS operation
/// (0-based, counting every `read`/`read_at`/`write`/`write_at`/
/// `fsync`/`rename`/`remove` since the counter was last reset).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Operation index the fault fires at.
    pub fail_at: u64,
    /// What happens there.
    pub kind: FaultKind,
}

#[derive(Default)]
struct SimState {
    /// What the running process sees.
    visible: HashMap<String, Vec<u8>>,
    /// What survives a crash (content as of each file's last real fsync).
    durable: HashMap<String, Vec<u8>>,
    fault: Option<FaultPlan>,
    /// Set once a `TornWrite`/`Stop` fired: every subsequent op fails.
    dead: Option<StoreError>,
}

/// An in-memory [`Vfs`] with crash semantics and fault injection; see the
/// module docs. Cloning shares the underlying state.
#[derive(Clone, Default)]
pub struct SimVfs {
    state: Arc<Mutex<SimState>>,
    ops: Arc<AtomicU64>,
}

impl SimVfs {
    /// A fresh, empty simulated file system.
    pub fn new() -> SimVfs {
        SimVfs::default()
    }

    /// Operations performed since construction / [`SimVfs::reset_ops`].
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Resets the operation counter (so a [`FaultPlan`] index is relative
    /// to "now").
    pub fn reset_ops(&self) {
        self.ops.store(0, Ordering::Relaxed);
    }

    /// Arms one fault; `None` disarms. Also clears the dead state.
    pub fn set_fault(&self, fault: Option<FaultPlan>) {
        let mut st = self.lock();
        st.fault = fault;
        st.dead = None;
    }

    /// Simulates a power cut: visible state reverts to the durable state.
    /// Also disarms any fault and revives a dead VFS.
    pub fn crash(&self) {
        let mut st = self.lock();
        st.visible = st.durable.clone();
        st.fault = None;
        st.dead = None;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SimState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counts one op; returns `Some(fault)` if the armed fault fires on
    /// this op, `Err` if the VFS is dead.
    fn tick(&self, st: &mut SimState) -> Result<Option<FaultPlan>> {
        if let Some(dead) = &st.dead {
            return Err(dead.clone());
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        match st.fault {
            Some(f) if f.fail_at == op => {
                let err = StoreError::Injected { op, kind: f.kind };
                if matches!(f.kind, FaultKind::TornWrite | FaultKind::Stop) {
                    st.dead = Some(err);
                }
                Ok(Some(f))
            }
            Some(f) if f.kind == FaultKind::Stop && op > f.fail_at => {
                // belt and braces: Stop kills everything from fail_at on
                Err(StoreError::Injected { op, kind: f.kind })
            }
            _ => Ok(None),
        }
    }
}

impl Vfs for SimVfs {
    fn read(&self, name: &str) -> Result<Vec<u8>> {
        let mut st = self.lock();
        let fired = self.tick(&mut st)?;
        let bytes = st
            .visible
            .get(name)
            .cloned()
            .ok_or_else(|| StoreError::Io(format!("read {name}: not found")))?;
        match fired {
            Some(f) if f.kind == FaultKind::ShortRead => Ok(bytes[..bytes.len() / 2].to_vec()),
            Some(f) => Err(StoreError::Injected {
                op: self.op_count() - 1,
                kind: f.kind,
            }),
            None => Ok(bytes),
        }
    }

    fn read_at(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut st = self.lock();
        let fired = self.tick(&mut st)?;
        let bytes = st
            .visible
            .get(name)
            .ok_or_else(|| StoreError::Io(format!("read_at {name}: not found")))?;
        let start = offset as usize;
        if start + len > bytes.len() {
            return Err(StoreError::Corrupt(format!(
                "short read of {name} at {offset}+{len} (file is {} bytes)",
                bytes.len()
            )));
        }
        let full = bytes[start..start + len].to_vec();
        match fired {
            Some(f) if f.kind == FaultKind::ShortRead => Ok(full[..full.len() / 2].to_vec()),
            Some(f) => Err(StoreError::Injected {
                op: self.op_count() - 1,
                kind: f.kind,
            }),
            None => Ok(full),
        }
    }

    fn write(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut st = self.lock();
        match self.tick(&mut st)? {
            Some(f) if f.kind == FaultKind::TornWrite => {
                // half the bytes land, then the crash
                st.visible
                    .insert(name.to_string(), bytes[..bytes.len() / 2].to_vec());
                Err(st.dead.clone().expect("torn write arms dead state"))
            }
            Some(f) => Err(StoreError::Injected {
                op: self.op_count() - 1,
                kind: f.kind,
            }),
            None => {
                st.visible.insert(name.to_string(), bytes.to_vec());
                Ok(())
            }
        }
    }

    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        let mut st = self.lock();
        let fired = self.tick(&mut st)?;
        let (to_write, err) = match fired {
            Some(f) if f.kind == FaultKind::TornWrite => (
                &bytes[..bytes.len() / 2],
                Some(st.dead.clone().expect("torn write arms dead state")),
            ),
            Some(f) => {
                return Err(StoreError::Injected {
                    op: self.op_count() - 1,
                    kind: f.kind,
                })
            }
            None => (bytes, None),
        };
        let file = st.visible.entry(name.to_string()).or_default();
        let end = offset as usize + to_write.len();
        if file.len() < end {
            file.resize(end, 0);
        }
        file[offset as usize..end].copy_from_slice(to_write);
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn fsync(&self, name: &str) -> Result<()> {
        let mut st = self.lock();
        match self.tick(&mut st)? {
            Some(f) if f.kind == FaultKind::DroppedFsync => Ok(()), // lies
            Some(f) => Err(StoreError::Injected {
                op: self.op_count() - 1,
                kind: f.kind,
            }),
            None => {
                if let Some(bytes) = st.visible.get(name).cloned() {
                    st.durable.insert(name.to_string(), bytes);
                }
                Ok(())
            }
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let mut st = self.lock();
        match self.tick(&mut st)? {
            Some(f) => Err(StoreError::Injected {
                op: self.op_count() - 1,
                kind: f.kind,
            }),
            None => {
                let bytes = st
                    .visible
                    .remove(from)
                    .ok_or_else(|| StoreError::Io(format!("rename {from}: not found")))?;
                st.visible.insert(to.to_string(), bytes);
                // the rename is journaled (atomic + durable), but it can
                // only carry content that was itself made durable
                match st.durable.remove(from) {
                    Some(d) => {
                        st.durable.insert(to.to_string(), d);
                    }
                    None => {
                        st.durable.remove(to);
                    }
                }
                Ok(())
            }
        }
    }

    fn exists(&self, name: &str) -> bool {
        self.lock().visible.contains_key(name)
    }

    fn len(&self, name: &str) -> Option<u64> {
        self.lock().visible.get(name).map(|b| b.len() as u64)
    }

    fn list(&self) -> Vec<String> {
        self.lock().visible.keys().cloned().collect()
    }

    fn remove(&self, name: &str) -> Result<()> {
        let mut st = self.lock();
        match self.tick(&mut st)? {
            Some(f) => Err(StoreError::Injected {
                op: self.op_count() - 1,
                kind: f.kind,
            }),
            None => {
                st.visible.remove(name);
                st.durable.remove(name);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_write_is_volatile_until_fsync() {
        let v = SimVfs::new();
        v.write("a", b"hello").unwrap();
        assert_eq!(v.read("a").unwrap(), b"hello");
        v.crash();
        assert!(!v.exists("a"), "unsynced write dies with the crash");
        v.write("a", b"hello").unwrap();
        v.fsync("a").unwrap();
        v.crash();
        assert_eq!(v.read("a").unwrap(), b"hello");
    }

    #[test]
    fn sim_rename_carries_only_durable_content() {
        let v = SimVfs::new();
        v.write("t.tmp", b"new").unwrap();
        v.rename("t.tmp", "t").unwrap(); // content never fsynced
        assert_eq!(v.read("t").unwrap(), b"new");
        v.crash();
        assert!(!v.exists("t"), "rename of unsynced content is lost");

        v.write("t.tmp", b"new").unwrap();
        v.fsync("t.tmp").unwrap();
        v.rename("t.tmp", "t").unwrap();
        v.crash();
        assert_eq!(v.read("t").unwrap(), b"new");
    }

    #[test]
    fn injected_faults_fire_at_their_op_index() {
        let v = SimVfs::new();
        v.write("a", b"0123456789").unwrap();
        v.fsync("a").unwrap();
        // op 2 = the next read: short
        v.set_fault(Some(FaultPlan {
            fail_at: 2,
            kind: FaultKind::ShortRead,
        }));
        assert_eq!(v.read("a").unwrap().len(), 5);
        assert_eq!(v.read("a").unwrap().len(), 10, "one-shot fault");

        // torn write leaves half the bytes and kills the vfs
        v.set_fault(Some(FaultPlan {
            fail_at: v.op_count(),
            kind: FaultKind::TornWrite,
        }));
        assert!(v.write("b", b"0123456789").is_err());
        assert!(v.read("a").is_err(), "dead after the torn write");
        v.crash();
        assert!(!v.exists("b"));
        assert_eq!(v.read("a").unwrap(), b"0123456789");
    }

    #[test]
    fn dropped_fsync_lies() {
        let v = SimVfs::new();
        v.write("a", b"x").unwrap();
        v.set_fault(Some(FaultPlan {
            fail_at: v.op_count(),
            kind: FaultKind::DroppedFsync,
        }));
        v.fsync("a").unwrap(); // returns Ok, promotes nothing
        v.crash();
        assert!(!v.exists("a"));
    }
}
