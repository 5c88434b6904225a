//! Epoch-versioned on-disk catalogs: segment files, the manifest swap,
//! and the [`DiskCatalog`] provider.
//!
//! # File layout
//!
//! One published epoch `E` is a set of flat files in the store directory:
//!
//! ```text
//! seg-{E}-{i}.smv     one columnar segment per view (header + pages)
//! summary-{E}.smv     serialized Summary (checksum-trailed whole file)
//! feedback-{E}.smv    serialized FeedbackStore (checksum-trailed)
//! manifest-{E}.smv    the commit record naming all of the above
//! ```
//!
//! A segment file is a 24-byte header (`SMVSEG3\n`, page size, page
//! count, payload length) followed by fixed-size pages, each prefixed
//! with an FNV-1a checksum of its payload; the last page may be short.
//! Publishing frames the whole file in memory and writes it once; reads
//! go page by page through the [`BufferPool`]. The payload is the view's
//! normalized extent as [`encode_relation`] writes it, and nothing else.
//! A header with another magic is corruption, not a format to read:
//! `SMVSEG1\n` segments also carried a per-summary-path row partition,
//! and `SMVSEG2\n` ones stored ORDPATH labels as zigzag varints and Dewey
//! ids as rank vectors.
//!
//! # The epoch swap
//!
//! [`DiskStore::publish_epoch`] writes every segment, fsyncs each, writes the
//! summary and feedback files, fsyncs those, then writes the manifest to
//! `manifest-{E}.tmp`, fsyncs it, and **renames** it to
//! `manifest-{E}.smv`. The rename is the commit point: a crash anywhere
//! before it leaves the previous manifest (and every file it names)
//! untouched, so [`DiskStore::open`] recovers the previous epoch exactly.
//! A crash that loses un-fsynced data behind an already-renamed manifest
//! (a lying disk) is caught structurally: `open` validates the manifest
//! checksum and the existence + exact length of every referenced file,
//! and falls back to the next older manifest when anything is off. No
//! partial epoch is ever served.
//!
//! Replaced epochs are garbage-collected best-effort after a successful
//! publish, keeping the two newest manifests so recovery always has a
//! fallback.
//!
//! # What `open` reads
//!
//! **Structure is validated at open, content checksums on first read.**
//! `open` reads one file, the manifest, and stats the files it names; a
//! segment, the summary and the feedback store are each read, checksummed
//! and decoded when a caller first asks for them, so a request pays for
//! the views its plan scans and nothing else. Content damage behind an
//! intact length therefore surfaces as [`StoreError::Corrupt`] from the
//! accessor ([`DiskCatalog::load_extent`], [`DiskCatalog::summary`],
//! [`DiskCatalog::feedback`]), as [`ExecError::Storage`] from a query
//! that scans the view, or from [`DiskCatalog::warm`], which touches
//! everything — never as stale or partial data, and never as a panic.
//!
//! # What a scan reads
//!
//! A scan reads its view's whole segment, once, through the pool, and
//! checks every page and every column. What it builds depends on the
//! plan. A `Project` directly over the `Scan` — the shape single-view
//! rewritings take — asks for the projection
//! ([`ViewProvider::project_scan`]): a segment nobody has decoded yet is
//! decoded with only the kept columns built, straight into the rows the
//! plan returns, and the catalog keeps nothing, so the next such scan
//! reads the segment again. Any other scan, [`DiskCatalog::load_extent`]
//! and [`DiskCatalog::warm`] decode every column and keep the extent for
//! the catalog's lifetime; once kept, scans (projected or not) borrow it.

use crate::codec::{decode_relation, encode_relation};
use crate::io::{Result, StoreError, Vfs};
use crate::pool::{put_page, BufferPool, PAGE_CHECKSUM_BYTES};
use smv_algebra::{ExecError, FeedbackStore, NestedRelation, ViewProvider};
use smv_pattern::{canonical_form, parse_pattern};
use smv_summary::Summary;
use smv_views::{CatalogEpoch, View, ViewStore};
use smv_xml::wire::{fnv64, ByteReader, ByteWriter};
use smv_xml::IdScheme;
use std::sync::{Arc, OnceLock};

const SEG_MAGIC: &[u8; 8] = b"SMVSEG3\n";
const MAN_MAGIC: &[u8; 8] = b"SMVMAN1\n";
const SEG_HEADER: u64 = 24;

/// Tuning knobs for a [`DiskStore`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Payload bytes per page; [`DiskStore::with_options`] clamps it to
    /// `1..=u32::MAX`, the range a segment header records.
    pub page_size: usize,
    /// Buffer-pool budget, in pages, for catalogs opened by this store.
    pub pool_pages: usize,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            page_size: 4096,
            pool_pages: 128,
        }
    }
}

// ---------------------------------------------------------------------------
// file naming

fn seg_name(epoch: u64, i: usize) -> String {
    format!("seg-{epoch:020}-{i}.smv")
}

fn summary_name(epoch: u64) -> String {
    format!("summary-{epoch:020}.smv")
}

fn feedback_name(epoch: u64) -> String {
    format!("feedback-{epoch:020}.smv")
}

fn manifest_name(epoch: u64) -> String {
    format!("manifest-{epoch:020}.smv")
}

fn manifest_tmp(epoch: u64) -> String {
    format!("manifest-{epoch:020}.tmp")
}

/// Parses the epoch out of any store filename.
fn file_epoch(name: &str) -> Option<u64> {
    let rest = name
        .strip_prefix("manifest-")
        .or_else(|| name.strip_prefix("summary-"))
        .or_else(|| name.strip_prefix("feedback-"))
        .or_else(|| name.strip_prefix("seg-"))?;
    rest.get(..20)?.parse().ok()
}

fn manifest_epoch(name: &str) -> Option<u64> {
    if name.starts_with("manifest-") && name.ends_with(".smv") {
        file_epoch(name)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// whole-file writes; checksum-trailed small files (summary / feedback / manifest)

/// The store's only write: `bytes` as the whole of `name`, made durable
/// before it returns. Returns the file's length.
fn write_durable(vfs: &dyn Vfs, name: &str, bytes: &[u8]) -> Result<u64> {
    vfs.write(name, bytes)?;
    vfs.fsync(name)?;
    Ok(bytes.len() as u64)
}

/// Writes `bytes` + checksum trailer durably; returns the file's length.
fn write_small(vfs: &dyn Vfs, name: &str, mut bytes: Vec<u8>) -> Result<u64> {
    let sum = fnv64(&bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    write_durable(vfs, name, &bytes)
}

fn read_small(vfs: &dyn Vfs, name: &str) -> Result<Vec<u8>> {
    let mut bytes = vfs.read(name)?;
    let Some(body_len) = bytes.len().checked_sub(8) else {
        return Err(StoreError::Corrupt(format!("{name}: too short")));
    };
    if fnv64(&bytes[..body_len]).to_le_bytes() != bytes[body_len..] {
        return Err(StoreError::Corrupt(format!("{name}: checksum mismatch")));
    }
    bytes.truncate(body_len);
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// segment files

/// On-disk byte length of a segment holding `payload_len` payload bytes.
fn segment_len(page_size: usize, payload_len: usize) -> u64 {
    let n_pages = payload_len.div_ceil(page_size).max(1) as u64;
    let last = if payload_len == 0 {
        0
    } else {
        payload_len - (n_pages as usize - 1) * page_size
    };
    SEG_HEADER
        + (n_pages - 1) * (PAGE_CHECKSUM_BYTES + page_size as u64)
        + PAGE_CHECKSUM_BYTES
        + last as u64
}

/// Frames one segment in memory — the header, then each page — and
/// writes it durably as one file. An empty payload is one empty page.
fn write_segment(vfs: &dyn Vfs, page_size: usize, file: &str, payload: &[u8]) -> Result<u64> {
    let n_pages = payload.len().div_ceil(page_size).max(1);
    let mut seg = Vec::with_capacity(segment_len(page_size, payload.len()) as usize);
    seg.extend_from_slice(SEG_MAGIC);
    seg.extend_from_slice(&(page_size as u32).to_le_bytes());
    seg.extend_from_slice(&(n_pages as u32).to_le_bytes());
    seg.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    for i in 0..n_pages {
        let start = i * page_size;
        put_page(
            &mut seg,
            &payload[start..(start + page_size).min(payload.len())],
        );
    }
    write_durable(vfs, file, &seg)
}

/// Reads a whole segment payload back through the pool, page by page.
/// The header must agree with what the manifest recorded for the file
/// (`seg`), so every length used below is one `open` already checked
/// against the disk.
fn read_segment(vfs: &dyn Vfs, pool: &Arc<BufferPool>, seg: &SegMeta) -> Result<Vec<u8>> {
    let file = &seg.file;
    let hdr = vfs.read_at(file, 0, SEG_HEADER as usize)?;
    if hdr.len() != SEG_HEADER as usize || &hdr[..8] != SEG_MAGIC {
        return Err(StoreError::Corrupt(format!("{file}: bad segment header")));
    }
    // little-endian fields of a header whose length was just checked
    let field = |at: usize, len: usize| {
        hdr[at..at + len]
            .iter()
            .rev()
            .fold(0u64, |x, &b| x << 8 | u64::from(b))
    };
    let page_size = field(8, 4) as usize;
    let n_pages = field(12, 4) as usize;
    let payload_len = field(16, 8);
    let in_file = usize::try_from(payload_len).ok().filter(|_| {
        page_size != 0 && payload_len == seg.payload_len && payload_len <= seg.file_len
    });
    let Some(payload_len) = in_file else {
        return Err(StoreError::Corrupt(format!(
            "{file}: header disagrees with the manifest"
        )));
    };
    if n_pages != payload_len.div_ceil(page_size).max(1)
        || segment_len(page_size, payload_len) != seg.file_len
    {
        return Err(StoreError::Corrupt(format!(
            "{file}: inconsistent segment geometry"
        )));
    }
    let mut out = Vec::with_capacity(payload_len);
    for i in 0..n_pages {
        let start = i * page_size;
        let len = (payload_len - start).min(page_size);
        let offset = SEG_HEADER + i as u64 * (PAGE_CHECKSUM_BYTES + page_size as u64);
        let page = pool.get(file, i as u32, offset, len)?;
        out.extend_from_slice(page.bytes());
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// manifest

struct SegEntry {
    name: String,
    pattern: String,
    scheme: IdScheme,
    file: String,
    payload_len: u64,
    file_len: u64,
}

struct Manifest {
    epoch: u64,
    segs: Vec<SegEntry>,
    summary: Option<(String, u64)>,
    feedback: Option<(String, u64)>,
}

fn scheme_tag(s: IdScheme) -> u8 {
    match s {
        IdScheme::OrdPath => 0,
        IdScheme::Dewey => 1,
        IdScheme::Sequential => 2,
    }
}

fn scheme_from_tag(t: u8) -> Result<IdScheme> {
    match t {
        0 => Ok(IdScheme::OrdPath),
        1 => Ok(IdScheme::Dewey),
        2 => Ok(IdScheme::Sequential),
        t => Err(StoreError::Corrupt(format!("bad id scheme tag {t}"))),
    }
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(MAN_MAGIC);
    w.put_u64(m.epoch);
    w.put_uv(m.segs.len() as u64);
    for s in &m.segs {
        w.put_str(&s.name);
        w.put_str(&s.pattern);
        w.put_u8(scheme_tag(s.scheme));
        w.put_str(&s.file);
        w.put_u64(s.payload_len);
        w.put_u64(s.file_len);
    }
    for opt in [&m.summary, &m.feedback] {
        match opt {
            Some((name, len)) => {
                w.put_u8(1);
                w.put_str(name);
                w.put_u64(*len);
            }
            None => w.put_u8(0),
        }
    }
    w.into_bytes()
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest> {
    let mut r = ByteReader::new(bytes);
    if r.take(MAN_MAGIC.len())? != MAN_MAGIC {
        return Err(StoreError::Corrupt("bad manifest magic".into()));
    }
    let epoch = r.get_u64()?;
    let n = r.get_count()?;
    let mut segs = Vec::with_capacity(n);
    for _ in 0..n {
        segs.push(SegEntry {
            name: r.get_str()?,
            pattern: r.get_str()?,
            scheme: scheme_from_tag(r.get_u8()?)?,
            file: r.get_str()?,
            payload_len: r.get_u64()?,
            file_len: r.get_u64()?,
        });
    }
    let mut opts = [None, None];
    for slot in &mut opts {
        if r.get_u8()? == 1 {
            *slot = Some((r.get_str()?, r.get_u64()?));
        }
    }
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt("trailing bytes after manifest".into()));
    }
    let [summary, feedback] = opts;
    Ok(Manifest {
        epoch,
        segs,
        summary,
        feedback,
    })
}

// ---------------------------------------------------------------------------
// the store

/// Handle on one store directory: publishes epochs and opens catalogs.
pub struct DiskStore {
    vfs: Arc<dyn Vfs>,
    opts: StoreOptions,
}

impl DiskStore {
    /// A store over `vfs` with default [`StoreOptions`].
    pub fn new(vfs: Arc<dyn Vfs>) -> DiskStore {
        DiskStore::with_options(vfs, StoreOptions::default())
    }

    /// A store with explicit page size and pool budget.
    pub fn with_options(vfs: Arc<dyn Vfs>, mut opts: StoreOptions) -> DiskStore {
        opts.page_size = opts.page_size.clamp(1, u32::MAX as usize);
        DiskStore { vfs, opts }
    }

    /// Publishes an [`EpochCatalog`](smv_views::EpochCatalog) snapshot at
    /// its own epoch number: every view extent, the summary, and
    /// optionally a feedback store. Durable at return; a
    /// crash at any interior point leaves the previously published epoch
    /// intact.
    pub fn publish_epoch(
        &self,
        snap: &CatalogEpoch,
        feedback: Option<&FeedbackStore>,
    ) -> Result<()> {
        let epoch = snap.epoch();
        let mut segs = Vec::new();
        for (i, view) in snap.views().iter().enumerate() {
            let extent = snap
                .extent(&view.name)
                .map_err(|e| StoreError::Io(e.to_string()))?;
            let payload = encode_relation(extent);
            let file = seg_name(epoch, i);
            let file_len = write_segment(self.vfs.as_ref(), self.opts.page_size, &file, &payload)?;
            segs.push(SegEntry {
                name: view.name.clone(),
                pattern: canonical_form(&view.pattern),
                scheme: view.scheme,
                file,
                payload_len: payload.len() as u64,
                file_len,
            });
        }
        let small = |name: String, bytes: Vec<u8>| {
            write_small(self.vfs.as_ref(), &name, bytes).map(|len| (name, len))
        };
        let summary = Some(small(summary_name(epoch), snap.summary().to_bytes())?);
        let feedback = feedback
            .map(|f| small(feedback_name(epoch), f.to_bytes()))
            .transpose()?;
        let manifest = Manifest {
            epoch,
            segs,
            summary,
            feedback,
        };
        let tmp = manifest_tmp(epoch);
        write_small(self.vfs.as_ref(), &tmp, encode_manifest(&manifest))?;
        // the commit point
        self.vfs.rename(&tmp, &manifest_name(epoch))?;
        self.gc();
        Ok(())
    }

    /// The newest epoch with a committed manifest, if any.
    pub fn latest_epoch(&self) -> Option<u64> {
        self.manifest_epochs().first().copied()
    }

    /// Committed manifest epochs, newest first.
    fn manifest_epochs(&self) -> Vec<u64> {
        let mut es: Vec<u64> = self
            .vfs
            .list()
            .iter()
            .filter_map(|n| manifest_epoch(n))
            .collect();
        es.sort_unstable_by(|a, b| b.cmp(a));
        es
    }

    /// Opens the newest *recoverable* epoch: manifests are tried newest
    /// first and an epoch is served only if its manifest checksum and
    /// every referenced file (existence + exact length) validate. The
    /// manifest is the only file read; see the module docs for what is
    /// checked when.
    pub fn open(&self) -> Result<DiskCatalog> {
        let mut last_err = None;
        for e in self.manifest_epochs() {
            match self.open_epoch(e) {
                Ok(cat) => return Ok(cat),
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.unwrap_or_else(|| StoreError::Corrupt("no published epoch in store".into())))
    }

    fn open_epoch(&self, epoch: u64) -> Result<DiskCatalog> {
        let bytes = read_small(self.vfs.as_ref(), &manifest_name(epoch))?;
        let m = decode_manifest(&bytes)?;
        if m.epoch != epoch {
            return Err(StoreError::Corrupt(format!(
                "manifest-{epoch} claims epoch {}",
                m.epoch
            )));
        }
        // structural validation: every referenced file, exact length
        for (file, want) in m
            .segs
            .iter()
            .map(|s| (&s.file, s.file_len))
            .chain(m.summary.iter().map(|(n, l)| (n, *l)))
            .chain(m.feedback.iter().map(|(n, l)| (n, *l)))
        {
            match self.vfs.len(file) {
                Some(len) if len == want => {}
                Some(len) => {
                    return Err(StoreError::Corrupt(format!(
                        "{file}: {len} bytes on disk, manifest says {want}"
                    )))
                }
                None => {
                    return Err(StoreError::Corrupt(format!(
                        "{file}: named by manifest but missing"
                    )))
                }
            }
        }
        let mut views = Vec::with_capacity(m.segs.len());
        let mut segs = Vec::with_capacity(m.segs.len());
        for s in m.segs {
            let pattern = parse_pattern(&s.pattern).map_err(|e| {
                StoreError::Corrupt(format!("view '{}': unparseable pattern: {e}", s.name))
            })?;
            views.push(View::new(&s.name, pattern, s.scheme));
            segs.push(SegMeta {
                file: s.file,
                payload_len: s.payload_len,
                file_len: s.file_len,
                loaded: OnceLock::new(),
            });
        }
        Ok(DiskCatalog {
            vfs: Arc::clone(&self.vfs),
            pool: BufferPool::new(Arc::clone(&self.vfs), self.opts.pool_pages),
            epoch,
            views,
            segs,
            summary: LazyFile::new(m.summary),
            feedback: LazyFile::new(m.feedback),
        })
    }

    /// Best-effort cleanup: keeps the two newest committed manifests and
    /// every file of their epochs; removes everything older.
    fn gc(&self) {
        let epochs = self.manifest_epochs();
        let Some(&floor) = epochs.get(1).or_else(|| epochs.first()) else {
            return;
        };
        for name in self.vfs.list() {
            if let Some(e) = file_epoch(&name) {
                if e < floor {
                    let _ = self.vfs.remove(&name);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the catalog

/// One view's segment as the manifest names it, plus its decoded form
/// once something has asked for it.
struct SegMeta {
    file: String,
    payload_len: u64,
    file_len: u64,
    loaded: OnceLock<NestedRelation>,
}

/// A checksum-trailed file the manifest names (or does not), read,
/// verified and decoded when first asked for. A failed load caches
/// nothing, so a transient fault is retried by the next call.
struct LazyFile<T> {
    file: Option<String>,
    value: OnceLock<T>,
}

impl<T> LazyFile<T> {
    fn new(entry: Option<(String, u64)>) -> LazyFile<T> {
        LazyFile {
            file: entry.map(|(name, _)| name),
            value: OnceLock::new(),
        }
    }

    fn get(
        &self,
        vfs: &dyn Vfs,
        decode: impl FnOnce(&[u8]) -> std::result::Result<T, String>,
    ) -> Result<Option<&T>> {
        let Some(file) = &self.file else {
            return Ok(None);
        };
        if let Some(v) = self.value.get() {
            return Ok(Some(v));
        }
        let body = read_small(vfs, file)?;
        let v = decode(&body).map_err(|e| StoreError::Corrupt(format!("{file}: {e}")))?;
        Ok(Some(self.value.get_or_init(|| v)))
    }
}

/// A read-only catalog over one published epoch. Opening it read the
/// manifest and nothing else: each extent, the summary and the feedback
/// store are read (extents through the buffer pool), checksum-verified
/// and decoded on first touch, then kept — except an extent a projected
/// scan reads, which is built to the plan's columns and not kept.
/// *Structure is validated at open, content checksums on first read* —
/// see the module docs.
///
/// `DiskCatalog` implements [`ViewProvider`], so it drops into the
/// executor anywhere an in-memory [`CatalogEpoch`] does. A segment that
/// fails to read, fails its checksum or fails to decode makes the query
/// that scans it fail with [`ExecError::Storage`]; nothing on the read
/// path panics.
pub struct DiskCatalog {
    vfs: Arc<dyn Vfs>,
    pool: Arc<BufferPool>,
    epoch: u64,
    views: Vec<View>,
    segs: Vec<SegMeta>,
    summary: LazyFile<Summary>,
    feedback: LazyFile<FeedbackStore>,
}

impl DiskCatalog {
    /// The epoch this catalog serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The buffer pool (hit, miss and eviction counters).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The persisted summary: `Ok(None)` if none was published, `Err` if
    /// its file fails its checksum or does not decode.
    pub fn summary(&self) -> Result<Option<&Summary>> {
        self.summary.get(self.vfs.as_ref(), Summary::from_bytes)
    }

    /// The persisted feedback store; same contract as
    /// [`DiskCatalog::summary`].
    pub fn feedback(&self) -> Result<Option<&FeedbackStore>> {
        self.feedback
            .get(self.vfs.as_ref(), FeedbackStore::from_bytes)
    }

    /// Takes ownership of the persisted feedback store; afterwards the
    /// catalog has none.
    pub fn take_feedback(&mut self) -> Result<Option<FeedbackStore>> {
        self.feedback()?;
        self.feedback.file = None;
        Ok(self.feedback.value.take())
    }

    fn index_of(&self, name: &str) -> Option<usize> {
        self.views.iter().position(|v| v.name == name)
    }

    /// `name`'s index, or the executor's error for an unknown view.
    fn view_index(&self, name: &str) -> std::result::Result<usize, ExecError> {
        self.index_of(name)
            .ok_or_else(|| ExecError::UnknownView(name.to_owned()))
    }

    fn load(&self, i: usize) -> Result<&NestedRelation> {
        let seg = &self.segs[i];
        if let Some(extent) = seg.loaded.get() {
            return Ok(extent);
        }
        let extent = self.read_view(i, None)?;
        Ok(seg.loaded.get_or_init(|| extent))
    }

    /// Reads, checksums and decodes segment `i`, building only the extent
    /// columns `cols` lists ([`decode_relation`]); every byte of the
    /// payload is checked either way. Keeps nothing.
    fn read_view(&self, i: usize, cols: Option<&[usize]>) -> Result<NestedRelation> {
        let seg = &self.segs[i];
        let payload = read_segment(self.vfs.as_ref(), &self.pool, seg)?;
        decode_relation(&payload, cols)
    }

    /// The view definitions the manifest names, in publish order.
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// Checked extent read: `Ok(None)` for an unknown view, `Err` on
    /// corruption.
    pub fn load_extent(&self, name: &str) -> Result<Option<&NestedRelation>> {
        match self.index_of(name) {
            Some(i) => Ok(Some(self.load(i)?)),
            None => Ok(None),
        }
    }

    /// Reads and decodes everything the epoch holds — every view, the
    /// summary, the feedback store — surfacing any corruption up front.
    pub fn warm(&self) -> Result<()> {
        for i in 0..self.views.len() {
            self.load(i)?;
        }
        self.summary()?;
        self.feedback()?;
        Ok(())
    }
}

/// A store error as the executor reports it for a scan of `view`.
fn storage(view: &str) -> impl FnOnce(StoreError) -> ExecError + '_ {
    move |e| ExecError::Storage {
        view: view.to_owned(),
        error: e.to_string(),
    }
}

impl ViewProvider for DiskCatalog {
    fn extent(&self, name: &str) -> std::result::Result<&NestedRelation, ExecError> {
        let i = self.view_index(name)?;
        self.load(i).map_err(storage(name))
    }

    /// A segment not yet decoded is read and decoded with only `cols`
    /// built, every column still checked, and nothing is kept: a later
    /// scan reads it again. A decoded segment is borrowed (`None`), and so
    /// is a `cols` past the view's schema, declined before any read so
    /// that the scan reads the segment once; the generic path reports it.
    fn project_scan(
        &self,
        name: &str,
        cols: &[usize],
    ) -> std::result::Result<Option<NestedRelation>, ExecError> {
        let i = self.view_index(name)?;
        let past_schema = |&c: &usize| c >= self.views[i].schema().len();
        if self.segs[i].loaded.get().is_some() || cols.iter().max().is_some_and(past_schema) {
            return Ok(None);
        }
        let extent = self.read_view(i, Some(cols)).map_err(storage(name))?;
        // the segment's bytes, not the definition, give the stored schema
        Ok((extent.schema.len() == cols.len()).then_some(extent))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimVfs;
    use smv_views::{EpochCatalog, RefreshPolicy};
    use smv_xml::parse_document;

    const DOC: &str = "<lib><book><title>a</title><year>1</year></book>\
                       <book><title>b</title><year>2</year></book></lib>";

    fn titles(scheme: IdScheme) -> View {
        View::new(
            "titles",
            parse_pattern("lib(/book{id}(/title{v}))").unwrap(),
            scheme,
        )
    }

    /// At epoch 1, holding `titles`; re-registering it publishes the next.
    fn catalog(scheme: IdScheme) -> EpochCatalog {
        let mut ec = EpochCatalog::new(parse_document(DOC).unwrap(), scheme);
        ec.add_view(titles(scheme), RefreshPolicy::Eager);
        ec
    }

    #[test]
    fn publish_then_open_round_trips() {
        let vfs = SimVfs::new();
        let store = DiskStore::new(Arc::new(vfs));
        let snap = catalog(IdScheme::OrdPath).snapshot();
        store.publish_epoch(&snap, None).unwrap();
        let disk = store.open().unwrap();
        assert_eq!(disk.epoch(), 1);
        assert_eq!(disk.views().len(), 1);
        let want = snap.extent("titles").unwrap();
        let got = disk.load_extent("titles").unwrap().unwrap();
        assert_eq!(want.rows, got.rows);
        assert_eq!(want.schema, got.schema);
        assert!(disk.extent("zz").is_err());
    }

    #[test]
    fn newer_epoch_wins_and_gc_keeps_two() {
        let vfs = SimVfs::new();
        let store = DiskStore::new(Arc::new(vfs.clone()));
        let mut ec = catalog(IdScheme::Sequential);
        store.publish_epoch(&ec.snapshot(), None).unwrap();
        for _ in 2..=4 {
            ec.add_view(titles(IdScheme::Sequential), RefreshPolicy::Eager);
            store.publish_epoch(&ec.snapshot(), None).unwrap();
        }
        assert_eq!(store.open().unwrap().epoch(), 4);
        let epochs: Vec<_> = vfs.list().iter().filter_map(|n| file_epoch(n)).collect();
        assert!(
            epochs.iter().all(|&e| e >= 3),
            "old epochs gone: {epochs:?}"
        );
    }

    #[test]
    fn missing_segment_falls_back_to_previous_epoch() {
        let vfs = SimVfs::new();
        let store = DiskStore::new(Arc::new(vfs.clone()));
        let mut ec = catalog(IdScheme::Dewey);
        store.publish_epoch(&ec.snapshot(), None).unwrap();
        ec.add_view(titles(IdScheme::Dewey), RefreshPolicy::Eager);
        store.publish_epoch(&ec.snapshot(), None).unwrap();
        vfs.remove(&seg_name(2, 0)).unwrap();
        assert_eq!(store.open().unwrap().epoch(), 1);
    }
}
