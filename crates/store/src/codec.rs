//! Columnar segment codec for normalized extents.
//!
//! A [`NestedRelation`] serializes column-at-a-time:
//!
//! * every column carries a run-length-encoded stream of *cell tags*
//!   (null / id / label / atom / content / table), so optional columns
//!   cost one run per null stretch;
//! * **ID columns** are delta-coded in document order — ORDPATH and
//!   Dewey ids front-code their byte labels (`smv-xml`'s order-preserving
//!   code) against the previous id's label (shared prefix length +
//!   suffix), and sequential ids are zigzag deltas — which is where
//!   document-order-sorted extents compress best;
//! * **labels, string values and serialized content** go through an
//!   in-segment string dictionary (strings are stored once and cells
//!   store dictionary slots, label slots additionally run-length
//!   encoded). The dictionary stores *strings*, not interned
//!   [`Symbol`] indexes: symbol numbering is
//!   process-local, so the decoder re-interns on load;
//! * nested table cells recurse with the same codec.
//!
//! Decoding is checked end to end: every length and tag is validated and
//! truncated or mismatched bytes surface as
//! [`StoreError::Corrupt`](crate::StoreError) — never as garbage rows, a
//! panic or an aborting allocation. Every element count whose elements
//! take bytes (runs, dictionary strings, columns, …) is
//! refused when it exceeds the bytes still unread
//! ([`ByteReader::get_count`]); the row count, which run-length coding
//! lets cost nothing, must agree with the first column's tag runs before
//! the rows are built, and building them is a fallible allocation;
//! nesting is refused past a fixed depth.
//!
//! The decoder builds what the executor wants — row-major [`Row`]s — in
//! one pass per column: the rows are sized once and each column's cells
//! are pushed straight into them, tag run by tag run, so a row costs its
//! cell vector and nothing per cell. A string costs one allocation per
//! dictionary slot, not per cell: the first built cell that names a slot
//! makes the slot's `Arc<str>`, and every later one shares it. An id
//! costs none unless its label is longer than 22 bytes: the label is
//! rebuilt in the coder's buffer from the previous one, checked, and
//! copied into the id inline.
//!
//! **Projected decode.** [`decode_relation`] takes an optional column
//! list and then builds only those columns: the rows are sized to the
//! kept width, and a skipped column's tag runs and payloads are parsed
//! and checked exactly as a full decode checks them — id deltas and
//! labels, dictionary slots, label runs, nested tables — with
//! nothing built for them (no id, no interned label, no string). So a
//! projected decode fails exactly when the full decode would, and a
//! corrupt column the caller does not read still fails the read.

use crate::io::{Result, StoreError};
use smv_algebra::{AttrKind, Cell, ColKind, Column, NestedRelation, Row, Schema};
use smv_xml::wire::{ByteReader, ByteWriter};
use smv_xml::{DeweyId, Label, OrdPath, StructId, Symbol, Value};
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// string dictionary

#[derive(Default)]
struct DictBuilder {
    slots: HashMap<String, u64>,
    strings: Vec<String>,
}

impl DictBuilder {
    fn slot(&mut self, s: &str) -> u64 {
        if let Some(&i) = self.slots.get(s) {
            return i;
        }
        let i = self.strings.len() as u64;
        self.slots.insert(s.to_string(), i);
        self.strings.push(s.to_string());
        i
    }

    fn encode(&self, w: &mut ByteWriter) {
        w.put_uv(self.strings.len() as u64);
        for s in &self.strings {
            w.put_str(s);
        }
    }
}

/// A segment's string dictionary: its strings, borrowed from the stream,
/// and beside each slot the one `Arc` every built cell naming the slot
/// shares, made when a cell first asks for it.
struct Dict<'a> {
    strings: Vec<&'a str>,
    shared: Vec<Option<Arc<str>>>,
}

impl<'a> Dict<'a> {
    fn decode(r: &mut ByteReader<'a>) -> Result<Dict<'a>> {
        let n = r.get_count()?;
        let mut strings = Vec::with_capacity(n);
        for _ in 0..n {
            strings.push(r.get_str_ref()?);
        }
        Ok(Dict {
            strings,
            shared: vec![None; n],
        })
    }

    /// `slot`'s index, checked.
    fn index(&self, slot: u64) -> Result<usize> {
        usize::try_from(slot)
            .ok()
            .filter(|&i| i < self.strings.len())
            .ok_or_else(|| StoreError::Corrupt(format!("dictionary slot {slot} out of range")))
    }

    /// `slot`'s string, checked.
    fn get(&self, slot: u64) -> Result<&'a str> {
        Ok(self.strings[self.index(slot)?])
    }

    /// `slot`'s string as the slot's shared `Arc`, checked.
    fn shared(&mut self, slot: u64) -> Result<Arc<str>> {
        let i = self.index(slot)?;
        let s = self.strings[i];
        Ok(self.shared[i].get_or_insert_with(|| s.into()).clone())
    }
}

// ---------------------------------------------------------------------------
// schema

const KIND_ID: u8 = 0;
const KIND_LABEL: u8 = 1;
const KIND_VALUE: u8 = 2;
const KIND_CONTENT: u8 = 3;
const KIND_NESTED: u8 = 4;

fn encode_schema(w: &mut ByteWriter, s: &Schema) {
    w.put_uv(s.cols.len() as u64);
    for c in &s.cols {
        w.put_str(c.name.as_str());
        match &c.kind {
            ColKind::Atom(AttrKind::Id) => w.put_u8(KIND_ID),
            ColKind::Atom(AttrKind::Label) => w.put_u8(KIND_LABEL),
            ColKind::Atom(AttrKind::Value) => w.put_u8(KIND_VALUE),
            ColKind::Atom(AttrKind::Content) => w.put_u8(KIND_CONTENT),
            ColKind::Nested(inner) => {
                w.put_u8(KIND_NESTED);
                encode_schema(w, inner);
            }
        }
    }
}

/// How deep nested schemas and nested table cells may go before the
/// decoder calls the input corrupt (it recurses once per level).
const MAX_NESTING: usize = 64;

fn decode_schema(r: &mut ByteReader, depth: usize) -> Result<Schema> {
    if depth > MAX_NESTING {
        return Err(StoreError::Corrupt("schema nested too deep".into()));
    }
    let n = r.get_count()?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let name = Symbol::intern(r.get_str_ref()?);
        let kind = match r.get_u8()? {
            KIND_ID => ColKind::Atom(AttrKind::Id),
            KIND_LABEL => ColKind::Atom(AttrKind::Label),
            KIND_VALUE => ColKind::Atom(AttrKind::Value),
            KIND_CONTENT => ColKind::Atom(AttrKind::Content),
            KIND_NESTED => ColKind::Nested(decode_schema(r, depth + 1)?),
            k => return Err(StoreError::Corrupt(format!("bad column kind {k}"))),
        };
        cols.push(Column { name, kind });
    }
    Ok(Schema { cols })
}

// ---------------------------------------------------------------------------
// cell tags (match the Cell variant order)

const TAG_NULL: u8 = 0;
const TAG_ID: u8 = 1;
const TAG_LABEL: u8 = 2;
const TAG_ATOM: u8 = 3;
const TAG_CONTENT: u8 = 4;
const TAG_TABLE: u8 = 5;

fn cell_tag(c: &Cell) -> u8 {
    match c {
        Cell::Null => TAG_NULL,
        Cell::Id(_) => TAG_ID,
        Cell::Label(_) => TAG_LABEL,
        Cell::Atom(_) => TAG_ATOM,
        Cell::Content(_) => TAG_CONTENT,
        Cell::Table(_) => TAG_TABLE,
    }
}

// ---------------------------------------------------------------------------
// id delta coding

const ID_ORD: u8 = 0;
const ID_DEWEY: u8 = 1;
const ID_SEQ: u8 = 2;

/// Per-column coder state: the previous id's label bytes, which the next
/// ORDPATH or Dewey label front-codes against (document order shares long
/// prefixes), and the previous sequence number.
#[derive(Default)]
struct IdCoder {
    prev: Vec<u8>,
    prev_seq: u64,
}

impl IdCoder {
    fn encode(&mut self, w: &mut ByteWriter, id: &StructId) {
        let (variant, label) = match id {
            StructId::Ord(o) => (ID_ORD, o.as_bytes()),
            StructId::Dewey(d) => (ID_DEWEY, d.as_bytes()),
            StructId::Seq(s) => {
                w.put_u8(ID_SEQ);
                w.put_iv(s.wrapping_sub(self.prev_seq) as i64);
                self.prev_seq = *s;
                return;
            }
        };
        w.put_u8(variant);
        let shared = common_prefix(&self.prev, label);
        w.put_uv(shared as u64);
        w.put_bytes(&label[shared..]);
        self.prev.clear();
        self.prev.extend_from_slice(label);
    }

    /// Reads the next id's delta into the coder's state and returns its
    /// variant. The previous label is edited in place into the next one
    /// (`truncate` to the shared prefix, append the suffix).
    fn step(&mut self, r: &mut ByteReader) -> Result<u8> {
        let variant = r.get_u8()?;
        match variant {
            ID_ORD | ID_DEWEY => {
                let shared = match r.get_uv()? {
                    n if n <= self.prev.len() as u64 => n as usize,
                    _ => return Err(StoreError::Corrupt("id prefix overrun".into())),
                };
                self.prev.truncate(shared);
                self.prev.extend_from_slice(r.get_bytes()?);
            }
            ID_SEQ => self.prev_seq = self.prev_seq.wrapping_add(r.get_iv()? as u64),
            t => return Err(StoreError::Corrupt(format!("bad id variant {t}"))),
        }
        Ok(variant)
    }

    /// Decodes the next id: the label is checked, then copied — inline,
    /// allocating nothing, unless it is too long to be.
    fn decode(&mut self, r: &mut ByteReader) -> Result<StructId> {
        match self.step(r)? {
            ID_ORD => OrdPath::try_from_bytes(&self.prev).map(StructId::Ord),
            ID_DEWEY => DeweyId::try_from_bytes(&self.prev).map(StructId::Dewey),
            _ => return Ok(StructId::Seq(self.prev_seq)),
        }
        .ok_or_else(malformed_label)
    }

    /// [`IdCoder::decode`]'s checks without building the id.
    fn skip(&mut self, r: &mut ByteReader) -> Result<()> {
        let variant = self.step(r)?;
        label_ok(variant, &self.prev)
            .then_some(())
            .ok_or_else(malformed_label)
    }
}

fn malformed_label() -> StoreError {
    StoreError::Corrupt("malformed id label".into())
}

/// Whether the decoder accepts `bytes` as the label of an id of
/// `variant` — the validator `try_from_bytes` runs, without building the
/// label.
fn label_ok(variant: u8, bytes: &[u8]) -> bool {
    match variant {
        ID_ORD => OrdPath::valid_bytes(bytes),
        ID_DEWEY => DeweyId::valid_bytes(bytes),
        _ => true,
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

// ---------------------------------------------------------------------------
// relation encode

/// Serializes a relation column-at-a-time; see the module docs for the
/// layout. The encoding is exact: rows, row order and `sorted_on` all
/// round-trip identically through [`decode_relation`].
pub fn encode_relation(rel: &NestedRelation) -> Vec<u8> {
    let mut dict = DictBuilder::default();
    let mut body = ByteWriter::new();
    encode_rows(&mut body, &mut dict, &rel.schema, &rel.rows);
    let mut w = ByteWriter::new();
    encode_schema(&mut w, &rel.schema);
    w.put_uv(rel.rows.len() as u64);
    match rel.sorted_on {
        None => w.put_uv(0),
        Some(c) => w.put_uv(c as u64 + 1),
    }
    dict.encode(&mut w);
    w.put_raw(&body.into_bytes());
    w.into_bytes()
}

fn encode_rows(w: &mut ByteWriter, dict: &mut DictBuilder, schema: &Schema, rows: &[Row]) {
    for (ci, _col) in schema.cols.iter().enumerate() {
        // tag runs
        let mut runs: Vec<(u8, u64)> = Vec::new();
        for row in rows {
            let t = cell_tag(&row.cells[ci]);
            match runs.last_mut() {
                Some((lt, n)) if *lt == t => *n += 1,
                _ => runs.push((t, 1)),
            }
        }
        w.put_uv(runs.len() as u64);
        for &(t, n) in &runs {
            w.put_u8(t);
            w.put_uv(n);
        }
        // payloads, column order
        let mut ids = IdCoder::default();
        // run-length state for label/int payloads
        let mut pending_label: Option<(u64, u64)> = None;
        let flush_label = |w: &mut ByteWriter, p: &mut Option<(u64, u64)>| {
            if let Some((slot, n)) = p.take() {
                w.put_uv(slot);
                w.put_uv(n);
            }
        };
        for row in rows {
            match &row.cells[ci] {
                Cell::Null => {}
                Cell::Id(id) => ids.encode(w, id),
                Cell::Label(l) => {
                    let slot = dict.slot(l.as_str());
                    match &mut pending_label {
                        Some((s, n)) if *s == slot => *n += 1,
                        _ => {
                            flush_label(w, &mut pending_label);
                            pending_label = Some((slot, 1));
                        }
                    }
                }
                Cell::Atom(Value::Int(i)) => {
                    w.put_u8(0);
                    w.put_iv(*i);
                }
                Cell::Atom(Value::Str(s)) => {
                    w.put_u8(1);
                    w.put_uv(dict.slot(s));
                }
                Cell::Content(s) => w.put_uv(dict.slot(s)),
                Cell::Table(t) => {
                    // nested tables recurse with their own dictionary —
                    // they are rare and keeping them self-contained lets
                    // the decoder reuse decode_relation wholesale
                    w.put_bytes(&encode_relation(t));
                }
            }
            // a non-label cell breaks any label run
            if !matches!(&row.cells[ci], Cell::Label(_)) {
                flush_label(w, &mut pending_label);
            }
        }
        flush_label(w, &mut pending_label);
    }
}

/// `n_rows` rows with room for `n_cols` cells each; an allocation the
/// machine refuses is the input's fault, not an abort.
fn empty_rows(n_rows: usize, n_cols: usize) -> Result<Vec<Row>> {
    let refused = |_| StoreError::Corrupt(format!("no memory for {n_rows} x {n_cols} cells"));
    let mut rows = Vec::new();
    rows.try_reserve_exact(n_rows).map_err(refused)?;
    for _ in 0..n_rows {
        let mut cells = Vec::new();
        cells.try_reserve_exact(n_cols).map_err(refused)?;
        rows.push(Row::new(cells));
    }
    Ok(rows)
}

/// Decodes a relation encoded by [`encode_relation`]; checked throughout.
///
/// `cols` is a projection: `None` builds every column; `Some(cols)` builds
/// only the stored columns whose indexes `cols` lists, in stored order
/// (an index past the stored schema names nothing). The other columns are
/// parsed and checked exactly as a full decode checks them, but nothing
/// is built for them, so the projected decode of any input fails exactly
/// when the full decode does (short of a row allocation the machine grants
/// at the kept width and refuses at the full one). For a strictly
/// ascending `cols` inside the schema the result — rows, schema and
/// `sorted_on` — is the full decode projected onto `cols`.
pub fn decode_relation(bytes: &[u8], cols: Option<&[usize]>) -> Result<NestedRelation> {
    decode_relation_at(bytes, 0, cols)
}

fn decode_relation_at(
    bytes: &[u8],
    depth: usize,
    cols: Option<&[usize]>,
) -> Result<NestedRelation> {
    if depth > MAX_NESTING {
        return Err(StoreError::Corrupt("tables nested too deep".into()));
    }
    let mut r = ByteReader::new(bytes);
    let mut schema = decode_schema(&mut r, 0)?;
    let n_cols = schema.cols.len();
    // RLE lets a row cost no bytes at all (one label run, an all-⊥ column,
    // no columns), so the input's length does not bound this count: the
    // first column's tag runs vouch for it before any row is built, and
    // building the rows is a fallible allocation
    let n_rows = usize::try_from(r.get_uv()?)
        .map_err(|_| StoreError::Corrupt("row count does not fit usize".into()))?;
    let mut sorted_on = match r.get_uv()? {
        0 => None,
        c if c <= n_cols as u64 => Some(c as usize - 1),
        c => return Err(StoreError::Corrupt(format!("sorted on column {c}"))),
    };
    let mut dict = Dict::decode(&mut r)?;
    let keep: Vec<bool> = (0..n_cols)
        .map(|ci| cols.is_none_or(|cols| cols.contains(&ci)))
        .collect();
    let width = keep.iter().filter(|&&k| k).count();
    // kept cells go straight into their rows, column by column
    let mut rows = match n_cols {
        0 => empty_rows(n_rows, 0)?,
        _ => Vec::new(), // built once column 0's tag runs are in
    };
    let mut runs: Vec<(u8, usize)> = Vec::new();
    for (ci, &kept) in keep.iter().enumerate() {
        // tag runs: (tag, length) pairs that must cover the rows exactly
        runs.clear();
        let mut covered = 0usize;
        for _ in 0..r.get_count()? {
            let t = r.get_u8()?;
            let n = r.get_uv()?;
            if n > (n_rows - covered) as u64 {
                return Err(StoreError::Corrupt("tag runs exceed row count".into()));
            }
            covered += n as usize;
            runs.push((t, n as usize));
        }
        if covered != n_rows {
            return Err(StoreError::Corrupt(format!(
                "tag runs cover {covered} of {n_rows} rows"
            )));
        }
        if ci == 0 {
            rows = empty_rows(n_rows, width)?;
        }
        // payloads, one tag run at a time; a skipped column's cells are
        // read and checked, and `run` is `None` so nothing is built
        let mut ids = IdCoder::default();
        let mut label = None; // the open label run: (label, cells left)
        let mut at = 0usize;
        for &(t, n) in &runs {
            let mut run = kept.then(|| &mut rows[at..at + n]);
            at += n;
            if t != TAG_LABEL && label.is_some() {
                return Err(StoreError::Corrupt("label run crosses cells".into()));
            }
            match t {
                TAG_NULL => {
                    for row in run.into_iter().flatten() {
                        row.cells.push(Cell::Null);
                    }
                }
                TAG_ID => {
                    for k in 0..n {
                        match &mut run {
                            Some(run) => run[k].cells.push(Cell::Id(ids.decode(&mut r)?)),
                            None => ids.skip(&mut r)?,
                        }
                    }
                }
                TAG_LABEL => {
                    let mut k = 0;
                    while k < n {
                        // a label is interned once per run, not per cell
                        let (l, left) = match label.take() {
                            Some(open) => open,
                            None => {
                                let s = dict.get(r.get_uv()?)?;
                                let l = run.is_some().then(|| Label::intern(s));
                                match r.get_uv()? {
                                    0 => return Err(StoreError::Corrupt("empty label run".into())),
                                    n => (l, n),
                                }
                            }
                        };
                        let here = left.min((n - k) as u64) as usize;
                        if let (Some(run), Some(l)) = (&mut run, l) {
                            for row in &mut run[k..k + here] {
                                row.cells.push(Cell::Label(l));
                            }
                        }
                        k += here;
                        if left > here as u64 {
                            label = Some((l, left - here as u64));
                        }
                    }
                }
                TAG_ATOM => {
                    for k in 0..n {
                        let v = match r.get_u8()? {
                            0 => Value::Int(r.get_iv()?),
                            1 => {
                                let slot = r.get_uv()?;
                                if run.is_none() {
                                    dict.get(slot)?;
                                    continue;
                                }
                                Value::Str(dict.shared(slot)?)
                            }
                            v => return Err(StoreError::Corrupt(format!("bad value variant {v}"))),
                        };
                        if let Some(run) = &mut run {
                            run[k].cells.push(Cell::Atom(v));
                        }
                    }
                }
                TAG_CONTENT => {
                    for k in 0..n {
                        let slot = r.get_uv()?;
                        match &mut run {
                            Some(run) => run[k].cells.push(Cell::Content(dict.shared(slot)?)),
                            None => {
                                dict.get(slot)?;
                            }
                        }
                    }
                }
                TAG_TABLE => {
                    // a skipped table is still decoded, to nothing but its
                    // row count, so every check inside it runs
                    let inner_cols = run.is_none().then_some(&[][..]);
                    for k in 0..n {
                        let inner = decode_relation_at(r.get_bytes()?, depth + 1, inner_cols)?;
                        if let Some(run) = &mut run {
                            run[k].cells.push(Cell::Table(Box::new(inner)));
                        }
                    }
                }
                t => return Err(StoreError::Corrupt(format!("bad cell tag {t}"))),
            }
        }
        if label.is_some() {
            return Err(StoreError::Corrupt("label run past column end".into()));
        }
    }
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after relation",
            r.remaining()
        )));
    }
    if width < n_cols {
        sorted_on = sorted_on
            .filter(|&s| keep[s])
            .map(|s| keep[..s].iter().filter(|&&k| k).count());
        schema.cols = schema
            .cols
            .into_iter()
            .zip(&keep)
            .filter_map(|(c, &k)| k.then_some(c))
            .collect();
    }
    let mut rel = NestedRelation::new(schema, rows);
    rel.sorted_on = sorted_on;
    Ok(rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_algebra::AttrKind;

    fn sample() -> NestedRelation {
        let schema = Schema::atoms(&[
            ("a.ID", AttrKind::Id),
            ("a.L", AttrKind::Label),
            ("a.V", AttrKind::Value),
        ]);
        let rows = vec![
            Row::new(vec![
                Cell::Id(StructId::Seq(3)),
                Cell::Label(Label::intern("item")),
                Cell::Atom(Value::int(7)),
            ]),
            Row::new(vec![
                Cell::Id(StructId::Seq(9)),
                Cell::Label(Label::intern("item")),
                Cell::Atom(Value::str("x")),
            ]),
            Row::new(vec![
                Cell::Id(StructId::Seq(12)),
                Cell::Label(Label::intern("name")),
                Cell::Null,
            ]),
        ];
        let mut rel = NestedRelation::new(schema, rows);
        rel.sorted_on = Some(0);
        rel
    }

    #[test]
    fn relation_round_trips() {
        let rel = sample();
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes, None).unwrap();
        assert_eq!(back.schema, rel.schema);
        assert_eq!(back.rows, rel.rows);
        assert_eq!(back.sorted_on, rel.sorted_on);
    }

    #[test]
    fn projected_decode_builds_only_the_kept_columns() {
        let rel = sample();
        let bytes = encode_relation(&rel);
        for (cols, sorted_on) in [(vec![0, 2], Some(0)), (vec![1, 2], None), (vec![], None)] {
            let back = decode_relation(&bytes, Some(&cols)).unwrap();
            let kept =
                |cells: &[Cell]| -> Vec<Cell> { cols.iter().map(|&c| cells[c].clone()).collect() };
            assert_eq!(back.schema.len(), cols.len());
            assert_eq!(back.sorted_on, sorted_on, "{cols:?}");
            for (got, want) in back.rows.iter().zip(&rel.rows) {
                assert_eq!(got.cells, kept(&want.cells), "{cols:?}");
            }
            assert_eq!(back.rows.len(), rel.rows.len());
        }
        // an index past the schema names nothing
        assert_eq!(
            decode_relation(&bytes, Some(&[1, 7])).unwrap().schema.len(),
            1
        );
    }

    /// A string the dictionary stores once decodes to one allocation that
    /// every cell naming it shares, in full and projected decodes alike;
    /// the shared rows encode back to the same bytes.
    #[test]
    fn repeated_strings_decode_to_one_shared_allocation() {
        let schema = Schema::atoms(&[
            ("a.ID", AttrKind::Id),
            ("a.V", AttrKind::Value),
            ("a.C", AttrKind::Content),
        ]);
        let row = |i| {
            Row::new(vec![
                Cell::Id(StructId::Seq(i)),
                Cell::Atom(Value::str("pen")),
                Cell::Content("<a>pen</a>".into()),
            ])
        };
        let rel = NestedRelation::new(schema, (0..4).map(row).collect());
        let bytes = encode_relation(&rel);
        for (cols, strings) in [(None, [1, 2]), (Some(&[1, 2][..]), [0, 1])] {
            let back = decode_relation(&bytes, cols).unwrap();
            assert_eq!(back.len(), 4);
            for col in strings {
                let shared: Vec<&Arc<str>> = back
                    .rows
                    .iter()
                    .map(|r| match &r.cells[col] {
                        Cell::Atom(Value::Str(s)) | Cell::Content(s) => s,
                        other => panic!("{other} is not a string"),
                    })
                    .collect();
                assert!(
                    shared.iter().all(|s| Arc::ptr_eq(s, shared[0])),
                    "{cols:?} column {col}"
                );
            }
        }
        let back = decode_relation(&bytes, None).unwrap();
        assert_eq!(back.rows, rel.rows);
        assert_eq!(encode_relation(&back), bytes);
    }

    /// The check-only label test agrees with the decoder it stands in for,
    /// for ORDPATH and Dewey labels, and both refuse what they must.
    #[test]
    fn ordpath_label_check_matches_the_decoder() {
        let one = (0..=0xffu8).map(|b| vec![b]);
        let two = (0..=0xffffu16).map(|x| x.to_be_bytes().to_vec());
        // 9-byte codes around the ends of i64, and cut short
        let wide = [0x00u8, 0x01, 0xfe, 0xff].into_iter().flat_map(|lead| {
            [0x00, 0x7f, 0x80, 0xff]
                .into_iter()
                .flat_map(move |fill| (0..=9).map(move |n| [vec![lead], vec![fill; n]].concat()))
        });
        let (mut ord, mut dewey) = (0, 0);
        for bytes in std::iter::once(vec![]).chain(one).chain(two).chain(wide) {
            let decoded_ord = OrdPath::try_from_bytes(&bytes);
            let decoded_dewey = DeweyId::try_from_bytes(&bytes);
            assert_eq!(label_ok(ID_ORD, &bytes), decoded_ord.is_some(), "{bytes:?}");
            assert_eq!(
                label_ok(ID_DEWEY, &bytes),
                decoded_dewey.is_some(),
                "{bytes:?}"
            );
            if let Some(o) = decoded_ord {
                assert_eq!(o.as_bytes(), &bytes[..], "canonical");
                ord += 1;
            }
            if let Some(d) = decoded_dewey {
                assert_eq!(d.as_bytes(), &bytes[..], "canonical");
                dewey += 1;
            }
        }
        // the empty label, cut-short codes, 9-byte codes past i64 and, for
        // Dewey, negative or wider-than-u32 ranks are all refused
        assert!(0 < dewey && dewey < ord, "{dewey} < {ord}");
        assert!(!label_ok(ID_ORD, &[]) && !label_ok(ID_DEWEY, &[]));
        assert!(!label_ok(ID_ORD, &[0xff; 9]) && !label_ok(ID_ORD, &[0xc0]));
        assert!(!label_ok(ID_DEWEY, &[0x3f]), "a negative rank");
    }

    /// ORDPATH and Dewey columns front-code against one previous label,
    /// even when a column mixes them, and round-trip exactly.
    #[test]
    fn id_labels_round_trip_through_one_front_coder() {
        let long = OrdPath::from_components((0..30).map(|i| 2 * i + 1));
        let ids = [
            StructId::Ord(OrdPath::from_components([1, 3, 5])),
            StructId::Ord(OrdPath::from_components([1, 3, 4, -7])),
            StructId::Ord(long.child(9000)),
            StructId::Ord(long),
            StructId::Dewey(DeweyId::from_ranks([1, 2, 3])),
            StructId::Dewey(DeweyId::from_ranks([1, 2, u32::MAX])),
            StructId::Seq(4),
            StructId::Ord(OrdPath::from_components([i64::MIN, i64::MAX])),
        ];
        let rel = NestedRelation::new(
            Schema::atoms(&[("a.ID", AttrKind::Id)]),
            ids.iter()
                .map(|id| Row::new(vec![Cell::Id(id.clone())]))
                .collect(),
        );
        let back = decode_relation(&encode_relation(&rel), None).unwrap();
        assert_eq!(back.rows, rel.rows);
    }

    /// `levels` tables, each the one cell of its parent's one row, around
    /// a one-id leaf. With `deep_schema` every level's schema declares the
    /// whole nest below it, as for a real extent; without, each declares
    /// one nested level only, so the tables nest deeper than any schema.
    fn nested(levels: usize, deep_schema: bool) -> NestedRelation {
        let leaf = Schema::atoms(&[("a.ID", AttrKind::Id)]);
        let mut rel = NestedRelation::new(
            leaf.clone(),
            vec![Row::new(vec![Cell::Id(StructId::Seq(1))])],
        );
        for _ in 0..levels {
            let inner = if deep_schema {
                rel.schema.clone()
            } else {
                leaf.clone()
            };
            let col = Column {
                name: Symbol::intern("t"),
                kind: ColKind::Nested(inner),
            };
            rel = NestedRelation::new(
                Schema { cols: vec![col] },
                vec![Row::new(vec![Cell::Table(Box::new(rel))])],
            );
        }
        rel
    }

    /// The decoder recurses once per level of a nested schema and of a
    /// nested table, and refuses either past `MAX_NESTING`: a relation
    /// nested that deep round-trips, one level more is `Corrupt`, and
    /// neither runs a debug build's test thread out of stack.
    #[test]
    fn nesting_is_bounded_at_the_cap() {
        for (deep_schema, refused) in [(true, "schema"), (false, "tables")] {
            let at_cap = nested(MAX_NESTING, deep_schema);
            let back = decode_relation(&encode_relation(&at_cap), None).unwrap();
            assert_eq!(back, at_cap);
            let past = encode_relation(&nested(MAX_NESTING + 1, deep_schema));
            match decode_relation(&past, None) {
                Err(StoreError::Corrupt(e)) => assert_eq!(e, format!("{refused} nested too deep")),
                other => panic!("{} levels decoded to {other:?}", MAX_NESTING + 1),
            }
        }
    }

    #[test]
    fn truncation_is_a_checked_error() {
        let bytes = encode_relation(&sample());
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_relation(&bytes[..cut], None).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }
}
