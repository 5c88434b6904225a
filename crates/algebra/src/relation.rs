//! Nested relations — the data produced by materialized views.
//!
//! A view evaluates to a *nested table which may include null values*
//! (paper §1, Fig. 1c): one column per (return node, stored attribute),
//! plus one *table-valued* column per nested edge (§4.5, Fig. 12). Set
//! semantics throughout; [`NestedRelation::normalize`] sorts and
//! deduplicates recursively so equality is structural.
//!
//! ## Performance architecture
//!
//! Rows are sorted and deduplicated through a total [`Ord`] over cells and
//! hashed through a structural [`Hash`] — there is no per-row string
//! encoding anywhere on this path (the seed's `Row::encode_key` built a
//! `String` per row per sort). Column names are interned [`Symbol`]s, so
//! schema lookup is an integer compare. [`NestedRelation`] additionally
//! tracks *sortedness*: when its rows are known to be ordered by document
//! order on some ID column, repeated structural joins on that column skip
//! re-sorting entirely.

use smv_pattern::{PNodeId, Pattern};
use smv_xml::{Label, StructId, Symbol, Value};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Which stored attribute a column carries (§4.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AttrKind {
    /// Node identifier.
    Id,
    /// Node label.
    Label,
    /// Node value.
    Value,
    /// Node content (serialized subtree).
    Content,
}

impl AttrKind {
    /// The attribute columns pattern node `n` returns, in schema order
    /// (`ID`, `L`, `V`, `C`): the attributes it stores, or its `ID` alone
    /// when it is a `ret` node that stores none. A return node needs an
    /// identity: with no column, distinct nodes would collapse into one
    /// empty tuple.
    pub fn of_node(p: &Pattern, n: PNodeId) -> impl Iterator<Item = AttrKind> {
        let nd = p.node(n);
        let a = nd.attrs;
        [
            (a.id || nd.ret && !a.any(), AttrKind::Id),
            (a.label, AttrKind::Label),
            (a.value, AttrKind::Value),
            (a.content, AttrKind::Content),
        ]
        .into_iter()
        .filter_map(|(stored, kind)| stored.then_some(kind))
    }
}

impl std::fmt::Display for AttrKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AttrKind::Id => "ID",
            AttrKind::Label => "L",
            AttrKind::Value => "V",
            AttrKind::Content => "C",
        })
    }
}

/// A column: either an atomic attribute or a nested table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Column {
    /// Interned name, e.g. `item.ID`.
    pub name: Symbol,
    /// Atomic or nested.
    pub kind: ColKind,
}

/// Column kind.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ColKind {
    /// An atomic attribute cell.
    Atom(AttrKind),
    /// A nested table with its own schema.
    Nested(Schema),
}

/// A relation schema.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    /// The columns, in order.
    pub cols: Vec<Column>,
}

impl Schema {
    /// Builds a schema from `(name, kind)` pairs of atomic columns.
    pub fn atoms(cols: &[(&str, AttrKind)]) -> Schema {
        Schema {
            cols: cols
                .iter()
                .map(|(n, k)| Column {
                    name: Symbol::intern(n),
                    kind: ColKind::Atom(*k),
                })
                .collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Index of the column named `name` (pool probe, then
    /// integer-compare; a name that was never interned cannot be a
    /// column, so misses allocate nothing).
    pub fn col(&self, name: &str) -> Option<usize> {
        self.col_sym(Symbol::lookup(name)?)
    }

    /// Index of the column with interned name `name`.
    pub fn col_sym(&self, name: Symbol) -> Option<usize> {
        self.cols.iter().position(|c| c.name == name)
    }

    /// The heap bytes of the column vector and of nested schemas.
    fn heap_bytes(&self) -> usize {
        let nested: usize = self
            .cols
            .iter()
            .map(|c| match &c.kind {
                ColKind::Nested(s) => s.heap_bytes(),
                ColKind::Atom(_) => 0,
            })
            .sum();
        self.cols.capacity() * std::mem::size_of::<Column>() + nested
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("(")?;
        for (i, c) in self.cols.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            match &c.kind {
                ColKind::Atom(k) => write!(f, "{}:{k}", c.name)?,
                ColKind::Nested(s) => write!(f, "{}:{s}", c.name)?,
            }
        }
        f.write_str(")")
    }
}

/// One cell of a row.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cell {
    /// `⊥` — produced by optional edges that did not bind.
    Null,
    /// A structural (or sequential) identifier.
    Id(StructId),
    /// An element label.
    Label(Label),
    /// An atomic value.
    Atom(Value),
    /// Serialized subtree content, shared like a string [`Value`].
    Content(Arc<str>),
    /// A nested table, boxed: it is rare and would double every cell.
    Table(Box<NestedRelation>),
}

// an inline id label sets the width; no variant may widen it
const _: () = assert!(std::mem::size_of::<Cell>() == 32);

impl Cell {
    /// Is this `⊥`?
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// Canonical variant rank for the total order.
    fn rank(&self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Id(_) => 1,
            Cell::Label(_) => 2,
            Cell::Atom(_) => 3,
            Cell::Content(_) => 4,
            Cell::Table(_) => 5,
        }
    }
}

impl PartialOrd for Cell {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cell {
    /// A total order over all cell variants, used for sorting/dedup.
    ///
    /// IDs order by (scheme, document order), labels by interner index,
    /// nested tables lexicographically by rows — canonical once the tables
    /// are normalized, but a valid total order regardless. No allocation.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Cell::Null, Cell::Null) => Ordering::Equal,
            (Cell::Id(a), Cell::Id(b)) => a.cmp(b),
            (Cell::Label(a), Cell::Label(b)) => a.cmp(b),
            (Cell::Atom(a), Cell::Atom(b)) => a.cmp(b),
            (Cell::Content(a), Cell::Content(b)) => a.cmp(b),
            (Cell::Table(a), Cell::Table(b)) => a.rows.cmp(&b.rows),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl Hash for Cell {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Cell::Null => {}
            Cell::Id(id) => id.hash(state),
            Cell::Label(l) => l.hash(state),
            Cell::Atom(v) => v.hash(state),
            Cell::Content(c) => c.hash(state),
            Cell::Table(t) => t.rows.hash(state),
        }
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Null => f.write_str("⊥"),
            Cell::Id(id) => write!(f, "{id}"),
            Cell::Label(l) => write!(f, "{l}"),
            Cell::Atom(v) => write!(f, "{v}"),
            Cell::Content(c) => {
                if c.len() > 32 {
                    write!(f, "{}…", &c[..32])
                } else {
                    f.write_str(c)
                }
            }
            Cell::Table(t) => {
                f.write_str("{")?;
                for (i, r) in t.rows.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{r}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// One row.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Row {
    /// The cells, aligned with the schema.
    pub cells: Vec<Cell>,
}

impl Row {
    /// Builds a row.
    pub fn new(cells: Vec<Cell>) -> Row {
        Row { cells }
    }
}

impl PartialOrd for Row {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Row {
    /// Lexicographic cell order (canonical once nested tables are
    /// normalized).
    fn cmp(&self, other: &Self) -> Ordering {
        self.cells.cmp(&other.cells)
    }
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("⟨")?;
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c}")?;
        }
        f.write_str("⟩")
    }
}

/// A (possibly nested) relation: schema + rows, set semantics.
///
/// `sorted_on` is executor metadata, not data: equality and hashing
/// ignore it.
#[derive(Clone, Eq, Debug, Default)]
pub struct NestedRelation {
    /// The schema.
    pub schema: Schema,
    /// The rows (normalize before comparing).
    pub rows: Vec<Row>,
    /// When `Some(i)`, the rows are known to be ordered by document order
    /// on the ID cells of column `i` (nulls first, uniform scheme).
    /// Structural joins on column `i` skip their sorting pass.
    pub sorted_on: Option<usize>,
}

impl PartialEq for NestedRelation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Hash for NestedRelation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rows.hash(state);
    }
}

impl NestedRelation {
    /// A relation over `schema` with the given rows.
    pub fn new(schema: Schema, rows: Vec<Row>) -> NestedRelation {
        NestedRelation {
            schema,
            rows,
            sorted_on: None,
        }
    }

    /// An empty relation over `schema`.
    pub fn empty(schema: Schema) -> NestedRelation {
        NestedRelation::new(schema, Vec::new())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The heap bytes this relation owns, by capacity: its row vector,
    /// every row's cells, ID labels too long to be held inline, nested
    /// tables (their boxes included) and the schema's columns. Strings
    /// (`Arc<str>` values and contents) are not counted — the views'
    /// extents own them and an answer shares them — nor is allocator
    /// overhead or the relation's own header. It walks every cell once.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let cells: usize = self
            .rows
            .iter()
            .map(|r| {
                let owned: usize = r
                    .cells
                    .iter()
                    .map(|c| match c {
                        Cell::Id(id) => id.heap_bytes(),
                        Cell::Table(t) => size_of::<NestedRelation>() + t.heap_bytes(),
                        _ => 0,
                    })
                    .sum();
                r.cells.capacity() * size_of::<Cell>() + owned
            })
            .sum();
        self.schema.heap_bytes() + self.rows.capacity() * size_of::<Row>() + cells
    }

    /// Sorts rows by the canonical cell order and removes duplicates,
    /// recursively normalizing nested tables first. Allocation-free per
    /// row (comparator sort + adjacent dedup — no encoded keys).
    pub fn normalize(&mut self) {
        for r in &mut self.rows {
            for c in &mut r.cells {
                if let Cell::Table(t) = c {
                    t.normalize();
                }
            }
        }
        self.rows.sort_unstable();
        self.rows.dedup();
        self.sorted_on = self.canonical_sorted_on();
    }

    /// The `sorted_on` marker normalization establishes: the canonical
    /// cell order sorts the first column by (scheme, doc order), so an ID
    /// first column leaves the relation join-ready.
    fn canonical_sorted_on(&self) -> Option<usize> {
        match self.schema.cols.first() {
            Some(Column {
                kind: ColKind::Atom(AttrKind::Id),
                ..
            }) => Some(0),
            _ => None,
        }
    }

    /// Unions `extra` into rows that are **already in normalized order**
    /// (sorted, deduplicated, nested tables normalized): sorts and
    /// dedups `extra` alone, then merges the two sorted runs. Equivalent
    /// to `rows.extend(extra); normalize()` but O(rows + extra·log
    /// extra) instead of re-sorting the whole relation — the
    /// delta-maintenance shape, where a large surviving extent absorbs a
    /// small batch of fresh rows.
    pub fn union_sorted(&mut self, mut extra: Vec<Row>) {
        extra.sort_unstable();
        extra.dedup();
        if !extra.is_empty() {
            let old = std::mem::take(&mut self.rows);
            self.rows = Vec::with_capacity(old.len() + extra.len());
            let (mut a, mut b) = (old.into_iter().peekable(), extra.into_iter().peekable());
            while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
                match x.cmp(y) {
                    std::cmp::Ordering::Less => self.rows.push(a.next().unwrap()),
                    std::cmp::Ordering::Greater => self.rows.push(b.next().unwrap()),
                    std::cmp::Ordering::Equal => {
                        self.rows.push(a.next().unwrap());
                        b.next();
                    }
                }
            }
            self.rows.extend(a);
            self.rows.extend(b);
        }
        self.sorted_on = self.canonical_sorted_on();
    }

    /// Normalized copy.
    pub fn normalized(&self) -> NestedRelation {
        let mut c = self.clone();
        c.normalize();
        c
    }

    /// Set equality (ignores row order at every nesting level).
    pub fn set_eq(&self, other: &NestedRelation) -> bool {
        self.normalized().rows == other.normalized().rows
    }
}

impl std::fmt::Display for NestedRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for r in &self.rows {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row's structural [`Hash`], through the standard hasher.
    fn hash_of(row: &Row) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        row.hash(&mut h);
        h.finish()
    }

    fn rel() -> NestedRelation {
        NestedRelation::new(
            Schema::atoms(&[("a.ID", AttrKind::Id), ("a.V", AttrKind::Value)]),
            vec![
                Row::new(vec![Cell::Id(StructId::Seq(2)), Cell::Atom(Value::int(5))]),
                Row::new(vec![Cell::Id(StructId::Seq(1)), Cell::Null]),
                Row::new(vec![Cell::Id(StructId::Seq(2)), Cell::Atom(Value::int(5))]),
            ],
        )
    }

    #[test]
    fn normalize_dedups_and_sorts() {
        let mut r = rel();
        r.normalize();
        assert_eq!(r.len(), 2);
        assert_eq!(r.sorted_on, Some(0), "id-first relation is join-ready");
    }

    #[test]
    fn set_equality_ignores_order() {
        let r1 = rel();
        let mut r2 = rel();
        r2.rows.reverse();
        assert!(r1.set_eq(&r2));
        let mut r3 = rel();
        r3.rows.pop();
        r3.rows.pop();
        assert!(!r1.set_eq(&r3));
    }

    #[test]
    fn equality_ignores_sortedness_metadata() {
        let plain = rel();
        let mut tagged = rel();
        tagged.sorted_on = Some(0);
        assert_eq!(plain, tagged);
        assert_eq!(
            hash_of(&Row::new(vec![Cell::Table(Box::new(plain))])),
            hash_of(&Row::new(vec![Cell::Table(Box::new(tagged))]))
        );
    }

    #[test]
    fn hash_key_agrees_with_equality() {
        let a = Row::new(vec![Cell::Id(StructId::Seq(2)), Cell::Atom(Value::int(5))]);
        let b = Row::new(vec![Cell::Id(StructId::Seq(2)), Cell::Atom(Value::int(5))]);
        let c = Row::new(vec![Cell::Id(StructId::Seq(3)), Cell::Atom(Value::int(5))]);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_ne!(a, c);
    }

    #[test]
    fn cell_order_is_total_across_variants() {
        let cells = [
            Cell::Null,
            Cell::Id(StructId::Seq(1)),
            Cell::Label(Label::intern("x")),
            Cell::Atom(Value::int(1)),
            Cell::Content("c".into()),
            Cell::Table(Box::default()),
        ];
        for (i, a) in cells.iter().enumerate() {
            for (j, b) in cells.iter().enumerate() {
                assert_eq!(a.cmp(b), i.cmp(&j), "variant rank order");
            }
        }
    }

    #[test]
    fn nested_tables_compare_as_sets() {
        let inner_schema = Schema::atoms(&[("k.V", AttrKind::Value)]);
        let mk = |vals: &[i64]| {
            Cell::Table(Box::new(NestedRelation::new(
                inner_schema.clone(),
                vals.iter()
                    .map(|&v| Row::new(vec![Cell::Atom(Value::int(v))]))
                    .collect(),
            )))
        };
        let schema = Schema {
            cols: vec![Column {
                name: Symbol::intern("A"),
                kind: ColKind::Nested(inner_schema.clone()),
            }],
        };
        let r1 = NestedRelation::new(schema.clone(), vec![Row::new(vec![mk(&[1, 2])])]);
        let r2 = NestedRelation::new(schema, vec![Row::new(vec![mk(&[2, 1, 1])])]);
        assert!(r1.set_eq(&r2));
    }

    /// Capacity counts, not length; a nested table counts its box, its
    /// schema and its rows; a spilled ID label counts its bytes; a shared
    /// string counts nothing.
    #[test]
    fn heap_bytes_counts_capacity_nested_tables_and_no_shared_strings() {
        // 64-bit sizes: a column 32, a row 24, a cell 32, a relation 64
        assert_eq!(std::mem::size_of::<Column>(), 32);
        assert_eq!(std::mem::size_of::<Row>(), 24);
        assert_eq!(std::mem::size_of::<NestedRelation>(), 64);
        let inner_schema = Schema::atoms(&[("k.V", AttrKind::Value)]);
        let inner = NestedRelation::new(
            inner_schema.clone(),
            vec![Row::new(vec![Cell::Atom(Value::int(1))])],
        );
        let schema = Schema {
            cols: vec![
                Column {
                    name: Symbol::intern("a.ID"),
                    kind: ColKind::Atom(AttrKind::Id),
                },
                Column {
                    name: Symbol::intern("a.C"),
                    kind: ColKind::Atom(AttrKind::Content),
                },
                Column {
                    name: Symbol::intern("A"),
                    kind: ColKind::Nested(inner_schema),
                },
            ],
        };
        let shared: Arc<str> = "a string the extent owns".into();
        let long = StructId::Ord(smv_xml::OrdPath::from_components(vec![1; 30]));
        let mut cells = Vec::with_capacity(5);
        cells.extend([
            Cell::Id(long),
            Cell::Content(Arc::clone(&shared)),
            Cell::Table(Box::new(inner)),
        ]);
        let mut rows = Vec::with_capacity(4);
        rows.push(Row::new(cells));
        rows.push(Row::new(vec![
            Cell::Id(StructId::Seq(1)),
            Cell::Content(shared),
            Cell::Null,
        ]));
        let r = NestedRelation::new(schema, rows);
        let schema_bytes = 3 * 32 + 32;
        let rows_bytes = 4 * 24;
        let first = 5 * 32 + 30 + (64 + 32 + 24 + 32);
        let second = 3 * 32;
        assert_eq!(r.heap_bytes(), schema_bytes + rows_bytes + first + second);
        assert_eq!(
            NestedRelation::empty(Schema::default()).heap_bytes(),
            0,
            "an empty relation owns nothing"
        );
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::atoms(&[("x.ID", AttrKind::Id), ("y.V", AttrKind::Value)]);
        assert_eq!(s.col("y.V"), Some(1));
        assert_eq!(s.col("zz"), None);
        assert_eq!(s.col_sym(Symbol::intern("x.ID")), Some(0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn display_forms() {
        let r = rel();
        let txt = r.to_string();
        assert!(txt.contains("a.ID:ID"));
        assert!(txt.contains("⊥"));
    }
}
