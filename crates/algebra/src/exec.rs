//! Plan execution against a view catalog.
//!
//! A materialize-everything evaluator: every operator consumes and
//! produces a [`NestedRelation`]. The hot path is engineered around three
//! ideas (see the crate docs):
//!
//! * **borrowed inputs** — `eval` returns `Cow<NestedRelation>`; a view
//!   scan borrows the catalog extent and operators clone only the cells
//!   that survive into their output, never whole input relations. A
//!   `Project` directly over a `Scan` first asks the provider to build the
//!   projection itself ([`ViewProvider::project_scan`]): a disk catalog
//!   decodes only the kept columns straight into the output rows, so a
//!   cold read builds each row once. Providers holding extents in memory
//!   decline, and the scan borrows as above. The root is normalized once:
//!   a `DupElim` or `Union` root already did it;
//! * **sort-based structural joins** — ancestor/parent predicates run the
//!   stack-tree merge over inputs sorted once in document order, with
//!   sortedness tracked on [`NestedRelation`] so chained joins (and scans
//!   of normalized extents) skip re-sorting; the nested-loop variant
//!   survives only as a test oracle and ablation baseline;
//! * **hashed row keys** — ID-equality joins index `&StructId` directly
//!   and grouping hashes rows structurally; no cell is ever encoded into
//!   a string to be compared.

use crate::feedback::{ExecProfile, FeedbackStore, OpPath};
use crate::plan::{NavStep, Plan, Predicate};
use crate::relation::{AttrKind, Cell, ColKind, Column, NestedRelation, Row, Schema};
use crate::struct_join::{doc_sorted_indices, stack_tree_join_presorted};
use smv_pattern::Axis;
use smv_xml::par::WorkerPool;
use smv_xml::{parse_document, serialize_subtree, Document, NodeId, StructId, Symbol};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Execution options, kept for the callers that build them by name.
///
/// Every plan runs on the calling thread, so none of these fields is read:
/// [`execute_with`] and [`execute_profiled_with`] return the same rows
/// and profile whatever they hold. They stay only because the benchmark
/// harness (`smvbench`) constructs `ExecOpts` field by field; the next
/// change to the benchmark removes them, and this type with them.
#[derive(Clone, Debug, Default)]
pub struct ExecOpts {
    /// Not read (see [`ExecOpts`]).
    pub threads: usize,
    /// Not read (see [`ExecOpts`]).
    pub min_par_rows: usize,
    /// Not read (see [`ExecOpts`]).
    pub pool: Option<Arc<WorkerPool>>,
    /// Not read (see [`ExecOpts`]).
    pub par_hints: Option<Arc<FeedbackStore>>,
}

/// Supplies view extents by name.
pub trait ViewProvider {
    /// The materialized extent of `name`: [`ExecError::UnknownView`] when
    /// the provider does not hold the view, [`ExecError::Storage`] when a
    /// store holds it but could not read it back.
    fn extent(&self, name: &str) -> Result<&NestedRelation, ExecError>;

    /// `name`'s extent projected onto `cols`, built by the provider — what
    /// a `Project` directly over `Scan(name)` asks for, or over a
    /// parent-id derivation on it; the executor asks only with strictly
    /// ascending `cols`. `Ok(None)` means the provider
    /// has nothing better than borrowing [`extent`] and cloning the kept
    /// cells, which the executor then does; that is the default, and the
    /// answer for a `cols` past the extent's schema, so the generic path
    /// reports it. A provider that answers `Some` returns exactly that
    /// projection: rows, schema and `sorted_on`. Errors are the scan's, as
    /// from [`extent`].
    ///
    /// [`extent`]: ViewProvider::extent
    fn project_scan(
        &self,
        _name: &str,
        _cols: &[usize],
    ) -> Result<Option<NestedRelation>, ExecError> {
        Ok(None)
    }
}

/// A trivial provider backed by a map (tests, examples).
#[derive(Default)]
pub struct MapProvider {
    map: HashMap<String, NestedRelation>,
}

impl MapProvider {
    /// Registers a view extent, replacing any under the same name.
    pub fn insert(&mut self, name: &str, rel: NestedRelation) {
        self.map.insert(name.to_owned(), rel);
    }
}

impl ViewProvider for MapProvider {
    fn extent(&self, name: &str) -> Result<&NestedRelation, ExecError> {
        self.map
            .get(name)
            .ok_or_else(|| ExecError::UnknownView(name.to_owned()))
    }
}

/// Execution failure. The executor wraps every failure in
/// [`ExecError::At`] carrying the failing operator's positional
/// [`OpPath`] and rendered name, so errors are diagnosable without a
/// debugger; match on [`ExecError::kind`] when only the cause matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The plan scans a view the provider does not know.
    UnknownView(String),
    /// Union branches with different schemas, bad column index, etc.
    Schema(String),
    /// A cell had an unexpected type for the operator.
    Type(String),
    /// The provider holds the view but could not read its extent back: a
    /// segment that failed to read, failed its checksum or failed to
    /// decode.
    Storage {
        /// The view whose extent was asked for.
        view: String,
        /// The store's error, rendered.
        error: String,
    },
    /// A failure located at one operator of the plan tree.
    At {
        /// Positional path of the failing operator (`""` = the root).
        path: OpPath,
        /// The operator's rendered head, e.g. `Scan(v_item)`.
        op: String,
        /// What went wrong there.
        source: Box<ExecError>,
    },
}

impl ExecError {
    /// The underlying cause, with any [`ExecError::At`] location peeled.
    pub fn kind(&self) -> &ExecError {
        match self {
            ExecError::At { source, .. } => source.kind(),
            e => e,
        }
    }

    /// The failing operator's positional path, when located.
    pub fn op_path(&self) -> Option<&str> {
        match self {
            ExecError::At { path, .. } => Some(path),
            _ => None,
        }
    }

    /// The failing operator's rendered head, when located.
    pub fn op_name(&self) -> Option<&str> {
        match self {
            ExecError::At { op, .. } => Some(op),
            _ => None,
        }
    }

    /// Wraps a bare error with the operator it surfaced at; an error
    /// already located (by a deeper frame) passes through unchanged.
    fn locate(self, path: &[u32], plan: &Plan) -> ExecError {
        match self {
            e @ ExecError::At { .. } => e,
            e => ExecError::At {
                path: crate::feedback::path_key(path),
                op: plan.op_label(),
                source: Box::new(e),
            },
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownView(v) => write!(f, "unknown view `{v}`"),
            ExecError::Schema(m) => write!(f, "schema error: {m}"),
            ExecError::Type(m) => write!(f, "type error: {m}"),
            ExecError::Storage { view, error } => {
                write!(f, "reading view `{view}` failed: {error}")
            }
            ExecError::At { path, op, source } => {
                let at = if path.is_empty() { "root" } else { path };
                write!(f, "{source} at operator {at} ({op})")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes `plan` against `views` on the calling thread, returning a
/// normalized relation. `opts` is not read (see [`ExecOpts`]).
///
/// ```
/// use smv_algebra::{
///     execute_with, AttrKind, Cell, ExecOpts, MapProvider, NestedRelation, Plan, Row, Schema,
/// };
/// use smv_xml::StructId;
///
/// let mut views = MapProvider::default();
/// views.insert(
///     "v",
///     NestedRelation::new(
///         Schema::atoms(&[("a.ID", AttrKind::Id)]),
///         vec![Row::new(vec![Cell::Id(StructId::Seq(7))])],
///     ),
/// );
/// let scan = Plan::Scan { view: "v".into() };
/// let out = execute_with(&scan, &views, &ExecOpts::default()).unwrap();
/// assert_eq!(out.len(), 1);
/// ```
pub fn execute_with(
    plan: &Plan,
    views: &dyn ViewProvider,
    _opts: &ExecOpts,
) -> Result<NestedRelation, ExecError> {
    let mut prof = Profiler::unprofiled();
    let mut rel = eval(plan, views, &mut prof)?.into_owned();
    normalize_root(plan, &mut rel);
    Ok(rel)
}

/// Normalizes the result of `plan` unless its root operator already did
/// (`DupElim`, `Union`): normalization is idempotent, so the second pass
/// would only re-sort sorted rows.
fn normalize_root(plan: &Plan, rel: &mut NestedRelation) {
    if !matches!(plan, Plan::DupElim { .. } | Plan::Union { .. }) {
        rel.normalize();
    }
}

/// Executes `plan` and records every operator's actual output row count
/// into an [`ExecProfile`] keyed by its positional path in the plan tree.
///
/// Profiling is counters-only — no row is copied or re-walked — so the
/// hot path is identical to [`execute_with`]'s; the unprofiled entry
/// point passes a `None` profiler and pays one branch per operator. The
/// root entry is overwritten after the final normalization so it always
/// equals the returned relation's size. `opts` is not read (see
/// [`ExecOpts`]).
///
/// ```
/// use smv_algebra::{
///     execute_profiled_with, AttrKind, Cell, ExecOpts, MapProvider, NestedRelation, Plan, Row, Schema,
/// };
/// use smv_xml::StructId;
///
/// let mut views = MapProvider::default();
/// views.insert(
///     "v",
///     NestedRelation::new(
///         Schema::atoms(&[("a.ID", AttrKind::Id)]),
///         vec![Row::new(vec![Cell::Id(StructId::Seq(7))])],
///     ),
/// );
/// let scan = Plan::Scan { view: "v".into() };
/// let (out, profile) = execute_profiled_with(&scan, &views, &ExecOpts::default()).unwrap();
/// assert_eq!(profile.rows_at(""), Some(out.len() as u64), "root counter = result size");
/// ```
pub fn execute_profiled_with(
    plan: &Plan,
    views: &dyn ViewProvider,
    _opts: &ExecOpts,
) -> Result<(NestedRelation, ExecProfile), ExecError> {
    let t0 = Instant::now();
    let mut prof = Profiler {
        profile: Some(ExecProfile::default()),
        path: Vec::new(),
    };
    let mut rel = eval(plan, views, &mut prof)?.into_owned();
    normalize_root(plan, &mut rel);
    let mut profile = prof.profile.expect("profiler survives eval");
    profile.record(&[], rel.len() as u64);
    // root time spans the whole execution, final normalization included
    profile.record_time(&[], t0.elapsed().as_nanos() as u64);
    Ok((rel, profile))
}

/// In-flight execution state: the profile under construction (when
/// profiling) plus the positional path of the operator currently being
/// evaluated. The path is maintained even unprofiled — it is what ties
/// an [`ExecError`] to the operator that raised it — at the cost of one
/// integer push/pop per operator.
struct Profiler {
    profile: Option<ExecProfile>,
    path: Vec<u32>,
}

impl Profiler {
    fn unprofiled() -> Profiler {
        Profiler {
            profile: None,
            path: Vec::new(),
        }
    }

    /// A clock for the current operator's inclusive time, when profiling.
    fn start(&self) -> Option<Instant> {
        self.profile.as_ref().map(|_| Instant::now())
    }

    /// Records the current operator's output size and inclusive time.
    fn record(&mut self, rows: usize, started: Option<Instant>) {
        if let (Some(p), Some(t)) = (&mut self.profile, started) {
            p.record(&self.path, rows as u64);
            p.record_time(&self.path, t.elapsed().as_nanos() as u64);
        }
    }
}

/// Evaluates one operator; when profiling, records its output size and
/// inclusive wall time. Failures get located at the deepest operator
/// that raised them (parent frames pass an already-located error on).
fn eval<'a>(
    plan: &Plan,
    views: &'a dyn ViewProvider,
    prof: &mut Profiler,
) -> Result<Cow<'a, NestedRelation>, ExecError> {
    let t = prof.start();
    let out = match eval_op(plan, views, prof) {
        Ok(out) => out,
        Err(e) => return Err(e.locate(&prof.path, plan)),
    };
    prof.record(out.len(), t);
    Ok(out)
}

/// The input projected onto `cols` (child 0 of the current operator),
/// when it is a `Scan`, fused into the projection: the provider's
/// projected extent when it builds one ([`ViewProvider::project_scan`]),
/// recorded and located as the scan itself — its row count, the
/// provider's time as its inclusive time, its errors at its path. `Ok(None)` leaves the input to the generic path,
/// as does a `cols` that is not strictly ascending.
fn fused_scan(
    input: &Plan,
    cols: &[usize],
    views: &dyn ViewProvider,
    prof: &mut Profiler,
) -> Result<Option<NestedRelation>, ExecError> {
    let Plan::Scan { view } = input else {
        return Ok(None);
    };
    if !cols.is_sorted_by(|a, b| a < b) {
        return Ok(None);
    }
    prof.path.push(0);
    let t = prof.start();
    let out = views.project_scan(view, cols);
    if let Ok(Some(rel)) = &out {
        prof.record(rel.len(), t);
    }
    let out = out.map_err(|e| e.locate(&prof.path, input));
    prof.path.pop();
    out
}

/// What a `Project` reads: its input's relation, or that relation
/// already projected onto the `Project`'s columns.
enum ProjectInput<'a> {
    Whole(Cow<'a, NestedRelation>),
    Projected(NestedRelation),
}

impl ProjectInput<'_> {
    fn len(&self) -> usize {
        match self {
            ProjectInput::Whole(rel) => rel.len(),
            ProjectInput::Projected(rel) => rel.len(),
        }
    }
}

/// Evaluates the current `Project`'s input for `cols`. A `Scan` is fused
/// into the projection when the provider builds it ([`fused_scan`]). A
/// `DeriveParentId` whose source column `cols` keeps hands `cols` down
/// to its own input the same way and, unless `cols` turns out to keep the
/// derived column (an index equal to the input's width, known once the
/// input is evaluated), derives nothing: it only checks its source cells,
/// its one way to fail. Either way it is recorded and located at its own
/// path, with its input's row count, as if it had run — rows, errors and
/// profile are the generic path's. (When `cols` does keep the derived
/// column, a provider asked for the fused scan declines and the scan is
/// read again in full.)
fn project_input<'a>(
    input: &Plan,
    cols: &[usize],
    views: &'a dyn ViewProvider,
    prof: &mut Profiler,
) -> Result<ProjectInput<'a>, ExecError> {
    if let Some(out) = fused_scan(input, cols, views, prof)? {
        return Ok(ProjectInput::Projected(out));
    }
    let Plan::DeriveParentId {
        input: source,
        col,
        levels,
        name,
    } = input
    else {
        return eval_child(input, views, prof, 0).map(ProjectInput::Whole);
    };
    let Some(at) = cols.iter().position(|c| c == col) else {
        return eval_child(input, views, prof, 0).map(ProjectInput::Whole);
    };
    prof.path.push(0);
    let t = prof.start();
    let out = match project_input(source, cols, views, prof) {
        Ok(ProjectInput::Projected(rel)) => {
            check_id_cells(&rel, at).map(|()| ProjectInput::Projected(rel))
        }
        Ok(ProjectInput::Whole(rel)) if cols.iter().all(|&c| c < rel.schema.len()) => {
            check_id_cells(&rel, *col).map(|()| ProjectInput::Whole(rel))
        }
        Ok(ProjectInput::Whole(rel)) => derive_parent_ids(rel, *col, *levels, *name)
            .map(|rel| ProjectInput::Whole(Cow::Owned(rel))),
        Err(e) => Err(e),
    };
    if let Ok(rel) = &out {
        prof.record(rel.len(), t);
    }
    let out = out.map_err(|e| e.locate(&prof.path, input));
    prof.path.pop();
    out
}

/// `Project` proper: `rel`'s columns `cols`, in that order.
fn project(rel: Cow<'_, NestedRelation>, cols: &[usize]) -> Result<NestedRelation, ExecError> {
    for &c in cols {
        if c >= rel.schema.len() {
            return Err(ExecError::Schema(format!(
                "project column {c} out of range (schema {})",
                rel.schema
            )));
        }
    }
    let schema = Schema {
        cols: cols.iter().map(|&c| rel.schema.cols[c].clone()).collect(),
    };
    let sorted_on = rel
        .sorted_on
        .and_then(|s| cols.iter().position(|&c| c == s));
    let distinct = {
        let mut seen = vec![false; rel.schema.len()];
        cols.iter().all(|&c| !std::mem::replace(&mut seen[c], true))
    };
    let rows: Vec<Row> = match rel {
        // all-distinct projection over an owned input moves cells
        Cow::Owned(rel) if distinct => rel
            .rows
            .into_iter()
            .map(|r| {
                let mut taken: Vec<Option<Cell>> = r.cells.into_iter().map(Some).collect();
                Row::new(
                    cols.iter()
                        .map(|&c| taken[c].take().expect("distinct cols"))
                        .collect(),
                )
            })
            .collect(),
        rel => rel
            .rows
            .iter()
            .map(|r| Row::new(cols.iter().map(|&c| r.cells[c].clone()).collect()))
            .collect(),
    };
    let mut out = NestedRelation::new(schema, rows);
    out.sorted_on = sorted_on;
    Ok(out)
}

/// `DeriveParentId`: `rel` with the `levels`-up ancestor of each row's
/// `col` id appended (`⊥` past the root). Each row is built once, with
/// room for the new cell.
fn derive_parent_ids(
    rel: Cow<'_, NestedRelation>,
    col: usize,
    levels: usize,
    name: Symbol,
) -> Result<NestedRelation, ExecError> {
    let width = rel.schema.len() + 1;
    let derive = |r: &Row| match &r.cells[col] {
        Cell::Id(id) => Ok((0..levels)
            .try_fold(id.clone(), |c, _| c.derive_parent())
            .map_or(Cell::Null, Cell::Id)),
        Cell::Null => Ok(Cell::Null),
        other => Err(not_an_id(other)),
    };
    let mut rows = Vec::with_capacity(rel.len());
    let (mut schema, sorted_on) = match rel {
        Cow::Owned(rel) => {
            for r in rel.rows {
                let parent = derive(&r)?;
                let mut cells = Vec::with_capacity(width);
                cells.extend(r.cells);
                cells.push(parent);
                rows.push(Row::new(cells));
            }
            (rel.schema, rel.sorted_on)
        }
        Cow::Borrowed(rel) => {
            for r in &rel.rows {
                let parent = derive(r)?;
                let mut cells = Vec::with_capacity(width);
                cells.extend(r.cells.iter().cloned());
                cells.push(parent);
                rows.push(Row::new(cells));
            }
            (rel.schema.clone(), rel.sorted_on)
        }
    };
    schema.cols.push(Column {
        name,
        kind: ColKind::Atom(AttrKind::Id),
    });
    let mut out = NestedRelation::new(schema, rows);
    out.sorted_on = sorted_on;
    Ok(out)
}

/// A parent derivation's check without the derivation: `rel`'s `col`
/// holds only ids and `⊥`.
fn check_id_cells(rel: &NestedRelation, col: usize) -> Result<(), ExecError> {
    match rel
        .rows
        .iter()
        .map(|r| &r.cells[col])
        .find(|c| !matches!(c, Cell::Id(_) | Cell::Null))
    {
        Some(other) => Err(not_an_id(other)),
        None => Ok(()),
    }
}

fn not_an_id(cell: &Cell) -> ExecError {
    ExecError::Type(format!("parent derivation on non-id cell {cell}"))
}

/// Evaluates the `idx`-th input of the current operator.
fn eval_child<'a>(
    plan: &Plan,
    views: &'a dyn ViewProvider,
    prof: &mut Profiler,
    idx: u32,
) -> Result<Cow<'a, NestedRelation>, ExecError> {
    prof.path.push(idx);
    let r = eval(plan, views, prof);
    prof.path.pop();
    r
}

fn eval_op<'a>(
    plan: &Plan,
    views: &'a dyn ViewProvider,
    prof: &mut Profiler,
) -> Result<Cow<'a, NestedRelation>, ExecError> {
    match plan {
        Plan::Scan { view } => views.extent(view).map(Cow::Borrowed),
        Plan::Select { input, pred } => {
            let rel = eval_child(input, views, prof, 0)?;
            let keep = |row: &Row| -> Result<bool, ExecError> {
                match pred {
                    Predicate::Value { col, formula } => match &row.cells[*col] {
                        Cell::Atom(v) => Ok(formula.accepts(v)),
                        Cell::Null => Ok(false),
                        other => Err(ExecError::Type(format!(
                            "value predicate on non-atom cell {other}"
                        ))),
                    },
                    Predicate::LabelEq { col, label } => match &row.cells[*col] {
                        Cell::Label(l) => Ok(l == label),
                        Cell::Null => Ok(false),
                        other => Err(ExecError::Type(format!(
                            "label predicate on non-label cell {other}"
                        ))),
                    },
                    Predicate::NotNull { col } => Ok(!row.cells[*col].is_null()),
                }
            };
            // filtering preserves row order, hence sortedness
            match rel {
                Cow::Owned(mut rel) => {
                    let mut rows = Vec::with_capacity(rel.rows.len());
                    for r in rel.rows {
                        if keep(&r)? {
                            rows.push(r);
                        }
                    }
                    rel.rows = rows;
                    Ok(Cow::Owned(rel))
                }
                Cow::Borrowed(rel) => {
                    let mut rows = Vec::new();
                    for r in &rel.rows {
                        if keep(r)? {
                            rows.push(r.clone());
                        }
                    }
                    let mut out = NestedRelation::new(rel.schema.clone(), rows);
                    out.sorted_on = rel.sorted_on;
                    Ok(Cow::Owned(out))
                }
            }
        }
        Plan::Project { input, cols } => match project_input(input, cols, views, prof)? {
            ProjectInput::Projected(out) => Ok(Cow::Owned(out)),
            ProjectInput::Whole(rel) => project(rel, cols).map(Cow::Owned),
        },
        Plan::IdJoin {
            left,
            right,
            lcol,
            rcol,
        } => {
            let l = eval_child(left, views, prof, 0)?;
            let r = eval_child(right, views, prof, 1)?;
            let mut index: HashMap<&StructId, Vec<usize>> = HashMap::new();
            for (i, row) in l.rows.iter().enumerate() {
                if let Cell::Id(id) = &row.cells[*lcol] {
                    index.entry(id).or_default().push(i);
                }
            }
            let width = l.schema.len() + r.schema.len();
            let mut rows = Vec::new();
            for rrow in &r.rows {
                if let Cell::Id(id) = &rrow.cells[*rcol] {
                    if let Some(ls) = index.get(id) {
                        for &li in ls {
                            rows.push(joined_row(&l.rows[li], rrow, width));
                        }
                    }
                }
            }
            let mut out = NestedRelation::new(concat_schemas(&l.schema, &r.schema), rows);
            // output follows the right side's row order
            out.sorted_on = r.sorted_on.map(|c| l.schema.len() + c);
            Ok(Cow::Owned(out))
        }
        Plan::StructJoin {
            left,
            right,
            lcol,
            rcol,
            rel,
        } => {
            let l = eval_child(left, views, prof, 0)?;
            let r = eval_child(right, views, prof, 1)?;
            let (lids, lrows) = gather_ids_sorted(&l, *lcol);
            let (rids, rrows) = gather_ids_sorted(&r, *rcol);
            let pairs = stack_tree_join_presorted(&lids, &rids, *rel);
            let width = l.schema.len() + r.schema.len();
            let mut rows = Vec::with_capacity(pairs.len());
            for (a, b) in pairs {
                rows.push(joined_row(&l.rows[lrows[a]], &r.rows[rrows[b]], width));
            }
            let mut out = NestedRelation::new(concat_schemas(&l.schema, &r.schema), rows);
            // the merge emits pairs grouped by the right side in document
            // order, so the joined relation is born sorted on `rcol`
            out.sorted_on = Some(l.schema.len() + *rcol);
            Ok(Cow::Owned(out))
        }
        Plan::Union { inputs } => {
            let mut it = inputs.iter();
            let first = it
                .next()
                .ok_or_else(|| ExecError::Schema("empty union".into()))?;
            let mut acc = eval_child(first, views, prof, 0)?.into_owned();
            for (i, p) in it.enumerate() {
                let r = eval_child(p, views, prof, i as u32 + 1)?;
                if r.schema.cols.len() != acc.schema.cols.len() {
                    return Err(ExecError::Schema(format!(
                        "union arity mismatch: {} vs {}",
                        acc.schema, r.schema
                    )));
                }
                acc.rows.extend(r.into_owned().rows);
            }
            acc.normalize();
            Ok(Cow::Owned(acc))
        }
        Plan::Nest {
            input,
            key_cols,
            nested_cols,
            name,
        } => {
            let rel = eval_child(input, views, prof, 0)?;
            let inner_schema = Schema {
                cols: nested_cols
                    .iter()
                    .map(|&c| rel.schema.cols[c].clone())
                    .collect(),
            };
            let mut schema = Schema {
                cols: key_cols
                    .iter()
                    .map(|&c| rel.schema.cols[c].clone())
                    .collect(),
            };
            schema.cols.push(Column {
                name: *name,
                kind: ColKind::Nested(inner_schema.clone()),
            });
            // group on hashed key rows (no string encoding), preserving
            // first-occurrence order
            let mut groups: HashMap<Row, usize> = HashMap::new();
            let mut order: Vec<(Row, Vec<Row>)> = Vec::new();
            for r in rel.rows.iter() {
                let key_row = Row::new(key_cols.iter().map(|&c| r.cells[c].clone()).collect());
                let slot = match groups.entry(key_row) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let i = order.len();
                        order.push((e.key().clone(), Vec::new()));
                        e.insert(i);
                        i
                    }
                };
                let inner = Row::new(nested_cols.iter().map(|&c| r.cells[c].clone()).collect());
                // all-null inner tuples encode "no binding" and are not
                // materialized in the group (Fig. 12's empty tables)
                if !inner.cells.iter().all(Cell::is_null) {
                    order[slot].1.push(inner);
                }
            }
            // groups surface in first-occurrence order, so sortedness on a
            // key column carries over to its position among the key columns
            let sorted_on = rel
                .sorted_on
                .and_then(|s| key_cols.iter().position(|&c| c == s));
            let rows = order
                .into_iter()
                .map(|(mut key_row, inner_rows)| {
                    key_row.cells.push(Cell::Table(Box::new(NestedRelation::new(
                        inner_schema.clone(),
                        inner_rows,
                    ))));
                    key_row
                })
                .collect();
            let mut out = NestedRelation::new(schema, rows);
            out.sorted_on = sorted_on;
            Ok(Cow::Owned(out))
        }
        Plan::Unnest { input, col, outer } => {
            let rel = eval_child(input, views, prof, 0)?.into_owned();
            let ColKind::Nested(inner_schema) = rel.schema.cols[*col].kind.clone() else {
                return Err(ExecError::Type(format!(
                    "unnest on non-nested column {}",
                    rel.schema.cols[*col].name
                )));
            };
            let mut schema = Schema { cols: Vec::new() };
            for (i, c) in rel.schema.cols.iter().enumerate() {
                if i == *col {
                    schema.cols.extend(inner_schema.cols.iter().cloned());
                } else {
                    schema.cols.push(c.clone());
                }
            }
            let sorted_on = rel.sorted_on.and_then(|s| match s.cmp(col) {
                std::cmp::Ordering::Less => Some(s),
                std::cmp::Ordering::Equal => None,
                std::cmp::Ordering::Greater => Some(s + inner_schema.len() - 1),
            });
            let mut rows = Vec::new();
            for r in rel.rows {
                let mut cells = r.cells;
                let Cell::Table(table) = std::mem::replace(&mut cells[*col], Cell::Null) else {
                    return Err(ExecError::Type("unnest on non-table cell".into()));
                };
                if table.rows.is_empty() {
                    if *outer {
                        rows.push(splice_owned(
                            cells,
                            *col,
                            vec![Cell::Null; inner_schema.len()],
                        ));
                    }
                    continue;
                }
                let last = table.rows.len() - 1;
                for (i, inner) in table.rows.into_iter().enumerate() {
                    if i == last {
                        rows.push(splice_owned(cells, *col, inner.cells));
                        break; // `cells` moved
                    }
                    rows.push(splice_cloned(&cells, *col, &inner.cells));
                }
            }
            let mut out = NestedRelation::new(schema, rows);
            out.sorted_on = sorted_on;
            Ok(Cow::Owned(out))
        }
        Plan::NavigateContent {
            input,
            content_col,
            base_id_col,
            steps,
            attrs,
            optional,
            name,
        } => {
            let rel = eval_child(input, views, prof, 0)?;
            let mut schema = rel.schema.clone();
            for a in attrs {
                schema.cols.push(Column {
                    name: Symbol::intern(&format!("{name}.{a}")),
                    kind: ColKind::Atom(*a),
                });
            }
            let sorted_on = rel.sorted_on;
            let mut rows = Vec::new();
            for r in rel.rows.iter() {
                let reached: Vec<(Document, Vec<NodeId>)> = match &r.cells[*content_col] {
                    Cell::Content(xml) => {
                        let doc = parse_document(xml).map_err(|e| {
                            ExecError::Type(format!("stored content is not parseable: {e}"))
                        })?;
                        let nodes = navigate(&doc, steps);
                        vec![(doc, nodes)]
                    }
                    Cell::Null => vec![],
                    other => {
                        return Err(ExecError::Type(format!(
                            "navigation on non-content cell {other}"
                        )))
                    }
                };
                let base_id = base_id_col.and_then(|c| match &r.cells[c] {
                    Cell::Id(id) => Some(id.clone()),
                    _ => None,
                });
                let mut any = false;
                for (doc, nodes) in &reached {
                    for &n in nodes {
                        any = true;
                        let mut cells = Vec::with_capacity(r.cells.len() + attrs.len());
                        cells.extend(r.cells.iter().cloned());
                        for a in attrs {
                            cells.push(attr_cell(doc, n, *a, base_id.as_ref()));
                        }
                        rows.push(Row::new(cells));
                    }
                }
                if !any && *optional {
                    let mut cells = Vec::with_capacity(r.cells.len() + attrs.len());
                    cells.extend(r.cells.iter().cloned());
                    cells.extend(std::iter::repeat_n(Cell::Null, attrs.len()));
                    rows.push(Row::new(cells));
                }
            }
            let mut out = NestedRelation::new(schema, rows);
            out.sorted_on = sorted_on;
            Ok(Cow::Owned(out))
        }
        Plan::DeriveParentId {
            input,
            col,
            levels,
            name,
        } => {
            let rel = eval_child(input, views, prof, 0)?;
            derive_parent_ids(rel, *col, *levels, *name).map(Cow::Owned)
        }
        Plan::DupElim { input } => {
            let mut rel = eval_child(input, views, prof, 0)?.into_owned();
            rel.normalize();
            Ok(Cow::Owned(rel))
        }
    }
}

/// Splices `replacement` into `cells` at `at`, consuming both (no cell is
/// cloned).
fn splice_owned(cells: Vec<Cell>, at: usize, replacement: Vec<Cell>) -> Row {
    let mut out = Vec::with_capacity(cells.len() - 1 + replacement.len());
    let mut replacement = Some(replacement);
    for (i, c) in cells.into_iter().enumerate() {
        if i == at {
            out.extend(replacement.take().expect("splice position hit once"));
        } else {
            out.push(c);
        }
    }
    Row::new(out)
}

/// Splices `replacement` into a borrowed `cells` at `at`.
fn splice_cloned(cells: &[Cell], at: usize, replacement: &[Cell]) -> Row {
    let mut out = Vec::with_capacity(cells.len() - 1 + replacement.len());
    for (i, c) in cells.iter().enumerate() {
        if i == at {
            out.extend(replacement.iter().cloned());
        } else {
            out.push(c.clone());
        }
    }
    Row::new(out)
}

fn concat_schemas(a: &Schema, b: &Schema) -> Schema {
    let mut cols = a.cols.clone();
    cols.extend(b.cols.iter().cloned());
    Schema { cols }
}

/// Concatenates a left and a right input row into one joined output row.
fn joined_row(l: &Row, r: &Row, width: usize) -> Row {
    let mut cells = Vec::with_capacity(width);
    cells.extend(l.cells.iter().cloned());
    cells.extend(r.cells.iter().cloned());
    Row::new(cells)
}

/// Collects `(&id, row index)` for non-null ID cells of `col`, in document
/// order. When the relation is already sorted on `col` the pass is a plain
/// scan; otherwise the (id, row) pairs — not the rows — are sorted.
fn gather_ids_sorted(rel: &NestedRelation, col: usize) -> (Vec<&StructId>, Vec<usize>) {
    let mut ids = Vec::new();
    let mut rows = Vec::new();
    for (i, r) in rel.rows.iter().enumerate() {
        if let Cell::Id(id) = &r.cells[col] {
            ids.push(id);
            rows.push(i);
        }
    }
    if rel.sorted_on != Some(col) && !ids.is_empty() {
        let perm = doc_sorted_indices(&ids);
        ids = perm.iter().map(|&i| ids[i]).collect();
        rows = perm.iter().map(|&i| rows[i]).collect();
    }
    (ids, rows)
}

/// Runs the navigation steps from the content root.
fn navigate(doc: &Document, steps: &[NavStep]) -> Vec<NodeId> {
    let mut frontier = vec![doc.root()];
    for step in steps {
        let mut next = Vec::new();
        for &x in &frontier {
            match step.axis {
                Axis::Child => {
                    for &c in doc.children(x) {
                        if step.label.is_none_or(|l| doc.label(c) == l) {
                            next.push(c);
                        }
                    }
                }
                Axis::Descendant => {
                    for c in doc.descendants(x) {
                        if step.label.is_none_or(|l| doc.label(c) == l) {
                            next.push(c);
                        }
                    }
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
    }
    frontier
}

/// Emits one attribute cell for a node inside stored content; IDs are
/// reconstructed from the content root's ID through child ranks (possible
/// exactly for the parent-derivable schemes, §4.6).
fn attr_cell(doc: &Document, n: NodeId, attr: AttrKind, base_id: Option<&StructId>) -> Cell {
    match attr {
        AttrKind::Label => Cell::Label(doc.label(n)),
        AttrKind::Value => doc
            .value(n)
            .map(|v| Cell::Atom(v.clone()))
            .unwrap_or(Cell::Null),
        AttrKind::Content => Cell::Content(serialize_subtree(doc, n).into()),
        AttrKind::Id => {
            let Some(base) = base_id else {
                return Cell::Null;
            };
            // ranks from n up to the content root, applied root first
            let mut ranks = Vec::new();
            let mut cur = n;
            while let Some(p) = doc.parent(cur) {
                ranks.push(doc.child_rank(cur) as usize);
                cur = p;
            }
            ranks
                .into_iter()
                .rev()
                .try_fold(base.clone(), |id, rank| id.child(rank))
                .map_or(Cell::Null, Cell::Id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::struct_join::StructRel;
    use smv_xml::{IdAssignment, IdScheme, Value};
    use std::sync::Mutex;

    fn ids(doc: &Document) -> IdAssignment {
        IdAssignment::assign(doc, IdScheme::OrdPath)
    }

    /// items: a(item(name) item(name) other)
    fn provider() -> (MapProvider, Document) {
        let doc = Document::from_parens(r#"a(item(name="pen" mail) item(name="ink") other="x")"#);
        let ia = ids(&doc);
        let mut items = NestedRelation::empty(Schema::atoms(&[("item.ID", AttrKind::Id)]));
        let mut names = NestedRelation::empty(Schema::atoms(&[
            ("name.ID", AttrKind::Id),
            ("name.V", AttrKind::Value),
        ]));
        for n in doc.iter() {
            match doc.label(n).as_str() {
                "item" => items.rows.push(Row::new(vec![Cell::Id(ia.id(n).clone())])),
                "name" => names.rows.push(Row::new(vec![
                    Cell::Id(ia.id(n).clone()),
                    doc.value(n)
                        .map(|v| Cell::Atom(v.clone()))
                        .unwrap_or(Cell::Null),
                ])),
                _ => {}
            }
        }
        let mut p = MapProvider::default();
        p.insert("items", items);
        p.insert("names", names);
        (p, doc)
    }

    #[test]
    fn scan_select_project() {
        let (p, _) = provider();
        let plan = Plan::Project {
            input: Box::new(Plan::Select {
                input: Box::new(Plan::Scan {
                    view: "names".into(),
                }),
                pred: Predicate::Value {
                    col: 1,
                    formula: smv_pattern::Formula::eq(Value::str("pen")),
                },
            }),
            cols: vec![1],
        };
        let out = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].cells[0], Cell::Atom(Value::str("pen")));
    }

    #[test]
    fn structural_join_pairs_items_with_names() {
        let (p, _) = provider();
        let plan = Plan::StructJoin {
            left: Box::new(Plan::Scan {
                view: "items".into(),
            }),
            right: Box::new(Plan::Scan {
                view: "names".into(),
            }),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Parent,
        };
        let out = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.schema.len(), 3);
    }

    #[test]
    fn structural_join_skips_sort_on_sorted_inputs() {
        // identical results whether the inputs carry the sortedness tag
        let (p, _) = provider();
        let mut p_sorted = MapProvider::default();
        for name in ["items", "names"] {
            let mut rel = p.extent(name).unwrap().clone();
            rel.normalize();
            assert_eq!(rel.sorted_on, Some(0), "{name} extent is id-first");
            p_sorted.insert(name, rel);
        }
        let plan = Plan::StructJoin {
            left: Box::new(Plan::Scan {
                view: "items".into(),
            }),
            right: Box::new(Plan::Scan {
                view: "names".into(),
            }),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Ancestor,
        };
        let a = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
        let b = execute_with(&plan, &p_sorted, &ExecOpts::default()).unwrap();
        assert!(a.set_eq(&b));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn struct_join_output_is_born_sorted_on_right_col() {
        let (p, _) = provider();
        let plan = Plan::StructJoin {
            left: Box::new(Plan::Scan {
                view: "items".into(),
            }),
            right: Box::new(Plan::Scan {
                view: "names".into(),
            }),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Parent,
        };
        let out = eval(&plan, &p, &mut Profiler::unprofiled()).unwrap();
        assert_eq!(out.sorted_on, Some(1), "sorted on the right join column");
        // rows really are in document order on that column
        let ids: Vec<&StructId> = out
            .rows
            .iter()
            .map(|r| match &r.cells[1] {
                Cell::Id(id) => id,
                other => panic!("expected id, got {other}"),
            })
            .collect();
        assert!(ids
            .windows(2)
            .all(|w| w[0].cmp_doc_order(w[1]) != Some(std::cmp::Ordering::Greater)));
    }

    #[test]
    fn id_join_on_equal_ids() {
        let (p, _) = provider();
        let plan = Plan::IdJoin {
            left: Box::new(Plan::Scan {
                view: "names".into(),
            }),
            right: Box::new(Plan::Scan {
                view: "names".into(),
            }),
            lcol: 0,
            rcol: 0,
        };
        let out = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.len(), 2, "each name joins itself only");
    }

    #[test]
    fn union_dedups() {
        let (p, _) = provider();
        let plan = Plan::Union {
            inputs: vec![
                Plan::Scan {
                    view: "names".into(),
                },
                Plan::Scan {
                    view: "names".into(),
                },
            ],
        };
        let out = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn nest_then_unnest_round_trips() {
        let (p, _) = provider();
        let nest = Plan::Nest {
            input: Box::new(Plan::Scan {
                view: "names".into(),
            }),
            key_cols: vec![0],
            nested_cols: vec![1],
            name: "A".into(),
        };
        let nested = execute_with(&nest, &p, &ExecOpts::default()).unwrap();
        assert_eq!(nested.len(), 2);
        assert!(matches!(nested.rows[0].cells[1], Cell::Table(_)));
        let unnest = Plan::Unnest {
            input: Box::new(nest),
            col: 1,
            outer: false,
        };
        let flat = execute_with(&unnest, &p, &ExecOpts::default()).unwrap();
        let orig = execute_with(
            &Plan::Scan {
                view: "names".into(),
            },
            &p,
            &ExecOpts::default(),
        )
        .unwrap();
        assert!(flat.set_eq(&orig));
    }

    #[test]
    fn outer_unnest_keeps_empty_groups() {
        let inner = Schema::atoms(&[("x.V", AttrKind::Value)]);
        let rel = NestedRelation::new(
            Schema {
                cols: vec![
                    Column {
                        name: Symbol::intern("k.ID"),
                        kind: ColKind::Atom(AttrKind::Id),
                    },
                    Column {
                        name: Symbol::intern("A"),
                        kind: ColKind::Nested(inner.clone()),
                    },
                ],
            },
            vec![Row::new(vec![
                Cell::Id(StructId::Seq(1)),
                Cell::Table(Box::new(NestedRelation::empty(inner))),
            ])],
        );
        let mut p = MapProvider::default();
        p.insert("v", rel);
        let inner_plan = Plan::Unnest {
            input: Box::new(Plan::Scan { view: "v".into() }),
            col: 1,
            outer: true,
        };
        let out = execute_with(&inner_plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.rows[0].cells[1].is_null());
        let dropped = execute_with(
            &Plan::Unnest {
                input: Box::new(Plan::Scan { view: "v".into() }),
                col: 1,
                outer: false,
            },
            &p,
            &ExecOpts::default(),
        )
        .unwrap();
        assert!(dropped.is_empty());
    }

    #[test]
    fn navigate_content_extracts_descendants_with_ids() {
        // store content of <item> and navigate to name, reconstructing ids
        let doc = Document::from_parens(r#"a(item(name="pen"))"#);
        let ia = ids(&doc);
        let item = NodeId(1);
        let rel = NestedRelation::new(
            Schema::atoms(&[("item.ID", AttrKind::Id), ("item.C", AttrKind::Content)]),
            vec![Row::new(vec![
                Cell::Id(ia.id(item).clone()),
                Cell::Content(serialize_subtree(&doc, item).into()),
            ])],
        );
        let mut p = MapProvider::default();
        p.insert("v", rel);
        let plan = Plan::NavigateContent {
            input: Box::new(Plan::Scan { view: "v".into() }),
            content_col: 1,
            base_id_col: Some(0),
            steps: vec![NavStep {
                axis: Axis::Child,
                label: Some(smv_xml::Label::intern("name")),
            }],
            attrs: vec![AttrKind::Id, AttrKind::Value],
            optional: false,
            name: "name".into(),
        };
        let out = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.len(), 1);
        // reconstructed id equals the real assignment
        assert_eq!(out.rows[0].cells[2], Cell::Id(ia.id(NodeId(2)).clone()));
        assert_eq!(out.rows[0].cells[3], Cell::Atom(Value::str("pen")));
    }

    #[test]
    fn navigate_content_optional_keeps_rows() {
        let doc = Document::from_parens("a(item)");
        let ia = ids(&doc);
        let rel = NestedRelation::new(
            Schema::atoms(&[("item.ID", AttrKind::Id), ("item.C", AttrKind::Content)]),
            vec![Row::new(vec![
                Cell::Id(ia.id(NodeId(1)).clone()),
                Cell::Content(serialize_subtree(&doc, NodeId(1)).into()),
            ])],
        );
        let mut p = MapProvider::default();
        p.insert("v", rel);
        let mk = |optional| Plan::NavigateContent {
            input: Box::new(Plan::Scan { view: "v".into() }),
            content_col: 1,
            base_id_col: None,
            steps: vec![NavStep {
                axis: Axis::Descendant,
                label: Some(smv_xml::Label::intern("zz")),
            }],
            attrs: vec![AttrKind::Value],
            optional,
            name: "z".into(),
        };
        assert_eq!(
            execute_with(&mk(true), &p, &ExecOpts::default())
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            execute_with(&mk(false), &p, &ExecOpts::default())
                .unwrap()
                .len(),
            0
        );
    }

    #[test]
    fn derive_parent_id_walks_up() {
        let doc = Document::from_parens("a(b(c))");
        let ia = ids(&doc);
        let rel = NestedRelation::new(
            Schema::atoms(&[("c.ID", AttrKind::Id)]),
            vec![Row::new(vec![Cell::Id(ia.id(NodeId(2)).clone())])],
        );
        let mut p = MapProvider::default();
        p.insert("v", rel);
        let plan = Plan::DeriveParentId {
            input: Box::new(Plan::Scan { view: "v".into() }),
            col: 0,
            levels: 1,
            name: "b.ID".into(),
        };
        let out = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.rows[0].cells[1], Cell::Id(ia.id(NodeId(1)).clone()));
        // two levels: root
        let plan2 = Plan::DeriveParentId {
            input: Box::new(Plan::Scan { view: "v".into() }),
            col: 0,
            levels: 2,
            name: "a.ID".into(),
        };
        let out2 = execute_with(&plan2, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out2.rows[0].cells[1], Cell::Id(ia.id(NodeId(0)).clone()));
        // past the root: null
        let plan3 = Plan::DeriveParentId {
            input: Box::new(Plan::Scan { view: "v".into() }),
            col: 0,
            levels: 5,
            name: "x".into(),
        };
        assert!(execute_with(&plan3, &p, &ExecOpts::default()).unwrap().rows[0].cells[1].is_null());
    }

    #[test]
    fn unknown_view_errors() {
        let p = MapProvider::default();
        let e =
            execute_with(&Plan::Scan { view: "zz".into() }, &p, &ExecOpts::default()).unwrap_err();
        assert_eq!(e.kind(), &ExecError::UnknownView("zz".into()));
        assert_eq!(e.op_path(), Some(""), "root operator");
        assert_eq!(e.op_name(), Some("Scan(zz)"));
    }

    #[test]
    fn errors_locate_the_deepest_failing_operator() {
        // the bad scan sits at path 0.1 (select → join right)
        let plan = Plan::Select {
            input: Box::new(Plan::IdJoin {
                left: Box::new(Plan::Scan {
                    view: "items".into(),
                }),
                right: Box::new(Plan::Scan { view: "zz".into() }),
                lcol: 0,
                rcol: 0,
            }),
            pred: Predicate::NotNull { col: 0 },
        };
        let e = execute_with(&plan, &provider().0, &ExecOpts::default()).unwrap_err();
        assert_eq!(e.kind(), &ExecError::UnknownView("zz".into()));
        assert_eq!(e.op_path(), Some("0.1"));
        assert_eq!(e.op_name(), Some("Scan(zz)"));
        let msg = e.to_string();
        assert!(msg.contains("unknown view `zz`"), "{msg}");
        assert!(msg.contains("0.1"), "{msg}");
        assert!(msg.contains("Scan(zz)"), "{msg}");
    }

    /// A provider that builds projections itself, as a disk catalog does,
    /// and notes every column list it is asked for.
    struct Projecting {
        inner: MapProvider,
        asked: Mutex<Vec<Vec<usize>>>,
    }

    impl ViewProvider for Projecting {
        fn extent(&self, name: &str) -> Result<&NestedRelation, ExecError> {
            self.inner.extent(name)
        }

        fn project_scan(
            &self,
            name: &str,
            cols: &[usize],
        ) -> Result<Option<NestedRelation>, ExecError> {
            self.asked.lock().unwrap().push(cols.to_vec());
            let rel = self.inner.extent(name)?;
            if cols.iter().any(|&c| c >= rel.schema.len()) {
                return Ok(None);
            }
            let schema = Schema {
                cols: cols.iter().map(|&c| rel.schema.cols[c].clone()).collect(),
            };
            let rows = rel.rows.iter();
            let rows = rows.map(|r| Row::new(cols.iter().map(|&c| r.cells[c].clone()).collect()));
            let mut out = NestedRelation::new(schema, rows.collect());
            out.sorted_on = rel
                .sorted_on
                .and_then(|s| cols.iter().position(|&c| c == s));
            Ok(Some(out))
        }
    }

    #[test]
    fn fused_scan_matches_the_generic_path() {
        let plain = provider().0;
        let fused = Projecting {
            inner: provider().0,
            asked: Mutex::default(),
        };
        let plan = |view: &str, cols: Vec<usize>| Plan::DupElim {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::Scan { view: view.into() }),
                cols,
            }),
        };
        let opts = ExecOpts::default();
        // ascending lists are asked for, others take the generic path;
        // either way rows and profile counters are the generic path's
        for (cols, asked) in [(vec![1], true), (vec![0, 1], true), (vec![1, 0], false)] {
            let p = plan("names", cols.clone());
            let (want, want_prof) = execute_profiled_with(&p, &plain, &opts).unwrap();
            let (got, got_prof) = execute_profiled_with(&p, &fused, &opts).unwrap();
            assert_eq!(got.rows, want.rows, "{cols:?}");
            assert_eq!(got.sorted_on, want.sorted_on, "{cols:?}");
            for (path, rows) in want_prof.iter() {
                assert_eq!(got_prof.rows_at(path), Some(rows), "{cols:?} at `{path}`");
            }
            assert_eq!(got_prof.iter().count(), want_prof.iter().count());
            assert!(got_prof.time_ns_at("0.0").is_some(), "the scan is timed");
            let was_asked = fused.asked.lock().unwrap().pop();
            assert_eq!(was_asked, asked.then_some(cols));
        }
        // a column past the schema: declined, reported by the Project
        let e = execute_with(&plan("names", vec![0, 5]), &fused, &opts).unwrap_err();
        assert!(matches!(e.kind(), ExecError::Schema(_)), "{e}");
        assert_eq!(e.op_path(), Some("0"));
        // the provider's own errors are the scan's
        let e = execute_with(&plan("zz", vec![0]), &fused, &opts).unwrap_err();
        assert_eq!(e.kind(), &ExecError::UnknownView("zz".into()));
        assert_eq!((e.op_path(), e.op_name()), (Some("0.0"), Some("Scan(zz)")));
    }

    #[test]
    fn project_over_an_unread_parent_id_matches_the_generic_path() {
        let plain = provider().0;
        let fused = Projecting {
            inner: provider().0,
            asked: Mutex::default(),
        };
        let plan = |col: usize, cols: Vec<usize>| Plan::DupElim {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::DeriveParentId {
                    input: Box::new(Plan::Scan {
                        view: "names".into(),
                    }),
                    col,
                    levels: 1,
                    name: "p.ID".into(),
                }),
                cols,
            }),
        };
        let opts = ExecOpts::default();
        // the derived column is #2; dropped or kept, rows and profile
        // counters are the generic path's. A Project that drops it reads
        // the scan projected; one that keeps it is declined by the
        // provider, or not asked when its columns are not ascending
        for (cols, asked) in [
            (vec![0, 1], true),
            (vec![0], true),
            (vec![0, 2], true),
            (vec![2, 0], false),
        ] {
            let p = plan(0, cols.clone());
            let (want, want_prof) = execute_profiled_with(&p, &plain, &opts).unwrap();
            let (got, got_prof) = execute_profiled_with(&p, &fused, &opts).unwrap();
            assert_eq!(got.rows, want.rows, "{cols:?}");
            assert_eq!(got.schema, want.schema, "{cols:?}");
            assert_eq!(got.sorted_on, want.sorted_on, "{cols:?}");
            for (path, rows) in want_prof.iter() {
                assert_eq!(got_prof.rows_at(path), Some(rows), "{cols:?} at `{path}`");
            }
            assert_eq!(got_prof.iter().count(), want_prof.iter().count());
            assert_eq!(got_prof.rows_at("0.0"), Some(2), "the derive's rows");
            assert!(got_prof.time_ns_at("0.0").is_some(), "the derive is timed");
            assert!(got_prof.time_ns_at("0.0.0").is_some(), "the scan is timed");
            let was_asked = fused.asked.lock().unwrap().pop();
            assert_eq!(was_asked, asked.then_some(cols));
        }
        // a derive over a non-id column fails at the derive, kept or not
        for cols in [vec![0, 1], vec![1, 2]] {
            let e = execute_with(&plan(1, cols), &fused, &opts).unwrap_err();
            assert!(matches!(e.kind(), ExecError::Type(_)), "{e}");
            assert_eq!(e.op_path(), Some("0.0"));
        }
        // a column past the derive's schema: reported by the Project
        let e = execute_with(&plan(0, vec![0, 3]), &fused, &opts).unwrap_err();
        assert!(matches!(e.kind(), ExecError::Schema(_)), "{e}");
        assert_eq!(e.op_path(), Some("0"));
    }

    #[test]
    fn profiled_run_records_operator_times() {
        let prov = provider().0;
        let plan = Plan::Select {
            input: Box::new(Plan::Scan {
                view: "names".into(),
            }),
            pred: Predicate::NotNull { col: 0 },
        };
        let (_, prof) = execute_profiled_with(&plan, &prov, &ExecOpts::default()).unwrap();
        // every profiled operator has an inclusive wall time
        for (path, _) in prof.iter() {
            assert!(prof.time_ns_at(path).is_some(), "no time at `{path}`");
        }
    }
}
