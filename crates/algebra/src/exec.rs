//! Plan execution against a view catalog.
//!
//! A materialize-everything evaluator: every operator consumes and
//! produces a [`NestedRelation`]. The hot path is engineered around three
//! ideas (see the crate docs):
//!
//! * **borrowed inputs** — `eval` returns `Cow<NestedRelation>`; a view
//!   scan borrows the catalog extent and operators clone only the cells
//!   that survive into their output, never whole input relations. One
//!   rule, `project_input`, decides what a `Project` reads: a `Scan` the
//!   provider projects itself ([`ViewProvider::project_scan`]), a
//!   `Select` that builds only the kept cells of the borrowed rows that
//!   pass, a `DeriveParentId` whose new column the `Project` drops, which
//!   only checks its source ids; anything else runs alone. The root is
//!   normalized once: a `DupElim` or `Union` root already did it;
//! * **sort-based structural joins** — ancestor/parent predicates run the
//!   stack-tree merge over inputs sorted once in document order, with
//!   sortedness tracked on [`NestedRelation`] so chained joins (and scans
//!   of normalized extents) skip re-sorting; the nested-loop variant
//!   survives only as a test oracle;
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
/// and inclusive wall time into an [`ExecProfile`] keyed by its
/// positional path in the plan tree.
///
/// Profiling copies and re-walks no row: the rows are
/// [`execute_with`]'s, and each operator costs one clock read on entry
/// and one on exit (the unprofiled entry point skips both). The root
/// entry is overwritten after the final normalization, so its count
/// always equals the returned relation's size and its time spans the
/// whole execution. `opts` is not read (see [`ExecOpts`]).
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

/// Evaluates `plan` as the root operator.
fn eval<'a>(
    plan: &Plan,
    views: &'a dyn ViewProvider,
    prof: &mut Profiler,
) -> Result<Cow<'a, NestedRelation>, ExecError> {
    frame(plan, None, prof, |prof| eval_op(plan, views, prof))
}

/// Evaluates the `idx`-th input of the current operator.
fn eval_child<'a>(
    plan: &Plan,
    views: &'a dyn ViewProvider,
    prof: &mut Profiler,
    idx: u32,
) -> Result<Cow<'a, NestedRelation>, ExecError> {
    frame(plan, Some(idx), prof, |prof| eval_op(plan, views, prof))
}

/// Runs `body` as operator `plan`, the `idx`-th input of the current
/// operator (the root when `None`): when profiling, records its output
/// size and inclusive wall time at its path. Failures get located at the
/// deepest operator that raised them (parent frames pass an
/// already-located error on).
fn frame<T: AsRef<NestedRelation>>(
    plan: &Plan,
    idx: Option<u32>,
    prof: &mut Profiler,
    body: impl FnOnce(&mut Profiler) -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    if let Some(i) = idx {
        prof.path.push(i);
    }
    let t = prof.start();
    let out = body(prof);
    if let Ok(rel) = &out {
        prof.record(rel.as_ref().len(), t);
    }
    let out = out.map_err(|e| e.locate(&prof.path, plan));
    if idx.is_some() {
        prof.path.pop();
    }
    out
}

/// What a `Project` reads: its input's relation, or that relation
/// already projected onto the `Project`'s columns.
enum ProjectInput<'a> {
    Whole(Cow<'a, NestedRelation>),
    Projected(NestedRelation),
}

impl AsRef<NestedRelation> for ProjectInput<'_> {
    fn as_ref(&self) -> &NestedRelation {
        match self {
            ProjectInput::Whole(rel) => rel,
            ProjectInput::Projected(rel) => rel,
        }
    }
}

/// Evaluates `plan`, the input of a `Project` onto `cols`, in its own
/// frame, so its rows, errors and profile are those it has alone:
/// * a `Scan`, when `cols` is strictly ascending, is the provider's
///   projection ([`ViewProvider::project_scan`]) if it builds one, else
///   the borrowed extent;
/// * a `Select` whose input comes back borrowed with every column in
///   `cols` tests the predicate there and builds only the kept cells of
///   the rows that pass ([`select_projected`]);
/// * a `DeriveParentId` whose source column `cols` keeps hands `cols` to
///   its own input by this rule and, unless `cols` keeps the derived
///   column too, derives nothing: it only checks its source cells;
/// * anything else runs alone.
fn project_input<'a>(
    plan: &Plan,
    cols: &[usize],
    views: &'a dyn ViewProvider,
    prof: &mut Profiler,
) -> Result<ProjectInput<'a>, ExecError> {
    let in_range = |rel: &NestedRelation| cols.iter().all(|&c| c < rel.schema.len());
    frame(plan, Some(0), prof, |prof| match plan {
        Plan::Scan { view } if cols.is_sorted_by(|a, b| a < b) => {
            Ok(match views.project_scan(view, cols)? {
                Some(rel) => ProjectInput::Projected(rel),
                None => ProjectInput::Whole(Cow::Borrowed(views.extent(view)?)),
            })
        }
        Plan::Select { input, pred } => match eval_child(input, views, prof, 0)? {
            Cow::Borrowed(rel) if in_range(rel) => {
                select_projected(rel, pred, cols).map(ProjectInput::Projected)
            }
            rel => select(rel, pred).map(ProjectInput::Whole),
        },
        Plan::DeriveParentId {
            input,
            col,
            levels,
            name,
        } if cols.contains(col) => match project_input(input, cols, views, prof)? {
            ProjectInput::Projected(rel) => {
                let at = cols
                    .iter()
                    .position(|c| c == col)
                    .expect("the guard found it");
                check_id_cells(&rel, at).map(|()| ProjectInput::Projected(rel))
            }
            ProjectInput::Whole(rel) if in_range(&rel) => {
                check_id_cells(&rel, *col).map(|()| ProjectInput::Whole(rel))
            }
            ProjectInput::Whole(rel) => derive_parent_ids(rel, *col, *levels, *name)
                .map(|rel| ProjectInput::Whole(Cow::Owned(rel))),
        },
        _ => eval_op(plan, views, prof).map(ProjectInput::Whole),
    })
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
    let (schema, sorted_on) = projected_shape(&rel, cols);
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

/// The schema of `rel` projected onto `cols`, and the projected column
/// it is sorted on, if any.
fn projected_shape(rel: &NestedRelation, cols: &[usize]) -> (Schema, Option<usize>) {
    let schema = Schema {
        cols: cols.iter().map(|&c| rel.schema.cols[c].clone()).collect(),
    };
    let sorted_on = rel
        .sorted_on
        .and_then(|s| cols.iter().position(|&c| c == s));
    (schema, sorted_on)
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

/// Does `row` pass `pred`? A `⊥` cell passes no value or label test.
fn passes(row: &Row, pred: &Predicate) -> Result<bool, ExecError> {
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
}

/// `Select`: the rows of `rel` that pass `pred`, in their order, hence
/// with their sortedness. An owned input keeps its rows; a borrowed one
/// has the passing rows cloned.
fn select<'a>(
    rel: Cow<'a, NestedRelation>,
    pred: &Predicate,
) -> Result<Cow<'a, NestedRelation>, ExecError> {
    match rel {
        Cow::Owned(mut rel) => {
            let mut rows = Vec::with_capacity(rel.rows.len());
            for r in rel.rows {
                if passes(&r, pred)? {
                    rows.push(r);
                }
            }
            rel.rows = rows;
            Ok(Cow::Owned(rel))
        }
        Cow::Borrowed(rel) => {
            let mut rows = Vec::new();
            for r in &rel.rows {
                if passes(r, pred)? {
                    rows.push(r.clone());
                }
            }
            let mut out = NestedRelation::new(rel.schema.clone(), rows);
            out.sorted_on = rel.sorted_on;
            Ok(Cow::Owned(out))
        }
    }
}

/// `Project(cols)` over `Select(pred)` over the borrowed `rel`, in one
/// pass: the predicate is tested on the borrowed rows and only the
/// projected cells of the rows that pass are built. Every index in
/// `cols` is within `rel`'s schema.
fn select_projected(
    rel: &NestedRelation,
    pred: &Predicate,
    cols: &[usize],
) -> Result<NestedRelation, ExecError> {
    let mut rows = Vec::new();
    for r in &rel.rows {
        if passes(r, pred)? {
            rows.push(Row::new(cols.iter().map(|&c| r.cells[c].clone()).collect()));
        }
    }
    let (schema, sorted_on) = projected_shape(rel, cols);
    let mut out = NestedRelation::new(schema, rows);
    out.sorted_on = sorted_on;
    Ok(out)
}

fn eval_op<'a>(
    plan: &Plan,
    views: &'a dyn ViewProvider,
    prof: &mut Profiler,
) -> Result<Cow<'a, NestedRelation>, ExecError> {
    match plan {
        Plan::Scan { view } => views.extent(view).map(Cow::Borrowed),
        Plan::Select { input, pred } => select(eval_child(input, views, prof, 0)?, pred),
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
            input: Arc::new(Plan::Select {
                input: Arc::new(Plan::Scan {
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
            left: Arc::new(Plan::Scan {
                view: "items".into(),
            }),
            right: Arc::new(Plan::Scan {
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
            left: Arc::new(Plan::Scan {
                view: "items".into(),
            }),
            right: Arc::new(Plan::Scan {
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
            left: Arc::new(Plan::Scan {
                view: "items".into(),
            }),
            right: Arc::new(Plan::Scan {
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
            left: Arc::new(Plan::Scan {
                view: "names".into(),
            }),
            right: Arc::new(Plan::Scan {
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
            input: Arc::new(Plan::Scan {
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
            input: Arc::new(nest),
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
            input: Arc::new(Plan::Scan { view: "v".into() }),
            col: 1,
            outer: true,
        };
        let out = execute_with(&inner_plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.rows[0].cells[1].is_null());
        let dropped = execute_with(
            &Plan::Unnest {
                input: Arc::new(Plan::Scan { view: "v".into() }),
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
            input: Arc::new(Plan::Scan { view: "v".into() }),
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
            input: Arc::new(Plan::Scan { view: "v".into() }),
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
            input: Arc::new(Plan::Scan { view: "v".into() }),
            col: 0,
            levels: 1,
            name: "b.ID".into(),
        };
        let out = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out.rows[0].cells[1], Cell::Id(ia.id(NodeId(1)).clone()));
        // two levels: root
        let plan2 = Plan::DeriveParentId {
            input: Arc::new(Plan::Scan { view: "v".into() }),
            col: 0,
            levels: 2,
            name: "a.ID".into(),
        };
        let out2 = execute_with(&plan2, &p, &ExecOpts::default()).unwrap();
        assert_eq!(out2.rows[0].cells[1], Cell::Id(ia.id(NodeId(0)).clone()));
        // past the root: null
        let plan3 = Plan::DeriveParentId {
            input: Arc::new(Plan::Scan { view: "v".into() }),
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
            input: Arc::new(Plan::IdJoin {
                left: Arc::new(Plan::Scan {
                    view: "items".into(),
                }),
                right: Arc::new(Plan::Scan { view: "zz".into() }),
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
            input: Arc::new(Plan::Project {
                input: Arc::new(Plan::Scan { view: view.into() }),
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
    fn fused_select_matches_the_generic_path() {
        let doc = Document::from_parens(r#"a(b="1" c="2" b d="3" c="1")"#);
        let ia = ids(&doc);
        let mut rel = NestedRelation::empty(Schema::atoms(&[
            ("x.ID", AttrKind::Id),
            ("x.L", AttrKind::Label),
            ("x.V", AttrKind::Value),
        ]));
        for n in doc.iter().skip(1) {
            rel.rows.push(Row::new(vec![
                Cell::Id(ia.id(n).clone()),
                Cell::Label(doc.label(n)),
                doc.value(n).map_or(Cell::Null, |v| Cell::Atom(v.clone())),
            ]));
        }
        rel.rows.push(Row::new(vec![Cell::Null; 3]));
        rel.sorted_on = Some(0);
        let mut views = MapProvider::default();
        views.insert("x", rel);
        let scan = || Plan::Scan { view: "x".into() };
        let select = |input: Plan, pred: &Predicate| Plan::Select {
            input: Arc::new(input),
            pred: pred.clone(),
        };
        // the Select reads the borrowed scan, fused into the Project; the
        // generic path reads it through an identity Project, owned
        let fused = |pred: &Predicate, cols: &[usize]| Plan::Project {
            input: Arc::new(select(scan(), pred)),
            cols: cols.to_vec(),
        };
        let generic = |pred: &Predicate, cols: &[usize]| Plan::Project {
            input: Arc::new(select(
                Plan::Project {
                    input: Arc::new(scan()),
                    cols: vec![0, 1, 2],
                },
                pred,
            )),
            cols: cols.to_vec(),
        };
        let preds = [
            Predicate::Value {
                col: 2,
                formula: smv_pattern::Formula::gt(Value::int(1)),
            },
            Predicate::LabelEq {
                col: 1,
                label: "c".into(),
            },
            Predicate::NotNull { col: 2 },
        ];
        let opts = ExecOpts::default();
        let extent = views.extent("x").unwrap();
        // ascending, unordered and repeated columns
        for pred in &preds {
            let selected = super::select(Cow::Borrowed(extent), pred).unwrap();
            assert!(!selected.rows.is_empty(), "{pred:?} selects rows");
            for cols in [&[0, 2][..], &[2, 0], &[1, 1, 0], &[1]] {
                // one pass builds what a Select and then a Project build
                let one = select_projected(extent, pred, cols).unwrap();
                let two = project(selected.clone(), cols).unwrap();
                assert_eq!(one.rows, two.rows, "{pred:?} {cols:?}");
                assert_eq!(one.schema, two.schema, "{pred:?} {cols:?}");
                assert_eq!(one.sorted_on, two.sorted_on, "{pred:?} {cols:?}");
                let (want, want_prof) =
                    execute_profiled_with(&generic(pred, cols), &views, &opts).unwrap();
                let (got, got_prof) =
                    execute_profiled_with(&fused(pred, cols), &views, &opts).unwrap();
                assert_eq!(got.rows, want.rows, "{pred:?} {cols:?}");
                assert_eq!(got.schema, want.schema, "{pred:?} {cols:?}");
                assert_eq!(got.sorted_on, want.sorted_on, "{pred:?} {cols:?}");
                // the Project, the Select and the scan, each counted as
                // if it ran alone; the generic path also has its identity
                // Project at `0.0`
                for (path, rows) in [
                    ("", got.len()),
                    ("0", selected.len()),
                    ("0.0", extent.len()),
                ] {
                    assert_eq!(
                        got_prof.rows_at(path),
                        Some(rows as u64),
                        "{pred:?} {cols:?} at `{path}`"
                    );
                    assert_eq!(got_prof.rows_at(path), want_prof.rows_at(path), "`{path}`");
                    assert!(got_prof.time_ns_at(path).is_some(), "`{path}` is timed");
                }
                assert_eq!(got_prof.iter().count(), 3);
            }
        }
        // the Select's own error is located at the Select
        let on_id = Predicate::Value {
            col: 0,
            formula: smv_pattern::Formula::gt(Value::int(1)),
        };
        for plan in [fused(&on_id, &[0]), generic(&on_id, &[0])] {
            let e = execute_with(&plan, &views, &opts).unwrap_err();
            assert!(matches!(e.kind(), ExecError::Type(_)), "{e}");
            assert_eq!(e.op_path(), Some("0"));
        }
        // a column past the schema: the Select runs alone, the Project
        // reports it
        let e = execute_with(&fused(&preds[2], &[0, 3]), &views, &opts).unwrap_err();
        assert!(matches!(e.kind(), ExecError::Schema(_)), "{e}");
        assert_eq!(e.op_path(), Some(""));
    }

    #[test]
    fn project_over_an_unread_parent_id_matches_the_generic_path() {
        let plain = provider().0;
        let fused = Projecting {
            inner: provider().0,
            asked: Mutex::default(),
        };
        let plan = |col: usize, cols: Vec<usize>| Plan::DupElim {
            input: Arc::new(Plan::Project {
                input: Arc::new(Plan::DeriveParentId {
                    input: Arc::new(Plan::Scan {
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

    /// `plan`, a `Project`, evaluated with profiling by the executor, or
    /// with its input run alone: `project_input`'s rule off.
    fn run_project(
        plan: &Plan,
        views: &dyn ViewProvider,
        alone: bool,
    ) -> Result<(NestedRelation, ExecProfile), ExecError> {
        let mut prof = Profiler {
            profile: Some(ExecProfile::default()),
            path: Vec::new(),
        };
        let out = match plan {
            Plan::Project { input, cols } if alone => frame(plan, None, &mut prof, |prof| {
                project(eval_child(input, views, prof, 0)?, cols).map(Cow::Owned)
            }),
            _ => eval(plan, views, &mut prof),
        }?;
        Ok((out.into_owned(), prof.profile.expect("profiling")))
    }

    #[test]
    fn project_input_matches_its_input_run_alone() {
        // x: (id, label, value) of every node below the root, sorted on
        // the id, and an all-⊥ row
        let doc = Document::from_parens(r#"a(b="1" c="2" b d="3" c="1")"#);
        let ia = ids(&doc);
        let mut rel = NestedRelation::empty(Schema::atoms(&[
            ("x.ID", AttrKind::Id),
            ("x.L", AttrKind::Label),
            ("x.V", AttrKind::Value),
        ]));
        for n in doc.iter().skip(1) {
            rel.rows.push(Row::new(vec![
                Cell::Id(ia.id(n).clone()),
                Cell::Label(doc.label(n)),
                doc.value(n).map_or(Cell::Null, |v| Cell::Atom(v.clone())),
            ]));
        }
        rel.rows.push(Row::new(vec![Cell::Null; 3]));
        rel.sorted_on = Some(0);
        let mut plain = MapProvider::default();
        plain.insert("x", rel.clone());
        let mut projecting = Projecting {
            inner: MapProvider::default(),
            asked: Mutex::default(),
        };
        projecting.inner.insert("x", rel);

        let scan = |view: &str| Plan::Scan { view: view.into() };
        let select = |input: Plan, pred: &Predicate| Plan::Select {
            input: Arc::new(input),
            pred: pred.clone(),
        };
        let derive = |input: Plan, col: usize| Plan::DeriveParentId {
            input: Arc::new(input),
            col,
            levels: 1,
            name: "p.ID".into(),
        };
        let preds = [
            Predicate::Value {
                col: 2,
                formula: smv_pattern::Formula::gt(Value::int(1)),
            },
            Predicate::LabelEq {
                col: 1,
                label: "c".into(),
            },
            Predicate::NotNull { col: 2 },
        ];
        let on_id = Predicate::Value {
            col: 0,
            formula: smv_pattern::Formula::gt(Value::int(1)),
        };
        // (the Project's input, its columns, whether `Projecting` is asked
        // for them, where the plan fails). `x` has three columns, so a
        // derivation's new column is #3.
        let mut table = vec![
            // scans: only ascending lists are asked for; a column past
            // the schema is declined and the Project reports it; the
            // provider's own error is the scan's
            (scan("x"), vec![1], true, None),
            (scan("x"), vec![0, 2], true, None),
            (scan("x"), vec![2, 0], false, None),
            (scan("x"), vec![1, 1], false, None),
            (scan("x"), vec![0, 5], true, Some("")),
            (scan("zz"), vec![0], true, Some("0")),
            // derivations: the source kept and the new column dropped,
            // or kept too (the provider declines); the source dropped; a
            // non-id source, kept with or without the new column
            (derive(scan("x"), 0), vec![0, 1], true, None),
            (derive(scan("x"), 0), vec![0], true, None),
            (derive(scan("x"), 0), vec![0, 3], true, None),
            (derive(scan("x"), 0), vec![3, 0], false, None),
            (derive(scan("x"), 0), vec![1, 2], false, None),
            (derive(scan("x"), 1), vec![0, 1], true, Some("0")),
            (derive(scan("x"), 1), vec![1, 3], true, Some("0")),
            (derive(scan("x"), 0), vec![0, 5], true, Some("")),
            // a derivation hands the columns to a Select
            (
                derive(select(scan("x"), &preds[2]), 0),
                vec![0, 2],
                false,
                None,
            ),
            (
                derive(select(scan("x"), &preds[2]), 0),
                vec![0, 3],
                false,
                None,
            ),
            (
                derive(select(scan("x"), &on_id), 0),
                vec![0],
                false,
                Some("0.0"),
            ),
            // a Select over an owned input, past its input's schema, or
            // failing its own test runs alone
            (
                select(derive(scan("x"), 0), &preds[2]),
                vec![0, 3],
                false,
                None,
            ),
            (select(scan("x"), &preds[2]), vec![0, 3], false, Some("")),
            (select(scan("x"), &on_id), vec![0], false, Some("0")),
        ];
        // a Select over the borrowed scan: ascending, unordered and
        // repeated columns
        for pred in &preds {
            for cols in [&[0, 2][..], &[2, 0], &[1, 1, 0], &[1]] {
                table.push((select(scan("x"), pred), cols.to_vec(), false, None));
            }
        }
        for (input, cols, asked, fails_at) in table {
            let plan = Plan::Project {
                input: Arc::new(input),
                cols: cols.clone(),
            };
            for views in [&plain as &dyn ViewProvider, &projecting] {
                let got = run_project(&plan, views, false);
                let want = run_project(&plan, views, true);
                match (got, want) {
                    (Ok((got, got_prof)), Ok((want, want_prof))) => {
                        assert_eq!(fails_at, None, "{plan}");
                        assert_eq!(got.rows, want.rows, "{plan}");
                        assert_eq!(got.schema, want.schema, "{plan}");
                        assert_eq!(got.sorted_on, want.sorted_on, "{plan}");
                        assert_eq!(got_prof.len(), want_prof.len(), "{plan}");
                        for (path, rows) in want_prof.iter() {
                            assert_eq!(got_prof.rows_at(path), Some(rows), "{plan} at `{path}`");
                            assert!(got_prof.time_ns_at(path).is_some(), "{plan} at `{path}`");
                        }
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got.kind(), want.kind(), "{plan}");
                        assert_eq!(got.op_path(), fails_at, "{plan}");
                        assert_eq!(got.op_path(), want.op_path(), "{plan}");
                        assert_eq!(got.op_name(), want.op_name(), "{plan}");
                    }
                    (got, want) => panic!(
                        "{plan}: {:?} alone, {:?} by the rule",
                        want.err(),
                        got.err()
                    ),
                }
            }
            let was_asked = std::mem::take(&mut *projecting.asked.lock().unwrap());
            assert_eq!(was_asked, if asked { vec![cols] } else { vec![] }, "{plan}");
        }
    }

    #[test]
    fn profiled_run_records_operator_times() {
        let prov = provider().0;
        let plan = Plan::Select {
            input: Arc::new(Plan::Scan {
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
