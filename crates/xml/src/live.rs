//! Live documents: batched insert/delete updates with stable node identity.
//!
//! The arena [`Document`] is immutable — [`NodeId`] *is* the pre-order
//! rank, so any structural change renumbers nodes. A [`LiveDoc`] keeps
//! that invariant while supporting updates: each applied [`UpdateBatch`]
//! rebuilds the arena (fresh pre-order ranks) but carries every surviving
//! node's **structural identifier** ([`StructId`]) over unchanged. IDs are
//! the stable identity: extents and summaries key on them, so view maintenance (smv-views) can diff two document versions
//! without positional bookkeeping.
//!
//! Identity rules, which the maintenance layer's correctness proofs rely
//! on:
//!
//! - **survivors keep their ID** — a node untouched by the batch has the
//!   same [`StructId`] before and after, at any [`IdScheme`];
//! - **fresh nodes get fresh IDs** — an inserted fragment root is labeled
//!   `parent_id.child(r)` where `r` comes from a monotone per-parent
//!   counter seeded at the parent's child count when first touched, so a
//!   rank (and hence an ID) is never handed out twice, even after
//!   deletions; fragment interiors hang off that fresh root and inherit
//!   its freshness; sequential IDs draw from a document-global counter;
//! - **deleted IDs are never reused** — consequence of the two rules
//!   above; a deleted subtree's ID set therefore identifies its rows in
//!   any materialized extent forever.

use crate::ids::{IdAssignment, IdScheme, StructId};
use crate::tree::{Document, NodeId, TreeBuilder};
use std::collections::HashMap;

/// One update operation against a live document.
#[derive(Clone, Debug)]
pub enum Update {
    /// Append `fragment` (a well-formed single-rooted tree) as the last
    /// child of the node identified by `parent`.
    Insert {
        /// Structural ID of the surviving node to insert under.
        parent: StructId,
        /// The subtree to graft; its root becomes a new child.
        fragment: Document,
    },
    /// Delete the node identified by `id` together with its whole subtree.
    Delete {
        /// Structural ID of the subtree root to remove.
        id: StructId,
    },
}

/// An ordered batch of updates applied atomically.
///
/// Batch semantics: all deletions resolve against the pre-batch document
/// first; insertions then graft under *surviving* parents, appending as
/// last children in operation order. Inserting under a node the same
/// batch deletes is an error.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    /// The operations, in application order.
    pub ops: Vec<Update>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Adds a subtree insertion.
    pub fn insert(&mut self, parent: StructId, fragment: Document) {
        self.ops.push(Update::Insert { parent, fragment });
    }

    /// Adds a subtree deletion.
    pub fn delete(&mut self, id: StructId) {
        self.ops.push(Update::Delete { id });
    }

    /// True when the batch contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// Why a batch could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LiveError {
    /// An operation referenced an ID not present in the document.
    UnknownId(StructId),
    /// A deletion targeted the document root.
    DeleteRoot,
    /// An insertion targeted a node deleted by the same batch.
    InsertUnderDeleted(StructId),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::UnknownId(id) => write!(f, "unknown node id {id}"),
            LiveError::DeleteRoot => write!(f, "cannot delete the document root"),
            LiveError::InsertUnderDeleted(id) => {
                write!(f, "insert under {id}, which this batch deletes")
            }
        }
    }
}

impl std::error::Error for LiveError {}

/// What one applied batch did, in terms both document versions understand.
///
/// The pre-batch document and ID assignment are moved out here rather than
/// dropped: subtractive summary maintenance and extent diffing need to
/// walk the subtrees that no longer exist.
#[derive(Debug)]
pub struct AppliedBatch {
    /// The document as it was before the batch.
    pub old_doc: Document,
    /// The ID assignment of `old_doc`.
    pub old_ids: IdAssignment,
    /// For each pre-batch [`NodeId`], the node's post-batch [`NodeId`]
    /// (`None` if deleted). Indexed by the old arena index.
    pub old_to_new: Vec<Option<NodeId>>,
    /// Roots of inserted fragments, as post-batch [`NodeId`]s, in
    /// operation order.
    pub inserted_roots: Vec<NodeId>,
    /// Roots of deleted subtrees, as pre-batch [`NodeId`]s, in document
    /// order; a *cover* — no root is inside another root's subtree.
    pub deleted_roots: Vec<NodeId>,
    /// Every [`StructId`] in any deleted subtree (descendant-closed).
    pub deleted_ids: Vec<StructId>,
}

/// A document that accepts update batches while keeping node identity.
///
/// ```
/// use smv_xml::{Document, IdScheme, LiveDoc, UpdateBatch};
///
/// let mut live = LiveDoc::new(Document::from_parens("r(a b)"), IdScheme::OrdPath);
/// let b_id = live.ids().id(live.doc().children(live.doc().root())[1]).clone();
/// let mut batch = UpdateBatch::new();
/// batch.insert(b_id.clone(), Document::from_parens("c(d)"));
/// let applied = live.apply(&batch).unwrap();
/// assert_eq!(applied.inserted_roots.len(), 1);
/// // the surviving node kept its ID across the arena rebuild
/// assert_eq!(live.node_of(&b_id), Some(live.doc().children(live.doc().root())[1]));
/// ```
#[derive(Clone, Debug)]
pub struct LiveDoc {
    doc: Document,
    /// Under ORDPATH and Dewey, strictly increasing in
    /// [`StructId::cmp_doc_order`]: the initial assignment is, deletions
    /// keep it so, and a fresh child's rank lies past every rank its
    /// parent ever issued, so its subtree sorts after its elder siblings'
    /// and before whatever followed the parent's subtree. That makes the
    /// vector its own reverse index ([`LiveDoc::node_of`]).
    ids: IdAssignment,
    /// `seq → NodeId` for [`IdScheme::Sequential`], whose IDs say nothing
    /// about position ([`DEAD`] once deleted); empty under the other
    /// schemes.
    seq_nodes: Vec<u32>,
    /// Monotone child-rank counter per parent ID; seeded lazily with the
    /// parent's child count the first time the parent is touched by an
    /// insert-under or delete-from, and never decremented — this is what
    /// makes fresh IDs fresh forever.
    next_child: HashMap<StructId, u64>,
    /// Next sequential ID (only drawn from under [`IdScheme::Sequential`]).
    next_seq: u64,
}

/// The [`LiveDoc::seq_nodes`] entry of a sequence number no live node holds.
const DEAD: u32 = u32::MAX;

/// The dense `seq → NodeId` table of a sequential assignment of
/// `next_seq` numbers so far; empty for the structural schemes.
fn seq_table(ids: &IdAssignment, next_seq: u64) -> Vec<u32> {
    if ids.scheme() != IdScheme::Sequential {
        return Vec::new();
    }
    let mut table = vec![DEAD; next_seq as usize];
    for (n, id) in ids.as_slice().iter().enumerate() {
        if let StructId::Seq(s) = id {
            table[*s as usize] = n as u32;
        }
    }
    table
}

impl LiveDoc {
    /// Wraps a freshly loaded document, assigning IDs under `scheme`.
    pub fn new(doc: Document, scheme: IdScheme) -> LiveDoc {
        let ids = IdAssignment::assign(&doc, scheme);
        let next_seq = doc.len() as u64;
        LiveDoc {
            seq_nodes: seq_table(&ids, next_seq),
            doc,
            ids,
            next_child: HashMap::new(),
            next_seq,
        }
    }

    /// The current document version.
    pub fn doc(&self) -> &Document {
        &self.doc
    }

    /// The current ID assignment.
    pub fn ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// The ID scheme.
    pub fn scheme(&self) -> IdScheme {
        self.ids.scheme()
    }

    /// Resolves an ID to its current [`NodeId`], if the node is alive:
    /// a binary search of the document-ordered ID vector under ORDPATH
    /// and Dewey, a table lookup under the sequential scheme.
    pub fn node_of(&self, id: &StructId) -> Option<NodeId> {
        if self.scheme().is_structural() {
            let at = self.ids.as_slice().binary_search(id).ok()?;
            return Some(NodeId(at as u32));
        }
        let StructId::Seq(s) = id else { return None };
        let n = *self.seq_nodes.get(usize::try_from(*s).ok()?)?;
        (n != DEAD).then_some(NodeId(n))
    }

    /// The ID of node `n` in the current version.
    pub fn id_of(&self, n: NodeId) -> &StructId {
        self.ids.id(n)
    }

    /// Applies a batch atomically: on error the document is unchanged.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<AppliedBatch, LiveError> {
        // -- resolve phase: no mutation until everything checks out --
        let mut delete_targets: Vec<NodeId> = Vec::new();
        for op in &batch.ops {
            if let Update::Delete { id } = op {
                let n = self
                    .node_of(id)
                    .ok_or_else(|| LiveError::UnknownId(id.clone()))?;
                if n == self.doc.root() {
                    return Err(LiveError::DeleteRoot);
                }
                delete_targets.push(n);
            }
        }
        // reduce to a cover: drop targets inside another target's subtree
        delete_targets.sort_unstable();
        let mut deleted_roots: Vec<NodeId> = Vec::new();
        for n in delete_targets {
            match deleted_roots.last() {
                Some(&r) if n.0 <= self.doc.last_descendant(r).0 => {}
                _ => deleted_roots.push(n),
            }
        }
        let is_deleted = |n: NodeId| -> bool {
            // deleted_roots is sorted by pre-order; the candidate covering
            // root is the last one at or before n
            match deleted_roots.partition_point(|&r| r.0 <= n.0) {
                0 => false,
                i => {
                    let r = deleted_roots[i - 1];
                    n.0 <= self.doc.last_descendant(r).0
                }
            }
        };
        let mut inserts_at: HashMap<NodeId, Vec<&Document>> = HashMap::new();
        let mut insert_parents: Vec<NodeId> = Vec::new(); // op order
        for op in &batch.ops {
            if let Update::Insert { parent, fragment } = op {
                let p = self
                    .node_of(parent)
                    .ok_or_else(|| LiveError::UnknownId(parent.clone()))?;
                if is_deleted(p) {
                    return Err(LiveError::InsertUnderDeleted(parent.clone()));
                }
                inserts_at.entry(p).or_default().push(fragment);
                insert_parents.push(p);
            }
        }

        // -- commit phase: seed counters, rebuild the arena --
        // Every parent losing or gaining a child gets its rank counter
        // seeded with its *current* child count before any change, so
        // future inserts can never re-issue a rank a deleted child held.
        for &r in &deleted_roots {
            let p = self.doc.parent(r).expect("root deletions rejected above");
            let seed = self.doc.children(p).len() as u64;
            self.next_child
                .entry(self.ids.id(p).clone())
                .or_insert(seed);
        }
        for &p in &insert_parents {
            let seed = self.doc.children(p).len() as u64;
            self.next_child
                .entry(self.ids.id(p).clone())
                .or_insert(seed);
        }

        let mut rb = Rebuild {
            b: TreeBuilder::new(),
            new_ids: Vec::with_capacity(self.doc.len()),
            old_to_new: vec![None; self.doc.len()],
            inserted_roots: Vec::new(),
        };
        rb.copy_surviving(
            self.doc.root(),
            &self.doc,
            &self.ids,
            &is_deleted,
            &inserts_at,
            &mut self.next_child,
            &mut self.next_seq,
        );
        // fragments insert in op order per parent, but `inserted_roots`
        // should be global op order: re-derive it from the per-parent
        // queues' stable ordering
        let mut per_parent_seen: HashMap<NodeId, usize> = HashMap::new();
        let mut op_ordered_roots = Vec::with_capacity(insert_parents.len());
        {
            // group the discovered roots by old parent in discovery order
            let mut roots_by_parent: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
            for (old_parent, new_root) in rb.inserted_roots.iter().copied() {
                roots_by_parent
                    .entry(old_parent)
                    .or_default()
                    .push(new_root);
            }
            for &p in &insert_parents {
                let k = per_parent_seen.entry(p).or_insert(0);
                op_ordered_roots.push(roots_by_parent[&p][*k]);
                *k += 1;
            }
        }

        let new_doc = rb.b.finish();
        let new_ids = IdAssignment::from_ids(self.ids.scheme(), rb.new_ids);
        let mut deleted_ids = Vec::new();
        for &r in &deleted_roots {
            for n in self.doc.subtree(r) {
                deleted_ids.push(self.ids.id(n).clone());
            }
        }
        let old_doc = std::mem::replace(&mut self.doc, new_doc);
        let old_ids = std::mem::replace(&mut self.ids, new_ids);
        self.seq_nodes = seq_table(&self.ids, self.next_seq);
        Ok(AppliedBatch {
            old_doc,
            old_ids,
            old_to_new: rb.old_to_new,
            inserted_roots: op_ordered_roots,
            deleted_roots,
            deleted_ids,
        })
    }
}

/// Working state of one arena rebuild.
struct Rebuild {
    b: TreeBuilder,
    new_ids: Vec<StructId>,
    old_to_new: Vec<Option<NodeId>>,
    /// (old parent, new fragment root), in discovery (document) order.
    inserted_roots: Vec<(NodeId, NodeId)>,
}

impl Rebuild {
    /// Copies the surviving subtree under `old`, then grafts any fragments
    /// queued for it as last children.
    #[allow(clippy::too_many_arguments)]
    fn copy_surviving(
        &mut self,
        old: NodeId,
        doc: &Document,
        ids: &IdAssignment,
        is_deleted: &dyn Fn(NodeId) -> bool,
        inserts_at: &HashMap<NodeId, Vec<&Document>>,
        next_child: &mut HashMap<StructId, u64>,
        next_seq: &mut u64,
    ) {
        let nid = self.b.open(doc.label(old));
        if let Some(v) = doc.value(old) {
            self.b.set_value(v.clone());
        }
        self.new_ids.push(ids.id(old).clone());
        self.old_to_new[old.idx()] = Some(nid);
        for &c in doc.children(old) {
            if !is_deleted(c) {
                self.copy_surviving(c, doc, ids, is_deleted, inserts_at, next_child, next_seq);
            }
        }
        if let Some(frags) = inserts_at.get(&old) {
            let parent_id = ids.id(old).clone();
            for frag in frags {
                let rank = {
                    let c = next_child
                        .get_mut(&parent_id)
                        .expect("counter seeded before rebuild");
                    let r = *c;
                    *c += 1;
                    r
                };
                let root_id = fresh_child_id(&parent_id, rank as usize, next_seq);
                let new_root = self.graft(frag, frag.root(), root_id, next_seq);
                self.inserted_roots.push((old, new_root));
            }
        }
        self.b.close();
    }

    /// Copies a fragment subtree, minting IDs under `my_id`.
    fn graft(
        &mut self,
        frag: &Document,
        fnode: NodeId,
        my_id: StructId,
        next_seq: &mut u64,
    ) -> NodeId {
        let nid = self.b.open(frag.label(fnode));
        if let Some(v) = frag.value(fnode) {
            self.b.set_value(v.clone());
        }
        self.new_ids.push(my_id.clone());
        for (rank, &c) in frag.children(fnode).iter().enumerate() {
            let child_id = fresh_child_id(&my_id, rank, next_seq);
            self.graft(frag, c, child_id, next_seq);
        }
        self.b.close();
        nid
    }
}

/// The ID of a fresh `rank`-th child of `parent` (scheme-aware).
fn fresh_child_id(parent: &StructId, rank: usize, next_seq: &mut u64) -> StructId {
    parent.child(rank).unwrap_or_else(|| {
        let s = *next_seq;
        *next_seq += 1;
        StructId::Seq(s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ord_live(parens: &str) -> LiveDoc {
        LiveDoc::new(Document::from_parens(parens), IdScheme::OrdPath)
    }

    fn id_by_path(live: &LiveDoc, path: &[&str]) -> StructId {
        let mut n = live.doc().root();
        for step in path {
            n = *live
                .doc()
                .children(n)
                .iter()
                .find(|&&c| live.doc().label(c).as_str() == *step)
                .unwrap_or_else(|| panic!("no child {step}"));
        }
        live.id_of(n).clone()
    }

    #[test]
    fn insert_appends_and_keeps_survivor_ids() {
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
            let mut live = LiveDoc::new(Document::from_parens("r(a(x) b)"), scheme);
            let before: Vec<StructId> = live.doc().iter().map(|n| live.id_of(n).clone()).collect();
            let a = id_by_path(&live, &["a"]);
            let mut batch = UpdateBatch::new();
            batch.insert(a.clone(), Document::from_parens("c(d)"));
            let applied = live.apply(&batch).unwrap();
            assert_eq!(applied.inserted_roots.len(), 1);
            assert_eq!(live.doc().len(), 6);
            // every pre-batch node survives with its ID intact
            for (old_n, old_id) in before.iter().enumerate() {
                let new_n = applied.old_to_new[old_n].expect("survivor");
                assert_eq!(live.id_of(new_n), old_id, "{scheme:?}");
            }
            // the fragment went in as a's last child
            let a_node = live.node_of(&a).unwrap();
            let kids: Vec<&str> = live
                .doc()
                .children(a_node)
                .iter()
                .map(|&c| live.doc().label(c).as_str())
                .collect();
            assert_eq!(kids, vec!["x", "c"]);
        }
    }

    #[test]
    fn structural_ids_of_fresh_nodes_are_consistent() {
        let mut live = ord_live("r(a b)");
        let r = live.id_of(live.doc().root()).clone();
        let mut batch = UpdateBatch::new();
        batch.insert(r.clone(), Document::from_parens("c(d e)"));
        live.apply(&batch).unwrap();
        let c = id_by_path(&live, &["c"]);
        let d = id_by_path(&live, &["c", "d"]);
        let e = id_by_path(&live, &["c", "e"]);
        // fresh ids still decide structure and order
        assert_eq!(r.is_parent_of(&c), Some(true));
        assert_eq!(c.is_parent_of(&d), Some(true));
        assert_eq!(c.is_ancestor_of(&e), Some(true));
        assert_eq!(d.cmp_doc_order(&e), Some(std::cmp::Ordering::Less));
        // and sort after the existing children, matching document order
        let b = id_by_path(&live, &["b"]);
        assert_eq!(b.cmp_doc_order(&c), Some(std::cmp::Ordering::Less));
    }

    #[test]
    fn deleted_ids_are_never_reused() {
        let mut live = ord_live("r(a b c)");
        let c = id_by_path(&live, &["c"]);
        let r = live.id_of(live.doc().root()).clone();
        let mut batch = UpdateBatch::new();
        batch.delete(c.clone());
        let applied = live.apply(&batch).unwrap();
        assert_eq!(applied.deleted_ids, vec![c.clone()]);
        // inserting a new child must NOT resurrect c's id
        let mut batch = UpdateBatch::new();
        batch.insert(r, Document::from_parens("z"));
        live.apply(&batch).unwrap();
        let z = id_by_path(&live, &["z"]);
        assert_ne!(z, c, "rank counter must not re-issue the deleted rank");
        assert!(live.node_of(&c).is_none());
    }

    #[test]
    fn delete_cover_collapses_nested_targets() {
        let mut live = ord_live("r(a(b(c) d) e)");
        let a = id_by_path(&live, &["a"]);
        let b = id_by_path(&live, &["a", "b"]);
        let mut batch = UpdateBatch::new();
        batch.delete(b); // nested inside a — covered
        batch.delete(a);
        let applied = live.apply(&batch).unwrap();
        assert_eq!(applied.deleted_roots.len(), 1);
        assert_eq!(applied.deleted_ids.len(), 4, "a, b, c, d all dead");
        assert_eq!(live.doc().len(), 2); // r, e
    }

    #[test]
    fn batch_errors_leave_the_document_unchanged() {
        let mut live = ord_live("r(a)");
        let before = live.doc().len();
        let a = id_by_path(&live, &["a"]);
        let bogus = StructId::Seq(999);
        let mut batch = UpdateBatch::new();
        batch.insert(bogus.clone(), Document::from_parens("x"));
        assert_eq!(live.apply(&batch).unwrap_err(), LiveError::UnknownId(bogus));
        let mut batch = UpdateBatch::new();
        batch.delete(live.id_of(live.doc().root()).clone());
        assert_eq!(live.apply(&batch).unwrap_err(), LiveError::DeleteRoot);
        let mut batch = UpdateBatch::new();
        batch.delete(a.clone());
        batch.insert(a.clone(), Document::from_parens("x"));
        assert_eq!(
            live.apply(&batch).unwrap_err(),
            LiveError::InsertUnderDeleted(a)
        );
        assert_eq!(live.doc().len(), before);
    }

    #[test]
    fn sequential_ids_stay_unique_across_batches() {
        let mut live = LiveDoc::new(Document::from_parens("r(a b)"), IdScheme::Sequential);
        let r = live.id_of(live.doc().root()).clone();
        let a = id_by_path(&live, &["a"]);
        let mut batch = UpdateBatch::new();
        batch.delete(a);
        batch.insert(r.clone(), Document::from_parens("x(y)"));
        live.apply(&batch).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert(r, Document::from_parens("z"));
        live.apply(&batch).unwrap();
        let mut seen = std::collections::HashSet::new();
        for n in live.doc().iter() {
            assert!(seen.insert(live.id_of(n).clone()), "duplicate id");
        }
    }

    #[test]
    fn multiple_inserts_one_batch_keep_op_order() {
        let mut live = ord_live("r(a)");
        let r = live.id_of(live.doc().root()).clone();
        let a = id_by_path(&live, &["a"]);
        let mut batch = UpdateBatch::new();
        batch.insert(r.clone(), Document::from_parens("p"));
        batch.insert(a, Document::from_parens("q"));
        batch.insert(r, Document::from_parens("s"));
        let applied = live.apply(&batch).unwrap();
        let labels: Vec<&str> = applied
            .inserted_roots
            .iter()
            .map(|&n| live.doc().label(n).as_str())
            .collect();
        assert_eq!(labels, vec!["p", "q", "s"], "op order preserved");
        let kids: Vec<&str> = live
            .doc()
            .children(live.doc().root())
            .iter()
            .map(|&c| live.doc().label(c).as_str())
            .collect();
        assert_eq!(kids, vec!["a", "p", "s"]);
    }
}
