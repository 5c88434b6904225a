//! Live documents: batched insert/delete updates with stable node identity.
//!
//! [`NodeId`] *is* the pre-order rank, so any structural change renumbers
//! nodes. A [`LiveDoc`] keeps that invariant while supporting updates:
//! each applied [`UpdateBatch`] edits the arena in place — it cuts every
//! deleted subtree out of the node and ID vectors, opens a gap for every
//! inserted fragment, and moves each survivor once to its new pre-order
//! rank — but carries every surviving node's **structural identifier**
//! ([`StructId`]) over unchanged. IDs are the stable identity: extents and
//! summaries key on them, so view maintenance (smv-views) can diff two
//! document versions without positional bookkeeping. What the batch
//! removed leaves as an [`AppliedBatch`]: the cut subtrees alone, never a
//! second copy of the document.
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
use crate::tree::{Document, NodeId, Splice};
use std::cmp::Reverse;
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
/// The deleted subtrees are moved out here rather than dropped:
/// subtractive summary maintenance and extent diffing need to walk the
/// nodes that no longer exist. Nothing else of the pre-batch document is
/// kept, so what this holds is the size of the batch.
#[derive(Debug)]
pub struct AppliedBatch {
    /// The deleted subtrees, in pre-batch document order; a *cover* — no
    /// root is inside another root's subtree.
    pub detached: Vec<Detached>,
    /// Roots of inserted fragments, as post-batch [`NodeId`]s, in
    /// operation order.
    pub inserted_roots: Vec<NodeId>,
    /// Every [`StructId`] in any deleted subtree (descendant-closed): each
    /// detached subtree's IDs in its pre-order, subtree after subtree.
    pub deleted_ids: Vec<StructId>,
}

/// One deleted subtree, cut out of the arena whole.
#[derive(Debug)]
pub struct Detached {
    /// The subtree as a document of its own, numbered from its root.
    pub doc: Document,
    /// The root's parent, which survives, as a post-batch [`NodeId`].
    pub parent: NodeId,
}

impl AppliedBatch {
    /// Each detached subtree beside its nodes' IDs (indexed by the
    /// subtree's own [`NodeId`]s), a slice of [`Self::deleted_ids`].
    pub fn deleted_subtrees(&self) -> impl Iterator<Item = (&Detached, &[StructId])> {
        let mut rest = &self.deleted_ids[..];
        self.detached.iter().map(move |d| {
            let (ids, tail) = rest.split_at(d.doc.len());
            rest = tail;
            (d, ids)
        })
    }
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
/// // the surviving node kept its ID across the in-place edit
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
        let mut inserts: Vec<(NodeId, &Document)> = Vec::new(); // op order
        for op in &batch.ops {
            if let Update::Insert { parent, fragment } = op {
                let p = self
                    .node_of(parent)
                    .ok_or_else(|| LiveError::UnknownId(parent.clone()))?;
                if is_deleted(p) {
                    return Err(LiveError::InsertUnderDeleted(parent.clone()));
                }
                inserts.push((p, fragment));
            }
        }
        Ok(self.commit(&deleted_roots, &inserts))
    }

    /// The commit phase of [`Self::apply`], on a batch resolved to a
    /// cover of deleted roots and the inserts in op order: seeds the rank
    /// counters, mints the fragments' IDs and edits the arena in place.
    fn commit(
        &mut self,
        deleted_roots: &[NodeId],
        inserts: &[(NodeId, &Document)],
    ) -> AppliedBatch {
        // Every parent losing or gaining a child gets its rank counter
        // seeded with its *current* child count before any change, so
        // future inserts can never re-issue a rank a deleted child held.
        for p in deleted_roots
            .iter()
            .map(|&r| self.doc.parent(r).expect("root deletions rejected above"))
            .chain(inserts.iter().map(|&(p, _)| p))
        {
            let seed = self.doc.children(p).len() as u64;
            self.next_child
                .entry(self.ids.id(p).clone())
                .or_insert(seed);
        }

        // The fragments in post-batch document order: each opens right
        // after its parent's subtree; where several parents' subtrees end
        // together, the deeper parent's closes first; one parent's
        // fragments keep op order (the sort is stable).
        let mut order: Vec<usize> = (0..inserts.len()).collect();
        order.sort_by_key(|&i| {
            let p = inserts[i].0;
            (self.doc.last_descendant(p), Reverse(p))
        });
        // fresh IDs are minted in that order, so the sequential counter
        // runs in document order
        let mut fresh_ids: Vec<StructId> = Vec::new();
        let mut gaps = Vec::with_capacity(order.len());
        for &i in &order {
            let (p, frag) = inserts[i];
            let parent_id = self.ids.id(p);
            let counter = self
                .next_child
                .get_mut(parent_id)
                .expect("counter seeded above");
            let root_id = fresh_child_id(parent_id, *counter as usize, &mut self.next_seq);
            *counter += 1;
            let base = fresh_ids.len();
            fresh_ids.push(root_id);
            for n in frag.descendants(frag.root()) {
                let up = frag.parent(n).expect("below the fragment root");
                let id = fresh_child_id(
                    &fresh_ids[base + up.idx()],
                    frag.child_rank(n) as usize,
                    &mut self.next_seq,
                );
                fresh_ids.push(id);
            }
            gaps.push((self.doc.last_descendant(p).idx() + 1, frag.len()));
        }
        let cuts = deleted_roots
            .iter()
            .map(|&r| r.idx()..self.doc.last_descendant(r).idx() + 1)
            .collect();
        let splice = Splice::new(cuts, gaps);

        let mut inserted_roots = vec![NodeId::ROOT; inserts.len()];
        for (k, &i) in order.iter().enumerate() {
            inserted_roots[i] = NodeId(splice.slot(k) as u32);
        }
        // the deleted subtrees move out, IDs and all, before the cut
        let mut deleted_ids = Vec::new();
        let mut detached = Vec::with_capacity(deleted_roots.len());
        for &r in deleted_roots {
            let parent = self.doc.parent(r).expect("root deletions rejected above");
            let span = r.idx()..self.doc.last_descendant(r).idx() + 1;
            for id in &mut self.ids.ids_mut()[span] {
                deleted_ids.push(std::mem::replace(id, StructId::Seq(0)));
            }
            detached.push(Detached {
                doc: self.doc.detach(r),
                parent: NodeId(splice.moved(parent.idx()) as u32),
            });
        }
        let grafts: Vec<(u32, &Document)> = order
            .iter()
            .map(|&i| (self.doc.depth(inserts[i].0), inserts[i].1))
            .collect();
        self.doc.splice(&splice, &grafts);
        splice.apply(self.ids.ids_mut(), fresh_ids, || StructId::Seq(0));
        if self.scheme() == IdScheme::Sequential {
            self.renumber_seq(&deleted_ids, splice.first_touched());
        }
        AppliedBatch {
            detached,
            inserted_roots,
            deleted_ids,
        }
    }

    /// Brings [`Self::seq_nodes`] up to date after an edit that left every
    /// node before `from` in place: the deleted numbers die, and every
    /// node from `from` on — moved or fresh — is entered at its position.
    fn renumber_seq(&mut self, deleted: &[StructId], from: usize) {
        let seq = |id: &StructId| match id {
            StructId::Seq(s) => *s as usize,
            other => unreachable!("{other} under the sequential scheme"),
        };
        for id in deleted {
            self.seq_nodes[seq(id)] = DEAD;
        }
        self.seq_nodes.resize(self.next_seq as usize, DEAD);
        for (n, id) in self.ids.as_slice().iter().enumerate().skip(from) {
            self.seq_nodes[seq(id)] = n as u32;
        }
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
            let before: Vec<(StructId, &str)> = live
                .doc()
                .iter()
                .map(|n| (live.id_of(n).clone(), live.doc().label(n).as_str()))
                .collect();
            let a = id_by_path(&live, &["a"]);
            let mut batch = UpdateBatch::new();
            batch.insert(a.clone(), Document::from_parens("c(d)"));
            let applied = live.apply(&batch).unwrap();
            assert_eq!(applied.inserted_roots.len(), 1);
            assert_eq!(live.doc().len(), 6);
            // every pre-batch node survives with its ID intact
            for (old_id, label) in &before {
                let new_n = live.node_of(old_id).expect("survivor");
                assert_eq!(live.doc().label(new_n).as_str(), *label, "{scheme:?}");
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
        assert_eq!(applied.detached.len(), 1);
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

    #[test]
    fn a_batch_that_does_not_grow_edits_the_buffers_in_place() {
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
            let mut live = LiveDoc::new(
                Document::from_parens(r#"r(a(b="1" c(d)) e(f g="2") h)"#),
                scheme,
            );
            let buffers = |live: &mut LiveDoc| {
                let ids = live.ids.ids_mut();
                let ids = (ids.as_ptr() as usize, ids.capacity());
                (live.doc.buffers(), ids)
            };
            let before = buffers(&mut live);
            let mut batch = UpdateBatch::new();
            batch.delete(id_by_path(&live, &["a"]));
            batch.delete(id_by_path(&live, &["e", "g"]));
            batch.insert(id_by_path(&live, &["e"]), Document::from_parens("x(y)"));
            batch.insert(id_by_path(&live, &["h"]), Document::from_parens("z"));
            let applied = live.apply(&batch).unwrap();
            assert_eq!(buffers(&mut live), before, "{scheme:?}");
            // what the batch keeps is what it deleted, node for node
            let kept: usize = applied.detached.iter().map(|d| d.doc.len()).sum();
            assert_eq!(kept, applied.deleted_ids.len(), "{scheme:?}");
            assert_eq!(kept, 5, "{scheme:?}: a, b, c, d and g");
            let kids: Vec<&str> = live
                .doc()
                .children(live.doc().root())
                .iter()
                .map(|&c| live.doc().label(c).as_str())
                .collect();
            assert_eq!(kids, vec!["e", "h"], "{scheme:?}");
        }
    }
}
