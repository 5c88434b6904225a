//! The arena rebuild `LiveDoc::apply` once ran, kept as the oracle its
//! in-place edit is checked against: a from-scratch copy of the surviving
//! tree, with each batch's fragments grafted on as last children, into a
//! second document and a second ID vector.

use smv::prelude::*;
use smv::xml::{IdAssignment, NodeId, StructId, TreeBuilder, Update};
use std::collections::HashMap;

/// A live document that applies batches by rebuilding.
pub struct Rebuilt {
    pub doc: Document,
    /// Every node's ID, in document order.
    pub ids: Vec<StructId>,
    /// The monotone per-parent child-rank counters, as `LiveDoc` keeps them.
    next_child: HashMap<StructId, u64>,
    next_seq: u64,
}

/// What one rebuild did, in both versions' numbering.
pub struct Applied {
    /// The document and IDs before the batch.
    pub old_doc: Document,
    pub old_ids: Vec<StructId>,
    /// Per pre-batch node, its post-batch node (`None` if deleted).
    pub old_to_new: Vec<Option<NodeId>>,
    /// Post-batch fragment roots, in operation order.
    pub inserted_roots: Vec<NodeId>,
    /// Pre-batch roots of the deleted subtrees: a cover, in document order.
    pub deleted_roots: Vec<NodeId>,
    /// Every ID in a deleted subtree, subtree after subtree, in pre-order.
    pub deleted_ids: Vec<StructId>,
}

impl Rebuilt {
    pub fn new(doc: Document, scheme: IdScheme) -> Rebuilt {
        Rebuilt {
            ids: IdAssignment::assign(&doc, scheme).as_slice().to_vec(),
            next_seq: doc.len() as u64,
            doc,
            next_child: HashMap::new(),
        }
    }

    /// Applies a valid batch: deletions resolve first, then each fragment
    /// goes in as the last child of its surviving parent, in op order.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Applied {
        let (doc, ids) = (&self.doc, &self.ids);
        let node = |id: &StructId| {
            let at = ids.iter().position(|x| x == id).expect("a live ID");
            NodeId(at as u32)
        };
        let mut targets: Vec<NodeId> = batch
            .ops
            .iter()
            .filter_map(|op| match op {
                Update::Delete { id } => Some(node(id)),
                Update::Insert { .. } => None,
            })
            .collect();
        targets.sort_unstable();
        let mut deleted_roots: Vec<NodeId> = Vec::new();
        for n in targets {
            match deleted_roots.last() {
                Some(&r) if doc.is_ancestor(r, n) || r == n => {}
                _ => deleted_roots.push(n),
            }
        }
        let mut inserts_at: HashMap<NodeId, Vec<&Document>> = HashMap::new();
        let mut insert_parents: Vec<NodeId> = Vec::new();
        for op in &batch.ops {
            if let Update::Insert { parent, fragment } = op {
                let p = node(parent);
                inserts_at.entry(p).or_default().push(fragment);
                insert_parents.push(p);
            }
        }
        for p in deleted_roots
            .iter()
            .map(|&r| doc.parent(r).expect("not the root"))
            .chain(insert_parents.iter().copied())
        {
            let seed = doc.children(p).len() as u64;
            self.next_child.entry(ids[p.idx()].clone()).or_insert(seed);
        }

        let mut rb = Rebuild {
            b: TreeBuilder::new(),
            new_ids: Vec::with_capacity(doc.len()),
            old_to_new: vec![None; doc.len()],
            inserted_roots: Vec::new(),
            deleted_roots: &deleted_roots,
        };
        rb.copy_surviving(
            doc.root(),
            doc,
            ids,
            &inserts_at,
            &mut self.next_child,
            &mut self.next_seq,
        );
        // each parent's fragments went in op order; re-derive global op order
        let mut by_parent: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &(p, root) in &rb.inserted_roots {
            by_parent.entry(p).or_default().push(root);
        }
        let mut seen: HashMap<NodeId, usize> = HashMap::new();
        let inserted_roots = insert_parents
            .iter()
            .map(|p| {
                let k = seen.entry(*p).or_insert(0);
                *k += 1;
                by_parent[p][*k - 1]
            })
            .collect();
        let deleted_ids = deleted_roots
            .iter()
            .flat_map(|&r| doc.subtree(r).map(|n| ids[n.idx()].clone()))
            .collect();
        let Rebuild {
            b,
            new_ids,
            old_to_new,
            ..
        } = rb;
        let old_doc = std::mem::replace(&mut self.doc, b.finish());
        let old_ids = std::mem::replace(&mut self.ids, new_ids);
        Applied {
            old_doc,
            old_ids,
            old_to_new,
            inserted_roots,
            deleted_roots,
            deleted_ids,
        }
    }
}

/// Working state of one arena rebuild.
struct Rebuild<'a> {
    b: TreeBuilder,
    new_ids: Vec<StructId>,
    old_to_new: Vec<Option<NodeId>>,
    /// (old parent, new fragment root), in discovery (document) order.
    inserted_roots: Vec<(NodeId, NodeId)>,
    deleted_roots: &'a [NodeId],
}

impl Rebuild<'_> {
    /// Copies the surviving subtree under `old`, then grafts any fragments
    /// queued for it as last children.
    fn copy_surviving(
        &mut self,
        old: NodeId,
        doc: &Document,
        ids: &[StructId],
        inserts_at: &HashMap<NodeId, Vec<&Document>>,
        next_child: &mut HashMap<StructId, u64>,
        next_seq: &mut u64,
    ) {
        let nid = self.b.open(doc.label(old));
        if let Some(v) = doc.value(old) {
            self.b.set_value(v.clone());
        }
        self.new_ids.push(ids[old.idx()].clone());
        self.old_to_new[old.idx()] = Some(nid);
        for &c in doc.children(old) {
            if !self.deleted_roots.contains(&c) {
                self.copy_surviving(c, doc, ids, inserts_at, next_child, next_seq);
            }
        }
        for frag in inserts_at.get(&old).into_iter().flatten() {
            let parent_id = &ids[old.idx()];
            let counter = next_child.get_mut(parent_id).expect("seeded");
            let rank = *counter;
            *counter += 1;
            let root_id = fresh_child_id(parent_id, rank as usize, next_seq);
            let new_root = self.graft(frag, frag.root(), root_id, next_seq);
            self.inserted_roots.push((old, new_root));
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
