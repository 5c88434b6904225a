//! A common read-only tree abstraction.
//!
//! Tree-pattern embeddings (paper §2.2) are defined both into XML
//! *documents* and into *summaries* (Dataguides are trees too, §2.3-2.4),
//! and the containment algorithm additionally embeds patterns into
//! *canonical-model trees*. [`LabeledTree`] lets all that matching code be
//! written once, generically.

use crate::label::Label;
use crate::tree::NodeId;
use crate::value::Value;

/// Read-only access to an ordered labeled tree whose nodes are [`NodeId`]s.
pub trait LabeledTree {
    /// The root node.
    fn tree_root(&self) -> NodeId;
    /// Label of a node.
    fn tree_label(&self, n: NodeId) -> Label;
    /// Children in document order.
    fn tree_children(&self, n: NodeId) -> &[NodeId];
    /// Parent (`None` at the root).
    fn tree_parent(&self, n: NodeId) -> Option<NodeId>;
    /// Atomic value if the node carries one (summaries carry none).
    fn tree_value(&self, n: NodeId) -> Option<&Value>;
    /// Proper-ancestor test.
    fn tree_is_ancestor(&self, a: NodeId, b: NodeId) -> bool;
    /// Total number of nodes.
    fn tree_len(&self) -> usize;

    /// Every node labeled `l`, in ascending id order, when the tree keeps label
    /// postings; `None` (the default) tells the caller to scan all
    /// `0..tree_len()` nodes instead.
    fn tree_nodes_labeled(&self, _l: Label) -> Option<&[NodeId]> {
        None
    }

    /// All nodes of the subtree rooted at `n`, pre-order. Default recursive
    /// implementation; implementors with interval encodings may override.
    fn tree_subtree(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            out.push(x);
            // push children reversed so pre-order pops left-to-right
            for &c in self.tree_children(x).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Depth of `n` (root = 0) by parent chasing.
    fn tree_depth(&self, n: NodeId) -> u32 {
        let mut d = 0;
        let mut cur = n;
        while let Some(p) = self.tree_parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Chain of nodes from `a` (exclusive) down to `b` (inclusive), assuming
    /// `a` is an ancestor of `b`. Used when materializing canonical-model
    /// trees (§2.4): the chain of labels connecting `e(n)` to `e(m)`.
    fn tree_chain_down(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let mut chain = Vec::new();
        let mut cur = b;
        while cur != a {
            chain.push(cur);
            cur = self
                .tree_parent(cur)
                .expect("tree_chain_down: a is not an ancestor of b");
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    #[test]
    fn subtree_preorder_matches_interval() {
        let d = Document::from_parens("a(b(c d) e(f))");
        let b = d
            .iter()
            .find(|&n| d.label(n).as_str() == "b")
            .expect("b node");
        let via_trait = d.tree_subtree(b);
        let via_interval: Vec<NodeId> = d.subtree(b).collect();
        assert_eq!(via_trait, via_interval);
    }

    #[test]
    fn chain_down() {
        let d = Document::from_parens("a(b(c(d)))");
        let a = d.root();
        let dd = d.iter().find(|&n| d.label(n).as_str() == "d").unwrap();
        let chain: Vec<&str> = d
            .tree_chain_down(a, dd)
            .iter()
            .map(|&n| d.label(n).as_str())
            .collect();
        assert_eq!(chain, vec!["b", "c", "d"]);
    }

    #[test]
    fn depth_by_parent_chasing() {
        let d = Document::from_parens("a(b(c(d)) e)");
        let dd = d.iter().find(|&n| d.label(n).as_str() == "d").unwrap();
        assert_eq!(d.tree_depth(dd), 3);
        assert_eq!(d.tree_depth(d.root()), 0);
    }
}
