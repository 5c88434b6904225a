//! Structural joins over structural identifiers.
//!
//! The paper's plans use `⋈_≺` (parent) and `⋈_≺≺` (ancestor) joins, and
//! cite the stack-tree algorithm of Al-Khalifa et al. \[1\] as the
//! primitive. The executor's default path is
//! [`stack_tree_join_presorted`]: a stack-based merge over inputs
//! *already* sorted in document order (the executor sorts each input once
//! and tracks sortedness, so chained joins pay for sorting at most once).
//! [`stack_tree_join`] wraps it for unsorted inputs. [`nested_loop_join`]
//! is the O(n·m) correctness oracle, kept for tests and as the ablation
//! baseline — it is not reachable from `eval()`.
//!
//! All variants require IDs of a *structural* scheme (ORDPATH / Dewey);
//! the sequential scheme cannot answer ancestor tests and is rejected.

use smv_xml::StructId;
use std::borrow::Borrow;
use std::cmp::Ordering;

/// Structural relationship tested by the join.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StructRel {
    /// Left is the parent of right (`≺`).
    Parent,
    /// Left is a proper ancestor of right (`≺≺`).
    Ancestor,
}

/// Output pairs `(left index, right index)` such that `left[l] rel
/// right[r]`. Naive O(n·m) loop; the oracle for tests and the ablation
/// baseline.
pub fn nested_loop_join(
    left: &[StructId],
    right: &[StructId],
    rel: StructRel,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, a) in left.iter().enumerate() {
        for (j, b) in right.iter().enumerate() {
            let hit = match rel {
                StructRel::Parent => a.is_parent_of(b),
                StructRel::Ancestor => a.is_ancestor_of(b),
            };
            if hit == Some(true) {
                out.push((i, j));
            }
        }
    }
    out
}

/// Stack-tree structural join \[1\] over inputs **already sorted in
/// document order**: a single merge with a stack of open ancestors,
/// O(n + m + output). Accepts owned or borrowed IDs so callers can join
/// without cloning.
///
/// Output pairs index into the given slices and are emitted grouped by
/// the right side in its (sorted) order — i.e. the output is sorted by
/// the right index. Panics if the inputs mix ID schemes or use the
/// non-structural sequential scheme.
pub fn stack_tree_join_presorted<L, R>(
    left: &[L],
    right: &[R],
    rel: StructRel,
) -> Vec<(usize, usize)>
where
    L: Borrow<StructId>,
    R: Borrow<StructId>,
{
    let mut out = Vec::new();
    let mut stack: Vec<usize> = Vec::new(); // indices into `left`
    let mut l = 0usize;
    for (r, rid) in right.iter().enumerate() {
        let rid = rid.borrow();
        // push all left ids that start before rid and are its ancestors;
        // pop those that end before rid starts.
        while l < left.len()
            && left[l]
                .borrow()
                .cmp_doc_order(rid)
                .expect("structural join requires a uniform structural ID scheme")
                != Ordering::Greater
        {
            let lid = left[l].borrow();
            // maintain the stack invariant: the stack is a chain of
            // ancestors of the incoming left id
            while let Some(&top) = stack.last() {
                let tid = left[top].borrow();
                if tid.is_ancestor_of(lid) == Some(true) || tid == lid {
                    break;
                }
                stack.pop();
            }
            stack.push(l);
            l += 1;
        }
        // pop stack entries whose subtree ended strictly before rid; an
        // entry *equal* to rid has not ended (its descendants follow rid)
        while let Some(&top) = stack.last() {
            let tid = left[top].borrow();
            if tid.is_ancestor_of(rid) == Some(true) || tid == rid {
                break;
            }
            stack.pop();
        }
        // the stack is an ancestor chain; entries below a possible
        // rid-equal top are ancestors of rid
        for &a in stack.iter() {
            let aid = left[a].borrow();
            if aid.is_ancestor_of(rid) != Some(true) {
                continue;
            }
            match rel {
                StructRel::Ancestor => out.push((a, r)),
                StructRel::Parent => {
                    if aid.is_parent_of(rid) == Some(true) {
                        out.push((a, r));
                    }
                }
            }
        }
    }
    out
}

/// [`stack_tree_join_presorted`] for unsorted inputs: sorts index views of
/// both sides in document order first. Output pairs index into the
/// *original* slices, sorted ascending.
pub fn stack_tree_join(
    left: &[StructId],
    right: &[StructId],
    rel: StructRel,
) -> Vec<(usize, usize)> {
    let li = doc_sorted_indices(left);
    let ri = doc_sorted_indices(right);
    let lsorted: Vec<&StructId> = li.iter().map(|&i| &left[i]).collect();
    let rsorted: Vec<&StructId> = ri.iter().map(|&i| &right[i]).collect();
    let mut out: Vec<(usize, usize)> = stack_tree_join_presorted(&lsorted, &rsorted, rel)
        .into_iter()
        .map(|(a, b)| (li[a], ri[b]))
        .collect();
    out.sort_unstable();
    out
}

/// Indices of `ids` in document order; panics on mixed schemes.
pub fn doc_sorted_indices<T: Borrow<StructId>>(ids: &[T]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..ids.len()).collect();
    idx.sort_by(|&a, &b| {
        ids[a]
            .borrow()
            .cmp_doc_order(ids[b].borrow())
            .expect("structural join requires a uniform structural ID scheme")
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_xml::{Document, IdAssignment, IdScheme};

    fn ids_of(doc: &Document, scheme: IdScheme, label: &str) -> Vec<StructId> {
        let ids = IdAssignment::assign(doc, scheme);
        doc.iter()
            .filter(|&n| doc.label(n).as_str() == label)
            .map(|n| ids.id(n).clone())
            .collect()
    }

    fn check_agreement(doc: &Document, scheme: IdScheme, l: &str, r: &str) {
        let left = ids_of(doc, scheme, l);
        let right = ids_of(doc, scheme, r);
        for rel in [StructRel::Parent, StructRel::Ancestor] {
            let mut naive = nested_loop_join(&left, &right, rel);
            naive.sort_unstable();
            let stacked = stack_tree_join(&left, &right, rel);
            assert_eq!(naive, stacked, "{scheme:?} {rel:?} {l}/{r}");
        }
    }

    #[test]
    fn agrees_with_nested_loop_on_samples() {
        let docs = [
            "a(b(c(b) b) c(b(c)) b)",
            "a(b(b(b(b))))",
            "a(c c c)",
            "a(b(c) c(b) b(c(b(c))))",
        ];
        for d in docs {
            let doc = Document::from_parens(d);
            for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
                check_agreement(&doc, scheme, "b", "c");
                check_agreement(&doc, scheme, "a", "b");
                check_agreement(&doc, scheme, "b", "b");
            }
        }
    }

    #[test]
    fn presorted_emits_right_sorted_pairs() {
        let doc = Document::from_parens("a(b(c c) b(c))");
        let left = ids_of(&doc, IdScheme::OrdPath, "b");
        let right = ids_of(&doc, IdScheme::OrdPath, "c");
        // document-order extraction is already sorted
        let pairs = stack_tree_join_presorted(&left, &right, StructRel::Parent);
        assert_eq!(pairs.len(), 3);
        let rs: Vec<usize> = pairs.iter().map(|&(_, r)| r).collect();
        let mut sorted = rs.clone();
        sorted.sort_unstable();
        assert_eq!(rs, sorted, "output grouped by right side in order");
    }

    #[test]
    fn ancestor_vs_parent_difference() {
        let doc = Document::from_parens("a(b(x(c)))");
        let left = ids_of(&doc, IdScheme::OrdPath, "b");
        let right = ids_of(&doc, IdScheme::OrdPath, "c");
        assert_eq!(stack_tree_join(&left, &right, StructRel::Ancestor).len(), 1);
        assert_eq!(stack_tree_join(&left, &right, StructRel::Parent).len(), 0);
    }

    #[test]
    fn empty_inputs() {
        assert!(stack_tree_join(&[], &[], StructRel::Ancestor).is_empty());
        let doc = Document::from_parens("a(b)");
        let left = ids_of(&doc, IdScheme::Dewey, "a");
        assert!(stack_tree_join(&left, &[], StructRel::Parent).is_empty());
        assert!(stack_tree_join(&[], &left, StructRel::Parent).is_empty());
    }

    #[test]
    #[should_panic(expected = "uniform structural ID scheme")]
    fn mixed_schemes_rejected() {
        let doc = Document::from_parens("a(b b)");
        let mut left = ids_of(&doc, IdScheme::OrdPath, "b");
        left.push(StructId::Seq(1));
        let right = ids_of(&doc, IdScheme::OrdPath, "b");
        stack_tree_join(&left, &right, StructRel::Ancestor);
    }
}
