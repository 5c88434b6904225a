//! Property-based tests on the core invariants, with proptest.

mod common;

use common::tree_strategy;
use proptest::prelude::*;
use smv::pattern::MatchTarget;
use smv::prelude::*;
use smv::xml::{DeweyId, IdAssignment, LabeledTree, NodeId, OrdPath};
use std::collections::HashSet;

/// A strategy for small conjunctive patterns over the alphabet of
/// [`tree_strategy`].
fn pattern_strategy() -> impl Strategy<Value = String> {
    let node = (0u8..4, 0u8..3).prop_map(|(l, kind)| {
        let name = if kind == 2 {
            "*".to_string()
        } else {
            format!("{}", (b'a' + l) as char)
        };
        name
    });
    node.prop_recursive(2, 8, 2, |inner| {
        (
            (0u8..4, 0u8..3).prop_map(|(l, kind)| {
                if kind == 2 {
                    "*".to_string()
                } else {
                    format!("{}", (b'a' + l) as char)
                }
            }),
            proptest::collection::vec((inner, 0u8..2, 0u8..2), 1..3),
        )
            .prop_map(|(label, kids)| {
                let children: Vec<String> = kids
                    .into_iter()
                    .map(|(k, ax, opt)| {
                        format!(
                            "{}{}{}",
                            if opt == 1 { "?" } else { "" },
                            if ax == 0 { "/" } else { "//" },
                            k
                        )
                    })
                    .collect();
                format!("{label}({})", children.join(", "))
            })
    })
    .prop_map(|body| format!("r({}{body}{})", "//", ""))
}

/// ORDPATH components that stress the label code: small values (one-byte
/// codes), both sides of the code-length boundaries, the ends of `i64`,
/// and arbitrary values.
fn ordpath_component() -> impl Strategy<Value = i64> {
    const EDGES: [i64; 12] = [
        -33,
        -32,
        95,
        96,
        8287,
        8288,
        -8224,
        -8225,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX - 1,
        i64::MAX,
    ];
    (0u8..8, 0..EDGES.len(), -40i64..100, i64::MIN..i64::MAX).prop_map(|(kind, e, small, any)| {
        match kind {
            0..=4 => small,
            5 | 6 => EDGES[e],
            _ => any,
        }
    })
}

/// Dewey ranks: mostly small, sometimes 0, `u32::MAX` or arbitrary.
fn dewey_rank() -> impl Strategy<Value = u32> {
    (0u8..8, 0u32..200, 0u32..u32::MAX).prop_map(|(kind, small, any)| match kind {
        0..=4 => small,
        5 => 0,
        6 => u32::MAX,
        _ => any,
    })
}

/// Two component vectors sharing a random prefix, so that ancestry and
/// parenthood come up; long enough to spill past the inline labels.
fn label_pair<S: Strategy>(c: fn() -> S) -> impl Strategy<Value = (Vec<S::Value>, Vec<S::Value>)>
where
    S::Value: Clone,
{
    use proptest::collection::vec;
    (vec(c(), 1..16), vec(c(), 0..12), vec(c(), 0..12)).prop_map(|(p, sa, sb)| {
        let mut a = p;
        let mut b = a.clone();
        a.extend(sa);
        b.extend(sb);
        (a, b)
    })
}

fn hash_of<T: std::hash::Hash>(t: &T) -> u64 {
    use std::hash::{DefaultHasher, Hasher};
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// The component-vector semantics of ORDPATH that the byte labels must
/// reproduce: the parent drops the last component and the carets (even
/// components) before it.
fn ref_ord_parent(c: &[i64]) -> Option<Vec<i64>> {
    let mut end = c.len() - 1;
    while end > 0 && c[end - 1] % 2 == 0 {
        end -= 1;
    }
    (end > 0).then(|| c[..end].to_vec())
}

/// Checks every ORDPATH operation on `a`, `b` against [`ref_ord_parent`]
/// and component-vector comparison.
fn check_ordpath_oracle(a: &[i64], b: &[i64], rank: usize) -> Result<(), TestCaseError> {
    let (x, y) = (
        OrdPath::from_components(a.to_vec()),
        OrdPath::from_components(b.to_vec()),
    );
    prop_assert_eq!(x.components().collect::<Vec<_>>(), a.to_vec());
    prop_assert_eq!(x.cmp(&y), a.cmp(b), "{:?} vs {:?}", a, b);
    prop_assert_eq!(x == y, a == b);
    prop_assert_eq!(hash_of(&x) == hash_of(&y), a == b, "{:?} vs {:?}", a, b);
    let ancestor = |p: &[i64], c: &[i64]| {
        c.len() > p.len() && c.starts_with(p) && c[p.len()..].iter().any(|v| v % 2 != 0)
    };
    let parent = |p: &[i64], c: &[i64]| ref_ord_parent(c).as_deref() == Some(p);
    for (s, t, u, v) in [(&x, &y, a, b), (&y, &x, b, a)] {
        prop_assert_eq!(s.is_ancestor_of(t), ancestor(u, v), "{:?} anc {:?}", u, v);
        prop_assert_eq!(s.is_parent_of(t), parent(u, v), "{:?} par {:?}", u, v);
    }
    let want = ref_ord_parent(a).map(OrdPath::from_components);
    prop_assert_eq!(hash_of(&x.parent()), hash_of(&want));
    prop_assert_eq!(x.parent(), want);
    prop_assert_eq!(x.level(), a.iter().filter(|v| *v % 2 != 0).count());
    let child: Vec<i64> = a.iter().copied().chain([2 * rank as i64 + 1]).collect();
    prop_assert_eq!(x.child(rank), OrdPath::from_components(child));
    prop_assert_eq!(OrdPath::try_from_bytes(&x.to_bytes()), Some(x));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parser ↔ serializer round trip preserves structure.
    #[test]
    fn xml_round_trip(src in tree_strategy()) {
        let d1 = Document::from_parens(&src);
        let xml = serialize_document(&d1);
        let d2 = parse_document(&xml).unwrap();
        prop_assert_eq!(d1.len(), d2.len());
        for n in d1.iter() {
            prop_assert_eq!(d1.label(n), d2.label(n));
            prop_assert_eq!(d1.parent(n), d2.parent(n));
        }
    }

    /// ORDPATH / Dewey order and ancestry agree with the tree.
    #[test]
    fn ids_encode_structure(src in tree_strategy()) {
        let d = Document::from_parens(&src);
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
            let ids = IdAssignment::assign(&d, scheme);
            for a in d.iter() {
                for b in d.iter() {
                    prop_assert_eq!(
                        ids.id(a).is_ancestor_of(ids.id(b)),
                        Some(d.is_ancestor(a, b))
                    );
                }
            }
        }
    }

    /// ORDPATH parent derivation matches the tree parent.
    #[test]
    fn ordpath_parent_derivation(src in tree_strategy()) {
        let d = Document::from_parens(&src);
        let ids = IdAssignment::assign(&d, IdScheme::OrdPath);
        for n in d.iter() {
            let derived = ids.id(n).derive_parent();
            let expected = d.parent(n).map(|p| ids.id(p).clone());
            prop_assert_eq!(derived, expected);
        }
    }

    /// OrdPath::between produces a sibling strictly in between.
    #[test]
    fn ordpath_between(a in 0usize..20, b in 0usize..20) {
        prop_assume!(a < b);
        let base = OrdPath::root();
        let l = base.child(a);
        let r = base.child(b);
        let m = l.between(&r);
        prop_assert!(l < m && m < r);
        prop_assert_eq!(m.parent().unwrap(), base);
    }

    /// Random `between`/`following_sibling` insertion sequences keep the
    /// sibling list strictly ordered and structurally consistent — the
    /// careted-input regression of PR 2 (`between` used to assert equal
    /// component prefixes and compare only last components, both wrong
    /// once a sibling is itself a careted label).
    #[test]
    fn ordpath_insertion_sequences(ops in proptest::collection::vec((0u8..4, 0u16..64), 1..24)) {
        for parent in [OrdPath::root(), OrdPath::from_components(vec![1, 2, 1])] {
            let mut sibs = vec![parent.child(0)];
            for (kind, at) in &ops {
                let i = (*at as usize) % sibs.len();
                if *kind == 0 || i + 1 >= sibs.len() {
                    let next = sibs.last().unwrap().following_sibling();
                    sibs.push(next);
                } else {
                    let m = sibs[i].between(&sibs[i + 1]);
                    sibs.insert(i + 1, m);
                }
            }
            for w in sibs.windows(2) {
                prop_assert!(w[0] < w[1], "document order: {} < {}", w[0], w[1]);
            }
            for s in &sibs {
                prop_assert!(
                    s.components().last().unwrap() % 2 != 0,
                    "labels end odd: {s}"
                );
                prop_assert!(parent.is_parent_of(s), "{parent} parent of {s}");
                prop_assert!(parent.is_ancestor_of(s));
                prop_assert!(!s.is_ancestor_of(&parent));
            }
            for a in &sibs {
                for b in &sibs {
                    if a != b {
                        prop_assert!(!a.is_ancestor_of(b), "siblings stay unrelated");
                        prop_assert!(!a.is_parent_of(b));
                    }
                }
            }
        }
    }

    /// ORDPATH byte labels agree with a component-vector reference on
    /// order, equality, hashing, ancestry, parenthood, parent derivation,
    /// level, child and the byte round trip — across code lengths and the
    /// inline/spilled boundary.
    #[test]
    fn ordpath_labels_match_component_vectors(
        (a, b) in label_pair(ordpath_component),
        rank in 0usize..100_000,
    ) {
        check_ordpath_oracle(&a, &b, rank)?;
    }

    /// The same oracle over careted labels `between` makes, under a parent
    /// at any depth, and their children.
    #[test]
    fn careted_ordpath_labels_match_component_vectors(
        parent in proptest::collection::vec(0i64..40, 0..20),
        ops in proptest::collection::vec((0u8..3, 0u16..64), 1..16),
    ) {
        let parent = OrdPath::from_components(parent.into_iter().chain([1]));
        let mut sibs = vec![parent.child(0)];
        for (kind, at) in &ops {
            let i = (*at as usize) % sibs.len();
            if *kind == 0 || i + 1 >= sibs.len() {
                let next = sibs.last().unwrap().following_sibling();
                sibs.push(next);
            } else {
                let m = sibs[i].between(&sibs[i + 1]);
                sibs.insert(i + 1, m);
            }
        }
        let kids: Vec<OrdPath> = sibs.iter().map(|s| s.child(3)).collect();
        let labels: Vec<Vec<i64>> = [parent]
            .iter()
            .chain(&sibs)
            .chain(&kids)
            .map(|l| l.components().collect())
            .collect();
        for a in &labels {
            for b in &labels {
                check_ordpath_oracle(a, b, 7)?;
            }
        }
    }

    /// Dewey byte labels agree with a rank-vector reference.
    #[test]
    fn dewey_labels_match_rank_vectors(
        (a, b) in label_pair(dewey_rank),
        rank in 0usize..100_000,
    ) {
        let (x, y) = (DeweyId::from_ranks(a.clone()), DeweyId::from_ranks(b.clone()));
        prop_assert_eq!(x.ranks().collect::<Vec<_>>(), a.clone());
        prop_assert_eq!(x.cmp(&y), a.cmp(&b), "{:?} vs {:?}", a, b);
        prop_assert_eq!(x == y, a == b);
        prop_assert_eq!(hash_of(&x) == hash_of(&y), a == b);
        let ancestor = |p: &[u32], c: &[u32]| c.len() > p.len() && c.starts_with(p);
        for (s, t, u, v) in [(&x, &y, &a, &b), (&y, &x, &b, &a)] {
            prop_assert_eq!(s.is_ancestor_of(t), ancestor(u, v));
            prop_assert_eq!(s.is_parent_of(t), ancestor(u, v) && v.len() == u.len() + 1);
        }
        let want = (a.len() > 1).then(|| DeweyId::from_ranks(a[..a.len() - 1].to_vec()));
        prop_assert_eq!(hash_of(&x.parent()), hash_of(&want));
        prop_assert_eq!(x.parent(), want);
        prop_assert_eq!(x.level(), a.len());
        let child: Vec<u32> = a.iter().copied().chain([rank as u32 + 1]).collect();
        prop_assert_eq!(x.child(rank), DeweyId::from_ranks(child));
        prop_assert_eq!(DeweyId::try_from_bytes(&x.to_bytes()), Some(x));
    }

    /// Every document conforms to its own summary, exactly.
    #[test]
    fn summary_conformance(src in tree_strategy()) {
        let d = Document::from_parens(&src);
        let s = Summary::of(&d);
        prop_assert!(s.conforms_exactly(&d));
        prop_assert!(s.conforms_enhanced(&d));
        // summary is never larger than the document
        prop_assert!(s.len() <= d.len());
    }

    /// Containment soundness: a positive decision is never contradicted
    /// by evaluation on a conforming document.
    #[test]
    fn containment_soundness(
        doc_src in tree_strategy(),
        p_src in pattern_strategy(),
        q_src in pattern_strategy(),
    ) {
        let d = Document::from_parens(&doc_src);
        let s = Summary::of(&d);
        let mut p = parse_pattern(&p_src).unwrap();
        let mut q = parse_pattern(&q_src).unwrap();
        // mark the deepest node of each as the return node
        let pl = p.iter().last().unwrap();
        p.node_mut(pl).ret = true;
        let ql = q.iter().last().unwrap();
        q.node_mut(ql).ret = true;
        let opts = ContainOpts::default();
        if contained(&p, &q, &s, &opts) == Decision::Contained {
            let pt = evaluate(&p, &d);
            let qt = evaluate(&q, &d);
            prop_assert!(
                pt.is_subset(&qt),
                "decided {p} ⊆S {q} but p(d) ⊄ q(d) on {doc_src}"
            );
        }
    }

    /// Self-containment always holds for satisfiable patterns.
    #[test]
    fn self_containment(doc_src in tree_strategy(), p_src in pattern_strategy()) {
        let d = Document::from_parens(&doc_src);
        let s = Summary::of(&d);
        let mut p = parse_pattern(&p_src).unwrap();
        let pl = p.iter().last().unwrap();
        p.node_mut(pl).ret = true;
        let opts = ContainOpts::default();
        let sat = is_satisfiable(&p, &s, &opts);
        if sat {
            prop_assert_eq!(contained(&p, &p, &s, &opts), Decision::Contained);
        }
    }

    /// Rewriting soundness: every produced plan evaluates exactly to the
    /// query result (identity-view setting over random documents).
    #[test]
    fn rewriting_soundness(doc_src in tree_strategy(), q_src in pattern_strategy()) {
        let d = Document::from_parens(&doc_src);
        let s = Summary::of(&d);
        let mut q = parse_pattern(&q_src).unwrap();
        // give every non-optional leaf id+v attributes to make a view-able query
        let leaves: Vec<_> = q.iter().filter(|&n| q.children(n).is_empty()).collect();
        for leaf in leaves {
            let nd = q.node_mut(leaf);
            nd.attrs.id = true;
        }
        prop_assume!(q.arity() > 0);
        let view = View::new("v", q.clone(), IdScheme::OrdPath);
        let r = rewrite(&q, std::slice::from_ref(&view), &s, &RewriteOpts::default());
        let catalog = common::materialized(&d, std::slice::from_ref(&view));
        let direct = materialize(&q, &d, IdScheme::OrdPath);
        for rw in &r.rewritings {
            let out = execute_with(&rw.plan, &catalog, &ExecOpts::default()).unwrap();
            prop_assert!(
                out.set_eq(&direct),
                "plan output diverges for {q} on {doc_src}:\n{}",
                rw.plan
            );
        }
    }

    /// Structural join agrees with the nested-loop oracle on random trees,
    /// for both structural ID schemes.
    #[test]
    fn struct_join_agreement(src in tree_strategy()) {
        use smv::algebra::{nested_loop_join, stack_tree_join};
        let d = Document::from_parens(&src);
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
            let ids = IdAssignment::assign(&d, scheme);
            let evens: Vec<_> = d.iter().step_by(2).map(|n| ids.id(n).clone()).collect();
            let odds: Vec<_> = d.iter().skip(1).step_by(2).map(|n| ids.id(n).clone()).collect();
            for rel in [StructRel::Parent, StructRel::Ancestor] {
                let mut a = nested_loop_join(&evens, &odds, rel);
                a.sort_unstable();
                let b = stack_tree_join(&evens, &odds, rel);
                prop_assert_eq!(a, b);
            }
        }
    }

    /// The presorted stack-tree merge — the executor's default path —
    /// agrees with the nested-loop oracle once inputs are in document
    /// order, for both structural ID schemes.
    #[test]
    fn presorted_join_agrees_with_oracle(src in tree_strategy()) {
        use smv::algebra::{doc_sorted_indices, nested_loop_join, stack_tree_join_presorted};
        let d = Document::from_parens(&src);
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
            let ids = IdAssignment::assign(&d, scheme);
            let left: Vec<_> = d.iter().step_by(2).map(|n| ids.id(n).clone()).collect();
            let right: Vec<_> = d.iter().skip(1).step_by(2).map(|n| ids.id(n).clone()).collect();
            let lp = doc_sorted_indices(&left);
            let rp = doc_sorted_indices(&right);
            let ls: Vec<_> = lp.iter().map(|&i| left[i].clone()).collect();
            let rs: Vec<_> = rp.iter().map(|&i| right[i].clone()).collect();
            for rel in [StructRel::Parent, StructRel::Ancestor] {
                let mut expected = nested_loop_join(&left, &right, rel);
                expected.sort_unstable();
                let mut got: Vec<(usize, usize)> = stack_tree_join_presorted(&ls, &rs, rel)
                    .into_iter()
                    .map(|(a, b)| (lp[a], rp[b]))
                    .collect();
                got.sort_unstable();
                prop_assert_eq!(expected, got, "{:?} {:?}", scheme, rel);
            }
        }
    }

    /// The executor's sort-based StructJoin produces exactly the relation
    /// the nested-loop oracle predicts, whether or not the inputs carry
    /// the sortedness tag.
    #[test]
    fn exec_struct_join_matches_oracle_relation(src in tree_strategy()) {
        use smv::algebra::{execute_with, nested_loop_join, MapProvider, Plan, StructRel};
        use smv::algebra::{AttrKind, Cell, NestedRelation, Row, Schema};
        let d = Document::from_parens(&src);
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey] {
            let ids = IdAssignment::assign(&d, scheme);
            let evens: Vec<_> = d.iter().step_by(2).map(|n| ids.id(n).clone()).collect();
            let odds: Vec<_> = d.iter().skip(1).step_by(2).map(|n| ids.id(n).clone()).collect();
            let mk = |xs: &[smv::xml::StructId], name: &str| {
                NestedRelation::new(
                    Schema::atoms(&[(name, AttrKind::Id)]),
                    xs.iter().map(|id| Row::new(vec![Cell::Id(id.clone())])).collect(),
                )
            };
            for rel in [StructRel::Parent, StructRel::Ancestor] {
                for pre_normalize in [false, true] {
                    let mut p = MapProvider::default();
                    let mut le = mk(&evens, "l.ID");
                    let mut ri = mk(&odds, "r.ID");
                    if pre_normalize {
                        le.normalize();
                        ri.normalize();
                    }
                    p.insert("l", le);
                    p.insert("r", ri);
                    let plan = Plan::StructJoin {
                        left: Box::new(Plan::Scan { view: "l".into() }),
                        right: Box::new(Plan::Scan { view: "r".into() }),
                        lcol: 0,
                        rcol: 0,
                        rel,
                    };
                    let out = execute_with(&plan, &p, &ExecOpts::default()).unwrap();
                    let mut expected = NestedRelation::new(
                        Schema::atoms(&[("l.ID", AttrKind::Id), ("r.ID", AttrKind::Id)]),
                        nested_loop_join(&evens, &odds, rel)
                            .into_iter()
                            .map(|(a, b)| Row::new(vec![
                                Cell::Id(evens[a].clone()),
                                Cell::Id(odds[b].clone()),
                            ]))
                            .collect(),
                    );
                    expected.normalize();
                    prop_assert!(
                        out.set_eq(&expected),
                        "{:?} {:?} pre_normalize={} diverges on {}",
                        scheme, rel, pre_normalize, src
                    );
                }
            }
        }
    }

    /// Hashed/ordered normalization agrees with a string-encoding
    /// reference (the seed's removed `encode_key`) on randomized relations
    /// across all ID schemes: same cardinality after dedup, same row set.
    #[test]
    fn hashed_dedup_agrees_with_string_key_reference(src in tree_strategy()) {
        use smv::algebra::{AttrKind, Cell, NestedRelation, Row, Schema};
        use smv_bench::reference_string_key as reference_key;
        use std::collections::HashSet;

        let d = Document::from_parens(&src);
        for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
            let ids = IdAssignment::assign(&d, scheme);
            // duplicate every node's row (and stagger the order) to give
            // dedup real work; values/nulls/labels exercise cell variants
            let mut rows: Vec<Row> = Vec::new();
            for _pass in 0..2 {
                for n in d.iter() {
                    let v = d
                        .value(n)
                        .map(|v| Cell::Atom(v.clone()))
                        .unwrap_or(Cell::Null);
                    rows.push(Row::new(vec![
                        Cell::Id(ids.id(n).clone()),
                        Cell::Label(d.label(n)),
                        v,
                    ]));
                }
            }
            let mut rel = NestedRelation::new(
                Schema::atoms(&[
                    ("n.ID", AttrKind::Id),
                    ("n.L", AttrKind::Label),
                    ("n.V", AttrKind::Value),
                ]),
                rows.clone(),
            );

            // reference: sort + dedup by encoded string key
            let mut ref_rows = rows.clone();
            ref_rows.sort_by_cached_key(reference_key);
            ref_rows.dedup();
            let ref_keys: HashSet<String> = ref_rows.iter().map(reference_key).collect();

            // hashed: HashSet over structural row hashes
            let hash_distinct: HashSet<Row> = rows.iter().cloned().collect();

            // ordered: comparator sort + adjacent dedup (normalize)
            rel.normalize();

            prop_assert_eq!(rel.len(), ref_rows.len(), "{:?} ordered vs reference", scheme);
            prop_assert_eq!(hash_distinct.len(), ref_rows.len(), "{:?} hashed vs reference", scheme);
            for r in &rel.rows {
                prop_assert!(ref_keys.contains(&reference_key(r)));
                prop_assert!(hash_distinct.contains(r));
            }
        }
    }

    /// Pattern text syntax round-trips through Display.
    #[test]
    fn pattern_display_round_trip(p_src in pattern_strategy()) {
        let p = parse_pattern(&p_src).unwrap();
        let rendered = p.to_string();
        let p2 = parse_pattern(&rendered).unwrap();
        prop_assert_eq!(p2.to_string(), rendered);
    }

    /// The canonical model only contains conforming, satisfiable shapes:
    /// every canonical tree's return tuple is realized when the tree is
    /// treated as a document.
    #[test]
    fn canonical_trees_are_templates(doc_src in tree_strategy(), p_src in pattern_strategy()) {
        let d = Document::from_parens(&doc_src);
        let s = Summary::of(&d);
        let mut p = parse_pattern(&p_src).unwrap();
        let pl = p.iter().last().unwrap();
        p.node_mut(pl).ret = true;
        let model = canonical_model(&p, &s, &CanonOpts { use_strong: false, max_trees: 20_000 });
        let labels: HashSet<String> = model
            .trees
            .iter()
            .map(|t| t.render())
            .collect();
        prop_assert_eq!(labels.len(), model.size(), "models are duplicate-free");
    }

    /// Plan-cache safety (PR 9): two patterns with equal canonical form
    /// rewrite identically — same plans, same order, same fingerprints —
    /// so the service may key its pattern and plan caches on
    /// `canonical_form` without changing any query's answer.
    #[test]
    fn equal_canonical_form_rewrites_identically(
        doc_src in tree_strategy(),
        q_src in pattern_strategy(),
    ) {
        use smv::algebra::plan_fingerprint;
        use smv::pattern::canonical_form;
        let d = Document::from_parens(&doc_src);
        let s = Summary::of(&d);
        let mut q = parse_pattern(&q_src).unwrap();
        let leaves: Vec<_> = q.iter().filter(|&n| q.children(n).is_empty()).collect();
        for leaf in leaves {
            q.node_mut(leaf).attrs.id = true;
        }
        prop_assume!(q.arity() > 0);
        // Reparsing the canonical form yields a distinct `Pattern` value
        // with the same canonical form — exactly what the pattern cache
        // equates on a hit.
        let q2 = parse_pattern(&canonical_form(&q)).unwrap();
        prop_assert_eq!(canonical_form(&q), canonical_form(&q2));
        let view = View::new("v", q.clone(), IdScheme::OrdPath);
        let r1 = rewrite(&q, std::slice::from_ref(&view), &s, &RewriteOpts::default());
        let r2 = rewrite(&q2, std::slice::from_ref(&view), &s, &RewriteOpts::default());
        prop_assert_eq!(r1.rewritings.len(), r2.rewritings.len());
        for (a, b) in r1.rewritings.iter().zip(&r2.rewritings) {
            prop_assert_eq!(plan_fingerprint(&a.plan), plan_fingerprint(&b.plan));
            prop_assert_eq!(a.plan.to_string(), b.plan.to_string());
        }
    }

    /// The document's child arena and label postings agree with a naive
    /// recomputation from `iter()` and `parent`, for a built document and
    /// for its parsed serialization, and so do the IDs every scheme
    /// derives from them.
    #[test]
    fn document_layout_is_the_naive_one(src in tree_strategy()) {
        let built = Document::from_parens(&src);
        let parsed = parse_document(&serialize_document(&built)).unwrap();
        for d in [&built, &parsed] {
            check_document_layout(d)?;
        }
    }

    /// Candidates drawn from label postings are the candidates of a full
    /// scan: a document and the same document with its postings hidden
    /// give every pattern node the same candidates and tuples.
    #[test]
    fn posting_candidates_are_scan_candidates(doc_src in tree_strategy(), p_src in pattern_strategy()) {
        use smv::pattern::Matcher;
        let d = Document::from_parens(&doc_src);
        let mut p = parse_pattern(&p_src).unwrap();
        let pl = p.iter().last().unwrap();
        p.node_mut(pl).ret = true;
        let hidden = Scanned(&d);
        let (listed, scanned) = (Matcher::new(&p, &d), Matcher::new(&p, &hidden));
        for n in p.iter() {
            prop_assert_eq!(listed.candidates(n), scanned.candidates(n), "{} on {}", p_src, doc_src);
        }
        prop_assert_eq!(listed.tuples(10_000), scanned.tuples(10_000));
        prop_assert!(listed.probes() <= scanned.probes());
    }
}

/// `document_layout_is_the_naive_one` on one document.
fn check_document_layout(d: &Document) -> Result<(), TestCaseError> {
    use smv::xml::StructId;
    let mut kids: Vec<Vec<NodeId>> = vec![Vec::new(); d.len()];
    for n in d.iter().skip(1) {
        kids[d.parent(n).unwrap().idx()].push(n);
    }
    prop_assert_eq!(d.parent(d.root()), None);
    for n in d.iter() {
        prop_assert_eq!(d.children(n), &kids[n.idx()][..]);
        for (rank, &c) in kids[n.idx()].iter().enumerate() {
            prop_assert_eq!(d.child_rank(c) as usize, rank);
            prop_assert_eq!(d.parent(c), Some(n));
        }
    }
    let mut labels: Vec<Label> = d.iter().map(|n| d.label(n)).collect();
    labels.push(Label::intern("never-a-tree-label"));
    for l in labels {
        let naive: Vec<NodeId> = d.iter().filter(|&n| d.label(n) == l).collect();
        prop_assert_eq!(d.nodes_labeled(l), &naive[..]);
    }
    for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
        let ids = IdAssignment::assign(d, scheme);
        let mut naive: Vec<StructId> = Vec::new();
        for n in d.iter() {
            let id = match (scheme, d.parent(n)) {
                (IdScheme::Sequential, _) => StructId::Seq(n.0 as u64),
                (IdScheme::OrdPath, None) => StructId::Ord(OrdPath::root()),
                (IdScheme::Dewey, None) => StructId::Dewey(DeweyId::root()),
                (_, Some(p)) => {
                    let rank = kids[p.idx()].iter().position(|&c| c == n).unwrap();
                    naive[p.idx()].child(rank).unwrap()
                }
            };
            naive.push(id);
        }
        for n in d.iter() {
            prop_assert_eq!(ids.id(n), &naive[n.idx()], "{:?}", scheme);
        }
    }
    Ok(())
}

/// A document with its label postings hidden, so a `Matcher` over it
/// tests every node, as it does over a summary.
struct Scanned<'a>(&'a Document);

impl LabeledTree for Scanned<'_> {
    fn tree_root(&self) -> NodeId {
        self.0.tree_root()
    }
    fn tree_label(&self, n: NodeId) -> Label {
        self.0.tree_label(n)
    }
    fn tree_children(&self, n: NodeId) -> &[NodeId] {
        self.0.tree_children(n)
    }
    fn tree_parent(&self, n: NodeId) -> Option<NodeId> {
        self.0.tree_parent(n)
    }
    fn tree_value(&self, n: NodeId) -> Option<&Value> {
        self.0.tree_value(n)
    }
    fn tree_is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.0.tree_is_ancestor(a, b)
    }
    fn tree_len(&self) -> usize {
        self.0.tree_len()
    }
}

impl MatchTarget for Scanned<'_> {
    fn admits(&self, n: NodeId, f: &Formula) -> bool {
        self.0.admits(n, f)
    }
}

/// Plan-cache safety, the other direction: `plan_fingerprint` must tell
/// the benchmark query sets apart, or the plan cache would serve one
/// query's ranked plan for another. Every pr2 and pr4 workload query's
/// best plan gets a distinct fingerprint.
#[test]
fn plan_fingerprint_distinguishes_bench_workloads() {
    use smv::algebra::plan_fingerprint;
    use smv::datagen::{pr2_workload, pr4_workload};
    let mut fps: Vec<(String, u64)> = Vec::new();
    let s2 = Summary::of(&xmark(&XmarkConfig::default()));
    for c in pr2_workload(IdScheme::OrdPath) {
        let r = rewrite(&c.query, &c.views, &s2, &RewriteOpts::default());
        let rw = r.rewritings.first().expect("pr2 case rewrites");
        fps.push((format!("pr2/{}", c.name), plan_fingerprint(&rw.plan)));
    }
    let wl = pr4_workload(0.05, IdScheme::OrdPath);
    let s4 = Summary::of(&wl.doc);
    for q in &wl.queries {
        let r = rewrite(&q.pattern, &wl.views, &s4, &RewriteOpts::default());
        let rw = r.rewritings.first().expect("pr4 query rewrites");
        fps.push((format!("pr4/{}", q.name), plan_fingerprint(&rw.plan)));
    }
    for i in 0..fps.len() {
        for j in i + 1..fps.len() {
            assert_ne!(
                fps[i].1, fps[j].1,
                "fingerprint collision between {} and {}",
                fps[i].0, fps[j].0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The provider matrix holds on this file's random trees too: a
    /// wide-view scan answers identically from the in-memory map, epoch,
    /// cold-disk and warm-disk providers.
    #[test]
    fn providers_agree_on_random_trees(src in tree_strategy()) {
        let doc = Document::from_parens(&src);
        let matrix =
            smv::store::ProviderMatrix::new(&doc, IdScheme::OrdPath, &[("all", "r(//*{id,l,v})")]);
        let q = parse_pattern("r(//*{id,l,v})").unwrap();
        let res = rewrite(&q, matrix.views(), matrix.summary(), &RewriteOpts::default());
        prop_assert!(!res.rewritings.is_empty());
        let (rel, _) = matrix.check(&res.rewritings[0].plan);
        prop_assert!(rel.set_eq(&materialize(&q, &doc, IdScheme::OrdPath)));
    }
}
