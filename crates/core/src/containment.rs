//! Pattern containment under summary constraints.
//!
//! The decision procedure of the paper:
//!
//! * **Proposition 3.1** — `p ⊆_S q` iff for every canonical tree
//!   `t_e ∈ mod_S(p)`, the designated return tuple of `t_e` belongs to
//!   `q(t_e)`.
//! * **Proposition 3.2** — containment in a union: every `t_e` must have
//!   its return tuple produced by *some* member.
//! * **§4.2** — decorated patterns: single containment evaluates `q(t_e)`
//!   with *decorated embeddings* (`φ_{e(n)} ⇒ φ_n`); union containment
//!   additionally requires the value-coverage implication
//!   `φ_{t_e} ⇒ ⋁_{t'_e ∈ g(t_e)} φ_{t'_e}` over per-path formulas.
//! * **Proposition 4.1** — attribute patterns must store the same
//!   attributes position-wise.
//! * **Proposition 4.2** — nested patterns need equal nesting-sequence
//!   lengths and position-wise equal (or one-to-one-connected, §4.5)
//!   nesting anchors.
//! * **§4.3** — optional patterns: canonical models already contain the
//!   cut variants, and `q(t_e)` is evaluated with maximal-match optional
//!   semantics, so `⊥` columns are compared faithfully.

use smv_pattern::canonical::{canonical_model, CTree, CanonOpts, CanonicalModel};
use smv_pattern::formula::Formula;
use smv_pattern::matching::{MatchTarget, Matcher};
use smv_pattern::Pattern;
use smv_summary::Summary;
use smv_xml::{Label, LabeledTree, NodeId, Value};
use std::collections::HashMap;

/// Tri-state answer: `Unknown` arises only when a canonical model was
/// truncated by [`CanonOpts::max_trees`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Containment proven.
    Contained,
    /// A counterexample canonical tree was found.
    NotContained,
    /// The model was truncated; no answer (treat conservatively).
    Unknown,
}

impl Decision {
    /// Is this a definite yes?
    pub fn is_contained(self) -> bool {
        matches!(self, Decision::Contained)
    }
}

/// Options for containment tests.
#[derive(Clone, Debug, Default)]
pub struct ContainOpts {
    /// Canonical-model options (strong edges, size cap).
    pub canon: CanonOpts,
}

/// Decides `p ⊆_S q` (Proposition 3.1 with the §4 extensions).
pub fn contained(p: &Pattern, q: &Pattern, s: &Summary, opts: &ContainOpts) -> Decision {
    if !signatures_compatible(p, q) {
        return Decision::NotContained;
    }
    // Proposition 3.7 pre-filter: return paths of p must be ⊆ those of q.
    let p_paths = smv_pattern::return_paths(p, s);
    let q_paths = smv_pattern::return_paths(q, s);
    for (pp, qp) in p_paths.iter().zip(q_paths.iter()) {
        if !pp.iter().all(|x| qp.contains(x)) {
            return Decision::NotContained;
        }
    }
    let model = canonical_model(p, s, &opts.canon);
    for te in &model.trees {
        if !tuple_in(q, te, s, FormulaMode::Implication) {
            return Decision::NotContained;
        }
    }
    if model.truncated {
        Decision::Unknown
    } else {
        Decision::Contained
    }
}

/// Decides `p ⊆_S q_1 ∪ … ∪ q_m` (Proposition 3.2 + §4.2 condition 2).
pub fn contained_in_union(
    p: &Pattern,
    qs: &[&Pattern],
    s: &Summary,
    opts: &ContainOpts,
) -> Decision {
    if qs.is_empty() {
        // contained in the empty union iff unsatisfiable
        let model = canonical_model(p, s, &opts.canon);
        return if model.trees.is_empty() && !model.truncated {
            Decision::Contained
        } else if model.truncated {
            Decision::Unknown
        } else {
            Decision::NotContained
        };
    }
    if qs.len() == 1 && no_predicates(p) && no_predicates(qs[0]) {
        return contained(p, qs[0], s, opts);
    }
    let candidates: Vec<&&Pattern> = qs.iter().filter(|q| signatures_compatible(p, q)).collect();
    if candidates.is_empty() {
        return Decision::NotContained;
    }
    let model = canonical_model(p, s, &opts.canon);
    // canonical models of the union members, built lazily
    let mut member_models: HashMap<usize, CanonicalModel> = HashMap::new();
    let mut unknown = model.truncated;
    for te in &model.trees {
        // condition 1: some member structurally produces the tuple; for
        // decorated members, compatibility (joint satisfiability) suffices
        // here — values are covered by condition 2.
        let f_te: Vec<usize> = qs
            .iter()
            .enumerate()
            .filter(|(_, q)| {
                signatures_compatible(p, q) && tuple_in(q, te, s, FormulaMode::Compatibility)
            })
            .map(|(i, _)| i)
            .collect();
        if f_te.is_empty() {
            return Decision::NotContained;
        }
        // condition 2: value coverage. Trivial when nothing is decorated.
        if no_predicates(p) && f_te.iter().all(|&i| no_predicates(qs[i])) {
            continue;
        }
        let lhs = te.path_formula();
        let te_ret = te.return_paths();
        let mut rhs: Vec<HashMap<NodeId, Formula>> = Vec::new();
        for &i in &f_te {
            let m = member_models
                .entry(i)
                .or_insert_with(|| canonical_model(qs[i], s, &opts.canon));
            if m.truncated {
                unknown = true;
            }
            for t2 in &m.trees {
                if t2.return_paths() == te_ret {
                    rhs.push(t2.path_formula());
                }
            }
        }
        if !implies_disjunction(&lhs, &rhs) {
            return Decision::NotContained;
        }
    }
    if unknown {
        Decision::Unknown
    } else {
        Decision::Contained
    }
}

/// Decides `p ≡_S q` (two-way containment, §3.1).
pub fn equivalent(p: &Pattern, q: &Pattern, s: &Summary, opts: &ContainOpts) -> Decision {
    match (contained(p, q, s, opts), contained(q, p, s, opts)) {
        (Decision::Contained, Decision::Contained) => Decision::Contained,
        (Decision::Unknown, _) | (_, Decision::Unknown) => Decision::Unknown,
        _ => Decision::NotContained,
    }
}

/// `p` is `S`-unsatisfiable iff its canonical model is empty (§2.4).
pub fn is_satisfiable(p: &Pattern, s: &Summary, opts: &ContainOpts) -> bool {
    canonical_model(p, s, &opts.canon).is_satisfiable()
}

fn no_predicates(p: &Pattern) -> bool {
    p.iter().all(|n| p.node(n).predicate.is_top())
}

/// Proposition 4.1 condition 1 (attribute signatures) and Proposition 4.2
/// condition 2(a) (nesting-sequence lengths), plus equal arity.
fn signatures_compatible(p: &Pattern, q: &Pattern) -> bool {
    let pr = p.return_nodes();
    let qr = q.return_nodes();
    if pr.len() != qr.len() {
        return false;
    }
    for (&a, &b) in pr.iter().zip(qr.iter()) {
        if p.node(a).attrs != q.node(b).attrs {
            return false;
        }
        if p.nesting_anchors(a).len() != q.nesting_anchors(b).len() {
            return false;
        }
    }
    true
}

/// How formulas gate an embedding of `q` into a canonical tree.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum FormulaMode {
    /// Decorated embeddings: `φ_{t}(v) ⇒ φ_q(v)` (single containment).
    Implication,
    /// Compatibility: `φ_t ∧ φ_q` satisfiable (union condition 1; values
    /// are handled globally by condition 2).
    Compatibility,
}

/// Wrapper giving a `CTree` compatibility-mode admission.
struct CompatTree<'a>(&'a CTree);

impl<'a> LabeledTree for CompatTree<'a> {
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
    fn tree_value(&self, _n: NodeId) -> Option<&Value> {
        None
    }
    fn tree_is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        self.0.tree_is_ancestor(a, b)
    }
    fn tree_len(&self) -> usize {
        self.0.tree_len()
    }
}

impl<'a> MatchTarget for CompatTree<'a> {
    fn admits(&self, n: NodeId, f: &Formula) -> bool {
        self.0.formula(n).and(f).is_sat()
    }
}

/// Does `q(t_e)` produce exactly the designated return tuple of `t_e`,
/// with nesting sequences compatible (Prop 4.2 2(b), relaxed through
/// one-to-one edges)?
pub(crate) fn tuple_in(q: &Pattern, te: &CTree, s: &Summary, mode: FormulaMode) -> bool {
    let spath = |n: NodeId| te.spath(n);
    let nesting = |i: usize| te.nesting_sequence(i);
    match mode {
        FormulaMode::Implication => embeds_tuple(q, te, te.return_nodes(), spath, nesting, s),
        FormulaMode::Compatibility => {
            embeds_tuple(q, &CompatTree(te), te.return_nodes(), spath, nesting, s)
        }
    }
}

/// Does some embedding of `q` into `target` produce exactly `designated`
/// on `q`'s return nodes, with nesting sequences compatible (Prop 4.2
/// 2(b), relaxed through one-to-one edges)? `spath` gives a target node's
/// summary path and `nesting(i)` return `i`'s nesting sequence in the
/// target.
pub(crate) fn embeds_tuple<'t, T: MatchTarget>(
    q: &Pattern,
    target: &T,
    designated: &[Option<NodeId>],
    spath: impl Fn(NodeId) -> NodeId,
    nesting: impl Fn(usize) -> &'t [NodeId],
    s: &Summary,
) -> bool {
    let q_returns = q.return_nodes();
    debug_assert_eq!(designated.len(), q_returns.len());
    let check = |asg: &smv_pattern::Assignment| -> bool {
        for (i, (&r, &qr)) in designated.iter().zip(q_returns.iter()).enumerate() {
            if asg[qr.idx()] != r {
                return false;
            }
            if r.is_some() {
                // nesting sequences: q-side anchors mapped through asg
                let q_ns: Vec<NodeId> = q
                    .nesting_anchors(qr)
                    .iter()
                    .map(|&a| spath(asg[a.idx()].expect("anchor of mapped node")))
                    .collect();
                let p_ns = nesting(i);
                if q_ns.len() != p_ns.len() {
                    return false;
                }
                let ok = q_ns
                    .iter()
                    .zip(p_ns.iter())
                    .all(|(&a, &b)| a == b || one_to_one_connected(s, a, b));
                if !ok {
                    return false;
                }
            }
        }
        true
    };
    let mut found = false;
    Matcher::new(q, target).for_each_embedding(|asg| {
        if check(asg) {
            found = true;
            return false;
        }
        true
    });
    found
}

/// Are summary nodes `a` and `b` connected by a chain of one-to-one edges
/// only (§4.5)? (In either direction; `a == b` handled by the caller.)
pub fn one_to_one_connected(s: &Summary, a: NodeId, b: NodeId) -> bool {
    let walk_up = |from: NodeId, to: NodeId| -> bool {
        let mut cur = from;
        while cur != to {
            if !s.is_one_to_one_edge(cur) {
                return false;
            }
            match s.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
        true
    };
    if s.is_ancestor(a, b) {
        walk_up(b, a)
    } else if s.is_ancestor(b, a) {
        walk_up(a, b)
    } else {
        false
    }
}

/// The coverage implication of §4.2 condition 2:
/// `φ_lhs ⇒ ⋁_j φ_rhs[j]`, where each formula is a conjunction of
/// per-summary-path interval formulas. Decided by branch-and-prune: a
/// counter-model must violate at least one conjunct of every disjunct.
pub(crate) fn implies_disjunction(
    lhs: &HashMap<NodeId, Formula>,
    rhs: &[HashMap<NodeId, Formula>],
) -> bool {
    // accumulate per-path constraints of the hypothetical counter-model,
    // starting from the lhs
    fn rec(acc: &mut HashMap<NodeId, Formula>, rhs: &[HashMap<NodeId, Formula>], j: usize) -> bool {
        if j == rhs.len() {
            return true; // counter-model exists: implication fails
        }
        let disjunct = &rhs[j];
        if disjunct.is_empty() {
            // an unconditional disjunct covers everything
            return false;
        }
        for (path, f) in disjunct {
            let neg = f.not();
            let cur = acc.get(path).cloned().unwrap_or_else(Formula::top);
            let merged = cur.and(&neg);
            if merged.is_sat() {
                acc.insert(*path, merged);
                if rec(acc, rhs, j + 1) {
                    return true;
                }
            }
            acc.insert(*path, cur);
        }
        false
    }
    if rhs.iter().any(|d| d.is_empty()) {
        return true; // some disjunct is T
    }
    let mut acc = lhs.clone();
    if !acc.values().all(|f| f.is_sat()) {
        return true; // lhs unsatisfiable
    }
    !rec(&mut acc, rhs, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smv_pattern::parse_pattern;
    use smv_xml::Document;

    fn opts() -> ContainOpts {
        ContainOpts::default()
    }

    fn opts_plain() -> ContainOpts {
        ContainOpts {
            canon: CanonOpts {
                use_strong: false,
                max_trees: 100_000,
            },
        }
    }

    #[test]
    fn summary_implied_node_makes_patterns_equivalent() {
        // the paper's §3.2 example: S = r(a(b)), q = r//a//b, p1 = r//b,
        // then p1 ≡S q although p1 lacks the a node.
        let s = Summary::of(&Document::from_parens("r(a(b))"));
        let q = parse_pattern("r(//a(//b{ret}))").unwrap();
        let p1 = parse_pattern("r(//b{ret})").unwrap();
        assert_eq!(contained(&p1, &q, &s, &opts_plain()), Decision::Contained);
        assert_eq!(contained(&q, &p1, &s, &opts_plain()), Decision::Contained);
        assert_eq!(equivalent(&p1, &q, &s, &opts_plain()), Decision::Contained);
    }

    #[test]
    fn plain_containment_and_its_failure() {
        let s = Summary::of(&Document::from_parens("a(b(c) c)"));
        let narrow = parse_pattern("a(/b(/c{ret}))").unwrap();
        let wide = parse_pattern("a(//c{ret})").unwrap();
        assert_eq!(
            contained(&narrow, &wide, &s, &opts_plain()),
            Decision::Contained
        );
        assert_eq!(
            contained(&wide, &narrow, &s, &opts_plain()),
            Decision::NotContained
        );
    }

    #[test]
    fn self_containment_always_holds() {
        let s = Summary::of(&Document::from_parens("a(b(c d(e)) f)"));
        for src in [
            "a(//b{ret})",
            "a(/b(/c{ret}, ?/d(/e{ret})))",
            "a(//*{id}, /f{v})",
            "a(%//b(/d{c}))",
        ] {
            let p = parse_pattern(src).unwrap();
            assert_eq!(
                contained(&p, &p, &s, &opts_plain()),
                Decision::Contained,
                "self-containment of {src}"
            );
        }
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let s = Summary::of(&Document::from_parens("a(b c)"));
        let p = parse_pattern("a(/b{ret})").unwrap();
        let q = parse_pattern("a(/b{ret}, /c{ret})").unwrap();
        assert_eq!(contained(&p, &q, &s, &opts()), Decision::NotContained);
    }

    #[test]
    fn attribute_signatures_must_match() {
        // Prop 4.1 condition 1
        let s = Summary::of(&Document::from_parens("a(b)"));
        let p = parse_pattern("a(/b{id})").unwrap();
        let q = parse_pattern("a(/b{v})").unwrap();
        assert_eq!(contained(&p, &q, &s, &opts()), Decision::NotContained);
        let q2 = parse_pattern("a(/b{id})").unwrap();
        assert_eq!(contained(&p, &q2, &s, &opts()), Decision::Contained);
    }

    #[test]
    fn decorated_containment_fig9_style() {
        // pφ1 with v=3 is contained in pφ3 with v>1 (implication), not
        // conversely.
        let s = Summary::of(&Document::from_parens(r#"a(c(b="1"))"#));
        let p1 = parse_pattern("a(/c(/b{ret}[v=3]))").unwrap();
        let p3 = parse_pattern("a(/c(/b{ret}[v>1]))").unwrap();
        assert_eq!(contained(&p1, &p3, &s, &opts_plain()), Decision::Contained);
        assert_eq!(
            contained(&p3, &p1, &s, &opts_plain()),
            Decision::NotContained
        );
    }

    #[test]
    fn union_containment_prop32() {
        // S: a(b c); p returns all x children via wildcard; union of the
        // two labeled versions covers it.
        let s = Summary::of(&Document::from_parens("a(b c)"));
        let p = parse_pattern("a(/*{ret})").unwrap();
        let qb = parse_pattern("a(/b{ret})").unwrap();
        let qc = parse_pattern("a(/c{ret})").unwrap();
        assert_eq!(
            contained_in_union(&p, &[&qb, &qc], &s, &opts_plain()),
            Decision::Contained
        );
        assert_eq!(
            contained_in_union(&p, &[&qb], &s, &opts_plain()),
            Decision::NotContained
        );
    }

    #[test]
    fn union_value_coverage_paper_4_2_example() {
        // pφ2 ⊆S pφ1 ∪ pφ3 ∪ pφ4 — the worked example of §4.2: a value
        // split across members that no single member contains.
        let s = Summary::of(&Document::from_parens(r#"a(b="1" c(d="2"))"#));
        // members constrain the same return node /a/b with overlapping
        // ranges; p uses v>=0, members v<5 and v>=5 & v>2...
        let p = parse_pattern("a(/b{ret}[v>=0])").unwrap();
        let q1 = parse_pattern("a(/b{ret}[v<5])").unwrap();
        let q2 = parse_pattern("a(/b{ret}[v>=5])").unwrap();
        assert_eq!(
            contained_in_union(&p, &[&q1, &q2], &s, &opts_plain()),
            Decision::Contained
        );
        assert_eq!(
            contained_in_union(&p, &[&q1], &s, &opts_plain()),
            Decision::NotContained
        );
        // single-member union with implication still works
        let q3 = parse_pattern("a(/b{ret}[v>=-1])").unwrap();
        assert_eq!(
            contained_in_union(&p, &[&q3], &s, &opts_plain()),
            Decision::Contained
        );
    }

    #[test]
    fn optional_pattern_containment_fig10() {
        // Figure 10: p1 ⊆S p2 (p2's optional b-subtree is laxer).
        let d = Document::from_parens("a(c(d(b e) b) c)");
        let s = Summary::of(&d);
        let p1 = parse_pattern("a(/c{ret}(?/d(/b{ret}, ?/e)))").unwrap();
        let p2 = parse_pattern("a(/c{ret}(?/d(/b{ret})))").unwrap();
        assert_eq!(contained(&p1, &p2, &s, &opts_plain()), Decision::Contained);
    }

    #[test]
    fn optional_is_weaker_than_required() {
        let s = Summary::of(&Document::from_parens("a(b(c) b)"));
        let req = parse_pattern("a(/b{ret}(/c))").unwrap();
        let opt = parse_pattern("a(/b{ret}(?/c))").unwrap();
        // required ⊆ optional fails on arity-compatible designations?
        // both are 1-ary and return b; every required-match is an
        // optional-match:
        assert_eq!(
            contained(&req, &opt, &s, &opts_plain()),
            Decision::Contained
        );
        // optional ⊄ required: the cut variant has no c
        assert_eq!(
            contained(&opt, &req, &s, &opts_plain()),
            Decision::NotContained
        );
    }

    #[test]
    fn strong_edges_enable_containment() {
        // every b has a c child in S-enhanced form; then a//b ⊆ a//b[c]
        let d = Document::from_parens("a(b(c) b(c))");
        let s = Summary::of(&d);
        let p = parse_pattern("a(/b{ret})").unwrap();
        let q = parse_pattern("a(/b{ret}(/c))").unwrap();
        assert_eq!(
            contained(&p, &q, &s, &opts_plain()),
            Decision::NotContained,
            "without integrity constraints the containment fails"
        );
        assert_eq!(
            contained(&p, &q, &s, &opts()),
            Decision::Contained,
            "the strong edge b→c guarantees the c child"
        );
    }

    #[test]
    fn nested_signatures_must_agree() {
        // Prop 4.2 condition 2(a)
        let s = Summary::of(&Document::from_parens("a(b(c))"));
        let flat = parse_pattern("a(//c{ret})").unwrap();
        let nested = parse_pattern("a(%//c{ret})").unwrap();
        assert_eq!(
            contained(&flat, &nested, &s, &opts()),
            Decision::NotContained
        );
        assert_eq!(
            contained(&nested, &flat, &s, &opts()),
            Decision::NotContained
        );
        assert_eq!(
            contained(&nested, &nested, &s, &opts()),
            Decision::Contained
        );
    }

    #[test]
    fn nesting_anchor_positions_matter() {
        // nesting under a vs under b are different groupings...
        let s = Summary::of(&Document::from_parens("a(b(c) b(c))"));
        let under_a = parse_pattern("a(%//c{ret})").unwrap();
        let under_b = parse_pattern("a(//b(%/c{ret}))").unwrap();
        assert_eq!(
            contained(&under_a, &under_b, &s, &opts_plain()),
            Decision::NotContained
        );
    }

    #[test]
    fn one_to_one_relaxes_nesting_anchors() {
        // every a has exactly one b (one-to-one edge): nesting under a and
        // under b group identically (§4.5 relaxation).
        let d = Document::from_parens("a(b(c c))");
        let s = Summary::of(&d);
        assert!(s.is_one_to_one_edge(s.node_by_path("/a/b").unwrap()));
        let under_a = parse_pattern("a(%//c{ret})").unwrap();
        let under_b = parse_pattern("a(/b(%/c{ret}))").unwrap();
        assert_eq!(
            contained(&under_a, &under_b, &s, &opts()),
            Decision::Contained
        );
        assert_eq!(
            contained(&under_b, &under_a, &s, &opts()),
            Decision::Contained
        );
    }

    #[test]
    fn satisfiability_via_model() {
        let s = Summary::of(&Document::from_parens("a(b)"));
        assert!(is_satisfiable(
            &parse_pattern("a(/b{ret})").unwrap(),
            &s,
            &opts()
        ));
        assert!(!is_satisfiable(
            &parse_pattern("a(/z{ret})").unwrap(),
            &s,
            &opts()
        ));
    }

    #[test]
    fn wildcard_generalizes_label() {
        let s = Summary::of(&Document::from_parens("a(b c)"));
        let b = parse_pattern("a(/b{ret})").unwrap();
        let star = parse_pattern("a(/*{ret})").unwrap();
        assert_eq!(contained(&b, &star, &s, &opts_plain()), Decision::Contained);
        assert_eq!(
            contained(&star, &b, &s, &opts_plain()),
            Decision::NotContained
        );
        // but when the summary has only b children, * ≡ b (summary
        // reasoning beats syntax — the V1 example of §1)
        let s2 = Summary::of(&Document::from_parens("a(b)"));
        assert_eq!(
            contained(&star, &b, &s2, &opts_plain()),
            Decision::Contained
        );
    }

    #[test]
    fn implies_disjunction_engine() {
        let pa = NodeId(1);
        let pb = NodeId(2);
        let f = |pairs: &[(NodeId, Formula)]| -> HashMap<NodeId, Formula> {
            pairs.iter().cloned().collect()
        };
        let v3 = Formula::eq(Value::int(3));
        let gt1 = Formula::gt(Value::int(1));
        let lt5 = Formula::lt(Value::int(5));
        let ge5 = Formula::ge(Value::int(5));
        // v=3 ⇒ v>1
        assert!(implies_disjunction(
            &f(&[(pa, v3.clone())]),
            &[f(&[(pa, gt1.clone())])]
        ));
        // v>1 ⇏ v=3
        assert!(!implies_disjunction(
            &f(&[(pa, gt1.clone())]),
            &[f(&[(pa, v3.clone())])]
        ));
        // T ⇒ (v<5 ∨ v≥5)
        assert!(implies_disjunction(
            &f(&[]),
            &[f(&[(pa, lt5.clone())]), f(&[(pa, ge5)])]
        ));
        // multi-variable: (a=3 ∧ b>1) ⇒ (a=3) ∨ (b≤1)
        assert!(implies_disjunction(
            &f(&[(pa, v3.clone()), (pb, gt1.clone())]),
            &[f(&[(pa, v3)]), f(&[(pb, gt1.not())])]
        ));
        // (a>1) ⇏ (a<5): counter-model a=7
        assert!(!implies_disjunction(&f(&[(pa, gt1)]), &[f(&[(pa, lt5)])]));
    }
}
