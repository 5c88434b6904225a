//! FLWR → extended tree pattern translation (the paper's §1 motivation).
//!
//! Rules:
//! * the outer `doc(...)` binding anchors the pattern at a `*` root
//!   (the document root's label is unknown until a summary is available);
//! * each for-binding's final step becomes a node storing `ID` (the
//!   binding's identity) — required for the binding to produce rows;
//! * `[...]` and `where` predicates become required branches, with value
//!   formulas on their final nodes;
//! * returned path expressions become **optional** branches (`⊥` when
//!   missing, like the paper's `V1`): `.../text()` stores `V`, an
//!   element-valued return stores `C`;
//! * a nested FLWR becomes a **nested + optional** edge on its binding
//!   node, with its own returns below (the `n`-edge of Fig. 1).
//!
//! A pattern deeper than [`MAX_NESTING`] levels is refused, the bound
//! `parse_pattern` keeps: everything that later walks a pattern recurses
//! once per level, and a long `/a/a/…` path is one level per step.

use crate::parser::{Flwr, Predicate, RetExpr, Step};
use smv_pattern::parser::MAX_NESTING;
use smv_pattern::{PNodeId, Pattern};
use smv_xml::Label;
use std::collections::HashMap;

/// Translates a parsed FLWR into a single extended tree pattern.
///
/// Returns an error message for queries outside the supported subset
/// (e.g. a nested `for` over `doc(...)`, an unknown variable, or a
/// pattern deeper than [`MAX_NESTING`] levels).
pub fn translate(q: &Flwr) -> Result<Pattern, String> {
    let mut p = Pattern::new(None); // `*` root for the document root
    let mut scope: HashMap<String, PNodeId> = HashMap::new();
    add_flwr(&mut p, q, PNodeId::ROOT, &mut scope, false)?;
    Ok(p)
}

fn add_flwr(
    p: &mut Pattern,
    q: &Flwr,
    doc_root: PNodeId,
    scope: &mut HashMap<String, PNodeId>,
    nested: bool,
) -> Result<(), String> {
    let anchor = match &q.source_var {
        None => doc_root,
        Some(v) => *scope
            .get(v)
            .ok_or_else(|| format!("unbound variable ${v}"))?,
    };
    // binding chain
    let mut cur = anchor;
    for (i, step) in q.path.iter().enumerate() {
        let first = i == 0;
        cur = add_step(p, cur, step)?;
        if first && nested {
            let nd = p.node_mut(cur);
            nd.nested = true;
            nd.optional = true;
        }
    }
    p.node_mut(cur).attrs.id = true;
    scope.insert(q.var.clone(), cur);
    if let Some(w) = &q.where_pred {
        add_predicate(p, cur, w)?;
    }
    for r in &q.returns {
        match r {
            RetExpr::Path { var, path } => {
                let base = *scope
                    .get(var)
                    .ok_or_else(|| format!("unbound variable ${var}"))?;
                let mut node = base;
                for (i, step) in path.steps.iter().enumerate() {
                    node = add_step(p, node, step)?;
                    if i == 0 {
                        p.node_mut(node).optional = true;
                    }
                }
                let nd = p.node_mut(node);
                if path.text {
                    nd.attrs.value = true;
                } else {
                    nd.attrs.content = true;
                }
            }
            RetExpr::Nested(inner) => {
                if inner.source_var.is_none() {
                    return Err("nested for over doc(...) is outside the subset".into());
                }
                add_flwr(p, inner, doc_root, scope, true)?;
            }
        }
    }
    Ok(())
}

fn add_step(p: &mut Pattern, under: PNodeId, step: &Step) -> Result<PNodeId, String> {
    // `under`'s depth: the walk is at most MAX_NESTING long
    if std::iter::successors(p.parent(under), |&n| p.parent(n)).count() >= MAX_NESTING {
        return Err(format!("a pattern deeper than {MAX_NESTING} levels"));
    }
    let label = step.label.as_deref().map(Label::intern);
    let n = p.add_child(under, step.axis, label);
    for pred in &step.predicates {
        add_predicate(p, n, pred)?;
    }
    Ok(n)
}

fn add_predicate(p: &mut Pattern, under: PNodeId, pred: &Predicate) -> Result<(), String> {
    let mut cur = under;
    for step in &pred.path {
        cur = add_step(p, cur, step)?;
    }
    if let Some(f) = &pred.formula {
        if cur == under {
            return Err("a value comparison needs a path".into());
        }
        let nd = p.node_mut(cur);
        nd.predicate = nd.predicate.and(f);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_xquery;
    use smv_pattern::evaluate;
    use smv_xml::Document;

    #[test]
    fn translates_the_papers_example() {
        let q = parse_xquery(
            r#"for $x in doc("XMark.xml")//item[//mail] return
               <res>{ $x/name/text(),
                      for $y in $x//listitem return <key>{ $y//keyword }</key> }</res>"#,
        )
        .unwrap();
        let p = translate(&q).unwrap();
        // shape: *(//item{id}(//mail, ?/name{v}, ?%//listitem{id}(?//keyword{c})))
        assert_eq!(
            p.to_string(),
            "*(//item{id}(//mail, ?/name{v}, ?%//listitem{id}(?//keyword{c})))"
        );
    }

    #[test]
    fn translated_pattern_evaluates_like_the_query_means() {
        // item with mail and a listitem-with-keyword; item with mail but
        // no listitem (still output, per the query's semantics); item
        // without mail (not output).
        let doc = Document::from_parens(
            r#"site(item(mail name="p1" listitem(keyword="k")) item(mail name="p2") item(name="p3"))"#,
        );
        let q = parse_xquery(
            r#"for $x in doc("d")//item[/mail] return
               <res>{ $x/name/text(),
                      for $y in $x/listitem return <key>{ $y/keyword }</key> }</res>"#,
        )
        .unwrap();
        let p = translate(&q).unwrap();
        let tuples = evaluate(&p, &doc);
        // returns: item.id, name.v, listitem.id, keyword.c → arity 4
        assert_eq!(p.arity(), 4);
        // two items qualify (those with mail)
        let items: std::collections::HashSet<_> = tuples.iter().map(|t| t[0]).collect();
        assert_eq!(items.len(), 2);
        // the mail-less item is absent
        assert!(tuples.iter().all(|t| t[0].is_some()));
        // p2 has no listitem: ⊥ there
        assert!(tuples.iter().any(|t| t[2].is_none()));
    }

    #[test]
    fn where_clause_becomes_required_decorated_branch() {
        let q = parse_xquery(
            r#"for $a in doc("d")//open_auction where $a/initial > 100 return $a/reserve/text()"#,
        )
        .unwrap();
        let p = translate(&q).unwrap();
        assert_eq!(
            p.to_string(),
            "*(//open_auction{id}(/initial[v>100], ?/reserve{v}))"
        );
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let q = parse_xquery(r#"for $x in doc("d")//a return $zz/b/text()"#).unwrap();
        assert!(translate(&q).is_err());
    }

    #[test]
    fn patterns_deeper_than_the_parser_bound_are_refused() {
        let chain = |steps: usize| {
            format!(
                r#"for $x in doc("d"){} return $x/text()"#,
                "/a".repeat(steps)
            )
        };
        let p = translate(&parse_xquery(&chain(MAX_NESTING)).unwrap()).unwrap();
        assert!(
            smv_pattern::parse_pattern(&p.to_string()).is_ok(),
            "as deep as parse_pattern takes"
        );
        assert!(translate(&parse_xquery(&chain(MAX_NESTING + 1)).unwrap()).is_err());
        // a chain that parses without recursing
        assert!(translate(&parse_xquery(&chain(100_000)).unwrap()).is_err());
        // one level too many through a return path
        let ret = format!(
            r#"for $x in doc("d"){} return $x/b/text()"#,
            "/a".repeat(MAX_NESTING)
        );
        assert!(translate(&parse_xquery(&ret).unwrap()).is_err());
    }

    #[test]
    fn element_return_stores_content() {
        let q = parse_xquery(r#"for $x in doc("d")//item return $x/description"#).unwrap();
        let p = translate(&q).unwrap();
        assert_eq!(p.to_string(), "*(//item{id}(?/description{c}))");
    }
}
