//! Shared by the integration tests. Each test crate compiles its own copy
//! of this module and uses a subset of it.

use proptest::prelude::*;
use smv::prelude::*;

/// `views` materialized over `doc` in the first view's ID scheme: the
/// epoch snapshot plans execute against.
#[allow(dead_code, reason = "not every test crate materializes views")]
pub fn materialized(doc: &Document, views: &[View]) -> CatalogEpoch {
    let scheme = views.first().map_or(IdScheme::OrdPath, |v| v.scheme);
    let mut catalog = EpochCatalog::new(doc.clone(), scheme);
    for v in views {
        catalog.add_view(v.clone(), RefreshPolicy::Eager);
    }
    CatalogEpoch::clone(&catalog.snapshot())
}

/// Small random labeled trees in parenthesized notation: up to three
/// levels over a 4-label alphabet under a root `r`, with optional small
/// values.
#[allow(dead_code, reason = "not every test crate draws random trees")]
pub fn tree_strategy() -> impl Strategy<Value = String> {
    let leaf = (0u8..4, proptest::option::of(0i64..5)).prop_map(|(l, v)| match v {
        Some(v) => format!("{}=\"{v}\"", (b'a' + l) as char),
        None => format!("{}", (b'a' + l) as char),
    });
    leaf.prop_recursive(3, 24, 3, |inner| {
        (0u8..4, proptest::collection::vec(inner, 1..4))
            .prop_map(|(l, kids)| format!("{}({})", (b'a' + l) as char, kids.join(" ")))
    })
    .prop_map(|body| format!("r({body})"))
}
