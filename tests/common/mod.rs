//! Shared by the integration tests.

use smv::prelude::*;

/// `views` materialized over `doc` in the first view's ID scheme: the
/// epoch snapshot plans execute against.
pub fn materialized(doc: &Document, views: &[View]) -> CatalogEpoch {
    let scheme = views.first().map_or(IdScheme::OrdPath, |v| v.scheme);
    let mut catalog = EpochCatalog::new(doc.clone(), scheme);
    for v in views {
        catalog.add_view(v.clone(), RefreshPolicy::Eager);
    }
    CatalogEpoch::clone(&catalog.snapshot())
}
