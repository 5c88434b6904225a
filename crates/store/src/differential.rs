//! Differential provider matrix: one query, every provider, identical
//! answers — the harness the storage engine is proven against.
//!
//! [`ProviderMatrix`] materializes one set of views over one document and
//! exposes them through four provider arms:
//!
//! * `map` — a plain [`MapProvider`] holding the normalized extents;
//! * `epoch` — a [`CatalogEpoch`], the in-memory catalog's published
//!   snapshot, serving its `Arc`-shared extents;
//! * `disk-cold` — a [`DiskCatalog`] reopened fresh for every check, so
//!   each read misses the buffer pool and a `Project` over a `Scan`
//!   decodes only the columns it keeps;
//! * `disk-warm` — one long-lived [`DiskCatalog`] whose pages and decoded
//!   extents stay resident across checks, so every scan borrows.
//!
//! [`ProviderMatrix::check`] executes a plan against every arm at every
//! requested thread count and asserts byte-identical result rows, schema,
//! `sorted_on` and per-operator [`ExecProfile`] row counters. Any
//! divergence panics with the arm, thread count, and the first differing
//! piece — which makes it usable from any `#[test]`.

use crate::disk::{DiskCatalog, DiskStore, StoreOptions};
use crate::io::SimVfs;
use smv_algebra::{
    execute_profiled_with, ExecOpts, ExecProfile, MapProvider, NestedRelation, Plan, ViewProvider,
};
use smv_summary::Summary;
use smv_views::{CatalogEpoch, EpochCatalog, RefreshPolicy, View, ViewStore};
use smv_xml::{Document, IdScheme};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The four-arm differential harness; see the module docs.
pub struct ProviderMatrix {
    map: MapProvider,
    epoch: Arc<CatalogEpoch>,
    store: DiskStore,
    warm: DiskCatalog,
}

impl ProviderMatrix {
    /// Materializes `views` over `doc` with `scheme` ids and builds all
    /// four arms. The disk arms live on a [`SimVfs`] with a deliberately
    /// tiny buffer pool, so segment reads exercise eviction even in small
    /// tests.
    pub fn new(doc: &Document, scheme: IdScheme, patterns: &[(&str, &str)]) -> ProviderMatrix {
        let views: Vec<View> = patterns
            .iter()
            .map(|(name, p)| {
                let pat = smv_pattern::parse_pattern(p)
                    .unwrap_or_else(|e| panic!("bad pattern for view '{name}': {e}"));
                View::new(name, pat, scheme)
            })
            .collect();
        ProviderMatrix::from_views(doc, views)
    }

    /// [`ProviderMatrix::new`] over already-built views, which share one
    /// ID scheme.
    pub fn from_views(doc: &Document, views: Vec<View>) -> ProviderMatrix {
        let scheme = views.first().map_or(IdScheme::OrdPath, |v| v.scheme);
        let mut catalog = EpochCatalog::new(doc.clone(), scheme);
        for v in views {
            catalog.add_view(v, RefreshPolicy::Eager);
        }
        let epoch = catalog.snapshot();
        let mut map = MapProvider::default();
        for v in epoch.views() {
            let extent = epoch
                .extent(&v.name)
                .expect("the epoch materialized the view")
                .clone();
            map.insert(&v.name, extent);
        }
        let store = DiskStore::with_options(
            Arc::new(SimVfs::new()),
            StoreOptions {
                page_size: 256,
                pool_pages: 4,
            },
        );
        store
            .publish_epoch(&epoch, None)
            .expect("publish to SimVfs");
        let warm = store.open().expect("reopen published epoch");
        warm.warm().expect("decode all extents");
        ProviderMatrix {
            map,
            epoch,
            store,
            warm,
        }
    }

    /// The summary snapshot the epoch arm was published with.
    pub fn summary(&self) -> &Summary {
        self.epoch.summary()
    }

    /// The warm disk arm.
    pub fn disk(&self) -> &DiskCatalog {
        &self.warm
    }

    /// Executes `plan` on every arm × every thread count and asserts all
    /// answers identical; returns the baseline result and profile (map
    /// arm, first thread count).
    pub fn check(&self, plan: &Plan, threads: &[usize]) -> (NestedRelation, ExecProfile) {
        let t0 = *threads.first().expect("at least one thread count");
        let (base_rel, base_prof) =
            execute_profiled_with(plan, &self.map, &ExecOpts::with_threads(t0))
                .expect("baseline execution");
        let base_rows = profile_rows(&base_prof);
        for &t in threads {
            let cold = self.store.open().expect("reopen for cold arm");
            let arms: [(&str, &dyn ViewProvider); 4] = [
                ("map", &self.map),
                ("epoch", &*self.epoch),
                ("disk-cold", &cold),
                ("disk-warm", &self.warm),
            ];
            for (arm, provider) in arms {
                let (rel, prof) = execute_profiled_with(plan, provider, &ExecOpts::with_threads(t))
                    .unwrap_or_else(|e| panic!("arm {arm} (threads={t}) failed: {e}"));
                assert_eq!(
                    rel.schema, base_rel.schema,
                    "arm {arm} (threads={t}): schema diverged"
                );
                assert_eq!(
                    rel.sorted_on, base_rel.sorted_on,
                    "arm {arm} (threads={t}): sort marker diverged"
                );
                assert_eq!(
                    rel.rows.len(),
                    base_rel.rows.len(),
                    "arm {arm} (threads={t}): row count diverged"
                );
                for (i, (got, want)) in rel.rows.iter().zip(&base_rel.rows).enumerate() {
                    assert_eq!(got, want, "arm {arm} (threads={t}): row {i} diverged");
                }
                assert_eq!(
                    profile_rows(&prof),
                    base_rows,
                    "arm {arm} (threads={t}): profile row counters diverged"
                );
            }
        }
        (base_rel, base_prof)
    }

    /// All registered views, for building plans against the matrix.
    pub fn views(&self) -> &[View] {
        self.epoch.views()
    }
}

/// An order-stable copy of the profile's per-operator row counters.
fn profile_rows(p: &ExecProfile) -> BTreeMap<String, u64> {
    p.iter().map(|(k, v)| (k.to_string(), v)).collect()
}
