//! View definitions and the read surface cardinality estimation needs.

use crate::materialize::schema_of;
use smv_algebra::Schema;
use smv_pattern::Pattern;
use smv_xml::IdScheme;
use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};

/// A view definition: a named extended tree pattern with an ID scheme.
///
/// A definition is immutable once built: state derived from it is cached
/// on it and shared by its clones ([`View::derived`]), so a different
/// name, pattern or scheme is a different `View::new`.
#[derive(Clone, Debug)]
pub struct View {
    /// Catalog name.
    pub name: String,
    /// The defining pattern.
    pub pattern: Pattern,
    /// The identifier scheme stored in `ID` columns.
    pub scheme: IdScheme,
    derived: DerivedCell,
}

/// The one value [`View::derived`] keeps per definition. The slot always
/// holds a whole value, so a poisoned lock is recovered, not propagated.
#[derive(Clone, Default)]
struct DerivedCell(Arc<Mutex<Option<Arc<dyn Any + Send + Sync>>>>);

impl std::fmt::Debug for DerivedCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("DerivedCell")
    }
}

impl View {
    /// Creates a view definition.
    pub fn new(name: &str, pattern: Pattern, scheme: IdScheme) -> View {
        View {
            name: name.to_owned(),
            pattern,
            scheme,
            derived: DerivedCell::default(),
        }
    }

    /// State derived from this definition, built at most once for as long
    /// as `valid` accepts it: returns the cached `T` when there is one and
    /// `valid` holds, otherwise runs `build`, replaces whatever was cached
    /// and returns the new value — with `true` when it was built by this
    /// call. The cache is one slot shared by every clone of the definition
    /// (an epoch's `Vec<View>`, an advisor's candidate sets), and `build`
    /// runs under its lock, so concurrent callers build once.
    ///
    /// The rewriter keeps its query-independent preparation here, with
    /// `valid` comparing the summary-constraints stamp it was built under.
    pub fn derived<T: Any + Send + Sync>(
        &self,
        valid: impl FnOnce(&T) -> bool,
        build: impl FnOnce() -> T,
    ) -> (Arc<T>, bool) {
        let mut slot = self
            .derived
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(cached) = slot.clone().and_then(|a| a.downcast::<T>().ok()) {
            if valid(&cached) {
                return (cached, false);
            }
        }
        let fresh = Arc::new(build());
        *slot = Some(Arc::clone(&fresh) as Arc<dyn Any + Send + Sync>);
        (fresh, true)
    }

    /// The relational schema of the view.
    pub fn schema(&self) -> Schema {
        schema_of(&self.pattern)
    }
}

/// Read access to view definitions and extent sizes — the surface
/// cardinality estimation needs, implemented by the per-epoch snapshots
/// of [`crate::epoch`].
pub trait ViewStore {
    /// All view definitions, in registration order.
    fn views(&self) -> &[View];

    /// Definition lookup by name.
    fn view(&self, name: &str) -> Option<&View> {
        self.views().iter().find(|v| v.name == name)
    }

    /// Row count of a materialized extent.
    fn extent_rows(&self, name: &str) -> Option<usize>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{EpochCatalog, RefreshPolicy};
    use smv_algebra::{execute_with, ExecOpts, Plan, StructRel, ViewProvider};
    use smv_pattern::{canonical_form, parse_pattern};
    use smv_xml::Document;

    const SCHEME: IdScheme = IdScheme::OrdPath;

    fn view(name: &str, pattern: &str) -> View {
        View::new(name, parse_pattern(pattern).unwrap(), SCHEME)
    }

    #[test]
    fn derived_state_is_one_slot_shared_by_clones() {
        let v = View::new("v", parse_pattern("a(/b{id})").unwrap(), IdScheme::OrdPath);
        let (first, built) = v.derived(|_: &u32| true, || 7u32);
        assert!(built && *first == 7);
        let copy = v.clone();
        let (again, built) = copy.derived(|x: &u32| *x == 7, || unreachable!());
        assert!(!built && Arc::ptr_eq(&first, &again), "clones share it");
        // rejected: rebuilt and replaced, for every clone
        let (next, built) = copy.derived(|x: &u32| *x == 8, || 8u32);
        assert!(built && *next == 8);
        assert_eq!(*v.derived(|_: &u32| true, || unreachable!()).0, 8);
        // another type takes the slot over
        let (text, built) = v.derived(|_: &&str| true, || "x");
        assert!(built && *text == "x");
        assert!(copy.derived(|_: &u32| true, || 9u32).1);
        // a new definition starts empty
        let other = View::new(&v.name, v.pattern.clone(), v.scheme);
        assert!(other.derived(|_: &u32| true, || 1u32).1);
    }

    #[test]
    fn re_registering_a_view_replaces_its_definition_everywhere() {
        let pool = smv_xml::par::WorkerPool::new(2);
        let new = || view("v", "a(//k{id,v}[v<=2])");
        let plan = Plan::StructJoin {
            left: Box::new(Plan::Scan { view: "p".into() }),
            right: Box::new(Plan::Scan { view: "v".into() }),
            lcol: 0,
            rcol: 0,
            rel: StructRel::Parent,
        };
        type Register<'a> = &'a dyn Fn(&mut EpochCatalog, View);
        let register: [Register; 3] = [
            &|ec, v| ec.add_view(v, RefreshPolicy::Eager),
            &|ec, v| ec.add_views_on(vec![v], RefreshPolicy::Eager, &pool),
            &|ec, v| {
                ec.add_view(v, RefreshPolicy::Deferred);
                assert!(ec.snapshot().extent("v").is_err(), "stale: nothing served");
                assert!(ec.refresh("v"));
            },
        ];
        for reg in register {
            let mut ec = EpochCatalog::new(
                Document::from_parens(r#"a(p(k="1") p(k="2") p(k="3"))"#),
                SCHEME,
            );
            ec.add_view(view("p", "a(//p{id})"), RefreshPolicy::Eager);
            ec.add_view(view("v", "a(//k{id})"), RefreshPolicy::Eager);
            assert_eq!(ec.snapshot().extent_rows("v"), Some(3));
            reg(&mut ec, new());
            let snap = ec.snapshot();
            assert_eq!(snap.views().len(), 2, "no duplicate definition entries");
            let v = snap.view("v").expect("still registered");
            assert_eq!(
                canonical_form(&v.pattern),
                canonical_form(&new().pattern),
                "lookup resolves to the new definition, not the stale one"
            );
            assert_eq!(snap.extent("v").unwrap().schema, new().schema());
            assert_eq!(snap.extent_rows("v"), Some(2), "extent is the new one");
            let out = execute_with(&plan, &*snap, &ExecOpts::default()).unwrap();
            assert_eq!(out.len(), 2, "the replaced extent is the one joined");
        }
    }
}
