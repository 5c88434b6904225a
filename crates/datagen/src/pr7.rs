//! The `pr7` update workload: a deterministic, seeded stream of
//! insert / delete / modify batches over an XMark document — the churn
//! the epoch store's incremental view maintenance is measured against.
//! Shared by the maintenance property tests and `smvbench`'s update
//! workloads so both exercise the same update distribution.
//!
//! Each batch touches about `churn · |items|` of the document's `item`
//! elements, split 40% deletions (random surviving items), 40%
//! insertions (fresh item subtrees under random region elements) and 20%
//! modifications (delete an item + insert its replacement under the same
//! region — the paper-world analog of an in-place update, which the
//! [`smv_xml::LiveDoc`] model expresses as a kill plus a fresh-identity
//! graft).

use crate::xmark::{xmark, XmarkConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smv_pattern::parse_pattern;
use smv_views::View;
use smv_xml::{Document, IdScheme, Label, LiveDoc, TreeBuilder, UpdateBatch, Value};

/// The base XMark document of the workload.
pub fn pr7_document(scale: f64, seed: u64) -> Document {
    xmark(&XmarkConfig {
        scale,
        seed,
        ..XmarkConfig::default()
    })
}

/// The workload's views over the XMark item world. All four refresh
/// incrementally, anchored at `item`, `name` or `quantity`
/// ([`smv_views::RefreshClass`]); `maybe_named` carries an optional edge
/// below its anchor, so a batch also flips `⊥` cells, not only whole rows.
pub fn pr7_views(scheme: IdScheme) -> Vec<View> {
    [
        ("items", "site(//item{id}(/name{id,v}))"),
        ("names", "site(//name{id,v})"),
        ("quantities", "site(//quantity{id,v})"),
        ("maybe_named", "site(//item{id}(?/name{id,v}))"),
    ]
    .into_iter()
    .map(|(name, pat)| View::new(name, parse_pattern(pat).unwrap(), scheme))
    .collect()
}

/// A deterministic update-batch stream. Batches are generated against
/// the *current* live document (targets are sampled from the surviving
/// items), so the stream stays valid however many batches have been
/// applied — and two streams with the same seed over the same document
/// history produce identical batches.
pub struct Pr7Stream {
    rng: StdRng,
    uid: u64,
}

impl Pr7Stream {
    /// A stream with its own deterministic generator.
    pub fn new(seed: u64) -> Pr7Stream {
        Pr7Stream {
            rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            uid: 0,
        }
    }

    /// Builds the next batch over `live`, touching about `churn` of the
    /// document's items. Returns an empty batch only when the document
    /// has no items left to sample.
    pub fn next_batch(&mut self, live: &LiveDoc, churn: f64) -> UpdateBatch {
        let doc = live.doc();
        let items: Vec<_> = doc
            .iter()
            .filter(|&n| doc.label(n).as_str() == "item")
            .collect();
        let mut batch = UpdateBatch::new();
        if items.is_empty() {
            return batch;
        }
        let touch = ((churn * items.len() as f64).round() as usize).max(1);
        let deletes = touch * 2 / 5;
        let modifies = touch / 5;
        let inserts = touch - deletes - modifies;
        // sample (deletes + modifies) distinct victims via partial
        // Fisher-Yates over the item list
        let mut pool = items.clone();
        let victims = (deletes + modifies).min(pool.len());
        for i in 0..victims {
            let j = self.rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        // regions = the items' parents; always survive a batch (only
        // items are deleted), so they are valid insertion targets
        let mut regions: Vec<_> = items.iter().filter_map(|&n| doc.parent(n)).collect();
        regions.sort_unstable();
        regions.dedup();
        for (k, &victim) in pool[..victims].iter().enumerate() {
            batch.delete(live.ids().id(victim).clone());
            if k >= deletes {
                // a modify replaces the item under its own region
                let region = doc.parent(victim).expect("items hang off regions");
                batch.insert(live.ids().id(region).clone(), self.fresh_item());
            }
        }
        for _ in 0..inserts {
            let region = regions[self.rng.random_range(0..regions.len())];
            batch.insert(live.ids().id(region).clone(), self.fresh_item());
        }
        batch
    }

    /// A fresh XMark-shaped item subtree with workload-unique values.
    fn fresh_item(&mut self) -> Document {
        let uid = self.uid;
        self.uid += 1;
        let l = Label::intern;
        let mut b = TreeBuilder::new();
        b.open(l("item"));
        b.leaf(l("@id"), Some(Value::str(&format!("uitem{uid}"))));
        b.leaf(l("name"), Some(Value::str(&format!("fresh{uid}"))));
        b.leaf(
            l("quantity"),
            Some(Value::int(self.rng.random_range(1..10))),
        );
        b.open(l("description"));
        b.leaf(l("text"), Some(Value::str(&format!("restocked {uid}"))));
        b.close();
        b.close();
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_items(live: &LiveDoc) -> usize {
        live.doc()
            .iter()
            .filter(|&n| live.doc().label(n).as_str() == "item")
            .count()
    }

    #[test]
    fn streams_are_deterministic_and_apply_cleanly() {
        let mk = || LiveDoc::new(pr7_document(0.05, 7), IdScheme::OrdPath);
        let (mut a, mut b) = (mk(), mk());
        let (mut sa, mut sb) = (Pr7Stream::new(11), Pr7Stream::new(11));
        for _ in 0..4 {
            let (ba, bb) = (sa.next_batch(&a, 0.2), sb.next_batch(&b, 0.2));
            assert_eq!(ba.len(), bb.len());
            a.apply(&ba).expect("stream batches always apply");
            b.apply(&bb).expect("stream batches always apply");
            assert_eq!(a.doc().len(), b.doc().len(), "identical evolution");
        }
        let mut other = mk();
        let mut so = Pr7Stream::new(12);
        let bo = so.next_batch(&other, 0.2);
        other.apply(&bo).unwrap();
        // different seeds diverge (fresh values carry distinct uids, and
        // targets differ with overwhelming probability)
        assert_ne!(
            (a.doc().len(), count_items(&a)),
            (other.doc().len(), count_items(&other) + 999),
            "sanity"
        );
    }

    #[test]
    fn churn_scales_the_touched_fraction() {
        let mut live = LiveDoc::new(pr7_document(0.1, 3), IdScheme::Dewey);
        let items = count_items(&live);
        assert!(items >= 10);
        let mut s = Pr7Stream::new(5);
        let small = s.next_batch(&live, 0.01);
        let big = s.next_batch(&live, 0.5);
        assert!(small.len() <= big.len());
        assert!(big.len() >= items / 4, "50% churn touches many items");
        live.apply(&big).expect("big batch applies");
        assert!(count_items(&live) > 0, "deletes never empty the document");
    }
}
