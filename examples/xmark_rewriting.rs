//! The paper's headline scenario at benchmark scale: rewrite XMark query
//! patterns over the §5 view set (2-node seed views + random 3-node
//! views) under the XMark Dataguide, and execute one rewriting.
//!
//! ```sh
//! cargo run --release --example xmark_rewriting
//! ```

use smv::datagen::{random_views, seed_views, ViewGenConfig};
use smv::prelude::*;

fn main() {
    let doc = xmark(&XmarkConfig::default());
    let summary = Summary::of(&doc);
    println!(
        "XMark document: {} nodes, summary: {}",
        doc.len(),
        SummaryStats::of(&summary)
    );

    // the §5 view set
    let mut views = seed_views(&summary, IdScheme::OrdPath);
    views.extend(random_views(
        &summary,
        &ViewGenConfig {
            count: 40,
            ..Default::default()
        },
    ));
    println!("{} views in the set", views.len());

    let queries = xmark_query_patterns();
    // the Figure 15 budget: bounded search keeps every query interactive
    let opts = RewriteOpts {
        max_scans: 2,
        max_pairs: 300,
        max_rewritings: 2,
        enable_content_navigation: false,
        ..Default::default()
    };
    let mut found = 0;
    for (i, q) in queries.iter().enumerate() {
        let r = rewrite(q, &views, &summary, &opts);
        println!(
            "Q{:<2} kept {:>3}/{:<3} views, {} rewriting(s), total {:?}",
            i + 1,
            r.stats.views_kept,
            r.stats.views_total,
            r.rewritings.len(),
            r.stats.total
        );
        found += usize::from(!r.rewritings.is_empty());
    }
    println!("\n{found}/20 queries rewritable over this view set");

    // execute one rewriting end to end
    let q = &queries[0];
    let r = rewrite(q, &views, &summary, &opts);
    if let Some(rw) = r.rewritings.first() {
        let mut catalog = EpochCatalog::new(doc.clone(), IdScheme::OrdPath);
        // materialize the views on every core, then execute on this thread
        catalog.add_views_on(views.clone(), RefreshPolicy::Eager, &WorkerPool::new(0));
        let out = execute_with(&rw.plan, &*catalog.snapshot(), &ExecOpts::default()).unwrap();
        let direct = materialize(q, &doc, IdScheme::OrdPath);
        assert!(out.set_eq(&direct));
        println!(
            "Q1 executed from views: {} rows, identical to direct evaluation",
            out.len()
        );
    }
}
