//! Quickstart: parse XML, build the Dataguide, define a view, rewrite a
//! query, execute the plan, and compare with direct evaluation.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use smv::algebra::ViewProvider;
use smv::prelude::*;

fn main() {
    // 1. an XML document (the paper's Figure 1 flavor)
    let xml = r#"
      <site><regions><asia>
        <item id="0"><name>Columbus pen</name>
          <description><parlist><listitem>
            <keyword>Columbus</keyword>
          </listitem></parlist></description>
          <mailbox><mail><from>bill@example.org</from></mail></mailbox>
        </item>
        <item id="1"><name>Monteverdi pen</name>
          <description><parlist><listitem>
            <keyword>fountain</keyword>
          </listitem></parlist></description>
          <mailbox/>
        </item>
      </asia></regions></site>"#;
    let doc = parse_document(xml).expect("well-formed");
    println!("parsed {} nodes", doc.len());

    // 2. the strong Dataguide (structural summary)
    let summary = Summary::of(&doc);
    println!("summary: {}", SummaryStats::of(&summary));
    for n in summary.iter().take(8) {
        println!("  {}", summary.path_string(n));
    }

    // 3. a materialized view: every item with its name, storing ORDPATHs.
    //    The epoch catalog materializes it over the document; queries run
    //    on its published snapshot
    let v = View::new(
        "items_with_names",
        parse_pattern("site(//item{id}(/name{v}))").unwrap(),
        IdScheme::OrdPath,
    );
    let mut catalog = EpochCatalog::new(doc.clone(), IdScheme::OrdPath);
    catalog.add_view(v.clone(), RefreshPolicy::Eager);
    let snap = catalog.snapshot();
    println!(
        "\nview extent:\n{}",
        snap.extent("items_with_names").unwrap()
    );

    // 4. a query asking for item names — rewritable from the view
    let q = parse_pattern("site(//item{id}(/name{v}))").unwrap();
    let result = rewrite(&q, &[v], &summary, &RewriteOpts::default());
    println!(
        "found {} rewriting(s); first plan:\n{}",
        result.rewritings.len(),
        result.rewritings[0].plan
    );

    // 5. execute — sequentially and on a 2-thread worker pool — and
    //    cross-check against direct evaluation
    let plan = &result.rewritings[0].plan;
    let from_views = execute_with(plan, &*snap, &ExecOpts::with_threads(1)).unwrap();
    let parallel = execute_with(plan, &*snap, &ExecOpts::with_threads(2)).unwrap();
    let direct = materialize(&q, &doc, IdScheme::OrdPath);
    assert!(from_views.set_eq(&direct));
    assert_eq!(
        from_views.rows, parallel.rows,
        "parallel execution is result-identical"
    );
    println!(
        "plan output matches direct evaluation ({} rows; parallel run identical)",
        direct.len()
    );
}
