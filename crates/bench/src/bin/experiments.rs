//! Regenerates the tables and figures of the paper's §5 and prints them
//! in the paper's layout.
//!
//! ```text
//! experiments [table1|fig13|fig14|fig15|all] [--scale <f>]
//! ```
//!
//! `--scale` sizes Table 1's documents; `table1 --scale 0.1` is
//! deterministic, and CI diffs it against `tests/golden/table1_scale0.1.txt`.
//! The system's own benchmark — the whole stack under fixed workloads,
//! layer by layer — is `smvbench` (see `smvbench/README.md`).

use smv_bench::*;
use smv_datagen::{dblp, xmark, DblpSnapshot, XmarkConfig};
use smv_summary::{Summary, SummaryStats};
use smv_xml::serialize_document;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale: f64 = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    match which {
        "table1" => table1(scale),
        "fig13" => fig13(),
        "fig14" => fig14(),
        "fig15" => fig15(),
        "all" => {
            table1(scale);
            fig13();
            fig14();
            fig15();
        }
        other => {
            eprintln!("unknown experiment `{other}`; use table1|fig13|fig14|fig15|all");
            std::process::exit(2);
        }
    }
}

/// Table 1: documents and their summaries.
fn table1(scale: f64) {
    println!("== Table 1: sample XML documents and their summaries ==");
    println!(
        "{:<14} {:>9} {:>8} {:>6} {:>8} {:>7}",
        "Doc.", "Size", "|S|", "nS", "(n1)", "depth"
    );
    let row = |name: &str, doc: &smv_xml::Document| {
        let s = Summary::of(doc);
        let st = SummaryStats::of(&s);
        let bytes = serialize_document(doc).len();
        println!(
            "{:<14} {:>7.2}MB {:>8} {:>6} {:>7} {:>7}",
            name,
            bytes as f64 / 1e6,
            st.nodes,
            st.strong_edges,
            format!("({})", st.one_to_one_edges),
            st.max_depth
        );
    };
    row(
        "Shakespeare",
        &smv_datagen::corpora::shakespeare((40.0 * scale) as usize + 1, 1),
    );
    row(
        "Nasa",
        &smv_datagen::corpora::nasa((2000.0 * scale) as usize + 1, 2),
    );
    row(
        "SwissProt",
        &smv_datagen::corpora::swissprot((4000.0 * scale) as usize + 1, 3),
    );
    for (name, sc) in [("XMark11", 0.5), ("XMark111", 2.0), ("XMark233", 4.0)] {
        row(
            name,
            &xmark(&XmarkConfig {
                scale: sc * scale,
                ..Default::default()
            }),
        );
    }
    row(
        "DBLP '02",
        &dblp(DblpSnapshot::Y2002, (8000.0 * scale) as usize + 1, 4),
    );
    row(
        "DBLP '05",
        &dblp(DblpSnapshot::Y2005, (12000.0 * scale) as usize + 1, 5),
    );
    println!();
}

/// Figure 13: XMark pattern containment.
fn fig13() {
    println!("== Figure 13 (top): XMark query patterns — |mod_S(p)| and self-containment ==");
    let s = xmark_summary();
    println!("(XMark summary: {} nodes)", s.len());
    println!("{:<6} {:>10} {:>14}", "query", "|mod_S|", "contain time");
    for (q, size, t) in fig13_xmark_queries(&s) {
        println!("Q{q:<5} {size:>10} {:>11.3}ms", t.as_secs_f64() * 1e3);
    }
    println!();
    println!("== Figure 13 (bottom): synthetic containment on the XMark summary ==");
    println!(
        "{:<4} {:<3} {:>12} {:>6} {:>12} {:>6}",
        "n", "r", "positive", "#", "negative", "#"
    );
    for r in 1..=3usize {
        for n in (3..=13usize).step_by(2) {
            let pt =
                synthetic_containment(&s, n, r, 12, 0.5, &["item", "name", "initial"], n as u64);
            println!(
                "{:<4} {:<3} {:>9.3}ms {:>6} {:>9.3}ms {:>6}",
                pt.nodes,
                pt.returns,
                pt.positive.as_secs_f64() * 1e3,
                pt.n_positive,
                pt.negative.as_secs_f64() * 1e3,
                pt.n_negative
            );
        }
    }
    println!();
}

/// Figure 14: DBLP containment + the optional-edge ablation.
fn fig14() {
    println!("== Figure 14: synthetic containment on the DBLP'05 summary ==");
    let s = dblp_summary();
    println!("(DBLP summary: {} nodes)", s.len());
    println!(
        "{:<4} {:<3} {:>12} {:>6} {:>12} {:>6}",
        "n", "r", "positive", "#", "negative", "#"
    );
    for r in 1..=3usize {
        for n in (3..=13usize).step_by(2) {
            let pt =
                synthetic_containment(&s, n, r, 12, 0.5, &["author", "title", "year"], n as u64);
            println!(
                "{:<4} {:<3} {:>9.3}ms {:>6} {:>9.3}ms {:>6}",
                pt.nodes,
                pt.returns,
                pt.positive.as_secs_f64() * 1e3,
                pt.n_positive,
                pt.negative.as_secs_f64() * 1e3,
                pt.n_negative
            );
        }
    }
    println!();
    println!("-- optional-edge ablation (n=9, r=1): 0% vs 50% optional --");
    for p_opt in [0.0, 0.5] {
        let pt = synthetic_containment(&s, 9, 1, 12, p_opt, &["author"], 99);
        println!(
            "p_opt={p_opt:>3}: positive {:>9.3}ms ({}), negative {:>9.3}ms ({})",
            pt.positive.as_secs_f64() * 1e3,
            pt.n_positive,
            pt.negative.as_secs_f64() * 1e3,
            pt.n_negative
        );
    }
    println!();
}

/// Figure 15: XMark query rewriting over the §5 view set.
fn fig15() {
    println!("== Figure 15: XMark query rewriting ==");
    let s = xmark_summary();
    let views = fig15_views(&s, 40);
    println!("(view set: {} views)", views.len());
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>11} {:>6}",
        "query", "setup", "first", "total", "kept/total", "#rw"
    );
    let rows = fig15_rewriting(&s, &views);
    let mut kept_sum = 0.0;
    for p in &rows {
        println!(
            "Q{:<5} {:>7.2}ms {:>9}ms {:>9.2}ms {:>11} {:>6}",
            p.query,
            p.setup.as_secs_f64() * 1e3,
            p.first
                .map(|d| format!("{:.2}", d.as_secs_f64() * 1e3))
                .unwrap_or_else(|| "-".into()),
            p.total.as_secs_f64() * 1e3,
            format!("{}/{}", p.views_kept, p.views_total),
            p.rewritings
        );
        kept_sum += p.views_kept as f64 / p.views_total as f64;
    }
    println!(
        "average views kept after Prop 3.4 pruning: {:.0}%",
        100.0 * kept_sum / rows.len() as f64
    );
    println!();
}
