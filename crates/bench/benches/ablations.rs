//! Ablation benches, one per design choice the code keeps both sides of:
//!
//! * **A** — stack-tree structural join vs the naive nested loop;
//! * **B** — enhanced (strong-edge) vs plain canonical models;
//! * **C** — ORDPATH vs Dewey ID assignment cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smv_algebra::{nested_loop_join, stack_tree_join, StructRel};
use smv_bench::xmark_summary;
use smv_datagen::{xmark, XmarkConfig};
use smv_pattern::{canonical_model, parse_pattern, CanonOpts};
use smv_xml::{IdAssignment, IdScheme, StructId};
use std::hint::black_box;

fn bench_struct_join(c: &mut Criterion) {
    let doc = xmark(&XmarkConfig {
        scale: 0.3,
        ..Default::default()
    });
    let ids = IdAssignment::assign(&doc, IdScheme::OrdPath);
    let items: Vec<StructId> = doc
        .iter()
        .filter(|&n| doc.label(n).as_str() == "item")
        .map(|n| ids.id(n).clone())
        .collect();
    let keywords: Vec<StructId> = doc
        .iter()
        .filter(|&n| doc.label(n).as_str() == "keyword")
        .map(|n| ids.id(n).clone())
        .collect();
    let mut g = c.benchmark_group("ablation_structjoin");
    g.sample_size(10);
    g.bench_function(BenchmarkId::new("stack_tree", items.len()), |b| {
        b.iter(|| {
            stack_tree_join(black_box(&items), black_box(&keywords), StructRel::Ancestor).len()
        })
    });
    g.bench_function(BenchmarkId::new("nested_loop", items.len()), |b| {
        b.iter(|| {
            nested_loop_join(black_box(&items), black_box(&keywords), StructRel::Ancestor).len()
        })
    });
    g.finish();
}

fn bench_canonical(c: &mut Criterion) {
    let s = xmark_summary();
    let p = parse_pattern("site(//item{id}(/description(//keyword{v}), ?//mail))").unwrap();
    let mut g = c.benchmark_group("ablation_canonical");
    g.sample_size(10);
    g.bench_function("plain", |b| {
        b.iter(|| {
            canonical_model(
                &p,
                &s,
                &CanonOpts {
                    use_strong: false,
                    max_trees: 500_000,
                },
            )
            .size()
        })
    });
    g.bench_function("enhanced", |b| {
        b.iter(|| {
            canonical_model(
                &p,
                &s,
                &CanonOpts {
                    use_strong: true,
                    max_trees: 500_000,
                },
            )
            .size()
        })
    });
    g.finish();
}

fn bench_id_assignment(c: &mut Criterion) {
    let doc = xmark(&XmarkConfig {
        scale: 0.3,
        ..Default::default()
    });
    let mut g = c.benchmark_group("ablation_id_assignment");
    g.sample_size(10);
    for scheme in [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential] {
        g.bench_function(format!("{scheme:?}"), |b| {
            b.iter(|| IdAssignment::assign(black_box(&doc), scheme))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_struct_join,
    bench_canonical,
    bench_id_assignment
);
criterion_main!(benches);
