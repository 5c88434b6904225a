//! The storage engine's proof obligations: codec round-trips on random
//! extents, corruption surfacing as checked errors, decoders that turn
//! hostile bytes into errors, cold reads that cost what the plan touches,
//! query equivalence under buffer-pool pressure, crash recovery at every
//! injected fault point, and warm-start of the persisted summary +
//! feedback store.

mod common;

use common::{materialized, tree_strategy};
use proptest::prelude::*;
use smv::algebra::relation::{Cell, ColKind, Column, NestedRelation, Row, Schema};
use smv::algebra::{AttrKind, ExecError, ViewProvider};
use smv::prelude::*;
use smv::store::{
    decode_relation, encode_relation, DiskCatalog, DiskStore, FaultKind, FaultPlan, SimVfs,
    StoreError, StoreOptions, Vfs,
};
use smv::xml::{Label, StructId, Symbol};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

const SCHEMES: [IdScheme; 3] = [IdScheme::OrdPath, IdScheme::Dewey, IdScheme::Sequential];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dictionary/RLE/delta encode→decode is the identity on extents
    /// materialized from random documents, across all three ID schemes —
    /// rows, schema and sort marker all byte-identical.
    #[test]
    fn codec_round_trips_random_extents(src in tree_strategy()) {
        let doc = Document::from_parens(&src);
        for scheme in SCHEMES {
            // a flat view, and one whose optional edge leaves `⊥` runs and
            // whose nested edge puts a table in every row
            for pattern in ["r(//*{id,l,v})", "r(//a{id,l}(?/b{id,v}, ?%//c{id,l,v}))"] {
                let view = View::new("v", parse_pattern(pattern).unwrap(), scheme);
                let cat = materialized(&doc, &[view]);
                let extent = cat.extent("v").expect("materialized");
                let bytes = encode_relation(extent);
                let back = decode_relation(&bytes, None).expect("decodes");
                prop_assert_eq!(&back.schema, &extent.schema);
                prop_assert_eq!(&back.rows, &extent.rows);
                prop_assert_eq!(back.sorted_on, extent.sorted_on);
                assert_projections_agree(&bytes);
            }
        }
    }

    /// What a reopened catalog loads on first use is what `publish_epoch`
    /// was given: the summary, the feedback store and every extent.
    #[test]
    fn lazily_loaded_artifacts_equal_what_was_published(src in tree_strategy()) {
        let doc = Document::from_parens(&src);
        let views = vec![
            View::new("all", parse_pattern("r(//*{id,l,v})").unwrap(), IdScheme::Dewey),
            View::new("as", parse_pattern("r(//a{id}(?/b{id,v}))").unwrap(), IdScheme::Dewey),
        ];
        let cat = materialized(&doc, &views);
        let summary = cat.summary();
        let mut feedback = FeedbackStore::new();
        let rewritten = rewrite(&views[0].pattern, &views, summary, &RewriteOpts::default());
        let plan = &rewritten.rewritings.first().expect("a view answers itself").plan;
        let (_, profile) =
            execute_profiled_with(plan, &cat, &ExecOpts::default()).expect("executes");
        feedback.ingest(plan, &profile);

        let store = DiskStore::with_options(
            Arc::new(SimVfs::new()),
            StoreOptions { page_size: 64, pool_pages: 4 },
        );
        store.publish_epoch(&cat, Some(&feedback)).unwrap();
        let disk = store.open().unwrap();
        let loaded = disk.summary().expect("loads").expect("published");
        prop_assert_eq!(loaded.to_bytes(), summary.to_bytes());
        let loaded = disk.feedback().expect("loads").expect("published");
        prop_assert_eq!(loaded.to_bytes(), feedback.to_bytes());
        for v in &views {
            let want = cat.extent(&v.name).expect("materialized");
            let got = disk.load_extent(&v.name).expect("loads").expect("published");
            prop_assert_eq!(&got.rows, &want.rows, "extent of {}", &v.name);
        }
    }

    /// The summary serialization is a lossless fixpoint: serialize →
    /// deserialize → serialize yields identical bytes, and the geometry
    /// generation survives (only the process-unique id is fresh).
    #[test]
    fn summary_bytes_round_trip(src in tree_strategy()) {
        let summary = Summary::of(&Document::from_parens(&src));
        let bytes = summary.to_bytes();
        let back = Summary::from_bytes(&bytes).expect("deserializes");
        prop_assert_eq!(back.to_bytes(), bytes);
        prop_assert_eq!(back.geometry_token().1, summary.geometry_token().1);
        assert_ne!(
            back.geometry_token().0,
            summary.geometry_token().0,
            "a reloaded summary is a fresh instance"
        );
    }
}

/// Null, content and nested-table cells also survive the codec (shapes
/// the view materializer rarely produces but the relation model allows).
#[test]
fn codec_round_trips_nested_and_content_cells() {
    let rel = nested_and_content_cells();
    let bytes = encode_relation(&rel);
    let back = decode_relation(&bytes, None).expect("decodes");
    assert_eq!(back.rows, rel.rows);
    assert_eq!(back.schema, rel.schema);
    assert_projections_agree(&bytes);
}

fn nested_and_content_cells() -> NestedRelation {
    let inner_schema = Schema::atoms(&[("i.ID", AttrKind::Id), ("i.V", AttrKind::Value)]);
    let inner = NestedRelation::new(
        inner_schema.clone(),
        vec![
            Row::new(vec![Cell::Id(StructId::Seq(1)), Cell::Atom(Value::int(10))]),
            Row::new(vec![
                Cell::Id(StructId::Seq(4)),
                Cell::Atom(Value::str("x")),
            ]),
        ],
    );
    let schema = Schema {
        cols: vec![
            Column {
                name: Symbol::intern("o.ID"),
                kind: ColKind::Atom(AttrKind::Id),
            },
            Column {
                name: Symbol::intern("o.C"),
                kind: ColKind::Atom(AttrKind::Content),
            },
            Column {
                name: Symbol::intern("o.T"),
                kind: ColKind::Nested(inner_schema),
            },
        ],
    };
    NestedRelation::new(
        schema,
        vec![
            Row::new(vec![
                Cell::Id(StructId::Seq(2)),
                Cell::Content("<a>text</a>".into()),
                Cell::Table(Box::new(inner)),
            ]),
            Row::new(vec![
                Cell::Label(Label::intern("odd")),
                Cell::Null,
                Cell::Null,
            ]),
        ],
    )
}

/// `rel` projected onto `cols`, cell by cell, as the executor's `Project`
/// builds it.
fn project(rel: &NestedRelation, cols: &[usize]) -> NestedRelation {
    let schema = Schema {
        cols: cols.iter().map(|&c| rel.schema.cols[c].clone()).collect(),
    };
    let rows = rel
        .rows
        .iter()
        .map(|r| Row::new(cols.iter().map(|&c| r.cells[c].clone()).collect()))
        .collect();
    let mut out = NestedRelation::new(schema, rows);
    out.sorted_on = rel
        .sorted_on
        .and_then(|s| cols.iter().position(|&c| c == s));
    out
}

/// Projections are tried over this many leading columns: every encoding
/// these tests build is at most this wide.
const PROJECTION_WIDTH: usize = 5;

/// The projected decode of `bytes`, on every strictly ascending column
/// list over its leading columns (the empty one included), agrees with
/// the full decode: an error whenever the full decode is one — no check
/// is lost on a skipped column — and otherwise the full decode projected,
/// rows, schema and `sorted_on`.
fn assert_projections_agree(bytes: &[u8]) {
    let full = decode_relation(bytes, None);
    let width = full
        .as_ref()
        .map_or(PROJECTION_WIDTH, |f| f.schema.len().min(PROJECTION_WIDTH));
    for mask in 0u32..1 << width {
        let cols: Vec<usize> = (0..width).filter(|&c| mask >> c & 1 == 1).collect();
        let got = decode_relation(bytes, Some(&cols));
        match &full {
            Err(e) => assert!(
                got.is_err(),
                "{cols:?} decodes what the full decode refuses: {e}"
            ),
            Ok(full) => {
                let got = got.unwrap_or_else(|e| panic!("{cols:?} refuses a valid input: {e}"));
                let want = project(full, &cols);
                assert_eq!(got.schema, want.schema, "{cols:?}: schema");
                assert_eq!(got.rows, want.rows, "{cols:?}: rows");
                assert_eq!(got.sorted_on, want.sorted_on, "{cols:?}: sorted_on");
            }
        }
    }
}

/// Valid encodings to mutate: an extent with `⊥` runs and nested tables,
/// its summary, a feedback store and the manifest that names them all;
/// plus the extent's whole segment file, published with 16-byte pages so
/// it spans several and ends in a short one.
struct Encoded {
    relation: Vec<u8>,
    summary: Vec<u8>,
    feedback: Vec<u8>,
    manifest: Vec<u8>,
    segment: Vec<u8>,
}

fn encoded() -> &'static Encoded {
    static ENCODED: OnceLock<Encoded> = OnceLock::new();
    ENCODED.get_or_init(build_encoded)
}

fn build_encoded() -> Encoded {
    let view = View::new(
        "v",
        parse_pattern("r(//a{id,l}(?/b{id,v}, ?%//c{id,l,v}))").unwrap(),
        IdScheme::OrdPath,
    );
    let cat = materialized(&small_matrix_doc(), std::slice::from_ref(&view));
    let summary = cat.summary();
    let extent = cat.extent("v").unwrap();
    let mut feedback = FeedbackStore::new();
    let rewritten = rewrite(
        &view.pattern,
        std::slice::from_ref(&view),
        summary,
        &RewriteOpts::default(),
    );
    let plan = &rewritten.rewritings[0].plan;
    let (_, profile) = execute_profiled_with(plan, &cat, &ExecOpts::default()).unwrap();
    feedback.ingest(plan, &profile);
    let vfs = SimVfs::new();
    let store = DiskStore::new(Arc::new(vfs.clone()));
    store.publish_epoch(&cat, Some(&feedback)).unwrap();
    let manifest = vfs.read(&manifest_file(&vfs)).unwrap();
    let paged = SimVfs::new();
    let opts = StoreOptions {
        page_size: 16,
        ..StoreOptions::default()
    };
    DiskStore::with_options(Arc::new(paged.clone()), opts)
        .publish_epoch(&cat, None)
        .unwrap();
    let seg = paged.list().into_iter().find(|n| n.starts_with("seg-"));
    Encoded {
        relation: encode_relation(extent),
        summary: summary.to_bytes(),
        feedback: feedback.to_bytes(),
        manifest: manifest[..manifest.len() - 8].to_vec(),
        segment: paged.read(&seg.expect("segment published")).unwrap(),
    }
}

/// Every persisted format's bytes and every kind of fingerprint, pinned by
/// value: the relation, summary, feedback and manifest encodings of the
/// fixture above and its whole multi-page segment file (by their
/// `fnv64`), one plan's `plan_fingerprint` and one canonical form's
/// `text_fingerprint`. No magic or wire version moves with a refactor, so
/// any change here is a format change.
#[test]
fn persisted_bytes_and_fingerprints_are_pinned() {
    let e = encoded();
    let sums = [
        &e.relation,
        &e.summary,
        &e.feedback,
        &e.manifest,
        &e.segment,
    ]
    .map(|b| smv::store::fnv64(b));
    assert_eq!(
        sums,
        [
            0x0351_ead4_91c9_ea2b,
            0x525f_3e21_b2d7_a353,
            0x4c45_9856_7115_137a,
            0x5a25_ebb2_3042_aec8,
            0xd032_ee51_9c16_1895
        ],
        "relation, summary, feedback, manifest, segment"
    );
    let payload = e.relation.len();
    assert!(
        payload > 2 * 16 && !payload.is_multiple_of(16),
        "the segment spans several pages, the last short"
    );
    let plan = Plan::DupElim {
        input: Arc::new(Plan::Project {
            input: Arc::new(Plan::StructJoin {
                left: Arc::new(Plan::DeriveParentId {
                    input: Arc::new(Plan::Scan { view: "all".into() }),
                    col: 0,
                    levels: 2,
                    name: Symbol::intern("vid0u2"),
                }),
                right: Arc::new(Plan::Select {
                    input: Arc::new(Plan::Scan { view: "bs".into() }),
                    pred: smv::algebra::Predicate::Value {
                        col: 1,
                        formula: Formula::ge(Value::int(3)),
                    },
                }),
                lcol: 3,
                rcol: 0,
                rel: StructRel::Ancestor,
            }),
            cols: vec![0, 4],
        }),
    };
    assert_eq!(smv::algebra::plan_fingerprint(&plan), 0xbc3b_885d_f129_f5b6);
    let canon = canonical_form(&parse_pattern(r#"site(//item{id}(/name{v}[v>"m"]))"#).unwrap());
    assert_eq!(smv::serve::text_fingerprint(&canon), 0x4d4f_e37f_06c2_c8bd);
}

/// A feedback file in the retired version-1 format is refused with an
/// error, and the rest of its epoch still opens and reads: an old store
/// loses what it learned, not its catalog.
#[test]
fn a_version_1_feedback_file_is_refused_and_the_epoch_still_reads() {
    let view = View::new(
        "v",
        parse_pattern("r(//b{id,v})").unwrap(),
        IdScheme::OrdPath,
    );
    let cat = materialized(&small_matrix_doc(), std::slice::from_ref(&view));
    let scan = Plan::Scan { view: "v".into() };
    let (_, profile) = execute_profiled_with(&scan, &cat, &ExecOpts::default()).unwrap();
    let mut feedback = FeedbackStore::new();
    feedback.ingest(&scan, &profile);
    let vfs = SimVfs::new();
    let store = DiskStore::new(Arc::new(vfs.clone()));
    store.publish_epoch(&cat, Some(&feedback)).unwrap();
    // a version-1 body of the published length, so the manifest still
    // vouches for it: decay, one scan memo whose view name pads it out,
    // three empty memos, no views, no ingests
    let file = vfs
        .list()
        .into_iter()
        .find(|n| n.starts_with("feedback-"))
        .expect("feedback published");
    let body_len = vfs.read(&file).unwrap().len() - 8;
    let pad = body_len - 24;
    assert!(pad < 128, "the name's length fits one varint byte");
    let mut v1 = vec![1];
    v1.extend(0.5f64.to_le_bytes());
    v1.extend([1, pad as u8]);
    v1.extend(vec![b'x'; pad]);
    v1.extend(3.0f64.to_le_bytes());
    v1.extend([0, 0, 0, 0, 0]);
    assert_eq!(v1.len(), body_len);
    v1.extend(smv::store::fnv64(&v1).to_le_bytes());
    vfs.write(&file, &v1).unwrap();

    let disk = store.open().expect("the epoch opens");
    let err = disk.feedback().expect_err("version 1 is refused");
    assert!(
        err.to_string()
            .contains("unsupported feedback wire version 1"),
        "{err}"
    );
    let summary = disk.summary().unwrap().expect("published");
    assert_eq!(summary.to_bytes(), cat.summary().to_bytes());
    let extent = disk.load_extent("v").unwrap().expect("published");
    assert_eq!(extent.rows, cat.extent("v").unwrap().rows);
}

fn manifest_file(vfs: &SimVfs) -> String {
    let mut names: Vec<String> = vfs
        .list()
        .into_iter()
        .filter(|n| n.starts_with("manifest-") && n.ends_with(".smv"))
        .collect();
    names.sort();
    names.pop().expect("a committed manifest")
}

/// Every decoder the store reads files with, on `bytes`. Each returns an
/// error or a value; a panic, an abort on an absurd allocation or a hang
/// fails the test that calls this. The relation decoder also runs under
/// every projection, which must agree with its full decode.
fn decode_everything(bytes: &[u8]) {
    assert_projections_agree(bytes);
    let _ = Summary::from_bytes(bytes);
    let _ = FeedbackStore::from_bytes(bytes);
    open_published_with_manifest(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes are an error or a value to every decoder — never a
    /// panic, and never an allocation sized by a length the input cannot
    /// back (a flipped varint used to ask `Vec::with_capacity` for 2⁶³).
    #[test]
    fn decoders_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(0u16..256, 0..300),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        decode_everything(&bytes);
    }

    /// The same for one byte changed, dropped or doubled anywhere in a
    /// valid encoding — the shapes real corruption takes. The decoder an
    /// encoding belongs to sees it; so do the others. A mutated relation
    /// fails every projected decode its full decode fails, whichever
    /// column the damage is in.
    #[test]
    fn decoders_survive_single_byte_mutations(
        which in 0usize..4,
        at in 0usize..1 << 20,
        byte in 0u16..256,
        edit in 0u8..3,
    ) {
        let e = encoded();
        let mut bytes = [&e.relation, &e.summary, &e.feedback, &e.manifest][which].clone();
        let (i, byte) = (at % bytes.len(), byte as u8);
        match edit {
            0 => bytes[i] = byte,
            1 => { bytes.remove(i); }
            _ => bytes.insert(i, byte),
        }
        decode_everything(&bytes);
    }
}

/// A published `pr7` epoch: every file but the manifest as a `SimVfs`
/// holds it (each view's segment, the summary and a feedback store), and
/// the manifest's name and body without its checksum.
struct Published {
    files: Vec<(String, Vec<u8>)>,
    manifest: String,
    body: Vec<u8>,
}

fn published() -> &'static Published {
    static PUBLISHED: OnceLock<Published> = OnceLock::new();
    PUBLISHED.get_or_init(|| {
        let views = pr7_views(IdScheme::OrdPath);
        let cat = materialized(&pr7_document(0.05, 7), &views);
        let mut feedback = FeedbackStore::new();
        for v in &views {
            let scan = Plan::Scan {
                view: v.name.clone(),
            };
            let (_, profile) = execute_profiled_with(&scan, &cat, &ExecOpts::default()).unwrap();
            feedback.ingest(&scan, &profile);
        }
        let vfs = SimVfs::new();
        let store = DiskStore::new(Arc::new(vfs.clone()));
        store.publish_epoch(&cat, Some(&feedback)).unwrap();
        store
            .open()
            .unwrap()
            .warm()
            .expect("the published epoch reads");
        let manifest = manifest_file(&vfs);
        let bytes = vfs.read(&manifest).unwrap();
        let files = vfs
            .list()
            .into_iter()
            .filter(|n| *n != manifest)
            .map(|n| {
                let bytes = vfs.read(&n).unwrap();
                (n, bytes)
            })
            .collect();
        Published {
            files,
            manifest,
            body: bytes[..bytes.len() - 8].to_vec(),
        }
    })
}

/// Hands `body` to the (private) manifest decoder the only way a store
/// ever does: as the newest manifest file, under a valid checksum, here
/// in place of the published epoch's own, so the decoder (not the
/// checksum) sees it and the files it names exist. An `open` that
/// succeeds hands back a catalog whose every extent, summary and
/// feedback store then loads or fails with a `StoreError`; a panic
/// anywhere fails the calling test.
fn open_published_with_manifest(body: &[u8]) {
    let p = published();
    let vfs = SimVfs::new();
    for (name, bytes) in &p.files {
        vfs.write(name, bytes).unwrap();
    }
    let mut bytes = body.to_vec();
    bytes.extend_from_slice(&smv::store::fnv64(body).to_le_bytes());
    vfs.write(&p.manifest, &bytes).unwrap();
    if let Ok(cat) = DiskStore::new(Arc::new(vfs)).open() {
        for v in cat.views() {
            let _ = cat.load_extent(&v.name);
        }
        let _ = cat.summary();
        let _ = cat.feedback();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A manifest cut short anywhere, beside the files it names.
    #[test]
    fn open_survives_a_truncated_manifest(at in 0usize..1 << 20) {
        let body = &published().body;
        open_published_with_manifest(&body[..at % body.len()]);
    }

    /// A manifest with one byte changed, dropped or doubled: a length, a
    /// file name, a pattern, a scheme tag or a presence flag gone wrong
    /// beside the files the original names.
    #[test]
    fn open_survives_an_edited_manifest(
        at in 0usize..1 << 20,
        byte in 0u16..256,
        edit in 0u8..3,
    ) {
        let mut body = published().body.clone();
        let (i, byte) = (at % body.len(), byte as u8);
        match edit {
            0 => body[i] = byte,
            1 => { body.remove(i); }
            _ => body.insert(i, byte),
        }
        open_published_with_manifest(&body);
    }

    /// Random bytes after the manifest's valid magic and epoch, so the
    /// decoder reads past the header (wholly random bytes stop at the
    /// magic; `decoders_survive_arbitrary_bytes` covers those).
    #[test]
    fn open_survives_a_random_manifest(
        tail in proptest::collection::vec(0u16..256, 0..400),
    ) {
        let mut body = published().body[..16].to_vec();
        body.extend(tail.into_iter().map(|b| b as u8));
        open_published_with_manifest(&body);
    }
}

/// Every single-bit flip of an encoded relation's bytes, each dropped
/// byte too, through every projection — on the materialized extent and on
/// the content and nested-table cells: a sweep rather than a sample, so a
/// check the projected decode skips on one column cannot hide in the
/// cases a random draw missed.
#[test]
fn every_relation_mutation_fails_its_projections_too() {
    for valid in [
        encoded().relation.clone(),
        encode_relation(&nested_and_content_cells()),
    ] {
        for i in 0..valid.len() {
            for edit in 0..9 {
                let mut bytes = valid.clone();
                match edit {
                    8 => drop(bytes.remove(i)),
                    bit => bytes[i] ^= 1 << bit,
                }
                assert_projections_agree(&bytes);
            }
        }
    }
}

/// Lengths at the edge of what the types hold, where `usize` arithmetic
/// wraps: every count, prefix and delta the formats carry, set to 2⁶⁴−1.
#[test]
fn decoders_reject_overflowing_lengths() {
    let e = encoded();
    let huge = [0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
    for valid in [&e.relation, &e.summary, &e.feedback, &e.manifest] {
        for at in 0..valid.len() {
            let mut bytes = valid[..at].to_vec();
            bytes.extend_from_slice(&huge);
            bytes.extend_from_slice(&valid[at + 1..]);
            decode_everything(&bytes);
        }
    }
}

/// Rows that compress to nothing — one label run, all-`⊥` columns, no
/// columns at all — are legal and cost no bytes, so the input's length
/// does not bound the row count. The byte strings are what the encoder
/// has always written for these shapes; they must keep decoding.
#[test]
fn codec_round_trips_rows_that_cost_no_bytes() {
    let label = |n: usize| {
        NestedRelation::new(
            Schema::atoms(&[("a.L", AttrKind::Label), ("a.V", AttrKind::Value)]),
            vec![Row::new(vec![Cell::Label(Label::intern("item")), Cell::Null]); n],
        )
    };
    let unit = |n: usize| NestedRelation::new(Schema { cols: vec![] }, vec![Row::new(vec![]); n]);
    for rel in [label(1), label(5000), unit(0), unit(1), unit(300)] {
        let bytes = encode_relation(&rel);
        let back = decode_relation(&bytes, None).expect("decodes");
        assert_eq!(back.rows, rel.rows);
        assert_eq!(back.schema, rel.schema);
    }
    // no columns, 300 rows, unsorted, empty dictionary
    let unit_300 = [0, 0xac, 0x02, 0, 0];
    assert_eq!(encode_relation(&unit(300)), unit_300);
    assert_eq!(
        decode_relation(&unit_300, None).unwrap().rows,
        unit(300).rows
    );
    // two columns, 5000 rows, unsorted, dictionary ["item"]; column 0 is
    // one label tag run holding one run of slot 0, column 1 one ⊥ tag run
    let mut label_5000 = vec![2, 3, b'a', b'.', b'L', 1, 3, b'a', b'.', b'V', 2];
    label_5000.extend([0x88, 0x27, 0, 1, 4, b'i', b't', b'e', b'm']);
    label_5000.extend([1, 2, 0x88, 0x27, 0, 0x88, 0x27, 1, 0, 0x88, 0x27]);
    assert_eq!(encode_relation(&label(5000)), label_5000);
    assert_eq!(
        decode_relation(&label_5000, None).unwrap().rows,
        label(5000).rows
    );
}

/// What that freedom must not buy: a row count no machine can hold, made
/// consistent with its tag runs, is a checked error and not an abort.
#[test]
fn codec_refuses_a_row_count_it_cannot_allocate() {
    let n = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40]; // 2^62
    let unit = [&[0][..], &n, &[0, 0]].concat();
    let nulls = [&[1, 1, b'c', 2][..], &n, &[0, 0, 1, 0], &n].concat();
    for bytes in [unit, nulls] {
        let err = decode_relation(&bytes, None).expect_err("2^62 rows");
        assert!(matches!(err, StoreError::Corrupt(_)), "got: {err}");
    }
}

/// Feeds `store` the way the query service does: ranks `q`, executes the
/// best rewriting profiled and ingests its profile.
fn learn<C: ViewStore + ViewProvider>(
    store: &mut FeedbackStore,
    cat: &C,
    summary: &Summary,
    q: &str,
) {
    let q = parse_pattern(q).unwrap();
    let ranked = rewrite(&q, cat.views(), summary, &RewriteOpts::default());
    let plan = &ranked.rewritings.first().expect("rewritable").plan;
    let (_, profile) = execute_profiled_with(plan, cat, &ExecOpts::default()).expect("executes");
    store.ingest(plan, &profile);
}

/// The learned feedback state round-trips losslessly (the stable FNV
/// fingerprints make the raw memo keys portable across processes).
#[test]
fn feedback_bytes_round_trip() {
    let scheme = IdScheme::OrdPath;
    let doc = pr7_document(0.02, 7);
    let cat = materialized(&doc, &pr7_views(scheme));
    let mut store = FeedbackStore::new();
    for q in ["site(//name{id,v})", "site(//item{id}(/name{v}))"] {
        learn(&mut store, &cat, cat.summary(), q);
    }
    let names = Plan::Scan {
        view: "names".into(),
    };
    assert!(
        store.measured_rows(&names).is_some(),
        "learned the names scan"
    );
    let bytes = store.to_bytes();
    let back = FeedbackStore::from_bytes(&bytes).expect("deserializes");
    assert_eq!(back.to_bytes(), bytes, "serialize∘deserialize is identity");
    assert_eq!(back.measured_rows(&names), store.measured_rows(&names));
}

fn small_matrix_doc() -> Document {
    Document::from_parens(r#"r(a(b="1" b="2" c(b="3")) a(c(b="4") b="5") d(b="6" c="x"))"#)
}

/// A page size the segment header cannot record — zero, or past its
/// `u32` — is clamped into range, so the store still publishes and reads
/// back what it was given.
#[test]
fn out_of_range_page_sizes_still_round_trip() {
    let view = View::new(
        "v",
        parse_pattern("r(//*{id,l,v})").unwrap(),
        IdScheme::OrdPath,
    );
    let cat = materialized(&small_matrix_doc(), std::slice::from_ref(&view));
    for page_size in [0, u32::MAX as usize + 1] {
        let opts = StoreOptions {
            page_size,
            ..StoreOptions::default()
        };
        let store = DiskStore::with_options(Arc::new(SimVfs::new()), opts);
        store.publish_epoch(&cat, None).unwrap();
        let disk = store.open().unwrap();
        let got = disk.load_extent("v").unwrap().expect("published");
        assert_eq!(
            got.rows,
            cat.extent("v").unwrap().rows,
            "page size {page_size}"
        );
    }
}

/// A bit-flipped page fails its checksum and surfaces as a checked
/// [`StoreError::Corrupt`] — never as garbage rows — and a query that
/// scans the damaged view fails with [`ExecError::Storage`] instead of
/// aborting.
#[test]
fn corrupt_page_is_a_checked_error_not_garbage_rows() {
    let view = View::new(
        "v",
        parse_pattern("r(//b{id,v})").unwrap(),
        IdScheme::OrdPath,
    );
    let cat = materialized(&small_matrix_doc(), &[view]);
    let vfs = SimVfs::new();
    let store = DiskStore::with_options(
        Arc::new(vfs.clone()),
        StoreOptions {
            page_size: 64,
            pool_pages: 8,
        },
    );
    store.publish_epoch(&cat, None).unwrap();
    let seg = vfs
        .list()
        .into_iter()
        .find(|n| n.starts_with("seg-"))
        .expect("one segment file");
    let mut bytes = vfs.read(&seg).unwrap();
    let flip_at = 24 + 8 + 3; // inside the first page's payload
    bytes[flip_at] ^= 0x10;
    vfs.write(&seg, &bytes).unwrap();
    vfs.fsync(&seg).unwrap();
    // the manifest still validates (same lengths), so the epoch opens …
    let disk = store.open().expect("structure still validates");
    // … but touching the damaged extent is a checked error
    let err = match disk.load_extent("v") {
        Err(e) => e,
        Ok(_) => panic!("checksum catches the flip"),
    };
    assert!(matches!(err, StoreError::Corrupt(_)), "got: {err}");
    assert!(disk.warm().is_err(), "warm() surfaces the same error");
    // … and so is a query that scans it, profiled or not, whether the scan
    // builds the extent or only the column a projection over it keeps
    let scan = Plan::Scan { view: "v".into() };
    let projected = Plan::DupElim {
        input: Arc::new(Plan::Project {
            input: Arc::new(scan.clone()),
            cols: vec![1],
        }),
    };
    let opts = ExecOpts::default();
    for (plan, at) in [(&scan, ""), (&projected, "0.0")] {
        for err in [
            execute_with(plan, &disk, &opts).expect_err("plain run"),
            execute_profiled_with(plan, &disk, &opts).expect_err("profiled run"),
        ] {
            assert!(
                matches!(err.kind(), ExecError::Storage { view, .. } if view == "v"),
                "got: {err}"
            );
            assert_eq!(err.op_path(), Some(at), "the scan");
            assert_eq!(err.op_name(), Some("Scan(v)"));
            assert!(
                err.to_string().contains("checksum"),
                "carries the cause: {err}"
            );
        }
    }
}

/// A segment in a retired layout is refused by its header: `SMVSEG1`
/// also carried a row partition after the extent, and `SMVSEG2` coded
/// ORDPATH labels as zigzag varints. Its length and checksums still
/// validate, but a scan fails with [`ExecError::Storage`] and a load with
/// [`StoreError::Corrupt`], and no rows come back.
#[test]
fn a_segment_with_the_previous_magic_is_refused() {
    for magic in [b"SMVSEG1\n", b"SMVSEG2\n"] {
        let view = View::new(
            "v",
            parse_pattern("r(//b{id,v})").unwrap(),
            IdScheme::OrdPath,
        );
        let cat = materialized(&small_matrix_doc(), &[view]);
        let vfs = SimVfs::new();
        let store = DiskStore::new(Arc::new(vfs.clone()));
        store.publish_epoch(&cat, None).unwrap();
        let seg = vfs
            .list()
            .into_iter()
            .find(|n| n.starts_with("seg-"))
            .expect("one segment file");
        let mut bytes = vfs.read(&seg).unwrap();
        let len = bytes.len();
        bytes[..8].copy_from_slice(magic);
        assert_eq!(bytes.len(), len);
        vfs.write(&seg, &bytes).unwrap();
        vfs.fsync(&seg).unwrap();
        let disk = store.open().expect("the manifest's lengths still hold");
        let scan = Plan::Scan { view: "v".into() };
        let err = execute_with(&scan, &disk, &ExecOpts::default()).expect_err("old magic");
        assert!(
            matches!(err.kind(), ExecError::Storage { view, .. } if view == "v"),
            "got: {err}"
        );
        let err = match disk.load_extent("v") {
            Err(e) => e,
            Ok(rows) => panic!("old magic returned {rows:?}"),
        };
        assert!(matches!(err, StoreError::Corrupt(_)), "got: {err}");
    }
}

/// A projection over a cold scan answers as in memory whatever its column
/// list: ascending lists (the empty one too) take the projected decode,
/// others — reordered, repeated — the generic path, and a column past the
/// schema is the `Project`'s schema error on every provider.
#[test]
fn cold_projections_answer_as_in_memory_for_any_column_list() {
    let view = View::new(
        "all",
        parse_pattern("r(//*{id,l,v})").unwrap(),
        IdScheme::Dewey,
    );
    let cat = materialized(&small_matrix_doc(), &[view]);
    let store = DiskStore::with_options(
        Arc::new(SimVfs::new()),
        StoreOptions {
            page_size: 32,
            pool_pages: 2,
        },
    );
    store.publish_epoch(&cat, None).unwrap();
    let project = |cols: Vec<usize>| Plan::Project {
        input: Arc::new(Plan::Scan { view: "all".into() }),
        cols,
    };
    let opts = ExecOpts::default();
    for cols in [
        vec![],
        vec![1],
        vec![0, 2],
        vec![2, 0],
        vec![1, 1],
        vec![0, 1, 2],
    ] {
        let plan = project(cols.clone());
        let want = execute_profiled_with(&plan, &cat, &opts).unwrap();
        let got = execute_profiled_with(&plan, &store.open().unwrap(), &opts).unwrap();
        assert_eq!(got.0.schema, want.0.schema, "{cols:?}");
        assert_eq!(got.0.rows, want.0.rows, "{cols:?}");
        assert_eq!(got.0.sorted_on, want.0.sorted_on, "{cols:?}");
        assert_eq!(
            got.1.rows_at("0"),
            want.1.rows_at("0"),
            "{cols:?}: scan rows"
        );
    }
    let cold = store.open().unwrap();
    let providers: [&dyn ViewProvider; 2] = [&cat, &cold];
    for provider in providers {
        let err = execute_with(&project(vec![0, 3]), provider, &opts).unwrap_err();
        assert!(matches!(err.kind(), ExecError::Schema(_)), "got: {err}");
        assert_eq!(err.op_path(), Some(""), "the Project");
    }
}

/// A `Project` that keeps a parent-id derivation's new column reaches
/// past the scanned view's schema. The disk catalog declines that
/// projected scan before reading, so a cold run requests the segment's
/// pages once, as loading the extent does, and answers as in memory.
#[test]
fn a_declined_projected_scan_reads_the_segment_once() {
    let view = View::new(
        "v",
        parse_pattern("r(//b{id,v})").unwrap(),
        IdScheme::OrdPath,
    );
    let cat = materialized(&small_matrix_doc(), &[view]);
    let store = DiskStore::with_options(
        Arc::new(SimVfs::new()),
        StoreOptions {
            page_size: 32,
            pool_pages: 2,
        },
    );
    store.publish_epoch(&cat, None).unwrap();
    let requests = |disk: &DiskCatalog| {
        let s = disk.pool().stats();
        s.hits + s.misses
    };
    let loaded = store.open().unwrap();
    loaded.load_extent("v").unwrap().expect("published");
    let segment_pages = requests(&loaded);
    assert!(segment_pages > 2, "the segment outgrows the pool");

    // `v` has two columns, so the derived one is #2
    let plan = Plan::Project {
        input: Arc::new(Plan::DeriveParentId {
            input: Arc::new(Plan::Scan { view: "v".into() }),
            col: 0,
            levels: 1,
            name: "p.ID".into(),
        }),
        cols: vec![0, 2],
    };
    let opts = ExecOpts::default();
    let cold = store.open().unwrap();
    let got = execute_with(&plan, &cold, &opts).unwrap();
    assert_eq!(requests(&cold), segment_pages, "the segment's pages, once");
    let want = execute_with(&plan, &cat, &opts).unwrap();
    assert_eq!(got.rows, want.rows);
    assert_eq!(got.schema, want.schema);
    assert!(!got.rows.is_empty());
}

/// A [`SimVfs`] that records, per file, how many reads it served and how
/// many bytes they returned.
#[derive(Default)]
struct CountingVfs {
    inner: SimVfs,
    reads: Mutex<BTreeMap<String, (u64, u64)>>,
}

impl CountingVfs {
    fn counted(&self, name: &str, r: smv::store::Result<Vec<u8>>) -> smv::store::Result<Vec<u8>> {
        if let Ok(bytes) = &r {
            let mut reads = self.reads.lock().unwrap();
            let (n, total) = reads.entry(name.to_string()).or_default();
            *n += 1;
            *total += bytes.len() as u64;
        }
        r
    }

    fn take_reads(&self) -> BTreeMap<String, (u64, u64)> {
        std::mem::take(&mut self.reads.lock().unwrap())
    }
}

impl Vfs for CountingVfs {
    fn read(&self, name: &str) -> smv::store::Result<Vec<u8>> {
        self.counted(name, self.inner.read(name))
    }
    fn read_at(&self, name: &str, offset: u64, len: usize) -> smv::store::Result<Vec<u8>> {
        self.counted(name, self.inner.read_at(name, offset, len))
    }
    fn write(&self, name: &str, bytes: &[u8]) -> smv::store::Result<()> {
        self.inner.write(name, bytes)
    }
    fn write_at(&self, name: &str, offset: u64, bytes: &[u8]) -> smv::store::Result<()> {
        self.inner.write_at(name, offset, bytes)
    }
    fn fsync(&self, name: &str) -> smv::store::Result<()> {
        self.inner.fsync(name)
    }
    fn rename(&self, from: &str, to: &str) -> smv::store::Result<()> {
        self.inner.rename(from, to)
    }
    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
    fn len(&self, name: &str) -> Option<u64> {
        self.inner.len(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn remove(&self, name: &str) -> smv::store::Result<()> {
        self.inner.remove(name)
    }
}

/// A cold read costs what the plan touches: `open` reads the manifest and
/// nothing else, and executing a one-view plan reads that view's segment
/// — every byte of it exactly once — while the other segments, the
/// summary and the feedback store stay unread.
#[test]
fn cold_read_touches_only_the_manifest_and_the_scanned_segment() {
    let doc = small_matrix_doc();
    let summary = Summary::of(&doc);
    let scheme = IdScheme::OrdPath;
    let views = vec![
        View::new("all", parse_pattern("r(//*{id,l,v})").unwrap(), scheme),
        View::new("bs", parse_pattern("r(//b{id,v})").unwrap(), scheme),
        View::new("cs", parse_pattern("r(//c{id}(/b{v}))").unwrap(), scheme),
    ];
    let cat = materialized(&doc, &views);
    let rewritten = rewrite(&views[1].pattern, &views, &summary, &RewriteOpts::default());
    let plan = &rewritten.rewritings[0].plan;
    let used = plan.views_used();
    assert_eq!(used.len(), 1, "a view answers itself with one scan");

    let vfs = Arc::new(CountingVfs::default());
    let pool_pages = 4;
    let store = DiskStore::with_options(
        Arc::clone(&vfs) as Arc<dyn Vfs>,
        StoreOptions {
            page_size: 16,
            pool_pages,
        },
    );
    store
        .publish_epoch(&cat, Some(&FeedbackStore::new()))
        .unwrap();
    vfs.take_reads();

    let disk = store.open().unwrap();
    let manifest = manifest_file(&vfs.inner);
    let opened = vfs.take_reads();
    let want = BTreeMap::from([(manifest.clone(), (1, vfs.len(&manifest).unwrap()))]);
    assert_eq!(
        opened, want,
        "open reads the manifest, once, and nothing else"
    );

    let opts = ExecOpts::default();
    let got = execute_with(plan, &disk, &opts).unwrap();
    assert_eq!(got.rows, execute_with(plan, &cat, &opts).unwrap().rows);
    let executed = vfs.take_reads();
    let i = views.iter().position(|v| v.name == used[0]).unwrap();
    let segment = format!("seg-{:020}-{i}.smv", cat.epoch());
    let seg_len = vfs.len(&segment).unwrap();
    assert_eq!(
        executed.keys().collect::<Vec<_>>(),
        [&segment],
        "only the scanned view's segment is read"
    );
    let (_reads, bytes) = executed[&segment];
    assert_eq!(bytes, seg_len, "the header and every page, once");
    let pages = disk.pool().stats().misses;
    assert!(pages > pool_pages as u64, "the segment outgrows the pool");

    // that read was the projected scan, and it kept nothing: loading the
    // extent reads the segment again, and from then on scans borrow it
    assert!(
        matches!(plan, Plan::DupElim { input } if matches!(**input, Plan::Project { .. })),
        "a projection over the scan: {plan:?}"
    );
    disk.load_extent(&used[0]).unwrap().expect("published");
    let reloaded = vfs.take_reads();
    assert!(reloaded[&segment].1 > 0, "the extent was not kept");
    assert_eq!(execute_with(plan, &disk, &opts).unwrap().rows, got.rows);
    assert!(vfs.take_reads().is_empty(), "a loaded extent is borrowed");
    // the same after `warm`, on a fresh catalog
    let warmed = store.open().unwrap();
    warmed.warm().unwrap();
    vfs.take_reads();
    assert_eq!(execute_with(plan, &warmed, &opts).unwrap().rows, got.rows);
    assert!(vfs.take_reads().is_empty(), "a warmed extent is borrowed");

    // first use of the summary is what reads it
    disk.summary().unwrap().expect("published");
    let summary_file = format!("summary-{:020}.smv", cat.epoch());
    assert_eq!(vfs.take_reads().keys().collect::<Vec<_>>(), [&summary_file]);
}

/// Structure is validated at open, content on first read: a summary with
/// a flipped bit and its length intact does not stop the epoch opening or
/// serving extents, and is a checked error — every time, never a panic or
/// some older summary — from `summary()` and from `warm()`.
#[test]
fn corrupt_summary_is_an_error_on_first_use_not_at_open() {
    let view = View::new("v", parse_pattern("r(//b{id,v})").unwrap(), IdScheme::Dewey);
    let mut ec = EpochCatalog::new(small_matrix_doc(), IdScheme::Dewey);
    let vfs = SimVfs::new();
    let store = DiskStore::new(Arc::new(vfs.clone()));
    // epochs 1 and 2: registering, then re-registering, the view
    for _ in 0..2 {
        ec.add_view(view.clone(), RefreshPolicy::Eager);
        store.publish_epoch(&ec.snapshot(), None).unwrap();
    }
    let cat = ec.snapshot();
    let file = format!("summary-{:020}.smv", 2);
    let mut bytes = vfs.read(&file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    vfs.write(&file, &bytes).unwrap();
    vfs.fsync(&file).unwrap();

    let disk = store.open().expect("lengths still validate");
    assert_eq!(disk.epoch(), 2, "no fallback to the older epoch");
    let rows = disk.load_extent("v").expect("extents are intact").unwrap();
    assert_eq!(rows.rows, cat.extent("v").unwrap().rows);
    for _ in 0..2 {
        let err = disk.summary().expect_err("checksum catches the flip");
        assert!(matches!(err, StoreError::Corrupt(_)), "got: {err}");
    }
    assert!(disk.warm().is_err(), "warm() loads the summary too");
    assert!(disk.feedback().unwrap().is_none(), "none was published");
}

/// A transient short read is caught by the page-length check and does not
/// poison the catalog: the next read of the same page succeeds.
#[test]
fn short_read_is_caught_and_retryable() {
    let view = View::new("v", parse_pattern("r(//b{id,v})").unwrap(), IdScheme::Dewey);
    let cat = materialized(&small_matrix_doc(), &[view]);
    let vfs = SimVfs::new();
    let store = DiskStore::with_options(
        Arc::new(vfs.clone()),
        StoreOptions {
            page_size: 64,
            pool_pages: 8,
        },
    );
    store.publish_epoch(&cat, None).unwrap();
    let disk = store.open().unwrap();
    // a one-shot short read on each of the load's first VFS operations in
    // turn: the segment header read, then the read of page 0
    for op in 0..2 {
        vfs.set_fault(Some(FaultPlan {
            fail_at: vfs.op_count() + op,
            kind: FaultKind::ShortRead,
        }));
        let err = disk.load_extent("v").expect_err("short read is checked");
        assert!(matches!(err, StoreError::Corrupt(_)), "op {op}: {err}");
    }
    let rows = disk.load_extent("v").expect("retry succeeds").unwrap();
    assert_eq!(rows.rows.len(), cat.extent("v").unwrap().rows.len());
}

/// Queries answer identically with a buffer pool of only two or four
/// pages (every scan fights for frames), and the evictions show up in the
/// smv-obs registry snapshot.
#[test]
fn pool_pressure_preserves_results_and_counts_evictions() {
    let doc = small_matrix_doc();
    let summary = Summary::of(&doc);
    let scheme = IdScheme::OrdPath;
    let views = vec![
        View::new("all", parse_pattern("r(//*{id,l,v})").unwrap(), scheme),
        View::new("bs", parse_pattern("r(//b{id,v})").unwrap(), scheme),
        View::new("cs", parse_pattern("r(//c{id}(/b{v}))").unwrap(), scheme),
    ];
    let cat = materialized(&doc, &views);
    let _obs = ScopedEnable::new();
    for pool_pages in [2, 4] {
        let store = DiskStore::with_options(
            Arc::new(SimVfs::new()),
            StoreOptions {
                page_size: 32,
                pool_pages,
            },
        );
        store.publish_epoch(&cat, None).unwrap();

        smv::obs::global().reset();
        let disk = store.open().unwrap();
        for q in ["r(//b{id,v})", "r(//c{id})", "r(//*{id,l})"] {
            let query = parse_pattern(q).unwrap();
            let rewritten = rewrite(&query, &views, &summary, &RewriteOpts::default());
            assert!(!rewritten.rewritings.is_empty(), "{q} rewritable");
            let plan = &rewritten.rewritings[0].plan;
            let want = execute_with(plan, &cat, &ExecOpts::default()).unwrap();
            let got = execute_with(plan, &disk, &ExecOpts::default()).unwrap();
            assert_eq!(got.schema, want.schema, "{q}: schema");
            assert_eq!(got.rows, want.rows, "{q}: rows under pool pressure");
        }
        let stats = disk.pool().stats();
        assert!(
            stats.evictions > 0,
            "a {pool_pages}-page budget must evict, got {stats:?}"
        );
        assert!(stats.resident <= pool_pages as u64, "got {stats:?}");
        let snapshot = smv::obs::global().snapshot_json();
        assert!(
            snapshot.contains("store.pool.evict"),
            "evictions visible in the registry snapshot: {snapshot}"
        );
        assert!(smv::obs::global().counter("store.pool.evict") > 0);
    }
}

/// The crash-recovery property: a publish interrupted at *any* operation
/// index — hard stop, torn write, or lying fsync — leaves the store
/// recoverable, and recovery always lands on a fully published epoch
/// (the previous one, or the new one if it became durable). No partial
/// epoch is ever visible.
#[test]
fn crash_recovery_at_every_injected_fault_point() {
    let scheme = IdScheme::OrdPath;
    let mut ec = EpochCatalog::new(small_matrix_doc(), scheme);
    for (name, p) in [("bs", "r(//b{id,v})"), ("all", "r(//*{id,l,v})")] {
        ec.add_view(
            View::new(name, parse_pattern(p).unwrap(), scheme),
            RefreshPolicy::Eager,
        );
    }
    let cat1 = ec.snapshot();
    // the next epoch: the first `a` goes, a new one arrives
    let mut batch = UpdateBatch::new();
    let (doc, ids) = (ec.live().doc(), ec.live().ids());
    let first_a = doc.iter().find(|&n| doc.label(n).as_str() == "a").unwrap();
    batch.delete(ids.id(first_a).clone());
    batch.insert(
        ids.id(doc.root()).clone(),
        Document::from_parens(r#"a(b="8" b="9")"#),
    );
    ec.apply(&batch).expect("batch applies");
    let cat2 = ec.snapshot();
    let (e1, e2) = (cat1.epoch(), cat2.epoch());
    // pages small enough that a fault can tear a segment between pages
    let opts = StoreOptions {
        page_size: 16,
        pool_pages: 4,
    };

    // rehearsal: count the operations a clean two-epoch history takes
    let total_ops = {
        let vfs = SimVfs::new();
        let store = DiskStore::with_options(Arc::new(vfs.clone()), opts);
        store.publish_epoch(&cat1, None).unwrap();
        vfs.reset_ops();
        store.publish_epoch(&cat2, None).unwrap();
        let ops = vfs.op_count();
        for seg in vfs.list().iter().filter(|n| n.starts_with("seg-")) {
            let header = vfs.read_at(seg, 0, 24).unwrap();
            let pages = u32::from_le_bytes(header[12..16].try_into().unwrap());
            assert!(pages >= 3, "{seg} spans {pages} pages");
        }
        ops
    };
    // a write and an fsync per segment and for the summary, then the
    // manifest's write, fsync and rename
    assert_eq!(total_ops, 2 * 2 + 2 + 3, "one write per file");

    let mut outcomes = [0u64; 2]; // recovered the first / the second epoch
                                  // 0..total_ops are interior faults; fail_at == total_ops never fires,
                                  // proving the clean publish commits
    for fail_at in 0..=total_ops {
        for kind in [
            FaultKind::Stop,
            FaultKind::TornWrite,
            FaultKind::DroppedFsync,
        ] {
            let vfs = SimVfs::new();
            let store = DiskStore::with_options(Arc::new(vfs.clone()), opts);
            store.publish_epoch(&cat1, None).unwrap();
            vfs.reset_ops();
            vfs.set_fault(Some(FaultPlan { fail_at, kind }));
            let published = store.publish_epoch(&cat2, None).is_ok();
            vfs.crash();

            let disk = store
                .open()
                .unwrap_or_else(|e| panic!("unrecoverable after {kind:?}@{fail_at}: {e}"));
            let epoch = disk.epoch();
            assert!(
                epoch == e1 || epoch == e2,
                "{kind:?}@{fail_at}: recovered epoch {epoch}"
            );
            // a *real* crash fault that still reported success must have
            // committed; only a lying fsync may report Ok and roll back
            if published && kind != FaultKind::DroppedFsync {
                assert_eq!(epoch, e2, "{kind:?}@{fail_at}: Ok publish must be durable");
            }
            if !published {
                assert_eq!(
                    epoch, e1,
                    "{kind:?}@{fail_at}: failed publish must roll back"
                );
            }
            // whichever epoch recovered, it is complete and byte-exact
            let cat = if epoch == e1 { &cat1 } else { &cat2 };
            disk.warm().unwrap_or_else(|e| {
                panic!("{kind:?}@{fail_at}: recovered epoch {epoch} not loadable: {e}")
            });
            for name in ["bs", "all"] {
                let want = cat.extent(name).unwrap();
                let got = disk.load_extent(name).unwrap().unwrap();
                assert_eq!(got.rows, want.rows, "{kind:?}@{fail_at}: extent {name}");
            }
            let restored = disk
                .summary()
                .unwrap_or_else(|e| panic!("{kind:?}@{fail_at}: summary not loadable: {e}"))
                .expect("summary published");
            assert_eq!(
                restored.to_bytes(),
                cat.summary().to_bytes(),
                "{kind:?}@{fail_at}: summary restored exactly"
            );
            outcomes[usize::from(epoch == e2)] += 1;
        }
    }
    assert!(outcomes[0] > 0, "some faults must roll back: {outcomes:?}");
    assert!(outcomes[1] > 0, "some faults must commit: {outcomes:?}");
}

/// Reopening a store warm-starts both the summary and the feedback
/// store, and `apply` followed by `publish_epoch` makes maintenance
/// durable: after an update batch + crash, the reopened catalog serves
/// the new epoch.
#[test]
fn warm_start_and_durable_maintenance() {
    let scheme = IdScheme::OrdPath;
    let doc = pr7_document(0.02, 11);
    let mut epochs = EpochCatalog::new(doc, scheme);
    for v in pr7_views(scheme) {
        epochs.add_view(v, RefreshPolicy::Eager);
    }
    // learn something worth persisting
    let mut feedback = FeedbackStore::new();
    let snap = epochs.snapshot();
    learn(&mut feedback, &*snap, snap.summary(), "site(//name{id,v})");
    let vfs = SimVfs::new();
    let store = DiskStore::new(Arc::new(vfs.clone()));
    store
        .publish_epoch(&snap, Some(&feedback))
        .expect("initial publish");

    // maintenance: drop a few items, then publish durably, with the
    // feedback riding the epoch so a future reader warm-starts from it
    let mut batch = UpdateBatch::new();
    {
        let live = epochs.live();
        let doc = live.doc();
        for n in doc
            .iter()
            .filter(|&n| doc.label(n).as_str() == "item")
            .take(3)
        {
            batch.delete(live.ids().id(n).clone());
        }
    }
    epochs.apply(&batch).expect("maintenance applies");
    let snap = epochs.snapshot();
    store
        .publish_epoch(&snap, Some(&feedback))
        .expect("the maintained epoch publishes");

    // crash: only fsynced state survives
    vfs.crash();
    let mut disk = store.open().expect("reopen after crash");
    assert_eq!(disk.epoch(), snap.epoch(), "maintained epoch is durable");
    for v in snap.views() {
        let want = snap.extent(&v.name).unwrap();
        let got = disk.load_extent(&v.name).unwrap().unwrap();
        assert_eq!(got.rows, want.rows, "view {} after maintenance", v.name);
    }
    assert_eq!(
        disk.summary()
            .expect("summary loads")
            .expect("summary travels with the epoch")
            .to_bytes(),
        snap.summary().to_bytes()
    );
    let fb = disk
        .take_feedback()
        .expect("feedback loads")
        .expect("feedback travels with the epoch");
    assert_eq!(fb.to_bytes(), feedback.to_bytes(), "feedback warm-starts");
}
