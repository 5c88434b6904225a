//! Turns what the segments observed into the named metrics of
//! `BENCHMARK.json`: the end-to-end ones from an untraced run, the
//! per-layer ones from the traced replay.

use crate::layers::{ColdRead, Decomposed, IoCounts, ServeCounts, SetupFacts, UpdateReport};
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::Tracer;
use crate::workloads::{Kind, Run, Segment, Workload};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Clone, Copy)]
enum Better {
    Lower,
    Higher,
}

/// The best of a statistic taken per window (or per update): the lowest
/// time, the highest rate. A run holds hundreds of windows of 30-700 ms;
/// the shared host's noise only ever adds time to some of them, so the
/// quietest one is the estimate that repeats (README, "Noise").
fn best(values: impl Iterator<Item = f64>, better: Better) -> f64 {
    match better {
        Better::Lower => values.fold(f64::INFINITY, f64::min),
        Better::Higher => values.fold(0.0, f64::max),
    }
}

/// Every window of `window` consecutive latency samples in the run.
fn windows(run: &Run, window: usize) -> impl Iterator<Item = &[f64]> {
    run.segments
        .iter()
        .flat_map(move |s| s.latencies_us.chunks(window))
}

/// `adhoc` and `coldstore` go through their request classes in a fixed
/// rotation, so position `i` of every window is the same class: the
/// quietest window is then taken class by class, each position's lowest
/// time in the run. One `adhoc` window lasts 100 ms, longer than the host's
/// quiet stretches when it is busy, and the best whole window then read
/// 10-25 % above this. `hot` and `churn` draw their texts at random, so
/// their positions are no classes.
fn quietest_by_class(w: &Workload, run: &Run) -> Option<Vec<f64>> {
    if !matches!(w.kind, Kind::Adhoc | Kind::Coldstore) {
        return None;
    }
    let mut quietest = vec![f64::INFINITY; w.window];
    for lat in windows(run, w.window).filter(|lat| lat.len() == w.window) {
        for (q, &l) in quietest.iter_mut().zip(lat) {
            *q = q.min(l);
        }
    }
    Some(quietest)
}

/// Requests per second of a window: in a closed loop a request's latency
/// is the time it occupied the client, so the rate is the samples ÷ their
/// sum (`hot`'s block of 64 cancels out).
fn rate(lat: &[f64]) -> f64 {
    1e6 * lat.len() as f64 / lat.iter().sum::<f64>()
}

/// Requests per second in the quietest window. `churn` counts the
/// requests answered on time, which come in whole bursts: one interval can
/// only read in steps of 2.9 %, so its rate is that of the best quarter of
/// the run's intervals taken together.
pub fn throughput(w: &Workload, run: &Run) -> f64 {
    if w.kind == Kind::Churn {
        let mut rates: Vec<f64> = run.segments.iter().map(|s| s.qps(w.kind)).collect();
        rates.sort_unstable_by(|a, b| b.total_cmp(a));
        return mean(&rates[..rates.len().div_ceil(4)]);
    }
    match quietest_by_class(w, run) {
        Some(quietest) => rate(&quietest),
        None => best(windows(run, w.window).map(rate), Better::Higher),
    }
}

pub fn end_to_end(
    w: &Workload,
    setup_s: f64,
    run: &Run,
    stored_bytes_per_doc_byte: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let quantile = |p: f64| match quietest_by_class(w, run) {
        Some(quietest) => percentile(&quietest, p),
        None => best(
            windows(run, w.window).map(|lat| percentile(lat, p)),
            Better::Lower,
        ),
    };
    vec![
        metric("setup_s", setup_s, "s"),
        metric("query_p50_us", quantile(0.5), "us"),
        metric("query_p95_us", quantile(0.95), "us"),
        metric("query_qps", throughput(w, run), "1/s"),
        metric(
            "stored_bytes_per_doc_byte",
            stored_bytes_per_doc_byte,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// What the traced run gathered beside its spans.
pub struct Traced<'a> {
    pub facts: SetupFacts,
    pub xml_bytes: usize,
    pub spans: &'a Tracer,
    /// The traced segments.
    pub run: &'a Run,
    pub traced_qps: f64,
    pub untraced_qps: f64,
    pub served: ServeCounts,
    /// Each missed request's replay, with the latency the service
    /// reported when it served that text.
    pub replays: &'a [(Decomposed, Option<u64>)],
    /// Spans `smv::obs` recorded during the traced round.
    pub obs_spans: usize,
    /// The disk ≡ memory gate's cold reads, one per pool plan, and what
    /// they read from the file system.
    pub cold_reads: &'a [ColdRead],
    pub cold_io: IoCounts,
    pub segment_bytes: u64,
    pub cores: usize,
    pub calib_ms: f64,
}

/// The median of values collected on the spot.
fn med(values: Vec<f64>) -> f64 {
    median(&values)
}

/// The per-layer metrics, one row per layer of ARCHITECTURE.md.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let span_ms = |name: &str| med(t.spans.durations_ms(name));
    let segments = &t.run.segments;
    let updates: Vec<&UpdateReport> = segments.iter().filter_map(|s| s.update.as_ref()).collect();
    let per_update = |f: &dyn Fn(&UpdateReport) -> f64| med(updates.iter().map(|u| f(u)).collect());
    let mean_per_update =
        |f: &dyn Fn(&UpdateReport) -> f64| mean(&updates.iter().map(|u| f(u)).collect::<Vec<_>>());
    let pooled = |f: &dyn Fn(&Segment) -> &Vec<f64>| -> Vec<f64> {
        segments.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let replay = |f: &dyn Fn(&Decomposed) -> f64| -> Vec<f64> {
        t.replays.iter().map(|(d, _)| f(d)).collect()
    };
    let rewritten: Vec<&Decomposed> = t
        .replays
        .iter()
        .map(|(d, _)| d)
        .filter(|d| d.rewritings > 0)
        .collect();

    let parse_ms = span_ms("xml.parse_document");
    let requests: f64 = segments.iter().map(|s| s.requests as f64).sum();
    let reads = t.cold_reads.len() as f64;
    let pool_hits: u64 = t.cold_reads.iter().map(|c| c.pool_hits).sum();
    let pool_misses: u64 = t.cold_reads.iter().map(|c| c.pool_misses).sum();
    let pool_evictions: u64 = t.cold_reads.iter().map(|c| c.pool_evictions).sum();

    vec![
        // xml
        metric("xml.parse_ms", parse_ms, "ms"),
        metric(
            "xml.parse_mb_per_s",
            ratio(t.xml_bytes as f64 / 1e6, parse_ms / 1e3),
            "MB/s",
        ),
        metric(
            "xml.live_ingest_ms",
            per_update(&|u| u.ingest_ns as f64 / 1e6),
            "ms",
        ),
        // summary
        metric("summary.build_ms", span_ms("summary.of"), "ms"),
        metric("summary.paths", t.facts.summary_paths as f64, "count"),
        // pattern
        metric(
            "pattern.parse_us",
            med(replay(&|d| d.parse_ns as f64 / 1e3)),
            "us",
        ),
        metric(
            "pattern.canonical_us",
            med(replay(&|d| d.canonical_ns as f64 / 1e3)),
            "us",
        ),
        // advisor
        metric("advisor.mine_ms", span_ms("advisor.mine_candidates"), "ms"),
        metric("advisor.advise_ms", span_ms("advisor.advise"), "ms"),
        metric("advisor.views_chosen", t.facts.views_chosen as f64, "count"),
        metric("advisor.bytes_chosen", t.facts.bytes_chosen, "bytes"),
        // views
        metric("views.materialize_ms", span_ms("serve.add_views"), "ms"),
        metric(
            "views.materialize_rows",
            t.facts.materialized_rows as f64,
            "count",
        ),
        metric(
            "views.maintain_ms",
            per_update(&|u| u.maintain_ns as f64 / 1e6),
            "ms",
        ),
        metric(
            "views.epoch_publish_us",
            per_update(&|u| u.epoch_publish_ns as f64 / 1e3),
            "us",
        ),
        metric(
            "views.rows_killed_per_batch",
            mean_per_update(&|u| u.rows_killed as f64),
            "count",
        ),
        metric(
            "views.rows_added_per_batch",
            mean_per_update(&|u| u.rows_added as f64),
            "count",
        ),
        metric(
            "views.refreshed_per_batch",
            mean_per_update(&|u| u.views_refreshed as f64),
            "count",
        ),
        // core
        metric(
            "core.rewrite_ms",
            med(replay(&|d| d.rewrite_ns as f64 / 1e6)),
            "ms",
        ),
        metric(
            "core.rewrite_setup_ms",
            med(replay(&|d| d.rewrite_setup_ns as f64 / 1e6)),
            "ms",
        ),
        metric(
            "core.first_rewriting_ms",
            med(t
                .replays
                .iter()
                .filter_map(|(d, _)| d.first_rewriting_ns)
                .map(|ns| ns as f64 / 1e6)
                .collect()),
            "ms",
        ),
        metric(
            "core.pairs_explored",
            mean(&replay(&|d| d.pairs_explored as f64)),
            "count",
        ),
        metric(
            "core.pairs_pruned",
            mean(&replay(&|d| d.pairs_pruned as f64)),
            "count",
        ),
        metric(
            "core.views_kept_ratio",
            ratio(
                replay(&|d| d.views_kept as f64).iter().sum(),
                replay(&|d| d.views_total as f64).iter().sum(),
            ),
            "ratio",
        ),
        metric(
            "core.rewritings_found",
            mean(&replay(&|d| d.rewritings as f64)),
            "count",
        ),
        metric(
            "core.no_rewriting_ratio",
            ratio(
                (t.replays.len() - rewritten.len()) as f64,
                t.replays.len() as f64,
            ),
            "ratio",
        ),
        // algebra
        metric(
            "algebra.execute_us",
            med(rewritten
                .iter()
                .map(|d| d.execute_ns as f64 / 1e3)
                .collect()),
            "us",
        ),
        metric(
            "algebra.rows_out",
            mean(
                &rewritten
                    .iter()
                    .map(|d| d.rows_out as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric(
            "algebra.rows_examined_per_row_out",
            ratio(
                rewritten.iter().map(|d| d.rows_examined as f64).sum(),
                rewritten.iter().map(|d| d.rows_out as f64).sum(),
            ),
            "ratio",
        ),
        metric(
            "algebra.estimate_q_error",
            med(rewritten.iter().map(|d| d.q_error).collect()),
            "ratio",
        ),
        // serve
        metric(
            "serve.hit_path_ns",
            med(pooled(&|s| &s.hit_latency_ns)),
            "ns",
        ),
        metric(
            "serve.miss_path_ms",
            med(pooled(&|s| &s.miss_latency_ns)) / 1e6,
            "ms",
        ),
        metric(
            "serve.self_us",
            med(t
                .replays
                .iter()
                .filter_map(|(d, served_ns)| {
                    let replayed = d.parse_ns + d.canonical_ns + d.rewrite_ns + d.execute_ns;
                    Some(((*served_ns)? as f64 - replayed as f64) / 1e3)
                })
                .collect()),
            "us",
        ),
        metric(
            "serve.pattern_hit_ratio",
            ratio(t.served.pattern_hits as f64, t.served.queries as f64),
            "ratio",
        ),
        metric(
            "serve.plan_hit_ratio",
            ratio(t.served.plan_hits as f64, t.served.queries as f64),
            "ratio",
        ),
        metric(
            "serve.result_hit_ratio",
            ratio(t.served.result_hits as f64, t.served.queries as f64),
            "ratio",
        ),
        metric(
            "serve.results_invalidated_per_batch",
            ratio(t.served.results_invalidated as f64, updates.len() as f64),
            "count",
        ),
        metric(
            "serve.apply_sweep_us",
            per_update(&|u| {
                (u.apply_ns as f64 - (u.ingest_ns + u.maintain_ns + u.epoch_publish_ns) as f64)
                    / 1e3
            }),
            "us",
        ),
        metric(
            "serve.reader_stall_ms",
            med(segments.iter().map(|s| s.reader_stall_ms).collect()),
            "ms",
        ),
        metric(
            "serve.sched_intra_ratio",
            ratio(t.served.sched_intra as f64, t.served.queries as f64),
            "ratio",
        ),
        // store
        metric(
            "store.publish_ms",
            per_update(&|u| u.store_publish_ns as f64 / 1e6),
            "ms",
        ),
        metric(
            "store.bytes_written_per_batch",
            per_update(&|u| u.io.written_bytes as f64),
            "bytes",
        ),
        metric(
            "store.write_amp",
            per_update(&|u| ratio(u.io.written_bytes as f64, u.batch_xml_bytes as f64)),
            "ratio",
        ),
        metric(
            "store.fsyncs_per_publish",
            per_update(&|u| u.io.fsyncs as f64),
            "count",
        ),
        metric("store.open_ms", span_ms("store.open"), "ms"),
        metric("store.decode_ms", span_ms("store.load_extent"), "ms"),
        metric(
            "store.bytes_read_per_query",
            ratio(t.cold_io.read_bytes as f64, reads),
            "bytes",
        ),
        metric(
            "store.pages_read_per_query",
            ratio(pool_misses as f64, reads),
            "count",
        ),
        metric(
            "store.pool_hit_ratio",
            ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
            "ratio",
        ),
        metric(
            "store.pool_evictions_per_query",
            ratio(pool_evictions as f64, reads),
            "count",
        ),
        metric("store.segment_bytes", t.segment_bytes as f64, "bytes"),
        // the whole update, too noisy on the shared builder to carry a bound
        metric(
            "update.visible_durable_ms",
            best(segments.iter().filter_map(|s| s.update_ms()), Better::Lower),
            "ms",
        ),
        // obs
        metric(
            "obs.tracing_overhead_ratio",
            ratio(t.traced_qps, t.untraced_qps),
            "ratio",
        ),
        metric(
            "obs.spans_per_request",
            ratio(t.obs_spans as f64, requests),
            "count",
        ),
        // host
        metric("host.cores", t.cores as f64, "count"),
        metric("host.calib_ms", t.calib_ms, "ms"),
        metric(
            "host.generator_lag_p95_us",
            percentile(&t.run.generator_lag_us, 0.95),
            "us",
        ),
    ]
}
