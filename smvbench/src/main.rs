//! `smvbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! smvbench --workload <hot|adhoc|churn|coldstore> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced replay that yields the per-layer
//! metrics. The last line of standard output is the result as JSON.
//! README.md defines every workload and metric.

mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use layers::{generate_xml, System};
use report::{end_to_end, per_layer, throughput, Metric, Traced};
use stats::{calibrate, peak_rss_mb};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{run_segments, Kind, Run, Script, Workload, WORKLOADS};

/// Missed requests replayed decomposed by a traced run, at most.
const MAX_REPLAYS: usize = 200;

/// Segments the traced run replays, once untraced and once traced.
const TRACED_SEGMENTS: usize = 6;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where this run keeps its store and trace: beside the executable, which
/// is inside the checkout's build directory.
fn work_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?;
    Ok(dir.join("smvbench-work"))
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn log_segments(kind: Kind, run: &Run) {
    for (index, seg) in run.segments.iter().enumerate() {
        eprintln!(
            "segment {index}: p50 {:.3} us  p95 {:.3} us  qps {:.1}  update {:.2} ms  failed {}",
            stats::percentile(&seg.latencies_us, 0.5),
            stats::percentile(&seg.latencies_us, 0.95),
            seg.qps(kind),
            seg.update_ms().unwrap_or(0.0),
            seg.failed,
        );
        for e in &seg.errors {
            eprintln!("  error: {e}");
        }
    }
    if !run.generator_lag_us.is_empty() {
        eprintln!(
            "generator lag p95: {:.1} us",
            stats::percentile(&run.generator_lag_us, 0.95)
        );
    }
}

/// The correctness gates, on the pool plans (ranked here unless set-up did).
fn run_gates(sys: &System, script: &mut Script, tr: &mut Tracer) -> Result<layers::Gates, String> {
    if script.plans.is_empty() {
        script.plans = Script::pool()
            .iter()
            .map(|text| sys.rank(text))
            .collect::<Result<_, _>>()?;
    }
    let texts = script.gate_texts();
    let gates = sys.check_gates(&texts, &script.plans, tr);
    for f in &gates.failures {
        eprintln!("gate failed: {f}");
    }
    Ok(gates)
}

fn run_end_to_end(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let xml = generate_xml(w.scale, seed);
    let mut script = Script::new(w.kind, seed);

    // set-up, from the XML text to a warm system, several times over: half
    // of the builds before the measured phase and half after it, because a
    // slow stretch of the host often outlasts the few seconds they take
    let mut setups = Vec::new();
    let mut build = |script: &mut Script| -> Result<System, String> {
        let t = Instant::now();
        let dir = work.join(format!("store-{}", setups.len()));
        let (sys, _) = System::build(&xml, seed, &dir, w.shape, &mut Tracer::off())?;
        script.warm(&sys)?;
        setups.push(t.elapsed().as_secs_f64());
        Ok(sys)
    };
    let early_builds = w.setup_builds.div_ceil(2);
    let mut system = None;
    for _ in 0..early_builds {
        drop(system.take());
        system = Some(build(&mut script)?);
    }
    let sys = system.ok_or("a workload needs at least one build")?;

    // the measured phase: segments of fixed work, for about `seconds`
    let segments = ((seconds / w.segment_seconds).round() as usize).max(2);
    let calib_before = calibrate();
    let deadline = Instant::now() + Duration::from_secs_f64(1.5 * seconds);
    let run = run_segments(
        &sys,
        &mut script,
        segments,
        0,
        Some(deadline),
        &mut Tracer::off(),
    );
    eprintln!(
        "calibration: {calib_before:.1} ms before, {:.1} ms after",
        calibrate()
    );
    log_segments(w.kind, &run);

    let mut attempted: u64 = run.segments.iter().map(|s| s.attempted()).sum();
    let mut failed: u64 = run.segments.iter().map(|s| s.failed).sum();
    let gates = run_gates(&sys, &mut script, &mut Tracer::off())?;
    attempted += gates.checks;
    failed += gates.failures.len() as u64;

    let stored = sys.stored_bytes() as f64 / sys.doc_bytes() as f64;
    drop(sys);
    for _ in early_builds..w.setup_builds {
        drop(build(&mut script)?);
    }
    eprintln!("setup builds: {setups:.3?} s");
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let metrics = end_to_end(w, setup_s, &run, stored, peak_rss_mb());
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}

fn run_traced(w: &Workload, seed: u64, work: &Path) -> Result<Outcome, String> {
    let mut tr = Tracer::on(Instant::now(), 0);
    let xml = generate_xml(w.scale, seed);
    let mut script = Script::new(w.kind, seed);
    let (sys, facts) = System::build(&xml, seed, &work.join("store"), w.shape, &mut tr)?;
    let warm = tr.enter("setup.warm", None);
    script.warm(&sys)?;
    tr.exit(warm);
    eprintln!(
        "document: {} nodes, {} bytes; {} views",
        facts.doc_nodes,
        xml.len(),
        facts.views_total
    );

    // the same segments twice: untraced, then with the harness's spans and
    // the library's tracing on; their throughputs give the overhead
    let plain = run_segments(
        &sys,
        &mut script,
        TRACED_SEGMENTS,
        0,
        None,
        &mut Tracer::off(),
    );
    log_segments(w.kind, &plain);
    let plain_requests: u64 = plain.segments.iter().map(|s| s.requests).sum();
    let calib_ms = calibrate();
    let served_before = sys.serve_counts();
    let obs = layers::obs_on();
    let run = run_segments(
        &sys,
        &mut script,
        TRACED_SEGMENTS,
        plain_requests,
        None,
        &mut tr,
    );
    let obs_spans = layers::obs_drain_span_count();
    drop(obs);
    let served = sys.serve_counts() - served_before;
    log_segments(w.kind, &run);

    // take the miss path apart: each distinct missed text, replayed outside
    // the service (`coldstore` asks the service nothing, so its pool is
    // replayed in their place)
    let mut seen = HashSet::new();
    let mut replays = Vec::new();
    for miss in run.segments.iter().flat_map(|s| &s.misses) {
        if replays.len() < MAX_REPLAYS && seen.insert(miss.text.as_str()) {
            let d = sys.replay(&miss.text, replays.len() as u64, &mut tr)?;
            replays.push((d, Some(miss.latency_ns)));
        }
    }
    if replays.is_empty() {
        for text in Script::pool() {
            replays.push((sys.replay(&text, replays.len() as u64, &mut tr)?, None));
        }
    }

    let gates = run_gates(&sys, &mut script, &mut tr)?;
    let both = || plain.segments.iter().chain(&run.segments);
    let attempted =
        both().map(|s| s.attempted()).sum::<u64>() + replays.len() as u64 + gates.checks;
    let failed = both().map(|s| s.failed).sum::<u64>() + gates.failures.len() as u64;
    let (traced_qps, untraced_qps) = (throughput(w, &run), throughput(w, &plain));

    let metrics = per_layer(&Traced {
        facts,
        xml_bytes: xml.len(),
        spans: &tr,
        run: &run,
        traced_qps,
        untraced_qps,
        served,
        replays: &replays,
        obs_spans,
        cold_reads: &gates.cold_reads,
        cold_io: gates.cold_io,
        segment_bytes: sys.segment_bytes(),
        cores: layers::host_cores(),
        calib_ms,
    });
    let trace_file = work
        .parent()
        .unwrap_or(work)
        .join(format!("{}.trace.json", w.name));
    tr.write_json(&trace_file, w.name, seed)
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
    eprintln!("trace written to {}", trace_file.display());
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}

fn print_result(outcome: &Outcome) {
    let mut all_finite = true;
    let mut fields = Vec::new();
    for m in &outcome.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
        all_finite &= m.value.is_finite();
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let correct = outcome.failed == 0 && all_finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smvbench: {e}");
            eprintln!(
                "usage: smvbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let work = match work_root() {
        Ok(root) => root.join(format!("{}-{}-{}", w.name, args.seed, std::process::id())),
        Err(e) => {
            eprintln!("smvbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.trace {
        run_traced(w, args.seed, &work)
    } else {
        run_end_to_end(w, args.seed, args.seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        // a failed operation is reported in the result, not by the exit code
        Ok(outcome) => {
            print_result(&outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smvbench: {e}");
            ExitCode::FAILURE
        }
    }
}
