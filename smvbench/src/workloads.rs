//! The four workloads. Each is a fixed script: `--seed` decides the
//! document, the request order, the predicate constants and the update
//! batches, and a round always performs the same number of operations.
//! README.md says why each workload exists and what it is sized against.

use crate::layers::{PoolPlan, Reply, StoreShape, System, UpdateReport};
use crate::stats::{zipf_sequence, Rng};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Adhoc,
    Churn,
    Coldstore,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `pr7_document` scale: 10 ≈ 93 k nodes / 1.8 MB, 30 ≈ 280 k / 5.5 MB.
    pub scale: f64,
    /// From-scratch builds per run; `setup_s` is the fastest.
    pub setup_builds: usize,
    /// Seconds one segment (a fixed number of requests and one update)
    /// takes on a quiet builder; `--seconds` ÷ this is the number of
    /// segments a run measures.
    pub segment_seconds: f64,
    /// Consecutive latency samples per window; the latency metrics (and a
    /// closed loop's `query_qps`) are those of the run's best window. A
    /// window holds every request class in its fixed share.
    pub window: usize,
    pub shape: StoreShape,
}

const DEFAULT_SHAPE: StoreShape = StoreShape {
    pool_pages: 128,
    page_size: 4096,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hot",
        kind: Kind::Hot,
        scale: 10.0,
        setup_builds: 8,
        segment_seconds: 0.7,
        // 4,096 requests, about 1.5 ms: the host's fast stretches are short
        // (of 3 ms windows the best was a lone outlier, 10 % below the next)
        window: 64,
        shape: DEFAULT_SHAPE,
    },
    Workload {
        name: "adhoc",
        kind: Kind::Adhoc,
        scale: 10.0,
        setup_builds: 8,
        segment_seconds: 0.8,
        // every template once
        window: 8,
        shape: DEFAULT_SHAPE,
    },
    Workload {
        name: "churn",
        kind: Kind::Churn,
        scale: 10.0,
        setup_builds: 8,
        segment_seconds: 0.7,
        // one burst
        window: 2500,
        shape: DEFAULT_SHAPE,
    },
    Workload {
        name: "coldstore",
        kind: Kind::Coldstore,
        scale: 30.0,
        setup_builds: 4,
        segment_seconds: 1.45,
        // every pool plan once
        window: 11,
        // 64 KB of pool against several hundred KB of segments: pages are
        // evicted in the middle of a scan
        shape: StoreShape {
            pool_pages: 16,
            page_size: 4096,
        },
    },
];

/// Child-axis queries over the advised views: ranking one costs 1-4 ms.
const CHILD_POOL: [&str; 8] = [
    "site(/open_auctions(/open_auction{id}(/initial{v})))",
    "site(/open_auctions(/open_auction{id}(/current{v})))",
    "site(/people(/person{id}(/name{v})))",
    "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}))))",
    "site(/people(/person{id}(/emailaddress{v})))",
    "site(/closed_auctions(/closed_auction{id}(/price{v}[v>400])))",
    "site(/regions(/asia(/item{id}(/name{v}))))",
    "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v})))",
];

/// Descendant-axis queries over the update workload's views: ranking one
/// costs 40-80 ms.
const DESCENDANT_POOL: [&str; 3] = [
    "site(//name{id,v})",
    "site(//item{id}(/name{id,v}))",
    "site(//quantity{id,v})",
];

/// Respellings of the four hottest texts: other keys of the pattern
/// cache, the same canonical form below it.
const RESPELLED: [&str; 4] = [
    "site( /open_auctions( /open_auction{id}( /initial{v} ) ) )",
    "site(/open_auctions(/open_auction{ id }(/current{ v })))",
    "site ( / people ( / person { id } ( / name { v } ) ) )",
    "site(/open_auctions (/open_auction{id} (/bidder (/increase{v}))))",
];

/// `adhoc` templates with the value range of the element `@` stands on;
/// `@` takes a predicate no request has used before.
const ADHOC_CHILD: [(&str, u64, u64); 6] = [
    (
        "site(/open_auctions(/open_auction{id}(/initial{v}[@])))",
        0,
        200,
    ),
    (
        "site(/open_auctions(/open_auction{id}(/current{v}[@])))",
        0,
        500,
    ),
    (
        "site(/open_auctions(/open_auction{id}(/bidder(/increase{v}[@]))))",
        0,
        50,
    ),
    (
        "site(/closed_auctions(/closed_auction{id}(/price{v}[@])))",
        400,
        1000,
    ),
    (
        "site(/open_auctions(/open_auction{id}(/initial{v}[@], /current{v})))",
        0,
        200,
    ),
    (
        "site(/open_auctions(/open_auction{id}(/initial{v}, /current{v}[@])))",
        0,
        500,
    ),
];

const ADHOC_DESCENDANT: [(&str, u64, u64); 2] = [
    ("site(//quantity{id,v}[@])", 0, 10),
    ("site(//quantity{v}[@])", 0, 10),
];

// A segment is a fixed number of requests followed by one update:
// hot: 16,000 blocks × 64 = 1.024 M requests
const HOT_BLOCKS: usize = 16_000;
const HOT_BLOCK: usize = 64;
const HOT_SEQUENCE: usize = 1 << 20;
// adhoc: 32 requests, three child-axis then one descendant-axis
const ADHOC_REQUESTS: usize = 32;
// coldstore: the 11 pool plans, eight times round
const COLD_REQUESTS: usize = 88;
// churn: 125,000 requests/s in bursts of 2,500, one burst every 20 ms, the
// update due in the middle of each 0.7 s. At 5 % of what `hot` sustains the
// client is never the bottleneck. The requests come in bursts because one
// that follows even 20 µs of idle spinning meets caches the host's other
// tenants have emptied and cannot be timed on the shared builder (its 95th
// percentile spread 0.19-0.46 over ten seeds); in a burst only the first
// 50 are cold, about 50 µs of the 550 before the median request is answered.
const CHURN_BURST: usize = 2500;
const CHURN_PERIOD: Duration = Duration::from_millis(20);
const CHURN_INTERVAL: Duration = Duration::from_millis(700);
const CHURN_SEQUENCE: usize = 1 << 14;
/// A request answered within this of its due time counts for `query_qps`.
const ON_TIME: Duration = Duration::from_millis(10);

/// The seed-derived inputs of a run, and the cursor through them.
pub struct Script {
    kind: Kind,
    /// Texts the Zipf sequence indexes (`hot`, `churn`).
    texts: Vec<String>,
    sequence: Vec<u8>,
    cursor: usize,
    rng: Rng,
    /// Next unused upper bound of an `adhoc` predicate.
    fresh: u64,
    /// Pre-ranked plans (`coldstore`; every workload's disk ≡ memory gate).
    pub plans: Vec<PoolPlan>,
}

impl Script {
    pub fn new(kind: Kind, seed: u64) -> Script {
        let mut rng = Rng::new(seed);
        let mut texts: Vec<String> = CHILD_POOL.iter().map(|s| s.to_string()).collect();
        if kind == Kind::Hot {
            texts.extend(RESPELLED.iter().map(|s| s.to_string()));
        }
        let sequence = match kind {
            Kind::Hot => zipf_sequence(&mut rng, texts.len(), HOT_SEQUENCE),
            Kind::Churn => zipf_sequence(&mut rng, texts.len(), CHURN_SEQUENCE),
            _ => Vec::new(),
        };
        Script {
            kind,
            texts,
            sequence,
            cursor: 0,
            fresh: 1_000_000 + (seed % 1_000) * 1_000_000,
            rng,
            plans: Vec::new(),
        }
    }

    /// The 11 distinct pool queries.
    pub fn pool() -> Vec<String> {
        CHILD_POOL
            .iter()
            .chain(&DESCENDANT_POOL)
            .map(|s| s.to_string())
            .collect()
    }

    /// A never-seen text of `adhoc`'s `k`-th request slot: a range
    /// predicate whose lower bound is drawn from the lower half of the
    /// element's values and whose upper bound no request has used.
    fn adhoc_text(&mut self, k: usize) -> String {
        let (template, lo, hi) = if k % 4 == 3 {
            ADHOC_DESCENDANT[(k / 4) % ADHOC_DESCENDANT.len()]
        } else {
            ADHOC_CHILD[(k - k / 4) % ADHOC_CHILD.len()]
        };
        let lower = lo + self.rng.below((hi - lo) / 2);
        self.fresh += 1;
        template.replace('@', &format!("v>{lower} and v<{}", self.fresh))
    }

    /// The texts whose served rows the cached ≡ fresh gate checks.
    pub fn gate_texts(&mut self) -> Vec<String> {
        match self.kind {
            Kind::Adhoc => (0..8).map(|k| self.adhoc_text(k)).collect(),
            Kind::Coldstore => Script::pool(),
            Kind::Hot | Kind::Churn => self.texts.clone(),
        }
    }

    /// The last step of set-up: one pass over the workload's query pool,
    /// so every cache layer the workload relies on is filled.
    pub fn warm(&mut self, sys: &System) -> Result<(), String> {
        match self.kind {
            Kind::Hot | Kind::Churn => {
                for text in &self.texts {
                    sys.query(text)?;
                }
            }
            Kind::Adhoc => {
                for k in 0..8 {
                    let text = self.adhoc_text(k);
                    sys.query(&text)?;
                }
            }
            Kind::Coldstore => {
                self.plans = Script::pool()
                    .iter()
                    .map(|text| sys.rank(text))
                    .collect::<Result<_, _>>()?;
                for (i, plan) in self.plans.iter().enumerate() {
                    sys.cold_read(plan, i as u64, &mut Tracer::off())?;
                }
            }
        }
        Ok(())
    }
}

/// A request that missed the result cache, kept for the decomposed replay.
pub struct Miss {
    pub text: String,
    pub latency_ns: u64,
}

/// What one segment observed: a fixed number of requests, then one update.
#[derive(Default)]
pub struct Segment {
    /// One sample per request in µs, timed by the harness from the
    /// moment the request was due (`hot`: per block of 64, ÷ 64).
    pub latencies_us: Vec<f64>,
    pub requests: u64,
    /// Seconds the requests had: the wall time before the update call,
    /// or the length of `churn`'s interval.
    pub query_seconds: f64,
    /// `churn`: requests answered within [`ON_TIME`] of their due time.
    pub on_time: u64,
    pub update: Option<UpdateReport>,
    pub failed: u64,
    pub errors: Vec<String>,
    // what only the traced run reads
    pub hit_latency_ns: Vec<f64>,
    pub miss_latency_ns: Vec<f64>,
    pub misses: Vec<Miss>,
    /// `churn`: the longest delay of a request due in this interval, ms.
    pub reader_stall_ms: f64,
}

impl Segment {
    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// Requests and the update.
    pub fn attempted(&self) -> u64 {
        self.requests + 1
    }

    /// Requests per second over the whole segment (`churn`: those
    /// answered on time).
    pub fn qps(&self, kind: Kind) -> f64 {
        let answered = if kind == Kind::Churn {
            self.on_time
        } else {
            self.requests - self.failed.min(self.requests)
        };
        answered as f64 / self.query_seconds
    }

    pub fn update_ms(&self) -> Option<f64> {
        self.update
            .as_ref()
            .map(|u| (u.apply_ns + u.store_publish_ns) as f64 / 1e6)
    }

    fn note_reply(&mut self, text: &str, reply: Reply, keep: bool) {
        if !keep {
            return;
        }
        if reply.result_hit {
            self.hit_latency_ns.push(reply.latency_ns as f64);
        } else {
            self.miss_latency_ns.push(reply.latency_ns as f64);
            self.misses.push(Miss {
                text: text.to_string(),
                latency_ns: reply.latency_ns,
            });
        }
    }

    fn apply_update(&mut self, sys: &System, tr: &mut Tracer) {
        match sys.update(tr) {
            Ok(report) => self.update = Some(report),
            Err(e) => self.fail(e),
        }
    }
}

pub struct Run {
    pub segments: Vec<Segment>,
    /// `churn`: how late an idle generator issued a request, µs.
    pub generator_lag_us: Vec<f64>,
}

/// Runs `segments` segments of the script. `first_request` numbers the
/// requests in the trace; past `deadline` a closed loop stops early, so a
/// host half as fast as the builder still ends the run in time.
pub fn run_segments(
    sys: &System,
    script: &mut Script,
    segments: usize,
    first_request: u64,
    deadline: Option<Instant>,
    tr: &mut Tracer,
) -> Run {
    if script.kind == Kind::Churn {
        return churn(sys, script, segments, first_request, tr);
    }
    let mut out = Vec::new();
    let mut request = first_request;
    for index in 0..segments {
        if index >= 2 && deadline.is_some_and(|d| Instant::now() > d) {
            eprintln!("stopping after {index} of {segments} segments: host is slow");
            break;
        }
        let mut seg = Segment::default();
        match script.kind {
            Kind::Hot => hot_requests(sys, script, request, &mut seg, tr),
            Kind::Adhoc => adhoc_requests(sys, script, request, &mut seg, tr),
            Kind::Coldstore => cold_requests(sys, script, request, &mut seg, tr),
            Kind::Churn => unreachable!("churn has its own driver"),
        }
        request += seg.requests;
        seg.apply_update(sys, tr);
        out.push(seg);
    }
    Run {
        segments: out,
        generator_lag_us: Vec::new(),
    }
}

fn hot_requests(sys: &System, script: &mut Script, first: u64, seg: &mut Segment, tr: &mut Tracer) {
    let keep = tr.is_on();
    let started = Instant::now();
    for block in 0..HOT_BLOCKS {
        // a request costs less than 1 µs and a clock read 25 ns, so one
        // sample (and one span) is 64 consecutive requests
        let span = tr.enter("serve.query_x64", Some(first + (block * HOT_BLOCK) as u64));
        let t = Instant::now();
        let mut last = None;
        for _ in 0..HOT_BLOCK {
            let text = &script.texts[script.sequence[script.cursor] as usize];
            script.cursor = (script.cursor + 1) % script.sequence.len();
            match sys.query(text) {
                Ok(reply) => {
                    if !reply.result_hit {
                        seg.note_reply(text, reply, keep);
                    }
                    last = Some(reply);
                }
                Err(e) => seg.fail(e),
            }
        }
        let elapsed = t.elapsed();
        tr.exit(span);
        seg.latencies_us
            .push(elapsed.as_secs_f64() * 1e6 / HOT_BLOCK as f64);
        if let Some(reply) = last.filter(|r| keep && r.result_hit) {
            seg.hit_latency_ns.push(reply.latency_ns as f64);
        }
    }
    seg.requests = (HOT_BLOCKS * HOT_BLOCK) as u64;
    seg.query_seconds = started.elapsed().as_secs_f64();
}

fn adhoc_requests(
    sys: &System,
    script: &mut Script,
    first: u64,
    seg: &mut Segment,
    tr: &mut Tracer,
) {
    let keep = tr.is_on();
    let texts: Vec<String> = (0..ADHOC_REQUESTS).map(|k| script.adhoc_text(k)).collect();
    let started = Instant::now();
    for (k, text) in texts.iter().enumerate() {
        let t = Instant::now();
        let reply = tr.time("serve.query", Some(first + k as u64), || sys.query(text));
        seg.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        match reply {
            Ok(reply) => seg.note_reply(text, reply, keep),
            Err(e) => seg.fail(e),
        }
    }
    seg.requests = texts.len() as u64;
    seg.query_seconds = started.elapsed().as_secs_f64();
}

fn cold_requests(
    sys: &System,
    script: &mut Script,
    first: u64,
    seg: &mut Segment,
    tr: &mut Tracer,
) {
    let started = Instant::now();
    for k in 0..COLD_REQUESTS {
        let plan = &script.plans[k % script.plans.len()];
        let t = Instant::now();
        let read = sys.cold_read(plan, first + k as u64, tr);
        seg.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        match read {
            Ok(read) if read.epoch != sys.epoch() => seg.fail(format!(
                "opened epoch {}, published {}",
                read.epoch,
                sys.epoch()
            )),
            Ok(_) => {}
            Err(e) => seg.fail(e),
        }
    }
    seg.requests = COLD_REQUESTS as u64;
    seg.query_seconds = started.elapsed().as_secs_f64();
}

/// One open-loop client beside one updater, for `intervals` intervals;
/// interval `j` (its requests, and the update due in its middle) is
/// segment `j` of the result.
fn churn(sys: &System, script: &mut Script, intervals: usize, first: u64, tr: &mut Tracer) -> Run {
    let keep = tr.is_on();
    let per_interval = (CHURN_INTERVAL.as_nanos() / CHURN_PERIOD.as_nanos()) as usize * CHURN_BURST;
    let total = per_interval * intervals;
    let start = Instant::now() + Duration::from_millis(5);
    let mut updater_trace = if keep {
        Tracer::on(tr.origin(), 1)
    } else {
        Tracer::off()
    };
    let mut segments: Vec<Segment> = (0..intervals)
        .map(|_| Segment {
            latencies_us: Vec::with_capacity(per_interval),
            ..Segment::default()
        })
        .collect();
    let mut updates: Vec<Segment> = (0..intervals).map(|_| Segment::default()).collect();
    let mut generator_lag_us = Vec::new();

    std::thread::scope(|s| {
        s.spawn(|| {
            for (j, seg) in updates.iter_mut().enumerate() {
                let due = start + CHURN_INTERVAL * j as u32 + CHURN_INTERVAL / 2;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                seg.apply_update(sys, &mut updater_trace);
            }
        });
        // the open-loop client: burst b is due at start + b × period
        // whether or not the one before it has been answered
        let mut previous_done = start;
        for burst in 0..total / CHURN_BURST {
            let due = start + CHURN_PERIOD * burst as u32;
            let mut now = Instant::now();
            // lateness of a generator that was idle is the harness's own;
            // lateness behind an unanswered request is the system's and is
            // part of that request's latency
            let idle = previous_done <= due;
            while now < due {
                std::hint::spin_loop();
                now = Instant::now();
            }
            if idle {
                generator_lag_us.push((now - due).as_secs_f64() * 1e6);
            }
            for k in burst * CHURN_BURST..(burst + 1) * CHURN_BURST {
                let seg = &mut segments[k / per_interval];
                let text = &script.texts[script.sequence[script.cursor] as usize];
                script.cursor = (script.cursor + 1) % script.sequence.len();
                let reply = tr.time("serve.query", Some(first + k as u64), || sys.query(text));
                previous_done = Instant::now();
                let latency = previous_done - due;
                seg.latencies_us.push(latency.as_secs_f64() * 1e6);
                match reply {
                    Ok(reply) => {
                        if latency <= ON_TIME {
                            seg.on_time += 1;
                        }
                        seg.note_reply(text, reply, keep);
                    }
                    Err(e) => seg.fail(e),
                }
            }
        }
    });
    tr.absorb(updater_trace);
    for (seg, update) in segments.iter_mut().zip(updates) {
        seg.requests = per_interval as u64;
        seg.query_seconds = CHURN_INTERVAL.as_secs_f64();
        seg.reader_stall_ms = seg.latencies_us.iter().fold(0.0f64, |m, &l| m.max(l)) / 1e3;
        seg.update = update.update;
        seg.failed += update.failed;
        seg.errors.extend(update.errors);
    }
    Run {
        segments,
        generator_lag_us,
    }
}
