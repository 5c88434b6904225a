//! The harness's own span recorder: one span around every call into a
//! layer's public functions, kept in memory and written out when the
//! traced run ends. The program under test is not instrumented by this
//! file; spans inside it are `smv::obs`'s and are only counted here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open on this thread when this one began.
    pub parent: Option<u32>,
    /// Spans of one request share its number.
    pub request: Option<u64>,
}

#[derive(Clone, Copy)]
pub struct SpanId(u32);

const OFF: SpanId = SpanId(u32::MAX);

/// One thread's recorder. Switched off (every end-to-end run) it reads
/// no clock and stores nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder whose timestamps count from `origin`; recorders of
    /// different threads share it so their spans line up.
    pub fn on(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            on: true,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn enter(&mut self, name: &'static str, request: Option<u64>) -> SpanId {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            thread: self.thread,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// A span around `f`, for calls that open no span of their own.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, request);
        let out = f();
        self.exit(id);
        out
    }

    /// Durations in ms of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Takes over another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Per span name: count, total time and self time (the span minus the
    /// part of it its children cover), in ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child);
        }
        out
    }

    /// Writes every span and the per-name self times as one JSON object.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 1024);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"self_times\": {{"
        );
        for (i, (name, (count, total, own))) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            );
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.thread,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.request),
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
