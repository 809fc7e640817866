//! In-memory span recorder for the traced run.
//!
//! One span per (tick | round | query | churn event) × layer: name, start,
//! end, parent span, the operation id the spans of one operation share,
//! and the work count (items, MBRs, probes, ... — whatever the layer
//! counts). Spans live in a `Vec` until the run ends and are then written
//! as chrome-trace complete (`"ph": "X"`) events, loadable in
//! `chrome://tracing` or Perfetto.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span inside [`Spans`].
pub type SpanId = u32;

/// Parent of a top-level span.
pub const NO_PARENT: SpanId = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Shared by every span of one tick / round / query / churn event.
    pub op: u64,
    /// Units of work the span covered (0 for pure grouping spans).
    pub work: u64,
    /// True for spans that sum many short, non-contiguous calls (the
    /// per-event ingest path of `faulty_mix`): their duration is exact,
    /// their position on the timeline is the start of the interval they
    /// summarise. Drawn on their own lane, excluded from self-time.
    pub accumulated: bool,
}

/// Per-name totals derived from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
    pub work: u64,
}

/// The span store of one traced pass.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            work: 0,
            accumulated: false,
        })
    }

    /// Ends a span now and records its work count.
    pub fn close(&mut self, id: SpanId, work: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.work = work;
    }

    /// Records a span over `[start_ns, start_ns + dur_ns)`: the caller read
    /// [`Spans::now_ns`] before the layer call and timed the call itself.
    pub fn record_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start_ns: u64,
        dur_ns: u64,
        work: u64,
    ) {
        let end_ns = start_ns + dur_ns;
        self.push(Span { name, start_ns, end_ns, parent, op, work, accumulated: false });
    }

    /// Records replayed layers back to back from `start_ns`, each with its
    /// own exact duration. A replay that interleaves layers per item (the
    /// per-query probe loop) is drawn as if it had run layer by layer; the
    /// durations, and so every total and self time, are exact.
    pub fn record_sequence(
        &mut self,
        parent: SpanId,
        op: u64,
        mut start_ns: u64,
        layers: &[(&'static str, u64, u64)],
    ) {
        for &(name, dur_ns, work) in layers {
            self.record_at(name, parent, op, start_ns, dur_ns, work);
            start_ns += dur_ns;
        }
    }

    /// Records the sum of many short calls made since `start_ns` as one
    /// span of exact duration anchored at `start_ns`.
    pub fn record_accumulated(
        &mut self,
        name: &'static str,
        op: u64,
        start_ns: u64,
        dur_ns: u64,
        work: u64,
    ) {
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: NO_PARENT,
            op,
            work,
            accumulated: true,
        });
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Count, total time, self time and work per span name. Self time is a
    /// span's duration minus the part of it its direct children cover
    /// (children of one parent never overlap: one driver thread).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT && !s.accumulated {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, &child_ns) in self.spans.iter().zip(&covered) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns);
            t.work += s.work;
        }
        out
    }

    /// The spans as a chrome-trace JSON document. Lane 1 holds the nested
    /// real-time spans, lane 2 the accumulated ones.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            // Writing into a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \
                 \"parent\": {}, \"op\": {}, \"work\": {}, \"accumulated\": {}}}}}{}",
                s.name,
                cat,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.accumulated { 2 } else { 1 },
                id,
                parent,
                s.op,
                s.work,
                s.accumulated,
                sep
            );
        }
        out.push_str("]}\n");
        out
    }
}
