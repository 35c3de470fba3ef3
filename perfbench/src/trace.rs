//! In-memory spans around the benchmark's calls into each layer, and the
//! sheet of named metrics a run reports.
//!
//! Spans are recorded only in traced runs (`--trace 1`); untraced runs pay
//! one branch per call site. Spans stay in memory and are written out once,
//! after the measured window.

use mips_core::serve::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span; `NONE` marks a root.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

struct Span {
    name: &'static str,
    parent: SpanId,
    /// The request a span belongs to (`0` for spans outside any request).
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switches recording; the interleaved overhead probes toggle it.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span from its endpoints.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        let span = Span {
            name,
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span whose end is filled in by [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, 0, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let end = self.ns(Instant::now());
            if let Some(span) = self.spans.get_mut(id as usize) {
                span.end_ns = end;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: count, total and self seconds (self = duration minus
    /// the part covered by direct children).
    fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NONE {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let dur = span.end_ns - span.start_ns;
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 * 1e-9;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Writes the span summary and every span as JSON.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.begin_obj_field("summary");
        for (name, (count, total, self_s)) in self.summary() {
            w.begin_obj_field(name);
            w.field_u64("count", count);
            w.field_f64_shortest("total_s", total);
            w.field_f64_shortest("self_s", self_s);
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        let head = w.finish();
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        // Spans go out one compact array per line:
        // [id, parent, request, name, start_ns, end_ns].
        writeln!(out, "{head}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "[{i},{parent},{},\"{}\",{},{}]",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The named metrics one run reports, with their units.
#[derive(Default)]
pub struct Sheet {
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    /// Records a metric; a non-finite value (an empty ratio) reads 0.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|(v, _)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.metrics.iter()
    }

    /// Keeps only `names`, filling any the workload did not exercise with
    /// zero, so every run of every workload reports the same keys.
    pub fn select(&self, names: &[(&str, &'static str)]) -> Sheet {
        let mut out = Sheet::default();
        for &(name, unit) in names {
            let value = self.get(name).unwrap_or(0.0);
            out.set(name, value, unit);
        }
        out
    }

    pub fn write_json(&self, w: &mut JsonWriter) {
        for (name, (value, unit)) in &self.metrics {
            w.begin_obj_field(name);
            w.field_f64_shortest("value", *value);
            w.field_str("unit", unit);
            w.end_obj();
        }
    }
}
