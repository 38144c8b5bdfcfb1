//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around each call into a library
//! layer (the library itself is not instrumented). A span carries its
//! layer name, an optional label (the experiment id, the probe's
//! variant), its start and end in nanoseconds since the recorder was
//! created, the span that caused it, and a run id shared by every span
//! of one request (one fleet pass, one suite pass, one probe). Spans
//! stay in memory and are written out as JSON lines when the benchmark
//! ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `dist.event.tick`.
    pub name: &'static str,
    /// Free-form qualifier (experiment id, probe variant); may be empty.
    pub label: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span this one ran inside.
    pub parent: Option<SpanId>,
    /// Request the span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall time covered, in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans while active; a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    active: bool,
    run: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// An inactive recorder.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            active: false,
            run: 0,
            spans: Vec::new(),
        }
    }

    /// Starts a new request: later spans carry `run` and are recorded
    /// only if `active`.
    pub fn begin_run(&mut self, run: u32, active: bool) {
        self.run = run;
        self.active = active;
    }

    /// Starts or stops recording within the current request.
    pub fn set_active(&mut self, active: bool) {
        self.active = active;
    }

    /// Whether spans are being recorded.
    pub fn active(&self) -> bool {
        self.active
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when inactive.
    pub fn open(
        &mut self,
        name: &'static str,
        label: &'static str,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.active {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            label,
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Tracer::open).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line, after a header
    /// line naming the process-level run.
    pub fn write_jsonl(&self, path: &Path, run_tag: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"run_tag\":\"{run_tag}\",\"spans\":{}}}",
            self.spans.len()
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.label, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_while_active_and_nests() {
        let mut t = Tracer::new();
        assert!(t.open("x", "", None).is_none());
        t.begin_run(3, true);
        let outer = t.open("outer", "", None);
        let inner = t.open("inner", "a", outer);
        t.close(inner);
        t.close(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, outer);
        assert_eq!(t.spans()[1].run, 3);
        assert!(t.spans()[1].ms() >= 0.0);
    }
}
