//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span is one call into a layer: its name, start, end, the span that
//! caused it, and the trace it belongs to (a simulation row, or a serve
//! request id). Per-reference calls are far too many to keep, so the
//! traced loops aggregate them into [`crate::measure::Tally`]s and keep only a
//! sample here.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Identifies a recorded span; `0` means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    trace: u32,
    parent: SpanId,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Every span of one run, relative to the log's creation.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    traces: Vec<String>,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            traces: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Opens a trace (a row label or a request id) for later spans.
    pub fn trace(&mut self, label: impl Into<String>) -> u32 {
        self.traces.push(label.into());
        self.traces.len() as u32 - 1
    }

    /// Records one span and returns its id.
    pub fn record(
        &mut self,
        trace: u32,
        parent: SpanId,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            trace,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.push(span);
        self.spans.len() as SpanId
    }

    /// Sets the end of a span opened before its end was known.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        if let Some(span) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            span.end_ns = end_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let trace = serde_json::to_string(&self.traces[s.trace as usize]).unwrap_or_default();
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{trace},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
