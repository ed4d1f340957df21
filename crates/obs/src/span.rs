//! Per-query span trees.
//!
//! A [`Trace`] is an append-only arena of [`Span`]s rooted at span 0.
//! Spans carry a start offset and duration measured on the monotonic
//! clock ([`std::time::Instant`]) plus small `key=value` counter
//! annotations (tuples, threads, tiles skipped, bytes). The engine
//! produces *stack-disciplined* traces — children open after their
//! parent and close before it — which is what [`Trace::check`]
//! verifies.
//!
//! [`Tracer`] is the handle the executor threads through the stack: a
//! disabled tracer never reads the clock and every call is a no-op, so
//! the production path with tracing off pays one branch per call site.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span inside its [`Trace`]. The root is always span 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The root span of any trace.
    pub const ROOT: SpanId = SpanId(0);

    /// Arena index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One timed interval in a [`Trace`].
#[derive(Debug, Clone)]
pub struct Span {
    /// Label, e.g. `parse`, `pass:deadcode`, `[03] alg.select`.
    pub name: String,
    /// Arena index of the parent; `None` only for the root.
    pub parent: Option<usize>,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration, nanoseconds. Valid once the span is closed.
    pub dur_ns: u64,
    /// Whether the span has been closed.
    pub closed: bool,
    /// Counter annotations (`tuples`, `threads`, `tiles_skipped`, …).
    pub notes: Vec<(&'static str, u64)>,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// An owned span tree for one statement.
#[derive(Debug, Clone)]
pub struct Trace {
    label: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// Start a trace; the root span opens immediately.
    pub fn start(label: impl Into<String>) -> Trace {
        Trace::start_at(label, Instant::now())
    }

    /// Start a trace whose root span opened at `epoch` — for a statement
    /// whose first phase (a wait) was timed before its trace existed.
    pub fn start_at(label: impl Into<String>, epoch: Instant) -> Trace {
        let label = label.into();
        Trace {
            epoch,
            spans: vec![Span {
                name: "query".to_owned(),
                parent: None,
                start_ns: 0,
                dur_ns: 0,
                closed: false,
                notes: Vec::new(),
            }],
            label,
        }
    }

    /// The statement text (or other label) this trace describes.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// All spans in open order. Span 0 is the root.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a child span under `parent`.
    pub fn open(&mut self, parent: SpanId, name: impl Into<String>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: Some(parent.0),
            start_ns,
            dur_ns: 0,
            closed: false,
            notes: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Close `id`, fixing its duration. Closing twice is a no-op.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now_ns();
        let s = &mut self.spans[id.0];
        if !s.closed {
            s.dur_ns = now.saturating_sub(s.start_ns);
            s.closed = true;
        }
    }

    /// Add a pre-measured child span (for intervals timed by a callee
    /// that does not see the trace, e.g. a WAL fsync). The interval is
    /// assumed to have just ended.
    pub fn record(&mut self, parent: SpanId, name: impl Into<String>, dur: Duration) -> SpanId {
        let now = self.now_ns();
        let dur_ns = dur.as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            parent: Some(parent.0),
            start_ns: now.saturating_sub(dur_ns),
            dur_ns,
            closed: true,
            notes: Vec::new(),
        });
        SpanId(self.spans.len() - 1)
    }

    /// Attach (or overwrite) a counter annotation on `id`.
    pub fn note(&mut self, id: SpanId, key: &'static str, value: u64) {
        let notes = &mut self.spans[id.0].notes;
        match notes.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => notes.push((key, value)),
        }
    }

    /// Close every still-open span, children before parents, and
    /// finally the root. Call once when the statement finishes.
    pub fn finish(&mut self) {
        for i in (0..self.spans.len()).rev() {
            self.close(SpanId(i));
        }
    }

    /// Total wall time of the root span, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.spans[0].dur_ns
    }

    /// Verify the stack-discipline invariants the engine's traces obey:
    /// every span is closed, every child's interval nests inside its
    /// parent's, and the durations of a span's direct children sum to
    /// at most its own duration.
    pub fn check(&self) -> Result<(), String> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if !s.closed {
                return Err(format!("span {i} `{}` not closed", s.name));
            }
            let Some(p) = s.parent else {
                continue;
            };
            if p >= i {
                return Err(format!("span {i} `{}` precedes its parent {p}", s.name));
            }
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns || s.end_ns() > parent.end_ns() {
                return Err(format!(
                    "span {i} `{}` [{}, {}] escapes parent `{}` [{}, {}]",
                    s.name,
                    s.start_ns,
                    s.end_ns(),
                    parent.name,
                    parent.start_ns,
                    parent.end_ns()
                ));
            }
            child_sum[p] += s.dur_ns;
        }
        for (i, s) in self.spans.iter().enumerate() {
            if child_sum[i] > s.dur_ns {
                return Err(format!(
                    "children of span {i} `{}` sum to {} ns > own {} ns",
                    s.name, child_sum[i], s.dur_ns
                ));
            }
        }
        Ok(())
    }

    /// Render the tree as lines: indentation encodes depth, the time
    /// column is wall time, annotations trail as `k=v`. One line per
    /// span, preceded by a header line naming the trace.
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = vec![format!("trace: {}", self.label)];
        self.render_into(0, 0, &mut lines);
        lines
    }

    fn render_into(&self, idx: usize, depth: usize, out: &mut Vec<String>) {
        let s = &self.spans[idx];
        let mut line = String::new();
        let _ = write!(
            line,
            "{:<40} {:>12}",
            format!("{}{}", "  ".repeat(depth), s.name),
            fmt_ns(s.dur_ns)
        );
        for (k, v) in &s.notes {
            let _ = write!(line, "  {k}={v}");
        }
        out.push(line);
        for (i, c) in self.spans.iter().enumerate() {
            if c.parent == Some(idx) {
                self.render_into(i, depth + 1, out);
            }
        }
    }

    /// [`Trace::render_lines`] joined with newlines.
    pub fn render(&self) -> String {
        self.render_lines().join("\n")
    }
}

/// Format nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else {
        format!("{:.1}us", ns as f64 / 1e3)
    }
}

/// The handle the executor passes down the stack. Disabled tracers
/// never touch the clock; every method is a no-op returning
/// [`SpanId::ROOT`].
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Option<Trace>,
}

impl Tracer {
    /// A disabled tracer (the production default).
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer with a fresh trace.
    pub fn on(label: impl Into<String>) -> Tracer {
        Tracer {
            inner: Some(Trace::start(label)),
        }
    }

    /// An enabled tracer whose root span opened at `since` (see
    /// [`Trace::start_at`]).
    pub fn on_since(label: impl Into<String>, since: Instant) -> Tracer {
        Tracer {
            inner: Some(Trace::start_at(label, since)),
        }
    }

    /// Is tracing enabled?
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a child span (no-op when off).
    pub fn open(&mut self, parent: SpanId, name: &str) -> SpanId {
        match &mut self.inner {
            Some(t) => t.open(parent, name),
            None => SpanId::ROOT,
        }
    }

    /// Close a span (no-op when off).
    pub fn close(&mut self, id: SpanId) {
        if let Some(t) = &mut self.inner {
            t.close(id);
        }
    }

    /// Record a pre-measured span (no-op when off).
    pub fn record(&mut self, parent: SpanId, name: &str, dur: Duration) -> SpanId {
        match &mut self.inner {
            Some(t) => t.record(parent, name, dur),
            None => SpanId::ROOT,
        }
    }

    /// Annotate a span (no-op when off).
    pub fn note(&mut self, id: SpanId, key: &'static str, value: u64) {
        if let Some(t) = &mut self.inner {
            t.note(id, key, value);
        }
    }

    /// Close everything and take the finished trace, if tracing was on.
    pub fn finish(mut self) -> Option<Trace> {
        if let Some(t) = &mut self.inner {
            t.finish();
        }
        self.inner
    }

    /// Borrow the live trace, if any.
    pub fn trace(&self) -> Option<&Trace> {
        self.inner.as_ref()
    }
}
