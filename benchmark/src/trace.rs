//! The harness's own spans: recorded around calls into each layer, kept
//! in memory, written as JSON lines when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the enclosing span's id, 0 for none.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. Switched off it runs the wrapped
/// call and nothing else — no clock read, no allocation.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    round: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn off() -> Recorder {
        Recorder::new(false)
    }

    pub fn on() -> Recorder {
        Recorder::new(true)
    }

    fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            round: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Round number stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Run `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name: name.to_owned(),
            round: self.round,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[id as usize - 1];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`, in
    /// recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Per round, the summed duration in nanoseconds of the spans whose
    /// name satisfies `pick`.
    pub fn per_round(&self, pick: impl Fn(&str) -> bool) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| pick(&s.name)) {
            *out.entry(s.round).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// Write `{id,parent,name,workload,round,start_ns,end_ns}` lines.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{:?},\"workload\":{:?},\"round\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, workload, s.round, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut out: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.duration_ns())).collect();
    for child in spans.iter().filter(|s| s.parent != 0) {
        if let Some(t) = out.get_mut(&child.parent) {
            *t = t.saturating_sub(child.duration_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            round: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 50, 70),
            span(4, 2, 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 20);
        assert_eq!(
            selfs[&2],
            30 - 10,
            "grandchildren count against their parent only"
        );
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 10);
    }

    #[test]
    fn recorder_nests_and_stamps_rounds() {
        let mut rec = Recorder::on();
        rec.set_round(7);
        rec.span("round", |rec| {
            rec.span("stmt.a", |_| ());
            rec.span("stmt.b", |rec| rec.span("inner", |_| ()));
        });
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (0, 1, 1, 3)
        );
        assert!(s.iter().all(|s| s.round == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert_eq!(rec.per_round(|n| n.starts_with("stmt.")).len(), 1);
    }

    #[test]
    fn recorder_off_records_nothing() {
        let mut rec = Recorder::off();
        assert_eq!(rec.span("round", |rec| rec.span("x", |_| 5)), 5);
        assert!(rec.spans().is_empty());
    }
}
