//! The engine-wide metrics registry.
//!
//! One process-global, lock-free [`Metrics`] struct of atomic
//! [`Counter`]s, [`Gauge`]s, and fixed-bucket latency [`Histogram`]s,
//! fed by core (queries by kind, query latency, plan cache), store
//! (WAL appends/fsyncs, checkpoints, tile churn), and net (sessions,
//! bytes in/out). Reading is a relaxed-atomic [`Metrics::snapshot`];
//! the snapshot is plain data that backs the `sys.metrics` and
//! `sys.histograms` views and renders in Prometheus text exposition
//! format ([`MetricsSnapshot::to_prometheus_text`]).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (goes up and down — live sessions, open files).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Increment by 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrement by 1.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set to an absolute value (for gauges mirroring a queue length).
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive, nanoseconds) of the latency histogram
/// buckets: powers of four from 1 µs to 4 s. A final implicit
/// `+Inf` bucket catches the rest.
pub const LATENCY_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

const BUCKETS: usize = LATENCY_BOUNDS_NS.len() + 1;

/// Upper bounds (inclusive) of the group-commit batch-size histogram
/// buckets: powers of two up to 2048 writers per fsync. Unlike
/// [`LATENCY_BOUNDS_NS`] these are plain counts, not nanoseconds.
pub const BATCH_BOUNDS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// A fixed-bucket histogram over 12 configurable upper bounds plus an
/// implicit `+Inf` bucket. Latency histograms use
/// [`LATENCY_BOUNDS_NS`]; count-valued ones (group-commit batch size)
/// bring their own bounds via [`Histogram::with_bounds`].
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64; 12],
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty latency histogram over [`LATENCY_BOUNDS_NS`].
    pub const fn new() -> Histogram {
        Histogram::with_bounds(&LATENCY_BOUNDS_NS)
    }

    /// An empty histogram over explicit bucket bounds.
    pub const fn with_bounds(bounds: &'static [u64; 12]) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            bounds,
            buckets: [ZERO; BUCKETS],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Record one observation of `ns` nanoseconds (or, for a
    /// count-valued histogram, of `ns` units).
    pub fn observe_ns(&self, ns: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one observation of a [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos() as u64);
    }

    /// Read the histogram into plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets.
    pub bounds: Vec<u64>,
    /// Per-bucket counts, aligned with `bounds` plus a final `+Inf`
    /// bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, nanoseconds (or units, for a
    /// count-valued histogram).
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// The finite bucket bounds this snapshot was recorded over.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Estimate the `q`-quantile (0..=1) as the upper bound of the
    /// bucket containing it.
    ///
    /// Edge cases are pinned rather than interpolated: an empty
    /// histogram reports 0, a single observation reports that exact
    /// value (`sum_ns` holds it), and a rank landing in the overflow
    /// (`+Inf`) bucket reports the bucket's *lower* bound — the only
    /// honest figure available, since the bucket has no upper edge.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if self.count == 1 {
            return self.sum_ns;
        }
        let bounds = self.bounds();
        let top = bounds[bounds.len() - 1];
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bounds.get(i).copied().unwrap_or(top);
            }
        }
        top
    }

    /// Median estimate, nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th percentile estimate, nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th percentile estimate, nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

macro_rules! hist_init {
    () => {
        Histogram::new()
    };
    ($bounds:expr) => {
        Histogram::with_bounds(&$bounds)
    };
}

macro_rules! metrics_struct {
    (
        counters { $($counter:ident : $chelp:literal),* $(,)? }
        gauges { $($gauge:ident : $ghelp:literal),* $(,)? }
        histograms { $($hist:ident $(($bounds:expr))? : $hhelp:literal),* $(,)? }
    ) => {
        /// The engine-wide registry. One static instance per process —
        /// obtain it with [`global()`].
        #[derive(Debug, Default)]
        pub struct Metrics {
            $(#[doc = $chelp] pub $counter: Counter,)*
            $(#[doc = $ghelp] pub $gauge: Gauge,)*
            $(#[doc = $hhelp] pub $hist: Histogram,)*
        }

        impl Metrics {
            /// A zeroed registry (`global()` is the shared one; fresh
            /// instances are for tests).
            pub const fn new() -> Metrics {
                Metrics {
                    $($counter: Counter::new(),)*
                    $($gauge: Gauge::new(),)*
                    $($hist: hist_init!($($bounds)?),)*
                }
            }

            /// Relaxed-atomic read of every metric into plain data.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    counters: vec![$((stringify!($counter).to_owned(), self.$counter.get()),)*],
                    gauges: vec![$((stringify!($gauge).to_owned(), self.$gauge.get()),)*],
                    histograms: vec![$((stringify!($hist).to_owned(), self.$hist.snapshot()),)*],
                }
            }
        }

        /// The registry help text for a metric name (the `# HELP` line
        /// of the Prometheus exposition, and the description column of
        /// `sys.metrics`).
        pub fn metric_help(name: &str) -> Option<&'static str> {
            match name {
                $(stringify!($counter) => Some($chelp),)*
                $(stringify!($gauge) => Some($ghelp),)*
                $(stringify!($hist) => Some($hhelp),)*
                _ => None,
            }
        }
    };
}

metrics_struct! {
    counters {
        queries_select: "Successfully executed SELECT statements.",
        queries_dml: "Successfully executed DML statements (INSERT/UPDATE/DELETE/COPY).",
        queries_ddl: "Successfully executed DDL statements.",
        queries_failed: "Statements that failed with an error.",
        plan_cache_hits: "SELECTs, prepared or ad hoc, that reran a cached plan.",
        plan_cache_misses: "SELECTs, prepared or ad hoc, that compiled a plan.",
        wal_appends: "WAL records appended.",
        wal_fsyncs: "WAL fsyncs issued.",
        wal_fsyncs_saved: "Commits that rode another writer's group fsync instead of paying their own.",
        group_commits: "Group-commit fsyncs that retired at least one waiting writer.",
        checkpoints: "Checkpoints completed.",
        tiles_rewritten: "Tiles rewritten by checkpoints.",
        tiles_reused: "Clean tiles reused by checkpoints.",
        tiles_skipped: "Tiles skipped by zone-map scans.",
        sessions_opened: "Sessions opened since process start.",
        bytes_in: "Bytes received from network clients.",
        bytes_out: "Bytes sent to network clients.",
        repl_records_shipped: "WAL records shipped to replicas by this primary.",
        repl_records_applied: "Replicated WAL records applied by this replica.",
    }
    gauges {
        sessions_open: "Currently connected network sessions.",
        write_queue_depth: "Writers currently parked in the group-commit queue.",
        replication_lag_bytes: "Durable WAL bytes the slowest replication link has not yet applied.",
    }
    histograms {
        query_ns: "End-to-end statement latency.",
        wal_fsync_ns: "WAL fsync latency.",
        checkpoint_ns: "Checkpoint duration.",
        group_commit_batch(BATCH_BOUNDS): "Writers retired per group-commit fsync (batch size).",
        repl_token_wait_ns: "Time a read carrying a monotonic-read token was held until the engine's applied WAL position covered it.",
        repl_ship_delay_ns: "Time from a durable WAL position being published to the records it covers reaching a replica's socket.",
    }
}

static GLOBAL: Metrics = Metrics::new();

/// The process-global registry every subsystem feeds.
pub fn global() -> &'static Metrics {
    &GLOBAL
}

/// Plain-data copy of the whole registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, in registry order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` latency histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Prometheus text exposition format (`sciql_` prefix; `# HELP` /
    /// `# TYPE` per family; histograms as cumulative `_bucket{le=…}`
    /// series in seconds with a `+Inf` bucket plus `_sum`/`_count`).
    pub fn to_prometheus_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let help = |out: &mut String, family: &str, name: &str| {
            if let Some(h) = metric_help(name) {
                let _ = writeln!(out, "# HELP {family} {}", escape_help(h));
            }
        };
        for (n, v) in &self.counters {
            help(&mut out, &format!("sciql_{n}_total"), n);
            let _ = writeln!(out, "# TYPE sciql_{n}_total counter");
            let _ = writeln!(out, "sciql_{n}_total {v}");
        }
        for (n, v) in &self.gauges {
            help(&mut out, &format!("sciql_{n}"), n);
            let _ = writeln!(out, "# TYPE sciql_{n} gauge");
            let _ = writeln!(out, "sciql_{n} {v}");
        }
        for (n, h) in &self.histograms {
            // Latency histograms (`*_ns`) export in seconds per the
            // Prometheus base-unit convention; count-valued ones (batch
            // size) keep their name and raw bucket bounds.
            let seconds = n.ends_with("_ns");
            let family = if seconds {
                format!("sciql_{}_seconds", n.strip_suffix("_ns").expect("checked"))
            } else {
                format!("sciql_{n}")
            };
            help(&mut out, &family, n);
            let _ = writeln!(out, "# TYPE {family} histogram");
            let mut cum = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                cum += c;
                match h.bounds().get(i) {
                    Some(&b) if seconds => {
                        let _ = writeln!(out, "{family}_bucket{{le=\"{}\"}} {cum}", b as f64 / 1e9);
                    }
                    Some(&b) => {
                        let _ = writeln!(out, "{family}_bucket{{le=\"{b}\"}} {cum}");
                    }
                    None => {
                        let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {cum}");
                    }
                }
            }
            if seconds {
                let _ = writeln!(out, "{family}_sum {}", h.sum_ns as f64 / 1e9);
            } else {
                let _ = writeln!(out, "{family}_sum {}", h.sum_ns);
            }
            let _ = writeln!(out, "{family}_count {}", h.count);
        }
        out
    }
}

/// Escape text for a Prometheus `# HELP` line (`\` and newline).
pub fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape text for a Prometheus label value (`\`, `"` and newline).
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_empty_is_zero() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.5), 0);
        assert_eq!(s.p99_ns(), 0);
    }

    #[test]
    fn quantile_single_observation_is_exact() {
        let h = Histogram::new();
        h.observe_ns(12_345);
        let s = h.snapshot();
        // One observation: every quantile is that exact value, not the
        // bucket's upper bound (16_000 here).
        assert_eq!(s.quantile_ns(0.5), 12_345);
        assert_eq!(s.quantile_ns(0.99), 12_345);
    }

    #[test]
    fn quantile_overflow_bucket_reports_lower_bound() {
        let h = Histogram::new();
        // Two observations beyond the last finite bound land in +Inf.
        h.observe_ns(10_000_000_000);
        h.observe_ns(20_000_000_000);
        let s = h.snapshot();
        let top = LATENCY_BOUNDS_NS[LATENCY_BOUNDS_NS.len() - 1];
        assert_eq!(s.quantile_ns(0.5), top);
        assert_eq!(s.quantile_ns(0.99), top);
        assert_ne!(s.quantile_ns(0.99), u64::MAX);
    }

    #[test]
    fn quantile_regular_path_uses_bucket_upper_bound() {
        let h = Histogram::new();
        for _ in 0..10 {
            h.observe_ns(500); // bucket 0, le=1_000
        }
        h.observe_ns(3_000_000_000); // near the top finite bucket
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.5), 1_000);
        assert_eq!(s.quantile_ns(1.0), 4_194_304_000);
    }

    #[test]
    fn help_table_covers_every_metric() {
        let snap = Metrics::new().snapshot();
        for (n, _) in &snap.counters {
            assert!(metric_help(n).is_some(), "no HELP for counter {n}");
        }
        for (n, _) in &snap.gauges {
            assert!(metric_help(n).is_some(), "no HELP for gauge {n}");
        }
        for (n, _) in &snap.histograms {
            assert!(metric_help(n).is_some(), "no HELP for histogram {n}");
        }
        assert_eq!(metric_help("no_such_metric"), None);
    }

    #[test]
    fn escaping_rules() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label("say \"hi\"\n"), "say \\\"hi\\\"\\n");
    }

    /// Parser-style conformance check: walk the exposition line by line
    /// and verify the shape Prometheus' text format requires.
    #[test]
    fn prometheus_exposition_conforms() {
        let m = Metrics::new();
        m.queries_select.add(3);
        m.sessions_open.inc();
        m.query_ns.observe_ns(2_000);
        m.query_ns.observe_ns(10_000_000_000);
        let text = m.snapshot().to_prometheus_text();

        let mut families: Vec<(String, String)> = Vec::new(); // (name, type)
        let mut last_help: Option<String> = None;
        for line in text.lines() {
            assert!(!line.is_empty(), "exposition must not contain blank lines");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has name and text");
                assert!(!help.is_empty());
                last_help = Some(name.to_owned());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, ty) = rest.split_once(' ').expect("TYPE has name and kind");
                // HELP must immediately precede TYPE for the family.
                assert_eq!(last_help.as_deref(), Some(name), "HELP/TYPE pairing");
                assert!(matches!(ty, "counter" | "gauge" | "histogram"));
                families.push((name.to_owned(), ty.to_owned()));
            } else {
                // Sample line: name{labels} value
                let (series, value) = line.rsplit_once(' ').expect("sample has value");
                assert!(value.parse::<f64>().is_ok(), "unparsable value {value}");
                let base = series.split('{').next().unwrap();
                let (family, _) = families
                    .iter()
                    .rev()
                    .find(|(f, _)| {
                        base == f
                            || base
                                .strip_prefix(f.as_str())
                                .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count"))
                    })
                    .expect("sample outside any TYPE family");
                assert!(series.starts_with(family.as_str()));
            }
        }

        // Counters end in _total; histograms carry +Inf and cumulative
        // buckets whose last count equals _count.
        assert!(families
            .iter()
            .any(|(n, t)| n == "sciql_queries_select_total" && t == "counter"));
        assert!(text.contains("sciql_queries_select_total 3"));
        assert!(text.contains("sciql_sessions_open 1"));
        assert!(text.contains("sciql_query_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("sciql_query_seconds_count 2"));
        let bucket_lines: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("sciql_query_seconds_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(
            bucket_lines.windows(2).all(|w| w[0] <= w[1]),
            "histogram buckets must be cumulative"
        );
        assert_eq!(*bucket_lines.last().unwrap(), 2);
    }
}
