//! Observability substrate for the SciQL engine.
//!
//! Three pillars, all pure `std`:
//!
//! * **Per-query tracing** ([`span`]): a lightweight span tree recording
//!   monotonic-clock wall times and counter annotations for every phase
//!   of a statement — parse, bind, per-optimizer-pass, codegen, each MAL
//!   instruction, WAL append/fsync, result shaping. The executor opens a
//!   [`Tracer`]; when tracing is off every call is a no-op and the clock
//!   is never read. `EXPLAIN ANALYZE` and the repl's `\trace on` render
//!   the finished tree as a timed plan table.
//!
//! * **Engine-wide metrics** ([`metrics`]): a global lock-free registry
//!   of atomic counters, gauges, and fixed-bucket latency histograms fed
//!   by core/store/net — queries by kind, query/fsync/checkpoint latency
//!   (p50/p95/p99), tile churn, plan-cache hits and misses, live
//!   sessions, bytes in/out. A [`MetricsSnapshot`] is what the
//!   `sys.metrics` and `sys.histograms` views read — introspection is
//!   SQL, on every transport — and renders in Prometheus text
//!   exposition format for the HTTP scrape endpoint.
//!
//! * **Query history** ([`qlog`]): a fixed-capacity ring of
//!   [`QueryRecord`]s — one per executed statement, with wall time,
//!   row count, plan-cache and tile-skip stats, and a slow flag. It
//!   backs the `sys.query_log` system view and the repl's `\history`.
//!
//! [`report`] holds the one renderer for per-statement execution
//! reports, shared by the repl's `\timing` and the driver so embedded
//! and TCP sessions print identical text.

pub mod metrics;
pub mod qlog;
pub mod repl;
pub mod report;
pub mod span;

pub use metrics::{
    escape_help, escape_label, global, metric_help, Counter, Gauge, Histogram, HistogramSnapshot,
    Metrics, MetricsSnapshot, BATCH_BOUNDS, LATENCY_BOUNDS_NS,
};
pub use qlog::{now_unix_us, query_log, QueryLog, QueryRecord, QUERY_LOG_CAPACITY};
pub use repl::{replication, ReplLink, ReplRegistry, ReplRole};
pub use report::{render_exec_summary, ExecSummary};
pub use span::{Span, SpanId, Trace, Tracer};
