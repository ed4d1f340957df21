//! Observability overhead benchmark: the same scan+aggregate query with
//! per-statement span tracing off (the production default) and on, plus
//! the cost of snapshotting and rendering the global metrics registry.
//!
//! The ids feed two bench-guard checks:
//!
//! * `obs/scan_sum_256k/off` vs `obs/scan_sum_256k/on` — the trace-off
//!   run must stay within 5% of the traced run (an `EXPECT_CLOSE`
//!   invariant). Tracing adds work, so off ≤ 1.05 × on pins the
//!   tracer's disabled path to effectively zero cost: if dormant
//!   tracing machinery ever leaks real work into the hot path, `off`
//!   drifts up and the gate trips.
//! * Both ids are tracked relative to the `on` anchor, so drift in the
//!   off/on ratio fails CI even across machine speeds.
//!
//! Run with `CRITERION_JSON_OUT=BENCH_obs.json cargo bench -p
//! sciql-bench --bench obs` to record a baseline.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use sciql::Connection;
use std::hint::black_box;

const N: usize = 512; // N*N = 256k cells

fn session() -> Connection {
    let mut conn = Connection::new();
    conn.execute(&format!(
        "CREATE ARRAY matrix (x INT DIMENSION[0:1:{N}], \
         y INT DIMENSION[0:1:{N}], v INT DEFAULT 0)"
    ))
    .unwrap();
    conn.execute("UPDATE matrix SET v = x + y").unwrap();
    conn
}

/// The scan+sum query with tracing on (anchor) and off.
fn bench_trace_overhead(c: &mut Criterion) {
    const SQL: &str = "SELECT SUM(v) FROM matrix WHERE x > 256";
    let mut g = c.benchmark_group("obs/scan_sum_256k");
    g.throughput(Throughput::Elements((N * N) as u64));
    for on in [true, false] {
        let mut conn = session();
        conn.set_tracing(on);
        g.bench_with_input(
            BenchmarkId::from_parameter(if on { "on" } else { "off" }),
            &on,
            |b, _| b.iter(|| black_box(conn.query(SQL).unwrap())),
        );
    }
    g.finish();
}

/// Scan the `sys.metrics` system view through the full SQL pipeline —
/// the cost of one introspection query (synthesize the view's BATs from
/// the registry, then bind/optimize/execute like any table scan).
fn bench_sysview_scan(c: &mut Criterion) {
    const SQL: &str = "SELECT name, value FROM sys.metrics WHERE name LIKE 'wal%'";
    let mut conn = session();
    let mut g = c.benchmark_group("obs/sysview");
    g.bench_function(BenchmarkId::from_parameter("metrics_like_scan"), |b| {
        b.iter(|| black_box(conn.query(SQL).unwrap()))
    });
    g.finish();
}

/// Snapshot the global registry and render it — the cost of one
/// Prometheus scrape.
fn bench_metrics_snapshot(c: &mut Criterion) {
    // Make the histograms non-trivial so rendering does real work.
    let m = sciql_obs::global();
    for i in 0..1000u64 {
        m.query_ns.observe_ns(i * 10_000);
    }
    let mut g = c.benchmark_group("obs/metrics");
    g.bench_function(BenchmarkId::from_parameter("snapshot_render"), |b| {
        b.iter(|| {
            let snap = sciql_obs::global().snapshot();
            black_box(snap.to_prometheus_text())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = sciql_bench::criterion_config();
    targets = bench_trace_overhead, bench_sysview_scan, bench_metrics_snapshot
}

fn main() {
    sciql_bench::emit_meta(
        "obs",
        &[("cells", (N * N) as u64)],
        "observability overhead on a 512x512 array scan+sum: tracing on (anchor) vs off \
         (off must stay within 5% of on — the tracer's disabled path is pinned to \
         zero cost), plus the metrics snapshot+render cost of one scrape",
    );
    benches();
}
