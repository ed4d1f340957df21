//! Driver benchmark: bound-parameter prepared statements vs unprepared
//! text re-execution through the unified `sciql_repro::driver` surface.
//!
//! A prepared statement compiles its plan **once**; every re-execution
//! binds fresh values into the cached MAL program and skips parse,
//! name-resolution and the whole optimizer pipeline. The benchmark makes
//! that overhead visible on a small array (execution is cheap, so the
//! per-statement planning cost dominates) and on a larger scan (where
//! the relative win shrinks but must not invert).
//!
//! Run with `CRITERION_JSON_OUT=BENCH_driver.json cargo bench -p
//! sciql-bench --bench driver` to record a baseline. The CI bench-guard
//! job checks (machine-independently) that the `/prepared` ids beat
//! their `/unprepared` twins.

use criterion::{criterion_group, BenchmarkId, Criterion};
use gdk::Value;
use sciql_repro::driver::{Conn, Sciql};
use std::hint::black_box;

const SMALL: usize = 32; // 1k cells: planning dominates
const LARGE: usize = 512; // 256k cells: execution dominates

/// The statement under test: enough predicates and expression structure
/// that the parser, binder and 7-pass optimizer have real work to redo
/// on every unprepared execution.
const SQL_TMPL: &str = "SELECT COUNT(*), SUM(v) FROM m WHERE x > {lo} AND y > {lo} \
                        AND v BETWEEN {lo} AND {hi}";
const SQL_BOUND: &str = "SELECT COUNT(*), SUM(v) FROM m WHERE x > :lo AND y > :lo \
                         AND v BETWEEN :lo AND :hi";

fn session(n: usize) -> Conn {
    let mut conn = Sciql::connect("mem:").expect("mem: connect");
    conn.execute(&format!(
        "CREATE ARRAY m (x INT DIMENSION[0:1:{n}], y INT DIMENSION[0:1:{n}], v INT DEFAULT 0)"
    ))
    .unwrap();
    conn.execute("UPDATE m SET v = x + y").unwrap();
    conn
}

fn bench_prepared_vs_unprepared(c: &mut Criterion) {
    for (label, n) in [("cells_1k", SMALL), ("cells_256k", LARGE)] {
        let mut conn = session(n);
        let stmt = conn.prepare(SQL_BOUND).unwrap();
        // Warm the plan cache, then prove every measured iteration hits it.
        conn.query_bound(&stmt, &[Value::Int(1), Value::Int(9)])
            .unwrap();
        conn.query_bound(&stmt, &[Value::Int(1), Value::Int(9)])
            .unwrap();
        assert_eq!(
            conn.last_report().unwrap().plan_cache_hits,
            1,
            "cache must hit"
        );
        let mut g = c.benchmark_group("driver");
        let mut flip = 0i32;
        g.bench_function(BenchmarkId::new(label, "prepared"), |b| {
            b.iter(|| {
                flip = (flip + 1) % 4;
                let rows = conn
                    .query_bound(&stmt, &[Value::Int(flip), Value::Int(9 + flip)])
                    .unwrap();
                black_box(rows.row_count())
            })
        });
        g.bench_function(BenchmarkId::new(label, "unprepared"), |b| {
            b.iter(|| {
                flip = (flip + 1) % 4;
                let sql = SQL_TMPL
                    .replace("{lo}", &flip.to_string())
                    .replace("{hi}", &(9 + flip).to_string());
                let rows = conn.query(&sql).unwrap();
                black_box(rows.row_count())
            })
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = sciql_bench::criterion_config();
    targets = bench_prepared_vs_unprepared
}

fn main() {
    sciql_bench::emit_meta(
        "driver",
        &[
            ("small_cells", (SMALL * SMALL) as u64),
            ("large_cells", (LARGE * LARGE) as u64),
        ],
        "bound-parameter prepared statements vs unprepared text re-execution through \
         sciql_repro::driver on an embedded mem: transport; prepared executions reuse the \
         compiled MAL plan (ExecStats::plan_cache_hits = 1) and skip parse + bind + the \
         7-pass optimizer, so /prepared must beat /unprepared, most visibly on the small \
         array where planning dominates",
    );
    benches();
}
