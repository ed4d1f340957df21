//! Observability acceptance suite.
//!
//! Pins the four load-bearing guarantees of the tracing/metrics
//! subsystem:
//!
//! * The reply trailer round-trips **every** `ExecReport` field
//!   bit-exactly, with and without a trace (distinct sentinel values
//!   catch field swaps; length checks catch half-wired fields).
//! * Tracing is invisible in results: the same query yields
//!   byte-identical wire pages with tracing off and on, across
//!   optimizer levels and thread counts.
//! * `EXPLAIN ANALYZE` produces the same span-tree *shape* (names +
//!   nesting) whether the statement runs embedded or over `tcp://`;
//!   only the measured values may differ.
//! * `sys.metrics` and `sys.histograms` over the wire report WAL fsync
//!   counts and latency plus plan-cache hits after a scripted workload.

use sciql::{write_copy_binary, Connection, SessionConfig, SharedEngine};
use sciql_repro::driver::{Conn, Rows, Sciql};
use sciql_repro::gdk::Bat;
use sciql_repro::net::proto;
use sciql_repro::net::Server;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

mod common;
use common::shape;

const TILE_ROWS: usize = 8192;

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sciql-obs-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The full wire encoding of a result (page size 3 forces paging).
fn wire_bytes(rows: &Rows) -> Vec<u8> {
    let rs = rows.result_set();
    let mut bytes = rs.encode_header();
    for page in rs.encode_pages(3) {
        bytes.extend_from_slice(&page);
    }
    bytes
}

/// Every `ExecReport` field survives the trailer codec, with and without
/// a trace, on each frame that closes an answer; and the runtime guards
/// complement the compile-time exhaustive-destructure guard in
/// `proto::put_trailer`: the encoding is exactly the field count plus the
/// trace, and both trailing garbage and truncation are loud protocol
/// errors rather than silently dropped or zeroed fields.
#[test]
fn trailer_roundtrips_every_field() {
    // Distinct sentinel per field: any swap or misordering in either
    // codec direction breaks the equality below.
    let report = proto::ExecReport {
        instructions: 101,
        par_instructions: 102,
        max_threads: 103,
        instrs_before_opt: 104,
        instrs_after_opt: 105,
        eliminated: 106,
        fused: 107,
        intermediates_avoided: 108,
        bytes_not_materialized: 109,
        plan_cache_hits: 110,
        tiles_skipped: 111,
        tuples_produced: 112,
    };
    for trace in [None, Some("trace: SELECT 1\n  parse 1.0µs".to_owned())] {
        let trailer = proto::Trailer { report, trace };
        let mut bytes = Vec::new();
        proto::put_trailer(&mut bytes, &trailer);
        // 12 u64 fields and the trace flag: if this assertion fires you
        // added an ExecReport field — update it *and* the sentinels above.
        let text = trailer.trace.as_ref().map_or(0, |t| 4 + t.len());
        assert_eq!(bytes.len(), 12 * 8 + 1 + text, "trailer field-count drift");
        assert_eq!(proto::read_trailer(&bytes).unwrap(), trailer);

        let mut long = bytes.clone();
        long.push(0);
        assert!(
            proto::read_trailer(&long).is_err(),
            "trailing bytes must be rejected"
        );
        for cut in 0..bytes.len() {
            assert!(
                proto::read_trailer(&bytes[..cut]).is_err(),
                "truncation at byte {cut} must be rejected"
            );
        }

        let affected = proto::affected(3, (1, 2), &trailer);
        assert_eq!(proto::read_affected(&affected[1..]).unwrap().2, trailer);
        let done = proto::result_done(4, 1, &trailer);
        assert_eq!(proto::read_result_done(&done[1..]).unwrap().2, trailer);
        let error = proto::error(sciql::ErrorCode::Exec, "boom", &trailer);
        assert_eq!(proto::read_error(&error[1..]).unwrap().1, trailer);
    }
}

/// Tracing must never change what a query returns: with the tracer on,
/// result pages stay byte-identical to the untraced run, at every
/// optimizer level × thread count; with it off, no trace is recorded.
/// (Every timed pass of the end-to-end benchmark runs with tracing off,
/// so any dormant tracing cost lands in its `round_p50_ms`.)
#[test]
fn tracing_leaves_results_byte_identical() {
    const QUERIES: &[&str] = &[
        "SELECT SUM(v) FROM m WHERE x > 3",
        "SELECT [x], [y], v FROM m WHERE v >= 2 AND v < 9",
        "SELECT COUNT(*), MAX(v) FROM m",
    ];
    for opt_level in [0u8, 2] {
        for threads in [1usize, 8] {
            let cfg = SessionConfig {
                threads,
                opt_level,
                ..SessionConfig::default()
            };
            let mut conn = Sciql::connect_with_config("mem:", cfg).unwrap();
            conn.execute(
                "CREATE ARRAY m (x INT DIMENSION[0:1:8], \
                 y INT DIMENSION[0:1:8], v INT DEFAULT 0)",
            )
            .unwrap();
            conn.execute("UPDATE m SET v = x * y - x").unwrap();
            for sql in QUERIES {
                conn.set_tracing(false).unwrap();
                let plain = wire_bytes(&conn.query(sql).unwrap());
                assert_eq!(conn.last_trace_text().unwrap(), None, "{sql}");

                conn.set_tracing(true).unwrap();
                let traced = wire_bytes(&conn.query(sql).unwrap());
                let trace = conn.last_trace_text().unwrap();

                assert_eq!(plain, traced, "opt={opt_level} threads={threads} sql={sql}");
                let text = trace.expect("tracing on records a trace");
                assert!(text.starts_with("trace: "), "{text}");
            }
        }
    }
}

/// The span names of a rendered trace, one per span line (the header
/// line `trace: …` excluded).
fn span_names(trace: &str) -> Vec<&str> {
    trace
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .collect()
}

/// A prepared statement's cached plan skips the whole planning pipeline:
/// the ad-hoc text traces `parse`, `bind`, `rewrite`, `codegen` and
/// `optimize`, while the second execution of the same text prepared
/// traces only `mal` and `result`, and reports one plan-cache hit. Holds
/// embedded and over `tcp://`.
#[test]
fn prepared_reexecution_traces_no_planning_spans() {
    const PLANNING: [&str; 5] = ["parse", "bind", "rewrite", "codegen", "optimize"];
    const SQL: &str = "SELECT [x], v FROM m WHERE v > 3";
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    for url in ["mem:".to_owned(), format!("tcp://{}", handle.addr())] {
        let mut conn = Sciql::connect(&url).unwrap();
        conn.execute("CREATE ARRAY m (x INT DIMENSION[0:1:16], v INT DEFAULT 0)")
            .unwrap();
        conn.execute("UPDATE m SET v = x").unwrap();
        conn.set_tracing(true).unwrap();

        let adhoc = conn.query(SQL).unwrap();
        let trace = conn.last_trace_text().unwrap().expect("ad-hoc trace");
        let names = span_names(&trace);
        for phase in PLANNING.iter().chain(&["mal", "result"]) {
            assert!(
                names.contains(phase),
                "{url}: ad-hoc lacks {phase}:\n{trace}"
            );
        }

        let stmt = conn.prepare(SQL).unwrap();
        let first = conn.query_bound(&stmt, &[]).unwrap();
        let second = conn.query_bound(&stmt, &[]).unwrap();
        assert_eq!(conn.last_report().unwrap().plan_cache_hits, 1, "{url}");
        let trace = conn.last_trace_text().unwrap().expect("prepared trace");
        let names = span_names(&trace);
        for phase in ["mal", "result"] {
            assert!(
                names.contains(&phase),
                "{url}: cached lacks {phase}:\n{trace}"
            );
        }
        for phase in PLANNING {
            assert!(
                !names.contains(&phase),
                "{url}: cached plans {phase}:\n{trace}"
            );
        }
        assert_eq!(wire_bytes(&adhoc), wire_bytes(&first), "{url}");
        assert_eq!(wire_bytes(&adhoc), wire_bytes(&second), "{url}");
        if url.starts_with("tcp") {
            conn.shutdown_server().unwrap();
        }
    }
    handle.wait();
}

fn text_rows(mut rows: Rows) -> Vec<String> {
    let mut out = Vec::new();
    while let Some(row) = rows.next_row() {
        out.push(row.get::<String>(0).unwrap());
    }
    out
}

/// Seed 4 tiles of ascending keys via binary COPY, so `k > 24576`
/// (the last tile boundary) is zone-skippable.
fn seed_tiled(conn: &mut Conn, dir: &std::path::Path, tag: &str) {
    let rows = TILE_ROWS * 4;
    let file = dir.join(format!("tiled-{tag}.bin"));
    let ks: Vec<i32> = (0..rows as i32).collect();
    let vs: Vec<f64> = (0..rows).map(|i| i as f64 * 0.5).collect();
    write_copy_binary(&file, &[Bat::from_ints(ks), Bat::from_dbls(vs)]).unwrap();
    conn.execute("CREATE TABLE ev (k INT, v DOUBLE)").unwrap();
    conn.execute(&format!(
        "COPY ev FROM '{}' (FORMAT binary)",
        file.display()
    ))
    .unwrap();
}

/// The acceptance criterion: EXPLAIN ANALYZE on a COPY-ingested,
/// zone-skippable query shows per-MAL-instruction wall times, thread
/// counts and tiles skipped — and the span structure is identical
/// embedded vs over `tcp://` (values may differ, shape may not).
#[test]
fn explain_analyze_shape_identical_across_transports() {
    let dir = fresh_dir("explain");
    let cfg = SessionConfig {
        threads: 4,
        opt_level: 2,
        ..SessionConfig::default()
    };
    const SQL: &str = "EXPLAIN ANALYZE SELECT SUM(v) FROM ev WHERE k > 24576";

    let mut local = Sciql::connect_with_config("mem:", cfg).unwrap();
    seed_tiled(&mut local, &dir, "local");

    let engine = SharedEngine::new(Connection::with_config(cfg));
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut remote = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();
    seed_tiled(&mut remote, &dir, "remote");

    let local_lines = text_rows(local.query(SQL).unwrap());
    let remote_lines = text_rows(remote.query(SQL).unwrap());

    // Per-MAL-instruction spans with thread counts and zone-map skips
    // are present (tiles 0..=2 hold k ≤ 24575, so 3 of 4 are skipped).
    let text = local_lines.join("\n");
    assert!(text.starts_with("trace: "), "{text}");
    // (No `parse` span: EXPLAIN ANALYZE hands the already-parsed inner
    // SELECT to the traced pipeline.)
    for phase in ["bind", "optimize", "codegen", "mal", "result"] {
        assert!(text.contains(phase), "missing phase {phase}:\n{text}");
    }
    assert!(
        local_lines
            .iter()
            .any(|l| l.contains("[0") && l.contains('.')),
        "per-instruction spans missing:\n{text}"
    );
    assert!(text.contains("threads="), "thread counts missing:\n{text}");
    assert!(
        text.contains("tiles_skipped=3"),
        "zone-map skips missing:\n{text}"
    );

    // Identical shape across transports.
    assert_eq!(
        shape(&local_lines),
        shape(&remote_lines),
        "span structure diverged:\nlocal:\n{}\nremote:\n{}",
        local_lines.join("\n"),
        remote_lines.join("\n"),
    );

    remote.shutdown_server().unwrap();
    handle.wait();
}

/// `sys.metrics` read through `conn`: metric name → value (a
/// histogram's value is its observation count).
fn sys_metrics(conn: &mut Conn) -> HashMap<String, i64> {
    let mut rows = conn.query("SELECT name, value FROM sys.metrics").unwrap();
    let mut out = HashMap::new();
    while let Some(row) = rows.next_row() {
        out.insert(row.get::<String>(0).unwrap(), row.get::<i64>(1).unwrap());
    }
    out
}

/// The other acceptance criterion: after a scripted workload against a
/// durable server, `sys.metrics` and `sys.histograms` read over the wire
/// report the fsync count and latency histogram, plan-cache hits and
/// this connection's own session and bytes.
#[test]
fn metrics_over_the_wire_report_fsyncs_and_plan_cache() {
    let dir = fresh_dir("metrics");
    let engine = SharedEngine::new(Connection::open(dir.join("vault")).unwrap());
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut conn = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();

    // Scripted workload: durable DML (WAL appends + fsyncs) and a
    // prepared statement executed twice (plan-cache miss then hit).
    conn.execute("CREATE TABLE kv (a INT, s VARCHAR)").unwrap();
    for i in 0..4 {
        conn.execute(&format!("INSERT INTO kv VALUES ({i}, 'row-{i}')"))
            .unwrap();
    }
    let stmt = conn.prepare("SELECT s FROM kv WHERE a >= ?").unwrap();
    for bound in [0i32, 2] {
        let rows = conn
            .query_bound(&stmt, &[sciql_repro::gdk::Value::Int(bound)])
            .unwrap();
        assert!(rows.row_count() > 0);
    }
    assert_eq!(conn.last_report().unwrap().plan_cache_hits, 1);

    let m = sys_metrics(&mut conn);
    assert!(m["wal_fsyncs"] > 0, "durable workload must fsync");
    assert!(m["wal_appends"] > 0);
    assert!(m["plan_cache_hits"] >= 1);
    // The server side of this very connection shows up too.
    assert!(m["sessions_opened"] >= 1);
    assert!(m["bytes_in"] > 0);
    assert!(m["bytes_out"] > 0);
    assert!(m["sessions_open"] >= 1);

    // The fsync latency histogram's cumulative buckets end in the +Inf
    // bucket, whose count is the histogram's total — read between two
    // equal totals, so no concurrent fsync slips in.
    let total = |conn: &mut Conn| sys_metrics(conn)["wal_fsync_ns"];
    let mut ok = false;
    for _ in 0..50 {
        let before = total(&mut conn);
        let mut rows = conn
            .query("SELECT bucket_le_ns, count FROM sys.histograms WHERE name = 'wal_fsync_ns'")
            .unwrap();
        let mut buckets = Vec::new();
        while let Some(row) = rows.next_row() {
            buckets.push((
                row.get::<Option<i64>>(0).unwrap(),
                row.get::<i64>(1).unwrap(),
            ));
        }
        if total(&mut conn) != before {
            continue; // another test fsynced in between — retry
        }
        assert!(before > 0, "fsync latency histogram is empty");
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "{buckets:?}");
        assert_eq!(
            buckets.last(),
            Some(&(None, before)),
            "bucket counts must sum to the total"
        );
        ok = true;
        break;
    }
    assert!(ok, "wal_fsync_ns never quiesced across 50 attempts");

    // The same registry renders in Prometheus form.
    let prom = sciql_repro::obs::global().snapshot().to_prometheus_text();
    assert!(prom.contains("# TYPE sciql_wal_fsyncs_total counter"));
    assert!(prom.contains("sciql_wal_fsync_seconds_bucket{le=\"+Inf\"}"));

    conn.shutdown_server().unwrap();
    handle.wait();
}

/// The `sys.metrics` view and the registry snapshot are two faces of the
/// same registry: for counters no concurrent test mutates (the wal/
/// checkpoint family is only touched by WAL work we control), the view
/// scanned over tcp:// must report exactly the values of the snapshot
/// taken in this process, which also hosts the server.
#[test]
fn sys_metrics_view_matches_metrics_snapshot_over_tcp() {
    let engine = SharedEngine::in_memory();
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut conn = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();

    // Counters that only change when *this* process does WAL work; a
    // stable before/after snapshot proves the interleaved view read saw
    // the same values (counters are monotonic).
    const STABLE: &[&str] = &[
        "wal_appends",
        "wal_fsyncs",
        "checkpoints",
        "tiles_rewritten",
    ];
    let sql = "SELECT name, value FROM sys.metrics ORDER BY name";
    let mut ok = false;
    for _ in 0..50 {
        let before = sciql_repro::obs::global().snapshot();
        let mut rows = conn.query(sql).unwrap();
        let mut seen = std::collections::HashMap::new();
        while let Some(row) = rows.next_row() {
            seen.insert(row.get::<String>(0).unwrap(), row.get::<i64>(1).unwrap());
        }
        let after = sciql_repro::obs::global().snapshot();
        if STABLE.iter().any(|n| before.counter(n) != after.counter(n)) {
            continue; // another test's WAL work raced the read — retry
        }
        for n in STABLE {
            assert_eq!(
                seen.get(*n).copied(),
                before.counter(n).map(|v| v as i64),
                "sys.metrics diverges from the registry snapshot on {n}"
            );
        }
        // The view carries every registered counter and gauge, typed.
        assert!(seen.len() >= 16, "only {} metrics in the view", seen.len());
        assert!(seen.contains_key("sessions_open"));
        ok = true;
        break;
    }
    assert!(ok, "metrics never quiesced across 50 attempts");

    // This very session is visible in sys.sessions, with its TCP peer
    // address and a live statement count.
    let mut rows = conn
        .query("SELECT peer, queries FROM sys.sessions")
        .unwrap();
    let mut found_tcp = false;
    while let Some(row) = rows.next_row() {
        let peer = row.get::<String>(0).unwrap();
        if peer.starts_with("127.0.0.1:") {
            assert!(row.get::<i64>(1).unwrap() >= 1);
            found_tcp = true;
        }
    }
    assert!(found_tcp, "own session missing from sys.sessions");

    conn.shutdown_server().unwrap();
    handle.wait();
}

/// Acceptance criterion: the same system-view query — WHERE LIKE and
/// all — produces byte-identical wire pages embedded and over tcp://.
/// (The registry is process-global, so both transports read the same
/// counters; a stability sandwich rules out racing WAL work.)
#[test]
fn sys_metrics_like_filter_byte_identical_across_transports() {
    const SQL: &str = "SELECT name, value FROM sys.metrics WHERE name LIKE 'wal%' ORDER BY name";
    let mut local = Sciql::connect("mem:").unwrap();
    let engine = SharedEngine::in_memory();
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut remote = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();

    let mut ok = false;
    for _ in 0..50 {
        let e0 = wire_bytes(&local.query(SQL).unwrap());
        let t = wire_bytes(&remote.query(SQL).unwrap());
        let e1 = wire_bytes(&local.query(SQL).unwrap());
        if e0 != e1 {
            continue; // wal counters moved under us — retry
        }
        assert_eq!(e0, t, "sys.metrics bytes diverge embedded vs tcp");
        ok = true;
        break;
    }
    assert!(ok, "wal counters never quiesced across 50 attempts");

    remote.shutdown_server().unwrap();
    handle.wait();
}

/// An armed slow-query threshold flags offending statements in
/// `sys.query_log` and retains their span trace even with tracing off.
#[test]
fn slow_queries_are_flagged_and_traced_in_query_log() {
    let mut conn = Sciql::connect("mem:").unwrap();
    conn.execute(
        "CREATE ARRAY slowmark (x INT DIMENSION[0:1:32], y INT DIMENSION[0:1:32], \
         v INT DEFAULT 1)",
    )
    .unwrap();

    // 1 ns: every statement qualifies as slow.
    conn.embedded_connection().unwrap().set_slow_query_ns(1);
    conn.query("SELECT SUM(v) FROM slowmark WHERE x > 7")
        .unwrap();

    // The slow statement left its full span trace despite tracing off.
    {
        let emb = conn.embedded_connection().unwrap();
        assert!(!emb.tracing(), "tracing stays off");
        let trace = emb.last_trace().expect("slow statement keeps its trace");
        assert!(trace.render().contains("mal"), "trace lacks exec spans");
    }

    // Disarm, then read the log through SQL: the marked statement is
    // there, flagged slow; the disarmed follow-up read is not flagged.
    conn.embedded_connection().unwrap().set_slow_query_ns(0);
    // The log stores the canonical printed statement, so match on the
    // distinctive table name rather than the raw input text.
    let mut rows = conn
        .query("SELECT text, slow, error FROM sys.query_log ORDER BY id DESC LIMIT 200")
        .unwrap();
    let mut marked_slow = false;
    while let Some(row) = rows.next_row() {
        let text = row.get::<String>(0).unwrap();
        if text.contains("SUM(v)") && text.contains("slowmark") {
            marked_slow |= row.get::<bool>(1).unwrap();
        }
    }
    assert!(
        marked_slow,
        "marked statement not flagged slow in sys.query_log"
    );

    // Failed statements land in the log with their error text.
    assert!(conn.query("SELECT nope FROM slowmark").is_err());
    let mut rows = conn
        .query("SELECT text, error FROM sys.query_log ORDER BY id DESC LIMIT 5")
        .unwrap();
    let mut failed_logged = false;
    while let Some(row) = rows.next_row() {
        if row.get::<String>(0).unwrap().contains("nope") {
            failed_logged = row.get::<String>(1).is_ok();
        }
    }
    assert!(
        failed_logged,
        "failed statement missing error in sys.query_log"
    );
}

/// One connection per local/remote path into the session runner: an
/// embedded vault, a session attached to a shared durable engine, and a
/// tcp client of a server over a second durable engine.
fn one_conn_per_transport(tag: &str) -> (Vec<(&'static str, Conn)>, impl FnOnce()) {
    let dir = fresh_dir(tag);
    let embedded = Sciql::connect(&format!("file:{}", dir.join("embedded").display())).unwrap();
    let attached = Sciql::attach(&SharedEngine::open(dir.join("attached")).unwrap());
    let served = SharedEngine::open(dir.join("served")).unwrap();
    let handle = Server::bind(served, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let remote = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();
    let conns = vec![("file", embedded), ("attach", attached), ("tcp", remote)];
    (conns, move || {
        handle.stop();
    })
}

/// A traced session's *prepared* write leaves its own trace — WAL append
/// included — on every transport, not the previous statement's.
#[test]
fn prepared_write_is_traced_on_every_transport() {
    let (conns, stop) = one_conn_per_transport("prepwrite");
    for (kind, mut conn) in conns {
        conn.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
        conn.execute("INSERT INTO kv VALUES (1, 10), (2, 20)")
            .unwrap();
        let update = conn.prepare("UPDATE kv SET v = ? WHERE k = ?").unwrap();
        conn.set_tracing(true).unwrap();
        conn.query("SELECT COUNT(*) FROM kv").unwrap();
        assert_eq!(
            conn.execute_bound(&update, sciql_repro::params![11, 1])
                .unwrap(),
            1
        );
        let trace = conn
            .last_trace_text()
            .unwrap()
            .unwrap_or_else(|| panic!("{kind}: prepared write left no trace"));
        assert!(
            trace.starts_with("trace: UPDATE kv SET v = 11"),
            "{kind}: stale trace:\n{trace}"
        );
        assert!(trace.contains("wal.append"), "{kind}:\n{trace}");
    }
    stop();
}

/// The trace of a statement that arrived as text starts with its `parse`
/// span, whichever transport carried the text.
#[test]
fn adhoc_traces_carry_a_parse_span_on_every_transport() {
    let (conns, stop) = one_conn_per_transport("parsespan");
    for (kind, mut conn) in conns {
        conn.execute("CREATE TABLE kv (k INT, v INT)").unwrap();
        conn.set_tracing(true).unwrap();
        for sql in ["SELECT COUNT(*) FROM kv", "INSERT INTO kv VALUES (1, 10)"] {
            conn.run(sql).unwrap();
            let trace = conn.last_trace_text().unwrap().expect("tracing is on");
            let spans: Vec<&str> = trace.lines().skip(2).collect();
            assert!(
                spans.first().is_some_and(|l| l.starts_with("  parse ")),
                "{kind}: {sql}:\n{trace}"
            );
        }
    }
    stop();
}

/// A syntax error counts as one failed query in `sys.metrics`, the same
/// on every transport. (The registry is process-global and other tests
/// fail statements too, so look for a quiet attempt: never fewer than
/// one, and exactly one at least once.)
#[test]
fn syntax_errors_count_as_failed_queries_on_every_transport() {
    fn failed(conn: &mut Conn) -> i64 {
        conn.query("SELECT value FROM sys.metrics WHERE name = 'queries_failed'")
            .unwrap()
            .row(0)
            .expect("queries_failed is a registered counter")
            .get(0)
            .unwrap()
    }
    let (conns, stop) = one_conn_per_transport("syntaxerr");
    for (kind, mut conn) in conns {
        let mut quiet = false;
        for _ in 0..50 {
            let before = failed(&mut conn);
            assert!(conn.run("SELEC nonsense").is_err());
            let counted = failed(&mut conn) - before;
            assert!(counted >= 1, "{kind}: syntax error not counted");
            if counted == 1 {
                quiet = true;
                break;
            }
        }
        assert!(quiet, "{kind}: never saw exactly one failure counted");
    }
    stop();
}

/// `sys.tiles` agrees with the store's tile accounting: one row per
/// (column, tile) with zone-map min/max matching the ingested data.
#[test]
fn sys_tiles_agrees_with_store_accounting() {
    let dir = fresh_dir("systiles");
    let mut conn = Sciql::connect(&format!("file:{}", dir.join("vault").display())).unwrap();
    seed_tiled(&mut conn, &dir, "systiles");

    // 2 columns × 4 tiles of TILE_ROWS rows each.
    let n = conn
        .query("SELECT COUNT(*) FROM sys.tiles WHERE object = 'ev'")
        .unwrap()
        .row(0)
        .unwrap()
        .get::<i64>(0)
        .unwrap();
    assert_eq!(n as usize, 2 * 4, "tile rows for ev");

    // Zone-map extrema match the data: k runs 0..4*TILE_ROWS.
    let mut rows = conn
        .query(
            "SELECT tile, rows, min, max FROM sys.tiles \
             WHERE object = 'ev' AND column = 'k' ORDER BY tile",
        )
        .unwrap();
    let mut tile = 0i64;
    while let Some(row) = rows.next_row() {
        assert_eq!(row.get::<i64>(0).unwrap(), tile);
        assert_eq!(row.get::<i64>(1).unwrap() as usize, TILE_ROWS);
        assert_eq!(
            row.get::<f64>(2).unwrap(),
            (tile as usize * TILE_ROWS) as f64
        );
        assert_eq!(
            row.get::<f64>(3).unwrap(),
            ((tile as usize + 1) * TILE_ROWS - 1) as f64
        );
        tile += 1;
    }
    assert_eq!(tile, 4);

    // sys.wal mirrors VaultStats for this connection's vault.
    let stats = conn
        .embedded_connection()
        .unwrap()
        .vault_stats()
        .expect("durable connection has vault stats");
    let mut rows = conn
        .query("SELECT position, generation FROM sys.wal")
        .unwrap();
    let row = rows.next_row().expect("sys.wal has one row when durable");
    assert_eq!(row.get::<i64>(0).unwrap() as u64, stats.wal_bytes);
    assert_eq!(row.get::<i64>(1).unwrap() as u64, stats.generation);

    // An array's dimensions are generated, never stored: they have no
    // tiles, and the view lists exactly the tile files the vault holds.
    conn.execute(
        "CREATE ARRAY grid (x INT DIMENSION[0:1:128], y INT DIMENSION[0:1:96], v INT DEFAULT 1)",
    )
    .unwrap();
    let count = |conn: &mut Conn, sql: &str| {
        conn.query(sql)
            .unwrap()
            .row(0)
            .unwrap()
            .get::<i64>(0)
            .unwrap() as usize
    };
    let dims = "SELECT COUNT(*) FROM sys.tiles WHERE object = 'grid' AND column <> 'v'";
    assert_eq!(count(&mut conn, dims), 0, "dimensions have no tiles");
    // 128 × 96 cells span two tiles of v.
    let grid = "SELECT COUNT(*) FROM sys.tiles WHERE object = 'grid'";
    assert_eq!(count(&mut conn, grid), 2);
    conn.checkpoint().unwrap();
    let stats = conn.embedded_connection().unwrap().vault_stats().unwrap();
    assert_eq!(stats.columns, 3, "ev.k, ev.v and grid.v");
    let all = "SELECT COUNT(*) FROM sys.tiles";
    assert_eq!(count(&mut conn, all), stats.tile_files);
}

/// Acceptance criterion: the HTTP scrape endpoint answers with the live
/// exposition *while* a workload runs on the frame protocol next door.
#[test]
fn metrics_endpoint_serves_during_workload() {
    use std::io::{Read as _, Write as _};

    let engine = SharedEngine::in_memory();
    let handle = Server::bind(std::sync::Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let scrape = sciql_repro::net::MetricsEndpoint::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();

    let addr = format!("tcp://{}", handle.addr());
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let worker_stop = std::sync::Arc::clone(&stop);
    let worker = std::thread::spawn(move || {
        let mut conn = Sciql::connect(&addr).unwrap();
        conn.execute("CREATE TABLE w (a INT)").unwrap();
        let mut i = 0;
        while worker_stop.load(Ordering::Relaxed) == 0 {
            conn.execute(&format!("INSERT INTO w VALUES ({i})"))
                .unwrap();
            conn.query("SELECT COUNT(*) FROM w").unwrap();
            i += 1;
        }
        conn.close().unwrap();
    });

    // Scrape mid-workload: live 200s with the Prometheus content type.
    for _ in 0..5 {
        let mut s = std::net::TcpStream::connect(scrape.addr()).unwrap();
        write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut body = String::new();
        s.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.1 200 OK\r\n"), "{body}");
        assert!(body.contains("text/plain; version=0.0.4"), "{body}");
        assert!(body.contains("sciql_queries_select_total"), "{body}");
    }
    let mut s = std::net::TcpStream::connect(scrape.addr()).unwrap();
    write!(s, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut health = String::new();
    s.read_to_string(&mut health).unwrap();
    assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
    assert!(health.contains("\nstatements: "), "{health}");

    stop.store(1, Ordering::Relaxed);
    worker.join().unwrap();
    scrape.stop();
    handle.stop();
}

/// The replication waits are measured: after one routed write → read,
/// the primary has timed a ship (`repl_ship_delay_ns`) and the replica a
/// token-carrying read (`repl_token_wait_ns`) — visible in the registry,
/// in `sys.metrics`, in `sys.histograms` and in the `/metrics` text.
#[test]
fn replication_waits_land_in_both_histograms() {
    let dir = fresh_dir("replwaits");
    let primary = SharedEngine::open(dir.join("primary")).unwrap();
    let phandle = Server::bind(std::sync::Arc::clone(&primary), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let replica =
        sciql_repro::repl::Replica::connect(dir.join("replica"), &phandle.addr().to_string())
            .unwrap();
    let rhandle = Server::bind(std::sync::Arc::clone(replica.engine()), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut conn = Sciql::connect(&format!("tcp://{},{}", phandle.addr(), rhandle.addr())).unwrap();
    conn.execute("CREATE TABLE w (a INT)").unwrap();
    conn.execute("INSERT INTO w VALUES (1)").unwrap();
    let mut rows = conn.query("SELECT COUNT(*) FROM w").unwrap();
    assert_eq!(rows.next_row().unwrap().get::<i64>(0).unwrap(), 1);

    const WAITS: [&str; 2] = ["repl_token_wait_ns", "repl_ship_delay_ns"];
    let snap = sciql_repro::obs::global().snapshot();
    for name in WAITS {
        let h = snap.histogram(name).unwrap();
        assert!(h.count > 0, "{name} is empty");
        let counted = conn
            .query(&format!(
                "SELECT value FROM sys.metrics WHERE name = '{name}' AND kind = 'histogram'"
            ))
            .unwrap()
            .next_row()
            .unwrap()
            .get::<i64>(0)
            .unwrap();
        assert!(counted > 0, "sys.metrics: {name}");
        let inf = conn
            .query(&format!(
                "SELECT count FROM sys.histograms WHERE name = '{name}' AND bucket_le_ns IS NULL"
            ))
            .unwrap()
            .next_row()
            .unwrap()
            .get::<i64>(0)
            .unwrap();
        assert!(inf > 0, "sys.histograms: {name}");
    }
    let prom = snap.to_prometheus_text();
    assert!(prom.contains("# TYPE sciql_repl_token_wait_seconds histogram"));
    assert!(prom.contains("# TYPE sciql_repl_ship_delay_seconds histogram"));

    conn.close().unwrap();
    replica.stop();
    rhandle.stop();
    phandle.stop();
}

/// A read held on its monotonic-read token carries the wait as the first
/// span of its trace, inside the statement's root span.
#[test]
fn a_read_held_on_its_token_traces_the_wait() {
    use std::time::{Duration, Instant};

    let engine = SharedEngine::in_memory();
    let mut s = engine.session();
    s.execute("CREATE TABLE t (a INT)").unwrap();
    s.set_tracing(true);
    // Nothing will ever publish (0, 0) → (0, 64) but this thread: the
    // read must wait for it.
    let publisher = {
        let engine = std::sync::Arc::clone(&engine);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            engine.watermark().publish(0, 64);
        })
    };
    assert!(s.wait_for_token((0, 64), Instant::now() + Duration::from_secs(2)));
    publisher.join().unwrap();
    s.query("SELECT COUNT(*) FROM t").unwrap();
    let trace = s.last_trace().expect("tracing is on");
    trace.check().unwrap();
    let wait = &trace.spans()[1];
    assert_eq!(wait.name, "repl.token_wait", "{}", trace.render());
    assert!(wait.dur_ns >= 20_000_000, "{}", trace.render());
    // Only the read that waited carries it.
    s.query("SELECT COUNT(*) FROM t").unwrap();
    let next = s.last_trace().unwrap();
    assert!(next.spans().iter().all(|sp| sp.name != "repl.token_wait"));
    // A token the engine already covers is not a wait.
    assert!(s.wait_for_token((0, 64), Instant::now()));
    s.query("SELECT COUNT(*) FROM t").unwrap();
    assert!(s
        .last_trace()
        .unwrap()
        .spans()
        .iter()
        .all(|sp| sp.name != "repl.token_wait"));
}
