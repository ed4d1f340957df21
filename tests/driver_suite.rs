//! Driver acceptance suite: one `sciql::driver` surface over embedded
//! and network transports.
//!
//! The headline differential test pins **byte-identical result pages**
//! for bound-parameter prepared statements across `mem:` (embedded) vs
//! `tcp://` (served) transports × opt_level {0, 2} × threads {1, 8},
//! plus a property test that random parameter values round-trip through
//! `ExecBound` frames bit-exactly (nil sentinels and strings
//! included). A second differential pins what a statement leaves
//! *behind* — query-log rows, execution report, trace shape — as
//! identical over `mem:`, `Sciql::attach` and `tcp://`.

use proptest::prelude::*;
use sciql_repro::driver::{Conn, Rows, Sciql, SciqlError};
use sciql_repro::gdk::types::{LNG_NIL, OID_NIL};
use sciql_repro::gdk::{Bat, ColumnData, ScalarType, Value};
use sciql_repro::net::proto;
use sciql_repro::net::{Server, ServerConfig};
use sciql_repro::params;
use sciql_repro::sciql::result::ResultSetBuilder;
use sciql_repro::sciql::{
    write_copy_binary, ColumnMeta, Connection, ErrorCode, ResultSet, SessionConfig, SharedEngine,
};
use std::sync::Arc;

mod common;
use common::shape;

/// Statements that build the shared test state: an array with computed
/// cells and a table with strings and NULL holes.
const SEED: &[&str] = &[
    "CREATE ARRAY m (x INT DIMENSION[0:1:6], y INT DIMENSION[0:1:6], v INT DEFAULT 0)",
    "UPDATE m SET v = x * y - x",
    "DELETE FROM m WHERE x = 5 AND y = 5",
    "CREATE TABLE t (a INT, s VARCHAR)",
    "INSERT INTO t VALUES (1, 'alpha'), (2, 'it''s'), (3, NULL), (4, 'Δδ'), (5, 'beta')",
];

/// The prepared statements under test, with two parameter vectors each
/// (so the second execution exercises the plan cache).
fn cases() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    vec![
        (
            "SELECT [x], [y], v FROM m WHERE v >= :lo AND v < :hi",
            vec![
                vec![Value::Int(0), Value::Int(10)],
                vec![Value::Int(-5), Value::Int(3)],
            ],
        ),
        (
            "SELECT COUNT(*) FROM m WHERE x > ?",
            vec![vec![Value::Int(1)], vec![Value::Int(4)]],
        ),
        (
            "SELECT a, s FROM t WHERE a BETWEEN ? AND ? ORDER BY a",
            vec![
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(2), Value::Int(3)],
            ],
        ),
        (
            "SELECT a FROM t WHERE s = ?",
            vec![
                vec![Value::Str("it's".into())],
                vec![Value::Str("Δδ".into())],
            ],
        ),
    ]
}

/// The full wire encoding of a result — the "byte-identical" yardstick
/// (page size 3 forces multi-page results).
fn wire_bytes(rows: &Rows) -> Vec<u8> {
    let rs = rows.result_set();
    let mut bytes = rs.encode_header();
    for page in rs.encode_pages(3) {
        bytes.extend_from_slice(&page);
    }
    bytes
}

fn seed(conn: &mut Conn) {
    for stmt in SEED {
        conn.execute(stmt).expect(stmt);
    }
}

/// The acceptance criterion: `Sciql::connect("tcp://…")` and
/// `Sciql::connect("mem:")` execute the same prepared statement with the
/// same bound parameters and yield byte-identical result pages, at every
/// optimizer level and thread count.
#[test]
fn bound_params_byte_identical_across_transports() {
    for opt_level in [0u8, 2] {
        for threads in [1usize, 8] {
            let cfg = SessionConfig {
                threads,
                opt_level,
                ..SessionConfig::default()
            };
            // Embedded side.
            let mut local = Sciql::connect_with_config("mem:", cfg).unwrap();
            seed(&mut local);
            // Served side: same config, same seed, reached over TCP.
            let engine = SharedEngine::new(Connection::with_config(cfg));
            let handle = Server::bind(engine, "127.0.0.1:0")
                .unwrap()
                .serve()
                .unwrap();
            let mut remote = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();
            seed(&mut remote);

            for (sql, param_sets) in cases() {
                let lstmt = local.prepare(sql).unwrap();
                let rstmt = remote.prepare(sql).unwrap();
                assert_eq!(lstmt.param_count(), rstmt.param_count(), "{sql}");
                for (i, ps) in param_sets.iter().enumerate() {
                    let lrows = local.query_bound(&lstmt, ps).unwrap();
                    let rrows = remote.query_bound(&rstmt, ps).unwrap();
                    assert_eq!(
                        wire_bytes(&lrows),
                        wire_bytes(&rrows),
                        "opt={opt_level} threads={threads} sql={sql} params#{i}"
                    );
                    if i > 0 {
                        // Re-execution hit the plan cache on both sides.
                        for conn in [&mut local, &mut remote] {
                            assert_eq!(conn.last_report().unwrap().plan_cache_hits, 1, "{sql}");
                        }
                    }
                }
            }
            remote.shutdown_server().unwrap();
            handle.wait();
        }
    }
}

/// Only a SELECT, INSERT, UPDATE or DELETE binds values: a placeholder
/// anywhere else is refused when the statement is prepared, on every
/// transport, and the same statements without one prepare and run.
#[test]
fn placeholders_are_refused_where_nothing_binds_them() {
    let engine = SharedEngine::in_memory();
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let csv = std::env::temp_dir().join(format!("sciql-refuse-{}.csv", std::process::id()));
    std::fs::write(&csv, "7\n8\n").unwrap();
    let copy = format!("COPY t FROM '{}' (FORMAT csv)", csv.display());
    for url in ["mem:".to_owned(), format!("tcp://{}", handle.addr())] {
        let mut conn = Sciql::connect(&url).unwrap();
        conn.execute("CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
            .unwrap();
        conn.execute("CREATE TABLE t (k INT)").unwrap();
        let refused = [
            "ALTER ARRAY a ALTER DIMENSION x SET RANGE [0:1:?]",
            "EXPLAIN SELECT v FROM a WHERE x = ?",
            "EXPLAIN ANALYZE SELECT v FROM a WHERE x = :lo",
            "CREATE TABLE d (k INT DEFAULT ?)",
            "CREATE ARRAY b (x INT DIMENSION[0:1:?], v INT)",
        ];
        for sql in refused {
            let err = conn.prepare(sql).unwrap_err();
            assert_eq!(err.code(), ErrorCode::Param, "{url}: {sql}: {err}");
        }
        // A COPY names its file in a string: a placeholder cannot parse.
        let err = conn.prepare("COPY t FROM ? (FORMAT csv)").unwrap_err();
        assert_eq!(err.code(), ErrorCode::Parse, "{url}: {err}");
        let accepted = [
            "ALTER ARRAY a ALTER DIMENSION x SET RANGE [0:1:8]",
            "EXPLAIN SELECT v FROM a WHERE x = 1",
            "EXPLAIN ANALYZE SELECT v FROM a WHERE x = 1",
            "CREATE TABLE d (k INT DEFAULT 5)",
            "CREATE ARRAY b (x INT DIMENSION[0:1:2], v INT)",
            copy.as_str(),
        ];
        for sql in accepted {
            let stmt = conn.prepare(sql).unwrap();
            conn.run_bound(&stmt, &[])
                .unwrap_or_else(|e| panic!("{url}: {sql}: {e}"));
        }
        let cells = conn.query("SELECT COUNT(*) FROM a").unwrap();
        assert_eq!(cells.row(0).unwrap().get::<i64>(0).unwrap(), 8, "{url}");
        let rows = conn.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(rows.row(0).unwrap().get::<i64>(0).unwrap(), 2, "{url}");
    }
    handle.stop();
    std::fs::remove_file(csv).ok();
}

/// Everything one connection's run of the parity script leaves
/// observable: per statement its outcome, the execution report and the
/// trace shape; at the end its `sys.query_log` rows.
#[derive(Debug, PartialEq)]
struct ScriptFootprint {
    steps: Vec<(String, proto::ExecReport, Vec<String>)>,
    log: Vec<(String, String, i64, bool, bool)>,
}

/// Ad-hoc SELECT twice with different literals and prepared SELECT
/// (each a plan-cache miss, then a hit), UPDATE, prepared UPDATE and a
/// failing statement, with tracing on.
fn run_parity_script(conn: &mut Conn) -> ScriptFootprint {
    conn.execute("CREATE TABLE parity_kv (k INT, v INT)")
        .unwrap();
    conn.execute("INSERT INTO parity_kv VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    let watermark: i64 = conn
        .query("SELECT MAX(id) FROM sys.query_log")
        .unwrap()
        .row(0)
        .unwrap()
        .get(0)
        .unwrap();
    conn.set_tracing(true).unwrap();
    let count = conn
        .prepare("SELECT COUNT(*) FROM parity_kv WHERE v > ?")
        .unwrap();
    let set = conn
        .prepare("UPDATE parity_kv SET v = ? WHERE k = ?")
        .unwrap();
    let mut steps = Vec::new();
    let mut step = |conn: &mut Conn, outcome: String| {
        let trace = conn.last_trace_text().unwrap().expect("tracing is on");
        let lines: Vec<String> = trace.lines().map(str::to_owned).collect();
        steps.push((outcome, conn.last_report().unwrap(), shape(&lines)));
    };
    for lo in [2, 3] {
        let sql = format!("SELECT v FROM parity_kv WHERE k >= {lo}");
        let rows = conn.query(&sql).unwrap();
        step(conn, format!("{} rows", rows.row_count()));
    }
    for bound in [15, 25] {
        let mut rows = conn.query_bound(&count, params![bound]).unwrap();
        let n: i64 = rows.next_row().unwrap().get(0).unwrap();
        step(conn, format!("count {n}"));
    }
    let n = conn
        .execute("UPDATE parity_kv SET v = v + 1 WHERE k = 1")
        .unwrap();
    step(conn, format!("{n} affected"));
    let n = conn.execute_bound(&set, params![7, 2]).unwrap();
    step(conn, format!("{n} affected"));
    let err = conn.query("SELECT nope FROM parity_kv").unwrap_err();
    step(conn, format!("{:?}", err.code()));

    conn.set_tracing(false).unwrap();
    let mut rows = conn
        .query(&format!(
            "SELECT kind, text, rows, plan_cache_hit, error FROM sys.query_log \
             WHERE id > {watermark} AND text LIKE '%parity_kv%' ORDER BY id"
        ))
        .unwrap();
    let mut log = Vec::new();
    while let Some(row) = rows.next_row() {
        log.push((
            row.get(0).unwrap(),
            row.get(1).unwrap(),
            row.get(2).unwrap(),
            row.get(3).unwrap(),
            row.get::<Option<String>>(4).unwrap().is_none(),
        ));
    }
    ScriptFootprint { steps, log }
}

/// Every transport enters statements through the same session runner,
/// so the same script leaves the same footprint on each: identical
/// `sys.query_log` rows, `last_report()` counters and trace span shapes.
#[test]
fn script_footprint_identical_across_transports() {
    let mut local = Sciql::connect("mem:").unwrap();
    let mut attached = Sciql::attach(&SharedEngine::in_memory());
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut remote = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();

    let embedded = run_parity_script(&mut local);
    assert_eq!(embedded.steps.len(), 7);
    assert_eq!(embedded.log.len(), 7, "{:#?}", embedded.log);
    let hits: Vec<bool> = embedded.log.iter().map(|r| r.3).collect();
    assert_eq!(hits, [false, true, false, true, false, false, false]);
    assert_eq!(embedded.steps[1].1.plan_cache_hits, 1, "ad-hoc hit");
    assert!(!embedded.log[6].4, "the failing statement logs its error");
    assert_eq!(embedded, run_parity_script(&mut attached), "mem: vs attach");
    assert_eq!(embedded, run_parity_script(&mut remote), "mem: vs tcp://");

    remote.shutdown_server().unwrap();
    handle.wait();
}

/// Error parity: the same failure yields the same `SciqlError` variant
/// (and stable code) on both transports.
#[test]
fn errors_unify_across_transports() {
    let engine = SharedEngine::in_memory();
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut remote = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();
    let mut local = Sciql::connect("mem:").unwrap();

    let check = |local_err: SciqlError, remote_err: SciqlError, code: ErrorCode| {
        assert_eq!(local_err.code(), code, "{local_err}");
        assert_eq!(remote_err.code(), code, "{remote_err}");
        assert_eq!(
            std::mem::discriminant(&local_err),
            std::mem::discriminant(&remote_err)
        );
    };
    // Parse error.
    check(
        local.execute("SELEC nonsense").unwrap_err(),
        remote.execute("SELEC nonsense").unwrap_err(),
        ErrorCode::Parse,
    );
    // Catalog error.
    check(
        local.query("SELECT v FROM nowhere").unwrap_err(),
        remote.query("SELECT v FROM nowhere").unwrap_err(),
        ErrorCode::Catalog,
    );
    // Param error: prepared statement executed with a missing value.
    for conn in [&mut local, &mut remote] {
        conn.execute("CREATE TABLE e (a INT)").unwrap();
    }
    let ls = local.prepare("SELECT a FROM e WHERE a = ?").unwrap();
    let rs = remote.prepare("SELECT a FROM e WHERE a = ?").unwrap();
    check(
        local.query_bound(&ls, &[]).unwrap_err(),
        remote.query_bound(&rs, &[]).unwrap_err(),
        ErrorCode::Param,
    );
    remote.shutdown_server().unwrap();
    handle.wait();
}

/// Named binding, FromSql typed accessors and cursor semantics.
#[test]
fn typed_rows_and_named_params() {
    let mut conn = Sciql::connect("mem:").unwrap();
    seed(&mut conn);
    let stmt = conn
        .prepare("SELECT a, s FROM t WHERE a >= :lo AND a <= :hi ORDER BY a")
        .unwrap();
    let outcome = conn
        .run_named(&stmt, &[(":hi", Value::Int(3)), ("lo", Value::Int(2))])
        .unwrap();
    let sciql_repro::driver::Outcome::Rows(rs) = outcome else {
        panic!("expected rows");
    };
    assert_eq!(rs.row_count(), 2);
    let mut rows = conn.query_bound(&stmt, params![2, 3]).unwrap();
    let first = rows.next_row().unwrap();
    assert_eq!(first.get::<i64>(0).unwrap(), 2);
    assert_eq!(first.get::<String>(1).unwrap(), "it's");
    let second = rows.next_row().unwrap();
    assert_eq!(second.get_by_name::<i64>("a").unwrap(), 3);
    assert_eq!(second.get::<Option<String>>(1).unwrap(), None, "SQL NULL");
    assert!(rows.next_row().is_none(), "cursor exhausted");
    // Type mismatches are statement errors, not panics.
    assert!(matches!(
        rows.row(0).unwrap().get::<String>(0),
        Err(SciqlError::Statement(_))
    ));
    // Unknown named parameter.
    assert!(matches!(
        conn.run_named(&stmt, &[("nope", Value::Int(1))]),
        Err(SciqlError::Param(_))
    ));
    // Unbound named parameter.
    assert!(matches!(
        conn.run_named(&stmt, &[("lo", Value::Int(1))]),
        Err(SciqlError::Param(_))
    ));
}

/// Prepared DML through the driver mutates identically over both
/// transports, and `file:` URLs recover their state.
#[test]
fn file_url_durability_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sciql-driver-vault-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let url = format!("file:{}", dir.display());
    {
        let mut conn = Sciql::connect(&url).unwrap();
        conn.execute("CREATE TABLE kv (k INT, v VARCHAR)").unwrap();
        let ins = conn.prepare("INSERT INTO kv VALUES (?, ?)").unwrap();
        for (k, v) in [(1, "one"), (2, "two")] {
            assert_eq!(conn.execute_bound(&ins, params![k, v]).unwrap(), 1);
        }
        conn.close().unwrap();
    }
    let mut conn = Sciql::connect(&url).unwrap();
    let mut rows = conn.query("SELECT v FROM kv WHERE k = 2").unwrap();
    assert_eq!(rows.next_row().unwrap().get::<String>(0).unwrap(), "two");
    std::fs::remove_dir_all(&dir).ok();
}

/// Driver connections over one in-process `SharedEngine` share state.
#[test]
fn attach_shares_an_engine() {
    let engine = SharedEngine::in_memory();
    let mut a = Sciql::attach(&engine);
    let mut b = Sciql::attach(&engine);
    a.execute("CREATE TABLE shared (x INT)").unwrap();
    a.execute("INSERT INTO shared VALUES (7)").unwrap();
    let stmt = b
        .prepare("SELECT COUNT(*) FROM shared WHERE x = ?")
        .unwrap();
    let mut rows = b.query_bound(&stmt, params![7]).unwrap();
    assert_eq!(rows.next_row().unwrap().get::<i64>(0).unwrap(), 1);
    assert_eq!(b.transport_kind(), "engine");
}

/// With no reader alive, a partial UPDATE on `mem:` writes the stored
/// column in place: the column keeps its address.
#[test]
fn unshared_partial_update_writes_in_place() {
    let mut conn = Sciql::connect("mem:").unwrap();
    conn.execute(
        "CREATE ARRAY a (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)",
    )
    .unwrap();
    drop(conn.query("SELECT v FROM a WHERE x = 1").unwrap());
    let column = |conn: &mut Conn| {
        let store = conn
            .embedded_connection()
            .unwrap()
            .array_store("a")
            .unwrap();
        Arc::as_ptr(&store.attrs[0])
    };
    let before = column(&mut conn);
    assert_eq!(conn.execute("UPDATE a SET v = 7 WHERE x = 1").unwrap(), 4);
    assert_eq!(column(&mut conn), before);
    let mut rows = conn.query("SELECT COUNT(*) FROM a WHERE v = 7").unwrap();
    assert_eq!(rows.next_row().unwrap().get::<i64>(0).unwrap(), 4);
}

/// Bad URLs fail with the Connection code, not a panic.
#[test]
fn connect_rejects_bad_urls() {
    for url in ["", "http://x", "file:", "tcp://"] {
        match Sciql::connect(url) {
            Err(e) => assert_eq!(e.code(), ErrorCode::Connection, "{url}"),
            Ok(_) => panic!("{url} should not connect"),
        }
    }
}

// ---------------------------------------------------------------------
// property: ExecBound frames round-trip bit-exactly
// ---------------------------------------------------------------------

fn value_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bit),
        (-1_000_000i32..1_000_000).prop_map(Value::Int),
        (-1_000_000_000_000i64..1_000_000_000_000).prop_map(Value::Lng),
        (-1.0e12f64..1.0e12).prop_map(Value::Dbl),
        "[ -~]{0,24}".prop_map(Value::Str),
        Just(Value::Str("Δδ π — ünïcode".into())),
        Just(Value::Dbl(f64::NAN)),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random parameter vectors (nil sentinels, strings with quotes,
    /// NaN doubles) survive the ExecBound frame encode/decode bit-exactly:
    /// re-encoding the decoded values reproduces the original payload
    /// byte for byte. Of the random `flags` bytes only bit 0 (trace) is
    /// defined; any other bit is refused.
    #[test]
    fn bind_frames_roundtrip_bit_exactly(
        values in proptest::collection::vec(value_strategy(), 0..8),
        name in "[a-z][a-z0-9_]{0,12}",
        flags in any::<u8>(),
    ) {
        let mut payload = proto::exec_bound(false, &name, &values);
        payload[1] = flags;
        let (op, body) = proto::split(&payload)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(op, proto::Op::ExecBound);
        let decoded = proto::read_exec_bound(body);
        if flags > 1 {
            prop_assert!(decoded.is_err(), "flags {:#04x} accepted", flags);
            return Ok(());
        }
        let (trace, dname, dvalues) = decoded
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(trace, flags == 1);
        prop_assert_eq!(&dname, &name);
        prop_assert_eq!(dvalues.len(), values.len());
        // Bit-exactness: the re-encoded payload is identical (this also
        // covers NaN, which is not == to itself at the Value level).
        let reencoded = proto::exec_bound(trace, &dname, &dvalues);
        prop_assert_eq!(reencoded, payload);
    }
}

// ---------------------------------------------------------------------
// result pages: tcp answers are the embedded columns, cell for cell
// ---------------------------------------------------------------------

/// Rows of the `every` table.
const EVERY_ROWS: usize = 3000;

/// One column per type, nils in every nullable column, NaN payloads
/// besides the canonical nil, nil/duplicate/empty strings, and wide
/// strings that split result pages by bytes.
fn every_type_columns() -> Vec<Bat> {
    let n = EVERY_ROWS;
    let pool = ["", "dup", "Δδ", "it's", "dup"];
    vec![
        Bat::from_ints((0..n as i32).collect()),
        Bat::from_bits((0..n).map(|k| (k % 3 != 2).then_some(k % 2 == 0)).collect()),
        Bat::from_opt_ints(
            (0..n as i32)
                .map(|k| (k % 11 != 0).then_some(k * 7 - 5))
                .collect(),
        ),
        Bat::from_data(ColumnData::Lng(
            (0..n as i64)
                .map(|k| if k % 13 == 0 { LNG_NIL } else { (k << 33) - 1 })
                .collect(),
        )),
        Bat::from_dbls(
            (0..n)
                .map(|k| match k % 17 {
                    0 => f64::NAN,
                    5 => f64::from_bits(0x7ff8_0000_0000_0000 | k as u64),
                    9 => f64::from_bits(0xfff0_0000_0000_0001 + k as u64),
                    12 => -0.0,
                    _ => k as f64 / 8.0,
                })
                .collect(),
        ),
        Bat::from_oids(
            (0..n as u64)
                .map(|k| if k % 23 == 0 { OID_NIL } else { k * 3 })
                .collect(),
        ),
        Bat::from_strs(
            (0..n)
                .map(|k| (k % 5 != 1).then_some(pool[k % 7 % 5]))
                .collect(),
        ),
        Bat::from_strs(
            (0..n)
                .map(|k| Some(format!("{k:04}-").repeat(400)))
                .collect(),
        ),
    ]
}

/// The typed column exactly, except that doubles compare by bit pattern
/// (NaN is not equal to itself) and strings by their resolved values (a
/// page carries its own dictionary, not the stored heap's numbering).
fn assert_same_column(tcp: &Bat, embedded: &Bat, what: &str) {
    let resolved = |b: &Bat| -> Vec<Option<String>> {
        let ColumnData::Str { idx, heap } = b.data() else {
            unreachable!()
        };
        idx.iter()
            .map(|&i| heap.get(i).map(str::to_owned))
            .collect()
    };
    match (tcp.data(), embedded.data()) {
        (ColumnData::Dbl(a), ColumnData::Dbl(b)) => {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{what}");
        }
        (ColumnData::Str { .. }, ColumnData::Str { .. }) => {
            assert_eq!(resolved(tcp), resolved(embedded), "{what}")
        }
        (a, b) => assert_eq!(a, b, "{what}"),
    }
    for r in 0..embedded.len() {
        assert_eq!(tcp.get(r), embedded.get(r), "{what} row {r}");
    }
}

fn assert_same_result(tcp: &ResultSet, embedded: &ResultSet, what: &str) {
    assert_eq!(tcp.columns, embedded.columns, "{what}");
    assert_eq!(tcp.row_count(), embedded.row_count(), "{what}");
    for (c, (t, e)) in tcp.bats.iter().zip(&embedded.bats).enumerate() {
        assert_same_column(t, e, &format!("{what}, column {c}"));
    }
}

/// A result fetched over tcp is the embedded result: the same typed
/// column for every type (nil sentinels and NaN payloads bit for bit,
/// nil/duplicate/empty strings, an oid column over three pages), at 1,
/// 1023, 1024 and 1025 rows around the 1024-row page, and for wide
/// strings whose pages close on the byte bound.
#[test]
fn tcp_results_equal_embedded_results_for_every_type() {
    let path = std::env::temp_dir().join(format!("sciql-every-{}.scpy", std::process::id()));
    write_copy_binary(&path, &every_type_columns()).unwrap();
    let engine = SharedEngine::in_memory();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut tcp = Sciql::connect(&format!("tcp://{}", handle.addr())).unwrap();
    tcp.execute(
        "CREATE TABLE every (k INT, b BOOLEAN, i INT, l BIGINT, d DOUBLE, o OID, \
         s VARCHAR, w VARCHAR)",
    )
    .unwrap();
    let copied = tcp
        .execute(&format!(
            "COPY every FROM '{}' (FORMAT binary)",
            path.display()
        ))
        .unwrap();
    assert_eq!(copied, EVERY_ROWS as u64);
    std::fs::remove_file(&path).ok();
    let mut embedded = Sciql::attach(&engine);

    let mut statements: Vec<String> = [1, 1023, 1024, 1025, EVERY_ROWS]
        .iter()
        .map(|n| format!("SELECT k, b, i, l, d, o, s FROM every WHERE k < {n}"))
        .collect();
    statements.push("SELECT k, w FROM every WHERE k < 1100".into());
    for sql in &statements {
        let t = tcp.query(sql).unwrap().into_result_set();
        let e = embedded.query(sql).unwrap().into_result_set();
        assert_same_result(&t, &e, sql);
    }
    // The wide statement really crossed as byte-bounded pages.
    let wide = embedded.query(&statements[5]).unwrap().into_result_set();
    let page_bytes = ServerConfig::default().page_bytes;
    assert!(wide.page_rows(0, proto::PAGE_ROWS, page_bytes) < proto::PAGE_ROWS);

    tcp.shutdown_server().unwrap();
    handle.wait();
}

/// No SQL statement yields a void column, so this one goes through the
/// page codec directly, split the way the server splits it: it arrives
/// as the same void column, not as materialised oids.
#[test]
fn void_columns_cross_pages_as_void() {
    let rs = ResultSet {
        columns: vec![ColumnMeta {
            name: "o".into(),
            ty: ScalarType::OidT,
            dimensional: false,
        }],
        bats: vec![Arc::new(Bat::dense(77, 3 * proto::PAGE_ROWS + 1))],
    };
    let mut b = ResultSetBuilder::from_header(&rs.encode_header()).unwrap();
    let page_bytes = ServerConfig::default().page_bytes;
    let mut pages = 0;
    for page in rs.pages(proto::PAGE_ROWS, page_bytes) {
        b.push_page(&page).unwrap();
        pages += 1;
    }
    assert_eq!(pages, 4);
    assert_same_result(&b.finish(), &rs, "void");
}

/// Statement handles are pinned to the connection that prepared them —
/// a foreign handle is refused instead of silently addressing an
/// unrelated statement with the same generated name.
#[test]
fn statements_are_connection_local() {
    let mut a = Sciql::connect("mem:").unwrap();
    let mut b = Sciql::connect("mem:").unwrap();
    for conn in [&mut a, &mut b] {
        conn.execute("CREATE TABLE t (x INT)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    let stmt_a = a.prepare("SELECT COUNT(*) FROM t WHERE x = ?").unwrap();
    // Same generated name slot on b, very different statement.
    let _stmt_b = b.prepare("DELETE FROM t WHERE x = ?").unwrap();
    match b.run_bound(&stmt_a, &[Value::Int(1)]) {
        Err(SciqlError::Statement(_)) => {}
        other => panic!("foreign statement must be refused, got {other:?}"),
    }
    assert!(b.deallocate(stmt_a).is_err(), "deallocate checks too");
    // b's own table is untouched by the refused call.
    let mut rows = b.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rows.next_row().unwrap().get::<i64>(0).unwrap(), 1);
}
