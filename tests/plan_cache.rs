//! The ad-hoc SELECT plan cache.
//!
//! An ad-hoc SELECT is planned in its lifted form, with its WHERE
//! comparison literals turned into placeholder slots, and the next
//! statement that differs only in those literals reruns that plan. The
//! differential here pins that a lifted plan answers exactly like the
//! unlifted one: every statement of the EXPLAIN corpus, plus statements
//! with a literal of every kind, runs ad hoc twice with different
//! literals (one miss, one hit), and each page is byte-identical to the
//! same text `PREPARE`d, which plans its own AST, at opt {0, 2} ×
//! threads {1, 8}. A plan is reused only against the schema and
//! settings it was compiled for.
//!
//! A prepared write binds its values the same way: every prepared
//! UPDATE, DELETE and INSERT here answers, changes the database and logs
//! exactly like the statement with its values written as literals, on
//! `mem:`, `tcp://` and `file:`, and a prepared UPDATE or DELETE reruns
//! its plan while the schema, the settings and its values' types hold
//! (and its values, where the plan holds one as a constant).

use sciql_repro::driver::{Conn, Sciql};
use sciql_repro::gdk::Value;
use sciql_repro::net::Server;
use sciql_repro::parser::{parse_statement, Expr, Literal, Stmt};
use sciql_repro::sciql::{Connection, ResultSet, SessionConfig, SharedEngine};
use std::path::Path;

#[path = "common/corpus.rs"]
mod corpus;

/// Data for the corpus schema: negative values, NULL holes and strings.
const DATA: &[&str] = &[
    "UPDATE matrix SET v = x * 4 + y - 6",
    "DELETE FROM matrix WHERE x = 3 AND y = 3",
    "UPDATE img SET v = (x * 37 + y * 11) % 256",
    "UPDATE life SET v = (x + y) % 2",
    "INSERT INTO aoi VALUES (0, 0, 'origin'), (1, 2, 'a'), (3, 3, NULL), (2, 1, 'ab')",
    "INSERT INTO obs VALUES (1, 0.5, 'a'), (2, NULL, 'b'), (3, 2.5, NULL), \
     (2147483647, -1.25, 'ab'), (-7, 1000.0, 'it''s')",
];

/// A WHERE literal of every kind the lifting walk meets.
const LITERALS: &[&str] = &[
    "SELECT [x], [y], v FROM matrix WHERE v > 3",
    // INT column against LNG-range literals.
    "SELECT k FROM obs WHERE k < 3000000000",
    "SELECT v FROM matrix WHERE x <> 3000000000",
    // DOUBLE literals against an INT column compare as DOUBLE: a
    // pushed-down select rejects the DOUBLE bound, either plan alike.
    "SELECT v FROM matrix WHERE v > 2.5",
    "SELECT v FROM matrix WHERE v * 1 > 2.5",
    "SELECT k, w FROM obs WHERE w >= -1.25 AND k <> -7",
    "SELECT k FROM obs WHERE s = 'ab'",
    "SELECT k FROM obs WHERE s < 'b' OR s > 'it''s'",
    "SELECT k FROM obs WHERE (k > 1) = TRUE",
    // NULL stays in the statement; only `k > 1` is lifted.
    "SELECT k FROM obs WHERE w = NULL OR k > 1",
    "SELECT v FROM matrix WHERE x BETWEEN 1 AND 2 AND y NOT BETWEEN 0 AND 1",
    "SELECT v FROM matrix WHERE 2 < x AND -1 >= y - x",
    "SELECT COUNT(*), SUM(v) FROM matrix WHERE v <= 5",
    "SELECT x, SUM(v) FROM matrix WHERE y >= 1 GROUP BY x HAVING SUM(v) > 0",
    "SELECT a.name, m.v FROM matrix m JOIN aoi a ON m.x = a.x WHERE m.v > 0 AND a.y <= 2",
    "SELECT k FROM obs WHERE 1 = 1 AND k = 2",
    "SELECT [x], [y], img[x-1][y] FROM img WHERE img[x][y-1] > 100",
    // A kernel error fails both plans alike.
    "SELECT v / (x - x) FROM matrix WHERE x > 1",
];

/// The statements above that fail (on both plans).
const EXPECTED_ERRORS: &[&str] = &["SELECT v / (x - x) FROM matrix WHERE x > 1"];

/// The same statement with every lifted literal changed (and of the same
/// type), so it shares the first statement's plan.
fn other_literals(sql: &str) -> String {
    let Ok(Stmt::Select(sel)) = parse_statement(sql) else {
        panic!("{sql}: not a SELECT")
    };
    let (mut lifted, literals) = sel.lift_literals().expect("no placeholders");
    let changed: Vec<Literal> = literals
        .into_iter()
        .map(|l| match l {
            Literal::Int(v) => Literal::Int(1 - v),
            Literal::Float(v) => Literal::Float(1.0 - v),
            Literal::Str(s) => Literal::Str(format!("{s}b")),
            Literal::Bool(b) => Literal::Bool(!b),
            Literal::Null => unreachable!("NULL is never lifted"),
        })
        .collect();
    if let Some(w) = &mut lifted.where_clause {
        fill_slots(w, &changed);
    }
    Stmt::Select(lifted).to_string()
}

/// Put `values[k]` in place of slot `k` wherever lifting puts slots: in
/// the operands of comparisons, `BETWEEN` and the boolean structure.
fn fill_slots(e: &mut Expr, values: &[Literal]) {
    match e {
        Expr::Param(p) => *e = Expr::Literal(values[p.slot].clone()),
        Expr::Binary { lhs, rhs, .. } => {
            fill_slots(lhs, values);
            fill_slots(rhs, values);
        }
        Expr::Between { expr, lo, hi, .. } => {
            for e in [expr, lo, hi] {
                fill_slots(e, values);
            }
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => fill_slots(expr, values),
        _ => {}
    }
}

/// A result as it travels (header plus 3-row pages), or the error text.
fn outcome(result: Result<ResultSet, impl std::fmt::Display>) -> Result<Vec<u8>, String> {
    result
        .map(|rs| {
            let mut bytes = rs.encode_header();
            for page in rs.encode_pages(3) {
                bytes.extend_from_slice(&page);
            }
            bytes
        })
        .map_err(|e| e.to_string())
}

/// The unlifted reference: the same text prepared with no placeholders.
fn prepared(conn: &mut Connection, sql: &str) -> Result<Vec<u8>, String> {
    conn.prepare("reference", sql).unwrap();
    outcome(
        conn.execute_prepared("reference", &[])
            .and_then(|r| r.rows()),
    )
}

fn seeded(cfg: SessionConfig) -> Connection {
    let mut conn = Connection::with_config(cfg);
    for sql in corpus::SCHEMA.iter().chain(DATA) {
        conn.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    conn
}

fn span_names(conn: &Connection) -> Vec<String> {
    let trace = conn.last_trace().expect("tracing is on");
    trace.spans().iter().map(|s| s.name.clone()).collect()
}

#[test]
fn lifted_plans_answer_like_unlifted_ones() {
    let statements = corpus::CORPUS
        .iter()
        .map(|(_, sql)| *sql)
        .filter(|sql| !sql.contains('?'))
        .chain(LITERALS.iter().copied());
    let statements: Vec<&str> = statements.collect();
    for opt_level in [0u8, 2] {
        for threads in [1usize, 8] {
            let cfg = SessionConfig {
                threads,
                parallel_threshold: if threads > 1 { 1 } else { usize::MAX },
                opt_level,
                ..SessionConfig::default()
            };
            let mut failing = Vec::new();
            for &first in &statements {
                let second = other_literals(first);
                let ctx = format!("opt={opt_level} threads={threads} sql={first}");
                let mut conn = seeded(cfg);
                conn.set_tracing(true);
                for (i, sql) in [first, second.as_str()].into_iter().enumerate() {
                    let adhoc = outcome(conn.query(sql));
                    let ok = adhoc.is_ok();
                    if ok {
                        let hits = conn.last_exec().exec.plan_cache_hits;
                        assert_eq!(hits, i, "{ctx}: run {i} of {sql}");
                        let names = span_names(&conn);
                        for span in ["parse", "mal", "result"] {
                            assert!(names.iter().any(|n| n == span), "{ctx}: no {span}");
                        }
                        for span in ["bind", "rewrite", "codegen", "optimize"] {
                            let planned = names.iter().any(|n| n == span);
                            assert_eq!(planned, i == 0, "{ctx}: {span} on run {i}");
                        }
                    }
                    if i == 0 && !ok {
                        failing.push(first);
                    }
                    assert_eq!(adhoc, prepared(&mut conn, sql), "{ctx}: run {i} of {sql}");
                }
            }
            assert_eq!(failing, EXPECTED_ERRORS);
        }
    }
}

#[test]
fn schema_and_config_changes_force_a_miss() {
    let mut conn = seeded(SessionConfig::default());
    let hits = |conn: &mut Connection, sql: &str| {
        conn.query(sql).unwrap();
        conn.last_exec().exec.plan_cache_hits
    };
    assert_eq!(hits(&mut conn, "SELECT v FROM matrix WHERE x > 1"), 0);
    assert_eq!(hits(&mut conn, "SELECT v FROM matrix WHERE x > 2"), 1);
    // A script's statements use the cache too.
    let script = conn
        .execute_script("SELECT v FROM matrix WHERE x > 0")
        .unwrap();
    assert_eq!(script.len(), 1);
    assert_eq!(conn.last_exec().exec.plan_cache_hits, 1, "script");

    conn.execute("CREATE TABLE unrelated (a INT)").unwrap();
    assert_eq!(
        hits(&mut conn, "SELECT v FROM matrix WHERE x > 3"),
        0,
        "DDL"
    );
    assert_eq!(hits(&mut conn, "SELECT v FROM matrix WHERE x > 1"), 1);

    conn.set_session_config(SessionConfig::with_opt_level(0));
    assert_eq!(
        hits(&mut conn, "SELECT v FROM matrix WHERE x > 1"),
        0,
        "config"
    );
    assert_eq!(hits(&mut conn, "SELECT v FROM matrix WHERE x > 0"), 1);

    // A literal of another type, and literals that are not lifted, make
    // another statement.
    assert_eq!(
        hits(&mut conn, "SELECT v FROM matrix WHERE x > 3000000000"),
        0,
        "LNG"
    );
    assert_eq!(hits(&mut conn, "SELECT v + 1 FROM matrix WHERE x > 0"), 0);
    assert_eq!(hits(&mut conn, "SELECT v + 2 FROM matrix WHERE x > 0"), 0);
    assert_eq!(
        hits(&mut conn, "SELECT v FROM matrix WHERE x > 0 LIMIT 2"),
        0
    );
    assert_eq!(
        hits(&mut conn, "SELECT v FROM matrix WHERE x > 1 LIMIT 2"),
        1
    );
    assert_eq!(
        hits(&mut conn, "SELECT v FROM matrix WHERE x > 0 LIMIT 3"),
        0
    );
    assert_eq!(
        hits(&mut conn, "SELECT v FROM matrix[0:2][0:2] WHERE v > 0"),
        0
    );
    assert_eq!(
        hits(&mut conn, "SELECT v FROM matrix[0:3][0:2] WHERE v > 0"),
        0
    );

    // EXPLAIN plans the statement it is given.
    let explained = conn.explain("SELECT v FROM matrix WHERE x > 1").unwrap();
    assert!(explained.contains(", 1, \">\")"), "{explained}");
}

/// Swap an engine's connection for a fresh one whose `t` has a second
/// column. Both catalogs went through one schema change, so before
/// schema versions were process-unique they compared equal and the
/// session kept running its one-column plan.
#[test]
fn cached_plan_does_not_outlive_a_catalog_swap() {
    const SQL: &str = "SELECT * FROM t";
    let engine = SharedEngine::in_memory();
    let mut sess = engine.session();
    sess.execute("CREATE TABLE t (a INT)").unwrap();
    sess.prepare("q", SQL).unwrap();
    for _ in 0..2 {
        let rs = sess.execute_prepared("q", &[]).unwrap().rows().unwrap();
        assert_eq!(rs.column_count(), 1);
        let rs = sess.query(SQL).unwrap();
        assert_eq!(rs.column_count(), 1);
    }
    assert_eq!(sess.last_exec().exec.plan_cache_hits, 1);

    let mut fresh = Connection::new();
    fresh.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    *engine.connection() = fresh;

    let prepared = sess.execute_prepared("q", &[]).unwrap().rows().unwrap();
    assert_eq!(
        sess.last_exec().exec.plan_cache_hits,
        0,
        "prepared plan is stale"
    );
    assert_eq!(prepared.column_count(), 2);
    let adhoc = sess.query(SQL).unwrap();
    assert_eq!(
        sess.last_exec().exec.plan_cache_hits,
        0,
        "ad-hoc plan is stale"
    );
    assert_eq!(adhoc.column_count(), 2);
}

// ---------------------------------------------------------------------
// prepared writes against the same statements written with literals
// ---------------------------------------------------------------------

/// What the prepared writes start from: a table and a fixed array with a
/// column of every type, an unbounded array, an `INSERT … SELECT` target
/// and a fixed array of one attribute for cell references.
const WRITE_SCHEMA: &[&str] = &[
    "CREATE TABLE t (k INT, w DOUBLE, s VARCHAR, b BOOLEAN, n BIGINT)",
    "INSERT INTO t VALUES (1, 0.5, 'a', TRUE, 1), (2, NULL, 'it''s', FALSE, 3000000000), \
     (3, 2.5, NULL, NULL, -4), (4, -1.25, 'b', TRUE, NULL)",
    "CREATE ARRAY g (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0, d DOUBLE)",
    "UPDATE g SET v = x * 4 + y - 6",
    "CREATE ARRAY u (x INT DIMENSION, y INT DIMENSION, v INT DEFAULT 0)",
    "CREATE TABLE sink (k INT, s VARCHAR)",
    "CREATE ARRAY h (x INT DIMENSION[0:1:6], v INT DEFAULT 0)",
    "UPDATE h SET v = x * 3 - 2",
];

/// The objects compared after every write.
const WRITE_OBJECTS: &[&str] = &["t", "g", "u", "sink", "h"];

/// Prepared writes, each with the value rows it runs with, in order.
/// Values of every kind: INT, BIGINT in and past the INT range, DOUBLE
/// (2.5 against an INT column), VARCHAR with a quote, BOOLEAN and NULL.
/// Three put placeholders where the plan folds them into constants (a
/// cell offset, slice bounds, tile offsets), with a value repeated after
/// another so a plan kept for the first would show; the last two compute
/// a value from placeholders alone.
fn writes() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    use Value::{Bit, Dbl, Int, Lng, Null};
    let s = |v: &str| Value::Str(v.into());
    let big = || Value::Lng(3_000_000_000);
    vec![
        (
            "UPDATE t SET w = ?, s = ?, b = ?, n = ? WHERE k = ?",
            vec![
                vec![Dbl(1.5), s("it's"), Bit(false), big(), Int(1)],
                vec![Null, Null, Null, Null, Int(2)],
                vec![Dbl(-0.25), s("q"), Bit(true), Int(7), Dbl(2.5)],
                vec![Int(7), s("x"), Bit(true), Int(-1), big()],
                vec![Dbl(9.0), s("y"), Bit(false), Int(0), Null],
                vec![Dbl(3.0), s("z"), Bit(true), Int(2), Dbl(3.0)],
            ],
        ),
        (
            "UPDATE t SET k = k + ? WHERE w > ? OR b = ?",
            vec![
                vec![Int(10), Dbl(0.1), Bit(false)],
                vec![big(), Int(0), Bit(true)],
                vec![Int(-10), Null, Bit(true)],
            ],
        ),
        (
            "DELETE FROM t WHERE s = ? OR k > ?",
            vec![
                vec![s("nothing"), big()],
                vec![s("it's"), Int(100)],
                vec![Null, Dbl(12.5)],
            ],
        ),
        (
            "INSERT INTO t VALUES (?, ?, ?, ?, ?)",
            vec![
                vec![Int(5), Dbl(0.25), s("o'k"), Bit(true), big()],
                vec![Null, Null, Null, Null, Null],
                vec![big(), Dbl(1.0), s("x"), Bit(false), Int(1)],
                vec![Dbl(2.5), Int(3), s("r"), Bit(true), Dbl(4.0)],
            ],
        ),
        (
            "INSERT INTO t (k, s) VALUES (?, ?), (? + 1, 'lit')",
            vec![vec![Int(6), s("six"), Int(6)], vec![Int(7), Null, big()]],
        ),
        (
            "UPDATE g SET v = CASE WHEN x > ? THEN v + ? WHEN x < y THEN ? ELSE v END, d = ? \
             WHERE y <> ?",
            vec![
                vec![Int(1), Int(100), Int(-1), Dbl(0.5), Int(0)],
                vec![Dbl(2.5), Int(1), Int(0), Null, Int(3)],
                vec![Int(0), big(), Int(0), Int(2), Int(1)],
                vec![Int(0), Null, Null, Int(2), Null],
            ],
        ),
        (
            "DELETE FROM g WHERE x = ? AND y >= ?",
            vec![
                vec![Int(1), Int(2)],
                vec![Dbl(2.5), Int(0)],
                vec![big(), Int(0)],
                vec![Null, Int(0)],
            ],
        ),
        (
            "INSERT INTO g VALUES (?, ?, ?, ?)",
            vec![
                vec![Int(0), Int(1), Int(42), Dbl(1.5)],
                vec![Int(9), Int(0), Int(1), Null],
                vec![Dbl(2.5), Int(0), Int(1), Null],
                vec![Int(3), Int(3), big(), Null],
                vec![Int(2), Int(2), Null, Int(7)],
            ],
        ),
        (
            "INSERT INTO u VALUES (?, ?, ?)",
            vec![
                vec![Int(1), Int(2), Int(5)],
                vec![Int(1), Int(2), Null],
                vec![Int(0), Int(0), Int(1)],
            ],
        ),
        (
            "INSERT INTO sink SELECT k, s FROM t WHERE k > ? AND s <> ?",
            vec![
                vec![Int(0), s("a")],
                vec![Dbl(1.5), s("it's")],
                vec![big(), Null],
            ],
        ),
        (
            "UPDATE t SET n = k * ? * ? WHERE k > ?",
            vec![
                vec![Lng(100_000), Lng(100_000), Int(1)],
                vec![Lng(7), Lng(6), Lng(2)],
                vec![big(), Lng(2), Int(3)],
            ],
        ),
        (
            "UPDATE h SET v = h[x+?] WHERE x < ?",
            vec![
                vec![Int(1), Int(3)],
                vec![Int(2), Int(2)],
                vec![Int(1), Int(3)],
                vec![Lng(1), Lng(4)],
                vec![Dbl(0.5), Int(3)],
            ],
        ),
        (
            "INSERT INTO sink SELECT v, ? FROM h[?:4]",
            vec![
                vec![s("slab"), Int(1)],
                vec![s("it's"), Lng(2)],
                vec![s("x"), Int(1)],
            ],
        ),
        (
            "INSERT INTO sink SELECT SUM(v), 'tile' FROM g GROUP BY g[x-?:x+?][y]",
            vec![
                vec![Int(1), Int(2)],
                vec![Int(0), Lng(1)],
                vec![Int(1), Int(2)],
                vec![Int(0), Int(0)],
            ],
        ),
        (
            "UPDATE t SET n = ? * ?, w = -? WHERE k > ?",
            vec![
                vec![Lng(7), Lng(6), Dbl(2.5), Int(2)],
                vec![big(), Int(2), Int(1), Int(0)],
                vec![Int(3), Null, Null, Int(1)],
            ],
        ),
        (
            "INSERT INTO sink SELECT ? * ?, s FROM t WHERE k > ?",
            vec![vec![Int(3), Int(4), Int(0)], vec![Lng(2), Null, Int(1)]],
        ),
    ]
}

/// The executions in [`writes`] that fail, as `(statement, row)`, each
/// with the same error both ways: a sum past the INT range (twice), a
/// BIGINT into an INT column, a failing second VALUES row, a cell outside
/// the ranges (twice), a fractional dimension, a BIGINT into an INT
/// attribute, a product of INT-range BIGINTs past the INT range, a
/// fractional cell offset and an empty tile.
const WRITE_ERRORS: &[(usize, usize)] = &[
    (1, 1),
    (3, 2),
    (4, 1),
    (5, 2),
    (7, 1),
    (7, 2),
    (7, 3),
    (8, 2),
    (10, 0),
    (11, 4),
    (13, 3),
];

/// `sql` with its `?` slots, in order, written as the literals of
/// `values`.
fn with_literals(sql: &str, values: &[Value]) -> String {
    let literal = |v: &Value| match v {
        Value::Null => Literal::Null,
        Value::Bit(b) => Literal::Bool(*b),
        Value::Int(i) => Literal::Int(i64::from(*i)),
        Value::Lng(i) => Literal::Int(*i),
        Value::Dbl(d) => Literal::Float(*d),
        Value::Str(s) => Literal::Str(s.clone()),
        Value::Oid(_) => unreachable!("no OID is bound here"),
    };
    let mut pieces = sql.split('?');
    let first = pieces.next().unwrap_or_default().to_owned();
    let filled = pieces.zip(values).fold(first, |text, (piece, v)| {
        text + &literal(v).to_string() + piece
    });
    assert_eq!(sql.matches('?').count(), values.len(), "{sql}");
    filled
}

fn seed_writes(mut conn: Conn) -> Conn {
    for sql in WRITE_SCHEMA {
        conn.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    conn
}

/// Run every write of [`writes`] prepared on `prepared` and written with
/// literals on `literal`, two databases seeded alike: each execution
/// must end alike (affected count or error text), and then every object
/// must read back in byte-identical pages.
fn compare_writes(prepared: &mut Conn, literal: &mut Conn, ctx: &str) {
    let mut failed = Vec::new();
    for (i, (sql, rows)) in writes().into_iter().enumerate() {
        let stmt = prepared.prepare(sql).unwrap();
        for (j, values) in rows.iter().enumerate() {
            let text = with_literals(sql, values);
            let bound = prepared.execute_bound(&stmt, values);
            let inlined = literal.execute(&text);
            let (bound, inlined) = (
                bound.map_err(|e| e.to_string()),
                inlined.map_err(|e| e.to_string()),
            );
            assert_eq!(bound, inlined, "{ctx}: {text}");
            if bound.is_err() {
                failed.push((i, j));
            }
            for obj in WRITE_OBJECTS {
                let q = format!("SELECT * FROM {obj}");
                let read = |conn: &mut Conn| outcome(conn.query(&q).map(|r| r.into_result_set()));
                assert_eq!(read(prepared), read(literal), "{ctx}: {text}: {obj}");
            }
        }
    }
    assert_eq!(failed, WRITE_ERRORS, "{ctx}");
}

#[test]
fn prepared_writes_answer_like_literal_ones() {
    for opt_level in [0u8, 2] {
        for threads in [1usize, 8] {
            let cfg = SessionConfig {
                threads,
                parallel_threshold: if threads > 1 { 1 } else { usize::MAX },
                opt_level,
                ..SessionConfig::default()
            };
            let ctx = format!("opt={opt_level} threads={threads}");
            let [mut p, mut l] =
                [(); 2].map(|()| seed_writes(Sciql::connect_with_config("mem:", cfg).unwrap()));
            compare_writes(&mut p, &mut l, &format!("mem: {ctx}"));
            let servers = [(); 2].map(|()| {
                let engine = SharedEngine::new(Connection::with_config(cfg));
                Server::bind(engine, "127.0.0.1:0")
                    .unwrap()
                    .serve()
                    .unwrap()
            });
            {
                let [mut p, mut l] = servers
                    .each_ref()
                    .map(|h| seed_writes(Sciql::connect(&format!("tcp://{}", h.addr())).unwrap()));
                compare_writes(&mut p, &mut l, &format!("tcp: {ctx}"));
            }
            for h in servers {
                h.stop();
            }
        }
    }
}

/// The WAL files of a vault, by name.
fn wal_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn prepared_and_literal_writes_log_identical_wal_files() {
    let dirs = ["prepared", "literal"].map(|tag| {
        let dir =
            std::env::temp_dir().join(format!("sciql-plan-cache-wal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    });
    let [mut p, mut l] = dirs
        .each_ref()
        .map(|d| seed_writes(Sciql::connect(&format!("file:{}", d.display())).unwrap()));
    compare_writes(&mut p, &mut l, "file:");
    let [a, b] = dirs.each_ref().map(|d| wal_files(d));
    let bytes: usize = a.iter().map(|(_, f)| f.len()).sum();
    assert!(bytes > 1000, "the writes were logged: {bytes} bytes");
    assert_eq!(a, b, "the WAL files differ");
    for conn in [p, l] {
        conn.close().unwrap();
    }
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A prepared UPDATE or DELETE compiles on its first execution and reruns
/// that plan until the schema, the settings or a bound value's type
/// changes, or a value the plan holds as a constant; an INSERT keeps no
/// plan.
#[test]
fn prepared_writes_rerun_their_plan() {
    use Value::{Int, Lng, Null};
    let mut conn = Connection::new();
    for sql in WRITE_SCHEMA {
        conn.execute(sql).unwrap();
    }
    conn.prepare("up", "UPDATE g SET v = ? WHERE x = ? AND y = ?")
        .unwrap();
    conn.prepare("del", "DELETE FROM t WHERE k = ?").unwrap();
    conn.prepare("ins", "INSERT INTO t (k) VALUES (?)").unwrap();
    conn.prepare("shift", "UPDATE h SET v = h[x+?] WHERE x < ?")
        .unwrap();
    fn hits(conn: &mut Connection, name: &str, values: &[Value]) -> usize {
        conn.execute_prepared(name, values).unwrap();
        conn.last_exec().exec.plan_cache_hits
    }
    let c = &mut conn;
    assert_eq!(hits(c, "up", &[Int(1), Int(0), Int(0)]), 0, "first run");
    assert_eq!(hits(c, "up", &[Int(2), Int(1), Int(1)]), 1);
    assert_eq!(hits(c, "del", &[Int(100)]), 0, "first run");
    assert_eq!(hits(c, "del", &[Int(1)]), 1);
    assert_eq!(hits(c, "ins", &[Int(9)]), 0, "INSERT");
    assert_eq!(hits(c, "ins", &[Int(9)]), 0, "INSERT");
    assert_eq!(
        hits(c, "up", &[Lng(3), Int(1), Int(1)]),
        1,
        "INT-range BIGINT"
    );
    assert_eq!(hits(c, "up", &[Int(4), Lng(1 << 40), Int(2)]), 0, "BIGINT");
    assert_eq!(hits(c, "up", &[Int(4), Lng(1 << 41), Int(2)]), 1);
    assert_eq!(hits(c, "up", &[Null, Int(1), Int(2)]), 0, "NULL value");
    assert_eq!(hits(c, "up", &[Null, Int(2), Int(2)]), 1);
    assert_eq!(
        hits(c, "up", &[Int(5), Int(2), Int(2)]),
        0,
        "INT value again"
    );
    assert_eq!(hits(c, "shift", &[Int(1), Int(3)]), 0, "first run");
    assert_eq!(hits(c, "shift", &[Int(1), Int(3)]), 1);
    assert_eq!(hits(c, "shift", &[Int(2), Int(3)]), 0, "cell offset");
    assert_eq!(hits(c, "shift", &[Int(2), Int(3)]), 1);
    assert_eq!(hits(c, "shift", &[Int(2), Int(2)]), 0, "folded values");

    c.execute("CREATE TABLE unrelated (a INT)").unwrap();
    assert_eq!(hits(c, "up", &[Int(6), Int(2), Int(2)]), 0, "DDL");
    assert_eq!(hits(c, "up", &[Int(7), Int(2), Int(2)]), 1);
    assert_eq!(hits(c, "del", &[Int(2)]), 0, "DDL");
    c.set_session_config(SessionConfig::with_opt_level(0));
    assert_eq!(hits(c, "up", &[Int(8), Int(2), Int(2)]), 0, "config");
    assert_eq!(hits(c, "up", &[Int(9), Int(2), Int(2)]), 1);
    let v = conn.query("SELECT v FROM g WHERE x = 2 AND y = 2").unwrap();
    assert_eq!(v.get(0, 0), Int(9));
}

/// A prepared SELECT's slice bound takes its bound value, and the plan
/// holding that value reruns only for it.
#[test]
fn prepared_select_slices_take_their_bound_values() {
    let mut conn = Connection::new();
    for sql in WRITE_SCHEMA {
        conn.execute(sql).unwrap();
    }
    conn.prepare("slab", "SELECT v FROM h[?:4]").unwrap();
    for (lo, hit) in [(1, 0), (1, 1), (2, 0)] {
        let rows = conn.execute_prepared("slab", &[Value::Int(lo)]).unwrap();
        let rows = rows.rows().unwrap();
        assert_eq!(rows.row_count(), 4 - lo as usize, "h[{lo}:4]");
        assert_eq!(conn.last_exec().exec.plan_cache_hits, hit, "h[{lo}:4]");
    }
}
