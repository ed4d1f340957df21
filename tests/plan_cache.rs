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

use sciql_repro::parser::{parse_statement, Expr, Literal, Stmt};
use sciql_repro::sciql::{Connection, ResultSet, SessionConfig, SharedEngine};

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
    let (lifted, literals) = sel.lift_literals().expect("no placeholders");
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
    Stmt::Select(lifted)
        .map_params(&mut |p| Some(Expr::Literal(changed[p.slot].clone())))
        .to_string()
}

/// A result as it travels (header plus 3-row pages), or the error text.
fn outcome(result: sciql_repro::sciql::Result<ResultSet>) -> Result<Vec<u8>, String> {
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
