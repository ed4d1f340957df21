//! Session-level unit tests of the `sciql` engine crate.

use crate::{Connection, QueryResult};
use gdk::Value;
use sciql_catalog::DimSpec;

#[test]
fn query_result_unwrappers() {
    let mut c = Connection::new();
    c.execute("CREATE TABLE t (a INT)").unwrap();
    let r = c.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(matches!(r, QueryResult::Affected(1)));
    assert!(c.execute("SELECT a FROM t").unwrap().affected().is_err());
    assert!(c
        .execute("INSERT INTO t VALUES (2)")
        .unwrap()
        .rows()
        .is_err());
}

#[test]
fn execute_script_runs_in_order() {
    let mut c = Connection::new();
    let results = c
        .execute_script(
            "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); \
             SELECT COUNT(*) FROM t;",
        )
        .unwrap();
    assert_eq!(results.len(), 3);
    let rs = results.into_iter().nth(2).unwrap().rows().unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Lng(2));
    // A script that fails midway reports the error.
    assert!(c.execute_script("SELECT 1; SELECT nope FROM t;").is_err());
}

#[test]
fn bulk_load_validation() {
    let mut c = Connection::new();
    let dims = [("x", DimSpec::new(0, 1, 2).unwrap())];
    // Wrong length rejected.
    let bad = gdk::Bat::from_ints(vec![1, 2, 3]);
    assert!(c.bulk_load_array("a", &dims, vec![("v", bad)]).is_err());
    let good = gdk::Bat::from_ints(vec![7, 8]);
    c.bulk_load_array("a", &dims, vec![("v", good)]).unwrap();
    assert_eq!(
        c.query("SELECT v FROM a WHERE x = 1")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(8)
    );
    // Name collisions rejected.
    let again = gdk::Bat::from_ints(vec![0, 0]);
    assert!(c.bulk_load_array("a", &dims, vec![("v", again)]).is_err());
}

#[test]
fn catalog_view_reflects_ddl() {
    let mut c = Connection::new();
    assert!(c.catalog().is_empty());
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:2], v INT DEFAULT 0)")
        .unwrap();
    c.execute("CREATE TABLE t (a INT)").unwrap();
    assert_eq!(c.catalog().len(), 2);
    assert!(c.catalog().get_array("m").is_ok());
    assert!(c.catalog().get_table("t").is_ok());
    c.execute("DROP ARRAY m").unwrap();
    assert_eq!(c.catalog().len(), 1);
}

#[test]
fn update_with_shift_expression() {
    // UPDATE may read neighbouring cells through relative references
    // (all reads see the pre-update state).
    let mut c = Connection::new();
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:5], v INT DEFAULT 0)")
        .unwrap();
    c.execute("UPDATE m SET v = x * 10").unwrap();
    c.execute("UPDATE m SET v = m[x+1] WHERE x < 4").unwrap();
    let rs = c.query("SELECT v FROM m ORDER BY x").unwrap();
    let vals: Vec<Option<i64>> = rs.rows().map(|r| r[0].as_i64()).collect();
    assert_eq!(
        vals,
        vec![Some(10), Some(20), Some(30), Some(40), Some(40)],
        "each updated cell received its OLD right neighbour"
    );
}

#[test]
fn multi_set_update_sees_old_values() {
    // UPDATE t SET a = b, b = a must swap, not chain.
    let mut c = Connection::new();
    c.execute_script("CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 2);")
        .unwrap();
    c.execute("UPDATE t SET a = b, b = a").unwrap();
    let rs = c.query("SELECT a, b FROM t").unwrap();
    assert_eq!(rs.row(0), vec![Value::Int(2), Value::Int(1)]);
}

#[test]
fn last_exec_stats_populated() {
    let mut c = Connection::new();
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:8], v INT DEFAULT 1)")
        .unwrap();
    c.query("SELECT SUM(v) FROM m WHERE x > 2").unwrap();
    let stats = c.last_exec();
    assert!(stats.exec.instructions > 0);
    assert!(stats.instrs_after_opt <= stats.instrs_before_opt);
}

#[test]
fn explain_rejects_non_select() {
    let c = Connection::new();
    assert!(c.explain("CREATE TABLE t (a INT)").is_err());
}

#[test]
fn array_view_of_select_with_expression_dims() {
    let mut c = Connection::new();
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:3], v INT DEFAULT 5)")
        .unwrap();
    // Shifted dimension expression: view origin follows the data.
    let view = c.query_array("SELECT [x + 10], v FROM m").unwrap();
    assert_eq!(view.origins, vec![10]);
    assert_eq!(view.sizes, vec![3]);
    assert_eq!(view.at(&[11]), Some(&Value::Int(5)));
}

#[test]
fn drop_and_recreate_same_name() {
    let mut c = Connection::new();
    c.execute("CREATE TABLE t (a INT)").unwrap();
    c.execute("INSERT INTO t VALUES (1)").unwrap();
    c.execute("DROP TABLE t").unwrap();
    c.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    let rs = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(
        rs.scalar().unwrap(),
        Value::Lng(0),
        "fresh storage after recreate"
    );
}

#[test]
fn affected_counts_are_meaningful() {
    let mut c = Connection::new();
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:10], v INT DEFAULT 0)")
        .unwrap();
    assert_eq!(
        c.execute("UPDATE m SET v = 1 WHERE x < 4")
            .unwrap()
            .affected()
            .unwrap(),
        4
    );
    assert_eq!(
        c.execute("DELETE FROM m WHERE v = 1")
            .unwrap()
            .affected()
            .unwrap(),
        4
    );
    assert_eq!(
        c.execute("INSERT INTO m VALUES (5, 9)")
            .unwrap()
            .affected()
            .unwrap(),
        1
    );
}

#[test]
fn parallel_session_matches_serial_and_reports_threads() {
    use crate::SessionConfig;
    // Force the parallel driver on by dropping the threshold to 1.
    let par_cfg = SessionConfig {
        threads: 4,
        parallel_threshold: 1,
        ..SessionConfig::default()
    };
    let sql_fill = "UPDATE matrix SET v = CASE WHEN x > y THEN x + y \
                    WHEN x < y THEN x - y ELSE 0 END";
    let queries = [
        "SELECT COUNT(v) FROM matrix WHERE v > 2",
        "SELECT x, SUM(v) FROM matrix GROUP BY x",
        "SELECT MIN(v), MAX(v) FROM matrix",
        "SELECT v + 1 FROM matrix WHERE x >= 3",
    ];
    let mut serial = Connection::with_config(SessionConfig::serial());
    let mut par = Connection::with_config(par_cfg);
    for c in [&mut serial, &mut par] {
        c.execute(
            "CREATE ARRAY matrix (x INT DIMENSION[0:1:32], \
             y INT DIMENSION[0:1:32], v INT DEFAULT 0)",
        )
        .unwrap();
        c.execute(sql_fill).unwrap();
    }
    let mut saw_parallel_instr = false;
    for q in queries {
        let a = serial.query(q).unwrap();
        let b = par.query(q).unwrap();
        let rows_a: Vec<_> = a.rows().collect();
        let rows_b: Vec<_> = b.rows().collect();
        assert_eq!(rows_a, rows_b, "parallel result differs for {q:?}");

        let stats = &par.last_exec().exec;
        assert_eq!(
            stats.per_instr_threads.len(),
            stats.instructions,
            "every instruction records its thread count"
        );
        if stats.par_instructions > 0 {
            saw_parallel_instr = true;
            assert!(stats.max_threads > 1);
            assert!(stats
                .per_instr_threads
                .iter()
                .any(|(_, threads)| *threads > 1));
        }
        // Serial session must never fan out.
        let serial_stats = &serial.last_exec().exec;
        assert_eq!(serial_stats.par_instructions, 0);
        assert_eq!(serial_stats.max_threads.max(1), 1);
    }
    assert!(
        saw_parallel_instr,
        "at least one query must dispatch through the parallel driver"
    );
}

#[test]
fn session_config_roundtrip() {
    use crate::SessionConfig;
    let mut c = Connection::new();
    c.set_session_config(SessionConfig {
        threads: 3,
        parallel_threshold: 123,
        ..SessionConfig::default()
    });
    assert_eq!(c.session_config().threads, 3);
    assert_eq!(c.session_config().parallel_threshold, 123);
    // threads are clamped to at least 1
    c.set_session_config(SessionConfig {
        threads: 0,
        parallel_threshold: 1,
        ..SessionConfig::default()
    });
    assert_eq!(c.session_config().threads, 1);
}

#[test]
fn set_codegen_preserves_parallel_settings() {
    use crate::SessionConfig;
    use sciql_algebra::CodegenOptions;
    let mut c = Connection::with_config(SessionConfig::serial());
    c.set_codegen(CodegenOptions {
        candidate_pushdown: false,
        ..CodegenOptions::default()
    });
    assert_eq!(
        c.session_config(),
        SessionConfig::serial(),
        "ablation switches must not silently re-enable parallelism"
    );
}

// ---------------------------------------------------------------------------
// Persistence (the sciql-store vault).
// ---------------------------------------------------------------------------

fn vault_dir(name: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sciql-core-vault-{}-{}-{name}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn open_checkpoint_reopen_roundtrip() {
    let dir = vault_dir("roundtrip");
    {
        let mut c = Connection::open(&dir).unwrap();
        assert!(c.is_persistent());
        c.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)",
        )
        .unwrap();
        c.execute("CREATE TABLE t (a INT, s TEXT)").unwrap();
        c.execute("INSERT INTO t VALUES (1, 'one'), (2, NULL)")
            .unwrap();
        c.execute("UPDATE m SET v = x + y WHERE x > y").unwrap();
        c.checkpoint().unwrap();
        // Post-checkpoint mutations live only in the WAL.
        c.execute("INSERT INTO m VALUES (0, 3, 99)").unwrap();
        c.execute("DELETE FROM t WHERE a = 1").unwrap();
    } // dropped without a second checkpoint — recovery must replay the WAL
    let mut c = Connection::open(&dir).unwrap();
    let rs = c.query("SELECT v FROM m WHERE x = 0 AND y = 3").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Int(99));
    let rs = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Lng(1));
    let rs = c.query("SELECT s FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Null);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dirty_tracking_limits_checkpoint_rewrites() {
    let dir = vault_dir("dirty");
    let mut c = Connection::open(&dir).unwrap();
    c.execute(
        "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], \
         v INT DEFAULT 0, w DOUBLE DEFAULT 0.0)",
    )
    .unwrap();
    // Only the two attributes are stored: the dimensions are generated.
    assert_eq!(c.array_store("m").unwrap().dirty_columns(), 2);
    c.checkpoint().unwrap();
    assert_eq!(c.array_store("m").unwrap().dirty_columns(), 0);
    // Updating one attribute dirties only that column.
    c.execute("UPDATE m SET v = 7 WHERE x = y").unwrap();
    let s = c.array_store("m").unwrap();
    assert_eq!(s.dirty_columns(), 1);
    assert!(s.dirty_attrs[0].any_dirty() && !s.dirty_attrs[1].any_dirty());
    c.checkpoint().unwrap();
    assert_eq!(c.array_store("m").unwrap().dirty_columns(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_requires_persistence() {
    let mut c = Connection::new();
    assert!(!c.is_persistent());
    assert!(c.vault_stats().is_none());
    assert!(c.checkpoint().is_err());
}

#[test]
fn drop_and_alter_survive_reopen() {
    let dir = vault_dir("ddl");
    {
        let mut c = Connection::open(&dir).unwrap();
        c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 1)")
            .unwrap();
        c.execute("CREATE TABLE gone (a INT)").unwrap();
        c.checkpoint().unwrap();
        c.execute("DROP TABLE gone").unwrap();
        c.execute("ALTER ARRAY m ALTER DIMENSION x SET RANGE [-1:1:5]")
            .unwrap();
    }
    let mut c = Connection::open(&dir).unwrap();
    assert!(c.query("SELECT a FROM gone").is_err());
    let rs = c.query("SELECT COUNT(*) FROM m").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Lng(6));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vault_stats_track_generations_and_wal() {
    let dir = vault_dir("stats");
    let mut c = Connection::open(&dir).unwrap();
    let s0 = c.vault_stats().unwrap();
    assert_eq!((s0.generation, s0.wal_records), (0, 0));
    c.execute("CREATE TABLE t (a INT)").unwrap();
    c.execute("INSERT INTO t VALUES (1)").unwrap();
    c.query("SELECT a FROM t").unwrap(); // SELECTs are not logged
    let s1 = c.vault_stats().unwrap();
    assert_eq!(s1.wal_records, 2);
    c.checkpoint().unwrap();
    let s2 = c.vault_stats().unwrap();
    assert_eq!((s2.generation, s2.wal_records), (1, 0));
    assert_eq!(s2.columns, 1);
    assert!(s2.tile_files >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failing_values_row_applies_nothing() {
    let dir = vault_dir("values");
    {
        let mut c = Connection::open(&dir).unwrap();
        c.execute("CREATE TABLE t (a INT, s TEXT)").unwrap();
        c.execute("INSERT INTO t VALUES (7, 'kept')").unwrap();
        let gen_before = c.vault_stats().unwrap().generation;
        let records = c.vault_stats().unwrap().wal_records;
        // Every row is converted before the one append: a row that does
        // not fit fails the statement and appends nothing.
        let e = c
            .execute("INSERT INTO t VALUES (1, 'ok'), ('bad', 2)")
            .unwrap_err();
        assert_eq!(e.to_string(), "value bad does not fit column \"a\" (int)");
        assert_eq!(c.table_store("t").unwrap().row_count(), 1);
        let s = c.vault_stats().unwrap();
        assert_eq!((s.generation, s.wal_records), (gen_before, records));
    }
    // Recovery sees the unchanged table.
    let mut c = Connection::open(&dir).unwrap();
    let rs = c.query("SELECT a, s FROM t").unwrap();
    assert_eq!(rs.row_count(), 1);
    assert_eq!(rs.bats[0].get(0), Value::Int(7));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_cell_statements_leave_the_array_untouched() {
    let dir = vault_dir("atomic");
    {
        let mut c = Connection::open(&dir).unwrap();
        c.execute_script(
            "CREATE ARRAY a (x INT DIMENSION[0:1:3], y INT DIMENSION[0:1:2], v INT DEFAULT 0); \
             UPDATE a SET v = x * 10 + y;",
        )
        .unwrap();
        let cells = |c: &Connection| c.array_store("a").unwrap().attrs[0].to_values();
        let before = cells(&c);
        let gen_before = c.vault_stats().unwrap().generation;
        // Rows x = 0, 1 shift onto the grid; row x = 2 falls off it.
        let e = c
            .execute("INSERT INTO a SELECT [x+1], [y], v FROM a")
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "cell [3, 0] is outside the dimension ranges of \"a\""
        );
        assert_eq!(cells(&c), before, "nothing of the failed INSERT applied");
        // An in-place rewrite (row i is cell i) converts before it writes.
        let e = c
            .execute(
                "INSERT INTO a SELECT [x], [y], \
                 CASE WHEN x = 2 AND y = 1 THEN 3000000000 ELSE v + 1 END FROM a",
            )
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "kernel error: type mismatch: cannot store 3000000000 into int BAT"
        );
        assert_eq!(cells(&c), before, "nothing of the failed rewrite applied");
        // Only the last cell overflows the int attribute.
        let e = c
            .execute("UPDATE a SET v = CASE WHEN x = 2 AND y = 1 THEN 3000000000 ELSE v + 1 END")
            .unwrap_err();
        assert_eq!(
            e.to_string(),
            "kernel error: type mismatch: cannot store 3000000000 into int BAT"
        );
        assert_eq!(cells(&c), before, "nothing of the failed UPDATE applied");
        // Nothing applied, so nothing needed a re-sync checkpoint.
        assert_eq!(c.vault_stats().unwrap().generation, gen_before);
    }
    let c = Connection::open(&dir).unwrap();
    assert_eq!(
        c.array_store("a").unwrap().attrs[0].to_values(),
        [0, 1, 10, 11, 20, 21].map(Value::Int)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn nil_default_attributes_keep_their_declared_type() {
    let mut c = Connection::new();
    c.execute("CREATE ARRAY a (x INT DIMENSION[0:1:2], d DOUBLE, s STRING)")
        .unwrap();
    c.execute("UPDATE a SET d = 1.5, s = 'abc' WHERE x = 1")
        .unwrap();
    let rs = c.query("SELECT d, s FROM a").unwrap();
    assert_eq!(rs.row(0), vec![Value::Null, Value::Null]);
    assert_eq!(rs.row(1), vec![Value::Dbl(1.5), Value::Str("abc".into())]);
}

// ---------------------------------------------------------------------
// prepared statements with bound parameters (the driver's engine path)
// ---------------------------------------------------------------------

fn fig1_connection() -> Connection {
    let mut c = Connection::new();
    c.execute_script(
        "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0); \
         UPDATE m SET v = x + y;",
    )
    .unwrap();
    c
}

#[test]
fn prepared_select_binds_positional_params() {
    let mut c = fig1_connection();
    let n = c
        .prepare("q", "SELECT COUNT(*) FROM m WHERE v < ?")
        .unwrap();
    assert_eq!(n, 1);
    let count = |c: &mut Connection, v: i64| {
        c.execute_prepared("q", &[Value::Lng(v)])
            .unwrap()
            .rows()
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap()
    };
    // v = x + y over a 4x4 grid; v < 1 ⇒ only (0,0).
    assert_eq!(count(&mut c, 1), 1);
    assert_eq!(count(&mut c, 100), 16);
    // The result matches the unprepared equivalent with the value inlined.
    let direct = c
        .query("SELECT COUNT(*) FROM m WHERE v < 3")
        .unwrap()
        .scalar()
        .unwrap()
        .as_i64()
        .unwrap();
    assert_eq!(count(&mut c, 3), direct);
}

#[test]
fn prepared_select_reuses_cached_plan() {
    let mut c = fig1_connection();
    c.prepare("q", "SELECT SUM(v) FROM m WHERE x > :lo")
        .unwrap();
    c.execute_prepared("q", &[Value::Int(0)]).unwrap();
    assert_eq!(
        c.last_exec().exec.plan_cache_hits,
        0,
        "first execution compiles"
    );
    c.execute_prepared("q", &[Value::Int(1)]).unwrap();
    assert_eq!(
        c.last_exec().exec.plan_cache_hits,
        1,
        "re-execution skips parse/bind/optimise"
    );
    // A schema change invalidates the cache…
    c.execute("CREATE TABLE unrelated (a INT)").unwrap();
    c.execute_prepared("q", &[Value::Int(2)]).unwrap();
    assert_eq!(c.last_exec().exec.plan_cache_hits, 0, "catalog changed");
    // …and the next execution hits again.
    c.execute_prepared("q", &[Value::Int(3)]).unwrap();
    assert_eq!(c.last_exec().exec.plan_cache_hits, 1);
}

#[test]
fn adhoc_plan_cache_keeps_the_most_recently_run_plans() {
    use crate::exec::PLAN_CACHE_CAPACITY;
    let mut c = fig1_connection();
    let hit = |c: &mut Connection, i: usize| {
        // A projection literal stays in the key: one plan per `i`.
        c.query(&format!("SELECT v + {i} FROM m WHERE x > 1"))
            .unwrap();
        c.last_exec().exec.plan_cache_hits == 1
    };
    for i in 0..PLAN_CACHE_CAPACITY {
        assert!(!hit(&mut c, i));
    }
    assert!(hit(&mut c, 0), "nothing evicted while the cache fits");
    assert!(!hit(&mut c, PLAN_CACHE_CAPACITY));
    assert!(hit(&mut c, 0), "the plan run last is kept");
    assert!(!hit(&mut c, 1), "the plan run longest ago went");
}

#[test]
fn prepared_select_cache_invalidated_by_reconfig() {
    let mut c = fig1_connection();
    c.prepare("q", "SELECT SUM(v) FROM m WHERE x > ?").unwrap();
    c.execute_prepared("q", &[Value::Int(0)]).unwrap();
    c.execute_prepared("q", &[Value::Int(0)]).unwrap();
    assert_eq!(c.last_exec().exec.plan_cache_hits, 1);
    c.set_session_config(crate::SessionConfig::with_opt_level(0));
    c.execute_prepared("q", &[Value::Int(0)]).unwrap();
    assert_eq!(
        c.last_exec().exec.plan_cache_hits,
        0,
        "opt level change recompiles"
    );
}

#[test]
fn prepared_results_identical_to_inlined_constants() {
    // The parameterised plan and the constant plan must produce
    // byte-identical result pages (the driver's acceptance criterion).
    let mut c = fig1_connection();
    c.prepare("p", "SELECT [x], [y], v FROM m WHERE v >= :t AND x < 3")
        .unwrap();
    for t in [0i64, 2, 5] {
        let bound = c
            .execute_prepared("p", &[Value::Lng(t)])
            .unwrap()
            .rows()
            .unwrap();
        let inlined = c
            .query(&format!(
                "SELECT [x], [y], v FROM m WHERE v >= {t} AND x < 3"
            ))
            .unwrap();
        assert_eq!(bound.encode_header(), inlined.encode_header(), "t={t}");
        assert_eq!(
            bound.encode_pages(7),
            inlined.encode_pages(7),
            "t={t}: pages must be byte-identical"
        );
    }
}

#[test]
fn prepared_dml_binds_values_and_wal_logs_them() {
    let dir = std::env::temp_dir().join(format!("sciql-prep-dml-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut c = Connection::open(&dir).unwrap();
        c.execute("CREATE TABLE t (a INT, s VARCHAR)").unwrap();
        c.prepare("ins", "INSERT INTO t VALUES (?, ?)").unwrap();
        for (a, s) in [(1, "one"), (2, "it's")] {
            let r = c
                .execute_prepared("ins", &[Value::Int(a), Value::Str(s.into())])
                .unwrap();
            assert!(matches!(r, QueryResult::Affected(1)));
        }
        c.prepare("del", "DELETE FROM t WHERE a = :k").unwrap();
        c.execute_prepared("del", &[Value::Int(1)]).unwrap();
    }
    // Crash-free reopen replays the WAL: each record holds the values
    // the bound statement stored.
    let mut c = Connection::open(&dir).unwrap();
    let rs = c.query("SELECT a, s FROM t").unwrap();
    assert_eq!(rs.row_count(), 1);
    assert_eq!(rs.get(0, 0), Value::Int(2));
    assert_eq!(rs.get(0, 1), Value::Str("it's".into()));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prepared_param_errors_are_clear() {
    let mut c = fig1_connection();
    c.prepare("q", "SELECT v FROM m WHERE v = ? AND x = ?")
        .unwrap();
    // Unbound parameter.
    let err = c.execute_prepared("q", &[Value::Int(1)]).unwrap_err();
    assert_eq!(err.code(), crate::ErrorCode::Param, "{err}");
    // Unknown statement name.
    let err = c.execute_prepared("nope", &[]).unwrap_err();
    assert_eq!(err.code(), crate::ErrorCode::Statement, "{err}");
    // Uncastable value for a typed slot.
    let err = c
        .execute_prepared("q", &[Value::Str("x".into()), Value::Int(0)])
        .unwrap_err();
    assert_eq!(err.code(), crate::ErrorCode::Param, "{err}");
    // Deallocate works and is idempotent.
    assert!(c.deallocate("q"));
    assert!(!c.deallocate("q"));
}

#[test]
fn non_finite_params_survive_recovery_bit_for_bit() {
    // ±inf have no SQL literal form, but the WAL logs the values a
    // statement stored, so a prepared write of one replays bit for bit.
    // NaN is the dbl nil: it reads back exactly as on a memory connection.
    let writes = |c: &mut Connection| {
        c.execute_script(
            "CREATE TABLE q (k INT, d DOUBLE); \
             CREATE ARRAY g (x INT DIMENSION[0:1:4], v DOUBLE DEFAULT 1.5);",
        )
        .unwrap();
        c.prepare("ins", "INSERT INTO q VALUES (?, ?)").unwrap();
        c.prepare("upd", "UPDATE g SET v = ? WHERE x = ?").unwrap();
        c.prepare("flip", "UPDATE q SET d = ? WHERE k = ?").unwrap();
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for (k, d) in [(0, inf), (1, -inf), (2, nan), (3, 2.5)] {
            c.execute_prepared("ins", &[Value::Int(k), Value::Dbl(d)])
                .unwrap();
            c.execute_prepared("upd", &[Value::Dbl(d), Value::Int(k)])
                .unwrap();
        }
        c.execute_prepared("flip", &[Value::Dbl(-inf), Value::Int(3)])
            .unwrap();
    };
    let bits = |c: &Connection| -> Vec<u64> {
        let d = &c.table_store("q").unwrap().cols[1];
        let v = &c.array_store("g").unwrap().attrs[0];
        let cells = d.as_dbls().unwrap().iter().chain(v.as_dbls().unwrap());
        cells.map(|f| f.to_bits()).collect()
    };
    let mut mem = Connection::new();
    writes(&mut mem);
    let want = bits(&mem);
    let inf = f64::INFINITY.to_bits();
    let neg = f64::NEG_INFINITY.to_bits();
    assert_eq!(want[..2], [inf, neg]);
    assert_eq!(want[3], neg);
    assert_eq!(want[4..6], [inf, neg]);
    let dir = vault_dir("nonfinite");
    {
        let mut c = Connection::open(&dir).unwrap();
        writes(&mut c);
        assert_eq!(bits(&c), want);
    } // crash: no checkpoint, so reopening replays the WAL
    let c = Connection::open(&dir).unwrap();
    assert_eq!(bits(&c), want, "recovered cells differ from the memory run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_point_read_on_dimensions_selects_serially() {
    use crate::SessionConfig;
    let mut c = Connection::with_config(SessionConfig {
        threads: 8,
        ..SessionConfig::default()
    });
    c.execute(
        "CREATE ARRAY a (x INT DIMENSION[0:1:256], y INT DIMENSION[0:1:256], v INT DEFAULT 0)",
    )
    .unwrap();
    c.execute("UPDATE a SET v = x * 1000 + y").unwrap();
    let rs = c
        .query("EXPLAIN ANALYZE SELECT v FROM a WHERE x = 3 AND y = 4")
        .unwrap();
    let lines: Vec<String> = rs.rows().map(|r| r[0].to_string()).collect();
    let selects: Vec<&String> = (lines.iter())
        .filter(|l| l.contains("] algebra.") && l.contains("select"))
        .collect();
    assert_eq!(selects.len(), 2, "{lines:#?}");
    for l in selects {
        assert!(
            l.contains(" threads=1"),
            "a dimension select fanned out: {l}"
        );
    }
    let v = c.query("SELECT v FROM a WHERE x = 3 AND y = 4").unwrap();
    assert_eq!(v.scalar().unwrap(), Value::Int(3004));
}

#[test]
fn cell_statements_fail_only_on_rows_they_select() {
    let mut c = Connection::new();
    c.execute_script(
        "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (3), (5); \
         CREATE ARRAY g (x INT DIMENSION[0:1:4], v INT DEFAULT 0);",
    )
    .unwrap();
    // `a * 1000000000` overflows INT on a = 3 and a = 5, which the WHERE
    // excludes.
    assert_eq!(
        c.execute("UPDATE t SET a = a * 1000000000 WHERE a = 1")
            .unwrap()
            .affected()
            .unwrap(),
        1
    );
    let a = c.query("SELECT a FROM t").unwrap();
    assert_eq!(a.bats[0].to_values(), [1000000000, 3, 5].map(Value::Int));
    assert_eq!(
        c.execute("UPDATE g SET v = 2147483647 + x WHERE x = 0")
            .unwrap()
            .affected()
            .unwrap(),
        1
    );
    assert_eq!(
        c.array_store("g").unwrap().attrs[0].to_values(),
        [2147483647, 0, 0, 0].map(Value::Int)
    );
    // A selected row that overflows still fails the statement.
    assert!(c
        .execute("UPDATE g SET v = 2147483647 + x WHERE x = 1")
        .is_err());
    assert!(c
        .execute("UPDATE t SET a = a * 1000000000 WHERE a > 1")
        .is_err());
    // A NULL predicate selects nothing, in DML as in a SELECT.
    let none = c
        .execute("UPDATE t SET a = a * 1000000000 WHERE NULL")
        .unwrap();
    assert_eq!(none.affected().unwrap(), 0);
    assert_eq!(
        c.query("SELECT a FROM t WHERE NULL").unwrap().row_count(),
        0
    );
}

#[test]
fn fractional_bounds_on_integer_columns_compare_exactly() {
    let mut c = Connection::new();
    c.execute_script(
        "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3), (4), (NULL); \
         CREATE ARRAY g (x INT DIMENSION[4:-1:0], v INT DEFAULT 0);",
    )
    .unwrap();
    let col = |c: &mut Connection, sql: &str| c.query(sql).unwrap().bats[0].to_values();
    assert_eq!(
        col(&mut c, "SELECT a FROM t WHERE a > 2.5"),
        [3, 4].map(Value::Int)
    );
    assert_eq!(
        col(&mut c, "SELECT a FROM t WHERE a <= 2.5"),
        [1, 2].map(Value::Int)
    );
    assert!(col(&mut c, "SELECT a FROM t WHERE a = 2.5").is_empty());
    assert_eq!(col(&mut c, "SELECT a FROM t WHERE a <> 2.5").len(), 4);
    // The same bound on a dimension, read and written: x runs 4, 3, 2, 1.
    assert_eq!(
        col(&mut c, "SELECT x FROM g WHERE x > 2.5"),
        [4, 3].map(Value::Int)
    );
    let n = c.execute("UPDATE g SET v = 1 WHERE x > 2.5").unwrap();
    assert_eq!(n.affected().unwrap(), 2);
    assert_eq!(
        c.execute("DELETE FROM t WHERE a = 2.5")
            .unwrap()
            .affected()
            .unwrap(),
        0
    );
    assert_eq!(
        c.array_store("g").unwrap().attrs[0].to_values(),
        [1, 1, 0, 0].map(Value::Int)
    );
}
