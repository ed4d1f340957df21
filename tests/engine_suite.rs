//! Broad engine coverage: the SQL substrate (tables, joins, sorting,
//! grouping, NULLs, strings), array shapes beyond 2-D, unbounded arrays,
//! and error paths.

use gdk::Value;
use sciql::{Connection, SessionConfig};

fn conn() -> Connection {
    Connection::new()
}

// ----------------------------------------------------------------------
// plain SQL over tables
// ----------------------------------------------------------------------

#[test]
fn table_crud_lifecycle() {
    let mut c = conn();
    c.execute("CREATE TABLE t (a INT, b VARCHAR, d DOUBLE DEFAULT 1.5)")
        .unwrap();
    c.execute("INSERT INTO t VALUES (1, 'one', 0.1), (2, 'two', 0.2)")
        .unwrap();
    c.execute("INSERT INTO t (a) VALUES (3)").unwrap();
    let rs = c.query("SELECT a, b, d FROM t ORDER BY a").unwrap();
    assert_eq!(rs.row_count(), 3);
    assert_eq!(rs.get(2, 1), Value::Null, "missing column is NULL");
    assert_eq!(rs.get(2, 2), Value::Dbl(1.5), "DEFAULT applies");

    let n = c.execute("UPDATE t SET d = d * 10 WHERE a < 3").unwrap();
    assert_eq!(n.affected().unwrap(), 2);
    let rs = c.query("SELECT d FROM t WHERE a = 2").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Dbl(2.0));

    let n = c.execute("DELETE FROM t WHERE a = 1").unwrap();
    assert_eq!(n.affected().unwrap(), 1);
    let rs = c.query("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Lng(2));

    c.execute("DROP TABLE t").unwrap();
    assert!(c.query("SELECT a FROM t").is_err());
}

#[test]
fn joins_between_tables() {
    let mut c = conn();
    c.execute_script(
        "CREATE TABLE emp (id INT, dept INT, name VARCHAR); \
         CREATE TABLE dept (id INT, dname VARCHAR); \
         INSERT INTO emp VALUES (1, 10, 'ada'), (2, 20, 'bob'), (3, 10, 'eve'); \
         INSERT INTO dept VALUES (10, 'science'), (20, 'art');",
    )
    .unwrap();
    // Comma join + WHERE.
    let rs = c
        .query(
            "SELECT name, dname FROM emp, dept WHERE emp.dept = dept.id \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.row_count(), 3);
    assert_eq!(rs.get(0, 0), Value::Str("ada".into()));
    assert_eq!(rs.get(0, 1), Value::Str("science".into()));
    // Explicit JOIN … ON desugars to the same thing.
    let rs2 = c
        .query(
            "SELECT name, dname FROM emp JOIN dept ON emp.dept = dept.id \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(rs.row_count(), rs2.row_count());
    for r in 0..rs.row_count() {
        assert_eq!(rs.row(r), rs2.row(r));
    }
    // Grouped join.
    let rs = c
        .query(
            "SELECT dname, COUNT(*) FROM emp, dept WHERE emp.dept = dept.id \
             GROUP BY dname ORDER BY dname",
        )
        .unwrap();
    assert_eq!(rs.row(0), vec![Value::Str("art".into()), Value::Lng(1)]);
    assert_eq!(rs.row(1), vec![Value::Str("science".into()), Value::Lng(2)]);
}

#[test]
fn sorting_distinct_limits() {
    let mut c = conn();
    c.execute_script(
        "CREATE TABLE t (a INT, b INT); \
         INSERT INTO t VALUES (3, 1), (1, 2), (3, 0), (2, 5), (1, 1);",
    )
    .unwrap();
    let rs = c.query("SELECT a, b FROM t ORDER BY a, b DESC").unwrap();
    let rows: Vec<Vec<Value>> = rs.rows().collect();
    assert_eq!(rows[0], vec![Value::Int(1), Value::Int(2)]);
    assert_eq!(rows[1], vec![Value::Int(1), Value::Int(1)]);
    assert_eq!(rows[4], vec![Value::Int(3), Value::Int(0)]);

    let rs = c.query("SELECT DISTINCT a FROM t ORDER BY a").unwrap();
    assert_eq!(rs.row_count(), 3);

    let rs = c
        .query("SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1")
        .unwrap();
    assert_eq!(rs.row_count(), 2);
    assert_eq!(rs.get(0, 0), Value::Int(1));
    assert_eq!(rs.get(1, 0), Value::Int(2));
}

#[test]
fn three_valued_logic_in_where() {
    let mut c = conn();
    c.execute_script(
        "CREATE TABLE t (a INT); \
         INSERT INTO t VALUES (1), (NULL), (3);",
    )
    .unwrap();
    // NULL comparisons never qualify.
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t WHERE a > 0")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Lng(2)
    );
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t WHERE NOT a > 0")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Lng(0)
    );
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t WHERE a IS NULL")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Lng(1)
    );
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t WHERE a IS NOT NULL")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Lng(2)
    );
    // IN and BETWEEN with NULLs.
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t WHERE a IN (1, 2)")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Lng(1)
    );
    assert_eq!(
        c.query("SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 3")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Lng(2)
    );
}

/// `BIGINT` comparisons are exact beyond `f64`'s 53-bit mantissa: two
/// values one apart near 2^53 still order correctly, column × column and
/// column × literal, serial and threaded.
#[test]
fn bigint_comparison_is_exact() {
    let threaded = SessionConfig {
        threads: 8,
        parallel_threshold: 1,
        ..SessionConfig::default()
    };
    for cfg in [SessionConfig::serial(), threaded] {
        let mut c = Connection::with_config(cfg);
        c.execute_script(
            "CREATE TABLE big (a BIGINT, b BIGINT); \
             INSERT INTO big VALUES (9007199254740993, 9007199254740992), \
                                    (9007199254740992, 9007199254740993), (5, 5);",
        )
        .unwrap();
        let mut one = |sql: &str| c.query(sql).unwrap().scalar().unwrap();
        assert_eq!(
            one("SELECT a FROM big WHERE a > b"),
            Value::Lng(9007199254740993)
        );
        assert_eq!(one("SELECT COUNT(*) FROM big WHERE a < b"), Value::Lng(1));
        assert_eq!(one("SELECT COUNT(*) FROM big WHERE a = b"), Value::Lng(1));
        assert_eq!(
            one("SELECT COUNT(*) FROM big WHERE a > 9007199254740992"),
            Value::Lng(1)
        );
    }
}

/// A `WHEN` that folds to a constant drops out of the `CASE`'s
/// evaluation, not out of its type: the arms still promote together.
#[test]
fn case_type_survives_constant_folded_arms() {
    let mut c = conn();
    c.execute_script(
        "CREATE TABLE t (i INT, d DOUBLE); INSERT INTO t VALUES (7, 2.5); \
         CREATE ARRAY g (x INT DIMENSION[0:1:2], d DOUBLE DEFAULT 0.5, v INT DEFAULT 0);",
    )
    .unwrap();
    for (sql, want) in [
        // A false arm folded away: the ELSE's int is promoted to double.
        (
            "SELECT CASE WHEN 4 = 2 THEN d ELSE 1 END FROM t",
            Value::Dbl(1.0),
        ),
        // A true arm folded in: later arms still count.
        (
            "SELECT CASE WHEN 1 = 1 THEN i ELSE d END FROM t",
            Value::Dbl(7.0),
        ),
        (
            "SELECT CASE WHEN i > 0 THEN i WHEN 2 < 1 THEN d ELSE 3 END FROM t",
            Value::Dbl(7.0),
        ),
        (
            "SELECT CASE WHEN NULL = 1 THEN d ELSE i END FROM t",
            Value::Dbl(7.0),
        ),
        // Nothing folded, nothing mixed: no cast.
        (
            "SELECT CASE WHEN 1 = 1 THEN i ELSE 2 END FROM t",
            Value::Int(7),
        ),
        (
            "SELECT CASE WHEN i > 0 THEN i ELSE 2 END FROM t",
            Value::Int(7),
        ),
        // Over array cells, too.
        (
            "SELECT CASE WHEN 4 = 2 THEN d ELSE x END FROM g WHERE x = 1",
            Value::Dbl(1.0),
        ),
    ] {
        assert_eq!(c.query(sql).unwrap().scalar().unwrap(), want, "{sql}");
    }
    // A bound parameter left over is cast as a column, not as a scalar.
    c.prepare("p", "SELECT CASE WHEN 4 = 2 THEN d ELSE ? END FROM t")
        .unwrap();
    let rs = c
        .execute_prepared("p", &[Value::Int(4)])
        .unwrap()
        .rows()
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Dbl(4.0));
    // The stored result follows the attribute's type either way.
    c.execute("UPDATE g SET v = CASE WHEN 4 = 2 THEN d ELSE x + 1 END")
        .unwrap();
    assert_eq!(
        c.query("SELECT SUM(v) FROM g").unwrap().scalar().unwrap(),
        Value::Lng(3)
    );
}

#[test]
fn expressions_and_functions() {
    let mut c = conn();
    assert_eq!(
        c.query("SELECT 1 + 2 * 3").unwrap().scalar().unwrap(),
        Value::Int(7)
    );
    assert_eq!(
        c.query("SELECT ABS(-4) + 10 MOD 3")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(5)
    );
    assert_eq!(
        c.query("SELECT CAST(2.6 AS INT)")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(3)
    );
    assert_eq!(
        c.query("SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Str("b".into())
    );
    assert!(
        c.query("SELECT 1 / 0").is_err(),
        "division by zero is an error"
    );
}

// ----------------------------------------------------------------------
// arrays beyond the 2-D demo
// ----------------------------------------------------------------------

#[test]
fn one_dimensional_time_series() {
    let mut c = conn();
    c.execute("CREATE ARRAY ts (t INT DIMENSION[0:1:10], v DOUBLE DEFAULT 0.0)")
        .unwrap();
    c.execute("UPDATE ts SET v = t * 1.5").unwrap();
    // Moving average over a 3-wide window via 1-D tiling.
    let rs = c
        .query("SELECT [t], AVG(v) FROM ts GROUP BY ts[t-1:t+2]")
        .unwrap();
    assert_eq!(rs.row_count(), 10);
    let view = rs.to_array_view().unwrap();
    // interior point t=5: avg(6.0, 7.5, 9.0) = 7.5
    assert_eq!(view.at(&[5]), Some(&Value::Dbl(7.5)));
    // boundary t=0: avg(0.0, 1.5) = 0.75 (out-of-range ignored)
    assert_eq!(view.at(&[0]), Some(&Value::Dbl(0.75)));
}

#[test]
fn three_dimensional_array() {
    let mut c = conn();
    c.execute(
        "CREATE ARRAY cube (x INT DIMENSION[0:1:3], y INT DIMENSION[0:1:3], \
         z INT DIMENSION[0:1:3], v INT DEFAULT 1)",
    )
    .unwrap();
    assert_eq!(
        c.query("SELECT COUNT(*) FROM cube")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Lng(27)
    );
    c.execute("UPDATE cube SET v = x * 9 + y * 3 + z").unwrap();
    let rs = c
        .query("SELECT v FROM cube WHERE x = 2 AND y = 1 AND z = 0")
        .unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Int(21));
    // 3-D tiling: 2×2×2 sums.
    let rs = c
        .query(
            "SELECT [x], [y], [z], SUM(v) FROM cube \
             GROUP BY cube[x:x+2][y:y+2][z:z+2] \
             HAVING x = 0 AND y = 0 AND z = 0",
        )
        .unwrap();
    // cells: (0,0,0)=0,(0,0,1)=1,(0,1,0)=3,(0,1,1)=4,(1,0,0)=9,(1,0,1)=10,(1,1,0)=12,(1,1,1)=13
    assert_eq!(rs.get(0, 3), Value::Lng(52));
}

#[test]
fn non_unit_step_dimension() {
    let mut c = conn();
    c.execute("CREATE ARRAY s (x INT DIMENSION[0:10:50], v INT DEFAULT 7)")
        .unwrap();
    let rs = c.query("SELECT x, v FROM s ORDER BY x").unwrap();
    assert_eq!(rs.row_count(), 5);
    assert_eq!(rs.get(4, 0), Value::Int(40));
    // Off-grid insert is rejected.
    assert!(c.execute("INSERT INTO s VALUES (15, 1)").is_err());
    c.execute("INSERT INTO s VALUES (20, 1)").unwrap();
    assert_eq!(
        c.query("SELECT v FROM s WHERE x = 20")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(1)
    );
}

#[test]
fn unbounded_array_derives_range_on_insert() {
    let mut c = conn();
    c.execute("CREATE ARRAY u (x INT DIMENSION, v INT DEFAULT 0)")
        .unwrap();
    // Not materialised yet: scanning fails cleanly.
    assert!(c.query("SELECT v FROM u").is_err());
    c.execute("CREATE TABLE src (x INT, v INT)").unwrap();
    c.execute("INSERT INTO src VALUES (3, 30), (7, 70), (5, 50)")
        .unwrap();
    c.execute("INSERT INTO u SELECT x, v FROM src").unwrap();
    // Derived range [3, 8) with step 1 — all cells exist, holes default 0.
    let rs = c.query("SELECT COUNT(*) FROM u").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Lng(5));
    assert_eq!(
        c.query("SELECT v FROM u WHERE x = 5")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(50)
    );
    assert_eq!(
        c.query("SELECT v FROM u WHERE x = 4")
            .unwrap()
            .scalar()
            .unwrap(),
        Value::Int(0),
        "gap cell exists with the default"
    );
}

#[test]
fn negative_and_shrinking_ranges() {
    let mut c = conn();
    c.execute("CREATE ARRAY m (x INT DIMENSION[-2:1:3], v INT DEFAULT 5)")
        .unwrap();
    assert_eq!(
        c.query("SELECT COUNT(*) FROM m").unwrap().scalar().unwrap(),
        Value::Lng(5)
    );
    c.execute("UPDATE m SET v = x WHERE x < 0").unwrap();
    c.execute("ALTER ARRAY m ALTER DIMENSION x SET RANGE [-1:1:2]")
        .unwrap();
    let rs = c.query("SELECT x, v FROM m ORDER BY x").unwrap();
    assert_eq!(rs.row_count(), 3);
    assert_eq!(rs.row(0), vec![Value::Int(-1), Value::Int(-1)]);
    assert_eq!(rs.row(1), vec![Value::Int(0), Value::Int(5)]);
}

#[test]
fn multi_attribute_array() {
    let mut c = conn();
    c.execute(
        "CREATE ARRAY obs (t INT DIMENSION[0:1:4], temp DOUBLE DEFAULT 0.0, \
         flag INT DEFAULT 1)",
    )
    .unwrap();
    c.execute("UPDATE obs SET temp = t * 0.5, flag = 0 WHERE t >= 2")
        .unwrap();
    let rs = c.query("SELECT t, temp, flag FROM obs ORDER BY t").unwrap();
    assert_eq!(
        rs.row(3),
        vec![Value::Int(3), Value::Dbl(1.5), Value::Int(0)]
    );
    assert_eq!(
        rs.row(1),
        vec![Value::Int(1), Value::Dbl(0.0), Value::Int(1)]
    );
    // DELETE punches holes in all attributes.
    c.execute("DELETE FROM obs WHERE t = 0").unwrap();
    let rs = c.query("SELECT temp, flag FROM obs WHERE t = 0").unwrap();
    assert_eq!(rs.row(0), vec![Value::Null, Value::Null]);
}

// ----------------------------------------------------------------------
// error paths
// ----------------------------------------------------------------------

#[test]
fn error_paths_are_clean() {
    let mut c = conn();
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        .unwrap();
    // Duplicate object.
    assert!(c.execute("CREATE TABLE m (a INT)").is_err());
    // Kind mismatch on DROP.
    assert!(c.execute("DROP TABLE m").is_err());
    // Unknown columns / objects.
    assert!(c.query("SELECT nope FROM m").is_err());
    assert!(c.query("SELECT v FROM nope").is_err());
    // Dimensions cannot be UPDATEd.
    assert!(c.execute("UPDATE m SET x = 1").is_err());
    // Out-of-range insert.
    assert!(c.execute("INSERT INTO m VALUES (99, 1)").is_err());
    // Aggregates in WHERE.
    assert!(c.query("SELECT v FROM m WHERE SUM(v) > 1").is_err());
    // Tile over the wrong array.
    assert!(c
        .query("SELECT [x], AVG(v) FROM m GROUP BY other[x]")
        .is_err());
    // Parse errors surface with position info.
    let err = c.execute("SELEC 1").unwrap_err();
    assert!(err.to_string().contains("offset"), "{err}");
    // The session survives all of the above.
    assert_eq!(
        c.query("SELECT COUNT(*) FROM m").unwrap().scalar().unwrap(),
        Value::Lng(4)
    );
}

#[test]
fn string_columns_work_through_the_stack() {
    let mut c = conn();
    c.execute_script(
        "CREATE TABLE s (k INT, name VARCHAR); \
         INSERT INTO s VALUES (1, 'alpha'), (2, 'beta'), (3, 'alpha');",
    )
    .unwrap();
    let rs = c
        .query("SELECT name, COUNT(*) FROM s GROUP BY name ORDER BY name")
        .unwrap();
    assert_eq!(rs.row(0), vec![Value::Str("alpha".into()), Value::Lng(2)]);
    let rs = c.query("SELECT k FROM s WHERE name = 'beta'").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Int(2));
}

#[test]
fn insert_select_reads_pre_insert_state() {
    // INSERT INTO m SELECT … FROM m must not observe its own writes.
    let mut c = conn();
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 1)")
        .unwrap();
    c.execute("UPDATE m SET v = x").unwrap();
    // Shift everything one to the right using a self-read.
    c.execute("INSERT INTO m SELECT [x], m[x-1] FROM m WHERE x > 0")
        .unwrap();
    let rs = c.query("SELECT v FROM m ORDER BY x").unwrap();
    let vals: Vec<Value> = rs.rows().map(|r| r[0].clone()).collect();
    assert_eq!(
        vals,
        vec![Value::Int(0), Value::Int(0), Value::Int(1), Value::Int(2)],
        "each cell must receive the OLD left neighbour"
    );
}
