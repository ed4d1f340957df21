//! Quickstart: walk through §2 of the paper — Figure 1(a)–(f) — statement
//! by statement through the **unified driver API**, printing the array
//! after each operation, then re-run the paper's tiling query as a bound
//! prepared statement.
//!
//! Run with: `cargo run --example quickstart`

use sciql_repro::driver::{Conn, Sciql};
use sciql_repro::params;

fn show(conn: &mut Conn, caption: &str) {
    println!("== {caption}");
    let rows = conn
        .query("SELECT [x], [y], v FROM matrix")
        .expect("matrix readable");
    let view = rows
        .result_set()
        .to_array_view()
        .expect("dimensional result");
    println!("{}", view.render_grid().expect("2-D"));
}

fn main() {
    // One line replaces Connection::new(); swap the URL for
    // "file:./mydb" (durable vault) or "tcp://host:port" (server) and
    // everything below runs unchanged.
    let mut conn = Sciql::connect("mem:").expect("in-memory connect");

    // Fig 1(a): CREATE ARRAY materialises a 4×4 zero matrix.
    conn.execute(
        "CREATE ARRAY matrix (
           x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4],
           v INT DEFAULT 0)",
    )
    .unwrap();
    show(
        &mut conn,
        "Fig 1(a): CREATE ARRAY matrix — all cells default 0",
    );

    // Fig 1(b): guarded UPDATE with dimensions as bound variables.
    conn.execute(
        "UPDATE matrix SET v = CASE WHEN x > y THEN x + y \
         WHEN x < y THEN x - y ELSE 0 END",
    )
    .unwrap();
    show(&mut conn, "Fig 1(b): guarded UPDATE");

    // Fig 1(c): INSERT overwrites cells; DELETE punches NULL holes.
    conn.execute("INSERT INTO matrix SELECT [x], [y], x * y FROM matrix WHERE x = y")
        .unwrap();
    conn.execute("DELETE FROM matrix WHERE x > y").unwrap();
    show(
        &mut conn,
        "Fig 1(c): INSERT diagonal x*y, DELETE x > y (holes)",
    );

    // Fig 1(d)/(e): structural grouping — 2×2 tiles, anchors filtered by
    // HAVING, holes ignored by AVG.
    let rows = conn
        .query(
            "SELECT [x], [y], AVG(v) FROM matrix \
             GROUP BY matrix[x:x+2][y:y+2] \
             HAVING x MOD 2 = 1 AND y MOD 2 = 1",
        )
        .unwrap();
    println!("== Fig 1(d)/(e): 2x2 tiling, AVG per anchor");
    println!("{}", rows.result_set().render());
    println!(
        "{}",
        rows.result_set()
            .to_array_view()
            .unwrap()
            .render_grid()
            .unwrap()
    );

    // Fig 1(f): expand both dimensions by one in each direction.
    conn.execute("ALTER ARRAY matrix ALTER DIMENSION x SET RANGE [-1:1:5]")
        .unwrap();
    conn.execute("ALTER ARRAY matrix ALTER DIMENSION y SET RANGE [-1:1:5]")
        .unwrap();
    show(
        &mut conn,
        "Fig 1(f): ALTER ARRAY — expanded with default border",
    );

    // Bound parameters: one prepared statement, three thresholds. The
    // plan compiles once; re-executions fill the `?` slot and reuse it.
    println!("== prepared statement: SELECT COUNT(*) FROM matrix WHERE v >= ?");
    let stmt = conn
        .prepare("SELECT COUNT(*) FROM matrix WHERE v >= ?")
        .unwrap();
    for threshold in [0i64, 2, 4] {
        let mut rows = conn.query_bound(&stmt, params![threshold]).unwrap();
        let n: i64 = rows.next_row().unwrap().get(0).unwrap();
        let hit = conn.last_report().unwrap().plan_cache_hits;
        println!("  v >= {threshold}: {n} cell(s)   (plan cache hit: {hit})");
    }

    // Bonus: what the engine actually runs (Fig 2 pipeline).
    println!("== EXPLAIN of the tiling query");
    let explain = conn
        .explain(
            "SELECT [x], [y], AVG(v) FROM matrix \
             GROUP BY matrix[x:x+2][y:y+2] \
             HAVING x MOD 2 = 1 AND y MOD 2 = 1",
        )
        .unwrap();
    println!("{explain}");
}
