//! E6/E7: the storage layout of Fig 3 and the compilation pipeline of
//! Fig 2 — verified end to end.

use gdk::Value;
use mal::OptConfig;
use sciql::{Connection, SessionConfig};
use sciql_algebra::CodegenOptions;

/// Fig 3: `CREATE ARRAY matrix` materialises exactly three BATs with the
/// 16-row layout printed in the paper.
#[test]
fn fig3_bat_layout() {
    let mut c = Connection::new();
    c.execute(
        "CREATE ARRAY matrix (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], \
         v INT DEFAULT 0)",
    )
    .unwrap();
    let store = c.array_store("matrix").unwrap();
    assert_eq!(store.dims.len(), 2, "one BAT per dimension");
    assert_eq!(store.attrs.len(), 1, "one BAT per attribute");
    // The exact tails of Fig 3.
    assert_eq!(
        store.dims[0].as_ints().unwrap(),
        &[0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3],
        "x = array.series(0,1,4,4,1)"
    );
    assert_eq!(
        store.dims[1].as_ints().unwrap(),
        &[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3],
        "y = array.series(0,1,4,1,4)"
    );
    assert_eq!(
        store.attrs[0].as_ints().unwrap(),
        &[0; 16],
        "v = array.filler(16,0)"
    );
}

/// Fig 2: EXPLAIN shows every pipeline stage — logical plan, generated
/// MAL, optimised MAL.
#[test]
fn explain_exposes_pipeline_stages() {
    let mut c = Connection::new();
    c.execute(
        "CREATE ARRAY matrix (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], \
         v INT DEFAULT 0)",
    )
    .unwrap();
    let text = c
        .explain("SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2]")
        .unwrap();
    assert!(text.contains("-- logical plan"), "{text}");
    assert!(text.contains("Tile cells=4"), "{text}");
    assert!(text.contains("-- MAL (generated)"), "{text}");
    assert!(text.contains("array.tileagg"), "{text}");
    assert!(text.contains("-- MAL (optimised)"), "{text}");
    assert!(text.contains("sql.bind"), "{text}");
    // Level 0 lowers the same tile to the shift chain.
    c.set_session_config(SessionConfig::with_opt_level(0));
    let text = c
        .explain("SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2]")
        .unwrap();
    assert!(text.contains("array.shift"), "{text}");
    assert!(!text.contains("array.tileagg"), "{text}");
}

fn fig1c_session() -> Connection {
    let mut c = Connection::new();
    c.execute_script(
        "CREATE ARRAY matrix (x INT DIMENSION[0:1:16], y INT DIMENSION[0:1:16], \
         v INT DEFAULT 0); \
         UPDATE matrix SET v = CASE WHEN x > y THEN x + y WHEN x < y THEN x - y \
         ELSE 0 END; \
         DELETE FROM matrix WHERE x > y AND y MOD 3 = 0;",
    )
    .unwrap();
    c
}

const QUERIES: &[&str] = &[
    "SELECT x, y, v FROM matrix WHERE x > 2 AND y <= 9",
    "SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2]",
    "SELECT v, COUNT(*) FROM matrix GROUP BY v ORDER BY v",
    "SELECT [x], [y], SUM(v) - v FROM matrix GROUP BY matrix[x-1:x+2][y-1:y+2]",
    "SELECT DISTINCT v FROM matrix ORDER BY v LIMIT 5",
    "SELECT COUNT(*), MIN(v), MAX(v), AVG(v) FROM matrix WHERE v IS NOT NULL",
];

/// A1 sanity: the optimizer pipeline must never change results.
#[test]
fn optimised_and_unoptimised_agree() {
    for sql in QUERIES {
        let mut on = fig1c_session();
        on.set_optimizer(OptConfig::default());
        let a = on.query(sql).unwrap();
        let mut off = fig1c_session();
        off.set_optimizer(OptConfig::none());
        let b = off.query(sql).unwrap();
        assert_eq!(a.row_count(), b.row_count(), "{sql}");
        for r in 0..a.row_count() {
            assert_eq!(a.row(r), b.row(r), "{sql} row {r}");
        }
        // And the pipeline genuinely removed instructions somewhere.
        assert!(on.last_exec().instrs_after_opt <= on.last_exec().instrs_before_opt);
    }
}

/// A2 sanity: candidate pushdown and mask filtering compute identical
/// results.
#[test]
fn candidate_and_mask_codegen_agree() {
    for sql in QUERIES {
        let mut cands = fig1c_session();
        cands.set_codegen(CodegenOptions {
            candidate_pushdown: true,
            ..CodegenOptions::default()
        });
        let a = cands.query(sql).unwrap();
        let mut masks = fig1c_session();
        masks.set_codegen(CodegenOptions {
            candidate_pushdown: false,
            ..CodegenOptions::default()
        });
        let b = masks.query(sql).unwrap();
        assert_eq!(a.row_count(), b.row_count(), "{sql}");
        for r in 0..a.row_count() {
            assert_eq!(a.row(r), b.row(r), "{sql} row {r}");
        }
    }
}

/// The optimizer measurably shrinks the shift-chain tiling program (CSE
/// collapses the repeated shift/isnil subtrees). The chain is the level-0
/// lowering, so the session turns the full pipeline on by hand; from level
/// 1 the tile is one `array.tileagg`, which already is what the chain
/// shrinks towards.
#[test]
fn optimizer_shrinks_tiling_program() {
    let sql = "SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x-1:x+2][y-1:y+2]";
    let mut c = fig1c_session();
    let tiled = c.query(sql).unwrap();
    let tileagg = c.last_exec().instrs_after_opt;
    c.set_session_config(SessionConfig::with_opt_level(0));
    c.set_optimizer(OptConfig::full());
    let chained = c.query(sql).unwrap();
    let stats = c.last_exec();
    assert!(
        stats.instrs_after_opt < stats.instrs_before_opt,
        "expected shrink, got {} -> {}",
        stats.instrs_before_opt,
        stats.instrs_after_opt
    );
    assert!(stats.opt.total_removed() > 0);
    assert!(
        tileagg < stats.instrs_after_opt,
        "one tileagg ({tileagg} instructions) against the optimised chain ({})",
        stats.instrs_after_opt
    );
    assert_eq!(tiled.row_count(), chained.row_count());
    for r in 0..tiled.row_count() {
        assert_eq!(tiled.row(r), chained.row(r), "row {r}");
    }
}

/// The tuples-produced counter separates candidate from mask execution:
/// with pushdown the selective filter materialises fewer intermediates.
#[test]
fn candidate_pushdown_produces_fewer_tuples() {
    let sql = "SELECT v FROM matrix WHERE x = 3 AND y = 4";
    let mut cands = fig1c_session();
    cands.set_codegen(CodegenOptions {
        candidate_pushdown: true,
        ..CodegenOptions::default()
    });
    cands.query(sql).unwrap();
    let with = cands.last_exec().exec.tuples_produced;
    let mut masks = fig1c_session();
    masks.set_codegen(CodegenOptions {
        candidate_pushdown: false,
        ..CodegenOptions::default()
    });
    masks.query(sql).unwrap();
    let without = masks.last_exec().exec.tuples_produced;
    assert!(
        with < without,
        "candidates should materialise fewer tuples ({with} vs {without})"
    );
}

/// Join recognition: the EXPLAIN for the bit-mask AOI query must show a
/// hash join, not a cross product.
#[test]
fn join_recognition_in_pipeline() {
    let mut c = Connection::new();
    c.execute("CREATE ARRAY img (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 1)")
        .unwrap();
    c.execute(
        "CREATE ARRAY mask (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 0)",
    )
    .unwrap();
    let text = c
        .explain(
            "SELECT a.v FROM img a, mask m \
             WHERE a.x = m.x AND a.y = m.y AND m.v = 1",
        )
        .unwrap();
    assert!(text.contains("EquiJoin keys=2 residual=true"), "{text}");
    assert!(text.contains("algebra.joinn"), "{text}");
    assert!(!text.contains("crossproduct"), "{text}");
}

/// Aggregates over the Fig 1(c) matrix: nils are invisible to aggregation
/// but COUNT(*) still counts cells.
#[test]
fn aggregate_null_semantics_end_to_end() {
    let mut c = Connection::new();
    c.execute_script(
        "CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 2); \
         DELETE FROM m WHERE x = 1;",
    )
    .unwrap();
    let rs = c
        .query("SELECT COUNT(*), COUNT(v), SUM(v), AVG(v) FROM m")
        .unwrap();
    assert_eq!(rs.get(0, 0), Value::Lng(4), "COUNT(*) counts cells");
    assert_eq!(rs.get(0, 1), Value::Lng(3), "COUNT(v) skips the hole");
    assert_eq!(rs.get(0, 2), Value::Lng(6));
    assert_eq!(rs.get(0, 3), Value::Dbl(2.0));
}
