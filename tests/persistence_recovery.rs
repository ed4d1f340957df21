//! Crash-recovery property test for the `sciql-store` vault.
//!
//! A random trace of mutating statements (with checkpoints sprinkled at
//! random positions) is executed twice: on a durable connection backed by
//! a vault directory and on a plain in-memory connection. The durable
//! connection is then dropped mid-trace **without** a final checkpoint —
//! the simulated crash — and a torn partial record is appended to the WAL
//! to model a statement that died mid-write without being acknowledged.
//! Reopening the vault must replay the checkpoint + WAL tail to a state
//! that answers every probe query identically to the uninterrupted
//! in-memory run.

use proptest::prelude::*;
use sciql::Connection;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One step of a statement trace over the fixed schema below.
#[derive(Debug, Clone)]
enum Op {
    /// Overwrite one cell of the 4×4 array.
    InsertCell { x: i64, y: i64, v: i32 },
    /// Guarded bulk update of the array attribute.
    UpdateArray { delta: i32, threshold: i64 },
    /// Punch NULL holes into the array.
    DeleteArray { threshold: i32 },
    /// Append one row to the table.
    InsertRow { a: i32, s: u8 },
    /// Update table rows below a pivot.
    UpdateTable { pivot: i32, to: i32 },
    /// Remove table rows below a pivot.
    DeleteTable { pivot: i32 },
    /// Write a vault checkpoint (no-op on the in-memory twin).
    Checkpoint,
}

impl Op {
    /// The statement text, or `None` for the checkpoint pseudo-op.
    fn sql(&self) -> Option<String> {
        match self {
            Op::InsertCell { x, y, v } => Some(format!("INSERT INTO m VALUES ({x}, {y}, {v})")),
            Op::UpdateArray { delta, threshold } => Some(format!(
                "UPDATE m SET v = v + {delta} WHERE x + y > {threshold}"
            )),
            Op::DeleteArray { threshold } => Some(format!("DELETE FROM m WHERE v > {threshold}")),
            Op::InsertRow { a, s } => Some(format!("INSERT INTO t VALUES ({a}, 'w{s}')")),
            Op::UpdateTable { pivot, to } => {
                Some(format!("UPDATE t SET a = {to} WHERE a < {pivot}"))
            }
            Op::DeleteTable { pivot } => Some(format!("DELETE FROM t WHERE a < {pivot}")),
            Op::Checkpoint => None,
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..4, 0i64..4, -50i32..50).prop_map(|(x, y, v)| Op::InsertCell { x, y, v }),
        (-5i32..5, 0i64..6).prop_map(|(delta, threshold)| Op::UpdateArray { delta, threshold }),
        (-20i32..40).prop_map(|threshold| Op::DeleteArray { threshold }),
        (-50i32..50, 0u8..4).prop_map(|(a, s)| Op::InsertRow { a, s }),
        (-20i32..20, -50i32..50).prop_map(|(pivot, to)| Op::UpdateTable { pivot, to }),
        (-20i32..20).prop_map(|pivot| Op::DeleteTable { pivot }),
        Just(Op::Checkpoint),
    ]
}

const SETUP: &str = "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], \
                    v INT DEFAULT 0); \
                    CREATE TABLE t (a INT, s TEXT);";

/// Probes covering both objects: full scans, filters, aggregates and
/// string columns.
const PROBES: &[&str] = &[
    "SELECT x, y, v FROM m",
    "SELECT SUM(v) FROM m",
    "SELECT COUNT(v) FROM m",
    "SELECT v FROM m WHERE v IS NOT NULL ORDER BY v",
    "SELECT a, s FROM t",
    "SELECT COUNT(*) FROM t",
    "SELECT SUM(a) FROM t",
];

fn fresh_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sciql-recovery-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Append a torn frame to the generation's WAL: a header promising more
/// payload than follows, as a crash mid-`write` would leave behind.
fn tear_wal_tail(dir: &PathBuf) {
    let wal = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .expect("vault has an active WAL");
    let mut f = std::fs::OpenOptions::new().append(true).open(wal).unwrap();
    f.write_all(&500u32.to_le_bytes()).unwrap();
    f.write_all(&0x1234_5678u32.to_le_bytes()).unwrap();
    f.write_all(b"UPDATE m SET v = torn off mid-wr").unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoint + WAL-tail recovery reproduces the uninterrupted run
    /// query-for-query, even with a torn final WAL record.
    #[test]
    fn crash_recovery_matches_uninterrupted_run(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let dir = fresh_dir();
        let mut mem = Connection::new();
        mem.execute_script(SETUP).unwrap();
        {
            let mut durable = Connection::open(&dir).unwrap();
            durable.execute_script(SETUP).unwrap();
            for op in &ops {
                match op.sql() {
                    Some(sql) => {
                        let a = durable.execute(&sql).unwrap().affected().unwrap();
                        let b = mem.execute(&sql).unwrap().affected().unwrap();
                        prop_assert_eq!(a, b, "affected counts diverged on {}", sql);
                    }
                    None => durable.checkpoint().unwrap(),
                }
            }
        } // crash: dropped with the WAL tail unflushed past its sync points
        tear_wal_tail(&dir);
        let mut reopened = Connection::open(&dir).unwrap();
        for probe in PROBES {
            let want = mem.query(probe).unwrap().render();
            let got = reopened.query(probe).unwrap().render();
            prop_assert_eq!(got, want, "probe {} diverged after recovery", probe);
        }
        // The reopened store keeps working durably: one more statement,
        // one more crash-free reopen.
        reopened.execute("INSERT INTO t VALUES (777, 'post')").unwrap();
        drop(reopened);
        let mut again = Connection::open(&dir).unwrap();
        let rs = again.query("SELECT COUNT(*) FROM t WHERE a = 777").unwrap();
        prop_assert_eq!(rs.scalar().unwrap(), gdk::Value::Lng(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The vault's single-writer `LOCK` file is released by a clean
/// `Connection` drop — a second open must not have to wait for stale-pid
/// breaking (which only rescues locks left by *dead* processes; within a
/// live process a leaked lock would deadlock every reopen).
#[test]
fn clean_drop_releases_vault_lock() {
    let dir = fresh_dir();
    let lock = dir.join("LOCK");
    {
        let mut conn = Connection::open(&dir).unwrap();
        conn.execute("CREATE TABLE held (a INT)").unwrap();
        assert!(lock.exists(), "LOCK held while the connection lives");
        // While held, a same-process reopen is refused (the pid is alive,
        // so stale-lock breaking must NOT kick in).
        match Connection::open(&dir) {
            Err(e) => assert!(
                e.to_string().contains("already open"),
                "expected a lock error, got: {e}"
            ),
            Ok(_) => panic!("second open succeeded while locked"),
        }
        assert!(lock.exists(), "failed open must not break a live lock");
    }
    assert!(!lock.exists(), "clean drop must remove LOCK");
    // And the release is real: an immediate reopen works.
    let mut again = Connection::open(&dir).unwrap();
    again.execute("INSERT INTO held VALUES (1)").unwrap();
    drop(again);
    assert!(!lock.exists(), "second clean drop releases LOCK too");
    std::fs::remove_dir_all(&dir).ok();
}

/// A shared engine behaves the same: dropping the last `Arc` releases
/// the lock (the `sciql-net` server relies on this between restarts).
#[test]
fn shared_engine_drop_releases_vault_lock() {
    let dir = fresh_dir();
    let lock = dir.join("LOCK");
    {
        let engine = sciql::SharedEngine::open(&dir).unwrap();
        engine
            .session()
            .execute("CREATE TABLE held (a INT)")
            .unwrap();
        assert!(lock.exists());
    }
    assert!(!lock.exists(), "engine drop must remove LOCK");
    std::fs::remove_dir_all(&dir).ok();
}

/// Why opening the vault at `dir` fails.
fn open_error(dir: &std::path::Path) -> String {
    match Connection::open(dir) {
        Ok(_) => panic!("vault {} opened", dir.display()),
        Err(e) => e.to_string(),
    }
}

/// Number of tile files in the vault's `cols/` directory.
fn tile_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir.join("cols")).unwrap().count()
}

/// A vault stores attribute tiles only: an array's dimensions are their
/// `DimSpec`s, never data — not at the first checkpoint, not after a
/// re-range — and the regenerated dimensions still carry their shape.
#[test]
fn nothing_of_a_dimension_reaches_disk() {
    use gdk::{zonemap::TILE_ROWS, Value};
    let dir = fresh_dir();
    let cfg = sciql::SessionConfig {
        threads: 4,
        parallel_threshold: 1,
        ..sciql::SessionConfig::default()
    };
    const READS: [&str; 2] = [
        "SELECT [x], [y], [z], v, w FROM cube",
        "SELECT [i], [j], g FROM grid",
    ];
    let pages = |c: &mut Connection| {
        READS.map(|q| {
            let rs = c.query(q).unwrap();
            (rs.encode_header(), rs.encode_pages(1000))
        })
    };
    let before = {
        let mut c = Connection::open_with_config(&dir, cfg).unwrap();
        c.execute_script(
            "CREATE ARRAY cube (x INT DIMENSION[40:-1:0], y INT DIMENSION[-2:1:18], \
             z INT DIMENSION[10:2:32], v INT DEFAULT 1, w DOUBLE DEFAULT 0.5); \
             CREATE ARRAY grid (i INT DIMENSION[0:1:3], j INT DIMENSION[-1:1:2], g INT DEFAULT 7); \
             UPDATE cube SET v = x * 100 + y, w = z * 0.25 WHERE y > 0;",
        )
        .unwrap();
        c.checkpoint().unwrap();
        // 40 × 20 × 11 = 8800 cells: two tiles for each of cube's two
        // attributes, plus grid's one.
        let tiles = 2 * 8800usize.div_ceil(TILE_ROWS) + 1;
        assert_eq!(tile_files(&dir), tiles);
        let stats = c.vault_stats().unwrap();
        assert_eq!((stats.columns, stats.tile_files), (3, tiles));
        // 90 × 20 × 11 = 19800 cells after the re-range.
        c.execute("ALTER ARRAY cube ALTER DIMENSION x SET RANGE [80:-1:-10]")
            .unwrap();
        c.checkpoint().unwrap();
        let tiles = 2 * 19800usize.div_ceil(TILE_ROWS) + 1;
        assert_eq!(tile_files(&dir), tiles);
        let stats = c.vault_stats().unwrap();
        assert_eq!((stats.columns, stats.tile_files), (3, tiles));
        pages(&mut c)
    };
    let mut c = Connection::open_with_config(&dir, cfg).unwrap();
    assert!(pages(&mut c) == before, "pages differ after reopen");
    // A point read on regenerated dimensions is arithmetic: no select
    // fans out, although every instruction may.
    for (sql, n) in [
        ("SELECT v, w FROM cube WHERE x = -3 AND y = 4 AND z = 12", 3),
        ("SELECT g FROM grid WHERE i = 1 AND j = 0", 2),
    ] {
        let rs = c.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let lines: Vec<String> = rs.rows().map(|r| r[0].to_string()).collect();
        let selects: Vec<&String> = (lines.iter())
            .filter(|l| l.contains("] algebra.") && l.contains("select"))
            .collect();
        assert_eq!(selects.len(), n, "{lines:#?}");
        for l in selects {
            assert!(
                l.contains(" threads=1"),
                "a dimension select fanned out: {l}"
            );
        }
    }
    // A cell the UPDATE wrote, and one the re-range added.
    for (sql, want) in [
        (
            "x = 3 AND y = 4 AND z = 12",
            [Value::Int(304), Value::Dbl(3.0)],
        ),
        (
            "x = -3 AND y = 4 AND z = 12",
            [Value::Int(1), Value::Dbl(0.5)],
        ),
    ] {
        let rs = c
            .query(&format!("SELECT v, w FROM cube WHERE {sql}"))
            .unwrap();
        assert_eq!(rs.rows().collect::<Vec<_>>(), vec![want.to_vec()], "{sql}");
    }
    drop(c);
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot in an older format is refused by its version number, with
/// the file named — never misread as a column-count mismatch.
#[test]
fn an_older_snapshot_version_is_refused() {
    let dir = fresh_dir();
    {
        let mut c = Connection::open(&dir).unwrap();
        c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
            .unwrap();
        c.checkpoint().unwrap();
    }
    // Rewrite the version field (after the 4-byte magic) to 2 and reseal
    // the trailing CRC, so only the version is wrong.
    let snap = dir.join("snapshot-1.cat");
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    let body = bytes.len() - 4;
    let crc = gdk::codec::crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&snap, bytes).unwrap();
    let err = open_error(&dir);
    assert!(
        err.contains("snapshot-1.cat") && err.contains("unsupported version 2"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An attribute tile that does not cover the array's cells is refused
/// with the array named.
#[test]
fn an_attribute_of_the_wrong_length_is_refused() {
    use sciql_store::{CheckpointColumn, CheckpointObject, ColumnDirt, Vault};
    let dir = fresh_dir();
    let def = {
        let mut c = Connection::open(&dir).unwrap();
        c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 0)")
            .unwrap();
        c.catalog().get("m").unwrap().clone()
    };
    {
        // Checkpoint the array with three cells of `v` where it has four.
        let (mut vault, _) = Vault::open(&dir).unwrap();
        let short = gdk::Bat::from_ints(vec![1, 2, 3]);
        let v = CheckpointColumn {
            name: "v",
            bat: &short,
            dirt: ColumnDirt::All,
        };
        let m = CheckpointObject {
            def: &def,
            columns: Some(vec![v]),
        };
        vault.checkpoint(&[m]).unwrap();
    }
    let err = open_error(&dir);
    assert!(
        err.contains("recovered array \"m\" has a column of 3 cells, schema says 4"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The WAL holds schema statements as text and every data change as the
/// values it stored: decoding the log after one statement of each kind
/// finds SQL text for the DDL only, and reopening replays the records to
/// the live state.
#[test]
fn only_schema_statements_are_logged_as_text() {
    use sciql_store::{decode_replay_op, read_wal_from, wal_file_path, ReplayOp};
    let dir = fresh_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let copy = dir.join("rows.bin");
    let cols = [
        gdk::Bat::from_ints(vec![9, 8]),
        gdk::Bat::from_strs(vec![Some("c"), None]),
    ];
    sciql::write_copy_binary(&copy, &cols).unwrap();
    let copy = format!("COPY t FROM '{}' (FORMAT binary)", copy.display());
    let script = [
        (
            "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)",
            "sql",
        ),
        ("CREATE TABLE t (a INT, s TEXT)", "sql"),
        ("UPDATE m SET v = x * 4 + y", "write"),
        ("DELETE FROM m WHERE v > 12", "delete"),
        ("INSERT INTO m VALUES (0, 0, 99)", "write"),
        ("INSERT INTO t VALUES (1, 'a'), (2, 'b')", "write"),
        ("INSERT INTO t SELECT v, 'm' FROM m WHERE v < 3", "write"),
        ("UPDATE t SET s = 'z' WHERE a = 2", "write"),
        ("DELETE FROM t WHERE a = 1", "delete"),
        (copy.as_str(), "write"),
        ("ALTER ARRAY m ALTER DIMENSION x SET RANGE [0:1:5]", "sql"),
        ("CREATE TABLE gone (a INT)", "sql"),
        ("DROP TABLE gone", "sql"),
        ("CREATE ARRAY u (x INT DIMENSION, v INT DEFAULT 0)", "sql"),
        // The derived range is logged as the ALTER it amounts to.
        ("INSERT INTO u VALUES (3, 7), (5, 8)", "sql write"),
    ];
    let probes = [
        "SELECT x, y, v FROM m",
        "SELECT a, s FROM t",
        "SELECT x, v FROM u",
    ];
    let mut c = Connection::open(dir.join("db")).unwrap();
    for (sql, _) in script {
        c.execute(sql).unwrap();
    }
    let live: Vec<String> = probes
        .iter()
        .map(|p| c.query(p).unwrap().render())
        .collect();
    let wal = wal_file_path(&dir.join("db"), c.vault_stats().unwrap().generation);
    drop(c);
    let kinds: Vec<&str> = read_wal_from(&wal, 0, u64::MAX)
        .unwrap()
        .iter()
        .map(|r| match decode_replay_op(&r.payload, &wal, 0).unwrap() {
            ReplayOp::Sql(_) => "sql",
            ReplayOp::Write { .. } => "write",
            ReplayOp::Delete { .. } => "delete",
        })
        .collect();
    let want: Vec<&str> = script
        .iter()
        .flat_map(|(_, kinds)| kinds.split(' '))
        .collect();
    assert_eq!(kinds, want);
    let mut reopened = Connection::open(dir.join("db")).unwrap();
    let replayed: Vec<String> = probes
        .iter()
        .map(|p| reopened.query(p).unwrap().render())
        .collect();
    assert_eq!(replayed, live);
    std::fs::remove_dir_all(&dir).ok();
}
