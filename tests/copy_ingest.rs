//! End-to-end tests for the tiled-store bulk-ingest path:
//! `COPY <target> FROM '<path>' (FORMAT csv|binary)`, per-batch WAL
//! logging, tile-granular crash recovery, and the zone-map tile-skipping
//! differential (skipping on vs off must be byte-identical).

use gdk::{Bat, Value};
use sciql::{write_copy_binary, Connection, SessionConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TILE_ROWS: usize = 8192;

fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sciql-copy-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn copy_csv_into_table_parses_types_nulls_and_quotes() {
    let dir = fresh_dir("csv");
    let csv = dir.join("rows.csv");
    std::fs::write(
        &csv,
        "1,hello,1.5\n\
         2,\"with, comma\",2.5\n\
         3,,\n\
         4,\"say \"\"hi\"\"\",0.25\n\
         5,\"NULL\",NULL\n",
    )
    .unwrap();
    let mut c = Connection::new();
    c.execute("CREATE TABLE t (a INT, s TEXT, d DOUBLE)")
        .unwrap();
    let n = c
        .execute(&format!("COPY t FROM '{}' (FORMAT csv)", csv.display()))
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 5);
    let rs = c.query("SELECT s FROM t WHERE a = 2").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Str("with, comma".into()));
    let rs = c.query("SELECT s FROM t WHERE a = 4").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Str("say \"hi\"".into()));
    // Unquoted empties are nil; a quoted "NULL" is the string.
    let rs = c.query("SELECT COUNT(*) FROM t WHERE s IS NULL").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Lng(1));
    let rs = c.query("SELECT a FROM t WHERE s = 'NULL'").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Int(5));
    let rs = c.query("SELECT COUNT(*) FROM t WHERE d IS NULL").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Lng(2));
    // Type errors carry the offending line number.
    std::fs::write(&csv, "1,ok,1.0\nbad,x,2.0\n").unwrap();
    let err = c
        .execute(&format!("COPY t FROM '{}' (FORMAT csv)", csv.display()))
        .unwrap_err()
        .to_string();
    assert!(err.contains("line 2"), "error names the line: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn copy_binary_multi_tile_survives_crash_recovery() {
    let dir = fresh_dir("bin");
    let vault = dir.join("db");
    let file = dir.join("rows.bin");
    // 2.5 tiles of rows → three Write WAL records, one per batch.
    let rows = TILE_ROWS * 2 + TILE_ROWS / 2;
    let ks: Vec<i32> = (0..rows as i32).collect();
    let vs: Vec<f64> = (0..rows).map(|i| (i % 97) as f64 / 7.0).collect();
    write_copy_binary(&file, &[Bat::from_ints(ks), Bat::from_dbls(vs)]).unwrap();
    {
        let mut c = Connection::open(&vault).unwrap();
        c.execute("CREATE TABLE big (k INT, v DOUBLE)").unwrap();
        let n = c
            .execute(&format!(
                "COPY big FROM '{}' (FORMAT binary)",
                file.display()
            ))
            .unwrap()
            .affected()
            .unwrap();
        assert_eq!(n, rows);
        let s = c.vault_stats().unwrap();
        assert_eq!(s.wal_records, 1 + 3, "CREATE + one record per batch");
    } // crash: no checkpoint — recovery must replay the Write records
    let mut c = Connection::open(&vault).unwrap();
    let rs = c.query("SELECT COUNT(*), SUM(k) FROM big").unwrap();
    assert_eq!(rs.bats[0].get(0), Value::Lng(rows as i64));
    let want: i64 = (0..rows as i64).sum();
    assert_eq!(rs.bats[1].get(0), Value::Lng(want));
    // And the replayed state checkpoints into tiles cleanly.
    c.checkpoint().unwrap();
    let s = c.vault_stats().unwrap();
    assert!(
        s.tile_files >= 6,
        "2 columns × ≥3 tiles, got {}",
        s.tile_files
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn copy_into_array_fills_cells_and_enforces_cardinality() {
    let dir = fresh_dir("arr");
    let csv = dir.join("cells.csv");
    let lines: Vec<String> = (0..16).map(|i| format!("{}.5", i)).collect();
    std::fs::write(&csv, lines.join("\n")).unwrap();
    let mut c = Connection::new();
    c.execute(
        "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v DOUBLE DEFAULT 0.0)",
    )
    .unwrap();
    let n = c
        .execute(&format!("COPY m FROM '{}' (FORMAT csv)", csv.display()))
        .unwrap()
        .affected()
        .unwrap();
    assert_eq!(n, 16);
    let rs = c.query("SELECT v FROM m WHERE x = 3 AND y = 3").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Dbl(15.5));
    // A row-count mismatch is an error naming both cardinalities.
    std::fs::write(&csv, "1.0\n2.0\n").unwrap();
    let err = c
        .execute(&format!("COPY m FROM '{}' (FORMAT csv)", csv.display()))
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("2 rows") && err.contains("16 cells"),
        "error names both cardinalities: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Build a clustered table (k ascending ⇒ tight per-tile min/max) of
/// `tiles` tiles via binary COPY and return the connection.
fn clustered(cfg: SessionConfig, tiles: usize, dir: &std::path::Path) -> Connection {
    let rows = TILE_ROWS * tiles;
    let file = dir.join(format!("clustered-{}-{}.bin", cfg.threads, cfg.opt_level));
    let ks: Vec<i32> = (0..rows as i32).collect();
    let tags: Vec<Option<&str>> = (0..rows)
        .map(|i| Some(["red", "green", "blue"][i % 3]))
        .collect();
    write_copy_binary(&file, &[Bat::from_ints(ks), Bat::from_strs(tags)]).unwrap();
    let mut c = Connection::with_config(cfg);
    c.execute("CREATE TABLE ev (k INT, tag TEXT)").unwrap();
    c.execute(&format!(
        "COPY ev FROM '{}' (FORMAT binary)",
        file.display()
    ))
    .unwrap();
    c
}

/// Probes whose range/point predicates cluster into few tiles.
const SKIP_PROBES: &[&str] = &[
    "SELECT COUNT(*) FROM ev WHERE k >= 100 AND k < 300",
    "SELECT SUM(k) FROM ev WHERE k > 20000",
    "SELECT tag FROM ev WHERE k = 12345",
    "SELECT COUNT(*) FROM ev WHERE k < 0",
    "SELECT k FROM ev WHERE k >= 24570 ORDER BY k DESC LIMIT 5",
];

#[test]
fn zone_skipping_is_byte_identical_and_actually_skips() {
    let dir = fresh_dir("diff");
    for opt_level in [0u8, 2] {
        for threads in [1usize, 8] {
            let on = SessionConfig {
                threads,
                opt_level,
                zone_skip: true,
                ..SessionConfig::default()
            };
            let off = SessionConfig {
                zone_skip: false,
                ..on
            };
            let mut skipping = clustered(on, 3, &dir);
            let mut full = clustered(off, 3, &dir);
            let mut skipped_total = 0usize;
            for probe in SKIP_PROBES {
                let a = skipping.query(probe).unwrap().render();
                skipped_total += skipping.last_exec().exec.tiles_skipped;
                let b = full.query(probe).unwrap().render();
                assert_eq!(
                    full.last_exec().exec.tiles_skipped,
                    0,
                    "zone_skip=false must never skip"
                );
                assert_eq!(a, b, "probe {probe} diverged (opt {opt_level}, {threads}t)");
            }
            assert!(
                skipped_total > 0,
                "clustered workload skipped no tiles (opt {opt_level}, {threads}t)"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill a checkpoint mid-write (after two tile files, before the
/// manifest flips) and verify recovery lands on the *previous* durable
/// state plus the WAL — identical, probe for probe, to an uninterrupted
/// twin. Then verify GC removes the aborted checkpoint's orphans.
#[test]
fn crash_mid_checkpoint_recovers_tile_granular_state() {
    let interrupted_dir = fresh_dir("midckpt-a");
    let twin_dir = fresh_dir("midckpt-b");
    let setup = "CREATE TABLE t (a INT, s TEXT); \
                 CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 0);";
    let mutate = [
        "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')",
        "UPDATE m SET v = x * 3 WHERE x > 1",
        "INSERT INTO m VALUES (0, 42)",
    ];
    let probes = [
        "SELECT a, s FROM t",
        "SELECT x, v FROM m",
        "SELECT SUM(v) FROM m",
    ];
    {
        let mut interrupted = Connection::open(&interrupted_dir).unwrap();
        let mut twin = Connection::open(&twin_dir).unwrap();
        for c in [&mut interrupted, &mut twin] {
            c.execute_script(setup).unwrap();
            c.checkpoint().unwrap();
            for sql in &mutate {
                c.execute(sql).unwrap();
            }
        }
        // Only the interrupted store attempts (and fails) a checkpoint.
        interrupted.set_checkpoint_fault(2);
        assert!(interrupted.checkpoint().is_err(), "injected fault fires");
    } // both crash
    let mut interrupted = Connection::open(&interrupted_dir).unwrap();
    let mut twin = Connection::open(&twin_dir).unwrap();
    for probe in &probes {
        assert_eq!(
            interrupted.query(probe).unwrap().render(),
            twin.query(probe).unwrap().render(),
            "probe {probe} diverged after mid-checkpoint crash"
        );
    }
    // The aborted checkpoint's tile files are orphans until a successful
    // checkpoint garbage-collects them.
    let col_files = |d: &std::path::Path| {
        std::fs::read_dir(d.join("cols"))
            .map(|rd| rd.flatten().count())
            .unwrap_or(0)
    };
    let before = col_files(&interrupted_dir.join("")); // vault root == dir
    interrupted.checkpoint().unwrap();
    let after = col_files(&interrupted_dir.join(""));
    assert!(
        after <= before + 4,
        "orphans were collected ({before} files before, {after} after)"
    );
    // Still fully durable after the recovery + fresh checkpoint.
    drop(interrupted);
    let mut again = Connection::open(&interrupted_dir).unwrap();
    assert_eq!(
        again.query("SELECT SUM(v) FROM m").unwrap().render(),
        twin.query("SELECT SUM(v) FROM m").unwrap().render()
    );
    std::fs::remove_dir_all(&interrupted_dir).ok();
    std::fs::remove_dir_all(&twin_dir).ok();
}

/// `ExecStats::tiles_skipped` surfaces through `LastExec` on the
/// clustered workload (the acceptance criterion's observable).
#[test]
fn tiles_skipped_stat_is_reported() {
    let dir = fresh_dir("stat");
    let mut c = clustered(SessionConfig::default(), 3, &dir);
    c.query("SELECT tag FROM ev WHERE k = 12345").unwrap();
    let skipped = c.last_exec().exec.tiles_skipped;
    assert!(
        skipped >= 2,
        "expected ≥2 of 3 tiles skipped, got {skipped}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A table COPY-loaded only through its WAL tail — never checkpointed —
/// still skips tiles after reopening: replayed appends leave fresh zone
/// maps, as the live COPY does.
#[test]
fn wal_replayed_copy_still_skips_tiles() {
    let dir = fresh_dir("walskip");
    let vault = dir.join("db");
    let file = dir.join("rows.bin");
    let ks: Vec<i32> = (0..(TILE_ROWS * 3) as i32).collect();
    write_copy_binary(&file, &[Bat::from_ints(ks)]).unwrap();
    {
        let mut c = Connection::open(&vault).unwrap();
        c.execute("CREATE TABLE ev (k INT)").unwrap();
        c.execute(&format!(
            "COPY ev FROM '{}' (FORMAT binary)",
            file.display()
        ))
        .unwrap();
    } // no checkpoint: the rows live in the WAL tail only
    let mut c = Connection::open(&vault).unwrap();
    let rs = c.query("SELECT COUNT(*) FROM ev WHERE k = 12345").unwrap();
    assert_eq!(rs.scalar().unwrap(), Value::Lng(1));
    let skipped = c.last_exec().exec.tiles_skipped;
    assert!(
        skipped >= 2,
        "expected ≥2 of 3 tiles skipped, got {skipped}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
