//! Replication acceptance suite: WAL-shipping primary → replica with
//! monotonic reads.
//!
//! The headline differential test pins the **byte-identical twin**
//! contract: after concurrent writers hammer a served primary and the
//! replica catches up, the two vault directories hold the same files
//! with the same bytes (LOCK excluded), across opt levels × thread
//! counts. A second differential interrupts the replica mid-stream,
//! restarts it over the same directory, and requires it to converge to
//! the same bytes as an uninterrupted twin. Bootstrap (primary
//! checkpointed past the replica's generation → chunked snapshot
//! transfer), monotonic-read tokens and the `ReplicaLagging` refusal
//! round out the contract.

use sciql_repro::driver::{Sciql, SciqlError};
use sciql_repro::gdk::Value;
use sciql_repro::net::Server;
use sciql_repro::repl::Replica;
use sciql_repro::sciql::{Connection, ErrorCode, SessionConfig, SharedEngine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sciql-repl-suite-{}-{}", tag, std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Every file under `dir` (relative path → bytes), excluding the
/// process-scoped `LOCK` and any bootstrap staging leftovers.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let entry = entry.unwrap();
            let name = entry.file_name();
            if name == "LOCK" || name == ".repl-incoming" {
                continue;
            }
            let p = entry.path();
            if p.is_dir() {
                walk(root, &p, out);
            } else {
                let rel = p.strip_prefix(root).unwrap().to_string_lossy().into_owned();
                out.insert(rel, std::fs::read(&p).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Assert two vault directories are byte-identical twins, with a
/// file-level diff in the failure message instead of a byte dump.
fn assert_twin_vaults(a: &Path, b: &Path, context: &str) {
    let (fa, fb) = (dir_bytes(a), dir_bytes(b));
    let names_a: Vec<&String> = fa.keys().collect();
    let names_b: Vec<&String> = fb.keys().collect();
    assert_eq!(names_a, names_b, "{context}: file sets differ");
    for (name, bytes) in &fa {
        let other = &fb[name];
        assert!(
            bytes == other,
            "{context}: {name} differs ({} vs {} bytes)",
            bytes.len(),
            other.len()
        );
    }
}

/// Block on the replica's watermark until its applied position reaches
/// the primary's durable one (or fail loudly after a generous deadline).
fn wait_caught_up(primary: &Arc<SharedEngine>, replica: &Replica, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let applied = replica.engine().watermark();
    loop {
        let seen = applied.mark();
        let durable = primary.durable_position();
        if seen.position() == durable {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{context}: replica stuck at {:?}, primary durable {durable:?}",
            seen.position()
        );
        applied.wait_past(seen, deadline);
    }
}

/// Full result encoding of a SELECT on an engine — the byte-level
/// yardstick for read equivalence.
fn select_bytes(engine: &Arc<SharedEngine>, sql: &str) -> Vec<u8> {
    let rs = engine.session().query(sql).unwrap();
    let mut bytes = rs.encode_header();
    for page in rs.encode_pages(64) {
        bytes.extend_from_slice(&page);
    }
    bytes
}

/// The headline differential: N concurrent writers over tcp against a
/// durable primary, a replica tailing the WAL live. Once caught up, the
/// replica answers reads byte-identically — and once both sides are
/// shut down, the two data directories are byte-identical twins. Runs
/// over opt levels × thread counts like the other acceptance suites.
#[test]
fn replica_vault_byte_identical_under_concurrent_writes() {
    for opt_level in [0u8, 2] {
        for threads in [1usize, 8] {
            let tag = format!("diff-o{opt_level}-t{threads}");
            let primary_dir = fresh_dir(&format!("{tag}-primary"));
            let replica_dir = fresh_dir(&format!("{tag}-replica"));
            let cfg = SessionConfig {
                threads,
                opt_level,
                ..SessionConfig::default()
            };
            let engine = SharedEngine::open_with_config(&primary_dir, cfg).unwrap();
            let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
                .unwrap()
                .serve()
                .unwrap();
            let url = format!("tcp://{}", handle.addr());
            let mut admin = Sciql::connect(&url).unwrap();
            admin
                .execute("CREATE TABLE log (writer INT, seq INT, note VARCHAR)")
                .unwrap();
            let replica = Replica::connect(&replica_dir, &handle.addr().to_string()).unwrap();

            // 4 writers × 24 acked inserts each, racing the shipper.
            std::thread::scope(|scope| {
                for w in 0..4 {
                    let url = url.clone();
                    scope.spawn(move || {
                        let mut conn = Sciql::connect(&url).unwrap();
                        for seq in 0..24 {
                            conn.execute(&format!(
                                "INSERT INTO log VALUES ({w}, {seq}, 'w{w}s{seq}')"
                            ))
                            .unwrap();
                        }
                        conn.close().unwrap();
                    });
                }
            });
            wait_caught_up(&engine, &replica, &tag);

            // Read equivalence while both are live.
            for sql in [
                "SELECT COUNT(*) FROM log",
                "SELECT writer, seq, note FROM log ORDER BY writer, seq",
                "SELECT writer, SUM(seq) FROM log GROUP BY writer ORDER BY writer",
            ] {
                assert_eq!(
                    select_bytes(&engine, sql),
                    select_bytes(replica.engine(), sql),
                    "{tag}: {sql}"
                );
            }
            // Gap-free: every acked (writer, seq) pair is present once.
            let rs = replica
                .engine()
                .session()
                .query("SELECT COUNT(*) FROM log")
                .unwrap();
            assert_eq!(rs.row(0), vec![Value::Lng(4 * 24)], "{tag}");

            replica.stop();
            admin.shutdown_server().unwrap();
            drop(admin);
            let engine = {
                drop(engine);
                handle.wait()
            };
            drop(engine);
            assert_twin_vaults(&primary_dir, &replica_dir, &tag);
            std::fs::remove_dir_all(&primary_dir).ok();
            std::fs::remove_dir_all(&replica_dir).ok();
        }
    }
}

/// Crash-resume: a replica interrupted mid-stream restarts over the
/// same directory, resumes from whatever its disk durably applied, and
/// converges to the same bytes as a twin that was never interrupted.
#[test]
fn interrupted_replica_matches_uninterrupted_twin() {
    let primary_dir = fresh_dir("crash-primary");
    let twin_dir = fresh_dir("crash-twin");
    let victim_dir = fresh_dir("crash-victim");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr().to_string();
    let mut conn = Sciql::connect(&format!("tcp://{addr}")).unwrap();
    conn.execute("CREATE TABLE t (k INT, v VARCHAR)").unwrap();

    let twin = Replica::connect(&twin_dir, &addr).unwrap();
    let victim = Replica::connect(&victim_dir, &addr).unwrap();
    for k in 0..40 {
        conn.execute(&format!("INSERT INTO t VALUES ({k}, 'pre-{k}')"))
            .unwrap();
    }
    wait_caught_up(&engine, &victim, "victim pre-interrupt");
    // Interrupt the victim mid-deployment; keep writing while it's down.
    victim.stop();
    for k in 40..80 {
        conn.execute(&format!("INSERT INTO t VALUES ({k}, 'mid-{k}')"))
            .unwrap();
    }
    // Restart over the same directory: it recovers its own WAL, hellos
    // with the recovered position, and catches up record-by-record.
    let victim = Replica::connect(&victim_dir, &addr).unwrap();
    for k in 80..100 {
        conn.execute(&format!("INSERT INTO t VALUES ({k}, 'post-{k}')"))
            .unwrap();
    }
    wait_caught_up(&engine, &victim, "victim post-restart");
    wait_caught_up(&engine, &twin, "twin");

    let rs = victim
        .engine()
        .session()
        .query("SELECT COUNT(*) FROM t")
        .unwrap();
    assert_eq!(rs.row(0), vec![Value::Lng(100)]);

    victim.stop();
    twin.stop();
    conn.shutdown_server().unwrap();
    drop(conn);
    drop(engine);
    drop(handle.wait());
    assert_twin_vaults(&victim_dir, &twin_dir, "victim vs twin");
    assert_twin_vaults(&primary_dir, &victim_dir, "primary vs victim");
    for d in [&primary_dir, &twin_dir, &victim_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// Bootstrap: a replica that disconnects, misses a primary checkpoint
/// (which rotates the WAL generation and garbage-collects the one the
/// replica was tailing), and reconnects is re-seeded with a chunked
/// snapshot transfer — and ends byte-identical anyway.
#[test]
fn replica_bootstraps_across_primary_checkpoint() {
    let primary_dir = fresh_dir("boot-primary");
    let replica_dir = fresh_dir("boot-replica");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr().to_string();
    let mut conn = Sciql::connect(&format!("tcp://{addr}")).unwrap();
    conn.execute("CREATE ARRAY grid (x INT DIMENSION[0:1:8], v INT DEFAULT 0)")
        .unwrap();
    conn.execute("UPDATE grid SET v = x * x").unwrap();

    let replica = Replica::connect(&replica_dir, &addr).unwrap();
    wait_caught_up(&engine, &replica, "pre-checkpoint");
    replica.stop();

    // The replica's generation disappears while it is away.
    conn.execute("UPDATE grid SET v = v + 1").unwrap();
    engine.checkpoint().unwrap();
    conn.execute("CREATE TABLE after (n INT)").unwrap();
    conn.execute("INSERT INTO after VALUES (42)").unwrap();

    let replica = Replica::connect(&replica_dir, &addr).unwrap();
    wait_caught_up(&engine, &replica, "post-bootstrap");
    assert_eq!(
        select_bytes(&engine, "SELECT x, v FROM grid"),
        select_bytes(replica.engine(), "SELECT x, v FROM grid"),
    );
    let rs = replica
        .engine()
        .session()
        .query("SELECT n FROM after")
        .unwrap();
    assert_eq!(rs.row(0), vec![Value::Int(42)]);

    replica.stop();
    conn.shutdown_server().unwrap();
    drop(conn);
    drop(engine);
    drop(handle.wait());
    assert_twin_vaults(&primary_dir, &replica_dir, "post-bootstrap twin");
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// Monotonic reads through the routed driver: every read that follows a
/// write on the same connection observes that write, even though the
/// read is served by a replica racing the WAL stream. Also pins the
/// `sys.replication` view having live rows for both link ends.
#[test]
fn routed_driver_reads_own_writes_via_replica() {
    let primary_dir = fresh_dir("mono-primary");
    let replica_dir = fresh_dir("mono-replica");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let phandle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let paddr = phandle.addr().to_string();
    let replica = Replica::connect(&replica_dir, &paddr).unwrap();
    let rhandle = Server::bind(Arc::clone(replica.engine()), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut conn = Sciql::connect(&format!("tcp://{paddr},{}", rhandle.addr())).unwrap();
    assert_eq!(conn.transport_kind(), "tcp-routed");
    conn.execute("CREATE TABLE counter (n INT)").unwrap();
    for i in 0..25i64 {
        conn.execute(&format!("INSERT INTO counter VALUES ({i})"))
            .unwrap();
        // Served by the replica; the write token forces it fresh.
        let mut rows = conn.query("SELECT COUNT(*) FROM counter").unwrap();
        assert_eq!(
            rows.next_row().unwrap().get::<i64>(0).unwrap(),
            i + 1,
            "read after write {i} observed a stale count"
        );
    }
    // An all-read batch fans out over every endpoint and keeps slots.
    let sqls = vec!["SELECT COUNT(*) FROM counter"; 6];
    for outcome in conn.run_batch(&sqls).unwrap() {
        let sciql_repro::driver::Outcome::Rows(rs) = outcome.unwrap() else {
            panic!("expected rows");
        };
        assert_eq!(rs.row(0), vec![Value::Lng(25)]);
    }
    // Both link ends publish into sys.replication (one registry in
    // this process, so both rows are visible from either engine).
    let rs = replica
        .engine()
        .session()
        .query("SELECT role, peer, lag_bytes FROM sys.replication ORDER BY role")
        .unwrap();
    let roles: Vec<Value> = (0..rs.row_count()).map(|i| rs.row(i)[0].clone()).collect();
    assert!(roles.contains(&Value::Str("primary".into())), "{roles:?}");
    assert!(roles.contains(&Value::Str("replica".into())), "{roles:?}");
    // The shipping counters moved.
    let text = sciql_repro::obs::global().snapshot().to_prometheus_text();
    assert!(text.contains("repl_records_shipped"), "{text}");
    assert!(text.contains("repl_records_applied"), "{text}");

    conn.close().unwrap();
    replica.stop();
    for addr in [paddr, rhandle.addr().to_string()] {
        let mut admin = Sciql::connect(&format!("tcp://{addr}")).unwrap();
        admin.shutdown_server().unwrap();
        drop(admin);
    }
    drop(phandle.wait());
    drop(rhandle.wait());
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// A routed connection reports the statement its last answer came from:
/// after a SELECT served by the replica, the trace and the execution
/// report are that SELECT's, not the primary's previous write's.
#[test]
fn routed_report_and_trace_come_from_the_answering_endpoint() {
    let primary_dir = fresh_dir("answered-primary");
    let replica_dir = fresh_dir("answered-replica");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let phandle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let paddr = phandle.addr().to_string();
    let replica = Replica::connect(&replica_dir, &paddr).unwrap();
    let rhandle = Server::bind(Arc::clone(replica.engine()), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut conn = Sciql::connect(&format!("tcp://{paddr},{}", rhandle.addr())).unwrap();
    conn.execute("CREATE TABLE answered (n INT)").unwrap();
    conn.execute("INSERT INTO answered VALUES (1), (2), (3)")
        .unwrap();
    conn.set_tracing(true).unwrap();

    const SQL: &str = "SELECT COUNT(*) FROM answered";
    let mut rows = conn.query(SQL).unwrap();
    assert_eq!(rows.next_row().unwrap().get::<i64>(0).unwrap(), 3);
    let trace = conn.last_trace_text().unwrap().expect("tracing is on");
    assert!(trace.starts_with("trace: SELECT"), "{trace}");
    let mut direct = Sciql::attach(replica.engine());
    direct.query(SQL).unwrap();
    assert_eq!(conn.last_report().unwrap(), direct.last_report().unwrap());

    // A fanned-out read batch reports from the endpoint of its last slot.
    conn.run_batch(&[SQL; 3]).unwrap();
    let trace = conn.last_trace_text().unwrap().expect("tracing is on");
    assert!(trace.starts_with("trace: SELECT"), "{trace}");

    conn.close().unwrap();
    replica.stop();
    drop(rhandle.stop());
    drop(phandle.stop());
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// Shipping is driven by the durable watermark, not by a poll, so a
/// routed read that follows its write is served by the replica without
/// ever running out the `ReplicaLagging` bound — 200 times in a row.
#[test]
fn routed_reads_after_writes_never_lag() {
    let primary_dir = fresh_dir("nolag-primary");
    let replica_dir = fresh_dir("nolag-replica");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let phandle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let paddr = phandle.addr().to_string();
    let replica = Replica::connect(&replica_dir, &paddr).unwrap();
    let rhandle = Server::bind(Arc::clone(replica.engine()), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut conn = Sciql::connect(&format!("tcp://{paddr},{}", rhandle.addr())).unwrap();
    conn.execute("CREATE TABLE seq (n INT)").unwrap();
    for i in 0..200i64 {
        conn.execute(&format!("INSERT INTO seq VALUES ({i})"))
            .unwrap();
        let mut rows = conn
            .query("SELECT COUNT(*) FROM seq")
            .unwrap_or_else(|e| panic!("read after write {i}: {e}"));
        assert_eq!(rows.next_row().unwrap().get::<i64>(0).unwrap(), i + 1);
    }
    conn.close().unwrap();
    replica.stop();
    rhandle.stop();
    phandle.stop();
    drop(engine);
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// The tailer blocks in `read` on an idle link; `Replica::stop` wakes it
/// by shutting the socket down, so stopping takes well under a second.
#[test]
fn replica_stop_on_an_idle_link_is_prompt() {
    let primary_dir = fresh_dir("idle-primary");
    let replica_dir = fresh_dir("idle-replica");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let replica = Replica::connect(&replica_dir, &handle.addr().to_string()).unwrap();
    wait_caught_up(&engine, &replica, "idle link");
    let t0 = Instant::now();
    replica.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "Replica::stop took {took:?}");
    handle.stop();
    drop(engine);
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// A replica that cannot catch up answers token-carrying reads with the
/// typed `ReplicaLagging` (1107) refusal instead of stale data.
#[test]
fn stalled_replica_refuses_with_replica_lagging() {
    let primary_dir = fresh_dir("lag-primary");
    let stalled_dir = fresh_dir("lag-stalled");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let phandle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    // A replica engine with no tailer: it will never apply anything.
    let stalled = SharedEngine::open_replica(&stalled_dir).unwrap();
    let shandle = Server::bind(Arc::clone(&stalled), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut conn = Sciql::connect(&format!("tcp://{},{}", phandle.addr(), shandle.addr())).unwrap();
    conn.execute("CREATE TABLE t (x INT)").unwrap();
    conn.execute("INSERT INTO t VALUES (1)").unwrap();
    match conn.query("SELECT COUNT(*) FROM t") {
        Err(e @ SciqlError::ReplicaLagging(_)) => {
            assert_eq!(e.code(), ErrorCode::ReplicaLagging);
        }
        other => panic!("expected ReplicaLagging, got {other:?}"),
    }
    conn.close().ok();
    let mut admin = Sciql::connect(&format!("tcp://{}", phandle.addr())).unwrap();
    admin.shutdown_server().unwrap();
    drop(admin);
    let mut admin = Sciql::connect(&format!("tcp://{}", shandle.addr())).unwrap();
    admin.shutdown_server().unwrap();
    drop(admin);
    drop(phandle.wait());
    drop(shandle.wait());
    drop(engine);
    drop(stalled);
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&stalled_dir).ok();
}

/// Clean shutdown releases the replica vault's `LOCK` even while other
/// `Arc` handles to its engine are still alive, so the directory can be
/// reopened immediately — by this process or the next.
#[test]
fn replica_stop_releases_vault_lock() {
    let primary_dir = fresh_dir("lock-primary");
    let replica_dir = fresh_dir("lock-replica");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr().to_string();
    let mut conn = Sciql::connect(&format!("tcp://{addr}")).unwrap();
    conn.execute("CREATE TABLE t (x INT)").unwrap();
    conn.execute("INSERT INTO t VALUES (7)").unwrap();

    let replica = Replica::connect(&replica_dir, &addr).unwrap();
    wait_caught_up(&engine, &replica, "lock test");
    // A lingering engine handle (a dashboard, a metrics endpoint…)
    // must not pin the LOCK past stop().
    let lingering = Arc::clone(replica.engine());
    assert!(replica_dir.join("LOCK").exists());
    replica.stop();
    assert!(
        !replica_dir.join("LOCK").exists(),
        "stop() must release the vault LOCK"
    );
    drop(lingering);
    // The directory reopens at its durable position, no primary needed.
    let reopened = SharedEngine::open_replica(&replica_dir).unwrap();
    let rs = reopened.session().query("SELECT x FROM t").unwrap();
    assert_eq!(rs.row(0), vec![Value::Int(7)]);
    drop(reopened);

    conn.shutdown_server().unwrap();
    drop(conn);
    drop(engine);
    drop(handle.wait());
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// Cell statements that only run WHERE-first, each with its affected
/// count: SET expressions that overflow on rows the WHERE excludes,
/// fractional bounds on integer columns, and dimension predicates on an
/// array whose dimensions start off zero and step backwards
/// (x: 5, 3, 1, -1, -3; y: -3 … 1).
const WHERE_FIRST_SCRIPT: &[(&str, u64)] = &[
    ("UPDATE g SET v = 2147483647 + y WHERE y = 0", 5),
    ("UPDATE g SET v = x * 1000000000 WHERE x = 1", 5),
    ("UPDATE t SET a = a * 1000000000 WHERE a = 1", 1),
    ("UPDATE g SET v = v + 1 WHERE x > 2.5 AND y <= -1.5", 4),
    ("UPDATE g SET v = -v WHERE x < 0 AND y BETWEEN -2 AND 1", 8),
    ("DELETE FROM g WHERE x = -3 AND y = 1", 1),
    ("DELETE FROM t WHERE a = 2.5", 0),
    ("DELETE FROM t WHERE a < 4.5", 1),
    ("UPDATE g SET v = 7 WHERE x <> 3 AND y = -3", 4),
    ("UPDATE g SET v = 2147483647 + x WHERE x = 0", 0),
];

/// The WHERE-first statements replay like any other: the WAL written on
/// a primary (with a checkpoint midway) recovers to what an
/// uninterrupted twin holds, and a replica applying the shipped records
/// ends with a byte-identical vault.
#[test]
fn where_first_cell_statements_replay_byte_identically() {
    let primary_dir = fresh_dir("wf-primary");
    let replica_dir = fresh_dir("wf-replica");
    let twin_dir = fresh_dir("wf-twin");
    let setup = [
        "CREATE ARRAY g (x INT DIMENSION[5:-2:-5], y INT DIMENSION[-3:1:2], v INT DEFAULT 0)",
        "CREATE TABLE t (a INT)",
        "INSERT INTO t VALUES (1), (3), (5)",
    ];
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let twin = SharedEngine::open(&twin_dir).unwrap();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr().to_string();
    let mut conn = Sciql::connect(&format!("tcp://{addr}")).unwrap();
    let replica = Replica::connect(&replica_dir, &addr).unwrap();
    for sql in setup {
        conn.execute(sql).unwrap();
        twin.session().execute(sql).unwrap();
    }
    for (i, &(sql, affected)) in WHERE_FIRST_SCRIPT.iter().enumerate() {
        assert_eq!(conn.execute(sql).unwrap(), affected, "{sql}");
        twin.session().execute(sql).unwrap();
        if i == WHERE_FIRST_SCRIPT.len() / 2 {
            engine.checkpoint().unwrap();
        }
    }
    wait_caught_up(&engine, &replica, "where-first");
    let reads = ["SELECT [x], [y], v FROM g", "SELECT a FROM t"];
    for sql in reads {
        assert_eq!(
            select_bytes(&engine, sql),
            select_bytes(replica.engine(), sql),
            "replica: {sql}"
        );
    }
    replica.stop();
    conn.shutdown_server().unwrap();
    drop(conn);
    drop(engine);
    drop(handle.wait());
    assert_twin_vaults(&primary_dir, &replica_dir, "where-first replica");
    // Recovery replays the WAL tail past the checkpoint.
    let reopened = SharedEngine::open(&primary_dir).unwrap();
    for sql in reads {
        assert_eq!(
            select_bytes(&reopened, sql),
            select_bytes(&twin, sql),
            "reopened vs twin: {sql}"
        );
    }
    let v = reopened
        .session()
        .query("SELECT v FROM g WHERE x = -1 AND y = 0")
        .unwrap();
    assert_eq!(v.row(0), vec![Value::Int(-2147483647)]);
    drop(reopened);
    drop(twin);
    for d in [&primary_dir, &replica_dir, &twin_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

/// Prepared writes of ±inf and NaN over tcp reach the replica bit for
/// bit: the WAL carries the stored doubles, not printed text. NaN is the
/// dbl nil, so every endpoint holds what a memory connection holds, and
/// the two vaults end byte-identical.
#[test]
fn non_finite_doubles_replicate_bit_for_bit() {
    let primary_dir = fresh_dir("inf-primary");
    let replica_dir = fresh_dir("inf-replica");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr().to_string();
    let replica = Replica::connect(&replica_dir, &addr).unwrap();
    let mut conn = Sciql::connect(&format!("tcp://{addr}")).unwrap();
    let mut mem = Sciql::connect("mem:").unwrap();
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    for c in [&mut conn, &mut mem] {
        c.execute("CREATE TABLE q (k INT, d DOUBLE)").unwrap();
        c.execute("CREATE ARRAY g (x INT DIMENSION[0:1:4], v DOUBLE DEFAULT 1.5)")
            .unwrap();
        let ins = c.prepare("INSERT INTO q VALUES (?, ?)").unwrap();
        let upd = c.prepare("UPDATE g SET v = ? WHERE x = ?").unwrap();
        for (k, d) in [(0, inf), (1, -inf), (2, nan), (3, 2.5)] {
            c.execute_bound(&ins, sciql_repro::params![k, d]).unwrap();
            c.execute_bound(&upd, sciql_repro::params![d, k]).unwrap();
        }
        let flip = c.prepare("UPDATE q SET d = ? WHERE k = ?").unwrap();
        c.execute_bound(&flip, sciql_repro::params![-inf, 3])
            .unwrap();
    }
    wait_caught_up(&engine, &replica, "non-finite");
    let bits = |conn: &Connection| -> Vec<u64> {
        let d = &conn.table_store("q").unwrap().cols[1];
        let v = &conn.array_store("g").unwrap().attrs[0];
        let cells = d.as_dbls().unwrap().iter().chain(v.as_dbls().unwrap());
        cells.map(|f| f.to_bits()).collect()
    };
    let want = bits(mem.embedded_connection().unwrap());
    let (inf, neg) = (inf.to_bits(), (-inf).to_bits());
    assert_eq!(
        [want[0], want[1], want[3], want[4], want[5]],
        [inf, neg, neg, inf, neg]
    );
    assert_eq!(bits(&engine.connection()), want, "primary");
    assert_eq!(bits(&replica.engine().connection()), want, "replica");
    replica.stop();
    conn.shutdown_server().unwrap();
    drop(conn);
    drop(engine);
    drop(handle.wait());
    assert_twin_vaults(&primary_dir, &replica_dir, "non-finite replica");
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// A bulk load on a primary reaches its replica as shipped WAL records:
/// the primary does not checkpoint, so the replica's generation stays
/// put (no snapshot re-bootstrap), the two answer alike, and the two
/// vaults end byte-identical.
#[test]
fn a_bulk_load_ships_as_records() {
    use sciql_repro::imaging::{image::GreyImage, vault::load_image};
    let primary_dir = fresh_dir("bulk-primary");
    let replica_dir = fresh_dir("bulk-replica");
    let engine = SharedEngine::open(&primary_dir).unwrap();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr().to_string();
    let mut conn = Sciql::connect(&format!("tcp://{addr}")).unwrap();
    let replica = Replica::connect(&replica_dir, &addr).unwrap();
    wait_caught_up(&engine, &replica, "before the load");
    let generation = |e: &Arc<SharedEngine>| e.connection().wal_applied().0;
    let (primary_gen, replica_gen) = (generation(&engine), generation(replica.engine()));
    let img = GreyImage::from_fn(160, 128, |x, y| (x * 3 + y) as i32);
    load_image(&mut engine.connection(), "img", &img).unwrap();
    wait_caught_up(&engine, &replica, "after the load");
    assert_eq!(generation(&engine), primary_gen, "the primary checkpointed");
    assert_eq!(
        generation(replica.engine()),
        replica_gen,
        "the replica re-bootstrapped"
    );
    let sum = "SELECT SUM(v) FROM img";
    assert_eq!(
        select_bytes(&engine, sum),
        select_bytes(replica.engine(), sum)
    );
    let rs = replica.engine().session().query(sum).unwrap();
    let want: i64 = img.pixels.iter().map(|&p| i64::from(p)).sum();
    assert_eq!(rs.row(0), vec![Value::Lng(want)]);
    replica.stop();
    conn.shutdown_server().unwrap();
    drop(conn);
    drop(engine);
    drop(handle.wait());
    assert_twin_vaults(&primary_dir, &replica_dir, "bulk-load replica");
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}
