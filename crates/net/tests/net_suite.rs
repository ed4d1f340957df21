//! End-to-end suite for the network layer: handshake and statement
//! round trips, concurrent clients over one shared vault, torn-read
//! detection, graceful shutdown, and the acceptance criterion — network
//! results byte-identical to embedded results, across server restart and
//! crash recovery under ≥ 4 concurrent clients.

use sciql::{Connection, ResultSet, SharedEngine};
use sciql_net::{Client, NetError, NetReply, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn tmp_dir(name: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "sciql-net-{}-{}-{name}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// The full wire encoding of a result — the "byte-identical" yardstick.
fn wire_bytes(rs: &ResultSet) -> Vec<u8> {
    let mut out = rs.encode_header();
    for page in rs.encode_pages(1024) {
        out.extend_from_slice(&page);
    }
    out
}

#[test]
fn statement_roundtrips() {
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.session_id() > 0);
    assert!(c.server_name().starts_with("sciql-net/"));
    c.ping().unwrap();
    // DDL + DML round trips with affected counts.
    assert_eq!(
        c.execute(
            "CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)"
        )
        .unwrap()
        .affected()
        .unwrap(),
        16
    );
    c.execute("UPDATE m SET v = x + y").unwrap();
    // Multi-page SELECT (page size 3 forces paging).
    let rs = c.query("SELECT x, y, v FROM m").unwrap();
    assert_eq!(rs.row_count(), 16);
    assert_eq!(rs.column_count(), 3);
    // A statement error leaves the session usable.
    match c.execute("SELECT nonsense FROM nowhere") {
        Err(NetError::Server { code, message }) => {
            assert!(!message.is_empty());
            assert_eq!(code, sciql::ErrorCode::Catalog, "unknown table");
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    let n = c.query("SELECT COUNT(*) FROM m").unwrap();
    assert_eq!(n.scalar_i64(), Some(16));
    // Prepared texts are session-scoped.
    c.prepare("q", "SELECT COUNT(*) FROM m WHERE v > 3")
        .unwrap();
    let rs = c.execute_bound("q", &[]).unwrap().rows().unwrap();
    assert_eq!(rs.row_count(), 1);
    let mut other = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        other.execute_bound("q", &[]),
        Err(NetError::Server { .. })
    ));
    other.close().unwrap();
    c.shutdown_server().unwrap();
    handle.wait();
}

/// Every statement answer carries the session's execution report and,
/// while the client traces, the statement's span tree.
#[test]
fn trailers_report_last_execution() {
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    // Before any statement: an all-zero report and no trace.
    assert_eq!(c.last_report().instructions, 0);
    assert_eq!(c.last_trace(), None);
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 0)")
        .unwrap();
    c.execute("UPDATE m SET v = x + y").unwrap();
    c.set_tracing(true);
    c.query("SELECT SUM(v) FROM m WHERE x > 2").unwrap();
    let stats = c.last_report();
    assert!(stats.instructions > 0);
    assert!(
        stats.instrs_after_opt < stats.instrs_before_opt,
        "{stats:?}"
    );
    assert!(stats.fused >= 2, "candprop + selectagg fused: {stats:?}");
    assert!(stats.intermediates_avoided >= 2, "{stats:?}");
    assert!(stats.bytes_not_materialized > 0, "{stats:?}");
    let trace = c.last_trace().expect("tracing is on");
    assert!(trace.starts_with("trace: SELECT"), "{trace}");
    // Switching tracing off drops the trace, as an embedded session does.
    c.set_tracing(false);
    assert_eq!(c.last_trace(), None);
    c.query("SELECT COUNT(*) FROM m").unwrap();
    assert_eq!(c.last_trace(), None);
    // The report is per-session: a fresh client starts at zero again.
    let mut c2 = Client::connect(handle.addr()).unwrap();
    c2.ping().unwrap();
    assert_eq!(c2.last_report().instructions, 0);
    c.close().unwrap();
    c2.close().unwrap();
    handle.stop();
}

/// The tracing request rides on the statement's own frame and the
/// report and trace on its answer: reading them afterwards needs no
/// further frame, so they still answer once the server has hung up.
#[test]
fn report_and_trace_cost_no_round_trip() {
    use sciql_net::proto::{self, Op};
    use std::net::TcpListener;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let trailer = proto::Trailer {
        report: sciql_net::ExecReport {
            instructions: 7,
            ..Default::default()
        },
        trace: Some("trace: SELECT 1".into()),
    };
    let sent = trailer.clone();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _hello = proto::read_frame(&mut s).unwrap().unwrap();
        proto::write_frame(&mut s, &proto::hello_ok("fake", 1)).unwrap();
        let query = proto::read_frame(&mut s).unwrap().unwrap();
        let (op, body) = proto::split(&query).unwrap();
        assert_eq!(op, Op::Query);
        assert!(proto::read_query(body).unwrap().0, "tracing bit set");
        proto::write_frame(&mut s, &proto::affected(0, (0, 0), &sent)).unwrap();
        // Hang up: any further request would fail.
    });
    let mut c = Client::connect(addr).unwrap();
    c.set_tracing(true);
    assert!(matches!(c.execute("SELECT 1"), Ok(NetReply::Affected(0))));
    fake.join().unwrap();
    assert_eq!(c.last_report(), trailer.report);
    assert_eq!(c.last_trace(), trailer.trace.as_deref());
    assert!(c.ping().is_err(), "the server is gone");
}

#[test]
fn paged_results_reassemble() {
    let engine = SharedEngine::in_memory();
    {
        let mut s = engine.session();
        s.execute(
            "CREATE ARRAY big (x INT DIMENSION[0:1:32], y INT DIMENSION[0:1:32], v INT DEFAULT 0)",
        )
        .unwrap();
        s.execute("UPDATE big SET v = x * y").unwrap();
    }
    let cfg = ServerConfig {
        page_rows: 7, // deliberately tiny and non-divisor of 1024
        ..ServerConfig::default()
    };
    let handle = Server::bind_with_config(engine.clone(), "127.0.0.1:0", cfg)
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let over_wire = c.query("SELECT x, y, v FROM big").unwrap();
    let (embedded, _) = {
        let mut s = engine.session();
        (s.query("SELECT x, y, v FROM big").unwrap(), ())
    };
    assert_eq!(over_wire.row_count(), 1024);
    assert_eq!(wire_bytes(&over_wire), wire_bytes(&embedded));
    c.shutdown_server().unwrap();
    handle.wait();
}

/// N clients hammering one durable server with mixed SELECT/UPDATE:
/// every read must be a consistent point-in-time image (whole-array
/// constant updates ⇒ a torn read would surface as two different
/// constants in one result).
#[test]
fn concurrent_clients_serializable_no_torn_reads() {
    let dir = tmp_dir("hammer");
    let engine = SharedEngine::open(&dir).unwrap();
    {
        let mut s = engine.session();
        s.execute(
            "CREATE ARRAY grid (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 0)",
        )
        .unwrap();
        s.execute("CREATE TABLE hits (who INT, k INT)").unwrap();
    }
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr();
    let writers = 2usize;
    let readers = 4usize;
    let rounds = 15i64;
    let mut threads = Vec::new();
    for w in 0..writers {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect_named(addr, &format!("writer-{w}")).unwrap();
            for k in 0..rounds {
                // Whole-array constant write: the torn-read canary.
                c.execute(&format!("UPDATE grid SET v = {k}")).unwrap();
                c.execute(&format!("INSERT INTO hits VALUES ({w}, {k})"))
                    .unwrap()
                    .affected()
                    .unwrap();
            }
            c.close().unwrap();
        }));
    }
    for r in 0..readers {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect_named(addr, &format!("reader-{r}")).unwrap();
            let mut last_count = 0i64;
            for _ in 0..rounds {
                let rs = c.query("SELECT x, y, v FROM grid").unwrap();
                let vals: Vec<_> = (0..rs.row_count()).map(|i| rs.get(i, 2)).collect();
                assert!(
                    vals.windows(2).all(|w| w[0] == w[1]),
                    "torn read across a whole-array update: {vals:?}"
                );
                // Per-statement serializability: committed row counts
                // never move backwards between two of our statements.
                let n = c
                    .query("SELECT COUNT(*) FROM hits")
                    .unwrap()
                    .scalar_i64()
                    .unwrap();
                assert!(n >= last_count, "count went backwards: {n} < {last_count}");
                last_count = n;
            }
            c.close().unwrap();
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    // All acknowledged writes are visible once the dust settles.
    let mut c = Client::connect(addr).unwrap();
    let n = c
        .query("SELECT COUNT(*) FROM hits")
        .unwrap()
        .scalar_i64()
        .unwrap();
    assert_eq!(n, writers as i64 * rounds);
    c.shutdown_server().unwrap();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance criterion: a query through `sciql_net::Client` against
/// a served vault returns byte-identical results to the same query on an
/// embedded `Connection` — including after a server restart and after
/// crash recovery (no checkpoint, WAL-tail replay), with ≥ 4 concurrent
/// clients having produced the state.
#[test]
fn network_results_byte_identical_to_embedded_across_recovery() {
    let dir = tmp_dir("accept");
    const PROBE: &str =
        "SELECT x, y, v, COUNT(*) FROM cells WHERE v >= 0 GROUP BY x, y, v ORDER BY x, y, v";

    // Phase 1: 4 concurrent clients build the state over the network.
    let engine = SharedEngine::open(&dir).unwrap();
    {
        let mut s = engine.session();
        s.execute(
            "CREATE ARRAY cells (x INT DIMENSION[0:1:6], y INT DIMENSION[0:1:6], v INT DEFAULT 0)",
        )
        .unwrap();
    }
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr();
    let mut threads = Vec::new();
    for t in 0..4i64 {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            // Disjoint row bands per client → a deterministic final state.
            c.execute(&format!("UPDATE cells SET v = {} WHERE x = {t}", t * 10))
                .unwrap();
            c.query("SELECT COUNT(*) FROM cells").unwrap();
            c.close().unwrap();
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    let served_before = c.query(PROBE).unwrap();
    c.shutdown_server().unwrap();
    let engine = handle.wait();
    drop(engine); // releases the vault lock, nothing checkpointed: WAL replay ahead

    // Phase 2: embedded reopen (crash recovery) must agree byte for byte.
    let mut embedded = Connection::open(&dir).unwrap();
    let embedded_rs = embedded.query(PROBE).unwrap();
    assert_eq!(
        wire_bytes(&served_before),
        wire_bytes(&embedded_rs),
        "served vs embedded-after-recovery"
    );
    drop(embedded);

    // Phase 3: restart the server on the recovered vault; 4 concurrent
    // clients must all see the identical bytes again.
    let handle = Server::bind(SharedEngine::open(&dir).unwrap(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr();
    let expect = wire_bytes(&embedded_rs);
    let mut threads = Vec::new();
    for _ in 0..4 {
        let expect = expect.clone();
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let rs = c.query(PROBE).unwrap();
            assert_eq!(wire_bytes(&rs), expect, "served-after-restart");
            c.close().unwrap();
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    Client::connect(addr).unwrap().shutdown_server().unwrap();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn graceful_shutdown_notifies_idle_sessions() {
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut idle = Client::connect(handle.addr()).unwrap();
    idle.ping().unwrap();
    assert_eq!(handle.active_sessions(), 1);
    handle.shutdown();
    let engine = handle.wait();
    assert_eq!(engine.stats().sessions_opened, 1);
    // The idle session was told: its next statement fails cleanly
    // (either the farewell Error frame or a dead socket).
    assert!(idle.execute("SELECT 1 + 1").is_err());
}

#[test]
fn idle_timeout_reaps_silent_sessions() {
    let cfg = ServerConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    };
    let handle = Server::bind_with_config(SharedEngine::in_memory(), "127.0.0.1:0", cfg)
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.ping().unwrap();
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(handle.active_sessions(), 0, "idle session reaped");
    assert!(c.ping().is_err(), "socket was closed by the server");
    handle.stop();
}

#[test]
fn handshake_is_mandatory_and_versioned() {
    use sciql_net::proto::{self, Op};
    use std::io::Write as _;
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    // Skipping Hello gets an Error and a hangup.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    proto::write_frame(&mut raw, &proto::query(false, (0, 0), "SELECT 1")).unwrap();
    let reply = proto::read_frame(&mut raw).unwrap().unwrap();
    let (op, _) = proto::split(&reply).unwrap();
    assert_eq!(op, Op::Error);
    assert!(proto::read_frame(&mut raw).unwrap().is_none(), "hung up");
    // Garbage framing is refused without taking the server down.
    let mut raw = std::net::TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let mut ok = Client::connect(handle.addr()).unwrap();
    ok.ping().unwrap();
    ok.shutdown_server().unwrap();
    handle.wait();
}

/// A framing failure mid-exchange poisons the client: once the reply
/// stream may be out of step, further statements must refuse to run
/// rather than attribute a stale reply to the wrong request. Statement
/// errors, by contrast, never poison.
#[test]
fn client_poisons_on_protocol_failure_but_not_statement_errors() {
    use sciql_net::proto;
    use std::net::TcpListener;
    // A fake server: valid handshake, then an unknown opcode as the
    // "reply" to the first query.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let _hello = proto::read_frame(&mut s).unwrap().unwrap();
        proto::write_frame(&mut s, &proto::hello_ok("fake", 1)).unwrap();
        let _query = proto::read_frame(&mut s).unwrap().unwrap();
        proto::write_frame(&mut s, &[0x7f]).unwrap(); // unknown opcode
                                                      // Keep the socket open so the client's failure is the framing,
                                                      // not a hangup.
        std::thread::sleep(Duration::from_millis(300));
    });
    let mut c = Client::connect(addr).unwrap();
    assert!(!c.is_broken());
    assert!(matches!(
        c.execute("SELECT 1 + 1"),
        Err(NetError::Protocol(_))
    ));
    assert!(c.is_broken(), "framing failure must poison");
    assert!(
        matches!(c.execute("SELECT 1 + 1"), Err(NetError::Protocol(_))),
        "a broken client refuses further statements"
    );
    fake.join().unwrap();

    // Against a real server: a statement error does NOT poison.
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(matches!(
        c.execute("SELECT broken FROM nowhere"),
        Err(NetError::Server { .. })
    ));
    assert!(!c.is_broken());
    c.ping().unwrap();
    c.shutdown_server().unwrap();
    handle.wait();
}

/// `NetReply` accessors behave.
#[test]
fn reply_accessors() {
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let r = c.execute("CREATE TABLE t (a INT)").unwrap();
    assert!(matches!(r, NetReply::Affected(0)));
    assert!(c.execute("SELECT 1 + 1").unwrap().affected().is_err());
    c.shutdown_server().unwrap();
    handle.wait();
}

/// Helper: scalar i64 out of a 1×1 result.
trait ScalarI64 {
    fn scalar_i64(&self) -> Option<i64>;
}

impl ScalarI64 for ResultSet {
    fn scalar_i64(&self) -> Option<i64> {
        if self.row_count() == 1 && self.column_count() == 1 {
            self.get(0, 0).as_i64()
        } else {
            None
        }
    }
}

/// Prepared statements with bound parameters over the wire.
/// Bind values round-trip bit-exactly, re-execution hits the server-side
/// plan cache, and server errors carry the same stable code the embedded
/// engine produces.
#[test]
fn bound_prepared_statements_over_the_wire() {
    use gdk::Value;
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.execute("CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)")
        .unwrap();
    c.execute("UPDATE m SET v = x + y").unwrap();
    // Prepare reports the slot count.
    let n = c
        .prepare("q", "SELECT COUNT(*) FROM m WHERE v < :t")
        .unwrap();
    assert_eq!(n, 1);
    // Bind + exec, twice with different values, matching inlined queries.
    for t in [1i64, 100] {
        let bound = c
            .execute_bound("q", &[Value::Lng(t)])
            .unwrap()
            .rows()
            .unwrap();
        let inlined = c
            .query(&format!("SELECT COUNT(*) FROM m WHERE v < {t}"))
            .unwrap();
        assert_eq!(wire_bytes(&bound), wire_bytes(&inlined), "t={t}");
    }
    // The second-and-later bound executions reused the cached plan.
    c.execute_bound("q", &[Value::Lng(5)]).unwrap();
    let stats = c.last_report();
    assert_eq!(stats.plan_cache_hits, 1, "server-side plan cache hit");
    // Unbound parameter: a typed Param error, session survives.
    c.prepare("q2", "SELECT COUNT(*) FROM m WHERE v < ?")
        .unwrap();
    match c.execute_bound("q2", &[]) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, sciql::ErrorCode::Param),
        other => panic!("expected Param error, got {other:?}"),
    }
    // Error-code parity: a remote parse error carries ErrorCode::Parse,
    // exactly what an embedded session's EngineError::code() returns.
    match c.prepare("bad", "SELEC nonsense") {
        Err(NetError::Server { code, .. }) => assert_eq!(code, sciql::ErrorCode::Parse),
        other => panic!("expected Parse error, got {other:?}"),
    }
    let embedded_code = sciql::Connection::new()
        .execute("SELEC nonsense")
        .unwrap_err()
        .code();
    assert_eq!(embedded_code, sciql::ErrorCode::Parse);
    // Prepared DML with params mutates shared state.
    c.execute("CREATE TABLE t (a INT, s VARCHAR)").unwrap();
    c.prepare("ins", "INSERT INTO t VALUES (?, ?)").unwrap();
    let r = c
        .execute_bound("ins", &[Value::Int(7), Value::Str("it's".into())])
        .unwrap();
    assert!(matches!(r, NetReply::Affected(1)));
    let rs = c.query("SELECT s FROM t WHERE a = 7").unwrap();
    assert_eq!(rs.get(0, 0), Value::Str("it's".into()));
    c.shutdown_server().unwrap();
    handle.wait();
}

/// Executing a name that was never prepared is a `Statement` error that
/// leaves the session usable, and Deallocate frees server-side
/// statements.
#[test]
fn exec_bound_requires_prepared_statement_and_deallocate_frees_it() {
    use gdk::Value;
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.execute("CREATE TABLE t (a INT)").unwrap();
    match c.execute_bound("ghost", &[Value::Int(1)]) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, sciql::ErrorCode::Statement),
        other => panic!("expected Statement error, got {other:?}"),
    }
    assert!(!c.is_broken());
    // Prepared → executed → deallocated → gone.
    c.prepare("q", "SELECT COUNT(*) FROM t WHERE a = ?")
        .unwrap();
    c.execute_bound("q", &[Value::Int(1)]).unwrap();
    assert!(c.deallocate("q").unwrap());
    assert!(!c.deallocate("q").unwrap(), "second deallocate is a no-op");
    match c.execute_bound("q", &[Value::Int(1)]) {
        Err(NetError::Server { code, .. }) => assert_eq!(code, sciql::ErrorCode::Statement),
        other => panic!("deallocated name must refuse execution, got {other:?}"),
    }
    c.shutdown_server().unwrap();
    handle.wait();
}

/// Admission control: connections beyond `max_sessions` are refused
/// with a typed, retryable `ServerBusy` — never a thread-spawn panic —
/// and a slot freed by a disconnect is admitted again.
#[test]
fn max_sessions_refuses_with_server_busy() {
    let cfg = ServerConfig {
        max_sessions: 2,
        ..ServerConfig::default()
    };
    let handle = Server::bind_with_config(SharedEngine::in_memory(), "127.0.0.1:0", cfg)
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr();
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    a.ping().unwrap();
    b.ping().unwrap();
    // Third connection: refused during the handshake with ServerBusy.
    match Client::connect(addr) {
        Err(NetError::Server { code, message }) => {
            assert_eq!(code, sciql::ErrorCode::ServerBusy);
            assert!(message.contains("session limit"), "{message}");
        }
        other => panic!("expected a ServerBusy refusal, got {other:?}"),
    }
    // The admitted sessions were untouched by the refusal.
    a.ping().unwrap();
    b.ping().unwrap();
    // Freeing a slot readmits: close one, and (after the server reaps
    // the handler) a new client gets in.
    b.close().unwrap();
    let mut c = None;
    for _ in 0..100 {
        match Client::connect(addr) {
            Ok(cl) => {
                c = Some(cl);
                break;
            }
            Err(NetError::Server { code, .. }) => {
                assert_eq!(code, sciql::ErrorCode::ServerBusy);
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected connect failure: {other:?}"),
        }
    }
    let mut c = c.expect("a freed slot must be admitted again");
    c.ping().unwrap();
    c.shutdown_server().unwrap();
    handle.wait();
}

/// The result quota cuts off an oversized result set with a typed
/// mid-stream `QuotaExceeded` error — failing only the statement, not
/// the session, and leaving the reply stream aligned.
#[test]
fn result_quota_fails_statement_not_session() {
    let cfg = ServerConfig {
        max_result_bytes_per_session: 2048,
        ..ServerConfig::default()
    };
    let handle = Server::bind_with_config(SharedEngine::in_memory(), "127.0.0.1:0", cfg)
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    c.execute(
        "CREATE ARRAY big (x INT DIMENSION[0:1:32], y INT DIMENSION[0:1:32], v INT DEFAULT 0)",
    )
    .unwrap();
    c.execute("UPDATE big SET v = x * y").unwrap();
    // 1024 rows × 3 INT columns blows the 2 KiB quota.
    match c.query("SELECT x, y, v FROM big") {
        Err(NetError::Server { code, message }) => {
            assert_eq!(code, sciql::ErrorCode::QuotaExceeded);
            assert!(
                message.contains("max_result_bytes_per_session"),
                "{message}"
            );
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // The session survives and small results still flow.
    assert!(!c.is_broken());
    let n = c.query("SELECT COUNT(*) FROM big").unwrap();
    assert_eq!(n.scalar_i64(), Some(1024));
    c.shutdown_server().unwrap();
    handle.wait();
}

/// Group commit keeps the durability contract: every acknowledged write
/// from concurrent clients survives a server stop + embedded crash
/// recovery, while the writers shared fsyncs (group_commits advanced).
#[test]
fn group_commit_acked_writes_survive_recovery() {
    let dir = tmp_dir("group-commit");
    let engine = SharedEngine::open(&dir).unwrap();
    {
        let mut s = engine.session();
        s.execute("CREATE TABLE acked (who INT, k INT)").unwrap();
    }
    let group_commits_before = sciql_obs::global()
        .snapshot()
        .counter("group_commits")
        .unwrap_or(0);
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr();
    let writers = 8i64;
    let rounds = 10i64;
    let mut threads = Vec::new();
    for w in 0..writers {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect_named(addr, &format!("gc-writer-{w}")).unwrap();
            for k in 0..rounds {
                let n = c
                    .execute(&format!("INSERT INTO acked VALUES ({w}, {k})"))
                    .unwrap()
                    .affected()
                    .unwrap();
                assert_eq!(n, 1);
            }
            c.close().unwrap();
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    let group_commits_after = sciql_obs::global()
        .snapshot()
        .counter("group_commits")
        .unwrap_or(0);
    assert!(
        group_commits_after > group_commits_before,
        "a group-commit leader must have fsynced at least once"
    );
    handle.shutdown();
    drop(handle.wait()); // release the vault; nothing checkpointed since the writes
                         // Embedded reopen = WAL-tail replay: every acknowledged row is there.
    let mut embedded = Connection::open(&dir).unwrap();
    let rs = embedded.query("SELECT COUNT(*) FROM acked").unwrap();
    assert_eq!(rs.scalar_i64(), Some(writers * rounds));
    drop(embedded);
    std::fs::remove_dir_all(&dir).ok();
}

/// Pipelined batches: N statements in one socket write, N replies in
/// order, and a refused statement mid-batch occupies its own slot
/// without desynchronizing the ones behind it.
#[test]
fn pipelined_batch_replies_stay_in_order() {
    let handle = Server::bind(SharedEngine::in_memory(), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let replies = c
        .execute_pipelined(&[
            "CREATE TABLE t (a INT)",
            "INSERT INTO t VALUES (1)",
            "INSERT INTO t VALUES (2)",
            "SELEC nonsense",
            "SELECT COUNT(*) FROM t",
        ])
        .unwrap();
    assert_eq!(replies.len(), 5);
    assert!(matches!(replies[0], Ok(NetReply::Affected(0))));
    assert!(matches!(replies[1], Ok(NetReply::Affected(1))));
    assert!(matches!(replies[2], Ok(NetReply::Affected(1))));
    match &replies[3] {
        Err(NetError::Server { code, .. }) => assert_eq!(*code, sciql::ErrorCode::Parse),
        other => panic!("slot 3 must hold the parse error, got {other:?}"),
    }
    match &replies[4] {
        Ok(NetReply::Rows(rs)) => assert_eq!(rs.scalar_i64(), Some(2)),
        other => panic!("slot 4 must hold the count, got {other:?}"),
    }
    // The mid-batch error never poisoned the connection.
    assert!(!c.is_broken());
    c.ping().unwrap();
    c.shutdown_server().unwrap();
    handle.wait();
}
