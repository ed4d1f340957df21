//! An interactive SciQL shell — the reproduction's counterpart of the
//! demo GUI ("the audience has full control of the demo through SciQL
//! queries") — built on the **unified driver API**: one
//! `Sciql::connect(url)` call, whatever the backend.
//!
//! Run with: `cargo run --example repl [-- <URL> | --listen <addr> [--db <path>]
//! [--metrics-addr <addr>]]`
//!
//! URLs:
//!   mem:                  fresh in-memory session (the default)
//!   file:<path>           durable session over the vault at <path> —
//!                         statements are write-ahead logged, `\checkpoint`
//!                         snapshots the columns, a later run resumes
//!                         where you left off (even after a crash)
//!   tcp://host:port       speak the wire protocol to a serving repl
//!
//! With `--listen <addr>` (optionally plus `--db <path>` for a durable
//! vault) the process becomes a `sciql-net` server instead: N concurrent
//! clients share the engine — reads on `Arc` column snapshots, writes
//! serialized through the vault. It runs until a client sends `\shutdown`.
//!
//! With `--replica-of <addr>` (plus `--db <path>` for the replica's own
//! vault) the process becomes a **read replica** of the server at
//! `<addr>`: it tails the primary's WAL over the wire and replays it
//! into a byte-identical local vault. Add `--listen <addr>` to also
//! serve the replica read-only to clients (writes are refused; reads
//! carrying a newer write token than the replica has applied wait
//! bounded, then fail with `replica lagging`). Without `--listen` it
//! just tails, printing its applied position until killed.
//!
//! With `--metrics-addr <addr>`
//! the server also exposes a plain-HTTP scrape endpoint: `GET /metrics`
//! serves the live Prometheus exposition, `GET /healthz` a health
//! report; clients read the same registry live with `\metrics`, a
//! query of the `sys.metrics` view.
//!
//! Commands:
//!   <SciQL statement>;          execute (multi-line until ';')
//!   \prepare <name> <sql>;      prepare a statement (use ? or :name params)
//!   \exec <name> [v1 v2 …];     execute it with bound parameter values
//!   \explain <SELECT …>;        show plan + MAL (embedded only)
//!   \grid <SELECT …with [dims]>; render a coerced 2-D result as a grid
//!   \copy <target> <path> [csv|binary]  bulk-load a file into an array/table
//!                               (shorthand for COPY … FROM … (FORMAT …))
//!   \demo                       load the Fig 1 matrix and a small board
//!   \checkpoint                 write a vault checkpoint (file: only)
//!   \stats                      storage + vault counters (embedded only)
//!   \timing                     toggle per-statement wall time, thread counts,
//!                               optimizer stats and the plan-cache flag
//!                               (carried by each answer when remote)
//!   \trace on|off               toggle per-statement span-tree tracing; each
//!                               statement then prints its trace (works over
//!                               tcp:// too — the trace rides on the answer)
//!   \metrics                    engine-wide metrics: a sys.metrics query (the
//!                               server's registry when remote)
//!   \slow <ms>|off              flag statements at least this slow in
//!                               sys.query_log and keep their span trace
//!                               (embedded only; servers set it via config)
//!   \history [n]                the last n (default 10) statements from the
//!                               sys.query_log view — works on any transport
//!   \ping                       round-trip probe
//!   \shutdown                   stop the remote server (tcp:// only)
//!   \q                          quit
//!
//! Pipe a script: `echo 'SELECT 1+1;' | cargo run --example repl`

use sciql_repro::driver::{Conn, Outcome, Sciql, Statement};
use sciql_repro::gdk::Value;
use sciql_repro::net::{MetricsEndpoint, Server, ServerConfig};
use sciql_repro::repl::Replica;
use sciql_repro::sciql::SharedEngine;
use std::collections::HashMap;
use std::io::{self, BufRead, Write};
use std::time::Instant;

fn main() {
    let mut db: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut url: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut max_sessions: Option<String> = None;
    let mut max_result_bytes: Option<String> = None;
    let mut max_queued_writes: Option<String> = None;
    let mut replica_of: Option<String> = None;
    let usage = "usage: repl [<URL> | --listen <addr> [--db <path>] \
                 [--metrics-addr <addr>] \
                 [--max-sessions <n>] [--max-result-bytes <n>] \
                 [--max-queued-writes <n>] \
                 | --replica-of <addr> --db <path> [--listen <addr>]]  \
                 (URL = mem: | file:<path> | tcp://host:port \
                 | tcp://primary,replica1,…)";
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let target = match a.as_str() {
            "--db" => &mut db,
            "--listen" => &mut listen,
            "--replica-of" => &mut replica_of,
            "--metrics-addr" => &mut metrics_addr,
            "--max-sessions" => &mut max_sessions,
            "--max-result-bytes" => &mut max_result_bytes,
            "--max-queued-writes" => &mut max_queued_writes,
            other if !other.starts_with('-') && url.is_none() => {
                url = Some(other.to_owned());
                continue;
            }
            other => {
                eprintln!("unknown argument {other:?} ({usage})");
                std::process::exit(2);
            }
        };
        *target = args.next();
        if target.is_none() {
            eprintln!("{a} needs a value ({usage})");
            std::process::exit(2);
        }
    }
    if (listen.is_some() || replica_of.is_some()) && url.is_some() {
        eprintln!("--listen/--replica-of start a server; they take no client URL ({usage})");
        std::process::exit(2);
    }

    if listen.is_some() || replica_of.is_some() {
        let parse_limit = |flag: &str, v: Option<String>| {
            v.map(|s| {
                s.parse::<usize>().unwrap_or_else(|_| {
                    eprintln!("{flag} needs an unsigned integer, got {s:?} ({usage})");
                    std::process::exit(2);
                })
            })
        };
        let mut config = ServerConfig::default();
        if let Some(n) = parse_limit("--max-sessions", max_sessions) {
            config.max_sessions = n;
        }
        if let Some(n) = parse_limit("--max-result-bytes", max_result_bytes) {
            config.max_result_bytes_per_session = n;
        }
        if let Some(n) = parse_limit("--max-queued-writes", max_queued_writes) {
            config.max_queued_writes = n;
        }
        if let Some(primary) = replica_of {
            let Some(dir) = db else {
                eprintln!("--replica-of needs --db <path> for the replica's own vault ({usage})");
                std::process::exit(2);
            };
            serve_replica(
                &primary,
                &dir,
                listen.as_deref(),
                metrics_addr.as_deref(),
                config,
            );
        } else {
            serve(
                listen.as_deref().unwrap(),
                db.as_deref(),
                metrics_addr.as_deref(),
                config,
            );
        }
        return;
    }
    if db.is_some()
        || metrics_addr.is_some()
        || max_sessions.is_some()
        || max_result_bytes.is_some()
        || max_queued_writes.is_some()
    {
        eprintln!(
            "server flags only apply to --listen / --replica-of servers; \
             open a local vault with a file:<path> URL ({usage})"
        );
        std::process::exit(2);
    }

    // Everything below is one driver connection.
    let url = url.unwrap_or_else(|| "mem:".to_owned());
    let conn = match Sciql::connect(&url) {
        Ok(c) => {
            println!("connected: {url} ({} transport)", c.transport_kind());
            c
        }
        Err(e) => {
            eprintln!("cannot connect to {url}: {e}");
            std::process::exit(1);
        }
    };
    repl_loop(conn);
}

/// `--listen`: serve the (optionally durable) engine until a client asks
/// for shutdown.
fn serve(addr: &str, db: Option<&str>, metrics_addr: Option<&str>, config: ServerConfig) {
    let engine = match db {
        Some(path) => match SharedEngine::open(path) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("cannot open vault {path:?}: {e}");
                std::process::exit(1);
            }
        },
        None => SharedEngine::in_memory(),
    };
    let scrape = metrics_addr.map(|ma| {
        let endpoint = MetricsEndpoint::bind(std::sync::Arc::clone(&engine), ma)
            .and_then(|ep| ep.serve())
            .unwrap_or_else(|e| {
                eprintln!("cannot serve metrics on {ma}: {e}");
                std::process::exit(1);
            });
        println!(
            "metrics http on {} (GET /metrics, GET /healthz)",
            endpoint.addr()
        );
        endpoint
    });
    let server = match Server::bind_with_config(engine, addr, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let handle = match server.serve() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot serve: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "sciql-net serving on {} ({}); stop with \\shutdown from a client",
        handle.addr(),
        match db {
            Some(p) => format!("vault {p:?}"),
            None => "in-memory".into(),
        }
    );
    let engine = handle.wait();
    if let Some(scrape) = scrape {
        scrape.stop();
    }
    let stats = engine.stats();
    if engine.is_persistent() {
        match engine.checkpoint() {
            Ok(()) => println!("final checkpoint written"),
            Err(e) => eprintln!("final checkpoint failed: {e}"),
        }
    }
    println!(
        "server stopped: {} session(s), {} statement(s), {} snapshot read(s), {} row(s) served",
        stats.sessions_opened, stats.statements, stats.snapshot_reads, stats.rows_returned
    );
}

/// `--replica-of`: tail the primary into the vault at `dir`, optionally
/// serving it read-only on `listen`.
fn serve_replica(
    primary: &str,
    dir: &str,
    listen: Option<&str>,
    metrics_addr: Option<&str>,
    config: ServerConfig,
) {
    let replica = match Replica::connect(dir, primary) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot start replica of {primary}: {e}");
            std::process::exit(1);
        }
    };
    let (generation, pos) = replica.applied();
    println!(
        "replica of {primary} over vault {dir:?} (resuming at generation {generation}, \
         {pos} WAL bytes)"
    );
    let scrape = metrics_addr.map(|ma| {
        let endpoint = MetricsEndpoint::bind(std::sync::Arc::clone(replica.engine()), ma)
            .and_then(|ep| ep.serve())
            .unwrap_or_else(|e| {
                eprintln!("cannot serve metrics on {ma}: {e}");
                std::process::exit(1);
            });
        println!(
            "metrics http on {} (GET /metrics, GET /healthz)",
            endpoint.addr()
        );
        endpoint
    });
    if let Some(addr) = listen {
        let engine = std::sync::Arc::clone(replica.engine());
        let server = match Server::bind_with_config(engine, addr, config) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                std::process::exit(1);
            }
        };
        let handle = match server.serve() {
            Ok(h) => h,
            Err(e) => {
                eprintln!("cannot serve: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "serving replica reads on {} (writes are refused); stop with \\shutdown from a client",
            handle.addr()
        );
        handle.wait();
    } else {
        // No listener: just keep the vault in sync, reporting progress,
        // until the process is killed.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(2));
            let (generation, pos) = replica.applied();
            println!("replica applied: generation {generation}, {pos} WAL bytes");
        }
    }
    if let Some(scrape) = scrape {
        scrape.stop();
    }
    // Clean stop: detach the vault so the data dir's LOCK is released.
    replica.stop();
    println!("replica stopped");
}

fn repl_loop(mut conn: Conn) {
    let stdin = io::stdin();
    let mut buffer = String::new();
    let mut timing = false;
    let mut tracing = false;
    let mut prepared: HashMap<String, Statement> = HashMap::new();
    print!("SciQL> ");
    io::stdout().flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() {
            match trimmed {
                "\\q" | "\\quit" | "exit" => {
                    conn.close().ok();
                    println!();
                    return;
                }
                "\\timing" => {
                    timing = !timing;
                    println!("timing is {}", if timing { "on" } else { "off" });
                    prompt();
                    continue;
                }
                "\\ping" => {
                    let t0 = Instant::now();
                    match conn.ping() {
                        Ok(()) => println!("pong ({:.3} ms)", ms_since(t0)),
                        Err(e) => println!("error: {e}"),
                    }
                    prompt();
                    continue;
                }
                "\\shutdown" => {
                    // Only exit on an actual remote shutdown; an
                    // embedded session refuses and keeps running.
                    match conn.shutdown_server() {
                        Ok(()) => {
                            println!("server is shutting down");
                            println!();
                            return;
                        }
                        Err(e) => println!("error: {e}"),
                    }
                    prompt();
                    continue;
                }
                "\\demo" => {
                    load_demo(&mut conn);
                    prompt();
                    continue;
                }
                "\\checkpoint" => {
                    match conn.checkpoint() {
                        Ok(()) => println!("checkpoint written"),
                        Err(e) => println!("error: {e}"),
                    }
                    prompt();
                    continue;
                }
                "\\stats" => {
                    match conn.storage_report() {
                        Ok(text) => print!("{text}"),
                        Err(e) => println!("error: {e}"),
                    }
                    prompt();
                    continue;
                }
                "\\metrics" => {
                    run_script(
                        &mut conn,
                        "SELECT name, kind, value FROM sys.metrics ORDER BY name",
                        false,
                        false,
                    );
                    prompt();
                    continue;
                }
                "\\trace on" | "\\trace off" => {
                    let on = trimmed.ends_with("on");
                    match conn.set_tracing(on) {
                        Ok(()) => {
                            tracing = on;
                            println!("tracing is {}", if on { "on" } else { "off" });
                        }
                        Err(e) => println!("error: {e}"),
                    }
                    prompt();
                    continue;
                }
                "\\trace" => {
                    println!("usage: \\trace on|off");
                    prompt();
                    continue;
                }
                "\\slow" => {
                    println!("usage: \\slow <ms>|off");
                    prompt();
                    continue;
                }
                _ if trimmed.starts_with("\\slow ") => {
                    let arg = trimmed.trim_start_matches("\\slow ").trim();
                    let ns = if arg.eq_ignore_ascii_case("off") {
                        Some(0u64)
                    } else {
                        arg.parse::<u64>()
                            .ok()
                            .map(|ms| ms.saturating_mul(1_000_000))
                    };
                    match (ns, conn.embedded_connection()) {
                        (None, _) => println!("usage: \\slow <ms>|off"),
                        (Some(ns), Some(emb)) => {
                            emb.set_slow_query_ns(ns);
                            if ns == 0 {
                                println!("slow-query log is off");
                            } else {
                                println!(
                                    "statements >= {} ms are flagged slow in sys.query_log \
                                     (traces kept)",
                                    ns / 1_000_000
                                );
                            }
                        }
                        (Some(_), None) => println!(
                            "\\slow is embedded-only; a server sets slow_query_ns in its \
                             SessionConfig (query sys.query_log here to read the log)"
                        ),
                    }
                    prompt();
                    continue;
                }
                _ if trimmed == "\\history" || trimmed.starts_with("\\history ") => {
                    let n = trimmed
                        .trim_start_matches("\\history")
                        .trim()
                        .trim_end_matches(';');
                    let n: u64 = if n.is_empty() {
                        10
                    } else {
                        match n.parse() {
                            Ok(v) => v,
                            Err(_) => {
                                println!("usage: \\history [n]");
                                prompt();
                                continue;
                            }
                        }
                    };
                    // Plain SQL over the sys.query_log view, so the same
                    // command works embedded and over tcp://.
                    let sql = format!(
                        "SELECT id, session, kind, wall_ns, rows, slow, text \
                         FROM sys.query_log ORDER BY id DESC LIMIT {n}"
                    );
                    match conn.query(&sql) {
                        Ok(rows) => {
                            println!("{}", rows.result_set().render());
                            println!("{} row(s)", rows.row_count());
                        }
                        Err(e) => println!("error: {e}"),
                    }
                    prompt();
                    continue;
                }
                _ if trimmed.starts_with("\\explain ") => {
                    let sql = trimmed
                        .trim_start_matches("\\explain ")
                        .trim_end_matches(';');
                    match conn.explain(sql) {
                        Ok(text) => println!("{text}"),
                        Err(e) => println!("error: {e}"),
                    }
                    prompt();
                    continue;
                }
                _ if trimmed.starts_with("\\grid ") => {
                    let sql = trimmed.trim_start_matches("\\grid ").trim_end_matches(';');
                    let view = conn
                        .query(sql)
                        .and_then(|rows| Ok(rows.result_set().to_array_view()?));
                    match view.and_then(|v| Ok(v.render_grid()?)) {
                        Ok(grid) => println!("{grid}"),
                        Err(e) => println!("error: {e}"),
                    }
                    prompt();
                    continue;
                }
                _ if trimmed.starts_with("\\copy ") => {
                    let rest = trimmed.trim_start_matches("\\copy ").trim_end_matches(';');
                    let mut parts = rest.split_whitespace();
                    match (parts.next(), parts.next()) {
                        (Some(target), Some(path)) => {
                            let fmt = parts.next().unwrap_or("csv").to_ascii_lowercase();
                            if fmt != "csv" && fmt != "binary" {
                                println!("usage: \\copy <target> <path> [csv|binary]");
                                prompt();
                                continue;
                            }
                            let sql = format!(
                                "COPY {target} FROM '{}' (FORMAT {fmt})",
                                path.replace('\'', "''")
                            );
                            let t0 = Instant::now();
                            match conn.run(&sql) {
                                Ok(outcome) => {
                                    print_outcome(outcome);
                                    println!("copy took {:.3} ms", ms_since(t0));
                                }
                                Err(e) => println!("error: {e}"),
                            }
                        }
                        _ => println!("usage: \\copy <target> <path> [csv|binary]"),
                    }
                    prompt();
                    continue;
                }
                _ if trimmed.starts_with("\\prepare ") => {
                    let rest = trimmed
                        .trim_start_matches("\\prepare ")
                        .trim_end_matches(';');
                    match rest.split_once(' ') {
                        Some((name, sql)) => match conn.prepare(sql.trim()) {
                            Ok(stmt) => {
                                println!(
                                    "prepared {name:?} with {} parameter slot(s)",
                                    stmt.param_count()
                                );
                                prepared.insert(name.to_owned(), stmt);
                            }
                            Err(e) => println!("error: {e}"),
                        },
                        None => println!("usage: \\prepare <name> <sql>"),
                    }
                    prompt();
                    continue;
                }
                _ if trimmed.starts_with("\\exec ") => {
                    let rest = trimmed.trim_start_matches("\\exec ").trim_end_matches(';');
                    let mut parts = rest.split_whitespace();
                    match parts.next().and_then(|n| prepared.get(n).cloned()) {
                        Some(stmt) => {
                            let params: Vec<Value> = parts.map(parse_param).collect();
                            let t0 = Instant::now();
                            match conn.run_bound(&stmt, &params) {
                                Ok(outcome) => {
                                    print_outcome(outcome);
                                    if timing {
                                        print_timing(&mut conn, t0);
                                    }
                                    if tracing {
                                        print_trace(&mut conn);
                                    }
                                }
                                Err(e) => println!("error: {e}"),
                            }
                        }
                        None => println!("usage: \\exec <prepared-name> [value …]"),
                    }
                    prompt();
                    continue;
                }
                "" => {
                    prompt();
                    continue;
                }
                _ => {}
            }
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if !line.contains(';') {
            print!("  ...> ");
            io::stdout().flush().ok();
            continue;
        }
        let script = std::mem::take(&mut buffer);
        run_script(&mut conn, &script, timing, tracing);
        prompt();
    }
    conn.close().ok();
    println!();
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A `\exec` literal: integer, float, quoted or bare string, `null`.
fn parse_param(tok: &str) -> Value {
    if tok.eq_ignore_ascii_case("null") {
        return Value::Null;
    }
    if let Ok(i) = tok.parse::<i64>() {
        return Value::Lng(i);
    }
    if let Ok(f) = tok.parse::<f64>() {
        return Value::Dbl(f);
    }
    Value::Str(tok.trim_matches('\'').to_owned())
}

/// Execute a script and print results; with `timing`, print wall time
/// plus the transport-independent execution report; with `tracing`, the
/// span tree of the last statement.
fn run_script(conn: &mut Conn, script: &str, timing: bool, tracing: bool) {
    let t0 = Instant::now();
    for stmt in split_statements(script) {
        match conn.run(&stmt) {
            Ok(outcome) => print_outcome(outcome),
            Err(e) => println!("error: {e}"),
        }
    }
    if timing {
        print_timing(conn, t0);
    }
    if tracing {
        print_trace(conn);
    }
}

fn print_timing(conn: &mut Conn, t0: Instant) {
    let wall = ms_since(t0);
    // One renderer for every transport (see sciql_obs::report): an
    // embedded session and a tcp:// one print identical reports.
    match conn.last_report() {
        Ok(s) => print!(
            "{}",
            sciql_repro::obs::render_exec_summary(&s.summary(Some(wall)))
        ),
        Err(e) => println!("Time: {wall:.3} ms (report unavailable: {e})"),
    }
}

fn print_trace(conn: &mut Conn) {
    match conn.last_trace_text() {
        Ok(Some(text)) => println!("{text}"),
        Ok(None) => println!("no trace recorded"),
        Err(e) => println!("error: {e}"),
    }
}

fn print_outcome(outcome: Outcome) {
    match outcome {
        Outcome::Rows(rs) => {
            println!("{}", rs.render());
            println!("{} row(s)", rs.row_count());
        }
        Outcome::Affected(n) => println!("ok, {n} cell(s)/row(s)"),
    }
}

/// Split a script on top-level semicolons (quote-aware — the driver
/// executes one statement at a time, like the wire protocol).
fn split_statements(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for ch in script.chars() {
        match ch {
            '\'' => {
                in_str = !in_str;
                cur.push(ch);
            }
            ';' if !in_str => {
                if !cur.trim().is_empty() {
                    out.push(cur.trim().to_owned());
                }
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_owned());
    }
    out
}

fn prompt() {
    print!("SciQL> ");
    io::stdout().flush().ok();
}

fn load_demo(conn: &mut Conn) {
    let script = "CREATE ARRAY matrix (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], \
                  v INT DEFAULT 0); \
                  UPDATE matrix SET v = CASE WHEN x > y THEN x + y \
                  WHEN x < y THEN x - y ELSE 0 END; \
                  CREATE ARRAY life (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], \
                  v INT DEFAULT 0); \
                  INSERT INTO life VALUES (2,1,1), (2,2,1), (2,3,1);";
    let loaded = split_statements(script)
        .iter()
        .try_for_each(|s| conn.run(s).map(|_| ()));
    match loaded {
        Ok(()) => println!(
            "loaded: matrix (Fig 1(b)) and life (8x8 board with a blinker).\n\
             try:  SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2];\n\
             or :  \\grid SELECT [x], [y], v FROM life\n\
             or :  \\prepare q SELECT COUNT(*) FROM matrix WHERE v >= ?; then \\exec q 2"
        ),
        Err(e) => println!("demo load failed: {e}"),
    }
}
