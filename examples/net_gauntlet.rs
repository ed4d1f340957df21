//! `net_gauntlet` — the CI concurrency gauntlet workload.
//!
//! Drives a running `sciql-net` server with a fleet of pipelined
//! clients (default 64) and checks the two invariants group commit and
//! pipelining must never bend:
//!
//! * **Zero torn reads.** Writers repeatedly set *every* row of the
//!   `acct` table to one constant with a single `UPDATE`; readers
//!   repeatedly fetch `COUNT(*), MIN(v), MAX(v)` in one statement. A
//!   snapshot that ever shows `MIN != MAX` (or a wrong row count) saw a
//!   half-applied update, and the run fails.
//! * **Gap-free acked writes.** Each writer also appends `(who, seq)`
//!   to `oplog` with consecutive `seq` values, only advancing after the
//!   server acks. `verify` mode reopens the vault embedded (after a
//!   crash or clean shutdown) and asserts each writer's sequence is a
//!   contiguous prefix — recovery kept every acked write it kept any
//!   later write of.
//!
//! ```text
//! cargo build --release --example net_gauntlet
//! target/release/examples/net_gauntlet run    --addr 127.0.0.1:15432
//!                     [--clients 64] [--rounds 40] [--tolerate-disconnect]
//! target/release/examples/net_gauntlet verify --db path/to/vault [--rows 64]
//! ```
//!
//! `--tolerate-disconnect` lets the `kill -9` phase of the CI job reuse
//! the same binary: workers that lose the server mid-round report the
//! disconnect and stop, and the process still exits 0 as long as every
//! read that *did* complete was consistent.

use gdk::Value;
use sciql_net::Client;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Rows in the `acct` table every whole-table `UPDATE` rewrites.
const ROWS: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("verify") => verify(&args[1..]),
        _ => {
            eprintln!(
                "usage: net_gauntlet run --addr HOST:PORT [--clients N] [--rounds N] \
                 [--tolerate-disconnect]\n       net_gauntlet verify --db DIR [--rows N]"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Pull the value following `--flag` out of an argument list.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("net_gauntlet: bad value for {name}: {raw}");
            std::process::exit(2);
        }),
        None => default,
    }
}

/// A `Value` from an aggregate row, as i64 regardless of width.
fn as_i64(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n as i64,
        Value::Lng(n) => *n,
        other => panic!("aggregate returned non-integer value {other:?}"),
    }
}

fn run(args: &[String]) -> i32 {
    let Some(addr) = flag(args, "--addr").map(str::to_owned) else {
        eprintln!("net_gauntlet run: --addr is required");
        return 2;
    };
    let clients: usize = parse(args, "--clients", 64);
    let rounds: u64 = parse(args, "--rounds", 40);
    let tolerate = args.iter().any(|a| a == "--tolerate-disconnect");

    // Schema setup is idempotent so the binary can be pointed at a
    // fresh vault or one that already survived a crash: a CREATE that
    // fails because the table exists just skips the seeding.
    let mut admin = match Client::connect_named(&addr, "gauntlet-admin") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("net_gauntlet: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    if admin.execute("CREATE TABLE acct (id INT, v INT)").is_ok() {
        let rows: Vec<String> = (0..ROWS).map(|i| format!("({i}, 0)")).collect();
        admin
            .execute(&format!("INSERT INTO acct VALUES {}", rows.join(", ")))
            .expect("seed acct");
    }
    admin.execute("CREATE TABLE oplog (who INT, seq INT)").ok();
    admin.close().ok();

    let torn = Arc::new(AtomicU64::new(0));
    let disconnects = Arc::new(AtomicU64::new(0));
    let statements = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut workers = Vec::new();
    for w in 0..clients {
        let addr = addr.clone();
        let (torn, disconnects, statements, failed) = (
            Arc::clone(&torn),
            Arc::clone(&disconnects),
            Arc::clone(&statements),
            Arc::clone(&failed),
        );
        // Three writers to one reader: the readers' whole job is to
        // catch a torn snapshot while the writers churn.
        let reader = w % 4 == 3;
        workers.push(std::thread::spawn(move || {
            let mut c = match Client::connect_named(&addr, &format!("gauntlet-{w}")) {
                Ok(c) => c,
                Err(e) => {
                    if tolerate {
                        disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    eprintln!("gauntlet worker {w}: connect failed: {e}");
                    failed.store(true, Ordering::Relaxed);
                    return;
                }
            };
            for seq in 0..rounds {
                let outcome = if reader {
                    c.query("SELECT COUNT(*), MIN(v), MAX(v) FROM acct")
                        .map(|rs| {
                            statements.fetch_add(1, Ordering::Relaxed);
                            let (n, lo, hi) = (
                                as_i64(&rs.get(0, 0)),
                                as_i64(&rs.get(0, 1)),
                                as_i64(&rs.get(0, 2)),
                            );
                            if n != ROWS as i64 || lo != hi {
                                eprintln!("TORN READ: worker {w} saw count={n} min={lo} max={hi}");
                                torn.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                } else {
                    // One pipelined batch per round: the constant-table
                    // UPDATE and the acked-write marker travel in a
                    // single socket write.
                    let val = (w as u64 * 1_000_000 + seq) as i64;
                    let update = format!("UPDATE acct SET v = {val}");
                    let mark = format!("INSERT INTO oplog VALUES ({w}, {seq})");
                    c.execute_pipelined(&[&update, &mark]).and_then(|replies| {
                        for r in replies {
                            r?;
                            statements.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(())
                    })
                };
                if let Err(e) = outcome {
                    if tolerate {
                        disconnects.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    eprintln!("gauntlet worker {w}: round {seq} failed: {e}");
                    failed.store(true, Ordering::Relaxed);
                    return;
                }
            }
            c.close().ok();
        }));
    }
    for h in workers {
        h.join().expect("gauntlet worker panicked");
    }
    let elapsed = started.elapsed();
    let stmts = statements.load(Ordering::Relaxed);
    let torn = torn.load(Ordering::Relaxed);
    let dropped = disconnects.load(Ordering::Relaxed);
    println!(
        "gauntlet: {clients} clients x {rounds} rounds -> {stmts} statements in {:.2?} \
         ({:.0} stmt/s), torn_reads={torn}, disconnected_workers={dropped}",
        elapsed,
        stmts as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    if torn > 0 || failed.load(Ordering::Relaxed) {
        println!("gauntlet: FAIL");
        1
    } else {
        println!("gauntlet: PASS (zero torn reads)");
        0
    }
}

fn verify(args: &[String]) -> i32 {
    let Some(db) = flag(args, "--db") else {
        eprintln!("net_gauntlet verify: --db is required");
        return 2;
    };
    let rows: i64 = parse(args, "--rows", ROWS as i64);
    // Embedded reopen replays the WAL exactly like a restarted server
    // would; the asserts below are the recovery-consistency contract.
    let mut conn = match sciql::Connection::open(db) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("verify: cannot reopen vault {db}: {e}");
            return 1;
        }
    };
    let rs = conn
        .query("SELECT COUNT(*), MIN(v), MAX(v) FROM acct")
        .expect("acct must exist after recovery");
    let (n, lo, hi) = (
        as_i64(&rs.get(0, 0)),
        as_i64(&rs.get(0, 1)),
        as_i64(&rs.get(0, 2)),
    );
    let mut ok = true;
    if n != rows {
        eprintln!("verify: acct has {n} rows, expected {rows}");
        ok = false;
    }
    if lo != hi {
        eprintln!("verify: torn recovered state: min={lo} max={hi}");
        ok = false;
    }
    // Every writer's acked sequence must be a contiguous prefix:
    // COUNT == MAX+1 means no acked write inside the prefix vanished
    // while a later one survived.
    let ops = conn
        .query("SELECT who, COUNT(*), MAX(seq) FROM oplog GROUP BY who")
        .expect("oplog must exist after recovery");
    let mut writers = 0usize;
    let mut acked = 0i64;
    for r in 0..ops.row_count() {
        let (who, cnt, max) = (
            as_i64(&ops.get(r, 0)),
            as_i64(&ops.get(r, 1)),
            as_i64(&ops.get(r, 2)),
        );
        if cnt != max + 1 {
            eprintln!("verify: writer {who} has {cnt} acked writes but max seq {max} (gap)");
            ok = false;
        }
        writers += 1;
        acked += cnt;
    }
    println!(
        "verify: acct count={n} value={lo}..{hi}; oplog {writers} writers, {acked} acked writes"
    );
    if ok {
        println!("verify: PASS (recovered state consistent)");
        0
    } else {
        println!("verify: FAIL");
        1
    }
}
