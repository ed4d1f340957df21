//! `repl_gauntlet` — the CI replication gauntlet workload.
//!
//! Drives a primary `sciql-net` server that is being tailed by live
//! replicas (started separately, e.g. via the repl example's
//! `--replica-of`) and checks the invariants WAL shipping must never
//! bend, even when a replica is `kill -9`ed and restarted mid-stream:
//!
//! * **Gap-free acked writes on every replica.** Each writer appends
//!   `(who, seq)` rows with consecutive `seq` values to `oplog`, only
//!   advancing after the primary acks. `verify` mode then requires
//!   every replica to converge to the primary's row count and to hold,
//!   per writer, exactly `per-writer` rows spanning `0..per-writer` —
//!   no gap, no duplicate, no phantom.
//! * **Read equality.** The full `oplog` contents fetched from each
//!   replica must equal the primary's row for row (same order, same
//!   values) — the replica is a twin, not an approximation.
//!
//! ```text
//! cargo build --release --example repl_gauntlet
//! target/release/examples/repl_gauntlet write  --addr 127.0.0.1:15532
//!                      [--writers 4] [--per-writer 1500]
//! target/release/examples/repl_gauntlet verify --primary 127.0.0.1:15532 \
//!                      --replicas 127.0.0.1:15533,127.0.0.1:15534 \
//!                      [--writers 4] [--per-writer 1500] [--timeout-s 120]
//! ```

use gdk::Value;
use sciql_net::Client;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("write") => write(&args[1..]),
        Some("verify") => verify(&args[1..]),
        _ => {
            eprintln!(
                "usage: repl_gauntlet write --addr HOST:PORT [--writers N] [--per-writer N]\n\
                 \x20      repl_gauntlet verify --primary HOST:PORT --replicas A,B,… \
                 [--writers N] [--per-writer N] [--timeout-s N]"
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
            eprintln!("repl_gauntlet: bad value for {name}: {raw}");
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

/// Concurrent writers against the primary: each appends `per_writer`
/// acked `(who, seq)` rows in pipelined batches.
fn write(args: &[String]) -> i32 {
    let Some(addr) = flag(args, "--addr").map(str::to_owned) else {
        eprintln!("repl_gauntlet write: --addr is required");
        return 2;
    };
    let writers: usize = parse(args, "--writers", 4);
    let per_writer: usize = parse(args, "--per-writer", 1500);

    let mut admin = match Client::connect_named(&addr, "repl_gauntlet-admin") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("repl_gauntlet: cannot connect to {addr}: {e}");
            return 1;
        }
    };
    admin.execute("CREATE TABLE oplog (who INT, seq INT)").ok();
    admin.close().ok();

    let started = Instant::now();
    let mut handles = Vec::new();
    for w in 0..writers {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let mut c = Client::connect_named(&addr, &format!("repl-writer-{w}"))
                .map_err(|e| format!("writer {w}: connect: {e}"))?;
            let mut seq = 0usize;
            while seq < per_writer {
                let n = (per_writer - seq).min(50);
                let stmts: Vec<String> = (seq..seq + n)
                    .map(|s| format!("INSERT INTO oplog VALUES ({w}, {s})"))
                    .collect();
                let batch: Vec<&str> = stmts.iter().map(String::as_str).collect();
                let replies = c
                    .execute_pipelined(&batch)
                    .map_err(|e| format!("writer {w}: batch at seq {seq}: {e}"))?;
                for r in replies {
                    r.map_err(|e| format!("writer {w}: statement at seq {seq}: {e}"))?;
                }
                // Only acked rows count: seq advances after the replies.
                seq += n;
            }
            c.close().ok();
            Ok(())
        }));
    }
    let mut failed = false;
    for h in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                eprintln!("repl_gauntlet: {e}");
                failed = true;
            }
            Err(_) => {
                eprintln!("repl_gauntlet: writer panicked");
                failed = true;
            }
        }
    }
    if failed {
        return 1;
    }
    println!(
        "WROTE {} rows ({writers} writers x {per_writer}) in {:.1}s",
        writers * per_writer,
        started.elapsed().as_secs_f64()
    );
    0
}

/// The primary's full `oplog`, in a canonical order, as printable rows.
fn dump_oplog(c: &mut Client, who: &str) -> Result<Vec<String>, String> {
    let rows = c
        .query("SELECT who, seq FROM oplog ORDER BY who, seq")
        .map_err(|e| format!("{who}: dump oplog: {e}"))?;
    Ok(rows
        .rows()
        .map(|r| format!("{},{}", as_i64(&r[0]), as_i64(&r[1])))
        .collect())
}

/// Wait for every replica to converge, then hold it to the gap-free and
/// row-for-row-equality invariants.
fn verify(args: &[String]) -> i32 {
    let Some(primary) = flag(args, "--primary").map(str::to_owned) else {
        eprintln!("repl_gauntlet verify: --primary is required");
        return 2;
    };
    let Some(replicas) = flag(args, "--replicas") else {
        eprintln!("repl_gauntlet verify: --replicas is required");
        return 2;
    };
    let replicas: Vec<String> = replicas
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    let writers: i64 = parse(args, "--writers", 4);
    let per_writer: i64 = parse(args, "--per-writer", 1500);
    let timeout = Duration::from_secs(parse(args, "--timeout-s", 120));
    let expected = writers * per_writer;

    let mut pc = match Client::connect_named(&primary, "repl-verify-primary") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("repl_gauntlet: cannot connect to primary {primary}: {e}");
            return 1;
        }
    };
    let count_sql = "SELECT COUNT(*) FROM oplog";
    let primary_count = match pc.query(count_sql) {
        Ok(rs) => as_i64(&rs.row(0)[0]),
        Err(e) => {
            eprintln!("repl_gauntlet: primary count: {e}");
            return 1;
        }
    };
    if primary_count != expected {
        eprintln!("repl_gauntlet: primary holds {primary_count} rows, expected {expected}");
        return 1;
    }
    let primary_rows = match dump_oplog(&mut pc, "primary") {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repl_gauntlet: {e}");
            return 1;
        }
    };
    pc.close().ok();

    for addr in &replicas {
        let mut rc = match Client::connect_named(addr, "repl-verify-replica") {
            Ok(c) => c,
            Err(e) => {
                eprintln!("repl_gauntlet: cannot connect to replica {addr}: {e}");
                return 1;
            }
        };
        // Converge: the replica applies the tail at its own pace (and
        // one of them was kill -9ed and restarted mid-stream).
        let deadline = Instant::now() + timeout;
        loop {
            let n = match rc.query(count_sql) {
                Ok(rs) => as_i64(&rs.row(0)[0]),
                Err(e) => {
                    eprintln!("repl_gauntlet: replica {addr} count: {e}");
                    return 1;
                }
            };
            if n == expected {
                break;
            }
            if Instant::now() > deadline {
                eprintln!(
                    "repl_gauntlet: replica {addr} stuck at {n}/{expected} rows after {}s",
                    timeout.as_secs()
                );
                return 1;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        // Gap-free per writer: exactly per_writer rows spanning
        // 0..per_writer (count == max-min+1 == per_writer and min == 0
        // leaves no room for a gap, duplicate or phantom).
        let per = match rc
            .query("SELECT who, COUNT(*), MIN(seq), MAX(seq) FROM oplog GROUP BY who ORDER BY who")
        {
            Ok(rs) => rs,
            Err(e) => {
                eprintln!("repl_gauntlet: replica {addr} per-writer: {e}");
                return 1;
            }
        };
        if per.row_count() as i64 != writers {
            eprintln!(
                "repl_gauntlet: replica {addr} saw {} writers, expected {writers}",
                per.row_count()
            );
            return 1;
        }
        for row in per.rows() {
            let (who, n, lo, hi) = (
                as_i64(&row[0]),
                as_i64(&row[1]),
                as_i64(&row[2]),
                as_i64(&row[3]),
            );
            if n != per_writer || lo != 0 || hi != per_writer - 1 {
                eprintln!(
                    "repl_gauntlet: replica {addr} writer {who} has a gap: \
                     count={n} min={lo} max={hi}, want count={per_writer} min=0 max={}",
                    per_writer - 1
                );
                return 1;
            }
        }
        // Row-for-row equality with the primary.
        let replica_rows = match dump_oplog(&mut rc, addr) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("repl_gauntlet: {e}");
                return 1;
            }
        };
        if replica_rows != primary_rows {
            let diverged = primary_rows
                .iter()
                .zip(&replica_rows)
                .position(|(a, b)| a != b);
            eprintln!(
                "repl_gauntlet: replica {addr} diverged from the primary \
                 (first differing row index: {diverged:?}, lengths {} vs {})",
                primary_rows.len(),
                replica_rows.len()
            );
            return 1;
        }
        rc.close().ok();
        println!("replica {addr}: {expected} rows, gap-free, row-for-row equal");
    }
    println!(
        "PASS (replication converged: {} replicas x {expected} rows, gap-free, equal)",
        replicas.len()
    );
    0
}
