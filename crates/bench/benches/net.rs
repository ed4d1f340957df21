//! Network benchmark: the `sciql-net` server's write path over loopback,
//! the N-client group-commit gauntlet and replication. Round trips and
//! result streaming are measured end to end by `benchmark/`'s
//! `tcp-stream` workload (`net.rtt_us`, `stmt.select_4k`,
//! `net.tcp_over_embedded`), not here.
//!
//! Run with `CRITERION_JSON_OUT=BENCH_net.json cargo bench -p sciql-bench
//! --bench net` to record a baseline.

use criterion::{criterion_group, BenchmarkGroup, BenchmarkId, Criterion, Throughput};
use sciql::SharedEngine;
use sciql_net::{Client, Server, ServerConfig, ServerHandle};
use sciql_repl::Replica;
use sciql_repro::driver::Sciql;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

const SIDE: usize = 64;

/// One served engine with the benchmark schema.
fn served() -> (ServerHandle, Client) {
    let engine = SharedEngine::in_memory();
    {
        let mut s = engine.session();
        s.execute(&format!(
            "CREATE ARRAY big (x INT DIMENSION[0:1:{SIDE}], y INT DIMENSION[0:1:{SIDE}], \
             v INT DEFAULT 0)"
        ))
        .unwrap();
        s.execute("UPDATE big SET v = x * y").unwrap();
    }
    let handle = Server::bind(engine, "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    (handle, client)
}

/// Write path over the wire: the per-statement cost a remote client pays
/// (frame + parse + single-writer lock), in-memory engine so the WAL
/// fsync (measured in BENCH_store.json) doesn't drown the wire cost.
fn bench_writes(c: &mut Criterion) {
    let mut g = c.benchmark_group("net/write");
    let (handle, mut client) = served();
    g.bench_function(BenchmarkId::from_parameter("update_one_cell"), |b| {
        b.iter(|| {
            client
                .execute("UPDATE big SET v = 1 WHERE x = 0 AND y = 0")
                .unwrap()
        })
    });
    client.shutdown_server().unwrap();
    handle.wait();
    g.finish();
}

/// High-concurrency write path over a durable vault: N clients each
/// send one pipelined batch (6 INSERTs + 1 SELECT) per round, grouped
/// (writers share one WAL fsync through the group committer) vs solo
/// (per-statement fsync).
/// The bench-guard's EXPECT_FASTER gate requires the grouped 64-writer
/// round to beat the solo one by ≥ 3× — the whole point of group
/// commit. Per-statement p99 and the run's group-commit batch stats
/// (fsyncs saved, batch-size quantiles) land in `BENCH_net.json` as
/// extra JSON lines the guard ignores.
fn bench_concurrency(c: &mut Criterion) {
    let quick = sciql_bench::quick_mode();
    let mut g = c.benchmark_group("net/concurrency");
    // The 64-client grouped/solo pair is the gated invariant, so quick
    // mode keeps exactly that pair; the full profile adds the scaling
    // points.
    let cases: &[(usize, bool)] = if quick {
        &[(64, true), (64, false)]
    } else {
        &[(16, true), (64, true), (256, true), (64, false)]
    };
    for &(n, grouped) in cases {
        bench_concurrency_case(&mut g, n, grouped);
    }
    g.finish();
    emit_group_commit_stats();
}

fn bench_concurrency_case(g: &mut BenchmarkGroup<'_>, n: usize, grouped: bool) {
    let dir = std::env::temp_dir().join(format!(
        "sciql-bench-conc-{}-{n}-{grouped}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let engine = SharedEngine::open(&dir).unwrap();
    {
        let mut s = engine.session();
        s.execute("CREATE TABLE log (who INT, k INT)").unwrap();
        s.execute(
            "CREATE ARRAY grid (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], v INT DEFAULT 0)",
        )
        .unwrap();
    }
    let cfg = ServerConfig {
        group_commit: grouped,
        ..ServerConfig::default()
    };
    let handle = Server::bind_with_config(engine, "127.0.0.1:0", cfg)
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr();
    // A fleet of persistent clients, advanced one round per measured
    // iteration by a pair of barriers (start / done).
    let start = Arc::new(Barrier::new(n + 1));
    let done = Arc::new(Barrier::new(n + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut workers = Vec::new();
    for w in 0..n {
        let (start, done, stop, latencies) = (
            Arc::clone(&start),
            Arc::clone(&done),
            Arc::clone(&stop),
            Arc::clone(&latencies),
        );
        workers.push(std::thread::spawn(move || {
            let mut c = Client::connect_named(addr, &format!("conc-{w}")).unwrap();
            // Each round is one pipelined batch (6 INSERTs + 1 SELECT in
            // a single socket write): how a batching driver actually
            // talks to the server, and what lets concurrent writers pile
            // up in the commit queue for the group committer to drain.
            let mut k = 0u64;
            let mut local: Vec<u64> = Vec::new();
            loop {
                start.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let ins: Vec<String> = (0..6)
                    .map(|i| format!("INSERT INTO log VALUES ({w}, {})", k + i))
                    .collect();
                k += 6;
                let mut batch: Vec<&str> = ins.iter().map(String::as_str).collect();
                batch.push("SELECT COUNT(*) FROM grid");
                let t = Instant::now();
                let replies = c.execute_pipelined(&batch).unwrap();
                local.push(t.elapsed().as_nanos() as u64);
                for r in replies {
                    r.unwrap();
                }
                done.wait();
            }
            latencies.lock().unwrap().extend(local);
            c.close().ok();
        }));
    }
    let label = format!(
        "mixed_{n}_{}",
        if grouped { "grouped" } else { "solo_fsync" }
    );
    g.throughput(Throughput::Elements((n * 7) as u64));
    {
        let (start, done) = (Arc::clone(&start), Arc::clone(&done));
        g.bench_function(BenchmarkId::from_parameter(&label), move |b| {
            b.iter(|| {
                start.wait();
                done.wait();
            })
        });
    }
    stop.store(true, Ordering::SeqCst);
    start.wait();
    for w in workers {
        w.join().unwrap();
    }
    let mut lats = std::mem::take(&mut *latencies.lock().unwrap());
    if !lats.is_empty() {
        lats.sort_unstable();
        let p99 = lats[(lats.len() - 1) * 99 / 100];
        let p50 = lats[(lats.len() - 1) / 2];
        append_json_line(&format!(
            "{{\"id\":\"net/concurrency/{label}/latency\",\"p50_ns\":{p50},\"p99_ns\":{p99},\
             \"batches\":{}}}",
            lats.len()
        ));
    }
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// WAL-shipping replication: how fast a fresh replica replays a
/// primary's WAL tail (catch-up, reported as a records/s JSON line the
/// guard tracks as context), and the read win of fanning an all-read
/// driver batch over 3 endpoints (primary + 2 replicas) instead of
/// pipelining it to the single primary. The bench-guard's
/// EXPECT_FASTER gate requires the 3-endpoint batch to finish ≥ 2×
/// faster — the whole point of read replicas.
fn bench_replication(c: &mut Criterion) {
    let mut g = c.benchmark_group("net/replication");
    let base = std::env::temp_dir().join(format!("sciql-bench-repl-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let engine = SharedEngine::open(base.join("primary")).unwrap();
    let handle = Server::bind(Arc::clone(&engine), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let addr = handle.addr();
    let mut seed = Client::connect_named(addr, "repl-bench-seed").unwrap();
    // A 32,400-cell array: enough work per read to measure, but below
    // the 64k parallel threshold so each query runs serial — the
    // fan-out win must come from the extra endpoints, not from
    // intra-query threads.
    for r in seed
        .execute_pipelined(&[
            "CREATE ARRAY big (x INT DIMENSION[0:1:180], y INT DIMENSION[0:1:180], \
             v INT DEFAULT 0)",
            "UPDATE big SET v = x * y",
            "CREATE TABLE feed (k INT)",
        ])
        .unwrap()
    {
        r.unwrap();
    }
    // A WAL tail of single-row inserts for the fresh replica to replay.
    const RECORDS: usize = 512;
    for chunk in 0..RECORDS / 64 {
        let ins: Vec<String> = (0..64)
            .map(|i| format!("INSERT INTO feed VALUES ({})", chunk * 64 + i))
            .collect();
        let batch: Vec<&str> = ins.iter().map(String::as_str).collect();
        for r in seed.execute_pipelined(&batch).unwrap() {
            r.unwrap();
        }
    }

    let wait_caught_up = |replica: &Replica| {
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        while replica.applied() != engine.durable_position() {
            assert!(Instant::now() < deadline, "replica failed to catch up");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    };
    let t = Instant::now();
    let replica1 = Replica::connect(base.join("replica1"), &addr.to_string()).unwrap();
    wait_caught_up(&replica1);
    let secs = t.elapsed().as_secs_f64();
    append_json_line(&format!(
        "{{\"id\":\"net/replication/catch_up\",\"records\":{RECORDS},\"secs\":{secs:.6},\
         \"records_per_s\":{:.0}}}",
        RECORDS as f64 / secs
    ));
    let replica2 = Replica::connect(base.join("replica2"), &addr.to_string()).unwrap();
    wait_caught_up(&replica2);
    let h1 = Server::bind(Arc::clone(replica1.engine()), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();
    let h2 = Server::bind(Arc::clone(replica2.engine()), "127.0.0.1:0")
        .unwrap()
        .serve()
        .unwrap();

    const BATCH: usize = 12;
    let sqls = vec!["SELECT SUM(v) FROM big"; BATCH];
    g.throughput(Throughput::Elements(BATCH as u64));
    let mut solo = Sciql::connect(&format!("tcp://{addr}")).unwrap();
    g.bench_function(BenchmarkId::from_parameter("read_batch_fanout_1"), |b| {
        b.iter(|| {
            for r in solo.run_batch(&sqls).unwrap() {
                black_box(r.unwrap());
            }
        })
    });
    let mut fanned = Sciql::connect(&format!("tcp://{addr},{},{}", h1.addr(), h2.addr())).unwrap();
    g.bench_function(BenchmarkId::from_parameter("read_batch_fanout_3"), |b| {
        b.iter(|| {
            for r in fanned.run_batch(&sqls).unwrap() {
                black_box(r.unwrap());
            }
        })
    });

    solo.close().unwrap();
    fanned.close().unwrap();
    seed.close().ok();
    replica1.stop();
    replica2.stop();
    h1.stop();
    h2.stop();
    handle.stop();
    std::fs::remove_dir_all(&base).ok();
    g.finish();
}

/// One run-wide line with the group committer's effectiveness: how many
/// fsyncs the grouped cases saved and how many statements each shared
/// fsync covered (the batch factor). `fsyncs_saved > 0` is an
/// acceptance criterion for the recorded baseline.
fn emit_group_commit_stats() {
    let snap = sciql_obs::global().snapshot();
    let saved = snap.counter("wal_fsyncs_saved").unwrap_or(0);
    let commits = snap.counter("group_commits").unwrap_or(0);
    let (batch_mean, batch_p50, batch_p99) = match snap.histogram("group_commit_batch") {
        Some(h) if h.count > 0 => (
            h.sum_ns as f64 / h.count as f64,
            h.quantile_ns(0.50),
            h.quantile_ns(0.99),
        ),
        _ => (0.0, 0, 0),
    };
    append_json_line(&format!(
        "{{\"id\":\"net/concurrency/group_commit\",\"fsyncs_saved\":{saved},\
         \"group_commits\":{commits},\"batch_mean\":{batch_mean:.2},\
         \"batch_p50\":{batch_p50},\"batch_p99\":{batch_p99}}}"
    ));
}

/// Append one raw JSON line to the `CRITERION_JSON_OUT` file (no-op in
/// plain `cargo bench` runs). Lines without a `min_ns` field are
/// invisible to the bench-guard but keep context in the baseline.
fn append_json_line(line: &str) {
    let Some(path) = std::env::var_os("CRITERION_JSON_OUT") else {
        return;
    };
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(file, "{line}");
    }
}

criterion_group! {
    name = benches;
    config = sciql_bench::criterion_config();
    targets = bench_writes, bench_concurrency, bench_replication
}
fn main() {
    sciql_bench::emit_meta("net", &[("concurrency_stmts_per_client_round", 7), ("replication_read_batch", 12)], "sciql-net loopback write benchmark plus the N-client group-commit concurrency gauntlet and the replication catch-up / read fan-out pair");
    benches();
}
