//! bench-guard: compare freshly recorded `BENCH_*.json` files against the
//! committed baselines and fail on regressions.
//!
//! Usage:
//!
//! ```text
//! bench-guard [--baseline-dir DIR] [--current-dir DIR]
//!             [--threshold-pct P] [--mode absolute|relative]
//! ```
//!
//! Two comparison modes:
//!
//! * `absolute` (default) — a tracked metric fails when its fresh
//!   `min_ns` exceeds the baseline's by more than the threshold.
//!   Meaningful when baseline and fresh run were recorded on the same
//!   machine class.
//! * `relative` — each tracked metric is first normalized by its file's
//!   *anchor* metric (the first tracked id per file) and the *ratio* is
//!   compared against the baseline's ratio. Machine-speed differences
//!   cancel out, so this is what the CI job uses, where runners are not
//!   the machine that recorded the committed baselines.
//!
//! Independent of mode, the guard enforces the machine-free invariants
//! in [`EXPECT_FASTER`]: within the *fresh* numbers, the optimized ids
//! must beat their unoptimized twins (e.g. `opt/select_sum/L2` <
//! `opt/select_sum/L0`), some by a required minimum speedup (COPY ≥10×
//! over the INSERT loop, zone-skip scan ≥5× over the full scan). The
//! [`EXPECT_CLOSE`] invariants bound in the other direction: the
//! trace-off query run may take at most 1.05× the traced run — query
//! tracing must stay zero-cost when disabled.
//!
//! Files may contain `{"meta":…}` header lines (ignored here) and
//! duplicate ids from appended re-runs (the last occurrence wins).

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

/// Tracked metrics: `(file, id)`. The first id per file is that file's
/// anchor in relative mode.
const TRACKED: &[(&str, &str)] = &[
    ("BENCH_opt.json", "opt/select_project/L0"),
    ("BENCH_opt.json", "opt/select_project/L2"),
    ("BENCH_opt.json", "opt/select_sum/L2"),
    ("BENCH_opt.json", "opt/select_count/L2"),
    ("BENCH_store.json", "persistence/checkpoint/dirty_attrs"),
    (
        "BENCH_store.json",
        "persistence/recovery/cold_open_checkpoint",
    ),
    ("BENCH_store.json", "persistence/dml/insert_durable"),
    ("BENCH_driver.json", "driver/cells_1k/prepared"),
    ("BENCH_driver.json", "driver/cells_1k/unprepared"),
    ("BENCH_driver.json", "driver/cells_256k/prepared"),
    ("BENCH_ingest.json", "ingest/load_8k/copy_binary"),
    ("BENCH_ingest.json", "ingest/scan_512k/zone_skip"),
    ("BENCH_ingest.json", "ingest/scan_512k/full_scan"),
    ("BENCH_obs.json", "obs/scan_sum_256k/on"),
    ("BENCH_obs.json", "obs/scan_sum_256k/off"),
    ("BENCH_obs.json", "obs/sysview/metrics_like_scan"),
    ("BENCH_obs.json", "obs/metrics/snapshot_render"),
];

/// Within the fresh run, `left` must be at least `min_speedup`× faster
/// than `right` (1.0 = merely faster).
const EXPECT_FASTER: &[(&str, &str, &str, f64)] = &[
    (
        "BENCH_opt.json",
        "opt/select_project/L2",
        "opt/select_project/L0",
        1.0,
    ),
    (
        "BENCH_opt.json",
        "opt/select_sum/L2",
        "opt/select_sum/L0",
        1.0,
    ),
    (
        "BENCH_opt.json",
        "opt/select_count/L2",
        "opt/select_count/L0",
        1.0,
    ),
    // A bound prepared statement (cached plan) must beat re-parsing and
    // re-optimising the same text. Only the planning-dominated small
    // case is a hard invariant (~2.7x locally); on the 256k scan the
    // win is real but within run-to-run noise, so it is tracked by the
    // threshold metrics above instead.
    (
        "BENCH_driver.json",
        "driver/cells_1k/prepared",
        "driver/cells_1k/unprepared",
        1.0,
    ),
    // Tiled bulk ingest: streaming COPY must beat the row-at-a-time
    // INSERT loop by an order of magnitude (~20x locally), and the
    // zone-map point probe must prune its way past the full scan by at
    // least 5x (~29x locally — 63 of 64 tiles skipped).
    (
        "BENCH_ingest.json",
        "ingest/load_8k/copy_binary",
        "ingest/load_8k/insert_loop",
        10.0,
    ),
    (
        "BENCH_ingest.json",
        "ingest/scan_512k/zone_skip",
        "ingest/scan_512k/full_scan",
        5.0,
    ),
    // Group commit is the point of the high-concurrency server: 64
    // writers sharing fsyncs through the commit queue must finish their
    // mixed round at least 3x faster than the same 64 writers paying a
    // per-statement fsync each (~solo WAL durability).
    (
        "BENCH_net.json",
        "net/concurrency/mixed_64_grouped",
        "net/concurrency/mixed_64_solo_fsync",
        3.0,
    ),
    // Read scaling is the point of replication: an all-read driver
    // batch fanned out over 3 endpoints (primary + 2 caught-up
    // replicas) must finish at least 2x faster than the same batch
    // pipelined to the single primary.
    (
        "BENCH_net.json",
        "net/replication/read_batch_fanout_3",
        "net/replication/read_batch_fanout_1",
        2.0,
    ),
];

/// Within the fresh run, `left` must take at most `max_ratio` × the time
/// of `right` — an upper bound rather than [`EXPECT_FASTER`]'s lower
/// one. Used to pin "off must be (near) free" invariants.
const EXPECT_CLOSE: &[(&str, &str, &str, f64)] = &[
    // Query tracing must be zero-cost when disabled: the trace-off run
    // is allowed at most 5% of the traced run's time as overhead. (It
    // should in fact be *faster*; the bound is the tripwire for dormant
    // tracing machinery leaking work into the hot path.)
    (
        "BENCH_obs.json",
        "obs/scan_sum_256k/off",
        "obs/scan_sum_256k/on",
        1.05,
    ),
];

fn main() -> ExitCode {
    let mut baseline_dir = ".".to_owned();
    let mut current_dir = ".".to_owned();
    let mut threshold_pct = 25.0f64;
    let mut relative = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--baseline-dir" => baseline_dir = val("--baseline-dir"),
            "--current-dir" => current_dir = val("--current-dir"),
            "--threshold-pct" => {
                threshold_pct = val("--threshold-pct").parse().expect("numeric threshold")
            }
            "--mode" => match val("--mode").as_str() {
                "absolute" => relative = false,
                "relative" => relative = true,
                other => {
                    eprintln!("unknown mode {other:?} (absolute|relative)");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?}\n\
                     usage: bench-guard [--baseline-dir DIR] [--current-dir DIR] \
                     [--threshold-pct P] [--mode absolute|relative]"
                );
                return ExitCode::from(2);
            }
        }
    }

    let mut failures = 0usize;
    let mut checked = 0usize;
    let factor = 1.0 + threshold_pct / 100.0;

    // Group tracked ids per file; the first is the anchor.
    let mut per_file: Vec<(&str, Vec<&str>)> = Vec::new();
    for (file, id) in TRACKED {
        match per_file.iter_mut().find(|(f, _)| f == file) {
            Some((_, ids)) => ids.push(id),
            None => per_file.push((file, vec![id])),
        }
    }

    for (file, ids) in &per_file {
        let base = match load(Path::new(&baseline_dir).join(file)) {
            Some(m) => m,
            None => {
                println!("SKIP {file}: no committed baseline");
                continue;
            }
        };
        let Some(cur) = load(Path::new(&current_dir).join(file)) else {
            println!("FAIL {file}: fresh numbers missing from {current_dir}");
            failures += 1;
            continue;
        };
        let anchor = ids[0];
        for id in ids {
            let (Some(&b), Some(&c)) = (base.get(*id), cur.get(*id)) else {
                println!("FAIL {file}: tracked id {id:?} missing (baseline or fresh)");
                failures += 1;
                continue;
            };
            let (b_val, c_val, what) = if relative && *id != anchor {
                let (Some(&ba), Some(&ca)) = (base.get(anchor), cur.get(anchor)) else {
                    println!("FAIL {file}: anchor {anchor:?} missing");
                    failures += 1;
                    continue;
                };
                (b / ba, c / ca, "ratio-to-anchor")
            } else if relative {
                // The anchor itself only normalizes; nothing to compare.
                continue;
            } else {
                (b, c, "min_ns")
            };
            checked += 1;
            let ok = c_val <= b_val * factor;
            println!(
                "{} {file} {id}: {what} baseline {b_val:.1} fresh {c_val:.1} ({:+.1}%)",
                if ok { "ok  " } else { "FAIL" },
                (c_val / b_val - 1.0) * 100.0,
            );
            if !ok {
                failures += 1;
            }
        }
    }

    for (file, fast, slow, min_speedup) in EXPECT_FASTER {
        let Some(cur) = load(Path::new(&current_dir).join(file)) else {
            println!("FAIL {file}: fresh numbers missing for expect-faster checks");
            failures += 1;
            continue;
        };
        let (Some(&f), Some(&s)) = (cur.get(*fast), cur.get(*slow)) else {
            println!("FAIL {file}: expect-faster ids missing ({fast} vs {slow})");
            failures += 1;
            continue;
        };
        checked += 1;
        let ok = f * min_speedup < s;
        println!(
            "{} {file} {fast} ({f:.1} ns) {} {slow} ({s:.1} ns), speedup {:.2}x (need {min_speedup:.1}x)",
            if ok { "ok  " } else { "FAIL" },
            if ok { "beats" } else { "DOES NOT beat" },
            s / f,
        );
        if !ok {
            failures += 1;
        }
    }

    for (file, left, right, max_ratio) in EXPECT_CLOSE {
        let Some(cur) = load(Path::new(&current_dir).join(file)) else {
            println!("FAIL {file}: fresh numbers missing for expect-close checks");
            failures += 1;
            continue;
        };
        let (Some(&l), Some(&r)) = (cur.get(*left), cur.get(*right)) else {
            println!("FAIL {file}: expect-close ids missing ({left} vs {right})");
            failures += 1;
            continue;
        };
        checked += 1;
        let ok = l <= r * max_ratio;
        println!(
            "{} {file} {left} ({l:.1} ns) is {:.3}x of {right} ({r:.1} ns), allowed {max_ratio:.2}x",
            if ok { "ok  " } else { "FAIL" },
            l / r,
        );
        if !ok {
            failures += 1;
        }
    }

    println!(
        "bench-guard: {checked} metric(s) checked, {failures} failure(s) \
         (threshold {threshold_pct}%, mode {})",
        if relative { "relative" } else { "absolute" }
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Parse one line-delimited bench JSON file into `id -> min_ns` (last
/// occurrence of a duplicate id wins; meta lines are skipped). The
/// format is the fixed single-line layout `emit_meta` and the criterion
/// shim write, so a couple of string finds beat a JSON dependency.
fn load(path: impl AsRef<Path>) -> Option<HashMap<String, f64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let Some(id) = field_str(line, "\"id\":\"") else {
            continue;
        };
        let Some(min) = field_num(line, "\"min_ns\":") else {
            continue;
        };
        out.insert(id, min);
    }
    Some(out)
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_owned())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
