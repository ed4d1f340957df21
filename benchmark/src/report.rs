//! Printing: metric lines by name and unit, the driver's JSON line, the
//! bypass predictions, the repeat check, and `out/result.json` with its
//! host stamp.

use crate::harness::EndToEnd;
use crate::spec;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One measured value and how many samples are behind it.
#[derive(Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            value,
            samples,
        }
    }
}

/// The end-to-end metrics of one untraced run, in declaration order.
pub fn end_to_end_metrics(e: &EndToEnd, setups: usize) -> Vec<Metric> {
    let rounds = e.pass.round_ns.len();
    vec![
        Metric::new("setup_s", e.setup_s, setups),
        Metric::new("round_p50_ms", e.pass.p50_ms(), rounds),
        Metric::new("rounds_per_s", e.pass.rounds_per_s, rounds),
        Metric::new("recover_s", e.recover_s, crate::harness::RECOVERIES),
        Metric::new("space_amp", e.space_amp, 1),
    ]
}

/// Everything one full run of one workload measured.
pub struct WorkloadReport {
    pub name: String,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl WorkloadReport {
    fn layer(&self, name: &str) -> f64 {
        self.per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// The unit a metric name is declared with, and whether lower is better.
fn declared(name: &str) -> (&'static str, bool) {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.lower_is_better))
        .chain(
            spec::PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.lower_is_better)),
        )
        .find(|&(n, _, _)| n == name)
        .map_or(("", true), |(_, unit, lower)| (unit, lower))
}

fn unit_of(name: &str) -> &'static str {
    declared(name).0
}

pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        let (unit, lower) = declared(m.name);
        println!(
            "{workload:<14} {:<30} {:>16.6} {unit:<6} {} is better (n={})",
            m.name,
            m.value,
            if lower { "lower " } else { "higher" },
            m.samples
        );
    }
}

/// Round-time diagnostics that are not end-to-end metrics: tails on a
/// shared two-core box do not repeat within a tenth.
pub fn print_diagnostics(e: &EndToEnd) {
    match e.pass.tail_ms() {
        Some((label, ms)) => println!(
            "  diagnostic: round {label} {ms:.3} ms over {} rounds",
            e.pass.round_ns.len()
        ),
        None => println!(
            "  diagnostic: {} rounds are too few for a tail percentile",
            e.pass.round_ns.len()
        ),
    }
}

fn json_metrics(metrics: &[Metric], with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // A non-finite value has no JSON spelling; null makes the driver
        // reject the run instead of reading a made-up number.
        let value = if m.value.is_finite() {
            format!("{}", m.value)
        } else {
            "null".to_owned()
        };
        let _ = write!(
            out,
            "{:?}: {{\"value\": {value}, \"unit\": {:?}",
            m.name,
            unit_of(m.name)
        );
        if with_samples {
            let _ = write!(out, ", \"samples\": {}", m.samples);
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// The last line of a driver run.
pub fn driver_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(metrics, false)
    )
}

/// The predictions the workloads were chosen to make true, checked on
/// this run: which layers a workload bypasses and which dominate it.
pub fn print_predictions(set: &[WorkloadReport]) {
    println!("== bypass predictions");
    let say = |workload: &str, what: &str, holds: bool, value: f64| {
        println!(
            "{workload:<14} {what:<58} {value:>10.4}  {}",
            if holds { "holds" } else { "DOES NOT HOLD" }
        );
    };
    for w in set {
        let planning = w.layer("ledger.planning_share");
        let kernel = w.layer("ledger.kernel_share");
        let wire_and_store = w.layer("net.wire_us")
            + w.layer("net.rtt_us")
            + w.layer("store.wal_append_us")
            + w.layer("store.fsync_us");
        match w.name.as_str() {
            "array-update" => {
                say(
                    &w.name,
                    "net.* and store.* time is 0",
                    wire_and_store == 0.0,
                    wire_and_store,
                );
                say(
                    &w.name,
                    "planning share of the round < 0.01",
                    planning < 0.01,
                    planning,
                );
            }
            "array-query" => {
                say(
                    &w.name,
                    "net.* and store.* time is 0",
                    wire_and_store == 0.0,
                    wire_and_store,
                );
                say(
                    &w.name,
                    "planning share of the round >= 0.20",
                    planning >= 0.20,
                    planning,
                );
            }
            "tcp-stream" | "durable-write" => {
                say(
                    &w.name,
                    "gdk.kernel_us share of the round < 0.10",
                    kernel < 0.10,
                    kernel,
                );
            }
            _ => {}
        }
    }
}

/// Compare two sets of the same commit and seed: every end-to-end metric
/// within its bound, every exact count identical. Prints both values and
/// the spread; returns whether all held.
pub fn print_repeat_check(first: &[WorkloadReport], second: &[WorkloadReport]) -> bool {
    println!("== repeat check");
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        for (ma, mb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let bound = spec::END_TO_END
                .iter()
                .find(|s| s.name == ma.name)
                .map_or(0.0, |s| s.bound);
            let spread = (ma.value - mb.value).abs() / ma.value.min(mb.value);
            let holds = spread <= bound;
            ok &= holds;
            println!(
                "{:<14} {:<30} {:>14.6} {:>14.6}  spread {:.4} (bound {bound})  {}",
                a.name,
                ma.name,
                ma.value,
                mb.value,
                spread,
                if holds { "ok" } else { "OUTSIDE BOUND" }
            );
        }
        for (ma, mb) in a.per_layer.iter().zip(&b.per_layer) {
            let exact = spec::PER_LAYER.iter().any(|s| s.name == ma.name && s.exact);
            if exact && ma.value != mb.value {
                ok = false;
                println!(
                    "{:<14} {:<30} {:>14} {:>14}  COUNT DIFFERS",
                    a.name, ma.name, ma.value, mb.value
                );
            }
        }
    }
    ok
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and on what this ran — so a one-core run can never pass as a
/// parallel baseline.
fn host_stamp(seed: u64) -> String {
    format!(
        "{{\"git_commit\": {:?}, \"nproc\": {}, \"engine_threads\": {}, \"rustc\": {:?}, \"seed\": {seed}}}",
        command_line("git", &["rev-parse", "HEAD"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        sciql_repro::sciql::SessionConfig::default().threads,
        command_line("rustc", &["--version"]),
    )
}

/// Write every set of this invocation, stamped, to `path`.
pub fn write_result_json(
    path: &Path,
    seed: u64,
    sets: &[Vec<WorkloadReport>],
) -> Result<(), String> {
    let mut out = format!("{{\"host\": {}, \"sets\": [", host_stamp(seed));
    for (i, set) in sets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('[');
        for (j, w) in set.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"workload\": {:?}, \"attempted\": {}, \"failed\": {}, \"fail_share\": {}, \"end_to_end\": {}, \"per_layer\": {}}}",
                w.name,
                w.attempted,
                w.failed,
                w.failed as f64 / w.attempted as f64,
                json_metrics(&w.end_to_end, true),
                json_metrics(&w.per_layer, true)
            );
        }
        out.push(']');
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn driver_line_is_the_contract_object() {
        let metrics: Vec<Metric> = spec::END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| Metric::new(m.name, 1.5 + i as f64, 3))
            .collect();
        let j = Json::parse(&driver_line(40, 0, &metrics)).expect("valid JSON");
        assert_eq!(j.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::num), Some(40.0));
        let printed = j.get("metrics").unwrap();
        let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(
            printed.keys(),
            declared,
            "every end-to-end metric, nothing else"
        );
        for m in spec::END_TO_END {
            let entry = printed.get(m.name).unwrap();
            assert_eq!(entry.keys(), ["value", "unit"]);
            assert_eq!(entry.get("unit").and_then(Json::str), Some(m.unit));
        }
        let failed = Json::parse(&driver_line(40, 2, &metrics)).unwrap();
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn printed_end_to_end_metrics_are_exactly_the_declared_ones() {
        let e = EndToEnd {
            setup_s: 0.5,
            recover_s: 0.25,
            space_amp: 3.0,
            pass: crate::harness::Pass {
                round_ns: vec![2_000_000, 1_000_000, 3_000_000],
                rounds_per_s: 500.0,
                attempted: 3,
                failed: 0,
                errors: Vec::new(),
            },
            attempted: 3,
            failed: 0,
            errors: Vec::new(),
        };
        let printed = end_to_end_metrics(&e, 5);
        let names: Vec<&str> = printed.iter().map(|m| m.name).collect();
        let declared: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        assert_eq!(printed[1].value, 2.0, "round_p50_ms is the median, in ms");
        assert_eq!(printed[1].samples, 3);
        assert!(printed.iter().all(|m| m.value > 0.0));
    }

    #[test]
    fn repeat_check_flags_spread_and_count_drift() {
        let report = |p50: f64, appends: f64| WorkloadReport {
            name: "durable-write".into(),
            attempted: 10,
            failed: 0,
            end_to_end: vec![Metric::new("round_p50_ms", p50, 10)],
            per_layer: vec![Metric::new("store.wal_appends", appends, 20)],
        };
        let bound = spec::END_TO_END[1].bound;
        let (inside, outside) = (100.0 * (1.0 + bound / 2.0), 100.0 * (1.0 + bound * 2.0));
        assert!(print_repeat_check(
            &[report(100.0, 660.0)],
            &[report(inside, 660.0)]
        ));
        assert!(!print_repeat_check(
            &[report(100.0, 660.0)],
            &[report(outside, 660.0)]
        ));
        assert!(!print_repeat_check(
            &[report(100.0, 660.0)],
            &[report(100.0, 661.0)]
        ));
    }
}
