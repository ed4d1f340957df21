//! One end-to-end benchmark for the SciQL reproduction, with an
//! outside-in layer ledger. See `README.md` next to this crate and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --seed 1
//!     [--workload <name>] [--seconds <s>] [--smoke] [--check-repeat]
//!     [--trace 0|1]
//! ```
//!
//! With `--trace` the program does one run of one workload the way the
//! driver asks for it — `--trace 0` the end-to-end metrics, `--trace 1`
//! the per-layer metrics — and prints one JSON object as its last line.
//! Without it, it runs both for every workload (or the one named),
//! prints every metric, writes `out/result.json`, and exits non-zero on
//! any wrong answer.

mod harness;
#[cfg(test)]
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{Ctx, EndToEnd, Traced};
use report::{Metric, WorkloadReport};
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(&name).is_none() {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; one of {known:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

/// The untraced run of `workload` as reportable metrics.
fn end_to_end(workload: &str, ctx: &Ctx, args: &Args) -> Result<(EndToEnd, Vec<Metric>), String> {
    let (seconds, setups) = if args.smoke {
        (1.0, 1)
    } else {
        (args.seconds, harness::SETUPS)
    };
    let e = harness::run_end_to_end(workload, ctx, seconds, setups)?;
    let metrics = report::end_to_end_metrics(&e, setups);
    Ok((e, metrics))
}

/// The traced run of `workload` as reportable metrics, every per-layer
/// name present (0 where the workload bypasses the layer).
fn traced(workload: &str, ctx: &Ctx, args: &Args) -> Result<(Traced, Vec<Metric>), String> {
    let rounds = if args.smoke {
        3
    } else {
        harness::TRACED_ROUNDS
    };
    let t = harness::run_traced(workload, ctx, rounds)?;
    for d in &t.diagnostics {
        println!("  diagnostic: {d}");
    }
    // A name a workload reports must be one BENCHMARK.json declares, or
    // it would silently go unprinted.
    if let Some(stray) = t
        .layers
        .keys()
        .find(|k| !spec::PER_LAYER.iter().any(|l| l.name == **k))
    {
        return Err(format!(
            "{workload} reports undeclared layer metric {stray:?}"
        ));
    }
    let metrics = spec::PER_LAYER
        .iter()
        .map(|l| {
            let value = t.layers.get(l.name).copied().unwrap_or(0.0);
            Metric::new(l.name, value, t.rounds as usize)
        })
        .collect();
    Ok((t, metrics))
}

/// One run of one workload in the driver's shape.
fn driver_run(args: &Args, trace: bool) -> Result<(), String> {
    let workload = args.workload.as_deref().expect("checked in parse_args");
    let ctx = Ctx::new(args.seed)?;
    let (attempted, failed, errors, metrics) = if trace {
        let (t, m) = traced(workload, &ctx, args)?;
        (t.attempted, t.failed, t.errors, m)
    } else {
        let (e, m) = end_to_end(workload, &ctx, args)?;
        report::print_diagnostics(&e);
        (e.attempted, e.failed, e.errors, m)
    };
    for e in &errors {
        eprintln!("FAILED {workload}: {e}");
    }
    report::print_metrics(workload, &metrics);
    println!("{}", report::driver_line(attempted, failed, &metrics));
    Ok(())
}

/// Both runs of every selected workload: one full set.
fn full_set(args: &Args) -> Result<Vec<WorkloadReport>, String> {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut set = Vec::with_capacity(names.len());
    for name in names {
        let ctx = Ctx::new(args.seed)?;
        println!("== {name}: {}", spec::workload(name).expect("known").why);
        let (e, e2e) = end_to_end(name, &ctx, args)?;
        report::print_diagnostics(&e);
        report::print_metrics(name, &e2e);
        let (t, layers) = traced(name, &ctx, args)?;
        report::print_metrics(name, &layers);
        let mut errors = e.errors;
        errors.extend(t.errors);
        for err in &errors {
            eprintln!("FAILED {name}: {err}");
        }
        let attempted = e.attempted + t.attempted;
        let failed = e.failed + t.failed;
        println!(
            "{name:<14} fail_share                 {:.6}  ({failed} of {attempted} rounds)",
            failed as f64 / attempted as f64
        );
        set.push(WorkloadReport {
            name: name.to_owned(),
            attempted,
            failed,
            end_to_end: e2e,
            per_layer: layers,
        });
    }
    report::print_predictions(&set);
    Ok(set)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(trace) = args.trace {
        driver_run(args, trace)?;
        return Ok(true);
    }
    let first = full_set(args)?;
    let mut ok = first.iter().all(|w| w.failed == 0);
    let sets = if args.check_repeat {
        let second = full_set(args)?;
        ok &= second.iter().all(|w| w.failed == 0);
        ok &= report::print_repeat_check(&first, &second);
        vec![first, second]
    } else {
        vec![first]
    };
    report::write_result_json(&Ctx::out_dir().join("result.json"), args.seed, &sets)?;
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sciql-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("sciql-benchmark: wrong answers or a repeat outside its bound; see above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("sciql-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
