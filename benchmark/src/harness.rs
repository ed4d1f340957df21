//! Run shape shared by every workload: fresh set-up, fixed warm-up,
//! persisted image (recovery time and space), timed closed-loop pass,
//! and the traced fixed-count pass with its layer probes.

use crate::stats::{median, percentile, supported_tail};
use crate::trace::{self_times, Recorder};
use crate::workloads;
use sciql_repro::driver::Sciql;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Cold opens of the persisted image per run; `recover_s` is their median.
pub const RECOVERIES: usize = 5;
/// Rounds of the traced pass — a fixed count, so its counters repeat.
pub const TRACED_ROUNDS: u64 = 20;
/// Untraced rounds run just before the traced pass; the ratio of the two
/// medians is the tracing overhead.
pub const BASELINE_ROUNDS: u64 = 10;

/// What a run is given: the seed and where it may write.
pub struct Ctx {
    pub seed: u64,
    /// `benchmark/out`: results and traces.
    pub out: PathBuf,
    /// `benchmark/out/tmp-<pid>`: input files and vaults, removed at exit.
    pub tmp: PathBuf,
}

impl Ctx {
    /// `out/` next to this crate's manifest: where `cargo run` says the
    /// crate is now, else where it was when it was built.
    pub fn out_dir() -> PathBuf {
        std::env::var_os("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
            .join("out")
    }

    pub fn new(seed: u64) -> Result<Ctx, String> {
        let out = Ctx::out_dir();
        let tmp = out.join(format!("tmp-{}", std::process::id()));
        std::fs::remove_dir_all(&tmp).ok();
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        Ok(Ctx { seed, out, tmp })
    }

    /// A fresh, empty directory under the scratch area.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.tmp.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.tmp).ok();
    }
}

/// One closed-loop client: it sends its next round only after the last
/// one completed and was checked.
pub trait Client: Send {
    /// Number of the round `round` will run next (0-based, per client).
    fn next_round(&self) -> u64;
    /// One round: the fixed script of statements that is timed, counted
    /// and failed as a unit. Statement spans go to `rec`.
    fn round(&mut self, rec: &mut Recorder) -> Result<(), String>;
    /// Check the answers of the round just run against independent
    /// native code. Runs outside the timed call.
    fn check(&mut self) -> Result<(), String>;
}

/// A workload set up and ready to serve rounds.
pub trait Workload {
    /// The clients of the timed pass; the traced pass drives the first.
    fn clients(&mut self) -> Vec<&mut dyn Client>;
    /// Rounds per client of the fixed-count warm-up.
    fn warmup_rounds(&self) -> u64;
    /// Leave a quiescent on-disk image of the workload's database in
    /// `dir` (a `file:` vault) and return the user bytes it holds.
    fn persist(&mut self, dir: &Path) -> Result<u64, String>;
    /// Replay each layer's public entry point on the statements of the
    /// round just traced, one span per call.
    fn probe(&mut self, rec: &mut Recorder) -> Result<(), String>;
    /// Engine counters read from outside (the metrics registry, vault
    /// stats), once the workload is quiescent. Read before and after
    /// every traced round; the layer value is the summed difference.
    fn counters(&mut self) -> Result<Counters, String> {
        Ok(Counters::new())
    }
    /// Layer metrics that are not sums of probe spans.
    fn layers(&mut self, rec: &Recorder, out: &mut Layers) -> Result<(), String>;
    /// End-of-run checks (durability), before tear-down.
    fn final_check(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Orderly tear-down: stop servers, join threads.
    fn close(self: Box<Self>);
}

/// Named counter readings.
pub type Counters = BTreeMap<&'static str, u64>;
/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Round outcomes of one pass.
#[derive(Default)]
pub struct Pass {
    /// Wall nanoseconds of every round, all clients.
    pub round_ns: Vec<u64>,
    /// Σ over clients of rounds ÷ time spent inside rounds.
    pub rounds_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Pass {
    pub fn p50_ms(&self) -> f64 {
        let ms: Vec<f64> = self.round_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        median(&ms)
    }

    /// The highest percentile the sample supports, with its label.
    pub fn tail_ms(&self) -> Option<(&'static str, f64)> {
        let (label, p) = supported_tail(self.round_ns.len())?;
        let mut ms: Vec<f64> = self.round_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        Some((label, percentile(&ms, p)))
    }

    fn absorb(&mut self, other: Pass) {
        self.round_ns.extend(other.round_ns);
        self.rounds_per_s += other.rounds_per_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

/// When a pass stops.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Rounds(u64),
}

/// Drive one client until `stop`.
fn drive(client: &mut dyn Client, stop: Stop, rec: &mut Recorder) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut busy = Duration::ZERO;
    loop {
        match stop {
            Stop::After(d) if started.elapsed() >= d => break,
            Stop::Rounds(n) if pass.attempted >= n => break,
            _ => {}
        }
        let round = client.next_round();
        rec.set_round(round);
        let t0 = Instant::now();
        let ran = rec.span("round", |rec| client.round(rec));
        let dt = t0.elapsed();
        busy += dt;
        pass.round_ns.push(dt.as_nanos() as u64);
        pass.attempted += 1;
        if let Err(e) = ran.and_then(|()| client.check()) {
            pass.failed += 1;
            if pass.errors.len() < 5 {
                pass.errors.push(format!("round {round}: {e}"));
            }
        }
    }
    if !busy.is_zero() {
        pass.rounds_per_s = pass.attempted as f64 / busy.as_secs_f64();
    }
    pass
}

/// Closed loop over every client, one thread each, spans off.
pub fn run_pass(w: &mut dyn Workload, stop: Stop) -> Pass {
    let mut clients = w.clients();
    if clients.len() == 1 {
        return drive(&mut *clients[0], stop, &mut Recorder::off());
    }
    let mut total = Pass::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(move || drive(&mut **c, stop, &mut Recorder::off())))
            .collect();
        for h in handles {
            match h.join() {
                Ok(pass) => total.absorb(pass),
                Err(_) => {
                    total.attempted += 1;
                    total.failed += 1;
                    total.errors.push("client thread panicked".into());
                }
            }
        }
    });
    total
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copy a vault directory, leaving out what belongs to the process that
/// holds it open (`LOCK`) and replication staging.
pub fn copy_vault(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        if name == "LOCK" || name == ".repl-incoming" {
            continue;
        }
        let target = to.join(&name);
        if entry.metadata()?.is_dir() {
            copy_vault(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Median seconds of a cold `Sciql::connect("file:…")` on fresh copies
/// of the vault image in `image`.
fn recover_s(ctx: &Ctx, image: &Path) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(RECOVERIES);
    for _ in 0..RECOVERIES {
        let copy = ctx.tmp.join("recover");
        std::fs::remove_dir_all(&copy).ok();
        copy_vault(image, &copy).map_err(|e| format!("copy vault: {e}"))?;
        let url = format!("file:{}", copy.display());
        let t0 = Instant::now();
        let conn = Sciql::connect(&url).map_err(|e| format!("recover {url}: {e}"))?;
        secs.push(t0.elapsed().as_secs_f64());
        drop(conn);
    }
    Ok(median(&secs))
}

/// What the untraced run of one workload measured.
pub struct EndToEnd {
    pub setup_s: f64,
    pub recover_s: f64,
    pub space_amp: f64,
    pub pass: Pass,
    /// Rounds and failures of every pass, warm-up included.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Set up (several times), warm up, persist, time `seconds` of rounds,
/// run the end-of-run checks.
pub fn run_end_to_end(
    name: &str,
    ctx: &Ctx,
    seconds: f64,
    setups: usize,
) -> Result<EndToEnd, String> {
    let inputs = workloads::Inputs::generate(name, ctx)?;
    let mut setup_secs = Vec::with_capacity(setups);
    let mut ready: Option<Box<dyn Workload + '_>> = None;
    for _ in 0..setups {
        if let Some(prev) = ready.take() {
            prev.close();
        }
        let t0 = Instant::now();
        let w = workloads::setup(name, ctx, &inputs)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        ready = Some(w);
    }
    let mut w = ready.expect("at least one set-up");
    let warmup = Stop::Rounds(w.warmup_rounds());
    let warm = run_pass(&mut *w, warmup);

    let image = ctx.fresh_dir("image")?;
    let user_bytes = w.persist(&image)?;
    let disk_bytes = dir_bytes(&image).map_err(|e| format!("size of image: {e}"))?;
    let recover_s = recover_s(ctx, &image)?;

    let pass = run_pass(&mut *w, Stop::After(Duration::from_secs_f64(seconds)));
    let mut attempted = warm.attempted + pass.attempted;
    let mut failed = warm.failed + pass.failed;
    let mut errors = warm.errors;
    errors.extend(pass.errors.iter().cloned());
    if let Err(e) = w.final_check() {
        attempted += 1;
        failed += 1;
        errors.push(format!("final check: {e}"));
    }
    w.close();
    Ok(EndToEnd {
        setup_s: median(&setup_secs),
        recover_s,
        space_amp: disk_bytes as f64 / user_bytes as f64,
        pass,
        attempted,
        failed,
        errors,
    })
}

/// What the traced run of one workload measured.
pub struct Traced {
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Samples behind each time metric: the traced rounds.
    pub rounds: u64,
    /// Per-statement-kind medians and the like: printed, not compared.
    pub diagnostics: Vec<String>,
}

/// Set up once, warm up, run a short untraced baseline and then the
/// fixed-count traced pass with one client, probing the layers after
/// every round; the spans land in `out/trace-<workload>.jsonl`.
pub fn run_traced(name: &str, ctx: &Ctx, rounds: u64) -> Result<Traced, String> {
    let inputs = workloads::Inputs::generate(name, ctx)?;
    let mut w = workloads::setup(name, ctx, &inputs)?;
    let warmup = Stop::Rounds(w.warmup_rounds());
    let warm = run_pass(&mut *w, warmup);

    let baseline = drive(
        &mut *w.clients()[0],
        Stop::Rounds(BASELINE_ROUNDS.min(rounds)),
        &mut Recorder::off(),
    );
    let mut rec = Recorder::on();
    let mut traced = Pass::default();
    let mut layers = Layers::new();
    for _ in 0..rounds {
        let before = w.counters()?;
        let one = drive(&mut *w.clients()[0], Stop::Rounds(1), &mut rec);
        traced.absorb(one);
        for (name, end) in w.counters()? {
            *layers.entry(name).or_insert(0.0) += end.saturating_sub(before[name]) as f64;
        }
        rec.span("probes", |rec| w.probe(rec))?;
    }
    w.layers(&rec, &mut layers)?;
    let round_ns: Vec<f64> = rec.durations("round").iter().map(|&ns| ns as f64).collect();
    let base_ns: Vec<f64> = baseline.round_ns.iter().map(|&ns| ns as f64).collect();
    layers.insert(
        "harness.trace_overhead",
        median(&round_ns) / median(&base_ns) - 1.0,
    );

    let mut errors = warm.errors;
    errors.extend(baseline.errors);
    errors.extend(traced.errors);
    let mut attempted = warm.attempted + baseline.attempted + traced.attempted;
    let mut failed = warm.failed + baseline.failed + traced.failed;
    if let Err(e) = w.final_check() {
        attempted += 1;
        failed += 1;
        errors.push(format!("final check: {e}"));
    }
    w.close();
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("create {}: {e}", ctx.out.display()))?;
    let path = ctx.out.join(format!("trace-{name}.jsonl"));
    rec.write_jsonl(&path, name)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Traced {
        layers,
        attempted,
        failed,
        errors,
        rounds,
        diagnostics: statement_diagnostics(&rec),
    })
}

/// `stmt.<kind>.p50_us` with its sample count for every statement kind
/// of the traced pass, and the share of round time spent outside any
/// statement span (the client's own work: drawing constants, SQL text).
fn statement_diagnostics(rec: &Recorder) -> Vec<String> {
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in rec.spans().iter().filter(|s| s.name.starts_with("stmt.")) {
        kinds
            .entry(&s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
    }
    let mut out: Vec<String> = kinds
        .iter()
        .map(|(kind, us)| format!("{kind}.p50_us {:.1} (n={})", median(us), us.len()))
        .collect();
    let selfs = self_times(rec.spans());
    let (mut own, mut total) = (0u64, 0u64);
    for s in rec.spans().iter().filter(|s| s.name == "round") {
        own += selfs[&s.id];
        total += s.duration_ns();
    }
    if total > 0 {
        out.push(format!(
            "round self-time share {:.4}",
            own as f64 / total as f64
        ));
    }
    out
}

/// Median over traced rounds of the per-round sum of the spans picked,
/// in microseconds.
pub fn per_round_us(rec: &Recorder, pick: impl Fn(&str) -> bool) -> f64 {
    let sums: Vec<f64> = rec
        .per_round(pick)
        .values()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    median(&sums)
}
