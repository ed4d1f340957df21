//! Minimal in-tree stand-in for the `criterion` benchmark harness.
//!
//! The build container has no crates.io access, so this shim implements
//! the subset of criterion's API the workspace benches use: `Criterion`
//! with `benchmark_group` / `bench_function`, `BenchmarkGroup` with
//! `throughput` / `sample_size` / `bench_with_input`, `Bencher::iter` /
//! `iter_with_setup`, `BenchmarkId`, `Throughput` and the
//! `criterion_group!` / `criterion_main!` macros.
//!
//! It really measures: per benchmark it warms up, then takes
//! `sample_size` wall-clock samples and reports min/median/mean ns per
//! iteration on stdout. When the `CRITERION_JSON_OUT` environment
//! variable names a file, one JSON line per benchmark is appended to it
//! (used to record the `BENCH_*.json` baselines).

use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Top-level harness configuration and entry point.
pub struct Criterion {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
            sample_size: 10,
        }
    }
}

impl Criterion {
    /// Set the target measurement time per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }
    /// Set the warm-up time per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }
    /// Set the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            sample_size: None,
            throughput: None,
        }
    }
    /// Benchmark a single function.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let cfg = (self.measurement_time, self.warm_up_time, self.sample_size);
        run_one(id, None, cfg, &mut f);
        self
    }
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId {
    function_name: Option<String>,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// Function name plus parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function_name: Some(function_name.into()),
            parameter: Some(parameter.to_string()),
        }
    }
    /// Parameter value only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            function_name: None,
            parameter: Some(parameter.to_string()),
        }
    }

    fn render(&self, group: &str) -> String {
        match (&self.function_name, &self.parameter) {
            (Some(f), Some(p)) => format!("{group}/{f}/{p}"),
            (Some(f), None) => format!("{group}/{f}"),
            (None, Some(p)) => format!("{group}/{p}"),
            (None, None) => group.to_owned(),
        }
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Number of elements processed per iteration.
    Elements(u64),
    /// Number of bytes processed per iteration.
    Bytes(u64),
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }
    /// Declare per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }
    /// Benchmark a closure over a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let cfg = (
            self.c.measurement_time,
            self.c.warm_up_time,
            self.sample_size.unwrap_or(self.c.sample_size),
        );
        let label = id.render(&self.name);
        run_one(&label, self.throughput, cfg, &mut |b: &mut Bencher| {
            f(b, input)
        });
        self
    }
    /// Benchmark a closure with no input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: BenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let cfg = (
            self.c.measurement_time,
            self.c.warm_up_time,
            self.sample_size.unwrap_or(self.c.sample_size),
        );
        run_one(&id.render(&self.name), self.throughput, cfg, &mut f);
        self
    }
    /// End the group.
    pub fn finish(self) {}
}

/// Passed to benchmark closures; runs and times the measured routine.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<f64>, // ns per iteration, one entry per sample
    mode: BenchMode,
}

enum BenchMode {
    Calibrate(Duration),
    Measure(usize),
}

impl Bencher {
    /// Time `routine`, repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        match self.mode {
            BenchMode::Calibrate(target) => {
                // Estimate iterations per sample so one sample ≈ target.
                let start = Instant::now();
                let mut n = 0u64;
                while start.elapsed() < target || n == 0 {
                    std::hint::black_box(routine());
                    n += 1;
                    if n >= 1_000_000 {
                        break;
                    }
                }
                self.iters_per_sample = n.max(1);
            }
            BenchMode::Measure(samples) => {
                for _ in 0..samples {
                    let start = Instant::now();
                    for _ in 0..self.iters_per_sample {
                        std::hint::black_box(routine());
                    }
                    let ns = start.elapsed().as_nanos() as f64 / self.iters_per_sample as f64;
                    self.samples.push(ns);
                }
            }
        }
    }

    /// Time `routine` on a fresh value from `setup` each iteration; only
    /// `routine` is timed.
    pub fn iter_with_setup<S, O, Setup: FnMut() -> S, R: FnMut(S) -> O>(
        &mut self,
        mut setup: Setup,
        mut routine: R,
    ) {
        match self.mode {
            BenchMode::Calibrate(_) => {
                let v = setup();
                let start = Instant::now();
                std::hint::black_box(routine(v));
                let _ = start.elapsed();
                self.iters_per_sample = 1;
            }
            BenchMode::Measure(samples) => {
                for _ in 0..samples {
                    let v = setup();
                    let start = Instant::now();
                    std::hint::black_box(routine(v));
                    self.samples.push(start.elapsed().as_nanos() as f64);
                }
            }
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    throughput: Option<Throughput>,
    (measurement_time, warm_up_time, sample_size): (Duration, Duration, usize),
    f: &mut F,
) {
    // Warm-up + calibration pass.
    let mut b = Bencher {
        iters_per_sample: 1,
        samples: Vec::new(),
        mode: BenchMode::Calibrate(warm_up_time),
    };
    f(&mut b);
    let per_sample = measurement_time
        .as_nanos()
        .checked_div(sample_size as u128)
        .unwrap_or(0) as f64;
    let warm_ns = warm_up_time.as_nanos() as f64 / b.iters_per_sample as f64;
    let iters = if warm_ns > 0.0 {
        ((per_sample / warm_ns).ceil() as u64).clamp(1, 1_000_000)
    } else {
        1
    };
    // Measurement pass.
    let mut b = Bencher {
        iters_per_sample: iters,
        samples: Vec::new(),
        mode: BenchMode::Measure(sample_size),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<60} (no samples)");
        return;
    }
    let mut sorted = b.samples.clone();
    sorted.sort_by(|a, c| a.partial_cmp(c).unwrap());
    let min = sorted[0];
    let median = sorted[sorted.len() / 2];
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    let thr = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:>10.1} Melem/s", n as f64 / median * 1000.0)
        }
        Some(Throughput::Bytes(n)) => format!("  {:>10.1} MB/s", n as f64 / median * 1000.0),
        None => String::new(),
    };
    println!(
        "{label:<60} time: [{} {} {}]{}",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
        thr
    );
    if let Ok(path) = std::env::var("CRITERION_JSON_OUT") {
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(
                file,
                "{{\"id\":\"{label}\",\"min_ns\":{min:.1},\"median_ns\":{median:.1},\"mean_ns\":{mean:.1},\"samples\":{},\"iters_per_sample\":{}}}",
                sorted.len(),
                iters
            );
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Define a benchmark group function, optionally with a custom config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name; config = $crate::Criterion::default(); targets = $($target),+);
    };
}

/// Define the benchmark binary's `main`, running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion::default()
            .measurement_time(Duration::from_millis(20))
            .warm_up_time(Duration::from_millis(5))
            .sample_size(3);
        let mut g = c.benchmark_group("shim");
        g.throughput(Throughput::Elements(100));
        g.bench_with_input(BenchmarkId::new("sum", 100), &100u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
        c.bench_function("setup", |b| {
            b.iter_with_setup(|| vec![1u8; 64], |v| v.len())
        });
    }

    #[test]
    fn id_rendering() {
        assert_eq!(BenchmarkId::new("f", 3).render("g"), "g/f/3");
        assert_eq!(BenchmarkId::from_parameter(7).render("g"), "g/7");
    }
}
