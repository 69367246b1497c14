//! A Criterion-shaped micro-bench facade over `std::time::Instant`.
//!
//! The workspace's benches keep their Criterion structure —
//! `criterion_group!` / `criterion_main!`, `Criterion::bench_function`,
//! benchmark groups with per-group sample sizes, `BenchmarkId` — but the
//! measurements come from a simple calibrate-then-sample loop: each
//! sample runs enough iterations to cover a few milliseconds, and the
//! report shows the median, minimum, and maximum time per iteration.
//!
//! This is deliberately *not* a statistics engine. It exists so `cargo
//! bench` works offline and regressions of 2x+ are visible; fine-grained
//! confidence intervals were never load-bearing in this repo.
//!
//! Set `CLARIFY_BENCH_JSON=<path>` to additionally append one JSON record
//! per benchmark to that file, one compact line each — the format the
//! repo's `BENCH_*.json` trajectory files are built from:
//! `{"name":…,"unit":"ns","median_ns":…,"min_ns":…,"max_ns":…,"samples":…,"iters":…}`.
//! The `*_ns` members hold the statistic in `unit`: nanoseconds per
//! iteration for the sampling runner, a count or a node total for some
//! [`emit_record`] callers.
//!
//! Set `CLARIFY_BENCH_QUICK=1` for a fast smoke pass (CI's bench job):
//! the per-sample target drops to 500µs and every benchmark takes at most
//! 5 samples, trading precision for wall-clock time while keeping the
//! same output format.

use std::fmt::Display;
use std::time::{Duration, Instant};

use clarify_obs::json::Value;

/// Target wall-clock time for one sample batch.
const SAMPLE_TARGET: Duration = Duration::from_millis(4);
const DEFAULT_SAMPLES: usize = 15;

/// Quick-mode settings (`CLARIFY_BENCH_QUICK=1`): much smaller batches,
/// few samples — a smoke pass proving the benches run, not a measurement.
const QUICK_SAMPLE_TARGET: Duration = Duration::from_micros(500);
const QUICK_SAMPLES: usize = 5;

/// Whether `CLARIFY_BENCH_QUICK` asks for the fast smoke pass.
fn quick_mode() -> bool {
    std::env::var("CLARIFY_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Entry point handed to every bench function (mirrors
/// `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        run_bench(name, DEFAULT_SAMPLES, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: DEFAULT_SAMPLES,
        }
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark (min 5).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(5);
        self
    }

    /// Runs one parameterized benchmark within the group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id.0);
        run_bench(&name, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (kept for API parity; reporting is immediate).
    pub fn finish(self) {}
}

/// A benchmark identifier derived from its parameter (mirrors
/// `criterion::BenchmarkId`).
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id rendering just the parameter value.
    pub fn from_parameter(p: impl Display) -> BenchmarkId {
        BenchmarkId(p.to_string())
    }

    /// An id with a function name and a parameter value.
    pub fn new(name: impl Display, p: impl Display) -> BenchmarkId {
        BenchmarkId(format!("{name}/{p}"))
    }
}

/// The timing loop handle passed to bench closures.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` invocations of `f` (the measurement the runner
    /// aggregates).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, samples: usize, mut f: F) {
    let (sample_target, samples) = if quick_mode() {
        (QUICK_SAMPLE_TARGET, samples.min(QUICK_SAMPLES))
    } else {
        (SAMPLE_TARGET, samples)
    };
    // Calibrate: grow the iteration count until one batch costs at least
    // the sample target (or a cap is hit, for very slow bodies).
    let mut iters = 1u64;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= sample_target || iters >= 1 << 20 {
            break;
        }
        // At least double; overshoot toward the target in one step when
        // the measured time says we can.
        let scale = (sample_target.as_nanos() / b.elapsed.as_nanos().max(1)).clamp(2, 1024);
        iters = iters.saturating_mul(scale as u64).min(1 << 20);
    }

    let mut per_iter: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            b.elapsed.as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[per_iter.len() / 2];
    let min = per_iter[0];
    let max = per_iter[per_iter.len() - 1];
    emit_record(name, "ns", median, min, max, per_iter.len(), iters);
}

/// Emits one benchmark record outside the calibrate-then-sample loop —
/// for harnesses that measure their own distribution (latency
/// percentiles, throughput under concurrent load) but want the standard
/// reporting: the human `bench ...` line plus a `CLARIFY_BENCH_JSON`
/// record in the exact shape the sampling runner's records use, so the
/// `BENCH_*.json` trajectory tooling ingests both alike.
///
/// `unit` names what the statistics count: `ns` for a time, or e.g.
/// `count` or `nodes`, which `bench_diff` compares exactly. `median` is
/// whatever statistic the harness chose to headline (a percentile, a
/// mean); `min`/`max` bound the observed distribution; `samples` is the
/// number of observations behind it and `iters` how many operations each
/// observation covered.
pub fn emit_record(
    name: &str,
    unit: &str,
    median: f64,
    min: f64,
    max: f64,
    samples: usize,
    iters: u64,
) {
    let show = |v: f64| match unit {
        "ns" => fmt_ns(v),
        _ => format!("{v} {unit}"),
    };
    let per = if unit == "ns" { "/iter" } else { "" };
    println!(
        "bench {name:<48} {:>12}{per}  (min {}, max {}, {samples} samples x {iters} iters)",
        show(median),
        show(min),
        show(max),
    );
    if let Ok(path) = std::env::var("CLARIFY_BENCH_JSON") {
        if !path.is_empty() {
            // A tenth of a unit is finer than any record needs.
            let tenth = |v: f64| Value::from((v * 10.0).round() / 10.0);
            let record = Value::object([
                ("name", name.into()),
                ("unit", unit.into()),
                ("median_ns", tenth(median)),
                ("min_ns", tenth(min)),
                ("max_ns", tenth(max)),
                ("samples", samples.into()),
                ("iters", iters.into()),
            ]);
            append_line(&path, &record.to_compact());
        }
    }
}

/// Appends `line` and a newline to the file at `path`. Failures are
/// reported but never fail the bench run.
fn append_line(path: &str, line: &str) {
    use std::io::Write as _;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = written {
        eprintln!("CLARIFY_BENCH_JSON: cannot append to {path}: {e}");
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Bundles bench functions into a group runnable by [`criterion_main!`]
/// (mirrors `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::bench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generates `main` for a bench binary (mirrors
/// `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

pub use crate::{criterion_group, criterion_main};
