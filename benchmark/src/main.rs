//! Command line: `clarify-benchmark [--workload NAME] [--seed N]
//! [--seconds N] [--trace 0|1]`.
//!
//! With `--workload` it runs that workload and prints, as its last line,
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Without
//! it, it runs every workload, each in a child process of its own (so
//! `peak_rss_mb` is per workload), and collects their results.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use clarify_benchmark::inputs::{self, WORKLOADS};
use clarify_benchmark::{closed_loop, trace, Outcome, THREADS};
use clarify_obs::json;

const USAGE: &str =
    "usage: clarify-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 25,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number '{v}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Where result and trace files go: under the cargo target directory.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    clarify_par::set_threads(THREADS);
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::escape(m.name),
                m.value,
                json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failures.len(),
        metrics.join(",")
    )
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let (Some(pinned), Some(w)) = (
        inputs::pinned_digest(name),
        inputs::generate(name, args.seed),
    ) else {
        eprintln!("error: unknown workload '{name}' (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    let seed42 = inputs::generate(name, 42).map(|w| inputs::digest(&w));
    if seed42 != Some(pinned) {
        eprintln!(
            "error: the {name} generators no longer produce the pinned seed-42 inputs \
             (fnv1a {:016x}, pinned {pinned:016x}); refusing to report",
            seed42.unwrap_or(0)
        );
        return ExitCode::from(1);
    }
    let digest = inputs::digest(&w);
    println!(
        "{name} inputs seed={} fnv1a={digest:016x} scripts={} threads={THREADS} nproc={}",
        args.seed,
        w.scripts.len(),
        nproc()
    );
    let dir = out_dir();
    let outcome = if args.trace {
        trace::run(&w, args.seed, args.seconds, &dir)
    } else {
        closed_loop::run(&w, args.seconds)
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome.failures.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
        println!("{name} {} {} {} (n={})", m.name, m.value, m.unit, m.n);
    }
    for f in outcome.failures.iter().take(10) {
        eprintln!("failure: {f}");
    }
    let result = result_json(&outcome);
    let record = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{THREADS},\
         \"nproc\":{},\"inputs_fnv1a\":\"{digest:016x}\",\"result\":{result}}}\n",
        args.seed,
        args.seconds,
        args.trace,
        nproc()
    );
    let file = dir.join(format!("results-{name}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("error: writing {}: {e}", file.display());
        return ExitCode::from(1);
    }
    println!("{result}");
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process of its own and gathers their
/// results into `results.json`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for name in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: running {name}: {e}");
                return ExitCode::from(1);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        ok &= out.status.success();
        let last = stdout.lines().last().unwrap_or("null");
        results.push(format!("{}:{last}", json::escape(name)));
    }
    let dir = out_dir();
    let file = dir.join("results.json");
    let record = format!(
        "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"threads\":{THREADS},\"nproc\":{},\
         \"workloads\":{{{}}}}}\n",
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        results.join(",")
    );
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("error: writing {}: {e}", file.display());
        return ExitCode::from(1);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
