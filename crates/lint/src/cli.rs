//! The lint command-line front end, shared by the standalone `lint`
//! binary and `clarify lint`: flag parsing, cache loading, the per-file
//! loop, the topology run, rendering and the exit status.
//!
//! Exit status: 0 when every file is clean (no warnings or errors; notes
//! are informational), 1 when any file has findings (or, with `--strict`,
//! any note), 2 on usage or parse errors.

use std::path::Path;
use std::process::ExitCode;

use clarify_netconfig::Config;
use clarify_netsim::TopologySpec;
use clarify_obs::json::DocError;

use crate::{
    apply_suppressions, lint_config, lint_config_incremental, render_sarif, LintCache, LintReport,
    NetworkLinter,
};

/// The front end's usage text.
pub const USAGE: &str = "\
usage:
  lint [--format human|json|sarif] [--strict] [--threads N] [--no-suppress]
       [--trace-json PATH] [--stats] [--incremental PREV] [--save-cache PATH]
       <config-file>...
  lint --topology <topology-file> [common options]
(`clarify lint` takes the same arguments.)

options:
  --format <F>         output format: human (default), json, or sarif
                       (SARIF 2.1.0, one log for the whole run)
  --json               shorthand for --format json
  --topology <FILE>    lint a whole topology: per-config checks plus the
                       cross-device checks L007-L011 (config paths resolve
                       relative to FILE's directory)
  --no-suppress        ignore inline '! lint-allow L0xx' suppressions
  --strict             treat notes as findings for the exit status
  --threads <N>        worker threads for the symbolic passes (default: the
                       CLARIFY_THREADS env var, else all available cores)
  --trace-json <PATH>  record internal metrics and write them to PATH as
                       JSON at exit
  --stats              record internal metrics and print a summary to
                       stderr at exit
  --incremental <PREV> re-lint against the cache PREV (written by
                       --save-cache on an earlier run): only objects the
                       edit touched are recomputed, cached findings are
                       spliced for the rest. Requires exactly one config
                       file. A stale or mismatched cache falls back to a
                       full recompute with a warning; a corrupt one is an
                       error.
  --save-cache <PATH>  write the lint cache for this run to PATH, for a
                       later --incremental
";

#[derive(Clone, Copy, PartialEq, Default)]
enum Format {
    #[default]
    Human,
    Json,
    Sarif,
}

/// The parsed command line.
#[derive(Default)]
struct Options {
    format: Format,
    strict: bool,
    no_suppress: bool,
    stats: bool,
    trace_json: Option<String>,
    topology: Option<String>,
    incremental: Option<String>,
    save_cache: Option<String>,
    paths: Vec<String>,
}

/// Runs the front end over `args` (the arguments after the program name).
pub fn run(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(e) => return error(format!("{e}\n\n{USAGE}")),
    };
    let recording = opts.trace_json.is_some() || opts.stats;
    if recording {
        clarify_obs::install(clarify_obs::Registry::new());
    }
    let result = match &opts.topology {
        Some(topo) => run_topology(topo, &opts),
        None => run_files(&opts),
    };
    // Dump metrics on every exit path so failing runs still leave a trace.
    if recording {
        let snapshot = clarify_obs::global().snapshot();
        if let Some(path) = &opts.trace_json {
            if let Err(e) = std::fs::write(path, snapshot.to_json()) {
                return error(format!("cannot write {path}: {e}"));
            }
        }
        if opts.stats {
            eprint!("{}", snapshot.render_human());
        }
    }
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => error(e),
    }
}

/// Reports a usage, input or output error: exit status 2.
fn error(message: String) -> ExitCode {
    eprintln!("error: {message}");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{a} takes {what}"))
        };
        match a.as_str() {
            "--json" => opts.format = Format::Json,
            "--format" => {
                opts.format = match value("human, json, or sarif")?.as_str() {
                    "human" => Format::Human,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    _ => return Err("--format takes human, json, or sarif".to_string()),
                }
            }
            "--topology" => opts.topology = Some(value("a file path")?),
            "--no-suppress" => opts.no_suppress = true,
            "--strict" => opts.strict = true,
            "--stats" => opts.stats = true,
            "--trace-json" => opts.trace_json = Some(value("a file path")?),
            "--incremental" => opts.incremental = Some(value("a cache file path")?),
            "--save-cache" => opts.save_cache = Some(value("a file path")?),
            "--threads" => {
                let n = clarify_par::parse_threads(&value("a positive integer")?)
                    .ok_or("--threads takes a positive integer")?;
                clarify_par::set_threads(n);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown option '{flag}'")),
            path => opts.paths.push(path.to_string()),
        }
    }
    let cache_flag = opts.incremental.is_some() || opts.save_cache.is_some();
    if opts.topology.is_some() {
        if !opts.paths.is_empty() || cache_flag {
            return Err("--topology takes no config files and no cache options".to_string());
        }
    } else if opts.paths.is_empty() {
        return Err("lint takes at least one config file".to_string());
    } else if cache_flag && opts.paths.len() != 1 {
        return Err("--incremental/--save-cache require exactly one config file".to_string());
    }
    Ok(opts)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Loads the `--incremental` cache up front: a stale one (checksum or
/// format mismatch) downgrades to a full lint with a warning — never to
/// splicing findings that no longer match any configuration — while a
/// corrupt file is an error.
fn load_cache(path: &str) -> Result<Option<LintCache>, String> {
    match LintCache::from_json(&read(path)?) {
        Ok(cache) => Ok(Some(cache)),
        Err(DocError::Stale(m)) => {
            eprintln!("warning: {path}: stale lint cache ({m}); falling back to full lint");
            Ok(None)
        }
        Err(DocError::Corrupt(m)) => Err(format!("{path}: corrupt lint cache: {m}")),
    }
}

/// Lints a whole topology file: parse, instantiate (config paths resolve
/// relative to the topology file), run the network linter, render.
/// Returns whether the network is clean.
fn run_topology(topo: &str, opts: &Options) -> Result<bool, String> {
    let at = |e: &dyn std::fmt::Display| format!("{topo}: {e}");
    let spec = TopologySpec::parse(&read(topo)?).map_err(|e| at(&e))?;
    let base = Path::new(topo).parent().unwrap_or_else(|| Path::new("."));
    let loaded = spec
        .instantiate(&mut |p| std::fs::read_to_string(base.join(p)).map_err(|e| e.to_string()))
        .map_err(|e| at(&e))?;
    let mut linter = NetworkLinter::new(&loaded);
    if opts.no_suppress {
        linter = linter.no_suppress();
    }
    let report = linter.lint().map_err(|e| at(&e))?;
    match opts.format {
        Format::Human => print!("{}", report.render_human()),
        Format::Json => print!("{}", report.render_json()),
        Format::Sarif => print!("{}", render_sarif(report.diagnostics())),
    }
    Ok(if opts.strict {
        report
            .routers
            .iter()
            .all(|r| r.report.diagnostics.is_empty())
    } else {
        report.is_clean()
    })
}

/// Lints every config file, printing each report as it completes (SARIF:
/// one log for the whole run, once every file is linted). Returns whether
/// every file is clean.
fn run_files(opts: &Options) -> Result<bool, String> {
    let prev = match &opts.incremental {
        Some(path) => load_cache(path)?,
        None => None,
    };
    let mut clean = true;
    let mut sarif: Vec<(&str, LintReport)> = Vec::new();
    for path in &opts.paths {
        let text = read(path)?;
        let (cfg, spans) = Config::parse_with_spans(&text).map_err(|e| format!("{path}: {e}"))?;
        let report = match &prev {
            Some(cache) => {
                lint_config_incremental(&cfg, Some(&spans), cache).map(|(report, _)| report)
            }
            None => lint_config(&cfg, Some(&spans)),
        }
        .map_err(|e| format!("{path}: {e}"))?;
        if let Some(out) = &opts.save_cache {
            let cache = LintCache::from_report(&cfg, &report);
            std::fs::write(out, cache.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        }
        // The cache above stores the unsuppressed report; suppressions
        // only shape what this run prints.
        let report = if opts.no_suppress {
            report
        } else {
            apply_suppressions(report, &text)
        };
        clean &= if opts.strict {
            report.diagnostics.is_empty()
        } else {
            report.is_clean()
        };
        match opts.format {
            Format::Human => print!("{}", report.render_human(path)),
            Format::Json => print!("{}", report.render_json(path)),
            Format::Sarif => sarif.push((path, report)),
        }
    }
    if opts.format == Format::Sarif {
        let diags = sarif
            .iter()
            .flat_map(|(path, report)| report.diagnostics.iter().map(|d| (*path, d)));
        print!("{}", render_sarif(diags));
    }
    Ok(clean)
}
