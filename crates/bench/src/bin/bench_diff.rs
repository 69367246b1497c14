//! Bench comparator: diffs fresh `CLARIFY_BENCH_JSON` records against a
//! committed trajectory baseline (e.g. `BENCH_bdd.json`).
//!
//! Usage:
//!   `bench_diff [--fail-over <pct>] <baseline.json> <fresh.json> [name-prefix]`
//!   `bench_diff [--fail-over <pct>] --all <fresh.json> <baseline.json>...`
//!
//! In `--all` mode every baseline is compared in turn, each under the
//! name prefix derived from its top-level `"bench"` field, and a summary
//! table follows the per-record lines.
//!
//! Each input is read with `clarify_obs::json`: as one document (a
//! trajectory file), or else one record per line (the bench output, an
//! unreadable line skipped with a warning). A record is any object
//! holding a string `"name"` and a number `"median_ns"`. When a name
//! repeats — a trajectory holds one record set per point — the *last*
//! occurrence wins, i.e. the newest committed medians.
//!
//! A record's `"unit"` comes from the baseline record, else from the
//! fresh one, else it is `ns`. Time records (`ns`) compare by ratio, and
//! regressions beyond the threshold print GitHub `::warning::`
//! annotations. Records in any other unit are exact counts: an equal
//! value is `ok`, and any difference is `changed`, with a `::warning::`.
//! By default the exit status is always 0, because shared CI runners
//! make medians too noisy to gate merges on.
//!
//! `--fail-over <pct>` arms a *hard* gate on top of the warnings: any
//! time record whose fresh median exceeds baseline by more than `<pct>` percent
//! prints a `::error::` annotation and the process exits 1. The gate is
//! meant for catastrophic structural regressions (a lost fast path shows
//! up as 3-10x, runner noise as 1.2-1.5x), so CI arms it with a generous
//! percentage and only for the kernel baseline it trusts most.

use std::collections::BTreeMap;
use std::process::ExitCode;

use clarify_obs::json::{self, Value};

/// Fresh-vs-baseline median ratio above which a warning is emitted.
const WARN_RATIO: f64 = 1.5;

/// One record: its headline value and, if it names one, its unit.
struct Record {
    median: f64,
    unit: Option<String>,
}

/// Records by name, the last occurrence of a name winning.
type Records = BTreeMap<String, Record>;

/// The documents in `text`: the whole text as one, or else one per
/// non-empty line, skipping (with a warning) a line that does not parse.
fn documents(text: &str, path: &str) -> Vec<Value> {
    if let Ok(doc) = json::parse(text) {
        return vec![doc];
    }
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .filter_map(|line| match json::parse(line) {
            Ok(doc) => Some(doc),
            Err(e) => {
                println!("::warning::bench_diff: {path}: skipping a line that is not JSON ({e})");
                None
            }
        })
        .collect()
}

/// Adds every record in `v` to `out`, in document order.
fn collect(v: &Value, out: &mut Records) {
    match v {
        Value::Object(members) => {
            let get = |key: &str| members.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let name = get("name").and_then(|v| v.as_str("name").ok());
            let median = get("median_ns").and_then(|v| v.as_f64("median_ns").ok());
            if let (Some(name), Some(median)) = (name, median) {
                let unit = get("unit").and_then(|v| v.as_str("unit").ok());
                let unit = unit.map(str::to_string);
                out.insert(name.to_string(), Record { median, unit });
            }
            members.iter().for_each(|(_, v)| collect(v, out));
        }
        Value::Array(items) => items.iter().for_each(|v| collect(v, out)),
        _ => {}
    }
}

/// The records in `docs`.
fn records(docs: &[Value]) -> Records {
    let mut out = Records::new();
    docs.iter().for_each(|doc| collect(doc, &mut out));
    out
}

fn human(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// The documents in the file at `path`.
fn read(path: &str) -> Option<Vec<Value>> {
    match std::fs::read_to_string(path) {
        Ok(s) => Some(documents(&s, path)),
        Err(e) => {
            println!("bench_diff: cannot read {path}: {e} (skipping, warn-only)");
            None
        }
    }
}

/// Per-baseline comparison tallies for the `--all` summary table.
#[derive(Default)]
struct Tally {
    compared: usize,
    ok: usize,
    improved: usize,
    regressed: usize,
    /// Count records whose value differs.
    changed: usize,
    missing: usize,
    /// Records past the `--fail-over` gate (0 when the gate is unarmed).
    failed: usize,
}

/// Compares every `prefix`-named baseline record against `fresh`,
/// printing one line per record and a `::warning::` annotation per
/// regression or changed count (a `::error::` when the `fail_over` ratio
/// gate trips). Returns the tallies.
fn compare(
    baseline: &Records,
    baseline_path: &str,
    fresh: &Records,
    fresh_path: &str,
    prefix: &str,
    fail_over: Option<f64>,
) -> Tally {
    let mut tally = Tally::default();
    for (name, base) in baseline.iter().filter(|(n, _)| n.starts_with(prefix)) {
        let Some(rec) = fresh.get(name) else {
            println!("::warning::bench_diff: {name} present in {baseline_path} but missing from {fresh_path}");
            tally.missing += 1;
            continue;
        };
        tally.compared += 1;
        let (base_ns, fresh_ns) = (base.median, rec.median);
        let unit = base.unit.as_ref().or(rec.unit.as_ref());
        if let Some(unit) = unit.filter(|u| *u != "ns") {
            let (was, now) = (format!("{base_ns} {unit}"), format!("{fresh_ns} {unit}"));
            let verdict = if base_ns == fresh_ns {
                tally.ok += 1;
                "ok"
            } else {
                tally.changed += 1;
                "changed"
            };
            println!("bench_diff: {name:45} baseline {was:>10}  fresh {now:>10}  {verdict}");
            if verdict == "changed" {
                println!(
                    "::warning::bench_diff: {name} is {now}, committed {was} — \
                     an exact count moved; say why, or re-record the baseline"
                );
            }
            continue;
        }
        let ratio = fresh_ns / base_ns;
        let over_gate = fail_over.is_some_and(|g| ratio > g);
        let verdict = if over_gate {
            tally.failed += 1;
            "FAILED"
        } else if ratio > WARN_RATIO {
            tally.regressed += 1;
            "REGRESSED"
        } else if ratio < 1.0 / WARN_RATIO {
            tally.improved += 1;
            "improved"
        } else {
            tally.ok += 1;
            "ok"
        };
        println!(
            "bench_diff: {name:45} baseline {:>10}  fresh {:>10}  x{ratio:.2}  {verdict}",
            human(base_ns),
            human(fresh_ns),
        );
        if over_gate {
            println!(
                "::error::bench_diff: {name} median {} vs committed {} ({ratio:.2}x, hard gate {:.2}x) — \
                 beyond runner noise; a structural regression must be fixed or the baseline consciously re-recorded",
                human(fresh_ns),
                human(base_ns),
                fail_over.unwrap_or(f64::INFINITY),
            );
        } else if ratio > WARN_RATIO {
            println!(
                "::warning::bench_diff: {name} median {} vs committed {} ({ratio:.2}x, threshold {WARN_RATIO}x) — \
                 noise or a real regression; re-run locally with `cargo bench -p clarify-bench`",
                human(fresh_ns),
                human(base_ns),
            );
        }
    }
    if tally.compared == 0 && tally.missing == 0 {
        println!("::warning::bench_diff: no overlapping '{prefix}*' records between {baseline_path} and {fresh_path}");
    }
    tally
}

/// `--all` mode: one fresh record set against every committed baseline,
/// with a summary table. Exit status stays 0 unless the `fail_over` gate
/// is armed and a record trips it.
fn run_all(fresh_path: &str, baseline_paths: &[String], fail_over: Option<f64>) -> ExitCode {
    let Some(fresh) = read(fresh_path) else {
        return ExitCode::SUCCESS;
    };
    let fresh = records(&fresh);
    let mut rows = Vec::new();
    for path in baseline_paths {
        let Some(docs) = read(path) else {
            continue;
        };
        // The top-level `"bench"` field names the bench target whose
        // records the baseline holds (record names start `<bench>/`).
        let bench = match docs.as_slice() {
            [Value::Object(members)] => members
                .iter()
                .find(|(k, _)| k == "bench")
                .and_then(|(_, v)| v.as_str("bench").ok()),
            _ => None,
        };
        let Some(bench) = bench else {
            println!("::warning::bench_diff: {path} has no top-level \"bench\" field; skipping");
            continue;
        };
        let baseline = records(&docs);
        let prefix = format!("{bench}/");
        let tally = compare(&baseline, path, &fresh, fresh_path, &prefix, fail_over);
        rows.push((path.clone(), tally));
    }
    println!(
        "\nbench_diff summary ({fresh_path} vs {} baselines):",
        rows.len()
    );
    println!(
        "{:<22} {:>8} {:>6} {:>9} {:>10} {:>8} {:>8} {:>7}",
        "baseline", "records", "ok", "improved", "regressed", "changed", "missing", "failed"
    );
    for (path, t) in &rows {
        println!(
            "{:<22} {:>8} {:>6} {:>9} {:>10} {:>8} {:>8} {:>7}",
            path, t.compared, t.ok, t.improved, t.regressed, t.changed, t.missing, t.failed
        );
    }
    if rows.iter().any(|(_, t)| t.failed > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Pulls `--fail-over <pct>` out of the argument list (any position),
/// returning the remaining args and the gate as a fresh/baseline *ratio*
/// (`--fail-over 200` = fail beyond 3.0x).
fn parse_fail_over(args: Vec<String>) -> (Vec<String>, Option<f64>) {
    let mut rest = Vec::with_capacity(args.len());
    let mut gate = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--fail-over" {
            match it.next().and_then(|p| p.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => gate = Some(1.0 + pct / 100.0),
                _ => {
                    eprintln!("bench_diff: --fail-over needs a positive percentage");
                    rest.push(a); // let the usage error surface downstream
                }
            }
        } else {
            rest.push(a);
        }
    }
    (rest, gate)
}

fn main() -> ExitCode {
    let (args, fail_over) = parse_fail_over(std::env::args().skip(1).collect());
    if args.first().map(String::as_str) == Some("--all") {
        let Some(fresh_path) = args.get(1) else {
            eprintln!(
                "usage: bench_diff [--fail-over <pct>] --all <fresh.json> <baseline.json>..."
            );
            return ExitCode::SUCCESS;
        };
        return run_all(fresh_path, &args[2..], fail_over);
    }
    let (baseline_path, fresh_path) = match (args.first(), args.get(1)) {
        (Some(b), Some(f)) => (b.clone(), f.clone()),
        _ => {
            eprintln!(
                "usage: bench_diff [--fail-over <pct>] <baseline.json> <fresh.json> [name-prefix]"
            );
            eprintln!(
                "       bench_diff [--fail-over <pct>] --all <fresh.json> <baseline.json>..."
            );
            // Still warn-only: a misinvocation should not fail the job.
            return ExitCode::SUCCESS;
        }
    };
    let prefix = args.get(2).cloned().unwrap_or_else(|| "bdd_kernel/".into());
    let (Some(baseline), Some(fresh)) = (read(&baseline_path), read(&fresh_path)) else {
        return ExitCode::SUCCESS;
    };
    let (baseline, fresh) = (records(&baseline), records(&fresh));
    let tally = compare(
        &baseline,
        &baseline_path,
        &fresh,
        &fresh_path,
        &prefix,
        fail_over,
    );
    if tally.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
#[path = "bench_diff/tests.rs"]
mod tests;
