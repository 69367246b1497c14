//! Runs every workload for one second, and a traced pass of each, through
//! the built binary: no operation may fail, every metric `BENCHMARK.json`
//! declares must be printed with its unit, and every span of the trace
//! file must resolve its parent and have a non-negative self time.

use std::process::Command;

use clarify_benchmark::inputs::WORKLOADS;
use clarify_obs::json::{self, Value};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// The file holds decimal bounds, which the workspace's integer-only JSON
/// reader does not take, so this scans its flat metric objects directly.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    let string_after = |obj: &str, key: &str| -> String {
        let rest = &obj[obj.find(&format!("\"{key}\"")).expect("key") + key.len() + 2..];
        let rest = &rest[rest.find('"').expect("value") + 1..];
        rest[..rest.find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (string_after(obj, "name"), string_after(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool, out: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_clarify-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", out)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

fn assert_reports(workload: &str, stdout: &str, metrics: &[(String, String)]) {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,") && last.contains(",\"failed\":0,"),
        "{workload}: {last}"
    );
    for (name, unit) in metrics {
        assert!(
            last.contains(&format!("\"{name}\":{{\"value\":")),
            "{workload}: {name} missing from {last}"
        );
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{workload} {name} ")))
            .unwrap_or_else(|| panic!("{workload}: no line for {name}"));
        assert!(
            line.contains(&format!(" {unit} (n=")),
            "{workload}: {name} printed without unit {unit}: {line}"
        );
    }
}

fn assert_trace_file(path: &std::path::Path) {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let doc = json::parse(&text).expect("trace file is JSON");
    let top = doc.as_object("trace").expect("object");
    let spans = top
        .iter()
        .find(|(k, _)| k == "spans")
        .expect("spans")
        .1
        .as_array("spans")
        .expect("array");
    assert!(!spans.is_empty());
    let mut passes = std::collections::BTreeSet::new();
    for (i, span) in spans.iter().enumerate() {
        let m = span.as_object("span").expect("object");
        let get = |k: &str| &m.iter().find(|(key, _)| key == k).expect(k).1;
        assert_eq!(get("id").as_u64("id").expect("id"), i as u64);
        match get("parent") {
            Value::Null => {}
            p => assert!(p.as_u64("parent").expect("parent id") < i as u64),
        }
        assert!(get("self_ns").as_i64("self_ns").expect("self_ns") >= 0);
        passes.insert(get("pass").as_str("pass").expect("pass").to_string());
    }
    assert_eq!(passes.into_iter().collect::<Vec<_>>(), ["L", "S"]);
}

#[test]
fn every_workload_runs_clean_and_reports_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let out = env!("CARGO_TARGET_TMPDIR");
    for workload in WORKLOADS {
        assert_reports(workload, &run(workload, false, out), &end_to_end);
        assert_reports(workload, &run(workload, true, out), &per_layer);
        assert_trace_file(
            &std::path::Path::new(out)
                .join("benchmark")
                .join(format!("trace-{workload}.json")),
        );
    }
}
