//! CLI coverage for `lint --topology`: the pinned E1 and
//! every-network-code golden reports, serial-vs-parallel byte
//! determinism, the edge work counts, SARIF output validation, and the
//! flag-combination usage errors.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use clarify_obs::json::{parse, Value};
use clarify_obs::Snapshot;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .current_dir(repo_root())
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("lint runs")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    let obj = v.as_object("object").unwrap();
    &obj.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no key {key}"))
        .1
}

#[test]
fn e1_topology_matches_the_pinned_golden_report() {
    let out = lint(&["--topology", "testdata/e1_topology.txt"]);
    // Notes only — informational, so the run is clean (exit 0).
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read_to_string(repo_root().join("testdata/e1_topology_report.txt"))
        .expect("pinned golden exists");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "topology report drifted from testdata/e1_topology_report.txt; \
         inspect the diff and re-pin only if the change is intended"
    );
}

/// Every cross-device code (L007–L011) plus the local L002 and L005 on one
/// small topology: configless routers, cross-AS and same-AS sessions, a
/// session bound to a map with a dangling reference, and two routers
/// sharing one config. Then two peered routers whose maps match four
/// 50-entry prefix lists each, the largest rooted fire-set memo among the
/// committed inputs. Both report warnings, so the exit status is 1.
#[test]
fn every_network_code_matches_the_pinned_golden_at_1_and_8_threads() {
    for (topology, report) in [
        ("netlint_codes.txt", "netlint_codes_report.txt"),
        (
            "netlint_prefix_heavy.txt",
            "netlint_prefix_heavy_report.txt",
        ),
    ] {
        let golden = std::fs::read_to_string(repo_root().join("testdata").join(report))
            .expect("pinned golden exists");
        for threads in ["1", "8"] {
            let out = lint(&[
                "--threads",
                threads,
                "--topology",
                &format!("testdata/{topology}"),
            ]);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{topology} --threads {threads}; stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                golden,
                "{topology} --threads {threads}: report drifted from testdata/{report}"
            );
        }
    }
}

/// The edge checks and the leak fixed point share one `NetworkSpace` per
/// run at any worker count, and compose the same edges: 9 receiver edges
/// and 33 policy transfers on E1. The network pass builds each bound
/// map's fire sets once per run (14 of the 49 fire-set builds; the local
/// lint builds the rest) and reads its 42 other lookups from the memo.
#[test]
fn e1_topology_lint_builds_one_space_at_1_and_8_threads() {
    for threads in ["1", "8"] {
        let trace = std::env::temp_dir().join(format!(
            "topology_bin_trace_{}_{threads}.json",
            std::process::id()
        ));
        let out = lint(&[
            "--threads",
            threads,
            "--topology",
            "testdata/e1_topology.txt",
            "--trace-json",
            trace.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "--threads {threads}");
        let json = std::fs::read_to_string(&trace).expect("trace written");
        std::fs::remove_file(&trace).ok();
        let snap = Snapshot::from_json(&json).expect("valid JSON");
        for (counter, want) in [
            ("analysis.network_space_builds", 1),
            ("analysis.fire_set_builds", 49),
            ("analysis.transfers", 33),
            ("lint.net.edges", 9),
        ] {
            assert_eq!(
                snap.counter(counter),
                want,
                "{counter} at --threads {threads}"
            );
        }
    }
}

/// A bound map that sets a metric, local-preference or tag past the
/// 16-bit symbolic range lints like any other: the transfer forgets the
/// field instead of failing the whole run. On this two-router topology
/// B only holds what A sent it, so A's import can never fire (L007).
#[test]
fn set_value_past_16_bits_does_not_fail_the_topology_lint() {
    let dir = std::env::temp_dir().join(format!("topology_bin_wide_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("t.txt"),
        "router A asn 1 config b.cfg\n  originate 10.0.0.0/8\n  \
         neighbor B import IN export OUT role peer\n\
         router B asn 2 config b.cfg\n  neighbor A import IN export OUT role peer\n",
    )
    .unwrap();
    for field in ["metric", "local-preference", "tag"] {
        std::fs::write(
            dir.join("b.cfg"),
            format!("route-map OUT permit 10\n set {field} 70000\nroute-map IN permit 10\n"),
        )
        .unwrap();
        let out = lint(&["--topology", dir.join("t.txt").to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(1),
            "set {field} 70000; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("warning[L007]: route-map IN stanza 10")
                && stdout.ends_with("topology: 0 error(s), 1 warning(s), 0 note(s)\n"),
            "set {field} 70000: {stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serial_and_parallel_topology_lints_are_byte_identical() {
    let one = lint(&["--threads", "1", "--topology", "testdata/e1_topology.txt"]);
    let eight = lint(&["--threads", "8", "--topology", "testdata/e1_topology.txt"]);
    assert_eq!(one.status.code(), Some(0));
    assert_eq!(one.stdout, eight.stdout, "thread count changed the report");
    assert_eq!(one.status.code(), eight.status.code());
}

#[test]
fn sarif_output_is_valid_json_with_the_expected_rules() {
    let out = lint(&[
        "--topology",
        "testdata/e1_topology.txt",
        "--format",
        "sarif",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let log = parse(&String::from_utf8_lossy(&out.stdout)).expect("SARIF parses as JSON");
    assert_eq!(field(&log, "version").as_str("version").unwrap(), "2.1.0");
    let runs = field(&log, "runs").as_array("runs").unwrap();
    assert_eq!(runs.len(), 1);
    let driver = field(field(&runs[0], "tool"), "driver");
    assert_eq!(
        field(driver, "name").as_str("name").unwrap(),
        "clarify-lint"
    );
    // The clean E1 fabric fires exactly the overlap, asymmetric-session,
    // and orphan-community notes.
    let ids: Vec<&str> = field(driver, "rules")
        .as_array("rules")
        .unwrap()
        .iter()
        .map(|r| field(r, "id").as_str("id").unwrap())
        .collect();
    assert_eq!(ids, ["L003", "L009", "L010"], "rule table drifted");
    let results = field(&runs[0], "results").as_array("results").unwrap();
    assert_eq!(results.len(), 12);
    for r in results {
        assert_eq!(field(r, "level").as_str("level").unwrap(), "note");
        let loc = field(
            &field(r, "locations").as_array("locations").unwrap()[0],
            "physicalLocation",
        );
        let uri = field(field(loc, "artifactLocation"), "uri")
            .as_str("uri")
            .unwrap();
        assert!(uri.starts_with("e1_"), "unexpected artifact {uri}");
        field(field(loc, "region"), "startLine")
            .as_u64("startLine")
            .unwrap();
    }
}

#[test]
fn json_format_topology_report_parses() {
    let out = lint(&["--topology", "testdata/e1_topology.txt", "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let log = parse(&String::from_utf8_lossy(&out.stdout)).expect("JSON report parses");
    let routers = field(&log, "routers").as_array("routers").unwrap();
    assert_eq!(routers.len(), 3, "three configured routers report");
}

#[test]
fn topology_is_exclusive_with_config_files_and_cache_flags() {
    let mixed = lint(&[
        "--topology",
        "testdata/e1_topology.txt",
        "testdata/isp_out.cfg",
    ]);
    assert_eq!(mixed.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&mixed.stderr).contains("--topology"));

    let cached = lint(&[
        "--topology",
        "testdata/e1_topology.txt",
        "--save-cache",
        "/tmp/never-written.json",
    ]);
    assert_eq!(cached.status.code(), Some(2));
}

#[test]
fn missing_topology_file_is_a_usage_error() {
    let out = lint(&["--topology", "/nonexistent/topo.txt"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
