//! Characterization golden: every symbolic check on every first-match
//! policy kind.
//!
//! `testdata/lint_kinds.cfg` exercises L001–L004 on a route-map, L001–L003
//! on an ACL and on a prefix list, and one L006 note. The JSON rendering
//! (which carries the `related` field the human one omits) is pinned
//! against `testdata/lint_kinds_report.json`, byte for byte, through all
//! three ways of computing it: a cold lint, a one-shot incremental re-lint
//! and a session re-lint. The incremental paths start from an empty
//! configuration, so every object is recomputed. The `--save-cache` file
//! the lint binary writes for it is pinned against
//! `testdata/lint_kinds_cache.json` the same way.

use clarify_lint::{
    apply_suppressions, lint_config, lint_config_incremental, IncrementalLinter, LintCache,
};
use clarify_netconfig::Config;

const ORIGIN: &str = "testdata/lint_kinds.cfg";
const CFG: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../testdata/lint_kinds.cfg"
));
const REPORT: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../testdata/lint_kinds_report.json"
));
const CACHE: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../testdata/lint_kinds_cache.json"
));

/// Renders a report exactly as `lint --format json` prints it.
fn render(report: clarify_lint::LintReport) -> String {
    apply_suppressions(report, CFG).render_json(ORIGIN)
}

#[test]
fn cold_lint_matches_golden() {
    let (cfg, spans) = Config::parse_with_spans(CFG).expect("parses");
    let report = lint_config(&cfg, Some(&spans)).expect("lint");
    assert_eq!(render(report), REPORT);
}

#[test]
fn one_shot_incremental_lint_matches_golden() {
    let empty = Config::new();
    let prev = LintCache::from_report(&empty, &lint_config(&empty, None).expect("lint"));
    let (cfg, spans) = Config::parse_with_spans(CFG).expect("parses");
    let (report, stats) = lint_config_incremental(&cfg, Some(&spans), &prev).expect("lint");
    assert_eq!(stats.reused_objects, 0);
    assert_eq!(render(report), REPORT);
}

#[test]
fn session_relint_matches_golden() {
    let (mut session, _) = IncrementalLinter::new(Config::new(), None).expect("lint");
    let (cfg, spans) = Config::parse_with_spans(CFG).expect("parses");
    let (report, stats) = session.relint(cfg, Some(&spans)).expect("lint");
    assert_eq!(stats.reused_objects, 0);
    assert_eq!(render(report), REPORT);
}

#[test]
fn saved_cache_matches_golden_and_round_trips() {
    for threads in ["1", "8"] {
        let path = std::env::temp_dir().join(format!(
            "clarify_lint_kinds_cache_{threads}_{}.json",
            std::process::id()
        ));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lint"))
            .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .args(["--format", "json", "--threads", threads, "--save-cache"])
            .arg(&path)
            .arg(ORIGIN)
            .output()
            .expect("lint runs");
        let written = std::fs::read_to_string(&path).expect("cache written");
        std::fs::remove_file(&path).ok();
        assert_eq!(out.status.code(), Some(1), "the config has warnings");
        assert_eq!(written, CACHE, "--save-cache at {threads} thread(s)");
    }
    let cache = LintCache::from_json(CACHE).expect("the golden cache is trusted");
    assert_eq!(cache.to_json(), CACHE);
}
