//! Characterization golden for L002 (redundant rule).
//!
//! `testdata/lint_redundant.cfg` holds one small route-map per case a
//! redundancy verdict has to get right: `set` clauses that change nothing
//! on the routes they see, two clause lists with one net effect, denies
//! above denies and above the implicit deny, a stanza whose routes split
//! over two agreeing stanzas, and their non-redundant counterparts (weight,
//! next hop, community add against replace, a tag past 16 bits, a deny
//! above a permit, a disagreeing split). One ACL and one prefix list
//! close it. The JSON rendering is pinned against
//! `testdata/lint_redundant_report.json`, byte for byte, through a cold
//! lint, a one-shot incremental re-lint and a session re-lint.

use clarify_lint::{
    apply_suppressions, lint_config, lint_config_incremental, IncrementalLinter, LintCache,
};
use clarify_netconfig::Config;

const ORIGIN: &str = "testdata/lint_redundant.cfg";
const CFG: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../testdata/lint_redundant.cfg"
));
const REPORT: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../testdata/lint_redundant_report.json"
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
