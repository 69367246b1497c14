//! Serial vs parallel byte-identity (ISSUE satellite d).
//!
//! The parallel engine (`clarify-par`) must be invisible in every output:
//! a run with one worker and a run with eight workers have to produce the
//! same bytes, because each worker answers symbolic queries in its own
//! freshly built space and ROBDD canonicity makes those answers depend
//! only on the inputs and the fixed variable order — never on manager
//! history or interleaving.
//!
//! Everything is pinned in ONE test function: the thread-count override is
//! process-global (`clarify::par::set_threads`), so splitting the serial
//! and parallel runs across `#[test]`s would race under the default
//! multi-threaded test harness.

use std::fmt::Write as _;

use clarify::analysis::{PacketSpace, PrefixSpace};
use clarify::core::{
    plan_acl_in_space, AclIntentOracle, Choice, Disambiguator, PlacementStrategy,
    PrefixIntentOracle, PrefixListInsertion,
};
use clarify::lint::lint_config;
use clarify::netconfig::{insert_acl_entry, insert_prefix_list_entry, Config, PrefixListEntry};
use clarify_bench::worked_example_report;

const E1_CFG: &str = include_str!("../testdata/isp_out.cfg");
const E1_REPORT: &str = include_str!("../testdata/e1_worked_example.txt");
const E1_LINT_REPORT: &str = include_str!("../testdata/e1_lint_report.txt");
const EDGE_ACL_CFG: &str = include_str!("../testdata/edge_acl.cfg");

fn lint_report_text() -> String {
    let (cfg, spans) = Config::parse_with_spans(E1_CFG).expect("E1 parses");
    lint_config(&cfg, Some(&spans))
        .expect("lint")
        .render_human("testdata/isp_out.cfg")
}

/// Appends one intended slot's rendered question/answer transcript.
fn render<Q: std::fmt::Display>(out: &mut String, slot: usize, transcript: &[(Q, Choice)]) {
    writeln!(out, "slot {slot}").unwrap();
    for (q, c) in transcript {
        writeln!(out, "{q}\n-> {c:?}").unwrap();
    }
}

/// An ACL plan over the edge ACL — a new udp deny overlapping four of its
/// six entries — driven to every intended slot.
fn acl_transcripts() -> String {
    let base = Config::parse(EDGE_ACL_CFG).expect("edge ACL parses");
    let entry = Config::parse("ip access-list extended X\n deny udp any any\n")
        .expect("entry parses")
        .acls["X"]
        .entries[0]
        .clone();
    let strategy = PlacementStrategy::BinarySearch;
    let plan = plan_acl_in_space(&mut PacketSpace::new(), &base, "EDGE_IN", &entry, strategy)
        .expect("ACL plan");
    let mut out = String::new();
    for slot in 0..=base.acl("EDGE_IN").expect("EDGE_IN").entries.len() {
        let intended = insert_acl_entry(&base, "EDGE_IN", entry.clone(), slot).expect("insert");
        let oracle = &mut AclIntentOracle {
            intended: intended.acl("EDGE_IN").expect("EDGE_IN"),
        };
        let result = plan.clone().drive(oracle).expect("ACL plan drives");
        render(&mut out, slot, &result.transcript);
    }
    out
}

/// A prefix-list plan — the new entry overlaps every entry of the list —
/// driven to every intended slot.
fn prefix_transcripts() -> String {
    let base = Config::parse(
        "ip prefix-list PL seq 5 deny 10.1.0.0/16 le 24\n\
         ip prefix-list PL seq 10 permit 10.0.0.0/8 le 24\n\
         ip prefix-list PL seq 15 deny 0.0.0.0/0 le 32\n",
    )
    .expect("list parses");
    let entry = PrefixListEntry {
        seq: 0,
        action: clarify::netconfig::Action::Permit,
        range: "10.1.128.0/17 le 32".parse().expect("range parses"),
    };
    let kind = PrefixListInsertion::new(&base, "PL", &entry).expect("list exists");
    let plan = Disambiguator::default()
        .plan(&mut PrefixSpace::new(), kind)
        .expect("prefix-list plan");
    let mut out = String::new();
    for slot in 0..=base.prefix_lists["PL"].entries.len() {
        let intended = insert_prefix_list_entry(&base, "PL", entry.clone(), slot).expect("insert");
        let oracle = &mut PrefixIntentOracle {
            intended: &intended.prefix_lists["PL"],
        };
        let result = plan.clone().drive(oracle).expect("prefix-list plan drives");
        render(&mut out, slot, &result.transcript);
    }
    out
}

#[test]
fn one_thread_and_eight_threads_are_byte_identical() {
    // Record throughout: metrics must be purely observational, so the
    // byte-identity contract has to hold with a live registry installed,
    // not just with the disabled default. (This is the only test in the
    // workspace that installs the global registry with the engine
    // running; it owns the process-global set_threads override too.)
    clarify::obs::install(clarify::obs::Registry::new());

    // Serial reference (threads = 1 takes the inline code path in
    // `par_map_init_with_threads` — no pool is spawned at all).
    clarify::par::set_threads(1);
    let worked_serial = worked_example_report();
    let lint_serial = lint_report_text();
    let acl_serial = acl_transcripts();
    let prefix_serial = prefix_transcripts();

    // Parallel run. Eight workers on any host; chunked distribution means
    // the interleaving genuinely differs from the serial order.
    clarify::par::set_threads(8);
    let worked_parallel = worked_example_report();
    let lint_parallel = lint_report_text();
    let acl_parallel = acl_transcripts();
    let prefix_parallel = prefix_transcripts();

    // Back to the default (env var / available_parallelism) for any other
    // code that runs in this process, and back to the no-op registry.
    clarify::par::set_threads(0);
    let snapshot = clarify::obs::global().snapshot();
    clarify::obs::install(clarify::obs::Registry::disabled());

    // The registry actually saw both runs (2 inline, at least 1 pooled
    // map), so the assertions below exercise recording, not a no-op.
    assert!(snapshot.counter("par.inline_runs") > 0);
    assert!(snapshot.counter("par.pool_runs") > 0);
    assert!(snapshot.counter("bdd.ite_calls") > 0);

    assert_eq!(
        worked_serial, worked_parallel,
        "E1 worked example must not depend on the worker count"
    );
    assert_eq!(
        lint_serial, lint_parallel,
        "lint report must not depend on the worker count"
    );
    // The ACL and prefix-list pivot scans share the engine's pooled path:
    // their questions must not depend on the worker count either.
    assert!(acl_serial.contains("Packet:"), "{acl_serial}");
    assert!(prefix_serial.contains("Prefix:"), "{prefix_serial}");
    assert_eq!(
        acl_serial, acl_parallel,
        "ACL questions must not depend on the worker count"
    );
    assert_eq!(
        prefix_serial, prefix_parallel,
        "prefix-list questions must not depend on the worker count"
    );

    // And both match the checked-in goldens, so "identical" can't be
    // satisfied by two equally wrong runs.
    assert_eq!(worked_serial, E1_REPORT);
    assert_eq!(lint_serial, E1_LINT_REPORT);
}
