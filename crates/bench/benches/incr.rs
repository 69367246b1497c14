//! Incremental vs full re-lint after a one-stanza edit: the whole point
//! of the diff-driven engine is that the cost of a re-lint tracks the
//! size of the *edit*, not the size of the config.
//!
//! Three paths per population:
//!
//! - `full`        — cold `lint_config` of the edited config (the oracle
//!   and the baseline everything is measured against);
//! - `incremental` — one-shot `lint_config_incremental` against the
//!   previous run's cache (what `lint --incremental` does: pays one route
//!   space build for the dirty map, splices the rest);
//! - `session`     — `IncrementalLinter::relint` alternating the edit and
//!   its revert, steady state (retained spaces: every re-lint recomputes
//!   the one dirty map on a space that is already built, so this is the
//!   interactive-loop price).

use clarify_rng::StdRng;
use clarify_testkit::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clarify_lint::{lint_config, lint_config_incremental, IncrementalLinter, LintCache};
use clarify_netconfig::{Action, Config, RouteMapStanza};
use clarify_workload::{clean_acl, cross_acl, nested_route_map_config};

/// Appends one match-all stanza to the named route-map — the canonical
/// one-object edit.
fn edited(base: &Config, map: &str) -> Config {
    let mut cfg = base.clone();
    let rm = cfg.route_maps.get_mut(map).expect("map exists");
    let seq = rm.stanzas.iter().map(|s| s.seq).max().unwrap_or(0) + 10;
    rm.stanzas
        .push(RouteMapStanza::match_all(seq, Action::Deny));
    cfg
}

/// A small config: one overlapping route-map and its prefix lists
/// (4 symbolic objects), the shape of the §2 worked example.
fn small_config() -> Config {
    nested_route_map_config("RM_0", 4, 2)
}

/// A campus-flavoured slice: 4 route-maps and 12 ACLs drawn from the §3
/// family generators (~28 symbolic objects with the ancillary lists) —
/// big enough that a full re-lint dwarfs the single dirty object.
fn campus_config() -> Config {
    let mut rng = StdRng::seed_from_u64(7);
    let mut cfg = nested_route_map_config("RM_0", 4, 2);
    for i in 1..4 {
        let extra = nested_route_map_config(&format!("RM_{i}"), 3, 1);
        cfg.route_maps.extend(extra.route_maps);
        cfg.prefix_lists.extend(extra.prefix_lists);
    }
    for i in 0..8 {
        let acl = clean_acl(&mut rng, &format!("ACL_CLEAN_{i}"), 6);
        cfg.acls.insert(acl.name.clone(), acl);
    }
    for i in 0..4 {
        let acl = cross_acl(&mut rng, &format!("ACL_CROSS_{i}"), 5, 2);
        cfg.acls.insert(acl.name.clone(), acl);
    }
    cfg
}

fn bench_population(c: &mut Criterion, label: &str, base: Config) {
    let next = edited(&base, "RM_0");
    // What `--save-cache` leaves behind, round-tripped through JSON as
    // the CLI would read it back.
    let cache_json = {
        let report = lint_config(&base, None).expect("base lint");
        LintCache::from_report(&base, &report).to_json()
    };
    let cache = LintCache::from_json(&cache_json).expect("cache parses");

    let mut g = c.benchmark_group(format!("incr/{label}"));
    g.bench_with_input(BenchmarkId::from_parameter("full"), &(), |b, ()| {
        b.iter(|| black_box(lint_config(&next, None).expect("lint")));
    });
    g.bench_with_input(BenchmarkId::from_parameter("incremental"), &(), |b, ()| {
        b.iter(|| {
            black_box(lint_config_incremental(&next, None, &cache).expect("incremental lint"))
        });
    });
    g.bench_with_input(BenchmarkId::from_parameter("session"), &(), |b, ()| {
        let (mut session, _) = IncrementalLinter::new(base.clone(), None).expect("open session");
        // Build the retained spaces first so iterations measure the steady
        // state of an edit/revert loop, not first-touch builds.
        session.relint(next.clone(), None).expect("warm edit");
        session.relint(base.clone(), None).expect("warm revert");
        let mut flip = false;
        b.iter(|| {
            let cfg = if flip { base.clone() } else { next.clone() };
            flip = !flip;
            black_box(session.relint(cfg, None).expect("relint"))
        });
    });
    g.finish();
}

fn bench_small(c: &mut Criterion) {
    bench_population(c, "small", small_config());
}

fn bench_campus(c: &mut Criterion) {
    bench_population(c, "campus", campus_config());
}

criterion_group!(benches, bench_small, bench_campus);
criterion_main!(benches);
